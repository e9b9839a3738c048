//! `cluster`: the k-of-n store, where no single PSP sees the photo. Two
//! callers share one in-process (5,3) cluster in a closed loop of one
//! upload to three reconstructs, each checked against its upload.

use crate::drive::{closed_loop, Tracer, Window};
use crate::fixtures::{self, Inputs, Upload};
use crate::layers::LayerInputs;
use crate::service::{prove_parity, restart_times, Service};
use crate::share;
use crate::traffic::{stream, ClusterOp, ClusterStream, CLUSTER_HISTORY};
use puppies_core::{KeyGrant, OwnerKey};
use puppies_psp::channel::encode_grant;
use puppies_psp::{ClusterConfig, ClusterPhotoId, ShardedPspCluster};
use rand::Rng;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

const CALLERS: u64 = 2;
/// (n, k) of the cluster.
pub const SHAPE: (usize, usize) = (5, 3);
/// Uploads after which the callers move to a fresh cluster, so stored
/// shares stay bounded (about 60 MB) however fast the window runs.
const UPLOADS_PER_CLUSTER: u64 = 128;

pub struct Cluster {
    seed: u64,
    inputs: Arc<Inputs>,
    /// Protected photo, its grant, and the grant's encoding.
    stored: Vec<(Upload, KeyGrant, Vec<u8>)>,
    key: OwnerKey,
    pub service: Service,
    pub restarts_s: Vec<f64>,
}

/// A fresh (5,3) cluster whose split randomness comes from the seed.
pub fn new_cluster(seed: u64, generation: u64) -> Result<ShardedPspCluster, String> {
    let mut split_seed = [0u8; 32];
    stream(seed, "cluster.split", generation).fill(&mut split_seed[..]);
    ShardedPspCluster::new(ClusterConfig::new(SHAPE.0, SHAPE.1).with_seed(split_seed))
        .map_err(|e| format!("cluster: {e}"))
}

impl Cluster {
    /// The small photos of the share pool.
    pub fn inputs(seed: u64) -> Inputs {
        Inputs::photos_only(fixtures::generate(share::SMALL_PHOTOS, |i| {
            share::pool_photo(seed, i)
        }))
    }

    /// Protects the photos. The loopback service holds only the photo of
    /// the wire parity proof; it restarts `restarts` times.
    pub fn setup(
        seed: u64,
        inputs: Arc<Inputs>,
        dir: &Path,
        restarts: usize,
    ) -> Result<Cluster, String> {
        let photos = &inputs.photos;
        let key = fixtures::owner_key(seed);
        let mut ids = stream(seed, "cluster.ids", 0);
        let stored = photos
            .iter()
            .map(|p| {
                let up = fixtures::protect_photo(p, &key, ids.gen())?;
                let grant = fixtures::grant_for(&key, &up)?;
                let encoded = encode_grant(&grant);
                Ok((up, grant, encoded))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let (mut service, _) = Service::start(dir)?;
        let mut client = service.client()?;
        prove_parity(
            &mut client,
            &stored[0].0,
            &fixtures::share_views(&photos[0]),
        )?;
        drop(client);
        let restarts_s = restart_times(&mut service, restarts)?;
        Ok(Cluster {
            seed,
            inputs,
            stored,
            key,
            service,
            restarts_s,
        })
    }

    pub fn window(&self, seconds: f64, tracer: Option<&mut Tracer>) -> Result<Window, String> {
        let current = RwLock::new(Arc::new(new_cluster(self.seed, 0)?));
        let uploads = AtomicU64::new(0);
        let callers = (0..CALLERS)
            .map(|c| Caller {
                ops: ClusterStream::new(self.seed, c, self.stored.len()),
                history: VecDeque::new(),
            })
            .collect();
        Ok(closed_loop(
            callers,
            seconds,
            "bench.cluster.op",
            tracer,
            |caller| match caller.ops.next_op() {
                ClusterOp::Upload(i) => {
                    let cluster = current.read().expect("cluster lock").clone();
                    let (up, grant, _) = &self.stored[i];
                    let id = {
                        let _s = puppies_obs::span("bench.cluster.upload", "bench");
                        cluster
                            .upload(up.bytes.clone(), up.params.clone(), grant)
                            .map_err(|e| format!("cluster upload: {e}"))?
                    };
                    if caller.history.len() == CLUSTER_HISTORY {
                        caller.history.pop_front();
                    }
                    caller.history.push_back((cluster, id, i));
                    let n = uploads.fetch_add(1, Ordering::Relaxed) + 1;
                    if n % UPLOADS_PER_CLUSTER == 0 {
                        let fresh = new_cluster(self.seed, n / UPLOADS_PER_CLUSTER)?;
                        *current.write().expect("cluster lock") = Arc::new(fresh);
                    }
                    Ok(())
                }
                ClusterOp::Reconstruct(back) => {
                    let (cluster, id, i) = caller
                        .history
                        .iter()
                        .rev()
                        .nth(back)
                        .ok_or("reconstruct before any upload")?;
                    let (grant, bytes) = {
                        let _s = puppies_obs::span("bench.cluster.reconstruct", "bench");
                        cluster
                            .reconstruct(*id)
                            .map_err(|e| format!("reconstruct {}: {e}", id.0))?
                    };
                    let (up, _, grant_bytes) = &self.stored[*i];
                    if bytes != up.bytes || encode_grant(&grant) != *grant_bytes {
                        return Err(format!("reconstruct {} differs from its upload", id.0));
                    }
                    Ok(())
                }
            },
        ))
    }

    pub fn layer_inputs(&self) -> LayerInputs<'_> {
        let pick = 0..8;
        LayerInputs {
            photos: pick.clone().map(|i| &self.inputs.photos[i]).collect(),
            uploads: pick
                .clone()
                .map(|i| (self.stored[i].0.clone(), self.stored[i].1.clone()))
                .collect(),
            views: pick
                .map(|i| fixtures::share_views(&self.inputs.photos[i]))
                .collect(),
            stored: self.stored.iter().map(|(up, _, _)| up.clone()).collect(),
            key: &self.key,
            addr: self.service.addr().to_string(),
        }
    }
}

struct Caller {
    ops: ClusterStream,
    history: VecDeque<(Arc<ShardedPspCluster>, ClusterPhotoId, usize)>,
}

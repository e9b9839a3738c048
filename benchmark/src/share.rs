//! `share`: the paper's path with durable writes. Each connection loops
//! protect → upload (fsync on) → fetch one view with its params →
//! recover through the shadow ROI → check; every fourth operation
//! re-uploads a recompressed copy of an earlier share instead.

use crate::drive::{closed_loop, Tracer, Window};
use crate::fixtures::{self, Expected, Inputs, Photo, Size, Upload};
use crate::layers::LayerInputs;
use crate::service::{prove_parity, restart_times, Service};
use crate::traffic::{stream, ShareOp, ShareStream, SHARE_HISTORY};
use crate::Counters;
use puppies_core::{shadow, KeyGrant, OwnerKey, PublicParams};
use puppies_psp::net::client::WireServed;
use puppies_psp::net::Client;
use puppies_transform::Transformation;
use rand::Rng;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;

/// PASCAL- and FERET-sized photos in the pool.
const SMALL: usize = 24;
/// INRIA-sized photos; every eighth fresh share uses one.
const LARGE: usize = 4;
/// Keep-alive connections, each a closed-loop caller.
const CONNECTIONS: u64 = 2;

/// The share pool: `SMALL` PASCAL/FERET photos, then `LARGE` INRIA ones.
/// `cluster` draws its photos from the same pool.
pub fn pool_photo(seed: u64, i: usize) -> Photo {
    let size = match i {
        i if i >= SMALL => Size::Inria,
        i if i % 2 == 0 => Size::Pascal,
        _ => Size::Feret,
    };
    fixtures::photo(seed, "share.pool", i, size)
}

/// The small photos of the share pool.
pub const SMALL_PHOTOS: usize = SMALL;

pub struct Share {
    seed: u64,
    inputs: Arc<Inputs>,
    views: Vec<Vec<Transformation>>,
    key: OwnerKey,
    grant: KeyGrant,
    stored: Vec<(Upload, KeyGrant)>,
    pub service: Service,
    pub restarts_s: Vec<f64>,
}

impl Share {
    /// The share pool, with the reference for each of its views.
    pub fn inputs(seed: u64) -> Result<Inputs, String> {
        let photos = fixtures::generate(SMALL + LARGE, |i| pool_photo(seed, i));
        let expected = photos
            .iter()
            .map(|p| {
                let views = fixtures::share_views(p);
                views.iter().map(|t| fixtures::expected(p, t)).collect()
            })
            .collect::<Result<_, String>>()?;
        Ok(Inputs { photos, expected })
    }

    /// Protects the pool, uploads it (fsync on) after the parity proof,
    /// and restarts the server `restarts` times.
    pub fn setup(
        seed: u64,
        inputs: Arc<Inputs>,
        dir: &Path,
        restarts: usize,
    ) -> Result<Share, String> {
        let photos = &inputs.photos;
        let views: Vec<_> = photos.iter().map(fixtures::share_views).collect();
        let key = fixtures::owner_key(seed);
        let mut ids = stream(seed, "share.pool.ids", 0);
        let stored = photos
            .iter()
            .map(|p| {
                let up = fixtures::protect_photo(p, &key, ids.gen())?;
                let grant = fixtures::grant_for(&key, &up)?;
                Ok((up, grant))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let (mut service, _) = Service::start(dir)?;
        let mut client = service.client()?;
        prove_parity(&mut client, &stored[0].0, &views[0])?;
        for (up, _) in &stored {
            client
                .upload(&up.bytes, &up.params)
                .map_err(|e| format!("pool upload: {e}"))?;
        }
        drop(client);
        let restarts_s = restart_times(&mut service, restarts)?;
        Ok(Share {
            seed,
            grant: key.grant_all(),
            inputs,
            views,
            key,
            stored,
            service,
            restarts_s,
        })
    }

    pub fn window(
        &self,
        seconds: f64,
        tracer: Option<&mut Tracer>,
        counters: &Counters,
    ) -> Result<Window, String> {
        let conns = (0..CONNECTIONS)
            .map(|c| {
                Ok(Conn {
                    client: self.service.client()?,
                    ops: ShareStream::new(self.seed, c, SMALL, LARGE, 4),
                    history: VecDeque::new(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(closed_loop(
            conns,
            seconds,
            "bench.share.op",
            tracer,
            |conn| self.op(conn, counters),
        ))
    }

    fn op(&self, conn: &mut Conn, counters: &Counters) -> Result<(), String> {
        let (photo, view, upload, copy) = match conn.ops.next_op() {
            ShareOp::Fresh {
                photo,
                view,
                image_id,
            } => {
                let up = {
                    let _s = puppies_obs::span("bench.core.protect", "bench");
                    fixtures::protect_photo(&self.inputs.photos[photo], &self.key, image_id)?
                };
                (photo, view, up, None)
            }
            ShareOp::Circulate { back, quality } => {
                let (up, photo, view) = conn
                    .history
                    .iter()
                    .rev()
                    .nth(back)
                    .cloned()
                    .ok_or("circulation before any share")?;
                let copy = {
                    let _s = puppies_obs::span("bench.jpeg.recompress", "bench");
                    fixtures::recompress(&up.bytes, quality)?
                };
                (photo, view, up, Some(copy))
            }
        };
        let t = &self.views[photo][view];
        let id = {
            let _s = puppies_obs::span("bench.net.upload", "bench");
            let bytes = copy.as_deref().unwrap_or(&upload.bytes);
            conn.client
                .upload(bytes, &upload.params)
                .map_err(|e| format!("upload: {e}"))?
                .id
        };
        let (bytes, params, cache, served) = {
            let _s = puppies_obs::span("bench.net.download_transformed", "bench");
            conn.client
                .download_transformed_traced(id, t)
                .map_err(|e| format!("view {t:?}: {e}"))?
        };
        counters.note(cache, served, copy.is_some());
        let image = &self.inputs.photos[photo].image;
        let (w, h) = (image.width(), image.height());
        let want = match (&copy, t.is_coeff_domain(w, h)) {
            (Some(_), _) => WireServed::SigCached,
            (None, true) => WireServed::CoeffDomain,
            (None, false) => WireServed::PixelFallback,
        };
        if served != want {
            return Err(format!("view {t:?} served {served:?}, expected {want:?}"));
        }
        let recovered = {
            let _s = puppies_obs::span("bench.core.recover_transformed", "bench");
            let params = PublicParams::from_bytes(&params).map_err(|e| e.to_string())?;
            shadow::recover_transformed(&bytes, &params, &self.grant)
                .map_err(|e| format!("recover {t:?}: {e}"))?
        };
        let expected = &self.inputs.expected[photo][view];
        let met_rule = fixtures::check(expected, &recovered, &bytes)
            .map_err(|e| format!("photo {photo} view {t:?}: {e}"))?;
        if let Expected::Shadow(_) = expected {
            counters.note_shadow(!met_rule);
        }
        if copy.is_none() {
            if conn.history.len() == SHARE_HISTORY {
                conn.history.pop_front();
            }
            conn.history.push_back((upload, photo, view));
        }
        Ok(())
    }

    pub fn layer_inputs(&self) -> LayerInputs<'_> {
        // Seven small photos and one large, the mix of fresh shares.
        let pick: Vec<usize> = (0..7).chain([SMALL]).collect();
        LayerInputs {
            photos: pick.iter().map(|&i| &self.inputs.photos[i]).collect(),
            uploads: pick.iter().map(|&i| self.stored[i].clone()).collect(),
            stored: self.stored.iter().map(|(up, _)| up.clone()).collect(),
            views: pick.iter().map(|&i| self.views[i].clone()).collect(),
            key: &self.key,
            addr: self.service.addr().to_string(),
        }
    }
}

struct Conn {
    client: Client,
    ops: ShareStream,
    history: VecDeque<(Upload, usize, usize)>,
}

//! `view`: the read-mostly serving path. 64 stored photos plus
//! recompressed copies of 16 of them, served to two keep-alive
//! connections as zipf-skewed transformed views, downloads, params and
//! near-duplicate searches, all from a warm cache.

use crate::drive::{closed_loop, Tracer, Window};
use crate::fixtures::{self, Inputs, Size, Upload};
use crate::layers::LayerInputs;
use crate::service::{prove_parity, restart_times, Service};
use crate::traffic::{stream, ViewOp, ViewStream};
use crate::Counters;
use puppies_core::OwnerKey;
use puppies_psp::net::Client;
use puppies_psp::PhotoId;
use puppies_transform::Transformation;
use rand::Rng;
use std::path::Path;
use std::sync::Arc;

const PHOTOS: usize = 64;
const COPIES: usize = 16;
const CONNECTIONS: u64 = 2;

type SearchReply = (u64, Vec<(PhotoId, u32)>);

pub struct View {
    seed: u64,
    inputs: Arc<Inputs>,
    /// The 64 originals, then the copies of the first 16.
    uploads: Vec<Upload>,
    ids: Vec<PhotoId>,
    views: Vec<Vec<Transformation>>,
    /// (stored photo, view) keys of transformed traffic.
    keys: Vec<(usize, usize)>,
    warm_views: Vec<(Vec<u8>, Vec<u8>)>,
    warm_downloads: Vec<Vec<u8>>,
    warm_params: Vec<Vec<u8>>,
    warm_searches: Vec<SearchReply>,
    key: OwnerKey,
    pub service: Service,
    pub restarts_s: Vec<f64>,
    /// Stored photos `POST /search` probes with: the PASCAL-sized ones.
    probes: Vec<usize>,
    /// Bytes of the transformed responses: the cache's working set.
    pub working_set_bytes: usize,
}

/// The original a stored photo shows (copies show their source).
fn original(stored: usize) -> usize {
    if stored < PHOTOS {
        stored
    } else {
        stored - PHOTOS
    }
}

impl View {
    /// The 64 originals, PASCAL- (even) and FERET-sized (odd) in turn.
    pub fn inputs(seed: u64) -> Inputs {
        Inputs::photos_only(fixtures::generate(PHOTOS, |i| {
            let size = if i % 2 == 0 {
                Size::Pascal
            } else {
                Size::Feret
            };
            fixtures::photo(seed, "view.photos", i, size)
        }))
    }

    /// Uploads the photos and copies, restarts the server `restarts`
    /// times (at least once), and warms every key.
    pub fn setup(
        seed: u64,
        inputs: Arc<Inputs>,
        dir: &Path,
        restarts: usize,
    ) -> Result<View, String> {
        let photos = &inputs.photos;
        let views: Vec<_> = photos.iter().map(fixtures::view_views).collect();
        let key = fixtures::owner_key(seed);
        let mut rng = stream(seed, "view.ids", 0);
        let mut uploads = photos
            .iter()
            .map(|p| fixtures::protect_photo(p, &key, rng.gen()))
            .collect::<Result<Vec<_>, _>>()?;
        for i in 0..COPIES {
            let quality = [55, 70, 85][rng.gen_range(0..3)];
            uploads.push(Upload {
                bytes: fixtures::recompress(&uploads[i].bytes, quality)?,
                params: uploads[i].params.clone(),
            });
        }
        let (mut service, _) = Service::start(dir)?;
        let mut client = service.client()?;
        prove_parity(&mut client, &uploads[0], &views[0])?;
        let ids = uploads
            .iter()
            .map(|u| client.upload(&u.bytes, &u.params).map(|r| r.id))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("upload: {e}"))?;
        drop(client);
        // Traffic meets a server that recovered its store from disk.
        let restarts_s = restart_times(&mut service, restarts.max(1))?;

        // Warm-up: every key once, originals before their copies so each
        // copy's views come from its family's cached results.
        let mut client = service.client()?;
        let keys: Vec<(usize, usize)> = (0..uploads.len())
            .flat_map(|s| (0..views[original(s)].len()).map(move |v| (s, v)))
            .collect();
        let warm_views = keys
            .iter()
            .map(|&(s, v)| {
                client
                    .download_transformed(ids[s], &views[original(s)][v])
                    .map(|(b, p, _)| (b, p))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up view: {e}"))?;
        let warm_downloads = ids
            .iter()
            .map(|&id| client.download(id))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up download: {e}"))?;
        let warm_params = ids
            .iter()
            .map(|&id| client.download_params(id))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up params: {e}"))?;
        let warm_searches = uploads
            .iter()
            .map(|u| client.search(&u.bytes, Some(&u.params)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up search: {e}"))?;
        for (i, (_, matches)) in warm_searches.iter().enumerate() {
            if !matches.iter().any(|&(id, _)| id == ids[i]) {
                return Err(format!("search for stored photo {} misses it", ids[i].0));
            }
        }
        let working_set_bytes = warm_views.iter().map(|(b, p)| b.len() + p.len()).sum();
        let probes = (0..uploads.len())
            .filter(|&s| original(s) % 2 == 0)
            .collect();
        Ok(View {
            seed,
            inputs,
            uploads,
            ids,
            views,
            keys,
            warm_views,
            warm_downloads,
            warm_params,
            warm_searches,
            key,
            probes,
            service,
            restarts_s,
            working_set_bytes,
        })
    }

    pub fn window(
        &self,
        seconds: f64,
        tracer: Option<&mut Tracer>,
        counters: &Counters,
    ) -> Result<Window, String> {
        // Ranks deal out the size classes (even originals are PASCAL-sized)
        // and, for transformed views, the six views.
        let photo_classes: Vec<usize> = (0..self.uploads.len()).map(|s| original(s) % 2).collect();
        let key_classes: Vec<usize> = self
            .keys
            .iter()
            .map(|&(s, v)| 2 * v + photo_classes[s])
            .collect();
        let conns = (0..CONNECTIONS)
            .map(|c| {
                Ok((
                    self.service.client()?,
                    ViewStream::new(self.seed, c, &key_classes, &photo_classes, &self.probes),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(closed_loop(
            conns,
            seconds,
            "bench.view.op",
            tracer,
            |(client, ops)| self.op(client, ops.next_op(), counters),
        ))
    }

    fn op(&self, client: &mut Client, op: ViewOp, counters: &Counters) -> Result<(), String> {
        match op {
            ViewOp::Transformed(k) => {
                let (s, v) = self.keys[k];
                let t = &self.views[original(s)][v];
                let (bytes, params, cache, served) = client
                    .download_transformed_traced(self.ids[s], t)
                    .map_err(|e| format!("view {t:?}: {e}"))?;
                counters.note(cache, served, s >= PHOTOS);
                let (want_b, want_p) = &self.warm_views[k];
                same_as_warmup("view bytes", want_b, &bytes)?;
                same_as_warmup("view params", want_p, &params)
            }
            ViewOp::Download(i) => {
                let got = client
                    .download(self.ids[i])
                    .map_err(|e| format!("download: {e}"))?;
                same_as_warmup("download", &self.warm_downloads[i], &got)
            }
            ViewOp::Params(i) => {
                let got = client
                    .download_params(self.ids[i])
                    .map_err(|e| format!("params: {e}"))?;
                same_as_warmup("params", &self.warm_params[i], &got)
            }
            ViewOp::Search(i) => {
                let u = &self.uploads[i];
                let got = client
                    .search(&u.bytes, Some(&u.params))
                    .map_err(|e| format!("search: {e}"))?;
                if got == self.warm_searches[i] {
                    Ok(())
                } else {
                    Err(format!(
                        "search for photo {} differs from warm-up",
                        self.ids[i].0
                    ))
                }
            }
        }
    }

    pub fn layer_inputs(&self) -> Result<LayerInputs<'_>, String> {
        let pick = 0..8;
        Ok(LayerInputs {
            photos: pick.clone().map(|i| &self.inputs.photos[i]).collect(),
            uploads: pick
                .clone()
                .map(|i| {
                    let up = self.uploads[i].clone();
                    fixtures::grant_for(&self.key, &up).map(|g| (up, g))
                })
                .collect::<Result<_, _>>()?,
            views: pick.map(|i| self.views[i].clone()).collect(),
            stored: self.uploads.clone(),
            key: &self.key,
            addr: self.service.addr().to_string(),
        })
    }
}

/// A served reply must be byte-identical to what warm-up saw.
pub fn same_as_warmup(what: &str, want: &[u8], got: &[u8]) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("{what} differs from its warm-up bytes"))
    }
}

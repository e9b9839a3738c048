//! The traced run's layer pass: calls each layer's public functions on
//! the workload's own inputs and times every call from outside.

use crate::cluster::{new_cluster, SHAPE};
use crate::fixtures::{self, Photo, Upload, QUALITY};
use crate::host;
use crate::stats::Timing;
use puppies_core::{protect, protect_coeff, shadow, KeyGrant, OwnerKey, PublicParams};
use puppies_jpeg::{CoeffImage, EncodeOptions};
use puppies_parallel::WorkerPool;
use puppies_psp::cluster::shamir;
use puppies_psp::net::Client;
use puppies_psp::sha256::sha256;
use puppies_psp::{DiskStore, PspConfig, PspServer, Wal, WalRecord, NEAR_DUP_DISTANCE};
use puppies_transform::Transformation;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Calls per input for the cheap functions.
const REPEATS: usize = 3;
/// Calls for the functions with one fixed input.
const FIXED_CALLS: usize = 64;
/// Fresh connections timed for `net.connect_us`.
const CONNECTS: usize = 16;

/// A workload's inputs as the layer pass sees them.
pub struct LayerInputs<'a> {
    pub photos: Vec<&'a Photo>,
    /// Each photo protected, with the grant for its regions.
    pub uploads: Vec<(Upload, KeyGrant)>,
    pub views: Vec<Vec<Transformation>>,
    /// Everything the workload's set-up stored: the index searches run
    /// against.
    pub stored: Vec<Upload>,
    pub key: &'a OwnerKey,
    /// The workload's live service.
    pub addr: String,
}

/// Timings by metric name, plus the ratios measured in the pass.
#[derive(Default)]
pub struct LayerPass {
    pub timings: BTreeMap<&'static str, Timing>,
    pub values: BTreeMap<&'static str, f64>,
}

impl LayerPass {
    fn t(&mut self, name: &'static str) -> &mut Timing {
        self.timings.entry(name).or_default()
    }
}

/// Runs every layer's functions on `inputs`; disk files go under `dir`.
pub fn run(inputs: &LayerInputs<'_>, dir: &Path) -> Result<LayerPass, String> {
    let mut pass = LayerPass::default();
    codec_core_transform(&mut pass, inputs)?;
    store_sig(&mut pass, inputs)?;
    net(&mut pass, inputs)?;
    disk(&mut pass, inputs, dir)?;
    cluster(&mut pass, inputs)?;
    let pool = WorkerPool::global();
    for _ in 0..FIXED_CALLS {
        pass.t("parallel.fanout_us")
            .time(|| pool.map_indexed(5, std::hint::black_box));
    }
    Ok(pass)
}

fn codec_core_transform(pass: &mut LayerPass, inputs: &LayerInputs<'_>) -> Result<(), String> {
    for ((photo, (up, _)), views) in inputs.photos.iter().zip(&inputs.uploads).zip(&inputs.views) {
        let image_id = PublicParams::from_bytes(&up.params)
            .map_err(|e| format!("params: {e}"))?
            .image_id;
        let opts = fixtures::options(image_id);
        for _ in 0..REPEATS {
            let coeff = pass
                .t("jpeg.decode_us")
                .time(|| CoeffImage::decode(&up.bytes))
                .map_err(|e| format!("decode: {e}"))?;
            pass.t("jpeg.encode_us")
                .time(|| coeff.encode(&EncodeOptions::default()))
                .map_err(|e| format!("encode: {e}"))?;
            let rgb = pass.t("jpeg.to_rgb_us").time(|| coeff.to_rgb());
            pass.t("core.protect_us")
                .time(|| protect(&photo.image, &photo.rois, inputs.key, &opts))
                .map_err(|e| format!("protect: {e}"))?;
            let mut plain = CoeffImage::from_rgb(&photo.image, QUALITY);
            pass.t("core.protect_coeff_us")
                .time(|| protect_coeff(&mut plain, &photo.rois, inputs.key, &opts))
                .map_err(|e| format!("protect_coeff: {e}"))?;
            for t in views {
                if t.is_coeff_domain(coeff.width(), coeff.height()) {
                    pass.t("transform.coeff_us")
                        .time(|| t.apply_to_coeff(&coeff))
                        .map_err(|e| format!("transform: {e}"))?;
                } else {
                    pass.t("transform.pixel_us")
                        .time(|| t.apply_to_rgb(&rgb))
                        .map_err(|e| format!("transform: {e}"))?;
                }
            }
        }
    }
    Ok(())
}

fn store_sig(pass: &mut LayerPass, inputs: &LayerInputs<'_>) -> Result<(), String> {
    let store = PspServer::new();
    let grant = inputs.key.grant_all();
    for ((up, _), views) in inputs.uploads.iter().zip(&inputs.views) {
        let (bytes, params) = (up.bytes.clone(), up.params.clone());
        let id = pass
            .t("store.upload_us")
            .time(|| store.upload(bytes, params))
            .map_err(|e| format!("store upload: {e}"))?;
        for t in views {
            let (b, p) = pass
                .t("store.transformed_miss_us")
                .time(|| store.download_transformed(id, t))
                .map_err(|e| format!("store miss: {e}"))?;
            for _ in 0..REPEATS {
                pass.t("store.transformed_hit_us")
                    .time(|| store.download_transformed(id, t))
                    .map_err(|e| format!("store hit: {e}"))?;
            }
            let params = PublicParams::from_bytes(&p).map_err(|e| format!("view params: {e}"))?;
            pass.t("core.recover_transformed_us")
                .time(|| shadow::recover_transformed(&b, &params, &grant))
                .map_err(|e| format!("recover: {e}"))?;
        }
        for _ in 0..REPEATS {
            pass.t("store.download_us")
                .time(|| store.download(id))
                .map_err(|e| format!("store download: {e}"))?;
        }
    }
    // Searches run against an index of the workload's whole stored set.
    for up in &inputs.stored {
        if !inputs.uploads.iter().any(|(u, _)| u.bytes == up.bytes) {
            store
                .upload(up.bytes.clone(), up.params.clone())
                .map_err(|e| format!("store upload: {e}"))?;
        }
    }
    let mut searches = 0u64;
    for (up, _) in &inputs.uploads {
        let sig = pass
            .t("sig.probe_us")
            .time(|| PspServer::probe_signature(&up.bytes, Some(&up.params)))
            .ok_or("probe of a stored photo did not decode")?;
        let scanned = store.sig_index_scanned();
        for _ in 0..REPEATS {
            pass.t("sig.search_us")
                .time(|| store.search_similar(sig, NEAR_DUP_DISTANCE, 16));
        }
        searches += store.sig_index_scanned() - scanned;
    }
    pass.values.insert(
        "sig.scanned_per_query",
        searches as f64 / (REPEATS * inputs.uploads.len()) as f64,
    );
    Ok(())
}

fn net(pass: &mut LayerPass, inputs: &LayerInputs<'_>) -> Result<(), String> {
    let mut client = Client::connect(&inputs.addr).map_err(|e| format!("connect: {e}"))?;
    for _ in 0..FIXED_CALLS {
        pass.t("net.roundtrip_us")
            .time(|| client.health())
            .map_err(|e| format!("health: {e}"))?;
    }
    let (up, _) = &inputs.uploads[0];
    let t = &inputs.views[0][0];
    let id = client
        .upload(&up.bytes, &up.params)
        .map_err(|e| format!("upload: {e}"))?
        .id;
    client
        .download_transformed(id, t)
        .map_err(|e| format!("wire miss: {e}"))?;
    let mut wire_hit = Timing::default();
    let before = host::tcp_out_segments();
    for _ in 0..FIXED_CALLS {
        wire_hit
            .time(|| client.download_transformed(id, t))
            .map_err(|e| format!("wire hit: {e}"))?;
    }
    let segments = host::tcp_out_segments() - before;
    pass.values.insert(
        "net.tcp_segments_per_request",
        segments as f64 / FIXED_CALLS as f64,
    );
    // The same key served in process: what the wire adds on top of it.
    let local = PspServer::new();
    let local_id = local
        .upload(up.bytes.clone(), up.params.clone())
        .map_err(|e| format!("store upload: {e}"))?;
    local
        .download_transformed(local_id, t)
        .map_err(|e| format!("store miss: {e}"))?;
    let mut local_hit = Timing::default();
    for _ in 0..FIXED_CALLS {
        local_hit
            .time(|| local.download_transformed(local_id, t))
            .map_err(|e| format!("store hit: {e}"))?;
    }
    pass.values
        .insert("net.overhead_us", wire_hit.p50_us() - local_hit.p50_us());
    drop(client);
    for _ in 0..CONNECTS {
        let began = Instant::now();
        let mut fresh = Client::connect(&inputs.addr).map_err(|e| format!("connect: {e}"))?;
        fresh.health().map_err(|e| format!("health: {e}"))?;
        pass.t("net.connect_us").record(began.elapsed());
    }
    Ok(())
}

fn disk(pass: &mut LayerPass, inputs: &LayerInputs<'_>, dir: &Path) -> Result<(), String> {
    let store = DiskStore::open(&dir.join("store"), PspConfig::default(), true)
        .map_err(|e| format!("disk store: {e}"))?;
    let before = host::write_bytes();
    let mut uploaded = 0usize;
    for (up, _) in &inputs.uploads {
        let (bytes, params) = (up.bytes.clone(), up.params.clone());
        uploaded += bytes.len() + params.len();
        pass.t("disk.upload_us")
            .time(|| store.upload(bytes, params))
            .map_err(|e| format!("disk upload: {e}"))?;
    }
    let written = host::write_bytes() - before;
    pass.values.insert(
        "disk.write_bytes_per_upload_byte",
        written as f64 / uploaded as f64,
    );
    let mut wal = Wal::open(&dir.join("bench.wal"), true).map_err(|e| format!("wal: {e}"))?;
    let (up, _) = &inputs.uploads[0];
    let (bytes_sha, params_sha) = (sha256(&up.bytes), sha256(&up.params));
    for id in 0..FIXED_CALLS as u64 {
        let record = WalRecord::Upload {
            id,
            bytes_sha,
            params_sha,
        };
        pass.t("wal.append_us")
            .time(|| wal.append(&record))
            .map_err(|e| format!("wal append: {e}"))?;
    }
    Ok(())
}

fn cluster(pass: &mut LayerPass, inputs: &LayerInputs<'_>) -> Result<(), String> {
    let cluster = new_cluster(0, 0)?;
    for (up, grant) in &inputs.uploads {
        let (bytes, params) = (up.bytes.clone(), up.params.clone());
        let id = pass
            .t("cluster.upload_us")
            .time(|| cluster.upload(bytes, params, grant))
            .map_err(|e| format!("cluster upload: {e}"))?;
        for _ in 0..REPEATS {
            pass.t("cluster.reconstruct_us")
                .time(|| cluster.reconstruct(id))
                .map_err(|e| format!("cluster reconstruct: {e}"))?;
        }
    }
    let (mut split, mut join) = (Timing::default(), Timing::default());
    let mut bytes = 0usize;
    for (up, _) in &inputs.uploads {
        for _ in 0..REPEATS {
            bytes += up.bytes.len();
            let shares = split
                .time(|| shamir::split(&up.bytes, SHAPE.0, SHAPE.1, 0, [9; 32]))
                .map_err(|e| format!("split: {e}"))?;
            let secret = join
                .time(|| shamir::reconstruct(&shares[..SHAPE.1]))
                .map_err(|e| format!("shamir reconstruct: {e}"))?;
            if secret != up.bytes {
                return Err("shamir reconstruct differs from the secret".into());
            }
        }
    }
    let mb = bytes as f64 / 1e6;
    pass.values
        .insert("shamir.split_mb_s", mb / (split.total_ms() / 1e3));
    pass.values
        .insert("shamir.reconstruct_mb_s", mb / (join.total_ms() / 1e3));
    Ok(())
}

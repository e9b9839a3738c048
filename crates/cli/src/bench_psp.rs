//! `puppies bench psp` — closed-loop throughput benchmark for the PSP
//! serving path.
//!
//! Two scenarios, each driven by N client threads in a closed loop (every
//! thread issues its next request the moment the previous one returns):
//!
//! * **repeat-transform** — pure `download_transformed` traffic over a
//!   small population of (photo, transformation) keys sampled from a
//!   zipf distribution (the "80/20" shape of real photo serving: a few
//!   hot derived views absorb most requests). This is where the
//!   content-addressed transform cache pays.
//! * **mixed-uncached** — download-heavy mixed traffic (downloads,
//!   params fetches, uploads) that never touches the transform cache.
//!   This is where sharding and the zero-copy `Arc<[u8]>` download path
//!   pay.
//!
//! Both scenarios run twice: once against the current [`PspServer`] and
//! once against [`LegacyServer`], an embedded replica of the pre-cache
//! server (one global `RwLock<HashMap>` of `Vec<u8>` photos, full-`Vec`
//! clone on every download, one global write-locked request log, and a
//! full decode→transform→re-encode pipeline — at hardcoded quality 75 on
//! the pixel path — for every transformed view). Running both on the
//! same machine in the same process makes the speedup ratios
//! machine-independent, which is what the CI gate checks.
//!
//! Before timing anything, the harness proves the two servers agree:
//! every `download_transformed` answer over the whole key population
//! must be byte-identical to the legacy pipeline's, and every `download`
//! must return the uploaded bytes.

use puppies_core::{protect, OwnerKey, ProtectOptions, PublicParams};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::{CoeffImage, EncodeOptions};
use puppies_psp::{CacheStats, PhotoId, PspServer, ServedPath};
use puppies_transform::{ScaleFilter, Transformation};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};
use std::time::Instant;

/// Everything `bench psp` measured, ready for rendering and JSON.
pub struct PspResults {
    pub config: RunConfig,
    pub current_repeat: ScenarioStats,
    pub current_mixed: ScenarioStats,
    pub legacy_repeat: ScenarioStats,
    pub legacy_mixed: ScenarioStats,
    /// Per-op percentiles from the *current*-server runs, merged across
    /// both scenarios: (op name, p50/p95/p99 in µs).
    pub per_op: Vec<(&'static str, Pcts)>,
    pub cache: CacheStats,
    pub serve: ServeStats,
}

/// Served-path tallies from the serve-path audit: how computed transform
/// responses were produced — straight from quantized coefficients, via
/// the decode-to-pixels fallback, or from the transform-result cache.
#[derive(Clone, Copy, Default)]
pub struct ServeStats {
    pub coeff_domain: u64,
    pub pixel_fallback: u64,
    pub cached: u64,
}

impl ServeStats {
    /// Fraction of *computed* (non-cached) transform responses served
    /// without ever materializing pixels. This is the decode-free floor
    /// `bench psp --check` gates on.
    pub fn coeff_serve_rate(&self) -> f64 {
        let computed = self.coeff_domain + self.pixel_fallback;
        self.coeff_domain as f64 / computed.max(1) as f64
    }
}

#[derive(Clone, Copy)]
pub struct RunConfig {
    pub threads: usize,
    pub repeat_ops: usize,
    pub mixed_ops: usize,
    pub repeat_photos: usize,
    pub mixed_photos: usize,
    pub zipf: f64,
    pub seed: u64,
}

#[derive(Clone, Copy)]
pub struct ScenarioStats {
    pub ops: usize,
    pub wall_s: f64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

#[derive(Clone, Copy, Default)]
pub struct Pcts {
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

impl PspResults {
    pub fn speedup_repeat(&self) -> f64 {
        self.current_repeat.ops_per_s / self.legacy_repeat.ops_per_s
    }
    pub fn speedup_mixed(&self) -> f64 {
        self.current_mixed.ops_per_s / self.legacy_mixed.ops_per_s
    }
}

// ---------------------------------------------------------------------------
// The pre-PR server, replicated.
// ---------------------------------------------------------------------------

struct LegacyEntry {
    op: &'static str,
    id: u64,
    bytes: u64,
    dur_ns: u64,
    ok: bool,
}

const LEGACY_LOG_CAPACITY: usize = 256;

/// The pre-PR store's photo map: owned byte vectors behind one global lock.
type LegacyPhotoMap = HashMap<u64, (Vec<u8>, Vec<u8>)>;

/// Faithful replica of the store before the sharded/cached rewrite: the
/// same lock shapes, the same clones, the same per-request bookkeeping,
/// the same codec work per transformed view.
struct LegacyServer {
    photos: RwLock<LegacyPhotoMap>,
    next_id: AtomicU64,
    requests: RwLock<VecDeque<LegacyEntry>>,
}

impl LegacyServer {
    fn new() -> Self {
        LegacyServer {
            photos: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            requests: RwLock::new(VecDeque::new()),
        }
    }

    fn log(&self, op: &'static str, id: u64, bytes: u64, start: Instant, ok: bool) {
        let entry = LegacyEntry {
            op,
            id,
            bytes,
            dur_ns: start.elapsed().as_nanos() as u64,
            ok,
        };
        black_box((entry.op, entry.id, entry.bytes, entry.dur_ns, entry.ok));
        let mut log = self
            .requests
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if log.len() == LEGACY_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back(entry);
    }

    fn upload(&self, bytes: Vec<u8>, params: Vec<u8>) -> u64 {
        let start = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let size = (bytes.len() + params.len()) as u64;
        self.photos
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, (bytes, params));
        self.log("upload", id, size, start, true);
        id
    }

    fn download(&self, id: u64) -> Vec<u8> {
        let start = Instant::now();
        let out = self
            .photos
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .map(|p| p.0.clone())
            .unwrap();
        self.log("download", id, out.len() as u64, start, true);
        out
    }

    fn download_params(&self, id: u64) -> Vec<u8> {
        let start = Instant::now();
        let out = self
            .photos
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .map(|p| p.1.clone())
            .unwrap();
        self.log("download_params", id, out.len() as u64, start, true);
        out
    }

    /// Serves a transformed view exactly as the pre-PR server computed
    /// one: decode, transform (hardcoded quality-75 re-encode on the
    /// pixel path), re-encode params — from scratch, every request.
    fn download_transformed(&self, id: u64, t: &Transformation) -> (Vec<u8>, Vec<u8>) {
        let start = Instant::now();
        let (bytes, params_bytes) = self
            .photos
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
            .unwrap();
        let coeff = CoeffImage::decode(&bytes).expect("legacy decode");
        let new_bytes = if t.is_coeff_domain(coeff.width(), coeff.height()) {
            t.apply_to_coeff(&coeff)
                .expect("legacy coeff transform")
                .encode(&EncodeOptions::default())
                .expect("legacy encode")
        } else {
            let rgb = coeff.to_rgb();
            let transformed = t.apply_to_rgb(&rgb).expect("legacy rgb transform");
            puppies_jpeg::encode_rgb(&transformed, 75).expect("legacy encode")
        };
        let mut params = PublicParams::from_bytes(&params_bytes).expect("legacy params");
        params.transformation = Some(t.clone());
        let new_params = params.to_bytes();
        let total = (new_bytes.len() + new_params.len()) as u64;
        self.log("transform", id, total, start, true);
        (new_bytes, new_params)
    }
}

// ---------------------------------------------------------------------------
// A common face for both servers so one runner times either.
// ---------------------------------------------------------------------------

trait BenchTarget: Sync {
    fn upload(&self, bytes: Vec<u8>, params: Vec<u8>) -> u64;
    fn download(&self, id: u64) -> usize;
    fn download_params(&self, id: u64) -> usize;
    fn download_transformed(&self, id: u64, t: &Transformation) -> usize;
}

impl BenchTarget for LegacyServer {
    fn upload(&self, bytes: Vec<u8>, params: Vec<u8>) -> u64 {
        LegacyServer::upload(self, bytes, params)
    }
    fn download(&self, id: u64) -> usize {
        LegacyServer::download(self, id).len()
    }
    fn download_params(&self, id: u64) -> usize {
        LegacyServer::download_params(self, id).len()
    }
    fn download_transformed(&self, id: u64, t: &Transformation) -> usize {
        let (b, p) = LegacyServer::download_transformed(self, id, t);
        b.len() + p.len()
    }
}

impl BenchTarget for PspServer {
    fn upload(&self, bytes: Vec<u8>, params: Vec<u8>) -> u64 {
        PspServer::upload(self, bytes, params).expect("upload").0
    }
    fn download(&self, id: u64) -> usize {
        PspServer::download(self, PhotoId(id))
            .expect("download")
            .len()
    }
    fn download_params(&self, id: u64) -> usize {
        PspServer::download_params(self, PhotoId(id))
            .expect("download_params")
            .len()
    }
    fn download_transformed(&self, id: u64, t: &Transformation) -> usize {
        let (b, p) = PspServer::download_transformed(self, PhotoId(id), t).expect("transformed");
        b.len() + p.len()
    }
}

// ---------------------------------------------------------------------------
// Workload machinery: seeded rng, zipf sampling, fixtures.
// ---------------------------------------------------------------------------

/// xorshift64* — tiny, seedable, good enough to shape a workload.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipf(s) over `n` ranks via a precomputed CDF + binary search. Rank 0
/// is the hottest; callers shuffle the rank→key mapping so "hot" isn't
/// correlated with upload order.
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub(crate) fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub(crate) fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A deterministic textured photo, protected. High-frequency texture
/// keeps the JPEG payload realistically large so download memcpys cost
/// what they cost in production.
fn fixture(w: u32, h: u32, roi: Rect, seed: u32, quality: u8) -> (Vec<u8>, Vec<u8>) {
    let img = RgbImage::from_fn(w, h, |x, y| {
        let v = x
            .wrapping_mul(31)
            .wrapping_add(y.wrapping_mul(17))
            .wrapping_add(seed.wrapping_mul(97));
        Rgb::new(
            (v.wrapping_mul(2_654_435_761) >> 24) as u8,
            (v.wrapping_mul(40_503) >> 8) as u8,
            ((x ^ y).wrapping_add(seed * 11) & 0xFF) as u8,
        )
    });
    let key = OwnerKey::from_seed([seed as u8; 32]);
    let protected = protect(
        &img,
        &[roi],
        &key,
        &ProtectOptions::default().with_quality(quality),
    )
    .expect("bench fixture protects");
    (protected.bytes, protected.params.to_bytes())
}

/// Repeat-scenario photos are small (96×72) at quality 75: the codec
/// work per miss stays in the hundreds of microseconds, so cache hits —
/// not decode amortization — carry the scenario.
pub(crate) fn repeat_fixtures(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|i| fixture(96, 72, Rect::new(24, 16, 32, 32), i as u32 + 1, 75))
        .collect()
}

/// Mixed-scenario photos are larger (~100 KB): the legacy server's
/// per-download `Vec` clone moves the whole payload, which is exactly
/// the cost the `Arc<[u8]>` path deletes. Payloads deliberately stay
/// below the allocator's 128 KB mmap threshold — past it, every clone
/// degenerates into mmap/munmap churn and the bench measures the
/// kernel's page-fault path instead of the store.
fn mixed_fixtures(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|i| fixture(320, 240, Rect::new(80, 60, 120, 80), i as u32 + 101, 85))
        .collect()
}

/// The four derived views every repeat-scenario photo is requested under:
/// two lossless coefficient-domain ops, a requantization, and a pixel-path
/// scale (which also exercises the decode memo and quality derivation).
pub(crate) fn repeat_transforms() -> Vec<Transformation> {
    vec![
        Transformation::Rotate90,
        Transformation::Rotate180,
        Transformation::Recompress { quality: 40 },
        Transformation::Scale {
            width: 48,
            height: 36,
            filter: ScaleFilter::Bilinear,
        },
    ]
}

// ---------------------------------------------------------------------------
// Closed-loop runners.
// ---------------------------------------------------------------------------

const OP_UPLOAD: usize = 0;
const OP_DOWNLOAD: usize = 1;
const OP_PARAMS: usize = 2;
const OP_TRANSFORMED: usize = 3;
pub const OP_NAMES: [&str; 4] = [
    "upload",
    "download",
    "download_params",
    "download_transformed",
];

type LatBuckets = [Vec<u32>; 4];

fn spawn_clients<F>(threads: usize, ops: usize, body: F) -> (f64, LatBuckets)
where
    F: Fn(usize, usize, &mut LatBuckets) + Sync,
{
    let per_thread = (ops / threads).max(1);
    // All clients wait on a barrier so thread-spawn cost stays outside
    // the timed window; the clock starts when the last client is ready.
    let barrier = std::sync::Barrier::new(threads + 1);
    let mut merged: LatBuckets = Default::default();
    let mut wall_s = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let body = &body;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut lats: LatBuckets = Default::default();
                    barrier.wait();
                    body(tid, per_thread, &mut lats);
                    lats
                })
            })
            .collect();
        // The clock starts *before* main enters the barrier: workers can
        // only proceed once main arrives, so this timestamp bounds the
        // first op from above. (Starting it after the barrier releases
        // would race — on one core the workers often run before main is
        // rescheduled, undercounting the wall.)
        let started = Instant::now();
        barrier.wait();
        for h in handles {
            let lats = h.join().expect("client thread");
            for (dst, src) in merged.iter_mut().zip(lats) {
                dst.extend(src);
            }
        }
        wall_s = started.elapsed().as_secs_f64();
    });
    for bucket in &mut merged {
        bucket.sort_unstable();
    }
    (wall_s, merged)
}

/// Folds one chunk's wall time and latencies into a running total.
fn accumulate(acc: &mut (f64, LatBuckets), chunk: (f64, LatBuckets)) {
    acc.0 += chunk.0;
    for (dst, src) in acc.1.iter_mut().zip(chunk.1) {
        dst.extend(src);
    }
}

fn timed(kind: usize, lats: &mut LatBuckets, f: impl FnOnce() -> usize) {
    let start = Instant::now();
    black_box(f());
    let ns = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
    lats[kind].push(ns);
}

/// Pure `download_transformed` traffic over zipf-sampled (photo, view)
/// keys. `keys` pairs server-local photo ids with transformations; the
/// rank→key permutation is seeded so both servers see the same stream.
fn run_repeat<T: BenchTarget>(
    target: &T,
    keys: &[(u64, Transformation)],
    zipf_s: f64,
    ops: usize,
    threads: usize,
    seed: u64,
) -> (f64, LatBuckets) {
    let zipf = Zipf::new(keys.len(), zipf_s);
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    let mut rng = Rng::new(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    for i in (1..perm.len()).rev() {
        perm.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    spawn_clients(threads, ops, |tid, per_thread, lats| {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (tid as u64 + 1));
        for bucket in lats.iter_mut() {
            bucket.reserve(per_thread);
        }
        for _ in 0..per_thread {
            let rank = zipf.sample(rng.unit());
            let (id, t) = &keys[perm[rank]];
            timed(OP_TRANSFORMED, lats, || target.download_transformed(*id, t));
        }
    })
}

/// Download-heavy mixed traffic — the read-mostly shape of a real photo
/// service (reads outnumber writes by orders of magnitude): 78% image
/// downloads, 20% params fetches, 2% uploads. None of it touches the
/// transform cache. Note the upload cost is asymmetric by design: the
/// legacy `Vec`-based API takes ownership of the client buffer for free,
/// while the `Arc<[u8]>` store pays one ingest copy — the timed ops
/// charge the current server for that copy honestly, and the scenario
/// shows it back out of the read path many times over.
fn run_mixed<T: BenchTarget>(
    target: &T,
    ids: &[u64],
    fixtures: &[(Vec<u8>, Vec<u8>)],
    ops: usize,
    threads: usize,
    seed: u64,
) -> (f64, LatBuckets) {
    spawn_clients(threads, ops, |tid, per_thread, lats| {
        let mut rng = Rng::new(seed.wrapping_mul(0xD134_2543_DE82_EF95) ^ (tid as u64 + 1));
        for bucket in lats.iter_mut() {
            bucket.reserve(per_thread);
        }
        for _ in 0..per_thread {
            let roll = rng.next() % 100;
            if roll < 78 {
                let id = ids[(rng.next() % ids.len() as u64) as usize];
                timed(OP_DOWNLOAD, lats, || target.download(id));
            } else if roll < 98 {
                let id = ids[(rng.next() % ids.len() as u64) as usize];
                timed(OP_PARAMS, lats, || target.download_params(id));
            } else {
                let (b, p) = &fixtures[(rng.next() % fixtures.len() as u64) as usize];
                // A real client owns its request body before the server
                // ever sees it — build the owned buffers outside the
                // timed region so the op measures the server, not the
                // client's copy.
                let (body, blob) = (b.clone(), p.clone());
                timed(OP_UPLOAD, lats, || target.upload(body, blob) as usize);
            }
        }
    })
}

pub(crate) fn pct(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64 / 1000.0
}

fn scenario_stats(wall_s: f64, lats: &LatBuckets) -> ScenarioStats {
    let mut all: Vec<u32> = Vec::new();
    for bucket in lats {
        all.extend(bucket);
    }
    all.sort_unstable();
    let ops = all.len();
    ScenarioStats {
        ops,
        wall_s,
        ops_per_s: ops as f64 / wall_s.max(1e-9),
        p50_us: pct(&all, 0.50),
        p95_us: pct(&all, 0.95),
        p99_us: pct(&all, 0.99),
    }
}

/// Touch a chunk of heap up front so first-run page faults and allocator
/// growth land outside the timed region (same trick as the codec bench).
pub(crate) fn warm_allocator() {
    let mut sink = 0u8;
    for _ in 0..4 {
        let block = vec![0xA5u8; 4 << 20];
        sink = sink.wrapping_add(block[block.len() / 2]);
    }
    black_box(sink);
}

// ---------------------------------------------------------------------------
// The bench driver.
// ---------------------------------------------------------------------------

/// Runs both scenarios against both servers and returns the comparison.
///
/// # Errors
/// Fails if the byte-identity verification between the current server
/// and the legacy pipeline finds any divergence.
pub fn run(config: RunConfig) -> Result<PspResults, String> {
    warm_allocator();

    eprintln!(
        "bench psp: {} client threads, repeat {} ops over {} photos x {} views (zipf {:.2}), mixed {} ops over {} photos",
        config.threads,
        config.repeat_ops,
        config.repeat_photos,
        repeat_transforms().len(),
        config.zipf,
        config.mixed_ops,
        config.mixed_photos,
    );
    let repeat_photos = repeat_fixtures(config.repeat_photos);
    let mixed_photos = mixed_fixtures(config.mixed_photos);
    let avg = |set: &[(Vec<u8>, Vec<u8>)]| {
        set.iter().map(|(b, p)| b.len() + p.len()).sum::<usize>() / set.len().max(1)
    };
    eprintln!(
        "payloads: repeat avg {} KB, mixed avg {} KB",
        avg(&repeat_photos) / 1024,
        avg(&mixed_photos) / 1024
    );
    let transforms = repeat_transforms();

    // --- Byte-identity verification.
    verify_parity(&repeat_photos, &mixed_photos, &transforms)?;

    // --- Serve-path audit (counter-verified, before anything is timed).
    let serve = audit_serve_paths(&repeat_photos, &transforms)?;

    // Each scenario alternates legacy/current across short chunks
    // rather than one long run per server: on hosts with burstable CPU
    // (frequency scaling, hypervisor quota), throughput can sag over a
    // multi-second bench, and whichever server happened to run last
    // would eat the sag. Interleaving makes both servers sample the same
    // host state, so the *ratio* — what the CI gate checks — stays
    // honest even when absolute numbers wobble.
    const CHUNKS: usize = 4;
    let chunk_seed = |c: usize| {
        config
            .seed
            .wrapping_add((c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    };

    // --- mixed-uncached scenario.
    let legacy = LegacyServer::new();
    let legacy_ids: Vec<u64> = mixed_photos
        .iter()
        .map(|(b, p)| legacy.upload(b.clone(), p.clone()))
        .collect();
    let current = PspServer::new();
    let current_ids: Vec<u64> = mixed_photos
        .iter()
        .map(|(b, p)| current.upload(b.clone(), p.clone()).expect("upload").0)
        .collect();
    let mut legacy_acc: (f64, LatBuckets) = (0.0, Default::default());
    let mut current_acc: (f64, LatBuckets) = (0.0, Default::default());
    for c in 0..CHUNKS {
        let ops = config.mixed_ops / CHUNKS;
        accumulate(
            &mut legacy_acc,
            run_mixed(
                &legacy,
                &legacy_ids,
                &mixed_photos,
                ops,
                config.threads,
                chunk_seed(c),
            ),
        );
        accumulate(
            &mut current_acc,
            run_mixed(
                &current,
                &current_ids,
                &mixed_photos,
                ops,
                config.threads,
                chunk_seed(c),
            ),
        );
    }
    let legacy_mixed = scenario_stats(legacy_acc.0, &legacy_acc.1);
    let current_mixed = scenario_stats(current_acc.0, &current_acc.1);
    let current_mixed_lats = current_acc.1;

    // --- repeat-transform scenario.
    let legacy = LegacyServer::new();
    let legacy_keys = upload_keys(&legacy, &repeat_photos, &transforms, LegacyServer::upload);
    let current = PspServer::new();
    let current_keys = upload_keys(&current, &repeat_photos, &transforms, |s, b, p| {
        s.upload(b, p).expect("upload").0
    });
    let mut legacy_acc: (f64, LatBuckets) = (0.0, Default::default());
    let mut current_acc: (f64, LatBuckets) = (0.0, Default::default());
    for c in 0..CHUNKS {
        let ops = config.repeat_ops / CHUNKS;
        accumulate(
            &mut legacy_acc,
            run_repeat(
                &legacy,
                &legacy_keys,
                config.zipf,
                ops,
                config.threads,
                chunk_seed(c),
            ),
        );
        accumulate(
            &mut current_acc,
            run_repeat(
                &current,
                &current_keys,
                config.zipf,
                ops,
                config.threads,
                chunk_seed(c),
            ),
        );
    }
    let legacy_repeat = scenario_stats(legacy_acc.0, &legacy_acc.1);
    let current_repeat = scenario_stats(current_acc.0, &current_acc.1);
    let current_repeat_lats = current_acc.1;
    let cache = current.cache_stats();

    let mut per_op = Vec::new();
    for (kind, name) in OP_NAMES.iter().enumerate() {
        let mut merged: Vec<u32> = Vec::new();
        merged.extend(&current_repeat_lats[kind]);
        merged.extend(&current_mixed_lats[kind]);
        merged.sort_unstable();
        per_op.push((
            *name,
            Pcts {
                p50_us: pct(&merged, 0.50),
                p95_us: pct(&merged, 0.95),
                p99_us: pct(&merged, 0.99),
            },
        ));
    }

    Ok(PspResults {
        config,
        current_repeat,
        current_mixed,
        legacy_repeat,
        legacy_mixed,
        per_op,
        cache,
        serve,
    })
}

/// Replays every (photo, view) pair twice against a fresh server with an
/// obs subscriber installed, and proves the decode-free serving claim
/// three ways before anything is timed:
///
/// 1. every coefficient-eligible transform is served `coeff-domain` —
///    zero decode-to-pixels fallbacks among eligible views;
/// 2. the second pass comes entirely from the transform cache;
/// 3. the `psp.serve.coeff_domain` / `psp.serve.pixel_fallback` obs
///    counters agree exactly with the per-request served-path reports.
fn audit_serve_paths(
    photos: &[(Vec<u8>, Vec<u8>)],
    transforms: &[Transformation],
) -> Result<ServeStats, String> {
    let session = puppies_obs::Obs::install();
    let server = PspServer::new();
    let mut stats = ServeStats::default();
    for (b, p) in photos {
        let id = server
            .upload(b.clone(), p.clone())
            .map_err(|e| format!("serve audit upload: {e}"))?;
        let coeff =
            CoeffImage::decode(b).map_err(|e| format!("serve audit: undecodable fixture: {e}"))?;
        let (w, h) = (coeff.width(), coeff.height());
        for pass in 0..2 {
            for t in transforms {
                let (_, served) = server
                    .download_transformed_traced(id, t)
                    .map_err(|e| format!("serve audit transform: {e}"))?;
                match served {
                    ServedPath::CoeffDomain => stats.coeff_domain += 1,
                    ServedPath::PixelFallback => stats.pixel_fallback += 1,
                    ServedPath::Cached | ServedPath::SigCached => stats.cached += 1,
                }
                if t.is_coeff_domain(w, h) && served == ServedPath::PixelFallback {
                    return Err(format!(
                        "serve-path violation: coeff-eligible {t:?} on a {w}x{h} photo \
                         decoded to pixels"
                    ));
                }
                if pass == 1 && !served.cache_hit() {
                    return Err(format!(
                        "serve audit: repeated {t:?} missed the transform cache ({})",
                        served.as_str()
                    ));
                }
            }
        }
    }
    let obs = session
        .finish()
        .ok_or_else(|| "serve audit: obs session lost".to_string())?;
    let counter = |name: &str| obs.metrics().counter(name).map_or(0, |c| c.get());
    let (coeff_ctr, pixel_ctr) = (
        counter("psp.serve.coeff_domain"),
        counter("psp.serve.pixel_fallback"),
    );
    if coeff_ctr != stats.coeff_domain || pixel_ctr != stats.pixel_fallback {
        return Err(format!(
            "serve audit: obs counters disagree with per-request reports \
             (coeff {coeff_ctr} vs {}, pixel {pixel_ctr} vs {})",
            stats.coeff_domain, stats.pixel_fallback
        ));
    }
    eprintln!(
        "serve audit: {} coeff-domain, {} pixel-fallback, {} cached — coeff rate {:.0}%, \
         zero eligible fallbacks, counters agree",
        stats.coeff_domain,
        stats.pixel_fallback,
        stats.cached,
        stats.coeff_serve_rate() * 100.0
    );
    Ok(stats)
}

fn upload_keys<S>(
    server: &S,
    photos: &[(Vec<u8>, Vec<u8>)],
    transforms: &[Transformation],
    upload: impl Fn(&S, Vec<u8>, Vec<u8>) -> u64,
) -> Vec<(u64, Transformation)> {
    let mut keys = Vec::with_capacity(photos.len() * transforms.len());
    for (b, p) in photos {
        let id = upload(server, b.clone(), p.clone());
        for t in transforms {
            keys.push((id, t.clone()));
        }
    }
    keys
}

/// Every (photo, view) answer from the current server's
/// `download_transformed` must be byte-identical to the legacy
/// pipeline's, and `download` must return the uploaded bytes unchanged. A bench that compares servers doing *different* work would
/// be meaningless, so parity failures are fatal.
fn verify_parity(
    repeat_photos: &[(Vec<u8>, Vec<u8>)],
    mixed_photos: &[(Vec<u8>, Vec<u8>)],
    transforms: &[Transformation],
) -> Result<(), String> {
    let legacy = LegacyServer::new();
    let legacy_keys = upload_keys(&legacy, repeat_photos, transforms, LegacyServer::upload);
    let current = PspServer::new();
    let current_keys = upload_keys(&current, repeat_photos, transforms, |s, b, p| {
        s.upload(b, p).expect("upload").0
    });
    for (i, (id, t)) in current_keys.iter().enumerate() {
        let (bytes, params) = current
            .download_transformed(PhotoId(*id), t)
            .map_err(|e| format!("download_transformed[{i}]: {e}"))?;
        let (id, ref t) = legacy_keys[i];
        let (lb, lp) = legacy.download_transformed(id, t);
        if bytes.as_ref() != lb.as_slice() || params.as_ref() != lp.as_slice() {
            return Err(format!(
                "parity violation: download_transformed[{i}] diverged from the legacy pipeline"
            ));
        }
    }
    let ids: Vec<PhotoId> = mixed_photos
        .iter()
        .map(|(b, p)| current.upload(b.clone(), p.clone()).expect("upload"))
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let bytes = current
            .download(id)
            .map_err(|e| format!("download[{i}]: {e}"))?;
        if bytes.as_ref() != mixed_photos[i].0.as_slice() {
            return Err(format!(
                "parity violation: download[{i}] did not return the uploaded bytes"
            ));
        }
    }
    eprintln!(
        "parity: {} transformed views + {} downloads byte-identical to the legacy pipeline",
        legacy_keys.len(),
        ids.len()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Rendering, JSON, and the CI gate.
// ---------------------------------------------------------------------------

pub fn render(res: &PspResults) -> Vec<String> {
    let mut out = Vec::new();
    for (name, cur, old) in [
        ("repeat-transform", &res.current_repeat, &res.legacy_repeat),
        ("mixed-uncached", &res.current_mixed, &res.legacy_mixed),
    ] {
        out.push(format!(
            "{name:>16}: legacy {:>9.0} ops/s | current {:>9.0} ops/s | speedup {:5.2}x",
            old.ops_per_s,
            cur.ops_per_s,
            cur.ops_per_s / old.ops_per_s,
        ));
    }
    out.push(format!(
        "{:>16}: {} hits / {} misses / {} evictions (hit rate {:.1}%)",
        "transform cache",
        res.cache.hits,
        res.cache.misses,
        res.cache.evictions,
        res.cache.hit_rate() * 100.0,
    ));
    out.push(format!(
        "{:>16}: {} coeff-domain / {} pixel-fallback / {} cached (coeff rate {:.1}%)",
        "serve paths",
        res.serve.coeff_domain,
        res.serve.pixel_fallback,
        res.serve.cached,
        res.serve.coeff_serve_rate() * 100.0,
    ));
    for (name, p) in &res.per_op {
        if p.p50_us > 0.0 || p.p99_us > 0.0 {
            out.push(format!(
                "{name:>16}: p50 {:8.1} us  p95 {:8.1} us  p99 {:8.1} us",
                p.p50_us, p.p95_us, p.p99_us
            ));
        }
    }
    out
}

fn scenario_json(s: &ScenarioStats, hit_rate: Option<f64>) -> String {
    let hit = match hit_rate {
        Some(h) => format!(", \"hit_rate\": {h:.4}"),
        None => String::new(),
    };
    format!(
        "{{\"ops\": {}, \"wall_s\": {:.3}, \"ops_per_s\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}{hit}}}",
        s.ops, s.wall_s, s.ops_per_s, s.p50_us, s.p95_us, s.p99_us
    )
}

/// Serializes results in the same hand-rolled, fixed-schema style as the
/// codec bench: two scenario sections for the current and pre-PR servers,
/// the machine-independent speedup ratios, cache counters, and per-op
/// percentiles from the current runs.
pub fn to_json(res: &PspResults) -> String {
    let c = &res.config;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n");
    out.push_str(&format!(
        "  \"config\": {{\"threads\": {}, \"repeat_ops\": {}, \"mixed_ops\": {}, \"repeat_photos\": {}, \"mixed_photos\": {}, \"zipf\": {:.2}, \"seed\": {}, \"simd_backend\": \"{}\", \"f32_lanes\": {}}},\n",
        c.threads, c.repeat_ops, c.mixed_ops, c.repeat_photos, c.mixed_photos, c.zipf, c.seed,
        puppies_image::simd::backend().name(),
        puppies_image::simd::backend().f32_lanes()
    ));
    out.push_str("  \"current\": {\n");
    out.push_str(&format!(
        "    \"repeat_transform\": {},\n",
        scenario_json(&res.current_repeat, Some(res.cache.hit_rate()))
    ));
    out.push_str(&format!(
        "    \"mixed_uncached\": {}\n  }},\n",
        scenario_json(&res.current_mixed, None)
    ));
    out.push_str("  \"baseline_pre_pr\": {\n");
    out.push_str(&format!(
        "    \"repeat_transform\": {},\n",
        scenario_json(&res.legacy_repeat, None)
    ));
    out.push_str(&format!(
        "    \"mixed_uncached\": {}\n  }},\n",
        scenario_json(&res.legacy_mixed, None)
    ));
    out.push_str(&format!(
        "  \"speedup_vs_pre_pr\": {{\"repeat_transform\": {:.2}, \"mixed_uncached\": {:.2}}},\n",
        res.speedup_repeat(),
        res.speedup_mixed()
    ));
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.4}}},\n",
        res.cache.hits,
        res.cache.misses,
        res.cache.evictions,
        res.cache.hit_rate()
    ));
    out.push_str(&format!(
        "  \"serve\": {{\"coeff_domain\": {}, \"pixel_fallback\": {}, \"cached\": {}, \"coeff_serve_rate\": {:.4}}},\n",
        res.serve.coeff_domain,
        res.serve.pixel_fallback,
        res.serve.cached,
        res.serve.coeff_serve_rate()
    ));
    out.push_str("  \"per_op_us\": {\n");
    for (i, (name, p)) in res.per_op.iter().enumerate() {
        let sep = if i + 1 == res.per_op.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{name}\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}}{sep}\n",
            p.p50_us, p.p95_us, p.p99_us
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Extracts `"ops_per_s"` for one scenario of one section from a
/// committed results file. Fixed-schema scanning, like the codec bench's
/// parser — the files are produced by [`to_json`] only.
pub fn parse_ops_per_s(json: &str, section: &str, scenario: &str) -> Result<f64, String> {
    let sec_at = json
        .find(&format!("\"{section}\""))
        .ok_or_else(|| format!("section {section:?} not found"))?;
    let rest = &json[sec_at..];
    let scen_at = rest
        .find(&format!("\"{scenario}\""))
        .ok_or_else(|| format!("scenario {scenario:?} not found in {section:?}"))?;
    let rest = &rest[scen_at..];
    let key = "\"ops_per_s\": ";
    let val_at = rest
        .find(key)
        .ok_or_else(|| format!("ops_per_s not found for {section}/{scenario}"))?;
    let tail = &rest[val_at + key.len()..];
    let end = tail
        .find([',', '}'])
        .ok_or_else(|| "unterminated ops_per_s value".to_string())?;
    tail[..end]
        .trim()
        .parse()
        .map_err(|e| format!("bad ops_per_s for {section}/{scenario}: {e}"))
}

pub struct CheckLimits {
    /// Allowed fractional drop below the committed current throughput
    /// (0.85 ⇒ fresh must reach 15% of committed — a cross-machine band,
    /// not a regression tripwire; the speedup floors below are the
    /// machine-independent gate).
    pub threshold: f64,
    pub min_speedup_repeat: f64,
    pub min_speedup_mixed: f64,
    pub min_hit_rate: f64,
    /// Floor on the fraction of computed transforms served straight from
    /// quantized coefficients. The audited workload's four views are
    /// three coeff-eligible + one pixel scale, so a healthy run sits at
    /// 0.75; 0.5 catches the hot path silently falling back wholesale.
    pub min_coeff_serve_rate: f64,
}

impl Default for CheckLimits {
    fn default() -> Self {
        CheckLimits {
            threshold: 0.85,
            min_speedup_repeat: 5.0,
            min_speedup_mixed: 2.0,
            min_hit_rate: 0.5,
            min_coeff_serve_rate: 0.5,
        }
    }
}

/// The CI gate: fresh throughput within the band of the committed file,
/// plus the machine-independent floors — repeat-transform speedup,
/// mixed-ops speedup, and cache hit rate, all measured this run.
pub fn check(res: &PspResults, committed: &str, limits: &CheckLimits) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    for (scenario, fresh) in [
        ("repeat_transform", res.current_repeat.ops_per_s),
        ("mixed_uncached", res.current_mixed.ops_per_s),
    ] {
        match parse_ops_per_s(committed, "current", scenario) {
            Ok(base) => {
                let ratio = fresh / base;
                let pass = ratio >= 1.0 - limits.threshold;
                ok &= pass;
                lines.push(format!(
                    "{scenario:>18}: {fresh:>9.0} ops/s vs committed {base:>9.0} (x{ratio:.2}, floor x{:.2}) {}",
                    1.0 - limits.threshold,
                    if pass { "ok" } else { "REGRESSED" }
                ));
            }
            Err(e) => {
                ok = false;
                lines.push(format!("{scenario:>18}: {e}"));
            }
        }
    }
    for (name, got, floor) in [
        (
            "speedup repeat",
            res.speedup_repeat(),
            limits.min_speedup_repeat,
        ),
        (
            "speedup mixed",
            res.speedup_mixed(),
            limits.min_speedup_mixed,
        ),
        ("cache hit rate", res.cache.hit_rate(), limits.min_hit_rate),
        (
            "coeff serve rate",
            res.serve.coeff_serve_rate(),
            limits.min_coeff_serve_rate,
        ),
    ] {
        let pass = got >= floor;
        ok &= pass;
        lines.push(format!(
            "{name:>18}: {got:.2} (floor {floor:.2}) {}",
            if pass { "ok" } else { "BELOW FLOOR" }
        ));
    }
    (lines, ok)
}

// ---------------------------------------------------------------------------
// CLI entry point.
// ---------------------------------------------------------------------------

/// `puppies bench psp [--threads N] [--repeat-ops N] [--mixed-ops N]
/// [--repeat-photos N] [--mixed-photos N] [--zipf S] [--seed N]
/// [--out file] [--check file [--threshold F] [--min-speedup-repeat F]
/// [--min-speedup-mixed F] [--min-hit-rate F] [--min-coeff-serve-rate F]]
/// [--trace file] [--stats file]`
pub fn cmd(args: &[String]) -> Result<(), String> {
    let parse_num = |name: &str, default: f64| -> Result<f64, String> {
        match crate::flag_value(args, name) {
            Some(v) => v.parse().map_err(|e| format!("bad {name} {v:?}: {e}")),
            None => Ok(default),
        }
    };
    let config = RunConfig {
        threads: (parse_num("--threads", 8.0)? as usize).max(1),
        repeat_ops: (parse_num("--repeat-ops", 1600.0)? as usize).max(8),
        mixed_ops: (parse_num("--mixed-ops", 6000.0)? as usize).max(8),
        repeat_photos: (parse_num("--repeat-photos", 32.0)? as usize).max(1),
        mixed_photos: (parse_num("--mixed-photos", 32.0)? as usize).max(1),
        zipf: parse_num("--zipf", 1.1)?,
        seed: parse_num("--seed", 0x5EED_CAFE as f64)? as u64,
    };
    let limits = CheckLimits {
        threshold: parse_num("--threshold", CheckLimits::default().threshold)?,
        min_speedup_repeat: parse_num(
            "--min-speedup-repeat",
            CheckLimits::default().min_speedup_repeat,
        )?,
        min_speedup_mixed: parse_num(
            "--min-speedup-mixed",
            CheckLimits::default().min_speedup_mixed,
        )?,
        min_hit_rate: parse_num("--min-hit-rate", CheckLimits::default().min_hit_rate)?,
        min_coeff_serve_rate: parse_num(
            "--min-coeff-serve-rate",
            CheckLimits::default().min_coeff_serve_rate,
        )?,
    };

    let res = run(config)?;
    for line in render(&res) {
        println!("{line}");
    }

    // Instrumented slice *after* the timed runs (installing the subscriber
    // first would tax the comparison): a short single-threaded replay on a
    // fresh server, purely to produce the trace/stats artifacts.
    if let Some(obs) = crate::obs_from_args(args) {
        let server = PspServer::new();
        let photos = repeat_fixtures(8);
        let transforms = repeat_transforms();
        let keys = upload_keys(&server, &photos, &transforms, |s, b, p| {
            s.upload(b, p).expect("upload").0
        });
        let _ = run_repeat(&server, &keys, config.zipf, 200, 1, config.seed);
        obs.finish()?;
    }

    let json = to_json(&res);
    if let Some(out) = crate::flag_value(args, "--out") {
        if let Some(dir) = std::path::Path::new(out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("results written to {out}");
    }
    if let Some(path) = crate::flag_value(args, "--check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let (lines, ok) = check(&res, &text, &limits);
        for l in &lines {
            println!("{l}");
        }
        if !ok {
            return Err(format!("psp serving bench failed the gate against {path}"));
        }
        println!("psp serving gate passed against {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_samples_in_range() {
        let z = Zipf::new(100, 1.1);
        assert!(z.cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(7);
        let mut hottest = 0usize;
        for _ in 0..10_000 {
            let r = z.sample(rng.unit());
            assert!(r < 100);
            if r == 0 {
                hottest += 1;
            }
        }
        // Rank 0 carries 1/H_{100,1.1} ≈ 20% of the mass.
        assert!(hottest > 1000, "rank 0 sampled only {hottest}/10000 times");
    }

    fn fake_results() -> PspResults {
        let s = |ops_per_s: f64| ScenarioStats {
            ops: 1000,
            wall_s: 1.0,
            ops_per_s,
            p50_us: 1.0,
            p95_us: 2.0,
            p99_us: 3.0,
        };
        PspResults {
            config: RunConfig {
                threads: 8,
                repeat_ops: 1000,
                mixed_ops: 1000,
                repeat_photos: 4,
                mixed_photos: 4,
                zipf: 1.1,
                seed: 1,
            },
            current_repeat: s(60_000.0),
            current_mixed: s(900_000.0),
            legacy_repeat: s(6_000.0),
            legacy_mixed: s(300_000.0),
            per_op: vec![("download", Pcts::default())],
            cache: CacheStats {
                hits: 900,
                misses: 100,
                evictions: 0,
                entries: 100,
                bytes: 1000,
                capacity_bytes: 1 << 20,
            },
            serve: ServeStats {
                coeff_domain: 96,
                pixel_fallback: 32,
                cached: 128,
            },
        }
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let res = fake_results();
        let json = to_json(&res);
        assert_eq!(
            parse_ops_per_s(&json, "current", "repeat_transform").unwrap(),
            60_000.0
        );
        assert_eq!(
            parse_ops_per_s(&json, "baseline_pre_pr", "mixed_uncached").unwrap(),
            300_000.0
        );
    }

    #[test]
    fn check_gates_on_speedup_floors_and_hit_rate() {
        let res = fake_results();
        let committed = to_json(&res);
        let (_, ok) = check(&res, &committed, &CheckLimits::default());
        assert!(ok, "healthy results must pass their own file");
        // Collapse the repeat speedup below the floor: gate must trip.
        let mut slow = fake_results();
        slow.current_repeat.ops_per_s = 20_000.0;
        let (lines, ok) = check(&slow, &committed, &CheckLimits::default());
        assert!(!ok, "speedup 3.3x must fail the 5x floor: {lines:?}");
        // A hit-rate collapse trips it too.
        let mut cold = fake_results();
        cold.cache.hits = 10;
        cold.cache.misses = 990;
        let (lines, ok) = check(&cold, &committed, &CheckLimits::default());
        assert!(!ok, "1% hit rate must fail the 50% floor: {lines:?}");
        // A wholesale fall-back to the pixel pipeline trips it too.
        let mut pixels = fake_results();
        pixels.serve.coeff_domain = 16;
        pixels.serve.pixel_fallback = 112;
        let (lines, ok) = check(&pixels, &committed, &CheckLimits::default());
        assert!(
            !ok,
            "12% coeff serve rate must fail the 50% floor: {lines:?}"
        );
    }

    #[test]
    fn coeff_serve_rate_counts_only_computed_responses() {
        let s = ServeStats {
            coeff_domain: 3,
            pixel_fallback: 1,
            cached: 1000,
        };
        assert!((s.coeff_serve_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ServeStats::default().coeff_serve_rate(), 0.0);
    }
}

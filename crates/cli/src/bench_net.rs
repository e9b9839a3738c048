//! `puppies bench psp --net` — closed-loop load generator for the
//! networked PSP (`puppies serve` stack, exercised in-process over real
//! loopback TCP).
//!
//! The harness boots a [`puppies_psp::net::Server`] on an ephemeral port
//! with a throwaway store, uploads a photo population, then drives it
//! with N blocking client connections, each in a closed loop:
//!
//! * **net-cached-transform** — `POST /photos/<id>/transformed` over
//!   zipf-sampled (photo, view) keys, the shape where the transform
//!   cache absorbs almost every request; the client-side `x-cache`
//!   header gives the end-to-end hit rate.
//! * **net-mixed** — 78% downloads / 20% params / 2% uploads, the
//!   read-mostly door mix, all over the wire.
//!
//! For a machine-independent gate, the same key population is then
//! served *in process* on [`PspConfig::uncached`] — the full
//! decode→transform→re-encode pipeline with no cache and no network.
//! The ratio `net cached / in-process uncached` is the committed floor:
//! if a networked cache hit cannot beat half the speed of a local
//! uncached transform, the serving stack (framing, HTTP parse, thread
//! handoff) is eating more than the codec it was built to avoid.
//!
//! Latencies are recorded through `puppies-obs` histograms — the same
//! process hosts the server, so its `psp.net.*` request metrics land in
//! the same snapshot and both sides of the wire appear in `--stats` /
//! `--trace` artifacts.

use crate::bench_psp::{
    pct, repeat_fixtures, repeat_transforms, warm_allocator, Rng, ServeStats, Zipf,
};
use puppies_psp::net::client::{WireCache, WireServed};
use puppies_psp::net::{Client, ServeConfig, Server};
use puppies_psp::{PhotoId, PspConfig, PspServer};
use puppies_transform::Transformation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One timed scenario: op count, wall, throughput, percentiles (µs).
pub struct NetScenario {
    pub ops: usize,
    pub wall_s: f64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

pub struct NetResults {
    pub config: NetConfig,
    pub net_cached: NetScenario,
    pub net_mixed: NetScenario,
    pub inprocess_uncached: NetScenario,
    /// End-to-end cache hit rate observed from `x-cache` headers.
    pub hit_rate: f64,
    /// Served-path tallies observed from `x-served-path` headers on the
    /// cached-transform loop: the wire-visible decode-free claim.
    pub serve: ServeStats,
}

#[derive(Clone, Copy)]
pub struct NetConfig {
    pub connections: usize,
    pub transform_ops: usize,
    pub mixed_ops: usize,
    pub photos: usize,
    pub zipf: f64,
    pub seed: u64,
}

impl NetResults {
    /// The machine-independent ratio the CI floor checks.
    pub fn net_vs_inprocess(&self) -> f64 {
        self.net_cached.ops_per_s / self.inprocess_uncached.ops_per_s
    }
}

fn stats(wall_s: f64, mut lats_ns: Vec<u32>) -> NetScenario {
    lats_ns.sort_unstable();
    NetScenario {
        ops: lats_ns.len(),
        wall_s,
        ops_per_s: lats_ns.len() as f64 / wall_s.max(1e-9),
        p50_us: pct(&lats_ns, 0.50),
        p95_us: pct(&lats_ns, 0.95),
        p99_us: pct(&lats_ns, 0.99),
    }
}

/// Runs `per_conn` closed-loop iterations on `connections` threads, each
/// with its own `Client`, timing every op and mirroring it into the named
/// obs histogram. Returns `(wall_s, latencies_ns)`.
fn drive_clients(
    addr: &str,
    connections: usize,
    per_conn: usize,
    hist: &'static str,
    body: impl Fn(&mut Client, usize, &mut Rng) -> Result<(), String> + Sync,
) -> Result<(f64, Vec<u32>), String> {
    let barrier = std::sync::Barrier::new(connections + 1);
    let mut merged: Vec<u32> = Vec::with_capacity(connections * per_conn);
    let mut wall_s = 0.0;
    let err: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|tid| {
                let barrier = &barrier;
                let body = &body;
                let err = &err;
                scope.spawn(move || -> Vec<u32> {
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            *err.lock().unwrap_or_else(PoisonError::into_inner) =
                                Some(format!("connect: {e}"));
                            barrier.wait();
                            return Vec::new();
                        }
                    };
                    let mut rng = Rng::new(0x5EED_0000 ^ (tid as u64 + 1));
                    let mut lats = Vec::with_capacity(per_conn);
                    barrier.wait();
                    for i in 0..per_conn {
                        let start = Instant::now();
                        if let Err(e) = body(&mut client, i, &mut rng) {
                            *err.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
                            break;
                        }
                        let ns = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
                        lats.push(ns);
                        puppies_obs::record(hist, u64::from(ns) / 1000);
                    }
                    lats
                })
            })
            .collect();
        let started = Instant::now();
        barrier.wait();
        for h in handles {
            merged.extend(h.join().expect("client thread"));
        }
        wall_s = started.elapsed().as_secs_f64();
    });
    if let Some(e) = err.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(format!("net bench client failed: {e}"));
    }
    Ok((wall_s, merged))
}

/// Boots the server, runs all three scenarios, shuts the server down
/// gracefully, and returns the comparison.
///
/// # Errors
/// Fails on server/client errors or a parity violation between the wire
/// and the in-process serving path.
pub fn run(config: NetConfig) -> Result<NetResults, String> {
    warm_allocator();
    let dir = std::env::temp_dir().join(format!("puppies_bench_net_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    // fsync off: uploads happen during setup and 2% of the mixed loop;
    // this bench measures the serving stack, not the disk.
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        dir: dir.clone(),
        fsync: false,
        psp: PspConfig::default(),
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let server_thread = std::thread::spawn(move || server.run());
    let admin = std::fs::read_to_string(dir.join("admin.token"))
        .map_err(|e| format!("admin token: {e}"))?
        .trim()
        .to_string();

    eprintln!(
        "bench psp --net: {} connection(s) to {addr}, transform {} ops over {} photos x {} views (zipf {:.2}), mixed {} ops",
        config.connections,
        config.transform_ops,
        config.photos,
        repeat_transforms().len(),
        config.zipf,
        config.mixed_ops,
    );

    // --- Setup: upload the photo population over the wire.
    let photos = repeat_fixtures(config.photos);
    let transforms = repeat_transforms();
    let mut setup = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let mut keys: Vec<(PhotoId, Transformation)> = Vec::new();
    for (bytes, params) in &photos {
        let receipt = setup
            .upload(bytes, params)
            .map_err(|e| format!("setup upload: {e}"))?;
        for t in &transforms {
            keys.push((receipt.id, t.clone()));
        }
    }

    // Parity spot-check: the wire must serve exactly what the in-process
    // path computes, or throughput numbers compare different work.
    let reference = PspServer::new();
    let ref_id = reference
        .upload(photos[0].0.clone(), photos[0].1.clone())
        .map_err(|e| e.to_string())?;
    let (wire_b, wire_p, _, wire_served) = setup
        .download_transformed_traced(keys[0].0, &keys[0].1)
        .map_err(|e| format!("parity transform: {e}"))?;
    if wire_served != WireServed::CoeffDomain {
        return Err(format!(
            "serve-path violation: coeff-eligible {:?} served {wire_served:?} over the wire",
            keys[0].1
        ));
    }
    let (ref_b, ref_p) = reference
        .download_transformed(ref_id, &keys[0].1)
        .map_err(|e| e.to_string())?;
    if wire_b != ref_b.to_vec() || wire_p != ref_p.to_vec() {
        return Err("parity violation: wire transform differs from in-process".into());
    }

    // --- net-cached-transform: zipf keys, closed loop per connection.
    let zipf = Zipf::new(keys.len(), config.zipf);
    let hits = AtomicU64::new(0);
    let lookups = AtomicU64::new(0);
    let served_coeff = AtomicU64::new(0);
    let served_pixel = AtomicU64::new(0);
    let served_cached = AtomicU64::new(0);
    let per_conn = (config.transform_ops / config.connections).max(1);
    let keys_ref = &keys;
    let (wall, lats) = drive_clients(
        &addr,
        config.connections,
        per_conn,
        "bench.net.transformed_us",
        |client, _i, rng| {
            let (id, t) = &keys_ref[zipf.sample(rng.unit())];
            let (_, _, cache, served) = client
                .download_transformed_traced(*id, t)
                .map_err(|e| format!("download_transformed: {e}"))?;
            lookups.fetch_add(1, Ordering::Relaxed);
            if cache == WireCache::Hit {
                hits.fetch_add(1, Ordering::Relaxed);
            }
            match served {
                WireServed::CoeffDomain => served_coeff.fetch_add(1, Ordering::Relaxed),
                WireServed::PixelFallback => served_pixel.fetch_add(1, Ordering::Relaxed),
                WireServed::Cached | WireServed::SigCached => {
                    served_cached.fetch_add(1, Ordering::Relaxed)
                }
                WireServed::Unknown => return Err("server did not report x-served-path".into()),
            };
            Ok(())
        },
    )?;
    let net_cached = stats(wall, lats);
    let hit_rate =
        hits.load(Ordering::Relaxed) as f64 / lookups.load(Ordering::Relaxed).max(1) as f64;
    let serve = ServeStats {
        coeff_domain: served_coeff.load(Ordering::Relaxed),
        pixel_fallback: served_pixel.load(Ordering::Relaxed),
        cached: served_cached.load(Ordering::Relaxed),
    };

    // --- net-mixed: read-mostly door mix over the wire.
    let ids: Vec<PhotoId> = keys
        .iter()
        .map(|(id, _)| *id)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let ids_ref = &ids;
    let photos_ref = &photos;
    let per_conn = (config.mixed_ops / config.connections).max(1);
    let (wall, lats) = drive_clients(
        &addr,
        config.connections,
        per_conn,
        "bench.net.mixed_us",
        |client, _i, rng| {
            let roll = rng.next() % 100;
            if roll < 78 {
                let id = ids_ref[(rng.next() % ids_ref.len() as u64) as usize];
                client.download(id).map_err(|e| format!("download: {e}"))?;
            } else if roll < 98 {
                let id = ids_ref[(rng.next() % ids_ref.len() as u64) as usize];
                client
                    .download_params(id)
                    .map_err(|e| format!("params: {e}"))?;
            } else {
                let (b, p) = &photos_ref[(rng.next() % photos_ref.len() as u64) as usize];
                client.upload(b, p).map_err(|e| format!("upload: {e}"))?;
            }
            Ok(())
        },
    )?;
    let net_mixed = stats(wall, lats);

    // --- Stitched end-to-end trace: only when a subscriber is live (the
    // `--trace` / `--obs-overhead-gate` rerun), so the plain run stays
    // untouched by the extra ops.
    if puppies_obs::enabled() {
        trace_stitch(&addr, &photos[0])?;
    }

    // --- Graceful shutdown before the in-process baseline so the server's
    // threads aren't competing for cores.
    setup
        .shutdown(&admin)
        .map_err(|e| format!("shutdown: {e}"))?;
    server_thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;

    // --- In-process uncached baseline: the same zipf stream against the
    // raw pipeline (no cache, no memo, no network).
    let uncached = PspServer::with_config(PspConfig::uncached());
    let local_keys: Vec<(PhotoId, Transformation)> = {
        let mut out = Vec::new();
        for (bytes, params) in &photos {
            let id = uncached
                .upload(bytes.clone(), params.clone())
                .map_err(|e| e.to_string())?;
            for t in &transforms {
                out.push((id, t.clone()));
            }
        }
        out
    };
    let per_conn = (config.transform_ops / config.connections).max(1);
    let barrier = std::sync::Barrier::new(config.connections + 1);
    let mut merged: Vec<u32> = Vec::new();
    let mut wall_s = 0.0;
    let uncached_ref = &uncached;
    let local_keys_ref = &local_keys;
    let zipf_ref = &zipf;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.connections)
            .map(|tid| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = Rng::new(0x5EED_0000 ^ (tid as u64 + 1));
                    let mut lats = Vec::with_capacity(per_conn);
                    barrier.wait();
                    for _ in 0..per_conn {
                        let (id, t) = &local_keys_ref[zipf_ref.sample(rng.unit())];
                        let start = Instant::now();
                        let served = uncached_ref.download_transformed(*id, t);
                        std::hint::black_box(served.expect("uncached transform"));
                        let ns = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
                        lats.push(ns);
                        puppies_obs::record("bench.inprocess.uncached_us", u64::from(ns) / 1000);
                    }
                    lats
                })
            })
            .collect();
        let started = Instant::now();
        barrier.wait();
        for h in handles {
            merged.extend(h.join().expect("baseline thread"));
        }
        wall_s = started.elapsed().as_secs_f64();
    });
    let inprocess_uncached = stats(wall_s, merged);

    let _ = std::fs::remove_dir_all(&dir);
    Ok(NetResults {
        config,
        net_cached,
        net_mixed,
        inprocess_uncached,
        hit_rate,
        serve,
    })
}

/// One fully stitched operation for the committed trace artifact: a root
/// span owning a wire upload + transform (client → server through the
/// `x-puppies-trace` header) and a k-of-n cluster upload + reconstruct
/// (root → per-backend spans through explicit parents), so a single trace
/// id covers client, server, worker pool, and all n backends.
fn trace_stitch(addr: &str, photo: &(Vec<u8>, Vec<u8>)) -> Result<(), String> {
    let _root = puppies_obs::span("bench.net.e2e", "bench");
    let mut client = Client::connect(addr).map_err(|e| format!("stitch connect: {e}"))?;
    let receipt = client
        .upload(&photo.0, &photo.1)
        .map_err(|e| format!("stitch upload: {e}"))?;
    client
        .download_transformed_traced(receipt.id, &Transformation::Rotate90)
        .map_err(|e| format!("stitch transform: {e}"))?;
    let cluster = puppies_psp::ShardedPspCluster::new(puppies_psp::ClusterConfig::new(3, 2))
        .map_err(|e| e.to_string())?;
    let grant = puppies_core::OwnerKey::from_seed([7u8; 32]).grant_all();
    let id = cluster
        .upload(photo.0.clone(), photo.1.clone(), &grant)
        .map_err(|e| format!("stitch cluster upload: {e}"))?;
    cluster
        .reconstruct(id)
        .map_err(|e| format!("stitch cluster reconstruct: {e}"))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Rendering, JSON, and the CI gate.
// ---------------------------------------------------------------------------

pub fn render(res: &NetResults) -> Vec<String> {
    let line = |name: &str, s: &NetScenario| {
        format!(
            "{name:>22}: {:>9.0} ops/s  p50 {:7.1} us  p95 {:7.1} us  p99 {:7.1} us",
            s.ops_per_s, s.p50_us, s.p95_us, s.p99_us
        )
    };
    vec![
        line("net-cached-transform", &res.net_cached),
        line("net-mixed", &res.net_mixed),
        line("inprocess-uncached", &res.inprocess_uncached),
        format!(
            "{:>22}: {:.2}x (net cached vs in-process uncached), hit rate {:.1}%",
            "ratio",
            res.net_vs_inprocess(),
            res.hit_rate * 100.0
        ),
        format!(
            "{:>22}: {} coeff-domain / {} pixel-fallback / {} cached (coeff rate {:.1}%)",
            "served paths",
            res.serve.coeff_domain,
            res.serve.pixel_fallback,
            res.serve.cached,
            res.serve.coeff_serve_rate() * 100.0
        ),
    ]
}

fn scenario_json(s: &NetScenario, hit_rate: Option<f64>) -> String {
    let hit = match hit_rate {
        Some(h) => format!(", \"hit_rate\": {h:.4}"),
        None => String::new(),
    };
    format!(
        "{{\"ops\": {}, \"wall_s\": {:.3}, \"ops_per_s\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}{hit}}}",
        s.ops, s.wall_s, s.ops_per_s, s.p50_us, s.p95_us, s.p99_us
    )
}

/// Fixed-schema JSON, committed as `results/BENCH_psp_net.json`.
pub fn to_json(res: &NetResults) -> String {
    let c = &res.config;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n");
    out.push_str(&format!(
        "  \"config\": {{\"connections\": {}, \"transform_ops\": {}, \"mixed_ops\": {}, \"photos\": {}, \"zipf\": {:.2}, \"seed\": {}}},\n",
        c.connections, c.transform_ops, c.mixed_ops, c.photos, c.zipf, c.seed
    ));
    out.push_str("  \"net\": {\n");
    out.push_str(&format!(
        "    \"cached_transform\": {},\n",
        scenario_json(&res.net_cached, Some(res.hit_rate))
    ));
    out.push_str(&format!(
        "    \"mixed\": {}\n  }},\n",
        scenario_json(&res.net_mixed, None)
    ));
    out.push_str(&format!(
        "  \"inprocess_uncached\": {{\n    \"transform\": {}\n  }},\n",
        scenario_json(&res.inprocess_uncached, None)
    ));
    out.push_str(&format!(
        "  \"serve\": {{\"coeff_domain\": {}, \"pixel_fallback\": {}, \"cached\": {}, \"coeff_serve_rate\": {:.4}}},\n",
        res.serve.coeff_domain,
        res.serve.pixel_fallback,
        res.serve.cached,
        res.serve.coeff_serve_rate()
    ));
    out.push_str(&format!(
        "  \"ratio_net_cached_vs_inprocess_uncached\": {:.2}\n}}\n",
        res.net_vs_inprocess()
    ));
    out
}

pub struct NetCheckLimits {
    /// Allowed fractional drop below the committed net cached throughput
    /// (cross-machine band, like the in-process bench's).
    pub threshold: f64,
    /// Floor on net cached / in-process uncached (machine-independent).
    pub min_ratio: f64,
    /// Floor on the end-to-end `x-cache` hit rate.
    pub min_hit_rate: f64,
    /// Floor on the `x-served-path` coeff-domain rate among computed
    /// (non-cached) responses.
    pub min_coeff_serve_rate: f64,
}

impl Default for NetCheckLimits {
    fn default() -> Self {
        NetCheckLimits {
            threshold: 0.85,
            min_ratio: 0.5,
            min_hit_rate: 0.5,
            min_coeff_serve_rate: 0.5,
        }
    }
}

/// The CI gate for the networked path.
pub fn check(res: &NetResults, committed: &str, limits: &NetCheckLimits) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    match crate::bench_psp::parse_ops_per_s(committed, "net", "cached_transform") {
        Ok(base) => {
            let ratio = res.net_cached.ops_per_s / base;
            let pass = ratio >= 1.0 - limits.threshold;
            ok &= pass;
            lines.push(format!(
                "  cached_transform: {:>9.0} ops/s vs committed {base:>9.0} (x{ratio:.2}, floor x{:.2}) {}",
                res.net_cached.ops_per_s,
                1.0 - limits.threshold,
                if pass { "ok" } else { "REGRESSED" }
            ));
        }
        Err(e) => {
            ok = false;
            lines.push(format!("  cached_transform: {e}"));
        }
    }
    for (name, got, floor) in [
        (
            "net/inprocess ratio",
            res.net_vs_inprocess(),
            limits.min_ratio,
        ),
        ("hit rate", res.hit_rate, limits.min_hit_rate),
        (
            "coeff serve rate",
            res.serve.coeff_serve_rate(),
            limits.min_coeff_serve_rate,
        ),
    ] {
        let pass = got >= floor;
        ok &= pass;
        lines.push(format!(
            "{name:>20}: {got:.2} (floor {floor:.2}) {}",
            if pass { "ok" } else { "BELOW FLOOR" }
        ));
    }
    (lines, ok)
}

// ---------------------------------------------------------------------------
// CLI entry point (dispatched from `bench psp --net`).
// ---------------------------------------------------------------------------

/// `puppies bench psp --net [--connections N] [--transform-ops N]
/// [--mixed-ops N] [--photos N] [--zipf S] [--seed N] [--out file]
/// [--check file [--threshold F] [--min-ratio F] [--min-hit-rate F]
/// [--min-coeff-serve-rate F]] [--obs-overhead-gate PCT]
/// [--trace file] [--stats file]`
///
/// With `--obs-overhead-gate` the bench runs twice: a plain pass whose
/// numbers feed `--out`/`--check`, then an instrumented rerun (whose
/// snapshot feeds `--trace`/`--stats` and includes the stitched
/// end-to-end trace); the gate fails if instrumentation costs more than
/// PCT percent of cached-transform throughput.
pub fn cmd(args: &[String]) -> Result<(), String> {
    let parse_num = |name: &str, default: f64| -> Result<f64, String> {
        match crate::flag_value(args, name) {
            Some(v) => v.parse().map_err(|e| format!("bad {name} {v:?}: {e}")),
            None => Ok(default),
        }
    };
    let config = NetConfig {
        connections: (parse_num("--connections", 8.0)? as usize).max(1),
        transform_ops: (parse_num("--transform-ops", 2000.0)? as usize).max(8),
        mixed_ops: (parse_num("--mixed-ops", 2000.0)? as usize).max(8),
        photos: (parse_num("--photos", 24.0)? as usize).max(1),
        zipf: parse_num("--zipf", 1.1)?,
        seed: parse_num("--seed", 0x5EED_CAFE as f64)? as u64,
    };
    let limits = NetCheckLimits {
        threshold: parse_num("--threshold", NetCheckLimits::default().threshold)?,
        min_ratio: parse_num("--min-ratio", NetCheckLimits::default().min_ratio)?,
        min_hit_rate: parse_num("--min-hit-rate", NetCheckLimits::default().min_hit_rate)?,
        min_coeff_serve_rate: parse_num(
            "--min-coeff-serve-rate",
            NetCheckLimits::default().min_coeff_serve_rate,
        )?,
    };

    let gate: Option<f64> = match crate::flag_value(args, "--obs-overhead-gate") {
        Some(v) => Some(
            v.parse()
                .map_err(|e| format!("bad --obs-overhead-gate {v:?}: {e}"))?,
        ),
        None => None,
    };

    // Gated mode measures a plain pass first, so the committed numbers
    // are never produced with a subscriber attached; otherwise one run,
    // with the obs session (when requested) wrapping it so client-side
    // histograms and the in-process server's psp.net.* metrics land in
    // one snapshot.
    let (res, overhead) = if gate.is_some() {
        let plain = run(config)?;
        let obs = crate::obs_from_args(args);
        let session = obs.is_none().then(puppies_obs::Obs::install);
        let instr = run(config)?;
        let overhead = (plain.net_cached.ops_per_s / instr.net_cached.ops_per_s - 1.0) * 100.0;
        if let Some(o) = obs {
            o.finish()?;
        }
        drop(session);
        println!(
            "instrumented rerun: {:.0} ops/s vs plain {:.0} ops/s (overhead {overhead:+.2}%)",
            instr.net_cached.ops_per_s, plain.net_cached.ops_per_s
        );
        (plain, Some(overhead))
    } else {
        let obs = crate::obs_from_args(args);
        let res = run(config)?;
        if let Some(o) = obs {
            o.finish()?;
        }
        (res, None)
    };
    for line in render(&res) {
        println!("{line}");
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
            return Err(format!("psp net bench failed the gate against {path}"));
        }
        println!("psp net gate passed against {path}");
    }
    if let (Some(gate), Some(overhead)) = (gate, overhead) {
        if overhead > gate {
            return Err(format!(
                "instrumentation overhead {overhead:.2}% exceeds the {gate:.2}% gate"
            ));
        }
        println!("instrumentation overhead {overhead:.2}% within the {gate:.2}% gate");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake() -> NetResults {
        let s = |ops_per_s: f64| NetScenario {
            ops: 1000,
            wall_s: 1.0,
            ops_per_s,
            p50_us: 100.0,
            p95_us: 200.0,
            p99_us: 400.0,
        };
        NetResults {
            config: NetConfig {
                connections: 8,
                transform_ops: 1000,
                mixed_ops: 1000,
                photos: 16,
                zipf: 1.1,
                seed: 1,
            },
            net_cached: s(8_000.0),
            net_mixed: s(12_000.0),
            inprocess_uncached: s(4_000.0),
            hit_rate: 0.93,
            serve: ServeStats {
                coeff_domain: 72,
                pixel_fallback: 24,
                cached: 904,
            },
        }
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let json = to_json(&fake());
        assert_eq!(
            crate::bench_psp::parse_ops_per_s(&json, "net", "cached_transform").unwrap(),
            8_000.0
        );
        assert_eq!(
            crate::bench_psp::parse_ops_per_s(&json, "inprocess_uncached", "transform").unwrap(),
            4_000.0
        );
    }

    #[test]
    fn check_gates_on_ratio_and_hit_rate() {
        let res = fake();
        let committed = to_json(&res);
        let (_, ok) = check(&res, &committed, &NetCheckLimits::default());
        assert!(ok, "healthy results must pass their own file");
        let mut slow = fake();
        slow.net_cached.ops_per_s = 1_000.0; // ratio 0.25 < 0.5 floor
        let (lines, ok) = check(&slow, &committed, &NetCheckLimits::default());
        assert!(!ok, "ratio 0.25 must fail the 0.5 floor: {lines:?}");
        let mut cold = fake();
        cold.hit_rate = 0.1;
        let (lines, ok) = check(&cold, &committed, &NetCheckLimits::default());
        assert!(!ok, "10% hit rate must fail the 50% floor: {lines:?}");
    }
}

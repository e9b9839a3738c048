//! `puppies bench psp --cluster` — throughput benchmark for the k-of-n
//! Shamir-shared cluster (PuPPIeS-SIS).
//!
//! Three layers of measurement:
//!
//! * **Shamir micro** — split and reconstruct over a fixed payload, run
//!   twice with the identical algorithm: once over the log/exp-table
//!   GF(256) multiplier and once over the embedded bitwise
//!   (Russian-peasant) reference multiplier. Running both in the same
//!   process makes the speedup a machine-independent ratio, which is
//!   what the CI gate floors. Byte parity between the two field
//!   implementations is proven before anything is timed.
//! * **Cluster end-to-end** — closed-loop upload and reconstruct
//!   traffic from N client threads against a live (n, k) cluster of
//!   real `PspServer` backends, with zipf-skewed reconstruct keys.
//!   Single-PSP upload/download throughput is measured alongside for
//!   context (the cluster pays n share stores + a k-share interpolation
//!   per op — the honest cost of removing the single point of trust).
//! * **P3 baseline** — `puppies-p3` whole-image split/reconstruct
//!   timings, the paper's reference point for provider-side secrecy.

use crate::bench_psp::{Rng, Zipf};
use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::CoeffImage;
use puppies_psp::cluster::{gf256, shamir, ClusterConfig, ShardedPspCluster};
use puppies_psp::{ClusterPhotoId, PspConfig, PspServer};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Everything `bench psp --cluster` measured.
pub struct ClusterResults {
    pub config: RunConfig,
    /// MB/s over the table field vs the bitwise reference field.
    pub split_table_mb_s: f64,
    pub split_naive_mb_s: f64,
    pub reconstruct_table_mb_s: f64,
    pub reconstruct_naive_mb_s: f64,
    /// Closed-loop cluster ops.
    pub upload: ScenarioStats,
    pub reconstruct: ScenarioStats,
    /// Single-PSP context numbers (same payloads, no sharing).
    pub single_upload: ScenarioStats,
    pub single_download: ScenarioStats,
    /// P3 baseline: milliseconds per whole-image split / reconstruct.
    pub p3_split_ms: f64,
    pub p3_reconstruct_ms: f64,
}

impl ClusterResults {
    pub fn split_speedup(&self) -> f64 {
        self.split_table_mb_s / self.split_naive_mb_s
    }
    pub fn reconstruct_speedup(&self) -> f64 {
        self.reconstruct_table_mb_s / self.reconstruct_naive_mb_s
    }
}

#[derive(Clone, Copy)]
pub struct RunConfig {
    pub n: usize,
    pub k: usize,
    pub threads: usize,
    pub upload_ops: usize,
    pub reconstruct_ops: usize,
    pub payload_kib: usize,
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

fn stats_from(latencies_us: &mut [f64], wall_s: f64) -> ScenarioStats {
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| -> f64 {
        if latencies_us.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_us.len() as f64 - 1.0) * p).round() as usize;
        latencies_us[idx]
    };
    ScenarioStats {
        ops: latencies_us.len(),
        wall_s,
        ops_per_s: latencies_us.len() as f64 / wall_s.max(1e-9),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
    }
}

// ---------------------------------------------------------------------------
// Shamir micro: table vs bitwise reference field.
// ---------------------------------------------------------------------------

/// Field-stress shape for the micro: deep enough that GF multiplies
/// dominate ChaCha coefficient generation (see the comment in [`run`]).
const MICRO_N: usize = 10;
const MICRO_K: usize = 10;

fn micro_payload(kib: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed | 1);
    (0..kib * 1024).map(|_| (rng.next() >> 24) as u8).collect()
}

/// Proves the two field implementations agree end-to-end before timing:
/// table-split reconstructs under the naive field and vice versa, all
/// byte-exact.
fn verify_field_parity(payload: &[u8], n: usize, k: usize) -> Result<(), String> {
    let seed = [0x42u8; 32];
    let t = shamir::split_with(payload, n, k, 0, seed, gf256::mul)
        .map_err(|e| format!("table split: {e}"))?;
    let b = shamir::split_with(payload, n, k, 0, seed, gf256::mul_naive)
        .map_err(|e| format!("naive split: {e}"))?;
    if t != b {
        return Err("table and naive splits diverged".into());
    }
    let via_table = shamir::reconstruct_with(&t[n - k..], gf256::mul)
        .map_err(|e| format!("table reconstruct: {e}"))?;
    let via_naive = shamir::reconstruct_with(&t[..k], gf256::mul_naive)
        .map_err(|e| format!("naive reconstruct: {e}"))?;
    if via_table != payload || via_naive != payload {
        return Err("reconstruction parity failed".into());
    }
    Ok(())
}

fn time_split(payload: &[u8], n: usize, k: usize, iters: usize, mul: fn(u8, u8) -> u8) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        let mut seed = [0u8; 32];
        seed[0] = i as u8;
        black_box(shamir::split_with(payload, n, k, 0, seed, mul).expect("valid shape"));
    }
    let secs = start.elapsed().as_secs_f64();
    (iters * payload.len()) as f64 / secs / 1e6
}

fn time_reconstruct(
    shares: &[shamir::Share],
    k: usize,
    payload_len: usize,
    iters: usize,
    mul: fn(u8, u8) -> u8,
) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        // Rotate which k-subset reconstructs so the work isn't one
        // cached weight set.
        let at = i % (shares.len() - k + 1);
        black_box(shamir::reconstruct_with(&shares[at..at + k], mul).expect("quorum"));
    }
    let secs = start.elapsed().as_secs_f64();
    (iters * payload_len) as f64 / secs / 1e6
}

// ---------------------------------------------------------------------------
// End-to-end cluster workload.
// ---------------------------------------------------------------------------

fn fixture(seed: u8) -> (Vec<u8>, Vec<u8>, puppies_core::KeyGrant) {
    let img = RgbImage::from_fn(96, 64, |x, y| {
        Rgb::new(
            (35 + (x * 3 + y + seed as u32) % 190) as u8,
            (45 + (x + y * 2 + seed as u32 * 5) % 180) as u8,
            (55 + (x * 2 + y * 3) % 170) as u8,
        )
    });
    let key = OwnerKey::from_seed([seed; 32]);
    let opts = ProtectOptions::default().with_image_id(seed as u64 + 1);
    let protected =
        protect(&img, &[Rect::new(24, 16, 32, 32)], &key, &opts).expect("fixture protects");
    let grant = key.grant_rois(seed as u64 + 1, &[0]);
    (protected.bytes, protected.params.to_bytes(), grant)
}

pub fn run(config: RunConfig) -> Result<ClusterResults, String> {
    if config.k == 0 || config.k > config.n || config.n > 255 {
        return Err(format!("bad shape n = {}, k = {}", config.n, config.k));
    }

    // --- Shamir micro, parity first. ---
    // The micro runs at a fixed field-stress shape rather than the
    // cluster's (n, k): split does n·(k−1) GF multiplies per byte but
    // only (k−1) ChaCha bytes, so a deep shape keeps the measurement
    // (and the table-vs-bitwise ratio the CI floors) dominated by the
    // field multiplier instead of coefficient generation. At the
    // deployment shape (5, 3) the RNG dilutes the split ratio to ~1.3×.
    let (mn, mk) = (MICRO_N, MICRO_K);
    let payload = micro_payload(config.payload_kib, config.seed);
    verify_field_parity(&payload, config.n, config.k)?;
    verify_field_parity(&payload, mn, mk)?;
    let shares =
        shamir::split(&payload, mn, mk, 0, [7u8; 32]).map_err(|e| format!("split: {e}"))?;
    // Naive is several times slower; scale its iteration count down so
    // the bench stays quick, MB/s normalizes the difference.
    let split_table_mb_s = time_split(&payload, mn, mk, 16, gf256::mul);
    let split_naive_mb_s = time_split(&payload, mn, mk, 4, gf256::mul_naive);
    let reconstruct_table_mb_s = time_reconstruct(&shares, mk, payload.len(), 16, gf256::mul);
    let reconstruct_naive_mb_s = time_reconstruct(&shares, mk, payload.len(), 4, gf256::mul_naive);

    // --- End-to-end cluster workload. ---
    let cluster = ShardedPspCluster::new(ClusterConfig::new(config.n, config.k))
        .map_err(|e| e.to_string())?;
    let fixtures: Vec<_> = (0..8).map(|i| fixture(i as u8 + 1)).collect();

    let (upload_stats, ids) = run_loop(config.threads, config.upload_ops, |i| {
        let (bytes, params, grant) = &fixtures[i % fixtures.len()];
        cluster
            .upload(bytes.clone(), params.clone(), grant)
            .expect("cluster upload")
    });

    let zipf = Zipf::new(ids.len(), config.zipf);
    let seed = config.seed;
    let (reconstruct_stats, _) = run_loop(config.threads, config.reconstruct_ops, |i| {
        let mut rng = Rng::new(seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let id: ClusterPhotoId = ids[zipf.sample(rng.unit())];
        let (_, bytes) = cluster.reconstruct(id).expect("cluster reconstruct");
        black_box(bytes.len());
    });

    // --- Single-PSP context. ---
    let single = PspServer::with_config(PspConfig::uncached());
    let (single_upload, sids) = run_loop(config.threads, config.upload_ops, |i| {
        let (bytes, params, _) = &fixtures[i % fixtures.len()];
        single
            .upload(bytes.clone(), params.clone())
            .expect("upload")
    });
    let (single_download, _) = run_loop(config.threads, config.reconstruct_ops, |i| {
        let mut rng = Rng::new(seed ^ (i as u64).wrapping_mul(0xD1B54A32D192ED03) | 1);
        let id = sids[zipf.sample(rng.unit()).min(sids.len() - 1)];
        black_box(single.download(id).expect("download").len());
    });

    // --- P3 baseline. ---
    let p3_img = RgbImage::from_fn(96, 64, |x, y| {
        Rgb::new(
            (50 + (x * 2 + y) % 180) as u8,
            (60 + (x + y * 3) % 170) as u8,
            (40 + (x * 3 + y * 2) % 190) as u8,
        )
    });
    let coeff = CoeffImage::from_rgb(&p3_img, 75);
    let t0 = Instant::now();
    let p3_iters = 8;
    let mut p3s = None;
    for _ in 0..p3_iters {
        p3s = Some(black_box(puppies_p3::split(&coeff, 15)));
    }
    let p3_split_ms = t0.elapsed().as_secs_f64() * 1e3 / p3_iters as f64;
    let split_out = p3s.expect("p3 split ran");
    let t0 = Instant::now();
    for _ in 0..p3_iters {
        black_box(
            puppies_p3::reconstruct(&split_out.public, &split_out.private)
                .map_err(|e| format!("p3 reconstruct: {e}"))?,
        );
    }
    let p3_reconstruct_ms = t0.elapsed().as_secs_f64() * 1e3 / p3_iters as f64;

    Ok(ClusterResults {
        config,
        split_table_mb_s,
        split_naive_mb_s,
        reconstruct_table_mb_s,
        reconstruct_naive_mb_s,
        upload: upload_stats,
        reconstruct: reconstruct_stats,
        single_upload,
        single_download,
        p3_split_ms,
        p3_reconstruct_ms,
    })
}

/// Closed loop: `threads` workers drain `total` ops from a shared
/// counter; per-op latency is recorded and merged.
fn run_loop<T: Send>(
    threads: usize,
    total: usize,
    op: impl Fn(usize) -> T + Sync,
) -> (ScenarioStats, Vec<T>) {
    let counter = AtomicUsize::new(0);
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(total);
    let mut results = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads.max(1) {
            let counter = &counter;
            let op = &op;
            handles.push(scope.spawn(move || {
                let mut lat = Vec::new();
                let mut out = Vec::new();
                loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let t0 = Instant::now();
                    out.push((i, op(i)));
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                (lat, out)
            }));
        }
        for h in handles {
            let (lat, out) = h.join().expect("bench worker");
            latencies.extend(lat);
            results.extend(out);
        }
    });
    let wall = start.elapsed().as_secs_f64();
    results.sort_by_key(|(i, _)| *i);
    let results = results.into_iter().map(|(_, t)| t).collect();
    (stats_from(&mut latencies, wall), results)
}

// ---------------------------------------------------------------------------
// Rendering, JSON, and the CI gate.
// ---------------------------------------------------------------------------

pub fn render(res: &ClusterResults) -> Vec<String> {
    let c = &res.config;
    let mut out = Vec::new();
    out.push(format!(
        "cluster bench: ({}, {}) cluster, shamir micro at ({MICRO_N}, {MICRO_K}) over {} KiB, {} threads",
        c.n, c.k, c.payload_kib, c.threads
    ));
    out.push(format!(
        "  shamir split       {:>8.1} MB/s table vs {:>7.1} MB/s bitwise (x{:.1})",
        res.split_table_mb_s,
        res.split_naive_mb_s,
        res.split_speedup()
    ));
    out.push(format!(
        "  shamir reconstruct {:>8.1} MB/s table vs {:>7.1} MB/s bitwise (x{:.1})",
        res.reconstruct_table_mb_s,
        res.reconstruct_naive_mb_s,
        res.reconstruct_speedup()
    ));
    for (name, s) in [
        ("cluster upload", &res.upload),
        ("cluster reconstruct", &res.reconstruct),
        ("single-psp upload", &res.single_upload),
        ("single-psp download", &res.single_download),
    ] {
        out.push(format!(
            "  {name:<19} {:>8.0} ops/s  p50 {:>7.0} µs  p95 {:>7.0} µs  p99 {:>7.0} µs",
            s.ops_per_s, s.p50_us, s.p95_us, s.p99_us
        ));
    }
    out.push(format!(
        "  p3 baseline: split {:.2} ms, reconstruct {:.2} ms (whole image, no ROI)",
        res.p3_split_ms, res.p3_reconstruct_ms
    ));
    out
}

fn scenario_json(s: &ScenarioStats) -> String {
    format!(
        "{{\"ops\": {}, \"wall_s\": {:.3}, \"ops_per_s\": {:.0}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}",
        s.ops, s.wall_s, s.ops_per_s, s.p50_us, s.p95_us, s.p99_us
    )
}

pub fn to_json(res: &ClusterResults) -> String {
    let c = &res.config;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n");
    out.push_str(&format!(
        "  \"config\": {{\"n\": {}, \"k\": {}, \"threads\": {}, \"upload_ops\": {}, \"reconstruct_ops\": {}, \"payload_kib\": {}, \"zipf\": {:.2}, \"seed\": {}}},\n",
        c.n, c.k, c.threads, c.upload_ops, c.reconstruct_ops, c.payload_kib, c.zipf, c.seed
    ));
    out.push_str(&format!(
        "  \"shamir\": {{\n    \"micro_shape\": [{MICRO_N}, {MICRO_K}],\n    \"table\": {{\"split_mb_s\": {:.1}, \"reconstruct_mb_s\": {:.1}}},\n    \"bitwise_reference\": {{\"split_mb_s\": {:.1}, \"reconstruct_mb_s\": {:.1}}},\n    \"speedup_vs_bitwise\": {{\"split\": {:.2}, \"reconstruct\": {:.2}}}\n  }},\n",
        res.split_table_mb_s,
        res.reconstruct_table_mb_s,
        res.split_naive_mb_s,
        res.reconstruct_naive_mb_s,
        res.split_speedup(),
        res.reconstruct_speedup()
    ));
    out.push_str(&format!(
        "  \"cluster\": {{\n    \"upload\": {},\n    \"reconstruct\": {}\n  }},\n",
        scenario_json(&res.upload),
        scenario_json(&res.reconstruct)
    ));
    out.push_str(&format!(
        "  \"single_psp\": {{\n    \"upload\": {},\n    \"download\": {}\n  }},\n",
        scenario_json(&res.single_upload),
        scenario_json(&res.single_download)
    ));
    out.push_str(&format!(
        "  \"p3_baseline\": {{\"split_ms\": {:.2}, \"reconstruct_ms\": {:.2}}}\n}}\n",
        res.p3_split_ms, res.p3_reconstruct_ms
    ));
    out
}

pub struct CheckLimits {
    /// Allowed fractional drop below the committed cluster throughput
    /// (cross-machine band; the speedup floors are the machine-
    /// independent gate).
    pub threshold: f64,
    /// Floor for table-vs-bitwise split speedup.
    pub min_split_speedup: f64,
    /// Floor for table-vs-bitwise reconstruct speedup.
    pub min_reconstruct_speedup: f64,
}

impl Default for CheckLimits {
    fn default() -> Self {
        // Split's floor is lower than reconstruct's: every split also
        // pays n SHA-256 share tags and (k−1) ChaCha coefficient rows,
        // identical across the two field implementations, which dilutes
        // the observable ratio.
        CheckLimits {
            threshold: 0.85,
            min_split_speedup: 1.4,
            min_reconstruct_speedup: 2.0,
        }
    }
}

/// The CI gate: fresh cluster throughput within the band of the
/// committed file, plus machine-independent table-vs-bitwise speedup
/// floors measured this run.
pub fn check(res: &ClusterResults, committed: &str, limits: &CheckLimits) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    for (scenario, fresh) in [
        ("upload", res.upload.ops_per_s),
        ("reconstruct", res.reconstruct.ops_per_s),
    ] {
        match crate::bench_psp::parse_ops_per_s(committed, "cluster", scenario) {
            Ok(base) => {
                let ratio = fresh / base;
                let pass = ratio >= 1.0 - limits.threshold;
                ok &= pass;
                lines.push(format!(
                    "{scenario:>20}: {fresh:>9.0} ops/s vs committed {base:>9.0} (x{ratio:.2}, floor x{:.2}) {}",
                    1.0 - limits.threshold,
                    if pass { "ok" } else { "REGRESSED" }
                ));
            }
            Err(e) => {
                ok = false;
                lines.push(format!("{scenario:>20}: {e}"));
            }
        }
    }
    for (name, got, floor) in [
        (
            "split speedup",
            res.split_speedup(),
            limits.min_split_speedup,
        ),
        (
            "reconstruct speedup",
            res.reconstruct_speedup(),
            limits.min_reconstruct_speedup,
        ),
    ] {
        let pass = got >= floor;
        ok &= pass;
        lines.push(format!(
            "{name:>20}: x{got:.2} (floor x{floor:.2}) {}",
            if pass { "ok" } else { "BELOW FLOOR" }
        ));
    }
    (lines, ok)
}

/// `puppies bench psp --cluster [--shape n,k] [--threads N]
/// [--upload-ops N] [--reconstruct-ops N] [--payload-kib N] [--zipf S]
/// [--seed N] [--out file] [--check file [--threshold F]
/// [--min-split-speedup F] [--min-reconstruct-speedup F]]`
pub fn cmd(args: &[String]) -> Result<(), String> {
    let parse_num = |name: &str, default: f64| -> Result<f64, String> {
        match crate::flag_value(args, name) {
            Some(v) => v.parse().map_err(|e| format!("bad {name} {v:?}: {e}")),
            None => Ok(default),
        }
    };
    let (n, k) = match crate::flag_value(args, "--shape") {
        Some(s) => {
            let (a, b) = s
                .split_once(',')
                .ok_or_else(|| format!("bad --shape {s:?}: expected n,k"))?;
            (
                a.trim()
                    .parse()
                    .map_err(|e| format!("bad n in --shape: {e}"))?,
                b.trim()
                    .parse()
                    .map_err(|e| format!("bad k in --shape: {e}"))?,
            )
        }
        None => (5, 3),
    };
    let config = RunConfig {
        n,
        k,
        threads: (parse_num("--threads", 8.0)? as usize).max(1),
        upload_ops: (parse_num("--upload-ops", 400.0)? as usize).max(8),
        reconstruct_ops: (parse_num("--reconstruct-ops", 800.0)? as usize).max(8),
        payload_kib: (parse_num("--payload-kib", 64.0)? as usize).max(1),
        zipf: parse_num("--zipf", 1.1)?,
        seed: parse_num("--seed", 0xC1_05_7E_12u64 as f64)? as u64,
    };
    let limits = CheckLimits {
        threshold: parse_num("--threshold", CheckLimits::default().threshold)?,
        min_split_speedup: parse_num(
            "--min-split-speedup",
            CheckLimits::default().min_split_speedup,
        )?,
        min_reconstruct_speedup: parse_num(
            "--min-reconstruct-speedup",
            CheckLimits::default().min_reconstruct_speedup,
        )?,
    };

    let res = run(config)?;
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
            return Err(format!("cluster bench failed the gate against {path}"));
        }
        println!("cluster gate passed against {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_results() -> ClusterResults {
        let s = ScenarioStats {
            ops: 10,
            wall_s: 0.1,
            ops_per_s: 100.0,
            p50_us: 10.0,
            p95_us: 20.0,
            p99_us: 30.0,
        };
        ClusterResults {
            config: RunConfig {
                n: 5,
                k: 3,
                threads: 2,
                upload_ops: 10,
                reconstruct_ops: 10,
                payload_kib: 4,
                zipf: 1.1,
                seed: 1,
            },
            split_table_mb_s: 400.0,
            split_naive_mb_s: 50.0,
            reconstruct_table_mb_s: 600.0,
            reconstruct_naive_mb_s: 80.0,
            upload: s,
            reconstruct: s,
            single_upload: s,
            single_download: s,
            p3_split_ms: 1.0,
            p3_reconstruct_ms: 0.5,
        }
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let json = to_json(&tiny_results());
        assert_eq!(
            crate::bench_psp::parse_ops_per_s(&json, "cluster", "upload").unwrap(),
            100.0
        );
        assert_eq!(
            crate::bench_psp::parse_ops_per_s(&json, "cluster", "reconstruct").unwrap(),
            100.0
        );
        assert_eq!(
            crate::bench_psp::parse_ops_per_s(&json, "single_psp", "download").unwrap(),
            100.0
        );
    }

    #[test]
    fn check_gates_on_floors_and_band() {
        let res = tiny_results();
        let committed = to_json(&res);
        let (_, ok) = check(&res, &committed, &CheckLimits::default());
        assert!(ok, "self-check must pass");

        // Below the split-speedup floor → gate fails.
        let mut slow = tiny_results();
        slow.split_naive_mb_s = 300.0; // speedup 1.33 < 2.0
        let (lines, ok) = check(&slow, &committed, &CheckLimits::default());
        assert!(!ok, "{lines:?}");

        // Throughput collapse below the band → gate fails.
        let mut collapsed = tiny_results();
        collapsed.upload.ops_per_s = 1.0;
        let (lines, ok) = check(&collapsed, &committed, &CheckLimits::default());
        assert!(!ok, "{lines:?}");
    }

    #[test]
    fn field_parity_holds_on_micro_payload() {
        let payload = micro_payload(4, 99);
        verify_field_parity(&payload, 5, 3).unwrap();
    }

    #[test]
    fn small_run_produces_sane_results() {
        let res = run(RunConfig {
            n: 3,
            k: 2,
            threads: 2,
            upload_ops: 12,
            reconstruct_ops: 16,
            payload_kib: 4,
            zipf: 1.1,
            seed: 7,
        })
        .unwrap();
        assert!(res.upload.ops_per_s > 0.0);
        assert!(res.reconstruct.ops_per_s > 0.0);
        assert!(res.split_table_mb_s > 0.0);
        // The table-vs-bitwise speedup floor is only meaningful under
        // optimization; this debug-mode smoke test just checks the
        // ratio is finite and positive.
        assert!(res.split_speedup() > 0.0 && res.split_speedup().is_finite());
    }
}

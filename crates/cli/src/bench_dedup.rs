//! `puppies bench psp --dup` — the duplicate-serving benchmark behind
//! `results/BENCH_psp_dedup.json`.
//!
//! Two measurements, both machine-independent (ratios and hit rates, not
//! absolute throughput):
//!
//! * **recompressed-duplicate serving** — upload N protected originals,
//!   warm every (photo, view) once, then upload R recompressed copies of
//!   each (requantized at a spread of JPEG qualities — byte-distinct,
//!   perceptually identical) and serve every (copy, view) exactly once.
//!   With the signature layer on, those first serves resolve through the
//!   second-level (signature-family) cache key and come back
//!   `sig-cached`; the same run with `PspConfig { signature: false }` is
//!   the exact-key-only baseline, which by construction scores ~0%. The
//!   CI gate holds the sig-on first-serve hit rate ≥ 90% and the
//!   baseline ≤ 1%.
//! * **near-duplicate search scaling** — fill a [`SigIndex`] with
//!   synthetic signatures at 1k/10k/100k entries, plant a known family
//!   near each probe, and count candidates scanned per query. The
//!   multi-index layout buckets each 16-bit signature band, so scanned
//!   work grows ~n/65536 per band while a linear scan grows ~n: the gate
//!   holds scanned-growth across the 100× size spread at ≤ 25×.
//!
//! Served bytes are verified, not just counted: every `sig-cached`
//! response must be byte-identical to the family root's cached result.

use crate::bench_psp::{pct, warm_allocator, Rng};
use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::{CoeffImage, EncodeOptions};
use puppies_psp::{ContentId, PhotoId, PspConfig, PspServer, ServedPath, SigEntry, SigIndex};
use puppies_transform::Transformation;
use std::time::Instant;

/// The JPEG qualities duplicate copies are requantized at. A spread, not
/// one value: recompression at different strengths must all land inside
/// the signature's near-duplicate radius.
const DUP_QUALITIES: [u8; 4] = [40, 55, 70, 85];

/// Index sizes the search-scaling measurement sweeps.
const SEARCH_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

#[derive(Clone, Copy)]
pub struct DupConfig {
    /// Distinct original photos.
    pub originals: usize,
    /// Recompressed copies per original (capped at the quality spread).
    pub copies: usize,
    /// Probe queries per search-index size.
    pub search_queries: usize,
    pub seed: u64,
}

/// First-serve tallies for the duplicate population of one scenario run.
#[derive(Clone, Copy, Default)]
pub struct DupStats {
    pub first_serves: usize,
    /// Served through the signature-family cache key.
    pub sig_cached: usize,
    /// Served from the exact cache key (identical bytes re-uploaded).
    pub cached: usize,
    /// Computed from scratch — a dedup miss.
    pub computed: usize,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

impl DupStats {
    /// Fraction of duplicate first serves answered from cache (either
    /// key). This is the headline the CI gate floors.
    pub fn hit_rate(&self) -> f64 {
        (self.sig_cached + self.cached) as f64 / self.first_serves.max(1) as f64
    }
}

/// One point of the search-scaling sweep.
#[derive(Clone, Copy)]
pub struct SearchPoint {
    pub size: usize,
    pub queries: usize,
    /// Mean candidates Hamming-verified per query — the sublinearity
    /// observable (a linear scan would verify `size` per query).
    pub scanned_per_query: f64,
    pub us_per_query: f64,
}

pub struct DedupResults {
    pub config: DupConfig,
    pub with_sig: DupStats,
    pub baseline: DupStats,
    pub search: Vec<SearchPoint>,
}

impl DedupResults {
    /// Scanned-work growth across the full index-size spread. The sizes
    /// span 100×, so ≪ 100 demonstrates sublinear search.
    pub fn scan_growth(&self) -> f64 {
        let (first, last) = match (self.search.first(), self.search.last()) {
            (Some(f), Some(l)) => (f, l),
            _ => return f64::INFINITY,
        };
        last.scanned_per_query / first.scanned_per_query.max(1e-9)
    }

    pub fn size_growth(&self) -> f64 {
        let (first, last) = match (self.search.first(), self.search.last()) {
            (Some(f), Some(l)) => (f, l),
            _ => return 1.0,
        };
        last.size as f64 / first.size.max(1) as f64
    }
}

// ---------------------------------------------------------------------------
// Duplicate-serving scenario.
// ---------------------------------------------------------------------------

/// Protected originals for the dup scenario. Same shape as the repeat
/// bench's fixtures but seeded into a distinct family per photo so no
/// two originals are near-duplicates of each other.
fn dup_fixtures(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let seed = i as u32 + 1;
            let img = RgbImage::from_fn(96, 72, |x, y| {
                let v = x
                    .wrapping_mul(13 + seed)
                    .wrapping_add(y.wrapping_mul(29))
                    .wrapping_add(seed.wrapping_mul(131));
                Rgb::new(
                    (v.wrapping_mul(2_654_435_761) >> 24) as u8,
                    (v.wrapping_mul(40_503) >> 8) as u8,
                    ((x * 2 + y).wrapping_add(seed * 17) & 0xFF) as u8,
                )
            });
            let key = OwnerKey::from_seed([seed as u8; 32]);
            let p = protect(
                &img,
                &[Rect::new(24, 16, 32, 32)],
                &key,
                &ProtectOptions::default().with_quality(75),
            )
            .expect("dedup fixture protects");
            (p.bytes, p.params.to_bytes())
        })
        .collect()
}

/// Byte-distinct, perceptually identical copy: decode, requantize at
/// `quality`, re-encode. Exactly what a client re-saving a downloaded
/// photo produces.
fn recompress(bytes: &[u8], quality: u8) -> Result<Vec<u8>, String> {
    let mut coeff = CoeffImage::decode(bytes).map_err(|e| format!("recompress decode: {e}"))?;
    coeff.requantize(quality);
    coeff
        .encode(&EncodeOptions::default())
        .map_err(|e| format!("recompress encode: {e}"))
}

/// The derived views every photo is served under: two coefficient-domain
/// ops plus a requantization (the dedup win applies to all of them).
fn dup_transforms() -> Vec<Transformation> {
    vec![
        Transformation::Rotate90,
        Transformation::Rotate180,
        Transformation::Recompress { quality: 40 },
    ]
}

/// Uploads originals, warms every (photo, view), uploads the recompressed
/// copies and serves each (copy, view) exactly once, tallying how those
/// first serves were answered. With `signature` on, `sig-cached` responses
/// are byte-compared against the family root's cached result.
fn run_dup(config: &DupConfig, signature: bool) -> Result<DupStats, String> {
    let server = PspServer::with_config(PspConfig {
        signature,
        ..PspConfig::default()
    });
    let photos = dup_fixtures(config.originals);
    let transforms = dup_transforms();
    let copies = config.copies.min(DUP_QUALITIES.len());

    let mut roots: Vec<PhotoId> = Vec::with_capacity(photos.len());
    for (b, p) in &photos {
        roots.push(
            server
                .upload(b.clone(), p.clone())
                .map_err(|e| format!("dup upload: {e}"))?,
        );
    }
    // Warm the canonical result for every (root, view).
    let mut root_results = Vec::with_capacity(roots.len() * transforms.len());
    for &id in &roots {
        for t in &transforms {
            let (pair, _) = server
                .download_transformed_traced(id, t)
                .map_err(|e| format!("dup warm: {e}"))?;
            root_results.push(pair);
        }
    }

    let mut dups: Vec<(usize, PhotoId)> = Vec::with_capacity(photos.len() * copies);
    for (pi, (b, p)) in photos.iter().enumerate() {
        for q in &DUP_QUALITIES[..copies] {
            let copy = recompress(b, *q)?;
            let id = server
                .upload(copy, p.clone())
                .map_err(|e| format!("dup copy upload: {e}"))?;
            dups.push((pi, id));
        }
    }

    let mut stats = DupStats::default();
    let mut lats: Vec<u32> = Vec::with_capacity(dups.len() * transforms.len());
    for &(pi, id) in &dups {
        for (ti, t) in transforms.iter().enumerate() {
            let start = Instant::now();
            let (pair, served) = server
                .download_transformed_traced(id, t)
                .map_err(|e| format!("dup serve: {e}"))?;
            lats.push(start.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            stats.first_serves += 1;
            match served {
                ServedPath::SigCached => {
                    stats.sig_cached += 1;
                    let root = &root_results[pi * transforms.len() + ti];
                    if pair.0.as_ref() != root.0.as_ref() || pair.1.as_ref() != root.1.as_ref() {
                        return Err(format!(
                            "dedup violation: sig-cached serve of copy {id:?} under {t:?} \
                             is not byte-identical to its family root"
                        ));
                    }
                }
                ServedPath::Cached => stats.cached += 1,
                _ => stats.computed += 1,
            }
        }
    }
    lats.sort_unstable();
    stats.p50_us = pct(&lats, 0.50);
    stats.p95_us = pct(&lats, 0.95);
    stats.p99_us = pct(&lats, 0.99);
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Search-scaling sweep.
// ---------------------------------------------------------------------------

fn synthetic_entry(sig: u64, n: u64) -> SigEntry {
    let mut bytes_sha = [0; 32];
    bytes_sha[..8].copy_from_slice(&n.to_le_bytes());
    let content = ContentId {
        bytes_sha,
        params_sha: [1; 32],
    };
    SigEntry {
        sig,
        id: PhotoId(n),
        content,
        family: content,
        width: 96,
        height: 72,
    }
}

/// Fills a [`SigIndex`] with `size` random signatures, then runs probe
/// queries that each flip ≤ 2 bits of a planted signature — a guaranteed
/// near-duplicate — and reports candidates scanned and time per query.
fn run_search(size: usize, queries: usize, seed: u64) -> SearchPoint {
    let mut rng = Rng::new(seed ^ size as u64);
    let mut index = SigIndex::new();
    let mut planted: Vec<u64> = Vec::with_capacity(size);
    for n in 0..size {
        let sig = rng.next();
        planted.push(sig);
        index.insert(synthetic_entry(sig, n as u64));
    }
    let start = Instant::now();
    let before = index.scanned();
    let mut found = 0usize;
    for _ in 0..queries {
        let base = planted[(rng.next() % size as u64) as usize];
        let flips = rng.next() % 3;
        let mut probe = base;
        for _ in 0..flips {
            probe ^= 1u64 << (rng.next() % 64);
        }
        if !index
            .lookup(probe, puppies_psp::NEAR_DUP_DISTANCE)
            .is_empty()
        {
            found += 1;
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(found, queries, "every planted probe must be found");
    SearchPoint {
        size,
        queries,
        scanned_per_query: (index.scanned() - before) as f64 / queries.max(1) as f64,
        us_per_query: elapsed.as_secs_f64() * 1e6 / queries.max(1) as f64,
    }
}

// ---------------------------------------------------------------------------
// Driver, rendering, JSON, and the CI gate.
// ---------------------------------------------------------------------------

pub fn run(config: DupConfig) -> Result<DedupResults, String> {
    warm_allocator();
    eprintln!(
        "bench psp --dup: {} originals x {} recompressed copies, {} views each; \
         search sweep {:?} x {} queries",
        config.originals,
        config.copies.min(DUP_QUALITIES.len()),
        dup_transforms().len(),
        SEARCH_SIZES,
        config.search_queries,
    );
    let with_sig = run_dup(&config, true)?;
    let baseline = run_dup(&config, false)?;
    let search = SEARCH_SIZES
        .iter()
        .map(|&size| run_search(size, config.search_queries, config.seed))
        .collect();
    Ok(DedupResults {
        config,
        with_sig,
        baseline,
        search,
    })
}

pub fn render(res: &DedupResults) -> Vec<String> {
    let mut out = Vec::new();
    for (name, s) in [("signature on", &res.with_sig), ("baseline", &res.baseline)] {
        out.push(format!(
            "{name:>16}: {}/{} duplicate first serves cached ({} sig-cached, {} exact, \
             {} computed) — hit rate {:.1}%, p50 {:.1} us p99 {:.1} us",
            s.sig_cached + s.cached,
            s.first_serves,
            s.sig_cached,
            s.cached,
            s.computed,
            s.hit_rate() * 100.0,
            s.p50_us,
            s.p99_us,
        ));
    }
    for p in &res.search {
        out.push(format!(
            "{:>16}: {} entries — {:.1} candidates scanned/query, {:.1} us/query",
            "search", p.size, p.scanned_per_query, p.us_per_query,
        ));
    }
    out.push(format!(
        "{:>16}: scanned work grew {:.1}x across a {:.0}x size spread",
        "sublinearity",
        res.scan_growth(),
        res.size_growth(),
    ));
    out
}

pub fn to_json(res: &DedupResults) -> String {
    let dup_json = |s: &DupStats| {
        format!(
            "{{\"first_serves\": {}, \"sig_cached\": {}, \"cached\": {}, \"computed\": {}, \
             \"hit_rate\": {:.4}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}",
            s.first_serves,
            s.sig_cached,
            s.cached,
            s.computed,
            s.hit_rate(),
            s.p50_us,
            s.p95_us,
            s.p99_us
        )
    };
    let c = &res.config;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n");
    out.push_str(&format!(
        "  \"config\": {{\"originals\": {}, \"copies\": {}, \"search_queries\": {}, \"seed\": {}, \"simd_backend\": \"{}\"}},\n",
        c.originals,
        c.copies.min(DUP_QUALITIES.len()),
        c.search_queries,
        c.seed,
        puppies_image::simd::backend().name()
    ));
    out.push_str(&format!(
        "  \"duplicates\": {{\n    \"signature_on\": {},\n    \"baseline_exact_only\": {}\n  }},\n",
        dup_json(&res.with_sig),
        dup_json(&res.baseline)
    ));
    out.push_str("  \"search\": [\n");
    for (i, p) in res.search.iter().enumerate() {
        let sep = if i + 1 == res.search.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"size\": {}, \"queries\": {}, \"scanned_per_query\": {:.2}, \"us_per_query\": {:.2}}}{sep}\n",
            p.size, p.queries, p.scanned_per_query, p.us_per_query
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"scaling\": {{\"size_growth\": {:.1}, \"scan_growth\": {:.2}}}\n}}\n",
        res.size_growth(),
        res.scan_growth()
    ));
    out
}

/// Extracts one `"key": <number>` following `"section"` — same
/// fixed-schema scanning as the other bench parsers; the files are
/// produced by [`to_json`] only.
pub fn parse_field(json: &str, section: &str, key: &str) -> Result<f64, String> {
    let sec_at = json
        .find(&format!("\"{section}\""))
        .ok_or_else(|| format!("section {section:?} not found"))?;
    let rest = &json[sec_at..];
    let needle = format!("\"{key}\": ");
    let val_at = rest
        .find(&needle)
        .ok_or_else(|| format!("{key:?} not found in {section:?}"))?;
    let tail = &rest[val_at + needle.len()..];
    let end = tail
        .find([',', '}', '\n'])
        .ok_or_else(|| format!("unterminated {key:?} value"))?;
    tail[..end]
        .trim()
        .parse()
        .map_err(|e| format!("bad {key} in {section}: {e}"))
}

pub struct DedupLimits {
    /// Floor on the sig-on duplicate first-serve hit rate.
    pub min_dup_hit_rate: f64,
    /// Ceiling on the exact-key-only baseline (must stay ~0: a nonzero
    /// baseline means the workload stopped producing byte-distinct dups).
    pub max_baseline_hit_rate: f64,
    /// Ceiling on scanned-work growth across the 100x index-size spread.
    pub max_scan_growth: f64,
}

impl Default for DedupLimits {
    fn default() -> Self {
        DedupLimits {
            min_dup_hit_rate: 0.9,
            max_baseline_hit_rate: 0.01,
            max_scan_growth: 25.0,
        }
    }
}

/// The CI gate. Every check is machine-independent (rates and growth
/// ratios); the committed file is held to the same hit-rate floor so the
/// artifact can't silently go stale below the claim it documents.
pub fn check(res: &DedupResults, committed: &str, limits: &DedupLimits) -> (Vec<String>, bool) {
    fn gate(
        lines: &mut Vec<String>,
        ok: &mut bool,
        name: &str,
        got: Result<f64, String>,
        bound: f64,
        upper: bool,
    ) {
        match got {
            Ok(got) => {
                let pass = if upper { got <= bound } else { got >= bound };
                *ok &= pass;
                lines.push(format!(
                    "{name:>24}: {got:.3} ({} {bound:.3}) {}",
                    if upper { "ceiling" } else { "floor" },
                    if pass { "ok" } else { "FAILED" }
                ));
            }
            Err(e) => {
                *ok = false;
                lines.push(format!("{name:>24}: {e}"));
            }
        }
    }
    let mut lines = Vec::new();
    let mut ok = true;
    let l = &mut lines;
    let o = &mut ok;
    gate(
        l,
        o,
        "dup hit rate",
        Ok(res.with_sig.hit_rate()),
        limits.min_dup_hit_rate,
        false,
    );
    gate(
        l,
        o,
        "baseline hit rate",
        Ok(res.baseline.hit_rate()),
        limits.max_baseline_hit_rate,
        true,
    );
    gate(
        l,
        o,
        "search scan growth",
        Ok(res.scan_growth()),
        limits.max_scan_growth,
        true,
    );
    gate(
        l,
        o,
        "committed hit rate",
        parse_field(committed, "signature_on", "hit_rate"),
        limits.min_dup_hit_rate,
        false,
    );
    gate(
        l,
        o,
        "committed scan growth",
        parse_field(committed, "scaling", "scan_growth"),
        limits.max_scan_growth,
        true,
    );
    (lines, ok)
}

/// `puppies bench psp --dup [--originals N] [--copies N]
/// [--search-queries N] [--seed N] [--out file] [--check file
/// [--min-dup-hit-rate F] [--max-baseline-hit-rate F]
/// [--max-scan-growth F]]`
pub fn cmd(args: &[String]) -> Result<(), String> {
    let parse_num = |name: &str, default: f64| -> Result<f64, String> {
        match crate::flag_value(args, name) {
            Some(v) => v.parse().map_err(|e| format!("bad {name} {v:?}: {e}")),
            None => Ok(default),
        }
    };
    let config = DupConfig {
        originals: (parse_num("--originals", 12.0)? as usize).max(1),
        copies: (parse_num("--copies", 4.0)? as usize).max(1),
        search_queries: (parse_num("--search-queries", 200.0)? as usize).max(1),
        seed: parse_num("--seed", 0xD0D0_CAFEu32 as f64)? as u64,
    };
    let limits = DedupLimits {
        min_dup_hit_rate: parse_num(
            "--min-dup-hit-rate",
            DedupLimits::default().min_dup_hit_rate,
        )?,
        max_baseline_hit_rate: parse_num(
            "--max-baseline-hit-rate",
            DedupLimits::default().max_baseline_hit_rate,
        )?,
        max_scan_growth: parse_num("--max-scan-growth", DedupLimits::default().max_scan_growth)?,
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
            return Err(format!("psp dedup bench failed the gate against {path}"));
        }
        println!("psp dedup gate passed against {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_results() -> DedupResults {
        DedupResults {
            config: DupConfig {
                originals: 4,
                copies: 2,
                search_queries: 50,
                seed: 1,
            },
            with_sig: DupStats {
                first_serves: 24,
                sig_cached: 23,
                cached: 0,
                computed: 1,
                p50_us: 5.0,
                p95_us: 9.0,
                p99_us: 12.0,
            },
            baseline: DupStats {
                first_serves: 24,
                sig_cached: 0,
                cached: 0,
                computed: 24,
                p50_us: 400.0,
                p95_us: 900.0,
                p99_us: 1200.0,
            },
            search: vec![
                SearchPoint {
                    size: 1_000,
                    queries: 50,
                    scanned_per_query: 1.2,
                    us_per_query: 0.4,
                },
                SearchPoint {
                    size: 100_000,
                    queries: 50,
                    scanned_per_query: 7.5,
                    us_per_query: 1.1,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let res = fake_results();
        let json = to_json(&res);
        let hit = parse_field(&json, "signature_on", "hit_rate").unwrap();
        assert!((hit - res.with_sig.hit_rate()).abs() < 1e-3);
        let growth = parse_field(&json, "scaling", "scan_growth").unwrap();
        assert!((growth - res.scan_growth()).abs() < 0.02);
        assert_eq!(
            parse_field(&json, "baseline_exact_only", "first_serves").unwrap(),
            24.0
        );
    }

    #[test]
    fn check_gates_on_hit_rate_and_scan_growth() {
        let res = fake_results();
        let committed = to_json(&res);
        let (lines, ok) = check(&res, &committed, &DedupLimits::default());
        assert!(ok, "healthy results must pass their own file: {lines:?}");
        // A dedup collapse trips the floor.
        let mut cold = fake_results();
        cold.with_sig.sig_cached = 2;
        cold.with_sig.computed = 22;
        let (lines, ok) = check(&cold, &committed, &DedupLimits::default());
        assert!(!ok, "8% dup hit rate must fail the 90% floor: {lines:?}");
        // A linear-scan index trips the growth ceiling.
        let mut linear = fake_results();
        linear.search[1].scanned_per_query = 99_000.0;
        let (lines, ok) = check(&linear, &committed, &DedupLimits::default());
        assert!(!ok, "linear scan growth must fail the ceiling: {lines:?}");
        // A leaky baseline (dups no longer byte-distinct) trips too.
        let mut leaky = fake_results();
        leaky.baseline.cached = 24;
        leaky.baseline.computed = 0;
        let (lines, ok) = check(&leaky, &committed, &DedupLimits::default());
        assert!(!ok, "nonzero baseline must fail the ceiling: {lines:?}");
    }

    #[test]
    fn search_sweep_is_sublinear_and_finds_planted_probes() {
        let a = run_search(500, 40, 7);
        let b = run_search(5_000, 40, 7);
        assert_eq!(a.queries, 40);
        // 10x the entries must cost far less than 10x the scanned work.
        assert!(
            b.scanned_per_query < a.scanned_per_query * 5.0,
            "scanned/query grew {:.1} -> {:.1} over a 10x size spread",
            a.scanned_per_query,
            b.scanned_per_query
        );
    }

    #[test]
    fn dup_scenario_hits_with_signature_and_misses_without() {
        let config = DupConfig {
            originals: 2,
            copies: 2,
            search_queries: 10,
            seed: 3,
        };
        let on = run_dup(&config, true).unwrap();
        assert_eq!(on.first_serves, 12);
        assert!(
            on.hit_rate() >= 0.9,
            "sig-on dup hit rate {:.2} below 0.9 ({} sig, {} exact, {} computed)",
            on.hit_rate(),
            on.sig_cached,
            on.cached,
            on.computed
        );
        let off = run_dup(&config, false).unwrap();
        assert_eq!(off.hit_rate(), 0.0, "baseline must never hit");
    }
}

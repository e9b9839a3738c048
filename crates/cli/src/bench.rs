//! `puppies bench` — the codec throughput runner behind
//! `results/BENCH_codec.json`.
//!
//! Measures the four hot paths every shared photo pays at least once
//! (owner protect, receiver recover, plus the raw encode/decode they are
//! built on) on a deterministic fixture, on the calling thread so
//! numbers are comparable across machines and PRs. Results are written as
//! machine-readable JSON; `--check` compares a fresh run against a
//! committed file with a generous regression threshold (CI's perf gate),
//! and `--pre` embeds an earlier run as the pre-PR baseline with computed
//! speedups, which is how before/after numbers land in one committed file.

use std::fmt::Write as _;
use std::time::Instant;

use puppies_core::{protect, recover, OwnerKey, PrivacyLevel, ProtectOptions, Scheme};
use puppies_datasets::{generate_one, DatasetProfile};
use puppies_image::{Rect, RgbImage};
use puppies_jpeg::{CoeffImage, EncodeOptions};

/// One measured operation: best-of-N wall time plus derived throughput.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Best (minimum) wall time over the measured iterations, in ms.
    pub ms: f64,
    /// 8×8 blocks processed per second (all components).
    pub blocks_per_s: f64,
    /// Megabytes of raw RGB pixels processed per second.
    pub mb_per_s: f64,
}

/// The full measurement set for one fixture.
#[derive(Debug, Clone)]
pub struct BenchResults {
    /// Fixture geometry: (width, height, total blocks across components).
    pub fixture: (u32, u32, u64),
    /// JPEG quality used throughout.
    pub quality: u8,
    /// Measured operations in report order.
    pub ops: Vec<(&'static str, OpResult)>,
}

const OPS: [&str; 4] = ["encode", "decode", "protect", "recover"];

fn time_best<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&out);
        best = best.min(dt);
    }
    best
}

/// Runs the measurement suite. `iters` is the per-op iteration count; the
/// best (minimum) time is reported, which is far more stable than the mean
/// on shared CI runners.
pub fn run(iters: usize, quality: u8) -> Result<BenchResults, String> {
    // Allocator warmup: allocate-and-free one large block before timing.
    // glibc serves multi-hundred-KB Vecs (planes, block tables) straight
    // from mmap and returns them on free, so every timed iteration would
    // otherwise pay mmap + page-fault costs; freeing an mmapped chunk
    // raises malloc's dynamic mmap threshold, after which those Vecs
    // recycle heap pages. Touch every page so the pages really exist.
    {
        let mut warm = vec![0u8; 16 << 20];
        for page in warm.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&warm);
    }

    let img = fixture_image();
    let (w, h) = (img.width(), img.height());
    let pixel_mb = (w as f64 * h as f64 * 3.0) / 1e6;

    let coeff = CoeffImage::from_rgb(&img, quality);
    let blocks: u64 = coeff
        .components()
        .iter()
        .map(|c| c.blocks_w() as u64 * c.blocks_h() as u64)
        .sum();
    let opts = EncodeOptions::default();
    let bytes = coeff.encode(&opts).map_err(|e| e.to_string())?;

    // Full-image encode: RGB pixels -> quantized coefficients -> JFIF
    // bytes (FDCT + quantization + entropy coding).
    let encode_ms = time_best(iters, || {
        CoeffImage::from_rgb(&img, quality)
            .encode(&opts)
            .expect("bench encode")
    });
    // Full-image decode: JFIF bytes -> coefficients -> RGB pixels
    // (entropy decode + dequantization + IDCT).
    let decode_ms = time_best(iters, || {
        CoeffImage::decode(&bytes).expect("bench decode").to_rgb()
    });

    // Protect/recover on two face-sized ROIs, the owner/receiver cost
    // per shared photo.
    let key = OwnerKey::from_seed([0x5E; 32]);
    let rois = [Rect::new(48, 32, 96, 96), Rect::new(256, 128, 96, 96)];
    let popts = ProtectOptions::new(Scheme::Zero, PrivacyLevel::Medium).with_quality(quality);
    let protected = protect(&img, &rois, &key, &popts).map_err(|e| e.to_string())?;
    let protect_ms = time_best(iters, || {
        protect(&img, &rois, &key, &popts).expect("bench protect")
    });
    let grant = key.grant_all();
    let recover_ms = time_best(iters, || {
        recover(&protected, &grant).expect("bench recover")
    });

    let op = |ms: f64| OpResult {
        ms,
        blocks_per_s: blocks as f64 / (ms / 1e3),
        mb_per_s: pixel_mb / (ms / 1e3),
    };
    Ok(BenchResults {
        fixture: (w, h, blocks),
        quality,
        ops: vec![
            ("encode", op(encode_ms)),
            ("decode", op(decode_ms)),
            ("protect", op(protect_ms)),
            ("recover", op(recover_ms)),
        ],
    })
}

/// The deterministic PASCAL-profile fixture.
fn fixture_image() -> RgbImage {
    generate_one(DatasetProfile::pascal().with_count(1), 0xBE7C, 0).image
}

/// Runs the same measurement suite with an observability subscriber
/// installed: every span the pipeline emits feeds a histogram, giving the
/// per-stage breakdown (`jpeg.fdct_quant`, `jpeg.entropy_encode`, ...) and
/// a second set of op timings whose gap to the plain run *is* the
/// instrumentation overhead.
pub fn run_instrumented(
    iters: usize,
    quality: u8,
) -> Result<(BenchResults, std::sync::Arc<puppies_obs::Obs>), String> {
    let session = puppies_obs::Obs::install();
    let res = run(iters, quality);
    let obs = session
        .finish()
        .ok_or("another observability session replaced the bench subscriber")?;
    Ok((res?, obs))
}

/// Instrumentation overhead in percent: how much slower the summed
/// best-of op times are with a subscriber installed.
pub fn overhead_pct(plain: &BenchResults, instrumented: &BenchResults) -> f64 {
    let sum = |r: &BenchResults| r.ops.iter().map(|&(_, op)| op.ms).sum::<f64>();
    (sum(instrumented) / sum(plain) - 1.0) * 100.0
}

fn write_op(json: &mut String, indent: &str, name: &str, r: OpResult) {
    let _ = write!(
        json,
        "{indent}\"{name}\": {{\"ms\": {:.3}, \"blocks_per_s\": {:.0}, \"mb_per_s\": {:.3}}}",
        r.ms, r.blocks_per_s, r.mb_per_s
    );
}

/// Renders results (optionally with a pre-PR baseline section, the
/// speedups against it, an instrumented stage-level breakdown, and the
/// measured instrumentation overhead) as the committed JSON document.
///
/// Section order matters: `current` and `baseline_pre_pr` are emitted
/// before `stages`, because [`parse_section`] scans forward from the
/// section key for the op names and must not land in the stage names.
pub fn to_json(
    res: &BenchResults,
    pre: Option<&[(String, OpResult)]>,
    stages: Option<&puppies_obs::MetricsSnapshot>,
    overhead_pct: Option<f64>,
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"schema\": 1,\n  \"fixture\": {{\"width\": {}, \"height\": {}, \"blocks\": {}, \"quality\": {}, \"simd_backend\": \"{}\", \"f32_lanes\": {}}},",
        res.fixture.0,
        res.fixture.1,
        res.fixture.2,
        res.quality,
        puppies_image::simd::backend().name(),
        puppies_image::simd::backend().f32_lanes()
    );
    json.push_str("  \"current\": {\n");
    for (i, &(name, r)) in res.ops.iter().enumerate() {
        write_op(&mut json, "    ", name, r);
        json.push_str(if i + 1 < res.ops.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }");
    if let Some(pre) = pre {
        json.push_str(",\n  \"baseline_pre_pr\": {\n");
        for (i, (name, r)) in pre.iter().enumerate() {
            write_op(&mut json, "    ", name, *r);
            json.push_str(if i + 1 < pre.len() { ",\n" } else { "\n" });
        }
        json.push_str("  },\n  \"speedup_vs_pre_pr\": {");
        let mut first = true;
        let mut encdec_new = 0.0f64;
        let mut encdec_old = 0.0f64;
        for (name, old) in pre {
            if let Some(&(_, new)) = res.ops.iter().find(|(n, _)| n == name) {
                if !first {
                    json.push_str(", ");
                }
                first = false;
                let _ = write!(json, "\"{name}\": {:.2}", old.ms / new.ms);
                if name == "encode" || name == "decode" {
                    encdec_new += new.ms;
                    encdec_old += old.ms;
                }
            }
        }
        if encdec_new > 0.0 {
            let _ = write!(
                json,
                ", \"encode_plus_decode\": {:.2}",
                encdec_old / encdec_new
            );
        }
        json.push('}');
    }
    if let Some(snap) = stages {
        json.push_str(",\n  \"stages\": {\n");
        let ms = |ns: f64| ns / 1e6;
        for (i, (name, h)) in snap.histograms.iter().enumerate() {
            let _ = write!(
                json,
                "    \"{}\": {{\"count\": {}, \"total_ms\": {:.3}, \"min_ms\": {:.3}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                puppies_obs::escape_json(name),
                h.count,
                ms(h.sum as f64),
                ms(h.min as f64),
                ms(h.p50),
                ms(h.p95),
                ms(h.p99),
            );
            json.push_str(if i + 1 < snap.histograms.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        json.push_str("  }");
    }
    if let Some(pct) = overhead_pct {
        let _ = write!(json, ",\n  \"obs_overhead_pct\": {pct:.2}");
    }
    json.push_str("\n}\n");
    json
}

/// Pulls `"<op>": {"ms": X, ...}` values out of a JSON document produced
/// by [`to_json`] (section = `current` or `baseline_pre_pr`). A tiny
/// fixed-schema scanner, not a general JSON parser — the workspace has no
/// serde and the file format is ours.
pub fn parse_section(json: &str, section: &str) -> Result<Vec<(String, OpResult)>, String> {
    let start = json
        .find(&format!("\"{section}\""))
        .ok_or_else(|| format!("no \"{section}\" section in JSON"))?;
    let body = &json[start..];
    let mut out = Vec::new();
    for name in OPS {
        let key = format!("\"{name}\"");
        let at = body
            .find(&key)
            .ok_or_else(|| format!("no \"{name}\" entry in \"{section}\""))?;
        let obj = &body[at..];
        let field = |f: &str| -> Result<f64, String> {
            let fk = format!("\"{f}\":");
            let p = obj.find(&fk).ok_or_else(|| format!("no {f} for {name}"))?;
            let rest = obj[p + fk.len()..].trim_start();
            let end = rest
                .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end]
                .parse::<f64>()
                .map_err(|e| format!("bad {f} for {name}: {e}"))
        };
        out.push((
            name.to_string(),
            OpResult {
                ms: field("ms")?,
                blocks_per_s: field("blocks_per_s")?,
                mb_per_s: field("mb_per_s")?,
            },
        ));
    }
    Ok(out)
}

/// Compares a fresh run against committed numbers: any op whose throughput
/// fell below `(1 - threshold)` of the committed value is a regression.
/// Returns human-readable lines plus pass/fail.
pub fn check(
    res: &BenchResults,
    committed: &[(String, OpResult)],
    threshold: f64,
) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    for (name, old) in committed {
        let Some(&(_, new)) = res.ops.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let ratio = new.blocks_per_s / old.blocks_per_s;
        let verdict = if ratio < 1.0 - threshold {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        lines.push(format!(
            "{name:>8}: {:>10.0} blocks/s vs committed {:>10.0} ({:+.1}%) {verdict}",
            new.blocks_per_s,
            old.blocks_per_s,
            (ratio - 1.0) * 100.0
        ));
    }
    (lines, ok)
}

/// The explicit-SIMD protect floor (`--min-protect-speedup`): the
/// committed results file must itself record a protect speedup of at
/// least `floor` over its embedded `baseline_pre_pr` section. Both
/// numbers come from one machine and one run (written by `--pre`), so
/// the ratio is machine-independent — the fresh-run band in [`check`]
/// is what keeps the committed `current` numbers honest.
///
/// # Errors
/// Fails if the committed file lacks either section or a `protect` entry.
pub fn check_protect_floor(committed_json: &str, floor: f64) -> Result<(String, bool), String> {
    let get = |section: &str| -> Result<OpResult, String> {
        parse_section(committed_json, section)?
            .into_iter()
            .find(|(n, _)| n == "protect")
            .map(|(_, r)| r)
            .ok_or_else(|| format!("no protect entry in \"{section}\""))
    };
    let current = get("current")?;
    let pre = get("baseline_pre_pr")?;
    let speedup = pre.ms / current.ms;
    let pass = speedup >= floor;
    let line = format!(
        "protect speedup in committed file: {speedup:.2}x ({:.3} ms -> {:.3} ms, floor {floor:.2}x) {}",
        pre.ms,
        current.ms,
        if pass { "ok" } else { "BELOW FLOOR" }
    );
    Ok((line, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_results() -> BenchResults {
        let op = |ms: f64| OpResult {
            ms,
            blocks_per_s: 1000.0 / ms,
            mb_per_s: 1.0 / ms,
        };
        BenchResults {
            fixture: (500, 330, 7938),
            quality: 75,
            ops: vec![
                ("encode", op(10.0)),
                ("decode", op(5.0)),
                ("protect", op(20.0)),
                ("recover", op(15.0)),
            ],
        }
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let res = fake_results();
        let json = to_json(&res, None, None, None);
        let parsed = parse_section(&json, "current").unwrap();
        assert_eq!(parsed.len(), 4);
        for ((name, got), (want_name, want)) in parsed.iter().zip(res.ops.iter()) {
            assert_eq!(name, want_name);
            assert!((got.ms - want.ms).abs() < 1e-3);
            assert!((got.blocks_per_s - want.blocks_per_s).abs() < 1.0);
        }
    }

    #[test]
    fn baseline_section_and_speedups_emitted() {
        let res = fake_results();
        let pre: Vec<(String, OpResult)> = res
            .ops
            .iter()
            .map(|&(n, r)| {
                (
                    n.to_string(),
                    OpResult {
                        ms: r.ms * 4.0,
                        blocks_per_s: r.blocks_per_s / 4.0,
                        mb_per_s: r.mb_per_s / 4.0,
                    },
                )
            })
            .collect();
        let json = to_json(&res, Some(&pre), None, None);
        assert!(json.contains("\"baseline_pre_pr\""));
        assert!(json.contains("\"encode_plus_decode\": 4.00"));
        let parsed = parse_section(&json, "baseline_pre_pr").unwrap();
        assert!((parsed[0].1.ms - res.ops[0].1.ms * 4.0).abs() < 1e-3);
    }

    #[test]
    fn stage_breakdown_emitted_after_op_sections() {
        let res = fake_results();
        let pre: Vec<(String, OpResult)> =
            res.ops.iter().map(|&(n, r)| (n.to_string(), r)).collect();
        let snap = puppies_obs::MetricsSnapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![(
                "jpeg.encode".into(),
                puppies_obs::HistStats {
                    count: 5,
                    sum: 10_000_000,
                    min: 1_500_000,
                    max: 2_500_000,
                    p50: 2_000_000.0,
                    p95: 2_400_000.0,
                    p99: 2_500_000.0,
                },
            )],
        };
        let json = to_json(&res, Some(&pre), Some(&snap), Some(1.25));
        assert!(json.contains("\"stages\""));
        assert!(json.contains("\"obs_overhead_pct\": 1.25"));
        // The stage entry's name collides with the op name; the scanner
        // must still pull op timings out of the op sections, which come
        // first in the document.
        let cur = parse_section(&json, "current").unwrap();
        assert!((cur[0].1.ms - res.ops[0].1.ms).abs() < 1e-3);
        let base = parse_section(&json, "baseline_pre_pr").unwrap();
        assert!((base[0].1.ms - res.ops[0].1.ms).abs() < 1e-3);
        assert!(json.contains("\"total_ms\": 10.000"));
        assert!(json.contains("\"p50_ms\": 2.000"));
    }

    #[test]
    fn check_flags_regressions_beyond_threshold() {
        let res = fake_results();
        let committed: Vec<(String, OpResult)> =
            res.ops.iter().map(|&(n, r)| (n.to_string(), r)).collect();
        let (_, ok) = check(&res, &committed, 0.4);
        assert!(ok, "identical numbers must pass");
        let inflated: Vec<(String, OpResult)> = res
            .ops
            .iter()
            .map(|&(n, r)| {
                (
                    n.to_string(),
                    OpResult {
                        ms: r.ms / 2.0,
                        blocks_per_s: r.blocks_per_s * 2.0,
                        mb_per_s: r.mb_per_s * 2.0,
                    },
                )
            })
            .collect();
        let (_, ok) = check(&res, &inflated, 0.4);
        assert!(!ok, "a 2x slowdown must fail the 40% gate");
    }

    #[test]
    fn protect_floor_reads_the_committed_speedup() {
        let res = fake_results();
        // Embed a 2.5x-slower baseline: the 2x floor passes, 3x fails.
        let pre: Vec<(String, OpResult)> = res
            .ops
            .iter()
            .map(|&(n, r)| {
                (
                    n.to_string(),
                    OpResult {
                        ms: r.ms * 2.5,
                        blocks_per_s: r.blocks_per_s / 2.5,
                        mb_per_s: r.mb_per_s / 2.5,
                    },
                )
            })
            .collect();
        let json = to_json(&res, Some(&pre), None, None);
        let (_, ok) = check_protect_floor(&json, 2.0).unwrap();
        assert!(ok, "2.5x committed speedup must clear the 2x floor");
        let (line, ok) = check_protect_floor(&json, 3.0).unwrap();
        assert!(!ok, "2.5x committed speedup must fail a 3x floor: {line}");
        // A file without a baseline section is an error, not a pass.
        let bare = to_json(&res, None, None, None);
        assert!(check_protect_floor(&bare, 2.0).is_err());
    }
}

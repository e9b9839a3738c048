//! `puppies` — command-line front end for the PuPPIeS pipeline.
//!
//! ```text
//! puppies keygen <key-file>
//! puppies detect <in.ppm>
//! puppies protect <in.ppm> <out.jpg> --key <key-file> --params <out.pup>
//!         [--roi x,y,w,h]... [--auto] [--scheme n|b|c|z] [--level low|medium|high]
//!         [--quality 1..100] [--image-id N] [--transform-friendly]
//! puppies protect-batch <in.ppm>... --key <key-file> --out-dir <dir>
//!         [--threads N] [protect flags; --image-id is the id of the first
//!         image, subsequent images increment it]
//! puppies grant --key <key-file> --image-id N --out <grant-file> [--roi i]...
//! puppies recover <in.jpg> <out.ppm> --params <in.pup> (--key <key-file> | --grant <grant-file>)
//! puppies inspect --params <in.pup>
//! puppies stats <stats.json>
//! puppies serve --dir <store-dir> [--addr host:port] [--no-fsync]
//! puppies net smoke|flood|verify|ready|dup --addr <host:port> [...]
//! puppies search <probe.jpg> --addr <host:port> [--params <in.pup>]
//! puppies top --addr <host:port> [--samples N] [--interval-ms M] [--plain]
//!         [--assert-monotonic] [--assert-nonzero <series>]...
//! puppies wal-dump --dir <store-dir>
//! puppies cluster demo [--shape n,k] [--uploads N] [--kill i]... [--corrupt i]...
//! ```
//!
//! Images are read/written as binary PPM (P6); the protected image is a
//! baseline JPEG any viewer can open (showing the perturbed regions).
//!
//! `protect`, `protect-batch`, `recover`, `conformance`, and `bench` all
//! accept `--trace <file>` (write a Chrome `trace_event` file loadable in
//! Perfetto / `about:tracing`) and `--stats <file>` (write a JSON metrics
//! snapshot that `puppies stats` pretty-prints).
//!
//! `bench` measures the codec hot path; `bench psp` runs the closed-loop
//! PSP serving benchmark (sharded store + transform cache vs an embedded
//! replica of the pre-cache server) — see [`bench_psp`]. `bench psp
//! --cluster` benches the k-of-n Shamir-shared cluster instead — see
//! [`bench_cluster`].

use puppies_core::{
    protect, KeyGrant, OwnerKey, PerturbProfile, PrivacyLevel, ProtectOptions, PublicParams, Scheme,
};
use puppies_image::{io as img_io, Rect};
use puppies_psp::channel::{decode_grant, encode_grant};
use std::process::exit;

mod bench;
mod bench_cluster;
mod bench_net;
mod bench_psp;
mod cluster;
mod serve;
mod top;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("keygen") => cmd_keygen(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("protect") => cmd_protect(&args[1..]),
        Some("protect-batch") => cmd_protect_batch(&args[1..]),
        Some("grant") => cmd_grant(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("conformance") => cmd_conformance(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("cluster") => cluster::cmd(&args[1..]),
        Some("serve") => serve::cmd_serve(&args[1..]),
        Some("net") => serve::cmd_net(&args[1..]),
        Some("search") => serve::cmd_search(&args[1..]),
        Some("top") => top::cmd(&args[1..]),
        Some("wal-dump") => serve::cmd_wal_dump(&args[1..]),
        Some("help") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `puppies help`")),
    };
    if let Err(e) = code {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage() {
    eprintln!(
        "puppies — privacy-preserving partial image sharing\n\
         commands: keygen, detect, protect, protect-batch, grant, recover, inspect, stats, conformance, bench,\n\
         \x20         serve, net (smoke|flood|verify|ready|dup), search, top, wal-dump, cluster (demo)\n\
         (see the crate docs or README for full flag reference)"
    );
}

type CliResult = Result<(), String>;

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].as_str())
        .collect()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn positionals(args: &[String]) -> Vec<&str> {
    // Positional = arguments not consumed as flags or flag values.
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            // Boolean flags take no value.
            let boolean = matches!(a.as_str(), "--auto" | "--transform-friendly" | "--bless");
            if !boolean && i + 1 < args.len() {
                skip = true;
            }
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn positional(args: &[String], idx: usize) -> Result<&str, String> {
    positionals(args)
        .get(idx)
        .copied()
        .ok_or_else(|| format!("missing positional argument #{}", idx + 1))
}

/// An observability session requested on the command line: `--trace <file>`
/// collects a Chrome `trace_event` timeline, `--stats <file>` a JSON
/// metrics snapshot. Absent both flags this is `None` and the pipeline's
/// instrumentation stays a no-op.
struct ObsOutput {
    session: puppies_obs::ObsSession,
    trace: Option<String>,
    stats: Option<String>,
}

fn obs_from_args(args: &[String]) -> Option<ObsOutput> {
    let trace = flag_value(args, "--trace").map(str::to_string);
    let stats = flag_value(args, "--stats").map(str::to_string);
    (trace.is_some() || stats.is_some()).then(|| ObsOutput {
        session: puppies_obs::Obs::install(),
        trace,
        stats,
    })
}

impl ObsOutput {
    /// Uninstalls the subscriber and writes the requested files.
    fn finish(self) -> CliResult {
        let Some(obs) = self.session.finish() else {
            return Ok(());
        };
        if let Some(path) = &self.trace {
            std::fs::write(path, obs.chrome_trace()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("trace ({} span(s)) written to {path}", obs.span_count());
        }
        if let Some(path) = &self.stats {
            std::fs::write(path, obs.stats_json()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("stats written to {path} — view with `puppies stats {path}`");
        }
        Ok(())
    }
}

fn load_key(path: &str) -> Result<OwnerKey, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading key {path}: {e}"))?;
    let seed: [u8; 32] = bytes
        .try_into()
        .map_err(|_| format!("key file {path} must be exactly 32 bytes"))?;
    Ok(OwnerKey::from_seed(seed))
}

fn cmd_keygen(args: &[String]) -> CliResult {
    let path = positional(args, 0)?;
    let mut seed = [0u8; 32];
    // getrandom via rand's thread_rng (OS entropy).
    use rand::RngCore;
    rand::thread_rng().fill_bytes(&mut seed);
    std::fs::write(path, seed).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote 32-byte owner key to {path} — keep it private");
    Ok(())
}

fn cmd_detect(args: &[String]) -> CliResult {
    let path = positional(args, 0)?;
    let img = img_io::load_ppm(path).map_err(|e| format!("loading {path}: {e}"))?;
    let rec = puppies_vision::detect::recommend_rois(
        &img,
        &puppies_vision::detect::RecommendParams::default(),
    );
    println!("{} raw detection(s):", rec.detections.len());
    for d in &rec.detections {
        println!("  {:?} {:?}", d.kind, d.rect);
    }
    println!("{} disjoint recommended region(s):", rec.regions.len());
    for r in &rec.regions {
        println!("  --roi {},{},{},{}", r.x, r.y, r.w, r.h);
    }
    Ok(())
}

fn parse_roi(spec: &str) -> Result<Rect, String> {
    let parts: Vec<u32> = spec
        .split(',')
        .map(|p| p.trim().parse::<u32>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad --roi {spec:?}: {e}"))?;
    if parts.len() != 4 {
        return Err(format!("--roi must be x,y,w,h, got {spec:?}"));
    }
    Ok(Rect::new(parts[0], parts[1], parts[2], parts[3]))
}

/// Parses the protection flags shared by `protect` and `protect-batch`:
/// `--scheme`, `--level`, `--transform-friendly`, `--quality`, `--image-id`.
fn parse_protect_opts(args: &[String]) -> Result<ProtectOptions, String> {
    let scheme = match flag_value(args, "--scheme").unwrap_or("z") {
        "n" => Scheme::Naive,
        "b" => Scheme::Base,
        "c" => Scheme::Compression,
        "z" => Scheme::Zero,
        other => return Err(format!("unknown scheme {other:?} (n|b|c|z)")),
    };
    let level = match flag_value(args, "--level").unwrap_or("medium") {
        "low" => PrivacyLevel::Low,
        "medium" => PrivacyLevel::Medium,
        "high" => PrivacyLevel::High,
        other => return Err(format!("unknown level {other:?} (low|medium|high)")),
    };
    let mut opts = if has_flag(args, "--transform-friendly") {
        ProtectOptions::from_profile(PerturbProfile::transform_friendly())
    } else {
        ProtectOptions::new(scheme, level)
    };
    if let Some(q) = flag_value(args, "--quality") {
        opts = opts.with_quality(q.parse().map_err(|e| format!("bad --quality: {e}"))?);
    }
    if let Some(id) = flag_value(args, "--image-id") {
        opts = opts.with_image_id(id.parse().map_err(|e| format!("bad --image-id: {e}"))?);
    }
    Ok(opts)
}

/// Regions for one image: explicit `--roi` rects plus `--auto` detections.
fn gather_rois(args: &[String], img: &puppies_image::RgbImage) -> Result<Vec<Rect>, String> {
    let mut rois: Vec<Rect> = flag_values(args, "--roi")
        .into_iter()
        .map(parse_roi)
        .collect::<Result<_, _>>()?;
    if has_flag(args, "--auto") {
        let rec = puppies_vision::detect::recommend_rois(
            img,
            &puppies_vision::detect::RecommendParams::default(),
        );
        rois.extend(rec.regions);
    }
    if rois.is_empty() {
        return Err("no regions: pass --roi x,y,w,h and/or --auto".into());
    }
    Ok(rois)
}

fn cmd_protect(args: &[String]) -> CliResult {
    let input = positional(args, 0)?;
    let output = positional(args, 1)?;
    let key = load_key(flag_value(args, "--key").ok_or("missing --key")?)?;
    let params_path = flag_value(args, "--params").ok_or("missing --params")?;

    let img = img_io::load_ppm(input).map_err(|e| format!("loading {input}: {e}"))?;
    let rois = gather_rois(args, &img)?;
    let opts = parse_protect_opts(args)?;

    let obs = obs_from_args(args);
    let protected = protect(&img, &rois, &key, &opts).map_err(|e| e.to_string())?;
    if let Some(o) = obs {
        o.finish()?;
    }
    std::fs::write(output, &protected.bytes).map_err(|e| format!("writing {output}: {e}"))?;
    std::fs::write(params_path, protected.params.to_bytes())
        .map_err(|e| format!("writing {params_path}: {e}"))?;
    println!(
        "protected {} region(s); image {} bytes -> {output}, params {} bytes -> {params_path}",
        protected.params.rois.len(),
        protected.bytes.len(),
        protected.params.encoded_len()
    );
    Ok(())
}

/// Protects many images with one key on a shared worker pool. Each image
/// gets a distinct id (`--image-id` plus its position) so its ROIs can be
/// granted independently; outputs land in `--out-dir` as `<stem>.jpg` +
/// `<stem>.pup`.
fn cmd_protect_batch(args: &[String]) -> CliResult {
    let inputs = positionals(args);
    if inputs.is_empty() {
        return Err("no input images: pass one or more <in.ppm>".into());
    }
    let key = load_key(flag_value(args, "--key").ok_or("missing --key")?)?;
    let out_dir = flag_value(args, "--out-dir").ok_or("missing --out-dir")?;
    let opts = parse_protect_opts(args)?;
    let pool = match flag_value(args, "--threads") {
        Some(n) => puppies_core::parallel::WorkerPool::new(
            n.parse().map_err(|e| format!("bad --threads: {e}"))?,
        ),
        None => puppies_core::parallel::WorkerPool::global().clone(),
    };
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;

    let obs = obs_from_args(args);
    let results = pool.map_indexed(inputs.len(), |i| -> Result<String, String> {
        let input = inputs[i];
        let stem = std::path::Path::new(input)
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("cannot derive a file stem from {input:?}"))?;
        let img = img_io::load_ppm(input).map_err(|e| format!("loading {input}: {e}"))?;
        let rois = gather_rois(args, &img)?;
        let opts = opts.clone().with_image_id(opts.image_id + i as u64);
        let protected = protect(&img, &rois, &key, &opts).map_err(|e| e.to_string())?;
        let jpg = format!("{out_dir}/{stem}.jpg");
        let pup = format!("{out_dir}/{stem}.pup");
        std::fs::write(&jpg, &protected.bytes).map_err(|e| format!("writing {jpg}: {e}"))?;
        std::fs::write(&pup, protected.params.to_bytes())
            .map_err(|e| format!("writing {pup}: {e}"))?;
        Ok(format!(
            "{input} -> {jpg} ({} bytes, {} region(s), id {})",
            protected.bytes.len(),
            protected.params.rois.len(),
            opts.image_id
        ))
    });
    if let Some(o) = obs {
        o.finish()?;
    }
    let mut failed = 0usize;
    for r in results {
        match r {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("error: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} of {} image(s) failed", inputs.len()));
    }
    println!(
        "protected {} image(s) on {} worker thread(s)",
        inputs.len(),
        pool.threads()
    );
    Ok(())
}

fn cmd_grant(args: &[String]) -> CliResult {
    let key = load_key(flag_value(args, "--key").ok_or("missing --key")?)?;
    let image_id: u64 = flag_value(args, "--image-id")
        .ok_or("missing --image-id")?
        .parse()
        .map_err(|e| format!("bad --image-id: {e}"))?;
    let out = flag_value(args, "--out").ok_or("missing --out")?;
    let rois: Vec<u16> = {
        let specified = flag_values(args, "--roi");
        if specified.is_empty() {
            (0..16).collect() // grant generously by default
        } else {
            specified
                .into_iter()
                .map(|s| {
                    s.parse::<u16>()
                        .map_err(|e| format!("bad --roi index: {e}"))
                })
                .collect::<Result<_, _>>()?
        }
    };
    let grant = key.grant_rois(image_id, &rois);
    std::fs::write(out, encode_grant(&grant)).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "granted {} matrix(es) for image {image_id} rois {rois:?} -> {out}",
        grant.explicit_matrix_count()
    );
    Ok(())
}

fn cmd_recover(args: &[String]) -> CliResult {
    let input = positional(args, 0)?;
    let output = positional(args, 1)?;
    let params_path = flag_value(args, "--params").ok_or("missing --params")?;
    let grant: KeyGrant = if let Some(kp) = flag_value(args, "--key") {
        load_key(kp)?.grant_all()
    } else if let Some(gp) = flag_value(args, "--grant") {
        let bytes = std::fs::read(gp).map_err(|e| format!("reading {gp}: {e}"))?;
        decode_grant(&bytes).map_err(|e| e.to_string())?
    } else {
        return Err("pass --key (owner) or --grant (receiver)".into());
    };
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let params_bytes =
        std::fs::read(params_path).map_err(|e| format!("reading {params_path}: {e}"))?;
    let params = PublicParams::from_bytes(&params_bytes).map_err(|e| e.to_string())?;
    let obs = obs_from_args(args);
    let recovered = puppies_core::shadow::recover_transformed(&bytes, &params, &grant)
        .map_err(|e| e.to_string())?;
    if let Some(o) = obs {
        o.finish()?;
    }
    img_io::save_ppm(&recovered, output).map_err(|e| format!("writing {output}: {e}"))?;
    println!("recovered image written to {output}");
    Ok(())
}

/// `puppies stats <stats.json>` — pretty-prints a metrics snapshot written
/// by `--stats`, with per-stage p50/p95/p99 latencies in ms.
fn cmd_stats(args: &[String]) -> CliResult {
    let path = positional(args, 0)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let snap = puppies_obs::parse_stats_json(&text)?;
    print!("{}", puppies_obs::render_stats(&snap));
    Ok(())
}

fn cmd_inspect(args: &[String]) -> CliResult {
    let params_path = flag_value(args, "--params").ok_or("missing --params")?;
    let bytes = std::fs::read(params_path).map_err(|e| format!("reading {params_path}: {e}"))?;
    let params = PublicParams::from_bytes(&bytes).map_err(|e| e.to_string())?;
    println!(
        "image id {} | {}x{} @ q{} | transformation: {:?}",
        params.image_id, params.width, params.height, params.quality, params.transformation
    );
    for roi in &params.rois {
        let (m_r, k) = roi.profile.range.parameters();
        println!(
            "  roi {} {:?} scheme {} mR {} K {} dcRange {} zind {} wind {}",
            roi.index,
            roi.rect,
            roi.profile.scheme.name(),
            m_r,
            k,
            roi.profile.dc_range,
            roi.zind.len(),
            roi.wind.len()
        );
    }
    Ok(())
}

/// `puppies bench [--out f.json] [--check committed.json] [--pre old.json]
/// [--pre-section current] [--threshold 0.4] [--min-protect-speedup F]
/// [--iters N] [--quality Q] [--obs-overhead-gate PCT]
/// [--trace f.json] [--stats f.json]`
///
/// Measures codec + protect/recover throughput on the deterministic
/// fixture, then repeats the run with an observability subscriber
/// installed to collect the per-stage breakdown (written to the JSON
/// `stages` section) and the instrumentation overhead.
/// `--check` is CI's perf gate against the committed
/// `results/BENCH_codec.json`; `--pre` embeds an earlier run's
/// `--pre-section` (default `current`) as the pre-PR baseline with
/// computed speedups; `--obs-overhead-gate` fails the run if the summed
/// instrumented op time exceeds the plain run by more than PCT percent.
fn cmd_bench(args: &[String]) -> CliResult {
    // `bench psp` is the serving-path benchmark (`--net` drives it over
    // real loopback TCP); everything else is the codec bench.
    if positionals(args).first() == Some(&"psp") {
        if has_flag(args, "--net") {
            return bench_net::cmd(args);
        }
        if has_flag(args, "--cluster") {
            return bench_cluster::cmd(args);
        }
        return bench_psp::cmd(args);
    }
    let parse_num = |name: &str, default: f64| -> Result<f64, String> {
        match flag_value(args, name) {
            Some(v) => v.parse().map_err(|e| format!("bad {name} {v:?}: {e}")),
            None => Ok(default),
        }
    };
    let iters = parse_num("--iters", 5.0)? as usize;
    let quality = parse_num("--quality", 75.0)? as u8;
    let threshold = parse_num("--threshold", 0.4)?;

    let res = bench::run(iters.max(1), quality)?;
    for &(name, r) in &res.ops {
        println!(
            "{name:>8}: {:8.2} ms  {:>10.0} blocks/s  {:8.2} MB/s",
            r.ms, r.blocks_per_s, r.mb_per_s
        );
    }

    // Second, instrumented pass: stage-level span histograms plus a
    // like-for-like set of op timings for the overhead measurement.
    let (instr_res, obs) = bench::run_instrumented(iters.max(1), quality)?;
    let snap = obs.metrics().snapshot();
    let overhead = bench::overhead_pct(&res, &instr_res);
    println!(
        "instrumented rerun: {} span(s), overhead {overhead:+.2}%",
        obs.span_count()
    );
    if let Some(path) = flag_value(args, "--trace") {
        std::fs::write(path, obs.chrome_trace()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("trace written to {path}");
    }
    if let Some(path) = flag_value(args, "--stats") {
        std::fs::write(path, obs.stats_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("stats written to {path} — view with `puppies stats {path}`");
    }

    let pre = match flag_value(args, "--pre") {
        Some(path) => {
            let section = flag_value(args, "--pre-section").unwrap_or("current");
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Some(bench::parse_section(&text, section)?)
        }
        None => None,
    };
    let json = bench::to_json(&res, pre.as_deref(), Some(&snap), Some(overhead));
    if let Some(out) = flag_value(args, "--out") {
        if let Some(dir) = std::path::Path::new(out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("results written to {out}");
    }
    if let Some(path) = flag_value(args, "--check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let committed = bench::parse_section(&text, "current")?;
        let (lines, ok) = bench::check(&res, &committed, threshold);
        for l in &lines {
            println!("{l}");
        }
        if !ok {
            return Err(format!(
                "throughput regressed more than {:.0}% below {path}",
                threshold * 100.0
            ));
        }
        println!("within {:.0}% of {path}", threshold * 100.0);
        if let Some(floor) = flag_value(args, "--min-protect-speedup") {
            let floor: f64 = floor
                .parse()
                .map_err(|e| format!("bad --min-protect-speedup {floor:?}: {e}"))?;
            let (line, ok) = bench::check_protect_floor(&text, floor)?;
            println!("{line}");
            if !ok {
                return Err(format!(
                    "committed protect speedup fell below the {floor:.2}x floor in {path}"
                ));
            }
        }
    }
    if let Some(gate) = flag_value(args, "--obs-overhead-gate") {
        let gate: f64 = gate
            .parse()
            .map_err(|e| format!("bad --obs-overhead-gate {gate:?}: {e}"))?;
        if overhead > gate {
            return Err(format!(
                "instrumentation overhead {overhead:.2}% exceeds the {gate:.2}% gate"
            ));
        }
        println!("instrumentation overhead {overhead:.2}% within the {gate:.2}% gate");
    }
    Ok(())
}

fn cmd_conformance(args: &[String]) -> CliResult {
    use puppies_conformance::{HarnessConfig, Report};
    let mut cfg = HarnessConfig {
        bless: has_flag(args, "--bless"),
        ..HarnessConfig::default()
    };
    if let Some(dir) = flag_value(args, "--golden-dir") {
        cfg.golden_dir = dir.into();
    }
    if let Some(dir) = flag_value(args, "--corpus-dir") {
        cfg.corpus_dir = Some(dir.into());
    }
    if let Some(seed) = flag_value(args, "--seed") {
        cfg.fuzz_seed = seed
            .parse()
            .map_err(|e| format!("bad --seed {seed:?}: {e}"))?;
    }
    if let Some(scale) = flag_value(args, "--fuzz-scale") {
        cfg.fuzz_scale = scale
            .parse()
            .map_err(|e| format!("bad --fuzz-scale {scale:?}: {e}"))?;
    }
    for suite in flag_values(args, "--skip") {
        cfg.skip.push(suite.to_string());
    }
    let obs = obs_from_args(args);
    let report: Report = puppies_conformance::run_all(&cfg).map_err(|e| e.to_string())?;
    if let Some(o) = obs {
        o.finish()?;
    }
    let text = report.render();
    print!("{text}");
    if let Some(dir) = flag_value(args, "--report-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        let path = std::path::Path::new(dir).join("conformance-report.txt");
        std::fs::write(&path, &text).map_err(|e| format!("writing report: {e}"))?;
        println!("report written to {}", path.display());
    }
    if report.is_ok() {
        Ok(())
    } else {
        Err(format!(
            "{} conformance case(s) failed",
            report.failures().len()
        ))
    }
}

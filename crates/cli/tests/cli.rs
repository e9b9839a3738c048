//! End-to-end tests driving the `puppies` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_puppies-cli"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("puppies_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn write_test_ppm(path: &PathBuf) {
    let img = puppies_image::RgbImage::from_fn(96, 64, |x, y| {
        puppies_image::Rgb::new(
            (40 + x * 2) as u8,
            (60 + y * 3) as u8,
            ((x + y) % 256) as u8,
        )
    });
    puppies_image::io::save_ppm(&img, path).expect("write ppm");
}

#[test]
fn full_cli_workflow() {
    let dir = tmp_dir("flow");
    let input = dir.join("in.ppm");
    write_test_ppm(&input);
    let key = dir.join("owner.key");
    let jpg = dir.join("out.jpg");
    let params = dir.join("out.pup");
    let grant = dir.join("bob.grant");
    let rec = dir.join("rec.ppm");

    let ok = |out: std::process::Output, what: &str| {
        assert!(
            out.status.success(),
            "{what} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };

    ok(
        bin()
            .args(["keygen", key.to_str().unwrap()])
            .output()
            .unwrap(),
        "keygen",
    );
    assert_eq!(std::fs::read(&key).unwrap().len(), 32);

    ok(
        bin()
            .args([
                "protect",
                input.to_str().unwrap(),
                jpg.to_str().unwrap(),
                "--key",
                key.to_str().unwrap(),
                "--params",
                params.to_str().unwrap(),
                "--roi",
                "16,16,32,32",
            ])
            .output()
            .unwrap(),
        "protect",
    );
    // The protected image decodes as a plain JPEG.
    let bytes = std::fs::read(&jpg).unwrap();
    assert!(puppies_jpeg::CoeffImage::decode(&bytes).is_ok());

    let out = ok(
        bin()
            .args(["inspect", "--params", params.to_str().unwrap()])
            .output()
            .unwrap(),
        "inspect",
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("PuPPIeS-Z"), "inspect output: {text}");

    ok(
        bin()
            .args([
                "grant",
                "--key",
                key.to_str().unwrap(),
                "--image-id",
                "0",
                "--out",
                grant.to_str().unwrap(),
                "--roi",
                "0",
            ])
            .output()
            .unwrap(),
        "grant",
    );

    // Recover via the grant; result must match the owner-key recovery.
    ok(
        bin()
            .args([
                "recover",
                jpg.to_str().unwrap(),
                rec.to_str().unwrap(),
                "--params",
                params.to_str().unwrap(),
                "--grant",
                grant.to_str().unwrap(),
            ])
            .output()
            .unwrap(),
        "recover",
    );
    let recovered = puppies_image::io::load_ppm(&rec).unwrap();
    let original = puppies_image::io::load_ppm(&input).unwrap();
    let reference = puppies_jpeg::CoeffImage::from_rgb(&original, 75).to_rgb();
    assert_eq!(recovered, reference, "grant-based recovery must be exact");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn protect_without_rois_fails_cleanly() {
    let dir = tmp_dir("noroi");
    let input = dir.join("in.ppm");
    write_test_ppm(&input);
    let key = dir.join("k.key");
    bin()
        .args(["keygen", key.to_str().unwrap()])
        .output()
        .unwrap();
    let out = bin()
        .args([
            "protect",
            input.to_str().unwrap(),
            dir.join("o.jpg").to_str().unwrap(),
            "--key",
            key.to_str().unwrap(),
            "--params",
            dir.join("o.pup").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no regions"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite of the conformance PR: `protect-batch` must be
/// thread-count-invariant — the same inputs at `--threads 1` and
/// `--threads 8` produce byte-identical JPEGs and params files.
#[test]
fn protect_batch_is_deterministic_across_thread_counts() {
    let dir = tmp_dir("batch_det");
    let key = dir.join("owner.key");
    std::fs::write(&key, [7u8; 32]).unwrap();
    let mut inputs = Vec::new();
    for i in 0..3 {
        let p = dir.join(format!("in{i}.ppm"));
        write_test_ppm(&p);
        inputs.push(p);
    }

    let run = |threads: &str, out_tag: &str| -> Vec<(String, Vec<u8>)> {
        let out_dir = dir.join(out_tag);
        std::fs::create_dir_all(&out_dir).unwrap();
        let mut cmd = bin();
        cmd.arg("protect-batch");
        for p in &inputs {
            cmd.arg(p.to_str().unwrap());
        }
        let out = cmd
            .args([
                "--key",
                key.to_str().unwrap(),
                "--out-dir",
                out_dir.to_str().unwrap(),
                "--threads",
                threads,
                "--roi",
                "8,8,32,32",
                "--image-id",
                "40",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "protect-batch --threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };

    let serial = run("1", "serial");
    let parallel = run("8", "parallel");
    assert_eq!(serial.len(), parallel.len());
    assert!(
        serial.iter().any(|(name, _)| name.ends_with(".jpg"))
            && serial.iter().any(|(name, _)| name.ends_with(".pup")),
        "batch output must contain images and params files"
    );
    for ((name_a, bytes_a), (name_b, bytes_b)) in serial.iter().zip(&parallel) {
        assert_eq!(name_a, name_b);
        assert_eq!(
            bytes_a, bytes_b,
            "{name_a} differs between --threads 1 and --threads 8"
        );
    }
}

/// `--trace` and `--stats` produce loadable artifacts without changing a
/// byte of the protected output, and `puppies stats` renders the snapshot.
#[test]
fn trace_and_stats_flags_are_observable_and_inert() {
    let dir = tmp_dir("obs");
    let input = dir.join("in.ppm");
    write_test_ppm(&input);
    let key = dir.join("owner.key");
    std::fs::write(&key, [3u8; 32]).unwrap();
    let trace = dir.join("trace.json");
    let stats = dir.join("stats.json");

    let protect = |jpg: &PathBuf, extra: &[&str]| {
        let mut cmd = bin();
        cmd.args([
            "protect",
            input.to_str().unwrap(),
            jpg.to_str().unwrap(),
            "--key",
            key.to_str().unwrap(),
            "--params",
            dir.join("out.pup").to_str().unwrap(),
            "--roi",
            "16,16,32,32",
        ])
        .args(extra)
        // A multi-thread pool regardless of the host's core count, so the
        // trace exercises cross-thread spans.
        .env("PUPPIES_THREADS", "4");
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "protect failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };

    let plain_jpg = dir.join("plain.jpg");
    protect(&plain_jpg, &[]);
    let obs_jpg = dir.join("observed.jpg");
    protect(
        &obs_jpg,
        &[
            "--trace",
            trace.to_str().unwrap(),
            "--stats",
            stats.to_str().unwrap(),
        ],
    );

    // Determinism: the instrumented run emits the same JPEG bytes.
    assert_eq!(
        std::fs::read(&plain_jpg).unwrap(),
        std::fs::read(&obs_jpg).unwrap(),
        "--trace/--stats changed the protected bytes"
    );

    // The trace is a Chrome trace_event document with nested pipeline
    // spans and thread metadata. One protect runs on the calling thread,
    // so no stage shows up as a pool job.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.starts_with("{\"traceEvents\":["));
    for needle in [
        "\"ph\":\"X\"",
        "\"ph\":\"M\"",
        "core.protect",
        "jpeg.encode",
    ] {
        assert!(trace_text.contains(needle), "trace missing {needle}");
    }
    assert!(!trace_text.contains("pool.job"), "protect fanned out");

    // The stats snapshot renders to a quantile table via `puppies stats`.
    let out = bin()
        .args(["stats", stats.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout).to_string();
    for needle in ["p50", "p95", "p99", "core.protect", "jpeg.encode"] {
        assert!(
            table.contains(needle),
            "stats table missing {needle}:\n{table}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--golden-dir`, the conformance subcommand finds the
/// committed golden vectors from any working directory.
#[test]
fn conformance_finds_golden_vectors_outside_the_repo_root() {
    let dir = tmp_dir("conf_cwd");
    let mut cmd = bin();
    cmd.arg("conformance").current_dir(&dir);
    for suite in [
        "oracle",
        "differential",
        "serving",
        "identity",
        "netcheck",
        "cluster",
        "fuzz",
    ] {
        cmd.args(["--skip", suite]);
    }
    let out = cmd.output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "conformance failed outside the repo root:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("golden/fixture.ppm"), "{text}");
    assert!(text.contains(" 0 failed"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The conformance subcommand runs the harness end-to-end (quick fuzz
/// scale) against the committed golden vectors, and fails loudly when a
/// golden vector is tampered with.
#[test]
fn conformance_subcommand_end_to_end() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../conformance/golden");
    let dir = tmp_dir("conf");
    let out = bin()
        .args([
            "conformance",
            "--golden-dir",
            golden.to_str().unwrap(),
            "--corpus-dir",
            dir.join("corpus").to_str().unwrap(),
            "--report-dir",
            dir.join("report").to_str().unwrap(),
            "--skip",
            "oracle",
            "--skip",
            "differential",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "conformance failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(dir.join("report/conformance-report.txt")).unwrap();
    assert!(report.contains("golden/fixture.ppm"));
    assert!(report.contains("0 failed"));

    // Tampered golden directory: copy, flip one byte, expect a readable
    // diff report and a nonzero exit.
    let tampered = dir.join("golden_tampered");
    std::fs::create_dir_all(&tampered).unwrap();
    for entry in std::fs::read_dir(&golden).unwrap() {
        let e = entry.unwrap();
        std::fs::copy(e.path(), tampered.join(e.file_name())).unwrap();
    }
    let victim = tampered.join("encode_q90.jpg");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&victim, bytes).unwrap();
    let out = bin()
        .args([
            "conformance",
            "--golden-dir",
            tampered.to_str().unwrap(),
            "--skip",
            "oracle",
            "--skip",
            "differential",
            "--skip",
            "fuzz",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "tampered golden dir must fail");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("golden/encode_q90.jpg") && text.contains("first mismatch at byte"),
        "diff report not readable:\n{text}"
    );
}

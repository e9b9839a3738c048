//! The CI service-job scenario as an integration test: boot
//! `puppies-cli serve`, run the network smoke, flood acknowledged
//! uploads, SIGKILL the server mid-write, restart, and prove every
//! acknowledged upload recovers byte-identical.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_puppies-cli"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("puppies_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

struct Serving {
    child: Child,
    addr: String,
}

/// Starts `serve` on an ephemeral port and parses the bound address from
/// its first stdout line (`psp-serve listening on <addr> ...`).
fn start_server(store: &Path) -> Serving {
    let mut child = bin()
        .args([
            "serve",
            "--dir",
            store.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("serve stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("banner");
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_string();
    Serving { child, addr }
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("run cli");
    assert!(
        out.status.success(),
        "`{}` failed:\nstdout: {}\nstderr: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn smoke_kill9_and_recovery() {
    let dir = tmp_dir("kill9");
    let store = dir.join("store");
    std::fs::create_dir_all(&store).unwrap();
    let manifest = dir.join("acked.txt");
    let manifest_s = manifest.to_str().unwrap();

    // Boot and smoke: the wire must match in-process byte-for-byte.
    let mut server = start_server(&store);
    run_ok(&["net", "smoke", "--addr", &server.addr]);

    // A first tranche of acknowledged uploads.
    run_ok(&[
        "net",
        "flood",
        "--addr",
        &server.addr,
        "--manifest",
        manifest_s,
        "--count",
        "25",
    ]);

    // Keep writing in the background, then SIGKILL the server mid-write.
    let mut flood = bin()
        .args([
            "net",
            "flood",
            "--addr",
            &server.addr,
            "--manifest",
            manifest_s,
            "--count",
            "100000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn flood");
    // Let some acks land.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let acked = std::fs::read_to_string(&manifest)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if acked >= 35 || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    server.child.kill().expect("kill -9 server"); // SIGKILL
    server.child.wait().expect("reap server");
    let _ = flood.kill();
    let _ = flood.wait();

    let acked = std::fs::read_to_string(&manifest)
        .map(|t| t.lines().count())
        .unwrap_or(0);
    assert!(acked >= 25, "expected acknowledged uploads, got {acked}");

    // The WAL dump must parse (read-only, tolerates a torn tail).
    let dump = run_ok(&["wal-dump", "--dir", store.to_str().unwrap()]);
    assert!(dump.contains("record(s)"), "unexpected dump: {dump}");

    // Restart on the same store: every acknowledged upload must come back
    // byte-identical.
    let mut server = start_server(&store);
    let verify = run_ok(&[
        "net",
        "verify",
        "--addr",
        &server.addr,
        "--manifest",
        manifest_s,
    ]);
    assert!(
        verify.contains("byte-identical after recovery"),
        "unexpected verify output: {verify}"
    );

    server.child.kill().expect("stop server");
    server.child.wait().expect("reap server");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store with two uploads, written through the library.
fn store_with_uploads(tag: &str) -> (PathBuf, Vec<u8>) {
    let store = tmp_dir(tag).join("store");
    let disk = puppies_psp::DiskStore::open(&store, puppies_psp::PspConfig::default(), false)
        .expect("open store");
    let bytes = vec![0xAB; 5000];
    disk.upload(bytes.clone(), vec![0xCD; 10]).expect("upload");
    disk.upload(vec![0xEF; 3000], vec![0xCD; 10])
        .expect("upload");
    (store, bytes)
}

#[test]
fn wal_dump_prints_blob_metadata_never_bytes() {
    let (store, bytes) = store_with_uploads("dump");
    let dump = run_ok(&["wal-dump", "--dir", store.to_str().unwrap()]);
    let sha = puppies_psp::sha256::sha256(&bytes);
    let prefix = puppies_psp::net::proto::hex(&sha[..8]);
    assert!(
        dump.contains(&format!("Blob {{ sha256: {prefix}…, len: 5000 }}")),
        "{dump}"
    );
    // Three blobs (the shared params blob is logged once), two uploads
    // naming them by the same prefix.
    assert!(dump.contains("5 record(s) (3 blob(s))"), "{dump}");
    assert!(
        dump.contains(&format!("Upload {{ id: 0, bytes: {prefix}…, params: ")),
        "{dump}"
    );
    assert_eq!(dump.matches("Upload").count(), 2, "{dump}");
    assert!(
        !dump.contains("171, 171"),
        "blob bytes leaked into the dump"
    );
    assert!(dump.len() < 1500, "dump is {} bytes", dump.len());
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

/// Flips one byte in the middle of a store's `wal.log`.
fn flip_middle_byte(store: &Path) {
    let path = store.join("wal.log");
    let mut log = std::fs::read(&path).unwrap();
    let mid = log.len() / 2;
    log[mid] ^= 0x10;
    std::fs::write(&path, log).unwrap();
}

#[test]
fn mid_log_corruption_is_loud_in_dump_and_serve() {
    let (store, _) = store_with_uploads("corrupt");
    flip_middle_byte(&store);
    let dump = bin()
        .args(["wal-dump", "--dir", store.to_str().unwrap()])
        .output()
        .expect("run wal-dump");
    assert!(!dump.status.success());
    assert!(String::from_utf8_lossy(&dump.stderr).contains("wal corrupt"));

    // `serve` binds, fails recovery, never turns ready, and exits with
    // the corruption error (the accept loop must wake up to exit).
    let mut child = bin()
        .args([
            "serve",
            "--dir",
            store.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll serve") {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("serve kept running on a corrupt store");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(!status.success());
    assert!(stderr.contains("wal corrupt"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

fn signal(child: &Child, name: &str) {
    let status = Command::new("kill")
        .args([name, &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill {name} failed");
}

#[test]
fn sighup_reloads_and_sigterm_drains_promptly() {
    let store = tmp_dir("signals").join("store");
    std::fs::create_dir_all(&store).unwrap();
    let mut server = start_server(&store);
    let upload = |addr: &str| {
        let mut client = puppies_psp::net::Client::connect(addr).expect("connect");
        client.upload(&[7; 200], &[1]).is_ok()
    };
    run_ok(&["net", "ready", "--addr", &server.addr]);
    assert!(upload(&server.addr));

    // SIGHUP: the new body cap applies without a restart.
    std::fs::write(store.join("serve.conf"), "max_body = 64\n").unwrap();
    signal(&server.child, "-HUP");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while upload(&server.addr) {
        assert!(
            std::time::Instant::now() < deadline,
            "SIGHUP never reloaded"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // SIGTERM: the blocked accept loop wakes, drains and exits cleanly.
    signal(&server.child, "-TERM");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("poll serve") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "SIGTERM never drained"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "serve exited with {status}");
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

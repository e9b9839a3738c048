//! `puppies serve` / `puppies net …` / `puppies wal-dump` — the service
//! side of the PSP, plus the network tooling CI's `service` job drives:
//!
//! ```text
//! puppies serve --dir <store-dir> [--addr 127.0.0.1:0] [--no-fsync]
//! puppies net smoke  --addr <host:port>
//! puppies net flood  --addr <host:port> --manifest <file> [--count N] [--bytes N]
//! puppies net verify --addr <host:port> --manifest <file>
//! puppies net ready  --addr <host:port> [--timeout-ms N]
//! puppies net dup    --addr <host:port>
//! puppies search <probe.jpg> --addr <host:port> [--params <in.pup>]
//! puppies wal-dump --dir <store-dir>
//! ```
//!
//! `smoke` runs the full upload → grant → transform → download flow over
//! the wire and byte-compares every response against an in-process
//! [`PspServer`] fed the same inputs. `flood` uploads continuously,
//! appending `<id> <fnv64 hex>` to the manifest *after* each server ack
//! (so the manifest is exactly the set of acknowledged uploads — the
//! durability contract under `kill -9`). `verify` re-downloads every
//! manifest entry and checks content hashes; a torn final manifest line
//! (the flood itself was killed mid-write) is tolerated and reported.
//! `dup` proves the perceptual-identity fast path end to end: a
//! recompressed copy's first transformed serve must come back
//! `x-served-path: sig-cached` and byte-identical to the original's.
//! `search` probes the server's near-duplicate index with a local image.

use crate::{flag_value, has_flag, CliResult};
use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_psp::net::{serve, Client, ServeConfig};
use puppies_psp::{KeyAgreement, PhotoId, PspServer};
use puppies_transform::Transformation;
use std::io::Write;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn cmd_serve(args: &[String]) -> CliResult {
    let dir = flag_value(args, "--dir").ok_or("missing --dir <store-dir>")?;
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:0");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let config = ServeConfig {
        addr: addr.into(),
        dir: dir.into(),
        fsync: !has_flag(args, "--no-fsync"),
        ..ServeConfig::new(addr, dir)
    };
    serve(&config).map_err(|e| e.to_string())
}

pub fn cmd_net(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("smoke") => net_smoke(&args[1..]),
        Some("flood") => net_flood(&args[1..]),
        Some("verify") => net_verify(&args[1..]),
        Some("ready") => net_ready(&args[1..]),
        Some("dup") => net_dup(&args[1..]),
        other => Err(format!(
            "unknown net subcommand {other:?}; expected smoke|flood|verify|ready|dup"
        )),
    }
}

fn addr_arg(args: &[String]) -> Result<&str, String> {
    flag_value(args, "--addr").ok_or_else(|| "missing --addr <host:port>".into())
}

/// Connects (retrying while the listener comes up) and polls `/readyz`
/// until the store is recovered or the timeout lapses. The serving loop
/// binds before WAL replay, so tooling must not take "connected" for
/// "ready".
fn connect_ready(addr: &str, timeout_ms: u64) -> Result<Client, String> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms);
    let mut last: String;
    loop {
        match Client::connect(addr) {
            Ok(mut client) => match client.ready() {
                Ok(true) => return Ok(client),
                Ok(false) => last = "readyz: 503".into(),
                Err(e) => last = e.to_string(),
            },
            Err(e) => last = e.to_string(),
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!("{addr} not ready after {timeout_ms}ms ({last})"));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// `puppies net ready --addr <host:port> [--timeout-ms N]` — block until
/// `/readyz` is 200 (CI's boot barrier), default timeout 10 s.
fn net_ready(args: &[String]) -> CliResult {
    let addr = addr_arg(args)?;
    let timeout_ms: u64 = match flag_value(args, "--timeout-ms") {
        Some(v) => v.parse().map_err(|e| format!("bad --timeout-ms: {e}"))?,
        None => 10_000,
    };
    connect_ready(addr, timeout_ms)?;
    println!("ready: {addr}");
    Ok(())
}

/// A deterministic protected photo for wire checks.
fn fixture(seed: u8) -> (Vec<u8>, Vec<u8>) {
    let img = RgbImage::from_fn(96, 64, |x, y| {
        Rgb::new(
            seed.wrapping_add((x * 3 + y) as u8),
            (x + y * 2) as u8,
            seed ^ (x as u8),
        )
    });
    let p = protect(
        &img,
        &[Rect::new(16, 8, 32, 32)],
        &OwnerKey::from_seed([seed; 32]),
        &ProtectOptions::default(),
    )
    .map_err(|e| e.to_string())
    .expect("fixture protect");
    (p.bytes, p.params.to_bytes())
}

/// Network e2e smoke: every wire response must match the in-process
/// server byte-for-byte — upload echo, serving-door transform, in-place
/// transform, and the encrypted grant mailbox round trip.
fn net_smoke(args: &[String]) -> CliResult {
    let addr = addr_arg(args)?;
    let mut client = connect_ready(addr, 10_000)?;
    client.health().map_err(|e| e.to_string())?;

    let reference = PspServer::new();
    let (bytes, params) = fixture(11);
    let receipt = client.upload(&bytes, &params).map_err(|e| e.to_string())?;
    let ref_id = reference
        .upload(bytes.clone(), params.clone())
        .map_err(|e| e.to_string())?;

    let parity = |name: &str, net: &[u8], local: &[u8]| -> CliResult {
        if net != local {
            return Err(format!("{name}: wire bytes differ from in-process bytes"));
        }
        println!("parity ok: {name} ({} bytes)", net.len());
        Ok(())
    };
    parity(
        "download",
        &client.download(receipt.id).map_err(|e| e.to_string())?,
        &reference.download(ref_id).map_err(|e| e.to_string())?,
    )?;
    parity(
        "params",
        &client
            .download_params(receipt.id)
            .map_err(|e| e.to_string())?,
        &reference
            .download_params(ref_id)
            .map_err(|e| e.to_string())?,
    )?;

    let t = Transformation::Rotate90;
    let (net_b, net_p, _) = client
        .download_transformed(receipt.id, &t)
        .map_err(|e| e.to_string())?;
    let (ref_b, ref_p) = reference
        .download_transformed(ref_id, &t)
        .map_err(|e| e.to_string())?;
    parity("transformed bytes", &net_b, &ref_b)?;
    parity("transformed params", &net_p, &ref_p)?;

    // Grant flow: receiver registers, sender deposits end-to-end
    // encrypted, receiver drains and decrypts.
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha20Rng::from_seed([42u8; 32]);
    let receiver_ka = KeyAgreement::new(&mut rng);
    let sender_ka = KeyAgreement::new(&mut rng);
    let token = client
        .register_receiver(receiver_ka.public_value())
        .map_err(|e| e.to_string())?;
    let grant_plain = OwnerKey::from_seed([11u8; 32]).grant_all();
    let grant_bytes = puppies_psp::channel::encode_grant(&grant_plain);
    let ciphertext = sender_ka
        .agree(receiver_ka.public_value())
        .encrypt(&grant_bytes);
    client
        .deposit_grant(
            receiver_ka.public_value(),
            sender_ka.public_value(),
            &ciphertext,
        )
        .map_err(|e| e.to_string())?;
    let grants = client.fetch_grants(&token).map_err(|e| e.to_string())?;
    let (sender_public, fetched) = grants
        .first()
        .ok_or("grant mailbox came back empty over the wire")?;
    let decrypted = receiver_ka
        .agree(*sender_public)
        .decrypt(fetched)
        .map_err(|e| e.to_string())?;
    if decrypted != grant_bytes {
        return Err("grant ciphertext did not round-trip".into());
    }
    println!(
        "parity ok: grant mailbox ({} byte ciphertext)",
        fetched.len()
    );

    // In-place transform under the owner token, then download parity.
    client
        .transform(receipt.id, &receipt.owner_token, &Transformation::Rotate180)
        .map_err(|e| e.to_string())?;
    reference
        .transform(ref_id, &Transformation::Rotate180)
        .map_err(|e| e.to_string())?;
    parity(
        "post-transform download",
        &client.download(receipt.id).map_err(|e| e.to_string())?,
        &reference.download(ref_id).map_err(|e| e.to_string())?,
    )?;
    println!("net smoke ok: wire and in-process byte-identical");
    Ok(())
}

/// Uploads `--count` payloads (default: until killed), appending
/// `<id> <fnv64 hex>` to `--manifest` after each acknowledged upload,
/// flushed per line — the manifest is the durability oracle `verify`
/// replays after a crash.
fn net_flood(args: &[String]) -> CliResult {
    let addr = addr_arg(args)?;
    let manifest = flag_value(args, "--manifest").ok_or("missing --manifest <file>")?;
    let count: u64 = match flag_value(args, "--count") {
        Some(v) => v.parse().map_err(|e| format!("bad --count: {e}"))?,
        None => u64::MAX,
    };
    let payload_len: usize = match flag_value(args, "--bytes") {
        Some(v) => v.parse().map_err(|e| format!("bad --bytes: {e}"))?,
        None => 4096,
    };
    let mut client = connect_ready(addr, 10_000)?;
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(manifest)
        .map_err(|e| format!("opening {manifest}: {e}"))?;
    let mut acked = 0u64;
    for i in 0..count {
        // Distinct content per upload so content-addressing is exercised.
        let mut payload = vec![0u8; payload_len];
        let mut h = fnv64(&i.to_le_bytes());
        for chunk in payload.chunks_mut(8) {
            h = fnv64(&h.to_le_bytes());
            let src = h.to_le_bytes();
            chunk.copy_from_slice(&src[..chunk.len()]);
        }
        let params = i.to_le_bytes().to_vec();
        let receipt = client
            .upload(&payload, &params)
            .map_err(|e| e.to_string())?;
        writeln!(out, "{} {:016x}", receipt.id.0, fnv64(&payload))
            .and_then(|()| out.flush())
            .map_err(|e| format!("writing {manifest}: {e}"))?;
        acked += 1;
    }
    println!("flood: {acked} acknowledged upload(s) recorded in {manifest}");
    Ok(())
}

/// Re-downloads every manifest entry and checks content hashes. A torn
/// final line is tolerated (the flood process was killed mid-write);
/// anything else missing or mismatched is a durability violation.
fn net_verify(args: &[String]) -> CliResult {
    let addr = addr_arg(args)?;
    let manifest = flag_value(args, "--manifest").ok_or("missing --manifest <file>")?;
    let text = std::fs::read_to_string(manifest).map_err(|e| format!("reading {manifest}: {e}"))?;
    let mut client = connect_ready(addr, 10_000)?;
    let lines: Vec<&str> = text.split('\n').collect();
    let complete = text.ends_with('\n');
    let mut verified = 0u64;
    let mut torn = 0u64;
    for (i, line) in lines.iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        let last = i + 1 == lines.len();
        let parsed = line.split_once(' ').and_then(|(id, hash)| {
            Some((id.parse::<u64>().ok()?, u64::from_str_radix(hash, 16).ok()?))
        });
        let Some((id, hash)) = parsed else {
            if last && !complete {
                torn += 1;
                continue; // the flood was killed mid-line: not acknowledged
            }
            return Err(format!("{manifest}:{}: unparseable line {line:?}", i + 1));
        };
        let bytes = client
            .download(PhotoId(id))
            .map_err(|e| format!("photo {id} (acknowledged pre-crash) is gone: {e}"))?;
        if fnv64(&bytes) != hash {
            return Err(format!(
                "photo {id} recovered with wrong content (fnv {:016x}, manifest {hash:016x})",
                fnv64(&bytes)
            ));
        }
        verified += 1;
    }
    println!("verify: {verified} acknowledged upload(s) byte-identical after recovery ({torn} torn manifest line(s) ignored)");
    Ok(())
}

/// `puppies net dup --addr <host:port>` — end-to-end check of the
/// perceptual-identity fast path over the wire: upload an original, warm
/// one transformed view, upload a byte-distinct recompressed copy of the
/// same image, and require the copy's *first* transformed serve to come
/// back `x-served-path: sig-cached` with bytes identical to the
/// original's cached result. Finishes with a `/search` probe that must
/// rank both photos as near-duplicates of the original bytes.
fn net_dup(args: &[String]) -> CliResult {
    use puppies_psp::net::client::WireServed;
    let addr = addr_arg(args)?;
    let mut client = connect_ready(addr, 10_000)?;

    let (bytes, params) = fixture(23);
    let original = client.upload(&bytes, &params).map_err(|e| e.to_string())?;
    let t = Transformation::Rotate90;
    let (orig_b, orig_p, _, _) = client
        .download_transformed_traced(original.id, &t)
        .map_err(|e| e.to_string())?;

    // A client re-saving the downloaded photo: byte-distinct, same image.
    let mut coeff = puppies_jpeg::CoeffImage::decode(&bytes).map_err(|e| e.to_string())?;
    coeff.requantize(55);
    let copy_bytes = coeff
        .encode(&puppies_jpeg::EncodeOptions::default())
        .map_err(|e| e.to_string())?;
    if copy_bytes == bytes {
        return Err("net dup: recompressed copy is not byte-distinct".into());
    }
    let copy = client
        .upload(&copy_bytes, &params)
        .map_err(|e| e.to_string())?;
    let (dup_b, dup_p, _, served) = client
        .download_transformed_traced(copy.id, &t)
        .map_err(|e| e.to_string())?;
    if served != WireServed::SigCached {
        return Err(format!(
            "net dup: copy's first transformed serve was not sig-cached (got {served:?})"
        ));
    }
    if dup_b != orig_b || dup_p != orig_p {
        return Err("net dup: sig-cached serve differs from the original's bytes".into());
    }
    println!(
        "dup ok: first serve of the recompressed copy was sig-cached ({} bytes, byte-identical)",
        dup_b.len()
    );

    let (sig, matches) = client
        .search(&bytes, Some(&params))
        .map_err(|e| e.to_string())?;
    let ids: Vec<u64> = matches.iter().map(|(id, _)| id.0).collect();
    if !ids.contains(&original.id.0) || !ids.contains(&copy.id.0) {
        return Err(format!(
            "net dup: /search for sig {sig:016x} missed the family (got ids {ids:?})"
        ));
    }
    println!(
        "search ok: sig {sig:016x} matched {} photo(s) including both family members",
        matches.len()
    );
    Ok(())
}

/// `puppies search <probe.jpg> --addr <host:port> [--params <in.pup>]` —
/// asks a serving PSP for stored photos perceptually near the probe
/// image. The probe's private regions (if `--params` names them) are
/// excluded from its signature, exactly as at upload time.
pub fn cmd_search(args: &[String]) -> CliResult {
    let probe_path = crate::positional(args, 0)?;
    let addr = addr_arg(args)?;
    let bytes = std::fs::read(probe_path).map_err(|e| format!("reading {probe_path}: {e}"))?;
    let params = match flag_value(args, "--params") {
        Some(p) => Some(std::fs::read(p).map_err(|e| format!("reading {p}: {e}"))?),
        None => None,
    };
    let mut client = connect_ready(addr, 10_000)?;
    let (sig, matches) = client
        .search(&bytes, params.as_deref())
        .map_err(|e| e.to_string())?;
    println!("probe signature: {sig:016x}");
    if matches.is_empty() {
        println!("no near-duplicates stored");
        return Ok(());
    }
    for (id, distance) in &matches {
        println!("  photo {:>6}  hamming distance {distance}", id.0);
    }
    println!("{} near-duplicate(s)", matches.len());
    Ok(())
}

/// Human-readable dump of a store's WAL — the failure artifact CI uploads
/// when the service job trips. Blobs print as a SHA-256 prefix and a
/// length, never their bytes.
pub fn cmd_wal_dump(args: &[String]) -> CliResult {
    use puppies_psp::wal::{read_log, WalRecord};
    let dir = flag_value(args, "--dir").ok_or("missing --dir <store-dir>")?;
    let path = std::path::Path::new(dir).join("wal.log");
    // Read-only: stream the file rather than `Wal::replay`, which would
    // truncate a torn tail in place — a dump must not mutate evidence.
    let file =
        std::fs::File::open(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    // Write, don't println!: the dump is routinely piped to `head`, and
    // println! panics on the EPIPE when the pipe closes early.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // Hashes print as the prefix a Blob line and the records naming it
    // share.
    let short = |sha: &[u8; 32]| format!("{}…", puppies_psp::net::proto::hex(&sha[..8]));
    let (mut records, mut blobs) = (0u64, 0u64);
    let read = read_log(file, |record| {
        let line = match &record {
            WalRecord::Blob { sha, bytes } => {
                blobs += 1;
                format!("Blob {{ sha256: {}, len: {} }}", short(sha), bytes.len())
            }
            WalRecord::Upload {
                id,
                bytes_sha,
                params_sha,
            }
            | WalRecord::Transform {
                id,
                bytes_sha,
                params_sha,
            } => {
                let kind = if matches!(record, WalRecord::Upload { .. }) {
                    "Upload"
                } else {
                    "Transform"
                };
                format!(
                    "{kind} {{ id: {id}, bytes: {}, params: {} }}",
                    short(bytes_sha),
                    short(params_sha)
                )
            }
            other => format!("{other:?}"),
        };
        records += 1;
        writeln!(out, "{:>6}: {line}", records - 1)
    });
    match read {
        Ok(tail) => {
            let _ = writeln!(
                out,
                "{}: {records} record(s) ({blobs} blob(s)), {} torn byte(s) at the tail",
                path.display(),
                tail.torn_bytes
            );
            Ok(())
        }
        // The reader of the pipe went away: stop quietly.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!(
            "{}: after {records} record(s): {e}",
            path.display()
        )),
    }
}

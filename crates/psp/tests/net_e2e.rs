//! End-to-end tests of the networked PSP: a real `Server` on an ephemeral
//! loopback port, driven by the blocking `Client`, checked byte-for-byte
//! against the in-process `PspServer` it wraps.

use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_psp::net::{Client, ServeConfig, Server};
use puppies_psp::{KeyAgreement, PspConfig, PspServer};
use puppies_transform::Transformation;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "puppies_net_e2e_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn protected_photo(seed: u8) -> (Vec<u8>, Vec<u8>) {
    let img = RgbImage::from_fn(64, 64, |x, y| {
        Rgb::new(
            seed.wrapping_add((x * 3 + y) as u8),
            (x + y * 2) as u8,
            seed,
        )
    });
    let p = protect(
        &img,
        &[Rect::new(8, 8, 24, 24)],
        &OwnerKey::from_seed([seed; 32]),
        &ProtectOptions::default(),
    )
    .unwrap();
    (p.bytes, p.params.to_bytes())
}

struct Running {
    addr: String,
    admin: String,
    join: JoinHandle<()>,
}

fn start(dir: &Path) -> Running {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        dir: dir.to_path_buf(),
        fsync: false,
        psp: PspConfig::default(),
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let join = std::thread::spawn(move || server.run().unwrap());
    let admin = std::fs::read_to_string(dir.join("admin.token"))
        .unwrap()
        .trim()
        .to_string();
    Running { addr, admin, join }
}

fn stop(run: Running) {
    let mut c = Client::connect(&run.addr).unwrap();
    c.shutdown(&run.admin).unwrap();
    run.join.join().unwrap();
}

#[test]
fn wire_flow_matches_in_process_byte_for_byte() {
    let dir = tmp("parity");
    let run = start(&dir);
    let mut client = Client::connect(&run.addr).unwrap();
    client.health().unwrap();

    let (bytes, params) = protected_photo(7);
    let receipt = client.upload(&bytes, &params).unwrap();

    // Raw download round-trips the protected bitstream untouched.
    assert_eq!(client.download(receipt.id).unwrap(), bytes);
    assert_eq!(client.download_params(receipt.id).unwrap(), params);

    // The serving-door transform matches the in-process path exactly.
    let reference = PspServer::new();
    let ref_id = reference.upload(bytes.clone(), params.clone()).unwrap();
    let t = Transformation::Rotate90;
    let (ref_bytes, ref_params) = reference.download_transformed(ref_id, &t).unwrap();
    let (net_bytes, net_params, _) = client.download_transformed(receipt.id, &t).unwrap();
    assert_eq!(net_bytes, ref_bytes.to_vec());
    assert_eq!(net_params, ref_params.to_vec());

    // Second identical request is a cache hit on the wire.
    let (_, _, cache) = client.download_transformed(receipt.id, &t).unwrap();
    assert_eq!(cache, puppies_psp::net::client::WireCache::Hit);

    // In-place transform needs the owner token.
    let err = client
        .transform(receipt.id, "0000", &Transformation::Rotate180)
        .unwrap_err();
    assert!(err.to_string().contains("403"), "got: {err}");
    client
        .transform(receipt.id, &receipt.owner_token, &Transformation::Rotate180)
        .unwrap();
    reference
        .transform(ref_id, &Transformation::Rotate180)
        .unwrap();
    assert_eq!(
        client.download(receipt.id).unwrap(),
        reference.download(ref_id).unwrap().to_vec()
    );

    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grant_mailbox_is_end_to_end_encrypted_and_durable() {
    let dir = tmp("grants");
    let run = start(&dir);
    let mut client = Client::connect(&run.addr).unwrap();

    // Receiver registers; sender encrypts a grant for them end-to-end.
    let receiver_ka = KeyAgreement::new(&mut rand_seeded(1));
    let sender_ka = KeyAgreement::new(&mut rand_seeded(2));
    let token = client
        .register_receiver(receiver_ka.public_value())
        .unwrap();

    let sender_channel = sender_ka.agree(receiver_ka.public_value());
    let plaintext = b"grant: keys for photo 0".to_vec();
    let ciphertext = sender_channel.encrypt(&plaintext);
    client
        .deposit_grant(
            receiver_ka.public_value(),
            sender_ka.public_value(),
            &ciphertext,
        )
        .unwrap();

    // Restart the server: the mailbox and token must survive.
    stop(run);
    let run = start(&dir);
    let mut client = Client::connect(&run.addr).unwrap();

    let grants = client.fetch_grants(&token).unwrap();
    assert_eq!(grants.len(), 1);
    let (sender_public, fetched) = &grants[0];
    let receiver_channel = receiver_ka.agree(*sender_public);
    assert_eq!(receiver_channel.decrypt(fetched).unwrap(), plaintext);

    // Drained durably: another fetch (and another restart) is empty.
    assert!(client.fetch_grants(&token).unwrap().is_empty());
    stop(run);
    let run = start(&dir);
    let mut client = Client::connect(&run.addr).unwrap();
    assert!(client.fetch_grants(&token).unwrap().is_empty());
    assert!(client.fetch_grants("deadbeef").is_err());

    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uploads_survive_restart_and_ids_keep_allocating() {
    let dir = tmp("restart");
    let (bytes, params) = protected_photo(3);
    let first;
    {
        let run = start(&dir);
        let mut client = Client::connect(&run.addr).unwrap();
        first = client.upload(&bytes, &params).unwrap();
        stop(run);
    }
    let run = start(&dir);
    let mut client = Client::connect(&run.addr).unwrap();
    assert_eq!(client.download(first.id).unwrap(), bytes);
    // Owner token derivation is stable across restarts.
    client
        .transform(first.id, &first.owner_token, &Transformation::FlipVertical)
        .unwrap();
    let second = client.upload(&bytes, &params).unwrap();
    assert!(second.id > first.id);
    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}

fn rand_seeded(seed: u8) -> impl rand::Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha20Rng::from_seed([seed; 32])
}

/// Serializes the tests that install the process-global obs subscriber
/// (and the one asserting its absence).
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One raw HTTP request with arbitrary extra header lines; returns the
/// status.
fn raw_request(addr: &str, method: &str, path: &str, extra: &str) -> u16 {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nhost: t\r\n{extra}connection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    String::from_utf8_lossy(&buf)
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status")
}

fn raw_get(addr: &str, path: &str, extra: &str) -> u16 {
    raw_request(addr, "GET", path, extra)
}

#[test]
fn unknown_paths_are_404_and_wrong_methods_on_known_paths_405() {
    let dir = tmp("routes");
    let run = start(&dir);
    for (method, path, status) in [
        ("GET", "/stats", 404),
        ("POST", "/admin/reload", 404),
        ("GET", "/photos/1/bogus", 404),
        ("GET", "/admin", 404),
        ("GET", "/nowhere", 404),
        ("GET", "/photos/1/params/x", 404),
        ("POST", "/grants/x", 404),
        ("DELETE", "/photos/1", 405),
        ("GET", "/photos/1/transformed", 405),
        ("GET", "/search", 405),
        ("GET", "/admin/shutdown", 405),
        ("POST", "/metrics", 405),
    ] {
        let got = raw_request(&run.addr, method, path, "");
        assert_eq!(got, status, "{method} {path}");
    }
    // No endpoint served any of them, so each request is accounted to
    // `other`, even where its path starts like a served one.
    let log = std::fs::read_to_string(dir.join("access.log")).unwrap();
    assert_eq!(log.lines().count(), 12);
    for line in log.lines() {
        assert!(line.contains(r#""endpoint":"other""#), "{line}");
    }
    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readyz_is_503_until_recovery_publishes_the_store() {
    let dir = tmp("readyz");
    // Seed the store with one upload so recovery has something to replay.
    let (bytes, params) = protected_photo(5);
    let seeded_id = {
        let run = start(&dir);
        let mut client = Client::connect(&run.addr).unwrap();
        let id = client.upload(&bytes, &params).unwrap().id;
        stop(run);
        id
    };
    let (server, recovery) = Server::bind_unready(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        dir: dir.clone(),
        fsync: false,
        psp: PspConfig::default(),
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let admin = std::fs::read_to_string(dir.join("admin.token"))
        .unwrap()
        .trim()
        .to_string();
    let join = std::thread::spawn(move || server.run().unwrap());

    // Liveness answers before replay; readiness and the store do not.
    assert_eq!(raw_get(&addr, "/healthz", ""), 200);
    assert_eq!(raw_get(&addr, "/readyz", ""), 503);
    let mut client = Client::connect(&addr).unwrap();
    assert!(!client.ready().unwrap());
    assert!(client.download(seeded_id).is_err());

    let stats = recovery.run().unwrap();
    assert!(stats.records > 0, "seeded WAL should replay records");
    assert_eq!(raw_get(&addr, "/readyz", ""), 200);
    // One liveness path: the old `/health` alias is gone.
    assert_eq!(raw_get(&addr, "/health", ""), 404);
    let mut client = Client::connect(&addr).unwrap();
    assert!(client.ready().unwrap());
    assert_eq!(client.download(seeded_id).unwrap(), bytes);

    let mut c = Client::connect(&addr).unwrap();
    c.shutdown(&admin).unwrap();
    join.join().unwrap();
    // The download refused during recovery is charged to `other`, not to
    // the download endpoint's error budget; `psp_ready` shows that outage.
    let log = std::fs::read_to_string(dir.join("access.log")).unwrap();
    let refused = format!(r#""path":"/photos/{}","status":503"#, seeded_id.0);
    let lines: Vec<&str> = log.lines().filter(|l| l.contains(&refused)).collect();
    assert_eq!(lines.len(), 1, "{log}");
    assert!(lines[0].contains(r#""endpoint":"other""#), "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_scrape_is_prometheus_text_and_counters_are_monotone() {
    let _guard = OBS_LOCK.lock().unwrap();
    let dir = tmp("metrics");
    let run = start(&dir);

    // Without a subscriber the scrape is an explicit 503, not empty-200.
    assert!(!puppies_obs::enabled());
    let mut client = Client::connect(&run.addr).unwrap();
    let err = client.metrics_text().unwrap_err();
    assert!(err.to_string().contains("503"), "got: {err}");

    let session = puppies_obs::Obs::install();
    let (bytes, params) = protected_photo(6);
    let receipt = client.upload(&bytes, &params).unwrap();
    client
        .download_transformed(receipt.id, &Transformation::Rotate90)
        .unwrap();
    client
        .download_transformed(receipt.id, &Transformation::Rotate90)
        .unwrap();

    let first = client.metrics_text().unwrap();
    assert!(first.contains("# TYPE psp_slo_requests_total counter"));
    assert!(first.contains("psp_ready 1"));
    assert!(first.contains("psp_net_connections "));
    for gone in [
        "psp_net_requests_total",
        "psp_net_errors_total",
        "psp_net_req_us",
        "psp_net_ready",
        "psp_net_reloads_total",
        "psp_slo_window_",
        "psp_slo_error_budget_burn_total",
        "psp_net_upload_us",
        "psp_net_transformed_us",
        "psp_net_other_us",
    ] {
        assert!(!first.contains(gone), "{gone} is still served");
    }
    // One miss served from coefficients, then one cache hit.
    let scrape = puppies_obs::parse_prometheus(&first).unwrap();
    let transformed = |path: &str| {
        scrape
            .counters
            .get(&format!(
                "psp_slo_served_total{{endpoint=\"transformed\",path=\"{path}\"}}"
            ))
            .copied()
    };
    assert_eq!(transformed("coeff-domain"), Some(1), "{first}");
    assert_eq!(transformed("cached"), Some(1), "{first}");
    assert_eq!(transformed("pixel-fallback"), None, "{first}");
    // Every endpoint with traffic has its latency counted once per request.
    let mut endpoints = 0;
    for (key, &requests) in &scrape.counters {
        let Some(labels) = key.strip_prefix("psp_slo_requests_total") else {
            continue;
        };
        let latency = &scrape.histograms[&format!("psp_slo_latency_us{labels}")];
        assert_eq!(latency.count, requests, "{key}");
        endpoints += 1;
    }
    assert!(endpoints >= 2, "{first}");
    // Every endpoint's requests, summed.
    let total = |text: &str, name: &str| -> f64 {
        text.lines()
            .filter(|l| l.starts_with(name))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    client.download(receipt.id).unwrap();
    let second = client.metrics_text().unwrap();
    assert!(
        total(&second, "psp_slo_requests_total") > total(&first, "psp_slo_requests_total"),
        "request counter must be monotone across scrapes"
    );
    // The structured access log captured the served-path fields.
    let log = std::fs::read_to_string(dir.join("access.log")).unwrap();
    assert!(log.contains("\"served\":\"coeff-domain\""), "got: {log}");
    assert!(log.contains("\"cache\":\"hit\""), "got: {log}");

    drop(session.finish());
    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_header_stitches_one_tree_and_malformed_headers_are_safe() {
    let _guard = OBS_LOCK.lock().unwrap();
    let dir = tmp("trace");
    let run = start(&dir);

    // Malformed or absent trace headers must never fail a request.
    for extra in [
        "",
        "x-puppies-trace: zzzz\r\n",
        "x-puppies-trace: 123\r\n",
        "x-puppies-trace: -\r\n",
        "x-puppies-trace: 1-2-3\r\n",
        "x-puppies-trace: ffffffffffffffffff-1\r\n",
    ] {
        assert_eq!(
            raw_get(&run.addr, "/healthz", extra),
            200,
            "extra={extra:?}"
        );
    }

    let session = puppies_obs::Obs::install();
    let (bytes, params) = protected_photo(8);
    {
        let _root = puppies_obs::span("test.e2e", "test");
        let mut client = Client::connect(&run.addr).unwrap();
        let receipt = client.upload(&bytes, &params).unwrap();
        client
            .download_transformed(receipt.id, &Transformation::Rotate90)
            .unwrap();
        let cluster =
            puppies_psp::ShardedPspCluster::new(puppies_psp::ClusterConfig::new(3, 2)).unwrap();
        let grant = OwnerKey::from_seed([8u8; 32]).grant_all();
        let id = cluster
            .upload(bytes.clone(), params.clone(), &grant)
            .unwrap();
        cluster.reconstruct(id).unwrap();
    }
    let obs = session.finish().unwrap();
    let spans = obs.spans();
    let by_id: std::collections::HashMap<u64, &puppies_obs::SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();
    let root = spans
        .iter()
        .find(|s| s.name == "test.e2e")
        .expect("root span recorded");
    let descends_from_root = |mut id: u64| -> bool {
        // Walk parents; depth-capped in case of concurrent-test noise.
        for _ in 0..64 {
            if id == root.id {
                return true;
            }
            match by_id.get(&id) {
                Some(s) if s.parent != 0 => id = s.parent,
                _ => return false,
            }
        }
        false
    };
    let client_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "psp.net.client_call" && descends_from_root(s.id))
        .map(|s| s.id)
        .collect();
    assert!(!client_ids.is_empty(), "client spans under the test root");
    // The server adopted the wire trace context: its request spans hang
    // off this process's client spans, completing one connected tree.
    let adopted = spans
        .iter()
        .filter(|s| s.name == "psp.net.request" && client_ids.contains(&s.parent))
        .count();
    assert!(
        adopted >= 2,
        "server spans parented to client spans (upload + transform), got {adopted}"
    );
    // Cluster fan-out spans joined the same tree: one per backend for the
    // store, at least k for the reconstruct fetch.
    let backend_stores = spans
        .iter()
        .filter(|s| s.name == "cluster.backend.store" && descends_from_root(s.id))
        .count();
    let backend_fetches = spans
        .iter()
        .filter(|s| s.name == "cluster.backend.fetch" && descends_from_root(s.id))
        .count();
    assert_eq!(backend_stores, 3, "one store span per backend");
    assert!(
        backend_fetches >= 2,
        "at least k fetch spans, got {backend_fetches}"
    );

    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_connections_are_accepted_without_a_polling_delay() {
    // The accept loop blocks in `accept`; a loop that slept between
    // nonblocking polls made every fresh connection wait for its tick.
    let dir = tmp("accept");
    let run = start(&dir);
    let began = std::time::Instant::now();
    for _ in 0..40 {
        Client::connect(&run.addr).unwrap().health().unwrap();
    }
    let took = began.elapsed();
    assert!(
        took < std::time::Duration::from_millis(400),
        "40 fresh connections took {took:?}"
    );
    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}

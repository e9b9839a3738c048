//! The serving loop: a thread-per-connection HTTP/1.1 front end over
//! [`DiskStore`], with graceful drain on SIGTERM, SIGINT or SIGHUP.
//!
//! The accept loop blocks in `accept`, so a new connection is picked up
//! the moment it arrives. Every way into a drain — `POST /admin/shutdown`,
//! a failed recovery, a signal (seen by a small watcher thread within
//! 25 ms) — sets the drain flag and
//! then wakes the accept with a connection to the server's own address,
//! so new connections stop immediately; handler threads notice the drain
//! at their next idle poll (≤500 ms), finish the request they are on, and
//! exit. The WAL is synced before [`Server::run`]
//! returns, so a graceful stop loses nothing even with per-append fsync
//! disabled. A `kill -9` at any point is also safe — that is the WAL's
//! job, not the drain's.
//!
//! # Observability
//!
//! The listener comes up *before* WAL replay ([`Server::bind_unready`] +
//! [`Recovery::run`]), so `/healthz` answers from the first instant while
//! `/readyz` returns 503 until recovery publishes the store — orchestrators
//! can distinguish "booting" from "dead" during long replays. `/metrics`
//! serves the process-wide [`puppies_obs`] registry in Prometheus text
//! format plus the per-endpoint SLO families ([`super::slo`]).
//! Requests carrying an `x-puppies-trace` header are adopted as children
//! of the caller's span, so one Chrome trace stitches client, server, and
//! backends. Each request is timed once into one [`Sample`], which feeds
//! both the SLO series and a structured access log (JSON lines,
//! `access.log` in the store dir) that records every request.

use super::http::{self, ReadOutcome, Request, Response};
use super::proto;
use super::slo::{Sample, SloRegistry};
use crate::sha256::{ct_eq, sha256_concat};
use crate::store::{PhotoId, PspConfig, ServedPath};
use crate::store_disk::{DiskStore, RecoveryStats};
use crate::{PspError, Result};
use puppies_transform::Transformation;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// How the server is stood up, fixed for the process lifetime.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (port 0 for ephemeral).
    pub addr: String,
    /// Store directory (`wal.log`, `admin.token`, `access.log`).
    pub dir: PathBuf,
    /// Whether every WAL append fsyncs (durability) — disable only for
    /// benchmarks that measure something other than the disk.
    pub fsync: bool,
    /// In-memory store configuration (transform-cache budget, decode
    /// memo size).
    pub psp: PspConfig,
}

impl ServeConfig {
    /// A config with the default [`PspConfig`] and fsync on.
    pub fn new(addr: impl Into<String>, dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            dir: dir.into(),
            fsync: true,
            psp: PspConfig::default(),
        }
    }
}

/// Largest accepted request body: two max-size frames plus framing slack.
const MAX_BODY: usize = 2 * proto::MAX_FRAME_LEN + 64;

/// A request at least this slow is marked `"slow":true` in the access log.
const SLOW_REQUEST_US: u64 = 250_000;

// Process-wide signal flags. Signal handlers may only do async-signal-safe
// work; a relaxed store to a static atomic is exactly that.
static SIG_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Routes SIGHUP, SIGINT and SIGTERM to the drain. A hangup drains too:
/// its default action would kill the process without the final WAL sync.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_shutdown(_: i32) {
        SIG_SHUTDOWN.store(true, Ordering::Relaxed);
    }
    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        for signum in [SIGHUP, SIGINT, SIGTERM] {
            signal(signum, on_shutdown as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// 32 token bytes from the OS CSPRNG (`/dev/urandom`) when it exists,
/// else SHA-256 over the wall clock, the pid and a stack address.
fn random_token() -> [u8; 32] {
    let mut out = [0u8; 32];
    if std::fs::File::open("/dev/urandom")
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut out))
        .is_ok()
    {
        return out;
    }
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let addr = &out as *const _ as usize;
    sha256_concat(&[
        &nanos.to_le_bytes(),
        &std::process::id().to_le_bytes(),
        &addr.to_le_bytes(),
    ])
}

/// Shared state between the accept loop and handler threads.
struct Shared {
    /// Published by [`Recovery::run`] once WAL replay finishes; every
    /// store-touching route is gated on `ready` first.
    store: OnceLock<DiskStore>,
    ready: AtomicBool,
    admin_token: String,
    draining: AtomicBool,
    connections: AtomicUsize,
    slo: SloRegistry,
    access_log: Mutex<Option<File>>,
    /// The access log's `seq` field.
    access_seq: AtomicU64,
    /// Where a connection reaches the listener, to wake a blocked
    /// `accept` when a drain starts.
    wake_addr: SocketAddr,
}

impl Shared {
    /// Starts the drain: no new connections, in-flight ones finish.
    fn begin_drain(&self) {
        // SeqCst, paired with the accept loop's load: the flag is set
        // before the wake-up connection exists.
        self.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag; if this connect fails
        // the listener is already gone, and nothing is blocked on it.
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    fn store(&self) -> &DiskStore {
        self.store.get().expect("store-touching route before ready")
    }

    fn ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Per-photo owner token: a one-way keyed derivation from the admin
    /// secret, `SHA-256(domain ‖ admin token ‖ id)`. Keyed so tokens
    /// survive restarts without widening the WAL; one-way so no uploader
    /// can invert their own token back to the secret and forge another
    /// photo's (an invertible mix like FNV allows exactly that).
    fn owner_token(&self, id: PhotoId) -> String {
        let digest = sha256_concat(&[
            b"puppies.owner.v1",
            self.admin_token.as_bytes(),
            &id.0.to_le_bytes(),
        ]);
        proto::hex(&digest)
    }
}

/// A bound, ready-to-run PSP service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// The deferred store-recovery step from [`Server::bind_unready`]: the
/// listener is already answering `/healthz` (and 503ing `/readyz`) while
/// this replays the WAL. [`Recovery::run`] publishes the store and flips
/// the server ready.
pub struct Recovery {
    shared: Arc<Shared>,
    dir: PathBuf,
    psp: PspConfig,
    fsync: bool,
}

impl Recovery {
    /// Opens the store (replaying the WAL), publishes it, and marks the
    /// server ready.
    ///
    /// # Errors
    /// Fails on recovery errors; the paired server is put into drain so
    /// its accept loop exits rather than 503 forever.
    pub fn run(self) -> Result<RecoveryStats> {
        match DiskStore::open(&self.dir, self.psp, self.fsync) {
            Ok(store) => {
                let stats = store.recovery();
                let _ = self.shared.store.set(store);
                self.shared.ready.store(true, Ordering::Release);
                Ok(stats)
            }
            Err(e) => {
                self.shared.begin_drain();
                Err(e)
            }
        }
    }
}

impl Server {
    /// Opens (recovering) the store, loads or mints `admin.token`, and
    /// binds the listener. Nothing is served until
    /// [`Server::run`].
    ///
    /// # Errors
    /// Fails on recovery errors or if the address cannot be bound.
    pub fn bind(config: &ServeConfig) -> Result<Server> {
        let (server, recovery) = Server::bind_unready(config)?;
        recovery.run()?;
        Ok(server)
    }

    /// Binds the listener and mints tokens but defers store recovery to
    /// the returned [`Recovery`], so the caller can serve liveness checks
    /// during a long WAL replay. Until `Recovery::run` completes, every
    /// store-touching endpoint answers 503 and `/readyz` says why.
    ///
    /// # Errors
    /// Fails if the address cannot be bound or the token cannot persist.
    pub fn bind_unready(config: &ServeConfig) -> Result<(Server, Recovery)> {
        std::fs::create_dir_all(&config.dir)
            .map_err(|e| PspError::Channel(format!("creating {}: {e}", config.dir.display())))?;
        let token_path = config.dir.join("admin.token");
        let admin_token = match std::fs::read_to_string(&token_path) {
            Ok(t) if t.trim().len() == 64 => t.trim().to_string(),
            _ => {
                let minted = proto::hex(&random_token());
                std::fs::write(&token_path, &minted)
                    .map_err(|e| PspError::Channel(format!("writing admin token: {e}")))?;
                minted
            }
        };
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| PspError::Channel(format!("binding {}: {e}", config.addr)))?;
        let mut wake_addr = listener
            .local_addr()
            .map_err(|e| PspError::Channel(format!("local addr: {e}")))?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let access_log = File::options()
            .create(true)
            .append(true)
            .open(config.dir.join("access.log"))
            .ok();
        let shared = Arc::new(Shared {
            store: OnceLock::new(),
            ready: AtomicBool::new(false),
            admin_token,
            draining: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            slo: SloRegistry::new(),
            access_log: Mutex::new(access_log),
            access_seq: AtomicU64::new(0),
            wake_addr,
        });
        let recovery = Recovery {
            shared: Arc::clone(&shared),
            dir: config.dir.clone(),
            psp: config.psp.clone(),
            fsync: config.fsync,
        };
        Ok((Server { listener, shared }, recovery))
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Errors
    /// Propagates the socket error.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// What recovery found when the store was opened. Meaningful only
    /// after recovery has run (always true for [`Server::bind`]).
    pub fn recovery(&self) -> RecoveryStats {
        self.shared
            .store
            .get()
            .map(DiskStore::recovery)
            .unwrap_or_default()
    }

    /// Serves until SIGTERM/SIGINT/SIGHUP or `POST /admin/shutdown`, then drains:
    /// stops accepting, lets in-flight requests finish (10 s deadline),
    /// syncs the WAL, returns.
    ///
    /// # Errors
    /// Fails on listener errors or a failed final WAL sync.
    pub fn run(self) -> Result<()> {
        install_signal_handlers();
        let watcher = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || watch_signals(&shared))
        };
        while !self.draining() {
            match self.listener.accept() {
                // The wake-up connection, or a client racing the drain.
                Ok(_) if self.draining() => break,
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    puppies_obs::counter_add("psp.net.conn_accepted", 1);
                    std::thread::spawn(move || {
                        let _ = handle_connection(&shared, stream);
                        shared.connections.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                Err(e) => {
                    self.shared.draining.store(true, Ordering::Relaxed);
                    let _ = watcher.join();
                    return Err(PspError::Channel(format!("accept: {e}")));
                }
            }
        }
        // Drain: handler threads poll `draining` at least every 500 ms.
        self.shared.draining.store(true, Ordering::Relaxed);
        let _ = watcher.join();
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.connections.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
        }
        match self.shared.store.get() {
            Some(store) => store.sync(),
            // Recovery never published a store; nothing to sync.
            None => Ok(()),
        }
    }

    fn draining(&self) -> bool {
        SIG_SHUTDOWN.load(Ordering::Relaxed) || self.shared.draining.load(Ordering::SeqCst)
    }
}

/// Turns the process-wide signal flag into a drain for one server (which
/// wakes the blocked accept loop). Signal handlers can only set flags, so
/// this polls the flag — off the request path.
fn watch_signals(shared: &Shared) {
    while !shared.draining.load(Ordering::Relaxed) {
        if SIG_SHUTDOWN.load(Ordering::Relaxed) {
            shared.begin_drain();
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One client connection: serve requests until close, malformed input, a
/// drain, or `connection: close`.
fn handle_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        // Poll for the start of a request without consuming anything, so a
        // read timeout here (the idle keep-alive case) can never tear a
        // half-read request head.
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // peer closed
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::Relaxed) || SIG_SHUTDOWN.load(Ordering::Relaxed) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let req = match http::read_request(&mut reader, MAX_BODY)? {
            ReadOutcome::Request(req) => req,
            ReadOutcome::Closed => return Ok(()),
            ReadOutcome::Malformed(status, why) => {
                let _ = http::write_response(&mut writer, &Response::status(status, why), false);
                return Ok(());
            }
        };
        let keep_alive = req.keep_alive();
        // Adopt the caller's trace context when the header parses; a
        // malformed or absent header degrades to a fresh root span, never
        // an error — tracing must not be able to fail a request.
        let trace = req
            .header("x-puppies-trace")
            .and_then(puppies_obs::TraceContext::parse);
        let started = Instant::now();
        let mut served = None;
        let (endpoint, resp) = {
            let _span = match &trace {
                Some(ctx) => {
                    puppies_obs::span_with_parent("psp.net.request", "net.server", ctx.span_id)
                }
                None => puppies_obs::span("psp.net.request", "net.server"),
            };
            route(shared, &req, &mut served)
        };
        let sample = Sample {
            ok: resp.status < 500,
            latency_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            served,
        };
        if endpoint != SCRAPE {
            shared.slo.record(endpoint, sample);
        }
        log_access(shared, endpoint, &req, &resp, sample, trace.as_ref());
        let shutdown_after = resp.status == 202 && req.path == "/admin/shutdown";
        http::write_response(&mut writer, &resp, keep_alive && !shutdown_after)?;
        if shutdown_after {
            shared.begin_drain();
            return Ok(());
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Appends one finished request to the structured access log. `sample`
/// is the record the SLO series got; its `served` is the path a
/// transform-door response took, as its handler reported.
fn log_access(
    shared: &Shared,
    endpoint: &'static str,
    req: &Request,
    resp: &Response,
    sample: Sample,
    trace: Option<&puppies_obs::TraceContext>,
) {
    let dur_us = sample.latency_us;
    let seq = shared.access_seq.fetch_add(1, Ordering::Relaxed);
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut line = format!(
        "{{\"ts_ms\":{ts_ms},\"seq\":{seq},\"method\":\"{}\",\"path\":\"{}\",\"status\":{},\"dur_us\":{dur_us},\"bytes_in\":{},\"bytes_out\":{},\"endpoint\":\"{endpoint}\"",
        puppies_obs::escape_json(&req.method),
        puppies_obs::escape_json(&req.path),
        resp.status,
        req.body.len(),
        resp.body.len(),
    );
    if let Some(s) = sample.served {
        line.push_str(&format!(
            ",\"cache\":\"{}\",\"served\":\"{}\"",
            cache_header(s),
            s.as_str()
        ));
    }
    if let Some(t) = trace {
        line.push_str(&format!(",\"trace\":\"{}\"", t.header_value()));
    }
    if dur_us >= SLOW_REQUEST_US {
        line.push_str(",\"slow\":true");
    }
    line.push_str("}\n");
    let mut guard = shared
        .access_log
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(log) = guard.as_mut() {
        // A dead log must not take requests down with it.
        if log.write_all(line.as_bytes()).is_err() {
            *guard = None;
        }
    }
}

fn error_response(e: &PspError) -> Response {
    match e {
        PspError::UnknownPhoto(_) => Response::status(404, "unknown photo"),
        PspError::Transform(e) => Response::status(400, &format!("transform: {e}")),
        PspError::Core(e) => Response::status(400, &format!("core: {e}")),
        PspError::IdsExhausted => Response::status(503, "id space exhausted"),
        PspError::Channel(m) => Response::status(500, m),
        PspError::Cluster(m) => Response::status(500, m),
    }
}

fn respond<T>(out: Result<T>, ok: impl FnOnce(T) -> Response) -> Response {
    match out {
        Ok(v) => ok(v),
        Err(e) => error_response(&e),
    }
}

/// `x-cache` value for a transform response.
fn cache_header(served: ServedPath) -> &'static str {
    if served.cache_hit() {
        "hit"
    } else {
        "miss"
    }
}

/// Dispatches one request and names the endpoint that answered it, the
/// key of the SLO trackers (see [`super::slo::ENDPOINTS`]), or
/// [`SCRAPE`], which they leave out. The transform door reports the path
/// it served through `served`; every other route leaves it `None`.
fn route(
    shared: &Shared,
    req: &Request,
    served: &mut Option<ServedPath>,
) -> (&'static str, Response) {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        // Liveness, readiness, and metrics answer before the store is
        // recovered; everything below the ready guard needs the store.
        ("GET", ["healthz"]) => ("other", Response::text("ok\n")),
        ("GET", ["readyz"]) => ("other", readyz(shared)),
        ("GET", ["metrics"]) => (SCRAPE, metrics(shared)),
        _ if !shared.ready() => (
            "other",
            Response::status(503, "starting: store recovery in progress"),
        ),
        ("POST", ["photos"]) => ("upload", upload(shared, req)),
        ("GET", ["photos", id]) => (
            "download",
            with_id(id, |id| {
                respond(shared.store().server().download(id), |b| {
                    Response::ok(b.to_vec())
                })
            }),
        ),
        ("GET", ["photos", id, "params"]) => (
            "params",
            with_id(id, |id| {
                respond(shared.store().server().download_params(id), |p| {
                    Response::ok(p.to_vec())
                })
            }),
        ),
        ("POST", ["photos", id, "transformed"]) => (
            "transformed",
            with_id(id, |id| download_transformed(shared, req, id, served)),
        ),
        ("POST", ["photos", id, "transform"]) => {
            ("transform", with_id(id, |id| transform(shared, req, id)))
        }
        ("POST", ["search"]) => ("search", search(shared, req)),
        ("POST", ["receivers"]) => ("receivers", register_receiver(shared, req)),
        ("POST", ["grants"]) => ("grants", deposit_grant(shared, req)),
        ("GET", ["grants"]) => ("grants", drain_grants(shared, req)),
        ("POST", ["admin", "shutdown"]) => ("other", shutdown(shared, req)),
        // A path that exists, asked with a method it does not serve.
        (
            _,
            ["healthz" | "readyz" | "metrics" | "photos" | "search" | "receivers" | "grants"]
            | ["photos", _]
            | ["photos", _, "params" | "transformed" | "transform"]
            | ["admin", "shutdown"],
        ) => ("other", Response::status(405, "method not allowed")),
        _ => ("other", Response::status(404, "no such endpoint")),
    }
}

/// The access-log endpoint of a `GET /metrics`. Scrapes are the monitor's
/// own traffic, so the SLO series leave them out: counted, every poll
/// would show up as load on the server it watches.
const SCRAPE: &str = "metrics";

/// Readiness: 200 only when the store is recovered and its IO is healthy.
/// The 503 body lists every failing condition, one per line.
fn readyz(shared: &Shared) -> Response {
    let mut reasons: Vec<String> = Vec::new();
    if !shared.ready() {
        reasons.push("store: wal replay in progress".to_string());
    } else if !shared.store().io_healthy() {
        reasons.push(format!(
            "store: {} io failures recorded",
            shared.store().io_failures()
        ));
    }
    if reasons.is_empty() {
        Response::text("ready\n")
    } else {
        Response::status(503, &reasons.join("\n"))
    }
}

/// The Prometheus text exposition: the process-wide [`puppies_obs`]
/// registry, the per-endpoint SLO families, and the server's own
/// readiness/connection gauges. 503 when no subscriber is installed, so a
/// scrape of a metrics-less process is an explicit failure rather than
/// an empty success.
fn metrics(shared: &Shared) -> Response {
    let Some(mut out) = puppies_obs::with(|obs| puppies_obs::prometheus_text(obs.metrics())) else {
        return Response::status(503, "no metrics subscriber installed");
    };
    out.push_str(&shared.slo.render_prometheus());
    out.push_str("# HELP psp_ready whether the store is recovered and serving\n");
    out.push_str("# TYPE psp_ready gauge\n");
    out.push_str(if shared.ready() {
        "psp_ready 1\n"
    } else {
        "psp_ready 0\n"
    });
    out.push_str("# HELP psp_net_connections open client connections\n");
    out.push_str("# TYPE psp_net_connections gauge\n");
    out.push_str(&format!(
        "psp_net_connections {}\n",
        shared.connections.load(Ordering::Relaxed)
    ));
    Response::ok(out.into_bytes()).with_header("content-type", "text/plain; version=0.0.4")
}

fn with_id(raw: &str, f: impl FnOnce(PhotoId) -> Response) -> Response {
    match raw.parse::<u64>() {
        Ok(id) => f(PhotoId(id)),
        Err(_) => Response::status(400, "bad photo id"),
    }
}

/// `POST /admin/shutdown`: 202 with the admin token; the connection
/// handler starts the drain once the response is written.
fn shutdown(shared: &Shared, req: &Request) -> Response {
    match req.bearer() {
        Some(token) if ct_eq(token.as_bytes(), shared.admin_token.as_bytes()) => {
            Response::status(202, "draining")
        }
        Some(_) => Response::status(403, "bad admin token"),
        None => Response::status(401, "admin token required"),
    }
}

fn upload(shared: &Shared, req: &Request) -> Response {
    let Some((bytes, params)) = proto::decode_pair(&req.body) else {
        return Response::status(400, "bad upload body");
    };
    respond(
        shared.store().upload(bytes.to_vec(), params.to_vec()),
        |id| Response::text(format!("id:{}\ntoken:{}\n", id.0, shared.owner_token(id))),
    )
}

/// `POST /search` — near-duplicate lookup over the whole store. The body
/// is an [`proto::encode_pair`] of (probe image bytes, public-parameter
/// blob; empty for none). The probe is hashed exactly like an upload —
/// public data only — and matched against the sublinear signature index;
/// a probe of stored content is answered from the signature memo without
/// decoding ([`crate::store::PspServer::search_signature`]). Both frames
/// are read in place from the request body.
/// Response: `sig:<hex>` then one `<photo id> <hamming distance>` line
/// per match, nearest first.
fn search(shared: &Shared, req: &Request) -> Response {
    let Some((bytes, params)) = proto::decode_pair(&req.body) else {
        return Response::status(400, "bad search body");
    };
    let server = shared.store().server();
    let Some(sig) = server.search_signature(bytes, params) else {
        return Response::status(400, "probe image did not decode");
    };
    let matches = server.search_similar(sig, crate::sig::NEAR_DUP_DISTANCE, 256);
    let mut body = format!("sig:{sig:016x}\n");
    for (id, distance) in matches {
        body.push_str(&format!("{} {distance}\n", id.0));
    }
    Response::text(body)
}

fn download_transformed(
    shared: &Shared,
    req: &Request,
    id: PhotoId,
    served: &mut Option<ServedPath>,
) -> Response {
    let Ok(t) = Transformation::from_bytes(&req.body) else {
        return Response::status(400, "bad transformation encoding");
    };
    respond(
        shared.store().server().download_transformed_traced(id, &t),
        |((bytes, params), path)| {
            *served = Some(path);
            Response::ok(proto::encode_pair(&bytes, &params))
                .with_header("x-cache", cache_header(path))
                .with_header("x-served-path", path.as_str())
        },
    )
}

fn transform(shared: &Shared, req: &Request, id: PhotoId) -> Response {
    match req.bearer() {
        Some(token) if ct_eq(token.as_bytes(), shared.owner_token(id).as_bytes()) => {}
        Some(_) => return Response::status(403, "bad owner token"),
        None => return Response::status(401, "owner token required"),
    }
    let Ok(t) = Transformation::from_bytes(&req.body) else {
        return Response::status(400, "bad transformation encoding");
    };
    respond(shared.store().transform(id, &t), |()| {
        Response::status(204, "transformed")
    })
}

fn register_receiver(shared: &Shared, req: &Request) -> Response {
    let Ok(public): std::result::Result<[u8; 16], _> = req.body.as_slice().try_into() else {
        return Response::status(400, "body must be a 16-byte DH public value");
    };
    let token = random_token();
    respond(
        shared
            .store()
            .register_receiver(u128::from_le_bytes(public), token),
        |()| Response::text(format!("token:{}\n", proto::hex(&token))),
    )
}

fn deposit_grant(shared: &Shared, req: &Request) -> Response {
    let body = &req.body;
    if body.len() < 32 {
        return Response::status(400, "bad grant body");
    }
    let receiver = u128::from_le_bytes(body[..16].try_into().unwrap());
    let sender = u128::from_le_bytes(body[16..32].try_into().unwrap());
    let mut pos = 32;
    let Some(ciphertext) = proto::take_frame(body, &mut pos) else {
        return Response::status(400, "bad grant ciphertext frame");
    };
    if pos != body.len() {
        return Response::status(400, "trailing bytes after grant");
    }
    respond(
        shared
            .store()
            .deposit_grant(receiver, sender, ciphertext.to_vec()),
        |()| Response::status(204, "deposited"),
    )
}

fn drain_grants(shared: &Shared, req: &Request) -> Response {
    let Some(token) = req.bearer() else {
        return Response::status(401, "receiver token required");
    };
    let Some(receiver) = proto::unhex(token)
        .filter(|t| t.len() == 32)
        .and_then(|t| shared.store().receiver_for_token(&t))
    else {
        return Response::status(403, "unknown receiver token");
    };
    respond(shared.store().drain_grants(receiver), |deposits| {
        let mut out = Vec::new();
        for (sender, ciphertext) in deposits {
            out.extend_from_slice(&sender.to_le_bytes());
            proto::put_frame(&mut out, &ciphertext);
        }
        Response::ok(out)
    })
}

/// Convenience: bind and run in one call (the CLI entry point).
///
/// Installs a metrics-only [`puppies_obs`] subscriber when none is
/// active (so `/metrics` always has something to serve), announces the
/// bound address immediately, and replays the WAL on a side thread while
/// the listener already answers `/healthz` — the `ready` line prints when
/// recovery lands.
///
/// # Errors
/// As [`Server::bind`] and [`Server::run`]; a recovery failure surfaces
/// after the accept loop drains.
pub fn serve(config: &ServeConfig) -> Result<()> {
    if !puppies_obs::enabled() {
        // Deliberately leaked: metrics stay live for the process lifetime.
        // No route exports a trace, so no span records are kept.
        std::mem::forget(puppies_obs::Obs::install_metrics_only());
    }
    let (server, recovery) = Server::bind_unready(config)?;
    let addr = server
        .local_addr()
        .map_err(|e| PspError::Channel(format!("local addr: {e}")))?;
    let mut stdout = io::stdout();
    let _ = writeln!(stdout, "psp-serve listening on {addr}");
    let _ = stdout.flush();
    let replay = std::thread::spawn(move || {
        let result = recovery.run();
        if let Ok(rec) = &result {
            let mut stdout = io::stdout();
            let _ = writeln!(
                stdout,
                "psp-serve ready (recovered {} records, {} photos, truncated {} bytes)",
                rec.records, rec.photos, rec.truncated_bytes
            );
            let _ = stdout.flush();
        }
        result
    });
    let ran = server.run();
    let recovered = replay
        .join()
        .map_err(|_| PspError::Channel("recovery thread panicked".into()))?;
    recovered?;
    ran
}

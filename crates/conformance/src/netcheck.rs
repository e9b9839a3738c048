//! Network round-trip conformance: the wire must be *unobservable*
//! except in latency.
//!
//! The serving suite ([`crate::serving`]) proves the in-process PSP's
//! cache is coherent; this suite proves the network stack on top of it —
//! HTTP framing, length-prefixed bodies, the canonical transformation
//! encoding, and the on-disk store behind the server — adds nothing and
//! loses nothing:
//!
//! * every transformation family served over TCP returns bytes and
//!   params **byte-identical** to an in-process [`PspServer`] fed the
//!   same upload;
//! * upload → download round-trips the exact protected bitstream (the
//!   Kobayashi–Kiya property: protected JPEGs cross the service boundary
//!   with no re-encoding);
//! * a repeated wire request reports a cache hit (`x-cache`) and serves
//!   the same bytes as the miss that populated it;
//! * a server restart on the same store directory recovers every upload
//!   byte-identical (WAL replay, blobs included, as observed by a client).
//!
//! * the observability surface holds its contract: `/healthz` and
//!   `/readyz` answer 200 on a recovered server, `/metrics` is
//!   Prometheus text when a subscriber is installed (an explicit 503
//!   when not), and a malformed `x-puppies-trace` header never turns
//!   into an error response.
//!
//! The server runs in-process on an ephemeral loopback port with a
//! throwaway store; each case is an honest client round trip.

use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_psp::net::client::WireCache;
use puppies_psp::net::{Client, ServeConfig, Server};
use puppies_psp::{PspConfig, PspServer};
use puppies_transform::{FilterOp, ScaleFilter, Transformation};
use std::path::PathBuf;

use crate::report::Report;

fn fixture(seed: u8) -> (Vec<u8>, Vec<u8>) {
    let img = RgbImage::from_fn(64, 48, |x, y| {
        Rgb::new(
            (32 + (x * 5 + y * 2 + seed as u32) % 192) as u8,
            (32 + (x * 2 + y * 4) % 192) as u8,
            (32 + (x + y * 3 + seed as u32 * 7) % 192) as u8,
        )
    });
    let key = OwnerKey::from_seed([seed; 32]);
    let protected = protect(
        &img,
        &[Rect::new(16, 8, 24, 24)],
        &key,
        &ProtectOptions::default(),
    )
    .expect("fixture protects");
    (protected.bytes, protected.params.to_bytes())
}

fn wire_cases() -> Vec<(&'static str, Transformation)> {
    vec![
        ("rot90", Transformation::Rotate90),
        ("rot270", Transformation::Rotate270),
        ("flipv", Transformation::FlipVertical),
        ("crop", Transformation::Crop(Rect::new(8, 8, 32, 24))),
        ("recompress", Transformation::Recompress { quality: 40 }),
        (
            "scale",
            Transformation::Scale {
                width: 32,
                height: 24,
                filter: ScaleFilter::Bilinear,
            },
        ),
        (
            "gaussian",
            Transformation::Filter(FilterOp::Gaussian { sigma: 1.2 }),
        ),
        (
            "overlay",
            Transformation::Overlay {
                rect: Rect::new(0, 0, 16, 16),
                color: Rgb::new(255, 255, 255),
                alpha: 0.6,
            },
        ),
    ]
}

/// A server on an ephemeral port over a throwaway store. Dropping does
/// not stop it; callers shut it down via the admin token.
struct Wire {
    addr: String,
    admin: String,
    thread: std::thread::JoinHandle<puppies_psp::Result<()>>,
}

fn boot(dir: &PathBuf) -> Result<Wire, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
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
    let thread = std::thread::spawn(move || server.run());
    let admin = std::fs::read_to_string(dir.join("admin.token"))
        .map_err(|e| format!("admin token: {e}"))?
        .trim()
        .to_string();
    Ok(Wire {
        addr,
        admin,
        thread,
    })
}

/// One raw GET with arbitrary extra header lines; returns the HTTP status.
fn raw_get(addr: &str, path: &str, extra: &str) -> Result<u16, String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nhost: c\r\n{extra}connection: close\r\n\r\n"
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| format!("read: {e}"))?;
    String::from_utf8_lossy(&buf)
        .split_whitespace()
        .nth(1)
        .ok_or_else(|| "no status line".to_string())?
        .parse()
        .map_err(|e| format!("bad status: {e}"))
}

impl Wire {
    fn stop(self) -> Result<(), String> {
        let mut client = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        client
            .shutdown(&self.admin)
            .map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// The network round-trip oracle (see module docs).
pub fn run_netcheck() -> Report {
    let _span = puppies_obs::span("conformance.netcheck.run", "conformance");
    let mut report = Report::new();
    let dir = std::env::temp_dir().join(format!("puppies_conf_net_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    if let Err(e) = run_inner(&dir, &mut report) {
        report.fail("netcheck/harness", e);
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn run_inner(dir: &PathBuf, report: &mut Report) -> Result<(), String> {
    let wire = boot(dir)?;
    let mut client = Client::connect(&wire.addr).map_err(|e| format!("connect: {e}"))?;
    let reference = PspServer::new();

    // Observability surface: health/readiness/metrics contract plus
    // trace-header robustness, before any traffic flows.
    {
        let case = "netcheck/obs/health";
        match (
            raw_get(&wire.addr, "/healthz", ""),
            raw_get(&wire.addr, "/readyz", ""),
        ) {
            (Ok(200), Ok(200)) => report.pass(case, Some("healthz and readyz answer 200".into())),
            (h, r) => report.fail(case, format!("healthz={h:?} readyz={r:?}, want 200/200")),
        }
    }
    {
        let case = "netcheck/obs/trace-header";
        match raw_get(&wire.addr, "/healthz", "x-puppies-trace: not-a-trace\r\n") {
            Ok(200) => report.pass(case, Some("malformed trace header ignored".into())),
            other => report.fail(case, format!("malformed trace header gave {other:?}")),
        }
    }
    {
        let case = "netcheck/obs/metrics";
        match client.metrics_text() {
            Ok(text) if puppies_obs::enabled() => {
                if text.contains("psp_ready 1") && text.contains("# TYPE") {
                    report.pass(case, Some(format!("{} bytes of exposition", text.len())));
                } else {
                    report.fail(case, "metrics text missing psp_ready/# TYPE lines");
                }
            }
            Ok(_) => report.fail(case, "metrics served without a subscriber installed"),
            Err(e) if !puppies_obs::enabled() && e.to_string().contains("503") => {
                report.pass(case, Some("explicit 503 without a subscriber".into()))
            }
            Err(e) => report.fail(case, format!("metrics scrape: {e}")),
        }
    }

    let (bytes, params) = fixture(11);
    let receipt = client
        .upload(&bytes, &params)
        .map_err(|e| format!("upload: {e}"))?;
    let ref_id = reference
        .upload(bytes.clone(), params.clone())
        .map_err(|e| format!("reference upload: {e}"))?;

    // Bitstream fidelity across the boundary: exact protected bytes back.
    {
        let case = "netcheck/round-trip/bitstream";
        let down = client
            .download(receipt.id)
            .map_err(|e| format!("download: {e}"))?;
        let p = client
            .download_params(receipt.id)
            .map_err(|e| format!("params: {e}"))?;
        if down != bytes {
            report.fail(case, "downloaded bitstream differs from the upload");
        } else if p != params {
            report.fail(case, "downloaded params differ from the upload");
        } else {
            report.pass(case, Some(format!("{} bytes unmodified", down.len())));
        }
    }

    // Wire-vs-in-process parity and cache coherence per transformation.
    for (name, t) in wire_cases() {
        let case = format!("netcheck/parity/{name}");
        let (net_b, net_p, first) = match client.download_transformed(receipt.id, &t) {
            Ok(r) => r,
            Err(e) => {
                report.fail(case, format!("wire serve failed: {e}"));
                continue;
            }
        };
        let (rep_b, rep_p, second) = match client.download_transformed(receipt.id, &t) {
            Ok(r) => r,
            Err(e) => {
                report.fail(case, format!("wire repeat failed: {e}"));
                continue;
            }
        };
        let (ref_b, ref_p) = match reference.download_transformed(ref_id, &t) {
            Ok(r) => r,
            Err(e) => {
                report.fail(case, format!("in-process serve failed: {e}"));
                continue;
            }
        };
        if net_b != ref_b.to_vec() || net_p != ref_p.to_vec() {
            report.fail(case, "wire result diverged from in-process result");
        } else if rep_b != net_b || rep_p != net_p {
            report.fail(case, "cached wire repeat diverged from the first answer");
        } else if first == WireCache::Hit && second == WireCache::Miss {
            report.fail(
                case,
                "cache reported hit-then-miss for an identical request",
            );
        } else {
            report.pass(
                case,
                Some(format!(
                    "{} bytes byte-identical ({:?} then {:?})",
                    net_b.len(),
                    first,
                    second
                )),
            );
        }
    }

    // Restart recovery as a client sees it: same store dir, same bytes.
    wire.stop()?;
    let wire = boot(dir)?;
    {
        let case = "netcheck/recovery/restart";
        let mut client = Client::connect(&wire.addr).map_err(|e| format!("reconnect: {e}"))?;
        let down = client
            .download(receipt.id)
            .map_err(|e| format!("post-restart download: {e}"))?;
        let p = client
            .download_params(receipt.id)
            .map_err(|e| format!("post-restart params: {e}"))?;
        if down != bytes || p != params {
            report.fail(
                case,
                "recovered content differs from the acknowledged upload",
            );
        } else {
            report.pass(case, Some("upload byte-identical after restart".into()));
        }
    }
    wire.stop()
}

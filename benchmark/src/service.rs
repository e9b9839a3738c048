//! The PSP service on loopback, in the benchmark process: bind, serve,
//! restart on the same directory, stop.

use crate::fixtures::Upload;
use puppies_psp::net::{Client, ServeConfig, Server};
use puppies_psp::{PhotoId, PspConfig, PspServer};
use puppies_transform::Transformation;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// A running server with fsync on and the default store configuration.
pub struct Service {
    dir: PathBuf,
    addr: String,
    admin: String,
    thread: Option<JoinHandle<puppies_psp::Result<()>>>,
}

impl Service {
    /// Binds a server on `dir` (recovering whatever it holds) and serves
    /// it. Returns the seconds from `Server::bind` until `/readyz`
    /// answered 200.
    pub fn start(dir: &Path) -> Result<(Service, f64), String> {
        let start = Instant::now();
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            dir: dir.to_path_buf(),
            fsync: true,
            psp: PspConfig::default(),
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        // Connected before the accept loop starts, so the first accept
        // finds this connection waiting instead of sleeping a poll period.
        let mut probe = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        let mut service = Service {
            dir: dir.to_path_buf(),
            addr,
            admin: String::new(),
            thread: Some(thread),
        };
        while !probe.ready().map_err(|e| format!("readyz: {e}"))? {
            std::thread::yield_now();
        }
        let ready_s = start.elapsed().as_secs_f64();
        service.admin = std::fs::read_to_string(dir.join("admin.token"))
            .map_err(|e| format!("admin token: {e}"))?
            .trim()
            .to_string();
        Ok((service, ready_s))
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A fresh keep-alive connection.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Stops the server and binds a new one on the same directory in its
    /// place; returns its time to ready. Every client must be closed.
    pub fn restart(&mut self) -> Result<f64, String> {
        self.shutdown()?;
        let (fresh, ready_s) = Service::start(&self.dir)?;
        *self = fresh;
        Ok(ready_s)
    }

    /// Drains the server and waits for its thread. Every client must be
    /// closed, or the drain waits for them.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let asked = self.client().and_then(|mut c| {
            c.shutdown(&self.admin)
                .map_err(|e| format!("shutdown: {e}"))
        });
        // A thread that never heard the request cannot be joined; leave it
        // to process exit rather than hang here.
        asked?;
        thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Proves the wire serves exactly what an in-process [`PspServer`]
/// computes from the same upload: stored bytes, params, and every view.
pub fn prove_parity(
    client: &mut Client,
    upload: &Upload,
    views: &[Transformation],
) -> Result<PhotoId, String> {
    let local = PspServer::new();
    let local_id = local
        .upload(upload.bytes.clone(), upload.params.clone())
        .map_err(|e| format!("in-process upload: {e}"))?;
    let id = client
        .upload(&upload.bytes, &upload.params)
        .map_err(|e| format!("parity upload: {e}"))?
        .id;
    let same = |what: &str, wire: &[u8], local: &[u8]| {
        if wire == local {
            Ok(())
        } else {
            Err(format!("parity: wire {what} differs from in-process"))
        }
    };
    let wire = client.download(id).map_err(|e| e.to_string())?;
    same(
        "download",
        &wire,
        &local.download(local_id).map_err(|e| e.to_string())?,
    )?;
    let wire = client.download_params(id).map_err(|e| e.to_string())?;
    let want = local.download_params(local_id).map_err(|e| e.to_string())?;
    same("params", &wire, &want)?;
    for t in views {
        let (bytes, params, _) = client
            .download_transformed(id, t)
            .map_err(|e| format!("parity view {t:?}: {e}"))?;
        let (want_b, want_p) = local
            .download_transformed(local_id, t)
            .map_err(|e| format!("in-process view {t:?}: {e}"))?;
        same("view bytes", &bytes, &want_b)?;
        same("view params", &params, &want_p)?;
    }
    Ok(id)
}

/// Restarts whose times to ready the traced run reports.
pub const RESTARTS: usize = 5;

/// Restarts the populated service `n` times; returns every restart's
/// time to ready.
pub fn restart_times(service: &mut Service, n: usize) -> Result<Vec<f64>, String> {
    (0..n).map(|_| service.restart()).collect()
}

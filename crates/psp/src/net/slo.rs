//! Rolling-window SLO accounting for the networked PSP.
//!
//! Each endpoint gets a tracker: cumulative request/error/burn counters
//! plus a ring of time slots (six 10-second slots, a 60-second window)
//! holding per-slot request counts, error counts, a latency
//! histogram, and the transform-door serve-path tallies. Recording is
//! lock-free — a handful of relaxed atomics per request; a slot whose
//! epoch has passed is reset in place by the first thread to claim it
//! for the new epoch, so the window "rolls" without any background
//! thread. Resets racing with records can lose a few edge samples; SLO
//! windows are statistics, not ledgers, and accept that.
//!
//! The **error budget burn** counter increments once per failed request
//! that lands while the rolling window's error rate already exceeds the
//! target (1%, i.e. a 99% availability SLO) — a scrape-friendly
//! monotone signal that alerting can rate() without re-deriving window
//! state.

use crate::store::ServedPath;
use puppies_obs::{escape_prom_label, Histogram};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The endpoints tracked, in exposition order. `other` absorbs anything
/// unrecognized so the label set stays bounded.
pub const ENDPOINTS: [&str; 9] = [
    "upload",
    "download",
    "params",
    "transformed",
    "transform",
    "search",
    "grants",
    "receivers",
    "other",
];

/// Seconds per slot.
const SLOT_SECS: u64 = 10;

/// Slots in the ring; the window covers `SLOT_SECS * SLOTS` seconds.
const SLOTS: usize = 6;

/// Error-rate target (fraction of requests); the error budget burns while
/// the window's rate is above this.
const TARGET_ERROR_RATE: f64 = 0.01;

/// One request's contribution to the window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// `false` counts against the error budget (the server treats 5xx as
    /// errors; 4xx are the client's problem, not the SLO's).
    pub ok: bool,
    /// Service time in microseconds.
    pub latency_us: u64,
    /// Transform door only: the path that served it. Feeds the cache hit
    /// rate (all transform serves), the coeff-domain share (misses) and
    /// the signature-family share (hits).
    pub served: Option<ServedPath>,
}

/// A slot's epoch tag is `epoch + 1` so the zero-initialized ring reads
/// as "never used" rather than "epoch 0".
#[derive(Default)]
struct Slot {
    tag: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_lookups: AtomicU64,
    coeff: AtomicU64,
    coeff_lookups: AtomicU64,
    sig_hits: AtomicU64,
    sig_lookups: AtomicU64,
    latency: Histogram,
}

impl Slot {
    fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_lookups.store(0, Ordering::Relaxed);
        self.coeff.store(0, Ordering::Relaxed);
        self.coeff_lookups.store(0, Ordering::Relaxed);
        self.sig_hits.store(0, Ordering::Relaxed);
        self.sig_lookups.store(0, Ordering::Relaxed);
        self.latency.reset();
    }
}

/// Point-in-time view of one endpoint's rolling window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Requests in the window.
    pub requests: u64,
    /// Errors in the window.
    pub errors: u64,
    /// Seconds the window currently covers (grows until the ring fills).
    pub covered_secs: u64,
    /// Requests per second over `covered_secs`.
    pub request_rate: f64,
    /// Errors / requests (0 when idle).
    pub error_rate: f64,
    /// Median latency estimate, µs.
    pub p50_us: f64,
    /// 99th-percentile latency estimate, µs.
    pub p99_us: f64,
    /// Cache hits / cache lookups, when the endpoint consults the cache.
    pub cache_hit_rate: Option<f64>,
    /// Coeff-domain serves / (coeff + pixel) misses, transform door only.
    pub coeff_serve_rate: Option<f64>,
    /// Signature-family hits / cache hits, transform door only — the
    /// share of cached serves that only the perceptual-identity key could
    /// satisfy.
    pub sig_hit_rate: Option<f64>,
}

/// Cumulative + windowed view of one endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloSnapshot {
    /// Requests since process start.
    pub requests_total: u64,
    /// Errors since process start.
    pub errors_total: u64,
    /// Error-budget burn events since process start (see module docs).
    pub burn_total: u64,
    /// The rolling window.
    pub window: WindowStats,
}

#[derive(Default)]
struct Tracker {
    slots: [Slot; SLOTS],
    requests_total: AtomicU64,
    errors_total: AtomicU64,
    burn_total: AtomicU64,
}

impl Tracker {
    fn slot_for(&self, epoch: u64) -> &Slot {
        let slot = &self.slots[(epoch % SLOTS as u64) as usize];
        let tag = epoch + 1;
        if slot.tag.load(Ordering::Relaxed) != tag && slot.tag.swap(tag, Ordering::Relaxed) != tag {
            slot.reset();
        }
        slot
    }

    /// Slots still inside the window ending at `epoch`.
    fn live_slots(&self, epoch: u64) -> impl Iterator<Item = &Slot> {
        let oldest_tag = (epoch + 1).saturating_sub(SLOTS as u64 - 1);
        self.slots.iter().filter(move |s| {
            let tag = s.tag.load(Ordering::Relaxed);
            tag != 0 && tag >= oldest_tag && tag <= epoch + 1
        })
    }

    fn record_at(&self, epoch: u64, sample: Sample) {
        let slot = self.slot_for(epoch);
        slot.requests.fetch_add(1, Ordering::Relaxed);
        slot.latency.record(sample.latency_us);
        if let Some(served) = sample.served {
            let tally = |hits: &AtomicU64, lookups: &AtomicU64, hit: bool| {
                lookups.fetch_add(1, Ordering::Relaxed);
                if hit {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            };
            tally(&slot.cache_hits, &slot.cache_lookups, served.cache_hit());
            match served {
                // Hits split by key: signature family vs exact content.
                ServedPath::Cached | ServedPath::SigCached => tally(
                    &slot.sig_hits,
                    &slot.sig_lookups,
                    served == ServedPath::SigCached,
                ),
                // Misses split by pipeline: coefficients vs pixels.
                ServedPath::CoeffDomain | ServedPath::PixelFallback => tally(
                    &slot.coeff,
                    &slot.coeff_lookups,
                    served == ServedPath::CoeffDomain,
                ),
            }
        }
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        if !sample.ok {
            slot.errors.fetch_add(1, Ordering::Relaxed);
            self.errors_total.fetch_add(1, Ordering::Relaxed);
            let (mut req, mut err) = (0u64, 0u64);
            for s in self.live_slots(epoch) {
                req += s.requests.load(Ordering::Relaxed);
                err += s.errors.load(Ordering::Relaxed);
            }
            if req > 0 && err as f64 / req as f64 > TARGET_ERROR_RATE {
                self.burn_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn snapshot_at(&self, epoch: u64) -> SloSnapshot {
        let mut w = WindowStats::default();
        let merged = Histogram::new();
        let (mut hits, mut lookups, mut coeff, mut coeff_lookups) = (0u64, 0u64, 0u64, 0u64);
        let (mut sig_hits, mut sig_lookups) = (0u64, 0u64);
        let mut live = 0u64;
        for s in self.live_slots(epoch) {
            live += 1;
            w.requests += s.requests.load(Ordering::Relaxed);
            w.errors += s.errors.load(Ordering::Relaxed);
            hits += s.cache_hits.load(Ordering::Relaxed);
            lookups += s.cache_lookups.load(Ordering::Relaxed);
            coeff += s.coeff.load(Ordering::Relaxed);
            coeff_lookups += s.coeff_lookups.load(Ordering::Relaxed);
            sig_hits += s.sig_hits.load(Ordering::Relaxed);
            sig_lookups += s.sig_lookups.load(Ordering::Relaxed);
            merged.merge(&s.latency);
        }
        // Idle slots never get claimed, so count covered time from the
        // window's span, capped by how long the process could have run.
        w.covered_secs = SLOT_SECS * (SLOTS as u64).min(epoch + 1).max(live);
        if w.covered_secs > 0 {
            w.request_rate = w.requests as f64 / w.covered_secs as f64;
        }
        if w.requests > 0 {
            w.error_rate = w.errors as f64 / w.requests as f64;
        }
        w.p50_us = merged.quantile(0.50);
        w.p99_us = merged.quantile(0.99);
        if lookups > 0 {
            w.cache_hit_rate = Some(hits as f64 / lookups as f64);
        }
        if coeff_lookups > 0 {
            w.coeff_serve_rate = Some(coeff as f64 / coeff_lookups as f64);
        }
        if sig_lookups > 0 {
            w.sig_hit_rate = Some(sig_hits as f64 / sig_lookups as f64);
        }
        SloSnapshot {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            errors_total: self.errors_total.load(Ordering::Relaxed),
            burn_total: self.burn_total.load(Ordering::Relaxed),
            window: w,
        }
    }
}

/// Per-endpoint SLO trackers plus the shared clock.
pub struct SloRegistry {
    start: Instant,
    trackers: Vec<(&'static str, Tracker)>,
}

impl Default for SloRegistry {
    fn default() -> Self {
        SloRegistry::new()
    }
}

impl SloRegistry {
    /// A registry with one tracker per [`ENDPOINTS`] entry.
    pub fn new() -> SloRegistry {
        SloRegistry {
            start: Instant::now(),
            trackers: ENDPOINTS
                .iter()
                .map(|&name| (name, Tracker::default()))
                .collect(),
        }
    }

    fn epoch(&self) -> u64 {
        self.start.elapsed().as_secs() / SLOT_SECS
    }

    fn tracker(&self, endpoint: &str) -> &Tracker {
        self.trackers
            .iter()
            .find(|(name, _)| *name == endpoint)
            .map(|(_, t)| t)
            .unwrap_or(&self.trackers[ENDPOINTS.len() - 1].1)
    }

    /// Records one request against `endpoint` (unknown names fold into
    /// `other`).
    pub fn record(&self, endpoint: &str, sample: Sample) {
        self.record_at(self.epoch(), endpoint, sample);
    }

    /// Test hook: record at an explicit epoch instead of the wall clock.
    pub fn record_at(&self, epoch: u64, endpoint: &str, sample: Sample) {
        self.tracker(endpoint).record_at(epoch, sample);
    }

    /// One endpoint's snapshot at the current epoch.
    pub fn snapshot(&self, endpoint: &str) -> SloSnapshot {
        self.snapshot_at(self.epoch(), endpoint)
    }

    /// Test hook: snapshot at an explicit epoch.
    pub fn snapshot_at(&self, epoch: u64, endpoint: &str) -> SloSnapshot {
        self.tracker(endpoint).snapshot_at(epoch)
    }

    /// Renders every tracker in the Prometheus text format, labelled by
    /// endpoint: monotone `psp_slo_{requests,errors,error_budget_burn}_total`
    /// counters plus `psp_slo_window_*` gauges for the rolling window.
    /// Endpoints with no traffic yet are skipped to keep scrapes small.
    pub fn render_prometheus(&self) -> String {
        let epoch = self.epoch();
        let mut out = String::with_capacity(2048);
        let snaps: Vec<(&str, SloSnapshot)> = self
            .trackers
            .iter()
            .map(|(name, t)| (*name, t.snapshot_at(epoch)))
            .filter(|(_, s)| s.requests_total > 0)
            .collect();
        if snaps.is_empty() {
            return out;
        }
        let counter =
            |out: &mut String, name: &str, help: &str, get: &dyn Fn(&SloSnapshot) -> u64| {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} counter");
                for (ep, s) in &snaps {
                    let _ = writeln!(
                        out,
                        "{name}{{endpoint=\"{}\"}} {}",
                        escape_prom_label(ep),
                        get(s)
                    );
                }
            };
        counter(
            &mut out,
            "psp_slo_requests_total",
            "requests per endpoint",
            &|s| s.requests_total,
        );
        counter(
            &mut out,
            "psp_slo_errors_total",
            "5xx responses per endpoint",
            &|s| s.errors_total,
        );
        counter(
            &mut out,
            "psp_slo_error_budget_burn_total",
            "errors landed while the window error rate exceeded the SLO target",
            &|s| s.burn_total,
        );
        let gauge = |out: &mut String,
                     name: &str,
                     help: &str,
                     get: &dyn Fn(&SloSnapshot) -> Option<f64>| {
            let mut titled = false;
            for (ep, s) in &snaps {
                let Some(v) = get(s) else { continue };
                if !titled {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    titled = true;
                }
                let _ = writeln!(out, "{name}{{endpoint=\"{}\"}} {v}", escape_prom_label(ep));
            }
        };
        gauge(
            &mut out,
            "psp_slo_window_request_rate",
            "requests/s over the rolling window",
            &|s| Some(s.window.request_rate),
        );
        gauge(
            &mut out,
            "psp_slo_window_error_rate",
            "errors/requests over the rolling window",
            &|s| Some(s.window.error_rate),
        );
        gauge(
            &mut out,
            "psp_slo_window_p99_us",
            "p99 latency (us) over the rolling window",
            &|s| Some(s.window.p99_us),
        );
        gauge(
            &mut out,
            "psp_slo_window_cache_hit_rate",
            "transform-cache hit rate over the rolling window",
            &|s| s.window.cache_hit_rate,
        );
        gauge(
            &mut out,
            "psp_slo_window_coeff_serve_rate",
            "coeff-domain share of uncached transforms over the rolling window",
            &|s| s.window.coeff_serve_rate,
        );
        gauge(
            &mut out,
            "psp_slo_window_sig_hit_rate",
            "signature-family share of cached transform serves over the rolling window",
            &|s| s.window.sig_hit_rate,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(latency_us: u64) -> Sample {
        Sample {
            ok: true,
            latency_us,
            ..Sample::default()
        }
    }

    fn err() -> Sample {
        Sample {
            ok: false,
            latency_us: 1000,
            ..Sample::default()
        }
    }

    #[test]
    fn window_tracks_rates_and_quantiles() {
        let reg = SloRegistry::new();
        for i in 0..100 {
            reg.record_at(0, "upload", ok(100 + i));
        }
        reg.record_at(0, "upload", err());
        let s = reg.snapshot_at(0, "upload");
        assert_eq!(s.requests_total, 101);
        assert_eq!(s.errors_total, 1);
        assert_eq!(s.window.requests, 101);
        assert_eq!(s.window.errors, 1);
        assert!(s.window.p50_us >= 100.0 && s.window.p50_us <= 220.0);
        assert!(s.window.request_rate > 0.0);
        assert!(s.window.cache_hit_rate.is_none());
    }

    #[test]
    fn old_slots_roll_out_of_the_window() {
        let reg = SloRegistry::new();
        reg.record_at(0, "download", ok(50));
        reg.record_at(1, "download", ok(50));
        // The window is six 10 s slots: at epoch 5 it still sees both...
        assert_eq!(reg.snapshot_at(5, "download").window.requests, 2);
        assert_eq!(reg.snapshot_at(5, "download").window.covered_secs, 60);
        // ...but at epoch 6 it is epochs 1..=6, so the epoch-0 slot has
        // rolled out; at epoch 20 the whole window is empty while the
        // cumulative counters keep the history.
        assert_eq!(reg.snapshot_at(6, "download").window.requests, 1);
        let s = reg.snapshot_at(20, "download");
        assert_eq!(s.window.requests, 0);
        assert_eq!(s.requests_total, 2);
        // A new record at epoch 20 reuses (and resets) a stale slot.
        reg.record_at(20, "download", ok(50));
        assert_eq!(reg.snapshot_at(20, "download").window.requests, 1);
    }

    #[test]
    fn burn_counter_only_ticks_past_the_target() {
        let reg = SloRegistry::new();
        for _ in 0..100 {
            reg.record_at(0, "transformed", ok(10));
        }
        // 1 error in 101 requests: just under the 1% target — no burn.
        reg.record_at(0, "transformed", err());
        assert_eq!(reg.snapshot_at(0, "transformed").burn_total, 0);
        // 2 in 102 crosses it: every error from here on burns.
        for _ in 0..16 {
            reg.record_at(0, "transformed", err());
        }
        let s = reg.snapshot_at(0, "transformed");
        assert_eq!(s.errors_total, 17);
        assert_eq!(s.burn_total, 16);
        // The rate is the window's, not the lifetime's: once the errors
        // roll out, one error in 101 requests is under target again.
        for _ in 0..100 {
            reg.record_at(6, "transformed", ok(10));
        }
        reg.record_at(6, "transformed", err());
        assert_eq!(reg.snapshot_at(6, "transformed").burn_total, 16);
    }

    #[test]
    fn serve_path_rates_only_from_transform_samples() {
        let reg = SloRegistry::default();
        for hit in [true, false, false, false] {
            reg.record_at(
                0,
                "transformed",
                Sample {
                    ok: true,
                    latency_us: 200,
                    served: Some(if hit {
                        ServedPath::Cached
                    } else {
                        ServedPath::CoeffDomain
                    }),
                },
            );
        }
        reg.record_at(
            0,
            "transformed",
            Sample {
                ok: true,
                latency_us: 900,
                served: Some(ServedPath::PixelFallback),
            },
        );
        let w = reg.snapshot_at(0, "transformed").window;
        assert_eq!(w.cache_hit_rate, Some(0.2));
        assert_eq!(w.coeff_serve_rate, Some(0.75));
        assert_eq!(w.sig_hit_rate, Some(0.0), "one cached serve, exact key");
    }

    #[test]
    fn sig_hit_rate_tracks_family_served_share() {
        let reg = SloRegistry::default();
        // Three cached serves: two via the signature-family key.
        for sig in [true, true, false] {
            reg.record_at(
                0,
                "transformed",
                Sample {
                    ok: true,
                    latency_us: 40,
                    served: Some(if sig {
                        ServedPath::SigCached
                    } else {
                        ServedPath::Cached
                    }),
                },
            );
        }
        let w = reg.snapshot_at(0, "transformed").window;
        assert_eq!(w.cache_hit_rate, Some(1.0));
        assert!((w.sig_hit_rate.unwrap() - 2.0 / 3.0).abs() < 1e-9);
        let text = reg.render_prometheus();
        assert!(text.contains("psp_slo_window_sig_hit_rate{endpoint=\"transformed\"}"));
        // The search endpoint is a first-class label.
        reg.record_at(
            0,
            "search",
            Sample {
                ok: true,
                latency_us: 10,
                ..Sample::default()
            },
        );
        assert_eq!(reg.snapshot_at(0, "search").requests_total, 1);
    }

    #[test]
    fn unknown_endpoints_fold_into_other() {
        let reg = SloRegistry::default();
        reg.record_at(0, "not-an-endpoint", ok(5));
        assert_eq!(reg.snapshot_at(0, "other").requests_total, 1);
    }

    #[test]
    fn prometheus_rendering_is_labelled_and_monotone_friendly() {
        let reg = SloRegistry::default();
        assert!(
            reg.render_prometheus().is_empty(),
            "idle registry renders nothing"
        );
        reg.record("upload", ok(123));
        reg.record(
            "transformed",
            Sample {
                ok: false,
                latency_us: 5000,
                served: Some(ServedPath::CoeffDomain),
            },
        );
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE psp_slo_requests_total counter"));
        assert!(text.contains("psp_slo_requests_total{endpoint=\"upload\"} 1"));
        assert!(text.contains("psp_slo_errors_total{endpoint=\"transformed\"} 1"));
        assert!(text.contains("psp_slo_error_budget_burn_total{endpoint=\"transformed\"} 1"));
        assert!(text.contains("psp_slo_window_request_rate{endpoint=\"upload\"}"));
        assert!(text.contains("psp_slo_window_coeff_serve_rate{endpoint=\"transformed\"} 1"));
        // Untouched endpoints do not appear.
        assert!(!text.contains("endpoint=\"grants\""));
    }
}

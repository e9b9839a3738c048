//! Per-endpoint SLO accounting for the networked PSP.
//!
//! Each endpoint gets a tracker of cumulative series, each request
//! counted once: an error counter, one latency histogram (µs) and, on
//! the transform door, a counter per served path. Recording is
//! lock-free — a handful of relaxed atomics per request. Nothing is
//! windowed on the server: a reader takes the difference of two scrapes
//! (`puppies top` does) or a rate over them (an alert on
//! `rate(psp_slo_errors_total) / rate(psp_slo_requests_total) > 0.01`
//! watches a 99% availability target).

use crate::store::ServedPath;
use puppies_obs::{escape_prom_label, write_prom_histogram, Histogram};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The served paths, indexed by `ServedPath as usize`.
const PATHS: [ServedPath; 4] = [
    ServedPath::CoeffDomain,
    ServedPath::PixelFallback,
    ServedPath::Cached,
    ServedPath::SigCached,
];

/// One request's record.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// `false` counts as an error (the server treats 5xx as errors; 4xx
    /// are the client's problem, not the SLO's).
    pub ok: bool,
    /// Service time in microseconds.
    pub latency_us: u64,
    /// Transform door only: the path that served it.
    pub served: Option<ServedPath>,
}

#[derive(Default)]
struct Tracker {
    /// Its count is the endpoint's request count.
    latency: Histogram,
    errors: AtomicU64,
    served: [AtomicU64; PATHS.len()],
}

/// One tracker per [`ENDPOINTS`] entry.
pub struct SloRegistry {
    trackers: [Tracker; ENDPOINTS.len()],
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
            trackers: std::array::from_fn(|_| Tracker::default()),
        }
    }

    /// Records one request against `endpoint` (unknown names fold into
    /// `other`).
    pub fn record(&self, endpoint: &str, sample: Sample) {
        let i = ENDPOINTS
            .iter()
            .position(|&e| e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1);
        let t = &self.trackers[i];
        t.latency.record(sample.latency_us);
        if !sample.ok {
            t.errors.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(served) = sample.served {
            t.served[served as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Renders every tracker in the Prometheus text format, labelled by
    /// endpoint: `psp_slo_{requests,errors}_total`, the
    /// `psp_slo_latency_us` histogram, and
    /// `psp_slo_served_total{endpoint,path}` for the paths that served.
    /// `requests_total` and the histogram's `_count` come from one pass
    /// over its buckets, so they agree in every scrape. Endpoints with no
    /// traffic yet are skipped to keep scrapes small.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let live: Vec<(String, &Tracker, _)> = ENDPOINTS
            .iter()
            .zip(&self.trackers)
            .map(|(ep, t)| {
                let label = format!("endpoint=\"{}\"", escape_prom_label(ep));
                (label, t, t.latency.cumulative())
            })
            .filter(|(_, _, h)| h.count > 0)
            .collect();
        if live.is_empty() {
            return out;
        }
        let family = |out: &mut String, name: &str, kind: &str, help: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
        };
        let requests = "psp_slo_requests_total";
        family(&mut out, requests, "counter", "requests per endpoint");
        for (label, _, h) in &live {
            let _ = writeln!(out, "{requests}{{{label}}} {}", h.count);
        }
        let errors = "psp_slo_errors_total";
        family(&mut out, errors, "counter", "5xx responses per endpoint");
        for (label, t, _) in &live {
            let _ = writeln!(
                out,
                "{errors}{{{label}}} {}",
                t.errors.load(Ordering::Relaxed)
            );
        }
        let latency = "psp_slo_latency_us";
        family(
            &mut out,
            latency,
            "histogram",
            "request latency per endpoint, in us",
        );
        for (label, _, h) in &live {
            write_prom_histogram(&mut out, latency, label, h);
        }
        let served = "psp_slo_served_total";
        let mut titled = false;
        for (label, t, _) in &live {
            for (path, n) in PATHS.iter().zip(&t.served) {
                let n = n.load(Ordering::Relaxed);
                if n == 0 {
                    continue;
                }
                if !titled {
                    family(
                        &mut out,
                        served,
                        "counter",
                        "transform serves per served path",
                    );
                    titled = true;
                }
                let _ = writeln!(out, "{served}{{{label},path=\"{}\"}} {n}", path.as_str());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_obs::parse_prometheus;

    fn sample(ok: bool, latency_us: u64, served: Option<ServedPath>) -> Sample {
        Sample {
            ok,
            latency_us,
            served,
        }
    }

    #[test]
    fn paths_index_by_discriminant() {
        for (i, p) in PATHS.iter().enumerate() {
            assert_eq!(*p as usize, i, "{p:?}");
        }
    }

    #[test]
    fn counts_and_latency_render_as_one_cumulative_family_set() {
        let reg = SloRegistry::new();
        for i in 0..100 {
            reg.record("upload", sample(true, 100 + i, None));
        }
        reg.record("upload", sample(false, 1000, None));
        let scrape = parse_prometheus(&reg.render_prometheus()).unwrap();
        let key = |name: &str| format!("{name}{{endpoint=\"upload\"}}");
        assert_eq!(scrape.counters[&key("psp_slo_requests_total")], 101);
        assert_eq!(scrape.counters[&key("psp_slo_errors_total")], 1);
        let h = &scrape.histograms[&key("psp_slo_latency_us")];
        assert_eq!(h.count, 101);
        assert_eq!(h.sum, (100..200).sum::<u64>() + 1000);
        let p50 = h.quantile(0.5);
        assert!((100.0..=220.0).contains(&p50), "p50 {p50}");
        assert!(!scrape
            .counters
            .keys()
            .any(|k| k.starts_with("psp_slo_served")));
    }

    #[test]
    fn served_paths_count_only_transform_samples() {
        let reg = SloRegistry::default();
        for served in [
            ServedPath::Cached,
            ServedPath::CoeffDomain,
            ServedPath::CoeffDomain,
            ServedPath::CoeffDomain,
            ServedPath::PixelFallback,
            ServedPath::SigCached,
            ServedPath::SigCached,
        ] {
            reg.record("transformed", sample(true, 200, Some(served)));
        }
        reg.record("search", sample(true, 10, None));
        let scrape = parse_prometheus(&reg.render_prometheus()).unwrap();
        let served = |path: &str| {
            scrape.counters
                [&format!("psp_slo_served_total{{endpoint=\"transformed\",path=\"{path}\"}}")]
        };
        assert_eq!(served("cached"), 1);
        assert_eq!(served("coeff-domain"), 3);
        assert_eq!(served("pixel-fallback"), 1);
        assert_eq!(served("sig-cached"), 2);
        // The search endpoint is a first-class label.
        assert_eq!(
            scrape.counters["psp_slo_requests_total{endpoint=\"search\"}"],
            1
        );
        let paths = scrape.counters.keys().filter(|k| k.contains("path=\""));
        assert_eq!(paths.count(), 4);
    }

    #[test]
    fn unknown_endpoints_fold_into_other() {
        let reg = SloRegistry::default();
        reg.record("not-an-endpoint", sample(true, 5, None));
        let text = reg.render_prometheus();
        assert!(text.contains("psp_slo_requests_total{endpoint=\"other\"} 1\n"));
    }

    #[test]
    fn prometheus_rendering_is_labelled_and_skips_idle_endpoints() {
        let reg = SloRegistry::default();
        assert!(
            reg.render_prometheus().is_empty(),
            "idle registry renders nothing"
        );
        reg.record("upload", sample(true, 123, None));
        reg.record(
            "transformed",
            sample(false, 5000, Some(ServedPath::CoeffDomain)),
        );
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE psp_slo_requests_total counter"));
        assert!(text.contains("# TYPE psp_slo_latency_us histogram"));
        assert!(text.contains("psp_slo_requests_total{endpoint=\"upload\"} 1\n"));
        assert!(text.contains("psp_slo_errors_total{endpoint=\"transformed\"} 1\n"));
        assert!(text.contains("psp_slo_latency_us_bucket{endpoint=\"upload\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("psp_slo_latency_us_count{endpoint=\"transformed\"} 1\n"));
        assert!(text
            .contains("psp_slo_served_total{endpoint=\"transformed\",path=\"coeff-domain\"} 1\n"));
        // Untouched endpoints do not appear.
        assert!(!text.contains("endpoint=\"grants\""));
    }
}

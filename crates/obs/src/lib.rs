//! `puppies-obs` — zero-dependency tracing, metrics and pipeline
//! profiling for the PuPPIeS stack.
//!
//! Everything the production-scale roadmap needs to *measure* lives
//! here: hierarchical [spans](span::SpanGuard) with thread-aware
//! nesting, [counters/gauges/histograms](metrics::MetricRegistry) with
//! log-linear p50/p95/p99 buckets, and two exporters — the Prometheus
//! text exposition (with its parser, for `top` and `stats`) and a Chrome
//! `trace_event` file loadable in `about:tracing` /
//! <https://ui.perfetto.dev>.
//!
//! # Subscriber model
//!
//! All instrumentation routes through one optional process-global
//! subscriber ([`Obs`]). When none is installed — the default — every
//! macro and helper short-circuits on a single relaxed atomic load, so
//! instrumented hot paths cost a predictable branch and nothing else
//! (measured <1% on the bench fixture; the CI perf job gates it at 5%).
//! Installing a subscriber turns the same call sites into real spans
//! and metric updates:
//!
//! ```
//! let session = puppies_obs::Obs::install();
//! {
//!     let _outer = puppies_obs::span!("work.outer");
//!     let _inner = puppies_obs::span!("work.inner", "demo");
//!     puppies_obs::counted!("work.items", 3);
//! } // spans end on drop
//! let obs = session.finish().unwrap();
//! let snap = obs.metrics().snapshot();
//! assert_eq!(snap.counters[0], ("work.items".to_string(), 3));
//! assert!(obs.chrome_trace().contains("work.inner"));
//! ```
//!
//! Instrumentation never touches pipeline *data* — with or without a
//! subscriber, protect/recover/codec outputs are byte-identical
//! (pinned by `crates/core/tests/parallel.rs`).

mod export;
mod hist;
mod metrics;
mod span;

pub use export::{
    chrome_trace, escape_json, escape_prom_help, escape_prom_label, parse_prometheus,
    prometheus_name, prometheus_text, render_stats, write_prom_histogram, Scrape,
};
pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge, HistStats, MetricRegistry, MetricsSnapshot};
pub use span::{current_span_id, SpanGuard, SpanRecord};

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Default cap on buffered trace spans (~96 MB worst case is far above
/// anything real; a days-long soak just stops tracing and counts drops).
const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// A tracing/metrics subscriber: the span clock, the trace buffer and
/// the metric registry. Usually installed process-globally via
/// [`Obs::install`]; tests that want isolation can use an [`Obs`]
/// directly through [`Obs::new`] + explicit method calls.
pub struct Obs {
    pub(crate) start: Instant,
    pub(crate) generation: u64,
    pub(crate) metrics: MetricRegistry,
    pub(crate) trace: span::TraceBuffer,
    pub(crate) next_span_id: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Arc<Obs>>> = RwLock::new(None);
static GENERATION: AtomicU64 = AtomicU64::new(1);

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A fresh, unattached subscriber.
    pub fn new() -> Obs {
        Obs::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    fn with_trace_capacity(capacity: usize) -> Obs {
        Obs {
            start: Instant::now(),
            generation: GENERATION.fetch_add(1, Ordering::Relaxed),
            metrics: MetricRegistry::default(),
            trace: span::TraceBuffer::new(capacity),
            next_span_id: AtomicU64::new(1),
        }
    }

    /// Creates a subscriber and installs it as the process-global one,
    /// replacing any previous subscriber. The returned [`ObsSession`]
    /// yields the subscriber back via [`ObsSession::finish`].
    pub fn install() -> ObsSession {
        Obs::new().into_global()
    }

    /// [`Obs::install`] for a process that serves metrics and never
    /// exports a trace: span durations still feed their histograms, but
    /// no span record is buffered, so a long-running server neither grows
    /// a trace nobody reads nor takes the trace lock at every span end.
    pub fn install_metrics_only() -> ObsSession {
        Obs::with_trace_capacity(0).into_global()
    }

    fn into_global(self) -> ObsSession {
        let obs = Arc::new(self);
        *GLOBAL.write().unwrap_or_else(|e| e.into_inner()) = Some(obs.clone());
        ENABLED.store(true, Ordering::SeqCst);
        ObsSession { obs }
    }

    /// The metric registry.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// Opens a span on this subscriber; the parent is the innermost open
    /// span on the calling thread.
    pub fn span(
        self: &Arc<Self>,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
    ) -> SpanGuard {
        SpanGuard::begin(self.clone(), name.into(), cat, None)
    }

    /// Opens a span whose parent is given explicitly — how worker-pool
    /// jobs keep their lineage when they hop threads.
    pub fn span_with_parent(
        self: &Arc<Self>,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        parent: u64,
    ) -> SpanGuard {
        SpanGuard::begin(self.clone(), name.into(), cat, Some(parent))
    }

    /// Renders all finished spans as a Chrome `trace_event` JSON
    /// document (see [`chrome_trace`]).
    pub fn chrome_trace(&self) -> String {
        let spans = self.trace.spans.lock().unwrap_or_else(|e| e.into_inner());
        let threads = self.trace.threads.lock().unwrap_or_else(|e| e.into_inner());
        chrome_trace(&spans, &threads, self.trace.dropped.load(Ordering::Relaxed))
    }

    /// Number of finished spans currently buffered.
    pub fn span_count(&self) -> usize {
        self.trace
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// A copy of the finished-span buffer, for programmatic inspection
    /// of trace topology (tests asserting parentage, tooling walking the
    /// span tree without going through the Chrome JSON).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.trace
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// RAII handle for a globally installed subscriber; uninstalls on
/// [`ObsSession::finish`] (or drop) and hands the subscriber back for
/// export.
pub struct ObsSession {
    obs: Arc<Obs>,
}

impl ObsSession {
    /// The installed subscriber (for mid-session snapshots).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Uninstalls the subscriber and returns it for export. Returns the
    /// `Arc` even if another `install` already displaced this session's
    /// subscriber.
    pub fn finish(self) -> Option<Arc<Obs>> {
        let mut global = GLOBAL.write().unwrap_or_else(|e| e.into_inner());
        if global.as_ref().is_some_and(|g| Arc::ptr_eq(g, &self.obs)) {
            *global = None;
            ENABLED.store(false, Ordering::SeqCst);
        }
        Some(self.obs.clone())
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        let mut global = GLOBAL.write().unwrap_or_else(|e| e.into_inner());
        if global.as_ref().is_some_and(|g| Arc::ptr_eq(g, &self.obs)) {
            *global = None;
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
}

/// Whether a global subscriber is installed. The one branch every
/// disabled instrumentation site pays.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` with the global subscriber, if any.
pub fn with<R>(f: impl FnOnce(&Arc<Obs>) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let guard = GLOBAL.read().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(f)
}

/// Opens a span on the global subscriber (inert guard when disabled).
pub fn span(name: impl Into<Cow<'static, str>>, cat: &'static str) -> SpanGuard {
    with(|obs| obs.span(name, cat)).unwrap_or_else(SpanGuard::noop)
}

/// Opens a span with an explicit parent id on the global subscriber.
pub fn span_with_parent(
    name: impl Into<Cow<'static, str>>,
    cat: &'static str,
    parent: u64,
) -> SpanGuard {
    with(|obs| obs.span_with_parent(name, cat, parent)).unwrap_or_else(SpanGuard::noop)
}

/// Adds to a global counter.
pub fn counter_add(name: &str, n: u64) {
    with(|obs| {
        if let Some(c) = obs.metrics.counter(name) {
            c.add(n);
        }
    });
}

/// Sets a global gauge.
pub fn gauge_set(name: &str, v: i64) {
    with(|obs| {
        if let Some(g) = obs.metrics.gauge(name) {
            g.set(v);
        }
    });
}

/// Records a value into a global histogram (the pipeline's convention:
/// nanoseconds for durations).
pub fn record(name: &str, v: u64) {
    with(|obs| {
        if let Some(h) = obs.metrics.histogram(name) {
            h.record(v);
        }
    });
}

/// Cross-process trace propagation context: a trace id (the installing
/// subscriber's generation, constant for the life of a session) plus the
/// span that should become the remote side's parent.
///
/// The wire form — the value of the `x-puppies-trace` HTTP header — is
/// two 16-digit lowercase hex fields joined by a dash:
///
/// ```text
/// x-puppies-trace: 0000000000000003-00000000000000a1
/// ```
///
/// A receiver that shares the sender's subscriber (in-process benches,
/// tests) reconnects the span tree exactly; a genuinely remote receiver
/// records the foreign parent id verbatim, which trace viewers render as
/// a cross-process link. Malformed values must be ignored, never fail a
/// request — [`TraceContext::parse`] returns `None` and the receiver
/// proceeds rootless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Groups every span of one distributed request flow.
    pub trace_id: u64,
    /// The span to adopt as parent on the receiving side.
    pub span_id: u64,
}

impl TraceContext {
    /// The context to propagate from the calling thread: the global
    /// subscriber's generation and the innermost open span. `None` when
    /// no subscriber is installed (callers then omit the header).
    pub fn current() -> Option<TraceContext> {
        with(|obs| TraceContext {
            trace_id: obs.generation,
            span_id: span::current_span_id(),
        })
    }

    /// Renders the header value (`<trace>-<span>`, 16 hex digits each).
    pub fn header_value(&self) -> String {
        format!("{:016x}-{:016x}", self.trace_id, self.span_id)
    }

    /// Parses a header value produced by [`TraceContext::header_value`].
    /// Lenient in length (1–16 hex digits per field), strict in shape;
    /// anything else is `None`.
    pub fn parse(s: &str) -> Option<TraceContext> {
        let s = s.trim();
        let (t, p) = s.split_once('-')?;
        if t.is_empty() || p.is_empty() || t.len() > 16 || p.len() > 16 {
            return None;
        }
        Some(TraceContext {
            trace_id: u64::from_str_radix(t, 16).ok()?,
            span_id: u64::from_str_radix(p, 16).ok()?,
        })
    }
}

/// Opens a span on the global subscriber. True no-op (one relaxed load)
/// when no subscriber is installed.
///
/// ```
/// let _g = puppies_obs::span!("stage.name");
/// let _h = puppies_obs::span!("stage.other", "category");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name, "puppies")
    };
    ($name:expr, $cat:expr) => {
        $crate::span($name, $cat)
    };
}

/// FNV-1a 64: the workspace's one fast, non-cryptographic hash. It
/// checksums WAL frames, fingerprints golden-vector manifests and shards
/// the metric registry — stable across platforms, unlike `DefaultHasher`.
/// Anyone can steer it to a collision, so nothing an uploader controls is
/// keyed by it: content identity and tokens use SHA-256.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Adds `n` to the global counter `name`; no-op without a subscriber.
#[macro_export]
macro_rules! counted {
    ($name:expr) => {
        $crate::counted!($name, 1u64)
    };
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            $crate::counter_add($name, $n as u64);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global subscriber is process-wide, so every test touching it
    // runs under this lock to stay order-independent.
    static INSTALL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn fnv64_matches_known_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn disabled_macros_are_inert() {
        let _l = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let g = span!("never.recorded");
        assert_eq!(g.id(), 0);
        drop(g);
        counted!("never.counted", 5);
        record("never.hist", 1);
        // Nothing to observe — and installing afterwards starts clean.
        let session = Obs::install();
        let obs = session.finish().unwrap();
        assert_eq!(obs.span_count(), 0);
        assert!(obs.metrics().snapshot().counters.is_empty());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _l = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = Obs::install();
        {
            let outer = span!("outer");
            let outer_id = outer.id();
            let inner = span!("inner");
            assert_ne!(inner.id(), 0);
            drop(inner);
            drop(outer);
            let obs = session.obs();
            let spans = obs.trace.spans.lock().unwrap();
            assert_eq!(spans.len(), 2);
            let inner_rec = spans.iter().find(|s| s.name == "inner").unwrap();
            assert_eq!(inner_rec.parent, outer_id);
            let outer_rec = spans.iter().find(|s| s.name == "outer").unwrap();
            assert_eq!(outer_rec.parent, 0);
        }
        session.finish();
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _l = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = Obs::install();
        let root = span!("root");
        let root_id = root.id();
        let child_parent = std::thread::spawn(move || {
            let g = span_with_parent("remote", "pool", root_id);
            let id = g.id();
            drop(g);
            id
        })
        .join()
        .unwrap();
        drop(root);
        let obs = session.finish().unwrap();
        let trace = obs.chrome_trace();
        assert!(trace.contains("\"remote\""));
        assert!(trace.contains(&format!("\"parent\":{root_id}")));
        assert_ne!(child_parent, 0);
    }

    #[test]
    fn thread_names_stay_bounded_over_many_batches() {
        // Each batch runs on fresh threads, the way pool batches do.
        let obs = Arc::new(Obs::new());
        let batches = span::THREAD_NAME_CAPACITY / 2 + 8;
        for _ in 0..batches {
            std::thread::scope(|scope| {
                for i in 0..2 {
                    std::thread::Builder::new()
                        .name(format!("puppies-worker-{i}"))
                        .spawn_scoped(scope, || drop(obs.span("pool.job", "pool")))
                        .unwrap();
                }
            });
        }
        assert_eq!(obs.span_count(), 2 * batches);
        let names = obs.chrome_trace().matches("\"thread_name\"").count();
        assert_eq!(names, span::THREAD_NAME_CAPACITY);
    }

    #[test]
    fn trace_context_roundtrips_and_rejects_garbage() {
        let ctx = TraceContext {
            trace_id: 3,
            span_id: 0xa1,
        };
        let header = ctx.header_value();
        assert_eq!(header, "0000000000000003-00000000000000a1");
        assert_eq!(TraceContext::parse(&header), Some(ctx));
        // Lenient lengths, surrounding whitespace tolerated.
        assert_eq!(
            TraceContext::parse(" 3-a1 "),
            Some(TraceContext {
                trace_id: 3,
                span_id: 0xa1
            })
        );
        for bad in [
            "",
            "-",
            "3-",
            "-a1",
            "nothex-a1",
            "3-a1-7",
            "00000000000000003-a1", // 17 digits
            "3 a1",
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn trace_context_current_tracks_subscriber_and_span() {
        let _l = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(TraceContext::current().is_none());
        let session = Obs::install();
        let outside = TraceContext::current().unwrap();
        assert_eq!(outside.span_id, 0, "no open span yet");
        let g = span!("ctx.root");
        let inside = TraceContext::current().unwrap();
        assert_eq!(inside.span_id, g.id());
        assert_eq!(inside.trace_id, outside.trace_id);
        drop(g);
        session.finish();
    }

    #[test]
    fn metrics_only_subscriber_times_spans_but_keeps_no_records() {
        let _l = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = Obs::install_metrics_only();
        for _ in 0..3 {
            let _g = span!("served.request");
        }
        let obs = session.finish().unwrap();
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.histograms[0].0, "served.request");
        assert_eq!(snap.histograms[0].1.count, 3);
        assert_eq!(obs.span_count(), 0);
        let trace = obs.chrome_trace();
        assert!(!trace.contains("served.request"), "{trace}");
        assert!(!trace.contains("dropped_spans"), "{trace}");
    }

    #[test]
    fn span_durations_feed_histograms() {
        let _l = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = Obs::install();
        for _ in 0..5 {
            let _g = span!("timed.stage");
        }
        let obs = session.finish().unwrap();
        let snap = obs.metrics().snapshot();
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "timed.stage");
        assert_eq!(h.count, 5);
    }
}

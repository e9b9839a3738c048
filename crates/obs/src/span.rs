//! Hierarchical spans with thread-aware nesting.
//!
//! Each thread keeps a stack of open span ids; a new span's parent is the
//! top of the executing thread's stack. Work that hops threads (worker
//! pool jobs) carries its logical parent explicitly via
//! [`crate::Obs::span_with_parent`], so a trace shows each `pool.job`
//! nested under the span that ran the batch even though they ran on
//! different threads. Finished spans land in a bounded in-memory buffer
//! (the Chrome-trace exporter drains it; a metrics-only subscriber has
//! none) and their durations feed a histogram named after the span,
//! which is where `puppies stats` quantiles come from.

use crate::Obs;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span, as exported to Chrome trace files.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (histogram key and trace label).
    pub name: Cow<'static, str>,
    /// Trace category.
    pub cat: &'static str,
    /// Unique span id.
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Small dense id of the thread the span ran on.
    pub tid: u64,
    /// Start offset from subscriber creation, nanoseconds.
    pub ts_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Most `thread_name` entries one subscriber keeps. Pool batches and
/// server connections each run on fresh threads, so a long traced
/// session meets threads without end; a thread past the cap still gets
/// its own id, and trace viewers label its track by that number.
pub(crate) const THREAD_NAME_CAPACITY: usize = 1024;

/// Bounded buffer of finished spans plus the bounded thread-name table.
pub(crate) struct TraceBuffer {
    pub(crate) spans: Mutex<Vec<SpanRecord>>,
    pub(crate) dropped: AtomicU64,
    pub(crate) capacity: usize,
    pub(crate) threads: Mutex<Vec<(u64, String)>>,
    next_tid: AtomicU64,
}

impl TraceBuffer {
    pub(crate) fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            capacity,
            threads: Mutex::new(Vec::new()),
            next_tid: AtomicU64::new(1),
        }
    }

    fn push(&self, rec: SpanRecord) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(rec);
    }

    /// Registers the calling thread on first use, returning its dense id.
    fn register_thread(&self) -> u64 {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        if threads.len() < THREAD_NAME_CAPACITY {
            threads.push((tid, name));
        }
        tid
    }
}

thread_local! {
    /// Open span ids on this thread, innermost last. Entries pushed by
    /// [`SpanGuard`] and by explicit parent adoption in pool jobs.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's dense trace id, per subscriber generation.
    static THREAD_ID: RefCell<Option<(u64, u64)>> = const { RefCell::new(None) };
}

fn thread_trace_id(obs: &Obs) -> u64 {
    THREAD_ID.with(|slot| {
        let mut slot = slot.borrow_mut();
        match *slot {
            Some((generation, tid)) if generation == obs.generation => tid,
            _ => {
                let tid = obs.trace.register_thread();
                *slot = Some((obs.generation, tid));
                tid
            }
        }
    })
}

/// The id of the innermost open span on this thread (0 if none). Capture
/// it before handing work to another thread, then reopen the lineage
/// there with [`Obs::span_with_parent`].
pub fn current_span_id() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An open span; ends (and is recorded) on drop. Obtained from
/// [`crate::span!`] or [`Obs::span`] — a disabled subscriber yields an
/// inert guard that costs nothing to drop.
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

struct ActiveSpan {
    obs: Arc<Obs>,
    name: Cow<'static, str>,
    cat: &'static str,
    id: u64,
    parent: u64,
    start: Instant,
}

impl SpanGuard {
    /// An inert guard (disabled subscriber).
    pub(crate) fn noop() -> SpanGuard {
        SpanGuard { inner: None }
    }

    pub(crate) fn begin(
        obs: Arc<Obs>,
        name: Cow<'static, str>,
        cat: &'static str,
        parent: Option<u64>,
    ) -> SpanGuard {
        let id = obs.next_span_id.fetch_add(1, Ordering::Relaxed);
        let parent = parent.unwrap_or_else(current_span_id);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            inner: Some(ActiveSpan {
                obs,
                name,
                cat,
                id,
                parent,
                start: Instant::now(),
            }),
        }
    }

    /// This span's id (0 for an inert guard), for cross-thread parenting.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.inner.take() else {
            return;
        };
        let dur_ns = span.start.elapsed().as_nanos() as u64;
        let ts_ns = span.start.duration_since(span.obs.start).as_nanos() as u64;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop back to (and including) this span. Guards drop in LIFO
            // order in correct code; the retain guards against a guard
            // leaked across an unwind.
            if stack.last() == Some(&span.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != span.id);
            }
        });
        if let Some(h) = span.obs.metrics.histogram(&span.name) {
            h.record(dur_ns);
        }
        if span.obs.trace.capacity == 0 {
            // A metrics-only subscriber: nothing to buffer, no lock taken.
            return;
        }
        let tid = thread_trace_id(&span.obs);
        span.obs.trace.push(SpanRecord {
            name: span.name,
            cat: span.cat,
            id: span.id,
            parent: span.parent,
            tid,
            ts_ns,
            dur_ns,
        });
    }
}

//! The closed loop: each caller sends its next operation only after the
//! previous one completed, until the window closes.

use crate::stats::percentile;
use puppies_obs::Obs;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Failure messages kept for the report; the rest are only counted.
const KEPT_ERRORS: usize = 8;

/// How long the traced run keeps tracing on, then off, in turn.
const TRACE_SLICE: Duration = Duration::from_millis(250);

/// What a timed window measured. Each correct operation is kept as
/// (completion time since the window opened, latency), in nanoseconds.
#[derive(Debug, Default)]
pub struct Window {
    /// Operations that completed correctly with tracing off.
    pub untraced: Vec<(u64, u64)>,
    /// Operations that completed correctly with tracing on.
    pub traced: Vec<(u64, u64)>,
    pub attempted: u64,
    /// Operations that errored or returned wrong output.
    pub failed: u64,
    pub errors: Vec<String>,
    pub wall_s: f64,
}

impl Window {
    /// Every correct operation's latency, ascending.
    pub fn sorted_ns(&self) -> Vec<u64> {
        sorted_latencies(self.untraced.iter().chain(&self.traced))
    }

    /// Throughput (1/s) and median latency (ns) of each of `k` equal
    /// slices of the window, so one noisy stretch moves one slice only.
    pub fn slices(&self, k: usize) -> Vec<(f64, f64)> {
        let span = self.wall_s * 1e9 / k as f64;
        (0..k)
            .filter_map(|i| {
                let (lo, hi) = (span * i as f64, span * (i + 1) as f64);
                let lat = sorted_latencies(
                    self.untraced
                        .iter()
                        .chain(&self.traced)
                        .filter(|(end, _)| (lo..hi).contains(&(*end as f64))),
                );
                (!lat.is_empty()).then(|| (lat.len() as f64 / (span / 1e9), percentile(&lat, 50.0)))
            })
            .collect()
    }
}

pub fn sorted_latencies<'a>(ops: impl Iterator<Item = &'a (u64, u64)>) -> Vec<u64> {
    let mut lat: Vec<u64> = ops.map(|&(_, ns)| ns).collect();
    lat.sort_unstable();
    lat
}

/// Per-name span totals gathered over the traced slices.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
}

/// Collects the spans of the traced slices. Spans stay in memory until
/// the run ends; the first slice is kept whole for the trace file.
#[derive(Default)]
pub struct Tracer {
    pub by_name: BTreeMap<String, SpanTotals>,
    pub first_slice: Option<String>,
}

impl Tracer {
    fn absorb(&mut self, obs: &Obs) {
        let spans = obs.spans();
        let mut children: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                *children.entry(s.parent).or_default() += s.dur_ns;
            }
        }
        for s in &spans {
            let t = self.by_name.entry(s.name.to_string()).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns;
            t.self_ns += s
                .dur_ns
                .saturating_sub(children.get(&s.id).copied().unwrap_or(0));
        }
        if self.first_slice.is_none() && !spans.is_empty() {
            self.first_slice = Some(obs.chrome_trace());
        }
    }
}

/// Runs `op` in a closed loop on one thread per state for `seconds`. With
/// a tracer, tracing is switched on and off in turn every 250 ms, each
/// traced operation runs under a root span named `root`, and latencies
/// are kept apart by whether tracing was on when the operation began.
pub fn closed_loop<S: Send>(
    states: Vec<S>,
    seconds: f64,
    root: &'static str,
    tracer: Option<&mut Tracer>,
    op: impl Fn(&mut S) -> Result<(), String> + Sync,
) -> Window {
    let callers = states.len();
    let start_line = Barrier::new(callers + 1);
    let opened = OnceLock::<Instant>::new();
    let failed = AtomicU64::new(0);
    let errors = Mutex::new(Vec::new());
    let mut window = Window::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (start_line, opened, failed, errors, op) =
                    (&start_line, &opened, &failed, &errors, &op);
                scope.spawn(move || {
                    let mut lat = (Vec::new(), Vec::new());
                    start_line.wait();
                    let opened = *opened.get().expect("window opened before the start line");
                    let end = opened + Duration::from_secs_f64(seconds);
                    let mut attempted = 0u64;
                    while Instant::now() < end {
                        attempted += 1;
                        let traced = puppies_obs::enabled();
                        let began = Instant::now();
                        let out = {
                            let _root = traced.then(|| puppies_obs::span(root, "bench"));
                            op(&mut state)
                        };
                        let done = Instant::now();
                        let op = (
                            (done - opened).as_nanos() as u64,
                            (done - began).as_nanos() as u64,
                        );
                        match out {
                            Ok(()) if traced => lat.1.push(op),
                            Ok(()) => lat.0.push(op),
                            Err(e) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                                let mut kept = errors.lock().expect("error lock");
                                if kept.len() < KEPT_ERRORS {
                                    kept.push(e);
                                }
                            }
                        }
                    }
                    (lat, attempted)
                })
            })
            .collect();
        let began = Instant::now();
        let end = began + Duration::from_secs_f64(seconds);
        opened.set(began).expect("window opened once");
        start_line.wait();
        if let Some(tracer) = tracer {
            let mut session = None;
            while Instant::now() < end {
                std::thread::sleep(TRACE_SLICE.min(end.saturating_duration_since(Instant::now())));
                session = match session.take() {
                    None => Some(Obs::install()),
                    Some(s) => {
                        if let Some(obs) = puppies_obs::ObsSession::finish(s) {
                            tracer.absorb(&obs);
                        }
                        None
                    }
                };
            }
            // Operations in flight finish before the subscriber goes.
            let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            if let Some(obs) = session.and_then(puppies_obs::ObsSession::finish) {
                tracer.absorb(&obs);
            }
            window.wall_s = began.elapsed().as_secs_f64();
            gather(&mut window, results);
        } else {
            let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            window.wall_s = began.elapsed().as_secs_f64();
            gather(&mut window, results);
        }
    });
    window.failed = failed.into_inner();
    window.errors = errors.into_inner().expect("error lock");
    window
}

type Ops = Vec<(u64, u64)>;
type CallerResult = std::thread::Result<((Ops, Ops), u64)>;

fn gather(window: &mut Window, results: Vec<CallerResult>) {
    for r in results {
        let ((untraced, traced), attempted) = r.expect("caller thread panicked");
        window.untraced.extend(untraced);
        window.traced.extend(traced);
        window.attempted += attempted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupt_response_counts_as_failed() {
        // Two callers check replies the way `view` does; every 50th reply
        // has one corrupt byte, which the check must catch and count.
        let served = AtomicU64::new(0);
        let window = closed_loop(vec![(); 2], 0.2, "test.op", None, |_| {
            let n = served.fetch_add(1, Ordering::Relaxed);
            let want = [7u8; 64];
            let mut got = want;
            if n % 50 == 49 {
                got[13] ^= 1;
            }
            crate::view::same_as_warmup("reply", &want, &got)
        });
        let n = served.load(Ordering::Relaxed);
        assert_eq!(window.attempted, n);
        assert_eq!(window.failed, n / 50);
        assert!(window.failed > 0, "window too short to inject a failure");
        assert_eq!(window.sorted_ns().len() as u64, n - n / 50);
        assert!(window.errors[0].contains("differs"));
    }
}

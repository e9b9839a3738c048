//! Order statistics for latency samples and per-call timings.

use std::time::{Duration, Instant};

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The highest of the usual tail percentiles that still has at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= TAIL_SAMPLES as f64 - 1e-9)
}

/// The 99th percentile, refused (`None`) under 1000 samples: with fewer,
/// fewer than ten samples lie beyond it.
pub fn p99(sorted: &[u64]) -> Option<f64> {
    (tail_percentile(sorted.len())? >= 99.0).then(|| percentile(sorted, 99.0))
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Count, total and median of the calls into one public function.
#[derive(Debug, Default, Clone)]
pub struct Timing {
    samples_ns: Vec<u64>,
}

impl Timing {
    /// Times one call and keeps its result.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.record(start.elapsed());
        out
    }

    /// Records one call's duration.
    pub fn record(&mut self, d: Duration) {
        self.samples_ns.push(d.as_nanos() as u64);
    }

    /// Number of calls timed.
    pub fn count(&self) -> usize {
        self.samples_ns.len()
    }

    /// Sum of all call durations, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.samples_ns.iter().sum::<u64>() as f64 / 1e6
    }

    /// Median call duration, microseconds (0 with no calls).
    pub fn p50_us(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let mut s = self.samples_ns.clone();
        s.sort_unstable();
        percentile(&s, 50.0) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn p99_is_refused_under_1000_samples() {
        let few: Vec<u64> = (1..=999).collect();
        assert_eq!(p99(&few), None);
        let enough: Vec<u64> = (1..=1000).collect();
        assert_eq!(p99(&enough), Some(990.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}

//! Log-linear histograms with atomic buckets.
//!
//! The bucket layout is the classic HdrHistogram-style log-linear grid:
//! values `0..16` get one bucket each (exact), and every power-of-two
//! range `[2^e, 2^(e+1))` above that is split into 16 linear sub-buckets,
//! up to `2^MAX_EXP` where the histogram saturates into one final
//! overflow bucket. Relative quantile error is therefore bounded by
//! 1/16 ≈ 6% everywhere below the saturation point, which is plenty for
//! p50/p95/p99 latency reporting, while the whole structure stays a flat
//! array of atomics — recording is one index computation plus four
//! relaxed atomic ops, with no locks and no allocation.
//!
//! Values are unitless `u64`s; the pipeline records nanoseconds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two range (and the size of the exact range).
const LINEAR: u64 = 16;
/// log2(LINEAR): exponents below this are covered by the exact buckets.
const LINEAR_BITS: u32 = 4;
/// First exponent whose range saturates into the overflow bucket.
/// `2^40` ns ≈ 18 minutes, far beyond any span this pipeline produces.
const MAX_EXP: u32 = 40;
/// Total bucket count: 16 exact + 16 per decade + 1 overflow.
pub(crate) const BUCKETS: usize =
    LINEAR as usize + (MAX_EXP - LINEAR_BITS) as usize * LINEAR as usize + 1;

/// Maps a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    if e >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (v >> (e - LINEAR_BITS)) & (LINEAR - 1);
    LINEAR as usize + (e - LINEAR_BITS) as usize * LINEAR as usize + sub as usize
}

/// Inclusive lower bound of bucket `i` (the smallest value that lands in it).
fn bucket_lo(i: usize) -> u64 {
    if i < LINEAR as usize {
        return i as u64;
    }
    if i == BUCKETS - 1 {
        return 1u64 << MAX_EXP;
    }
    let off = i - LINEAR as usize;
    let e = LINEAR_BITS + (off / LINEAR as usize) as u32;
    let sub = (off % LINEAR as usize) as u64;
    (1u64 << e) + sub * (1u64 << (e - LINEAR_BITS))
}

/// Exclusive upper bound of bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i < LINEAR as usize {
        return i as u64 + 1;
    }
    if i == BUCKETS - 1 {
        return u64::MAX;
    }
    let off = i - LINEAR as usize;
    let e = LINEAR_BITS + (off / LINEAR as usize) as u32;
    bucket_lo(i) + (1u64 << (e - LINEAR_BITS))
}

/// One-pass cumulative view of a histogram: what exposition writes as
/// `_bucket`/`_sum`/`_count` lines and what [`crate::parse_prometheus`]
/// reads back.
///
/// `buckets` holds `(le, cumulative)` pairs for every *occupied* bucket,
/// where `le` is the largest value that lands in the bucket (Prometheus'
/// inclusive upper bound — our buckets hold integers, so the inclusive
/// edge is `bucket_hi - 1`). The overflow bucket is folded into `count`
/// only: exposition renders it as `+Inf`. `count` is re-derived from the
/// bucket array in the same pass, so a renderer's `+Inf` sample can never
/// disagree with its `_count` even while other threads keep recording.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// `(inclusive upper bound, cumulative count)`, ascending, occupied
    /// buckets only.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations as summed from the buckets.
    pub count: u64,
    /// Sum of observations at snapshot time.
    pub sum: u64,
}

/// A concurrent log-linear histogram. All operations are lock-free;
/// `record` is safe from any number of threads.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Cumulative bucket snapshot for exposition (see
    /// [`HistogramSnapshot`]). One pass over the bucket array; the
    /// returned `count` is the pass's own total so renderers stay
    /// internally consistent under concurrent recording.
    pub fn cumulative(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            sum: self.sum(),
            ..HistogramSnapshot::default()
        };
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            cum += c;
            if i < BUCKETS - 1 {
                out.buckets.push((bucket_hi(i) - 1, cum));
            }
        }
        out.count = cum;
        out
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) as
    /// [`HistogramSnapshot::quantile`] does, clamped to the observed
    /// min/max so exact extremes are never overstated. Returns 0.0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        // Not `clamp`: a racing `record` can publish its min before its
        // max, and `clamp` panics when the bounds cross.
        let est = self.cumulative().quantile(q);
        est.max(self.min() as f64).min(self.max() as f64)
    }
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the target bucket, between its smallest value and its `le`
    /// (both from this crate's bucket layout, so `quantile(1.0)` is the
    /// highest occupied bucket's `le`). A rank past the finite buckets
    /// lies in the overflow bucket and reports its lower bound. Returns
    /// 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut below = 0u64;
        for &(le, cum) in &self.buckets {
            if cum as f64 >= rank {
                let lo = bucket_lo(bucket_index(le)) as f64;
                let frac = (rank - below as f64) / (cum - below) as f64;
                return lo + (le as f64 - lo) * frac;
            }
            below = cum;
        }
        bucket_lo(BUCKETS - 1) as f64
    }

    /// The observations recorded between `earlier` and `self`, two
    /// snapshots of one histogram: each bucket's cumulative count, the
    /// count and the sum, less `earlier`'s. Buckets nothing landed in
    /// between the two are left out, as [`Histogram::cumulative`] leaves
    /// out empty ones.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut old = earlier.buckets.iter().peekable();
        let (mut before, mut last) = (0u64, 0u64);
        let mut buckets = Vec::new();
        for &(le, cum) in &self.buckets {
            while let Some(&(_, c)) = old.next_if(|&&(old_le, _)| old_le <= le) {
                before = c;
            }
            let d = cum.saturating_sub(before);
            if d > last {
                buckets.push((le, d));
                last = d;
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize, "value {v}");
            assert_eq!(bucket_lo(v as usize), v);
            assert_eq!(bucket_hi(v as usize), v + 1);
        }
    }

    #[test]
    fn boundary_values_land_in_their_own_range() {
        // Every power of two starts a fresh sub-bucket row, and the value
        // just below it belongs to the previous row's last sub-bucket.
        for e in LINEAR_BITS..MAX_EXP {
            let p = 1u64 << e;
            let at = bucket_index(p);
            let below = bucket_index(p - 1);
            assert_eq!(below + 1, at, "2^{e} must open a new bucket");
            assert_eq!(bucket_lo(at), p, "2^{e} is its bucket's lower bound");
            assert!(bucket_hi(below) == p, "previous bucket ends at 2^{e}");
        }
        // Within a row, sub-bucket width is 2^(e-4).
        let i = bucket_index(1024);
        assert_eq!(bucket_hi(i) - bucket_lo(i), 64);
    }

    #[test]
    fn saturation_at_max_bucket() {
        let h = Histogram::new();
        for v in [1u64 << MAX_EXP, (1u64 << MAX_EXP) + 12345, u64::MAX] {
            assert_eq!(bucket_index(v), BUCKETS - 1, "value {v}");
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        // The quantile of a fully saturated histogram reports the overflow
        // bucket's lower bound (clamped into min..max), not garbage.
        assert!(h.quantile(0.5) >= (1u64 << MAX_EXP) as f64);
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 5000.0), (0.95, 9500.0), (0.99, 9900.0)] {
            let got = h.quantile(q);
            let err = (got - want).abs() / want;
            assert!(err < 0.08, "q{q}: got {got}, want ~{want} (err {err:.3})");
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn cumulative_snapshot_is_monotone_and_complete() {
        let h = Histogram::new();
        for v in [0u64, 3, 3, 17, 900, 900, 1 << 41] {
            h.record(v);
        }
        let snap = h.cumulative();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 6 + 17 + 1800 + (1 << 41));
        // Occupied finite buckets only, ascending bounds, cumulative counts.
        let mut prev_le = 0;
        let mut prev_cum = 0;
        for &(le, cum) in &snap.buckets {
            assert!(le >= prev_le && cum >= prev_cum, "({le},{cum})");
            prev_le = le;
            prev_cum = cum;
        }
        // The overflow observation appears in count but not in any finite bucket.
        assert_eq!(snap.buckets.last().unwrap().1, 6);
        // The exact small values land at their inclusive bounds.
        assert_eq!(snap.buckets[0], (0, 1));
        assert_eq!(snap.buckets[1], (3, 3));
    }

    #[test]
    fn since_is_the_histogram_of_what_came_between() {
        let h = Histogram::new();
        let later_only = Histogram::new();
        for v in (0..3_000u64).map(|v| v * 7 + 1) {
            h.record(v);
        }
        let earlier = h.cumulative();
        for v in (0..2_000u64).map(|v| v * 13 + 5) {
            h.record(v);
            later_only.record(v);
        }
        assert_eq!(h.cumulative().since(&earlier), later_only.cumulative());
        assert_eq!(earlier.since(&earlier), HistogramSnapshot::default());
        assert_eq!(earlier.since(&HistogramSnapshot::default()), earlier);
    }

    #[test]
    fn cumulative_snapshot_of_empty_histogram() {
        let h = Histogram::new();
        let snap = h.cumulative();
        assert!(snap.buckets.is_empty());
        assert_eq!(snap.count, 0);
        assert_eq!(snap.sum, 0);
    }
}

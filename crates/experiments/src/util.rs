//! Shared helpers: summary statistics, table printing, dataset sweeps.

use puppies_datasets::{DatasetProfile, LabeledImage};

/// Five-number summary used throughout the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub median: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Stats {
    /// Computes the summary of a sample (empty input yields zeros).
    pub fn of(values: &[f64]) -> Stats {
        if values.is_empty() {
            return Stats {
                mean: 0.0,
                median: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        Stats {
            mean,
            median,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            n,
        }
    }

    /// Renders as `mean/median/std/min/max` with the given precision.
    pub fn row(&self, precision: usize) -> String {
        format!(
            "{:>8.p$} {:>8.p$} {:>8.p$} {:>8.p$} {:>8.p$}",
            self.mean,
            self.median,
            self.std,
            self.min,
            self.max,
            p = precision
        )
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Materializes a dataset profile on the shared worker pool (generation is
/// deterministic per index and results are reassembled in index order, so
/// the output matches sequential generation exactly).
pub fn load(profile: DatasetProfile, seed: u64) -> Vec<LabeledImage> {
    puppies_core::parallel::WorkerPool::global().map_indexed(profile.count, |idx| {
        puppies_datasets::generate_one(profile, seed, idx)
    })
}

/// Runs `f` over items on the shared worker pool, collecting results in
/// order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    puppies_core::parallel::WorkerPool::global().map_slice(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_sample() {
        let s = Stats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.n, 4);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_is_zeroed() {
        let s = Stats::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn stats_odd_median() {
        let s = Stats::of(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u32> = (0..100).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn load_matches_sequential_generation() {
        let p = puppies_datasets::DatasetProfile::pascal()
            .with_count(4)
            .with_resolution(64, 48);
        let par = load(p, 42);
        let seq: Vec<_> = puppies_datasets::generate(p, 42).collect();
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(seq.iter()) {
            assert_eq!(a.image, b.image);
        }
    }
}

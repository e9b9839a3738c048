//! Named counters, gauges and histograms behind a sharded registry.
//!
//! The registry is "lock-free-ish": metric *updates* are plain atomic
//! operations with no lock held, and metric *lookup* takes a short
//! read-lock on one of 16 name-hashed shards (a write-lock only the
//! first time a name is seen). Contention between pipeline stages is
//! therefore limited to threads updating the *same* metric, which is
//! exactly the atomics' job.

use crate::hist::Histogram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

const SHARDS: usize = 16;

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins signed gauge.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (possibly negative) to the gauge.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The sharded name → metric map.
pub struct MetricRegistry {
    shards: [RwLock<HashMap<String, Metric>>; SHARDS],
}

impl Default for MetricRegistry {
    fn default() -> Self {
        MetricRegistry {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }
}

macro_rules! get_or_insert {
    ($self:ident, $name:ident, $variant:ident, $ty:ty) => {{
        let shard = &$self.shards[(crate::fnv64($name.as_bytes()) % SHARDS as u64) as usize];
        if let Some(Metric::$variant(m)) =
            shard.read().unwrap_or_else(|e| e.into_inner()).get($name)
        {
            return Some(m.clone());
        }
        let mut map = shard.write().unwrap_or_else(|e| e.into_inner());
        match map
            .entry($name.to_string())
            .or_insert_with(|| Metric::$variant(Arc::new(<$ty>::default())))
        {
            Metric::$variant(m) => Some(m.clone()),
            // Name already registered as a different metric kind: report
            // nothing rather than corrupt the other metric.
            _ => None,
        }
    }};
}

impl MetricRegistry {
    /// The counter named `name`, created on first use. `None` if the name
    /// is already taken by a different metric kind.
    pub fn counter(&self, name: &str) -> Option<Arc<Counter>> {
        get_or_insert!(self, name, Counter, Counter)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Option<Arc<Gauge>> {
        get_or_insert!(self, name, Gauge, Gauge)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        get_or_insert!(self, name, Histogram, Histogram)
    }

    /// Snapshot of every metric, each kind sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for shard in &self.shards {
            let map = shard.read().unwrap_or_else(|e| e.into_inner());
            for (name, metric) in map.iter() {
                match metric {
                    Metric::Counter(c) => out.counters.push((name.clone(), c.get())),
                    Metric::Gauge(g) => out.gauges.push((name.clone(), g.get())),
                    Metric::Histogram(h) => out.histograms.push((
                        name.clone(),
                        HistStats {
                            count: h.count(),
                            sum: h.sum(),
                            min: h.min(),
                            max: h.max(),
                            p50: h.quantile(0.50),
                            p95: h.quantile(0.95),
                            p99: h.quantile(0.99),
                        },
                    )),
                }
            }
        }
        out.counters.sort_by(|a, b| a.0.cmp(&b.0));
        out.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        out.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistStats {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// Point-in-time summary of every metric in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, stats)` pairs, sorted by name.
    pub histograms: Vec<(String, HistStats)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_register_once_and_accumulate() {
        let reg = MetricRegistry::default();
        reg.counter("a").unwrap().add(2);
        reg.counter("a").unwrap().add(3);
        reg.gauge("g").unwrap().set(7);
        reg.gauge("g").unwrap().add(-2);
        reg.histogram("h").unwrap().record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 5)]);
        assert_eq!(snap.gauges, vec![("g".to_string(), 5)]);
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn kind_conflicts_return_none() {
        let reg = MetricRegistry::default();
        assert!(reg.counter("x").is_some());
        assert!(reg.gauge("x").is_none());
        assert!(reg.histogram("x").is_none());
    }

    #[test]
    fn concurrent_updates_from_many_threads() {
        let reg = Arc::new(MetricRegistry::default());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        reg.counter("n").unwrap().add(1);
                        reg.histogram("lat").unwrap().record(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].1, 8000);
        assert_eq!(snap.histograms[0].1.count, 8000);
    }
}

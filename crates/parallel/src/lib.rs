//! The worker pool for batches of independent jobs in the PuPPIeS stack
//! (`protect-batch`, experiment sweeps, the benchmark's fixture
//! generation). Per-image stages do not use it: a single protect,
//! transform or recovery runs on its calling thread, and concurrent
//! requests are the parallelism. A caller names the pool it runs on: one
//! it built with [`WorkerPool::new`], or [`WorkerPool::global`].
//!
//! A [`WorkerPool`] is a thread count and owns no threads between calls.
//! [`WorkerPool::map_indexed`] runs one batch on `min(threads, count)`
//! scoped threads (`std::thread::scope`) that claim indices from one
//! shared counter. It joins them all before it returns, so jobs may
//! borrow from the caller's stack, and a job that maps again spawns
//! threads of its own, so nested batches cannot deadlock. It returns
//! results **in index order**, so a batch is bit-identical to its serial
//! run at any thread count (`crates/core/tests/parallel.rs`), and it
//! re-raises a job's panic in the caller with the job's own payload.
//! `threads <= 1`, or a batch of at most one job, runs inline on the
//! caller. Spawning per batch costs tens of microseconds, which the
//! callers' millisecond-scale jobs do not notice.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The number of threads a batch of independent jobs runs on.
///
/// Cloning is cheap: a pool is only its thread count.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool that runs each batch on up to `threads` threads; with
    /// `threads <= 1` every batch runs inline on the caller.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The thread count (minimum 1; 1 means serial inline execution).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The process-wide default pool. Sized by the `PUPPIES_THREADS`
    /// environment variable when set (a positive integer; `1` forces
    /// serial execution), else by the machine's available parallelism.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_threads()))
    }

    /// Runs `count` jobs `f(0) .. f(count-1)` and returns their results
    /// **in index order**. A job's panic is re-raised in the caller with
    /// its own payload, after every thread has finished.
    pub fn map_indexed<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads <= 1 || count <= 1 {
            return (0..count).map(f).collect();
        }
        // Each job span keeps the caller's span as its parent.
        let parent = puppies_obs::current_span_id();
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut done = Vec::new();
            // Relaxed: the counter publishes no data; `join` returns results.
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    return done;
                }
                let _span = puppies_obs::enabled().then(|| {
                    puppies_obs::counter_add("pool.jobs", 1);
                    puppies_obs::span_with_parent("pool.job", "pool", parent)
                });
                done.push((index, f(index)));
            }
        };
        let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads.min(count))
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("puppies-worker-{i}"))
                        .spawn_scoped(scope, claim)
                        .expect("spawn worker thread")
                })
                .collect();
            // The scope waits for every thread before it re-raises.
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        });
        done.sort_unstable_by_key(|&(index, _)| index);
        done.into_iter().map(|(_, result)| result).collect()
    }

    /// Maps `f` over `items`, returning results in item order.
    pub fn map_slice<'env, T, R, F>(&self, items: &'env [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'env T) -> R + Sync,
    {
        self.map_indexed(items.len(), move |i| f(&items[i]))
    }
}

fn default_threads() -> usize {
    if let Ok(value) = std::env::var("PUPPIES_THREADS") {
        match value.parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!(
                "PUPPIES_THREADS={value:?} is not a positive integer; \
                 falling back to available parallelism"
            ),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn map_indexed_preserves_order() {
        let pool = WorkerPool::new(4);
        let out = pool.map_indexed(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.map_indexed(8, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn map_slice_borrows_caller_data() {
        let pool = WorkerPool::new(2);
        let data: Vec<String> = (0..16).map(|i| format!("item-{i}")).collect();
        let lens = pool.map_slice(&data, |s| s.len());
        assert_eq!(lens, data.iter().map(|s| s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn results_match_serial_for_any_worker_count() {
        let work = |i: usize| -> u64 {
            // Non-commutative mixing so ordering bugs show up.
            (0..100u64).fold(i as u64, |acc, k| {
                acc.wrapping_mul(6364136223846793005).wrapping_add(k)
            })
        };
        let serial = WorkerPool::new(1).map_indexed(33, work);
        for threads in [2, 4, 8] {
            let parallel = WorkerPool::new(threads).map_indexed(33, work);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn nested_maps_do_not_deadlock() {
        // Every job of the outer map runs an inner map on the same pool.
        let pool = WorkerPool::new(2);
        let out = pool.map_indexed(4, |i| {
            let inner: usize = pool.map_indexed(4, |j| i * 10 + j).into_iter().sum();
            inner
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn job_panics_propagate_to_caller() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("the job's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 5 exploded"));
        // The pool must still be usable afterwards.
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn pool_metrics_recorded_when_subscribed() {
        let session = puppies_obs::Obs::install();
        let pool = WorkerPool::new(2);
        let caller = puppies_obs::span("caller", "test");
        let caller_id = puppies_obs::current_span_id();
        let out = pool.map_indexed(16, |i| i * 2);
        drop(caller);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        let obs = session.finish().unwrap();
        let snap = obs.metrics().snapshot();
        let jobs = snap
            .counters
            .iter()
            .find(|(n, _)| n == "pool.jobs")
            .map_or(0, |&(_, v)| v);
        assert!(jobs >= 16, "submitted jobs counted: {jobs}");
        let (_, lat) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "pool.job")
            .expect("job latency histogram");
        assert!(lat.count >= 16);
        // Tests running beside this one may record pool.job spans of
        // their own while the subscriber is installed, so count the
        // caller's children rather than every job span.
        assert_ne!(caller_id, 0);
        let children = obs
            .spans()
            .iter()
            .filter(|s| s.name == "pool.job" && s.parent == caller_id)
            .count();
        assert_eq!(children, 16, "pool.job spans parented to the caller");
    }
}

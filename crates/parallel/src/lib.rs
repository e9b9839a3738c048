//! The shared worker-pool execution layer for batches of independent
//! jobs in the PuPPIeS stack (`protect-batch`, experiment sweeps, the
//! benchmark's fixture generation). Per-image stages do not use it: a
//! single protect, transform or recovery runs on its calling thread, and
//! concurrent requests are the parallelism. No library code picks a pool
//! implicitly; a caller names the pool it runs on, either one it built
//! with [`WorkerPool::new`] or the process-wide [`WorkerPool::global`]
//! (sized by `PUPPIES_THREADS` or the machine's available parallelism).
//!
//! # Design
//!
//! One [`WorkerPool`] owns a set of persistent worker threads fed from a
//! single MPMC job queue. Work is submitted through the *scoped* entry
//! point [`WorkerPool::map_indexed`], which:
//!
//! - returns only after every submitted job has finished, so jobs may
//!   borrow from the caller's stack (the internal lifetime erasure is
//!   sound because of exactly this barrier);
//! - reassembles results **in submission order**, which is what makes
//!   every batch bit-identical to its serial counterpart regardless of
//!   worker count or scheduling;
//! - makes the waiting thread *help*: while its own jobs are
//!   outstanding it drains other jobs from the shared queue instead of
//!   blocking. Nested parallelism (a batch job that itself submits a
//!   batch) therefore cannot deadlock even with one worker thread.
//!
//! A pool with `threads <= 1` executes everything inline on the calling
//! thread; combined with ordered reassembly this gives the
//! SERIAL == PARALLEL property that `crates/core/tests/parallel.rs`
//! checks end-to-end.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crossbeam::channel::{self, Receiver, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Inner {
    sender: Option<Sender<Job>>,
    receiver: Receiver<Job>,
    threads: usize,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Closing the queue lets every worker's `recv` return Err.
        self.sender.take();
        for handle in self
            .workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

/// A pool of persistent worker threads with a shared job queue.
///
/// Cloning is cheap (the clone shares the same threads and queue).
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` workers. `threads <= 1` creates a
    /// *serial* pool: no threads are spawned and all scoped entry points
    /// run inline on the caller.
    pub fn new(threads: usize) -> Self {
        let (sender, receiver) = channel::unbounded::<Job>();
        let spawned = if threads <= 1 { 0 } else { threads };
        let workers = (0..spawned)
            .map(|i| {
                let rx = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("puppies-worker-{i}"))
                    .spawn(move || loop {
                        // Per-worker busy/idle accounting. Behind the
                        // `enabled` branch the loop is exactly the old
                        // `while let Ok(job) = rx.recv() { job() }`.
                        let idle_from = puppies_obs::enabled().then(Instant::now);
                        let Ok(job) = rx.recv() else { break };
                        if let Some(t) = idle_from {
                            puppies_obs::counter_add("pool.idle_ns", t.elapsed().as_nanos() as u64);
                        }
                        let busy_from = puppies_obs::enabled().then(Instant::now);
                        job();
                        if let Some(t) = busy_from {
                            puppies_obs::counter_add("pool.busy_ns", t.elapsed().as_nanos() as u64);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            inner: Arc::new(Inner {
                sender: Some(sender),
                receiver,
                threads: threads.max(1),
                workers: Mutex::new(workers),
            }),
        }
    }

    /// The worker count this pool was created with (minimum 1; 1 means
    /// serial inline execution).
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// The process-wide default pool. Sized by the `PUPPIES_THREADS`
    /// environment variable when set (a positive integer; `1` forces
    /// serial execution), else by the machine's available parallelism.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_threads()))
    }

    /// Runs `count` jobs `f(0) .. f(count-1)` on the pool and returns
    /// their results **in index order**. Panics from jobs are propagated
    /// to the caller (after all jobs have settled).
    pub fn map_indexed<'env, R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send + 'env,
        F: Fn(usize) -> R + Sync + 'env,
    {
        if self.inner.threads <= 1 || count <= 1 {
            return (0..count).map(f).collect();
        }

        let (result_tx, result_rx) = channel::unbounded::<(usize, Result<R, Panic>)>();
        let pending = AtomicUsize::new(count);
        {
            let f = &f;
            let pending = &pending;
            for index in 0..count {
                let tx = result_tx.clone();
                // Submission-side observability: capture the enqueue time
                // and the submitting span so the job keeps its lineage on
                // whichever thread runs it. `submitted` is `None` with no
                // subscriber, and everything below short-circuits.
                let submitted = puppies_obs::enabled().then(Instant::now);
                let parent = if submitted.is_some() {
                    puppies_obs::gauge_add("pool.queue_depth", 1);
                    puppies_obs::counter_add("pool.jobs", 1);
                    puppies_obs::current_span_id()
                } else {
                    0
                };
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let _span = match submitted {
                        Some(t) => {
                            puppies_obs::gauge_add("pool.queue_depth", -1);
                            puppies_obs::record("pool.job_wait", t.elapsed().as_nanos() as u64);
                            Some(puppies_obs::span_with_parent("pool.job", "pool", parent))
                        }
                        None => None,
                    };
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(index))).map_err(Panic);
                    pending.fetch_sub(1, Ordering::Release);
                    // The receiver lives until `map_indexed` returns, and
                    // the pool never drops jobs, so this cannot fail.
                    let _ = tx.send((index, outcome));
                });
                // SAFETY: this function does not return until all `count`
                // results have been received below, so every borrow the
                // job captures ('env, plus `pending`/`result_tx` on this
                // stack frame) strictly outlives the job's execution.
                let job: Job = unsafe { std::mem::transmute(job) };
                self.inner
                    .sender
                    .as_ref()
                    .expect("pool queue open while pool is alive")
                    .send(job)
                    .expect("worker queue disconnected");
            }
        }
        drop(result_tx);

        let mut slots: Vec<Option<Result<R, Panic>>> = Vec::new();
        slots.resize_with(count, || None);
        let mut received = 0;
        while received < count {
            // Help: run queued jobs (ours or anyone's) instead of
            // blocking, so nested fan-outs cannot deadlock.
            match result_rx.try_recv() {
                Ok((index, outcome)) => {
                    slots[index] = Some(outcome);
                    received += 1;
                }
                Err(_) => match self.inner.receiver.try_recv() {
                    Ok(job) => job(),
                    Err(_) => {
                        if pending.load(Ordering::Acquire) == 0 {
                            // All jobs finished; results are in flight.
                            if let Ok((index, outcome)) = result_rx.recv() {
                                slots[index] = Some(outcome);
                                received += 1;
                            }
                        } else {
                            std::thread::yield_now();
                        }
                    }
                },
            }
        }

        slots
            .into_iter()
            .map(|slot| match slot.expect("every index reported") {
                Ok(value) => value,
                Err(Panic(payload)) => resume_unwind(payload),
            })
            .collect()
    }

    /// Maps `f` over `items`, returning results in item order.
    pub fn map_slice<'env, T, R, F>(&self, items: &'env [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send + 'env,
        F: Fn(&'env T) -> R + Sync + 'env,
    {
        self.map_indexed(items.len(), move |i| f(&items[i]))
    }
}

/// A captured panic payload, carried from a worker back to the caller.
struct Panic(Box<dyn std::any::Any + Send + 'static>);

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
        // One worker thread + nesting: the inner map must be helped to
        // completion by threads blocked in the outer map.
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
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn pool_metrics_recorded_when_subscribed() {
        let session = puppies_obs::Obs::install();
        let pool = WorkerPool::new(2);
        let out = pool.map_indexed(16, |i| i * 2);
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
        // Queue drained: depth gauge returned to zero.
        let depth = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "pool.queue_depth")
            .map_or(0, |&(_, v)| v);
        assert_eq!(depth, 0);
    }
}

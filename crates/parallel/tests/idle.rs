//! A pool holds no threads between batches: once `map_indexed` returns,
//! the process runs as many threads as before the pool was built, while
//! the pool itself is still alive. Linux only (reads `/proc/self/status`);
//! a test binary of its own, so no other test's threads move the count.
#![cfg(target_os = "linux")]

use puppies_parallel::WorkerPool;
use std::time::{Duration, Instant};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

#[test]
fn pool_keeps_no_threads_after_a_batch() {
    let before = threads();
    let pool = WorkerPool::new(3);
    assert_eq!(pool.map_indexed(9, |i| i + 1), (1..10).collect::<Vec<_>>());
    // A joined thread can still be counted for a moment while the kernel
    // reaps it, so allow the count a bounded time to settle.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut after = threads();
    while after != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        after = threads();
    }
    assert_eq!(
        after, before,
        "threads left running by a live 3-thread pool"
    );
    // The pool is still alive here.
    assert_eq!(pool.threads(), 3);
}

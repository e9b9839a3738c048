//! Per-backend failure injection for the cluster, mirroring the PR 6
//! service gate's kill -9 discipline in-process: a [`FaultPlan`] holds
//! one optional [`Fault`] slot per backend, consulted on every
//! share-store and share-fetch. Tests arm faults mid-workload and the
//! cluster's oracles assert that acknowledged uploads still reconstruct
//! byte-identically as long as ≤ n−k backends are down.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// What a faulty backend does on its next operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The backend is dead: every store/fetch against it errors.
    Kill,
    /// The backend stores and serves its share with bytes flipped
    /// (caught by the share integrity tag — a corrupting backend must
    /// look like a dead one to the reconstructor, never like a healthy
    /// one).
    Corrupt,
    /// The backend answers after sleeping this many milliseconds
    /// (exercises the fetch path's tolerance of slow quorum members).
    Delay(u64),
}

/// One fault slot per backend; `None` means healthy.
#[derive(Debug)]
pub struct FaultPlan {
    slots: Vec<Mutex<Option<Fault>>>,
}

impl FaultPlan {
    /// A plan with `n` healthy backends.
    pub fn healthy(n: usize) -> Self {
        FaultPlan {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Number of backend slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the plan has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Arms `fault` on `backend` (replacing any existing fault).
    ///
    /// # Panics
    /// Panics if `backend` is out of range — faults are a test-harness
    /// construct and a bad index is harness misuse.
    pub fn set(&self, backend: usize, fault: Fault) {
        *self.slots[backend]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(fault);
    }

    /// Heals `backend`.
    pub fn clear(&self, backend: usize) {
        *self.slots[backend]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Heals every backend.
    pub fn clear_all(&self) {
        for slot in &self.slots {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// The currently armed fault for `backend`, if any.
    pub fn get(&self, backend: usize) -> Option<Fault> {
        *self.slots[backend]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies the armed fault to an operation against `backend`:
    /// sleeps through `Delay` then reports the backend usable, reports
    /// `Kill` as unusable, and hands `Corrupt` back for the caller to
    /// mangle the share bytes (stores and fetches flip different bits,
    /// so the tag check fires).
    pub fn apply(&self, backend: usize) -> FaultOutcome {
        match self.get(backend) {
            None => FaultOutcome::Healthy,
            Some(Fault::Kill) => FaultOutcome::Dead,
            Some(Fault::Corrupt) => FaultOutcome::Corrupting,
            Some(Fault::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                FaultOutcome::Healthy
            }
        }
    }

    /// Indices of backends currently armed with `Kill`.
    pub fn dead_backends(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.get(i) == Some(Fault::Kill))
            .collect()
    }
}

/// Result of consulting the plan for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Proceed normally (any delay already served).
    Healthy,
    /// The backend must error.
    Dead,
    /// The backend serves, but the caller corrupts the bytes in flight.
    Corrupting,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_clear_cycle() {
        let plan = FaultPlan::healthy(3);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.apply(1), FaultOutcome::Healthy);
        plan.set(1, Fault::Kill);
        assert_eq!(plan.apply(1), FaultOutcome::Dead);
        assert_eq!(plan.dead_backends(), vec![1]);
        plan.set(2, Fault::Corrupt);
        assert_eq!(plan.apply(2), FaultOutcome::Corrupting);
        plan.clear(1);
        assert_eq!(plan.apply(1), FaultOutcome::Healthy);
        plan.clear_all();
        assert_eq!(plan.apply(2), FaultOutcome::Healthy);
        assert!(plan.dead_backends().is_empty());
    }

    #[test]
    fn delay_serves_after_sleeping() {
        let plan = FaultPlan::healthy(1);
        plan.set(0, Fault::Delay(1));
        let t0 = std::time::Instant::now();
        assert_eq!(plan.apply(0), FaultOutcome::Healthy);
        assert!(t0.elapsed() >= Duration::from_millis(1));
    }
}

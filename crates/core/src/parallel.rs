//! Re-export of the shared worker-pool layer ([`puppies_parallel`]).
//!
//! The pool runs batches of independent requests; the per-image stages in
//! this crate (protect, perturbation, recovery) run on the calling thread.
//! Callers reach the pool as `puppies_core::parallel`; see [`WorkerPool`]
//! for the execution model and [`with_pool`] for scoping a pool to a
//! closure.

pub use puppies_parallel::*;

//! Re-export of the shared worker-pool layer ([`puppies_parallel`]).
//!
//! The pool runs batches of independent jobs, each batch on scoped
//! threads that are joined before it returns; the per-image stages in
//! this crate (protect, perturbation, recovery) run on the calling thread
//! and never reach for a pool themselves. Callers reach the pool as
//! `puppies_core::parallel` and name the one they run on: a
//! [`WorkerPool::new`] of their own or [`WorkerPool::global`].

pub use puppies_parallel::*;

//! The PSP on the wire: a std-only HTTP/1.1 service over [`crate::DiskStore`].
//!
//! The PUPPIES deployment model (Fig. 5) puts the photo-sharing platform
//! behind a network boundary: senders upload protected JPEG bitstreams,
//! the semi-honest PSP stores and transforms them, receivers download.
//! This module makes that boundary real without pulling in an HTTP stack:
//! requests are parsed and written by [`http`], bodies are length-framed
//! binary ([`proto`]), and protected bytes travel end-to-end untouched —
//! the server never re-encodes what it did not transform.
//!
//! # Endpoints
//!
//! | Method & path                  | Auth            | Body → response |
//! |--------------------------------|-----------------|-----------------|
//! | `GET  /healthz`                | —               | → `ok` (liveness, always 200) |
//! | `GET  /readyz`                 | —               | → `ready`, or 503 listing what is not ready |
//! | `GET  /metrics`                | —               | → Prometheus text format 0.0.4 |
//! | `POST /photos`                 | —               | framed bytes+params → `id:`/`token:` lines |
//! | `GET  /photos/<id>`            | —               | → raw bitstream |
//! | `GET  /photos/<id>/params`     | —               | → raw params |
//! | `POST /photos/<id>/transformed`| —               | transformation → framed bytes+params, `x-cache: hit\|miss` |
//! | `POST /photos/<id>/transform`  | owner bearer    | transformation → 204 (durable, in place) |
//! | `POST /search`                 | —               | framed probe+params → `sig:` line, then `<id> <distance>` lines |
//! | `POST /receivers`              | —               | 16-byte DH public → `token:` line |
//! | `POST /grants`                 | —               | receiver ‖ sender ‖ framed ciphertext → 204 (durable) |
//! | `GET  /grants`                 | receiver bearer | → framed deposits (drains, durably) |
//! | `POST /admin/shutdown`         | admin bearer    | → 202, graceful drain |
//!
//! A listed path asked with another method answers 405; any other path
//! answers 404. A transformation body is
//! [`puppies_transform::Transformation::to_bytes`], the same bytes the
//! served params record and the transform cache keys on; the server
//! refuses any body that encoding does not decode exactly with a 400.
//!
//! Grant bodies are end-to-end encrypted by the sender's
//! [`crate::SecureChannel`]; the PSP is a mailbox and never sees key
//! material in the clear. Downloads are deliberately public — the store
//! only ever holds *protected* bitstreams, and serving them to anyone is
//! exactly the paper's threat model.
//!
//! # Tokens
//!
//! Three bearer-token classes, all 64 lowercase hex chars:
//! - **admin** — random per store directory, persisted to `admin.token`;
//!   gates shutdown.
//! - **owner** — returned by upload, derived from the admin secret and the
//!   photo id, so it survives restarts without widening the WAL; gates the
//!   in-place transform.
//! - **receiver** — random, bound to a DH public value, WAL-durable;
//!   gates the grant mailbox drain.

pub mod client;
pub mod http;
pub mod proto;
pub mod server;
pub mod slo;

pub use client::Client;
pub use server::{serve, Recovery, ServeConfig, Server};
pub use slo::{Sample, SloRegistry};

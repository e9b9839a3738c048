//! End-to-end simulation of the PuPPIeS deployment (Fig. 5): a sender, a
//! semi-honest photo-sharing platform, receivers, and the private-matrix
//! sharing channel.
//!
//! - [`store`] — the PSP: stores perturbed images plus public parameters,
//!   serves them to anyone, and applies standard transformations on
//!   request (it is *semi-honest*: it follows the protocol but may run
//!   arbitrary analysis on what it stores — the attacks crate plays that
//!   role)
//! - [`channel`] — the secure key channel: a toy Diffie–Hellman key
//!   agreement plus stream encryption for transporting [`KeyGrant`]s.
//!   Key distribution is explicitly out of the paper's scope ("standard
//!   crypto method is used to distribute the keys"); this module exists so
//!   the end-to-end examples exercise a complete flow, and its security
//!   level is simulation-grade only (61-bit group!)
//! - [`client`] — [`client::Sender`] / [`client::Receiver`] wrapping the
//!   `puppies-core` protect/recover pipeline against the store

pub mod cache;
pub mod channel;
pub mod client;
pub mod cluster;
pub mod net;
pub mod sha256;
pub mod sig;
pub mod store;
pub mod store_disk;
pub mod wal;

pub use cache::{CacheStats, ServedPair};
pub use channel::{KeyAgreement, SecureChannel};
pub use client::{Receiver, Sender};
pub use cluster::fault::{Fault, FaultPlan};
pub use cluster::{ClusterConfig, ClusterPhotoId, ShardedPspCluster};
use puppies_core::KeyGrant;
pub use sig::{
    coeff_signature, dc_signature, hamming, SigEntry, SigIndex, SigMatch, NEAR_DUP_DISTANCE,
};
pub use store::{ContentId, PhotoId, PspConfig, PspServer, ServedPath};
pub use store_disk::{DiskStore, RecoveryStats};
pub use wal::{Wal, WalRecord};

use std::fmt;

/// Errors produced by the PSP simulation.
#[derive(Debug)]
#[non_exhaustive]
pub enum PspError {
    /// The requested photo does not exist.
    UnknownPhoto(PhotoId),
    /// A transformation could not be applied.
    Transform(puppies_transform::TransformError),
    /// A PuPPIeS-level failure (bad keys, undecodable image...).
    Core(puppies_core::PuppiesError),
    /// Channel decryption failed (wrong key or corrupted payload).
    Channel(String),
    /// The server's photo-id space is exhausted (u64 wrapped); no further
    /// uploads can be accepted without risking silent id reuse.
    IdsExhausted,
    /// A multi-backend cluster failure (quorum loss, bad share, bad
    /// shape...).
    Cluster(String),
}

impl fmt::Display for PspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PspError::UnknownPhoto(id) => write!(f, "unknown photo {id:?}"),
            PspError::Transform(e) => write!(f, "transform error: {e}"),
            PspError::Core(e) => write!(f, "core error: {e}"),
            PspError::Channel(m) => write!(f, "channel error: {m}"),
            PspError::IdsExhausted => write!(f, "photo id space exhausted"),
            PspError::Cluster(m) => write!(f, "cluster error: {m}"),
        }
    }
}

impl std::error::Error for PspError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PspError::Transform(e) => Some(e),
            PspError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<puppies_transform::TransformError> for PspError {
    fn from(e: puppies_transform::TransformError) -> Self {
        PspError::Transform(e)
    }
}

impl From<puppies_core::PuppiesError> for PspError {
    fn from(e: puppies_core::PuppiesError) -> Self {
        PspError::Core(e)
    }
}

/// Convenient result alias for PSP operations.
pub type Result<T> = std::result::Result<T, PspError>;

/// Transports a grant from a sender to a receiver over an established
/// secure channel (serialize → encrypt → decrypt → rebuild).
///
/// # Errors
/// Fails if decryption fails.
pub fn transport_grant(
    sender_channel: &SecureChannel,
    receiver_channel: &SecureChannel,
    grant: &KeyGrant,
) -> Result<KeyGrant> {
    let plain = channel::encode_grant(grant);
    let cipher = sender_channel.encrypt(&plain);
    let back = receiver_channel.decrypt(&cipher)?;
    channel::decode_grant(&back)
}

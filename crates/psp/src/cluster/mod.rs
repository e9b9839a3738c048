//! Multi-backend PSP: k-of-n Shamir-shared storage (PuPPIeS-SIS).
//!
//! PUPPIES assumes one semi-honest PSP; if that party is compromised the
//! privacy argument collapses. [`ShardedPspCluster`] removes the single
//! point of trust the way P3 splits secret content away from the
//! provider, but thresholded: the *secret* material of each upload — the
//! serialized [`KeyGrant`] (private perturbation matrices) together with
//! the protected JPEG payload — is framed, Shamir-split over GF(2⁸)
//! ([`shamir`]), and one share is stored on each of `n` independent
//! simulated backends, each only a map from (upload id, generation) to
//! share bytes. Public parameters stay public and are held by the
//! cluster. Any `k` backends reconstruct the upload byte-exactly; any
//! `k−1` learn nothing (information-theoretically — the
//! `puppies-attacks` leakage oracles measure this rather than assume it).
//!
//! Because the perturbed image itself is inside the split secret, a
//! cluster backend never sees even the perturbed pixels — strictly less
//! than the single-PSP threat model. The price, as with P3, is that
//! backends cannot apply server-side transformations; receivers
//! reconstruct and recover locally. DESIGN.md lays out the trade.
//!
//! Stores and fetches visit the backends in a plain loop on the calling
//! thread; the split and the digest run first, so each visit is one map
//! insert or lookup.
//!
//! Failure injection ([`fault`]) arms per-backend Kill/Corrupt/Delay
//! faults consulted on every share store/fetch, and
//! [`ShardedPspCluster::replace_backend`] + `rebalance` re-share with
//! fresh randomness under a bumped generation so replaced capacity heals
//! and stale shares can never be mixed into a fresh quorum. A successful
//! rebalance drops the old generation, and a store that misses its
//! quorum drops what it wrote; a killed backend keeps what it holds,
//! which the generation in the lookup key never reads again.

pub mod fault;
pub mod gf256;
pub mod shamir;

use crate::sha256::sha256_concat;
use crate::{PspError, Result};
use fault::{Fault, FaultOutcome, FaultPlan};
use puppies_core::{KeyGrant, PublicParams};
use puppies_image::RgbImage;
use shamir::Share;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

/// Identifier of an upload in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterPhotoId(pub u64);

/// Cluster shape and split seed.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of backends (shares issued per upload), 1 ..= 255.
    pub n: usize,
    /// Reconstruction threshold, 1 ..= n.
    pub k: usize,
    /// Root seed for split randomness (per-upload seeds are derived by
    /// hashing this with the upload id, generation, and a nonce).
    pub seed: [u8; 32],
}

impl ClusterConfig {
    /// A (n, k) cluster with a fixed seed.
    pub fn new(n: usize, k: usize) -> Self {
        ClusterConfig {
            n,
            k,
            seed: [0x5C; 32],
        }
    }

    /// Replaces the split-randomness seed.
    pub fn with_seed(mut self, seed: [u8; 32]) -> Self {
        self.seed = seed;
        self
    }
}

/// Book-keeping for one cluster upload.
#[derive(Debug)]
struct UploadMeta {
    /// Replicated public parameters (public by construction).
    params: std::sync::Arc<[u8]>,
    /// Current share generation; bumped by every rebalance.
    generation: u16,
    /// SHA-256 of the framed secret, checked after reconstruction.
    secret_sha: [u8; 32],
}

/// One simulated backend: share bytes keyed by (upload id, generation).
type Backend = RwLock<HashMap<(u64, u16), Vec<u8>>>;

/// The bits a corrupting backend flips in a share's middle byte when it
/// stores and when it serves it. They differ, so a backend that corrupts
/// both ways never serves the share back intact.
const STORE_FLIP: u8 = 0x01;
const FETCH_FLIP: u8 = 0x02;

/// A k-of-n cluster of simulated PSP backends with failure injection.
///
/// All methods take `&self`; internal state is lock-protected so tests
/// can drive uploads, faults, and rebalances from many threads.
pub struct ShardedPspCluster {
    config: ClusterConfig,
    backends: Vec<Backend>,
    faults: FaultPlan,
    uploads: RwLock<HashMap<u64, UploadMeta>>,
    /// Held through each rebalance, so two re-shares of one upload never
    /// interleave their stores under the same (id, generation) key.
    rebalancing: Mutex<()>,
    next_id: AtomicU64,
    split_nonce: AtomicU64,
}

impl std::fmt::Debug for ShardedPspCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPspCluster")
            .field("n", &self.config.n)
            .field("k", &self.config.k)
            .field(
                "uploads",
                &self
                    .uploads
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len(),
            )
            .finish()
    }
}

fn cluster_err(msg: impl Into<String>) -> PspError {
    PspError::Cluster(msg.into())
}

/// Frames (grant, image bytes) into the secret buffer that gets split:
/// `len(grant) be32 ‖ grant ‖ len(bytes) be32 ‖ bytes`.
fn frame_secret(grant: &KeyGrant, bytes: &[u8]) -> Vec<u8> {
    let grant_bytes = crate::channel::encode_grant(grant);
    let mut out = Vec::with_capacity(8 + grant_bytes.len() + bytes.len());
    out.extend_from_slice(&(grant_bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&grant_bytes);
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Inverse of [`frame_secret`].
fn unframe_secret(secret: &[u8]) -> Result<(KeyGrant, Vec<u8>)> {
    let take = |buf: &[u8]| -> Result<(Vec<u8>, usize)> {
        if buf.len() < 4 {
            return Err(cluster_err("reconstructed secret truncated"));
        }
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if buf.len() < 4 + len {
            return Err(cluster_err("reconstructed secret truncated"));
        }
        Ok((buf[4..4 + len].to_vec(), 4 + len))
    };
    let (grant_bytes, used) = take(secret)?;
    let (image_bytes, used2) = take(&secret[used..])?;
    if used + used2 != secret.len() {
        return Err(cluster_err("reconstructed secret has trailing bytes"));
    }
    let grant = crate::channel::decode_grant(&grant_bytes)?;
    Ok((grant, image_bytes))
}

impl ShardedPspCluster {
    /// Builds an (n, k) cluster of fresh backends.
    ///
    /// # Errors
    /// Fails on (n, k) outside 1 ≤ k ≤ n ≤ 255.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        if config.k == 0 || config.n == 0 || config.k > config.n || config.n > 255 {
            return Err(cluster_err(format!(
                "bad cluster shape (n = {}, k = {}): need 1 <= k <= n <= 255",
                config.n, config.k
            )));
        }
        let backends = (0..config.n).map(|_| Backend::default()).collect();
        Ok(ShardedPspCluster {
            faults: FaultPlan::healthy(config.n),
            backends,
            config,
            uploads: RwLock::new(HashMap::new()),
            rebalancing: Mutex::new(()),
            next_id: AtomicU64::new(1),
            split_nonce: AtomicU64::new(0),
        })
    }

    /// Number of backends (n).
    pub fn backend_count(&self) -> usize {
        self.config.n
    }

    /// Reconstruction threshold (k).
    pub fn threshold(&self) -> usize {
        self.config.k
    }

    /// Number of uploads currently tracked.
    pub fn upload_count(&self) -> usize {
        self.uploads
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Arms a fault on one backend (test/chaos harness).
    pub fn fault(&self, backend: usize, fault: Fault) {
        self.faults.set(backend, fault);
    }

    /// Heals one backend's fault slot.
    pub fn clear_fault(&self, backend: usize) {
        self.faults.clear(backend);
    }

    /// Heals every backend.
    pub fn clear_faults(&self) {
        self.faults.clear_all();
    }

    /// Indices of backends currently armed with [`Fault::Kill`].
    pub fn dead_backends(&self) -> Vec<usize> {
        self.faults.dead_backends()
    }

    fn derive_split_seed(&self, id: u64, generation: u16) -> [u8; 32] {
        let nonce = self.split_nonce.fetch_add(1, Ordering::Relaxed);
        sha256_concat(&[
            b"puppies-sis-split-v1",
            &self.config.seed,
            &id.to_be_bytes(),
            &generation.to_be_bytes(),
            &nonce.to_be_bytes(),
        ])
    }

    /// Splits `secret` at `generation` and stores one share per backend,
    /// honoring armed faults. Fails, and drops the shares it stored, when
    /// fewer than k were stored *healthily* (corrupting backends store
    /// mangled bytes, which cannot count toward a reconstruction quorum).
    fn store_shares(&self, id: u64, secret: &[u8], generation: u16) -> Result<()> {
        let seed = self.derive_split_seed(id, generation);
        let shares = shamir::split(secret, self.config.n, self.config.k, generation, seed)
            .map_err(|e| cluster_err(e.to_string()))?;
        let mut healthy = 0;
        for (i, share) in shares.iter().enumerate() {
            let _span = puppies_obs::span("cluster.backend.store", "cluster");
            let mut wire = share.to_bytes();
            match self.faults.apply(i) {
                FaultOutcome::Dead => continue,
                FaultOutcome::Healthy => healthy += 1,
                // A corrupting backend mangles the share in flight; the
                // integrity tag turns this into a loud fetch-time reject.
                FaultOutcome::Corrupting => {
                    let mid = wire.len() / 2;
                    wire[mid] ^= STORE_FLIP;
                }
            }
            self.backends[i]
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .insert((id, generation), wire);
        }
        if healthy < self.config.k {
            self.drop_shares(id, generation);
            return Err(cluster_err(format!(
                "quorum failed: {healthy} healthy share stores < k = {}",
                self.config.k
            )));
        }
        Ok(())
    }

    /// Drops generation `generation` of upload `id` from every backend
    /// that is not killed right now.
    fn drop_shares(&self, id: u64, generation: u16) {
        for (i, backend) in self.backends.iter().enumerate() {
            if self.faults.get(i) != Some(Fault::Kill) {
                backend
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&(id, generation));
            }
        }
    }

    /// Uploads a protected photo: frames (grant ‖ bytes) as the secret,
    /// splits it k-of-n, and stores one share per live backend. Public
    /// `params` are replicated. The upload is acknowledged only when at
    /// least k shares were stored on healthy backends — an ack therefore
    /// guarantees reconstructability.
    ///
    /// # Errors
    /// Fails when fewer than k backends accepted a clean share.
    pub fn upload(
        &self,
        bytes: Vec<u8>,
        params: Vec<u8>,
        grant: &KeyGrant,
    ) -> Result<ClusterPhotoId> {
        let _span = puppies_obs::span("cluster.upload", "psp");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let secret = frame_secret(grant, &bytes);
        let secret_sha = crate::sha256::sha256(&secret);
        if let Err(e) = self.store_shares(id, &secret, 0) {
            puppies_obs::counted!("cluster.upload_rejected");
            return Err(e);
        }
        self.uploads
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                id,
                UploadMeta {
                    params: params.into(),
                    generation: 0,
                    secret_sha,
                },
            );
        puppies_obs::counted!("cluster.uploads");
        Ok(ClusterPhotoId(id))
    }

    /// Replicated public parameters for an upload (no backend round-trip
    /// — params are public and cluster-held).
    ///
    /// # Errors
    /// Fails on unknown ids.
    pub fn download_params(&self, id: ClusterPhotoId) -> Result<std::sync::Arc<[u8]>> {
        self.with_meta(id, |m| m.params.clone())
    }

    /// Reads an upload's book-keeping through `f`.
    fn with_meta<T>(&self, id: ClusterPhotoId, f: impl FnOnce(&UploadMeta) -> T) -> Result<T> {
        self.uploads
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id.0)
            .map(f)
            .ok_or_else(|| cluster_err(format!("unknown cluster photo {}", id.0)))
    }

    /// Fetches the generation-`generation` share held by `backend` for
    /// `id`, honoring armed faults. `None` means the backend has no usable
    /// share (dead, missing, corrupted, or stale generation).
    fn fetch_share(&self, id: u64, backend: usize, generation: u16) -> Option<Share> {
        let _span = puppies_obs::span("cluster.backend.fetch", "cluster");
        let mut wire = self
            .backends
            .get(backend)?
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(id, generation))?
            .clone();
        match self.faults.apply(backend) {
            FaultOutcome::Dead => return None,
            FaultOutcome::Healthy => {}
            FaultOutcome::Corrupting => {
                let mid = wire.len() / 2;
                wire[mid] ^= FETCH_FLIP;
            }
        }
        let share = Share::from_bytes(&wire).ok()?;
        // Tag verification rejects corrupted shares; the generation check
        // rejects a share whose bytes name another generation than the
        // key it was found under. Both look like "no share" to the
        // quorum count.
        if !share.verify() || share.generation != generation {
            puppies_obs::counted!("cluster.share_rejected");
            return None;
        }
        Some(share)
    }

    /// Fetches the current generation's shares held by `backends`. No
    /// lock is held while fetching, so a rebalance may commit the next
    /// generation and drop this one meanwhile; a rebalance commits before
    /// it drops, so when the generation read after the fetch is still the
    /// one fetched, every share was read before any was dropped.
    /// Otherwise the fetch runs again at the new generation.
    fn fetch_current(
        &self,
        id: ClusterPhotoId,
        backends: impl Iterator<Item = usize> + Clone,
    ) -> Result<Vec<(usize, Share)>> {
        let mut generation = self.with_meta(id, |m| m.generation)?;
        loop {
            let shares = backends
                .clone()
                .filter_map(|b| self.fetch_share(id.0, b, generation).map(|s| (b, s)))
                .collect();
            let now = self.with_meta(id, |m| m.generation)?;
            if now == generation {
                return Ok(shares);
            }
            generation = now;
        }
    }

    /// Reconstructs the framed secret from the given backend subset,
    /// verifying the stored SHA-256 before returning.
    fn reconstruct_secret(&self, id: ClusterPhotoId, subset: &[usize]) -> Result<Vec<u8>> {
        let secret_sha = self.with_meta(id, |m| m.secret_sha)?;
        let shares: Vec<Share> = self
            .fetch_current(id, subset.iter().copied())?
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        if shares.len() < self.config.k {
            return Err(cluster_err(format!(
                "only {} usable shares from {} backends, need k = {}",
                shares.len(),
                subset.len(),
                self.config.k
            )));
        }
        let secret = shamir::reconstruct(&shares).map_err(|e| cluster_err(e.to_string()))?;
        if crate::sha256::sha256(&secret) != secret_sha {
            return Err(cluster_err("reconstructed secret failed its digest"));
        }
        Ok(secret)
    }

    /// Reconstructs (grant, protected bytes) using every live backend.
    ///
    /// # Errors
    /// Fails when fewer than k usable shares are reachable.
    pub fn reconstruct(&self, id: ClusterPhotoId) -> Result<(KeyGrant, Vec<u8>)> {
        let all: Vec<usize> = (0..self.config.n).collect();
        self.reconstruct_from(id, &all)
    }

    /// Reconstructs (grant, protected bytes) from an explicit backend
    /// subset — the conformance oracle drives every k-subset through
    /// this.
    ///
    /// # Errors
    /// Fails when the subset yields fewer than k usable shares.
    pub fn reconstruct_from(
        &self,
        id: ClusterPhotoId,
        subset: &[usize],
    ) -> Result<(KeyGrant, Vec<u8>)> {
        let _span = puppies_obs::span("cluster.reconstruct", "psp");
        let secret = self.reconstruct_secret(id, subset)?;
        unframe_secret(&secret)
    }

    /// Full receiver path: reconstruct from any k live backends, then
    /// recover locally through the reconstructed matrices (cluster
    /// backends cannot transform — see the module docs).
    ///
    /// # Errors
    /// Fails on quorum loss or undecodable reconstruction.
    pub fn fetch(&self, id: ClusterPhotoId) -> Result<RgbImage> {
        let (grant, bytes) = self.reconstruct(id)?;
        let params = PublicParams::from_bytes(&self.download_params(id)?)?;
        Ok(puppies_core::shadow::recover_transformed(
            &bytes, &params, &grant,
        )?)
    }

    /// Empties backend `i` (simulating a node replacement) and clears its
    /// fault slot. Until [`Self::rebalance_all`] runs, uploads tolerate
    /// one fewer failure.
    pub fn replace_backend(&self, i: usize) -> Result<()> {
        let backend = self
            .backends
            .get(i)
            .ok_or_else(|| cluster_err(format!("no backend {i}")))?;
        backend
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.faults.clear(i);
        puppies_obs::counted!("cluster.backend_replaced");
        Ok(())
    }

    /// Re-shares one upload: reconstructs the secret from the current
    /// quorum, splits it again with fresh randomness under generation+1,
    /// stores the new shares on every live backend, and drops the old
    /// generation from every live backend. A killed backend keeps its
    /// old share, which the generation in the lookup key never reads
    /// again.
    ///
    /// # Errors
    /// Fails when the current quorum cannot reconstruct, or fewer than k
    /// healthy backends accept the new shares; the new shares are then
    /// dropped and the old generation stays current.
    pub fn rebalance(&self, id: ClusterPhotoId) -> Result<()> {
        let _span = puppies_obs::span("cluster.rebalance", "psp");
        let _one_at_a_time = self
            .rebalancing
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let secret = {
            let all: Vec<usize> = (0..self.config.n).collect();
            self.reconstruct_secret(id, &all)?
        };
        let generation = self
            .with_meta(id, |m| m.generation.checked_add(1))?
            .ok_or_else(|| cluster_err("re-share generation exhausted (u16 wrapped)"))?;
        self.store_shares(id.0, &secret, generation)?;
        self.uploads
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(&id.0)
            .ok_or_else(|| cluster_err(format!("unknown cluster photo {}", id.0)))?
            .generation = generation;
        self.drop_shares(id.0, generation - 1);
        puppies_obs::counted!("cluster.rebalances");
        Ok(())
    }

    /// Rebalances every tracked upload; returns how many succeeded.
    ///
    /// # Errors
    /// Fails on the first upload whose quorum cannot reconstruct.
    pub fn rebalance_all(&self) -> Result<usize> {
        let ids: Vec<u64> = {
            let mut v: Vec<u64> = self
                .uploads
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .keys()
                .copied()
                .collect();
            v.sort_unstable();
            v
        };
        for id in &ids {
            self.rebalance(ClusterPhotoId(*id))?;
        }
        Ok(ids.len())
    }

    /// Raw current-generation shares reachable for an upload, keyed by
    /// backend index — the attacks crate builds its (k−1)-subset leakage
    /// probes from this view.
    ///
    /// # Errors
    /// Fails on unknown ids.
    pub fn visible_shares(&self, id: ClusterPhotoId) -> Result<Vec<(usize, Share)>> {
        self.fetch_current(id, 0..self.config.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_core::OwnerKey;

    fn grant() -> KeyGrant {
        OwnerKey::from_seed([9u8; 32]).grant_rois(1, &[0])
    }

    fn cluster(n: usize, k: usize) -> ShardedPspCluster {
        ShardedPspCluster::new(ClusterConfig::new(n, k)).unwrap()
    }

    /// Shares each backend holds, over every upload and generation.
    fn held(c: &ShardedPspCluster) -> Vec<usize> {
        c.backends.iter().map(|b| b.read().unwrap().len()).collect()
    }

    #[test]
    fn upload_reconstruct_roundtrip() {
        let c = cluster(5, 3);
        let bytes = vec![7u8; 512];
        let id = c.upload(bytes.clone(), vec![1, 2, 3], &grant()).unwrap();
        let (g, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, bytes);
        assert_eq!(g.to_entries(), grant().to_entries());
        assert_eq!(&*c.download_params(id).unwrap(), &[1, 2, 3][..]);
    }

    #[test]
    fn survives_n_minus_k_kills() {
        let c = cluster(5, 3);
        let id = c.upload(vec![42u8; 256], vec![], &grant()).unwrap();
        c.fault(0, Fault::Kill);
        c.fault(3, Fault::Corrupt);
        let (_, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, vec![42u8; 256]);
    }

    #[test]
    fn loses_quorum_below_k() {
        let c = cluster(3, 2);
        let id = c.upload(vec![1u8; 64], vec![], &grant()).unwrap();
        c.fault(0, Fault::Kill);
        c.fault(1, Fault::Kill);
        assert!(c.reconstruct(id).is_err());
        c.clear_fault(1);
        assert!(c.reconstruct(id).is_ok());
    }

    #[test]
    fn upload_not_acknowledged_without_quorum() {
        let c = cluster(3, 2);
        c.fault(0, Fault::Kill);
        c.fault(1, Fault::Kill);
        assert!(c.upload(vec![5u8; 32], vec![], &grant()).is_err());
        assert_eq!(c.upload_count(), 0);
    }

    #[test]
    fn quorum_failed_upload_leaves_no_share() {
        let c = cluster(3, 2);
        c.fault(0, Fault::Kill);
        c.fault(1, Fault::Corrupt);
        assert!(c.upload(vec![5u8; 32], vec![], &grant()).is_err());
        c.clear_faults();
        assert_eq!(held(&c), vec![0, 0, 0]);
    }

    #[test]
    fn corrupting_backend_never_serves_a_valid_share() {
        // Backend 0 corrupts the share it stores and again the share it
        // serves; the two manglings must not cancel out.
        let c = cluster(3, 2);
        c.fault(0, Fault::Corrupt);
        let id = c.upload(vec![0x33; 200], vec![], &grant()).unwrap();
        let visible: Vec<usize> = c
            .visible_shares(id)
            .unwrap()
            .into_iter()
            .map(|(b, _)| b)
            .collect();
        assert_eq!(visible, vec![1, 2]);
        assert!(c.reconstruct_from(id, &[0, 1]).is_err());
        // Healed, it still holds only the share it mangled on store.
        c.clear_fault(0);
        assert!(c.reconstruct_from(id, &[0, 1]).is_err());
        assert_eq!(c.reconstruct(id).unwrap().1, vec![0x33; 200]);
    }

    #[test]
    fn rebalances_keep_one_share_per_upload_per_backend() {
        let c = cluster(3, 2);
        let ids: Vec<ClusterPhotoId> = (0..2u8)
            .map(|i| c.upload(vec![i; 64], vec![], &grant()).unwrap())
            .collect();
        for _ in 0..4 {
            assert_eq!(c.rebalance_all().unwrap(), 2);
            assert_eq!(held(&c), vec![2, 2, 2]);
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(c.reconstruct(id).unwrap().1, vec![i as u8; 64]);
        }
    }

    #[test]
    fn concurrent_rebalances_of_one_upload_stay_reconstructable() {
        let c = cluster(3, 2);
        let id = c.upload(vec![0x55; 256], vec![], &grant()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        c.rebalance(id).unwrap();
                    }
                });
            }
        });
        assert_eq!(held(&c), vec![1, 1, 1]);
        assert_eq!(c.reconstruct(id).unwrap().1, vec![0x55; 256]);
    }

    #[test]
    fn reconstructs_never_fail_during_rebalances() {
        let c = cluster(3, 2);
        let id = c.upload(vec![0x66; 256], vec![], &grant()).unwrap();
        let rebalancing = std::sync::atomic::AtomicBool::new(true);
        let failures = std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..200 {
                    c.rebalance(id).unwrap();
                }
                rebalancing.store(false, Ordering::Release);
            });
            let mut failures = 0;
            while rebalancing.load(Ordering::Acquire) {
                if !c.reconstruct(id).is_ok_and(|(_, b)| b == [0x66; 256]) {
                    failures += 1;
                }
                if c.visible_shares(id).map_or(0, |v| v.len()) != 3 {
                    failures += 1;
                }
            }
            failures
        });
        assert_eq!(
            failures, 0,
            "reconstructs or share views failed mid-rebalance"
        );
    }

    #[test]
    fn rebalance_that_misses_quorum_keeps_the_old_generation() {
        let c = cluster(3, 2);
        let id = c.upload(vec![0x44; 128], vec![], &grant()).unwrap();
        // Backend 0 answers slowly. Once the rebalance has reconstructed
        // and split (the split nonce moves past the upload's), backends 1
        // and 2 die while backend 0's store sleeps, so one new share
        // lands: below k.
        c.fault(0, Fault::Delay(300));
        let rebalanced = std::thread::scope(|scope| {
            scope.spawn(|| {
                while c.split_nonce.load(Ordering::Relaxed) < 2 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                c.fault(1, Fault::Kill);
                c.fault(2, Fault::Kill);
            });
            c.rebalance(id)
        });
        assert!(rebalanced.is_err());
        c.clear_faults();
        // Backend 0's generation-1 share is gone; every backend still
        // holds its generation-0 share.
        assert_eq!(held(&c), vec![1, 1, 1]);
        assert_eq!(c.reconstruct(id).unwrap().1, vec![0x44; 128]);
    }

    #[test]
    fn replace_and_rebalance_restores_tolerance() {
        let c = cluster(4, 2);
        let id = c.upload(vec![0xAB; 300], vec![], &grant()).unwrap();
        c.fault(1, Fault::Kill);
        c.replace_backend(2).unwrap();
        // Down to backends {0, 3} holding generation-0 shares: exactly k.
        assert_eq!(c.visible_shares(id).unwrap().len(), 2);
        c.rebalance_all().unwrap();
        // Rebalance restored shares on every live backend (1 is dead).
        assert_eq!(c.visible_shares(id).unwrap().len(), 3);
        // Now a further loss is tolerated again.
        c.fault(3, Fault::Kill);
        let (_, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, vec![0xAB; 300]);
    }

    #[test]
    fn stale_generation_shares_are_rejected() {
        let c = cluster(3, 2);
        let id = c.upload(vec![0x11; 100], vec![], &grant()).unwrap();
        // Backend 0 sleeps through the rebalance (Kill), so it keeps only
        // its stale generation-0 share.
        c.fault(0, Fault::Kill);
        c.rebalance(id).unwrap();
        c.clear_fault(0);
        // Backends 1 and 2 dropped generation 0; the killed backend 0
        // kept it.
        assert_eq!(held(&c), vec![1, 1, 1]);
        let shares = c.visible_shares(id).unwrap();
        assert!(
            shares.iter().all(|(b, _)| *b != 0),
            "backend 0's stale share must not be visible"
        );
        let (_, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, vec![0x11; 100]);
    }

    #[test]
    fn delay_fault_slows_but_serves() {
        let c = cluster(3, 2);
        let id = c.upload(vec![0x22; 50], vec![], &grant()).unwrap();
        c.fault(1, Fault::Delay(1));
        let (_, back) = c.reconstruct(id).unwrap();
        assert_eq!(back, vec![0x22; 50]);
    }

    #[test]
    fn bad_shapes_rejected() {
        assert!(ShardedPspCluster::new(ClusterConfig::new(2, 3)).is_err());
        assert!(ShardedPspCluster::new(ClusterConfig::new(0, 0)).is_err());
        assert!(ShardedPspCluster::new(ClusterConfig::new(256, 2)).is_err());
    }
}

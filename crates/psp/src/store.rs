//! The photo-sharing platform: stores perturbed images and public
//! parameters, serves them to any user, and applies standard image
//! transformations on request — all via "general file store and retrieval
//! APIs" (§III-C.3), with zero PuPPIeS-specific logic.
//!
//! # Serving fast path
//!
//! The store is built for the ROADMAP's "heavy traffic" PSP rather than a
//! single-threaded simulation:
//!
//! - **Sharding** — photos live in `N` power-of-two shards (keyed by the
//!   low bits of [`PhotoId`]), each behind its own `RwLock`, so concurrent
//!   requests for different photos never serialize on one map lock.
//! - **Zero-copy payloads** — stored bytes and params are `Arc<[u8]>`;
//!   [`PspServer::download`] clones a pointer under a brief read lock
//!   instead of memcpying the bitstream.
//! - **Transform-result cache** — finished transforms are cached
//!   content-addressed (a word-at-a-time hash over source bytes, chained
//!   over params + the canonical transformation encoding, see
//!   [`crate::cache`]), so repeat transform traffic never touches the
//!   codec.
//! - **Decode memo** — transform misses on the same hot photo share one
//!   entropy decode.
//! - **Batch APIs** — [`PspServer::download_batch`] /
//!   [`PspServer::transform_batch`] fan independent requests across the
//!   ambient [`puppies_core::parallel`] worker pool.

use crate::cache::{
    content_hash64, fnv64, fnv64_chain, CacheStats, DecodeMemo, ServedPair, TransformCache,
};
use crate::sig::{dc_signature, SigEntry, SigIndex, SigMatch};
use crate::{PspError, Result};
use parking_lot::{Mutex, RwLock};
use puppies_core::PublicParams;
use puppies_image::Rect;
use puppies_jpeg::codec::decode_dc;
use puppies_jpeg::{CoeffImage, EncodeOptions};
use puppies_transform::Transformation;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Identifies a stored photo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhotoId(pub u64);

#[derive(Debug)]
struct StoredPhoto {
    bytes: Arc<[u8]>,
    /// Opaque public-parameter blob (the PSP never parses it — it lives in
    /// the image "description").
    params: Arc<[u8]>,
    /// `(content_hash64(bytes), chain(that, params))`, primed at upload
    /// from the single hashing pass the byte interner already pays — the
    /// bitstream is never hashed twice. The first component keys the
    /// decode memo (decode depends only on the bytes), the second is the
    /// photo's content address for transform-cache and signature-memo
    /// keys.
    hashes: OnceLock<(u64, u64)>,
    /// Perceptual identity: `Some((signature, family-root content key))`
    /// once the upload-time indexer has run and the bytes decoded; `None`
    /// inside when the bytes are not a decodable JPEG. Unset while the
    /// signature layer is disabled (see [`PspConfig::signature`]).
    identity: OnceLock<Option<(u64, u64)>>,
}

impl StoredPhoto {
    fn hashes(&self) -> (u64, u64) {
        *self.hashes.get_or_init(|| {
            let bytes_key = content_hash64(&self.bytes);
            (bytes_key, fnv64_chain(bytes_key, &self.params))
        })
    }

    fn size(&self) -> u64 {
        (self.bytes.len() + self.params.len()) as u64
    }
}

/// Whether a request could be served from the transform-result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// The operation does not consult the cache (upload/download doors).
    #[default]
    NotApplicable,
    /// Served from the transform-result cache.
    Hit,
    /// Fell through to the decode→transform→re-encode pipeline.
    Miss,
}

/// Which pipeline produced a transform response: the quantized-coefficient
/// hot path (no decode to pixels), the pixel-domain fallback (decode →
/// transform → re-encode), or the transform-result cache (no codec work at
/// all). The PSP's decode-free serving claim is measured from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServedPath {
    /// The operation does not serve transforms (upload/download doors).
    #[default]
    NotApplicable,
    /// Served by `apply_to_coeff` on the cached coefficient memo — the
    /// stream was transformed without ever materializing pixels.
    CoeffDomain,
    /// Genuinely pixel-domain geometry (e.g. scaling): decoded to RGB,
    /// transformed, re-encoded.
    PixelFallback,
    /// Served from the transform-result cache; no codec ran.
    Cached,
    /// Served from the transform-result cache via the *perceptual-identity*
    /// key: this photo is a recompressed near-duplicate of another stored
    /// photo whose result was already cached. No codec ran.
    SigCached,
}

impl ServedPath {
    /// Stable wire/log token for the path (`x-served-path` header values).
    pub fn as_str(self) -> &'static str {
        match self {
            ServedPath::NotApplicable => "none",
            ServedPath::CoeffDomain => "coeff-domain",
            ServedPath::PixelFallback => "pixel-fallback",
            ServedPath::Cached => "cached",
            ServedPath::SigCached => "sig-cached",
        }
    }
}

/// One entry of the server's bounded per-request log: which API door was
/// hit, for which photo, how many payload bytes moved, how long it took,
/// whether it succeeded, and whether the transform cache served it. Small
/// and `Copy` so snapshotting the log is a memcpy, not a clone-per-entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestEntry {
    /// API name: `"upload"`, `"download"`, `"download_params"`,
    /// `"transform"`, `"download_transformed"`.
    pub op: &'static str,
    /// Photo id the request touched.
    pub id: u64,
    /// Payload bytes moved (image + params for uploads, response size for
    /// downloads and transforms; 0 on failure).
    pub bytes: u64,
    /// Wall-clock service time in nanoseconds.
    pub dur_ns: u64,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Transform-cache outcome for this request.
    pub cache: CacheOutcome,
    /// Which pipeline served this request (transform doors only).
    pub served: ServedPath,
    /// Global admission order (monotonic across all shards) — entries from
    /// different log shards merge into one timeline by sorting on this.
    pub seq: u64,
}

/// Default cap on retained request-log entries (older ones are evicted
/// first — the log is a bounded ring, never a leak). Tunable per server
/// via [`PspConfig::request_log_capacity`].
pub const REQUEST_LOG_CAPACITY: usize = 256;

/// One store shard: a photo map plus the request-log segment for the
/// photos that hash here. Logging an op only contends with ops on the same
/// shard, never globally.
#[derive(Debug, Default)]
struct Shard {
    photos: RwLock<HashMap<PhotoId, Arc<StoredPhoto>>>,
    log: Mutex<VecDeque<RequestEntry>>,
}

/// One interner bucket: candidate allocations sharing a hash, each with
/// its reference count.
type InternBucket = Vec<(Arc<[u8]>, usize)>;

/// What the signature memo remembers per content address:
/// `Some((signature, width, height))` for decodable content, `None` for
/// content whose decode failed.
type SigMemoEntry = Option<(u64, u32, u32)>;

/// Refcounted exact-duplicate byte sharing for the in-memory store:
/// uploads with identical bytes share one `Arc<[u8]>` allocation (the
/// memory-side mirror of the WAL, which logs each distinct blob once),
/// and the aggregate footprint counts each distinct allocation once.
/// Buckets are keyed by [`content_hash64`] and verified by byte
/// comparison, so hash collisions cost a compare, never a false share.
#[derive(Debug, Default)]
struct ByteInterner {
    table: Mutex<HashMap<u64, InternBucket>>,
}

impl ByteInterner {
    /// Returns the canonical shared `Arc` for `bytes`, whether this call
    /// added a fresh allocation (the caller accounts footprint only then),
    /// and the content hash it keyed the bucket by — the caller reuses it
    /// so each uploaded bitstream is hashed exactly once.
    fn intern(&self, bytes: Arc<[u8]>) -> (Arc<[u8]>, bool, u64) {
        let key = content_hash64(&bytes);
        let mut table = self.table.lock();
        let bucket = table.entry(key).or_default();
        for (existing, refs) in bucket.iter_mut() {
            if **existing == *bytes {
                *refs += 1;
                return (existing.clone(), false, key);
            }
        }
        bucket.push((bytes.clone(), 1));
        (bytes, true, key)
    }

    /// Drops one reference to `bytes` (bucketed under `key`, the hash
    /// `intern` returned for them); returns whether the allocation left
    /// the interner (the caller subtracts footprint only then).
    fn release(&self, key: u64, bytes: &Arc<[u8]>) -> bool {
        let mut table = self.table.lock();
        if let Some(bucket) = table.get_mut(&key) {
            if let Some(pos) = bucket.iter().position(|(e, _)| Arc::ptr_eq(e, bytes)) {
                bucket[pos].1 -= 1;
                if bucket[pos].1 > 0 {
                    return false;
                }
                bucket.swap_remove(pos);
                if bucket.is_empty() {
                    table.remove(&key);
                }
            }
        }
        true
    }
}

/// Construction-time tuning for [`PspServer`].
#[derive(Debug, Clone)]
pub struct PspConfig {
    /// Number of store shards; rounded up to a power of two, minimum 1.
    pub shards: usize,
    /// Byte budget for the transform-result cache; 0 disables caching.
    pub cache_budget_bytes: usize,
    /// Max decoded images retained by the transform-miss memo; 0 disables.
    pub decode_memo_entries: usize,
    /// Request-log ring capacity per server (clamped to ≥1); defaults to
    /// [`REQUEST_LOG_CAPACITY`].
    pub request_log_capacity: usize,
    /// Whether the perceptual-identity layer runs: upload-time signature
    /// extraction, near-duplicate indexing and
    /// the second-level (signature-family) transform-cache key. On by
    /// default; benches disable it to measure the exact-key-only baseline.
    pub signature: bool,
}

impl Default for PspConfig {
    fn default() -> Self {
        PspConfig {
            shards: 16,
            cache_budget_bytes: 32 << 20,
            decode_memo_entries: 8,
            request_log_capacity: REQUEST_LOG_CAPACITY,
            signature: true,
        }
    }
}

impl PspConfig {
    /// A configuration with the transform cache and decode memo disabled —
    /// every transform runs the full pipeline (used by coherence tests and
    /// as the honest "cold" baseline in benches).
    pub fn uncached() -> Self {
        PspConfig {
            cache_budget_bytes: 0,
            decode_memo_entries: 0,
            ..PspConfig::default()
        }
    }
}

/// The PSP server. Thread-safe: uploads, downloads and transformations can
/// run concurrently (the experiment sweeps exploit this).
#[derive(Debug)]
pub struct PspServer {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard count is a power of two.
    shard_mask: u64,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    /// Total stored bytes (image + params across all photos), maintained
    /// incrementally so reading it never walks the maps.
    footprint: AtomicU64,
    /// Stored photo count, maintained incrementally for O(1) `len()`.
    photo_count: AtomicU64,
    cache: TransformCache,
    memo: DecodeMemo,
    /// Request-log ring capacity ([`PspConfig::request_log_capacity`]).
    log_capacity: usize,
    /// Whether the perceptual-identity layer is on
    /// ([`PspConfig::signature`]).
    signature: bool,
    /// The near-duplicate signature index (see [`crate::sig`]).
    index: Mutex<SigIndex>,
    /// Content-addressed signature memo: `content_fnv → Some((sig, w, h))`
    /// for contents whose upload-time decode succeeded, `None` for
    /// contents that failed to decode. Re-uploads of bytes the server has
    /// already seen (the dominant duplicate workload) skip the JPEG decode
    /// entirely — the signature is a pure function of `(bytes, params)`,
    /// which is exactly what `content_fnv` addresses.
    sig_memo: Mutex<HashMap<u64, SigMemoEntry>>,
    /// Exact-duplicate byte sharing across stored photos.
    interner: ByteInterner,
}

impl Default for PspServer {
    fn default() -> Self {
        Self::new()
    }
}

impl PspServer {
    /// Creates an empty server with the default configuration.
    pub fn new() -> Self {
        Self::with_config(PspConfig::default())
    }

    /// Creates an empty server with explicit shard/cache tuning.
    pub fn with_config(config: PspConfig) -> Self {
        let n = config.shards.max(1).next_power_of_two();
        let shards = (0..n).map(|_| Shard::default()).collect::<Vec<_>>();
        PspServer {
            shards: shards.into_boxed_slice(),
            shard_mask: (n - 1) as u64,
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            footprint: AtomicU64::new(0),
            photo_count: AtomicU64::new(0),
            cache: TransformCache::new(config.cache_budget_bytes),
            memo: DecodeMemo::new(config.decode_memo_entries),
            log_capacity: config.request_log_capacity.max(1),
            signature: config.signature,
            index: Mutex::new(SigIndex::new()),
            sig_memo: Mutex::new(HashMap::new()),
            interner: ByteInterner::default(),
        }
    }

    /// The request-log ring capacity this server was built with.
    pub fn request_log_capacity(&self) -> usize {
        self.log_capacity
    }

    fn shard(&self, id: PhotoId) -> &Shard {
        &self.shards[(id.0 & self.shard_mask) as usize]
    }

    fn lookup(&self, id: PhotoId) -> Result<Arc<StoredPhoto>> {
        self.shard(id)
            .photos
            .read()
            .get(&id)
            .cloned()
            .ok_or(PspError::UnknownPhoto(id))
    }

    #[allow(clippy::too_many_arguments)]
    fn log_request(
        &self,
        op: &'static str,
        id: u64,
        bytes: u64,
        start: Instant,
        ok: bool,
        cache: CacheOutcome,
        served: ServedPath,
    ) {
        let entry = RequestEntry {
            op,
            id,
            bytes,
            dur_ns: start.elapsed().as_nanos() as u64,
            ok,
            cache,
            served,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
        };
        let mut log = self.shard(PhotoId(id)).log.lock();
        if log.len() == self.log_capacity {
            log.pop_front();
        }
        log.push_back(entry);
    }

    /// Publishes the current aggregate storage footprint and photo count as
    /// gauges, when a subscriber is installed.
    fn publish_gauges(&self) {
        if puppies_obs::enabled() {
            puppies_obs::gauge_set(
                "psp.storage_bytes",
                self.footprint.load(Ordering::Relaxed) as i64,
            );
            puppies_obs::gauge_set("psp.photos", self.len() as i64);
            if self.signature {
                puppies_obs::gauge_set("psp.sig.index_entries", self.index.lock().len() as i64);
            }
        }
    }

    /// Runs the upload-time perceptual-identity pass for a freshly stored
    /// photo: DC-only decode, signature extraction over public data,
    /// family resolution against the near-duplicate index, and index
    /// insertion. Records the
    /// photo's `(signature, family root)` on its `identity` slot. A blob
    /// that does not decode simply stays unindexed — the store accepts
    /// arbitrary bytes and the identity layer is best-effort by design.
    fn index_photo(&self, id: PhotoId, stored: &StoredPhoto) {
        if !self.signature {
            return;
        }
        // The signature is a pure function of `(bytes, params)` —
        // precisely what `content_fnv` addresses — so a re-upload of
        // content the server has already hashed never pays the JPEG
        // decode again. Re-uploading identical bytes is the dominant
        // duplicate workload and must stay as cheap as storing them.
        let (_, content_fnv) = stored.hashes();
        let memoized = self.sig_memo.lock().get(&content_fnv).copied();
        let (sig, w, h) = match memoized {
            Some(None) => {
                // Known-undecodable content: stays unindexed, no retry.
                let _ = stored.identity.set(None);
                return;
            }
            Some(Some((sig, w, h))) => {
                puppies_obs::counted!("psp.sig.memo_hit");
                (sig, w, h)
            }
            None => {
                // The signature reads only the luma DCs: the DC-only walk
                // accepts exactly the streams a full decode does, without
                // building the coefficient blocks.
                let grid = match decode_dc(&stored.bytes) {
                    Ok(g) => g,
                    Err(_) => {
                        self.sig_memo.lock().insert(content_fnv, None);
                        let _ = stored.identity.set(None);
                        return;
                    }
                };
                let rois: Vec<Rect> = PublicParams::from_bytes(&stored.params)
                    .map(|p| p.rois.iter().map(|r| r.rect).collect())
                    .unwrap_or_default();
                let sig = dc_signature(&grid, &rois);
                puppies_obs::counted!("psp.sig.computed");
                let (w, h) = (grid.width, grid.height);
                self.sig_memo.lock().insert(content_fnv, Some((sig, w, h)));
                (sig, w, h)
            }
        };
        let params_fnv = fnv64(&stored.params);
        let family = {
            let mut index = self.index.lock();
            let family = index.family_of(sig, params_fnv, w, h);
            let family_fnv = match &family {
                Some(root) => root.family_fnv,
                None => content_fnv,
            };
            index.insert(SigEntry {
                sig,
                id,
                content_fnv,
                family_fnv,
                params_fnv,
                width: w,
                height: h,
            });
            let _ = stored.identity.set(Some((sig, family_fnv)));
            family
        };
        if let Some(root) = family {
            if root.content_fnv == content_fnv {
                puppies_obs::counted!("psp.sig.dedup_exact");
            } else {
                puppies_obs::counted!("psp.sig.neardup");
            }
        }
    }

    /// Removes a replaced photo's index entry and byte allocation; called
    /// with the `StoredPhoto` that just left the map.
    fn retire_photo(&self, id: PhotoId, old: &StoredPhoto) {
        if let Some(Some((sig, _))) = old.identity.get() {
            self.index.lock().remove(*sig, id);
        }
        let (bytes_key, content_key) = old.hashes();
        if self.interner.release(bytes_key, &old.bytes) {
            self.footprint
                .fetch_sub(old.bytes.len() as u64, Ordering::Relaxed);
            // Last copy of these bytes is gone — drop the signature memo
            // entry with it so churn workloads don't accumulate hashes of
            // content the store no longer holds.
            if self.signature {
                self.sig_memo.lock().remove(&content_key);
            }
        }
        self.footprint
            .fetch_sub(old.params.len() as u64, Ordering::Relaxed);
    }

    /// Uploads a photo with its public-parameter blob; returns its id.
    ///
    /// # Errors
    /// Returns [`PspError::IdsExhausted`] once the 64-bit id space is spent
    /// — the allocator saturates instead of wrapping, so a stored photo can
    /// never be silently overwritten by a recycled id.
    pub fn upload(&self, bytes: Vec<u8>, params: Vec<u8>) -> Result<PhotoId> {
        let start = Instant::now();
        let _span = puppies_obs::span("psp.upload", "psp");
        let mut cur = self.next_id.load(Ordering::Relaxed);
        let id = loop {
            if cur == u64::MAX {
                self.log_request(
                    "upload",
                    u64::MAX,
                    0,
                    start,
                    false,
                    CacheOutcome::NotApplicable,
                    ServedPath::NotApplicable,
                );
                return Err(PspError::IdsExhausted);
            }
            match self.next_id.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break PhotoId(cur),
                Err(seen) => cur = seen,
            }
        };
        // Exact-duplicate sharing: identical bytes resolve to one shared
        // allocation and the aggregate footprint counts it once (the
        // per-photo logical size is unchanged).
        let (shared, fresh, bytes_key) = self.interner.intern(bytes.into());
        let stored = Arc::new(StoredPhoto {
            bytes: shared,
            params: params.into(),
            hashes: OnceLock::new(),
            identity: OnceLock::new(),
        });
        // Prime the content address from the pass the interner already
        // paid — nothing downstream (decode memo, transform cache,
        // signature memo) ever re-hashes the bitstream.
        let _ = stored
            .hashes
            .set((bytes_key, fnv64_chain(bytes_key, &stored.params)));
        let size = stored.size();
        let accounted =
            stored.params.len() as u64 + if fresh { stored.bytes.len() as u64 } else { 0 };
        self.shard(id).photos.write().insert(id, stored.clone());
        self.footprint.fetch_add(accounted, Ordering::Relaxed);
        self.photo_count.fetch_add(1, Ordering::Relaxed);
        self.index_photo(id, &stored);
        puppies_obs::counted!("psp.uploads");
        self.publish_gauges();
        self.log_request(
            "upload",
            id.0,
            size,
            start,
            true,
            CacheOutcome::NotApplicable,
            ServedPath::NotApplicable,
        );
        Ok(id)
    }

    /// Reinstates a photo at an explicit id — the persistence layer's
    /// replay door ([`crate::store_disk`] drives it when rebuilding from
    /// the WAL). Overwrites any existing entry (a `Transform` WAL record
    /// replays as an overwrite of the `Upload` before it) and advances the
    /// id allocator past `id`, so post-recovery uploads never collide with
    /// restored photos. Not an API door: it bypasses the request log.
    pub fn restore_photo(&self, id: PhotoId, bytes: Arc<[u8]>, params: Arc<[u8]>) {
        let (shared, fresh, bytes_key) = self.interner.intern(bytes);
        let stored = Arc::new(StoredPhoto {
            bytes: shared,
            params,
            hashes: OnceLock::new(),
            identity: OnceLock::new(),
        });
        let _ = stored
            .hashes
            .set((bytes_key, fnv64_chain(bytes_key, &stored.params)));
        let accounted =
            stored.params.len() as u64 + if fresh { stored.bytes.len() as u64 } else { 0 };
        let replaced = self.shard(id).photos.write().insert(id, stored.clone());
        self.footprint.fetch_add(accounted, Ordering::Relaxed);
        match replaced {
            Some(old) => {
                self.retire_photo(id, &old);
                if let Some(&(bytes_fnv, _)) = old.hashes.get() {
                    self.memo.invalidate(bytes_fnv);
                }
            }
            None => {
                self.photo_count.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.index_photo(id, &stored);
        // Advance the allocator monotonically past the restored id; ids at
        // u64::MAX leave the allocator saturated (exhausted), never wrapped.
        let next = id.0.saturating_add(1);
        let mut cur = self.next_id.load(Ordering::Relaxed);
        while cur < next {
            match self.next_id.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The stored `(bytes, params)` of a photo for the persistence layer:
    /// the download doors' zero-copy read, kept out of the request log.
    pub(crate) fn stored_pair(&self, id: PhotoId) -> Result<ServedPair> {
        self.lookup(id).map(|p| (p.bytes.clone(), p.params.clone()))
    }

    /// Downloads the image bytes (any user may call this — the threat
    /// model's "unauthorized access at PSP side" is exactly this door).
    /// Zero-copy: the returned `Arc` shares the stored allocation.
    ///
    /// # Errors
    /// Fails for unknown photos.
    pub fn download(&self, id: PhotoId) -> Result<Arc<[u8]>> {
        let start = Instant::now();
        let _span = puppies_obs::span("psp.download", "psp");
        let out = self.lookup(id).map(|p| p.bytes.clone());
        puppies_obs::counted!("psp.downloads");
        let bytes = out.as_ref().map(|b| b.len() as u64).unwrap_or(0);
        self.log_request(
            "download",
            id.0,
            bytes,
            start,
            out.is_ok(),
            CacheOutcome::NotApplicable,
            ServedPath::NotApplicable,
        );
        out
    }

    /// Downloads the public-parameter blob. Zero-copy, like
    /// [`PspServer::download`].
    ///
    /// # Errors
    /// Fails for unknown photos.
    pub fn download_params(&self, id: PhotoId) -> Result<Arc<[u8]>> {
        let start = Instant::now();
        let out = self.lookup(id).map(|p| p.params.clone());
        let bytes = out.as_ref().map(|b| b.len() as u64).unwrap_or(0);
        self.log_request(
            "download_params",
            id.0,
            bytes,
            start,
            out.is_ok(),
            CacheOutcome::NotApplicable,
            ServedPath::NotApplicable,
        );
        out
    }

    /// Runs (or serves from cache) `t` against the stored photo, returning
    /// `(transformed bytes, updated params)` **without** modifying the
    /// store — the serving door for "give me the thumbnail of photo X",
    /// which is where repeat traffic concentrates. The returned params blob
    /// records the transformation exactly as the in-place
    /// [`PspServer::transform`] would store it.
    ///
    /// # Errors
    /// Fails for unknown photos, undecodable streams, invalid
    /// transformations, or photos that were already transformed in place
    /// (chains are not supported).
    pub fn download_transformed(&self, id: PhotoId, t: &Transformation) -> Result<ServedPair> {
        self.download_transformed_traced(id, t)
            .map(|(pair, _, _)| pair)
    }

    /// [`PspServer::download_transformed`], but also reports whether the
    /// result came from the transform cache and which pipeline produced it
    /// — the serving layer surfaces both on the wire (`x-cache: hit|miss`,
    /// `x-served-path: coeff-domain|pixel-fallback|cached`) so load
    /// generators can verify cache behaviour and the decode-free claim end
    /// to end.
    ///
    /// # Errors
    /// As [`PspServer::download_transformed`].
    pub fn download_transformed_traced(
        &self,
        id: PhotoId,
        t: &Transformation,
    ) -> Result<(ServedPair, CacheOutcome, ServedPath)> {
        let start = Instant::now();
        let _span = puppies_obs::span("psp.download_transformed", "psp");
        let out = self
            .lookup(id)
            .and_then(|stored| self.serve_transform(&stored, t));
        puppies_obs::counted!("psp.transform_serves");
        let (bytes, outcome, served) = match &out {
            Ok(((b, p), outcome, served)) => ((b.len() + p.len()) as u64, *outcome, *served),
            Err(_) => (0, CacheOutcome::NotApplicable, ServedPath::NotApplicable),
        };
        self.log_request(
            "download_transformed",
            id.0,
            bytes,
            start,
            out.is_ok(),
            outcome,
            served,
        );
        out
    }

    /// Applies a transformation to a stored photo *in place*, recording it
    /// in the public parameters so receivers can mirror it (§III-C
    /// scenario 2). Uses the lossless coefficient path when possible and
    /// the ordinary decode–transform–re-encode pipeline otherwise, exactly
    /// like a jpegtran-aware production service. The result lands in the
    /// transform cache, so a subsequent identical request on an identical
    /// source is served without touching the codec.
    ///
    /// # Errors
    /// Fails for unknown photos, undecodable streams, or invalid
    /// transformations.
    pub fn transform(&self, id: PhotoId, t: &Transformation) -> Result<()> {
        let start = Instant::now();
        let _span = puppies_obs::span("psp.transform", "psp");
        let out = self.transform_inner(id, t);
        puppies_obs::counted!("psp.transforms");
        self.publish_gauges();
        let (bytes, outcome, served) = match &out {
            Ok((b, outcome, served)) => (*b, *outcome, *served),
            Err(_) => (0, CacheOutcome::NotApplicable, ServedPath::NotApplicable),
        };
        self.log_request(
            "transform",
            id.0,
            bytes,
            start,
            out.is_ok(),
            outcome,
            served,
        );
        out.map(|_| ())
    }

    fn transform_inner(
        &self,
        id: PhotoId,
        t: &Transformation,
    ) -> Result<(u64, CacheOutcome, ServedPath)> {
        let stored = self.lookup(id)?;
        let ((new_bytes, new_params), outcome, served) = self.serve_transform(&stored, t)?;
        let (shared, fresh, bytes_key) = self.interner.intern(new_bytes);
        let replacement = Arc::new(StoredPhoto {
            bytes: shared,
            params: new_params,
            hashes: OnceLock::new(),
            identity: OnceLock::new(),
        });
        let _ = replacement
            .hashes
            .set((bytes_key, fnv64_chain(bytes_key, &replacement.params)));
        let new_size = replacement.size();
        let accounted = replacement.params.len() as u64
            + if fresh {
                replacement.bytes.len() as u64
            } else {
                0
            };
        {
            let mut photos = self.shard(id).photos.write();
            match photos.get(&id) {
                // The entry we computed from is still current: swap it.
                Some(cur) if Arc::ptr_eq(cur, &stored) => {
                    photos.insert(id, replacement.clone());
                }
                // Someone else transformed (or re-uploaded) this photo
                // between our read and this write. Applying our result
                // would silently drop theirs, so refuse like any other
                // chain attempt.
                Some(_) => {
                    drop(photos);
                    self.interner.release(bytes_key, &replacement.bytes);
                    return Err(PspError::Transform(
                        puppies_transform::TransformError::InvalidParameter(
                            "photo changed concurrently; transform chain not supported".into(),
                        ),
                    ));
                }
                None => {
                    drop(photos);
                    self.interner.release(bytes_key, &replacement.bytes);
                    return Err(PspError::UnknownPhoto(id));
                }
            }
        }
        // The old bitstream is gone from the store: drop its decode memo
        // entry eagerly instead of waiting for LRU pressure. (Transform
        // *results* keyed by the old content hash stay addressable — they
        // are still byte-correct answers for that content — and simply age
        // out.)
        if let Some(&(bytes_fnv, _)) = stored.hashes.get() {
            self.memo.invalidate(bytes_fnv);
        }
        // Two wrapping steps net out to `footprint + new - old`; the total
        // stays exact even though the two updates are not one atomic op.
        self.footprint.fetch_add(accounted, Ordering::Relaxed);
        self.retire_photo(id, &stored);
        self.index_photo(id, &replacement);
        Ok((new_size, outcome, served))
    }

    /// The shared serving path: transform-cache lookup, then on a miss the
    /// decode(memo)→apply→re-encode pipeline plus cache fill. Never locks a
    /// shard; works entirely from the snapshot `Arc`s.
    fn serve_transform(
        &self,
        stored: &StoredPhoto,
        t: &Transformation,
    ) -> Result<(ServedPair, CacheOutcome, ServedPath)> {
        let (bytes_fnv, content_fnv) = stored.hashes();
        let t_canonical = t.canonical_bytes();
        let key = fnv64_chain(content_fnv, &t_canonical);
        // Second-level key: a recompressed near-duplicate shares its family
        // root's cached results. Results are only ever *inserted* under a
        // photo's own exact key, so the family probe can only surface bytes
        // the root itself produced — the root always serves its own bytes.
        let family_key = match stored.identity.get() {
            Some(Some((_, family_fnv))) if *family_fnv != content_fnv => {
                Some(fnv64_chain(*family_fnv, &t_canonical))
            }
            _ => None,
        };
        match self.cache.get_two_level(key, family_key) {
            Some(((bytes, params), true)) => {
                puppies_obs::counted!("psp.sig.hit");
                return Ok(((bytes, params), CacheOutcome::Hit, ServedPath::SigCached));
            }
            Some(((bytes, params), false)) => {
                return Ok(((bytes, params), CacheOutcome::Hit, ServedPath::Cached));
            }
            None => {
                if family_key.is_some() {
                    puppies_obs::counted!("psp.sig.miss");
                }
            }
        }
        // Record the transformation in the public parameters. The PSP
        // treats the blob as opaque except for this append-only note; in
        // our wire format that means re-encoding via PublicParams.
        let mut params = PublicParams::from_bytes(&stored.params)?;
        if params.transformation.is_some() {
            return Err(PspError::Transform(
                puppies_transform::TransformError::InvalidParameter(
                    "photo already transformed once; chain not supported".into(),
                ),
            ));
        }
        let coeff = match self.memo.get(bytes_fnv) {
            Some(c) => c,
            None => {
                let decoded = Arc::new(
                    CoeffImage::decode(&stored.bytes).map_err(puppies_core::PuppiesError::from)?,
                );
                self.memo.insert(bytes_fnv, decoded.clone());
                decoded
            }
        };
        // Every coefficient-eligible transformation is served from the
        // quantized coefficients — never by decoding to pixels. The pixel
        // pipeline survives only for genuinely pixel-domain geometry.
        let (new_bytes, served) = if t.is_coeff_domain(coeff.width(), coeff.height()) {
            puppies_obs::counted!("psp.serve.coeff_domain");
            let bytes = t
                .apply_to_coeff(&coeff)?
                .encode(&EncodeOptions::default())
                .map_err(puppies_core::PuppiesError::from)?;
            (bytes, ServedPath::CoeffDomain)
        } else {
            puppies_obs::counted!("psp.serve.pixel_fallback");
            let rgb = coeff.to_rgb();
            let transformed = t.apply_to_rgb(&rgb)?;
            // Re-encode at the source's own compression setting (recovered
            // from its quantization tables) — the paper's PSP re-encodes at
            // a *consistent* quality, not a hardcoded default, which keeps
            // receiver-side PSNR floors calibrated.
            let bytes = puppies_jpeg::encode_rgb(&transformed, coeff.quality_estimate())
                .map_err(puppies_core::PuppiesError::from)?;
            (bytes, ServedPath::PixelFallback)
        };
        params.transformation = Some(t.clone());
        let new_bytes: Arc<[u8]> = new_bytes.into();
        let new_params: Arc<[u8]> = params.to_bytes().into();
        self.cache
            .insert(key, new_bytes.clone(), new_params.clone());
        Ok(((new_bytes, new_params), CacheOutcome::Miss, served))
    }

    /// Serves many `(photo, transformation)` requests, fanning across the
    /// ambient worker pool ([`puppies_core::parallel::current`]). Results
    /// come back in request order; each is exactly what
    /// [`PspServer::download_transformed`] would return. The store is not
    /// modified.
    pub fn transform_batch(
        &self,
        requests: &[(PhotoId, Transformation)],
    ) -> Vec<Result<ServedPair>> {
        let _span = puppies_obs::span("psp.transform_batch", "psp");
        puppies_core::parallel::current().map_indexed(requests.len(), |i| {
            let (id, ref t) = requests[i];
            self.download_transformed(id, t)
        })
    }

    /// Downloads many photos, fanning across the ambient worker pool.
    /// Results come back in request order.
    pub fn download_batch(&self, ids: &[PhotoId]) -> Vec<Result<Arc<[u8]>>> {
        let _span = puppies_obs::span("psp.download_batch", "psp");
        puppies_core::parallel::current().map_indexed(ids.len(), |i| self.download(ids[i]))
    }

    /// Number of stored photos (O(1) — maintained incrementally).
    pub fn len(&self) -> usize {
        self.photo_count.load(Ordering::Relaxed) as usize
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes stored for a photo (image + parameter blob) — the
    /// cloud-storage usage the paper's overhead experiments track.
    ///
    /// # Errors
    /// Fails for unknown photos.
    pub fn storage_footprint(&self, id: PhotoId) -> Result<usize> {
        self.lookup(id).map(|p| p.size() as usize)
    }

    /// Aggregate bytes stored across every photo (images + parameter
    /// blobs). Maintained incrementally on upload/transform, so this is an
    /// O(1) read — it backs the `psp.storage_bytes` gauge.
    pub fn storage_footprint_total(&self) -> u64 {
        self.footprint.load(Ordering::Relaxed)
    }

    /// Transform-result cache counters (hits, misses, evictions, resident
    /// bytes).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The perceptual signature recorded for a stored photo, or `None`
    /// when its bytes did not decode (or the signature layer is off).
    ///
    /// # Errors
    /// Fails for unknown photos.
    pub fn signature_of(&self, id: PhotoId) -> Result<Option<u64>> {
        self.lookup(id)
            .map(|p| p.identity.get().copied().flatten().map(|(sig, _)| sig))
    }

    /// Computes the perceptual signature of an arbitrary candidate image
    /// the way the store would at upload: DC-only decode, then hash the
    /// public data only (private ROIs from `params`, when given, are masked out).
    /// Returns `None` for undecodable bytes. This is the probe side of
    /// [`PspServer::search_similar`] — a client hashes its query image
    /// locally or ships the bytes to the `/search` door.
    pub fn probe_signature(bytes: &[u8], params: Option<&[u8]>) -> Option<u64> {
        let grid = decode_dc(bytes).ok()?;
        let rois: Vec<Rect> = params
            .and_then(|p| PublicParams::from_bytes(p).ok())
            .map(|p| p.rois.iter().map(|r| r.rect).collect())
            .unwrap_or_default();
        Some(dc_signature(&grid, &rois))
    }

    /// Sublinear near-duplicate search: every stored photo whose signature
    /// sits within `max_dist` of `sig`, nearest first, truncated to
    /// `limit`. Probes the four-band multi-index — per query it scans the
    /// union of four buckets (expected `4·n/65536` candidates), never the
    /// whole store.
    pub fn search_similar(&self, sig: u64, max_dist: u32, limit: usize) -> Vec<(PhotoId, u32)> {
        puppies_obs::counted!("psp.sig.search");
        let matches: Vec<SigMatch> = self.index.lock().lookup(sig, max_dist);
        matches
            .into_iter()
            .take(limit)
            .map(|m| (m.entry.id, m.distance))
            .collect()
    }

    /// Live entries in the near-duplicate signature index.
    pub fn sig_index_len(&self) -> usize {
        self.index.lock().len()
    }

    /// Total candidate entries scanned by index lookups so far — the
    /// observable `bench psp --dup` uses to demonstrate sublinear search.
    pub fn sig_index_scanned(&self) -> u64 {
        self.index.lock().scanned()
    }

    /// The most recent requests served (oldest first), up to the
    /// configured [`PspConfig::request_log_capacity`]. Entries are `Copy`,
    /// the snapshot Vec is preallocated, and each shard's log lock is held
    /// only for the memcpy out — a diagnostic read never stalls the
    /// serving path.
    pub fn recent_requests(&self) -> Vec<RequestEntry> {
        let mut out: Vec<RequestEntry> = Vec::with_capacity(self.shards.len() * self.log_capacity);
        for shard in self.shards.iter() {
            let log = shard.log.lock();
            out.extend(log.iter().copied());
        }
        // Merge shard segments into one timeline. Any globally-recent entry
        // survives per-shard eviction (an entry is only evicted once
        // `log_capacity` newer entries hit the *same* shard), so the newest
        // `log_capacity` overall are always present.
        out.sort_unstable_by_key(|e| e.seq);
        if out.len() > self.log_capacity {
            out.drain(..out.len() - self.log_capacity);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_core::{protect, OwnerKey, ProtectOptions};
    use puppies_image::{Rect, Rgb, RgbImage};

    fn upload_test_photo(server: &PspServer) -> (PhotoId, OwnerKey) {
        let img = RgbImage::from_fn(64, 64, |x, y| Rgb::new(x as u8 * 2, y as u8 * 2, 77));
        let key = OwnerKey::from_seed([4u8; 32]);
        let protected = protect(
            &img,
            &[Rect::new(16, 16, 24, 24)],
            &key,
            &ProtectOptions::default(),
        )
        .unwrap();
        let id = server
            .upload(protected.bytes, protected.params.to_bytes())
            .unwrap();
        (id, key)
    }

    #[test]
    fn upload_download_roundtrip() {
        let server = PspServer::new();
        let (id, _) = upload_test_photo(&server);
        let bytes = server.download(id).unwrap();
        assert!(CoeffImage::decode(&bytes).is_ok());
        assert!(server.download_params(id).is_ok());
        assert_eq!(server.len(), 1);
    }

    #[test]
    fn download_is_zero_copy() {
        let server = PspServer::new();
        let (id, _) = upload_test_photo(&server);
        let a = server.download(id).unwrap();
        let b = server.download(id).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "downloads share the stored allocation");
    }

    #[test]
    fn unknown_photo_errors() {
        let server = PspServer::new();
        assert!(matches!(
            server.download(PhotoId(99)),
            Err(PspError::UnknownPhoto(PhotoId(99)))
        ));
    }

    #[test]
    fn transform_updates_bytes_and_params() {
        let server = PspServer::new();
        let (id, _) = upload_test_photo(&server);
        let before = server.download(id).unwrap();
        server.transform(id, &Transformation::Rotate180).unwrap();
        let after = server.download(id).unwrap();
        assert_ne!(before, after);
        let params = PublicParams::from_bytes(&server.download_params(id).unwrap()).unwrap();
        assert_eq!(params.transformation, Some(Transformation::Rotate180));
    }

    #[test]
    fn double_transform_rejected() {
        let server = PspServer::new();
        let (id, _) = upload_test_photo(&server);
        server.transform(id, &Transformation::Rotate90).unwrap();
        assert!(server.transform(id, &Transformation::Rotate90).is_err());
    }

    #[test]
    fn pixel_domain_transform_supported() {
        let server = PspServer::new();
        let (id, _) = upload_test_photo(&server);
        server
            .transform(
                id,
                &Transformation::Scale {
                    width: 32,
                    height: 32,
                    filter: puppies_transform::ScaleFilter::Bilinear,
                },
            )
            .unwrap();
        let bytes = server.download(id).unwrap();
        let coeff = CoeffImage::decode(&bytes).unwrap();
        assert_eq!((coeff.width(), coeff.height()), (32, 32));
    }

    #[test]
    fn pixel_fallback_reencodes_at_source_quality() {
        // Protect at a non-default quality: the pixel-domain fallback must
        // re-encode at that quality (recovered from the DQT), not at a
        // hardcoded 75.
        let img = RgbImage::from_fn(64, 64, |x, y| Rgb::new(x as u8 * 3, y as u8, 130));
        let key = OwnerKey::from_seed([9u8; 32]);
        let protected = protect(
            &img,
            &[Rect::new(8, 8, 16, 16)],
            &key,
            &ProtectOptions::default().with_quality(60),
        )
        .unwrap();
        let server = PspServer::new();
        let id = server
            .upload(protected.bytes, protected.params.to_bytes())
            .unwrap();
        server
            .transform(
                id,
                &Transformation::Scale {
                    width: 32,
                    height: 32,
                    filter: puppies_transform::ScaleFilter::Bilinear,
                },
            )
            .unwrap();
        let coeff = CoeffImage::decode(&server.download(id).unwrap()).unwrap();
        assert_eq!(coeff.quality_estimate(), 60);
    }

    #[test]
    fn download_transformed_serves_without_mutating() {
        let server = PspServer::new();
        let (id, _) = upload_test_photo(&server);
        let original = server.download(id).unwrap();
        let (tb, tp) = server
            .download_transformed(id, &Transformation::Rotate90)
            .unwrap();
        // Store untouched.
        assert!(Arc::ptr_eq(&original, &server.download(id).unwrap()));
        let params = PublicParams::from_bytes(&tp).unwrap();
        assert_eq!(params.transformation, Some(Transformation::Rotate90));
        // The served result equals what an in-place transform would store.
        let server2 = PspServer::new();
        let (id2, _) = upload_test_photo(&server2);
        server2.transform(id2, &Transformation::Rotate90).unwrap();
        assert_eq!(tb, server2.download(id2).unwrap());
        assert_eq!(tp, server2.download_params(id2).unwrap());
    }

    #[test]
    fn repeat_download_transformed_hits_cache() {
        let server = PspServer::new();
        let (id, _) = upload_test_photo(&server);
        let t = Transformation::Rotate180;
        let first = server.download_transformed(id, &t).unwrap();
        let stats = server.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let second = server.download_transformed(id, &t).unwrap();
        let stats = server.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(
            Arc::ptr_eq(&first.0, &second.0),
            "hit shares the cached Arc"
        );
        assert_eq!(first.1, second.1);
    }

    #[test]
    fn cache_content_addressing_spans_identical_photos() {
        // Two uploads with identical bytes+params are the same content:
        // the second photo's first transform is already a cache hit.
        let server = PspServer::new();
        let img = RgbImage::from_fn(64, 64, |x, y| Rgb::new(x as u8, y as u8, 5));
        let key = OwnerKey::from_seed([7u8; 32]);
        let protected = protect(
            &img,
            &[Rect::new(0, 0, 16, 16)],
            &key,
            &ProtectOptions::default(),
        )
        .unwrap();
        let a = server
            .upload(protected.bytes.clone(), protected.params.to_bytes())
            .unwrap();
        let b = server
            .upload(protected.bytes, protected.params.to_bytes())
            .unwrap();
        let t = Transformation::FlipHorizontal;
        let ra = server.download_transformed(a, &t).unwrap();
        let rb = server.download_transformed(b, &t).unwrap();
        assert_eq!(ra.0, rb.0);
        let stats = server.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cache_disabled_still_serves_correct_bytes() {
        let cached = PspServer::new();
        let uncached = PspServer::with_config(PspConfig::uncached());
        let (id_c, _) = upload_test_photo(&cached);
        let (id_u, _) = upload_test_photo(&uncached);
        let t = Transformation::Rotate270;
        let rc = cached.download_transformed(id_c, &t).unwrap();
        let ru = uncached.download_transformed(id_u, &t).unwrap();
        assert_eq!(rc.0, ru.0);
        assert_eq!(rc.1, ru.1);
        assert_eq!(uncached.cache_stats().hits, 0);
    }

    #[test]
    fn batch_apis_match_serial_results() {
        let server = PspServer::new();
        let (id1, _) = upload_test_photo(&server);
        let (id2, _) = upload_test_photo(&server);
        let requests = vec![
            (id1, Transformation::Rotate90),
            (id2, Transformation::FlipVertical),
            (PhotoId(999), Transformation::Rotate90),
            (id1, Transformation::Rotate90),
        ];
        let batch = server.transform_batch(&requests);
        assert_eq!(batch.len(), 4);
        assert!(batch[2].is_err());
        let serial = server
            .download_transformed(id1, &Transformation::Rotate90)
            .unwrap();
        assert_eq!(batch[0].as_ref().unwrap().0, serial.0);
        assert_eq!(
            batch[3].as_ref().unwrap().0,
            batch[0].as_ref().unwrap().0,
            "duplicate request in one batch serves identical bytes"
        );
        let downloads = server.download_batch(&[id1, PhotoId(999), id2]);
        assert_eq!(
            downloads[0].as_ref().unwrap(),
            &server.download(id1).unwrap()
        );
        assert!(downloads[1].is_err());
        assert_eq!(
            downloads[2].as_ref().unwrap(),
            &server.download(id2).unwrap()
        );
    }

    #[test]
    fn concurrent_uploads_get_distinct_ids() {
        let server = PspServer::new();
        let pool = puppies_core::parallel::WorkerPool::new(4);
        let ids: std::collections::HashSet<_> = pool
            .map_indexed(8, |_| server.upload(vec![1, 2, 3], vec![]).unwrap())
            .into_iter()
            .collect();
        assert_eq!(ids.len(), 8);
        assert_eq!(server.len(), 8);
    }

    #[test]
    fn storage_footprint_counts_both_parts() {
        let server = PspServer::new();
        let (id, _) = upload_test_photo(&server);
        let fp = server.storage_footprint(id).unwrap();
        let img = server.download(id).unwrap().len();
        let params = server.download_params(id).unwrap().len();
        assert_eq!(fp, img + params);
    }

    #[test]
    fn footprint_total_tracks_uploads_and_transforms() {
        let server = PspServer::new();
        assert_eq!(server.storage_footprint_total(), 0);
        let (id, _) = upload_test_photo(&server);
        let id2 = server.upload(vec![0u8; 10], vec![0u8; 5]).unwrap();
        let expect = server.storage_footprint(id).unwrap() as u64
            + server.storage_footprint(id2).unwrap() as u64;
        assert_eq!(server.storage_footprint_total(), expect);
        server.transform(id, &Transformation::Rotate180).unwrap();
        let expect = server.storage_footprint(id).unwrap() as u64
            + server.storage_footprint(id2).unwrap() as u64;
        assert_eq!(server.storage_footprint_total(), expect);
    }

    #[test]
    fn upload_saturates_instead_of_wrapping_ids() {
        let server = PspServer::new();
        server.next_id.store(u64::MAX - 1, Ordering::Relaxed);
        let id = server.upload(vec![1], vec![]).unwrap();
        assert_eq!(id, PhotoId(u64::MAX - 1));
        // The id space is now spent: further uploads must fail rather than
        // recycle an id, and the failure must not clobber the stored photo.
        assert!(matches!(
            server.upload(vec![2], vec![]),
            Err(PspError::IdsExhausted)
        ));
        assert!(matches!(
            server.upload(vec![3], vec![]),
            Err(PspError::IdsExhausted)
        ));
        assert_eq!(server.download(id).unwrap().as_ref(), &[1u8][..]);
        assert_eq!(server.len(), 1);
    }

    #[test]
    fn restore_photo_replays_uploads_and_overwrites() {
        let server = PspServer::new();
        server.restore_photo(PhotoId(3), vec![1, 2, 3].into(), vec![9].into());
        server.restore_photo(PhotoId(7), vec![4, 5].into(), vec![].into());
        assert_eq!(server.len(), 2);
        assert_eq!(server.download(PhotoId(3)).unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(server.storage_footprint_total(), 4 + 2);
        // A Transform replay overwrites in place without changing counts.
        server.restore_photo(PhotoId(3), vec![6; 10].into(), vec![7; 2].into());
        assert_eq!(server.len(), 2);
        assert_eq!(server.download(PhotoId(3)).unwrap().as_ref(), &[6u8; 10]);
        assert_eq!(server.storage_footprint_total(), 12 + 2);
        // The allocator resumes past the highest restored id.
        let id = server.upload(vec![0], vec![]).unwrap();
        assert_eq!(id, PhotoId(8));
    }

    #[test]
    fn request_log_is_structured_and_bounded() {
        let server = PspServer::new();
        let id = server.upload(vec![7u8; 12], vec![0u8; 3]).unwrap();
        server.download(id).unwrap();
        let _ = server.download(PhotoId(999));
        let log = server.recent_requests();
        assert_eq!(log.len(), 3);
        assert_eq!((log[0].op, log[0].bytes, log[0].ok), ("upload", 15, true));
        assert_eq!((log[1].op, log[1].bytes, log[1].ok), ("download", 12, true));
        assert_eq!((log[2].op, log[2].id, log[2].ok), ("download", 999, false));
        assert!(log.windows(2).all(|w| w[0].seq < w[1].seq));
        // Bounded: hammer one door past capacity and check eviction.
        for _ in 0..(REQUEST_LOG_CAPACITY + 10) {
            server.download(id).unwrap();
        }
        let log = server.recent_requests();
        assert_eq!(log.len(), REQUEST_LOG_CAPACITY);
        assert!(log.iter().all(|e| e.op == "download"));
    }

    #[test]
    fn request_log_capacity_is_configurable() {
        let server = PspServer::with_config(PspConfig {
            request_log_capacity: 8,
            ..PspConfig::default()
        });
        assert_eq!(server.request_log_capacity(), 8);
        let id = server.upload(vec![1u8; 4], vec![]).unwrap();
        for _ in 0..40 {
            server.download(id).unwrap();
        }
        let log = server.recent_requests();
        assert_eq!(log.len(), 8);
        assert!(log.windows(2).all(|w| w[0].seq < w[1].seq));
        // A zero request stays usable (clamped to 1).
        let min = PspServer::with_config(PspConfig {
            request_log_capacity: 0,
            ..PspConfig::default()
        });
        assert_eq!(min.request_log_capacity(), 1);
    }

    #[test]
    fn request_log_records_cache_outcome() {
        let server = PspServer::new();
        let (id, _) = upload_test_photo(&server);
        let t = Transformation::Rotate90;
        server.download_transformed(id, &t).unwrap();
        server.download_transformed(id, &t).unwrap();
        let log = server.recent_requests();
        let served: Vec<_> = log
            .iter()
            .filter(|e| e.op == "download_transformed")
            .collect();
        assert_eq!(served.len(), 2);
        assert_eq!(served[0].cache, CacheOutcome::Miss);
        assert_eq!(served[1].cache, CacheOutcome::Hit);
        assert!(log
            .iter()
            .filter(|e| e.op == "upload" || e.op == "download")
            .all(|e| e.cache == CacheOutcome::NotApplicable));
    }

    /// Re-encodes a stored JPEG at `quality` — the "recompressed copy"
    /// that circulates between platforms: different bytes, same picture.
    fn recompress(bytes: &[u8], quality: u8) -> Vec<u8> {
        let mut coeff = CoeffImage::decode(bytes).unwrap();
        coeff.requantize(quality);
        coeff.encode(&EncodeOptions::default()).unwrap()
    }

    fn protected_fixture(seed: u8) -> (Vec<u8>, Vec<u8>) {
        let img = RgbImage::from_fn(96, 72, |x, y| {
            Rgb::new(
                seed.wrapping_add((x * 5 + y * 3) as u8),
                ((x + 2 * y) % 240) as u8,
                seed ^ (y as u8).wrapping_mul(7),
            )
        });
        let key = OwnerKey::from_seed([seed.max(1); 32]);
        let protected = protect(
            &img,
            &[Rect::new(24, 16, 32, 32)],
            &key,
            &ProtectOptions::default(),
        )
        .unwrap();
        (protected.bytes, protected.params.to_bytes())
    }

    #[test]
    fn recompressed_duplicate_serves_from_family_cache() {
        let server = PspServer::new();
        let (bytes, params) = protected_fixture(3);
        let a = server.upload(bytes.clone(), params.clone()).unwrap();
        let b = server
            .upload(recompress(&bytes, 55), params.clone())
            .unwrap();
        assert_eq!(server.sig_index_len(), 2);
        let t = Transformation::Rotate180;
        // Warm the family root, then the duplicate's *first* serve is
        // already a hit — via the signature family key — and returns the
        // root's exact cached bytes.
        let (pair_a, oa, sa) = server.download_transformed_traced(a, &t).unwrap();
        assert_eq!((oa, sa), (CacheOutcome::Miss, ServedPath::CoeffDomain));
        let (pair_b, ob, sb) = server.download_transformed_traced(b, &t).unwrap();
        assert_eq!((ob, sb), (CacheOutcome::Hit, ServedPath::SigCached));
        assert!(Arc::ptr_eq(&pair_a.0, &pair_b.0), "family shares the Arc");
        assert_eq!(pair_a.1, pair_b.1);
        // The root itself keeps serving its own entry under the exact key.
        let (_, oa2, sa2) = server.download_transformed_traced(a, &t).unwrap();
        assert_eq!((oa2, sa2), (CacheOutcome::Hit, ServedPath::Cached));
    }

    #[test]
    fn signature_off_restores_exact_key_only_behaviour() {
        let server = PspServer::with_config(PspConfig {
            signature: false,
            ..PspConfig::default()
        });
        let (bytes, params) = protected_fixture(3);
        let a = server.upload(bytes.clone(), params.clone()).unwrap();
        let b = server
            .upload(recompress(&bytes, 55), params.clone())
            .unwrap();
        assert_eq!(server.sig_index_len(), 0);
        assert_eq!(server.signature_of(a).unwrap(), None);
        let t = Transformation::Rotate180;
        let (_, oa, _) = server.download_transformed_traced(a, &t).unwrap();
        let (_, ob, _) = server.download_transformed_traced(b, &t).unwrap();
        assert_eq!(oa, CacheOutcome::Miss);
        assert_eq!(ob, CacheOutcome::Miss, "no signature layer, no sharing");
    }

    #[test]
    fn exact_duplicate_uploads_share_bytes_and_account_once() {
        let server = PspServer::new();
        let (bytes, params) = protected_fixture(9);
        let a = server.upload(bytes.clone(), params.clone()).unwrap();
        let b = server.upload(bytes.clone(), params.clone()).unwrap();
        let da = server.download(a).unwrap();
        let db = server.download(b).unwrap();
        assert!(
            Arc::ptr_eq(&da, &db),
            "exact duplicates share one allocation"
        );
        // Bytes counted once, params per photo; per-photo logical size is
        // unchanged.
        assert_eq!(
            server.storage_footprint_total(),
            (bytes.len() + 2 * params.len()) as u64
        );
        assert_eq!(
            server.storage_footprint(b).unwrap(),
            bytes.len() + params.len()
        );
    }

    #[test]
    fn search_similar_finds_the_family_and_skips_strangers() {
        let server = PspServer::new();
        let (bytes, params) = protected_fixture(3);
        let (other_bytes, other_params) = protected_fixture(200);
        let a = server.upload(bytes.clone(), params.clone()).unwrap();
        let b = server
            .upload(recompress(&bytes, 45), params.clone())
            .unwrap();
        let c = server.upload(other_bytes, other_params).unwrap();
        let probe = PspServer::probe_signature(&bytes, Some(&params)).unwrap();
        let hits = server.search_similar(probe, crate::sig::NEAR_DUP_DISTANCE, 10);
        let ids: Vec<PhotoId> = hits.iter().map(|(id, _)| *id).collect();
        assert!(ids.contains(&a) && ids.contains(&b));
        assert!(!ids.contains(&c));
        assert_eq!(hits[0], (a, 0), "the exact photo ranks first");
        // Undecodable probes are rejected, not hashed.
        assert_eq!(PspServer::probe_signature(&[1, 2, 3], None), None);
    }

    #[test]
    fn in_place_transform_reindexes_the_photo() {
        let server = PspServer::new();
        let (bytes, params) = protected_fixture(5);
        let id = server.upload(bytes, params).unwrap();
        let before = server.signature_of(id).unwrap().unwrap();
        assert_eq!(server.sig_index_len(), 1);
        server.transform(id, &Transformation::Rotate90).unwrap();
        assert_eq!(server.sig_index_len(), 1, "old entry replaced, not leaked");
        let after = server.signature_of(id).unwrap().unwrap();
        assert_ne!(before, after, "rotation is a different picture");
        assert!(server.search_similar(before, 0, 10).is_empty());
    }

    #[test]
    fn request_log_merges_across_shards_in_order() {
        // Photos land on different shards; the merged log is still one
        // seq-ordered timeline with the newest entries retained.
        let server = PspServer::new();
        let ids: Vec<_> = (0..20)
            .map(|i| server.upload(vec![i as u8; 8], vec![]).unwrap())
            .collect();
        for round in 0..30 {
            for &id in &ids {
                let _ = server.download(id);
                let _ = round;
            }
        }
        let log = server.recent_requests();
        assert_eq!(log.len(), REQUEST_LOG_CAPACITY);
        assert!(log.windows(2).all(|w| w[0].seq < w[1].seq));
        // All retained entries are from the tail of the request stream.
        let total_requests = 20 + 30 * 20;
        assert!(log[0].seq >= total_requests - REQUEST_LOG_CAPACITY as u64);
    }
}

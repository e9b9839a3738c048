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
//! - **Sharding** — photos live in 16 shards (keyed by the low bits of
//!   [`PhotoId`]), each behind its own `RwLock`, so concurrent requests
//!   for different photos never serialize on one map lock.
//! - **Zero-copy payloads** — stored bytes and params are `Arc<[u8]>`;
//!   [`PspServer::download`] clones a pointer under a brief read lock
//!   instead of memcpying the bitstream.
//! - **One content identity** — a photo's [`ContentId`] is the SHA-256
//!   of its bitstream and of its params, the pair its WAL record names.
//!   The byte interner, decode memo, signature memo, near-duplicate index
//!   and transform cache all key by it (or by the bitstream digest alone
//!   where the params do not matter) and compare it whole, so no upload
//!   can make another photo's *exact-key* lookups hit its entries. The
//!   signature-family layer is a different matter: a miss probes the
//!   family root's entries, and a forged upload that becomes the root
//!   can plant what later family members are served (ROADMAP item 3).
//!   [`PspServer::upload`] hashes both blobs; the durable store
//!   ([`crate::store_disk`]) hands down the digests it computes for the
//!   WAL, so there each blob is hashed once.
//! - **Transform-result cache** — finished transforms are cached under
//!   (content identity, canonical transformation encoding), see
//!   [`crate::cache`], so repeat transform traffic never touches the
//!   codec.
//! - **Decode memo** — transform misses on the same hot photo share one
//!   entropy decode.

use crate::cache::{CacheStats, DecodeMemo, ServedPair, TransformCache};
use crate::sha256::sha256;
use crate::sig::{dc_signature, SigEntry, SigIndex, SigMatch};
use crate::{PspError, Result};
use puppies_core::PublicParams;
use puppies_image::Rect;
use puppies_jpeg::codec::decode_dc;
use puppies_jpeg::{CoeffImage, EncodeOptions};
use puppies_transform::Transformation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// Identifies a stored photo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhotoId(pub u64);

/// A photo's content identity: the SHA-256 of its bitstream and of its
/// public-parameter blob — the pair its WAL `Upload`/`Transform` record
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentId {
    /// SHA-256 of the bitstream.
    pub bytes_sha: [u8; 32],
    /// SHA-256 of the public-parameter blob.
    pub params_sha: [u8; 32],
}

impl ContentId {
    /// Hashes both blobs.
    pub fn of(bytes: &[u8], params: &[u8]) -> ContentId {
        ContentId {
            bytes_sha: sha256(bytes),
            params_sha: sha256(params),
        }
    }
}

#[derive(Debug)]
struct StoredPhoto {
    bytes: Arc<[u8]>,
    /// Opaque public-parameter blob (the PSP never parses it — it lives in
    /// the image "description").
    params: Arc<[u8]>,
    content: ContentId,
    /// Perceptual identity: `Some((signature, family root's content))`
    /// once the upload-time indexer has run and the bytes decoded; `None`
    /// inside when the bytes are not a decodable JPEG.
    identity: OnceLock<Option<(u64, ContentId)>>,
}

impl StoredPhoto {
    fn size(&self) -> u64 {
        (self.bytes.len() + self.params.len()) as u64
    }
}

/// Which pipeline produced a transform response: the quantized-coefficient
/// hot path (no decode to pixels), the pixel-domain fallback (decode →
/// transform → re-encode), or the transform-result cache (no codec work at
/// all). The PSP's decode-free serving claim is measured from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedPath {
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
            ServedPath::CoeffDomain => "coeff-domain",
            ServedPath::PixelFallback => "pixel-fallback",
            ServedPath::Cached => "cached",
            ServedPath::SigCached => "sig-cached",
        }
    }

    /// Whether the transform-result cache answered (`x-cache: hit`).
    pub fn cache_hit(self) -> bool {
        matches!(self, ServedPath::Cached | ServedPath::SigCached)
    }
}

/// Store shards; photo `id` lives in shard `id % SHARDS`.
const SHARDS: usize = 16;

/// One store shard's photo map.
type Shard = RwLock<HashMap<PhotoId, Arc<StoredPhoto>>>;

/// A content identity's signature: `Some((signature, width, height))`
/// for decodable content, `None` for content whose decode failed.
type SigMemoEntry = Option<(u64, u32, u32)>;

/// One signature-memo slot: how many stored photos hold this content
/// identity, and its signature once the indexer has computed it.
#[derive(Debug)]
struct SigSlot {
    refs: usize,
    sig: Option<SigMemoEntry>,
}

/// The perceptual signature of `(bytes, params)`, computed from public
/// data only: the DC-only walk (it accepts exactly the streams a full
/// decode does, without building the coefficient blocks), the private
/// ROI rects from `params` (none when the blob is empty or does not
/// parse), then [`dc_signature`] with those regions masked out.
fn compute_signature(bytes: &[u8], params: &[u8]) -> SigMemoEntry {
    let grid = decode_dc(bytes).ok()?;
    let rois: Vec<Rect> = PublicParams::from_bytes(params)
        .map(|p| p.rois.iter().map(|r| r.rect).collect())
        .unwrap_or_default();
    Some((dc_signature(&grid, &rois), grid.width, grid.height))
}

type Interned = (Arc<[u8]>, usize);

/// Refcounted exact-duplicate byte sharing for the in-memory store:
/// uploads with identical bytes share one `Arc<[u8]>` allocation (the
/// memory-side mirror of the WAL, which logs each distinct blob once),
/// and the aggregate footprint counts each distinct allocation once.
/// Keyed by the bitstream's SHA-256, trusted as the WAL's dedup trusts it.
#[derive(Debug, Default)]
struct ByteInterner {
    /// Bitstream SHA-256 → the shared allocation and its reference count.
    table: Mutex<HashMap<[u8; 32], Interned>>,
}

impl ByteInterner {
    /// Returns the canonical shared `Arc` for the bitstream with SHA-256
    /// `sha`, and whether this call added a fresh allocation (the caller
    /// accounts footprint only then). A duplicate's `Vec` is dropped
    /// without ever being copied into an `Arc`.
    fn intern(&self, sha: [u8; 32], bytes: impl Into<Arc<[u8]>>) -> (Arc<[u8]>, bool) {
        let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        let (shared, refs) = table.entry(sha).or_insert_with(|| (bytes.into(), 0));
        *refs += 1;
        (shared.clone(), *refs == 1)
    }

    /// Drops one reference to the bitstream with SHA-256 `sha`; returns
    /// whether its allocation left the interner (the caller subtracts
    /// footprint only then).
    fn release(&self, sha: &[u8; 32]) -> bool {
        let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        match table.get_mut(sha) {
            Some((_, refs)) if *refs > 1 => {
                *refs -= 1;
                false
            }
            _ => {
                table.remove(sha);
                true
            }
        }
    }
}

/// Construction-time tuning for [`PspServer`].
#[derive(Debug, Clone)]
pub struct PspConfig {
    /// Byte budget for the transform-result cache; 0 disables caching.
    pub cache_budget_bytes: usize,
    /// Max decoded images retained by the transform-miss memo; 0 disables.
    pub decode_memo_entries: usize,
}

impl Default for PspConfig {
    fn default() -> Self {
        PspConfig {
            cache_budget_bytes: 32 << 20,
            decode_memo_entries: 8,
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
        }
    }
}

/// The PSP server. Thread-safe: uploads, downloads and transformations can
/// run concurrently (the experiment sweeps exploit this).
#[derive(Debug)]
pub struct PspServer {
    shards: [Shard; SHARDS],
    next_id: AtomicU64,
    /// Total stored bytes (image + params across all photos), maintained
    /// incrementally so reading it never walks the maps.
    footprint: AtomicU64,
    /// Stored photo count, maintained incrementally for O(1) `len()`.
    photo_count: AtomicU64,
    cache: TransformCache,
    memo: DecodeMemo,
    /// The near-duplicate signature index (see [`crate::sig`]).
    index: Mutex<SigIndex>,
    /// Signature memo by content identity. Re-uploads of content the
    /// server already holds (the dominant duplicate workload) and
    /// `/search` probes of it skip the JPEG decode entirely — the
    /// signature is a pure function of `(bytes, params)`, which is
    /// exactly what the identity names. A slot lives exactly while some
    /// stored photo has that identity: [`PspServer::intern`] takes a
    /// reference, [`PspServer::retire_photo`] drops it, and probes never
    /// insert.
    sig_memo: Mutex<HashMap<ContentId, SigSlot>>,
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

    /// Creates an empty server with explicit cache tuning.
    pub fn with_config(config: PspConfig) -> Self {
        PspServer {
            shards: std::array::from_fn(|_| RwLock::default()),
            next_id: AtomicU64::new(0),
            footprint: AtomicU64::new(0),
            photo_count: AtomicU64::new(0),
            cache: TransformCache::new(config.cache_budget_bytes),
            memo: DecodeMemo::new(config.decode_memo_entries),
            index: Mutex::new(SigIndex::new()),
            sig_memo: Mutex::new(HashMap::new()),
            interner: ByteInterner::default(),
        }
    }

    fn shard(&self, id: PhotoId) -> &Shard {
        &self.shards[(id.0 % SHARDS as u64) as usize]
    }

    fn lookup(&self, id: PhotoId) -> Result<Arc<StoredPhoto>> {
        self.shard(id)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
            .ok_or(PspError::UnknownPhoto(id))
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
            puppies_obs::gauge_set(
                "psp.sig.index_entries",
                self.index
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len() as i64,
            );
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
        // The signature is a pure function of `(bytes, params)` —
        // precisely what the content identity names — so a re-upload of
        // content the server already holds never pays the JPEG decode
        // again. Re-uploading identical bytes is the dominant duplicate
        // workload and must stay as cheap as storing them.
        let content = stored.content;
        let entry = match self.memoized_signature(&content) {
            Some(entry) => {
                if entry.is_some() {
                    puppies_obs::counted!("psp.sig.memo_hit");
                }
                entry
            }
            None => {
                let entry = compute_signature(&stored.bytes, &stored.params);
                if entry.is_some() {
                    puppies_obs::counted!("psp.sig.computed");
                }
                // The slot is gone only if this photo was already retired.
                if let Some(slot) = self
                    .sig_memo
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_mut(&content)
                {
                    slot.sig = Some(entry);
                }
                entry
            }
        };
        let Some((sig, w, h)) = entry else {
            // Undecodable content stays unindexed; the memo remembers
            // that, so it is never retried.
            let _ = stored.identity.set(None);
            return;
        };
        let matched = {
            let mut index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
            let matched = index.family_of(sig, &content.params_sha, w, h);
            let family = matched.map_or(content, |m| m.family);
            index.insert(SigEntry {
                sig,
                id,
                content,
                family,
                width: w,
                height: h,
            });
            let _ = stored.identity.set(Some((sig, family)));
            matched
        };
        if let Some(m) = matched {
            if m.content == content {
                puppies_obs::counted!("psp.sig.dedup_exact");
            } else {
                puppies_obs::counted!("psp.sig.neardup");
            }
        }
    }

    /// Wraps a blob pair for storing, sharing the bitstream with any
    /// stored exact duplicate, and adds what it newly occupies to the
    /// footprint ([`PspServer::retire_photo`] takes it back off).
    fn intern(
        &self,
        bytes: impl Into<Arc<[u8]>>,
        params: Arc<[u8]>,
        content: ContentId,
    ) -> Arc<StoredPhoto> {
        let (bytes, fresh) = self.interner.intern(content.bytes_sha, bytes);
        let accounted = params.len() + if fresh { bytes.len() } else { 0 };
        self.footprint
            .fetch_add(accounted as u64, Ordering::Relaxed);
        self.sig_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(content)
            .or_insert(SigSlot { refs: 0, sig: None })
            .refs += 1;
        Arc::new(StoredPhoto {
            bytes,
            params,
            content,
            identity: OnceLock::new(),
        })
    }

    /// Removes a photo's index entry, signature-memo reference and byte
    /// allocation; called with a `StoredPhoto` that has left (or never
    /// entered) the map.
    fn retire_photo(&self, id: PhotoId, old: &StoredPhoto) {
        if let Some(Some((sig, _))) = old.identity.get() {
            self.index
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(*sig, id);
        }
        // Last photo with this content identity is gone — drop its
        // signature, so churn workloads don't accumulate signatures of
        // content the store no longer holds. (The bytes may live on under
        // other params; the signature depends on both.)
        let mut memo = self.sig_memo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = memo.get_mut(&old.content) {
            slot.refs -= 1;
            if slot.refs == 0 {
                memo.remove(&old.content);
            }
        }
        drop(memo);
        if self.interner.release(&old.content.bytes_sha) {
            self.footprint
                .fetch_sub(old.bytes.len() as u64, Ordering::Relaxed);
            // Last copy of these bytes is gone — drop the decode memo's
            // entry for them too.
            self.memo.invalidate(&old.content.bytes_sha);
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
        let _span = puppies_obs::span("psp.upload", "psp");
        let content = ContentId::of(&bytes, &params);
        self.add(bytes, params.into(), content)
    }

    /// [`PspServer::upload`] for a caller that already holds the content
    /// identity: [`crate::store_disk`] hashes every blob for its WAL
    /// record and passes the digests down, so no blob is hashed twice.
    pub(crate) fn upload_hashed(
        &self,
        bytes: Vec<u8>,
        params: Arc<[u8]>,
        content: ContentId,
    ) -> Result<PhotoId> {
        let _span = puppies_obs::span("psp.upload", "psp");
        self.add(bytes, params, content)
    }

    /// Stores a photo under a fresh id.
    fn add(&self, bytes: Vec<u8>, params: Arc<[u8]>, content: ContentId) -> Result<PhotoId> {
        let id = self.allocate_id()?;
        self.store_at(id, bytes, params, content);
        puppies_obs::counted!("psp.uploads");
        self.publish_gauges();
        Ok(id)
    }

    /// Reinstates or overwrites photo `id` with content whose identity
    /// the caller holds: WAL replay, where a `Transform` record overwrites
    /// the `Upload` before it, and rolling back a transform that could
    /// not be logged. Advances the id allocator past `id`, so later
    /// uploads never collide with it; ids at `u64::MAX` leave it
    /// saturated (exhausted), never wrapped.
    pub(crate) fn put_at(
        &self,
        id: PhotoId,
        bytes: Arc<[u8]>,
        params: Arc<[u8]>,
        content: ContentId,
    ) {
        self.next_id
            .fetch_max(id.0.saturating_add(1), Ordering::Relaxed);
        self.store_at(id, bytes, params, content);
    }

    /// Interns the blobs, puts them at `id` (retiring what was there) and
    /// indexes the photo.
    fn store_at(
        &self,
        id: PhotoId,
        bytes: impl Into<Arc<[u8]>>,
        params: Arc<[u8]>,
        content: ContentId,
    ) {
        let stored = self.intern(bytes, params, content);
        match self
            .shard(id)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, stored.clone())
        {
            Some(old) => self.retire_photo(id, &old),
            None => {
                self.photo_count.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.index_photo(id, &stored);
    }

    /// Claims the next photo id, saturating at `u64::MAX`.
    fn allocate_id(&self) -> Result<PhotoId> {
        let mut cur = self.next_id.load(Ordering::Relaxed);
        loop {
            if cur == u64::MAX {
                return Err(PspError::IdsExhausted);
            }
            match self.next_id.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(PhotoId(cur)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// The stored `(bytes, params)` of a photo and their content identity,
    /// for the persistence layer: the download doors' zero-copy read.
    pub(crate) fn stored(&self, id: PhotoId) -> Result<(ServedPair, ContentId)> {
        self.lookup(id)
            .map(|p| ((p.bytes.clone(), p.params.clone()), p.content))
    }

    /// Downloads the image bytes (any user may call this — the threat
    /// model's "unauthorized access at PSP side" is exactly this door).
    /// Zero-copy: the returned `Arc` shares the stored allocation.
    ///
    /// # Errors
    /// Fails for unknown photos.
    pub fn download(&self, id: PhotoId) -> Result<Arc<[u8]>> {
        let _span = puppies_obs::span("psp.download", "psp");
        puppies_obs::counted!("psp.downloads");
        self.lookup(id).map(|p| p.bytes.clone())
    }

    /// Downloads the public-parameter blob. Zero-copy, like
    /// [`PspServer::download`].
    ///
    /// # Errors
    /// Fails for unknown photos.
    pub fn download_params(&self, id: PhotoId) -> Result<Arc<[u8]>> {
        self.lookup(id).map(|p| p.params.clone())
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
            .map(|(pair, _)| pair)
    }

    /// [`PspServer::download_transformed`], but also reports which path
    /// produced the result — the serving layer surfaces it on the wire
    /// (`x-cache: hit|miss`, `x-served-path: coeff-domain|pixel-fallback|
    /// cached|sig-cached`) so load generators can verify cache behaviour
    /// and the decode-free claim end to end.
    ///
    /// # Errors
    /// As [`PspServer::download_transformed`].
    pub fn download_transformed_traced(
        &self,
        id: PhotoId,
        t: &Transformation,
    ) -> Result<(ServedPair, ServedPath)> {
        let _span = puppies_obs::span("psp.download_transformed", "psp");
        puppies_obs::counted!("psp.transform_serves");
        self.lookup(id)
            .and_then(|stored| self.serve_transform(&stored, t))
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
        let _span = puppies_obs::span("psp.transform", "psp");
        let out = self.transform_inner(id, t);
        puppies_obs::counted!("psp.transforms");
        self.publish_gauges();
        out
    }

    fn transform_inner(&self, id: PhotoId, t: &Transformation) -> Result<()> {
        let stored = self.lookup(id)?;
        let ((new_bytes, new_params), _) = self.serve_transform(&stored, t)?;
        let content = ContentId::of(&new_bytes, &new_params);
        let replacement = self.intern(new_bytes, new_params, content);
        let swapped = {
            let mut photos = self
                .shard(id)
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            match photos.get(&id) {
                // The entry we computed from is still current: swap it.
                Some(cur) if Arc::ptr_eq(cur, &stored) => {
                    photos.insert(id, replacement.clone());
                    Ok(())
                }
                // Someone else transformed (or re-uploaded) this photo
                // between our read and this write. Applying our result
                // would silently drop theirs, so refuse like any other
                // chain attempt.
                Some(_) => Err(PspError::Transform(
                    puppies_transform::TransformError::InvalidParameter(
                        "photo changed concurrently; transform chain not supported".into(),
                    ),
                )),
                None => Err(PspError::UnknownPhoto(id)),
            }
        };
        // Whichever pair is out of the map gives its bytes back. (Transform
        // *results* keyed by the old content stay addressable — they are
        // still byte-correct answers for that content — and simply age
        // out.)
        match swapped {
            Ok(()) => {
                self.retire_photo(id, &stored);
                self.index_photo(id, &replacement);
            }
            Err(_) => self.retire_photo(id, &replacement),
        }
        swapped
    }

    /// The shared serving path: transform-cache lookup, then on a miss the
    /// decode(memo)→apply→re-encode pipeline plus cache fill. Never locks a
    /// shard; works entirely from the snapshot `Arc`s.
    fn serve_transform(
        &self,
        stored: &StoredPhoto,
        t: &Transformation,
    ) -> Result<(ServedPair, ServedPath)> {
        let content = stored.content;
        let t_canonical = t.canonical_bytes();
        // Second-level key: a recompressed near-duplicate shares its family
        // root's cached results. Results are only ever *inserted* under a
        // photo's own exact key, so the family probe can only surface bytes
        // the root itself produced — the root always serves its own bytes.
        let family_key = match stored.identity.get() {
            Some(Some((_, family))) if *family != content => Some((*family, t_canonical.clone())),
            _ => None,
        };
        let key = (content, t_canonical);
        match self.cache.get_two_level(&key, family_key.as_ref()) {
            Some((pair, true)) => {
                puppies_obs::counted!("psp.sig.hit");
                return Ok((pair, ServedPath::SigCached));
            }
            Some((pair, false)) => return Ok((pair, ServedPath::Cached)),
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
        let coeff = match self.memo.get(&content.bytes_sha) {
            Some(c) => c,
            None => {
                let decoded = Arc::new(
                    CoeffImage::decode(&stored.bytes).map_err(puppies_core::PuppiesError::from)?,
                );
                self.memo.insert(content.bytes_sha, decoded.clone());
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
        Ok(((new_bytes, new_params), served))
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
    /// when its bytes did not decode.
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
    /// locally or ships the bytes to the `/search` door, which answers
    /// through [`PspServer::search_signature`].
    pub fn probe_signature(bytes: &[u8], params: Option<&[u8]>) -> Option<u64> {
        compute_signature(bytes, params.unwrap_or_default()).map(|(sig, _, _)| sig)
    }

    /// [`PspServer::probe_signature`] for the server's own `/search` door:
    /// a probe of content the store holds is answered from the signature
    /// memo without decoding (`psp.sig.search_memo_hit`). Any other probe
    /// pays one SHA-256 more than the decode, and is never memoized, so
    /// search traffic cannot grow the memo. Empty `params` stand for none,
    /// exactly as an upload with an empty blob is indexed.
    pub fn search_signature(&self, bytes: &[u8], params: &[u8]) -> Option<u64> {
        let content = ContentId::of(bytes, params);
        if let Some(entry) = self.memoized_signature(&content) {
            if entry.is_some() {
                puppies_obs::counted!("psp.sig.search_memo_hit");
            }
            return entry.map(|(sig, _, _)| sig);
        }
        let entry = compute_signature(bytes, params);
        if entry.is_some() {
            puppies_obs::counted!("psp.sig.computed");
        }
        entry.map(|(sig, _, _)| sig)
    }

    /// The memoized signature of a stored content identity, if the
    /// indexer has computed it. Holds the memo lock for the lookup only.
    fn memoized_signature(&self, content: &ContentId) -> Option<SigMemoEntry> {
        self.sig_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(content)
            .and_then(|slot| slot.sig)
    }

    /// Sublinear near-duplicate search: every stored photo whose signature
    /// sits within `max_dist` of `sig`, nearest first, truncated to
    /// `limit`. Probes the four-band multi-index — per query it scans the
    /// union of four buckets (expected `4·n/65536` candidates), never the
    /// whole store.
    pub fn search_similar(&self, sig: u64, max_dist: u32, limit: usize) -> Vec<(PhotoId, u32)> {
        puppies_obs::counted!("psp.sig.search");
        let matches: Vec<SigMatch> = self
            .index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(sig, max_dist);
        matches
            .into_iter()
            .take(limit)
            .map(|m| (m.entry.id, m.distance))
            .collect()
    }

    /// Live entries in the near-duplicate signature index.
    pub fn sig_index_len(&self) -> usize {
        self.index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Total candidate entries scanned by index lookups so far — the
    /// benchmark's `sig.scanned_per_query` reads it.
    pub fn sig_index_scanned(&self) -> u64 {
        self.index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .scanned()
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
    fn poisoned_shard_still_serves() {
        let server = PspServer::new();
        let (id, _) = upload_test_photo(&server);
        std::thread::scope(|s| {
            let joined = s.spawn(|| {
                let _guard = server.shard(id).write();
                panic!("panic while holding a shard");
            });
            assert!(joined.join().is_err());
        });
        assert!(server.shard(id).is_poisoned());
        assert!(server.download(id).is_ok());
        server.transform(id, &Transformation::Rotate180).unwrap();
        let params = PublicParams::from_bytes(&server.download_params(id).unwrap()).unwrap();
        assert_eq!(params.transformation, Some(Transformation::Rotate180));
        // A new photo whose id lands in the same shard is stored there too.
        let same_shard = (1..=SHARDS)
            .map(|_| upload_test_photo(&server).0)
            .find(|&other| std::ptr::eq(server.shard(other), server.shard(id)))
            .expect("one of SHARDS sequential ids shares the shard");
        assert!(server.download(same_shard).is_ok());
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
    fn concurrent_uploads_get_distinct_ids() {
        let server = PspServer::new();
        let ids: std::collections::HashSet<_> = std::thread::scope(|scope| {
            let uploads: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| server.upload(vec![1, 2, 3], vec![]).unwrap()))
                .collect();
            uploads.into_iter().map(|h| h.join().unwrap()).collect()
        });
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
        let restore = |id: u64, bytes: Vec<u8>, params: Vec<u8>| {
            let content = ContentId::of(&bytes, &params);
            server.put_at(PhotoId(id), bytes.into(), params.into(), content);
        };
        restore(3, vec![1, 2, 3], vec![9]);
        restore(7, vec![4, 5], vec![]);
        assert_eq!(server.len(), 2);
        assert_eq!(server.download(PhotoId(3)).unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(server.storage_footprint_total(), 4 + 2);
        // A Transform replay overwrites in place without changing counts.
        restore(3, vec![6; 10], vec![7; 2]);
        assert_eq!(server.len(), 2);
        assert_eq!(server.download(PhotoId(3)).unwrap().as_ref(), &[6u8; 10]);
        assert_eq!(server.storage_footprint_total(), 12 + 2);
        // The allocator resumes past the highest restored id.
        let id = server.upload(vec![0], vec![]).unwrap();
        assert_eq!(id, PhotoId(8));
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

    /// Recompressed re-uploads of stored photos serve their first
    /// transform from the family root's cached result: 12 originals, four
    /// recompression strengths, three views. Every copy is byte-distinct
    /// from its root, so the exact key alone never hits.
    #[test]
    fn recompressed_duplicate_serves_from_family_cache() {
        let server = PspServer::new();
        let views = [
            Transformation::Rotate90,
            Transformation::Rotate180,
            Transformation::Recompress { quality: 40 },
        ];
        let qualities = [40, 55, 70, 85];
        let originals: Vec<_> = (1..=12).map(protected_fixture).collect();
        // Warm every (root, view). Each root starts its own family, so
        // none of these serves may come from the cache, and the rotations
        // run in the coefficient domain.
        let mut roots = Vec::new();
        for (bytes, params) in &originals {
            let id = server.upload(bytes.clone(), params.clone()).unwrap();
            let warmed: Vec<ServedPair> = views
                .iter()
                .map(|t| {
                    let (pair, served) = server.download_transformed_traced(id, t).unwrap();
                    assert!(!served.cache_hit(), "root {id:?} joined another family");
                    if !matches!(t, Transformation::Recompress { .. }) {
                        assert_eq!(served, ServedPath::CoeffDomain, "root {id:?} under {t:?}");
                    }
                    pair
                })
                .collect();
            roots.push((id, warmed));
        }
        // Every recompressed copy is byte-distinct from its root, so the
        // exact key can never serve it; each of its first serves must come
        // from the root's cached entry via the family key — the very
        // allocation, not a copy of it.
        let mut copies = 0;
        for ((bytes, params), (_, warmed)) in originals.iter().zip(&roots) {
            for quality in qualities {
                let copy = recompress(bytes, quality);
                assert_ne!(
                    ContentId::of(&copy, params),
                    ContentId::of(bytes, params),
                    "q{quality} copy is its root's exact content"
                );
                let id = server.upload(copy, params.clone()).unwrap();
                copies += 1;
                for (t, root_pair) in views.iter().zip(warmed) {
                    let (pair, served) = server.download_transformed_traced(id, t).unwrap();
                    assert_eq!(
                        served,
                        ServedPath::SigCached,
                        "first serve of q{quality} copy {id:?} under {t:?}"
                    );
                    assert!(
                        Arc::ptr_eq(&pair.0, &root_pair.0),
                        "q{quality} copy {id:?} under {t:?} does not share its root's Arc"
                    );
                    assert_eq!(pair.1, root_pair.1);
                }
            }
        }
        assert_eq!(copies, originals.len() * qualities.len());
        assert_eq!(server.sig_index_len(), originals.len() + copies);
        // The roots themselves keep serving their own entries.
        for (id, _) in &roots {
            let (_, served) = server.download_transformed_traced(*id, &views[0]).unwrap();
            assert_eq!(served, ServedPath::Cached);
        }
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
    fn search_signature_of_stored_content_matches_the_probe() {
        let server = PspServer::new();
        let (bytes, params) = protected_fixture(3);
        let (bare, _) = protected_fixture(40);
        server.upload(bytes.clone(), params.clone()).unwrap();
        server.upload(bare.clone(), Vec::new()).unwrap();
        assert_eq!(server.sig_memo.lock().unwrap().len(), 2);
        assert_eq!(
            server.search_signature(&bytes, &params),
            PspServer::probe_signature(&bytes, Some(&params))
        );
        // Empty params stand for none, on both sides.
        assert_eq!(
            server.search_signature(&bare, &[]),
            PspServer::probe_signature(&bare, None)
        );
        // Probes of content the store does not hold answer the same and
        // are never memoized.
        let copy = recompress(&bytes, 55);
        assert_eq!(
            server.search_signature(&copy, &params),
            PspServer::probe_signature(&copy, Some(&params))
        );
        assert_eq!(
            server.search_signature(&bytes, &[]),
            PspServer::probe_signature(&bytes, None)
        );
        assert_eq!(server.search_signature(&[1, 2, 3], &[]), None);
        assert_eq!(server.sig_memo.lock().unwrap().len(), 2);
    }

    #[test]
    fn sig_memo_holds_exactly_the_stored_content_identities() {
        // Two photos share one bitstream under different params: two
        // content identities, one byte allocation.
        let server = PspServer::new();
        let (bytes, params) = protected_fixture(6);
        let mut other = PublicParams::from_bytes(&params).unwrap();
        other.image_id ^= 1;
        let other = other.to_bytes();
        let a = server.upload(bytes.clone(), params.clone()).unwrap();
        let b = server.upload(bytes.clone(), other.clone()).unwrap();
        assert_eq!(server.sig_memo.lock().unwrap().len(), 2);
        let old = [
            ContentId::of(&bytes, &params),
            ContentId::of(&bytes, &other),
        ];
        // Each in-place transform retires one identity while the other
        // still holds the bytes; neither may outlive its last photo.
        server.transform(a, &Transformation::Rotate90).unwrap();
        server.transform(b, &Transformation::FlipVertical).unwrap();
        let stored: Vec<ContentId> = [a, b]
            .iter()
            .map(|&id| server.stored(id).unwrap().1)
            .collect();
        let memo = server.sig_memo.lock().unwrap();
        assert_eq!(memo.len(), 2, "one slot per stored identity");
        for content in &old {
            assert!(!memo.contains_key(content), "retired identity leaked");
        }
        for content in &stored {
            assert_eq!(memo[content].refs, 1);
        }
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
}

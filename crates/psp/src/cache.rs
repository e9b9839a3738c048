//! Serving-side caches for the PSP fast path.
//!
//! Two layers sit in front of the decode→transform→re-encode pipeline:
//!
//! - [`TransformCache`] — a byte-budgeted LRU of finished transform
//!   results, keyed by the source photo's [`ContentId`] (the SHA-256 of
//!   its bitstream and of its parameter blob) plus the
//!   [`puppies_transform::Transformation::canonical_bytes`] encoding. A
//!   hit can *never* serve stale bytes: rewriting a photo changes its
//!   content identity, which changes every key derived from it, and the
//!   orphaned entries simply age out of the LRU. Content addressing *is*
//!   the invalidation story.
//! - [`DecodeMemo`] — a small entry-bounded LRU of decoded
//!   [`CoeffImage`]s keyed by the bitstream's SHA-256 alone (decoding
//!   never reads the params), so several distinct transformations of one
//!   hot photo pay for its entropy decode once.
//!
//! Keys are compared whole and a hit is served without comparing bytes:
//! both caches trust SHA-256 equality, as the WAL's blob dedup does. A
//! key that anyone can collide (a 64-bit FNV, say) would let one uploader
//! plant results that another photo's receivers are then served.
//!
//! Both are internally locked ([`std::sync::Mutex`], held only for map
//! bookkeeping — never across codec work) and safe to share across server
//! shards. A poisoned lock is entered anyway, so one panicking request does
//! not disable a cache for every later one. Hit/miss/eviction counts feed `puppies-obs` counters
//! (`psp.cache.hit`, `psp.cache.miss`, `psp.cache.eviction`,
//! `psp.memo.hit`, `psp.memo.miss`) and the `psp.cache.bytes` gauge.

use crate::store::ContentId;
use puppies_jpeg::CoeffImage;
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A served `(JPEG bytes, public-params blob)` pair behind shared
/// allocations — what `download_transformed` returns and what the
/// transform cache stores.
pub type ServedPair = (Arc<[u8]>, Arc<[u8]>);

/// A transform-cache key: the source photo's content identity and the
/// canonical encoding of the transformation applied to it.
pub type TransformKey = (ContentId, Vec<u8>);

/// A point-in-time snapshot of a [`TransformCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that fell through to the pipeline.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Payload bytes currently resident (image + params per entry).
    pub bytes: usize,
    /// The configured byte budget (0 = cache disabled).
    pub capacity_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident entry: its value, its latest recency stamp and what it
/// charges against the budget.
struct Slot<V> {
    value: V,
    stamp: u64,
    charge: usize,
}

/// Recency bookkeeping shared by both caches: a map plus a stamp queue
/// with lazy cleanup. Every touch pushes a fresh `(key, stamp)` pair;
/// eviction pops from the front and skips pairs whose stamp no longer
/// matches the live entry (they were superseded by a later touch).
/// Amortized O(1) per operation, no intrusive list.
struct Lru<K, V> {
    map: HashMap<K, Slot<V>>,
    order: VecDeque<(K, u64)>,
    next_stamp: u64,
    /// Sum of the resident entries' charges.
    charged: usize,
}

impl<K: Clone + Eq + Hash, V: Clone> Lru<K, V> {
    fn new() -> Self {
        Lru {
            map: HashMap::new(),
            order: VecDeque::new(),
            next_stamp: 0,
            charged: 0,
        }
    }

    fn touch(&mut self, key: K) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.push_back((key, stamp));
        stamp
    }

    /// Compacts the stamp queue if superseded pairs dominate it, keeping
    /// its length proportional to the live entry count. Runs only after
    /// the touched entry's stamp is updated.
    fn maybe_compact(&mut self) {
        if self.order.len() > 32 && self.order.len() > self.map.len() * 4 {
            let Lru { map, order, .. } = self;
            order.retain(|(k, stamp)| map.get(k).is_some_and(|s| s.stamp == *stamp));
        }
    }

    /// The value under `key`, refreshing its recency.
    fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let resident = self.map.get_key_value(key)?.0.clone();
        let stamp = self.touch(resident);
        let slot = self.map.get_mut(key)?;
        slot.stamp = stamp;
        let value = slot.value.clone();
        self.maybe_compact();
        Some(value)
    }

    /// Inserts `value`, then evicts least-recently-used entries until the
    /// resident charge fits `budget`. Returns how many were evicted.
    fn insert(&mut self, key: K, value: V, charge: usize, budget: usize) -> u64 {
        let stamp = self.touch(key.clone());
        if let Some(old) = self.map.insert(
            key,
            Slot {
                value,
                stamp,
                charge,
            },
        ) {
            self.charged -= old.charge;
        }
        self.charged += charge;
        let mut evicted = 0;
        while self.charged > budget {
            let Some((victim, vstamp)) = self.order.pop_front() else {
                break;
            };
            // Skip stale queue pairs: a fresher pair covers the entry.
            if self.map.get(&victim).is_some_and(|s| s.stamp == vstamp) {
                let old = self.map.remove(&victim).expect("checked above");
                self.charged -= old.charge;
                evicted += 1;
            }
        }
        self.maybe_compact();
        evicted
    }

    fn remove(&mut self, key: &K) {
        if let Some(old) = self.map.remove(key) {
            self.charged -= old.charge;
        }
    }
}

/// Content-addressed, byte-budgeted LRU for finished transform results.
pub struct TransformCache {
    budget: usize,
    inner: Mutex<Lru<Arc<TransformKey>, ServedPair>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for TransformCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("TransformCache")
            .field("budget", &self.budget)
            .field("entries", &s.entries)
            .field("bytes", &s.bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl TransformCache {
    /// Creates a cache with the given byte budget; 0 disables it (every
    /// lookup misses, inserts are dropped).
    pub fn new(budget_bytes: usize) -> Self {
        TransformCache {
            budget: budget_bytes,
            inner: Mutex::new(Lru::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a transform result, refreshing its recency on hit.
    pub fn get(&self, key: &TransformKey) -> Option<ServedPair> {
        let hit = match self.budget {
            0 => None,
            _ => self
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(key),
        };
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            puppies_obs::counted!("psp.cache.hit");
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            puppies_obs::counted!("psp.cache.miss");
        }
        hit
    }

    /// Two-level lookup for the perceptual-identity layer: the exact
    /// content key is checked first; only on a miss, and only when the
    /// photo belongs to a signature family rooted at *different* content,
    /// is the family key consulted. Returns the pair plus whether the
    /// family key (level 2) served it — the caller owns the
    /// `psp.sig.hit` / `psp.sig.miss` accounting, since only it knows
    /// whether a family existed to consult.
    pub fn get_two_level(
        &self,
        exact: &TransformKey,
        family: Option<&TransformKey>,
    ) -> Option<(ServedPair, bool)> {
        if let Some(pair) = self.get(exact) {
            return Some((pair, false));
        }
        match family {
            Some(f) if f != exact => self.get(f).map(|pair| (pair, true)),
            _ => None,
        }
    }

    /// Inserts a transform result, evicting least-recently-used entries to
    /// stay within the byte budget. Oversized values (larger than the whole
    /// budget) are dropped rather than wiping the cache for one entry.
    pub fn insert(&self, key: TransformKey, bytes: Arc<[u8]>, params: Arc<[u8]>) {
        let charge = bytes.len() + params.len();
        if self.budget == 0 || charge > self.budget {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let evicted = inner.insert(Arc::new(key), (bytes, params), charge, self.budget);
        let resident = inner.charged;
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if puppies_obs::enabled() {
                puppies_obs::counter_add("psp.cache.eviction", evicted);
            }
        }
        if puppies_obs::enabled() {
            puppies_obs::gauge_set("psp.cache.bytes", resident as i64);
        }
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.charged,
            capacity_bytes: self.budget,
        }
    }
}

/// Entry-bounded LRU of decoded coefficient images, keyed by the SHA-256
/// of the bitstream. Bounded by count rather than bytes: decoded images
/// are a small fixed population of hot photos, and an `Arc` clone out of
/// the memo is what the transform pipeline works from.
pub struct DecodeMemo {
    capacity: usize,
    inner: Mutex<Lru<[u8; 32], Arc<CoeffImage>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for DecodeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeMemo")
            .field("capacity", &self.capacity)
            .field(
                "entries",
                &self
                    .inner
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .map
                    .len(),
            )
            .finish()
    }
}

impl DecodeMemo {
    /// Creates a memo holding at most `capacity` decoded images; 0
    /// disables it.
    pub fn new(capacity: usize) -> Self {
        DecodeMemo {
            capacity,
            inner: Mutex::new(Lru::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up the decoded image of the bitstream with this SHA-256.
    pub fn get(&self, bytes_sha: &[u8; 32]) -> Option<Arc<CoeffImage>> {
        if self.capacity == 0 {
            return None;
        }
        let hit = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(bytes_sha);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            puppies_obs::counted!("psp.memo.hit");
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            puppies_obs::counted!("psp.memo.miss");
        }
        hit
    }

    /// Inserts a decoded image, evicting the least-recently-used one past
    /// capacity.
    pub fn insert(&self, bytes_sha: [u8; 32], img: Arc<CoeffImage>) {
        if self.capacity > 0 {
            self.inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(bytes_sha, img, 1, self.capacity);
        }
    }

    /// Drops the entry for a bitstream (used when the store lets go of
    /// its last copy, so the decode does not linger until eviction).
    pub fn invalidate(&self, bytes_sha: &[u8; 32]) {
        if self.capacity > 0 {
            self.inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(bytes_sha);
        }
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize, fill: u8) -> Arc<[u8]> {
        vec![fill; n].into()
    }

    fn key(n: u8) -> TransformKey {
        let content = ContentId {
            bytes_sha: [n; 32],
            params_sha: [0; 32],
        };
        (content, vec![0x03])
    }

    #[test]
    fn hit_returns_inserted_payload() {
        let cache = TransformCache::new(1024);
        cache.insert(key(7), blob(10, 1), blob(4, 2));
        let (b, p) = cache.get(&key(7)).expect("hit");
        assert_eq!(b.as_ref(), &[1u8; 10][..]);
        assert_eq!(p.as_ref(), &[2u8; 4][..]);
        assert!(cache.get(&key(8)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 14));
    }

    #[test]
    fn keys_compare_whole() {
        let cache = TransformCache::new(1024);
        cache.insert(key(7), blob(4, 1), blob(0, 0));
        // Same content, another transformation; same bitstream, other
        // params: both are different keys.
        let (content, _) = key(7);
        assert!(cache.get(&(content, vec![0x04])).is_none());
        let other_params = ContentId {
            params_sha: [1; 32],
            ..content
        };
        assert!(cache.get(&(other_params, vec![0x03])).is_none());
        assert!(cache.get(&key(7)).is_some());
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        let cache = TransformCache::new(30);
        cache.insert(key(1), blob(10, 1), blob(0, 0));
        cache.insert(key(2), blob(10, 2), blob(0, 0));
        cache.insert(key(3), blob(10, 3), blob(0, 0));
        // Touch 1 so 2 becomes the LRU, then overflow.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(4), blob(10, 4), blob(0, 0));
        assert!(cache.get(&key(2)).is_none(), "LRU entry should be evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert!(cache.get(&key(4)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 30);
    }

    #[test]
    fn oversized_value_is_dropped_not_cached() {
        let cache = TransformCache::new(16);
        cache.insert(key(1), blob(8, 1), blob(0, 0));
        cache.insert(key(2), blob(100, 2), blob(0, 0));
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some(), "resident entries survive");
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn reinsert_same_key_updates_accounting() {
        let cache = TransformCache::new(100);
        cache.insert(key(1), blob(40, 1), blob(0, 0));
        cache.insert(key(1), blob(20, 2), blob(0, 0));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (1, 20));
        assert_eq!(cache.get(&key(1)).unwrap().0.as_ref(), &[2u8; 20][..]);
    }

    #[test]
    fn two_level_prefers_exact_then_falls_back_to_family() {
        let cache = TransformCache::new(1024);
        cache.insert(key(100), blob(4, 1), blob(0, 0));
        // Exact hit never consults the family key.
        let (pair, via_family) = cache.get_two_level(&key(100), Some(&key(200))).unwrap();
        assert_eq!(pair.0.as_ref(), &[1u8; 4][..]);
        assert!(!via_family);
        // Exact miss + family resident: level-2 hit.
        let (pair, via_family) = cache.get_two_level(&key(99), Some(&key(100))).unwrap();
        assert_eq!(pair.0.as_ref(), &[1u8; 4][..]);
        assert!(via_family);
        // Family equal to the exact key is not re-probed.
        assert!(cache.get_two_level(&key(99), Some(&key(99))).is_none());
        // No family: plain miss.
        assert!(cache.get_two_level(&key(99), None).is_none());
    }

    #[test]
    fn zero_budget_disables() {
        let cache = TransformCache::new(0);
        cache.insert(key(1), blob(4, 1), blob(0, 0));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn stamp_queue_stays_bounded_under_rehits() {
        let cache = TransformCache::new(1024);
        cache.insert(key(1), blob(8, 1), blob(0, 0));
        for _ in 0..10_000 {
            assert!(cache.get(&key(1)).is_some());
        }
        let order_len = cache.inner.lock().unwrap().order.len();
        assert!(order_len <= 64, "stamp queue grew to {order_len}");
    }

    #[test]
    fn memo_lru_and_invalidate() {
        let img = Arc::new(CoeffImage::from_rgb(
            &puppies_image::RgbImage::filled(8, 8, puppies_image::Rgb::new(1, 2, 3)),
            75,
        ));
        let memo = DecodeMemo::new(2);
        memo.insert([1; 32], img.clone());
        memo.insert([2; 32], img.clone());
        assert!(memo.get(&[1; 32]).is_some());
        memo.insert([3; 32], img.clone());
        assert!(memo.get(&[2; 32]).is_none(), "LRU evicted");
        assert!(memo.get(&[1; 32]).is_some());
        assert!(memo.get(&[3; 32]).is_some());
        memo.invalidate(&[1; 32]);
        assert!(memo.get(&[1; 32]).is_none());
        let (h, m) = memo.counters();
        assert!(h >= 3 && m >= 2);
    }

    /// Runs `take` on a thread that panics while the guard it returns is
    /// alive, which poisons the lock that guard came from.
    fn panic_holding<G>(take: impl FnOnce() -> G + Send) {
        std::thread::scope(|s| {
            let joined = s.spawn(|| {
                let _guard = take();
                panic!("panic while holding the lock");
            });
            assert!(joined.join().is_err());
        });
    }

    #[test]
    fn locks_survive_inner_panic() {
        let cache = TransformCache::new(1024);
        cache.insert(key(1), blob(4, 1), blob(0, 0));
        panic_holding(|| cache.inner.lock());
        assert!(cache.inner.is_poisoned());
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(2), blob(4, 2), blob(0, 0));
        assert!(cache.get(&key(2)).is_some());
        assert_eq!(cache.stats().entries, 2);

        let img = Arc::new(CoeffImage::from_rgb(
            &puppies_image::RgbImage::filled(8, 8, puppies_image::Rgb::new(1, 2, 3)),
            75,
        ));
        let memo = DecodeMemo::new(2);
        memo.insert([1; 32], img.clone());
        panic_holding(|| memo.inner.lock());
        assert!(memo.inner.is_poisoned());
        assert!(memo.get(&[1; 32]).is_some());
        memo.insert([2; 32], img);
        assert!(memo.get(&[2; 32]).is_some());
    }
}

//! Perceptual identity for perturbed JPEGs: the public-data signature
//! extractor and the sublinear near-duplicate index.
//!
//! ROADMAP Open item 4 (after Iida–Kiya's identification of encrypted /
//! double-compressed JPEGs): the PSP should recognize a recompressed copy
//! of a photo it already stores *without decrypting anything*. PuPPIeS
//! leaves two things in the clear that survive recompression:
//!
//! - the DC envelope — per-block average brightness (perturbation keys
//!   touch AC structure; the DC of every block is public), and
//! - every coefficient of blocks outside the private ROIs.
//!
//! [`dc_signature`] takes the per-block luma DC brightness grid — from the
//! DC-only decode of a stream, or [`coeff_signature`] from a decoded
//! image — **replaces every block that intersects a private ROI
//! with the mean of the public blocks**, and feeds the grid to
//! [`puppies_vision::signature::phash64`]. The mask is what makes the
//! privacy argument airtight: two images that differ only inside a
//! private ROI produce bit-identical signatures (the conformance
//! `identity` suite and the attacks-side leakage oracle both pin this),
//! so the signature carries zero information about protected content.
//! Dequantized DC values (`coefficient × quant step`) are what make it
//! survive recompression: requantizing moves each by at most half a step.
//!
//! [`SigIndex`] is the search side: a multi-index Hamming table over the
//! four 16-bit signature bands. A candidate within Hamming distance 3 is
//! *guaranteed* to collide on at least one band (pigeonhole over 4 bands
//! × 64 bits); larger thresholds still find virtually all neighbours
//! because flipped bits rarely spread across all four bands. Each probe
//! touches 4 buckets of expected size `n / 65536`, so lookups stay
//! sublinear in the store size — the property `bench psp --dup` measures
//! at 1k/10k/100k entries.

use crate::store::{ContentId, PhotoId};
use puppies_image::Rect;
use puppies_jpeg::codec::DcGrid;
use puppies_jpeg::CoeffImage;
pub use puppies_vision::signature::hamming;
use puppies_vision::signature::{bands, phash64};
use std::collections::HashMap;

/// Hamming threshold under which two signatures are treated as the same
/// photo (recompressed / re-encoded copies land well under this; distinct
/// photos land far above — see the conformance `identity` suite).
pub const NEAR_DUP_DISTANCE: u32 = 6;

/// Computes the 64-bit perceptual signature of a coefficient image from
/// public data only: the luma DC envelope with every block intersecting a
/// rect in `masked` (the private ROIs) replaced by the mean public
/// brightness. Works on perturbed and plain images alike. Equal to
/// [`dc_signature`] over the image's [`CoeffImage::dc_grid`].
pub fn coeff_signature(coeff: &CoeffImage, masked: &[Rect]) -> u64 {
    dc_signature(&coeff.dc_grid(), masked)
}

/// The signature of [`coeff_signature`] from a luma DC grid alone — what
/// the DC-only decode ([`puppies_jpeg::codec::decode_dc`]) of a stream
/// returns, so the upload and search paths never build the AC blocks.
pub fn dc_signature(grid: &DcGrid, masked: &[Rect]) -> u64 {
    let (bw, bh) = (grid.blocks_w as usize, grid.blocks_h as usize);
    if bw == 0 || bh == 0 {
        return 0;
    }
    let dc_step = f32::from(grid.dc_step);
    let mut brightness: Vec<f32> = grid.dc.iter().map(|&dc| dc as f32 * dc_step).collect();
    let mut mask = vec![false; brightness.len()];
    for r in masked {
        for (bx, by) in grid.blocks_in_region(*r) {
            mask[by as usize * bw + bx as usize] = true;
        }
    }
    let (mut sum, mut n) = (0.0f64, 0u32);
    for (v, m) in brightness.iter().zip(&mask) {
        if !m {
            sum += f64::from(*v);
            n += 1;
        }
    }
    let fill = if n > 0 {
        (sum / f64::from(n)) as f32
    } else {
        0.0
    };
    for (v, m) in brightness.iter_mut().zip(&mask) {
        if *m {
            *v = fill;
        }
    }
    phash64(&brightness, bw, bh)
}

/// One indexed photo: its signature plus the identity facts a match must
/// agree on before the index calls it a near-duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigEntry {
    /// The perceptual signature.
    pub sig: u64,
    /// The photo this entry describes.
    pub id: PhotoId,
    /// The photo's content identity — the transform-cache keyspace this
    /// entry lives in. Near-duplicate matching requires equal
    /// `params_sha`, so the served params are interchangeable.
    pub content: ContentId,
    /// Content identity of the *family root*: the first photo this
    /// signature family resolved to. Duplicates share the root's cached
    /// transform results (see `PspServer::serve_transform`).
    pub family: ContentId,
    /// Pixel dimensions; matching requires equality.
    pub width: u32,
    pub height: u32,
}

/// A near-duplicate match and how far it sits from the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigMatch {
    /// The matched entry.
    pub entry: SigEntry,
    /// Hamming distance from the probe signature.
    pub distance: u32,
}

/// Multi-index Hamming hash table over the 4×16-bit signature bands.
///
/// Insertions are O(1) (one bucket push per band); lookups probe four
/// buckets and verify true Hamming distance on each distinct candidate.
#[derive(Debug, Default)]
pub struct SigIndex {
    entries: Vec<SigEntry>,
    /// Slots of `entries` freed by [`SigIndex::remove`], reused first.
    free: Vec<u32>,
    /// band value → entry slots, one map per band position.
    buckets: [HashMap<u16, Vec<u32>>; 4],
    /// Candidate slots scanned by lookups since construction (the
    /// sublinearity observable `bench psp --dup` reports).
    scanned: u64,
}

impl SigIndex {
    /// An empty index.
    pub fn new() -> SigIndex {
        SigIndex::default()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Whether the index holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidate entries scanned by all lookups so far.
    pub fn scanned(&self) -> u64 {
        self.scanned
    }

    /// Inserts an entry (duplicated `(sig, id)` pairs are the caller's
    /// bug; the index does not check).
    pub fn insert(&mut self, entry: SigEntry) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        for (map, band) in self.buckets.iter_mut().zip(bands(entry.sig)) {
            map.entry(band).or_default().push(slot);
        }
    }

    /// Removes the entry for `(sig, id)`; returns whether it existed.
    /// Used when an in-place transform or WAL replay replaces a photo's
    /// content (its signature changes with it).
    pub fn remove(&mut self, sig: u64, id: PhotoId) -> bool {
        let mut slot_found = None;
        for (map, band) in self.buckets.iter_mut().zip(bands(sig)) {
            if let Some(bucket) = map.get_mut(&band) {
                if let Some(pos) = bucket.iter().position(|&s| {
                    let e = &self.entries[s as usize];
                    e.sig == sig && e.id == id
                }) {
                    slot_found = Some(bucket.swap_remove(pos));
                }
                if bucket.is_empty() {
                    map.remove(&band);
                }
            }
        }
        match slot_found {
            Some(slot) => {
                self.free.push(slot);
                true
            }
            None => false,
        }
    }

    /// All live entries within `max_dist` of `sig`, sorted by
    /// `(distance, photo id)`. Probes one bucket per band and verifies
    /// the real Hamming distance on every distinct candidate.
    pub fn lookup(&mut self, sig: u64, max_dist: u32) -> Vec<SigMatch> {
        let mut candidates: Vec<u32> = Vec::new();
        for (map, band) in self.buckets.iter().zip(bands(sig)) {
            if let Some(bucket) = map.get(&band) {
                candidates.extend_from_slice(bucket);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        self.scanned += candidates.len() as u64;
        let mut out: Vec<SigMatch> = candidates
            .into_iter()
            .filter_map(|slot| {
                let entry = self.entries[slot as usize];
                let distance = hamming(entry.sig, sig);
                (distance <= max_dist).then_some(SigMatch { entry, distance })
            })
            .collect();
        out.sort_by_key(|m| (m.distance, m.entry.id.0));
        out
    }

    /// The family a new photo with `(sig, params_sha, width, height)`
    /// belongs to: the best-matching compatible entry within
    /// [`NEAR_DUP_DISTANCE`], or `None` when the photo starts a new
    /// family. Compatibility (equal params and dimensions) is what lets
    /// the transform cache serve the family root's results verbatim.
    pub fn family_of(
        &mut self,
        sig: u64,
        params_sha: &[u8; 32],
        width: u32,
        height: u32,
    ) -> Option<SigEntry> {
        self.lookup(sig, NEAR_DUP_DISTANCE)
            .into_iter()
            .map(|m| m.entry)
            .find(|e| e.content.params_sha == *params_sha && e.width == width && e.height == height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_image::{Rgb, RgbImage};

    fn entry(sig: u64, id: u64) -> SigEntry {
        let mut bytes_sha = [0; 32];
        bytes_sha[..8].copy_from_slice(&id.to_le_bytes());
        let content = ContentId {
            bytes_sha,
            params_sha: [7; 32],
        };
        SigEntry {
            sig,
            id: PhotoId(id),
            content,
            family: content,
            width: 96,
            height: 72,
        }
    }

    fn textured(seed: u8) -> RgbImage {
        RgbImage::from_fn(96, 72, |x, y| {
            Rgb::new(
                seed.wrapping_add((x * 5 + y * 3) as u8),
                ((x + 2 * y) % 240) as u8,
                seed ^ (y as u8).wrapping_mul(7),
            )
        })
    }

    #[test]
    fn signature_survives_requantization() {
        let img = textured(1);
        let coeff = CoeffImage::from_rgb(&img, 75);
        let sig = coeff_signature(&coeff, &[]);
        for q in [25u8, 50, 90] {
            let mut re = coeff.clone();
            re.requantize(q);
            let d = hamming(sig, coeff_signature(&re, &[]));
            assert!(d <= NEAR_DUP_DISTANCE, "q{q} moved the signature {d} bits");
        }
    }

    #[test]
    fn masked_blocks_do_not_reach_the_signature() {
        let roi = Rect::new(24, 16, 32, 32);
        let a = CoeffImage::from_rgb(&textured(1), 75);
        // Same picture with the ROI interior scribbled over.
        let scribbled = RgbImage::from_fn(96, 72, |x, y| {
            if roi.contains(x, y) {
                Rgb::new((x * 31) as u8, 0, (y * 17) as u8)
            } else {
                textured(1).get(x, y)
            }
        });
        let b = CoeffImage::from_rgb(&scribbled, 75);
        assert_eq!(
            coeff_signature(&a, &[roi]),
            coeff_signature(&b, &[roi]),
            "ROI content leaked into the signature"
        );
        // Without the mask the scribble is visible.
        assert_ne!(coeff_signature(&a, &[]), coeff_signature(&b, &[]));
    }

    #[test]
    fn distinct_images_are_far_apart() {
        let a = coeff_signature(&CoeffImage::from_rgb(&textured(1), 75), &[]);
        let b = coeff_signature(&CoeffImage::from_rgb(&textured(200), 75), &[]);
        assert!(hamming(a, b) > NEAR_DUP_DISTANCE);
    }

    #[test]
    fn index_finds_near_matches_and_misses_far_ones() {
        let mut idx = SigIndex::new();
        let base = 0xDEAD_BEEF_CAFE_F00Du64;
        idx.insert(entry(base, 1));
        idx.insert(entry(base ^ 0b1011, 2)); // distance 3
        idx.insert(entry(!base, 3)); // distance 64
        let hits = idx.lookup(base, NEAR_DUP_DISTANCE);
        let ids: Vec<u64> = hits.iter().map(|m| m.entry.id.0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(hits[0].distance, 0);
        assert_eq!(hits[1].distance, 3);
    }

    #[test]
    fn distance_three_always_collides_on_a_band() {
        // Pigeonhole guarantee: ≤3 flipped bits cannot touch all 4 bands.
        let mut idx = SigIndex::new();
        let base = 0x0123_4567_89AB_CDEFu64;
        idx.insert(entry(base, 1));
        for bits in [0u64, 1 << 0, 1 << 0 | 1 << 17, 1 << 0 | 1 << 17 | 1 << 34] {
            assert_eq!(idx.lookup(base ^ bits, 3).len(), 1, "bits {bits:#x}");
        }
    }

    #[test]
    fn remove_frees_and_reuses_slots() {
        let mut idx = SigIndex::new();
        idx.insert(entry(10, 1));
        idx.insert(entry(20, 2));
        assert_eq!(idx.len(), 2);
        assert!(idx.remove(10, PhotoId(1)));
        assert!(!idx.remove(10, PhotoId(1)));
        assert_eq!(idx.len(), 1);
        assert!(idx.lookup(10, 0).is_empty());
        idx.insert(entry(30, 3));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.lookup(30, 0).len(), 1);
    }

    #[test]
    fn family_requires_compatible_identity() {
        let mut idx = SigIndex::new();
        idx.insert(entry(100, 1));
        assert!(idx.family_of(100, &[7; 32], 96, 72).is_some());
        assert!(
            idx.family_of(100, &[8; 32], 96, 72).is_none(),
            "params differ"
        );
        assert!(
            idx.family_of(100, &[7; 32], 96, 80).is_none(),
            "size differs"
        );
        assert!(
            idx.family_of(!100, &[7; 32], 96, 72).is_none(),
            "signature far"
        );
    }

    #[test]
    fn lookups_scan_sublinearly() {
        let mut idx = SigIndex::new();
        // Pseudo-random signatures: xorshift64*.
        let mut s = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for i in 0..20_000u64 {
            idx.insert(entry(next(), i));
        }
        let before = idx.scanned();
        for _ in 0..100 {
            let _ = idx.lookup(next(), NEAR_DUP_DISTANCE);
        }
        let per_query = (idx.scanned() - before) as f64 / 100.0;
        // Expected bucket size is 20000/65536 < 1 per band; allow slack.
        assert!(per_query < 40.0, "scanned {per_query} candidates/query");
    }
}

//! Owner key material and deterministic private-matrix derivation.
//!
//! The paper stores "the perturbation matrix as the private information on
//! owners' devices" and distributes it over a secure channel (§III-C.4,
//! assumption: key distribution uses standard crypto). Storing raw 8×8
//! matrices per ROI is what Fig. 11 sizes; to keep the owner's footprint
//! minimal we *derive* every matrix from one 256-bit owner seed with a
//! ChaCha-based KDF, and grant receivers either derived matrices (matrix
//! granularity, per-ROI sharing) or nothing.

use crate::matrix::PrivateMatrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::collections::HashMap;

/// Identifies one private matrix: which image, which ROI, and which of the
/// DC/AC pair (§IV-D uses separate `P_DC`/`P_AC` in practice — so do we).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixId {
    /// Image identifier chosen by the sender (e.g. a hash or counter).
    pub image: u64,
    /// Index of the ROI within the image's ROI plan.
    pub roi: u16,
    /// Which matrix of the pair.
    pub kind: MatrixKind,
    /// Which color component the matrix perturbs (0 = Y, 1 = Cb, 2 = Cr).
    pub component: u8,
}

/// Whether a matrix perturbs DC or AC coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixKind {
    /// Perturbs DC coefficients (rotating through the 64 entries).
    Dc,
    /// Perturbs AC coefficients (entry `i` for coefficient `i`).
    Ac,
}

/// The sender's root secret. Everything else — every per-ROI,
/// per-component matrix — derives deterministically from it.
#[derive(Clone)]
pub struct OwnerKey {
    seed: [u8; 32],
}

impl std::fmt::Debug for OwnerKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("OwnerKey")
            .field("seed", &"<redacted>")
            .finish()
    }
}

impl OwnerKey {
    /// Creates a key from an explicit 256-bit seed (tests, replay).
    pub fn from_seed(seed: [u8; 32]) -> Self {
        OwnerKey { seed }
    }

    /// Draws a fresh random key from `rng`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        OwnerKey { seed }
    }

    /// Derives the private matrix for `id`. Deterministic: the same owner
    /// key and id always produce the same matrix, so the owner only ever
    /// stores 32 bytes.
    pub fn derive(&self, id: MatrixId) -> PrivateMatrix {
        let mut seed = self.seed;
        // Mix the id into the seed (a simple domain-separated KDF; the
        // secure channel itself is out of the paper's scope).
        let kind_tag: u8 = match id.kind {
            MatrixKind::Dc => 0xD0,
            MatrixKind::Ac => 0xAC,
        };
        let mix = [
            id.image.to_le_bytes().as_slice(),
            id.roi.to_le_bytes().as_slice(),
            &[kind_tag, id.component],
        ]
        .concat();
        for (i, b) in mix.iter().enumerate() {
            seed[i % 32] ^= b.rotate_left((i % 7) as u32);
            seed[(i * 13 + 5) % 32] = seed[(i * 13 + 5) % 32].wrapping_add(*b);
        }
        let mut rng = ChaCha20Rng::from_seed(seed);
        // Discard a block to decorrelate from the raw seed mix.
        let _: u64 = rng.gen();
        PrivateMatrix::random(&mut rng)
    }

    /// A grant containing every matrix for image 0..=u16::MAX — i.e. the
    /// owner's own view. Matrices are derived lazily, so this is cheap.
    pub fn grant_all(&self) -> KeyGrant {
        KeyGrant {
            matrices: HashMap::new(),
            owner: Some(self.clone()),
        }
    }

    /// A grant for specific ROIs of a specific image: the matrices Alice
    /// hands to Bob over the secure channel.
    pub fn grant_rois(&self, image: u64, rois: &[u16]) -> KeyGrant {
        let mut matrices = HashMap::new();
        for &roi in rois {
            for component in 0..3u8 {
                for kind in [MatrixKind::Dc, MatrixKind::Ac] {
                    let id = MatrixId {
                        image,
                        roi,
                        kind,
                        component,
                    };
                    matrices.insert(id, self.derive(id));
                }
            }
        }
        KeyGrant {
            matrices,
            owner: None,
        }
    }
}

/// The key material a receiver holds: either explicit matrices for the
/// regions shared with them, or (for the owner) the root key itself.
///
/// The size of the explicit form is what Fig. 11 plots against P3's
/// whole-image private part.
#[derive(Debug, Clone)]
pub struct KeyGrant {
    matrices: HashMap<MatrixId, PrivateMatrix>,
    owner: Option<OwnerKey>,
}

impl KeyGrant {
    /// An empty grant (a receiver with no shared regions).
    pub fn empty() -> Self {
        KeyGrant {
            matrices: HashMap::new(),
            owner: None,
        }
    }

    /// Looks up (or derives, for the owner) the matrix for `id`.
    pub fn matrix(&self, id: MatrixId) -> Option<PrivateMatrix> {
        if let Some(m) = self.matrices.get(&id) {
            return Some(m.clone());
        }
        self.owner.as_ref().map(|k| k.derive(id))
    }

    /// Whether the grant covers ROI `roi` of `image` (all components, both
    /// kinds).
    pub fn covers(&self, image: u64, roi: u16) -> bool {
        if self.owner.is_some() {
            return true;
        }
        (0..3u8).all(|component| {
            [MatrixKind::Dc, MatrixKind::Ac].iter().all(|&kind| {
                self.matrices.contains_key(&MatrixId {
                    image,
                    roi,
                    kind,
                    component,
                })
            })
        })
    }

    /// Number of explicit matrices held (the local storage Fig. 11
    /// measures; 11 bits per entry, 64 entries per matrix).
    pub fn explicit_matrix_count(&self) -> usize {
        self.matrices.len()
    }

    /// Size in bytes of the explicit private part: each matrix entry is an
    /// 11-bit number (§VI-A), so a matrix costs `ceil(64 × 11 / 8)` = 88
    /// bytes.
    pub fn private_part_bytes(&self) -> usize {
        self.explicit_matrix_count() * (64usize * 11).div_ceil(8)
    }

    /// Exports the explicit matrices for transport over a secure channel.
    /// The owner root key (if any) is never exported.
    pub fn to_entries(&self) -> Vec<(MatrixId, PrivateMatrix)> {
        let mut v: Vec<_> = self
            .matrices
            .iter()
            .map(|(id, m)| (*id, m.clone()))
            .collect();
        v.sort_by_key(|(id, _)| {
            (
                id.image,
                id.roi,
                id.component,
                matches!(id.kind, MatrixKind::Ac),
            )
        });
        v
    }

    /// Rebuilds a grant from transported entries.
    pub fn from_entries(entries: Vec<(MatrixId, PrivateMatrix)>) -> KeyGrant {
        KeyGrant {
            matrices: entries.into_iter().collect(),
            owner: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn id(roi: u16, kind: MatrixKind, component: u8) -> MatrixId {
        MatrixId {
            image: 42,
            roi,
            kind,
            component,
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        let k = OwnerKey::from_seed([3u8; 32]);
        let a = k.derive(id(0, MatrixKind::Dc, 0));
        let b = k.derive(id(0, MatrixKind::Dc, 0));
        assert_eq!(a, b);
    }

    #[test]
    fn different_ids_give_different_matrices() {
        let k = OwnerKey::from_seed([3u8; 32]);
        let base = k.derive(id(0, MatrixKind::Dc, 0));
        assert_ne!(base, k.derive(id(1, MatrixKind::Dc, 0)), "roi");
        assert_ne!(base, k.derive(id(0, MatrixKind::Ac, 0)), "kind");
        assert_ne!(base, k.derive(id(0, MatrixKind::Dc, 1)), "component");
        let k2 = OwnerKey::from_seed([4u8; 32]);
        assert_ne!(base, k2.derive(id(0, MatrixKind::Dc, 0)), "owner");
    }

    #[test]
    fn grant_all_covers_everything() {
        let k = OwnerKey::from_seed([9u8; 32]);
        let g = k.grant_all();
        assert!(g.covers(7, 3));
        assert!(g.matrix(id(5, MatrixKind::Ac, 2)).is_some());
        assert_eq!(g.explicit_matrix_count(), 0);
    }

    #[test]
    fn grant_rois_is_scoped() {
        let k = OwnerKey::from_seed([9u8; 32]);
        let g = k.grant_rois(42, &[1]);
        assert!(g.covers(42, 1));
        assert!(!g.covers(42, 0));
        assert!(g.matrix(id(0, MatrixKind::Dc, 0)).is_none());
        // Granted matrices equal owner-derived ones.
        assert_eq!(
            g.matrix(id(1, MatrixKind::Dc, 0)),
            Some(k.derive(id(1, MatrixKind::Dc, 0)))
        );
        // 1 ROI × 3 components × 2 kinds.
        assert_eq!(g.explicit_matrix_count(), 6);
        assert_eq!(g.private_part_bytes(), 6 * 88);
    }

    #[test]
    fn empty_grant_covers_nothing() {
        let g = KeyGrant::empty();
        assert!(!g.covers(0, 0));
        assert!(g.matrix(id(0, MatrixKind::Dc, 0)).is_none());
    }

    #[test]
    fn generated_keys_differ() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let a = OwnerKey::generate(&mut rng);
        let b = OwnerKey::generate(&mut rng);
        let i = id(0, MatrixKind::Dc, 0);
        assert_ne!(a.derive(i), b.derive(i));
    }

    #[test]
    fn debug_does_not_leak_seed() {
        let k = OwnerKey::from_seed([0xAB; 32]);
        let s = format!("{k:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains("171")); // 0xAB
    }
}

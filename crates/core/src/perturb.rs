//! The four perturbation schemes of §IV-B and their exact inverses.
//!
//! | Scheme | Paper name | DC treatment | AC treatment |
//! |---|---|---|---|
//! | [`Scheme::Naive`] | PuPPIeS-N | one shared value `p'₀` | full-range `p'ᵢ` |
//! | [`Scheme::Base`] | PuPPIeS-B | rotating `p'₍ₖ mod 64₎` | full-range `p'ᵢ` |
//! | [`Scheme::Compression`] | PuPPIeS-C (Alg. 1) | rotating | range-limited `p'ᵢ mod Q'ᵢ` |
//! | [`Scheme::Zero`] | PuPPIeS-Z (Alg. 2) | rotating | range-limited, zeros skipped, new zeros recorded in `ZInd` |
//!
//! All additions wrap in the coefficient ring (Lemma III.1 /
//! [`crate::matrix::wrap_dc`], [`crate::matrix::wrap_ac`]), so recovery is
//! bit-exact given the private matrices.
//!
//! # Extensions beyond the paper
//!
//! - **Wrap index (`WInd`).** The sender records which coefficients
//!   wrapped around the ring during perturbation. Scenario-1 recovery
//!   never needs this (the modular inverse handles wraps), but the
//!   shadow-ROI reconstruction after *pixel-domain* PSP transformations
//!   (§IV-C.1) implicitly assumes perturbation is linear — which wraps
//!   break. With `WInd` the receiver builds a shadow equal to the exact
//!   additive delta `e − b`, restoring the linearity the paper's argument
//!   requires. Like `ZInd`, `WInd` is public; an entry reveals only that
//!   a coefficient was near the ring boundary for the (secret) matrix.
//! - **Bounded DC range.** [`PerturbProfile::dc_range`] limits DC
//!   perturbation to `[0, dc_range)`. The default 2048 matches the paper;
//!   the transform-friendly profile uses a small range so that perturbed
//!   pixels rarely clamp at the PSP, keeping shadow reconstruction
//!   near-exact (see `crate::shadow` for the full fidelity discussion).

use crate::keys::{KeyGrant, MatrixId, MatrixKind};
use crate::matrix::{wrap_dc, PrivateMatrix, RangeMatrix, MATRIX_LEN};
use crate::privacy::PrivacyLevel;
use crate::{PuppiesError, Result};
use puppies_image::Rect;
use puppies_jpeg::{Block, CoeffImage, AC_MAX, AC_MIN, AC_MODULUS, COEFF_MAX, COEFF_MODULUS};
use puppies_transform::BlockOrientation;
/// Which PuPPIeS perturbation variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// PuPPIeS-N: every block's DC secured by the same single value. Kept
    /// for the ablation — §IV-B.1 shows it falls to brute force on DC.
    Naive,
    /// PuPPIeS-B: DC rotated through the private vector; AC full range.
    /// Robust but ~10× file-size blow-up (Table II).
    Base,
    /// PuPPIeS-C (Algorithm 1): range-limited AC perturbation so optimized
    /// Huffman tables stay efficient.
    Compression,
    /// PuPPIeS-Z (Algorithm 2): like C but skips already-zero AC
    /// coefficients, recording coefficients that *become* zero in `ZInd`.
    /// The smallest perturbed images; the default.
    #[default]
    Zero,
}

impl Scheme {
    /// Short name used in experiment tables (matches the paper's labels).
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Naive => "PuPPIeS-N",
            Scheme::Base => "PuPPIeS-B",
            Scheme::Compression => "PuPPIeS-C",
            Scheme::Zero => "PuPPIeS-Z",
        }
    }
}

/// How the AC perturbation ranges are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeSpec {
    /// The paper's Algorithm 3 with parameters `(mR, K)`.
    Algorithm3 {
        /// Minimum range for the highest perturbed frequency.
        m_r: u16,
        /// Number of perturbed coefficients.
        k: u8,
    },
    /// Flat ranges (transform-friendly extension; see module docs).
    Flat {
        /// Range applied to the first `k` zigzag slots.
        range: u16,
        /// Number of perturbed coefficients.
        k: u8,
    },
}

impl RangeSpec {
    /// Materializes the range matrix.
    pub fn range_matrix(self) -> RangeMatrix {
        match self {
            RangeSpec::Algorithm3 { m_r, k } => RangeMatrix::generate(m_r, k),
            RangeSpec::Flat { range, k } => RangeMatrix::flat(range, k),
        }
    }

    /// The `(mR, K)`-style parameters for display.
    pub fn parameters(self) -> (u16, u8) {
        match self {
            RangeSpec::Algorithm3 { m_r, k } => (m_r, k),
            RangeSpec::Flat { range, k } => (range, k),
        }
    }
}

impl From<PrivacyLevel> for RangeSpec {
    fn from(level: PrivacyLevel) -> Self {
        let (m_r, k) = level.parameters();
        RangeSpec::Algorithm3 { m_r, k }
    }
}

/// Everything that determines how a region is perturbed (besides the
/// secret matrices): scheme, AC ranges and DC range. All fields are
/// public parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerturbProfile {
    /// Perturbation variant.
    pub scheme: Scheme,
    /// AC range generation.
    pub range: RangeSpec,
    /// Exclusive bound on DC perturbation values (2..=2048; 2048 is the
    /// paper's full-range behaviour).
    pub dc_range: u16,
}

impl PerturbProfile {
    /// The paper's configuration: `scheme` at privacy `level`, full-range
    /// DC.
    pub fn paper(scheme: Scheme, level: PrivacyLevel) -> Self {
        PerturbProfile {
            scheme,
            range: level.into(),
            dc_range: 2048,
        }
    }

    /// The transform-friendly profile: bounded perturbation so PSP-side
    /// pixel transformations (scaling, filtering) recover well via shadow
    /// subtraction — perturbed pixels stay mostly inside the 8-bit gamut,
    /// so the PSP's decode clamps almost nothing. Still clears NIST's
    /// 256-bit bar: 64·log₂16 (DC) + 6·log₂16 (AC) = 280 secure bits.
    pub fn transform_friendly() -> Self {
        PerturbProfile {
            scheme: Scheme::Compression,
            range: RangeSpec::Flat { range: 16, k: 6 },
            dc_range: 16,
        }
    }

    /// The materialized AC range matrix.
    pub fn range_matrix(&self) -> RangeMatrix {
        self.range.range_matrix()
    }
}

impl Default for PerturbProfile {
    fn default() -> Self {
        PerturbProfile::paper(Scheme::Zero, PrivacyLevel::Medium)
    }
}

/// One entry of the new-zero index `ZInd` or the wrap index `WInd`
/// (§IV-B.4: 2 bits layer + 16 bits block index + 6 bits entry index = 28
/// bits as stored in public parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZeroEntry {
    /// Color component (0 = Y, 1 = Cb, 2 = Cr).
    pub component: u8,
    /// Sequence index `k` of the block within the ROI (row-major).
    pub block: u32,
    /// Natural-order coefficient index within the block (0 for DC in
    /// `WInd`; 1..=63 in `ZInd`).
    pub coeff: u8,
}

/// A sparse per-coefficient index: `ZInd` (new zeros) or `WInd` (ring
/// wraps).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ZeroIndex {
    entries: Vec<ZeroEntry>,
}

impl ZeroIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index from explicit entries (wire decoding).
    pub fn from_entries(entries: Vec<ZeroEntry>) -> Self {
        ZeroIndex { entries }
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[ZeroEntry] {
        &self.entries
    }

    /// Appends an entry.
    pub fn push(&mut self, e: ZeroEntry) {
        self.entries.push(e);
    }

    /// Whether `(component, block, coeff)` is recorded.
    pub fn contains(&self, component: u8, block: u32, coeff: u8) -> bool {
        self.entries
            .iter()
            .any(|e| e.component == component && e.block == block && e.coeff == coeff)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Size in bits when stored as public parameters (28 bits per entry,
    /// §IV-B.4).
    pub fn encoded_bits(&self) -> usize {
        self.entries.len() * 28
    }

    /// Per-block coefficient masks of one component: bit `i` of entry `k`
    /// is set when `(component, k, i)` is recorded. Entries outside the
    /// first `nblocks` blocks or the 64 coefficients are ignored.
    pub(crate) fn block_masks(&self, component: u8, nblocks: usize) -> Vec<u64> {
        let mut masks = vec![0u64; nblocks];
        for e in &self.entries {
            if e.component == component && (e.block as usize) < nblocks && e.coeff < 64 {
                masks[e.block as usize] |= 1 << e.coeff;
            }
        }
        masks
    }

    /// A hash set of `(component, block, coeff)` for O(1) recovery lookups.
    pub fn to_set(&self) -> std::collections::HashSet<(u8, u32, u8)> {
        self.entries
            .iter()
            .map(|e| (e.component, e.block, e.coeff))
            .collect()
    }
}

/// Everything the sender learns while perturbing one ROI: the new-zero
/// index and the wrap index. Both are public parameters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PerturbRecord {
    /// New zeros (PuPPIeS-Z bookkeeping).
    pub zind: ZeroIndex,
    /// Ring wraps (shadow-ROI bookkeeping; extension, see module docs).
    pub wind: ZeroIndex,
}

/// The private matrices used for one ROI of one component.
#[derive(Debug, Clone)]
pub struct RoiKeys {
    /// DC matrix (rotating across blocks).
    pub dc: PrivateMatrix,
    /// AC matrix (entry `i` perturbs coefficient `i`).
    pub ac: PrivateMatrix,
}

impl RoiKeys {
    /// Looks up both matrices for `(image, roi, component)` in a grant.
    ///
    /// # Errors
    /// Returns [`PuppiesError::MissingKey`] if either matrix is absent.
    pub fn from_grant(grant: &KeyGrant, image: u64, roi: u16, component: u8) -> Result<RoiKeys> {
        let dc_id = MatrixId {
            image,
            roi,
            kind: MatrixKind::Dc,
            component,
        };
        let ac_id = MatrixId {
            image,
            roi,
            kind: MatrixKind::Ac,
            component,
        };
        let dc = grant
            .matrix(dc_id)
            .ok_or(PuppiesError::MissingKey { matrix: dc_id })?;
        let ac = grant
            .matrix(ac_id)
            .ok_or(PuppiesError::MissingKey { matrix: ac_id })?;
        Ok(RoiKeys { dc, ac })
    }
}

/// The DC perturbation value for block sequence index `k`.
#[inline]
pub fn dc_perturbation(profile: &PerturbProfile, keys: &RoiKeys, k: u32) -> i32 {
    let raw = match profile.scheme {
        Scheme::Naive => keys.dc.get(0),
        _ => keys.dc.get((k % 64) as usize),
    };
    let range = (profile.dc_range.clamp(1, 2048)) as i32;
    raw % range
}

/// The AC perturbation value for natural-order coefficient `i` (ignoring
/// Zero's skip rule, which depends on the data).
#[inline]
pub fn ac_perturbation(profile: &PerturbProfile, keys: &RoiKeys, q: &RangeMatrix, i: usize) -> i32 {
    match profile.scheme {
        Scheme::Naive | Scheme::Base => keys.ac.get(i) % AC_MODULUS,
        Scheme::Compression | Scheme::Zero => keys.ac.ac_perturbation(i, q),
    }
}

/// The per-block AC perturbation vector in natural order. It depends only
/// on `(profile, keys, q)` — not on block data — so it is hoisted out of the
/// block loop and applied with integer lanes. Slot 0 is zero so the DC lane
/// passes through the vector pass untouched (DC wraps mod 2048, handled
/// scalar per block).
pub(crate) fn ac_perturbation_vector(
    profile: &PerturbProfile,
    keys: &RoiKeys,
    q: &RangeMatrix,
) -> [i32; MATRIX_LEN] {
    let mut pvec = [0i32; MATRIX_LEN];
    for (i, slot) in pvec.iter_mut().enumerate().skip(1) {
        *slot = ac_perturbation(profile, keys, q, i);
    }
    pvec
}

/// The exact additive deltas `e − b` (in quantized units, possibly
/// outside the ring) the perturbation applied to block `k`: the DC delta
/// for `k`, the AC vector from [`ac_perturbation_vector`], and one modulus
/// off every coefficient whose bit is set in `wraps` (the block's `WInd`
/// mask, see [`ZeroIndex::block_masks`]). This is what the shadow-ROI
/// generator needs (see [`crate::shadow`]).
pub(crate) fn block_delta(
    profile: &PerturbProfile,
    keys: &RoiKeys,
    pvec: &[i32; MATRIX_LEN],
    k: u32,
    wraps: u64,
) -> [i32; MATRIX_LEN] {
    let mut delta = *pvec;
    delta[0] = dc_perturbation(profile, keys, k);
    let mut bits = wraps;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        delta[i] -= if i == 0 { COEFF_MODULUS } else { AC_MODULUS };
        bits &= bits - 1;
    }
    delta
}

/// AC lane pass of [`perturb_component`] over one block.
///
/// Per lane, exactly the scalar loop: `active` lanes (nonzero perturbation,
/// and under `skip_zeros` also a nonzero coefficient) get
/// `wrap_ac(coeff + p)`; others pass through. Since `p` is in `[0, 2046]`
/// and coefficients in `[-1023, 1023]`, the wrap is a single masked
/// subtract of `AC_MODULUS`, and its mask is exactly the ring-overflow
/// (`WInd`) condition. `wind`/`zind` get one bit per natural coefficient
/// index needing a [`ZeroEntry`]. (`inline(always)`: must fuse into the
/// `#[target_feature]` dispatch wrapper or the intrinsics inside cannot
/// be inlined.)
#[inline(always)]
unsafe fn perturb_block_kernel<S: puppies_image::simd::Simd8>(
    block: &mut [i32; MATRIX_LEN],
    pvec: &[i32; MATRIX_LEN],
    skip_zeros: bool,
    wind: &mut u64,
    zind: &mut u64,
) {
    unsafe {
        let groups = &mut *(block.as_mut_ptr() as *mut [[i32; 8]; 8]);
        let pgroups = &*(pvec.as_ptr() as *const [[i32; 8]; 8]);
        let zero = S::i_splat(0);
        let ones = S::i_splat(-1);
        let ac_max = S::i_splat(AC_MAX);
        let ac_mod = S::i_splat(AC_MODULUS);
        let (mut wbits, mut zbits) = (0u64, 0u64);
        for g in 0..8 {
            let coeff = S::i_load(&groups[g]);
            let p = S::i_load(&pgroups[g]);
            let mut active = S::i_andnot(S::i_cmp_eq(p, zero), ones);
            if skip_zeros {
                active = S::i_andnot(S::i_cmp_eq(coeff, zero), active);
            }
            let raw = S::i_add(coeff, p);
            let over = S::i_cmp_gt(raw, ac_max);
            let wrapped = S::i_sub(raw, S::i_and(over, ac_mod));
            let out = S::i_or(S::i_and(active, wrapped), S::i_andnot(active, coeff));
            S::i_store(out, &mut groups[g]);
            wbits |= u64::from(S::i_nonzero_mask(S::i_and(active, over))) << (8 * g);
            if skip_zeros {
                let zeroed = S::i_and(active, S::i_cmp_eq(wrapped, zero));
                zbits |= u64::from(S::i_nonzero_mask(zeroed)) << (8 * g);
            }
        }
        *wind = wbits;
        *zind = zbits;
    }
}

/// AC lane pass of [`recover_component`] over one block: the exact inverse
/// of [`perturb_block_kernel`]. `force` is an all-ones lane mask of `ZInd`
/// coefficients (wrapped to zero during perturbation, so they must be
/// un-wrapped even though they read as zero now).
#[inline(always)]
unsafe fn recover_block_kernel<S: puppies_image::simd::Simd8>(
    block: &mut [i32; MATRIX_LEN],
    pvec: &[i32; MATRIX_LEN],
    force: &[i32; MATRIX_LEN],
    skip_zeros: bool,
) {
    unsafe {
        let groups = &mut *(block.as_mut_ptr() as *mut [[i32; 8]; 8]);
        let pgroups = &*(pvec.as_ptr() as *const [[i32; 8]; 8]);
        let fgroups = &*(force.as_ptr() as *const [[i32; 8]; 8]);
        let zero = S::i_splat(0);
        let ones = S::i_splat(-1);
        let ac_min = S::i_splat(AC_MIN);
        let ac_mod = S::i_splat(AC_MODULUS);
        for g in 0..8 {
            let coeff = S::i_load(&groups[g]);
            let p = S::i_load(&pgroups[g]);
            let mut active = S::i_andnot(S::i_cmp_eq(p, zero), ones);
            if skip_zeros {
                let touched = S::i_or(
                    S::i_andnot(S::i_cmp_eq(coeff, zero), ones),
                    S::i_load(&fgroups[g]),
                );
                active = S::i_and(active, touched);
            }
            let raw = S::i_sub(coeff, p);
            let under = S::i_cmp_gt(ac_min, raw);
            let wrapped = S::i_add(raw, S::i_and(under, ac_mod));
            let out = S::i_or(S::i_and(active, wrapped), S::i_andnot(active, coeff));
            S::i_store(out, &mut groups[g]);
        }
    }
}

puppies_image::simd_dispatch! {
    fn perturb_block_lanes / perturb_block_lanes_with(block: &mut [i32; MATRIX_LEN], pvec: &[i32; MATRIX_LEN], skip_zeros: bool, wind: &mut u64, zind: &mut u64) = perturb_block_kernel;
    fn recover_block_lanes / recover_block_lanes_with(block: &mut [i32; MATRIX_LEN], pvec: &[i32; MATRIX_LEN], force: &[i32; MATRIX_LEN], skip_zeros: bool) = recover_block_kernel;
}

/// Perturbs one ROI of one component in place. `rect` must be
/// block-aligned; `k_offset` shifts the block sequence index (0 for whole
/// ROIs — nonzero is used by transformed-recovery code paths).
pub fn perturb_component(
    comp: &mut puppies_jpeg::Component,
    component_index: u8,
    rect: Rect,
    keys: &RoiKeys,
    profile: &PerturbProfile,
    q: &RangeMatrix,
    record: &mut PerturbRecord,
) {
    let positions = comp.blocks_in_region(rect);
    let pvec = ac_perturbation_vector(profile, keys, q);
    let skip_zeros = profile.scheme == Scheme::Zero;
    for (k, &(bx, by)) in positions.iter().enumerate() {
        let k32 = k as u32;
        let block = comp.block_mut(bx, by);
        let pdc = dc_perturbation(profile, keys, k32);
        let raw = block[0] + pdc;
        if raw > COEFF_MAX {
            record.wind.push(ZeroEntry {
                component: component_index,
                block: k32,
                coeff: 0,
            });
        }
        block[0] = wrap_dc(raw);
        let (mut wbits, mut zbits) = (0u64, 0u64);
        perturb_block_lanes(block, &pvec, skip_zeros, &mut wbits, &mut zbits);
        // Scan the lane masks lowest-bit-first so entries land in the same
        // coefficient order the scalar loop produced.
        while wbits != 0 {
            record.wind.push(ZeroEntry {
                component: component_index,
                block: k32,
                coeff: wbits.trailing_zeros() as u8,
            });
            wbits &= wbits - 1;
        }
        while zbits != 0 {
            record.zind.push(ZeroEntry {
                component: component_index,
                block: k32,
                coeff: zbits.trailing_zeros() as u8,
            });
            zbits &= zbits - 1;
        }
    }
}

/// Exactly inverts [`perturb_component`] given the same keys and `ZInd`.
pub fn recover_component(
    comp: &mut puppies_jpeg::Component,
    component_index: u8,
    rect: Rect,
    keys: &RoiKeys,
    profile: &PerturbProfile,
    q: &RangeMatrix,
    zind: &ZeroIndex,
) {
    let positions = comp.blocks_in_region(rect);
    recover_blocks(
        comp,
        component_index,
        &positions,
        None,
        keys,
        profile,
        q,
        zind,
    );
}

/// [`recover_component`] over explicit block positions: ROI block `k`
/// sits at `positions[k]`. With `orient`, a rotation or flip moved the
/// blocks after perturbation, so each block is recovered in its original
/// orientation and put back.
#[allow(clippy::too_many_arguments)]
fn recover_blocks(
    comp: &mut puppies_jpeg::Component,
    component_index: u8,
    positions: &[(u32, u32)],
    orient: Option<&BlockOrientation>,
    keys: &RoiKeys,
    profile: &PerturbProfile,
    q: &RangeMatrix,
    zind: &ZeroIndex,
) {
    let pvec = ac_perturbation_vector(profile, keys, q);
    let skip_zeros = profile.scheme == Scheme::Zero;
    // Per-block ZInd bitmasks for this component (an untouched zero without
    // a ZInd bit was an original zero and must be left alone).
    let mut zmap = std::collections::HashMap::new();
    if skip_zeros {
        for e in zind.entries() {
            if e.component == component_index {
                *zmap.entry(e.block).or_insert(0u64) |= 1 << e.coeff;
            }
        }
    }
    let no_force = [0i32; MATRIX_LEN];
    let recover = |block: &mut Block, k: u32| {
        block[0] = wrap_dc(block[0] - dc_perturbation(profile, keys, k));
        match zmap.get(&k) {
            Some(&bits) => {
                let mut force = [0i32; MATRIX_LEN];
                let mut b = bits;
                while b != 0 {
                    force[b.trailing_zeros() as usize] = -1;
                    b &= b - 1;
                }
                recover_block_lanes(block, &pvec, &force, skip_zeros);
            }
            None => recover_block_lanes(block, &pvec, &no_force, skip_zeros),
        }
    };
    for (k, &(bx, by)) in positions.iter().enumerate() {
        let block = comp.block_mut(bx, by);
        match orient {
            None => recover(block, k as u32),
            Some(o) => {
                let mut original = [0i32; MATRIX_LEN];
                o.undo(block, &mut original);
                recover(&mut original, k as u32);
                o.apply(&original, block);
            }
        }
    }
}

/// Perturbs one ROI across every component of `coeff` in place.
///
/// `keys` holds one [`RoiKeys`] per component, in component order.
///
/// # Errors
/// Returns [`PuppiesError::BadParams`] if the key count does not match the
/// component count, or [`PuppiesError::BadRoi`] for an unaligned/out-of-
/// image rect.
pub fn perturb_roi(
    coeff: &mut CoeffImage,
    rect: Rect,
    keys: &[RoiKeys],
    profile: &PerturbProfile,
) -> Result<PerturbRecord> {
    let mut records = perturb_rois(coeff, &[rect], &[keys.to_vec()], profile)?;
    Ok(records.pop().expect("one record per roi"))
}

/// Perturbs several disjoint ROIs across every component of `coeff`,
/// component by component on the calling thread. Every ROI is validated
/// before any coefficient is touched, so a bad rect leaves `coeff`
/// unchanged — unlike a roi-by-roi loop, which would abort midway.
///
/// `keys[r]` holds one [`RoiKeys`] per component for ROI `r`. The returned
/// records are per-ROI; within one record, entries are grouped by
/// component in component order.
///
/// # Errors
/// Returns [`PuppiesError::BadParams`] if a key count does not match the
/// component count, or [`PuppiesError::BadRoi`] for an unaligned/out-of-
/// image rect.
pub fn perturb_rois(
    coeff: &mut CoeffImage,
    rects: &[Rect],
    keys: &[Vec<RoiKeys>],
    profile: &PerturbProfile,
) -> Result<Vec<PerturbRecord>> {
    if keys.len() != rects.len() {
        return Err(PuppiesError::BadParams(format!(
            "{} key sets for {} rois",
            keys.len(),
            rects.len()
        )));
    }
    for (&rect, ks) in rects.iter().zip(keys) {
        validate_roi(coeff, rect, ks.len())?;
    }
    let _span = puppies_obs::span("core.perturb_rois", "core");
    let q = profile.range_matrix();
    let mut out = vec![PerturbRecord::default(); rects.len()];
    for (ci, comp) in coeff.components_mut().iter_mut().enumerate() {
        for ((&rect, ks), rec) in rects.iter().zip(keys).zip(out.iter_mut()) {
            let _roi = puppies_obs::span("core.perturb_roi", "core");
            perturb_component(comp, ci as u8, rect, &ks[ci], profile, &q, rec);
        }
    }
    Ok(out)
}

/// Exactly inverts [`perturb_roi`].
///
/// # Errors
/// Same validation as [`perturb_roi`].
pub fn recover_roi(
    coeff: &mut CoeffImage,
    rect: Rect,
    keys: &[RoiKeys],
    profile: &PerturbProfile,
    zind: &ZeroIndex,
) -> Result<()> {
    recover_rois(coeff, &[(rect, profile, zind)], &[keys.to_vec()])
}

/// Exactly inverts [`perturb_rois`] over several ROIs, each with its own
/// profile and `ZInd` (as recorded in its public [`crate::params::RoiParams`]).
///
/// # Errors
/// Same validation as [`perturb_rois`].
pub fn recover_rois(
    coeff: &mut CoeffImage,
    rois: &[(Rect, &PerturbProfile, &ZeroIndex)],
    keys: &[Vec<RoiKeys>],
) -> Result<()> {
    recover_rois_in(coeff, None, rois, keys)
}

/// [`recover_rois`] where `orient`, when given, is a rotation or flip
/// applied to `coeff` after perturbation: ROIs are validated and laid out
/// in the frame the image had before it, and every block is recovered
/// where the orientation moved it. This gives exactly what undoing the
/// orientation, recovering and redoing it gives, without either copy.
///
/// # Errors
/// Same validation as [`perturb_rois`], in the original frame.
pub(crate) fn recover_rois_in(
    coeff: &mut CoeffImage,
    orient: Option<&BlockOrientation>,
    rois: &[(Rect, &PerturbProfile, &ZeroIndex)],
    keys: &[Vec<RoiKeys>],
) -> Result<()> {
    if keys.len() != rois.len() {
        return Err(PuppiesError::BadParams(format!(
            "{} key sets for {} rois",
            keys.len(),
            rois.len()
        )));
    }
    let frame = match orient {
        Some(o) if o.transposes() => (coeff.height(), coeff.width()),
        _ => (coeff.width(), coeff.height()),
    };
    for (&(rect, _, _), ks) in rois.iter().zip(keys) {
        validate_roi_in(coeff, frame, rect, ks.len())?;
    }
    let _span = puppies_obs::span("core.recover_rois", "core");
    let qs: Vec<RangeMatrix> = rois.iter().map(|(_, p, _)| p.range_matrix()).collect();
    let (bw, bh) = (frame.0.div_ceil(8), frame.1.div_ceil(8));
    for (ci, comp) in coeff.components_mut().iter_mut().enumerate() {
        for ((&(rect, profile, zind), ks), q) in rois.iter().zip(keys).zip(&qs) {
            let _roi = puppies_obs::span("core.recover_roi", "core");
            // The ROI's blocks in the original frame, row-major, then
            // where the orientation put each.
            let positions: Vec<(u32, u32)> = (rect.y / 8..rect.bottom().div_ceil(8))
                .flat_map(|by| (rect.x / 8..rect.right().div_ceil(8)).map(move |bx| (bx, by)))
                .map(|(bx, by)| orient.map_or((bx, by), |o| o.position(bw, bh, bx, by)))
                .collect();
            recover_blocks(
                comp, ci as u8, &positions, orient, &ks[ci], profile, q, zind,
            );
        }
    }
    Ok(())
}

fn validate_roi(coeff: &CoeffImage, rect: Rect, nkeys: usize) -> Result<()> {
    validate_roi_in(coeff, (coeff.width(), coeff.height()), rect, nkeys)
}

/// [`validate_roi`] against a `frame` of `(width, height)`: the image's
/// own size, or the size it had before a quarter turn.
fn validate_roi_in(coeff: &CoeffImage, frame: (u32, u32), rect: Rect, nkeys: usize) -> Result<()> {
    if nkeys != coeff.components().len() {
        return Err(PuppiesError::BadParams(format!(
            "{nkeys} key sets for {} components",
            coeff.components().len()
        )));
    }
    let (width, height) = frame;
    let bounds = Rect::new(0, 0, width, height);
    // The last block row/column may be partial; allow rects that end at the
    // image border even when the border is unaligned.
    let aligned = rect.x % 8 == 0
        && rect.y % 8 == 0
        && (rect.w % 8 == 0 || rect.right() == width)
        && (rect.h % 8 == 0 || rect.bottom() == height);
    if rect.is_empty() || !bounds.contains_rect(rect) || !aligned {
        return Err(PuppiesError::BadRoi {
            rect,
            width,
            height,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::OwnerKey;
    use crate::matrix::wrap_ac;
    use puppies_image::{Rgb, RgbImage};

    /// Straight transcription of the pre-lane scalar AC loop, kept as the
    /// reference the lane kernels must match exactly on every backend.
    fn perturb_block_reference(
        block: &mut [i32; MATRIX_LEN],
        pvec: &[i32; MATRIX_LEN],
        skip_zeros: bool,
    ) -> (u64, u64) {
        let (mut wind, mut zind) = (0u64, 0u64);
        for (i, coeff) in block.iter_mut().enumerate().skip(1) {
            let p = pvec[i];
            if p == 0 || (skip_zeros && *coeff == 0) {
                continue;
            }
            let raw = *coeff + p;
            if raw > AC_MAX {
                wind |= 1 << i;
            }
            *coeff = wrap_ac(raw);
            if skip_zeros && *coeff == 0 {
                zind |= 1 << i;
            }
        }
        (wind, zind)
    }

    fn recover_block_reference(
        block: &mut [i32; MATRIX_LEN],
        pvec: &[i32; MATRIX_LEN],
        force: &[i32; MATRIX_LEN],
        skip_zeros: bool,
    ) {
        for (i, coeff) in block.iter_mut().enumerate().skip(1) {
            let p = pvec[i];
            if p == 0 || (skip_zeros && *coeff == 0 && force[i] == 0) {
                continue;
            }
            *coeff = wrap_ac(*coeff - p);
        }
    }

    #[test]
    fn block_lane_kernels_match_reference_on_every_backend() {
        use puppies_image::simd::Backend;
        let mut state = 0x9E37_79B9_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let mut block = [0i32; MATRIX_LEN];
            let mut pvec = [0i32; MATRIX_LEN];
            let mut force = [0i32; MATRIX_LEN];
            for i in 0..MATRIX_LEN {
                // Bias toward sparsity and ring-boundary values like real
                // blocks; case 0 stresses the extremes everywhere.
                block[i] = match rng() % 5 {
                    0 => 0,
                    1 => AC_MAX - (rng() % 8) as i32,
                    2 => AC_MIN + (rng() % 8) as i32,
                    _ => (rng() % 2047) as i32 - 1023,
                };
                pvec[i] = if rng() % 3 == 0 {
                    0
                } else {
                    (rng() % 2047) as i32
                };
                force[i] = if rng() % 8 == 0 { -1 } else { 0 };
            }
            pvec[0] = 0;
            force[0] = 0;
            let skip_zeros = case % 2 == 0;

            let mut want = block;
            let (want_w, want_z) = perturb_block_reference(&mut want, &pvec, skip_zeros);
            for backend in Backend::ALL {
                if !backend.available() {
                    continue;
                }
                let mut got = block;
                let (mut gw, mut gz) = (0u64, 0u64);
                perturb_block_lanes_with(backend, &mut got, &pvec, skip_zeros, &mut gw, &mut gz);
                assert_eq!(got, want, "perturb {} case {case}", backend.name());
                assert_eq!(
                    (gw, gz),
                    (want_w, want_z),
                    "masks {} case {case}",
                    backend.name()
                );
            }

            let mut want_rec = want;
            recover_block_reference(&mut want_rec, &pvec, &force, skip_zeros);
            for backend in Backend::ALL {
                if !backend.available() {
                    continue;
                }
                let mut got = want;
                recover_block_lanes_with(backend, &mut got, &pvec, &force, skip_zeros);
                assert_eq!(got, want_rec, "recover {} case {case}", backend.name());
            }
        }
    }

    fn test_image() -> RgbImage {
        RgbImage::from_fn(64, 64, |x, y| {
            Rgb::new(
                ((x * 11 + y * 3) % 256) as u8,
                ((x * 7 + y * 13) % 256) as u8,
                ((x + 2 * y) % 256) as u8,
            )
        })
    }

    fn keys_for(image: u64, roi: u16) -> Vec<RoiKeys> {
        let key = OwnerKey::from_seed([5u8; 32]);
        let grant = key.grant_all();
        (0..3)
            .map(|c| RoiKeys::from_grant(&grant, image, roi, c).unwrap())
            .collect()
    }

    fn all_profiles() -> Vec<PerturbProfile> {
        let mut out = Vec::new();
        for scheme in [
            Scheme::Naive,
            Scheme::Base,
            Scheme::Compression,
            Scheme::Zero,
        ] {
            for level in PrivacyLevel::TABLE_IV {
                out.push(PerturbProfile::paper(scheme, level));
            }
        }
        out.push(PerturbProfile::transform_friendly());
        out
    }

    #[test]
    fn zero_index_empty_has_no_entries_anywhere() {
        let z = ZeroIndex::new();
        assert!(z.is_empty());
        assert_eq!(z.len(), 0);
        assert_eq!(z.encoded_bits(), 0);
        assert!(!z.contains(0, 0, 0));
        assert!(z.to_set().is_empty());
        assert_eq!(z, ZeroIndex::from_entries(Vec::new()));
    }

    #[test]
    fn zero_index_duplicate_entries_are_kept_but_set_deduplicates() {
        let e = ZeroEntry {
            component: 1,
            block: 7,
            coeff: 33,
        };
        let z = ZeroIndex::from_entries(vec![e, e, e]);
        // The wire format stores entries verbatim (28 bits each, §IV-B.4),
        // so duplicates cost bits …
        assert_eq!(z.len(), 3);
        assert_eq!(z.encoded_bits(), 3 * 28);
        assert!(z.contains(1, 7, 33));
        assert!(!z.contains(1, 7, 34));
        assert!(!z.contains(0, 7, 33));
        // … while the recovery lookup collapses them harmlessly.
        assert_eq!(z.to_set().len(), 1);
        assert!(z.to_set().contains(&(1, 7, 33)));
    }

    #[test]
    fn all_profiles_roundtrip_exactly() {
        let img = test_image();
        let rect = Rect::new(8, 8, 32, 24);
        for profile in all_profiles() {
            let original = CoeffImage::from_rgb(&img, 75);
            let mut perturbed = original.clone();
            let keys = keys_for(1, 0);
            let record = perturb_roi(&mut perturbed, rect, &keys, &profile).unwrap();
            assert_ne!(perturbed, original, "{profile:?} must change data");
            recover_roi(&mut perturbed, rect, &keys, &profile, &record.zind).unwrap();
            assert_eq!(perturbed, original, "{profile:?} must roundtrip");
        }
    }

    #[test]
    fn perturbation_confined_to_roi() {
        let img = test_image();
        let rect = Rect::new(16, 16, 16, 16);
        let original = CoeffImage::from_rgb(&img, 75);
        let mut perturbed = original.clone();
        let profile = PerturbProfile::default();
        let keys = keys_for(1, 0);
        perturb_roi(&mut perturbed, rect, &keys, &profile).unwrap();
        for (co, cp) in original.components().iter().zip(perturbed.components()) {
            for by in 0..co.blocks_h() {
                for bx in 0..co.blocks_w() {
                    let inside = (2..4).contains(&bx) && (2..4).contains(&by);
                    if !inside {
                        assert_eq!(co.block(bx, by), cp.block(bx, by), "block ({bx},{by})");
                    }
                }
            }
        }
    }

    #[test]
    fn wrong_key_fails_to_recover() {
        let img = test_image();
        let rect = Rect::new(0, 0, 32, 32);
        let original = CoeffImage::from_rgb(&img, 75);
        let mut perturbed = original.clone();
        let profile = PerturbProfile::paper(Scheme::Compression, PrivacyLevel::Medium);
        let keys = keys_for(1, 0);
        let record = perturb_roi(&mut perturbed, rect, &keys, &profile).unwrap();
        let bad_key = OwnerKey::from_seed([6u8; 32]);
        let bad_grant = bad_key.grant_all();
        let bad: Vec<RoiKeys> = (0..3)
            .map(|c| RoiKeys::from_grant(&bad_grant, 1, 0, c).unwrap())
            .collect();
        recover_roi(&mut perturbed, rect, &bad, &profile, &record.zind).unwrap();
        assert_ne!(perturbed, original);
    }

    #[test]
    fn naive_shares_dc_perturbation_across_blocks() {
        let keys = &keys_for(1, 0)[0];
        let naive = PerturbProfile::paper(Scheme::Naive, PrivacyLevel::Medium);
        let base = PerturbProfile::paper(Scheme::Base, PrivacyLevel::Medium);
        assert_eq!(
            dc_perturbation(&naive, keys, 0),
            dc_perturbation(&naive, keys, 17)
        );
        let d0 = dc_perturbation(&base, keys, 0);
        let rotated = (0..64).any(|k| dc_perturbation(&base, keys, k) != d0);
        assert!(rotated, "base DC perturbation must vary across blocks");
        assert_eq!(
            dc_perturbation(&base, keys, 0),
            dc_perturbation(&base, keys, 64),
            "rotation has period 64"
        );
    }

    #[test]
    fn dc_range_bounds_perturbation() {
        let keys = &keys_for(1, 0)[0];
        let mut profile = PerturbProfile::transform_friendly();
        profile.dc_range = 16;
        for k in 0..128 {
            let p = dc_perturbation(&profile, keys, k);
            assert!((0..16).contains(&p), "k={k}: {p}");
        }
    }

    #[test]
    fn zero_scheme_preserves_zero_positions_off_zind() {
        let img = RgbImage::filled(32, 32, Rgb::new(200, 100, 50));
        let original = CoeffImage::from_rgb(&img, 75);
        let mut perturbed = original.clone();
        let profile = PerturbProfile::paper(Scheme::Zero, PrivacyLevel::High);
        let keys = keys_for(2, 0);
        let record = perturb_roi(&mut perturbed, Rect::new(0, 0, 32, 32), &keys, &profile).unwrap();
        assert!(record.zind.is_empty(), "no nonzero AC to turn into zero");
        for (co, cp) in original.components().iter().zip(perturbed.components()) {
            for (bo, bp) in co.blocks().iter().zip(cp.blocks()) {
                assert_eq!(&bo[1..], &bp[1..], "AC untouched in flat image");
                assert_ne!(bo[0], bp[0], "DC still perturbed");
            }
        }
    }

    #[test]
    fn zind_records_created_zeros() {
        let img = test_image();
        let mut coeff = CoeffImage::from_rgb(&img, 75);
        let profile = PerturbProfile::paper(Scheme::Zero, PrivacyLevel::High);
        let q = profile.range_matrix();
        let keys = keys_for(3, 0);
        let p = ac_perturbation(&profile, &keys[0], &q, 1);
        assert_ne!(p, 0);
        coeff.components_mut()[0].block_mut(0, 0)[1] = wrap_ac(-p);
        let original = coeff.clone();
        let rect = Rect::new(0, 0, 64, 64);
        let record = perturb_roi(&mut coeff, rect, &keys, &profile).unwrap();
        assert!(
            record.zind.contains(0, 0, 1),
            "created zero must be recorded"
        );
        recover_roi(&mut coeff, rect, &keys, &profile, &record.zind).unwrap();
        assert_eq!(coeff, original);
    }

    #[test]
    fn wind_makes_deltas_exact() {
        // For every perturbed coefficient, e == b + block_delta with no
        // modular correction needed.
        let img = test_image();
        let original = CoeffImage::from_rgb(&img, 75);
        let mut perturbed = original.clone();
        let profile = PerturbProfile::paper(Scheme::Base, PrivacyLevel::High);
        let q = profile.range_matrix();
        let keys = keys_for(4, 0);
        let rect = Rect::new(0, 0, 64, 64);
        let record = perturb_roi(&mut perturbed, rect, &keys, &profile).unwrap();
        assert!(!record.wind.is_empty(), "full-range DC must wrap somewhere");
        for (ci, key) in keys.iter().enumerate() {
            let co = &original.components()[ci];
            let cp = &perturbed.components()[ci];
            let positions = co.blocks_in_region(rect);
            let pvec = ac_perturbation_vector(&profile, key, &q);
            let wraps = record.wind.block_masks(ci as u8, positions.len());
            for (k, &(bx, by)) in positions.iter().enumerate() {
                let bo = co.block(bx, by);
                let bp = cp.block(bx, by);
                let d = block_delta(&profile, key, &pvec, k as u32, wraps[k]);
                for i in 0..64 {
                    assert_eq!(bo[i] + d[i], bp[i], "comp {ci} block {k} coeff {i}");
                }
            }
        }
    }

    #[test]
    fn transform_friendly_profile_never_wraps_on_natural_images() {
        let img = test_image();
        let mut perturbed = CoeffImage::from_rgb(&img, 75);
        let profile = PerturbProfile::transform_friendly();
        let keys = keys_for(5, 0);
        let record = perturb_roi(&mut perturbed, Rect::new(0, 0, 64, 64), &keys, &profile).unwrap();
        assert!(
            record.wind.is_empty(),
            "bounded ranges should not wrap: {} wraps",
            record.wind.len()
        );
    }

    #[test]
    fn unaligned_roi_rejected() {
        let img = test_image();
        let mut coeff = CoeffImage::from_rgb(&img, 75);
        let keys = keys_for(1, 0);
        let err = perturb_roi(
            &mut coeff,
            Rect::new(3, 0, 16, 16),
            &keys,
            &PerturbProfile::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PuppiesError::BadRoi { .. }));
    }

    #[test]
    fn partial_border_blocks_allowed() {
        let img = RgbImage::from_fn(60, 44, |x, y| Rgb::new(x as u8, y as u8, 7));
        let original = CoeffImage::from_rgb(&img, 75);
        let mut perturbed = original.clone();
        let profile = PerturbProfile::default();
        let keys = keys_for(1, 0);
        let rect = Rect::new(48, 40, 12, 4);
        let record = perturb_roi(&mut perturbed, rect, &keys, &profile).unwrap();
        recover_roi(&mut perturbed, rect, &keys, &profile, &record.zind).unwrap();
        assert_eq!(perturbed, original);
    }

    #[test]
    fn missing_key_reported() {
        let key = OwnerKey::from_seed([5u8; 32]);
        let grant = key.grant_rois(1, &[0]);
        assert!(RoiKeys::from_grant(&grant, 1, 1, 0).is_err());
        assert!(RoiKeys::from_grant(&grant, 1, 0, 0).is_ok());
    }

    #[test]
    fn perturbed_coefficients_stay_encodable() {
        let img = test_image();
        let mut coeff = CoeffImage::from_rgb(&img, 75);
        let profile = PerturbProfile::paper(Scheme::Base, PrivacyLevel::High);
        let keys = keys_for(1, 0);
        perturb_roi(&mut coeff, Rect::new(0, 0, 64, 64), &keys, &profile).unwrap();
        let bytes = coeff
            .encode(&puppies_jpeg::EncodeOptions::default())
            .unwrap();
        let back = CoeffImage::decode(&bytes).unwrap();
        assert_eq!(
            back.components()[0].blocks(),
            coeff.components()[0].blocks()
        );
    }
}

//! Reconstruction after PSP-side transformations — the "shadow ROI"
//! mechanism of §IV-C.
//!
//! Two reconstruction paths exist, by transformation class:
//!
//! 1. **Coefficient-domain (lossless) transformations** — block-aligned
//!    crops, 90°·k rotations, flips, recompression. These permute whole
//!    blocks (possibly with per-coefficient sign flips), so the receiver
//!    runs the exact scenario-1 recovery of Lemma III.1 on each block
//!    where the transformation put it, undoing the block's sign
//!    permutation around the recovery — what inverting the transformation,
//!    recovering and re-applying it would give, without either copy.
//!    Recovery is **bit-exact** for crop/rotate/flip and approximate only
//!    for recompression (which is itself lossy).
//!
//! 2. **Pixel-domain linear transformations** — scaling, filtering. The
//!    receiver generates the *shadow ROI* (the pixel-domain image of the
//!    perturbation deltas, Fig. 9), pushes it through the *same unmodified*
//!    transformation, and subtracts it from the transformed perturbed
//!    image (§IV-C.1). This is the paper's headline trick: the PSP's
//!    standard library is reused verbatim, once on the image and once on
//!    the shadow.
//!
//! # Fidelity of the pixel-domain path
//!
//! The paper presents path 2 as exact (Figs. 4, 16). Three effects it does
//! not model make it approximate in general:
//!
//! - **Ring wraps.** Lemma III.1's modular arithmetic is non-linear at
//!   wrap points. Our `WInd` extension (see [`crate::perturb`]) removes
//!   this error completely: the shadow uses the exact delta `e − b`.
//! - **Pixel clamping.** The PSP decodes the perturbed image to 8-bit
//!   pixels before resampling; wild perturbations clamp at 0/255 and the
//!   clamped excess is unrecoverable. Bounded perturbation
//!   ([`crate::perturb::PerturbProfile::transform_friendly`]) keeps this
//!   negligible.
//! - **PuPPIeS-Z skipping.** Which coefficients Z skipped is
//!   data-dependent; the shadow assumes every coefficient was perturbed.
//!   Use [`crate::Scheme::Compression`] when pixel-domain PSP edits are
//!   expected.
//!
//! The Fig. 4/16 experiments quantify each combination; EXPERIMENTS.md
//! reports the measured PSNRs.

use crate::keys::KeyGrant;
use crate::params::PublicParams;
use crate::perturb::{ac_perturbation_vector, block_delta, dc_perturbation, RoiKeys, Scheme};
use crate::{PuppiesError, Result};
use puppies_image::{Plane, Rect, RgbImage};
use puppies_jpeg::coeff::clamp_block;
use puppies_jpeg::{dct, CoeffImage, QuantTable, BLOCK_SIZE};
use puppies_transform::{BlockOrientation, Transformation};

/// Recovers a protected image that the PSP transformed, dispatching to the
/// exact coefficient-domain path or the shadow-ROI pixel path.
///
/// `transformed_bytes` is the JPEG the receiver downloaded; `params` must
/// carry the applied [`Transformation`] (`None` falls back to scenario-1
/// recovery). Returns the recovered *transformed* image — i.e. what the
/// PSP's transformation would have produced on the original.
///
/// # Errors
/// Fails on undecodable input or parameter/geometry mismatches.
pub fn recover_transformed(
    transformed_bytes: &[u8],
    params: &PublicParams,
    grant: &KeyGrant,
) -> Result<RgbImage> {
    let _span = puppies_obs::span("core.shadow_recover", "core");
    let coeff = CoeffImage::decode(transformed_bytes)?;
    let t = match &params.transformation {
        None => {
            let mut c = coeff;
            crate::protect::recover_coeff(&mut c, params, grant)?;
            return Ok(c.to_rgb());
        }
        Some(t) => t.clone(),
    };
    if t.is_coeff_domain(params.width, params.height) {
        recover_coeff_domain_owned(coeff, &t, params, grant).map(|c| c.to_rgb())
    } else {
        recover_pixel_domain(&coeff.to_rgb(), &t, params, grant)
    }
}

/// Exact recovery for lossless (coefficient-domain) transformations.
///
/// # Errors
/// Fails for transformations without a coefficient-domain form.
pub fn recover_coeff_domain(
    transformed: &CoeffImage,
    t: &Transformation,
    params: &PublicParams,
    grant: &KeyGrant,
) -> Result<CoeffImage> {
    recover_coeff_domain_owned(transformed.clone(), t, params, grant)
}

/// [`recover_coeff_domain`] on an image the caller owns: recovery works
/// on it in place instead of on a copy.
fn recover_coeff_domain_owned(
    transformed: CoeffImage,
    t: &Transformation,
    params: &PublicParams,
    grant: &KeyGrant,
) -> Result<CoeffImage> {
    match t {
        Transformation::Crop(crop) => recover_cropped(transformed, *crop, params, grant),
        Transformation::Recompress { .. } => recover_recompressed(transformed, params, grant),
        _ => recover_reoriented(transformed, t, params, grant),
    }
}

/// Recovery after a rotation or flip: each perturbed block is recovered
/// where the transformation moved it, with its sign permutation undone
/// around the recovery — exactly what undoing the transformation,
/// recovering and redoing it gives.
fn recover_reoriented(
    mut transformed: CoeffImage,
    t: &Transformation,
    params: &PublicParams,
    grant: &KeyGrant,
) -> Result<CoeffImage> {
    let (orient, inverse) = match t {
        Transformation::Rotate90 => (BlockOrientation::of(t), Transformation::Rotate270),
        Transformation::Rotate270 => (BlockOrientation::of(t), Transformation::Rotate90),
        // 180 and flips are involutions.
        _ => (BlockOrientation::of(t), t.clone()),
    };
    let (w, h) = (transformed.width(), transformed.height());
    let orient = match orient {
        Some(o) if inverse.is_coeff_domain(w, h) => o,
        _ => {
            return Err(PuppiesError::Transform(
                puppies_transform::TransformError::NotCoeffDomain(format!(
                    "{inverse:?} on {w}x{h}"
                )),
            ))
        }
    };
    // Moving blocks through the coefficient-domain transformation clamps
    // them into the entropy-codable ranges; a decoded stream may hold
    // values outside them.
    for c in transformed.components_mut() {
        c.blocks_mut().iter_mut().for_each(clamp_block);
    }
    crate::protect::recover_coeff_in(&mut transformed, Some(&orient), params, grant)?;
    Ok(transformed)
}

/// Recovery after a block-aligned crop: surviving ROI blocks are
/// unperturbed using their *original* sequence index `k`, which the crop
/// offset determines (the paper's "transformed ROI" of Fig. 8).
fn recover_cropped(
    mut out: CoeffImage,
    crop: Rect,
    params: &PublicParams,
    grant: &KeyGrant,
) -> Result<CoeffImage> {
    let ncomp = out.components().len();
    for roi in &params.rois {
        if !grant.covers(params.image_id, roi.index) {
            continue;
        }
        let inter = roi.rect.intersect(crop);
        if inter.is_empty() {
            continue;
        }
        let local = Rect::new(inter.x - crop.x, inter.y - crop.y, inter.w, inter.h);
        let q = roi.range_matrix();
        let roi_blocks_w = roi.rect.w.div_ceil(BLOCK_SIZE);
        let zset = roi.zind.to_set();
        for ci in 0..ncomp {
            let keys = RoiKeys::from_grant(grant, params.image_id, roi.index, ci as u8)?;
            let pvec = ac_perturbation_vector(&roi.profile, &keys, &q);
            let comp = &mut out.components_mut()[ci];
            let positions = comp.blocks_in_region(local);
            for &(bx, by) in &positions {
                let orig_bx = (bx * BLOCK_SIZE + crop.x - roi.rect.x) / BLOCK_SIZE;
                let orig_by = (by * BLOCK_SIZE + crop.y - roi.rect.y) / BLOCK_SIZE;
                let k = orig_by * roi_blocks_w + orig_bx;
                let block = comp.block_mut(bx, by);
                block[0] =
                    crate::matrix::wrap_dc(block[0] - dc_perturbation(&roi.profile, &keys, k));
                for (i, coeff) in block.iter_mut().enumerate().skip(1) {
                    let p = pvec[i];
                    if p == 0 {
                        continue;
                    }
                    let touched = match roi.profile.scheme {
                        Scheme::Zero => *coeff != 0 || zset.contains(&(ci as u8, k, i as u8)),
                        _ => true,
                    };
                    if touched {
                        *coeff = crate::matrix::wrap_ac(*coeff - p);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Recovery after PSP recompression (§IV-C.2): the receiver knows both
/// quantization tables, maps coefficients back to the original grid,
/// unperturbs, and the caller sees the image at original quality.
/// Approximate — requantization is lossy by itself; the error is bounded
/// by one original quantization step per coefficient.
fn recover_recompressed(
    mut back: CoeffImage,
    params: &PublicParams,
    grant: &KeyGrant,
) -> Result<CoeffImage> {
    for (idx, c) in back.components_mut().iter_mut().enumerate() {
        c.requantize(original_table(params.quality, idx));
    }
    crate::protect::recover_coeff(&mut back, params, grant)?;
    Ok(back)
}

fn original_table(quality: u8, component_index: usize) -> QuantTable {
    if component_index == 0 {
        QuantTable::luma(quality)
    } else {
        QuantTable::chroma(quality)
    }
}

/// Builds the shadow planes: per component, the pixel-domain image of the
/// perturbation deltas over the whole (original-size) canvas — zero
/// outside ROIs (Fig. 9's "shadow ROI generator"). Wrap events recorded in
/// `WInd` are folded in so each block's shadow is the *exact* additive
/// delta in the coefficient domain.
///
/// # Errors
/// Fails if a needed key is missing from the grant.
pub fn shadow_planes(params: &PublicParams, grant: &KeyGrant, ncomp: usize) -> Result<Vec<Plane>> {
    let (w, h) = (params.width as usize, params.height as usize);
    let mut planes: Vec<Vec<f32>> = (0..ncomp).map(|_| vec![0.0f32; w * h]).collect();
    let bs = BLOCK_SIZE as usize;
    for roi in &params.rois {
        if !grant.covers(params.image_id, roi.index) {
            continue;
        }
        let q = roi.range_matrix();
        let blocks_w = roi.rect.w.div_ceil(BLOCK_SIZE) as usize;
        let blocks_h = roi.rect.h.div_ceil(BLOCK_SIZE) as usize;
        for (ci, plane) in planes.iter_mut().enumerate() {
            let keys = RoiKeys::from_grant(grant, params.image_id, roi.index, ci as u8)?;
            let quant = original_table(params.quality, ci);
            // The AC deltas are the same for every block; only the DC delta
            // (keyed by `k`) and the recorded wraps vary.
            let pvec = ac_perturbation_vector(&roi.profile, &keys, &q);
            let wraps = roi.wind.block_masks(ci as u8, blocks_w * blocks_h);
            // Blocks without wraps differ only in their DC delta, which
            // takes few distinct values: one IDCT serves each.
            let mut by_dc: std::collections::HashMap<i32, [f32; 64]> =
                std::collections::HashMap::new();
            let shadow_block = |delta: &[i32; 64]| dct::inverse(&quant.dequantize(delta));
            for (k, &wrap) in wraps.iter().enumerate() {
                let delta = block_delta(&roi.profile, &keys, &pvec, k as u32, wrap);
                let computed;
                let spatial = if wrap == 0 {
                    by_dc
                        .entry(delta[0])
                        .or_insert_with(|| shadow_block(&delta))
                } else {
                    computed = shadow_block(&delta);
                    &computed
                };
                let x0 = roi.rect.x as usize + (k % blocks_w) * bs;
                let y0 = roi.rect.y as usize + (k / blocks_w) * bs;
                let cols = bs.min(w.saturating_sub(x0));
                for y in 0..bs.min(h.saturating_sub(y0)) {
                    plane[(y0 + y) * w + x0..][..cols].copy_from_slice(&spatial[y * bs..][..cols]);
                }
            }
        }
    }
    Ok(planes
        .into_iter()
        .map(|samples| Plane::from_raw(params.width, params.height, samples))
        .collect())
}

/// Shadow-ROI recovery for pixel-domain transformations (§IV-C.1): apply
/// the same transformation to the shadow planes and subtract.
///
/// The result is approximate (see the module docs); fidelity is highest
/// with the transform-friendly profile.
///
/// # Errors
/// Fails when the transformation cannot run on a plane (`Recompress`,
/// `Overlay`) or keys are missing.
pub fn recover_pixel_domain(
    transformed: &RgbImage,
    t: &Transformation,
    params: &PublicParams,
    grant: &KeyGrant,
) -> Result<RgbImage> {
    let shadows = shadow_planes(params, grant, 3)?;
    let mut planes = transformed.to_ycbcr_planes();
    for (ci, shadow) in shadows.iter().enumerate() {
        let t_shadow = t.apply_to_plane(shadow)?;
        if t_shadow.width() != planes[ci].width() || t_shadow.height() != planes[ci].height() {
            return Err(PuppiesError::BadParams(format!(
                "transformed shadow {}x{} vs image {}x{}",
                t_shadow.width(),
                t_shadow.height(),
                planes[ci].width(),
                planes[ci].height()
            )));
        }
        for (p, s) in planes[ci].samples_mut().iter_mut().zip(t_shadow.samples()) {
            *p -= s;
        }
    }
    Ok(RgbImage::from_ycbcr_planes(&planes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::OwnerKey;
    use crate::perturb::PerturbProfile;
    use crate::privacy::PrivacyLevel;
    use crate::protect::{protect, ProtectOptions};
    use puppies_image::metrics::psnr_rgb;
    use puppies_image::Rgb;

    fn test_image() -> RgbImage {
        // Mid-range texture: photographic content rarely sits at the gamut
        // boundary, and the pixel-domain shadow path is documented to
        // degrade there (clamping). The storage/attack experiments use the
        // synthetic datasets instead.
        RgbImage::from_fn(64, 64, |x, y| {
            Rgb::new(
                (64 + (x * 5 + y * 2) % 128) as u8,
                (64 + (x * 2 + y * 4) % 128) as u8,
                (64 + (x + y * 3) % 128) as u8,
            )
        })
    }

    fn protect_with(opts: &ProtectOptions) -> (RgbImage, crate::ProtectedImage, OwnerKey) {
        let img = test_image();
        let key = OwnerKey::from_seed([8u8; 32]);
        let protected = protect(&img, &[Rect::new(16, 16, 32, 32)], &key, opts).unwrap();
        (img, protected, key)
    }

    fn psp_coeff_transform(
        protected: &crate::ProtectedImage,
        t: &Transformation,
    ) -> (Vec<u8>, PublicParams) {
        let coeff = CoeffImage::decode(&protected.bytes).unwrap();
        let transformed = t.apply_to_coeff(&coeff).unwrap();
        let bytes = transformed
            .encode(&puppies_jpeg::EncodeOptions::default())
            .unwrap();
        let mut params = protected.params.clone();
        params.transformation = Some(t.clone());
        (bytes, params)
    }

    #[test]
    fn in_place_reorientation_recovery_matches_undo_recover_redo() {
        // Non-square, several ROIs, Zero scheme (ZInd-forced lanes), and
        // one coefficient outside the codable range: recovering in the
        // transformed frame must give what undoing the transformation,
        // recovering and redoing it gives.
        let img = RgbImage::from_fn(72, 40, |x, y| {
            Rgb::new((x * 7 + y) as u8, (x + y * 9) as u8, (x * y) as u8)
        });
        let key = OwnerKey::from_seed([4u8; 32]);
        let rois = [Rect::new(8, 0, 24, 16), Rect::new(40, 16, 32, 24)];
        let protected = protect(&img, &rois, &key, &ProtectOptions::default()).unwrap();
        let grant = key.grant_all();
        for t in [
            Transformation::Rotate90,
            Transformation::Rotate180,
            Transformation::Rotate270,
            Transformation::FlipHorizontal,
            Transformation::FlipVertical,
        ] {
            let mut served = t
                .apply_to_coeff(&CoeffImage::decode(&protected.bytes).unwrap())
                .unwrap();
            served.components_mut()[1].blocks_mut()[3][5] = 4000;
            let mut params = protected.params.clone();
            params.transformation = Some(t.clone());
            let inverse = match t {
                Transformation::Rotate90 => Transformation::Rotate270,
                Transformation::Rotate270 => Transformation::Rotate90,
                ref other => other.clone(),
            };
            let mut reference = inverse.apply_to_coeff(&served).unwrap();
            crate::protect::recover_coeff(&mut reference, &params, &grant).unwrap();
            let reference = t.apply_to_coeff(&reference).unwrap();
            let in_place = recover_coeff_domain(&served, &t, &params, &grant).unwrap();
            assert_eq!(in_place, reference, "{t:?}");
        }
    }

    #[test]
    fn rotations_and_flips_recover_exactly() {
        for t in [
            Transformation::Rotate90,
            Transformation::Rotate180,
            Transformation::Rotate270,
            Transformation::FlipHorizontal,
            Transformation::FlipVertical,
        ] {
            let opts = ProtectOptions::default();
            let (img, protected, key) = protect_with(&opts);
            let (bytes, params) = psp_coeff_transform(&protected, &t);
            let recovered = recover_transformed(&bytes, &params, &key.grant_all()).unwrap();
            let reference_coeff = CoeffImage::from_rgb(&img, 75);
            let reference = t.apply_to_coeff(&reference_coeff).unwrap().to_rgb();
            assert_eq!(recovered, reference, "{t:?} must be exact");
        }
    }

    #[test]
    fn aligned_crop_recovers_exactly() {
        let opts = ProtectOptions::default();
        let (img, protected, key) = protect_with(&opts);
        // Crop cuts through the ROI (ROI is 16..48; crop keeps 24..64).
        let t = Transformation::Crop(Rect::new(24, 24, 40, 40));
        let (bytes, params) = psp_coeff_transform(&protected, &t);
        let recovered = recover_transformed(&bytes, &params, &key.grant_all()).unwrap();
        let reference = t
            .apply_to_coeff(&CoeffImage::from_rgb(&img, 75))
            .unwrap()
            .to_rgb();
        assert_eq!(recovered, reference, "cropped ROI must recover exactly");
    }

    #[test]
    fn crop_outside_roi_needs_no_keys() {
        let opts = ProtectOptions::default();
        let (img, protected, _key) = protect_with(&opts);
        let t = Transformation::Crop(Rect::new(0, 0, 16, 16)); // misses ROI
        let (bytes, params) = psp_coeff_transform(&protected, &t);
        let recovered =
            recover_transformed(&bytes, &params, &crate::keys::KeyGrant::empty()).unwrap();
        let reference = t
            .apply_to_coeff(&CoeffImage::from_rgb(&img, 75))
            .unwrap()
            .to_rgb();
        assert_eq!(recovered, reference);
    }

    #[test]
    fn recompression_recovers_approximately() {
        let opts = ProtectOptions::new(Scheme::Compression, PrivacyLevel::Medium);
        let (img, protected, key) = protect_with(&opts);
        let t = Transformation::Recompress { quality: 50 };
        let (bytes, params) = psp_coeff_transform(&protected, &t);
        let recovered = recover_transformed(&bytes, &params, &key.grant_all()).unwrap();
        let reference = CoeffImage::from_rgb(&img, 75).to_rgb();
        let psnr = psnr_rgb(&recovered, &reference);
        assert!(psnr > 24.0, "recompression recovery too lossy: {psnr} dB");
    }

    #[test]
    fn scaling_recovers_via_shadow() {
        // Transform-friendly profile: bounded perturbation + WInd makes the
        // shadow path behave like the paper's Fig. 16: recovery quality is
        // limited by interpolation error, not by the perturbation, landing
        // near 30 dB for a 2x downscale. A single key draw swings the PSNR
        // by several dB (the perturbation magnitudes are random), so the
        // assertion averages a few fixed seeds instead of pinning one
        // stream of one RNG implementation.
        let opts = ProtectOptions::from_profile(PerturbProfile::transform_friendly());
        let t = Transformation::Scale {
            width: 32,
            height: 32,
            filter: puppies_transform::ScaleFilter::Bilinear,
        };
        let img = test_image();
        let reference = t
            .apply_to_rgb(&CoeffImage::from_rgb(&img, 75).to_rgb())
            .unwrap();
        let mut psnr_sum = 0.0;
        let mut baseline_sum = 0.0;
        let seeds = [3u8, 8, 21];
        for seed in seeds {
            let key = OwnerKey::from_seed([seed; 32]);
            let protected = protect(&img, &[Rect::new(16, 16, 32, 32)], &key, &opts).unwrap();
            let perturbed_rgb = CoeffImage::decode(&protected.bytes).unwrap().to_rgb();
            let scaled = t.apply_to_rgb(&perturbed_rgb).unwrap();
            let mut params = protected.params.clone();
            params.transformation = Some(t.clone());
            let recovered = recover_pixel_domain(&scaled, &t, &params, &key.grant_all()).unwrap();
            let psnr = psnr_rgb(&recovered, &reference);
            let baseline = psnr_rgb(&scaled, &reference);
            assert!(
                psnr > baseline + 5.0,
                "seed {seed}: shadow recovery {psnr} dB vs baseline {baseline} dB"
            );
            psnr_sum += psnr;
            baseline_sum += baseline;
        }
        let mean = psnr_sum / seeds.len() as f64;
        let mean_baseline = baseline_sum / seeds.len() as f64;
        assert!(
            mean > mean_baseline + 8.0 && mean > 28.0,
            "mean shadow recovery {mean} dB vs baseline {mean_baseline} dB"
        );
    }

    #[test]
    fn full_range_profile_shadow_is_limited_by_clamping() {
        // A negative result the paper does not report: with the paper's own
        // full-range medium profile, pixel clamping at the PSP destroys so
        // much information that pixel-domain shadow recovery barely helps.
        // The transform-friendly profile is the fix. EXPERIMENTS.md
        // discusses this in the Fig. 16 section.
        fn recovery_psnr(opts: &ProtectOptions) -> f64 {
            let (img, protected, key) = protect_with(opts);
            let t = Transformation::Scale {
                width: 32,
                height: 32,
                filter: puppies_transform::ScaleFilter::Bilinear,
            };
            let perturbed_rgb = CoeffImage::decode(&protected.bytes).unwrap().to_rgb();
            let scaled = t.apply_to_rgb(&perturbed_rgb).unwrap();
            let mut params = protected.params.clone();
            params.transformation = Some(t.clone());
            let recovered = recover_pixel_domain(&scaled, &t, &params, &key.grant_all()).unwrap();
            let reference = t
                .apply_to_rgb(&CoeffImage::from_rgb(&img, 75).to_rgb())
                .unwrap();
            psnr_rgb(&recovered, &reference)
        }
        let full = recovery_psnr(&ProtectOptions::new(
            Scheme::Compression,
            PrivacyLevel::Medium,
        ));
        let friendly = recovery_psnr(&ProtectOptions::from_profile(
            PerturbProfile::transform_friendly(),
        ));
        assert!(
            friendly > full + 10.0,
            "transform-friendly {friendly} dB should dominate full-range {full} dB"
        );
        assert!(
            full < 25.0,
            "full-range clamping loss should be visible: {full}"
        );
    }

    #[test]
    fn shadow_planes_zero_outside_roi() {
        let opts = ProtectOptions::new(Scheme::Compression, PrivacyLevel::Medium);
        let (_, protected, key) = protect_with(&opts);
        let shadows = shadow_planes(&protected.params, &key.grant_all(), 3).unwrap();
        for s in &shadows {
            assert_eq!(s.get(0, 0), 0.0);
            assert_eq!(s.get(63, 63), 0.0);
        }
        let (lo, hi) = shadows[0].min_max();
        assert!(hi > 1.0 || lo < -1.0, "shadow should be nonzero in ROI");
    }

    #[test]
    fn empty_grant_shadow_is_zero() {
        let opts = ProtectOptions::new(Scheme::Compression, PrivacyLevel::Medium);
        let (_, protected, _) = protect_with(&opts);
        let shadows = shadow_planes(&protected.params, &crate::keys::KeyGrant::empty(), 3).unwrap();
        for s in &shadows {
            let (lo, hi) = s.min_max();
            assert_eq!((lo, hi), (0.0, 0.0));
        }
    }

    #[test]
    fn none_transformation_falls_back_to_scenario1() {
        let opts = ProtectOptions::default();
        let (img, protected, key) = protect_with(&opts);
        let recovered =
            recover_transformed(&protected.bytes, &protected.params, &key.grant_all()).unwrap();
        assert_eq!(recovered, CoeffImage::from_rgb(&img, 75).to_rgb());
    }
}

//! Recovery oracles: the paper's central claim as an executable matrix.
//!
//! For every transformation in `puppies-transform` × every ROI shape ×
//! every key/params setting, assert
//! `recover(transform(protect(img))) == transform(img)`:
//!
//! * **coefficient-exact** for the jpegtran-style lossless path (aligned
//!   crop, 90°·k rotations, flips) — Lemma III.1 plus §IV-C block
//!   permutation commutativity claims exactness, so the oracle is
//!   pixel-for-pixel equality;
//! * **PSNR-bounded** where the paper only claims approximate recovery:
//!   recompression (requantization error) and the pixel-domain shadow path
//!   (scale/filter under the transform-friendly profile, §IV-C / Fig. 16);
//! * **documented skips** where the repo documents no guarantee: pixel-domain
//!   recovery under full-range profiles is clamping-limited (see
//!   `shadow::full_range_profile_shadow_is_limited_by_clamping`), so those
//!   combinations run as smoke tests (must not error) but assert no bound;
//! * **clean rejection** for Overlay, which has no per-plane linear form —
//!   `recover_transformed` must return an error, not garbage or a panic.
//!
//! The settings axis doubles as the scheme/embedding ablation: all four
//! schemes (PuPPIeS-N/B/C/Z) appear, plus the transform-friendly profile
//! and a Standard-Huffman (Annex K embedding) variant.

use puppies_core::shadow::recover_transformed;
use puppies_core::{protect, OwnerKey, PerturbProfile, PrivacyLevel, ProtectOptions, Scheme};
use puppies_image::metrics::psnr_rgb;
use puppies_image::{Rect, RgbImage};
use puppies_jpeg::{CoeffImage, EncodeOptions, HuffmanMode};
use puppies_transform::{FilterOp, ScaleFilter, Transformation};

use crate::golden::fixture_image;
use crate::report::Report;

/// Quality at which the simulated PSP re-encodes pixel-domain outputs.
/// High quality keeps the re-encode loss small relative to the shadow
/// recovery gain; a real PSP picks its own value.
const PSP_REENCODE_QUALITY: u8 = 90;

/// One key/params setting in the matrix.
pub struct Setting {
    /// Stable name used in case ids.
    pub name: &'static str,
    /// Owner seed (the key axis of the matrix).
    pub seed: [u8; 32],
    /// Protect options (the params axis).
    pub opts: ProtectOptions,
    /// Whether the pixel-domain shadow path carries a PSNR guarantee for
    /// this setting (only the transform-friendly profile does).
    pub pixel_domain_bounded: bool,
}

/// One named ROI shape set.
pub struct RoiSet {
    /// Stable name used in case ids.
    pub name: &'static str,
    /// Raw rectangles handed to `protect` (aligned by `RoiPlan`).
    pub rects: Vec<Rect>,
}

/// The default 64×48 matrix: every transformation × 4 ROI shapes × 6
/// key/params settings.
pub struct Matrix {
    /// Source image (procedural fixture by default).
    pub image: RgbImage,
    /// ROI shape axis.
    pub roi_sets: Vec<RoiSet>,
    /// Key/params axis.
    pub settings: Vec<Setting>,
    /// Transformation axis.
    pub transformations: Vec<(&'static str, Transformation)>,
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix {
            image: fixture_image(),
            roi_sets: default_roi_sets(),
            settings: default_settings(),
            transformations: default_transformations(),
        }
    }
}

/// ROI shapes: a centered region, two disjoint regions, the whole image,
/// and an off-grid rectangle that exercises `RoiPlan` alignment.
pub fn default_roi_sets() -> Vec<RoiSet> {
    vec![
        RoiSet {
            name: "center",
            rects: vec![Rect::new(16, 8, 32, 24)],
        },
        RoiSet {
            name: "disjoint2",
            rects: vec![Rect::new(0, 8, 16, 16), Rect::new(48, 24, 16, 16)],
        },
        RoiSet {
            name: "full",
            rects: vec![Rect::new(0, 0, 64, 48)],
        },
        RoiSet {
            name: "offgrid",
            rects: vec![Rect::new(13, 9, 30, 25)],
        },
    ]
}

/// Key/params settings: all four schemes (the N/B DC-scheme ablation plus
/// C/Z), the transform-friendly profile, and a Standard-Huffman embedding
/// variant.
pub fn default_settings() -> Vec<Setting> {
    vec![
        Setting {
            name: "naive_medium",
            seed: [11u8; 32],
            opts: ProtectOptions::new(Scheme::Naive, PrivacyLevel::Medium).with_image_id(1),
            pixel_domain_bounded: false,
        },
        Setting {
            name: "base_high",
            seed: [9u8; 32],
            opts: ProtectOptions::new(Scheme::Base, PrivacyLevel::High).with_image_id(2),
            pixel_domain_bounded: false,
        },
        Setting {
            name: "comp_low",
            seed: [5u8; 32],
            opts: ProtectOptions::new(Scheme::Compression, PrivacyLevel::Low).with_image_id(3),
            pixel_domain_bounded: false,
        },
        Setting {
            name: "zero_medium",
            seed: [3u8; 32],
            opts: ProtectOptions::new(Scheme::Zero, PrivacyLevel::Medium).with_image_id(4),
            pixel_domain_bounded: false,
        },
        Setting {
            name: "zero_medium_stdhuff",
            seed: [3u8; 32],
            opts: ProtectOptions::new(Scheme::Zero, PrivacyLevel::Medium)
                .with_image_id(5)
                .with_huffman(HuffmanMode::Standard),
            pixel_domain_bounded: false,
        },
        Setting {
            name: "transform_friendly",
            seed: [3u8; 32],
            opts: ProtectOptions::from_profile(PerturbProfile::transform_friendly())
                .with_image_id(6),
            pixel_domain_bounded: true,
        },
    ]
}

/// Every `Transformation` variant, with two scale filters and three filter
/// ops so each enum arm and each kernel family appears at least once.
pub fn default_transformations() -> Vec<(&'static str, Transformation)> {
    vec![
        ("rot90", Transformation::Rotate90),
        ("rot180", Transformation::Rotate180),
        ("rot270", Transformation::Rotate270),
        ("fliph", Transformation::FlipHorizontal),
        ("flipv", Transformation::FlipVertical),
        ("crop", Transformation::Crop(Rect::new(8, 8, 40, 32))),
        ("recompress_q50", Transformation::Recompress { quality: 50 }),
        (
            "scale_half_bilinear",
            Transformation::Scale {
                width: 32,
                height: 24,
                filter: ScaleFilter::Bilinear,
            },
        ),
        (
            "scale_half_box",
            Transformation::Scale {
                width: 32,
                height: 24,
                filter: ScaleFilter::Box,
            },
        ),
        (
            "filter_gaussian",
            Transformation::Filter(FilterOp::Gaussian { sigma: 1.2 }),
        ),
        ("filter_sharpen", Transformation::Filter(FilterOp::Sharpen)),
        (
            "filter_box3",
            Transformation::Filter(FilterOp::Box { side: 3 }),
        ),
        (
            "overlay",
            Transformation::Overlay {
                rect: Rect::new(16, 8, 32, 24),
                color: puppies_image::Rgb::new(0, 0, 0),
                alpha: 1.0,
            },
        ),
    ]
}

/// PSNR floors (dB) for the approximate-recovery arms. Derived from
/// measured values on the fixture matrix with ≥3 dB of slack; the measured
/// value is recorded in each case's detail line so drift is visible before
/// it fails.
pub mod bounds {
    /// Recompression recovery must beat the unrecovered perturbed image by
    /// this margin (all settings — requantization error is bounded by the
    /// coarser quant step regardless of scheme).
    pub const RECOMPRESS_MARGIN_DB: f64 = 2.0;
    /// Absolute floor for recompression recovery under profiles whose
    /// perturbation survives requantization well: the transform-friendly
    /// bounded ranges, the Compression scheme (small perturbations by
    /// construction), and the Zero scheme (ZInd keeps the sparse support
    /// decodable). Measured 26.4–26.9 dB across the matrix; floor leaves
    /// ~4 dB slack. Naive/Base at full range are margin-only: large
    /// perturbations requantize coarsely and wrap, so only relative
    /// improvement is guaranteed (measured 14.5–21.2 dB).
    pub const RECOMPRESS_ABS_DB: f64 = 22.0;
    /// Pixel-domain shadow recovery (transform-friendly only) must beat
    /// the unrecovered baseline by this margin. Sharpen gets a reduced
    /// margin (see `shadow_bounds`): its overshoot is clamped at the PSP,
    /// a nonlinearity the linear shadow cannot model (measured margins
    /// 2.1–3.7 dB vs ≥5 dB for smoothing kernels).
    pub const SHADOW_MARGIN_DB: f64 = 4.0;
    /// Reduced margin for the overshooting Sharpen kernel.
    pub const SHADOW_SHARPEN_MARGIN_DB: f64 = 1.5;
    /// Absolute floor for shadow recovery with partial-image ROIs (Fig. 16
    /// lands near 30 dB for a 2× downscale; measured minimum 24.3 dB on
    /// the off-grid ROI).
    pub const SHADOW_ABS_DB: f64 = 22.0;
    /// Absolute floor when the ROI spans the whole image: interpolation
    /// error then applies to every block, costing ~3 dB (measured 21.8 dB
    /// for a 2× downscale).
    pub const SHADOW_FULL_ROI_ABS_DB: f64 = 19.0;
}

/// Per-cell PSNR bounds for the pixel-domain shadow path: `(margin, abs)`.
///
/// Sharpen's clamped overshoot is nonlinear, so only a reduced margin is
/// claimed and no absolute floor; a whole-image ROI lowers the absolute
/// floor because interpolation error then covers every block.
fn shadow_bounds(t: &Transformation, full_coverage: bool) -> (f64, f64) {
    if matches!(t, Transformation::Filter(FilterOp::Sharpen)) {
        return (bounds::SHADOW_SHARPEN_MARGIN_DB, 0.0);
    }
    if full_coverage {
        (bounds::SHADOW_MARGIN_DB, bounds::SHADOW_FULL_ROI_ABS_DB)
    } else {
        (bounds::SHADOW_MARGIN_DB, bounds::SHADOW_ABS_DB)
    }
}

/// Runs one (transformation, roi set, setting) cell. Returns the case via
/// the report.
fn run_case(
    report: &mut Report,
    img: &RgbImage,
    t_name: &str,
    t: &Transformation,
    rois: &RoiSet,
    setting: &Setting,
) {
    let case = format!("oracle/{t_name}/{}/{}", rois.name, setting.name);
    let key = OwnerKey::from_seed(setting.seed);
    let grant = key.grant_all();
    let protected = match protect(img, &rois.rects, &key, &setting.opts) {
        Ok(p) => p,
        Err(e) => {
            report.fail(case, format!("protect failed: {e}"));
            return;
        }
    };
    let reference_coeff = CoeffImage::from_rgb(img, setting.opts.quality);

    if t.is_coeff_domain(img.width(), img.height()) {
        // Simulated PSP: decode, lossless coefficient-domain op, re-encode.
        let psp_out = CoeffImage::decode(&protected.bytes)
            .and_then(|c| {
                t.apply_to_coeff(&c)
                    .map_err(|e| puppies_jpeg::JpegError::Malformed(e.to_string()))
            })
            .and_then(|c| c.encode(&EncodeOptions::default()));
        let bytes = match psp_out {
            Ok(b) => b,
            Err(e) => {
                report.fail(case, format!("psp coeff transform failed: {e}"));
                return;
            }
        };
        let mut params = protected.params.clone();
        params.transformation = Some(t.clone());
        let recovered = match recover_transformed(&bytes, &params, &grant) {
            Ok(r) => r,
            Err(e) => {
                report.fail(case, format!("recover_transformed failed: {e}"));
                return;
            }
        };
        if let Transformation::Recompress { .. } = t {
            // Approximate: requantization error, bounded by the coarser
            // quant step. Exact only when nothing was perturbed away from
            // the coarse grid — not in general.
            let reference = reference_coeff.to_rgb();
            let perturbed = match puppies_jpeg::decode_rgb(&bytes) {
                Ok(p) => p,
                Err(e) => {
                    report.fail(case, format!("decode of psp output failed: {e}"));
                    return;
                }
            };
            let psnr = psnr_rgb(&recovered, &reference);
            let baseline = psnr_rgb(&perturbed, &reference);
            let bounded_profile = setting.opts.profile.dc_range <= 64
                || matches!(
                    setting.opts.profile.scheme,
                    Scheme::Compression | Scheme::Zero
                );
            let abs_floor = if bounded_profile {
                bounds::RECOMPRESS_ABS_DB
            } else {
                0.0
            };
            let detail = format!("psnr {psnr:.1} dB, baseline {baseline:.1} dB");
            if psnr > baseline + bounds::RECOMPRESS_MARGIN_DB && psnr > abs_floor {
                report.pass(case, Some(detail));
            } else {
                report.fail(
                    case,
                    format!(
                        "{detail}; need margin > {} dB and abs > {abs_floor} dB",
                        bounds::RECOMPRESS_MARGIN_DB
                    ),
                );
            }
        } else {
            // Lossless path: pixel-for-pixel equality with the
            // transformation of the never-perturbed reference.
            let expected = match t.apply_to_coeff(&reference_coeff) {
                Ok(c) => c.to_rgb(),
                Err(e) => {
                    report.fail(case, format!("reference transform failed: {e}"));
                    return;
                }
            };
            if recovered == expected {
                report.pass(case, Some("coefficient-exact".into()));
            } else {
                let psnr = psnr_rgb(&recovered, &expected);
                report.fail(
                    case,
                    format!("exactness violated: recovered differs, psnr {psnr:.1} dB"),
                );
            }
        }
        return;
    }

    // Pixel-domain path (scale / filter / overlay).
    let perturbed_rgb = match CoeffImage::decode(&protected.bytes) {
        Ok(c) => c.to_rgb(),
        Err(e) => {
            report.fail(case, format!("decode of protected image failed: {e}"));
            return;
        }
    };
    let transformed = match t.apply_to_rgb(&perturbed_rgb) {
        Ok(o) => o,
        Err(e) => {
            report.fail(case, format!("psp pixel transform failed: {e}"));
            return;
        }
    };
    let bytes = match puppies_jpeg::encode_rgb(&transformed, PSP_REENCODE_QUALITY) {
        Ok(b) => b,
        Err(e) => {
            report.fail(case, format!("psp re-encode failed: {e}"));
            return;
        }
    };
    let mut params = protected.params.clone();
    params.transformation = Some(t.clone());

    if matches!(t, Transformation::Overlay { .. }) {
        // No per-plane linear form: the receiver must get a clean error.
        match recover_transformed(&bytes, &params, &grant) {
            Err(e) => report.pass(case, Some(format!("cleanly rejected: {e}"))),
            Ok(_) => report.fail(
                case,
                "overlay has no shadow form but recover_transformed returned an image",
            ),
        }
        return;
    }

    let recovered = match recover_transformed(&bytes, &params, &grant) {
        Ok(r) => r,
        Err(e) => {
            report.fail(case, format!("recover_transformed failed: {e}"));
            return;
        }
    };
    let expected = match t.apply_to_rgb(&reference_coeff.to_rgb()) {
        Ok(o) => o,
        Err(e) => {
            report.fail(case, format!("reference transform failed: {e}"));
            return;
        }
    };
    if recovered.width() != expected.width() || recovered.height() != expected.height() {
        report.fail(
            case,
            format!(
                "dimension mismatch: recovered {}x{}, expected {}x{}",
                recovered.width(),
                recovered.height(),
                expected.width(),
                expected.height()
            ),
        );
        return;
    }
    let psnr = psnr_rgb(&recovered, &expected);
    let baseline = psnr_rgb(&transformed, &expected);
    let detail = format!("psnr {psnr:.1} dB, baseline {baseline:.1} dB");
    if setting.pixel_domain_bounded {
        let full_coverage = rois
            .rects
            .iter()
            .any(|r| r.x == 0 && r.y == 0 && r.w == img.width() && r.h == img.height());
        let (margin, abs) = shadow_bounds(t, full_coverage);
        if psnr > baseline + margin && psnr > abs {
            report.pass(case, Some(detail));
        } else {
            report.fail(
                case,
                format!("{detail}; need margin > {margin} dB and abs > {abs} dB"),
            );
        }
    } else {
        // Full-range profiles: clamping destroys the shadow (documented
        // negative result), so only the smoke properties are asserted.
        report.skip(
            case,
            format!("no pixel-domain bound for full-range profile; measured {detail}"),
        );
    }
}

/// Runs the full oracle matrix.
pub fn run_matrix(m: &Matrix) -> Report {
    let mut report = Report::new();
    for (t_name, t) in &m.transformations {
        for rois in &m.roi_sets {
            for setting in &m.settings {
                run_case(&mut report, &m.image, t_name, t, rois, setting);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_axes_meet_issue_floor() {
        let m = Matrix::default();
        assert!(m.roi_sets.len() >= 3, "need ≥3 ROI shapes");
        assert!(m.settings.len() >= 2, "need ≥2 key/params settings");
        // Every Transformation variant is represented.
        let has = |f: fn(&Transformation) -> bool| m.transformations.iter().any(|(_, t)| f(t));
        assert!(has(|t| matches!(t, Transformation::Scale { .. })));
        assert!(has(|t| matches!(t, Transformation::Crop(_))));
        assert!(has(|t| matches!(t, Transformation::Rotate90)));
        assert!(has(|t| matches!(t, Transformation::Rotate180)));
        assert!(has(|t| matches!(t, Transformation::Rotate270)));
        assert!(has(|t| matches!(t, Transformation::FlipHorizontal)));
        assert!(has(|t| matches!(t, Transformation::FlipVertical)));
        assert!(has(|t| matches!(t, Transformation::Recompress { .. })));
        assert!(has(|t| matches!(t, Transformation::Filter(_))));
        assert!(has(|t| matches!(t, Transformation::Overlay { .. })));
    }

    #[test]
    fn single_cell_passes() {
        // One exact cell end-to-end as a unit test; the full matrix runs in
        // the integration test and the CLI.
        let m = Matrix::default();
        let mut report = Report::new();
        run_case(
            &mut report,
            &m.image,
            "rot90",
            &Transformation::Rotate90,
            &m.roi_sets[0],
            &m.settings[3],
        );
        assert!(report.is_ok(), "{}", report.render());
    }
}

//! Differential tests: the codec checked against itself.
//!
//! Three families, in the spirit of P3's bit-level codec fidelity audits
//! and the JPEG fixed-point literature (Si & Lyu):
//!
//! 1. **Coefficient vs pixel domain**: every lossless coefficient-domain
//!    transformation is cross-checked against the pixel-domain reference
//!    path on decoded output — `apply_to_coeff(c).to_rgb()` must match the
//!    same geometric operation applied to `c.to_rgb()`. Crop is a pure
//!    block copy and must be byte-exact; rotations and flips permute and
//!    sign-flip coefficients before the IDCT, so the two float evaluation
//!    orders may differ by one quantization step — the documented bound is
//!    `max_abs_diff ≤ 1` (matching the transform crate's own contract).
//! 2. **Codec round-trip**: `decode(encode(x)) == x` at the coefficient
//!    level for both Huffman modes and several qualities — entropy coding
//!    must be lossless, only quantization may lose information.
//! 3. **Recompression fixed point**: repeatedly decoding and re-encoding
//!    at the same quality must converge — successive iterates stop
//!    changing (the idempotence window) rather than drifting.
//! 4. **DC-only decode**: `codec::decode_dc` must accept exactly the
//!    streams `CoeffImage::decode` accepts, and return the same luma DC
//!    grid, on every golden JPEG vector and on every prefix truncation and
//!    single-byte mutation of a small protected stream.

use puppies_core::{protect, OwnerKey, PrivacyLevel, ProtectOptions, Scheme};
use puppies_image::metrics::{max_abs_diff_rgb, mse_rgb, psnr_rgb};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::codec::decode_dc;
use puppies_jpeg::{CoeffImage, EncodeOptions};
use puppies_transform::Transformation;

use crate::golden::{derive_vectors, fixture_image};
use crate::report::Report;

/// Pixel-domain reference for a lossless coefficient-domain op: apply the
/// same geometry directly to the decoded pixels.
fn pixel_reference(t: &Transformation, rgb: &RgbImage) -> Option<RgbImage> {
    match *t {
        Transformation::Rotate90 => Some(RgbImage::from_fn(rgb.height(), rgb.width(), |x, y| {
            rgb.get(y, rgb.height() - 1 - x)
        })),
        Transformation::Rotate180 => Some(RgbImage::from_fn(rgb.width(), rgb.height(), |x, y| {
            rgb.get(rgb.width() - 1 - x, rgb.height() - 1 - y)
        })),
        Transformation::Rotate270 => Some(RgbImage::from_fn(rgb.height(), rgb.width(), |x, y| {
            rgb.get(rgb.width() - 1 - y, x)
        })),
        Transformation::FlipHorizontal => {
            Some(RgbImage::from_fn(rgb.width(), rgb.height(), |x, y| {
                rgb.get(rgb.width() - 1 - x, y)
            }))
        }
        Transformation::FlipVertical => {
            Some(RgbImage::from_fn(rgb.width(), rgb.height(), |x, y| {
                rgb.get(x, rgb.height() - 1 - y)
            }))
        }
        Transformation::Crop(r) => Some(RgbImage::from_fn(r.w, r.h, |x, y| {
            rgb.get(r.x + x, r.y + y)
        })),
        _ => None,
    }
}

/// Family 1: coefficient-domain ops vs the pixel-domain reference.
pub fn coeff_vs_pixel(report: &mut Report) {
    let img = fixture_image();
    let coeff = CoeffImage::from_rgb(&img, 75);
    let decoded = coeff.to_rgb();
    let ops: [(&str, Transformation); 6] = [
        ("rot90", Transformation::Rotate90),
        ("rot180", Transformation::Rotate180),
        ("rot270", Transformation::Rotate270),
        ("fliph", Transformation::FlipHorizontal),
        ("flipv", Transformation::FlipVertical),
        ("crop", Transformation::Crop(Rect::new(8, 16, 48, 24))),
    ];
    for (name, t) in ops {
        let case = format!("differential/coeff-vs-pixel/{name}");
        let via_coeff = match t.apply_to_coeff(&coeff) {
            Ok(c) => c.to_rgb(),
            Err(e) => {
                report.fail(case, format!("coeff path failed: {e}"));
                continue;
            }
        };
        let via_pixels = pixel_reference(&t, &decoded).expect("lossless op");
        // Crop copies blocks untouched, so the IDCT evaluates identically;
        // rotations/flips permute coefficients first and are allowed one
        // rounding step of float divergence.
        let tolerance = if matches!(t, Transformation::Crop(_)) {
            0
        } else {
            1
        };
        let diff = max_abs_diff_rgb(&via_coeff, &via_pixels);
        if diff <= tolerance {
            let detail = if diff == 0 { "exact" } else { "max |Δ| = 1" };
            report.pass(case, Some(detail.into()));
        } else {
            let psnr = psnr_rgb(&via_coeff, &via_pixels);
            report.fail(
                case,
                format!(
                    "coefficient path diverges from pixel reference: max |Δ| = {diff}, psnr {psnr:.1} dB"
                ),
            );
        }
    }
}

/// Family 2: entropy coding round-trips losslessly at the coefficient
/// level for both Huffman modes.
pub fn codec_roundtrip(report: &mut Report) {
    let img = fixture_image();
    for quality in [35u8, 75, 95] {
        for (mode, opts) in [
            ("optimized", EncodeOptions::default()),
            ("standard", EncodeOptions::standard()),
        ] {
            let case = format!("differential/codec-roundtrip/q{quality}_{mode}");
            let coeff = CoeffImage::from_rgb(&img, quality);
            let result = coeff
                .encode(&opts)
                .and_then(|bytes| CoeffImage::decode(&bytes));
            match result {
                Ok(back) => {
                    let same = back.width() == coeff.width()
                        && back.height() == coeff.height()
                        && back
                            .components()
                            .iter()
                            .zip(coeff.components())
                            .all(|(a, b)| a.blocks() == b.blocks() && a.quant() == b.quant());
                    if same {
                        report.pass(case, Some("coefficient-exact".into()));
                    } else {
                        report.fail(case, "decode(encode(x)) != x at the coefficient level");
                    }
                }
                Err(e) => report.fail(case, format!("round-trip failed: {e}")),
            }
        }
    }
}

/// Family 3: repeated recompression at a fixed quality converges to a
/// fixed point (or a tiny limit cycle) instead of drifting.
pub fn recompression_fixed_point(report: &mut Report) {
    let img = fixture_image();
    for quality in [50u8, 75] {
        let case = format!("differential/fixed-point/q{quality}");
        let mut current = img.clone();
        let mut diffs: Vec<f64> = Vec::new();
        let mut converged_at = None;
        for i in 0..12 {
            let bytes = match puppies_jpeg::encode_rgb(&current, quality) {
                Ok(b) => b,
                Err(e) => {
                    report.fail(case.clone(), format!("encode #{i} failed: {e}"));
                    return;
                }
            };
            let next = match puppies_jpeg::decode_rgb(&bytes) {
                Ok(n) => n,
                Err(e) => {
                    report.fail(case.clone(), format!("decode #{i} failed: {e}"));
                    return;
                }
            };
            let d = mse_rgb(&current, &next);
            diffs.push(d);
            if d == 0.0 {
                converged_at = Some(i);
                break;
            }
            current = next;
        }
        let last = *diffs.last().unwrap();
        let detail = format!(
            "iteration MSEs {:?}, fixed point after {} re-encodes",
            diffs
                .iter()
                .map(|d| (d * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            converged_at.map_or("not reached".to_string(), |i| i.to_string()),
        );
        // The contraction claim: the tail step must be far smaller than the
        // first step, and an exact fixed point must be reached within the
        // budget (this codec has no rounding dither, so iterates settle).
        if converged_at.is_some() && diffs[0] > last {
            report.pass(case, Some(detail));
        } else {
            report.fail(case, format!("recompression does not converge: {detail}"));
        }
    }
}

/// Whether the DC-only decode of `bytes` agrees with the full decode:
/// both reject, or both accept with equal dimensions, DC grid and step.
fn dc_walk_agrees(bytes: &[u8]) -> Result<(), String> {
    match (CoeffImage::decode(bytes), decode_dc(bytes)) {
        (Ok(img), Ok(grid)) if img.dc_grid() == grid => Ok(()),
        (Ok(_), Ok(_)) => Err("both accept, but the luma DC grids differ".into()),
        (Err(_), Err(_)) => Ok(()),
        (full, dc) => Err(format!(
            "decode {:?} vs decode_dc {:?}",
            full.map(|_| ()),
            dc.map(|_| ())
        )),
    }
}

/// Family 4: the DC-only decode mode against the full decode.
pub fn dc_walk_vs_decode(report: &mut Report) {
    for (name, bytes) in derive_vectors(&fixture_image()) {
        if name.ends_with(".jpg") {
            let case = format!("differential/dc-walk/golden/{name}");
            match dc_walk_agrees(&bytes) {
                Ok(()) => report.pass(case, None),
                Err(e) => report.fail(case, e),
            }
        }
    }
    // A small protected stream: its perturbed ROI blocks carry the large
    // coefficients and per-image tables a plain encode would not.
    let img = RgbImage::from_fn(24, 16, |x, y| {
        Rgb::new((x * 9 + y) as u8, (y * 13) as u8, (x * y) as u8)
    });
    let opts = ProtectOptions::new(Scheme::Compression, PrivacyLevel::High).with_image_id(3);
    let bytes = protect(
        &img,
        &[Rect::new(8, 0, 8, 8)],
        &OwnerKey::from_seed([5; 32]),
        &opts,
    )
    .expect("small fixture protects")
    .bytes;
    let truncations = (0..bytes.len()).map(|cut| (format!("cut {cut}"), bytes[..cut].to_vec()));
    let flips = (0..bytes.len()).flat_map(|pos| {
        [0x01u8, 0x10, 0x80, 0xFF].map(|mask| {
            let mut m = bytes.clone();
            m[pos] ^= mask;
            (format!("byte {pos} ^ {mask:#04x}"), m)
        })
    });
    for (family, streams) in [
        ("truncations", truncations.collect::<Vec<_>>()),
        ("flips", flips.collect()),
    ] {
        let case = format!("differential/dc-walk/{family}");
        let accepted = streams.iter().filter(|(_, s)| decode_dc(s).is_ok()).count();
        match streams
            .iter()
            .find_map(|(what, s)| dc_walk_agrees(s).err().map(|e| format!("{what}: {e}")))
        {
            None => report.pass(
                case,
                Some(format!(
                    "{} streams of a {}-byte protected JPEG, {accepted} accepted by both",
                    streams.len(),
                    bytes.len()
                )),
            ),
            Some(e) => report.fail(case, e),
        }
    }
}

/// Runs all differential families.
pub fn run_differential() -> Report {
    let mut report = Report::new();
    coeff_vs_pixel(&mut report);
    codec_roundtrip(&mut report);
    recompression_fixed_point(&mut report);
    dc_walk_vs_decode(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_suite_is_green() {
        let report = run_differential();
        assert!(report.is_ok(), "{}", report.render());
    }
}

//! Property-based invariants of the transformation layer: the lossless
//! coefficient-domain paths must agree with the pixel-domain paths on
//! arbitrary content, and the pixel geometry must be a bijection.

use proptest::prelude::*;
use puppies_image::metrics::max_abs_diff_rgb;
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::CoeffImage;
use puppies_transform::Transformation;

fn arb_image() -> impl Strategy<Value = RgbImage> {
    (2u32..48, 2u32..48, any::<u32>()).prop_map(|(w, h, seed)| {
        RgbImage::from_fn(w, h, |x, y| {
            let v = x
                .wrapping_mul(seed | 1)
                .wrapping_add(y.wrapping_mul(seed.rotate_left(7) | 1));
            Rgb::new(
                (v % 256) as u8,
                ((v >> 8) % 256) as u8,
                ((v >> 16) % 256) as u8,
            )
        })
    })
}

fn arb_aligned_image() -> impl Strategy<Value = RgbImage> {
    // Dimensions multiples of 8 so every coefficient-domain op applies.
    (1u32..6, 1u32..6, any::<u32>()).prop_map(|(bw, bh, seed)| {
        let (w, h) = (bw * 8, bh * 8);
        RgbImage::from_fn(w, h, |x, y| {
            let v = x
                .wrapping_mul(seed | 1)
                .wrapping_add(y.wrapping_mul(seed.rotate_left(11) | 3));
            Rgb::new(
                (v % 256) as u8,
                ((v >> 6) % 256) as u8,
                ((v >> 12) % 256) as u8,
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coeff_rotations_match_pixel_rotations(img in arb_aligned_image(), q in 30u8..=95) {
        let coeff = CoeffImage::from_rgb(&img, q);
        let decoded = coeff.to_rgb();
        for t in [
            Transformation::Rotate90,
            Transformation::Rotate180,
            Transformation::Rotate270,
            Transformation::FlipHorizontal,
            Transformation::FlipVertical,
        ] {
            let via_coeff = t.apply_to_coeff(&coeff).unwrap().to_rgb();
            let via_pixels = t.apply_to_rgb(&decoded).unwrap();
            // The f32 AAN IDCT of a transposed/flipped block is not the
            // exact transpose/flip of the block's IDCT, so each YCbCr
            // channel can land one quantization code apart on tie values;
            // BT.601 mixing amplifies a worst-case co-occurrence to a few
            // RGB codes.
            prop_assert!(
                max_abs_diff_rgb(&via_coeff, &via_pixels) <= 3,
                "{:?} disagrees", t
            );
        }
    }

    #[test]
    fn pixel_rotations_and_flips_are_bijective(img in arb_image()) {
        let pairs = [
            (Transformation::Rotate90, Transformation::Rotate270),
            (Transformation::Rotate180, Transformation::Rotate180),
            (Transformation::FlipHorizontal, Transformation::FlipHorizontal),
            (Transformation::FlipVertical, Transformation::FlipVertical),
        ];
        for (t, inv) in pairs {
            let back = inv.apply_to_rgb(&t.apply_to_rgb(&img).unwrap()).unwrap();
            prop_assert_eq!(&back, &img, "{:?} then {:?}", t, inv);
        }
    }

    #[test]
    fn coeff_rotation_inverses_are_exact(img in arb_aligned_image(), q in 30u8..=95) {
        let coeff = CoeffImage::from_rgb(&img, q);
        let pairs = [
            (Transformation::Rotate90, Transformation::Rotate270),
            (Transformation::Rotate270, Transformation::Rotate90),
            (Transformation::Rotate180, Transformation::Rotate180),
            (Transformation::FlipHorizontal, Transformation::FlipHorizontal),
            (Transformation::FlipVertical, Transformation::FlipVertical),
        ];
        for (t, inv) in pairs {
            let back = inv.apply_to_coeff(&t.apply_to_coeff(&coeff).unwrap()).unwrap();
            prop_assert_eq!(&back, &coeff, "{:?} then {:?}", t, inv);
        }
    }

    #[test]
    fn aligned_coeff_crop_matches_pixel_crop(img in arb_aligned_image(), q in 30u8..=95, bx in 0u32..4, by in 0u32..4) {
        let coeff = CoeffImage::from_rgb(&img, q);
        let bw = img.width() / 8;
        let bh = img.height() / 8;
        let x = (bx % bw) * 8;
        let y = (by % bh) * 8;
        let w = img.width() - x;
        let h = img.height() - y;
        let r = Rect::new(x, y, w, h);
        let t = Transformation::Crop(r);
        let via_coeff = t.apply_to_coeff(&coeff).unwrap().to_rgb();
        let via_pixels = coeff.to_rgb().crop(r).unwrap();
        prop_assert_eq!(via_coeff, via_pixels);
    }

    #[test]
    fn output_size_contract_holds(img in arb_aligned_image()) {
        let w = img.width();
        let h = img.height();
        for t in [
            Transformation::Rotate90,
            Transformation::Rotate180,
            Transformation::FlipHorizontal,
            Transformation::Recompress { quality: 40 },
        ] {
            let want = t.output_size(w, h).unwrap();
            let got = t.apply_to_rgb(&img).unwrap();
            prop_assert_eq!((got.width(), got.height()), want);
        }
    }

    #[test]
    fn recompress_is_idempotent_at_same_quality(img in arb_aligned_image(), q in 20u8..=90) {
        // Requantizing twice at the same quality must be a no-op the
        // second time (quantized values are already step multiples).
        let coeff = CoeffImage::from_rgb(&img, 95);
        let t = Transformation::Recompress { quality: q };
        let once = t.apply_to_coeff(&coeff).unwrap();
        let twice = t.apply_to_coeff(&once).unwrap();
        prop_assert_eq!(once, twice);
    }
}

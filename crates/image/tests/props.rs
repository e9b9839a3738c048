//! Property-based invariants of the pixel substrate.

use proptest::prelude::*;
use puppies_image::geometry::decompose_disjoint;
use puppies_image::resample::{self, Filter};
use puppies_image::{Rect, Rgb, RgbImage};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0u32..64, 0u32..64, 1u32..48, 1u32..48).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn rect_intersection_is_contained(a in arb_rect(), b in arb_rect()) {
        let i = a.intersect(b);
        if !i.is_empty() {
            prop_assert!(a.contains_rect(i));
            prop_assert!(b.contains_rect(i));
        }
        let u = a.union(b);
        prop_assert!(u.contains_rect(a));
        prop_assert!(u.contains_rect(b));
    }

    #[test]
    fn rect_iou_is_symmetric_and_bounded(a in arb_rect(), b in arb_rect()) {
        let ab = a.iou(b);
        let ba = b.iou(a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn align_to_contains_original_when_unclipped(r in arb_rect()) {
        let aligned = r.align_to(8, 256, 256);
        prop_assert!(aligned.contains_rect(r));
        prop_assert_eq!(aligned.x % 8, 0);
        prop_assert_eq!(aligned.y % 8, 0);
        prop_assert_eq!(aligned.w % 8, 0);
        prop_assert_eq!(aligned.h % 8, 0);
    }

    #[test]
    fn decompose_disjoint_preserves_coverage(
        rects in proptest::collection::vec(arb_rect(), 0..6),
    ) {
        let parts = decompose_disjoint(&rects);
        // Pairwise disjoint.
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                prop_assert!(!a.overlaps(*b), "{:?} overlaps {:?}", a, b);
            }
        }
        // Area equality with the union.
        let union_area: u64 = parts.iter().map(|r| r.area()).sum();
        // Count covered cells on a grid (inputs are < 112 in extent).
        let mut covered = 0u64;
        for y in 0..120u32 {
            for x in 0..120u32 {
                if rects.iter().any(|r| r.contains(x, y)) {
                    covered += 1;
                }
            }
        }
        prop_assert_eq!(union_area, covered);
    }

    #[test]
    fn identity_scale_is_lossless(img in arb_image()) {
        for f in [Filter::Nearest, Filter::Bilinear, Filter::Box] {
            prop_assert_eq!(
                resample::scale_rgb(&img, img.width(), img.height(), f),
                img.clone()
            );
        }
    }

    #[test]
    fn scaling_preserves_value_range(img in arb_image(), nw in 1u32..64, nh in 1u32..64) {
        let out = resample::scale_rgb(&img, nw, nh, Filter::Box);
        prop_assert_eq!((out.width(), out.height()), (nw, nh));
        // Box filtering is an average: output values stay within the input
        // min/max per channel.
        let (mut lo, mut hi) = (255u8, 0u8);
        for p in img.pixels() {
            lo = lo.min(p.r);
            hi = hi.max(p.r);
        }
        for p in out.pixels() {
            prop_assert!(p.r >= lo.saturating_sub(1) && p.r <= hi.saturating_add(1));
        }
    }

    #[test]
    fn ppm_io_roundtrips(img in arb_image()) {
        let mut buf = Vec::new();
        puppies_image::io::write_ppm(&img, &mut buf).unwrap();
        prop_assert_eq!(puppies_image::io::read_ppm(&buf[..]).unwrap(), img);
    }

    #[test]
    fn integral_image_matches_naive(img in arb_image(), r in arb_rect()) {
        let gray = img.to_gray();
        let ii = puppies_image::integral::IntegralImage::build(&gray);
        let clipped = r.intersect(gray.bounds());
        let mut naive = 0u64;
        for y in clipped.y..clipped.bottom() {
            for x in clipped.x..clipped.right() {
                naive += gray.get(x, y) as u64;
            }
        }
        prop_assert_eq!(ii.sum(r), naive);
    }

    #[test]
    fn psnr_identity_and_symmetry(img in arb_image(), other in arb_image()) {
        use puppies_image::metrics::psnr_gray;
        let a = img.to_gray();
        prop_assert_eq!(psnr_gray(&a, &a), f64::INFINITY);
        if (other.width(), other.height()) == (img.width(), img.height()) {
            let b = other.to_gray();
            prop_assert!((psnr_gray(&a, &b) - psnr_gray(&b, &a)).abs() < 1e-9);
        }
    }

    #[test]
    fn gray_conversion_bounded(img in arb_image()) {
        // Luma of any pixel lies between its channel min and max.
        let gray = img.to_gray();
        for (p, &g) in img.pixels().iter().zip(gray.pixels()) {
            let lo = p.r.min(p.g).min(p.b);
            let hi = p.r.max(p.g).max(p.b);
            prop_assert!(g >= lo.saturating_sub(1) && g <= hi.saturating_add(1));
        }
    }
}

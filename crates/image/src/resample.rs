//! Resampling and channel splitting.
//!
//! Scaling is the pixel-domain transformation a PSP applies most (§II-B of
//! the paper); crops, rotations and flips move samples without resampling
//! and live with the `Transformation` type in `puppies-transform`. All of
//! them are deliberately *perturbation-agnostic*: the same code runs on
//! original and PuPPIeS-perturbed images, which is exactly the property the
//! paper relies on.

use crate::buffer::{GrayImage, Plane, RgbImage};
use crate::color::Rgb;

/// Resampling filter selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Filter {
    /// Nearest-neighbour (point) sampling.
    Nearest,
    /// Bilinear interpolation; the default, and what a typical PSP uses.
    #[default]
    Bilinear,
    /// Box (area-average) filter, best for strong downscaling.
    Box,
}

/// Scales an RGB image to `(nw, nh)` with the given filter.
///
/// # Panics
/// Panics if either target dimension is zero.
pub fn scale_rgb(src: &RgbImage, nw: u32, nh: u32, filter: Filter) -> RgbImage {
    assert!(nw > 0 && nh > 0, "target dimensions must be nonzero");
    // One full-size channel plane at a time: only the scaled planes are
    // held together.
    let scaled = [0, 1, 2].map(|c| scale_plane(&channel(src, c), nw, nh, filter));
    merge_channels(&scaled)
}

/// Scales a grayscale image to `(nw, nh)` with the given filter.
///
/// # Panics
/// Panics if either target dimension is zero.
pub fn scale_gray(src: &GrayImage, nw: u32, nh: u32, filter: Filter) -> GrayImage {
    scale_plane(&src.to_plane(), nw, nh, filter).to_gray()
}

/// Scales a float plane to `(nw, nh)` with the given filter. This is the
/// shared kernel for all scaling; running it on a plane keeps intermediate
/// precision, which matters for shadow-ROI subtraction.
///
/// # Panics
/// Panics if either target dimension is zero.
pub fn scale_plane(src: &Plane, nw: u32, nh: u32, filter: Filter) -> Plane {
    assert!(nw > 0 && nh > 0, "target dimensions must be nonzero");
    match filter {
        Filter::Nearest => scale_nearest(src, nw, nh),
        Filter::Bilinear => scale_bilinear(src, nw, nh),
        Filter::Box => scale_box(src, nw, nh),
    }
}

fn scale_nearest(src: &Plane, nw: u32, nh: u32) -> Plane {
    let (w, h) = (src.width(), src.height());
    Plane::from_fn(nw, nh, |x, y| {
        let sx = ((x as u64 * w as u64) / nw as u64).min(w as u64 - 1) as u32;
        let sy = ((y as u64 * h as u64) / nh as u64).min(h as u64 - 1) as u32;
        src.get(sx, sy)
    })
}

fn scale_bilinear(src: &Plane, nw: u32, nh: u32) -> Plane {
    let (w, h) = (src.width(), src.height());
    // Pixel-center convention. The source taps and weight of each output
    // column depend only on its x, and those of each row only on its y,
    // so both are computed once.
    let xtaps = bilinear_taps(w, nw);
    let ytaps = bilinear_taps(h, nh);
    let samples = src.samples();
    let mut out = Vec::with_capacity(nw as usize * nh as usize);
    for &(y0, y1, ty) in &ytaps {
        let top_row = &samples[y0 * w as usize..][..w as usize];
        let bot_row = &samples[y1 * w as usize..][..w as usize];
        out.extend(xtaps.iter().map(|&(x0, x1, tx)| {
            let (p00, p10) = (top_row[x0], top_row[x1]);
            let (p01, p11) = (bot_row[x0], bot_row[x1]);
            let top = p00 + (p10 - p00) * tx;
            let bot = p01 + (p11 - p01) * tx;
            top + (bot - top) * ty
        }));
    }
    Plane::from_raw(nw, nh, out)
}

/// The two clamped source indices and the weight of the second, for each
/// of `n` output samples resampled from `len` source samples.
fn bilinear_taps(len: u32, n: u32) -> Vec<(usize, usize, f32)> {
    let scale = len as f64 / n as f64;
    let last = len as i64 - 1;
    (0..n)
        .map(|i| {
            let f = (i as f64 + 0.5) * scale - 0.5;
            let i0 = f.floor();
            let t = (f - i0) as f32;
            let i0 = i0 as i64;
            (
                i0.clamp(0, last) as usize,
                (i0 + 1).clamp(0, last) as usize,
                t,
            )
        })
        .collect()
}

fn scale_box(src: &Plane, nw: u32, nh: u32) -> Plane {
    let (w, h) = (src.width() as f64, src.height() as f64);
    Plane::from_fn(nw, nh, |x, y| {
        let x0 = x as f64 * w / nw as f64;
        let x1 = (x + 1) as f64 * w / nw as f64;
        let y0 = y as f64 * h / nh as f64;
        let y1 = (y + 1) as f64 * h / nh as f64;
        let (ix0, ix1) = (x0.floor() as u32, (x1.ceil() as u32).min(src.width()));
        let (iy0, iy1) = (y0.floor() as u32, (y1.ceil() as u32).min(src.height()));
        let mut acc = 0.0f64;
        let mut wsum = 0.0f64;
        for py in iy0..iy1 {
            let wy = overlap(py as f64, py as f64 + 1.0, y0, y1);
            for px in ix0..ix1 {
                let wx = overlap(px as f64, px as f64 + 1.0, x0, x1);
                acc += src.get(px, py) as f64 * wx * wy;
                wsum += wx * wy;
            }
        }
        if wsum > 0.0 {
            (acc / wsum) as f32
        } else {
            src.get_clamped(x as i64, y as i64)
        }
    })
}

fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

/// Splits an RGB image into three float planes (R, G, B order).
pub fn split_channels(src: &RgbImage) -> [Plane; 3] {
    [0, 1, 2].map(|c| channel(src, c))
}

/// Channel `c` (0 = R, 1 = G, 2 = B) of an RGB image as a float plane.
fn channel(src: &RgbImage, c: usize) -> Plane {
    let samples = src
        .pixels()
        .iter()
        .map(|px| [px.r, px.g, px.b][c] as f32)
        .collect();
    Plane::from_raw(src.width(), src.height(), samples)
}

/// Merges three float planes (R, G, B) back into an RGB image with rounding
/// and clamping.
///
/// # Panics
/// Panics if the planes disagree in size.
pub fn merge_channels(planes: &[Plane; 3]) -> RgbImage {
    let (w, h) = (planes[0].width(), planes[0].height());
    assert!(
        planes.iter().all(|p| p.width() == w && p.height() == h),
        "plane sizes differ"
    );
    let to_u8 = |v: f32| v.round().clamp(0.0, 255.0) as u8;
    let mut img = RgbImage::new(w, h);
    let [r, g, b] = planes;
    for (((px, &r), &g), &b) in img
        .pixels_mut()
        .iter_mut()
        .zip(r.samples())
        .zip(g.samples())
        .zip(b.samples())
    {
        *px = Rgb::new(to_u8(r), to_u8(g), to_u8(b));
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            Rgb::new((x * 7 % 256) as u8, (y * 5 % 256) as u8, 99)
        })
    }

    #[test]
    fn identity_scale_is_lossless_for_all_filters() {
        let img = gradient(17, 13);
        for f in [Filter::Nearest, Filter::Bilinear, Filter::Box] {
            let out = scale_rgb(&img, 17, 13, f);
            assert_eq!(out, img, "{f:?}");
        }
    }

    #[test]
    fn constant_image_stays_constant_under_scaling() {
        let img = RgbImage::filled(20, 20, Rgb::new(100, 150, 200));
        for f in [Filter::Nearest, Filter::Bilinear, Filter::Box] {
            let out = scale_rgb(&img, 7, 31, f);
            for p in out.pixels() {
                assert_eq!(*p, Rgb::new(100, 150, 200), "{f:?}");
            }
        }
    }

    #[test]
    fn box_downscale_preserves_mean() {
        let img = gradient(64, 64).to_gray();
        let down = scale_gray(&img, 8, 8, Filter::Box);
        assert!((img.mean() - down.mean()).abs() < 1.5);
    }

    #[test]
    fn split_merge_roundtrip() {
        let img = gradient(10, 10);
        let planes = split_channels(&img);
        assert_eq!(merge_channels(&planes), img);
    }

    #[test]
    fn upscale_then_downscale_approximates_identity() {
        let img = gradient(16, 16).to_gray();
        let up = scale_gray(&img, 32, 32, Filter::Bilinear);
        let back = scale_gray(&up, 16, 16, Filter::Box);
        let mut max_err = 0i32;
        for (a, b) in img.pixels().iter().zip(back.pixels()) {
            max_err = max_err.max((*a as i32 - *b as i32).abs());
        }
        assert!(max_err <= 16, "max error {max_err} too large");
    }
}

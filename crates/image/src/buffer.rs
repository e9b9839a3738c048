//! Pixel buffers: [`RgbImage`], [`GrayImage`] and the float [`Plane`].

use crate::color::Rgb;
use crate::geometry::Rect;
use crate::{ImageError, Result};

/// A dense 8-bit RGB raster, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgbImage {
    width: u32,
    height: u32,
    data: Vec<Rgb>,
}

impl RgbImage {
    /// Creates a black image of the given size.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        RgbImage {
            width,
            height,
            data: vec![Rgb::BLACK; (width as usize) * (height as usize)],
        }
    }

    /// Creates an image filled with `color`.
    pub fn filled(width: u32, height: u32, color: Rgb) -> Self {
        let mut img = RgbImage::new(width, height);
        img.data.fill(color);
        img
    }

    /// Wraps an existing row-major pixel vector as an image, avoiding the
    /// fill and copy of going through [`RgbImage::new`].
    ///
    /// # Panics
    /// Panics if either dimension is zero or `data` has the wrong length.
    pub fn from_raw(width: u32, height: u32, data: Vec<Rgb>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert_eq!(
            data.len(),
            (width as usize) * (height as usize),
            "pixel vector length must be width*height"
        );
        RgbImage {
            width,
            height,
            data,
        }
    }

    /// Builds an image from a closure invoked per pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> Rgb) -> Self {
        let mut img = RgbImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The full-image rectangle.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize) * (self.width as usize) + x as usize
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgb {
        self.data[self.idx(x, y)]
    }

    /// Returns the pixel, clamping the coordinate to the image border
    /// (replicate padding).
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> Rgb {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.get(cx, cy)
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: Rgb) {
        let i = self.idx(x, y);
        self.data[i] = c;
    }

    /// Immutable access to the raw pixel slice (row-major).
    pub fn pixels(&self) -> &[Rgb] {
        &self.data
    }

    /// Mutable access to the raw pixel slice (row-major).
    pub fn pixels_mut(&mut self) -> &mut [Rgb] {
        &mut self.data
    }

    /// Extracts a copy of the pixels under `rect`.
    ///
    /// # Errors
    /// Returns [`ImageError::OutOfBounds`] if `rect` is not fully inside the
    /// image.
    pub fn crop(&self, rect: Rect) -> Result<RgbImage> {
        if rect.is_empty() || !self.bounds().contains_rect(rect) {
            return Err(ImageError::OutOfBounds {
                rect,
                width: self.width,
                height: self.height,
            });
        }
        let mut out = RgbImage::new(rect.w, rect.h);
        for y in 0..rect.h {
            for x in 0..rect.w {
                out.set(x, y, self.get(rect.x + x, rect.y + y));
            }
        }
        Ok(out)
    }

    /// Copies `src` into this image with its top-left corner at `(x, y)`,
    /// clipping at the borders.
    pub fn blit(&mut self, src: &RgbImage, x: u32, y: u32) {
        let w = src.width.min(self.width.saturating_sub(x));
        let h = src.height.min(self.height.saturating_sub(y));
        for dy in 0..h {
            for dx in 0..w {
                self.set(x + dx, y + dy, src.get(dx, dy));
            }
        }
    }

    /// Converts to a single-channel luma image.
    pub fn to_gray(&self) -> GrayImage {
        let mut g = GrayImage::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                g.set(x, y, self.get(x, y).luma());
            }
        }
        g
    }

    /// Splits into full-range Y, Cb, Cr planes.
    pub fn to_ycbcr_planes(&self) -> [Plane; 3] {
        let (y, cb, cr) = crate::color::rgb_to_ycbcr_vecs(&self.data);
        [
            Plane::from_raw(self.width, self.height, y),
            Plane::from_raw(self.width, self.height, cb),
            Plane::from_raw(self.width, self.height, cr),
        ]
    }

    /// Reassembles an RGB image from Y, Cb, Cr planes, rounding and clamping
    /// each channel to 8 bits.
    ///
    /// # Panics
    /// Panics if the planes disagree in size.
    pub fn from_ycbcr_planes(planes: &[Plane; 3]) -> RgbImage {
        let (w, h) = (planes[0].width(), planes[0].height());
        assert!(
            planes.iter().all(|p| p.width() == w && p.height() == h),
            "plane sizes differ"
        );
        let mut img = RgbImage::new(w, h);
        crate::color::ycbcr_to_rgb_slice(
            planes[0].samples(),
            planes[1].samples(),
            planes[2].samples(),
            &mut img.data,
        );
        img
    }
}

/// A dense 8-bit single-channel raster, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates a black image of the given size.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        GrayImage {
            width,
            height,
            data: vec![0; (width as usize) * (height as usize)],
        }
    }

    /// Creates an image filled with `value`.
    pub fn filled(width: u32, height: u32, value: u8) -> Self {
        let mut img = GrayImage::new(width, height);
        img.data.fill(value);
        img
    }

    /// Builds an image from a closure invoked per pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> u8) -> Self {
        let mut img = GrayImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The full-image rectangle.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize) * (self.width as usize) + x as usize
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        self.data[self.idx(x, y)]
    }

    /// Returns the pixel, clamping the coordinate to the image border.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> u8 {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.get(cx, cy)
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        let i = self.idx(x, y);
        self.data[i] = v;
    }

    /// Immutable access to the raw pixel slice (row-major).
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the raw pixel slice (row-major).
    pub fn pixels_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Fills a rectangle (clipped to the image) with `value`.
    pub fn fill_rect(&mut self, rect: Rect, value: u8) {
        let r = rect.intersect(self.bounds());
        for y in r.y..r.bottom() {
            for x in r.x..r.right() {
                self.set(x, y, value);
            }
        }
    }

    /// Extracts a copy of the pixels under `rect`.
    ///
    /// # Errors
    /// Returns [`ImageError::OutOfBounds`] if `rect` is not fully inside the
    /// image.
    pub fn crop(&self, rect: Rect) -> Result<GrayImage> {
        if rect.is_empty() || !self.bounds().contains_rect(rect) {
            return Err(ImageError::OutOfBounds {
                rect,
                width: self.width,
                height: self.height,
            });
        }
        let mut out = GrayImage::new(rect.w, rect.h);
        for y in 0..rect.h {
            for x in 0..rect.w {
                out.set(x, y, self.get(rect.x + x, rect.y + y));
            }
        }
        Ok(out)
    }

    /// Converts to a float plane.
    pub fn to_plane(&self) -> Plane {
        let mut p = Plane::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                p.set(x, y, self.get(x, y) as f32);
            }
        }
        p
    }

    /// Converts to an RGB image with equal channels.
    pub fn to_rgb(&self) -> RgbImage {
        RgbImage::from_fn(self.width, self.height, |x, y| {
            let v = self.get(x, y);
            Rgb::new(v, v, v)
        })
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f64 {
        let sum: u64 = self.data.iter().map(|&v| v as u64).sum();
        sum as f64 / self.data.len() as f64
    }
}

/// A single-channel `f32` raster used for frequency-domain and filtering
/// math where 8 bits would truncate intermediates.
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
    width: u32,
    height: u32,
    data: Vec<f32>,
}

impl Plane {
    /// Creates a zero plane of the given size.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        Plane {
            width,
            height,
            data: vec![0.0; (width as usize) * (height as usize)],
        }
    }

    /// Wraps an existing row-major sample vector as a plane, avoiding the
    /// zero-fill and copy of going through [`Plane::new`].
    ///
    /// # Panics
    /// Panics if either dimension is zero or `data` has the wrong length.
    pub fn from_raw(width: u32, height: u32, data: Vec<f32>) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        assert_eq!(
            data.len(),
            (width as usize) * (height as usize),
            "sample vector length must be width*height"
        );
        Plane {
            width,
            height,
            data,
        }
    }

    /// Builds a plane from a closure invoked per pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> f32) -> Self {
        let mut p = Plane::new(width, height);
        for y in 0..height {
            for x in 0..width {
                p.set(x, y, f(x, y));
            }
        }
        p
    }

    /// Plane width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Plane height.
    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize) * (self.width as usize) + x as usize
    }

    /// Returns the sample at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        self.data[self.idx(x, y)]
    }

    /// Returns the sample, clamping the coordinate to the border.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> f32 {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.get(cx, cy)
    }

    /// Writes the sample at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: f32) {
        let i = self.idx(x, y);
        self.data[i] = v;
    }

    /// Immutable access to the raw sample slice (row-major).
    pub fn samples(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the raw sample slice (row-major).
    pub fn samples_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Rounds and clamps each sample to 8 bits.
    pub fn to_gray(&self) -> GrayImage {
        let mut g = GrayImage::new(self.width, self.height);
        for (out, &v) in g.data.iter_mut().zip(self.data.iter()) {
            *out = crate::color::round_clamp_u8(v);
        }
        g
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Minimum and maximum sample values.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgb_get_set_roundtrip() {
        let mut img = RgbImage::new(4, 3);
        img.set(2, 1, Rgb::new(9, 8, 7));
        assert_eq!(img.get(2, 1), Rgb::new(9, 8, 7));
        assert_eq!(img.get(0, 0), Rgb::BLACK);
        assert_eq!(img.pixels().len(), 12);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimensions_panic() {
        let _ = RgbImage::new(0, 10);
    }

    #[test]
    fn crop_out_of_bounds_errors() {
        let img = GrayImage::new(10, 10);
        assert!(img.crop(Rect::new(5, 5, 10, 10)).is_err());
        assert!(img.crop(Rect::new(0, 0, 0, 0)).is_err());
        assert!(img.crop(Rect::new(0, 0, 10, 10)).is_ok());
    }

    #[test]
    fn crop_extracts_expected_pixels() {
        let img = GrayImage::from_fn(8, 8, |x, y| (y * 8 + x) as u8);
        let c = img.crop(Rect::new(2, 3, 3, 2)).unwrap();
        assert_eq!(c.get(0, 0), 3 * 8 + 2);
        assert_eq!(c.get(2, 1), 4 * 8 + 4);
    }

    #[test]
    fn blit_clips_at_border() {
        let mut dst = RgbImage::new(8, 8);
        let src = RgbImage::filled(4, 4, Rgb::WHITE);
        dst.blit(&src, 6, 6);
        assert_eq!(dst.get(7, 7), Rgb::WHITE);
        assert_eq!(dst.get(5, 5), Rgb::BLACK);
    }

    #[test]
    fn ycbcr_plane_roundtrip_nearly_identity() {
        let img = RgbImage::from_fn(16, 16, |x, y| {
            Rgb::new((x * 16) as u8, (y * 16) as u8, ((x + y) * 8) as u8)
        });
        let planes = img.to_ycbcr_planes();
        let back = RgbImage::from_ycbcr_planes(&planes);
        for (a, b) in img.pixels().iter().zip(back.pixels()) {
            assert!((a.r as i32 - b.r as i32).abs() <= 2);
            assert!((a.g as i32 - b.g as i32).abs() <= 2);
            assert!((a.b as i32 - b.b as i32).abs() <= 2);
        }
    }

    #[test]
    fn clamped_access_replicates_border() {
        let img = GrayImage::from_fn(4, 4, |x, _| (x * 10) as u8);
        assert_eq!(img.get_clamped(-5, 0), 0);
        assert_eq!(img.get_clamped(100, 2), 30);
    }

    #[test]
    fn plane_min_max_and_mean() {
        let mut p = Plane::new(2, 2);
        p.set(0, 0, -1.0);
        p.set(1, 1, 5.0);
        assert_eq!(p.min_max(), (-1.0, 5.0));
        assert!((p.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = GrayImage::new(4, 4);
        img.fill_rect(Rect::new(2, 2, 10, 10), 7);
        assert_eq!(img.get(3, 3), 7);
        assert_eq!(img.get(1, 1), 0);
    }

    #[test]
    fn gray_mean() {
        let img = GrayImage::filled(5, 5, 10);
        assert!((img.mean() - 10.0).abs() < 1e-12);
    }
}

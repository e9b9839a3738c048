//! PSP-side image transformations for the PuPPIeS reproduction.
//!
//! §II-B of the paper enumerates the transformations photo-sharing
//! platforms routinely apply — scaling, cropping, compression, rotation,
//! filtering, overlapping — and PuPPIeS' key claim (C2) is that perturbed
//! images survive all of them with *unchanged pipelines*. This crate
//! implements each transformation twice:
//!
//! - **pixel domain** ([`Transformation::apply_to_rgb`]): decode → transform
//!   → re-encode, what a PSP built on libjpeg + an imaging library does;
//! - **coefficient domain** ([`Transformation::apply_to_coeff`]): the
//!   lossless jpegtran-style path for block-aligned crops, 90°·k rotations,
//!   flips and recompression.
//!
//! Both paths are *perturbation-agnostic*: they never special-case
//! PuPPIeS-perturbed inputs, which is precisely the compatibility property
//! Table I of the paper grades schemes on.
//!
//! # Example
//!
//! ```
//! use puppies_image::{Rgb, RgbImage, Rect};
//! use puppies_transform::Transformation;
//!
//! let img = RgbImage::filled(64, 48, Rgb::new(10, 20, 30));
//! let t = Transformation::Crop(Rect::new(8, 8, 32, 24));
//! let out = t.apply_to_rgb(&img)?;
//! assert_eq!((out.width(), out.height()), (32, 24));
//! # Ok::<(), puppies_transform::TransformError>(())
//! ```

use puppies_image::convolve::{convolve, gaussian_blur, Kernel};
use puppies_image::resample::{self, Filter};
use puppies_image::{Plane, Rect, Rgb, RgbImage};
use puppies_jpeg::{Block, CoeffImage, Component, BLOCK_SIZE};
use std::fmt;

/// Errors produced by transformation application.
#[derive(Debug)]
#[non_exhaustive]
pub enum TransformError {
    /// The crop/overlay rectangle is outside the image.
    OutOfBounds {
        /// The offending rectangle.
        rect: Rect,
        /// Image width.
        width: u32,
        /// Image height.
        height: u32,
    },
    /// The transformation cannot be applied losslessly in the coefficient
    /// domain (unaligned geometry or inherently pixel-domain operation).
    NotCoeffDomain(String),
    /// A parameter is invalid (zero scale target, bad alpha, ...).
    InvalidParameter(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::OutOfBounds {
                rect,
                width,
                height,
            } => write!(f, "rect {rect:?} outside {width}x{height} image"),
            TransformError::NotCoeffDomain(m) => {
                write!(f, "not applicable in coefficient domain: {m}")
            }
            TransformError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
        }
    }
}

impl std::error::Error for TransformError {}

/// Convenient result alias for transformation operations.
pub type Result<T> = std::result::Result<T, TransformError>;

/// A linear filtering operation (frequency/pixel-domain transformation in
/// the paper's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FilterOp {
    /// Separable Gaussian blur with the given sigma.
    Gaussian {
        /// Standard deviation in pixels; must be positive.
        sigma: f32,
    },
    /// 3×3 unsharp-style sharpening.
    Sharpen,
    /// Normalized box blur with the given odd side length.
    Box {
        /// Kernel side; must be odd and ≥ 1.
        side: u32,
    },
}

/// Serializable resampling filter (mirrors [`Filter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleFilter {
    /// Nearest-neighbour sampling.
    Nearest,
    /// Bilinear interpolation.
    #[default]
    Bilinear,
    /// Area-average (box) filter.
    Box,
}

impl From<ScaleFilter> for Filter {
    fn from(f: ScaleFilter) -> Filter {
        match f {
            ScaleFilter::Nearest => Filter::Nearest,
            ScaleFilter::Bilinear => Filter::Bilinear,
            ScaleFilter::Box => Filter::Box,
        }
    }
}

/// One PSP-side transformation.
///
/// The serialized form is what the PSP publishes as "transformation type"
/// public metadata so receivers can mirror it on the shadow ROI (§III-C
/// scenario 2; the paper assumes transformations are known to PuPPIeS,
/// footnote 10).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Transformation {
    /// Resample to exactly `width` × `height`.
    Scale {
        /// Target width (nonzero).
        width: u32,
        /// Target height (nonzero).
        height: u32,
        /// Resampling filter.
        filter: ScaleFilter,
    },
    /// Cut out a rectangle.
    Crop(Rect),
    /// Rotate 90° clockwise.
    Rotate90,
    /// Rotate 180°.
    Rotate180,
    /// Rotate 270° clockwise.
    Rotate270,
    /// Mirror horizontally.
    FlipHorizontal,
    /// Mirror vertically.
    FlipVertical,
    /// JPEG recompression at the given quality (1..=100).
    Recompress {
        /// Target quality.
        quality: u8,
    },
    /// Linear filtering.
    Filter(FilterOp),
    /// Alpha-blend a solid rectangle over the image (watermark-style
    /// "overlapping").
    Overlay {
        /// Region to cover.
        rect: Rect,
        /// Overlay color.
        color: Rgb,
        /// Blend factor in `(0, 1]`; 1 replaces pixels outright.
        alpha: f32,
    },
}

impl Transformation {
    /// Convenience constructor: uniform rescale of a `width`×`height` image
    /// by `num/den` with the default bilinear filter.
    ///
    /// # Errors
    /// Fails if the factor is zero or the result collapses to zero pixels.
    pub fn scale_by(width: u32, height: u32, num: u32, den: u32) -> Result<Transformation> {
        if num == 0 || den == 0 {
            return Err(TransformError::InvalidParameter(
                "scale factor must be nonzero".into(),
            ));
        }
        let w = (width as u64 * num as u64 / den as u64) as u32;
        let h = (height as u64 * num as u64 / den as u64) as u32;
        if w == 0 || h == 0 {
            return Err(TransformError::InvalidParameter(format!(
                "scaling {width}x{height} by {num}/{den} collapses to zero"
            )));
        }
        Ok(Transformation::Scale {
            width: w,
            height: h,
            filter: ScaleFilter::Bilinear,
        })
    }

    /// Output dimensions for an input of the given size.
    ///
    /// # Errors
    /// Fails for invalid parameters (e.g. crop outside the image).
    pub fn output_size(&self, width: u32, height: u32) -> Result<(u32, u32)> {
        match *self {
            Transformation::Scale {
                width: w,
                height: h,
                ..
            } => {
                if w == 0 || h == 0 {
                    Err(TransformError::InvalidParameter("zero scale target".into()))
                } else {
                    Ok((w, h))
                }
            }
            Transformation::Crop(r) => {
                if r.is_empty() || !Rect::new(0, 0, width, height).contains_rect(r) {
                    Err(TransformError::OutOfBounds {
                        rect: r,
                        width,
                        height,
                    })
                } else {
                    Ok((r.w, r.h))
                }
            }
            Transformation::Rotate90 | Transformation::Rotate270 => Ok((height, width)),
            _ => Ok((width, height)),
        }
    }

    /// Applies the transformation to a decoded RGB image (the general
    /// pixel-domain path every PSP has).
    ///
    /// `Recompress` round-trips through the JPEG codec at the requested
    /// quality.
    ///
    /// # Errors
    /// Fails on invalid parameters or out-of-bounds rectangles.
    pub fn apply_to_rgb(&self, img: &RgbImage) -> Result<RgbImage> {
        match *self {
            Transformation::Scale {
                width,
                height,
                filter,
            } => {
                if width == 0 || height == 0 {
                    return Err(TransformError::InvalidParameter("zero scale target".into()));
                }
                Ok(resample::scale_rgb(img, width, height, filter.into()))
            }
            Transformation::Crop(r) => img.crop(r).map_err(|_| TransformError::OutOfBounds {
                rect: r,
                width: img.width(),
                height: img.height(),
            }),
            Transformation::Rotate90 => Ok(resample::rotate90(img)),
            Transformation::Rotate180 => Ok(resample::rotate180(img)),
            Transformation::Rotate270 => Ok(resample::rotate270(img)),
            Transformation::FlipHorizontal => Ok(resample::flip_horizontal(img)),
            Transformation::FlipVertical => Ok(resample::flip_vertical(img)),
            Transformation::Recompress { quality } => {
                if quality == 0 || quality > 100 {
                    return Err(TransformError::InvalidParameter(format!(
                        "quality {quality} outside 1..=100"
                    )));
                }
                Ok(CoeffImage::from_rgb(img, quality).to_rgb())
            }
            Transformation::Filter(op) => apply_filter_rgb(img, op),
            Transformation::Overlay { rect, color, alpha } => {
                if !(0.0..=1.0).contains(&alpha) || alpha == 0.0 {
                    return Err(TransformError::InvalidParameter(format!(
                        "alpha {alpha} outside (0, 1]"
                    )));
                }
                if !img.bounds().contains_rect(rect) {
                    return Err(TransformError::OutOfBounds {
                        rect,
                        width: img.width(),
                        height: img.height(),
                    });
                }
                let mut out = img.clone();
                for y in rect.y..rect.bottom() {
                    for x in rect.x..rect.right() {
                        out.set(x, y, img.get(x, y).lerp(color, alpha));
                    }
                }
                Ok(out)
            }
        }
    }

    /// Applies the transformation to a float plane, for shadow-ROI
    /// arithmetic at the receiver. The plane is treated as one color
    /// component; `Recompress` and `Overlay` are rejected (the former is
    /// handled in the coefficient domain, the latter is not a per-plane
    /// linear map).
    ///
    /// # Errors
    /// Fails for `Recompress`/`Overlay` and invalid geometry.
    pub fn apply_to_plane(&self, plane: &Plane) -> Result<Plane> {
        let (pw, ph) = (plane.width(), plane.height());
        match *self {
            Transformation::Scale {
                width,
                height,
                filter,
            } => {
                if width == 0 || height == 0 {
                    return Err(TransformError::InvalidParameter("zero scale target".into()));
                }
                Ok(resample::scale_plane(plane, width, height, filter.into()))
            }
            Transformation::Crop(r) => {
                if r.is_empty() || !Rect::new(0, 0, pw, ph).contains_rect(r) {
                    return Err(TransformError::OutOfBounds {
                        rect: r,
                        width: pw,
                        height: ph,
                    });
                }
                Ok(Plane::from_fn(r.w, r.h, |x, y| plane.get(r.x + x, r.y + y)))
            }
            Transformation::Rotate90 => Ok(Plane::from_fn(ph, pw, |x, y| plane.get(y, ph - 1 - x))),
            Transformation::Rotate180 => Ok(Plane::from_fn(pw, ph, |x, y| {
                plane.get(pw - 1 - x, ph - 1 - y)
            })),
            Transformation::Rotate270 => {
                Ok(Plane::from_fn(ph, pw, |x, y| plane.get(pw - 1 - y, x)))
            }
            Transformation::FlipHorizontal => {
                Ok(Plane::from_fn(pw, ph, |x, y| plane.get(pw - 1 - x, y)))
            }
            Transformation::FlipVertical => {
                Ok(Plane::from_fn(pw, ph, |x, y| plane.get(x, ph - 1 - y)))
            }
            Transformation::Filter(op) => apply_filter_plane(plane, op),
            Transformation::Recompress { .. } => Err(TransformError::NotCoeffDomain(
                "recompression is not a per-plane linear map".into(),
            )),
            Transformation::Overlay { .. } => Err(TransformError::NotCoeffDomain(
                "overlay is not a per-plane linear map".into(),
            )),
        }
    }

    /// Whether [`Transformation::apply_to_coeff`] supports this
    /// transformation losslessly for an image of the given size.
    pub fn is_coeff_domain(&self, width: u32, height: u32) -> bool {
        let aligned = |v: u32| v % BLOCK_SIZE == 0;
        match *self {
            Transformation::Crop(r) => aligned(r.x) && aligned(r.y) && aligned(r.w) && aligned(r.h),
            Transformation::Rotate90
            | Transformation::Rotate180
            | Transformation::Rotate270
            | Transformation::FlipHorizontal
            | Transformation::FlipVertical => aligned(width) && aligned(height),
            Transformation::Recompress { .. } => true,
            _ => false,
        }
    }

    /// Canonical, injective byte encoding of the transformation, for use as
    /// a content-address component (e.g. the PSP's transform-result cache
    /// chains this into the FNV of the source bitstream). Two
    /// transformations produce the same bytes iff they compare equal:
    /// every variant starts with a distinct tag, every field is serialized
    /// in full (floats via their IEEE-754 bit pattern), and all integers
    /// are little-endian.
    ///
    /// This is *not* a wire format — `PublicParams` has its own — so it can
    /// stay frozen as a cache-key encoding even if the wire format evolves.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        match *self {
            Transformation::Scale {
                width,
                height,
                filter,
            } => {
                out.push(0x01);
                out.extend_from_slice(&width.to_le_bytes());
                out.extend_from_slice(&height.to_le_bytes());
                out.push(match filter {
                    ScaleFilter::Nearest => 0,
                    ScaleFilter::Bilinear => 1,
                    ScaleFilter::Box => 2,
                });
            }
            Transformation::Crop(r) => {
                out.push(0x02);
                for v in [r.x, r.y, r.w, r.h] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Transformation::Rotate90 => out.push(0x03),
            Transformation::Rotate180 => out.push(0x04),
            Transformation::Rotate270 => out.push(0x05),
            Transformation::FlipHorizontal => out.push(0x06),
            Transformation::FlipVertical => out.push(0x07),
            Transformation::Recompress { quality } => {
                out.push(0x08);
                out.push(quality);
            }
            Transformation::Filter(op) => {
                out.push(0x09);
                match op {
                    FilterOp::Gaussian { sigma } => {
                        out.push(0);
                        out.extend_from_slice(&sigma.to_bits().to_le_bytes());
                    }
                    FilterOp::Sharpen => out.push(1),
                    FilterOp::Box { side } => {
                        out.push(2);
                        out.extend_from_slice(&side.to_le_bytes());
                    }
                }
            }
            Transformation::Overlay { rect, color, alpha } => {
                out.push(0x0a);
                for v in [rect.x, rect.y, rect.w, rect.h] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(&[color.r, color.g, color.b]);
                out.extend_from_slice(&alpha.to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Applies the transformation directly on quantized coefficients — the
    /// lossless jpegtran-style path. Block-permuting transforms commute
    /// with per-block perturbation, which is why PuPPIeS receivers can
    /// recover exactly after the PSP runs them (§IV-C).
    ///
    /// # Errors
    /// Returns [`TransformError::NotCoeffDomain`] when the operation or
    /// geometry has no lossless coefficient-domain form (use
    /// [`Transformation::apply_to_rgb`] then).
    pub fn apply_to_coeff(&self, img: &CoeffImage) -> Result<CoeffImage> {
        let (w, h) = (img.width(), img.height());
        if !self.is_coeff_domain(w, h) {
            return Err(TransformError::NotCoeffDomain(format!(
                "{self:?} on {w}x{h}"
            )));
        }
        match *self {
            Transformation::Crop(r) => {
                if !Rect::new(0, 0, w, h).contains_rect(r) || r.is_empty() {
                    return Err(TransformError::OutOfBounds {
                        rect: r,
                        width: w,
                        height: h,
                    });
                }
                map_components(img, r.w, r.h, |c| {
                    let bw = c.blocks_w() as usize;
                    let (bx0, by0) = ((r.x / BLOCK_SIZE) as usize, (r.y / BLOCK_SIZE) as usize);
                    let (cw, ch) = ((r.w / BLOCK_SIZE) as usize, (r.h / BLOCK_SIZE) as usize);
                    let mut blocks = puppies_jpeg::grid::take(cw * ch);
                    for row in c.blocks().chunks_exact(bw).skip(by0).take(ch) {
                        blocks.extend_from_slice(&row[bx0..bx0 + cw]);
                    }
                    blocks
                })
            }
            Transformation::Rotate90 | Transformation::Rotate270 => {
                let o = BlockOrientation::of(self).expect("rotation");
                map_components_quant(img, h, w, transpose_quant, |c| o.reorient(c))
            }
            Transformation::Rotate180
            | Transformation::FlipHorizontal
            | Transformation::FlipVertical => {
                let o = BlockOrientation::of(self).expect("rotation or flip");
                map_components(img, w, h, |c| o.reorient(c))
            }
            Transformation::Recompress { quality } => {
                if quality == 0 || quality > 100 {
                    return Err(TransformError::InvalidParameter(format!(
                        "quality {quality} outside 1..=100"
                    )));
                }
                let mut out = img.clone();
                out.requantize(quality);
                Ok(out)
            }
            _ => unreachable!("is_coeff_domain gate rejects pixel-only ops"),
        }
    }
}

fn map_components(
    img: &CoeffImage,
    new_w: u32,
    new_h: u32,
    f: impl Fn(&Component) -> Vec<Block>,
) -> Result<CoeffImage> {
    map_components_quant(img, new_w, new_h, |q| q.clone(), f)
}

fn map_components_quant(
    img: &CoeffImage,
    new_w: u32,
    new_h: u32,
    qf: impl Fn(&puppies_jpeg::QuantTable) -> puppies_jpeg::QuantTable,
    f: impl Fn(&Component) -> Vec<Block>,
) -> Result<CoeffImage> {
    let comps = img
        .components()
        .iter()
        .map(|c| {
            Component::from_blocks(c.id(), new_w, new_h, qf(c.quant()), f(c))
                .map_err(|e| TransformError::InvalidParameter(e.to_string()))
        })
        .collect::<Result<Vec<_>>>()?;
    CoeffImage::from_components(new_w, new_h, comps)
        .map_err(|e| TransformError::InvalidParameter(e.to_string()))
}

/// Transposes a quantization table, required whenever the block content is
/// transposed (90°/270° rotation) so step sizes keep following their
/// frequencies — the same bookkeeping jpegtran performs.
fn transpose_quant(q: &puppies_jpeg::QuantTable) -> puppies_jpeg::QuantTable {
    let s = q.steps();
    let mut t = [0u16; 64];
    for r in 0..8 {
        for c in 0..8 {
            t[c * 8 + r] = s[r * 8 + c];
        }
    }
    puppies_jpeg::QuantTable::new(t)
}

/// The five lossless orientation changes of a block grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Orient {
    Rot90,
    Rot180,
    Rot270,
    FlipH,
    FlipV,
}

/// How a rotation or flip acts on a coefficient image: each block moves
/// to a new grid position, and its coefficients go through one sign
/// permutation — output coefficient `j` is `sign[j] * input[src[j]]`.
///
/// The DCT commutes with spatial transposition, and a mirror negates the
/// odd frequencies along its axis. So a horizontal mirror negates odd
/// columns, a vertical one odd rows, 180° both, and 90°/270° clockwise
/// transpose and then mirror horizontally/vertically. AC values live in
/// `[-1023, 1023]`, which is closed under negation, and DC is never
/// negated.
#[derive(Debug, Clone)]
pub struct BlockOrientation {
    orient: Orient,
    src: [usize; 64],
    sign: [i32; 64],
}

impl BlockOrientation {
    /// The block orientation of a rotation or flip; `None` for every other
    /// transformation.
    pub fn of(t: &Transformation) -> Option<BlockOrientation> {
        let orient = match t {
            Transformation::Rotate90 => Orient::Rot90,
            Transformation::Rotate180 => Orient::Rot180,
            Transformation::Rotate270 => Orient::Rot270,
            Transformation::FlipHorizontal => Orient::FlipH,
            Transformation::FlipVertical => Orient::FlipV,
            _ => return None,
        };
        let mut o = BlockOrientation {
            orient,
            src: [0; 64],
            sign: [1; 64],
        };
        for r in 0..8 {
            for c in 0..8 {
                let j = r * 8 + c;
                let (src, odd) = match orient {
                    Orient::Rot90 => (c * 8 + r, c),
                    Orient::Rot270 => (c * 8 + r, r),
                    Orient::Rot180 => (j, r + c),
                    Orient::FlipH => (j, c),
                    Orient::FlipV => (j, r),
                };
                o.src[j] = src;
                o.sign[j] = if odd % 2 == 1 { -1 } else { 1 };
            }
        }
        Some(o)
    }

    /// Whether the grid's width and height trade places (90° and 270°).
    pub fn transposes(&self) -> bool {
        matches!(self.orient, Orient::Rot90 | Orient::Rot270)
    }

    /// Where block `(bx, by)` of a `bw`×`bh` grid lands.
    pub fn position(&self, bw: u32, bh: u32, bx: u32, by: u32) -> (u32, u32) {
        match self.orient {
            Orient::Rot90 => (bh - 1 - by, bx),
            Orient::Rot180 => (bw - 1 - bx, bh - 1 - by),
            Orient::Rot270 => (by, bw - 1 - bx),
            Orient::FlipH => (bw - 1 - bx, by),
            Orient::FlipV => (bx, bh - 1 - by),
        }
    }

    /// Reorients the coefficients of one block.
    pub fn apply(&self, b: &Block, out: &mut Block) {
        for j in 0..64 {
            out[j] = self.sign[j] * b[self.src[j] & 63];
        }
    }

    /// Undoes [`BlockOrientation::apply`].
    pub fn undo(&self, b: &Block, out: &mut Block) {
        for j in 0..64 {
            out[self.src[j] & 63] = self.sign[j] * b[j];
        }
    }

    /// Reorients a component's block grid, writing each output block once
    /// into a zero-filled grid from the pool. The source is walked in
    /// square tiles, so a quarter turn reads and writes within a few block
    /// rows at a time.
    fn reorient(&self, c: &Component) -> Vec<Block> {
        const TILE: u32 = 8;
        let (bw, bh) = (c.blocks_w(), c.blocks_h());
        let nw = if self.transposes() { bh } else { bw };
        let src = c.blocks();
        let mut out = puppies_jpeg::grid::take(src.len());
        out.resize(src.len(), [0; 64]);
        for ty in (0..bh).step_by(TILE as usize) {
            for tx in (0..bw).step_by(TILE as usize) {
                for by in ty..(ty + TILE).min(bh) {
                    for bx in tx..(tx + TILE).min(bw) {
                        let (nx, ny) = self.position(bw, bh, bx, by);
                        let b = &src[(by * bw + bx) as usize];
                        self.apply(b, &mut out[(ny * nw + nx) as usize]);
                    }
                }
            }
        }
        out
    }
}

fn apply_filter_rgb(img: &RgbImage, op: FilterOp) -> Result<RgbImage> {
    let planes = resample::split_channels(img);
    let mut out = Vec::with_capacity(3);
    for p in &planes {
        out.push(apply_filter_plane(p, op)?);
    }
    let arr: [Plane; 3] = out
        .try_into()
        .expect("three channels in, three channels out");
    Ok(resample::merge_channels(&arr))
}

fn apply_filter_plane(plane: &Plane, op: FilterOp) -> Result<Plane> {
    match op {
        FilterOp::Gaussian { sigma } => {
            if sigma <= 0.0 || !sigma.is_finite() {
                return Err(TransformError::InvalidParameter(format!(
                    "gaussian sigma {sigma}"
                )));
            }
            Ok(gaussian_blur(plane, sigma))
        }
        FilterOp::Sharpen => Ok(convolve(plane, &Kernel::sharpen())),
        FilterOp::Box { side } => {
            if side == 0 || side % 2 == 0 {
                return Err(TransformError::InvalidParameter(format!(
                    "box side {side} must be odd"
                )));
            }
            Ok(convolve(plane, &Kernel::boxcar(side)))
        }
    }
}

/// Applies a pipeline of transformations in order (pixel domain).
///
/// # Errors
/// Fails on the first transformation that fails.
pub fn apply_pipeline_rgb(img: &RgbImage, pipeline: &[Transformation]) -> Result<RgbImage> {
    let mut cur = img.clone();
    for t in pipeline {
        cur = t.apply_to_rgb(&cur)?;
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_image::metrics::{max_abs_diff_rgb, psnr_rgb};

    fn textured(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            Rgb::new(
                ((x * 13 + y * 7) % 256) as u8,
                ((x * 5 + y * 11) % 256) as u8,
                ((x + y) % 256) as u8,
            )
        })
    }

    #[test]
    fn output_size_matches_apply() {
        let img = textured(64, 48);
        let cases = [
            Transformation::Scale {
                width: 32,
                height: 24,
                filter: ScaleFilter::Bilinear,
            },
            Transformation::Crop(Rect::new(8, 8, 16, 24)),
            Transformation::Rotate90,
            Transformation::Rotate180,
            Transformation::Rotate270,
            Transformation::FlipHorizontal,
            Transformation::Recompress { quality: 50 },
            Transformation::Filter(FilterOp::Gaussian { sigma: 1.0 }),
        ];
        for t in cases {
            let want = t.output_size(64, 48).unwrap();
            let got = t.apply_to_rgb(&img).unwrap();
            assert_eq!((got.width(), got.height()), want, "{t:?}");
        }
    }

    #[test]
    fn crop_out_of_bounds_rejected() {
        let img = textured(32, 32);
        let t = Transformation::Crop(Rect::new(20, 20, 20, 20));
        assert!(t.apply_to_rgb(&img).is_err());
        assert!(t.output_size(32, 32).is_err());
    }

    #[test]
    fn coeff_domain_crop_matches_pixel_crop() {
        let img = textured(64, 64);
        let coeff = CoeffImage::from_rgb(&img, 85);
        let t = Transformation::Crop(Rect::new(16, 8, 32, 40));
        let via_coeff = t.apply_to_coeff(&coeff).unwrap().to_rgb();
        let via_pixels = coeff.to_rgb().crop(Rect::new(16, 8, 32, 40)).unwrap();
        assert_eq!(via_coeff, via_pixels);
    }

    #[test]
    fn coeff_domain_rotations_match_pixel_rotations() {
        let img = textured(64, 48);
        let coeff = CoeffImage::from_rgb(&img, 85);
        type Case = (Transformation, fn(&RgbImage) -> RgbImage);
        let cases: [Case; 5] = [
            (Transformation::Rotate90, resample::rotate90),
            (Transformation::Rotate180, resample::rotate180),
            (Transformation::Rotate270, resample::rotate270),
            (Transformation::FlipHorizontal, resample::flip_horizontal),
            (Transformation::FlipVertical, resample::flip_vertical),
        ];
        for (t, px) in cases {
            let via_coeff = t.apply_to_coeff(&coeff).unwrap().to_rgb();
            let via_pixels = px(&coeff.to_rgb());
            // Both end at the same IDCT-and-round; only ulp-level float
            // ordering may differ.
            assert!(
                max_abs_diff_rgb(&via_coeff, &via_pixels) <= 1,
                "{t:?}: PSNR {}",
                psnr_rgb(&via_coeff, &via_pixels)
            );
        }
    }

    #[test]
    fn coeff_rotation_roundtrip_is_exact() {
        let img = textured(64, 48);
        let coeff = CoeffImage::from_rgb(&img, 85);
        let r90 = Transformation::Rotate90.apply_to_coeff(&coeff).unwrap();
        let back = Transformation::Rotate270.apply_to_coeff(&r90).unwrap();
        assert_eq!(back, coeff);
        let r180 = Transformation::Rotate180.apply_to_coeff(&coeff).unwrap();
        let back = Transformation::Rotate180.apply_to_coeff(&r180).unwrap();
        assert_eq!(back, coeff);
        let fh = Transformation::FlipHorizontal
            .apply_to_coeff(&coeff)
            .unwrap();
        let back = Transformation::FlipHorizontal.apply_to_coeff(&fh).unwrap();
        assert_eq!(back, coeff);
    }

    #[test]
    fn unaligned_geometry_rejected_in_coeff_domain() {
        let img = textured(60, 44); // not multiples of 8
        let coeff = CoeffImage::from_rgb(&img, 85);
        assert!(matches!(
            Transformation::Rotate90.apply_to_coeff(&coeff),
            Err(TransformError::NotCoeffDomain(_))
        ));
        let img = textured(64, 64);
        let coeff = CoeffImage::from_rgb(&img, 85);
        assert!(matches!(
            Transformation::Crop(Rect::new(4, 0, 16, 16)).apply_to_coeff(&coeff),
            Err(TransformError::NotCoeffDomain(_))
        ));
    }

    #[test]
    fn recompress_reduces_size_keeps_dims() {
        let img = textured(64, 64);
        let coeff = CoeffImage::from_rgb(&img, 95);
        let rec = Transformation::Recompress { quality: 30 }
            .apply_to_coeff(&coeff)
            .unwrap();
        assert_eq!((rec.width(), rec.height()), (64, 64));
        let a = coeff
            .encode(&puppies_jpeg::EncodeOptions::default())
            .unwrap()
            .len();
        let b = rec
            .encode(&puppies_jpeg::EncodeOptions::default())
            .unwrap()
            .len();
        assert!(b < a, "recompressed {b} >= original {a}");
    }

    #[test]
    fn plane_path_matches_rgb_path_for_linear_ops() {
        let gray = textured(32, 32).to_gray();
        let plane = gray.to_plane();
        for t in [
            Transformation::Scale {
                width: 16,
                height: 16,
                filter: ScaleFilter::Bilinear,
            },
            Transformation::Rotate180,
            Transformation::FlipHorizontal,
            Transformation::Crop(Rect::new(4, 4, 16, 16)),
        ] {
            let via_plane = t.apply_to_plane(&plane).unwrap().to_gray();
            let via_rgb = t.apply_to_rgb(&gray.to_rgb()).unwrap().to_gray();
            for (a, b) in via_plane.pixels().iter().zip(via_rgb.pixels()) {
                assert!((*a as i32 - *b as i32).abs() <= 1, "{t:?}");
            }
        }
    }

    #[test]
    fn plane_rejects_non_linear_ops() {
        let plane = textured(16, 16).to_gray().to_plane();
        assert!(Transformation::Recompress { quality: 50 }
            .apply_to_plane(&plane)
            .is_err());
        assert!(Transformation::Overlay {
            rect: Rect::new(0, 0, 4, 4),
            color: Rgb::WHITE,
            alpha: 0.5,
        }
        .apply_to_plane(&plane)
        .is_err());
    }

    #[test]
    fn overlay_blends() {
        let img = textured(16, 16);
        let t = Transformation::Overlay {
            rect: Rect::new(0, 0, 8, 8),
            color: Rgb::WHITE,
            alpha: 1.0,
        };
        let out = t.apply_to_rgb(&img).unwrap();
        assert_eq!(out.get(0, 0), Rgb::WHITE);
        assert_eq!(out.get(12, 12), img.get(12, 12));
        let bad = Transformation::Overlay {
            rect: Rect::new(0, 0, 8, 8),
            color: Rgb::WHITE,
            alpha: 0.0,
        };
        assert!(bad.apply_to_rgb(&img).is_err());
    }

    #[test]
    fn pipeline_composes() {
        let img = textured(64, 64);
        let out = apply_pipeline_rgb(
            &img,
            &[
                Transformation::Crop(Rect::new(0, 0, 32, 32)),
                Transformation::Rotate90,
                Transformation::Scale {
                    width: 16,
                    height: 16,
                    filter: ScaleFilter::Box,
                },
            ],
        )
        .unwrap();
        assert_eq!((out.width(), out.height()), (16, 16));
    }

    #[test]
    fn scale_by_helper() {
        let t = Transformation::scale_by(100, 60, 1, 2).unwrap();
        assert_eq!(t.output_size(100, 60).unwrap(), (50, 30));
        assert!(Transformation::scale_by(1, 1, 1, 10).is_err());
    }

    #[test]
    fn canonical_bytes_is_injective_and_stable() {
        let variants = [
            Transformation::Scale {
                width: 32,
                height: 24,
                filter: ScaleFilter::Bilinear,
            },
            Transformation::Scale {
                width: 32,
                height: 24,
                filter: ScaleFilter::Nearest,
            },
            Transformation::Scale {
                width: 24,
                height: 32,
                filter: ScaleFilter::Bilinear,
            },
            Transformation::Crop(Rect::new(8, 8, 16, 24)),
            Transformation::Crop(Rect::new(8, 8, 24, 16)),
            Transformation::Rotate90,
            Transformation::Rotate180,
            Transformation::Rotate270,
            Transformation::FlipHorizontal,
            Transformation::FlipVertical,
            Transformation::Recompress { quality: 50 },
            Transformation::Recompress { quality: 51 },
            Transformation::Filter(FilterOp::Gaussian { sigma: 1.0 }),
            Transformation::Filter(FilterOp::Gaussian { sigma: 1.5 }),
            Transformation::Filter(FilterOp::Sharpen),
            Transformation::Filter(FilterOp::Box { side: 3 }),
            Transformation::Filter(FilterOp::Box { side: 5 }),
            Transformation::Overlay {
                rect: Rect::new(0, 0, 8, 8),
                color: Rgb::WHITE,
                alpha: 0.5,
            },
            Transformation::Overlay {
                rect: Rect::new(0, 0, 8, 8),
                color: Rgb::WHITE,
                alpha: 0.25,
            },
        ];
        let encodings: Vec<Vec<u8>> = variants.iter().map(|t| t.canonical_bytes()).collect();
        for (i, a) in encodings.iter().enumerate() {
            for (j, b) in encodings.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "{:?} vs {:?}", variants[i], variants[j]);
                }
            }
        }
        // Stable across calls and across clones.
        for t in &variants {
            assert_eq!(t.canonical_bytes(), t.clone().canonical_bytes());
        }
    }

    /// Reference block helpers: transpose, and negate odd frequencies.
    fn transpose_block(b: &Block) -> Block {
        let mut out = [0i32; 64];
        for r in 0..8 {
            for c in 0..8 {
                out[c * 8 + r] = b[r * 8 + c];
            }
        }
        out
    }

    fn flip_block_h(b: &Block) -> Block {
        let mut out = *b;
        for r in 0..8 {
            for c in (1..8).step_by(2) {
                out[r * 8 + c] = -out[r * 8 + c];
            }
        }
        out
    }

    fn flip_block_v(b: &Block) -> Block {
        let mut out = *b;
        for r in (1..8).step_by(2) {
            for c in 0..8 {
                out[r * 8 + c] = -out[r * 8 + c];
            }
        }
        out
    }

    fn oriented(b: &Block, t: &Transformation) -> Block {
        let mut out = [0i32; 64];
        BlockOrientation::of(t).unwrap().apply(b, &mut out);
        out
    }

    #[test]
    fn sign_permutations_match_transpose_and_flip_composition() {
        use Transformation::*;
        let mut b = [0i32; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as i32 * 31 % 200) - 100;
        }
        assert_eq!(oriented(&b, &FlipHorizontal), flip_block_h(&b));
        assert_eq!(oriented(&b, &FlipVertical), flip_block_v(&b));
        assert_eq!(oriented(&b, &Rotate180), flip_block_v(&flip_block_h(&b)));
        assert_eq!(oriented(&b, &Rotate90), flip_block_h(&transpose_block(&b)));
        assert_eq!(oriented(&b, &Rotate270), flip_block_v(&transpose_block(&b)));
        // Flips and 180° are involutions; 270° undoes 90°; `undo` inverts.
        for t in [FlipHorizontal, FlipVertical, Rotate180] {
            assert_eq!(oriented(&oriented(&b, &t), &t), b, "{t:?}");
        }
        assert_eq!(oriented(&oriented(&b, &Rotate90), &Rotate270), b);
        for t in [Rotate90, Rotate180, Rotate270, FlipHorizontal, FlipVertical] {
            let mut back = [0i32; 64];
            BlockOrientation::of(&t)
                .unwrap()
                .undo(&oriented(&b, &t), &mut back);
            assert_eq!(back, b, "{t:?}");
        }
        assert!(BlockOrientation::of(&Recompress { quality: 50 }).is_none());
    }

    #[test]
    fn block_positions_follow_the_pixel_transformation() {
        // On a 3×2 grid where each "pixel" stands for one block, every
        // block position must land where the plane transformation moves
        // that sample.
        let (bw, bh) = (3u32, 2u32);
        for t in [
            Transformation::Rotate90,
            Transformation::Rotate180,
            Transformation::Rotate270,
            Transformation::FlipHorizontal,
            Transformation::FlipVertical,
        ] {
            let o = BlockOrientation::of(&t).unwrap();
            let grid = Plane::from_fn(bw, bh, |x, y| (y * bw + x) as f32);
            let moved = t.apply_to_plane(&grid).unwrap();
            for by in 0..bh {
                for bx in 0..bw {
                    let (nx, ny) = o.position(bw, bh, bx, by);
                    assert_eq!(moved.get(nx, ny), grid.get(bx, by), "{t:?} ({bx}, {by})");
                }
            }
        }
    }
}

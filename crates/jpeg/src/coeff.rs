//! [`CoeffImage`]: the quantized-DCT-coefficient representation of a JPEG
//! image.
//!
//! This is the level PuPPIeS operates at: perturbation adds private-matrix
//! entries to quantized coefficients block by block (§IV-B), the PSP can
//! requantize or crop without leaving the coefficient domain, and entropy
//! coding (`codec`) turns the same structure into bytes.

use crate::quant::QuantTable;
use crate::{dct, JpegError, Result, AC_MAX, AC_MIN, COEFF_MAX, COEFF_MIN};
use puppies_image::{GrayImage, Plane, Rect, RgbImage};

/// Clamps a block into the entropy-codable ranges: DC to `[-1024, 1023]`,
/// AC to `[-1023, 1023]`.
pub fn clamp_block(b: &mut Block) {
    b[0] = b[0].clamp(COEFF_MIN, COEFF_MAX);
    for v in &mut b[1..] {
        *v = (*v).clamp(AC_MIN, AC_MAX);
    }
}

/// Side length of a JPEG block in samples.
pub const BLOCK_SIZE: u32 = 8;
/// Number of coefficients per block.
pub const BLOCK_LEN: usize = 64;

/// One 8×8 block of quantized DCT coefficients in row-major (natural)
/// order; index 0 is the DC term.
pub type Block = [i32; BLOCK_LEN];

/// A single color component (plane) in the coefficient domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// JPEG component id (1 = Y, 2 = Cb, 3 = Cr).
    id: u8,
    /// Sample width (pre-padding).
    width: u32,
    /// Sample height (pre-padding).
    height: u32,
    blocks_w: u32,
    blocks_h: u32,
    quant: QuantTable,
    blocks: Vec<Block>,
}

impl Component {
    /// Builds a component by forward-transforming a sample plane
    /// (values nominally in `[0, 255]`), padding edges by replication.
    pub fn from_plane(id: u8, plane: &Plane, quant: QuantTable) -> Component {
        let _span = puppies_obs::span("jpeg.fdct_quant", "jpeg");
        let width = plane.width();
        let height = plane.height();
        let blocks_w = width.div_ceil(BLOCK_SIZE);
        let blocks_h = height.div_ceil(BLOCK_SIZE);
        let n = (blocks_w * blocks_h) as usize;
        let folded = quant.folded();
        let samples = plane.samples();
        // Every slot is fully written below (the fused fdct+quantize fills
        // all 64 coefficients of each block in order), so the block vector
        // skips the zero-fill a `vec![...]` would pay.
        let mut blocks: Vec<Block> = Vec::with_capacity(n);
        let spare = blocks.spare_capacity_mut();
        let mut raw = [0.0f32; BLOCK_LEN];
        // Columns whose 8 samples all lie inside the plane; the run
        // `0..full_cols` of each full-height block row goes through the
        // batched kernel in one dispatch.
        let full_cols = width / BLOCK_SIZE;
        let w = width as usize;
        let mut idx = 0;
        for by in 0..blocks_h {
            let row_full = by * BLOCK_SIZE + BLOCK_SIZE <= height;
            let mut bx = 0;
            if row_full && full_cols > 0 {
                // Interior span: one dispatch transforms the whole run of
                // full blocks (level shift, DCT, quantize and range clamp
                // fused), reading the sample rows in place and writing the
                // blocks' spare capacity back-to-back.
                let base = (by * BLOCK_SIZE) as usize * w;
                debug_assert!(base + 7 * w + 8 * full_cols as usize <= samples.len());
                debug_assert!(idx + full_cols as usize <= n);

                // SAFETY: `row_full` bounds all 8 sample rows and the
                // destination blocks are in-capacity (see the debug
                // assertions); every slot of each block is written. The
                // pointer derives from the whole spare slice (not one
                // element) because the batched write spans `full_cols`
                // consecutive blocks.
                unsafe {
                    folded.fdct_quantize_row_band_into(
                        samples.as_ptr().add(base),
                        w,
                        full_cols as usize,
                        spare.as_mut_ptr().add(idx) as *mut i32,
                    );
                }
                idx += full_cols as usize;
                bx = full_cols;
            }
            for bx in bx..blocks_w {
                // Edge block: replicate-pad via the clamped accessor, then
                // run the same fused kernel over the staged raw samples.
                for y in 0..BLOCK_SIZE {
                    for x in 0..BLOCK_SIZE {
                        let sx = (bx * BLOCK_SIZE + x) as i64;
                        let sy = (by * BLOCK_SIZE + y) as i64;
                        raw[(y * BLOCK_SIZE + x) as usize] = plane.get_clamped(sx, sy);
                    }
                }
                // SAFETY: `raw` is a full contiguous block and the
                // destination addresses 64 writable slots in spare
                // capacity; all 64 are written.
                unsafe {
                    folded.fdct_quantize_rows_into(
                        raw.as_ptr(),
                        8,
                        spare[idx].as_mut_ptr() as *mut i32,
                    );
                }
                idx += 1;
            }
        }
        debug_assert_eq!(idx, n);
        // SAFETY: the loop initialized all `n` blocks.
        unsafe { blocks.set_len(n) };
        Component {
            id,
            width,
            height,
            blocks_w,
            blocks_h,
            quant,
            blocks,
        }
    }

    /// Reconstructs the sample plane (inverse DCT + level shift), cropped
    /// back to the component's true size. Samples are *not* clamped so the
    /// caller can do shadow-ROI arithmetic before rounding.
    pub fn to_plane(&self) -> Plane {
        let _span = puppies_obs::span("jpeg.idct", "jpeg");
        // Each block writes its in-bounds samples straight into the
        // cropped plane: no padded intermediate, no crop copy.
        let (w, h) = (self.width as usize, self.height as usize);
        let mut samples = vec![0.0f32; w * h];
        let folded = self.quant.folded();
        let band = BLOCK_SIZE as usize * w;
        for (by, rows) in samples.chunks_mut(band).enumerate() {
            self.idct_block_row_into(&folded, by, rows);
        }
        Plane::from_raw(self.width, self.height, samples)
    }

    /// Inverse-transforms block row `by` into `out`, the row's in-bounds
    /// samples (up to 8 rows of `width`, row-major, level shift applied,
    /// unclamped). The one IDCT writer behind [`Component::to_plane`] and
    /// [`CoeffImage::to_rgb`].
    fn idct_block_row_into(&self, folded: &crate::quant::FoldedQuant, by: usize, out: &mut [f32]) {
        let bs = BLOCK_SIZE as usize;
        let w = self.width as usize;
        let rows = out.len() / w;
        debug_assert_eq!(rows, bs.min(self.height as usize - by * bs));
        let row = &self.blocks[by * self.blocks_w as usize..][..self.blocks_w as usize];
        let mut raw = [0.0f32; BLOCK_LEN];
        let mut spatial = [0.0f32; BLOCK_LEN];
        for (bx, q) in row.iter().enumerate() {
            let x0 = bx * bs;
            let cols = bs.min(w - x0);
            folded.dequantize_scaled_into(q, &mut raw);
            dct::inverse_scaled_into(&raw, &mut spatial);
            for y in 0..rows {
                let dst = &mut out[y * w + x0..][..cols];
                let src = &spatial[y * bs..][..cols];
                for x in 0..cols {
                    dst[x] = src[x] + 128.0;
                }
            }
        }
    }

    /// Component id (1 = Y, 2 = Cb, 3 = Cr).
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Sample width (pre-padding).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Sample height (pre-padding).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of block columns.
    pub fn blocks_w(&self) -> u32 {
        self.blocks_w
    }

    /// Number of block rows.
    pub fn blocks_h(&self) -> u32 {
        self.blocks_h
    }

    /// The quantization table.
    pub fn quant(&self) -> &QuantTable {
        &self.quant
    }

    /// All blocks, row-major over the block grid.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Mutable access to all blocks.
    pub fn blocks_mut(&mut self) -> &mut [Block] {
        &mut self.blocks
    }

    /// The block at block-grid position `(bx, by)`.
    ///
    /// # Panics
    /// Panics if the position is outside the block grid.
    pub fn block(&self, bx: u32, by: u32) -> &Block {
        assert!(
            bx < self.blocks_w && by < self.blocks_h,
            "block out of range"
        );
        &self.blocks[(by * self.blocks_w + bx) as usize]
    }

    /// Mutable block access.
    ///
    /// # Panics
    /// Panics if the position is outside the block grid.
    pub fn block_mut(&mut self, bx: u32, by: u32) -> &mut Block {
        assert!(
            bx < self.blocks_w && by < self.blocks_h,
            "block out of range"
        );
        &mut self.blocks[(by * self.blocks_w + bx) as usize]
    }

    /// Block-grid coordinates `(bx, by)` of every block whose 8×8 pixel
    /// footprint intersects `region` (pixel coordinates), in row-major
    /// order. This is how a pixel ROI maps onto coefficient blocks.
    pub fn blocks_in_region(&self, region: Rect) -> Vec<(u32, u32)> {
        blocks_in_region(self.width, self.height, region)
    }

    /// Replaces the quantization table by requantizing every block, the
    /// coefficient-domain "compression" transformation.
    pub fn requantize(&mut self, coarser: QuantTable) {
        for b in &mut self.blocks {
            let mut nb = self.quant.requantize_to(b, &coarser);
            clamp_block(&mut nb);
            *b = nb;
        }
        self.quant = coarser;
    }

    /// Builds a component from an explicit block grid (used by
    /// coefficient-domain transformations and tests). Blocks are row-major
    /// over the `ceil(width/8) × ceil(height/8)` grid and are clamped into
    /// the entropy-codable ranges.
    ///
    /// # Errors
    /// Returns [`JpegError::Malformed`] if the block count does not match
    /// the grid implied by `width` × `height`.
    pub fn from_blocks(
        id: u8,
        width: u32,
        height: u32,
        quant: QuantTable,
        mut blocks: Vec<Block>,
    ) -> Result<Component> {
        for b in &mut blocks {
            clamp_block(b);
        }
        Component::from_raw(id, width, height, quant, blocks)
    }

    pub(crate) fn from_raw(
        id: u8,
        width: u32,
        height: u32,
        quant: QuantTable,
        blocks: Vec<Block>,
    ) -> Result<Component> {
        let blocks_w = width.div_ceil(BLOCK_SIZE);
        let blocks_h = height.div_ceil(BLOCK_SIZE);
        if blocks.len() != (blocks_w as usize) * (blocks_h as usize) {
            return Err(JpegError::Malformed(format!(
                "component {id}: {} blocks for {}x{} grid",
                blocks.len(),
                blocks_w,
                blocks_h
            )));
        }
        Ok(Component {
            id,
            width,
            height,
            blocks_w,
            blocks_h,
            quant,
            blocks,
        })
    }
}

/// Block-grid coordinates `(bx, by)` of every block of a `width × height`
/// image whose 8×8 pixel footprint intersects `region`, in row-major
/// order.
pub(crate) fn blocks_in_region(width: u32, height: u32, region: Rect) -> Vec<(u32, u32)> {
    let clipped = region.intersect(Rect::new(0, 0, width, height));
    if clipped.is_empty() {
        return Vec::new();
    }
    let bx0 = clipped.x / BLOCK_SIZE;
    let by0 = clipped.y / BLOCK_SIZE;
    let bx1 = (clipped.right() - 1) / BLOCK_SIZE;
    let by1 = (clipped.bottom() - 1) / BLOCK_SIZE;
    let mut out = Vec::new();
    for by in by0..=by1 {
        for bx in bx0..=bx1 {
            out.push((bx, by));
        }
    }
    out
}

/// A JPEG image in the quantized-coefficient domain: one component for
/// grayscale, three (Y, Cb, Cr at 4:4:4) for color.
///
/// 4:4:4 keeps every component's block grid aligned with the pixel ROI
/// grid, which PuPPIeS requires to perturb the *same* regions in all
/// layers ("each layer is processed independently", §II-A footnote).
#[derive(Debug, Clone, PartialEq)]
pub struct CoeffImage {
    width: u32,
    height: u32,
    components: Vec<Component>,
}

impl CoeffImage {
    /// Forward-transforms an RGB image at the given JPEG quality (1..=100).
    ///
    /// Colour conversion runs one 8-row block band at a time, straight
    /// into the forward DCT, so no full-size sample plane is ever built.
    /// The result is identical to [`RgbImage::to_ycbcr_planes`] followed
    /// by [`Component::from_plane`] on each plane: the band is padded by
    /// the same edge replication and goes through the same fused kernel.
    pub fn from_rgb(img: &RgbImage, quality: u8) -> CoeffImage {
        let _span = puppies_obs::span("jpeg.fwd_transform", "jpeg");
        let (width, height) = (img.width(), img.height());
        let blocks_w = width.div_ceil(BLOCK_SIZE);
        let blocks_h = height.div_ceil(BLOCK_SIZE);
        let lq = QuantTable::luma(quality);
        let cq = QuantTable::chroma(quality);
        let folded = [lq.folded(), cq.folded(), cq.folded()];
        let quants = [lq, cq.clone(), cq];
        let bs = BLOCK_SIZE as usize;
        let (w, stride) = (width as usize, (blocks_w * BLOCK_SIZE) as usize);
        let n = (blocks_w * blocks_h) as usize;
        let pixels = img.pixels();
        // One band of 8 sample rows per channel, padded to whole blocks.
        let mut bands = [
            vec![0.0f32; bs * stride],
            vec![0.0f32; bs * stride],
            vec![0.0f32; bs * stride],
        ];
        let mut blocks: [Vec<Block>; 3] = [
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        ];
        for by in 0..blocks_h as usize {
            for y in 0..bs {
                let off = y * stride;
                let sy = by * bs + y;
                if sy >= height as usize {
                    // Below the image: replicate the row above (row 0 of
                    // a band is always inside the image).
                    for band in &mut bands {
                        band.copy_within(off - stride..off, off);
                    }
                    continue;
                }
                let [yb, cbb, crb] = &mut bands;
                puppies_image::color::rgb_to_ycbcr_slice(
                    &pixels[sy * w..][..w],
                    &mut yb[off..off + w],
                    &mut cbb[off..off + w],
                    &mut crb[off..off + w],
                );
                for band in &mut bands {
                    // Right of the image: replicate the last column.
                    let edge = band[off + w - 1];
                    band[off + w..off + stride].fill(edge);
                }
            }
            for ((band, out), fq) in bands.iter().zip(&mut blocks).zip(&folded) {
                // SAFETY: the band holds 8 rows of `stride` samples, so
                // every one of the `blocks_w` blocks reads in bounds, and
                // block row `by` addresses `blocks_w` in-capacity slots of
                // `out`; the kernel writes all 64 slots of each.
                unsafe {
                    fq.fdct_quantize_row_band_into(
                        band.as_ptr(),
                        stride,
                        blocks_w as usize,
                        out.spare_capacity_mut()
                            .as_mut_ptr()
                            .add(by * blocks_w as usize) as *mut i32,
                    );
                }
            }
        }
        let components = blocks
            .into_iter()
            .zip(quants)
            .enumerate()
            .map(|(i, (mut b, quant))| {
                // SAFETY: every block row wrote its `blocks_w` blocks.
                unsafe { b.set_len(n) };
                Component {
                    id: i as u8 + 1,
                    width,
                    height,
                    blocks_w,
                    blocks_h,
                    quant,
                    blocks: b,
                }
            })
            .collect();
        CoeffImage {
            width,
            height,
            components,
        }
    }

    /// Forward-transforms a grayscale image at the given quality.
    pub fn from_gray(img: &GrayImage, quality: u8) -> CoeffImage {
        let plane = img.to_plane();
        CoeffImage {
            width: img.width(),
            height: img.height(),
            components: vec![Component::from_plane(1, &plane, QuantTable::luma(quality))],
        }
    }

    /// Assembles a coefficient image from pre-built components.
    ///
    /// # Errors
    /// Returns [`JpegError::Malformed`] if there is not exactly 1 or 3
    /// components or their sizes disagree with `(width, height)`.
    pub fn from_components(width: u32, height: u32, components: Vec<Component>) -> Result<Self> {
        if components.len() != 1 && components.len() != 3 {
            return Err(JpegError::Malformed(format!(
                "{} components unsupported",
                components.len()
            )));
        }
        for c in &components {
            if c.width != width || c.height != height {
                return Err(JpegError::Malformed("component size mismatch".into()));
            }
        }
        Ok(CoeffImage {
            width,
            height,
            components,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Whether the image is single-component.
    pub fn is_gray(&self) -> bool {
        self.components.len() == 1
    }

    /// The components (1 or 3).
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Mutable component access.
    pub fn components_mut(&mut self) -> &mut [Component] {
        &mut self.components
    }

    /// Inverse-transforms back to RGB (grayscale replicates the single
    /// component).
    ///
    /// Each 8-row block band is inverse-transformed per component into a
    /// band buffer and converted to RGB straight from it, so no full-size
    /// sample plane is ever built. The result is identical to
    /// [`Component::to_plane`] on each component followed by
    /// [`RgbImage::from_ycbcr_planes`]: the same IDCT writer fills the
    /// bands, and colour conversion works sample by sample.
    pub fn to_rgb(&self) -> RgbImage {
        let _span = puppies_obs::span("jpeg.inv_transform", "jpeg");
        if self.is_gray() {
            return self.to_gray_image().to_rgb();
        }
        let w = self.width as usize;
        let band = BLOCK_SIZE as usize * w;
        let folded: Vec<_> = self.components.iter().map(|c| c.quant.folded()).collect();
        let mut bands = [vec![0.0f32; band], vec![0.0f32; band], vec![0.0f32; band]];
        let mut img = RgbImage::new(self.width, self.height);
        for (by, out) in img.pixels_mut().chunks_mut(band).enumerate() {
            let n = out.len();
            for ((c, fq), b) in self.components.iter().zip(&folded).zip(&mut bands) {
                c.idct_block_row_into(fq, by, &mut b[..n]);
            }
            let [y, cb, cr] = &bands;
            puppies_image::color::ycbcr_to_rgb_slice(&y[..n], &cb[..n], &cr[..n], out);
        }
        img
    }

    /// Inverse-transforms the luma component to a grayscale image.
    pub fn to_gray_image(&self) -> GrayImage {
        self.components[0].to_plane().to_gray()
    }

    /// The luma DC grid, as the DC-only decode
    /// ([`crate::codec::decode_dc`]) of this image's stream returns it.
    pub fn dc_grid(&self) -> crate::codec::DcGrid {
        let luma = &self.components[0];
        crate::codec::DcGrid {
            width: self.width,
            height: self.height,
            blocks_w: luma.blocks_w,
            blocks_h: luma.blocks_h,
            dc_step: luma.quant.steps()[0],
            dc: luma.blocks.iter().map(|b| b[0]).collect(),
        }
    }

    /// Encodes to a JFIF byte stream; see [`crate::codec`].
    ///
    /// # Errors
    /// Fails if a coefficient cannot be entropy coded.
    pub fn encode(&self, opts: &crate::codec::EncodeOptions) -> Result<Vec<u8>> {
        crate::codec::encode(self, opts)
    }

    /// Decodes a JFIF byte stream produced by [`CoeffImage::encode`] (or
    /// any baseline 4:4:4 / grayscale encoder).
    ///
    /// # Errors
    /// Fails on malformed or unsupported streams.
    pub fn decode(bytes: &[u8]) -> Result<CoeffImage> {
        crate::codec::decode(bytes)
    }

    /// Estimates the IJG quality this image's quantization tables were
    /// scaled at, from the luminance component's DQT (see
    /// [`QuantTable::nearest_quality`]). Streams produced by this codec at
    /// quality `q` estimate exactly `q`; foreign or hand-built tables
    /// resolve to the closest standard scaling.
    pub fn quality_estimate(&self) -> u8 {
        self.components[0]
            .quant()
            .nearest_quality(&crate::quant::ANNEX_K_LUMA)
    }

    /// Requantizes every component for recompression at a lower quality.
    pub fn requantize(&mut self, quality: u8) {
        let lq = QuantTable::luma(quality);
        let cq = QuantTable::chroma(quality);
        for (i, c) in self.components.iter_mut().enumerate() {
            c.requantize(if i == 0 { lq.clone() } else { cq.clone() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_image::metrics::psnr_rgb;
    use puppies_image::Rgb;

    fn test_image(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            Rgb::new(
                ((x * 3 + y) % 256) as u8,
                ((x + y * 5) % 256) as u8,
                ((x * x / 4 + y) % 256) as u8,
            )
        })
    }

    #[test]
    fn forward_inverse_high_quality_is_faithful() {
        let img = test_image(40, 24);
        let c = CoeffImage::from_rgb(&img, 95);
        let back = c.to_rgb();
        let psnr = psnr_rgb(&img, &back);
        assert!(psnr > 35.0, "PSNR {psnr}");
    }

    #[test]
    fn quality_orders_reconstruction_error() {
        let img = test_image(64, 64);
        let p90 = psnr_rgb(&img, &CoeffImage::from_rgb(&img, 90).to_rgb());
        let p30 = psnr_rgb(&img, &CoeffImage::from_rgb(&img, 30).to_rgb());
        assert!(p90 > p30, "q90 {p90} <= q30 {p30}");
    }

    #[test]
    fn non_multiple_of_eight_sizes_roundtrip() {
        for (w, h) in [(9, 9), (17, 31), (8, 13)] {
            let img = test_image(w, h);
            let c = CoeffImage::from_rgb(&img, 90);
            let back = c.to_rgb();
            assert_eq!(back.width(), w);
            assert_eq!(back.height(), h);
            assert!(psnr_rgb(&img, &back) > 28.0);
        }
    }

    #[test]
    fn from_rgb_matches_planes_then_from_plane() {
        // `from_rgb` converts colour band by band straight into the
        // forward DCT; the reference converts whole planes first and
        // runs `from_plane` on each. Edge blocks (replicated padding on
        // the right and bottom) are where the two could part.
        for (w, h) in [(1, 1), (9, 17), (61, 45), (250, 164)] {
            let img = RgbImage::from_fn(w, h, |x, y| {
                let v = (x.wrapping_mul(2_654_435_761) ^ y.wrapping_mul(40_503)) >> 7;
                Rgb::new(v as u8, (v >> 8) as u8, (x * 3 + y * 7) as u8)
            });
            for q in [50u8, 75, 95] {
                let planes = img.to_ycbcr_planes();
                let quants = [
                    QuantTable::luma(q),
                    QuantTable::chroma(q),
                    QuantTable::chroma(q),
                ];
                let reference: Vec<Component> = (0..3)
                    .map(|i| Component::from_plane(i as u8 + 1, &planes[i], quants[i].clone()))
                    .collect();
                let fused = CoeffImage::from_rgb(&img, q);
                assert_eq!(fused.components(), &reference[..], "{w}x{h} q{q}");
            }
        }
    }

    #[test]
    fn to_rgb_matches_to_plane_then_from_ycbcr_planes() {
        // `to_rgb` inverse-transforms band by band straight into colour
        // conversion; the reference builds each full plane with
        // `to_plane` and converts them together. Cropped edge blocks on
        // the right and bottom are where the two could part.
        for (w, h) in [(1, 1), (9, 17), (61, 45), (250, 164)] {
            let img = RgbImage::from_fn(w, h, |x, y| {
                let v = (x.wrapping_mul(2_654_435_761) ^ y.wrapping_mul(40_503)) >> 7;
                Rgb::new(v as u8, (v >> 8) as u8, (x * 3 + y * 7) as u8)
            });
            for q in [50u8, 75, 95] {
                let c = CoeffImage::from_rgb(&img, q);
                let planes = [
                    c.components()[0].to_plane(),
                    c.components()[1].to_plane(),
                    c.components()[2].to_plane(),
                ];
                let reference = RgbImage::from_ycbcr_planes(&planes);
                assert_eq!(c.to_rgb(), reference, "{w}x{h} q{q}");
            }
            let gray = CoeffImage::from_gray(&img.to_gray(), 75);
            let reference = gray.components()[0].to_plane().to_gray().to_rgb();
            assert_eq!(gray.to_rgb(), reference, "{w}x{h} gray");
        }
    }

    #[test]
    fn gray_roundtrip() {
        let img = test_image(32, 32).to_gray();
        let c = CoeffImage::from_gray(&img, 90);
        assert!(c.is_gray());
        let back = c.to_gray_image();
        let psnr = puppies_image::metrics::psnr_gray(&img, &back);
        assert!(psnr > 30.0, "PSNR {psnr}");
    }

    #[test]
    fn coefficients_within_ring_bounds() {
        let img = test_image(64, 64);
        let c = CoeffImage::from_rgb(&img, 100);
        for comp in c.components() {
            for b in comp.blocks() {
                assert!((COEFF_MIN..=COEFF_MAX).contains(&b[0]));
                for &v in &b[1..] {
                    assert!((AC_MIN..=AC_MAX).contains(&v));
                }
            }
        }
    }

    #[test]
    fn blocks_in_region_maps_pixels_to_blocks() {
        let img = test_image(64, 48);
        let c = CoeffImage::from_rgb(&img, 75);
        let comp = &c.components()[0];
        // A rect inside one block.
        assert_eq!(comp.blocks_in_region(Rect::new(1, 1, 3, 3)), vec![(0, 0)]);
        // A rect straddling four blocks.
        let four = comp.blocks_in_region(Rect::new(6, 6, 4, 4));
        assert_eq!(four, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
        // Out of bounds clips to empty.
        assert!(comp.blocks_in_region(Rect::new(100, 100, 5, 5)).is_empty());
        // Full image covers the whole grid.
        assert_eq!(
            comp.blocks_in_region(Rect::new(0, 0, 64, 48)).len(),
            (comp.blocks_w() * comp.blocks_h()) as usize
        );
    }

    #[test]
    fn constant_block_dc_value() {
        // A flat mid-gray image: Y plane = 128 everywhere, so level-shifted
        // samples are 0 and every coefficient quantizes to 0.
        let img = RgbImage::filled(16, 16, Rgb::new(128, 128, 128));
        let c = CoeffImage::from_rgb(&img, 75);
        for b in c.components()[0].blocks() {
            assert_eq!(b[0], 0);
            assert!(b[1..].iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn requantize_matches_fresh_encode_quality() {
        let img = test_image(32, 32);
        let mut c = CoeffImage::from_rgb(&img, 90);
        c.requantize(40);
        // The requantized image should be close to a direct q40 encode.
        let direct = CoeffImage::from_rgb(&img, 40);
        let a = c.to_rgb();
        let b = direct.to_rgb();
        let psnr = psnr_rgb(&a, &b);
        assert!(psnr > 30.0, "requantized diverges from direct: {psnr}");
    }

    #[test]
    fn quality_estimate_roundtrips_encode_quality() {
        let img = test_image(32, 32);
        for q in [25u8, 50, 75, 90, 95] {
            let c = CoeffImage::from_rgb(&img, q);
            assert_eq!(c.quality_estimate(), q);
            // Survives an encode/decode round trip (the DQT is carried in
            // the bitstream).
            let decoded =
                CoeffImage::decode(&c.encode(&crate::EncodeOptions::default()).unwrap()).unwrap();
            assert_eq!(decoded.quality_estimate(), q);
        }
    }

    #[test]
    fn from_components_validates() {
        let img = test_image(16, 16);
        let c = CoeffImage::from_rgb(&img, 75);
        let comps = c.components().to_vec();
        assert!(CoeffImage::from_components(16, 16, comps.clone()).is_ok());
        assert!(CoeffImage::from_components(16, 16, comps[..2].to_vec()).is_err());
        assert!(CoeffImage::from_components(32, 16, comps).is_err());
    }
}

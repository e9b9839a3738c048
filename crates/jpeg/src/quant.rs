//! Quantization tables (JPEG Annex K) and IJG-style quality scaling.
//!
//! §II-A step 3 of the paper: larger step sizes for higher frequencies,
//! which is why visual information concentrates in the low-frequency
//! coefficients PuPPIeS protects most strongly (Algorithm 3).

/// The Annex K.1 luminance quantization table (row-major).
pub const ANNEX_K_LUMA: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// The Annex K.2 chrominance quantization table (row-major).
pub const ANNEX_K_CHROMA: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// An 8×8 quantization table (row-major step sizes, each in `1..=255` for
/// baseline 8-bit streams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantTable {
    steps: [u16; 64],
}

impl QuantTable {
    /// Creates a table from explicit step sizes.
    ///
    /// # Panics
    /// Panics if any step is zero.
    pub fn new(steps: [u16; 64]) -> Self {
        assert!(
            steps.iter().all(|&s| s > 0),
            "quantization steps must be positive"
        );
        QuantTable { steps }
    }

    /// The standard luminance table scaled to `quality` (1..=100) with the
    /// IJG formula used by libjpeg.
    pub fn luma(quality: u8) -> Self {
        Self::scaled(&ANNEX_K_LUMA, quality)
    }

    /// The standard chrominance table scaled to `quality` (1..=100).
    pub fn chroma(quality: u8) -> Self {
        Self::scaled(&ANNEX_K_CHROMA, quality)
    }

    /// Scales an arbitrary base table with the IJG quality mapping:
    /// `q < 50` scales by `5000/q` percent, `q >= 50` by `200 - 2q` percent.
    pub fn scaled(base: &[u16; 64], quality: u8) -> Self {
        let q = quality.clamp(1, 100) as i32;
        let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
        let mut steps = [0u16; 64];
        for (s, &b) in steps.iter_mut().zip(base.iter()) {
            let v = (b as i32 * scale + 50) / 100;
            *s = v.clamp(1, 255) as u16;
        }
        QuantTable { steps }
    }

    /// The step sizes (row-major).
    pub fn steps(&self) -> &[u16; 64] {
        &self.steps
    }

    /// Quantizes one raw DCT block (row-major floats) to integer
    /// coefficients by rounding to the nearest step multiple.
    pub fn quantize(&self, raw: &[f32; 64]) -> [i32; 64] {
        let mut out = [0i32; 64];
        for i in 0..64 {
            out[i] = (raw[i] / self.steps[i] as f32).round() as i32;
        }
        out
    }

    /// Dequantizes integer coefficients back to raw DCT values.
    pub fn dequantize(&self, q: &[i32; 64]) -> [f32; 64] {
        let mut out = [0.0f32; 64];
        for i in 0..64 {
            out[i] = (q[i] * self.steps[i] as i32) as f32;
        }
        out
    }

    /// The table with AAN descale factors folded in, for the fast
    /// scaled-DCT paths. Build once per component, not per block.
    pub fn folded(&self) -> FoldedQuant {
        FoldedQuant::new(self)
    }

    /// The IJG quality setting (1..=100) whose scaling of `base` lands
    /// closest to this table, minimizing total absolute step distance.
    /// Exact matches win outright (ties go to the higher quality, i.e. the
    /// finer table — the conservative choice when re-encoding). This is the
    /// standard way to recover "what quality was this stream encoded at"
    /// from a decoded DQT segment, which the PSP needs so pixel-domain
    /// re-encodes match the source's compression setting instead of a
    /// hardcoded default.
    pub fn nearest_quality(&self, base: &[u16; 64]) -> u8 {
        let mut best_q = 100u8;
        let mut best_dist = u64::MAX;
        for q in 1..=100u8 {
            let candidate = QuantTable::scaled(base, q);
            let dist: u64 = candidate
                .steps
                .iter()
                .zip(self.steps.iter())
                .map(|(&a, &b)| (a as i64 - b as i64).unsigned_abs())
                .sum();
            // `<=` so higher qualities win ties (including exact ones).
            if dist <= best_dist {
                best_dist = dist;
                best_q = q;
            }
        }
        best_q
    }

    /// Requantizes coefficients from this table to a `coarser` one, the
    /// coefficient-domain equivalent of JPEG recompression (the paper's
    /// "compression" transformation, §IV-C.2).
    pub fn requantize_to(&self, q: &[i32; 64], coarser: &QuantTable) -> [i32; 64] {
        let mut out = [0i32; 64];
        for i in 0..64 {
            let v = q[i];
            // Zero stays zero at any step; most coefficients of a photo
            // are zero.
            if v == 0 {
                continue;
            }
            // Round half away from zero, matching quantize() on exact
            // values. With |v| < 2^15 and steps below 2^16, `v·step ±
            // step/2` fits in i32; larger (malformed) values use i64.
            out[i] = if v.unsigned_abs() < 1 << 15 {
                let (raw, step) = (v * self.steps[i] as i32, coarser.steps[i] as i32);
                if raw >= 0 {
                    (raw + step / 2) / step
                } else {
                    (raw - step / 2) / step
                }
            } else {
                let (raw, step) = (v as i64 * self.steps[i] as i64, coarser.steps[i] as i64);
                let r = if raw >= 0 {
                    (raw + step / 2) / step
                } else {
                    (raw - step / 2) / step
                };
                r as i32
            };
        }
        out
    }
}

/// A quantization table with the AAN scale factors folded in, pairing with
/// [`crate::dct::forward_scaled`] / [`crate::dct::inverse_scaled`].
///
/// The forward side folds the AAN descale *and* the quantization step into
/// a single f32 multiplier per coefficient (`1/(8·aan·aan·step)`, computed
/// in f64 and narrowed once), so quantizing is one multiply plus a
/// magic-number round. The contract this preserves is exact **integer
/// identity across SIMD backends** — every backend performs the identical
/// IEEE f32 op sequence — while the f64 orthonormal reference pipeline
/// (`QuantTable::quantize(dct::forward(..))`) becomes a bounded
/// differential (±1 on half-step ties), pinned by
/// `folded_quantize_matches_reference_pipeline`.
#[derive(Debug, Clone)]
pub struct FoldedQuant {
    /// `1/(8·aan(u)·aan(v)·step)`: takes `forward_scaled` output straight
    /// to the (unrounded) quantized value.
    fold: [f32; 64],
    /// `step·aan(u)·aan(v)/8`: dequantizes integer coefficients straight
    /// into `inverse_scaled` input, one multiply per coefficient.
    idct_mult: [f32; 64],
}

use puppies_image::simd::Simd8;

/// Adding/subtracting 1.5·2^23 rounds an f32 to the nearest integer (ties
/// to even) exactly for |q| < 2^22; see the kernel comments.
const ROUND_MAGIC: f32 = 12_582_912.0;
const ROUND_MAGIC_BITS: i32 = 0x4B40_0000;
const ROUND_LIMIT: f32 = 4_194_304.0;

/// Quantize kernel: `out = round_half_away(scaled · fold)` per coefficient.
/// (`inline(always)`: must fuse into the `#[target_feature]` dispatch
/// wrapper or the intrinsics inside cannot be inlined.)
#[inline(always)]
unsafe fn quantize_kernel<S: Simd8>(scaled: &[f32; 64], fold: &[f32; 64], out: &mut [i32; 64]) {
    unsafe {
        let magic = S::f_splat(ROUND_MAGIC);
        let limit = S::f_splat(ROUND_LIMIT);
        let magic_bits = S::i_splat(ROUND_MAGIC_BITS);
        let half = S::f_splat(0.5);
        let neg_half = S::f_splat(-0.5);
        let zero = S::f_splat(0.0);
        let s8 = &*(scaled.as_ptr() as *const [[f32; 8]; 8]);
        let f8 = &*(fold.as_ptr() as *const [[f32; 8]; 8]);
        let o8 = &mut *(out.as_mut_ptr() as *mut [[i32; 8]; 8]);
        for g in 0..8 {
            let q = S::f_mul(S::f_load(&s8[g]), S::f_load(&f8[g]));
            // Range check: a NaN lane fails `lt` exactly like the scalar
            // guard `!(q.abs() < limit)`, so it reaches the fallback too.
            if !S::f_all(S::f_cmp_lt(S::f_abs(q), limit)) {
                // Rare out-of-range/NaN group. The same scalar sequence on
                // every backend keeps results deterministic everywhere.
                for i in 0..8 {
                    o8[g][i] = (s8[g][i] * f8[g][i]).round() as i32;
                }
                continue;
            }
            let y = S::f_add(q, magic);
            let r = S::f_sub(y, magic);
            // For y in [2^23, 2^24) the mantissa bits *are* y − 2^23, so
            // round_even(q) = bits(y) − bits(1.5·2^23) as plain integers —
            // no float→int cast (whose saturating semantics cost extra
            // instructions) anywhere in the loop.
            let base = S::i_sub(S::f_bits(y), magic_bits);
            // The residual d = q − r is exact (Sterbenz) with |d| ≤ 0.5; a
            // tie (|d| = 0.5) is where round-to-even may disagree with the
            // round-half-away the reference uses. The compare masks are
            // all-ones (−1 as i32), so subtract/add fixes up by ±1.
            let d = S::f_sub(q, r);
            let up = S::f_and(S::f_cmp_ge(d, half), S::f_cmp_gt(q, zero));
            let down = S::f_and(S::f_cmp_le(d, neg_half), S::f_cmp_lt(q, zero));
            let v = S::i_add(S::i_sub(base, S::f_bits(up)), S::f_bits(down));
            S::i_store(v, &mut o8[g]);
        }
    }
}

/// Dequantize kernel: `out = q · idct_mult` per coefficient (exact: |q| is
/// far below 2^24, so the int→float conversion never rounds).
#[inline(always)]
unsafe fn dequantize_kernel<S: Simd8>(q: &[i32; 64], mult: &[f32; 64], out: &mut [f32; 64]) {
    unsafe {
        let q8 = &*(q.as_ptr() as *const [[i32; 8]; 8]);
        let m8 = &*(mult.as_ptr() as *const [[f32; 8]; 8]);
        let o8 = &mut *(out.as_mut_ptr() as *mut [[f32; 8]; 8]);
        for g in 0..8 {
            let v = S::f_mul(S::i_to_f(S::i_load(&q8[g])), S::f_load(&m8[g]));
            S::f_store(v, &mut o8[g]);
        }
    }
}

/// Per-group f32 clamp floors for the fused kernel: DC (group 0, lane 0)
/// admits `COEFF_MIN = -1024`, every AC lane `AC_MIN = -1023`. The ceiling
/// is uniformly `1023.0`. Clamping the *unrounded* product against exact
/// integer bounds before magic-rounding equals clamping after rounding:
/// an in-range product is untouched, and a clamped lane lands exactly on
/// the integer bound, where the rounder is the identity and the tie fixup
/// a no-op.
const FUSED_CLAMP_LO: [f32; 8] = [
    -1024.0, -1023.0, -1023.0, -1023.0, -1023.0, -1023.0, -1023.0, -1023.0,
];

/// Fused level-shift + forward DCT + quantize + range clamp, reading the
/// 8 sample rows of a block directly at `stride` spacing: one dispatch per
/// block, no spatial staging, and the scaled-frequency intermediate stays
/// in lane registers between the stages. The op sequence is exactly the
/// staged pipeline's — lane-subtract 128 (the gather's level shift),
/// [`crate::dct::fdct_core`], then [`quantize_kernel`]'s rounding — so
/// outputs are bit-identical to
/// `quantize_scaled_into(&forward_scaled(shifted), ..)` + `clamp_block`.
///
/// # Safety
/// `src` must be valid for reads of `7 * stride + 8` `f32`s, and `out`
/// valid for writes of 64 `i32`s (it may be uninitialized — every slot is
/// written, which is what lets `from_plane` fill fresh capacity without a
/// zero-fill pass).
#[inline(always)]
unsafe fn fdct_quantize_rows_kernel<S: Simd8>(
    src: *const f32,
    stride: usize,
    fold: &[f32; 64],
    out: *mut i32,
) {
    unsafe {
        let shift = S::f_splat(128.0);
        let mut d = [S::f_sub(S::f_load(&*(src as *const [f32; 8])), shift); 8];
        for (i, row) in d.iter_mut().enumerate().skip(1) {
            *row = S::f_sub(S::f_load(&*(src.add(i * stride) as *const [f32; 8])), shift);
        }
        crate::dct::fdct_core::<S>(&mut d);

        let magic = S::f_splat(ROUND_MAGIC);
        let limit = S::f_splat(ROUND_LIMIT);
        let magic_bits = S::i_splat(ROUND_MAGIC_BITS);
        let half = S::f_splat(0.5);
        let neg_half = S::f_splat(-0.5);
        let zero = S::f_splat(0.0);
        let hi = S::f_splat(1023.0);
        let f8 = &*(fold.as_ptr() as *const [[f32; 8]; 8]);
        let o8 = out as *mut [i32; 8];
        for g in 0..8 {
            let q = S::f_mul(d[g], S::f_load(&f8[g]));
            // Same NaN/out-of-range guard as `quantize_kernel`, evaluated
            // *before* the clamp so a NaN lane still takes the scalar
            // fallback (min/max would silently absorb it).
            if !S::f_all(S::f_cmp_lt(S::f_abs(q), limit)) {
                let mut tmp = [0.0f32; 8];
                S::f_store(d[g], &mut tmp);
                for i in 0..8 {
                    let v = (tmp[i] * f8[g][i]).round() as i32;
                    (*o8.add(g))[i] = if g == 0 && i == 0 {
                        v.clamp(crate::COEFF_MIN, crate::COEFF_MAX)
                    } else {
                        v.clamp(crate::AC_MIN, crate::AC_MAX)
                    };
                }
                continue;
            }
            let lo = if g == 0 {
                S::f_load(&FUSED_CLAMP_LO)
            } else {
                S::f_splat(-1023.0)
            };
            let c = S::f_min(S::f_max(q, lo), hi);
            let y = S::f_add(c, magic);
            let r = S::f_sub(y, magic);
            let base = S::i_sub(S::f_bits(y), magic_bits);
            let dd = S::f_sub(c, r);
            let up = S::f_and(S::f_cmp_ge(dd, half), S::f_cmp_gt(c, zero));
            let down = S::f_and(S::f_cmp_le(dd, neg_half), S::f_cmp_lt(c, zero));
            let v = S::i_add(S::i_sub(base, S::f_bits(up)), S::f_bits(down));
            S::i_store(v, &mut *o8.add(g));
        }
    }
}

/// [`fdct_quantize_rows_kernel`] over `nblocks` horizontally adjacent
/// blocks: block `i` reads rows at `src + 8i` and writes `out + 64i`. One
/// dispatch per block *row* instead of per block lets the compiler hoist
/// every splat constant of the DCT and quantizer out of the block loop.
///
/// # Safety
/// `src` must be valid for reads of `7 * stride + 8 * nblocks` `f32`s and
/// `out` for `64 * nblocks` `i32` writes (may be uninitialized; every slot
/// is written).
#[inline(always)]
unsafe fn fdct_quantize_row_band_kernel<S: Simd8>(
    src: *const f32,
    stride: usize,
    nblocks: usize,
    fold: &[f32; 64],
    out: *mut i32,
) {
    unsafe {
        for i in 0..nblocks {
            fdct_quantize_rows_kernel::<S>(src.add(8 * i), stride, fold, out.add(64 * i));
        }
    }
}

puppies_image::simd_dispatch! {
    fn quantize_folded / quantize_folded_with(scaled: &[f32; 64], fold: &[f32; 64], out: &mut [i32; 64]) = quantize_kernel;
    fn dequantize_folded / dequantize_folded_with(q: &[i32; 64], mult: &[f32; 64], out: &mut [f32; 64]) = dequantize_kernel;
    fn fdct_quantize_rows / fdct_quantize_rows_with(src: *const f32, stride: usize, fold: &[f32; 64], out: *mut i32) = fdct_quantize_rows_kernel;
    fn fdct_quantize_row_band / fdct_quantize_row_band_with(src: *const f32, stride: usize, nblocks: usize, fold: &[f32; 64], out: *mut i32) = fdct_quantize_row_band_kernel;
}

impl FoldedQuant {
    fn new(table: &QuantTable) -> Self {
        let mut fold = [0.0f32; 64];
        let mut idct_mult = [0.0f32; 64];
        for u in 0..8 {
            for v in 0..8 {
                let i = u * 8 + v;
                let aan = crate::dct::aan_scale(u) * crate::dct::aan_scale(v);
                fold[i] = (1.0 / (8.0 * aan * table.steps[i] as f64)) as f32;
                idct_mult[i] = (table.steps[i] as f64 * aan / 8.0) as f32;
            }
        }
        FoldedQuant { fold, idct_mult }
    }

    /// Quantizes the output of [`crate::dct::forward_scaled`]. Produces the
    /// same integers as `QuantTable::quantize(dct::forward(..))` up to ±1
    /// on half-step ties (see the type-level docs), identically on every
    /// SIMD backend.
    pub fn quantize_scaled(&self, scaled: &[f32; 64]) -> [i32; 64] {
        let mut out = [0i32; 64];
        self.quantize_scaled_into(scaled, &mut out);
        out
    }

    /// [`Self::quantize_scaled`] writing into a caller-provided block, so
    /// per-block loops can fill their destination in place.
    pub fn quantize_scaled_into(&self, scaled: &[f32; 64], out: &mut [i32; 64]) {
        quantize_folded(scaled, &self.fold, out);
    }

    /// Fused level shift + forward DCT + quantize + range clamp over a
    /// block whose 8 sample rows start at `src` spaced `stride` `f32`s
    /// apart (raw `[0, 255]`-nominal samples — the kernel applies the
    /// `-128` level shift in-lane). Bit-identical to staging the shifted
    /// block, running `forward_scaled_into` + `quantize_scaled_into`, and
    /// `clamp_block`ing the result.
    ///
    /// # Safety
    /// `src` must be valid for reads of `7 * stride + 8` `f32`s, and `out`
    /// for writes of 64 `i32`s. `out` may point at uninitialized memory:
    /// every slot is written, so `from_plane` can quantize straight into
    /// fresh `Vec` capacity without a zero-fill pass.
    pub unsafe fn fdct_quantize_rows_into(&self, src: *const f32, stride: usize, out: *mut i32) {
        fdct_quantize_rows(src, stride, &self.fold, out);
    }

    /// [`Self::fdct_quantize_rows_into`] over `nblocks` horizontally
    /// adjacent blocks (block `i` at `src + 8i` → `out + 64i`): one
    /// dispatch per block row.
    ///
    /// # Safety
    /// `src` must be valid for reads of `7 * stride + 8 * nblocks` `f32`s
    /// and `out` for `64 * nblocks` `i32` writes (may be uninitialized;
    /// every slot is written).
    pub unsafe fn fdct_quantize_row_band_into(
        &self,
        src: *const f32,
        stride: usize,
        nblocks: usize,
        out: *mut i32,
    ) {
        fdct_quantize_row_band(src, stride, nblocks, &self.fold, out);
    }

    /// [`Self::fdct_quantize_rows_into`] over a contiguous row-major block
    /// of raw samples — the safe form used for edge blocks and tests.
    pub fn fdct_quantize_block_into(&self, raw: &[f32; 64], out: &mut [i32; 64]) {
        fdct_quantize_rows(raw.as_ptr(), 8, &self.fold, out.as_mut_ptr());
    }

    /// [`Self::fdct_quantize_block_into`] on an explicit SIMD backend
    /// (test-facing; asserts the backend is available).
    pub fn fdct_quantize_block_into_with(
        &self,
        backend: puppies_image::simd::Backend,
        raw: &[f32; 64],
        out: &mut [i32; 64],
    ) {
        fdct_quantize_rows_with(backend, raw.as_ptr(), 8, &self.fold, out.as_mut_ptr());
    }

    /// [`Self::quantize_scaled_into`] on an explicit SIMD backend
    /// (test-facing; asserts the backend is available).
    pub fn quantize_scaled_into_with(
        &self,
        backend: puppies_image::simd::Backend,
        scaled: &[f32; 64],
        out: &mut [i32; 64],
    ) {
        quantize_folded_with(backend, scaled, &self.fold, out);
    }

    /// Dequantizes integer coefficients into [`crate::dct::inverse_scaled`]
    /// input. Equivalent to `dct`-scaling `QuantTable::dequantize` output.
    pub fn dequantize_scaled(&self, q: &[i32; 64]) -> [f32; 64] {
        let mut out = [0.0f32; 64];
        self.dequantize_scaled_into(q, &mut out);
        out
    }

    /// [`Self::dequantize_scaled`] writing into a caller-provided buffer.
    pub fn dequantize_scaled_into(&self, q: &[i32; 64], out: &mut [f32; 64]) {
        dequantize_folded(q, &self.idct_mult, out);
    }

    /// [`Self::dequantize_scaled_into`] on an explicit SIMD backend
    /// (test-facing; asserts the backend is available).
    pub fn dequantize_scaled_into_with(
        &self,
        backend: puppies_image::simd::Backend,
        q: &[i32; 64],
        out: &mut [f32; 64],
    ) {
        dequantize_folded_with(backend, q, &self.idct_mult, out);
    }
}

impl Default for QuantTable {
    /// The quality-75 luminance table.
    fn default() -> Self {
        QuantTable::luma(75)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_50_reproduces_base_tables() {
        assert_eq!(QuantTable::luma(50).steps(), &ANNEX_K_LUMA);
        assert_eq!(QuantTable::chroma(50).steps(), &ANNEX_K_CHROMA);
    }

    #[test]
    fn quality_100_is_all_ones() {
        assert!(QuantTable::luma(100).steps().iter().all(|&s| s == 1));
    }

    #[test]
    fn lower_quality_means_larger_steps() {
        let q20 = QuantTable::luma(20);
        let q80 = QuantTable::luma(80);
        for i in 0..64 {
            assert!(q20.steps()[i] >= q80.steps()[i], "index {i}");
        }
    }

    #[test]
    fn steps_clamped_to_255() {
        let q1 = QuantTable::luma(1);
        assert!(q1.steps().iter().all(|&s| s <= 255));
        assert!(q1.steps().iter().all(|&s| s >= 1));
    }

    #[test]
    fn quantize_dequantize_bounds_error_by_half_step() {
        let t = QuantTable::luma(75);
        let mut raw = [0.0f32; 64];
        for (i, v) in raw.iter_mut().enumerate() {
            *v = (i as f32 * 7.3) - 200.0;
        }
        let deq = t.dequantize(&t.quantize(&raw));
        for i in 0..64 {
            assert!(
                (deq[i] - raw[i]).abs() <= t.steps()[i] as f32 / 2.0 + 1e-3,
                "index {i}: {} vs {}",
                deq[i],
                raw[i]
            );
        }
    }

    #[test]
    fn requantize_matches_direct_quantization() {
        let fine = QuantTable::luma(90);
        let coarse = QuantTable::luma(40);
        let mut q = [0i32; 64];
        for (i, v) in q.iter_mut().enumerate() {
            *v = (i as i32 % 17) - 8;
        }
        let re = fine.requantize_to(&q, &coarse);
        let direct = coarse.quantize(&fine.dequantize(&q));
        assert_eq!(re, direct);
    }

    #[test]
    fn requantize_matches_wide_arithmetic_at_the_extremes() {
        // The i32 fast path must agree with plain i64 rounding, including
        // at the largest steps and on values that need the i64 path.
        let reference = |v: i32, from: u16, to: u16| {
            let (raw, step) = (v as i64 * from as i64, to as i64);
            let r = if raw >= 0 {
                (raw + step / 2) / step
            } else {
                (raw - step / 2) / step
            };
            r as i32
        };
        let values = [
            0,
            1,
            -1,
            7,
            -8,
            1023,
            -1024,
            32_767,
            -32_767,
            32_768,
            -32_768,
            1 << 20,
            -(1 << 20),
        ];
        for (from, to) in [
            (1u16, 1u16),
            (3, 255),
            (255, 7),
            (65_535, 65_535),
            (65_535, 2),
        ] {
            let (fine, coarse) = (QuantTable::new([from; 64]), QuantTable::new([to; 64]));
            for v in values {
                let mut q = [0i32; 64];
                q[5] = v;
                q[63] = -v;
                let out = fine.requantize_to(&q, &coarse);
                assert_eq!(out[5], reference(v, from, to), "{v} {from}->{to}");
                assert_eq!(out[63], reference(-v, from, to), "{} {from}->{to}", -v);
                assert_eq!(out[0], 0);
            }
        }
    }

    fn sample_block(seed: u32) -> [f32; 64] {
        let mut b = [0.0f32; 64];
        let mut s = seed;
        for v in &mut b {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            *v = (s % 256) as f32 - 128.0;
        }
        b
    }

    #[test]
    fn folded_quantize_matches_reference_pipeline() {
        // The fast path is all-f32 with a folded multiplier, so against the
        // f64 orthonormal reference it is a bounded differential: every
        // coefficient within ±1 (half-step ties land either way), and the
        // overwhelming majority identical. Exactness lives in the
        // cross-backend identity test below instead.
        let mut total = 0u64;
        let mut mismatched = 0u64;
        for quality in [25u8, 50, 75, 92] {
            for table in [QuantTable::luma(quality), QuantTable::chroma(quality)] {
                let folded = table.folded();
                for seed in [1u32, 77, 90210, 0xC0FFEE, 7_654_321] {
                    let block = sample_block(seed ^ quality as u32);
                    let reference = table.quantize(&crate::dct::forward(&block));
                    let fast = folded.quantize_scaled(&crate::dct::forward_scaled(&block));
                    for i in 0..64 {
                        assert!(
                            (reference[i] - fast[i]).abs() <= 1,
                            "q{quality} seed {seed} idx {i}: {} vs {}",
                            reference[i],
                            fast[i]
                        );
                        total += 1;
                        mismatched += u64::from(reference[i] != fast[i]);
                    }
                }
            }
        }
        assert!(
            mismatched * 100 <= total,
            "more than 1% of coefficients off-by-one: {mismatched}/{total}"
        );
    }

    #[test]
    fn folded_quantize_bit_identical_across_backends() {
        use puppies_image::simd::Backend;
        for quality in [25u8, 50, 75, 90] {
            let table = QuantTable::luma(quality);
            let folded = table.folded();
            for seed in [1u32, 77, 90210] {
                let block = sample_block(seed ^ quality as u32);
                let scaled = crate::dct::forward_scaled(&block);
                let mut want = [0i32; 64];
                folded.quantize_scaled_into_with(Backend::Scalar, &scaled, &mut want);
                let mut want_dq = [0.0f32; 64];
                folded.dequantize_scaled_into_with(Backend::Scalar, &want, &mut want_dq);
                for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
                    let mut got = [0i32; 64];
                    folded.quantize_scaled_into_with(backend, &scaled, &mut got);
                    assert_eq!(want, got, "quantize diverges on {}", backend.name());
                    let mut got_dq = [0.0f32; 64];
                    folded.dequantize_scaled_into_with(backend, &got, &mut got_dq);
                    assert_eq!(
                        want_dq.map(f32::to_bits),
                        got_dq.map(f32::to_bits),
                        "dequantize diverges on {}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fused_rows_matches_staged_pipeline_and_clamp() {
        use puppies_image::simd::Backend;
        // Ordinary, clamp-triggering (huge amplitude), and NaN-poisoned
        // blocks: the fused kernel must match stage-shift →
        // `forward_scaled_into` → `quantize_scaled_into` → clamp exactly,
        // on every backend.
        let mut cases: Vec<[f32; 64]> = vec![sample_block(42), sample_block(0xBEEF)];
        let mut big = [0.0f32; 64];
        for (i, v) in big.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 1.0e7 } else { -9.5e6 };
        }
        cases.push(big);
        let mut poisoned = sample_block(7);
        poisoned[3] = f32::NAN;
        poisoned[60] = f32::INFINITY;
        cases.push(poisoned);

        for quality in [25u8, 50, 75, 90] {
            let folded = QuantTable::luma(quality).folded();
            for raw in &cases {
                let mut shifted = [0.0f32; 64];
                for i in 0..64 {
                    shifted[i] = raw[i] - 128.0;
                }
                let mut scaled = [0.0f32; 64];
                crate::dct::forward_scaled_into(&shifted, &mut scaled);
                let mut want = [0i32; 64];
                folded.quantize_scaled_into(&scaled, &mut want);
                want[0] = want[0].clamp(crate::COEFF_MIN, crate::COEFF_MAX);
                for v in &mut want[1..] {
                    *v = (*v).clamp(crate::AC_MIN, crate::AC_MAX);
                }
                for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
                    let mut got = [0i32; 64];
                    folded.fdct_quantize_block_into_with(backend, raw, &mut got);
                    assert_eq!(want, got, "fused diverges on {}", backend.name());
                }
            }
        }
    }

    #[test]
    fn folded_dequantize_feeds_inverse_scaled_matching_reference() {
        let table = QuantTable::luma(75);
        let folded = table.folded();
        let mut q = [0i32; 64];
        let mut s = 0xABCDu32;
        for v in &mut q {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            *v = (s % 41) as i32 - 20;
        }
        let reference = crate::dct::inverse(&table.dequantize(&q));
        let fast = crate::dct::inverse_scaled(&folded.dequantize_scaled(&q));
        for i in 0..64 {
            assert!(
                (reference[i] - fast[i]).abs() < 1e-3,
                "idx {i}: {} vs {}",
                reference[i],
                fast[i]
            );
        }
    }

    #[test]
    fn nearest_quality_roundtrips_ijg_scaling() {
        for q in [1u8, 10, 25, 50, 75, 90, 95, 99, 100] {
            assert_eq!(QuantTable::luma(q).nearest_quality(&ANNEX_K_LUMA), q);
        }
        // Chroma saturates to an all-255 table for q <= 3 (the base table's
        // smallest step is 17), so those qualities are indistinguishable —
        // start at 4 where the scaling is injective again.
        for q in [4u8, 10, 25, 50, 75, 90, 95, 99, 100] {
            assert_eq!(QuantTable::chroma(q).nearest_quality(&ANNEX_K_CHROMA), q);
        }
    }

    #[test]
    fn nearest_quality_tolerates_small_perturbations() {
        // A table one step off in one slot still resolves to the quality
        // that generated it.
        let mut steps = *QuantTable::luma(75).steps();
        steps[5] += 1;
        assert_eq!(QuantTable::new(steps).nearest_quality(&ANNEX_K_LUMA), 75);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_rejected() {
        let mut s = ANNEX_K_LUMA;
        s[5] = 0;
        let _ = QuantTable::new(s);
    }

    #[test]
    fn luma_low_frequencies_have_smaller_steps() {
        // The premise behind Algorithm 3's wide-range protection of low
        // frequencies: the standard table quantizes them more finely.
        let t = QuantTable::luma(50);
        assert!(t.steps()[0] < t.steps()[63]);
        assert!(t.steps()[1] < t.steps()[62]);
    }
}

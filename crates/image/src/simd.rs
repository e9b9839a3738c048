//! Portable 8-lane SIMD abstraction for the hot JPEG / perturbation kernels.
//!
//! The workspace's bit-exactness contract is *SIMD == scalar*, not
//! *fast == f64 reference*: every kernel is written once, generically, over
//! the [`Simd8`] trait, performing the identical elementwise sequence of
//! IEEE-754 single-precision adds, subs and muls on every backend (no FMA,
//! no reassociation). Because those operations are fully determined by IEEE
//! semantics, all backends produce byte-identical results by construction.
//! The f64 orthonormal DCT in `puppies-jpeg::dct` remains the *differential*
//! (tolerance-based) reference.
//!
//! Backend selection happens once per process via [`backend`]: runtime CPU
//! feature detection (AVX2 > SSE2 on x86-64, NEON on aarch64, scalar
//! otherwise), overridable with the `PUPPIES_SIMD` environment variable
//! (`scalar` | `sse2` | `avx2` | `neon`). An unknown or unavailable override
//! panics loudly so CI matrix jobs can never silently test the wrong lanes.
//! Under Miri the default is the scalar backend; explicitly requested
//! backends (via [`simd_dispatch!`](crate::simd_dispatch!)'s `*_with`
//! variants) remain usable for compile-time-detected features.
//!
//! Hot-path consumers do not match on [`Backend`] themselves — they declare
//! dispatchers with the [`simd_dispatch!`](crate::simd_dispatch!) macro,
//! which monomorphises the generic kernel per backend inside
//! `#[target_feature]` wrappers and dispatches on the cached detection
//! result.

// The trait's methods are wholesale `unsafe fn` so that backend impls can
// call `core::arch` intrinsics directly; the single safety contract (callers
// must have verified the backend's CPU features, see the trait docs) applies
// uniformly to all ~30 methods, so it is documented once on the trait rather
// than repeated per method.
#![allow(clippy::missing_safety_doc)]

use std::sync::atomic::{AtomicU8, Ordering};

/// An 8-lane SIMD backend.
///
/// All operations are associated functions (no `self`) over the two vector
/// types `F` (8 × f32) and `I` (8 × i32). Lane order is the natural memory
/// order of the `[f32; 8]` / `[i32; 8]` arrays passed to `f_load` / `i_load`.
///
/// # Safety
///
/// Every method is `unsafe` with one uniform contract: the caller must have
/// verified that the CPU supports the backend's instruction set (i.e.
/// `Backend::available()` returned `true` for the corresponding [`Backend`],
/// or the feature is statically enabled). [`Scalar8`] has no requirements and
/// all of its methods are trivially safe to call.
///
/// Semantic notes shared by all backends (kernels rely on these):
///
/// * `f_min` / `f_max` follow SSE `minps`/`maxps`: `min(a, b)` is
///   `if a < b { a } else { b }` — the *second* operand is returned when
///   either input is NaN. (NEON's `vminq_f32` differs on NaN; kernels must
///   only feed finite values through min/max, which all of ours do.)
/// * `f_cmp_*` are *ordered* compares returning all-ones (`0xFFFF_FFFF`) or
///   all-zeros lane masks; any compare involving NaN yields all-zeros.
/// * `i_to_f` is exact for |v| < 2^24 (`cvtdq2ps` / `as f32` both round to
///   nearest, identical results).
/// * No method may be implemented with FMA or any op sequence that differs
///   in rounding from the scalar backend.
pub trait Simd8 {
    /// 8 × f32 vector.
    type F: Copy;
    /// 8 × i32 vector.
    type I: Copy;

    unsafe fn f_load(src: &[f32; 8]) -> Self::F;
    unsafe fn f_store(v: Self::F, dst: &mut [f32; 8]);
    unsafe fn f_splat(x: f32) -> Self::F;
    unsafe fn f_add(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn f_sub(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn f_mul(a: Self::F, b: Self::F) -> Self::F;
    /// `if a < b { a } else { b }` per lane (returns `b` on NaN).
    unsafe fn f_min(a: Self::F, b: Self::F) -> Self::F;
    /// `if a > b { a } else { b }` per lane (returns `b` on NaN).
    unsafe fn f_max(a: Self::F, b: Self::F) -> Self::F;
    /// Bitwise AND of the lane bit patterns.
    unsafe fn f_and(a: Self::F, b: Self::F) -> Self::F;
    /// Clears the sign bit of every lane.
    unsafe fn f_abs(v: Self::F) -> Self::F;
    unsafe fn f_cmp_ge(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn f_cmp_gt(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn f_cmp_le(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn f_cmp_lt(a: Self::F, b: Self::F) -> Self::F;
    /// True if any lane's sign bit is set (use on compare masks).
    unsafe fn f_any(mask: Self::F) -> bool;
    /// True if every lane's sign bit is set (use on compare masks).
    unsafe fn f_all(mask: Self::F) -> bool;
    /// Bit-casts the f32 lanes to i32 lanes.
    unsafe fn f_bits(v: Self::F) -> Self::I;
    /// In-place 8×8 transpose of eight row vectors.
    unsafe fn f_transpose8(rows: &mut [Self::F; 8]);

    unsafe fn i_load(src: &[i32; 8]) -> Self::I;
    unsafe fn i_store(v: Self::I, dst: &mut [i32; 8]);
    unsafe fn i_splat(x: i32) -> Self::I;
    unsafe fn i_add(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn i_sub(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn i_min(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn i_max(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn i_and(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn i_or(a: Self::I, b: Self::I) -> Self::I;
    /// `!a & b` per lane (the x86 `andnot` operand order).
    unsafe fn i_andnot(a: Self::I, b: Self::I) -> Self::I;
    /// All-ones lane where `a > b` (signed), zero elsewhere.
    unsafe fn i_cmp_gt(a: Self::I, b: Self::I) -> Self::I;
    /// All-ones lane where `a == b`, zero elsewhere.
    unsafe fn i_cmp_eq(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn i_to_f(v: Self::I) -> Self::F;
    /// One bit per lane (bit k = lane k), set where the lane is non-zero.
    unsafe fn i_nonzero_mask(v: Self::I) -> u32;

    /// Widens 8 packed RGB pixels (24 bytes: `r0 g0 b0 r1 …`) into three
    /// i32 lane vectors `(r, g, b)`, each lane in `0..=255`. Pure data
    /// movement plus zero-extension — every backend must produce identical
    /// lanes, so `i_to_f(rgb_widen(..))` matches a scalar `u8 as f32`
    /// gather bit-for-bit. The default is the scalar gather; backends with
    /// byte shuffles override it.
    #[inline(always)]
    unsafe fn rgb_widen(src: &[u8; 24]) -> (Self::I, Self::I, Self::I) {
        let mut r = [0i32; 8];
        let mut g = [0i32; 8];
        let mut b = [0i32; 8];
        for i in 0..8 {
            r[i] = src[3 * i] as i32;
            g[i] = src[3 * i + 1] as i32;
            b[i] = src[3 * i + 2] as i32;
        }
        unsafe { (Self::i_load(&r), Self::i_load(&g), Self::i_load(&b)) }
    }
}

// ---------------------------------------------------------------------------
// Scalar backend
// ---------------------------------------------------------------------------

/// Scalar fallback: plain `[f32; 8]` / `[i32; 8]` arrays with elementwise
/// loops. Always available; the compiler is free to autovectorise it, which
/// cannot change results (IEEE ops are deterministic and we forbid FMA).
pub struct Scalar8;

impl Simd8 for Scalar8 {
    type F = [f32; 8];
    type I = [i32; 8];

    #[inline(always)]
    unsafe fn f_load(src: &[f32; 8]) -> Self::F {
        *src
    }
    #[inline(always)]
    unsafe fn f_store(v: Self::F, dst: &mut [f32; 8]) {
        *dst = v;
    }
    #[inline(always)]
    unsafe fn f_splat(x: f32) -> Self::F {
        [x; 8]
    }
    #[inline(always)]
    unsafe fn f_add(a: Self::F, b: Self::F) -> Self::F {
        std::array::from_fn(|i| a[i] + b[i])
    }
    #[inline(always)]
    unsafe fn f_sub(a: Self::F, b: Self::F) -> Self::F {
        std::array::from_fn(|i| a[i] - b[i])
    }
    #[inline(always)]
    unsafe fn f_mul(a: Self::F, b: Self::F) -> Self::F {
        std::array::from_fn(|i| a[i] * b[i])
    }
    #[inline(always)]
    unsafe fn f_min(a: Self::F, b: Self::F) -> Self::F {
        std::array::from_fn(|i| if a[i] < b[i] { a[i] } else { b[i] })
    }
    #[inline(always)]
    unsafe fn f_max(a: Self::F, b: Self::F) -> Self::F {
        std::array::from_fn(|i| if a[i] > b[i] { a[i] } else { b[i] })
    }
    #[inline(always)]
    unsafe fn f_and(a: Self::F, b: Self::F) -> Self::F {
        std::array::from_fn(|i| f32::from_bits(a[i].to_bits() & b[i].to_bits()))
    }
    #[inline(always)]
    unsafe fn f_abs(v: Self::F) -> Self::F {
        std::array::from_fn(|i| f32::from_bits(v[i].to_bits() & 0x7FFF_FFFF))
    }
    #[inline(always)]
    unsafe fn f_cmp_ge(a: Self::F, b: Self::F) -> Self::F {
        std::array::from_fn(|i| mask32(a[i] >= b[i]))
    }
    #[inline(always)]
    unsafe fn f_cmp_gt(a: Self::F, b: Self::F) -> Self::F {
        std::array::from_fn(|i| mask32(a[i] > b[i]))
    }
    #[inline(always)]
    unsafe fn f_cmp_le(a: Self::F, b: Self::F) -> Self::F {
        std::array::from_fn(|i| mask32(a[i] <= b[i]))
    }
    #[inline(always)]
    unsafe fn f_cmp_lt(a: Self::F, b: Self::F) -> Self::F {
        std::array::from_fn(|i| mask32(a[i] < b[i]))
    }
    #[inline(always)]
    unsafe fn f_any(mask: Self::F) -> bool {
        mask.iter().any(|x| x.to_bits() & 0x8000_0000 != 0)
    }
    #[inline(always)]
    unsafe fn f_all(mask: Self::F) -> bool {
        mask.iter().all(|x| x.to_bits() & 0x8000_0000 != 0)
    }
    #[inline(always)]
    unsafe fn f_bits(v: Self::F) -> Self::I {
        std::array::from_fn(|i| v[i].to_bits() as i32)
    }
    #[inline(always)]
    unsafe fn f_transpose8(rows: &mut [Self::F; 8]) {
        // Triangular element swap; indices address both sides of the diagonal.
        #[allow(clippy::needless_range_loop)]
        for r in 0..8 {
            for c in (r + 1)..8 {
                let t = rows[r][c];
                rows[r][c] = rows[c][r];
                rows[c][r] = t;
            }
        }
    }

    #[inline(always)]
    unsafe fn i_load(src: &[i32; 8]) -> Self::I {
        *src
    }
    #[inline(always)]
    unsafe fn i_store(v: Self::I, dst: &mut [i32; 8]) {
        *dst = v;
    }
    #[inline(always)]
    unsafe fn i_splat(x: i32) -> Self::I {
        [x; 8]
    }
    #[inline(always)]
    unsafe fn i_add(a: Self::I, b: Self::I) -> Self::I {
        std::array::from_fn(|i| a[i].wrapping_add(b[i]))
    }
    #[inline(always)]
    unsafe fn i_sub(a: Self::I, b: Self::I) -> Self::I {
        std::array::from_fn(|i| a[i].wrapping_sub(b[i]))
    }
    #[inline(always)]
    unsafe fn i_min(a: Self::I, b: Self::I) -> Self::I {
        std::array::from_fn(|i| a[i].min(b[i]))
    }
    #[inline(always)]
    unsafe fn i_max(a: Self::I, b: Self::I) -> Self::I {
        std::array::from_fn(|i| a[i].max(b[i]))
    }
    #[inline(always)]
    unsafe fn i_and(a: Self::I, b: Self::I) -> Self::I {
        std::array::from_fn(|i| a[i] & b[i])
    }
    #[inline(always)]
    unsafe fn i_or(a: Self::I, b: Self::I) -> Self::I {
        std::array::from_fn(|i| a[i] | b[i])
    }
    #[inline(always)]
    unsafe fn i_andnot(a: Self::I, b: Self::I) -> Self::I {
        std::array::from_fn(|i| !a[i] & b[i])
    }
    #[inline(always)]
    unsafe fn i_cmp_gt(a: Self::I, b: Self::I) -> Self::I {
        std::array::from_fn(|i| if a[i] > b[i] { -1 } else { 0 })
    }
    #[inline(always)]
    unsafe fn i_cmp_eq(a: Self::I, b: Self::I) -> Self::I {
        std::array::from_fn(|i| if a[i] == b[i] { -1 } else { 0 })
    }
    #[inline(always)]
    unsafe fn i_to_f(v: Self::I) -> Self::F {
        std::array::from_fn(|i| v[i] as f32)
    }
    #[inline(always)]
    unsafe fn i_nonzero_mask(v: Self::I) -> u32 {
        let mut m = 0u32;
        for (i, &x) in v.iter().enumerate() {
            m |= u32::from(x != 0) << i;
        }
        m
    }
}

#[inline(always)]
fn mask32(b: bool) -> f32 {
    if b {
        f32::from_bits(0xFFFF_FFFF)
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// x86-64 backends: SSE2 (two __m128 halves) and AVX2 (__m256)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Simd8;
    use core::arch::x86_64::*;

    /// 8 f32 lanes as two `__m128` halves (lanes 0..4, 4..8).
    #[derive(Clone, Copy)]
    pub struct F128x2(__m128, __m128);
    /// 8 i32 lanes as two `__m128i` halves.
    #[derive(Clone, Copy)]
    pub struct I128x2(__m128i, __m128i);

    /// SSE2 backend (baseline on x86-64).
    pub struct Sse2;

    macro_rules! sse_bin {
        ($intr:ident, $a:expr, $b:expr) => {
            F128x2($intr($a.0, $b.0), $intr($a.1, $b.1))
        };
    }

    impl Simd8 for Sse2 {
        type F = F128x2;
        type I = I128x2;

        #[inline(always)]
        unsafe fn f_load(src: &[f32; 8]) -> Self::F {
            let p = src.as_ptr();
            F128x2(_mm_loadu_ps(p), _mm_loadu_ps(p.add(4)))
        }
        #[inline(always)]
        unsafe fn f_store(v: Self::F, dst: &mut [f32; 8]) {
            let p = dst.as_mut_ptr();
            _mm_storeu_ps(p, v.0);
            _mm_storeu_ps(p.add(4), v.1);
        }
        #[inline(always)]
        unsafe fn f_splat(x: f32) -> Self::F {
            let v = _mm_set1_ps(x);
            F128x2(v, v)
        }
        #[inline(always)]
        unsafe fn f_add(a: Self::F, b: Self::F) -> Self::F {
            sse_bin!(_mm_add_ps, a, b)
        }
        #[inline(always)]
        unsafe fn f_sub(a: Self::F, b: Self::F) -> Self::F {
            sse_bin!(_mm_sub_ps, a, b)
        }
        #[inline(always)]
        unsafe fn f_mul(a: Self::F, b: Self::F) -> Self::F {
            sse_bin!(_mm_mul_ps, a, b)
        }
        #[inline(always)]
        unsafe fn f_min(a: Self::F, b: Self::F) -> Self::F {
            sse_bin!(_mm_min_ps, a, b)
        }
        #[inline(always)]
        unsafe fn f_max(a: Self::F, b: Self::F) -> Self::F {
            sse_bin!(_mm_max_ps, a, b)
        }
        #[inline(always)]
        unsafe fn f_and(a: Self::F, b: Self::F) -> Self::F {
            sse_bin!(_mm_and_ps, a, b)
        }
        #[inline(always)]
        unsafe fn f_abs(v: Self::F) -> Self::F {
            let m = _mm_castsi128_ps(_mm_set1_epi32(0x7FFF_FFFF));
            F128x2(_mm_and_ps(v.0, m), _mm_and_ps(v.1, m))
        }
        #[inline(always)]
        unsafe fn f_cmp_ge(a: Self::F, b: Self::F) -> Self::F {
            sse_bin!(_mm_cmpge_ps, a, b)
        }
        #[inline(always)]
        unsafe fn f_cmp_gt(a: Self::F, b: Self::F) -> Self::F {
            sse_bin!(_mm_cmpgt_ps, a, b)
        }
        #[inline(always)]
        unsafe fn f_cmp_le(a: Self::F, b: Self::F) -> Self::F {
            sse_bin!(_mm_cmple_ps, a, b)
        }
        #[inline(always)]
        unsafe fn f_cmp_lt(a: Self::F, b: Self::F) -> Self::F {
            sse_bin!(_mm_cmplt_ps, a, b)
        }
        #[inline(always)]
        unsafe fn f_any(mask: Self::F) -> bool {
            (_mm_movemask_ps(mask.0) | _mm_movemask_ps(mask.1)) != 0
        }
        #[inline(always)]
        unsafe fn f_all(mask: Self::F) -> bool {
            (_mm_movemask_ps(mask.0) & _mm_movemask_ps(mask.1)) == 0xF
        }
        #[inline(always)]
        unsafe fn f_bits(v: Self::F) -> Self::I {
            I128x2(_mm_castps_si128(v.0), _mm_castps_si128(v.1))
        }
        #[inline(always)]
        unsafe fn f_transpose8(rows: &mut [Self::F; 8]) {
            // Four 4×4 quadrant transposes; the off-diagonal quadrants swap.
            #[inline(always)]
            unsafe fn t4(a: __m128, b: __m128, c: __m128, d: __m128) -> [__m128; 4] {
                let t0 = _mm_unpacklo_ps(a, b);
                let t1 = _mm_unpackhi_ps(a, b);
                let t2 = _mm_unpacklo_ps(c, d);
                let t3 = _mm_unpackhi_ps(c, d);
                [
                    _mm_movelh_ps(t0, t2),
                    _mm_movehl_ps(t2, t0),
                    _mm_movelh_ps(t1, t3),
                    _mm_movehl_ps(t3, t1),
                ]
            }
            let a = t4(rows[0].0, rows[1].0, rows[2].0, rows[3].0);
            let b = t4(rows[0].1, rows[1].1, rows[2].1, rows[3].1);
            let c = t4(rows[4].0, rows[5].0, rows[6].0, rows[7].0);
            let d = t4(rows[4].1, rows[5].1, rows[6].1, rows[7].1);
            for i in 0..4 {
                rows[i] = F128x2(a[i], c[i]);
                rows[i + 4] = F128x2(b[i], d[i]);
            }
        }

        #[inline(always)]
        unsafe fn i_load(src: &[i32; 8]) -> Self::I {
            let p = src.as_ptr() as *const __m128i;
            I128x2(_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        }
        #[inline(always)]
        unsafe fn i_store(v: Self::I, dst: &mut [i32; 8]) {
            let p = dst.as_mut_ptr() as *mut __m128i;
            _mm_storeu_si128(p, v.0);
            _mm_storeu_si128(p.add(1), v.1);
        }
        #[inline(always)]
        unsafe fn i_splat(x: i32) -> Self::I {
            let v = _mm_set1_epi32(x);
            I128x2(v, v)
        }
        #[inline(always)]
        unsafe fn i_add(a: Self::I, b: Self::I) -> Self::I {
            I128x2(_mm_add_epi32(a.0, b.0), _mm_add_epi32(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_sub(a: Self::I, b: Self::I) -> Self::I {
            I128x2(_mm_sub_epi32(a.0, b.0), _mm_sub_epi32(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_min(a: Self::I, b: Self::I) -> Self::I {
            // SSE2 has no pminsd; select via the a>b mask.
            #[inline(always)]
            unsafe fn min128(a: __m128i, b: __m128i) -> __m128i {
                let gt = _mm_cmpgt_epi32(a, b);
                _mm_or_si128(_mm_and_si128(gt, b), _mm_andnot_si128(gt, a))
            }
            I128x2(min128(a.0, b.0), min128(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_max(a: Self::I, b: Self::I) -> Self::I {
            #[inline(always)]
            unsafe fn max128(a: __m128i, b: __m128i) -> __m128i {
                let gt = _mm_cmpgt_epi32(a, b);
                _mm_or_si128(_mm_and_si128(gt, a), _mm_andnot_si128(gt, b))
            }
            I128x2(max128(a.0, b.0), max128(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_and(a: Self::I, b: Self::I) -> Self::I {
            I128x2(_mm_and_si128(a.0, b.0), _mm_and_si128(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_or(a: Self::I, b: Self::I) -> Self::I {
            I128x2(_mm_or_si128(a.0, b.0), _mm_or_si128(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_andnot(a: Self::I, b: Self::I) -> Self::I {
            I128x2(_mm_andnot_si128(a.0, b.0), _mm_andnot_si128(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_cmp_gt(a: Self::I, b: Self::I) -> Self::I {
            I128x2(_mm_cmpgt_epi32(a.0, b.0), _mm_cmpgt_epi32(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_cmp_eq(a: Self::I, b: Self::I) -> Self::I {
            I128x2(_mm_cmpeq_epi32(a.0, b.0), _mm_cmpeq_epi32(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_to_f(v: Self::I) -> Self::F {
            F128x2(_mm_cvtepi32_ps(v.0), _mm_cvtepi32_ps(v.1))
        }
        #[inline(always)]
        unsafe fn i_nonzero_mask(v: Self::I) -> u32 {
            let z = _mm_setzero_si128();
            let lo = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v.0, z))) as u32;
            let hi = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v.1, z))) as u32;
            !(lo | (hi << 4)) & 0xFF
        }
    }

    /// AVX2 backend (one `__m256` / `__m256i` per vector).
    pub struct Avx2;

    impl Simd8 for Avx2 {
        type F = __m256;
        type I = __m256i;

        #[inline(always)]
        unsafe fn f_load(src: &[f32; 8]) -> Self::F {
            _mm256_loadu_ps(src.as_ptr())
        }
        #[inline(always)]
        unsafe fn f_store(v: Self::F, dst: &mut [f32; 8]) {
            _mm256_storeu_ps(dst.as_mut_ptr(), v);
        }
        #[inline(always)]
        unsafe fn f_splat(x: f32) -> Self::F {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn f_add(a: Self::F, b: Self::F) -> Self::F {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn f_sub(a: Self::F, b: Self::F) -> Self::F {
            _mm256_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn f_mul(a: Self::F, b: Self::F) -> Self::F {
            _mm256_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn f_min(a: Self::F, b: Self::F) -> Self::F {
            _mm256_min_ps(a, b)
        }
        #[inline(always)]
        unsafe fn f_max(a: Self::F, b: Self::F) -> Self::F {
            _mm256_max_ps(a, b)
        }
        #[inline(always)]
        unsafe fn f_and(a: Self::F, b: Self::F) -> Self::F {
            _mm256_and_ps(a, b)
        }
        #[inline(always)]
        unsafe fn f_abs(v: Self::F) -> Self::F {
            _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF)))
        }
        #[inline(always)]
        unsafe fn f_cmp_ge(a: Self::F, b: Self::F) -> Self::F {
            _mm256_cmp_ps::<_CMP_GE_OS>(a, b)
        }
        #[inline(always)]
        unsafe fn f_cmp_gt(a: Self::F, b: Self::F) -> Self::F {
            _mm256_cmp_ps::<_CMP_GT_OS>(a, b)
        }
        #[inline(always)]
        unsafe fn f_cmp_le(a: Self::F, b: Self::F) -> Self::F {
            _mm256_cmp_ps::<_CMP_LE_OS>(a, b)
        }
        #[inline(always)]
        unsafe fn f_cmp_lt(a: Self::F, b: Self::F) -> Self::F {
            _mm256_cmp_ps::<_CMP_LT_OS>(a, b)
        }
        #[inline(always)]
        unsafe fn f_any(mask: Self::F) -> bool {
            _mm256_movemask_ps(mask) != 0
        }
        #[inline(always)]
        unsafe fn f_all(mask: Self::F) -> bool {
            _mm256_movemask_ps(mask) == 0xFF
        }
        #[inline(always)]
        unsafe fn f_bits(v: Self::F) -> Self::I {
            _mm256_castps_si256(v)
        }
        #[inline(always)]
        unsafe fn f_transpose8(rows: &mut [Self::F; 8]) {
            let t0 = _mm256_unpacklo_ps(rows[0], rows[1]);
            let t1 = _mm256_unpackhi_ps(rows[0], rows[1]);
            let t2 = _mm256_unpacklo_ps(rows[2], rows[3]);
            let t3 = _mm256_unpackhi_ps(rows[2], rows[3]);
            let t4 = _mm256_unpacklo_ps(rows[4], rows[5]);
            let t5 = _mm256_unpackhi_ps(rows[4], rows[5]);
            let t6 = _mm256_unpacklo_ps(rows[6], rows[7]);
            let t7 = _mm256_unpackhi_ps(rows[6], rows[7]);
            const LO: i32 = 0b01_00_01_00; // _MM_SHUFFLE(1,0,1,0)
            const HI: i32 = 0b11_10_11_10; // _MM_SHUFFLE(3,2,3,2)
            let s0 = _mm256_shuffle_ps::<LO>(t0, t2);
            let s1 = _mm256_shuffle_ps::<HI>(t0, t2);
            let s2 = _mm256_shuffle_ps::<LO>(t1, t3);
            let s3 = _mm256_shuffle_ps::<HI>(t1, t3);
            let s4 = _mm256_shuffle_ps::<LO>(t4, t6);
            let s5 = _mm256_shuffle_ps::<HI>(t4, t6);
            let s6 = _mm256_shuffle_ps::<LO>(t5, t7);
            let s7 = _mm256_shuffle_ps::<HI>(t5, t7);
            rows[0] = _mm256_permute2f128_ps::<0x20>(s0, s4);
            rows[1] = _mm256_permute2f128_ps::<0x20>(s1, s5);
            rows[2] = _mm256_permute2f128_ps::<0x20>(s2, s6);
            rows[3] = _mm256_permute2f128_ps::<0x20>(s3, s7);
            rows[4] = _mm256_permute2f128_ps::<0x31>(s0, s4);
            rows[5] = _mm256_permute2f128_ps::<0x31>(s1, s5);
            rows[6] = _mm256_permute2f128_ps::<0x31>(s2, s6);
            rows[7] = _mm256_permute2f128_ps::<0x31>(s3, s7);
        }

        #[inline(always)]
        unsafe fn i_load(src: &[i32; 8]) -> Self::I {
            _mm256_loadu_si256(src.as_ptr() as *const __m256i)
        }
        #[inline(always)]
        unsafe fn i_store(v: Self::I, dst: &mut [i32; 8]) {
            _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, v);
        }
        #[inline(always)]
        unsafe fn i_splat(x: i32) -> Self::I {
            _mm256_set1_epi32(x)
        }
        #[inline(always)]
        unsafe fn i_add(a: Self::I, b: Self::I) -> Self::I {
            _mm256_add_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn i_sub(a: Self::I, b: Self::I) -> Self::I {
            _mm256_sub_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn i_min(a: Self::I, b: Self::I) -> Self::I {
            _mm256_min_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn i_max(a: Self::I, b: Self::I) -> Self::I {
            _mm256_max_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn i_and(a: Self::I, b: Self::I) -> Self::I {
            _mm256_and_si256(a, b)
        }
        #[inline(always)]
        unsafe fn i_or(a: Self::I, b: Self::I) -> Self::I {
            _mm256_or_si256(a, b)
        }
        #[inline(always)]
        unsafe fn i_andnot(a: Self::I, b: Self::I) -> Self::I {
            _mm256_andnot_si256(a, b)
        }
        #[inline(always)]
        unsafe fn i_cmp_gt(a: Self::I, b: Self::I) -> Self::I {
            _mm256_cmpgt_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn i_cmp_eq(a: Self::I, b: Self::I) -> Self::I {
            _mm256_cmpeq_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn i_to_f(v: Self::I) -> Self::F {
            _mm256_cvtepi32_ps(v)
        }
        #[inline(always)]
        unsafe fn i_nonzero_mask(v: Self::I) -> u32 {
            let z = _mm256_setzero_si256();
            let eq = _mm256_cmpeq_epi32(v, z);
            !(_mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32) & 0xFF
        }

        #[inline(always)]
        unsafe fn rgb_widen(src: &[u8; 24]) -> (Self::I, Self::I, Self::I) {
            // Two overlapping 16-byte loads cover the 24 bytes without
            // reading past the array: `lo` holds pixels 0..4 in bytes
            // 0..12, `hi` starts at byte 8 so pixels 4..8 sit at offsets
            // 4/7/10/13. One pshufb per half gathers a channel's four
            // bytes straight into zero-extended i32 lanes (the -1 mask
            // bytes clear the upper three bytes of every lane).
            let p = src.as_ptr();
            let lo = _mm_loadu_si128(p as *const __m128i);
            let hi = _mm_loadu_si128(p.add(8) as *const __m128i);
            #[inline(always)]
            unsafe fn chan(lo: __m128i, hi: __m128i, o: i8) -> __m256i {
                #[rustfmt::skip]
                let ml = _mm_setr_epi8(
                    o, -1, -1, -1, o + 3, -1, -1, -1,
                    o + 6, -1, -1, -1, o + 9, -1, -1, -1,
                );
                #[rustfmt::skip]
                let mh = _mm_setr_epi8(
                    o + 4, -1, -1, -1, o + 7, -1, -1, -1,
                    o + 10, -1, -1, -1, o + 13, -1, -1, -1,
                );
                _mm256_inserti128_si256(
                    _mm256_castsi128_si256(_mm_shuffle_epi8(lo, ml)),
                    _mm_shuffle_epi8(hi, mh),
                    1,
                )
            }
            (chan(lo, hi, 0), chan(lo, hi, 1), chan(lo, hi, 2))
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{Avx2, Sse2};

// ---------------------------------------------------------------------------
// aarch64 backend: NEON (two float32x4_t halves)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::Simd8;
    use core::arch::aarch64::*;

    /// 8 f32 lanes as two `float32x4_t` halves (lanes 0..4, 4..8).
    #[derive(Clone, Copy)]
    pub struct F4x2(float32x4_t, float32x4_t);
    /// 8 i32 lanes as two `int32x4_t` halves.
    #[derive(Clone, Copy)]
    pub struct I4x2(int32x4_t, int32x4_t);

    /// NEON backend (baseline on aarch64).
    pub struct Neon;

    macro_rules! neon_bin {
        ($intr:ident, $a:expr, $b:expr) => {
            F4x2($intr($a.0, $b.0), $intr($a.1, $b.1))
        };
    }
    macro_rules! neon_cmp {
        ($intr:ident, $a:expr, $b:expr) => {
            F4x2(
                vreinterpretq_f32_u32($intr($a.0, $b.0)),
                vreinterpretq_f32_u32($intr($a.1, $b.1)),
            )
        };
    }

    impl Simd8 for Neon {
        type F = F4x2;
        type I = I4x2;

        #[inline(always)]
        unsafe fn f_load(src: &[f32; 8]) -> Self::F {
            let p = src.as_ptr();
            F4x2(vld1q_f32(p), vld1q_f32(p.add(4)))
        }
        #[inline(always)]
        unsafe fn f_store(v: Self::F, dst: &mut [f32; 8]) {
            let p = dst.as_mut_ptr();
            vst1q_f32(p, v.0);
            vst1q_f32(p.add(4), v.1);
        }
        #[inline(always)]
        unsafe fn f_splat(x: f32) -> Self::F {
            let v = vdupq_n_f32(x);
            F4x2(v, v)
        }
        #[inline(always)]
        unsafe fn f_add(a: Self::F, b: Self::F) -> Self::F {
            neon_bin!(vaddq_f32, a, b)
        }
        #[inline(always)]
        unsafe fn f_sub(a: Self::F, b: Self::F) -> Self::F {
            neon_bin!(vsubq_f32, a, b)
        }
        #[inline(always)]
        unsafe fn f_mul(a: Self::F, b: Self::F) -> Self::F {
            neon_bin!(vmulq_f32, a, b)
        }
        #[inline(always)]
        unsafe fn f_min(a: Self::F, b: Self::F) -> Self::F {
            // NEON min/max differ from SSE on NaN; kernels only pass finite
            // values through min/max (see trait docs).
            neon_bin!(vminq_f32, a, b)
        }
        #[inline(always)]
        unsafe fn f_max(a: Self::F, b: Self::F) -> Self::F {
            neon_bin!(vmaxq_f32, a, b)
        }
        #[inline(always)]
        unsafe fn f_and(a: Self::F, b: Self::F) -> Self::F {
            F4x2(
                vreinterpretq_f32_u32(vandq_u32(
                    vreinterpretq_u32_f32(a.0),
                    vreinterpretq_u32_f32(b.0),
                )),
                vreinterpretq_f32_u32(vandq_u32(
                    vreinterpretq_u32_f32(a.1),
                    vreinterpretq_u32_f32(b.1),
                )),
            )
        }
        #[inline(always)]
        unsafe fn f_abs(v: Self::F) -> Self::F {
            F4x2(vabsq_f32(v.0), vabsq_f32(v.1))
        }
        #[inline(always)]
        unsafe fn f_cmp_ge(a: Self::F, b: Self::F) -> Self::F {
            neon_cmp!(vcgeq_f32, a, b)
        }
        #[inline(always)]
        unsafe fn f_cmp_gt(a: Self::F, b: Self::F) -> Self::F {
            neon_cmp!(vcgtq_f32, a, b)
        }
        #[inline(always)]
        unsafe fn f_cmp_le(a: Self::F, b: Self::F) -> Self::F {
            neon_cmp!(vcleq_f32, a, b)
        }
        #[inline(always)]
        unsafe fn f_cmp_lt(a: Self::F, b: Self::F) -> Self::F {
            neon_cmp!(vcltq_f32, a, b)
        }
        #[inline(always)]
        unsafe fn f_any(mask: Self::F) -> bool {
            let sign = vdupq_n_u32(0x8000_0000);
            let lo = vandq_u32(vreinterpretq_u32_f32(mask.0), sign);
            let hi = vandq_u32(vreinterpretq_u32_f32(mask.1), sign);
            vmaxvq_u32(vorrq_u32(lo, hi)) != 0
        }
        #[inline(always)]
        unsafe fn f_all(mask: Self::F) -> bool {
            let sign = vdupq_n_u32(0x8000_0000);
            let lo = vandq_u32(vreinterpretq_u32_f32(mask.0), sign);
            let hi = vandq_u32(vreinterpretq_u32_f32(mask.1), sign);
            vminvq_u32(vandq_u32(lo, hi)) != 0
        }
        #[inline(always)]
        unsafe fn f_bits(v: Self::F) -> Self::I {
            I4x2(vreinterpretq_s32_f32(v.0), vreinterpretq_s32_f32(v.1))
        }
        #[inline(always)]
        unsafe fn f_transpose8(rows: &mut [Self::F; 8]) {
            // Four 4×4 quadrant transposes; the off-diagonal quadrants swap.
            #[inline(always)]
            unsafe fn t4(
                a: float32x4_t,
                b: float32x4_t,
                c: float32x4_t,
                d: float32x4_t,
            ) -> [float32x4_t; 4] {
                let ab = vtrnq_f32(a, b);
                let cd = vtrnq_f32(c, d);
                [
                    vcombine_f32(vget_low_f32(ab.0), vget_low_f32(cd.0)),
                    vcombine_f32(vget_low_f32(ab.1), vget_low_f32(cd.1)),
                    vcombine_f32(vget_high_f32(ab.0), vget_high_f32(cd.0)),
                    vcombine_f32(vget_high_f32(ab.1), vget_high_f32(cd.1)),
                ]
            }
            let a = t4(rows[0].0, rows[1].0, rows[2].0, rows[3].0);
            let b = t4(rows[0].1, rows[1].1, rows[2].1, rows[3].1);
            let c = t4(rows[4].0, rows[5].0, rows[6].0, rows[7].0);
            let d = t4(rows[4].1, rows[5].1, rows[6].1, rows[7].1);
            for i in 0..4 {
                rows[i] = F4x2(a[i], c[i]);
                rows[i + 4] = F4x2(b[i], d[i]);
            }
        }

        #[inline(always)]
        unsafe fn i_load(src: &[i32; 8]) -> Self::I {
            let p = src.as_ptr();
            I4x2(vld1q_s32(p), vld1q_s32(p.add(4)))
        }
        #[inline(always)]
        unsafe fn i_store(v: Self::I, dst: &mut [i32; 8]) {
            let p = dst.as_mut_ptr();
            vst1q_s32(p, v.0);
            vst1q_s32(p.add(4), v.1);
        }
        #[inline(always)]
        unsafe fn i_splat(x: i32) -> Self::I {
            let v = vdupq_n_s32(x);
            I4x2(v, v)
        }
        #[inline(always)]
        unsafe fn i_add(a: Self::I, b: Self::I) -> Self::I {
            I4x2(vaddq_s32(a.0, b.0), vaddq_s32(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_sub(a: Self::I, b: Self::I) -> Self::I {
            I4x2(vsubq_s32(a.0, b.0), vsubq_s32(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_min(a: Self::I, b: Self::I) -> Self::I {
            I4x2(vminq_s32(a.0, b.0), vminq_s32(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_max(a: Self::I, b: Self::I) -> Self::I {
            I4x2(vmaxq_s32(a.0, b.0), vmaxq_s32(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_and(a: Self::I, b: Self::I) -> Self::I {
            I4x2(vandq_s32(a.0, b.0), vandq_s32(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_or(a: Self::I, b: Self::I) -> Self::I {
            I4x2(vorrq_s32(a.0, b.0), vorrq_s32(a.1, b.1))
        }
        #[inline(always)]
        unsafe fn i_andnot(a: Self::I, b: Self::I) -> Self::I {
            // vbic(a, b) computes a & !b, so swap to get !a & b.
            I4x2(vbicq_s32(b.0, a.0), vbicq_s32(b.1, a.1))
        }
        #[inline(always)]
        unsafe fn i_cmp_gt(a: Self::I, b: Self::I) -> Self::I {
            I4x2(
                vreinterpretq_s32_u32(vcgtq_s32(a.0, b.0)),
                vreinterpretq_s32_u32(vcgtq_s32(a.1, b.1)),
            )
        }
        #[inline(always)]
        unsafe fn i_cmp_eq(a: Self::I, b: Self::I) -> Self::I {
            I4x2(
                vreinterpretq_s32_u32(vceqq_s32(a.0, b.0)),
                vreinterpretq_s32_u32(vceqq_s32(a.1, b.1)),
            )
        }
        #[inline(always)]
        unsafe fn i_to_f(v: Self::I) -> Self::F {
            F4x2(vcvtq_f32_s32(v.0), vcvtq_f32_s32(v.1))
        }
        #[inline(always)]
        unsafe fn i_nonzero_mask(v: Self::I) -> u32 {
            let weights_lo = [1u32, 2, 4, 8];
            let weights_hi = [16u32, 32, 64, 128];
            let wl = vld1q_u32(weights_lo.as_ptr());
            let wh = vld1q_u32(weights_hi.as_ptr());
            let nz_lo = vmvnq_u32(vceqzq_s32(v.0));
            let nz_hi = vmvnq_u32(vceqzq_s32(v.1));
            vaddvq_u32(vandq_u32(nz_lo, wl)) + vaddvq_u32(vandq_u32(nz_hi, wh))
        }

        #[inline(always)]
        unsafe fn rgb_widen(src: &[u8; 24]) -> (Self::I, Self::I, Self::I) {
            // vld3 deinterleaves the 24 bytes in one load; two widening
            // moves per channel zero-extend u8 → u16 → u32.
            let t = vld3_u8(src.as_ptr());
            #[inline(always)]
            unsafe fn widen(v: uint8x8_t) -> I4x2 {
                let w = vmovl_u8(v);
                I4x2(
                    vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(w))),
                    vreinterpretq_s32_u32(vmovl_u16(vget_high_u16(w))),
                )
            }
            (widen(t.0), widen(t.1), widen(t.2))
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub use arm::Neon;

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// The instruction-set backends [`simd_dispatch!`](crate::simd_dispatch!)
/// can route to. All variants exist on every architecture; `available()`
/// reports whether the current CPU/build can actually execute one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Scalar,
    Sse2,
    Avx2,
    Neon,
}

impl Backend {
    /// Every backend, for "run on all available backends" test loops.
    pub const ALL: [Backend; 4] = [Backend::Scalar, Backend::Sse2, Backend::Avx2, Backend::Neon];

    /// Whether this backend can execute on the current CPU/build.
    ///
    /// Under Miri, runtime CPU detection is unavailable, so x86 backends
    /// report compile-time `target_feature` state instead (SSE2 is baseline
    /// on x86-64, so `Sse2` stays testable under Miri).
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Sse2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    if cfg!(miri) {
                        cfg!(target_feature = "sse2")
                    } else {
                        is_x86_feature_detected!("sse2")
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    if cfg!(miri) {
                        cfg!(target_feature = "avx2")
                    } else {
                        is_x86_feature_detected!("avx2")
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Backend::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    if cfg!(miri) {
                        cfg!(target_feature = "neon")
                    } else {
                        std::arch::is_aarch64_feature_detected!("neon")
                    }
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }

    /// Stable lowercase name, matching the `PUPPIES_SIMD` override values.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// Width of the f32 vector registers this backend issues (1 for scalar).
    pub fn f32_lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Sse2 | Backend::Neon => 4,
            Backend::Avx2 => 8,
        }
    }

    fn encode(self) -> u8 {
        match self {
            Backend::Scalar => 1,
            Backend::Sse2 => 2,
            Backend::Avx2 => 3,
            Backend::Neon => 4,
        }
    }

    fn decode(v: u8) -> Backend {
        match v {
            1 => Backend::Scalar,
            2 => Backend::Sse2,
            3 => Backend::Avx2,
            4 => Backend::Neon,
            _ => unreachable!("corrupt cached SIMD backend tag {v}"),
        }
    }
}

/// 0 = not yet detected; otherwise `Backend::encode()` of the selection.
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// The process-wide SIMD backend, detected once and cached.
///
/// Precedence: `PUPPIES_SIMD` env override (panics on unknown/unavailable
/// values) > best detected CPU feature (AVX2 > SSE2 > NEON) > scalar.
/// Under Miri the default (no override) is always scalar.
#[inline]
pub fn backend() -> Backend {
    match BACKEND.load(Ordering::Relaxed) {
        0 => {
            let b = detect();
            // Benign race: every thread detects the same answer.
            BACKEND.store(b.encode(), Ordering::Relaxed);
            b
        }
        tag => Backend::decode(tag),
    }
}

/// Name of the process-wide backend (for bench metadata / logs).
pub fn backend_name() -> &'static str {
    backend().name()
}

fn detect() -> Backend {
    // Miri isolates the environment; default to scalar before consulting it.
    // Explicit-backend dispatch (`*_with`) remains available for features
    // that are enabled at compile time.
    if cfg!(miri) {
        return Backend::Scalar;
    }
    if let Ok(name) = std::env::var("PUPPIES_SIMD") {
        let b = match name.as_str() {
            "scalar" => Backend::Scalar,
            "sse2" => Backend::Sse2,
            "avx2" => Backend::Avx2,
            "neon" => Backend::Neon,
            other => panic!("PUPPIES_SIMD={other:?}: expected scalar|sse2|avx2|neon"),
        };
        assert!(
            b.available(),
            "PUPPIES_SIMD={} requested but this CPU/build does not support it",
            b.name()
        );
        return b;
    }
    if Backend::Avx2.available() {
        Backend::Avx2
    } else if Backend::Sse2.available() {
        Backend::Sse2
    } else if Backend::Neon.available() {
        Backend::Neon
    } else {
        Backend::Scalar
    }
}

/// Declares runtime-dispatched frontends for a generic [`Simd8`] kernel.
///
/// ```ignore
/// simd_dispatch! {
///     pub fn fdct_block / fdct_block_with(src: &[f32; 64], dst: &mut [f32; 64]) = kernels::fdct8x8;
/// }
/// ```
///
/// generates two functions:
///
/// * `fdct_block(...)` — dispatches on the cached [`backend()`] through
///   `#[target_feature]` wrappers. Backend availability was verified at
///   detection time, so the per-call cost is one atomic load and a jump.
/// * `fdct_block_with(backend, ...)` — runs the kernel on an explicitly
///   chosen backend (asserting availability). This is what cross-backend
///   identity tests use to exercise several backends in one process.
///
/// The kernel must be an `unsafe fn` generic over `S: Simd8`, safe to call
/// whenever the backend's CPU features are present (scalar: always), and
/// it must be `#[inline(always)]`: the kernel itself carries no
/// `#[target_feature]` attribute, so unless its monomorphization fuses
/// into the generated wrapper, the `core::arch` intrinsics inside cannot
/// be inlined (caller features would not cover them) and every lane op
/// degenerates to an opaque function call through memory — an order of
/// magnitude slower than scalar.
#[macro_export]
macro_rules! simd_dispatch {
    ($(
        $vis:vis fn $name:ident / $name_with:ident ( $($arg:ident : $ty:ty),* $(,)? ) $(-> $ret:ty)? = $($kernel:ident)::+ ;
    )*) => {$(
        #[inline]
        #[allow(dead_code)]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn dispatch_avx2($($arg: $ty),*) $(-> $ret)? {
                    unsafe { $($kernel)::+::<$crate::simd::Avx2>($($arg),*) }
                }
                #[target_feature(enable = "sse2")]
                unsafe fn dispatch_sse2($($arg: $ty),*) $(-> $ret)? {
                    unsafe { $($kernel)::+::<$crate::simd::Sse2>($($arg),*) }
                }
                match $crate::simd::backend() {
                    // Safety: backend() only returns feature-verified backends.
                    $crate::simd::Backend::Avx2 => return unsafe { dispatch_avx2($($arg),*) },
                    $crate::simd::Backend::Sse2 => return unsafe { dispatch_sse2($($arg),*) },
                    _ => {}
                }
            }
            #[cfg(target_arch = "aarch64")]
            {
                #[target_feature(enable = "neon")]
                unsafe fn dispatch_neon($($arg: $ty),*) $(-> $ret)? {
                    unsafe { $($kernel)::+::<$crate::simd::Neon>($($arg),*) }
                }
                if let $crate::simd::Backend::Neon = $crate::simd::backend() {
                    // Safety: backend() only returns feature-verified backends.
                    return unsafe { dispatch_neon($($arg),*) };
                }
            }
            // Safety: the scalar backend has no CPU feature requirements.
            unsafe { $($kernel)::+::<$crate::simd::Scalar8>($($arg),*) }
        }

        /// Explicit-backend variant of the dispatcher (checked; test-facing).
        #[allow(dead_code)]
        $vis fn $name_with(backend: $crate::simd::Backend, $($arg: $ty),*) $(-> $ret)? {
            assert!(
                backend.available(),
                "SIMD backend {} is not available on this CPU/build",
                backend.name()
            );
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn dispatch_avx2($($arg: $ty),*) $(-> $ret)? {
                    unsafe { $($kernel)::+::<$crate::simd::Avx2>($($arg),*) }
                }
                #[target_feature(enable = "sse2")]
                unsafe fn dispatch_sse2($($arg: $ty),*) $(-> $ret)? {
                    unsafe { $($kernel)::+::<$crate::simd::Sse2>($($arg),*) }
                }
                match backend {
                    // Safety: availability asserted above.
                    $crate::simd::Backend::Avx2 => return unsafe { dispatch_avx2($($arg),*) },
                    $crate::simd::Backend::Sse2 => return unsafe { dispatch_sse2($($arg),*) },
                    _ => {}
                }
            }
            #[cfg(target_arch = "aarch64")]
            {
                #[target_feature(enable = "neon")]
                unsafe fn dispatch_neon($($arg: $ty),*) $(-> $ret)? {
                    unsafe { $($kernel)::+::<$crate::simd::Neon>($($arg),*) }
                }
                if let $crate::simd::Backend::Neon = backend {
                    // Safety: availability asserted above.
                    return unsafe { dispatch_neon($($arg),*) };
                }
            }
            let _ = backend;
            // Safety: the scalar backend has no CPU feature requirements.
            unsafe { $($kernel)::+::<$crate::simd::Scalar8>($($arg),*) }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::*;

    // Kernels exercised through the dispatch macro so the tests cover the
    // macro plumbing as well as every backend's ops.

    /// Runs every f32 op; masks are stored raw (bit patterns compared).
    unsafe fn k_f_ops<S: Simd8>(
        a: &[f32; 8],
        b: &[f32; 8],
        out: &mut [[f32; 8]; 12],
        flags: &mut u32,
    ) {
        unsafe {
            let va = S::f_load(a);
            let vb = S::f_load(b);
            S::f_store(S::f_add(va, vb), &mut out[0]);
            S::f_store(S::f_sub(va, vb), &mut out[1]);
            S::f_store(S::f_mul(va, vb), &mut out[2]);
            S::f_store(S::f_min(va, vb), &mut out[3]);
            S::f_store(S::f_max(va, vb), &mut out[4]);
            S::f_store(S::f_abs(vb), &mut out[5]);
            S::f_store(S::f_cmp_ge(va, vb), &mut out[6]);
            S::f_store(S::f_cmp_gt(va, vb), &mut out[7]);
            S::f_store(S::f_cmp_le(va, vb), &mut out[8]);
            S::f_store(S::f_cmp_lt(va, vb), &mut out[9]);
            // Mask -> 0.0/1.0 floats via AND with splat(1.0).
            S::f_store(S::f_and(S::f_cmp_ge(va, vb), S::f_splat(1.0)), &mut out[10]);
            S::f_store(S::f_splat(a[0]), &mut out[11]);
            let ge = S::f_cmp_ge(va, vb);
            *flags = u32::from(S::f_any(ge)) | (u32::from(S::f_all(ge)) << 1);
        }
    }

    /// Runs every i32 op plus the f32<->i32 bridges.
    unsafe fn k_i_ops<S: Simd8>(
        a: &[i32; 8],
        b: &[i32; 8],
        out: &mut [[i32; 8]; 11],
        fout: &mut [f32; 8],
        mask: &mut u32,
    ) {
        unsafe {
            let va = S::i_load(a);
            let vb = S::i_load(b);
            S::i_store(S::i_add(va, vb), &mut out[0]);
            S::i_store(S::i_sub(va, vb), &mut out[1]);
            S::i_store(S::i_min(va, vb), &mut out[2]);
            S::i_store(S::i_max(va, vb), &mut out[3]);
            S::i_store(S::i_splat(b[3]), &mut out[4]);
            S::i_store(S::i_and(va, vb), &mut out[6]);
            S::i_store(S::i_or(va, vb), &mut out[7]);
            S::i_store(S::i_andnot(va, vb), &mut out[8]);
            S::i_store(S::i_cmp_gt(va, vb), &mut out[9]);
            S::i_store(S::i_cmp_eq(va, vb), &mut out[10]);
            // f_bits round-trip: bitcast i->f via store/load is not provided,
            // so check f_bits on the float view of `a` instead.
            let mut af = [0f32; 8];
            for i in 0..8 {
                af[i] = f32::from_bits(a[i] as u32);
            }
            S::i_store(S::f_bits(S::f_load(&af)), &mut out[5]);
            S::f_store(S::i_to_f(va), fout);
            *mask = S::i_nonzero_mask(va);
        }
    }

    /// 8×8 transpose through the lane registers.
    unsafe fn k_transpose<S: Simd8>(m: &[f32; 64], out: &mut [f32; 64]) {
        unsafe {
            let rows_in = &*(m.as_ptr() as *const [[f32; 8]; 8]);
            let rows_out = &mut *(out.as_mut_ptr() as *mut [[f32; 8]; 8]);
            let mut rows = [S::f_load(&rows_in[0]); 8];
            for i in 1..8 {
                rows[i] = S::f_load(&rows_in[i]);
            }
            S::f_transpose8(&mut rows);
            for i in 0..8 {
                S::f_store(rows[i], &mut rows_out[i]);
            }
        }
    }

    crate::simd_dispatch! {
        fn f_ops / f_ops_with(a: &[f32; 8], b: &[f32; 8], out: &mut [[f32; 8]; 12], flags: &mut u32) = k_f_ops;
        fn i_ops / i_ops_with(a: &[i32; 8], b: &[i32; 8], out: &mut [[i32; 8]; 11], fout: &mut [f32; 8], mask: &mut u32) = k_i_ops;
        fn transpose / transpose_with(m: &[f32; 64], out: &mut [f32; 64]) = k_transpose;
    }

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn rand_f32(state: &mut u64) -> f32 {
        // Finite values spanning sign, magnitude, and exact-tie patterns.
        let bits = xorshift(state);
        let v = ((bits as i32 as i64) % 100_000) as f32 / 16.0;
        if bits & 0x10000 != 0 {
            v + 0.5
        } else {
            v
        }
    }

    fn others() -> Vec<Backend> {
        Backend::ALL
            .into_iter()
            .filter(|b| *b != Backend::Scalar && b.available())
            .collect()
    }

    fn bits12(out: &[[f32; 8]; 12]) -> Vec<u32> {
        out.iter().flatten().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn f32_ops_match_scalar_bitwise_on_all_backends() {
        let mut st = 0x1234_5678_9ABC_DEF0u64;
        for case in 0..256 {
            let mut a = [0f32; 8];
            let mut b = [0f32; 8];
            for i in 0..8 {
                a[i] = rand_f32(&mut st);
                b[i] = rand_f32(&mut st);
            }
            if case % 7 == 0 {
                b = a; // exercise the equality edges of the compares
            }
            let mut want = [[0f32; 8]; 12];
            let mut want_flags = 0u32;
            f_ops_with(Backend::Scalar, &a, &b, &mut want, &mut want_flags);
            for backend in others() {
                let mut got = [[0f32; 8]; 12];
                let mut flags = 0u32;
                f_ops_with(backend, &a, &b, &mut got, &mut flags);
                assert_eq!(
                    bits12(&want),
                    bits12(&got),
                    "f32 ops diverge on {} (case {case})",
                    backend.name()
                );
                assert_eq!(
                    want_flags,
                    flags,
                    "any/all diverge on {} (case {case})",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn i32_ops_match_scalar_on_all_backends() {
        let mut st = 0xDEAD_BEEF_0BAD_F00Du64;
        for case in 0..256 {
            let mut a = [0i32; 8];
            let mut b = [0i32; 8];
            for i in 0..8 {
                a[i] = (xorshift(&mut st) as i32) % 3000;
                b[i] = (xorshift(&mut st) as i32) % 3000;
                if xorshift(&mut st) % 5 == 0 {
                    a[i] = 0; // make nonzero masks interesting
                }
            }
            let mut want = [[0i32; 8]; 11];
            let mut want_f = [0f32; 8];
            let mut want_mask = 0u32;
            i_ops_with(
                Backend::Scalar,
                &a,
                &b,
                &mut want,
                &mut want_f,
                &mut want_mask,
            );
            // Scalar oracle for the nonzero mask, computed independently.
            let direct: u32 = a
                .iter()
                .enumerate()
                .map(|(i, &x)| u32::from(x != 0) << i)
                .sum();
            assert_eq!(want_mask, direct);
            for backend in others() {
                let mut got = [[0i32; 8]; 11];
                let mut got_f = [0f32; 8];
                let mut got_mask = 0u32;
                i_ops_with(backend, &a, &b, &mut got, &mut got_f, &mut got_mask);
                assert_eq!(
                    want,
                    got,
                    "i32 ops diverge on {} (case {case})",
                    backend.name()
                );
                assert_eq!(
                    want_f.map(f32::to_bits),
                    got_f.map(f32::to_bits),
                    "i_to_f diverges on {} (case {case})",
                    backend.name()
                );
                assert_eq!(
                    want_mask,
                    got_mask,
                    "nonzero mask diverges on {} (case {case})",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn transpose8_is_exact_on_all_backends() {
        let mut m = [0f32; 64];
        for (i, v) in m.iter_mut().enumerate() {
            *v = (i as f32) * 1.25 - 17.0;
        }
        let mut want = [0f32; 64];
        for r in 0..8 {
            for c in 0..8 {
                want[c * 8 + r] = m[r * 8 + c];
            }
        }
        for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
            let mut got = [0f32; 64];
            transpose_with(backend, &m, &mut got);
            assert_eq!(want, got, "transpose diverges on {}", backend.name());
        }
    }

    #[test]
    fn default_dispatch_matches_scalar() {
        let a = [1.5f32, -2.25, 3.0, 0.5, -0.5, 1e20, -1e-20, 0.0];
        let b = [0.5f32, -2.25, 4.0, 0.5, 0.25, 1e19, 1.0, -0.0];
        let mut want = [[0f32; 8]; 12];
        let mut want_flags = 0u32;
        f_ops_with(Backend::Scalar, &a, &b, &mut want, &mut want_flags);
        let mut got = [[0f32; 8]; 12];
        let mut flags = 0u32;
        f_ops(&a, &b, &mut got, &mut flags);
        assert_eq!(bits12(&want), bits12(&got));
        assert_eq!(want_flags, flags);

        let mut m = [0f32; 64];
        for (i, v) in m.iter_mut().enumerate() {
            *v = i as f32;
        }
        let mut t1 = [0f32; 64];
        let mut t2 = [0f32; 64];
        transpose(&m, &mut t1);
        transpose(&t1, &mut t2);
        assert_eq!(m, t2, "transpose must be an involution");
    }

    #[test]
    fn backend_metadata_is_consistent() {
        let b = backend();
        assert!(b.available(), "selected backend must be available");
        assert_eq!(backend_name(), b.name());
        assert!(matches!(b.f32_lanes(), 1 | 4 | 8));
        assert!(Backend::Scalar.available());
        for x in Backend::ALL {
            assert_eq!(Backend::decode(x.encode()), x);
        }
    }

    #[test]
    fn magic_number_rounding_primitive_holds() {
        // The quantize kernels rely on (x + 1.5*2^23) - 1.5*2^23 performing
        // round-half-even for |x| < 2^22; pin that here once, on every
        // backend, so kernel-level debugging never has to requestion it.
        const MAGIC: f32 = 12_582_912.0;
        let vals = [
            0.5f32, 1.5, 2.5, -0.5, -1.5, -2.5, 3.49, -3.51, 1000.75, -0.25,
        ];
        for v in vals {
            let rounded = (v + MAGIC) - MAGIC;
            let expect = {
                // round-half-even reference
                let f = v.floor();
                let d = v - f;
                let tie_up = d >= 0.5 && (d > 0.5 || (f as i64) % 2 != 0);
                if tie_up {
                    f + 1.0
                } else {
                    f
                }
            };
            assert_eq!(rounded, expect, "magic rounding broke for {v}");
        }
    }
}

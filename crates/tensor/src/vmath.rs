//! Vector transcendentals: one 8-lane polynomial `exp` and the four
//! activation maps built on it (`gelu`, `gelu'`, `silu`, `silu'`).
//!
//! libm's `tanhf`/`expf` cost ≈ 27 ns per element here — more than the
//! GEMMs on either side of an expert activation. The maps below run at
//! well under 1 ns per element.
//!
//! # Contract
//!
//! * **Value-only determinism.** An output depends on its input *value*
//!   and nothing else — not its index, not the slice length, not the
//!   thread that computed it. Every element, the ragged tail included
//!   (padded into a scratch vector), goes through the same 8-lane
//!   instruction sequence, and lanes never mix. That is what keeps
//!   grouped-vs-per-expert and thread-count bit-identity intact.
//! * **One ISA per process.** [`Lanes`] has two implementations — AVX2+FMA
//!   intrinsics and plain arrays the compiler vectorises for whatever
//!   the target has — picked by [`crate::kernel::simd_available`], the
//!   process-wide probe behind the GEMM's 256-bit tile (a host with
//!   AVX-512 runs the 512-bit GEMM tile and these 8-lane maps: fused
//!   multiply-add in both). The two may differ in the last bit (fused
//!   vs separate multiply-add), across hosts only.
//! * **Accuracy.** ≤ 1e-6 absolute-or-relative against an f64
//!   evaluation of the same formulas. NaN in, NaN out; every other
//!   input, ±∞ included, yields the map's value or limit (the libm
//!   formulas returned NaN at −∞ and wherever `x³` overflowed).
//!
//! `softmax`, `sigmoid` and `softplus` stay on libm `exp`: they feed the
//! gates, and routing must stay bit-stable.
//!
//! # The formulas
//!
//! With `u = √(2/π)·(x + 0.044715·x³)` and `tanh u = 1 − 2/(e^{2u}+1)`,
//! `½(1 + tanh u) = 1/(1 + e^{−2u}) =: s`, so
//! `gelu(x) = x·s` and `gelu'(x) = s + 2x·s(1−s)·u'` need one `exp` and
//! one division each — and, with `1 − s` taken as `e^{−2u}·s`, cancel
//! nowhere. `silu(x) = x/(1 + e^{−x})`, `silu'(x) = s(1 + x(1−s))`.

#![expect(
    clippy::missing_safety_doc,
    reason = "one contract covers every lane op and kernel: `Lanes`'s `# Safety` \
              (the CPU supports the implementing type's instruction set)"
)]

use crate::kernel::simd_available;

const LANES: usize = 8;

/// Eight `f32` lanes and the handful of operations the maps need.
///
/// # Safety
///
/// Every method requires that the CPU supports the instruction set the
/// implementing type is written for.
trait Lanes: Copy {
    unsafe fn splat(v: f32) -> Self;
    unsafe fn load(src: &[f32; LANES]) -> Self;
    unsafe fn store(self, dst: &mut [f32; LANES]);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn div(self, o: Self) -> Self;
    /// `self · b + c`.
    unsafe fn mul_add(self, b: Self, c: Self) -> Self;
    /// `min(max(self, lo), hi)` that keeps NaN.
    unsafe fn clamp(self, lo: f32, hi: f32) -> Self;
    /// Nearest integer, ties to even; `|self| < 2²²`.
    unsafe fn round(self) -> Self;
    /// `2^self` for integral `self` in `[-126, 127]`.
    unsafe fn pow2(self) -> Self;
}

/// Plain arrays: fixed-width loops the compiler vectorises.
#[derive(Clone, Copy)]
struct Portable([f32; LANES]);

impl Portable {
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Portable(std::array::from_fn(|i| f(self.0[i], o.0[i])))
    }

    #[inline(always)]
    fn map(self, f: impl Fn(f32) -> f32) -> Self {
        Portable(self.0.map(f))
    }
}

impl Lanes for Portable {
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        Portable([v; LANES])
    }
    #[inline(always)]
    unsafe fn load(src: &[f32; LANES]) -> Self {
        Portable(*src)
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32; LANES]) {
        *dst = self.0;
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }
    #[inline(always)]
    unsafe fn mul_add(self, b: Self, c: Self) -> Self {
        // two roundings: a software `fma` would cost more than the map
        Portable(std::array::from_fn(|i| self.0[i] * b.0[i] + c.0[i]))
    }
    #[inline(always)]
    unsafe fn clamp(self, lo: f32, hi: f32) -> Self {
        // comparisons, not `f32::min`/`max`, which would swallow NaN
        self.map(|v| {
            let v = if v > hi { hi } else { v };
            if v < lo {
                lo
            } else {
                v
            }
        })
    }
    #[inline(always)]
    unsafe fn round(self) -> Self {
        // adding 1.5·2²³ pushes the fraction bits out of the mantissa
        const MAGIC: f32 = 12_582_912.0;
        self.map(|v| (v + MAGIC) - MAGIC)
    }
    #[inline(always)]
    unsafe fn pow2(self) -> Self {
        self.map(|v| f32::from_bits(((v as i32 + 127) as u32) << 23))
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Lanes, LANES};
    use std::arch::x86_64::*;

    /// One `ymm` register. Requires AVX2 and FMA.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(__m256);

    impl Lanes for Avx2 {
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            Avx2(_mm256_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn load(src: &[f32; LANES]) -> Self {
            Avx2(_mm256_loadu_ps(src.as_ptr()))
        }
        #[inline(always)]
        unsafe fn store(self, dst: &mut [f32; LANES]) {
            _mm256_storeu_ps(dst.as_mut_ptr(), self.0);
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Avx2(_mm256_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Avx2(_mm256_sub_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Avx2(_mm256_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn div(self, o: Self) -> Self {
            Avx2(_mm256_div_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, c: Self) -> Self {
            Avx2(_mm256_fmadd_ps(self.0, b.0, c.0))
        }
        #[inline(always)]
        unsafe fn clamp(self, lo: f32, hi: f32) -> Self {
            // min/max return their second operand when either is NaN
            let v = _mm256_min_ps(_mm256_set1_ps(hi), self.0);
            Avx2(_mm256_max_ps(_mm256_set1_ps(lo), v))
        }
        #[inline(always)]
        unsafe fn round(self) -> Self {
            Avx2(_mm256_round_ps::<
                { _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC },
            >(self.0))
        }
        #[inline(always)]
        unsafe fn pow2(self) -> Self {
            let biased = _mm256_add_epi32(_mm256_cvtps_epi32(self.0), _mm256_set1_epi32(127));
            Avx2(_mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased)))
        }
    }
}

/// `e^min(x, hi)` per lane: `+∞` above ≈ 88.72, `0` below ≈ −104, NaN
/// for NaN, relative error ≲ 2e-7 in between (denormal results
/// included). `hi` ≥ 89.5 leaves the overflow to `+∞` in place; a
/// smaller one keeps the result finite.
///
/// Cephes' `expf` scheme: `x = n·ln2 + r` with `|r| ≤ ln2/2`, a degree-5
/// polynomial for `e^r − 1 − r`, then a scale by `2^n`. The scale is
/// applied as two factors `2^⌈n/2⌉·2^⌊n/2⌋` so the exponent field never
/// wraps and over/underflow round the way the hardware rounds them.
#[inline(always)]
unsafe fn exp<V: Lanes>(x: V, hi: f32) -> V {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // ln 2 split so that n·LN2_HI (ten significant bits) is exact
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // below −105 the result is 0 anyway; the clamp keeps n small
    let x = x.clamp(-105.0, hi);
    let n = x.mul(V::splat(LOG2_E)).round();
    let r = n.mul_add(V::splat(-LN2_HI), x);
    let r = n.mul_add(V::splat(-LN2_LO), r);
    let mut p = V::splat(1.987_569_1e-4);
    for c in [
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_5e-1,
        0.5,
    ] {
        p = p.mul_add(r, V::splat(c));
    }
    let e_r = p.mul(r).mul_add(r, r).add(V::splat(1.0));
    let n_half = n.mul(V::splat(0.5)).round();
    e_r.mul(n_half.pow2()).mul(n.sub(n_half).pow2())
}

/// `exp` argument bound that overflows to `+∞` as `e^x` does.
const EXP_OVERFLOWS: f32 = 89.5;
/// `exp` argument bound for the gradients: `e` stays finite, so
/// `e·s = 1 − s` has no `∞·0`.
const EXP_FINITE: f32 = 87.0;
/// Every map has saturated long before `|x|` gets here, and `x²` is
/// still finite: inputs are clamped to it so that ±∞ (and the range
/// where `x³` overflows) yield the limits instead of `∞·0`.
const X_SATURATED: f32 = 1.0e9;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_CUBIC: f32 = 0.044_715;

/// `e^{−2u}` for the tanh-approximated GeLU's `u(x)`.
#[inline(always)]
unsafe fn gelu_exp<V: Lanes>(x: V, x2: V, hi: f32) -> V {
    let poly = x2.mul_add(V::splat(GELU_CUBIC), V::splat(1.0));
    exp(x.mul(poly).mul(V::splat(-2.0 * SQRT_2_OVER_PI)), hi)
}

#[inline(always)]
unsafe fn gelu<V: Lanes>(x: V) -> V {
    let x = x.clamp(-X_SATURATED, f32::INFINITY);
    let e = gelu_exp(x, x.mul(x), EXP_OVERFLOWS);
    x.div(e.add(V::splat(1.0)))
}

#[inline(always)]
unsafe fn gelu_grad<V: Lanes>(x: V) -> V {
    let one = V::splat(1.0);
    let x = x.clamp(-X_SATURATED, X_SATURATED);
    let x2 = x.mul(x);
    let e = gelu_exp(x, x2, EXP_FINITE);
    let s = one.div(e.add(one));
    // 2·u'(x) = 2√(2/π)·(1 + 3·0.044715·x²)
    let du2 = x2.mul_add(
        V::splat(6.0 * GELU_CUBIC * SQRT_2_OVER_PI),
        V::splat(2.0 * SQRT_2_OVER_PI),
    );
    // 1 − s as e·s: exact where 1 − s would cancel
    x.mul(s).mul(e.mul(s)).mul_add(du2, s)
}

#[inline(always)]
unsafe fn silu<V: Lanes>(x: V) -> V {
    let x = x.clamp(-X_SATURATED, f32::INFINITY);
    let e = exp(V::splat(0.0).sub(x), EXP_OVERFLOWS);
    x.div(e.add(V::splat(1.0)))
}

#[inline(always)]
unsafe fn silu_grad<V: Lanes>(x: V) -> V {
    let one = V::splat(1.0);
    let x = x.clamp(-X_SATURATED, X_SATURATED);
    let e = exp(V::splat(0.0).sub(x), EXP_FINITE);
    let s = one.div(e.add(one));
    s.mul(x.mul_add(e.mul(s), one))
}

/// The element-wise maps this module provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Map {
    Gelu,
    GeluGrad,
    Silu,
    SiluGrad,
}

/// `dst[i] = f(src[i])` through `V`, full vectors first, then the tail
/// padded to a full vector so it runs the same instructions.
#[inline(always)]
unsafe fn run<V: Lanes>(src: &[f32], dst: &mut [f32], f: unsafe fn(V) -> V) {
    let (src_vecs, src_tail) = src.as_chunks::<LANES>();
    let (dst_vecs, dst_tail) = dst.as_chunks_mut::<LANES>();
    for (s, d) in src_vecs.iter().zip(dst_vecs) {
        f(V::load(s)).store(d);
    }
    if !src_tail.is_empty() {
        let mut buf = [0.0f32; LANES];
        buf[..src_tail.len()].copy_from_slice(src_tail);
        let padded = buf;
        f(V::load(&padded)).store(&mut buf);
        dst_tail.copy_from_slice(&buf[..src_tail.len()]);
    }
}

#[inline(always)]
unsafe fn apply_with<V: Lanes>(map: Map, src: &[f32], dst: &mut [f32]) {
    match map {
        Map::Gelu => run::<V>(src, dst, gelu::<V>),
        Map::GeluGrad => run::<V>(src, dst, gelu_grad::<V>),
        Map::Silu => run::<V>(src, dst, silu::<V>),
        Map::SiluGrad => run::<V>(src, dst, silu_grad::<V>),
    }
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn apply_avx2(map: Map, src: &[f32], dst: &mut [f32]) {
    apply_with::<avx2::Avx2>(map, src, dst);
}

/// Applies `map` to every element of `src`.
pub(crate) fn apply(map: Map, src: &[f32]) -> Vec<f32> {
    let mut dst = crate::buf::take(src.len());
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: `simd_available` just confirmed AVX2 and FMA.
        unsafe { apply_avx2(map, src, &mut dst) };
        return dst;
    }
    // SAFETY: `Portable` is plain Rust and needs no CPU feature.
    unsafe { apply_with::<Portable>(map, src, &mut dst) };
    dst
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `exp` of one value through the dispatched implementation (a silu
    /// identity would do, but this tests the primitive itself).
    fn exp_scalar<V: Lanes>(x: f32) -> f32 {
        let mut buf = [x; LANES];
        let input = buf;
        // SAFETY: callers only pass `Avx2` after checking the CPU.
        unsafe { exp(V::load(&input), EXP_OVERFLOWS).store(&mut buf) };
        buf[0]
    }

    fn check_exp<V: Lanes>(what: &str) {
        let mut worst = 0.0f64;
        let mut x = -104.0f32;
        while x < 88.7 {
            let got = f64::from(exp_scalar::<V>(x));
            let want = f64::from(x).exp();
            // denormal results carry fewer bits: allow half a denormal ulp
            let rel = ((got - want).abs() - 0.75e-45).max(0.0) / want;
            worst = worst.max(rel);
            x += 0.003_7;
        }
        assert!(worst < 2.5e-7, "{what}: worst relative error {worst:e}");
        assert_eq!(exp_scalar::<V>(0.0), 1.0, "{what}");
        assert_eq!(exp_scalar::<V>(f32::NEG_INFINITY), 0.0, "{what}");
        assert_eq!(exp_scalar::<V>(-200.0), 0.0, "{what}");
        assert_eq!(exp_scalar::<V>(f32::INFINITY), f32::INFINITY, "{what}");
        assert_eq!(exp_scalar::<V>(88.73), f32::INFINITY, "{what}");
        assert!(exp_scalar::<V>(88.72).is_finite(), "{what}");
        assert!(exp_scalar::<V>(f32::NAN).is_nan(), "{what}");
    }

    #[test]
    fn exp_is_accurate_on_both_implementations() {
        check_exp::<Portable>("portable");
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            check_exp::<avx2::Avx2>("avx2");
        }
    }

    #[test]
    fn portable_and_dispatched_maps_agree_to_rounding() {
        let xs: Vec<f32> = (-400..400).map(|i| i as f32 * 0.05).collect();
        for map in [Map::Gelu, Map::GeluGrad, Map::Silu, Map::SiluGrad] {
            let fast = apply(map, &xs);
            let mut portable = vec![0.0f32; xs.len()];
            // SAFETY: `Portable` needs no CPU feature.
            unsafe { apply_with::<Portable>(map, &xs, &mut portable) };
            for ((x, a), b) in xs.iter().zip(&fast).zip(&portable) {
                assert!(
                    (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                    "{map:?}({x}): {a} vs {b}"
                );
            }
        }
    }
}

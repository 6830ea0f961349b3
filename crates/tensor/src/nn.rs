//! Neural-network primitives: activations, softmax, layer norm.
//!
//! These are the exact nonlinearities the paper's MoE components use:
//! softmax in the GShard and SoftMoE gates, sigmoid in the BASE/StableMoE
//! gate, softplus in the GShard noise term, GeLU in the GPT feed-forward
//! expert, and SiLU in the Mixtral (SwiGLU) expert. The two expert
//! activations run on the vector math of [`crate::vmath`]; everything
//! that feeds a gate stays on libm so routing is bit-stable.

use crate::vmath::{self, Map};
use crate::{buf, kernel, Result, Tensor, TensorError};

impl Tensor {
    /// Numerically stable softmax over the last axis.
    ///
    /// An all-`-∞` row (every expert masked out) softmaxes to zeros —
    /// the "token dropped" semantics the gates rely on. NaN rows are
    /// rejected instead: `f32::max` skips NaN, so an all-NaN row would
    /// silently alias the dropped-token case, and a mixed row would
    /// yield NaN probabilities that poison routing downstream.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 tensors and
    /// [`TensorError::NonFiniteInput`] when any entry is NaN.
    pub fn softmax(&self) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "softmax",
                expected: 1,
                actual: 0,
            });
        }
        let cols = self.dims()[self.rank() - 1];
        let mut out = self.clone();
        // a zero-width tensor has no rows to visit
        for (r, row) in out.data_mut().chunks_mut(cols.max(1)).enumerate() {
            if row.iter().any(|v| v.is_nan()) {
                return Err(TensorError::NonFiniteInput {
                    op: "softmax",
                    row: r,
                });
            }
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            // An all -inf row (every expert masked out) softmaxes to zeros
            // rather than NaNs, matching the "token dropped" semantics.
            if max == f32::NEG_INFINITY {
                row.iter_mut().for_each(|v| *v = 0.0);
                continue;
            }
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        Ok(out)
    }

    /// Logistic sigmoid, element-wise.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Softplus `ln(1 + e^x)`, element-wise (used in the GShard noise term).
    pub fn softplus(&self) -> Tensor {
        // Stable form: max(x, 0) + ln(1 + e^{-|x|}).
        self.map(|v| v.max(0.0) + (1.0 + (-v.abs()).exp()).ln())
    }

    /// Gaussian error linear unit (tanh approximation, as in GPT-2).
    pub fn gelu(&self) -> Tensor {
        self.vmap(Map::Gelu)
    }

    /// SiLU / swish `x · σ(x)` (the Mixtral expert activation).
    pub fn silu(&self) -> Tensor {
        self.vmap(Map::Silu)
    }

    /// Applies one of the [`crate::vmath`] maps element-wise.
    pub(crate) fn vmap(&self, map: Map) -> Tensor {
        Tensor::from_vec(vmath::apply(map, self.data()), self.dims()).expect("map preserves shape")
    }

    /// Layer normalisation over the last axis with unit gain and zero bias.
    ///
    /// Each row's mean and variance are left folds over its columns, in
    /// order, exactly as a per-row loop sums them: 16 rows are folded
    /// side by side, one per vector lane, the rows left over one at a
    /// time, and both give the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 tensors.
    pub fn layer_norm(&self, eps: f32) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "layer_norm",
                expected: 1,
                actual: 0,
            });
        }
        let cols = self.dims()[self.rank() - 1];
        let mut out = self.clone();
        if cols > 0 {
            layer_norm_rows(out.data_mut(), cols, eps);
        }
        Ok(out)
    }

    /// L2-normalises each row of the last axis (used by the X-MoE cosine
    /// router).
    ///
    /// Rows with zero norm are left as zeros.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 tensors.
    pub fn l2_normalize(&self, eps: f32) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "l2_normalize",
                expected: 1,
                actual: 0,
            });
        }
        let cols = self.dims()[self.rank() - 1];
        let mut out = self.clone();
        for row in out.data_mut().chunks_mut(cols.max(1)) {
            let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > eps {
                for v in row.iter_mut() {
                    *v /= norm;
                }
            }
        }
        Ok(out)
    }
}

/// Defines `fn $name`, which runs `$body` from a copy compiled for
/// AVX-512 when the host has it — the process-wide probe behind the
/// GEMM's tile ([`kernel::Tile::host`]) — so its loops vectorise 16
/// lanes wide, and as compiled for the baseline everywhere else. Both
/// copies perform the same IEEE operations in the same order (Rust
/// never fuses a multiply and an add on its own), so they give the same
/// bits.
macro_rules! widest_simd {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) $body:block) => {
        $(#[$doc])*
        pub(crate) fn $name($($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body
            /// # Safety
            ///
            /// The host must run AVX-512F.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512($($arg: $ty),*) {
                body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            if kernel::Tile::host() == kernel::Tile::Avx512 {
                // SAFETY: `Tile::host` found AVX-512F on this host.
                return unsafe { avx512($($arg),*) };
            }
            body($($arg),*)
        }
    };
}
pub(crate) use widest_simd;

widest_simd! {
    /// Layer-normalises every `cols`-wide row of `data` in place.
    fn layer_norm_rows(data: &mut [f32], cols: usize, eps: f32) {
        let n = cols as f32;
        let normalize = |row: &mut [f32], mean: f32, var: f32| {
            let denom = (var + eps).sqrt();
            for v in row.iter_mut() {
                *v = (*v - mean) / denom;
            }
        };
        let mut columns = buf::take(LANES * cols);
        let mut blocks = data.chunks_exact_mut(LANES * cols);
        for block in &mut blocks {
            kernel::transpose_into(block, cols, &mut columns, LANES, LANES, cols);
            let mean = lane_sums(&columns, &columns, |_, v, _| v).map(|s| s / n);
            let var = lane_sums(&columns, &columns, |l, v, _| square(v - mean[l])).map(|s| s / n);
            for (l, row) in block.chunks_exact_mut(cols).enumerate() {
                normalize(row, mean[l], var[l]);
            }
        }
        for row in blocks.into_remainder().chunks_exact_mut(cols) {
            let (mean, var) = row_moments(row);
            normalize(row, mean, var);
        }
        buf::give(columns);
    }
}

/// Rows the row reductions fold side by side.
pub(crate) const LANES: usize = 16;

/// `v · v`.
#[inline(always)]
pub(crate) fn square(v: f32) -> f32 {
    v * v
}

/// A row's mean and (biased) variance, each a left fold over the row in
/// order from `-0.0`, as [`Iterator::sum`] folds.
#[inline(always)]
pub(crate) fn row_moments(row: &[f32]) -> (f32, f32) {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|&v| square(v - mean)).sum::<f32>() / n;
    (mean, var)
}

/// The [`LANES`] sums of `term(lane, a, b)` down the columns of two
/// `[column][lane]` blocks — rows transposed so that lane `l` is row
/// `l` — each a left fold from `-0.0` in column order: what summing
/// each row on its own computes, bit for bit. The lanes' adds are
/// independent, so they overlap instead of each waiting on the last.
#[inline(always)]
pub(crate) fn lane_sums(
    a: &[f32],
    b: &[f32],
    term: impl Fn(usize, f32, f32) -> f32,
) -> [f32; LANES] {
    let mut acc = [-0.0f32; LANES];
    let (a, _) = a.as_chunks::<LANES>();
    let (b, _) = b.as_chunks::<LANES>();
    for (a, b) in a.iter().zip(b) {
        for l in 0..LANES {
            acc[l] += term(l, a[l], b[l]);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = t.softmax().unwrap();
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = a.map(|v| v + 100.0);
        assert!(a.softmax().unwrap().allclose(&b.softmax().unwrap(), 1e-6));
    }

    #[test]
    fn softmax_handles_neg_infinity_mask() {
        let t = Tensor::from_vec(vec![1.0, f32::NEG_INFINITY, 2.0], &[3]).unwrap();
        let s = t.softmax().unwrap();
        assert_eq!(s.data()[1], 0.0);
        assert!((s.sum() - 1.0).abs() < 1e-6);

        let all_masked = Tensor::full(&[3], f32::NEG_INFINITY).softmax().unwrap();
        assert_eq!(all_masked.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn softmax_rejects_nan_rows() {
        // mixed NaN row: would otherwise emit NaN probabilities
        let mixed = Tensor::from_vec(vec![1.0, f32::NAN, 2.0], &[3]).unwrap();
        assert_eq!(
            mixed.softmax(),
            Err(TensorError::NonFiniteInput {
                op: "softmax",
                row: 0
            })
        );
        // all-NaN row: would otherwise alias the dropped-token zeros
        let all_nan = Tensor::full(&[2, 2], f32::NAN);
        assert!(matches!(
            all_nan.softmax(),
            Err(TensorError::NonFiniteInput {
                op: "softmax",
                row: 0
            })
        ));
        // NaN in a later row reports that row
        let later = Tensor::from_vec(vec![1.0, 2.0, f32::NAN, 3.0], &[2, 2]).unwrap();
        assert_eq!(
            later.softmax(),
            Err(TensorError::NonFiniteInput {
                op: "softmax",
                row: 1
            })
        );
    }

    #[test]
    fn sigmoid_bounds_and_symmetry() {
        let t = Tensor::from_vec(vec![-5.0, 0.0, 5.0], &[3]).unwrap();
        let s = t.sigmoid();
        assert!((s.data()[1] - 0.5).abs() < 1e-7);
        assert!((s.data()[0] + s.data()[2] - 1.0).abs() < 1e-6);
        assert!(s.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn softplus_positive_and_asymptotic() {
        let t = Tensor::from_vec(vec![-10.0, 0.0, 20.0], &[3]).unwrap();
        let s = t.softplus();
        assert!(s.data()[0] > 0.0 && s.data()[0] < 1e-4);
        assert!((s.data()[1] - std::f32::consts::LN_2).abs() < 1e-6);
        assert!((s.data()[2] - 20.0).abs() < 1e-4);
    }

    #[test]
    fn gelu_known_points() {
        let t = Tensor::from_vec(vec![0.0, 1.0, -1.0], &[3]).unwrap();
        let g = t.gelu();
        assert_eq!(g.data()[0], 0.0);
        assert!((g.data()[1] - 0.841_19).abs() < 1e-3);
        assert!((g.data()[2] + 0.158_81).abs() < 1e-3);
    }

    #[test]
    fn silu_known_points() {
        let t = Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap();
        let s = t.silu();
        assert_eq!(s.data()[0], 0.0);
        assert!((s.data()[1] - 0.731_06).abs() < 1e-4);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[2, 4]).unwrap();
        let n = t.layer_norm(1e-5).unwrap();
        for row in n.data().chunks(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn l2_normalize_unit_rows() {
        let t = Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0], &[2, 2]).unwrap();
        let n = t.l2_normalize(1e-8).unwrap();
        assert!((n.data()[0] - 0.6).abs() < 1e-6);
        assert!((n.data()[1] - 0.8).abs() < 1e-6);
        // zero row untouched
        assert_eq!(&n.data()[2..], &[0.0, 0.0]);
    }
}

//! Manual backward passes.
//!
//! FSMoE implements backpropagation by hand so the backward phase can be
//! re-scheduled independently of the forward phase (paper §4.4). This
//! module provides the per-op vector-Jacobian products the MoE layer's
//! backward uses; each one is validated against finite differences in the
//! tests.

use crate::kernel::{self, transpose_into};
use crate::nn::{lane_sums, row_moments, square, widest_simd, LANES};
use crate::vmath::Map;
use crate::{buf, Result, Tensor};

/// Gradients of `y = x · w` with respect to both operands.
///
/// Given `grad_y = ∂L/∂y` of shape `(m, n)`, input `x` of shape `(m, k)`
/// and weight `w` of shape `(k, n)`, returns `(∂L/∂x, ∂L/∂w)`.
///
/// The backward cost being *twice* the forward cost (one GEMM each for the
/// input grad and the weight grad) is exactly why the paper doubles
/// `α_exp`, `β_exp`, `n_exp` in the backward performance model (§4.4).
///
/// # Errors
///
/// Propagates shape mismatches from the underlying GEMMs.
pub fn matmul_backward(grad_y: &Tensor, x: &Tensor, w: &Tensor) -> Result<(Tensor, Tensor)> {
    let grad_x = grad_y.matmul_nt(w)?;
    let grad_w = x.matmul_tn(grad_y)?;
    Ok((grad_x, grad_w))
}

/// Backward of row-wise softmax.
///
/// Given the forward output `probs` (`softmax(z)`) and upstream gradient
/// `grad_out`, returns `∂L/∂z` row by row:
/// `grad_z_i = p_i * (g_i - Σ_j g_j p_j)`.
///
/// # Errors
///
/// Returns a shape mismatch error when the tensors disagree.
pub fn softmax_backward(grad_out: &Tensor, probs: &Tensor) -> Result<Tensor> {
    if !probs.shape().same_as(grad_out.shape()) {
        return Err(crate::TensorError::ShapeMismatch {
            op: "softmax_backward",
            lhs: grad_out.dims().to_vec(),
            rhs: probs.dims().to_vec(),
        });
    }
    let cols = probs.dims()[probs.rank() - 1];
    let mut out = buf::take(probs.num_elements());
    for (row, (p_row, g_row)) in probs
        .data()
        .chunks(cols.max(1))
        .zip(grad_out.data().chunks(cols.max(1)))
        .enumerate()
    {
        let dot: f32 = p_row.iter().zip(g_row).map(|(p, g)| p * g).sum();
        for (j, (&p, &g)) in p_row.iter().zip(g_row).enumerate() {
            out[row * cols + j] = p * (g - dot);
        }
    }
    Tensor::from_vec(out, probs.dims())
}

/// Backward of GeLU: `grad_x = grad_y ⊙ gelu'(x)`.
///
/// # Errors
///
/// Returns a shape mismatch error when the tensors disagree.
pub fn gelu_backward(grad_y: &Tensor, x: &Tensor) -> Result<Tensor> {
    grad_y.mul(&x.vmap(Map::GeluGrad))
}

/// Backward of SiLU: `grad_x = grad_y ⊙ silu'(x)`.
///
/// # Errors
///
/// Returns a shape mismatch error when the tensors disagree.
pub fn silu_backward(grad_y: &Tensor, x: &Tensor) -> Result<Tensor> {
    grad_y.mul(&x.vmap(Map::SiluGrad))
}

/// Backward of sigmoid: `grad_x = grad_y ⊙ σ(x)(1-σ(x))`.
///
/// # Errors
///
/// Returns a shape mismatch error when the tensors disagree.
pub fn sigmoid_backward(grad_y: &Tensor, x: &Tensor) -> Result<Tensor> {
    elementwise_backward(grad_y, x, |v| {
        let s = 1.0 / (1.0 + (-v).exp());
        s * (1.0 - s)
    })
}

/// Backward of ReLU.
///
/// # Errors
///
/// Returns a shape mismatch error when the tensors disagree.
pub fn relu_backward(grad_y: &Tensor, x: &Tensor) -> Result<Tensor> {
    elementwise_backward(grad_y, x, |v| if v > 0.0 { 1.0 } else { 0.0 })
}

/// Backward of row-wise [`Tensor::layer_norm`] (unit gain, zero bias).
///
/// With `x̂ = (x − μ)/σ` per row, the input gradient is
/// `dx = (g − mean(g) − x̂ · mean(g ⊙ x̂)) / σ`. The four row sums are
/// folded like [`Tensor::layer_norm`]'s: 16 rows side by side, each in
/// column order, bit-identical to a per-row loop.
///
/// # Errors
///
/// Returns a shape mismatch error when the tensors disagree or are
/// rank 0.
pub fn layer_norm_backward(grad_y: &Tensor, x: &Tensor, eps: f32) -> Result<Tensor> {
    if !grad_y.shape().same_as(x.shape()) || x.rank() == 0 {
        return Err(crate::TensorError::ShapeMismatch {
            op: "layer_norm_backward",
            lhs: grad_y.dims().to_vec(),
            rhs: x.dims().to_vec(),
        });
    }
    let cols = x.dims()[x.rank() - 1];
    let mut out = buf::take(x.num_elements());
    if cols > 0 {
        layer_norm_backward_rows(x.data(), grad_y.data(), &mut out, cols, eps);
    }
    Tensor::from_vec(out, x.dims())
}

widest_simd! {
    /// The layer-norm input gradient of every `cols`-wide row of `x`
    /// under `grad_y`, into `out`.
    fn layer_norm_backward_rows(x: &[f32], grad_y: &[f32], out: &mut [f32], cols: usize, eps: f32) {
        let n = cols as f32;
        let x_hat = |v: f32, mean: f32, sigma: f32| (v - mean) / sigma;
        // per row: μ, σ, mean(g), mean(g ⊙ x̂) — LANES rows at a time, then
        // the rows left over one by one
        let mut stats = Vec::with_capacity(x.len() / cols);
        let (mut xs, mut gs) = (buf::take(LANES * cols), buf::take(LANES * cols));
        let x_blocks = x.chunks_exact(LANES * cols);
        let g_blocks = grad_y.chunks_exact(LANES * cols);
        let tail = (x_blocks.remainder(), g_blocks.remainder());
        for (x_block, g_block) in x_blocks.zip(g_blocks) {
            transpose_into(x_block, cols, &mut xs, LANES, LANES, cols);
            transpose_into(g_block, cols, &mut gs, LANES, LANES, cols);
            let mean = lane_sums(&xs, &xs, |_, v, _| v).map(|s| s / n);
            let var = lane_sums(&xs, &xs, |l, v, _| square(v - mean[l])).map(|s| s / n);
            let sigma = var.map(|var| (var + eps).sqrt());
            let g_mean = lane_sums(&gs, &gs, |_, g, _| g).map(|s| s / n);
            let gx = lane_sums(&xs, &gs, |l, v, g| g * x_hat(v, mean[l], sigma[l]));
            stats.extend((0..LANES).map(|l| [mean[l], sigma[l], g_mean[l], gx[l] / n]));
        }
        for (x_row, g_row) in tail.0.chunks_exact(cols).zip(tail.1.chunks_exact(cols)) {
            let (mean, var) = row_moments(x_row);
            let sigma = (var + eps).sqrt();
            let g_mean = g_row.iter().sum::<f32>() / n;
            let gx = g_row.iter().zip(x_row).map(|(&g, &v)| g * x_hat(v, mean, sigma));
            stats.push([mean, sigma, g_mean, gx.sum::<f32>() / n]);
        }
        buf::give(xs);
        buf::give(gs);
        let rows = x.chunks_exact(cols).zip(grad_y.chunks_exact(cols));
        for ((o_row, (x_row, g_row)), &[mean, sigma, g_mean, gx_mean]) in
            out.chunks_exact_mut(cols).zip(rows).zip(&stats)
        {
            for ((o, &v), &g) in o_row.iter_mut().zip(x_row).zip(g_row) {
                *o = (g - g_mean - x_hat(v, mean, sigma) * gx_mean) / sigma;
            }
        }
    }
}

fn elementwise_backward<F: Fn(f32) -> f32>(grad_y: &Tensor, x: &Tensor, dfdx: F) -> Result<Tensor> {
    grad_y.zip_with(x, "elementwise_backward", |g, v| g * dfdx(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    /// Central finite difference of a scalar loss with respect to `x`.
    fn finite_diff<F: Fn(&Tensor) -> f32>(x: &Tensor, loss: F) -> Tensor {
        let h = 1e-3f32;
        let mut grad = Tensor::zeros(x.dims());
        for i in 0..x.num_elements() {
            let mut plus = x.clone();
            plus.data_mut()[i] += h;
            let mut minus = x.clone();
            minus.data_mut()[i] -= h;
            grad.data_mut()[i] = (loss(&plus) - loss(&minus)) / (2.0 * h);
        }
        grad
    }

    #[test]
    fn matmul_backward_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(0);
        let x = rng.uniform(&[3, 4], -1.0, 1.0);
        let w = rng.uniform(&[4, 2], -1.0, 1.0);
        // loss = sum(x·w), so upstream grad is all ones
        let grad_y = Tensor::ones(&[3, 2]);
        let (gx, gw) = matmul_backward(&grad_y, &x, &w).unwrap();

        let fd_x = finite_diff(&x, |t| t.matmul(&w).unwrap().sum());
        let fd_w = finite_diff(&w, |t| x.matmul(t).unwrap().sum());
        assert!(gx.allclose(&fd_x, 1e-2), "input grad mismatch");
        assert!(gw.allclose(&fd_w, 1e-2), "weight grad mismatch");
    }

    #[test]
    fn matmul_backward_thread_count_invariant() {
        let mut rng = TensorRng::seed_from(1);
        let w = rng.uniform(&[96, 104], -1.0, 1.0);
        let inputs: Vec<(Tensor, Tensor)> = (0..4)
            .map(|_| {
                let x = rng.uniform(&[160, 96], -1.0, 1.0);
                (x, rng.uniform(&[160, 104], -1.0, 1.0))
            })
            .collect();
        let backward = |i: usize| {
            let (x, grad_y) = &inputs[i];
            matmul_backward(grad_y, x, &w).unwrap()
        };
        let lone: Vec<_> = (0..4).map(backward).collect();
        for callers in 2..=4 {
            let grads = crate::support::at_once(callers, backward);
            assert_eq!(grads, lone[..callers], "{callers} callers");
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(1);
        let z = rng.uniform(&[2, 5], -2.0, 2.0);
        // loss = Σ c_i p_i with fixed random c
        let c = rng.uniform(&[2, 5], -1.0, 1.0);
        let probs = z.softmax().unwrap();
        let grad = softmax_backward(&c, &probs).unwrap();
        let fd = finite_diff(&z, |t| t.softmax().unwrap().mul(&c).unwrap().sum());
        assert!(grad.allclose(&fd, 1e-2));
    }

    #[test]
    fn softmax_backward_row_sums_are_zero() {
        // Softmax outputs sum to 1, so gradients w.r.t. logits sum to 0 per
        // row, for any upstream gradient.
        let mut rng = TensorRng::seed_from(2);
        let z = rng.uniform(&[4, 6], -3.0, 3.0);
        let g = rng.uniform(&[4, 6], -1.0, 1.0);
        let grad = softmax_backward(&g, &z.softmax().unwrap()).unwrap();
        for row in grad.data().chunks(6) {
            assert!(row.iter().sum::<f32>().abs() < 1e-5);
        }
    }

    #[test]
    fn activation_backwards_match_finite_difference() {
        let mut rng = TensorRng::seed_from(3);
        let x = rng.uniform(&[2, 4], -2.0, 2.0);
        let ones = Tensor::ones(&[2, 4]);

        let cases: Vec<(Tensor, Tensor)> = vec![
            (
                gelu_backward(&ones, &x).unwrap(),
                finite_diff(&x, |t| t.gelu().sum()),
            ),
            (
                silu_backward(&ones, &x).unwrap(),
                finite_diff(&x, |t| t.silu().sum()),
            ),
            (
                sigmoid_backward(&ones, &x).unwrap(),
                finite_diff(&x, |t| t.sigmoid().sum()),
            ),
        ];
        for (analytic, fd) in cases {
            assert!(analytic.allclose(&fd, 1e-2));
        }
    }

    #[test]
    fn layer_norm_backward_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(4);
        let x = rng.uniform(&[3, 5], -2.0, 2.0);
        let c = rng.uniform(&[3, 5], -1.0, 1.0);
        let probs_grad = layer_norm_backward(&c, &x, 1e-5).unwrap();
        let fd = finite_diff(&x, |t| t.layer_norm(1e-5).unwrap().mul(&c).unwrap().sum());
        assert!(
            probs_grad.allclose(&fd, 2e-2),
            "max diff {}",
            probs_grad.max_abs_diff(&fd).unwrap()
        );
    }

    #[test]
    fn layer_norm_backward_rows_sum_to_zero() {
        // layer norm output is mean-invariant, so row gradients sum to 0
        let mut rng = TensorRng::seed_from(5);
        let x = rng.uniform(&[4, 6], -3.0, 3.0);
        let g = rng.uniform(&[4, 6], -1.0, 1.0);
        let grad = layer_norm_backward(&g, &x, 1e-5).unwrap();
        for row in grad.data().chunks(6) {
            assert!(row.iter().sum::<f32>().abs() < 1e-4);
        }
    }

    #[test]
    fn relu_backward_gates_gradient() {
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[4]).unwrap();
        let g = Tensor::from_vec(vec![10.0, 10.0, 10.0, 10.0], &[4]).unwrap();
        let grad = relu_backward(&g, &x).unwrap();
        assert_eq!(grad.data(), &[0.0, 10.0, 0.0, 10.0]);
    }

    #[test]
    fn backward_shape_mismatch_errors() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(softmax_backward(&a, &b).is_err());
        assert!(gelu_backward(&a, &b).is_err());
    }
}

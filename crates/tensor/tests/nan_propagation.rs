//! Regression tests for the zero-skip NaN-swallowing bug.
//!
//! The original banded GEMM skipped the inner loop whenever `a[i, k] ==
//! 0.0` as a "sparsity" shortcut. IEEE 754 says `0.0 * NaN` is NaN and
//! `0.0 * inf` is NaN, so the skip silently swallowed non-finite values
//! coming from `b`: a NaN produced by an upstream expert (exploding
//! gradient, bad checkpoint, uninitialised buffer) vanished whenever the
//! matching activation happened to be exactly zero — which post-ReLU/GeLU
//! activations frequently are. Training would then diverge silently
//! instead of surfacing the NaN at its source.
//!
//! These tests pin the fix: every product is computed, so NaN/Inf in `b`
//! must reach the output whenever the matching `a` entry is `0.0`, on
//! every code path — the kernel alone and under concurrent callers, the
//! backward pass, the grouped (multi-weight) GEMM, and the
//! transposed-operand forms the backward pass is built from.
//!
//! The vector activations sit between those GEMMs, so they are held to
//! the same rule: a NaN element stays NaN (a clamp written with
//! `min`/`max` would quietly replace it with the bound).

use tensor::grad;
use tensor::{Segments, Tensor};

mod support;

/// Multiply-adds that keep one GEMM busy for tens of microseconds, so
/// callers released together overlap inside the kernel.
const OVERLAP_MACS: usize = 1 << 20;

/// a = [[0, 1]], b = [[NaN, inf], [1, 1]]: row 0 of `b` is touched only
/// through the zero entry of `a`, so a zero-skip kernel would return
/// finite values. out[0,0] = 0*NaN + 1*1 must be NaN; out[0,1] =
/// 0*inf + 1*1 must be NaN.
#[test]
fn nan_and_inf_in_b_reach_output_through_zero_in_a() {
    let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
    let b = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 1.0, 1.0], &[2, 2]).unwrap();
    let out = a.matmul(&b).unwrap();
    assert!(
        out.data()[0].is_nan(),
        "0.0 * NaN must propagate as NaN, got {}",
        out.data()[0]
    );
    assert!(
        out.data()[1].is_nan(),
        "0.0 * inf must propagate as NaN, got {}",
        out.data()[1]
    );
}

/// Same property on a training-sized GEMM multiplied by one, two and
/// four threads at once. One poisoned row of `b` whose only matching `a`
/// column is all zeros: every output element of every caller must be
/// NaN.
#[test]
fn parallel_kernel_propagates_nan_through_zero_activations() {
    let (m, k, n) = (128, 96, 96);
    assert!(m * k * n >= OVERLAP_MACS, "the callers must overlap");
    let poisoned_k = 41;
    let mut a_data = vec![1.0f32; m * k];
    for row in 0..m {
        a_data[row * k + poisoned_k] = 0.0;
    }
    let mut b_data = vec![1.0f32; k * n];
    for col in 0..n {
        b_data[poisoned_k * n + col] = if col % 2 == 0 {
            f32::NAN
        } else {
            f32::INFINITY
        };
    }
    let a = Tensor::from_vec(a_data, &[m, k]).unwrap();
    let b = Tensor::from_vec(b_data, &[k, n]).unwrap();
    for callers in [1usize, 2, 4] {
        for out in support::at_once(callers, |_| a.matmul(&b).unwrap()) {
            assert!(
                out.data().iter().all(|v| v.is_nan()),
                "{callers} callers: zero-skip would have produced finite output"
            );
        }
    }
}

/// The backward pass routes through the same kernel; a NaN in the
/// incoming gradient must reach both input and weight grads even when
/// the matching forward values are exactly zero.
#[test]
fn matmul_backward_propagates_nan_through_zeros() {
    // a: 2x2 all zeros, b: 2x2 identity, grad_out poisoned with one NaN.
    let a = Tensor::zeros(&[2, 2]);
    let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
    let grad_out = Tensor::from_vec(vec![f32::NAN, 1.0, 1.0, 1.0], &[2, 2]).unwrap();
    let (grad_a, grad_b) = grad::matmul_backward(&grad_out, &a, &b).unwrap();
    // grad_a = grad_out · bᵀ: row 0 touches the NaN.
    assert!(grad_a.data()[0].is_nan(), "grad_a must carry the NaN");
    // grad_b = aᵀ · grad_out: a is all zeros, so every product is
    // 0 * grad_out — a zero-skip kernel would return all-zero grads and
    // hide the divergence entirely.
    assert!(
        grad_b.data()[0].is_nan(),
        "grad_b = aᵀ·grad_out must be NaN, not silently zeroed"
    );
}

/// The grouped (per-expert-weight) GEMM uses the same microkernel per
/// group; NaN in one expert's weight must poison exactly that group's
/// rows and no others.
#[test]
fn grouped_gemm_propagates_nan_per_group() {
    let k = 3;
    let n = 2;
    let a = Tensor::from_vec(vec![0.0; 4 * k], &[4, k]).unwrap();
    let clean = Tensor::from_vec(vec![1.0; k * n], &[k, n]).unwrap();
    let mut poisoned_data = vec![1.0f32; k * n];
    poisoned_data[0] = f32::NAN;
    let poisoned = Tensor::from_vec(poisoned_data, &[k, n]).unwrap();
    let out = a
        .matmul_grouped(&[&clean, &poisoned], &[0, 2, 4], 1)
        .unwrap();
    let data = out.data();
    // Rows 0..2 hit the clean weight: 0*1 sums = 0.0 exactly.
    assert!(data[..2 * n].iter().all(|v| *v == 0.0));
    // Rows 2..4 hit the poisoned weight: column 0 sums include 0*NaN.
    assert!(data[2 * n].is_nan() && data[3 * n].is_nan());
}

/// `a·bᵀ` and `aᵀ·b` pack one operand from its transposed layout; the
/// poisoned row of the logical `b` (resp. column of the logical `a`)
/// must still meet the zeros it is multiplied with, in full strips and
/// the ragged last one alike.
#[test]
fn transposed_operand_forms_propagate_nan_through_zeros() {
    let (m, k, n) = (128, 96, 112);
    let poisoned_k = 17;
    let mut a = Tensor::ones(&[m, k]);
    let mut b_t = Tensor::ones(&[n, k]); // b stored transposed
    for row in 0..m {
        a.data_mut()[row * k + poisoned_k] = 0.0;
    }
    for col in 0..n {
        b_t.data_mut()[col * k + poisoned_k] = f32::NAN;
    }
    let mut a_t = Tensor::zeros(&[k, m]); // a stored transposed, poisoned
    let mut b = Tensor::ones(&[k, n]);
    a_t.data_mut()[poisoned_k * m..(poisoned_k + 1) * m].fill(f32::INFINITY);
    b.data_mut()[poisoned_k * n..(poisoned_k + 1) * n].fill(0.0);
    let nt = a.matmul_nt(&b_t).unwrap();
    assert!(
        nt.data().iter().all(|v| v.is_nan()),
        "matmul_nt: 0 · NaN was skipped"
    );
    let tn = a_t.matmul_tn(&b).unwrap();
    assert!(
        tn.data().iter().all(|v| v.is_nan()),
        "matmul_tn: inf · 0 was skipped"
    );
}

/// The grouped backward forms: a NaN in one expert's weight (nt) or in
/// one group's rows (tn) poisons that expert's results and no other's.
#[test]
fn grouped_transposed_forms_propagate_nan_per_group() {
    let (k, n) = (3, 2);
    let x = Tensor::zeros(&[4, k]);
    let clean = Tensor::ones(&[n, k]);
    let mut poisoned = Tensor::ones(&[n, k]);
    poisoned.data_mut()[0] = f32::NAN;
    let groups = Segments::from_offsets(&[0, 2, 4]);
    let nt = x
        .matmul_segments_nt(&[&clean, &poisoned], &groups, &groups, 4)
        .unwrap();
    assert!(nt.data()[..2 * n].iter().all(|v| *v == 0.0));
    assert!(nt.data()[2 * n].is_nan() && nt.data()[3 * n].is_nan());

    let mut g = Tensor::zeros(&[4, n]);
    g.data_mut()[3 * n] = f32::NAN; // a row of group 1
    let tn = x.matmul_segments_tn(&g, &groups, &groups).unwrap();
    assert!(tn[0].data().iter().all(|v| *v == 0.0));
    // column 0 of group 1's (k, n) gradient sums 0 · NaN
    assert!((0..k).all(|r| tn[1].data()[r * n].is_nan()));
    assert!((0..k).all(|r| tn[1].data()[r * n + 1] == 0.0));
}

/// NaN elements stay NaN through every vector activation, wherever they
/// sit in a vector, and leave their neighbours alone.
#[test]
fn vector_activations_keep_nan_and_only_nan() {
    for len in [1usize, 7, 8, 9, 21] {
        for poisoned in 0..len {
            let mut x = Tensor::full(&[len], 0.5);
            x.data_mut()[poisoned] = f32::NAN;
            let ones = Tensor::ones(&[len]);
            for (name, y) in [
                ("gelu", x.gelu()),
                ("silu", x.silu()),
                ("gelu_backward", grad::gelu_backward(&ones, &x).unwrap()),
                ("silu_backward", grad::silu_backward(&ones, &x).unwrap()),
            ] {
                for (i, v) in y.data().iter().enumerate() {
                    assert_eq!(
                        v.is_nan(),
                        i == poisoned,
                        "{name}: element {i} of {len}, NaN at {poisoned}"
                    );
                }
            }
        }
    }
}

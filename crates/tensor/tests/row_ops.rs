//! Row-wise ops: layer norm and its backward fold several rows side by
//! side, and must give the bits of the one-row-at-a-time loop they
//! replaced — on every row count (full blocks, a ragged remainder, both),
//! every width, and inputs holding NaN, ±∞, −0.0 and constant rows. Every
//! row op also takes a zero-width tensor.

use proptest::prelude::*;
use tensor::{grad, Tensor, TensorRng};

const EPS: f32 = 1e-5;

/// The per-row layer norm the lane version replaced, verbatim.
fn layer_norm_reference(x: &Tensor, eps: f32) -> Vec<f32> {
    let cols = x.dims()[1];
    let mut out = x.data().to_vec();
    for row in out.chunks_mut(cols) {
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / cols as f32;
        let denom = (var + eps).sqrt();
        for v in row.iter_mut() {
            *v = (*v - mean) / denom;
        }
    }
    out
}

/// The per-row layer-norm backward the lane version replaced, verbatim.
fn layer_norm_backward_reference(grad_y: &Tensor, x: &Tensor, eps: f32) -> Vec<f32> {
    let cols = x.dims()[1];
    let mut out = vec![0.0f32; x.num_elements()];
    for ((x_row, g_row), o_row) in x
        .data()
        .chunks(cols)
        .zip(grad_y.data().chunks(cols))
        .zip(out.chunks_mut(cols))
    {
        let n = cols as f32;
        let mean = x_row.iter().sum::<f32>() / n;
        let var = x_row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let sigma = (var + eps).sqrt();
        for (h, v) in o_row.iter_mut().zip(x_row) {
            *h = (v - mean) / sigma;
        }
        let g_mean = g_row.iter().sum::<f32>() / n;
        let gx_mean = g_row.iter().zip(&*o_row).map(|(g, h)| g * h).sum::<f32>() / n;
        for (o, g) in o_row.iter_mut().zip(g_row) {
            *o = (g - g_mean - *o * gx_mean) / sigma;
        }
    }
    out
}

/// Normal values, with some rows made constant, all `-0.0`, or given
/// one special value (NaN, ±∞, ±0, a huge or a tiny one).
fn adversarial(rows: usize, cols: usize, rng: &mut TensorRng) -> Tensor {
    const SPECIALS: [f32; 7] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1e30,
        -1e-30,
    ];
    let mut t = rng.normal(&[rows, cols], 0.0, 3.0);
    for row in t.data_mut().chunks_mut(cols) {
        match rng.index(8) {
            0 => {
                let v = row[0];
                row.fill(v);
            }
            1 => row.fill(-0.0),
            2 | 3 => row[rng.index(cols)] = SPECIALS[rng.index(SPECIALS.len())],
            _ => {}
        }
    }
    t
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn layer_norm_and_backward_are_bit_identical_to_the_per_row_loop(
        rows in prop::sample::select((1usize..=40).chain([513]).collect::<Vec<_>>()),
        cols in prop::sample::select(vec![1usize, 3, 17, 256]),
        seed in any::<u64>(),
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let x = adversarial(rows, cols, &mut rng);
        let g = adversarial(rows, cols, &mut rng);
        let y = x.layer_norm(EPS).unwrap();
        prop_assert_eq!(bits(y.data()), bits(&layer_norm_reference(&x, EPS)));
        let dx = grad::layer_norm_backward(&g, &x, EPS).unwrap();
        prop_assert_eq!(bits(dx.data()), bits(&layer_norm_backward_reference(&g, &x, EPS)));
    }
}

/// Rank 3 is normalised over its last axis, rows running across the
/// leading two.
#[test]
fn layer_norm_folds_rows_across_leading_axes() {
    let mut rng = TensorRng::seed_from(5);
    let x = rng.normal(&[3, 7, 9], 0.0, 1.0);
    let flat = Tensor::from_vec(x.data().to_vec(), &[21, 9]).unwrap();
    assert_eq!(
        x.layer_norm(EPS).unwrap().data(),
        layer_norm_reference(&flat, EPS)
    );
}

#[test]
fn row_ops_take_zero_width_tensors() {
    let empty = Tensor::zeros(&[3, 0]);
    let shape = |t: Tensor| t.dims().to_vec();
    assert_eq!(shape(empty.layer_norm(EPS).unwrap()), [3, 0]);
    assert_eq!(
        shape(grad::layer_norm_backward(&empty, &empty, EPS).unwrap()),
        [3, 0]
    );
    assert_eq!(shape(empty.softmax().unwrap()), [3, 0]);
    assert_eq!(
        shape(grad::softmax_backward(&empty, &empty).unwrap()),
        [3, 0]
    );
    assert_eq!(shape(empty.l2_normalize(1e-8).unwrap()), [3, 0]);
}

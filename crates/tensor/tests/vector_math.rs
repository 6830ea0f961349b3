//! The vector activations (`gelu`, `silu` and their backward maps)
//! against f64 references, and the value-only determinism they promise:
//! an element's result may depend on nothing but its value.

use tensor::{grad, Tensor, TensorRng};

const SQRT_2_OVER_PI: f64 = 0.797_884_560_802_865_4;

/// The value every map takes at ±∞, where the formulas below hit `∞·0`.
fn limit(x: f64, at_neg_inf: f64, at_pos_inf: f64) -> Option<f64> {
    x.is_infinite()
        .then_some(if x > 0.0 { at_pos_inf } else { at_neg_inf })
}

fn gelu_ref(x: f64) -> f64 {
    limit(x, 0.0, f64::INFINITY)
        .unwrap_or_else(|| 0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh()))
}

fn gelu_grad_ref(x: f64) -> f64 {
    if let Some(l) = limit(x, 0.0, 1.0) {
        return l;
    }
    let t = (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh();
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

fn silu_ref(x: f64) -> f64 {
    limit(x, 0.0, f64::INFINITY).unwrap_or_else(|| x / (1.0 + (-x).exp()))
}

fn silu_grad_ref(x: f64) -> f64 {
    if let Some(l) = limit(x, 0.0, 1.0) {
        return l;
    }
    let s = 1.0 / (1.0 + (-x).exp());
    s * (1.0 + x * (1.0 - s))
}

type Map = fn(&Tensor) -> Tensor;
type Reference = fn(f64) -> f64;

fn gelu(x: &Tensor) -> Tensor {
    x.gelu()
}
fn silu(x: &Tensor) -> Tensor {
    x.silu()
}
/// With an all-ones upstream gradient the backward map is the derivative.
fn gelu_grad(x: &Tensor) -> Tensor {
    grad::gelu_backward(&Tensor::ones(x.dims()), x).unwrap()
}
fn silu_grad(x: &Tensor) -> Tensor {
    grad::silu_backward(&Tensor::ones(x.dims()), x).unwrap()
}

const MAPS: [(&str, Map, Reference); 4] = [
    ("gelu", gelu, gelu_ref),
    ("gelu_grad", gelu_grad, gelu_grad_ref),
    ("silu", silu, silu_ref),
    ("silu_grad", silu_grad, silu_grad_ref),
];

fn vector(values: &[f32]) -> Tensor {
    Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap()
}

/// ±0, ±∞, NaN, denormals, the edges of the `exp` clamp, and
/// magnitudes whose square or cube overflows.
fn special_values() -> Vec<f32> {
    vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.0e-40,
        -1.0e-40,
        f32::from_bits(1),
        88.7,
        -88.7,
        104.5,
        -104.5,
        1.0e20,
        -1.0e20,
        f32::MAX,
        f32::MIN,
    ]
}

#[test]
fn maps_match_f64_references_to_1e_6() {
    // a dense sweep of [-20, 20], every special value, and random draws
    let mut xs: Vec<f32> = (-20_000..=20_000).map(|i| i as f32 * 1e-3).collect();
    xs.extend(special_values());
    xs.extend(TensorRng::seed_from(11).normal(&[4096], 0.0, 4.0).data());
    let input = vector(&xs);
    for (name, map, reference) in MAPS {
        let got = map(&input);
        for (&x, &g) in xs.iter().zip(got.data()) {
            let want = reference(f64::from(x));
            if !want.is_finite() {
                // NaN for NaN, +∞ for +∞
                assert!(
                    (want.is_nan() && g.is_nan()) || f64::from(g) == want,
                    "{name}({x}) = {g}, reference {want}"
                );
                continue;
            }
            let err = (f64::from(g) - want).abs();
            assert!(
                err <= 1e-6 * want.abs().max(1.0),
                "{name}({x}) = {g}, reference {want}, error {err:e}"
            );
        }
    }
}

#[test]
fn a_result_depends_on_the_value_not_the_position() {
    // every lane of a vector, every tail length, every neighbourhood:
    // the bits must equal those of the value mapped on its own
    let mut values = special_values();
    values.extend(TensorRng::seed_from(5).normal(&[24], 0.0, 3.0).data());
    let filler = TensorRng::seed_from(6).normal(&[32], 0.0, 5.0);
    for (name, map, _) in MAPS {
        for &v in &values {
            let alone = map(&vector(&[v])).data()[0].to_bits();
            for len in 1..=19 {
                for position in 0..len {
                    let mut xs = filler.data()[..len].to_vec();
                    xs[position] = v;
                    let got = map(&vector(&xs)).data()[position].to_bits();
                    assert_eq!(
                        got, alone,
                        "{name}({v}) at {position} of {len}: {got:#x} vs {alone:#x} alone"
                    );
                }
            }
        }
    }
}

#[test]
fn a_matrix_maps_like_its_rows() {
    // the grouped FFN maps all experts' rows at once, the per-expert
    // path one slice at a time: identical bits either way
    let x = TensorRng::seed_from(9).normal(&[7, 13], 0.0, 2.0);
    for (name, map, _) in MAPS {
        let whole = map(&x);
        for r in 0..7 {
            let row = map(&x.slice_rows(r, r + 1).unwrap());
            assert_eq!(row, whole.slice_rows(r, r + 1).unwrap(), "{name} row {r}");
        }
    }
}

#[test]
fn grads_match_finite_differences_of_the_references() {
    let xs: Vec<f32> = (-600..=600).map(|i| i as f32 * 0.01).collect();
    let input = vector(&xs);
    let h = 1e-6f64;
    for (name, map, reference) in [
        ("gelu_grad", gelu_grad as Map, gelu_ref as Reference),
        ("silu_grad", silu_grad, silu_ref),
    ] {
        let got = map(&input);
        for (&x, &g) in xs.iter().zip(got.data()) {
            let x = f64::from(x);
            let fd = (reference(x + h) - reference(x - h)) / (2.0 * h);
            assert!(
                (f64::from(g) - fd).abs() < 1e-5,
                "{name}({x}) = {g}, finite difference {fd}"
            );
        }
    }
}

#[test]
fn backward_maps_scale_by_the_upstream_gradient() {
    let mut rng = TensorRng::seed_from(3);
    let x = rng.normal(&[5, 11], 0.0, 2.0);
    let g = rng.normal(&[5, 11], 0.0, 1.0);
    assert_eq!(
        grad::gelu_backward(&g, &x).unwrap(),
        g.mul(&gelu_grad(&x)).unwrap()
    );
    assert_eq!(
        grad::silu_backward(&g, &x).unwrap(),
        g.mul(&silu_grad(&x)).unwrap()
    );
    assert!(grad::gelu_backward(&g, &Tensor::zeros(&[5, 10])).is_err());
}

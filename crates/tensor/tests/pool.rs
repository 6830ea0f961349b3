//! GEMMs under contention: rank threads multiplying at once must neither
//! deadlock nor change a single bit.

use tensor::{grad, Tensor, TensorRng};

mod support;

/// A GEMM chain: forward, then both backward forms.
fn chain(x: &Tensor, w: &Tensor) -> (Tensor, Tensor, Tensor) {
    let y = x.matmul(w).unwrap();
    let (gx, gw) = grad::matmul_backward(&y, x, w).unwrap();
    (y, gx, gw)
}

#[test]
fn concurrent_callers_and_nested_fan_outs_are_bit_identical_to_serial() {
    let mut rng = TensorRng::seed_from(42);
    let x = rng.normal(&[160, 128], 0.0, 1.0);
    let w = rng.normal(&[128, 144], 0.0, 1.0);
    let serial = chain(&x, &w);
    support::at_once(2, |_| {
        for _ in 0..20 {
            // two rank threads multiplying at once
            assert_eq!(chain(&x, &w), serial);
        }
    });
}

//! The worker pool under contention: several threads fanning GEMMs out
//! at once, and fan-outs nested inside fan-outs, must neither deadlock
//! nor change a single bit. (Which thread runs which band is a race;
//! the arithmetic of a band is not.)

use tensor::{grad, par, Tensor, TensorRng};

/// A GEMM chain big enough that every product clears the parallel
/// threshold: forward, then both backward forms.
fn chain(x: &Tensor, w: &Tensor, threads: usize) -> (Tensor, Tensor, Tensor) {
    let y = x.matmul_with_threads(w, threads).unwrap();
    let (gx, gw) = grad::matmul_backward_with_threads(&y, x, w, threads).unwrap();
    (y, gx, gw)
}

#[test]
fn concurrent_callers_and_nested_fan_outs_are_bit_identical_to_serial() {
    let mut rng = TensorRng::seed_from(42);
    let x = rng.normal(&[160, 128], 0.0, 1.0);
    let w = rng.normal(&[128, 144], 0.0, 1.0);
    let serial = chain(&x, &w, 1);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                for _ in 0..20 {
                    // two rank threads, each asking for two threads …
                    assert_eq!(chain(&x, &w, 2), serial);
                    // … and an expert-style fan-out whose items fan out
                    // again from whichever thread claimed them
                    let nested = par::map_indices(3, 2, |_| chain(&x, &w, 2));
                    assert!(nested.iter().all(|r| *r == serial));
                }
            });
        }
    });
}

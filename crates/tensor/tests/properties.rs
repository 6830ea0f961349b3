//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use tensor::{top_k_indices, Tensor, TensorRng};

mod support;

fn small_matrix() -> impl Strategy<Value = (usize, usize, u64)> {
    (1usize..6, 1usize..6, any::<u64>())
}

proptest! {
    #[test]
    fn matmul_distributes_over_addition((m, k, seed) in small_matrix(), n in 1usize..6) {
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let c = rng.uniform(&[k, n], -1.0, 1.0);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    #[test]
    fn matmul_transpose_identity((m, k, seed) in small_matrix(), n in 1usize..6) {
        // (A·B)^T == B^T · A^T
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..5, cols in 1usize..8, seed in any::<u64>()) {
        let mut rng = TensorRng::seed_from(seed);
        let t = rng.uniform(&[rows, cols], -10.0, 10.0);
        let s = t.softmax().unwrap();
        for row in s.data().chunks(cols) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_preserves_order(cols in 2usize..8, seed in any::<u64>()) {
        let mut rng = TensorRng::seed_from(seed);
        let t = rng.uniform(&[1, cols], -5.0, 5.0);
        let s = t.softmax().unwrap();
        for i in 0..cols {
            for j in 0..cols {
                if t.data()[i] > t.data()[j] {
                    prop_assert!(s.data()[i] >= s.data()[j]);
                }
            }
        }
    }

    #[test]
    fn top_k_returns_the_largest(len in 1usize..12, seed in any::<u64>()) {
        let mut rng = TensorRng::seed_from(seed);
        let row = rng.uniform(&[len], -1.0, 1.0);
        for k in 1..=len {
            let idx = top_k_indices(row.data(), k).unwrap();
            prop_assert_eq!(idx.len(), k);
            // every selected value >= every unselected value
            let selected: Vec<f32> = idx.iter().map(|&i| row.data()[i]).collect();
            let min_sel = selected.iter().cloned().fold(f32::INFINITY, f32::min);
            for (i, &v) in row.data().iter().enumerate() {
                if !idx.contains(&i) {
                    prop_assert!(v <= min_sel);
                }
            }
            // descending order
            for w in selected.windows(2) {
                prop_assert!(w[0] >= w[1]);
            }
        }
    }

    #[test]
    fn parallel_matmul_bit_identical_to_serial(
        m in prop::sample::select(vec![1usize, 2, 5, 16, 33, 64, 96, 160]),
        k in prop::sample::select(vec![1usize, 3, 8, 17, 64, 80]),
        n in prop::sample::select(vec![1usize, 2, 7, 31, 64, 96]),
        callers in 2usize..5,
        seed in any::<u64>(),
    ) {
        // several threads multiplying at once each get their lone
        // call's bits; the claim is exact equality, not allclose
        let mut rng = TensorRng::seed_from(seed);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let a: Vec<Tensor> = (0..callers).map(|_| rng.uniform(&[m, k], -1.0, 1.0)).collect();
        let lone: Vec<Tensor> = a.iter().map(|a| a.matmul(&b).unwrap()).collect();
        prop_assert_eq!(support::at_once(callers, |i| a[i].matmul(&b).unwrap()), lone);
    }

    #[test]
    fn chunk_cat_round_trips(rows in 1usize..10, cols in 1usize..5, parts in 1usize..10, seed in any::<u64>()) {
        prop_assume!(parts <= rows);
        let mut rng = TensorRng::seed_from(seed);
        let t = rng.uniform(&[rows, cols], -1.0, 1.0);
        let chunks = t.chunk(parts).unwrap();
        let back = Tensor::cat(&chunks).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn layer_norm_is_scale_invariant(cols in 2usize..8, seed in any::<u64>(), scale in 1.0f32..100.0) {
        let mut rng = TensorRng::seed_from(seed);
        let mut t = rng.uniform(&[1, cols], 0.5, 2.0);
        // guarantee per-row spread so eps is negligible at both scales:
        // the offset spacing (2.0) exceeds the sampling width (1.5), so
        // adjacent entries always differ by at least 0.5
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            *v += 2.0 * i as f32;
        }
        let a = t.layer_norm(1e-6).unwrap();
        let b = t.scale(scale).layer_norm(1e-6).unwrap();
        prop_assert!(a.allclose(&b, 1e-2));
    }
}

//! Property tests for the packed GEMM microkernel and the grouped
//! expert GEMM.
//!
//! The shape strategies deliberately straddle every tiling boundary in
//! the kernel: the microkernel register tile (MR×NR) is 12×32 on an
//! AVX-512 host and 6×16 everywhere else, and the packing depth is
//! KC = 256, so the selected dims include 0, 1, primes, exact multiples,
//! and off-by-one neighbours of each of those constants. The reference
//! is a naive f64 triple loop — any dropped product (the old zero-skip),
//! mis-packed ragged edge, or out-of-bounds tile would show up as a
//! mismatch. (The unit tests in `kernel.rs` run every geometry the host
//! has; here the host's own is under test, through the public API.)
//!
//! The transposed-operand forms (`matmul_nt`, `matmul_tn` and the
//! grouped pair) are held to a stricter standard: *exact* equality with
//! transpose-then-`matmul`, because the only thing they change is which
//! layout the packing pass reads. So are concurrent callers: a GEMM runs
//! on the thread that calls it, and several threads multiplying at once
//! must each get a lone call's bits.

use proptest::prelude::*;
use tensor::{Segments, Tensor, TensorRng};

mod support;
use support::at_once;

/// Multiply-adds that keep one GEMM busy for tens of microseconds, so
/// callers released together overlap inside the kernel.
const OVERLAP_MACS: usize = 1 << 20;

/// Naive f64 reference GEMM — no tiling, no skipping, full precision.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f64> {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a.data()[i * k + kk] as f64;
            for j in 0..n {
                out[i * n + j] += aik * b.data()[kk * n + j] as f64;
            }
        }
    }
    out
}

fn adversarial_rows() -> impl Strategy<Value = usize> {
    // MR = 6 or 12: cover 0/1, below/at/above either tile, primes, and
    // a many-tile case with a ragged tail (31 = 5·6 + 1 = 2·12 + 7).
    prop::sample::select(vec![0usize, 1, 5, 6, 7, 11, 12, 13, 23, 25, 31])
}

fn adversarial_depth() -> impl Strategy<Value = usize> {
    // KC = 256: cover the pack-depth boundary exactly and off-by-one,
    // plus tiny and prime depths.
    prop::sample::select(vec![0usize, 1, 2, 7, 17, 255, 256, 257])
}

fn adversarial_cols() -> impl Strategy<Value = usize> {
    // NR = 16 or 32: same treatment for the column tile.
    prop::sample::select(vec![0usize, 1, 3, 15, 16, 17, 31, 32, 33, 37, 65])
}

proptest! {
    #[test]
    fn microkernel_matches_naive_triple_loop(
        m in adversarial_rows(),
        k in adversarial_depth(),
        n in adversarial_cols(),
        seed in any::<u64>(),
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let b = rng.uniform(&[k, n], -2.0, 2.0);
        let got = a.matmul(&b).unwrap();
        prop_assert_eq!(got.dims(), &[m, n]);
        let want = naive_matmul(&a, &b);
        for (g, w) in got.data().iter().zip(&want) {
            // f32 kernel vs f64 reference: tolerance scales with the
            // number of accumulated products.
            let tol = 1e-5 * (k.max(1) as f64) * w.abs().max(1.0);
            prop_assert!(
                ((*g as f64) - w).abs() <= tol,
                "m={} k={} n={}: got {} want {}", m, k, n, g, w
            );
        }
    }

    #[test]
    fn thread_count_never_changes_bits_on_adversarial_shapes(
        m in adversarial_rows(),
        k in adversarial_depth(),
        n in adversarial_cols(),
        callers in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let a: Vec<Tensor> = (0..callers).map(|_| rng.uniform(&[m, k], -1.0, 1.0)).collect();
        let lone: Vec<Tensor> = a.iter().map(|a| a.matmul(&b).unwrap()).collect();
        prop_assert_eq!(at_once(callers, |i| a[i].matmul(&b).unwrap()), lone);
    }

    #[test]
    fn grouped_gemm_bit_identical_to_per_expert_loop(
        loads in prop::collection::vec(prop::sample::select(vec![0usize, 1, 2, 5, 6, 7, 12, 13, 25]), 1..6),
        k in prop::sample::select(vec![1usize, 4, 17]),
        n in prop::sample::select(vec![1usize, 8, 19, 33]),
        seed in any::<u64>(),
    ) {
        // Uneven loads, including empty experts, against the reference
        // formulation the grouped path replaced: slice each expert's
        // rows out and run an independent GEMM. The claim is exact
        // equality — the grouped kernel computes each group with the
        // same packed tiles and the same ascending-k accumulation.
        let mut rng = TensorRng::seed_from(seed);
        let m: usize = loads.iter().sum();
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let weights: Vec<Tensor> =
            (0..loads.len()).map(|_| rng.uniform(&[k, n], -1.0, 1.0)).collect();
        let weight_refs: Vec<&Tensor> = weights.iter().collect();
        let mut offsets = vec![0usize];
        for load in &loads {
            offsets.push(offsets.last().unwrap() + load);
        }
        let grouped = a.matmul_grouped(&weight_refs, &offsets, 1).unwrap();
        prop_assert_eq!(grouped.dims(), &[m, n]);
        for (g, w) in loads.iter().enumerate() {
            let rows = a.slice_rows(offsets[g], offsets[g + 1]).unwrap();
            let per_expert = rows.matmul(&weights[g]).unwrap();
            let grouped_slice = grouped.slice_rows(offsets[g], offsets[g + 1]).unwrap();
            prop_assert_eq!(&grouped_slice, &per_expert, "expert {} load {}", g, w);
        }
    }

    #[test]
    fn nt_and_tn_equal_transpose_then_matmul_exactly(
        m in adversarial_rows(),
        k in adversarial_depth(),
        n in adversarial_cols(),
        seed in any::<u64>(),
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let want = a.matmul(&b).unwrap();
        let (at, bt) = (a.transpose().unwrap(), b.transpose().unwrap());
        prop_assert_eq!(&a.matmul_nt(&bt).unwrap(), &want);
        prop_assert_eq!(&at.matmul_tn(&b).unwrap(), &want);
    }

    #[test]
    fn nt_and_tn_are_exact_above_the_parallel_threshold(
        m in prop::sample::select(vec![109usize, 128, 131]),
        k in prop::sample::select(vec![96usize, 257]),
        n in prop::sample::select(vec![112usize, 127]),
        callers in 2usize..5,
        seed in any::<u64>(),
    ) {
        prop_assert!(m * k * n >= OVERLAP_MACS);
        let mut rng = TensorRng::seed_from(seed);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let bt = b.transpose().unwrap();
        let a: Vec<Tensor> = (0..callers).map(|_| rng.uniform(&[m, k], -1.0, 1.0)).collect();
        let at: Vec<Tensor> = a.iter().map(|a| a.transpose().unwrap()).collect();
        let forms = at_once(callers, |i| {
            [a[i].matmul(&b), a[i].matmul_nt(&bt), at[i].matmul_tn(&b)].map(Result::unwrap)
        });
        for (a, forms) in a.iter().zip(&forms) {
            let want = a.matmul(&b).unwrap();
            for form in forms {
                prop_assert_eq!(form, &want);
            }
        }
    }

    #[test]
    fn grouped_nt_and_tn_equal_their_transposed_references_exactly(
        loads in prop::collection::vec(prop::sample::select(vec![0usize, 1, 2, 5, 6, 7, 12, 13, 25]), 1..6),
        k in prop::sample::select(vec![1usize, 4, 17, 257]),
        n in prop::sample::select(vec![1usize, 8, 19, 33]),
        seed in any::<u64>(),
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let m: usize = loads.iter().sum();
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let g = rng.uniform(&[m, n], -1.0, 1.0);
        // forward weights are (n, k): the nt form multiplies by their
        // transposes without building them
        let weights: Vec<Tensor> =
            (0..loads.len()).map(|_| rng.uniform(&[n, k], -1.0, 1.0)).collect();
        let transposed: Vec<Tensor> = weights.iter().map(|w| w.transpose().unwrap()).collect();
        let mut offsets = vec![0usize];
        for load in &loads {
            offsets.push(offsets.last().unwrap() + load);
        }
        let groups = Segments::from_offsets(&offsets);
        let nt = a
            .matmul_segments_nt(&weights.iter().collect::<Vec<_>>(), &groups, &groups, m)
            .unwrap();
        let reference = a
            .matmul_grouped(&transposed.iter().collect::<Vec<_>>(), &offsets, 1)
            .unwrap();
        prop_assert_eq!(&nt, &reference);

        // per-group aᵀ·g against slice → transpose → matmul; an empty
        // group must still yield a (k, n) block of zeros
        let tn = a.matmul_segments_tn(&g, &groups, &groups).unwrap();
        prop_assert_eq!(tn.len(), loads.len());
        for (e, got) in tn.iter().enumerate() {
            let rows_a = a.slice_rows(offsets[e], offsets[e + 1]).unwrap();
            let rows_g = g.slice_rows(offsets[e], offsets[e + 1]).unwrap();
            let want = rows_a.transpose().unwrap().matmul(&rows_g).unwrap();
            prop_assert_eq!(got, &want, "group {} load {}", e, loads[e]);
        }
    }
}

/// `loads` cut into runs placed with gaps in a taller buffer — each
/// group a run per piece, zero-row pieces included — plus the buffer's
/// height. The gap rows are NaN in every operand built on it, so a run
/// read past its end shows.
fn scattered(loads: &[usize], rng: &mut TensorRng) -> (Segments, usize) {
    let mut segments = Segments::new();
    let mut row = 0;
    for &load in loads {
        let mut runs = Vec::new();
        let mut left = load;
        while left > 0 || runs.is_empty() {
            let len = if left == 0 { 0 } else { 1 + rng.index(left) };
            row += rng.index(3);
            runs.push((row, len));
            row += len;
            left -= len;
            if rng.index(4) == 0 {
                runs.push((row, 0));
            }
        }
        segments.push_group(runs);
    }
    (segments, row + rng.index(3))
}

/// `packed`'s rows of `t` placed at `segments`' rows of a `height`-row
/// tensor whose other rows are `fill`.
fn spread(t: &Tensor, packed: &Segments, segments: &Segments, height: usize, fill: f32) -> Tensor {
    let n = t.dims()[1];
    let mut out = Tensor::full(&[height, n], fill);
    for g in 0..segments.groups() {
        let mut src = packed.group(g)[0].0;
        for &(base, rows) in segments.group(g) {
            out.data_mut()[base * n..(base + rows) * n]
                .copy_from_slice(&t.data()[src * n..(src + rows) * n]);
            src += rows;
        }
    }
    out
}

proptest! {
    #[test]
    fn segment_form_equals_offsets_form(
        loads in prop::collection::vec(prop::sample::select(vec![0usize, 1, 2, 5, 12, 13, 25]), 1..5),
        k in prop::sample::select(vec![1usize, 4, 17, 257]),
        n in prop::sample::select(vec![1usize, 8, 19, 33]),
        seed in any::<u64>(),
    ) {
        // The offsets form computes on contiguous groups; the segment
        // form reads the same rows out of runs scattered over a taller
        // buffer (and writes them back to runs). Both sides hold the
        // same values, so the results must match bit for bit — `_tn`
        // included, whose contraction is cut wherever a run breaks.
        let mut rng = TensorRng::seed_from(seed);
        let rows: usize = loads.iter().sum();
        let mut offsets = vec![0usize];
        for load in &loads {
            offsets.push(offsets.last().unwrap() + load);
        }
        let packed = Segments::from_offsets(&offsets);
        let (wire, height) = scattered(&loads, &mut rng);
        let a = rng.uniform(&[rows, k], -1.0, 1.0);
        let g = rng.uniform(&[rows, n], -1.0, 1.0);
        let a_wire = spread(&a, &packed, &wire, height, f32::NAN);
        let g_wire = spread(&g, &packed, &wire, height, f32::NAN);
        let plain: Vec<Tensor> = loads.iter().map(|_| rng.uniform(&[k, n], -1.0, 1.0)).collect();
        let flipped: Vec<Tensor> = loads.iter().map(|_| rng.uniform(&[n, k], -1.0, 1.0)).collect();
        let (plain, flipped): (Vec<&Tensor>, Vec<&Tensor>) = (plain.iter().collect(), flipped.iter().collect());

        let want = a.matmul_grouped(&plain, &offsets, 1).unwrap();
        prop_assert_eq!(&a_wire.matmul_segments(&plain, &wire, &packed, rows).unwrap(), &want);
        let out = a.matmul_segments(&plain, &packed, &wire, height).unwrap();
        prop_assert_eq!(&out, &spread(&want, &packed, &wire, height, 0.0));

        let want = a.matmul_segments_nt(&flipped, &packed, &packed, rows).unwrap();
        prop_assert_eq!(&a_wire.matmul_segments_nt(&flipped, &wire, &packed, rows).unwrap(), &want);
        let out = a_wire.matmul_segments_nt(&flipped, &wire, &wire, height).unwrap();
        prop_assert_eq!(&out, &spread(&want, &packed, &wire, height, 0.0));

        let want = a.matmul_segments_tn(&g, &packed, &packed).unwrap();
        prop_assert_eq!(&a_wire.matmul_segments_tn(&g, &wire, &packed).unwrap(), &want);
        prop_assert_eq!(&a.matmul_segments_tn(&g_wire, &packed, &wire).unwrap(), &want);
        prop_assert_eq!(&a_wire.matmul_segments_tn(&g_wire, &wire, &wire).unwrap(), &want);
    }
}

/// An expert batch the size of `dense_1r`'s, multiplied in all three
/// forms by several threads at once, each on its own rows: every caller
/// must reproduce its lone call's bits.
#[test]
fn grouped_gemms_above_the_parallel_threshold_match_serial_exactly() {
    let loads = [37usize, 0, 101, 6, 0, 90];
    let (k, n) = (128usize, 96usize);
    let rows: usize = loads.iter().sum();
    assert!(rows * k * n >= OVERLAP_MACS && 90 * k * n >= OVERLAP_MACS);
    let mut offsets = vec![0usize];
    for load in loads {
        offsets.push(offsets.last().unwrap() + load);
    }
    let mut rng = TensorRng::seed_from(0x6E0);
    let operands: Vec<(Tensor, Tensor)> = (0..4)
        .map(|_| {
            let a = rng.uniform(&[rows, k], -1.0, 1.0);
            (a, rng.uniform(&[rows, n], -1.0, 1.0))
        })
        .collect();
    let plain: Vec<Tensor> = loads
        .iter()
        .map(|_| rng.uniform(&[k, n], -1.0, 1.0))
        .collect();
    let flipped: Vec<Tensor> = loads
        .iter()
        .map(|_| rng.uniform(&[n, k], -1.0, 1.0))
        .collect();
    let plain: Vec<&Tensor> = plain.iter().collect();
    let flipped: Vec<&Tensor> = flipped.iter().collect();
    let groups = Segments::from_offsets(&offsets);
    let all_three = |i: usize| {
        let (a, g) = &operands[i];
        (
            a.matmul_grouped(&plain, &offsets, 1).unwrap(),
            a.matmul_segments_nt(&flipped, &groups, &groups, rows)
                .unwrap(),
            a.matmul_segments_tn(g, &groups, &groups).unwrap(),
        )
    };
    let lone: Vec<_> = (0..4).map(all_three).collect();
    for callers in 2..=4 {
        assert_eq!(
            at_once(callers, all_three),
            lone[..callers],
            "{callers} callers"
        );
    }
}

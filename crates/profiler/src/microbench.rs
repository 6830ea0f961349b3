//! Replayed micro-benchmarks against the calibrated cluster models.
//!
//! The paper measures each collective with nccl-tests over message sizes
//! `2^18 … 24·2^18` floats (step `2^18`) and GEMM with torch.matmul over
//! `2^19 … 12·2^19` elements (step `2^19`), five runs each (§6.2). This
//! module replays exactly those sweeps against a testbed's calibrated
//! cost models with seeded multiplicative jitter, producing the samples
//! the Fig. 5 fits are computed from.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{CostModel, Testbed};

use crate::{fit_cost_model, FittedModel};

/// The paper's communication sweep: `2^18 … 24·2^18` float elements,
/// reported in bytes (4 per element).
pub fn comm_message_sizes() -> Vec<f64> {
    (1..=24).map(|i| (i as f64) * 262_144.0 * 4.0).collect()
}

/// The paper's GEMM sweep: `2^19 … 12·2^19` elements. The workload fed
/// to the model is FLOPs: a square-ish matmul on `n` total elements
/// performs about `2·n^{3/2}` FLOPs.
pub fn gemm_workloads() -> Vec<f64> {
    (1..=12)
        .map(|i| {
            let n = (i as f64) * 524_288.0;
            2.0 * n.powf(1.5)
        })
        .collect()
}

/// One profiled operation: its samples and fitted model.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Operation label ("AlltoAll", "GEMM", …).
    pub name: &'static str,
    /// `(workload, mean measured time)` pairs.
    pub samples: Vec<(f64, f64)>,
    /// The recovered model and its r².
    pub fitted: FittedModel,
}

/// Measures one op: `runs` jittered evaluations per size, averaged —
/// mirroring the paper's five-run averaging.
pub fn profile_op(
    name: &'static str,
    truth: &CostModel,
    sizes: &[f64],
    jitter: f64,
    runs: usize,
    seed: u64,
) -> OpProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<(f64, f64)> = sizes
        .iter()
        .map(|&n| {
            let mean: f64 = (0..runs.max(1))
                .map(|_| {
                    let eps: f64 = rng.gen_range(-1.0..1.0);
                    truth.time(n) * (1.0 + jitter * eps)
                })
                .sum::<f64>()
                / runs.max(1) as f64;
            (n, mean)
        })
        .collect();
    let fitted = fit_cost_model(&samples).expect("sweeps have ≥ 2 distinct sizes");
    if obs::is_enabled() {
        // Mirror the sweep into the registry: each averaged measurement
        // lands in a per-op histogram (ms → µs) and the recovered α–β
        // fit in gauges, so a trace dump carries the Fig. 5 data.
        for &(_, t_ms) in &samples {
            obs::record_hist(obs::names::profiler_sample_us(name), t_ms * 1000.0);
        }
        obs::set_gauge(obs::names::profiler_alpha(name), fitted.model.alpha);
        obs::set_gauge(obs::names::profiler_beta(name), fitted.model.beta);
        obs::set_gauge(obs::names::profiler_r_squared(name), fitted.r_squared);
    }
    OpProfile {
        name,
        samples,
        fitted,
    }
}

/// Profiles all five ops of a testbed, reproducing the Fig. 5 data.
///
/// `jitter` is the relative measurement noise (the paper's real
/// clusters show r² ≥ 0.9987, consistent with ~1% jitter).
pub fn profile_testbed(testbed: &Testbed, jitter: f64, seed: u64) -> Vec<OpProfile> {
    let comm = comm_message_sizes();
    let gemm = gemm_workloads();
    vec![
        profile_op("GEMM", &testbed.costs.gemm, &gemm, jitter, 5, seed),
        profile_op("AlltoAll", &testbed.costs.a2a, &comm, jitter, 5, seed + 1),
        profile_op(
            "AllGather",
            &testbed.costs.all_gather,
            &comm,
            jitter,
            5,
            seed + 2,
        ),
        profile_op(
            "ReduceScatter",
            &testbed.costs.reduce_scatter,
            &comm,
            jitter,
            5,
            seed + 3,
        ),
        profile_op(
            "AllReduce",
            &testbed.costs.all_reduce,
            &comm,
            jitter,
            5,
            seed + 4,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_sizes_match_paper() {
        let comm = comm_message_sizes();
        assert_eq!(comm.len(), 24);
        assert_eq!(comm[0], 262_144.0 * 4.0);
        assert_eq!(comm[23], 24.0 * 262_144.0 * 4.0);
        assert_eq!(gemm_workloads().len(), 12);
    }

    #[test]
    fn noiseless_profiles_recover_truth() {
        for tb in [Testbed::a(), Testbed::b()] {
            for p in profile_testbed(&tb, 0.0, 1) {
                assert!(
                    p.fitted.r_squared > 1.0 - 1e-9,
                    "{}: r² = {}",
                    p.name,
                    p.fitted.r_squared
                );
            }
        }
    }

    #[test]
    fn one_percent_jitter_keeps_r2_high() {
        // the paper's fits reach r² ≥ 0.9987 on real hardware; with 1%
        // multiplicative jitter ours must land in the same regime
        for p in profile_testbed(&Testbed::a(), 0.01, 42) {
            assert!(
                p.fitted.r_squared > 0.995,
                "{}: r² = {}",
                p.name,
                p.fitted.r_squared
            );
        }
    }

    #[test]
    fn recovered_parameters_close_to_truth() {
        let tb = Testbed::b();
        let p = profile_op("AlltoAll", &tb.costs.a2a, &comm_message_sizes(), 0.01, 5, 7);
        assert!((p.fitted.model.beta / tb.costs.a2a.beta - 1.0).abs() < 0.05);
        assert!((p.fitted.model.alpha / tb.costs.a2a.alpha - 1.0).abs() < 0.25);
    }

    #[test]
    fn profiles_are_deterministic() {
        let a = profile_testbed(&Testbed::a(), 0.02, 5);
        let b = profile_testbed(&Testbed::a(), 0.02, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.samples, y.samples);
        }
    }
}

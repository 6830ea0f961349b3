//! Real wall-clock profiling of this machine's tensor ops.
//!
//! This is the genuine "online profiling" path (§3.2): when the library
//! lands on new hardware, it measures the actual GEMM implementation
//! over a size sweep and fits the α–β model — no prior knowledge of the
//! kernel needed. On this reproduction the "device" is one CPU thread —
//! a GEMM runs on the thread that calls it, so a rank prices its own
//! core — and the kernel is `tensor::Tensor::matmul`, but the pipeline
//! is identical to what the paper runs against CUDA.

use std::time::Instant;

use tensor::TensorRng;

use crate::{fit_cost_model, FittedModel};

/// One measured GEMM point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmSample {
    /// Square-matrix dimension.
    pub dim: usize,
    /// FLOPs of the multiply (`2·dim³`).
    pub flops: f64,
    /// Measured wall time, ms.
    pub millis: f64,
}

/// Times square GEMMs of the given dimensions (`runs` repetitions each,
/// best-of to suppress scheduler noise) and returns the samples.
pub fn measure_gemm(dims: &[usize], runs: usize) -> Vec<GemmSample> {
    let mut rng = TensorRng::seed_from(0xBEEF);
    dims.iter()
        .map(|&d| {
            let a = rng.uniform(&[d, d], -1.0, 1.0);
            let b = rng.uniform(&[d, d], -1.0, 1.0);
            let mut best = f64::INFINITY;
            for _ in 0..runs.max(1) {
                let start = Instant::now();
                let c = a.matmul(&b).expect("square matmul");
                // keep the result observable so the multiply cannot be
                // optimised away
                std::hint::black_box(c.data()[0]);
                best = best.min(start.elapsed().as_secs_f64() * 1e3);
            }
            GemmSample {
                dim: d,
                flops: 2.0 * (d as f64).powi(3),
                millis: best,
            }
        })
        .collect()
}

/// Measures and fits this machine's GEMM performance model.
///
/// # Errors
///
/// Propagates fit errors for degenerate dimension lists.
pub fn profile_cpu_gemm(dims: &[usize], runs: usize) -> numopt::Result<FittedModel> {
    fit_samples(&measure_gemm(dims, runs))
}

/// Fits `millis = α + β·flops` to measured (or synthetic) samples.
///
/// # Errors
///
/// Propagates fit errors for degenerate sample sets.
pub fn fit_samples(samples: &[GemmSample]) -> numopt::Result<FittedModel> {
    let points: Vec<_> = samples.iter().map(|s| (s.flops, s.millis)).collect();
    fit_cost_model(&points)
}

#[cfg(test)]
mod tests {
    //! Structure of measured sweeps and the fit on synthetic points only;
    //! "bigger GEMMs take longer" and "the real GEMM is linear in FLOPs"
    //! are budgets of `cargo bench -p bench --bench profiler`.
    use super::*;

    #[test]
    fn sweep_yields_one_sample_per_dim_with_its_flops() {
        let samples = measure_gemm(&[16, 64, 128], 3);
        let dims: Vec<usize> = samples.iter().map(|s| s.dim).collect();
        assert_eq!(dims, [16, 64, 128]);
        assert_eq!(samples[1].flops, 2.0 * 64.0f64.powi(3));
        assert!(samples
            .iter()
            .all(|s| s.millis.is_finite() && s.millis > 0.0));
    }

    #[test]
    fn linear_model_recovers_a_synthetic_gemm() {
        // cubic-in-dim = linear-in-FLOPs: α = 0.01 ms, 40 GFLOP/s
        let (alpha, beta) = (0.01, 1.0 / 40.0e6);
        let samples: Vec<GemmSample> = [32usize, 48, 64, 96, 128, 160]
            .iter()
            .map(|&dim| {
                let flops = 2.0 * (dim as f64).powi(3);
                GemmSample {
                    dim,
                    flops,
                    millis: alpha + beta * flops,
                }
            })
            .collect();
        let fitted = fit_samples(&samples).unwrap();
        assert!((fitted.model.alpha - alpha).abs() < 1e-9, "{fitted:?}");
        assert!((fitted.model.beta - beta).abs() < 1e-15, "{fitted:?}");
        assert!(fitted.r_squared > 1.0 - 1e-9, "{fitted:?}");
    }

    #[test]
    fn degenerate_dims_error() {
        assert!(profile_cpu_gemm(&[], 1).is_err());
        assert!(profile_cpu_gemm(&[32], 1).is_err());
    }

    /// Ranks profile at once, each on its own thread: every sweep keeps
    /// its dims and FLOPs and times something.
    #[test]
    fn thread_pinned_profiling_measures_positive_times() {
        let lone = measure_gemm(&[16, 64], 2);
        for callers in [2usize, 3] {
            let sweeps: Vec<Vec<GemmSample>> = std::thread::scope(|s| {
                let ranks: Vec<_> = (0..callers)
                    .map(|_| s.spawn(|| measure_gemm(&[16, 64], 2)))
                    .collect();
                ranks.into_iter().map(|r| r.join().unwrap()).collect()
            });
            for samples in sweeps {
                let shape =
                    |s: &[GemmSample]| s.iter().map(|s| (s.dim, s.flops)).collect::<Vec<_>>();
                assert_eq!(shape(&samples), shape(&lone), "{callers} callers");
                assert!(samples.iter().all(|s| s.millis > 0.0), "{callers} callers");
            }
        }
    }
}

//! Real wall-clock profiling of the in-tree collectives.
//!
//! [`cpu`](crate::cpu) profiles the machine's actual GEMM; this module
//! is its communication twin. It runs the real thread-backed
//! [`collectives`] data plane over a payload sweep and fits the α–β
//! model to what the wire actually costs — the measured side of the
//! measured-vs-modeled comparison `obs::attrib` closes per step.
//!
//! All ranks time every op (the collectives are synchronizing, so
//! per-rank durations agree up to scheduler noise); the reported sample
//! is the cross-rank *maximum* of per-rank best-of times, because the
//! slowest rank is what a training step actually waits for.

use std::time::Instant;

use crate::{fit_cost_model, FittedModel};

/// Which collective to put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOp {
    /// `GroupComm::all_to_all` — the MoE dispatch/combine op.
    AllToAll,
    /// `GroupComm::all_reduce` — the DP gradient op.
    AllReduce,
    /// `GroupComm::all_gather`.
    AllGather,
    /// `GroupComm::reduce_scatter`.
    ReduceScatter,
}

impl CommOp {
    /// Display label, matching the paper's op names.
    pub fn name(self) -> &'static str {
        match self {
            CommOp::AllToAll => "AlltoAll",
            CommOp::AllReduce => "AllReduce",
            CommOp::AllGather => "AllGather",
            CommOp::ReduceScatter => "ReduceScatter",
        }
    }
}

/// One measured collective point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommSample {
    /// Per-rank payload, f32 elements (rounded up to a multiple of the
    /// world size so every op accepts it).
    pub elements: usize,
    /// Per-rank payload in bytes — the workload axis the α–β fit uses.
    pub bytes: f64,
    /// Slowest rank's best-of wall time, ms.
    pub millis: f64,
}

/// Times `op` over a world of `world_size` rank threads for each payload
/// size (`runs` repetitions each, best-of per rank to suppress scheduler
/// noise, then max across ranks).
///
/// The whole sweep runs inside one world so thread spawn/join cost is
/// paid once, not per sample.
///
/// # Panics
///
/// Panics if a fault-free collective fails — that is a data-plane bug,
/// not a measurement outcome.
pub fn measure_collective(
    op: CommOp,
    world_size: usize,
    sizes: &[usize],
    runs: usize,
) -> Vec<CommSample> {
    let world = world_size.max(1);
    let sizes: Vec<usize> = sizes.iter().map(|&n| n.div_ceil(world) * world).collect();
    let sweep = sizes.clone();
    let per_rank = collectives::run_ranks(world, move |comm| {
        let group = comm.world_group();
        sweep
            .iter()
            .map(|&n| {
                let data = vec![1.0f32; n];
                let mut best = f64::INFINITY;
                for _ in 0..runs.max(1) {
                    let start = Instant::now();
                    match op {
                        CommOp::AllToAll => {
                            let out = group.all_to_all(&data).expect("fault-free all_to_all");
                            std::hint::black_box(out.first().copied());
                        }
                        CommOp::AllReduce => {
                            let mut buf = data.clone();
                            group.all_reduce(&mut buf).expect("fault-free all_reduce");
                            std::hint::black_box(buf.first().copied());
                        }
                        CommOp::AllGather => {
                            let out = group.all_gather(&data).expect("fault-free all_gather");
                            std::hint::black_box(out.first().copied());
                        }
                        CommOp::ReduceScatter => {
                            let out = group
                                .reduce_scatter(&data)
                                .expect("fault-free reduce_scatter");
                            std::hint::black_box(out.first().copied());
                        }
                    }
                    best = best.min(start.elapsed().as_secs_f64() * 1e3);
                }
                best
            })
            .collect::<Vec<f64>>()
    });
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| CommSample {
            elements: n,
            bytes: (n * std::mem::size_of::<f32>()) as f64,
            millis: per_rank.iter().map(|times| times[i]).fold(0.0f64, f64::max),
        })
        .collect()
}

/// Fits `millis = α + β·bytes` to measured (or synthetic) samples.
///
/// # Errors
///
/// Propagates fit errors for degenerate sample sets.
pub fn fit_samples(samples: &[CommSample]) -> numopt::Result<FittedModel> {
    let points: Vec<_> = samples.iter().map(|s| (s.bytes, s.millis)).collect();
    fit_cost_model(&points)
}

/// Measures and fits this machine's model for one collective; also
/// mirrors the sweep into the obs registry exactly like the replayed
/// [`microbench`](crate::microbench) sweeps, so real and modeled fits
/// land side by side in a trace dump.
///
/// # Errors
///
/// Propagates fit errors for degenerate size lists.
pub fn profile_collective(
    op: CommOp,
    world_size: usize,
    sizes: &[usize],
    runs: usize,
) -> numopt::Result<FittedModel> {
    let samples = measure_collective(op, world_size, sizes, runs);
    let fitted = fit_samples(&samples)?;
    if obs::is_enabled() {
        let name = op.name();
        for s in &samples {
            obs::record_hist(obs::names::profiler_sample_us(name), s.millis * 1000.0);
        }
        obs::set_gauge(obs::names::profiler_alpha(name), fitted.model.alpha);
        obs::set_gauge(obs::names::profiler_beta(name), fitted.model.beta);
        obs::set_gauge(obs::names::profiler_r_squared(name), fitted.r_squared);
    }
    Ok(fitted)
}

#[cfg(test)]
mod tests {
    //! No assertion here compares wall-clock readings with each other or
    //! with a literal: measured sweeps are checked for structure, the fit
    //! on synthetic points. Whether the real wire is linear in bytes is a
    //! budget of `cargo bench -p bench --bench profiler`.
    use super::*;

    fn well_formed(samples: &[CommSample]) -> bool {
        samples
            .iter()
            .all(|s| s.millis.is_finite() && s.millis > 0.0)
    }

    #[test]
    fn payloads_round_up_to_world_multiples() {
        let samples = measure_collective(CommOp::AllToAll, 3, &[7, 9], 1);
        assert_eq!(samples[0].elements, 9);
        assert_eq!(samples[1].elements, 9);
        assert_eq!(samples[0].bytes, 36.0);
        assert!(well_formed(&samples), "{samples:?}");
    }

    #[test]
    fn sweep_yields_one_sample_per_payload_in_order() {
        let sizes = [1 << 10, 1 << 12, 1 << 14];
        let samples = measure_collective(CommOp::AllToAll, 2, &sizes, 3);
        let elements: Vec<usize> = samples.iter().map(|s| s.elements).collect();
        assert_eq!(elements, sizes);
        let bytes: Vec<f64> = samples.iter().map(|s| s.bytes).collect();
        assert_eq!(bytes, [4096.0, 16384.0, 65536.0]);
        assert!(well_formed(&samples), "{samples:?}");
    }

    #[test]
    fn linear_model_recovers_a_synthetic_wire() {
        // α = 0.05 ms startup, β = 2e-7 ms/byte, exactly
        let (alpha, beta) = (0.05, 2.0e-7);
        let samples: Vec<CommSample> = (1..=8)
            .map(|i| {
                let elements = i << 16;
                let bytes = (elements * 4) as f64;
                CommSample {
                    elements,
                    bytes,
                    millis: alpha + beta * bytes,
                }
            })
            .collect();
        let fitted = fit_samples(&samples).expect("distinct sizes");
        assert!((fitted.model.alpha - alpha).abs() < 1e-9, "{fitted:?}");
        assert!((fitted.model.beta - beta).abs() < 1e-15, "{fitted:?}");
        assert!(fitted.r_squared > 1.0 - 1e-9, "{fitted:?}");
        assert!(fit_samples(&samples[..1]).is_err(), "one point is no line");
    }

    #[test]
    fn profiling_the_real_wire_yields_a_finite_fit() {
        let sizes: Vec<usize> = (1..=4).map(|i| i << 12).collect();
        let fitted =
            profile_collective(CommOp::AllReduce, 2, &sizes, 1).expect("sweep has distinct sizes");
        assert!(fitted.model.alpha.is_finite() && fitted.model.beta.is_finite());
        assert!(fitted.r_squared.is_finite());
    }

    #[test]
    fn every_op_variant_measures() {
        for op in [
            CommOp::AllToAll,
            CommOp::AllReduce,
            CommOp::AllGather,
            CommOp::ReduceScatter,
        ] {
            let samples = measure_collective(op, 2, &[1 << 12], 1);
            assert!(well_formed(&samples), "{} measures", op.name());
        }
    }
}

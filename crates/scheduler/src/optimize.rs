//! Algorithm 1: `FindOptimalPipelineDegree`.
//!
//! The paper relaxes the pipeline degree `r` to a real, solves the four
//! case-constrained problems with SLSQP, and takes the feasible minimum.
//! The four cases partition the degrees (Q1–Q7 select exactly one at
//! each `r`), so that minimum is the least `t_moe(r)` over the admissible
//! degrees, and this implementation finds it exactly by scanning all
//! `MAX_PIPELINE_DEGREE` of them. [`GarCurve`] is that scan's optimum
//! tabulated over the Gradient-AllReduce budget, for the §5 partitioner.

use crate::cases::{gar_step, t_moe, CaseId};
use crate::perf::MoePerfModel;

/// Upper bound on the pipeline degree (chunks of the token batch). The
/// paper's search space is small; 64 comfortably covers it.
pub const MAX_PIPELINE_DEGREE: u32 = 64;
const DEGREES: usize = MAX_PIPELINE_DEGREE as usize;

/// The optimizer's output: degree, predicted time, active case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSolution {
    /// Chosen pipeline degree `r`.
    pub r: u32,
    /// Predicted MoE-layer time at `r`, ms.
    pub t_moe: f64,
    /// The scheduling case active at `r`.
    pub case: CaseId,
}

/// Algorithm 1: the pipeline degree minimising the predicted MoE layer
/// time, `t_moe(r)` (the objective of whichever case is active at `r`),
/// over `1..=MAX_PIPELINE_DEGREE`. The lowest degree wins a tie.
pub fn find_optimal_pipeline_degree(m: &MoePerfModel) -> PipelineSolution {
    (1..=MAX_PIPELINE_DEGREE)
        .map(|r| {
            let (t, case) = t_moe(m, r);
            PipelineSolution { r, t_moe: t, case }
        })
        .min_by(|a, b| {
            a.t_moe
                .partial_cmp(&b.t_moe)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty range")
}

/// [`find_optimal_pipeline_degree`]'s `t_moe` as a function of the model's `t_gar`,
/// built once per model so that pricing a budget is a binary search
/// instead of a scan over every degree.
///
/// Each degree `r` costs `c_r + t` above its case-1 threshold `h_r` and
/// a constant `b_r` at or below it ([`gar_step`]). With the degrees
/// sorted by `h_r`, those in case 1 at `t` are a prefix, so the optimum
/// is `min(min c_r + t over the prefix, min b_r over the rest)`. Float
/// addition rounds monotonically, so the least `c_r` plus `t` is the
/// least `c_r + t`: [`GarCurve::at`] equals the scan bit for bit.
#[derive(Debug, Clone)]
pub struct GarCurve {
    /// The case-1 thresholds `h_r`, ascending.
    thresholds: [f64; DEGREES],
    /// `case1_min[k]`: the least `c_r` of the first `k` thresholds.
    case1_min: [f64; DEGREES + 1],
    /// `otherwise_min[k]`: the least `b_r` from threshold `k` on.
    otherwise_min: [f64; DEGREES + 1],
}

impl GarCurve {
    /// Tabulates the curve of `m` (its own `t_gar` is ignored).
    pub fn new(m: &MoePerfModel) -> Self {
        let mut steps: [_; DEGREES] = std::array::from_fn(|i| gar_step(m, i as u32 + 1));
        steps.sort_by(|a, b| a.threshold.total_cmp(&b.threshold));
        let mut curve = GarCurve {
            thresholds: steps.map(|s| s.threshold),
            case1_min: [f64::INFINITY; DEGREES + 1],
            otherwise_min: [f64::INFINITY; DEGREES + 1],
        };
        for (k, s) in steps.iter().enumerate() {
            curve.case1_min[k + 1] = curve.case1_min[k].min(s.case1);
        }
        for (k, s) in steps.iter().enumerate().rev() {
            curve.otherwise_min[k] = curve.otherwise_min[k + 1].min(s.otherwise);
        }
        curve
    }

    /// `find_optimal_pipeline_degree(&m.with_t_gar(t_gar)).t_moe`.
    pub fn at(&self, t_gar: f64) -> f64 {
        let k = self.thresholds.partition_point(|&h| h < t_gar);
        (self.case1_min[k] + t_gar).min(self.otherwise_min[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::Phase;
    use simnet::{CostModel, OpCosts, Testbed};

    fn model(n_a2a: f64, n_exp: f64, t_gar: f64, phase: Phase) -> MoePerfModel {
        MoePerfModel::new(
            &Testbed::b().costs,
            n_a2a,
            n_a2a,
            n_a2a,
            n_exp,
            2,
            phase,
            t_gar,
        )
    }

    #[test]
    fn boundary_optimum_is_found() {
        // Per-op fitted costs with a slow ReduceScatter. Case 3 holds
        // from r = 28 up and its makespan rises from there, so the
        // optimum (14.87 ms) sits on that case's boundary; case 4's own
        // minimum, r = 12 at 116.36 ms, is feasible but 7.8× slower.
        let costs = OpCosts {
            gemm: CostModel::new(0.05, 1.0e-11),
            a2a: CostModel::new(0.08, 4.0e-8),
            all_gather: CostModel::new(0.02, 2.0e-8),
            reduce_scatter: CostModel::new(0.02, 4.6e-7),
            all_reduce: CostModel::new(0.1, 6.0e-7),
        };
        let m = MoePerfModel::new(&costs, 7.8e7, 2.4e8, 2.4e8, 1.2e6, 2, Phase::Backward, 0.0);
        let s = find_optimal_pipeline_degree(&m);
        assert_eq!(s.r, 28, "{s:?}");
        assert_eq!(s.case, CaseId::Case3);
        assert_eq!(s.t_moe.to_bits(), t_moe(&m, 28).0.to_bits());
    }

    #[test]
    fn r_is_in_bounds() {
        for n_exp in [1.0e7, 1.0e12] {
            let m = model(1.0e6, n_exp, 0.0, Phase::Forward);
            let s = find_optimal_pipeline_degree(&m);
            assert!((1..=MAX_PIPELINE_DEGREE).contains(&s.r));
        }
    }

    #[test]
    fn compute_heavy_configs_prefer_small_r() {
        // when experts dominate, pipelining only adds per-chunk startup:
        // optimal r stays small
        let m = model(1.0e4, 1.0e12, 0.0, Phase::Forward);
        let s = find_optimal_pipeline_degree(&m);
        assert!(s.r <= 2, "r = {}", s.r);
        assert_eq!(s.case, CaseId::Case2);
    }

    #[test]
    fn balanced_configs_prefer_pipelining() {
        // comm and compute comparable → r > 1 wins
        let m = model(8.0e6, 4.0e10, 0.0, Phase::Forward);
        let s = find_optimal_pipeline_degree(&m);
        assert!(s.r > 1, "r = {}", s.r);
        // pipelining must beat no pipelining
        let (t1, _) = t_moe(&m, 1);
        assert!(s.t_moe < t1);
    }

    #[test]
    fn forward_and_backward_degrees_can_differ() {
        // the §2.3 motivation: 912 of 1458 configs had different optimal
        // fwd/bwd degrees. Exhibit one such configuration.
        let mut found = false;
        for n_a2a in [1.0e6, 4.0e6, 1.6e7] {
            for n_exp in [1.0e9, 8.0e9, 6.4e10] {
                let f = find_optimal_pipeline_degree(&model(n_a2a, n_exp, 0.0, Phase::Forward));
                let b = find_optimal_pipeline_degree(&model(n_a2a, n_exp, 0.0, Phase::Backward));
                if f.r != b.r {
                    found = true;
                }
            }
        }
        assert!(found, "no config with differing fwd/bwd degree found");
    }

    #[test]
    fn gar_budget_shifts_solution_toward_case1() {
        let base = model(2.0e6, 1.0e9, 0.0, Phase::Backward);
        let with_gar = base.with_t_gar(1.0e3);
        let s = find_optimal_pipeline_degree(&with_gar);
        assert_eq!(s.case, CaseId::Case1);
        // in case 1, minimising 2r·t_a2a favours r = 1 (α per chunk)
        assert_eq!(s.r, 1);
    }

    #[test]
    fn deterministic() {
        let m = model(3.0e6, 2.0e9, 1.0, Phase::Backward);
        assert_eq!(
            find_optimal_pipeline_degree(&m),
            find_optimal_pipeline_degree(&m)
        );
    }
}

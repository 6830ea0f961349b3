//! Per-task performance models (paper §4.1, Eq. 1).

use simnet::{CostModel, OpCosts};

/// Which training phase a model describes.
///
/// Backward propagation computes the gradient of both the weights and
/// the input — two GEMMs per forward GEMM — so the expert startup term
/// and workload double (§4.4). `t_gar` is zero in the forward phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward pass.
    Forward,
    /// Backward pass (expert work ×2, Gradient-AllReduce present).
    Backward,
}

impl Phase {
    /// Multiplier on the expert workload.
    pub fn expert_factor(self) -> f64 {
        match self {
            Phase::Forward => 1.0,
            Phase::Backward => 2.0,
        }
    }
}

/// The complete per-chunk time model of one MoE layer on one cluster.
///
/// Implements the paper's Eq. 1:
/// `t_{*,r} = α_* + (n_*/r)·β_*` for AlltoAll, AllGather, ReduceScatter
/// and expert computation, where `α_exp`/`β_exp` absorb the number of
/// identical GEMMs per expert application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoePerfModel {
    /// AlltoAll model (inter-node), workload [`MoePerfModel::n_a2a`].
    pub a2a: CostModel,
    /// AllGather model (intra-node), workload [`MoePerfModel::n_ag`].
    pub ag: CostModel,
    /// ReduceScatter model (intra-node), workload [`MoePerfModel::n_rs`].
    pub rs: CostModel,
    /// Expert-computation model, workload [`MoePerfModel::n_exp`].
    pub exp: CostModel,
    /// AllReduce model (used to price Gradient-AllReduce bytes).
    pub ar: CostModel,
    /// AlltoAll bytes per GPU.
    pub n_a2a: f64,
    /// AllGather bytes per GPU.
    pub n_ag: f64,
    /// ReduceScatter bytes per GPU.
    pub n_rs: f64,
    /// Expert FLOPs per GPU (already phase-adjusted).
    pub n_exp: f64,
    /// Time of the Gradient-AllReduce overlapped into this layer, ms
    /// (0 in forward; set by the §5 partitioner in backward).
    pub t_gar: f64,
}

impl MoePerfModel {
    /// Builds the model from cluster cost models and per-layer volumes.
    ///
    /// `gemms` is the number of identical GEMMs per expert application;
    /// the paper derives `α_exp = gemms·α_gemm` (and the phase doubles
    /// the GEMM count in backward). `β_exp` stays the per-FLOP GEMM rate,
    /// with the workload `n_exp` carrying the volume scaling.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per term of the paper's phase cost model"
    )]
    pub fn new(
        costs: &OpCosts,
        n_a2a: f64,
        n_ag: f64,
        n_rs: f64,
        n_exp: f64,
        gemms: usize,
        phase: Phase,
        t_gar: f64,
    ) -> Self {
        let f = phase.expert_factor();
        MoePerfModel {
            a2a: costs.a2a,
            ag: costs.all_gather,
            rs: costs.reduce_scatter,
            exp: CostModel::new(costs.gemm.alpha * gemms as f64 * f, costs.gemm.beta),
            ar: costs.all_reduce,
            n_a2a,
            n_ag,
            n_rs,
            n_exp: n_exp * f,
            t_gar,
        }
    }

    /// Per-chunk AlltoAll time `t_{a2a,r}`.
    pub fn t_a2a(&self, r: u32) -> f64 {
        self.a2a.time_chunked(self.n_a2a, r)
    }

    /// Per-chunk AllGather time `t_{ag,r}`.
    pub fn t_ag(&self, r: u32) -> f64 {
        self.ag.time_chunked(self.n_ag, r)
    }

    /// Per-chunk ReduceScatter time `t_{rs,r}`.
    pub fn t_rs(&self, r: u32) -> f64 {
        self.rs.time_chunked(self.n_rs, r)
    }

    /// Per-chunk expert time `t_{exp,r}`.
    pub fn t_exp(&self, r: u32) -> f64 {
        self.exp.time_chunked(self.n_exp, r)
    }

    /// A copy with a different overlapped Gradient-AllReduce budget.
    pub fn with_t_gar(&self, t_gar: f64) -> Self {
        MoePerfModel { t_gar, ..*self }
    }

    /// The bit patterns of every field: two models with equal bits price
    /// every degree and budget alike (`==` would equate `0.0` with
    /// `-0.0`, and no NaN with itself).
    pub fn to_bits(&self) -> [u64; 15] {
        // exhaustive, so a new field cannot be left out
        let MoePerfModel {
            a2a,
            ag,
            rs,
            exp,
            ar,
            n_a2a,
            n_ag,
            n_rs,
            n_exp,
            t_gar,
        } = *self;
        [
            a2a.alpha, a2a.beta, ag.alpha, ag.beta, rs.alpha, rs.beta, exp.alpha, exp.beta,
            ar.alpha, ar.beta, n_a2a, n_ag, n_rs, n_exp, t_gar,
        ]
        .map(f64::to_bits)
    }

    /// Unpipelined (r = 1) sequential time of the MoE communications and
    /// expert compute — what a no-overlap baseline pays per layer.
    pub fn sequential_time(&self) -> f64 {
        2.0 * self.t_a2a(1) + self.t_ag(1) + self.t_rs(1) + self.t_exp(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Testbed;

    fn model(phase: Phase) -> MoePerfModel {
        let tb = Testbed::b();
        MoePerfModel::new(
            &tb.costs, 4.0e6, // 4 MB
            4.0e6, 4.0e6, 2.0e9, // 2 GFLOP
            2, phase, 0.0,
        )
    }

    #[test]
    fn chunking_divides_volume_not_alpha() {
        let m = model(Phase::Forward);
        let t1 = m.t_a2a(1);
        let t4 = m.t_a2a(4);
        assert!(t4 > t1 / 4.0, "alpha term must not shrink");
        assert!(t4 < t1, "chunk time must shrink");
        assert!((4.0 * t4 - t1 - 3.0 * m.a2a.alpha).abs() < 1e-12);
    }

    #[test]
    fn backward_doubles_expert_terms() {
        let f = model(Phase::Forward);
        let b = model(Phase::Backward);
        assert_eq!(b.n_exp, 2.0 * f.n_exp);
        assert_eq!(b.exp.alpha, 2.0 * f.exp.alpha);
        assert_eq!(b.exp.beta, f.exp.beta);
        // communication untouched
        assert_eq!(b.t_a2a(3), f.t_a2a(3));
    }

    #[test]
    fn gemm_count_scales_alpha() {
        let tb = Testbed::a();
        let gpt = MoePerfModel::new(&tb.costs, 1.0, 1.0, 1.0, 1.0, 2, Phase::Forward, 0.0);
        let mix = MoePerfModel::new(&tb.costs, 1.0, 1.0, 1.0, 1.0, 3, Phase::Forward, 0.0);
        assert!((mix.exp.alpha / gpt.exp.alpha - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sequential_time_is_sum_of_parts() {
        let m = model(Phase::Forward);
        let expect = 2.0 * m.t_a2a(1) + m.t_ag(1) + m.t_rs(1) + m.t_exp(1);
        assert_eq!(m.sequential_time(), expect);
    }

    #[test]
    fn with_t_gar_only_changes_gar() {
        let m = model(Phase::Backward).with_t_gar(5.0);
        assert_eq!(m.t_gar, 5.0);
        assert_eq!(m.n_a2a, model(Phase::Backward).n_a2a);
    }
}

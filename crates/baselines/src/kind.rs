//! Schedule taxonomy and per-schedule pipeline-degree selection.

use scheduler::{find_optimal_pipeline_degree, makespan, MoePerfModel};

/// The six schedules compared in the paper's evaluation.
///
/// `Ord` follows declaration order so `BTreeMap<ScheduleKind, _>`
/// aggregations iterate deterministically (std hash containers are a
/// clippy `disallowed_types` ban, DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScheduleKind {
    /// DeepSpeed-MoE: fully sequential MoE layer (Fig. 3a's default).
    DsMoe,
    /// Tutel with its PipeMoE-optimised pipelining.
    Tutel,
    /// Tutel + Gradient-AllReduce overlapped with non-MoE parts.
    TutelImproved,
    /// PipeMoE + Lina's fixed-chunk gradient schedule.
    PipeMoeLina,
    /// FasterMoE: the fixed two-way input split of He et al. (PPoPP'22)
    /// — pipeline degree pinned to 2, gradients at the end (§7).
    FasterMoe,
    /// FSMoE without inter/intra-node communication overlap.
    FsMoeNoIio,
    /// The full FSMoE schedule.
    FsMoe,
}

impl ScheduleKind {
    /// The six schedules of the paper's headline comparisons,
    /// baseline-first. `FasterMoe` appears only in the ablation study
    /// (the paper's figures likewise omit it).
    pub const ALL: [ScheduleKind; 6] = [
        ScheduleKind::DsMoe,
        ScheduleKind::Tutel,
        ScheduleKind::TutelImproved,
        ScheduleKind::PipeMoeLina,
        ScheduleKind::FsMoeNoIio,
        ScheduleKind::FsMoe,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleKind::DsMoe => "DS-MoE",
            ScheduleKind::Tutel => "Tutel",
            ScheduleKind::TutelImproved => "Tutel-Improved",
            ScheduleKind::PipeMoeLina => "PipeMoE+Lina",
            ScheduleKind::FasterMoe => "FasterMoE",
            ScheduleKind::FsMoeNoIio => "FSMoE-No-IIO",
            ScheduleKind::FsMoe => "FSMoE",
        }
    }

    /// Selects this schedule's pipeline degree for one MoE layer.
    ///
    /// * DS-MoE runs sequentially (`r = 1`).
    /// * The Tutel family runs PipeMoE's optimiser, which we realise as
    ///   an exact scan over degrees, each candidate priced by walking its
    ///   *own* op list (`scheduler::makespan`, bit-equal to simulating its
    ///   lowering) with no Gradient-AllReduce term (PipeMoE ignores it).
    /// * FSMoE-No-IIO keeps FSMoE's gradient-aware degree selection but
    ///   evaluates candidates against its own single-comm-stream
    ///   lowering (the §4.2 closed forms assume separate intra/inter
    ///   streams, which No-IIO deliberately lacks).
    /// * FSMoE runs Algorithm 1 with the layer's `t_gar`.
    pub fn pipeline_degree(self, m: &MoePerfModel) -> u32 {
        match self {
            ScheduleKind::DsMoe => 1,
            ScheduleKind::FasterMoe => 2,
            ScheduleKind::Tutel | ScheduleKind::TutelImproved | ScheduleKind::PipeMoeLina => {
                self.scan_degree(&m.with_t_gar(0.0), &[])
            }
            ScheduleKind::FsMoeNoIio => {
                let gar: Vec<f64> = if m.t_gar > 0.0 { vec![m.t_gar] } else { vec![] };
                self.scan_degree(m, &gar)
            }
            ScheduleKind::FsMoe => find_optimal_pipeline_degree(m).r,
        }
    }

    /// The degree in `1..=16` whose op list under `self` runs fastest,
    /// each candidate walked once as [`crate::simulate_layer`] walks it,
    /// in one list refilled per candidate; ties (and
    /// incomparable makespans) keep the lowest degree, as
    /// `Iterator::min_by` does.
    fn scan_degree(self, m: &MoePerfModel, gar: &[f64]) -> u32 {
        let mut ops = Vec::new();
        let mut walk = |r| {
            ops.clear();
            self.extend_layer_ops(&mut ops, r, gar.len());
            makespan(&ops, self.layer_prices(m, r, gar))
        };
        let mut best = (1u32, walk(1));
        for r in 2..=16u32 {
            let t = walk(r);
            if t < best.1 {
                best = (r, t);
            }
        }
        best.0
    }
}

impl std::fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scheduler::Phase;
    use simnet::Testbed;

    fn model(n_a2a: f64, n_exp: f64, t_gar: f64) -> MoePerfModel {
        MoePerfModel::new(
            &Testbed::b().costs,
            n_a2a,
            n_a2a,
            n_a2a,
            n_exp,
            2,
            Phase::Backward,
            t_gar,
        )
    }

    #[test]
    fn ds_moe_never_pipelines() {
        assert_eq!(
            ScheduleKind::DsMoe.pipeline_degree(&model(1e7, 1e11, 0.0)),
            1
        );
    }

    #[test]
    fn tutel_pipelines_balanced_configs() {
        let r = ScheduleKind::Tutel.pipeline_degree(&model(8.0e6, 4.0e10, 0.0));
        assert!(r > 1, "r = {r}");
    }

    #[test]
    fn faster_moe_is_pinned_to_two_chunks() {
        for cfg in [model(1e5, 1e12, 0.0), model(5e7, 1e6, 0.0)] {
            assert_eq!(ScheduleKind::FasterMoe.pipeline_degree(&cfg), 2);
        }
        assert_eq!(ScheduleKind::FasterMoe.name(), "FasterMoE");
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = ScheduleKind::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "DS-MoE",
                "Tutel",
                "Tutel-Improved",
                "PipeMoE+Lina",
                "FSMoE-No-IIO",
                "FSMoE"
            ]
        );
    }
}

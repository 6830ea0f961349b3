//! Shared harness for the experiment binaries and the budget gates.
//!
//! Each table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md §3 for the index); this
//! library holds what they share: the Table 4 configuration grid and
//! the layer-level experiment runner. [`gate`] is the contract the
//! `benches/*.rs` budget gates share; [`brownout`] is the gray-failure
//! scenario the `health` gate and the `gray_failure` example both run.

pub mod brownout;
pub mod gate;

use baselines::ScheduleKind;
use collectives::ParallelDims;
use fsmoe::config::{FfnKind, MoeConfig};
use fsmoe::spec::MoeLayerSpec;
use models::iteration::{build_iteration_graph, plan_iteration};
use models::layerspec::TransformerLayerSpec;
use scheduler::{find_optimal_pipeline_degree, MoePerfModel, Phase};
use simnet::{Engine, Testbed};

/// One point of the Table 4 configuration grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// Samples per GPU.
    pub batch: usize,
    /// Attention heads.
    pub heads: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Embedding size.
    pub embed: usize,
    /// `H = hscale · M`.
    pub hscale: usize,
    /// Capacity factor; `None` is the paper's `f = *`.
    pub f: Option<f64>,
    /// Expert type.
    pub ffn: FfnKind,
}

impl GridConfig {
    /// The MoE layer config of this grid point on a testbed (experts =
    /// nodes, k = 2, as in §6.3/§6.4).
    ///
    /// # Errors
    ///
    /// Propagates config validation errors.
    pub fn moe_config(&self, testbed: &Testbed) -> fsmoe::Result<MoeConfig> {
        let mut b = MoeConfig::builder();
        b.batch_size(self.batch)
            .seq_len(self.seq_len)
            .embed_dim(self.embed)
            .hidden_dim(self.embed * self.hscale)
            .num_experts(testbed.nodes)
            .top_k(2.min(testbed.nodes))
            .ffn(self.ffn);
        match self.f {
            Some(f) => {
                b.capacity_factor(f);
            }
            None => {
                b.no_drop();
            }
        }
        b.build()
    }

    /// The transformer-layer spec of this grid point.
    ///
    /// # Errors
    ///
    /// Propagates config validation errors.
    pub fn layer_spec(&self, testbed: &Testbed) -> fsmoe::Result<TransformerLayerSpec> {
        let cfg = self.moe_config(testbed)?;
        let dims = ParallelDims {
            dp: testbed.nodes,
            mp: testbed.gpus_per_node,
            ep: testbed.nodes,
            esp: testbed.gpus_per_node,
        };
        Ok(TransformerLayerSpec::new(&cfg, dims, self.heads))
    }
}

/// The full 1458-point grid of Table 4. `L` candidates differ per
/// testbed (the 2080 Ti memory limit): `{512, 1024, 2048}` on A,
/// `{256, 512, 1024}` on B.
pub fn table4_grid(testbed: &Testbed) -> Vec<GridConfig> {
    let seq_lens: [usize; 3] = match testbed.kind {
        simnet::TestbedKind::A => [512, 1024, 2048],
        simnet::TestbedKind::B => [256, 512, 1024],
    };
    let mut grid = Vec::with_capacity(1458);
    for &batch in &[1usize, 2, 4] {
        for &heads in &[8usize, 16, 32] {
            for &seq_len in &seq_lens {
                for &embed in &[1024usize, 2048, 4096] {
                    for &hscale in &[2usize, 3, 4] {
                        for &f in &[Some(1.2), Some(2.4), None] {
                            for &ffn in &[FfnKind::Gpt, FfnKind::Mixtral] {
                                grid.push(GridConfig {
                                    batch,
                                    heads,
                                    seq_len,
                                    embed,
                                    hscale,
                                    f,
                                    ffn,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    grid
}

/// Simulated time of a configured-layer stack (forward + backward +
/// gradient aggregation, as in the Table 5 experiment) under `kind`.
///
/// A short stack of four identical layers is used rather than a single
/// layer so the gradient-overlap policies have generalized-layer
/// windows to work with (the paper's configured-layer runs likewise add
/// the gradient aggregation to the measurement).
pub fn configured_layer_time(
    kind: ScheduleKind,
    testbed: &Testbed,
    spec: &TransformerLayerSpec,
) -> f64 {
    let plan = plan_iteration(kind, &testbed.costs, spec, 4);
    let (graph, _) = build_iteration_graph(&plan);
    Engine::new()
        .simulate(&graph)
        .expect("builder graphs simulate")
        .makespan()
}

/// The §4.2 performance model of one MoE layer spec in `phase`, with
/// `t_gar` of Gradient-AllReduce to hide.
pub fn perf_model(
    testbed: &Testbed,
    spec: &MoeLayerSpec,
    phase: Phase,
    t_gar: f64,
) -> MoePerfModel {
    MoePerfModel::new(
        &testbed.costs,
        spec.n_a2a,
        spec.n_ag,
        spec.n_rs,
        spec.n_exp,
        spec.gemms,
        phase,
        t_gar,
    )
}

/// The forward/backward optimal pipeline degrees of a layer spec (the
/// §2.3 "912 of 1458 differ" statistic).
pub fn fwd_bwd_degrees(testbed: &Testbed, spec: &MoeLayerSpec) -> (u32, u32) {
    let degree = |phase| find_optimal_pipeline_degree(&perf_model(testbed, spec, phase, 0.0)).r;
    (degree(Phase::Forward), degree(Phase::Backward))
}

/// The five schedules the end-to-end figures (6–8) compare to DS-MoE.
pub const SPEEDUP_SCHEDULES: [ScheduleKind; 5] = [
    ScheduleKind::Tutel,
    ScheduleKind::TutelImproved,
    ScheduleKind::PipeMoeLina,
    ScheduleKind::FsMoeNoIio,
    ScheduleKind::FsMoe,
];

/// Prints the header of a speedup-over-DS-MoE table whose first column
/// is titled `first`.
pub fn print_speedup_header(first: &str) {
    print!("{first:<14} {:>12}", "DS-MoE(ms)");
    for s in &SPEEDUP_SCHEDULES {
        print!(" {:>14}", s.name());
    }
    println!();
}

/// Prints one row of that table: DS-MoE's time from `time_of`, then
/// every other schedule's speedup over it.
pub fn print_speedup_row(label: &str, time_of: impl Fn(ScheduleKind) -> f64) {
    let ds = time_of(ScheduleKind::DsMoe);
    print!("{label:<14} {ds:>12.1}");
    for &s in &SPEEDUP_SCHEDULES {
        print!(" {:>13.2}x", ds / time_of(s));
    }
    println!();
}

/// Geometric mean (the right average for speedups).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_exactly_1458_points() {
        assert_eq!(table4_grid(&Testbed::a()).len(), 1458);
        assert_eq!(table4_grid(&Testbed::b()).len(), 1458);
    }

    #[test]
    fn grids_differ_in_seq_lens_only() {
        let a = table4_grid(&Testbed::a());
        let b = table4_grid(&Testbed::b());
        assert!(a.iter().any(|c| c.seq_len == 2048));
        assert!(!b.iter().any(|c| c.seq_len == 2048));
        assert!(b.iter().any(|c| c.seq_len == 256));
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn configured_layer_runs_all_schedules() {
        let tb = Testbed::b();
        let cfg = GridConfig {
            batch: 1,
            heads: 8,
            seq_len: 256,
            embed: 1024,
            hscale: 2,
            f: Some(1.2),
            ffn: FfnKind::Gpt,
        };
        let spec = cfg.layer_spec(&tb).unwrap();
        let mut last = f64::INFINITY;
        for kind in [
            ScheduleKind::DsMoe,
            ScheduleKind::Tutel,
            ScheduleKind::FsMoe,
        ] {
            let t = configured_layer_time(kind, &tb, &spec);
            assert!(t.is_finite() && t > 0.0);
            assert!(t <= last * 1.01, "{kind} regressed: {t} vs {last}");
            last = t;
        }
    }

    #[test]
    fn degrees_are_valid() {
        let tb = Testbed::a();
        let cfg = &table4_grid(&tb)[700];
        let spec = cfg.layer_spec(&tb).unwrap();
        let (f, b) = fwd_bwd_degrees(&tb, &spec.moe);
        assert!(f >= 1 && b >= 1);
    }
}

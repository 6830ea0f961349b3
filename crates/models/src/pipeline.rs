//! GPipe pipeline parallelism (Fig. 8's `N_PP = 2` experiment).
//!
//! The paper enables PP with GPipe \[15\]: the layer stack is split into
//! `N_PP` stages placed on disjoint sub-clusters, the batch is split
//! into micro-batches, all forwards run, then all backwards (the GPipe
//! flush). Each stage×micro-batch cell is priced by sub-simulating the
//! per-schedule iteration plan on the stage's layers, and the pipeline
//! timeline itself is then simulated with inter-stage activation
//! transfers on a point-to-point link.

use baselines::ScheduleKind;
use scheduler::Phase;
use simnet::{Engine, TaskGraph, Testbed};

use crate::iteration::plan_iteration;
use crate::presets::ModelPreset;

/// One training iteration under GPipe with `n_pp` stages and
/// `micro_batches` micro-batches (the sequence is split across
/// micro-batches), ms.
///
/// # Errors
///
/// Returns configuration errors when the model does not divide across
/// stages or micro-batches.
pub fn gpipe_iteration_time(
    kind: ScheduleKind,
    testbed: &Testbed,
    preset: &ModelPreset,
    n_pp: usize,
    micro_batches: usize,
) -> fsmoe::Result<f64> {
    if n_pp == 0 || !preset.layers.is_multiple_of(n_pp) {
        return Err(fsmoe::MoeError::BadConfig {
            field: "n_pp",
            reason: format!("{} layers not divisible by {n_pp} stages", preset.layers),
        });
    }
    if micro_batches == 0 || !preset.seq_len.is_multiple_of(micro_batches) {
        return Err(fsmoe::MoeError::BadConfig {
            field: "micro_batches",
            reason: format!(
                "seq_len {} not divisible by {micro_batches} micro-batches",
                preset.seq_len
            ),
        });
    }
    let stage_nodes = (testbed.nodes / n_pp).max(1);
    let stage_testbed = testbed.with_nodes(stage_nodes);
    let micro = preset.clone().with_seq_len(preset.seq_len / micro_batches);
    let layers_per_stage = preset.layers / n_pp;

    // One plan per stage; one walk of its step gives the two GPipe
    // waves: where the forward segments end, then the rest.
    let spec = micro.layer_spec(&stage_testbed)?;
    let plan = plan_iteration(kind, &stage_testbed.costs, &spec, layers_per_stage);
    let (fwd, total) = plan.walk().fold((0.0, 0.0), |(fwd, _), (seg, t)| {
        (if seg.phase == Phase::Forward { t } else { fwd }, t)
    });
    let bwd = (total - fwd).max(0.0);
    // activation transfer: tokens × M × 4 bytes / MP shard over the
    // inter-node link
    let dims = ModelPreset::dims_for(&stage_testbed);
    let bytes = (micro.batch_size * micro.seq_len * micro.embed_dim) as f64 * 4.0 / dims.mp as f64;
    let transfer = stage_testbed.costs.a2a.time(bytes);

    // Build the GPipe timeline: per-stage compute resources + p2p links.
    let mut graph = TaskGraph::new();
    let stages: Vec<_> = (0..n_pp)
        .map(|s| graph.add_resource(format!("stage{s}")))
        .collect();
    let links: Vec<_> = (0..n_pp.saturating_sub(1))
        .map(|s| graph.add_resource(format!("link{s}")))
        .collect();

    // forward wave
    let mut fwd_done = vec![vec![None; micro_batches]; n_pp];
    #[expect(
        clippy::needless_range_loop,
        reason = "j indexes two different stage rows of fwd_done, so enumerate cannot replace it"
    )]
    for j in 0..micro_batches {
        for s in 0..n_pp {
            let mut deps: Vec<simnet::TaskId> = Vec::new();
            if s > 0 {
                let xfer = graph.add_task(
                    format_args!("x{s}.{j}"),
                    links[s - 1],
                    transfer,
                    &[fwd_done[s - 1][j].expect("previous stage scheduled")],
                );
                deps.push(xfer);
            }
            let t = graph.add_task(format_args!("f{s}.{j}"), stages[s], fwd, &deps);
            fwd_done[s][j] = Some(t);
        }
    }
    // backward wave (reverse stage order), after the flush
    let mut bwd_prev: Vec<Option<simnet::TaskId>> = vec![None; n_pp];
    for j in 0..micro_batches {
        for s in (0..n_pp).rev() {
            let mut deps = vec![fwd_done[s][micro_batches - 1].expect("forward scheduled")];
            if s + 1 < n_pp {
                let xfer = graph.add_task(
                    format_args!("gx{s}.{j}"),
                    links[s],
                    transfer,
                    &[bwd_prev[s + 1].expect("downstream backward scheduled")],
                );
                deps.push(xfer);
            }
            let t = graph.add_task(format_args!("b{s}.{j}"), stages[s], bwd, &deps);
            bwd_prev[s] = Some(t);
        }
    }

    let timeline = Engine::new().simulate(&graph);
    Ok(timeline.expect("simulate cannot fail").makespan())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn preset() -> ModelPreset {
        ModelPreset::gpt2_xl_moe().with_layers(4).with_seq_len(512)
    }

    #[test]
    fn gpipe_ordering_matches_schedules() {
        let tb = Testbed::a();
        let ds = gpipe_iteration_time(ScheduleKind::DsMoe, &tb, &preset(), 2, 4).unwrap();
        let fs = gpipe_iteration_time(ScheduleKind::FsMoe, &tb, &preset(), 2, 4).unwrap();
        assert!(fs < ds, "FSMoE {fs} vs DS-MoE {ds} under PP");
    }

    #[test]
    fn micro_batching_helps_once_work_amortises_startup() {
        // with enough work per micro-batch the bubble saving beats the
        // extra per-op startup costs; with too little it does not — both
        // regimes are physical
        let tb = Testbed::a();
        let big = ModelPreset::gpt2_xl_moe().with_layers(4).with_seq_len(2048);
        let t1 = gpipe_iteration_time(ScheduleKind::FsMoe, &tb, &big, 2, 1).unwrap();
        let t2 = gpipe_iteration_time(ScheduleKind::FsMoe, &tb, &big, 2, 2).unwrap();
        assert!(t2 < t1, "{t2} !< {t1}");

        let small = ModelPreset::gpt2_xl_moe().with_layers(4).with_seq_len(512);
        let s1 = gpipe_iteration_time(ScheduleKind::FsMoe, &tb, &small, 2, 1).unwrap();
        let s8 = gpipe_iteration_time(ScheduleKind::FsMoe, &tb, &small, 2, 8).unwrap();
        assert!(s8 > s1, "startup-dominated micro-batching should lose");
    }

    #[test]
    fn single_stage_equals_plain_iteration_roughly() {
        let tb = Testbed::a();
        let p = preset();
        let pp = gpipe_iteration_time(ScheduleKind::Tutel, &tb, &p, 1, 1).unwrap();
        let flat = crate::iteration::iteration_time(ScheduleKind::Tutel, &tb, &p).unwrap();
        assert!((pp - flat).abs() / flat < 0.05, "pp {pp} vs flat {flat}");
    }

    #[test]
    fn validation_errors() {
        let tb = Testbed::a();
        let p = preset(); // 4 layers
        assert!(gpipe_iteration_time(ScheduleKind::FsMoe, &tb, &p, 3, 2).is_err());
        assert!(gpipe_iteration_time(ScheduleKind::FsMoe, &tb, &p, 2, 0).is_err());
        assert!(gpipe_iteration_time(ScheduleKind::FsMoe, &tb, &p, 0, 2).is_err());
    }
}

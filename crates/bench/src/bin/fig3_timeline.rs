//! Fig. 3: the four backpropagation schedules as ASCII Gantt charts,
//! pipeline degree r = 4 —
//! (a) the default sequential schedule (DS-MoE),
//! (b) Tutel-Improved (Gradient-AllReduce over dense parts),
//! (c) FSMoE without gradient partitioning,
//! (d) FSMoE with gradient partitioning.
//!
//! Regenerate with `cargo run --release -p bench --bin fig3_timeline`.

use baselines::ScheduleKind;
use models::layerspec::attention_backward_time;
use models::ModelPreset;
use scheduler::{MoePerfModel, Phase, StreamSet};
use simnet::{render_gantt, Engine, TaskGraph, Testbed};

/// One backward MoE layer under `kind`, then the dense (attention
/// backward) part, with `gar_tail` overlapping it where the schedule
/// allows.
fn chart(
    title: &str,
    kind: ScheduleKind,
    (m, attn): (&MoePerfModel, f64),
    gar_in_moe: &[f64],
    gar_tail: f64,
) {
    let mut graph = TaskGraph::new();
    let streams = StreamSet::add_to(&mut graph);
    let r = if kind == ScheduleKind::DsMoe { 1 } else { 4 };
    let moe = kind.lower_layer(&mut graph, &streams, m, r, gar_in_moe, &[], "moe");
    let attn_task = graph.add_task("attn_bwd", streams.compute, attn, &[moe]);
    if gar_tail > 0.0 {
        // default schedule: GAR strictly at the end; otherwise
        // overlapped with the dense part
        let after = if kind == ScheduleKind::DsMoe {
            attn_task
        } else {
            moe
        };
        let _ = graph.add_task("gar_tail", streams.inter, gar_tail, &[after]);
    }
    let tl = Engine::new().simulate(&graph).expect("lowered graph");
    println!("### {title} (makespan {:.2} ms)", tl.makespan());
    println!("{}", render_gantt(&graph, &tl, 100));
}

fn main() {
    println!("# Fig. 3 — backpropagation schedules (r = 4, one MoE layer + dense)\n");
    let testbed = Testbed::a();
    let preset = ModelPreset::gpt2_xl_moe().with_batch_size(2);
    let spec = preset.layer_spec(&testbed).expect("valid preset");
    let m = bench::perf_model(&testbed, &spec.moe, Phase::Backward, 0.0);
    let layer = (&m, attention_backward_time(&testbed.costs, &spec));
    let gar_total = testbed.costs.all_reduce.time(6.0e6);

    chart(
        "(a) default (DS-MoE): everything sequential",
        ScheduleKind::DsMoe,
        layer,
        &[],
        gar_total,
    );
    chart(
        "(b) Tutel-Improved: PipeMoE + GAR over dense parts",
        ScheduleKind::TutelImproved,
        layer,
        &[],
        gar_total,
    );
    chart(
        "(c) FSMoE w/o gradient partitioning: IIO overlap, GAR unsplit",
        ScheduleKind::FsMoe,
        layer,
        &[],
        gar_total,
    );
    // (d): the partitioned gradient rides inside the MoE layer
    let pieces = [gar_total / 2.0, gar_total / 2.0];
    chart(
        "(d) FSMoE w/ gradient partitioning: GAR pieces behind dispatches",
        ScheduleKind::FsMoe,
        layer,
        &pieces,
        0.0,
    );

    println!(
        "paper shape check: (a) > (b) > (c) > (d) in makespan; in (d) the\n\
         inter stream shows GAR pieces packed between dispatches and combines."
    );
}

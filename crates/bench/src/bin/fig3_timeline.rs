//! Fig. 3: the four backpropagation schedules as ASCII Gantt charts,
//! pipeline degree r = 4 —
//! (a) the default sequential schedule (DS-MoE),
//! (b) Tutel-Improved (Gradient-AllReduce over dense parts),
//! (c) FSMoE without gradient partitioning,
//! (d) FSMoE with gradient partitioning.
//!
//! Regenerate with `cargo run --release -p bench --bin fig3_timeline`.

use baselines::{lower_moe_layer, ScheduleKind};
use models::layerspec::attention_backward_time;
use models::ModelPreset;
use scheduler::{MoePerfModel, Phase, StreamSet};
use simnet::{render_gantt, Engine, TaskGraph, Testbed};

fn backward_model(testbed: &Testbed, t_gar: f64) -> MoePerfModel {
    let preset = ModelPreset::gpt2_xl_moe().with_batch_size(2);
    let spec = preset.layer_spec(testbed).expect("valid preset");
    bench::perf_model(testbed, &spec.moe, Phase::Backward, t_gar)
}

fn chart(title: &str, kind: ScheduleKind, gar_in_moe: &[f64], gar_tail: f64, t_gar: f64) {
    let testbed = Testbed::a();
    let m = backward_model(&testbed, t_gar);
    let preset = ModelPreset::gpt2_xl_moe().with_batch_size(2);
    let spec = preset.layer_spec(&testbed).expect("valid preset");
    let attn = attention_backward_time(&testbed.costs, &spec);

    let mut graph = TaskGraph::new();
    let streams = StreamSet::add_to(&mut graph);
    let r = if kind == ScheduleKind::DsMoe { 1 } else { 4 };
    let lowered = lower_moe_layer(kind, &mut graph, &streams, &m, r, gar_in_moe, &[], "moe");
    // dense (attention backward) after the MoE layer, with the tail GAR
    // overlapping it where the schedule allows
    let attn_task = graph.add_task("attn_bwd", streams.compute, attn, &lowered.outputs);
    if gar_tail > 0.0 {
        let deps = if kind == ScheduleKind::DsMoe {
            vec![attn_task] // default schedule: GAR strictly at the end
        } else {
            lowered.outputs.clone() // overlapped with the dense part
        };
        let _ = graph.add_task("gar_tail", streams.inter, gar_tail, &deps);
    }
    let tl = Engine::new().simulate(&graph).expect("lowered graph");
    println!("### {title} (makespan {:.2} ms)", tl.makespan());
    println!("{}", render_gantt(&graph, &tl, 100));
}

fn main() {
    println!("# Fig. 3 — backpropagation schedules (r = 4, one MoE layer + dense)\n");
    let testbed = Testbed::a();
    let m = backward_model(&testbed, 0.0);
    let gar_total = testbed.costs.all_reduce.time(6.0e6);

    chart(
        "(a) default (DS-MoE): everything sequential",
        ScheduleKind::DsMoe,
        &[],
        gar_total,
        0.0,
    );
    chart(
        "(b) Tutel-Improved: PipeMoE + GAR over dense parts",
        ScheduleKind::Tutel,
        &[],
        gar_total,
        0.0,
    );
    chart(
        "(c) FSMoE w/o gradient partitioning: IIO overlap, GAR unsplit",
        ScheduleKind::FsMoe,
        &[],
        gar_total,
        0.0,
    );
    // (d): the partitioned gradient rides inside the MoE layer
    let pieces = [gar_total / 2.0, gar_total / 2.0];
    chart(
        "(d) FSMoE w/ gradient partitioning: GAR pieces behind dispatches",
        ScheduleKind::FsMoe,
        &pieces,
        0.0,
        gar_total,
    );

    let _ = m;
    println!(
        "paper shape check: (a) > (b) > (c) > (d) in makespan; in (d) the\n\
         inter stream shows GAR pieces packed between dispatches and combines."
    );
}

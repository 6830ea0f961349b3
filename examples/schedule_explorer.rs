//! Schedule exploration: for a model on a testbed, print each
//! schedule's pipeline degrees, gradient placement and simulated
//! iteration time, then render the FSMoE backward timeline.
//!
//! Run with `cargo run --release -p models --example schedule_explorer`.

use baselines::ScheduleKind;
use models::iteration::{iteration_time, plan_iteration};
use models::ModelPreset;
use scheduler::{lower, Op, Phase, StreamSet};
use simnet::{render_gantt, Engine, TaskGraph, Testbed};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let testbed = Testbed::b();
    let preset = ModelPreset::gpt2_xl_moe().with_seq_len(512).with_layers(6);
    let spec = preset.layer_spec(&testbed)?;

    println!(
        "# {} on {} ({} layers, L = {})\n",
        preset.name, testbed.kind, preset.layers, preset.seq_len
    );
    println!(
        "{:<16} {:>9} {:>7} {:>7} {:>14}",
        "schedule", "time(ms)", "r_fwd", "r_bwd", "GAR placement"
    );

    let ds = iteration_time(ScheduleKind::DsMoe, &testbed, &preset)?;
    for kind in ScheduleKind::ALL {
        let plan = plan_iteration(kind, &testbed.costs, &spec, preset.layers);
        let t = iteration_time(kind, &testbed, &preset)?;
        // what the segments that carry Gar pieces hold besides them
        let carries = |op: Op| {
            let mut carrying = plan.step.iter().filter(|seg| !seg.gar.is_empty());
            carrying.any(|seg| seg.ops.contains(&op))
        };
        let placement = if carries(Op::Dispatch(0)) {
            "inside MoE layers"
        } else if carries(Op::Attn) {
            "with dense parts"
        } else {
            "at the end"
        };
        println!(
            "{:<16} {:>9.1} {:>7} {:>7} {:>14}   ({:.2}x vs DS-MoE)",
            kind.name(),
            t,
            plan.r_fwd,
            plan.r_bwd[0],
            placement,
            ds / t
        );
    }

    // Render backward layer 1's MoE segment under FSMoE.
    println!("\n## FSMoE backward timeline of one MoE layer\n");
    let plan = plan_iteration(ScheduleKind::FsMoe, &testbed.costs, &spec, preset.layers);
    let moe = plan
        .step
        .iter()
        .find(|seg| seg.phase == Phase::Backward && seg.layer == 1)
        .ok_or("the plan has no second backward layer")?;
    let mut graph = TaskGraph::new();
    let streams = StreamSet::add_to(&mut graph);
    let _ = lower(&moe.ops, &mut graph, &streams, plan.prices(moe), &[], "moe");
    let timeline = Engine::new().simulate(&graph)?;
    println!("{}", render_gantt(&graph, &timeline, 100));
    Ok(())
}

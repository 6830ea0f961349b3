//! Schedule exploration: for a model on a testbed, print each
//! schedule's pipeline degrees, gradient placement and simulated
//! iteration time, then render the FSMoE backward timeline.
//!
//! Run with `cargo run --release -p models --example schedule_explorer`.

use baselines::ScheduleKind;
use models::iteration::{iteration_time, plan_iteration};
use models::ModelPreset;
use scheduler::StreamSet;
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
        let any = |pieces: &[Vec<f64>]| pieces.iter().any(|p| !p.is_empty());
        let placement = if any(&plan.gar_in_moe) {
            "inside MoE layers"
        } else if any(&plan.gar_with_dense) {
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

    // Render one backward MoE layer under FSMoE.
    println!("\n## FSMoE backward timeline of one MoE layer\n");
    let plan = plan_iteration(ScheduleKind::FsMoe, &testbed.costs, &spec, preset.layers);
    let mut graph = TaskGraph::new();
    let streams = StreamSet::add_to(&mut graph);
    let _ = ScheduleKind::FsMoe.lower_layer(
        &mut graph,
        &streams,
        &plan.bwd_models[1],
        plan.r_bwd[1],
        &plan.gar_in_moe[1],
        &[],
        "moe",
    );
    let timeline = Engine::new().simulate(&graph)?;
    println!("{}", render_gantt(&graph, &timeline, 100));
    Ok(())
}

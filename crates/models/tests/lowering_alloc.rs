//! Lowering a plan to a task graph allocates per segment, not per task:
//! a task's name is composed only when shown and its dependencies share
//! one arena, so `build_iteration_graph` makes a handful of allocations
//! where it once made two per task. Counts, never times.

use baselines::ScheduleKind;
use models::{build_iteration_graph, plan_iteration, ModelPreset};
use simnet::Testbed;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

#[test]
fn lowering_a_plan_allocates_per_segment_not_per_task() {
    // the largest Fig. 6 plan: Mixtral-22B's 33 layers on Testbed A
    let tb = Testbed::a();
    let preset = ModelPreset::mixtral_22b()
        .with_seq_len(1024)
        .with_layers(33);
    let spec = preset.layer_spec(&tb).unwrap();
    let plan = plan_iteration(ScheduleKind::FsMoe, &tb.costs, &spec, preset.layers);
    let ((graph, _), allocations, _) = counting_alloc::count(|| build_iteration_graph(&plan));
    let (tasks, segments) = (graph.len(), plan.step.len());
    let at = format!("{allocations} allocations lowering {tasks} tasks in {segments} segments");
    // two per task before names and deps went flat
    assert!(allocations < tasks as u64 / 4, "{at}");
    assert!(allocations <= segments as u64, "{at}");
}

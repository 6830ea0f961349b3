//! Fig. 4: the four scheduling cases at pipeline degree r = 2, rendered
//! as ASCII Gantt charts from the simulator.
//!
//! Regenerate with `cargo run --release -p bench --bin fig4_cases`.

use baselines::ScheduleKind;
use scheduler::{CaseId, MoePerfModel, Phase, Predicates, StreamSet};
use simnet::{render_gantt, CostModel, Engine, OpCosts, TaskGraph};

fn costs() -> OpCosts {
    OpCosts {
        gemm: CostModel::new(0.05, 1.0e-11),
        a2a: CostModel::new(0.2, 3.0e-7),
        all_gather: CostModel::new(0.05, 1.5e-7),
        reduce_scatter: CostModel::new(0.05, 1.5e-7),
        all_reduce: CostModel::new(0.1, 6.0e-7),
    }
}

fn show(title: &str, m: &MoePerfModel, gar: &[f64]) {
    const R: u32 = 2;
    let case = Predicates::evaluate(m, R).case();
    let mut graph = TaskGraph::new();
    let streams = StreamSet::add_to(&mut graph);
    let _ = ScheduleKind::FsMoe.lower_layer(&mut graph, &streams, m, R, gar, &[], "moe");
    let tl = Engine::new().simulate(&graph).expect("lowered graph");
    println!(
        "### {title} — classified {case}, makespan {:.2} ms",
        tl.makespan()
    );
    println!("{}", render_gantt(&graph, &tl, 100));
}

fn main() {
    println!("# Fig. 4 — the four pipelining cases (r = 2)\n");
    let c = costs();

    // Case 1: inter-node comm (AlltoAll + big GAR) dominates
    let m1 = MoePerfModel::new(&c, 1.0e7, 2.0e6, 2.0e6, 5.0e8, 2, Phase::Backward, 12.0);
    assert_eq!(Predicates::evaluate(&m1, 2).case(), CaseId::Case1);
    show(
        "Case 1: inter-node (AlltoAll + Gradient-AllReduce) dominates",
        &m1,
        &[12.0],
    );

    // Case 2: expert computation dominates
    let m2 = MoePerfModel::new(&c, 1.0e6, 1.0e6, 1.0e6, 3.0e11, 2, Phase::Backward, 0.0);
    assert_eq!(Predicates::evaluate(&m2, 2).case(), CaseId::Case2);
    show("Case 2: expert computations dominate", &m2, &[]);

    // Case 3: AlltoAll dominates, GAR negligible
    let m3 = MoePerfModel::new(&c, 4.0e7, 1.0e6, 1.0e6, 1.0e8, 2, Phase::Backward, 0.0);
    assert_eq!(Predicates::evaluate(&m3, 2).case(), CaseId::Case3);
    show("Case 3: AlltoAll dominates", &m3, &[]);

    // Case 4: intra-node AG/RS dominate
    let slow_intra = OpCosts {
        all_gather: CostModel::new(0.05, 3.0e-6),
        reduce_scatter: CostModel::new(0.05, 3.0e-6),
        ..c
    };
    let m4 = MoePerfModel::new(
        &slow_intra,
        4.0e6,
        4.0e6,
        4.0e6,
        1.0e8,
        2,
        Phase::Backward,
        0.0,
    );
    assert_eq!(Predicates::evaluate(&m4, 2).case(), CaseId::Case4);
    show(
        "Case 4: intra-node (AllGather/ReduceScatter) dominates",
        &m4,
        &[],
    );

    println!(
        "paper shape check: the saturated stream per chart matches the case\n\
         label (inter / compute / inter / intra respectively)."
    );
}

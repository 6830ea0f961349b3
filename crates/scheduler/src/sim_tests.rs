//! The §4.2 closed forms and Algorithm 1 against the simulated schedule.
//!
//! Test-only, and mounted as `lowering` (see `lib.rs`): the suite has
//! printed these tests as `lowering::tests::*` since the module of that
//! name held the FSMoE builder, and the names outlive it.

mod tests {
    use crate::cases::{t_moe, CaseId};
    use crate::optimize::find_optimal_pipeline_degree;
    use crate::perf::{MoePerfModel, Phase};
    use crate::schedule::{lower, moe_layer, StreamSet};
    use simnet::{CostModel, Engine, OpCosts, TaskGraph, TaskId};

    fn costs() -> OpCosts {
        OpCosts {
            gemm: CostModel::new(0.05, 1.0e-11),
            a2a: CostModel::new(0.2, 3.0e-7),
            all_gather: CostModel::new(0.05, 1.5e-7),
            reduce_scatter: CostModel::new(0.05, 1.5e-7),
            all_reduce: CostModel::new(0.1, 6.0e-7),
        }
    }

    /// FSMoE's order at degree `r`, priced by `m`; the tasks are in
    /// `moe_layer(true, r, gar.len())` order.
    fn lower_fsmoe(
        g: &mut TaskGraph,
        s: &StreamSet,
        m: &MoePerfModel,
        r: u32,
        gar: &[f64],
        deps: &[TaskId],
    ) {
        let mut ops = Vec::new();
        moe_layer(&mut ops, true, r, gar.len());
        let _ = lower(&ops, g, s, m.op_ms(r, 0.0, gar), deps, "moe");
    }

    fn simulate(m: &MoePerfModel, r: u32, gar: &[f64]) -> f64 {
        let mut g = TaskGraph::new();
        let s = StreamSet::add_to(&mut g);
        lower_fsmoe(&mut g, &s, m, r, gar, &[]);
        Engine::new().simulate(&g).unwrap().makespan()
    }

    #[test]
    fn case2_simulation_matches_closed_form() {
        // expert-dominated
        let m = MoePerfModel::new(
            &costs(),
            1.0e5,
            1.0e5,
            1.0e5,
            1.0e12,
            2,
            Phase::Forward,
            0.0,
        );
        for r in [1u32, 2, 4, 8] {
            let (formula, case) = t_moe(&m, r);
            assert_eq!(case, CaseId::Case2);
            let sim = simulate(&m, r, &[]);
            assert!(
                (sim - formula).abs() / formula < 0.01,
                "r={r}: sim {sim} vs formula {formula}"
            );
        }
    }

    #[test]
    fn case3_simulation_bounded_by_closed_form() {
        // AlltoAll-dominated: the paper's t3 = 2r·t_a2a + t_ag + t_rs is
        // a (slightly conservative) upper bound on the simulated makespan
        let m = MoePerfModel::new(&costs(), 5.0e7, 1.0e6, 1.0e6, 1.0e6, 2, Phase::Forward, 0.0);
        for r in [2u32, 4, 8] {
            let (formula, case) = t_moe(&m, r);
            assert_eq!(case, CaseId::Case3);
            let sim = simulate(&m, r, &[]);
            assert!(sim <= formula + 1e-9, "r={r}: sim {sim} > t3 {formula}");
            assert!(
                sim >= 2.0 * f64::from(r) * m.t_a2a(r) - 1e-9,
                "inter-node busy time is a lower bound"
            );
        }
    }

    #[test]
    fn case1_simulation_matches_closed_form() {
        // Gradient-AllReduce dominated backward
        let m = MoePerfModel::new(
            &costs(),
            2.0e6,
            2.0e6,
            2.0e6,
            1.0e8,
            2,
            Phase::Backward,
            50.0,
        );
        let r = 2;
        let (formula, case) = t_moe(&m, r);
        assert_eq!(case, CaseId::Case1);
        let sim = simulate(&m, r, &[50.0]);
        assert!(
            (sim - formula).abs() / formula < 0.05,
            "sim {sim} vs t1 {formula}"
        );
    }

    #[test]
    fn case4_simulation_matches_closed_form() {
        let mut c = costs();
        c.all_gather = CostModel::new(0.05, 3.0e-6);
        c.reduce_scatter = CostModel::new(0.05, 3.0e-6);
        let m = MoePerfModel::new(&c, 4.0e6, 4.0e6, 4.0e6, 1.0e6, 2, Phase::Forward, 0.0);
        for r in [2u32, 4] {
            let (formula, case) = t_moe(&m, r);
            assert_eq!(case, CaseId::Case4);
            let sim = simulate(&m, r, &[]);
            assert!(
                (sim - formula).abs() / formula < 0.05,
                "r={r}: sim {sim} vs t4 {formula}"
            );
        }
    }

    #[test]
    fn optimizer_choice_is_near_simulated_best() {
        for (n_a2a, n_exp, gar) in [
            (2.0e6, 1.0e9, 0.0),
            (8.0e6, 4.0e10, 0.0),
            (2.0e6, 1.0e9, 10.0),
            (3.0e7, 1.0e8, 2.0),
        ] {
            let m = MoePerfModel::new(
                &costs(),
                n_a2a,
                n_a2a,
                n_a2a,
                n_exp,
                2,
                Phase::Backward,
                gar,
            );
            let gar_vec: Vec<f64> = if gar > 0.0 { vec![gar] } else { vec![] };
            let chosen = find_optimal_pipeline_degree(&m);
            let sim_chosen = simulate(&m, chosen.r, &gar_vec);
            let sim_best = (1..=16u32)
                .map(|r| simulate(&m, r, &gar_vec))
                .fold(f64::INFINITY, f64::min);
            // the closed forms are conservative around case crossovers
            // (t3 counts a lead-out the simulator can hide), so allow a
            // modest model-vs-simulation gap
            assert!(
                sim_chosen <= sim_best * 1.20 + 1e-9,
                "chosen r={} gives {sim_chosen}, best sim {sim_best} \
                 (n_a2a={n_a2a}, n_exp={n_exp}, gar={gar})",
                chosen.r
            );
        }
    }

    #[test]
    fn gar_pieces_share_the_inter_link() {
        // total inter-link busy time includes the GAR pieces — they
        // cannot overlap the AlltoAlls on the same link
        let m = MoePerfModel::new(
            &costs(),
            4.0e6,
            4.0e6,
            4.0e6,
            1.0e8,
            2,
            Phase::Backward,
            0.0,
        );
        let mut g = TaskGraph::new();
        let s = StreamSet::add_to(&mut g);
        let r = 2;
        lower_fsmoe(&mut g, &s, &m, r, &[3.0, 4.0], &[]);
        let tl = Engine::new().simulate(&g).unwrap();
        let expected_busy = 2.0 * f64::from(r) * m.t_a2a(r) + 7.0;
        assert!((tl.busy_time(s.inter) - expected_busy).abs() < 1e-9);
    }

    #[test]
    fn deps_gate_the_layer() {
        let m = MoePerfModel::new(&costs(), 1.0e6, 1.0e6, 1.0e6, 1.0e8, 2, Phase::Forward, 0.0);
        let mut g = TaskGraph::new();
        let s = StreamSet::add_to(&mut g);
        let gate = g.add_task("attn", s.compute, 5.0, &[]);
        lower_fsmoe(&mut g, &s, &m, 2, &[], &[gate]);
        let first = g.ids().nth(1).expect("the layer's first task");
        assert_eq!(g.name(first).to_string(), "moe.D0");
        assert_eq!(g.deps(first), [gate]);
        let tl = Engine::new().simulate(&g).unwrap();
        assert!(tl.span(first).start >= 5.0);
    }

    #[test]
    fn exhaustive_and_lowering_use_same_perf_model() {
        // sanity: r = 1 simulated time equals the sequential formula
        let m = MoePerfModel::new(&costs(), 2.0e6, 2.0e6, 2.0e6, 1.0e9, 2, Phase::Forward, 0.0);
        let sim = simulate(&m, 1, &[]);
        assert!((sim - m.sequential_time()).abs() < 1e-9);
        let _ = find_optimal_pipeline_degree(&m);
    }
}

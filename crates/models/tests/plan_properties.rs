//! Property-based tests over iteration planning: every schedule's plan
//! must be well-formed and gradient-conserving for random layer shapes.

use baselines::ScheduleKind;
use collectives::ParallelDims;
use fsmoe::config::{FfnKind, MoeConfig};
use models::iteration::{build_iteration_graph, plan_iteration};
use models::layerspec::TransformerLayerSpec;
use proptest::prelude::*;
use scheduler::Phase;
use simnet::{Engine, Testbed};

fn spec_for(
    testbed: &Testbed,
    batch: usize,
    seq: usize,
    embed_pow: u32,
    hscale: usize,
    ffn: FfnKind,
) -> TransformerLayerSpec {
    let embed = 2usize.pow(embed_pow);
    let cfg = MoeConfig::builder()
        .batch_size(batch)
        .seq_len(seq)
        .embed_dim(embed)
        .hidden_dim(embed * hscale)
        .num_experts(testbed.nodes)
        .top_k(2.min(testbed.nodes))
        .capacity_factor(1.2)
        .ffn(ffn)
        .build()
        .expect("valid generated config");
    let dims = ParallelDims {
        dp: testbed.nodes,
        mp: testbed.gpus_per_node,
        ep: testbed.nodes,
        esp: testbed.gpus_per_node,
    };
    TransformerLayerSpec::new(&cfg, dims, 16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn plans_are_well_formed_and_simulate(
        batch in 1usize..4,
        seq in prop::sample::select(vec![128usize, 256, 512]),
        embed_pow in 9u32..12,
        hscale in 2usize..4,
        mixtral in any::<bool>(),
        layers in 1usize..6,
        testbed_a in any::<bool>(),
    ) {
        let testbed = if testbed_a { Testbed::a() } else { Testbed::b() };
        let ffn = if mixtral { FfnKind::Mixtral } else { FfnKind::Gpt };
        let spec = spec_for(&testbed, batch, seq, embed_pow, hscale, ffn);

        let mut makespans = Vec::new();
        for kind in ScheduleKind::ALL {
            let plan = plan_iteration(kind, &testbed.costs, &spec, layers);
            // structural well-formedness
            prop_assert_eq!(plan.layers, layers);
            prop_assert_eq!(plan.bwd_models.len(), layers);
            prop_assert_eq!(plan.r_bwd.len(), layers);
            prop_assert!(plan.r_fwd >= 1 && plan.r_fwd <= 64);
            prop_assert!(plan.r_bwd.iter().all(|&r| (1..=64).contains(&r)));
            prop_assert!(plan.attn_fwd > 0.0 && plan.attn_bwd > plan.attn_fwd);

            // the gradient never disappears: total GAR time prices at
            // least one AllReduce of all the dense bytes
            let total_gar: f64 = plan.step.iter().flat_map(|seg| &seg.gar).sum();
            let floor = testbed
                .costs
                .all_reduce
                .time(spec.dense_param_bytes * layers as f64)
                - testbed.costs.all_reduce.alpha * (layers as f64 - 1.0).max(0.0);
            prop_assert!(
                total_gar >= floor.min(testbed.costs.all_reduce.time(spec.dense_param_bytes)) * 0.5,
                "{kind}: gar {total_gar} below floor {floor}"
            );

            // and the lowered graph simulates to a finite makespan, the
            // walk of the step's to the last bit
            let (graph, _) = build_iteration_graph(&plan);
            let tl = Engine::new().simulate(&graph).unwrap();
            prop_assert!(tl.makespan().is_finite() && tl.makespan() > 0.0);
            prop_assert_eq!(plan.makespan().to_bits(), tl.makespan().to_bits());
            let mut forward = plan.clone();
            forward.step.retain(|seg| seg.phase == Phase::Forward);
            let (graph, _) = build_iteration_graph(&forward);
            let fwd = Engine::new().simulate(&graph).unwrap().makespan();
            prop_assert_eq!(forward.makespan().to_bits(), fwd.to_bits());
            makespans.push((kind, tl.makespan()));
        }

        // FSMoE never loses to DS-MoE on any random configuration
        let ds = makespans[0].1;
        let fsmoe = makespans[5].1;
        prop_assert!(
            fsmoe <= ds * 1.001,
            "FSMoE {fsmoe} vs DS-MoE {ds} on random config"
        );
    }
}

//! Cross-crate integration tests: the contracts that hold the whole
//! reproduction together.
//!
//! 1. **Schedules are pure timing transforms** — the data plane computes
//!    identical numbers regardless of ordering implementation, dispatch
//!    algorithm, or distribution.
//! 2. **The profiling → fitting → optimisation pipeline closes** — cost
//!    models recovered by the online profiler drive Algorithm 1 to the
//!    same decisions as the ground-truth models.
//! 3. **End-to-end schedule ordering holds on both testbeds** — the
//!    paper's headline result, FSMoE ≥ every baseline.

use baselines::ScheduleKind;
use collectives::{run_ranks, Communicator, HybridTopology, ParallelDims};
use fsmoe::config::{FfnKind, MoeConfig};
use fsmoe::layer::MoeLayer;
use models::iteration::iteration_time;
use models::{ModelPreset, MoeTransformer};
use profiler::microbench::profile_testbed;
use scheduler::{find_optimal_pipeline_degree, MoePerfModel, Phase};
use simnet::{OpCosts, Testbed};
use tensor::{Tensor, TensorRng};

type GateBuilder = fn(&MoeConfig, &Communicator, &HybridTopology, u64) -> fsmoe::Result<MoeLayer>;

/// The layer over a one-rank world: local execution.
fn local(build: GateBuilder, cfg: &MoeConfig, seed: u64) -> MoeLayer {
    let topo = HybridTopology::flat(1).expect("one rank");
    build(cfg, &Communicator::solo(), &topo, seed).expect("layer")
}

/// The paper's Fig. 2 topology: 4 GPUs, all four dims = 2.
fn fig2_topology() -> HybridTopology {
    let dims = ParallelDims {
        dp: 2,
        mp: 2,
        ep: 2,
        esp: 2,
    };
    HybridTopology::new(2, 2, dims).expect("valid dims")
}

fn small_config() -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(12)
        .embed_dim(16)
        .hidden_dim(32)
        .num_experts(4)
        .top_k(2)
        .no_drop()
        .build()
        .expect("valid test config")
}

#[test]
fn data_plane_is_schedule_invariant() {
    // the same layer, same weights, same input — outputs must agree for
    // every gate across repeated runs and for both orderings (covered in
    // unit tests) and, here, between local and distributed execution
    let cfg = MoeConfig::builder()
        .batch_size(1)
        .seq_len(8)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(2)
        .top_k(1)
        .no_drop()
        .build()
        .expect("valid");
    let seed = 77u64;

    let mut reference = local(MoeLayer::gshard, &cfg, seed);
    let mut route_rng = TensorRng::seed_from(0);
    let expected: Vec<Tensor> = (0..4)
        .map(|r| {
            let mut drng = TensorRng::seed_from(300 + r);
            let x = drng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
            reference.forward(&x, &mut route_rng).expect("forward")
        })
        .collect();

    let cfg2 = cfg.clone();
    let outputs = run_ranks(4, move |comm| {
        let topo = fig2_topology();
        let mut layer = MoeLayer::gshard(&cfg2, &comm, &topo, seed).expect("layer");
        let mut drng = TensorRng::seed_from(300 + comm.rank() as u64);
        let x = drng.normal(&[cfg2.tokens(), cfg2.embed_dim], 0.0, 1.0);
        let mut rrng = TensorRng::seed_from(0);
        layer.forward(&x, &mut rrng).expect("forward")
    });
    for (rank, (got, want)) in outputs.iter().zip(&expected).enumerate() {
        assert!(
            got.allclose(want, 1e-4),
            "rank {rank}: distributed output diverged from reference"
        );
    }
}

#[test]
fn profiled_models_drive_the_optimizer_like_truth() {
    for testbed in [Testbed::a(), Testbed::b()] {
        let profiles = profile_testbed(&testbed, 0.01, 9);
        let fitted = OpCosts {
            gemm: profiles[0].fitted.model,
            a2a: profiles[1].fitted.model,
            all_gather: profiles[2].fitted.model,
            reduce_scatter: profiles[3].fitted.model,
            all_reduce: profiles[4].fitted.model,
        };
        for (n_a2a, n_exp) in [(2.0e6, 1.0e9), (8.0e6, 4.0e10), (3.0e7, 2.0e9)] {
            let truth = MoePerfModel::new(
                &testbed.costs,
                n_a2a,
                n_a2a,
                n_a2a,
                n_exp,
                2,
                Phase::Backward,
                1.0,
            );
            let estimated =
                MoePerfModel::new(&fitted, n_a2a, n_a2a, n_a2a, n_exp, 2, Phase::Backward, 1.0);
            let s_truth = find_optimal_pipeline_degree(&truth);
            let s_est = find_optimal_pipeline_degree(&estimated);
            // 1% profiling jitter must not change the predicted time by
            // more than a few percent (degrees may differ by one step
            // near ties)
            let rel = (s_est.t_moe - s_truth.t_moe).abs() / s_truth.t_moe;
            assert!(
                rel < 0.05,
                "{}: predicted times diverged by {rel} at ({n_a2a}, {n_exp})",
                testbed.kind
            );
        }
    }
}

#[test]
fn end_to_end_schedule_ordering_on_both_testbeds() {
    for testbed in [Testbed::a(), Testbed::b()] {
        let preset = ModelPreset::gpt2_xl_moe().with_seq_len(256).with_layers(4);
        let t = |k: ScheduleKind| iteration_time(k, &testbed, &preset).expect("valid preset");
        let ds = t(ScheduleKind::DsMoe);
        let tutel = t(ScheduleKind::Tutel);
        let improved = t(ScheduleKind::TutelImproved);
        let lina = t(ScheduleKind::PipeMoeLina);
        let noiio = t(ScheduleKind::FsMoeNoIio);
        let fsmoe = t(ScheduleKind::FsMoe);

        assert!(tutel <= ds * 1.001, "{}: Tutel vs DS", testbed.kind);
        assert!(
            improved <= tutel * 1.001,
            "{}: Improved vs Tutel",
            testbed.kind
        );
        assert!(lina <= tutel * 1.001, "{}: Lina vs Tutel", testbed.kind);
        assert!(
            noiio <= improved * 1.01,
            "{}: NoIIO vs Improved",
            testbed.kind
        );
        assert!(fsmoe <= noiio * 1.001, "{}: FSMoE vs NoIIO", testbed.kind);
        // and the headline: a real gap over the strongest baseline trio
        assert!(
            fsmoe < tutel * 0.98,
            "{}: FSMoE should clearly beat Tutel ({fsmoe} vs {tutel})",
            testbed.kind
        );
    }
}

#[test]
fn mixtral_and_gpt_experts_both_train_distributed() {
    for ffn in [FfnKind::Gpt, FfnKind::Mixtral] {
        let cfg = MoeConfig::builder()
            .batch_size(1)
            .seq_len(8)
            .embed_dim(8)
            .hidden_dim(16)
            .num_experts(2)
            .top_k(1)
            .no_drop()
            .ffn(ffn)
            .build()
            .expect("valid");
        let results = run_ranks(4, move |comm| {
            let topo = fig2_topology();
            let mut model =
                MoeTransformer::new(&cfg, None, 1, &comm, &topo, 5).expect("configured layer");
            let mut drng = TensorRng::seed_from(comm.rank() as u64);
            let x = drng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
            let target = drng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
            let mut rrng = TensorRng::seed_from(0);
            let step = |_| model.train_step(&x, &target, 0.3, &mut rrng).expect("step");
            (0..3).map(step).collect::<Vec<f32>>()
        });
        for (rank, losses) in results.iter().enumerate() {
            assert!(
                losses.last() < losses.first(),
                "{ffn:?} rank {rank}: loss did not fall: {losses:?}"
            );
        }
    }
}

#[test]
fn capacity_semantics_flow_through_the_stack() {
    // a tight capacity factor must drop tokens locally and distributed,
    // never exceed T anywhere, and still produce finite outputs
    let cfg = MoeConfig::builder()
        .batch_size(2)
        .seq_len(16)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(4)
        .top_k(2)
        .capacity_factor(0.5)
        .build()
        .expect("valid");
    let mut rng = TensorRng::seed_from(1);
    let mut layer = local(MoeLayer::gshard, &cfg, 1);
    let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    let y = layer.forward(&x, &mut rng).expect("forward");
    let routing = layer.last_routing().expect("routed");
    assert!(routing.drop_rate() > 0.0, "tight capacity must drop");
    for load in routing.expert_loads() {
        assert!(load <= cfg.capacity());
    }
    assert!(y.data().iter().all(|v| v.is_finite()));
}

#[test]
fn chunked_execution_equals_unchunked() {
    // the data-plane property pipelining relies on: splitting the token
    // batch into r chunks and running them through the layer
    // sequentially produces the same numbers as one full pass, for any
    // token-choice gate with no dropping (routing is per-token, and
    // experts are row-wise maps)
    let cfg = MoeConfig::builder()
        .batch_size(1)
        .seq_len(12)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(3)
        .top_k(2)
        .no_drop()
        .build()
        .expect("valid");
    let builders: Vec<(&str, GateBuilder)> = vec![
        ("gshard", MoeLayer::gshard),
        ("sigmoid", MoeLayer::sigmoid),
        ("xmoe", MoeLayer::xmoe),
        ("softmoe", MoeLayer::softmoe),
    ];
    for (name, build) in builders {
        let mut rng = TensorRng::seed_from(21);
        let mut layer = local(build, &cfg, 21);
        let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(0);
        let full = layer.forward(&x, &mut route_rng).expect(name);
        for r in [2usize, 3, 4] {
            let chunks = x.chunk(r).expect("token axis splits");
            let outputs: Vec<Tensor> = chunks
                .iter()
                .map(|c| {
                    let mut rrng = TensorRng::seed_from(0);
                    layer.forward(c, &mut rrng).expect(name)
                })
                .collect();
            let stitched = Tensor::cat(&outputs).expect("same widths");
            assert!(
                stitched.allclose(&full, 1e-4),
                "{name}: r={r} chunked execution diverged, max diff {}",
                stitched.max_abs_diff(&full).unwrap()
            );
        }
    }
}

#[test]
fn all_five_gates_run_through_the_full_layer() {
    let cfg = small_config();
    let mut rng = TensorRng::seed_from(3);
    let builders: Vec<(&str, GateBuilder)> = vec![
        ("gshard", MoeLayer::gshard),
        ("sigmoid", MoeLayer::sigmoid),
        ("xmoe", MoeLayer::xmoe),
        ("softmoe", MoeLayer::softmoe),
        ("expert_choice", MoeLayer::expert_choice),
    ];
    let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    for (name, build) in builders {
        let mut layer = local(build, &cfg, 3);
        let y = layer.forward(&x, &mut rng).expect(name);
        let grads = layer.backward(&Tensor::ones(y.dims())).expect(name);
        assert_eq!(grads.input.dims(), x.dims(), "{name}");
    }
}

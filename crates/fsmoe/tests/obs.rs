//! Observability integration for the MoE layers: the unified drop
//! account (layer field == obs counter), the per-expert
//! load histogram, and the forward span taxonomy.

use std::time::Duration;

use collectives::{
    run_world_within, CommWorld, Communicator, FaultInjector, HybridTopology, ParallelDims,
};
use fsmoe::config::MoeConfig;
use fsmoe::layer::MoeLayer;
use tensor::{Tensor, TensorRng};

const SEED: u64 = 77;
const BUDGET: Duration = Duration::from_secs(30);

fn two_rank_topology() -> HybridTopology {
    HybridTopology::flat(2).unwrap()
}

fn config() -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(6)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(2)
        .top_k(1)
        .no_drop()
        .build()
        .unwrap()
}

#[test]
fn drop_account_is_unified_across_layer_obs_and_hook() {
    let session = obs::session();
    let cfg = config();
    // Rank 1 dies entering its first collective; the survivor degrades
    // both AlltoAll legs and counts its routed assignments exactly once.
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(400))
        .with_faults(FaultInjector::new().kill(1, 0));
    let results = run_world_within(world, BUDGET, |comm| {
        let topo = two_rank_topology();
        let cfg = config();
        let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let mut rng = TensorRng::seed_from(4000 + comm.rank() as u64);
        let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(0);
        let _ = layer.forward(&x, &mut route_rng);
        layer.dropped_tokens()
    });

    let per_layer_total: usize = results.iter().sum();
    assert_eq!(
        per_layer_total,
        cfg.tokens(),
        "only the survivor drops, and only once"
    );
    let snap = session.snapshot();
    assert_eq!(
        snap.counter(obs::names::MOE_DROPPED_TOKENS),
        per_layer_total as u64,
        "the obs counter and the per-layer fields are one account"
    );
    assert_eq!(snap.counter(obs::names::MOE_DROP_EVENTS), 1);
    // A live read sees the same account (the session guard is still
    // alive, so the registry is this run's).
    assert_eq!(
        obs::counter_value(obs::names::MOE_DROPPED_TOKENS),
        per_layer_total as u64
    );
    assert_eq!(obs::counter_value(obs::names::MOE_DROP_EVENTS), 1);
    // Fault bookkeeping made it into the same snapshot.
    assert_eq!(snap.counter(obs::names::COLLECTIVES_FAULTS_INJECTED), 1);
    assert!(snap.counter(obs::names::COLLECTIVES_SKIPPED_OPS) >= 1);
}

#[test]
fn fault_free_distributed_forward_traces_spans_and_load_histogram() {
    let session = obs::session();
    let cfg = config();
    run_world_within(CommWorld::new(2), BUDGET, |comm| {
        let topo = two_rank_topology();
        let cfg = config();
        let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let mut rng = TensorRng::seed_from(4000 + comm.rank() as u64);
        let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(0);
        layer.forward(&x, &mut route_rng).unwrap();
    });

    let snap = session.snapshot();
    // one span per rank for each forward phase
    for name in [
        obs::names::SPAN_MOE_FORWARD,
        obs::names::SPAN_GATE,
        obs::names::SPAN_DISPATCH,
        obs::names::SPAN_EXPERT_COMPUTE,
        obs::names::SPAN_COMBINE,
    ] {
        assert_eq!(snap.spans_named(name).len(), 2, "two ranks ran {name}");
    }
    // phases nest inside their rank's moe.forward
    for outer in snap.spans_named(obs::names::SPAN_MOE_FORWARD) {
        let end = outer.start_us + outer.dur_us;
        for inner in snap.spans_named(obs::names::SPAN_EXPERT_COMPUTE) {
            if inner.tid == outer.tid {
                assert!(inner.start_us >= outer.start_us && inner.start_us + inner.dur_us <= end);
            }
        }
    }
    // each rank's gate scored every expert once
    let hist = snap
        .histogram(obs::names::MOE_EXPERT_LOAD)
        .expect("per-expert load histogram recorded");
    assert_eq!(hist.count, (2 * cfg.num_experts) as u64);
    assert_eq!(
        hist.sum as usize,
        2 * cfg.tokens(),
        "top-1 no-drop routing assigns every token exactly once per rank"
    );
    // collectives spans carry payload attributes and sit under fsmoe spans
    let a2a = snap.spans_named(obs::names::SPAN_ALL_TO_ALL);
    assert_eq!(a2a.len(), 4, "dispatch + combine on each of two ranks");
    for span in a2a {
        assert!(span.attrs.iter().any(|(k, _)| *k == "bytes"));
    }
    assert!(snap.counter(obs::names::MOE_DROPPED_TOKENS) == 0);
    // one-member ESP groups issue no collective
    assert!(snap.spans_named(obs::names::SPAN_ALL_GATHER).is_empty());
    assert!(snap.spans_named(obs::names::SPAN_REDUCE_SCATTER).is_empty());
}

#[test]
fn sharded_experts_gather_and_reduce_once_per_exchange() {
    let session = obs::session();
    // the paper's Fig. 2: ep = 2, esp = 2 over four ranks
    let dims = ParallelDims {
        dp: 2,
        mp: 2,
        ep: 2,
        esp: 2,
    };
    run_world_within(CommWorld::new(4), BUDGET, move |comm| {
        let topo = HybridTopology::new(2, 2, dims).unwrap();
        let cfg = config();
        let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let mut rng = TensorRng::seed_from(4000 + comm.rank() as u64);
        let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let out = layer.forward(&x, &mut TensorRng::seed_from(0)).unwrap();
        layer.backward(&out).unwrap();
    });
    let snap = session.snapshot();
    // forward + backward: two exchanges in, two out, on each of four ranks
    for (name, per_rank) in [
        (obs::names::SPAN_ALL_GATHER, 2),
        (obs::names::SPAN_REDUCE_SCATTER, 2),
        (obs::names::SPAN_ALL_TO_ALL, 4),
    ] {
        assert_eq!(snap.spans_named(name).len(), 4 * per_rank, "{name}");
    }
}

#[test]
fn one_rank_layer_traces_the_same_taxonomy_without_collectives() {
    let session = obs::session();
    let cfg = config();
    let mut rng = TensorRng::seed_from(1);
    let topo = HybridTopology::flat(1).unwrap();
    let mut layer = MoeLayer::gshard(&cfg, &Communicator::solo(), &topo, 1).unwrap();
    let input = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    let out = layer.forward(&input, &mut rng).unwrap();
    layer.backward(&Tensor::ones(out.dims())).unwrap();

    let snap = session.snapshot();
    for name in [
        obs::names::SPAN_MOE_FORWARD,
        obs::names::SPAN_GATE,
        obs::names::SPAN_DISPATCH,
        obs::names::SPAN_EXPERT_COMPUTE,
        obs::names::SPAN_COMBINE,
        obs::names::SPAN_MOE_BACKWARD,
    ] {
        assert_eq!(snap.spans_named(name).len(), 1, "{name}");
    }
    let hist = snap.histogram(obs::names::MOE_EXPERT_LOAD).unwrap();
    assert_eq!(hist.count, cfg.num_experts as u64);
    // the exchange is the identity: nothing went over the wire
    assert!(snap.spans_named(obs::names::SPAN_ALL_TO_ALL).is_empty());
    assert!(snap.spans_named(obs::names::SPAN_ALL_GATHER).is_empty());
}

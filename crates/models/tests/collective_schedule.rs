//! The collective schedule of one training step, as the step issues it:
//! every rank's `collectives` spans from one traced
//! [`MoeTransformer::train_step`], read as `(op, group)` pairs in
//! recording order, must agree across ranks and equal a literal list.
//!
//! A collective added, dropped, reordered or moved to another group
//! anywhere in the step changes the list; one that only some ranks
//! issue makes the ranks disagree (or trips the group's per-op
//! `OpTag` agreement first). Op order only — no timestamp is read.
//! This binary holds one test so no other test's spans enter its
//! session.

use std::collections::BTreeMap;
use std::time::Duration;

use collectives::{run_world, CommWorld, HybridTopology};
use fsmoe::config::MoeConfig;
use models::MoeTransformer;
use tensor::TensorRng;

/// Both ranks: the EP group of every MoE layer and the DP group of the
/// attention weights are the whole 2-rank world.
const WORLD: &str = "[0, 1]";

/// One step of 2 blocks, each attention (4 weight matrices) + MoE.
const STEP: [(&str, &str); 16] = [
    // forward, block 0 then block 1: the dispatch and the combine
    ("all_to_all", WORLD),
    ("all_to_all", WORLD),
    ("all_to_all", WORLD),
    ("all_to_all", WORLD),
    // backward, block 1 then block 0: the combine's gradient exchange,
    // then the dispatch's
    ("all_to_all", WORLD),
    ("all_to_all", WORLD),
    ("all_to_all", WORLD),
    ("all_to_all", WORLD),
    // the replicated attention gradients, block 1 then block 0, one
    // all-reduce per weight matrix (q, k, v, o)
    ("all_reduce", WORLD),
    ("all_reduce", WORLD),
    ("all_reduce", WORLD),
    ("all_reduce", WORLD),
    ("all_reduce", WORLD),
    ("all_reduce", WORLD),
    ("all_reduce", WORLD),
    ("all_reduce", WORLD),
];

#[test]
fn a_training_step_issues_the_pinned_collective_schedule() {
    let cfg = MoeConfig::builder()
        .batch_size(1)
        .seq_len(8)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(4)
        .top_k(2)
        .build()
        .unwrap();
    let session = obs::session();
    // A rank that issues an op its peer never joins gets a `Timeout`
    // (and fails the test) instead of waiting forever.
    let world = CommWorld::new(2).with_deadline(Duration::from_secs(30));
    run_world(world, move |comm| {
        let topo = HybridTopology::flat(2).unwrap();
        let mut model = MoeTransformer::new(&cfg, Some(2), 2, &comm, &topo, 9).unwrap();
        let mut rng = TensorRng::seed_from(100 + comm.rank() as u64);
        let dims = [cfg.tokens(), cfg.embed_dim];
        let x = rng.normal(&dims, 0.0, 1.0);
        let target = rng.normal(&dims, 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(comm.rank() as u64);
        model.train_step(&x, &target, 0.2, &mut route_rng).unwrap();
    });
    let snap = session.snapshot();

    let attr = |span: &obs::SpanRecord, key: &str| {
        let value = span.attrs.iter().find(|(k, _)| *k == key);
        value.map(|(_, v)| v.clone()).unwrap()
    };
    let mut per_rank = BTreeMap::<String, Vec<(&str, String)>>::new();
    for span in snap.spans_in(obs::names::CAT_COLLECTIVES) {
        let op = (span.name, attr(span, "group"));
        per_rank.entry(attr(span, "rank")).or_default().push(op);
    }
    assert_eq!(per_rank.len(), 2, "both ranks issue collectives");
    let expected: Vec<(&str, String)> = STEP
        .iter()
        .map(|&(op, group)| (op, group.to_string()))
        .collect();
    for (rank, ops) in &per_rank {
        assert_eq!(ops, &expected, "rank {rank}'s collective schedule");
    }
}

//! Survive a permanently dead rank, end to end.
//!
//! Three ranks train a 6-expert MoE layer under the elastic trainer.
//! Rank 2 completes one step and then dies for good. The survivors hit
//! the dead rank in the next collective, blame it, vote it out, rebind
//! to the shrunken 2-rank world, re-shard the orphaned experts
//! round-robin, roll back to the last snapshot, and finish training —
//! no human in the loop.
//!
//! The run self-validates: the `elastic.reconfigure` span must appear
//! on every survivor, the membership-epoch gauge must read 1, the
//! eviction counter must read 1, and the survivors must agree
//! bit-for-bit on the final weights. The Chrome trace is written out
//! and re-checked with the in-tree validator — CI runs this as its
//! elastic-recovery smoke step.
//!
//! Run with
//! `cargo run --release -p models --example elastic_recovery -- [out.json]`.

use std::time::Duration;

use collectives::{run_world_within, CommWorld, HybridTopology};
use fsmoe::config::MoeConfig;
use models::{ElasticTrainer, MoeTransformer};
use obs::ensure;
use tensor::TensorRng;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/elastic_recovery.json".to_string());

    let session = obs::session();

    let cfg = MoeConfig::builder()
        .batch_size(1)
        .seq_len(6)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(6)
        .top_k(2)
        .no_drop()
        .build()
        .expect("smoke-size MoE config is valid");

    let world = CommWorld::new(3).with_deadline(Duration::from_secs(5));
    let run_cfg = cfg.clone();
    let results = run_world_within(world, Duration::from_secs(120), move |comm| {
        let rank = comm.rank();
        let topo = HybridTopology::flat(3).expect("3-rank EP layout is valid");
        let model = MoeTransformer::new(&run_cfg, None, 1, &comm, &topo, 42).expect("model builds");
        let mut trainer =
            ElasticTrainer::new(model, comm, TensorRng::seed_from(7000 + rank as u64), 2)
                .expect("elastic trainer construction");
        let mut data_rng = TensorRng::seed_from(1000 + rank as u64);
        let x = data_rng.normal(&[run_cfg.tokens(), run_cfg.embed_dim], 0.0, 1.0);
        let t = data_rng.normal(&[run_cfg.tokens(), run_cfg.embed_dim], 0.0, 1.0);
        if rank == 2 {
            while trainer.step() < 1 {
                trainer
                    .train_step(&x, &t, 0.1)
                    .expect("victim's clean step");
            }
            trainer.comm().declare_dead(rank);
            return None;
        }
        let mut losses = Vec::new();
        while trainer.step() < 4 {
            losses.push(trainer.train_step(&x, &t, 0.1).expect("survivor step"));
        }
        let ckpt = trainer
            .model()
            .checkpoint_global()
            .expect("final collective checkpoint");
        Some((
            losses,
            ckpt,
            trainer.evictions(),
            trainer.comm().membership_epoch(),
            trainer.model().blocks()[0]
                .moe()
                .expert_map()
                .experts_on(trainer.comm().rank())
                .to_vec(),
        ))
    });

    let snap = session.snapshot();
    drop(session);

    ensure(results[2].is_none(), "the victim must not finish");
    let survivors: Vec<_> = results.iter().flatten().collect();
    ensure(survivors.len() == 2, "both survivors must finish");
    for (old_rank, (losses, _, evictions, epoch, experts)) in
        [0usize, 1].into_iter().zip(survivors.iter())
    {
        println!(
            "old rank {old_rank}: losses {:?}, owns experts {experts:?} after {evictions} \
             eviction(s), epoch {epoch}",
            losses.iter().map(|l| format!("{l:.4}")).collect::<Vec<_>>(),
        );
        ensure(*evictions == 1, "exactly one eviction per survivor");
        ensure(*epoch == 1, "membership epoch must reach 1");
        ensure(experts.len() == 3, "6 experts re-shard as 3 per survivor");
    }
    ensure(
        survivors[0].1 == survivors[1].1,
        "survivors must agree bit-for-bit on the final weights",
    );

    // Metrics: one eviction, epoch gauge bumped to 1.
    ensure(
        snap.counter(obs::names::COLLECTIVES_EVICTIONS) == 1,
        "collectives.evictions must read 1",
    );
    ensure(
        snap.gauges
            .get(obs::names::COLLECTIVES_MEMBERSHIP_EPOCH.as_str())
            == Some(&1.0),
        "collectives.membership_epoch gauge must read 1",
    );
    ensure(
        snap.counter(obs::names::ELASTIC_CHECKPOINT_FALLBACKS) == 0,
        "no checkpoint fallback in the clean path",
    );

    // Each survivor traces the recovery as one elastic.reconfigure span.
    let spans = snap.spans_named(obs::names::SPAN_ELASTIC_RECONFIGURE);
    ensure(
        spans.len() == 2,
        "one elastic.reconfigure span per survivor",
    );
    for s in &spans {
        ensure(
            s.cat == obs::names::CAT_MODELS.as_str(),
            "recovery span lives in the models layer",
        );
    }

    // Export the Chrome trace and re-validate it as CI's checker would.
    match snap.write_validated_trace(&out_path) {
        Ok(stats) => println!("wrote {out_path}: {stats}"),
        Err(e) => ensure(false, &format!("trace invalid: {e}")),
    }
    println!("training survived the dead rank; open the trace in chrome://tracing");
}

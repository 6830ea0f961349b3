//! Gray-failure defense, end to end at the trainer level: a
//! browned-out (live but slow) rank walks the escalation ladder —
//! log → quarantine (hot expert drains off it) → priced live eviction —
//! and the survivors finish **bit-identical** to a fresh small world
//! started from the snapshot they rolled back to; a peer that *dies*
//! under the armed defense, at the health check itself included, takes
//! the dead-rank ladder to the same end.

use std::time::Duration;

use collectives::{
    run_world_within, Brownout, CommError, CommWorld, Communicator, FaultInjector, HybridTopology,
};
use fsmoe::checkpoint::ModelCheckpoint;
use fsmoe::config::MoeConfig;
use fsmoe::MoeError;
use models::{ElasticTrainer, HealthPolicy, MoeTransformer};
use tensor::{Tensor, TensorRng};

const SEED: u64 = 33;
const LR: f32 = 0.1;
const BUDGET: Duration = Duration::from_secs(120);
/// Steps each run targets — comfortably past the deterministic ladder
/// timeline (log ≈ step 2, quarantine ≈ step 5, eviction ≈ step 8 with
/// the aggressive test policy below).
const TOTAL: usize = 12;

/// Attention heads and depth of the model under the trainer.
type Shape = (Option<usize>, usize);
/// The configured layer alone (the one-layer trainer's shape).
const LAYER: Shape = (None, 1);
/// Two attention + MoE blocks.
const MODEL: Shape = (Some(2), 2);

/// A trainer for `comm`'s rank of a flat world, snapshotting once.
fn trainer(cfg: &MoeConfig, (heads, depth): Shape, comm: Communicator) -> ElasticTrainer {
    let topo = HybridTopology::flat(comm.world_size()).unwrap();
    let model = MoeTransformer::new(cfg, heads, depth, &comm, &topo, SEED).unwrap();
    let route_rng = route_rng_for(comm.rank());
    ElasticTrainer::new(model, comm, route_rng, SNAPSHOT_ONCE).unwrap()
}

fn config(num_experts: usize) -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(6)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(num_experts)
        .top_k(2)
        .no_drop()
        .build()
        .unwrap()
}

fn rank_data(cfg: &MoeConfig, old_rank: usize) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(1000 + old_rank as u64);
    let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    let t = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    (x, t)
}

fn route_rng_for(old_rank: usize) -> TensorRng {
    TensorRng::seed_from(7000 + old_rank as u64)
}

fn world(n: usize) -> CommWorld {
    CommWorld::new(n).with_deadline(Duration::from_secs(5))
}

/// Aggressive ladder so tests escalate within a dozen steps.
fn health_policy() -> HealthPolicy {
    HealthPolicy {
        window: 2,
        threshold: 1.5,
        sustain: 2,
        cooldown: 1,
    }
}

/// A pricing horizon long enough that eviction wins against any real
/// brownout (the slow rank's score is enormous here).
const HORIZON: usize = 100_000;

/// Snapshot only at step 0, so a rollback always lands on the initial
/// state — the one step number the timing-dependent eviction step
/// cannot perturb, which is what lets the bit-identity half of the test
/// pin its reference.
const SNAPSHOT_ONCE: usize = 10_000;

/// What a survivor reports at the end of the browned-out run.
#[derive(Debug, Clone)]
struct SurvivorReport {
    checkpoint: ModelCheckpoint,
    evictions: usize,
    quarantines: usize,
    migrations: usize,
    epoch: u64,
}

/// Steps `trainer` to [`TOTAL`]; `None` when this rank left the fleet
/// with the canonical self-down error (priced out, or dead).
fn run_to_total(trainer: &mut ElasticTrainer, x: &Tensor, t: &Tensor) -> Option<SurvivorReport> {
    let rank = trainer.comm().rank();
    while trainer.step() < TOTAL {
        match trainer.train_step(x, t, LR) {
            Ok(_) => {}
            Err(MoeError::Comm(CommError::RankDown { rank: r })) if r == rank => return None,
            Err(e) => panic!("rank {rank}: unexpected {e:?}"),
        }
    }
    Some(SurvivorReport {
        checkpoint: trainer.model().checkpoint_global().unwrap(),
        evictions: trainer.evictions(),
        quarantines: trainer.quarantines(),
        migrations: trainer.migrations(),
        epoch: trainer.comm().membership_epoch(),
    })
}

/// Runs the full gray-failure scenario: `n` ranks, `victim` browned out
/// (never killed), health + pricing armed on every rank. Returns `None`
/// for the self-evicted victim, a report for each survivor.
fn gray_run(cfg: &MoeConfig, shape: Shape, n: usize, victim: usize) -> Vec<Option<SurvivorReport>> {
    let spec = Brownout::steady(Duration::from_millis(5));
    let comm_world = world(n).with_faults(FaultInjector::new().brownout(victim, spec, 11));
    run_world_within(comm_world, BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let mut trainer = trainer(&cfg, shape, comm).with_health(health_policy(), HORIZON);
            let (x, t) = rank_data(&cfg, rank);
            let report = run_to_total(&mut trainer, &x, &t);
            // The canonical self-eviction exit: the fleet priced this
            // rank out and is evicting it.
            assert!(
                report.is_some() || rank == victim,
                "only the slow rank may be priced out"
            );
            report
        }
    })
}

/// A fresh 3-rank world resumed from the 4-rank world's initial
/// snapshot and run to [`TOTAL`]: what survivors of a rank-3 eviction
/// that rolled back to step 0 must equal (the victim was the highest
/// rank, so new rank i resumes old rank i's data and RNG stream).
fn fresh_three_rank_world(cfg: &MoeConfig, shape: Shape) -> ModelCheckpoint {
    let initial = run_world_within(world(4), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            trainer(&cfg, shape, comm)
                .model()
                .checkpoint_global()
                .unwrap()
        }
    });
    let fresh = run_world_within(world(3), BUDGET, {
        let cfg = cfg.clone();
        let snapshot = initial[0].clone();
        move |comm| {
            let old_rank = comm.rank();
            let topo = HybridTopology::flat(3).unwrap();
            let model = MoeTransformer::new(&cfg, shape.0, shape.1, &comm, &topo, SEED).unwrap();
            let mut trainer = ElasticTrainer::resume(
                model,
                comm,
                &snapshot,
                route_rng_for(old_rank),
                0,
                SNAPSHOT_ONCE,
            )
            .unwrap();
            let (x, t) = rank_data(&cfg, old_rank);
            while trainer.step() < TOTAL {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            trainer.model().checkpoint_global().unwrap()
        }
    });
    assert_eq!(fresh[0], fresh[1]);
    assert_eq!(fresh[1], fresh[2]);
    fresh.into_iter().next().unwrap()
}

/// **Headline property.** A 4-rank run whose rank 3 limps at ~5 ms per
/// collective walks the whole ladder (quarantine with a drain
/// migration, then a priced live eviction) and the three survivors
/// finish bit-identical to a fresh 3-rank run resumed from the same
/// initial snapshot — the rollback landed on step 0
/// (snapshot_interval > TOTAL). On the lone configured layer and on a
/// two-block attention model.
#[test]
fn browned_out_rank_is_quarantined_then_evicted_bit_identically() {
    let cfg = config(12);
    let victim = 3usize;
    for shape in [LAYER, MODEL] {
        let results = gray_run(&cfg, shape, 4, victim);

        assert!(
            results[victim].is_none(),
            "the slow rank must self-evict, got {:?}",
            results[victim]
        );
        let survivors: Vec<&SurvivorReport> = results.iter().flatten().collect();
        assert_eq!(survivors.len(), 3, "every healthy rank must finish");
        for s in &survivors {
            assert_eq!(s.evictions, 1, "exactly one live eviction: {s:?}");
            assert_eq!(s.epoch, 1, "one membership epoch bump: {s:?}");
            assert!(s.quarantines >= 1, "quarantine precedes eviction: {s:?}");
            assert!(
                s.migrations >= 1,
                "the quarantine must drain a hot expert: {s:?}"
            );
            assert_eq!(
                s.checkpoint, survivors[0].checkpoint,
                "survivors disagree on final weights"
            );
        }
        assert_eq!(
            survivors[0].checkpoint,
            fresh_three_rank_world(&cfg, shape),
            "{shape:?}: gray-failure eviction must be bit-identical to the fresh small world"
        );
    }
}

/// A peer that dies with the defense armed is evicted, not propagated,
/// **wherever in the step it dies** — the health all-reduce that ends
/// the step included, which used to hand survivors a raw `RankDown`.
/// Rank 3 is killed at each op index of one step period in turn
/// (`period` consecutive indices, so exactly one of them is a health
/// check whatever the set-up collectives before them), and every time
/// the survivors must evict, roll back to step 0 and finish
/// bit-identical to the fresh 3-rank world.
#[test]
fn peer_death_at_any_op_of_a_step_is_evicted_bit_identically() {
    let cfg = config(12);
    let victim = 3usize;
    let fresh = fresh_three_rank_world(&cfg, LAYER);
    // One layer's step: 4 collectives forward, 4 backward, then the
    // health all-reduce.
    let period = 9;
    for at_op in 2 * period..3 * period {
        let comm_world = world(4).with_faults(FaultInjector::new().kill(victim, at_op));
        let results = run_world_within(comm_world, BUDGET, {
            let cfg = cfg.clone();
            move |comm| {
                let rank = comm.rank();
                // Default ladder: three rungs of sustain 3 cannot reach
                // an eviction before the kill does.
                let mut trainer =
                    trainer(&cfg, LAYER, comm).with_health(HealthPolicy::default(), HORIZON);
                let (x, t) = rank_data(&cfg, rank);
                run_to_total(&mut trainer, &x, &t)
            }
        });
        assert!(results[victim].is_none(), "op {at_op}: the victim died");
        let survivors: Vec<&SurvivorReport> = results.iter().flatten().collect();
        assert_eq!(survivors.len(), 3, "op {at_op}: every survivor finishes");
        for s in survivors {
            assert_eq!(s.evictions, 1, "op {at_op}: {s:?}");
            assert_eq!(s.checkpoint, fresh, "op {at_op}: survivor diverged");
        }
    }
}

/// A healthy fleet with the defense armed never escalates: no
/// quarantines, no evictions, scores hugging 1.0 on every rank.
#[test]
fn healthy_fleet_with_defense_armed_never_escalates() {
    let cfg = config(6);
    let results = run_world_within(world(3), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let topo = HybridTopology::flat(3).unwrap();
            let model = MoeTransformer::new(&cfg, None, 1, &comm, &topo, SEED).unwrap();
            let route_rng = route_rng_for(rank);
            let mut trainer = ElasticTrainer::new(model, comm, route_rng, 2)
                .unwrap()
                // Default policy: threshold 1.75 with sustain 3 — scheduler
                // jitter on equal ranks must stay under it.
                .with_health(HealthPolicy::default(), HORIZON);
            let (x, t) = rank_data(&cfg, rank);
            for _ in 0..6 {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            (
                trainer.quarantines(),
                trainer.evictions(),
                trainer.health().map(|m| m.quarantined().len()),
            )
        }
    });
    for (rank, &(quarantines, evictions, quarantined)) in results.iter().enumerate() {
        assert_eq!(quarantines, 0, "rank {rank} quarantined a healthy peer");
        assert_eq!(evictions, 0, "rank {rank} evicted a healthy peer");
        assert_eq!(quarantined, Some(0));
    }
}

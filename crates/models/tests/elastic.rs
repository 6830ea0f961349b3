//! Elastic-training properties: the headline bit-identity theorem
//! (survivors of an eviction compute exactly what a fresh smaller world
//! would) and the multi-seed chaos soak ci.sh runs under a hang
//! watchdog. Exact obs-counter properties live in `elastic_obs.rs`
//! (their own process, so concurrent tests cannot pollute counts).

use std::time::Duration;

use collectives::{run_world_within, CommWorld, Communicator, HybridTopology};
use fsmoe::checkpoint::ModelCheckpoint;
use fsmoe::config::MoeConfig;
use models::{ElasticTrainer, MoeTransformer};
use tensor::{Tensor, TensorRng};

const SEED: u64 = 33;
const LR: f32 = 0.1;
/// Snapshot every other step.
const INTERVAL: usize = 2;
const BUDGET: Duration = Duration::from_secs(120);

/// Attention heads and depth of the model under the trainer.
type Shape = (Option<usize>, usize);
/// The configured layer alone (the one-layer trainer's shape).
const LAYER: Shape = (None, 1);
/// Two attention + MoE blocks.
const MODEL: Shape = (Some(2), 2);

fn model(cfg: &MoeConfig, (heads, depth): Shape, comm: &Communicator) -> MoeTransformer {
    let topo = HybridTopology::flat(comm.world_size()).unwrap();
    MoeTransformer::new(cfg, heads, depth, comm, &topo, SEED).unwrap()
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

/// Fixed per-(old-)rank training data: the rank's identity, not its
/// current number, keys the data so a renumbered survivor keeps its own
/// stream.
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

/// Runs a clean `n`-rank reference for `steps` steps; returns each
/// rank's (full checkpoint, route RNG) at the end — i.e. the state a
/// snapshot at `steps` would capture.
fn reference_state(
    cfg: &MoeConfig,
    shape: Shape,
    n: usize,
    steps: usize,
) -> Vec<(ModelCheckpoint, TensorRng)> {
    run_world_within(world(n), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let mut trainer = ElasticTrainer::new(
                model(&cfg, shape, &comm),
                comm,
                route_rng_for(rank),
                INTERVAL,
            )
            .unwrap();
            let (x, t) = rank_data(&cfg, rank);
            while trainer.step() < steps {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            (
                trainer.model().checkpoint_global().unwrap(),
                trainer.route_rng(),
            )
        }
    })
}

/// The elastic run: `n` ranks, `victim` dies for good after completing
/// `die_after` steps, survivors evict + re-shard and run to `total`
/// steps. Returns per-old-rank (final checkpoint, evictions, epoch) for
/// survivors, None for the victim.
fn elastic_run(
    cfg: &MoeConfig,
    shape: Shape,
    n: usize,
    victim: usize,
    die_after: usize,
    total: usize,
) -> Vec<Option<(ModelCheckpoint, usize, u64)>> {
    run_world_within(world(n), BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let mut trainer = ElasticTrainer::new(
                model(&cfg, shape, &comm),
                comm,
                route_rng_for(rank),
                INTERVAL,
            )
            .unwrap();
            let (x, t) = rank_data(&cfg, rank);
            if rank == victim {
                while trainer.step() < die_after {
                    trainer.train_step(&x, &t, LR).unwrap();
                }
                trainer.comm().declare_dead(rank);
                return None;
            }
            while trainer.step() < total {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            Some((
                trainer.model().checkpoint_global().unwrap(),
                trainer.evictions(),
                trainer.comm().membership_epoch(),
            ))
        }
    })
}

/// The fresh small world: the survivors' old ranks, renumbered
/// contiguously — new rank i carries old rank `survivors[i]`'s data and
/// RNG stream — resumed from `reference`'s snapshot at `snap_step` and
/// run to `total`. Returns every rank's final checkpoint.
fn fresh_world(
    cfg: &MoeConfig,
    shape: Shape,
    reference: &[(ModelCheckpoint, TensorRng)],
    survivors: &[usize],
    snap_step: usize,
    total: usize,
) -> Vec<ModelCheckpoint> {
    run_world_within(world(survivors.len()), BUDGET, {
        let cfg = cfg.clone();
        let snapshot = reference[0].0.clone();
        let rngs: Vec<TensorRng> = survivors.iter().map(|&r| reference[r].1.clone()).collect();
        let survivors = survivors.to_vec();
        move |comm| {
            let old_rank = survivors[comm.rank()];
            let mut trainer = ElasticTrainer::resume(
                model(&cfg, shape, &comm),
                comm.clone(),
                &snapshot,
                rngs[comm.rank()].clone(),
                snap_step,
                INTERVAL,
            )
            .unwrap();
            let (x, t) = rank_data(&cfg, old_rank);
            while trainer.step() < total {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            trainer.model().checkpoint_global().unwrap()
        }
    })
}

/// **Headline property.** A 4-rank run that permanently loses rank 2
/// after step 5 finishes bit-identical to a fresh 3-rank run started
/// from the snapshot the survivors rolled back to — with each new rank
/// resuming the matching old rank's data and RNG stream. On the lone
/// configured layer and on a two-block attention model.
#[test]
fn eviction_is_bit_identical_to_fresh_small_world() {
    // E = 12 so the orphaned 3 experts deal evenly over 3 survivors.
    let cfg = config(12);
    let (victim, die_after, total) = (2usize, 5usize, 8usize);
    // Snapshot cadence 2 ⇒ the survivors roll back to step 4.
    let snap_step = 4usize;

    for shape in [LAYER, MODEL] {
        let reference = reference_state(&cfg, shape, 4, snap_step);
        let elastic = elastic_run(&cfg, shape, 4, victim, die_after, total);
        let survivors: Vec<usize> = (0..4).filter(|&r| r != victim).collect();
        let fresh = fresh_world(&cfg, shape, &reference, &survivors, snap_step, total);

        assert!(elastic[victim].is_none());
        for &old in &survivors {
            let (ckpt, evictions, epoch) = elastic[old].clone().expect("survivor finished");
            assert_eq!(evictions, 1);
            assert_eq!(epoch, 1);
            assert_eq!(
                ckpt, fresh[0],
                "{shape:?}: survivor (old rank {old}) diverged from the fresh small world"
            );
        }
        // All fresh-world ranks agree with each other too (collective).
        assert_eq!(fresh[0], fresh[1]);
        assert_eq!(fresh[1], fresh[2]);
    }
}

/// The same property at the smallest interesting scale: 3 ranks losing
/// rank 1 matches a fresh 2-rank run, with the victim dying on an even
/// step so the failure surfaces inside the snapshot collective.
#[test]
fn eviction_bit_identity_holds_from_snapshot_failure() {
    // E = 6: divisible by 3 and 2.
    let cfg = config(6);
    let (victim, die_after, total) = (1usize, 2usize, 5usize);
    // Victim dies after step 2; survivors fail in the step-2 snapshot
    // and roll back to the *initial* snapshot (step 0).
    let reference = reference_state(&cfg, LAYER, 3, 0);
    let elastic = elastic_run(&cfg, LAYER, 3, victim, die_after, total);

    let survivors: Vec<usize> = (0..3).filter(|&r| r != victim).collect();
    let fresh = fresh_world(&cfg, LAYER, &reference, &survivors, 0, total);

    for &old in &survivors {
        let (ckpt, ..) = elastic[old].clone().expect("survivor finished");
        assert_eq!(ckpt, fresh[0], "old rank {old} diverged");
    }
}

/// Gray-failure half of the chaos soak: persistent brownouts (slow,
/// never dead) across seeds, world sizes, severities, and pricing
/// horizons. The liveness property: every rank either finishes all its
/// steps or exits with the clean self-eviction error — no hang (a hang
/// trips the watchdog panic, which ci.sh's `timeout` wrapper
/// distinguishes from assertion failures via exit 124), no untyped
/// error. When an eviction does land, exactly the victim escalates and
/// every survivor agrees on the final weights. Both ladder outcomes
/// must show at each world size: every 1-step-horizon seed limps, and
/// some long-horizon seed evicts.
#[test]
fn gray_failure_chaos_soak() {
    use collectives::{Brownout, CommError, FaultInjector};
    use fsmoe::MoeError;
    use models::HealthPolicy;

    for n in [3usize, 4] {
        let mut long_horizon_evictions = 0;
        for seed in 0u64..4 {
            let cfg = config(n * (n - 1));
            let victim = (seed as usize) % n;
            let mean_ms = 2 + 2 * (seed % 3);
            // Alternate pricing horizons: a long one prices eviction
            // in; a 1-step horizon can never amortize the
            // reconfiguration, so pricing defers forever and the whole
            // fleet must limp to completion instead.
            let must_limp = seed % 2 == 1;
            let horizon = if must_limp { 1 } else { 100_000 };
            let spec = Brownout {
                mean_delay: Duration::from_millis(mean_ms),
                jitter_pct: 25,
                stutter_every: 4,
                stutter_delay: Duration::from_millis(mean_ms),
                from_op: 2,
            };
            let comm_world =
                world(n).with_faults(FaultInjector::new().brownout(victim, spec, seed));
            let results = run_world_within(comm_world, BUDGET, {
                let cfg = cfg.clone();
                move |comm| {
                    let rank = comm.rank();
                    let model = model(&cfg, LAYER, &comm);
                    let ladder = HealthPolicy {
                        window: 2,
                        threshold: 1.5,
                        sustain: 2,
                        cooldown: 1,
                    };
                    let mut trainer = ElasticTrainer::new(model, comm, route_rng_for(rank), 10_000)
                        .unwrap()
                        .with_health(ladder, horizon);
                    let (x, t) = rank_data(&cfg, rank);
                    while trainer.step() < 8 {
                        match trainer.train_step(&x, &t, LR) {
                            Ok(_) => {}
                            Err(MoeError::Comm(CommError::RankDown { rank: r })) if r == rank => {
                                return None; // clean escalation exit
                            }
                            Err(e) => panic!("n={n} seed={seed} rank {rank}: {e:?}"),
                        }
                    }
                    Some((
                        trainer.model().checkpoint_global().unwrap(),
                        trainer.evictions(),
                    ))
                }
            });
            let finished: Vec<_> = results.iter().flatten().collect();
            let escalated = results.iter().filter(|r| r.is_none()).count();
            if must_limp {
                assert_eq!(escalated, 0, "n={n} seed={seed}: a 1-step horizon limps");
            } else if escalated > 0 {
                long_horizon_evictions += 1;
            }
            if escalated == 0 {
                assert_eq!(finished.len(), n, "n={n} seed={seed}: all must finish");
            } else {
                assert_eq!(escalated, 1, "n={n} seed={seed}: only the victim escalates");
                assert!(
                    results[victim].is_none(),
                    "n={n} seed={seed}: the browned-out rank is the one evicted"
                );
                let (first, _) = finished[0];
                for (ckpt, evictions) in &finished {
                    assert_eq!(*evictions, 1, "n={n} seed={seed}");
                    assert_eq!(ckpt, first, "n={n} seed={seed}: survivors diverged");
                }
            }
        }
        assert!(
            long_horizon_evictions > 0,
            "n={n}: no long-horizon seed evicted"
        );
    }
}

/// Chaos soak: many seeds × world sizes, every run must finish (the
/// watchdog turns a hang into a panic, which ci.sh distinguishes from
/// assertion failures by exit code) with one eviction, epoch 1, and all
/// survivors agreeing on the final weights.
///
/// World sizes 6 and 8 join in when `ELASTIC_SOAK_WIDE=1` (the ci.sh
/// chaos-soak stage sets it).
#[test]
fn elastic_chaos_soak() {
    let mut sizes = vec![2usize, 3, 4];
    if std::env::var("ELASTIC_SOAK_WIDE").as_deref() == Ok("1") {
        sizes.extend([6, 8]);
    }
    for n in sizes {
        for seed in 0u64..8 {
            // E = n(n−1): divisible by both n and n−1, so the round-robin
            // deal stays uniform after any single eviction.
            let cfg = config(n * (n - 1));
            let victim = (seed as usize) % n;
            let die_after = 1 + (seed as usize % 3);
            let total = die_after + 3;
            let results = elastic_run(&cfg, LAYER, n, victim, die_after, total);
            let survivors: Vec<_> = results.iter().flatten().collect();
            assert_eq!(
                survivors.len(),
                n - 1,
                "n={n} seed={seed}: every survivor must finish"
            );
            let (first_ckpt, _, _) = survivors[0];
            for (ckpt, evictions, epoch) in &survivors {
                assert_eq!(*evictions, 1, "n={n} seed={seed}");
                assert_eq!(*epoch, 1, "n={n} seed={seed}");
                assert_eq!(ckpt, first_ckpt, "n={n} seed={seed}: survivors diverged");
            }
        }
    }
}

//! Elastic-training observability and durability properties that
//! assert *exact* process-global counter values — kept in their own
//! test binary so no concurrently running test can pollute the counts.
//!
//! * drop accounting stays exactly-once through an eviction;
//! * a corrupt (truncated or NaN-bearing) on-disk checkpoint read
//!   mid-reconfiguration falls back to the in-memory snapshot with a
//!   typed error — never a panic, never silent zero weights.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use collectives::{run_world_within, CommWorld, Communicator, HybridTopology};
use fsmoe::config::MoeConfig;
use fsmoe::MoeError;
use models::{ElasticTrainer, MoeTransformer};
use tensor::{Tensor, TensorRng};

const SEED: u64 = 33;
const LR: f32 = 0.1;
/// Snapshot every other step.
const INTERVAL: usize = 2;
const BUDGET: Duration = Duration::from_secs(120);

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

/// The configured layer alone, over `comm`'s flat world.
fn model(cfg: &MoeConfig, comm: &Communicator) -> MoeTransformer {
    let topo = HybridTopology::flat(comm.world_size()).unwrap();
    MoeTransformer::new(cfg, None, 1, comm, &topo, SEED).unwrap()
}

fn rank_data(cfg: &MoeConfig, old_rank: usize) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(1000 + old_rank as u64);
    let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    let t = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    (x, t)
}

fn world(n: usize) -> CommWorld {
    CommWorld::new(n).with_deadline(Duration::from_secs(5))
}

#[test]
fn drop_accounting_is_exactly_once_through_eviction() {
    // Victim dies after an odd step so the failing step has no snapshot
    // collective in front of it: each survivor's failing forward
    // degrades exactly once (dispatch leg; the combine-leg degrade is
    // suppressed by the per-forward flag) and AlltoAll retries never
    // re-count.
    let session = obs::session();
    let cfg = config(6);
    let survivor_drops = Arc::new(AtomicUsize::new(0));
    let results = run_world_within(world(3), BUDGET, {
        let cfg = cfg.clone();
        let survivor_drops = Arc::clone(&survivor_drops);
        move |comm| {
            let rank = comm.rank();
            let mut trainer = ElasticTrainer::new(
                model(&cfg, &comm),
                comm,
                TensorRng::seed_from(7000 + rank as u64),
                INTERVAL,
            )
            .unwrap();
            let (x, t) = rank_data(&cfg, rank);
            if rank == 1 {
                while trainer.step() < 3 {
                    trainer.train_step(&x, &t, LR).unwrap();
                }
                trainer.comm().declare_dead(rank);
                return 0usize;
            }
            while trainer.step() < 6 {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            // The drop account survives the reshard.
            survivor_drops.fetch_add(trainer.model().dropped_tokens(), Ordering::Relaxed);
            trainer.model().dropped_tokens()
        }
    });
    let snap = session.snapshot();
    assert_eq!(
        snap.counter(obs::names::MOE_DROP_EVENTS),
        2,
        "one degrade event per survivor, never double-counted by retries"
    );
    let dropped = snap.counter(obs::names::MOE_DROPPED_TOKENS) as usize;
    assert!(dropped > 0, "the failing step routed assignments");
    assert_eq!(
        survivor_drops.load(Ordering::Relaxed),
        dropped,
        "per-layer drop counters survive re-sharding and match obs"
    );
    assert_eq!(results[1], 0);
    assert_eq!(snap.counter(obs::names::COLLECTIVES_EVICTIONS), 1);
}

/// Shared harness for the corrupt-disk-checkpoint scenarios: the victim
/// corrupts the persisted snapshot before dying, so every survivor's
/// recovery must detect the damage, record a typed error, and fall back
/// to the in-memory snapshot.
fn corrupt_checkpoint_scenario(tag: &str, corrupt: fn(&PathBuf)) {
    let session = obs::session();
    let cfg = config(6);
    let dir = std::env::temp_dir().join(format!("fsmoe-elastic-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let results = run_world_within(world(3), BUDGET, {
        let cfg = cfg.clone();
        let dir = dir.clone();
        move |comm| {
            let rank = comm.rank();
            let mut trainer = ElasticTrainer::new(
                model(&cfg, &comm),
                comm,
                TensorRng::seed_from(7000 + rank as u64),
                INTERVAL,
            )
            .unwrap()
            .with_checkpoint_dir(dir.clone());
            let (x, t) = rank_data(&cfg, rank);
            if rank == 2 {
                while trainer.step() < 3 {
                    trainer.train_step(&x, &t, LR).unwrap();
                }
                // Damage the persisted step-2 snapshot, then die.
                corrupt(&dir.join("elastic-step-2.json"));
                trainer.comm().declare_dead(rank);
                return None;
            }
            while trainer.step() < 6 {
                trainer.train_step(&x, &t, LR).unwrap();
            }
            let fallback_typed = trainer.last_fallback().map(|e| {
                matches!(
                    e,
                    MoeError::CorruptCheckpoint { .. } | MoeError::BadInput { .. }
                )
            });
            let ckpt = trainer.model().checkpoint_global().unwrap();
            let experts = &ckpt.blocks[0].moe.experts;
            let finite = experts
                .iter()
                .flatten()
                .all(|w| w.data().iter().all(|v| v.is_finite()));
            let nonzero = experts
                .iter()
                .flatten()
                .any(|w| w.data().iter().any(|v| *v != 0.0));
            Some((fallback_typed, finite && nonzero, trainer.evictions()))
        }
    });
    for r in results.iter().take(2) {
        let (fallback_typed, healthy, evictions) = (*r).expect("survivor finished");
        assert_eq!(
            fallback_typed,
            Some(true),
            "fallback must be recorded with a typed error"
        );
        assert!(healthy, "restored weights must be finite and non-zero");
        assert_eq!(evictions, 1);
    }
    let snap = session.snapshot();
    assert_eq!(
        snap.counter(obs::names::ELASTIC_CHECKPOINT_FALLBACKS),
        2,
        "each survivor falls back exactly once"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_disk_checkpoint_falls_back_to_memory() {
    corrupt_checkpoint_scenario("truncated", |path| {
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::write(path, &text[..text.len() / 2]).unwrap();
    });
}

#[test]
fn nan_disk_checkpoint_falls_back_to_memory() {
    corrupt_checkpoint_scenario("nan", |path| {
        let text = std::fs::read_to_string(path).unwrap();
        // Replace the first numeric payload with an overflow literal the
        // loader must reject as non-finite.
        let damaged = text.replacen("\"data\":[", "\"data\":[1e999,", 1);
        assert_ne!(damaged, text, "checkpoint JSON shape changed");
        std::fs::write(path, damaged).unwrap();
    });
}

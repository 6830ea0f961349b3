//! Lock-doctor clean-run guarantee: the full 4-rank elastic recovery
//! path — training, a permanent rank death, eviction agreement, world
//! reconfiguration, re-sharding, rollback, and the post-recovery steps —
//! must produce **zero** potential-deadlock cycles and zero blocking
//! hazards. This is the false-positive budget of the doctor: if the
//! real protocol trips it, the detector (or the protocol) is wrong.
//!
//! Lives in its own test binary: the doctor's state is process-global,
//! and this test must not see cycles deliberately constructed by the
//! shim's own hazard tests.

use std::time::Duration;

use collectives::{run_world_within, CommWorld, HybridTopology};
use fsmoe::config::MoeConfig;
use models::{ElasticTrainer, MoeTransformer};
use parking_lot::lock_doctor;
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

fn rank_data(cfg: &MoeConfig, old_rank: usize) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(1000 + old_rank as u64);
    let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    let t = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    (x, t)
}

#[test]
fn four_rank_elastic_recovery_is_hazard_free() {
    lock_doctor::enable();
    let _ = lock_doctor::take_report();
    let _check = lock_doctor::check_guard();

    // The 4-rank scenario from the elastic bit-identity theorem, on its
    // two-block attention model: rank 2 dies for good after step 5,
    // survivors evict and run to step 8.
    let cfg = config(12);
    let (victim, die_after, total) = (2usize, 5usize, 8usize);
    let world = CommWorld::new(4).with_deadline(Duration::from_secs(5));
    let results = run_world_within(world, BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let topo = HybridTopology::flat(4).unwrap();
            let model = MoeTransformer::new(&cfg, Some(2), 2, &comm, &topo, SEED).unwrap();
            let mut trainer = ElasticTrainer::new(
                model,
                comm,
                TensorRng::seed_from(7000 + rank as u64),
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
            Some(trainer.evictions())
        }
    });

    // The run itself succeeded (one eviction per survivor)…
    assert!(results[victim].is_none());
    for (r, res) in results.iter().enumerate() {
        if r != victim {
            assert_eq!(*res, Some(1), "rank {r} must have completed eviction");
        }
    }

    // …and the doctor saw real lock traffic but no cycle, no hazard.
    let session = obs::session();
    let report = obs::publish_lock_doctor();
    assert!(
        report.is_clean(),
        "elastic recovery tripped the lock doctor:\n{}",
        report.render()
    );
    assert!(
        report.acquisitions > 0,
        "doctor must have observed the run's locking"
    );
    assert!(
        !report.sites.is_empty(),
        "creation sites must have been interned"
    );
    let snap = session.snapshot();
    assert_eq!(snap.counter(obs::names::LOCKDOCTOR_CYCLES), 0);
    assert_eq!(snap.counter(obs::names::LOCKDOCTOR_HAZARDS), 0);
    assert_eq!(
        snap.gauges[obs::names::LOCKDOCTOR_ACQUISITIONS.as_str()],
        report.acquisitions as f64
    );
    assert!(snap.gauges[obs::names::LOCKDOCTOR_SITES.as_str()] >= 1.0);
}

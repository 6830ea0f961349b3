//! The gray-failure scenario the `health` gate times and the
//! `gray_failure` example narrates: four ranks train a 12-expert
//! configured layer under the elastic trainer with the §12 defense armed
//! while rank 3 is browned out (~5 ms per collective), plus the fresh
//! 3-rank world both compare the survivors against bit for bit.

use std::time::Duration;

use collectives::{run_world, Brownout, CommWorld, Communicator, FaultInjector, HybridTopology};
use fsmoe::checkpoint::ModelCheckpoint;
use fsmoe::config::MoeConfig;
use models::{ElasticTrainer, HealthPolicy, MoeTransformer};
use tensor::{Tensor, TensorRng};

/// Model seed shared by every world of the scenario.
pub const SEED: u64 = 7;
/// Ranks in the browned-out world.
pub const WORLD: usize = 4;
/// The browned-out rank — the highest, so survivor numbering (data and
/// RNG streams included) is unchanged by its eviction.
pub const VICTIM: usize = 3;
/// Snapshot only at step 0 (see [`trainer`]).
const SNAPSHOT_ONCE: usize = 100_000;
/// Learning rate of every step.
pub const LR: f32 = 0.05;
/// Stall the victim adds to every collective it joins, ms.
pub const BROWNOUT_MS: u64 = 5;

/// 12 experts: 3 per rank healthy, 4 per rank after the eviction —
/// divisible both ways so the fresh-world comparison can build.
pub fn config() -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(8)
        .embed_dim(16)
        .hidden_dim(32)
        .num_experts(12)
        .top_k(2)
        .no_drop()
        .build()
        .expect("scenario config is valid")
}

/// The input and target batch of (pre-eviction) rank `old_rank`.
pub fn rank_data(cfg: &MoeConfig, old_rank: usize) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(1000 + old_rank as u64);
    let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    let t = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    (x, t)
}

/// This rank's replica of the scenario's model over `comm`'s world.
fn model(cfg: &MoeConfig, comm: &Communicator) -> MoeTransformer {
    let topo = HybridTopology::flat(comm.world_size()).expect("flat topology");
    MoeTransformer::new(cfg, None, 1, comm, &topo, SEED).expect("scenario model")
}

/// A trainer for `comm`'s rank. Snapshots only at step 0, so the
/// eviction's rollback always lands on the initial state — the snapshot
/// [`fresh_reference`] resumes.
pub fn trainer(cfg: &MoeConfig, comm: Communicator) -> ElasticTrainer {
    let route_rng = route_rng_for(comm.rank());
    ElasticTrainer::new(model(cfg, &comm), comm, route_rng, SNAPSHOT_ONCE)
        .expect("scenario trainer")
}

fn route_rng_for(old_rank: usize) -> TensorRng {
    TensorRng::seed_from(7000 + old_rank as u64)
}

/// The world with [`VICTIM`] browned out.
pub fn browned_out_world() -> CommWorld {
    let spec = Brownout::steady(Duration::from_millis(BROWNOUT_MS));
    CommWorld::new(WORLD)
        .with_deadline(Duration::from_secs(5))
        .with_faults(FaultInjector::new().brownout(VICTIM, spec, 11))
}

/// A [`trainer`] with the gray-failure defense armed: an aggressive
/// ladder (so it escalates within a dozen steps) and a pricing horizon
/// long enough that eviction always amortizes.
pub fn defended_trainer(cfg: &MoeConfig, comm: Communicator) -> ElasticTrainer {
    let ladder = HealthPolicy {
        window: 2,
        threshold: 1.5,
        sustain: 2,
        cooldown: 1,
    };
    trainer(cfg, comm).with_health(ladder, 100_000)
}

/// A fresh 3-rank world resumed from the scenario's initial snapshot
/// and run to `total` steps — the bit-identity reference.
pub fn fresh_reference(cfg: &MoeConfig, total: usize) -> ModelCheckpoint {
    let initial = run_world(CommWorld::new(WORLD), {
        let cfg = cfg.clone();
        move |comm| {
            trainer(&cfg, comm)
                .model()
                .checkpoint_global()
                .expect("initial checkpoint")
        }
    });
    let results = run_world(CommWorld::new(WORLD - 1), {
        let cfg = cfg.clone();
        let snapshot = initial[0].clone();
        move |comm| {
            let rank = comm.rank();
            let route_rng = route_rng_for(rank);
            let model = model(&cfg, &comm);
            let mut trainer =
                ElasticTrainer::resume(model, comm, &snapshot, route_rng, 0, SNAPSHOT_ONCE)
                    .expect("fresh resume");
            let (x, t) = rank_data(&cfg, rank);
            while trainer.step() < total {
                trainer.train_step(&x, &t, LR).expect("fresh step");
            }
            trainer
                .model()
                .checkpoint_global()
                .expect("fresh checkpoint")
        }
    });
    assert!(
        results.iter().all(|r| *r == results[0]),
        "the fresh world must agree with itself"
    );
    results.into_iter().next().expect("three fresh ranks")
}

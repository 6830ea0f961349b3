//! Eviction-free migration properties: the headline bit-identity
//! theorem (a run that migrates a hot expert mid-training computes
//! exactly what the unmigrated run computes), the straggler soak
//! ci.sh runs under the hang watchdog — collective delays on one rank
//! around the two migration steps change neither the migrated weights
//! nor the dropped-token count (zero) — and the all-or-nothing move: a
//! death at the weight broadcast installs the new placement nowhere.

use std::time::Duration;

use collectives::{
    run_world_within, CommError, CommWorld, Communicator, FaultInjector, HybridTopology,
};
use fsmoe::checkpoint::ModelCheckpoint;
use fsmoe::config::MoeConfig;
use fsmoe::MoeError;
use models::MoeTransformer;
use tensor::{Tensor, TensorRng};

const SEED: u64 = 33;
const LR: f32 = 0.1;
const BUDGET: Duration = Duration::from_secs(120);

/// Attention heads and depth of the model.
type Shape = (Option<usize>, usize);
/// The configured layer alone (the one-layer trainer's shape).
const LAYER: Shape = (None, 1);
/// Two attention + MoE blocks.
const MODEL: Shape = (Some(2), 2);

/// Each rank's collective count just before the first move, less one:
/// a step on the lone layer issues four AlltoAlls and a migration one
/// weight broadcast, so steps 0–1 are ops 0–7 and the first broadcast
/// is op 8.
const FIRST_MOVE_OP: usize = 7;
/// The same for the second move: steps 2–3 are ops 9–16 and the second
/// broadcast is op 17.
const SECOND_MOVE_OP: usize = 16;

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

fn rank_data(cfg: &MoeConfig, rank: usize) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(1000 + rank as u64);
    let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    let t = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
    (x, t)
}

fn route_rng_for(rank: usize) -> TensorRng {
    TensorRng::seed_from(7000 + rank as u64)
}

fn world(n: usize) -> CommWorld {
    CommWorld::new(n).with_deadline(Duration::from_secs(5))
}

/// An `n`-rank training run that performs the given `(step, block,
/// expert, to_position)` migrations just before the named steps. Returns
/// each rank's final global checkpoint, whether every block's placement
/// ended uniform, and the tokens the run dropped.
fn migrating_run(
    cfg: &MoeConfig,
    shape: Shape,
    n: usize,
    total: usize,
    migrations: Vec<(usize, usize, usize, usize)>,
) -> Vec<(ModelCheckpoint, bool, usize)> {
    migrating_run_in(world(n), cfg, shape, total, migrations)
}

/// [`migrating_run`] over a given world (one rank per member).
fn migrating_run_in(
    world: CommWorld,
    cfg: &MoeConfig,
    shape: Shape,
    total: usize,
    migrations: Vec<(usize, usize, usize, usize)>,
) -> Vec<(ModelCheckpoint, bool, usize)> {
    run_world_within(world, BUDGET, {
        let cfg = cfg.clone();
        move |comm| {
            let mut model = model(&cfg, shape, &comm);
            let mut route_rng = route_rng_for(comm.rank());
            let (x, t) = rank_data(&cfg, comm.rank());
            for step in 0..total {
                for &(at, block, expert, to) in &migrations {
                    if at == step {
                        model.layer_mut(block).migrate(expert, to, &comm).unwrap();
                    }
                }
                model.train_step(&x, &t, LR, &mut route_rng).unwrap();
            }
            let uniform = |b: &models::TransformerBlock| b.moe().expert_map().is_uniform();
            (
                model.checkpoint_global().unwrap(),
                model.blocks().iter().all(uniform),
                model.dropped_tokens(),
            )
        }
    })
}

/// **Headline property.** A 4-rank run that migrates a hot expert
/// mid-training (and a second expert later, stacking two moves)
/// finishes with weights **bit-identical** to the run that never
/// migrates: expert placement is pure data movement, so where an expert
/// lives can never change what it computes. On the lone configured
/// layer, and on a two-block attention model with one move per block.
#[test]
fn migration_is_bit_identical_to_unmigrated_run() {
    let cfg = config(8);
    let total = 6;
    for (shape, second_block) in [(LAYER, 0), (MODEL, 1)] {
        let baseline = migrating_run(&cfg, shape, 4, total, vec![]);
        // Expert 0 leaves position 0 after step 2; expert 7 joins
        // position 0 after step 4. Both moves leave their map
        // non-uniform: on one layer positions end with 1, 3, 2 and 2
        // experts.
        let moves = vec![(2, 0, 0, 1), (4, second_block, 7, 0)];
        let migrated = migrating_run(&cfg, shape, 4, total, moves);
        for rank in 0..4 {
            assert!(baseline[rank].1, "baseline stays on the block placement");
            assert!(!migrated[rank].1, "migrated placement must be non-uniform");
            assert_eq!(
                baseline[rank].0, migrated[rank].0,
                "{shape:?} rank {rank}: migrated run diverged from the unmigrated run"
            );
        }
    }
}

/// **Straggler soak.** The headline run's two moves on the lone layer
/// (expert 0 leaves position 0 after step 2; expert 7 joins it after
/// step 4), with `Delay` faults on one rank around both migration
/// steps: case `k` delays rank `k` on its collectives `FIRST_MOVE_OP + k`
/// and `SECOND_MOVE_OP + k`, which walk from the AlltoAll before each
/// move through the weight broadcast into the next step. The delays
/// sit far under the 5 s deadline, so nothing may change: every rank
/// ends bit-identical to the fault-free migrated run, on the same
/// non-uniform placement, with no token dropped. Delay faults only — a
/// Kill drives eviction (soaked in `elastic.rs`) and a DropPayload
/// would drop tokens by design.
#[test]
fn migration_under_straggler_delays_matches_the_fault_free_run() {
    let cfg = config(8);
    let total = 6;
    let moves = vec![(2, 0, 0, 1), (4, 0, 7, 0)];
    let clean = migrating_run(&cfg, LAYER, 4, total, moves.clone());
    for k in 0..4 {
        let injector = FaultInjector::new()
            .delay(k, FIRST_MOVE_OP + k, Duration::from_millis(30))
            .delay(k, SECOND_MOVE_OP + k, Duration::from_millis(50));
        let faulty = migrating_run_in(
            world(4).with_faults(injector),
            &cfg,
            LAYER,
            total,
            moves.clone(),
        );
        for (r, (ck, uniform, dropped)) in faulty.iter().enumerate() {
            assert_eq!(
                *ck, clean[r].0,
                "case {k} rank {r}: straggler run diverged from the fault-free run"
            );
            assert!(
                !uniform,
                "case {k} rank {r}: placement must end non-uniform"
            );
            assert_eq!(*dropped, 0, "case {k} rank {r}: no token may drop");
        }
    }
}

/// **All or nothing.** The weight broadcast is the move's one world-wide
/// rendezvous, so a death there fails the move on every rank. Expert 0
/// moves from rank 0 to rank 1 after two steps; case by case the source
/// (0), the destination (1) or a bystander (2) dies as it enters the
/// broadcast (`FIRST_MOVE_OP + 1`). Every rank's `migrate` returns
/// `RankDown` naming the victim, and no rank installs the new map or
/// adds or drops a shard.
#[test]
fn death_at_the_weight_broadcast_installs_nothing() {
    let cfg = config(8);
    for victim in [0, 1, 2] {
        let injector = FaultInjector::new().kill(victim, FIRST_MOVE_OP + 1);
        let results = run_world_within(world(4).with_faults(injector), BUDGET, {
            let cfg = cfg.clone();
            move |comm| {
                let mut model = model(&cfg, LAYER, &comm);
                let mut route_rng = route_rng_for(comm.rank());
                let (x, t) = rank_data(&cfg, comm.rank());
                for _ in 0..2 {
                    model.train_step(&x, &t, LR, &mut route_rng).unwrap();
                }
                let layer = model.layer_mut(0);
                let map = layer.expert_map().clone();
                let shards = layer.shards().len();
                let moved = layer.migrate(0, 1, &comm);
                (
                    moved,
                    *layer.expert_map() == map,
                    layer.shards().len() == shards,
                )
            }
        });
        for (r, (moved, same_map, same_shards)) in results.iter().enumerate() {
            assert!(
                matches!(moved, Err(MoeError::Comm(CommError::RankDown { rank })) if *rank == victim),
                "victim {victim} rank {r}: got {moved:?}"
            );
            assert!(same_map, "victim {victim} rank {r}: map must not change");
            assert!(
                same_shards,
                "victim {victim} rank {r}: shards must not change"
            );
        }
    }
}

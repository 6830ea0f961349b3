//! Eviction-free migration properties: the headline bit-identity
//! theorem (a run that migrates a hot expert mid-training computes
//! exactly what the unmigrated run computes) and the chaos+skew soak
//! ci.sh runs under the hang watchdog — Zipf-skewed workloads drive the
//! imbalance detector into at least one migration that strictly lowers
//! the max/mean position load, with zero dropped tokens.

use std::time::Duration;

use collectives::{run_world_within, CommWorld, Communicator, FaultInjector, HybridTopology};
use fsmoe::checkpoint::ModelCheckpoint;
use fsmoe::config::MoeConfig;
use fsmoe::gate::GShardGate;
use fsmoe::reshard::ExpertMap;
use models::{ElasticPolicy, ElasticTrainer, ImbalanceDetector, MigrationDecision, MoeTransformer};
use tensor::{Tensor, TensorRng};
use workloadgen::{Distribution, WorkloadGen};

const SEED: u64 = 33;
const LR: f32 = 0.1;
const BUDGET: Duration = Duration::from_secs(120);

/// Attention heads and depth of the model.
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
/// each rank's final global checkpoint and whether every block's
/// placement ended uniform.
fn migrating_run(
    cfg: &MoeConfig,
    shape: Shape,
    n: usize,
    total: usize,
    migrations: Vec<(usize, usize, usize, usize)>,
) -> Vec<(ModelCheckpoint, bool)> {
    run_world_within(world(n), BUDGET, {
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
            )
        }
    })
}

/// **Headline property.** A 4-rank run that migrates a hot expert
/// mid-training (and a second expert later, stacking two fences)
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

/// The same generator + gate every rank of the skew soak uses: the
/// gate is rebuilt from the layer's own construction seed, so the
/// calibrated batches steer the *actual* routing inside the trainer.
fn skew_generator(cfg: &MoeConfig, calib_seed: u64) -> WorkloadGen {
    let mut gate_rng = TensorRng::seed_from(SEED);
    let gate = GShardGate::new(cfg.embed_dim, cfg.num_experts, cfg.top_k, &mut gate_rng);
    WorkloadGen::calibrate(&gate, cfg.embed_dim, calib_seed).unwrap()
}

struct SoakOutcome {
    migrations: usize,
    last: Option<(usize, MigrationDecision)>,
    dropped: usize,
    checkpoint: ModelCheckpoint,
    /// max/mean position-load ratio of the final step's fleet-wide
    /// loads under (block placement, final placement).
    ratio_block: f64,
    ratio_final: f64,
    uniform: bool,
}

/// Zipf-skewed soak body: calibrated batches drive a real 4-rank
/// trainer with rebalancing enabled; returns what each rank saw.
fn skew_soak(n: usize, steps: usize, faults: Option<FaultInjector>) -> Vec<SoakOutcome> {
    let cfg = config(8);
    let mut w = world(n);
    if let Some(injector) = faults {
        w = w.with_faults(injector);
    }
    run_world_within(w, BUDGET, move |comm| {
        let rank = comm.rank();
        let mut trainer = ElasticTrainer::new(
            model(&cfg, LAYER, &comm),
            comm,
            route_rng_for(rank),
            ElasticPolicy::default(),
        )
        .unwrap()
        .with_rebalancing(ImbalanceDetector::new(2, 1.25, 3));
        // Same calibration seed everywhere: the batches differ per rank
        // only through the shared generator's deterministic stream, so
        // every rank observes the same fleet-wide skew.
        let mut gen = skew_generator(&cfg, 17);
        let dist = Distribution::Zipf { s: 2.0 };
        let (_, t) = rank_data(&cfg, rank);
        let mut last_loads = vec![0.0f64; cfg.num_experts];
        for _ in 0..steps {
            let x = gen.next_batch(&dist, cfg.tokens()).unwrap();
            trainer.train_step(&x, &t, LR).unwrap();
            // A migration inside the step clears the saved routing (on
            // every rank alike), so sample loads only when it survives.
            if let Some(routing) = trainer.model().blocks()[0].moe().last_routing() {
                let mut local: Vec<f32> =
                    routing.expert_loads().iter().map(|&l| l as f32).collect();
                trainer.comm().world_group().all_reduce(&mut local).unwrap();
                last_loads = local.iter().map(|&l| f64::from(l)).collect();
            }
        }
        let block = ExpertMap::block(cfg.num_experts, n).unwrap();
        let map = trainer.model().blocks()[0].moe().expert_map();
        SoakOutcome {
            migrations: trainer.migrations(),
            last: trainer.last_migration(),
            dropped: trainer.model().dropped_tokens(),
            ratio_block: ImbalanceDetector::ratio(&block, &last_loads),
            ratio_final: ImbalanceDetector::ratio(map, &last_loads),
            uniform: map.is_uniform(),
            checkpoint: trainer.model().checkpoint_global().unwrap(),
        }
    })
}

/// **Skew soak.** Under a sharp Zipf workload the detector must drive
/// at least one migration, the final placement must carry a strictly
/// lower max/mean position load than the block placement would under
/// the same routing, and graceful degradation must never fire.
#[test]
fn zipf_skew_drives_a_migration_that_reduces_imbalance() {
    let outcomes = skew_soak(4, 12, None);
    let first = &outcomes[0];
    assert!(
        first.migrations >= 1,
        "sustained Zipf skew must trigger a migration"
    );
    assert!(
        !first.uniform,
        "a migration makes the placement non-uniform"
    );
    assert!(
        first.ratio_final < first.ratio_block,
        "migration must strictly reduce max/mean position load: \
         {} (final) vs {} (block)",
        first.ratio_final,
        first.ratio_block
    );
    for (rank, o) in outcomes.iter().enumerate() {
        assert_eq!(o.dropped, 0, "rank {rank}: no token may drop");
        assert_eq!(
            o.migrations, first.migrations,
            "rank {rank}: migration counts must agree (SPMD)"
        );
        assert_eq!(o.last, first.last, "rank {rank}: decisions must agree");
        assert_eq!(
            o.checkpoint, first.checkpoint,
            "rank {rank}: checkpoints must agree"
        );
    }
}

/// **Chaos+skew soak.** The same detector-driven soak with seeded
/// straggler (Delay) faults injected into the collectives: a late rank
/// exercises fence withdrawal/retry timing but must not change the
/// outcome — every run completes (the ci.sh watchdog turns a hang into
/// exit 124), ranks agree, and nothing drops.
#[test]
fn skew_soak_survives_straggler_chaos() {
    for seed in 0u64..4 {
        // Deterministic per-seed straggler schedule: two delays on one
        // rank, early and mid-run. Delay faults only — a Kill would
        // trigger eviction (a different protocol, soaked elsewhere) and
        // a DropPayload would violate the no-dropped-tokens property.
        let rank = (seed as usize) % 4;
        let injector = FaultInjector::new()
            .delay(rank, 3 + seed as usize, Duration::from_millis(30))
            .delay(rank, 20 + 2 * seed as usize, Duration::from_millis(50));
        let outcomes = skew_soak(4, 8, Some(injector));
        let first = &outcomes[0];
        for (r, o) in outcomes.iter().enumerate() {
            assert_eq!(o.dropped, 0, "seed {seed} rank {r}: no token may drop");
            assert_eq!(
                o.migrations, first.migrations,
                "seed {seed} rank {r}: migration counts must agree"
            );
            assert_eq!(
                o.checkpoint, first.checkpoint,
                "seed {seed} rank {r}: checkpoints must agree"
            );
        }
    }
}

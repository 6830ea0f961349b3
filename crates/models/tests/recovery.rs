//! The trainer's rollback guarantee: a training run that faults mid-step
//! and rolls back to the last snapshot ends with weights
//! **bit-identical** to a run that never faulted — on one rank and on
//! two, on the lone configured layer and on a two-block attention model.
//! Exactness — not approximate closeness — is what lets a resumed job
//! keep its loss curve.

use std::path::{Path, PathBuf};
use std::time::Duration;

use collectives::{run_world_within, CommError, CommWorld, Communicator, HybridTopology};
use fsmoe::checkpoint::ModelCheckpoint;
use fsmoe::config::MoeConfig;
use fsmoe::expert::build_expert;
use fsmoe::gate::GShardGate;
use fsmoe::hooks::{MoeHooks, NoopHooks};
use fsmoe::layer::MoeLayer;
use fsmoe::order::TutelOrdering;
use fsmoe::routing::Routing;
use fsmoe::{MoeError, Result};
use models::attention::MultiHeadAttention;
use models::{ElasticTrainer, MoeTransformer, TransformerBlock};
use tensor::{Tensor, TensorRng};

/// Attention heads and depth of the model under the trainer.
type Shape = (Option<usize>, usize);
/// The configured layer alone (the one-layer trainer's shape).
const LAYER: Shape = (None, 1);
/// Two attention + MoE blocks.
const MODEL: Shape = (Some(2), 2);

const STEPS: usize = 9;
const INTERVAL: usize = 3;
const LR: f32 = 0.05;
const BUDGET: Duration = Duration::from_secs(60);

fn config() -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(8)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(4)
        .top_k(2)
        .no_drop()
        .build()
        .unwrap()
}

/// A hook that fails `before_combine` on one specific invocation —
/// mid-step, *after* the gate consumed routing randomness and the
/// dispatch exchange ran, so naive resumption without RNG rollback
/// would silently diverge. The fault names this rank itself (its own
/// link flapped), so the trainer has no peer to evict and propagates.
#[derive(Debug)]
struct FaultOnce {
    rank: usize,
    calls: usize,
    fail_at: Option<usize>,
}

impl MoeHooks for FaultOnce {
    fn before_combine(&mut self, _buffer: &mut Tensor, _routing: &Routing) -> Result<()> {
        let call = self.calls;
        self.calls += 1;
        if self.fail_at == Some(call) {
            self.fail_at = None; // transient fault: next attempt succeeds
            return Err(MoeError::Comm(CommError::RankDown { rank: self.rank }));
        }
        Ok(())
    }
}

/// Builds the model `MoeTransformer::new` would, from parts, but with
/// the *noisy* gate variant, so routing consumes RNG every step — the
/// trainer must then restore the stream position, not just weights, for
/// replay to be exact — and, in the last block, a hook set failing at
/// call `fail_at` (one call per step, after every earlier block ran).
fn noisy_model(
    cfg: &MoeConfig,
    (heads, depth): Shape,
    seed: u64,
    comm: &Communicator,
    fail_at: Option<usize>,
) -> MoeTransformer {
    let mut rng = TensorRng::seed_from(seed);
    let topo = HybridTopology::flat(comm.world_size()).unwrap();
    let blocks = (0..depth)
        .map(|b| {
            let attention = heads.map(|h| {
                MultiHeadAttention::new(cfg.embed_dim, h, &mut rng)
                    .unwrap()
                    .causal()
            });
            let gate =
                GShardGate::new(cfg.embed_dim, cfg.num_experts, cfg.top_k, &mut rng).with_noise();
            let experts = (0..cfg.num_experts)
                .map(|_| build_expert(cfg.ffn, cfg.embed_dim, cfg.hidden_dim, &mut rng))
                .collect();
            let hooks: Box<dyn MoeHooks> = match fail_at {
                Some(_) if b + 1 == depth => Box::new(FaultOnce {
                    rank: comm.rank(),
                    calls: 0,
                    fail_at,
                }),
                _ => Box::new(NoopHooks),
            };
            let order = Box::new(TutelOrdering::new());
            let gate = Box::new(gate);
            let moe = MoeLayer::with_modules(cfg, gate, order, experts, hooks, comm, &topo);
            TransformerBlock::from_parts(attention, moe.unwrap())
        })
        .collect();
    MoeTransformer::from_blocks(blocks, comm, &topo).unwrap()
}

/// Per-step input and target, deterministic in step and rank (a
/// replayable data loader — the other half of exact recovery).
fn step_batch(cfg: &MoeConfig, step: usize, rank: usize) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(1000 + (step * 16 + rank) as u64);
    let dims = [cfg.tokens(), cfg.embed_dim];
    (rng.normal(&dims, 0.0, 1.0), rng.normal(&dims, 0.0, 1.0))
}

/// Trains `STEPS` steps on every rank of a `ranks`-rank world, rolling
/// back on a fault; returns each rank's final full checkpoint and how
/// many rollbacks it took.
fn run(
    shape: Shape,
    ranks: usize,
    seed: u64,
    fail_at: Option<usize>,
    dir: Option<PathBuf>,
) -> Vec<(ModelCheckpoint, usize)> {
    let cfg = config();
    run_world_within(CommWorld::new(ranks), BUDGET, move |comm| {
        let rank = comm.rank();
        let model = noisy_model(&cfg, shape, seed, &comm, fail_at);
        let mut trainer =
            ElasticTrainer::new(model, comm, TensorRng::seed_from(7), INTERVAL).unwrap();
        if let Some(dir) = &dir {
            trainer = trainer.with_checkpoint_dir(dir.clone());
        }
        let mut rollbacks = 0;
        while trainer.step() < STEPS {
            let (x, target) = step_batch(&cfg, trainer.step(), rank);
            match trainer.train_step(&x, &target, LR) {
                Ok(_) => {}
                Err(MoeError::Comm(CommError::RankDown { rank: r })) if r == rank => {
                    let resumed = trainer.rollback().unwrap();
                    assert_eq!(resumed, trainer.step());
                    assert_eq!(resumed, trainer.last_snapshot_step());
                    rollbacks += 1;
                }
                Err(e) => panic!("unexpected failure: {e:?}"),
            }
        }
        assert_eq!(trainer.evictions(), 0, "a rollback is not an eviction");
        assert!(
            trainer.last_fallback().is_none(),
            "{:?}",
            trainer.last_fallback()
        );
        (trainer.model().checkpoint_global().unwrap(), rollbacks)
    })
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsmoe-recovery-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn rollback_reproduces_fault_free_run_bit_exactly() {
    for (shape, ranks) in [(LAYER, 1), (LAYER, 2), (MODEL, 1), (MODEL, 2)] {
        // Reference: no faults, straight through.
        let clean = run(shape, ranks, 42, None, None);
        // Faulty: step 7's combine fails mid-step (after 7 clean steps
        // the hook has seen 7 calls) on every rank, forcing a rollback
        // to the step-6 snapshot and a replay of steps 6..9.
        let recovered = run(shape, ranks, 42, Some(7), None);
        for ((clean_weights, clean_rollbacks), (weights, rollbacks)) in clean.iter().zip(&recovered)
        {
            assert_eq!(*clean_rollbacks, 0);
            assert_eq!(*rollbacks, 1, "exactly one fault was injected");
            // Bit-identical: PartialEq on checkpoints compares raw f32 data.
            assert_eq!(
                clean_weights, weights,
                "{shape:?}, {ranks} rank(s): post-rollback weights must match the fault-free \
                 run exactly"
            );
        }
    }
}

#[test]
fn rollback_from_disk_checkpoints_is_bit_exact() {
    for ranks in [1, 2] {
        let dir = temp_dir(&format!("disk-{ranks}"));
        let clean = run(LAYER, ranks, 11, None, None);
        // fault in step 4: roll back to the step-3 snapshot, which rank 0
        // persisted and every rank prefers over its in-memory copy
        let recovered = run(LAYER, ranks, 11, Some(4), Some(dir.clone()));
        for ((clean_weights, _), (weights, rollbacks)) in clean.iter().zip(&recovered) {
            assert_eq!(*rollbacks, 1);
            assert_eq!(clean_weights, weights, "{ranks} rank(s)");
        }
        // Snapshots landed on disk at the interval marks, fully readable.
        let on_disk = ModelCheckpoint::load(&dir.join("elastic-step-3.json")).unwrap();
        assert!(on_disk.blocks[0].moe.num_params() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn rollback_before_first_step_falls_back_to_memory() {
    // A fault can land before any snapshot has been persisted: with a
    // checkpoint directory configured but no file on disk yet, rollback
    // must use the in-memory snapshot instead of failing on a missing
    // file — and a file that *is* there but corrupt is a typed fallback,
    // never garbage weights.
    let cfg = config();
    let dir = temp_dir("fresh");
    let comm = Communicator::solo();
    let model = noisy_model(&cfg, LAYER, 23, &comm, None);
    let initial = model.checkpoint_global().unwrap();
    let mut trainer = ElasticTrainer::new(model, comm, TensorRng::seed_from(1), INTERVAL)
        .unwrap()
        .with_checkpoint_dir(dir.clone());
    assert_eq!(trainer.rollback().unwrap(), 0);
    assert!(
        trainer.last_fallback().is_none(),
        "a missing file is not corruption"
    );
    assert_eq!(trainer.model().checkpoint_global().unwrap(), initial);

    // Training proceeds normally afterwards and persists at the marks.
    for step in 0..=INTERVAL {
        let (x, target) = step_batch(&cfg, step, 0);
        trainer.train_step(&x, &target, LR).unwrap();
    }
    let path = dir.join(format!("elastic-step-{INTERVAL}.json"));
    let on_disk = ModelCheckpoint::load(&path).unwrap();

    // Tear the file: rollback distrusts it, says why, and restores the
    // same weights from memory.
    truncate(&path);
    assert_eq!(trainer.rollback().unwrap(), INTERVAL);
    assert!(
        matches!(
            trainer.last_fallback(),
            Some(MoeError::CorruptCheckpoint { .. })
        ),
        "{:?}",
        trainer.last_fallback()
    );
    assert_eq!(trainer.model().checkpoint_global().unwrap(), on_disk);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn truncate(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::write(path, &text[..text.len() / 2]).unwrap();
}

#[test]
fn without_rng_rollback_the_stream_would_diverge() {
    // Sanity check on the test's own sharpness: consuming an extra draw
    // from the routing RNG (what a fault without rollback does) changes
    // the weights. If this ever stops holding, the bit-exactness tests
    // above stop proving anything.
    let cfg = config();
    let run = |stray_draws: usize| {
        let mut model = noisy_model(&cfg, LAYER, 5, &Communicator::solo(), None);
        let mut rng = TensorRng::seed_from(9);
        for _ in 0..stray_draws {
            let _ = rng.normal_scalar();
        }
        for step in 0..3 {
            let (x, target) = step_batch(&cfg, step, 0);
            model.train_step(&x, &target, LR, &mut rng).unwrap();
        }
        model.checkpoint_global().unwrap()
    };
    assert_ne!(
        run(0),
        run(1),
        "RNG stream position must matter for routing"
    );
}

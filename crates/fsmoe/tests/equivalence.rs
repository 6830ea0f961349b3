//! The crate's central correctness claim, and the layer's own contract
//! tests, in one suite: there is one MoE layer, and spreading it over
//! ranks (EP AlltoAll + ESP sharding, Fig. 2 of the paper) never changes
//! the numbers. The one-rank layer — whose exchange is the identity over
//! a pad-free order buffer — is the reference; every rank of every world
//! shape must reproduce it on that rank's token block. Every swappable
//! seam (ordering, hooks) is honoured on every world shape.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use collectives::{run_ranks, Communicator, HybridTopology, ParallelDims};
use fsmoe::config::{FfnKind, MoeConfig};
use fsmoe::expert::{build_expert, Expert};
use fsmoe::gate::GShardGate;
use fsmoe::hooks::{MoeHooks, NoopHooks, QuantizeHooks};
use fsmoe::layer::{MoeGrads, MoeLayer};
use fsmoe::order::{GShardOrdering, OrderFn, TutelOrdering};
use fsmoe::reshard::{ExpertMap, ReshardPlan};
use fsmoe::routing::Routing;
use fsmoe::{MoeError, Result};
use tensor::{Tensor, TensorRng};

const SEED: u64 = 1234;

/// The world shapes the one layer must agree across.
#[derive(Debug, Clone, Copy, PartialEq)]
enum World {
    /// One rank: the identity exchange (the reference).
    One,
    /// Two ranks, pure expert parallelism.
    Two,
    /// The paper's Fig. 2: four ranks, `ep = 2`, `esp = 2`.
    Fig2,
}

const WORLDS: [World; 3] = [World::One, World::Two, World::Fig2];

impl World {
    fn ranks(self) -> usize {
        match self {
            World::One => 1,
            World::Two => 2,
            World::Fig2 => 4,
        }
    }

    fn topology(self) -> HybridTopology {
        match self {
            World::One | World::Two => HybridTopology::flat(self.ranks()).unwrap(),
            World::Fig2 => {
                let dims = ParallelDims {
                    dp: 2,
                    mp: 2,
                    ep: 2,
                    esp: 2,
                };
                HybridTopology::new(2, 2, dims).unwrap()
            }
        }
    }

    /// ESP sharding splits each expert's hidden dimension, so shard
    /// partials are summed in a different order than the full expert's
    /// GEMM; without it rows are computed exactly as on one rank.
    fn bit_exact(self) -> bool {
        self != World::Fig2
    }

    /// Runs `f` on every rank of this world.
    fn run<T, F>(self, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Communicator, HybridTopology) -> T + Send + Sync + 'static,
    {
        run_ranks(self.ranks(), move |comm| f(comm, self.topology()))
    }
}

fn config(ffn: FfnKind, num_experts: usize, top_k: usize) -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(6)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(num_experts)
        .top_k(top_k)
        .no_drop()
        .ffn(ffn)
        .build()
        .unwrap()
}

/// A one-rank layer.
fn local(cfg: &MoeConfig, seed: u64) -> MoeLayer {
    MoeLayer::gshard(cfg, &Communicator::solo(), &World::One.topology(), seed).unwrap()
}

/// The per-rank input block, deterministic in the rank.
fn input_block(cfg: &MoeConfig, rank: usize) -> Tensor {
    let mut rng = TensorRng::seed_from(9000 + rank as u64);
    rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0)
}

/// One forward + backward of `layer` on `rank`'s block.
fn step(layer: &mut MoeLayer, cfg: &MoeConfig, rank: usize) -> (Tensor, MoeGrads) {
    let x = input_block(cfg, rank);
    let y = layer.forward(&x, &mut TensorRng::seed_from(0)).unwrap();
    let grads = layer.backward(&Tensor::ones(y.dims())).unwrap();
    (y, grads)
}

fn assert_same(world: World, got: &Tensor, want: &Tensor, what: &str) {
    if world.bit_exact() {
        assert_eq!(got, want, "{world:?}: {what} is not bit-identical");
    } else {
        assert!(
            got.allclose(want, 1e-4),
            "{world:?}: {what} diverged, max diff {}",
            got.max_abs_diff(want).unwrap()
        );
    }
}

#[test]
fn every_world_matches_the_one_rank_layer() {
    for ffn in [FfnKind::Gpt, FfnKind::Mixtral] {
        let cfg = config(ffn, 2, 1);
        for world in WORLDS {
            // reference: the one-rank layer over each rank's block in turn
            let mut reference = local(&cfg, SEED);
            let want: Vec<_> = (0..world.ranks())
                .map(|r| step(&mut reference, &cfg, r))
                .collect();
            let cfg2 = cfg.clone();
            let got = world.run(move |comm, topo| {
                let mut layer = MoeLayer::gshard(&cfg2, &comm, &topo, SEED).unwrap();
                step(&mut layer, &cfg2, comm.rank())
            });
            for (rank, ((y, grads), (want_y, want_grads))) in got.iter().zip(&want).enumerate() {
                assert_same(world, y, want_y, &format!("{ffn:?} rank {rank} output"));
                assert_same(
                    world,
                    &grads.input,
                    &want_grads.input,
                    &format!("{ffn:?} rank {rank} input grad"),
                );
            }
        }
    }
}

#[test]
fn weight_grads_match_the_reference_accumulated_over_blocks() {
    let cfg = config(FfnKind::Gpt, 2, 1);
    for world in WORLDS {
        // reference: accumulate expert weight grads over every block
        let mut reference = local(&cfg, SEED);
        let mut acc: Vec<Vec<Tensor>> = Vec::new();
        for r in 0..world.ranks() {
            let (_, grads) = step(&mut reference, &cfg, r);
            if acc.is_empty() {
                acc = grads.shards;
            } else {
                for (aw, bw) in acc.iter_mut().flatten().zip(grads.shards.iter().flatten()) {
                    aw.add_assign(bw).unwrap();
                }
            }
        }

        let cfg2 = cfg.clone();
        let results = world.run(move |comm, topo| {
            let mut layer = MoeLayer::gshard(&cfg2, &comm, &topo, SEED).unwrap();
            let ep_pos = topo
                .ep_group(comm.rank())
                .iter()
                .position(|&r| r == comm.rank());
            let shard = topo
                .esp_group(comm.rank())
                .iter()
                .position(|&r| r == comm.rank());
            let local_experts = layer.expert_map().experts_on(ep_pos.unwrap()).to_vec();
            (
                local_experts,
                shard.unwrap(),
                step(&mut layer, &cfg2, comm.rank()).1.shards,
            )
        });
        // GptFfn shard s of n holds w1 cols / w2 rows [s·H/n, (s+1)·H/n)
        let n_esp = world.topology().dims().esp;
        let width = cfg.hidden_dim / n_esp;
        for (rank, (local_experts, s, shards)) in results.into_iter().enumerate() {
            let (lo, hi) = (s * width, (s + 1) * width);
            for (&e, got) in local_experts.iter().zip(&shards) {
                let want_w1 = acc[e][0].slice_cols(lo, hi).unwrap();
                let want_w2 = acc[e][1].slice_rows(lo, hi).unwrap();
                assert!(
                    got[0].allclose(&want_w1, 1e-3),
                    "{world:?} rank {rank} expert {e} w1 grad diverged: {}",
                    got[0].max_abs_diff(&want_w1).unwrap()
                );
                assert!(
                    got[1].allclose(&want_w2, 1e-3),
                    "{world:?} rank {rank} expert {e} w2 grad"
                );
            }
        }
    }
}

#[test]
fn dealt_placement_on_one_rank_matches_the_block_map() {
    // After evictions a one-rank world can hold its experts in dealt
    // order while routing stays in global expert order: the pad-free
    // rows are grouped in shard order, so the exchange is still the
    // identity. Bit equality, weight gradients included, and not one
    // collective issued.
    for ffn in [FfnKind::Gpt, FfnKind::Mixtral] {
        let cfg = config(ffn, 4, 2);
        let (comm, topo) = (Communicator::solo(), World::One.topology());
        let mut block = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let mut dealt = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let order = vec![0, 2, 1, 3];
        let map = ExpertMap::from_lists(vec![order.clone()]).unwrap();
        let ckpt = dealt.checkpoint_global().unwrap();
        dealt
            .reshard(&ReshardPlan::custom(map), &ckpt, &comm, &topo)
            .unwrap();
        assert_ne!(dealt.expert_map(), block.expert_map());
        assert_eq!(dealt.checkpoint_global().unwrap(), ckpt);

        let session = obs::session();
        obs::set_thread_name("dealt one-rank layer");
        let (want_y, want) = step(&mut block, &cfg, 0);
        let (y, got) = step(&mut dealt, &cfg, 0);
        let snap = session.snapshot();
        drop(session);
        // other tests of this binary record into the session too
        let me = snap
            .threads
            .iter()
            .find(|(_, name)| *name == "dealt one-rank layer");
        let mine = |spans: Vec<&obs::SpanRecord>| {
            spans
                .iter()
                .filter(|s| Some(&s.tid) == me.map(|(tid, _)| tid))
                .count()
        };
        assert_eq!(mine(snap.spans_named(obs::names::SPAN_MOE_FORWARD)), 2);
        assert_eq!(mine(snap.spans_in(obs::names::CAT_COLLECTIVES)), 0);
        assert_eq!(y, want_y, "{ffn:?} output");
        assert_eq!(got.input, want.input, "{ffn:?} input grad");
        for (local, &e) in order.iter().enumerate() {
            assert_eq!(got.shards[local], want.shards[e], "{ffn:?} expert {e}");
        }
    }
}

#[test]
fn forward_preserves_shape_for_every_gate() {
    type Build = fn(&MoeConfig, &Communicator, &HybridTopology, u64) -> Result<MoeLayer>;
    let builders: [Build; 5] = [
        MoeLayer::gshard,
        MoeLayer::sigmoid,
        MoeLayer::xmoe,
        MoeLayer::softmoe,
        MoeLayer::expert_choice,
    ];
    let cfg = config(FfnKind::Gpt, 4, 2);
    for world in [World::One, World::Two] {
        for build in builders {
            let cfg = cfg.clone();
            for out in world.run(move |comm, topo| {
                let mut layer = build(&cfg, &comm, &topo, SEED).unwrap();
                let x = input_block(&cfg, comm.rank());
                let y = layer.forward(&x, &mut TensorRng::seed_from(1)).unwrap();
                assert_eq!(y.dims(), x.dims());
                y
            }) {
                assert!(out.data().iter().all(|v| v.is_finite()));
            }
        }
    }
}

/// The full set of `E` experts `MoeLayer::gshard(cfg, .., seed)` draws,
/// with its gate, for `with_modules`.
fn gshard_modules(cfg: &MoeConfig, seed: u64) -> (Box<GShardGate>, Vec<Box<dyn Expert>>) {
    let mut rng = TensorRng::seed_from(seed);
    let gate = GShardGate::new(cfg.embed_dim, cfg.num_experts, cfg.top_k, &mut rng);
    let experts = (0..cfg.num_experts)
        .map(|_| build_expert(cfg.ffn, cfg.embed_dim, cfg.hidden_dim, &mut rng))
        .collect();
    (Box::new(gate), experts)
}

fn gshard_with(
    cfg: &MoeConfig,
    order: Box<dyn OrderFn>,
    hooks: Box<dyn MoeHooks>,
    comm: &Communicator,
    topo: &HybridTopology,
) -> MoeLayer {
    let (gate, experts) = gshard_modules(cfg, SEED);
    MoeLayer::with_modules(cfg, gate, order, experts, hooks, comm, topo).unwrap()
}

#[test]
fn orderings_produce_identical_outputs() {
    let cfg = config(FfnKind::Gpt, 4, 2);
    for world in [World::One, World::Two] {
        let run = |order: fn() -> Box<dyn OrderFn>| {
            let cfg = cfg.clone();
            world.run(move |comm, topo| {
                let mut layer = gshard_with(&cfg, order(), Box::new(NoopHooks), &comm, &topo);
                step(&mut layer, &cfg, comm.rank()).0
            })
        };
        let tutel = run(|| Box::new(TutelOrdering::new()));
        let gshard = run(|| Box::new(GShardOrdering::new()));
        for (a, b) in tutel.iter().zip(&gshard) {
            assert!(a.allclose(b, 1e-4), "{world:?}");
        }
    }
}

/// Counts the calls that reach the ordering it wraps.
#[derive(Debug)]
struct CountingOrder {
    inner: TutelOrdering,
    /// `[order, inverse]` call counts.
    calls: Arc<[AtomicUsize; 2]>,
}

impl OrderFn for CountingOrder {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn order(&self, input: &Tensor, routing: &Routing) -> Result<Tensor> {
        self.calls[0].fetch_add(1, Ordering::SeqCst);
        self.inner.order(input, routing)
    }
    fn inverse(&self, expert_out: &Tensor, routing: &Routing) -> Result<Tensor> {
        self.calls[1].fetch_add(1, Ordering::SeqCst);
        self.inner.inverse(expert_out, routing)
    }
}

#[test]
fn the_installed_ordering_runs_on_every_world() {
    let cfg = config(FfnKind::Gpt, 4, 2);
    for world in [World::One, World::Two] {
        let cfg = cfg.clone();
        for calls in world.run(move |comm, topo| {
            let calls = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
            let order = Box::new(CountingOrder {
                inner: TutelOrdering::new(),
                calls: Arc::clone(&calls),
            });
            let mut layer = gshard_with(&cfg, order, Box::new(NoopHooks), &comm, &topo);
            let x = input_block(&cfg, comm.rank());
            layer.forward(&x, &mut TensorRng::seed_from(0)).unwrap();
            [0, 1].map(|i| calls[i].load(Ordering::SeqCst))
        }) {
            assert_eq!(
                calls,
                [1, 1],
                "{world:?}: order and i-order once per forward"
            );
        }
    }
}

/// Appends each hook's index to a shared base-8 call log.
#[derive(Debug)]
struct CallLog(Arc<AtomicU64>);

impl CallLog {
    fn push(&self, id: u64) -> Result<()> {
        let _ = self
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |log| Some(log * 8 + id));
        Ok(())
    }
}

impl MoeHooks for CallLog {
    fn before_moe_start(&mut self, _: &mut Tensor) -> Result<()> {
        self.push(1)
    }
    fn before_dispatch(&mut self, _: &mut Tensor, _: &Routing) -> Result<()> {
        self.push(2)
    }
    fn after_dispatch(&mut self, _: &mut Tensor, _: &Routing) -> Result<()> {
        self.push(3)
    }
    fn before_combine(&mut self, _: &mut Tensor, _: &Routing) -> Result<()> {
        self.push(4)
    }
    fn after_combine(&mut self, _: &mut Tensor, _: &Routing) -> Result<()> {
        self.push(5)
    }
    fn before_moe_end(&mut self, _: &mut Tensor) -> Result<()> {
        self.push(6)
    }
}

#[test]
fn hooks_are_invoked() {
    // on the identity exchange and on the wire path alike: all six fire,
    // in order; a no-op set changes nothing; quantisation perturbs
    let cfg = config(FfnKind::Gpt, 4, 2);
    for world in [World::One, World::Two] {
        let run = |hooks: fn() -> Box<dyn MoeHooks>| {
            let cfg = cfg.clone();
            world.run(move |comm, topo| {
                let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
                layer.set_hooks(hooks());
                step(&mut layer, &cfg, comm.rank()).0
            })
        };
        let cfg2 = cfg.clone();
        let plain = world.run(move |comm, topo| {
            let mut layer = MoeLayer::gshard(&cfg2, &comm, &topo, SEED).unwrap();
            step(&mut layer, &cfg2, comm.rank()).0
        });
        assert_eq!(run(|| Box::new(NoopHooks)), plain, "{world:?}");
        for (a, b) in plain.iter().zip(&run(|| Box::new(QuantizeHooks::new(0.5)))) {
            assert!(
                !a.allclose(b, 1e-6),
                "{world:?}: quantisation must perturb output"
            );
        }

        let cfg2 = cfg.clone();
        for log in world.run(move |comm, topo| {
            let log = Arc::new(AtomicU64::new(0));
            let hooks = Box::new(CallLog(Arc::clone(&log)));
            let order = Box::new(TutelOrdering::new());
            let mut layer = gshard_with(&cfg2, order, hooks, &comm, &topo);
            step(&mut layer, &cfg2, comm.rank());
            log.load(Ordering::SeqCst)
        }) {
            assert_eq!(log, 0o123456, "{world:?}: hook order");
        }
    }
}

#[test]
fn expert_weight_grads_match_finite_difference() {
    let cfg = MoeConfig::builder()
        .batch_size(1)
        .seq_len(4)
        .embed_dim(4)
        .hidden_dim(8)
        .num_experts(2)
        .top_k(1)
        .no_drop()
        .build()
        .unwrap();
    let (comm, topo) = (Communicator::solo(), World::One.topology());
    let mut layer = MoeLayer::sigmoid(&cfg, &comm, &topo, 2).unwrap();
    let mut rng = TensorRng::seed_from(2);
    let input = rng.normal(&[4, 4], 0.0, 1.0);

    let out = layer.forward(&input, &mut rng).unwrap();
    let grads = layer.backward(&Tensor::ones(out.dims())).unwrap();

    // finite difference on one weight of expert 0 (routing is
    // independent of expert weights, so fd is exact here); the nudge
    // goes through apply_grads with a one-hot "gradient"
    let h = 1e-2f32;
    let loss =
        |layer: &mut MoeLayer, rng: &mut TensorRng| layer.forward(&input, rng).unwrap().sum();
    let mut nudge = MoeGrads {
        input: Tensor::zeros(&[4, 4]),
        shards: grads
            .shards
            .iter()
            .map(|ws| ws.iter().map(|w| Tensor::zeros(w.dims())).collect())
            .collect(),
    };
    nudge.shards[0][0].data_mut()[0] = 1.0;
    layer.apply_grads(&nudge, -h).unwrap(); // +h
    let lp = loss(&mut layer, &mut rng);
    layer.apply_grads(&nudge, 2.0 * h).unwrap(); // -h from original
    let lm = loss(&mut layer, &mut rng);
    let fd = (lp - lm) / (2.0 * h);
    let analytic = grads.shards[0][0].data()[0];
    assert!(
        (fd - analytic).abs() < 5e-2,
        "fd {fd} vs analytic {analytic}"
    );
}

#[test]
fn misuse_is_rejected() {
    let cfg = config(FfnKind::Gpt, 4, 2);
    let (comm, topo) = (Communicator::solo(), World::One.topology());
    let mut layer = local(&cfg, 3);
    let mut rng = TensorRng::seed_from(9);
    // backward before any forward
    assert!(matches!(
        layer.backward(&Tensor::zeros(&[6, 8])),
        Err(MoeError::NoForwardState)
    ));
    // input shape
    assert!(layer.forward(&Tensor::zeros(&[4, 5]), &mut rng).is_err());
    assert!(layer.forward(&Tensor::zeros(&[8]), &mut rng).is_err());

    let with = |gate: GShardGate, experts: Vec<Box<dyn Expert>>| {
        let order = Box::new(TutelOrdering::new());
        MoeLayer::with_modules(
            &cfg,
            Box::new(gate),
            order,
            experts,
            Box::new(NoopHooks),
            &comm,
            &topo,
        )
    };
    // wrong expert count
    let (gate, mut experts) = gshard_modules(&cfg, 6);
    experts.truncate(1);
    assert!(with(*gate, experts).is_err());
    // wrong gate width
    let (_, experts) = gshard_modules(&cfg, 6);
    assert!(with(GShardGate::new(cfg.embed_dim, 2, 1, &mut rng), experts).is_err());
    // experts that do not tile the EP positions
    let three = config(FfnKind::Gpt, 3, 1);
    for r in World::Two.run(move |comm, topo| MoeLayer::gshard(&three, &comm, &topo, 1).is_err()) {
        assert!(r, "3 experts over 2 EP positions must be rejected");
    }
}

#[test]
fn sgd_training_reduces_loss_on_every_world() {
    // end-to-end: a few training steps, loss = sum(output) must drop
    for ffn in [FfnKind::Gpt, FfnKind::Mixtral] {
        let cfg = config(ffn, 2, 1);
        for world in WORLDS {
            let cfg = cfg.clone();
            for (y0, y1) in world.run(move |comm, topo| {
                let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
                let x = input_block(&cfg, comm.rank());
                let mut rng = TensorRng::seed_from(0);
                let y0 = layer.forward(&x, &mut rng).unwrap().sum();
                for _ in 0..3 {
                    let y = layer.forward(&x, &mut rng).unwrap();
                    let grads = layer.backward(&Tensor::ones(y.dims())).unwrap();
                    layer.apply_grads(&grads, 0.02).unwrap();
                }
                (y0, layer.forward(&x, &mut rng).unwrap().sum())
            }) {
                assert!(y1 < y0, "{ffn:?} {world:?}: loss should drop: {y1} !< {y0}");
            }
        }
    }
}

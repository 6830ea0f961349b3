//! Graceful degradation of the distributed MoE layer under injected
//! faults: a dead EP peer costs the affected exchange's tokens (the
//! paper's capacity-drop semantics), never the training step — and
//! never a hang.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use collectives::{
    run_world_within, CommError, CommWorld, FaultInjector, HybridTopology, ParallelDims,
};
use fsmoe::config::MoeConfig;
use fsmoe::dist::FaultPolicy;
use fsmoe::hooks::{MoeHooks, NoopHooks};
use fsmoe::layer::MoeLayer;
use fsmoe::routing::Routing;
use fsmoe::MoeError;
use tensor::{Tensor, TensorRng};

const SEED: u64 = 77;
const BUDGET: Duration = Duration::from_secs(30);

/// Two GPUs on one node, pure expert parallelism (one expert each).
fn two_rank_topology() -> HybridTopology {
    HybridTopology::flat(2).unwrap()
}

fn config() -> MoeConfig {
    config_of(2, 1)
}

fn config_of(num_experts: usize, top_k: usize) -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(6)
        .embed_dim(8)
        .hidden_dim(16)
        .num_experts(num_experts)
        .top_k(top_k)
        .no_drop()
        .build()
        .unwrap()
}

fn input_block(cfg: &MoeConfig, rank: usize) -> Tensor {
    let mut rng = TensorRng::seed_from(4000 + rank as u64);
    rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0)
}

/// Hook that mirrors drop notifications into a shared counter so the
/// test can observe them from outside the layer.
#[derive(Debug)]
struct SharedDropCounter(Arc<AtomicUsize>);

impl MoeHooks for SharedDropCounter {
    fn on_tokens_dropped(&mut self, count: usize) {
        self.0.fetch_add(count, Ordering::SeqCst);
    }
}

/// Hook that publishes how many token rows the local experts computed
/// on, and how many drop records the layer wrote.
///
/// Both hooks around the experts see the gathered wire buffer: blocks of
/// `T + 1` rows, a header whose first element counts the block's rows,
/// then `T` token rows. `after_dispatch` checks that exactly the counted
/// rows carry a token; `before_combine` counts the expert output rows
/// that are not zero and checks that every one of them lies in a counted
/// row — so a zeroed or abandoned exchange provably computes on nothing.
#[derive(Debug, Clone)]
struct ComputeLog {
    block_rows: usize,
    counts: Vec<usize>,
    rows: Arc<AtomicUsize>,
    drop_records: Arc<AtomicUsize>,
}

impl ComputeLog {
    fn new(cfg: &MoeConfig) -> Self {
        ComputeLog {
            block_rows: cfg.capacity() + 1,
            counts: Vec::new(),
            rows: Arc::default(),
            drop_records: Arc::default(),
        }
    }

    /// `(block, row in block, whether the row is not all zero)` for every
    /// token row of `buffer`.
    fn token_rows(&self, buffer: &Tensor) -> Vec<(usize, usize, bool)> {
        let m = buffer.dims()[1];
        buffer
            .data()
            .chunks(self.block_rows * m)
            .enumerate()
            .flat_map(|(b, block)| {
                block[m..]
                    .chunks(m)
                    .enumerate()
                    .map(move |(r, row)| (b, r, row.iter().any(|&v| v != 0.0)))
            })
            .collect()
    }
}

impl MoeHooks for ComputeLog {
    fn after_dispatch(&mut self, buffer: &mut Tensor, _: &Routing) -> fsmoe::Result<()> {
        let m = buffer.dims()[1];
        let headers = buffer.data().chunks(self.block_rows * m);
        self.counts = headers.map(|block| block[0] as usize).collect();
        for (b, r, occupied) in self.token_rows(buffer) {
            let count = self.counts[b];
            assert_eq!(occupied, r < count, "block {b} row {r}, count {count}");
        }
        Ok(())
    }

    fn before_combine(&mut self, buffer: &mut Tensor, _: &Routing) -> fsmoe::Result<()> {
        let mut computed = 0;
        for (b, r, occupied) in self.token_rows(buffer) {
            if occupied {
                assert!(
                    r < self.counts[b],
                    "output in uncounted row {r} of block {b}"
                );
                computed += 1;
            }
        }
        self.rows.store(computed, Ordering::SeqCst);
        Ok(())
    }

    fn on_tokens_dropped(&mut self, _count: usize) {
        self.drop_records.fetch_add(1, Ordering::SeqCst);
    }
}

/// One forward per rank under `faults`: each rank's loads, the rows its
/// expert computed on, its drop records, and whether it completed.
fn computed_rows_under(faults: FaultInjector) -> Vec<(Vec<usize>, usize, usize, bool)> {
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(300))
        .with_faults(faults);
    run_world_within(world, BUDGET, |comm| {
        let cfg = config();
        let mut layer = MoeLayer::gshard(&cfg, &comm, &two_rank_topology(), SEED).unwrap();
        let log = ComputeLog::new(&cfg);
        layer.set_hooks(Box::new(log.clone()));
        let x = input_block(&cfg, comm.rank());
        let done = layer.forward(&x, &mut TensorRng::seed_from(0)).is_ok();
        // the gate is replicated: recompute the loads a failed rank lost
        let loads = layer
            .gate()
            .route(&x, cfg.capacity(), &mut TensorRng::seed_from(0))
            .unwrap()
            .expert_loads();
        let rows = log.rows.load(Ordering::SeqCst);
        (loads, rows, log.drop_records.load(Ordering::SeqCst), done)
    })
}

#[test]
fn lost_blocks_reach_no_expert_row() {
    // Fault-free, expert `e` (hosted on rank `e`) computes on every
    // rank's rows for it — and on nothing else: no capacity padding.
    let clean = computed_rows_under(FaultInjector::new());
    for (e, (_, rows, records, done)) in clean.iter().enumerate() {
        assert_eq!(*rows, clean[0].0[e] + clean[1].0[e], "expert {e}");
        assert!(*done && *records == 0);
    }
    assert!(
        clean[0].0[0] > 0 && clean[1].0[1] > 0,
        "both ranks route home"
    );

    // Rank 1's dispatch payload arrives zero-filled: its blocks' headers
    // read count 0 everywhere (its own expert included), so only rank
    // 0's rows are computed on. Nobody can tell a zeroed block from an
    // empty one, so — as before — no drop is recorded.
    let zeroed = computed_rows_under(FaultInjector::new().drop_payload(1, 0));
    for (e, (loads, rows, records, done)) in zeroed.iter().enumerate() {
        assert_eq!(loads, &clean[e].0);
        assert_eq!(*rows, clean[0].0[e], "expert {e} sees rank 0's rows only");
        assert!(*done && *records == 0);
    }

    // Rank 1 dies entering the dispatch: the survivor's exchange is
    // abandoned and zero-filled, every block reads count 0, the expert
    // computes on no row at all, and the loss is recorded exactly once
    // although the combine leg is lost too.
    let dead = computed_rows_under(FaultInjector::new().kill(1, 0));
    assert_eq!((dead[0].1, dead[0].2, dead[0].3), (0, 1, true));
    assert!(!dead[1].3, "the dead rank fails");
}

#[test]
fn dead_peer_degrades_survivor_and_errors_the_dead_rank() {
    let cfg = config();
    let hook_drops = Arc::new(AtomicUsize::new(0));
    let hook_drops2 = Arc::clone(&hook_drops);
    // Rank 1 dies entering its first collective (the dispatch AlltoAll).
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(400))
        .with_faults(FaultInjector::new().kill(1, 0));
    let results = run_world_within(world, BUDGET, move |comm| {
        let topo = two_rank_topology();
        let cfg = config();
        let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        layer.set_hooks(Box::new(SharedDropCounter(Arc::clone(&hook_drops2))));
        let x = input_block(&cfg, comm.rank());
        let mut rng = TensorRng::seed_from(0);
        let out = layer.forward(&x, &mut rng);
        (out, layer.dropped_tokens())
    });

    // The dead rank's own forward fails with its own RankDown.
    let (dead_out, dead_drops) = &results[1];
    match dead_out {
        Err(MoeError::Comm(CommError::RankDown { rank })) => assert_eq!(*rank, 1),
        other => panic!("dead rank must fail with RankDown, got {other:?}"),
    }
    assert_eq!(*dead_drops, 0, "a dead rank drops nothing — it is gone");

    // The survivor completes the step: both AlltoAll legs degraded, its
    // routed tokens were zero-filled, and the accounting counted the
    // routed assignments exactly once — losing the same tokens on both
    // legs is still one loss.
    let (alive_out, alive_drops) = &results[0];
    let out = alive_out.as_ref().expect("survivor must complete");
    assert_eq!(out.dims(), &[cfg.tokens(), cfg.embed_dim]);
    assert!(
        out.data().iter().all(|&v| v == 0.0),
        "degraded output is the zero fallback (residual path carries the tokens)"
    );
    let routed = cfg.tokens(); // top-1, no-drop: every token is assigned
    assert_eq!(
        *alive_drops, routed,
        "routed assignments are counted once per degraded forward"
    );
    assert_eq!(hook_drops.load(Ordering::SeqCst), routed);
}

#[test]
fn lost_grid_rank_counts_its_tokens_once() {
    // Rank 3 dies entering its first collective, on four ranks. On
    // Fig. 2 (two EP groups of two, sharded experts) rank 1 loses its
    // EP peer, rank 2 fails in the ESP AllGather with rank 3 (the ESP
    // legs run strict), so rank 0 loses its combine with rank 2; on a
    // 2 x 2 grid (one EP group of four) the three survivors lose the
    // same exchange.
    // Whoever completes the forward counts its routed assignments
    // exactly once.
    let fig2 = ParallelDims {
        dp: 2,
        mp: 2,
        ep: 2,
        esp: 2,
    };
    let grid = ParallelDims {
        dp: 4,
        mp: 1,
        ep: 4,
        esp: 1,
    };
    for (dims, survivors) in [(fig2, vec![0, 1]), (grid, vec![0, 1, 2])] {
        let world = CommWorld::new(4)
            .with_deadline(Duration::from_millis(300))
            .with_faults(FaultInjector::new().kill(3, 0));
        let results = run_world_within(world, BUDGET, move |comm| {
            let topo = HybridTopology::new(2, 2, dims).unwrap();
            let cfg = config_of(4, 2);
            let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
            let x = input_block(&cfg, comm.rank());
            let out = layer.forward(&x, &mut TensorRng::seed_from(0));
            (
                out.is_ok(),
                layer.dropped_tokens(),
                cfg.tokens() * cfg.top_k,
            )
        });
        for (rank, (completed, drops, routed)) in results.into_iter().enumerate() {
            if survivors.contains(&rank) {
                assert!(completed, "{dims:?} rank {rank} must degrade, not fail");
            }
            let want = if completed { routed } else { 0 };
            assert_eq!(drops, want, "{dims:?} rank {rank}");
        }
    }
}

#[test]
fn strict_policy_propagates_instead_of_dropping() {
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(300))
        .with_faults(FaultInjector::new().kill(1, 0));
    let results = run_world_within(world, BUDGET, |comm| {
        let topo = two_rank_topology();
        let cfg = config();
        let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        layer.set_fault_policy(FaultPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
            drop_on_failure: false,
        });
        let x = input_block(&cfg, comm.rank());
        let mut rng = TensorRng::seed_from(0);
        (layer.forward(&x, &mut rng).err(), layer.dropped_tokens())
    });
    for (rank, (err, drops)) in results.iter().enumerate() {
        assert!(
            matches!(
                err,
                Some(MoeError::Comm(
                    CommError::RankDown { .. } | CommError::Timeout { .. }
                ))
            ),
            "rank {rank}: {err:?}"
        );
        assert_eq!(*drops, 0, "strict policy never drops");
    }
}

#[test]
fn straggler_beyond_retry_budget_degrades_then_realigns() {
    // The cross-wiring scenario: rank 1 straggles on the dispatch
    // AlltoAll for longer than rank 0's *entire* retry budget on both
    // legs (deadline × (1 + retries) per leg), so rank 0 abandons the
    // dispatch AND the combine and finishes the step before the
    // straggler even deposits. The straggler's late dispatch deposit
    // must then fail with a typed `Abandoned` — not rendezvous with a
    // later exchange — and once both ranks realign, the next forward
    // must be bit-identical to a fault-free run (the EP group's op
    // stream carries no lasting skew).
    let cfg = config();

    // Fault-free reference world: capture both forwards' outputs.
    let reference = run_world_within(CommWorld::new(2), BUDGET, |comm| {
        let topo = two_rank_topology();
        let cfg = config();
        let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        let x = input_block(&cfg, comm.rank());
        let mut rng = TensorRng::seed_from(0);
        let first = layer.forward(&x, &mut rng).unwrap();
        let second = layer.forward(&x, &mut rng).unwrap();
        (first, second)
    });

    let barrier = Arc::new(std::sync::Barrier::new(2));
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_millis(100))
        .with_faults(FaultInjector::new().delay(1, 0, Duration::from_millis(1200)));
    let results = run_world_within(world, BUDGET, move |comm| {
        let topo = two_rank_topology();
        let cfg = config();
        let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        layer.set_fault_policy(FaultPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(5),
            drop_on_failure: true,
        });
        let log = ComputeLog::new(&cfg);
        layer.set_hooks(Box::new(log.clone()));
        let x = input_block(&cfg, comm.rank());
        let mut rng = TensorRng::seed_from(0);
        let first = layer.forward(&x, &mut rng).unwrap();
        let drops_after_first = layer.dropped_tokens();
        assert_eq!(
            (
                log.rows.load(Ordering::SeqCst),
                log.drop_records.load(Ordering::SeqCst)
            ),
            (0, 1),
            "a timed-out dispatch: no computed row, one drop record"
        );
        // Re-join the threads, then allow generous retries so the second
        // forward's collectives complete despite residual skew.
        barrier.wait();
        layer.set_fault_policy(FaultPolicy {
            max_retries: 30,
            base_backoff: Duration::from_millis(5),
            drop_on_failure: true,
        });
        let second = layer.forward(&x, &mut rng).unwrap();
        (first, drops_after_first, second, layer.dropped_tokens())
    });

    let routed = cfg.tokens(); // top-1, no-drop: every token is assigned
    for (rank, (first, drops_first, second, drops_total)) in results.iter().enumerate() {
        assert!(
            first.data().iter().all(|&v| v == 0.0),
            "rank {rank}: the skewed step degrades to the zero fallback"
        );
        assert_eq!(
            *drops_first, routed,
            "rank {rank}: one degraded forward counts its routed tokens once"
        );
        assert_eq!(
            *drops_total, routed,
            "rank {rank}: the realigned second forward drops nothing"
        );
        assert_eq!(
            second.data(),
            reference[rank].1.data(),
            "rank {rank}: post-skew forward must be bit-identical to fault-free"
        );
    }
}

#[test]
fn straggling_peer_within_deadline_costs_nothing() {
    let world = CommWorld::new(2)
        .with_deadline(Duration::from_secs(5))
        .with_faults(FaultInjector::new().delay(1, 0, Duration::from_millis(40)));
    let results = run_world_within(world, BUDGET, |comm| {
        let topo = two_rank_topology();
        let cfg = config();
        let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).unwrap();
        layer.set_hooks(Box::new(NoopHooks));
        let x = input_block(&cfg, comm.rank());
        let mut rng = TensorRng::seed_from(0);
        let out = layer.forward(&x, &mut rng).unwrap();
        (out, layer.dropped_tokens())
    });
    for (rank, (out, drops)) in results.iter().enumerate() {
        assert_eq!(*drops, 0, "rank {rank} must not drop");
        assert!(
            out.data().iter().any(|&v| v != 0.0),
            "rank {rank} produced a real output"
        );
    }
}

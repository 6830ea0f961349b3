//! Pause budget for an eviction-free hot-expert migration.
//!
//! The headline robustness claim (DESIGN.md §10) is that draining one
//! expert off a quarantined rank is a *pause*, not an outage:
//! the weights move over one world broadcast (the move's only
//! rendezvous), every rank rebinds, and training resumes — no snapshot
//! reload, no world renumbering. This bench measures that pause end to
//! end on a real 4-rank world: the wall time of `MoeLayer::migrate`
//! from entry to new-placement install, taken as the max across ranks (the slowest rank is the one
//! training waits for), best-of several worlds.
//!
//! For context it also prints what the simulator's α–β models predict
//! for the same move ([`simnet::price_migration`]), so measured and
//! modeled pauses can drift-check each other.
//!
//! Results go to `BENCH_migrate.json`; exits non-zero when the measured
//! pause exceeds the budget.

use std::time::Instant;

use bench::gate::Gate;
use collectives::{run_world, CommWorld, HybridTopology};
use fsmoe::config::MoeConfig;
use fsmoe::layer::MoeLayer;
use simnet::{price_migration, Testbed};
use tensor::TensorRng;

const SEED: u64 = 7;
const WORLD: usize = 4;
const RUNS: usize = 5;
/// Generous CI-jitter headroom; an in-process broadcast of one expert
/// finishes orders of magnitude under this.
const BUDGET_MS: f64 = 250.0;

fn topology() -> HybridTopology {
    HybridTopology::flat(WORLD).expect("flat topology")
}

fn config() -> MoeConfig {
    MoeConfig::builder()
        .batch_size(1)
        .seq_len(16)
        .embed_dim(64)
        .hidden_dim(128)
        .num_experts(8)
        .top_k(2)
        .no_drop()
        .build()
        .expect("bench config")
}

/// One fresh 4-rank world: warm up with a forward/backward step, then
/// time `migrate(0, WORLD - 1)` on every rank. Returns the per-rank
/// pause in ms and the migrated expert's payload in bytes.
fn timed_migration() -> (Vec<f64>, f64) {
    let cfg = config();
    let results = run_world(CommWorld::new(WORLD), move |comm| {
        let topo = topology();
        let mut layer = MoeLayer::gshard(&cfg, &comm, &topo, SEED).expect("layer");
        let mut rng = TensorRng::seed_from(100 + comm.rank() as u64);
        let x = rng.normal(&[cfg.tokens(), cfg.embed_dim], 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(42);
        let y = layer.forward(&x, &mut route_rng).expect("warmup forward");
        layer.backward(&y).expect("warmup backward");
        let bytes: usize = layer
            .shards()
            .first()
            .map(|e| e.weights().iter().map(|t| t.data().len() * 4).sum())
            .unwrap_or(0);
        let start = Instant::now();
        layer.migrate(0, WORLD - 1, &comm).expect("migrate");
        (start.elapsed().as_secs_f64() * 1e3, bytes as f64)
    });
    let bytes = results[0].1;
    (results.into_iter().map(|(ms, _)| ms).collect(), bytes)
}

fn main() {
    let mut gate = Gate::new("migrate");
    let mut best_pause_ms = f64::INFINITY;
    let mut worst_pause_ms: f64 = 0.0;
    let mut expert_bytes = 0.0;
    for run in 0..RUNS {
        let (per_rank, bytes) = timed_migration();
        expert_bytes = bytes;
        // Training resumes when the slowest rank has rebound.
        let pause = per_rank.iter().copied().fold(0.0f64, f64::max);
        println!(
            "run {run}: pause {pause:.3} ms (per rank: {:?})",
            per_rank
                .iter()
                .map(|ms| format!("{ms:.3}"))
                .collect::<Vec<_>>()
        );
        best_pause_ms = best_pause_ms.min(pause);
        worst_pause_ms = worst_pause_ms.max(pause);
    }

    let modeled = price_migration(&Testbed::a().costs, expert_bytes, 1.0);
    println!(
        "migrate pause: best {best_pause_ms:.3} ms, worst {worst_pause_ms:.3} ms \
         ({expert_bytes:.0} B payload, budget {BUDGET_MS} ms)"
    );
    println!(
        "modeled (testbed A): transfer {:.3} + rebind {:.3} = {:.3} ms",
        modeled.phase("transfer"),
        modeled.phase("rebind"),
        modeled.total()
    );

    gate.require(
        best_pause_ms < BUDGET_MS,
        format!(
            "hot-expert migration must pause training < {BUDGET_MS} ms \
             (best of {RUNS}: {best_pause_ms:.3} ms)"
        ),
    );
    gate.finish([
        ("world", WORLD as f64),
        ("expert_bytes", expert_bytes),
        ("pause_ms_best", best_pause_ms),
        ("pause_ms_worst", worst_pause_ms),
        ("modeled_transfer_ms", modeled.phase("transfer")),
        ("modeled_rebind_ms", modeled.phase("rebind")),
        ("modeled_total_ms", modeled.total()),
        ("budget_ms", BUDGET_MS),
    ]);
}

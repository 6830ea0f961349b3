//! Survive a gray failure — a rank that is slow, not dead — end to end.
//!
//! Four ranks train a 12-expert MoE layer under the elastic trainer
//! with the gray-failure defense armed. Rank 3 is browned out: every
//! collective it joins stalls ~5 ms, so the lockstep fleet limps at the
//! slow rank's pace. No timeout ever fires — the rank answers, late —
//! which is exactly the failure mode a dead-rank detector cannot see.
//!
//! The defense walks the escalation ladder instead:
//!
//! 1. all-reduced self-times give every rank the same health scores;
//! 2. the sustained outlier is logged, then **quarantined** — a hot
//!    expert drains off it and it stops being a migration destination;
//! 3. the keep-limping-vs-evict pricing flips and the fleet performs a
//!    **live eviction**: the victim exits with `RankDown{3}`, survivors
//!    re-shard, roll back, and replay.
//!
//! The run self-validates: verdicts must be SPMD-identical on every
//! rank, each survivor must record one quarantine with a drain
//! migration and one eviction, the health counters must agree, and the
//! survivors must finish **bit-identical** to a fresh 3-rank world
//! resumed from the same snapshot. The Chrome trace is re-checked with
//! the in-tree validator — CI runs this as its gray-failure smoke step.
//!
//! Run with
//! `cargo run --release -p bench --example gray_failure -- [out.json]`.

use std::time::Duration;

use bench::brownout::{
    browned_out_world, config, defended_trainer, fresh_reference, rank_data, LR, VICTIM, WORLD,
};
use collectives::{run_world_within, CommError};
use fsmoe::MoeError;
use obs::ensure;

const TOTAL: usize = 12;
const BUDGET: Duration = Duration::from_secs(120);

/// What each rank reports: the victim's health score after every step
/// it saw (the SPMD-determinism witness), plus survivor-side counters
/// and the final checkpoint.
struct Report {
    victim_scores: Vec<f64>,
    survivor: Option<Survivor>,
}

struct Survivor {
    checkpoint: fsmoe::checkpoint::ModelCheckpoint,
    quarantines: usize,
    evictions: usize,
    migrations: usize,
    epoch: u64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/gray_failure.json".to_string());

    let session = obs::session();
    let cfg = config();

    let run_cfg = cfg.clone();
    let results = run_world_within(browned_out_world(), BUDGET, move |comm| {
        let rank = comm.rank();
        let (x, t) = rank_data(&run_cfg, rank);
        let mut trainer = defended_trainer(&run_cfg, comm);
        let mut victim_scores = Vec::new();
        while trainer.step() < TOTAL {
            match trainer.train_step(&x, &t, LR) {
                Ok(_) => {}
                Err(MoeError::Comm(CommError::RankDown { rank: r })) if r == rank => {
                    // The fleet priced this rank out; exit cleanly.
                    return Report {
                        victim_scores,
                        survivor: None,
                    };
                }
                Err(e) => ensure(false, &format!("rank {rank}: {e:?}")),
            }
            if let Some(monitor) = trainer.health() {
                if monitor.scores().len() > VICTIM {
                    victim_scores.push(monitor.score(VICTIM));
                }
            }
        }
        Report {
            victim_scores,
            survivor: Some(Survivor {
                checkpoint: trainer
                    .model()
                    .checkpoint_global()
                    .expect("final collective checkpoint"),
                quarantines: trainer.quarantines(),
                evictions: trainer.evictions(),
                migrations: trainer.migrations(),
                epoch: trainer.comm().membership_epoch(),
            }),
        }
    });

    let snap = session.snapshot();
    drop(session);

    // The victim self-evicted; everyone else finished.
    ensure(
        results[VICTIM].survivor.is_none(),
        "the browned-out rank must be priced out, not finish",
    );
    let survivors: Vec<&Survivor> = results.iter().filter_map(|r| r.survivor.as_ref()).collect();
    ensure(
        survivors.len() == WORLD - 1,
        "every healthy rank must finish",
    );

    // SPMD determinism: while the victim was still a member, every rank
    // derived the same health score for it from the same all-reduce.
    let shared = results[VICTIM].victim_scores.len();
    ensure(shared >= 2, "the victim must survive at least two steps");
    for (rank, r) in results.iter().enumerate() {
        ensure(
            r.victim_scores[..shared] == results[VICTIM].victim_scores[..shared],
            &format!("rank {rank} disagrees on the victim's health score"),
        );
    }
    println!(
        "victim score decay (identical on all ranks): {:?}",
        results[VICTIM]
            .victim_scores
            .iter()
            .map(|s| format!("{s:.2}"))
            .collect::<Vec<_>>()
    );

    for (i, s) in survivors.iter().enumerate() {
        println!(
            "survivor {i}: {} quarantine(s), {} drain migration(s), {} eviction(s), epoch {}",
            s.quarantines, s.migrations, s.evictions, s.epoch
        );
        ensure(s.quarantines >= 1, "quarantine must precede the eviction");
        ensure(s.migrations >= 1, "the quarantine must drain a hot expert");
        ensure(s.evictions == 1, "exactly one live eviction per survivor");
        ensure(s.epoch == 1, "membership epoch must reach 1");
        ensure(
            s.checkpoint == survivors[0].checkpoint,
            "survivors must agree bit-for-bit on the final weights",
        );
    }

    // Health metrics: the quarantine fired while all four ranks were
    // members, the eviction while all four priced it.
    ensure(
        snap.counter(obs::names::HEALTH_QUARANTINES) >= WORLD as u64,
        "health.quarantines must count every rank's verdict",
    );
    ensure(
        snap.counter(obs::names::HEALTH_EVICTIONS) >= WORLD as u64,
        "health.evictions must count every rank's pricing decision",
    );
    ensure(
        snap.gauges
            .contains_key(obs::names::HEALTH_WORST_SCORE.as_str()),
        "health.worst_score gauge must be exported",
    );

    // Each survivor traces the live eviction as one reconfigure span.
    let spans = snap.spans_named(obs::names::SPAN_ELASTIC_RECONFIGURE);
    ensure(
        spans.len() == WORLD - 1,
        "one elastic.reconfigure span per survivor",
    );

    // Bit identity: a fresh 3-rank world resumed from the same initial
    // snapshot and run to the same step count must match the survivors
    // exactly — the eviction is a correct reconfiguration, not a lossy
    // one. (The victim was the highest rank, so survivor numbering —
    // data and RNG streams included — is unchanged.)
    let fresh = fresh_reference(&cfg, TOTAL);
    ensure(
        survivors[0].checkpoint == fresh,
        "gray-failure eviction must be bit-identical to the fresh small world",
    );
    println!(
        "survivors match a fresh {}-rank world bit-for-bit",
        WORLD - 1
    );

    // Export the Chrome trace and re-validate it as CI's checker would.
    match snap.write_validated_trace(&out_path) {
        Ok(stats) => println!("wrote {out_path}: {stats}"),
        Err(e) => ensure(false, &format!("trace invalid: {e}")),
    }
    println!("training survived the slow rank; open the trace in chrome://tracing");
}

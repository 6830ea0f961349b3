//! Throughput-recovery budget for the gray-failure defense.
//!
//! The robustness claim (DESIGN.md §11): a fleet carrying a
//! browned-out rank does not stay at the slow rank's pace — the health
//! monitor names the rank, the escalation ladder quarantines it, and
//! once the keep-limping-vs-evict pricing flips, the live rank is
//! evicted and training returns to full speed. This bench measures that
//! end to end on a real 4-rank world, in `RUNS` pairs of runs:
//!
//! 1. **healthy baseline** — 4 ranks, no faults: median step time, timed
//!    right before the brownout run it is compared with, so a shared
//!    host that changes speed between pairs moves both halves of a pair;
//! 2. **brownout run** — rank 3 limps (~5 ms per collective), health +
//!    pricing armed: the fleet limps, detects, quarantines, evicts, and
//!    the bench takes the median of the first `RECOVERY_STEPS` steps
//!    *after* the eviction lands — the recovery window;
//! 3. **budget** — the recovered step rate of the median pair must be
//!    ≥ `RECOVERY_BUDGET` (90%) of its own baseline's. A window of 20
//!    sub-millisecond steps lasts a few ms, and on a two-core host about
//!    a quarter of them (7 of 30 measured pairs) land in a slow
//!    scheduling stretch, on either side of a pair, so one pair decides
//!    nothing; a pair costs ≈ 0.25 s, and the median of `RUNS` of them
//!    misses a healthy build ≈ 0.4% of the time (bootstrap over those
//!    30 pairs);
//! 4. **bit identity** — in *every* run the survivors' final weights
//!    must equal a fresh 3-rank run resumed from the same snapshot (the
//!    eviction is a correct reconfiguration, not just a fast one).
//!
//! Results go to `BENCH_health.json`; exits non-zero when recovery
//! misses the budget or bit identity fails.

use std::time::Instant;

use bench::brownout::{
    browned_out_world, config, defended_trainer, fresh_reference, rank_data, trainer, BROWNOUT_MS,
    LR, VICTIM, WORLD,
};
use bench::gate::{median_ms, Gate};
use collectives::{run_world, CommError, CommWorld};
use fsmoe::checkpoint::ModelCheckpoint;
use fsmoe::config::MoeConfig;
use fsmoe::MoeError;

/// Steps timed for the healthy baseline (after warmup).
const HEALTHY_STEPS: usize = 24;
/// Post-eviction steps whose median must meet the budget — the "within
/// N steps of detection" window.
const RECOVERY_STEPS: usize = 20;
/// Recovered step rate must reach this fraction of the healthy rate.
const RECOVERY_BUDGET: f64 = 0.9;
/// Baseline + brownout pairs; the budget is held against the median.
const RUNS: usize = 21;

/// Healthy 4-rank fleet: median step time in ms (max across ranks — the
/// fleet moves at its slowest member's pace).
fn healthy_baseline(cfg: &MoeConfig) -> f64 {
    let results = run_world(CommWorld::new(WORLD), {
        let cfg = cfg.clone();
        move |comm| {
            let (x, t) = rank_data(&cfg, comm.rank());
            let mut trainer = trainer(&cfg, comm);
            for _ in 0..4 {
                trainer.train_step(&x, &t, LR).expect("warmup step");
            }
            let mut steps = Vec::new();
            for _ in 0..HEALTHY_STEPS {
                let start = Instant::now();
                trainer.train_step(&x, &t, LR).expect("baseline step");
                steps.push(start.elapsed().as_secs_f64() * 1e3);
            }
            median_ms(&mut steps)
        }
    });
    results.into_iter().fold(0.0f64, f64::max)
}

/// What a survivor of the brownout run reports.
struct Recovery {
    checkpoint: ModelCheckpoint,
    evict_step: usize,
    limp_ms: f64,
    recovered_ms: f64,
    quarantines: usize,
    migrations: usize,
}

/// The gray-failure run: rank `VICTIM` browned out, defense armed.
/// Survivors run `RECOVERY_STEPS` past the eviction and report limp and
/// recovered medians; the victim self-evicts and reports `None`.
fn brownout_run(cfg: &MoeConfig) -> Vec<Option<Recovery>> {
    run_world(browned_out_world(), {
        let cfg = cfg.clone();
        move |comm| {
            let rank = comm.rank();
            let (x, t) = rank_data(&cfg, rank);
            let mut trainer = defended_trainer(&cfg, comm);
            let mut limp = Vec::new();
            let mut recovered = Vec::new();
            let mut evict_step = 0usize;
            loop {
                let start = Instant::now();
                match trainer.train_step(&x, &t, LR) {
                    Ok(_) => {}
                    Err(MoeError::Comm(CommError::RankDown { rank: r })) if r == rank => {
                        assert_eq!(rank, VICTIM, "only the slow rank is priced out");
                        return None;
                    }
                    Err(e) => panic!("rank {rank}: {e:?}"),
                }
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if trainer.evictions() == 0 {
                    limp.push(ms);
                } else {
                    if evict_step == 0 {
                        evict_step = trainer.step();
                        // The step that drove the eviction paid the
                        // whole reconfiguration + replay; the recovery
                        // window starts at the next step.
                        continue;
                    }
                    recovered.push(ms);
                    if recovered.len() >= RECOVERY_STEPS {
                        break;
                    }
                }
            }
            Some(Recovery {
                checkpoint: trainer
                    .model()
                    .checkpoint_global()
                    .expect("survivor checkpoint"),
                evict_step,
                limp_ms: median_ms(&mut limp),
                recovered_ms: median_ms(&mut recovered),
                quarantines: trainer.quarantines(),
                migrations: trainer.migrations(),
            })
        }
    })
}

/// One brownout run, checked: `(evict_step, limp_ms, recovered_ms,
/// identical)` with the medians taken as the max across survivors.
fn checked_brownout_run(cfg: &MoeConfig) -> (usize, f64, f64, bool) {
    let results = brownout_run(cfg);
    assert!(
        results[VICTIM].is_none(),
        "the browned-out rank must be evicted"
    );
    let survivors: Vec<Recovery> = results.into_iter().flatten().collect();
    assert_eq!(survivors.len(), WORLD - 1, "every healthy rank must finish");
    let evict_step = survivors[0].evict_step;
    for s in &survivors {
        assert_eq!(s.evict_step, evict_step, "SPMD: one agreed eviction step");
        assert!(s.quarantines >= 1, "quarantine precedes the eviction");
        assert!(s.migrations >= 1, "the quarantine drained a hot expert");
    }
    let slowest = |f: fn(&Recovery) -> f64| survivors.iter().map(f).fold(0.0f64, f64::max);
    // Bit identity: the recovered run equals a fresh 3-rank world from
    // the same snapshot, run to the same step count.
    let fresh = fresh_reference(cfg, evict_step + RECOVERY_STEPS);
    let identical = survivors.iter().all(|s| s.checkpoint == fresh);
    (
        evict_step,
        slowest(|s| s.limp_ms),
        slowest(|s| s.recovered_ms),
        identical,
    )
}

fn main() {
    let mut gate = Gate::new("health");
    let cfg = config();

    // Step-rate recovery: healthy/limp/recovered medians compare step
    // rates directly (same per-rank batch; a step is a step).
    let mut pairs = Vec::with_capacity(RUNS);
    let mut identical = true;
    for run in 0..RUNS {
        let healthy = healthy_baseline(&cfg);
        let (step, limp, recovered, same) = checked_brownout_run(&cfg);
        println!(
            "run {run}: healthy {healthy:.3} ms/step, limping at {limp:.3}, evicted at step \
             {step}, recovered to {recovered:.3} ms/step over the next {RECOVERY_STEPS} steps \
             ({:.1}% of its healthy rate); bit-identical to a fresh 3-rank world: {same}",
            100.0 * healthy / recovered
        );
        identical &= same;
        pairs.push((healthy, limp, recovered, step));
    }
    pairs.sort_by(|a, b| (a.0 / a.2).total_cmp(&(b.0 / b.2)));
    let (healthy_ms, limp_ms, recovered_ms, evict_step) = pairs[RUNS / 2];
    let limp_ratio = healthy_ms / limp_ms;
    let recovery_ratio = healthy_ms / recovered_ms;
    println!(
        "median of {RUNS} pairs: {:.1}% of healthy rate limping, {:.1}% recovered (budget {:.0}%)",
        limp_ratio * 100.0,
        recovery_ratio * 100.0,
        RECOVERY_BUDGET * 100.0
    );

    gate.require(
        identical,
        "survivors must match the fresh small world bit-for-bit".to_string(),
    );
    gate.require(
        recovery_ratio >= RECOVERY_BUDGET,
        format!(
            "post-eviction step rate must recover ≥ {:.0}% of the healthy fleet \
             (got {:.1}%: healthy {healthy_ms:.3} ms vs recovered {recovered_ms:.3} ms)",
            RECOVERY_BUDGET * 100.0,
            recovery_ratio * 100.0
        ),
    );
    gate.finish([
        ("world", WORLD as f64),
        ("brownout_ms", BROWNOUT_MS as f64),
        ("healthy_step_ms", healthy_ms),
        ("limp_step_ms", limp_ms),
        ("recovered_step_ms", recovered_ms),
        ("limp_ratio", limp_ratio),
        ("recovery_ratio", recovery_ratio),
        ("recovery_budget", RECOVERY_BUDGET),
        ("recovery_window_steps", RECOVERY_STEPS as f64),
        ("recovery_runs", RUNS as f64),
        ("evict_step", evict_step as f64),
        ("bit_identical", f64::from(u8::from(identical))),
    ]);
}

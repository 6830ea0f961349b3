//! Runs a training workload: set-up, warm-up, the timed loop, the traced
//! loop, and the correctness gates over what came back.
//!
//! Load is closed-loop: one trainer, one step after another. Every
//! launch is a fresh world (`CommWorld`) with one thread per rank; the
//! number of steps is fixed before the ranks start, so they never have
//! to agree on when to stop.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use collectives::{run_world, CommWorld, Communicator};
use tensor::{Tensor, TensorRng};

use crate::spec::{TrainShape, BATCH_POOL, QUALITY_STEPS, WARMUP_STEPS};
use crate::stats::{
    bits_digest, mean, median, p95_ms, sub_seed, throughput, Timed, P95_MIN_SAMPLES,
};
use crate::step::{span, Model, Res, RoutingCounts};
use crate::trace::{self_times_ns, total_by_name, Recorder, Span};

/// A collective that waits this long has lost its peer: turn the hang
/// into an error so the run fails instead of timing out.
const COLLECTIVE_DEADLINE: Duration = Duration::from_secs(20);

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Totals of the spans the program itself emitted during the traced
/// steps, keyed `cat/name`.
#[derive(Debug, Default, Clone)]
pub struct ObsTotals {
    /// `(count, total µs)` per `cat/name`.
    pub spans: BTreeMap<String, (u64, u64)>,
    pub collective_calls: u64,
    pub collective_bytes: u64,
    pub collective_us: u64,
}

impl ObsTotals {
    fn from_snapshot(snap: &obs::Snapshot) -> Self {
        let mut out = ObsTotals::default();
        for s in &snap.spans {
            // the barriers fencing the traced window are the driver's
            if s.cat == "collectives" && s.name == "barrier" {
                continue;
            }
            let e = out
                .spans
                .entry(format!("{}/{}", s.cat, s.name))
                .or_default();
            e.0 += 1;
            e.1 += s.dur_us;
            if s.cat == "collectives" {
                out.collective_calls += 1;
                out.collective_us += s.dur_us;
                out.collective_bytes += s
                    .attrs
                    .iter()
                    .find(|(k, _)| *k == "bytes")
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        out
    }

    /// Total µs of `cat/name`; `None` when the program emitted no such
    /// span (reported as absent, not as a build break).
    pub fn total_us(&self, key: &str) -> Option<u64> {
        self.spans.get(key).map(|e| e.1)
    }
}

/// What the traced steps of one rank produced.
struct TracedOut {
    spans: Vec<Span>,
    step_s: Vec<f64>,
    routing: RoutingCounts,
    blocked_wait_us: u64,
    /// Rank 0 carries the program's own spans for all ranks.
    obs: Option<ObsTotals>,
}

/// What one rank hands back from a launch.
struct RankOut {
    setup_done: Instant,
    warm_losses: Vec<f32>,
    warm_step_s: Vec<f64>,
    losses: Vec<f32>,
    step_s: Vec<f64>,
    traced: Option<TracedOut>,
    checksum: u64,
    comm_dropped: usize,
}

#[derive(Clone, Copy)]
struct LaunchPlan {
    shape: TrainShape,
    seed: u64,
    timed_steps: usize,
    traced_steps: usize,
    epoch: Instant,
}

fn batch_pool(shape: &TrainShape, seed: u64, rank: usize) -> Vec<(Tensor, Tensor)> {
    let mut rng = TensorRng::seed_from(sub_seed(seed, 1000 + rank as u64));
    let dims = [shape.tokens, shape.embed];
    (0..BATCH_POOL)
        .map(|_| (rng.normal(&dims, 0.0, 1.0), rng.normal(&dims, 0.0, 1.0)))
        .collect()
}

fn rank_main(comm: &Communicator, plan: &LaunchPlan) -> Res<RankOut> {
    let rank = comm.rank();
    let mut model = Model::build(&plan.shape, comm, plan.seed)?;
    let pool = batch_pool(&plan.shape, plan.seed, rank);
    let mut off = Recorder::off();
    let mut next = 0usize;
    let mut run = |model: &mut Model, rec: &mut Recorder| -> Res<(f32, f64)> {
        let (x, target) = &pool[next % BATCH_POOL];
        next += 1;
        let t = Instant::now();
        let loss = model.step(x, target, rec)?;
        Ok((loss, t.elapsed().as_secs_f64()))
    };

    let mut warm_losses = Vec::with_capacity(WARMUP_STEPS);
    let mut warm_step_s = Vec::with_capacity(WARMUP_STEPS);
    for _ in 0..WARMUP_STEPS {
        let (loss, s) = run(&mut model, &mut off)?;
        warm_losses.push(loss);
        warm_step_s.push(s);
    }
    let setup_done = Instant::now();

    let mut losses = Vec::with_capacity(plan.timed_steps);
    let mut step_s = Vec::with_capacity(plan.timed_steps);
    for _ in 0..plan.timed_steps {
        let (loss, s) = run(&mut model, &mut off)?;
        losses.push(loss);
        step_s.push(s);
    }

    let traced = if plan.traced_steps > 0 {
        // Fence the traced window: every rank is past its untraced steps
        // before rank 0 switches the program's recorder on, and none
        // starts a traced step before it is on.
        let world = comm.world_group();
        world.barrier()?;
        let session = (rank == 0).then(obs::session);
        world.barrier()?;
        let blocked_before = comm.blocked_wait_us(rank);
        let mut rec = Recorder::on(plan.epoch, rank);
        let mut traced_s = Vec::with_capacity(plan.traced_steps);
        let mut routing = RoutingCounts::default();
        for i in 0..plan.traced_steps {
            rec.set_step(i);
            let (loss, s) = run(&mut model, &mut rec)?;
            losses.push(loss);
            traced_s.push(s);
            routing += model.routing_counts();
        }
        let blocked_wait_us = comm.blocked_wait_us(rank) - blocked_before;
        world.barrier()?;
        let obs = session.map(|s| ObsTotals::from_snapshot(&s.snapshot()));
        Some(TracedOut {
            spans: rec.into_spans(),
            step_s: traced_s,
            routing,
            blocked_wait_us,
            obs,
        })
    } else {
        None
    };

    Ok(RankOut {
        setup_done,
        warm_losses,
        warm_step_s,
        losses,
        step_s,
        traced,
        checksum: model.replicated_checksum(),
        comm_dropped: model.comm_dropped_tokens(),
    })
}

/// One launch: a fresh world, model, batch pool and warm-up, then the
/// planned steps.
struct Launch {
    setup_s: f64,
    ranks: Vec<RankOut>,
}

fn launch(shape: &TrainShape, seed: u64, timed_steps: usize, traced_steps: usize) -> Res<Launch> {
    let t0 = Instant::now();
    let plan = LaunchPlan {
        shape: *shape,
        seed,
        timed_steps,
        traced_steps,
        epoch: t0,
    };
    let world = CommWorld::new(shape.ranks).with_deadline(COLLECTIVE_DEADLINE);
    let outs = run_world(world, move |comm| {
        rank_main(&comm, &plan).map_err(|e| format!("rank {}: {e}", comm.rank()))
    });
    let ranks = outs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let setup_done = ranks
        .iter()
        .map(|r| r.setup_done)
        .max()
        .ok_or("world has no ranks")?;
    Ok(Launch {
        setup_s: setup_done.duration_since(t0).as_secs_f64(),
        ranks,
    })
}

impl Launch {
    /// Digest of every rank's losses over the fixed window (warm-up plus
    /// the first `QUALITY_STEPS` steps) — equal across same-seed runs.
    fn digest(&self) -> u64 {
        bits_digest(self.ranks.iter().flat_map(|r| {
            let window = r.losses.iter().take(QUALITY_STEPS);
            r.warm_losses.iter().chain(window).copied()
        }))
    }

    /// Digest of the warm-up losses alone (every launch has them).
    fn warm_digest(&self) -> u64 {
        bits_digest(
            self.ranks
                .iter()
                .flat_map(|r| r.warm_losses.iter().copied()),
        )
    }

    /// Median rank-0 step time over the second half of warm-up.
    fn warm_step_s(&self) -> f64 {
        median(&mut self.ranks[0].warm_step_s[WARMUP_STEPS / 2..].to_vec())
    }

    /// Tokens/s over all ranks of the untraced steps (rank 0's clock).
    fn throughput(&self, shape: &TrainShape) -> f64 {
        throughput(&self.ranks[0].step_s, (shape.tokens * shape.ranks) as f64)
    }

    /// Mean over ranks of the mean loss over `steps` of `pick(rank)`.
    fn mean_loss(&self, pick: impl Fn(&RankOut) -> &[f32]) -> f64 {
        let per_rank: Vec<f64> = self
            .ranks
            .iter()
            .map(|r| mean(&pick(r).iter().map(|&l| f64::from(l)).collect::<Vec<_>>()))
            .collect();
        mean(&per_rank)
    }
}

/// Gate misses of one training run, one line each.
fn gate_misses(launch: &Launch, setup_digests: &[u64]) -> Vec<String> {
    let mut misses = Vec::new();
    if setup_digests.windows(2).any(|w| w[0] != w[1]) {
        misses.push(format!(
            "same-seed set-ups gave different warm-up loss digests: {setup_digests:x?}"
        ));
    }
    let non_finite = launch
        .ranks
        .iter()
        .flat_map(|r| r.warm_losses.iter().chain(&r.losses))
        .filter(|l| !l.is_finite())
        .count();
    if non_finite > 0 {
        misses.push(format!("{non_finite} steps returned a non-finite loss"));
    }
    let first = launch.mean_loss(|r| &r.warm_losses[..BATCH_POOL]);
    let last = launch.mean_loss(|r| &r.losses[r.losses.len().saturating_sub(BATCH_POOL)..]);
    if last.is_nan() || last >= first {
        misses.push(format!(
            "loss did not fall: {first} at the start, {last} at the end"
        ));
    }
    let sums: Vec<u64> = launch.ranks.iter().map(|r| r.checksum).collect();
    if sums.windows(2).any(|w| w[0] != w[1]) {
        misses.push(format!("replicated weights differ across ranks: {sums:x?}"));
    }
    let dropped: usize = launch.ranks.iter().map(|r| r.comm_dropped).sum();
    if dropped > 0 {
        misses.push(format!(
            "{dropped} token assignments lost to comm degradation"
        ));
    }
    misses
}

/// Timed steps that fill `seconds` at `step_s` per step.
fn steps_for(seconds: f64, step_s: f64) -> usize {
    ((seconds / step_s.max(1e-6)).ceil() as usize).max(QUALITY_STEPS)
}

/// The timed run: `SETUP_REPS` set-ups (the last one carries on into the
/// timed steps), everything driver-side switched off.
pub fn run_timed(shape: &TrainShape, seed: u64, seconds: f64) -> Res<Timed> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut digests = Vec::with_capacity(SETUP_REPS);
    let mut step_s = 0.0;
    for _ in 1..SETUP_REPS {
        let l = launch(shape, seed, 0, 0)?;
        setups.push(l.setup_s);
        digests.push(l.warm_digest());
        step_s = l.warm_step_s();
    }
    let n = steps_for(seconds, step_s);
    let l = launch(shape, seed, n, 0)?;
    setups.push(l.setup_s);
    digests.push(l.warm_digest());

    Ok(Timed {
        item_s: l.ranks[0].step_s.clone(),
        work_per_item: (shape.tokens * shape.ranks) as f64,
        // one pass over the batch pool, ending at the fixed step count
        objective: l.mean_loss(|r| &r.losses[QUALITY_STEPS - BATCH_POOL..QUALITY_STEPS]),
        setups_s: setups,
        failed: 0,
        misses: gate_misses(&l, &digests),
        loss_digest: Some(l.digest()),
    })
}

/// Result of the training part of a traced (`--trace 1`) run.
pub struct Traced {
    /// Per-layer metrics measured from the traced steps.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Program span names the metrics wanted but the program did not emit.
    pub missing_spans: Vec<String>,
    /// Tokens/s over all ranks of the untraced steps.
    pub throughput: f64,
    pub spans: Vec<Vec<Span>>,
    pub attempted: usize,
    pub misses: Vec<String>,
    pub digest: u64,
}

/// The traced run: untraced steps for `untraced_s` (the baseline the
/// tracing overhead is measured against, and the p95 sample), then traced
/// steps for `traced_s` with driver spans and the program's own recorder
/// on.
pub fn run_traced(shape: &TrainShape, seed: u64, untraced_s: f64, traced_s: f64) -> Res<Traced> {
    let probe = launch(shape, seed, 0, 0)?;
    let step_s = probe.warm_step_s();
    let n_untraced = steps_for(untraced_s, step_s).max(P95_MIN_SAMPLES);
    let n_traced = ((traced_s / step_s.max(1e-6)).ceil() as usize).max(WARMUP_STEPS);
    let l = launch(shape, seed, n_untraced, n_traced)?;
    let misses = gate_misses(&l, &[probe.warm_digest(), l.warm_digest()]);

    let ranks = shape.ranks;
    let per_step_rank = (n_traced * ranks) as f64;
    let mut span_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut step_self_ns = 0u64;
    let mut routing = RoutingCounts::default();
    let mut blocked_us = 0u64;
    let mut obs_totals = ObsTotals::default();
    let mut spans = Vec::with_capacity(ranks);
    let mut traced_p50 = 0.0;
    for (rank, out) in l.ranks.iter().enumerate() {
        let t = out.traced.as_ref().ok_or("traced steps missing")?;
        for (name, ns) in total_by_name(&t.spans) {
            *span_ns.entry(name).or_insert(0) += ns;
        }
        step_self_ns += t
            .spans
            .iter()
            .zip(self_times_ns(&t.spans))
            .filter(|(s, _)| s.name == span::STEP)
            .map(|(_, ns)| ns)
            .sum::<u64>();
        routing += t.routing;
        blocked_us += t.blocked_wait_us;
        if let Some(o) = &t.obs {
            obs_totals = o.clone();
        }
        if rank == 0 {
            traced_p50 = median(&mut t.step_s.clone());
        }
        spans.push(t.spans.clone());
    }

    let untraced = &l.ranks[0].step_s;
    let step_total_ns = span_ns.get(span::STEP).copied().unwrap_or(0) as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // driver spans
    let mut driver = vec![
        ("models.update_ms", span::UPDATE),
        ("fsmoe.moe_fwd_ms", span::MOE_FWD),
        ("fsmoe.moe_bwd_ms", span::MOE_BWD),
        ("tensor.glue_ms", span::GLUE),
    ];
    // the program's own spans
    let mut program = vec![
        ("fsmoe.gate_ms", "fsmoe/gate"),
        ("fsmoe.dispatch_ms", "fsmoe/dispatch"),
        ("fsmoe.expert_compute_ms", "fsmoe/expert_compute"),
        ("fsmoe.combine_ms", "fsmoe/combine"),
        ("collectives.all_to_all_ms", "collectives/all_to_all"),
        ("collectives.all_gather_ms", "collectives/all_gather"),
        (
            "collectives.reduce_scatter_ms",
            "collectives/reduce_scatter",
        ),
    ];
    // only a model with attention has replicated weights to all-reduce
    if shape.heads.is_some() {
        driver.extend([
            ("models.attn_fwd_ms", span::ATTN_FWD),
            ("models.attn_bwd_ms", span::ATTN_BWD),
            ("collectives.grad_allreduce_ms", span::GRAD_ALLREDUCE),
        ]);
        program.push(("collectives.all_reduce_ms", "collectives/all_reduce"));
    }
    for (metric, name) in driver {
        let ns = span_ns.get(name).copied().unwrap_or(0);
        m.insert(metric, ns as f64 / 1e6 / per_step_rank);
    }
    let mut missing_spans = Vec::new();
    for (metric, key) in program {
        match obs_totals.total_us(key) {
            Some(us) => {
                m.insert(metric, us as f64 / 1e3 / per_step_rank);
            }
            None => missing_spans.push(key.to_string()),
        }
    }

    m.insert(
        "fsmoe.expert_rows_useful_ratio",
        routing.useful_rows as f64 / routing.computed_rows.max(1) as f64,
    );
    m.insert(
        "fsmoe.dropped_tokens_per_step",
        routing.capacity_drops as f64 / per_step_rank,
    );
    m.insert(
        "fsmoe.load_imbalance",
        routing.imbalance_sum / routing.blocks.max(1) as f64,
    );
    m.insert(
        "collectives.blocked_wait_ms",
        blocked_us as f64 / 1e3 / per_step_rank,
    );
    m.insert(
        "collectives.share_pct",
        100.0 * obs_totals.collective_us as f64 * 1e3 / step_total_ns.max(1.0),
    );
    m.insert(
        "collectives.calls_per_step",
        obs_totals.collective_calls as f64 / per_step_rank,
    );
    m.insert(
        "collectives.bytes_per_step",
        obs_totals.collective_bytes as f64 / per_step_rank,
    );
    m.insert("driver.self_ms", step_self_ns as f64 / 1e6 / per_step_rank);
    if let Some(p95) = p95_ms(untraced) {
        m.insert("driver.latency_ms_p95", p95);
    }
    m.insert(
        "obs.trace_overhead_pct",
        100.0 * (traced_p50 / median(&mut untraced.clone()) - 1.0),
    );

    Ok(Traced {
        metrics: m,
        missing_spans,
        throughput: l.throughput(shape),
        spans,
        attempted: n_untraced + n_traced,
        misses,
        digest: l.digest(),
    })
}

/// Tokens/s of a short untraced run (the weak-scaling reference).
pub fn short_throughput(shape: &TrainShape, seed: u64, steps: usize) -> Res<f64> {
    Ok(launch(shape, seed, steps, 0)?.throughput(shape))
}

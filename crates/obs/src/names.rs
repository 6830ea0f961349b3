//! Canonical observability names — every span category, span name,
//! counter, histogram and gauge the workspace records, in one place.
//!
//! Recorders and tests share these consts so the two sides can never
//! drift apart, and the `analyzer` lint closes the loop from both ends:
//! its `obs-names` rule rejects any string literal passed straight to a
//! record call outside this crate, and its `obs-dead-name` rule rejects
//! consts declared here that no call site uses. Names that must be
//! composed at runtime (the profiler's per-op metrics) get helper
//! functions here instead of consts, keeping the composition rule next
//! to the registry. DESIGN.md §7 documents the metric semantics.

// --- span categories --------------------------------------------------

/// Span category of the collectives crate (one span per collective op).
pub const CAT_COLLECTIVES: &str = "collectives";
/// Span category of the fsmoe layer crate (gate/dispatch/compute/combine).
pub const CAT_FSMOE: &str = "fsmoe";
/// Span category of the models crate (forward/backward/step/recovery).
pub const CAT_MODELS: &str = "models";
/// Trace category and process name used by simnet's schedule export.
pub const CAT_SIMNET: &str = "simnet";
/// Span category used by the bench harness's overhead probes.
pub const CAT_BENCH: &str = "bench";

// --- span names -------------------------------------------------------

/// Span: one all-reduce collective.
pub const SPAN_ALL_REDUCE: &str = "all_reduce";
/// Span: one all-gather collective.
pub const SPAN_ALL_GATHER: &str = "all_gather";
/// Span: one reduce-scatter collective.
pub const SPAN_REDUCE_SCATTER: &str = "reduce_scatter";
/// Span: one all-to-all collective.
pub const SPAN_ALL_TO_ALL: &str = "all_to_all";
/// Span: one broadcast collective.
pub const SPAN_BROADCAST: &str = "broadcast";
/// Span: one barrier collective.
pub const SPAN_BARRIER: &str = "barrier";

/// Span: a full model forward pass.
pub const SPAN_MODEL_FORWARD: &str = "model.forward";
/// Span: a full model backward pass.
pub const SPAN_MODEL_BACKWARD: &str = "model.backward";
/// Span: one optimiser-inclusive training step.
pub const SPAN_TRAIN_STEP: &str = "train_step";
/// Span: the optimiser update inside a training step.
pub const SPAN_UPDATE: &str = "update";
/// Span: one block's attention forward.
pub const SPAN_ATTN_FWD: &str = "attn_fwd";
/// Span: one block's attention backward.
pub const SPAN_ATTN_BWD: &str = "attn_bwd";
/// Span: the data-parallel all-reduce of the replicated (attention)
/// gradients inside a training step.
pub const SPAN_GRAD_ALLREDUCE: &str = "grad_allreduce";
/// Span: taking a recovery snapshot/checkpoint.
pub const SPAN_SNAPSHOT: &str = "snapshot";
/// Span: restoring state after a failure.
pub const SPAN_RECOVER: &str = "recover";
/// Span: the elastic eviction + re-shard + rollback sequence.
pub const SPAN_ELASTIC_RECONFIGURE: &str = "elastic.reconfigure";
/// Span: an eviction-free hot-expert migration (world-broadcast
/// transfer → rebind).
pub const SPAN_ELASTIC_MIGRATE: &str = "elastic.migrate";

/// Span: an MoE layer forward pass.
pub const SPAN_MOE_FORWARD: &str = "moe.forward";
/// Span: an MoE layer backward pass.
pub const SPAN_MOE_BACKWARD: &str = "moe.backward";
/// Span: the gating network + routing decision.
pub const SPAN_GATE: &str = "gate";
/// Span: packing tokens toward their experts (incl. the dispatch a2a).
pub const SPAN_DISPATCH: &str = "dispatch";
/// Span: the expert FFN compute.
pub const SPAN_EXPERT_COMPUTE: &str = "expert_compute";
/// Span: un-permuting expert outputs back to token order.
pub const SPAN_COMBINE: &str = "combine";

/// Span: the bench harness's empty probe span (disabled-cost measurement).
pub const BENCH_SPAN_NOOP: &str = "noop";
/// Histogram: the bench harness's empty probe histogram.
pub const BENCH_HIST_NOOP: &str = "bench.noop";
/// Counter: the bench harness's empty probe counter (flight-recorder
/// per-event cost measurement).
pub const BENCH_COUNTER_NOOP: &str = "bench.noop.count";

// --- flight recorder --------------------------------------------------

/// Trace category (and process name) of flight-recorder dumps.
pub const CAT_FLIGHT: &str = "flight";
/// Span: the zero-duration marker every flight dump stamps on itself,
/// so even an otherwise-empty dump is a valid trace.
pub const FLIGHT_DUMP_SPAN: &str = "flight.dump";
/// Marker: a panic hook fired (recorded just before the dump drains).
pub const FLIGHT_PANIC: &str = "flight.panic";
/// Marker: the in-process hang watchdog fired.
pub const FLIGHT_WATCHDOG: &str = "flight.watchdog";
/// Counter: flight-recorder dumps taken this process.
pub const FLIGHT_DUMPS: &str = "flight.dumps";

// --- counters and gauges ----------------------------------------------

/// Counter: collective ops that failed with a deadline timeout.
pub const COLLECTIVES_TIMEOUTS: &str = "collectives.timeouts";
/// Counter: re-attempts of an already-attempted op-stream position.
pub const COLLECTIVES_RETRIES: &str = "collectives.retries";
/// Counter: ops that observed an abandoned rendezvous round.
pub const COLLECTIVES_ABANDONED: &str = "collectives.abandoned";
/// Counter: ops that failed on a poisoned group.
pub const COLLECTIVES_POISONED: &str = "collectives.poisoned";
/// Counter: ops that failed fast on a dead peer.
pub const COLLECTIVES_RANK_DOWN: &str = "collectives.rank_down";
/// Counter: faults the injector delivered (kills, delays, drops).
pub const COLLECTIVES_FAULTS_INJECTED: &str = "collectives.faults_injected";
/// Counter: abandoned exchanges skipped via `GroupComm::skip_op`.
pub const COLLECTIVES_SKIPPED_OPS: &str = "collectives.skipped_ops";
/// Counter: completed membership evictions (one per agreed shrink).
pub const COLLECTIVES_EVICTIONS: &str = "collectives.evictions";
/// Gauge: the current membership epoch (bumped on every eviction).
pub const COLLECTIVES_MEMBERSHIP_EPOCH: &str = "collectives.membership_epoch";
/// Counter: elastic recoveries that fell back to the in-memory
/// snapshot because the on-disk checkpoint was missing or corrupt.
pub const ELASTIC_CHECKPOINT_FALLBACKS: &str = "elastic.checkpoint_fallbacks";
/// Counter: token assignments dropped by degraded MoE forwards.
pub const MOE_DROPPED_TOKENS: &str = "moe.dropped_tokens";
/// Counter: degraded forwards that dropped tokens (events, not tokens).
pub const MOE_DROP_EVENTS: &str = "moe.drop_events";
/// Histogram: per-expert token load, one sample per expert per gate.
pub const MOE_EXPERT_LOAD: &str = "moe.expert_load";
/// Counter: completed hot-expert migrations (counted once, on the
/// receiving rank).
pub const MOE_MIGRATIONS: &str = "moe.migrations";
/// Counter: ranks quarantined by the health monitor (escalation ladder
/// stage 2: the rank keeps its experts but loses migration-destination
/// eligibility and its hot experts drain off it).
pub const HEALTH_QUARANTINES: &str = "health.quarantines";
/// Counter: live-but-slow ranks evicted after simnet's gray-failure
/// pricing said eviction beats limping (escalation ladder stage 3).
pub const HEALTH_EVICTIONS: &str = "health.evictions";
/// Gauge: the health monitor's worst (highest) per-rank score on the
/// last observation — 1.0 is median-healthy, 2.0 runs at half speed.
pub const HEALTH_WORST_SCORE: &str = "health.worst_score";

/// Gauge: mean per-step expert-compute time across ranks, µs (published
/// by `obs::attrib`).
pub const STEP_ATTRIB_COMPUTE_US: &str = "step.attrib.compute_us";
/// Gauge: mean per-step wire time (post-last-arrival collective time)
/// across ranks, µs.
pub const STEP_ATTRIB_WIRE_US: &str = "step.attrib.wire_us";
/// Gauge: mean per-step blocked-wait (straggler) time across ranks, µs.
pub const STEP_ATTRIB_WAIT_US: &str = "step.attrib.wait_us";
/// Gauge: mean per-step overlap credit (compute concurrent with wire)
/// across ranks, µs.
pub const STEP_ATTRIB_OVERLAP_US: &str = "step.attrib.overlap_us";
/// Gauge: mean per-step unattributed remainder across ranks, µs.
pub const STEP_ATTRIB_OTHER_US: &str = "step.attrib.other_us";
/// Gauge: the modal critical rank across attributed steps.
pub const STEP_ATTRIB_CRITICAL_RANK: &str = "step.attrib.critical_rank";
/// Gauge: how many world steps the attribution walked.
pub const STEP_ATTRIB_STEPS: &str = "step.attrib.steps";

/// Counter: potential-deadlock cycles in the lock-order graph
/// (published by [`crate::publish_lock_doctor`]).
pub const LOCKDOCTOR_CYCLES: &str = "lockdoctor.cycles";
/// Counter: blocking hazards (lock held across a foreign condvar wait,
/// reentrant acquisition) recorded by the lock doctor.
pub const LOCKDOCTOR_HAZARDS: &str = "lockdoctor.hazards";
/// Gauge: distinct lock/condvar creation sites the doctor observed.
pub const LOCKDOCTOR_SITES: &str = "lockdoctor.sites";
/// Gauge: distinct held→acquired orderings in the lock-order graph.
pub const LOCKDOCTOR_EDGES: &str = "lockdoctor.edges";
/// Gauge: total instrumented lock acquisitions.
pub const LOCKDOCTOR_ACQUISITIONS: &str = "lockdoctor.acquisitions";

// --- composed names ---------------------------------------------------

/// Histogram: per-sample wall time (µs) of the profiler micro-bench for
/// collective `op`.
#[must_use]
pub fn profiler_sample_us(op: &str) -> String {
    format!("profiler.{op}.sample_us")
}

/// Gauge: fitted α (latency, ms) of the profiler's α–β model for `op`.
#[must_use]
pub fn profiler_alpha(op: &str) -> String {
    format!("profiler.{op}.alpha")
}

/// Gauge: fitted β (ms per element) of the profiler's α–β model for `op`.
#[must_use]
pub fn profiler_beta(op: &str) -> String {
    format!("profiler.{op}.beta")
}

/// Gauge: the α–β fit's coefficient of determination for `op`.
#[must_use]
pub fn profiler_r_squared(op: &str) -> String {
    format!("profiler.{op}.r_squared")
}

/// Span attribute: the globally unique key of one collective op —
/// `g{group}.e{epoch}[{ranks}]#{op_id}`, identical on every
/// participating rank. The group instance id disambiguates distinct
/// groups over the same rank set, the membership epoch disambiguates
/// op streams across elastic reconfigurations, and `op_id` is the
/// rank's op-stream position. `validate_trace` checks cross-rank
/// consistency of these keys; `obs::attrib` stitches per-rank
/// timelines on them.
#[must_use]
pub fn op_key(group: u64, epoch: u64, ranks: &[usize], op_id: u64) -> String {
    use std::fmt::Write as _;
    let mut key = format!("g{group}.e{epoch}[");
    for (i, r) in ranks.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{r}");
    }
    let _ = write!(key, "]#{op_id}");
    key
}

/// Gauge: measured-vs-modeled drift of one attributed phase, percent
/// (`obs::attrib::publish_drift`).
#[must_use]
pub fn attrib_model_drift_pct(phase: &str) -> String {
    format!("attrib.model_drift_pct.{phase}")
}

/// Gauge: the health monitor's score for one rank (window-averaged
/// self time over the cross-rank median; 1.0 = healthy).
#[must_use]
pub fn health_score(rank: usize) -> String {
    format!("health.score.r{rank}")
}

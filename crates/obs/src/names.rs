//! Canonical observability names — every span category, span name,
//! counter, histogram and gauge the workspace records, in one place.
//!
//! Every record call ([`crate::span`], [`crate::deferred_span`],
//! [`crate::counter_add`], [`crate::record_hist`], [`crate::set_gauge`],
//! [`crate::flight::annotate`]) takes a [`Name`], and only this crate
//! can make one, so a name that is not declared here does not compile.
//! The one `names!` declaration below makes the consts and [`ALL`];
//! `tests/registry.rs` fails on any const that no code line outside
//! this file names, so the registry stays the exact vocabulary of the
//! codebase. Names that must be composed at runtime (the profiler's
//! per-op metrics, per-rank health scores, per-phase drift) come from
//! the helper functions at the bottom, keeping the composition rule
//! next to the registry. DESIGN.md §7 documents the metric semantics.

/// A registered observability name. The default `Name` wraps a
/// `&'static str` const declared here; the composed helpers return a
/// `Name<String>`. The field is private to `obs`, so a string literal
/// at a record call does not compile:
///
/// ```compile_fail
/// obs::counter_add("literal", 1);
/// ```
///
/// ```
/// obs::counter_add(obs::names::BENCH_COUNTER_NOOP, 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Name<S = &'static str>(pub(crate) S);

impl Name {
    /// The declared string.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

impl<S: AsRef<str>> AsRef<str> for Name<S> {
    fn as_ref(&self) -> &str {
        self.0.as_ref()
    }
}

impl<S: AsRef<str>> std::fmt::Display for Name<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.as_ref())
    }
}

/// Declares each `IDENT = "name";` as a `pub const IDENT: Name` and
/// lists every one in [`ALL`].
macro_rules! names {
    ($($(#[$doc:meta])* $id:ident = $name:literal;)*) => {
        $($(#[$doc])* pub const $id: Name = Name($name);)*

        /// The identifier of every declared const, in declaration order.
        pub const ALL: &[&str] = &[$(stringify!($id)),*];
    };
}

names! {
    // --- span categories --------------------------------------------------

    /// Span category of the collectives crate (one span per collective op).
    CAT_COLLECTIVES = "collectives";
    /// Span category of the fsmoe layer crate (gate/dispatch/compute/combine).
    CAT_FSMOE = "fsmoe";
    /// Span category of the models crate (forward/backward/step/recovery).
    CAT_MODELS = "models";
    /// Trace category and process name used by simnet's schedule export.
    CAT_SIMNET = "simnet";
    /// Span category used by the bench harness's overhead probes.
    CAT_BENCH = "bench";

    // --- span names -------------------------------------------------------

    /// Span: one all-reduce collective.
    SPAN_ALL_REDUCE = "all_reduce";
    /// Span: one all-gather collective.
    SPAN_ALL_GATHER = "all_gather";
    /// Span: one reduce-scatter collective.
    SPAN_REDUCE_SCATTER = "reduce_scatter";
    /// Span: one all-to-all collective.
    SPAN_ALL_TO_ALL = "all_to_all";
    /// Span: one broadcast collective.
    SPAN_BROADCAST = "broadcast";
    /// Span: one barrier collective.
    SPAN_BARRIER = "barrier";

    /// Span: a full model forward pass.
    SPAN_MODEL_FORWARD = "model.forward";
    /// Span: a full model backward pass.
    SPAN_MODEL_BACKWARD = "model.backward";
    /// Span: one optimiser-inclusive training step.
    SPAN_TRAIN_STEP = "train_step";
    /// Span: the optimiser update inside a training step.
    SPAN_UPDATE = "update";
    /// Span: one block's attention forward.
    SPAN_ATTN_FWD = "attn_fwd";
    /// Span: one block's attention backward.
    SPAN_ATTN_BWD = "attn_bwd";
    /// Span: the data-parallel all-reduce of the replicated (attention)
    /// gradients inside a training step.
    SPAN_GRAD_ALLREDUCE = "grad_allreduce";
    /// Span: taking a recovery snapshot/checkpoint.
    SPAN_SNAPSHOT = "snapshot";
    /// Span: restoring state after a failure.
    SPAN_RECOVER = "recover";
    /// Span: the elastic eviction + re-shard + rollback sequence.
    SPAN_ELASTIC_RECONFIGURE = "elastic.reconfigure";
    /// Span: an eviction-free hot-expert migration (world-broadcast
    /// transfer → rebind).
    SPAN_ELASTIC_MIGRATE = "elastic.migrate";

    /// Span: an MoE layer forward pass.
    SPAN_MOE_FORWARD = "moe.forward";
    /// Span: an MoE layer backward pass.
    SPAN_MOE_BACKWARD = "moe.backward";
    /// Span: the gating network + routing decision.
    SPAN_GATE = "gate";
    /// Span: packing tokens toward their experts (incl. the dispatch a2a).
    SPAN_DISPATCH = "dispatch";
    /// Span: the expert FFN compute.
    SPAN_EXPERT_COMPUTE = "expert_compute";
    /// Span: un-permuting expert outputs back to token order.
    SPAN_COMBINE = "combine";

    /// Span: the bench harness's empty probe span (disabled-cost measurement).
    BENCH_SPAN_NOOP = "noop";
    /// Histogram: the bench harness's empty probe histogram.
    BENCH_HIST_NOOP = "bench.noop";
    /// Counter: the bench harness's empty probe counter (flight-recorder
    /// per-event cost measurement).
    BENCH_COUNTER_NOOP = "bench.noop.count";

    // --- flight recorder --------------------------------------------------

    /// Trace category (and process name) of flight-recorder dumps.
    CAT_FLIGHT = "flight";
    /// Span: the zero-duration marker every flight dump stamps on itself,
    /// so even an otherwise-empty dump is a valid trace.
    FLIGHT_DUMP_SPAN = "flight.dump";
    /// Marker: a panic hook fired (recorded just before the dump drains).
    FLIGHT_PANIC = "flight.panic";
    /// Marker: the in-process hang watchdog fired.
    FLIGHT_WATCHDOG = "flight.watchdog";
    /// Counter: flight-recorder dumps taken this process.
    FLIGHT_DUMPS = "flight.dumps";

    // --- counters and gauges ----------------------------------------------

    /// Counter: collective ops that failed with a deadline timeout.
    COLLECTIVES_TIMEOUTS = "collectives.timeouts";
    /// Counter: re-attempts of an already-attempted op-stream position.
    COLLECTIVES_RETRIES = "collectives.retries";
    /// Counter: ops that observed an abandoned rendezvous round.
    COLLECTIVES_ABANDONED = "collectives.abandoned";
    /// Counter: ops that failed on a poisoned group.
    COLLECTIVES_POISONED = "collectives.poisoned";
    /// Counter: ops that failed fast on a dead peer.
    COLLECTIVES_RANK_DOWN = "collectives.rank_down";
    /// Counter: faults the injector delivered (kills, delays, drops).
    COLLECTIVES_FAULTS_INJECTED = "collectives.faults_injected";
    /// Counter: abandoned exchanges skipped via `GroupComm::skip_op`.
    COLLECTIVES_SKIPPED_OPS = "collectives.skipped_ops";
    /// Counter: completed membership evictions (one per agreed shrink).
    COLLECTIVES_EVICTIONS = "collectives.evictions";
    /// Gauge: the current membership epoch (bumped on every eviction).
    COLLECTIVES_MEMBERSHIP_EPOCH = "collectives.membership_epoch";
    /// Counter: elastic recoveries that fell back to the in-memory
    /// snapshot because the on-disk checkpoint was missing or corrupt.
    ELASTIC_CHECKPOINT_FALLBACKS = "elastic.checkpoint_fallbacks";
    /// Counter: token assignments dropped by degraded MoE forwards.
    MOE_DROPPED_TOKENS = "moe.dropped_tokens";
    /// Counter: degraded forwards that dropped tokens (events, not tokens).
    MOE_DROP_EVENTS = "moe.drop_events";
    /// Histogram: per-expert token load, one sample per expert per gate.
    MOE_EXPERT_LOAD = "moe.expert_load";
    /// Counter: completed hot-expert migrations (counted once, on the
    /// receiving rank).
    MOE_MIGRATIONS = "moe.migrations";
    /// Counter: ranks quarantined by the health monitor (escalation ladder
    /// stage 2: the rank keeps its experts but loses migration-destination
    /// eligibility and its hot experts drain off it).
    HEALTH_QUARANTINES = "health.quarantines";
    /// Counter: live-but-slow ranks evicted after simnet's gray-failure
    /// pricing said eviction beats limping (escalation ladder stage 3).
    HEALTH_EVICTIONS = "health.evictions";
    /// Gauge: the health monitor's worst (highest) per-rank score on the
    /// last observation — 1.0 is median-healthy, 2.0 runs at half speed.
    HEALTH_WORST_SCORE = "health.worst_score";

    /// Gauge: mean per-step expert-compute time across ranks, µs (published
    /// by `obs::attrib`).
    STEP_ATTRIB_COMPUTE_US = "step.attrib.compute_us";
    /// Gauge: mean per-step wire time (post-last-arrival collective time)
    /// across ranks, µs.
    STEP_ATTRIB_WIRE_US = "step.attrib.wire_us";
    /// Gauge: mean per-step blocked-wait (straggler) time across ranks, µs.
    STEP_ATTRIB_WAIT_US = "step.attrib.wait_us";
    /// Gauge: mean per-step overlap credit (compute concurrent with wire)
    /// across ranks, µs.
    STEP_ATTRIB_OVERLAP_US = "step.attrib.overlap_us";
    /// Gauge: mean per-step unattributed remainder across ranks, µs.
    STEP_ATTRIB_OTHER_US = "step.attrib.other_us";
    /// Gauge: the modal critical rank across attributed steps.
    STEP_ATTRIB_CRITICAL_RANK = "step.attrib.critical_rank";
    /// Gauge: how many world steps the attribution walked.
    STEP_ATTRIB_STEPS = "step.attrib.steps";

    /// Counter: potential-deadlock cycles in the lock-order graph
    /// (published by [`crate::publish_lock_doctor`]).
    LOCKDOCTOR_CYCLES = "lockdoctor.cycles";
    /// Counter: blocking hazards (lock held across a foreign condvar wait,
    /// reentrant acquisition) recorded by the lock doctor.
    LOCKDOCTOR_HAZARDS = "lockdoctor.hazards";
    /// Gauge: distinct lock/condvar creation sites the doctor observed.
    LOCKDOCTOR_SITES = "lockdoctor.sites";
    /// Gauge: distinct held→acquired orderings in the lock-order graph.
    LOCKDOCTOR_EDGES = "lockdoctor.edges";
    /// Gauge: total instrumented lock acquisitions.
    LOCKDOCTOR_ACQUISITIONS = "lockdoctor.acquisitions";
}

// --- composed names ---------------------------------------------------

/// Histogram: per-sample wall time (µs) of the profiler micro-bench for
/// collective `op`.
#[must_use]
pub fn profiler_sample_us(op: &str) -> Name<String> {
    Name(format!("profiler.{op}.sample_us"))
}

/// Gauge: fitted α (latency, ms) of the profiler's α–β model for `op`.
#[must_use]
pub fn profiler_alpha(op: &str) -> Name<String> {
    Name(format!("profiler.{op}.alpha"))
}

/// Gauge: fitted β (ms per element) of the profiler's α–β model for `op`.
#[must_use]
pub fn profiler_beta(op: &str) -> Name<String> {
    Name(format!("profiler.{op}.beta"))
}

/// Gauge: the α–β fit's coefficient of determination for `op`.
#[must_use]
pub fn profiler_r_squared(op: &str) -> Name<String> {
    Name(format!("profiler.{op}.r_squared"))
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
pub fn attrib_model_drift_pct(phase: &str) -> Name<String> {
    Name(format!("attrib.model_drift_pct.{phase}"))
}

/// Gauge: the health monitor's score for one rank (window-averaged
/// self time over the cross-rank median; 1.0 = healthy).
#[must_use]
pub fn health_score(rank: usize) -> Name<String> {
    Name(format!("health.score.r{rank}"))
}

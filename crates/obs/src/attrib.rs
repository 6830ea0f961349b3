//! Cross-rank step-time attribution: where did the step go?
//!
//! The paper's Fig. 7/8 argument — and running its schedule live
//! (ROADMAP: "the paper's schedule on the live runtime") — both hinge
//! on decomposing iteration time into *expert compute*, *wire time* and
//! *blocked waiting*, per rank, and comparing the measured split
//! against the α–β model's prediction. This module is that
//! instrument. It walks a [`Snapshot`] whose threads are named
//! `"rank N"` (what `collectives::run_world` produces), stitches the
//! per-rank collective spans into world-wide ops via their `op_key`
//! attribute (see [`crate::names::op_key`]), and attributes each
//! train-step's wall clock into:
//!
//! * **compute** — time inside `expert_compute` spans;
//! * **wait** — blocked time inside a collective *before the last
//!   participant arrived*: pure straggler exposure, the time this rank
//!   donated to someone else's lateness;
//! * **wire** — collective time *after* the last arrival: the part only
//!   faster interconnect (or overlap) can reclaim;
//! * **overlap** — compute that ran concurrently with the wire phase on
//!   the same rank (credit, not cost; identically 0 in today's serial
//!   runtime, and the number the chunked-overlap runtime exists to
//!   raise);
//! * **other** — the unattributed remainder (gating, permutes,
//!   optimiser, backward GEMMs — anything without a span of its own).
//!
//! The split is exact by construction: `wall = compute + wait + wire −
//! overlap + other` per rank per step (all terms clamped at 0).
//!
//! **Critical rank**: for every stitched op, each non-last participant's
//! wait is *caused by* the op's last arriver; summing caused-wait per
//! rank per step and taking the argmax names the rank the others spent
//! the step waiting for. An injected straggler must win this argmax —
//! `examples/step_attribution.rs` asserts exactly that.
//!
//! **Model drift**: [`drift_pct`]/[`publish_drift`] compare a measured
//! phase cost against a modeled one (profiler α–β fit or simnet
//! timeline) and publish `attrib.model_drift_pct.<phase>` gauges; the
//! example enforces the tolerance.

use std::collections::BTreeMap;

use crate::{names, Snapshot, SpanRecord};

/// One rank's share of one attributed step, all in µs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankSlice {
    /// The rank (parsed from its `"rank N"` thread name).
    pub rank: usize,
    /// The rank's own `train_step` span duration.
    pub wall_us: u64,
    /// Time inside `expert_compute` spans.
    pub compute_us: u64,
    /// Collective time after the last participant arrived.
    pub wire_us: u64,
    /// Collective time spent waiting for the last participant.
    pub wait_us: u64,
    /// Compute concurrent with wire time (credit; 0 when serial).
    pub overlap_us: u64,
    /// Unattributed remainder of the step.
    pub other_us: u64,
    /// Wait time *other* ranks spent on ops this rank arrived last to.
    pub caused_wait_us: u64,
}

/// One attributed training step across all ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepAttribution {
    /// Step index (0-based, in start order).
    pub index: usize,
    /// Step wall time: the slowest rank's `train_step` duration.
    pub wall_us: u64,
    /// The rank the others waited for most this step (by caused wait;
    /// ties and the no-wait case fall back to the largest wall time).
    pub critical_rank: usize,
    /// Per-rank slices, ordered by rank.
    pub ranks: Vec<RankSlice>,
}

/// The full report [`attribute`] produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// One entry per world step, in step order.
    pub steps: Vec<StepAttribution>,
}

/// An attributed phase, for aggregate queries on a [`StepReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Expert-compute time.
    Compute,
    /// Post-last-arrival collective time.
    Wire,
    /// Straggler-exposure wait time.
    Wait,
    /// Compute-during-wire credit.
    Overlap,
    /// Unattributed remainder.
    Other,
}

impl Phase {
    fn pick(self, slice: &RankSlice) -> u64 {
        match self {
            Phase::Compute => slice.compute_us,
            Phase::Wire => slice.wire_us,
            Phase::Wait => slice.wait_us,
            Phase::Overlap => slice.overlap_us,
            Phase::Other => slice.other_us,
        }
    }
}

impl StepReport {
    /// Mean of one phase across every rank-slice of every step, µs.
    #[must_use]
    pub fn mean_phase_us(&self, phase: Phase) -> f64 {
        let slices: Vec<u64> = self
            .steps
            .iter()
            .flat_map(|s| s.ranks.iter().map(|r| phase.pick(r)))
            .collect();
        if slices.is_empty() {
            return 0.0;
        }
        slices.iter().sum::<u64>() as f64 / slices.len() as f64
    }

    /// Median of one phase on one rank across steps, µs. Medians are
    /// what drift checks should use — a single perturbed step (or an
    /// injected fault) cannot drag them.
    #[must_use]
    pub fn median_phase_us(&self, rank: usize, phase: Phase) -> f64 {
        let mut vals: Vec<u64> = self
            .steps
            .iter()
            .flat_map(|s| s.ranks.iter())
            .filter(|r| r.rank == rank)
            .map(|r| phase.pick(r))
            .collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.sort_unstable();
        vals[vals.len() / 2] as f64
    }

    /// Minimum of one phase on one rank across steps, µs — the best-of
    /// measurement. On an oversubscribed host every phase carries a
    /// scheduler-noise tail, so the *cheapest* observation of a phase is
    /// the closest to its contention-free cost; α–β calibration should
    /// consume this, exactly like the profiler's best-of-N sweeps.
    #[must_use]
    pub fn min_phase_us(&self, rank: usize, phase: Phase) -> f64 {
        self.steps
            .iter()
            .flat_map(|s| s.ranks.iter())
            .filter(|r| r.rank == rank)
            .map(|r| phase.pick(r))
            .min()
            .map_or(0.0, |v| v as f64)
    }

    /// The modal critical rank across steps (the usual suspect).
    #[must_use]
    pub fn modal_critical_rank(&self) -> Option<usize> {
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for step in &self.steps {
            *counts.entry(step.critical_rank).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(rank, n)| (n, std::cmp::Reverse(rank)))
            .map(|(rank, _)| rank)
    }

    /// The plain-text per-step table — the "where did my step go"
    /// answer, one row per rank per step, critical rank starred.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out =
            String::from("step  rank  wall_us  compute  wire  wait  overlap  other  caused_wait\n");
        for step in &self.steps {
            for slice in &step.ranks {
                let star = if slice.rank == step.critical_rank {
                    "*"
                } else {
                    " "
                };
                out.push_str(&format!(
                    "{:>4}  {star}{:>3}  {:>7}  {:>7}  {:>4}  {:>4}  {:>7}  {:>5}  {:>11}\n",
                    step.index,
                    slice.rank,
                    slice.wall_us,
                    slice.compute_us,
                    slice.wire_us,
                    slice.wait_us,
                    slice.overlap_us,
                    slice.other_us,
                    slice.caused_wait_us,
                ));
            }
        }
        out
    }

    /// Publishes the report as `step.attrib.*` gauges (mean phase costs
    /// across steps and ranks, the modal critical rank, the step
    /// count). No-op while the registry is disabled, like every record
    /// call.
    pub fn publish(&self) {
        crate::set_gauge(
            names::STEP_ATTRIB_COMPUTE_US,
            self.mean_phase_us(Phase::Compute),
        );
        crate::set_gauge(names::STEP_ATTRIB_WIRE_US, self.mean_phase_us(Phase::Wire));
        crate::set_gauge(names::STEP_ATTRIB_WAIT_US, self.mean_phase_us(Phase::Wait));
        crate::set_gauge(
            names::STEP_ATTRIB_OVERLAP_US,
            self.mean_phase_us(Phase::Overlap),
        );
        crate::set_gauge(
            names::STEP_ATTRIB_OTHER_US,
            self.mean_phase_us(Phase::Other),
        );
        if let Some(rank) = self.modal_critical_rank() {
            crate::set_gauge(names::STEP_ATTRIB_CRITICAL_RANK, rank as f64);
        }
        crate::set_gauge(names::STEP_ATTRIB_STEPS, self.steps.len() as f64);
    }
}

/// A collective span stitched into its world-wide op.
struct OpMember<'a> {
    rank: usize,
    tid: u64,
    span: &'a SpanRecord,
}

fn span_attr<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
    span.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
}

fn rank_of_thread(name: &str) -> Option<usize> {
    name.strip_prefix("rank ")?.trim().parse().ok()
}

/// Overlap of `[lo, hi)` with the union of `spans` on one thread, µs.
fn overlap_with(lo: u64, hi: u64, spans: &[(u64, u64)]) -> u64 {
    spans
        .iter()
        .map(|&(s, e)| hi.min(e).saturating_sub(lo.max(s)))
        .sum()
}

/// Attributes every train step in `snapshot` (threads must be named
/// `"rank N"`; collective spans are stitched on their `op_key`
/// attribute). Steps are matched across ranks by start order; trailing
/// steps not present on every rank are dropped.
///
/// # Errors
///
/// Fails when no `"rank N"` threads or no `train_step` spans exist —
/// attribution on such a snapshot would be meaningless, not merely
/// empty.
pub fn attribute(snapshot: &Snapshot) -> Result<StepReport, String> {
    // -- rank roster ----------------------------------------------------
    let mut rank_by_tid: BTreeMap<u64, usize> = BTreeMap::new();
    for (&tid, name) in &snapshot.threads {
        if let Some(rank) = rank_of_thread(name) {
            rank_by_tid.insert(tid, rank);
        }
    }
    if rank_by_tid.is_empty() {
        return Err("no \"rank N\" thread names in snapshot — was the \
                    trace recorded under collectives::run_world?"
            .to_string());
    }

    // -- step windows: the k-th train_step span per rank ---------------
    let mut steps_by_rank: BTreeMap<usize, Vec<&SpanRecord>> = BTreeMap::new();
    for span in &snapshot.spans {
        if span.name != names::SPAN_TRAIN_STEP.0 {
            continue;
        }
        let Some(&rank) = rank_by_tid.get(&span.tid) else {
            continue;
        };
        steps_by_rank.entry(rank).or_default().push(span);
    }
    if steps_by_rank.is_empty() {
        return Err("no train_step spans in snapshot".to_string());
    }
    for steps in steps_by_rank.values_mut() {
        steps.sort_by_key(|s| s.start_us);
    }
    let n_steps = steps_by_rank.values().map(Vec::len).min().unwrap_or(0);
    let ranks: Vec<usize> = steps_by_rank.keys().copied().collect();

    // Step containing a given instant on a given rank.
    let step_of = |rank: usize, ts: u64| -> Option<usize> {
        steps_by_rank
            .get(&rank)?
            .iter()
            .take(n_steps)
            .position(|w| ts >= w.start_us && ts < w.start_us + w.dur_us.max(1))
    };

    // -- per-tid compute intervals -------------------------------------
    let mut compute_by_tid: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in &snapshot.spans {
        if span.name == names::SPAN_EXPERT_COMPUTE.0 && rank_by_tid.contains_key(&span.tid) {
            compute_by_tid
                .entry(span.tid)
                .or_default()
                .push((span.start_us, span.start_us + span.dur_us));
        }
    }

    // -- stitch collectives on op_key ----------------------------------
    let mut ops: BTreeMap<&str, Vec<OpMember<'_>>> = BTreeMap::new();
    let mut solo = Vec::new(); // collective spans without a key: wire-only
    for span in &snapshot.spans {
        if span.cat != names::CAT_COLLECTIVES.0 {
            continue;
        }
        let Some(&rank) = rank_by_tid.get(&span.tid) else {
            continue;
        };
        let member = OpMember {
            rank,
            tid: span.tid,
            span,
        };
        match span_attr(span, "op_key") {
            Some(key) => ops.entry(key).or_default().push(member),
            None => solo.push(member),
        }
    }

    // -- accumulate ----------------------------------------------------
    let mut slices: BTreeMap<(usize, usize), RankSlice> = BTreeMap::new();
    for (step, &rank) in ranks.iter().flat_map(|r| (0..n_steps).map(move |s| (s, r))) {
        let window = steps_by_rank[&rank][step];
        slices.insert(
            (step, rank),
            RankSlice {
                rank,
                wall_us: window.dur_us,
                compute_us: compute_by_tid.get(&window.tid).map_or(0, |spans| {
                    overlap_with(window.start_us, window.start_us + window.dur_us, spans)
                }),
                ..RankSlice::default()
            },
        );
    }

    let account = |slices: &mut BTreeMap<(usize, usize), RankSlice>,
                   member: &OpMember<'_>,
                   last_enter: u64|
     -> u64 {
        let start = member.span.start_us;
        let end = start + member.span.dur_us;
        let Some(step) = step_of(member.rank, start) else {
            return 0; // outside every step window (warmup, teardown)
        };
        let slice = slices
            .entry((step, member.rank))
            .or_insert_with(|| RankSlice {
                rank: member.rank,
                ..RankSlice::default()
            });
        let wait = last_enter.saturating_sub(start).min(member.span.dur_us);
        slice.wait_us += wait;
        slice.wire_us += end.saturating_sub(last_enter.max(start));
        if let Some(compute) = compute_by_tid.get(&member.tid) {
            slice.overlap_us += overlap_with(last_enter.max(start), end, compute);
        }
        wait
    };

    for members in ops.values() {
        let last_enter = members.iter().map(|m| m.span.start_us).max().unwrap_or(0);
        let last = members
            .iter()
            .max_by_key(|m| (m.span.start_us, m.rank))
            .map(|m| (m.rank, m.span.start_us));
        let mut others_wait = 0;
        for member in members {
            others_wait += account(&mut slices, member, last_enter);
        }
        // Charge every other member's wait to the op's last arriver.
        if let Some((last_rank, last_start)) = last {
            if members.len() > 1 && others_wait > 0 {
                if let Some(step) = step_of(last_rank, last_start) {
                    if let Some(slice) = slices.get_mut(&(step, last_rank)) {
                        slice.caused_wait_us += others_wait;
                    }
                }
            }
        }
    }
    for member in &solo {
        account(&mut slices, member, member.span.start_us);
    }

    // -- close the books: other = wall − the rest ----------------------
    let mut steps = Vec::with_capacity(n_steps);
    for step in 0..n_steps {
        let mut rank_slices = Vec::with_capacity(ranks.len());
        for &rank in &ranks {
            let mut slice = slices.remove(&(step, rank)).unwrap_or(RankSlice {
                rank,
                ..RankSlice::default()
            });
            slice.other_us = slice
                .wall_us
                .saturating_sub(slice.compute_us)
                .saturating_sub(slice.wire_us)
                .saturating_sub(slice.wait_us)
                + slice.overlap_us;
            rank_slices.push(slice);
        }
        let critical_rank = rank_slices
            .iter()
            .max_by_key(|s| (s.caused_wait_us, s.wall_us, std::cmp::Reverse(s.rank)))
            .map_or(0, |s| s.rank);
        steps.push(StepAttribution {
            index: step,
            wall_us: rank_slices.iter().map(|s| s.wall_us).max().unwrap_or(0),
            critical_rank,
            ranks: rank_slices,
        });
    }
    Ok(StepReport { steps })
}

// --- model drift ------------------------------------------------------

/// Relative measured-vs-modeled drift, percent. Symmetric in neither
/// argument: the *model* is the denominator (a 2× overshoot and a 2×
/// undershoot both read as large). A zero/negative model with a nonzero
/// measurement reads as 100%.
#[must_use]
pub fn drift_pct(measured_us: f64, modeled_us: f64) -> f64 {
    if modeled_us <= 0.0 {
        return if measured_us.abs() <= f64::EPSILON {
            0.0
        } else {
            100.0
        };
    }
    (measured_us - modeled_us).abs() / modeled_us * 100.0
}

/// Computes [`drift_pct`] and publishes it as the
/// `attrib.model_drift_pct.<phase>` gauge. Returns the drift either way
/// (gauge writes are no-ops while the registry is disabled).
pub fn publish_drift(phase: &str, measured_us: f64, modeled_us: f64) -> f64 {
    let drift = drift_pct(measured_us, modeled_us);
    crate::set_gauge(names::attrib_model_drift_pct(phase), drift);
    drift
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Name;

    fn span(
        Name(cat): Name,
        Name(name): Name,
        tid: u64,
        start_us: u64,
        dur_us: u64,
        op_key: Option<String>,
    ) -> SpanRecord {
        SpanRecord {
            cat,
            name,
            tid,
            start_us,
            dur_us,
            attrs: op_key.into_iter().map(|k| ("op_key", k)).collect(),
        }
    }

    /// Two ranks, one step each. Rank 1 computes 300µs then enters the
    /// collective at t=400; rank 0 computes 100µs and waits at t=100.
    /// The op runs 400→450. Rank 1 must be critical, and rank 0's wait
    /// must equal rank 1's lateness (300µs).
    fn two_rank_snapshot() -> Snapshot {
        let key = names::op_key(1, 0, &[0, 1], 0);
        let spans = vec![
            span(names::CAT_MODELS, names::SPAN_TRAIN_STEP, 1, 0, 500, None),
            span(names::CAT_MODELS, names::SPAN_TRAIN_STEP, 2, 0, 500, None),
            span(
                names::CAT_FSMOE,
                names::SPAN_EXPERT_COMPUTE,
                1,
                0,
                100,
                None,
            ),
            span(
                names::CAT_FSMOE,
                names::SPAN_EXPERT_COMPUTE,
                2,
                0,
                300,
                None,
            ),
            span(
                names::CAT_COLLECTIVES,
                names::SPAN_ALL_TO_ALL,
                1,
                100,
                350,
                Some(key.clone()),
            ),
            span(
                names::CAT_COLLECTIVES,
                names::SPAN_ALL_TO_ALL,
                2,
                400,
                50,
                Some(key),
            ),
        ];
        let mut threads = std::collections::BTreeMap::new();
        threads.insert(1, "rank 0".to_string());
        threads.insert(2, "rank 1".to_string());
        Snapshot {
            spans,
            threads,
            counters: Default::default(),
            histograms: Default::default(),
            gauges: Default::default(),
        }
    }

    #[test]
    fn straggler_blamed_and_books_balance() {
        let report = attribute(&two_rank_snapshot()).unwrap();
        assert_eq!(report.steps.len(), 1);
        let step = &report.steps[0];
        assert_eq!(step.critical_rank, 1, "rank 1 arrived last");
        assert_eq!(step.wall_us, 500);

        let r0 = &step.ranks[0];
        assert_eq!((r0.rank, r0.wait_us, r0.wire_us), (0, 300, 50));
        assert_eq!(r0.compute_us, 100);
        assert_eq!(r0.caused_wait_us, 0);
        // wall = compute + wait + wire − overlap + other
        assert_eq!(
            r0.wall_us,
            r0.compute_us + r0.wait_us + r0.wire_us - r0.overlap_us + r0.other_us
        );

        let r1 = &step.ranks[1];
        assert_eq!((r1.rank, r1.wait_us, r1.wire_us), (1, 0, 50));
        assert_eq!(r1.caused_wait_us, 300, "charged rank 0's wait");
        assert_eq!(report.modal_critical_rank(), Some(1));
    }

    #[test]
    fn table_and_publish_smoke() {
        let report = attribute(&two_rank_snapshot()).unwrap();
        let table = report.table();
        assert!(table.contains("caused_wait"));
        assert!(table.contains("*  1"), "critical rank starred: {table}");
        assert!(report.mean_phase_us(Phase::Wait) > 0.0);
        assert_eq!(report.median_phase_us(0, Phase::Wait), 300.0);
    }

    #[test]
    fn unkeyed_collectives_are_wire_only() {
        let mut snap = two_rank_snapshot();
        for span in &mut snap.spans {
            span.attrs.clear();
        }
        let report = attribute(&snap).unwrap();
        let r0 = &report.steps[0].ranks[0];
        assert_eq!(r0.wait_us, 0);
        assert_eq!(r0.wire_us, 350, "whole op counts as wire without a key");
    }

    #[test]
    fn rejects_unstitchable_snapshots() {
        let empty = Snapshot {
            spans: vec![],
            threads: Default::default(),
            counters: Default::default(),
            histograms: Default::default(),
            gauges: Default::default(),
        };
        assert!(attribute(&empty).is_err());
    }

    #[test]
    fn drift_math() {
        assert!((drift_pct(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert!((drift_pct(90.0, 100.0) - 10.0).abs() < 1e-9);
        assert_eq!(drift_pct(5.0, 0.0), 100.0);
        assert_eq!(drift_pct(0.0, 0.0), 0.0);
    }
}

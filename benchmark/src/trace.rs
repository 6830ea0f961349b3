//! Driver-side span recorder.
//!
//! The traced run wraps every public call `step.rs` / `plan.rs` makes in
//! a span `{name, start_ns, end_ns, parent, rank, step}`; spans of one
//! step share the id `(workload, rank, step)`. Spans stay in memory and
//! are written to `trace_<workload>.json` when the run ends. A span's
//! self time is its duration minus the part its children cover. With
//! the recorder off (`Recorder::off`, the timed run) `begin`/`end` are
//! one branch each.

use std::collections::BTreeMap;
use std::time::Instant;

use jsonio::Json;

/// One finished driver span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the same recorder's span list) of the enclosing span.
    pub parent: Option<usize>,
    pub rank: usize,
    pub step: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::begin`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Per-rank span recorder (one per rank thread, merged after the run).
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    rank: usize,
    step: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            on: false,
            epoch: Instant::now(),
            rank: 0,
            step: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A live recorder; `epoch` is shared by all ranks of a run so their
    /// timelines line up.
    pub fn on(epoch: Instant, rank: usize) -> Self {
        Recorder {
            on: true,
            epoch,
            rank,
            ..Recorder::off()
        }
    }

    /// Sets the step id stamped on spans opened from now on.
    pub fn set_step(&mut self, step: usize) {
        self.step = step;
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            rank: self.rank,
            step: self.step,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::begin`] (innermost first).
    #[inline]
    pub fn end(&mut self, open: Open) {
        let Open(Some(idx)) = open else { return };
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span of one recorder: duration minus the part of
/// the interval its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Total duration per span name, ns.
pub fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.dur_ns();
    }
    out
}

/// The trace document: one object per span, per-rank lists concatenated.
/// `parent` indexes into the emitted array.
pub fn to_json(workload: &str, per_rank: &[Vec<Span>]) -> Json {
    let mut base = 0usize;
    let mut out = Vec::new();
    for spans in per_rank {
        for s in spans {
            let mut o = BTreeMap::new();
            o.insert("name".to_string(), Json::from(s.name));
            o.insert("start_ns".to_string(), Json::Num(s.start_ns as f64));
            o.insert("end_ns".to_string(), Json::Num(s.end_ns as f64));
            o.insert(
                "parent".to_string(),
                s.parent.map_or(Json::Null, |p| Json::from(base + p)),
            );
            o.insert("rank".to_string(), Json::from(s.rank));
            o.insert("step".to_string(), Json::from(s.step));
            o.insert(
                "id".to_string(),
                Json::from(format!("{workload}/{}/{}", s.rank, s.step)),
            );
            out.push(Json::Obj(o));
        }
        base += spans.len();
    }
    Json::obj([
        ("workload", Json::from(workload)),
        ("spans", Json::Arr(out)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rank: 0,
            step: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("step", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = vec![span("p", 10, 20, None), span("c", 15, 30, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn recorder_nests_and_stamps_step_ids() {
        let mut rec = Recorder::on(Instant::now(), 1);
        rec.set_step(7);
        let outer = rec.begin("step");
        let inner = rec.begin("x");
        rec.end(inner);
        rec.end(outer);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].rank, spans[1].step), (1, 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut rec = Recorder::off();
        let s = rec.begin("step");
        rec.end(s);
        assert!(rec.into_spans().is_empty());
    }
}

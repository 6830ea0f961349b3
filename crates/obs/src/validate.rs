//! The in-tree trace checker CI runs over emitted trace files.
//!
//! A trace that loads in a viewer but lies (negative durations, events
//! out of order, missing fields) is worse than no trace, so the smoke
//! step validates structure, typing and timestamp monotonicity before
//! a human ever opens the file.

use std::collections::BTreeMap;

use jsonio::Json;

/// Summary of a validated trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events of any phase.
    pub events: usize,
    /// Complete ("X") span events.
    pub spans: usize,
    /// Distinct `(pid, tid)` rows carrying spans.
    pub threads: usize,
    /// Largest `ts + dur` seen, in µs.
    pub max_ts_us: u64,
    /// Distinct collective op keys stitched across ranks.
    pub op_keys: usize,
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events, {} spans on {} threads, {} stitched op keys, {:.1} ms",
            self.events,
            self.spans,
            self.threads,
            self.op_keys,
            self.max_ts_us as f64 / 1000.0
        )
    }
}

/// The verdict of a self-validating example: unless `cond` holds, names
/// the failed check on stderr and exits the process non-zero.
pub fn ensure(cond: bool, what: &str) {
    if !cond {
        eprintln!("self-check FAILED: {what}");
        std::process::exit(1);
    }
}

/// One span carrying an `op_key` attribute, as collected for the
/// cross-rank consistency checks.
struct KeyedSpan {
    key: String,
    rank: Option<usize>,
    pid: u64,
    tid: u64,
    ts: f64,
    dur: f64,
    idx: usize,
}

/// The participant ranks a well-formed op key declares — the
/// `[r0,r1,...]` segment of `g{group}.e{epoch}[...]#{op_id}`.
fn key_participants(key: &str) -> Option<Vec<usize>> {
    let inner = key.split('[').nth(1)?.split(']').next()?;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|r| r.trim().parse().ok())
        .collect::<Option<Vec<usize>>>()
}

/// Cross-rank op-key consistency: every key must appear exactly once on
/// each rank its `[...]` segment names (no one else), and per thread
/// row the keyed spans must nest cleanly (disjoint or fully contained —
/// a half-overlap means two collectives ran concurrently on one rank,
/// which the SPMD op stream forbids). Reports the first offending key
/// in document order.
fn check_op_keys(keyed: &[KeyedSpan]) -> Result<usize, String> {
    let mut order: Vec<&str> = Vec::new();
    let mut by_key: BTreeMap<&str, Vec<&KeyedSpan>> = BTreeMap::new();
    for span in keyed {
        if !by_key.contains_key(span.key.as_str()) {
            order.push(&span.key);
        }
        by_key.entry(&span.key).or_default().push(span);
    }

    for key in &order {
        let members = &by_key[key];
        let participants = key_participants(key)
            .ok_or_else(|| format!("op key {key:?}: malformed participant list"))?;
        let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
        for member in members {
            let rank = member.rank.ok_or_else(|| {
                format!(
                    "op key {key:?}: event {} carries the key but no numeric \"rank\" arg",
                    member.idx
                )
            })?;
            *seen.entry(rank).or_insert(0) += 1;
        }
        for &rank in &participants {
            match seen.remove(&rank) {
                Some(1) => {}
                Some(n) => {
                    return Err(format!(
                        "op key {key:?}: rank {rank} recorded it {n} times (exactly one expected)"
                    ));
                }
                None => {
                    return Err(format!(
                        "op key {key:?}: participating rank {rank} never recorded it"
                    ));
                }
            }
        }
        if let Some((&rank, _)) = seen.iter().next() {
            return Err(format!(
                "op key {key:?}: rank {rank} recorded it but is not a participant"
            ));
        }
    }

    // Per-row nesting: sort by (start asc, longest first) and sweep a
    // containment stack.
    let mut rows: BTreeMap<(u64, u64), Vec<&KeyedSpan>> = BTreeMap::new();
    for span in keyed {
        rows.entry((span.pid, span.tid)).or_default().push(span);
    }
    for ((pid, tid), mut spans) in rows {
        spans.sort_by(|a, b| {
            a.ts.total_cmp(&b.ts)
                .then(b.dur.total_cmp(&a.dur))
                .then(a.idx.cmp(&b.idx))
        });
        let mut stack: Vec<&KeyedSpan> = Vec::new();
        for span in spans {
            while stack.last().is_some_and(|top| span.ts >= top.ts + top.dur) {
                stack.pop();
            }
            if let Some(top) = stack.last() {
                if span.ts + span.dur > top.ts + top.dur {
                    return Err(format!(
                        "op key {:?}: span at ts {} overlaps op key {:?} ([{}, {})) on pid \
                         {pid} tid {tid} without nesting",
                        span.key,
                        span.ts,
                        top.key,
                        top.ts,
                        top.ts + top.dur,
                    ));
                }
            }
            stack.push(span);
        }
    }
    Ok(order.len())
}

fn num_field(event: &Json, key: &str, idx: usize) -> Result<f64, String> {
    let v = event
        .get(key)
        .map_err(|_| format!("event {idx}: missing {key:?}"))?
        .as_f64()
        .map_err(|_| format!("event {idx}: {key:?} is not a number"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!(
            "event {idx}: {key:?} = {v} is not a finite non-negative number"
        ));
    }
    Ok(v)
}

/// Validates a Chrome trace-event document:
///
/// * parses as JSON with a `"traceEvents"` array of objects;
/// * every event has a string `"ph"` and a non-empty string `"name"`;
/// * every `"X"` event has finite, non-negative numeric
///   `ts`/`dur`/`pid`/`tid`;
/// * per `(pid, tid)` row, `"X"` start timestamps are non-decreasing in
///   document order (viewers tolerate disorder; our exporters promise
///   better, and the promise is what makes diffs of traces readable);
/// * at least one `"X"` span exists;
/// * collective op keys (`args.op_key`) are cross-rank consistent:
///   every key appears exactly once on each rank its participant list
///   names, and keyed spans nest cleanly per thread row (the first
///   offending key is reported).
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .map_err(|_| "missing top-level \"traceEvents\"".to_string())?
        .as_arr()
        .map_err(|_| "\"traceEvents\" is not an array".to_string())?;

    let mut spans = 0usize;
    let mut max_ts_us = 0u64;
    let mut last_start: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut keyed: Vec<KeyedSpan> = Vec::new();
    for (idx, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .map_err(|_| format!("event {idx}: missing \"ph\""))?
            .as_str()
            .map_err(|_| format!("event {idx}: \"ph\" is not a string"))?;
        let name = event
            .get("name")
            .map_err(|_| format!("event {idx}: missing \"name\""))?
            .as_str()
            .map_err(|_| format!("event {idx}: \"name\" is not a string"))?;
        if name.is_empty() {
            return Err(format!("event {idx}: empty \"name\""));
        }
        if ph != "X" {
            continue;
        }
        spans += 1;
        let ts = num_field(event, "ts", idx)?;
        let dur = num_field(event, "dur", idx)?;
        let pid = num_field(event, "pid", idx)? as u64;
        let tid = num_field(event, "tid", idx)? as u64;
        max_ts_us = max_ts_us.max((ts + dur) as u64);
        if let Some(&prev) = last_start.get(&(pid, tid)) {
            if ts < prev {
                return Err(format!(
                    "event {idx} ({name:?}): ts {ts} precedes {prev} on pid {pid} tid {tid} — \
                     timestamps must be non-decreasing per thread row"
                ));
            }
        }
        last_start.insert((pid, tid), ts);
        if let Ok(args) = event.get("args") {
            if let Some(key) = args.get("op_key").ok().and_then(|k| k.as_str().ok()) {
                let rank = args
                    .get("rank")
                    .ok()
                    .and_then(|r| r.as_str().ok())
                    .and_then(|r| r.parse().ok());
                keyed.push(KeyedSpan {
                    key: key.to_string(),
                    rank,
                    pid,
                    tid,
                    ts,
                    dur,
                    idx,
                });
            }
        }
    }
    if spans == 0 {
        return Err("trace contains no \"X\" span events".to_string());
    }
    let op_keys = check_op_keys(&keyed)?;
    Ok(TraceStats {
        events: events.len(),
        spans,
        threads: last_start.len(),
        max_ts_us,
        op_keys,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(name: &str, tid: f64, ts: f64, dur: f64) -> String {
        format!(
            r#"{{"ph":"X","name":"{name}","cat":"t","pid":1,"tid":{tid},"ts":{ts},"dur":{dur},"args":{{}}}}"#
        )
    }

    fn xk(name: &str, tid: f64, ts: f64, dur: f64, key: &str, rank: usize) -> String {
        format!(
            r#"{{"ph":"X","name":"{name}","cat":"collectives","pid":1,"tid":{tid},"ts":{ts},"dur":{dur},"args":{{"op_key":"{key}","rank":"{rank}"}}}}"#
        )
    }

    #[test]
    fn accepts_a_well_formed_trace() {
        let text = format!(
            r#"{{"traceEvents":[{},{},{}]}}"#,
            x("a", 1.0, 0.0, 10.0),
            x("b", 1.0, 2.0, 3.0),
            x("c", 2.0, 1.0, 4.0)
        );
        let stats = validate_trace(&text).unwrap();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.max_ts_us, 10);
    }

    #[test]
    fn rejects_garbage_and_structural_problems() {
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace(r#"{"other": 1}"#).is_err());
        assert!(validate_trace(r#"{"traceEvents": 3}"#).is_err());
        // no spans at all
        let err = validate_trace(r#"{"traceEvents":[]}"#).unwrap_err();
        assert!(err.contains("no \"X\" span"), "{err}");
    }

    #[test]
    fn rejects_bad_fields() {
        // missing dur
        let text = r#"{"traceEvents":[{"ph":"X","name":"a","pid":1,"tid":1,"ts":0}]}"#;
        assert!(validate_trace(text).unwrap_err().contains("dur"));
        // negative ts
        let text = format!(r#"{{"traceEvents":[{}]}}"#, x("a", 1.0, -1.0, 5.0));
        assert!(validate_trace(&text).unwrap_err().contains("ts"));
        // empty name
        let text = format!(r#"{{"traceEvents":[{}]}}"#, x("", 1.0, 0.0, 5.0));
        assert!(validate_trace(&text).unwrap_err().contains("name"));
    }

    #[test]
    fn accepts_consistent_op_keys() {
        let key0 = crate::names::op_key(1, 0, &[0, 1], 0);
        let key1 = crate::names::op_key(1, 0, &[0, 1], 1);
        let text = format!(
            r#"{{"traceEvents":[{},{},{},{}]}}"#,
            xk("all_to_all", 1.0, 0.0, 10.0, &key0, 0),
            xk("all_to_all", 1.0, 20.0, 5.0, &key1, 0),
            xk("all_to_all", 2.0, 2.0, 8.0, &key0, 1),
            xk("all_to_all", 2.0, 21.0, 4.0, &key1, 1),
        );
        let stats = validate_trace(&text).unwrap();
        assert_eq!(stats.op_keys, 2);
    }

    #[test]
    fn rejects_op_key_missing_on_a_participant() {
        let key = crate::names::op_key(3, 1, &[0, 1, 2], 7);
        let text = format!(
            r#"{{"traceEvents":[{},{}]}}"#,
            xk("all_reduce", 1.0, 0.0, 10.0, &key, 0),
            xk("all_reduce", 2.0, 0.0, 10.0, &key, 1),
        );
        let err = validate_trace(&text).unwrap_err();
        assert!(
            err.contains(&key) && err.contains("rank 2 never recorded"),
            "{err}"
        );
    }

    #[test]
    fn rejects_duplicate_and_foreign_op_key_holders() {
        let key = crate::names::op_key(1, 0, &[0, 1], 0);
        // rank 0 recorded the op twice
        let text = format!(
            r#"{{"traceEvents":[{},{},{}]}}"#,
            xk("barrier", 1.0, 0.0, 1.0, &key, 0),
            xk("barrier", 1.0, 5.0, 1.0, &key, 0),
            xk("barrier", 2.0, 0.0, 1.0, &key, 1),
        );
        assert!(validate_trace(&text).unwrap_err().contains("2 times"));
        // rank 3 is not in the participant list at all
        let text = format!(
            r#"{{"traceEvents":[{},{},{}]}}"#,
            xk("barrier", 1.0, 0.0, 1.0, &key, 0),
            xk("barrier", 2.0, 0.0, 1.0, &key, 1),
            xk("barrier", 3.0, 0.0, 1.0, &key, 3),
        );
        assert!(
            validate_trace(&text)
                .unwrap_err()
                .contains("not a participant"),
            "foreign holder must be rejected"
        );
    }

    #[test]
    fn rejects_half_overlapping_keyed_spans_and_reports_first_key() {
        let key_a = crate::names::op_key(1, 0, &[0], 0);
        let key_b = crate::names::op_key(2, 0, &[0], 0);
        let text = format!(
            r#"{{"traceEvents":[{},{}]}}"#,
            xk("all_gather", 1.0, 0.0, 10.0, &key_a, 0),
            xk("all_gather", 1.0, 5.0, 10.0, &key_b, 0),
        );
        let err = validate_trace(&text).unwrap_err();
        assert!(
            err.contains(&key_b) && err.contains("without nesting"),
            "{err}"
        );
        // full containment on the same row is fine
        let text = format!(
            r#"{{"traceEvents":[{},{}]}}"#,
            xk("all_gather", 1.0, 0.0, 10.0, &key_a, 0),
            xk("all_gather", 1.0, 2.0, 3.0, &key_b, 0),
        );
        validate_trace(&text).unwrap();
    }

    #[test]
    fn rejects_out_of_order_rows() {
        let text = format!(
            r#"{{"traceEvents":[{},{}]}}"#,
            x("late", 1.0, 10.0, 1.0),
            x("early", 1.0, 5.0, 1.0)
        );
        let err = validate_trace(&text).unwrap_err();
        assert!(err.contains("non-decreasing"), "{err}");
        // same disorder on *different* rows is fine
        let text = format!(
            r#"{{"traceEvents":[{},{}]}}"#,
            x("late", 1.0, 10.0, 1.0),
            x("early", 2.0, 5.0, 1.0)
        );
        validate_trace(&text).unwrap();
    }
}

//! Chrome trace-event export of simulated timelines.
//!
//! A simulated Testbed run and a real CPU run should open side-by-side
//! in one viewer — the reproduction's analogue of the paper's
//! profiler-vs-wall-clock validation (§6.2). This module therefore
//! emits a [`Timeline`] in the *same* trace-event schema the `obs`
//! registry exports: one `"X"` complete event per task, one thread row
//! per simulated resource, under a dedicated `pid` so a merged file
//! shows "simnet" as its own process next to the real run.
//!
//! Simulated durations are milliseconds; trace timestamps are µs, so
//! everything scales by 1000 on the way out.

use jsonio::Json;
use obs::TraceBuilder;

use crate::{ResourceId, TaskGraph, TaskId, Timeline};

/// The simulator's process id in exported traces (the live `obs`
/// registry exports under pid 1).
pub const SIMNET_PID: u64 = 2;

/// Exports `timeline` as a Chrome trace-event document: one thread row
/// per resource (named as in the Gantt chart), one complete event per
/// task with its simulated start/duration, and the makespan under the
/// top-level `"simnet"` key.
///
/// Zero-duration tasks are kept (viewers render them as instants);
/// [`crate::render_gantt`] skips them, which is the one divergence the
/// round-trip test pins down.
#[must_use]
pub fn timeline_trace(graph: &TaskGraph, timeline: &Timeline) -> Json {
    let mut builder = TraceBuilder::new();
    builder.process_name(SIMNET_PID, obs::names::CAT_SIMNET.as_str());
    for r in 0..graph.resource_count() {
        let name = graph.resource_name(ResourceId(r)).unwrap_or("<unknown>");
        builder.thread_name(SIMNET_PID, r as u64, name);
    }

    // Emit in start order so per-row timestamps are monotonic (the
    // checker's contract), with issue order breaking exact ties.
    let mut order: Vec<usize> = (0..graph.tasks().len()).collect();
    order.sort_by(|&a, &b| {
        let sa = timeline.spans()[a].start;
        let sb = timeline.spans()[b].start;
        sa.partial_cmp(&sb)
            .expect("simulated times are finite")
            .then(a.cmp(&b))
    });
    for i in order {
        let task = &graph.tasks()[i];
        let span = timeline.spans()[i];
        let ts_us = (span.start * 1000.0).round() as u64;
        let dur_us = (span.duration() * 1000.0).round() as u64;
        builder.complete(
            SIMNET_PID,
            task.resource.index() as u64,
            obs::names::CAT_SIMNET.as_str(),
            &graph.name(TaskId(i)).to_string(),
            ts_us,
            dur_us,
            &[],
        );
    }

    builder.into_trace([(
        obs::names::CAT_SIMNET.as_str(),
        Json::obj([
            ("makespan_ms", Json::from(timeline.makespan())),
            ("tasks", Json::from(graph.tasks().len())),
            ("resources", Json::from(graph.resource_count())),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    #[test]
    fn exports_every_task_on_its_resource_row() {
        let mut g = TaskGraph::new();
        let c = g.add_resource("compute");
        let l = g.add_resource("link");
        let t1 = g.add_task("xfer", l, 2.0, &[]);
        let _ = g.add_task("gemm", c, 3.0, &[t1]);
        let tl = Engine::new().simulate(&g).unwrap();
        let doc = timeline_trace(&g, &tl);
        let text = doc.to_string().unwrap();
        let stats = obs::validate_trace(&text).unwrap();
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.max_ts_us, 5000, "xfer(2ms) then gemm(3ms)");
        assert_eq!(
            doc.get("simnet")
                .unwrap()
                .get("makespan_ms")
                .unwrap()
                .as_f64()
                .unwrap(),
            5.0
        );
    }
}

//! Round-trip agreement between the two timeline renderers: the same
//! `Timeline` drawn as an ASCII Gantt chart and exported as Chrome
//! trace JSON must describe the same schedule — same task count, same
//! resource rows, same start/end ordering.

use simnet::{render_gantt, timeline_trace, Engine, ResourceId, TaskGraph};

/// A small two-node MoE-iteration-shaped graph with deliberate overlap
/// and one zero-duration task (the renderers' only divergence point).
/// Task names carry distinct leading glyphs so each gets its own legend
/// entry. Returns the graph and its resources.
fn testbed_graph() -> (TaskGraph, Vec<ResourceId>) {
    let mut g = TaskGraph::new();
    let gpu0 = g.add_resource("gpu0.compute");
    let gpu1 = g.add_resource("gpu1.compute");
    let nic = g.add_resource("node0.nic");
    let a2a0 = g.add_task("dispatch", nic, 2.0, &[]);
    let e0 = g.add_task("experts", gpu0, 3.0, &[a2a0]);
    let e1 = g.add_task("overlap", gpu1, 4.0, &[a2a0]);
    let marker = g.add_task("marker", gpu0, 0.0, &[e0]);
    let _ = g.add_task("combine", nic, 2.0, &[marker, e1]);
    (g, vec![gpu0, gpu1, nic])
}

/// Thread rows declared in the trace document, as (tid, name).
fn trace_thread_rows(doc: &jsonio::Json) -> Vec<(u64, String)> {
    doc.get("traceEvents")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("name").unwrap().as_str().unwrap() == "thread_name")
        .map(|e| {
            (
                e.get("tid").unwrap().as_f64().unwrap() as u64,
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn gantt_and_trace_agree_on_tasks_rows_and_ordering() {
    let (graph, resources) = testbed_graph();
    let timeline = Engine::new().simulate(&graph).unwrap();
    let chart = render_gantt(&graph, &timeline, 60);
    let doc = timeline_trace(&graph, &timeline);
    let text = doc.to_string().unwrap();
    let stats = obs::validate_trace(&text).unwrap();

    // Task count: the trace carries every task; the chart paints every
    // task with a positive duration (zero-duration tasks are invisible
    // at any pixel width). 5 tasks, 1 of them instantaneous.
    assert_eq!(stats.spans, graph.len());
    for id in graph.ids() {
        let name = graph.name(id).to_string();
        let glyph = name.chars().next().unwrap();
        assert_eq!(
            chart.contains(&format!("{glyph}={name}")),
            timeline.span(id).duration() > 0.0,
            "{name} in legend iff drawn"
        );
    }

    // Resource rows: one chart row and one trace thread row per
    // resource, carrying the same names.
    assert_eq!(stats.threads, graph.resource_count());
    let threads = trace_thread_rows(&doc);
    assert_eq!(threads.len(), graph.resource_count());
    let rows: Vec<&str> = chart.lines().take(graph.resource_count()).collect();
    for (r, id) in resources.iter().enumerate() {
        let name = graph.resource_name(*id).unwrap();
        assert!(rows[r].contains(name), "{name} chart row");
        assert!(
            threads.contains(&(r as u64, name.to_string())),
            "{name} trace thread row"
        );
    }

    // Start/end ordering: events in the trace JSON appear in simulated
    // start order, matching the left-to-right order of the chart.
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let starts: Vec<f64> = events
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str().unwrap() == "X")
        .map(|e| e.get("ts").unwrap().as_f64().unwrap())
        .collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{starts:?}");
    let mut expected: Vec<f64> = timeline.spans().iter().map(|s| s.start * 1000.0).collect();
    expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(starts, expected, "every simulated start survives export");
    // and the trace extends exactly to the chart's makespan axis
    assert_eq!(stats.max_ts_us as f64, timeline.makespan() * 1000.0);
    assert!(chart.contains(&format!("{:.3} ms", timeline.makespan())));
}

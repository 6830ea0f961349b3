//! ASCII Gantt rendering of simulated timelines.
//!
//! The `fig3_timeline` and `fig4_cases` bench binaries use this to
//! regenerate the schedule diagrams of Figs. 3 and 4 as text.

use crate::{TaskGraph, TaskId, Timeline};

/// Renders a timeline as an ASCII Gantt chart, one row per resource.
///
/// `width` is the number of character columns the makespan maps onto.
/// Each task paints its span with the first character of its name;
/// a legend follows the chart.
pub fn render_gantt(graph: &TaskGraph, timeline: &Timeline, width: usize) -> String {
    let width = width.max(10);
    let makespan = timeline.makespan().max(f64::EPSILON);
    let n_res = graph.resource_count();
    let mut rows = vec![vec![b'.'; width]; n_res];
    let mut legend: Vec<(char, String)> = Vec::new();

    for (i, task) in graph.tasks().iter().enumerate() {
        let span = timeline.spans()[i];
        if span.duration() <= 0.0 {
            continue;
        }
        let name = graph.name(TaskId(i)).to_string();
        // glyph: first char of the final dot-separated segment, so
        // "b3.moe.AG0" renders as 'A' rather than everything as 'b'
        let seg = name.rsplit('.').next().unwrap_or(&name);
        let c = seg.chars().next().unwrap_or('?');
        if !legend.iter().any(|(lc, ln)| *lc == c && *ln == name) {
            legend.push((c, name));
        }
        let start = ((span.start / makespan) * width as f64).floor() as usize;
        let end = (((span.end / makespan) * width as f64).ceil() as usize).min(width);
        let row = &mut rows[task.resource.index()];
        for cell in row
            .iter_mut()
            .take(end.max(start + 1).min(width))
            .skip(start)
        {
            *cell = c as u8;
        }
    }

    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        let name = graph
            .resource_name(crate::ResourceId(r))
            .unwrap_or("<unknown>");
        out.push_str(&format!("{name:>14} |"));
        out.push_str(&String::from_utf8_lossy(row));
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:>14} 0{}{:.3} ms\n",
        "",
        " ".repeat(width.saturating_sub(9)),
        timeline.makespan()
    ));
    let mut sorted = legend;
    sorted.sort();
    sorted.dedup();
    out.push_str("legend: ");
    let mut seen_chars = std::collections::BTreeSet::new();
    for (c, name) in &sorted {
        if seen_chars.insert(*c) {
            out.push_str(&format!("{c}={name} "));
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, TaskGraph};

    #[test]
    fn renders_rows_and_legend() {
        let mut g = TaskGraph::new();
        let c = g.add_resource("compute");
        let l = g.add_resource("link");
        let t1 = g.add_task("xfer", l, 2.0, &[]);
        let _ = g.add_task("gemm", c, 3.0, &[t1]);
        let tl = Engine::new().simulate(&g).unwrap();
        let chart = render_gantt(&g, &tl, 40);
        assert!(chart.contains("compute"));
        assert!(chart.contains("link"));
        assert!(chart.contains("x=xfer"));
        assert!(chart.contains("g=gemm"));
        // link busy first 2/5 of the chart, compute the last 3/5
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[1].contains('x'));
        assert!(lines[0].contains('g'));
    }

    #[test]
    fn empty_timeline_renders() {
        let g = TaskGraph::new();
        let tl = Engine::new().simulate(&g).unwrap();
        let chart = render_gantt(&g, &tl, 20);
        assert!(chart.contains("legend"));
    }

    #[test]
    fn zero_duration_tasks_skipped() {
        let mut g = TaskGraph::new();
        let c = g.add_resource("compute");
        let _ = g.add_task("instant", c, 0.0, &[]);
        let _ = g.add_task("real", c, 1.0, &[]);
        let tl = Engine::new().simulate(&g).unwrap();
        let chart = render_gantt(&g, &tl, 20);
        assert!(!chart.contains("i=instant"));
        assert!(chart.contains("r=real"));
    }
}

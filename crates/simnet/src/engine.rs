//! The discrete-event execution engine.

use crate::{Result, TaskGraph, TaskId};

/// The scheduled execution window of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Start time, ms.
    pub start: f64,
    /// End time, ms.
    pub end: f64,
}

impl Span {
    /// Duration of the span.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A fully simulated execution of a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    spans: Vec<Span>,
    makespan: f64,
    busy: Vec<f64>,
}

impl Timeline {
    /// Total simulated time from 0 to the last task completion.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Execution window of `task`.
    ///
    /// # Panics
    ///
    /// Panics when `task` does not belong to the simulated graph.
    pub fn span(&self, task: TaskId) -> Span {
        self.spans[task.0]
    }

    /// All spans in task-issue order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total busy time of resource `r` (by raw index).
    pub fn busy_time(&self, r: crate::ResourceId) -> f64 {
        self.busy.get(r.0).copied().unwrap_or(0.0)
    }

    /// Fraction of the makespan the resource spent busy (0 when the
    /// makespan is 0).
    pub fn utilization(&self, r: crate::ResourceId) -> f64 {
        if self.makespan == 0.0 {
            0.0
        } else {
            self.busy_time(r) / self.makespan
        }
    }
}

/// Simulates task graphs.
///
/// Resources run their tasks strictly in issue order (CUDA-stream
/// semantics): the head task of each resource queue starts as soon as its
/// dependencies complete and the resource is free; tasks issued later on
/// the same resource never overtake it.
///
/// That makes one pass over the tasks in issue order the whole
/// simulation. [`TaskGraph::add_task`] admits only dependencies on
/// earlier tasks, and a resource's queue is its insertion order, so when
/// the pass reaches a task its dependencies and every task ahead of it on
/// its resource are already placed — no graph can deadlock.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    _private: (),
}

impl Engine {
    /// Creates an engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Runs the graph to completion.
    ///
    /// # Errors
    ///
    /// Never: every graph a [`TaskGraph`] can hold simulates. The
    /// `Result` stays only because the benchmark's planning workload
    /// applies `?` to it.
    pub fn simulate(&self, graph: &TaskGraph) -> Result<Timeline> {
        let n_res = graph.resource_count();
        let mut spans: Vec<Span> = Vec::with_capacity(graph.len());
        let mut res_free = vec![0.0f64; n_res];
        let mut busy = vec![0.0f64; n_res];
        for task in graph.tasks() {
            let r = task.resource.0;
            let deps_ready = graph
                .deps_of(task)
                .iter()
                .fold(0.0f64, |acc, d| acc.max(spans[d.0].end));
            let start = res_free[r].max(deps_ready);
            let end = start + task.duration;
            spans.push(Span { start, end });
            res_free[r] = end;
            busy[r] += task.duration;
        }

        let makespan = spans.iter().map(|s| s.end).fold(0.0, f64::max);
        Ok(Timeline {
            spans,
            makespan,
            busy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskGraph;

    #[test]
    fn sequential_chain_accumulates() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("compute");
        let a = g.add_task("a", r, 1.5, &[]);
        let b = g.add_task("b", r, 2.5, &[a]);
        let tl = Engine::new().simulate(&g).unwrap();
        assert_eq!(tl.makespan(), 4.0);
        assert_eq!(tl.span(b).start, 1.5);
        assert_eq!(tl.busy_time(r), 4.0);
        assert_eq!(tl.utilization(r), 1.0);
    }

    #[test]
    fn independent_resources_overlap() {
        let mut g = TaskGraph::new();
        let c = g.add_resource("compute");
        let l = g.add_resource("link");
        let _ = g.add_task("gemm", c, 3.0, &[]);
        let _ = g.add_task("a2a", l, 2.0, &[]);
        let tl = Engine::new().simulate(&g).unwrap();
        assert_eq!(tl.makespan(), 3.0);
    }

    #[test]
    fn same_resource_serializes_independent_tasks() {
        // Two AlltoAlls on one NIC contend even without data deps — the
        // §5 contention FSMoE's gradient partitioning must respect.
        let mut g = TaskGraph::new();
        let l = g.add_resource("nic");
        let _ = g.add_task("a2a", l, 2.0, &[]);
        let _ = g.add_task("gar", l, 2.0, &[]);
        let tl = Engine::new().simulate(&g).unwrap();
        assert_eq!(tl.makespan(), 4.0);
    }

    #[test]
    fn pipeline_of_two_chunks() {
        // classic 2-stage pipeline: comm(1) -> comp(2) per chunk, comm and
        // comp on different streams. chunk2 comm overlaps chunk1 comp.
        let mut g = TaskGraph::new();
        let comm = g.add_resource("comm");
        let comp = g.add_resource("comp");
        let c1 = g.add_task("comm1", comm, 1.0, &[]);
        let _p1 = g.add_task("comp1", comp, 2.0, &[c1]);
        let c2 = g.add_task("comm2", comm, 1.0, &[]);
        let p2 = g.add_task("comp2", comp, 2.0, &[c2]);
        let tl = Engine::new().simulate(&g).unwrap();
        // comm1 [0,1], comm2 [1,2], comp1 [1,3], comp2 [3,5]
        assert_eq!(tl.makespan(), 5.0);
        assert_eq!(tl.span(p2).start, 3.0);
    }

    #[test]
    fn issue_order_blocks_head_of_line() {
        // Stream semantics: y issued before z on the same stream, y waits
        // on a long task, so z cannot start early even though it has no
        // deps.
        let mut g = TaskGraph::new();
        let s1 = g.add_resource("s1");
        let s2 = g.add_resource("s2");
        let long = g.add_task("long", s1, 10.0, &[]);
        let y = g.add_task("y", s2, 1.0, &[long]);
        let z = g.add_task("z", s2, 1.0, &[]);
        let tl = Engine::new().simulate(&g).unwrap();
        assert_eq!(tl.span(y).start, 10.0);
        assert_eq!(tl.span(z).start, 11.0, "z must not overtake y");
    }

    #[test]
    fn diamond_dependency() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let src = g.add_task("src", r1, 1.0, &[]);
        let left = g.add_task("left", r1, 2.0, &[src]);
        let right = g.add_task("right", r2, 5.0, &[src]);
        let sink = g.add_task("sink", r1, 1.0, &[left, right]);
        let tl = Engine::new().simulate(&g).unwrap();
        assert_eq!(tl.span(sink).start, 6.0);
        assert_eq!(tl.makespan(), 7.0);
    }

    #[test]
    fn backward_references_never_deadlock() {
        // The builder only admits dependencies on already-issued tasks, so
        // the earliest-issued unscheduled task is always at the head of its
        // resource queue with all deps complete — every graph the public
        // API can build must simulate to completion. Exercise a dense
        // cross-stream mesh to back that argument.
        let mut g = TaskGraph::new();
        let streams: Vec<_> = (0..4).map(|i| g.add_resource(format!("s{i}"))).collect();
        let mut ids: Vec<TaskId> = Vec::new();
        for i in 0..64 {
            let res = streams[i % streams.len()];
            // depend on up to three earlier tasks on *other* streams
            let deps: Vec<TaskId> = ids
                .iter()
                .rev()
                .filter(|t| g.task(**t).unwrap().resource != res)
                .take(3)
                .copied()
                .collect();
            ids.push(g.add_task(format!("t{i}"), res, 1.0 + (i % 5) as f64, &deps));
        }
        let tl = Engine::new().simulate(&g).unwrap();
        // every dep finishes before its dependent starts
        for id in g.ids() {
            for &d in g.deps(id) {
                assert!(tl.span(d).end <= tl.span(id).start + 1e-12);
            }
        }
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = TaskGraph::new();
        let tl = Engine::new().simulate(&g).unwrap();
        assert_eq!(tl.makespan(), 0.0);
    }

    #[test]
    fn zero_duration_tasks_are_fine() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r");
        let a = g.add_task("a", r, 0.0, &[]);
        let b = g.add_task("b", r, 1.0, &[a]);
        let tl = Engine::new().simulate(&g).unwrap();
        assert_eq!(tl.span(b).start, 0.0);
        assert_eq!(tl.makespan(), 1.0);
    }

    #[test]
    fn deterministic_repeat() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("a");
        let r2 = g.add_resource("b");
        let mut prev = None;
        for i in 0..20 {
            let r = if i % 2 == 0 { r1 } else { r2 };
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(g.add_task(format!("t{i}"), r, 0.5 + i as f64 * 0.1, &deps));
        }
        let t1 = Engine::new().simulate(&g).unwrap();
        let t2 = Engine::new().simulate(&g).unwrap();
        assert_eq!(t1, t2);
    }
}

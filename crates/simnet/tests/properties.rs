//! Property-based tests for the discrete-event engine: structural
//! invariants every simulated timeline must satisfy.

use proptest::prelude::*;
use simnet::{Engine, TaskGraph, TaskId};

/// Builds a random (but valid) task graph: `n` tasks over `r` resources
/// with backward-only dependencies decided by the seed.
fn random_graph(n: usize, resources: usize, seed: u64) -> TaskGraph {
    let mut g = TaskGraph::new();
    let res: Vec<_> = (0..resources)
        .map(|i| g.add_resource(format!("r{i}")))
        .collect();
    let mut state = seed.wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut ids: Vec<TaskId> = Vec::new();
    for i in 0..n {
        let r = res[next() % resources.max(1)];
        let dur = (next() % 100) as f64 / 10.0;
        let deps: Vec<TaskId> = if ids.is_empty() {
            vec![]
        } else {
            (0..next() % 3).map(|_| ids[next() % ids.len()]).collect()
        };
        ids.push(g.add_task(format!("t{i}"), r, dur, &deps));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn timelines_respect_all_invariants(
        n in 1usize..60,
        resources in 1usize..5,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, resources, seed);
        let tl = Engine::new().simulate(&g).unwrap();

        // 1. dependencies: no task starts before its deps end
        for (id, task) in g.ids().zip(g.tasks()) {
            let span = tl.span(id);
            prop_assert!(span.end >= span.start);
            prop_assert!((span.duration() - task.duration).abs() < 1e-9);
            for &d in g.deps(id) {
                prop_assert!(tl.span(d).end <= span.start + 1e-9);
            }
        }

        // 2. resource exclusivity: same-resource spans never overlap
        for r in 0..g.resource_count() {
            let mut spans: Vec<_> = g
                .tasks()
                .iter()
                .enumerate()
                .filter(|(_, t)| t.resource.index() == r)
                .map(|(i, _)| tl.spans()[i])
                .collect();
            spans.sort_by(|a, b| a.start.total_cmp(&b.start));
            for w in spans.windows(2) {
                prop_assert!(w[0].end <= w[1].start + 1e-9,
                    "overlap on resource {r}: {:?} then {:?}", w[0], w[1]);
            }
        }

        // 3. issue order within a resource is preserved
        for r in 0..g.resource_count() {
            let starts: Vec<f64> = g
                .tasks()
                .iter()
                .enumerate()
                .filter(|(_, t)| t.resource.index() == r)
                .map(|(i, _)| tl.spans()[i].start)
                .collect();
            for w in starts.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-9, "issue order violated");
            }
        }

        // 4. makespan is the max end and busy time never exceeds it
        let max_end = tl.spans().iter().map(|s| s.end).fold(0.0, f64::max);
        prop_assert!((tl.makespan() - max_end).abs() < 1e-9);
        for r in 0..g.resource_count() {
            let rid = g.tasks().iter().find(|t| t.resource.index() == r).map(|t| t.resource);
            if let Some(rid) = rid {
                prop_assert!(tl.busy_time(rid) <= tl.makespan() + 1e-9);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&tl.utilization(rid)));
            }
        }
    }

    #[test]
    fn single_resource_makespan_is_total_work(
        durations in prop::collection::vec(0.0f64..20.0, 1..30),
    ) {
        let mut g = TaskGraph::new();
        let r = g.add_resource("only");
        for (i, &d) in durations.iter().enumerate() {
            let _ = g.add_task(format!("t{i}"), r, d, &[]);
        }
        let tl = Engine::new().simulate(&g).unwrap();
        let total: f64 = durations.iter().sum();
        prop_assert!((tl.makespan() - total).abs() < 1e-6);
        prop_assert!((tl.busy_time(r) - total).abs() < 1e-6);
    }

    #[test]
    fn adding_a_task_never_shrinks_the_makespan(
        n in 2usize..40,
        resources in 1usize..4,
        seed in any::<u64>(),
        extra in 0.1f64..10.0,
    ) {
        let g1 = random_graph(n, resources, seed);
        let before = Engine::new().simulate(&g1).unwrap().makespan();
        let mut g2 = random_graph(n, resources, seed);
        // append one more task to resource 0, with no dependencies (it
        // still serialises behind the queue on that resource)
        let r0 = g2.tasks()[0].resource;
        let _ = g2.add_task("extra", r0, extra, &[]);
        let after = Engine::new().simulate(&g2).unwrap().makespan();
        prop_assert!(after >= before - 1e-9);
    }
}

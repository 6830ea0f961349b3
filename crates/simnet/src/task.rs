//! Task-graph intermediate representation.
//!
//! Every schedule in the reproduction — DeepSpeed-MoE's sequential
//! execution, Tutel/PipeMoE's pipelining, and FSMoE's inter/intra-node
//! co-scheduling — lowers to this one IR, so simulated comparisons measure
//! the schedules themselves.
//!
//! The graph is flat, so lowering a schedule allocates per segment, not
//! per task: a task's name is a `Copy` [`TaskName`] — a [`Label`] in the
//! graph's one text arena, pushed once per segment, plus a static tag and
//! an index — composed into text only when [`TaskGraph::name`] is shown,
//! and every task's dependencies are one range of the graph's one
//! dependency arena, read through [`TaskGraph::deps`].

use std::fmt::{self, Display, Write};

use crate::{Result, SimError};

/// Identifies an exclusive execution resource (a stream or a link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) usize);

impl ResourceId {
    /// The raw index of this resource.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies a task within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// The raw index of this task.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Text pushed into a graph's label arena by [`TaskGraph::label`]: the
/// range of its bytes there. Meaningful only in the graph that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    start: u32,
    end: u32,
}

/// A task's name, stored flat: its label, then — when `tag` is not
/// empty — `.{tag}{index}`, so a lowered op reads `f3.moe.AG0`, a dense
/// op `b2.attn` and a plain [`TaskGraph::add_task`] name is its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskName {
    /// The label the name starts with (a segment's, e.g. `f3.moe`).
    pub label: Label,
    /// What follows the label's dot (`AG`, `attn`); empty for none.
    pub tag: &'static str,
    /// The number written right after the tag.
    pub index: Option<u32>,
}

/// One unit of work bound to a resource.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// The task's name, as Gantt output and traces show it through
    /// [`TaskGraph::name`].
    pub name: TaskName,
    /// Resource the task occupies exclusively while running.
    pub resource: ResourceId,
    /// Duration in milliseconds.
    pub duration: f64,
    /// The range of the graph's dependency arena holding the tasks that
    /// must complete before this one starts ([`TaskGraph::deps`]).
    deps: (u32, u32),
}

/// A dependency graph of tasks over named resources.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    /// Every task's dependencies, back to back in issue order.
    deps: Vec<TaskId>,
    /// Every label's text, back to back.
    labels: String,
    resources: Vec<String>,
}

/// A task name shown through its graph's label arena.
struct Shown<'a> {
    label: &'a str,
    name: TaskName,
}

impl Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label)?;
        if !self.name.tag.is_empty() {
            f.write_char('.')?;
            f.write_str(self.name.tag)?;
        }
        match self.name.index {
            Some(index) => Display::fmt(&index, f),
            None => Ok(()),
        }
    }
}

/// A graph's arenas are indexed by `u32`.
fn arena_len(len: usize) -> u32 {
    u32::try_from(len).expect("a task graph's arenas fit u32 indices")
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Creates an empty graph with room for `tasks` tasks, each with one
    /// dependency, before its arenas grow.
    pub fn with_capacity(tasks: usize) -> Self {
        TaskGraph {
            tasks: Vec::with_capacity(tasks),
            deps: Vec::with_capacity(tasks),
            ..TaskGraph::default()
        }
    }

    /// Registers a resource (stream/link) and returns its id.
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(name.into());
        ResourceId(self.resources.len() - 1)
    }

    /// Writes `text` into the label arena, for the [`TaskName`]s of the
    /// tasks [`Self::add_named`] adds next.
    pub fn label(&mut self, text: impl Display) -> Label {
        let start = arena_len(self.labels.len());
        write!(self.labels, "{text}").expect("writing to a String cannot fail");
        Label {
            start,
            end: arena_len(self.labels.len()),
        }
    }

    /// Appends a task named `name` — its text becomes a label with no
    /// tag. See [`Self::add_named`].
    ///
    /// # Panics
    ///
    /// As [`Self::add_named`].
    pub fn add_task(
        &mut self,
        name: impl Display,
        resource: ResourceId,
        duration: f64,
        deps: &[TaskId],
    ) -> TaskId {
        let label = self.label(name);
        let name = TaskName {
            label,
            tag: "",
            index: None,
        };
        self.add_named(name, resource, duration, deps)
    }

    /// Appends a task. Issue order on each resource is the order of
    /// `add_*` calls, mirroring kernel-launch order on a CUDA stream.
    ///
    /// # Panics
    ///
    /// Panics on an unknown resource, unknown dependency, or invalid
    /// duration — these are programming errors in schedule lowering, not
    /// runtime conditions.
    pub fn add_named(
        &mut self,
        name: TaskName,
        resource: ResourceId,
        duration: f64,
        deps: &[TaskId],
    ) -> TaskId {
        assert!(
            resource.0 < self.resources.len(),
            "unknown resource {} for task {:?}",
            resource.0,
            self.show(name).to_string()
        );
        assert!(
            duration.is_finite() && duration >= 0.0,
            "task {:?} has invalid duration {duration}",
            self.show(name).to_string()
        );
        for d in deps {
            assert!(
                d.0 < self.tasks.len(),
                "task {:?} depends on unknown task {}",
                self.show(name).to_string(),
                d.0
            );
        }
        let start = arena_len(self.deps.len());
        self.deps.extend_from_slice(deps);
        self.tasks.push(Task {
            name,
            resource,
            duration,
            deps: (start, arena_len(self.deps.len())),
        });
        TaskId(self.tasks.len() - 1)
    }

    /// `name` composed from this graph's label arena.
    fn show(&self, name: TaskName) -> Shown<'_> {
        let label = &self.labels[name.label.start as usize..name.label.end as usize];
        Shown { label, name }
    }

    /// All tasks in issue order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Every task's id, in issue order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }

    /// The name of task `id`, composed as it is shown.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a task of this graph.
    pub fn name(&self, id: TaskId) -> impl Display + '_ {
        self.show(self.tasks[id.0].name)
    }

    /// The tasks that must complete before task `id` starts.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a task of this graph.
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        self.deps_of(&self.tasks[id.0])
    }

    /// `task`'s range of the dependency arena.
    pub(crate) fn deps_of(&self, task: &Task) -> &[TaskId] {
        &self.deps[task.deps.0 as usize..task.deps.1 as usize]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Name of a resource.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownResource`] for out-of-range ids.
    pub fn resource_name(&self, id: ResourceId) -> Result<&str> {
        self.resources
            .get(id.0)
            .map(String::as_str)
            .ok_or(SimError::UnknownResource { id: id.0 })
    }

    /// The task with id `id`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownTask`] for out-of-range ids.
    pub fn task(&self, id: TaskId) -> Result<&Task> {
        self.tasks
            .get(id.0)
            .ok_or(SimError::UnknownTask { id: id.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_graph() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("compute");
        let a = g.add_task("a", r, 1.0, &[]);
        let b = g.add_task("b", r, 2.0, &[a]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.resource_count(), 1);
        assert_eq!(g.deps(b), [a]);
        assert_eq!(g.deps(a), []);
        assert_eq!(g.name(b).to_string(), "b");
        assert_eq!(g.resource_name(r).unwrap(), "compute");
        assert!(!g.is_empty());
    }

    #[test]
    fn names_compose_label_tag_and_index() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("compute");
        let label = g.label(format_args!("f{}.moe", 3));
        let named = |tag, index| TaskName { label, tag, index };
        let ag = g.add_named(named("AG", Some(10)), r, 1.0, &[]);
        let attn = g.add_named(named("attn", None), r, 1.0, &[ag]);
        let plain = g.add_task("tail", r, 1.0, &[ag, attn]);
        let names: Vec<String> = g.ids().map(|id| g.name(id).to_string()).collect();
        assert_eq!(names, ["f3.moe.AG10", "f3.moe.attn", "tail"]);
        assert_eq!(g.deps(plain), [ag, attn]);
        assert_eq!(g.deps(attn), [ag]);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_panics() {
        let mut g = TaskGraph::new();
        let _ = g.add_task("x", ResourceId(3), 1.0, &[]);
    }

    #[test]
    #[should_panic(expected = "task \"x\" depends on unknown task")]
    fn unknown_dep_panics() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("compute");
        let _ = g.add_task("x", r, 1.0, &[TaskId(7)]);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn bad_duration_panics() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("compute");
        let _ = g.add_task("x", r, f64::NAN, &[]);
    }

    #[test]
    fn lookup_errors() {
        let g = TaskGraph::new();
        assert!(g.task(TaskId(0)).is_err());
        assert!(g.resource_name(ResourceId(0)).is_err());
    }
}

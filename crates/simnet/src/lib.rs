//! Discrete-event cluster simulator for FSMoE-RS.
//!
//! The paper evaluates schedules by wall-clock time on two GPU clusters.
//! Those clusters are unavailable here, so every timing experiment runs on
//! this simulator instead, with task durations supplied by the *same α–β
//! linear performance models the paper itself fits and validates*
//! (§4.1/§6.2, Fig. 5 — r² > 0.998 for every op). Scheduling quality is a
//! pure function of task durations plus resource-exclusivity constraints,
//! both of which the simulator enforces, so relative speedups ("who wins,
//! by how much, where the crossovers fall") are preserved.
//!
//! # Model
//!
//! * A [`TaskGraph`] holds tasks; each names an exclusive [`ResourceId`]
//!   (a GPU compute stream, an intra-node link, an inter-node link), a
//!   duration, and dependencies. The graph is flat: a task's name is a
//!   `Copy` [`TaskName`] over one label arena, composed into text only
//!   when shown ([`TaskGraph::name`]), and all dependencies share one
//!   arena ([`TaskGraph::deps`]), so lowering a schedule allocates per
//!   segment, not per task.
//! * Resources execute their tasks **in issue order** with head-of-line
//!   blocking — exactly the semantics of CUDA/NCCL streams, which is what
//!   makes the lowering of a pipelined schedule faithful: two collectives
//!   issued on the same link serialize (the §5 contention between
//!   AlltoAll and Gradient-AllReduce), while work on different streams
//!   overlaps.
//! * [`Engine::simulate`] produces a deterministic [`Timeline`].
//!
//! # Example
//!
//! ```
//! use simnet::{Engine, TaskGraph};
//!
//! let mut g = TaskGraph::new();
//! let compute = g.add_resource("gpu0.compute");
//! let link = g.add_resource("node0.nic");
//! let a2a = g.add_task("a2a", link, 2.0, &[]);
//! let experts = g.add_task("experts", compute, 3.0, &[a2a]);
//! let combine = g.add_task("combine", link, 2.0, &[experts]);
//! let tl = Engine::new().simulate(&g).unwrap();
//! assert_eq!(tl.makespan(), 7.0);
//! assert_eq!(tl.span(combine).start, 5.0);
//! assert_eq!(g.deps(combine), [experts]);
//! assert_eq!(g.name(combine).to_string(), "combine");
//! ```

mod cost;
mod engine;
mod error;
mod gantt;
mod pricing;
mod task;
mod testbed;
mod trace;

pub use cost::{CostModel, OpCosts};
pub use engine::{Engine, Span, Timeline};
pub use error::SimError;
pub use gantt::render_gantt;
pub use pricing::{
    price_gray_failure, price_migration, price_reconfiguration, GrayFailureCost, PricedEvent,
};
pub use task::{Label, ResourceId, Task, TaskGraph, TaskId, TaskName};
pub use testbed::{Testbed, TestbedKind};
pub use trace::{timeline_trace, SIMNET_PID};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;

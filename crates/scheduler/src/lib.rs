//! FSMoE's task scheduler: the paper's core contribution (§4–§5).
//!
//! Four pieces:
//!
//! * [`perf`] — the α–β performance models of every time-consuming task,
//!   specialised per phase (backward doubles the expert workload, §4.4);
//! * [`optimize`] — the four-case pipeline-degree optimizer
//!   (Algorithm 1): predicates **Q1–Q7** classify which resource
//!   dominates, each case has a closed-form makespan `t_i(r)`, and the
//!   optimal integer pipeline degree is the argmin of the active case's
//!   makespan over every admissible degree;
//! * [`gradient`] — the §5 adaptive gradient partitioner: step 1 fills
//!   each generalized layer's *overlappable window* with gradient bytes
//!   via the inverse AllReduce model, step 2 assigns the remainder by
//!   differential evolution;
//! * [`schedule`] — a schedule is a `Vec<`[`Op`]`>` in issue order
//!   ([`moe_layer`]: the orders of Figs. 3d/4 and of Tutel/PipeMoE), a
//!   training step a list of them ([`Segment`]), and [`lower`] turns
//!   each into a `simnet::TaskGraph` over three streams (compute /
//!   intra-node link / inter-node link) so makespans come from
//!   simulation, not from trusting the closed forms; [`Walk`] is that
//!   simulation's result from a single pass over the lists, and
//!   [`makespan`] its one-list case.
//!
//! The invariant the tests enforce: the optimizer's chosen `r` is never
//! worse (in simulated makespan) than any other `r` by more than the
//! model-vs-simulation gap, and on each case's interior the closed form
//! equals the simulated makespan.

pub mod cases;
pub mod dispatch_cost;
pub mod gradient;
pub mod optimize;
pub mod perf;
pub mod schedule;

// The closed forms against the simulated schedule; the module name is
// the one the suite has always printed these tests under.
#[cfg(test)]
#[path = "sim_tests.rs"]
mod lowering;

pub use cases::{gar_step, t_moe, t_olp_moe, CaseId, GarStep, Predicates};
pub use dispatch_cost::{a2a_cost, best_a2a_algorithm, A2aAlgorithm, A2aCost};
pub use gradient::{partition_gradients, GeneralizedLayer, GradientPartition, PLANNER_DE};
pub use optimize::{find_optimal_pipeline_degree, GarCurve, PipelineSolution, MAX_PIPELINE_DEGREE};
pub use perf::{MoePerfModel, Phase};
pub use schedule::{lower, makespan, moe_layer, Op, Segment, Stream, StreamSet, Walk};

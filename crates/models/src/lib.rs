//! End-to-end MoE model assembly and iteration scheduling.
//!
//! This crate composes everything below it into the paper's evaluation
//! setting: transformer layers (attention + MoE) stacked into real-model
//! shapes (GPT2-XL-MoE, Mixtral-7B, Mixtral-22B), iterated forward and
//! backward under each of the six schedules, with the per-schedule
//! Gradient-AllReduce policy applied across layers — everything the
//! Figs. 6–8 and Tables 2/5/6 experiments need.
//!
//! Layer composition follows the paper's generalized-layer definition
//! (§5.2): one MoE layer plus the dense operations (attention) before
//! the next MoE layer.
//!
//! On the data plane there is one training step and the model owns it:
//! [`MoeTransformer::train_step`] ([`block`] says which parameters are
//! synchronised over which group). [`ElasticTrainer`] drives it and owns
//! what surrounds it: snapshots, rollback, eviction, migration, health.

// The compute crates start no thread (one thread per rank), and every
// match names its variants, so a `CommError::Reconfigured` or
// `Abandoned` is never swallowed by a wildcard arm.
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::wildcard_enum_match_arm)
)]

pub mod attention;
pub mod block;
pub mod breakdown;
pub mod elastic;
pub mod health;
pub mod iteration;
pub mod layerspec;
pub mod pipeline;
pub mod presets;

pub use block::{MoeTransformer, TransformerBlock};
pub use elastic::ElasticTrainer;
pub use health::{drain_decision, HealthAction, HealthMonitor, HealthPolicy, MigrationDecision};
pub use iteration::{build_iteration_graph, iteration_time, plan_iteration, IterationPlan};
pub use layerspec::{attention_backward_time, attention_forward_time, TransformerLayerSpec};
pub use presets::ModelPreset;

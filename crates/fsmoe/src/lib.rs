//! FSMoE-RS core: a flexible, modular Mixture-of-Experts layer.
//!
//! This crate reproduces the system design of *FSMoE: A Flexible and
//! Scalable Training System for Sparse Mixture-of-Experts Models*
//! (ASPLOS 2025), §3: the MoE layer is decomposed into sub-modules —
//!
//! * [`Gate`](gate::Gate) — token-to-expert routing, with the paper's
//!   four pre-implemented families ([`gate::GShardGate`],
//!   [`gate::SigmoidGate`], [`gate::XMoeGate`], [`gate::SoftMoeGate`])
//!   plus the expert-choice router ([`gate::ExpertChoiceGate`]) used in
//!   the Table 6 experiment;
//! * [`OrderFn`](order::OrderFn) / its inverse — data-layout
//!   transformation from `(B·L, M)` to `(E, T, M)` and back, in both the
//!   GShard einsum style and the Tutel sparse style;
//! * dispatch / combine — the AlltoAll collectives of expert
//!   parallelism, one direct exchange over the EP group ([`dist`]); the
//!   paper's hierarchical 1DH/2DH alternatives are priced, not run, by
//!   `scheduler::dispatch_cost`;
//! * [`Expert`](expert::Expert) — the feed-forward computation, GPT-2
//!   style and Mixtral (SwiGLU) style, with exact ESP sharding;
//! * [`MoeHooks`](hooks::MoeHooks) — the six non-invasive extension
//!   hooks.
//!
//! [`layer::MoeLayer`] composes the sub-modules into one rank's slice of
//! the layer, with a hand-written backward pass. Built over a one-rank
//! world it executes locally; over larger EP/ESP groups the same struct
//! moves tokens over the `collectives` runtime with real AlltoAll /
//! ESP-AllGather / ESP-ReduceScatter data movement ([`dist`]).
//!
//! The numerical contract that makes schedule experiments trustworthy:
//! **schedules never change results**. The integration tests verify that
//! outputs are identical (up to fp tolerance) across pipeline degrees,
//! ordering implementations, and world shapes.
//!
//! # Quickstart
//!
//! ```
//! use collectives::{Communicator, HybridTopology};
//! use fsmoe::config::MoeConfig;
//! use fsmoe::layer::MoeLayer;
//! use tensor::TensorRng;
//!
//! # fn main() -> Result<(), fsmoe::MoeError> {
//! let config = MoeConfig::builder()
//!     .batch_size(2)
//!     .seq_len(8)
//!     .embed_dim(16)
//!     .hidden_dim(32)
//!     .num_experts(4)
//!     .top_k(2)
//!     .build()?;
//! // one rank: the exchange between tokens and experts is the identity
//! let (comm, topo) = (Communicator::solo(), HybridTopology::flat(1)?);
//! let mut layer = MoeLayer::gshard(&config, &comm, &topo, 0)?;
//! let mut rng = TensorRng::seed_from(1);
//! let input = rng.normal(&[config.tokens(), config.embed_dim], 0.0, 1.0);
//! let output = layer.forward(&input, &mut rng)?;
//! assert_eq!(output.dims(), input.dims());
//! # Ok(())
//! # }
//! ```

// The compute crates start no thread (one thread per rank), and every
// match names its variants, so a `CommError::Reconfigured` or
// `Abandoned` is never swallowed by a wildcard arm.
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::wildcard_enum_match_arm)
)]

pub mod checkpoint;
pub mod config;
pub mod dist;
pub mod expert;
pub mod gate;
pub mod grouped;
pub mod hooks;
pub mod layer;
pub mod order;
pub mod reshard;
pub mod routing;
pub mod spec;

mod error;

pub use error::MoeError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MoeError>;

//! Dense CPU tensor substrate for FSMoE-RS.
//!
//! The paper's data plane runs on PyTorch CUDA tensors; this crate provides
//! the equivalent numerical substrate in pure Rust: a row-major dense `f32`
//! [`Tensor`] with the operations the MoE layer needs — GEMM, softmax,
//! top-k selection, the activations used by GPT/Mixtral feed-forward
//! experts, layer normalisation — together with hand-written backward
//! helpers for every differentiable op (the paper implements backprop
//! manually for the MoE layer, §4.4, and so do we).
//!
//! # Example
//!
//! ```
//! use tensor::Tensor;
//!
//! # fn main() -> Result<(), tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

// The compute crates start no thread (one thread per rank).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod error;
mod init;
mod kernel;
mod nn;
mod ops;
mod shape;
mod tensor;
mod topk;
mod vmath;

pub mod buf;
pub mod grad;
pub mod par;

#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

pub use error::TensorError;
pub use init::TensorRng;
pub use ops::Segments;
pub use shape::Shape;
pub use tensor::Tensor;
pub use topk::{top_k_indices, top_k_into, TopK};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

//! Gating (routing) functions.
//!
//! The paper pre-implements four routing families (§3.1) and evaluates a
//! fifth (expert choice) in Table 6; all five live here behind one
//! [`Gate`] trait so the scheduler never needs to know which is in use —
//! the "isolation of front-end API definition and back-end task
//! scheduling" the paper's §3 argues for.
//!
//! | Gate | Paper source | Selection | Weight |
//! |---|---|---|---|
//! | [`GShardGate`] | GShard \[22\] | noisy top-k per token | softmax over kept logits |
//! | [`SigmoidGate`] | BASE \[23\] / StableMoE \[8\] | top-k per token | `σ(h_i)` |
//! | [`XMoeGate`] | X-MoE \[6\] | top-k per token | softmax over kept cosine scores |
//! | [`SoftMoeGate`] | SoftMoE \[36\] | top-k per token | full-softmax mass (soft weights) |
//! | [`ExpertChoiceGate`] | EC \[51\] | top-c **tokens per expert** | softmax over chosen tokens |

mod expert_choice;
mod gshard;
mod sigmoid;
mod softmoe;
mod xmoe;

pub use expert_choice::ExpertChoiceGate;
pub use gshard::GShardGate;
pub use sigmoid::SigmoidGate;
pub use softmoe::SoftMoeGate;
pub use xmoe::XMoeGate;

use tensor::{top_k_into, Tensor, TensorRng};

use crate::routing::{Routing, RoutingBuilder};
use crate::{MoeError, Result};

/// A routing function: assigns tokens to experts.
///
/// Implement this trait to plug a custom router into
/// [`MoeLayer`](crate::layer::MoeLayer) — the equivalent of subclassing
/// the paper's `GateBase` abstraction (Listing 1).
pub trait Gate: std::fmt::Debug + Send {
    /// Short identifier used in logs and benchmark tables.
    fn name(&self) -> &'static str;

    /// Number of experts this gate routes over.
    fn num_experts(&self) -> usize;

    /// Routes a `(tokens, M)` input, honouring `capacity` slots per
    /// expert. `rng` feeds any stochastic element (e.g. GShard noise).
    ///
    /// # Errors
    ///
    /// Returns an error when the input is not rank-2 or its width does
    /// not match the gate's embedding size.
    fn route(&self, input: &Tensor, capacity: usize, rng: &mut TensorRng) -> Result<Routing>;

    /// Approximate forward FLOPs for routing `tokens` tokens (used by
    /// the profiler).
    fn flops(&self, tokens: usize) -> f64;

    /// The gate's trainable weights, for checkpointing. Parameter-free
    /// routers return an empty list (the default).
    fn export_weights(&self) -> Vec<Tensor> {
        Vec::new()
    }

    /// Restores weights produced by [`Gate::export_weights`].
    ///
    /// # Errors
    ///
    /// Returns an error on arity or shape mismatch.
    fn import_weights(&mut self, weights: &[Tensor]) -> Result<()> {
        if weights.is_empty() {
            Ok(())
        } else {
            Err(MoeError::BadInput {
                expected: "no weights (parameter-free gate)".into(),
                actual: vec![weights.len()],
            })
        }
    }
}

/// Shape-checked weight assignment shared by the gate implementations.
pub(crate) fn assign_weights(slots: &mut [&mut Tensor], weights: &[Tensor]) -> Result<()> {
    if slots.len() != weights.len() {
        return Err(MoeError::BadInput {
            expected: format!("{} weight tensors", slots.len()),
            actual: vec![weights.len()],
        });
    }
    for (slot, w) in slots.iter_mut().zip(weights) {
        if !slot.shape().same_as(w.shape()) {
            return Err(MoeError::BadInput {
                expected: format!("weight of shape {:?}", slot.dims()),
                actual: w.dims().to_vec(),
            });
        }
        **slot = w.clone();
    }
    Ok(())
}

/// Shared input validation for gates with an `(M, E)` projection.
pub(crate) fn check_gate_input(input: &Tensor, embed_dim: usize) -> Result<()> {
    if input.rank() != 2 || input.dims()[1] != embed_dim {
        return Err(MoeError::BadInput {
            expected: format!("(tokens, {embed_dim})"),
            actual: input.dims().to_vec(),
        });
    }
    Ok(())
}

/// Routes each token to its top-k experts given a `(tokens, E)` score
/// matrix — the shared skeleton of all token-choice gates. Each token is
/// selected over once; `weigh(token, scores_row, kept, weights)` fills
/// the combine weight of every kept expert (`kept` descends by score).
pub(crate) fn route_token_choice<F>(
    scores: &Tensor,
    top_k: usize,
    capacity: usize,
    mut weigh: F,
) -> Result<Routing>
where
    F: FnMut(usize, &[f32], &[usize], &mut [f32]),
{
    let (tokens, experts) = (scores.dims()[0], scores.dims()[1]);
    let mut builder = RoutingBuilder::new(tokens, experts, capacity);
    let mut kept = Vec::with_capacity(top_k);
    let mut weights = vec![0.0f32; top_k];
    for (t, row) in scores.data().chunks(experts).enumerate() {
        top_k_into(row, top_k, &mut kept)?;
        weigh(t, row, &kept, &mut weights);
        for (&e, &w) in kept.iter().zip(&weights) {
            builder.assign(t, e, w);
        }
    }
    Ok(builder.finish())
}

/// The `Softmax(KeepTopK(scores, k))` routing of GShard and X-MoE: each
/// kept expert weighs its share of the softmax over the kept scores —
/// bit for bit the dense form, whose row sum runs left to right (masked
/// entries add `+0.0`) and whose all-`-∞` row weighs nothing.
///
/// # Errors
///
/// As `Tensor::keep_top_k`: a NaN score would be kept as a "largest"
/// value and poison the weights silently.
pub(crate) fn route_kept_softmax(
    scores: &Tensor,
    top_k: usize,
    capacity: usize,
) -> Result<Routing> {
    if let Some(bad) = scores.data().iter().position(|v| v.is_nan()) {
        let (op, row) = ("keep_top_k", bad / scores.dims()[1]);
        return Err(tensor::TensorError::NonFiniteInput { op, row }.into());
    }
    route_token_choice(scores, top_k, capacity, |_t, row, kept, weights| {
        let max = row[kept[0]];
        if max == f32::NEG_INFINITY {
            return weights.fill(0.0);
        }
        for (w, &e) in weights.iter_mut().zip(kept) {
            *w = (row[e] - max).exp();
        }
        let mut sum = 0.0f32;
        for e in 0..row.len() {
            if let Some(j) = kept.iter().position(|&k| k == e) {
                sum += weights[j];
            }
        }
        weights.iter_mut().for_each(|w| *w /= sum);
    })
}

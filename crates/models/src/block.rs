//! A full transformer block on the data plane: pre-norm attention and
//! MoE feed-forward with residual connections, trainable end-to-end —
//! the unit the paper's real-model runs stack (attention + MoE replaces
//! the dense ffn, Fig. 1).
//!
//! ```text
//! y₁ = x  + Attention(LN(x))
//! y₂ = y₁ + MoE(LN(y₁))
//! ```
//!
//! Layer norms use unit gain and zero bias (no learned affine), keeping
//! the hand-written backward compact; the scheduling experiments are
//! unaffected.

use collectives::{Communicator, HybridTopology};
use fsmoe::config::MoeConfig;
use fsmoe::gate::GShardGate;
use fsmoe::layer::{MoeGrads, MoeLayer};
use fsmoe::{MoeError, Result};
use tensor::{grad, Tensor, TensorRng};

use crate::attention::{AttentionGrads, AttentionState, MultiHeadAttention};

const LN_EPS: f32 = 1e-5;

/// Saved forward state of one block.
#[derive(Debug)]
pub struct BlockState {
    x: Tensor,
    attn_state: AttentionState,
    y1: Tensor,
}

/// Gradients of one block.
#[derive(Debug)]
pub struct BlockGrads {
    /// Gradient with respect to the block input.
    pub input: Tensor,
    /// Attention projection gradients.
    pub attention: AttentionGrads,
    /// MoE expert gradients.
    pub moe: MoeGrads,
}

/// One trainable transformer block: attention + MoE with residuals.
pub struct TransformerBlock {
    attention: MultiHeadAttention,
    moe: MoeLayer,
    state: Option<BlockState>,
}

impl std::fmt::Debug for TransformerBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformerBlock")
            .field("attention", &self.attention)
            .field("moe", &self.moe)
            .finish()
    }
}

impl TransformerBlock {
    /// Builds a block with a GShard-gated MoE feed-forward that runs
    /// locally (the layer over a one-rank world).
    ///
    /// # Errors
    ///
    /// Propagates construction errors from either sub-module.
    pub fn new(config: &MoeConfig, heads: usize, rng: &mut TensorRng) -> Result<Self> {
        let attention = MultiHeadAttention::new(config.embed_dim, heads, rng)?.causal();
        let gate = GShardGate::new(config.embed_dim, config.num_experts, config.top_k, rng);
        let (comm, topo) = (Communicator::solo(), HybridTopology::flat(1)?);
        Ok(TransformerBlock {
            attention,
            moe: MoeLayer::with_gate(config, Box::new(gate), rng, &comm, &topo)?,
            state: None,
        })
    }

    /// The MoE sub-layer (e.g. to inspect routing).
    pub fn moe(&self) -> &MoeLayer {
        &self.moe
    }

    /// The attention sub-layer.
    pub fn attention(&self) -> &MultiHeadAttention {
        &self.attention
    }

    /// Runs the block on `(T, M)` tokens.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn forward(&mut self, x: &Tensor, rng: &mut TensorRng) -> Result<Tensor> {
        let ln1 = x.layer_norm(LN_EPS)?;
        let (attn_out, attn_state) = self.attention.forward(&ln1)?;
        let y1 = x.add(&attn_out)?;
        let ln2 = y1.layer_norm(LN_EPS)?;
        let moe_out = self.moe.forward(&ln2, rng)?;
        let y2 = y1.add(&moe_out)?;
        self.state = Some(BlockState {
            x: x.clone(),
            attn_state,
            y1,
        });
        Ok(y2)
    }

    /// Backpropagates through the most recent forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::NoForwardState`] before any forward.
    pub fn backward(&mut self, grad_y: &Tensor) -> Result<BlockGrads> {
        let state = self.state.take().ok_or(MoeError::NoForwardState)?;
        // y2 = y1 + moe(ln2(y1))
        let moe_grads = self.moe.backward(grad_y)?;
        let grad_ln2 = &moe_grads.input;
        let grad_y1 = grad_y.add(&grad::layer_norm_backward(grad_ln2, &state.y1, LN_EPS)?)?;
        // y1 = x + attn(ln1(x))
        let attn_grads = self.attention.backward(&grad_y1, &state.attn_state)?;
        let grad_x = grad_y1.add(&grad::layer_norm_backward(
            &attn_grads.input,
            &state.x,
            LN_EPS,
        )?)?;
        self.state = Some(state);
        Ok(BlockGrads {
            input: grad_x,
            attention: attn_grads,
            moe: moe_grads,
        })
    }

    /// SGD step on every parameter of the block.
    ///
    /// # Errors
    ///
    /// Returns an error on gradient arity mismatch.
    pub fn apply_grads(&mut self, grads: &BlockGrads, lr: f32) -> Result<()> {
        self.attention.apply_grads(&grads.attention.weights, lr)?;
        self.moe.apply_grads(&grads.moe, lr)
    }
}

/// A stack of transformer blocks — a trainable MoE "model".
pub struct MoeTransformer {
    blocks: Vec<TransformerBlock>,
}

impl std::fmt::Debug for MoeTransformer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MoeTransformer({} blocks)", self.blocks.len())
    }
}

impl MoeTransformer {
    /// Builds `layers` identical blocks.
    ///
    /// # Errors
    ///
    /// Propagates block construction errors.
    pub fn new(
        config: &MoeConfig,
        heads: usize,
        layers: usize,
        rng: &mut TensorRng,
    ) -> Result<Self> {
        let blocks = (0..layers)
            .map(|_| TransformerBlock::new(config, heads, rng))
            .collect::<Result<Vec<_>>>()?;
        Ok(MoeTransformer { blocks })
    }

    /// Number of blocks.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// The blocks, for inspection.
    pub fn blocks(&self) -> &[TransformerBlock] {
        &self.blocks
    }

    /// Full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates block errors.
    pub fn forward(&mut self, x: &Tensor, rng: &mut TensorRng) -> Result<Tensor> {
        let mut fwd_span = obs::span(obs::names::CAT_MODELS, obs::names::SPAN_MODEL_FORWARD);
        fwd_span.attr("blocks", self.blocks.len());
        let mut h = x.clone();
        for block in &mut self.blocks {
            h = block.forward(&h, rng)?;
        }
        Ok(h)
    }

    /// One SGD training step against an MSE regression target; returns
    /// the loss before the step.
    ///
    /// # Errors
    ///
    /// Propagates block errors.
    pub fn train_step(
        &mut self,
        x: &Tensor,
        target: &Tensor,
        lr: f32,
        rng: &mut TensorRng,
    ) -> Result<f32> {
        let mut step_span = obs::span(obs::names::CAT_MODELS, obs::names::SPAN_TRAIN_STEP);
        let y = self.forward(x, rng)?;
        let err = y.sub(target)?;
        let loss = err.map(|v| v * v).mean();
        let mut grad = err.scale(2.0 / y.num_elements() as f32);
        {
            let _bwd = obs::span(obs::names::CAT_MODELS, obs::names::SPAN_MODEL_BACKWARD);
            for block in self.blocks.iter_mut().rev() {
                let grads = block.backward(&grad)?;
                grad = grads.input.clone();
                block.apply_grads(&grads, lr)?;
            }
        }
        step_span.attr("loss", loss);
        Ok(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MoeConfig {
        MoeConfig::builder()
            .batch_size(1)
            .seq_len(8)
            .embed_dim(8)
            .hidden_dim(16)
            .num_experts(4)
            .top_k(2)
            .no_drop()
            .build()
            .unwrap()
    }

    #[test]
    fn block_preserves_shape() {
        let mut rng = TensorRng::seed_from(1);
        let mut block = TransformerBlock::new(&config(), 2, &mut rng).unwrap();
        let x = rng.normal(&[8, 8], 0.0, 1.0);
        let y = block.forward(&x, &mut rng).unwrap();
        assert_eq!(y.dims(), x.dims());
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn backward_needs_forward() {
        let mut rng = TensorRng::seed_from(2);
        let mut block = TransformerBlock::new(&config(), 2, &mut rng).unwrap();
        assert!(block.backward(&Tensor::zeros(&[8, 8])).is_err());
    }

    #[test]
    fn block_gradient_shapes_line_up() {
        let mut rng = TensorRng::seed_from(3);
        let mut block = TransformerBlock::new(&config(), 2, &mut rng).unwrap();
        let x = rng.normal(&[8, 8], 0.0, 1.0);
        let y = block.forward(&x, &mut rng).unwrap();
        let grads = block.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(grads.input.dims(), x.dims());
        assert_eq!(grads.attention.weights.len(), 4);
        assert_eq!(grads.moe.shards.len(), 4);
    }

    #[test]
    fn transformer_trains_to_lower_loss() {
        let mut rng = TensorRng::seed_from(4);
        let mut model = MoeTransformer::new(&config(), 2, 2, &mut rng).unwrap();
        assert_eq!(model.depth(), 2);
        let x = rng.normal(&[8, 8], 0.0, 1.0);
        let target = rng.normal(&[8, 8], 0.0, 1.0);
        let mut route_rng = TensorRng::seed_from(0);
        let first = model.train_step(&x, &target, 0.2, &mut route_rng).unwrap();
        let mut last = first;
        for _ in 0..8 {
            last = model.train_step(&x, &target, 0.2, &mut route_rng).unwrap();
        }
        assert!(
            last < first * 0.9,
            "loss should fall by >10%: {first} → {last}"
        );
    }

    #[test]
    fn residual_path_passes_gradient_even_for_dropped_tokens() {
        // tight capacity drops tokens in the MoE, but the residual still
        // carries gradient to every input position
        let cfg = MoeConfig::builder()
            .batch_size(1)
            .seq_len(8)
            .embed_dim(8)
            .hidden_dim(16)
            .num_experts(4)
            .top_k(2)
            .capacity_factor(0.3)
            .build()
            .unwrap();
        let mut rng = TensorRng::seed_from(5);
        let mut block = TransformerBlock::new(&cfg, 2, &mut rng).unwrap();
        let x = rng.normal(&[8, 8], 0.0, 1.0);
        let y = block.forward(&x, &mut rng).unwrap();
        let routing = block.moe().last_routing().unwrap();
        assert!(routing.drop_rate() > 0.0);
        let grads = block.backward(&Tensor::ones(y.dims())).unwrap();
        // no token row is entirely zero-gradient
        for row in grads.input.data().chunks(8) {
            assert!(row.iter().any(|v| v.abs() > 1e-9));
        }
    }
}

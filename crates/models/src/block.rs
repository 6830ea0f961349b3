//! The model and **the** training step: a stack of transformer blocks
//! over any world shape — attention + MoE replaces the dense ffn
//! (Fig. 1); §5.2's generalized layer, one MoE layer plus the dense
//! operations before the next.
//!
//! ```text
//! y₁ = x  + Attention(LN(x))        (optional)
//! y₂ = y₁ + MoE(LN(y₁))
//! ```
//!
//! Without attention a block is the paper's configured layer. Layer
//! norms use unit gain and zero bias (no learned affine), keeping the
//! hand-written backward compact.
//!
//! [`MoeTransformer::train_step`] owns forward → loss → backward →
//! gradient all-reduce → update, and with it which parameter is
//! synchronised over which group: attention weights are replicated on
//! every rank of the data-parallel group, so their gradients are summed
//! over it and applied as the mean; expert shards live on exactly one
//! rank, so theirs never leave it; gate weights are replicated and
//! frozen. A local model is the same type over a one-rank world and
//! `HybridTopology::flat(1)`: its groups hold one rank.

use collectives::{Communicator, GroupComm, HybridTopology};
use fsmoe::checkpoint::{BlockCheckpoint, ModelCheckpoint};
use fsmoe::config::MoeConfig;
use fsmoe::gate::GShardGate;
use fsmoe::layer::{MoeGrads, MoeLayer};
use fsmoe::reshard::ReshardPlan;
use fsmoe::{MoeError, Result};
use obs::names;
use tensor::{grad, Tensor, TensorRng};

use crate::attention::{AttentionState, MultiHeadAttention};

const LN_EPS: f32 = 1e-5;

/// What a block's backward needs from its forward.
#[derive(Debug)]
struct Saved {
    /// Input of the MoE half: the block input, plus the attention
    /// output when there is one.
    x_mid: Tensor,
    /// The block input and the attention's own state.
    attn: Option<(Tensor, AttentionState)>,
}

/// Gradients of one block.
#[derive(Debug)]
pub struct BlockGrads {
    /// Gradient with respect to the block input.
    pub input: Tensor,
    /// Gradients of the attention projections `[w_q, w_k, w_v, w_o]`:
    /// this rank's share, until the model sums them over its DP group.
    pub attention: Option<Vec<Tensor>>,
    /// MoE expert gradients.
    pub moe: MoeGrads,
}

/// One trainable transformer block: optional causal attention, then
/// MoE, each behind a layer norm and a residual.
#[derive(Debug)]
pub struct TransformerBlock {
    attention: Option<MultiHeadAttention>,
    moe: MoeLayer,
    saved: Option<Saved>,
}

impl TransformerBlock {
    /// Assembles a block from prebuilt sub-modules ([`Self::new`] is
    /// sugar over this). Every rank passes identical attention weights.
    pub fn from_parts(attention: Option<MultiHeadAttention>, moe: MoeLayer) -> Self {
        TransformerBlock {
            attention,
            moe,
            saved: None,
        }
    }

    /// A block with a GShard-gated MoE and, when `heads` is given,
    /// causal attention. Every rank must pass the same `seed`; without
    /// attention the layer is exactly `MoeLayer::gshard(.., seed)`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from either sub-module.
    pub fn new(
        config: &MoeConfig,
        heads: Option<usize>,
        comm: &Communicator,
        topo: &HybridTopology,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = TensorRng::seed_from(seed);
        let attention = match heads {
            Some(h) => Some(MultiHeadAttention::new(config.embed_dim, h, &mut rng)?.causal()),
            None => None,
        };
        let gate = GShardGate::new(config.embed_dim, config.num_experts, config.top_k, &mut rng);
        let moe = MoeLayer::with_gate(config, Box::new(gate), &mut rng, comm, topo)?;
        Ok(Self::from_parts(attention, moe))
    }

    /// The MoE sub-layer (e.g. to inspect routing or placement).
    pub fn moe(&self) -> &MoeLayer {
        &self.moe
    }

    /// The attention sub-layer, if the block has one.
    pub fn attention(&self) -> Option<&MultiHeadAttention> {
        self.attention.as_ref()
    }

    /// Runs the block on `(T, M)` tokens, keeping `x` for the backward.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or a collective fault.
    pub fn forward(&mut self, x: Tensor, rng: &mut TensorRng) -> Result<Tensor> {
        let h1 = x.layer_norm(LN_EPS)?;
        let (x_mid, h2, attn) = match &self.attention {
            Some(attention) => {
                let (a, state) = {
                    let _s = obs::span(names::CAT_MODELS, names::SPAN_ATTN_FWD);
                    attention.forward(&h1)?
                };
                let x_mid = x.add(&a)?;
                let h2 = x_mid.layer_norm(LN_EPS)?;
                (x_mid, h2, Some((x, state)))
            }
            // configured layer: the one LN feeds the MoE directly
            None => (x, h1, None),
        };
        let y = self.moe.forward(&h2, rng)?;
        let out = x_mid.add(&y)?;
        self.saved = Some(Saved { x_mid, attn });
        Ok(out)
    }

    /// Backpropagates through the most recent forward pass, consuming
    /// its saved activations.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::NoForwardState`] without a forward to match.
    pub fn backward(&mut self, grad_y: &Tensor) -> Result<BlockGrads> {
        let saved = self.saved.take().ok_or(MoeError::NoForwardState)?;
        // y2 = y1 + moe(ln(y1))
        let moe = self.moe.backward(grad_y)?;
        let ln_grad = grad::layer_norm_backward(&moe.input, &saved.x_mid, LN_EPS)?;
        let mut input = grad_y.add(&ln_grad)?;
        // y1 = x + attn(ln(x)); without attention y1 = x
        let mut attention = None;
        if let (Some(attn), Some((x_in, state))) = (&self.attention, &saved.attn) {
            let ag = {
                let _s = obs::span(names::CAT_MODELS, names::SPAN_ATTN_BWD);
                attn.backward(&input, state)?
            };
            input = input.add(&grad::layer_norm_backward(&ag.input, x_in, LN_EPS)?)?;
            attention = Some(ag.weights);
        }
        Ok(BlockGrads {
            input,
            attention,
            moe,
        })
    }
}

/// A stack of transformer blocks over one world — the trainable MoE
/// model, and the owner of the training step.
#[derive(Debug)]
pub struct MoeTransformer {
    blocks: Vec<TransformerBlock>,
    /// The group the replicated (attention) gradients are summed over.
    dp_group: GroupComm,
}

impl MoeTransformer {
    /// A model over prebuilt `blocks`, whose layers were built over the
    /// same `comm` and `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] for attention on a topology with
    /// `mp > 1` — attention is replicated whole here, nothing shards
    /// it — and propagates group-building failures.
    pub fn from_blocks(
        blocks: Vec<TransformerBlock>,
        comm: &Communicator,
        topo: &HybridTopology,
    ) -> Result<Self> {
        let mp = topo.dims().mp;
        if mp > 1 && blocks.iter().any(|b| b.attention.is_some()) {
            return Err(MoeError::BadConfig {
                field: "heads",
                reason: format!("attention is replicated whole; nothing shards it over mp = {mp}"),
            });
        }
        Ok(MoeTransformer {
            blocks,
            dp_group: comm.subgroup(&topo.dp_group(comm.rank()))?,
        })
    }

    /// `depth` blocks of one shape: block `b` is
    /// `TransformerBlock::new(.., seed + b)`.
    ///
    /// # Errors
    ///
    /// As [`TransformerBlock::new`] and [`Self::from_blocks`].
    pub fn new(
        config: &MoeConfig,
        heads: Option<usize>,
        depth: usize,
        comm: &Communicator,
        topo: &HybridTopology,
        seed: u64,
    ) -> Result<Self> {
        let block = |b| TransformerBlock::new(config, heads, comm, topo, seed.wrapping_add(b));
        let blocks = (0..depth as u64).map(block).collect::<Result<_>>()?;
        Self::from_blocks(blocks, comm, topo)
    }

    /// Number of blocks.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// The blocks, for inspection.
    pub fn blocks(&self) -> &[TransformerBlock] {
        &self.blocks
    }

    /// Block `block`'s MoE layer, to configure (fault policy, hooks) or
    /// to [`MoeLayer::migrate`] an expert of.
    ///
    /// # Panics
    ///
    /// Panics when `block` is out of range.
    pub fn layer_mut(&mut self, block: usize) -> &mut MoeLayer {
        &mut self.blocks[block].moe
    }

    /// Token assignments dropped by graceful degradation, all layers.
    pub fn dropped_tokens(&self) -> usize {
        self.blocks.iter().map(|b| b.moe.dropped_tokens()).sum()
    }

    /// Full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates block errors.
    pub fn forward(&mut self, x: &Tensor, rng: &mut TensorRng) -> Result<Tensor> {
        let mut fwd_span = obs::span(names::CAT_MODELS, names::SPAN_MODEL_FORWARD);
        fwd_span.attr("blocks", self.blocks.len());
        let mut h = x.clone();
        for block in &mut self.blocks {
            h = block.forward(h, rng)?;
        }
        Ok(h)
    }

    /// One SGD step against an MSE regression target — **the** step:
    /// forward, loss, backward, all-reduce of each replicated gradient
    /// over the DP group (one call per tensor, in backward order, on a
    /// one-rank group too), then the update — the summed gradient at
    /// `lr / dp_size` on replicated weights, `lr` on expert shards.
    /// Returns this rank's loss before the step.
    ///
    /// # Errors
    ///
    /// Propagates block failures (shape errors, collective faults); no
    /// weight changes unless every collective succeeded.
    pub fn train_step(
        &mut self,
        x: &Tensor,
        target: &Tensor,
        lr: f32,
        route_rng: &mut TensorRng,
    ) -> Result<f32> {
        let mut step_span = obs::span(names::CAT_MODELS, names::SPAN_TRAIN_STEP);
        let y = self.forward(x, route_rng)?;
        let err = y.sub(target)?;
        let loss = err.map(|v| v * v).mean();
        let mut grad_x = err.scale(2.0 / err.num_elements() as f32);

        // last block first, like every gradient list below
        let mut grads = Vec::with_capacity(self.blocks.len());
        {
            let _s = obs::span(names::CAT_MODELS, names::SPAN_MODEL_BACKWARD);
            for block in self.blocks.iter_mut().rev() {
                let mut g = block.backward(&grad_x)?;
                grad_x = std::mem::take(&mut g.input);
                grads.push(g);
            }
        }
        {
            let _s = obs::span(names::CAT_MODELS, names::SPAN_GRAD_ALLREDUCE);
            let replicated = grads.iter_mut().filter_map(|g| g.attention.as_mut());
            for g in replicated.flatten() {
                self.dp_group.all_reduce(g.data_mut())?;
            }
        }
        let _s = obs::span(names::CAT_MODELS, names::SPAN_UPDATE);
        // the gradients were summed over the group: apply the mean
        let attn_lr = lr / self.dp_group.size() as f32;
        for (block, g) in self.blocks.iter_mut().rev().zip(&grads) {
            if let (Some(attention), Some(g)) = (&mut block.attention, &g.attention) {
                attention.apply_grads(g, attn_lr)?;
            }
            block.moe.apply_grads(&g.moe, lr)?;
        }
        step_span.attr("loss", loss);
        Ok(loss)
    }

    /// The full model checkpoint: per block the layer's collective
    /// [`MoeLayer::checkpoint_global`] (all ranks call together) plus
    /// the attention weights, which every replica holds.
    ///
    /// # Errors
    ///
    /// As [`MoeLayer::checkpoint_global`].
    pub fn checkpoint_global(&self) -> Result<ModelCheckpoint> {
        let block = |b: &TransformerBlock| {
            let weights = b.attention.iter().flat_map(MultiHeadAttention::weights);
            Ok(BlockCheckpoint {
                dense: weights.cloned().collect(),
                moe: b.moe.checkpoint_global()?,
            })
        };
        Ok(ModelCheckpoint {
            blocks: self.blocks.iter().map(block).collect::<Result<_>>()?,
        })
    }

    /// Restores every block from a full checkpoint, in place
    /// ([`MoeLayer::restore_full`] per layer).
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadInput`] when the checkpoint does not match
    /// the model's depth, attention or layer shapes.
    pub fn restore_full(&mut self, checkpoint: &ModelCheckpoint) -> Result<()> {
        self.restore_attention(checkpoint)?;
        for (block, ck) in self.blocks.iter_mut().zip(&checkpoint.blocks) {
            block.moe.restore_full(&ck.moe)?;
        }
        Ok(())
    }

    /// Re-shards after a world reconfiguration: block `b` installs
    /// `plans[b]` and restores from `checkpoint` over the new world
    /// ([`MoeLayer::reshard`]); the DP group is rebuilt on it.
    ///
    /// # Errors
    ///
    /// As [`Self::restore_full`] and [`MoeLayer::reshard`];
    /// [`MoeError::BadConfig`] unless there is one plan per block.
    pub fn reshard(
        &mut self,
        plans: &[ReshardPlan],
        checkpoint: &ModelCheckpoint,
        comm: &Communicator,
        topo: &HybridTopology,
    ) -> Result<()> {
        if plans.len() != self.blocks.len() {
            return Err(MoeError::BadConfig {
                field: "reshard_plan",
                reason: format!("{} plans for {} blocks", plans.len(), self.blocks.len()),
            });
        }
        self.restore_attention(checkpoint)?;
        for ((block, plan), ck) in self.blocks.iter_mut().zip(plans).zip(&checkpoint.blocks) {
            block.moe.reshard(plan, &ck.moe, comm, topo)?;
        }
        self.dp_group = comm.subgroup(&topo.dp_group(comm.rank()))?;
        Ok(())
    }

    /// Checks `checkpoint` against the model's depth and installs the
    /// attention weights it carries.
    fn restore_attention(&mut self, checkpoint: &ModelCheckpoint) -> Result<()> {
        if checkpoint.blocks.len() != self.blocks.len() {
            return Err(MoeError::BadInput {
                expected: format!("{} block checkpoints", self.blocks.len()),
                actual: vec![checkpoint.blocks.len()],
            });
        }
        for (block, ck) in self.blocks.iter_mut().zip(&checkpoint.blocks) {
            match &mut block.attention {
                Some(attention) => attention.import_weights(&ck.dense)?,
                None if ck.dense.is_empty() => {}
                None => {
                    return Err(MoeError::BadInput {
                        expected: "no dense weights for a block without attention".into(),
                        actual: vec![ck.dense.len()],
                    })
                }
            }
        }
        Ok(())
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

    /// Runs `f` on the one rank of a one-rank world: local execution.
    fn on_one_rank(f: impl Fn(&Communicator, &HybridTopology) + Send + Sync + 'static) {
        collectives::run_ranks(1, move |comm| f(&comm, &HybridTopology::flat(1).unwrap()));
    }

    #[test]
    fn block_preserves_shape() {
        on_one_rank(|comm, topo| {
            for heads in [Some(2), None] {
                let mut block = TransformerBlock::new(&config(), heads, comm, topo, 1).unwrap();
                let mut rng = TensorRng::seed_from(1);
                let x = rng.normal(&[8, 8], 0.0, 1.0);
                let y = block.forward(x.clone(), &mut rng).unwrap();
                assert_eq!(y.dims(), x.dims());
                assert!(y.data().iter().all(|v| v.is_finite()));
            }
        });
    }

    #[test]
    fn backward_needs_forward() {
        on_one_rank(|comm, topo| {
            let mut block = TransformerBlock::new(&config(), Some(2), comm, topo, 2).unwrap();
            assert!(block.backward(&Tensor::zeros(&[8, 8])).is_err());
        });
    }

    #[test]
    fn block_gradient_shapes_line_up() {
        on_one_rank(|comm, topo| {
            let mut block = TransformerBlock::new(&config(), Some(2), comm, topo, 3).unwrap();
            let mut rng = TensorRng::seed_from(3);
            let x = rng.normal(&[8, 8], 0.0, 1.0);
            let y = block.forward(x.clone(), &mut rng).unwrap();
            let grads = block.backward(&Tensor::ones(y.dims())).unwrap();
            assert_eq!(grads.input.dims(), x.dims());
            assert_eq!(grads.attention.unwrap().len(), 4);
            assert_eq!(grads.moe.shards.len(), 4);
        });
    }

    #[test]
    fn transformer_trains_to_lower_loss() {
        on_one_rank(|comm, topo| {
            let mut model = MoeTransformer::new(&config(), Some(2), 2, comm, topo, 4).unwrap();
            assert_eq!(model.depth(), 2);
            let mut rng = TensorRng::seed_from(4);
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
        });
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
        on_one_rank(move |comm, topo| {
            let mut block = TransformerBlock::new(&cfg, Some(2), comm, topo, 5).unwrap();
            let mut rng = TensorRng::seed_from(5);
            let x = rng.normal(&[8, 8], 0.0, 1.0);
            let y = block.forward(x, &mut rng).unwrap();
            let routing = block.moe().last_routing().unwrap();
            assert!(routing.drop_rate() > 0.0);
            let grads = block.backward(&Tensor::ones(y.dims())).unwrap();
            // no token row is entirely zero-gradient
            for row in grads.input.data().chunks(8) {
                assert!(row.iter().any(|v| v.abs() > 1e-9));
            }
        });
    }
}

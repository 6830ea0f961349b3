//! The training step the benchmark times — the only file that composes
//! the program's layers into a model.
//!
//! One block is `LN → causal attention → residual → LN → DistMoeLayer →
//! residual` (or, without attention, the paper's configured layer `LN →
//! DistMoeLayer → residual`); a step is forward through all blocks, MSE
//! loss, backward, `dp_group.all_reduce` of the attention gradients, SGD.
//! At world size 1 the same `DistMoeLayer` runs with one-rank groups, so
//! the single-worker baseline is the distributed code path.
//!
//! Known limit: the program has no distributed transformer step of its
//! own yet (ROADMAP item 2). Until it does, optimisations *inside* the
//! layers show here, a re-scheduled gradient AllReduce cannot. When
//! item 2 lands, a `benchmark` issue replaces this file with the
//! program's entry point and re-baselines.
//!
//! Every call into a layer is wrapped in a driver span (see `trace.rs`);
//! the span names are `<crate>.<what>` so a span total maps onto the
//! per-layer metric of the same name.

use collectives::{Communicator, GroupComm, HybridTopology, ParallelDims};
use fsmoe::dist::{DistMoeGrads, DistMoeLayer};
use models::attention::{AttentionState, MultiHeadAttention};
use tensor::{grad, Tensor, TensorRng};

use crate::spec::{TrainShape, LN_EPS};
use crate::stats::{bits_digest, sub_seed};
use crate::trace::Recorder;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Driver span names.
pub mod span {
    pub const STEP: &str = "step";
    pub const ATTN_FWD: &str = "models.attn_fwd";
    pub const ATTN_BWD: &str = "models.attn_bwd";
    pub const UPDATE: &str = "models.update";
    pub const MOE_FWD: &str = "fsmoe.moe_fwd";
    pub const MOE_BWD: &str = "fsmoe.moe_bwd";
    pub const GRAD_ALLREDUCE: &str = "collectives.grad_allreduce";
    pub const GLUE: &str = "tensor.glue";
}

struct Block {
    attn: Option<MultiHeadAttention>,
    moe: DistMoeLayer,
}

/// What a block's backward needs from its forward.
struct Saved {
    x_in: Tensor,
    attn: Option<AttentionState>,
    x_mid: Tensor,
}

/// Exact routing counts of the latest forward, summed over blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoutingCounts {
    /// Routed (token, expert) assignments — rows that carry a token.
    pub useful_rows: usize,
    /// `E · capacity` rows the padded layer computes.
    pub computed_rows: usize,
    /// Assignments the gate dropped for lack of capacity.
    pub capacity_drops: usize,
    /// Sum over blocks of the expert-load coefficient of variation.
    pub imbalance_sum: f64,
    pub blocks: usize,
}

impl std::ops::AddAssign for RoutingCounts {
    fn add_assign(&mut self, c: RoutingCounts) {
        self.useful_rows += c.useful_rows;
        self.computed_rows += c.computed_rows;
        self.capacity_drops += c.capacity_drops;
        self.imbalance_sum += c.imbalance_sum;
        self.blocks += c.blocks;
    }
}

/// One rank's replica of the benchmark model.
pub struct Model {
    blocks: Vec<Block>,
    dp_group: GroupComm,
    route_rng: TensorRng,
    lr: f32,
    /// Attention gradients are summed over the DP group, so the mean
    /// gradient is applied by scaling the rate.
    attn_lr: f32,
}

impl Model {
    /// Builds this rank's model slice. Every rank passes the same
    /// `seed`: attention weights are replicated, experts are
    /// materialised identically and each rank keeps its own.
    pub fn build(shape: &TrainShape, comm: &Communicator, seed: u64) -> Res<Model> {
        let dims = ParallelDims {
            dp: shape.ranks,
            mp: 1,
            ep: shape.ranks,
            esp: 1,
        };
        let topo = HybridTopology::new(shape.ranks, 1, dims)?;
        let config = shape.moe_config()?;
        let mut blocks = Vec::with_capacity(shape.blocks);
        for b in 0..shape.blocks as u64 {
            let attn = match shape.heads {
                Some(heads) => {
                    let mut rng = TensorRng::seed_from(sub_seed(seed, 100 + b));
                    Some(MultiHeadAttention::new(shape.embed, heads, &mut rng)?.causal())
                }
                None => None,
            };
            let moe = DistMoeLayer::gshard(&config, comm, &topo, sub_seed(seed, 200 + b))?;
            blocks.push(Block { attn, moe });
        }
        Ok(Model {
            blocks,
            dp_group: comm.subgroup(&topo.dp_group(comm.rank()))?,
            route_rng: TensorRng::seed_from(sub_seed(seed, 300 + comm.rank() as u64)),
            lr: shape.lr,
            attn_lr: shape.lr / shape.ranks as f32,
        })
    }

    /// One training step on `(tokens, M)` input and target; returns this
    /// rank's MSE loss.
    pub fn step(&mut self, x: &Tensor, target: &Tensor, rec: &mut Recorder) -> Res<f32> {
        let step = rec.begin(span::STEP);

        // forward
        let mut saved = Vec::with_capacity(self.blocks.len());
        let mut cur = x.clone();
        for block in &mut self.blocks {
            let g = rec.begin(span::GLUE);
            let h1 = cur.layer_norm(LN_EPS)?;
            rec.end(g);

            let s = rec.begin(span::ATTN_FWD);
            let attn_out = match &block.attn {
                Some(attn) => Some(attn.forward(&h1)?),
                None => None,
            };
            rec.end(s);

            let g = rec.begin(span::GLUE);
            let (x_mid, attn_state, h2) = match attn_out {
                Some((a, state)) => {
                    let x_mid = cur.add(&a)?;
                    let h2 = x_mid.layer_norm(LN_EPS)?;
                    (x_mid, Some(state), h2)
                }
                // configured layer: the one LN feeds the MoE directly
                None => (cur.clone(), None, h1),
            };
            rec.end(g);

            let s = rec.begin(span::MOE_FWD);
            let y = block.moe.forward(&h2, &mut self.route_rng)?;
            rec.end(s);

            let g = rec.begin(span::GLUE);
            let out = x_mid.add(&y)?;
            rec.end(g);
            saved.push(Saved {
                x_in: std::mem::replace(&mut cur, out),
                attn: attn_state,
                x_mid,
            });
        }

        // loss
        let g = rec.begin(span::GLUE);
        let err = cur.sub(target)?;
        let loss = err.map(|v| v * v).mean();
        let mut grad_x = err.scale(2.0 / err.num_elements() as f32);
        rec.end(g);

        // backward
        let mut moe_grads: Vec<DistMoeGrads> = Vec::with_capacity(self.blocks.len());
        let mut attn_grads: Vec<Vec<Tensor>> = Vec::with_capacity(self.blocks.len());
        for (block, sv) in self.blocks.iter_mut().zip(&saved).rev() {
            let s = rec.begin(span::MOE_BWD);
            let mg = block.moe.backward(&grad_x)?;
            rec.end(s);

            let g = rec.begin(span::GLUE);
            let grad_mid = grad_x.add(&grad::layer_norm_backward(&mg.input, &sv.x_mid, LN_EPS)?)?;
            rec.end(g);
            moe_grads.push(mg);

            let s = rec.begin(span::ATTN_BWD);
            let ag = match (&block.attn, &sv.attn) {
                (Some(attn), Some(state)) => Some(attn.backward(&grad_mid, state)?),
                _ => None,
            };
            rec.end(s);

            let g = rec.begin(span::GLUE);
            grad_x = match ag {
                Some(ag) => {
                    let gx =
                        grad_mid.add(&grad::layer_norm_backward(&ag.input, &sv.x_in, LN_EPS)?)?;
                    attn_grads.push(ag.weights);
                    gx
                }
                // configured layer: grad_mid already went through its LN
                None => grad_mid,
            };
            rec.end(g);
        }

        // gradient AllReduce of the replicated (attention) parameters
        let s = rec.begin(span::GRAD_ALLREDUCE);
        for grads in &mut attn_grads {
            for g in grads {
                self.dp_group.all_reduce(g.data_mut())?;
            }
        }
        rec.end(s);

        // SGD (gradient lists are in backward order)
        let s = rec.begin(span::UPDATE);
        let mut attn_grads = attn_grads.into_iter();
        for (block, mg) in self.blocks.iter_mut().rev().zip(&moe_grads) {
            if let Some(attn) = &mut block.attn {
                let grads = attn_grads.next().ok_or("attention gradient missing")?;
                attn.apply_grads(&grads, self.attn_lr)?;
            }
            block.moe.apply_grads(mg, self.lr)?;
        }
        rec.end(s);

        rec.end(step);
        Ok(loss)
    }

    /// FNV-1a over the bits of the DP-replicated (attention) weights:
    /// after any number of steps every rank must report the same value.
    pub fn replicated_checksum(&self) -> u64 {
        bits_digest(
            self.blocks
                .iter()
                .filter_map(|b| b.attn.as_ref())
                .flat_map(|attn| attn.weights())
                .flat_map(|w| w.data().iter().copied()),
        )
    }

    /// Token assignments lost to comm degradation since construction.
    pub fn comm_dropped_tokens(&self) -> usize {
        self.blocks.iter().map(|b| b.moe.dropped_tokens()).sum()
    }

    /// Exact routing counts of the latest forward.
    pub fn routing_counts(&self) -> RoutingCounts {
        let mut c = RoutingCounts::default();
        for routing in self.blocks.iter().filter_map(|b| b.moe.last_routing()) {
            c.useful_rows += routing.assignments().len();
            c.computed_rows += routing.num_experts() * routing.capacity();
            c.capacity_drops += routing.dropped().len();
            c.imbalance_sum += routing.load_imbalance();
            c.blocks += 1;
        }
        c
    }
}

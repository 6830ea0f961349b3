//! Expert feed-forward networks with exact ESP sharding.
//!
//! Two expert architectures from the paper (§3.1): the GPT-2 two-layer
//! feed-forward (`GeLU(x·W1)·W2`) and the Mixtral SwiGLU block
//! (`(SiLU(x·W1) ⊙ x·W3)·W2`). Both implement a hand-written backward
//! pass (FSMoE implements backprop manually, §4.4) and **exact**
//! expert-sharding: the hidden dimension is partitioned, so shard
//! outputs are partial sums and `Σ_shards shard(x) = full(x)` — which is
//! why the paper's ESP-ReduceScatter (a summing collective) reconstructs
//! the exact expert output.

use tensor::{grad, Tensor, TensorRng};

use crate::config::FfnKind;
use crate::{MoeError, Result};

/// Activations saved by an expert's forward pass for its backward pass.
#[derive(Debug, Clone)]
pub struct ExpertState {
    saved: Vec<Tensor>,
}

/// A borrowed view of an expert's FFN weight matrices, exposed so the
/// grouped-GEMM dispatch ([`crate::grouped`]) can batch the matching
/// projection of every expert into one [`Tensor::matmul_segments`] call
/// instead of looping expert by expert.
///
/// Experts whose compute is not one of these two shapes return `None`
/// from [`Expert::ffn_weights`] and keep the per-expert fallback path.
#[derive(Debug, Clone, Copy)]
pub enum FfnWeights<'a> {
    /// `y = GeLU(x·w1)·w2`.
    Gpt {
        /// `(M, H)` up-projection.
        w1: &'a Tensor,
        /// `(H, M)` down-projection.
        w2: &'a Tensor,
    },
    /// `y = (SiLU(x·w1) ⊙ (x·w3))·w2`.
    Mixtral {
        /// `(M, H)` gate projection.
        w1: &'a Tensor,
        /// `(M, H)` up projection.
        w3: &'a Tensor,
        /// `(H, M)` down projection.
        w2: &'a Tensor,
    },
}

/// Gradients produced by an expert's backward pass.
#[derive(Debug, Clone)]
pub struct ExpertGrads {
    /// Gradient with respect to the expert input.
    pub input: Tensor,
    /// Gradients of the expert's weights, in [`Expert::weights`] order.
    pub weights: Vec<Tensor>,
}

/// An expert network, the *Expert* sub-module of the paper's abstraction.
///
/// Any `Expert` can be dropped into [`MoeLayer`](crate::layer::MoeLayer),
/// the analogue of deriving from the paper's `ExpertBase` (Listing 1).
///
/// Experts are `Send + Sync` so a layer can move to, and be shared
/// between, rank threads: forward/backward take `&self` (weights are
/// read-only during compute; updates go through `&mut self` methods
/// afterwards).
pub trait Expert: std::fmt::Debug + Send + Sync {
    /// Short identifier.
    fn name(&self) -> &'static str;

    /// Applies the expert to `(rows, M)`, returning output and saved
    /// state.
    ///
    /// # Errors
    ///
    /// Returns an error when the input width disagrees with the weights.
    fn forward(&self, x: &Tensor) -> Result<(Tensor, ExpertState)>;

    /// Backpropagates `grad_y` through the saved forward state.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch with the saved state.
    fn backward(&self, grad_y: &Tensor, state: &ExpertState) -> Result<ExpertGrads>;

    /// The expert's weight tensors (for update/synchronisation).
    fn weights(&self) -> Vec<&Tensor>;

    /// Applies an SGD step `w ← w − lr·g`.
    ///
    /// # Errors
    ///
    /// Returns an error when `grads` does not match [`Expert::weights`].
    fn apply_grads(&mut self, grads: &[Tensor], lr: f32) -> Result<()>;

    /// Replaces the expert's weights (checkpoint restore). The list must
    /// match [`Expert::weights`] in arity and shapes.
    ///
    /// # Errors
    ///
    /// Returns an error on arity or shape mismatch.
    fn import_weights(&mut self, weights: &[Tensor]) -> Result<()>;

    /// Total parameter count.
    fn num_params(&self) -> usize {
        self.weights().iter().map(|w| w.num_elements()).sum()
    }

    /// Forward FLOPs per input row.
    fn flops_per_row(&self) -> f64;

    /// The expert's weights as a grouped-GEMM-able FFN view, when its
    /// forward pass is exactly one of the [`FfnWeights`] shapes.
    ///
    /// The contract: when this returns `Some`, running the matching
    /// [`crate::grouped`] formula on those weights must produce the same
    /// numbers as [`Expert::forward`] (the grouped kernel computes each
    /// row with the same ascending-`k` GEMM, so "same" is bit-identical
    /// per row). Custom experts keep the default `None` and are computed
    /// through the per-expert loop.
    fn ffn_weights(&self) -> Option<FfnWeights<'_>> {
        None
    }

    /// Returns the ESP shard `shard` of `num_shards`: a smaller expert
    /// whose outputs are partial sums of the full expert's.
    ///
    /// # Errors
    ///
    /// Returns an error when the hidden size does not divide evenly.
    fn shard(&self, shard: usize, num_shards: usize) -> Result<Box<dyn Expert>>;
}

fn shard_range(hidden: usize, shard: usize, num_shards: usize) -> Result<(usize, usize)> {
    if num_shards == 0 || shard >= num_shards {
        return Err(MoeError::BadConfig {
            field: "num_shards",
            reason: format!("shard {shard} of {num_shards}"),
        });
    }
    if !hidden.is_multiple_of(num_shards) {
        return Err(MoeError::BadConfig {
            field: "hidden_dim",
            reason: format!("{hidden} not divisible by {num_shards} shards"),
        });
    }
    let width = hidden / num_shards;
    Ok((shard * width, (shard + 1) * width))
}

/// The GPT-2 feed-forward expert: `y = GeLU(x·W1)·W2`.
#[derive(Debug, Clone)]
pub struct GptFfn {
    w1: Tensor,
    w2: Tensor,
}

impl GptFfn {
    /// Creates an expert with Xavier-initialised weights.
    pub fn new(embed_dim: usize, hidden_dim: usize, rng: &mut TensorRng) -> Self {
        GptFfn {
            w1: rng.xavier(embed_dim, hidden_dim),
            w2: rng.xavier(hidden_dim, embed_dim),
        }
    }

    fn from_weights(w1: Tensor, w2: Tensor) -> Self {
        GptFfn { w1, w2 }
    }
}

impl Expert for GptFfn {
    fn name(&self) -> &'static str {
        "gpt_ffn"
    }

    fn forward(&self, x: &Tensor) -> Result<(Tensor, ExpertState)> {
        let h = x.matmul(&self.w1)?;
        let a = h.gelu();
        let y = a.matmul(&self.w2)?;
        Ok((
            y,
            ExpertState {
                saved: vec![x.clone(), h, a],
            },
        ))
    }

    fn backward(&self, grad_y: &Tensor, state: &ExpertState) -> Result<ExpertGrads> {
        let [x, h, a] = state.saved.as_slice() else {
            return Err(MoeError::NoForwardState);
        };
        let (grad_a, grad_w2) = grad::matmul_backward(grad_y, a, &self.w2)?;
        let grad_h = grad::gelu_backward(&grad_a, h)?;
        let (grad_x, grad_w1) = grad::matmul_backward(&grad_h, x, &self.w1)?;
        Ok(ExpertGrads {
            input: grad_x,
            weights: vec![grad_w1, grad_w2],
        })
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.w1, &self.w2]
    }

    fn apply_grads(&mut self, grads: &[Tensor], lr: f32) -> Result<()> {
        let [g1, g2] = grads else {
            return Err(MoeError::BadInput {
                expected: "2 gradient tensors".into(),
                actual: vec![grads.len()],
            });
        };
        self.w1.sub_scaled_assign(g1, lr)?;
        self.w2.sub_scaled_assign(g2, lr)?;
        Ok(())
    }

    fn import_weights(&mut self, weights: &[Tensor]) -> Result<()> {
        let [w1, w2] = weights else {
            return Err(MoeError::BadInput {
                expected: "2 weight tensors".into(),
                actual: vec![weights.len()],
            });
        };
        if !w1.shape().same_as(self.w1.shape()) || !w2.shape().same_as(self.w2.shape()) {
            return Err(MoeError::BadInput {
                expected: format!("shapes {:?}/{:?}", self.w1.dims(), self.w2.dims()),
                actual: w1.dims().to_vec(),
            });
        }
        self.w1 = w1.clone();
        self.w2 = w2.clone();
        Ok(())
    }

    fn flops_per_row(&self) -> f64 {
        let (m, h) = (self.w1.dims()[0], self.w1.dims()[1]);
        2.0 * (m * h + h * m) as f64
    }

    fn ffn_weights(&self) -> Option<FfnWeights<'_>> {
        Some(FfnWeights::Gpt {
            w1: &self.w1,
            w2: &self.w2,
        })
    }

    fn shard(&self, shard: usize, num_shards: usize) -> Result<Box<dyn Expert>> {
        let hidden = self.w1.dims()[1];
        let (lo, hi) = shard_range(hidden, shard, num_shards)?;
        Ok(Box::new(GptFfn::from_weights(
            self.w1.slice_cols(lo, hi)?,
            self.w2.slice_rows(lo, hi)?,
        )))
    }
}

/// The Mixtral SwiGLU expert: `y = (SiLU(x·W1) ⊙ (x·W3))·W2`.
#[derive(Debug, Clone)]
pub struct MixtralFfn {
    w1: Tensor,
    w3: Tensor,
    w2: Tensor,
}

impl MixtralFfn {
    /// Creates an expert with Xavier-initialised weights.
    pub fn new(embed_dim: usize, hidden_dim: usize, rng: &mut TensorRng) -> Self {
        MixtralFfn {
            w1: rng.xavier(embed_dim, hidden_dim),
            w3: rng.xavier(embed_dim, hidden_dim),
            w2: rng.xavier(hidden_dim, embed_dim),
        }
    }

    fn from_weights(w1: Tensor, w3: Tensor, w2: Tensor) -> Self {
        MixtralFfn { w1, w3, w2 }
    }
}

impl Expert for MixtralFfn {
    fn name(&self) -> &'static str {
        "mixtral_ffn"
    }

    fn forward(&self, x: &Tensor) -> Result<(Tensor, ExpertState)> {
        let g = x.matmul(&self.w1)?;
        let u = x.matmul(&self.w3)?;
        let a = g.silu().mul(&u)?;
        let y = a.matmul(&self.w2)?;
        Ok((
            y,
            ExpertState {
                saved: vec![x.clone(), g, u, a],
            },
        ))
    }

    fn backward(&self, grad_y: &Tensor, state: &ExpertState) -> Result<ExpertGrads> {
        let [x, g, u, a] = state.saved.as_slice() else {
            return Err(MoeError::NoForwardState);
        };
        let (grad_a, grad_w2) = grad::matmul_backward(grad_y, a, &self.w2)?;
        // a = silu(g) ⊙ u
        let grad_u = grad_a.mul(&g.silu())?;
        let grad_g = grad::silu_backward(&grad_a.mul(u)?, g)?;
        let (gx1, grad_w1) = grad::matmul_backward(&grad_g, x, &self.w1)?;
        let (gx3, grad_w3) = grad::matmul_backward(&grad_u, x, &self.w3)?;
        Ok(ExpertGrads {
            input: gx1.add(&gx3)?,
            weights: vec![grad_w1, grad_w3, grad_w2],
        })
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.w1, &self.w3, &self.w2]
    }

    fn apply_grads(&mut self, grads: &[Tensor], lr: f32) -> Result<()> {
        let [g1, g3, g2] = grads else {
            return Err(MoeError::BadInput {
                expected: "3 gradient tensors".into(),
                actual: vec![grads.len()],
            });
        };
        self.w1.sub_scaled_assign(g1, lr)?;
        self.w3.sub_scaled_assign(g3, lr)?;
        self.w2.sub_scaled_assign(g2, lr)?;
        Ok(())
    }

    fn import_weights(&mut self, weights: &[Tensor]) -> Result<()> {
        let [w1, w3, w2] = weights else {
            return Err(MoeError::BadInput {
                expected: "3 weight tensors".into(),
                actual: vec![weights.len()],
            });
        };
        for (slot, w) in [(&self.w1, w1), (&self.w3, w3), (&self.w2, w2)] {
            if !slot.shape().same_as(w.shape()) {
                return Err(MoeError::BadInput {
                    expected: format!("shape {:?}", slot.dims()),
                    actual: w.dims().to_vec(),
                });
            }
        }
        self.w1 = w1.clone();
        self.w3 = w3.clone();
        self.w2 = w2.clone();
        Ok(())
    }

    fn flops_per_row(&self) -> f64 {
        let (m, h) = (self.w1.dims()[0], self.w1.dims()[1]);
        2.0 * (3 * m * h) as f64
    }

    fn ffn_weights(&self) -> Option<FfnWeights<'_>> {
        Some(FfnWeights::Mixtral {
            w1: &self.w1,
            w3: &self.w3,
            w2: &self.w2,
        })
    }

    fn shard(&self, shard: usize, num_shards: usize) -> Result<Box<dyn Expert>> {
        let hidden = self.w1.dims()[1];
        let (lo, hi) = shard_range(hidden, shard, num_shards)?;
        Ok(Box::new(MixtralFfn::from_weights(
            self.w1.slice_cols(lo, hi)?,
            self.w3.slice_cols(lo, hi)?,
            self.w2.slice_rows(lo, hi)?,
        )))
    }
}

/// Builds an expert of `kind` — the factory the layer constructors use.
pub fn build_expert(
    kind: FfnKind,
    embed_dim: usize,
    hidden_dim: usize,
    rng: &mut TensorRng,
) -> Box<dyn Expert> {
    match kind {
        FfnKind::Gpt => Box::new(GptFfn::new(embed_dim, hidden_dim, rng)),
        FfnKind::Mixtral => Box::new(MixtralFfn::new(embed_dim, hidden_dim, rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_input<E: Expert>(e: &E, x: &Tensor) -> Tensor {
        let h = 1e-2f32;
        let mut grad = Tensor::zeros(x.dims());
        for i in 0..x.num_elements() {
            let mut plus = x.clone();
            plus.data_mut()[i] += h;
            let mut minus = x.clone();
            minus.data_mut()[i] -= h;
            let yp = e.forward(&plus).unwrap().0.sum();
            let ym = e.forward(&minus).unwrap().0.sum();
            grad.data_mut()[i] = (yp - ym) / (2.0 * h);
        }
        grad
    }

    #[test]
    fn gpt_ffn_shapes_and_params() {
        let mut rng = TensorRng::seed_from(1);
        let e = GptFfn::new(4, 8, &mut rng);
        let x = rng.normal(&[3, 4], 0.0, 1.0);
        let (y, _) = e.forward(&x).unwrap();
        assert_eq!(y.dims(), &[3, 4]);
        assert_eq!(e.num_params(), 4 * 8 * 2);
        assert_eq!(e.flops_per_row(), 2.0 * 64.0);
    }

    #[test]
    fn gpt_backward_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(2);
        let e = GptFfn::new(3, 5, &mut rng);
        let x = rng.normal(&[2, 3], 0.0, 1.0);
        let (y, state) = e.forward(&x).unwrap();
        let grads = e.backward(&Tensor::ones(y.dims()), &state).unwrap();
        let fd = finite_diff_input(&e, &x);
        assert!(grads.input.allclose(&fd, 5e-2));
    }

    #[test]
    fn mixtral_backward_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(3);
        let e = MixtralFfn::new(3, 4, &mut rng);
        let x = rng.normal(&[2, 3], 0.0, 1.0);
        let (y, state) = e.forward(&x).unwrap();
        let grads = e.backward(&Tensor::ones(y.dims()), &state).unwrap();
        let fd = finite_diff_input(&e, &x);
        assert!(grads.input.allclose(&fd, 5e-2));
        assert_eq!(grads.weights.len(), 3);
    }

    #[test]
    fn weight_grads_match_finite_difference_gpt() {
        let mut rng = TensorRng::seed_from(4);
        let e = GptFfn::new(3, 4, &mut rng);
        let x = rng.normal(&[2, 3], 0.0, 1.0);
        let (y, state) = e.forward(&x).unwrap();
        let grads = e.backward(&Tensor::ones(y.dims()), &state).unwrap();
        // perturb w1[0] and check loss delta
        let h = 1e-2f32;
        let mut plus = e.clone();
        plus.w1.data_mut()[0] += h;
        let mut minus = e.clone();
        minus.w1.data_mut()[0] -= h;
        let fd =
            (plus.forward(&x).unwrap().0.sum() - minus.forward(&x).unwrap().0.sum()) / (2.0 * h);
        assert!((grads.weights[0].data()[0] - fd).abs() < 5e-2);
    }

    #[test]
    fn shards_sum_to_full_output() {
        let mut rng = TensorRng::seed_from(5);
        for (kind, e) in [
            (
                "gpt",
                Box::new(GptFfn::new(4, 8, &mut rng)) as Box<dyn Expert>,
            ),
            ("mixtral", Box::new(MixtralFfn::new(4, 8, &mut rng))),
        ] {
            let x = rng.normal(&[5, 4], 0.0, 1.0);
            let (full, _) = e.forward(&x).unwrap();
            for shards in [1usize, 2, 4] {
                let mut sum = Tensor::zeros(full.dims());
                for s in 0..shards {
                    let part = e.shard(s, shards).unwrap();
                    sum.add_assign(&part.forward(&x).unwrap().0).unwrap();
                }
                assert!(sum.allclose(&full, 1e-4), "{kind} with {shards} shards");
            }
        }
    }

    #[test]
    fn shard_validation() {
        let mut rng = TensorRng::seed_from(6);
        let e = GptFfn::new(4, 6, &mut rng);
        assert!(e.shard(0, 4).is_err(), "6 not divisible by 4");
        assert!(e.shard(3, 2).is_err(), "shard index out of range");
        assert!(e.shard(0, 0).is_err());
    }

    #[test]
    fn sgd_step_reduces_loss() {
        let mut rng = TensorRng::seed_from(7);
        let mut e = GptFfn::new(3, 6, &mut rng);
        let x = rng.normal(&[4, 3], 0.0, 1.0);
        // loss = sum(y); gradient step with small lr should reduce it
        let (y0, state) = e.forward(&x).unwrap();
        let grads = e.backward(&Tensor::ones(y0.dims()), &state).unwrap();
        e.apply_grads(&grads.weights, 0.01).unwrap();
        let (y1, _) = e.forward(&x).unwrap();
        assert!(y1.sum() < y0.sum());
    }

    #[test]
    fn apply_grads_arity_checked() {
        let mut rng = TensorRng::seed_from(8);
        let mut e = MixtralFfn::new(2, 4, &mut rng);
        assert!(e.apply_grads(&[Tensor::zeros(&[2, 4])], 0.1).is_err());
    }

    /// The per-expert fallback keeps one saved state per expert in index
    /// order and, when several experts fail, returns the first (by index).
    #[test]
    fn for_each_expert_preserves_order_and_errors() {
        use crate::grouped::{backward_experts, forward_experts, FfnState};
        let mut rng = TensorRng::seed_from(12);
        let experts: Vec<Box<dyn Expert>> = vec![
            Box::new(GptFfn::new(4, 8, &mut rng)),
            Box::new(MixtralFfn::new(4, 8, &mut rng)),
            Box::new(GptFfn::new(4, 6, &mut rng)),
            Box::new(MixtralFfn::new(4, 6, &mut rng)),
        ];
        let offsets = [0, 2, 3, 3, 5];
        let rows = tensor::Segments::from_offsets(&offsets);
        let x = rng.normal(&[5, 4], 0.0, 1.0);
        let (_, state) = forward_experts(&experts, x, &rows).unwrap();
        let FfnState::PerExpert(states) = state else {
            panic!("a mixed set must not group");
        };
        // GPT saves (x, h, a), Mixtral (x, g, u, a)
        let saved: Vec<_> = states.iter().map(|s| s.saved.len()).collect();
        assert_eq!(saved, [3, 4, 3, 4]);
        for (e, s) in states.iter().enumerate() {
            assert_eq!(s.saved[0].dims(), &[offsets[e + 1] - offsets[e], 4]);
        }

        // expert 1 gets a GPT state (NoForwardState); expert 3 a Mixtral
        // state of the wrong width (a tensor error), which must not win
        let mut bad = states.clone();
        bad[1] = states[0].clone();
        bad[3] = states[1].clone();
        let gy = rng.normal(&[5, 4], 0.0, 1.0);
        let err = backward_experts(&experts, &gy, &FfnState::PerExpert(bad.clone()), &rows);
        assert!(matches!(err, Err(MoeError::NoForwardState)), "{err:?}");
        bad[1] = states[1].clone();
        let err = backward_experts(&experts, &gy, &FfnState::PerExpert(bad), &rows);
        assert!(matches!(err, Err(MoeError::Tensor(_))), "{err:?}");
    }

    /// The layer's expert fan-out — grouped for a uniform set, the
    /// per-expert loop for a mixed one — equals each expert run on its
    /// own rows one after another.
    #[test]
    fn parallel_expert_forward_matches_serial() {
        let mut rng = TensorRng::seed_from(11);
        let uniform: Vec<Box<dyn Expert>> = (0..4)
            .map(|_| Box::new(GptFfn::new(6, 12, &mut rng)) as Box<dyn Expert>)
            .collect();
        let mixed: Vec<Box<dyn Expert>> = vec![
            Box::new(GptFfn::new(6, 12, &mut rng)),
            Box::new(MixtralFfn::new(6, 12, &mut rng)),
            Box::new(GptFfn::new(6, 8, &mut rng)),
            Box::new(MixtralFfn::new(6, 8, &mut rng)),
        ];
        let offsets = [0, 3, 3, 6, 8];
        let groups = tensor::Segments::from_offsets(&offsets);
        let x = rng.normal(&[8, 6], 0.0, 1.0);
        for experts in [&uniform, &mixed] {
            let (y, _) = crate::grouped::forward_experts(experts, x.clone(), &groups).unwrap();
            let serial: Vec<Tensor> = (0..experts.len())
                .map(|e| {
                    let rows = x.slice_rows(offsets[e], offsets[e + 1]).unwrap();
                    experts[e].forward(&rows).unwrap().0
                })
                .collect();
            assert_eq!(y, Tensor::cat(&serial).unwrap());
        }
    }

    #[test]
    fn factory_builds_both_kinds() {
        let mut rng = TensorRng::seed_from(9);
        assert_eq!(build_expert(FfnKind::Gpt, 2, 4, &mut rng).name(), "gpt_ffn");
        assert_eq!(
            build_expert(FfnKind::Mixtral, 2, 4, &mut rng).name(),
            "mixtral_ffn"
        );
    }
}

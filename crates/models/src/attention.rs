//! Real multi-head self-attention (data plane).
//!
//! The timing experiments only need attention's *cost* (see
//! [`crate::layerspec`]), but the paper's end-to-end runs train real
//! transformers — so the reproduction also carries a fully functional
//! multi-head attention with a hand-written backward pass, used by
//! [`crate::block::TransformerBlock`] to train an actual MoE
//! transformer on the CPU data plane.
//!
//! Shapes follow the single-sequence convention of the rest of the data
//! plane: the input is `(T, M)` tokens; heads split the embedding into
//! `h` slices of width `d = M/h`.

use tensor::{grad, Tensor, TensorRng};

use fsmoe::{MoeError, Result};

/// Saved forward state for the backward pass.
#[derive(Debug, Clone)]
pub struct AttentionState {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Per-head attention probabilities, each `(T, T)`.
    probs: Vec<Tensor>,
    /// Concatenated per-head context `(T, M)` before the output
    /// projection.
    context: Tensor,
}

/// Gradients produced by [`MultiHeadAttention::backward`].
#[derive(Debug, Clone)]
pub struct AttentionGrads {
    /// Gradient with respect to the block input.
    pub input: Tensor,
    /// Gradients of `[w_q, w_k, w_v, w_o]`.
    pub weights: Vec<Tensor>,
}

/// Multi-head scaled-dot-product self-attention with optional causal
/// masking.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    embed_dim: usize,
    heads: usize,
    causal: bool,
    w_q: Tensor,
    w_k: Tensor,
    w_v: Tensor,
    w_o: Tensor,
}

impl MultiHeadAttention {
    /// Creates an attention module with Xavier-initialised projections.
    ///
    /// # Errors
    ///
    /// Returns an error when `heads` does not divide `embed_dim`.
    pub fn new(embed_dim: usize, heads: usize, rng: &mut TensorRng) -> Result<Self> {
        if heads == 0 || !embed_dim.is_multiple_of(heads) {
            return Err(MoeError::BadConfig {
                field: "heads",
                reason: format!("{heads} must divide embed_dim {embed_dim}"),
            });
        }
        Ok(MultiHeadAttention {
            embed_dim,
            heads,
            causal: false,
            w_q: rng.xavier(embed_dim, embed_dim),
            w_k: rng.xavier(embed_dim, embed_dim),
            w_v: rng.xavier(embed_dim, embed_dim),
            w_o: rng.xavier(embed_dim, embed_dim),
        })
    }

    /// Enables the causal (autoregressive) mask.
    pub fn causal(mut self) -> Self {
        self.causal = true;
        self
    }

    /// Head width `d = M/h`.
    pub fn head_dim(&self) -> usize {
        self.embed_dim / self.heads
    }

    /// The projection weights `[w_q, w_k, w_v, w_o]`.
    pub fn weights(&self) -> Vec<&Tensor> {
        vec![&self.w_q, &self.w_k, &self.w_v, &self.w_o]
    }

    /// Replaces the projections with `[w_q, w_k, w_v, w_o]` verbatim
    /// (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns an error unless `weights` is four `(M, M)` tensors.
    pub fn import_weights(&mut self, weights: &[Tensor]) -> Result<()> {
        let dims = [self.embed_dim; 2];
        match weights {
            [q, k, v, o] if weights.iter().all(|w| w.dims() == dims) => {
                (self.w_q, self.w_k, self.w_v, self.w_o) =
                    (q.clone(), k.clone(), v.clone(), o.clone());
                Ok(())
            }
            _ => Err(MoeError::BadInput {
                expected: format!("4 projections of dims {dims:?}"),
                actual: weights.iter().flat_map(|w| w.dims().to_vec()).collect(),
            }),
        }
    }

    /// Runs attention on a `(T, M)` input.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, AttentionState)> {
        if x.rank() != 2 || x.dims()[1] != self.embed_dim {
            return Err(MoeError::BadInput {
                expected: format!("(tokens, {})", self.embed_dim),
                actual: x.dims().to_vec(),
            });
        }
        let t = x.dims()[0];
        let d = self.head_dim();
        let scale = 1.0 / (d as f32).sqrt();

        let q = x.matmul(&self.w_q)?;
        let k = x.matmul(&self.w_k)?;
        let v = x.matmul(&self.w_v)?;

        let mut context = Tensor::zeros(&[t, self.embed_dim]);
        let mut probs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (lo, hi) = (h * d, (h + 1) * d);
            let qh = q.slice_cols(lo, hi)?;
            let kh = k.slice_cols(lo, hi)?;
            let vh = v.slice_cols(lo, hi)?;
            let mut scores = qh.matmul_nt(&kh)?.scale(scale);
            if self.causal {
                for i in 0..t {
                    for j in (i + 1)..t {
                        scores.data_mut()[i * t + j] = f32::NEG_INFINITY;
                    }
                }
            }
            let p = scores.softmax()?;
            let ctx_h = p.matmul(&vh)?; // (T, d)
            for i in 0..t {
                context.data_mut()[i * self.embed_dim + lo..i * self.embed_dim + hi]
                    .copy_from_slice(&ctx_h.data()[i * d..(i + 1) * d]);
            }
            probs.push(p);
        }
        let y = context.matmul(&self.w_o)?;
        Ok((
            y,
            AttentionState {
                x: x.clone(),
                q,
                k,
                v,
                probs,
                context,
            },
        ))
    }

    /// Backpropagates through the saved forward state.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch with the saved state.
    pub fn backward(&self, grad_y: &Tensor, state: &AttentionState) -> Result<AttentionGrads> {
        let t = state.x.dims()[0];
        let d = self.head_dim();
        let m = self.embed_dim;
        let scale = 1.0 / (d as f32).sqrt();

        // output projection
        let (grad_context, grad_wo) = grad::matmul_backward(grad_y, &state.context, &self.w_o)?;

        let mut grad_q = Tensor::zeros(&[t, m]);
        let mut grad_k = Tensor::zeros(&[t, m]);
        let mut grad_v = Tensor::zeros(&[t, m]);
        for h in 0..self.heads {
            let (lo, hi) = (h * d, (h + 1) * d);
            let gctx_h = grad_context.slice_cols(lo, hi)?;
            let qh = state.q.slice_cols(lo, hi)?;
            let kh = state.k.slice_cols(lo, hi)?;
            let vh = state.v.slice_cols(lo, hi)?;
            let p = &state.probs[h];

            // ctx = P · V
            let grad_p = gctx_h.matmul_nt(&vh)?;
            let grad_vh = p.matmul_tn(&gctx_h)?;
            // P = softmax(S); masked entries have p = 0 so their score
            // gradient vanishes automatically
            let grad_scores = grad::softmax_backward(&grad_p, p)?.scale(scale);
            let grad_qh = grad_scores.matmul(&kh)?;
            let grad_kh = grad_scores.matmul_tn(&qh)?;

            for i in 0..t {
                grad_q.data_mut()[i * m + lo..i * m + hi]
                    .copy_from_slice(&grad_qh.data()[i * d..(i + 1) * d]);
                grad_k.data_mut()[i * m + lo..i * m + hi]
                    .copy_from_slice(&grad_kh.data()[i * d..(i + 1) * d]);
                grad_v.data_mut()[i * m + lo..i * m + hi]
                    .copy_from_slice(&grad_vh.data()[i * d..(i + 1) * d]);
            }
        }

        let (gx_q, grad_wq) = grad::matmul_backward(&grad_q, &state.x, &self.w_q)?;
        let (gx_k, grad_wk) = grad::matmul_backward(&grad_k, &state.x, &self.w_k)?;
        let (gx_v, grad_wv) = grad::matmul_backward(&grad_v, &state.x, &self.w_v)?;
        let input = gx_q.add(&gx_k)?.add(&gx_v)?;
        Ok(AttentionGrads {
            input,
            weights: vec![grad_wq, grad_wk, grad_wv, grad_wo],
        })
    }

    /// Applies an SGD step to the four projections.
    ///
    /// # Errors
    ///
    /// Returns an error when `grads` has the wrong arity.
    pub fn apply_grads(&mut self, grads: &[Tensor], lr: f32) -> Result<()> {
        let [gq, gk, gv, go] = grads else {
            return Err(MoeError::BadInput {
                expected: "4 gradient tensors".into(),
                actual: vec![grads.len()],
            });
        };
        self.w_q.sub_scaled_assign(gq, lr)?;
        self.w_k.sub_scaled_assign(gk, lr)?;
        self.w_v.sub_scaled_assign(gv, lr)?;
        self.w_o.sub_scaled_assign(go, lr)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_input(attn: &MultiHeadAttention, x: &Tensor) -> Tensor {
        let h = 1e-2f32;
        let mut out = Tensor::zeros(x.dims());
        for i in 0..x.num_elements() {
            let mut plus = x.clone();
            plus.data_mut()[i] += h;
            let mut minus = x.clone();
            minus.data_mut()[i] -= h;
            let yp = attn.forward(&plus).unwrap().0.sum();
            let ym = attn.forward(&minus).unwrap().0.sum();
            out.data_mut()[i] = (yp - ym) / (2.0 * h);
        }
        out
    }

    #[test]
    fn output_shape_and_finiteness() {
        let mut rng = TensorRng::seed_from(1);
        let attn = MultiHeadAttention::new(8, 2, &mut rng).unwrap();
        let x = rng.normal(&[5, 8], 0.0, 1.0);
        let (y, _) = attn.forward(&x).unwrap();
        assert_eq!(y.dims(), &[5, 8]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut rng = TensorRng::seed_from(2);
        let attn = MultiHeadAttention::new(8, 2, &mut rng).unwrap();
        let x = rng.normal(&[6, 8], 0.0, 1.0);
        let (_, state) = attn.forward(&x).unwrap();
        for p in &state.probs {
            for row in p.data().chunks(6) {
                assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn causal_mask_zeroes_future_positions() {
        let mut rng = TensorRng::seed_from(3);
        let attn = MultiHeadAttention::new(4, 1, &mut rng).unwrap().causal();
        let x = rng.normal(&[5, 4], 0.0, 1.0);
        let (_, state) = attn.forward(&x).unwrap();
        let p = &state.probs[0];
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_eq!(p.at(&[i, j]).unwrap(), 0.0, "({i},{j}) must be masked");
            }
        }
    }

    #[test]
    fn causal_prefix_invariance() {
        // with a causal mask, output at position i depends only on the
        // prefix — changing a later token must not change earlier rows
        let mut rng = TensorRng::seed_from(4);
        let attn = MultiHeadAttention::new(4, 2, &mut rng).unwrap().causal();
        let x = rng.normal(&[4, 4], 0.0, 1.0);
        let (y1, _) = attn.forward(&x).unwrap();
        let mut x2 = x.clone();
        x2.data_mut()[3 * 4] += 5.0; // perturb the last token
        let (y2, _) = attn.forward(&x2).unwrap();
        for i in 0..3 {
            for j in 0..4 {
                assert!((y1.at(&[i, j]).unwrap() - y2.at(&[i, j]).unwrap()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(5);
        for causal in [false, true] {
            let attn = MultiHeadAttention::new(6, 2, &mut rng).unwrap();
            let attn = if causal { attn.causal() } else { attn };
            let x = rng.normal(&[4, 6], 0.0, 1.0);
            let (y, state) = attn.forward(&x).unwrap();
            let grads = attn.backward(&Tensor::ones(y.dims()), &state).unwrap();
            let fd = finite_diff_input(&attn, &x);
            assert!(
                grads.input.allclose(&fd, 5e-2),
                "causal={causal}: max diff {}",
                grads.input.max_abs_diff(&fd).unwrap()
            );
        }
    }

    #[test]
    fn weight_grads_match_finite_difference() {
        let mut rng = TensorRng::seed_from(6);
        let mut attn = MultiHeadAttention::new(4, 2, &mut rng).unwrap();
        let x = rng.normal(&[3, 4], 0.0, 1.0);
        let (y, state) = attn.forward(&x).unwrap();
        let grads = attn.backward(&Tensor::ones(y.dims()), &state).unwrap();
        // nudge w_q[0] via apply_grads
        let h = 1e-2f32;
        let mut delta: Vec<Tensor> = attn
            .weights()
            .iter()
            .map(|w| Tensor::zeros(w.dims()))
            .collect();
        delta[0].data_mut()[0] = 1.0;
        attn.apply_grads(&delta, -h).unwrap();
        let lp = attn.forward(&x).unwrap().0.sum();
        attn.apply_grads(&delta, 2.0 * h).unwrap();
        let lm = attn.forward(&x).unwrap().0.sum();
        attn.apply_grads(&delta, -h).unwrap();
        let fd = (lp - lm) / (2.0 * h);
        assert!((grads.weights[0].data()[0] - fd).abs() < 5e-2);
    }

    #[test]
    fn construction_validation() {
        let mut rng = TensorRng::seed_from(7);
        assert!(MultiHeadAttention::new(8, 3, &mut rng).is_err());
        assert!(MultiHeadAttention::new(8, 0, &mut rng).is_err());
        let attn = MultiHeadAttention::new(8, 4, &mut rng).unwrap();
        assert_eq!(attn.head_dim(), 2);
        assert!(attn.forward(&Tensor::zeros(&[2, 5])).is_err());
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut rng = TensorRng::seed_from(8);
        let mut attn = MultiHeadAttention::new(6, 2, &mut rng).unwrap();
        let x = rng.normal(&[5, 6], 0.0, 1.0);
        let y0 = attn.forward(&x).unwrap().0.sum();
        for _ in 0..3 {
            let (y, state) = attn.forward(&x).unwrap();
            let grads = attn.backward(&Tensor::ones(y.dims()), &state).unwrap();
            attn.apply_grads(&grads.weights, 0.05).unwrap();
        }
        let y1 = attn.forward(&x).unwrap().0.sum();
        assert!(y1 < y0);
    }
}

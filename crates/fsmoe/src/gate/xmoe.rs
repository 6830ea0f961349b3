//! The X-MoE low-rank cosine router.

use tensor::{Tensor, TensorRng};

use super::{check_gate_input, route_kept_softmax, Gate};
use crate::routing::Routing;
use crate::Result;

/// X-MoE routing (Chi et al., NeurIPS 2022): a low-rank projection
/// `W_proj·I` breaks the direct interaction between the hidden vector and
/// the expert embeddings (mitigating representation collapse), both sides
/// are L2-normalised, and the score is the cosine similarity
/// `s_i = cos(W_proj I, W_g_i)` sharpened by a temperature (paper §2.1).
#[derive(Debug, Clone)]
pub struct XMoeGate {
    embed_dim: usize,
    low_rank: usize,
    num_experts: usize,
    top_k: usize,
    /// `(M, d_low)` down-projection.
    w_proj: Tensor,
    /// `(d_low, E)` expert embeddings (columns).
    w_embed: Tensor,
    /// Softmax temperature (the X-MoE paper uses a learned τ; fixed here).
    temperature: f32,
}

impl XMoeGate {
    /// Creates an X-MoE gate with rank-`low_rank` projection.
    ///
    /// # Panics
    ///
    /// Panics when `low_rank` is zero.
    pub fn new(
        embed_dim: usize,
        low_rank: usize,
        num_experts: usize,
        top_k: usize,
        rng: &mut TensorRng,
    ) -> Self {
        assert!(low_rank > 0, "low-rank dimension must be positive");
        XMoeGate {
            embed_dim,
            low_rank,
            num_experts,
            top_k,
            w_proj: rng.xavier(embed_dim, low_rank),
            w_embed: rng.xavier(low_rank, num_experts),
            temperature: 0.07,
        }
    }

    /// Cosine score matrix `(tokens, E)` in `[-1, 1]` before temperature.
    ///
    /// # Errors
    ///
    /// Propagates projection shape errors.
    pub fn cosine_scores(&self, input: &Tensor) -> Result<Tensor> {
        let projected = input.matmul(&self.w_proj)?.l2_normalize(1e-8)?;
        // normalise expert embeddings column-wise: transpose, normalise
        // rows, transpose back
        let embed_norm = self.w_embed.transpose()?.l2_normalize(1e-8)?.transpose()?;
        Ok(projected.matmul(&embed_norm)?)
    }
}

impl Gate for XMoeGate {
    fn name(&self) -> &'static str {
        "xmoe"
    }

    fn num_experts(&self) -> usize {
        self.num_experts
    }

    fn route(&self, input: &Tensor, capacity: usize, _rng: &mut TensorRng) -> Result<Routing> {
        check_gate_input(input, self.embed_dim)?;
        let scores = self.cosine_scores(&input.clone())?;
        let sharpened = scores.scale(1.0 / self.temperature);
        route_kept_softmax(&sharpened, self.top_k, capacity)
    }

    fn flops(&self, tokens: usize) -> f64 {
        // down-projection + embedding similarity
        2.0 * tokens as f64 * self.embed_dim as f64 * self.low_rank as f64
            + 2.0 * tokens as f64 * self.low_rank as f64 * self.num_experts as f64
    }

    fn export_weights(&self) -> Vec<Tensor> {
        vec![self.w_proj.clone(), self.w_embed.clone()]
    }

    fn import_weights(&mut self, weights: &[Tensor]) -> Result<()> {
        let mut proj = self.w_proj.clone();
        let mut embed = self.w_embed.clone();
        super::assign_weights(&mut [&mut proj, &mut embed], weights)?;
        self.w_proj = proj;
        self.w_embed = embed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_are_cosines() {
        let mut rng = TensorRng::seed_from(11);
        let g = XMoeGate::new(8, 4, 3, 1, &mut rng);
        let input = rng.normal(&[10, 8], 0.0, 1.0);
        let s = g.cosine_scores(&input).unwrap();
        assert!(s.data().iter().all(|&v| (-1.0001..=1.0001).contains(&v)));
    }

    #[test]
    fn routes_with_normalized_weights() {
        let mut rng = TensorRng::seed_from(12);
        let g = XMoeGate::new(8, 4, 4, 2, &mut rng);
        let input = rng.normal(&[6, 8], 0.0, 1.0);
        let r = g.route(&input, 100, &mut rng).unwrap();
        assert_eq!(r.assignments().len(), 12);
        let mut sums = vec![0.0f32; 6];
        for a in r.assignments() {
            sums[a.token] += a.weight;
        }
        for s in sums {
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn low_rank_reduces_flops_vs_direct() {
        let mut rng = TensorRng::seed_from(13);
        let g = XMoeGate::new(512, 8, 64, 2, &mut rng);
        let direct = 2.0 * 100.0 * 512.0 * 64.0;
        assert!(g.flops(100) < direct);
    }

    #[test]
    #[should_panic(expected = "low-rank dimension")]
    fn zero_rank_panics() {
        let mut rng = TensorRng::seed_from(0);
        let _ = XMoeGate::new(8, 0, 4, 2, &mut rng);
    }
}

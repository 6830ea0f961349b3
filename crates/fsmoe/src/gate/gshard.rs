//! The GShard noisy top-k gate.

use tensor::{Tensor, TensorRng};

use super::{check_gate_input, route_kept_softmax, Gate};
use crate::routing::Routing;
use crate::Result;

/// GShard routing (Lepikhin et al., ICLR 2021): the paper's Eq. in §2.1,
/// `G(I) = Softmax(KeepTopK(H(I), k))` with
/// `H(I)_i = (I·W_g)_i + N(0,1) · Softplus((I·W_noise)_i)`.
///
/// The noise term is active only when the gate is built with
/// [`GShardGate::with_noise`]; the deterministic variant is what the
/// Table 6 timing experiment uses (the noise GEMM is still priced by the
/// profiler either way).
#[derive(Debug, Clone)]
pub struct GShardGate {
    embed_dim: usize,
    num_experts: usize,
    top_k: usize,
    w_gate: Tensor,
    w_noise: Tensor,
    noisy: bool,
}

impl GShardGate {
    /// Creates a deterministic GShard gate with Xavier-initialised
    /// weights.
    pub fn new(embed_dim: usize, num_experts: usize, top_k: usize, rng: &mut TensorRng) -> Self {
        GShardGate {
            embed_dim,
            num_experts,
            top_k,
            w_gate: rng.xavier(embed_dim, num_experts),
            w_noise: rng.xavier(embed_dim, num_experts),
            noisy: false,
        }
    }

    /// Enables the trainable-noise term of the original formulation.
    pub fn with_noise(mut self) -> Self {
        self.noisy = true;
        self
    }

    /// The gate projection weights (for checkpoint/inspection).
    pub fn w_gate(&self) -> &Tensor {
        &self.w_gate
    }

    /// Raw gating logits `H(I)` for a `(tokens, M)` input.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the projections.
    pub fn logits(&self, input: &Tensor, rng: &mut TensorRng) -> Result<Tensor> {
        let mut h = input.matmul(&self.w_gate)?;
        if self.noisy {
            let noise_scale = input.matmul(&self.w_noise)?.softplus();
            let noise = rng.normal(h.dims(), 0.0, 1.0).mul(&noise_scale)?;
            h = h.add(&noise)?;
        }
        Ok(h)
    }
}

impl Gate for GShardGate {
    fn name(&self) -> &'static str {
        "gshard"
    }

    fn num_experts(&self) -> usize {
        self.num_experts
    }

    fn route(&self, input: &Tensor, capacity: usize, rng: &mut TensorRng) -> Result<Routing> {
        check_gate_input(input, self.embed_dim)?;
        let logits = self.logits(input, rng)?;
        // softmax restricted to the kept top-k logits per token
        route_kept_softmax(&logits, self.top_k, capacity)
    }

    fn flops(&self, tokens: usize) -> f64 {
        let gemms = if self.noisy { 2.0 } else { 1.0 };
        gemms * 2.0 * tokens as f64 * self.embed_dim as f64 * self.num_experts as f64
    }

    fn export_weights(&self) -> Vec<Tensor> {
        vec![self.w_gate.clone(), self.w_noise.clone()]
    }

    fn import_weights(&mut self, weights: &[Tensor]) -> Result<()> {
        let mut gate = self.w_gate.clone();
        let mut noise = self.w_noise.clone();
        super::assign_weights(&mut [&mut gate, &mut noise], weights)?;
        self.w_gate = gate;
        self.w_noise = noise;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> (GShardGate, TensorRng) {
        let mut rng = TensorRng::seed_from(42);
        let g = GShardGate::new(8, 4, 2, &mut rng);
        (g, rng)
    }

    #[test]
    fn routes_every_token_k_times_when_capacity_allows() {
        let (g, mut rng) = gate();
        let input = rng.normal(&[10, 8], 0.0, 1.0);
        let r = g.route(&input, 100, &mut rng).unwrap();
        assert_eq!(r.assignments().len(), 20);
        assert!(r.dropped().is_empty());
    }

    #[test]
    fn weights_are_softmax_over_kept_logits() {
        let (g, mut rng) = gate();
        let input = rng.normal(&[6, 8], 0.0, 1.0);
        let r = g.route(&input, 100, &mut rng).unwrap();
        // per token, the k weights sum to 1 (softmax over the kept set)
        let mut sums = vec![0.0f32; 6];
        for a in r.assignments() {
            sums[a.token] += a.weight;
        }
        for s in sums {
            assert!((s - 1.0).abs() < 1e-5, "sum {s}");
        }
    }

    #[test]
    fn deterministic_without_noise() {
        let (g, mut rng) = gate();
        let input = rng.normal(&[5, 8], 0.0, 1.0);
        let r1 = g.route(&input, 100, &mut TensorRng::seed_from(1)).unwrap();
        let r2 = g.route(&input, 100, &mut TensorRng::seed_from(2)).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn noise_perturbs_routing() {
        let mut rng = TensorRng::seed_from(0);
        let g = GShardGate::new(8, 4, 2, &mut rng).with_noise();
        let input = rng.normal(&[64, 8], 0.0, 0.1); // small logits → noise matters
        let r1 = g.route(&input, 1000, &mut TensorRng::seed_from(1)).unwrap();
        let r2 = g
            .route(&input, 1000, &mut TensorRng::seed_from(99))
            .unwrap();
        assert_ne!(r1, r2, "different noise seeds should change routing");
    }

    #[test]
    fn capacity_enforced() {
        let (g, mut rng) = gate();
        let input = rng.normal(&[50, 8], 0.0, 1.0);
        let r = g.route(&input, 3, &mut rng).unwrap();
        for load in r.expert_loads() {
            assert!(load <= 3);
        }
        assert_eq!(r.assignments().len() + r.dropped().len(), 100);
    }

    #[test]
    fn rejects_wrong_width() {
        let (g, mut rng) = gate();
        let input = rng.normal(&[5, 7], 0.0, 1.0);
        assert!(g.route(&input, 10, &mut rng).is_err());
    }

    #[test]
    fn flops_scale_with_noise() {
        let (g, mut rng) = gate();
        let noisy = GShardGate::new(8, 4, 2, &mut rng).with_noise();
        assert_eq!(noisy.flops(10), 2.0 * g.flops(10));
    }
}

//! The SoftMoE-style soft router.

use tensor::{Tensor, TensorRng};

use super::{check_gate_input, route_token_choice, Gate};
use crate::routing::Routing;
use crate::Result;

/// SoftMoE routing (Puigcerver et al., 2023), adapted to the sparse
/// dispatch pipeline.
///
/// The original SoftMoE computes *dense* convex combinations of all
/// tokens per expert slot. To flow through the same
/// order→dispatch→combine pipeline as the sparse gates (which is how the
/// FSMoE system integrates it as one of its four pre-implemented
/// routers), this adaptation keeps the defining property — combine
/// weights are the **full softmax mass** over all experts, not a
/// renormalised top-k softmax — while dispatching each token only to its
/// k highest-mass experts. As k → E this recovers the fully soft mixture.
#[derive(Debug, Clone)]
pub struct SoftMoeGate {
    embed_dim: usize,
    num_experts: usize,
    top_k: usize,
    w_gate: Tensor,
}

impl SoftMoeGate {
    /// Creates a SoftMoE gate with Xavier-initialised weights.
    pub fn new(embed_dim: usize, num_experts: usize, top_k: usize, rng: &mut TensorRng) -> Self {
        SoftMoeGate {
            embed_dim,
            num_experts,
            top_k,
            w_gate: rng.xavier(embed_dim, num_experts),
        }
    }
}

impl Gate for SoftMoeGate {
    fn name(&self) -> &'static str {
        "softmoe"
    }

    fn num_experts(&self) -> usize {
        self.num_experts
    }

    fn route(&self, input: &Tensor, capacity: usize, _rng: &mut TensorRng) -> Result<Routing> {
        check_gate_input(input, self.embed_dim)?;
        let logits = input.matmul(&self.w_gate)?;
        let probs = logits.softmax()?; // FULL softmax — soft weights
        let experts = self.num_experts;
        route_token_choice(&logits, self.top_k, capacity, |t, _row, kept, w| {
            for (w, &e) in w.iter_mut().zip(kept) {
                *w = probs.data()[t * experts + e];
            }
        })
    }

    fn flops(&self, tokens: usize) -> f64 {
        2.0 * tokens as f64 * self.embed_dim as f64 * self.num_experts as f64
    }

    fn export_weights(&self) -> Vec<Tensor> {
        vec![self.w_gate.clone()]
    }

    fn import_weights(&mut self, weights: &[Tensor]) -> Result<()> {
        let mut gate = self.w_gate.clone();
        super::assign_weights(&mut [&mut gate], weights)?;
        self.w_gate = gate;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_below_one_for_partial_k() {
        // full-softmax mass over a strict subset of experts sums < 1
        let mut rng = TensorRng::seed_from(21);
        let g = SoftMoeGate::new(8, 4, 2, &mut rng);
        let input = rng.normal(&[10, 8], 0.0, 1.0);
        let r = g.route(&input, 100, &mut rng).unwrap();
        let mut sums = vec![0.0f32; 10];
        for a in r.assignments() {
            sums[a.token] += a.weight;
        }
        for s in sums {
            assert!(s < 1.0 && s > 0.0, "sum {s}");
        }
    }

    #[test]
    fn k_equals_e_recovers_full_softmax() {
        let mut rng = TensorRng::seed_from(22);
        let g = SoftMoeGate::new(8, 4, 4, &mut rng);
        let input = rng.normal(&[5, 8], 0.0, 1.0);
        let r = g.route(&input, 100, &mut rng).unwrap();
        assert_eq!(r.assignments().len(), 20);
        let mut sums = vec![0.0f32; 5];
        for a in r.assignments() {
            sums[a.token] += a.weight;
        }
        for s in sums {
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn name_and_size() {
        let mut rng = TensorRng::seed_from(0);
        let g = SoftMoeGate::new(4, 6, 1, &mut rng);
        assert_eq!(g.name(), "softmoe");
        assert_eq!(g.num_experts(), 6);
    }
}

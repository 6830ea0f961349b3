//! The sigmoid gate of BASE layers and StableMoE.

use tensor::{Tensor, TensorRng};

use super::{check_gate_input, route_token_choice, Gate};
use crate::routing::Routing;
use crate::Result;

/// Sigmoid routing (BASE \[23\], StableMoE \[8\]): `H(I)_i = (I·W_g)_i`, the
/// top-k experts by raw logit are selected, and each expert's output is
/// scaled by `σ(H(I)_i)` — so a positive contribution pushes the gate
/// value up and re-selects the same expert (paper §2.1).
#[derive(Debug, Clone)]
pub struct SigmoidGate {
    embed_dim: usize,
    num_experts: usize,
    top_k: usize,
    w_gate: Tensor,
}

impl SigmoidGate {
    /// Creates a sigmoid gate with Xavier-initialised weights.
    pub fn new(embed_dim: usize, num_experts: usize, top_k: usize, rng: &mut TensorRng) -> Self {
        SigmoidGate {
            embed_dim,
            num_experts,
            top_k,
            w_gate: rng.xavier(embed_dim, num_experts),
        }
    }
}

impl Gate for SigmoidGate {
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn num_experts(&self) -> usize {
        self.num_experts
    }

    fn route(&self, input: &Tensor, capacity: usize, _rng: &mut TensorRng) -> Result<Routing> {
        check_gate_input(input, self.embed_dim)?;
        let logits = input.matmul(&self.w_gate)?;
        route_token_choice(&logits, self.top_k, capacity, |_t, row, kept, w| {
            for (w, &e) in w.iter_mut().zip(kept) {
                *w = 1.0 / (1.0 + (-row[e]).exp());
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
    fn weights_are_sigmoid_of_logits() {
        let mut rng = TensorRng::seed_from(7);
        let g = SigmoidGate::new(4, 3, 1, &mut rng);
        let input = rng.normal(&[5, 4], 0.0, 1.0);
        let logits = input.matmul(&g.w_gate).unwrap();
        let r = g.route(&input, 10, &mut rng).unwrap();
        for a in r.assignments() {
            let l = logits.data()[a.token * 3 + a.expert];
            let expect = 1.0 / (1.0 + (-l).exp());
            assert!((a.weight - expect).abs() < 1e-6);
            assert!((0.0..=1.0).contains(&a.weight));
        }
    }

    #[test]
    fn selects_argmax_for_k1() {
        let mut rng = TensorRng::seed_from(3);
        let g = SigmoidGate::new(4, 3, 1, &mut rng);
        let input = rng.normal(&[8, 4], 0.0, 1.0);
        let logits = input.matmul(&g.w_gate).unwrap();
        let r = g.route(&input, 10, &mut rng).unwrap();
        for a in r.assignments() {
            let row = &logits.data()[a.token * 3..(a.token + 1) * 3];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(row[a.expert], max);
        }
    }

    #[test]
    fn deterministic() {
        let mut rng = TensorRng::seed_from(5);
        let g = SigmoidGate::new(4, 4, 2, &mut rng);
        let input = rng.normal(&[6, 4], 0.0, 1.0);
        let a = g.route(&input, 10, &mut TensorRng::seed_from(0)).unwrap();
        let b = g.route(&input, 10, &mut TensorRng::seed_from(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn input_validation() {
        let mut rng = TensorRng::seed_from(1);
        let g = SigmoidGate::new(4, 3, 1, &mut rng);
        assert!(g.route(&Tensor::zeros(&[2, 5]), 10, &mut rng).is_err());
        assert!(g.route(&Tensor::zeros(&[8]), 10, &mut rng).is_err());
    }
}

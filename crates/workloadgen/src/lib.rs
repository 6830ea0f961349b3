//! Pathological routing workloads for MoE stress testing.
//!
//! Real MoE training is dominated by *skewed*, *drifting* expert load —
//! not the mostly-uniform synthetic tokens unit tests route. This crate
//! generates seedable token batches whose routing follows a chosen
//! [`Distribution`]:
//!
//! - **Uniform** — the benign baseline,
//! - **Zipf** — a static power-law skew (a few hot experts dominate),
//! - **Drifting** — the Zipf hot spot rotates across experts over
//!   steps (the "expert popularity drifts as training progresses"
//!   pathology),
//! - **Bursty** — quiet uniform phases punctuated by skew bursts,
//! - **Adversarial** — a gate-aware worst case: every token is chosen
//!   to route to the single expert the gate is already most biased
//!   toward, aligning workload skew with gate bias.
//!
//! Two modes:
//!
//! - [`expert_targets`] samples *routing targets* directly (no gate) —
//!   enough for detector and planner tests.
//! - [`WorkloadGen`] is gate-aware: it **calibrates** against a real
//!   [`Gate`] by probing it with random candidate tokens and recording
//!   which expert each candidate actually routes to, then emits
//!   batches of those calibrated token vectors so a *real* gate
//!   produces the requested skew. This is what drives the chaos+skew
//!   soak against `MoeLayer`.
//!
//! Everything is deterministic under a fixed seed: the same generator
//! state produces the same batches, so skew soaks replay exactly.

use fsmoe::gate::Gate;
use fsmoe::{MoeError, Result};
use tensor::{Tensor, TensorRng};

/// A routing distribution over experts, possibly step-dependent.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Every expert equally likely.
    Uniform,
    /// Static Zipfian skew: the expert ranked `r` (hot expert = rank
    /// 0) has probability ∝ `1 / (r + 1)^s`. Larger `s` = sharper
    /// skew; `s = 0` degenerates to uniform.
    Zipf {
        /// Zipf exponent (≥ 0).
        s: f64,
    },
    /// Zipfian skew whose hot expert rotates by one every `period`
    /// steps, so load drifts across the fleet.
    Drifting {
        /// Zipf exponent (≥ 0).
        s: f64,
        /// Steps between hot-spot rotations (≥ 1).
        period: usize,
    },
    /// `quiet` uniform steps, then `burst` Zipf-skewed steps, cycling.
    Bursty {
        /// Uniform steps per cycle.
        quiet: usize,
        /// Skewed steps per cycle (≥ 1).
        burst: usize,
        /// Zipf exponent during the burst.
        s: f64,
    },
    /// Worst case: every token targets the hot expert. Combined with
    /// gate-aware calibration the hot expert is the one the gate is
    /// already most biased toward.
    Adversarial,
}

impl Distribution {
    /// Per-expert sampling weights at `step`, with the hot spot at
    /// `hot`. Weights are unnormalised and non-negative; at least one
    /// is positive for `num_experts ≥ 1`.
    pub fn weights(&self, step: usize, num_experts: usize, hot: usize) -> Vec<f64> {
        let zipf = |s: f64, hot: usize| -> Vec<f64> {
            (0..num_experts)
                .map(|e| {
                    let rank = (e + num_experts - hot % num_experts.max(1)) % num_experts;
                    1.0 / ((rank + 1) as f64).powf(s)
                })
                .collect()
        };
        match *self {
            Distribution::Uniform => vec![1.0; num_experts],
            Distribution::Zipf { s } => zipf(s, hot),
            Distribution::Drifting { s, period } => {
                let rotation = step / period.max(1);
                zipf(s, (hot + rotation) % num_experts.max(1))
            }
            Distribution::Bursty { quiet, burst, s } => {
                let cycle = (quiet + burst).max(1);
                if step % cycle < quiet {
                    vec![1.0; num_experts]
                } else {
                    zipf(s, hot)
                }
            }
            Distribution::Adversarial => (0..num_experts)
                .map(|e| f64::from(u8::from(e == hot % num_experts.max(1))))
                .collect(),
        }
    }
}

/// Samples one expert index from unnormalised `weights` using `rng`.
fn sample_weighted(weights: &[f64], rng: &mut TensorRng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = f64::from(rng.uniform_scalar()) * total;
    for (e, &w) in weights.iter().enumerate() {
        u -= w;
        if u < 0.0 {
            return e;
        }
    }
    weights.len() - 1
}

/// Samples `tokens` routing targets from `dist` at `step` (routing-only
/// mode, hot spot at expert 0). Deterministic under a fixed `rng`
/// state.
pub fn expert_targets(
    dist: &Distribution,
    step: usize,
    tokens: usize,
    num_experts: usize,
    rng: &mut TensorRng,
) -> Vec<usize> {
    let weights = dist.weights(step, num_experts, 0);
    (0..tokens)
        .map(|_| sample_weighted(&weights, rng))
        .collect()
}

/// A gate-aware workload generator.
///
/// [`WorkloadGen::calibrate`] probes the gate with random candidate
/// tokens and pools each candidate under the expert it routes to
/// (highest-weight assignment). [`WorkloadGen::next_batch`] then
/// samples target experts from a [`Distribution`] and emits pooled
/// candidate vectors, so feeding the batch through the *same* gate
/// reproduces the requested skew (up to gate noise on borderline
/// tokens).
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    embed_dim: usize,
    num_experts: usize,
    /// `pools[e]` — calibrated token vectors that routed to expert `e`.
    pools: Vec<Vec<Vec<f32>>>,
    /// The expert with the largest pool: the gate's natural attractor,
    /// used as the hot spot so workload skew aligns with gate bias.
    attractor: usize,
    rng: TensorRng,
    step: usize,
}

/// Candidate tokens probed per calibration round (per expert).
const PROBES_PER_EXPERT: usize = 16;
/// Calibration rounds before giving up on an unreachable expert.
const MAX_CALIBRATION_ROUNDS: usize = 64;

impl WorkloadGen {
    /// Calibrates a generator against `gate` by probing it with seeded
    /// random tokens until every expert has at least one pooled
    /// candidate.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::BadConfig`] when some expert attracts no
    /// probe within the round budget (a gate that never routes to an
    /// expert cannot be skewed toward it) and propagates gate routing
    /// failures.
    pub fn calibrate(gate: &dyn Gate, embed_dim: usize, seed: u64) -> Result<Self> {
        let num_experts = gate.num_experts();
        let mut rng = TensorRng::seed_from(seed);
        let mut pools: Vec<Vec<Vec<f32>>> = vec![Vec::new(); num_experts];
        for _ in 0..MAX_CALIBRATION_ROUNDS {
            let probes = num_experts * PROBES_PER_EXPERT;
            let input = rng.uniform(&[probes, embed_dim], -1.0, 1.0);
            // Capacity = probe count: token-choice gates drop nothing,
            // expert-choice gates can pick every token.
            let routing = gate.route(&input, probes, &mut rng)?;
            let mut best: Vec<Option<(f32, usize)>> = vec![None; probes];
            for a in routing.assignments() {
                let candidate = (a.weight, a.expert);
                if best[a.token].is_none_or(|(w, _)| a.weight > w) {
                    best[a.token] = Some(candidate);
                }
            }
            for (token, slot) in best.iter().enumerate() {
                if let Some((_, expert)) = slot {
                    let row0 = token * embed_dim;
                    pools[*expert].push(input.data()[row0..row0 + embed_dim].to_vec());
                }
            }
            if pools.iter().all(|p| !p.is_empty()) {
                break;
            }
        }
        if let Some(unreached) = pools.iter().position(Vec::is_empty) {
            return Err(MoeError::BadConfig {
                field: "workloadgen",
                reason: format!(
                    "gate {} never routed a probe to expert {unreached} in {MAX_CALIBRATION_ROUNDS} rounds",
                    gate.name()
                ),
            });
        }
        let attractor = pools
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.len())
            .map_or(0, |(e, _)| e);
        Ok(WorkloadGen {
            embed_dim,
            num_experts,
            pools,
            attractor,
            rng,
            step: 0,
        })
    }

    /// Emits the next `(tokens, embed_dim)` batch under `dist` and
    /// advances the step counter (drifting/bursty distributions key off
    /// it).
    ///
    /// # Errors
    ///
    /// Propagates tensor construction failures.
    pub fn next_batch(&mut self, dist: &Distribution, tokens: usize) -> Result<Tensor> {
        let weights = dist.weights(self.step, self.num_experts, self.attractor);
        let mut rows = Vec::with_capacity(tokens * self.embed_dim);
        for _ in 0..tokens {
            let expert = sample_weighted(&weights, &mut self.rng);
            let pool = &self.pools[expert];
            let pick = self.rng.index(pool.len());
            rows.extend_from_slice(&pool[pick]);
        }
        self.step += 1;
        Ok(Tensor::from_vec(rows, &[tokens, self.embed_dim])?)
    }

    /// Steps generated so far.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The gate's natural attractor: the expert with the largest
    /// calibrated pool.
    pub fn attractor(&self) -> usize {
        self.attractor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(targets: &[usize], num_experts: usize) -> Vec<usize> {
        let mut c = vec![0usize; num_experts];
        for &t in targets {
            c[t] += 1;
        }
        c
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let mut rng = TensorRng::seed_from(7);
        let t = expert_targets(&Distribution::Zipf { s: 1.5 }, 0, 4000, 8, &mut rng);
        let c = counts(&t, 8);
        assert!(c[0] > c[3] && c[3] > c[7], "{c:?}");
        assert!(c[0] > 4000 / 3, "hot expert should dominate: {c:?}");
    }

    #[test]
    fn seeded_targets_replay_exactly() {
        let dist = Distribution::Zipf { s: 1.2 };
        let mut a = TensorRng::seed_from(42);
        let mut b = TensorRng::seed_from(42);
        assert_eq!(
            expert_targets(&dist, 3, 256, 6, &mut a),
            expert_targets(&dist, 3, 256, 6, &mut b)
        );
    }

    #[test]
    fn drifting_rotates_the_hot_expert() {
        let dist = Distribution::Drifting { s: 2.5, period: 1 };
        let hot_at = |step: usize| {
            let w = dist.weights(step, 4, 0);
            w.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(hot_at(0), 0);
        assert_eq!(hot_at(1), 1);
        assert_eq!(hot_at(4), 0);
    }

    #[test]
    fn bursty_alternates_uniform_and_skewed() {
        let dist = Distribution::Bursty {
            quiet: 2,
            burst: 1,
            s: 2.0,
        };
        assert_eq!(dist.weights(0, 4, 0), vec![1.0; 4]);
        assert_eq!(dist.weights(1, 4, 0), vec![1.0; 4]);
        let burst = dist.weights(2, 4, 0);
        assert!(burst[0] > burst[1]);
    }

    #[test]
    fn adversarial_targets_one_expert_only() {
        let mut rng = TensorRng::seed_from(1);
        let t = expert_targets(&Distribution::Adversarial, 0, 100, 5, &mut rng);
        assert!(t.iter().all(|&e| e == 0));
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        assert_eq!(Distribution::Zipf { s: 0.0 }.weights(0, 3, 1), vec![1.0; 3]);
    }
}

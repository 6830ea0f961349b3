//! Differential evolution (rand/1/bin).
//!
//! The paper's gradient-partitioning step 2 (§5.3) optimises how the
//! *remaining* gradient bytes are split across MoE layers, and "simply
//! adopt[s] the differential evolution algorithm" because the solve runs
//! once before training. This is a faithful from-scratch implementation of
//! the classic Storn–Price rand/1/bin scheme with bound clipping.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{OptError, Result};

/// Configuration for [`DifferentialEvolution`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeConfig {
    /// Population size (must be ≥ 4 for rand/1 mutation).
    pub population: usize,
    /// Number of generations to evolve.
    pub generations: usize,
    /// Differential weight F ∈ (0, 2].
    pub weight: f64,
    /// Crossover probability CR ∈ [0, 1].
    pub crossover: f64,
    /// RNG seed, for deterministic experiments.
    pub seed: u64,
}

impl Default for DeConfig {
    fn default() -> Self {
        DeConfig {
            population: 30,
            generations: 200,
            weight: 0.7,
            crossover: 0.9,
            seed: 0x5eed,
        }
    }
}

/// Outcome of a differential-evolution run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at the best point.
    pub value: f64,
    /// Generations actually executed.
    pub generations: usize,
}

/// A bound-constrained differential-evolution minimiser.
///
/// ```
/// use numopt::{DeConfig, DifferentialEvolution};
///
/// // minimise the 2-D sphere function on [-5, 5]^2
/// let de = DifferentialEvolution::new(vec![(-5.0, 5.0); 2], DeConfig::default());
/// let result = de.minimize(|x| x.iter().map(|v| v * v).sum()).unwrap();
/// assert!(result.value < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct DifferentialEvolution {
    bounds: Vec<(f64, f64)>,
    config: DeConfig,
}

impl DifferentialEvolution {
    /// Creates a minimiser over the given per-dimension `(lo, hi)` bounds.
    pub fn new(bounds: Vec<(f64, f64)>, config: DeConfig) -> Self {
        DifferentialEvolution { bounds, config }
    }

    /// Runs the minimisation.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::BadInput`] for empty bounds, inverted bounds, or
    /// a population smaller than 4; [`OptError::NonFiniteObjective`] when
    /// the objective produces NaN on the initial population.
    pub fn minimize<F: Fn(&[f64]) -> f64>(&self, objective: F) -> Result<DeResult> {
        let dim = self.bounds.len();
        if dim == 0 {
            return Err(OptError::BadInput {
                reason: "no dimensions".into(),
            });
        }
        for &(lo, hi) in &self.bounds {
            if lo > hi || !lo.is_finite() || !hi.is_finite() {
                return Err(OptError::BadInterval { lo, hi });
            }
        }
        if self.config.population < 4 {
            return Err(OptError::BadInput {
                reason: "population must be at least 4".into(),
            });
        }
        let np = self.config.population;
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        let mut pop: Vec<Vec<f64>> = (0..np)
            .map(|_| {
                self.bounds
                    .iter()
                    .map(
                        |&(lo, hi)| {
                            if lo == hi {
                                lo
                            } else {
                                rng.gen_range(lo..hi)
                            }
                        },
                    )
                    .collect()
            })
            .collect();
        let mut fitness: Vec<f64> = Vec::with_capacity(np);
        for ind in &pop {
            let v = objective(ind);
            if v.is_nan() {
                return Err(OptError::NonFiniteObjective { at: ind[0] });
            }
            fitness.push(v);
        }

        let mut trial = vec![0.0; dim];
        for _gen in 0..self.config.generations {
            for i in 0..np {
                // pick three distinct indices != i
                let mut pick = || loop {
                    let j = rng.gen_range(0..np);
                    if j != i {
                        break j;
                    }
                };
                let (a, b, c) = (pick(), pick(), pick());
                let forced = rng.gen_range(0..dim);
                trial.copy_from_slice(&pop[i]);
                for d in 0..dim {
                    if d == forced || rng.gen_range(0.0..1.0) < self.config.crossover {
                        let v = pop[a][d] + self.config.weight * (pop[b][d] - pop[c][d]);
                        trial[d] = v.clamp(self.bounds[d].0, self.bounds[d].1);
                    }
                }
                let tv = objective(&trial);
                if tv.is_finite() && tv <= fitness[i] {
                    pop[i].copy_from_slice(&trial);
                    fitness[i] = tv;
                }
            }
        }

        let best = fitness
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Ok(DeResult {
            x: pop[best].clone(),
            value: fitness[best],
            generations: self.config.generations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_function_converges() {
        let de = DifferentialEvolution::new(vec![(-10.0, 10.0); 3], DeConfig::default());
        let r = de.minimize(|x| x.iter().map(|v| v * v).sum()).unwrap();
        assert!(r.value < 1e-2, "value {}", r.value);
        assert!(r.x.iter().all(|v| v.abs() < 0.2));
    }

    #[test]
    fn rosenbrock_2d_gets_close() {
        let de = DifferentialEvolution::new(
            vec![(-2.0, 2.0); 2],
            DeConfig {
                generations: 600,
                ..DeConfig::default()
            },
        );
        let r = de
            .minimize(|x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2))
            .unwrap();
        assert!(r.value < 1e-2, "value {}", r.value);
    }

    #[test]
    fn respects_bounds() {
        let de = DifferentialEvolution::new(vec![(2.0, 3.0)], DeConfig::default());
        // global min at 0 is outside the box; DE must stay in [2,3]
        let r = de.minimize(|x| x[0] * x[0]).unwrap();
        assert!((r.x[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = DeConfig {
            seed: 99,
            generations: 50,
            ..DeConfig::default()
        };
        let de = DifferentialEvolution::new(vec![(-1.0, 1.0); 2], cfg);
        let a = de.minimize(|x| x[0].powi(2) + x[1].powi(2)).unwrap();
        let b = de.minimize(|x| x[0].powi(2) + x[1].powi(2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_point_bounds() {
        // lo == hi pins the dimension
        let de = DifferentialEvolution::new(vec![(1.5, 1.5), (-1.0, 1.0)], DeConfig::default());
        let r = de.minimize(|x| (x[0] - 1.5).abs() + x[1].abs()).unwrap();
        assert_eq!(r.x[0], 1.5);
        assert!(r.value < 1e-3);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(DifferentialEvolution::new(vec![], DeConfig::default())
            .minimize(|_| 0.0)
            .is_err());
        assert!(
            DifferentialEvolution::new(vec![(1.0, 0.0)], DeConfig::default())
                .minimize(|_| 0.0)
                .is_err()
        );
        let small_pop = DeConfig {
            population: 3,
            ..DeConfig::default()
        };
        assert!(DifferentialEvolution::new(vec![(0.0, 1.0)], small_pop)
            .minimize(|_| 0.0)
            .is_err());
    }
}

//! Deterministic random initialisation.
//!
//! Every stochastic element of the reproduction — weight init, the GShard
//! gate's Gaussian noise, synthetic workload generation — draws from a
//! seeded [`TensorRng`], so all experiments regenerate bit-identically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{buf, Tensor};

/// A seeded random source for tensors.
///
/// ```
/// use tensor::TensorRng;
///
/// let mut a = TensorRng::seed_from(42);
/// let mut b = TensorRng::seed_from(42);
/// assert_eq!(a.uniform(&[4], -1.0, 1.0), b.uniform(&[4], -1.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    rng: StdRng,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        TensorRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Tensor of iid uniform samples in `[lo, hi)`.
    pub fn uniform(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        let n: usize = dims.iter().product();
        let mut data = buf::take(n);
        for v in &mut data {
            *v = self.rng.gen_range(lo..hi);
        }
        Tensor::from_vec(data, dims).expect("generated length matches shape")
    }

    /// Tensor of iid standard normal samples (Box–Muller).
    pub fn normal(&mut self, dims: &[usize], mean: f32, std: f32) -> Tensor {
        let n: usize = dims.iter().product();
        // recycled capacity, refilled by `push` (samples come in pairs)
        let mut data = buf::take(n);
        data.clear();
        while data.len() < n {
            let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = self.rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor::from_vec(data, dims).expect("generated length matches shape")
    }

    /// Xavier/Glorot-uniform initialisation for a `(fan_in, fan_out)`
    /// weight matrix.
    pub fn xavier(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.uniform(&[fan_in, fan_out], -bound, bound)
    }

    /// One standard normal sample.
    pub fn normal_scalar(&mut self) -> f32 {
        self.normal(&[1], 0.0, 1.0).data()[0]
    }

    /// A uniformly random index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics when `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        self.rng.gen_range(0..bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TensorRng::seed_from(7);
        let mut b = TensorRng::seed_from(7);
        assert_eq!(a.normal(&[16], 0.0, 1.0), b.normal(&[16], 0.0, 1.0));
        assert_eq!(a.index(100), b.index(100));
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = TensorRng::seed_from(1);
        let mut b = TensorRng::seed_from(2);
        assert_ne!(a.uniform(&[8], 0.0, 1.0), b.uniform(&[8], 0.0, 1.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = TensorRng::seed_from(3);
        let t = rng.uniform(&[1000], -0.5, 0.5);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = TensorRng::seed_from(11);
        let t = rng.normal(&[20000], 2.0, 3.0);
        let mean = t.mean();
        let var = t.map(|v| (v - mean).powi(2)).mean();
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn xavier_bound() {
        let mut rng = TensorRng::seed_from(5);
        let w = rng.xavier(100, 44);
        let bound = (6.0f32 / 144.0).sqrt();
        assert_eq!(w.dims(), &[100, 44]);
        assert!(w.data().iter().all(|&v| v.abs() <= bound));
    }
}

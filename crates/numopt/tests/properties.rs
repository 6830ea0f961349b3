//! Property-based tests for the numerical routines.

use numopt::{DeConfig, DifferentialEvolution, LinearFit};
use proptest::prelude::*;

proptest! {
    #[test]
    fn linear_fit_recovers_parameters(
        intercept in -100.0f64..100.0,
        slope in -10.0f64..10.0,
        n in 3usize..40,
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| intercept + slope * x).collect();
        let f = LinearFit::fit(&xs, &ys).unwrap();
        prop_assert!((f.intercept - intercept).abs() < 1e-6 * (1.0 + intercept.abs()));
        prop_assert!((f.slope - slope).abs() < 1e-8 * (1.0 + slope.abs()));
        prop_assert!(f.r_squared > 1.0 - 1e-9);
    }

    #[test]
    fn linear_fit_r2_at_most_one(seed in any::<u64>(), n in 3usize..30) {
        // arbitrary noisy data: r² must stay in (-inf, 1]
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let xs: Vec<f64> = (0..n).map(|i| i as f64 + next()).collect();
        let ys: Vec<f64> = (0..n).map(|_| next() * 100.0).collect();
        let f = LinearFit::fit(&xs, &ys).unwrap();
        prop_assert!(f.r_squared <= 1.0 + 1e-12);
    }

    #[test]
    fn de_stays_in_bounds(lo in -5.0f64..0.0, width in 0.1f64..5.0, seed in any::<u64>()) {
        let hi = lo + width;
        let cfg = DeConfig { seed, generations: 20, population: 10, ..DeConfig::default() };
        let de = DifferentialEvolution::new(vec![(lo, hi); 2], cfg);
        let r = de.minimize(|x| x.iter().sum()).unwrap();
        for v in &r.x {
            prop_assert!(*v >= lo - 1e-12 && *v <= hi + 1e-12);
        }
    }

    #[test]
    fn de_improves_over_random_start(seed in any::<u64>()) {
        // after evolution, best value must be <= best of a pure random
        // population with the same budget-0 config
        let cfg0 = DeConfig { seed, generations: 0, ..DeConfig::default() };
        let cfg = DeConfig { seed, generations: 100, ..DeConfig::default() };
        let obj = |x: &[f64]| (x[0] - 0.7).powi(2) + (x[1] + 0.3).powi(2);
        let start = DifferentialEvolution::new(vec![(-2.0, 2.0); 2], cfg0)
            .minimize(obj)
            .unwrap();
        let evolved = DifferentialEvolution::new(vec![(-2.0, 2.0); 2], cfg)
            .minimize(obj)
            .unwrap();
        prop_assert!(evolved.value <= start.value + 1e-12);
    }
}

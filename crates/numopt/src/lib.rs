//! Numerical optimisation substrate for FSMoE-RS.
//!
//! The paper leans on two numeric tools, both provided here from scratch:
//!
//! * **least-squares linear fitting** (`y = α + β·x`) for the online
//!   profiler's performance models (§4.1, Fig. 5), including the r² the
//!   paper reports;
//! * **differential evolution** (rand/1/bin) for the gradient-partitioning
//!   step 2 (§5.3), which scipy's `differential_evolution` solves in the
//!   original.
//!
//! Algorithm 1's SLSQP solve needs neither: the pipeline degree is an
//! integer in `1..=64`, so `scheduler::find_optimal_pipeline_degree`
//! scans every degree exactly.
//!
//! # Example
//!
//! ```
//! use numopt::LinearFit;
//!
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! let ys = [3.1, 5.0, 6.9, 9.0];
//! let fit = LinearFit::fit(&xs, &ys).unwrap();
//! assert!((fit.slope - 2.0).abs() < 0.1);
//! assert!(fit.r_squared > 0.99);
//! ```

mod de;
mod error;
mod linfit;

pub use de::{DeConfig, DeResult, DifferentialEvolution};
pub use error::OptError;
pub use linfit::LinearFit;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OptError>;

//! # mmph — Making Many People Happy
//!
//! Facade crate re-exporting the whole workspace: a Rust implementation
//! of Wang, Guo & Wu, *"Making Many People Happy: Greedy Solutions for
//! Content Distribution"* (ICPP 2011).
//!
//! A base station can broadcast `k` content items to `n` users whose
//! interests are points in an m-dimensional space; a broadcast at center
//! `c` with interest radius `r` rewards user `i` with
//! `w_i · (1 − d(c, x_i)/r)` when `d(c, x_i) ≤ r`, capped at `w_i`
//! across broadcasts. This crate provides the problem model, the paper's
//! three local greedy algorithms, the round-based heuristic, exhaustive
//! baselines, theoretical approximation bounds, simulation tooling and
//! SVG figure rendering.
//!
//! ## Quick start
//!
//! ```
//! use mmph::prelude::*;
//!
//! // 40 users in the paper's 4×4 interest space, weights 1..=5.
//! let scenario = Scenario::paper_2d(40, 4, 1.0, Norm::L2, WeightScheme::UniformInt { lo: 1, hi: 5 }, 7);
//! let instance = scenario.generate_2d().unwrap();
//!
//! // The paper's best performer: the simple local greedy (Algorithm 3).
//! let solution = SimpleGreedy::new().solve(&instance).unwrap();
//! assert_eq!(solution.centers.len(), 4);
//! assert!(solution.total_reward > 0.0);
//! ```
//!
//! See the `examples/` directory for full scenarios and `mmph-bench`'s
//! `repro` binary for the paper's complete evaluation.

pub use mmph_core as core;
pub use mmph_geom as geom;
pub use mmph_plot as plot;
pub use mmph_sim as sim;

/// Most-used items in one import.
pub mod prelude {
    pub use mmph_core::bounds::{approx_local, approx_round_based, ONE_MINUS_INV_E};
    pub use mmph_core::budget::{DegradeReason, SolveBudget, SolveOutcome, SolveStatus};
    pub use mmph_core::incremental::{IncrementalInstance, ResolveConfig, ResolveOutcome};
    pub use mmph_core::instance::{Delta, Instance, InstanceBuilder};
    pub use mmph_core::oracle::OracleStrategy;
    pub use mmph_core::reward::{coverage_reward, objective, psi, Residuals};
    pub use mmph_core::solver::{Solution, Solver};
    pub use mmph_core::solvers::{
        AdaptiveSolver, BeamSearch, ComplexGreedy, Exhaustive, LocalGreedy, LocalSearch,
        RoundBased, SeededGreedy, SimpleGreedy, StochasticGreedy,
    };
    pub use mmph_geom::{Norm, Point, Point2, Point3};
    pub use mmph_sim::churn::ChurnPlan;
    pub use mmph_sim::gen::WeightScheme;
    pub use mmph_sim::scenario::Scenario;
}

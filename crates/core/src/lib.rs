//! # mmph-core — the paper's contribution
//!
//! Problem model and solvers for the optimal content distribution problem
//! of Wang, Guo & Wu, *"Making Many People Happy: Greedy Solutions for
//! Content Distribution"* (ICPP 2011).
//!
//! The problem (paper §III–IV): given `n` user interest points `x_i` with
//! maximum rewards `w_i` in `R^D`, choose `k` broadcast centers
//! `C = {c_1..c_k}` of interest radius `r` maximizing
//!
//! ```text
//! f(C) = Σ_i  w_i · min( Σ_j [1 − d(c_j, x_i)/r]_+ , 1 )
//! ```
//!
//! `f` is monotone submodular (paper Lemma 0b; verified empirically in
//! [`submodular`]) and maximizing it under `|C| = k` is NP-hard.
//!
//! Solvers provided (paper §IV–V):
//!
//! | module | paper | bound |
//! |---|---|---|
//! | [`solvers::RoundBased`] | Algorithm 1 | `1−(1−1/k)^k` (Thm 1) |
//! | [`solvers::LocalGreedy`] | Algorithm 2 ("greedy 2") | `1−(1−1/n)^k` (Thm 2) |
//! | [`solvers::SimpleGreedy`] | Algorithm 3 ("greedy 3") | `1−(1−1/n)^k` |
//! | [`solvers::ComplexGreedy`] | Algorithm 4 ("greedy 4") | open |
//! | [`solvers::Exhaustive`] | the evaluation's "exhaustive reward" | exact over candidates |
//! | [`solvers::LocalGreedy`] + [`OracleStrategy::Lazy`] | — (CELF extension) | ≡ Algorithm 2 |
//! | [`solvers::StochasticGreedy`] | — (extension) | `1−1/e−ε` in expectation |
//!
//! All solvers share the residual-satisfaction state machine
//! [`reward::Residuals`] implementing the `y_i^j` updates of the paper's
//! round framework, so their per-round gains telescope exactly to `f(C)`.

// Solver hot loops index several parallel arrays (points, weights,
// residuals) by a shared index; that is clearer than zipped iterators
// here and compiles identically.
#![allow(clippy::needless_range_loop)]

pub mod analysis;
pub mod batch;
pub mod bounds;
pub mod budget;
pub mod cancel;
pub mod cells;
pub mod coreset;
pub mod incremental;
pub mod instance;
pub mod kernel;
pub mod oracle;
pub mod reward;
pub mod scratch;
pub mod solver;
pub mod solvers;
pub mod submodular;

pub use batch::{
    recycle, solve_rounds, solve_rounds_within, verify_reports, BatchReport, BatchResult,
    BatchRunner,
};
pub use budget::{DegradeReason, SolveBudget, SolveOutcome, SolveStatus};
pub use cancel::CancelToken;
pub use cells::GridIndex;
pub use coreset::{
    build_coreset, solve_coreset, streaming_objective, Coreset, CoresetConfig, CoresetReport,
    Pipeline, DEFAULT_CORESET_CELLS,
};
pub use incremental::{
    IncrementalInstance, ResolveConfig, ResolveOutcome, DEFAULT_CHURN_THRESHOLD,
};
pub use instance::{Delta, Instance, InstanceBuilder};
pub use kernel::{Kernel, PreparedKernel};
pub use oracle::{GainOracle, LazyScratch, OracleStrategy, Scored};
pub use reward::{
    coverage_reward, objective, psi, CsrScratch, EngineKind, Residuals, RewardEngine, SparseStats,
    DEFAULT_SPARSE_CAP_BYTES, PARALLEL_BUILD_MIN_POINTS, SPARSE_LANES,
};
pub use scratch::SolveScratch;
pub use solver::{Solution, Solver};

/// Runtime failures inside a solver: conditions a malformed-but-validated
/// instance can trigger mid-solve. Typed so callers can degrade instead
/// of unwinding.
#[derive(Debug, Clone, PartialEq, thiserror::Error)]
pub enum SolverError {
    /// A geometric construction (enclosing ball, projection center)
    /// collapsed — e.g. an empty grown set.
    #[error("solver `{solver}`: degenerate geometry: {detail}")]
    DegenerateGeometry {
        /// Solver name.
        solver: &'static str,
        /// What collapsed.
        detail: String,
    },
    /// An argmax ran over an empty candidate pool.
    #[error("solver `{solver}`: no candidates to select from: {detail}")]
    NoCandidates {
        /// Solver name.
        solver: &'static str,
        /// Which pool was empty.
        detail: String,
    },
    /// A sampling distribution could not be constructed from the
    /// instance's parameters.
    #[error("solver `{solver}`: sampling distribution rejected: {detail}")]
    BadDistribution {
        /// Solver name.
        solver: &'static str,
        /// The distribution error.
        detail: String,
    },
}

/// Errors produced by instance construction and solvers.
#[derive(Debug, Clone, PartialEq, thiserror::Error)]
pub enum CoreError {
    /// The instance failed validation.
    #[error("invalid instance: {0}")]
    InvalidInstance(String),
    /// A solver restricted to point-located candidates needs `k <= n`.
    #[error("solver `{solver}` requires k <= n (k = {k}, n = {n})")]
    KTooLarge {
        /// Solver name.
        solver: &'static str,
        /// Requested number of centers.
        k: usize,
        /// Number of points.
        n: usize,
    },
    /// A geometry error surfaced from `mmph-geom`.
    #[error(transparent)]
    Geom(#[from] mmph_geom::GeomError),
    /// A solver parameter is out of range.
    #[error("invalid solver configuration: {0}")]
    InvalidConfig(String),
    /// A solver hit a runtime failure mid-solve.
    #[error(transparent)]
    Solver(#[from] SolverError),
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

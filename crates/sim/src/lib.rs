//! # mmph-sim — simulation substrate
//!
//! Trace-driven evaluation tooling for the `mmph` workspace: everything
//! the paper's §VI simulation needs that is not the algorithms
//! themselves.
//!
//! * [`rng`] — deterministic seed fan-out so every experiment is
//!   reproducible from a single `u64`.
//! * [`gen`] — synthetic workload generators: the paper's uniform
//!   placements in `[0,4]^2` / `[0,4]^3` with same/different integer
//!   weights, plus Gaussian clusters, grids, rings and Zipf weights as
//!   extensions.
//! * [`churn`] — seeded churn plans: reproducible insert/remove/move
//!   delta batches for incremental re-solving (`--churn`, the
//!   `churn_floor` rounds, the serve churn tests).
//! * [`scenario`] — serializable experiment configurations, including
//!   the paper's full parameter sweep.
//! * [`stream`] — request streams for batched solving: turns a
//!   `--scenarios` argument (directory, file, or inline spec) into an
//!   ordered instance stream for `mmph batch`.
//! * [`broadcast`] — a time-slotted broadcast-system simulation around
//!   the solvers: per period the base station broadcasts its `k` chosen
//!   contents; users accumulate satisfaction, may churn in/out, and
//!   their interests may drift. Exercises the paper's remark that larger
//!   `k` raises per-period satisfaction but lowers service frequency.
//! * [`metrics`] — satisfaction statistics (means, quantiles, Jain
//!   fairness, satisfied-user counts).
//! * [`trace`] — record/replay of generated instances so figures can be
//!   regenerated from pinned inputs.

pub mod broadcast;
pub mod churn;
pub mod gen;
pub mod metrics;
pub mod rng;
pub mod scenario;
pub mod stream;
pub mod trace;

pub use churn::ChurnPlan;
pub use gen::{radius_for_degree_2d, uniform_degree_instance_2d, SpaceSpec, WeightScheme};
pub use scenario::Scenario;
pub use stream::{
    instances_from_arg, parse_scenario_line, parse_spec, scenarios_from_arg, validate_scenario,
    StreamSpec,
};

/// Errors from simulation configuration and I/O.
#[derive(Debug, thiserror::Error)]
pub enum SimError {
    /// Invalid scenario or generator configuration.
    #[error("invalid configuration: {0}")]
    InvalidConfig(String),
    /// A malformed, truncated, or semantically invalid scenario line
    /// (NDJSON service input or a `--scenarios` file entry).
    #[error("bad scenario: {0}")]
    BadScenario(String),
    /// Propagated core-model error.
    #[error(transparent)]
    Core(#[from] mmph_core::CoreError),
    /// Trace (de)serialization failure.
    #[error("trace serialization: {0}")]
    Serde(#[from] serde_json::Error),
    /// Trace file I/O failure.
    #[error("trace io: {0}")]
    Io(#[from] std::io::Error),
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SimError>;

//! # mmph-geom — geometry substrate for the `mmph` workspace
//!
//! Computational-geometry building blocks needed by the content-distribution
//! solvers of Wang, Guo & Wu, *"Making Many People Happy: Greedy Solutions
//! for Content Distribution"* (ICPP 2011):
//!
//! * [`Point`] — fixed-dimension points in `R^D` (`D` is a const generic, so
//!   2-D, 3-D and general m-D instances share one well-optimized code path).
//! * [`Norm`] — the general p-norm family of the paper (§III-B): `L1`
//!   (taxicab), `L2` (Euclidean), `LInf` (Chebyshev) and arbitrary `Lp(p)`.
//! * [`welzl`] — exact smallest enclosing circle / ball (Welzl's randomized
//!   expected-linear algorithm), the "smallest circle problem" the paper's
//!   complex local greedy relies on (§II-C, §V-B).
//! * [`l1ball`] — minimax centers under the 1-norm: the paper's
//!   per-dimension projection center (§V-B) and an exact 2-D L1 center via
//!   rotation duality.
//! * [`aabb`] — axis-aligned bounding boxes and Chebyshev centers.
//! * [`hull`] — 2-D convex hulls (plot overlays, pre-filtering).
//!
//! The fixed-radius index every reward engine queries lives in
//! `mmph-core` (`mmph_core::GridIndex`), beside its only users.
//!
//! All floating point here is plain `f64`; inputs containing NaN are
//! rejected at construction time by the higher-level crates, and the
//! algorithms in this crate document their behaviour for degenerate inputs
//! (duplicate points, collinear points, zero radius).

// Numeric kernels in this crate iterate several fixed-size arrays by a
// shared index; iterator-zip rewrites obscure them without changing
// codegen.
#![allow(clippy::needless_range_loop)]

pub mod aabb;
pub mod hull;
pub mod l1ball;
pub mod norm;
pub mod point;
pub mod welzl;

pub use aabb::Aabb;
pub use norm::Norm;
pub use point::{Point, Point2, Point3};
pub use welzl::{min_enclosing_ball, Ball};

/// Error type for geometry construction and queries.
#[derive(Debug, Clone, PartialEq, thiserror::Error)]
pub enum GeomError {
    /// A coordinate was NaN or infinite where a finite value is required.
    #[error("non-finite coordinate at index {index}: {value}")]
    NonFinite {
        /// Flat index of the offending coordinate.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A dimension mismatch between a runtime-sized input and `D`.
    #[error("expected {expected} coordinates, got {got}")]
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Provided dimensionality.
        got: usize,
    },
    /// An empty point set was supplied to an operation that requires at
    /// least one point.
    #[error("operation requires a non-empty point set")]
    EmptyPointSet,
    /// An invalid p-norm exponent (`p < 1` does not define a norm).
    #[error("invalid p-norm exponent {0}; p must be >= 1")]
    InvalidExponent(f64),
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, GeomError>;

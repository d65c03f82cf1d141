//! Reusable per-solve scratch arena.
//!
//! A [`SolveScratch`] owns every buffer a greedy solve needs to touch:
//! the residual-satisfaction state, the CELF heap storage, the CSR
//! build scratch, and the per-round pick/gain vectors. Solvers that go
//! through [`crate::batch::solve_rounds`] borrow these buffers instead
//! of allocating, so after the first (warmup) solve on a given problem
//! size the steady-state solve path performs **zero heap allocations**
//! — a property asserted by the `zero_alloc` integration test with a
//! counting global allocator.
//!
//! Ownership rules (see DESIGN.md "Memory & allocation model"):
//!
//! - The scratch owns buffers *between* solves; during a solve, pieces
//!   are moved into the engine/oracle (`CsrScratch` into
//!   [`crate::RewardEngine::sparse_with_scratch`], [`LazyScratch`]
//!   into [`crate::GainOracle::with_lazy_scratch`]) and must be moved
//!   back via [`crate::batch::recycle`] when the engine is dropped.
//! - Buffers only ever grow. Shrinking is the caller's job (drop the
//!   scratch); a worker serving a mixed stream keeps the high-water
//!   capacity of the largest instance it has seen.
//! - A *dirty* scratch (one that just finished an unrelated solve) is
//!   observationally identical to a fresh one: every consumer clears
//!   or overwrites the region it reads. The `proptest_scratch` suite
//!   checks bit-identical selections for fresh vs reused scratches.

use crate::oracle::LazyScratch;
use crate::reward::{CsrScratch, Residuals};

/// Arena of reusable per-solve buffers. One per worker; not `Sync` —
/// each thread of a batch run owns its own.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Residual satisfaction state (`y_i`, touched versions).
    pub(crate) residuals: Residuals,
    /// CSR build scratch (the flat blocked-CSR arrays — lane-padded
    /// entry streams and layout vectors — between solves).
    pub(crate) csr: CsrScratch,
    /// CELF heap storage for the lazy oracle strategy.
    pub(crate) lazy: LazyScratch,
    /// Candidate-gain vector (used by `score_all_into` consumers).
    pub(crate) gains: Vec<f64>,
    /// Selected candidate indices, one per round.
    pub(crate) picks: Vec<usize>,
    /// Marginal gain per round.
    pub(crate) round_gains: Vec<f64>,
    /// Per-point assignment buffer for `Residuals::assignments_into`.
    pub(crate) assignments: Vec<f64>,
}

impl SolveScratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena pre-grown for instances of `n` points and `k` rounds,
    /// so even the first solve avoids mid-solve growth (the CSR
    /// adjacency arrays still grow on first build — their size depends
    /// on the realized neighbor degree, not just `n`).
    pub fn with_capacity(n: usize, k: usize) -> Self {
        let mut s = Self::new();
        s.residuals.reset(n);
        s.gains.reserve(n);
        s.picks.reserve(k);
        s.round_gains.reserve(k);
        s.assignments.reserve(n);
        s
    }

    /// Selected candidate indices from the most recent
    /// [`crate::batch::solve_rounds`] call.
    pub fn picks(&self) -> &[usize] {
        &self.picks
    }

    /// Marginal gain per round from the most recent solve.
    pub fn round_gains(&self) -> &[f64] {
        &self.round_gains
    }

    /// Residual state left by the most recent solve.
    pub fn residuals(&self) -> &Residuals {
        &self.residuals
    }

    /// Mutable access to the CSR build scratch (for callers driving
    /// [`crate::RewardEngine::sparse_with_scratch`] directly).
    pub fn csr_mut(&mut self) -> &mut CsrScratch {
        &mut self.csr
    }

    /// Moves the CELF heap storage out (hand to
    /// [`crate::GainOracle::with_lazy_scratch`]); leave it back with
    /// [`crate::batch::recycle`].
    pub fn take_lazy(&mut self) -> LazyScratch {
        std::mem::take(&mut self.lazy)
    }

    /// Returns CELF heap storage taken with [`Self::take_lazy`].
    pub fn put_lazy(&mut self, lazy: LazyScratch) {
        self.lazy = lazy;
    }

    /// Approximate bytes retained across solves (diagnostics).
    pub fn retained_bytes(&self) -> usize {
        self.csr.retained_bytes()
            + self.lazy.retained_bytes()
            + (self.gains.capacity() + self.assignments.capacity() + self.round_gains.capacity())
                * std::mem::size_of::<f64>()
            + self.picks.capacity() * std::mem::size_of::<usize>()
            + self.residuals.len() * (std::mem::size_of::<f64>() + std::mem::size_of::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_capacity_pregrows() {
        let s = SolveScratch::with_capacity(100, 8);
        assert!(s.gains.capacity() >= 100);
        assert!(s.picks.capacity() >= 8);
        assert!(s.round_gains.capacity() >= 8);
        assert!(s.assignments.capacity() >= 100);
        assert_eq!(s.residuals.len(), 100);
    }

    #[test]
    fn lazy_roundtrip() {
        let mut s = SolveScratch::new();
        let lazy = s.take_lazy();
        assert_eq!(lazy.retained_capacity(), 0);
        s.put_lazy(lazy);
    }
}

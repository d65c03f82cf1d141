//! The candidate-scoring hot path, unified behind one oracle layer.
//!
//! Every greedy solver in this crate repeatedly answers the same
//! question: *which candidate center has the largest coverage reward
//! against the current residuals?* [`GainOracle`] owns that question.
//! Solvers ask it through a small API ([`GainOracle::best_candidate`],
//! [`GainOracle::score_all`], [`GainOracle::gain`], …) and stay
//! agnostic to *how* the answer is produced:
//!
//! * [`OracleStrategy::Seq`] — the reference implementation: a linear
//!   scan over candidates `0..n`, keeping the first maximum (strict
//!   `>`), i.e. the smallest index among ties.
//! * [`OracleStrategy::Par`] — scores all candidates with rayon and
//!   reduces sequentially in index order. Because the parallel map is
//!   order-preserving and the reduction is the same strict-`>` scan,
//!   the result is bit-identical to `Seq`.
//! * [`OracleStrategy::Lazy`] — CELF lazy evaluation (Leskovec et al.,
//!   KDD '07) on a max-heap of cached gains. Residuals only shrink
//!   between rounds, so a cached gain is an upper bound on the current
//!   gain; a popped entry whose cached gain is up to date must be the
//!   true argmax. The heap breaks ties toward the smaller index, so
//!   the selected sequence is identical to `Seq` — only the number of
//!   reward evaluations changes.

use std::collections::BinaryHeap;
use std::sync::Mutex;

use mmph_geom::Point;
use rayon::prelude::*;

use crate::cancel::CancelToken;
use crate::instance::Instance;
use crate::reward::{objective, EngineKind, Residuals, RewardEngine, SparseStats};

/// How [`GainOracle`] finds the best candidate each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleStrategy {
    /// Sequential reference scan (first maximum wins).
    #[default]
    Seq,
    /// Rayon-parallel batched scoring, sequential index-order reduce.
    Par,
    /// CELF lazy priority queue over cached upper-bound gains.
    Lazy,
}

impl std::fmt::Display for OracleStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OracleStrategy::Seq => "seq",
            OracleStrategy::Par => "par",
            OracleStrategy::Lazy => "lazy",
        })
    }
}

impl std::str::FromStr for OracleStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "seq" => Ok(OracleStrategy::Seq),
            "par" => Ok(OracleStrategy::Par),
            "lazy" => Ok(OracleStrategy::Lazy),
            other => Err(format!(
                "unknown oracle strategy `{other}` (expected seq|par|lazy)"
            )),
        }
    }
}

/// A candidate index together with its coverage-reward gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// Index into the instance's point set.
    pub index: usize,
    /// Coverage reward of that point against the queried residuals.
    pub gain: f64,
}

/// CELF heap entry: a cached gain for candidate `idx`, valid as an
/// upper bound for any residual version `>= version`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    gain: f64,
    idx: usize,
    version: u64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on gain; at equal gain the *smaller* index ranks
        // higher so lazy selection matches the sequential first-max scan.
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

#[derive(Debug, Default)]
struct LazyState {
    heap: BinaryHeap<Entry>,
    primed: bool,
}

/// Detached storage of a CELF lazy heap: lets a warm solve pipeline
/// carry the heap's allocation from one [`GainOracle`] to the next
/// instead of re-allocating per solve. Obtain one with
/// [`GainOracle::take_lazy_scratch`], re-install it with
/// [`GainOracle::with_lazy_scratch`]; the contained entries are always
/// discarded on install (only the capacity is reused), so a "dirty"
/// scratch can never leak stale gains into a new solve.
#[derive(Debug, Default)]
pub struct LazyScratch {
    entries: Vec<Entry>,
}

impl LazyScratch {
    /// Empty scratch; the heap grows on the first lazy solve and its
    /// capacity is retained across solves from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of heap slots currently retained.
    pub fn retained_capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Bytes those slots hold.
    pub fn retained_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
    }
}

/// Candidate-scoring oracle shared by all greedy solvers.
///
/// Wraps a [`RewardEngine`] (which owns the per-evaluation strategy —
/// linear scan or tree-accelerated radius query) and adds the
/// per-*round* strategy: how the argmax over candidates is organized.
///
/// ```
/// use mmph_core::{GainOracle, InstanceBuilder, OracleStrategy, Residuals};
///
/// let inst = InstanceBuilder::new()
///     .point([0.0, 0.0], 1.0)
///     .point([1.0, 0.0], 3.0)
///     .radius(0.5)
///     .k(1)
///     .build()
///     .unwrap();
/// let oracle = GainOracle::new(&inst, OracleStrategy::Seq);
/// let res = Residuals::new(inst.n());
/// let best = oracle.best_candidate(&res);
/// assert_eq!(best.index, 1); // the heavier point wins
/// assert_eq!(best.gain, 3.0);
/// ```
#[derive(Debug)]
pub struct GainOracle<'a, const D: usize> {
    engine: RewardEngine<'a, D>,
    strategy: OracleStrategy,
    /// Dirty-region revalidation of stale CELF entries (sparse engine
    /// only). On by default; `proptest_sparse` turns it off to pin that
    /// it only ever saves evaluations.
    dirty_region: bool,
    /// Stale heap entries revalidated without charging an evaluation.
    dirty_skips: std::sync::atomic::AtomicU64,
    /// Cooperative cancellation: checked (and counted) on every scoring
    /// call. Post-trip calls return exact `0.0` without charging an
    /// evaluation — gains are non-negative, so a `0.0` can never win a
    /// strict-`>` argmax, and the round loops re-check the token after
    /// each argmax and discard the poisoned round.
    cancel: Option<CancelToken>,
    // Interior mutability for the CELF heap; a Mutex (not RefCell)
    // keeps the oracle Sync so `Par` solvers can share it.
    lazy: Mutex<LazyState>,
}

impl<'a, const D: usize> GainOracle<'a, D> {
    /// Oracle over a linear-scan [`RewardEngine`].
    pub fn new(inst: &'a Instance<D>, strategy: OracleStrategy) -> Self {
        Self::from_engine(RewardEngine::scan(inst), strategy)
    }

    /// Oracle over the engine selected by `kind` (see
    /// [`RewardEngine::with_kind`]).
    pub fn with_engine(inst: &'a Instance<D>, kind: EngineKind, strategy: OracleStrategy) -> Self {
        Self::from_engine(RewardEngine::with_kind(inst, kind), strategy)
    }

    /// Oracle over an explicitly-constructed engine.
    pub fn from_engine(engine: RewardEngine<'a, D>, strategy: OracleStrategy) -> Self {
        GainOracle {
            engine,
            strategy,
            dirty_region: true,
            dirty_skips: std::sync::atomic::AtomicU64::new(0),
            cancel: None,
            lazy: Mutex::new(LazyState::default()),
        }
    }

    /// Attaches (or clears) a cancellation token on the eval-check
    /// path. Builder form of [`GainOracle::set_cancel`].
    pub fn with_cancel(mut self, token: Option<CancelToken>) -> Self {
        self.cancel = token;
        self
    }

    /// Attaches (or clears) a cancellation token. A reused oracle
    /// serves requests from different connections, so the token is
    /// swapped per request.
    pub fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Counted cancellation check from the eval path (see
    /// [`CancelToken::check`]); `false` when no token is attached.
    #[inline]
    fn cancel_tripped(&self) -> bool {
        match &self.cancel {
            Some(token) => token.check(),
            None => false,
        }
    }

    /// Enables or disables dirty-region revalidation of stale CELF
    /// entries (only effective on the sparse engine).
    pub fn with_dirty_region(mut self, enabled: bool) -> Self {
        self.dirty_region = enabled;
        self
    }

    /// Seeds the CELF heap with detached storage from an earlier solve
    /// ([`LazyScratch`]): its entries are dropped, its capacity reused.
    /// Purely an allocation optimization — selections are unaffected.
    pub fn with_lazy_scratch(self, scratch: LazyScratch) -> Self {
        {
            let mut entries = scratch.entries;
            entries.clear();
            let mut state = self.lazy.lock().unwrap_or_else(|p| p.into_inner());
            state.heap = BinaryHeap::from(entries);
            state.primed = false;
        }
        self
    }

    /// Detaches the CELF heap storage for reuse by a later oracle. The
    /// oracle's lazy state is left unprimed (the next lazy argmax
    /// re-primes from the residuals it is given).
    pub fn take_lazy_scratch(&self) -> LazyScratch {
        let mut state = self.lazy.lock().unwrap_or_else(|p| p.into_inner());
        state.primed = false;
        LazyScratch {
            entries: std::mem::take(&mut state.heap).into_vec(),
        }
    }

    /// Forgets all cached CELF gains (keeping the heap's storage) so
    /// the oracle can be reused for a fresh solve over the *same*
    /// engine — the warm-batch path for repeated solves of one
    /// instance. Without this, cached gains and dirty-region versions
    /// from the previous solve would be read against the new solve's
    /// reset residual versions and corrupt the selection.
    pub fn reset_lazy(&self) {
        let mut state = self.lazy.lock().unwrap_or_else(|p| p.into_inner());
        state.primed = false;
    }

    /// The instance this oracle scores against.
    pub fn instance(&self) -> &Instance<D> {
        self.engine.instance()
    }

    /// Dissolves the oracle back into its engine, so a warm pipeline
    /// can [`RewardEngine::reclaim`] the engine's CSR buffers.
    pub fn into_engine(self) -> RewardEngine<'a, D> {
        self.engine
    }

    /// Borrows the underlying engine (e.g. for its O(degree)
    /// [`RewardEngine::apply_candidate`] commit path).
    pub fn engine(&self) -> &RewardEngine<'a, D> {
        &self.engine
    }

    /// The configured argmax strategy.
    pub fn strategy(&self) -> OracleStrategy {
        self.strategy
    }

    /// Switches the argmax strategy in place. The CELF heap is reset
    /// when leaving/entering [`OracleStrategy::Lazy`] territory — a
    /// stale heap must never survive a strategy change.
    pub fn set_strategy(&mut self, strategy: OracleStrategy) {
        if self.strategy != strategy {
            self.strategy = strategy;
            self.reset_lazy();
        }
    }

    /// Number of reward evaluations charged so far (candidate gains,
    /// arbitrary-point gains, and whole-objective evaluations alike).
    pub fn evals(&self) -> u64 {
        self.engine.evals()
    }

    /// Number of stale CELF entries revalidated for free by the
    /// dirty-region test (sparse engine only; 0 otherwise).
    pub fn dirty_skips(&self) -> u64 {
        self.dirty_skips.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The engine backend actually in use.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// CSR build statistics when the sparse engine is active.
    pub fn sparse_stats(&self) -> Option<SparseStats> {
        self.engine.sparse_stats()
    }

    /// Coverage reward of an arbitrary point (not necessarily a
    /// candidate) against `residuals`. Charges one evaluation (none
    /// once the cancel token has tripped: abandoned work is free).
    pub fn gain(&self, c: &Point<D>, residuals: &Residuals) -> f64 {
        if self.cancel_tripped() {
            return 0.0;
        }
        self.engine.gain(c, residuals)
    }

    /// Exact objective `f(C)` of a full center set. Charges one
    /// evaluation, so solvers that score whole solutions (beam search,
    /// local search) share the same work metric as the greedy scans.
    pub fn objective(&self, centers: &[Point<D>]) -> f64 {
        if self.cancel_tripped() {
            return 0.0;
        }
        self.engine.note_eval();
        objective(self.instance(), centers)
    }

    /// Gain of candidate `i`. Every call after the cancel token trips
    /// returns exact 0.0 without charging an evaluation.
    fn candidate_gain(&self, i: usize, residuals: &Residuals) -> f64 {
        if self.cancel_tripped() {
            return 0.0;
        }
        self.engine.candidate_gain(i, residuals)
    }

    /// Scores every candidate, returning `gains[i]` = coverage reward
    /// of point `i` against `residuals`.
    ///
    /// `Seq` and `Lazy` score eagerly in index order; `Par` fans the
    /// scoring out over rayon (the parallel map is order-preserving, so
    /// the resulting vector is identical).
    pub fn score_all(&self, residuals: &Residuals) -> Vec<f64> {
        let mut gains = Vec::new();
        self.score_all_into(residuals, &mut gains);
        gains
    }

    /// [`Self::score_all`] into a caller-provided buffer (cleared and
    /// refilled). With a warm buffer the `Seq`/`Lazy` paths perform no
    /// heap allocation; `Par` still materializes the rayon map before
    /// copying into `out`.
    pub fn score_all_into(&self, residuals: &Residuals, out: &mut Vec<f64>) {
        let n = self.instance().n();
        out.clear();
        match self.strategy {
            OracleStrategy::Par => {
                let gains: Vec<f64> = (0..n)
                    .into_par_iter()
                    .map(|i| self.candidate_gain(i, residuals))
                    .collect();
                out.extend_from_slice(&gains);
            }
            OracleStrategy::Seq | OracleStrategy::Lazy => match self.engine.eval_order() {
                // Sparse engines: score in storage order for sequential
                // CSR reads, scatter by index. Same per-candidate values
                // and eval count as the index-order walk.
                Some(order) => {
                    out.resize(n, 0.0);
                    for &i in order {
                        out[i as usize] = self.candidate_gain(i as usize, residuals);
                    }
                }
                None => {
                    out.extend((0..n).map(|i| self.candidate_gain(i, residuals)));
                }
            },
        }
    }

    /// The candidate with the maximum gain, breaking ties toward the
    /// smallest index — the inner argmax of Eq. (13), shared by every
    /// candidate-restricted solver. All three strategies return the
    /// same `Scored`; they differ only in how much work they do.
    pub fn best_candidate(&self, residuals: &Residuals) -> Scored {
        debug_assert!(self.instance().n() > 0);
        match self.strategy {
            OracleStrategy::Seq => self.argmax_seq(residuals),
            OracleStrategy::Par => Self::reduce_first_max(&self.score_all(residuals)),
            OracleStrategy::Lazy => self.argmax_lazy(residuals),
        }
    }

    /// Strict-`>` scan: the reference argmax. On sparse engines the
    /// scan walks the candidates in the engine's cache-friendly storage
    /// order ([`RewardEngine::eval_order`]) with an explicit
    /// max-gain/min-index tie-break — over a permutation that selects
    /// exactly the same candidate as the index-order first-max scan
    /// (gains are per-candidate values independent of scan order), so
    /// the selection stays bit-identical while the CSR streams are read
    /// sequentially.
    fn argmax_seq(&self, residuals: &Residuals) -> Scored {
        let mut best = Scored {
            index: 0,
            gain: f64::NEG_INFINITY,
        };
        match self.engine.eval_order() {
            Some(order) => {
                for &i in order {
                    let i = i as usize;
                    let g = self.candidate_gain(i, residuals);
                    if g > best.gain || (g == best.gain && i < best.index) {
                        best = Scored { index: i, gain: g };
                    }
                }
            }
            None => {
                for i in 0..self.instance().n() {
                    let g = self.candidate_gain(i, residuals);
                    if g > best.gain {
                        best = Scored { index: i, gain: g };
                    }
                }
            }
        }
        best
    }

    /// Sequential first-maximum reduction over a scored vector.
    fn reduce_first_max(gains: &[f64]) -> Scored {
        let mut best = Scored {
            index: 0,
            gain: f64::NEG_INFINITY,
        };
        for (i, &g) in gains.iter().enumerate() {
            if g > best.gain {
                best = Scored { index: i, gain: g };
            }
        }
        best
    }

    /// CELF: pop cached gains until the top entry is current. Stale
    /// entries are re-scored and pushed back; because residuals only
    /// shrink, a current top dominates every other entry's true gain.
    fn argmax_lazy(&self, residuals: &Residuals) -> Scored {
        let version = residuals.version();
        // Recover from poisoning: the heap is rebuilt from scratch below
        // if a panicked holder left it unprimed, and a primed heap only
        // ever holds stale-able upper bounds, which re-score safely.
        let mut state = self.lazy.lock().unwrap_or_else(|p| p.into_inner());
        if !state.primed {
            // First call: full scan, exactly like the eager round 0.
            // The heap's storage is detached, cleared (discarding any
            // partial prime left by a poisoned holder — and, through a
            // reused scratch, any previous solve's entries), refilled
            // — in the engine's cache-friendly eval order on the sparse
            // and grid engines, index order otherwise; from one bulk
            // pass on those engines at fresh residuals — and heapified
            // in place: no allocation once the capacity has reached n
            // (a bulk pass in one part allocates nothing). Entry
            // ordering is total (distinct indices break every gain
            // tie), so the pop sequence is independent of how the heap
            // was built, including the fill order.
            let mut entries = std::mem::take(&mut state.heap).into_vec();
            entries.clear();
            if version > 0 || !self.prime_fresh(&mut entries) {
                let mut push = |i: usize| {
                    let gain = self.candidate_gain(i, residuals);
                    entries.push(Entry {
                        gain,
                        idx: i,
                        version,
                    });
                };
                match self.engine.eval_order() {
                    Some(order) => order.iter().for_each(|&i| push(i as usize)),
                    None => (0..self.instance().n()).for_each(push),
                }
            }
            state.heap = BinaryHeap::from(entries);
            state.primed = true;
        }
        loop {
            let top = *state.heap.peek().expect("lazy heap empty");
            if top.version == version {
                // The entry stays in the heap at the current version:
                // once the caller commits the round (bumping the
                // residual version) it reads stale and will be
                // re-scored before it can win again.
                return Scored {
                    index: top.idx,
                    gain: top.gain,
                };
            }
            state.heap.pop();
            // Dirty-region shortcut: a stale entry whose CSR neighbor
            // range provably missed every residual change since it was
            // scored still holds its *exact* gain — revalidate at the
            // current version for free instead of re-scoring.
            if self.dirty_region
                && self
                    .engine
                    .unchanged_since(top.idx, residuals, top.version)
                    .unwrap_or(false)
            {
                self.dirty_skips
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                state.heap.push(Entry {
                    gain: top.gain,
                    idx: top.idx,
                    version,
                });
                continue;
            }
            let gain = self.candidate_gain(top.idx, residuals);
            state.heap.push(Entry {
                gain,
                idx: top.idx,
                version,
            });
        }
    }

    /// Fills the empty `entries` from the engine's bulk root pass
    /// ([`RewardEngine::root_gains_by_slot`]), in eval order, against
    /// fresh residuals (version 0 means `y = 1` everywhere). Returns
    /// `false`, leaving `entries` empty, when the engine has no such
    /// pass: every engine with an eval order (sparse, grid) has one,
    /// and the scan engine has neither.
    ///
    /// The outcome is the per-candidate prime's: the sweep polls the
    /// cancel token uncounted and stops early once it reads tripped,
    /// then one counted check per entry, in the same order, zeroes every
    /// gain from the trip on and charges an evaluation for each one
    /// before it. A `tripping_after` cut therefore lands on the same
    /// candidate, with the same eval count.
    fn prime_fresh(&self, entries: &mut Vec<Entry>) -> bool {
        let Some(order) = self.engine.eval_order() else {
            return false;
        };
        entries.extend(order.iter().map(|&i| Entry {
            gain: 0.0,
            idx: i as usize,
            version: 0,
        }));
        let stop = || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        self.engine
            .root_gains_by_slot(entries, |e, gain| e.gain = gain, &stop);
        let mut charged = entries.len() as u64;
        if self.cancel.is_some() {
            charged = 0;
            for e in entries.iter_mut() {
                if self.cancel_tripped() {
                    e.gain = 0.0;
                } else {
                    charged += 1;
                }
            }
        }
        self.engine.note_evals(charged);
        true
    }

    /// Best candidate among an explicit index subset (strict-`>` over
    /// the given order) — the stochastic-greedy inner argmax. `Par`
    /// scores the subset in parallel; `Seq`/`Lazy` scan (laziness does
    /// not apply: the subset is resampled every round).
    pub fn best_among(&self, indices: &[usize], residuals: &Residuals) -> Scored {
        debug_assert!(!indices.is_empty());
        let gains: Vec<f64> = match self.strategy {
            OracleStrategy::Par => indices
                .par_iter()
                .map(|&i| self.candidate_gain(i, residuals))
                .collect(),
            OracleStrategy::Seq | OracleStrategy::Lazy => indices
                .iter()
                .map(|&i| self.candidate_gain(i, residuals))
                .collect(),
        };
        let mut best = Scored {
            index: indices[0],
            gain: f64::NEG_INFINITY,
        };
        for (&i, &g) in indices.iter().zip(&gains) {
            if g > best.gain {
                best = Scored { index: i, gain: g };
            }
        }
        best
    }

    /// Best of an explicit point list (centers that need not be input
    /// points — grown candidates, grid cells, …). Returns the position
    /// in `points` and its gain, first maximum winning.
    pub fn best_of_points(&self, points: &[Point<D>], residuals: &Residuals) -> Scored {
        debug_assert!(!points.is_empty());
        let gains: Vec<f64> = match self.strategy {
            OracleStrategy::Par => points
                .par_iter()
                .map(|c| self.engine.gain(c, residuals))
                .collect(),
            OracleStrategy::Seq | OracleStrategy::Lazy => points
                .iter()
                .map(|c| self.engine.gain(c, residuals))
                .collect(),
        };
        Self::reduce_first_max(&gains)
    }

    /// The point with the largest *residual weight* `w_i · y_i` —
    /// greedy3's argmax (Eq. 14). Pure bookkeeping over the residual
    /// vector: charges no reward evaluations, so the CELF work metric
    /// keeps meaning "coverage-reward computations".
    pub fn best_residual_point(&self, residuals: &Residuals) -> Scored {
        let inst = self.instance();
        let mut best = Scored {
            index: 0,
            gain: f64::NEG_INFINITY,
        };
        for i in 0..inst.n() {
            let g = inst.weight(i) * residuals.y(i);
            if g > best.gain {
                best = Scored { index: i, gain: g };
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use mmph_geom::Norm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(seed: u64, n: usize) -> Instance<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]))
            .collect();
        let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..5.0)).collect();
        Instance::new(pts, ws, 0.9, 4, Norm::L2).unwrap()
    }

    fn greedy_rounds<const D: usize>(oracle: &GainOracle<'_, D>) -> (Vec<usize>, f64) {
        let inst = oracle.instance();
        let mut residuals = Residuals::new(inst.n());
        let mut picks = Vec::new();
        let mut total = 0.0;
        for _ in 0..inst.k() {
            let best = oracle.best_candidate(&residuals);
            picks.push(best.index);
            total += residuals.apply(inst, inst.point(best.index));
        }
        (picks, total)
    }

    #[test]
    fn strategies_agree_bitwise() {
        for seed in 0..5 {
            let inst = random_instance(seed, 60);
            let seq = GainOracle::new(&inst, OracleStrategy::Seq);
            let par = GainOracle::new(&inst, OracleStrategy::Par);
            let lazy = GainOracle::new(&inst, OracleStrategy::Lazy);
            let (ps, ts) = greedy_rounds(&seq);
            let (pp, tp) = greedy_rounds(&par);
            let (pl, tl) = greedy_rounds(&lazy);
            assert_eq!(ps, pp, "seed {seed}: par diverged");
            assert_eq!(ps, pl, "seed {seed}: lazy diverged");
            assert_eq!(ts.to_bits(), tp.to_bits(), "seed {seed}: par total");
            assert_eq!(ts.to_bits(), tl.to_bits(), "seed {seed}: lazy total");
        }
    }

    #[test]
    fn lazy_charges_fewer_evals() {
        let inst = random_instance(9, 120);
        let seq = GainOracle::new(&inst, OracleStrategy::Seq);
        let lazy = GainOracle::new(&inst, OracleStrategy::Lazy);
        greedy_rounds(&seq);
        greedy_rounds(&lazy);
        assert_eq!(seq.evals(), (inst.n() * inst.k()) as u64);
        assert!(
            lazy.evals() < seq.evals(),
            "lazy {} vs seq {}",
            lazy.evals(),
            seq.evals()
        );
    }

    #[test]
    fn ties_break_to_lower_index_under_all_strategies() {
        // Symmetric instance: points 0 and 2 have identical gains.
        let inst = InstanceBuilder::new()
            .point([0.0, 0.0], 2.0)
            .point([5.0, 0.0], 1.0)
            .point([10.0, 0.0], 2.0)
            .radius(1.0)
            .k(1)
            .build()
            .unwrap();
        for strategy in [
            OracleStrategy::Seq,
            OracleStrategy::Par,
            OracleStrategy::Lazy,
        ] {
            let oracle = GainOracle::new(&inst, strategy);
            let res = Residuals::new(inst.n());
            assert_eq!(oracle.best_candidate(&res).index, 0, "{strategy}");
        }
    }

    #[test]
    fn score_all_matches_direct_gains() {
        let inst = random_instance(3, 40);
        for strategy in [OracleStrategy::Seq, OracleStrategy::Par] {
            let oracle = GainOracle::new(&inst, strategy);
            let res = Residuals::new(inst.n());
            let gains = oracle.score_all(&res);
            for i in 0..inst.n() {
                let direct = oracle.gain(inst.point(i), &res);
                assert_eq!(gains[i].to_bits(), direct.to_bits(), "candidate {i}");
            }
        }
    }

    #[test]
    fn lazy_scratch_reuse_is_bit_identical() {
        let inst_a = random_instance(21, 70);
        let inst_b = random_instance(22, 90);
        // Reference: fresh oracles.
        let (pa, ta) = greedy_rounds(&GainOracle::new(&inst_a, OracleStrategy::Lazy));
        let (pb, tb) = greedy_rounds(&GainOracle::new(&inst_b, OracleStrategy::Lazy));
        // Scratch chain: solve A, carry the (dirty) heap storage to B.
        let oracle_a = GainOracle::new(&inst_a, OracleStrategy::Lazy);
        let (qa, ua) = greedy_rounds(&oracle_a);
        let scratch = oracle_a.take_lazy_scratch();
        assert!(scratch.retained_capacity() >= inst_a.n());
        let oracle_b = GainOracle::new(&inst_b, OracleStrategy::Lazy).with_lazy_scratch(scratch);
        let (qb, ub) = greedy_rounds(&oracle_b);
        assert_eq!(pa, qa);
        assert_eq!(ta.to_bits(), ua.to_bits());
        assert_eq!(pb, qb, "dirty heap storage changed the selection");
        assert_eq!(tb.to_bits(), ub.to_bits());
    }

    #[test]
    fn reset_lazy_makes_oracle_reusable_on_same_engine() {
        // Re-solving through the same lazy oracle without a reset would
        // read the previous solve's cached gains and versions against
        // freshly-reset residuals; reset_lazy forces a re-prime.
        let inst = random_instance(31, 80);
        let (reference, t_ref) = greedy_rounds(&GainOracle::new(&inst, OracleStrategy::Lazy));
        let oracle = GainOracle::new(&inst, OracleStrategy::Lazy);
        let (first, t1) = greedy_rounds(&oracle);
        oracle.reset_lazy();
        let (second, t2) = greedy_rounds(&oracle);
        assert_eq!(reference, first);
        assert_eq!(reference, second, "reused oracle diverged after reset");
        assert_eq!(t_ref.to_bits(), t1.to_bits());
        assert_eq!(t_ref.to_bits(), t2.to_bits());
    }

    #[test]
    fn score_all_into_reuses_buffer() {
        let inst = random_instance(6, 35);
        for strategy in [
            OracleStrategy::Seq,
            OracleStrategy::Par,
            OracleStrategy::Lazy,
        ] {
            let oracle = GainOracle::new(&inst, strategy);
            let res = Residuals::new(inst.n());
            let direct = oracle.score_all(&res);
            let mut buf = vec![f64::NAN; 3]; // dirty, wrong-sized buffer
            oracle.score_all_into(&res, &mut buf);
            assert_eq!(buf.len(), inst.n());
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&direct), bits(&buf), "{strategy}");
        }
    }

    #[test]
    fn strategy_parses_and_displays() {
        for s in ["seq", "par", "lazy"] {
            let strategy: OracleStrategy = s.parse().unwrap();
            assert_eq!(strategy.to_string(), s);
        }
        assert!("eager".parse::<OracleStrategy>().is_err());
    }

    #[test]
    fn best_among_respects_subset() {
        let inst = random_instance(5, 30);
        let oracle = GainOracle::new(&inst, OracleStrategy::Seq);
        let res = Residuals::new(inst.n());
        let subset = [3usize, 7, 11, 19];
        let best = oracle.best_among(&subset, &res);
        assert!(subset.contains(&best.index));
        let full = oracle.score_all(&res);
        let expect = subset.iter().fold(
            Scored {
                index: subset[0],
                gain: f64::NEG_INFINITY,
            },
            |acc, &i| {
                if full[i] > acc.gain {
                    Scored {
                        index: i,
                        gain: full[i],
                    }
                } else {
                    acc
                }
            },
        );
        assert_eq!(best.index, expect.index);
        assert_eq!(best.gain.to_bits(), expect.gain.to_bits());
    }

    #[test]
    fn objective_charges_one_eval() {
        let inst = random_instance(2, 10);
        let oracle = GainOracle::new(&inst, OracleStrategy::Seq);
        let before = oracle.evals();
        oracle.objective(&[*inst.point(0), *inst.point(1)]);
        assert_eq!(oracle.evals() - before, 1);
    }

    #[test]
    fn best_residual_point_charges_nothing() {
        let inst = random_instance(4, 25);
        let oracle = GainOracle::new(&inst, OracleStrategy::Lazy);
        let res = Residuals::new(inst.n());
        let best = oracle.best_residual_point(&res);
        assert_eq!(oracle.evals(), 0);
        // With fresh residuals this is simply the heaviest point.
        let heaviest = (0..inst.n())
            .max_by(|&a, &b| inst.weight(a).total_cmp(&inst.weight(b)))
            .unwrap();
        assert_eq!(best.index, heaviest);
    }
}

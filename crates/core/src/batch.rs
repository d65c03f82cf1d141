//! Batched solving: a worker pool driving [`solve_rounds`] over a
//! stream of instances with one [`SolveScratch`] per worker.
//!
//! The serving regime this targets (ROADMAP north star; cf. the
//! distributed-caching framing of Avrachenkov et al.) is *many solves
//! per second over many instances*, where per-solve setup — CSR
//! construction, heap and residual allocation — dominates a cold
//! solve. The batch path amortizes both:
//!
//! - **Scratch reuse**: every buffer a solve touches lives in the
//!   worker's [`SolveScratch`], so steady-state solves allocate
//!   nothing (asserted by the `zero_alloc` integration test).
//! - **Engine reuse**: consecutive requests for the *same* instance
//!   (adjacent in the stream, as produced by
//!   `mmph_sim`'s `repeat` spec) share one built [`RewardEngine`];
//!   only the first request in a run pays the CSR build.
//!
//! Both reuses are bit-transparent: a warm batched solve returns the
//! same selection and reward bits as a cold unbatched solve
//! ([`verify_reports`] checks this in-binary; `proptest_scratch`
//! fuzzes it).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rayon::prelude::*;
use serde::Serialize;

use crate::budget::{BudgetClock, DegradeReason, SolveBudget, SolveStatus};
use crate::instance::Instance;
use crate::oracle::{GainOracle, OracleStrategy};
use crate::reward::{EngineKind, Residuals, RewardEngine};
use crate::scratch::SolveScratch;

/// One greedy solve through a prepared oracle, using only the buffers
/// in `scratch`. After a warmup solve of the same shape this performs
/// zero heap allocations for the [`OracleStrategy::Seq`] and
/// [`OracleStrategy::Lazy`] strategies on the scan and sparse engines
/// ([`OracleStrategy::Par`] allocates inside the thread-pool shim, and
/// the grid engine in its cell sweep and box gathers).
///
/// The selection is left in `scratch.picks()` / `scratch.round_gains()`
/// and the total reward is returned. Results are bit-identical to a
/// fresh-allocation solve regardless of what the scratch last held.
pub fn solve_rounds<const D: usize>(oracle: &GainOracle<'_, D>, scratch: &mut SolveScratch) -> f64 {
    solve_rounds_within(oracle, scratch, &BudgetClock::unlimited()).0
}

/// [`solve_rounds`] under a started [`SolveBudget`]: the budget is
/// checked once per round against this solve's own evaluation count,
/// so overshoot is bounded by one round of work. On a trip the
/// selection committed so far stays in `scratch.picks()` — a prefix of
/// the unbudgeted selection — and the trip reason is returned. An
/// already-exhausted budget yields an empty selection, never a panic.
///
/// Like [`solve_rounds`], the unbudgeted path stays allocation-free
/// after warmup: an unlimited clock never constructs a reason.
pub fn solve_rounds_within<const D: usize>(
    oracle: &GainOracle<'_, D>,
    scratch: &mut SolveScratch,
    clock: &BudgetClock,
) -> (f64, Option<DegradeReason>) {
    let inst = oracle.instance();
    let (n, k) = (inst.n(), inst.k());
    // The oracle's eval counter is cumulative across engine reuses;
    // the budget governs this request only.
    let evals0 = oracle.evals();
    scratch.residuals.reset(n);
    scratch.picks.clear();
    scratch.picks.reserve(k);
    scratch.round_gains.clear();
    scratch.round_gains.reserve(k);
    // A reused oracle still holds the previous solve's CELF heap;
    // those cached gains/versions are meaningless against reset
    // residuals, so force a re-prime (which reuses the heap storage).
    oracle.reset_lazy();
    let mut total = 0.0;
    for _ in 0..k {
        if let Some(reason) = clock.check(oracle.evals() - evals0) {
            return (total, Some(reason));
        }
        let best = oracle.best_candidate(&scratch.residuals);
        // A cancel trip mid-argmax poisons `best` (post-trip scores are
        // substituted with 0.0): discard the round and return the
        // committed prefix instead of committing a junk pick.
        if clock.cancelled() {
            return (total, Some(DegradeReason::Cancelled));
        }
        let gain = commit(oracle, &mut scratch.residuals, best.index);
        scratch.picks.push(best.index);
        scratch.round_gains.push(gain);
        total += gain;
    }
    (total, None)
}

/// Commits candidate `i` against `residuals` and returns the round gain.
/// On the `f64` sparse engine this walks the candidate's CSR row and on
/// the grid engine its query box, O(degree) and bit-identical to the
/// dense apply ([`RewardEngine::apply_candidate`]); every other engine
/// uses the dense O(n) [`Residuals::apply`], since the `f32` row walk is
/// not bit-identical to it.
fn commit<const D: usize>(oracle: &GainOracle<'_, D>, residuals: &mut Residuals, i: usize) -> f64 {
    let engine = oracle.engine();
    let local = match engine.kind() {
        EngineKind::Sparse | EngineKind::Grid => engine.apply_candidate(i, residuals),
        _ => None,
    };
    local.unwrap_or_else(|| {
        let inst = oracle.instance();
        residuals.apply(inst, inst.point(i))
    })
}

/// Returns the buffers an oracle borrowed from `scratch` (CELF heap
/// storage and, for sparse engines, the CSR arrays) so the next solve
/// can reuse their capacity. Call when retiring an oracle built by
/// [`BatchRunner::build_oracle`].
pub fn recycle<const D: usize>(oracle: GainOracle<'_, D>, scratch: &mut SolveScratch) {
    scratch.put_lazy(oracle.take_lazy_scratch());
    oracle.into_engine().reclaim(&mut scratch.csr);
}

/// Per-request outcome of a batch run.
#[derive(Debug, Clone, Serialize)]
pub struct BatchResult {
    /// Position of the request in the input stream.
    pub index: usize,
    /// Instance size.
    pub n: usize,
    /// Number of centers selected.
    pub k: usize,
    /// Total coverage reward of the selection.
    pub reward: f64,
    /// Candidate evaluations charged to this request.
    pub evals: u64,
    /// Wall time of the solve (excludes engine build when the engine
    /// was reused; includes it on the first request of a run).
    pub solve_nanos: u64,
    /// Whether this request reused the previous request's engine.
    pub engine_reused: bool,
    /// Completion status: `Completed`, or `Degraded` when the
    /// request's budget tripped (prefix selection) or its solve
    /// panicked (empty selection, `error` set).
    pub status: SolveStatus,
    /// Panic message when the solve was isolated by `catch_unwind`;
    /// `None` for clean (completed or budget-degraded) solves.
    pub error: Option<String>,
    /// Selected candidate indices, in pick order.
    pub selection: Vec<usize>,
}

impl BatchResult {
    /// True when the request ran to completion without budget trips
    /// or panics.
    pub fn is_complete(&self) -> bool {
        self.status.is_complete() && self.error.is_none()
    }
}

/// Aggregate outcome of [`BatchRunner::run`].
#[derive(Debug, Clone, Serialize)]
pub struct BatchReport {
    /// Per-request results, in input order.
    pub results: Vec<BatchResult>,
    /// End-to-end wall time of the batch, including worker spawn.
    pub wall_nanos: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Whether scratch/engine reuse was enabled.
    pub warm: bool,
}

impl BatchReport {
    /// Requests completed per second of batch wall time.
    pub fn throughput(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.results.len() as f64 / (self.wall_nanos as f64 / 1e9)
    }

    /// Number of requests that reused a previously built engine.
    pub fn engines_reused(&self) -> usize {
        self.results.iter().filter(|r| r.engine_reused).count()
    }

    /// Sum of per-request rewards.
    pub fn total_reward(&self) -> f64 {
        self.results.iter().map(|r| r.reward).sum()
    }

    /// Number of requests whose budget tripped or whose solve panicked.
    pub fn degraded(&self) -> usize {
        self.results
            .iter()
            .filter(|r| !r.status.is_complete())
            .count()
    }

    /// Number of requests isolated by `catch_unwind`.
    pub fn errors(&self) -> usize {
        self.results.iter().filter(|r| r.error.is_some()).count()
    }
}

/// Checks that two reports over the same request stream picked
/// bit-identical selections and rewards. Used to verify warm (reused
/// scratch/engine) runs against cold reference runs in-binary.
pub fn verify_reports(a: &BatchReport, b: &BatchReport) -> Result<(), String> {
    if a.results.len() != b.results.len() {
        return Err(format!(
            "request count mismatch: {} vs {}",
            a.results.len(),
            b.results.len()
        ));
    }
    for (x, y) in a.results.iter().zip(&b.results) {
        if x.selection != y.selection {
            return Err(format!(
                "selection mismatch at request {}: {:?} vs {:?}",
                x.index, x.selection, y.selection
            ));
        }
        if x.reward.to_bits() != y.reward.to_bits() {
            return Err(format!(
                "reward bits mismatch at request {}: {} vs {}",
                x.index, x.reward, y.reward
            ));
        }
        if x.error.is_some() != y.error.is_some() {
            return Err(format!(
                "error mismatch at request {}: {:?} vs {:?}",
                x.index, x.error, y.error
            ));
        }
    }
    Ok(())
}

/// Drives a worker pool over a stream of instances. Configure with the
/// builder methods, then call [`Self::run`].
///
/// ```
/// use mmph_core::{BatchRunner, InstanceBuilder};
///
/// let inst = InstanceBuilder::new()
///     .point([0.0, 0.0], 1.0)
///     .point([3.0, 0.0], 2.0)
///     .radius(1.0)
///     .k(1)
///     .build()
///     .unwrap();
/// let stream = vec![inst.clone(), inst];
/// let report = BatchRunner::new().run(&stream);
/// assert_eq!(report.results.len(), 2);
/// assert_eq!(report.results[0].selection, vec![1]);
/// // Identical adjacent requests share one engine build when they land
/// // on the same worker; with two or more workers they are split.
/// let reuses = if report.workers == 1 { 1 } else { 0 };
/// assert_eq!(report.engines_reused(), reuses);
/// ```
#[derive(Debug, Clone)]
pub struct BatchRunner {
    strategy: OracleStrategy,
    engine: EngineKind,
    warm: bool,
    panic_at: Option<usize>,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner {
            strategy: OracleStrategy::Lazy,
            engine: EngineKind::Sparse,
            warm: true,
            panic_at: None,
        }
    }
}

impl BatchRunner {
    /// Defaults: lazy (CELF) oracle on the sparse engine, warm
    /// scratch/engine reuse on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Candidate-argmax strategy (identical selections under all).
    pub fn with_strategy(mut self, strategy: OracleStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Reward-evaluation engine. [`EngineKind::Auto`] is treated as
    /// [`EngineKind::Sparse`] here: batch serving is exactly the
    /// workload the CSR engine exists for, and only the sparse engines
    /// (`sparse`, and the opt-in mixed-precision `sparse-f32`)
    /// participate in CSR-scratch reuse.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// `false` disables all reuse: every request allocates fresh state
    /// and builds its own engine — the cold per-instance baseline that
    /// `mmph batch --verify` and the batch tests compare against.
    pub fn with_warm(mut self, yes: bool) -> Self {
        self.warm = yes;
        self
    }

    /// Fault injection: the request at stream position `index` panics
    /// inside its worker. Used by the panic-isolation regression tests
    /// and the serve smoke checks; the report must still deliver an
    /// ordered entry for every request.
    pub fn with_injected_panic(mut self, index: usize) -> Self {
        self.panic_at = Some(index);
        self
    }

    fn maybe_inject_panic(&self, index: usize) {
        if self.panic_at == Some(index) {
            panic!("injected panic at request {index}");
        }
    }

    /// Builds an oracle whose engine and CELF heap borrow their
    /// storage from `scratch`. Retire it with [`recycle`] to return
    /// the storage.
    pub fn build_oracle<'a, const D: usize>(
        &self,
        inst: &'a Instance<D>,
        scratch: &mut SolveScratch,
    ) -> GainOracle<'a, D> {
        let engine = match self.engine {
            EngineKind::Sparse | EngineKind::Auto => {
                RewardEngine::sparse_with_scratch(inst, &mut scratch.csr)
            }
            EngineKind::SparseF32 => RewardEngine::sparse_f32_with_scratch(inst, &mut scratch.csr),
            kind => RewardEngine::with_kind(inst, kind),
        };
        // Plain CELF: dirty-region revalidation is unmeasured on the
        // served workloads, so the batch and serve paths leave it off.
        GainOracle::from_engine(engine, self.strategy)
            .with_dirty_region(false)
            .with_lazy_scratch(scratch.take_lazy())
    }

    /// An ordered error entry for a request whose solve panicked. The
    /// selection is empty and the status is `Degraded`, so downstream
    /// consumers (the serve layer, the report printer) can surface the
    /// failure without losing report ordering.
    fn panic_result<const D: usize>(
        index: usize,
        inst: &Instance<D>,
        payload: Box<dyn std::any::Any + Send>,
    ) -> BatchResult {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked".to_string());
        BatchResult {
            index,
            n: inst.n(),
            k: inst.k(),
            reward: 0.0,
            evals: 0,
            solve_nanos: 0,
            engine_reused: false,
            status: SolveStatus::Degraded {
                reason: DegradeReason::RungPanicked {
                    rung: "batch-worker".into(),
                },
            },
            error: Some(msg),
            selection: Vec::new(),
        }
    }

    fn status_from(reason: Option<DegradeReason>) -> SolveStatus {
        match reason {
            None => SolveStatus::Completed,
            Some(reason) => SolveStatus::Degraded { reason },
        }
    }

    /// Cold reference solve: fresh allocations, no reuse of any kind —
    /// the unbatched per-request baseline.
    fn solve_cold<const D: usize>(
        &self,
        index: usize,
        inst: &Instance<D>,
        budget: SolveBudget,
    ) -> BatchResult {
        let kind = match self.engine {
            EngineKind::Auto => EngineKind::Sparse,
            kind => kind,
        };
        let t0 = Instant::now();
        let clock = budget.start();
        let solved = catch_unwind(AssertUnwindSafe(|| {
            self.maybe_inject_panic(index);
            let oracle = GainOracle::with_engine(inst, kind, self.strategy)
                .with_dirty_region(false)
                .with_cancel(budget.cancel_token().cloned());
            let mut residuals = Residuals::new(inst.n());
            let mut picks = Vec::with_capacity(inst.k());
            let mut reward = 0.0;
            let mut tripped = None;
            for _ in 0..inst.k() {
                if let Some(reason) = clock.check(oracle.evals()) {
                    tripped = Some(reason);
                    break;
                }
                let best = oracle.best_candidate(&residuals);
                if clock.cancelled() {
                    tripped = Some(DegradeReason::Cancelled);
                    break;
                }
                reward += residuals.apply(inst, inst.point(best.index));
                picks.push(best.index);
            }
            (reward, picks, oracle.evals(), tripped)
        }));
        match solved {
            Ok((reward, picks, evals, tripped)) => BatchResult {
                index,
                n: inst.n(),
                k: inst.k(),
                reward,
                evals,
                solve_nanos: t0.elapsed().as_nanos() as u64,
                engine_reused: false,
                status: Self::status_from(tripped),
                error: None,
                selection: picks,
            },
            Err(payload) => Self::panic_result(index, inst, payload),
        }
    }

    /// Serves one worker's contiguous slice of the stream.
    /// `budgets[r]` (when present) bounds `chunk[r]`; a missing entry
    /// means unlimited. A panicking request yields an ordered error
    /// entry and a fresh scratch — the remaining requests of its run
    /// rebuild the engine and proceed.
    fn run_chunk<const D: usize>(
        &self,
        start: usize,
        chunk: &[Instance<D>],
        budgets: &[SolveBudget],
    ) -> Vec<BatchResult> {
        let budget_for = |off: usize| budgets.get(off).cloned().unwrap_or_default();
        let mut out = Vec::with_capacity(chunk.len());
        if !self.warm {
            for (off, inst) in chunk.iter().enumerate() {
                out.push(self.solve_cold(start + off, inst, budget_for(off)));
            }
            return out;
        }
        let mut scratch = SolveScratch::new();
        let mut i = 0;
        while i < chunk.len() {
            let inst = &chunk[i];
            // Extend the run over adjacent identical requests so they
            // share one engine build.
            let mut j = i + 1;
            while j < chunk.len() && chunk[j] == *inst {
                j += 1;
            }
            let build0 = Instant::now();
            let mut oracle = self.build_oracle(inst, &mut scratch);
            let build_nanos = build0.elapsed().as_nanos() as u64;
            let mut evals_before = 0u64;
            let mut panicked = false;
            let run_start = i;
            for r in run_start..j {
                let index = start + r;
                let budget = budget_for(r);
                // Requests in one reuse run can come from different
                // connections, each with its own token.
                oracle.set_cancel(budget.cancel_token().cloned());
                let t0 = Instant::now();
                let clock = budget.start();
                let solved = catch_unwind(AssertUnwindSafe(|| {
                    self.maybe_inject_panic(index);
                    solve_rounds_within(&oracle, &mut scratch, &clock)
                }));
                match solved {
                    Ok((reward, tripped)) => {
                        let mut solve_nanos = t0.elapsed().as_nanos() as u64;
                        if r == run_start {
                            // The run's first request pays for the build.
                            solve_nanos += build_nanos;
                        }
                        let evals = oracle.evals();
                        out.push(BatchResult {
                            index,
                            n: inst.n(),
                            k: inst.k(),
                            reward,
                            evals: evals - evals_before,
                            solve_nanos,
                            engine_reused: r > run_start,
                            status: Self::status_from(tripped),
                            error: None,
                            selection: scratch.picks().to_vec(),
                        });
                        evals_before = evals;
                    }
                    Err(payload) => {
                        out.push(Self::panic_result(index, inst, payload));
                        i = r + 1;
                        panicked = true;
                        break;
                    }
                }
            }
            if panicked {
                // The oracle (and the buffers it took from the
                // scratch) may be mid-update; drop both and let the
                // rest of the stream rebuild from a clean arena.
                drop(oracle);
                scratch = SolveScratch::new();
            } else {
                recycle(oracle, &mut scratch);
                i = j;
            }
        }
        out
    }

    /// Solves every instance in `instances`, in order, across
    /// `rayon::current_num_threads()` workers (each with its own
    /// scratch). Results come back in input order.
    pub fn run<const D: usize>(&self, instances: &[Instance<D>]) -> BatchReport {
        self.run_budgeted(instances, &[])
    }

    /// [`Self::run`] with per-request budgets: `budgets[i]` bounds
    /// `instances[i]`; when `budgets` is shorter than the stream the
    /// tail is unlimited. A tripped budget degrades that request to
    /// its committed prefix (status [`SolveStatus::Degraded`]); it
    /// never hangs the report.
    pub fn run_budgeted<const D: usize>(
        &self,
        instances: &[Instance<D>],
        budgets: &[SolveBudget],
    ) -> BatchReport {
        let t0 = Instant::now();
        let workers = rayon::current_num_threads()
            .max(1)
            .min(instances.len().max(1));
        let results = if workers <= 1 {
            self.run_chunk(0, instances, budgets)
        } else {
            let per = instances.len().div_ceil(workers);
            let chunks: Vec<(usize, &[Instance<D>], &[SolveBudget])> = instances
                .chunks(per)
                .enumerate()
                .map(|(c, slice)| {
                    let start = c * per;
                    let bslice = budgets
                        .get(start..)
                        .map_or(&budgets[0..0], |rest| &rest[..rest.len().min(slice.len())]);
                    (start, slice, bslice)
                })
                .collect();
            chunks
                .into_par_iter()
                .map(|(start, slice, bslice)| self.run_chunk(start, slice, bslice))
                .collect::<Vec<_>>()
                .into_iter()
                .flatten()
                .collect()
        };
        BatchReport {
            results,
            wall_nanos: t0.elapsed().as_nanos() as u64,
            workers,
            warm: self.warm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmph_geom::{Norm, Point};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(seed: u64, n: usize, k: usize, norm: Norm) -> Instance<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]))
            .collect();
        let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(1..=5) as f64).collect();
        Instance::new(pts, ws, 1.0, k, norm).unwrap()
    }

    fn stream(seed: u64, distinct: usize, repeat: usize, norm: Norm) -> Vec<Instance<2>> {
        let mut out = Vec::new();
        for d in 0..distinct {
            let inst = random_instance(seed + d as u64, 40 + 7 * d, 3, norm);
            for _ in 0..repeat {
                out.push(inst.clone());
            }
        }
        out
    }

    #[test]
    fn warm_matches_cold_across_strategies_and_norms() {
        for norm in [Norm::L1, Norm::L2] {
            for strategy in [
                OracleStrategy::Seq,
                OracleStrategy::Par,
                OracleStrategy::Lazy,
            ] {
                let insts = stream(11, 3, 3, norm);
                let runner = BatchRunner::new().with_strategy(strategy);
                let warm = runner.run(&insts);
                let cold = runner.clone().with_warm(false).run(&insts);
                verify_reports(&warm, &cold).unwrap_or_else(|e| panic!("{norm:?} {strategy}: {e}"));
                assert!(warm.engines_reused() > 0, "adjacent repeats should reuse");
                assert_eq!(cold.engines_reused(), 0);
            }
        }
    }

    /// The `f64` sparse engine commits each pick by its CSR row, the
    /// grid engine by its query box and the other engines by the dense
    /// apply; all must leave exactly the gains, total and residual
    /// state of committing the same picks with the dense apply.
    #[test]
    fn sparse_commit_matches_the_dense_apply() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for norm in [Norm::L1, Norm::L2] {
            let inst = random_instance(83, 150, 8, norm);
            for engine in [
                EngineKind::Sparse,
                EngineKind::SparseF32,
                EngineKind::Scan,
                EngineKind::Grid,
            ] {
                let mut scratch = SolveScratch::new();
                let oracle = BatchRunner::new()
                    .with_engine(engine)
                    .build_oracle(&inst, &mut scratch);
                let reward = solve_rounds(&oracle, &mut scratch);
                let mut dense = Residuals::new(inst.n());
                let gains: Vec<f64> = scratch
                    .picks()
                    .iter()
                    .map(|&i| dense.apply(&inst, inst.point(i)))
                    .collect();
                let label = format!("{norm} {engine}");
                assert_eq!(scratch.picks().len(), inst.k(), "{label}");
                assert_eq!(bits(scratch.round_gains()), bits(&gains), "{label}: gains");
                let total = gains.iter().fold(0.0, |acc, g| acc + g);
                assert_eq!(reward.to_bits(), total.to_bits(), "{label}: total");
                let res = scratch.residuals();
                assert_eq!(bits(res.as_slice()), bits(dense.as_slice()), "{label}: y");
                assert_eq!(res.version(), dense.version(), "{label}: version");
                for i in 0..inst.n() {
                    assert_eq!(res.touched(i), dense.touched(i), "{label}: touched {i}");
                }
            }
        }
    }

    #[test]
    fn results_are_in_input_order_with_correct_indices() {
        let insts = stream(37, 4, 2, Norm::L2);
        let report = BatchRunner::new().run(&insts);
        assert_eq!(report.results.len(), insts.len());
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.n, insts[i].n());
            assert_eq!(r.k, insts[i].k());
        }
        assert!(report.throughput() > 0.0);
        assert!(report.total_reward() > 0.0);
    }

    #[test]
    fn verify_reports_catches_mismatch() {
        let insts = stream(41, 1, 2, Norm::L2);
        let a = BatchRunner::new().run(&insts);
        let mut b = a.clone();
        b.results[1].selection[0] += 1;
        assert!(verify_reports(&a, &b).is_err());
    }

    #[test]
    fn zero_budget_degrades_instead_of_hanging() {
        let insts = stream(61, 1, 3, Norm::L2);
        let budgets = vec![
            SolveBudget::unlimited(),
            SolveBudget::unlimited().with_max_evals(0),
            SolveBudget::unlimited(),
        ];
        for warm in [true, false] {
            let report = BatchRunner::new()
                .with_warm(warm)
                .run_budgeted(&insts, &budgets);
            assert_eq!(report.results.len(), 3);
            assert!(report.results[0].is_complete());
            assert!(!report.results[1].status.is_complete());
            assert!(report.results[1].selection.is_empty());
            assert!(
                report.results[1].error.is_none(),
                "budget trip is not an error"
            );
            assert!(report.results[2].is_complete());
            assert_eq!(report.degraded(), 1);
            assert_eq!(report.errors(), 0);
            // The budget never changes what an unconstrained request picks.
            assert_eq!(report.results[0].selection, report.results[2].selection);
        }
    }

    #[test]
    fn eval_budget_yields_prefix_of_unbudgeted_selection() {
        let inst = random_instance(67, 60, 4, Norm::L2);
        let full = BatchRunner::new().run(std::slice::from_ref(&inst));
        let full_sel = &full.results[0].selection;
        assert_eq!(full_sel.len(), 4);
        // A cap below the full solve's eval count trips mid-selection.
        let capped = SolveBudget::unlimited().with_max_evals(full.results[0].evals / 2);
        let report = BatchRunner::new().run_budgeted(std::slice::from_ref(&inst), &[capped]);
        let r = &report.results[0];
        assert!(!r.status.is_complete());
        assert!(r.selection.len() < full_sel.len());
        assert_eq!(r.selection[..], full_sel[..r.selection.len()], "prefix");
    }

    #[test]
    fn injected_panic_surfaces_ordered_error_entry() {
        // 2 distinct scenarios × 3 repeats; panic mid-run of the first
        // so the rest of the run must rebuild the engine.
        let insts = stream(71, 2, 3, Norm::L2);
        for warm in [true, false] {
            let clean = BatchRunner::new().with_warm(warm).run(&insts);
            let faulty = BatchRunner::new()
                .with_warm(warm)
                .with_injected_panic(1)
                .run(&insts);
            assert_eq!(faulty.results.len(), insts.len(), "no stalled entries");
            for (i, r) in faulty.results.iter().enumerate() {
                assert_eq!(r.index, i, "report stays ordered");
            }
            let bad = &faulty.results[1];
            assert!(bad.error.as_deref().unwrap().contains("injected panic"));
            assert!(bad.selection.is_empty());
            assert!(!bad.status.is_complete());
            assert_eq!(faulty.errors(), 1);
            // Every other request is untouched by the fault.
            for (c, f) in clean.results.iter().zip(&faulty.results) {
                if f.index == 1 {
                    continue;
                }
                assert_eq!(c.selection, f.selection, "request {}", f.index);
                assert_eq!(c.reward.to_bits(), f.reward.to_bits());
                assert!(f.error.is_none());
            }
        }
    }

    #[test]
    fn verify_reports_catches_error_mismatch() {
        let insts = stream(73, 1, 2, Norm::L2);
        let clean = BatchRunner::new().run(&insts);
        let faulty = BatchRunner::new().with_injected_panic(0).run(&insts);
        assert!(verify_reports(&clean, &faulty).is_err());
    }

    #[test]
    fn scratch_survives_mixed_instance_sizes() {
        // A worker serving big-then-small-then-big instances must not
        // leak state across sizes.
        let a = random_instance(51, 90, 4, Norm::L2);
        let b = random_instance(52, 12, 2, Norm::L2);
        let insts = vec![a.clone(), b.clone(), a.clone()];
        let warm = BatchRunner::new().run(&insts);
        let cold = BatchRunner::new().with_warm(false).run(&insts);
        verify_reports(&warm, &cold).unwrap();
        // a's two appearances are separated by b: no reuse possible.
        assert_eq!(warm.engines_reused(), 0);
    }
}

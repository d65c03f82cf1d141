//! Algorithm 2 — the local greedy algorithm ("greedy 2").
//!
//! Each of the `k` rounds considers **every input point** as a candidate
//! center and selects the one with the maximum coverage reward against
//! the current residuals (Eq. 13). Ties are broken by point index, as
//! the paper specifies: *"If there are a number of points which have the
//! same maximum coverage reward, our selection will be based on the
//! index of the points."*
//!
//! Complexity `O(k n²)` (paper §V-A); approximation ratio
//! `1 − (1 − 1/n)^k` (Theorem 2). The per-round argmax is delegated to
//! [`GainOracle`], so the same solver runs sequentially, in parallel, or
//! with CELF lazy evaluation depending on the configured
//! [`OracleStrategy`].
//!
//! CELF applies because per-round coverage rewards are monotone
//! non-increasing: the residuals `y_i` only shrink, so a stale gain from
//! an earlier round is a valid upper bound (Leskovec et al., KDD '07).
//! `with_oracle(OracleStrategy::Lazy)` produces *identical* selections to
//! the eager scan (the heap breaks ties toward smaller indices, like the
//! paper's index rule) while evaluating a small fraction of the
//! candidates after round 1.

use crate::budget::{SolveBudget, SolveOutcome};
use crate::instance::Instance;
use crate::oracle::{GainOracle, OracleStrategy};
use crate::reward::EngineKind;
use crate::solver::{run_rounds, Solution, Solver};
use crate::Result;

/// Algorithm 2 of the paper. See the module docs.
///
/// ```
/// use mmph_core::solvers::LocalGreedy;
/// use mmph_core::{InstanceBuilder, Solver};
///
/// let inst = InstanceBuilder::new()
///     .point([0.0, 0.0], 1.0)
///     .point([0.5, 0.0], 2.0)
///     .point([3.0, 3.0], 1.0)
///     .radius(1.0)
///     .k(2)
///     .build()
///     .unwrap();
/// let sol = LocalGreedy::new().solve(&inst).unwrap();
/// assert_eq!(sol.centers.len(), 2);
/// assert!(sol.verify_consistency(&inst));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LocalGreedy {
    engine: EngineKind,
    strategy: OracleStrategy,
    trace: bool,
}

impl LocalGreedy {
    /// Plain configuration: sequential oracle, the
    /// [`EngineKind::Auto`] engine, no tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the reward-evaluation engine. The default
    /// [`EngineKind::Auto`] builds the sparse CSR engine when its
    /// estimated footprint fits the memory cap and falls back to the
    /// CSR-free grid engine otherwise; every choice selects the same
    /// centers.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the candidate-argmax strategy (identical results under
    /// all of them; see [`GainOracle`]).
    pub fn with_oracle(mut self, strategy: OracleStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Record per-round assignment vectors in the solution.
    pub fn with_trace(mut self, yes: bool) -> Self {
        self.trace = yes;
        self
    }

    fn oracle<'a, const D: usize>(&self, inst: &'a Instance<D>) -> GainOracle<'a, D> {
        GainOracle::with_engine(inst, self.engine, self.strategy)
    }
}

impl<const D: usize> Solver<D> for LocalGreedy {
    fn name(&self) -> &'static str {
        "greedy2"
    }

    fn solve(&self, inst: &Instance<D>) -> Result<Solution<D>> {
        Ok(self
            .solve_within(inst, &SolveBudget::unlimited())?
            .into_solution())
    }

    fn solve_within(&self, inst: &Instance<D>, budget: &SolveBudget) -> Result<SolveOutcome<D>> {
        let oracle = self
            .oracle(inst)
            .with_cancel(budget.cancel_token().cloned());
        let clock = budget.start();
        run_rounds(
            Solver::<D>::name(self),
            inst,
            &oracle,
            self.trace,
            &clock,
            |oracle, residuals, _| Ok(*inst.point(oracle.best_candidate(residuals).index)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::reward::objective;
    use mmph_geom::{Norm, Point};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const STRATEGIES: [OracleStrategy; 3] = [
        OracleStrategy::Seq,
        OracleStrategy::Par,
        OracleStrategy::Lazy,
    ];

    fn cluster_instance() -> Instance<2> {
        // A heavy pair near (0,0) and a single heavy point at (3,3).
        InstanceBuilder::new()
            .point([0.0, 0.0], 2.0)
            .point([0.2, 0.0], 2.0)
            .point([3.0, 3.0], 3.0)
            .radius(1.0)
            .k(2)
            .build()
            .unwrap()
    }

    fn random_instance(rng: &mut StdRng, n: usize, k: usize, r: f64, norm: Norm) -> Instance<2> {
        let pts: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]))
            .collect();
        let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(1..=5) as f64).collect();
        Instance::new(pts, ws, r, k, norm).unwrap()
    }

    /// Solves `inst` with traces under every strategy, checks each
    /// selection and trace against the eager scan, and returns the
    /// eager solution.
    fn solve_every_strategy(inst: &Instance<2>) -> Solution<2> {
        let eager = LocalGreedy::new().with_trace(true).solve(inst).unwrap();
        for strategy in STRATEGIES {
            let sol = LocalGreedy::new()
                .with_oracle(strategy)
                .with_trace(true)
                .solve(inst)
                .unwrap();
            assert_eq!(eager.centers, sol.centers, "{strategy}");
            assert_eq!(eager.assignments, sol.assignments, "{strategy}");
        }
        eager
    }

    #[test]
    fn picks_cluster_then_singleton() {
        let sol = LocalGreedy::new().solve(&cluster_instance()).unwrap();
        // Round 1: centering on p0 or p1 earns 2 + 2*(1-0.2) = 3.6,
        // beating p2's 3.0. Round 2: p2's 3.0 is all that remains.
        assert_eq!(sol.centers.len(), 2);
        assert!(sol.centers[0][1] < 1.0, "first center is in the cluster");
        assert_eq!(sol.centers[1], Point::new([3.0, 3.0]));
        assert!((sol.round_gains[0] - 3.6).abs() < 1e-12);
        assert!((sol.round_gains[1] - 3.0).abs() < 1e-12);
        assert!(sol.verify_consistency(&cluster_instance()));
    }

    #[test]
    fn tie_breaks_to_lower_index() {
        // Two isolated points with equal weight: both candidates give the
        // same round-1 gain; index 0 must win.
        let inst = InstanceBuilder::new()
            .point([0.0, 0.0], 1.0)
            .point([3.0, 0.0], 1.0)
            .radius(1.0)
            .k(1)
            .build()
            .unwrap();
        assert_eq!(solve_every_strategy(&inst).centers[0], *inst.point(0));
        // Equal weights on an integer lattice produce many gain ties;
        // every strategy must resolve them like the eager index scan.
        for seed in 0..15 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<Point<2>> = (0..20)
                .map(|_| Point::new([rng.gen_range(0..4) as f64, rng.gen_range(0..4) as f64]))
                .collect();
            solve_every_strategy(&Instance::unweighted(pts, 1.0, 4, Norm::L1).unwrap());
        }
    }

    #[test]
    fn trace_is_identical_under_every_strategy() {
        let inst = random_instance(&mut StdRng::seed_from_u64(4), 15, 3, 1.2, Norm::L2);
        let eager = solve_every_strategy(&inst);
        assert_eq!(eager.assignments.as_ref().map(Vec::len), Some(3));
    }

    #[test]
    fn spatial_index_gives_identical_solution() {
        let mut rng = StdRng::seed_from_u64(5);
        for norm in [Norm::L1, Norm::L2] {
            let inst = random_instance(&mut rng, 60, 4, 1.0, norm);
            let plain = LocalGreedy::new().solve(&inst).unwrap();
            let indexed = LocalGreedy::new()
                .with_engine(EngineKind::Kd)
                .solve(&inst)
                .unwrap();
            assert_eq!(plain.centers, indexed.centers);
            assert!((plain.total_reward - indexed.total_reward).abs() < 1e-9);
        }
    }

    #[test]
    fn gains_are_monotone_nonincreasing() {
        // Submodularity + greedy selection implies per-round gains
        // cannot increase.
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let sol = LocalGreedy::new()
                .solve(&random_instance(&mut rng, 30, 5, 1.0, Norm::L2))
                .unwrap();
            for w in sol.round_gains.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "gains {:?}", sol.round_gains);
            }
        }
    }

    #[test]
    fn total_matches_objective() {
        let inst = cluster_instance();
        let sol = LocalGreedy::new().solve(&inst).unwrap();
        let f = objective(&inst, &sol.centers);
        assert!((sol.total_reward - f).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_n_is_allowed() {
        // With residual depletion the algorithm may re-pick points;
        // gains go to zero once everyone is satisfied.
        let inst = InstanceBuilder::new()
            .point([0.0, 0.0], 1.0)
            .radius(1.0)
            .k(3)
            .build()
            .unwrap();
        let sol = solve_every_strategy(&inst);
        assert_eq!(sol.centers.len(), 3);
        assert!((sol.total_reward - 1.0).abs() < 1e-12);
        assert_eq!(sol.round_gains[1], 0.0);
        assert_eq!(sol.round_gains[2], 0.0);
        // Several points, k > n: re-picks happen in the same order.
        let inst = random_instance(&mut StdRng::seed_from_u64(2), 3, 7, 1.0, Norm::L2);
        assert_eq!(solve_every_strategy(&inst).centers.len(), 7);
    }

    #[test]
    fn eval_count_is_kn() {
        let inst = cluster_instance();
        let sol = LocalGreedy::new().solve(&inst).unwrap();
        // k rounds × n candidates.
        assert_eq!(sol.evals, (inst.k() * inst.n()) as u64);
    }
}

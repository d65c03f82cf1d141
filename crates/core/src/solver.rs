//! The [`Solver`] trait and [`Solution`] type shared by all algorithms.

use mmph_geom::Point;
use serde::{Deserialize, Serialize};

use crate::budget::{BudgetClock, SolveBudget, SolveOutcome};
use crate::instance::Instance;
use crate::oracle::GainOracle;
use crate::reward::{objective, Residuals};
use crate::Result;

/// A solver for the optimal content distribution problem: selects
/// `inst.k()` broadcast centers.
pub trait Solver<const D: usize> {
    /// Short identifier (e.g. `"greedy3"`), used in experiment tables.
    fn name(&self) -> &'static str;

    /// Solves the instance, returning the selected centers with
    /// per-round bookkeeping.
    fn solve(&self, inst: &Instance<D>) -> Result<Solution<D>>;

    /// Solves under a resource budget, returning the best-so-far
    /// centers with a completion status when the budget trips.
    ///
    /// Every solver in this crate overrides this with a genuinely
    /// interruptible path; the default runs `solve` to completion and
    /// reports `Completed`, so third-party solvers keep compiling.
    fn solve_within(&self, inst: &Instance<D>, budget: &SolveBudget) -> Result<SolveOutcome<D>> {
        let _ = budget;
        Ok(SolveOutcome::completed(self.solve(inst)?))
    }
}

/// The output of a solve: centers in selection order plus per-round
/// gains, whose sum equals `f(centers)` exactly (see
/// [`crate::reward::Residuals`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution<const D: usize> {
    /// Name of the solver that produced this solution.
    pub solver: String,
    /// Selected centers, in round order.
    pub centers: Vec<Point<D>>,
    /// Coverage reward gained in each round (the paper's `g(j)`;
    /// Table I reports exactly these numbers).
    pub round_gains: Vec<f64>,
    /// Total reward `Σ_j g(j) = f(centers)`.
    pub total_reward: f64,
    /// Number of coverage-reward evaluations performed (work metric for
    /// the CELF ablation).
    pub evals: u64,
    /// Per-round assignment vectors `z_i^j` when tracing was enabled.
    pub assignments: Option<Vec<Vec<f64>>>,
}

impl<const D: usize> Solution<D> {
    /// Recomputes `f(centers)` from scratch and asserts it matches the
    /// telescoped `total_reward`. Used in tests and debug assertions.
    pub fn verify_consistency(&self, inst: &Instance<D>) -> bool {
        let f = objective(inst, &self.centers);
        (f - self.total_reward).abs() <= 1e-9 * (1.0 + f.abs())
    }

    /// The cumulative reward after each round (`f(j)` in the paper's
    /// Theorem proofs).
    pub fn cumulative_gains(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.round_gains
            .iter()
            .map(|g| {
                acc += g;
                acc
            })
            .collect()
    }
}

/// Runs the shared round loop of Algorithms 1–4: `k` rounds, each round
/// asking `pick` for a center given the oracle and current residuals,
/// then committing it. The budget is checked at every round boundary
/// against the oracle's eval counter; on a trip the rounds committed so
/// far — a *prefix* of the full selection — are returned as a degraded
/// [`SolveOutcome`].
///
/// `pick` receives the 0-based round number; tie-breaking and candidate
/// policy live entirely inside it, which is the only place the four
/// algorithms differ. A `pick` error aborts the solve with that error.
pub(crate) fn run_rounds<const D: usize>(
    name: &str,
    inst: &Instance<D>,
    oracle: &GainOracle<'_, D>,
    trace: bool,
    clock: &BudgetClock,
    mut pick: impl FnMut(&GainOracle<'_, D>, &Residuals, usize) -> Result<Point<D>>,
) -> Result<SolveOutcome<D>> {
    let mut residuals = Residuals::new(inst.n());
    let mut centers = Vec::with_capacity(inst.k());
    let mut round_gains = Vec::with_capacity(inst.k());
    let mut assignments = trace.then(Vec::new);
    let mut tripped = None;
    for round in 0..inst.k() {
        if let Some(reason) = clock.check(oracle.evals()) {
            tripped = Some(reason);
            break;
        }
        let c = pick(oracle, &residuals, round)?;
        // A cancel trip during `pick` poisons its result (post-trip
        // scores read 0.0): drop the round, keep the committed prefix.
        if clock.cancelled() {
            tripped = Some(crate::budget::DegradeReason::Cancelled);
            break;
        }
        if let Some(tr) = assignments.as_mut() {
            let mut z = Vec::new();
            residuals.assignments_into(inst, &c, &mut z);
            tr.push(z);
        }
        let gain = residuals.apply(inst, &c);
        centers.push(c);
        round_gains.push(gain);
    }
    let total_reward = round_gains.iter().sum();
    let solution = Solution {
        solver: name.to_owned(),
        centers,
        round_gains,
        total_reward,
        evals: oracle.evals(),
        assignments,
    };
    Ok(match tripped {
        Some(reason) => SolveOutcome::degraded(solution, reason),
        None => SolveOutcome::completed(solution),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn inst() -> Instance<2> {
        InstanceBuilder::new()
            .point([0.0, 0.0], 1.0)
            .point([2.0, 0.0], 2.0)
            .radius(1.0)
            .k(2)
            .build()
            .unwrap()
    }

    #[test]
    fn run_rounds_assembles_solution() {
        let inst = inst();
        let oracle = GainOracle::new(&inst, crate::oracle::OracleStrategy::Seq);
        let sol = run_rounds(
            "test",
            &inst,
            &oracle,
            true,
            &BudgetClock::unlimited(),
            |_, _, round| Ok(*inst.point(round)),
        )
        .unwrap()
        .into_solution();
        assert_eq!(sol.solver, "test");
        assert_eq!(sol.centers.len(), 2);
        assert_eq!(sol.round_gains, vec![1.0, 2.0]);
        assert_eq!(sol.total_reward, 3.0);
        assert!(sol.verify_consistency(&inst));
        let tr = sol.assignments.unwrap();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0], vec![1.0, 0.0]);
        assert_eq!(tr[1], vec![0.0, 1.0]);
    }

    #[test]
    fn cumulative_gains() {
        let sol = Solution::<2> {
            solver: "s".into(),
            centers: vec![],
            round_gains: vec![3.0, 2.0, 1.0],
            total_reward: 6.0,
            evals: 0,
            assignments: None,
        };
        assert_eq!(sol.cumulative_gains(), vec![3.0, 5.0, 6.0]);
    }

    #[test]
    fn verify_consistency_detects_mismatch() {
        let inst = inst();
        let sol = Solution {
            solver: "bad".into(),
            centers: vec![*inst.point(0)],
            round_gains: vec![99.0],
            total_reward: 99.0,
            evals: 0,
            assignments: None,
        };
        assert!(!sol.verify_consistency(&inst));
    }

    #[test]
    fn trace_disabled_by_default_shape() {
        let inst = inst();
        let oracle = GainOracle::new(&inst, crate::oracle::OracleStrategy::Seq);
        let sol = run_rounds(
            "t",
            &inst,
            &oracle,
            false,
            &BudgetClock::unlimited(),
            |_, _, _| Ok(*inst.point(0)),
        )
        .unwrap()
        .into_solution();
        assert!(sol.assignments.is_none());
    }

    #[test]
    fn exhausted_budget_degrades_with_empty_prefix() {
        let inst = inst();
        let oracle = GainOracle::new(&inst, crate::oracle::OracleStrategy::Seq);
        let clock = SolveBudget::unlimited().with_max_evals(0).start();
        let out = run_rounds("t", &inst, &oracle, false, &clock, |_, _, _| {
            panic!("pick must not run on an exhausted budget")
        })
        .unwrap();
        assert!(!out.is_complete());
        assert!(out.centers().is_empty());
        assert_eq!(out.value(), 0.0);
    }

    #[test]
    fn partial_budget_returns_prefix() {
        let inst = inst();
        let oracle = GainOracle::new(&inst, crate::oracle::OracleStrategy::Seq);
        // One eval allowed: round 0 passes the check (0 < 1), charges an
        // eval in pick, and round 1's check trips.
        let clock = SolveBudget::unlimited().with_max_evals(1).start();
        let out = run_rounds("t", &inst, &oracle, false, &clock, |o, res, _| {
            Ok(*inst.point(o.best_candidate(res).index))
        })
        .unwrap();
        assert!(!out.is_complete());
        assert_eq!(out.centers().len(), 1);
        assert!(out.value() > 0.0);
    }
}

//! Budget-aware degradation ladder (robustness extension).
//!
//! Real broadcast schedulers must produce *some* center set before the
//! next period starts, even when the preferred algorithm is too slow or
//! crashes. [`AdaptiveSolver`] encodes the paper's own quality ordering
//! as a ladder:
//!
//! 1. `greedy4` ([`ComplexGreedy`]) — continuous centers, best quality,
//!    most expensive;
//! 2. `greedy2-lazy` ([`LocalGreedy`] on [`OracleStrategy::Lazy`]) —
//!    point candidates with CELF acceleration;
//! 3. `greedy3` ([`SimpleGreedy`]) — `O(kn)`, charges zero objective
//!    evaluations, essentially cannot run out of budget.
//!
//! Each rung runs under the *remaining* budget (wall-clock deadline and
//! eval cap both carry over) and inside `catch_unwind`, so a panicking
//! rung steps the ladder down instead of unwinding into the caller. The
//! first rung to complete wins; if none completes, the best-valued
//! degraded prefix collected on the way down is returned. The ladder
//! itself never panics.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::budget::{DegradeReason, SolveBudget, SolveOutcome, SolveStatus};
use crate::instance::Instance;
use crate::oracle::OracleStrategy;
use crate::solver::{Solution, Solver};
use crate::solvers::{ComplexGreedy, LocalGreedy, SimpleGreedy};
use crate::{CoreError, Result};

/// Degradation-ladder solver. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveSolver;

impl AdaptiveSolver {
    /// The default ladder: greedy4 → greedy2-lazy → greedy3.
    pub fn new() -> Self {
        AdaptiveSolver
    }
}

/// Runs `rungs` in order under a shared budget. Extracted from
/// [`AdaptiveSolver`] so tests can inject misbehaving rungs.
fn run_ladder<const D: usize>(
    inst: &Instance<D>,
    budget: &SolveBudget,
    rungs: &[(&str, &dyn Solver<D>)],
) -> Result<SolveOutcome<D>> {
    let clock = budget.start();
    let mut evals_spent = 0u64;
    let mut best: Option<(Solution<D>, DegradeReason)> = None;
    let mut last_reason: Option<DegradeReason> = None;
    let mut last_err: Option<CoreError> = None;
    for &(name, rung) in rungs {
        let remaining = clock.remaining(evals_spent);
        match catch_unwind(AssertUnwindSafe(|| rung.solve_within(inst, &remaining))) {
            Ok(Ok(outcome)) => {
                evals_spent += outcome.solution.evals;
                match outcome.status {
                    SolveStatus::Completed => {
                        let mut sol = outcome.solution;
                        sol.solver = format!("adaptive:{name}");
                        sol.evals = evals_spent;
                        return Ok(SolveOutcome::completed(sol));
                    }
                    SolveStatus::Degraded { reason } => {
                        last_reason = Some(reason.clone());
                        if best
                            .as_ref()
                            .is_none_or(|(b, _)| outcome.solution.total_reward > b.total_reward)
                        {
                            let mut sol = outcome.solution;
                            sol.solver = name.to_owned();
                            best = Some((sol, reason));
                        }
                    }
                }
            }
            Ok(Err(e)) => {
                last_reason = Some(DegradeReason::RungFailed {
                    rung: name.to_owned(),
                    error: e.to_string(),
                });
                last_err = Some(e);
            }
            Err(_panic_payload) => {
                last_reason = Some(DegradeReason::RungPanicked {
                    rung: name.to_owned(),
                });
            }
        }
    }
    // No rung completed: return the best degraded prefix, then a typed
    // error, and only as a last resort an empty degraded solution (all
    // rungs panicked).
    if let Some((mut sol, reason)) = best {
        sol.solver = format!("adaptive:{}", sol.solver);
        sol.evals = evals_spent;
        return Ok(SolveOutcome::degraded(sol, reason));
    }
    if let Some(e) = last_err {
        return Err(e);
    }
    let sol = Solution {
        solver: "adaptive".to_owned(),
        centers: Vec::new(),
        round_gains: Vec::new(),
        total_reward: 0.0,
        evals: evals_spent,
        assignments: None,
    };
    let reason = last_reason.unwrap_or(DegradeReason::RungPanicked {
        rung: "adaptive".to_owned(),
    });
    Ok(SolveOutcome::degraded(sol, reason))
}

impl<const D: usize> Solver<D> for AdaptiveSolver {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn solve(&self, inst: &Instance<D>) -> Result<Solution<D>> {
        Ok(self
            .solve_within(inst, &SolveBudget::unlimited())?
            .into_solution())
    }

    fn solve_within(&self, inst: &Instance<D>, budget: &SolveBudget) -> Result<SolveOutcome<D>> {
        let g4 = ComplexGreedy::new();
        let lazy = LocalGreedy::new().with_oracle(OracleStrategy::Lazy);
        let g3 = SimpleGreedy::new();
        run_ladder(
            inst,
            budget,
            &[("greedy4", &g4), ("greedy2-lazy", &lazy), ("greedy3", &g3)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmph_geom::{Norm, Point};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    fn random_instance(n: usize, k: usize, seed: u64) -> Instance<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]))
            .collect();
        let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(1..=5) as f64).collect();
        Instance::new(pts, ws, 1.0, k, Norm::L2).unwrap()
    }

    struct PanickingSolver;

    impl<const D: usize> Solver<D> for PanickingSolver {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn solve(&self, _inst: &Instance<D>) -> Result<Solution<D>> {
            panic!("intentional test panic");
        }

        fn solve_within(
            &self,
            _inst: &Instance<D>,
            _budget: &SolveBudget,
        ) -> Result<SolveOutcome<D>> {
            panic!("intentional test panic");
        }
    }

    struct FailingSolver;

    impl<const D: usize> Solver<D> for FailingSolver {
        fn name(&self) -> &'static str {
            "failing"
        }

        fn solve(&self, _inst: &Instance<D>) -> Result<Solution<D>> {
            Err(CoreError::InvalidConfig("intentional test error".into()))
        }
    }

    #[test]
    fn unlimited_budget_completes_on_first_rung() {
        let inst = random_instance(25, 3, 1);
        let out = AdaptiveSolver::new()
            .solve_within(&inst, &SolveBudget::unlimited())
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.solution.solver, "adaptive:greedy4");
        assert_eq!(out.centers().len(), 3);
        let direct = ComplexGreedy::new().solve(&inst).unwrap();
        assert_eq!(out.centers(), &direct.centers[..]);
    }

    #[test]
    fn exhausted_budget_degrades_without_panic() {
        let inst = random_instance(25, 3, 2);
        let out = AdaptiveSolver::new()
            .solve_within(&inst, &SolveBudget::unlimited().with_max_evals(0))
            .unwrap();
        assert!(!out.is_complete());
        assert!(out.value() <= ComplexGreedy::new().solve(&inst).unwrap().total_reward + 1e-9);
    }

    #[test]
    fn zero_deadline_degrades_without_panic() {
        let inst = random_instance(25, 3, 3);
        let out = AdaptiveSolver::new()
            .solve_within(
                &inst,
                &SolveBudget::unlimited().with_deadline(Duration::ZERO),
            )
            .unwrap();
        assert!(!out.is_complete());
    }

    #[test]
    fn panicking_rung_steps_down_to_next() {
        let inst = random_instance(20, 2, 4);
        let g3 = SimpleGreedy::new();
        let out = run_ladder(
            &inst,
            &SolveBudget::unlimited(),
            &[("panicking", &PanickingSolver), ("greedy3", &g3)],
        )
        .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.solution.solver, "adaptive:greedy3");
        let direct = SimpleGreedy::new().solve(&inst).unwrap();
        assert_eq!(out.centers(), &direct.centers[..]);
    }

    #[test]
    fn all_rungs_panicking_returns_empty_degraded() {
        let inst = random_instance(10, 2, 5);
        let out = run_ladder(
            &inst,
            &SolveBudget::unlimited(),
            &[("p1", &PanickingSolver), ("p2", &PanickingSolver)],
        )
        .unwrap();
        assert!(!out.is_complete());
        assert!(out.centers().is_empty());
        match out.status {
            SolveStatus::Degraded {
                reason: DegradeReason::RungPanicked { ref rung },
            } => assert_eq!(rung, "p2"),
            ref other => panic!("unexpected status {other:?}"),
        }
    }

    #[test]
    fn failing_rung_steps_down_and_error_is_last_resort() {
        let inst = random_instance(10, 2, 6);
        let g3 = SimpleGreedy::new();
        let out = run_ladder(
            &inst,
            &SolveBudget::unlimited(),
            &[("failing", &FailingSolver), ("greedy3", &g3)],
        )
        .unwrap();
        assert!(out.is_complete());
        // All rungs failing surfaces the typed error instead.
        let err = run_ladder(
            &inst,
            &SolveBudget::unlimited(),
            &[("failing", &FailingSolver)],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn plain_solve_matches_complex_greedy() {
        let inst = random_instance(30, 4, 7);
        let a = AdaptiveSolver::new().solve(&inst).unwrap();
        let b = ComplexGreedy::new().solve(&inst).unwrap();
        assert_eq!(a.centers, b.centers);
        assert!((a.total_reward - b.total_reward).abs() < 1e-12);
    }
}

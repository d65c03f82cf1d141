//! Property-based contracts for budgeted, interruptible solving.
//!
//! The robustness invariants behind `--deadline-ms` / `--max-evals`:
//! an exhausted budget must yield a `Degraded` outcome whose best-so-far
//! centers are a *valid* partial solution — never a panic, never a
//! reward above what the unbudgeted solver achieves, and never an empty
//! answer dressed up as `Completed`.

use mmph_core::solvers::{
    AdaptiveSolver, BeamSearch, ComplexGreedy, Exhaustive, KCenter, KMeans, LocalGreedy,
    LocalSearch, RoundBased, SeededGreedy, SimpleGreedy, StochasticGreedy,
};
use mmph_core::{Instance, OracleStrategy, SolveBudget, Solver};
use mmph_geom::{Norm, Point};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    -4.0..4.0f64
}

fn point2() -> impl Strategy<Value = Point<2>> {
    (coord(), coord()).prop_map(|(x, y)| Point::new([x, y]))
}

fn weighted_points(max: usize) -> impl Strategy<Value = Vec<(Point<2>, f64)>> {
    prop::collection::vec((point2(), (1u32..=5).prop_map(f64::from)), 1..max)
}

/// Every solver in the registry. `kmeans` demands L2, so it is skipped
/// under other norms.
fn all_solvers(norm: Norm) -> Vec<(&'static str, Box<dyn Solver<2>>)> {
    let mut solvers: Vec<(&'static str, Box<dyn Solver<2>>)> = vec![
        ("greedy1", Box::new(RoundBased::grid())),
        ("greedy1-sa", Box::new(RoundBased::annealing())),
        ("greedy2", Box::new(LocalGreedy::new())),
        ("greedy3", Box::new(SimpleGreedy::new())),
        ("greedy4", Box::new(ComplexGreedy::new())),
        (
            "lazy",
            Box::new(LocalGreedy::new().with_oracle(OracleStrategy::Lazy)),
        ),
        ("stochastic", Box::new(StochasticGreedy::new())),
        ("seeded", Box::new(SeededGreedy::new())),
        ("beam", Box::new(BeamSearch::new())),
        ("local-search", Box::new(LocalSearch::new())),
        ("kcenter", Box::new(KCenter::new())),
        ("exhaustive", Box::new(Exhaustive::new())),
        ("adaptive", Box::new(AdaptiveSolver::new())),
    ];
    if norm == Norm::L2 {
        solvers.push(("kmeans", Box::new(KMeans::new())));
    }
    solvers
}

fn check_exhausted_budget(pts: Vec<(Point<2>, f64)>, k: usize, r: f64, norm: Norm) {
    let (points, weights): (Vec<_>, Vec<_>) = pts.into_iter().unzip();
    let inst = Instance::new(points, weights, r, k, norm).unwrap();
    let exhausted = SolveBudget::unlimited().with_max_evals(0);
    for (name, solver) in all_solvers(norm) {
        let out = solver
            .solve_within(&inst, &exhausted)
            .unwrap_or_else(|e| panic!("{name} errored under zero budget: {e}"));
        prop_assert!(!out.is_complete(), "{} claimed completion", name);
        // Best-so-far centers form a valid partial solution.
        prop_assert!(out.centers().len() <= k, "{}", name);
        prop_assert!(out.value().is_finite(), "{}", name);
        prop_assert!(out.value() >= 0.0, "{}", name);
        if !out.centers().is_empty() {
            prop_assert!(
                out.value() > 0.0,
                "{}: {} centers but zero reward",
                name,
                out.centers().len()
            );
        }
        // The greedy prefix property: a budgeted run can never beat the
        // unbudgeted one.
        let full = solver.solve(&inst).unwrap();
        prop_assert!(
            out.value() <= full.total_reward + 1e-9,
            "{}: degraded {} > unbudgeted {}",
            name,
            out.value(),
            full.total_reward
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exhausted_budget_degrades_cleanly_l2(
        pts in weighted_points(14),
        k in 1usize..4,
        r in 0.3..2.0f64,
    ) {
        check_exhausted_budget(pts, k, r, Norm::L2);
    }

    #[test]
    fn exhausted_budget_degrades_cleanly_l1(
        pts in weighted_points(14),
        k in 1usize..4,
        r in 0.3..2.0f64,
    ) {
        check_exhausted_budget(pts, k, r, Norm::L1);
    }

    #[test]
    fn partial_eval_budgets_never_beat_unbudgeted(
        pts in weighted_points(14),
        k in 1usize..4,
        max_evals in 0u64..200,
    ) {
        let (points, weights): (Vec<_>, Vec<_>) = pts.into_iter().unzip();
        let inst = Instance::new(points, weights, 1.0, k, Norm::L2).unwrap();
        let budget = SolveBudget::unlimited().with_max_evals(max_evals);
        for (name, solver) in all_solvers(Norm::L2) {
            let out = solver.solve_within(&inst, &budget).unwrap();
            prop_assert!(out.centers().len() <= k, "{}", name);
            prop_assert!(out.value().is_finite(), "{}", name);
            let full = solver.solve(&inst).unwrap();
            prop_assert!(
                out.value() <= full.total_reward + 1e-9,
                "{}: budgeted {} > unbudgeted {}",
                name,
                out.value(),
                full.total_reward
            );
        }
    }

    #[test]
    fn adaptive_never_panics_under_any_budget(
        pts in weighted_points(18),
        k in 1usize..5,
        max_evals in 0u64..500,
        deadline_ms in 0u64..3,
    ) {
        let (points, weights): (Vec<_>, Vec<_>) = pts.into_iter().unzip();
        let inst = Instance::new(points, weights, 1.0, k, Norm::L2).unwrap();
        let mut budget = SolveBudget::unlimited().with_max_evals(max_evals);
        // deadline_ms == 2 means "no deadline"; 0 and 1 race the clock.
        if deadline_ms < 2 {
            budget = budget.with_deadline_ms(deadline_ms);
        }
        // The ladder isolates rung panics and always returns an outcome
        // (degraded at worst) or a typed error — both are fine; a panic
        // would abort this test.
        let out = AdaptiveSolver::new().solve_within(&inst, &budget).unwrap();
        prop_assert!(out.centers().len() <= k);
        prop_assert!(out.value().is_finite());
        prop_assert!(out.value() >= 0.0);
    }
}

//! Property-based contracts for cooperative mid-solve cancellation.
//!
//! The serving layer trips a [`CancelToken`] when a client disconnects
//! or sheds stale work; the solver must then return a `Degraded`
//! best-so-far prefix — deterministically. [`CancelToken::tripping_after`]
//! makes the trip point exact (the j-th counted eval-check), which pins
//! the strongest form of the contract: the committed prefix of a
//! cancelled run is bit-identical to the leading picks of the
//! uncancelled run, because pre-trip evaluation sequences are
//! unperturbed by the token riding along.

use mmph_core::solvers::{
    AdaptiveSolver, BeamSearch, ComplexGreedy, Exhaustive, KCenter, KMeans, LocalGreedy,
    LocalSearch, RoundBased, SeededGreedy, SimpleGreedy, StochasticGreedy,
};
use mmph_core::{
    CancelToken, DegradeReason, EngineKind, Instance, OracleStrategy, SolveBudget, SolveStatus,
    Solver,
};
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
        ("lazy-grid", Box::new(lazy_grid())),
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

/// The solvers whose budgeted path commits centers one round at a time
/// through the shared round loop, so a cancelled run's centers are a
/// literal prefix of the uncancelled selection. Refining or reseeding
/// solvers (beam, local-search, kmeans, seeded, …) return a valid
/// best-so-far set but not a pick-order prefix, so they are covered by
/// the weaker determinism contract only.
fn prefix_solvers() -> Vec<(&'static str, Box<dyn Solver<2>>)> {
    vec![
        ("greedy1", Box::new(RoundBased::grid())),
        ("greedy1-sa", Box::new(RoundBased::annealing())),
        ("greedy2", Box::new(LocalGreedy::new())),
        ("greedy3", Box::new(SimpleGreedy::new())),
        ("greedy4", Box::new(ComplexGreedy::new())),
        (
            "lazy",
            Box::new(LocalGreedy::new().with_oracle(OracleStrategy::Lazy)),
        ),
        ("lazy-grid", Box::new(lazy_grid())),
        ("stochastic", Box::new(StochasticGreedy::new())),
    ]
}

/// The CELF greedy on the grid engine, which primes its heap from one
/// bulk root pass instead of a query per candidate.
fn lazy_grid() -> LocalGreedy {
    LocalGreedy::new()
        .with_oracle(OracleStrategy::Lazy)
        .with_engine(EngineKind::Grid)
}

fn instance(pts: Vec<(Point<2>, f64)>, k: usize, r: f64, norm: Norm) -> Instance<2> {
    let (points, weights): (Vec<_>, Vec<_>) = pts.into_iter().unzip();
    Instance::new(points, weights, r, k, norm).unwrap()
}

fn check_prefix_identity(inst: &Instance<2>, j: u64, norm: Norm) {
    for (name, solver) in prefix_solvers() {
        let full = solver.solve(inst).unwrap_or_else(|e| panic!("{name}: {e}"));
        let budget = SolveBudget::unlimited().with_cancel(CancelToken::tripping_after(j));
        let out = solver
            .solve_within(inst, &budget)
            .unwrap_or_else(|e| panic!("{name} errored when cancelled at check {j}: {e}"));
        if out.is_complete() {
            // The token never tripped: fewer than j checks in the whole
            // run, so the result must be the full selection.
            prop_assert_eq!(
                out.centers(),
                full.centers.as_slice(),
                "{} completed under an untripped token but diverged",
                name
            );
            continue;
        }
        prop_assert_eq!(
            &out.status,
            &SolveStatus::Degraded {
                reason: DegradeReason::Cancelled
            },
            "{} under {:?}",
            name,
            norm
        );
        let picks = out.centers().len();
        prop_assert!(picks <= full.centers.len(), "{}", name);
        // Bit-identity: Point equality is exact f64 comparison, and the
        // per-round gains must telescope identically too.
        prop_assert_eq!(
            out.centers(),
            &full.centers[..picks],
            "{}: cancelled prefix diverges from the uncancelled picks",
            name
        );
        prop_assert_eq!(
            &out.solution.round_gains,
            &full.round_gains[..picks].to_vec(),
            "{}: prefix gains diverge",
            name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cancelled_prefix_is_bit_identical_l2(
        pts in weighted_points(12),
        k in 1usize..4,
        r in 0.3..2.0f64,
        j in 1u64..80,
    ) {
        check_prefix_identity(&instance(pts, k, r, Norm::L2), j, Norm::L2);
    }

    #[test]
    fn cancelled_prefix_is_bit_identical_l1(
        pts in weighted_points(12),
        k in 1usize..4,
        r in 0.3..2.0f64,
        j in 1u64..80,
    ) {
        check_prefix_identity(&instance(pts, k, r, Norm::L1), j, Norm::L1);
    }

    /// Every solver — prefix-committing or refining — must cancel
    /// deterministically: two runs with the same trip point agree bit
    /// for bit, never panic, and never beat the uncancelled value.
    #[test]
    fn cancellation_is_deterministic_for_all_solvers(
        pts in weighted_points(12),
        k in 1usize..4,
        j in 1u64..80,
    ) {
        let inst = instance(pts, k, 1.0, Norm::L2);
        for (name, solver) in all_solvers(Norm::L2) {
            let run = || {
                let budget =
                    SolveBudget::unlimited().with_cancel(CancelToken::tripping_after(j));
                solver
                    .solve_within(&inst, &budget)
                    .unwrap_or_else(|e| panic!("{name} errored when cancelled at check {j}: {e}"))
            };
            let a = run();
            let b = run();
            prop_assert_eq!(&a.status, &b.status, "{}: status nondeterministic", name);
            prop_assert_eq!(
                a.centers(),
                b.centers(),
                "{}: cancelled picks nondeterministic",
                name
            );
            prop_assert_eq!(
                a.value().to_bits(),
                b.value().to_bits(),
                "{}: cancelled value drifts across reruns",
                name
            );
            prop_assert_eq!(
                a.solution.evals,
                b.solution.evals,
                "{}: eval accounting nondeterministic",
                name
            );
            prop_assert!(a.centers().len() <= k, "{}", name);
            prop_assert!(a.value().is_finite() && a.value() >= 0.0, "{}", name);
            let full = solver.solve(&inst).unwrap();
            prop_assert!(
                a.value() <= full.total_reward + 1e-9,
                "{}: cancelled {} > uncancelled {}",
                name,
                a.value(),
                full.total_reward
            );
        }
    }

    /// The grid engine's bulk prime cuts where a per-candidate prime
    /// does: with the trip inside the prime (`j ≤ n`) or after it, the
    /// lazy greedy on the grid engine returns what it returns on the
    /// scan engine — same status, centers, gains and eval count — after
    /// the same number of counted checks. (The sparse engine's
    /// dirty-region skips save re-scores, and with them checks, so its
    /// post-prime cuts land elsewhere.)
    #[test]
    fn grid_prime_cuts_where_the_per_candidate_prime_does(
        pts in weighted_points(30),
        k in 1usize..5,
        r in 0.3..2.0f64,
        at in 0u64..80,
    ) {
        let inst = instance(pts, k, r, Norm::L2);
        let n = inst.n() as u64;
        // Half the cases trip inside the prime's n checks, half after.
        let inside = at < 40;
        let j = if inside { 1 + at % n } else { n + at - 39 };
        let run = |engine: EngineKind| {
            let token = CancelToken::tripping_after(j);
            let budget = SolveBudget::unlimited().with_cancel(token.clone());
            let out = LocalGreedy::new()
                .with_oracle(OracleStrategy::Lazy)
                .with_engine(engine)
                .solve_within(&inst, &budget)
                .unwrap();
            (out, token.checks())
        };
        let (grid, grid_checks) = run(EngineKind::Grid);
        if inside {
            prop_assert_eq!(
                &grid.status,
                &SolveStatus::Degraded { reason: DegradeReason::Cancelled }
            );
            prop_assert!(grid.centers().is_empty(), "a cut in the prime commits nothing");
            prop_assert_eq!(grid.solution.evals, j - 1);
        }
        let (scan, scan_checks) = run(EngineKind::Scan);
        prop_assert_eq!(&grid.status, &scan.status);
        prop_assert_eq!(grid.centers(), scan.centers());
        prop_assert_eq!(&grid.solution.round_gains, &scan.solution.round_gains);
        prop_assert_eq!(grid.solution.evals, scan.solution.evals);
        prop_assert_eq!(grid_checks, scan_checks);
    }

    /// A token tripped before the solve starts yields an empty prefix
    /// without charging a single eval — the "shed without burning a
    /// worker" guarantee the admission controller relies on.
    #[test]
    fn pre_tripped_token_charges_nothing(
        pts in weighted_points(12),
        k in 1usize..4,
    ) {
        let inst = instance(pts, k, 1.0, Norm::L2);
        for (name, solver) in all_solvers(Norm::L2) {
            let budget = SolveBudget::unlimited().with_cancel(CancelToken::tripping_after(0));
            let out = solver
                .solve_within(&inst, &budget)
                .unwrap_or_else(|e| panic!("{name} errored under a pre-tripped token: {e}"));
            prop_assert!(!out.is_complete(), "{} claimed completion", name);
            prop_assert!(
                out.centers().is_empty(),
                "{} committed {} centers after pre-trip",
                name,
                out.centers().len()
            );
            prop_assert_eq!(out.value(), 0.0, "{}", name);
            prop_assert_eq!(out.solution.evals, 0, "{} charged evals after pre-trip", name);
        }
    }
}

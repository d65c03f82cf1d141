//! Property-based tests (proptest) over the core invariants.

use mmph::prelude::*;
use mmph_core::{reward, GridIndex};
use mmph_geom::welzl::min_enclosing_ball;
use mmph_geom::Point as GPoint;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn coord() -> impl Strategy<Value = f64> {
    // Finite coordinates in a generous box around the paper's space.
    -10.0..10.0f64
}

fn point2() -> impl Strategy<Value = GPoint<2>> {
    (coord(), coord()).prop_map(|(x, y)| GPoint::new([x, y]))
}

fn point3() -> impl Strategy<Value = GPoint<3>> {
    (coord(), coord(), coord()).prop_map(|(x, y, z)| GPoint::new([x, y, z]))
}

fn weight() -> impl Strategy<Value = f64> {
    0.1..10.0f64
}

fn norm() -> impl Strategy<Value = Norm> {
    prop_oneof![
        Just(Norm::L1),
        Just(Norm::L2),
        Just(Norm::LInf),
        (1.1..6.0f64).prop_map(|p| Norm::lp(p).unwrap()),
    ]
}

prop_compose! {
    fn instance2()(
        pts in prop::collection::vec(point2(), 1..25),
        seed_weights in prop::collection::vec(weight(), 25),
        r in 0.1..5.0f64,
        k in 1usize..5,
        norm in norm(),
    ) -> Instance<2> {
        let n = pts.len();
        let ws = seed_weights[..n].to_vec();
        Instance::new(pts, ws, r, k, norm).expect("strategy emits valid instances")
    }
}

// ---------------------------------------------------------------------
// Norm axioms
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn norm_symmetry(a in point2(), b in point2(), n in norm()) {
        prop_assert!((n.dist(&a, &b) - n.dist(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn norm_identity(a in point2(), n in norm()) {
        prop_assert!(n.dist(&a, &a).abs() < 1e-12);
    }

    #[test]
    fn norm_nonnegative(a in point2(), b in point2(), n in norm()) {
        prop_assert!(n.dist(&a, &b) >= 0.0);
    }

    #[test]
    fn norm_triangle_inequality(a in point2(), b in point2(), c in point2(), n in norm()) {
        let direct = n.dist(&a, &c);
        let via = n.dist(&a, &b) + n.dist(&b, &c);
        prop_assert!(direct <= via + 1e-9, "direct {direct} via {via}");
    }

    #[test]
    fn norm_ordering_l1_ge_l2_ge_linf(a in point2(), b in point2()) {
        let l1 = Norm::L1.dist(&a, &b);
        let l2 = Norm::L2.dist(&a, &b);
        let li = Norm::LInf.dist(&a, &b);
        prop_assert!(l1 >= l2 - 1e-12);
        prop_assert!(l2 >= li - 1e-12);
    }
}

// ---------------------------------------------------------------------
// Smallest enclosing ball
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn welzl_contains_all_points_2d(pts in prop::collection::vec(point2(), 1..60)) {
        let ball = min_enclosing_ball(&pts);
        for p in &pts {
            prop_assert!(ball.contains(p), "point {p} outside r={}", ball.radius);
        }
    }

    #[test]
    fn welzl_contains_all_points_3d(pts in prop::collection::vec(point3(), 1..40)) {
        let ball = min_enclosing_ball(&pts);
        for p in &pts {
            prop_assert!(ball.contains(p));
        }
    }

    #[test]
    fn welzl_no_smaller_than_pair_diameter(pts in prop::collection::vec(point2(), 2..30)) {
        // The ball must be at least half the largest pairwise distance.
        let mut diameter = 0.0f64;
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                diameter = diameter.max(pts[i].dist_l2(&pts[j]));
            }
        }
        let ball = min_enclosing_ball(&pts);
        prop_assert!(ball.radius >= diameter / 2.0 - 1e-9);
    }

    #[test]
    fn welzl_beats_or_ties_centroid_ball(pts in prop::collection::vec(point2(), 1..40)) {
        let ball = min_enclosing_ball(&pts);
        let centroid = GPoint::centroid(&pts).unwrap();
        let centroid_r = pts.iter().map(|p| centroid.dist_l2(p)).fold(0.0f64, f64::max);
        prop_assert!(ball.radius <= centroid_r + 1e-9);
    }
}

// ---------------------------------------------------------------------
// Occupied-cell index vs linear scan
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn cell_index_radius_query_equals_scan(
        pts in prop::collection::vec(point2(), 1..80),
        c in point2(),
        r in 0.0..8.0f64,
        n in norm(),
    ) {
        // Cells of side r, as the engines build them.
        let grid = GridIndex::build_for_radius(&pts, r).unwrap();
        let mut got: Vec<usize> = grid.within(&c, r, n).into_iter().map(|(i, _)| i).collect();
        got.sort_unstable();
        let want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| n.dist(&c, p) <= r)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------
// Reward model invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn objective_bounded_by_total_weight(
        inst in instance2(),
        centers in prop::collection::vec(point2(), 0..6),
    ) {
        let f = reward::objective(&inst, &centers);
        prop_assert!(f >= 0.0);
        prop_assert!(f <= inst.total_weight() + 1e-9);
    }

    #[test]
    fn objective_monotone_in_centers(
        inst in instance2(),
        centers in prop::collection::vec(point2(), 1..6),
    ) {
        let mut f_prev = 0.0;
        for m in 1..=centers.len() {
            let f = reward::objective(&inst, &centers[..m]);
            prop_assert!(f >= f_prev - 1e-9);
            f_prev = f;
        }
    }

    #[test]
    fn objective_submodular_random_triples(
        inst in instance2(),
        a in prop::collection::vec(point2(), 0..3),
        extra in prop::collection::vec(point2(), 1..3),
        s in point2(),
    ) {
        prop_assert!(mmph_core::submodular::check_submodular(&inst, &a, &extra, &s, 1e-9));
    }

    #[test]
    fn residuals_stay_in_unit_interval(
        inst in instance2(),
        centers in prop::collection::vec(point2(), 1..6),
    ) {
        let mut res = reward::Residuals::new(inst.n());
        for c in &centers {
            let gain = res.apply(&inst, c);
            prop_assert!(gain >= 0.0);
            for &y in res.as_slice() {
                prop_assert!((0.0..=1.0 + 1e-12).contains(&y), "y = {y}");
            }
        }
    }

    #[test]
    fn telescoped_gains_equal_objective(
        inst in instance2(),
        centers in prop::collection::vec(point2(), 1..6),
    ) {
        let mut res = reward::Residuals::new(inst.n());
        let total: f64 = centers.iter().map(|c| res.apply(&inst, c)).sum();
        let f = reward::objective(&inst, &centers);
        prop_assert!((total - f).abs() < 1e-9 * (1.0 + f), "{total} vs {f}");
    }
}

// ---------------------------------------------------------------------
// Solver invariants on random instances
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_solvers_produce_consistent_solutions(inst in instance2()) {
        for sol in [
            LocalGreedy::new().solve(&inst).unwrap(),
            SimpleGreedy::new().solve(&inst).unwrap(),
            ComplexGreedy::new().solve(&inst).unwrap(),
            LocalGreedy::new().with_oracle(OracleStrategy::Lazy).solve(&inst).unwrap(),
        ] {
            prop_assert_eq!(sol.centers.len(), inst.k());
            prop_assert!(sol.verify_consistency(&inst), "{} inconsistent", sol.solver);
            prop_assert!(sol.round_gains.iter().all(|&g| g >= -1e-12));
        }
    }

    #[test]
    fn lazy_equals_eager_everywhere(inst in instance2()) {
        let eager = LocalGreedy::new().solve(&inst).unwrap();
        let lazy = LocalGreedy::new().with_oracle(OracleStrategy::Lazy).solve(&inst).unwrap();
        prop_assert_eq!(&eager.centers, &lazy.centers);
        prop_assert!((eager.total_reward - lazy.total_reward).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_dominates_on_small_instances(
        pts in prop::collection::vec(point2(), 2..9),
        r in 0.5..3.0f64,
        norm in norm(),
    ) {
        let n = pts.len();
        let inst = Instance::new(pts, vec![1.0; n], r, 2.min(n), norm).unwrap();
        let opt = Exhaustive::new().sequential().solve(&inst).unwrap();
        let g2 = LocalGreedy::new().solve(&inst).unwrap();
        let g3 = SimpleGreedy::new().solve(&inst).unwrap();
        prop_assert!(opt.total_reward >= g2.total_reward - 1e-9);
        prop_assert!(opt.total_reward >= g3.total_reward - 1e-9);
    }

    #[test]
    fn instance_serde_roundtrip(inst in instance2()) {
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance<2> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(inst, back);
    }
}

//! Property-based cross-checks of the geometry substrate against slow
//! oracles.

use mmph_geom::hull::{convex_hull, hull_contains};
use mmph_geom::l1ball::{l1_minimax_center_2d, l1_radius_at, projection_center};
use mmph_geom::welzl::{circumball, min_enclosing_ball, ritter_ball};
use mmph_geom::{Aabb, Point};
use proptest::prelude::*;

type P2 = Point<2>;

fn coord() -> impl Strategy<Value = f64> {
    -8.0..8.0f64
}

fn point2() -> impl Strategy<Value = P2> {
    (coord(), coord()).prop_map(|(x, y)| Point::new([x, y]))
}

fn points(max: usize) -> impl Strategy<Value = Vec<P2>> {
    prop::collection::vec(point2(), 1..max)
}

proptest! {
    // ------------------------------------------------------------------
    // Aabb
    // ------------------------------------------------------------------

    #[test]
    fn aabb_contains_its_points_and_center(pts in points(40)) {
        let b = Aabb::from_points(&pts).unwrap();
        for p in &pts {
            prop_assert!(b.contains(p));
        }
        prop_assert!(b.contains(&b.center()));
    }

    #[test]
    fn aabb_linf_radius_is_minimax(pts in points(30)) {
        // The box center's L∞ radius must not exceed any point's.
        let b = Aabb::from_points(&pts).unwrap();
        let c = b.center();
        let r_center = pts.iter().map(|p| c.dist_linf(p)).fold(0.0f64, f64::max);
        prop_assert!((r_center - b.linf_radius()).abs() < 1e-9);
        for probe in &pts {
            let r_probe = pts.iter().map(|p| probe.dist_linf(p)).fold(0.0f64, f64::max);
            prop_assert!(r_probe >= b.linf_radius() - 1e-9);
        }
    }

    #[test]
    fn aabb_clamp_is_idempotent_and_inside(p in point2(), q in point2(), probe in point2()) {
        let b = Aabb::new(p, q);
        let clamped = b.clamp(&probe);
        prop_assert!(b.contains(&clamped));
        prop_assert_eq!(b.clamp(&clamped), clamped);
        // Clamp distance equals box distance under L2.
        prop_assert!((probe.dist_l2(&clamped).powi(2) - b.dist_sq_to(&probe)).abs() < 1e-9);
    }

    // ------------------------------------------------------------------
    // Enclosing balls
    // ------------------------------------------------------------------

    #[test]
    fn welzl_support_is_at_most_three_in_2d(pts in points(50)) {
        // The optimal ball is determined by <= 3 points: verify that the
        // ball's boundary touches enough points to pin it, by checking
        // that shrinking the radius by epsilon always excludes a point.
        let ball = min_enclosing_ball(&pts);
        if ball.radius > 1e-6 {
            let shrunk = ball.radius * (1.0 - 1e-6);
            let all_inside_shrunk = pts
                .iter()
                .all(|p| ball.center.dist_l2(p) <= shrunk);
            prop_assert!(!all_inside_shrunk, "ball was not tight");
        }
    }

    #[test]
    fn ritter_never_smaller_than_exact(pts in points(60)) {
        let exact = min_enclosing_ball(&pts);
        let approx = ritter_ball(&pts, 4);
        prop_assert!(approx.radius >= exact.radius - 1e-9);
        for p in &pts {
            prop_assert!(approx.contains(p));
        }
    }

    #[test]
    fn circumball_passes_through_support(a in point2(), b in point2(), c in point2()) {
        let ball = circumball(&[a, b, c]);
        // All three support points are within the ball; the farthest is
        // on the boundary by construction.
        for p in [a, b, c] {
            prop_assert!(ball.contains(&p));
        }
        let max_d = [a, b, c]
            .iter()
            .map(|p| ball.center.dist_l2(p))
            .fold(0.0f64, f64::max);
        prop_assert!((max_d - ball.radius).abs() < 1e-6 * (1.0 + ball.radius));
    }

    // ------------------------------------------------------------------
    // L1 minimax centers
    // ------------------------------------------------------------------

    #[test]
    fn l1_exact_center_beats_projection_and_all_points(pts in points(25)) {
        let (c_exact, r_exact) = l1_minimax_center_2d(&pts).unwrap();
        prop_assert!((l1_radius_at(&c_exact, &pts) - r_exact).abs() < 1e-9);
        let r_proj = l1_radius_at(&projection_center(&pts).unwrap(), &pts);
        prop_assert!(r_exact <= r_proj + 1e-9);
        for p in &pts {
            prop_assert!(r_exact <= l1_radius_at(p, &pts) + 1e-9);
        }
    }

    // ------------------------------------------------------------------
    // Convex hull
    // ------------------------------------------------------------------

    #[test]
    fn hull_vertices_are_input_points_and_contain_everything(pts in points(40)) {
        let hull = convex_hull(&pts);
        for v in &hull {
            prop_assert!(pts.iter().any(|p| p.approx_eq(v, 0.0)));
        }
        for p in &pts {
            prop_assert!(hull_contains(&hull, p, 1e-7));
        }
    }

    #[test]
    fn hull_is_invariant_to_input_order(pts in points(25)) {
        let mut reversed = pts.clone();
        reversed.reverse();
        prop_assert_eq!(convex_hull(&pts), convex_hull(&reversed));
    }
}

//! The paper's m-D claim (§V-C): "the optimal problem can also be
//! extended into an m-dimensional space, and distance measurements can
//! be expressed in a general p-norm." Everything in this workspace is
//! const-generic over the dimension — these tests exercise the full
//! stack at D = 5, well beyond the paper's evaluated 2-D/3-D.

use mmph::core::submodular;
use mmph::prelude::*;
use mmph_core::GridIndex;
use mmph_geom::welzl::min_enclosing_ball;
use mmph_geom::Point as GPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points_5d(n: usize, seed: u64) -> Vec<GPoint<5>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut c = [0.0; 5];
            for x in c.iter_mut() {
                *x = rng.gen_range(0.0..4.0);
            }
            GPoint::new(c)
        })
        .collect()
}

fn instance_5d(n: usize, k: usize, r: f64, norm: Norm, seed: u64) -> Instance<5> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
    let pts = random_points_5d(n, seed);
    let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(1..=5) as f64).collect();
    Instance::new(pts, ws, r, k, norm).unwrap()
}

#[test]
fn all_solvers_run_in_five_dimensions() {
    for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
        let inst = instance_5d(30, 3, 2.0, norm, 1);
        for sol in [
            LocalGreedy::new().solve(&inst).unwrap(),
            SimpleGreedy::new().solve(&inst).unwrap(),
            ComplexGreedy::new().solve(&inst).unwrap(),
            LocalGreedy::new()
                .with_oracle(OracleStrategy::Lazy)
                .solve(&inst)
                .unwrap(),
            RoundBased::multistart().solve(&inst).unwrap(),
        ] {
            assert_eq!(sol.centers.len(), 3, "{} under {norm}", sol.solver);
            assert!(sol.verify_consistency(&inst), "{} under {norm}", sol.solver);
        }
    }
}

#[test]
fn theorem2_bound_holds_in_five_dimensions() {
    let inst = instance_5d(9, 2, 2.5, Norm::L2, 2);
    let opt = Exhaustive::new().solve(&inst).unwrap();
    let bound = approx_local(inst.n(), inst.k()) * opt.total_reward;
    for sol in [
        LocalGreedy::new().solve(&inst).unwrap(),
        SimpleGreedy::new().solve(&inst).unwrap(),
    ] {
        assert!(sol.total_reward >= bound - 1e-9, "{}", sol.solver);
    }
}

#[test]
fn objective_is_submodular_in_five_dimensions() {
    let inst = instance_5d(20, 2, 2.0, Norm::L1, 3);
    assert!(submodular::audit(&inst, 200, 9).passed());
}

#[test]
fn welzl_handles_five_dimensions() {
    // D+1 = 6 support points max; check containment and the centroid
    // upper bound on 5-D random sets.
    let pts = random_points_5d(60, 4);
    let ball = min_enclosing_ball(&pts);
    assert!(ball.contains_all(&pts));
    let centroid = GPoint::centroid(&pts).unwrap();
    let r_centroid = pts
        .iter()
        .map(|p| centroid.dist_l2(p))
        .fold(0.0f64, f64::max);
    assert!(ball.radius <= r_centroid + 1e-9);
}

#[test]
fn spatial_indexes_agree_in_five_dimensions() {
    let pts = random_points_5d(150, 5);
    let grid = GridIndex::build(&pts, 1.0).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..15 {
        let mut c = [0.0; 5];
        for x in c.iter_mut() {
            *x = rng.gen_range(0.0..4.0);
        }
        let c = GPoint::new(c);
        let r = rng.gen_range(0.5..3.0);
        for norm in [Norm::L1, Norm::L2, Norm::LInf] {
            let mut a: Vec<usize> = grid
                .within(&c, r, norm)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            a.sort_unstable();
            let want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| norm.dist(&c, p) <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(a, want, "grid under {norm}");
        }
    }
}

#[test]
fn projection_center_matches_paper_rule_in_five_dimensions() {
    // §V-B: per-dimension (min+max)/2 in m-D via projections.
    let pts = random_points_5d(25, 7);
    let c = mmph_geom::l1ball::projection_center(&pts).unwrap();
    for d in 0..5 {
        let lo = pts.iter().map(|p| p[d]).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p[d]).fold(f64::NEG_INFINITY, f64::max);
        assert!((c[d] - (lo + hi) / 2.0).abs() < 1e-12, "dim {d}");
    }
}

#[test]
fn lazy_equals_eager_in_five_dimensions() {
    let inst = instance_5d(40, 4, 2.0, Norm::L2, 8);
    let eager = LocalGreedy::new().solve(&inst).unwrap();
    let lazy = LocalGreedy::new()
        .with_oracle(OracleStrategy::Lazy)
        .solve(&inst)
        .unwrap();
    assert_eq!(eager.centers, lazy.centers);
}

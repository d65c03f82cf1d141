//! Property-based pinning of the large-n pipelines.
//!
//! Three contracts: (1) the weighted coreset's objective stays within
//! its computed `error_bound` of the full-resolution objective for
//! *any* center set, and collapses to the exact solve when every point
//! gets its own cell; (2) shard-then-merge is deterministic — the
//! parallel sweep is bit-identical to the serial sweep for every shard
//! count; (3) weighted aggregation is exactly multiplicity — a point
//! with weight `m` contributes what `m` unit-weight copies do. Fixed
//! instances that bust the engine cap pin escalation and the realized
//! gap.

use mmph_core::{
    build_coreset, plan_scale, solve_coreset, solve_sharded, streaming_objective, CoresetConfig,
    EngineKind, Instance, ScalePlan, ShardConfig, DEFAULT_SPARSE_CAP_BYTES,
};
use mmph_geom::Point;
use mmph_sim::{uniform_degree_instance_2d, SpaceSpec};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    -4.0..4.0f64
}

fn point2() -> impl Strategy<Value = Point<2>> {
    (coord(), coord()).prop_map(|(x, y)| Point::new([x, y]))
}

fn weighted_points(max: usize) -> impl Strategy<Value = Vec<(Point<2>, f64)>> {
    prop::collection::vec((point2(), (1u32..=5).prop_map(f64::from)), 4..max)
}

fn instance(pts: Vec<(Point<2>, f64)>, k: usize, r: f64) -> Instance<2> {
    let k = k.min(pts.len());
    let (points, weights): (Vec<_>, Vec<_>) = pts.into_iter().unzip();
    Instance::new(points, weights, r, k, mmph_geom::Norm::L2).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For ANY center set, the coreset objective differs from the
    /// full-resolution objective by at most the build-time
    /// `error_bound` (linear kernel: per-point displacement error is
    /// `min(1, k·disp/r)`-bounded and the min-clamp is 1-Lipschitz).
    #[test]
    fn coreset_objective_within_error_bound_for_any_centers(
        pts in weighted_points(60),
        k in 1usize..6,
        r in 0.3..2.0f64,
        cells in 0.5..8.0f64,
        picks in prop::collection::vec(0usize..1000, 1..6),
    ) {
        let inst = instance(pts, k, r);
        let coreset = build_coreset(&inst, cells).unwrap();
        let centers: Vec<Point<2>> = picks
            .iter()
            .map(|&i| *inst.point(i % inst.n()))
            .collect();
        let full = streaming_objective(&inst, &centers);
        let reduced = streaming_objective(&coreset.instance, &centers);
        prop_assert!(
            (full - reduced).abs() <= coreset.error_bound + 1e-9,
            "|{full} - {reduced}| = {} > error_bound {}",
            (full - reduced).abs(),
            coreset.error_bound
        );
    }

    /// Cells fine enough that every point is its own representative
    /// make the coreset solve the exact solve: realized gap ~ 0 and
    /// one rep per distinct coordinate.
    #[test]
    fn fine_cells_reproduce_the_exact_solve(
        pts in weighted_points(40),
        k in 1usize..5,
    ) {
        let inst = instance(pts, k, 1.0);
        // Coordinates are generic reals: with cells much smaller than
        // any pairwise gap, every occupied cell holds one point.
        let cfg = CoresetConfig { cells_per_radius: 1e6, ..CoresetConfig::default() };
        let report = solve_coreset(&inst, &cfg).unwrap();
        prop_assert_eq!(report.coreset_n, inst.n());
        prop_assert!(
            report.gap <= 1e-9,
            "singleton cells must realize the coreset objective exactly (gap {})",
            report.gap
        );
    }

    /// Shard-then-merge commits to shard order, not scheduling order:
    /// the parallel sweep is bit-identical to the serial sweep for
    /// every shard count.
    #[test]
    fn shard_merge_is_bit_identical_serial_vs_parallel(
        pts in weighted_points(50),
        k in 1usize..5,
        shards in 1usize..7,
    ) {
        let inst = instance(pts, k, 1.0);
        let serial = solve_sharded(
            &inst,
            &ShardConfig { shards, parallel: false, ..ShardConfig::default() },
        )
        .unwrap();
        let parallel = solve_sharded(
            &inst,
            &ShardConfig { shards, parallel: true, ..ShardConfig::default() },
        )
        .unwrap();
        prop_assert_eq!(serial.selection, parallel.selection);
        prop_assert_eq!(serial.objective.to_bits(), parallel.objective.to_bits());
        prop_assert_eq!(serial.candidates, parallel.candidates);
    }

    /// Weighted aggregation is multiplicity: a point carrying weight
    /// `m` contributes exactly what `m` unit-weight copies of it do,
    /// for any center set. This is the identity the coreset's
    /// weighted-centroid reduction rests on.
    #[test]
    fn weight_m_equals_m_unit_copies(
        pts in prop::collection::vec((point2(), 1u32..=4), 3..25),
        k in 1usize..4,
        picks in prop::collection::vec(0usize..1000, 1..5),
    ) {
        // Weighted: one point per site, weight = multiplicity.
        let weighted: Vec<(Point<2>, f64)> =
            pts.iter().map(|&(p, m)| (p, f64::from(m))).collect();
        // Unweighted: the same site repeated `m` times at weight 1.
        let copies: Vec<(Point<2>, f64)> = pts
            .iter()
            .flat_map(|&(p, m)| std::iter::repeat_n((p, 1.0), m as usize))
            .collect();
        let a = instance(weighted, k, 1.0);
        let b = instance(copies, k, 1.0);
        let centers: Vec<Point<2>> = picks.iter().map(|&i| *a.point(i % a.n())).collect();
        let fa = streaming_objective(&a, &centers);
        let fb = streaming_objective(&b, &centers);
        prop_assert!(
            (fa - fb).abs() <= 1e-9 * fa.abs().max(1.0),
            "weight-as-multiplicity broke: {fa} vs {fb}"
        );
    }
}

/// A uniform instance at expected degree 48 whose estimated CSR busts
/// `cap_bytes` must make `plan_scale` escalate. Solved at 3 cells per
/// radius with no budget, the coreset run must complete and its
/// realized gap must stay within 5%.
fn check_capped_escalation(n: usize, cap_bytes: usize) {
    let inst = uniform_degree_instance_2d(n, 16, 48.0, SpaceSpec::PAPER, 0x5EED_BA5E).unwrap();
    assert_eq!(
        plan_scale(&inst, EngineKind::Auto, cap_bytes),
        ScalePlan::Coreset
    );
    let cfg = CoresetConfig {
        cells_per_radius: 3.0,
        cap_bytes,
        ..CoresetConfig::default()
    };
    let report = solve_coreset(&inst, &cfg).unwrap();
    assert!(report.degraded.is_none(), "{:?}", report.degraded);
    assert!(report.gap <= 0.05, "realized gap {}", report.gap);
    // The reduction busts the cap too, so it runs on the CSR-free grid
    // engine, and says so.
    assert_eq!(report.engine, EngineKind::Grid);
}

/// n=200,000 estimates a ~206 MiB CSR against an 8 MiB cap.
#[test]
fn capped_instance_escalates_and_keeps_the_gap_within_five_percent() {
    check_capped_escalation(200_000, 8 << 20);
}

/// n=10⁷ against the default 512 MiB cap; run by hand with `--ignored`.
#[test]
#[ignore = "full size: n=10⁷, tens of seconds and several GiB"]
fn capped_instance_escalates_and_keeps_the_gap_within_five_percent_at_1e7() {
    check_capped_escalation(10_000_000, DEFAULT_SPARSE_CAP_BYTES);
}

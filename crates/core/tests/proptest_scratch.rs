//! Property-based pinning of scratch-arena transparency.
//!
//! The contract behind [`mmph_core::SolveScratch`]: a solve through a
//! freshly-allocated scratch and a solve through a *dirty* scratch
//! (one that just served arbitrary other instances) return
//! **bit-identical** selections and rewards — across both norms and
//! all oracle strategies — and both match the plain unbatched solve
//! path with no scratch at all.

use mmph_core::{
    recycle, solve_rounds, BatchRunner, GainOracle, Instance, OracleStrategy, Residuals,
    SolveScratch,
};
use mmph_geom::{Norm, Point};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    -4.0..4.0f64
}

fn point2() -> impl Strategy<Value = Point<2>> {
    (coord(), coord()).prop_map(|(x, y)| Point::new([x, y]))
}

/// Integer weights in 1..=5 maximise gain ties, the hardest case for
/// keeping tie-breaking aligned across code paths.
fn weighted_points(max: usize) -> impl Strategy<Value = Vec<(Point<2>, f64)>> {
    prop::collection::vec((point2(), (1u32..=5).prop_map(f64::from)), 1..max)
}

const STRATEGIES: [OracleStrategy; 3] = [
    OracleStrategy::Seq,
    OracleStrategy::Par,
    OracleStrategy::Lazy,
];

/// Unbatched reference: fresh allocations everywhere, no scratch.
fn reference_solve(inst: &Instance<2>, strategy: OracleStrategy) -> (Vec<usize>, f64) {
    let oracle = GainOracle::with_engine(inst, mmph_core::EngineKind::Sparse, strategy);
    let mut residuals = Residuals::new(inst.n());
    let mut picks = Vec::new();
    let mut total = 0.0;
    for _ in 0..inst.k() {
        let best = oracle.best_candidate(&residuals);
        picks.push(best.index);
        total += residuals.apply(inst, inst.point(best.index));
    }
    (picks, total)
}

/// Solves `inst` through the given scratch (fresh or dirty) and
/// returns (selection, reward).
fn scratch_solve(
    inst: &Instance<2>,
    strategy: OracleStrategy,
    scratch: &mut SolveScratch,
) -> (Vec<usize>, f64) {
    let runner = BatchRunner::new().with_strategy(strategy);
    let oracle = runner.build_oracle(inst, scratch);
    let reward = solve_rounds(&oracle, scratch);
    let picks = scratch.picks().to_vec();
    recycle(oracle, scratch);
    (picks, reward)
}

fn check_fresh_vs_dirty(
    pts: Vec<(Point<2>, f64)>,
    dirty_pts: Vec<(Point<2>, f64)>,
    k: usize,
    r: f64,
    norm: Norm,
) {
    let (points, weights): (Vec<_>, Vec<_>) = pts.into_iter().unzip();
    let inst = Instance::new(points, weights, r, k, norm).unwrap();
    let (dpoints, dweights): (Vec<_>, Vec<_>) = dirty_pts.into_iter().unzip();
    let polluter = Instance::new(dpoints, dweights, r * 1.3, k.max(2), norm).unwrap();

    for strategy in STRATEGIES {
        let (ref_picks, ref_reward) = reference_solve(&inst, strategy);

        let mut fresh = SolveScratch::new();
        let (fresh_picks, fresh_reward) = scratch_solve(&inst, strategy, &mut fresh);

        // Dirty the arena with an unrelated instance (twice, and once
        // with a different strategy, so the CELF heap, residuals, and
        // CSR buffers all hold foreign state and sizes).
        let mut dirty = SolveScratch::new();
        scratch_solve(&polluter, OracleStrategy::Lazy, &mut dirty);
        scratch_solve(&polluter, strategy, &mut dirty);
        let (dirty_picks, dirty_reward) = scratch_solve(&inst, strategy, &mut dirty);

        prop_assert_eq!(
            &ref_picks,
            &fresh_picks,
            "{} {:?}: fresh scratch diverged from unbatched",
            strategy,
            norm
        );
        prop_assert_eq!(
            &ref_picks,
            &dirty_picks,
            "{} {:?}: dirty scratch diverged from unbatched",
            strategy,
            norm
        );
        prop_assert_eq!(ref_reward.to_bits(), fresh_reward.to_bits());
        prop_assert_eq!(ref_reward.to_bits(), dirty_reward.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fresh_and_dirty_scratch_are_bit_identical_l2(
        pts in weighted_points(40),
        dirty_pts in weighted_points(60),
        k in 1usize..6,
        r in 0.3..2.0f64,
    ) {
        check_fresh_vs_dirty(pts, dirty_pts, k, r, Norm::L2);
    }

    #[test]
    fn fresh_and_dirty_scratch_are_bit_identical_l1(
        pts in weighted_points(40),
        dirty_pts in weighted_points(60),
        k in 1usize..6,
        r in 0.3..2.0f64,
    ) {
        check_fresh_vs_dirty(pts, dirty_pts, k, r, Norm::L1);
    }
}

//! Pins the blocked CSR kernel layout and the mixed-precision engine.
//!
//! Three contracts from DESIGN.md "Kernel layout & precision":
//!
//! 1. The blocked lane kernel is **bit-identical** (`to_bits`) to the
//!    scalar per-entry reference walk on the `f64` backend — across all
//!    four kernels, both norms, and arbitrary mid-solve residual
//!    states. Lane padding and dropped zero-`frac` entries are exact
//!    `+0.0` terms, so they can never perturb the accumulator.
//! 2. The `f32` engine's per-eval error obeys the documented bound
//!    `|g32 - g64| <= 2^-22 * m` where `m` is the candidate's fresh
//!    `f64` gain (its row mass: every stored `frac <= 1`).
//! 3. The storage layout invariants hold: `eval_order` is a permutation
//!    of `0..n`, every row's padded extent is a multiple of
//!    [`SPARSE_LANES`], degrees never exceed the padded extent, and
//!    entries whose kernel value is exactly zero are dropped at build
//!    time.

use mmph_core::solvers::LocalGreedy;
use mmph_core::{
    objective, EngineKind, Instance, Kernel, Residuals, RewardEngine, Solver, SPARSE_LANES,
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

const KERNELS: [Kernel; 4] = [
    Kernel::Linear,
    Kernel::Step,
    Kernel::Quadratic,
    Kernel::Exponential { lambda: 3.0 },
];

/// Documented per-eval relative error of the `f32` engine: each stored
/// `frac`/`weight` narrows with at most half-ulp (`2^-24`) relative
/// error, the `min` is 1-Lipschitz, and accumulation stays `f64`, so a
/// row of mass `m` can drift by at most `~2^-23 * m`; `2^-22` gives 2x
/// headroom for the accumulator's own rounding.
const F32_PER_EVAL_REL: f64 = 1.0 / (1u64 << 22) as f64;

/// Walks the greedy to every mid-solve residual state and checks, at
/// each state, (a) blocked == unblocked bits on the f64 backend,
/// (b) blocked == unblocked bits on the f32 backend, and (c) the f32
/// gain within the documented bound of the f64 gain.
fn check_blocked_kernel(pts: Vec<(Point<2>, f64)>, k: usize, r: f64, norm: Norm) {
    let (points, weights): (Vec<_>, Vec<_>) = pts.into_iter().unzip();
    let base = Instance::new(points, weights, r, k, norm).unwrap();
    for kernel in KERNELS {
        let inst = base.with_kernel(kernel).unwrap();
        let sparse = RewardEngine::sparse(&inst);
        let sparse32 = RewardEngine::sparse_f32(&inst);
        prop_assert_eq!(sparse32.kind(), EngineKind::SparseF32);
        let fresh = Residuals::new(inst.n());
        // Row masses: every frac <= 1, so the fresh f64 gain bounds the
        // row mass the error model is stated against.
        let masses: Vec<f64> = (0..inst.n())
            .map(|i| sparse.candidate_gain(i, &fresh))
            .collect();
        let mut residuals = Residuals::new(inst.n());
        for _round in 0..=inst.k() {
            let mut best = 0usize;
            let mut best_gain = f64::NEG_INFINITY;
            for (i, &mass) in masses.iter().enumerate() {
                let blocked = sparse.candidate_gain(i, &residuals);
                let scalar = sparse.candidate_gain_unblocked(i, &residuals).unwrap();
                prop_assert_eq!(
                    blocked.to_bits(),
                    scalar.to_bits(),
                    "f64 candidate {} under {:?}/{}: blocked {} vs scalar {}",
                    i,
                    kernel,
                    norm,
                    blocked,
                    scalar
                );
                let b32 = sparse32.candidate_gain(i, &residuals);
                let s32 = sparse32.candidate_gain_unblocked(i, &residuals).unwrap();
                prop_assert_eq!(
                    b32.to_bits(),
                    s32.to_bits(),
                    "f32 candidate {} under {:?}/{}: blocked {} vs scalar {}",
                    i,
                    kernel,
                    norm,
                    b32,
                    s32
                );
                let err = (b32 - blocked).abs();
                let bound = F32_PER_EVAL_REL * mass + 1e-12;
                prop_assert!(
                    err <= bound,
                    "f32 candidate {} under {:?}/{}: |{} - {}| = {:e} > bound {:e}",
                    i,
                    kernel,
                    norm,
                    b32,
                    blocked,
                    err,
                    bound
                );
                if blocked > best_gain {
                    best_gain = blocked;
                    best = i;
                }
            }
            residuals.apply(&inst, inst.point(best));
        }
    }
}

fn check_layout_invariants(pts: Vec<(Point<2>, f64)>, r: f64) {
    let (points, weights): (Vec<_>, Vec<_>) = pts.into_iter().unzip();
    let n = points.len();
    let inst = Instance::new(points, weights, r, 1, Norm::L2).unwrap();
    let sparse = RewardEngine::sparse(&inst);

    // eval_order is a permutation of 0..n.
    let order = sparse.eval_order().unwrap();
    prop_assert_eq!(order.len(), n);
    let mut seen = vec![false; n];
    for &i in order {
        prop_assert!(!seen[i as usize], "candidate {} stored twice", i);
        seen[i as usize] = true;
    }

    // Slot-indexed offsets: monotone, lane-aligned extents, real degree
    // within the padded extent, padding replicating an in-bounds
    // neighbor index.
    let (offsets, degrees, neighbors, frac, weight) = sparse.csr_parts().unwrap();
    prop_assert_eq!(offsets.len(), n + 1);
    prop_assert_eq!(frac.len(), neighbors.len());
    prop_assert_eq!(weight.len(), neighbors.len());
    let stats = sparse.sparse_stats().unwrap();
    let mut entries = 0usize;
    for slot in 0..n {
        let extent = (offsets[slot + 1] - offsets[slot]) as usize;
        prop_assert_eq!(extent % SPARSE_LANES, 0, "slot {} extent {}", slot, extent);
        let deg = degrees[slot] as usize;
        prop_assert!(
            deg <= extent,
            "slot {}: degree {} > extent {}",
            slot,
            deg,
            extent
        );
        prop_assert!(extent < deg + SPARSE_LANES, "slot {} over-padded", slot);
        entries += deg;
        for e in offsets[slot] as usize..offsets[slot + 1] as usize {
            prop_assert!((neighbors[e] as usize) < n);
            if e - offsets[slot] as usize >= deg {
                // Padding lanes are exact zero terms.
                prop_assert_eq!(frac[e].to_bits(), 0.0f64.to_bits());
                prop_assert_eq!(weight[e].to_bits(), 0.0f64.to_bits());
            } else {
                // Zero-frac entries were dropped at build time.
                prop_assert!(frac[e] > 0.0);
            }
        }
    }
    prop_assert_eq!(stats.entries, entries);
    prop_assert_eq!(stats.padded_entries, neighbors.len());
    prop_assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
}

proptest! {
    #[test]
    fn blocked_kernel_pins_l2(
        pts in weighted_points(24),
        k in 1usize..4,
        r in 0.3..2.0f64,
    ) {
        check_blocked_kernel(pts, k, r, Norm::L2);
    }

    #[test]
    fn blocked_kernel_pins_l1(
        pts in weighted_points(24),
        k in 1usize..4,
        r in 0.3..2.0f64,
    ) {
        check_blocked_kernel(pts, k, r, Norm::L1);
    }

    #[test]
    fn layout_invariants_hold(
        pts in weighted_points(40),
        r in 0.3..2.0f64,
    ) {
        check_layout_invariants(pts, r);
    }
}

/// Exact-boundary distances produce kernel value zero (Linear at
/// `d == r`), and those entries must vanish from the CSR at build time:
/// a unit grid at radius 1 keeps only the self-entry per row.
#[test]
fn zero_frac_entries_dropped_at_build() {
    let mut points = Vec::new();
    for gx in 0..3 {
        for gy in 0..3 {
            points.push(Point::new([gx as f64, gy as f64]));
        }
    }
    let n = points.len();
    let inst = Instance::new(points, vec![2.0; n], 1.0, 2, Norm::L2).unwrap();
    let sparse = RewardEngine::sparse(&inst);
    let stats = sparse.sparse_stats().unwrap();
    assert_eq!(stats.entries, n, "only self-entries should survive");
    assert_eq!(stats.padded_entries, n * SPARSE_LANES);
    assert_eq!(stats.max_degree, 1);
    // Dropping the zero entries is gain-transparent.
    let scan = RewardEngine::scan(&inst);
    let residuals = Residuals::new(n);
    for i in 0..n {
        assert_eq!(
            scan.candidate_gain(i, &residuals).to_bits(),
            sparse.candidate_gain(i, &residuals).to_bits()
        );
    }
}

/// End-to-end mixed precision: the f32 engine steers the argmax but
/// rewards are applied in exact f64, so the reported total must match
/// the true f64 objective of whatever centers it picked, and each pick
/// must be within the documented per-eval error of that round's true
/// best gain.
#[test]
fn f32_solve_objective_within_documented_bound() {
    // Deterministic pseudo-random instance (no RNG dependency): low-
    // discrepancy lattice points with cycling weights.
    let n = 600;
    let points: Vec<Point<2>> = (0..n)
        .map(|i| {
            let t = i as f64;
            Point::new([(t * 0.754_877_666) % 8.0, (t * 0.569_840_291) % 8.0])
        })
        .collect();
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let inst = Instance::new(points, weights, 0.9, 8, Norm::L2).unwrap();

    let r64 = LocalGreedy::new()
        .with_engine(EngineKind::Sparse)
        .solve(&inst)
        .unwrap();
    let r32 = LocalGreedy::new()
        .with_engine(EngineKind::SparseF32)
        .solve(&inst)
        .unwrap();

    // Reported rewards come from exact f64 residual application, so
    // they equal the true objective up to summation-order rounding.
    let true64 = objective(&inst, &r64.centers);
    let true32 = objective(&inst, &r32.centers);
    assert!((r64.total_reward - true64).abs() <= 1e-9 * true64.max(1.0));
    assert!((r32.total_reward - true32).abs() <= 1e-9 * true32.max(1.0));

    // k picks, each steered by a gain within 2^-22 of exact: the two
    // engines' objectives agree to k * 2^-20 relative (DESIGN.md's
    // end-to-end bound, far looser than the per-pick drift).
    let k = inst.k() as f64;
    let bound = k * true64 / (1u64 << 20) as f64 + 1e-9;
    assert!(
        (true64 - true32).abs() <= bound,
        "f32 objective {true32} vs f64 {true64}: gap {:e} > bound {:e}",
        (true64 - true32).abs(),
        bound
    );
}

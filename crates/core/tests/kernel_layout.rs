//! Pins the blocked CSR kernel layout.
//!
//! Two contracts from DESIGN.md "Kernel layout":
//!
//! 1. The blocked lane kernel is **bit-identical** (`to_bits`) to the
//!    scalar per-entry reference walk — across all four kernels, both
//!    norms, and arbitrary mid-solve residual states. Lane padding and
//!    dropped zero-`frac` entries are exact `+0.0` terms, so they can
//!    never perturb the accumulator.
//! 2. The storage layout invariants hold: `eval_order` is a permutation
//!    of `0..n`, every row's padded extent is a multiple of
//!    [`SPARSE_LANES`], degrees never exceed the padded extent, and
//!    entries whose kernel value is exactly zero are dropped at build
//!    time.

use mmph_core::{Instance, Kernel, Residuals, RewardEngine, SPARSE_LANES};
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

/// Walks the greedy to every mid-solve residual state and checks, at
/// each state, that the blocked kernel and the unblocked reference walk
/// agree to the bit.
fn check_blocked_kernel(pts: Vec<(Point<2>, f64)>, k: usize, r: f64, norm: Norm) {
    let (points, weights): (Vec<_>, Vec<_>) = pts.into_iter().unzip();
    let base = Instance::new(points, weights, r, k, norm).unwrap();
    for kernel in KERNELS {
        let inst = base.with_kernel(kernel).unwrap();
        let sparse = RewardEngine::sparse(&inst);
        let mut residuals = Residuals::new(inst.n());
        for _round in 0..=inst.k() {
            let mut best = 0usize;
            let mut best_gain = f64::NEG_INFINITY;
            for i in 0..inst.n() {
                let blocked = sparse.candidate_gain(i, &residuals);
                let scalar = sparse.candidate_gain_unblocked(i, &residuals).unwrap();
                prop_assert_eq!(
                    blocked.to_bits(),
                    scalar.to_bits(),
                    "candidate {} under {:?}/{}: blocked {} vs scalar {}",
                    i,
                    kernel,
                    norm,
                    blocked,
                    scalar
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

//! Property-based pinning of the incremental-instance contract.
//!
//! The correctness anchor of the delta-patching layer
//! ([`mmph_core::IncrementalInstance`]): after **any** sequence of
//! insert/remove/move deltas, the patched blocked CSR is *bitwise
//! identical* to a cold rebuild of the mutated point set — per
//! candidate: neighbors, `frac` bits, `weight` bits, degree, and lane
//! padding — modulo the documented spatial permutation of row storage
//! order. Pinned across both norms and both scalar types, plus:
//!
//! - the sparse `apply_candidate` commit path is bit-identical to the
//!   dense [`Residuals::apply`] on the `f64` engine,
//! - warm re-solves never return a worse objective than the cold
//!   greedy on the same mutated instance,
//! - churn edge cases: removing the last remaining point fails
//!   cleanly, duplicate-coordinate inserts keep index-order
//!   tie-breaking, a move onto the exact coverage boundary exercises
//!   the zero-`frac` drop path, and a resolve under a tripped
//!   `CancelToken` degrades without corrupting the patched state.

use mmph_core::{
    CancelToken, Delta, EngineKind, GainOracle, IncrementalInstance, Instance, InstanceBuilder,
    OracleStrategy, Residuals, ResolveConfig, RewardEngine, SolveScratch,
};
use mmph_geom::{Norm, Point};
use proptest::prelude::*;

/// Coordinates on a coarse lattice: maximizes duplicate points, shared
/// cells, and exact-boundary distances — the hard cases for patching.
fn coord() -> impl Strategy<Value = f64> {
    (-8i32..8).prop_map(|t| t as f64 * 0.5)
}

fn point2() -> impl Strategy<Value = Point<2>> {
    (coord(), coord()).prop_map(|(x, y)| Point::new([x, y]))
}

fn weight() -> impl Strategy<Value = f64> {
    (1u32..=5).prop_map(f64::from)
}

/// Abstract delta: indices are drawn as ratios and resolved against
/// the instance size at application time, so any sequence is valid.
#[derive(Debug, Clone)]
enum Op {
    Insert(Point<2>, f64),
    Remove(f64),
    Move(f64, Point<2>),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (point2(), weight()).prop_map(|(p, w)| Op::Insert(p, w)),
        (0.0..1.0f64).prop_map(Op::Remove),
        ((0.0..1.0f64), point2()).prop_map(|(r, p)| Op::Move(r, p)),
    ]
}

fn base_instance(points: Vec<(Point<2>, f64)>, norm: Norm) -> Instance<2> {
    let mut b = InstanceBuilder::new();
    for (p, w) in points {
        b = b.point(p.0, w);
    }
    b.radius(1.25).k(3).norm(norm).build().unwrap()
}

fn apply_ops(inc: &mut IncrementalInstance<2>, ops: &[Op]) {
    for o in ops {
        let n = inc.instance().n();
        match o {
            Op::Insert(p, w) => {
                inc.insert_point(*p, *w).unwrap();
            }
            Op::Remove(r) => {
                if n > 1 {
                    let i = ((r * n as f64) as usize).min(n - 1);
                    inc.remove_point(i).unwrap();
                }
            }
            Op::Move(r, p) => {
                let i = ((r * n as f64) as usize).min(n - 1);
                inc.move_point(i, *p).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole pin: delta-patched CSR ≡ cold-rebuilt CSR, bitwise,
    /// across insert/remove/move sequences × both norms × f64/f32.
    #[test]
    fn patched_csr_equals_cold_rebuild(
        points in prop::collection::vec((point2(), weight()), 1..24),
        ops in prop::collection::vec(op(), 1..20),
        norm_l1 in (0u8..2).prop_map(|b| b == 1),
        f32_engine in (0u8..2).prop_map(|b| b == 1),
    ) {
        let norm = if norm_l1 { Norm::L1 } else { Norm::L2 };
        let kind = if f32_engine { EngineKind::SparseF32 } else { EngineKind::Sparse };
        let inst = base_instance(points, norm);
        let mut inc = IncrementalInstance::new(inst, kind).unwrap();
        apply_ops(&mut inc, &ops);
        inc.verify_against_rebuild().unwrap();
    }

    /// The sparse O(degree) commit path is bit-identical to the dense
    /// O(n) reference on the f64 engine — gains and mutated residuals.
    #[test]
    fn apply_candidate_matches_dense_apply(
        points in prop::collection::vec((point2(), weight()), 1..24),
        ops in prop::collection::vec(op(), 0..12),
        centers in prop::collection::vec(0.0..1.0f64, 1..5),
    ) {
        let inst = base_instance(points, Norm::L2);
        let mut inc = IncrementalInstance::new(inst, EngineKind::Sparse).unwrap();
        apply_ops(&mut inc, &ops);
        let mutated = inc.instance().clone();
        let engine = RewardEngine::sparse(&mutated);
        let mut sparse_res = Residuals::new(mutated.n());
        let mut dense_res = Residuals::new(mutated.n());
        for c in centers {
            let i = ((c * mutated.n() as f64) as usize).min(mutated.n() - 1);
            let g_sparse = engine.apply_candidate(i, &mut sparse_res).unwrap();
            let g_dense = dense_res.apply(&mutated, mutated.point(i));
            prop_assert_eq!(g_sparse.to_bits(), g_dense.to_bits());
            for j in 0..mutated.n() {
                prop_assert_eq!(sparse_res.y(j).to_bits(), dense_res.y(j).to_bits());
            }
        }
    }

    /// The warm-start guarantee: greedy refill and strictly-improving
    /// swaps never push the objective *below* the carried-over seed's
    /// value on the mutated instance. (The stronger warm ≥ cold gate
    /// is empirical; `churn_floor` holds it at n=10⁴ to 10⁶.)
    #[test]
    fn warm_resolve_never_below_seed_objective(
        points in prop::collection::vec((point2(), weight()), 4..24),
        ops in prop::collection::vec(op(), 1..6),
    ) {
        let inst = base_instance(points, Norm::L2);
        let mut inc = IncrementalInstance::new(inst, EngineKind::Sparse).unwrap();
        let mut scratch = SolveScratch::new();
        inc.resolve(&mut scratch, &ResolveConfig::default());
        apply_ops(&mut inc, &ops);
        // Objective of the (remapped) carried-over seed on the mutated
        // instance, via the dense reference path.
        let mutated = inc.instance().clone();
        let mut res = Residuals::new(mutated.n());
        let mut seed_obj = 0.0;
        for &s in inc.selection() {
            seed_obj += res.apply(&mutated, mutated.point(s));
        }
        let cfg = ResolveConfig { churn_threshold: 2.0, ..ResolveConfig::default() };
        let warm = inc.resolve(&mut scratch, &cfg);
        prop_assert!(warm.warm, "threshold 2.0 never trips on these sizes");
        prop_assert!(
            warm.reward >= seed_obj - 1e-9,
            "warm {} < seed {}", warm.reward, seed_obj
        );
        prop_assert_eq!(warm.selection.len(), mutated.k().min(mutated.n()));
    }
}

// ---------------------------------------------------------------------
// Churn edge cases (deterministic).
// ---------------------------------------------------------------------

fn tiny(n: usize) -> IncrementalInstance<2> {
    let mut b = InstanceBuilder::new();
    for i in 0..n {
        b = b.point([i as f64, 0.0], 1.0 + i as f64);
    }
    let inst = b.radius(1.5).k(2.min(n)).build().unwrap();
    IncrementalInstance::new(inst, EngineKind::Sparse).unwrap()
}

/// Removing the last remaining point must fail cleanly — an instance
/// is never empty — and leave the CSR untouched.
#[test]
fn remove_last_remaining_point_is_rejected() {
    let mut inc = tiny(2);
    inc.remove_point(0).unwrap();
    assert_eq!(inc.instance().n(), 1);
    let err = inc.remove_point(0).unwrap_err();
    assert!(
        err.to_string().contains("last remaining point"),
        "unexpected error: {err}"
    );
    inc.verify_against_rebuild().unwrap();
    // Batched form reports the failing delta's position.
    let err = inc
        .apply_churn(&[Delta::Remove { index: 0 }])
        .unwrap_err()
        .to_string();
    assert!(err.contains("churn delta 0"), "unexpected error: {err}");
}

/// Inserting a bit-equal duplicate coordinate: the duplicate gets the
/// next index, both rows are bitwise what a cold rebuild produces, and
/// the argmax still prefers the *lower* index on gain ties.
#[test]
fn duplicate_coordinate_insert_keeps_index_tiebreak() {
    let mut inc = tiny(3);
    let dup = *inc.instance().point(1);
    let idx = inc.insert_point(dup, 2.0).unwrap();
    assert_eq!(idx, 3);
    inc.verify_against_rebuild().unwrap();
    // Equal-weight duplicate: identical coordinates + identical weight
    // ⇒ identical rows except the weight column entry for themselves;
    // make both candidates' gains exactly equal by matching weights.
    let mut inc2 = tiny(3);
    let dup2 = *inc2.instance().point(1);
    let w_existing = inc2.instance().weight(1);
    inc2.insert_point(dup2, w_existing).unwrap();
    inc2.verify_against_rebuild().unwrap();
    let inst = inc2.instance().clone();
    let engine = RewardEngine::sparse(&inst);
    let res = Residuals::new(inst.n());
    let g_old = engine.candidate_gain(1, &res);
    let g_new = engine.candidate_gain(3, &res);
    assert_eq!(g_old.to_bits(), g_new.to_bits(), "duplicate rows must tie");
    let oracle = GainOracle::from_engine(engine, OracleStrategy::Seq);
    let best = oracle.best_among(&[1, 3], &res);
    assert_eq!(best.index, 1, "ties break to the existing (lower) index");
}

/// Moving a point onto the exact coverage boundary of a neighbor: the
/// linear kernel's `frac(r, r) = 0`, so the entry is *dropped* from
/// both rows (the zero-frac drop path), exactly as a cold rebuild
/// would.
#[test]
fn move_onto_exact_boundary_drops_zero_frac_entries() {
    let mut inc = tiny(2); // points at x = 0, 1; radius 1.5
                           // Move point 1 to exactly x = 1.5: d(0, 1) becomes exactly r.
    inc.move_point(1, Point::new([1.5, 0.0])).unwrap();
    inc.verify_against_rebuild().unwrap();
    let inst = inc.instance().clone();
    let engine = RewardEngine::sparse(&inst);
    let (_, degrees, _, _, _) = engine.csr_parts().unwrap();
    // Each row keeps only its own point: the cross entries sat exactly
    // on the rim and were dropped.
    assert_eq!(degrees, &[1, 1]);
    // And back off the boundary, coverage reappears.
    inc.move_point(1, Point::new([1.0, 0.0])).unwrap();
    inc.verify_against_rebuild().unwrap();
    let inst = inc.instance().clone();
    let engine = RewardEngine::sparse(&inst);
    let (_, degrees, _, _, _) = engine.csr_parts().unwrap();
    assert_eq!(degrees, &[2, 2]);
}

/// Churn applied, then a resolve under an already-tripped token: the
/// resolve degrades (no selection commit), the patched CSR stays
/// bitwise correct, and the next clean resolve proceeds from the same
/// pending churn.
#[test]
fn churn_with_tripped_cancel_token_degrades_cleanly() {
    let mut inc = tiny(6);
    let mut scratch = SolveScratch::new();
    inc.resolve(&mut scratch, &ResolveConfig::default());
    let seed = inc.selection().to_vec();
    inc.insert_point(Point::new([2.5, 0.5]), 4.0).unwrap();
    inc.move_point(0, Point::new([0.25, 0.0])).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let cfg = ResolveConfig {
        churn_threshold: 2.0,
        cancel: Some(token.clone()),
        ..ResolveConfig::default()
    };
    let out = inc.resolve(&mut scratch, &cfg);
    assert!(out.cancelled);
    assert_eq!(
        inc.selection(),
        &seed[..],
        "cancelled resolve keeps the old seed"
    );
    assert_eq!(inc.churned_since_resolve(), 2, "churn stays pending");
    inc.verify_against_rebuild().unwrap();
    // Also the cold path under a tripped token degrades, not panics.
    let cfg_cold = ResolveConfig {
        force_cold: true,
        cancel: Some(token),
        ..ResolveConfig::default()
    };
    let out_cold = inc.resolve(&mut scratch, &cfg_cold);
    assert!(out_cold.cancelled);
    // A clean resolve afterwards completes and commits.
    let out_clean = inc.resolve(
        &mut scratch,
        &ResolveConfig {
            churn_threshold: 2.0,
            ..ResolveConfig::default()
        },
    );
    assert!(!out_clean.cancelled);
    assert_eq!(inc.churned_since_resolve(), 0);
    assert_eq!(out_clean.selection.len(), inc.instance().k());
}

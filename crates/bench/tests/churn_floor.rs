//! Warm re-solve after churn against a cold rebuild.
//!
//! Each arm builds the uniform instance whose radius holds the
//! expected neighbor count at 48, then drives three rounds of seeded
//! 1% churn through an [`IncrementalInstance`]. A round times the warm
//! path (`apply_churn` plus `resolve`) against a cold one on the same
//! mutated points: a CSR rebuild plus a lazy dirty-region greedy.
//!
//! Every round must take the warm path. The warm objective may trail
//! the cold one by at most 0.5% up to n=10⁵, where a 1-swap local
//! optimum can lag a from-scratch greedy, and by 1e-9 at n=10⁶. Up to
//! n=10⁵ the patched CSR must also match a rebuild every round.
//!
//! The speedup floors are `#[ignore]`d, so a plain `cargo test` stays
//! deterministic. Run the CI-sized one with
//! `cargo test --release -p mmph-bench --test churn_floor -- --ignored ci_`
//! and the full-size one with `full_` in place of `ci_`.

use std::time::Instant;

use mmph_core::{
    EngineKind, GainOracle, IncrementalInstance, OracleStrategy, Residuals, ResolveConfig,
    SolveScratch,
};
use mmph_sim::{uniform_degree_instance_2d, ChurnPlan, SpaceSpec};

const SEED: u64 = 0x5EED_BA5E;
const STEPS: usize = 3;

/// Cold baseline: oracle construction (the CSR build) plus k lazy
/// dirty-region rounds. Returns the reward and the wall time.
fn cold_solve(inst: &mmph_core::Instance<2>) -> (f64, f64) {
    let t0 = Instant::now();
    let oracle = GainOracle::with_engine(inst, EngineKind::Sparse, OracleStrategy::Lazy)
        .with_dirty_region(true);
    let mut residuals = Residuals::new(inst.n());
    let mut reward = 0.0;
    for _ in 0..inst.k() {
        let best = oracle.best_candidate(&residuals);
        reward += residuals.apply(inst, inst.point(best.index));
    }
    (reward, t0.elapsed().as_secs_f64())
}

/// Runs the churn arm at `(n, k)`, asserting the per-round gates, and
/// returns the median warm-vs-cold speedup.
fn churn_arm(n: usize, k: usize) -> f64 {
    let inst = uniform_degree_instance_2d(n, k, 48.0, SpaceSpec::PAPER, SEED).unwrap();
    let mut inc = IncrementalInstance::new(inst, EngineKind::Sparse).unwrap();
    let mut scratch = SolveScratch::new();
    let cfg = ResolveConfig::default();
    assert!(
        !inc.resolve(&mut scratch, &cfg).warm,
        "the seeding resolve is cold"
    );
    let plan = ChurnPlan::new(SEED ^ 0xC4A9, STEPS, 0.01);
    let mut speedups = Vec::new();
    for step in 0..STEPS {
        let deltas = plan.deltas(step as u64, inc.instance()).unwrap();
        let t0 = Instant::now();
        inc.apply_churn(&deltas).unwrap();
        let warm = inc.resolve(&mut scratch, &cfg);
        let warm_s = t0.elapsed().as_secs_f64();
        assert!(
            warm.warm,
            "n={n} step {step}: cold fallback ({:?})",
            warm.cold_reason
        );
        if n <= 100_000 {
            if let Err(e) = inc.verify_against_rebuild() {
                panic!("n={n} step {step}: patched CSR diverged: {e}");
            }
        }
        let (cold_reward, cold_s) = cold_solve(inc.instance());
        let tolerance = if n >= 1_000_000 {
            1e-9
        } else {
            cold_reward * 5e-3
        };
        assert!(
            warm.reward >= cold_reward - tolerance,
            "n={n} step {step}: warm objective {} < cold {cold_reward}",
            warm.reward
        );
        let speedup = cold_s / warm_s.max(1e-9);
        println!(
            "n={n} step {step}: warm {:.1} ms vs cold {:.1} ms = {speedup:.2}x",
            warm_s * 1e3,
            cold_s * 1e3
        );
        speedups.push(speedup);
    }
    speedups.sort_by(f64::total_cmp);
    speedups[STEPS / 2]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: n=10⁵")]
fn churn_rounds_stay_warm_near_cold_and_match_a_rebuild() {
    churn_arm(10_000, 16);
    churn_arm(100_000, 16);
}

#[test]
#[ignore = "timing floor"]
fn ci_churn_warm_resolve_is_at_least_2x_cold_at_1e5() {
    let median = churn_arm(100_000, 16);
    assert!(median >= 2.0, "median warm speedup {median:.2}x below 2x");
}

#[test]
#[ignore = "timing floor, full size"]
fn full_churn_warm_resolve_is_at_least_10x_cold_at_1e6() {
    let median = churn_arm(1_000_000, 4);
    assert!(median >= 10.0, "median warm speedup {median:.2}x below 10x");
}

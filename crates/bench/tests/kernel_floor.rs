//! Two floors of the sparse engine, on the uniform instance whose
//! radius holds the expected neighbor count at 48 (k=16).
//!
//! - The blocked lane kernel against the scalar per-entry walk: commits
//!   8 greedy rounds so the residuals are partly consumed, then times
//!   full passes over the sparse engine's evaluation order, best of 3.
//!   The blocked kernel must agree with the scalar walk to the bit and
//!   reach at least its evals/s.
//! - The CELF prime: the first lazy argmax, which primes the heap from
//!   one bulk CSR root pass, must take no longer than one `Seq`
//!   `score_all_into` pass at fresh residuals, the work of a prime that
//!   scores each candidate on its own. Best of 3 each.
//!
//! All floors are `#[ignore]`d. Run the CI-sized ones with
//! `cargo test --release -p mmph-bench --test kernel_floor -- --ignored ci_`
//! and the full-size ones with `full_` in place of `ci_`.

use std::hint::black_box;
use std::time::Instant;

use mmph_core::{GainOracle, OracleStrategy, Residuals, RewardEngine};
use mmph_sim::{uniform_degree_instance_2d, SpaceSpec};

/// Best of 3 wall times of `pass`, in seconds.
fn best_of_3(mut pass: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn check_kernel_floor(n: usize) {
    let inst = uniform_degree_instance_2d(n, 16, 48.0, SpaceSpec::PAPER, 0x5EED_BA5E).unwrap();
    let engine = RewardEngine::sparse(&inst);
    let mut residuals = Residuals::new(n);
    for _ in 0..inst.k() / 2 {
        let best = (0..n)
            .map(|i| (engine.candidate_gain(i, &residuals), i))
            .fold((f64::NEG_INFINITY, 0), |a, b| if b.0 > a.0 { b } else { a });
        residuals.apply(&inst, inst.point(best.1));
    }
    let gain = |scalar: bool, i: usize| {
        if scalar {
            engine.candidate_gain_unblocked(i, &residuals).unwrap()
        } else {
            engine.candidate_gain(i, &residuals)
        }
    };
    for i in 0..n {
        assert_eq!(
            gain(false, i).to_bits(),
            gain(true, i).to_bits(),
            "candidate {i}"
        );
    }
    let order = engine.eval_order().unwrap().to_vec();
    let reps = (2_000_000 / n).max(1);
    let evals_per_s = |scalar: bool| {
        let best = best_of_3(|| {
            let mut acc = 0.0;
            for _ in 0..reps {
                for &i in &order {
                    acc += gain(scalar, i as usize);
                }
            }
            black_box(acc);
        });
        (n * reps) as f64 / best
    };
    let blocked = evals_per_s(false);
    let scalar = evals_per_s(true);
    let ratio = blocked / scalar;
    println!("n={n}: blocked {blocked:.0} evals/s vs scalar {scalar:.0} = {ratio:.2}x");
    assert!(
        ratio >= 1.0,
        "blocked kernel slower than scalar ({ratio:.2}x)"
    );
}

fn check_prime_floor(n: usize) {
    let inst = uniform_degree_instance_2d(n, 16, 48.0, SpaceSpec::PAPER, 0x5EED_BA5E).unwrap();
    let fresh = Residuals::new(n);
    let seq = GainOracle::from_engine(RewardEngine::sparse(&inst), OracleStrategy::Seq);
    let mut gains = Vec::new();
    let pass = best_of_3(|| seq.score_all_into(&fresh, &mut gains));
    let lazy = GainOracle::from_engine(RewardEngine::sparse(&inst), OracleStrategy::Lazy);
    let mut best = None;
    let prime = best_of_3(|| {
        lazy.reset_lazy();
        best = Some(lazy.best_candidate(&fresh));
    });
    let best = best.unwrap();
    let want = seq.best_candidate(&fresh);
    assert_eq!(best.index, want.index);
    assert_eq!(best.gain.to_bits(), want.gain.to_bits());
    assert_eq!(
        lazy.evals(),
        3 * n as u64,
        "the prime charges one eval a candidate"
    );
    let ratio = prime / pass;
    println!(
        "n={n}: bulk prime {:.1} ms vs per-candidate pass {:.1} ms = {ratio:.2}x",
        prime * 1e3,
        pass * 1e3
    );
    assert!(
        ratio <= 1.0,
        "bulk prime slower than a per-candidate pass ({ratio:.2}x)"
    );
}

#[test]
#[ignore = "timing floor"]
fn ci_bulk_prime_is_no_slower_than_a_scoring_pass_at_1e5() {
    check_prime_floor(100_000);
}

#[test]
#[ignore = "timing floor, full size"]
fn full_bulk_prime_is_no_slower_than_a_scoring_pass_at_1e6() {
    check_prime_floor(1_000_000);
}

#[test]
#[ignore = "timing floor"]
fn ci_blocked_kernel_is_at_least_scalar_speed_at_1e4() {
    check_kernel_floor(10_000);
}

#[test]
#[ignore = "timing floor, full size"]
fn full_blocked_kernel_is_at_least_scalar_speed_at_1e5_and_1e6() {
    check_kernel_floor(100_000);
    check_kernel_floor(1_000_000);
}

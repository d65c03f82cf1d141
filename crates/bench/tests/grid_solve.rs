//! Exact lazy greedy solves on the CSR-free grid engine at full size.
//!
//! Solves the uniform instance whose radius holds the expected neighbor
//! count at 48 (paper density), k=16, with the CELF oracle on
//! `--engine grid`, and prints the engine build, the solve and the
//! process's peak resident set (`VmHWM`). The reward must equal
//! `streaming_objective` of the chosen centers within 1e-9 relative.
//! Nothing here is a floor: the numbers are recorded, not gated.
//!
//! Both tests are `#[ignore]`d, and each must run in a process of its
//! own, since `VmHWM` only ever grows:
//! `cargo test --release -p mmph-bench --test grid_solve -- --ignored --exact full_grid_exact_solve_at_1e6`
//! and the same with `full_grid_exact_solve_at_1e7`.

use std::time::Instant;

use mmph_core::{
    solve_rounds, streaming_objective, EngineKind, GainOracle, OracleStrategy, RewardEngine,
    SolveScratch,
};
use mmph_sim::{uniform_degree_instance_2d, SpaceSpec};

/// The process's peak resident set in MiB, from `/proc/self/status`.
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn record_grid_solve(n: usize) {
    let inst = uniform_degree_instance_2d(n, 16, 48.0, SpaceSpec::PAPER, 0x5EED_BA5E).unwrap();
    let t0 = Instant::now();
    let engine = RewardEngine::with_kind(&inst, EngineKind::Grid);
    let build_s = t0.elapsed().as_secs_f64();
    let oracle = GainOracle::from_engine(engine, OracleStrategy::Lazy);
    let mut scratch = SolveScratch::new();
    let t1 = Instant::now();
    let reward = solve_rounds(&oracle, &mut scratch);
    let solve_s = t1.elapsed().as_secs_f64();
    let centers: Vec<_> = scratch.picks().iter().map(|&i| *inst.point(i)).collect();
    let exact = streaming_objective(&inst, &centers);
    println!(
        "n={n}: grid build {:.0} ms, lazy solve {:.0} ms, {} evals, reward {reward}, \
         VmHWM {:.0} MiB, {} threads",
        build_s * 1e3,
        solve_s * 1e3,
        oracle.evals(),
        vm_hwm_mib().unwrap_or(f64::NAN),
        rayon::current_num_threads()
    );
    assert_eq!(centers.len(), 16);
    assert!(
        (reward - exact).abs() <= 1e-9 * exact,
        "reward {reward} vs streaming objective {exact}"
    );
}

#[test]
#[ignore = "full size: run by hand, one test per process"]
fn full_grid_exact_solve_at_1e6() {
    record_grid_solve(1_000_000);
}

#[test]
#[ignore = "full size: n=10⁷, tens of seconds and several GiB"]
fn full_grid_exact_solve_at_1e7() {
    record_grid_solve(10_000_000);
}

//! Exact lazy greedy solves on the CSR-free grid engine at full size.
//!
//! Solves the uniform instance whose radius holds the expected neighbor
//! count at 48 (paper density), k=16, with the CELF oracle on
//! `--engine grid`, and prints the engine build, the solve and the
//! process's peak resident set (`VmHWM`). The reward must equal
//! `streaming_objective` of the chosen centers within 1e-9 relative.
//! The coreset arm runs `solve_coreset` at its defaults on the n=10⁷
//! instance and prints its build, solve and full-resolution pass, the
//! representative count, the gap and the full objective, so the exact
//! and the coreset solve of one instance can be set side by side.
//! A high-spread arm solves clustered input on `grid` and a 3-D arm a
//! uniform 3-D instance, each held to `streaming_objective` like the
//! uniform arms. Nothing here is a floor: the numbers are recorded, not
//! gated.
//!
//! Every test is `#[ignore]`d, and each must run in a process of its
//! own, since `VmHWM` only ever grows:
//! `cargo test --release -p mmph-bench --test grid_solve -- --ignored --exact full_grid_exact_solve_at_1e6`
//! and the same with `full_grid_exact_solve_at_2e6`,
//! `full_grid_exact_solve_at_1e7`, `full_coreset_solve_at_1e7`,
//! `full_high_spread_grid_solve` or `full_grid_exact_solve_3d_at_1e5`.

use std::time::Instant;

use mmph_core::{
    solve_coreset, solve_rounds, streaming_objective, CoresetConfig, EngineKind, GainOracle,
    Instance, OracleStrategy, RewardEngine, SolveScratch,
};
use mmph_geom::{Norm, Point};
use mmph_sim::{uniform_degree_instance_2d, SpaceSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The process's peak resident set in MiB, from `/proc/self/status`.
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One lazy greedy solve on an explicit engine kind, timed from the
/// engine build to the picks.
struct LazyRun<const D: usize> {
    build_ms: f64,
    solve_ms: f64,
    evals: u64,
    reward: f64,
    centers: Vec<Point<D>>,
}

fn lazy_solve<const D: usize>(inst: &Instance<D>, kind: EngineKind) -> LazyRun<D> {
    let t0 = Instant::now();
    let engine = RewardEngine::with_kind(inst, kind);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let oracle = GainOracle::from_engine(engine, OracleStrategy::Lazy);
    let mut scratch = SolveScratch::new();
    let t1 = Instant::now();
    let reward = solve_rounds(&oracle, &mut scratch);
    let solve_ms = t1.elapsed().as_secs_f64() * 1e3;
    LazyRun {
        build_ms,
        solve_ms,
        evals: oracle.evals(),
        reward,
        centers: scratch.picks().iter().map(|&i| *inst.point(i)).collect(),
    }
}

/// The uniform degree-48, k=16 instance every uniform arm solves.
fn uniform_instance(n: usize) -> Instance<2> {
    uniform_degree_instance_2d(n, 16, 48.0, SpaceSpec::PAPER, 0x5EED_BA5E).unwrap()
}

/// Solves `inst` on `grid`, prints the run under `label` and holds its
/// reward to `streaming_objective` within 1e-9 relative.
fn record_grid_solve<const D: usize>(label: &str, inst: &Instance<D>) {
    let run = lazy_solve(inst, EngineKind::Grid);
    let exact = streaming_objective(inst, &run.centers);
    println!(
        "{label} n={}: grid build {:.0} ms, lazy solve {:.0} ms, {} evals, reward {}, \
         VmHWM {:.0} MiB, {} threads",
        inst.n(),
        run.build_ms,
        run.solve_ms,
        run.evals,
        run.reward,
        vm_hwm_mib().unwrap_or(f64::NAN),
        rayon::current_num_threads()
    );
    assert_eq!(run.centers.len(), 16);
    assert!(
        (run.reward - exact).abs() <= 1e-9 * exact,
        "reward {} vs streaming objective {exact}",
        run.reward
    );
}

#[test]
#[ignore = "full size: run by hand, one test per process"]
fn full_grid_exact_solve_at_1e6() {
    record_grid_solve("uniform", &uniform_instance(1_000_000));
}

#[test]
#[ignore = "full size: run by hand, one test per process"]
fn full_grid_exact_solve_at_2e6() {
    record_grid_solve("uniform", &uniform_instance(2_000_000));
}

#[test]
#[ignore = "full size: n=10⁷, tens of seconds and several GiB"]
fn full_grid_exact_solve_at_1e7() {
    record_grid_solve("uniform", &uniform_instance(10_000_000));
}

/// The coreset pipeline at its defaults (4 cells per radius, `auto`
/// engine, lazy oracle) on the instance of `full_grid_exact_solve_at_1e7`.
#[test]
#[ignore = "full size: n=10⁷, several seconds and about a GiB"]
fn full_coreset_solve_at_1e7() {
    let inst = uniform_instance(10_000_000);
    let report = solve_coreset(&inst, &CoresetConfig::default()).unwrap();
    println!(
        "n={}: coreset build {:.0} ms, solve {:.0} ms, eval {:.0} ms, coreset_n {}, \
         gap {:.4}%, full objective {}, engine {}, VmHWM {:.0} MiB, {} threads",
        inst.n(),
        report.build_ms,
        report.solve_ms,
        report.eval_ms,
        report.coreset_n,
        report.gap * 100.0,
        report.full_objective,
        report.engine,
        vm_hwm_mib().unwrap_or(f64::NAN),
        rayon::current_num_threads()
    );
    assert_eq!(report.selection.len(), 16);
    assert!(report.degraded.is_none());
    assert!(report.gap <= 0.05, "gap {} past 5%", report.gap);
}

/// n = 10⁶ in 100 clusters: 10⁴ uniform points in a 20r square each,
/// on a 10×10 lattice with spacing 10⁴·r (r = 1, L2, unit weights,
/// k = 16). Cells of side r over the bounding box would outnumber the
/// points ~8,000 to 1; the grid engine indexes the ~40,000 occupied
/// ones.
fn high_spread_instance() -> Instance<2> {
    const CLUSTER: usize = 10_000;
    let mut rng = StdRng::seed_from_u64(0x5EED_BA5E);
    let mut points = Vec::with_capacity(100 * CLUSTER);
    for cx in 0..10 {
        for cy in 0..10 {
            let (x0, y0) = (f64::from(cx) * 1e4, f64::from(cy) * 1e4);
            for _ in 0..CLUSTER {
                points.push(Point::new([
                    x0 + rng.gen_range(0.0..20.0),
                    y0 + rng.gen_range(0.0..20.0),
                ]));
            }
        }
    }
    let weights = vec![1.0; points.len()];
    Instance::new(points, weights, 1.0, 16, Norm::L2).unwrap()
}

#[test]
#[ignore = "full size: n=10⁶ high-spread, a few seconds"]
fn full_high_spread_grid_solve() {
    record_grid_solve("high spread", &high_spread_instance());
}

/// n = 10⁵ uniform in [0, 4]³ at expected degree 48 (L2, unit weights,
/// k = 16): the radius whose ball holds 48 points on average.
fn uniform_instance_3d(n: usize) -> Instance<3> {
    let mut rng = StdRng::seed_from_u64(0x5EED_BA5E);
    let points: Vec<Point<3>> = (0..n)
        .map(|_| Point::new(std::array::from_fn(|_| rng.gen_range(0.0..4.0))))
        .collect();
    let r = (48.0 * 64.0 * 3.0 / (4.0 * std::f64::consts::PI * n as f64)).cbrt();
    Instance::new(points, vec![1.0; n], r, 16, Norm::L2).unwrap()
}

#[test]
#[ignore = "full size: run by hand, one test per process"]
fn full_grid_exact_solve_3d_at_1e5() {
    record_grid_solve("uniform 3-D", &uniform_instance_3d(100_000));
}

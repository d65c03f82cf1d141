//! Ablation benches for the design choices called out in DESIGN.md §3:
//!
//! * `lazy_greedy` — CELF vs eager Algorithm 2 (identical output,
//!   fewer coverage-reward evaluations ⇒ faster for large n).
//! * `spatial_index` — occupied-cell grid vs linear-scan reward
//!   evaluation inside Algorithm 2, across radii (small radius favors
//!   the index).
//! * `round_oracle` — grid vs multistart oracle for Algorithm 1:
//!   quality is printed, time is measured.
//! * `l1_center` — the paper's projection "new-center" vs the exact
//!   2-D L1 minimax center inside Algorithm 4 under the 1-norm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmph_core::solvers::{
    ComplexGreedy, Exhaustive, LocalGreedy, LocalSearch, RecenterRule, RoundBased, SeededGreedy,
};
use mmph_core::{Kernel, OracleStrategy, Solver};
use mmph_geom::l1ball::{l1_minimax_center_2d, l1_radius_at, projection_center};
use mmph_geom::Norm;
use mmph_sim::gen::WeightScheme;
use mmph_sim::scenario::Scenario;

fn bench_lazy_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_lazy_greedy");
    group.sample_size(10);
    for n in [100usize, 400, 1000] {
        let scenario = Scenario::paper_2d(n, 8, 0.8, Norm::L2, WeightScheme::PAPER_WEIGHTED, 7);
        let inst = scenario.generate_2d().unwrap();
        // Print the work saved once per size.
        let eager = LocalGreedy::new().solve(&inst).unwrap();
        let lazy = LocalGreedy::new()
            .with_oracle(OracleStrategy::Lazy)
            .solve(&inst)
            .unwrap();
        assert_eq!(eager.centers, lazy.centers, "CELF must be exact");
        println!(
            "n = {n}: eager {} evals, lazy {} evals ({:.1}% of eager)",
            eager.evals,
            lazy.evals,
            100.0 * lazy.evals as f64 / eager.evals as f64
        );
        group.bench_with_input(BenchmarkId::new("eager", n), &inst, |b, inst| {
            b.iter(|| LocalGreedy::new().solve(inst).unwrap().total_reward)
        });
        group.bench_with_input(BenchmarkId::new("lazy_celf", n), &inst, |b, inst| {
            b.iter(|| {
                LocalGreedy::new()
                    .with_oracle(OracleStrategy::Lazy)
                    .solve(inst)
                    .unwrap()
                    .total_reward
            })
        });
    }
    group.finish();
}

fn bench_oracle(c: &mut Criterion) {
    use mmph_core::{GainOracle, Residuals};
    let mut group = c.benchmark_group("ablation_oracle");
    group.sample_size(10);
    // On a single-core host the parallel oracle degenerates to one
    // worker; report the thread count so timings can be interpreted.
    println!(
        "oracle ablation on {} rayon thread(s)",
        rayon::current_num_threads()
    );
    for n in [2_000usize, 10_000] {
        let scenario = Scenario::paper_2d(n, 4, 0.5, Norm::L2, WeightScheme::PAPER_WEIGHTED, 29);
        let inst = scenario.generate_2d().unwrap();
        // Exactness across strategies plus the CELF work saved, once
        // per size (the acceptance check behind `--oracle`).
        let seq = LocalGreedy::new()
            .with_oracle(OracleStrategy::Seq)
            .solve(&inst)
            .unwrap();
        let par = LocalGreedy::new()
            .with_oracle(OracleStrategy::Par)
            .solve(&inst)
            .unwrap();
        let lazy = LocalGreedy::new()
            .with_oracle(OracleStrategy::Lazy)
            .solve(&inst)
            .unwrap();
        assert_eq!(seq.centers, par.centers, "par oracle must be exact");
        assert_eq!(seq.centers, lazy.centers, "lazy oracle must be exact");
        println!(
            "n = {n}: seq {} evals, lazy {} evals ({:.1}% of seq), identical centers",
            seq.evals,
            lazy.evals,
            100.0 * lazy.evals as f64 / seq.evals as f64
        );
        // The per-round hot path the strategies compete on: one full
        // candidate sweep against fresh residuals.
        let residuals = Residuals::new(inst.n());
        for (name, strategy) in [("seq", OracleStrategy::Seq), ("par", OracleStrategy::Par)] {
            let oracle = GainOracle::new(&inst, strategy);
            group.bench_with_input(
                BenchmarkId::new(format!("score_all_{name}"), n),
                &inst,
                |b, _| b.iter(|| oracle.score_all(&residuals).iter().sum::<f64>()),
            );
        }
        group.bench_with_input(BenchmarkId::new("solve_lazy", n), &inst, |b, inst| {
            b.iter(|| {
                LocalGreedy::new()
                    .with_oracle(OracleStrategy::Lazy)
                    .solve(inst)
                    .unwrap()
                    .total_reward
            })
        });
    }
    group.finish();
}

fn bench_spatial_index(c: &mut Criterion) {
    use mmph_core::reward::RewardEngine;
    use mmph_core::{EngineKind, Residuals};
    let mut group = c.benchmark_group("ablation_spatial_index");
    group.sample_size(10);
    for r in [0.2f64, 0.5, 1.0, 2.0] {
        let scenario = Scenario::paper_2d(600, 4, r, Norm::L2, WeightScheme::PAPER_WEIGHTED, 11);
        let inst = scenario.generate_2d().unwrap();
        group.bench_with_input(
            BenchmarkId::new("scan", format!("r{r}")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    LocalGreedy::new()
                        .with_engine(EngineKind::Scan)
                        .solve(inst)
                        .unwrap()
                        .total_reward
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("grid", format!("r{r}")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    LocalGreedy::new()
                        .with_engine(EngineKind::Grid)
                        .solve(inst)
                        .unwrap()
                        .total_reward
                })
            },
        );
        // Raw gain-evaluation throughput of the scan and grid engines
        // (one full candidate sweep against fresh residuals).
        let residuals = Residuals::new(inst.n());
        let sweep = |engine: &RewardEngine<2>| -> f64 {
            inst.points()
                .iter()
                .map(|p| engine.gain(p, &residuals))
                .sum()
        };
        group.bench_with_input(
            BenchmarkId::new("engine_scan_sweep", format!("r{r}")),
            &inst,
            |b, inst| b.iter(|| sweep(&RewardEngine::scan(inst))),
        );
        group.bench_with_input(
            BenchmarkId::new("engine_grid_sweep", format!("r{r}")),
            &inst,
            |b, inst| b.iter(|| sweep(&RewardEngine::grid(inst))),
        );
    }
    group.finish();
}

fn bench_round_oracle(c: &mut Criterion) {
    let scenario = Scenario::paper_2d(40, 4, 1.0, Norm::L2, WeightScheme::PAPER_WEIGHTED, 13);
    let inst = scenario.generate_2d().unwrap();
    let grid = RoundBased::grid().solve(&inst).unwrap();
    let multi = RoundBased::multistart().solve(&inst).unwrap();
    println!(
        "oracle quality on the example: grid {:.4}, multistart {:.4}",
        grid.total_reward, multi.total_reward
    );
    let mut group = c.benchmark_group("ablation_round_oracle");
    group.sample_size(10);
    group.bench_function("grid_17x3", |b| {
        b.iter(|| RoundBased::grid().solve(&inst).unwrap().total_reward)
    });
    group.bench_function("multistart_default", |b| {
        b.iter(|| RoundBased::multistart().solve(&inst).unwrap().total_reward)
    });
    group.finish();
}

fn bench_l1_center(c: &mut Criterion) {
    // Inside Algorithm 4 under L1: paper projection vs exact rotation
    // center — quality printed, component cost measured.
    let scenario = Scenario::paper_2d(40, 4, 1.5, Norm::L1, WeightScheme::PAPER_WEIGHTED, 17);
    let inst = scenario.generate_2d().unwrap();
    let paper = ComplexGreedy::new().solve(&inst).unwrap();
    let ball = ComplexGreedy::new()
        .with_recenter_rule(RecenterRule::EuclideanBall)
        .solve(&inst)
        .unwrap();
    println!(
        "greedy4 under L1: projection center {:.4}, euclidean-ball recenter {:.4}",
        paper.total_reward, ball.total_reward
    );
    let pts = inst.points().to_vec();
    println!(
        "minimax L1 radius over the instance: projection {:.4}, exact {:.4}",
        l1_radius_at(&projection_center(&pts).unwrap(), &pts),
        l1_minimax_center_2d(&pts).unwrap().1,
    );
    let mut group = c.benchmark_group("ablation_l1_center");
    group.bench_function("projection_center", |b| {
        b.iter(|| projection_center(&pts).unwrap())
    });
    group.bench_function("exact_rotation_center", |b| {
        b.iter(|| l1_minimax_center_2d(&pts).unwrap())
    });
    group.finish();
}

fn bench_extensions(c: &mut Criterion) {
    // Quality/cost of the extension solvers vs plain greedy 2 and the
    // exhaustive optimum on a paper-sized instance.
    let scenario = Scenario::paper_2d(40, 4, 1.0, Norm::L2, WeightScheme::PAPER_WEIGHTED, 19);
    let inst = scenario.generate_2d().unwrap();
    let opt = Exhaustive::new().solve(&inst).unwrap();
    for (name, sol) in [
        ("greedy2", LocalGreedy::new().solve(&inst).unwrap()),
        ("local-search", LocalSearch::new().solve(&inst).unwrap()),
        ("seeded(t=1)", SeededGreedy::new().solve(&inst).unwrap()),
    ] {
        println!(
            "{name:<14} reward {:.4} ({:.2}% of exhaustive), {} evals",
            sol.total_reward,
            100.0 * sol.total_reward / opt.total_reward,
            sol.evals
        );
    }
    let mut group = c.benchmark_group("ablation_extensions");
    group.sample_size(10);
    group.bench_function("greedy2", |b| {
        b.iter(|| LocalGreedy::new().solve(&inst).unwrap().total_reward)
    });
    group.bench_function("local_search", |b| {
        b.iter(|| LocalSearch::new().solve(&inst).unwrap().total_reward)
    });
    group.bench_function("seeded_t1", |b| {
        b.iter(|| SeededGreedy::new().solve(&inst).unwrap().total_reward)
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    // Reward-kernel ablation: how the decay shape changes solve time
    // and achieved reward for the same geometry.
    let base = Scenario::paper_2d(40, 4, 1.0, Norm::L2, WeightScheme::PAPER_WEIGHTED, 23)
        .generate_2d()
        .unwrap();
    let kernels = [
        ("linear", Kernel::Linear),
        ("step_maxcov", Kernel::Step),
        ("quadratic", Kernel::Quadratic),
        ("exponential", Kernel::Exponential { lambda: 3.0 }),
    ];
    for (name, kernel) in kernels {
        let inst = base.with_kernel(kernel).unwrap();
        let sol = LocalGreedy::new().solve(&inst).unwrap();
        println!(
            "kernel {name:<12} greedy2 reward {:.4} (ceiling {:.0})",
            sol.total_reward,
            inst.total_weight()
        );
    }
    let mut group = c.benchmark_group("ablation_kernels");
    for (name, kernel) in kernels {
        let inst = base.with_kernel(kernel).unwrap();
        group.bench_with_input(BenchmarkId::new("greedy2", name), &inst, |b, inst| {
            b.iter(|| LocalGreedy::new().solve(inst).unwrap().total_reward)
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lazy_greedy,
    bench_oracle,
    bench_spatial_index,
    bench_round_oracle,
    bench_l1_center,
    bench_extensions,
    bench_kernels
);
criterion_main!(benches);

//! Complexity scaling bench: measured runtime vs n for the three local
//! greedies, validating the paper's O(kn), O(kn²), O(kn³) claims
//! (Theorems 3 and 4, §V-A).
//!
//! Criterion reports per-n times; the expected shape is greedy 3 ≪
//! greedy 2 ≪ greedy 4 with slopes ~1, ~2 and ~3 on a log-log plot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmph_core::solvers::{ComplexGreedy, LocalGreedy, SimpleGreedy};
use mmph_core::{OracleStrategy, Solver};
use mmph_geom::Norm;
use mmph_sim::gen::WeightScheme;
use mmph_sim::scenario::Scenario;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("complexity_scaling");
    group.sample_size(10);
    for n in [25usize, 50, 100, 200, 400] {
        let scenario = Scenario::paper_2d(n, 4, 1.0, Norm::L2, WeightScheme::PAPER_WEIGHTED, 3);
        let inst = scenario.generate_2d().unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("greedy3_O(kn)", n), &inst, |b, inst| {
            b.iter(|| SimpleGreedy::new().solve(inst).unwrap().total_reward)
        });
        group.bench_with_input(BenchmarkId::new("greedy2_O(kn2)", n), &inst, |b, inst| {
            b.iter(|| LocalGreedy::new().solve(inst).unwrap().total_reward)
        });
        group.bench_with_input(
            BenchmarkId::new("greedy2_lazy_celf", n),
            &inst,
            |b, inst| {
                b.iter(|| {
                    LocalGreedy::new()
                        .with_oracle(OracleStrategy::Lazy)
                        .solve(inst)
                        .unwrap()
                        .total_reward
                })
            },
        );
        // The cubic algorithm gets a reduced top size to keep the bench
        // wall-clock sane.
        if n <= 200 {
            group.bench_with_input(BenchmarkId::new("greedy4_O(kn3)", n), &inst, |b, inst| {
                b.iter(|| ComplexGreedy::new().solve(inst).unwrap().total_reward)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);

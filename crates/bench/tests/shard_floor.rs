//! Shard-then-merge: the parallel sweep against the serial one.
//!
//! Solves the uniform instance whose radius holds the expected
//! neighbor count at 48 (k=16) in 8 spatial shards, serially and then
//! in parallel. Both sweeps must select bit-identical centers, and the
//! parallel one must be at least 1.5× faster. The floor arms only when
//! the host reports more than one core and the rayon pool runs more
//! than one thread; otherwise the ratio is printed, not enforced.
//!
//! Both floors are `#[ignore]`d. Each must be the first solve in its
//! process: run after a large solve in the same process, the ratio
//! drops. Run the CI-sized one with
//! `cargo test --release -p mmph-bench --test shard_floor -- --ignored ci_`
//! and the full-size one with `full_` in place of `ci_`.

use std::time::Instant;

use mmph_core::{solve_sharded, ShardConfig};
use mmph_sim::{uniform_degree_instance_2d, SpaceSpec};

fn check_shard_floor(n: usize) {
    let inst = uniform_degree_instance_2d(n, 16, 48.0, SpaceSpec::PAPER, 0x5EED_BA5E).unwrap();
    let sweep = |parallel: bool| {
        let cfg = ShardConfig {
            shards: 8,
            parallel,
            ..ShardConfig::default()
        };
        let t0 = Instant::now();
        let report = solve_sharded(&inst, &cfg).unwrap();
        (report, t0.elapsed().as_secs_f64())
    };
    let (serial, serial_s) = sweep(false);
    let (parallel, parallel_s) = sweep(true);
    assert_eq!(serial.selection, parallel.selection);
    assert_eq!(serial.objective.to_bits(), parallel.objective.to_bits());
    let speedup = serial_s / parallel_s.max(1e-9);
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let armed = cores > 1 && rayon::current_num_threads() > 1;
    println!(
        "n={n}: serial {:.0} ms vs parallel {:.0} ms = {speedup:.2}x ({cores} cores, armed: {armed})",
        serial_s * 1e3,
        parallel_s * 1e3
    );
    if armed {
        assert!(speedup >= 1.5, "shard speedup {speedup:.2}x below 1.5x");
    }
}

#[test]
#[ignore = "timing floor"]
fn ci_shard_parallel_sweep_is_at_least_1_5x_serial_at_50k() {
    check_shard_floor(50_000);
}

#[test]
#[ignore = "timing floor, full size"]
fn full_shard_parallel_sweep_is_at_least_1_5x_serial_at_2e6() {
    check_shard_floor(2_000_000);
}

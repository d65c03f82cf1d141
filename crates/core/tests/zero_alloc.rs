//! Asserts the acceptance criterion that the steady-state solve path
//! performs **zero heap allocations after warmup**.
//!
//! A counting global allocator wraps `System`; after a warmup
//! `solve_rounds` has grown every scratch buffer, a second solve
//! through the same warm oracle + scratch must neither allocate nor
//! free. This file contains exactly one `#[test]` so no concurrent
//! test can perturb the counters between the two reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mmph_core::{solve_rounds, BatchRunner, EngineKind, Instance, OracleStrategy, SolveScratch};
use mmph_geom::{Norm, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::SeqCst),
        DEALLOCS.load(Ordering::SeqCst),
    )
}

fn instance(seed: u64, n: usize, k: usize) -> Instance<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<Point<2>> = (0..n)
        .map(|_| Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]))
        .collect();
    let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(1..=5) as f64).collect();
    Instance::new(pts, ws, 0.6, k, Norm::L2).unwrap()
}

#[test]
fn steady_state_solve_allocates_nothing() {
    // Par is excluded: the vendored thread-pool shim materializes
    // per-call vectors. Seq and Lazy are the serving-path strategies.
    for (strategy, engine) in [
        (OracleStrategy::Seq, EngineKind::Sparse),
        (OracleStrategy::Lazy, EngineKind::Sparse),
    ] {
        let inst = instance(7, 400, 8);
        let runner = BatchRunner::new()
            .with_strategy(strategy)
            .with_engine(engine);
        let mut scratch = SolveScratch::new();
        let oracle = runner.build_oracle(&inst, &mut scratch);

        // Warmup: grows residuals, picks, round_gains, and the CELF
        // heap to this instance's size.
        let warm_reward = solve_rounds(&oracle, &mut scratch);
        let warm_picks = scratch.picks().to_vec();

        let (a0, d0) = counters();
        let reward = solve_rounds(&oracle, &mut scratch);
        let (a1, d1) = counters();

        assert_eq!(
            a1 - a0,
            0,
            "{strategy}: steady-state solve allocated {} times",
            a1 - a0
        );
        assert_eq!(
            d1 - d0,
            0,
            "{strategy}: steady-state solve freed {} times",
            d1 - d0
        );
        assert_eq!(reward.to_bits(), warm_reward.to_bits());
        assert_eq!(scratch.picks(), warm_picks.as_slice());

        mmph_core::recycle(oracle, &mut scratch);

        // A rebuilt engine on the warm scratch also stays quiet during
        // the solve rounds themselves (the rebuild may allocate for
        // the grid index; the rounds must not).
        let oracle = runner.build_oracle(&inst, &mut scratch);
        solve_rounds(&oracle, &mut scratch);
        let (a2, _) = counters();
        solve_rounds(&oracle, &mut scratch);
        let (a3, _) = counters();
        assert_eq!(a3 - a2, 0, "{strategy}: rebuilt-engine solve allocated");
    }
}

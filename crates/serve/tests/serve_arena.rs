//! The service keeps its solve arena from one big solo solve to the
//! next, and frees it before any other work. A tracking global
//! allocator records the largest block allocated while the service
//! handles a round. This file contains exactly one `#[test]` so no
//! concurrent test can allocate between the reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mmph_core::{RewardEngine, PARALLEL_BUILD_MIN_POINTS};
use mmph_geom::Norm;
use mmph_serve::{Incoming, Request, Response, Service, ServiceConfig};
use mmph_sim::{radius_for_degree_2d, Scenario, SpaceSpec, WeightScheme};

struct Tracking;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// A uniform scenario of `n` points at mean degree 48.
fn scenario(n: usize, seed: u64) -> Scenario {
    let r = radius_for_degree_2d(n, 48.0, SpaceSpec::PAPER).unwrap();
    Scenario::paper_2d(n, 8, r, Norm::L2, WeightScheme::PAPER_WEIGHTED, seed)
}

fn solve(id: u64, n: usize, seed: u64) -> Request {
    let mut req = Request::solve(id, scenario(n, seed));
    req.engine = Some("sparse".into());
    req
}

/// Handles one round; returns its responses and the largest block
/// allocated meanwhile.
fn round(svc: &mut Service, reqs: &[Request]) -> (Vec<Response>, usize) {
    let lines: Vec<Incoming> = reqs.iter().map(|r| Incoming::now(r.to_line())).collect();
    LARGEST.store(0, Ordering::SeqCst);
    let out = svc.handle_lines(&lines);
    (out, LARGEST.load(Ordering::SeqCst))
}

fn kept(svc: &mut Service) -> u64 {
    let (out, _) = round(svc, &[Request::control(99, "stats")]);
    let stats = out[0].stats.clone().expect("stats response");
    assert_eq!(stats.arena_bytes, svc.stats().arena_bytes);
    stats.arena_bytes
}

#[test]
fn big_solo_solves_keep_the_arena_and_nothing_else_does() {
    let big = 20_000;
    assert!(big >= PARALLEL_BUILD_MIN_POINTS);
    let mut svc = Service::new(ServiceConfig::default());
    assert_eq!(kept(&mut svc), 0);

    let (out, _) = round(&mut svc, &[solve(1, big, 1)]);
    assert!(out[0].is_completed_solve(), "{out:?}");
    let arena = kept(&mut svc);
    assert!(arena > 0, "a big solo solve keeps its arena");

    // The second solve, of another instance of the same size, rewrites
    // the kept CSR: none of its blocks is as large as the smallest of
    // the CSR's entry streams (4 bytes a padded entry).
    let inst = scenario(big, 2).generate_2d().unwrap();
    let csr = RewardEngine::sparse(&inst).sparse_stats().unwrap();
    let (out, largest) = round(&mut svc, &[solve(2, big, 2)]);
    assert!(out[0].is_completed_solve(), "{out:?}");
    assert!(
        largest < csr.padded_entries * 4,
        "the second solve allocated {largest} B, against a {} B neighbor stream",
        csr.padded_entries * 4
    );
    // Same answer as a service that kept nothing.
    let (cold, _) = round(
        &mut Service::new(ServiceConfig::default()),
        &[solve(2, big, 2)],
    );
    assert_eq!(out[0].selection, cold[0].selection);
    assert_eq!(
        out[0].reward.map(f64::to_bits),
        cold[0].reward.map(f64::to_bits)
    );
    assert_eq!(out[0].evals, cold[0].evals);
    assert!(kept(&mut svc) >= arena);

    // A small solo solve frees it.
    let (out, _) = round(&mut svc, &[solve(3, 300, 3)]);
    assert!(out[0].is_completed_solve());
    assert_eq!(kept(&mut svc), 0, "an n=300 solve keeps nothing");

    // So does a round of two requests, even two big solves.
    round(&mut svc, &[solve(4, big, 4)]);
    assert!(kept(&mut svc) > 0);
    let (out, _) = round(&mut svc, &[solve(5, big, 5), solve(6, big, 6)]);
    assert!(out.iter().all(Response::is_completed_solve));
    assert_eq!(kept(&mut svc), 0, "a two-request round keeps nothing");

    // And a mutate.
    round(&mut svc, &[solve(7, big, 7)]);
    assert!(kept(&mut svc) > 0);
    round(
        &mut svc,
        &[Request::mutate(8, Some(scenario(300, 8)), None)],
    );
    assert_eq!(kept(&mut svc), 0, "a mutate frees the arena first");
}

//! `throughput` — the persisted batched-solving baseline behind
//! `BENCH_PR5.json`.
//!
//! ```text
//! throughput [--quick] [--out PATH] [--seed S] [--threads N] [--engine E]
//! ```
//!
//! Sweeps batch shapes (distinct instances × adjacent repeats) ×
//! {cold, warm-scratch} through the [`BatchRunner`] pipeline at the
//! PR4 baseline scale (n=10⁴, k=16, degree-pinned radius), and records:
//!
//! - per-arm throughput (requests/s) with warm-vs-cold speedups;
//! - the steady-state allocation count of the warm solve path,
//!   measured with a counting global allocator (must be 0);
//! - in full mode, perfsuite-style rows at n=10⁶ (lazy × sparse only)
//!   — the ROADMAP's "millions of users" scale.
//!
//! Every warm arm is verified bit-identical to the cold unbatched
//! reference in-binary; any mismatch or nonzero steady-state allocation
//! count exits non-zero so CI can run this binary
//! directly (`--quick` in the `throughput-smoke` job).

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use mmph_bench::perfrows::{build_instance, run_one, Row, DEFAULT_SEED, TARGET_DEGREE};
use mmph_core::{
    solve_rounds, verify_reports, BatchRunner, EngineKind, Instance, OracleStrategy, SolveScratch,
};
use serde::Serialize;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Debug, Clone)]
struct Args {
    quick: bool,
    out: PathBuf,
    seed: u64,
    threads: Option<usize>,
    engine: EngineKind,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: PathBuf::from("BENCH_PR5.json"),
        seed: DEFAULT_SEED,
        threads: None,
        engine: EngineKind::Sparse,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = Some(v.parse().map_err(|_| format!("bad --threads value: {v}"))?);
            }
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                args.engine = match v.as_str() {
                    "sparse" => EngineKind::Sparse,
                    "sparse-f32" => EngineKind::SparseF32,
                    other => {
                        return Err(format!(
                            "--engine must be sparse or sparse-f32, got {other}"
                        ))
                    }
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: throughput [--quick] [--out PATH] [--seed S] [--threads N] \
                     [--engine sparse|sparse-f32]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// One batch configuration's measured throughput.
#[derive(Debug, Clone, Serialize)]
struct Arm {
    distinct: usize,
    repeat: usize,
    mode: String,
    requests: usize,
    workers: usize,
    wall_ms: f64,
    throughput_per_sec: f64,
    engines_reused: usize,
    mean_solve_ms: f64,
    verified: bool,
}

#[derive(Debug, Clone, Serialize)]
struct WarmCold {
    distinct: usize,
    repeat: usize,
    cold_rps: f64,
    warm_rps: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    suite: String,
    quick: bool,
    seed: u64,
    n: usize,
    k: usize,
    engine: String,
    target_degree: f64,
    arms: Vec<Arm>,
    warm_vs_cold: Vec<WarmCold>,
    steady_state_allocs: Vec<(String, u64)>,
    huge_rows: Vec<Row>,
    checks_ok: bool,
}

/// Builds the request stream: `distinct` degree-pinned instances with
/// consecutive seeds, each repeated `repeat` times adjacently (the
/// serving pattern the warm path amortizes over).
fn stream(n: usize, k: usize, seed: u64, distinct: usize, repeat: usize) -> Vec<Instance<2>> {
    let mut out = Vec::with_capacity(distinct * repeat);
    for d in 0..distinct {
        let inst = build_instance(n, k, seed + d as u64);
        for _ in 0..repeat {
            out.push(inst.clone());
        }
    }
    out
}

fn arm(
    runner: &BatchRunner,
    insts: &[Instance<2>],
    distinct: usize,
    repeat: usize,
    mode: &str,
) -> (Arm, mmph_core::BatchReport) {
    let report = runner.run(insts);
    let a = Arm {
        distinct,
        repeat,
        mode: mode.to_owned(),
        requests: report.results.len(),
        workers: report.workers,
        wall_ms: report.wall_nanos as f64 / 1e6,
        throughput_per_sec: report.throughput(),
        engines_reused: report.engines_reused(),
        mean_solve_ms: report.total_solve_nanos() as f64 / report.results.len().max(1) as f64 / 1e6,
        verified: false,
    };
    (a, report)
}

/// Counts allocations during a steady-state warm solve (after one
/// warmup solve on the same oracle + scratch). Must return 0.
fn steady_state_allocs(inst: &Instance<2>, strategy: OracleStrategy, engine: EngineKind) -> u64 {
    let runner = BatchRunner::new()
        .with_strategy(strategy)
        .with_engine(engine);
    let mut scratch = SolveScratch::new();
    let oracle = runner.build_oracle(inst, &mut scratch);
    solve_rounds(&oracle, &mut scratch); // warmup
    let before = ALLOCS.load(Ordering::Relaxed);
    solve_rounds(&oracle, &mut scratch);
    ALLOCS.load(Ordering::Relaxed) - before
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("throughput: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(threads) = args.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("thread pool config");
    }
    let (n, k, distinct, repeats): (usize, usize, usize, &[usize]) = if args.quick {
        (2_000, 8, 2, &[1, 4])
    } else {
        (10_000, 16, 4, &[1, 2, 4, 8])
    };

    let mut arms = Vec::new();
    let mut warm_vs_cold = Vec::new();
    let mut checks_ok = true;

    let cold_runner = BatchRunner::new().with_warm(false).with_engine(args.engine);
    let warm_runner = BatchRunner::new().with_engine(args.engine);

    for &repeat in repeats {
        let insts = stream(n, k, args.seed, distinct, repeat);
        let (cold_arm, cold_report) = arm(&cold_runner, &insts, distinct, repeat, "cold");
        println!(
            "n={n} k={k} distinct={distinct} repeat={repeat} cold {:>8.1} req/s",
            cold_arm.throughput_per_sec
        );
        let mut cold_arm = cold_arm;
        cold_arm.verified = true; // cold IS the unbatched reference
        let cold_rps = cold_arm.throughput_per_sec;
        arms.push(cold_arm);

        let (mut warm_arm, warm_report) = arm(&warm_runner, &insts, distinct, repeat, "warm");
        match verify_reports(&warm_report, &cold_report) {
            Ok(()) => warm_arm.verified = true,
            Err(e) => {
                eprintln!("throughput: VERIFICATION FAILED (warm repeat={repeat}): {e}");
                checks_ok = false;
            }
        }
        println!(
            "n={n} k={k} distinct={distinct} repeat={repeat} warm {:>8.1} req/s  ({} engines reused, verified={})",
            warm_arm.throughput_per_sec, warm_arm.engines_reused, warm_arm.verified
        );
        warm_vs_cold.push(WarmCold {
            distinct,
            repeat,
            cold_rps,
            warm_rps: warm_arm.throughput_per_sec,
            speedup: warm_arm.throughput_per_sec / cold_rps,
        });
        arms.push(warm_arm);
    }

    for wc in &warm_vs_cold {
        println!(
            "warm/cold n={n} repeat={:>2}: {:>8.1} vs {:>8.1} req/s = {:.2}x",
            wc.repeat, wc.warm_rps, wc.cold_rps, wc.speedup
        );
    }

    // Zero-allocation steady state, per serving strategy.
    let alloc_probe = build_instance(if args.quick { 2_000 } else { 10_000 }, k, args.seed);
    let mut steady = Vec::new();
    for (name, strategy) in [("seq", OracleStrategy::Seq), ("lazy", OracleStrategy::Lazy)] {
        let allocs = steady_state_allocs(&alloc_probe, strategy, args.engine);
        println!("steady-state allocs ({name}): {allocs}");
        if allocs != 0 {
            eprintln!("throughput: STEADY-STATE SOLVE ALLOCATED ({name}: {allocs})");
            checks_ok = false;
        }
        steady.push((name.to_owned(), allocs));
    }

    // The "millions of users" rows (full mode only): n=10⁶, lazy ×
    // sparse, with the skipped columns recorded as in perfsuite.
    let mut huge_rows = Vec::new();
    if !args.quick {
        let huge_n = 1_000_000;
        let inst = build_instance(huge_n, 4, args.seed);
        for (ename, dirty) in [("sparse", false), ("sparse+dirty", true)] {
            let row = run_one(
                &inst,
                "lazy",
                OracleStrategy::Lazy,
                ename,
                EngineKind::Sparse,
                dirty,
            );
            println!(
                "huge n={huge_n} k=4 lazy {ename:<12} {:>10.2} ms  evals {:>9}  dirty-skips {:>7}",
                row.wall_ms, row.evals, row.evals_skipped
            );
            huge_rows.push(row);
        }
        for ename in ["scan", "kd"] {
            huge_rows.push(Row::skipped(huge_n, 4, "lazy", ename));
        }
        for ename in ["scan", "kd", "sparse", "sparse+dirty"] {
            huge_rows.push(Row::skipped(huge_n, 4, "seq", ename));
        }
        let ran: Vec<&Row> = huge_rows.iter().filter(|r| !r.skipped).collect();
        if ran.len() == 2 {
            if ran[0].selection != ran[1].selection {
                eprintln!("throughput: HUGE SELECTION MISMATCH sparse vs sparse+dirty");
                checks_ok = false;
            }
            if ran[1].evals > ran[0].evals {
                eprintln!("throughput: HUGE EVAL REGRESSION: dirty charged more than plain sparse");
                checks_ok = false;
            }
        }
    }

    let report = Report {
        suite: "throughput".to_owned(),
        quick: args.quick,
        seed: args.seed,
        n,
        k,
        engine: args.engine.name().to_owned(),
        target_degree: TARGET_DEGREE,
        arms,
        warm_vs_cold,
        steady_state_allocs: steady,
        huge_rows,
        checks_ok,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&args.out, json + "\n") {
        eprintln!("throughput: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("throughput: wrote {}", args.out.display());

    if !checks_ok {
        eprintln!("throughput: cross-checks FAILED");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

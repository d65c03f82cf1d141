//! `mmph solve` — run one or all solvers on an instance.

use std::io::Write;
use std::path::PathBuf;

use mmph_core::budget::{SolveBudget, SolveOutcome, SolveStatus};
use mmph_core::solvers::{
    AdaptiveSolver, BeamSearch, ComplexGreedy, Exhaustive, KCenter, KMeans, LocalGreedy,
    LocalSearch, RoundBased, SeededGreedy, SimpleGreedy, StochasticGreedy,
};
use mmph_core::{
    solve_coreset, CoresetConfig, EngineKind, IncrementalInstance, Instance, OracleStrategy,
    Pipeline, ResolveConfig, Solution, SolveScratch, Solver, DEFAULT_SPARSE_CAP_BYTES,
};
use mmph_sim::churn::ChurnPlan;
use mmph_sim::scenario::Scenario;
use mmph_sim::trace::{load_traces, InstanceTrace};

use crate::args::{
    install_thread_pool, parse, parse_budget, parse_engine, parse_norm, parse_oracle,
    parse_weights, Flags,
};
use crate::{CliError, Result};

const HELP: &str = "\
mmph solve — solve an instance

INPUT (one of):
  --input FILE   instance trace JSON written by `mmph generate`
  --n/--k/--r/--norm/--weights/--seed   generate inline (2-D)

OPTIONS:
  --solver NAME  one of the names from `mmph solvers` (default greedy3)
  --all          run every solver and print a comparison table
  --oracle S     candidate-scoring strategy: seq | par | lazy (default seq);
                 all three produce identical solutions
  --engine E     reward-evaluation engine: auto | scan | sparse | grid
                 (default auto = sparse while its CSR fits the 512 MiB
                 cap; past it, auto escalates to the coreset path, whose
                 reduced solve runs on grid). grid holds no CSR: it
                 sweeps an index of the occupied cells of side r, O(n)
                 memory on input of any spread. scan, sparse and grid
                 are bit-identical
  --threads N    size of the rayon pool behind all parallel work: --oracle
                 par, the sparse CSR build from 10,000 points up, the grid
                 engine's root sweep and the coreset pass (default: all
                 cores)
  --svg FILE     write a coverage map of the (first) solution
  --dim D        2 or 3 when using --input (default 2)
  --deadline-ms MS  wall-clock budget per solve; past it the solver
                 returns its best-so-far centers marked `degraded`
  --max-evals N  objective-evaluation budget per solve (same semantics)
  --churn SxF    after the initial solve, run S churn steps each mutating
                 a fraction F of the points (e.g. 20x0.01), re-solving
                 incrementally and printing warm-vs-cold timings;
                 requires a sparse engine (auto/sparse) and
                 excludes --coreset-cells
  --churn-seed N seed for the churn plan (default: --seed)
  --coreset-cells C  solve through the weighted coreset path: aggregate
                 points on a grid of C cells per radius, solve the
                 reduction, report the realized full-resolution gap.
                 With --engine auto, instances whose CSR would bust the
                 512 MiB cap escalate to this path automatically";

/// The solver registry: names accepted by `--solver`.
pub const SOLVER_NAMES: [&str; 14] = [
    "greedy1",
    "greedy1-sa",
    "greedy2",
    "greedy3",
    "greedy4",
    "lazy",
    "stochastic",
    "seeded",
    "beam",
    "local-search",
    "kcenter",
    "kmeans",
    "exhaustive",
    "adaptive",
];

pub(crate) fn solve_outcome_by_name<const D: usize>(
    name: &str,
    inst: &Instance<D>,
    strategy: OracleStrategy,
    engine: EngineKind,
    budget: &SolveBudget,
) -> Result<SolveOutcome<D>> {
    // Solvers with a candidate-scan hot path accept the strategy and
    // the engine; `lazy` is greedy2 pinned to the CELF oracle and greedy3/
    // greedy4/seeded/kcenter/kmeans/exhaustive have no eager scan to
    // switch (their evaluations, if any, score arbitrary points the
    // sparse engine cannot precompute).
    let mut out = match name {
        "greedy1" => RoundBased::grid()
            .with_oracle_strategy(strategy)
            .solve_within(inst, budget)?,
        "greedy1-sa" => RoundBased::annealing()
            .with_oracle_strategy(strategy)
            .solve_within(inst, budget)?,
        "greedy2" => LocalGreedy::new()
            .with_oracle(strategy)
            .with_engine(engine)
            .solve_within(inst, budget)?,
        "greedy3" => SimpleGreedy::new().solve_within(inst, budget)?,
        "greedy4" => ComplexGreedy::new().solve_within(inst, budget)?,
        "lazy" => LocalGreedy::new()
            .with_oracle(OracleStrategy::Lazy)
            .with_engine(engine)
            .solve_within(inst, budget)?,
        "stochastic" => StochasticGreedy::new()
            .with_oracle(strategy)
            .with_engine(engine)
            .solve_within(inst, budget)?,
        "seeded" => SeededGreedy::new().solve_within(inst, budget)?,
        "beam" => BeamSearch::new()
            .with_oracle(strategy)
            .with_engine(engine)
            .solve_within(inst, budget)?,
        "local-search" => LocalSearch::new()
            .with_oracle(strategy)
            .solve_within(inst, budget)?,
        "kcenter" => KCenter::new().solve_within(inst, budget)?,
        "kmeans" => KMeans::new().solve_within(inst, budget)?,
        "exhaustive" => Exhaustive::new().solve_within(inst, budget)?,
        "adaptive" => AdaptiveSolver::new().solve_within(inst, budget)?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown solver `{other}`; run `mmph solvers`"
            )))
        }
    };
    // Present the registry name so `--all` tables are unambiguous even
    // when two registry entries share an underlying solver type. The
    // adaptive ladder keeps its rung-qualified name (`adaptive:greedy4`).
    if name != "adaptive" {
        out.solution.solver = name.to_owned();
    }
    Ok(out)
}

pub(crate) fn solve_by_name<const D: usize>(
    name: &str,
    inst: &Instance<D>,
    strategy: OracleStrategy,
    engine: EngineKind,
) -> Result<Solution<D>> {
    Ok(
        solve_outcome_by_name(name, inst, strategy, engine, &SolveBudget::unlimited())?
            .into_solution(),
    )
}

/// `mmph solvers` — prints the registry.
pub fn list_solvers(out: &mut dyn Write) -> Result<()> {
    writeln!(out, "available solvers:")?;
    let blurb = |n: &str| match n {
        "greedy1" => "Algorithm 1, round-based heuristic (grid round oracle)",
        "greedy1-sa" => "Algorithm 1 with the simulated-annealing round oracle",
        "greedy2" => "Algorithm 2, local greedy over point candidates — O(kn^2)",
        "greedy3" => "Algorithm 3, simple local greedy — O(kn)",
        "greedy4" => "Algorithm 4, complex local greedy (smallest enclosing balls)",
        "lazy" => "CELF-accelerated greedy2 (identical output)",
        "stochastic" => "subsampled-candidate greedy (1 - 1/e - eps expected)",
        "seeded" => "prefix-enumerated greedy2",
        "beam" => "width-16 beam search over point candidates",
        "local-search" => "greedy2 + best-improvement swap polish",
        "kcenter" => "Gonzalez farthest-point k-center baseline",
        "kmeans" => "weighted Lloyd k-means baseline (L2 only)",
        "exhaustive" => "exact over point-located center multisets",
        "adaptive" => "budget-aware ladder: greedy4 -> lazy -> greedy3",
        _ => "",
    };
    for name in SOLVER_NAMES {
        writeln!(out, "  {name:<13} {}", blurb(name))?;
    }
    Ok(())
}

pub(crate) fn load_or_generate_2d(flags: &Flags) -> Result<Instance<2>> {
    if let Some(path) = flags.get("input") {
        let traces: Vec<InstanceTrace<2>> = load_traces(&PathBuf::from(path))?;
        let first = traces
            .into_iter()
            .next()
            .ok_or_else(|| CliError::Usage("trace file contains no instances".into()))?;
        Ok(first.instance)
    } else {
        let n: usize = flags.get_or("n", 40)?;
        let k: usize = flags.get_or("k", 4)?;
        let r: f64 = flags.get_or("r", 1.0)?;
        let norm = parse_norm(flags.get("norm").unwrap_or("l2"))?;
        let weights = parse_weights(flags.get("weights").unwrap_or("diff"))?;
        let seed: u64 = flags.get_or("seed", 0)?;
        Ok(Scenario::paper_2d(n, k, r, norm, weights, seed).generate_2d()?)
    }
}

fn print_outcomes(
    out: &mut dyn Write,
    inst: &Instance<2>,
    outcomes: &[SolveOutcome<2>],
) -> Result<()> {
    writeln!(
        out,
        "instance: n = {}, k = {}, r = {}, norm = {}, total weight = {}",
        inst.n(),
        inst.k(),
        inst.radius(),
        inst.norm(),
        inst.total_weight()
    )?;
    writeln!(
        out,
        "{:<18} {:>12} {:>10} {:>10}",
        "solver", "reward", "% of Σw", "evals"
    )?;
    for outcome in outcomes {
        let sol = &outcome.solution;
        writeln!(
            out,
            "{:<18} {:>12.4} {:>9.2}% {:>10}",
            sol.solver,
            sol.total_reward,
            100.0 * sol.total_reward / inst.total_weight(),
            sol.evals
        )?;
        if let SolveStatus::Degraded { reason } = &outcome.status {
            writeln!(out, "  ^ degraded: {reason}")?;
        }
    }
    Ok(())
}

fn write_svg(path: &str, inst: &Instance<2>, sol: &Solution<2>) -> Result<()> {
    use mmph_plot::chart::{CircleOverlay, ScatterPoint};
    use mmph_plot::svg::Marker;
    let bbox = inst.bounding_box();
    let lo = bbox.lo[0].min(bbox.lo[1]).min(0.0);
    let hi = bbox.hi[0].max(bbox.hi[1]);
    let mut plot = mmph_plot::ScatterPlot::new(
        format!("{} — reward {:.2}", sol.solver, sol.total_reward),
        lo,
        hi,
    );
    for (p, &w) in inst.points().iter().zip(inst.weights()) {
        plot.points.push(ScatterPoint {
            x: p[0],
            y: p[1],
            marker: Marker::for_weight(w.min(5.0) as u32),
            color_index: 7,
        });
    }
    for (i, c) in sol.centers.iter().enumerate() {
        plot.points.push(ScatterPoint {
            x: c[0],
            y: c[1],
            marker: Marker::Star,
            color_index: i,
        });
        plot.circles.push(CircleOverlay {
            cx: c[0],
            cy: c[1],
            r: inst.radius(),
            color_index: i,
        });
    }
    std::fs::write(path, plot.render()?)?;
    Ok(())
}

/// Parses a `--churn STEPSxFRAC` spec, e.g. `20x0.01`.
fn parse_churn_spec(spec: &str) -> Result<(usize, f64)> {
    let usage = || {
        CliError::Usage(format!(
            "--churn expects STEPSxFRAC (e.g. 20x0.01), got `{spec}`"
        ))
    };
    let (s, f) = spec.split_once('x').ok_or_else(usage)?;
    let steps: usize = s.parse().map_err(|_| usage())?;
    let fraction: f64 = f.parse().map_err(|_| usage())?;
    if steps == 0 || !fraction.is_finite() || fraction <= 0.0 {
        return Err(usage());
    }
    Ok((steps, fraction))
}

/// The `--churn` loop: incremental warm re-solves against a cold
/// from-scratch reference each step.
fn run_churn(
    out: &mut dyn Write,
    inst: Instance<2>,
    engine: EngineKind,
    spec: &str,
    churn_seed: u64,
) -> Result<()> {
    let (steps, fraction) = parse_churn_spec(spec)?;
    let plan = ChurnPlan::new(churn_seed, steps, fraction);
    writeln!(
        out,
        "instance: n = {}, k = {}, r = {}; churn: {} steps x {:.4} of n, seed {}",
        inst.n(),
        inst.k(),
        inst.radius(),
        steps,
        fraction,
        churn_seed
    )?;
    let mut inc = IncrementalInstance::new(inst, engine)
        .map_err(|e| CliError::Usage(format!("--churn: {e}")))?;
    let mut scratch = SolveScratch::new();
    let t0 = std::time::Instant::now();
    let initial = inc.resolve(&mut scratch, &ResolveConfig::default());
    writeln!(
        out,
        "initial cold solve: reward {:.4} in {:.1} ms",
        initial.reward,
        t0.elapsed().as_secs_f64() * 1e3
    )?;
    writeln!(
        out,
        "{:>4} {:>7} {:>10} {:>10} {:>8} {:>12} {:>12} {:<6}",
        "step", "deltas", "warm ms", "cold ms", "speedup", "warm reward", "cold reward", "mode"
    )?;
    for step in 0..steps as u64 {
        let deltas = plan.deltas(step, inc.instance())?;
        let t = std::time::Instant::now();
        inc.apply_churn(&deltas)?;
        let warm = inc.resolve(&mut scratch, &ResolveConfig::default());
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;
        // Cold reference: CELF from scratch, CSR rebuild included —
        // exactly what a non-incremental caller would pay per step.
        let t = std::time::Instant::now();
        let cold = LocalGreedy::new()
            .with_oracle(OracleStrategy::Lazy)
            .with_engine(EngineKind::Sparse)
            .solve(inc.instance())?;
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        writeln!(
            out,
            "{:>4} {:>7} {:>10.2} {:>10.2} {:>7.1}x {:>12.4} {:>12.4} {:<6}",
            step,
            deltas.len(),
            warm_ms,
            cold_ms,
            cold_ms / warm_ms.max(1e-9),
            warm.reward,
            cold.total_reward,
            if warm.warm {
                "warm"
            } else {
                warm.cold_reason.unwrap_or("cold")
            }
        )?;
    }
    Ok(())
}

/// `--coreset-cells` (or auto-escalation): reduce, solve, report gap.
fn run_coreset(
    out: &mut dyn Write,
    inst: &Instance<2>,
    cells: f64,
    engine: EngineKind,
    strategy: OracleStrategy,
    budget: SolveBudget,
) -> Result<()> {
    let report = solve_coreset(
        inst,
        &CoresetConfig {
            cells_per_radius: cells,
            engine,
            strategy,
            budget,
            ..CoresetConfig::default()
        },
    )?;
    writeln!(
        out,
        "coreset solve: n {} -> {} representatives (cell {:.4}, {} cells/r)",
        report.full_n, report.coreset_n, report.cell, report.cells_per_radius
    )?;
    writeln!(
        out,
        "  engine {} | build {:.1} ms | solve {:.1} ms | full-res pass {:.1} ms | evals {}",
        report.engine, report.build_ms, report.solve_ms, report.eval_ms, report.evals
    )?;
    writeln!(
        out,
        "  coreset objective {:.6} | full-resolution objective {:.6} | realized gap {:.3}%",
        report.coreset_objective,
        report.full_objective,
        report.gap * 100.0
    )?;
    if let Some(reason) = &report.degraded {
        writeln!(out, "  DEGRADED: {reason}")?;
    }
    for (i, c) in report.centers.iter().enumerate() {
        writeln!(out, "  center {i}: {c}")?;
    }
    Ok(())
}

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<()> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let flags = parse(
        argv,
        &[
            "input",
            "solver",
            "svg",
            "n",
            "k",
            "r",
            "norm",
            "weights",
            "seed",
            "dim",
            "oracle",
            "engine",
            "threads",
            "deadline-ms",
            "max-evals",
            "churn",
            "churn-seed",
            "coreset-cells",
        ],
        &["all"],
    )?;
    let dim: usize = flags.get_or("dim", 2)?;
    if dim != 2 {
        return Err(CliError::Usage(
            "solve currently supports --dim 2 (use the library API for 3-D)".into(),
        ));
    }
    let strategy = parse_oracle(flags.get("oracle").unwrap_or("seq"))?;
    let engine = parse_engine(flags.get("engine").unwrap_or("auto"))?;
    let budget = parse_budget(&flags)?;
    install_thread_pool(&flags)?;
    let requested = Pipeline::requested(flags.get_opt("coreset-cells")?)
        .map_err(|e| CliError::Usage(format!("--coreset-cells: {e}")))?;
    if flags.get("churn").is_some() && requested != Pipeline::Direct {
        return Err(CliError::Usage(
            "--churn re-solves the full instance; it cannot run through --coreset-cells".into(),
        ));
    }
    let inst = load_or_generate_2d(&flags)?;
    if let Some(spec) = flags.get("churn") {
        let churn_seed: u64 = flags.get_or("churn-seed", flags.get_or("seed", 0u64)?)?;
        let spec = spec.to_owned();
        return run_churn(out, inst, engine, &spec, churn_seed);
    }
    let pipeline = requested.for_instance(&inst, engine, DEFAULT_SPARSE_CAP_BYTES);
    if let Pipeline::Coreset(cells) = pipeline {
        if requested == Pipeline::Direct {
            writeln!(
                out,
                "n = {} busts the {} MiB sparse cap: escalating to the coreset path \
                 (pass --engine grid to force an exact direct solve, or --coreset-cells to tune)",
                inst.n(),
                DEFAULT_SPARSE_CAP_BYTES >> 20,
            )?;
        }
        return run_coreset(out, &inst, cells, engine, strategy, budget);
    }
    let outcomes: Vec<SolveOutcome<2>> = if flags.has("all") {
        SOLVER_NAMES
            .iter()
            .map(|name| solve_outcome_by_name(name, &inst, strategy, engine, &budget))
            .collect::<Result<_>>()?
    } else {
        vec![solve_outcome_by_name(
            flags.get("solver").unwrap_or("greedy3"),
            &inst,
            strategy,
            engine,
            &budget,
        )?]
    };
    print_outcomes(out, &inst, &outcomes)?;
    if let Some(svg_path) = flags.get("svg") {
        write_svg(svg_path, &inst, &outcomes[0].solution)?;
        writeln!(out, "coverage map written to {svg_path}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(args: &[&str]) -> (Result<()>, String) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let r = run(&argv, &mut buf);
        (r, String::from_utf8(buf).unwrap())
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mmph-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn coreset_flag_reports_gap() {
        let (r, out) = run_capture(&["--n", "200", "--k", "3", "--coreset-cells", "8"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("coreset solve"), "{out}");
        assert!(out.contains("realized gap"), "{out}");
    }

    #[test]
    fn shards_flag_is_gone() {
        let (r, out) = run_capture(&["--n", "200", "--k", "3", "--shards", "2"]);
        let Err(CliError::Usage(msg)) = r else {
            panic!("--shards must be a usage error: {r:?}");
        };
        assert!(msg.contains("unknown flag --shards"), "{msg}");
        assert!(out.is_empty(), "nothing solved: {out}");
    }

    #[test]
    fn kd_engine_is_gone() {
        for engine in ["kd", "sparse-f32"] {
            let (r, out) = run_capture(&["--n", "200", "--k", "3", "--engine", engine]);
            let Err(CliError::Usage(msg)) = r else {
                panic!("--engine {engine} must be a usage error: {r:?}");
            };
            assert!(msg.contains(&format!("unknown engine '{engine}'")), "{msg}");
            assert!(out.is_empty(), "nothing solved: {out}");
        }
    }

    #[test]
    fn bad_pipeline_flags_rejected() {
        let (r, _) = run_capture(&["--n", "50", "--k", "2", "--coreset-cells", "x"]);
        assert!(r.is_err());
    }

    #[test]
    fn conflicting_pipeline_flags_are_usage_errors() {
        let (r, out) = run_capture(&[
            "--n",
            "50",
            "--k",
            "2",
            "--churn",
            "2x0.1",
            "--coreset-cells",
            "3",
        ]);
        let Err(CliError::Usage(msg)) = r else {
            panic!("churn + coreset must be rejected: {r:?}");
        };
        assert!(msg.contains("--coreset-cells"), "{msg}");
        assert!(out.is_empty(), "nothing solved: {out}");
    }

    #[test]
    fn inline_solve_default_solver() {
        let (r, out) = run_capture(&["--n", "15", "--k", "2"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("greedy3"));
        assert!(out.contains("instance: n = 15"));
    }

    #[test]
    fn named_solver() {
        let (r, out) = run_capture(&["--n", "12", "--k", "2", "--solver", "greedy4"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("greedy4"));
    }

    #[test]
    fn all_solvers_table() {
        let (r, out) = run_capture(&["--n", "10", "--k", "2", "--all"]);
        assert!(r.is_ok(), "{r:?}");
        for name in SOLVER_NAMES {
            // Solution names differ slightly from registry names for the
            // extension solvers; check the obvious subset.
            if name.starts_with("greedy") || name == "exhaustive" {
                assert!(out.contains(name), "{name} missing:\n{out}");
            }
        }
    }

    #[test]
    fn unknown_solver_errors() {
        let (r, _) = run_capture(&["--n", "10", "--solver", "magic"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn solve_from_generated_file() {
        let path = tmp("roundtrip.json");
        let gen_argv: Vec<String> = ["--n", "9", "--k", "2", "--out", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut sink = Vec::new();
        crate::commands::generate::run(&gen_argv, &mut sink).unwrap();
        let (r, out) = run_capture(&["--input", path.to_str().unwrap(), "--solver", "greedy2"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("n = 9"));
    }

    #[test]
    fn svg_output_written() {
        let path = tmp("solve.svg");
        let (r, out) = run_capture(&["--n", "10", "--k", "2", "--svg", path.to_str().unwrap()]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("coverage map"));
        let svg = std::fs::read_to_string(&path).unwrap();
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn oracle_strategies_agree_on_output() {
        let base = ["--n", "18", "--k", "3", "--solver", "greedy2"];
        let (r, seq) = run_capture(&[&base[..], &["--oracle", "seq"]].concat());
        assert!(r.is_ok(), "{r:?}");
        let (r, par) = run_capture(&[&base[..], &["--oracle", "par", "--threads", "2"]].concat());
        assert!(r.is_ok(), "{r:?}");
        let (r, lazy) = run_capture(&[&base[..], &["--oracle", "lazy"]].concat());
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(seq, par);
        // The lazy oracle reports fewer evals, so compare the reward line
        // only up to the evals column.
        let reward = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("greedy2"))
                .unwrap()
                .split_whitespace()
                .nth(1)
                .unwrap()
                .to_owned()
        };
        assert_eq!(reward(&seq), reward(&lazy));
    }

    #[test]
    fn oracle_flag_applies_to_all_table() {
        let (r, seq) = run_capture(&["--n", "10", "--k", "2", "--all"]);
        assert!(r.is_ok(), "{r:?}");
        let (r, par) = run_capture(&["--n", "10", "--k", "2", "--all", "--oracle", "par"]);
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(seq, par);
    }

    #[test]
    fn bad_oracle_rejected() {
        let (r, _) = run_capture(&["--n", "10", "--oracle", "eager"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn bad_threads_rejected() {
        let (r, _) = run_capture(&["--n", "10", "--threads", "0"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn adaptive_solver_reports_winning_rung() {
        let (r, out) = run_capture(&["--n", "12", "--k", "2", "--solver", "adaptive"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("adaptive:greedy4"), "{out}");
        assert!(!out.contains("degraded"));
    }

    #[test]
    fn exhausted_eval_budget_marks_degraded() {
        let (r, out) = run_capture(&[
            "--n",
            "12",
            "--k",
            "2",
            "--solver",
            "greedy2",
            "--max-evals",
            "0",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("degraded"), "{out}");
    }

    #[test]
    fn generous_budget_output_matches_unbudgeted() {
        let base = ["--n", "14", "--k", "2", "--solver", "greedy4"];
        let (r, plain) = run_capture(&base);
        assert!(r.is_ok(), "{r:?}");
        let (r, budgeted) = run_capture(&[&base[..], &["--max-evals", "1000000"]].concat());
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn bad_budget_flags_rejected() {
        let (r, _) = run_capture(&["--n", "10", "--max-evals", "lots"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
        let (r, _) = run_capture(&["--n", "10", "--deadline-ms", "-3"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn dim3_rejected_for_now() {
        let (r, _) = run_capture(&["--dim", "3"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_input_file_errors() {
        let (r, _) = run_capture(&["--input", "/nonexistent/foo.json"]);
        assert!(r.is_err());
    }

    /// Everything except wall-clock columns: step, deltas, rewards, mode.
    fn churn_facts(out: &str) -> Vec<Vec<String>> {
        out.lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(|l| {
                let f: Vec<String> = l.split_whitespace().map(str::to_owned).collect();
                // drop warm ms / cold ms / speedup (fields 2..5)
                [&f[..2], &f[5..]].concat()
            })
            .collect()
    }

    #[test]
    fn churn_loop_prints_warm_and_cold_columns() {
        let (r, out) = run_capture(&["--n", "60", "--k", "3", "--churn", "4x0.02"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("initial cold solve"), "{out}");
        assert!(out.contains("warm ms"), "{out}");
        let rows = churn_facts(&out);
        assert_eq!(rows.len(), 4, "{out}");
        // 2% churn is under the 5% threshold: the warm path engages.
        assert!(rows.iter().any(|r| r.last().unwrap() == "warm"), "{out}");
        // The loop is seeded: same invocation replays the same facts.
        let (_, again) = run_capture(&["--n", "60", "--k", "3", "--churn", "4x0.02"]);
        assert_eq!(rows, churn_facts(&again));
    }

    #[test]
    fn heavy_churn_reports_cold_fallback() {
        let (r, out) = run_capture(&["--n", "60", "--k", "3", "--churn", "2x0.5"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("threshold"), "{out}");
    }

    #[test]
    fn churn_seed_changes_the_workload() {
        let base = ["--n", "50", "--k", "3", "--churn", "3x0.2"];
        let (_, a) = run_capture(&base);
        let (r, b) = run_capture(&[&base[..], &["--churn-seed", "9"]].concat());
        assert!(r.is_ok(), "{r:?}");
        assert_ne!(churn_facts(&a), churn_facts(&b));
    }

    #[test]
    fn bad_churn_specs_rejected() {
        for spec in ["x", "4x", "x0.1", "0x0.1", "4x0", "4xNaN", "fourxten"] {
            let (r, _) = run_capture(&["--n", "20", "--churn", spec]);
            assert!(matches!(r, Err(CliError::Usage(_))), "spec {spec} passed");
        }
        // Non-sparse engines cannot patch in place.
        let (r, _) = run_capture(&["--n", "20", "--churn", "2x0.1", "--engine", "grid"]);
        let Err(CliError::Usage(msg)) = r else {
            panic!("grid churn must be rejected: {r:?}");
        };
        assert!(msg.contains("sparse engine"), "{msg}");
        let (r, _) = run_capture(&["--n", "20", "--engine", "ball"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "ball engine is gone");
    }
}

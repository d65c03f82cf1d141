//! `mmph report` — solve an instance and explain the broadcast plan.

use std::io::Write;

use mmph_core::analysis::analyze;
use mmph_core::Solution;

use crate::args::{install_thread_pool, parse, parse_engine, parse_oracle};
use crate::commands::solve::{load_or_generate_2d, solve_by_name};
use crate::Result;

const HELP: &str = "\
mmph report — solve and explain a broadcast plan (2-D)

INPUT (one of):
  --input FILE   instance trace JSON written by `mmph generate`
  --n/--k/--r/--norm/--weights/--seed   generate inline

OPTIONS:
  --solver NAME  one of the names from `mmph solvers` (default greedy2)
  --oracle S     candidate-scoring strategy: seq | par | lazy (default seq)
  --engine E     reward-evaluation engine: auto | scan | sparse | grid
                 (default auto); the same centers on every engine
  --threads N    size of the rayon pool behind all parallel work: --oracle
                 par and the sparse CSR build from 10,000 points up
                 (default: all cores)";

/// Renders a 10-bin satisfaction histogram as ASCII bars.
fn histogram_lines(hist: &[usize; 10]) -> Vec<String> {
    let max = hist.iter().copied().max().unwrap_or(0).max(1);
    (0..10)
        .map(|b| {
            let bar = "#".repeat(hist[b] * 40 / max);
            let hi = if b == 9 {
                "1.0]".to_owned()
            } else {
                format!("{:.1})", (b + 1) as f64 / 10.0)
            };
            format!("  [{:.1}, {hi:<5} {:>4}  {bar}", b as f64 / 10.0, hist[b])
        })
        .collect()
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
            "input", "solver", "n", "k", "r", "norm", "weights", "seed", "oracle", "engine",
            "threads",
        ],
        &[],
    )?;
    let strategy = parse_oracle(flags.get("oracle").unwrap_or("seq"))?;
    let engine = parse_engine(flags.get("engine").unwrap_or("auto"))?;
    install_thread_pool(&flags)?;
    let inst = load_or_generate_2d(&flags)?;
    let solver = flags.get("solver").unwrap_or("greedy2");
    let sol: Solution<2> = solve_by_name(solver, &inst, strategy, engine)?;
    let report = analyze(&inst, &sol.centers);

    writeln!(
        out,
        "plan: {} on n = {}, k = {}, r = {}, norm = {} — total reward {:.4} of {:.1} possible",
        sol.solver,
        inst.n(),
        inst.k(),
        inst.radius(),
        inst.norm(),
        sol.total_reward,
        inst.total_weight()
    )?;
    writeln!(
        out,
        "\n{:>3} {:>22} {:>9} {:>9} {:>10} {:>11} {:>6}",
        "#", "center", "in range", "primary", "claimed", "standalone", "eff."
    )?;
    for (c, center) in report.centers.iter().zip(&sol.centers) {
        writeln!(
            out,
            "{:>3} {:>22} {:>9} {:>9} {:>10.4} {:>11.4} {:>5.0}%",
            c.index,
            format!("({:.2}, {:.2})", center[0], center[1]),
            c.points_in_range,
            c.primary_points,
            c.claimed_reward,
            c.standalone_reward,
            100.0 * c.efficiency(),
        )?;
    }
    writeln!(
        out,
        "\ncoverage: {} uncovered, {} multiply covered, mean multiplicity {:.2}",
        report.uncovered_points, report.multiply_covered_points, report.mean_coverage_multiplicity
    )?;
    writeln!(out, "\nsatisfaction histogram:")?;
    for line in histogram_lines(&report.satisfaction_histogram) {
        writeln!(out, "{line}")?;
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

    #[test]
    fn default_report_runs() {
        let (r, out) = run_capture(&["--n", "20", "--k", "3"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("plan: greedy2"));
        assert!(out.contains("satisfaction histogram"));
        assert!(out.contains("eff."));
    }

    #[test]
    fn named_solver_report() {
        let (r, out) = run_capture(&["--n", "15", "--k", "2", "--solver", "greedy4"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("plan: greedy4"));
    }

    #[test]
    fn histogram_lines_count() {
        let lines = histogram_lines(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 5]);
        assert_eq!(lines.len(), 10);
        assert!(lines[9].contains("####"));
    }

    #[test]
    fn unknown_solver_errors() {
        let (r, _) = run_capture(&["--solver", "bogus"]);
        assert!(r.is_err());
    }

    #[test]
    fn help_flag() {
        let (r, out) = run_capture(&["--help"]);
        assert!(r.is_ok());
        assert!(out.contains("explain"));
    }
}

//! `mmph batch` — solve a stream of instances through the service
//! layer's dispatch path: the scenario stream becomes one round of
//! solve requests handled by [`mmph_serve::Service`], which multiplexes
//! them onto the batched pipeline (one scratch arena per worker,
//! engine reuse across adjacent identical requests). `mmph serve` runs
//! the very same path behind a transport, so batch output doubles as
//! the daemon's reference behavior — `--verify` pins the two modes
//! bit-identically.

use std::io::Write;
use std::time::Instant;

use mmph_core::{verify_reports, BatchReport, OracleStrategy, Pipeline};
use mmph_serve::{report_from_responses, Request, Service, ServiceConfig};
use serde::Serialize;

use crate::args::{self, Flags};
use crate::{CliError, Result};

const HELP: &str = "\
mmph batch — batched solving over a stream of instances

USAGE:
  mmph batch --scenarios <DIR|FILE|SPEC> [OPTIONS]

OPTIONS:
  --scenarios X     request stream: a directory of scenario *.json files,
                    one such file, or an inline spec like
                    n=10000,k=16,count=4,repeat=8,seed=0,norm=l2,weights=diff
  --solver NAME     greedy2 (sequential argmax) or lazy (CELF) [lazy]
  --oracle NAME     seq|par|lazy — overrides the solver's strategy
  --engine NAME     auto|scan|sparse|grid [sparse]; grid holds
                    no CSR, O(n) memory on input of any spread
  --threads N       worker threads (default: all cores)
  --cold            disable scratch/engine reuse (per-request baseline)
  --deadline-ms N   per-request wall-clock budget (degrades, never hangs)
  --max-evals N     per-request objective-evaluation budget
  --coreset-cells C solve every request through the coreset pipeline
                    (grid cells per radius; see `mmph solve`)
  --verify          also run the opposite mode and require bit-identical
                    selections and rewards (rejected with --deadline-ms:
                    wall-clock budgets are nondeterministic)
  --json FILE       write the full report as JSON
  --quiet           suppress per-request lines
  --help            show this message";

/// Report envelope written by `--json`. Owned fields: the vendored
/// serde derive does not handle lifetime parameters.
#[derive(Serialize)]
struct JsonReport {
    command: String,
    scenarios: String,
    solver: String,
    engine: String,
    report: BatchReport,
    throughput_per_sec: f64,
    engines_reused: usize,
    verified: Option<bool>,
}

fn strategy_from_flags(flags: &Flags) -> Result<OracleStrategy> {
    if let Some(raw) = flags.get("oracle") {
        return args::parse_oracle(raw);
    }
    match flags.get("solver").unwrap_or("lazy") {
        "greedy2" => Ok(OracleStrategy::Seq),
        "lazy" => Ok(OracleStrategy::Lazy),
        other => Err(CliError::Usage(format!(
            "--solver must be greedy2 or lazy (got `{other}`); use --oracle to force a strategy"
        ))),
    }
}

/// Builds the service configuration `mmph batch` and `mmph serve`
/// share from the common flag set.
pub fn service_config_from_flags(flags: &Flags) -> Result<ServiceConfig> {
    Ok(ServiceConfig {
        strategy: strategy_from_flags(flags)?,
        engine: args::parse_engine(flags.get("engine").unwrap_or("sparse"))?,
        warm: !flags.has("cold"),
        default_budget: args::parse_budget(flags)?,
        ..ServiceConfig::default()
    })
}

/// Runs one scenario stream through a fresh [`Service`] and folds the
/// responses back into a [`BatchReport`].
fn run_stream(
    config: ServiceConfig,
    scenarios: &[mmph_sim::Scenario],
    coreset_cells: Option<f64>,
) -> Result<BatchReport> {
    let warm = config.warm;
    let mut service = Service::new(config);
    let requests: Vec<Request> = scenarios
        .iter()
        .enumerate()
        .map(|(i, sc)| {
            let mut req = Request::solve(i as u64, sc.clone());
            req.coreset_cells = coreset_cells;
            req
        })
        .collect();
    let start = Instant::now();
    let responses = service.handle_requests(requests, start);
    let wall_nanos = start.elapsed().as_nanos() as u64;
    Ok(report_from_responses(
        &responses,
        wall_nanos,
        rayon::current_num_threads(),
        warm,
    )?)
}

/// Entry point for `mmph batch`.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<()> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let flags = args::parse(
        argv,
        &[
            "scenarios",
            "solver",
            "oracle",
            "engine",
            "threads",
            "json",
            "deadline-ms",
            "max-evals",
            "coreset-cells",
        ],
        &["cold", "verify", "quiet"],
    )?;
    args::install_thread_pool(&flags)?;
    let scenarios_arg: String = flags.require("scenarios")?;
    if flags.has("verify") && flags.get("deadline-ms").is_some() {
        return Err(CliError::Usage(
            "--verify cannot be combined with --deadline-ms: wall-clock budgets trip \
             nondeterministically, so the two runs may legitimately differ (eval budgets \
             via --max-evals are deterministic and verify fine)"
                .into(),
        ));
    }
    let config = service_config_from_flags(&flags)?;
    let warm = config.warm;
    // Every request carries the same pipeline knob; check it before
    // any scenario is generated.
    let coreset_cells = flags.get_opt("coreset-cells")?;
    Pipeline::requested(coreset_cells)
        .map_err(|e| CliError::Usage(format!("--coreset-cells: {e}")))?;

    let scenarios = mmph_sim::scenarios_from_arg(&scenarios_arg)?;
    let report = run_stream(config.clone(), &scenarios, coreset_cells)?;

    let verified = if flags.has("verify") {
        let reference = run_stream(
            ServiceConfig {
                warm: !warm,
                ..config.clone()
            },
            &scenarios,
            coreset_cells,
        )?;
        verify_reports(&report, &reference).map_err(CliError::Usage)?;
        Some(true)
    } else {
        None
    };

    if !flags.has("quiet") {
        for r in &report.results {
            writeln!(
                out,
                "req {:>4}  n={:<7} k={:<3} reward={:<12.4} evals={:<9} {:>9.3} ms{}",
                r.index,
                r.n,
                r.k,
                r.reward,
                r.evals,
                r.solve_nanos as f64 / 1e6,
                if r.engine_reused {
                    "  (engine reused)"
                } else {
                    ""
                }
            )?;
        }
    }
    writeln!(
        out,
        "batch: {} requests on {} worker(s) [{} | {}] in {:.3} s = {:.1} req/s; engines reused {}/{}",
        report.results.len(),
        report.workers,
        if warm { "warm" } else { "cold" },
        config.strategy,
        report.wall_nanos as f64 / 1e9,
        report.throughput(),
        report.engines_reused(),
        report.results.len(),
    )?;
    if report.degraded() > 0 || report.errors() > 0 {
        writeln!(
            out,
            "batch: {} degraded by budget, {} errored",
            report.degraded(),
            report.errors()
        )?;
    }
    if verified == Some(true) {
        writeln!(
            out,
            "verify: selections and rewards bit-identical to the {} reference",
            if warm { "cold" } else { "warm" }
        )?;
    }

    if let Some(path) = flags.get("json") {
        let envelope = JsonReport {
            command: "batch".to_owned(),
            scenarios: scenarios_arg.clone(),
            solver: config.strategy.to_string(),
            engine: config.engine.name().to_owned(),
            throughput_per_sec: report.throughput(),
            engines_reused: report.engines_reused(),
            verified,
            report,
        };
        std::fs::write(path, serde_json::to_string_pretty(&envelope)? + "\n")?;
        writeln!(out, "batch: wrote {path}")?;
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
    fn help_prints() {
        let (r, out) = run_capture(&["--help"]);
        assert!(r.is_ok());
        assert!(out.contains("mmph batch"));
    }

    #[test]
    fn requires_scenarios() {
        let (r, _) = run_capture(&[]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn inline_spec_runs_and_verifies() {
        let (r, out) = run_capture(&[
            "--scenarios",
            "n=30,k=3,count=2,repeat=2,seed=3",
            "--verify",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("4 requests"));
        assert!(out.contains("engines reused 2/4"), "{out}");
        assert!(out.contains("bit-identical"));
    }

    #[test]
    fn cold_mode_reuses_nothing() {
        let (r, out) = run_capture(&["--scenarios", "n=20,repeat=3", "--cold", "--quiet"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("engines reused 0/3"), "{out}");
        assert!(out.contains("cold"));
    }

    #[test]
    fn solver_and_oracle_flags() {
        for extra in [
            ["--solver", "greedy2"],
            ["--oracle", "par"],
            ["--engine", "grid"],
        ] {
            let mut argv = vec!["--scenarios", "n=15,repeat=2", "--quiet", "--verify"];
            argv.extend(extra);
            let (r, _) = run_capture(&argv);
            assert!(r.is_ok(), "{extra:?}: {r:?}");
        }
        let (r, _) = run_capture(&["--scenarios", "n=15", "--solver", "greedy9"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn par_csr_flag_is_gone() {
        let (r, _) = run_capture(&["--scenarios", "n=40", "--par-csr"]);
        let Err(CliError::Usage(msg)) = r else {
            panic!("--par-csr must be a usage error: {r:?}");
        };
        assert!(msg.contains("unknown flag --par-csr"), "{msg}");
    }

    #[test]
    fn shards_flag_is_gone() {
        let (r, _) = run_capture(&["--scenarios", "n=40", "--shards", "2"]);
        let Err(CliError::Usage(msg)) = r else {
            panic!("--shards must be a usage error: {r:?}");
        };
        assert!(msg.contains("unknown flag --shards"), "{msg}");
    }

    #[test]
    fn kd_engine_is_gone() {
        for engine in ["kd", "sparse-f32"] {
            let (r, _) = run_capture(&["--scenarios", "n=40", "--engine", engine]);
            let Err(CliError::Usage(msg)) = r else {
                panic!("--engine {engine} must be a usage error: {r:?}");
            };
            assert!(msg.contains(&format!("unknown engine '{engine}'")), "{msg}");
        }
    }

    #[test]
    fn json_report_is_written() {
        let path = std::env::temp_dir().join(format!("mmph-batch-{}.json", std::process::id()));
        // --threads 1 keeps both repeats on one worker regardless of
        // what other tests set the global pool to.
        let (r, _) = run_capture(&[
            "--scenarios",
            "n=12,repeat=2",
            "--threads",
            "1",
            "--quiet",
            "--json",
            path.to_str().unwrap(),
        ]);
        assert!(r.is_ok(), "{r:?}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"command\": \"batch\""), "{text}");
        assert!(text.contains("\"throughput_per_sec\""));
        assert!(text.contains("\"engine_reused\": true"), "repeat reused");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pipeline_flags_route_through_the_service() {
        let (r, out) = run_capture(&[
            "--scenarios",
            "n=40,k=3,repeat=2",
            "--coreset-cells",
            "6",
            "--quiet",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("2 requests"), "{out}");

        let (r, _) = run_capture(&["--scenarios", "n=20", "--coreset-cells", "0"]);
        let Err(CliError::Usage(msg)) = r else {
            panic!("a zero cell count must be rejected: {r:?}");
        };
        assert!(msg.contains("finite and positive"), "{msg}");
    }

    #[test]
    fn eval_budget_degrades_and_reports() {
        let (r, out) = run_capture(&[
            "--scenarios",
            "n=60,k=5,repeat=2",
            "--max-evals",
            "30",
            "--quiet",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("degraded by budget"), "{out}");
    }

    #[test]
    fn eval_budget_verifies_but_deadline_does_not() {
        let (r, out) = run_capture(&[
            "--scenarios",
            "n=30,repeat=2",
            "--max-evals",
            "25",
            "--verify",
            "--quiet",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("bit-identical"), "{out}");

        let (r, _) = run_capture(&["--scenarios", "n=30", "--deadline-ms", "1000", "--verify"]);
        let Err(CliError::Usage(msg)) = r else {
            panic!("deadline + verify must be rejected: {r:?}");
        };
        assert!(msg.contains("nondeterministically"), "{msg}");
    }
}

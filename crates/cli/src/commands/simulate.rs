//! `mmph simulate` — the time-slotted broadcast simulation.

use std::io::Write;
use std::path::Path;

use mmph_core::solvers::{AdaptiveSolver, LocalGreedy, SimpleGreedy};
use mmph_core::{SolveBudget, Solver};
use mmph_sim::broadcast::{
    run_to_completion, BroadcastConfig, BroadcastRun, Checkpoint, FaultPlan, OutageWindow,
    Population,
};
use mmph_sim::gen::{PointDistribution, SpaceSpec};
use mmph_sim::rng::SeedSeq;

use crate::args::{
    install_thread_pool, parse, parse_budget, parse_engine, parse_norm, parse_oracle, parse_weights,
};
use crate::{CliError, Result};

const HELP: &str = "\
mmph simulate — time-slotted broadcast simulation (2-D)

OPTIONS:
  --n N          number of users (default 80)
  --k K          broadcasts per period (default 4)
  --r R          interest radius (default 1.0)
  --norm NORM    l1 | l2 | linf | <p> (default l2)
  --weights W    same | diff | zipf (default diff)
  --horizon H    total broadcast slots (default 48)
  --churn C      per-period churn probability (default 0)
  --drift S      per-period drift sigma, fraction of space (default 0)
  --clusters M   Gaussian interest clusters; 0 = uniform (default 0)
  --solver NAME  greedy2 | greedy3 | adaptive (default greedy3)
  --oracle S     seq | par | lazy candidate scoring for greedy2 (default seq)
  --engine E     auto | scan | kd | sparse | grid reward engine for
                 greedy2 (default auto); the same centers on every engine
  --threads N    size of the rayon pool behind all parallel work: --oracle
                 par and the sparse CSR build from 10,000 points up
                 (default: all cores)
  --seed S       RNG seed (default 0)

FAULT INJECTION:
  --loss P       per-slot broadcast loss probability in [0, 1] (default 0)
  --outage SPEC  base-station outage windows `start:len[,start:len...]`
  --retries N    retransmission attempts per lost broadcast (default 2)
  --backoff N    slots to back off after a loss (default 1)

SOLVE BUDGET:
  --deadline-ms MS  per-period wall-clock solve budget
  --max-evals N     per-period objective-evaluation budget

CHECKPOINTING:
  --checkpoint FILE   write a resumable JSON checkpoint during the run
  --checkpoint-every N  periods between checkpoint writes (default 1)
  --resume            continue from the checkpoint file instead of a
                      fresh population (generation flags are ignored;
                      the checkpoint carries the full state)";

fn parse_outages(raw: &str) -> Result<Vec<OutageWindow>> {
    raw.split(',')
        .map(|item| {
            let bad = || {
                CliError::Usage(format!(
                    "invalid outage window `{item}`; expected `start:len` (slots)"
                ))
            };
            let (start, len) = item.split_once(':').ok_or_else(bad)?;
            Ok(OutageWindow {
                start: start.trim().parse().map_err(|_| bad())?,
                len: len.trim().parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

fn drive<S: Solver<2>>(
    ck: &mut Checkpoint<2>,
    solver: &S,
    budget: &SolveBudget,
    checkpoint_path: Option<&str>,
    checkpoint_every: usize,
) -> Result<BroadcastRun> {
    let every = if checkpoint_path.is_some() {
        checkpoint_every
    } else {
        0
    };
    let run = run_to_completion(ck, solver, budget, every, |snapshot| {
        // `every > 0` only when a path is present.
        snapshot.save(Path::new(checkpoint_path.expect("checkpoint path")))
    })?;
    if let Some(path) = checkpoint_path {
        ck.save(Path::new(path))?;
    }
    Ok(run)
}

fn print_run(
    out: &mut dyn Write,
    run: &BroadcastRun,
    horizon_slots: usize,
    active: bool,
) -> Result<()> {
    writeln!(
        out,
        "{} periods of k = {} broadcasts over {} slots ({} used)",
        run.periods, run.k, horizon_slots, run.slots_used
    )?;
    if active {
        writeln!(
            out,
            "{:>7} {:>12} {:>12} {:>8} {:>8} {:>6} {:>5} {:>6} {:>5}",
            "period", "reward", "mean sat.", "happy", "churned", "deliv", "lost", "retry", "degr"
        )?;
    } else {
        writeln!(
            out,
            "{:>7} {:>12} {:>12} {:>8} {:>8}",
            "period", "reward", "mean sat.", "happy", "churned"
        )?;
    }
    for p in &run.per_period {
        if active {
            writeln!(
                out,
                "{:>7} {:>12.3} {:>11.1}% {:>8} {:>8} {:>6} {:>5} {:>6} {:>5}",
                p.period,
                p.reward,
                100.0 * p.mean_fraction,
                p.satisfied_users,
                p.churned,
                p.delivered,
                p.lost_broadcasts,
                p.retries,
                if p.degraded { "yes" } else { "no" }
            )?;
        } else {
            writeln!(
                out,
                "{:>7} {:>12.3} {:>11.1}% {:>8} {:>8}",
                p.period,
                p.reward,
                100.0 * p.mean_fraction,
                p.satisfied_users,
                p.churned
            )?;
        }
    }
    writeln!(
        out,
        "total reward {:.3}, reward/slot {:.3}, mean satisfaction {:.1}%",
        run.total_reward,
        run.reward_per_slot(),
        100.0 * run.mean_satisfaction()
    )?;
    if active {
        writeln!(
            out,
            "degraded periods {}, lost broadcasts {}, retries {}",
            run.degraded_periods, run.lost_broadcasts, run.retries
        )?;
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
            "n",
            "k",
            "r",
            "norm",
            "weights",
            "horizon",
            "churn",
            "drift",
            "clusters",
            "solver",
            "seed",
            "oracle",
            "engine",
            "threads",
            "loss",
            "outage",
            "retries",
            "backoff",
            "deadline-ms",
            "max-evals",
            "checkpoint",
            "checkpoint-every",
        ],
        &["resume"],
    )?;
    let solver_name = flags.get("solver").unwrap_or("greedy3");
    // greedy3's argmax over residual mass is not a candidate scan and the
    // adaptive ladder picks its own oracles, so only greedy2 routes
    // through --oracle / --engine / --threads; passing them elsewhere is
    // an error rather than a silent no-op.
    if solver_name != "greedy2"
        && (flags.get("oracle").is_some()
            || flags.get("engine").is_some()
            || flags.get("threads").is_some())
    {
        return Err(CliError::Usage(format!(
            "--oracle/--engine/--threads only apply to --solver greedy2; `{solver_name}` ignores them"
        )));
    }
    let strategy = parse_oracle(flags.get("oracle").unwrap_or("seq"))?;
    let engine = parse_engine(flags.get("engine").unwrap_or("auto"))?;
    install_thread_pool(&flags)?;
    let budget = parse_budget(&flags)?;
    let faults = FaultPlan {
        loss: flags.get_or("loss", 0.0)?,
        outages: match flags.get("outage") {
            Some(raw) => parse_outages(raw)?,
            None => Vec::new(),
        },
        max_retries: flags.get_or("retries", FaultPlan::default().max_retries)?,
        backoff_slots: flags.get_or("backoff", FaultPlan::default().backoff_slots)?,
    };
    faults
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let checkpoint_path = flags.get("checkpoint");
    let checkpoint_every: usize = flags.get_or("checkpoint-every", 1)?;
    if checkpoint_every == 0 {
        return Err(CliError::Usage("--checkpoint-every must be >= 1".into()));
    }
    let mut ck: Checkpoint<2> = if flags.has("resume") {
        let path = checkpoint_path.ok_or_else(|| {
            CliError::Usage("--resume requires --checkpoint FILE to load from".into())
        })?;
        Checkpoint::load(Path::new(path))?
    } else {
        let n: usize = flags.get_or("n", 80)?;
        let k: usize = flags.get_or("k", 4)?;
        let r: f64 = flags.get_or("r", 1.0)?;
        let norm = parse_norm(flags.get("norm").unwrap_or("l2"))?;
        let weights = parse_weights(flags.get("weights").unwrap_or("diff"))?;
        let clusters: usize = flags.get_or("clusters", 0)?;
        let seed: u64 = flags.get_or("seed", 0)?;
        let config = BroadcastConfig {
            horizon_slots: flags.get_or("horizon", 48)?,
            churn_rate: flags.get_or("churn", 0.0)?,
            drift_rel_sigma: flags.get_or("drift", 0.0)?,
            threshold: 0.5,
            seed,
        };
        let distribution = if clusters == 0 {
            PointDistribution::Uniform
        } else {
            PointDistribution::GaussianClusters {
                clusters,
                rel_sigma: 0.08,
            }
        };
        let population = Population::<2>::generate(
            n,
            SpaceSpec::PAPER,
            distribution,
            weights,
            SeedSeq::new(seed),
        )?;
        Checkpoint::new(&config, &faults, population, r, k, norm)?
    };
    let run = match solver_name {
        "greedy2" => drive(
            &mut ck,
            &LocalGreedy::new().with_oracle(strategy).with_engine(engine),
            &budget,
            checkpoint_path,
            checkpoint_every,
        )?,
        "greedy3" => drive(
            &mut ck,
            &SimpleGreedy::new(),
            &budget,
            checkpoint_path,
            checkpoint_every,
        )?,
        "adaptive" => drive(
            &mut ck,
            &AdaptiveSolver::new(),
            &budget,
            checkpoint_path,
            checkpoint_every,
        )?,
        other => {
            return Err(CliError::Usage(format!(
                "simulate supports greedy2, greedy3 or adaptive, got `{other}`"
            )))
        }
    };
    // The fault/degradation columns only appear when something can
    // actually lose a broadcast or trip a budget, so default output is
    // byte-identical to the fault-free simulator.
    let active = ck.faults.is_active() || !budget.is_unlimited();
    print_run(out, &run, ck.config.horizon_slots, active)?;
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

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mmph-cli-sim-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn default_simulation_runs() {
        let (r, out) = run_capture(&["--n", "20", "--horizon", "8", "--k", "2"]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("4 periods"));
        assert!(out.contains("reward/slot"));
    }

    #[test]
    fn with_dynamics_and_clusters() {
        let (r, out) = run_capture(&[
            "--n",
            "30",
            "--horizon",
            "12",
            "--k",
            "3",
            "--churn",
            "0.1",
            "--drift",
            "0.02",
            "--clusters",
            "2",
            "--solver",
            "greedy2",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("total reward"));
    }

    #[test]
    fn rejects_unknown_solver() {
        let (r, _) = run_capture(&["--solver", "greedy9"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn rejects_bad_churn() {
        let (r, _) = run_capture(&["--churn", "1.5"]);
        assert!(r.is_err());
    }

    #[test]
    fn help_flag() {
        let (r, out) = run_capture(&["--help"]);
        assert!(r.is_ok());
        assert!(out.contains("OPTIONS"));
        assert!(out.contains("FAULT INJECTION"));
    }

    #[test]
    fn oracle_strategies_match_in_simulation() {
        let base = [
            "--n",
            "25",
            "--horizon",
            "8",
            "--k",
            "2",
            "--solver",
            "greedy2",
        ];
        let (r, seq) = run_capture(&[&base[..], &["--oracle", "seq"]].concat());
        assert!(r.is_ok(), "{r:?}");
        let (r, lazy) = run_capture(&[&base[..], &["--oracle", "lazy"]].concat());
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(seq, lazy);
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, a) = run_capture(&["--n", "15", "--horizon", "8", "--seed", "3"]);
        let (_, b) = run_capture(&["--n", "15", "--horizon", "8", "--seed", "3"]);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_oracle_for_solvers_that_ignore_it() {
        let (r, _) = run_capture(&["--solver", "greedy3", "--oracle", "par"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{r:?}");
        let (r, _) = run_capture(&["--solver", "adaptive", "--threads", "2"]);
        assert!(matches!(r, Err(CliError::Usage(_))), "{r:?}");
        // greedy3 without the inapplicable flags still works.
        let (r, _) = run_capture(&["--n", "10", "--horizon", "4", "--k", "2"]);
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn fault_flags_add_columns_and_counters() {
        let (r, out) = run_capture(&[
            "--n",
            "20",
            "--horizon",
            "12",
            "--k",
            "2",
            "--loss",
            "0.4",
            "--seed",
            "7",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("deliv"));
        assert!(out.contains("degraded periods"));
    }

    #[test]
    fn loss_free_output_has_no_fault_columns() {
        let (_, out) = run_capture(&["--n", "15", "--horizon", "8", "--loss", "0"]);
        assert!(!out.contains("deliv"));
        assert!(!out.contains("degraded periods"));
    }

    #[test]
    fn outage_flag_parses_and_runs() {
        let (r, out) = run_capture(&[
            "--n",
            "15",
            "--horizon",
            "16",
            "--k",
            "2",
            "--outage",
            "0:3,8:2",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("degraded periods"));
        let (r, _) = run_capture(&["--outage", "3"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
        let (r, _) = run_capture(&["--outage", "3:0"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn rejects_bad_loss() {
        let (r, _) = run_capture(&["--loss", "1.5"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn adaptive_solver_with_budget_runs() {
        let (r, out) = run_capture(&[
            "--n",
            "20",
            "--horizon",
            "8",
            "--k",
            "2",
            "--solver",
            "adaptive",
            "--max-evals",
            "0",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.contains("degr"));
        assert!(out.contains("yes"));
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let path = tmp("resume.json");
        let base = [
            "--n",
            "20",
            "--horizon",
            "24",
            "--k",
            "2",
            "--churn",
            "0.1",
            "--drift",
            "0.02",
            "--loss",
            "0.2",
            "--seed",
            "9",
        ];
        let (r, reference) = run_capture(&base);
        assert!(r.is_ok(), "{r:?}");
        // Same run, writing checkpoints every period.
        let (r, checkpointed) =
            run_capture(&[&base[..], &["--checkpoint", path.to_str().unwrap()]].concat());
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(reference, checkpointed);
        // Resuming the finished checkpoint re-reports the same totals
        // without running any further periods.
        let (r, resumed) = run_capture(&[
            "--checkpoint",
            path.to_str().unwrap(),
            "--resume",
            "--loss",
            "0.2",
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert!(resumed.contains("total reward"));
    }

    #[test]
    fn resume_requires_checkpoint_path() {
        let (r, _) = run_capture(&["--resume"]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }
}

//! `mmph-perfbench` — run one workload, or compare two sets of runs.
//!
//! ```text
//! mmph-perfbench --mmph PATH --workload NAME --seed N
//!                [--seconds S] [--trace 0|1] [--out DIR]
//! mmph-perfbench compare BASE CHANGE
//! ```
//!
//! A run prints one row per metric (name, value, unit, sample count),
//! the run's wall time, and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. It writes the same
//! record to `DIR/<workload>-seed<N>[-trace].json` (default
//! `.bench_out`), and a traced run also writes its spans as NDJSON
//! beside it. It exits non-zero when any answer fails its check.
//!
//! `compare` reads the records under BASE and CHANGE (directories or
//! single files), prints one verdict per (workload, metric), and exits
//! non-zero on any regression.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mmph_perfbench::compare::{compare, Verdict};
use mmph_perfbench::record::RunRecord;
use mmph_perfbench::registry::{self, END_TO_END, RUN_SECONDS};
use mmph_perfbench::trace::Tracer;
use mmph_perfbench::workloads::{self, Ctx};

const USAGE: &str = "usage: mmph-perfbench --mmph PATH --workload NAME --seed N \
[--seconds S] [--trace 0|1] [--out DIR]\n       mmph-perfbench compare BASE CHANGE";

/// Spans a traced run can record before its buffer reallocates.
const SPAN_CAPACITY: usize = 1 << 16;

struct RunArgs {
    mmph: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut mmph = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--mmph" => mmph = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(num(value()?)?),
            "--seconds" => seconds = num(value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if registry::workload(&workload).is_none() {
        let known: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            known.join(", ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(RunArgs {
        mmph: mmph.ok_or("--mmph is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

fn run(args: RunArgs) -> Result<RunRecord, String> {
    let t0 = Instant::now();
    let mut ctx = Ctx {
        mmph: args.mmph,
        seed: args.seed,
        seconds: args.seconds as f64,
        tracer: args.trace.then(|| Tracer::with_capacity(SPAN_CAPACITY)),
    };
    let measured = workloads::run(&args.workload, &mut ctx)?;
    let failures = measured.failures.clone();
    for note in &measured.notes {
        println!("{:<12} {note}", args.workload);
    }
    let record = measured.finish(
        &args.workload,
        args.seed,
        args.trace,
        args.seconds,
        t0.elapsed().as_secs_f64(),
    )?;

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!(
        "{}-seed{}{}",
        args.workload,
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    let json = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    let path = args.out.join(format!("{stem}.json"));
    std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(tracer) = &ctx.tracer {
        tracer.write_ndjson(&args.out.join(format!("{stem}.spans.ndjson")))?;
    }

    for f in failures.iter().take(10) {
        eprintln!("mmph-perfbench: FAILED: {f}");
    }
    if failures.len() > 10 {
        eprintln!(
            "mmph-perfbench: ... and {} more failures",
            failures.len() - 10
        );
    }
    Ok(record)
}

/// Records under `path`: every `*.json` in a directory, or the file.
fn load(path: &Path) -> Result<Vec<RunRecord>, String> {
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut v: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .filter(|r: &Result<RunRecord, String>| r.as_ref().map_or(true, |r| !r.trace))
        .collect()
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let [base, change] = args else {
        return Err(USAGE.into());
    };
    let (base, change) = (load(Path::new(base))?, load(Path::new(change))?);
    if base.is_empty() || change.is_empty() {
        return Err("both sets need at least one untraced run record".into());
    }
    let rows = compare(&base, &change, END_TO_END)?;
    for row in &rows {
        println!("{row}");
    }
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regression))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        return match compare_cmd(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("mmph-perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_run(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmph-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(record) => {
            for row in record.rows() {
                println!("{row}");
            }
            println!(
                "{:<12} wall_s = {:.3} (attempted {}, failed {})",
                record.workload, record.wall_s, record.attempted, record.failed
            );
            println!("{}", record.result_line());
            if record.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mmph-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

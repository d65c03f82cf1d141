//! `compare BASE CHANGE`: the rule every performance claim and every
//! no-regression check goes through. Runs of the parent (base) and of
//! the change are grouped by workload; each end-to-end metric gets one
//! verdict:
//!
//! - **regression** — the change's median is worse than the base's by
//!   more than the metric's bound, with the base's spread within the
//!   bound; or every change run reads worse than every base run,
//!   whatever the spread; or the change fails a larger share of
//!   operations, any change run is incorrect, or a run of the base has
//!   no counterpart in the change (the change crashed before writing
//!   its record). Any regression fails the command.
//! - **unresolved** — the base's interquartile spread is wider than the
//!   bound, so the bound cannot be checked, and the change's runs
//!   neither all read better nor all read worse than every base run.
//!
//! Both sets must be run on the same inputs: every (workload, seed) of
//! the change must also be in the base, and runs pair up by seed.
//! - **gain** — the change wins at least nine tenths of the run pairs
//!   (ties count for neither side) and the medians differ, in the
//!   better direction, by more than the base's interquartile distance.
//! - **unchanged** — none of the above.

use std::fmt;

use crate::record::RunRecord;
use crate::registry::{Better, MetricDef};
use crate::stats;

/// Share of run pairs the change must win to claim a gain.
pub const WIN_SHARE: f64 = 0.9;

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the section-8 rule.
    Gain,
    /// Within the bound, no gain shown.
    Unchanged,
    /// Spread wider than the bound; no claim either way.
    Unresolved,
    /// Worse than the bound allows.
    Regression,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Gain => "gain",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        })
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name, or `fail_frac` for the failure check.
    pub metric: String,
    /// Base median.
    pub base: f64,
    /// Change median.
    pub change: f64,
    /// Base interquartile distance over its median.
    pub base_spread: f64,
    /// Pairs the change won, of `pairs`.
    pub wins: usize,
    /// Run pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:<14} base {:>14.6} change {:>14.6} ({:+.2}%) spread {:>6.2}% wins {}/{}  {}",
            self.workload,
            self.metric,
            self.base,
            self.change,
            100.0 * (self.change - self.base) / self.base.abs().max(f64::MIN_POSITIVE),
            100.0 * self.base_spread,
            self.wins,
            self.pairs,
            self.verdict
        )
    }
}

/// `a` reads strictly better than `b` under `better`.
fn beats(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Verdict for one metric's base and change values. Pairs are formed
/// in the given order.
fn judge(def: &MetricDef, base: &[f64], change: &[f64]) -> Row {
    let every = |better: Better| {
        change
            .iter()
            .all(|c| base.iter().all(|b| beats(better, *c, *b)))
    };
    let flipped = match def.better {
        Better::Lower => Better::Higher,
        Better::Higher => Better::Lower,
    };
    let (all_better, all_worse) = (every(def.better), every(flipped));
    let bound = def.bound.unwrap_or(0.0);
    let (mb, mc) = (stats::median(base), stats::median(change));
    let (q1, q3) = stats::quartiles(base);
    let spread = stats::relative_spread(base);
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| beats(def.better, **c, **b))
        .count();
    let worse = match def.better {
        Better::Lower => (mc - mb) / mb.abs(),
        Better::Higher => (mb - mc) / mb.abs(),
    };
    let gain = pairs > 0
        && wins as f64 >= WIN_SHARE * pairs as f64
        && beats(def.better, mc, mb)
        && (mc - mb).abs() > q3 - q1;
    let verdict = if spread > bound && all_worse {
        Verdict::Regression
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if gain {
        Verdict::Gain
    } else {
        Verdict::Unchanged
    };
    Row {
        workload: String::new(),
        metric: def.name.to_owned(),
        base: mb,
        change: mc,
        base_spread: spread,
        wins,
        pairs,
        verdict,
    }
}

/// Compares every workload of the base on every metric in `defs`, plus
/// the failure share, pairing runs by seed. Errors when the change has
/// a (workload, seed) the base lacks or a seed twice: such sets were
/// not run on the same inputs and cannot be paired.
pub fn compare(
    base: &[RunRecord],
    change: &[RunRecord],
    defs: &[MetricDef],
) -> Result<Vec<Row>, String> {
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let runs = |set: &[RunRecord], w: &str| {
        let mut v: Vec<RunRecord> = set.iter().filter(|r| r.workload == w).cloned().collect();
        v.sort_by_key(|r| r.seed);
        v
    };
    for r in change {
        let twins = change
            .iter()
            .filter(|x| x.workload == r.workload && x.seed == r.seed)
            .count();
        let in_base = base
            .iter()
            .any(|x| x.workload == r.workload && x.seed == r.seed);
        if twins > 1 || !in_base {
            return Err(format!(
                "{} seed {}: {} the change set; run both sets once on the same seeds",
                r.workload,
                r.seed,
                if in_base {
                    "repeated in"
                } else {
                    "missing from the base set but in"
                }
            ));
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        let c = runs(change, w);
        // Base runs the change has a counterpart for; the others count
        // as failed runs of the change.
        let (b, missing): (Vec<RunRecord>, Vec<RunRecord>) = runs(base, w)
            .into_iter()
            .partition(|r| c.iter().any(|x| x.seed == r.seed));
        for def in defs {
            let values = |set: &[RunRecord]| {
                set.iter()
                    .filter_map(|r| r.value(def.name))
                    .collect::<Vec<_>>()
            };
            let (bv, cv) = (values(&b), values(&c));
            if bv.is_empty() || cv.is_empty() {
                continue;
            }
            let mut row = judge(def, &bv, &cv);
            row.workload = w.to_owned();
            rows.push(row);
        }
        rows.push(fail_row(w, &b, &c, &missing));
    }
    Ok(rows)
}

/// A change that fails a larger share of its operations, any of whose
/// runs is incorrect, or that wrote no record for a run of the base
/// (every operation of that run counts as failed), regresses whatever
/// its timings say.
fn fail_row(
    workload: &str,
    base: &[RunRecord],
    change: &[RunRecord],
    missing: &[RunRecord],
) -> Row {
    let sum = |set: &[RunRecord], f: fn(&RunRecord) -> u64| set.iter().map(f).sum::<u64>();
    let lost = sum(missing, |r| r.attempted);
    let fb = (sum(base, |r| r.failed) + sum(missing, |r| r.failed)) as f64
        / (sum(base, |r| r.attempted) + lost).max(1) as f64;
    let fc = (sum(change, |r| r.failed) + lost) as f64
        / (sum(change, |r| r.attempted) + lost).max(1) as f64;
    let incorrect = change.iter().any(|r| !r.correct);
    Row {
        workload: workload.to_owned(),
        metric: "fail_frac".to_owned(),
        base: fb,
        change: fc,
        base_spread: 0.0,
        wins: 0,
        pairs: change.len(),
        verdict: if fc > fb || incorrect || !missing.is_empty() {
            Verdict::Regression
        } else {
            Verdict::Unchanged
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MetricRow;

    const LATENCY: MetricDef = MetricDef {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
    };
    const QUALITY: MetricDef = MetricDef {
        name: "objective",
        unit: "ratio",
        better: Better::Higher,
        bound: Some(0.10),
    };

    fn run(workload: &str, seed: u64, latency: f64, quality: f64, failed: u64) -> RunRecord {
        let row = |name: &str, value: f64, unit: &str| MetricRow {
            name: name.into(),
            value,
            unit: unit.into(),
            samples: 1,
            note: String::new(),
        };
        RunRecord {
            workload: workload.into(),
            seed,
            trace: false,
            seconds: 20,
            wall_s: 25.0,
            correct: failed == 0,
            attempted: 100,
            failed,
            metrics: vec![
                row("op_p50_ms", latency, "ms"),
                row("objective", quality, "ratio"),
            ],
        }
    }

    /// Runs of `solve-1e6` with seeds 0, 1, ….
    fn set(latencies: &[f64], qualities: &[f64], failed: u64) -> Vec<RunRecord> {
        latencies
            .iter()
            .zip(qualities)
            .enumerate()
            .map(|(i, (l, q))| run("solve-1e6", i as u64, *l, *q, failed))
            .collect()
    }

    fn rows(base: &[RunRecord], change: &[RunRecord]) -> Vec<Row> {
        compare(base, change, &[LATENCY, QUALITY]).expect("same seeds")
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect("row")
            .verdict
    }

    fn scaled(xs: &[f64], by: f64) -> Vec<f64> {
        xs.iter().map(|x| x * by).collect()
    }

    const STEADY: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];
    const NOISY: [f64; 10] = [
        60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
    ];

    #[test]
    fn clean_win_is_a_gain() {
        let base = set(&STEADY, &STEADY, 0);
        let rows = rows(&base, &set(&scaled(&STEADY, 0.8), &scaled(&STEADY, 1.3), 0));
        assert_eq!(verdict(&rows, "op_p50_ms"), Verdict::Gain);
        assert_eq!(verdict(&rows, "objective"), Verdict::Gain);
        assert_eq!(verdict(&rows, "fail_frac"), Verdict::Unchanged);
    }

    #[test]
    fn wobble_within_the_bound_is_unchanged() {
        let base = set(&STEADY, &STEADY, 0);
        let mut wobble = STEADY;
        wobble.reverse();
        let rows = rows(&base, &set(&scaled(&STEADY, 1.04), &wobble, 0));
        assert_eq!(
            verdict(&rows, "op_p50_ms"),
            Verdict::Unchanged,
            "4% < 10% bound"
        );
        assert_eq!(verdict(&rows, "objective"), Verdict::Unchanged);
    }

    #[test]
    fn worse_than_the_bound_is_a_regression() {
        let base = set(&STEADY, &STEADY, 0);
        let rows = rows(&base, &set(&scaled(&STEADY, 1.2), &scaled(&STEADY, 0.8), 0));
        assert_eq!(verdict(&rows, "op_p50_ms"), Verdict::Regression);
        assert_eq!(verdict(&rows, "objective"), Verdict::Regression);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = set(&NOISY, &NOISY, 0);
        let rows = rows(&base, &set(&scaled(&NOISY, 1.2), &NOISY, 0));
        assert_eq!(verdict(&rows, "op_p50_ms"), Verdict::Unresolved);
        // Unless every change run beats every base run.
        let rows = compare(&base, &set(&scaled(&NOISY, 0.2), &NOISY, 0), &[LATENCY]);
        assert_eq!(verdict(&rows.unwrap(), "op_p50_ms"), Verdict::Gain);
    }

    #[test]
    fn every_run_worse_than_every_base_run_regresses_however_noisy() {
        let base = set(&NOISY, &NOISY, 0);
        let rows = rows(&base, &set(&scaled(&NOISY, 3.0), &scaled(&NOISY, 0.4), 0));
        assert!(relative_spread_of(&base, "op_p50_ms") > 0.10);
        assert_eq!(
            verdict(&rows, "op_p50_ms"),
            Verdict::Regression,
            "2x slower"
        );
        assert_eq!(verdict(&rows, "objective"), Verdict::Regression);
    }

    fn relative_spread_of(set: &[RunRecord], metric: &str) -> f64 {
        let v: Vec<f64> = set.iter().filter_map(|r| r.value(metric)).collect();
        stats::relative_spread(&v)
    }

    #[test]
    fn a_fail_frac_increase_always_rejects() {
        let base = set(&STEADY, &STEADY, 0);
        let rows = rows(&base, &set(&scaled(&STEADY, 0.5), &STEADY, 1));
        assert_eq!(verdict(&rows, "op_p50_ms"), Verdict::Gain);
        assert_eq!(verdict(&rows, "fail_frac"), Verdict::Regression);
    }

    #[test]
    fn a_run_missing_from_the_change_is_a_regression() {
        let base = set(&STEADY, &STEADY, 0);
        // Seed 3 crashed: the change wrote no record for it.
        let mut change = set(&scaled(&STEADY, 0.5), &STEADY, 0);
        change.retain(|r| r.seed != 3);
        let rows = rows(&base, &change);
        assert_eq!(verdict(&rows, "fail_frac"), Verdict::Regression);
        let row = rows.iter().find(|r| r.metric == "op_p50_ms").unwrap();
        assert_eq!(row.pairs, 9, "the other runs still pair by seed");
    }

    #[test]
    fn a_workload_missing_from_the_change_is_a_regression() {
        let mut base = set(&STEADY, &STEADY, 0);
        base.push(run("churn-1e6", 0, 250.0, 1.0, 0));
        let rows = rows(&base, &set(&STEADY, &STEADY, 0));
        let churn: Vec<&Row> = rows.iter().filter(|r| r.workload == "churn-1e6").collect();
        assert_eq!(churn.len(), 1, "no metric rows, only the failure row");
        assert_eq!(
            (churn[0].metric.as_str(), churn[0].verdict),
            ("fail_frac", Verdict::Regression)
        );
        assert_eq!(churn[0].change, 1.0, "every operation of it failed");
    }

    #[test]
    fn sets_on_different_seeds_are_refused() {
        let base = set(&STEADY, &STEADY, 0);
        let mut change = set(&STEADY, &STEADY, 0);
        change[0].seed = 99;
        assert!(compare(&base, &change, &[LATENCY]).is_err());
        let mut twice = set(&STEADY, &STEADY, 0);
        twice[1].seed = 0;
        assert!(compare(&base, &twice, &[LATENCY]).is_err());
    }

    #[test]
    fn runs_pair_by_seed_not_by_order() {
        let base = set(&STEADY, &STEADY, 0);
        let mut change = set(&scaled(&STEADY, 0.8), &STEADY, 0);
        change.reverse();
        let row = rows(&base, &change)
            .into_iter()
            .find(|r| r.metric == "op_p50_ms")
            .unwrap();
        assert_eq!((row.wins, row.pairs), (10, 10));
    }

    #[test]
    fn ties_count_for_neither_side() {
        let base = set(&STEADY, &STEADY, 0);
        let rows = rows(&base, &set(&STEADY, &STEADY, 0));
        let row = rows.iter().find(|r| r.metric == "op_p50_ms").unwrap();
        assert_eq!(
            (row.wins, row.pairs, row.verdict),
            (0, 10, Verdict::Unchanged)
        );
    }
}

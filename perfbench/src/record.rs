//! What one run measured: the values a workload sets, the checked
//! record built from them against the registry, the human-readable
//! rows, the one-line JSON result, and the file `compare` reads.

use serde::{Deserialize, Serialize};

use crate::registry::{metric, END_TO_END, PER_LAYER};
use crate::stats;

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    /// Registry name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Registry unit.
    pub unit: String,
    /// Samples the value summarizes.
    pub samples: u64,
    /// How it was summarized, e.g. `median`, `p99`, `max`, `computed`.
    pub note: String,
}

/// One run's result, as `--out` writes it and `compare` reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// True for a traced run (per-layer metrics).
    pub trace: bool,
    /// Measurement length asked for, in seconds.
    pub seconds: u64,
    /// Wall time of the whole run, set-up and checks included.
    pub wall_s: f64,
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The table's metrics, in registry order.
    pub metrics: Vec<MetricRow>,
}

/// Values and failures a workload collects while it runs.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted.
    pub attempted: u64,
    /// Human-readable description of every failed operation.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the metric rows.
    pub notes: Vec<String>,
    values: Vec<(&'static str, f64, u64, String)>,
}

impl Measured {
    /// Records `value` for metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize, note: &str) {
        assert!(
            metric(name).is_some(),
            "metric `{name}` is not in the registry"
        );
        self.values.retain(|v| v.0 != name);
        self.values
            .push((name, value, samples as u64, note.to_owned()));
    }

    /// Records a median under `name`.
    pub fn median(&mut self, name: &'static str, xs: &[f64]) {
        self.set(name, stats::median(xs), xs.len(), "median");
    }

    /// Records the median of millisecond samples in microseconds.
    pub fn median_us(&mut self, name: &'static str, xs_ms: &[f64]) {
        let us: Vec<f64> = xs_ms.iter().map(|ms| ms * 1e3).collect();
        self.median(name, &us);
    }

    /// Records a fixed nearest-rank percentile under `name`.
    pub fn percentile(&mut self, name: &'static str, xs: &[f64], pct: u32) {
        self.set(
            name,
            stats::percentile(xs, pct),
            xs.len(),
            &format!("p{pct}"),
        );
    }

    /// Counts one operation, failed when `outcome` is an error.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempt_value(outcome.map(|()| 0.0));
    }

    /// Counts one operation whose check yields a value (e.g. the
    /// answer's quality); returns the value when the check passed.
    pub fn attempt_value(&mut self, outcome: Result<f64, String>) -> Option<f64> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(e);
                None
            }
        }
    }

    /// Builds the record for the end-to-end table (`trace` false) or
    /// the per-layer table. Every end-to-end metric must have been set
    /// to a finite value; a per-layer metric the workload did not set
    /// reads 0 (the layer did no work).
    pub fn finish(
        self,
        workload: &str,
        seed: u64,
        trace: bool,
        seconds: u64,
        wall_s: f64,
    ) -> Result<RunRecord, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for def in table {
            let found = self.values.iter().find(|v| v.0 == def.name);
            let (value, samples, note) = match found {
                Some((_, v, s, n)) if v.is_finite() => (*v, *s, n.clone()),
                _ if !trace => {
                    return Err(format!(
                        "{workload}: end-to-end metric `{}` not measured",
                        def.name
                    ))
                }
                _ => (0.0, 0, "not exercised".to_owned()),
            };
            metrics.push(MetricRow {
                name: def.name.to_owned(),
                value,
                unit: def.unit.to_owned(),
                samples,
                note,
            });
        }
        Ok(RunRecord {
            workload: workload.to_owned(),
            seed,
            trace,
            seconds,
            wall_s,
            correct: self.failures.is_empty(),
            attempted: self.attempted.max(1),
            failed: self.failures.len() as u64,
            metrics,
        })
    }
}

impl RunRecord {
    /// The last line of standard output:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// One human-readable row per metric.
    pub fn rows(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "{:<12} {:<30} {:>16.6} {:<8} n={:<6} {}",
                    self.workload, m.name, m.value, m.unit, m.samples, m.note
                )
            })
            .collect()
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_e2e() -> Measured {
        let mut m = Measured::default();
        for def in END_TO_END {
            m.set(def.name, 1.5, 3, "median");
        }
        m
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut m = full_e2e();
        m.attempt(Ok(()));
        m.attempt(Err("wrong reward".into()));
        let rec = m.finish("solve-1e6", 3, false, 20, 1.0).unwrap();
        assert!(!rec.correct);
        assert_eq!((rec.attempted, rec.failed), (2, 1));
        let line = rec.result_line();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{"));
        for def in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\":{{\"value\":1.5,\"unit\":\"{}\"}}",
                def.name, def.unit
            )));
        }
        assert!(!line.contains('\n'));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let mut m = Measured::default();
        m.set("setup_s", 0.1, 3, "median");
        assert!(m.finish("solve-1e6", 1, false, 20, 1.0).is_err());
    }

    #[test]
    fn unmeasured_layers_read_zero() {
        let mut m = Measured::default();
        m.set("reward.build_ms", 12.0, 2, "median");
        let rec = m.finish("serve-mix", 1, true, 20, 1.0).unwrap();
        assert_eq!(rec.metrics.len(), PER_LAYER.len());
        assert_eq!(rec.value("reward.build_ms"), Some(12.0));
        assert_eq!(rec.value("coreset.build_ms"), Some(0.0));
        assert_eq!(rec.attempted, 1, "attempted is at least 1");
    }

    #[test]
    fn records_round_trip_through_json() {
        let rec = full_e2e().finish("churn-1e6", 9, false, 20, 31.5).unwrap();
        let back: RunRecord = serde_json::from_str(&serde_json::to_string(&rec).unwrap()).unwrap();
        assert_eq!(back, rec);
    }
}

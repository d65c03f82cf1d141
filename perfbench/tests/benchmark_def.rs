//! `BENCHMARK.json` at the repository root is the benchmark's public
//! definition. These tests hold it to its format limits and to the
//! harness's registry, so the file and the code cannot drift apart.

use mmph_perfbench::registry::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct Definition {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Debug, Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Debug, Deserialize)]
struct Metric {
    name: String,
    unit: String,
    better: String,
    #[serde(default)]
    bound: Option<f64>,
}

fn definition() -> Definition {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_units_and_counts_are_within_limits() {
    let def = definition();
    assert!((2..=8).contains(&def.workloads.len()));
    assert!((1..=16).contains(&def.end_to_end.len()));
    assert!((1..=128).contains(&def.per_layer.len()));
    assert!((1..=60).contains(&def.run_seconds));
    let mut names: Vec<&str> = def
        .workloads
        .iter()
        .map(|w| w.name.as_str())
        .chain(
            def.end_to_end
                .iter()
                .chain(&def.per_layer)
                .map(|m| m.name.as_str()),
        )
        .collect();
    for n in &names {
        assert!(is_name(n), "bad name `{n}`");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
    for w in &def.workloads {
        assert!(
            !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
            "{}",
            w.name
        );
    }
    for m in def.end_to_end.iter().chain(&def.per_layer) {
        assert!(is_unit(&m.unit), "{}: bad unit `{}`", m.name, m.unit);
        assert!(
            m.better == "lower" || m.better == "higher",
            "{}: better",
            m.name
        );
    }
}

#[test]
fn every_end_to_end_metric_has_a_bound_and_setup_has_the_largest() {
    let def = definition();
    for m in &def.end_to_end {
        let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
        assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
    }
    assert!(
        def.per_layer.iter().all(|m| m.bound.is_none()),
        "per-layer metrics carry no bound"
    );
    let setup = def
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let largest = def
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest));
}

#[test]
fn command_and_paths_stay_inside_the_benchmark() {
    let def = definition();
    assert_eq!(def.paths, ["perfbench"]);
    assert_eq!(def.command, ["bash", "perfbench/run.sh"]);
    for arg in &def.command {
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
    }
}

fn same(file: &[Metric], registry: &[MetricDef]) {
    assert_eq!(file.len(), registry.len());
    for (f, r) in file.iter().zip(registry) {
        assert_eq!(
            (f.name.as_str(), f.unit.as_str(), f.better.as_str(), f.bound),
            (r.name, r.unit, r.better.as_str(), r.bound),
        );
    }
}

#[test]
fn the_file_equals_the_harness_registry() {
    let def = definition();
    assert_eq!(def.run_seconds, RUN_SECONDS);
    let file: Vec<(&str, &str)> = def
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), w.why.as_str()))
        .collect();
    let reg: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(file, reg);
    same(&def.end_to_end, END_TO_END);
    same(&def.per_layer, PER_LAYER);
}

//! Request streams for batched solving.
//!
//! The `mmph batch` command consumes a stream of instances. This
//! module turns a `--scenarios` argument into that stream. Three
//! argument shapes are accepted:
//!
//! - a **directory**: every `*.json` file (sorted by name) holding a
//!   [`Scenario`] or an array of them;
//! - a **file**: one such JSON file;
//! - an **inline spec**: `key=value` pairs joined by commas, e.g.
//!   `n=10000,k=16,count=4,repeat=8`. Keys: `n` (required), `k` (4),
//!   `r` (1.0), `count` (1) distinct scenarios with consecutive
//!   seeds, `repeat` (1) adjacent copies of each, `seed` (0), `norm`
//!   (`l1`|`l2`, default `l2`), `weights` (`same`|`diff`, default
//!   `diff`).
//!
//! `repeat` copies are *adjacent* in the stream on purpose: the batch
//! runner reuses a built engine across consecutive identical requests,
//! which is the serving workload (the same catalog instance solved for
//! many arriving broadcast periods) this layer models.

use std::path::Path;

use mmph_core::Instance;
use mmph_geom::Norm;

use crate::gen::WeightScheme;
use crate::scenario::Scenario;
use crate::{Result, SimError};

/// An inline stream specification (see the module docs for syntax).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Users per instance.
    pub n: usize,
    /// Broadcasts per instance.
    pub k: usize,
    /// Interest radius.
    pub r: f64,
    /// Distinct scenarios (seeds `seed..seed+count`).
    pub count: usize,
    /// Adjacent copies of each distinct scenario.
    pub repeat: usize,
    /// Base seed.
    pub seed: u64,
    /// Interest-distance norm.
    pub norm: Norm,
    /// Weight scheme.
    pub weights: WeightScheme,
}

impl StreamSpec {
    /// Expands the spec into `count × repeat` scenarios, repeats
    /// adjacent.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.count * self.repeat);
        for d in 0..self.count {
            let sc = Scenario::paper_2d(
                self.n,
                self.k,
                self.r,
                self.norm,
                self.weights,
                self.seed + d as u64,
            );
            for _ in 0..self.repeat {
                out.push(sc.clone());
            }
        }
        out
    }
}

/// Parses an inline `key=value,...` stream spec.
pub fn parse_spec(s: &str) -> Result<StreamSpec> {
    let mut n: Option<usize> = None;
    let mut spec = StreamSpec {
        n: 0,
        k: 4,
        r: 1.0,
        count: 1,
        repeat: 1,
        seed: 0,
        norm: Norm::L2,
        weights: WeightScheme::PAPER_WEIGHTED,
    };
    for pair in s.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').ok_or_else(|| {
            SimError::InvalidConfig(format!("spec item `{pair}` is not key=value"))
        })?;
        let bad = |what: &str| SimError::InvalidConfig(format!("bad {what} value: {value}"));
        match key {
            "n" => n = Some(value.parse().map_err(|_| bad("n"))?),
            "k" => spec.k = value.parse().map_err(|_| bad("k"))?,
            "r" => spec.r = value.parse().map_err(|_| bad("r"))?,
            "count" => spec.count = value.parse().map_err(|_| bad("count"))?,
            "repeat" => spec.repeat = value.parse().map_err(|_| bad("repeat"))?,
            "seed" => spec.seed = value.parse().map_err(|_| bad("seed"))?,
            "norm" => {
                spec.norm = match value {
                    "l1" | "L1" | "1" => Norm::L1,
                    "l2" | "L2" | "2" => Norm::L2,
                    _ => return Err(bad("norm")),
                }
            }
            "weights" => {
                spec.weights = match value {
                    "same" => WeightScheme::Same,
                    "diff" => WeightScheme::PAPER_WEIGHTED,
                    _ => return Err(bad("weights")),
                }
            }
            other => {
                return Err(SimError::InvalidConfig(format!(
                    "unknown spec key: {other} (known: n,k,r,count,repeat,seed,norm,weights)"
                )))
            }
        }
    }
    spec.n = n.ok_or_else(|| SimError::InvalidConfig("spec needs n=<users>".into()))?;
    if spec.n == 0 || spec.count == 0 || spec.repeat == 0 {
        return Err(SimError::InvalidConfig(
            "n, count and repeat must be >= 1".into(),
        ));
    }
    Ok(spec)
}

/// Maximum `n` accepted from untrusted scenario input. A larger value
/// is almost certainly hostile or a typo, and would try to allocate
/// tens of GiB before `Instance::new` could reject anything.
pub const MAX_STREAM_N: usize = 100_000_000;

/// Maximum `[`/`{` nesting accepted from untrusted scenario input.
/// The vendored JSON parser is recursive; unbounded depth is a stack
/// overflow (an abort, not a catchable error), so cap it well above
/// any legitimate [`Scenario`] document.
pub const MAX_JSON_DEPTH: usize = 64;

/// Rejects input whose bracket nesting would blow the recursive
/// parser's stack. String contents are skipped so braces inside labels
/// don't count.
fn check_depth(s: &str) -> Result<()> {
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for b in s.bytes() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'[' | b'{' => {
                depth += 1;
                if depth > MAX_JSON_DEPTH {
                    return Err(SimError::BadScenario(format!(
                        "JSON nesting deeper than {MAX_JSON_DEPTH} levels"
                    )));
                }
            }
            b']' | b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    Ok(())
}

/// Sanity-checks a parsed scenario before anything allocates for it.
/// `Instance::new` re-validates geometry; this guards the generation
/// step itself (allocation size, degenerate parameters) so untrusted
/// service input cannot OOM or panic the worker.
pub fn validate_scenario(sc: &Scenario) -> Result<()> {
    if sc.n == 0 {
        return Err(SimError::BadScenario("n must be >= 1".into()));
    }
    if sc.n > MAX_STREAM_N {
        return Err(SimError::BadScenario(format!(
            "n = {} exceeds the stream cap of {MAX_STREAM_N}",
            sc.n
        )));
    }
    if sc.k == 0 {
        return Err(SimError::BadScenario("k must be >= 1".into()));
    }
    if !sc.r.is_finite() || sc.r <= 0.0 {
        return Err(SimError::BadScenario(format!(
            "r must be a positive finite number (got {})",
            sc.r
        )));
    }
    Ok(())
}

/// Parses one NDJSON line holding a [`Scenario`]. Malformed JSON,
/// truncated lines, wrong shapes, and hostile parameters all come back
/// as [`SimError::BadScenario`] — never a panic. This is the entry
/// point the solve service uses for inline request scenarios.
pub fn parse_scenario_line(line: &str) -> Result<Scenario> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Err(SimError::BadScenario("empty scenario line".into()));
    }
    check_depth(trimmed)?;
    let sc: Scenario = serde_json::from_str(trimmed)
        .map_err(|e| SimError::BadScenario(format!("scenario JSON: {e}")))?;
    validate_scenario(&sc)?;
    Ok(sc)
}

fn scenarios_from_json(path: &Path) -> Result<Vec<Scenario>> {
    let text = std::fs::read_to_string(path)?;
    check_depth(&text)?;
    // A file may hold a single scenario or an array of them.
    let list = match serde_json::from_str::<Vec<Scenario>>(&text) {
        Ok(v) => v,
        Err(_) => vec![serde_json::from_str::<Scenario>(&text)
            .map_err(|e| SimError::BadScenario(format!("{}: {e}", path.display())))?],
    };
    for sc in &list {
        validate_scenario(sc)
            .map_err(|e| SimError::BadScenario(format!("{}: {e}", path.display())))?;
    }
    Ok(list)
}

/// Resolves a `--scenarios` argument (directory, file, or inline
/// spec) into an ordered scenario list.
pub fn scenarios_from_arg(arg: &str) -> Result<Vec<Scenario>> {
    let path = Path::new(arg);
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(SimError::InvalidConfig(format!(
                "no *.json scenario files in {arg}"
            )));
        }
        let mut out = Vec::new();
        for f in files {
            out.extend(scenarios_from_json(&f)?);
        }
        Ok(out)
    } else if path.is_file() {
        scenarios_from_json(path)
    } else if arg.contains('=') {
        Ok(parse_spec(arg)?.scenarios())
    } else {
        Err(SimError::InvalidConfig(format!(
            "`{arg}` is neither a path nor a key=value spec"
        )))
    }
}

/// Resolves a `--scenarios` argument straight to the instance stream.
/// Consecutive identical scenarios are generated once and cloned, so
/// the batch runner's adjacent-equality engine reuse sees genuinely
/// identical instances without paying regeneration.
pub fn instances_from_arg(arg: &str) -> Result<Vec<Instance<2>>> {
    let scenarios = scenarios_from_arg(arg)?;
    let mut out: Vec<Instance<2>> = Vec::with_capacity(scenarios.len());
    let mut prev: Option<(Scenario, usize)> = None;
    for sc in scenarios {
        match &prev {
            Some((p, at)) if *p == sc => {
                let copy = out[*at].clone();
                out.push(copy);
            }
            _ => {
                out.push(sc.generate_2d()?);
                prev = Some((sc, out.len() - 1));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_spec_defaults_and_overrides() {
        let spec = parse_spec("n=100").unwrap();
        assert_eq!(spec.n, 100);
        assert_eq!(spec.k, 4);
        assert_eq!(spec.count, 1);
        assert_eq!(spec.repeat, 1);
        assert_eq!(spec.norm, Norm::L2);
        assert_eq!(spec.weights, WeightScheme::PAPER_WEIGHTED);

        let spec =
            parse_spec("n=50,k=2,r=1.5,count=3,repeat=2,seed=9,norm=l1,weights=same").unwrap();
        assert_eq!(spec.k, 2);
        assert_eq!(spec.r, 1.5);
        assert_eq!(spec.count, 3);
        assert_eq!(spec.repeat, 2);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.norm, Norm::L1);
        assert_eq!(spec.weights, WeightScheme::Same);
    }

    #[test]
    fn parse_spec_rejects_bad_input() {
        assert!(parse_spec("k=4").is_err(), "n is required");
        assert!(parse_spec("n=0").is_err());
        assert!(parse_spec("n=10,repeat=0").is_err());
        assert!(parse_spec("n=10,bogus=1").is_err());
        assert!(parse_spec("n=10,norm=l7").is_err());
        assert!(parse_spec("n=ten").is_err());
        assert!(parse_spec("n").is_err());
    }

    #[test]
    fn spec_expands_with_adjacent_repeats() {
        let scs = parse_spec("n=12,count=2,repeat=3,seed=5")
            .unwrap()
            .scenarios();
        assert_eq!(scs.len(), 6);
        assert_eq!(scs[0], scs[1]);
        assert_eq!(scs[0], scs[2]);
        assert_ne!(scs[2], scs[3], "distinct scenarios differ by seed");
        assert_eq!(scs[0].seed, 5);
        assert_eq!(scs[3].seed, 6);
    }

    #[test]
    fn instances_from_inline_spec() {
        let insts = instances_from_arg("n=12,count=2,repeat=2,seed=1").unwrap();
        assert_eq!(insts.len(), 4);
        assert_eq!(insts[0], insts[1], "repeats are identical instances");
        assert_ne!(insts[1], insts[2]);
        assert_eq!(insts[0].n(), 12);
    }

    #[test]
    fn instances_from_file_and_dir() {
        let dir = std::env::temp_dir().join(format!("mmph-stream-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = Scenario::paper_2d(8, 2, 1.0, Norm::L2, WeightScheme::Same, 1);
        let b = Scenario::paper_2d(9, 2, 1.0, Norm::L1, WeightScheme::Same, 2);
        std::fs::write(
            dir.join("b-pair.json"),
            serde_json::to_string(&vec![b.clone(), b.clone()]).unwrap(),
        )
        .unwrap();
        std::fs::write(
            dir.join("a-single.json"),
            serde_json::to_string(&a).unwrap(),
        )
        .unwrap();
        std::fs::write(dir.join("ignored.txt"), "not json").unwrap();

        // Single file.
        let single = instances_from_arg(dir.join("a-single.json").to_str().unwrap()).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].n(), 8);

        // Directory: files sorted by name, arrays flattened.
        let all = instances_from_arg(dir.to_str().unwrap()).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].n(), 8);
        assert_eq!(all[1].n(), 9);
        assert_eq!(all[1], all[2]);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_arg_reports_clearly() {
        let err = instances_from_arg("/no/such/path").unwrap_err();
        assert!(err.to_string().contains("neither a path nor"));
    }

    #[test]
    fn scenario_line_roundtrips() {
        let sc = Scenario::paper_2d(12, 3, 1.0, Norm::L2, WeightScheme::Same, 4);
        let line = serde_json::to_string(&sc).unwrap();
        assert_eq!(parse_scenario_line(&line).unwrap(), sc);
        // Surrounding whitespace is fine (NDJSON lines keep their `\n`).
        assert_eq!(parse_scenario_line(&format!("  {line}\n")).unwrap(), sc);
    }

    #[test]
    fn malformed_lines_are_typed_errors_not_panics() {
        let sc = Scenario::paper_2d(12, 3, 1.0, Norm::L2, WeightScheme::Same, 4);
        let good = serde_json::to_string(&sc).unwrap();
        let cases: Vec<String> = vec![
            String::new(),
            "   ".into(),
            "not json".into(),
            "{".into(),
            good[..good.len() / 2].to_string(), // truncated mid-object
            "[1,2,3]".into(),                   // wrong shape
            "{\"label\":\"x\"}".into(),         // missing fields
            good.replace("\"n\":12", "\"n\":\"twelve\""), // wrong type
            good.replace("\"n\":12", "\"n\":-3"), // negative count
        ];
        for case in cases {
            let err = parse_scenario_line(&case).unwrap_err();
            assert!(
                matches!(err, SimError::BadScenario(_)),
                "`{case}` gave {err}"
            );
        }
    }

    #[test]
    fn hostile_parameters_are_rejected_before_allocation() {
        let sc = Scenario::paper_2d(12, 3, 1.0, Norm::L2, WeightScheme::Same, 4);
        let good = serde_json::to_string(&sc).unwrap();
        for (from, to) in [
            ("\"n\":12", format!("\"n\":{}", MAX_STREAM_N + 1).as_str()),
            ("\"n\":12", "\"n\":0"),
            ("\"k\":3", "\"k\":0"),
            ("\"r\":1.0", "\"r\":0.0"),
            ("\"r\":1.0", "\"r\":-2.5"),
        ] {
            let case = good.replace(from, to);
            assert_ne!(case, good, "replacement `{from}` must apply");
            let err = parse_scenario_line(&case).unwrap_err();
            assert!(matches!(err, SimError::BadScenario(_)), "{case}: {err}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let bomb = "[".repeat(100_000);
        let err = parse_scenario_line(&bomb).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Depth inside strings does not count.
        let sc = Scenario::paper_2d(5, 1, 1.0, Norm::L2, WeightScheme::Same, 0);
        let mut deep_label = sc.clone();
        deep_label.label = "[".repeat(200);
        let line = serde_json::to_string(&deep_label).unwrap();
        assert_eq!(parse_scenario_line(&line).unwrap(), deep_label);
    }

    #[test]
    fn scenario_files_are_validated_too() {
        let dir = std::env::temp_dir().join(format!("mmph-badfile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"label\": \"trunc").unwrap();
        let err = instances_from_arg(bad.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, SimError::BadScenario(_)), "{err}");
        let sc = Scenario::paper_2d(5, 1, 1.0, Norm::L2, WeightScheme::Same, 0);
        let hostile = serde_json::to_string(&sc)
            .unwrap()
            .replace("\"k\":1", "\"k\":0");
        std::fs::write(&bad, hostile).unwrap();
        let err = instances_from_arg(bad.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("k must be"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

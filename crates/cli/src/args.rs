//! Tiny flag parser shared by all subcommands.
//!
//! Supports `--flag value` and boolean `--flag` forms, collects
//! unknown-flag errors with the offending name, and type-checks values
//! on extraction. No positional arguments are used by this CLI.

use std::collections::BTreeMap;

use crate::{CliError, Result};

/// Parsed `--key [value]` pairs.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    bools: Vec<String>,
}

/// Parses `argv` given the sets of value-taking and boolean flag names
/// (without the `--` prefix).
pub fn parse(argv: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Flags> {
    let mut flags = Flags::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(CliError::Usage(format!(
                "unexpected positional argument `{arg}`"
            )));
        };
        if bool_flags.contains(&name) {
            flags.bools.push(name.to_owned());
        } else if value_flags.contains(&name) {
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("flag --{name} requires a value")))?;
            flags.values.insert(name.to_owned(), value.clone());
        } else {
            return Err(CliError::Usage(format!("unknown flag --{name}")));
        }
    }
    Ok(flags)
}

impl Flags {
    /// True iff the boolean flag was passed.
    pub fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    /// Raw string value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Typed value, `None` when the flag was not passed.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>> {
        self.get(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| CliError::Usage(format!("invalid value `{raw}` for --{name}")))
            })
            .transpose()
    }

    /// Typed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }

    /// Required typed value.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T> {
        self.get_opt(name)?
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }
}

/// Parses a norm name ("l1", "l2", "linf", or a number like "3").
pub fn parse_norm(raw: &str) -> Result<mmph_geom::Norm> {
    match raw.to_ascii_lowercase().as_str() {
        "l1" | "1" => Ok(mmph_geom::Norm::L1),
        "l2" | "2" => Ok(mmph_geom::Norm::L2),
        "linf" | "inf" => Ok(mmph_geom::Norm::LInf),
        other => other
            .parse::<f64>()
            .ok()
            .and_then(|p| mmph_geom::Norm::lp(p).ok())
            .ok_or_else(|| CliError::Usage(format!("unknown norm `{raw}`"))),
    }
}

/// Parses an oracle strategy name ("seq", "par", "lazy").
pub fn parse_oracle(raw: &str) -> Result<mmph_core::OracleStrategy> {
    raw.parse().map_err(CliError::Usage)
}

/// Parses a reward-engine name ("auto", "scan", "sparse", "grid").
pub fn parse_engine(raw: &str) -> Result<mmph_core::EngineKind> {
    raw.parse().map_err(CliError::Usage)
}

/// Builds a [`SolveBudget`](mmph_core::SolveBudget) from the optional
/// `--deadline-ms` and `--max-evals` flags. Absent flags leave the
/// budget unlimited.
pub fn parse_budget(flags: &Flags) -> Result<mmph_core::SolveBudget> {
    let mut budget = mmph_core::SolveBudget::unlimited();
    if let Some(raw) = flags.get("deadline-ms") {
        let ms: u64 = raw
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid value `{raw}` for --deadline-ms")))?;
        budget = budget.with_deadline_ms(ms);
    }
    if let Some(raw) = flags.get("max-evals") {
        let evals: u64 = raw
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid value `{raw}` for --max-evals")))?;
        budget = budget.with_max_evals(evals);
    }
    Ok(budget)
}

/// Installs the global rayon pool when `--threads N` was passed.
///
/// Idempotent by construction of the vendored pool (re-initialisation
/// overwrites the worker count), so subcommands can call this freely.
pub fn install_thread_pool(flags: &Flags) -> Result<()> {
    if let Some(raw) = flags.get("threads") {
        let threads: usize = raw
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid value `{raw}` for --threads")))?;
        if threads == 0 {
            return Err(CliError::Usage("--threads must be >= 1".into()));
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .map_err(|e| CliError::Usage(format!("failed to set --threads: {e}")))?;
    }
    Ok(())
}

/// Parses a weight-scheme name ("same", "diff", "zipf").
pub fn parse_weights(raw: &str) -> Result<mmph_sim::gen::WeightScheme> {
    use mmph_sim::gen::WeightScheme;
    match raw.to_ascii_lowercase().as_str() {
        "same" => Ok(WeightScheme::Same),
        "diff" | "different" => Ok(WeightScheme::PAPER_WEIGHTED),
        "zipf" => Ok(WeightScheme::Zipf { n_ranks: 8, s: 1.1 }),
        other => Err(CliError::Usage(format!("unknown weight scheme `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_and_bools() {
        let f = parse(
            &argv(&["--n", "40", "--all", "--r", "1.5"]),
            &["n", "r"],
            &["all"],
        )
        .unwrap();
        assert_eq!(f.get_or("n", 0usize).unwrap(), 40);
        assert_eq!(f.get_or("r", 0.0f64).unwrap(), 1.5);
        assert!(f.has("all"));
        assert!(!f.has("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let f = parse(&argv(&[]), &["n"], &[]).unwrap();
        assert_eq!(f.get_or("n", 7usize).unwrap(), 7);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&argv(&["--bogus", "1"]), &["n"], &[]).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&argv(&["--n"]), &["n"], &[]).is_err());
    }

    #[test]
    fn positional_rejected() {
        assert!(parse(&argv(&["oops"]), &[], &[]).is_err());
    }

    #[test]
    fn bad_typed_value_rejected() {
        let f = parse(&argv(&["--n", "forty"]), &["n"], &[]).unwrap();
        assert!(f.get_or("n", 0usize).is_err());
        assert!(f.require::<usize>("n").is_err());
    }

    #[test]
    fn require_missing_flag() {
        let f = parse(&argv(&[]), &["n"], &[]).unwrap();
        assert!(f.require::<usize>("n").is_err());
    }

    #[test]
    fn norm_parsing() {
        assert_eq!(parse_norm("l1").unwrap(), mmph_geom::Norm::L1);
        assert_eq!(parse_norm("L2").unwrap(), mmph_geom::Norm::L2);
        assert_eq!(parse_norm("inf").unwrap(), mmph_geom::Norm::LInf);
        assert_eq!(parse_norm("3").unwrap(), mmph_geom::Norm::Lp(3.0));
        assert!(parse_norm("manhattan-ish").is_err());
        assert!(parse_norm("0.5").is_err());
    }

    #[test]
    fn oracle_parsing() {
        use mmph_core::OracleStrategy;
        assert_eq!(parse_oracle("seq").unwrap(), OracleStrategy::Seq);
        assert_eq!(parse_oracle("par").unwrap(), OracleStrategy::Par);
        assert_eq!(parse_oracle("lazy").unwrap(), OracleStrategy::Lazy);
        assert!(parse_oracle("eager").is_err());
    }

    #[test]
    fn engine_parsing() {
        use mmph_core::EngineKind;
        assert_eq!(parse_engine("auto").unwrap(), EngineKind::Auto);
        assert_eq!(parse_engine("scan").unwrap(), EngineKind::Scan);
        assert_eq!(parse_engine("sparse").unwrap(), EngineKind::Sparse);
        assert_eq!(parse_engine("grid").unwrap(), EngineKind::Grid);
        assert!(parse_engine("dense").is_err());
        for gone in ["kd", "sparse-f32"] {
            let err = parse_engine(gone).unwrap_err().to_string();
            assert!(err.contains("auto|scan|sparse|grid"), "{err}");
        }
        assert!(parse_engine("f32").is_err());
    }

    #[test]
    fn thread_pool_flag_validation() {
        let ok = parse(&argv(&["--threads", "2"]), &["threads"], &[]).unwrap();
        assert!(install_thread_pool(&ok).is_ok());
        let zero = parse(&argv(&["--threads", "0"]), &["threads"], &[]).unwrap();
        assert!(install_thread_pool(&zero).is_err());
        let junk = parse(&argv(&["--threads", "many"]), &["threads"], &[]).unwrap();
        assert!(install_thread_pool(&junk).is_err());
        let absent = parse(&argv(&[]), &["threads"], &[]).unwrap();
        assert!(install_thread_pool(&absent).is_ok());
    }

    #[test]
    fn budget_parsing() {
        let absent = parse(&argv(&[]), &["deadline-ms", "max-evals"], &[]).unwrap();
        assert!(parse_budget(&absent).unwrap().is_unlimited());
        let both = parse(
            &argv(&["--deadline-ms", "250", "--max-evals", "1000"]),
            &["deadline-ms", "max-evals"],
            &[],
        )
        .unwrap();
        assert!(!parse_budget(&both).unwrap().is_unlimited());
        let junk = parse(&argv(&["--max-evals", "lots"]), &["max-evals"], &[]).unwrap();
        assert!(matches!(parse_budget(&junk), Err(CliError::Usage(_))));
        let junk = parse(&argv(&["--deadline-ms", "-4"]), &["deadline-ms"], &[]).unwrap();
        assert!(matches!(parse_budget(&junk), Err(CliError::Usage(_))));
    }

    #[test]
    fn weights_parsing() {
        use mmph_sim::gen::WeightScheme;
        assert_eq!(parse_weights("same").unwrap(), WeightScheme::Same);
        assert_eq!(parse_weights("diff").unwrap(), WeightScheme::PAPER_WEIGHTED);
        assert!(matches!(
            parse_weights("zipf").unwrap(),
            WeightScheme::Zipf { .. }
        ));
        assert!(parse_weights("heavy").is_err());
    }
}

//! The four workloads. Each generates its inputs from the run's seed,
//! drives the daemon end to end (untraced run) or replays the same
//! inputs in-process through each layer's public functions (traced
//! run), checks every answer, and fills a [`Measured`].

use std::path::PathBuf;
use std::time::Duration;

use mmph_core::{streaming_objective, Instance};
use mmph_geom::{Norm, Point};
use mmph_serve::Response;
use mmph_sim::rng::SeedSeq;
use mmph_sim::{radius_for_degree_2d, Scenario, SpaceSpec, WeightScheme};

use crate::record::Measured;
use crate::reference;
use crate::trace::Tracer;

pub mod churn;
pub mod coreset;
pub mod serve_mix;
pub mod solve;

/// Everything a workload needs to run.
pub struct Ctx {
    /// The `mmph` binary to spawn as the daemon.
    pub mmph: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// How long the measurement lasts.
    pub seconds: f64,
    /// When set, the run replays its inputs in-process with spans.
    pub tracer: Option<Tracer>,
}

impl Ctx {
    /// Sub-seed `index` of the named input stream.
    pub fn derive(&self, stream: &str, index: u64) -> u64 {
        SeedSeq::new(self.seed).stream(stream).child(index).seed()
    }
}

/// Runs the named workload.
pub fn run(name: &str, ctx: &mut Ctx) -> Result<Measured, String> {
    match name {
        "serve-mix" => serve_mix::run(ctx),
        "solve-1e6" => solve::run(ctx),
        "churn-1e6" => churn::run(ctx),
        "coreset-1e7" => coreset::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Expected within-radius neighbor count of the large instances, held
/// constant across n so the CSR footprint scales linearly.
pub const DEGREE: f64 = 48.0;

/// Uniform paper-space scenario with the radius that pins the expected
/// degree to [`DEGREE`], as a scenario document the daemon regenerates.
pub fn degree_scenario(n: usize, k: usize, seed: u64) -> Scenario {
    let r = radius_for_degree_2d(n, DEGREE, SpaceSpec::PAPER).expect("n >= 1, degree > 0");
    Scenario::paper_2d(n, k, r, Norm::L2, WeightScheme::PAPER_WEIGHTED, seed)
}

/// Relative tolerance between a served reward (telescoped round gains)
/// and the harness's streaming objective of the same centers.
pub const REWARD_TOL: f64 = 1e-9;

/// Checks a served reward against the harness's own full-resolution
/// objective of the same centers: within `rel_tol` relative, or
/// bit-equal when `rel_tol` is zero.
pub fn check_reward(
    what: &str,
    served: f64,
    inst: &Instance<2>,
    centers: &[Point<2>],
    rel_tol: f64,
) -> Result<(), String> {
    let expected = streaming_objective(inst, centers);
    let ok = if rel_tol == 0.0 {
        served.to_bits() == expected.to_bits()
    } else {
        (served - expected).abs() <= rel_tol * expected.abs()
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{what}: reward {served} but the objective of its centers is {expected}"
        ))
    }
}

/// How far an exact greedy answer may fall short of the reference
/// greedy: rounding only, since both pick the same centers.
pub const EXACT_TOL: f64 = 1e-6;

/// Least quality an approximate answer (a warm resolve, a coreset
/// solve) must reach: 95% of the reference greedy's reward.
pub const APPROX_FLOOR: f64 = 0.95;

/// Quality of a served reward: its ratio to the reward of the harness's
/// own exact greedy on the same instance. Fails below `floor`.
pub fn quality(what: &str, served: f64, inst: &Instance<2>, floor: f64) -> Result<f64, String> {
    let best = reference::greedy(inst).reward;
    let q = served / best;
    if q >= floor {
        Ok(q)
    } else {
        Err(format!(
            "{what}: reward {served} is {q:.6} of the reference greedy's {best}, below {floor}"
        ))
    }
}

/// The points a response's selection names in `inst`.
pub fn selected_points(
    what: &str,
    resp: &Response,
    inst: &Instance<2>,
) -> Result<Vec<Point<2>>, String> {
    let sel = resp
        .selection
        .as_ref()
        .ok_or_else(|| format!("{what}: response has no selection"))?;
    sel.iter()
        .map(|&i| {
            inst.points().get(i).copied().ok_or_else(|| {
                format!(
                    "{what}: selection index {i} out of range (n = {})",
                    inst.n()
                )
            })
        })
        .collect()
}

/// Requires a `completed` answer of the given op.
pub fn expect_completed(what: &str, resp: &Response, op: &str) -> Result<(), String> {
    if resp.op != op || resp.status.as_deref() != Some("completed") {
        return Err(format!(
            "{what}: expected completed `{op}`, got `{}` ({:?}, {:?})",
            resp.op,
            resp.status,
            resp.error.as_deref().or(resp.degrade_reason.as_deref())
        ));
    }
    Ok(())
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

//! `solve-1e6`: cold n=10⁶ sparse solves, closed loop over stdio, one
//! request in flight. The CSR build dominates each solve and the CSR
//! is several times the last-level cache, so this is the memory-bound
//! build-and-kernel path.

use mmph_core::{solve_rounds, EngineKind, GainOracle, OracleStrategy, RewardEngine, SolveScratch};
use mmph_serve::{Request, Response};
use mmph_sim::Scenario;

use crate::daemon::{set_up, Transport, CHEAP_SETUPS};
use crate::record::Measured;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{
    check_reward, degree_scenario, expect_completed, ms, quality, selected_points, Ctx, EXACT_TOL,
    REWARD_TOL,
};

const N: usize = 1_000_000;
const K: usize = 16;
/// Seconds of measurement one solve stands for: a run makes
/// `seconds / SECONDS_PER_SOLVE` solves (at least one), so the parent
/// and the change of a comparison do the same work.
const SECONDS_PER_SOLVE: f64 = 3.3;
/// Bytes one kernel term touches: u32 neighbor + f64 frac + f64 weight
/// + the gathered f64 residual.
const BYTES_PER_TERM: f64 = 28.0;

/// One solve as sent and answered.
struct Solved {
    line: String,
    wire_ms: f64,
    reward: f64,
}

fn input(ctx: &Ctx, i: u64) -> (Scenario, String) {
    let sc = degree_scenario(N, K, ctx.derive("solve", i));
    let mut req = Request::solve(i, sc.clone());
    req.engine = Some("sparse".into());
    (sc, req.to_line())
}

/// Checks one answer and returns its quality. The greedy is exact, so
/// the served reward must match the reference greedy's.
fn check(i: u64, sc: &Scenario, resp: &Response) -> Result<f64, String> {
    let what = format!("solve {i}");
    expect_completed(&what, resp, "solve_ok")?;
    let inst = sc.generate_2d().map_err(|e| e.to_string())?;
    let centers = selected_points(&what, resp, &inst)?;
    if centers.len() != K {
        return Err(format!("{what}: {} centers, expected {K}", centers.len()));
    }
    let served = resp.reward.unwrap_or(f64::NAN);
    check_reward(&what, served, &inst, &centers, REWARD_TOL)?;
    quality(&what, served, &inst, 1.0 - EXACT_TOL)
}

/// Runs the workload; see the module docs. A traced run replays each
/// solve in-process right after the daemon answers it, so host drift
/// between the two measurements stays small.
pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let traced = ctx.tracer.is_some();
    let setups = if traced { 1 } else { CHEAP_SETUPS };
    let (mut daemon, setup_s, ()) = set_up(&ctx.mmph, Transport::Stdio, setups, |_| Ok(()))?;
    let count = ((ctx.seconds / SECONDS_PER_SOLVE).round() as u64).max(1);

    let mut solved = Vec::new();
    let mut qualities = Vec::new();
    let mut replay = Replay::default();
    for i in 0..count {
        let (sc, line) = input(ctx, i);
        let (resp, wall) = daemon.call_line(&line)?;
        qualities.extend(m.attempt_value(check(i, &sc, &resp)));
        let s = Solved {
            line,
            wire_ms: ms(wall),
            reward: resp.reward.unwrap_or(f64::NAN),
        };
        if let Some(tr) = ctx.tracer.as_mut() {
            replay.add(tr, i, &s, &mut m)?;
        }
        solved.push(s);
    }
    let rss = daemon.peak_rss_mib()?;
    daemon.shutdown()?;

    let wire_ms: Vec<f64> = solved.iter().map(|s| s.wire_ms).collect();
    m.median("setup_s", &setup_s);
    m.median("op_p50_ms", &wire_ms);
    m.set(
        "objective",
        stats::mean(&qualities),
        qualities.len(),
        "mean reward / reference greedy",
    );
    m.set("peak_rss_mb", rss, 1, "VmHWM");
    if let Some(tr) = &ctx.tracer {
        replay.report(tr, &mut m);
    }
    Ok(m)
}

/// Per-request observations of the in-process replay.
#[derive(Default)]
struct Replay {
    entries: Vec<f64>,
    bytes: Vec<f64>,
    padded_per_row: Vec<f64>,
    evals: Vec<f64>,
    dirty: Vec<f64>,
    unattributed: Vec<f64>,
    est_bytes: Option<usize>,
}

impl Replay {
    /// Replays one request through each layer's public functions, with
    /// the daemon's default engine (sparse) and strategy (lazy), one
    /// span per layer call.
    fn add(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        s: &Solved,
        m: &mut Measured,
    ) -> Result<(), String> {
        let (inst, csr, reward, evals, skips) =
            tr.span("request", rid, |t| -> Result<_, String> {
                let req = t
                    .span("envelope.parse", rid, |_| Request::parse(&s.line))
                    .map_err(|e| e.to_string())?;
                let sc = req.scenario.ok_or("replayed request lost its scenario")?;
                let inst = t
                    .span("sim.scenario", rid, |_| sc.generate_2d())
                    .map_err(|e| e.to_string())?;
                let engine = t.span("reward.build", rid, |_| {
                    RewardEngine::with_kind(&inst, EngineKind::Sparse)
                });
                let csr = engine.sparse_stats().ok_or("sparse engine has no CSR")?;
                let (reward, picks, evals, skips) = t.span("oracle.solve", rid, |_| {
                    let oracle = GainOracle::from_engine(engine, OracleStrategy::Lazy);
                    let mut scratch = SolveScratch::new();
                    let reward = solve_rounds(&oracle, &mut scratch);
                    (
                        reward,
                        scratch.picks().to_vec(),
                        oracle.evals(),
                        oracle.dirty_skips(),
                    )
                });
                t.span("envelope.encode", rid, |_| {
                    let mut resp = Response::new(Some(rid), "solve_ok");
                    resp.status = Some("completed".into());
                    resp.reward = Some(reward);
                    resp.selection = Some(picks);
                    resp.evals = Some(evals);
                    resp.to_line()
                });
                Ok((inst, csr, reward, evals, skips))
            })?;
        m.attempt(if reward.to_bits() == s.reward.to_bits() {
            Ok(())
        } else {
            Err(format!(
                "replay {rid}: reward {reward} differs from the daemon's {}",
                s.reward
            ))
        });
        if self.est_bytes.is_none() {
            // Outside the spans: the daemon does not estimate for an
            // explicit sparse engine. This checks the cap estimate
            // against the CSR actually built.
            self.est_bytes = RewardEngine::estimated_sparse_bytes(&inst, EngineKind::Sparse);
        }
        self.entries.push(csr.entries as f64);
        self.bytes.push(csr.bytes as f64);
        self.padded_per_row
            .push(csr.padded_entries as f64 / inst.n() as f64);
        self.evals.push(evals as f64);
        self.dirty.push(skips as f64);
        self.unattributed
            .push(1.0 - tr.layer_ms(rid, "request") / s.wire_ms);
        Ok(())
    }

    fn report(self, tr: &Tracer, m: &mut Measured) {
        let solve_ms = tr.self_ms_of("oracle.solve");
        m.median("unattributed_frac", &self.unattributed);
        m.median("sim.gen_ms", &tr.self_ms_of("sim.scenario"));
        m.median("reward.build_ms", &tr.self_ms_of("reward.build"));
        m.median("reward.entries", &self.entries);
        m.median("reward.csr_bytes", &self.bytes);
        if let Some(est) = self.est_bytes {
            m.set("reward.est_bytes", est as f64, 1, "estimated_sparse_bytes");
        }
        m.median("oracle.solve_ms", &solve_ms);
        m.median("oracle.evals", &self.evals);
        m.median("oracle.dirty_skips", &self.dirty);
        let picks_per_eval: Vec<f64> = self.evals.iter().map(|e| K as f64 / e).collect();
        m.median("oracle.picks_per_eval", &picks_per_eval);
        let rate: Vec<f64> = self
            .evals
            .iter()
            .zip(&solve_ms)
            .map(|(e, ms)| e / (ms / 1e3))
            .collect();
        m.median("kernel.evals_per_s", &rate);
        let per_eval: Vec<f64> = self
            .padded_per_row
            .iter()
            .map(|p| p * BYTES_PER_TERM)
            .collect();
        m.set(
            "kernel.bytes_per_eval",
            stats::median(&per_eval),
            per_eval.len(),
            "computed",
        );
        m.median_us("envelope.parse_us.solve", &tr.self_ms_of("envelope.parse"));
        m.median_us(
            "envelope.encode_us.solve",
            &tr.self_ms_of("envelope.encode"),
        );
    }
}

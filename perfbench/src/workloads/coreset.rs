//! `coreset-1e7`: one n=10⁷ `auto`-engine solve over stdio. Its CSR
//! estimate busts the daemon's sparse cap, so the daemon escalates to
//! the coreset pipeline: grid bucketing, a reduced solve, and a
//! streaming full-resolution pass that prices the returned centers.

use mmph_core::{
    build_coreset, solve_rounds, streaming_objective, EngineKind, GainOracle, OracleStrategy,
    RewardEngine, SolveScratch, DEFAULT_CORESET_CELLS, DEFAULT_SPARSE_CAP_BYTES,
};
use mmph_geom::Point;
use mmph_serve::{Request, Response};
use mmph_sim::Scenario;

use crate::daemon::{set_up, Transport, CHEAP_SETUPS};
use crate::record::Measured;
use crate::stats;
use crate::workloads::{
    check_reward, degree_scenario, expect_completed, ms, quality, Ctx, APPROX_FLOOR,
};

const N: usize = 10_000_000;
const K: usize = 16;
/// Seconds of measurement one solve stands for (see `solve.rs`).
const SECONDS_PER_SOLVE: f64 = 20.0;
/// Largest realized coreset gap a correct answer may carry.
const MAX_GAP: f64 = 0.05;

struct Solved {
    line: String,
    wire_ms: f64,
    reward: f64,
}

/// What one in-process replay of a coreset solve observed.
struct Replayed {
    est_bytes: f64,
    reduction: f64,
    error_bound: f64,
    coreset_obj: f64,
    full_obj: f64,
    sparse: bool,
    evals: f64,
}

fn input(ctx: &Ctx, i: u64) -> (Scenario, String) {
    let sc = degree_scenario(N, K, ctx.derive("coreset", i));
    let mut req = Request::solve(i, sc.clone());
    req.engine = Some("auto".into());
    (sc, req.to_line())
}

fn centers_of(resp: &Response) -> Vec<Point<2>> {
    resp.centers
        .iter()
        .flatten()
        .map(|c| Point::new(*c))
        .collect()
}

/// The harness recomputes the objective of the returned centers on its
/// own copy of the 10⁷ points; it must equal the served reward bit for
/// bit, since both come from the same chunk-ordered streaming pass.
/// Returns the answer's quality against the reference greedy on the
/// full instance, which must reach [`APPROX_FLOOR`].
fn check(i: u64, sc: &Scenario, resp: &Response) -> Result<f64, String> {
    let what = format!("coreset solve {i}");
    expect_completed(&what, resp, "solve_ok")?;
    if resp.pipeline.as_deref() != Some("coreset") {
        return Err(format!(
            "{what}: answered by pipeline {:?}, not the coreset",
            resp.pipeline
        ));
    }
    let gap = resp.gap.unwrap_or(f64::INFINITY);
    if gap > MAX_GAP {
        return Err(format!("{what}: realized gap {gap} exceeds {MAX_GAP}"));
    }
    let centers = centers_of(resp);
    if centers.len() != K {
        return Err(format!("{what}: {} centers, expected {K}", centers.len()));
    }
    let inst = sc.generate_2d().map_err(|e| e.to_string())?;
    let served = resp.reward.unwrap_or(f64::NAN);
    check_reward(&what, served, &inst, &centers, 0.0)?;
    quality(&what, served, &inst, APPROX_FLOOR)
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let traced = ctx.tracer.is_some();
    let setups = if traced { 1 } else { CHEAP_SETUPS };
    let (mut daemon, setup_s, ()) = set_up(&ctx.mmph, Transport::Stdio, setups, |_| Ok(()))?;
    let count = ((ctx.seconds / SECONDS_PER_SOLVE).round() as u64).max(1);

    let mut solved = Vec::new();
    let mut qualities = Vec::new();
    for i in 0..count {
        let (sc, line) = input(ctx, i);
        let (resp, wall) = daemon.call_line(&line)?;
        qualities.extend(m.attempt_value(check(i, &sc, &resp)));
        solved.push(Solved {
            line,
            wire_ms: ms(wall),
            reward: resp.reward.unwrap_or(f64::NAN),
        });
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

    if traced {
        replay(ctx, &solved, &mut m)?;
    }
    Ok(m)
}

/// In-process replay of the daemon's coreset path: the cap estimate
/// that escalates the request, grid bucketing, the reduced solve on
/// whatever engine the cap allows, and the full-resolution pass.
fn replay(ctx: &mut Ctx, solved: &[Solved], m: &mut Measured) -> Result<(), String> {
    let tr = ctx.tracer.as_mut().expect("traced run");
    let mut rows = Vec::new();
    let mut unattributed = Vec::new();
    for (i, s) in solved.iter().enumerate() {
        let rid = i as u64;
        let row = tr.span("request", rid, |t| -> Result<_, String> {
            let req = t
                .span("envelope.parse", rid, |_| Request::parse(&s.line))
                .map_err(|e| e.to_string())?;
            let sc = req.scenario.ok_or("replayed request lost its scenario")?;
            let inst = t
                .span("sim.scenario", rid, |_| sc.generate_2d())
                .map_err(|e| e.to_string())?;
            let est = t
                .span("reward.estimate", rid, |_| {
                    RewardEngine::estimated_sparse_bytes(&inst, EngineKind::Sparse)
                })
                .unwrap_or(0);
            let cs = t
                .span("coreset.build", rid, |_| {
                    build_coreset(&inst, DEFAULT_CORESET_CELLS)
                })
                .map_err(|e| e.to_string())?;
            let (cs_obj, centers, kind, evals) = t.span("coreset.solve", rid, |t| {
                let engine = t.span("reward.build", rid, |_| {
                    RewardEngine::auto_with_cap_kind(
                        &cs.instance,
                        DEFAULT_SPARSE_CAP_BYTES,
                        EngineKind::Sparse,
                    )
                });
                let kind = engine.kind();
                t.span("oracle.solve", rid, |_| {
                    let oracle = GainOracle::from_engine(engine, OracleStrategy::Lazy);
                    let mut scratch = SolveScratch::new();
                    let obj = solve_rounds(&oracle, &mut scratch);
                    let centers: Vec<Point<2>> = scratch
                        .picks()
                        .iter()
                        .map(|&p| *cs.instance.point(p))
                        .collect();
                    (obj, centers, kind, oracle.evals())
                })
            });
            let full = t.span("coreset.full_pass", rid, |_| {
                streaming_objective(&inst, &centers)
            });
            t.span("envelope.encode", rid, |_| {
                let mut resp = Response::new(Some(rid), "solve_ok");
                resp.reward = Some(full);
                resp.centers = Some(centers.iter().map(|p| p.0).collect());
                resp.to_line()
            });
            Ok(Replayed {
                est_bytes: est as f64,
                reduction: inst.n() as f64 / cs.instance.n() as f64,
                error_bound: cs.error_bound,
                coreset_obj: cs_obj,
                full_obj: full,
                sparse: kind == EngineKind::Sparse,
                evals: evals as f64,
            })
        })?;
        m.attempt(if row.full_obj.to_bits() == s.reward.to_bits() {
            Ok(())
        } else {
            Err(format!(
                "replay {rid}: objective {} differs from the daemon's {}",
                row.full_obj, s.reward
            ))
        });
        unattributed.push(1.0 - tr.layer_ms(rid, "request") / s.wire_ms);
        rows.push(row);
    }

    let col = |f: fn(&Replayed) -> f64| rows.iter().map(f).collect::<Vec<f64>>();
    m.median("unattributed_frac", &unattributed);
    m.median("sim.gen_ms", &tr.self_ms_of("sim.scenario"));
    m.median("reward.est_bytes", &col(|r| r.est_bytes));
    m.median("reward.build_ms", &tr.self_ms_of("reward.build"));
    m.median("oracle.solve_ms", &tr.self_ms_of("oracle.solve"));
    m.median("oracle.evals", &col(|r| r.evals));
    m.median("oracle.picks_per_eval", &col(|r| K as f64 / r.evals));
    m.median("coreset.build_ms", &tr.self_ms_of("coreset.build"));
    m.median("coreset.reduction", &col(|r| r.reduction));
    m.median("coreset.solve_ms", &tr.total_ms_of("coreset.solve"));
    m.median(
        "coreset.sparse_engine",
        &col(|r| f64::from(u8::from(r.sparse))),
    );
    m.median("coreset.evals", &col(|r| r.evals));
    m.median("coreset.full_pass_ms", &tr.self_ms_of("coreset.full_pass"));
    m.median(
        "coreset.gap",
        &col(|r| (r.coreset_obj - r.full_obj).abs() / r.coreset_obj),
    );
    m.median("coreset.bound_ratio", &col(|r| r.error_bound / r.full_obj));
    m.median_us("envelope.parse_us.solve", &tr.self_ms_of("envelope.parse"));
    m.median_us(
        "envelope.encode_us.solve",
        &tr.self_ms_of("envelope.encode"),
    );
    Ok(())
}

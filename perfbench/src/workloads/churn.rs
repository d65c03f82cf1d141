//! `churn-1e6`: rounds of seeded 0.5% churn against the daemon's
//! tracked n=10⁶ instance over stdio, each a `mutate {deltas}` then a
//! warm `resolve`. Set-up loads the instance (`mutate {scenario}`) and
//! seeds it with a first, cold `resolve`.

use std::time::Instant;

use mmph_core::{Delta, EngineKind, IncrementalInstance, Instance, ResolveConfig, SolveScratch};
use mmph_serve::{Request, Response};
use mmph_sim::{ChurnPlan, Scenario};

use crate::daemon::{set_up, Daemon, Transport, SETUPS};
use crate::record::Measured;
use crate::stats;
use crate::workloads::{
    check_reward, degree_scenario, expect_completed, ms, quality, selected_points, Ctx,
    APPROX_FLOOR, EXACT_TOL, REWARD_TOL,
};

const N: usize = 1_000_000;
const K: usize = 16;
/// Share of the population churned per round (about 5,000 deltas).
const FRACTION: f64 = 0.005;
/// Rounds per second of measurement: a run makes `seconds ·
/// ROUNDS_PER_SECOND` rounds, so both sides of a comparison do the
/// same work. At 20 s that is 60 rounds, which holds exactly one
/// compaction rebuild (one comes every 35-40 rounds at this churn).
const ROUNDS_PER_SECOND: f64 = 3.0;
/// Every this many rounds the answer is also priced against the
/// reference greedy, about 0.5 s of untimed work at this size.
const QUALITY_EVERY: u64 = 5;

/// One round as sent and answered.
struct Round {
    deltas: Vec<Delta<2>>,
    wire_ms: f64,
    reward: f64,
    selection: Vec<usize>,
}

/// Loads the tracked instance and seeds it; part of the timed set-up.
fn load(d: &mut Daemon, sc: &Scenario) -> Result<Response, String> {
    let init = d
        .call_line(&Request::mutate(0, Some(sc.clone()), None).to_line())?
        .0;
    if init.op != "mutate_ok" {
        return Err(format!(
            "init mutate answered `{}`: {:?}",
            init.op, init.error
        ));
    }
    Ok(d.call_line(&Request::resolve(1).to_line())?.0)
}

fn check_resolve(
    what: &str,
    resp: &Response,
    mirror: &Instance<2>,
    warm: bool,
) -> Result<(), String> {
    expect_completed(what, resp, "resolve_ok")?;
    if resp.warm != Some(warm) {
        return Err(format!(
            "{what}: expected warm = {warm}, got {:?}",
            resp.warm
        ));
    }
    let centers = selected_points(what, resp, mirror)?;
    check_reward(
        what,
        resp.reward.unwrap_or(f64::NAN),
        mirror,
        &centers,
        REWARD_TOL,
    )
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let traced = ctx.tracer.is_some();
    let sc = degree_scenario(N, K, ctx.derive("churn-instance", 0));
    let setups = if traced { 1 } else { SETUPS };
    let (mut daemon, setup_s, seeded) =
        set_up(&ctx.mmph, Transport::Stdio, setups, |d| load(d, &sc))?;
    // The harness's mirror of the tracked instance: deltas are drawn
    // against it and every served reward is re-checked on it.
    let mut mirror = sc.generate_2d().map_err(|e| e.to_string())?;
    // The seeding resolve is a cold greedy solve, so it is exact.
    m.attempt(
        check_resolve("seed resolve", &seeded, &mirror, false).and_then(|()| {
            let served = seeded.reward.unwrap_or(f64::NAN);
            quality("seed resolve", served, &mirror, 1.0 - EXACT_TOL).map(|_| ())
        }),
    );

    let plan = ChurnPlan::new(ctx.derive("churn-plan", 0), usize::MAX, FRACTION);
    let count = ((ctx.seconds * ROUNDS_PER_SECOND).round() as u64).max(1);
    let mut rounds = Vec::new();
    let mut qualities = Vec::new();
    let mut id = 2u64;
    for step in 0..count {
        let deltas = plan.deltas(step, &mirror).map_err(|e| e.to_string())?;
        mirror.apply_churn(&deltas).map_err(|e| e.to_string())?;
        let mutate = Request::mutate(id, None, Some(deltas.clone())).to_line();
        let resolve = Request::resolve(id + 1).to_line();
        id += 2;

        let t0 = Instant::now();
        let patched = daemon.call_line(&mutate)?.0;
        let solved = daemon.call_line(&resolve)?.0;
        let wire_ms = ms(t0.elapsed());

        let what = format!("round {step}");
        let checked = if patched.op == "mutate_ok" {
            check_resolve(&what, &solved, &mirror, true)
        } else {
            Err(format!(
                "{what}: mutate answered `{}`: {:?}",
                patched.op, patched.error
            ))
        };
        let priced = checked.and_then(|()| match step % QUALITY_EVERY {
            0 => quality(
                &what,
                solved.reward.unwrap_or(f64::NAN),
                &mirror,
                APPROX_FLOOR,
            )
            .map(Some),
            _ => Ok(None),
        });
        m.attempt(priced.map(|q| qualities.extend(q)));
        rounds.push(Round {
            deltas,
            wire_ms,
            reward: solved.reward.unwrap_or(f64::NAN),
            selection: solved.selection.unwrap_or_default(),
        });
    }
    let rss = daemon.peak_rss_mib()?;
    daemon.shutdown()?;

    let wire_ms: Vec<f64> = rounds.iter().map(|r| r.wire_ms).collect();
    m.median("setup_s", &setup_s);
    m.median("op_p50_ms", &wire_ms);
    m.set(
        "objective",
        stats::mean(&qualities),
        qualities.len(),
        "mean reward / reference greedy, every 5th round",
    );
    m.set("peak_rss_mb", rss, 1, "VmHWM");

    if traced {
        replay(ctx, &sc, &rounds, &mut m)?;
    }
    Ok(m)
}

/// In-process replay of the same rounds through `IncrementalInstance`,
/// the daemon's tracked-instance layer, with its default resolve
/// configuration.
fn replay(ctx: &mut Ctx, sc: &Scenario, rounds: &[Round], m: &mut Measured) -> Result<(), String> {
    let tr = ctx.tracer.as_mut().expect("traced run");
    let inst = sc.generate_2d().map_err(|e| e.to_string())?;
    let mut inc = tr
        .span("incremental.init", 0, |_| {
            IncrementalInstance::new(inst, EngineKind::Sparse)
        })
        .map_err(|e| e.to_string())?;
    let mut scratch = SolveScratch::new();
    let cfg = ResolveConfig::default();
    tr.span("incremental.resolve", 0, |_| {
        inc.resolve(&mut scratch, &cfg)
    });

    let (mut bytes, mut evals, mut swaps, mut dead, mut rebuild_ms) =
        (vec![], vec![], 0usize, 0usize, vec![]);
    let (mut warm, mut unattributed) = (0usize, vec![]);
    for (step, round) in rounds.iter().enumerate() {
        let rid = step as u64 + 1;
        // Serializing the line is the client's work, outside the spans.
        let line = Request::mutate(rid, None, Some(round.deltas.clone())).to_line();
        bytes.push(line.len() as f64);
        let before = inc.rebuilds();
        let out = tr.span("request", rid, |t| -> Result<_, String> {
            let req = t
                .span("envelope.parse", rid, |_| Request::parse(&line))
                .map_err(|e| e.to_string())?;
            let deltas = req.deltas.ok_or("replayed mutate lost its deltas")?;
            t.span("incremental.patch", rid, |_| inc.apply_churn(&deltas))
                .map_err(|e| e.to_string())?;
            let out = t.span("incremental.resolve", rid, |_| {
                inc.resolve(&mut scratch, &cfg)
            });
            t.span("envelope.encode", rid, |_| {
                let mut resp = Response::new(Some(rid), "resolve_ok");
                resp.reward = Some(out.reward);
                resp.selection = Some(out.selection.clone());
                resp.warm = Some(out.warm);
                resp.to_line()
            });
            Ok(out)
        })?;
        if inc.rebuilds() > before {
            rebuild_ms.extend(tr.self_ms_of("incremental.patch").last());
        }
        m.attempt(
            if out.reward.to_bits() == round.reward.to_bits() && out.selection == round.selection {
                Ok(())
            } else {
                Err(format!(
                    "replay round {step}: reward {} differs from the daemon's {}",
                    out.reward, round.reward
                ))
            },
        );
        evals.push(out.evals as f64);
        swaps += out.swaps;
        warm += usize::from(out.warm);
        dead = dead.max(inc.dead_entries());
        unattributed.push(1.0 - tr.layer_ms(rid, "request") / round.wire_ms);
    }

    let patch = tr.self_ms_of("incremental.patch");
    // The first resolve span is the seeding cold solve; rounds follow.
    let resolve: Vec<f64> = tr
        .self_ms_of("incremental.resolve")
        .into_iter()
        .skip(1)
        .collect();
    let n = rounds.len();
    m.median("unattributed_frac", &unattributed);
    m.median("incremental.init_ms", &tr.self_ms_of("incremental.init"));
    m.percentile("incremental.patch_ms.p50", &patch, 50);
    m.percentile("incremental.patch_ms.p90", &patch, 90);
    m.percentile("incremental.resolve_ms.p50", &resolve, 50);
    m.percentile("incremental.resolve_ms.p90", &resolve, 90);
    m.set("incremental.rebuilds", inc.rebuilds() as f64, n, "count");
    m.median("incremental.rebuild_ms", &rebuild_ms);
    m.set("incremental.dead_entries.max", dead as f64, n, "max");
    m.median("incremental.resolve_evals", &evals);
    m.set("incremental.swaps", swaps as f64, n, "sum");
    m.set("incremental.warm_frac", warm as f64 / n as f64, n, "share");
    m.median_us("envelope.parse_us.mutate", &tr.self_ms_of("envelope.parse"));
    m.median("envelope.bytes.mutate", &bytes);
    Ok(())
}

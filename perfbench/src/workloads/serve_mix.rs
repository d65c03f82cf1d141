//! `serve-mix`: a request mix over one TCP connection to
//! `mmph serve --tcp`, sent open loop at a fixed rate: a writer thread
//! sends on a fixed schedule while the reader collects answers. Every
//! latency is timed from the request's due time, so a stall also
//! charges the requests queued behind it.
//!
//! Per ten requests: six hot solves of one repeated scenario (instance
//! cache and engine reuse), two fresh solves, one eval-budgeted solve
//! that must degrade, and one ping.

use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};

use mmph_core::Instance;
use mmph_geom::Norm;
use mmph_serve::{Incoming, Request, Response, Service, ServiceConfig};
use mmph_sim::{Scenario, WeightScheme};

use crate::daemon::{recv, send_line, set_up, Daemon, Transport, CHEAP_SETUPS};
use crate::record::Measured;
use crate::stats;
use crate::workloads::{
    check_reward, expect_completed, ms, quality, selected_points, Ctx, EXACT_TOL, REWARD_TOL,
};

/// Offered load of the fixed-rate phase, req/s. Low enough that
/// queueing does not amplify the host's timing noise into the median.
const FIXED_RATE: f64 = 200.0;
/// Eval cap that makes the budgeted request always degrade.
const BUDGET_EVALS: u64 = 50;
/// One-request rounds per request kind in the traced replay.
const REPLAY_ROUNDS: usize = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot,
    Fresh,
    Budgeted,
    Ping,
}

impl Kind {
    fn of(i: u64) -> Kind {
        match i % 10 {
            9 => Kind::Ping,
            8 => Kind::Budgeted,
            6 | 7 => Kind::Fresh,
            _ => Kind::Hot,
        }
    }
}

/// The run's request mix, generated from its seed.
struct Mix {
    hot: Scenario,
    budgeted: Scenario,
    fresh_seed: u64,
}

impl Mix {
    fn new(ctx: &Ctx) -> Mix {
        let paper = |n, k, r, seed| {
            Scenario::paper_2d(n, k, r, Norm::L2, WeightScheme::PAPER_WEIGHTED, seed)
        };
        Mix {
            hot: paper(300, 6, 1.0, ctx.derive("serve-hot", 0)),
            budgeted: paper(1500, 12, 0.8, ctx.derive("serve-budgeted", 0)),
            fresh_seed: ctx.derive("serve-fresh", 0),
        }
    }

    /// The scenario request `i` solves; `None` for a ping.
    fn scenario(&self, i: u64) -> Option<Scenario> {
        match Kind::of(i) {
            Kind::Ping => None,
            Kind::Hot => Some(self.hot.clone()),
            Kind::Budgeted => Some(self.budgeted.clone()),
            Kind::Fresh => Some(Scenario::paper_2d(
                200 + 40 * ((i / 10 + i % 2 * 2) % 5) as usize,
                4,
                1.0,
                Norm::L2,
                WeightScheme::PAPER_WEIGHTED,
                self.fresh_seed.wrapping_add(i),
            )),
        }
    }

    /// Request `i` of the mix, sent with id `id`.
    fn request(&self, i: u64, id: u64) -> Request {
        match self.scenario(i) {
            None => Request::control(id, "ping"),
            Some(sc) => {
                let mut req = Request::solve(id, sc);
                if Kind::of(i) == Kind::Budgeted {
                    req.max_evals = Some(BUDGET_EVALS);
                }
                req
            }
        }
    }
}

/// One request as sent.
struct Sent {
    id: u64,
    kind: Kind,
    /// When the schedule wanted it sent.
    due: Instant,
    at: Instant,
}

/// What the fixed-rate phase observed.
struct Phase {
    label: String,
    sent: Vec<Sent>,
    answers: HashMap<u64, (Instant, Response)>,
    uncorrelated: usize,
}

impl Phase {
    fn new(label: String, capacity: usize) -> Phase {
        Phase {
            label,
            sent: Vec::with_capacity(capacity),
            answers: HashMap::with_capacity(capacity),
            uncorrelated: 0,
        }
    }

    fn absorb(&mut self, resp: Response) {
        let at = Instant::now();
        match resp.in_reply_to {
            Some(id) if !self.answers.contains_key(&id) => {
                self.answers.insert(id, (at, resp));
            }
            _ => self.uncorrelated += 1,
        }
    }

    /// Latency of every answered request, ms, from its due time.
    fn latencies_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .filter_map(|s| {
                let (at, _) = self.answers.get(&s.id)?;
                Some(ms(at.saturating_duration_since(s.due)))
            })
            .collect()
    }

    fn shed(&self) -> usize {
        self.answers
            .values()
            .filter(|(_, r)| r.op == "overloaded")
            .count()
    }

    /// Requests shed, lost or answered with an error, and answers
    /// nobody was waiting for.
    fn errors(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.sent {
            match self.answers.get(&s.id) {
                None => out.push(format!("{}: request {} got no answer", self.label, s.id)),
                Some((_, r)) if r.op == "error" || r.op == "overloaded" => out.push(format!(
                    "{}: request {} answered `{}` {:?}",
                    self.label, s.id, r.op, r.error
                )),
                _ => {}
            }
        }
        let stray = (0..self.uncorrelated).map(|_| format!("{}: uncorrelated answer", self.label));
        out.extend(stray);
        out
    }

    /// One line: requests, latency median and tail, sheds and errors.
    fn summary(&self) -> String {
        let lat = self.latencies_ms();
        let tail = stats::tail(&lat);
        format!(
            "{}: {} requests, p50 {:.2} ms, {} {:.2} ms, {} shed, {} errors",
            self.label,
            self.sent.len(),
            stats::median(&lat),
            tail.map_or("tail".into(), |t| t.label()),
            tail.map_or(f64::NAN, |t| t.value),
            self.shed(),
            self.errors().len(),
        )
    }
}

/// Open loop: `count` requests at `rate`, the writer thread sleeping
/// until each due time while the calling thread reads answers.
fn fixed_rate(
    d: &mut Daemon,
    mix: &Mix,
    first: u64,
    count: u64,
    rate: f64,
) -> Result<Phase, String> {
    let lines: Vec<(u64, String)> = (first..first + count)
        .map(|i| (i, mix.request(i, i).to_line()))
        .collect();
    // A short lead so the writer starts on schedule.
    let start = Instant::now() + Duration::from_millis(20);
    let mut phase = Phase::new(format!("{rate} req/s"), lines.len());
    let (writer, reader) = (&mut d.writer, &mut d.reader);
    thread::scope(|s| {
        let sender = s.spawn(|| -> Result<Vec<Sent>, String> {
            let mut sent = Vec::with_capacity(lines.len());
            for (i, line) in &lines {
                let due = start + Duration::from_secs_f64((i - first) as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                send_line(writer, line)?;
                let at = Instant::now();
                sent.push(Sent {
                    id: *i,
                    kind: Kind::of(*i),
                    due,
                    at,
                });
            }
            Ok(sent)
        });
        let mut read = Ok(());
        for _ in 0..lines.len() {
            match recv(reader) {
                Ok(resp) => phase.absorb(resp),
                Err(e) => {
                    read = Err(e);
                    break;
                }
            }
        }
        phase.sent = sender
            .join()
            .map_err(|_| "writer thread panicked".to_string())??;
        read
    })?;
    Ok(phase)
}

/// What the served answers are checked against.
struct Reference {
    /// The hot request's answer from an in-process `Service` with the
    /// daemon's default configuration; every served hot answer must
    /// equal it bit for bit.
    hot: Response,
    budgeted_inst: Instance<2>,
}

impl Reference {
    /// Solves the hot request in-process and checks that answer's
    /// reward against the objective of its centers and against the
    /// reference greedy.
    fn new(mix: &Mix) -> Result<Reference, String> {
        let what = "in-process hot solve";
        let mut svc = Service::new(ServiceConfig::default());
        let line = Request::solve(0, mix.hot.clone()).to_line();
        let hot = svc.handle_lines(&[Incoming::now(line)]).remove(0);
        expect_completed(what, &hot, "solve_ok")?;
        let inst = mix.hot.generate_2d().map_err(|e| e.to_string())?;
        let centers = selected_points(what, &hot, &inst)?;
        let served = hot.reward.unwrap_or(f64::NAN);
        check_reward(what, served, &inst, &centers, REWARD_TOL)?;
        quality(what, served, &inst, 1.0 - EXACT_TOL)?;
        let budgeted_inst = mix.budgeted.generate_2d().map_err(|e| e.to_string())?;
        Ok(Reference { hot, budgeted_inst })
    }

    /// Checks one served answer: hot solves bit-equal to the reference,
    /// fresh solves completed and budgeted solves degraded with rewards
    /// equal to the objective of their centers, pings answered. A fresh
    /// solve is exact greedy, so its quality against the reference
    /// greedy is checked and returned.
    fn check(&self, mix: &Mix, id: u64, kind: Kind, r: &Response) -> Result<Option<f64>, String> {
        let what = format!("request {id} ({kind:?})");
        let priced = |inst: &Instance<2>| {
            let centers = selected_points(&what, r, inst)?;
            check_reward(
                &what,
                r.reward.unwrap_or(f64::NAN),
                inst,
                &centers,
                REWARD_TOL,
            )
        };
        match kind {
            Kind::Ping if r.op == "pong" => Ok(None),
            Kind::Hot
                if r.is_completed_solve()
                    && r.reward.map(f64::to_bits) == self.hot.reward.map(f64::to_bits)
                    && r.selection == self.hot.selection =>
            {
                Ok(None)
            }
            Kind::Fresh => {
                expect_completed(&what, r, "solve_ok")?;
                let sc = mix.scenario(id).expect("fresh requests solve a scenario");
                let inst = sc.generate_2d().map_err(|e| e.to_string())?;
                priced(&inst)?;
                let served = r.reward.unwrap_or(f64::NAN);
                quality(&what, served, &inst, 1.0 - EXACT_TOL).map(Some)
            }
            Kind::Budgeted if r.op == "solve_ok" && r.status.as_deref() == Some("degraded") => {
                priced(&self.budgeted_inst).map(|()| None)
            }
            _ => Err(format!(
                "{what}: answered `{}` {:?} reward {:?}",
                r.op, r.status, r.reward
            )),
        }
    }
}

/// Checks every answer of the phase. Sheds and errors are counted by
/// [`Phase::errors`], not here. Returns the wrong answers and the
/// qualities of the fresh solves.
fn grade(phase: &Phase, mix: &Mix, reference: &Reference) -> (Vec<String>, Vec<f64>) {
    let (mut wrong, mut qualities) = (Vec::new(), Vec::new());
    for s in &phase.sent {
        let Some((_, r)) = phase.answers.get(&s.id) else {
            continue;
        };
        if r.op == "overloaded" || r.op == "error" {
            continue;
        }
        match reference.check(mix, s.id, s.kind, r) {
            Ok(q) => qualities.extend(q),
            Err(e) => wrong.push(format!("{}: {e}", phase.label)),
        }
    }
    (wrong, qualities)
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mix = Mix::new(ctx);
    let reference = Reference::new(&mix)?;
    let setups = if ctx.tracer.is_some() {
        1
    } else {
        CHEAP_SETUPS
    };
    let (mut daemon, setup_s, ()) = set_up(&ctx.mmph, Transport::Tcp, setups, |_| Ok(()))?;

    let count = (FIXED_RATE * ctx.seconds).round().max(20.0) as u64;
    let fixed = fixed_rate(&mut daemon, &mix, 0, count, FIXED_RATE)?;
    let rss = daemon.peak_rss_mib()?;
    daemon.shutdown()?;

    m.notes.push(fixed.summary());
    m.attempted += fixed.sent.len() as u64;
    m.failures.extend(fixed.errors());
    // Quality over the fresh solves: each is a distinct scenario, so
    // their mean does not hinge on one seed's hot instance.
    let (wrong, qualities) = grade(&fixed, &mix, &reference);
    m.failures.extend(wrong);
    m.median("setup_s", &setup_s);
    m.median("op_p50_ms", &fixed.latencies_ms());
    m.set(
        "objective",
        stats::mean(&qualities),
        qualities.len(),
        "mean fresh reward / reference greedy",
    );
    m.set("peak_rss_mb", rss, 1, "VmHWM");

    if ctx.tracer.is_some() {
        layer_metrics(ctx, &mix, &fixed, &mut m)?;
    }
    Ok(m)
}

/// Per-layer numbers: service and envelope times from an in-process
/// replay of each request kind, and queue, server and transport times
/// from the protocol fields of the fixed-rate answers.
fn layer_metrics(ctx: &mut Ctx, mix: &Mix, fixed: &Phase, m: &mut Measured) -> Result<(), String> {
    let tr = ctx.tracer.as_mut().expect("traced run");
    let mut svc = Service::new(ServiceConfig::default());
    let kinds = [
        (Kind::Hot, "service.hot", "service.ms.hot", 0u64),
        (Kind::Fresh, "service.fresh", "service.ms.fresh", 6),
        (Kind::Budgeted, "service.budgeted", "service.ms.budgeted", 8),
        (Kind::Ping, "service.ping", "service.ms.ping", 9),
    ];
    let mut rid = 0u64;
    let mut hot_resp = None;
    for (kind, span, metric, offset) in kinds {
        for round in 0..REPLAY_ROUNDS as u64 {
            let line = mix.request(round * 10 + offset, rid).to_line();
            let resp = tr.span(span, rid, |_| svc.handle_lines(&[Incoming::now(line)]));
            if kind == Kind::Hot {
                hot_resp = resp.into_iter().next();
            }
            rid += 1;
        }
        m.median(metric, &tr.self_ms_of(span));
    }
    let hot_line = mix.request(0, rid).to_line();
    let hot_resp = hot_resp.ok_or("no in-process hot answer")?;
    for _ in 0..REPLAY_ROUNDS {
        tr.span("envelope.parse", rid, |_| Request::parse(&hot_line))
            .map_err(|e| e.to_string())?;
        tr.span("envelope.encode", rid, |_| hot_resp.to_line());
    }
    m.median_us("envelope.parse_us.solve", &tr.self_ms_of("envelope.parse"));
    m.median_us(
        "envelope.encode_us.solve",
        &tr.self_ms_of("envelope.encode"),
    );

    let (mut queue, mut server, mut transport, mut client) = (vec![], vec![], vec![], vec![]);
    let (mut solves, mut reused) = (0usize, 0usize);
    for s in &fixed.sent {
        let Some((at, r)) = fixed.answers.get(&s.id) else {
            continue;
        };
        let rtt = ms(at.saturating_duration_since(s.at));
        client.push(rtt);
        queue.extend(r.queue_ms);
        if let Some(us) = r.latency_us {
            server.push(us as f64 / 1e3);
            transport.push(rtt - us as f64 / 1e3);
        }
        if r.op == "solve_ok" {
            solves += 1;
            reused += usize::from(r.engine_reused == Some(true));
        }
    }
    // Share of the client's round trip the service does not report as
    // its own latency: transport and client-side time.
    m.set(
        "unattributed_frac",
        1.0 - stats::median(&server) / stats::median(&client),
        client.len(),
        "1 - server/client medians",
    );
    m.percentile("serve.queue_ms.p50", &queue, 50);
    m.percentile("serve.queue_ms.p99", &queue, 99);
    m.percentile("serve.server_ms.p50", &server, 50);
    m.percentile("serve.server_ms.p99", &server, 99);
    m.set(
        "serve.engine_reuse_frac",
        reused as f64 / solves.max(1) as f64,
        solves,
        "share",
    );
    m.percentile("transport.ms.p50", &transport, 50);
    m.percentile("transport.ms.p99", &transport, 99);
    let late: Vec<f64> = fixed
        .sent
        .iter()
        .map(|s| ms(s.at.saturating_duration_since(s.due)))
        .collect();
    m.set(
        "loadgen.late_ms.max",
        late.iter().copied().fold(0.0, f64::max),
        late.len(),
        "max",
    );
    Ok(())
}

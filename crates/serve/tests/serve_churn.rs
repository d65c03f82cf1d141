//! The churn analogue of `serve_equals_batch`: a mutate → resolve
//! conversation through the service — over the actual wire bytes of
//! both the stdio and the TCP transport — is bit-identical to driving
//! [`IncrementalInstance`] directly, and PR 7's shed/cancel semantics
//! hold for the incremental ops too.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use mmph_core::{
    CancelToken, Delta, EngineKind, IncrementalInstance, Instance, ResolveConfig, SolveScratch,
};
use mmph_geom::Point;
use mmph_serve::{
    serve_stdio, serve_tcp, Incoming, Request, Response, Service, ServiceConfig, ServiceStats,
    ShutdownFlag,
};
use mmph_sim::{ChurnPlan, Scenario, WeightScheme};

fn scenario(n: usize, k: usize, seed: u64) -> Scenario {
    Scenario::paper_2d(
        n,
        k,
        1.0,
        mmph_geom::Norm::L2,
        WeightScheme::PAPER_WEIGHTED,
        seed,
    )
}

/// The library-side reference: same instance, same deltas, same
/// resolve cadence as the request script.
fn reference(inst: Instance<2>, batches: &[Vec<Delta<2>>]) -> Vec<(Vec<usize>, f64, bool, u64)> {
    let mut inc = IncrementalInstance::new(inst, EngineKind::Sparse).unwrap();
    let mut scratch = SolveScratch::new();
    let mut out = Vec::new();
    let record = |inc: &IncrementalInstance<2>, o: mmph_core::ResolveOutcome| {
        (o.selection, o.reward, o.warm, inc.churn_version())
    };
    let o = inc.resolve(&mut scratch, &ResolveConfig::default());
    out.push(record(&inc, o));
    for deltas in batches {
        inc.apply_churn(deltas).unwrap();
        let o = inc.resolve(&mut scratch, &ResolveConfig::default());
        out.push(record(&inc, o));
    }
    out
}

/// Seeded delta batches, each drawn against the instance the previous
/// batches produced.
fn batches(inst: &Instance<2>, steps: u64) -> Vec<Vec<Delta<2>>> {
    // Mirror the instance's evolution while generating: each batch is
    // drawn against the instance state the previous batches produced.
    let mut inc = IncrementalInstance::new(inst.clone(), EngineKind::Sparse).unwrap();
    let plan = ChurnPlan::new(0xC0FFEE, steps as usize, 0.04);
    let mut out = Vec::new();
    for step in 0..steps {
        let deltas = plan.deltas(step, inc.instance()).unwrap();
        inc.apply_churn(&deltas).unwrap();
        out.push(deltas);
    }
    out
}

/// Per resolve: selection, reward, warm flag and churn version.
type Expected = Vec<(Vec<usize>, f64, bool, u64)>;

/// The request script (init + resolve, then mutate deltas + resolve
/// per batch) and the library-side reference it must reproduce.
fn churn_script() -> (Vec<Request>, Expected) {
    let sc = scenario(80, 4, 17);
    let inst = sc.generate_2d().unwrap();
    let batches = batches(&inst, 3);
    let expect = reference(inst, &batches);
    let mut reqs = vec![Request::mutate(0, Some(sc), None), Request::resolve(1)];
    for deltas in batches {
        let id = reqs.len() as u64;
        reqs.push(Request::mutate(id, None, Some(deltas)));
        reqs.push(Request::resolve(id + 1));
    }
    (reqs, expect)
}

/// Checks one answer per request, in request order, against the
/// reference.
fn check_churn_answers(responses: Vec<Response>, stats: &ServiceStats, expect: &Expected) {
    assert_eq!(responses.len(), 2 * expect.len());
    let resolves: Vec<&Response> = responses.iter().filter(|r| r.op == "resolve_ok").collect();
    assert_eq!(resolves.len(), expect.len());
    for (resp, (selection, reward, warm, version)) in resolves.iter().zip(expect) {
        assert_eq!(resp.status.as_deref(), Some("completed"));
        assert_eq!(resp.selection.as_ref().unwrap(), selection);
        assert_eq!(
            resp.reward.unwrap().to_bits(),
            reward.to_bits(),
            "rewards must survive the wire bit-for-bit"
        );
        assert_eq!(resp.warm, Some(*warm));
        assert_eq!(resp.churn_version, Some(*version));
    }
    // First resolve is the cold seed solve; 4%-churn follow-ups warm.
    assert_eq!(resolves[0].warm, Some(false));
    assert!(
        resolves[1..].iter().all(|r| r.warm == Some(true)),
        "4% churn stays under the warm threshold"
    );
    // mutate_ok responses carry the advancing churn version.
    let mutates: Vec<&Response> = responses.iter().filter(|r| r.op == "mutate_ok").collect();
    assert_eq!(mutates[0].churn_version, Some(0));
    assert!(mutates[1].churn_version.unwrap() > 0);
    assert_eq!(stats.mutations as usize, mutates.len());
    assert_eq!(stats.warm_resolves as usize, resolves.len() - 1);
}

fn lines(reqs: &[Request]) -> String {
    reqs.iter().map(|r| r.to_line() + "\n").collect()
}

#[test]
fn stdio_wire_bytes_mutate_resolve_match_direct_library() {
    let (reqs, expect) = churn_script();
    let mut svc = Service::new(ServiceConfig::default());
    let mut out = Vec::new();
    let input = Cursor::new(lines(&reqs).into_bytes());
    serve_stdio(&mut svc, input, &mut out, &ShutdownFlag::new()).unwrap();
    let responses = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Response::parse(l).unwrap())
        .collect();
    check_churn_answers(responses, svc.stats(), &expect);
}

#[test]
fn tcp_wire_bytes_mutate_resolve_match_direct_library() {
    let (reqs, expect) = churn_script();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let mut svc = Service::new(ServiceConfig::default());
        serve_tcp(&mut svc, listener, &ShutdownFlag::new()).unwrap()
    });
    // One ordered connection: the tracked instance is per-service state.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(lines(&reqs).as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Response::parse(&line).unwrap()
    };
    let responses = (0..reqs.len()).map(|_| read()).collect();
    stream
        .write_all(lines(&[Request::control(99, "shutdown")]).as_bytes())
        .unwrap();
    assert_eq!(read().op, "bye");
    check_churn_answers(responses, &server.join().unwrap(), &expect);
}

#[test]
fn resolve_without_tracked_instance_is_an_error() {
    let mut svc = Service::new(ServiceConfig::default());
    let out = svc.handle_lines(&[Incoming::now(Request::resolve(1).to_line())]);
    assert_eq!(out[0].op, "error");
    assert!(out[0]
        .error
        .as_deref()
        .unwrap()
        .contains("no tracked instance"));
    let out = svc.handle_lines(&[Incoming::now(
        Request::mutate(2, None, Some(vec![Delta::Remove { index: 0 }])).to_line(),
    )]);
    assert_eq!(out[0].op, "error");
}

#[test]
fn bad_delta_reports_its_position_in_the_batch() {
    let mut svc = Service::new(ServiceConfig::default());
    let init = Request::mutate(0, Some(scenario(10, 2, 3)), None);
    svc.handle_lines(&[Incoming::now(init.to_line())]);
    let deltas = vec![
        Delta::Insert {
            point: Point::new([1.0, 1.0]),
            weight: 2.0,
        },
        Delta::Remove { index: 999 },
    ];
    let out = svc.handle_lines(&[Incoming::now(
        Request::mutate(1, None, Some(deltas)).to_line(),
    )]);
    assert_eq!(out[0].op, "error");
    let msg = out[0].error.as_deref().unwrap();
    assert!(msg.contains("churn delta 1"), "{msg}");
}

#[test]
fn non_sparse_engine_rejected_for_mutate() {
    let mut svc = Service::new(ServiceConfig::default());
    for (engine, why) in [("grid", "sparse engine"), ("sparse-f32", "unknown engine")] {
        let mut req = Request::mutate(0, Some(scenario(10, 2, 3)), None);
        req.engine = Some(engine.into());
        let out = svc.handle_lines(&[Incoming::now(req.to_line())]);
        assert_eq!(out[0].op, "error", "{engine}");
        let msg = out[0].error.as_deref().unwrap();
        assert!(msg.contains(why), "{engine}: {msg}");
    }
}

#[test]
fn pre_cancelled_resolve_degrades_and_keeps_churn_pending() {
    let mut svc = Service::new(ServiceConfig::default());
    let sc = scenario(60, 3, 9);
    svc.handle_lines(&[
        Incoming::now(Request::mutate(0, Some(sc), None).to_line()),
        Incoming::now(Request::resolve(1).to_line()),
    ]);
    let deltas = vec![Delta::Insert {
        point: Point::new([2.0, 2.0]),
        weight: 3.0,
    }];
    let out = svc.handle_lines(&[Incoming::now(
        Request::mutate(2, None, Some(deltas)).to_line(),
    )]);
    let version_after_mutate = out[0].churn_version.unwrap();

    // A resolve whose client already hung up: degraded, no commit.
    let token = CancelToken::new();
    token.cancel();
    let out = svc.handle_lines(&[Incoming::with_cancel(Request::resolve(3).to_line(), token)]);
    assert_eq!(out[0].op, "resolve_ok");
    assert_eq!(out[0].status.as_deref(), Some("degraded"));
    assert_eq!(out[0].degrade_reason.as_deref(), Some("solve cancelled"));
    assert_eq!(svc.stats().cancelled, 1);
    assert_eq!(svc.stats().degraded, 1);

    // The churn survived the cancellation: a clean resolve completes
    // warm at the same churn version.
    let out = svc.handle_lines(&[Incoming::now(Request::resolve(4).to_line())]);
    assert_eq!(out[0].status.as_deref(), Some("completed"), "{:?}", out[0]);
    assert_eq!(out[0].warm, Some(true));
    assert_eq!(out[0].churn_version, Some(version_after_mutate));
}

#[test]
fn queue_eaten_deadline_sheds_resolve_as_overloaded() {
    let mut svc = Service::new(ServiceConfig::default());
    svc.handle_lines(&[Incoming::now(
        Request::mutate(0, Some(scenario(40, 3, 5)), None).to_line(),
    )]);
    let mut req = Request::resolve(1);
    req.deadline_ms = Some(5);
    let inc = Incoming {
        line: req.to_line(),
        received: Instant::now() - Duration::from_millis(50),
        cancel: None,
    };
    let out = svc.handle_lines(&[inc]);
    assert_eq!(out[0].op, "overloaded");
    assert_eq!(out[0].in_reply_to, Some(1));
    assert!(out[0].queue_ms.unwrap() >= 50.0);
    assert_eq!(svc.stats().shed, 1);
}

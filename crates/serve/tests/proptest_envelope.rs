//! Property tests for the NDJSON envelope: any request or response the
//! types can express survives a serialize → parse → serialize cycle
//! bit-for-bit, so pipelined clients can rely on stable lines.

use mmph_core::Delta;
use mmph_geom::Point;
use mmph_serve::{Request, Response, ServiceStats, PROTOCOL_VERSION};
use mmph_sim::{Scenario, WeightScheme};
use proptest::prelude::*;

/// `Option<T>` strategy: present half the time.
fn opt<S>(inner: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy,
{
    (0u32..2, inner).prop_map(|(flag, v)| if flag == 1 { Some(v) } else { None })
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1usize..200, 1usize..8, 0.1..3.0f64, 0u64..1000).prop_map(|(n, k, r, seed)| {
        Scenario::paper_2d(
            n,
            k,
            r,
            mmph_geom::Norm::L2,
            WeightScheme::PAPER_WEIGHTED,
            seed,
        )
    })
}

fn delta() -> impl Strategy<Value = Delta<2>> {
    prop_oneof![
        ((-4.0..4.0f64, -4.0..4.0f64), 1.0..5.0f64).prop_map(|((x, y), weight)| Delta::Insert {
            point: Point::new([x, y]),
            weight,
        }),
        (0usize..1000).prop_map(|index| Delta::Remove { index }),
        (0usize..1000, (-4.0..4.0f64, -4.0..4.0f64)).prop_map(|(index, (x, y))| Delta::Move {
            index,
            to: Point::new([x, y]),
        }),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    let op = prop_oneof![
        Just("ping".to_string()),
        Just("stats".to_string()),
        Just("shutdown".to_string()),
        Just("solve".to_string()),
        Just("mutate".to_string()),
        Just("resolve".to_string()),
    ];
    let solver = prop_oneof![Just("greedy2".to_string()), Just("lazy".to_string())];
    let engine = prop_oneof![
        Just("sparse".to_string()),
        Just("scan".to_string()),
        Just("grid".to_string())
    ];
    (
        (0u64..u64::MAX, op),
        opt(scenario()),
        (opt(solver), opt(engine)),
        (opt(0u64..10_000), opt(0u64..1_000_000)),
        opt(prop::collection::vec(delta(), 0..6)),
        opt(0.5..64.0f64),
    )
        .prop_map(
            |(
                (id, op),
                scenario,
                (solver, engine),
                (deadline_ms, max_evals),
                deltas,
                coreset_cells,
            )| Request {
                v: PROTOCOL_VERSION,
                id,
                op,
                scenario,
                spec: None,
                solver,
                engine,
                deadline_ms,
                max_evals,
                deltas,
                coreset_cells,
                shards: None,
            },
        )
}

fn response() -> impl Strategy<Value = Response> {
    let op = prop_oneof![
        Just("solve_ok".to_string()),
        Just("pong".to_string()),
        Just("stats_ok".to_string()),
        Just("bye".to_string()),
        Just("error".to_string()),
        Just("overloaded".to_string()),
    ];
    let status = prop_oneof![Just("completed".to_string()), Just("degraded".to_string())];
    (
        (opt(0u64..u64::MAX), op, opt(status)),
        opt(-1e12..1e12f64),
        opt(prop::collection::vec(0usize..100_000, 0..12)),
        (opt(0u64..u64::MAX), 0u32..2),
        (opt(0.0..1e6f64), opt(0u64..100_000)),
    )
        .prop_map(
            |(
                (in_reply_to, op, status),
                reward,
                selection,
                (latency_us, with_stats),
                (queue_ms, retry_after_ms),
            )| {
                let mut r = Response::new(in_reply_to, &op);
                r.status = status;
                r.reward = reward;
                r.selection = selection;
                r.latency_us = latency_us;
                r.queue_ms = queue_ms;
                r.retry_after_ms = retry_after_ms;
                if with_stats == 1 {
                    r.stats = Some(ServiceStats {
                        received: 10,
                        responded: 9,
                        solved: 7,
                        degraded: 1,
                        errors: 1,
                        engines_reused: 4,
                        shed: 2,
                        cancelled: 1,
                        mutations: 3,
                        warm_resolves: 2,
                        arena_bytes: 1 << 30,
                    });
                }
                r
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_lines_roundtrip(req in request()) {
        let line = req.to_line();
        let back = Request::parse(&line).unwrap();
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(back.to_line(), line, "reserialization is stable");
    }

    #[test]
    fn response_lines_roundtrip(resp in response()) {
        let line = resp.to_line();
        let back = Response::parse(&line).unwrap();
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(back.to_line(), line, "reserialization is stable");
    }

    #[test]
    fn rewards_cross_the_wire_bit_identically(bits in 0u64..u64::MAX) {
        // Arbitrary bit patterns, folded back to finite when the draw
        // lands on an inf/NaN encoding (JSON has no tokens for those).
        let mut reward = f64::from_bits(bits);
        if !reward.is_finite() {
            reward = (bits >> 12) as f64 * 1e-3;
        }
        let mut r = Response::new(Some(1), "solve_ok");
        r.reward = Some(reward);
        let back = Response::parse(&r.to_line()).unwrap();
        prop_assert_eq!(back.reward.unwrap().to_bits(), reward.to_bits());
    }

    #[test]
    fn ids_salvage_from_any_prefix_truncation(
        id in 0u64..u64::MAX,
        cut in 0usize..40,
    ) {
        // A request line truncated anywhere after its id digits still
        // yields the id for error correlation.
        let line = format!(r#"{{"v":1,"id":{id},"op":"solve","spec":"n=10"}}"#);
        let id_end = line.find(",\"op\"").unwrap();
        let keep = line.len().min(id_end + cut);
        prop_assert_eq!(mmph_serve::salvage_id(&line[..keep]), Some(id));
    }
}

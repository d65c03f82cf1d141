//! The versioned NDJSON request/response envelope.
//!
//! One request or response per line, Maelstrom-style: every request
//! carries a client-chosen `id`, every response echoes it back as
//! `in_reply_to`, so clients may pipeline arbitrarily many requests
//! over one connection and correlate replies in any order.
//!
//! Request line (`op` selects the handler):
//!
//! ```json
//! {"v":1,"id":7,"op":"solve","scenario":{...},"solver":"lazy",
//!  "engine":"sparse","deadline_ms":50,"max_evals":100000}
//! ```
//!
//! The scenario may be inline (`scenario`, a full
//! [`mmph_sim::Scenario`] document) or by reference (`spec`, an inline
//! `n=..,k=..` stream spec naming exactly one scenario). Control ops:
//! `ping` (liveness), `stats` (service counters), `shutdown` (drain
//! and exit).
//!
//! Incremental ops maintain one *tracked* instance per service:
//! `mutate` initializes it from a `scenario`/`spec` and/or patches it
//! in place with a `deltas` array of insert/remove/move edits
//! (answered with `mutate_ok` carrying the new `churn_version`), and
//! `resolve` warm re-solves the tracked instance from the previous
//! selection (`resolve_ok` with `warm` saying whether the warm path
//! was taken or the solver fell back to a cold greedy). Responses:
//!
//! ```json
//! {"v":1,"in_reply_to":7,"op":"solve_ok","status":"degraded",
//!  "degrade_reason":"deadline of 50 ms exceeded","selection":[3,1],
//!  "reward":812.5,"evals":420,"latency_us":1930,...}
//! ```
//!
//! A request the service cannot parse or execute gets `op: "error"`
//! with `in_reply_to` set when an `id` could still be extracted, and
//! `null` otherwise. Unknown protocol versions are rejected, never
//! guessed at.
//!
//! Under overload the service sheds rather than queues without bound:
//! a shed request gets `op: "overloaded"` carrying `retry_after_ms`,
//! the client's cue to back off and retry. Solve responses additionally
//! report `queue_ms` — the time the request waited between the
//! transport reading it and the dispatcher starting its round — so
//! clients can split end-to-end latency into queueing and solving:
//!
//! ```json
//! {"v":1,"in_reply_to":7,"op":"overloaded","retry_after_ms":25,
//!  "queue_ms":12.4}
//! ```

use serde::{Deserialize, Serialize};

use mmph_sim::Scenario;

use crate::{Result, ServeError};

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Request operations understood by the service.
pub const REQUEST_OPS: &[&str] = &["solve", "mutate", "resolve", "ping", "stats", "shutdown"];

/// One request line. Fields beyond `id`/`op` are op-specific; see the
/// module docs for the wire shapes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version; 0 (absent) is treated as the current version.
    #[serde(default)]
    pub v: u32,
    /// Client-chosen correlation id, echoed back as `in_reply_to`.
    pub id: u64,
    /// Operation: `solve`, `ping`, `stats`, or `shutdown`.
    pub op: String,
    /// Inline scenario for `solve`.
    #[serde(default)]
    pub scenario: Option<Scenario>,
    /// Scenario by reference: an inline `n=..,k=..` spec naming
    /// exactly one scenario (`count`/`repeat` must stay 1).
    #[serde(default)]
    pub spec: Option<String>,
    /// Solver override: `greedy2` (eager) or `lazy` (CELF).
    #[serde(default)]
    pub solver: Option<String>,
    /// Engine override: `auto|scan|kd|sparse|sparse-f32|grid`.
    #[serde(default)]
    pub engine: Option<String>,
    /// Per-request wall-clock deadline in milliseconds.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Per-request objective-evaluation cap.
    #[serde(default)]
    pub max_evals: Option<u64>,
    /// Point edits for `mutate`: applied in order to the tracked
    /// incremental instance.
    #[serde(default)]
    pub deltas: Option<Vec<mmph_core::Delta<2>>>,
    /// Force the coreset pipeline with this grid resolution
    /// (cells per radius). Mutually exclusive with `shards`.
    #[serde(default)]
    pub coreset_cells: Option<f64>,
    /// Force the shard-then-merge pipeline with this many spatial
    /// shards. Mutually exclusive with `coreset_cells`.
    #[serde(default)]
    pub shards: Option<usize>,
}

impl Request {
    /// A minimal solve request for an inline scenario.
    pub fn solve(id: u64, scenario: Scenario) -> Self {
        Request {
            v: PROTOCOL_VERSION,
            id,
            op: "solve".into(),
            scenario: Some(scenario),
            spec: None,
            solver: None,
            engine: None,
            deadline_ms: None,
            max_evals: None,
            deltas: None,
            coreset_cells: None,
            shards: None,
        }
    }

    /// A control request (`ping`, `stats`, `shutdown`, bare `resolve`).
    pub fn control(id: u64, op: &str) -> Self {
        Request {
            v: PROTOCOL_VERSION,
            id,
            op: op.into(),
            scenario: None,
            spec: None,
            solver: None,
            engine: None,
            deadline_ms: None,
            max_evals: None,
            deltas: None,
            coreset_cells: None,
            shards: None,
        }
    }

    /// A `mutate` request: initialize the tracked instance from
    /// `scenario` (when given) and/or apply `deltas` to it.
    pub fn mutate(
        id: u64,
        scenario: Option<Scenario>,
        deltas: Option<Vec<mmph_core::Delta<2>>>,
    ) -> Self {
        let mut req = Self::control(id, "mutate");
        req.scenario = scenario;
        req.deltas = deltas;
        req
    }

    /// A `resolve` request: warm re-solve the tracked instance.
    pub fn resolve(id: u64) -> Self {
        Self::control(id, "resolve")
    }

    /// Checks version and op; normalizes an absent version to the
    /// current one.
    pub fn validate(mut self) -> Result<Self> {
        if self.v == 0 {
            self.v = PROTOCOL_VERSION;
        }
        if self.v != PROTOCOL_VERSION {
            return Err(ServeError::Protocol(format!(
                "unsupported protocol version {} (this build speaks {PROTOCOL_VERSION})",
                self.v
            )));
        }
        if !REQUEST_OPS.contains(&self.op.as_str()) {
            return Err(ServeError::Protocol(format!(
                "unknown op `{}` (known: {})",
                self.op,
                REQUEST_OPS.join(", ")
            )));
        }
        Ok(self)
    }

    /// Serializes to one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("request serialization is infallible")
    }

    /// Parses and validates one request line.
    pub fn parse(line: &str) -> Result<Self> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Err(ServeError::Protocol("empty request line".into()));
        }
        let req: Request = serde_json::from_str(trimmed)
            .map_err(|e| ServeError::Protocol(format!("request JSON: {e}")))?;
        req.validate()
    }
}

/// Best-effort extraction of the `id` from a line that failed full
/// parsing, so even garbled requests can get a correlated error
/// response. Returns `None` when no numeric `"id"` key is readable.
pub fn salvage_id(line: &str) -> Option<u64> {
    let bytes = line.as_bytes();
    let key = b"\"id\"";
    let pos = line.find("\"id\"")?;
    let mut i = pos + key.len();
    while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b':') {
        i += 1;
    }
    let start = i;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    line[start..i].parse().ok()
}

/// Aggregate service counters, reported by the `stats` op and
/// returned by the transport loops when they exit.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Request lines received (including malformed ones).
    pub received: u64,
    /// Responses written.
    pub responded: u64,
    /// Solve requests completed within budget.
    pub solved: u64,
    /// Solve requests degraded by a budget trip.
    pub degraded: u64,
    /// Error responses (parse failures, bad scenarios, worker panics).
    pub errors: u64,
    /// Engine reuses across adjacent identical requests.
    pub engines_reused: u64,
    /// Requests shed by admission control (`overloaded` responses):
    /// queue over capacity, per-connection in-flight cap hit, or the
    /// deadline already spent in the queue.
    #[serde(default)]
    pub shed: u64,
    /// Solves abandoned by a tripped cancel token (client disconnect
    /// or write failure), before or during the solve.
    #[serde(default)]
    pub cancelled: u64,
    /// `mutate` requests applied to the tracked instance.
    #[serde(default)]
    pub mutations: u64,
    /// `resolve` requests answered by the warm path (seed + polish,
    /// no cold fallback).
    #[serde(default)]
    pub warm_resolves: u64,
}

/// One response line. `op` is `solve_ok`, `mutate_ok`, `resolve_ok`,
/// `pong`, `stats_ok`, `bye`, `overloaded`, or `error`; the optional
/// fields are filled per op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version of the responding service.
    pub v: u32,
    /// The request id this answers; `null` when the request line was
    /// too garbled to extract one.
    pub in_reply_to: Option<u64>,
    /// Response operation (see type docs).
    pub op: String,
    /// `completed` or `degraded` (solve responses).
    #[serde(default)]
    pub status: Option<String>,
    /// Human-readable reason when `status` is `degraded`.
    #[serde(default)]
    pub degrade_reason: Option<String>,
    /// Error message for `op: "error"`.
    #[serde(default)]
    pub error: Option<String>,
    /// Instance size of the solved scenario.
    #[serde(default)]
    pub n: Option<usize>,
    /// Centers requested.
    #[serde(default)]
    pub k: Option<usize>,
    /// Total coverage reward of the selection.
    #[serde(default)]
    pub reward: Option<f64>,
    /// Objective evaluations charged to this request.
    #[serde(default)]
    pub evals: Option<u64>,
    /// Selected candidate indices, in pick order.
    #[serde(default)]
    pub selection: Option<Vec<usize>>,
    /// Whether this request reused the previous request's engine.
    #[serde(default)]
    pub engine_reused: Option<bool>,
    /// Solve wall time in microseconds (engine build included on the
    /// first request of a reuse run).
    #[serde(default)]
    pub solve_us: Option<u64>,
    /// Queue + solve latency in microseconds, measured from the
    /// moment the transport read the line to response serialization.
    #[serde(default)]
    pub latency_us: Option<u64>,
    /// Time the request spent queued between the transport reading it
    /// and the dispatcher picking it up, in milliseconds (fractional
    /// for sub-millisecond queues). Solve and `overloaded` responses.
    #[serde(default)]
    pub queue_ms: Option<f64>,
    /// Back-off hint on `op: "overloaded"`: retry no sooner than this
    /// many milliseconds from now.
    #[serde(default)]
    pub retry_after_ms: Option<u64>,
    /// Service counters (`stats_ok` responses).
    #[serde(default)]
    pub stats: Option<ServiceStats>,
    /// Whether a `resolve` took the warm path (`resolve_ok`).
    #[serde(default)]
    pub warm: Option<bool>,
    /// Churn version of the tracked instance after this op
    /// (`mutate_ok` / `resolve_ok`): bumps once per applied delta.
    #[serde(default)]
    pub churn_version: Option<u64>,
    /// Which large-n pipeline produced this solve: `coreset` or
    /// `shard`; absent for direct solves.
    #[serde(default)]
    pub pipeline: Option<String>,
    /// Number of coreset representatives the reduced solve ran on
    /// (`pipeline: "coreset"`).
    #[serde(default)]
    pub coreset_n: Option<u64>,
    /// Realized full-resolution objective gap of the coreset solve:
    /// `|coreset_obj − full_obj| / coreset_obj`.
    #[serde(default)]
    pub gap: Option<f64>,
    /// Selected center coordinates, parallel to `selection`. Filled by
    /// the pipeline paths, whose indices are pipeline-internal.
    #[serde(default)]
    pub centers: Option<Vec<[f64; 2]>>,
    /// Chunk index (0-based) when a huge selection is streamed as
    /// multiple frames; absent on single-frame responses.
    #[serde(default)]
    pub chunk: Option<u64>,
    /// Total frame count of a chunked response.
    #[serde(default)]
    pub chunk_count: Option<u64>,
}

impl Response {
    /// A blank response of the given op.
    pub fn new(in_reply_to: Option<u64>, op: &str) -> Self {
        Response {
            v: PROTOCOL_VERSION,
            in_reply_to,
            op: op.into(),
            status: None,
            degrade_reason: None,
            error: None,
            n: None,
            k: None,
            reward: None,
            evals: None,
            selection: None,
            engine_reused: None,
            solve_us: None,
            latency_us: None,
            queue_ms: None,
            retry_after_ms: None,
            stats: None,
            warm: None,
            churn_version: None,
            pipeline: None,
            coreset_n: None,
            gap: None,
            centers: None,
            chunk: None,
            chunk_count: None,
        }
    }

    /// An error response.
    pub fn error(in_reply_to: Option<u64>, msg: impl Into<String>) -> Self {
        let mut r = Self::new(in_reply_to, "error");
        r.error = Some(msg.into());
        r
    }

    /// A load-shed response: the service refused this request and the
    /// client should retry after `retry_after_ms`.
    pub fn overloaded(in_reply_to: Option<u64>, retry_after_ms: u64) -> Self {
        let mut r = Self::new(in_reply_to, "overloaded");
        r.retry_after_ms = Some(retry_after_ms);
        r
    }

    /// Serializes to one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("response serialization is infallible")
    }

    /// Parses one response line (client side: perfbench, tests).
    pub fn parse(line: &str) -> Result<Self> {
        serde_json::from_str(line.trim())
            .map_err(|e| ServeError::Protocol(format!("response JSON: {e}")))
    }

    /// True for a solve response that completed within budget.
    pub fn is_completed_solve(&self) -> bool {
        self.op == "solve_ok" && self.status.as_deref() == Some("completed")
    }

    /// Splits a response whose `selection` exceeds `max_per_chunk`
    /// entries into a sequence of frames, each carrying at most
    /// `max_per_chunk` selection entries (and the parallel `centers`
    /// slice, when present). Frame 0 keeps every scalar field; later
    /// frames carry only the correlation id, op, chunk coordinates,
    /// and their slice, so a client reassembles by concatenating
    /// slices in `chunk` order. Responses at or under the threshold
    /// come back unchanged as a single frame with no chunk fields.
    pub fn into_chunks(self, max_per_chunk: usize) -> Vec<Response> {
        let len = self.selection.as_ref().map_or(0, Vec::len);
        if max_per_chunk == 0 || len <= max_per_chunk {
            return vec![self];
        }
        let selection = self.selection.clone().unwrap_or_default();
        let centers = self.centers.clone();
        let count = len.div_ceil(max_per_chunk) as u64;
        let mut frames = Vec::with_capacity(count as usize);
        for (i, sel_part) in selection.chunks(max_per_chunk).enumerate() {
            let mut frame = if i == 0 {
                self.clone()
            } else {
                Response::new(self.in_reply_to, &self.op)
            };
            frame.selection = Some(sel_part.to_vec());
            frame.centers = centers.as_ref().map(|c| {
                let lo = i * max_per_chunk;
                c[lo.min(c.len())..(lo + sel_part.len()).min(c.len())].to_vec()
            });
            frame.chunk = Some(i as u64);
            frame.chunk_count = Some(count);
            frames.push(frame);
        }
        frames
    }
}

/// Reassembles a chunked response from its frames (client side:
/// tests). Frames may arrive in any order; they are sorted
/// by `chunk` index and their `selection`/`centers` slices
/// concatenated onto the frame carrying the scalar fields (chunk 0).
/// A single un-chunked response passes through untouched. Returns
/// `None` on an empty, incomplete, or mismatched frame set.
pub fn merge_chunks(mut frames: Vec<Response>) -> Option<Response> {
    match frames.len() {
        0 => return None,
        1 if frames[0].chunk.is_none() => return frames.pop(),
        _ => {}
    }
    frames.sort_by_key(|f| f.chunk.unwrap_or(u64::MAX));
    let count = frames[0].chunk_count?;
    if frames.len() as u64 != count {
        return None;
    }
    for (i, f) in frames.iter().enumerate() {
        if f.chunk != Some(i as u64) || f.chunk_count != Some(count) {
            return None;
        }
    }
    let mut merged = frames.remove(0);
    for f in frames {
        if let (Some(sel), Some(part)) = (merged.selection.as_mut(), f.selection) {
            sel.extend(part);
        }
        if let (Some(cen), Some(part)) = (merged.centers.as_mut(), f.centers) {
            cen.extend(part);
        }
    }
    merged.chunk = None;
    merged.chunk_count = None;
    Some(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmph_geom::Norm;
    use mmph_sim::WeightScheme;

    fn scenario() -> Scenario {
        Scenario::paper_2d(10, 2, 1.0, Norm::L2, WeightScheme::Same, 3)
    }

    #[test]
    fn request_roundtrip() {
        let mut req = Request::solve(42, scenario());
        req.deadline_ms = Some(25);
        req.engine = Some("sparse".into());
        let line = req.to_line();
        let back = Request::parse(&line).unwrap();
        assert_eq!(req, back);
        assert_eq!(back.to_line(), line, "reserialization is stable");
    }

    #[test]
    fn absent_version_defaults_to_current() {
        let req = Request::parse(r#"{"id":1,"op":"ping"}"#).unwrap();
        assert_eq!(req.v, PROTOCOL_VERSION);
    }

    #[test]
    fn future_version_rejected() {
        let err = Request::parse(r#"{"v":9,"id":1,"op":"ping"}"#).unwrap_err();
        assert!(err.to_string().contains("unsupported protocol version"));
    }

    #[test]
    fn unknown_op_rejected() {
        let err = Request::parse(r#"{"id":1,"op":"fly"}"#).unwrap_err();
        assert!(err.to_string().contains("unknown op"));
    }

    #[test]
    fn malformed_lines_rejected() {
        for line in ["", "   ", "{", "[1]", r#"{"op":"ping"}"#, "junk"] {
            assert!(Request::parse(line).is_err(), "`{line}`");
        }
    }

    #[test]
    fn id_salvage_from_garbled_lines() {
        assert_eq!(salvage_id(r#"{"id": 77, "op": "sol"#), Some(77));
        assert_eq!(salvage_id(r#"{"op":"x","id":3}"#), Some(3));
        assert_eq!(salvage_id("total garbage"), None);
        assert_eq!(salvage_id(r#"{"id":"seven"}"#), None);
    }

    #[test]
    fn response_roundtrip() {
        let mut r = Response::new(Some(9), "solve_ok");
        r.status = Some("completed".into());
        r.reward = Some(123.456789012345);
        r.selection = Some(vec![4, 0, 2]);
        r.evals = Some(99);
        let line = r.to_line();
        let back = Response::parse(&line).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn small_selection_stays_single_frame() {
        let mut r = Response::new(Some(1), "solve_ok");
        r.selection = Some(vec![1, 2, 3]);
        let frames = r.clone().into_chunks(8);
        assert_eq!(frames, vec![r]);
        assert!(frames[0].chunk.is_none());
    }

    #[test]
    fn chunked_response_reassembles_exactly() {
        let mut r = Response::new(Some(7), "solve_ok");
        r.status = Some("completed".into());
        r.reward = Some(812.5);
        r.selection = Some((0..10).collect());
        r.centers = Some((0..10).map(|i| [i as f64, -(i as f64)]).collect());
        let frames = r.clone().into_chunks(3);
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].reward, Some(812.5));
        assert_eq!(frames[1].reward, None, "later frames carry no scalars");
        assert_eq!(frames[3].selection.as_ref().unwrap().len(), 1);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.chunk, Some(i as u64));
            assert_eq!(f.chunk_count, Some(4));
            assert_eq!(f.in_reply_to, Some(7));
            // Every frame survives the wire independently.
            assert_eq!(Response::parse(&f.to_line()).unwrap(), *f);
        }
        // Reassembly is order-independent.
        let mut shuffled = frames.clone();
        shuffled.reverse();
        assert_eq!(merge_chunks(shuffled).unwrap(), r);
    }

    #[test]
    fn merge_rejects_incomplete_frame_sets() {
        let mut r = Response::new(Some(7), "solve_ok");
        r.selection = Some((0..10).collect());
        let mut frames = r.into_chunks(3);
        frames.remove(2);
        assert!(merge_chunks(frames).is_none());
        assert!(merge_chunks(Vec::new()).is_none());
    }

    #[test]
    fn reward_bits_survive_the_wire() {
        // A value whose decimal form does not round-trip through a
        // short float literal: exercise exact bit preservation.
        let reward = f64::from_bits(0x4093_4800_0000_0001);
        let mut r = Response::new(Some(1), "solve_ok");
        r.reward = Some(reward);
        let back = Response::parse(&r.to_line()).unwrap();
        assert_eq!(back.reward.unwrap().to_bits(), reward.to_bits());
    }
}

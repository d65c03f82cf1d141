//! Transport-independent request handling.
//!
//! A [`Service`] owns the solver configuration, the scenario→instance
//! cache, and the aggregate counters. Transports (stdio, TCP, or the
//! in-process `mmph batch` driver) feed it *rounds* of requests —
//! everything queued at dispatch time, up to `max_batch` — and get
//! back exactly one [`Response`] per input, in input order.
//!
//! Dispatching a whole round at once is what lets the daemon reuse the
//! batch pipeline unchanged: the round becomes one
//! [`BatchRunner::run_budgeted`] call, so adjacent identical requests
//! share an engine build and every worker keeps its
//! [`SolveScratch`](mmph_core::SolveScratch) arena — the same
//! amortizations `mmph batch` gets, now under sustained request
//! traffic. Per-request deadlines ride along as [`SolveBudget`]s; a
//! tripped budget degrades that request (prefix selection, `degraded`
//! status), a panicking worker becomes an `error` response, and
//! neither ever stalls the round.
//!
//! Overload and disconnects are handled *before* a worker is burned:
//! queueing delay is measured per request and subtracted from its
//! effective deadline (a request whose positive deadline the queue
//! already ate is shed as `overloaded` with a `retry_after_ms` hint),
//! and a request whose connection [`CancelToken`] has tripped — the
//! client hung up or stopped reading — is answered degraded without
//! solving. Tokens also thread into the [`SolveBudget`], so a
//! disconnect mid-solve abandons the remaining rounds at the next
//! eval check and returns the committed prefix.

use std::time::{Duration, Instant};

use mmph_core::{
    solve_coreset, solve_sharded, BatchReport, BatchResult, BatchRunner, CancelToken,
    CoresetConfig, EngineKind, IncrementalInstance, Instance, OracleStrategy, Pipeline,
    ResolveConfig, ShardConfig, SolveBudget, SolveScratch, SolveStatus, DEFAULT_SPARSE_CAP_BYTES,
};
use mmph_sim::{parse_spec, validate_scenario, Scenario};

use crate::envelope::{salvage_id, Request, Response, ServiceStats};
use crate::{Result, ServeError};

/// How many scenario→instance pairs the service keeps generated.
/// Streams of repeated scenarios (the serving workload) hit the cache;
/// a varied stream regenerates at most one instance per request.
const INSTANCE_CACHE: usize = 4;

/// Tunables shared by every transport.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Default candidate-argmax strategy when a request has no
    /// `solver` override.
    pub strategy: OracleStrategy,
    /// Default reward engine when a request has no `engine` override.
    pub engine: EngineKind,
    /// Scratch/engine reuse (the warm batch pipeline). `false` is the
    /// cold per-request baseline.
    pub warm: bool,
    /// Budget applied to requests that carry none of their own.
    pub default_budget: SolveBudget,
    /// Most requests drained into one dispatch round by the
    /// transports. Larger rounds amortize better; smaller rounds
    /// bound per-request queueing delay.
    pub max_batch: usize,
    /// Dispatch-backlog depth at which transports shed the newest
    /// queued requests with `overloaded` responses instead of letting
    /// the queue grow without bound.
    pub queue_cap: usize,
    /// Per-connection in-flight cap (TCP): a connection with this many
    /// unanswered requests gets further lines shed at the reader,
    /// before they consume global queue space.
    pub per_conn_inflight: usize,
    /// Back-off hint stamped on every `overloaded` response.
    pub retry_after_ms: u64,
    /// TCP write timeout in milliseconds; a client that cannot absorb
    /// its responses within this window is treated as disconnected
    /// (its connection token trips, abandoning its pending work).
    /// `0` disables the timeout.
    pub write_timeout_ms: u64,
    /// Sparse-engine memory cap handed to the large-n pipelines: a
    /// `solve` whose engine resolves to `auto` and whose CSR estimate
    /// busts this cap escalates to the coreset pipeline instead of
    /// silently solving every point on a CSR-free engine.
    pub sparse_cap_bytes: usize,
    /// Selections longer than this stream back as multiple chunked
    /// frames (see [`Response::into_chunks`]); `0` disables chunking.
    pub chunk_selection: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            strategy: OracleStrategy::Lazy,
            engine: EngineKind::Sparse,
            warm: true,
            default_budget: SolveBudget::unlimited(),
            max_batch: 64,
            queue_cap: 1024,
            per_conn_inflight: 64,
            retry_after_ms: 25,
            write_timeout_ms: 2000,
            sparse_cap_bytes: DEFAULT_SPARSE_CAP_BYTES,
            chunk_selection: 4096,
        }
    }
}

/// Parses a request-level solver name. `greedy2`/`seq` is the eager
/// sequential argmax, `lazy` the CELF oracle, `par` the rayon argmax.
pub fn parse_solver(raw: &str) -> Result<OracleStrategy> {
    match raw {
        "greedy2" | "seq" => Ok(OracleStrategy::Seq),
        "lazy" => Ok(OracleStrategy::Lazy),
        "par" => Ok(OracleStrategy::Par),
        other => Err(ServeError::Protocol(format!(
            "unknown solver `{other}` (known: greedy2, lazy, par)"
        ))),
    }
}

/// One queued line with the instant the transport read it; latency in
/// the response is measured from `received`.
#[derive(Debug)]
pub struct Incoming {
    /// The raw NDJSON line.
    pub line: String,
    /// When the transport read it off the wire.
    pub received: Instant,
    /// The originating connection's cancel token; `None` for
    /// transports without disconnect semantics (stdio, in-process).
    pub cancel: Option<CancelToken>,
}

impl Incoming {
    /// Wraps a line, stamping it now.
    pub fn now(line: String) -> Self {
        Incoming {
            line,
            received: Instant::now(),
            cancel: None,
        }
    }

    /// Wraps a line carrying its connection's cancel token.
    pub fn with_cancel(line: String, cancel: CancelToken) -> Self {
        Incoming {
            line,
            received: Instant::now(),
            cancel: Some(cancel),
        }
    }
}

/// What one round item turns into before the solve pass runs.
enum Plan {
    /// Control op or error: the response is already known.
    Ready(Box<Response>),
    /// Solve request `slot` positions into the round's solve stream.
    Solve { slot: usize, id: u64 },
}

/// A solve extracted from a request, pre-generation.
struct SolveItem {
    instance: Instance<2>,
    budget: SolveBudget,
    strategy: OracleStrategy,
    engine: EngineKind,
    received: Instant,
    queue_delay: Duration,
}

/// What `prepare_solve` decided for a well-formed solve request.
enum Prepared {
    /// Admitted: run it through the round's solve pass.
    Solve(Box<SolveItem>),
    /// Answered without solving: the queue ate its deadline
    /// (`overloaded`) or its connection is gone (degraded, cancelled).
    Ready(Box<Response>),
}

/// One dispatched item: the parse outcome (or the ready error
/// response), the instant the transport read it, and its connection's
/// cancel token.
type ParsedItem = (
    std::result::Result<Request, Response>,
    Instant,
    Option<CancelToken>,
);

/// The service's tracked incremental instance: the state behind the
/// `mutate`/`resolve` ops. One per service — the serving analogue of a
/// long-lived solver process watching one evolving population.
struct Tracked {
    inc: IncrementalInstance<2>,
    scratch: SolveScratch,
}

/// The transport-independent request handler. See the module docs.
pub struct Service {
    config: ServiceConfig,
    stats: ServiceStats,
    cache: Vec<(Scenario, Instance<2>)>,
    tracked: Option<Tracked>,
    shutdown: bool,
}

impl Service {
    /// A service with the given tunables.
    pub fn new(config: ServiceConfig) -> Self {
        Service {
            config,
            stats: ServiceStats::default(),
            cache: Vec::new(),
            tracked: None,
            shutdown: false,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// True once a `shutdown` request has been handled; transports
    /// drain their queues and exit when they observe this.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Handles one round of raw lines: exactly one response per input,
    /// in input order. Never fails — malformed lines become `error`
    /// responses (correlated via best-effort id salvage).
    pub fn handle_lines(&mut self, batch: &[Incoming]) -> Vec<Response> {
        self.stats.received += batch.len() as u64;
        let parsed: Vec<ParsedItem> = batch
            .iter()
            .map(|inc| {
                let item = Request::parse(&inc.line)
                    .map_err(|e| Response::error(salvage_id(&inc.line), e.to_string()));
                (item, inc.received, inc.cancel.clone())
            })
            .collect();
        self.dispatch(parsed)
    }

    /// Handles one round of already-parsed requests (the in-process
    /// transport used by `mmph batch`). Stamps every request with the
    /// same receive instant, `now`.
    pub fn handle_requests(&mut self, requests: Vec<Request>, now: Instant) -> Vec<Response> {
        self.stats.received += requests.len() as u64;
        let parsed = requests
            .into_iter()
            .map(|r| {
                (
                    r.validate()
                        .map_err(|e| Response::error(None, e.to_string())),
                    now,
                    None,
                )
            })
            .collect();
        self.dispatch(parsed)
    }

    /// The dispatch core shared by both entry points.
    fn dispatch(&mut self, parsed: Vec<ParsedItem>) -> Vec<Response> {
        let mut plans: Vec<Plan> = Vec::with_capacity(parsed.len());
        let mut solves: Vec<SolveItem> = Vec::new();
        for (item, received, cancel) in parsed {
            let req = match item {
                Ok(req) => req,
                Err(resp) => {
                    plans.push(Plan::Ready(Box::new(resp)));
                    continue;
                }
            };
            match req.op.as_str() {
                "ping" => plans.push(Plan::Ready(Box::new(Response::new(Some(req.id), "pong")))),
                "stats" => {
                    let mut resp = Response::new(Some(req.id), "stats_ok");
                    resp.stats = Some(self.stats.clone());
                    plans.push(Plan::Ready(Box::new(resp)));
                }
                "shutdown" => {
                    self.shutdown = true;
                    plans.push(Plan::Ready(Box::new(Response::new(Some(req.id), "bye"))));
                }
                "mutate" => {
                    let resp = match self.handle_mutate(&req) {
                        Ok(resp) => resp,
                        Err(e) => Response::error(Some(req.id), e.to_string()),
                    };
                    plans.push(Plan::Ready(Box::new(resp)));
                }
                "resolve" => {
                    let resp = self.handle_resolve(&req, received, cancel);
                    plans.push(Plan::Ready(Box::new(resp)));
                }
                "solve" => match self.prepare_solve(&req, received, cancel) {
                    Ok(Prepared::Solve(item)) => {
                        solves.push(*item);
                        plans.push(Plan::Solve {
                            slot: solves.len() - 1,
                            id: req.id,
                        });
                    }
                    Ok(Prepared::Ready(resp)) => plans.push(Plan::Ready(resp)),
                    Err(e) => plans.push(Plan::Ready(Box::new(Response::error(
                        Some(req.id),
                        e.to_string(),
                    )))),
                },
                // validate() already rejected anything else.
                other => plans.push(Plan::Ready(Box::new(Response::error(
                    Some(req.id),
                    format!("unknown op `{other}`"),
                )))),
            }
        }

        let solved = self.run_solves(&solves);
        let out: Vec<Response> = plans
            .into_iter()
            .map(|plan| match plan {
                Plan::Ready(resp) => *resp,
                Plan::Solve { slot, id } => Self::solve_response(
                    id,
                    &solved[slot],
                    solves[slot].received,
                    solves[slot].queue_delay,
                ),
            })
            .collect();
        for resp in &out {
            match resp.op.as_str() {
                "error" => self.stats.errors += 1,
                "overloaded" => self.stats.shed += 1,
                "mutate_ok" => self.stats.mutations += 1,
                "resolve_ok" => {
                    if resp.status.as_deref() == Some("completed") {
                        self.stats.solved += 1;
                        if resp.warm == Some(true) {
                            self.stats.warm_resolves += 1;
                        }
                    } else {
                        self.stats.degraded += 1;
                        if resp.degrade_reason.as_deref() == Some("solve cancelled") {
                            self.stats.cancelled += 1;
                        }
                    }
                }
                "solve_ok" => {
                    if resp.status.as_deref() == Some("completed") {
                        self.stats.solved += 1;
                    } else {
                        self.stats.degraded += 1;
                        // Cancelled solves are a subset of `degraded`.
                        if resp.degrade_reason.as_deref() == Some("solve cancelled") {
                            self.stats.cancelled += 1;
                        }
                    }
                    if resp.engine_reused == Some(true) {
                        self.stats.engines_reused += 1;
                    }
                }
                _ => {}
            }
        }
        self.stats.responded += out.len() as u64;
        out
    }

    /// Resolves one solve request to an instance + budget + config, or
    /// to an immediate response when queueing already decided its
    /// fate. The solver, engine and pipeline knobs are checked before
    /// the instance is generated, so a malformed request is rejected
    /// without paying for its points. A tripped connection token means
    /// the client is gone (degraded, no solve), and a *positive*
    /// deadline fully consumed by queueing delay is shed as
    /// `overloaded` without burning a worker. A zero deadline stays an explicit empty-prefix probe
    /// and degrades through the clock as before. Otherwise queueing
    /// delay is subtracted from the effective deadline so
    /// `deadline_ms` bounds end-to-end latency, not just solve time.
    fn prepare_solve(
        &mut self,
        req: &Request,
        received: Instant,
        cancel: Option<CancelToken>,
    ) -> Result<Prepared> {
        let scenario = Self::scenario_from(req)?.ok_or_else(|| {
            ServeError::Protocol("solve request needs a `scenario` or a `spec`".into())
        })?;
        validate_scenario(&scenario)?;
        let strategy = match &req.solver {
            Some(name) => parse_solver(name)?,
            None => self.config.strategy,
        };
        let engine = match &req.engine {
            Some(name) => EngineKind::parse(name).map_err(ServeError::Protocol)?,
            None => self.config.engine,
        };
        let requested = Pipeline::requested(req.coreset_cells, req.shards)?;
        let instance = self.instance_for(&scenario)?;
        let queue_delay = received.elapsed();
        if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            return Ok(Prepared::Ready(Box::new(Self::cancelled_response(
                req.id,
                &instance,
                received,
                queue_delay,
            ))));
        }
        let mut budget = self.config.default_budget.clone();
        if req.deadline_ms.is_some() || req.max_evals.is_some() {
            budget = SolveBudget::unlimited();
            if let Some(ms) = req.deadline_ms {
                budget = budget.with_deadline_ms(ms);
            }
            if let Some(cap) = req.max_evals {
                budget = budget.with_max_evals(cap);
            }
        }
        if let Some(deadline) = budget.deadline() {
            if !deadline.is_zero() {
                match deadline.checked_sub(queue_delay).filter(|d| !d.is_zero()) {
                    Some(left) => budget = budget.with_deadline(left),
                    None => {
                        let mut resp =
                            Response::overloaded(Some(req.id), self.config.retry_after_ms);
                        resp.queue_ms = Some(queue_delay.as_secs_f64() * 1e3);
                        resp.latency_us = Some(received.elapsed().as_micros() as u64);
                        return Ok(Prepared::Ready(Box::new(resp)));
                    }
                }
            }
        }
        if let Some(token) = cancel {
            budget = budget.with_cancel(token);
        }
        // Explicit pipeline request, or an `auto` engine whose CSR
        // estimate busts the sparse cap: answer through the large-n
        // pipeline instead of the direct batch path.
        let pipeline = requested.for_instance(&instance, engine, self.config.sparse_cap_bytes);
        if pipeline != Pipeline::Direct {
            let resp = self.pipeline_response(
                req.id,
                pipeline,
                &instance,
                budget,
                strategy,
                engine,
                received,
                queue_delay,
            )?;
            return Ok(Prepared::Ready(Box::new(resp)));
        }
        Ok(Prepared::Solve(Box::new(SolveItem {
            instance,
            budget,
            strategy,
            engine,
            received,
            queue_delay,
        })))
    }

    /// Runs one solve through a large-n pipeline — coreset reduction
    /// or shard-then-merge — and maps the report onto the solve wire
    /// shape with the pipeline extras (`pipeline`, `coreset_n`, `gap`, `centers`)
    /// filled in. Pipelines run inline on the dispatch thread: they
    /// parallelize internally, so fanning them out per-request would
    /// only oversubscribe the pool.
    #[allow(clippy::too_many_arguments)]
    fn pipeline_response(
        &self,
        id: u64,
        pipeline: Pipeline,
        instance: &Instance<2>,
        budget: SolveBudget,
        strategy: OracleStrategy,
        engine: EngineKind,
        received: Instant,
        queue_delay: Duration,
    ) -> Result<Response> {
        let solve_start = Instant::now();
        let mut resp = Response::new(Some(id), "solve_ok");
        resp.n = Some(instance.n());
        resp.k = Some(instance.k());
        resp.engine_reused = Some(false);
        let degraded = if let Pipeline::Shard(shards) = pipeline {
            let cfg = ShardConfig {
                shards,
                engine,
                strategy,
                budget,
                cap_bytes: self.config.sparse_cap_bytes,
                parallel: true,
            };
            let report = solve_sharded(instance, &cfg)?;
            resp.pipeline = Some("shard".into());
            resp.reward = Some(report.objective);
            resp.selection = Some(report.selection);
            resp.centers = Some(report.centers.iter().map(|p| p.0).collect());
            report.degraded
        } else {
            let Pipeline::Coreset(cells_per_radius) = pipeline else {
                unreachable!("direct solves take the batch path")
            };
            let cfg = CoresetConfig {
                cells_per_radius,
                engine,
                strategy,
                budget,
                cap_bytes: self.config.sparse_cap_bytes,
            };
            let report = solve_coreset(instance, &cfg)?;
            resp.pipeline = Some("coreset".into());
            resp.coreset_n = Some(report.coreset_n as u64);
            resp.gap = Some(report.gap);
            resp.evals = Some(report.evals);
            resp.reward = Some(report.full_objective);
            resp.selection = Some(report.selection);
            resp.centers = Some(report.centers.iter().map(|p| p.0).collect());
            report.degraded
        };
        match degraded {
            Some(reason) => {
                resp.status = Some("degraded".into());
                resp.degrade_reason = Some(reason.to_string());
            }
            None => resp.status = Some("completed".into()),
        }
        resp.solve_us = Some(solve_start.elapsed().as_micros() as u64);
        resp.latency_us = Some(received.elapsed().as_micros() as u64);
        resp.queue_ms = Some(queue_delay.as_secs_f64() * 1e3);
        Ok(resp)
    }

    /// The scenario a request names, inline or by spec; `None` when it
    /// names neither, an error when it names both or the spec expands
    /// to more than one scenario.
    fn scenario_from(req: &Request) -> Result<Option<Scenario>> {
        match (&req.scenario, &req.spec) {
            (Some(sc), None) => Ok(Some(sc.clone())),
            (None, Some(spec)) => {
                let spec = parse_spec(spec)?;
                if spec.count != 1 || spec.repeat != 1 {
                    return Err(ServeError::Protocol(
                        "a solve request names exactly one scenario (count=repeat=1)".into(),
                    ));
                }
                Ok(Some(spec.scenarios().remove(0)))
            }
            (Some(_), Some(_)) => Err(ServeError::Protocol(
                "request carries both `scenario` and `spec`; pick one".into(),
            )),
            (None, None) => Ok(None),
        }
    }

    /// `mutate`: initialize the tracked incremental instance from the
    /// request's scenario (when given) and/or patch it with the
    /// request's deltas, in order. Initialization and patching compose
    /// in one request; a request carrying neither is an error.
    fn handle_mutate(&mut self, req: &Request) -> Result<Response> {
        let scenario = Self::scenario_from(req)?;
        if scenario.is_none() && req.deltas.is_none() {
            return Err(ServeError::Protocol(
                "mutate request needs a `scenario`/`spec` to track and/or `deltas` to apply".into(),
            ));
        }
        if let Some(scenario) = scenario {
            validate_scenario(&scenario)?;
            let kind = match &req.engine {
                Some(name) => EngineKind::parse(name).map_err(ServeError::Protocol)?,
                None => self.config.engine,
            };
            let instance = self.instance_for(&scenario)?;
            self.tracked = Some(Tracked {
                inc: IncrementalInstance::new(instance, kind)?,
                scratch: SolveScratch::new(),
            });
        }
        let tracked = self.tracked.as_mut().ok_or_else(|| {
            ServeError::Protocol(
                "no tracked instance: send a mutate with a `scenario` first".into(),
            )
        })?;
        if let Some(deltas) = &req.deltas {
            tracked.inc.apply_churn(deltas)?;
        }
        let mut resp = Response::new(Some(req.id), "mutate_ok");
        resp.n = Some(tracked.inc.instance().n());
        resp.k = Some(tracked.inc.instance().k());
        resp.churn_version = Some(tracked.inc.churn_version());
        Ok(resp)
    }

    /// `resolve`: warm re-solve the tracked instance. Shed/cancel
    /// semantics match `solve`: a connection that already hung up gets
    /// a degraded response without burning the solver, a positive
    /// deadline the queue consumed is shed as `overloaded`, and a
    /// token tripping mid-solve degrades the response while the
    /// pending churn (and the previous seed) survive for the next
    /// clean resolve.
    fn handle_resolve(
        &mut self,
        req: &Request,
        received: Instant,
        cancel: Option<CancelToken>,
    ) -> Response {
        let queue_delay = received.elapsed();
        let Some(tracked) = self.tracked.as_mut() else {
            return Response::error(
                Some(req.id),
                "no tracked instance: send a mutate with a `scenario` first",
            );
        };
        if let Some(ms) = req.deadline_ms {
            if ms > 0 && queue_delay >= Duration::from_millis(ms) {
                let mut resp = Response::overloaded(Some(req.id), self.config.retry_after_ms);
                resp.queue_ms = Some(queue_delay.as_secs_f64() * 1e3);
                resp.latency_us = Some(received.elapsed().as_micros() as u64);
                return resp;
            }
        }
        let cfg = ResolveConfig {
            cancel: cancel.clone(),
            ..ResolveConfig::default()
        };
        let solve_start = Instant::now();
        let outcome = tracked.inc.resolve(&mut tracked.scratch, &cfg);
        let solve_us = solve_start.elapsed().as_micros() as u64;
        let mut resp = Response::new(Some(req.id), "resolve_ok");
        if outcome.cancelled {
            resp.status = Some("degraded".into());
            resp.degrade_reason = Some(mmph_core::DegradeReason::Cancelled.to_string());
        } else {
            resp.status = Some("completed".into());
        }
        resp.n = Some(tracked.inc.instance().n());
        resp.k = Some(tracked.inc.instance().k());
        resp.reward = Some(outcome.reward);
        resp.selection = Some(outcome.selection);
        resp.evals = Some(outcome.evals);
        resp.warm = Some(outcome.warm);
        resp.churn_version = Some(outcome.churn_version);
        resp.solve_us = Some(solve_us);
        resp.latency_us = Some(received.elapsed().as_micros() as u64);
        resp.queue_ms = Some(queue_delay.as_secs_f64() * 1e3);
        resp
    }

    /// The response for a request whose connection died before its
    /// solve started: same shape as a budget-degraded solve (empty
    /// prefix, `degraded`/`solve cancelled`), zero evals burned.
    fn cancelled_response(
        id: u64,
        instance: &Instance<2>,
        received: Instant,
        queue_delay: Duration,
    ) -> Response {
        let mut resp = Response::new(Some(id), "solve_ok");
        resp.status = Some("degraded".into());
        resp.degrade_reason = Some(mmph_core::DegradeReason::Cancelled.to_string());
        resp.reward = Some(0.0);
        resp.selection = Some(Vec::new());
        resp.n = Some(instance.n());
        resp.k = Some(instance.k());
        resp.evals = Some(0);
        resp.engine_reused = Some(false);
        resp.solve_us = Some(0);
        resp.latency_us = Some(received.elapsed().as_micros() as u64);
        resp.queue_ms = Some(queue_delay.as_secs_f64() * 1e3);
        resp
    }

    /// Builds and counts an `overloaded` response for a request shed
    /// at dispatch (backlog past `queue_cap`). `received` stamps
    /// `queue_ms` so the client sees how long the line waited before
    /// being refused.
    pub fn shed_response(&mut self, id: Option<u64>, received: Instant) -> Response {
        self.stats.received += 1;
        self.stats.shed += 1;
        self.stats.responded += 1;
        let mut resp = Response::overloaded(id, self.config.retry_after_ms);
        resp.queue_ms = Some(received.elapsed().as_secs_f64() * 1e3);
        resp
    }

    /// Folds in requests a transport shed on its own threads (TCP
    /// readers answer per-connection cap violations directly, without
    /// routing through dispatch).
    pub fn record_transport_sheds(&mut self, n: u64) {
        self.stats.received += n;
        self.stats.shed += n;
        self.stats.responded += n;
    }

    /// Generates (or recalls) the instance a scenario pins. The cache
    /// is MRU-ordered and returns *clones of one generation*, so
    /// repeated scenarios are `==` by pointer-free structural equality
    /// and the batch layer's adjacent-identical engine reuse fires.
    fn instance_for(&mut self, scenario: &Scenario) -> Result<Instance<2>> {
        if let Some(pos) = self.cache.iter().position(|(sc, _)| sc == scenario) {
            let entry = self.cache.remove(pos);
            let inst = entry.1.clone();
            self.cache.push(entry);
            return Ok(inst);
        }
        let inst = scenario.generate_2d()?;
        if self.cache.len() == INSTANCE_CACHE {
            self.cache.remove(0);
        }
        self.cache.push((scenario.clone(), inst.clone()));
        Ok(inst)
    }

    /// Runs the round's solve stream through the batch pipeline.
    /// Consecutive items with the same (strategy, engine) form one
    /// `run_budgeted` call; results come back aligned with `solves`.
    fn run_solves(&self, solves: &[SolveItem]) -> Vec<BatchResult> {
        let mut out: Vec<BatchResult> = Vec::with_capacity(solves.len());
        let mut i = 0;
        while i < solves.len() {
            let (strategy, engine) = (solves[i].strategy, solves[i].engine);
            let mut j = i + 1;
            while j < solves.len() && solves[j].strategy == strategy && solves[j].engine == engine {
                j += 1;
            }
            let seg = &solves[i..j];
            let instances: Vec<Instance<2>> = seg.iter().map(|s| s.instance.clone()).collect();
            let budgets: Vec<SolveBudget> = seg.iter().map(|s| s.budget.clone()).collect();
            let runner = BatchRunner::new()
                .with_strategy(strategy)
                .with_engine(engine)
                .with_warm(self.config.warm);
            let report = runner.run_budgeted(&instances, &budgets);
            out.extend(report.results);
            i = j;
        }
        out
    }

    /// Maps one batch result into its wire response.
    fn solve_response(
        id: u64,
        result: &BatchResult,
        received: Instant,
        queue_delay: Duration,
    ) -> Response {
        let mut resp = if let Some(msg) = &result.error {
            Response::error(Some(id), format!("solve panicked: {msg}"))
        } else {
            let mut r = Response::new(Some(id), "solve_ok");
            match &result.status {
                SolveStatus::Completed => r.status = Some("completed".into()),
                SolveStatus::Degraded { reason } => {
                    r.status = Some("degraded".into());
                    r.degrade_reason = Some(reason.to_string());
                }
            }
            r.reward = Some(result.reward);
            r.selection = Some(result.selection.clone());
            r
        };
        resp.n = Some(result.n);
        resp.k = Some(result.k);
        resp.evals = Some(result.evals);
        resp.engine_reused = Some(result.engine_reused);
        resp.solve_us = Some(result.solve_nanos / 1_000);
        resp.latency_us = Some(received.elapsed().as_micros() as u64);
        resp.queue_ms = Some(queue_delay.as_secs_f64() * 1e3);
        resp
    }
}

/// Rebuilds a [`BatchReport`] from solve responses so serve-side
/// streams can be pinned against `mmph batch` with
/// [`mmph_core::verify_reports`]. Responses are ordered by
/// `in_reply_to`, which the batch driver assigns as the 0-based stream
/// position. Control responses are rejected; error responses become
/// error entries (empty selection), matching the batch layer's
/// panic-isolation shape.
pub fn report_from_responses(
    responses: &[Response],
    wall_nanos: u64,
    workers: usize,
    warm: bool,
) -> Result<BatchReport> {
    let mut sorted: Vec<&Response> = responses.iter().collect();
    for r in &sorted {
        if r.op != "solve_ok" && r.op != "error" {
            return Err(ServeError::Protocol(format!(
                "response op `{}` has no batch equivalent",
                r.op
            )));
        }
        if r.in_reply_to.is_none() {
            return Err(ServeError::Protocol(
                "response with no in_reply_to cannot be ordered".into(),
            ));
        }
    }
    sorted.sort_by_key(|r| r.in_reply_to.unwrap());
    let results = sorted
        .iter()
        .map(|r| {
            let status = match r.status.as_deref() {
                Some("completed") | None => SolveStatus::Completed,
                Some(_) => SolveStatus::Degraded {
                    reason: mmph_core::DegradeReason::RungFailed {
                        rung: "service".into(),
                        error: r.degrade_reason.clone().unwrap_or_default(),
                    },
                },
            };
            BatchResult {
                index: r.in_reply_to.unwrap() as usize,
                n: r.n.unwrap_or(0),
                k: r.k.unwrap_or(0),
                reward: r.reward.unwrap_or(0.0),
                evals: r.evals.unwrap_or(0),
                solve_nanos: r.solve_us.unwrap_or(0) * 1_000,
                engine_reused: r.engine_reused.unwrap_or(false),
                status: if r.op == "error" {
                    SolveStatus::Degraded {
                        reason: mmph_core::DegradeReason::RungFailed {
                            rung: "service".into(),
                            error: r.error.clone().unwrap_or_default(),
                        },
                    }
                } else {
                    status
                },
                error: r.error.clone(),
                selection: r.selection.clone().unwrap_or_default(),
            }
        })
        .collect();
    Ok(BatchReport {
        results,
        wall_nanos,
        workers,
        warm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmph_geom::Norm;
    use mmph_sim::WeightScheme;

    fn scenario(seed: u64) -> Scenario {
        Scenario::paper_2d(30, 3, 1.0, Norm::L2, WeightScheme::PAPER_WEIGHTED, seed)
    }

    fn lines(reqs: &[Request]) -> Vec<Incoming> {
        reqs.iter().map(|r| Incoming::now(r.to_line())).collect()
    }

    #[test]
    fn ping_stats_shutdown() {
        let mut svc = Service::new(ServiceConfig::default());
        let batch = lines(&[
            Request::control(1, "ping"),
            Request::control(2, "stats"),
            Request::control(3, "shutdown"),
        ]);
        let out = svc.handle_lines(&batch);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].op, "pong");
        assert_eq!(out[0].in_reply_to, Some(1));
        assert_eq!(out[1].op, "stats_ok");
        assert_eq!(out[1].stats.as_ref().unwrap().received, 3);
        assert_eq!(out[2].op, "bye");
        assert!(svc.shutdown_requested());
    }

    #[test]
    fn solve_round_reuses_engines_and_orders_responses() {
        let mut svc = Service::new(ServiceConfig::default());
        let sc = scenario(5);
        let batch = lines(&[
            Request::solve(10, sc.clone()),
            Request::solve(11, sc.clone()),
            Request::solve(12, scenario(6)),
        ]);
        let out = svc.handle_lines(&batch);
        assert_eq!(out.len(), 3);
        for (resp, id) in out.iter().zip([10u64, 11, 12]) {
            assert_eq!(resp.op, "solve_ok", "{:?}", resp.error);
            assert_eq!(resp.in_reply_to, Some(id));
            assert!(resp.is_completed_solve());
            assert!(resp.latency_us.is_some());
        }
        assert_eq!(
            out[0].selection, out[1].selection,
            "same scenario, same pick"
        );
        assert_eq!(out[1].engine_reused, Some(true), "adjacent identical reuse");
        assert_eq!(svc.stats().solved, 3);
        assert_eq!(svc.stats().engines_reused, 1);
    }

    #[test]
    fn repeated_scenarios_hit_the_instance_cache() {
        let mut svc = Service::new(ServiceConfig::default());
        let sc = scenario(7);
        let a = svc.handle_lines(&lines(&[Request::solve(0, sc.clone())]));
        let b = svc.handle_lines(&lines(&[Request::solve(1, sc.clone())]));
        assert_eq!(a[0].selection, b[0].selection);
        assert_eq!(svc.cache.len(), 1, "one distinct scenario, one entry");
    }

    #[test]
    fn spec_requests_resolve_to_one_scenario() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut req = Request::control(4, "solve");
        req.spec = Some("n=25,k=2,seed=9".into());
        let out = svc.handle_lines(&lines(&[req]));
        assert!(out[0].is_completed_solve(), "{:?}", out[0].error);
        assert_eq!(out[0].n, Some(25));
        assert_eq!(out[0].k, Some(2));

        let mut multi = Request::control(5, "solve");
        multi.spec = Some("n=25,repeat=3".into());
        let out = svc.handle_lines(&lines(&[multi]));
        assert_eq!(out[0].op, "error");
        assert!(out[0].error.as_deref().unwrap().contains("exactly one"));
    }

    #[test]
    fn malformed_and_bad_requests_get_error_responses() {
        let mut svc = Service::new(ServiceConfig::default());
        let batch = vec![
            Incoming::now("not json at all".into()),
            Incoming::now(r#"{"id": 9, "op": "solve""#.into()), // truncated
            Incoming::now(r#"{"id": 8, "op": "solve"}"#.into()), // no scenario
            Incoming::now(Request::solve(7, scenario(1)).to_line()),
        ];
        let out = svc.handle_lines(&batch);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].op, "error");
        assert_eq!(out[0].in_reply_to, None);
        assert_eq!(out[1].op, "error");
        assert_eq!(out[1].in_reply_to, Some(9), "id salvaged from truncation");
        assert_eq!(out[2].op, "error");
        assert!(out[2].error.as_deref().unwrap().contains("scenario"));
        assert!(out[3].is_completed_solve(), "good request still served");
        assert_eq!(svc.stats().errors, 3);
        assert_eq!(svc.stats().solved, 1);
    }

    #[test]
    fn zero_deadline_degrades_without_hanging() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut req = Request::solve(1, scenario(2));
        req.deadline_ms = Some(0);
        let out = svc.handle_lines(&lines(&[req]));
        assert_eq!(out[0].op, "solve_ok");
        assert_eq!(out[0].status.as_deref(), Some("degraded"));
        assert!(out[0]
            .degrade_reason
            .as_deref()
            .unwrap()
            .contains("deadline"));
        assert_eq!(out[0].selection.as_deref(), Some(&[][..]));
        assert_eq!(svc.stats().degraded, 1);
    }

    #[test]
    fn mid_solve_cancellation_frees_the_worker_within_an_eval_check() {
        let mut svc = Service::new(ServiceConfig::default());
        let token = CancelToken::tripping_after(12);
        let line = Request::solve(1, scenario(20)).to_line();
        let out = svc.handle_lines(&[Incoming::with_cancel(line, token)]);
        assert_eq!(out[0].op, "solve_ok");
        assert_eq!(out[0].status.as_deref(), Some("degraded"));
        assert_eq!(out[0].degrade_reason.as_deref(), Some("solve cancelled"));
        // The solve stopped within one eval-check of the trip:
        // post-trip scoring charges no evals, so the reported count
        // can never pass the tripping point.
        assert!(out[0].evals.unwrap() <= 12, "evals: {:?}", out[0].evals);
        assert_eq!(svc.stats().cancelled, 1);
        assert_eq!(svc.stats().degraded, 1);
    }

    #[test]
    fn pre_cancelled_request_skips_the_solve_entirely() {
        let mut svc = Service::new(ServiceConfig::default());
        let token = CancelToken::new();
        token.cancel();
        let line = Request::solve(2, scenario(21)).to_line();
        let out = svc.handle_lines(&[Incoming::with_cancel(line, token)]);
        assert_eq!(out[0].status.as_deref(), Some("degraded"));
        assert_eq!(out[0].degrade_reason.as_deref(), Some("solve cancelled"));
        assert_eq!(out[0].evals, Some(0), "no worker burned");
        assert_eq!(out[0].selection.as_deref(), Some(&[][..]));
        assert_eq!(svc.stats().cancelled, 1);
    }

    #[test]
    fn queue_spent_deadline_sheds_instead_of_solving() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut req = Request::solve(3, scenario(22));
        req.deadline_ms = Some(5);
        // Stamp the request as received 50ms ago: its whole deadline
        // was eaten in the queue, so solving would be wasted work.
        let inc = Incoming {
            line: req.to_line(),
            received: Instant::now() - Duration::from_millis(50),
            cancel: None,
        };
        let out = svc.handle_lines(&[inc]);
        assert_eq!(out[0].op, "overloaded");
        assert_eq!(out[0].in_reply_to, Some(3));
        assert_eq!(out[0].retry_after_ms, Some(svc.config().retry_after_ms));
        assert!(out[0].queue_ms.unwrap() >= 50.0);
        assert_eq!(svc.stats().shed, 1);
        assert_eq!(svc.stats().degraded, 0, "shed, not degraded");
    }

    #[test]
    fn per_request_solver_and_engine_overrides() {
        let mut svc = Service::new(ServiceConfig::default());
        let sc = scenario(11);
        let mut a = Request::solve(0, sc.clone());
        a.solver = Some("greedy2".into());
        a.engine = Some("scan".into());
        let b = Request::solve(1, sc.clone());
        let out = svc.handle_lines(&lines(&[a, b]));
        assert!(out[0].is_completed_solve());
        assert!(out[1].is_completed_solve());
        assert_eq!(
            out[0].selection, out[1].selection,
            "engines are bit-identical"
        );
        assert_eq!(out[1].engine_reused, Some(false), "segment split, no reuse");

        let mut bad = Request::solve(2, sc.clone());
        bad.solver = Some("quantum".into());
        let mut ball = Request::solve(3, sc);
        ball.engine = Some("ball".into());
        let out = svc.handle_lines(&lines(&[bad, ball]));
        assert_eq!(out[0].op, "error");
        assert!(out[0].error.as_deref().unwrap().contains("unknown solver"));
        assert_eq!(out[1].op, "error");
        let msg = out[1].error.as_deref().unwrap();
        assert!(msg.contains("auto|scan|kd|sparse|sparse-f32"), "{msg}");
    }

    #[test]
    fn coreset_request_reports_pipeline_fields() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut req = Request::solve(1, scenario(30));
        req.coreset_cells = Some(6.0);
        let out = svc.handle_lines(&lines(&[req]));
        assert!(out[0].is_completed_solve(), "{:?}", out[0].error);
        assert_eq!(out[0].pipeline.as_deref(), Some("coreset"));
        assert!(out[0].coreset_n.unwrap() >= 1);
        assert!(out[0].gap.unwrap() >= 0.0);
        assert!(out[0].reward.unwrap() > 0.0);
        assert_eq!(
            out[0].centers.as_ref().unwrap().len(),
            out[0].selection.as_ref().unwrap().len(),
            "centers ride parallel to selection"
        );
        assert_eq!(svc.stats().solved, 1);
    }

    #[test]
    fn shard_request_reports_pipeline_fields() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut req = Request::solve(2, scenario(31));
        req.shards = Some(3);
        let out = svc.handle_lines(&lines(&[req]));
        assert!(out[0].is_completed_solve(), "{:?}", out[0].error);
        assert_eq!(out[0].pipeline.as_deref(), Some("shard"));
        assert_eq!(out[0].selection.as_ref().unwrap().len(), 3);
        assert_eq!(out[0].centers.as_ref().unwrap().len(), 3);
        assert!(out[0].reward.unwrap() > 0.0);
    }

    #[test]
    fn both_pipeline_knobs_rejected() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut req = Request::solve(3, scenario(32));
        req.coreset_cells = Some(4.0);
        req.shards = Some(2);
        let out = svc.handle_lines(&lines(&[req]));
        assert_eq!(out[0].op, "error");
        assert!(out[0]
            .error
            .as_deref()
            .unwrap()
            .contains("pick one pipeline"));
        assert!(svc.cache.is_empty(), "rejected before generating points");
    }

    #[test]
    fn auto_engine_past_cap_escalates_to_coreset() {
        // A 1-byte cap makes every CSR estimate bust it: an `auto`
        // request must escalate to the coreset pipeline, not silently
        // fall back to a CSR-free engine.
        let mut svc = Service::new(ServiceConfig {
            sparse_cap_bytes: 1,
            ..ServiceConfig::default()
        });
        let mut req = Request::solve(4, scenario(33));
        req.engine = Some("auto".into());
        let out = svc.handle_lines(&lines(&[req]));
        assert!(out[0].is_completed_solve(), "{:?}", out[0].error);
        assert_eq!(out[0].pipeline.as_deref(), Some("coreset"));

        // An explicit engine never escalates.
        let mut direct = Request::solve(5, scenario(33));
        direct.engine = Some("kd".into());
        let out = svc.handle_lines(&lines(&[direct]));
        assert!(out[0].is_completed_solve());
        assert_eq!(out[0].pipeline, None);
    }

    #[test]
    fn report_from_responses_matches_direct_batch() {
        let sc = scenario(13);
        let insts: Vec<Instance<2>> = vec![
            sc.generate_2d().unwrap(),
            sc.generate_2d().unwrap(),
            scenario(14).generate_2d().unwrap(),
        ];
        let direct = BatchRunner::new().run(&insts);

        let mut svc = Service::new(ServiceConfig::default());
        let reqs = vec![
            Request::solve(0, sc.clone()),
            Request::solve(1, sc),
            Request::solve(2, scenario(14)),
        ];
        let responses = svc.handle_requests(reqs, Instant::now());
        let report = report_from_responses(&responses, 0, 1, true).unwrap();
        mmph_core::verify_reports(&direct, &report).unwrap();
    }
}

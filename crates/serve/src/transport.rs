//! Byte movers: NDJSON over stdio and over TCP.
//!
//! Both transports are thin: they read lines, stamp them with a
//! receive instant, and feed *rounds* (everything queued, up to
//! `max_batch`) into one [`Service`]. All solver behavior — engine
//! reuse, budgets, panic isolation — lives below the transport, which
//! is what keeps `mmph batch` and `mmph serve` on one code path.
//!
//! Overload never grows the dispatch backlog past
//! `ServiceConfig::queue_cap`: each round first sheds the *newest*
//! queued lines with `overloaded` responses (the oldest have waited
//! longest and must not be starved), then serves the oldest
//! `max_batch`. The shed/served split of [`admission_round`] is a pure
//! function of the backlog order — no randomness, no clocks — so a
//! given arrival sequence always partitions the same way. TCP
//! additionally sheds at the reader when a single connection exceeds
//! `per_conn_inflight` unanswered requests, before those lines consume
//! shared queue space, and trips the connection's
//! [`CancelToken`](mmph_core::CancelToken) on disconnect or a jammed
//! write so queued and in-flight solves are abandoned instead of
//! computed into a dead socket.
//!
//! Shutdown is cooperative everywhere: stdin EOF, a `shutdown`
//! request, or a tripped [`ShutdownFlag`] (SIGINT) all drain the
//! already-queued requests, flush responses, and return the final
//! stats — in-flight work is answered, never dropped.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use mmph_core::CancelToken;

use crate::envelope::{salvage_id, Response, ServiceStats};
use crate::service::{Incoming, Service};
use crate::signals::ShutdownFlag;
use crate::Result;

/// How long a dispatcher blocks waiting for the first event of a
/// round before re-checking the shutdown flag.
const DISPATCH_POLL: Duration = Duration::from_millis(50);

/// Runs one round through the service and writes the responses,
/// splitting any response whose selection exceeds the configured
/// chunk threshold into multiple frames.
fn write_round(service: &mut Service, batch: &[Incoming], out: &mut dyn Write) -> Result<()> {
    if batch.is_empty() {
        return Ok(());
    }
    let chunk = service.config().chunk_selection;
    for resp in service.handle_lines(batch) {
        for frame in resp.into_chunks(chunk) {
            writeln!(out, "{}", frame.to_line())?;
        }
    }
    out.flush()?;
    Ok(())
}

/// One admission + dispatch round over the queued backlog: sheds the
/// newest lines past `queue_cap` with `overloaded` responses, then
/// serves the oldest `max_batch`. Leftovers stay queued for the next
/// round. Deterministic given the backlog contents (see module docs).
fn admission_round(
    service: &mut Service,
    backlog: &mut VecDeque<Incoming>,
    out: &mut dyn Write,
) -> Result<()> {
    let queue_cap = service.config().queue_cap.max(1);
    let max_batch = service.config().max_batch.max(1);
    while backlog.len() > queue_cap {
        let inc = backlog.pop_back().expect("backlog longer than cap");
        let resp = service.shed_response(salvage_id(&inc.line), inc.received);
        writeln!(out, "{}", resp.to_line())?;
    }
    let take = max_batch.min(backlog.len());
    let round: Vec<Incoming> = backlog.drain(..take).collect();
    write_round(service, &round, out)?;
    out.flush()?;
    Ok(())
}

/// Serves NDJSON requests from `reader` (stdin in production, any
/// buffered reader in tests), writing responses to `out`. Returns the
/// final stats when the input reaches EOF, a `shutdown` request is
/// handled, or `shutdown` trips — in every case the already-queued
/// requests are answered (served or shed per admission control) and
/// `out` is flushed first.
pub fn serve_stdio<R>(
    service: &mut Service,
    reader: R,
    out: &mut dyn Write,
    shutdown: &ShutdownFlag,
) -> Result<ServiceStats>
where
    R: Read + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<Incoming>();
    // The reader thread is detached on purpose: a blocking read of
    // stdin cannot be interrupted, so shutdown must not wait on it.
    thread::spawn(move || {
        let buf = BufReader::new(reader);
        for line in buf.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            if tx.send(Incoming::now(line)).is_err() {
                break;
            }
        }
    });

    let mut backlog: VecDeque<Incoming> = VecDeque::new();
    loop {
        if shutdown.is_tripped() {
            break;
        }
        // Block only while idle; with work queued, rounds run
        // back-to-back and new lines ride along each drain.
        if backlog.is_empty() {
            match rx.recv_timeout(DISPATCH_POLL) {
                Ok(first) => backlog.push_back(first),
                Err(RecvTimeoutError::Timeout) => continue,
                // Reader hit EOF and the queue is fully drained.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        while let Ok(inc) = rx.try_recv() {
            backlog.push_back(inc);
        }
        admission_round(service, &mut backlog, out)?;
        if service.shutdown_requested() {
            break;
        }
    }

    // Final drain: answer whatever was queued before the stop signal,
    // still under the cap so a flooded queue cannot stall exit.
    loop {
        while let Ok(inc) = rx.try_recv() {
            backlog.push_back(inc);
        }
        if backlog.is_empty() {
            break;
        }
        admission_round(service, &mut backlog, out)?;
    }
    out.flush()?;
    Ok(service.stats().clone())
}

/// TCP transport tunables.
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Bind address, e.g. `127.0.0.1:7311`.
    pub addr: String,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        TcpServerConfig {
            addr: "127.0.0.1:7311".into(),
        }
    }
}

/// One event from the accept thread or a connection reader thread.
enum ConnEvent {
    Accepted(TcpStream),
    Line { conn: u64, inc: Incoming },
    Closed { conn: u64 },
}

/// Dispatcher-side connection state.
struct ConnState {
    /// Shared with the connection's reader thread, which writes
    /// `overloaded` responses for reader-shed lines directly.
    writer: Arc<Mutex<TcpStream>>,
    /// Trips when the client disconnects or stops absorbing writes.
    token: CancelToken,
    /// Admitted-but-unanswered lines from this connection.
    inflight: Arc<AtomicUsize>,
}

/// Immutable context the dispatcher hands each new connection.
struct ConnCtx {
    tx: Sender<ConnEvent>,
    per_conn_inflight: usize,
    retry_after_ms: u64,
    write_timeout: Option<Duration>,
    /// Reader-side sheds, folded into the service stats every round.
    reader_sheds: Arc<AtomicU64>,
}

/// Locks a connection writer, recovering the guard if a previous
/// holder panicked — a poisoned stream is still a valid stream.
fn lock_writer(writer: &Mutex<TcpStream>) -> std::sync::MutexGuard<'_, TcpStream> {
    match writer.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Spawns the reader thread for a newly accepted connection and
/// registers its dispatcher-side state.
fn spawn_conn(
    stream: TcpStream,
    conn: u64,
    conns: &mut HashMap<u64, ConnState>,
    ctx: &ConnCtx,
) -> Result<()> {
    stream.set_nodelay(true).ok();
    if let Some(t) = ctx.write_timeout {
        stream.set_write_timeout(Some(t)).ok();
    }
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let token = CancelToken::new();
    let inflight = Arc::new(AtomicUsize::new(0));
    conns.insert(
        conn,
        ConnState {
            writer: Arc::clone(&writer),
            token: token.clone(),
            inflight: Arc::clone(&inflight),
        },
    );
    let tx = ctx.tx.clone();
    let per_conn = ctx.per_conn_inflight.max(1);
    let retry_after = ctx.retry_after_ms;
    let sheds = Arc::clone(&ctx.reader_sheds);
    // Detached: exits when the client closes or the dispatcher drops
    // its receiver on the way out.
    thread::spawn(move || {
        let buf = BufReader::new(stream);
        for line in buf.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            if inflight.load(Ordering::Relaxed) >= per_conn {
                // Per-connection cap: refuse at the reader, before the
                // line consumes shared queue space or a worker.
                sheds.fetch_add(1, Ordering::Relaxed);
                let resp = Response::overloaded(salvage_id(&line), retry_after);
                let mut w = lock_writer(&writer);
                if writeln!(w, "{}", resp.to_line())
                    .and_then(|_| w.flush())
                    .is_err()
                {
                    break;
                }
                continue;
            }
            inflight.fetch_add(1, Ordering::Relaxed);
            if tx
                .send(ConnEvent::Line {
                    conn,
                    inc: Incoming::with_cancel(line, token.clone()),
                })
                .is_err()
            {
                return;
            }
        }
        // The client hung up (or its socket died): abandon this
        // connection's queued and in-flight work.
        token.cancel();
        let _ = tx.send(ConnEvent::Closed { conn });
    });
    Ok(())
}

/// Writes one response to its connection, releasing the in-flight
/// slot. A selection past `chunk` entries goes out as multiple frames
/// (`chunk` of `0` disables splitting). A write failure means the
/// client is gone or jammed past its write timeout: the connection
/// token trips (abandoning its queued and in-flight solves) and the
/// writer is dropped.
fn route_response(conns: &mut HashMap<u64, ConnState>, conn: u64, resp: &Response, chunk: usize) {
    let Some(st) = conns.get(&conn) else { return };
    st.inflight.fetch_sub(1, Ordering::Relaxed);
    let mut w = lock_writer(&st.writer);
    let mut ok = Ok(());
    for frame in resp.clone().into_chunks(chunk) {
        ok = writeln!(w, "{}", frame.to_line());
        if ok.is_err() {
            break;
        }
    }
    let ok = ok.and_then(|_| w.flush());
    drop(w);
    if ok.is_err() {
        st.token.cancel();
        conns.remove(&conn);
    }
}

/// Unblocks the accept thread so it can observe the stop flag: a
/// throwaway self-connection is the portable way to interrupt a
/// blocking `accept`.
fn wake_acceptor(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
}

/// Serves NDJSON requests over TCP. Every connection gets a reader
/// thread feeding one shared queue; the dispatch loop batches lines
/// from *all* connections into admission-controlled service rounds
/// (so concurrent clients still amortize engine builds) and routes
/// each response back to the connection its request came from.
/// Returns the final stats once a `shutdown` request is handled or
/// `shutdown` trips; the queued backlog is drained (served or shed)
/// before returning.
pub fn serve_tcp(
    service: &mut Service,
    listener: TcpListener,
    shutdown: &ShutdownFlag,
) -> Result<ServiceStats> {
    let local_addr = listener.local_addr()?;
    let (tx, rx) = mpsc::channel::<ConnEvent>();
    let accept_stop = Arc::new(AtomicBool::new(false));
    {
        let tx = tx.clone();
        let stop = Arc::clone(&accept_stop);
        // Blocking accept thread; `recv_timeout` on the unified event
        // queue replaces the old fixed idle sleep, so accepted
        // connections and first lines wake the dispatcher immediately.
        thread::spawn(move || {
            while let Ok((stream, _peer)) = listener.accept() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if tx.send(ConnEvent::Accepted(stream)).is_err() {
                    break;
                }
            }
        });
    }

    let cfg = service.config();
    let ctx = ConnCtx {
        tx,
        per_conn_inflight: cfg.per_conn_inflight,
        retry_after_ms: cfg.retry_after_ms,
        write_timeout: match cfg.write_timeout_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        reader_sheds: Arc::new(AtomicU64::new(0)),
    };
    let queue_cap = cfg.queue_cap.max(1);
    let max_batch = cfg.max_batch.max(1);
    let chunk_selection = cfg.chunk_selection;

    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_conn: u64 = 0;
    let mut backlog: VecDeque<(u64, Incoming)> = VecDeque::new();
    let mut stopping = false;

    let mut handle_event = |ev: ConnEvent,
                            conns: &mut HashMap<u64, ConnState>,
                            backlog: &mut VecDeque<(u64, Incoming)>,
                            stopping: bool|
     -> Result<()> {
        match ev {
            ConnEvent::Accepted(stream) => {
                // Late arrivals during drain are turned away by
                // closing the socket; accepting them would let a
                // persistent client stall shutdown forever.
                if !stopping {
                    let conn = next_conn;
                    next_conn += 1;
                    spawn_conn(stream, conn, conns, &ctx)?;
                }
            }
            ConnEvent::Line { conn, inc } => backlog.push_back((conn, inc)),
            ConnEvent::Closed { conn } => {
                // The reader already tripped the token; queued lines
                // from this connection resolve cheaply as cancelled.
                conns.remove(&conn);
            }
        }
        Ok(())
    };

    loop {
        if shutdown.is_tripped() && !stopping {
            stopping = true;
            wake_acceptor(&accept_stop, local_addr);
        }
        if backlog.is_empty() && !stopping {
            match rx.recv_timeout(DISPATCH_POLL) {
                Ok(ev) => handle_event(ev, &mut conns, &mut backlog, stopping)?,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        while let Ok(ev) = rx.try_recv() {
            handle_event(ev, &mut conns, &mut backlog, stopping)?;
        }
        service.record_transport_sheds(ctx.reader_sheds.swap(0, Ordering::Relaxed));

        // Admission control: refuse the newest lines past the cap.
        while backlog.len() > queue_cap {
            let (conn, inc) = backlog.pop_back().expect("backlog longer than cap");
            let resp = service.shed_response(salvage_id(&inc.line), inc.received);
            route_response(&mut conns, conn, &resp, chunk_selection);
        }

        if backlog.is_empty() {
            if stopping {
                break;
            }
            continue;
        }

        let take = max_batch.min(backlog.len());
        let (ids, batch): (Vec<u64>, Vec<Incoming>) = backlog.drain(..take).unzip();
        let responses = service.handle_lines(&batch);
        for (conn, resp) in ids.iter().zip(&responses) {
            route_response(&mut conns, *conn, resp, chunk_selection);
        }
        if service.shutdown_requested() && !stopping {
            stopping = true;
            wake_acceptor(&accept_stop, local_addr);
        }
    }
    service.record_transport_sheds(ctx.reader_sheds.swap(0, Ordering::Relaxed));
    // Close every surviving connection so clients reading to EOF (and
    // our own blocked reader threads) observe the server going away.
    for st in conns.values() {
        lock_writer(&st.writer)
            .shutdown(std::net::Shutdown::Both)
            .ok();
    }
    Ok(service.stats().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{Request, Response};
    use crate::service::ServiceConfig;
    use mmph_geom::Norm;
    use mmph_sim::{Scenario, WeightScheme};
    use std::io::Cursor;

    fn scenario(seed: u64) -> Scenario {
        Scenario::paper_2d(25, 3, 1.0, Norm::L2, WeightScheme::PAPER_WEIGHTED, seed)
    }

    /// Big enough that a solve takes milliseconds — long enough for a
    /// test client to disconnect or flood while it runs.
    fn slow_scenario(seed: u64) -> Scenario {
        Scenario::paper_2d(800, 10, 1.0, Norm::L2, WeightScheme::PAPER_WEIGHTED, seed)
    }

    fn script(reqs: &[Request]) -> Cursor<Vec<u8>> {
        let mut s = String::new();
        for r in reqs {
            s.push_str(&r.to_line());
            s.push('\n');
        }
        Cursor::new(s.into_bytes())
    }

    fn parse_out(buf: &[u8]) -> Vec<Response> {
        String::from_utf8(buf.to_vec())
            .unwrap()
            .lines()
            .map(|l| Response::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn stdio_eof_drains_answers_everything_and_returns() {
        let mut svc = Service::new(ServiceConfig::default());
        let reqs = vec![
            Request::control(1, "ping"),
            Request::solve(2, scenario(1)),
            Request::solve(3, scenario(1)),
        ];
        let mut out = Vec::new();
        let stats = serve_stdio(&mut svc, script(&reqs), &mut out, &ShutdownFlag::new()).unwrap();
        let responses = parse_out(&out);
        assert_eq!(responses.len(), 3, "EOF drained every request");
        assert_eq!(responses[0].op, "pong");
        assert!(responses[1].is_completed_solve());
        assert!(responses[2].is_completed_solve());
        assert_eq!(stats.received, 3);
        assert_eq!(stats.responded, 3);
    }

    #[test]
    fn stdio_shutdown_request_answers_bye_and_exits() {
        let mut svc = Service::new(ServiceConfig::default());
        let reqs = vec![
            Request::solve(1, scenario(2)),
            Request::control(2, "shutdown"),
        ];
        let mut out = Vec::new();
        let stats = serve_stdio(&mut svc, script(&reqs), &mut out, &ShutdownFlag::new()).unwrap();
        let responses = parse_out(&out);
        assert!(responses.iter().any(|r| r.op == "bye"));
        assert!(responses.iter().any(|r| r.is_completed_solve()));
        assert_eq!(stats.responded, 2);
    }

    /// A script that trips `flag` when the reader thread reaches EOF.
    /// `BufReader` reads again only once its buffer is drained, so by
    /// then the thread has queued every line of the script.
    struct TripAtEof {
        script: Cursor<Vec<u8>>,
        flag: ShutdownFlag,
    }

    impl Read for TripAtEof {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.script.read(buf)?;
            if n == 0 {
                self.flag.trip();
            }
            Ok(n)
        }
    }

    #[test]
    fn stdio_tripped_flag_still_drains_queued_lines() {
        let reqs = vec![Request::control(1, "ping"), Request::control(2, "ping")];
        let flag = ShutdownFlag::new();
        // The flag trips with both lines queued, whether or not the
        // dispatch loop has picked either up yet.
        let reader = TripAtEof {
            script: script(&reqs),
            flag: flag.clone(),
        };
        let mut svc = Service::new(ServiceConfig::default());
        let mut out = Vec::new();
        serve_stdio(&mut svc, reader, &mut out, &flag).unwrap();
        let responses = parse_out(&out);
        assert!(flag.is_tripped());
        assert_eq!(responses.len(), 2, "queued pings answered before exit");
    }

    #[test]
    fn stdio_huge_selection_streams_as_chunks() {
        let mut svc = Service::new(ServiceConfig {
            chunk_selection: 2,
            ..ServiceConfig::default()
        });
        // k=3 selections against a 2-entry chunk cap: two frames.
        let reqs = vec![Request::solve(1, scenario(4))];
        let mut out = Vec::new();
        serve_stdio(&mut svc, script(&reqs), &mut out, &ShutdownFlag::new()).unwrap();
        let responses = parse_out(&out);
        assert_eq!(responses.len(), 2, "one solve, two frames");
        assert_eq!(responses[0].chunk, Some(0));
        assert_eq!(responses[1].chunk, Some(1));
        assert_eq!(responses[1].reward, None, "scalars ride frame 0 only");
        let merged = crate::envelope::merge_chunks(responses).unwrap();
        assert!(merged.is_completed_solve());
        assert_eq!(merged.selection.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn admission_round_partition_is_deterministic() {
        // The shed/served split is a pure function of backlog order:
        // newest past the cap are shed, oldest max_batch served.
        let run = || {
            let mut svc = Service::new(ServiceConfig {
                queue_cap: 3,
                max_batch: 2,
                ..ServiceConfig::default()
            });
            let mut backlog: VecDeque<Incoming> = (1..=8)
                .map(|id| Incoming::now(Request::control(id, "ping").to_line()))
                .collect();
            let mut out = Vec::new();
            admission_round(&mut svc, &mut backlog, &mut out).unwrap();
            assert_eq!(
                backlog
                    .iter()
                    .map(|i| salvage_id(&i.line).unwrap())
                    .collect::<Vec<_>>(),
                vec![3],
                "only the under-cap leftover stays queued"
            );
            parse_out(&out)
                .iter()
                .map(|r| (r.op.clone(), r.in_reply_to.unwrap()))
                .collect::<Vec<_>>()
        };
        let first = run();
        let shed: Vec<u64> = first
            .iter()
            .filter(|(op, _)| op == "overloaded")
            .map(|(_, id)| *id)
            .collect();
        let served: Vec<u64> = first
            .iter()
            .filter(|(op, _)| op == "pong")
            .map(|(_, id)| *id)
            .collect();
        assert_eq!(shed, vec![8, 7, 6, 5, 4], "newest shed first");
        assert_eq!(served, vec![1, 2], "oldest served first");
        assert_eq!(first, run(), "identical backlog, identical partition");
    }

    #[test]
    fn stdio_flood_past_queue_cap_sheds_with_retry_hint() {
        let mut svc = Service::new(ServiceConfig {
            queue_cap: 3,
            max_batch: 2,
            retry_after_ms: 7,
            ..ServiceConfig::default()
        });
        // A slow head-of-line solve lets the remaining lines pile up
        // past the cap while it runs.
        let mut reqs = vec![Request::solve(0, slow_scenario(1))];
        reqs.extend((1..=10).map(|id| Request::control(id, "ping")));
        let mut out = Vec::new();
        let stats = serve_stdio(&mut svc, script(&reqs), &mut out, &ShutdownFlag::new()).unwrap();
        let responses = parse_out(&out);
        assert_eq!(responses.len(), 11, "exactly one response per request");
        let mut ids: Vec<u64> = responses.iter().map(|r| r.in_reply_to.unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..=10).collect::<Vec<_>>(), "every id answered once");
        let shed: Vec<&Response> = responses.iter().filter(|r| r.op == "overloaded").collect();
        assert!(!shed.is_empty(), "flood past the cap must shed");
        for r in &shed {
            assert_eq!(r.retry_after_ms, Some(7));
            assert!(r.queue_ms.is_some());
        }
        assert_eq!(stats.shed, shed.len() as u64);
        assert_eq!(stats.received, 11);
        assert_eq!(stats.responded, 11);

        // A client that resends what was shed gets through: resend the
        // shed ids, then whatever is shed again, for up to 16 rounds.
        let mut pending: Vec<u64> = shed.iter().map(|r| r.in_reply_to.unwrap()).collect();
        for _ in 0..16 {
            if pending.is_empty() {
                break;
            }
            let resend: Vec<Request> = pending
                .iter()
                .map(|&id| reqs[id as usize].clone())
                .collect();
            let mut out = Vec::new();
            serve_stdio(&mut svc, script(&resend), &mut out, &ShutdownFlag::new()).unwrap();
            let answers = parse_out(&out);
            assert_eq!(answers.len(), resend.len(), "one answer per resent id");
            pending = answers
                .iter()
                .filter(|r| r.op == "overloaded")
                .map(|r| r.in_reply_to.unwrap())
                .collect();
        }
        assert!(
            pending.is_empty(),
            "still shed after 16 resends: {pending:?}"
        );
    }

    #[test]
    fn tcp_round_trips_and_shuts_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut svc = Service::new(ServiceConfig::default());
            serve_tcp(&mut svc, listener, &ShutdownFlag::new()).unwrap()
        });

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut send = move |req: &Request| {
            writer.write_all(req.to_line().as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
        };
        send(&Request::control(7, "ping"));
        send(&Request::solve(8, scenario(3)));
        let mut reader = BufReader::new(stream);
        let mut read_resp = move || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Response::parse(&line).unwrap()
        };
        let pong = read_resp();
        assert_eq!(pong.op, "pong");
        assert_eq!(pong.in_reply_to, Some(7));
        let solved = read_resp();
        assert!(solved.is_completed_solve(), "{:?}", solved.error);
        assert_eq!(solved.in_reply_to, Some(8));
        assert!(solved.latency_us.is_some());
        assert!(solved.queue_ms.is_some());

        send(&Request::control(9, "shutdown"));
        let bye = read_resp();
        assert_eq!(bye.op, "bye");
        let stats = server.join().unwrap();
        assert_eq!(stats.responded, 3);
        assert_eq!(stats.solved, 1);
    }

    #[test]
    fn tcp_two_clients_get_their_own_answers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut svc = Service::new(ServiceConfig::default());
            serve_tcp(&mut svc, listener, &ShutdownFlag::new()).unwrap()
        });

        let exchange = move |id: u64| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all((Request::solve(id, scenario(id)).to_line() + "\n").as_bytes())
                .unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Response::parse(&line).unwrap()
        };
        let a = thread::spawn(move || exchange(100));
        let b = thread::spawn(move || exchange(200));
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        assert_eq!(ra.in_reply_to, Some(100));
        assert_eq!(rb.in_reply_to, Some(200));
        assert!(ra.is_completed_solve() && rb.is_completed_solve());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all((Request::control(1, "shutdown").to_line() + "\n").as_bytes())
            .unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert_eq!(Response::parse(&line).unwrap().op, "bye");
        server.join().unwrap();
    }

    #[test]
    fn tcp_disconnect_abandons_queued_and_inflight_work() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut svc = Service::new(ServiceConfig::default());
            serve_tcp(&mut svc, listener, &ShutdownFlag::new()).unwrap()
        });

        // Two slow solves, then hang up without reading a byte. The
        // reader thread's EOF trips the connection token: whichever
        // solve is in flight abandons at its next eval check and the
        // queued one never burns a worker.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all((Request::solve(1, slow_scenario(5)).to_line() + "\n").as_bytes())
                .unwrap();
            stream
                .write_all((Request::solve(2, slow_scenario(6)).to_line() + "\n").as_bytes())
                .unwrap();
            // dropped here: disconnect
        }
        // Let the server chew through the round before shutting down.
        thread::sleep(Duration::from_millis(50));
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all((Request::control(9, "shutdown").to_line() + "\n").as_bytes())
            .unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert_eq!(Response::parse(&line).unwrap().op, "bye");
        let stats = server.join().unwrap();
        assert!(
            stats.cancelled >= 1,
            "disconnect must cancel at least the queued solve (stats: {stats:?})"
        );
        assert_eq!(stats.received, 3);
        assert_eq!(stats.responded, 3);
    }

    #[test]
    fn tcp_per_conn_inflight_cap_sheds_at_the_reader() {
        // The test is the dispatcher: it owns the event channel the
        // reader thread feeds, so the admitted solve holds the
        // connection's one in-flight slot until the test answers it,
        // which it does only after the reader has shed all five pings.
        let mut svc = Service::new(ServiceConfig {
            per_conn_inflight: 1,
            retry_after_ms: 13,
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let ctx = ConnCtx {
            tx,
            per_conn_inflight: svc.config().per_conn_inflight,
            retry_after_ms: svc.config().retry_after_ms,
            write_timeout: None,
            reader_sheds: Arc::new(AtomicU64::new(0)),
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conns = HashMap::new();
        spawn_conn(server_side, 0, &mut conns, &ctx).unwrap();
        let dispatch = |svc: &mut Service, conns: &mut HashMap<u64, ConnState>| {
            let Ok(ConnEvent::Line { conn: 0, inc }) = rx.recv() else {
                panic!("expected an admitted line from connection 0");
            };
            svc.record_transport_sheds(ctx.reader_sheds.swap(0, Ordering::Relaxed));
            let resp = svc.handle_lines(&[inc]).remove(0);
            route_response(conns, 0, &resp, 0);
        };

        let mut writer = stream.try_clone().unwrap();
        let mut send = |req: &Request| {
            writer.write_all((req.to_line() + "\n").as_bytes()).unwrap();
        };
        let mut reader = BufReader::new(stream);
        let mut read_resp = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Response::parse(&line).unwrap()
        };
        send(&Request::solve(0, scenario(7)));
        for id in 1..=5u64 {
            send(&Request::control(id, "ping"));
        }
        for id in 1..=5u64 {
            let resp = read_resp();
            assert_eq!(resp.op, "overloaded", "ping {id} was not shed");
            assert_eq!(resp.in_reply_to, Some(id));
            assert_eq!(resp.retry_after_ms, Some(13));
        }
        dispatch(&mut svc, &mut conns);
        let solved = read_resp();
        assert!(solved.is_completed_solve(), "{:?}", solved.error);
        assert_eq!(solved.in_reply_to, Some(0));

        send(&Request::control(9, "shutdown"));
        dispatch(&mut svc, &mut conns);
        assert_eq!(read_resp().op, "bye");
        assert!(svc.shutdown_requested());
        let stats = svc.stats();
        assert_eq!(
            stats.shed, 5,
            "every ping behind the cap shed at the reader"
        );
        assert_eq!(stats.solved, 1);
        assert_eq!(stats.received, 7, "reader sheds count as received");
    }
}

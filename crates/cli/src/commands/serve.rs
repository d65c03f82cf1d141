//! `mmph serve` — run the solver as a long-lived NDJSON daemon.
//!
//! Same dispatch path as `mmph batch` ([`mmph_serve::Service`]), behind
//! a transport: newline-delimited JSON requests on stdin with responses
//! on stdout (the default), or the same protocol over TCP with
//! `--tcp ADDR`. SIGINT, stdin EOF, and the `shutdown` op all drain
//! in-flight requests before exiting 0.

use std::io::{Read, Write};
use std::net::TcpListener;

use mmph_serve::{install_sigint_flag, serve_stdio, serve_tcp, Service, ServiceStats};

use crate::args;
use crate::commands::batch::service_config_from_flags;
use crate::Result;

const HELP: &str = "\
mmph serve — request/response solve daemon (NDJSON protocol)

USAGE:
  mmph serve [OPTIONS]                 stdin/stdout transport
  mmph serve --tcp 127.0.0.1:7311      TCP transport

REQUESTS (one JSON object per line):
  {\"id\":1,\"op\":\"solve\",\"spec\":\"n=500,k=8,seed=3\",\"deadline_ms\":50}
  {\"id\":2,\"op\":\"solve\",\"scenario\":{...full scenario document...}}
  {\"id\":3,\"op\":\"ping\"} | {\"id\":4,\"op\":\"stats\"} | {\"id\":5,\"op\":\"shutdown\"}

Every response echoes the request id as `in_reply_to`; solve responses
carry status (completed|degraded), selection, reward, evals, and
latency_us. Budget expiry degrades a request (prefix selection), it
never hangs the daemon.

OPTIONS:
  --tcp ADDR       listen on ADDR instead of stdin/stdout
  --solver NAME    default solver for requests without one [lazy]
  --oracle NAME    seq|par|lazy — overrides the solver's strategy
  --engine NAME    default engine: auto|scan|kd|sparse|sparse-f32|grid [sparse]
  --threads N      worker threads (default: all cores)
  --cold           disable scratch/engine reuse across requests
  --max-batch N    max requests folded into one dispatch round [64]
  --deadline-ms N  default per-request wall-clock budget
  --max-evals N    default per-request evaluation budget
  --queue-cap N    dispatch backlog bound; excess is shed with an
                   `overloaded` response carrying retry_after_ms [1024]
  --max-inflight N per-connection in-flight request cap (TCP) [64]
  --retry-after-ms N   backoff hint attached to shed responses [25]
  --write-timeout-ms N per-connection socket write timeout; a stalled
                       client is disconnected and its work cancelled [2000]
  --chunk-selection N  stream selections longer than N back as multiple
                       chunked frames (0 disables chunking) [4096]
  --help           show this message

Solve requests may carry `coreset_cells` or `shards` to route through
the large-n pipelines; an `auto`-engine request whose CSR estimate
busts the sparse cap escalates to the coreset pipeline on its own.";

fn summarize(stats: &ServiceStats) -> String {
    format!(
        "serve: {} received, {} responded ({} solved, {} degraded, {} errors), {} engine reuses",
        stats.received,
        stats.responded,
        stats.solved,
        stats.degraded,
        stats.errors,
        stats.engines_reused
    )
}

/// Entry point for `mmph serve`: stdio transport reads the real stdin.
/// On the stdio transport stdout carries protocol lines only, so the
/// exit summary goes to stderr.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<()> {
    run_with_reader(argv, std::io::stdin(), out)
}

/// Testable entry point with an injectable request reader (ignored by
/// the TCP transport).
pub fn run_with_reader<R>(argv: &[String], reader: R, out: &mut dyn Write) -> Result<()>
where
    R: Read + Send + 'static,
{
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let flags = args::parse(
        argv,
        &[
            "tcp",
            "solver",
            "oracle",
            "engine",
            "threads",
            "max-batch",
            "deadline-ms",
            "max-evals",
            "queue-cap",
            "max-inflight",
            "retry-after-ms",
            "write-timeout-ms",
            "chunk-selection",
        ],
        &["cold"],
    )?;
    args::install_thread_pool(&flags)?;
    let mut config = service_config_from_flags(&flags)?;
    config.max_batch = flags.get_or("max-batch", config.max_batch)?;
    config.queue_cap = flags.get_or("queue-cap", config.queue_cap)?;
    config.per_conn_inflight = flags.get_or("max-inflight", config.per_conn_inflight)?;
    config.retry_after_ms = flags.get_or("retry-after-ms", config.retry_after_ms)?;
    config.write_timeout_ms = flags.get_or("write-timeout-ms", config.write_timeout_ms)?;
    config.chunk_selection = flags.get_or("chunk-selection", config.chunk_selection)?;
    let mut service = Service::new(config);
    let shutdown = install_sigint_flag();

    let stats = match flags.get("tcp") {
        Some(addr) => {
            let listener = TcpListener::bind(addr)?;
            writeln!(out, "serve: listening on {}", listener.local_addr()?)?;
            out.flush()?;
            serve_tcp(&mut service, listener, &shutdown)?
        }
        None => serve_stdio(&mut service, reader, out, &shutdown)?,
    };
    // stdout is the protocol channel on the stdio transport; the
    // summary goes to stderr so clients never see a non-JSON line.
    eprintln!("{}", summarize(&stats));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CliError;
    use mmph_serve::{Request, Response};
    use std::io::Cursor;

    fn run_script(args: &[&str], script: &str) -> (Result<()>, String) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let r = run_with_reader(&argv, Cursor::new(script.as_bytes().to_vec()), &mut buf);
        (r, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn help_prints() {
        let (r, out) = run_script(&["--help"], "");
        assert!(r.is_ok());
        assert!(out.contains("mmph serve"));
        assert!(out.contains("in_reply_to"));
    }

    #[test]
    fn unknown_flag_rejected() {
        let (r, _) = run_script(&["--udp", "x"], "");
        assert!(matches!(r, Err(CliError::Usage(_))));
        let (r, _) = run_script(&["--par-csr"], "");
        assert!(matches!(r, Err(CliError::Usage(_))), "{r:?}");
    }

    #[test]
    fn stdio_session_solves_and_exits_on_eof() {
        let script = concat!(
            r#"{"id":1,"op":"ping"}"#,
            "\n",
            r#"{"id":2,"op":"solve","spec":"n=30,k=3,seed=4"}"#,
            "\n",
        );
        let (r, out) = run_script(&[], script);
        assert!(r.is_ok(), "{r:?}");
        let responses: Vec<Response> = out.lines().map(|l| Response::parse(l).unwrap()).collect();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].op, "pong");
        assert!(
            responses[1].is_completed_solve(),
            "{:?}",
            responses[1].error
        );
        assert_eq!(responses[1].in_reply_to, Some(2));
    }

    #[test]
    fn stdio_session_honors_shutdown_op() {
        let script = format!("{}\n", Request::control(9, "shutdown").to_line());
        let (r, out) = run_script(&[], &script);
        assert!(r.is_ok(), "{r:?}");
        assert!(out.lines().any(|l| l.contains("\"bye\"")), "{out}");
    }

    #[test]
    fn admission_flags_parse_and_serve_normally() {
        let script = concat!(r#"{"id":7,"op":"solve","spec":"n=30,k=3,seed=4"}"#, "\n");
        let (r, out) = run_script(
            &[
                "--queue-cap",
                "8",
                "--max-inflight",
                "2",
                "--retry-after-ms",
                "5",
                "--write-timeout-ms",
                "500",
            ],
            script,
        );
        assert!(r.is_ok(), "{r:?}");
        let resp = Response::parse(out.lines().next().unwrap()).unwrap();
        assert!(resp.is_completed_solve(), "{:?}", resp.error);
        assert!(resp.queue_ms.is_some(), "responses report queueing delay");
    }

    #[test]
    fn chunk_selection_flag_splits_big_selections() {
        let script = concat!(r#"{"id":5,"op":"solve","spec":"n=40,k=4,seed=2"}"#, "\n");
        let (r, out) = run_script(&["--chunk-selection", "3"], script);
        assert!(r.is_ok(), "{r:?}");
        let frames: Vec<Response> = out.lines().map(|l| Response::parse(l).unwrap()).collect();
        assert_eq!(frames.len(), 2, "k=4 over a 3-entry cap: two frames");
        assert_eq!(frames[0].chunk, Some(0));
        assert_eq!(frames[1].chunk, Some(1));
        let merged = mmph_serve::merge_chunks(frames).unwrap();
        assert!(merged.is_completed_solve(), "{:?}", merged.error);
        assert_eq!(merged.selection.as_ref().unwrap().len(), 4);
    }

    #[test]
    fn pipeline_request_fields_answer_with_pipeline_metadata() {
        let script = concat!(
            r#"{"id":6,"op":"solve","spec":"n=60,k=3,seed=5","coreset_cells":6.0}"#,
            "\n",
        );
        let (r, out) = run_script(&[], script);
        assert!(r.is_ok(), "{r:?}");
        let resp = Response::parse(out.lines().next().unwrap()).unwrap();
        assert!(resp.is_completed_solve(), "{:?}", resp.error);
        assert_eq!(resp.pipeline.as_deref(), Some("coreset"));
        assert!(resp.gap.is_some());
    }

    #[test]
    fn default_budget_flag_applies_to_requests() {
        let script = concat!(r#"{"id":3,"op":"solve","spec":"n=80,k=6,seed=1"}"#, "\n");
        let (r, out) = run_script(&["--max-evals", "20"], script);
        assert!(r.is_ok(), "{r:?}");
        let resp = Response::parse(out.lines().next().unwrap()).unwrap();
        assert_eq!(resp.status.as_deref(), Some("degraded"), "{resp:?}");
    }
}

//! The `mmph serve` child the end-to-end runs drive: spawned from the
//! built binary, spoken to over the versioned NDJSON protocol on stdio
//! or TCP, measured from outside (`VmHWM`), and always reaped.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mmph_serve::{Request, Response};

/// How the harness reaches the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Requests on the child's stdin, responses on its stdout.
    Stdio,
    /// `mmph serve --tcp 127.0.0.1:0`, one client connection.
    Tcp,
}

/// Wire halves of a connection, so a writer and a reader thread can
/// each own one.
pub type Writer = Box<dyn Write + Send>;
/// See [`Writer`].
pub type Reader = Box<dyn BufRead + Send>;

/// A running daemon and the harness's connection to it. Dropping it
/// kills and reaps a child that was not shut down cleanly.
pub struct Daemon {
    child: Child,
    /// Request side of the connection.
    pub writer: Writer,
    /// Response side of the connection.
    pub reader: Reader,
    reaped: bool,
    next_id: u64,
}

/// Ids the harness stamps on its own control requests; workload ids
/// stay below this.
const CONTROL_ID_BASE: u64 = 1 << 62;

impl Daemon {
    /// Spawns `mmph serve` and waits for its first `pong`.
    pub fn start(mmph: &Path, transport: Transport) -> Result<Daemon, String> {
        let mut cmd = Command::new(mmph);
        cmd.arg("serve");
        if transport == Transport::Tcp {
            cmd.args(["--tcp", "127.0.0.1:0"]);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", mmph.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let halves = match transport {
            Transport::Stdio => Ok((Box::new(stdin) as Writer, Box::new(stdout) as Reader)),
            Transport::Tcp => connect_tcp(stdout),
        };
        let (writer, reader) = match halves {
            Ok(h) => h,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut daemon = Daemon {
            child,
            writer,
            reader,
            reaped: false,
            next_id: CONTROL_ID_BASE,
        };
        let ping = daemon.control("ping");
        let pong = daemon.call_line(&ping)?.0;
        if pong.op != "pong" {
            return Err(format!("expected pong, got `{}`", pong.op));
        }
        Ok(daemon)
    }

    fn control(&mut self, op: &str) -> String {
        self.next_id += 1;
        Request::control(self.next_id, op).to_line()
    }

    /// Writes one request line and flushes.
    pub fn send_line(&mut self, line: &str) -> Result<(), String> {
        send_line(&mut self.writer, line)
    }

    /// Reads one response line.
    pub fn recv(&mut self) -> Result<Response, String> {
        recv(&mut self.reader)
    }

    /// One closed-loop round trip: send, wait for the answer, return it
    /// with the client-side wall time.
    pub fn call_line(&mut self, line: &str) -> Result<(Response, Duration), String> {
        let t0 = Instant::now();
        self.send_line(line)?;
        let resp = self.recv()?;
        Ok((resp, t0.elapsed()))
    }

    /// Peak resident set of the child (`VmHWM` from
    /// `/proc/<pid>/status`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Graceful stop: the `shutdown` op must be answered with `bye` and
    /// the process must exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let line = self.control("shutdown");
        let bye = self.call_line(&line)?.0;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        self.reaped = true;
        if bye.op != "bye" || !status.success() {
            return Err(format!("unclean shutdown: `{}`, {status}", bye.op));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Reads the `listening on ADDR` banner `mmph serve --tcp` prints and
/// connects to that address.
fn connect_tcp(
    mut stdout: BufReader<std::process::ChildStdout>,
) -> Result<(Writer, Reader), String> {
    let mut banner = String::new();
    stdout
        .read_line(&mut banner)
        .map_err(|e| format!("daemon banner: {e}"))?;
    let addr = banner.trim().rsplit(' ').next().unwrap_or_default();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect to `{addr}`: {e}"))?;
    stream.set_nodelay(true).ok();
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("socket clone: {e}"))?;
    // Answers arrive within milliseconds; a silent daemon is a failure,
    // not a reason to hang the run.
    read_half
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    Ok((Box::new(stream), Box::new(BufReader::new(read_half))))
}

/// Writes one NDJSON line and flushes.
pub fn send_line(w: &mut Writer, line: &str) -> Result<(), String> {
    w.write_all(line.as_bytes())
        .and_then(|_| w.write_all(b"\n"))
        .and_then(|_| w.flush())
        .map_err(|e| format!("send: {e}"))
}

/// Reads and parses one response line; EOF is an error.
pub fn recv(r: &mut Reader) -> Result<Response, String> {
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => Err("daemon closed the connection".into()),
        Ok(_) => Response::parse(&line).map_err(|e| e.to_string()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// Set-up repeats in an untraced run, which reports their median.
pub const SETUPS: usize = 3;
/// Set-up repeats where set-up is only a process start (under a
/// millisecond each). They pin the run's median; what is left between
/// runs is the host's state, which more repeats do not remove.
pub const CHEAP_SETUPS: usize = 31;

/// Sets the daemon up `count` times, one after another, keeping the
/// last and stopping the others. Set-up is spawn to first `pong` plus
/// `init` (the workload's own preparation, e.g. loading a tracked
/// instance). Returns the daemon, the set-up times in seconds, and the
/// last `init` result.
pub fn set_up<T>(
    mmph: &Path,
    transport: Transport,
    count: usize,
    mut init: impl FnMut(&mut Daemon) -> Result<T, String>,
) -> Result<(Daemon, Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count.max(1) {
        if let Some((prev, _)) = last.take() {
            Daemon::shutdown(prev)?;
        }
        let t0 = Instant::now();
        let mut d = Daemon::start(mmph, transport)?;
        let ready = init(&mut d)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some((d, ready));
    }
    let (d, ready) = last.expect("at least one set-up");
    Ok((d, times, ready))
}

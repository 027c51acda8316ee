//! Served workloads: the real `dls-serve` binary as a child process, an
//! open-loop generator on one connection, and a closed-loop saturation
//! load on two.

use crate::mem::{self, MemStatus};
use crate::oracle::Answers;
use crate::pace::{pace, Paced, Schedule};
use crate::workload::Stream;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long a receiver waits for stragglers after the last due time.
const ANSWER_GRACE: Duration = Duration::from_secs(10);

/// How long a drain may take before the child is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Request lines for one phase, stored back to back.
pub struct Lines {
    text: String,
    ends: Vec<usize>,
}

impl Lines {
    /// Lines `base .. base + n` of `stream`; with `traced`, each carries
    /// the trace id `id + 1`.
    pub fn generate(stream: &dyn Stream, base: i64, n: usize, traced: bool) -> Self {
        let mut lines = Self {
            text: String::new(),
            ends: Vec::with_capacity(n),
        };
        for id in base..base + n as i64 {
            let line = stream.line(id);
            let line = if traced {
                svc::telemetry::inject_trace(&line, id as u64 + 1).expect("request is an object")
            } else {
                line
            };
            lines.text.push_str(&line);
            lines.text.push('\n');
            lines.ends.push(lines.text.len());
        }
        lines
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Line `i`, newline included.
    fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text.as_bytes()[start..self.ends[i]]
    }
}

/// A running `dls-serve` child.
pub struct Server {
    proc: std::process::Child,
    stdout: BufReader<ChildStdout>,
    /// Where it listens (the router, for a fleet).
    pub addr: SocketAddr,
    fleet: bool,
    /// Lines sent to it so far: the drain ledger must account for each.
    pub lines_sent: u64,
}

impl Server {
    /// Spawn `exe` on an ephemeral port and wait until it listens.
    /// `trace` sets `DLS_TRACE` on the child.
    pub fn spawn(exe: &Path, fleet: bool, trace: Option<&Path>) -> Result<Self, String> {
        let mut cmd = Command::new(exe);
        cmd.args(["--addr", "127.0.0.1:0"]);
        if fleet {
            cmd.args(["--fleet", "2", "--workers", "1"]);
        } else {
            cmd.args(["--workers", "2"]);
        }
        match trace {
            Some(path) => cmd.env("DLS_TRACE", path),
            None => cmd.env_remove("DLS_TRACE"),
        };
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut proc = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = BufReader::new(proc.stdout.take().expect("stdout is piped"));
        let mut server = Self {
            proc,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            fleet,
            lines_sent: 0,
        };
        let mut first = String::new();
        server
            .stdout
            .read_line(&mut first)
            .map_err(|e| format!("read dls-serve banner: {e}"))?;
        server.addr = first
            .strip_prefix("dls-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected dls-serve banner {first:?}"))?;
        let health = server.call("{\"op\":\"health\"}")?;
        let ready = if fleet {
            health.contains("\"live_shards\":2")
        } else {
            health.contains("\"state\":\"serving\"")
        };
        if !ready {
            return Err(format!("dls-serve not ready: {health}"));
        }
        Ok(server)
    }

    /// One request/response round trip on a fresh connection.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.lines_sent += 1;
        svc::Client::connect(self.addr)
            .and_then(|mut c| c.call_raw(line))
            .map_err(|e| format!("call {line}: {e}"))
    }

    /// Memory of the child process.
    pub fn mem(&self) -> Result<MemStatus, String> {
        mem::read(Some(self.proc.id())).map_err(|e| format!("read child memory: {e}"))
    }

    /// Send every warm-up line on one connection and record the answers.
    pub fn warm(
        &mut self,
        lines: &[(String, String)],
        answers: &mut Answers,
    ) -> Result<(), String> {
        if lines.is_empty() {
            return Ok(());
        }
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let mut w = BufWriter::new(&stream);
        for (line, _) in lines {
            writeln!(w, "{line}").map_err(|e| format!("send: {e}"))?;
        }
        w.flush().map_err(|e| format!("send: {e}"))?;
        self.lines_sent += lines.len() as u64;
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        for _ in lines {
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("warm-up answer: {e}"))?;
            answers.record_line(line.trim_end());
        }
        Ok(())
    }

    /// Drain the server with a `shutdown` op and check its exit ledger:
    /// every line sent was received and answered, and the child exits 0.
    pub fn shutdown(mut self, problems: &mut Vec<String>) -> Result<(), String> {
        let bye = self.call("{\"op\":\"shutdown\"}")?;
        if !bye.contains("\"draining\"") {
            problems.push(format!("shutdown refused: {bye}"));
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let status: ExitStatus = loop {
            if let Some(status) = self.proc.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if Instant::now() > deadline {
                return Err("dls-serve did not finish its drain".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut tail = String::new();
        self.stdout
            .read_to_string(&mut tail)
            .map_err(|e| format!("read dls-serve exit report: {e}"))?;
        if !status.success() {
            problems.push(format!("dls-serve exited with {status}: {tail}"));
        }
        let field = |prefix: &str, key: &str| -> Option<String> {
            let line = tail.lines().find(|l| l.starts_with(prefix))?;
            let pair = line.split_whitespace().find(|p| p.starts_with(key))?;
            pair.strip_prefix(key)?
                .strip_prefix('=')
                .map(str::to_string)
        };
        let sent = self.lines_sent.to_string();
        let expect = if self.fleet {
            vec![
                ("router drained:", "received", sent.as_str()),
                ("router drained:", "failovers", "0"),
                ("router drained:", "unavailable", "0"),
                ("fleet drained:", "conserved", "true"),
            ]
        } else {
            vec![
                ("drained:", "received", sent.as_str()),
                ("drained:", "conserved", "true"),
            ]
        };
        for (prefix, key, want) in expect {
            let got = field(prefix, key);
            if got.as_deref() != Some(want) {
                problems.push(format!(
                    "drain ledger: {prefix} {key}={got:?}, expected {want} in {tail:?}"
                ));
            }
        }
        Ok(())
    }

    /// Fleet check: the router's forwarding attempts equal the requests
    /// the shards received, less the router's own health probes and the
    /// shards' own `metrics` calls that this check makes.
    pub fn check_forwarding(&mut self, problems: &mut Vec<String>) -> Result<(), String> {
        let number = |body: &str, path: &[&str]| -> Option<f64> {
            let v = minijson::Value::parse(body).ok()?;
            let mut node = v.get("result")?;
            for key in path {
                node = node.get(key)?;
            }
            node.as_f64()
        };
        let before = self.call("{\"op\":\"stats\"}")?;
        let metrics = self.call("{\"op\":\"metrics\"}")?;
        let after = self.call("{\"op\":\"stats\"}")?;
        let (Some(attempts), Some(attempts_after), Some(probes0), Some(probes1)) = (
            number(&before, &["forward_attempts"]),
            number(&after, &["forward_attempts"]),
            number(&before, &["probes"]),
            number(&after, &["probes"]),
        ) else {
            return Err(format!("router stats without counters: {before}"));
        };
        let (Some(received), Some(reporting)) = (
            number(&metrics, &["fleet", "counters", "received"]),
            number(&metrics, &["fleet", "shards_reporting"]),
        ) else {
            return Err(format!("router metrics without fleet counters: {metrics}"));
        };
        // A probe is counted just before it is sent, so one may be in
        // flight when the shards report.
        let probed = received - attempts - reporting;
        if attempts != attempts_after || probed < probes0 - 1.0 || probed > probes1 {
            problems.push(format!(
                "forwarding ledger: {attempts} attempts, {received} received by shards, \
                 {probes0}..{probes1} probes, {reporting} metrics calls"
            ));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
            let _ = self.proc.wait();
        }
    }
}

/// One open-loop phase.
pub struct Phase {
    /// Answers by id.
    pub answers: Answers,
    /// Per request: microseconds from due time to answer (NaN if none).
    pub latency_us: Vec<f64>,
    /// The pacer's lag and achieved rate.
    pub paced: Paced,
}

/// Send `lines` (ids from `base`) at `rate` per second on one connection:
/// a paced sender thread and a receiver thread.
pub fn open_loop(addr: SocketAddr, lines: &Lines, base: i64, rate: f64) -> Result<Phase, String> {
    let n = lines.len();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    read_half
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let schedule = Schedule::new(Instant::now() + Duration::from_millis(2), rate, n);
    let mut answers = Answers::new(base, n);
    let mut latency_us = vec![f64::NAN; n];
    let paced = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut w = BufWriter::with_capacity(1 << 16, &stream);
            pace(&schedule, |batch| {
                for i in batch {
                    w.write_all(lines.get(i))?;
                }
                w.flush()
            })
        });
        let mut reader = BufReader::with_capacity(1 << 16, read_half);
        let mut line = String::new();
        let give_up = schedule.due(n.saturating_sub(1)) + ANSWER_GRACE;
        let mut answered = 0;
        while answered < n && Instant::now() < give_up {
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let now = Instant::now();
                    if let Some(i) = answers.record_line(line.trim_end()) {
                        latency_us[i] = (now - schedule.due(i)).as_secs_f64() * 1e6;
                        answered += 1;
                    }
                    line.clear();
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
        }
        sender.join().expect("sender thread panicked")
    })
    .map_err(|e| format!("send: {e}"))?;
    Ok(Phase {
        answers,
        latency_us,
        paced,
    })
}

/// Closed loop: `conns` connections, each keeping `window` requests in
/// flight, until every line is answered. Returns the answers and the
/// throughput in responses per second.
pub fn saturate(
    addr: SocketAddr,
    lines: &Lines,
    base: i64,
    conns: usize,
    window: usize,
) -> Result<(Answers, f64), String> {
    let n = lines.len();
    let started = Instant::now();
    let per_conn: Vec<Result<Answers, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| scope.spawn(move || closed_loop(addr, lines, base, c, conns, window)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("saturation thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut answers = Answers::new(base, n);
    for a in per_conn {
        answers.merge(a?);
    }
    let rate = answers.answered() as f64 / elapsed;
    Ok((answers, rate))
}

/// One saturation connection: lines `first, first + step, …`.
fn closed_loop(
    addr: SocketAddr,
    lines: &Lines,
    base: i64,
    first: usize,
    step: usize,
    window: usize,
) -> Result<Answers, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(ANSWER_GRACE))
        .map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);
    let mut answers = Answers::new(base, lines.len());
    let mut next = (first..lines.len()).step_by(step);
    let mut inflight = 0;
    let mut line = String::new();
    loop {
        while inflight < window {
            let Some(i) = next.next() else { break };
            w.write_all(lines.get(i))
                .map_err(|e| format!("send: {e}"))?;
            inflight += 1;
        }
        if inflight == 0 {
            return Ok(answers);
        }
        w.flush().map_err(|e| format!("send: {e}"))?;
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return Ok(answers), // missing answers fail the oracle
            Ok(_) => {
                answers.record_line(line.trim_end());
                inflight -= 1;
            }
        }
    }
}

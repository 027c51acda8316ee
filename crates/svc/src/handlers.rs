//! Request parsing and the per-endpoint handlers.
//!
//! The wire protocol is newline-delimited JSON, decoded with
//! [`minijson::Parser`] in one pass: the numeric arrays (`links`, `bids`,
//! `rates`) go straight into `Vec<f64>`, and every other member becomes a
//! [`Value`]. Every request is an object with an `"op"` and an optional
//! integer `"id"` that is echoed verbatim in the response, so clients may
//! pipeline requests and match completions out of order.
//!
//! Work ops (`solve`, `ft_run`) are executed by the worker pool; control
//! ops (`health`, `stats`, `shutdown`) are answered inline by the
//! connection thread so they keep working while the queue is saturated.
//!
//! Solve reports are **canonical-deterministic**: the handler solves the
//! quantized chain ([`crate::quant`]), so the serialized body is a pure
//! function of the cache key and a cache hit returns bytes identical to
//! the cold solve it replaced. Reports are written straight into one
//! `String` with [`minijson::write_number`], with no `Value` tree.

use crate::quant::{self, CanonicalChain};
use crate::stats::Endpoint;
use mechanism::{Agent, DlsLbl};
use minijson::{write_i64, write_number, ParseError, Parser, Value};
use protocol::ft_runner;
use protocol::{FaultPlan, Scenario};
use std::borrow::Cow;

/// A parsed work request, ready for a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkRequest {
    /// Cached DLS-LBL solve + payments on a canonical chain.
    Solve(CanonicalChain),
    /// Fault-injected protocol run.
    FtRun {
        /// Root rate `w_0`.
        root_rate: f64,
        /// True rates `t_1 … t_m`.
        rates: Vec<f64>,
        /// Link rates `z_1 … z_m`.
        links: Vec<f64>,
        /// Scenario RNG seed.
        seed: u64,
        /// Optional single crash `(node, phase, progress)`.
        crash: Option<(usize, u8, f64)>,
    },
}

impl WorkRequest {
    /// Which metering endpoint this request belongs to.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            WorkRequest::Solve(_) => Endpoint::Solve,
            WorkRequest::FtRun { .. } => Endpoint::FtRun,
        }
    }
}

/// A job-queue operation ([`crate::jobs`]). All three carry the chain
/// fields, so a router can map them onto the shard that owns the chain's
/// queue (the routing key is the canonical [`ChainKey`](crate::quant::ChainKey),
/// exactly as for `solve`).
#[derive(Debug, Clone, PartialEq)]
pub enum JobOp {
    /// Enqueue a divisible load on the chain's job queue. The response is
    /// sent at job completion (solve-like blocking semantics).
    Submit {
        /// The canonical chain whose queue the job joins.
        chain: CanonicalChain,
        /// Total load in units of the chain's unit workload.
        load: f64,
        /// Explicit installment count; `None` = the pipelining rule picks.
        rounds: Option<usize>,
        /// Per-installment communication startup.
        comm_startup: f64,
    },
    /// Report a job's lifecycle state.
    Status {
        /// Chain fields, used only for routing.
        chain: CanonicalChain,
        /// The id returned in the submit response / status records.
        job_id: u64,
    },
    /// Cancel a still-queued job.
    Cancel {
        /// Chain fields, used only for routing.
        chain: CanonicalChain,
        /// The id of the queued job to cancel.
        job_id: u64,
    },
}

impl JobOp {
    /// The canonical chain key this op routes by.
    pub fn chain_key(&self) -> &crate::quant::ChainKey {
        match self {
            JobOp::Submit { chain, .. }
            | JobOp::Status { chain, .. }
            | JobOp::Cancel { chain, .. } => &chain.key,
        }
    }
}

/// What a request line asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Dispatch to the worker pool.
    Work(WorkRequest),
    /// A job-queue op, dispatched to the chain's scheduler
    /// ([`crate::jobs`]); `submit_job` answers at completion, `job_status`
    /// and `cancel_job` answer inline.
    Job(JobOp),
    /// Liveness probe (inline).
    Health,
    /// Counters + latency histograms (inline).
    Stats,
    /// Stable JSON + Prometheus-style text exposition of every counter
    /// and latency histogram (inline). The router answers this itself,
    /// aggregating fleet-wide over the shards' own `metrics` bodies.
    Metrics,
    /// Begin graceful drain (inline).
    Shutdown,
    /// Swap runtime tunables (inline, gated like `shutdown`). Today the
    /// only tunable is the solver-cache quantum; changing it drops every
    /// cache entry so a key from the old quantization epoch can never
    /// answer a request from the new one.
    Reconfigure {
        /// New quantization step (`None` = report the current one).
        quantum: Option<f64>,
    },
}

/// Smallest accepted per-request deadline. A `deadline_ms` of 0 would be
/// a guaranteed timeout — a request whose only effect is burning a queue
/// slot — so it is rejected at parse time instead of admitted.
pub const MIN_DEADLINE_MS: u64 = 1;

/// Largest accepted per-request deadline (1 hour): a remote client may
/// not park work in the queue indefinitely.
pub const MAX_DEADLINE_MS: u64 = 3_600_000;

/// Smallest accepted `reconfigure` quantum. Below this, `rate / quantum`
/// overflows [`quant::MAX_TICKS`](crate::quant::MAX_TICKS) for every
/// workload-range rate and the server would reject all solves.
pub const MIN_QUANTUM: f64 = 1e-15;

/// Largest accepted `reconfigure` quantum: a quantum of 1.0 already
/// collapses the whole workload rate range onto a handful of ticks;
/// anything coarser is a configuration error.
pub const MAX_QUANTUM: f64 = 1.0;

/// Smallest accepted `submit_job` load: settlement divides by load-scaled
/// allocations, so degenerate near-zero jobs are rejected at parse time.
pub const MIN_JOB_LOAD: f64 = 1e-6;

/// Largest accepted `submit_job` load.
pub const MAX_JOB_LOAD: f64 = 1e6;

/// Largest accepted explicit `rounds` on `submit_job`.
pub const MAX_JOB_ROUNDS: usize = 64;

/// Largest accepted per-installment `comm_startup`.
pub const MAX_COMM_STARTUP: f64 = 1e3;

/// Largest accepted chain on every op that carries one (`solve`, the job
/// ops and `ft_run`): a solve and its settlement are O(m), a protocol run
/// is O(m) messages whose recovery re-solves residual chains, so one
/// oversized request must not hold a worker past any deadline. Decoding
/// keeps no more than this many numbers of any array, so a 1 MiB array is
/// refused without being built.
pub const MAX_CHAIN_M: usize = 1024;

/// A parsed request envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<i64>,
    /// Per-request deadline override (milliseconds in queue + service),
    /// validated into `[MIN_DEADLINE_MS, MAX_DEADLINE_MS]` at parse time.
    pub deadline_ms: Option<u64>,
    /// Cross-hop trace id. Client-settable; the router injects one into
    /// work requests when tracing is enabled and the field is absent.
    /// Tags every `obs` span/event the request touches on every hop.
    /// Never echoed in responses, so routed-response byte-equality is
    /// unaffected.
    pub trace: Option<u64>,
    /// The operation.
    pub kind: RequestKind,
}

/// A numeric array member as decoded.
#[derive(Debug, Clone, PartialEq)]
enum Numbers {
    /// Not an array.
    NotArray,
    /// An array with an element that is not a number.
    NonNumeric,
    /// An all-numeric array of `len` elements, of which the first
    /// [`MAX_CHAIN_M`] are kept.
    Kept {
        /// The leading elements.
        values: Vec<f64>,
        /// How many elements the array has.
        len: usize,
    },
}

impl Numbers {
    /// The value at the parser's cursor.
    fn decode(p: &mut Parser) -> Result<Self, ParseError> {
        if p.peek() != Some(b'[') {
            p.value()?;
            return Ok(Numbers::NotArray);
        }
        p.begin_array()?;
        let mut values = Vec::new();
        let mut len = 0;
        let mut numeric = true;
        while p.next_element()? {
            if matches!(p.peek(), Some(b'-' | b'0'..=b'9')) {
                let x = p.number()?;
                if len < MAX_CHAIN_M {
                    values.push(x);
                }
            } else {
                p.value()?;
                numeric = false;
            }
            len += 1;
        }
        Ok(if numeric {
            Numbers::Kept { values, len }
        } else {
            Numbers::NonNumeric
        })
    }
}

/// A request line's members: `links`, `bids` and `rates` decoded as
/// [`Numbers`], every other member as a [`Value`]. Lookups see the first
/// member with a key, as [`Value::get`] does; a line that is not an object
/// has no members.
#[derive(Debug, Default, PartialEq)]
struct Fields<'a> {
    members: Vec<(Cow<'a, str>, Value)>,
    links: Option<Numbers>,
    bids: Option<Numbers>,
    rates: Option<Numbers>,
}

impl<'a> Fields<'a> {
    /// Decode a whole line; a syntax error anywhere fails it.
    fn parse(line: &'a str) -> Result<Self, ParseError> {
        let mut p = Parser::new(line);
        let mut fields = Fields::default();
        if p.peek() == Some(b'{') {
            p.begin_object()?;
            while let Some(key) = p.next_key()? {
                match fields.slot(&key) {
                    Some(slot) => {
                        let numbers = Numbers::decode(&mut p)?;
                        slot.get_or_insert(numbers);
                    }
                    None => {
                        let value = p.value()?;
                        fields.members.push((key, value));
                    }
                }
            }
        } else {
            p.value()?;
        }
        p.finish()?;
        Ok(fields)
    }

    fn slot(&mut self, key: &str) -> Option<&mut Option<Numbers>> {
        match key {
            "links" => Some(&mut self.links),
            "bids" => Some(&mut self.bids),
            "rates" => Some(&mut self.rates),
            _ => None,
        }
    }

    fn get(&self, key: &str) -> Option<&Value> {
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

fn f64_field(v: &Fields, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

/// The array field `key`'s kept numbers and its full length.
fn vec_field<'s>(slot: &'s Option<Numbers>, key: &str) -> Result<(&'s [f64], usize), String> {
    match slot {
        Some(Numbers::Kept { values, len }) => Ok((values, *len)),
        Some(Numbers::NonNumeric) => Err(format!("non-numeric entry in {key:?}")),
        None | Some(Numbers::NotArray) => Err(format!("missing or non-array field {key:?}")),
    }
}

/// Parse one request line. `quantum` is the solver-cache quantization
/// step. Errors carry the request's `id` when one was parseable, so the
/// error response stays matchable by pipelining clients.
pub fn parse_request(line: &str, quantum: f64) -> Result<Request, (Option<i64>, String)> {
    let fields = Fields::parse(line).map_err(|e| (None, e.to_string()))?;
    let id = fields.get("id").and_then(Value::as_i64);
    parse_envelope(&fields, quantum, id).map_err(|msg| (id, msg))
}

fn parse_envelope(v: &Fields, quantum: f64, id: Option<i64>) -> Result<Request, String> {
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(d) => Some(
            d.as_u64()
                .filter(|ms| (MIN_DEADLINE_MS..=MAX_DEADLINE_MS).contains(ms))
                .ok_or_else(|| {
                    format!(
                        "deadline_ms must be an integer in [{MIN_DEADLINE_MS}, {MAX_DEADLINE_MS}]"
                    )
                })?,
        ),
    };
    // A malformed trace id is dropped, not rejected: tracing is advisory
    // and must never change a request's outcome.
    let trace = v.get("trace").and_then(Value::as_u64).filter(|&t| t > 0);
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field \"op\"".to_string())?;
    let kind = match op {
        "health" => RequestKind::Health,
        "stats" => RequestKind::Stats,
        "metrics" => RequestKind::Metrics,
        "shutdown" => RequestKind::Shutdown,
        "reconfigure" => {
            let quantum = match v.get("quantum") {
                None | Some(Value::Null) => None,
                Some(q) => Some(
                    q.as_f64()
                        .filter(|&q| q.is_finite() && (MIN_QUANTUM..=MAX_QUANTUM).contains(&q))
                        .ok_or_else(|| {
                            format!("quantum must be a number in [{MIN_QUANTUM:e}, {MAX_QUANTUM}]")
                        })?,
                ),
            };
            RequestKind::Reconfigure { quantum }
        }
        "solve" => RequestKind::Work(WorkRequest::Solve(parse_chain(v, op, quantum)?)),
        "submit_job" => {
            let chain = parse_chain(v, op, quantum)?;
            let load = match v.get("load") {
                None | Some(Value::Null) => 1.0,
                Some(l) => l
                    .as_f64()
                    .filter(|l| l.is_finite() && (MIN_JOB_LOAD..=MAX_JOB_LOAD).contains(l))
                    .ok_or_else(|| {
                        format!("load must be a number in [{MIN_JOB_LOAD:e}, {MAX_JOB_LOAD:e}]")
                    })?,
            };
            let rounds = match v.get("rounds") {
                None | Some(Value::Null) => None,
                Some(r) => Some(
                    r.as_u64()
                        .filter(|&r| r >= 1 && r <= MAX_JOB_ROUNDS as u64)
                        .ok_or_else(|| {
                            format!("rounds must be an integer in [1, {MAX_JOB_ROUNDS}]")
                        })? as usize,
                ),
            };
            let comm_startup = match v.get("comm_startup") {
                None | Some(Value::Null) => 0.0,
                Some(c) => c
                    .as_f64()
                    .filter(|c| c.is_finite() && (0.0..=MAX_COMM_STARTUP).contains(c))
                    .ok_or_else(|| {
                        format!("comm_startup must be a number in [0, {MAX_COMM_STARTUP}]")
                    })?,
            };
            RequestKind::Job(JobOp::Submit {
                chain,
                load,
                rounds,
                comm_startup,
            })
        }
        "job_status" => RequestKind::Job(JobOp::Status {
            chain: parse_chain(v, op, quantum)?,
            job_id: job_id_field(v)?,
        }),
        "cancel_job" => RequestKind::Job(JobOp::Cancel {
            chain: parse_chain(v, op, quantum)?,
            job_id: job_id_field(v)?,
        }),
        "ft_run" => {
            let root_rate = f64_field(v, "root_rate")?;
            let (rates, rates_len) = vec_field(&v.rates, "rates")?;
            let (links, links_len) = vec_field(&v.links, "links")?;
            if rates_len.max(links_len) > MAX_CHAIN_M {
                return Err(format!(
                    "ft_run takes at most {MAX_CHAIN_M} rates and links"
                ));
            }
            let seed = v.get("seed").and_then(Value::as_u64).unwrap_or(0);
            let crash = match v.get("crash") {
                None | Some(Value::Null) => None,
                Some(c) => {
                    let node = c
                        .get("node")
                        .and_then(Value::as_u64)
                        .ok_or("crash.node must be a positive integer")?
                        as usize;
                    let phase = c
                        .get("phase")
                        .and_then(Value::as_u64)
                        .filter(|p| (1..=4).contains(p))
                        .ok_or("crash.phase must be 1..=4")? as u8;
                    let progress = match c.get("progress") {
                        None | Some(Value::Null) => 0.5,
                        Some(p) => p.as_f64().ok_or("crash.progress must be a number")?,
                    };
                    Some((node, phase, progress))
                }
            };
            RequestKind::Work(WorkRequest::FtRun {
                root_rate,
                rates: rates.to_vec(),
                links: links.to_vec(),
                seed,
                crash,
            })
        }
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Request {
        id,
        deadline_ms,
        trace,
        kind,
    })
}

/// The chain fields shared by `solve` and every job op.
fn parse_chain(v: &Fields, op: &str, quantum: f64) -> Result<CanonicalChain, String> {
    let root = f64_field(v, "root_rate")?;
    let (links, links_len) = vec_field(&v.links, "links")?;
    let (bids, bids_len) = vec_field(&v.bids, "bids")?;
    if links_len.max(bids_len) > MAX_CHAIN_M {
        return Err(format!("{op} takes at most {MAX_CHAIN_M} links and bids"));
    }
    quant::canonicalize(root, links, bids, quantum).ok_or_else(|| {
        "invalid chain: rates must be finite, positive, representable, with links.len() == bids.len() >= 1"
            .to_string()
    })
}

fn job_id_field(v: &Fields) -> Result<u64, String> {
    v.get("job_id")
        .and_then(Value::as_u64)
        .filter(|&id| id >= 1)
        .ok_or_else(|| "job_id must be a positive integer".to_string())
}

/// Bytes reserved per number when writing a report; a solve report's
/// numbers average about 21 bytes with their separators.
const NUMBER_BYTES: usize = 24;

fn write_numbers(xs: impl IntoIterator<Item = f64>, out: &mut String) {
    out.push('[');
    for (i, x) in xs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(x, out);
    }
    out.push(']');
}

/// Solve + settle the canonical chain and serialize the report. A pure
/// function of the canonical chain — the solver-cache value.
pub fn solve_body(chain: &CanonicalChain) -> String {
    let _span = obs::span!("svc.solve", "m" => chain.key.m);
    let mech = DlsLbl::new(chain.root_rate, chain.link_rates.clone());
    let agents: Vec<Agent> = chain.bids.iter().map(|&b| Agent::new(b)).collect();
    let outcome = mech.settle_truthful(&agents);
    let agents = &outcome.agents;
    let mut out = String::with_capacity(128 + NUMBER_BYTES * (3 * agents.len() + 3));
    out.push_str("{\"m\":");
    write_i64(chain.key.m as i64, &mut out);
    out.push_str(",\"makespan\":");
    write_number(outcome.solution.makespan(), &mut out);
    out.push_str(",\"alloc\":");
    let loads = agents.iter().map(|a| a.assigned_load);
    write_numbers(std::iter::once(outcome.root_load).chain(loads), &mut out);
    out.push_str(",\"payments\":");
    write_numbers(agents.iter().map(|a| a.breakdown.payment), &mut out);
    out.push_str(",\"utilities\":");
    write_numbers(agents.iter().map(|a| a.breakdown.utility), &mut out);
    out.push_str(",\"total_payment\":");
    write_number(outcome.total_payment(), &mut out);
    out.push('}');
    // The cache keeps this string: hold no spare capacity.
    out.shrink_to_fit();
    out
}

/// Run a (possibly fault-injected) protocol execution and serialize the
/// report.
pub fn ft_body(
    root_rate: f64,
    rates: &[f64],
    links: &[f64],
    seed: u64,
    crash: Option<(usize, u8, f64)>,
) -> Result<String, String> {
    let _span = obs::span!("svc.ft_run", "m" => rates.len());
    if rates.len() != links.len() || rates.is_empty() {
        return Err("rates and links must be equal-length and non-empty".into());
    }
    let scenario = Scenario::honest(root_rate, rates.to_vec(), links.to_vec()).with_seed(seed);
    scenario.validate().map_err(|e| format!("{e:?}"))?;
    let plan = match crash {
        Some((node, phase, progress)) => FaultPlan::crash(node, phase, progress),
        None => FaultPlan::none(),
    };
    plan.validate(rates.len()).map_err(|e| format!("{e:?}"))?;
    let report = ft_runner::run_with_faults(&scenario, &plan).map_err(|e| format!("{e:?}"))?;
    let m = rates.len();
    let mut out = String::with_capacity(160 + NUMBER_BYTES * (m + 3));
    out.push_str("{\"m\":");
    write_i64(m as i64, &mut out);
    out.push_str(",\"makespan\":");
    write_number(report.makespan, &mut out);
    out.push_str(",\"base_makespan\":");
    write_number(report.base_makespan, &mut out);
    out.push_str(",\"overhead\":");
    write_number(report.overhead(), &mut out);
    out.push_str(",\"load_conserved\":");
    out.push_str(if report.load_conserved(1e-9) {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"crashed\":");
    write_numbers(report.crashed.iter().map(|&n| n as f64), &mut out);
    out.push_str(",\"utilities\":");
    write_numbers(report.net_utilities.iter().copied(), &mut out);
    out.push('}');
    Ok(out)
}

/// `{` and the echoed `"id":N,`, in a string with room for exactly `rest`
/// more bytes.
fn envelope(id: Option<i64>, rest: usize) -> String {
    let id_len = id.map_or(0, |id| {
        let digits = id
            .unsigned_abs()
            .checked_ilog10()
            .map_or(1, |d| d as usize + 1);
        "\"id\":,".len() + digits + usize::from(id < 0)
    });
    let mut out = String::with_capacity(1 + id_len + rest);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        write_i64(id, &mut out);
        out.push(',');
    }
    out
}

/// An `ok` response around a serialized result body, built in one
/// allocation of exactly its length.
pub fn ok_response(id: Option<i64>, cached: Option<bool>, body: &str) -> String {
    const STATUS: &str = "\"status\":\"ok\",";
    const RESULT: &str = "\"result\":";
    let cached = match cached {
        Some(true) => "\"cached\":true,",
        Some(false) => "\"cached\":false,",
        None => "",
    };
    let rest = STATUS.len() + cached.len() + RESULT.len() + body.len() + 1;
    let mut out = envelope(id, rest);
    out.push_str(STATUS);
    out.push_str(cached);
    out.push_str(RESULT);
    out.push_str(body);
    out.push('}');
    out
}

/// An `error` response (malformed request or failed execution).
pub fn error_response(id: Option<i64>, message: &str) -> String {
    format!(
        "{}\"status\":\"error\",\"error\":{}}}",
        envelope(id, 0),
        Value::String(message.to_string()).to_json()
    )
}

/// A backpressure rejection with a retry hint.
pub fn rejected_response(id: Option<i64>, retry_after_ms: u64, draining: bool) -> String {
    format!(
        "{}\"status\":\"rejected\",\"reason\":\"{}\",\"retry_after_ms\":{}}}",
        envelope(id, 0),
        if draining { "draining" } else { "backpressure" },
        retry_after_ms
    )
}

/// A router-level rejection: no shard could take the request (all dead,
/// draining, or unreachable). Carries the same retry contract as a
/// backpressure rejection so resilient clients back off and try again.
pub fn unavailable_response(id: Option<i64>, retry_after_ms: u64) -> String {
    format!(
        "{}\"status\":\"rejected\",\"reason\":\"unavailable\",\"retry_after_ms\":{}}}",
        envelope(id, 0),
        retry_after_ms
    )
}

/// An accept-side rejection: the server is at its connection cap. Sent
/// once on the fresh socket (no request was read, so there is no id),
/// then the connection is closed.
pub fn conn_limit_response(retry_after_ms: u64) -> String {
    format!(
        "{{\"status\":\"rejected\",\"reason\":\"connection-limit\",\"retry_after_ms\":{retry_after_ms}}}"
    )
}

/// A deadline-exceeded response.
pub fn timeout_response(id: Option<i64>, deadline_ms: u64) -> String {
    format!(
        "{}\"status\":\"timeout\",\"deadline_ms\":{}}}",
        envelope(id, 0),
        deadline_ms
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_solve_request() {
        let r = parse_request(
            r#"{"op":"solve","id":7,"root_rate":1.0,"links":[0.2,0.1],"bids":[2.0,0.5]}"#,
            1e-9,
        )
        .unwrap();
        assert_eq!(r.id, Some(7));
        match r.kind {
            RequestKind::Work(WorkRequest::Solve(chain)) => {
                assert_eq!(chain.key.m, 2);
                assert_eq!(chain.bids, vec![2.0, 0.5]);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn parses_submit_job_with_defaults() {
        let r = parse_request(
            r#"{"op":"submit_job","id":9,"root_rate":1.0,"links":[0.2,0.1],"bids":[2.0,0.5]}"#,
            1e-9,
        )
        .unwrap();
        match r.kind {
            RequestKind::Job(JobOp::Submit {
                chain,
                load,
                rounds,
                comm_startup,
            }) => {
                assert_eq!(chain.key.m, 2);
                assert_eq!(load, 1.0);
                assert_eq!(rounds, None);
                assert_eq!(comm_startup, 0.0);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn submit_job_validates_load_rounds_and_startup() {
        let line = |extra: &str| {
            format!(r#"{{"op":"submit_job","root_rate":1.0,"links":[0.2],"bids":[2.0]{extra}}}"#)
        };
        let ok =
            parse_request(&line(r#","load":2.5,"rounds":4,"comm_startup":0.05"#), 1e-9).unwrap();
        match ok.kind {
            RequestKind::Job(JobOp::Submit {
                load,
                rounds,
                comm_startup,
                ..
            }) => {
                assert_eq!(load, 2.5);
                assert_eq!(rounds, Some(4));
                assert_eq!(comm_startup, 0.05);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        for bad in [
            r#","load":0"#,
            r#","load":-1"#,
            r#","load":1e9"#,
            r#","load":"big""#,
            r#","rounds":0"#,
            r#","rounds":65"#,
            r#","rounds":2.5"#,
            r#","comm_startup":-0.1"#,
            r#","comm_startup":1e9"#,
        ] {
            assert!(parse_request(&line(bad), 1e-9).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn parses_job_status_and_cancel_with_routing_chain() {
        for op in ["job_status", "cancel_job"] {
            let r = parse_request(
                &format!(
                    r#"{{"op":"{op}","root_rate":1.0,"links":[0.2],"bids":[2.0],"job_id":7}}"#
                ),
                1e-9,
            )
            .unwrap();
            match r.kind {
                RequestKind::Job(JobOp::Status { chain, job_id })
                | RequestKind::Job(JobOp::Cancel { chain, job_id }) => {
                    assert_eq!(chain.key.m, 1);
                    assert_eq!(job_id, 7);
                }
                other => panic!("unexpected kind {other:?}"),
            }
            // job_id is mandatory and must be positive.
            for bad in [
                format!(r#"{{"op":"{op}","root_rate":1.0,"links":[0.2],"bids":[2.0]}}"#),
                format!(r#"{{"op":"{op}","root_rate":1.0,"links":[0.2],"bids":[2.0],"job_id":0}}"#),
            ] {
                assert!(parse_request(&bad, 1e-9).is_err());
            }
        }
    }

    #[test]
    fn job_ops_share_the_solve_chain_key() {
        let solve = parse_request(
            r#"{"op":"solve","root_rate":1.0,"links":[0.2,0.1],"bids":[2.0,0.5]}"#,
            1e-9,
        )
        .unwrap();
        let submit = parse_request(
            r#"{"op":"submit_job","root_rate":1.0,"links":[0.2,0.1],"bids":[2.0,0.5]}"#,
            1e-9,
        )
        .unwrap();
        let solve_key = match solve.kind {
            RequestKind::Work(WorkRequest::Solve(chain)) => chain.key,
            other => panic!("unexpected kind {other:?}"),
        };
        match submit.kind {
            RequestKind::Job(op) => assert_eq!(op.chain_key(), &solve_key),
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn deadline_is_validated_at_parse_time() {
        let line = |d: &str| format!(r#"{{"op":"health","deadline_ms":{d}}}"#);
        assert_eq!(
            parse_request(&line("250"), 1e-9).unwrap().deadline_ms,
            Some(250)
        );
        assert!(parse_request(&line("0"), 1e-9).is_err());
        assert!(parse_request(&line("-5"), 1e-9).is_err());
        assert!(parse_request(&line("3600001"), 1e-9).is_err());
        assert!(parse_request(&line("\"soon\""), 1e-9).is_err());
        assert_eq!(
            parse_request(&line("null"), 1e-9).unwrap().deadline_ms,
            None
        );
        assert_eq!(
            parse_request(r#"{"op":"health"}"#, 1e-9)
                .unwrap()
                .deadline_ms,
            None
        );
    }

    #[test]
    fn parses_reconfigure_and_validates_quantum() {
        assert_eq!(
            parse_request(r#"{"op":"reconfigure","quantum":1e-6}"#, 1e-9)
                .unwrap()
                .kind,
            RequestKind::Reconfigure {
                quantum: Some(1e-6)
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"reconfigure"}"#, 1e-9).unwrap().kind,
            RequestKind::Reconfigure { quantum: None }
        );
        for bad in ["0", "-1e-9", "2.0", "1e-20", "\"tiny\""] {
            let line = format!(r#"{{"op":"reconfigure","quantum":{bad}}}"#);
            assert!(parse_request(&line, 1e-9).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn trace_field_is_parsed_and_bad_traces_are_dropped() {
        let r = parse_request(r#"{"op":"health","trace":42}"#, 1e-9).unwrap();
        assert_eq!(r.trace, Some(42));
        // trace is advisory: malformed values never fail the request.
        for bad in ["0", "-7", "1.5", "\"abc\"", "null"] {
            let line = format!(r#"{{"op":"health","trace":{bad}}}"#);
            assert_eq!(parse_request(&line, 1e-9).unwrap().trace, None);
        }
        assert_eq!(
            parse_request(r#"{"op":"health"}"#, 1e-9).unwrap().trace,
            None
        );
    }

    #[test]
    fn parses_metrics_op() {
        let r = parse_request(r#"{"op":"metrics","id":5}"#, 1e-9).unwrap();
        assert_eq!(r.kind, RequestKind::Metrics);
        assert_eq!(r.id, Some(5));
    }

    #[test]
    fn parses_control_ops_and_rejects_unknown() {
        assert_eq!(
            parse_request(r#"{"op":"health"}"#, 1e-9).unwrap().kind,
            RequestKind::Health
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown","id":-3}"#, 1e-9)
                .unwrap()
                .id,
            Some(-3)
        );
        assert!(parse_request(r#"{"op":"mine_bitcoin"}"#, 1e-9).is_err());
        assert!(parse_request("not json", 1e-9).is_err());
        assert!(parse_request(r#"{"id":1}"#, 1e-9).is_err());
    }

    #[test]
    fn solve_body_is_deterministic_and_parses() {
        let chain = quant::canonicalize(1.0, &[0.2, 0.1, 0.7], &[2.0, 0.5, 4.0], 1e-9).unwrap();
        let a = solve_body(&chain);
        let b = solve_body(&chain);
        assert_eq!(a, b);
        let v = Value::parse(&a).unwrap();
        assert_eq!(v.get("m").unwrap().as_u64(), Some(3));
        let alloc = v.get("alloc").unwrap().as_array().unwrap();
        assert_eq!(alloc.len(), 4);
        let total: f64 = alloc.iter().map(|x| x.as_f64().unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ft_body_reports_a_crash_run() {
        let body = ft_body(
            1.0,
            &[2.0, 0.5, 4.0],
            &[0.2, 0.1, 0.7],
            42,
            Some((2, 3, 0.5)),
        )
        .unwrap();
        let v = Value::parse(&body).unwrap();
        assert_eq!(v.get("load_conserved").unwrap().as_bool(), Some(true));
        let crashed = v.get("crashed").unwrap().as_array().unwrap();
        assert_eq!(crashed[0].as_u64(), Some(2));
        assert!(v.get("overhead").unwrap().as_f64().unwrap() > 0.0);
    }

    fn ft_run_line(crash: &str) -> String {
        format!(
            r#"{{"op":"ft_run","root_rate":1.0,"rates":[2.0,0.5],"links":[0.2,0.1],"crash":{crash}}}"#
        )
    }

    #[test]
    fn ft_run_rejects_crash_phases_outside_1_to_4() {
        // 260 would wrap to 4 in a u8 and silently run a Phase IV crash.
        for phase in [0, 5, 260] {
            let line = ft_run_line(&format!(r#"{{"node":1,"phase":{phase}}}"#));
            assert!(
                parse_request(&line, 1e-9).is_err(),
                "accepted phase {phase}"
            );
        }
        let line = ft_run_line(r#"{"node":1,"phase":4}"#);
        match parse_request(&line, 1e-9).unwrap().kind {
            RequestKind::Work(WorkRequest::FtRun { crash, .. }) => {
                assert_eq!(crash, Some((1, 4, 0.5)));
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn ft_run_rejects_chains_over_the_cap() {
        let line = |m: usize| {
            let xs = vec!["0.5"; m].join(",");
            format!(r#"{{"op":"ft_run","id":7,"root_rate":1.0,"rates":[{xs}],"links":[{xs}]}}"#)
        };
        let (id, msg) = parse_request(&line(MAX_CHAIN_M + 1), 1e-9).unwrap_err();
        assert_eq!(id, Some(7));
        assert!(msg.contains("at most 1024"), "{msg}");
        match parse_request(&line(MAX_CHAIN_M), 1e-9).unwrap().kind {
            RequestKind::Work(WorkRequest::FtRun { rates, .. }) => {
                assert_eq!(rates.len(), MAX_CHAIN_M);
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn chain_ops_reject_chains_over_the_cap() {
        let line = |op: &str, m: usize| {
            let xs = vec!["0.5"; m].join(",");
            format!(
                r#"{{"op":"{op}","id":7,"root_rate":1.0,"links":[{xs}],"bids":[{xs}],"job_id":3}}"#
            )
        };
        for op in ["solve", "submit_job", "job_status", "cancel_job"] {
            let (id, msg) = parse_request(&line(op, MAX_CHAIN_M + 1), 1e-9).unwrap_err();
            assert_eq!(id, Some(7));
            assert_eq!(msg, format!("{op} takes at most 1024 links and bids"));
            let chain = match parse_request(&line(op, MAX_CHAIN_M), 1e-9).unwrap().kind {
                RequestKind::Work(WorkRequest::Solve(chain)) => chain,
                RequestKind::Job(job) => match job {
                    JobOp::Submit { chain, .. }
                    | JobOp::Status { chain, .. }
                    | JobOp::Cancel { chain, .. } => chain,
                },
                other => panic!("parsed as {other:?}"),
            };
            assert_eq!(chain.key.m, MAX_CHAIN_M, "{op}");
        }
        // Either array over the cap is refused, after both are checked for
        // type errors.
        let lopsided = r#"{"op":"solve","root_rate":1.0,"links":[0.5],"bids":[BIDS]}"#
            .replace("BIDS", &vec!["0.5"; MAX_CHAIN_M + 1].join(","));
        assert!(parse_request(&lopsided, 1e-9)
            .unwrap_err()
            .1
            .contains("at most"));
        let typed = lopsided.replace(r#""links":[0.5]"#, r#""links":["a"]"#);
        assert_eq!(
            parse_request(&typed, 1e-9).unwrap_err().1,
            "non-numeric entry in \"links\""
        );
    }

    /// The `Value`-tree decoding that [`Fields::parse`] replaced: the first
    /// member with each key, array fields held to the same [`Numbers`].
    fn fields_from_tree(v: &Value) -> Fields<'_> {
        let mut fields = Fields::default();
        for (key, value) in v.as_object().unwrap_or(&[]) {
            match fields.slot(key) {
                Some(slot) => {
                    let numbers = match value.as_array() {
                        None => Numbers::NotArray,
                        Some(items) => match items.iter().map(Value::as_f64).collect() {
                            None => Numbers::NonNumeric,
                            Some(values) => {
                                let mut values: Vec<f64> = values;
                                let len = values.len();
                                values.truncate(MAX_CHAIN_M);
                                Numbers::Kept { values, len }
                            }
                        },
                    };
                    slot.get_or_insert(numbers);
                }
                None => fields
                    .members
                    .push((Cow::Borrowed(key.as_str()), value.clone())),
            }
        }
        fields
    }

    /// `parse_request` through [`Value::parse`] and [`fields_from_tree`].
    fn parse_request_via_tree(line: &str, quantum: f64) -> Result<Request, (Option<i64>, String)> {
        let tree = Value::parse(line).map_err(|e| (None, e.to_string()))?;
        let fields = fields_from_tree(&tree);
        let id = fields.get("id").and_then(Value::as_i64);
        parse_envelope(&fields, quantum, id).map_err(|msg| (id, msg))
    }

    #[test]
    fn pull_decoding_matches_tree_decoding() {
        // Splitmix64.
        let mut state = 0x2026_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as usize
        };
        let seeds = [
            r#"{"op":"solve","id":7,"root_rate":1.0,"links":[0.2,0.1],"bids":[2.0,0.5]}"#,
            r#"{"op":"submit_job","id":9,"root_rate":1.0,"links":[0.2],"bids":[2.0],"load":2.5,"rounds":4,"comm_startup":0.05}"#,
            r#"{"op":"job_status","root_rate":1.0,"links":[0.2],"bids":[2.0],"job_id":7}"#,
            r#"{"op":"cancel_job","id":-2,"root_rate":1.0,"links":[0.2],"bids":[2.0],"job_id":0}"#,
            r#"{"op":"ft_run","id":3,"root_rate":1.0,"rates":[2.0,0.5],"links":[0.2,0.1],"seed":5,"crash":{"node":1,"phase":2,"progress":0.25}}"#,
            r#"{"op":"reconfigure","quantum":1e-6,"deadline_ms":250,"trace":42}"#,
            r#"{"op":"health","id":1}"#,
            r#"{"op":"solve","id":4,"root_rate":1.0,"links":[0.2,"x"],"bids":[2.0,0.5]}"#,
            r#"[{"op":"solve"}]"#,
        ];
        let fillers = [
            "null",
            "true",
            "\"x\"",
            "[1,\"a\"]",
            "{\"a\":1}",
            "-1.5",
            "1e300",
            "[]",
            "[[1]]",
            "[0.3,0.4]",
            "7",
            "\"solve\"",
        ];
        let mut lines: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
        for seed in seeds {
            let members = Value::parse(seed)
                .unwrap()
                .as_object()
                .map(<[_]>::to_vec)
                .unwrap_or_default();
            for _ in 0..400 {
                let mut m = members.clone();
                if m.is_empty() {
                    break;
                }
                match next() % 3 {
                    // Reordered keys.
                    0 => {
                        for i in (1..m.len()).rev() {
                            m.swap(i, next() % (i + 1));
                        }
                    }
                    // A duplicate key with another value, before or after.
                    1 => {
                        let (key, _) = m[next() % m.len()].clone();
                        let value = Value::parse(fillers[next() % fillers.len()]).unwrap();
                        m.insert(next() % (m.len() + 1), (key, value));
                    }
                    // A value of the wrong type.
                    _ => {
                        let i = next() % m.len();
                        m[i].1 = Value::parse(fillers[next() % fillers.len()]).unwrap();
                    }
                }
                lines.push(Value::Object(m).to_json());
            }
        }
        // Truncations and byte flips of every line so far.
        let bytes = b"{}[],:\"\\ -.e0159tfnu";
        for line in lines.clone() {
            for _ in 0..8 {
                let cut = next() % line.len();
                lines.push(line[..cut].to_string());
                let mut flipped = line.clone().into_bytes();
                flipped[next() % line.len()] = bytes[next() % bytes.len()];
                lines.push(String::from_utf8(flipped).unwrap());
            }
        }
        assert!(lines.len() > 30_000, "{}", lines.len());
        for line in &lines {
            let tree = Value::parse(line);
            assert_eq!(
                Fields::parse(line).map_err(|e| e.to_string()),
                tree.as_ref()
                    .map(fields_from_tree)
                    .map_err(|e| e.to_string()),
                "{line}"
            );
            assert_eq!(
                parse_request(line, 1e-9),
                parse_request_via_tree(line, 1e-9),
                "{line}"
            );
        }
    }

    #[test]
    fn ft_run_rejects_a_non_numeric_crash_progress() {
        for bad in [r#""half""#, "true", "[0.5]"] {
            let line = ft_run_line(&format!(r#"{{"node":1,"phase":2,"progress":{bad}}}"#));
            assert!(
                parse_request(&line, 1e-9).is_err(),
                "accepted progress {bad}"
            );
        }
        let line = ft_run_line(r#"{"node":1,"phase":2,"progress":0.25}"#);
        match parse_request(&line, 1e-9).unwrap().kind {
            RequestKind::Work(WorkRequest::FtRun { crash, .. }) => {
                assert_eq!(crash, Some((1, 2, 0.25)));
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn ft_body_rejects_bad_plans() {
        assert!(ft_body(1.0, &[], &[], 0, None).is_err());
        assert!(ft_body(1.0, &[2.0], &[0.2], 0, Some((5, 3, 0.5))).is_err());
    }

    #[test]
    fn response_envelopes_are_valid_json() {
        for s in [
            ok_response(Some(3), Some(true), r#"{"x":1}"#),
            ok_response(None, None, "{}"),
            error_response(Some(-1), "bad \"thing\""),
            rejected_response(None, 25, false),
            rejected_response(Some(9), 100, true),
            unavailable_response(Some(4), 50),
            conn_limit_response(25),
            timeout_response(Some(2), 250),
        ] {
            let v = Value::parse(&s).unwrap_or_else(|e| panic!("invalid envelope {s}: {e}"));
            assert!(v.get("status").is_some());
        }
        let v = Value::parse(&ok_response(Some(3), Some(true), r#"{"x":1}"#)).unwrap();
        assert_eq!(v.get("id").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("result").unwrap().get("x").unwrap().as_i64(), Some(1));
    }
}

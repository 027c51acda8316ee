//! Request parsing and the per-endpoint handlers.
//!
//! The wire protocol is newline-delimited JSON, parsed with
//! [`minijson::Value::parse`]. Every request is an object with an `"op"`
//! and an optional integer `"id"` that is echoed verbatim in the response,
//! so clients may pipeline requests and match completions out of order.
//!
//! Work ops (`solve`, `ft_run`) are executed by the worker pool; control
//! ops (`health`, `stats`, `shutdown`) are answered inline by the
//! connection thread so they keep working while the queue is saturated.
//!
//! Solve reports are **canonical-deterministic**: the handler solves the
//! quantized chain ([`crate::quant`]), so the serialized body is a pure
//! function of the cache key and a cache hit returns bytes identical to
//! the cold solve it replaced.

use crate::quant::{self, CanonicalChain};
use crate::stats::Endpoint;
use mechanism::{Agent, DlsLbl};
use minijson::Value;
use protocol::ft_runner;
use protocol::{FaultPlan, Scenario};

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

/// Largest accepted `ft_run` chain: a protocol run is O(m) messages and
/// its recovery re-solves residual chains, so one oversized request must
/// not hold a worker past any deadline.
pub const MAX_FT_RUN_M: usize = 1024;

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

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn vec_field(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing or non-array field {key:?}"))?;
    arr.iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("non-numeric entry in {key:?}"))
        })
        .collect()
}

/// Parse one request line. `quantum` is the solver-cache quantization
/// step. Errors carry the request's `id` when one was parseable, so the
/// error response stays matchable by pipelining clients.
pub fn parse_request(line: &str, quantum: f64) -> Result<Request, (Option<i64>, String)> {
    let v = Value::parse(line).map_err(|e| (None, e.to_string()))?;
    let id = v.get("id").and_then(Value::as_i64);
    parse_envelope(&v, quantum, id).map_err(|msg| (id, msg))
}

fn parse_envelope(v: &Value, quantum: f64, id: Option<i64>) -> Result<Request, String> {
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
        "solve" => RequestKind::Work(WorkRequest::Solve(parse_chain(v, quantum)?)),
        "submit_job" => {
            let chain = parse_chain(v, quantum)?;
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
            chain: parse_chain(v, quantum)?,
            job_id: job_id_field(v)?,
        }),
        "cancel_job" => RequestKind::Job(JobOp::Cancel {
            chain: parse_chain(v, quantum)?,
            job_id: job_id_field(v)?,
        }),
        "ft_run" => {
            let root_rate = f64_field(v, "root_rate")?;
            let rates = vec_field(v, "rates")?;
            let links = vec_field(v, "links")?;
            if rates.len().max(links.len()) > MAX_FT_RUN_M {
                return Err(format!(
                    "ft_run takes at most {MAX_FT_RUN_M} rates and links"
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
                rates,
                links,
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
fn parse_chain(v: &Value, quantum: f64) -> Result<CanonicalChain, String> {
    let root = f64_field(v, "root_rate")?;
    let links = vec_field(v, "links")?;
    let bids = vec_field(v, "bids")?;
    quant::canonicalize(root, &links, &bids, quantum).ok_or_else(|| {
        "invalid chain: rates must be finite, positive, representable, with links.len() == bids.len() >= 1"
            .to_string()
    })
}

fn job_id_field(v: &Value) -> Result<u64, String> {
    v.get("job_id")
        .and_then(Value::as_u64)
        .filter(|&id| id >= 1)
        .ok_or_else(|| "job_id must be a positive integer".to_string())
}

fn numbers(xs: impl IntoIterator<Item = f64>) -> Value {
    Value::Array(xs.into_iter().map(Value::Number).collect())
}

/// Solve + settle the canonical chain and serialize the report. A pure
/// function of the canonical chain — the solver-cache value.
pub fn solve_body(chain: &CanonicalChain) -> String {
    let _span = obs::span!("svc.solve", "m" => chain.key.m);
    let mech = DlsLbl::new(chain.root_rate, chain.link_rates.clone());
    let agents: Vec<Agent> = chain.bids.iter().map(|&b| Agent::new(b)).collect();
    let outcome = mech.settle_truthful(&agents);
    let mut alloc = vec![outcome.root_load];
    alloc.extend(outcome.agents.iter().map(|a| a.assigned_load));
    Value::Object(vec![
        ("m".into(), Value::Number(chain.key.m as f64)),
        (
            "makespan".into(),
            Value::Number(outcome.solution.makespan()),
        ),
        ("alloc".into(), numbers(alloc)),
        (
            "payments".into(),
            numbers(outcome.agents.iter().map(|a| a.breakdown.payment)),
        ),
        (
            "utilities".into(),
            numbers(outcome.agents.iter().map(|a| a.breakdown.utility)),
        ),
        (
            "total_payment".into(),
            Value::Number(outcome.total_payment()),
        ),
    ])
    .to_json()
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
    Ok(Value::Object(vec![
        ("m".into(), Value::Number(rates.len() as f64)),
        ("makespan".into(), Value::Number(report.makespan)),
        ("base_makespan".into(), Value::Number(report.base_makespan)),
        ("overhead".into(), Value::Number(report.overhead())),
        (
            "load_conserved".into(),
            Value::Bool(report.load_conserved(1e-9)),
        ),
        (
            "crashed".into(),
            numbers(report.crashed.iter().map(|&n| n as f64)),
        ),
        (
            "utilities".into(),
            numbers(report.net_utilities.iter().copied()),
        ),
    ])
    .to_json())
}

fn id_prefix(id: Option<i64>) -> String {
    match id {
        Some(id) => format!("{{\"id\":{id},"),
        None => "{".to_string(),
    }
}

/// An `ok` response around a serialized result body.
pub fn ok_response(id: Option<i64>, cached: Option<bool>, body: &str) -> String {
    let cached = match cached {
        Some(true) => "\"cached\":true,",
        Some(false) => "\"cached\":false,",
        None => "",
    };
    format!(
        "{}\"status\":\"ok\",{}\"result\":{}}}",
        id_prefix(id),
        cached,
        body
    )
}

/// An `error` response (malformed request or failed execution).
pub fn error_response(id: Option<i64>, message: &str) -> String {
    format!(
        "{}\"status\":\"error\",\"error\":{}}}",
        id_prefix(id),
        Value::String(message.to_string()).to_json()
    )
}

/// A backpressure rejection with a retry hint.
pub fn rejected_response(id: Option<i64>, retry_after_ms: u64, draining: bool) -> String {
    format!(
        "{}\"status\":\"rejected\",\"reason\":\"{}\",\"retry_after_ms\":{}}}",
        id_prefix(id),
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
        id_prefix(id),
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
        id_prefix(id),
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
        let (id, msg) = parse_request(&line(MAX_FT_RUN_M + 1), 1e-9).unwrap_err();
        assert_eq!(id, Some(7));
        assert!(msg.contains("at most 1024"), "{msg}");
        match parse_request(&line(MAX_FT_RUN_M), 1e-9).unwrap().kind {
            RequestKind::Work(WorkRequest::FtRun { rates, .. }) => {
                assert_eq!(rates.len(), MAX_FT_RUN_M);
            }
            other => panic!("parsed as {other:?}"),
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

//! Per-layer timings for the traced run. The benchmark times calls into
//! the layers' public functions from outside, replaying the workload's own
//! inputs, and records one parent span per replayed request with one child
//! span per call, all tagged with the request's trace id. Server-side
//! layers come from the `DLS_TRACE` JSONL that `dls-serve` already writes.

use crate::workload::{ReplayInput, QUANTUM};
use mechanism::{payment, Agent, Conduct, DlsLbl, PaymentInputs, TreeMechanism};
use obs::{FieldValue, Record, RecordKind, Sink};
use protocol::{BlockMint, FaultPlan, Scenario};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::BufRead;
use std::ops::Range;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use svc::handlers;
use svc::{ChainKey, SolverCache};

/// The parent span of one replayed request.
pub const REPLAY_SPAN: &str = "dls-bench.replay";

/// The timed functions, in call order, named after their modules.
pub const LAYERS: [&str; 20] = [
    "minijson.parse",
    "svc.handlers.parse_request",
    "svc.quant.canonicalize",
    "mechanism.dls_lbl.allocate",
    "dlt.linear.solve",
    "dlt.batch.solve_one",
    "dlt.batch.solve_all_suffixes",
    "mechanism.payment.settle_all",
    "mechanism.dls_lbl.settle",
    "mechanism.dls_lbl.settle_truthful",
    "svc.handlers.solve_body",
    "svc.cache.insert",
    "svc.cache.hit",
    "svc.handlers.ok_response",
    "dlt.tree.solve",
    "mechanism.dls_tree.settle",
    "protocol.lambda.mint",
    "protocol.runner.run",
    "svc.handlers.ft_body",
    "protocol.ft_runner.run_with_faults",
];

/// The serving cache's geometry (`ServerConfig::default`).
const CACHE_SHARDS: usize = 16;
const CACHE_PER_SHARD: usize = 512;

/// What the replay measured.
pub struct Replay {
    /// Per layer (index into [`LAYERS`]), per call: nanoseconds.
    pub ns: Vec<Vec<f64>>,
    /// Per input: `solve_body` − `settle_truthful`, nanoseconds — the
    /// serialization `solve_body` adds.
    pub serialize_ns: Vec<f64>,
    /// One parent span per input, one child span per call.
    pub records: Vec<Record>,
}

struct Recorder {
    epoch: Instant,
    next_span: u64,
    ns: Vec<Vec<f64>>,
    records: Vec<Record>,
}

impl Recorder {
    fn micros(&self, at: Instant) -> u64 {
        (at - self.epoch).as_micros() as u64
    }

    fn open(&mut self, name: &'static str, parent: u64, trace: u64, at: Instant) -> u64 {
        self.next_span += 1;
        self.records.push(Record {
            kind: RecordKind::SpanStart,
            name,
            span: self.next_span,
            parent,
            vtime: f64::NAN,
            wall_micros: self.micros(at),
            value: 0.0,
            fields: vec![("trace", FieldValue::U64(trace))],
        });
        self.next_span
    }

    fn close(&mut self, name: &'static str, span: u64, at: Instant) {
        self.records.push(Record {
            kind: RecordKind::SpanEnd,
            name,
            span,
            parent: 0,
            vtime: f64::NAN,
            wall_micros: self.micros(at),
            value: 0.0,
            fields: Vec::new(),
        });
    }

    /// Time one call of layer `k` as a child span of `parent`.
    fn time<T>(&mut self, k: usize, parent: u64, trace: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        self.ns[k].push((end - start).as_nanos() as f64);
        let span = self.open(LAYERS[k], parent, trace, start);
        self.close(LAYERS[k], span, end);
        out
    }
}

/// Replay `inputs` through every layer until all are done or `budget` is
/// spent (at least one input always runs).
pub fn replay(inputs: &[ReplayInput], budget: Duration) -> Replay {
    let canonical: Vec<svc::CanonicalChain> = inputs
        .iter()
        .map(|i| {
            svc::canonicalize(i.chain.root, &i.chain.links, &i.chain.rates, QUANTUM)
                .expect("generated chains are valid")
        })
        .collect();
    // Hits: every input's key is resident. Inserts: the cache is full, as
    // in a server that has seen more distinct chains than it holds, so
    // each insert pays its eviction scan; each insert key is fresh.
    let hits = SolverCache::new(CACHE_SHARDS, CACHE_PER_SHARD);
    for c in &canonical {
        hits.get_or_insert(&c.key, String::new);
    }
    let inserts = SolverCache::new(CACHE_SHARDS, CACHE_PER_SHARD);
    for k in 0..2 * CACHE_SHARDS * CACHE_PER_SHARD {
        let key = ChainKey {
            m: 0,
            ticks: vec![k as i64],
        };
        inserts.get_or_insert(&key, String::new);
    }

    let mut rec = Recorder {
        epoch: Instant::now(),
        next_span: 0,
        ns: vec![Vec::new(); LAYERS.len()],
        records: Vec::new(),
    };
    let mut serialize_ns = Vec::new();
    let started = Instant::now();
    for (i, (input, canon)) in inputs.iter().zip(&canonical).enumerate() {
        if i > 0 && started.elapsed() > budget {
            break;
        }
        let t = input.trace;
        let id = Some(t as i64 - 1);
        let mech = DlsLbl::new(canon.root_rate, canon.link_rates.clone());
        let agents: Vec<Agent> = canon.bids.iter().map(|&b| Agent::new(b)).collect();
        let conducts: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        let (tree, tree_rates) = &input.tree;
        let tree_mech = TreeMechanism::new(tree.clone());
        let tree_conducts: Vec<Conduct> = tree_rates
            .iter()
            .map(|&w| Conduct::truthful(Agent::new(w)))
            .collect();
        let ft = &input.ft;
        let scenario = Scenario::honest(
            ft.chain.root,
            ft.chain.rates.clone(),
            ft.chain.links.clone(),
        )
        .with_seed(ft.seed);
        let plan = match ft.crash {
            Some((node, phase, progress)) => FaultPlan::crash(node, phase, progress),
            None => FaultPlan::none(),
        };
        let mut insert_key = canon.key.clone();
        insert_key.ticks.push(-(i as i64) - 1);

        let p = rec.open(REPLAY_SPAN, 0, t, Instant::now());
        let _ = rec.time(0, p, t, || minijson::Value::parse(&input.line));
        let _ = rec.time(1, p, t, || handlers::parse_request(&input.line, QUANTUM));
        rec.time(2, p, t, || {
            svc::canonicalize(
                input.chain.root,
                &input.chain.links,
                &input.chain.rates,
                QUANTUM,
            )
        });
        let (net, sol) = rec.time(3, p, t, || mech.allocate(&canon.bids));
        rec.time(4, p, t, || dlt::linear::solve(&net));
        rec.time(5, p, t, || dlt::batch::solve_one(&net));
        rec.time(6, p, t, || dlt::batch::solve_all_suffixes(&net));
        let pay: Vec<PaymentInputs> = (1..=agents.len())
            .map(|j| PaymentInputs {
                assigned_load: sol.alloc.alpha(j),
                actual_load: sol.alloc.alpha(j),
                actual_rate: canon.bids[j - 1],
            })
            .collect();
        rec.time(7, p, t, || payment::settle_all(&net, &pay, 0.0));
        rec.time(8, p, t, || mech.settle(&conducts, false));
        rec.time(9, p, t, || mech.settle_truthful(&agents));
        let body = rec.time(10, p, t, || handlers::solve_body(canon));
        let settled = rec.ns[9].last().copied().unwrap_or(0.0);
        serialize_ns.push(rec.ns[10].last().copied().unwrap_or(0.0) - settled);
        let stored = body.clone();
        rec.time(11, p, t, || {
            inserts.get_or_insert(&insert_key, move || stored)
        });
        rec.time(12, p, t, || {
            hits.get_or_insert(&canon.key, || unreachable!("key was pre-loaded"))
        });
        rec.time(13, p, t, || handlers::ok_response(id, Some(true), &body));
        rec.time(14, p, t, || dlt::tree::solve(tree));
        rec.time(15, p, t, || tree_mech.settle(&tree_conducts));
        rec.time(16, p, t, || BlockMint::new(scenario.blocks, scenario.seed));
        rec.time(17, p, t, || protocol::run(&scenario));
        let _ = rec.time(18, p, t, || {
            handlers::ft_body(
                ft.chain.root,
                &ft.chain.rates,
                &ft.chain.links,
                ft.seed,
                ft.crash,
            )
        });
        let _ = rec.time(19, p, t, || protocol::run_with_faults(&scenario, &plan));
        rec.close(REPLAY_SPAN, p, Instant::now());
    }
    Replay {
        ns: rec.ns,
        serialize_ns,
        records: rec.records,
    }
}

/// Write span records as JSONL in the `obs` format `dls-trace` reads.
pub fn write_records(records: &[Record], path: &Path) -> Result<(), String> {
    let sink = obs::JsonlSink::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for r in records {
        sink.record(r);
    }
    sink.flush();
    Ok(())
}

/// Self time of every span: its duration less the time its child spans
/// cover. Fails when a span is unmatched or a child's trace id differs
/// from its parent's.
pub fn self_times(records: &[Record]) -> Result<Vec<(&'static str, i64)>, String> {
    struct Span {
        name: &'static str,
        start: u64,
        end: Option<u64>,
        parent: u64,
        trace: Option<u64>,
    }
    let mut spans: BTreeMap<u64, Span> = BTreeMap::new();
    for r in records {
        match r.kind {
            RecordKind::SpanStart => {
                let trace = match r.field("trace") {
                    Some(FieldValue::U64(t)) => Some(*t),
                    _ => None,
                };
                spans.insert(
                    r.span,
                    Span {
                        name: r.name,
                        start: r.wall_micros,
                        end: None,
                        parent: r.parent,
                        trace,
                    },
                );
            }
            RecordKind::SpanEnd => {
                let s = spans
                    .get_mut(&r.span)
                    .ok_or_else(|| format!("span {} ends before it starts", r.span))?;
                s.end = Some(r.wall_micros);
            }
            _ => {}
        }
    }
    let mut covered: HashMap<u64, i64> = HashMap::new();
    for (id, s) in &spans {
        let end = s
            .end
            .ok_or_else(|| format!("span {id} ({}) never ends", s.name))?;
        if s.parent != 0 {
            let parent = spans
                .get(&s.parent)
                .ok_or_else(|| format!("span {id} has no parent {}", s.parent))?;
            if parent.trace != s.trace {
                return Err(format!(
                    "span {id} ({}) has trace {:?}, its parent {:?}",
                    s.name, s.trace, parent.trace
                ));
            }
            *covered.entry(s.parent).or_default() += (end - s.start) as i64;
        }
    }
    Ok(spans
        .iter()
        .map(|(id, s)| {
            let own = s.end.unwrap_or(s.start) as i64 - s.start as i64;
            (s.name, own - covered.get(id).copied().unwrap_or(0))
        })
        .collect())
}

/// The server-side layers of a `DLS_TRACE` file, for requests whose trace
/// ids fall in `traces`.
#[derive(Debug, Default)]
pub struct ServeTrace {
    /// `svc.queue_wait_us` samples: admission to a worker taking the job.
    pub queue_wait_us: Vec<f64>,
    /// `svc.latency_us` samples: admission to the response being ready.
    pub latency_us: Vec<f64>,
    /// Router hop less the shard's own latency, per traced request.
    pub router_self_us: Vec<f64>,
    /// `router.request` span durations.
    pub router_request_us: Vec<f64>,
    /// Counter totals over the whole file.
    pub counters: BTreeMap<String, f64>,
}

impl ServeTrace {
    /// Read `path`.
    pub fn read(path: &Path, traces: Range<u64>) -> Result<Self, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = ServeTrace::default();
        let mut open: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut router: HashMap<u64, f64> = HashMap::new();
        let mut shard: HashMap<u64, f64> = HashMap::new();
        for line in std::io::BufReader::new(file).lines() {
            let line = line.map_err(|e| e.to_string())?;
            let Ok(v) = minijson::Value::parse(&line) else {
                return Err(format!("corrupt trace line: {line}"));
            };
            let kind = v.get("k").and_then(|k| k.as_str()).unwrap_or("");
            let name = v.get("n").and_then(|n| n.as_str()).unwrap_or("");
            let trace = v
                .get("f")
                .and_then(|f| f.get("trace"))
                .and_then(|t| t.as_u64())
                .filter(|t| traces.contains(t));
            let value = v.get("v").and_then(|x| x.as_f64()).unwrap_or(0.0);
            let wus = v.get("wus").and_then(|x| x.as_u64()).unwrap_or(0);
            let id = v.get("id").and_then(|x| x.as_u64()).unwrap_or(0);
            match (kind, name, trace) {
                ("ct", _, _) => *out.counters.entry(name.to_string()).or_default() += value,
                ("hg", "svc.queue_wait_us", Some(_)) => out.queue_wait_us.push(value),
                ("hg", "svc.latency_us", Some(t)) => {
                    out.latency_us.push(value);
                    shard.insert(t, value);
                }
                ("ss", "router.request", Some(t)) => {
                    open.insert(id, (t, wus));
                }
                ("se", "router.request", _) => {
                    if let Some((t, start)) = open.remove(&id) {
                        router.insert(t, wus.saturating_sub(start) as f64);
                    }
                }
                _ => {}
            }
        }
        for (t, hop) in router {
            out.router_request_us.push(hop);
            if let Some(inner) = shard.get(&t) {
                out.router_self_us.push(hop - inner);
            }
        }
        Ok(out)
    }

    /// A counter total per executed work request.
    pub fn per_request(&self, counter: &str) -> f64 {
        let requests = self.counters.get("svc.requests").copied().unwrap_or(0.0);
        let n = self.counters.get(counter).copied().unwrap_or(0.0);
        if requests > 0.0 {
            n / requests
        } else {
            0.0
        }
    }
}

/// Run `dls-trace` (with `--fleet` when `fleet`) over `files`; it must exit
/// 0 and skip no corrupt line.
pub fn check_with_dls_trace(exe: &Path, files: &[&Path], fleet: bool) -> Result<(), String> {
    let mut cmd = Command::new(exe);
    if fleet {
        cmd.arg("--fleet");
    }
    let out = cmd
        .args(files)
        .output()
        .map_err(|e| format!("run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() || !stdout.contains(" 0 corrupt line(s)") {
        let head: String = stdout.lines().take(3).collect::<Vec<_>>().join(" / ");
        return Err(format!(
            "dls-trace{} rejected {files:?}: {} {head}",
            if fleet { " --fleet" } else { "" },
            out.status
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Cold, Ft, Stream};

    #[test]
    fn replay_spans_share_trace_ids_and_have_non_negative_self_times() {
        let cold = Cold::new(7);
        let ft = Ft::new(7);
        let inputs: Vec<ReplayInput> = (0..3)
            .map(|id| cold.replay(id))
            .chain((3..5).map(|id| ft.replay(id)))
            .collect();
        let r = replay(&inputs, Duration::from_secs(60));
        assert!(r.ns.iter().all(|calls| calls.len() == inputs.len()));
        assert_eq!(r.serialize_ns.len(), inputs.len());
        // One parent and one child per layer per input, each opened and closed.
        assert_eq!(r.records.len(), inputs.len() * 2 * (1 + LAYERS.len()));
        let selves = self_times(&r.records).unwrap();
        assert!(selves.iter().all(|&(_, s)| s >= 0), "{selves:?}");
        let traces: Vec<u64> = r
            .records
            .iter()
            .filter(|rec| rec.name == REPLAY_SPAN && rec.kind == RecordKind::SpanStart)
            .filter_map(|rec| match rec.field("trace") {
                Some(FieldValue::U64(t)) => Some(*t),
                _ => None,
            })
            .collect();
        assert_eq!(traces, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn self_times_reject_a_child_with_a_foreign_trace_id() {
        let cold = Cold::new(7);
        let mut r = replay(&[cold.replay(0)], Duration::from_secs(60));
        let child = r
            .records
            .iter_mut()
            .find(|rec| rec.name == LAYERS[0] && rec.kind == RecordKind::SpanStart)
            .unwrap();
        child.fields = vec![("trace", FieldValue::U64(99))];
        assert!(self_times(&r.records).is_err());
    }
}

//! `dls-bench` — one benchmark for the shipped `dls-serve` binary and the
//! DLS-LBL settlement library.
//!
//! ```text
//! dls-bench --workload <hot-direct|cold-routed|ftrun-direct|settle-sweep>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics: set-up time,
//! open-loop latency at a low and a high offered rate, closed-loop
//! saturation throughput and peak memory. With `--trace 1` it runs the
//! workload again with `DLS_TRACE` on the server, replays a sample of the
//! workload's inputs through each layer's public functions, and reports
//! the per-layer metrics. Either way every answer is checked against an
//! oracle, the metrics are printed by name and unit, and the last line of
//! stdout is one JSON object; the exit code is non-zero when any check
//! fails. `run.sh` next to this package builds everything and runs it; see
//! `README.md` there for the workloads, metrics and bounds.

mod layers;
mod mem;
mod oracle;
mod pace;
mod probe;
mod served;
mod stats;
mod sweep;
mod workload;

use oracle::{fnv1a, Answers};
use served::{Lines, Server};
use stats::{percentile_of, segment_median};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::{Stream, Workload};

/// The seed whose settle-sweep utilities are pinned.
const DEFAULT_SEED: u64 = 1;

/// Digest of the first [`DIGEST_REQUESTS`] settle-sweep verdicts at
/// [`DEFAULT_SEED`]: every utility's bits, so a change to the mechanism's
/// arithmetic fails the benchmark instead of timing different work.
const PINNED_SWEEP_DIGEST: u64 = 0xf0fb_1fde_2a39_6b67;
const DIGEST_REQUESTS: i64 = 256;

/// Measurement rounds per run. Each round times a set-up and runs a
/// low-rate open-loop segment, a high-rate one and a saturation segment,
/// so a slow spell on a shared machine lands in a few rounds of every
/// metric instead of in all of one metric.
const ROUNDS: usize = 12;

/// Shares of `--seconds`: the discarded warm-up, each open-loop segment,
/// and each saturation segment (at the workload's saturation budget).
const WARMUP_SHARE: f64 = 0.04;
const SEGMENT_SHARE: f64 = 0.03;
const SAT_SHARE: f64 = 0.012;

/// Fewest requests in an open-loop phase.
const MIN_PHASE: usize = 5;

/// Replayed inputs per traced run, at most.
const REPLAY_INPUTS: usize = 2000;

/// One command line.
#[derive(Debug, Clone, Copy)]
struct Config {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Offered load of a served workload.
struct ServedPlan {
    /// `--fleet 2 --workers 1` behind the router, else `--workers 2`.
    fleet: bool,
    /// Open-loop rates, requests per second.
    low_rps: f64,
    high_rps: f64,
    /// Requests in flight per saturation connection.
    window: usize,
    /// Saturation requests per second of run length: with `SAT_SHARE` this
    /// fixes each saturation segment's request count, so the server's
    /// memory growth repeats exactly. Near the saturation rate, lower for
    /// `hot-direct` to bound that growth.
    sat_budget_rps: f64,
}

fn served_plan(w: Workload) -> ServedPlan {
    match w {
        Workload::HotDirect => ServedPlan {
            fleet: false,
            low_rps: 5_000.0,
            high_rps: 20_000.0,
            window: 32,
            sat_budget_rps: 40_000.0,
        },
        Workload::ColdRouted => ServedPlan {
            fleet: true,
            low_rps: 1_000.0,
            high_rps: 3_000.0,
            window: 32,
            sat_budget_rps: 10_000.0,
        },
        Workload::FtrunDirect => ServedPlan {
            fleet: false,
            low_rps: 250.0,
            high_rps: 750.0,
            window: 8,
            sat_budget_rps: 2_500.0,
        },
        Workload::SettleSweep => unreachable!("settle-sweep has no server"),
    }
}

/// Offered load of `settle-sweep`, in requests (sweep bundles) per second.
const SWEEP_LOW_RPS: f64 = 250.0;
const SWEEP_HIGH_RPS: f64 = 500.0;
const SWEEP_SAT_BUDGET_RPS: f64 = 1300.0;

/// The binaries the benchmark drives, and where traces go.
struct Bins {
    serve: PathBuf,
    trace: PathBuf,
    trace_root: PathBuf,
}

/// Find `dls-serve` and `dls-trace` next to this executable (or one level
/// up, for a test binary under `deps/`).
fn bins() -> Result<Bins, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let found = [Some(dir), dir.parent()]
        .into_iter()
        .flatten()
        .find(|d| d.join("dls-serve").is_file() && d.join("dls-trace").is_file())
        .ok_or_else(|| {
            format!(
                "dls-serve and dls-trace not found next to {}; build them with \
                 `cargo build --release -p svc -p bench --bin dls-serve --bin dls-trace` \
                 into the same target directory (run.sh does)",
                exe.display()
            )
        })?;
    Ok(Bins {
        serve: found.join("dls-serve"),
        trace: found.join("dls-trace"),
        trace_root: found.join("dls-bench-trace"),
    })
}

/// Everything one run measured and checked.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.notes.push((name.to_string(), value.to_string()));
    }

    /// Check `answers` against the oracle's hashes.
    fn tally(&mut self, answers: &Answers, expected: impl FnMut(i64) -> u64) {
        self.attempted += answers.len() as u64;
        self.failed += answers.failures(expected) as u64;
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn json(&self) -> String {
        use minijson::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(*value)),
                        ("unit".into(), Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Number(self.attempted as f64)),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_json()
    }
}

/// The oracle hash of a served request; an oracle that cannot answer
/// (an invalid generated input) yields a hash no response can match.
fn expected_hash(stream: &dyn Stream, id: i64, problems: &mut Vec<String>) -> u64 {
    match stream.expected(id) {
        Ok(line) => fnv1a(line.as_bytes()),
        Err(e) => {
            if problems.len() < 5 {
                problems.push(format!("oracle for request {id}: {e}"));
            }
            0
        }
    }
}

fn ms(us: f64) -> f64 {
    us / 1000.0
}

fn median(xs: &[f64]) -> f64 {
    percentile_of(xs, 50.0)
}

/// Spawn the server and warm it, checking the warm-up answers.
fn start(
    bins: &Bins,
    plan: &ServedPlan,
    warm: &[(String, String)],
    trace: Option<&Path>,
    r: &mut Report,
) -> Result<Server, String> {
    let mut server = Server::spawn(&bins.serve, plan.fleet, trace)?;
    let mut answers = Answers::new(-(warm.len() as i64), warm.len());
    server.warm(warm, &mut answers)?;
    r.tally(&answers, |id| {
        fnv1a(warm[(id + warm.len() as i64) as usize].1.as_bytes())
    });
    Ok(server)
}

/// A served run in progress: the server and the next request id.
struct Session<'a> {
    server: Server,
    stream: &'a dyn Stream,
    next: i64,
}

impl Session<'_> {
    /// One open-loop phase of `seconds` at `rate`.
    fn open_loop(
        &mut self,
        rate: f64,
        seconds: f64,
        traced: bool,
    ) -> Result<served::Phase, String> {
        let n = ((rate * seconds).round() as usize).max(MIN_PHASE);
        let lines = Lines::generate(self.stream, self.next, n, traced);
        let phase = served::open_loop(self.server.addr, &lines, self.next, rate)?;
        self.server.lines_sent += n as u64;
        self.next += n as i64;
        Ok(phase)
    }

    /// One closed-loop segment of `n` requests on two connections.
    fn saturate(&mut self, n: usize, window: usize) -> Result<(Answers, f64), String> {
        let lines = Lines::generate(self.stream, self.next, n, false);
        let out = served::saturate(self.server.addr, &lines, self.next, 2, window)?;
        self.server.lines_sent += n as u64;
        self.next += n as i64;
        Ok(out)
    }
}

fn run_served(cfg: &Config, bins: &Bins, stream: &dyn Stream) -> Result<Report, String> {
    let plan = served_plan(cfg.workload);
    let s = cfg.seconds;
    let warm = stream.warm_lines();
    let mut r = Report::default();

    // Set-up: spawn until ready, cache warm-up included. The server set up
    // first serves the run; each round times one more set-up of a server
    // that is then drained, so the set-ups sample the whole run.
    let timed_start = |r: &mut Report, setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let server = start(bins, &plan, &warm, None, r)?;
        setups.push(t0.elapsed().as_secs_f64());
        Ok::<_, String>(server)
    };
    let mut setups = Vec::new();
    let mut run = Session {
        server: timed_start(&mut r, &mut setups)?,
        stream,
        next: 0,
    };
    let warmup = run.open_loop(plan.low_rps, WARMUP_SHARE * s, false)?;
    let sat_n = ((plan.sat_budget_rps * SAT_SHARE * s).round() as usize).max(1);
    let (mut low, mut high, mut sat) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let extra = timed_start(&mut r, &mut setups)?;
        Server::shutdown(extra, &mut r.problems)?;
        low.push(run.open_loop(plan.low_rps, SEGMENT_SHARE * s, false)?);
        high.push(run.open_loop(plan.high_rps, SEGMENT_SHARE * s, false)?);
        sat.push(run.saturate(sat_n, plan.window)?);
    }
    let mut server = run.server;
    let mem = server.mem()?;
    if plan.fleet {
        server.check_forwarding(&mut r.problems)?;
    }
    let stats = server.call("{\"op\":\"stats\"}")?;
    Server::shutdown(server, &mut r.problems)?;

    let mut problems = Vec::new();
    let open = std::iter::once(&warmup).chain(&low).chain(&high);
    for a in open.map(|p| &p.answers).chain(sat.iter().map(|(a, _)| a)) {
        r.tally(a, |id| expected_hash(stream, id, &mut problems));
    }
    r.problems.extend(problems);

    let latency = |phases: &[served::Phase]| -> Vec<Vec<f64>> {
        phases.iter().map(|p| p.latency_us.clone()).collect()
    };
    let sat_rps: Vec<f64> = sat.iter().map(|&(_, rps)| rps).collect();
    e2e_metrics(
        &mut r,
        &setups,
        &latency(&low),
        &latency(&high),
        &sat_rps,
        mem.hwm_kb,
    );
    let lag: Vec<f64> = high.iter().flat_map(|p| p.paced.lag_us.clone()).collect();
    let achieved: Vec<f64> = high.iter().map(|p| p.paced.achieved_ratio).collect();
    r.note("gen.lag.p99_ms", ms(percentile_of(&lag, 99.0)));
    r.note("gen.achieved_ratio.high", median(&achieved));
    r.note("server.stats", stats);
    Ok(r)
}

/// The end-to-end metrics from per-round latency samples (µs), per-round
/// saturation rates and the set-up times. A latency is the median over
/// rounds of each round's percentile. Set-up and saturation are fixed
/// amounts of work that other tenants of a shared host can only slow, in
/// spells longer than a round, so each reports its best round: the one
/// closest to what the code itself costs.
fn e2e_metrics(
    r: &mut Report,
    setups: &[f64],
    low: &[Vec<f64>],
    high: &[Vec<f64>],
    sat_rps: &[f64],
    peak_kb: u64,
) {
    let lat = |rounds: &[Vec<f64>], q: f64| {
        let slices: Vec<&[f64]> = rounds.iter().map(Vec::as_slice).collect();
        ms(segment_median(&slices, q))
    };
    r.metric(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    r.metric("p50_ms.low", lat(low, 50.0), "ms");
    r.metric("p90_ms.low", lat(low, 90.0), "ms");
    r.metric("p50_ms.high", lat(high, 50.0), "ms");
    r.metric("p90_ms.high", lat(high, 90.0), "ms");
    r.metric(
        "sat_rps",
        sat_rps.iter().copied().fold(0.0, f64::max),
        "1/s",
    );
    r.metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    let all_high: Vec<f64> = high.concat();
    r.note("p99_ms.high", ms(percentile_of(&all_high, 99.0)));
    let per_round = |rounds: &[Vec<f64>], q: f64| -> Vec<f64> {
        rounds.iter().map(|x| ms(percentile_of(x, q))).collect()
    };
    for (name, rounds) in [("low", low), ("high", high)] {
        for q in [50.0, 90.0] {
            r.note(
                &format!("p{q}_ms.{name} by round"),
                format!("{:.4?}", per_round(rounds, q)),
            );
        }
    }
    r.note("sat_rps by round", format!("{sat_rps:.0?}"));
    r.note("setup_s by rep", format!("{setups:.6?}"));
}

/// Per-layer inputs shared by the served and in-process traced runs.
struct LayerInputs<'a> {
    replay: &'a layers::Replay,
    /// Worker-side queue wait and latency of the traced high phase, µs.
    queue_wait_us: &'a [f64],
    pool_latency_us: &'a [f64],
    /// Client-side latency of the traced and untraced high phases, µs.
    client_us: &'a [f64],
    untraced_us: &'a [f64],
    lag_us: &'a [f64],
    achieved: (f64, f64),
    cache_hit_ratio: f64,
    per_request: [f64; 3],
    rss_growth_b_per_req: f64,
}

/// Per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(r: &mut Report, t: &LayerInputs) {
    let us = |ns: &[f64]| percentile_of(ns, 50.0) / 1000.0;
    let mut table = Vec::new();
    for (k, name) in layers::LAYERS.iter().enumerate() {
        let calls = &t.replay.ns[k];
        r.metric(&format!("{name}.p50_us"), us(calls), "us");
        table.push(format!(
            "  {name:<40} {:>6} calls  p50 {:>10.3} µs  p90 {:>10.3} µs  busy {:>9.6} s",
            calls.len(),
            us(calls),
            percentile_of(calls, 90.0) / 1000.0,
            calls.iter().sum::<f64>() / 1e9,
        ));
    }
    r.metric(
        "svc.handlers.serialize.p50_us",
        us(&t.replay.serialize_ns),
        "us",
    );
    r.metric(
        "svc.pool.queue_wait.p50_us",
        percentile_of(t.queue_wait_us, 50.0),
        "us",
    );
    r.metric(
        "svc.pool.queue_wait.p90_us",
        percentile_of(t.queue_wait_us, 90.0),
        "us",
    );
    r.metric(
        "svc.pool.latency.p50_us",
        percentile_of(t.pool_latency_us, 50.0),
        "us",
    );
    r.metric(
        "svc.pool.latency.p90_us",
        percentile_of(t.pool_latency_us, 90.0),
        "us",
    );
    r.metric(
        "svc.io.p50_us",
        percentile_of(t.client_us, 50.0) - percentile_of(t.pool_latency_us, 50.0),
        "us",
    );
    r.metric("svc.cache.hit_ratio", t.cache_hit_ratio, "ratio");
    r.metric("dlt.batch.solve_one.per_req", t.per_request[0], "count");
    r.metric(
        "mechanism.payment.settle_all.per_req",
        t.per_request[1],
        "count",
    );
    r.metric("svc.cache.miss.per_req", t.per_request[2], "count");
    r.metric("serve.rss_growth_b_per_req", t.rss_growth_b_per_req, "B");
    r.metric("gen.lag.p99_ms", ms(percentile_of(t.lag_us, 99.0)), "ms");
    r.metric("gen.achieved_ratio.low", t.achieved.0, "ratio");
    r.metric("gen.achieved_ratio.high", t.achieved.1, "ratio");
    r.metric(
        "client.p99_ms.high",
        ms(percentile_of(t.client_us, 99.0)),
        "ms",
    );
    r.metric(
        "trace.overhead_ratio",
        percentile_of(t.client_us, 50.0) / percentile_of(t.untraced_us, 50.0),
        "ratio",
    );
    match layers::self_times(&t.replay.records) {
        Ok(selves) => {
            let parents: Vec<f64> = selves
                .iter()
                .filter(|(name, _)| *name == layers::REPLAY_SPAN)
                .map(|&(_, s)| s as f64)
                .collect();
            table.push(format!(
                "  {:<40} self p50 {:.0} µs (bench bookkeeping between calls)",
                layers::REPLAY_SPAN,
                percentile_of(&parents, 50.0)
            ));
            if selves.iter().any(|&(_, s)| s < 0) {
                r.problems
                    .push("a replay span has negative self time".into());
            }
        }
        Err(e) => r.problems.push(format!("replay spans: {e}")),
    }
    r.note(
        "per-layer table (replayed calls)",
        format!("\n{}", table.join("\n")),
    );
}

/// Evenly spaced ids of `range`, at most `n`.
fn sample_ids(range: std::ops::Range<i64>, n: usize) -> Vec<i64> {
    let len = (range.end - range.start).max(0) as usize;
    let take = n.min(len);
    (0..take)
        .map(|k| range.start + (k * len / take) as i64)
        .collect()
}

/// Clear and return the trace directory of a workload.
fn trace_dir(bins: &Bins, w: Workload) -> Result<PathBuf, String> {
    let dir = bins.trace_root.join(w.name());
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Write the replay spans and check the trace files with `dls-trace`. The
/// fleet join audits router-to-shard conservation, so it takes the
/// server's file only when a router wrote into it.
fn finish_traces(
    bins: &Bins,
    dir: &Path,
    replay: &layers::Replay,
    serve: Option<&Path>,
    routed: bool,
) -> Result<(), String> {
    let bench = dir.join("bench.jsonl");
    layers::write_records(&replay.records, &bench)?;
    let mut all: Vec<&Path> = serve.into_iter().collect();
    all.push(&bench);
    layers::check_with_dls_trace(&bins.trace, &all, false)?;
    let joined = if routed {
        &all[..]
    } else {
        &all[all.len() - 1..]
    };
    layers::check_with_dls_trace(&bins.trace, joined, true)
}

fn run_served_traced(cfg: &Config, bins: &Bins, stream: &dyn Stream) -> Result<Report, String> {
    let plan = served_plan(cfg.workload);
    let s = cfg.seconds;
    let warm = stream.warm_lines();
    let dir = trace_dir(bins, cfg.workload)?;
    let mut r = Report::default();

    // Untraced baseline of the high phase: the overhead ratio's base and
    // the server's memory growth per request.
    let mut run = Session {
        server: start(bins, &plan, &warm, None, &mut r)?,
        stream,
        next: 0,
    };
    let base_warmup = run.open_loop(plan.low_rps, 0.05 * s, false)?;
    let rss0 = run.server.mem()?.rss_kb;
    let base = run.open_loop(plan.high_rps, 0.10 * s, false)?;
    let rss1 = run.server.mem()?.rss_kb;
    let rss_growth = (rss1 as f64 - rss0 as f64) * 1024.0 / base.answers.len() as f64;
    let next = run.next;
    Server::shutdown(run.server, &mut r.problems)?;

    // The traced run.
    let serve_path = dir.join("serve.jsonl");
    let mut run = Session {
        server: start(bins, &plan, &warm, Some(&serve_path), &mut r)?,
        stream,
        next,
    };
    let warmup = run.open_loop(plan.low_rps, 0.05 * s, true)?;
    let low = run.open_loop(plan.low_rps, 0.10 * s, true)?;
    let high_start = run.next;
    let high = run.open_loop(plan.high_rps, 0.10 * s, true)?;
    let next = run.next;
    Server::shutdown(run.server, &mut r.problems)?;

    let mut problems = Vec::new();
    for p in [&base_warmup, &base, &warmup, &low, &high] {
        r.tally(&p.answers, |id| expected_hash(stream, id, &mut problems));
    }
    r.problems.extend(problems);

    let traces = (high_start as u64 + 1)..(next as u64 + 1);
    let serve = layers::ServeTrace::read(&serve_path, traces)?;
    let inputs: Vec<_> = sample_ids(high_start..next, REPLAY_INPUTS)
        .into_iter()
        .map(|id| stream.replay(id))
        .collect();
    let replay = layers::replay(&inputs, Duration::from_secs_f64(0.3 * s));
    finish_traces(bins, &dir, &replay, Some(&serve_path), plan.fleet)?;

    let hits = serve.counters.get("svc.cache.hit").copied().unwrap_or(0.0);
    let misses = serve.counters.get("svc.cache.miss").copied().unwrap_or(0.0);
    let lag: Vec<f64> = [low.paced.lag_us.as_slice(), &high.paced.lag_us].concat();
    layer_metrics(
        &mut r,
        &LayerInputs {
            replay: &replay,
            queue_wait_us: &serve.queue_wait_us,
            pool_latency_us: &serve.latency_us,
            client_us: &high.latency_us,
            untraced_us: &base.latency_us,
            lag_us: &lag,
            achieved: (low.paced.achieved_ratio, high.paced.achieved_ratio),
            cache_hit_ratio: if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            per_request: [
                serve.per_request("dlt.batch.solve_one"),
                serve.per_request("mechanism.payment.settle_all"),
                serve.per_request("svc.cache.miss"),
            ],
            rss_growth_b_per_req: rss_growth,
        },
    );
    if !serve.router_request_us.is_empty() {
        r.note(
            "svc.router.request.p50_us",
            percentile_of(&serve.router_request_us, 50.0),
        );
        r.note(
            "svc.router.self.p50_us",
            percentile_of(&serve.router_self_us, 50.0),
        );
    }
    r.note("trace files", dir.display());
    Ok(r)
}

/// Counts `obs` counter increments in-process and keeps nothing else.
#[derive(Default)]
struct CounterSink(Mutex<BTreeMap<&'static str, f64>>);

impl obs::Sink for CounterSink {
    fn record(&self, record: &obs::Record) {
        if record.kind == obs::RecordKind::Counter {
            *self
                .0
                .lock()
                .expect("counter sink lock")
                .entry(record.name)
                .or_default() += record.value;
        }
    }
}

fn tally_sweep(r: &mut Report, phase: &sweep::Phase, oracle: &mut sweep::Oracle) {
    r.tally(&phase.answers, |id| oracle.expected(id));
    r.failed += phase.violations as u64;
}

/// Run one in-process open-loop phase of `seconds` at `rate` from id `*next`.
fn sweep_phase(
    pool: &sweep::Pool,
    seed: u64,
    next: &mut i64,
    rate: f64,
    seconds: f64,
) -> sweep::Phase {
    let n = ((rate * seconds).round() as usize).max(MIN_PHASE);
    let phase = sweep::open_loop(pool, seed, *next, n, rate);
    *next += n as i64;
    phase
}

/// `settle-sweep`'s set-up: build the pool for `seed` and run one request.
/// Returns the pool and the set-up time scaled to the reference core.
fn sweep_setup(seed: u64) -> (sweep::Pool, f64) {
    let before = probe::probe_us();
    let t0 = Instant::now();
    let pool = sweep::Pool::new(seed);
    std::hint::black_box(pool.run(seed, 0));
    let took = t0.elapsed().as_secs_f64();
    let after = probe::probe_us();
    (pool, took * probe::scale((before + after) / 2.0))
}

/// `settle-sweep` runs the served workloads' timeline in-process. Its
/// times are scaled to the reference core (see `probe`); the times as
/// measured are printed beside them.
fn run_sweep(cfg: &Config) -> Result<Report, String> {
    let s = cfg.seconds;
    let mut r = Report::default();
    let (pool, first_setup) = sweep_setup(cfg.seed);
    let mut setups = vec![first_setup];
    let mut next = 0i64;
    let warmup = sweep_phase(&pool, cfg.seed, &mut next, SWEEP_LOW_RPS, WARMUP_SHARE * s);
    let sat_n = ((SWEEP_SAT_BUDGET_RPS * SAT_SHARE * s).round() as usize).max(1);
    let (mut low, mut high, mut sat) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        setups.push(sweep_setup(cfg.seed).1);
        let segment = SEGMENT_SHARE * s;
        low.push(sweep_phase(
            &pool,
            cfg.seed,
            &mut next,
            SWEEP_LOW_RPS,
            segment,
        ));
        high.push(sweep_phase(
            &pool,
            cfg.seed,
            &mut next,
            SWEEP_HIGH_RPS,
            segment,
        ));
        sat.push(sweep::saturate(&pool, cfg.seed, next, sat_n));
        next += sat_n as i64;
    }
    let mem = mem::read(None).map_err(|e| e.to_string())?;

    let mut oracle = sweep::Oracle::new(&pool, cfg.seed);
    let open = std::iter::once(&warmup).chain(&low).chain(&high);
    for phase in open.chain(sat.iter().map(|(p, ..)| p)) {
        tally_sweep(&mut r, phase, &mut oracle);
    }
    if cfg.seed == DEFAULT_SEED {
        let digest = oracle.digest(DIGEST_REQUESTS);
        if digest != PINNED_SWEEP_DIGEST {
            r.problems.push(format!(
                "settle-sweep utilities changed: digest {digest:#018x}, pinned {PINNED_SWEEP_DIGEST:#018x}"
            ));
        }
    }

    let scaled = |phases: &[sweep::Phase]| -> Vec<Vec<f64>> {
        phases.iter().map(sweep::Phase::scaled_latency_us).collect()
    };
    let sat_rps: Vec<f64> = sat.iter().map(|&(.., scaled)| scaled).collect();
    e2e_metrics(
        &mut r,
        &setups,
        &scaled(&low),
        &scaled(&high),
        &sat_rps,
        mem.hwm_kb,
    );
    let measured = |phases: &[sweep::Phase], q: f64| {
        let slices: Vec<&[f64]> = phases.iter().map(|p| p.latency_us.as_slice()).collect();
        ms(segment_median(&slices, q))
    };
    let raw_rps: Vec<f64> = sat.iter().map(|&(_, raw, _)| raw).collect();
    r.note("p50_ms.low as measured", measured(&low, 50.0));
    r.note("p50_ms.high as measured", measured(&high, 50.0));
    r.note("sat_rps by round as measured", format!("{raw_rps:.0?}"));
    let profiles: u64 = sat.iter().map(|(p, ..)| p.profiles).sum();
    let sat_seconds: f64 = raw_rps.iter().map(|rps| sat_n as f64 / rps).sum();
    r.note(
        "profiles settled per s as measured",
        profiles as f64 / sat_seconds,
    );
    Ok(r)
}

fn run_sweep_traced(cfg: &Config, bins: &Bins) -> Result<Report, String> {
    let s = cfg.seconds;
    let dir = trace_dir(bins, cfg.workload)?;
    let mut r = Report::default();
    let pool = sweep::Pool::new(cfg.seed);
    let mut next = 0i64;
    let warm = sweep_phase(&pool, cfg.seed, &mut next, SWEEP_LOW_RPS, 0.05 * s);
    let rss0 = mem::read(None).map_err(|e| e.to_string())?.rss_kb;
    let base = sweep_phase(&pool, cfg.seed, &mut next, SWEEP_HIGH_RPS, 0.10 * s);
    let rss1 = mem::read(None).map_err(|e| e.to_string())?.rss_kb;

    // The traced phases count the library's own `obs` counters.
    let counters = std::sync::Arc::new(CounterSink::default());
    obs::install(counters.clone());
    let warm_traced = sweep_phase(&pool, cfg.seed, &mut next, SWEEP_LOW_RPS, 0.05 * s);
    let low = sweep_phase(&pool, cfg.seed, &mut next, SWEEP_LOW_RPS, 0.10 * s);
    let high_start = next;
    let high = sweep_phase(&pool, cfg.seed, &mut next, SWEEP_HIGH_RPS, 0.10 * s);
    obs::uninstall();
    let high_end = next;

    let mut oracle = sweep::Oracle::new(&pool, cfg.seed);
    for phase in [&warm, &base, &warm_traced, &low, &high] {
        tally_sweep(&mut r, phase, &mut oracle);
    }

    let inputs: Vec<_> = sample_ids(high_start..high_end, REPLAY_INPUTS)
        .into_iter()
        .map(|id| pool.replay_input(cfg.seed, id as u64))
        .collect();
    let replay = layers::replay(&inputs, Duration::from_secs_f64(0.3 * s));
    finish_traces(bins, &dir, &replay, None, false)?;

    let traced_requests =
        (warm_traced.answers.len() + low.answers.len() + high.answers.len()) as f64;
    let counts = counters.0.lock().expect("counter sink lock").clone();
    let per = |name: &str| counts.get(name).copied().unwrap_or(0.0) / traced_requests;
    // The worker is its own generator: a request starts late only when it
    // queues behind an earlier one.
    let lag: Vec<f64> = [low.wait_us.as_slice(), &high.wait_us].concat();
    layer_metrics(
        &mut r,
        &LayerInputs {
            replay: &replay,
            queue_wait_us: &high.wait_us,
            pool_latency_us: &high.service_us,
            client_us: &high.latency_us,
            untraced_us: &base.latency_us,
            lag_us: &lag,
            achieved: (low.achieved_ratio, high.achieved_ratio),
            cache_hit_ratio: 0.0,
            per_request: [
                per("dlt.batch.solve_one"),
                per("mechanism.payment.settle_all"),
                per("svc.cache.miss"),
            ],
            rss_growth_b_per_req: (rss1 as f64 - rss0 as f64) * 1024.0 / base.answers.len() as f64,
        },
    );
    r.note("trace files", dir.display());
    Ok(r)
}

fn run_and_note_steal(cfg: &Config) -> Result<Report, String> {
    let before = mem::cpu_times().map_err(|e| e.to_string())?;
    let mut r = run(cfg)?;
    let after = mem::cpu_times().map_err(|e| e.to_string())?;
    // Steal is CPU time the hypervisor gave another tenant while this VM
    // wanted it; a run with much of it timed the host as well as the code.
    r.note("host steal ratio", before.steal_ratio(after));
    Ok(r)
}

fn run(cfg: &Config) -> Result<Report, String> {
    let stream: Box<dyn Stream> = match cfg.workload {
        Workload::HotDirect => Box::new(workload::Hot::new(cfg.seed)),
        Workload::ColdRouted => Box::new(workload::Cold::new(cfg.seed)),
        Workload::FtrunDirect => Box::new(workload::Ft::new(cfg.seed)),
        Workload::SettleSweep if cfg.trace => return run_sweep_traced(cfg, &bins()?),
        Workload::SettleSweep => return run_sweep(cfg),
    };
    let bins = bins()?;
    if cfg.trace {
        run_served_traced(cfg, &bins, stream.as_ref())
    } else {
        run_served(cfg, &bins, stream.as_ref())
    }
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::HotDirect,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 600.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "dls-bench: {e}\nusage: dls-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match run_and_note_steal(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dls-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "dls-bench {} seed={} seconds={} trace={} (available parallelism {})",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    for (name, value) in &report.notes {
        println!("  {name}: {value}");
    }
    println!(
        "  attempted {} failed {} fail_ratio {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for p in &report.problems {
        println!("  CHECK FAILED: {p}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::Value;

    /// The names a section of `BENCHMARK.json` lists.
    fn benchmark_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = Value::parse(&text).expect("BENCHMARK.json parses");
        v.get(section)
            .and_then(Value::as_array)
            .expect("section is a list")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    fn names(r: &Report) -> Vec<String> {
        r.metrics.iter().map(|(n, ..)| n.clone()).collect()
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_end_to_end_metrics() {
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(benchmark_names("workloads"), workloads);
        let e2e = [
            "setup_s",
            "p50_ms.low",
            "p90_ms.low",
            "p50_ms.high",
            "p90_ms.high",
            "sat_rps",
            "peak_rss_mb",
        ];
        assert_eq!(benchmark_names("end_to_end"), e2e);
    }

    #[test]
    fn the_pinned_sweep_digest_holds_at_the_default_seed() {
        let pool = sweep::Pool::new(DEFAULT_SEED);
        let digest = sweep::Oracle::new(&pool, DEFAULT_SEED).digest(DIGEST_REQUESTS);
        assert_eq!(digest, PINNED_SWEEP_DIGEST, "{digest:#018x}");
    }

    /// The same code paths as a measured run at under a tenth of its length:
    /// every workload, untraced and traced, passes every check and prints
    /// exactly the metrics `BENCHMARK.json` lists. Needs `dls-serve` and
    /// `dls-trace` built into the same target directory (run.sh does).
    #[test]
    fn every_workload_passes_its_checks_in_a_short_run() {
        let e2e = benchmark_names("end_to_end");
        let per_layer = benchmark_names("per_layer");
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = Config {
                    workload,
                    seed: 3,
                    seconds: 2.0,
                    trace,
                };
                let r = run(&cfg).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
                assert!(
                    r.correct(),
                    "{cfg:?}: {} of {} failed; {:?}",
                    r.failed,
                    r.attempted,
                    r.problems
                );
                assert_eq!(&names(&r), if trace { &per_layer } else { &e2e }, "{cfg:?}");
                for (name, value, _) in &r.metrics {
                    assert!(value.is_finite(), "{cfg:?}: {name} = {value}");
                }
                let json = Value::parse(&r.json()).expect("result line is JSON");
                assert_eq!(json.get("correct").and_then(Value::as_bool), Some(true));
            }
        }
    }
}

//! E26 — fleet telemetry: tracing never changes bytes, costs nothing
//! when disabled, and conserves every request.
//!
//! Reruns the E25 chaos plans through the full resilient topology
//! (supervised in-process shards behind the failover router, seeded
//! chaos proxy on the client link) twice each — once with observability
//! disabled, once streaming a `JsonlSink` to `results/e26_<plan>.jsonl`
//! — and asserts:
//!
//! 1. **Byte-identity** — at every line index answered by both runs, the
//!    traced response bytes equal the untraced ones, modulo the `cached`
//!    flag (which duplicate of a chain arrives first is a scheduling
//!    accident across 4 concurrent connections, not a tracing effect —
//!    E25's oracle check skips it the same way). The router's trace
//!    injection touches request envelopes only (DESIGN.md §12), so the
//!    response stream is invariant.
//! 2. **Conservation** — reading each plan's JSONL back, every trace id
//!    satisfies `svc.receive == router.forward_attempt −
//!    router.attempt_failed`, including the `kill`/`mixed` plans where a
//!    shard is SIGKILLed (or retired) mid-burst and restarted, and an
//!    extra `drain` plan (beyond E25's seven) where a shard drains
//!    behind the router's back so traces provably fail over mid-chain.
//! 3. **Disabled-path overhead** — E21-style interleaved batch medians
//!    of a serial solve stream through the fleet, disabled vs
//!    `NoopSink`; the disabled path (one relaxed atomic load per site)
//!    must be within noise (≤1.5×) of the enabled-but-discarding path.
//!
//! Additionally probes the router's `metrics` op once per traced plan
//! and checks it aggregates fleet-wide counters from every live shard.
//!
//! This binary deliberately does **not** honor `DLS_TRACE`: it manages
//! sinks itself, and an ambient sink would corrupt the disabled
//! baseline. Inspect the per-plan traces with
//! `dls-trace --fleet results/e26_<plan>.jsonl`.
//!
//! Writes `results/exp_fleet_telemetry.txt` and `.json`. Environment
//! overrides: `DLS_E26_REQUESTS`, `DLS_E26_CONNS`, `DLS_E26_SHARDS`,
//! `DLS_E26_DISTINCT`, `DLS_E26_BUDGET`, `DLS_E26_SEED`.

use bench::{JsonReport, Table};
use minijson::Value;
use obs::{JsonlSink, NoopSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use svc::chaos::{ChaosConfig, ChaosProxy};
use svc::resilient_client::{ResilientClient, RetryPolicy};
use svc::supervisor::ShardRuntime;
use svc::{Client, ClientConfig, Router, RouterConfig, ServerConfig, Supervisor, SupervisorConfig};
use workloads::requests::{self, RequestMixConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Plan {
    name: &'static str,
    chaos: ChaosConfig,
    kill: bool,
    /// Gracefully drain shard 0 behind the router's back (a direct
    /// `shutdown` op, no `mark_down`): the router keeps routing to it
    /// and must fail over on the `draining` rejections, exercising
    /// multi-attempt traces deterministically.
    drain: bool,
}

/// The E25 chaos plan set, byte for byte (the telemetry claims must hold
/// under exactly the conditions the resilience claims were proven
/// under), plus a `drain` plan that forces router-level failover chains.
fn plans(seed: u64, budget: u64) -> Vec<Plan> {
    let base = ChaosConfig {
        seed,
        event_budget: budget,
        ..ChaosConfig::transparent(seed)
    };
    vec![
        Plan {
            name: "none",
            chaos: ChaosConfig::transparent(seed),
            kill: false,
            drain: false,
        },
        Plan {
            name: "resets",
            chaos: ChaosConfig {
                reset_prob: 0.08,
                ..base.clone()
            },
            kill: false,
            drain: false,
        },
        Plan {
            name: "delays",
            chaos: ChaosConfig {
                delay_prob: 0.25,
                delay: Duration::from_millis(15),
                ..base.clone()
            },
            kill: false,
            drain: false,
        },
        Plan {
            name: "partial",
            chaos: ChaosConfig {
                partial_prob: 0.25,
                ..base.clone()
            },
            kill: false,
            drain: false,
        },
        Plan {
            name: "corrupt",
            chaos: ChaosConfig {
                corrupt_prob: 0.08,
                ..base.clone()
            },
            kill: false,
            drain: false,
        },
        Plan {
            name: "kill",
            chaos: ChaosConfig::transparent(seed),
            kill: true,
            drain: false,
        },
        Plan {
            name: "mixed",
            chaos: ChaosConfig {
                reset_prob: 0.04,
                delay_prob: 0.10,
                delay: Duration::from_millis(10),
                partial_prob: 0.10,
                corrupt_prob: 0.04,
                ..base
            },
            kill: true,
            drain: false,
        },
        Plan {
            name: "drain",
            chaos: ChaosConfig::transparent(seed),
            kill: false,
            drain: true,
        },
    ]
}

#[derive(Default)]
struct PlanOutcome {
    ok: u64,
    exhausted: u64,
    attempts: u64,
    failovers: u64,
    restarts: u64,
    fleet_received: u64,
    shards_reporting: u64,
}

/// Drive one chaos plan through the full stack; collect the raw response
/// per line index (None where retries exhausted). When `probe_metrics`,
/// also round-trip the router's `metrics` op before shutdown.
fn run_plan(
    plan: &Plan,
    shards: usize,
    conns: usize,
    lines: &[(String, usize)],
    seed: u64,
    probe_metrics: bool,
) -> (PlanOutcome, Vec<Option<String>>) {
    let sup = Supervisor::start(SupervisorConfig {
        shards,
        server: ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        monitor_interval: Duration::from_millis(20),
        backoff_base: Duration::from_millis(20),
        backoff_max: Duration::from_millis(200),
        runtime: ShardRuntime::InProcess,
    })
    .expect("start fleet");
    let router = Router::spawn(
        sup.directory(),
        RouterConfig {
            health_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let mut proxy =
        ChaosProxy::spawn(router.addr(), plan.chaos.clone()).expect("spawn chaos proxy");
    let proxy_addr = proxy.addr();

    let responses: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; lines.len()]);
    let ok = AtomicU64::new(0);
    let exhausted = AtomicU64::new(0);
    let attempts = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for conn in 0..conns {
            let (ok, exhausted, attempts, responses) = (&ok, &exhausted, &attempts, &responses);
            let slots: Vec<(usize, &(String, usize))> =
                lines.iter().enumerate().skip(conn).step_by(conns).collect();
            scope.spawn(move || {
                let mut rc = ResilientClient::new(
                    proxy_addr.to_string(),
                    RetryPolicy {
                        max_attempts: 8,
                        base_backoff: Duration::from_millis(10),
                        max_backoff: Duration::from_millis(150),
                        client: ClientConfig::fast(Duration::from_millis(800)),
                        seed: seed ^ conn as u64,
                        ..RetryPolicy::default()
                    },
                );
                for (pos, (line, _)) in slots {
                    match rc.call(line) {
                        Ok(out) => {
                            attempts.fetch_add(out.attempts as u64, Ordering::Relaxed);
                            ok.fetch_add(1, Ordering::Relaxed);
                            responses.lock().unwrap()[pos] = Some(out.raw);
                        }
                        Err(_) => {
                            exhausted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        if plan.kill || plan.drain {
            // Fire strictly mid-burst: wait until a quarter of the calls
            // have been answered (a fixed sleep can miss a fast burst
            // entirely), then disrupt shard 0 with ~75% still in flight.
            let (ok, exhausted, sup) = (&ok, &exhausted, &sup);
            let quarter = (lines.len() / 4) as u64;
            let directory = sup.directory();
            scope.spawn(move || {
                while ok.load(Ordering::Relaxed) + exhausted.load(Ordering::Relaxed) < quarter {
                    std::thread::sleep(Duration::from_micros(200));
                }
                if plan.kill {
                    sup.kill_shard(0, true);
                } else {
                    // Drain shard 0 behind the router's back: a direct
                    // `shutdown` op, no `mark_down`. The router keeps
                    // routing to it until the `draining` rejections and
                    // failed probes push it out — every such request is
                    // a multi-attempt failover chain in the trace.
                    let addr = directory.snapshot()[0].addr.expect("slot 0 has an addr");
                    if let Ok(mut c) = Client::connect(addr) {
                        let _ = c.call_raw(r#"{"op":"shutdown"}"#);
                    }
                }
            });
        }
    });

    let answered = ok.load(Ordering::Relaxed) + exhausted.load(Ordering::Relaxed);
    assert_eq!(
        answered,
        lines.len() as u64,
        "[{}] some calls never terminated",
        plan.name
    );
    assert!(
        ok.load(Ordering::Relaxed) > 0,
        "[{}] the fleet answered nothing",
        plan.name
    );

    let mut shards_reporting = 0u64;
    if probe_metrics {
        let mut c = Client::connect(router.addr()).expect("connect for metrics probe");
        let raw = c
            .call_raw(r#"{"op":"metrics"}"#)
            .expect("metrics round-trip");
        let v = Value::parse(&raw).expect("metrics response parses");
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("ok"),
            "[{}] metrics op failed: {raw}",
            plan.name
        );
        let result = v.get("result").expect("metrics result");
        assert_eq!(result.get("role").and_then(Value::as_str), Some("router"));
        shards_reporting = result
            .get("fleet")
            .and_then(|f| f.get("shards_reporting"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        assert!(
            shards_reporting >= 1,
            "[{}] router metrics aggregated no shards: {raw}",
            plan.name
        );
        assert!(
            result
                .get("text")
                .and_then(Value::as_str)
                .is_some_and(|t| t.contains("# TYPE dls_router_received_total counter")),
            "[{}] prometheus text missing router counters",
            plan.name
        );
    }

    let rstats = router.stats();
    proxy.stop();
    router.shutdown();
    router.join();
    let restarts = sup.restarts();
    let total = sup.shutdown();
    assert!(
        total.conserved(),
        "[{}] fleet ledger broken: {total:?}",
        plan.name
    );
    if plan.kill {
        assert!(
            restarts >= 1,
            "[{}] killed shard never restarted",
            plan.name
        );
    }
    (
        PlanOutcome {
            ok: ok.load(Ordering::Relaxed),
            exhausted: exhausted.load(Ordering::Relaxed),
            attempts: attempts.load(Ordering::Relaxed),
            failovers: rstats.failovers,
            restarts,
            fleet_received: total.received,
            shards_reporting,
        },
        responses.into_inner().unwrap(),
    )
}

#[derive(Default)]
struct Ledger {
    attempts: u64,
    failed: u64,
    receives: u64,
}

/// Read a plan's JSONL back and fold the conservation ledger per trace
/// id. Returns (ledgers, record count).
fn read_ledgers(path: &str) -> (BTreeMap<u64, Ledger>, usize) {
    let text = std::fs::read_to_string(path).expect("read trace back");
    let mut ledgers: BTreeMap<u64, Ledger> = BTreeMap::new();
    let mut records = 0usize;
    for line in text.lines() {
        let Ok(v) = Value::parse(line) else { continue };
        records += 1;
        if v.get("k").and_then(Value::as_str) != Some("ev") {
            continue;
        }
        let Some(name) = v.get("n").and_then(Value::as_str) else {
            continue;
        };
        let Some(trace) = v
            .get("f")
            .and_then(|f| f.get("trace"))
            .and_then(Value::as_u64)
        else {
            continue;
        };
        let l = ledgers.entry(trace).or_default();
        match name {
            "router.forward_attempt" => l.attempts += 1,
            "router.attempt_failed" => l.failed += 1,
            "svc.receive" => l.receives += 1,
            _ => {}
        }
    }
    (ledgers, records)
}

/// The E21-style overhead probe: a serial solve stream through a
/// chaos-free fleet, interleaving disabled and NoopSink batches; returns
/// (disabled median, noop median) in seconds.
fn overhead_probe(lines: &[(String, usize)], shards: usize) -> (f64, f64) {
    let sup = Supervisor::start(SupervisorConfig {
        shards,
        runtime: ShardRuntime::InProcess,
        ..SupervisorConfig::default()
    })
    .expect("start fleet");
    let router = Router::spawn(
        sup.directory(),
        RouterConfig {
            health_interval: Duration::ZERO,
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let mut c = Client::connect(router.addr()).expect("connect");
    let mut batch = |_label: &str| {
        let t = Instant::now();
        for (line, _) in lines {
            c.call_raw(line).expect("call");
        }
        t.elapsed().as_secs_f64()
    };
    batch("warmup"); // cache-warming, untimed
    const BATCHES: usize = 5;
    let mut disabled = Vec::with_capacity(BATCHES);
    let mut noop = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        obs::uninstall();
        disabled.push(batch("disabled"));
        obs::install(Arc::new(NoopSink));
        noop.push(batch("noop"));
        obs::uninstall();
    }
    router.shutdown();
    router.join();
    assert!(sup.shutdown().conserved());
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(&mut disabled), median(&mut noop))
}

fn main() {
    let total = env_usize("DLS_E26_REQUESTS", 160);
    let conns = env_usize("DLS_E26_CONNS", 4);
    let shards = env_usize("DLS_E26_SHARDS", 3);
    let distinct = env_usize("DLS_E26_DISTINCT", 10);
    let budget = env_u64("DLS_E26_BUDGET", 40);
    let seed = env_u64("DLS_E26_SEED", 0xE26);

    obs::uninstall(); // the untraced baseline must run with no sink

    let cfg = RequestMixConfig {
        total,
        distinct_chains: distinct,
        processors: 5,
        seed,
    };
    let lines = requests::solve_lines_indexed(&cfg);
    std::fs::create_dir_all("results").expect("create results/");

    println!(
        "E26: {total} requests x {} plans x 2 runs (untraced, traced), \
         {conns} conns, {shards} shards, chaos budget {budget}",
        plans(seed, budget).len()
    );
    println!();

    let mut table = Table::new(&[
        "plan",
        "ok",
        "ok_traced",
        "byte_matched",
        "traces",
        "failovers",
        "violations",
        "restarts",
        "records",
    ]);
    let mut report = JsonReport::new("exp_fleet_telemetry");
    report
        .scalar("requests_per_plan", total as f64)
        .scalar("connections", conns as f64)
        .scalar("shards", shards as f64)
        .scalar("chaos_budget", budget as f64)
        .scalar("seed", seed as f64);

    for plan in plans(seed, budget) {
        // Untraced baseline: observability fully disabled.
        obs::uninstall();
        let (base, base_resp) = run_plan(&plan, shards, conns, &lines, seed, false);

        // Traced run: every process-wide record streams to the plan file.
        let trace_path = format!("results/e26_{}.jsonl", plan.name);
        let sink = JsonlSink::create(&trace_path).expect("create trace file");
        obs::install(Arc::new(sink));
        let (traced, traced_resp) = run_plan(&plan, shards, conns, &lines, seed, true);
        obs::uninstall(); // flushes the JSONL writer

        // 1. Byte-identity at every index both runs answered. The
        // `cached` flag is normalized first: it records arrival order
        // among duplicate chains, a scheduling accident, not bytes the
        // solver or the tracing layer control.
        let normalize = |s: &str| s.replace("\"cached\":true", "\"cached\":false");
        let mut matched = 0usize;
        for (i, (b, t)) in base_resp.iter().zip(&traced_resp).enumerate() {
            if let (Some(b), Some(t)) = (b, t) {
                assert_eq!(
                    normalize(b),
                    normalize(t),
                    "[{}] traced response {i} diverged from untraced bytes\n line: {}",
                    plan.name,
                    lines[i].0
                );
                matched += 1;
            }
        }
        assert!(
            matched > 0,
            "[{}] no line index answered by both runs",
            plan.name
        );

        // 2. Conservation: fold the JSONL back into per-trace ledgers.
        let (ledgers, records) = read_ledgers(&trace_path);
        assert!(
            !ledgers.is_empty(),
            "[{}] traced run produced no traced requests",
            plan.name
        );
        let mut violations = 0usize;
        let mut multi_hop = 0usize;
        for (t, l) in &ledgers {
            if l.receives != l.attempts - l.failed.min(l.attempts) {
                eprintln!(
                    "[{}] trace {t}: attempts={} failed={} receives={}",
                    plan.name, l.attempts, l.failed, l.receives
                );
                violations += 1;
            }
            if l.attempts > 1 {
                multi_hop += 1;
            }
        }
        assert_eq!(
            violations, 0,
            "[{}] conservation violated for {violations} trace(s)",
            plan.name
        );
        if plan.drain {
            assert!(
                multi_hop >= 1,
                "[{}] the drained shard produced no failover chains",
                plan.name
            );
        }

        println!(
            "{:>8}: ok={}/{} byte_matched={} traces={} multi_hop={} failovers={} \
             restarts={} shards_reporting={} records={}",
            plan.name,
            base.ok,
            traced.ok,
            matched,
            ledgers.len(),
            multi_hop,
            traced.failovers,
            traced.restarts,
            traced.shards_reporting,
            records,
        );
        table.row(vec![
            plan.name.into(),
            base.ok.to_string(),
            traced.ok.to_string(),
            matched.to_string(),
            ledgers.len().to_string(),
            traced.failovers.to_string(),
            violations.to_string(),
            traced.restarts.to_string(),
            records.to_string(),
        ]);
        report
            .scalar(&format!("{}_ok", plan.name), base.ok as f64)
            .scalar(&format!("{}_ok_traced", plan.name), traced.ok as f64)
            .scalar(&format!("{}_byte_matched", plan.name), matched as f64)
            .scalar(&format!("{}_traces", plan.name), ledgers.len() as f64)
            .scalar(&format!("{}_multi_hop", plan.name), multi_hop as f64)
            .scalar(&format!("{}_failovers", plan.name), traced.failovers as f64)
            .scalar(&format!("{}_violations", plan.name), violations as f64)
            .scalar(&format!("{}_restarts", plan.name), traced.restarts as f64)
            .scalar(&format!("{}_exhausted", plan.name), base.exhausted as f64)
            .scalar(&format!("{}_attempts", plan.name), traced.attempts as f64)
            .scalar(
                &format!("{}_fleet_received", plan.name),
                traced.fleet_received as f64,
            );
    }
    println!();

    // 3. Disabled-path overhead through the serving stack.
    let probe_lines = &lines[..lines.len().min(4 * distinct)];
    let (disabled_med, noop_med) = overhead_probe(probe_lines, shards);
    println!(
        "overhead: disabled {:.2}ms vs NoopSink {:.2}ms per {}-request batch \
         (median of 5)",
        1e3 * disabled_med,
        1e3 * noop_med,
        probe_lines.len()
    );
    assert!(
        disabled_med <= noop_med * 1.5,
        "disabled path measurably slower than NoopSink: {disabled_med}s vs {noop_med}s"
    );
    report
        .scalar("overhead_disabled_median_s", disabled_med)
        .scalar("overhead_noop_median_s", noop_med);

    table.print();
    report
        .write("results/exp_fleet_telemetry.json")
        .expect("write E26 json");
    std::fs::write("results/exp_fleet_telemetry.txt", table.render()).expect("write E26 txt");
    println!("wrote results/exp_fleet_telemetry.json");
    println!(
        "E26: tracing byte-invariant, conservation holds on every plan, \
         disabled path within noise"
    );
    println!("  inspect: cargo run --release -p bench --bin dls-trace -- --fleet results/e26_mixed.jsonl");
}

//! E25 — chaos sweep over the resilient serving topology.
//!
//! Builds the full stack per plan — supervised in-process shard fleet
//! behind the failover router, with the seeded chaos proxy on the
//! client↔router link — and drives a deterministic solve stream through
//! it with retrying clients under seven chaos plans:
//!
//! `none`, `resets`, `delays`, `partial` (writes), `corrupt` (byte
//! flips), `kill` (a shard dies mid-burst and is restarted), and `mixed`
//! (all of the above at once).
//!
//! Three invariants are asserted for **every** plan:
//!
//! 1. **Termination** — every call returns (ok or exhausted-with-error);
//!    nothing hangs.
//! 2. **Bit-identity** — every `ok` response body equals a fresh
//!    out-of-band solve of the same chain, byte for byte. Chaos may cost
//!    retries, never correctness.
//! 3. **Ledger** — the fleet-wide drain conserves
//!    `received == completed + rejected`, across failovers, kills and
//!    restarts.
//!
//! The `none` plan additionally replays its line sequence against a
//! single un-routed server on one serial connection and requires the
//! routed responses to be byte-equal — the router is transparent.
//!
//! Chaos budgets are finite, so every plan converges: once the budget is
//! spent the proxy is a clean pipe and bounded retries succeed.
//!
//! Writes `results/exp_serve_chaos.txt` and `.json`. Environment
//! overrides: `DLS_E25_REQUESTS` (per plan), `DLS_E25_CONNS`,
//! `DLS_E25_SHARDS`, `DLS_E25_DISTINCT`, `DLS_E25_BUDGET`,
//! `DLS_E25_SEED`.

use bench::{JsonReport, Table};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use svc::chaos::{ChaosConfig, ChaosProxy};
use svc::resilient_client::{ResilientClient, RetryPolicy};
use svc::supervisor::ShardRuntime;
use svc::{
    canonicalize, serve, Client, ClientConfig, Router, RouterConfig, ServerConfig, Supervisor,
    SupervisorConfig, DEFAULT_QUANTUM,
};
use workloads::requests::{self, RequestMixConfig};

/// How long the `kill` plan waits, after its clients finish, for the
/// supervisor's monitor sweep (every 50 ms) to restart the killed shard.
const RESTART_WAIT: Duration = Duration::from_secs(5);

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
    /// Kill shard 0 mid-burst (the supervisor restarts it).
    kill: bool,
}

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
        },
        Plan {
            name: "resets",
            chaos: ChaosConfig {
                reset_prob: 0.08,
                ..base.clone()
            },
            kill: false,
        },
        Plan {
            name: "delays",
            chaos: ChaosConfig {
                delay_prob: 0.25,
                delay: Duration::from_millis(15),
                ..base.clone()
            },
            kill: false,
        },
        Plan {
            name: "partial",
            chaos: ChaosConfig {
                partial_prob: 0.25,
                ..base.clone()
            },
            kill: false,
        },
        Plan {
            name: "corrupt",
            chaos: ChaosConfig {
                corrupt_prob: 0.08,
                ..base.clone()
            },
            kill: false,
        },
        Plan {
            name: "kill",
            chaos: ChaosConfig::transparent(seed),
            kill: true,
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
        },
    ]
}

struct PlanOutcome {
    ok: u64,
    exhausted: u64,
    attempts: u64,
    rejections: u64,
    elapsed_s: f64,
    failovers: u64,
    restarts: u64,
    chaos_events: u64,
    fleet_received: u64,
    conserved: bool,
}

/// Run one chaos plan end to end. `lines[i] = (request line, oracle index)`;
/// every `ok` response is checked against `oracles[index]`. Panics on any
/// invariant violation — this experiment *is* the assertion.
fn run_plan(
    plan: &Plan,
    shards: usize,
    conns: usize,
    lines: &[(String, usize)],
    oracles: &[String],
    seed: u64,
) -> PlanOutcome {
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

    let ok = AtomicU64::new(0);
    let exhausted = AtomicU64::new(0);
    let attempts = AtomicU64::new(0);
    let rejections = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for conn in 0..conns {
            let (ok, exhausted, attempts, rejections) = (&ok, &exhausted, &attempts, &rejections);
            let shard_lines: Vec<&(String, usize)> =
                lines.iter().skip(conn).step_by(conns).collect();
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
                for (line, idx) in shard_lines {
                    match rc.call(line) {
                        Ok(out) => {
                            attempts.fetch_add(out.attempts as u64, Ordering::Relaxed);
                            rejections.fetch_add(out.rejections as u64, Ordering::Relaxed);
                            assert!(
                                out.raw.ends_with(&oracles[*idx]),
                                "[{}] response diverged from the fresh-solve oracle\n \
                                 line: {line}\n got: {}",
                                plan.name,
                                out.raw
                            );
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            // Bounded retries may exhaust mid-plan; the
                            // invariant is termination, not success.
                            let _ = e;
                            exhausted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        if plan.kill {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(80));
                sup.kill_shard(0, true);
            });
        }
    });
    let elapsed_s = started.elapsed().as_secs_f64();

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

    let chaos = proxy.stats();
    let chaos_events = chaos.resets + chaos.delays + chaos.partial_writes + chaos.corruptions;
    let rstats = router.stats();
    proxy.stop();
    if plan.kill {
        // The clients can finish before the supervisor's monitor sweep has
        // restarted the killed shard: give the sweep a bounded wait.
        let deadline = Instant::now() + RESTART_WAIT;
        while sup.restarts() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
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
    PlanOutcome {
        ok: ok.load(Ordering::Relaxed),
        exhausted: exhausted.load(Ordering::Relaxed),
        attempts: attempts.load(Ordering::Relaxed),
        rejections: rejections.load(Ordering::Relaxed),
        elapsed_s,
        failovers: rstats.failovers,
        restarts,
        chaos_events,
        fleet_received: total.received,
        conserved: total.conserved(),
    }
}

/// The `none`-plan transparency check: the same serial line sequence via
/// the routed fleet and via a bare server must produce identical bytes.
fn router_transparency(lines: &[(String, usize)], shards: usize) -> usize {
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
    let single = serve(ServerConfig::default()).expect("start single server");

    let drive = |addr: std::net::SocketAddr| -> Vec<String> {
        let mut c = Client::connect(addr).expect("connect");
        lines
            .iter()
            .map(|(l, _)| c.call_raw(l).expect("call"))
            .collect()
    };
    let routed = drive(router.addr());
    let bare = drive(single.addr());
    for (i, (r, b)) in routed.iter().zip(&bare).enumerate() {
        assert_eq!(
            r, b,
            "routed response {i} diverged from the bare server for {:?}",
            lines[i].0
        );
    }
    router.shutdown();
    router.join();
    assert!(sup.shutdown().conserved());
    single.shutdown();
    single.join();
    routed.len()
}

fn main() {
    let total = env_usize("DLS_E25_REQUESTS", 240);
    let conns = env_usize("DLS_E25_CONNS", 4);
    let shards = env_usize("DLS_E25_SHARDS", 3);
    let distinct = env_usize("DLS_E25_DISTINCT", 12);
    let budget = env_u64("DLS_E25_BUDGET", 50);
    let seed = env_u64("DLS_E25_SEED", 0xE25);

    let cfg = RequestMixConfig {
        total,
        distinct_chains: distinct,
        processors: 5,
        seed,
    };
    let lines = requests::solve_lines_indexed(&cfg);
    // Fresh-solve oracle per pool chain: the exact `"result":…` suffix the
    // service must serialize, computed out-of-band (no server involved).
    let oracles: Vec<String> = requests::chain_pool(&cfg)
        .iter()
        .map(|net| {
            let bids: Vec<f64> = (1..net.len()).map(|j| net.w(j)).collect();
            let chain = canonicalize(net.w(0), &net.rates_z(), &bids, DEFAULT_QUANTUM)
                .expect("pool chains are valid");
            format!("\"result\":{}}}", svc::handlers::solve_body(&chain))
        })
        .collect();

    println!(
        "E25: {total} requests x {} plans, {conns} conns, {shards} shards, \
         {distinct} chains, chaos budget {budget}",
        plans(seed, budget).len()
    );
    let checked = router_transparency(&lines[..lines.len().min(4 * distinct)], shards);
    println!("transparency: {checked} routed responses byte-equal to a bare server");

    let mut table = Table::new(&[
        "plan",
        "ok",
        "exhausted",
        "attempts",
        "rejections",
        "failovers",
        "restarts",
        "chaos_events",
        "fleet_received",
        "conserved",
        "elapsed_s",
    ]);
    let mut report = JsonReport::new("exp_serve_chaos");
    report
        .scalar("requests_per_plan", total as f64)
        .scalar("connections", conns as f64)
        .scalar("shards", shards as f64)
        .scalar("distinct_chains", distinct as f64)
        .scalar("chaos_budget", budget as f64)
        .scalar("seed", seed as f64)
        .scalar("transparency_checked", checked as f64);

    for plan in plans(seed, budget) {
        let out = run_plan(&plan, shards, conns, &lines, &oracles, seed);
        println!(
            "{:>8}: ok={} exhausted={} attempts={} failovers={} restarts={} \
             chaos_events={} conserved={} ({:.2}s)",
            plan.name,
            out.ok,
            out.exhausted,
            out.attempts,
            out.failovers,
            out.restarts,
            out.chaos_events,
            out.conserved,
            out.elapsed_s
        );
        table.row(vec![
            plan.name.into(),
            out.ok.to_string(),
            out.exhausted.to_string(),
            out.attempts.to_string(),
            out.rejections.to_string(),
            out.failovers.to_string(),
            out.restarts.to_string(),
            out.chaos_events.to_string(),
            out.fleet_received.to_string(),
            out.conserved.to_string(),
            format!("{:.3}", out.elapsed_s),
        ]);
        report
            .scalar(&format!("{}_ok", plan.name), out.ok as f64)
            .scalar(&format!("{}_exhausted", plan.name), out.exhausted as f64)
            .scalar(&format!("{}_attempts", plan.name), out.attempts as f64)
            .scalar(&format!("{}_failovers", plan.name), out.failovers as f64)
            .scalar(&format!("{}_restarts", plan.name), out.restarts as f64)
            .scalar(
                &format!("{}_chaos_events", plan.name),
                out.chaos_events as f64,
            )
            .text(
                &format!("{}_conserved", plan.name),
                if out.conserved { "true" } else { "false" },
            );
    }
    table.print();
    report
        .write("results/exp_serve_chaos.json")
        .expect("write E25 json");
    std::fs::write("results/exp_serve_chaos.txt", table.render()).expect("write E25 txt");
    println!("wrote results/exp_serve_chaos.json");
    println!("E25: every plan terminated, bit-identical, ledger conserved");
}

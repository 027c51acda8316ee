//! `dls-serve` — the DLS-LBL scheduling server.
//!
//! ```text
//! dls-serve [--addr 127.0.0.1:4500] [--workers N] [--queue N]
//!           [--max-conns N] [--deadline-ms N] [--cache-ttl-ms N]
//!           [--job-queue-capacity N] [--fleet N]
//!           [--allow-remote-shutdown] [--self-test]
//! ```
//!
//! The `shutdown` op is honored from loopback peers only unless
//! `--allow-remote-shutdown` is given, so binding a non-loopback `--addr`
//! does not hand remote clients control of the server lifecycle.
//!
//! `--fleet N` starts the resilient topology instead of a single server:
//! `N` supervised in-process shard servers (restarted on death, with
//! backoff) behind a failover router bound to `--addr`. Clients speak the
//! same protocol to the router; a `shutdown` op drains the router, then
//! the fleet, and the exit ledger is the fleet-wide sum.
//!
//! Speaks newline-delimited JSON (see the `svc` crate docs for the ops).
//! With `DLS_TRACE=path.jsonl` set, streams `obs` records to that file
//! (flushed on drain); otherwise no sink is installed and `obs` stays on
//! its disabled fast path.
//!
//! `--self-test` starts the server on an ephemeral port, runs a scripted
//! request batch against it (health, cold + cached solves, a fault run, a
//! malformed line, stats, shutdown), verifies the responses and the drain
//! ledger, and exits non-zero on any mismatch — the CI smoke test.

use svc::{serve, Client, Router, RouterConfig, ServerConfig, Supervisor, SupervisorConfig};

fn parse_args() -> (ServerConfig, bool, usize) {
    let mut config = ServerConfig {
        addr: "127.0.0.1:4500".into(),
        ..ServerConfig::default()
    };
    let mut self_test = false;
    let mut fleet = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = take("--addr"),
            "--workers" => config.workers = take("--workers").parse().expect("--workers"),
            "--queue" => config.queue_capacity = take("--queue").parse().expect("--queue"),
            "--max-conns" => config.max_conns = take("--max-conns").parse().expect("--max-conns"),
            "--deadline-ms" => {
                config.default_deadline_ms = take("--deadline-ms").parse().expect("--deadline-ms")
            }
            "--cache-ttl-ms" => {
                config.cache_ttl_ms = Some(take("--cache-ttl-ms").parse().expect("--cache-ttl-ms"))
            }
            "--job-queue-capacity" => {
                config.job_queue_capacity = take("--job-queue-capacity")
                    .parse()
                    .expect("--job-queue-capacity")
            }
            "--fleet" => fleet = take("--fleet").parse().expect("--fleet"),
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            "--self-test" => self_test = true,
            "--help" | "-h" => {
                println!(
                    "dls-serve [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--max-conns N] [--deadline-ms N] [--cache-ttl-ms N] \
                     [--job-queue-capacity N] [--fleet N] \
                     [--allow-remote-shutdown] [--self-test]\n\n\
                     env:\n  DLS_TRACE=path.jsonl  stream obs spans/events/counters \
                     to that file\n                        (inspect with dls-trace; \
                     join a fleet's files\n                        with dls-trace --fleet)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    (config, self_test, fleet)
}

fn main() {
    let (mut config, self_test, fleet) = parse_args();
    let traced = obs::init_from_env();
    if self_test {
        config.addr = "127.0.0.1:0".into();
        config.workers = 2;
        match run_self_test(config) {
            Ok(()) => println!("self-test: OK"),
            Err(e) => {
                eprintln!("self-test: FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if fleet > 0 {
        run_fleet(config, fleet, traced);
        return;
    }
    let handle = serve(config).expect("bind server");
    println!("dls-serve listening on {}", handle.addr());
    if let Some(path) = traced {
        println!("tracing to {path}");
    }
    // The accept loop owns the process until a client sends `shutdown`.
    let snapshot = handle.join();
    println!(
        "drained: received={} completed={} rejected={} timeouts={} conserved={}",
        snapshot.received,
        snapshot.completed,
        snapshot.rejected,
        snapshot.timeouts,
        snapshot.conserved()
    );
    if !snapshot.conserved() {
        std::process::exit(1);
    }
}

/// The resilient topology: `fleet` supervised in-process shards behind a
/// failover router on `config.addr`. Blocks until the router drains.
fn run_fleet(config: ServerConfig, fleet: usize, traced: Option<String>) {
    let router_addr = config.addr.clone();
    let allow_remote = config.allow_remote_shutdown;
    let supervisor = Supervisor::start(SupervisorConfig {
        shards: fleet,
        server: ServerConfig {
            // Shards trust only their local supervisor/router.
            allow_remote_shutdown: false,
            ..config
        },
        ..SupervisorConfig::default()
    })
    .expect("start shard fleet");
    let router = Router::spawn(
        supervisor.directory(),
        RouterConfig {
            addr: router_addr,
            allow_remote_shutdown: allow_remote,
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    println!(
        "dls-serve listening on {} (fleet of {fleet})",
        router.addr()
    );
    if let Some(path) = traced {
        println!("tracing to {path}");
    }
    let router_stats = router.join();
    let snapshot = supervisor.shutdown();
    println!(
        "router drained: received={} forwarded={} failovers={} unavailable={}",
        router_stats.received,
        router_stats.forwarded_ok,
        router_stats.failovers,
        router_stats.unavailable
    );
    println!(
        "fleet drained: received={} completed={} rejected={} timeouts={} conserved={}",
        snapshot.received,
        snapshot.completed,
        snapshot.rejected,
        snapshot.timeouts,
        snapshot.conserved()
    );
    if !snapshot.conserved() {
        std::process::exit(1);
    }
}

fn run_self_test(config: ServerConfig) -> Result<(), String> {
    let handle = serve(config).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    let check = |v: &minijson::Value, what: &str, want: &str| -> Result<(), String> {
        let got = v.get("status").and_then(|s| s.as_str()).unwrap_or("?");
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: status {got:?}, expected {want:?}"))
        }
    };

    let health = c
        .call(r#"{"op":"health","id":1}"#)
        .map_err(|e| e.to_string())?;
    check(&health, "health", "ok")?;

    let solve =
        r#"{"op":"solve","id":2,"root_rate":1.0,"links":[0.2,0.1,0.7],"bids":[2.0,0.5,4.0]}"#;
    let cold = c.call(solve).map_err(|e| e.to_string())?;
    check(&cold, "cold solve", "ok")?;
    if cold.get("cached").and_then(|x| x.as_bool()) != Some(false) {
        return Err("cold solve reported cached=true".into());
    }
    let warm = c.call(solve).map_err(|e| e.to_string())?;
    check(&warm, "warm solve", "ok")?;
    if warm.get("cached").and_then(|x| x.as_bool()) != Some(true) {
        return Err("warm solve missed the cache".into());
    }
    let (a, b) = (cold.get("result"), warm.get("result"));
    if a.map(|v| v.to_json()) != b.map(|v| v.to_json()) {
        return Err("cache hit not bit-identical to cold solve".into());
    }

    let ft = c
        .call(r#"{"op":"ft_run","id":3,"root_rate":1.0,"rates":[2.0,0.5,4.0],"links":[0.2,0.1,0.7],"seed":7,"crash":{"node":2,"phase":3,"progress":0.5}}"#)
        .map_err(|e| e.to_string())?;
    check(&ft, "ft_run", "ok")?;
    if ft
        .get("result")
        .and_then(|r| r.get("load_conserved"))
        .and_then(|x| x.as_bool())
        != Some(true)
    {
        return Err("ft_run did not conserve load".into());
    }

    let bad = c.call("this is not json").map_err(|e| e.to_string())?;
    check(&bad, "malformed line", "error")?;

    let stats = c
        .call(r#"{"op":"stats","id":4}"#)
        .map_err(|e| e.to_string())?;
    check(&stats, "stats", "ok")?;
    let hits = stats
        .get("result")
        .and_then(|r| r.get("cache"))
        .and_then(|cache| cache.get("hits"))
        .and_then(|h| h.as_u64());
    if hits != Some(1) {
        return Err(format!("stats cache.hits = {hits:?}, expected 1"));
    }

    let bye = c
        .call(r#"{"op":"shutdown","id":5}"#)
        .map_err(|e| e.to_string())?;
    check(&bye, "shutdown", "ok")?;
    drop(c);
    let snapshot = handle.join();
    if !snapshot.conserved() {
        return Err(format!(
            "drain ledger broken: received={} completed={} rejected={}",
            snapshot.received, snapshot.completed, snapshot.rejected
        ));
    }
    if snapshot.received != 7 {
        return Err(format!("expected 7 requests, saw {}", snapshot.received));
    }
    println!(
        "self-test: {} requests, {} completed, {} rejected, drain conserved",
        snapshot.received, snapshot.completed, snapshot.rejected
    );
    Ok(())
}

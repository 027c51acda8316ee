//! Pins the served wire shape, sent both to a shard and through a router:
//! the ordered keys of the `health`, `stats` and `metrics` bodies, and
//! the exact bytes of a malformed-line error, a `draining` rejection and a
//! `connection-limit` rejection.

use minijson::Value;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use svc::{serve, Client, Router, RouterConfig, RouterHandle, ServerConfig, ShardDirectory};

/// A one-slot router over `shard`, with the prober off so nothing but the
/// test's own lines reaches the shard.
fn router_over(shard: SocketAddr) -> RouterHandle {
    let directory = ShardDirectory::new(1);
    directory.set_addr(0, shard);
    Router::spawn(
        directory,
        RouterConfig {
            health_interval: Duration::ZERO,
            ..RouterConfig::default()
        },
    )
    .expect("bind router")
}

/// The key shape of `v`: an object as `{key key{…}}` in written order, an
/// array as `[…]` around its first element's shape.
fn shape(v: &Value) -> String {
    match v {
        Value::Object(pairs) => {
            let keys: Vec<String> = pairs.iter().map(|(k, v)| k.clone() + &shape(v)).collect();
            format!("{{{}}}", keys.join(" "))
        }
        Value::Array(items) => format!("[{}]", items.first().map(shape).unwrap_or_default()),
        _ => String::new(),
    }
}

fn shape_of(addr: SocketAddr, op: &str) -> String {
    let mut c = Client::connect(addr).expect("connect");
    shape(&c.call(&format!("{{\"op\":\"{op}\"}}")).expect(op))
}

const SHARD_HEALTH: &str = "{status result{state uptime_s uptime_ms workers queue_depth \
    queue_capacity cache{hits misses entries expired invalidations}}}";

const SHARD_STATS: &str = "{status result{uptime_s uptime_ms received completed rejected \
    timeouts errors quantum cache{hits misses entries expired invalidations} \
    endpoints{solve{count p50_us p90_us p99_us max_us mean_us} \
    ft_run{count p50_us p90_us p99_us max_us mean_us} \
    job{count p50_us p90_us p99_us max_us mean_us}} \
    jobs{submitted completed cancelled rejected queued active_installments chains[]}}}";

const SHARD_METRICS: &str = "{status result{role uptime_ms counters{received completed \
    rejected timeouts errors cache_hits cache_misses cache_entries cache_expired \
    cache_invalidations jobs_submitted jobs_completed jobs_cancelled jobs_rejected jobs_queued \
    jobs_active_installments} queue_depth \
    latency_us{solve{count p50_us p90_us p99_us max_us samples[]} \
    ft_run{count p50_us p90_us p99_us max_us samples[]} \
    job{count p50_us p90_us p99_us max_us samples[]}} text}}";

const ROUTER_HEALTH: &str = "{status result{state role slots live_shards}}";

const ROUTER_STATS: &str = "{status result{role received forwarded_ok forward_attempts \
    failovers relayed_rejections unavailable probes shards[{slot addr healthy generation \
    restarts forwarded failovers relayed_rejections}]}}";

const ROUTER_METRICS: &str = "{status result{role uptime_ms counters{received forwarded_ok \
    forward_attempts failovers relayed_rejections unavailable probes} \
    slots[{slot healthy restarts forwarded failovers relayed_rejections}] \
    fleet{shards_reporting counters{received completed rejected timeouts errors cache_hits \
    cache_misses cache_entries cache_expired cache_invalidations jobs_submitted jobs_completed \
    jobs_cancelled jobs_rejected jobs_queued jobs_active_installments} \
    latency_us{solve{count p50_us p90_us p99_us max_us} \
    ft_run{count p50_us p90_us p99_us max_us} job{count p50_us p90_us p99_us max_us}}} text}}";

#[test]
fn health_stats_and_metrics_key_shapes_are_pinned() {
    let shard = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start shard");
    let router = router_over(shard.addr());

    for (op, shard_want, router_want) in [
        ("health", SHARD_HEALTH, ROUTER_HEALTH),
        ("stats", SHARD_STATS, ROUTER_STATS),
        ("metrics", SHARD_METRICS, ROUTER_METRICS),
    ] {
        assert_eq!(shape_of(shard.addr(), op), shard_want, "shard {op}");
        assert_eq!(shape_of(router.addr(), op), router_want, "router {op}");
    }

    router.shutdown();
    router.join();
    shard.shutdown();
    assert!(shard.join().conserved());
}

const MALFORMED: &str =
    r#"{"status":"error","error":"JSON parse error at byte 0: expected \"true\""}"#;

#[test]
fn malformed_and_connection_limit_bytes_are_pinned() {
    let shard = serve(ServerConfig {
        workers: 1,
        max_conns: 2,
        retry_after_ms: 9,
        ..ServerConfig::default()
    })
    .expect("start shard");
    let router = router_over(shard.addr());

    // One direct client and the router's forwarding connection fill the
    // shard's two connection slots.
    let mut direct = Client::connect(shard.addr()).expect("connect");
    let mut routed = Client::connect(router.addr()).expect("connect");
    assert_eq!(direct.call_raw("this is not json").unwrap(), MALFORMED);
    assert_eq!(routed.call_raw("this is not json").unwrap(), MALFORMED);

    // A third direct connection gets the cap line unasked, then EOF.
    let mut capped = BufReader::new(TcpStream::connect(shard.addr()).expect("tcp connect"));
    let mut line = String::new();
    capped.read_line(&mut line).expect("read cap line");
    assert_eq!(
        line,
        "{\"status\":\"rejected\",\"reason\":\"connection-limit\",\"retry_after_ms\":9}\n"
    );
    assert_eq!(capped.read_line(&mut line).expect("read eof"), 0);

    // A second router client needs a second shard connection, which is
    // capped; with no other slot the router answers `unavailable`.
    let mut routed_capped = Client::connect(router.addr()).expect("connect");
    let solve = r#"{"op":"solve","id":5,"root_rate":1.0,"links":[0.2],"bids":[2.0]}"#;
    assert_eq!(
        routed_capped.call_raw(solve).unwrap(),
        r#"{"id":5,"status":"rejected","reason":"unavailable","retry_after_ms":50}"#
    );

    router.shutdown();
    router.join();
    shard.shutdown();
    drop((direct, routed, routed_capped));
    assert!(shard.join().conserved());
}

#[test]
fn draining_rejection_bytes_are_pinned() {
    let shard = serve(ServerConfig {
        workers: 1,
        retry_after_ms: 9,
        ..ServerConfig::default()
    })
    .expect("start shard");
    let router = router_over(shard.addr());
    let solve = |id: i64| {
        format!(r#"{{"op":"solve","id":{id},"root_rate":1.0,"links":[0.2],"bids":[2.0]}}"#)
    };

    // A connection framing a line after the drain began answers it as
    // `draining`; one whose idle timeout noticed the drain first closes
    // instead. Several connections opened apart make a reply certain.
    let mut direct: Vec<Client> = (0..6)
        .map(|_| {
            let mut c = Client::connect(shard.addr()).expect("connect");
            assert!(c.call_raw(r#"{"op":"health"}"#).is_ok());
            std::thread::sleep(Duration::from_millis(15));
            c
        })
        .collect();
    let mut routed = Client::connect(router.addr()).expect("connect");
    assert!(routed
        .call_raw(&solve(1))
        .unwrap()
        .contains("\"status\":\"ok\""));

    shard.shutdown();
    for c in &mut direct {
        c.send(&solve(7)).expect("send");
        c.flush().expect("flush");
    }
    let answered: Vec<String> = direct
        .iter_mut()
        .filter_map(|c| c.recv_raw().ok())
        .collect();
    assert!(
        !answered.is_empty(),
        "no connection framed a line after the drain"
    );
    for reply in &answered {
        assert_eq!(
            reply,
            r#"{"id":7,"status":"rejected","reason":"draining","retry_after_ms":9}"#
        );
    }
    // The router fails a draining shard over; with no other slot it
    // answers `unavailable`.
    assert_eq!(
        routed.call_raw(&solve(8)).unwrap(),
        r#"{"id":8,"status":"rejected","reason":"unavailable","retry_after_ms":50}"#
    );

    router.shutdown();
    router.join();
    drop((direct, routed));
    assert!(shard.join().conserved());
}

//! Hostile input on the served surface, on a shard and through a router:
//!
//! * a line nested far deeper than `minijson::MAX_DEPTH` gets exactly one
//!   `error` line, and the connection keeps serving. Without the depth cap
//!   the parser's recursion overflows the connection thread's stack and
//!   aborts the whole process;
//! * a `solve` line padded with a string field just under the 1 MiB line
//!   cap is answered `ok` within a 5 s client timeout, and the connection
//!   keeps serving. A string parser that rescans the rest of the input per
//!   character takes minutes of CPU on that line;
//! * a `solve` whose `links` array fills the 1 MiB line cap (≈262k numbers,
//!   far past `MAX_CHAIN_M`) gets one typed `error` line under its id, and
//!   the connection keeps serving.

use minijson::{Value, MAX_DEPTH};
use std::net::SocketAddr;
use std::time::Duration;
use svc::handlers::MAX_CHAIN_M;
use svc::{
    serve, Client, ClientConfig, Router, RouterConfig, RouterHandle, ServerConfig, ShardDirectory,
    MAX_LINE_BYTES,
};

/// 100 KB of `[`: well under the 1 MiB line cap, far past the depth cap.
fn deep_line() -> String {
    "[".repeat(100_000)
}

const SOLVE: &str = r#"{"op":"solve","id":7,"root_rate":1.0,"links":[0.2,0.1],"bids":[2.0,0.5]}"#;

/// Send the deep line, then a solve, on one connection: the first answer
/// is one depth error, the second the solve's own answer.
fn deep_then_solve(addr: SocketAddr) {
    let mut c = Client::connect(addr).expect("connect");
    let err = Value::parse(&c.call_raw(&deep_line()).expect("answer to the deep line"))
        .expect("the error line is JSON");
    assert_eq!(err.get("status").and_then(Value::as_str), Some("error"));
    let msg = err.get("error").and_then(Value::as_str).expect("message");
    assert!(
        msg.contains(&format!("deeper than {MAX_DEPTH}")),
        "unexpected error: {msg}"
    );
    // Had the deep line drawn a second line, this call would read it.
    let ok = c.call(SOLVE).expect("the connection still serves");
    assert_eq!(
        ok.get("status").and_then(Value::as_str),
        Some("ok"),
        "{ok:?}"
    );
    assert_eq!(ok.get("id").and_then(Value::as_i64), Some(7));
}

/// `SOLVE` with an extra string field that brings the line to just under
/// [`MAX_LINE_BYTES`].
fn padded_solve() -> String {
    let head = r#"{"op":"solve","id":8,"root_rate":1.0,"links":[0.2,0.1],"bids":[2.0,0.5],"pad":""#;
    let tail = r#""}"#;
    let pad = "x".repeat(MAX_LINE_BYTES - 1 - head.len() - tail.len());
    let line = format!("{head}{pad}{tail}");
    assert_eq!(
        line.len() + 1,
        MAX_LINE_BYTES,
        "the line and its newline fill the cap"
    );
    line
}

/// Send the padded solve, then a plain one, on one connection with a 5 s
/// read timeout: both are answered `ok` under their own ids.
fn padded_then_solve(addr: SocketAddr) {
    let mut c = Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    for (line, id) in [(padded_solve().as_str(), 8), (SOLVE, 7)] {
        let ok = c.call(line).expect("answered within the timeout");
        assert_eq!(
            ok.get("status").and_then(Value::as_str),
            Some("ok"),
            "{ok:?}"
        );
        assert_eq!(ok.get("id").and_then(Value::as_i64), Some(id));
    }
}

/// A `solve` whose `links` array brings the line to just under
/// [`MAX_LINE_BYTES`].
fn oversized_solve() -> String {
    let head = r#"{"op":"solve","id":9,"root_rate":1.0,"bids":[2.0],"links":["#;
    let tail = "0.5]}";
    let n = (MAX_LINE_BYTES - 1 - head.len() - tail.len()) / 4;
    let line = format!("{head}{}{tail}", "0.5,".repeat(n));
    assert!(line.len() < MAX_LINE_BYTES && n > 200 * MAX_CHAIN_M);
    line
}

/// Send the oversized solve, then a plain one, on one connection: the
/// first is refused under its id, the second answered `ok`.
fn oversized_then_solve(addr: SocketAddr) {
    let mut c = Client::connect(addr).expect("connect");
    let err = c.call(&oversized_solve()).expect("answer to the big line");
    assert_eq!(err.get("status").and_then(Value::as_str), Some("error"));
    assert_eq!(err.get("id").and_then(Value::as_i64), Some(9));
    assert_eq!(
        err.get("error").and_then(Value::as_str),
        Some(format!("solve takes at most {MAX_CHAIN_M} links and bids").as_str())
    );
    let ok = c.call(SOLVE).expect("the connection still serves");
    assert_eq!(
        ok.get("status").and_then(Value::as_str),
        Some("ok"),
        "{ok:?}"
    );
    assert_eq!(ok.get("id").and_then(Value::as_i64), Some(7));
}

fn shard() -> svc::ServerHandle {
    serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start shard")
}

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

#[test]
fn shard_answers_a_too_deep_line_with_one_error_and_keeps_serving() {
    let shard = shard();
    deep_then_solve(shard.addr());
    shard.shutdown();
    let ledger = shard.join();
    assert!(ledger.conserved(), "drain ledger: {ledger:?}");
    assert_eq!(ledger.received, 2, "{ledger:?}");
}

#[test]
fn router_answers_a_too_deep_line_with_one_error_and_keeps_serving() {
    let shard = shard();
    let router = router_over(shard.addr());
    deep_then_solve(router.addr());
    router.shutdown();
    let routed = router.join();
    assert_eq!(routed.received, 2, "{routed:?}");
    shard.shutdown();
    let ledger = shard.join();
    assert!(ledger.conserved(), "drain ledger: {ledger:?}");
    assert_eq!(ledger.received, routed.forward_attempts, "{ledger:?}");
}

#[test]
fn shard_answers_a_megabyte_string_field_in_time_and_keeps_serving() {
    let shard = shard();
    padded_then_solve(shard.addr());
    shard.shutdown();
    let ledger = shard.join();
    assert!(ledger.conserved(), "drain ledger: {ledger:?}");
    assert_eq!(ledger.received, 2, "{ledger:?}");
}

#[test]
fn router_answers_a_megabyte_string_field_in_time_and_keeps_serving() {
    let shard = shard();
    let router = router_over(shard.addr());
    padded_then_solve(router.addr());
    router.shutdown();
    let routed = router.join();
    assert_eq!(routed.received, 2, "{routed:?}");
    shard.shutdown();
    let ledger = shard.join();
    assert!(ledger.conserved(), "drain ledger: {ledger:?}");
    assert_eq!(ledger.received, routed.forward_attempts, "{ledger:?}");
}

#[test]
fn shard_refuses_an_oversized_chain_and_keeps_serving() {
    let shard = shard();
    oversized_then_solve(shard.addr());
    shard.shutdown();
    let ledger = shard.join();
    assert!(ledger.conserved(), "drain ledger: {ledger:?}");
    assert_eq!(ledger.received, 2, "{ledger:?}");
}

#[test]
fn router_refuses_an_oversized_chain_and_keeps_serving() {
    let shard = shard();
    let router = router_over(shard.addr());
    oversized_then_solve(router.addr());
    router.shutdown();
    let routed = router.join();
    assert_eq!(routed.received, 2, "{routed:?}");
    shard.shutdown();
    let ledger = shard.join();
    assert!(ledger.conserved(), "drain ledger: {ledger:?}");
    assert_eq!(ledger.received, routed.forward_attempts, "{ledger:?}");
}

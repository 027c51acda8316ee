//! End-to-end tests over real loopback TCP: full protocol session,
//! pipelined out-of-order completions, backpressure under a saturated
//! queue, the graceful-drain ledger `received == completed + rejected`,
//! and the connection and line caps the shard shares with the router.

use minijson::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use svc::{
    serve, Client, Router, RouterConfig, RouterHandle, ServerConfig, ShardDirectory, MAX_CONNS,
    MAX_LINE_BYTES,
};
use workloads::requests;

fn status(v: &Value) -> &str {
    v.get("status").and_then(Value::as_str).unwrap_or("?")
}

/// A router over `directory` with the prober off, so nothing but the
/// test's own lines reaches a shard.
fn spawn_router(directory: Arc<ShardDirectory>) -> RouterHandle {
    let config = RouterConfig {
        health_interval: Duration::ZERO,
        retry_after_ms: 9,
        ..RouterConfig::default()
    };
    Router::spawn(directory, config).expect("bind router")
}

#[test]
fn full_protocol_session_over_tcp() {
    let handle = serve(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // Liveness.
    let health = c.call(r#"{"op":"health"}"#).unwrap();
    assert_eq!(status(&health), "ok");
    assert_eq!(
        health.get("result").unwrap().get("state").unwrap().as_str(),
        Some("serving")
    );

    // Cold then warm solve: identical result bytes, cached flag flips.
    let line = requests::solve_line(11, 1.0, &[0.2, 0.1, 0.7], &[2.0, 0.5, 4.0]);
    let cold = c.call(&line).unwrap();
    let warm = c.call(&line).unwrap();
    assert_eq!(status(&cold), "ok");
    assert_eq!(cold.get("cached").unwrap().as_bool(), Some(false));
    assert_eq!(warm.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(warm.get("id").unwrap().as_i64(), Some(11));
    assert_eq!(
        cold.get("result").unwrap().to_json(),
        warm.get("result").unwrap().to_json(),
        "cache hit must be bit-identical to the cold solve"
    );

    // A zero deadline is a guaranteed timeout — rejected at parse time
    // instead of admitted (the timeout path itself is unit-tested in
    // `pool::tests::expired_deadline_yields_timeout`).
    let rushed = c
        .call(
            r#"{"op":"solve","id":12,"deadline_ms":0,"root_rate":1.0,"links":[0.2],"bids":[2.0]}"#,
        )
        .unwrap();
    assert_eq!(status(&rushed), "error");
    assert_eq!(rushed.get("id").unwrap().as_i64(), Some(12));

    // Fault-injected run with a crash keeps the load ledger intact.
    let ft = c
        .call(&requests::ft_line(
            13,
            1.0,
            &[2.0, 0.5, 4.0],
            &[0.2, 0.1, 0.7],
            42,
            Some((2, 3, 0.5)),
        ))
        .unwrap();
    assert_eq!(status(&ft), "ok");
    let report = ft.get("result").unwrap();
    assert_eq!(report.get("load_conserved").unwrap().as_bool(), Some(true));
    assert_eq!(
        report.get("crashed").unwrap().as_array().unwrap()[0].as_u64(),
        Some(2)
    );

    // Malformed and unknown requests answer inline with errors.
    assert_eq!(status(&c.call("this is not json").unwrap()), "error");
    assert_eq!(status(&c.call(r#"{"op":"explode"}"#).unwrap()), "error");

    // Stats reflect the session so far.
    let stats = c.call(r#"{"op":"stats"}"#).unwrap();
    let s = stats.get("result").unwrap();
    assert_eq!(
        s.get("cache").unwrap().get("hits").unwrap().as_u64(),
        Some(1)
    );
    assert_eq!(s.get("timeouts").unwrap().as_u64(), Some(0));
    assert_eq!(
        s.get("errors").unwrap().as_u64(),
        Some(3),
        "bad deadline, malformed line, unknown op"
    );
    let solve_count = s
        .get("endpoints")
        .unwrap()
        .get("solve")
        .unwrap()
        .get("count")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(
        solve_count, 2,
        "two solves served (rejected requests are not latency-metered)"
    );

    // Graceful drain: shutdown acks, then the ledger must balance.
    let bye = c.call(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(status(&bye), "ok");
    assert_eq!(
        bye.get("result").unwrap().get("state").unwrap().as_str(),
        Some("draining")
    );
    drop(c);
    let snapshot = handle.join();
    assert!(snapshot.conserved(), "drain lost requests: {snapshot:?}");
    assert_eq!(snapshot.received, 9);
    assert_eq!(snapshot.rejected, 0);
}

#[test]
fn metrics_op_exposes_counters_schema_and_prometheus_text() {
    let handle = serve(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // A cold and a warm solve give the counters something to say.
    let line = requests::solve_line(1, 1.0, &[0.2, 0.1], &[2.0, 0.5]);
    assert_eq!(status(&c.call(&line).unwrap()), "ok");
    assert_eq!(status(&c.call(&line).unwrap()), "ok");

    // Health carries uptime and the full cache counter block
    // (results/README.md documents this schema).
    let health = c.call(r#"{"op":"health"}"#).unwrap();
    let h = health.get("result").unwrap();
    assert!(h.get("uptime_ms").unwrap().as_u64().is_some());
    let hcache = h.get("cache").unwrap();
    for key in ["hits", "misses", "entries", "expired", "invalidations"] {
        assert!(
            hcache.get(key).unwrap().as_u64().is_some(),
            "health cache block missing {key}"
        );
    }

    let metrics = c.call(r#"{"op":"metrics"}"#).unwrap();
    assert_eq!(status(&metrics), "ok");
    let m = metrics.get("result").unwrap();
    assert_eq!(m.get("role").unwrap().as_str(), Some("shard"));
    assert!(m.get("uptime_ms").unwrap().as_u64().is_some());
    assert!(m.get("queue_depth").unwrap().as_u64().is_some());

    let counters = m.get("counters").unwrap();
    // 2 solves + 1 health + this metrics request itself.
    assert_eq!(counters.get("received").unwrap().as_u64(), Some(4));
    assert_eq!(counters.get("cache_hits").unwrap().as_u64(), Some(1));
    assert_eq!(counters.get("cache_misses").unwrap().as_u64(), Some(1));
    assert_eq!(counters.get("cache_expired").unwrap().as_u64(), Some(0));
    assert_eq!(
        counters.get("cache_invalidations").unwrap().as_u64(),
        Some(0)
    );

    // Latency block: exact all-time count plus the bounded sample window
    // a router merges for fleet-wide percentiles.
    let solve = m.get("latency_us").unwrap().get("solve").unwrap();
    assert_eq!(solve.get("count").unwrap().as_u64(), Some(2));
    assert_eq!(solve.get("samples").unwrap().as_array().unwrap().len(), 2);
    assert!(solve.get("p50_us").unwrap().as_f64().unwrap() >= 0.0);

    // Prometheus text: counter families, gauges, and the solve summary.
    let text = m.get("text").unwrap().as_str().unwrap();
    assert!(text.contains("# TYPE dls_received_total counter"));
    assert!(text.contains("dls_received_total 4"));
    assert!(text.contains("# TYPE dls_uptime_ms gauge"));
    assert!(text.contains("dls_latency_us{endpoint=\"solve\",quantile=\"0.5\"}"));
    assert!(text.contains("dls_latency_us_count{endpoint=\"solve\"} 2"));

    // The metrics op is inline: it never perturbs the drain ledger.
    assert_eq!(status(&c.call(r#"{"op":"shutdown"}"#).unwrap()), "ok");
    drop(c);
    let snapshot = handle.join();
    assert!(snapshot.conserved(), "drain lost requests: {snapshot:?}");
    assert_eq!(snapshot.received, 5);
}

#[test]
fn pipelined_requests_complete_out_of_order_and_conserve() {
    let handle = serve(ServerConfig {
        workers: 4,
        queue_capacity: 4096, // larger than the whole batch: no rejections
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = handle.addr();

    const CONNS: usize = 3;
    const PER_CONN: usize = 200;
    let chains: Vec<(f64, Vec<f64>, Vec<f64>)> = (0..4)
        .map(|i| {
            let s = 1.0 + 0.25 * i as f64;
            (s, vec![0.2 * s, 0.1, 0.7], vec![2.0, 0.5 * s, 4.0])
        })
        .collect();

    std::thread::scope(|scope| {
        for conn in 0..CONNS {
            let chains = &chains;
            scope.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let ids: Vec<i64> = (0..PER_CONN)
                    .map(|i| (conn * PER_CONN + i) as i64)
                    .collect();
                for &id in &ids {
                    let (root, links, bids) = &chains[id as usize % chains.len()];
                    c.send(&requests::solve_line(id, *root, links, bids))
                        .expect("send");
                }
                c.flush().expect("flush");
                let mut seen: std::collections::HashSet<i64> = Default::default();
                for _ in 0..PER_CONN {
                    let v = c.recv().expect("recv");
                    assert_eq!(status(&v), "ok");
                    assert!(seen.insert(v.get("id").unwrap().as_i64().unwrap()));
                }
                assert_eq!(seen, ids.iter().copied().collect());
            });
        }
    });

    handle.shutdown();
    let snapshot = handle.join();
    assert!(snapshot.conserved(), "drain lost requests: {snapshot:?}");
    assert_eq!(snapshot.completed, (CONNS * PER_CONN) as u64);
    assert_eq!(snapshot.rejected, 0);
}

#[test]
fn drain_completes_while_a_client_pipelines_without_idle_gaps() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    let handle = serve(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = handle.addr();

    // A client that round-trips requests back-to-back: its reader thread
    // on the server keeps getting lines with no 100 ms idle gap, so it
    // must notice the drain from the per-line check, not the read
    // timeout. It stops on its own once the drained server closes the
    // connection.
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let mut sent: i64 = 0;
            while !stop.load(Ordering::Relaxed) {
                let line = requests::solve_line(sent, 1.0, &[0.2], &[2.0]);
                if c.call(&line).is_err() {
                    break;
                }
                sent += 1;
            }
        })
    };
    // Let the stream get going, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(200));
    handle.shutdown();

    // `join` must return despite the continuously busy connection; give a
    // regression a bounded failure instead of hanging the suite.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    let snapshot = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("drain hung while a client pipelined without idle gaps");
    stop.store(true, Ordering::Relaxed);
    pump.join().unwrap();
    assert!(snapshot.conserved(), "drain lost requests: {snapshot:?}");
}

#[test]
fn saturated_queue_rejects_with_backpressure_and_drains_clean() {
    let handle = serve(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        retry_after_ms: 7,
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = handle.addr();
    let mut c = Client::connect(addr).expect("connect");

    const TOTAL: usize = 200;
    for i in 0..TOTAL {
        // ft_run is never cached, so every request costs real worker time
        // and the two-slot queue must overflow.
        c.send(&requests::ft_line(
            i as i64,
            1.0,
            &[2.0, 0.5, 4.0, 1.5],
            &[0.2, 0.1, 0.7, 0.3],
            i as u64,
            Some((1 + i % 4, 3, 0.5)),
        ))
        .expect("send");
    }
    c.flush().expect("flush");

    let (mut ok, mut rejected, mut other) = (0usize, 0usize, 0usize);
    for _ in 0..TOTAL {
        let v = c.recv().expect("recv");
        match status(&v) {
            "ok" => ok += 1,
            "rejected" => {
                assert_eq!(
                    v.get("reason").unwrap().as_str(),
                    Some("backpressure"),
                    "pre-drain rejections must cite backpressure"
                );
                assert_eq!(v.get("retry_after_ms").unwrap().as_u64(), Some(7));
                rejected += 1;
            }
            _ => other += 1,
        }
    }
    assert_eq!(ok + rejected + other, TOTAL, "every request answered once");
    assert!(
        rejected > 0,
        "a 2-slot queue must overflow under {TOTAL} pipelined ft_runs"
    );
    assert!(ok > 0, "admitted requests must still complete");

    handle.shutdown();
    drop(c);
    let snapshot = handle.join();
    assert!(snapshot.conserved(), "drain lost requests: {snapshot:?}");
    assert_eq!(snapshot.received, TOTAL as u64);
    assert_eq!(snapshot.rejected, rejected as u64);

    // Once drained, the listener is gone.
    assert!(
        Client::connect(addr).is_err(),
        "drained server must refuse connects"
    );
}

/// Fill the `cap` connections of `addr`, check that one more gets a single
/// `connection-limit` line and EOF without disturbing the live sessions,
/// then free a slot and return the live sessions with the one admitted
/// into it last.
fn check_connection_cap(addr: SocketAddr, cap: usize) -> Vec<Client> {
    let mut live: Vec<Client> = (0..cap)
        .map(|_| {
            let mut c = Client::connect(addr).expect("connect");
            assert_eq!(status(&c.call(r#"{"op":"health"}"#).unwrap()), "ok");
            c
        })
        .collect();

    // One more connection gets one parseable rejection line — without
    // sending anything — then EOF.
    let stream = TcpStream::connect(addr).expect("tcp connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read rejection line");
    assert_eq!(
        line,
        "{\"status\":\"rejected\",\"reason\":\"connection-limit\",\"retry_after_ms\":9}\n"
    );
    assert_eq!(
        reader.read_line(&mut line).expect("read eof"),
        0,
        "capped connection must be closed after the rejection line"
    );

    // The capped-out attempt must not have disturbed the live sessions.
    for c in &mut live {
        assert_eq!(status(&c.call(r#"{"op":"health"}"#).unwrap()), "ok");
    }

    // Dropping a client frees a slot; the reap runs on the next accept,
    // so retry (with the hinted pause) until admitted.
    live.pop();
    let admitted = loop {
        let mut c = Client::connect(addr).expect("tcp connect");
        match c.call(r#"{"op":"health"}"#) {
            Ok(v) if status(&v) == "ok" => break c,
            _ => std::thread::sleep(Duration::from_millis(9)),
        }
    };
    live.push(admitted);
    live
}

#[test]
fn connection_cap_rejects_with_retry_hint_and_recovers() {
    let handle = serve(ServerConfig {
        workers: 1,
        max_conns: 2,
        retry_after_ms: 9,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut live = check_connection_cap(handle.addr(), 2);
    // The recovered slot is a full session, and the drain ledger holds.
    let line = requests::solve_line(1, 1.0, &[0.2, 0.1], &[2.0, 0.5]);
    assert_eq!(status(&live[1].call(&line).unwrap()), "ok");
    handle.shutdown();
    drop(live);
    let snapshot = handle.join();
    assert!(snapshot.conserved(), "drain lost requests: {snapshot:?}");

    // The router accepts through the same code, at the shared cap.
    let router = spawn_router(ShardDirectory::new(1));
    let mut live = check_connection_cap(router.addr(), MAX_CONNS);
    assert_eq!(
        status(&live[MAX_CONNS - 1].call(r#"{"op":"stats"}"#).unwrap()),
        "ok"
    );
    router.shutdown();
    drop(live);
    router.join();
}

/// Send a `health` request padded to one byte over [`MAX_LINE_BYTES`],
/// newline-terminated or left open, and return the lines that come back
/// and whether the connection was then closed. A tier that waits for more
/// bytes instead leaves the read to time out, which reads as not closed.
fn send_over_long(addr: SocketAddr, terminated: bool) -> (Vec<String>, bool) {
    let head = r#"{"op":"health","pad":""#;
    let tail = r#""}"#;
    let pad = "x".repeat(MAX_LINE_BYTES + 1 - head.len() - tail.len());
    let mut line = format!("{head}{pad}{tail}");
    if terminated {
        line.push('\n');
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    // The tier stops reading one byte past the cap and closes, so the
    // tail of a terminated line may never be accepted.
    let _ = stream.write_all(line.as_bytes());
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) => return (lines, true),
            Ok(_) => lines.push(reply.trim().to_string()),
            // Closing with the unread tail pending resets the connection.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return (lines, true),
            Err(_) => return (lines, false),
        }
    }
}

#[test]
fn both_tiers_answer_an_over_long_line_once_then_close() {
    let shard = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start shard");
    let directory = ShardDirectory::new(1);
    directory.set_addr(0, shard.addr());
    let router = spawn_router(directory);

    let error =
        format!(r#"{{"status":"error","error":"request line exceeds {MAX_LINE_BYTES} bytes"}}"#);
    let line = requests::solve_line(1, 1.0, &[0.2], &[2.0]);
    for addr in [shard.addr(), router.addr()] {
        for terminated in [true, false] {
            let (lines, closed) = send_over_long(addr, terminated);
            assert_eq!(
                lines,
                vec![error.clone()],
                "{addr}, terminated: {terminated}"
            );
            assert!(
                closed,
                "{addr} left the connection open after an over-long line"
            );
        }
        // A fresh connection is served as usual.
        let mut c = Client::connect(addr).expect("connect");
        assert_eq!(status(&c.call(&line).unwrap()), "ok");
    }

    router.shutdown();
    let stats = router.join();
    assert_eq!(stats.received, 3, "both over-long lines count as received");
    assert_eq!(
        stats.forward_attempts, 1,
        "over-long lines are never forwarded"
    );
    shard.shutdown();
    // Each over-long line is one received request and one error.
    let snapshot = shard.join();
    assert!(snapshot.conserved(), "drain lost requests: {snapshot:?}");
    assert_eq!((snapshot.received, snapshot.errors), (4, 2));
}

//! The connection front the shard server and the router share: the accept
//! loop with its connection cap, the NDJSON framing loop with its line
//! cap, the loopback gate for control ops, the drain poke, and the
//! latency object of `stats`/`metrics`. Each tier keeps only what
//! differs: its per-line handler, and what a connection runs around the
//! framing loop (the shard's writer thread, the router's forwarder).

use crate::handlers;
use minijson::Value;
use obs::Summary;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Most connections a tier serves at once: the router's cap and the
/// default of [`ServerConfig::max_conns`](crate::ServerConfig::max_conns).
/// A client past it gets one `connection-limit` line and EOF.
pub const MAX_CONNS: usize = 256;

/// Longest request line framed, in bytes before its newline. A longer
/// line, or an unterminated run of more bytes, is answered with one
/// `error` (no `id`) and the connection is closed, so no client can make
/// a tier buffer more than this per connection.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How one tier names its accept-side threads and `obs` counters, and the
/// cap it admits connections under.
pub(crate) struct Tier {
    /// Thread-name prefix: `<name>-accept`, `<name>-conn`.
    pub name: &'static str,
    /// Counted for every accepted connection.
    pub connections: &'static str,
    /// Counted for every connection turned away at the cap.
    pub capped: &'static str,
    /// Live connections at which new ones are turned away.
    pub max_conns: usize,
    /// Retry hint in the `connection-limit` line.
    pub retry_after_ms: u64,
}

/// A running accept loop and the threads of the connections it admitted.
pub(crate) struct Accepting {
    accept: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Accepting {
    /// Join the accept loop, then every connection thread. The drain must
    /// have begun: connections exit once they notice it.
    pub(crate) fn join(self) {
        let _ = self.accept.join();
        // The accept loop is gone, so the list can no longer grow.
        let conns = std::mem::take(&mut *self.conns.lock().expect("connection list poisoned"));
        for h in conns {
            let _ = h.join();
        }
    }
}

/// Accept connections on `listener` until `draining(&shared)` is set,
/// running `connection(&shared, stream)` on one thread per connection.
pub(crate) fn spawn_accept<S: Send + Sync + 'static>(
    listener: TcpListener,
    tier: Tier,
    shared: Arc<S>,
    draining: fn(&S) -> &AtomicBool,
    connection: fn(&S, TcpStream),
) -> Accepting {
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
    let live = Arc::clone(&conns);
    let accept = std::thread::Builder::new()
        .name(format!("{}-accept", tier.name))
        .spawn(move || {
            for stream in listener.incoming() {
                if draining(&shared).load(Ordering::SeqCst) {
                    return; // the drain poke or a late client
                }
                let Ok(mut stream) = stream else { continue };
                obs::count!(tier.connections);
                let mut live = live.lock().expect("connection list poisoned");
                // Reap threads of connections that already closed, so
                // handles don't accumulate under connection churn and the
                // cap counts live connections (finished threads are safe
                // to detach by dropping).
                live.retain(|h| !h.is_finished());
                // A capped client gets a single parseable rejection line
                // and EOF; it never reaches a connection thread.
                if live.len() >= tier.max_conns {
                    obs::count!(tier.capped);
                    let _ = writeln!(
                        stream,
                        "{}",
                        handlers::conn_limit_response(tier.retry_after_ms)
                    );
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("{}-conn", tier.name))
                    .spawn(move || connection(&shared, stream))
                    .expect("spawn connection thread");
                live.push(handle);
            }
        })
        .expect("spawn accept thread");
    Accepting { accept, conns }
}

/// Begin a drain once: set `draining`, run `first`, and poke the accept
/// loop out of its blocking accept. Later calls do nothing.
pub(crate) fn begin_drain(draining: &AtomicBool, addr: SocketAddr, first: impl FnOnce()) {
    if !draining.swap(true, Ordering::SeqCst) {
        first();
        let _ = TcpStream::connect(addr);
    }
}

/// May this peer use `shutdown` and `reconfigure`? Loopback peers always
/// may (the operational harnesses run on the same host); remote peers only
/// when the tier was started with `allow_remote_shutdown`.
fn control_permitted(peer_loopback: bool, allow_remote: bool) -> bool {
    peer_loopback || allow_remote
}

/// Frame one connection's NDJSON request lines. Each non-blank line goes
/// to `on_line` trimmed, with whether this peer passed the control gate;
/// `on_line` returns `false` to close the connection. A line over
/// [`MAX_LINE_BYTES`] goes to `on_line` once as `Err(message)` and the
/// connection closes. Returns on EOF, a read error, a line that is not
/// UTF-8, or the drain, which is checked after every line and on every
/// 100 ms idle timeout.
pub(crate) fn frame_lines(
    stream: TcpStream,
    draining: &AtomicBool,
    allow_remote: bool,
    mut on_line: impl FnMut(Result<&str, &str>, bool) -> bool,
) {
    let _ = stream.set_nodelay(true);
    // A finite read timeout lets idle connections notice the drain.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let peer_loopback = stream
        .peer_addr()
        .map(|a| a.ip().is_loopback())
        .unwrap_or(false);
    let control = control_permitted(peer_loopback, allow_remote);
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        // Read at most one byte past the cap; partial bytes stay in `buf`
        // across idle timeouts.
        let room = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut buf) {
            Ok(0) => return, // EOF
            Ok(_) if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') => {
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                on_line(Err(&message), control);
                return;
            }
            Ok(_) => {
                let Ok(line) = std::str::from_utf8(&buf) else {
                    return;
                };
                let line = line.trim();
                if !line.is_empty() && !on_line(Ok(line), control) {
                    return;
                }
                buf.clear();
                // Re-check the drain after every line, not only on idle
                // timeouts: a client that pipelines continuously would
                // otherwise never let this thread observe the drain and
                // `join` would hang on it.
                if draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// `x`, or 0 where it is not finite (the percentiles of an empty window).
pub(crate) fn finite(x: f64) -> Value {
    Value::Number(if x.is_finite() { x } else { 0.0 })
}

/// The `{count, p50_us, p90_us, p99_us, max_us}` latency object `stats`
/// and `metrics` report per endpoint, followed by the tier's `tail` field
/// (`mean_us` or `samples`) when it has one.
pub(crate) fn latency_json(count: f64, s: &Summary, tail: Option<(&str, Value)>) -> Value {
    let mut fields = vec![
        ("count".to_string(), Value::Number(count)),
        ("p50_us".to_string(), finite(s.p50)),
        ("p90_us".to_string(), finite(s.p90)),
        ("p99_us".to_string(), finite(s.p99)),
        ("max_us".to_string(), finite(s.max)),
    ];
    fields.extend(tail.map(|(k, v)| (k.to_string(), v)));
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_gated_to_loopback_unless_overridden() {
        assert!(control_permitted(true, false));
        assert!(control_permitted(true, true));
        assert!(control_permitted(false, true));
        assert!(!control_permitted(false, false));
    }
}

//! A retrying client: bounded retries with exponential backoff and
//! seeded jitter, `retry_after_ms` honoring, and a circuit breaker.
//!
//! Layered on the blocking [`Client`], which already bounds every
//! syscall (connect/read/write timeouts). This wrapper adds *policy*:
//!
//! * **Transport failures** (connect refused, IO error, timeout,
//!   corrupted/unparseable response) tear down the connection, count
//!   toward the circuit breaker, and are retried after an exponential
//!   backoff with seeded jitter.
//! * **`rejected` responses** (backpressure, draining, router
//!   `unavailable`) are retried after `max(retry_after_ms, backoff)` —
//!   the server's hint is honored, never shortened. They do **not**
//!   count toward the breaker: a rejecting server is alive.
//! * **`ok` / `error` / `timeout` responses** are terminal — the server
//!   answered; re-litigating an `error` (malformed request) or a
//!   deadline policy decision is the caller's business, not transport's.
//!
//! The breaker opens after [`RetryPolicy::breaker_threshold`] consecutive
//! transport failures; while open, calls wait out the cooldown before the
//! half-open probe instead of hammering a dead server. All waiting is
//! bounded by `max_attempts`, so a call always terminates.
//!
//! Retrying is safe here because every work op is idempotent: `solve` is
//! a pure function of the canonical chain and `ft_run` of its seed, so a
//! duplicate execution (e.g. response lost after the server solved)
//! returns the identical bytes.

use crate::client::{Client, ClientConfig};
use minijson::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Retry/backoff/breaker policy for a [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per call (first try included).
    pub max_attempts: u32,
    /// First retry delay; doubles per retry.
    pub base_backoff: Duration,
    /// Retry delay cap.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a uniform
    /// factor in `[1 - jitter, 1 + jitter]` (seeded, deterministic).
    pub jitter: f64,
    /// Consecutive transport failures that open the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker holds calls off before the half-open
    /// probe.
    pub breaker_cooldown: Duration,
    /// IO bounds for the underlying connection.
    pub client: ClientConfig,
    /// Seed for the jitter RNG.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            jitter: 0.2,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            client: ClientConfig::default(),
            seed: 0,
        }
    }
}

/// A terminal response, with how hard it was to get.
#[derive(Debug, Clone)]
pub struct CallOutcome {
    /// Parsed response.
    pub value: Value,
    /// The raw response line (exact server bytes).
    pub raw: String,
    /// Attempts spent (1 = first try succeeded).
    pub attempts: u32,
    /// `rejected` responses absorbed along the way.
    pub rejections: u32,
}

/// Why a call gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    /// Every attempt failed; carries the last failure description.
    Exhausted {
        /// Attempts spent.
        attempts: u32,
        /// Human-readable description of the last failure.
        last_error: String,
    },
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Exhausted {
                attempts,
                last_error,
            } => write!(f, "call exhausted after {attempts} attempts: {last_error}"),
        }
    }
}

impl std::error::Error for CallError {}

/// Lifetime counters for one [`ResilientClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Calls issued.
    pub calls: u64,
    /// Attempts beyond each call's first.
    pub retries: u64,
    /// Connections (re)established.
    pub reconnects: u64,
    /// `rejected` responses absorbed.
    pub rejections: u64,
    /// Times the breaker opened.
    pub breaker_opens: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed {
        consecutive_failures: u32,
    },
    /// Open; the next call waits out the remaining cooldown (tracked as
    /// a deadline) and then probes half-open.
    Open,
}

/// The retrying client; see the module docs.
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    rng: StdRng,
    breaker: Breaker,
    open_until: Option<std::time::Instant>,
    stats: RetryStats,
}

impl ResilientClient {
    /// A client for `addr` (connects lazily on the first call).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let seed = policy.seed;
        Self {
            addr: addr.into(),
            policy,
            conn: None,
            rng: StdRng::seed_from_u64(seed),
            breaker: Breaker::Closed {
                consecutive_failures: 0,
            },
            open_until: None,
            stats: RetryStats::default(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Exponential backoff with seeded jitter for retry `retry` (0-based).
    fn backoff(&mut self, retry: u32) -> Duration {
        let factor = 1u32 << retry.min(16);
        let base = (self.policy.base_backoff * factor).min(self.policy.max_backoff);
        if self.policy.jitter <= 0.0 {
            return base;
        }
        let j = self.policy.jitter.min(1.0);
        let scale = 1.0 - j + self.rng.gen_range(0.0..(2.0 * j));
        base.mul_f64(scale)
    }

    fn on_transport_failure(&mut self, trace: Option<u64>) {
        self.conn = None;
        let failures = match self.breaker {
            Breaker::Closed {
                consecutive_failures,
            } => consecutive_failures + 1,
            Breaker::Open => return, // already open
        };
        if failures >= self.policy.breaker_threshold {
            self.breaker = Breaker::Open;
            self.open_until = Some(std::time::Instant::now() + self.policy.breaker_cooldown);
            self.stats.breaker_opens += 1;
            obs::count!("client.breaker.open", "trace" => trace);
        } else {
            self.breaker = Breaker::Closed {
                consecutive_failures: failures,
            };
        }
    }

    fn on_success(&mut self, trace: Option<u64>) {
        if self.breaker == Breaker::Open {
            // Half-open probe succeeded: the breaker closes again.
            obs::event!("client.breaker.close", "trace" => trace);
        }
        self.breaker = Breaker::Closed {
            consecutive_failures: 0,
        };
        self.open_until = None;
    }

    /// One transport attempt: connect if needed, round-trip, parse.
    fn attempt(&mut self, request: &str) -> Result<Value1, String> {
        if self.conn.is_none() {
            match Client::connect_with(&*self.addr, self.policy.client) {
                Ok(c) => {
                    self.stats.reconnects += 1;
                    self.conn = Some(c);
                }
                Err(e) => return Err(format!("connect {}: {e}", self.addr)),
            }
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let raw = match conn.call_raw(request) {
            Ok(raw) => raw,
            Err(e) => return Err(format!("io: {e}")),
        };
        match Value::parse(&raw) {
            Ok(value) => Ok((value, raw)),
            Err(e) => Err(format!("unparseable response ({e}): {raw:?}")),
        }
    }

    /// Round-trip `request` to a terminal response, retrying per policy.
    pub fn call(&mut self, request: &str) -> Result<CallOutcome, CallError> {
        self.stats.calls += 1;
        // The request line is otherwise opaque bytes to this layer; only
        // peek at its trace id when a sink is actually installed.
        let trace = if obs::enabled() {
            crate::telemetry::extract_trace(request)
        } else {
            None
        };
        let _span = obs::span!("client.call", "trace" => trace);
        let mut last_error = String::from("no attempt made");
        let mut rejections: u32 = 0;
        for attempt in 1..=self.policy.max_attempts.max(1) {
            if attempt > 1 {
                self.stats.retries += 1;
                obs::event!("client.retry", "trace" => trace, "attempt" => attempt as u64);
            }
            // Open breaker: wait out the cooldown, then probe half-open.
            if self.breaker == Breaker::Open {
                if let Some(until) = self.open_until {
                    let now = std::time::Instant::now();
                    if now < until {
                        std::thread::sleep(until - now);
                    }
                }
            }
            match self.attempt(request) {
                Err(e) => {
                    last_error = e;
                    self.on_transport_failure(trace);
                    if attempt < self.policy.max_attempts {
                        let d = self.backoff(attempt - 1);
                        std::thread::sleep(d);
                    }
                }
                Ok((value, raw)) => {
                    let status = value.get("status").and_then(Value::as_str);
                    match status {
                        Some("ok") | Some("error") | Some("timeout") => {
                            self.on_success(trace);
                            return Ok(CallOutcome {
                                value,
                                raw,
                                attempts: attempt,
                                rejections,
                            });
                        }
                        Some("rejected") => {
                            // The server is alive — not a breaker event.
                            self.on_success(trace);
                            rejections += 1;
                            self.stats.rejections += 1;
                            obs::count!("client.rejected", "trace" => trace);
                            let hint = value
                                .get("retry_after_ms")
                                .and_then(Value::as_u64)
                                .map(Duration::from_millis)
                                .unwrap_or(Duration::ZERO);
                            last_error = format!("rejected: {raw}");
                            if attempt < self.policy.max_attempts {
                                let d = self.backoff(attempt - 1).max(hint);
                                std::thread::sleep(d);
                            }
                        }
                        other => {
                            last_error = format!("unknown status {other:?} in {raw:?}");
                            self.on_transport_failure(trace);
                            if attempt < self.policy.max_attempts {
                                let d = self.backoff(attempt - 1);
                                std::thread::sleep(d);
                            }
                        }
                    }
                }
            }
        }
        Err(CallError::Exhausted {
            attempts: self.policy.max_attempts.max(1),
            last_error,
        })
    }
}

/// (parsed, raw) pair from one successful transport attempt.
type Value1 = (Value, String);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServerConfig};

    fn policy_fast() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            jitter: 0.2,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(20),
            client: ClientConfig::fast(Duration::from_millis(250)),
            seed: 42,
        }
    }

    #[test]
    fn first_try_success_costs_one_attempt() {
        let server = serve(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut c = ResilientClient::new(server.addr().to_string(), policy_fast());
        let out = c
            .call(r#"{"op":"solve","id":1,"root_rate":1.0,"links":[0.2],"bids":[2.0]}"#)
            .unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.rejections, 0);
        assert_eq!(out.value.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(c.stats().retries, 0);
        server.shutdown();
        server.join();
    }

    #[test]
    fn dead_server_exhausts_and_opens_breaker() {
        // Bind then drop: the port is (very likely) refused afterwards.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut c = ResilientClient::new(addr.to_string(), policy_fast());
        let err = c.call(r#"{"op":"health"}"#).unwrap_err();
        match err {
            CallError::Exhausted { attempts, .. } => assert_eq!(attempts, 4),
        }
        assert!(c.stats().breaker_opens >= 1, "{:?}", c.stats());
        assert_eq!(c.stats().retries, 3);
    }

    #[test]
    fn server_error_is_terminal_not_retried() {
        let server = serve(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut c = ResilientClient::new(server.addr().to_string(), policy_fast());
        let out = c.call(r#"{"op":"mine_bitcoin"}"#).unwrap();
        assert_eq!(out.attempts, 1, "errors are answers, not failures");
        assert_eq!(
            out.value.get("status").and_then(Value::as_str),
            Some("error")
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn backoff_is_seeded_deterministic_and_bounded() {
        let mk = || ResilientClient::new("127.0.0.1:1", policy_fast());
        let (mut a, mut b) = (mk(), mk());
        for retry in 0..6 {
            let (da, db) = (a.backoff(retry), b.backoff(retry));
            assert_eq!(da, db, "same seed, same jitter");
            assert!(da <= Duration::from_millis(48), "cap × (1 + jitter)");
        }
        let mut no_jitter = ResilientClient::new(
            "127.0.0.1:1",
            RetryPolicy {
                jitter: 0.0,
                ..policy_fast()
            },
        );
        assert_eq!(no_jitter.backoff(0), Duration::from_millis(5));
        assert_eq!(no_jitter.backoff(2), Duration::from_millis(20));
        assert_eq!(no_jitter.backoff(10), Duration::from_millis(40));
    }
}

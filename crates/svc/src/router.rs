//! The failover router: a front tier that speaks the same NDJSON protocol
//! as a single server and spreads work across a fleet of shard servers.
//!
//! ### Routing
//! Each work request is mapped to a **routing key**: for `solve`, the
//! canonical quantized [`ChainKey`](crate::quant::ChainKey) (the solver
//! cache identity); for everything else, a hash of the raw request line.
//! The key is placed with **rendezvous (highest-random-weight) hashing**
//! over the shard slots: every key has a stable preference order over all
//! slots, so when one shard dies only its keys move (to their
//! second-choice shard) and the rest of the fleet keeps its cache warm.
//!
//! ### Correct-by-construction failover
//! The solver cache is keyed by the canonical chain, and a cached body is
//! the exact bytes of the cold solve ([`crate::cache`]). A failed-over
//! key therefore re-solves on its new shard to a **bit-identical**
//! response (modulo the `cached` flag) — failover can serve stale or
//! wrong data only if the solve itself were nondeterministic, which the
//! E25/E26 harness (`exp_serve_chaos`) disproves under every chaos plan,
//! traced and untraced.
//!
//! ### Relaying
//! Shard responses are relayed as **raw bytes** ([`Client::call_raw`]):
//! the router never reparses or reserializes a shard response, so cache
//! bit-identity and `retry_after_ms` hints survive the extra hop
//! unchanged. Backpressure rejections are relayed, **not** retried — the
//! retry decision belongs to the client, and never re-sending means
//! router forwarding attempts equal the sum of shard `received` counters
//! exactly (asserted in `tests/resilience_e2e.rs`).
//!
//! ### Failure handling
//! A connect/IO failure marks the slot down and the request fails over
//! to the next slot in its preference order; a `draining` rejection does
//! the same (the shard is going away). When no slot can take the request
//! the client gets a `"rejected"` / `"unavailable"` response with a retry
//! hint. An optional prober thread re-checks downed slots so they rejoin
//! once the supervisor restarts them (the [`crate::supervisor`] also
//! flips slots back up directly).
//!
//! ### Connections
//! Accepting, framing and the control gate are the connection front the
//! router shares with the shard server, so the router caps its clients at
//! [`MAX_CONNS`](crate::MAX_CONNS) and its lines at
//! [`MAX_LINE_BYTES`](crate::MAX_LINE_BYTES) exactly as a shard does. Each
//! connection forwards one line at a time and writes each response before
//! reading the next line.

use crate::client::{Client, ClientConfig};
use crate::front::{self, Accepting, Tier};
use crate::handlers::{self, RequestKind, WorkRequest};
use crate::telemetry::{self, PromText};
use minijson::Value;
use obs::Histogram;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connect/read/write timeout for each shard hop.
const SHARD_TIMEOUT: Duration = Duration::from_secs(2);

/// One shard slot: where it lives and how it is doing.
struct Slot {
    /// Current address (`None` while the shard is down/being restarted).
    addr: Mutex<Option<SocketAddr>>,
    /// Routable right now?
    healthy: AtomicBool,
    /// Bumped on every address (re)assignment; cached connections from an
    /// older generation are discarded.
    generation: AtomicU64,
    /// Times the supervisor restarted this slot.
    restarts: AtomicU64,
    /// Requests this slot answered through the router.
    forwarded: AtomicU64,
    /// Forwarding failures at this slot that pushed a request onward
    /// (IO error, draining response, or connection-limit response).
    failovers: AtomicU64,
    /// Backpressure rejections this slot answered that the router
    /// relayed unchanged.
    relayed_rejections: AtomicU64,
}

/// Live view of slot `i`, as reported by [`ShardDirectory::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Slot index.
    pub slot: usize,
    /// Current address, if assigned.
    pub addr: Option<SocketAddr>,
    /// Routable right now?
    pub healthy: bool,
    /// Address generation (restart epoch).
    pub generation: u64,
    /// Supervisor restarts so far.
    pub restarts: u64,
    /// Requests answered through the router.
    pub forwarded: u64,
    /// Forwarding failures here that pushed a request to another slot
    /// (or to `unavailable` when it was the last candidate).
    pub failovers: u64,
    /// Backpressure rejections answered here and relayed unchanged.
    pub relayed_rejections: u64,
}

impl SlotSnapshot {
    /// The per-slot forwarding counters, named as `stats`, `metrics` and
    /// the Prometheus text name them.
    fn counters(&self) -> [(&'static str, u64); 3] {
        [
            ("forwarded", self.forwarded),
            ("failovers", self.failovers),
            ("relayed_rejections", self.relayed_rejections),
        ]
    }
}

/// The shared fleet map: the supervisor writes addresses into it, the
/// router routes over it, the prober flips health bits.
pub struct ShardDirectory {
    slots: Vec<Slot>,
}

impl ShardDirectory {
    /// A directory of `slots` empty slots (no addresses yet).
    pub fn new(slots: usize) -> Arc<Self> {
        assert!(slots > 0, "a fleet needs at least one slot");
        Arc::new(Self {
            slots: (0..slots)
                .map(|_| Slot {
                    addr: Mutex::new(None),
                    healthy: AtomicBool::new(false),
                    generation: AtomicU64::new(0),
                    restarts: AtomicU64::new(0),
                    forwarded: AtomicU64::new(0),
                    failovers: AtomicU64::new(0),
                    relayed_rejections: AtomicU64::new(0),
                })
                .collect(),
        })
    }

    /// Number of slots (fixed at construction).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Directories are never empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Assign `addr` to `slot` and mark it healthy (a fresh/restarted
    /// shard). Bumps the generation so stale cached connections die.
    pub fn set_addr(&self, slot: usize, addr: SocketAddr) {
        let s = &self.slots[slot];
        *s.addr.lock().unwrap() = Some(addr);
        s.generation.fetch_add(1, Ordering::SeqCst);
        s.healthy.store(true, Ordering::SeqCst);
    }

    /// Record a restart of `slot` (called by the supervisor).
    pub fn note_restart(&self, slot: usize) {
        self.slots[slot].restarts.fetch_add(1, Ordering::SeqCst);
    }

    /// Take `slot` out of rotation: the shard died or was killed, or a
    /// forward or probe to it failed.
    pub fn mark_down(&self, slot: usize) {
        self.slots[slot].healthy.store(false, Ordering::SeqCst);
    }

    /// Put `slot` back in rotation (probe succeeded).
    pub fn mark_healthy(&self, slot: usize) {
        self.slots[slot].healthy.store(true, Ordering::SeqCst);
    }

    /// Current address of `slot`.
    pub fn addr(&self, slot: usize) -> Option<SocketAddr> {
        *self.slots[slot].addr.lock().unwrap()
    }

    /// Address generation of `slot`.
    pub fn generation(&self, slot: usize) -> u64 {
        self.slots[slot].generation.load(Ordering::SeqCst)
    }

    /// Is `slot` routable?
    pub fn is_healthy(&self, slot: usize) -> bool {
        self.slots[slot].healthy.load(Ordering::SeqCst)
    }

    /// Slots currently marked healthy.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.is_healthy(i)).collect()
    }

    /// Rendezvous preference order for `key_hash`: all slots, best first.
    /// Deterministic per key; independent of health (callers filter).
    pub fn rank(&self, key_hash: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&slot| std::cmp::Reverse(rendezvous_weight(key_hash, slot)));
        order
    }

    /// Snapshot every slot for stats reporting.
    pub fn snapshot(&self) -> Vec<SlotSnapshot> {
        (0..self.len())
            .map(|i| {
                let s = &self.slots[i];
                SlotSnapshot {
                    slot: i,
                    addr: *s.addr.lock().unwrap(),
                    healthy: s.healthy.load(Ordering::SeqCst),
                    generation: s.generation.load(Ordering::SeqCst),
                    restarts: s.restarts.load(Ordering::SeqCst),
                    forwarded: s.forwarded.load(Ordering::SeqCst),
                    failovers: s.failovers.load(Ordering::SeqCst),
                    relayed_rejections: s.relayed_rejections.load(Ordering::SeqCst),
                }
            })
            .collect()
    }
}

/// A slot's forwarding counters as JSON object fields.
fn counter_fields(slot: &SlotSnapshot) -> impl Iterator<Item = (String, Value)> {
    let counters = slot.counters().into_iter();
    counters.map(|(k, v)| (k.to_string(), Value::Number(v as f64)))
}

/// Highest-random-weight score of `slot` for `key_hash`.
fn rendezvous_weight(key_hash: u64, slot: usize) -> u64 {
    let mut h = DefaultHasher::new();
    key_hash.hash(&mut h);
    (slot as u64).hash(&mut h);
    h.finish()
}

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Probe interval for downed-slot recovery; `Duration::ZERO` disables
    /// the prober (then only the supervisor flips slots back up). Note
    /// probes count toward shard `received` totals.
    pub health_interval: Duration,
    /// Retry hint on router-level `unavailable` rejections.
    pub retry_after_ms: u64,
    /// Honor `shutdown`/`reconfigure` ops from non-loopback peers.
    pub allow_remote_shutdown: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            health_interval: Duration::from_millis(250),
            retry_after_ms: 50,
            allow_remote_shutdown: false,
        }
    }
}

#[derive(Default)]
struct RouterCounters {
    received: AtomicU64,
    forwarded_ok: AtomicU64,
    forward_attempts: AtomicU64,
    failovers: AtomicU64,
    relayed_rejections: AtomicU64,
    unavailable: AtomicU64,
    probes: AtomicU64,
}

/// Counter snapshot for the router tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Request lines read from clients.
    pub received: u64,
    /// Responses relayed from a shard (any status).
    pub forwarded_ok: u64,
    /// Request lines actually sent to a shard (each one increments that
    /// shard's `received`; equality is asserted in the e2e suite).
    pub forward_attempts: u64,
    /// Times a request moved past a failed/draining slot.
    pub failovers: u64,
    /// Backpressure rejections relayed unchanged (never retried here).
    pub relayed_rejections: u64,
    /// Router-level `unavailable` rejections (no live shard).
    pub unavailable: u64,
    /// Health probes sent by the prober thread.
    pub probes: u64,
}

struct RouterShared {
    directory: Arc<ShardDirectory>,
    config: RouterConfig,
    counters: RouterCounters,
    draining: AtomicBool,
    addr: SocketAddr,
    started: Instant,
}

impl RouterShared {
    fn stats(&self) -> RouterStats {
        let c = &self.counters;
        RouterStats {
            received: c.received.load(Ordering::Relaxed),
            forwarded_ok: c.forwarded_ok.load(Ordering::Relaxed),
            forward_attempts: c.forward_attempts.load(Ordering::Relaxed),
            failovers: c.failovers.load(Ordering::Relaxed),
            relayed_rejections: c.relayed_rejections.load(Ordering::Relaxed),
            unavailable: c.unavailable.load(Ordering::Relaxed),
            probes: c.probes.load(Ordering::Relaxed),
        }
    }

    fn begin_drain(&self) {
        front::begin_drain(&self.draining, self.addr, || {
            obs::event!("router.drain.begin")
        });
    }

    fn health_body(&self) -> String {
        let state = if self.draining.load(Ordering::SeqCst) {
            "draining"
        } else {
            "serving"
        };
        Value::Object(vec![
            ("state".into(), Value::String(state.into())),
            ("role".into(), Value::String("router".into())),
            ("slots".into(), Value::Number(self.directory.len() as f64)),
            (
                "live_shards".into(),
                Value::Number(self.directory.live_slots().len() as f64),
            ),
        ])
        .to_json()
    }

    fn stats_body(&self) -> String {
        let s = self.stats();
        let shards = self
            .directory
            .snapshot()
            .into_iter()
            .map(|slot| {
                let mut row = vec![
                    ("slot".into(), Value::Number(slot.slot as f64)),
                    (
                        "addr".into(),
                        match slot.addr {
                            Some(a) => Value::String(a.to_string()),
                            None => Value::Null,
                        },
                    ),
                    ("healthy".into(), Value::Bool(slot.healthy)),
                    ("generation".into(), Value::Number(slot.generation as f64)),
                    ("restarts".into(), Value::Number(slot.restarts as f64)),
                ];
                row.extend(counter_fields(&slot));
                Value::Object(row)
            })
            .collect();
        Value::Object(vec![
            ("role".into(), Value::String("router".into())),
            ("received".into(), Value::Number(s.received as f64)),
            ("forwarded_ok".into(), Value::Number(s.forwarded_ok as f64)),
            (
                "forward_attempts".into(),
                Value::Number(s.forward_attempts as f64),
            ),
            ("failovers".into(), Value::Number(s.failovers as f64)),
            (
                "relayed_rejections".into(),
                Value::Number(s.relayed_rejections as f64),
            ),
            ("unavailable".into(), Value::Number(s.unavailable as f64)),
            ("probes".into(), Value::Number(s.probes as f64)),
            ("shards".into(), Value::Array(shards)),
        ])
        .to_json()
    }

    /// The router's `metrics` body: its own counters, per-slot forwarding
    /// counters, and a fleet-wide aggregate built by fetching each
    /// addressed shard's `metrics` and merging counters + latency sample
    /// windows via [`Histogram::merge`] semantics (sample-set union).
    /// The fan-out uses fresh direct connections, so it never touches
    /// `forward_attempts` (but it does count toward shard `received`,
    /// like health probes).
    fn metrics_body(&self) -> String {
        let s = self.stats();
        let uptime_ms = self.started.elapsed().as_millis() as u64;
        let slots = self.directory.snapshot();
        let counters: Vec<(&str, u64)> = vec![
            ("received", s.received),
            ("forwarded_ok", s.forwarded_ok),
            ("forward_attempts", s.forward_attempts),
            ("failovers", s.failovers),
            ("relayed_rejections", s.relayed_rejections),
            ("unavailable", s.unavailable),
            ("probes", s.probes),
        ];
        let mut prom = PromText::new();
        prom.gauge("dls_router_uptime_ms", uptime_ms as f64);
        for (name, v) in &counters {
            prom.counter(&format!("dls_router_{name}_total"), *v as f64);
        }
        for k in 0..3 {
            for (i, slot) in slots.iter().enumerate() {
                let (name, value) = slot.counters()[k];
                let idx = slot.slot.to_string();
                let labels: [(&str, &str); 1] = [("slot", &idx)];
                let family = format!("dls_router_slot_{name}_total");
                prom.labeled_counter(&family, &labels, value as f64, i == 0);
            }
        }

        // Fleet aggregation: one fresh `metrics` call per addressed slot.
        let mut shards_reporting = 0usize;
        let mut fleet_counters: Vec<(String, f64)> = Vec::new();
        let mut fleet_latency: Vec<(&str, Histogram, f64)> = vec![
            ("solve", Histogram::new(), 0.0),
            ("ft_run", Histogram::new(), 0.0),
            ("job", Histogram::new(), 0.0),
        ];
        for slot in &slots {
            let Some(addr) = slot.addr else { continue };
            let resp = Client::connect_with(addr, ClientConfig::fast(SHARD_TIMEOUT))
                .and_then(|mut c| c.call_raw("{\"op\":\"metrics\"}"));
            let Ok(resp) = resp else { continue };
            let Ok(v) = Value::parse(&resp) else { continue };
            let Some(result) = v.get("result") else {
                continue;
            };
            shards_reporting += 1;
            if let Some(Value::Object(pairs)) = result.get("counters") {
                for (k, cv) in pairs {
                    let Some(x) = cv.as_f64() else { continue };
                    match fleet_counters.iter_mut().find(|(name, _)| name == k) {
                        Some((_, total)) => *total += x,
                        None => fleet_counters.push((k.clone(), x)),
                    }
                }
            }
            for (name, hist, count) in fleet_latency.iter_mut() {
                let Some(l) = result.get("latency_us").and_then(|l| l.get(name)) else {
                    continue;
                };
                *count += l.get("count").and_then(Value::as_f64).unwrap_or(0.0);
                if let Some(samples) = l.get("samples").and_then(Value::as_array) {
                    for sample in samples {
                        if let Some(x) = sample.as_f64() {
                            hist.record(x);
                        }
                    }
                }
            }
        }
        prom.gauge("dls_fleet_shards_reporting", shards_reporting as f64);
        for (name, total) in &fleet_counters {
            prom.counter(&format!("dls_fleet_{name}_total"), *total);
        }
        let mut latency_json = Vec::new();
        for (i, (name, hist, count)) in fleet_latency.iter_mut().enumerate() {
            prom.summary("dls_fleet_latency_us", &[("endpoint", *name)], hist, i == 0);
            // Exact all-time fleet count (summed shard counts);
            // percentiles are over the merged recent windows.
            let summary = hist.summary();
            latency_json.push((
                name.to_string(),
                front::latency_json(*count, &summary, None),
            ));
        }
        let slot_rows = slots
            .iter()
            .map(|slot| {
                let mut row = vec![
                    ("slot".into(), Value::Number(slot.slot as f64)),
                    ("healthy".into(), Value::Bool(slot.healthy)),
                    ("restarts".into(), Value::Number(slot.restarts as f64)),
                ];
                row.extend(counter_fields(slot));
                Value::Object(row)
            })
            .collect();
        Value::Object(vec![
            ("role".into(), Value::String("router".into())),
            ("uptime_ms".into(), Value::Number(uptime_ms as f64)),
            (
                "counters".into(),
                Value::Object(
                    counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Number(*v as f64)))
                        .collect(),
                ),
            ),
            ("slots".into(), Value::Array(slot_rows)),
            (
                "fleet".into(),
                Value::Object(vec![
                    (
                        "shards_reporting".into(),
                        Value::Number(shards_reporting as f64),
                    ),
                    (
                        "counters".into(),
                        Value::Object(
                            fleet_counters
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::Number(*v)))
                                .collect(),
                        ),
                    ),
                    ("latency_us".into(), Value::Object(latency_json)),
                ]),
            ),
            ("text".into(), Value::String(prom.render())),
        ])
        .to_json()
    }
}

/// One cached shard connection, valid for a single address generation.
struct CachedConn {
    generation: u64,
    client: Client,
}

/// Per-connection forwarding state: cached shard connections.
struct Forwarder {
    conns: HashMap<usize, CachedConn>,
}

impl Forwarder {
    fn new() -> Self {
        Self {
            conns: HashMap::new(),
        }
    }

    /// Forward `line` to the best live slot for `key_hash`, failing over
    /// through the rendezvous order. Returns the raw response to relay.
    ///
    /// `trace` tags each attempt's telemetry. The per-trace conservation
    /// ledger (`dls-trace --fleet`) is: every `router.forward_attempt`
    /// either produced a shard-side `svc.receive` (the shard framed the
    /// line) or a `router.attempt_failed` (IO error, or a
    /// connection-limit rejection sent by the shard's accept loop before
    /// it ever read the line) — so `receives == attempts - failed`,
    /// per trace id, even across kills.
    fn forward(
        &mut self,
        shared: &RouterShared,
        key_hash: u64,
        id: Option<i64>,
        line: &str,
        trace: Option<u64>,
    ) -> String {
        let order = shared.directory.rank(key_hash);
        // Healthy slots first (in preference order), then the rest as a
        // last resort — with the prober disabled, a recovered-but-not-yet
        // -remarked slot is still worth one try before giving up.
        let candidates = order
            .iter()
            .copied()
            .filter(|&s| shared.directory.is_healthy(s))
            .chain(
                order
                    .iter()
                    .copied()
                    .filter(|&s| !shared.directory.is_healthy(s)),
            );
        let mut first = true;
        for slot in candidates {
            if !first {
                shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                obs::count!("router.failover");
            }
            first = false;
            match self.try_slot(shared, slot, line, trace) {
                Some(resp) => {
                    if resp.contains("\"reason\":\"draining\"") {
                        // The shard acknowledged but is going away; it
                        // stays correct to fail this key over right now.
                        // (The shard framed the line, so the attempt has
                        // a matching receive — not a failed attempt.)
                        shared.directory.mark_down(slot);
                        shared.directory.slots[slot]
                            .failovers
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if resp.contains("\"reason\":\"connection-limit\"") {
                        // The shard is alive but full; our connection was
                        // closed after this line — which the shard never
                        // read, so the attempt counts as failed in the
                        // conservation ledger.
                        self.conns.remove(&slot);
                        shared.directory.slots[slot]
                            .failovers
                            .fetch_add(1, Ordering::Relaxed);
                        obs::event!(
                            "router.attempt_failed",
                            "trace" => trace,
                            "slot" => slot,
                            "reason" => "connection-limit"
                        );
                        continue;
                    }
                    shared.directory.mark_healthy(slot);
                    shared.directory.slots[slot]
                        .forwarded
                        .fetch_add(1, Ordering::Relaxed);
                    if resp.contains("\"status\":\"rejected\"") {
                        // Backpressure: relayed unchanged, never retried
                        // here — the retry decision (and the
                        // `retry_after_ms` hint) belongs to the client.
                        shared
                            .counters
                            .relayed_rejections
                            .fetch_add(1, Ordering::Relaxed);
                        shared.directory.slots[slot]
                            .relayed_rejections
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    shared.counters.forwarded_ok.fetch_add(1, Ordering::Relaxed);
                    return resp;
                }
                None => continue,
            }
        }
        shared.counters.unavailable.fetch_add(1, Ordering::Relaxed);
        obs::count!("router.unavailable");
        handlers::unavailable_response(id, shared.config.retry_after_ms)
    }

    /// One attempt against one slot. `None` = IO failure (recorded).
    fn try_slot(
        &mut self,
        shared: &RouterShared,
        slot: usize,
        line: &str,
        trace: Option<u64>,
    ) -> Option<String> {
        let addr = shared.directory.addr(slot)?;
        let generation = shared.directory.generation(slot);
        match self.conns.get(&slot) {
            Some(c) if c.generation == generation => {}
            _ => {
                self.conns.remove(&slot);
                let client = Client::connect_with(addr, ClientConfig::fast(SHARD_TIMEOUT))
                    .map_err(|_| {
                        shared.directory.mark_down(slot);
                        // No line was sent, so this is not a forward
                        // attempt — only a per-slot failover.
                        shared.directory.slots[slot]
                            .failovers
                            .fetch_add(1, Ordering::Relaxed);
                    })
                    .ok()?;
                self.conns.insert(slot, CachedConn { generation, client });
            }
        }
        let conn = self.conns.get_mut(&slot)?;
        shared
            .counters
            .forward_attempts
            .fetch_add(1, Ordering::Relaxed);
        // The router half of the trace-conservation ledger, co-located
        // with the `forward_attempts` increment it audits.
        obs::event!("router.forward_attempt", "trace" => trace, "slot" => slot);
        match conn.client.call_raw(line) {
            Ok(resp) => Some(resp),
            Err(_) => {
                self.conns.remove(&slot);
                shared.directory.mark_down(slot);
                shared.directory.slots[slot]
                    .failovers
                    .fetch_add(1, Ordering::Relaxed);
                obs::event!(
                    "router.attempt_failed",
                    "trace" => trace,
                    "slot" => slot,
                    "reason" => "io"
                );
                None
            }
        }
    }

    /// Fan `line` out to every slot with an address (fresh connections;
    /// reconfigure is rare). Returns (ok, failed) counts.
    fn broadcast(&self, shared: &RouterShared, line: &str) -> (usize, usize) {
        let (mut ok, mut failed) = (0, 0);
        for slot in 0..shared.directory.len() {
            let Some(addr) = shared.directory.addr(slot) else {
                failed += 1;
                continue;
            };
            let sent = Client::connect_with(addr, ClientConfig::fast(SHARD_TIMEOUT))
                .and_then(|mut c| c.call_raw(line));
            match sent {
                Ok(resp) if resp.contains("\"status\":\"ok\"") => ok += 1,
                _ => failed += 1,
            }
        }
        (ok, failed)
    }
}

/// Routing key for one request line: the canonical chain key for `solve`
/// and for every job op (`submit_job` / `job_status` / `cancel_job` must
/// co-locate so one shard owns a chain's queue), a raw-line hash
/// otherwise (including unparseable lines, which are still forwarded so
/// the shard's error bytes come back verbatim).
fn routing_hash(kind: Option<&RequestKind>, line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    match kind {
        Some(RequestKind::Work(WorkRequest::Solve(chain))) => chain.key.hash(&mut h),
        Some(RequestKind::Job(op)) => op.chain_key().hash(&mut h),
        _ => line.hash(&mut h),
    }
    h.finish()
}

/// One client connection: forward each framed line and write its
/// response before reading the next.
fn connection(shared: &RouterShared, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(write_half);
    let mut forwarder = Forwarder::new();
    let allow_remote = shared.config.allow_remote_shutdown;
    front::frame_lines(stream, &shared.draining, allow_remote, |line, control| {
        let response = handle_request(shared, &mut forwarder, line, control);
        writeln!(writer, "{response}").is_ok() && writer.flush().is_ok()
    });
}

/// Answer one framed line (`Err` for an over-long one, answered here as
/// an error and never forwarded). `control` says whether the peer passed
/// the front's gate for `shutdown`/`reconfigure`.
fn handle_request(
    shared: &RouterShared,
    forwarder: &mut Forwarder,
    line: Result<&str, &str>,
    control: bool,
) -> String {
    shared.counters.received.fetch_add(1, Ordering::Relaxed);
    obs::count!("router.requests");
    let line = match line {
        Ok(line) => line,
        Err(message) => {
            obs::count!("router.rejected.oversize");
            return handlers::error_response(None, message);
        }
    };
    let parsed = handlers::parse_request(line, crate::quant::DEFAULT_QUANTUM);
    let (id, kind) = match &parsed {
        Ok(r) => (r.id, Some(&r.kind)),
        Err((id, _)) => (*id, None),
    };
    match kind {
        Some(RequestKind::Health) => handlers::ok_response(id, None, &shared.health_body()),
        Some(RequestKind::Stats) => handlers::ok_response(id, None, &shared.stats_body()),
        Some(RequestKind::Metrics) => handlers::ok_response(id, None, &shared.metrics_body()),
        Some(RequestKind::Shutdown) => {
            if control {
                shared.begin_drain();
                handlers::ok_response(id, None, "{\"state\":\"draining\"}")
            } else {
                handlers::error_response(
                    id,
                    "shutdown refused: only loopback peers may drain this router",
                )
            }
        }
        Some(RequestKind::Reconfigure { .. }) => {
            // Quantum must stay fleet-consistent (it is the cache-key
            // epoch), so reconfigure fans out to every shard.
            if !control {
                return handlers::error_response(
                    id,
                    "reconfigure refused: only loopback peers may reconfigure this router",
                );
            }
            let (ok, failed) = forwarder.broadcast(shared, line);
            let body = Value::Object(vec![
                ("shards_reconfigured".into(), Value::Number(ok as f64)),
                ("shards_failed".into(), Value::Number(failed as f64)),
            ])
            .to_json();
            if failed == 0 {
                handlers::ok_response(id, None, &body)
            } else {
                handlers::error_response(id, &format!("reconfigure incomplete: {body}"))
            }
        }
        // Work requests — and unparseable lines, which a shard will
        // answer with the identical error bytes a single server would.
        _ => {
            let hash = routing_hash(kind, line);
            // Cross-hop tracing: adopt the client's trace id, or inject a
            // fresh one — but only while a sink is installed (the
            // disabled path forwards the exact original bytes) and only
            // into lines that parsed (a spliced field must not change
            // what the shard's parse sees; unparseable lines are relayed
            // untouched so the shard's error bytes stay authoritative).
            let mut trace = parsed.as_ref().ok().and_then(|r| r.trace);
            let mut spliced = None;
            if obs::enabled() && trace.is_none() && parsed.is_ok() {
                let t = obs::next_trace_id();
                if let Some(with_trace) = telemetry::inject_trace(line, t) {
                    trace = Some(t);
                    spliced = Some(with_trace);
                }
            }
            let line = spliced.as_deref().unwrap_or(line);
            let _span = obs::span!("router.request", "trace" => trace);
            forwarder.forward(shared, hash, id, line, trace)
        }
    }
}

/// A running router; keep it to [`shutdown`](RouterHandle::shutdown) and
/// [`join`](RouterHandle::join).
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    front: Accepting,
    prober: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live router counters.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// The shared fleet directory.
    pub fn directory(&self) -> Arc<ShardDirectory> {
        Arc::clone(&self.shared.directory)
    }

    /// Programmatic drain trigger (same as a client `shutdown` op).
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Wait for the drain to finish; returns the final counters.
    pub fn join(self) -> RouterStats {
        self.front.join();
        if let Some(h) = self.prober {
            let _ = h.join();
        }
        self.shared.stats()
    }
}

/// The router factory: bind, start accepting, optionally start probing.
pub struct Router;

impl Router {
    /// Bind and start routing over `directory`. Returns once the listener
    /// is accepting.
    pub fn spawn(
        directory: Arc<ShardDirectory>,
        config: RouterConfig,
    ) -> std::io::Result<RouterHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(RouterShared {
            directory,
            config,
            counters: RouterCounters::default(),
            draining: AtomicBool::new(false),
            addr,
            started: Instant::now(),
        });
        let front = front::spawn_accept(
            listener,
            Tier {
                name: "router",
                connections: "router.connections",
                capped: "router.connections.capped",
                max_conns: front::MAX_CONNS,
                retry_after_ms: shared.config.retry_after_ms,
            },
            Arc::clone(&shared),
            |s| &s.draining,
            connection,
        );
        let prober = if shared.config.health_interval > Duration::ZERO {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("router-prober".into())
                    .spawn(move || prober_loop(&shared))
                    .expect("spawn router prober thread"),
            )
        } else {
            None
        };
        Ok(RouterHandle {
            addr,
            shared,
            front,
            prober,
        })
    }
}

/// Probe every addressed slot each interval, flipping health bits. Probe
/// timeouts are capped low so a dead shard can't stall the sweep.
fn prober_loop(shared: &RouterShared) {
    let timeout = SHARD_TIMEOUT.min(Duration::from_millis(250));
    while !shared.draining.load(Ordering::SeqCst) {
        for slot in 0..shared.directory.len() {
            let Some(addr) = shared.directory.addr(slot) else {
                continue;
            };
            shared.counters.probes.fetch_add(1, Ordering::Relaxed);
            let alive = Client::connect_with(addr, ClientConfig::fast(timeout))
                .and_then(|mut c| c.call_raw("{\"op\":\"health\"}"))
                .map(|r| r.contains("\"status\":\"ok\""))
                .unwrap_or(false);
            if alive {
                shared.directory.mark_healthy(slot);
            } else {
                shared.directory.mark_down(slot);
            }
        }
        // Sleep in small slices so drain is observed promptly.
        let mut remaining = shared.config.health_interval;
        while remaining > Duration::ZERO && !shared.draining.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_rank_is_stable_and_complete() {
        let dir = ShardDirectory::new(5);
        let a = dir.rank(42);
        let b = dir.rank(42);
        assert_eq!(a, b, "ranking is deterministic");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "every slot appears once");
        assert_ne!(dir.rank(42), dir.rank(43), "keys spread across slots");
    }

    #[test]
    fn rendezvous_moves_only_the_dead_slots_keys() {
        // The defining property: removing one slot must not reshuffle
        // keys whose first choice survives.
        let dir = ShardDirectory::new(4);
        for key in 0..200u64 {
            let order = dir.rank(key);
            let first = order[0];
            let dead = (first + 1) % 4; // kill some *other* slot
            let next_alive = *order.iter().find(|&&s| s != dead).unwrap();
            assert_eq!(
                next_alive, first,
                "key {key} must stay on its first choice when another slot dies"
            );
        }
    }

    #[test]
    fn directory_health_and_generation_transitions() {
        let dir = ShardDirectory::new(2);
        assert_eq!(dir.live_slots(), Vec::<usize>::new());
        let addr: SocketAddr = "127.0.0.1:9999".parse().unwrap();
        dir.set_addr(0, addr);
        assert_eq!(dir.live_slots(), vec![0]);
        assert_eq!(dir.generation(0), 1);
        dir.mark_down(0);
        assert!(!dir.is_healthy(0), "a failure downs the slot");
        assert_eq!(dir.live_slots(), Vec::<usize>::new());
        dir.set_addr(0, addr);
        assert!(dir.is_healthy(0), "re-assignment revives");
        assert_eq!(dir.generation(0), 2, "generation bumped");
    }

    #[test]
    fn routing_hash_uses_chain_key_for_solves() {
        let quantum = crate::quant::DEFAULT_QUANTUM;
        // Same canonical chain spelled two ways must route identically.
        let a = r#"{"op":"solve","root_rate":1.0,"links":[0.2],"bids":[2.0]}"#;
        let b = r#"{"op":"solve","id":99,"root_rate":1.00,"links":[0.2],"bids":[2.0]}"#;
        let ka = handlers::parse_request(a, quantum).unwrap().kind;
        let kb = handlers::parse_request(b, quantum).unwrap().kind;
        assert_eq!(
            routing_hash(Some(&ka), a),
            routing_hash(Some(&kb), b),
            "routing key is the canonical chain, not the raw line"
        );
    }

    #[test]
    fn job_ops_route_with_the_solve_chain_key() {
        let quantum = crate::quant::DEFAULT_QUANTUM;
        // Every job op on a chain must land on the shard that owns the
        // chain's solves — the per-chain queue lives on exactly one shard.
        let solve = r#"{"op":"solve","root_rate":1.0,"links":[0.2],"bids":[2.0]}"#;
        let submit = r#"{"op":"submit_job","root_rate":1.0,"links":[0.2],"bids":[2.0],"load":2.5}"#;
        let status = r#"{"op":"job_status","root_rate":1.0,"links":[0.2],"bids":[2.0],"job_id":7}"#;
        let cancel = r#"{"op":"cancel_job","root_rate":1.0,"links":[0.2],"bids":[2.0],"job_id":7}"#;
        let hash = |line: &str| {
            let kind = handlers::parse_request(line, quantum).unwrap().kind;
            routing_hash(Some(&kind), line)
        };
        let anchor = hash(solve);
        for line in [submit, status, cancel] {
            assert_eq!(hash(line), anchor, "job op co-locates with solve: {line}");
        }
    }
}

//! The TCP server: accept loop, per-connection reader/writer threads,
//! dispatch into the worker pool, and graceful drain.
//!
//! ### Threading model
//! One accept thread; per connection, one reader thread (frames NDJSON
//! lines, answers control ops inline, admits work ops to the bounded
//! queue) and one writer thread (serializes responses from an `mpsc`
//! channel, so workers never block on a slow client socket); a fixed pool
//! of worker threads executing [`crate::handlers`]. Responses carry the
//! request's `id`, so pipelined completions may arrive out of order.
//!
//! ### Backpressure
//! Admission is non-blocking: when the queue is full the reader answers
//! `status = "rejected"` with a `retry_after_ms` hint instead of queueing
//! unboundedly. Every framed request is answered exactly once, so after a
//! drain `received == completed + rejected` — checked by the E23 harness
//! and the integration tests.
//!
//! ### Graceful drain
//! A `shutdown` op (or [`ServerHandle::shutdown`]) stops the accept loop,
//! closes admission (late work ops are rejected as `"draining"`), lets
//! workers finish the backlog, flushes the `obs` sink, and leaves the
//! final counter snapshot to [`ServerHandle::join`].

use crate::cache::SolverCache;
use crate::handlers::{self, JobOp, Request, RequestKind};
use crate::jobs::{self, JobSpec};
use crate::pool::{Job, ServiceCtx, WorkerPool};
use crate::quant;
use crate::queue::{BoundedQueue, PushError};
use crate::stats::{Endpoint, StatsRegistry, LATENCY_SAMPLE_CAP};
use crate::telemetry::PromText;
use minijson::Value;
use obs::Histogram;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing solve / ft_run jobs.
    pub workers: usize,
    /// Bounded queue capacity (admission control threshold).
    pub queue_capacity: usize,
    /// Most jobs held queued across all per-chain job queues before
    /// `submit_job` is rejected with backpressure.
    pub job_queue_capacity: usize,
    /// Solver-cache shard count.
    pub cache_shards: usize,
    /// Entries per cache shard.
    pub cache_capacity_per_shard: usize,
    /// Rate quantization step for cache keys (changeable at runtime via
    /// the `reconfigure` op, which also drops the cache).
    pub quantum: f64,
    /// Solver-cache TTL: entries older than this are re-solved
    /// (`None` = entries live until evicted or invalidated).
    pub cache_ttl_ms: Option<u64>,
    /// Default per-request deadline (queue wait + service), milliseconds.
    pub default_deadline_ms: u64,
    /// Retry hint returned with backpressure rejections, milliseconds.
    pub retry_after_ms: u64,
    /// Accept-side connection cap: when this many connections are live, a
    /// new one is sent a single `connection-limit` rejection line (with
    /// the `retry_after_ms` hint) and closed without reading a request.
    pub max_conns: usize,
    /// Honor `shutdown` ops from non-loopback peers. Off by default: when
    /// `--addr` binds a non-loopback interface, remote clients must not
    /// be able to drain the server.
    pub allow_remote_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 1024,
            job_queue_capacity: crate::jobs::DEFAULT_MAX_QUEUED_JOBS,
            cache_shards: 16,
            cache_capacity_per_shard: 512,
            quantum: quant::DEFAULT_QUANTUM,
            cache_ttl_ms: None,
            default_deadline_ms: 2_000,
            retry_after_ms: 25,
            max_conns: 256,
            allow_remote_shutdown: false,
        }
    }
}

struct Shared {
    ctx: Arc<ServiceCtx>,
    queue: Arc<BoundedQueue<Job>>,
    addr: SocketAddr,
    workers: usize,
}

impl Shared {
    /// Idempotently begin the drain: stop admission and unblock accept.
    fn begin_drain(&self) {
        if !self.ctx.draining.swap(true, Ordering::SeqCst) {
            obs::event!("svc.drain.begin");
            self.queue.close();
            // Poke the accept loop out of its blocking accept.
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn health_body(&self) -> String {
        let state = if self.ctx.draining.load(Ordering::SeqCst) {
            "draining"
        } else {
            "serving"
        };
        Value::Object(vec![
            ("state".into(), Value::String(state.into())),
            (
                "uptime_s".into(),
                Value::Number(self.ctx.stats.uptime_secs()),
            ),
            (
                "uptime_ms".into(),
                Value::Number(self.ctx.stats.uptime_millis() as f64),
            ),
            ("workers".into(), Value::Number(self.workers as f64)),
            ("queue_depth".into(), Value::Number(self.queue.len() as f64)),
            (
                "queue_capacity".into(),
                Value::Number(self.queue.capacity() as f64),
            ),
            ("cache".into(), self.cache_counters()),
        ])
        .to_json()
    }

    /// The cache counter block shared by `health`, `stats` and `metrics`.
    fn cache_counters(&self) -> Value {
        Value::Object(vec![
            ("hits".into(), Value::Number(self.ctx.cache.hits() as f64)),
            (
                "misses".into(),
                Value::Number(self.ctx.cache.misses() as f64),
            ),
            ("entries".into(), Value::Number(self.ctx.cache.len() as f64)),
            (
                "expired".into(),
                Value::Number(self.ctx.cache.expired() as f64),
            ),
            (
                "invalidations".into(),
                Value::Number(self.ctx.cache.invalidations() as f64),
            ),
        ])
    }

    fn stats_body(&self) -> String {
        let s = self.ctx.stats.snapshot();
        let endpoints = Endpoint::ALL
            .iter()
            .map(|&e| {
                let mut merged = self.ctx.stats.merged_latency(e);
                // Exact all-time count; percentiles are over the bounded
                // recent window each worker shard retains.
                let count = merged.total_count();
                let summary = merged.summary();
                let nan_safe = |x: f64| if x.is_finite() { x } else { 0.0 };
                (
                    e.name().to_string(),
                    Value::Object(vec![
                        ("count".into(), Value::Number(count as f64)),
                        ("p50_us".into(), Value::Number(nan_safe(summary.p50))),
                        ("p90_us".into(), Value::Number(nan_safe(summary.p90))),
                        ("p99_us".into(), Value::Number(nan_safe(summary.p99))),
                        ("max_us".into(), Value::Number(nan_safe(summary.max))),
                        ("mean_us".into(), Value::Number(nan_safe(summary.mean))),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            (
                "uptime_s".into(),
                Value::Number(self.ctx.stats.uptime_secs()),
            ),
            (
                "uptime_ms".into(),
                Value::Number(self.ctx.stats.uptime_millis() as f64),
            ),
            ("received".into(), Value::Number(s.received as f64)),
            ("completed".into(), Value::Number(s.completed as f64)),
            ("rejected".into(), Value::Number(s.rejected as f64)),
            ("timeouts".into(), Value::Number(s.timeouts as f64)),
            ("errors".into(), Value::Number(s.errors as f64)),
            ("quantum".into(), Value::Number(self.ctx.quantum())),
            ("cache".into(), self.cache_counters()),
            ("endpoints".into(), Value::Object(endpoints)),
            ("jobs".into(), self.jobs_block()),
        ])
        .to_json()
    }

    /// The job-queue block shared by `stats`: aggregate lifecycle
    /// counters plus per-chain queue rows (depth and completed count per
    /// canonical chain, tagged with the chain-key hash).
    fn jobs_block(&self) -> Value {
        let jobs = &self.ctx.jobs;
        let chains = jobs
            .chain_rows()
            .into_iter()
            .map(|(tag, depth, completed)| {
                Value::Object(vec![
                    ("chain".into(), Value::String(tag)),
                    ("depth".into(), Value::Number(depth as f64)),
                    ("completed".into(), Value::Number(completed as f64)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("submitted".into(), Value::Number(jobs.submitted() as f64)),
            ("completed".into(), Value::Number(jobs.completed() as f64)),
            ("cancelled".into(), Value::Number(jobs.cancelled() as f64)),
            ("rejected".into(), Value::Number(jobs.rejected() as f64)),
            ("queued".into(), Value::Number(jobs.queued() as f64)),
            (
                "active_installments".into(),
                Value::Number(jobs.active_installments() as f64),
            ),
            ("chains".into(), Value::Array(chains)),
        ])
    }

    /// The `metrics` body: every counter plus per-endpoint latency — as
    /// stable JSON for tooling and a Prometheus-style `text` exposition
    /// for scrapers. The JSON carries the (bounded) raw latency samples
    /// so a router can aggregate fleet-wide percentiles exactly via
    /// [`Histogram::merge`].
    fn metrics_body(&self) -> String {
        let s = self.ctx.stats.snapshot();
        let uptime_ms = self.ctx.stats.uptime_millis();
        let counters: Vec<(&str, u64)> = vec![
            ("received", s.received),
            ("completed", s.completed),
            ("rejected", s.rejected),
            ("timeouts", s.timeouts),
            ("errors", s.errors),
            ("cache_hits", self.ctx.cache.hits()),
            ("cache_misses", self.ctx.cache.misses()),
            ("cache_entries", self.ctx.cache.len() as u64),
            ("cache_expired", self.ctx.cache.expired()),
            ("cache_invalidations", self.ctx.cache.invalidations()),
            ("jobs_submitted", self.ctx.jobs.submitted()),
            ("jobs_completed", self.ctx.jobs.completed()),
            ("jobs_cancelled", self.ctx.jobs.cancelled()),
            ("jobs_rejected", self.ctx.jobs.rejected()),
            ("jobs_queued", self.ctx.jobs.queued()),
            (
                "jobs_active_installments",
                self.ctx.jobs.active_installments(),
            ),
        ];
        let mut prom = PromText::new();
        prom.gauge("dls_uptime_ms", uptime_ms as f64);
        prom.gauge("dls_queue_depth", self.queue.len() as f64);
        for (name, v) in &counters {
            prom.counter(&format!("dls_{name}_total"), *v as f64);
        }
        let mut latency = Vec::new();
        for (i, &e) in Endpoint::ALL.iter().enumerate() {
            // Re-window the merged shards so the exported sample set (the
            // fleet-aggregation payload) is bounded regardless of worker
            // count; the all-time count stays exact through the merge.
            let merged = self.ctx.stats.merged_latency(e);
            let mut windowed = Histogram::with_cap(LATENCY_SAMPLE_CAP);
            windowed.merge(&merged);
            prom.summary(
                "dls_latency_us",
                &[("endpoint", e.name())],
                &mut windowed,
                i == 0,
            );
            let summary = windowed.summary();
            let nan_safe = |x: f64| if x.is_finite() { x } else { 0.0 };
            latency.push((
                e.name().to_string(),
                Value::Object(vec![
                    ("count".into(), Value::Number(windowed.total_count() as f64)),
                    ("p50_us".into(), Value::Number(nan_safe(summary.p50))),
                    ("p90_us".into(), Value::Number(nan_safe(summary.p90))),
                    ("p99_us".into(), Value::Number(nan_safe(summary.p99))),
                    ("max_us".into(), Value::Number(nan_safe(summary.max))),
                    (
                        "samples".into(),
                        Value::Array(
                            windowed
                                .sorted_samples()
                                .iter()
                                .map(|&v| Value::Number(v))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        Value::Object(vec![
            ("role".into(), Value::String("shard".into())),
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
            ("queue_depth".into(), Value::Number(self.queue.len() as f64)),
            ("latency_us".into(), Value::Object(latency)),
            ("text".into(), Value::String(prom.render())),
        ])
        .to_json()
    }
}

/// May this connection's `shutdown` op drain the server? Loopback peers
/// always may (the operational harnesses run on the same host); remote
/// peers only when the server was started with `allow_remote_shutdown`.
fn shutdown_permitted(peer_loopback: bool, allow_remote: bool) -> bool {
    peer_loopback || allow_remote
}

/// Handle one framed request line; sends any inline response over `tx`.
fn handle_line(shared: &Shared, line: &str, peer_loopback: bool, tx: &mpsc::Sender<String>) {
    let _span = obs::span!("svc.request");
    shared.ctx.stats.on_received();
    let Request {
        id,
        deadline_ms,
        trace,
        kind,
    } = match handlers::parse_request(line, shared.ctx.quantum()) {
        Ok(r) => r,
        Err((id, msg)) => {
            shared.ctx.stats.on_completed(true);
            let _ = tx.send(handlers::error_response(id, &msg));
            return;
        }
    };
    // The shard half of the fleet's trace-conservation ledger: one
    // receive event per traced line framed off a socket, matched against
    // the router's per-attempt events by `dls-trace --fleet`.
    if let Some(t) = trace {
        obs::event!("svc.receive", "trace" => t);
    }
    match kind {
        RequestKind::Health => {
            shared.ctx.stats.on_completed(false);
            let _ = tx.send(handlers::ok_response(id, None, &shared.health_body()));
        }
        RequestKind::Stats => {
            shared.ctx.stats.on_completed(false);
            let _ = tx.send(handlers::ok_response(id, None, &shared.stats_body()));
        }
        RequestKind::Metrics => {
            shared.ctx.stats.on_completed(false);
            let _ = tx.send(handlers::ok_response(id, None, &shared.metrics_body()));
        }
        RequestKind::Shutdown => {
            if shutdown_permitted(peer_loopback, shared.ctx.allow_remote_shutdown) {
                shared.ctx.stats.on_completed(false);
                let _ = tx.send(handlers::ok_response(id, None, "{\"state\":\"draining\"}"));
                shared.begin_drain();
            } else {
                shared.ctx.stats.on_completed(true);
                let _ = tx.send(handlers::error_response(
                    id,
                    "shutdown refused: only loopback peers may drain this server \
                     (start with --allow-remote-shutdown to override)",
                ));
            }
        }
        RequestKind::Reconfigure { quantum } => {
            // Same gate as `shutdown`: swapping the quantum drops the
            // whole solver cache, which a remote peer must not be able to
            // do to a server that did not opt in.
            if !shutdown_permitted(peer_loopback, shared.ctx.allow_remote_shutdown) {
                shared.ctx.stats.on_completed(true);
                let _ = tx.send(handlers::error_response(
                    id,
                    "reconfigure refused: only loopback peers may reconfigure this server \
                     (start with --allow-remote-shutdown to override)",
                ));
                return;
            }
            let cleared = match quantum {
                Some(q) => {
                    obs::event!("svc.reconfigure");
                    shared.ctx.set_quantum(q)
                }
                None => false,
            };
            shared.ctx.stats.on_completed(false);
            let body = Value::Object(vec![
                ("quantum".into(), Value::Number(shared.ctx.quantum())),
                ("cache_cleared".into(), Value::Bool(cleared)),
                (
                    "cache_entries".into(),
                    Value::Number(shared.ctx.cache.len() as f64),
                ),
            ])
            .to_json();
            let _ = tx.send(handlers::ok_response(id, None, &body));
        }
        RequestKind::Job(op) => match op {
            JobOp::Submit {
                chain,
                load,
                rounds,
                comm_startup,
            } => {
                if shared.ctx.draining.load(Ordering::SeqCst) {
                    shared.ctx.stats.on_rejected();
                    let _ = tx.send(handlers::rejected_response(
                        id,
                        shared.ctx.retry_after_ms,
                        true,
                    ));
                    return;
                }
                // The response is sent by the chain's scheduler thread at
                // job completion (or immediately, as a rejection, when the
                // job queue is at capacity).
                jobs::submit(
                    &shared.ctx,
                    JobSpec {
                        chain,
                        load,
                        rounds,
                        comm_startup,
                    },
                    id,
                    trace,
                    tx.clone(),
                );
            }
            JobOp::Status { job_id, .. } => match jobs::status_body(&shared.ctx, job_id) {
                Ok(body) => {
                    shared.ctx.stats.on_completed(false);
                    let _ = tx.send(handlers::ok_response(id, None, &body));
                }
                Err(msg) => {
                    shared.ctx.stats.on_completed(true);
                    let _ = tx.send(handlers::error_response(id, &msg));
                }
            },
            JobOp::Cancel { job_id, .. } => match jobs::cancel(&shared.ctx, job_id) {
                Ok(body) => {
                    shared.ctx.stats.on_completed(false);
                    let _ = tx.send(handlers::ok_response(id, None, &body));
                }
                Err(msg) => {
                    shared.ctx.stats.on_completed(true);
                    let _ = tx.send(handlers::error_response(id, &msg));
                }
            },
        },
        RequestKind::Work(request) => {
            if shared.ctx.draining.load(Ordering::SeqCst) {
                shared.ctx.stats.on_rejected();
                let _ = tx.send(handlers::rejected_response(
                    id,
                    shared.ctx.retry_after_ms,
                    true,
                ));
                return;
            }
            let deadline = Duration::from_millis(
                deadline_ms.unwrap_or(shared.ctx.default_deadline.as_millis() as u64),
            );
            let job = Job {
                request,
                id,
                deadline,
                enqueued: Instant::now(),
                trace,
                reply: tx.clone(),
            };
            match shared.queue.try_push(job) {
                Ok(()) => {}
                Err((job, PushError::Full)) => {
                    shared.ctx.stats.on_rejected();
                    obs::count!("svc.rejected.backpressure");
                    let _ = tx.send(handlers::rejected_response(
                        job.id,
                        shared.ctx.retry_after_ms,
                        false,
                    ));
                }
                Err((job, PushError::Closed)) => {
                    shared.ctx.stats.on_rejected();
                    let _ = tx.send(handlers::rejected_response(
                        job.id,
                        shared.ctx.retry_after_ms,
                        true,
                    ));
                }
            }
        }
    }
}

/// Reader loop for one connection. Returns when the client disconnects or
/// the server drains.
fn reader_loop(shared: &Shared, stream: TcpStream, tx: mpsc::Sender<String>) {
    let _ = stream.set_nodelay(true);
    // A finite read timeout lets idle connections notice the drain.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let peer_loopback = stream
        .peer_addr()
        .map(|a| a.ip().is_loopback())
        .unwrap_or(false);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    handle_line(shared, trimmed, peer_loopback, &tx);
                }
                line.clear();
                // Re-check the drain after every line, not only on idle
                // timeouts: a client that pipelines continuously would
                // otherwise never let this thread observe the drain and
                // `join` would hang on it. Work is already rejected as
                // "draining" at this point, so exiting after the response
                // was queued is safe (the writer flushes before closing).
                if shared.ctx.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Partial bytes (if any) stay in `line`; keep reading
                // unless the server is draining.
                if shared.ctx.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Writer loop: serialize responses onto the socket, batching flushes.
fn writer_loop(stream: TcpStream, rx: mpsc::Receiver<String>) {
    let mut w = BufWriter::new(stream);
    while let Ok(response) = rx.recv() {
        if w.write_all(response.as_bytes()).is_err() || w.write_all(b"\n").is_err() {
            return;
        }
        // Batch whatever else is already queued before paying the flush.
        while let Ok(more) = rx.try_recv() {
            if w.write_all(more.as_bytes()).is_err() || w.write_all(b"\n").is_err() {
                return;
            }
        }
        if w.flush().is_err() {
            return;
        }
    }
}

/// A running server; keep it to [`shutdown`](ServerHandle::shutdown) and
/// [`join`](ServerHandle::join).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    writers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared counters (live view).
    pub fn stats(&self) -> &StatsRegistry {
        &self.shared.ctx.stats
    }

    /// Programmatic drain trigger (same as a client `shutdown` op).
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Wait for the drain to finish: accept loop, connections, backlog,
    /// sink flush. Returns the final counter snapshot. A drain must have
    /// been initiated (`shutdown` op or [`ServerHandle::shutdown`]).
    pub fn join(mut self) -> crate::stats::StatsSnapshot {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Readers exit on drain; no admission can happen after this point.
        for h in std::mem::take(&mut *self.readers.lock().unwrap()) {
            let _ = h.join();
        }
        // Workers exit once the closed queue is empty.
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        // Job schedulers exit once their chain queues are empty (no
        // admission can add to them now). They hold reply senders, so
        // they must be joined before the writers below.
        self.shared.ctx.jobs.join_schedulers();
        // Writers exit once every job's reply sender is gone.
        for h in std::mem::take(&mut *self.writers.lock().unwrap()) {
            let _ = h.join();
        }
        obs::flush();
        obs::event!("svc.drain.done");
        self.shared.ctx.stats.snapshot()
    }
}

/// Bind and start serving. Returns once the listener is accepting.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let cache = SolverCache::with_ttl(
        config.cache_shards,
        config.cache_capacity_per_shard,
        config.cache_ttl_ms.map(Duration::from_millis),
    );
    // Pin the starting quantization epoch so a later `reconfigure` to a
    // different quantum is detected as a change.
    cache.invalidate_on_quantum_change(config.quantum);
    let ctx = Arc::new(ServiceCtx {
        cache,
        stats: StatsRegistry::new(config.workers),
        draining: AtomicBool::new(false),
        default_deadline: Duration::from_millis(config.default_deadline_ms),
        retry_after_ms: config.retry_after_ms,
        allow_remote_shutdown: config.allow_remote_shutdown,
        quantum_bits: std::sync::atomic::AtomicU64::new(config.quantum.to_bits()),
        jobs: crate::jobs::JobRegistry::new(config.job_queue_capacity),
    });
    let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
    let pool = WorkerPool::spawn(config.workers, Arc::clone(&queue), Arc::clone(&ctx));
    let shared = Arc::new(Shared {
        ctx,
        queue,
        addr,
        workers: config.workers,
    });
    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let writers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let shared = Arc::clone(&shared);
        let readers = Arc::clone(&readers);
        let writers = Arc::clone(&writers);
        let max_conns = config.max_conns.max(1);
        std::thread::Builder::new()
            .name("dls-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.ctx.draining.load(Ordering::SeqCst) {
                        return; // the poke connection or a late client
                    }
                    let Ok(stream) = stream else { continue };
                    obs::count!("svc.connections");
                    // Reap threads of connections that already closed, so
                    // handles don't accumulate under connection churn
                    // (finished threads are safe to detach by dropping).
                    readers.lock().unwrap().retain(|h| !h.is_finished());
                    writers.lock().unwrap().retain(|h| !h.is_finished());
                    // Accept-side cap: the reap above keeps the live count
                    // honest under churn. A capped client gets a single
                    // parseable rejection line and EOF — it never reaches
                    // the reader/writer threads or the queue.
                    if readers.lock().unwrap().len() >= max_conns {
                        obs::count!("svc.connections.capped");
                        let mut stream = stream;
                        let _ = writeln!(
                            stream,
                            "{}",
                            handlers::conn_limit_response(shared.ctx.retry_after_ms)
                        );
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        continue;
                    }
                    let (tx, rx) = mpsc::channel::<String>();
                    let write_half = match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let writer = std::thread::Builder::new()
                        .name("dls-conn-writer".into())
                        .spawn(move || writer_loop(write_half, rx))
                        .expect("spawn writer");
                    writers.lock().unwrap().push(writer);
                    let shared2 = Arc::clone(&shared);
                    let reader = std::thread::Builder::new()
                        .name("dls-conn-reader".into())
                        .spawn(move || reader_loop(&shared2, stream, tx))
                        .expect("spawn reader");
                    readers.lock().unwrap().push(reader);
                }
            })
            .expect("spawn accept thread")
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        pool: Some(pool),
        readers,
        writers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_gated_to_loopback_unless_overridden() {
        assert!(shutdown_permitted(true, false));
        assert!(shutdown_permitted(true, true));
        assert!(shutdown_permitted(false, true));
        assert!(!shutdown_permitted(false, false));
    }
}

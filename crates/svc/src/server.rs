//! The shard server: per-line dispatch into the worker pool, a writer
//! thread per connection, and graceful drain. Accepting, framing and the
//! control gate are the connection front it shares with the router.
//!
//! ### Threading model
//! One accept thread; per connection, one thread that frames NDJSON
//! lines, answers control ops inline and admits work ops to the bounded
//! queue, plus the writer thread it owns (serializes responses from an
//! `mpsc` channel, so workers never block on a slow client socket); a
//! fixed pool of worker threads executing [`crate::handlers`]. Responses
//! carry the request's `id`, so pipelined completions may arrive out of
//! order.
//!
//! ### Backpressure
//! Admission is non-blocking: when the queue is full the connection
//! answers `status = "rejected"` with a `retry_after_ms` hint instead of
//! queueing unboundedly. Every framed request, an over-long line
//! included, is answered exactly once, so after a drain
//! `received == completed + rejected`, which the integration tests check.
//!
//! ### Graceful drain
//! A `shutdown` op (or [`ServerHandle::shutdown`]) stops the accept loop,
//! closes admission (late work ops are rejected as `"draining"`), lets
//! workers finish the backlog, flushes the `obs` sink, and leaves the
//! final counter snapshot to [`ServerHandle::join`].

use crate::cache::SolverCache;
use crate::front::{self, Accepting, Tier};
use crate::handlers::{self, JobOp, Request, RequestKind};
use crate::jobs::{self, JobSpec};
use crate::pool::{Job, ServiceCtx, WorkerPool};
use crate::quant;
use crate::queue::{BoundedQueue, PushError};
use crate::stats::{Endpoint, StatsRegistry, LATENCY_SAMPLE_CAP};
use crate::telemetry::PromText;
use minijson::Value;
use obs::Histogram;
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Solver-cache shard count.
const CACHE_SHARDS: usize = 16;
/// Entries per solver-cache shard.
const CACHE_CAPACITY_PER_SHARD: usize = 512;

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
            quantum: quant::DEFAULT_QUANTUM,
            cache_ttl_ms: None,
            default_deadline_ms: 2_000,
            retry_after_ms: 25,
            max_conns: front::MAX_CONNS,
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
        front::begin_drain(&self.ctx.draining, self.addr, || {
            obs::event!("svc.drain.begin");
            self.queue.close();
        });
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
                let count = merged.total_count() as f64;
                let summary = merged.summary();
                let mean = ("mean_us", front::finite(summary.mean));
                (
                    e.name().to_string(),
                    front::latency_json(count, &summary, Some(mean)),
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
            let samples = windowed.sorted_samples().iter();
            let samples = (
                "samples",
                Value::Array(samples.map(|&v| Value::Number(v)).collect()),
            );
            latency.push((
                e.name().to_string(),
                front::latency_json(windowed.total_count() as f64, &summary, Some(samples)),
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

/// Handle one framed request line (`Err` for an over-long one, answered
/// as an error); sends any inline response over `tx`. `control` says
/// whether the peer passed the front's gate for `shutdown`/`reconfigure`.
fn handle_line(
    shared: &Shared,
    line: Result<&str, &str>,
    control: bool,
    tx: &mpsc::Sender<String>,
) {
    let _span = obs::span!("svc.request");
    shared.ctx.stats.on_received();
    let parsed = match line {
        Ok(line) => handlers::parse_request(line, shared.ctx.quantum()),
        Err(message) => {
            obs::count!("svc.rejected.oversize");
            Err((None, message.to_string()))
        }
    };
    let reply = |failed: bool, response: String| {
        shared.ctx.stats.on_completed(failed);
        let _ = tx.send(response);
    };
    let Request {
        id,
        deadline_ms,
        trace,
        kind,
    } = match parsed {
        Ok(r) => r,
        Err((id, msg)) => return reply(true, handlers::error_response(id, &msg)),
    };
    let answer = |result: Result<String, String>| match result {
        Ok(body) => reply(false, handlers::ok_response(id, None, &body)),
        Err(msg) => reply(true, handlers::error_response(id, &msg)),
    };
    let reject = |draining: bool| {
        shared.ctx.stats.on_rejected();
        let retry_after_ms = shared.ctx.retry_after_ms;
        let _ = tx.send(handlers::rejected_response(id, retry_after_ms, draining));
    };
    // The shard half of the fleet's trace-conservation ledger: one
    // receive event per traced line framed off a socket, matched against
    // the router's per-attempt events by `dls-trace --fleet`.
    if let Some(t) = trace {
        obs::event!("svc.receive", "trace" => t);
    }
    match kind {
        RequestKind::Health | RequestKind::Stats | RequestKind::Metrics => {
            // Counted before the body is built, so `stats` and `metrics`
            // include the request that asked for them.
            shared.ctx.stats.on_completed(false);
            let body = match kind {
                RequestKind::Health => shared.health_body(),
                RequestKind::Stats => shared.stats_body(),
                _ => shared.metrics_body(),
            };
            let _ = tx.send(handlers::ok_response(id, None, &body));
        }
        RequestKind::Shutdown if control => {
            answer(Ok("{\"state\":\"draining\"}".into()));
            shared.begin_drain();
        }
        RequestKind::Shutdown => answer(Err(
            "shutdown refused: only loopback peers may drain this server \
             (start with --allow-remote-shutdown to override)"
                .into(),
        )),
        // Same gate as `shutdown`: swapping the quantum drops the whole
        // solver cache, which a remote peer must not be able to do to a
        // server that did not opt in.
        RequestKind::Reconfigure { .. } if !control => answer(Err(
            "reconfigure refused: only loopback peers may reconfigure this server \
             (start with --allow-remote-shutdown to override)"
                .into(),
        )),
        RequestKind::Reconfigure { quantum } => {
            let cleared = match quantum {
                Some(q) => {
                    obs::event!("svc.reconfigure");
                    shared.ctx.set_quantum(q)
                }
                None => false,
            };
            let body = Value::Object(vec![
                ("quantum".into(), Value::Number(shared.ctx.quantum())),
                ("cache_cleared".into(), Value::Bool(cleared)),
                (
                    "cache_entries".into(),
                    Value::Number(shared.ctx.cache.len() as f64),
                ),
            ]);
            answer(Ok(body.to_json()));
        }
        RequestKind::Job(op) => match op {
            JobOp::Submit { .. } if shared.ctx.draining.load(Ordering::SeqCst) => reject(true),
            JobOp::Submit {
                chain,
                load,
                rounds,
                comm_startup,
            } => {
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
            JobOp::Status { job_id, .. } => answer(jobs::status_body(&shared.ctx, job_id)),
            JobOp::Cancel { job_id, .. } => answer(jobs::cancel(&shared.ctx, job_id)),
        },
        RequestKind::Work(request) => {
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
            // The queue closes when the drain begins, so this is also
            // where late work is rejected as `draining`.
            match shared.queue.try_push(job) {
                Ok(()) => {}
                Err((_, PushError::Full)) => {
                    obs::count!("svc.rejected.backpressure");
                    reject(false);
                }
                Err((_, PushError::Closed)) => reject(true),
            }
        }
    }
}

/// One connection: frame its lines on this thread while a writer thread
/// it owns sends the responses. Returns once both are done, so joining it
/// waits for every reply to this connection to be written.
fn connection(shared: &Shared, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("dls-conn-writer".into())
            .spawn_scoped(scope, move || writer_loop(write_half, rx))
            .expect("spawn writer");
        let allow_remote = shared.ctx.allow_remote_shutdown;
        // The closure owns `tx`, so it is dropped when framing ends; the
        // writer exits once the workers' and job schedulers' clones are
        // gone too.
        front::frame_lines(
            stream,
            &shared.ctx.draining,
            allow_remote,
            move |line, control| {
                handle_line(shared, line, control, &tx);
                true
            },
        );
    });
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
    front: Accepting,
    pool: WorkerPool,
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
    pub fn join(self) -> crate::stats::StatsSnapshot {
        // Admission closed when the drain began. Each connection stops
        // reading once it notices the drain and returns once its writer
        // has sent every reply: the writer outlives the reply senders
        // that queued work holds, which workers and job schedulers drop
        // as they finish the backlog without being joined first.
        self.front.join();
        // Workers exit once the closed queue is empty.
        self.pool.join();
        // Job schedulers exit once their chain queues are empty.
        self.shared.ctx.jobs.join_schedulers();
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
        CACHE_SHARDS,
        CACHE_CAPACITY_PER_SHARD,
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
    let front = front::spawn_accept(
        listener,
        Tier {
            name: "dls",
            connections: "svc.connections",
            capped: "svc.connections.capped",
            max_conns: config.max_conns.max(1),
            retry_after_ms: config.retry_after_ms,
        },
        Arc::clone(&shared),
        |s| &s.ctx.draining,
        connection,
    );
    Ok(ServerHandle {
        addr,
        shared,
        front,
        pool,
    })
}

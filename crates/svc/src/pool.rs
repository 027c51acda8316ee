//! The fixed-size worker pool: threads popping jobs off the bounded queue,
//! executing handlers, and replying through each connection's writer
//! channel.

use crate::cache::SolverCache;
use crate::handlers::{self, WorkRequest};
use crate::queue::BoundedQueue;
use crate::stats::StatsRegistry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared state every worker and connection thread sees.
pub struct ServiceCtx {
    /// Solver cache (shared across workers).
    pub cache: SolverCache,
    /// Counters and latency shards.
    pub stats: StatsRegistry,
    /// True once a drain began: stop admitting, finish in-flight.
    pub draining: AtomicBool,
    /// Deadline applied when a request carries none.
    pub default_deadline: Duration,
    /// Retry hint handed out with backpressure rejections.
    pub retry_after_ms: u64,
    /// Honor `shutdown` (and `reconfigure`) ops from non-loopback peers.
    pub allow_remote_shutdown: bool,
    /// Solver-cache quantization step, stored as `f64` bits so a
    /// `reconfigure` op can swap it while workers run. Read it through
    /// [`ServiceCtx::quantum`]; change it through
    /// [`ServiceCtx::set_quantum`] (which also invalidates the cache).
    pub quantum_bits: AtomicU64,
    /// Per-chain job queues and their scheduler threads
    /// ([`crate::jobs`]).
    pub jobs: crate::jobs::JobRegistry,
}

impl ServiceCtx {
    /// The current quantization step.
    pub fn quantum(&self) -> f64 {
        f64::from_bits(self.quantum_bits.load(Ordering::SeqCst))
    }

    /// Install a new quantization step and drop every cache entry keyed
    /// under the old one. Returns `true` when the cache was cleared — a
    /// stale entry must never answer a request quantized differently.
    pub fn set_quantum(&self, quantum: f64) -> bool {
        self.quantum_bits.store(quantum.to_bits(), Ordering::SeqCst);
        self.cache.invalidate_on_quantum_change(quantum)
    }
}

/// One unit of work: a parsed request plus its reply channel.
pub struct Job {
    /// The work to perform.
    pub request: WorkRequest,
    /// Correlation id to echo.
    pub id: Option<i64>,
    /// Deadline measured from `enqueued`.
    pub deadline: Duration,
    /// Admission instant.
    pub enqueued: Instant,
    /// Cross-hop trace id, tagged onto every span/event this job emits.
    pub trace: Option<u64>,
    /// The owning connection's writer channel.
    pub reply: mpsc::Sender<String>,
}

/// Execute one job to its response string, updating stats. Split from the
/// thread loop so tests can drive it synchronously.
pub fn execute(worker: usize, ctx: &ServiceCtx, job: &Job) -> String {
    let endpoint = job.request.endpoint();
    // The span + queue-wait sample carry the trace id when the request
    // has one; both cost nothing while instrumentation is disabled.
    let _span = obs::span!(
        "svc.execute",
        "trace" => job.trace,
        "op" => endpoint.name(),
        "worker" => worker
    );
    let waited = job.enqueued.elapsed();
    obs::hist!("svc.queue_wait_us", waited.as_secs_f64() * 1e6, "trace" => job.trace);
    if waited > job.deadline {
        ctx.stats.on_timeout();
        ctx.stats.on_completed(false);
        obs::count!("svc.timeout", "trace" => job.trace);
        return handlers::timeout_response(job.id, job.deadline.as_millis() as u64);
    }
    obs::count!("svc.requests");
    let response = match &job.request {
        WorkRequest::Solve(chain) => {
            let (body, hit) = ctx
                .cache
                .get_or_insert(&chain.key, || handlers::solve_body(chain));
            let counter = if hit {
                "svc.cache.hit"
            } else {
                "svc.cache.miss"
            };
            obs::count!(counter, "trace" => job.trace);
            ctx.stats.on_completed(false);
            handlers::ok_response(job.id, Some(hit), &body)
        }
        WorkRequest::FtRun {
            root_rate,
            rates,
            links,
            seed,
            crash,
        } => match handlers::ft_body(*root_rate, rates, links, *seed, *crash) {
            Ok(body) => {
                ctx.stats.on_completed(false);
                handlers::ok_response(job.id, None, &body)
            }
            Err(msg) => {
                ctx.stats.on_completed(true);
                handlers::error_response(job.id, &msg)
            }
        },
    };
    let micros = job.enqueued.elapsed().as_secs_f64() * 1e6;
    ctx.stats.record_latency(worker, endpoint, micros);
    obs::hist!("svc.latency_us", micros, "trace" => job.trace);
    response
}

/// The running pool; join after the queue closes to finish the drain.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `n` workers consuming from `queue`.
    pub fn spawn(n: usize, queue: Arc<BoundedQueue<Job>>, ctx: Arc<ServiceCtx>) -> Self {
        let handles = (0..n.max(1))
            .map(|worker| {
                let queue = Arc::clone(&queue);
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("dls-worker-{worker}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let response = execute(worker, &ctx, &job);
                            // A send failure means the connection is gone;
                            // the request still counts as completed.
                            let _ = job.reply.send(response);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self { handles }
    }

    /// Wait for every worker to finish (the queue must be closed first or
    /// this blocks forever).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }

    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Pools always hold at least one worker.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant;
    use crate::stats::StatsSnapshot;

    fn ctx() -> ServiceCtx {
        ServiceCtx {
            cache: SolverCache::new(4, 64),
            stats: StatsRegistry::new(2),
            draining: AtomicBool::new(false),
            default_deadline: Duration::from_secs(5),
            retry_after_ms: 25,
            allow_remote_shutdown: false,
            quantum_bits: AtomicU64::new(quant::DEFAULT_QUANTUM.to_bits()),
            jobs: crate::jobs::JobRegistry::new(crate::jobs::DEFAULT_MAX_QUEUED_JOBS),
        }
    }

    #[test]
    fn quantum_swap_clears_the_cache() {
        let ctx = ctx();
        let (tx, _rx) = mpsc::channel();
        execute(0, &ctx, &solve_job(tx.clone(), Duration::from_secs(5)));
        assert_eq!(ctx.cache.len(), 1);
        assert!(ctx.set_quantum(1e-6), "a new quantum must clear the cache");
        assert_eq!(ctx.quantum(), 1e-6);
        assert_eq!(ctx.cache.len(), 0);
        let warm = execute(0, &ctx, &solve_job(tx, Duration::from_secs(5)));
        assert!(
            warm.contains("\"cached\":false"),
            "post-invalidation solve must be cold: {warm}"
        );
    }

    fn solve_job(reply: mpsc::Sender<String>, deadline: Duration) -> Job {
        let chain = quant::canonicalize(1.0, &[0.2, 0.1], &[2.0, 0.5], 1e-9).unwrap();
        Job {
            request: WorkRequest::Solve(chain),
            id: Some(1),
            deadline,
            enqueued: Instant::now(),
            trace: None,
            reply,
        }
    }

    #[test]
    fn execute_solve_hits_cache_second_time() {
        let ctx = ctx();
        let (tx, _rx) = mpsc::channel();
        let cold = execute(0, &ctx, &solve_job(tx.clone(), Duration::from_secs(5)));
        let warm = execute(1, &ctx, &solve_job(tx, Duration::from_secs(5)));
        assert!(cold.contains("\"cached\":false"));
        assert!(warm.contains("\"cached\":true"));
        let strip = |s: &str| {
            s.replace("\"cached\":true", "")
                .replace("\"cached\":false", "")
        };
        assert_eq!(strip(&cold), strip(&warm), "hit must be bit-identical");
        assert_eq!(ctx.cache.hits(), 1);
        assert_eq!(ctx.stats.snapshot().completed, 2);
    }

    #[test]
    fn expired_deadline_yields_timeout() {
        let ctx = ctx();
        let (tx, _rx) = mpsc::channel();
        let job = solve_job(tx, Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        let resp = execute(0, &ctx, &job);
        assert!(resp.contains("\"status\":\"timeout\""));
        let s: StatsSnapshot = ctx.stats.snapshot();
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.completed, 1);
    }

    #[test]
    fn pool_drains_queue_then_exits() {
        let ctx = Arc::new(ctx());
        let queue = Arc::new(BoundedQueue::new(32));
        let pool = WorkerPool::spawn(3, Arc::clone(&queue), Arc::clone(&ctx));
        let (tx, rx) = mpsc::channel();
        let push = || {
            queue
                .try_push(solve_job(tx.clone(), Duration::from_secs(5)))
                .map_err(|_| ())
                .unwrap()
        };
        // The cache has no single-flight: concurrent workers could all miss
        // the same key. The first reply is sent after its insert lands, so
        // the other nine are hits.
        push();
        let mut replies = vec![rx.recv().unwrap()];
        for _ in 0..9 {
            push();
        }
        drop(tx);
        queue.close();
        pool.join();
        replies.extend(rx.iter());
        assert_eq!(replies.len(), 10);
        assert_eq!(ctx.stats.snapshot().completed, 10);
        assert_eq!(ctx.cache.misses(), 1);
        assert_eq!(ctx.cache.hits(), 9);
    }
}

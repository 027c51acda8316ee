//! Online multi-job scheduling per canonical chain.
//!
//! Each canonical chain ([`crate::quant::ChainKey`]) owns a job queue into
//! which `submit_job` ops enqueue divisible loads. A per-chain scheduler
//! thread drains the queue in batches and composes
//! [`dlt::multiround`] installments across successive jobs — round `k` of
//! job `j+1` ships while the tail installments of job `j` are still
//! computing ([`dlt::multiround::compose`]).
//!
//! ### The pipelining rule
//! A job submitted without an explicit `rounds` is *auto*: the scheduler
//! composes the batch twice — once with the chain's best round count
//! `k* = best_rounds(net, comm_startup, 16)` per auto job and once with
//! single-installment (`k = 1`) auto jobs — and keeps whichever batch
//! finishes first. The `k = 1` composition is the sequential timeline with
//! the inter-job barrier removed, so the served batch never finishes later
//! than running every job as an independent one-shot solve; `k*` captures
//! the multiround ramp-up savings whenever they are real. Jobs with an
//! explicit `rounds` are honored as-is in both candidates.
//!
//! ### Payment carry-over
//! Every installment posts its per-processor assigned/actual loads into a
//! [`mechanism::JobLedger`]; the job settles once, at completion, via
//! `JobLedger::finalize` — one ledger entry per job, reproducing the
//! one-shot settlement of the whole load (settlement is linear in load).
//!
//! ### Frozen single-job guarantee
//! A batch of exactly one *plain* job (`load = 1`, no explicit `rounds`,
//! no `comm_startup`) is served through the solver cache exactly like the
//! `solve` op — `cache.get_or_insert(key, solve_body)` wrapped by
//! [`crate::handlers::ok_response`] — so its response bytes are
//! bit-identical to today's `solve` (diff-checked by E28 and CI).

use crate::handlers;
use crate::pool::ServiceCtx;
use crate::quant::{CanonicalChain, ChainKey};
use crate::stats::Endpoint;
use dlt::model::LinearNetwork;
use dlt::multiround::{self, MultiRoundConfig, PipelinedJob};
use mechanism::{JobLedger, PaymentInputs};
use minijson::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Round-count ceiling for the auto (`rounds` unspecified) sweep.
pub const MAX_AUTO_ROUNDS: usize = 16;

/// Most jobs a server holds queued across all chains before submits are
/// rejected with backpressure.
pub const DEFAULT_MAX_QUEUED_JOBS: usize = 1024;

/// Bounded retention of finished job records for `job_status`.
const MAX_RECORDS: usize = 4096;

/// Bounded retention of idle per-chain queue entries (per-chain completed
/// counters are dropped for the oldest idle chains past this).
const MAX_IDLE_CHAINS: usize = 1024;

/// One submitted divisible load.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The canonical chain whose queue this job joins.
    pub chain: CanonicalChain,
    /// Total load, in units of the chain's unit workload.
    pub load: f64,
    /// Explicit installment count; `None` lets the pipelining rule choose.
    pub rounds: Option<usize>,
    /// Per-installment communication startup.
    pub comm_startup: f64,
}

impl JobSpec {
    /// A *plain* job is today's `solve` in job clothing: unit load, no
    /// startup, no explicit multi-installment request. A batch holding
    /// exactly one plain job takes the frozen cached-solve path.
    pub fn is_plain(&self) -> bool {
        self.load == 1.0 && self.comm_startup == 0.0 && matches!(self.rounds, None | Some(1))
    }
}

/// Lifecycle states reported by `job_status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    Rejected,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Rejected => "rejected",
        }
    }
}

struct JobRecord {
    state: JobState,
    key: ChainKey,
    /// Composed finish time, once done (absent for the frozen solve path).
    finish: Option<f64>,
    rounds: Option<usize>,
}

struct PendingJob {
    id: u64,
    spec: JobSpec,
    req_id: Option<i64>,
    trace: Option<u64>,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

struct ChainEntry {
    queue: VecDeque<PendingJob>,
    /// A scheduler thread currently owns this chain's queue.
    active: bool,
    completed: u64,
}

impl ChainEntry {
    fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            active: false,
            completed: 0,
        }
    }
}

struct Inner {
    chains: HashMap<ChainKey, ChainEntry>,
    records: BTreeMap<u64, JobRecord>,
    queued_total: usize,
    schedulers: Vec<JoinHandle<()>>,
}

/// Job ids are process-unique (not per-registry): an in-process fleet of
/// shards shares one trace sink, and `dls-trace` joins `job.*` lifecycle
/// events by id, so two shards must never mint the same one.
static NEXT_JOB_ID: AtomicU64 = AtomicU64::new(1);

/// The per-server job queue registry: one entry per canonical chain, a
/// bounded record map for `job_status`, and the scheduler thread handles.
pub struct JobRegistry {
    inner: Mutex<Inner>,
    max_queued: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    active_installments: AtomicU64,
}

impl JobRegistry {
    /// An empty registry admitting at most `max_queued` queued jobs.
    pub fn new(max_queued: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                chains: HashMap::new(),
                records: BTreeMap::new(),
                queued_total: 0,
                schedulers: Vec::new(),
            }),
            max_queued: max_queued.max(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            active_installments: AtomicU64::new(0),
        }
    }

    /// Submit attempts (admitted + rejected): the conservation ledger's
    /// left-hand side, `submitted == completed + cancelled + rejected`
    /// after a drain.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Jobs completed (frozen-solve or composed path).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Jobs cancelled while queued.
    pub fn cancelled(&self) -> u64 {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Submits refused with backpressure.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Installments currently being composed/settled across all chains.
    pub fn active_installments(&self) -> u64 {
        self.active_installments.load(Ordering::Relaxed)
    }

    /// Jobs currently queued across all chains.
    pub fn queued(&self) -> u64 {
        self.inner.lock().unwrap().queued_total as u64
    }

    /// Per-chain queue rows `(tag, depth, completed)`, sorted by tag for a
    /// deterministic stats body.
    pub fn chain_rows(&self) -> Vec<(String, usize, u64)> {
        let inner = self.inner.lock().unwrap();
        let mut rows: Vec<(String, usize, u64)> = inner
            .chains
            .iter()
            .map(|(key, entry)| (chain_tag(key), entry.queue.len(), entry.completed))
            .collect();
        rows.sort();
        rows
    }

    /// Join every scheduler thread. Call after admission stopped (drain):
    /// each thread exits once its chain's queue is empty. Loops until no
    /// handle remains so a submit that raced the drain is still joined.
    pub fn join_schedulers(&self) {
        loop {
            let handles = std::mem::take(&mut self.inner.lock().unwrap().schedulers);
            if handles.is_empty() {
                return;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

/// Stable per-process, per-fleet chain tag for stats and traces (the same
/// `DefaultHasher`-with-fixed-keys construction the router's rendezvous
/// ranking relies on).
fn chain_tag(key: &ChainKey) -> String {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    format!("m{}:{:016x}", key.m, h.finish())
}

fn record_insert(inner: &mut Inner, id: u64, record: JobRecord) {
    inner.records.insert(id, record);
    while inner.records.len() > MAX_RECORDS {
        let oldest = *inner.records.keys().next().expect("non-empty");
        inner.records.remove(&oldest);
    }
}

/// Admit one job: assign an id, enqueue it on its chain, and ensure a
/// scheduler thread owns that chain. Over capacity (or mid-drain) the
/// submit is answered with a backpressure rejection instead. The submit's
/// response is sent by the scheduler at job completion — `solve`-like
/// blocking semantics, one response per framed request.
pub fn submit(
    ctx: &Arc<ServiceCtx>,
    spec: JobSpec,
    req_id: Option<i64>,
    trace: Option<u64>,
    reply: mpsc::Sender<String>,
) {
    let jobs = &ctx.jobs;
    let key = spec.chain.key.clone();
    let mut inner = jobs.inner.lock().unwrap();
    let id = NEXT_JOB_ID.fetch_add(1, Ordering::Relaxed);
    jobs.submitted.fetch_add(1, Ordering::Relaxed);
    obs::event!("job.submit", "job" => id, "m" => key.m, "trace" => trace);
    let draining = ctx.draining.load(Ordering::SeqCst);
    if draining || inner.queued_total >= jobs.max_queued {
        jobs.rejected.fetch_add(1, Ordering::Relaxed);
        obs::event!("job.rejected", "job" => id);
        record_insert(
            &mut inner,
            id,
            JobRecord {
                state: JobState::Rejected,
                key,
                finish: None,
                rounds: spec.rounds,
            },
        );
        ctx.stats.on_rejected();
        let _ = reply.send(handlers::rejected_response(
            req_id,
            ctx.retry_after_ms,
            draining,
        ));
        return;
    }
    record_insert(
        &mut inner,
        id,
        JobRecord {
            state: JobState::Queued,
            key: key.clone(),
            finish: None,
            rounds: spec.rounds,
        },
    );
    inner.queued_total += 1;
    let entry = inner
        .chains
        .entry(key.clone())
        .or_insert_with(ChainEntry::new);
    entry.queue.push_back(PendingJob {
        id,
        spec,
        req_id,
        trace,
        enqueued: Instant::now(),
        reply,
    });
    let spawn_scheduler = !entry.active;
    entry.active = true;
    if spawn_scheduler {
        // Reap threads of chains that already went idle so handles don't
        // accumulate under chain churn.
        inner.schedulers.retain(|h| !h.is_finished());
        let ctx2 = Arc::clone(ctx);
        let handle = std::thread::Builder::new()
            .name(format!("dls-jobs-{}", key.m))
            .spawn(move || scheduler_loop(&ctx2, key))
            .expect("spawn job scheduler thread");
        inner.schedulers.push(handle);
    }
}

/// Cancel a queued job. Only queued jobs are cancellable — a running
/// batch's allocations are already composed and its installments priced.
/// The pending submitter receives an error response (its framed request
/// must be answered exactly once); the cancel caller gets an `ok` body.
pub fn cancel(ctx: &ServiceCtx, job_id: u64) -> Result<String, String> {
    let jobs = &ctx.jobs;
    let mut inner = jobs.inner.lock().unwrap();
    let Some(record) = inner.records.get(&job_id) else {
        return Err(format!("unknown job {job_id}"));
    };
    if record.state != JobState::Queued {
        return Err(format!(
            "job {job_id} is {} and cannot be cancelled",
            record.state.name()
        ));
    }
    let key = record.key.clone();
    let entry = inner
        .chains
        .get_mut(&key)
        .expect("queued job's chain entry exists");
    let pos = entry
        .queue
        .iter()
        .position(|p| p.id == job_id)
        .expect("queued job is in its chain queue");
    let pending = entry.queue.remove(pos).expect("position is valid");
    inner.queued_total -= 1;
    if let Some(rec) = inner.records.get_mut(&job_id) {
        rec.state = JobState::Cancelled;
    }
    jobs.cancelled.fetch_add(1, Ordering::Relaxed);
    obs::event!("job.cancelled", "job" => job_id);
    drop(inner);
    // The submitter's pending request completes with an error.
    ctx.stats.on_completed(true);
    let _ = pending.reply.send(handlers::error_response(
        pending.req_id,
        &format!("job {job_id} cancelled"),
    ));
    Ok(Value::Object(vec![
        ("job_id".into(), Value::Number(job_id as f64)),
        ("state".into(), Value::String("cancelled".into())),
    ])
    .to_json())
}

/// The `job_status` body for one job id.
pub fn status_body(ctx: &ServiceCtx, job_id: u64) -> Result<String, String> {
    let inner = ctx.jobs.inner.lock().unwrap();
    let Some(record) = inner.records.get(&job_id) else {
        return Err(format!("unknown job {job_id}"));
    };
    let depth = inner
        .chains
        .get(&record.key)
        .map(|e| e.queue.len())
        .unwrap_or(0);
    let mut fields = vec![
        ("job_id".into(), Value::Number(job_id as f64)),
        ("state".into(), Value::String(record.state.name().into())),
        ("chain".into(), Value::String(chain_tag(&record.key))),
        ("queue_depth".into(), Value::Number(depth as f64)),
    ];
    if let Some(finish) = record.finish {
        fields.push(("finish".into(), Value::Number(finish)));
    }
    if let Some(rounds) = record.rounds {
        fields.push(("rounds".into(), Value::Number(rounds as f64)));
    }
    Ok(Value::Object(fields).to_json())
}

/// One scheduler thread per active chain: drain the queue in batches,
/// compose each batch, exit when the queue is empty. The empty-queue check
/// and the `active = false` hand-off happen under the registry lock, so a
/// submit racing the exit either sees `active == true` (and this loop
/// takes its job) or spawns a fresh scheduler.
fn scheduler_loop(ctx: &Arc<ServiceCtx>, key: ChainKey) {
    loop {
        let batch: Vec<PendingJob> = {
            let mut inner = ctx.jobs.inner.lock().unwrap();
            let entry = inner
                .chains
                .get_mut(&key)
                .expect("scheduler's chain entry exists");
            if entry.queue.is_empty() {
                entry.active = false;
                // Bound idle chain retention (drop the oldest idle entries
                // once over cap; aggregate counters are unaffected).
                if inner.chains.len() > MAX_IDLE_CHAINS {
                    inner.chains.remove(&key);
                }
                return;
            }
            let batch: Vec<PendingJob> = entry.queue.drain(..).collect();
            inner.queued_total -= batch.len();
            for p in &batch {
                if let Some(rec) = inner.records.get_mut(&p.id) {
                    rec.state = JobState::Running;
                }
            }
            batch
        };
        process_batch(ctx, &batch);
    }
}

fn numbers(xs: impl IntoIterator<Item = f64>) -> Value {
    Value::Array(xs.into_iter().map(Value::Number).collect())
}

/// Mark one job finished: reply, record, meter.
fn finish_job(
    ctx: &ServiceCtx,
    pending: &PendingJob,
    response: String,
    finish: Option<f64>,
    rounds: usize,
) {
    obs::event!("job.done", "job" => pending.id, "trace" => pending.trace);
    {
        let mut inner = ctx.jobs.inner.lock().unwrap();
        if let Some(rec) = inner.records.get_mut(&pending.id) {
            rec.state = JobState::Done;
            rec.finish = finish;
            rec.rounds = Some(rounds);
        }
        if let Some(entry) = inner.chains.get_mut(&pending.spec.chain.key) {
            entry.completed += 1;
        }
    }
    ctx.jobs.completed.fetch_add(1, Ordering::Relaxed);
    ctx.stats.on_completed(false);
    let micros = pending.enqueued.elapsed().as_secs_f64() * 1e6;
    ctx.stats
        .record_latency(pending.id as usize, Endpoint::Job, micros);
    let _ = pending.reply.send(response);
}

/// Compose, settle, and answer one drained batch (all jobs share the
/// chain; queue order is served order).
fn process_batch(ctx: &ServiceCtx, batch: &[PendingJob]) {
    let chain = &batch[0].spec.chain;
    let _span = obs::span!("svc.jobs.batch", "m" => chain.key.m, "jobs" => batch.len());

    // Frozen guarantee: a lone plain job is exactly the `solve` op.
    if batch.len() == 1 && batch[0].spec.is_plain() {
        let p = &batch[0];
        obs::event!("job.installment", "job" => p.id, "round" => 0u64);
        let (body, hit) = ctx
            .cache
            .get_or_insert(&chain.key, || handlers::solve_body(chain));
        let response = handlers::ok_response(p.req_id, Some(hit), &body);
        finish_job(ctx, p, response, None, 1);
        return;
    }

    let m = chain.key.m;
    let mut w = Vec::with_capacity(m + 1);
    w.push(chain.root_rate);
    w.extend_from_slice(&chain.bids);
    let net = LinearNetwork::from_rates(&w, &chain.link_rates);

    // The pipelining rule: auto jobs try the chain's best round count and
    // fall back to single-installment; the faster composition serves.
    // k* is cached per distinct startup value seen in the batch.
    let mut k_star: Vec<(u64, usize)> = Vec::new();
    let mut auto_k = |c: f64| -> usize {
        let bits = c.to_bits();
        if let Some(&(_, k)) = k_star.iter().find(|&&(b, _)| b == bits) {
            return k;
        }
        let k = multiround::best_rounds(&net, c, MAX_AUTO_ROUNDS).0;
        k_star.push((bits, k));
        k
    };
    let mut has_auto = false;
    let starred: Vec<PipelinedJob> = batch
        .iter()
        .map(|p| {
            let k = match p.spec.rounds {
                Some(k) => k,
                None => {
                    has_auto = true;
                    auto_k(p.spec.comm_startup)
                }
            };
            PipelinedJob::new(p.spec.load, MultiRoundConfig::new(k, p.spec.comm_startup))
        })
        .collect();
    let composed_star = multiround::compose(&net, &starred);
    let composed = if has_auto {
        let oneshot: Vec<PipelinedJob> = batch
            .iter()
            .zip(&starred)
            .map(|(p, s)| {
                let k = p.spec.rounds.unwrap_or(1);
                PipelinedJob::new(s.load, MultiRoundConfig::new(k, p.spec.comm_startup))
            })
            .collect();
        let composed_one = multiround::compose(&net, &oneshot);
        if composed_star.makespan <= composed_one.makespan {
            composed_star
        } else {
            composed_one
        }
    } else {
        composed_star
    };
    // Gauge the batch being settled: every installment of the chosen
    // composition is in flight until its job's reply is sent.
    let total_rounds: u64 = composed.jobs.iter().map(|j| j.rounds as u64).sum();
    ctx.jobs
        .active_installments
        .fetch_add(total_rounds, Ordering::Relaxed);

    for (p, job) in batch.iter().zip(&composed.jobs) {
        let load = p.spec.load;
        let share = 1.0 / job.rounds as f64;
        let mut ledger = JobLedger::new(m);
        for r in 0..job.rounds {
            obs::event!("job.installment", "job" => p.id, "round" => r as u64, "trace" => p.trace);
            let postings: Vec<PaymentInputs> = (1..=m)
                .map(|i| {
                    let amount = job.total_alloc.alpha(i) * share * load;
                    PaymentInputs {
                        assigned_load: amount,
                        actual_load: amount,
                        actual_rate: chain.bids[i - 1],
                    }
                })
                .collect();
            ledger.post(&postings);
        }
        let settled = ledger.finalize(&net, load, 0.0);
        let total_payment: f64 = settled.iter().map(|b| b.payment).sum();
        let body = Value::Object(vec![
            ("job_id".into(), Value::Number(p.id as f64)),
            ("m".into(), Value::Number(m as f64)),
            ("load".into(), Value::Number(load)),
            ("rounds".into(), Value::Number(job.rounds as f64)),
            ("batch".into(), Value::Number(batch.len() as f64)),
            ("finish".into(), Value::Number(job.finish)),
            (
                "standalone_makespan".into(),
                Value::Number(job.standalone_makespan),
            ),
            ("batch_makespan".into(), Value::Number(composed.makespan)),
            (
                "sequential_makespan".into(),
                Value::Number(composed.sequential_makespan),
            ),
            (
                "alloc".into(),
                numbers((0..=m).map(|i| job.total_alloc.alpha(i) * load)),
            ),
            (
                "payments".into(),
                numbers(settled.iter().map(|b| b.payment)),
            ),
            (
                "utilities".into(),
                numbers(settled.iter().map(|b| b.utility)),
            ),
            ("total_payment".into(), Value::Number(total_payment)),
        ])
        .to_json();
        let response = handlers::ok_response(p.req_id, None, &body);
        // Retire this job's installments before its reply goes out, so a
        // client that submits, hears back, and reads stats sees the gauge
        // already settled.
        ctx.jobs
            .active_installments
            .fetch_sub(job.rounds as u64, Ordering::Relaxed);
        finish_job(ctx, p, response, Some(job.finish), job.rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant;

    fn chain() -> CanonicalChain {
        quant::canonicalize(1.0, &[0.2, 0.1, 0.7], &[2.0, 0.5, 4.0], 1e-9).unwrap()
    }

    #[test]
    fn plain_spec_detection() {
        let c = chain();
        let plain = JobSpec {
            chain: c.clone(),
            load: 1.0,
            rounds: None,
            comm_startup: 0.0,
        };
        assert!(plain.is_plain());
        assert!(JobSpec {
            rounds: Some(1),
            ..plain.clone()
        }
        .is_plain());
        assert!(!JobSpec {
            load: 2.0,
            ..plain.clone()
        }
        .is_plain());
        assert!(!JobSpec {
            rounds: Some(4),
            ..plain.clone()
        }
        .is_plain());
        assert!(!JobSpec {
            comm_startup: 0.05,
            ..plain
        }
        .is_plain());
    }

    #[test]
    fn chain_tags_are_stable_and_distinct() {
        let a = chain();
        let b = quant::canonicalize(1.0, &[0.2, 0.1, 0.7], &[2.0, 0.5, 4.1], 1e-9).unwrap();
        assert_eq!(chain_tag(&a.key), chain_tag(&a.key));
        assert_ne!(chain_tag(&a.key), chain_tag(&b.key));
        assert!(chain_tag(&a.key).starts_with("m3:"));
    }

    #[test]
    fn registry_counters_start_empty() {
        let reg = JobRegistry::new(8);
        assert_eq!(reg.submitted(), 0);
        assert_eq!(reg.completed(), 0);
        assert_eq!(reg.cancelled(), 0);
        assert_eq!(reg.rejected(), 0);
        assert_eq!(reg.queued(), 0);
        assert_eq!(reg.active_installments(), 0);
        assert!(reg.chain_rows().is_empty());
        reg.join_schedulers();
    }

    fn ctx() -> Arc<ServiceCtx> {
        Arc::new(ServiceCtx {
            cache: crate::cache::SolverCache::new(4, 64),
            stats: crate::stats::StatsRegistry::new(2),
            draining: std::sync::atomic::AtomicBool::new(false),
            default_deadline: std::time::Duration::from_secs(5),
            retry_after_ms: 25,
            allow_remote_shutdown: false,
            quantum_bits: AtomicU64::new(quant::DEFAULT_QUANTUM.to_bits()),
            jobs: JobRegistry::new(8),
        })
    }

    /// Stage a queued job directly — no scheduler thread, so the cancel
    /// path is exercised deterministically (over TCP the scheduler races
    /// the cancel and usually wins).
    fn stage_queued(ctx: &ServiceCtx, reply: mpsc::Sender<String>) -> u64 {
        let c = chain();
        let mut inner = ctx.jobs.inner.lock().unwrap();
        let id = NEXT_JOB_ID.fetch_add(1, Ordering::Relaxed);
        record_insert(
            &mut inner,
            id,
            JobRecord {
                state: JobState::Queued,
                key: c.key.clone(),
                finish: None,
                rounds: None,
            },
        );
        inner.queued_total += 1;
        let entry = inner
            .chains
            .entry(c.key.clone())
            .or_insert_with(ChainEntry::new);
        entry.queue.push_back(PendingJob {
            id,
            spec: JobSpec {
                chain: c,
                load: 2.0,
                rounds: None,
                comm_startup: 0.0,
            },
            req_id: Some(9),
            trace: None,
            enqueued: Instant::now(),
            reply,
        });
        id
    }

    #[test]
    fn cancel_removes_a_queued_job_and_answers_the_submitter() {
        let ctx = ctx();
        let (tx, rx) = mpsc::channel();
        let id = stage_queued(&ctx, tx);

        let body = cancel(&ctx, id).expect("queued job must cancel");
        assert!(body.contains("\"state\":\"cancelled\""), "{body}");
        // The submitter's pending request was answered exactly once, as an
        // error carrying its correlation id.
        let submitter = rx.recv().expect("submitter reply");
        assert!(submitter.contains("\"status\":\"error\""), "{submitter}");
        assert!(submitter.contains("\"id\":9"), "{submitter}");
        assert_eq!(ctx.jobs.cancelled(), 1);
        assert_eq!(ctx.jobs.queued(), 0);
        // Terminal states refuse a second cancel; unknown ids error.
        assert!(cancel(&ctx, id).is_err());
        assert!(cancel(&ctx, 999).is_err());
        // The record survives for status probes.
        let status = status_body(&ctx, id).unwrap();
        assert!(status.contains("\"state\":\"cancelled\""), "{status}");
    }

    #[test]
    fn record_map_stays_bounded() {
        let reg = JobRegistry::new(8);
        let key = chain().key;
        {
            let mut inner = reg.inner.lock().unwrap();
            for id in 0..(MAX_RECORDS as u64 + 100) {
                record_insert(
                    &mut inner,
                    id,
                    JobRecord {
                        state: JobState::Done,
                        key: key.clone(),
                        finish: None,
                        rounds: None,
                    },
                );
            }
            assert_eq!(inner.records.len(), MAX_RECORDS);
            // Oldest ids were evicted first.
            assert!(inner.records.contains_key(&(MAX_RECORDS as u64 + 99)));
            assert!(!inner.records.contains_key(&0));
        }
    }
}

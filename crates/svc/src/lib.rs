//! # `svc` — the online DLS-LBL scheduling service
//!
//! Every other entry point in this workspace is a batch experiment; `svc`
//! is the serving substrate the ROADMAP's north star asks for: a
//! zero-dependency (std-only, like `minijson` and `obs`) TCP server that
//! accepts scheduling requests online, runs the DLS-LBL mechanism, and
//! returns allocations and payments.
//!
//! Wire protocol: newline-delimited JSON over TCP. Ops:
//!
//! | op         | handled by        | response |
//! |------------|-------------------|----------|
//! | `solve`    | worker pool, cached | allocation, payments, utilities, makespan |
//! | `ft_run`   | worker pool       | fault-injected run report (`protocol::ft_runner`) |
//! | `submit_job` | per-chain scheduler ([`jobs`]) | job report at completion (pipelined multiround installments, carry-over settlement) |
//! | `job_status` | inline          | job lifecycle state + chain queue depth |
//! | `cancel_job` | inline          | cancels a still-queued job (submitter gets an error response) |
//! | `health`   | inline            | state, uptime, queue depth |
//! | `stats`    | inline            | counters, cache stats, per-endpoint latency percentiles, job queues |
//! | `metrics`  | inline            | stable JSON + Prometheus text of every counter/histogram |
//! | `shutdown` | inline            | `draining`; begins the graceful drain |
//! | `reconfigure` | inline         | swaps the quantum, invalidating the cache (loopback-gated) |
//!
//! The pieces: [`quant`] canonicalizes requests to quantized chains (the
//! cache identity), [`cache`] is the sharded LRU solver cache, [`queue`]
//! the bounded admission queue, [`pool`] the workers, [`handlers`] the
//! parse/execute layer, [`server`] the shard server with graceful drain,
//! [`client`] a blocking client. `bin/dls-serve` is the binary.
//!
//! The shard server and the [`router`] share one private connection
//! front: the accept loop with its connection cap ([`MAX_CONNS`]), the
//! NDJSON framing loop with its line cap ([`MAX_LINE_BYTES`]), the
//! loopback gate for `shutdown`/`reconfigure`, and the latency object of
//! `stats`/`metrics`. A client past either cap gets one typed rejection
//! line and the connection closes.
//!
//! ### Resilience layer (DESIGN.md §11)
//!
//! On top of the single server sit four cooperating pieces:
//!
//! * [`supervisor`] — spawns a fleet of shard servers (in-process or
//!   child processes), monitors them, and restarts the dead with bounded
//!   exponential backoff.
//! * [`router`] — a front tier speaking the same NDJSON protocol; it
//!   rendezvous-hashes each request's canonical chain key across the live
//!   shards and relays shard bytes verbatim, failing over when a shard
//!   dies. Cache keys are canonical, so failover is correct by
//!   construction: a cold shard re-solves to bit-identical bytes.
//! * [`resilient_client`] — a retrying client with exponential backoff,
//!   seeded jitter, `retry_after_ms` honoring, and a circuit breaker.
//! * [`chaos`] — a seeded fault-injecting TCP proxy (resets, delays,
//!   partial writes, corruption) for deterministic failure drills;
//!   experiment E25 (`exp_serve_chaos`) sweeps it.
//!
//! ### Fleet telemetry (DESIGN.md §12)
//!
//! [`telemetry`] threads an optional per-request trace id through every
//! hop (router accept → failover attempts → shard queue → cache → solve,
//! plus client retries, breaker transitions and supervisor restarts) and
//! renders the `metrics` op's Prometheus text. Experiment E26 (the
//! traced runs of `exp_serve_chaos`) proves tracing never changes
//! response bytes;
//! `dls-trace --fleet` joins the per-process JSONL files by trace id and
//! checks per-request conservation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod client;
mod front;
pub mod handlers;
pub mod jobs;
pub mod pool;
pub mod quant;
pub mod queue;
pub mod resilient_client;
pub mod router;
pub mod server;
pub mod stats;
pub mod supervisor;
pub mod telemetry;

pub use cache::SolverCache;
pub use chaos::{ChaosConfig, ChaosProxy, FaultKind};
pub use client::{Client, ClientConfig};
pub use front::{MAX_CONNS, MAX_LINE_BYTES};
pub use jobs::{JobRegistry, JobSpec};
pub use quant::{canonicalize, CanonicalChain, ChainKey, DEFAULT_QUANTUM, MAX_TICKS};
pub use queue::{BoundedQueue, PushError};
pub use resilient_client::{CallError, CallOutcome, ResilientClient, RetryPolicy};
pub use router::{Router, RouterConfig, RouterHandle, ShardDirectory};
pub use server::{serve, ServerConfig, ServerHandle};
pub use stats::{Endpoint, StatsRegistry, StatsSnapshot, LATENCY_SAMPLE_CAP};
pub use supervisor::{ShardRuntime, Supervisor, SupervisorConfig};

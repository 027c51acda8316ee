//! E28 — online multi-job scheduling per chain: pipelined multiround
//! composition, truthful payment carry-over, and the frozen single-job
//! byte guarantee.
//!
//! Four claims, measured:
//!
//! 1. **Pipelined ≤ sequential.** Over a grid of chain sizes, batch
//!    lengths, and per-installment startup costs, the composed batch
//!    ([`dlt::multiround::compose_best`]) never finishes later than
//!    running every job as an independent one-shot solve — on *every*
//!    grid point, not on average. Strict wins are tallied (they come from
//!    `k* > 1` shifting load off the root and from the removed inter-job
//!    barrier).
//! 2. **Jobs-mode strategyproofness.** An E2-style bid sweep through the
//!    exact [`mechanism::JobLedger`] carry-over path the serving
//!    scheduler uses: across misreport factors, batch shapes, and round
//!    counts, zero profitable misreports.
//! 3. **Frozen single-job bytes.** A fresh server answering one plain
//!    `submit_job` (unit load, no rounds hint, no startup) produces bytes
//!    bit-identical to a fresh server answering `solve` for the same
//!    chain; both transcripts are written for CI to diff
//!    (`results/e28_single_job_solve.txt` / `_jobs.txt`).
//! 4. **Serving ledger.** A seeded `job_mix` driven over loopback TCP
//!    completes with `submitted == completed + cancelled + rejected` and
//!    every composed report obeying `batch ≤ sequential`.
//!
//! Writes `results/exp_multi_job.txt` and `.json`. Environment overrides:
//! `DLS_E28_SEEDS` (chains per grid cell), `DLS_E28_MAX_ROUNDS` (auto
//! round-count ceiling), `DLS_E28_MIX` (jobs in the served mix),
//! `DLS_E28_SWEEP_SEEDS` (chains per strategyproofness cell).
//!
//! ```sh
//! cargo run --release -p bench --bin exp_multi_job
//! ```

use bench::{env_or, JsonReport, Table};
use dlt::model::LinearNetwork;
use dlt::multiround;
use mechanism::payment::jobs_batch_utility;
use minijson::Value;
use svc::{serve, Client, ServerConfig};
use workloads::requests::{self, JobMixConfig};
use workloads::ChainConfig;

/// Deterministic batch loads: mixed sizes, no RNG needed.
fn batch_loads(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + 0.45 * (i % 4) as f64).collect()
}

fn main() {
    if let Some(path) = obs::init_from_env() {
        eprintln!("tracing to {path} (DLS_TRACE)");
    }
    println!("E28: multi-job queues — pipelined composition, carry-over settlement, frozen bytes");
    println!();
    let mut mirror = JsonReport::new("exp_multi_job");
    let mut txt = String::new();
    std::fs::create_dir_all("results").expect("create results/");

    // ── 1. Pipelined vs sequential over the grid ────────────────────────
    let seeds = env_or("DLS_E28_SEEDS", 5u64);
    let max_rounds = env_or("DLS_E28_MAX_ROUNDS", 16usize);
    let mut t = Table::new(&[
        "m",
        "jobs",
        "startup",
        "pipelined (mean)",
        "sequential (mean)",
        "saving",
        "strict wins",
    ]);
    let mut grid_points = 0usize;
    let mut strict_wins_total = 0usize;
    let mut worst_excess = f64::NEG_INFINITY;
    for &m in &[3usize, 8, 16] {
        for &jobs in &[2usize, 4, 8] {
            for &startup in &[0.0f64, 0.05, 0.2] {
                let (mut pipe_sum, mut seq_sum) = (0.0f64, 0.0f64);
                let mut strict = 0usize;
                for seed in 0..seeds {
                    let cfg = ChainConfig {
                        processors: m,
                        ..ChainConfig::default()
                    };
                    let net = workloads::chain(&cfg, 0xE28 ^ seed);
                    let loads = batch_loads(jobs);
                    let best = multiround::compose_best(&net, &loads, startup, max_rounds);
                    grid_points += 1;
                    worst_excess = worst_excess.max(best.makespan - best.sequential_makespan);
                    assert!(
                        best.makespan <= best.sequential_makespan + 1e-9,
                        "pipelined {} > sequential {} at m={m} jobs={jobs} startup={startup} seed={seed}",
                        best.makespan,
                        best.sequential_makespan
                    );
                    if best.makespan < best.sequential_makespan - 1e-9 {
                        strict += 1;
                    }
                    pipe_sum += best.makespan;
                    seq_sum += best.sequential_makespan;
                }
                strict_wins_total += strict;
                let saving = 1.0 - pipe_sum / seq_sum;
                t.row(vec![
                    m.to_string(),
                    jobs.to_string(),
                    format!("{startup}"),
                    format!("{:.4}", pipe_sum / seeds as f64),
                    format!("{:.4}", seq_sum / seeds as f64),
                    format!("{:.1}%", saving * 100.0),
                    format!("{strict}/{seeds}"),
                ]);
            }
        }
    }
    t.print();
    txt.push_str(&t.render());
    let line = format!(
        "grid: {grid_points} points, pipelined ≤ sequential everywhere \
         (worst excess {worst_excess:.2e}), {strict_wins_total} strict wins"
    );
    println!("{line}");
    println!();
    txt.push_str(&line);
    txt.push('\n');
    mirror.table("grid", &t);
    mirror.scalar("grid_points", grid_points as f64);
    mirror.scalar("grid_strict_wins", strict_wins_total as f64);
    mirror.scalar("grid_worst_excess", worst_excess);

    // ── 2. Jobs-mode strategyproofness (E2-style bid sweep) ─────────────
    let sweep_seeds = env_or("DLS_E28_SWEEP_SEEDS", 3u64);
    let factors: Vec<f64> = vec![0.25, 0.5, 0.8, 0.9, 0.95, 1.05, 1.1, 1.25, 2.0, 4.0];
    let loads = batch_loads(5);
    let mut sweeps = 0usize;
    let mut profitable = 0usize;
    let mut worst_gain = f64::NEG_INFINITY;
    for &m in &[3usize, 8] {
        for seed in 0..sweep_seeds {
            let cfg = ChainConfig {
                processors: m,
                ..ChainConfig::default()
            };
            let truth = workloads::chain(&cfg, 0x5EED ^ seed);
            let w: Vec<f64> = (0..truth.len()).map(|i| truth.w(i)).collect();
            for j in 1..truth.len() {
                for &rounds in &[1usize, 4] {
                    let honest = jobs_batch_utility(&truth, j, truth.w(j), &loads, rounds);
                    for &f in &factors {
                        if (f - 1.0).abs() < 1e-12 {
                            continue;
                        }
                        let mut lied = w.clone();
                        lied[j] = truth.w(j) * f;
                        let misreport = LinearNetwork::from_rates(&lied, &truth.rates_z());
                        let u = jobs_batch_utility(&misreport, j, truth.w(j), &loads, rounds);
                        sweeps += 1;
                        worst_gain = worst_gain.max(u - honest);
                        if u > honest + 1e-9 {
                            profitable += 1;
                        }
                    }
                }
            }
        }
    }
    let line = format!(
        "strategyproofness: {sweeps} misreports swept through the job ledger, \
         {profitable} profitable (max gain {worst_gain:.2e})"
    );
    println!("{line}");
    println!();
    txt.push_str(&line);
    txt.push('\n');
    assert_eq!(
        profitable, 0,
        "a misreport profited through the jobs carry-over path"
    );
    mirror.scalar("sweep_misreports", sweeps as f64);
    mirror.scalar("sweep_profitable", profitable as f64);
    mirror.scalar("sweep_max_gain", worst_gain);

    // ── 3. Frozen single-job bytes: submit_job(plain) == solve ──────────
    let links = [0.2, 0.1, 0.7];
    let bids = [2.0, 0.5, 4.0];
    let solve_srv = serve(ServerConfig::default()).expect("start solve server");
    let jobs_srv = serve(ServerConfig::default()).expect("start jobs server");
    let mut via_solve = Client::connect(solve_srv.addr()).expect("connect");
    let mut via_jobs = Client::connect(jobs_srv.addr()).expect("connect");
    let solve_bytes = via_solve
        .call_raw(&requests::solve_line(1, 1.0, &links, &bids))
        .expect("solve");
    let job_bytes = via_jobs
        .call_raw(&requests::job_line(1, 1.0, &links, &bids, 1.0, None, 0.0))
        .expect("submit_job");
    std::fs::write("results/e28_single_job_solve.txt", &solve_bytes)
        .expect("write solve transcript");
    std::fs::write("results/e28_single_job_jobs.txt", &job_bytes).expect("write jobs transcript");
    assert_eq!(
        solve_bytes, job_bytes,
        "single plain job must be byte-identical to solve"
    );
    solve_srv.shutdown();
    jobs_srv.shutdown();
    drop(via_solve);
    drop(via_jobs);
    assert!(solve_srv.join().conserved());
    assert!(jobs_srv.join().conserved());
    let line = format!(
        "frozen bytes: single plain job == solve ({} bytes, transcripts in results/) ✓",
        solve_bytes.len()
    );
    println!("{line}");
    println!();
    txt.push_str(&line);
    txt.push('\n');
    mirror.scalar("single_job_bytes_identical", 1.0);

    // ── 4. Served job mix: conservation + per-report pipelining bound ───
    let mix = JobMixConfig {
        total: env_or("DLS_E28_MIX", 128usize),
        distinct_chains: 6,
        processors: 5,
        comm_startup: 0.02,
        ..JobMixConfig::default()
    };
    let lines = requests::job_lines_indexed(&mix);
    let handle = serve(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut c = Client::connect(handle.addr()).expect("connect");
    for (line, _) in &lines {
        c.send(line).expect("send");
    }
    c.flush().expect("flush");
    let (mut ok, mut rejected, mut composed_reports, mut bound_violations) = (0usize, 0, 0, 0);
    for _ in 0..lines.len() {
        let v = c.recv().expect("recv");
        match v.get("status").and_then(Value::as_str) {
            Some("ok") => {
                ok += 1;
                let r = v.get("result").expect("ok body");
                if let (Some(batch), Some(seq)) = (
                    r.get("batch_makespan").and_then(Value::as_f64),
                    r.get("sequential_makespan").and_then(Value::as_f64),
                ) {
                    composed_reports += 1;
                    if batch > seq + 1e-9 {
                        bound_violations += 1;
                    }
                }
            }
            Some("rejected") => rejected += 1,
            other => panic!("unexpected status {other:?}: {v:?}"),
        }
    }
    let stats = c.call(r#"{"op":"stats"}"#).expect("stats");
    let jb = stats.get("result").unwrap().get("jobs").unwrap();
    let get = |k: &str| jb.get(k).and_then(Value::as_u64).unwrap();
    let (submitted, completed, cancelled, jrejected) = (
        get("submitted"),
        get("completed"),
        get("cancelled"),
        get("rejected"),
    );
    handle.shutdown();
    drop(c);
    let snapshot = handle.join();
    assert!(snapshot.conserved(), "drain ledger: {snapshot:?}");
    assert_eq!(submitted, lines.len() as u64);
    assert_eq!(
        submitted,
        completed + cancelled + jrejected,
        "jobs ledger must balance"
    );
    assert_eq!(completed, ok as u64);
    assert_eq!(jrejected, rejected as u64);
    assert_eq!(bound_violations, 0, "a served batch exceeded sequential");
    let line = format!(
        "served mix: {} jobs → {ok} ok ({composed_reports} composed reports, 0 over bound), \
         {rejected} rejected; ledger {submitted} == {completed} + {cancelled} + {jrejected} ✓",
        lines.len()
    );
    println!("{line}");
    println!();
    txt.push_str(&line);
    txt.push('\n');
    mirror.scalar("mix_jobs", lines.len() as f64);
    mirror.scalar("mix_completed", completed as f64);
    mirror.scalar("mix_rejected", jrejected as f64);
    mirror.scalar("mix_composed_reports", composed_reports as f64);

    mirror
        .write("results/exp_multi_job.json")
        .expect("write JSON mirror");
    std::fs::write("results/exp_multi_job.txt", &txt).expect("write E28 txt");
    obs::flush();
    println!(
        "PASS: pipelined ≤ sequential on all {grid_points} grid points; \
         0/{sweeps} profitable misreports; single-job bytes frozen; serving ledger balanced"
    );
}

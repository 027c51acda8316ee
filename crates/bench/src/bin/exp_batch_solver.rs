//! E27 — the batch solver core: bit-identity at scale and amortized
//! throughput.
//!
//! Three claims, measured:
//!
//! 1. **Identity.** Over the full E2 shape grid, every chain solved through
//!    `dlt::batch::solve_many` is bit-identical to the frozen scalar
//!    reference, and every suffix from `solve_all_suffixes` matches the
//!    per-suffix reference. The tally must be 100% — a single differing
//!    bit fails the run.
//! 2. **Batch throughput.** Solving a cohort through the struct-of-arrays
//!    kernel (warm scratch, zero steady-state allocation, lanes that
//!    auto-vectorize across chains) beats a loop of scalar `solve` calls;
//!    the gate requires ≥ `DLS_E27_MIN_SPEEDUP`× (default 2) at the
//!    largest batch size.
//! 3. **Suffix sweep.** One O(m) `solve_all_suffixes` sweep replaces the
//!    O(m²) per-agent suffix loop the payment path used to run; measured
//!    speedup grows with m.
//!
//! Writes `results/exp_batch_solver.txt` and `.json`. Environment
//! overrides: `DLS_E27_TRIALS` (identity seeds per shape cell),
//! `DLS_E27_MAX_BATCH` (largest throughput batch), `DLS_E27_REP_CHAINS`
//! (≈ chains timed per batch size), `DLS_E27_MIN_SPEEDUP` (0 disables the
//! throughput gate — for constrained CI runners).
//!
//! ```sh
//! cargo run --release -p bench --bin exp_batch_solver
//! ```

use bench::{env_or, JsonReport, Table};
use dlt::batch::{self, BatchScratch, BatchSolution};
use dlt::linear::reference;
use std::hint::black_box;
use std::time::Instant;
use workloads::{ChainConfig, ChainShape};

fn main() {
    if let Some(path) = obs::init_from_env() {
        eprintln!("tracing to {path} (DLS_TRACE)");
    }
    println!("E27: batch solver core — bit-identity at scale, amortized throughput");
    println!();
    let mut mirror = JsonReport::new("exp_batch_solver");
    let mut txt = String::new();

    // ── 1. Identity tally over the E2 shape grid ────────────────────────
    let trials = env_or("DLS_E27_TRIALS", 500u64);
    let mut chains_checked = 0usize;
    let mut chains_identical = 0usize;
    let mut suffixes_checked = 0usize;
    let mut suffixes_identical = 0usize;
    for shape in ChainShape::all() {
        for n in [2usize, 8, 32] {
            let cfg = ChainConfig {
                processors: n,
                shape,
                ..Default::default()
            };
            let nets = workloads::chain_population(&cfg, 0..trials);
            let batch = batch::solve_many(&nets);
            for (i, net) in nets.iter().enumerate() {
                chains_checked += 1;
                let want = reference::solve(net);
                if format!("{:?}", batch.solution(i)) == format!("{want:?}") {
                    chains_identical += 1;
                }
                // Suffix sweep identity on a subsample (it is O(m²) to
                // check, so don't replay it for every seed).
                if i % 50 == 0 {
                    let sfx = batch::solve_all_suffixes(net);
                    for j in 0..net.len() {
                        suffixes_checked += 1;
                        let s = reference::solve_suffix(net, j);
                        if format!("{:?}", sfx.solution(j)) == format!("{s:?}")
                            && sfx.equivalent_time(j).to_bits()
                                == reference::equivalent_time(&net.suffix(j)).to_bits()
                        {
                            suffixes_identical += 1;
                        }
                    }
                }
            }
        }
    }
    let line = format!(
        "identity: {chains_identical}/{chains_checked} chains, \
         {suffixes_identical}/{suffixes_checked} suffixes bit-identical to the frozen reference"
    );
    println!("{line}");
    txt.push_str(&line);
    txt.push('\n');
    assert_eq!(
        chains_identical, chains_checked,
        "batch/scalar bit divergence"
    );
    assert_eq!(
        suffixes_identical, suffixes_checked,
        "suffix bit divergence"
    );
    println!();

    // ── 2. Amortized throughput: scalar loop vs batch kernel ────────────
    let max_batch = env_or("DLS_E27_MAX_BATCH", 32_768usize);
    let rep_chains = env_or("DLS_E27_REP_CHAINS", 262_144usize);
    let min_speedup = env_or("DLS_E27_MIN_SPEEDUP", 2.0f64);
    let cfg = ChainConfig {
        processors: 16,
        ..Default::default()
    };
    let mut t = Table::new(&["batch", "scalar Mchains/s", "batch Mchains/s", "speedup"]);
    let mut last_speedup = 0.0f64;
    let mut scratch = BatchScratch::new();
    let mut out = BatchSolution::new();
    for &k in [1usize, 32, 1024, 32_768]
        .iter()
        .filter(|&&k| k <= max_batch)
    {
        let nets = workloads::chain_population(&cfg, 0..k as u64);
        let reps = (rep_chains / k).max(1);
        // Warm both paths (page in the population, size the scratch).
        for net in &nets {
            black_box(dlt::linear::solve(net));
        }
        batch::solve_many_into(&nets, &mut scratch, &mut out);

        let t0 = Instant::now();
        for _ in 0..reps {
            for net in &nets {
                black_box(dlt::linear::solve(net));
            }
        }
        let scalar_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        for _ in 0..reps {
            batch::solve_many_into(&nets, &mut scratch, &mut out);
            black_box(&out);
        }
        let batch_s = t1.elapsed().as_secs_f64();

        let total = (reps * k) as f64;
        let scalar_mcps = total / scalar_s / 1e6;
        let batch_mcps = total / batch_s / 1e6;
        last_speedup = scalar_s / batch_s;
        t.row(vec![
            k.to_string(),
            format!("{scalar_mcps:.2}"),
            format!("{batch_mcps:.2}"),
            format!("{last_speedup:.2}×"),
        ]);
    }
    t.print();
    txt.push_str(&t.render());
    if min_speedup > 0.0 {
        assert!(
            last_speedup >= min_speedup,
            "batch speedup {last_speedup:.2}× below the {min_speedup}× gate at the largest batch"
        );
        println!("(largest batch ≥ {min_speedup}× scalar ✓)");
    }
    println!();
    mirror.table("throughput", &t);

    // ── 3. Suffix sweep: O(m) vs the former O(m²) payment loop ──────────
    let mut t2 = Table::new(&["m", "per-suffix loop µs", "one sweep µs", "speedup"]);
    let mut sweep_speedup_at_max_m = 0.0f64;
    for &m in &[4usize, 16, 64, 256] {
        let cfg = ChainConfig {
            processors: m,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, 7);
        let reps = (20_000 / m).max(4);
        let t0 = Instant::now();
        for _ in 0..reps {
            for i in 0..net.len() {
                black_box(reference::solve_suffix(&net, i));
            }
        }
        let loop_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        for _ in 0..reps {
            black_box(batch::solve_all_suffixes(&net));
        }
        let sweep_s = t1.elapsed().as_secs_f64();
        sweep_speedup_at_max_m = loop_s / sweep_s;
        t2.row(vec![
            m.to_string(),
            format!("{:.2}", loop_s / reps as f64 * 1e6),
            format!("{:.2}", sweep_s / reps as f64 * 1e6),
            format!("{sweep_speedup_at_max_m:.1}×"),
        ]);
    }
    t2.print();
    txt.push_str(&t2.render());
    assert!(
        sweep_speedup_at_max_m > 1.0,
        "the O(m) sweep must beat the O(m²) loop at m = 256"
    );
    println!("(payment counterfactuals: one sweep beats the per-agent loop ✓)");
    println!();

    mirror
        .table("suffix_sweep", &t2)
        .scalar("identity_chains_checked", chains_checked as f64)
        .scalar("identity_chains_identical", chains_identical as f64)
        .scalar("identity_suffixes_checked", suffixes_checked as f64)
        .scalar("identity_suffixes_identical", suffixes_identical as f64)
        .scalar("throughput_speedup_at_max_batch", last_speedup)
        .scalar("suffix_sweep_speedup_at_m256", sweep_speedup_at_max_m);
    mirror
        .write("results/exp_batch_solver.json")
        .expect("write JSON mirror");
    std::fs::write("results/exp_batch_solver.txt", &txt).expect("write E27 txt");
    obs::flush();
    println!("PASS: batch core bit-identical everywhere; amortized throughput confirmed");
}

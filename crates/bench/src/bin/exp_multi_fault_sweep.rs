//! E22 — multi-failure injection: cascading and simultaneous crashes.
//!
//! Sweeps *multi-event* fault plans — simultaneous crash pairs across
//! every phase combination, recovery-during-recovery cascades of
//! increasing depth, and seeded mixed batches — through the
//! fault-tolerant protocol. Every run checks the robustness invariants
//! (unit workload fully recovered, deterministic byte-identical replay,
//! no honest survivor fined), and every plan with at most one halting
//! fault is additionally run through the frozen PR 1 single-failure
//! reference path and must match it byte for byte.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_multi_fault_sweep
//! ```

use bench::{fault_chain, fault_plan, sweep, JsonReport, Table};
use protocol::{run_with_faults, run_with_faults_single, Scenario};
use workloads::{cascade_grid, crash_pair_grid, multi_label, seeded_multi_cases, FaultCase};

fn check_invariants(s: &Scenario, cases: &[FaultCase], tag: &str) -> protocol::FtRunReport {
    let plan = fault_plan(cases);
    let ft = run_with_faults(s, &plan).expect("valid plan");
    assert!(
        ft.load_conserved(1e-9),
        "{tag}: lost load, completed {:?}",
        ft.completed
    );
    assert!(
        ft.makespan >= ft.base_makespan - 1e-12,
        "{tag}: recovery cannot be free"
    );
    for j in 1..=s.num_agents() {
        assert!(ft.fines_paid(j) <= 1e-12, "{tag}: honest P{j} fined");
    }
    let again = run_with_faults(s, &plan).expect("valid plan");
    assert_eq!(ft, again, "{tag}: report not deterministic");
    // Plans that halt at most one node must be byte-identical to the
    // frozen single-failure path they generalize.
    if plan.halting_faults().count() <= 1 {
        let single = run_with_faults_single(s, &plan).expect("valid plan");
        assert_eq!(
            format!("{ft:?}"),
            format!("{single:?}"),
            "{tag}: diverged from the frozen single-failure reference"
        );
    }
    ft
}

fn main() {
    if let Some(path) = obs::init_from_env() {
        eprintln!("tracing to {path} (DLS_TRACE)");
    }
    println!("E22: multi-failure injection — cascading and simultaneous crashes");
    println!();
    let mut mirror = JsonReport::new("exp_multi_fault_sweep");

    // ---- Simultaneous / mixed crash pairs, aggregated per phase pair ----
    const PHASE_PAIRS: [(u8, u8); 5] = [(1, 1), (3, 3), (4, 4), (1, 3), (3, 4)];
    println!("crash pairs: relative makespan overhead (makespan / fault-free − 1)");
    let mut pair_runs = 0usize;
    for m in 3..=6usize {
        let s = fault_chain(m);
        let mut t = Table::new(&["phases", "pairs", "mean overhead", "max overhead"]);
        for &(pa, pb) in &PHASE_PAIRS {
            let grid = crash_pair_grid(m, &[(pa, pb)], 0.5);
            let overheads: Vec<f64> = grid
                .iter()
                .map(|cases| {
                    let tag = format!("m={m} {}", multi_label(cases));
                    let ft = check_invariants(&s, cases, &tag);
                    ft.makespan / ft.base_makespan - 1.0
                })
                .collect();
            pair_runs += grid.len();
            let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
            let max = overheads.iter().cloned().fold(f64::MIN, f64::max);
            t.row(vec![
                format!("ph{pa}+ph{pb}"),
                format!("{}", grid.len()),
                format!("{:+.1}%", 100.0 * mean),
                format!("{:+.1}%", 100.0 * max),
            ]);
        }
        println!("chain of {} nodes (m = {m}):", m + 1);
        t.print();
        println!();
        mirror.table(&format!("crash_pairs_m{m}"), &t);
    }

    // ---- Recovery-during-recovery cascades of increasing depth ----
    let m = 6usize;
    let s = fault_chain(m);
    println!("cascade depth sweep (m = {m}, Phase III crashes stacked from P1):");
    let mut t = Table::new(&[
        "depth",
        "progress",
        "recovered load",
        "splices",
        "rel overhead",
    ]);
    let mut cascade_runs = 0usize;
    let mut prev: Option<(usize, f64)> = None;
    for cases in cascade_grid(m, 4, &[0.25, 0.5, 0.75]) {
        let ft = check_invariants(&s, &cases, &multi_label(&cases));
        cascade_runs += 1;
        let depth = cases.len();
        let overhead = ft.makespan / ft.base_makespan - 1.0;
        t.row(vec![
            format!("{depth}"),
            format!("{:.2}", cases[0].progress),
            format!("{:.4}", ft.recovered_load),
            format!("{}", ft.crashed.len()),
            format!("{:+.1}%", 100.0 * overhead),
        ]);
        if let Some((d, o)) = prev {
            if d == depth {
                assert!(
                    o >= overhead - 1e-12,
                    "later cascades must leave less to recover at depth {depth}"
                );
            }
        }
        prev = Some((depth, overhead));
    }
    t.print();
    mirror.table("cascade_depth", &t);
    println!("overhead decreases in crash progress at every depth (less residual per splice)");
    println!();

    // ---- Seeded mixed multi-failure batches, in parallel ----
    let seeded_runs: usize = (2..=7)
        .map(|m| {
            let s = fault_chain(m);
            let batch = seeded_multi_cases(0xE22, m, 60, 3);
            let results = sweep(0..batch.len() as u64, |i| {
                let cases = &batch[i as usize];
                check_invariants(&s, cases, &format!("m={m} {}", multi_label(cases)));
            });
            results.len()
        })
        .sum();
    println!(
        "invariant sweep: {pair_runs} crash-pair runs + {cascade_runs} cascade runs \
         + {seeded_runs} seeded mixed multi-failure runs"
    );
    println!("  every run: load conserved, deterministic, zero fines on honest survivors");
    println!("  every ≤1-halt plan: byte-identical to the frozen single-failure path");
    println!();
    mirror
        .scalar("crash_pair_runs", pair_runs as f64)
        .scalar("cascade_runs", cascade_runs as f64)
        .scalar("seeded_multi_runs", seeded_runs as f64);
    mirror
        .write("results/exp_multi_fault_sweep.json")
        .expect("write JSON mirror");
    obs::flush();
    println!("PASS: E22 composed chain-splice recovery holds the fault-tolerance invariants");
}

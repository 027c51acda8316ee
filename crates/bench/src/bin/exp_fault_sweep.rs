//! E20 — fault injection: makespan degradation and recovery overhead.
//!
//! Sweeps crash-stop failures over every chain position and phase
//! (3–8-node chains) and over crash *time* (Phase III progress), running
//! the fault-tolerant protocol with chain-splice recovery. Reports the
//! makespan overhead of detection + recovery and checks the robustness
//! invariants on every run: the unit workload is fully recovered, the
//! report is deterministic, and — the fault-tolerant extension of Lemma
//! 5.2 — no honest survivor is ever fined.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_fault_sweep
//! ```

use bench::{fault_chain, fault_plan, sweep, JsonReport, Table};
use protocol::{run_with_faults, FaultPlan, Scenario};
use workloads::{crash_position_grid, crash_time_grid, seeded_cases};

fn check_invariants(s: &Scenario, plan: &FaultPlan, tag: &str) -> protocol::FtRunReport {
    let ft = run_with_faults(s, plan).expect("valid plan");
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
    let again = run_with_faults(s, plan).expect("valid plan");
    assert_eq!(ft, again, "{tag}: report not deterministic");
    ft
}

fn main() {
    if let Some(path) = obs::init_from_env() {
        eprintln!("tracing to {path} (DLS_TRACE)");
    }
    println!("E20: fault injection — makespan degradation and recovery overhead");
    println!();
    let mut mirror = JsonReport::new("exp_fault_sweep");

    // ---- Overhead vs crash position (node × phase), per chain size ----
    println!("crash position sweep: relative makespan overhead (makespan / fault-free − 1)");
    for m in 2..=7usize {
        let s = fault_chain(m);
        let mut t = Table::new(&["node", "phase 1", "phase 2", "phase 3 @0.5", "phase 4"]);
        for node in 1..=m {
            let mut cells = vec![format!("P{node}")];
            for phase in 1..=4u8 {
                let progress = if phase == 3 { 0.5 } else { 0.0 };
                let ft = check_invariants(
                    &s,
                    &FaultPlan::crash(node, phase, progress),
                    &format!("m={m} node={node} phase={phase}"),
                );
                cells.push(format!(
                    "{:+.1}%",
                    100.0 * (ft.makespan / ft.base_makespan - 1.0)
                ));
            }
            t.row(cells);
        }
        println!("chain of {} nodes (m = {m}):", m + 1);
        t.print();
        println!();
        mirror.table(&format!("crash_position_m{m}"), &t);
    }

    // ---- Recovery overhead vs crash time (Phase III progress) ----
    let s = fault_chain(4);
    let node = 2;
    println!("recovery overhead vs crash time (m = 4, crash of P{node} in Phase III):");
    let mut t = Table::new(&["progress", "residual", "abs overhead", "rel overhead"]);
    let mut overheads = Vec::new();
    for case in crash_time_grid(node, 11) {
        let ft = check_invariants(&s, &fault_plan(&[case]), &case.label());
        overheads.push(ft.overhead());
        t.row(vec![
            format!("{:.1}", case.progress),
            format!("{:.4}", ft.recovered_load),
            format!("{:.4}", ft.overhead()),
            format!("{:+.1}%", 100.0 * (ft.makespan / ft.base_makespan - 1.0)),
        ]);
    }
    t.print();
    mirror.table("crash_time", &t);
    assert!(
        overheads.windows(2).all(|p| p[0] >= p[1] - 1e-12),
        "later crashes must leave less to recover: {overheads:?}"
    );
    println!("overhead decreases monotonically in crash progress (less residual to re-solve)");
    println!();

    // ---- Full position grid + mixed seeded faults, in parallel ----
    let grid_runs: usize = (2..=7)
        .map(|m| {
            let s = fault_chain(m);
            let grid = crash_position_grid(m, &[0.0, 0.25, 0.5, 0.75, 1.0]);
            let results = sweep(0..grid.len() as u64, |i| {
                let case = &grid[i as usize];
                check_invariants(&s, &fault_plan(std::slice::from_ref(case)), &case.label())
                    .overhead()
            });
            assert_eq!(results.len(), grid.len());
            results.len()
        })
        .sum();
    let mixed_runs: usize = (2..=7)
        .map(|m| {
            let s = fault_chain(m);
            let cases = seeded_cases(0xE20, m, 40);
            let results = sweep(0..cases.len() as u64, |i| {
                let case = &cases[i as usize];
                check_invariants(&s, &fault_plan(std::slice::from_ref(case)), &case.label());
            });
            results.len()
        })
        .sum();
    println!(
        "invariant sweep: {grid_runs} crash-grid runs + {mixed_runs} mixed fault runs \
         (crashes, stalls, drops, delays, corruption)"
    );
    println!("  every run: load conserved, deterministic, zero fines on honest survivors");
    println!();
    mirror
        .scalar("crash_grid_runs", grid_runs as f64)
        .scalar("mixed_fault_runs", mixed_runs as f64);
    mirror
        .write("results/exp_fault_sweep.json")
        .expect("write JSON mirror");
    obs::flush();
    println!("PASS: E20 chain-splice recovery holds the fault-tolerance invariants");
}

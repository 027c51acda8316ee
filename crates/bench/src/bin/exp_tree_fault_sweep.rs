//! E24 — tree-network fault injection: subtree re-attachment recovery.
//!
//! Sweeps the shared `workloads::tree_shape_grid` population (degenerate
//! paths, stars, a balanced binary tree, seeded random trees) × fault
//! grids — every crash position and phase, plus seeded mixed
//! multi-failure batches — through the fault-tolerant tree runner. Every
//! run checks the robustness invariants (unit workload fully recovered,
//! deterministic byte-identical replay, no honest survivor fined), and
//! every degenerate-path run is additionally executed on the frozen
//! linear fault engine and must match it byte for byte — the tree
//! engine's chain-delegation contract, at experiment scale.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_tree_fault_sweep
//! ```

use bench::{fault_plan, sweep, JsonReport, Table};
use dlt::model::TreeNode;
use protocol::{run_tree_with_faults, run_with_faults, FtTreeRunReport, Scenario, TreeScenario};
use workloads::{
    crash_position_grid, multi_label, seeded_multi_cases, tree_shape_grid, FaultCase, TreeFaultCase,
};

fn is_path(node: &TreeNode) -> bool {
    node.children.len() <= 1 && node.children.iter().all(|(_, c)| is_path(c))
}

/// Convert a path-shaped tree scenario to the chain scenario it is.
fn chain_of_path(s: &TreeScenario) -> Scenario {
    let mut links = Vec::new();
    let mut node = &s.shape;
    while let Some((link, child)) = node.children.first() {
        links.push(link.z);
        node = child;
    }
    Scenario::honest(s.shape.processor.w, s.true_rates.clone(), links)
        .with_fine(s.fine)
        .with_seed(s.seed)
}

fn check_invariants(s: &TreeScenario, cases: &[FaultCase], tag: &str) -> FtTreeRunReport {
    let plan = fault_plan(cases);
    let ft = run_tree_with_faults(s, &plan).expect("valid plan");
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
    let again = run_tree_with_faults(s, &plan).expect("valid plan");
    assert_eq!(ft, again, "{tag}: report not deterministic");
    // Degenerate paths must match the frozen linear fault engine byte for
    // byte — the chain-delegation contract.
    if is_path(&s.shape) {
        let lin = run_with_faults(&chain_of_path(s), &plan).expect("valid plan");
        assert_eq!(
            format!("{:?}", ft.ledger),
            format!("{:?}", lin.ledger),
            "{tag}: path ledger diverged from the chain engine"
        );
        assert_eq!(
            format!("{:?}", ft.net_utilities),
            format!("{:?}", lin.net_utilities),
            "{tag}: path payments diverged from the chain engine"
        );
        assert_eq!(ft.makespan, lin.makespan, "{tag}: path makespan diverged");
    }
    ft
}

fn main() {
    if let Some(path) = obs::init_from_env() {
        eprintln!("tracing to {path} (DLS_TRACE)");
    }
    let reduced = std::env::args().any(|a| a == "--reduced");
    println!("E24: tree-network fault injection — subtree re-attachment recovery");
    println!();
    let mut mirror = JsonReport::new("exp_tree_fault_sweep");

    let grid = tree_shape_grid(0xE24);
    let scenario_of =
        |c: &TreeFaultCase| TreeScenario::honest(c.shape.clone(), c.true_rates.clone());

    // ---- Every crash position × phase, per shape ----
    println!("crash positions: relative makespan overhead (makespan / fault-free − 1)");
    let mut t = Table::new(&[
        "shape",
        "m",
        "path?",
        "runs",
        "mean overhead",
        "max overhead",
    ]);
    let mut position_runs = 0usize;
    for case in &grid {
        let s = scenario_of(case);
        let m = case.num_agents();
        let cells = crash_position_grid(m, &[0.0, 0.5, 1.0]);
        let overheads: Vec<f64> = cells
            .iter()
            .map(|c| {
                let tag = format!("{} {}", case.label, c.label());
                let ft = check_invariants(&s, std::slice::from_ref(c), &tag);
                ft.makespan / ft.base_makespan - 1.0
            })
            .collect();
        position_runs += cells.len();
        let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
        let max = overheads.iter().cloned().fold(f64::MIN, f64::max);
        t.row(vec![
            case.label.clone(),
            format!("{m}"),
            format!("{}", is_path(&case.shape)),
            format!("{}", cells.len()),
            format!("{:+.1}%", 100.0 * mean),
            format!("{:+.1}%", 100.0 * max),
        ]);
    }
    t.print();
    mirror.table("crash_positions", &t);
    println!();

    // ---- Internal-node crashes: re-attachment stress ----
    println!("internal-node crashes (pre-distribution): orphaned subtrees re-attach");
    let mut t = Table::new(&["shape", "dead", "survivor load", "rel overhead"]);
    let mut internal_runs = 0usize;
    for case in &grid {
        let s = scenario_of(case);
        for k in 1..=case.num_agents() {
            if !has_children(&s.shape, k) {
                continue;
            }
            let cases = [FaultCase::crash(k, 1, 0.0)];
            let ft = check_invariants(&s, &cases, &format!("{} internal P{k}", case.label));
            internal_runs += 1;
            let survivor_load: f64 = ft.completed.iter().sum::<f64>() - ft.completed[k];
            t.row(vec![
                case.label.clone(),
                format!("P{k}"),
                format!("{:.4}", survivor_load),
                format!("{:+.1}%", 100.0 * (ft.makespan / ft.base_makespan - 1.0)),
            ]);
        }
    }
    t.print();
    mirror.table("internal_crashes", &t);
    println!();

    // ---- Seeded mixed multi-failure batches, in parallel ----
    let batch_size = if reduced { 12 } else { 60 };
    let seeded_runs: usize = grid
        .iter()
        .map(|case| {
            let s = scenario_of(case);
            let m = case.num_agents();
            let batch = seeded_multi_cases(0xE24, m, batch_size, 3);
            let results = sweep(0..batch.len() as u64, |i| {
                let cases = &batch[i as usize];
                check_invariants(&s, cases, &format!("{} {}", case.label, multi_label(cases)));
            });
            results.len()
        })
        .sum();
    println!(
        "invariant sweep: {position_runs} crash-position runs + {internal_runs} internal-node \
         runs + {seeded_runs} seeded mixed multi-failure runs across {} shapes",
        grid.len()
    );
    println!("  every run: load conserved, deterministic, zero fines on honest survivors");
    println!("  every degenerate-path run: byte-identical to the linear fault engine");
    println!();
    mirror
        .scalar("shapes", grid.len() as f64)
        .scalar("crash_position_runs", position_runs as f64)
        .scalar("internal_runs", internal_runs as f64)
        .scalar("seeded_multi_runs", seeded_runs as f64);
    mirror
        .write("results/exp_tree_fault_sweep.json")
        .expect("write JSON mirror");
    obs::flush();
    println!("PASS: E24 subtree re-attachment recovery holds the fault-tolerance invariants");
}

/// Does strategic node `k` (preorder) route a subtree?
fn has_children(shape: &TreeNode, k: usize) -> bool {
    fn walk(node: &TreeNode, idx: &mut usize, k: usize) -> Option<bool> {
        let here = *idx;
        *idx += 1;
        if here == k {
            return Some(!node.children.is_empty());
        }
        for (_, c) in &node.children {
            if let Some(ans) = walk(c, idx, k) {
                return Some(ans);
            }
        }
        None
    }
    walk(shape, &mut 0, k).unwrap_or(false)
}

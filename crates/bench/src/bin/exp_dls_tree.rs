//! E16 (extension) — DLS-T: the tree-network companion mechanism \[9\].
//!
//! Generalizes the DLS-LBL payment to arbitrary trees (parent-equivalent
//! bonus, eqs. 4.9–4.11 with "predecessor" → "parent"). Checks:
//!
//! * on degenerate trees (chains) the generalization coincides with
//!   DLS-LBL **exactly**, both truthful and under deviations;
//! * strategyproofness and voluntary participation hold on random trees
//!   (bid sweeps per node);
//! * the depth-1 instantiation covers the bus companion \[14\].
//!
//! ```sh
//! cargo run --release -p bench --bin exp_dls_tree
//! ```

use bench::{sweep, Table};
use mechanism::dls_tree::TreeMechanism;
use mechanism::{Agent, Conduct, DlsLbl};
use workloads::ChainConfig;

fn main() {
    println!("E16: DLS-T — the tree-network companion mechanism");
    println!();

    // Chain coincidence, truthful and deviant.
    let links = vec![0.25, 0.15, 0.40, 0.10];
    let tree_mech = TreeMechanism::chain(1.0, &links);
    let chain_mech = DlsLbl::new(1.0, links.clone());
    let agents: Vec<Agent> = [1.8, 0.6, 2.5, 1.2]
        .iter()
        .map(|&t| Agent::new(t))
        .collect();
    let t_out = tree_mech.settle_truthful(&agents);
    let c_out = chain_mech.settle_truthful(&agents);
    let mut max_diff = 0.0f64;
    for j in 1..=4 {
        max_diff = max_diff.max((t_out.utility(j) - c_out.utility(j)).abs());
    }
    for factor in [0.5, 2.0] {
        for j in 1..=4 {
            let mut conducts: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
            conducts[j - 1] = Conduct::misreport(agents[j - 1], factor);
            let t = tree_mech.settle(&conducts);
            let c = chain_mech.settle(&conducts, false);
            for k in 1..=4 {
                max_diff = max_diff.max((t.utility(k) - c.utility(k)).abs());
            }
        }
    }
    println!("chain-as-tree vs DLS-LBL: max utility difference = {max_diff:.3e}");
    assert!(max_diff < 1e-12);
    println!();

    // Random trees: strategyproofness + VP sweeps.
    let trials = 200u64;
    let factors = [0.3, 0.5, 0.75, 0.9, 1.0, 1.2, 1.6, 2.5, 5.0];
    let results = sweep(0..trials, |seed| {
        let cfg = ChainConfig {
            processors: 7,
            ..Default::default()
        };
        let shape = workloads::tree(&cfg, 3, seed);
        let n_agents = shape.size() - 1;
        if n_agents == 0 {
            return (0usize, 0usize, f64::INFINITY);
        }
        let mech = TreeMechanism::new(shape);
        // Deterministic true rates per agent.
        let agents: Vec<Agent> = (0..n_agents)
            .map(|i| Agent::new(0.5 + ((seed as usize + i * 7) % 30) as f64 / 10.0))
            .collect();
        let honest = mech.settle_truthful(&agents);
        let mut violations = 0usize;
        for j in 1..=n_agents {
            for &f in &factors {
                let mut conducts: Vec<Conduct> =
                    agents.iter().map(|&a| Conduct::truthful(a)).collect();
                conducts[j - 1] = Conduct::misreport(agents[j - 1], f);
                if mech.settle(&conducts).utility(j) > honest.utility(j) + 1e-9 {
                    violations += 1;
                }
            }
        }
        let min_u = (1..=n_agents)
            .map(|j| honest.utility(j))
            .fold(f64::INFINITY, f64::min);
        (violations, n_agents, min_u)
    });
    let violations: usize = results.iter().map(|r| r.0).sum();
    let total_agents: usize = results.iter().map(|r| r.1).sum();
    let min_u = results.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["random trees".into(), trials.to_string()]);
    t.row(vec![
        "agents × bids tested".into(),
        (total_agents * factors.len()).to_string(),
    ]);
    t.row(vec![
        "strategyproofness violations".into(),
        violations.to_string(),
    ]);
    t.row(vec!["min truthful utility".into(), format!("{min_u:+.3e}")]);
    t.print();
    assert_eq!(violations, 0);
    assert!(min_u >= -1e-9);
    println!();

    // Bus instantiation.
    let bus = TreeMechanism::star(1.0, &[0.3, 0.3, 0.3, 0.3]);
    let bus_agents: Vec<Agent> = [1.5, 0.9, 2.0, 1.2]
        .iter()
        .map(|&t| Agent::new(t))
        .collect();
    let honest = bus.settle_truthful(&bus_agents);
    let mut bus_violations = 0;
    for j in 1..=4 {
        for &f in &factors {
            let mut conducts: Vec<Conduct> =
                bus_agents.iter().map(|&a| Conduct::truthful(a)).collect();
            conducts[j - 1] = Conduct::misreport(bus_agents[j - 1], f);
            if bus.settle(&conducts).utility(j) > honest.utility(j) + 1e-9 {
                bus_violations += 1;
            }
        }
    }
    println!("bus (depth-1 tree, companion [14]): violations = {bus_violations}");
    assert_eq!(bus_violations, 0);
    println!();

    // Full tree protocol: the enforcement layer generalizes too.
    use protocol::tree_runner::{run_tree, TreeScenario};
    let shape = dlt::model::TreeNode::internal(
        1.0,
        vec![
            (
                0.15,
                dlt::model::TreeNode::internal(
                    1.0,
                    vec![
                        (0.05, dlt::model::TreeNode::leaf(1.0)),
                        (0.25, dlt::model::TreeNode::leaf(1.0)),
                    ],
                ),
            ),
            (
                0.30,
                dlt::model::TreeNode::internal(
                    1.0,
                    vec![
                        (0.10, dlt::model::TreeNode::leaf(1.0)),
                        (0.20, dlt::model::TreeNode::leaf(1.0)),
                    ],
                ),
            ),
        ],
    );
    let rates = vec![1.4, 2.2, 0.7, 1.9, 1.1, 3.0];
    let base =
        TreeScenario::honest(shape, rates).with_fine(mechanism::FineSchedule::new(50.0, 1.0));
    let honest = run_tree(&base);
    assert!(honest.clean());
    let mut t2 = Table::new(&["deviation at P1 (internal)", "caught", "ΔU(deviant)"]);
    for d in protocol::Deviation::catalog() {
        let report = run_tree(&base.clone().with_deviation(1, d));
        let caught = if d.is_finable() {
            let hit = report.arbitrations.iter().any(|a| {
                (a.substantiated && a.accused == 1) || (!a.substantiated && a.claimant == 1)
            });
            assert!(hit, "{} escaped in the tree protocol", d.label());
            "yes"
        } else {
            "n/a"
        };
        let delta = report.utility(1) - honest.utility(1);
        assert!(delta <= 1e-9, "{} profited in the tree protocol", d.label());
        t2.row(vec![
            d.label().to_string(),
            caught.into(),
            format!("{delta:+.4}"),
        ]);
    }
    t2.print();
    println!();
    println!("PASS: E16 — the tree generalization (mechanism AND protocol) is strategyproof and collapses to DLS-LBL on chains");
}

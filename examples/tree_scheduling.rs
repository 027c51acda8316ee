//! Tree scheduling: the companion mechanism DLS-T on a two-level
//! department/rack topology, showing equivalent-processor reduction up the
//! tree, strategyproof settlement, and why the service order matters.
//!
//! ```sh
//! cargo run --example tree_scheduling
//! ```

use dls::dlt::model::TreeNode;
use dls::dlt::{seqsearch, tree};
use dls::mechanism::dls_tree::TreeMechanism;
use dls::prelude::*;

fn main() {
    // A data center: the ingest node (root) feeds two racks; each rack
    // switch forwards to its machines. Link rates differ per rack.
    let shape = TreeNode::internal(
        1.0, // the trusted ingest node's own rate
        vec![
            (
                0.30,
                TreeNode::internal(
                    1.0,
                    vec![(0.10, TreeNode::leaf(1.0)), (0.20, TreeNode::leaf(1.0))],
                ),
            ),
            (
                0.12,
                TreeNode::internal(
                    1.0,
                    vec![(0.25, TreeNode::leaf(1.0)), (0.05, TreeNode::leaf(1.0))],
                ),
            ),
        ],
    );
    // True machine speeds (preorder over the canonicalized tree; the
    // mechanism sorts children by ascending link rate, so rack 2 — the
    // faster 0.12 uplink — comes first).
    let agents: Vec<Agent> = [1.4, 2.2, 0.7, 1.9, 1.1, 3.0]
        .iter()
        .map(|&t| Agent::new(t))
        .collect();

    let mech = TreeMechanism::new(shape.clone());
    assert_eq!(mech.num_agents(), agents.len());

    // --- Reduction view ---------------------------------------------------
    let canonical = tree::canonicalize(&shape);
    println!("tree (canonicalized):");
    print_tree(&canonical, 0);
    println!();
    println!();

    // --- Settlement --------------------------------------------------------
    let outcome = mech.settle_truthful(&agents);
    println!("truthful settlement:");
    println!(
        "{:<7} {:>10} {:>10} {:>10}",
        "agent", "assigned", "bonus", "utility"
    );
    for a in &outcome.agents {
        println!(
            "{:<7} {:>10.5} {:>10.5} {:>10.5}",
            format!("P{}", a.agent),
            a.assigned,
            a.bonus,
            a.utility
        );
        assert!(a.utility >= 0.0, "voluntary participation");
    }
    println!(
        "root load: {:.5}   makespan: {:.5}",
        outcome.root_load, outcome.makespan
    );
    println!("(the makespan IS the tree's equivalent processing time under the true rates)");
    println!();

    // --- A machine lies ----------------------------------------------------
    let liar = 2;
    let honest_u = outcome.utility(liar);
    let mut best = f64::NEG_INFINITY;
    for factor in [0.4, 0.7, 1.3, 2.0, 4.0] {
        let mut conducts: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        conducts[liar - 1] = Conduct::misreport(agents[liar - 1], factor);
        best = best.max(mech.settle(&conducts).utility(liar));
    }
    println!(
        "P{liar} tries five misreports: best deviant utility {best:.5} vs truthful {honest_u:.5} (truth wins)"
    );
    assert!(best <= honest_u + 1e-9);
    println!();

    // --- Why the order matters ---------------------------------------------
    let star_view = dls::dlt::model::StarNetwork::from_rates(&[1.0, 0.9, 1.4], &[0.30, 0.12]);
    let search = seqsearch::exhaustive_search(&TreeNode::from_star(&star_view), 2)
        .expect("two subtrees have 2! orders");
    println!(
        "service-order check at the root (2 subtrees): best order {:?}, makespan {:.5} vs worst {:.5}",
        search.best_order.perms[0], search.best_makespan, search.worst_makespan
    );
    println!("the mechanism always serves the faster uplink first (canonical order).");
}

fn print_tree(node: &TreeNode, depth: usize) {
    println!(
        "{}• w={:.2}{}",
        "  ".repeat(depth),
        node.processor.w,
        if depth == 0 { "  (trusted root)" } else { "" }
    );
    for (link, child) in &node.children {
        println!("{}└─ link z={:.2}", "  ".repeat(depth + 1), link.z);
        print_tree(child, depth + 2);
    }
}

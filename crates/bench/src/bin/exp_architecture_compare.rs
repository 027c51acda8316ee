//! E10 — cross-architecture comparison: linear (boundary and interior
//! origination), bus, star, and tree scheduling on matched resources.
//!
//! The paper's §1/§6 situate DLS-LBL in a program covering bus \[14\] and
//! tree \[9\] networks. This experiment quantifies the architectural
//! trade-offs on identical processor/link inventories:
//!
//! * chains pay for depth (store-and-forward hops), stars for the shared
//!   root port;
//! * interior origination dominates boundary origination on the same chain;
//! * the homogeneous chain saturates at the closed-form fixed point
//!   `w̄* = (−z + √(z²+4wz))/2` — adding processors beyond a few has
//!   vanishing value.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_architecture_compare
//! ```

use bench::{sweep, Stats, Table};
use dlt::interior::{self, InteriorNetwork};
use dlt::model::{LinearNetwork, StarNetwork, TreeNode};
use dlt::{closed_form, linear, star, tree};
use workloads::ChainConfig;

fn main() {
    println!("E10: architecture comparison on matched resources");
    println!();

    // --- random inventories -------------------------------------------
    let trials = 1000u64;
    for n in [4usize, 8, 16] {
        let cfg = ChainConfig {
            processors: n,
            ..Default::default()
        };
        let results = sweep(0..trials, |seed| {
            let net = workloads::chain(&cfg, seed);
            let w = net.rates_w();
            let z = net.rates_z();
            let chain_ms = linear::solve(&net).makespan();
            let star_net = StarNetwork::from_rates(&w, &z);
            let star_ms = star::solve(&star_net).makespan;
            let bus_z = z.iter().sum::<f64>() / z.len() as f64;
            let bus_ms = star::solve(&StarNetwork::bus(w[0], &w[1..], bus_z)).makespan;
            let interior_ms = interior::solve(&InteriorNetwork::new(net.clone(), n / 2)).makespan;
            // binary tree over a same-sized random inventory
            let t = workloads::tree(&cfg, 2, seed);
            let tree_ms = tree::equivalent_time(&t);
            (chain_ms, star_ms, bus_ms, interior_ms, tree_ms)
        });
        let col = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| -> Stats {
            Stats::of(&results.iter().map(f).collect::<Vec<_>>())
        };
        let chain = col(|r| r.0);
        let star_s = col(|r| r.1);
        let bus = col(|r| r.2);
        let inter = col(|r| r.3);
        let tr = col(|r| r.4);
        let mut t = Table::new(&["architecture", "mean makespan", "min", "max"]);
        t.row(vec![
            "chain (boundary)".into(),
            format!("{:.4}", chain.mean),
            format!("{:.4}", chain.min),
            format!("{:.4}", chain.max),
        ]);
        t.row(vec![
            "chain (interior)".into(),
            format!("{:.4}", inter.mean),
            format!("{:.4}", inter.min),
            format!("{:.4}", inter.max),
        ]);
        t.row(vec![
            "star".into(),
            format!("{:.4}", star_s.mean),
            format!("{:.4}", star_s.min),
            format!("{:.4}", star_s.max),
        ]);
        t.row(vec![
            "bus (avg z)".into(),
            format!("{:.4}", bus.mean),
            format!("{:.4}", bus.min),
            format!("{:.4}", bus.max),
        ]);
        t.row(vec![
            "binary tree".into(),
            format!("{:.4}", tr.mean),
            format!("{:.4}", tr.min),
            format!("{:.4}", tr.max),
        ]);
        println!("n = {n} processors ({trials} random inventories):");
        t.print();
        // On heterogeneous chains interior origination usually wins (the
        // longest store-and-forward path halves) but is not guaranteed to:
        // the midpoint processor may be the slow one. Report the win rate;
        // the guaranteed dominance on *homogeneous* chains is asserted in
        // `dlt::interior`'s tests.
        let wins = results.iter().filter(|r| r.3 <= r.0 + 1e-9).count();
        println!(
            "interior ≤ boundary: {wins}/{trials} ({:.0}%); mean speedup {:.2}×",
            100.0 * wins as f64 / trials as f64,
            chain.mean / inter.mean
        );
        assert!(
            wins as f64 / trials as f64 > 0.5,
            "interior should usually win"
        );
        println!();
    }

    // --- who wins, where: chain vs star as links slow down -------------
    println!("chain vs star crossover (8 homogeneous processors, w = 1, link rate z sweeps):");
    let mut t = Table::new(&["z", "chain makespan", "star makespan", "winner"]);
    for &z in &[0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0] {
        let w = vec![1.0; 8];
        let zs = vec![z; 7];
        let chain_ms = linear::solve(&LinearNetwork::from_rates(&w, &zs)).makespan();
        let star_ms = star::solve(&StarNetwork::from_rates(&w, &zs)).makespan;
        t.row(vec![
            format!("{z}"),
            format!("{chain_ms:.4}"),
            format!("{star_ms:.4}"),
            if chain_ms < star_ms - 1e-12 {
                "chain"
            } else {
                "star"
            }
            .into(),
        ]);
    }
    t.print();
    println!();

    // --- homogeneous chain saturation (the fixed point) ----------------
    println!("homogeneous chain saturation (w = 1, z = 0.2):");
    let prof = closed_form::saturation_profile(1.0, 0.2, 32);
    let mut t = Table::new(&["n", "w̄(n)", "fixed point", "gap"]);
    for &n in &[1usize, 2, 4, 8, 16, 32] {
        let v = prof.profile[n - 1];
        t.row(vec![
            n.to_string(),
            format!("{v:.6}"),
            format!("{:.6}", prof.fixed_point),
            format!("{:.2e}", v - prof.fixed_point),
        ]);
    }
    t.print();
    assert!(prof.profile[31] - prof.fixed_point < 1e-3);
    println!();

    // --- degenerate-tree sanity: tree solver ≡ chain solver ------------
    let net = workloads::chain(
        &ChainConfig {
            processors: 12,
            ..Default::default()
        },
        7,
    );
    let chain_ms = linear::solve(&net).makespan();
    let tree_ms = tree::equivalent_time(&TreeNode::from_chain(&net));
    assert!((chain_ms - tree_ms).abs() < 1e-10);
    println!(
        "degenerate-tree cross-check: |chain − tree| = {:.2e} ✓",
        (chain_ms - tree_ms).abs()
    );
    println!();
    println!("PASS: E10 architecture comparison complete");
}

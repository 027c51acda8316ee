//! E18 (extension) — service-order sequencing: ascending-link-first is
//! optimal, and the tree mechanism needs it.
//!
//! Verifies the classical single-level-tree sequencing result by
//! exhaustive search over all `m!` orders on random stars (each searched
//! once, as a depth-1 tree through `dlt::seqsearch`), quantifies how
//! much a bad order costs, and demonstrates the incentive consequence
//! uncovered during this reproduction: with an **uncanonicalized** child
//! order, the fixed-order equal-finish solution can *improve* when a
//! child's rate worsens (non-monotonicity), which would let a tree agent
//! profit by overbidding.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_sequencing
//! ```

use bench::{sweep, Stats, Table};
use dlt::model::{StarNetwork, TreeNode};
use dlt::seqsearch::{canonical_order, exhaustive_search, order_makespan};
use dlt::star;
use workloads::ChainConfig;

/// Evaluation budget of the exhaustive search: `9!`, well above the
/// largest star searched here (`7!`).
const ORDER_BUDGET: u64 = 362_880;

/// Makespan of a star served in ascending link-rate order.
fn ascending_makespan(net: &StarNetwork) -> f64 {
    let t = TreeNode::from_star(net);
    order_makespan(&t, &canonical_order(&t))
}

fn main() {
    println!("E18: service-order sequencing on star networks");
    println!();

    // Exhaustive verification on random stars.
    let trials = 500u64;
    for m in [3usize, 5, 7] {
        let results = sweep(0..trials, |seed| {
            let cfg = ChainConfig {
                processors: m + 1,
                ..Default::default()
            };
            let net = workloads::star(&cfg, seed);
            let search = exhaustive_search(&TreeNode::from_star(&net), ORDER_BUDGET)
                .expect("m <= 7 fits the factorial budget");
            let optimal = ascending_makespan(&net) <= search.best_makespan + 1e-9;
            let spread = search.worst_makespan / search.best_makespan;
            (optimal, spread)
        });
        let optimal = results.iter().filter(|r| r.0).count();
        let spreads: Vec<f64> = results.iter().map(|r| r.1).collect();
        let s = Stats::of(&spreads);
        println!(
            "m = {m}: ascending-link order optimal in {optimal}/{trials} stars; worst/best makespan ratio mean {:.3}, max {:.3}",
            s.mean, s.max
        );
        assert_eq!(
            optimal as u64, trials,
            "classical sequencing result violated"
        );
    }
    println!();

    // The non-monotonicity a bad order induces (the violation that broke
    // the uncanonicalized tree mechanism).
    println!("non-monotonicity under a BAD order (slow link served first):");
    // Root w=2.1 serving child A over z=0.66 then child B over z=0.097.
    let mk = |w_a: f64| {
        star::solve(&StarNetwork::from_rates(
            &[2.1, w_a, 0.5],
            &[0.6568, 0.0969],
        ))
        .makespan
    };
    let mut t = Table::new(&[
        "w_A",
        "equal-finish makespan (bad order)",
        "ascending order",
    ]);
    let mut decreased = false;
    let mut prev = f64::NEG_INFINITY;
    for &w_a in &[2.0, 2.4, 2.8, 3.2, 3.6, 4.0] {
        let bad = mk(w_a);
        let net = StarNetwork::from_rates(&[2.1, w_a, 0.5], &[0.6568, 0.0969]);
        let good = ascending_makespan(&net);
        if bad < prev - 1e-12 {
            decreased = true;
        }
        prev = bad;
        t.row(vec![
            format!("{w_a}"),
            format!("{bad:.6}"),
            format!("{good:.6}"),
        ]);
    }
    t.print();
    assert!(
        decreased,
        "the bad order should exhibit the makespan *decreasing* as a child slows down"
    );
    // Ascending order restores monotonicity on this instance.
    let mut prev = f64::NEG_INFINITY;
    for &w_a in &[2.0, 2.4, 2.8, 3.2, 3.6, 4.0] {
        let net = StarNetwork::from_rates(&[2.1, w_a, 0.5], &[0.6568, 0.0969]);
        let good = ascending_makespan(&net);
        assert!(
            good >= prev - 1e-12,
            "ascending order must be monotone in w_A"
        );
        prev = good;
    }
    println!();
    println!(
        "with the slow link served first, slowing child A *reduces* the equal-finish makespan —\n\
         the non-monotonicity that made the uncanonicalized tree mechanism manipulable (E16);\n\
         ascending-link order restores monotonicity."
    );
    println!();
    println!("PASS: E18 — ascending-link sequencing verified optimal; incentive consequence demonstrated");
}

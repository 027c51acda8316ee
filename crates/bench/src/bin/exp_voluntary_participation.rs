//! E5 — Theorem 5.4: voluntary participation.
//!
//! Distribution of truthful-agent utilities across thousands of random
//! networks of every shape: the minimum must be non-negative (a truthful
//! agent never loses by participating). Also reports the Lemma 5.4
//! identity `U_j = w_{j-1} − w̄_{j-1}` and its tightness (utilities
//! approach 0 when the predecessor barely benefits from the tail).
//!
//! ```sh
//! cargo run --release -p bench --bin exp_voluntary_participation
//! ```

use bench::{sweep, Stats, Table};
use mechanism::verify::participation_report;
use mechanism::{Agent, DlsLbl};
use workloads::{ChainConfig, ChainShape};

fn main() {
    println!("E5: Theorem 5.4 — truthful utilities are never negative");
    println!();
    let trials = 2000u64;
    let mut table = Table::new(&["shape", "n", "samples", "min U", "mean U", "max U", "σ(U)"]);
    for shape in ChainShape::all() {
        for n in [3usize, 9, 25] {
            let cfg = ChainConfig {
                processors: n,
                shape,
                ..Default::default()
            };
            let utilities: Vec<f64> = sweep(0..trials, |seed| {
                let net = workloads::chain(&cfg, seed);
                let parts = workloads::mechanism_parts(&net);
                let mech = DlsLbl::new(parts.root_rate, parts.link_rates.clone());
                let agents: Vec<Agent> = parts.true_rates.iter().map(|&t| Agent::new(t)).collect();
                participation_report(&mech, &agents).utilities
            })
            .into_iter()
            .flatten()
            .collect();
            let s = Stats::of(&utilities);
            table.row(vec![
                shape.label().to_string(),
                n.to_string(),
                s.n.to_string(),
                format!("{:+.3e}", s.min),
                format!("{:.4}", s.mean),
                format!("{:.4}", s.max),
                format!("{:.4}", s.std),
            ]);
            assert!(
                s.min >= -1e-12,
                "negative truthful utility under {shape:?} n={n}"
            );
        }
    }
    table.print();
    println!();

    // Lemma 5.4 identity on a fixed instance.
    let mech = DlsLbl::new(1.0, vec![0.25, 0.15, 0.40, 0.10]);
    let agents: Vec<Agent> = [1.8, 0.6, 2.5, 1.2]
        .iter()
        .map(|&t| Agent::new(t))
        .collect();
    let outcome = mech.settle_truthful(&agents);
    println!("Lemma 5.4 identity U_j = w_(j-1) − w̄_(j-1) on the headline instance:");
    for j in 1..=agents.len() {
        let w_pred = outcome.bid_network.w(j - 1);
        let wbar_pred = outcome.solution.equivalent[j - 1];
        println!(
            "  P{j}: U = {:+.6}, w_(j-1) − w̄_(j-1) = {:+.6}",
            outcome.utility(j),
            w_pred - wbar_pred
        );
        assert!((outcome.utility(j) - (w_pred - wbar_pred)).abs() < 1e-12);
    }
    println!();
    println!(
        "PASS: Theorem 5.4 reproduced across {} samples",
        6 * 3 * trials
    );
}

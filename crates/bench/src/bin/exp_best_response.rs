//! E13 (extension) — best-response dynamics: strategyproofness as a
//! dynamical property.
//!
//! From any starting bid profile, agents repeatedly switch to their
//! utility-maximizing bid. Under DLS-LBL the dynamics jump to the truthful
//! profile in one round and stay there; under the naive bid-priced
//! baseline they drift away from the truth. This turns Theorem 5.3 into a
//! market-convergence statement.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_best_response
//! ```

use bench::{sweep, Table};
use mechanism::equilibrium::{best_response_dynamics, BidGame};
use mechanism::naive_baseline::NaiveMechanism;
use mechanism::{Agent, DlsLbl};
use workloads::ChainConfig;

fn grid() -> Vec<f64> {
    let mut g: Vec<f64> = (1..=40).map(|i| 0.05 + i as f64 * 0.075).collect();
    g.push(1.0);
    g
}

fn main() {
    println!("E13: best-response dynamics under DLS-LBL vs the naive baseline");
    println!();

    // Trajectory detail on the headline instance.
    let agents = vec![
        Agent::new(1.8),
        Agent::new(0.6),
        Agent::new(2.5),
        Agent::new(1.2),
    ];
    let links = vec![0.25, 0.15, 0.40, 0.10];
    let dls = DlsLbl::new(1.0, links.clone());
    let naive = NaiveMechanism::new(1.0, links, 1.2);
    let start = vec![3.6, 0.3, 5.0, 0.6]; // everyone starts far from truth

    for (name, traj) in [
        (
            "DLS-LBL",
            best_response_dynamics(&dls, &agents, &start, &grid(), 8),
        ),
        (
            "naive",
            best_response_dynamics(&naive, &agents, &start, &grid(), 8),
        ),
    ] {
        println!(
            "{name}: {} round(s), converged = {}",
            traj.profiles.len() - 1,
            traj.converged
        );
        let mut t = Table::new(&["round", "bid(P1)/t", "bid(P2)/t", "bid(P3)/t", "bid(P4)/t"]);
        for (r, p) in traj.profiles.iter().enumerate() {
            t.row(vec![
                r.to_string(),
                format!("{:.3}", p[0] / agents[0].true_rate),
                format!("{:.3}", p[1] / agents[1].true_rate),
                format!("{:.3}", p[2] / agents[2].true_rate),
                format!("{:.3}", p[3] / agents[3].true_rate),
            ]);
        }
        t.print();
        println!(
            "distance from truth: {:.3e}",
            traj.distance_from_truth(&agents)
        );
        println!();
        if name == "DLS-LBL" {
            assert!(traj.distance_from_truth(&agents) < 1e-9);
        } else {
            assert!(
                traj.distance_from_truth(&agents) > 0.05,
                "baseline should drift"
            );
        }
    }

    // Randomized convergence sweep.
    let trials = 300u64;
    let failures: usize = sweep(0..trials, |seed| {
        let cfg = ChainConfig {
            processors: 4 + (seed % 4) as usize,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, seed);
        let parts = workloads::mechanism_parts(&net);
        let mech = DlsLbl::new(parts.root_rate, parts.link_rates.clone());
        let agents: Vec<Agent> = parts.true_rates.iter().map(|&t| Agent::new(t)).collect();
        // Deterministic pseudo-random start profile.
        let start: Vec<f64> = agents
            .iter()
            .enumerate()
            .map(|(i, a)| a.true_rate * (0.3 + ((seed as usize + i * 13) % 27) as f64 / 10.0))
            .collect();
        let traj = best_response_dynamics(&mech, &agents, &start, &grid(), 8);
        usize::from(!(traj.converged && traj.distance_from_truth(&agents) < 1e-9))
    })
    .into_iter()
    .sum();
    println!("random sweep: {trials} instances, non-convergence to truth: {failures}");
    assert_eq!(failures, 0);

    // Sanity: the BidGame abstraction is object-safe enough for both.
    fn _takes_game<G: BidGame>(_: &G) {}
    _takes_game(&dls);
    _takes_game(&naive);

    println!();
    println!("PASS: E13 — dominant-strategy truthfulness shows up as one-shot convergence");
}

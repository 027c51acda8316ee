//! E4 — Theorem 5.3 / Lemma 5.3: strategyproofness sweeps.
//!
//! For every strategic processor, sweeps its declared rate across a dense
//! grid (others truthful, and also others adversarial) and records the
//! utility curve. The truthful bid must maximize utility; the experiment
//! also prints the contrast with the naive bid-priced baseline, which IS
//! manipulable. Covers terminal and interior processors, under- and
//! over-bids, and slack execution (`w̃ > t`).
//!
//! ```sh
//! cargo run --release -p bench --bin exp_strategyproof_sweep
//! ```

use bench::{sweep, JsonReport, Table};
use mechanism::naive_baseline::NaiveMechanism;
use mechanism::verify::{bid_sweep, default_factor_grid, strategyproofness_report};
use mechanism::{Agent, Conduct, DlsLbl};
use workloads::ChainConfig;

fn main() {
    if let Some(path) = obs::init_from_env() {
        eprintln!("tracing to {path} (DLS_TRACE)");
    }
    println!("E4: Theorem 5.3 — utility vs bid (truth must dominate)");
    println!();
    let mut mirror = JsonReport::new("exp_strategyproof_sweep");

    // Headline instance: the curve for each agent around the truthful bid.
    let mech = DlsLbl::new(1.0, vec![0.25, 0.15, 0.40, 0.10]);
    let agents: Vec<Agent> = [1.8, 0.6, 2.5, 1.2]
        .iter()
        .map(|&t| Agent::new(t))
        .collect();
    let factors = [0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0];
    let mut t = Table::new(&["bid/t", "U(P1)", "U(P2)", "U(P3)", "U(P4 terminal)"]);
    let sweeps = strategyproofness_report(&mech, &agents, &factors);
    for (k, &f) in factors.iter().enumerate() {
        t.row(vec![
            format!("{f:.2}"),
            format!("{:+.5}", sweeps[0].points[k].utility),
            format!("{:+.5}", sweeps[1].points[k].utility),
            format!("{:+.5}", sweeps[2].points[k].utility),
            format!("{:+.5}", sweeps[3].points[k].utility),
        ]);
    }
    t.print();
    mirror.table("utility_vs_bid", &t);
    for s in &sweeps {
        assert!(
            s.truthful_is_best(1e-9),
            "P{} max gain {}",
            s.agent,
            s.max_gain()
        );
    }
    println!("(row 1.00 is the maximum of every column ✓)");
    println!();

    // Slack execution: bidding truth but running slower must also lose.
    let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
    let base = mech.settle(&truthful, false);
    let mut t2 = Table::new(&["agent", "U(full speed)", "U(w̃=1.5t)", "U(w̃=3t)"]);
    for j in 1..=agents.len() {
        let slow = |factor: f64| {
            let mut c = truthful.clone();
            c[j - 1] = Conduct::slack_execution(agents[j - 1], factor);
            mech.settle(&c, false).utility(j)
        };
        let u15 = slow(1.5);
        let u30 = slow(3.0);
        assert!(u15 <= base.utility(j) + 1e-12 && u30 <= u15 + 1e-12);
        t2.row(vec![
            format!("P{j}"),
            format!("{:+.5}", base.utility(j)),
            format!("{u15:+.5}"),
            format!("{u30:+.5}"),
        ]);
    }
    t2.print();
    mirror.table("slack_execution", &t2);
    println!("(slack execution is verified by the meter and priced down ✓)");
    println!();

    // Wide randomized check: thousands of networks, dense grid, others
    // truthful AND others adversarial.
    let trials = 500u64;
    let grid = default_factor_grid();
    let violations: usize = sweep(0..trials, |seed| {
        let cfg = ChainConfig {
            processors: 2 + (seed % 7) as usize + 1,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, seed);
        let parts = workloads::mechanism_parts(&net);
        let mech = DlsLbl::new(parts.root_rate, parts.link_rates.clone());
        let agents: Vec<Agent> = parts.true_rates.iter().map(|&t| Agent::new(t)).collect();
        let mut v = 0usize;
        // others truthful
        for s in strategyproofness_report(&mech, &agents, &grid) {
            if !s.truthful_is_best(1e-9) {
                v += 1;
            }
        }
        // others adversarial (deterministic per-seed misreports)
        let mut adv: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        for (k, c) in adv.iter_mut().enumerate() {
            let f = 0.5 + ((seed as usize + k * 3) % 30) as f64 / 15.0;
            *c = Conduct::misreport(agents[k], f);
        }
        for j in 1..=agents.len() {
            let s = bid_sweep(&mech, &agents, j, &adv, &grid);
            if !s.truthful_is_best(1e-9) {
                v += 1;
            }
        }
        v
    })
    .into_iter()
    .sum();
    println!(
        "random sweep: {trials} networks × all agents × {} bids × 2 rival profiles — violations: {violations}",
        grid.len()
    );
    assert_eq!(violations, 0);
    println!();

    // Contrast: the naive baseline is manipulable.
    let naive = NaiveMechanism::new(1.0, vec![0.25, 0.15, 0.40, 0.10], 1.2);
    let mut manipulable = 0;
    for j in 1..=agents.len() {
        let truthful_u = naive.sweep(&agents, j, &[1.0])[0].1;
        let (bf, bu) = naive.best_factor(&agents, j, &default_factor_grid());
        if bu > truthful_u + 1e-9 {
            manipulable += 1;
            println!(
                "naive baseline: P{j} best bid {bf:.2}×t gains {:+.4} over truth",
                bu - truthful_u
            );
        }
    }
    assert!(manipulable > 0, "baseline should be manipulable somewhere");
    println!();
    mirror
        .scalar("random_trials", trials as f64)
        .scalar("bid_grid_size", grid.len() as f64)
        .scalar("violations", violations as f64)
        .scalar("naive_manipulable_agents", manipulable as f64);
    mirror
        .write("results/exp_strategyproof_sweep.json")
        .expect("write JSON mirror");
    obs::flush();
    println!("PASS: DLS-LBL strategyproof on every instance; naive baseline manipulable");
}

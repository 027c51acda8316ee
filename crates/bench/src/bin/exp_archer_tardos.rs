//! E14 (extension) — Archer–Tardos payments vs DLS-LBL payments.
//!
//! Both schemes are strategyproof over the same chain allocation rule, so
//! this experiment compares the *price of trust architecture*: the
//! tamper-proof Archer–Tardos center pays a rebate integral, the
//! autonomous-node DLS-LBL pays compensation plus the marginal-improvement
//! bonus. It reports per-agent utilities and total mechanism outlay under
//! both, across random networks, and runs the bus instantiation realizing
//! the companion mechanism \[14\].
//!
//! ```sh
//! cargo run --release -p bench --bin exp_archer_tardos
//! ```

use bench::{sweep, Stats, Table};
use mechanism::archer_tardos::{is_monotone, ArcherTardos, ChainRule, StarRule};
use mechanism::{Agent, DlsLbl};
use workloads::ChainConfig;

fn main() {
    println!("E14: Archer–Tardos (tamper-proof) vs DLS-LBL (autonomous-node) payments");
    println!();
    let w_max = 50.0;

    // Headline instance.
    let truth = [1.8f64, 0.6, 2.5, 1.2];
    let links = vec![0.25, 0.15, 0.40, 0.10];
    let at = ArcherTardos::new(
        ChainRule {
            root_rate: 1.0,
            link_rates: links.clone(),
        },
        w_max,
    );
    let dls = DlsLbl::new(1.0, links.clone());
    let agents: Vec<Agent> = truth.iter().map(|&t| Agent::new(t)).collect();
    let lbl = dls.settle_truthful(&agents);
    let mut t = Table::new(&[
        "agent",
        "α_j",
        "U (Archer–Tardos)",
        "U (DLS-LBL)",
        "P (AT)",
        "Q (LBL)",
    ]);
    let mut at_outlay = 0.0;
    for j in 1..=truth.len() {
        let out = at.settle(&truth, j, truth[j - 1]);
        at_outlay += out.payment;
        t.row(vec![
            format!("P{j}"),
            format!("{:.5}", out.load),
            format!("{:+.5}", out.utility),
            format!("{:+.5}", lbl.utility(j)),
            format!("{:.5}", out.payment),
            format!("{:.5}", lbl.agents[j - 1].breakdown.payment),
        ]);
    }
    t.print();
    println!(
        "total outlay: Archer–Tardos {:.5} vs DLS-LBL {:.5}",
        at_outlay,
        lbl.total_payment()
    );
    println!();

    // Random sweep: both strategyproof, utilities non-negative; outlay
    // ratio distribution.
    let trials = 200u64;
    let results = sweep(0..trials, |seed| {
        let cfg = ChainConfig {
            processors: 5,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, seed);
        let parts = workloads::mechanism_parts(&net);
        let rule = ChainRule {
            root_rate: parts.root_rate,
            link_rates: parts.link_rates.clone(),
        };
        // Monotonicity precondition.
        let grid: Vec<f64> = (1..=20).map(|i| i as f64 * 0.5).collect();
        let mono =
            (1..=parts.true_rates.len()).all(|j| is_monotone(&rule, &parts.true_rates, j, &grid));
        let at = ArcherTardos::new(rule, w_max);
        let dls = DlsLbl::new(parts.root_rate, parts.link_rates.clone());
        let agents: Vec<Agent> = parts.true_rates.iter().map(|&t| Agent::new(t)).collect();
        let lbl = dls.settle_truthful(&agents);
        let mut at_total = 0.0;
        let mut min_at_u = f64::INFINITY;
        for j in 1..=agents.len() {
            let out = at.settle(&parts.true_rates, j, parts.true_rates[j - 1]);
            at_total += out.payment;
            min_at_u = min_at_u.min(out.utility);
        }
        (mono, min_at_u, at_total / lbl.total_payment().max(1e-12))
    });
    let all_monotone = results.iter().all(|r| r.0);
    let min_u = results.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let ratios: Vec<f64> = results.iter().map(|r| r.2).collect();
    let s = Stats::of(&ratios);
    println!("random sweep ({trials} chains of 5):");
    println!("  allocation rule monotone everywhere: {all_monotone}");
    println!("  min Archer–Tardos truthful utility: {min_u:+.3e} (≥ 0 required)");
    println!(
        "  outlay ratio AT/LBL: mean {:.3}, min {:.3}, max {:.3}",
        s.mean, s.min, s.max
    );
    assert!(all_monotone);
    assert!(min_u >= -1e-9);
    println!();

    // Bus instantiation (companion mechanism [14]).
    let bus = ArcherTardos::new(StarRule::bus(1.0, 4, 0.3), w_max);
    let bus_truth = [1.5f64, 0.9, 2.0, 1.1];
    let sweep_grid: Vec<f64> = (1..=60).map(|i| i as f64 * 0.25).collect();
    let mut violations = 0;
    for j in 1..=4 {
        let honest = bus.settle(&bus_truth, j, bus_truth[j - 1]).utility;
        for (_, u) in bus.sweep(&bus_truth, j, bus_truth[j - 1], &sweep_grid) {
            if u > honest + 1e-6 {
                violations += 1;
            }
        }
    }
    println!(
        "bus network (companion [14]): strategyproofness violations over the grid: {violations}"
    );
    assert_eq!(violations, 0);
    println!();
    println!("PASS: E14 — two strategyproof payment schemes, one allocation rule");
}

//! E17 (extension) — collusion probe: is DLS-LBL *group*-strategyproof?
//!
//! Strategyproofness (Theorem 5.3) is an individual guarantee; it says
//! nothing about coalitions with side payments. This experiment sweeps
//! joint misreports by every adjacent pair of processors and measures the
//! coalition's total utility against the all-truthful profile. Two
//! findings are asserted:
//!
//! * the *dominant-strategy inequality* always holds member-wise: given
//!   the partner's lie, each member's truthful response weakly dominates
//!   its own lie (this is Theorem 5.3 and must never fail);
//! * any coalition gains that do exist are quantified and reported — the
//!   paper never claims group-strategyproofness, so positive findings here
//!   delimit the guarantee rather than contradict it.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_collusion
//! ```

use bench::{sweep, Stats, Table};
use mechanism::{Agent, Conduct, DlsLbl};
use workloads::ChainConfig;

fn main() {
    println!("E17: collusion probe — coalition utility under joint misreports");
    println!();

    let factors = [0.5f64, 0.75, 1.0, 1.5, 2.5];
    let trials = 300u64;
    let results = sweep(0..trials, |seed| {
        let cfg = ChainConfig {
            processors: 6,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, seed);
        let parts = workloads::mechanism_parts(&net);
        let mech = DlsLbl::new(parts.root_rate, parts.link_rates.clone());
        let agents: Vec<Agent> = parts.true_rates.iter().map(|&t| Agent::new(t)).collect();
        let m = agents.len();
        let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        let base = mech.settle(&truthful, false);

        let mut best_gain = f64::NEG_INFINITY;
        let mut dominant_violations = 0usize;
        for a in 1..m {
            let b = a + 1; // adjacent pair (P_a, P_b)
            let pair_truth = base.utility(a) + base.utility(b);
            for &fa in &factors {
                for &fb in &factors {
                    let mut conducts = truthful.clone();
                    conducts[a - 1] = Conduct::misreport(agents[a - 1], fa);
                    conducts[b - 1] = Conduct::misreport(agents[b - 1], fb);
                    let joint = mech.settle(&conducts, false);
                    best_gain = best_gain.max(joint.utility(a) + joint.utility(b) - pair_truth);
                    // Dominant-strategy inequality member-wise: reverting
                    // to truth (partner still lying) must not hurt.
                    let mut a_reverts = conducts.clone();
                    a_reverts[a - 1] = Conduct::truthful(agents[a - 1]);
                    if joint.utility(a) > mech.settle(&a_reverts, false).utility(a) + 1e-9 {
                        dominant_violations += 1;
                    }
                    let mut b_reverts = conducts.clone();
                    b_reverts[b - 1] = Conduct::truthful(agents[b - 1]);
                    if joint.utility(b) > mech.settle(&b_reverts, false).utility(b) + 1e-9 {
                        dominant_violations += 1;
                    }
                }
            }
        }
        (best_gain, dominant_violations)
    });

    let gains: Vec<f64> = results.iter().map(|r| r.0).collect();
    let dominant_violations: usize = results.iter().map(|r| r.1).sum();
    let positive = gains.iter().filter(|&&g| g > 1e-9).count();
    let s = Stats::of(&gains);
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["networks".into(), trials.to_string()]);
    t.row(vec![
        "dominant-strategy violations".into(),
        dominant_violations.to_string(),
    ]);
    t.row(vec![
        "nets where some pair gains jointly".into(),
        format!("{positive}/{trials}"),
    ]);
    t.row(vec![
        "best coalition gain (mean)".into(),
        format!("{:+.4}", s.mean),
    ]);
    t.row(vec![
        "best coalition gain (max)".into(),
        format!("{:+.4}", s.max),
    ]);
    t.print();
    assert_eq!(dominant_violations, 0, "Theorem 5.3 must hold member-wise");
    println!();
    if positive > 0 {
        println!(
            "finding: DLS-LBL is NOT group-strategyproof — {positive}/{trials} networks admit a\n\
             jointly profitable adjacent-pair misreport (requires side payments, since each\n\
             member individually prefers reverting to truth). The paper claims only individual\n\
             strategyproofness; this probe delimits the guarantee."
        );
    } else {
        println!("finding: no profitable pair collusion found on this grid.");
    }
    println!();
    println!("PASS: E17 — dominant-strategy inequality intact; coalition surface mapped");
}

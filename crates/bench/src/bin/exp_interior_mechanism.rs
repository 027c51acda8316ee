//! E19 (extension) — DLS-LIL: the interior-origination mechanism (§6
//! future work).
//!
//! With the obedient root strictly inside the chain, each arm is a
//! boundary chain and the DLS-LBL payment applies arm-wise (the bonus is
//! scale-free). Checks: strategyproofness and voluntary participation on
//! random interior chains, and the *arm-independence* property — an
//! agent's utility does not depend on the other arm's bids at all.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_interior_mechanism
//! ```

use bench::{sweep, JsonReport, Table};
use mechanism::dls_interior::{Arm, DlsInterior};
use mechanism::{Agent, Conduct};

fn main() {
    if let Some(path) = obs::init_from_env() {
        eprintln!("tracing to {path} (DLS_TRACE)");
    }
    println!("E19: DLS-LIL — interior load origination");
    println!();
    let trials = 300u64;
    let factors = [0.3, 0.6, 0.9, 1.0, 1.3, 2.0, 4.0];
    let results = sweep(0..trials, |seed| {
        // Deterministic random-ish arms of 1..=3 agents each.
        let h = |k: u64| 0.3 + ((seed.wrapping_mul(31).wrapping_add(k * 17)) % 40) as f64 / 13.0;
        let left_n = 1 + (seed % 3) as usize;
        let right_n = 1 + ((seed / 3) % 3) as usize;
        let left_links: Vec<f64> = (0..left_n).map(|k| 0.05 + h(k as u64) / 10.0).collect();
        let right_links: Vec<f64> = (0..right_n)
            .map(|k| 0.05 + h(100 + k as u64) / 10.0)
            .collect();
        let mech = DlsInterior::new(1.0, left_links, right_links);
        let left: Vec<Agent> = (0..left_n).map(|k| Agent::new(h(200 + k as u64))).collect();
        let right: Vec<Agent> = (0..right_n)
            .map(|k| Agent::new(h(300 + k as u64)))
            .collect();
        let honest = mech.settle_truthful(&left, &right);
        let lt: Vec<Conduct> = left.iter().map(|&a| Conduct::truthful(a)).collect();
        let rt: Vec<Conduct> = right.iter().map(|&a| Conduct::truthful(a)).collect();
        let mut violations = 0usize;
        let mut min_u = f64::INFINITY;
        for p in 1..=left_n {
            min_u = min_u.min(honest.utility(Arm::Left, p));
            for &f in &factors {
                let mut lc = lt.clone();
                lc[p - 1] = Conduct::misreport(left[p - 1], f);
                if mech.settle(&lc, &rt).utility(Arm::Left, p) > honest.utility(Arm::Left, p) + 1e-9
                {
                    violations += 1;
                }
            }
        }
        for p in 1..=right_n {
            min_u = min_u.min(honest.utility(Arm::Right, p));
            for &f in &factors {
                let mut rc = rt.clone();
                rc[p - 1] = Conduct::misreport(right[p - 1], f);
                if mech.settle(&lt, &rc).utility(Arm::Right, p)
                    > honest.utility(Arm::Right, p) + 1e-9
                {
                    violations += 1;
                }
            }
        }
        // Arm independence: distort the whole right arm, left utilities
        // must not move.
        let mut rc = rt.clone();
        for (k, c) in rc.iter_mut().enumerate() {
            *c = Conduct::misreport(right[k], if k % 2 == 0 { 0.5 } else { 2.0 });
        }
        let cross = mech.settle(&lt, &rc);
        let mut max_cross = 0.0f64;
        for p in 1..=left_n {
            max_cross =
                max_cross.max((cross.utility(Arm::Left, p) - honest.utility(Arm::Left, p)).abs());
        }
        (violations, min_u, max_cross)
    });
    let violations: usize = results.iter().map(|r| r.0).sum();
    let min_u = results.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let max_cross = results.iter().map(|r| r.2).fold(0.0f64, f64::max);
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["random interior chains".into(), trials.to_string()]);
    t.row(vec![
        "strategyproofness violations".into(),
        violations.to_string(),
    ]);
    t.row(vec!["min truthful utility".into(), format!("{min_u:+.3e}")]);
    t.row(vec![
        "max cross-arm utility influence".into(),
        format!("{max_cross:.3e}"),
    ]);
    t.print();
    assert_eq!(violations, 0);
    assert!(min_u >= -1e-9);
    assert!(max_cross < 1e-12, "arm independence must be exact");
    println!();
    let mut mirror = JsonReport::new("exp_interior_mechanism");
    mirror
        .table("metrics", &t)
        .scalar("random_trials", trials as f64)
        .scalar("violations", violations as f64)
        .scalar("min_truthful_utility", min_u)
        .scalar("max_cross_arm_influence", max_cross);
    mirror
        .write("results/exp_interior_mechanism.json")
        .expect("write JSON mirror");
    obs::flush();
    println!("PASS: E19 — interior origination: strategyproof, VP, and arm-independent");
}

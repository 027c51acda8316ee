//! E6 — Lemma 5.1 / Theorem 5.1: the deviation catalog.
//!
//! Runs the full four-phase protocol with every deviation type injected at
//! every strategic position across many random chains, and reports, per
//! deviation type: detection rate (finable deviations must be 100 %),
//! false-accusation rate against honest nodes (must be 0 %, Lemma 5.2),
//! and the deviant's mean utility delta vs compliance (must be negative).
//!
//! ```sh
//! cargo run --release -p bench --bin exp_deviation_catalog
//! ```

use bench::{sweep, Stats, Table};
use mechanism::FineSchedule;
use protocol::{Deviation, EntryKind, Scenario};
use workloads::ChainConfig;

fn main() {
    println!("E6: Lemma 5.1 — every deviation is detected, fined, and unprofitable");
    println!();
    let trials = 300u64;
    let cfg = ChainConfig {
        processors: 6,
        ..Default::default()
    };

    let mut table = Table::new(&[
        "deviation",
        "runs",
        "detected",
        "honest fined",
        "mean ΔU(deviant)",
        "max ΔU",
    ]);

    for deviation in Deviation::catalog() {
        let results = sweep(0..trials, |seed| {
            let net = workloads::chain(&cfg, seed);
            let parts = workloads::mechanism_parts(&net);
            let m = parts.true_rates.len();
            // Deterministic target position; skip terminal for the
            // deviations the terminal processor cannot perform.
            let mut target = 1 + (seed as usize % m);
            if matches!(
                deviation,
                Deviation::ShedLoad { .. }
                    | Deviation::WrongDistribution { .. }
                    | Deviation::WrongEquivalent { .. }
            ) && target == m
            {
                target = 1.max(m - 1);
            }
            let base = Scenario::honest(
                parts.root_rate,
                parts.true_rates.clone(),
                parts.link_rates.clone(),
            )
            .with_fine(FineSchedule::new(
                30.0 * parts.true_rates.iter().cloned().fold(1.0, f64::max),
                1.0, // audit every bill so Phase IV detection is exact
            ))
            .with_seed(seed);
            let honest = protocol::run(&base);
            let deviant = protocol::run(&base.clone().with_deviation(target, deviation));
            let detected = match deviation {
                Deviation::FalseAccusation => deviant
                    .arbitrations
                    .iter()
                    .any(|a| !a.substantiated && a.claimant == target),
                _ if deviation.is_finable() => deviant.convictions().any(|a| a.accused == target),
                _ => true, // priced deviations have nothing to detect
            };
            // Lemma 5.2: no honest node is ever net-fined.
            let honest_fined = (1..=m)
                .filter(|&j| j != target)
                .any(|j| deviant.ledger.net_of(j, EntryKind::Fine) < 0.0);
            let delta = deviant.utility(target) - honest.utility(target);
            (detected, honest_fined, delta)
        });
        let detected = results.iter().filter(|r| r.0).count();
        let honest_fined = results.iter().filter(|r| r.1).count();
        let deltas: Vec<f64> = results.iter().map(|r| r.2).collect();
        let s = Stats::of(&deltas);
        table.row(vec![
            deviation.label().to_string(),
            trials.to_string(),
            format!("{}/{}", detected, trials),
            honest_fined.to_string(),
            format!("{:+.4}", s.mean),
            format!("{:+.4}", s.max),
        ]);
        assert_eq!(
            detected as u64,
            trials,
            "{} detection not 100%",
            deviation.label()
        );
        assert_eq!(
            honest_fined,
            0,
            "honest node fined under {}",
            deviation.label()
        );
        assert!(s.max <= 1e-9, "{} profited somewhere", deviation.label());
    }
    table.print();
    println!();
    println!("PASS: 100% detection, 0 false fines (Lemma 5.2), all deltas ≤ 0 (Theorem 5.1)");
}

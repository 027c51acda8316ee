//! E11 — Lemma 5.2 fuzz: honest processors are never fined.
//!
//! Thousands of adversarial protocol runs — random networks, random
//! deviant positions, random deviation types, multiple simultaneous
//! deviants, forged-evidence attempts — and in every single one, every
//! node that followed the protocol ends with zero fines and non-negative
//! reward flow.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_no_false_fines
//! ```

use bench::{sweep, Table};
use mechanism::FineSchedule;
use protocol::{Deviation, EntryKind, Scenario};
use workloads::ChainConfig;

fn pick_deviation(k: u64) -> Deviation {
    let catalog = Deviation::catalog();
    catalog[(k as usize) % catalog.len()]
}

fn main() {
    println!("E11: Lemma 5.2 — fuzzing for false fines");
    println!();
    let trials = 3000u64;
    let results = sweep(0..trials, |seed| {
        let m = 3 + (seed % 6) as usize; // 3..=8 strategic processors
        let cfg = ChainConfig {
            processors: m + 1,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, seed);
        let parts = workloads::mechanism_parts(&net);
        let mut scenario = Scenario::honest(
            parts.root_rate,
            parts.true_rates.clone(),
            parts.link_rates.clone(),
        )
        .with_fine(FineSchedule::new(
            50.0 * parts.true_rates.iter().cloned().fold(1.0, f64::max),
            0.5,
        ))
        .with_seed(seed);
        // 1–2 deviants at distinct positions.
        let deviants = 1 + (seed % 2) as usize;
        let mut positions = Vec::new();
        for d in 0..deviants {
            let pos = 1 + ((seed / 7 + d as u64 * 3) as usize % m);
            if !positions.contains(&pos) {
                scenario = scenario.with_deviation(pos, pick_deviation(seed + d as u64));
                positions.push(pos);
            }
        }
        let report = protocol::run(&scenario);
        // Any honest node with a net fine is a Lemma 5.2 violation.
        let mut false_fines = 0usize;
        for j in 1..=m {
            if positions.contains(&j) {
                continue;
            }
            if report.ledger.net_of(j, EntryKind::Fine) < 0.0
                || report.ledger.net_of(j, EntryKind::ExtraWorkPenalty) < 0.0
            {
                false_fines += 1;
            }
        }
        (false_fines, report.arbitrations.len(), positions.len())
    });

    let total_false: usize = results.iter().map(|r| r.0).sum();
    let total_arbitrations: usize = results.iter().map(|r| r.1).sum();
    let total_deviants: usize = results.iter().map(|r| r.2).sum();
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["runs".into(), trials.to_string()]);
    t.row(vec!["deviants injected".into(), total_deviants.to_string()]);
    t.row(vec![
        "arbitrations held".into(),
        total_arbitrations.to_string(),
    ]);
    t.row(vec![
        "false fines on honest nodes".into(),
        total_false.to_string(),
    ]);
    t.print();
    assert_eq!(total_false, 0, "Lemma 5.2 violated");
    println!();
    println!("PASS: 0 false fines across {trials} adversarial runs");
}

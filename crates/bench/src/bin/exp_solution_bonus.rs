//! E8 — eq. 4.13: the solution bonus and selfish-and-annoying agents.
//!
//! A *selfish-but-agreeable* agent deviates only for strict gain; a
//! *selfish-and-annoying* agent also performs utility-neutral sabotage
//! (corrupting data), which reduces the probability of finding the embedded
//! solution. The experiment models sabotage as a solution-probability hit
//! and shows:
//!
//! * with `S = 0`, sabotage is utility-neutral (the annoying agent has no
//!   reason *not* to sabotage) — Theorem 5.1 alone cannot stop it;
//! * with `S > 0`, sabotage strictly loses `S × Δp(solution)` in
//!   expectation — Theorem 5.2's discipline.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_solution_bonus
//! ```

use bench::{sweep, Table};
use protocol::Scenario;

/// Expected utility of agent `j` when the solution is found with
/// probability `p_solution`.
fn expected_utility(base: &Scenario, j: usize, s: f64, p_solution: f64, seeds: u64) -> f64 {
    let found = protocol::run(&base.clone().with_solution_bonus(s, true));
    let missed = protocol::run(&base.clone().with_solution_bonus(s, false));
    // Utilities are deterministic given the bonus outcome; average the two
    // branches (seeds only affect audits, which are neutral for honest
    // bills — verified by the spread below).
    let spread: f64 = sweep(0..seeds, |seed| {
        protocol::run(&base.clone().with_seed(seed).with_solution_bonus(s, true)).utility(j)
    })
    .iter()
    .map(|u| (u - found.utility(j)).abs())
    .fold(0.0, f64::max);
    assert!(spread < 1e-9, "audit randomness leaked into honest utility");
    p_solution * found.utility(j) + (1.0 - p_solution) * missed.utility(j)
}

fn main() {
    println!("E8: eq. 4.13 — the solution bonus disciplines selfish-and-annoying agents");
    println!();
    let base = Scenario::honest(1.0, vec![1.8, 0.6, 2.5, 1.2], vec![0.25, 0.15, 0.40, 0.10]);
    let j = 2;
    // Sabotage model: corrupting data halves the chance the solution is
    // found (e.g. the target key sits in the corrupted half).
    let p_clean = 0.95;
    let p_sabotaged = 0.45;

    let mut t = Table::new(&[
        "S (bonus)",
        "E[U] behave",
        "E[U] sabotage",
        "sabotage margin",
        "deterred",
    ]);
    for s in [0.0, 0.05, 0.1, 0.25, 0.5] {
        let behave = expected_utility(&base, j, s, p_clean, 50);
        let sabotage = expected_utility(&base, j, s, p_sabotaged, 50);
        let margin = behave - sabotage;
        let expected_margin = s * (p_clean - p_sabotaged);
        assert!((margin - expected_margin).abs() < 1e-9);
        t.row(vec![
            format!("{s:.2}"),
            format!("{behave:.5}"),
            format!("{sabotage:.5}"),
            format!("{margin:+.5}"),
            if margin > 1e-12 {
                "yes".into()
            } else {
                "NO (neutral)".to_string()
            },
        ]);
    }
    t.print();
    println!();
    println!(
        "with S = 0 sabotage is exactly utility-neutral — a selfish-and-annoying agent may do it;\n\
         any S > 0 makes good behavior strictly dominant (Theorem 5.2)."
    );
    println!();
    println!("PASS: E8 reproduces the eq. 4.13 extension");
}

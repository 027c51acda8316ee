//! E7 — Phase IV audit deterrence: the `F/q` sweep.
//!
//! Sweeps the audit probability `q` and the fine `F`, reporting both the
//! closed-form expected gain of an overcharging agent and a Monte Carlo
//! estimate from real protocol runs (random audits, real proofs). Shows
//! the deterrence boundary: overcharging profits iff `F < (1−q)·x`, so the
//! paper's rule (`F` above any attainable profit) kills it for every `q`.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_audit_sweep
//! ```

use bench::{sweep, Table};
use mechanism::audit::{analyze_overcharge, break_even_overcharge};
use mechanism::FineSchedule;
use protocol::{Deviation, Scenario};

fn main() {
    println!("E7: audit probability sweep — expected penalty of overcharging is q·(F/q) = F");
    println!();
    let overcharge = 2.0;
    let trials = 4000u64;

    let scenario = |fine: f64, q: f64, seed: u64| {
        Scenario::honest(1.0, vec![1.8, 0.6, 2.5], vec![0.25, 0.15, 0.40])
            .with_fine(FineSchedule::new(fine, q))
            .with_seed(seed)
    };

    for fine in [1.0f64, 8.0] {
        println!("fine F = {fine} (overcharge x = {overcharge}; deterred iff x < F/(1−q))");
        let mut t = Table::new(&[
            "q",
            "E[gain] closed form",
            "E[gain] Monte Carlo",
            "caught rate",
            "break-even x",
        ]);
        for q in [0.05, 0.1, 0.25, 0.5, 0.75, 1.0] {
            let schedule = FineSchedule::new(fine, q);
            let analysis = analyze_overcharge(&schedule, overcharge);
            // Monte Carlo over real protocol runs.
            let results = sweep(0..trials, |seed| {
                let base = scenario(fine, q, seed);
                let honest = protocol::run(&base);
                let dev = protocol::run(
                    &base
                        .clone()
                        .with_deviation(2, Deviation::Overcharge { amount: overcharge }),
                );
                let caught = dev.convictions().any(|a| a.accused == 2);
                (dev.utility(2) - honest.utility(2), caught)
            });
            let mc_gain: f64 = results.iter().map(|r| r.0).sum::<f64>() / trials as f64;
            let caught = results.iter().filter(|r| r.1).count() as f64 / trials as f64;
            t.row(vec![
                format!("{q:.2}"),
                format!("{:+.4}", analysis.expected_gain),
                format!("{mc_gain:+.4}"),
                format!("{caught:.3}"),
                format!("{:.2}", break_even_overcharge(&schedule)),
            ]);
            // 4σ band: per-trial outcomes differ by ≈ x + F/q between the
            // caught/uncaught branches, so the mean's standard error is
            // (x + F/q)·√(q(1−q)/N).
            let sigma =
                (overcharge + schedule.overcharge_fine()) * (q * (1.0 - q) / trials as f64).sqrt();
            assert!(
                (mc_gain - analysis.expected_gain).abs() < 4.0 * sigma + 1e-9,
                "Monte Carlo diverges from closed form: {mc_gain} vs {} (4σ = {})",
                analysis.expected_gain,
                4.0 * sigma
            );
            assert!((caught - q).abs() < 0.05, "audit rate off: {caught} vs {q}");
        }
        t.print();
        println!();
    }
    println!(
        "shape check: with F=1 < x(1−q) the cheat profits at small q (mechanism mis-tuned);\n\
         with F=8 > x the expected gain is negative for EVERY q — the paper's requirement."
    );
    println!();
    println!("PASS: E7 reproduces the F/q deterrent and its failure mode");
}

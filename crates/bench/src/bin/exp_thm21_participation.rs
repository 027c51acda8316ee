//! E2 — Theorem 2.1 (optimal participation): under the optimal allocation
//! *all* processors participate and finish at the same instant.
//!
//! Measures the finish-time spread of Algorithm 1's output across thousands
//! of random networks of every shape (f64), cross-checks the solver against
//! the independent bisection oracle, and verifies the equal-finish identity
//! *exactly* with the arbitrary-precision rational solver.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_thm21_participation
//! ```

use bench::{sweep, Stats, Table};
use dlt::baseline::{solve_bisection, BisectionParams};
use dlt::exact;
use dlt::timing::participation_spread;
use workloads::{ChainConfig, ChainShape};

fn main() {
    println!("E2: Theorem 2.1 — equal finish times at the optimum");
    println!();

    let trials = 2000u64;
    let mut table = Table::new(&[
        "shape",
        "n",
        "trials",
        "max spread",
        "min α_i",
        "max |Alg1 − bisection|",
    ]);
    for shape in ChainShape::all() {
        for n in [2usize, 8, 32] {
            let cfg = ChainConfig {
                processors: n,
                shape,
                ..Default::default()
            };
            // The whole cohort is solved in one batch-core call (amortized,
            // auto-vectorized across chains); per-chain results are
            // bit-identical to the scalar solver by the `dlt::batch`
            // contract, so the report below is unchanged by the rewiring.
            let nets = workloads::chain_population(&cfg, 0..trials);
            let batch = dlt::batch::solve_many(&nets);
            let results = sweep(0..trials, |seed| {
                let net = &nets[seed as usize];
                let sol = batch.solution(seed as usize);
                sol.alloc.validate().expect("feasible");
                let spread = participation_spread(net, &sol.alloc);
                let min_alpha = sol
                    .alloc
                    .fractions()
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                let bis = solve_bisection(net, BisectionParams::default());
                let dev = (bis.makespan - sol.makespan()).abs();
                (spread, min_alpha, dev)
            });
            let spreads: Vec<f64> = results.iter().map(|r| r.0).collect();
            let alphas: Vec<f64> = results.iter().map(|r| r.1).collect();
            let devs: Vec<f64> = results.iter().map(|r| r.2).collect();
            table.row(vec![
                shape.label().to_string(),
                n.to_string(),
                trials.to_string(),
                format!("{:.2e}", Stats::of(&spreads).max),
                format!("{:.2e}", Stats::of(&alphas).min),
                format!("{:.2e}", Stats::of(&devs).max),
            ]);
            assert!(
                Stats::of(&spreads).max < 1e-9,
                "spread too large for {shape:?} n={n}"
            );
            assert!(Stats::of(&alphas).min > 0.0, "a processor was left out");
        }
    }
    table.print();

    // Exact verification: the identity holds bit-for-bit over rationals.
    println!();
    println!("exact-rational verification (integer-rate chains, denominators up to 10):");
    let mut exact_ok = 0;
    let mut cases = 0;
    for seed in 0..50u64 {
        let m = 2 + (seed % 10) as usize;
        let w: Vec<i64> = (0..=m)
            .map(|i| 3 + ((seed as i64 + i as i64 * 7) % 40))
            .collect();
        let z: Vec<i64> = (0..m)
            .map(|i| 1 + ((seed as i64 * 3 + i as i64 * 5) % 8))
            .collect();
        let chain = exact::ExactChain::from_scaled_ints(&w, &z, 10);
        let sol = exact::chain::solve(&chain);
        cases += 1;
        if exact::chain::verify_equal_finish(&chain, &sol) && exact::chain::verify_total(&sol) {
            exact_ok += 1;
        }
    }
    println!("  {exact_ok}/{cases} random integer chains satisfy T_0 = … = T_m and Σα = 1 EXACTLY");
    assert_eq!(exact_ok, cases);
    println!();
    println!("PASS: Theorem 2.1 reproduced (f64 spread ≤ 1e-9 over all shapes; exact over ℚ)");
}

//! E15 (extension) — the affine cost model: startup overheads break the
//! all-participate property.
//!
//! Theorem 2.1 says every processor participates under the *linear* cost
//! model. With affine costs (per-transfer and per-computation startups),
//! far processors get priced out: the experiment sweeps the communication
//! startup and reports the participation count and makespan, reproducing
//! the known qualitative behavior from the DLT literature \[6\].
//!
//! ```sh
//! cargo run --release -p bench --bin exp_affine
//! ```

use bench::{sweep, Table};
use dlt::affine::{self, AffineOverheads};
use dlt::linear;
use dlt::model::LinearNetwork;
use workloads::ChainConfig;

fn main() {
    println!("E15: affine cost model — participation vs startup overheads");
    println!();

    let net = LinearNetwork::homogeneous(8, 1.0, 0.3);
    let linear_ms = linear::solve(&net).makespan();
    println!("8 homogeneous processors (w = 1, z = 0.3); linear-model makespan {linear_ms:.5}");
    let mut t = Table::new(&["comm startup c", "participants", "makespan", "vs linear"]);
    for &c in &[0.0, 0.001, 0.005, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0] {
        let sol = affine::solve(&net, &AffineOverheads::uniform(net.len(), 0.0, c));
        t.row(vec![
            format!("{c}"),
            sol.participants.to_string(),
            format!("{:.5}", sol.makespan),
            format!("{:+.1}%", 100.0 * (sol.makespan / linear_ms - 1.0)),
        ]);
    }
    t.print();
    println!();

    // Participation monotonically shrinks with the startup.
    let mut last = usize::MAX;
    for &c in &[0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0] {
        let sol = affine::solve(&net, &AffineOverheads::uniform(net.len(), 0.0, c));
        assert!(sol.participants <= last);
        last = sol.participants;
    }
    assert_eq!(
        affine::solve(&net, &AffineOverheads::uniform(net.len(), 0.0, 100.0)).participants,
        1,
        "prohibitive startups leave the root alone"
    );

    // Consistency sweep: affine with zero overheads ≡ linear model, and
    // participating processors always finish together.
    let trials = 500u64;
    let bad: usize = sweep(0..trials, |seed| {
        let cfg = ChainConfig {
            processors: 6,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, seed);
        let zero = affine::solve(&net, &AffineOverheads::zero(net.len()));
        let lin = linear::solve(&net);
        let mut bad = 0usize;
        if (zero.makespan - lin.makespan()).abs() > 1e-7 {
            bad += 1;
        }
        let oh = AffineOverheads::uniform(net.len(), 0.01, 0.02);
        let sol = affine::solve(&net, &oh);
        let times = affine::finish_times(&net, &oh, &sol.alloc);
        for (i, &t) in times.iter().enumerate() {
            if sol.alloc.alpha(i) > 1e-9 && (t - sol.makespan).abs() > 1e-6 {
                bad += 1;
            }
        }
        bad
    })
    .into_iter()
    .sum();
    println!("random consistency sweep ({trials} chains): violations = {bad}");
    assert_eq!(bad, 0);
    println!();
    println!("PASS: E15 — affine startups exclude far processors, zero-overhead case ≡ Theorem 2.1 world");
}

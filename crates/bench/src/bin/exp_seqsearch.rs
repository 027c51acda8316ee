//! E29 — sequencing search over chain & tree service orders, with
//! truthfulness-under-search verification.
//!
//! Three parts, measured over `workloads::order_search_grid`:
//!
//! 1. **Search quality.** The seeded local search
//!    (`dlt::seqsearch::local_search`) is compared per case against the
//!    canonical ascending-link order and — wherever the order space fits
//!    the exhaustive budget — against the exhaustive oracle. Gates: the
//!    searched makespan never exceeds canonical anywhere, and matches the
//!    oracle optimum on **100%** of oracle-checkable cases. The classical
//!    sequencing result predicts zero searched gain (canonical is already
//!    optimal); the table verifies that prediction instead of assuming it.
//! 2. **Truthfulness under frozen searched orders.** Each case's searched
//!    order (found at the true rates) is frozen into the tree mechanism
//!    ([`OrderPolicy::Frozen`]); a misreport sweep over the E13-style
//!    factor grid must find **0 profitable misreports**, and best-response
//!    dynamics from a distorted profile must converge to truth in one
//!    round. Bid-independence is what the proof needs — freezing
//!    preserves it, so strategyproofness survives the search.
//! 3. **The counter-example.** Re-deriving the order from the *bids*
//!    ([`OrderPolicy::BidFastestEquivalentFirst`]) re-opens the E18
//!    manipulation channel: on the anti-correlated star the agent behind
//!    the slowest link profits by overbidding. The run demonstrates a
//!    strictly positive gain and shows the same lie is unprofitable once
//!    the order is frozen.
//!
//! Writes `results/exp_seqsearch.txt` and `.json`. Environment overrides:
//! `DLS_E29_SEED` (grid seed), `DLS_E29_RESTARTS` (local-search restarts),
//! `DLS_E29_MAX_STEPS` (descent cap), `DLS_E29_BUDGET` (exhaustive-oracle
//! evaluation budget).
//!
//! ```sh
//! cargo run --release -p bench --bin exp_seqsearch
//! ```

use bench::{env_or, JsonReport, Table};
use dlt::seqsearch::{
    exhaustive_search, local_search, order_space_size, orderable_nodes, LocalSearchConfig,
};
use mechanism::equilibrium::{best_response_dynamics, BidGame};
use mechanism::{Agent, OrderPolicy, TreeMechanism};
use workloads::{misreport_factors, order_search_grid};

fn main() {
    if let Some(path) = obs::init_from_env() {
        eprintln!("tracing to {path} (DLS_TRACE)");
    }
    println!("E29: sequencing search over tree service orders + truthfulness under search");
    println!();
    let mut mirror = JsonReport::new("exp_seqsearch");
    let mut txt = String::new();

    let seed = env_or("DLS_E29_SEED", 0xE29u64);
    let budget = env_or("DLS_E29_BUDGET", 5_040u64);
    let cfg = LocalSearchConfig {
        restarts: env_or("DLS_E29_RESTARTS", 3usize),
        max_steps: env_or("DLS_E29_MAX_STEPS", 200usize),
        ..Default::default()
    };
    let grid = order_search_grid(seed);

    // ── 1. Search quality: canonical vs local search vs oracle ─────────
    let mut t = Table::new(&[
        "case",
        "agents",
        "orderable",
        "order space",
        "canonical",
        "searched",
        "gain",
        "evals",
        "oracle",
    ]);
    let mut oracle_checked = 0usize;
    let mut oracle_matched = 0usize;
    let searched: Vec<_> = grid
        .iter()
        .map(|case| {
            let out = local_search(&case.shape, &cfg);
            assert!(
                out.best_makespan <= out.canonical_makespan,
                "{}: search lost to canonical",
                case.label
            );
            assert!(out.best_order.is_valid(&case.shape), "{}", case.label);
            let space = order_space_size(&case.shape);
            let oracle_cell = match exhaustive_search(&case.shape, budget) {
                Ok(oracle) => {
                    oracle_checked += 1;
                    let hit = (out.best_makespan - oracle.best_makespan).abs() < 1e-12;
                    if hit {
                        oracle_matched += 1;
                    }
                    assert!(hit, "{}: local search missed the optimum", case.label);
                    format!("opt ({} evals)", oracle.evaluated)
                }
                Err(e) => format!("skipped ({} > {})", e.required, e.budget),
            };
            let gain = 1.0 - out.best_makespan / out.canonical_makespan;
            t.row(vec![
                case.label.clone(),
                case.num_agents().to_string(),
                orderable_nodes(&case.shape).to_string(),
                space.map_or("overflow".into(), |s| s.to_string()),
                format!("{:.6}", out.canonical_makespan),
                format!("{:.6}", out.best_makespan),
                format!("{:.2}%", gain * 100.0),
                out.evaluated.to_string(),
                oracle_cell,
            ]);
            out
        })
        .collect();
    t.print();
    txt.push_str(&t.render());
    assert_eq!(
        oracle_matched, oracle_checked,
        "local search must match the exhaustive optimum on every checkable case"
    );
    assert!(oracle_checked > 0, "grid must carry oracle-checkable cases");
    let line = format!(
        "search quality: {oracle_matched}/{oracle_checked} oracle-checkable cases at the exhaustive \
         optimum; searched ≤ canonical on {}/{} cases (classical prediction: gain 0 everywhere)",
        grid.len(),
        grid.len()
    );
    println!("{line}");
    txt.push('\n');
    txt.push_str(&line);
    txt.push('\n');
    println!();

    // ── 2. Truthfulness sweep under frozen searched orders ──────────────
    let factors = misreport_factors();
    let mut t2 = Table::new(&[
        "case",
        "sweeps",
        "profitable misreports",
        "BR rounds to truth",
    ]);
    let mut total_sweeps = 0usize;
    let mut total_profitable = 0usize;
    let mut br_grid = factors.clone();
    br_grid.push(1.0);
    for (case, out) in grid.iter().zip(&searched) {
        let mech = TreeMechanism::with_order(
            case.shape.clone(),
            OrderPolicy::Frozen(out.best_order.clone()),
        );
        let agents: Vec<Agent> = case.true_rates.iter().map(|&r| Agent::new(r)).collect();
        let truthful = case.true_rates.clone();
        let mut sweeps = 0usize;
        let mut profitable = 0usize;
        for j in 1..=agents.len() {
            let honest = mech.utility(&agents, &truthful, j);
            for &f in &factors {
                let mut bids = truthful.clone();
                bids[j - 1] = case.true_rates[j - 1] * f;
                if mech.utility(&agents, &bids, j) > honest + 1e-9 {
                    profitable += 1;
                }
                sweeps += 1;
            }
        }
        let initial: Vec<f64> = case
            .true_rates
            .iter()
            .enumerate()
            .map(|(i, &r)| if i % 2 == 0 { r * 2.0 } else { r * 0.5 })
            .collect();
        let traj = best_response_dynamics(&mech, &agents, &initial, &br_grid, 10);
        assert!(
            traj.converged && traj.distance_from_truth(&agents) < 1e-9,
            "{}: dynamics failed to reach truth",
            case.label
        );
        let rounds = traj.profiles.len() - 1;
        t2.row(vec![
            case.label.clone(),
            sweeps.to_string(),
            profitable.to_string(),
            rounds.to_string(),
        ]);
        total_sweeps += sweeps;
        total_profitable += profitable;
    }
    t2.print();
    txt.push('\n');
    txt.push_str(&t2.render());
    assert_eq!(
        total_profitable, 0,
        "a frozen (bid-independent) searched order must stay strategyproof"
    );
    let line = format!(
        "truthfulness: {total_profitable}/{total_sweeps} profitable misreports under frozen \
         searched orders; best-response dynamics reached truth on every case"
    );
    println!("{line}");
    txt.push('\n');
    txt.push_str(&line);
    txt.push('\n');
    println!();

    // ── 3. Bid-dependent order: the manipulation channel, demonstrated ──
    let case = grid
        .iter()
        .find(|c| c.label == "anti/m3")
        .expect("grid carries the anti-correlated star");
    let bid_dep =
        TreeMechanism::with_order(case.shape.clone(), OrderPolicy::BidFastestEquivalentFirst);
    let frozen = TreeMechanism::with_order(
        case.shape.clone(),
        OrderPolicy::Frozen(local_search(&case.shape, &cfg).best_order),
    );
    let agents: Vec<Agent> = case.true_rates.iter().map(|&r| Agent::new(r)).collect();
    let truthful = case.true_rates.clone();
    let mut t3 = Table::new(&["agent", "factor", "gain (bid-dep order)", "gain (frozen)"]);
    let mut best_gain = f64::NEG_INFINITY;
    for j in 1..=agents.len() {
        let honest_dep = bid_dep.utility(&agents, &truthful, j);
        let honest_frz = frozen.utility(&agents, &truthful, j);
        for &f in &factors {
            let mut bids = truthful.clone();
            bids[j - 1] = case.true_rates[j - 1] * f;
            let gain_dep = bid_dep.utility(&agents, &bids, j) - honest_dep;
            let gain_frz = frozen.utility(&agents, &bids, j) - honest_frz;
            assert!(gain_frz <= 1e-9, "frozen order leaked a profitable lie");
            if gain_dep > 1e-9 {
                t3.row(vec![
                    j.to_string(),
                    format!("{f}"),
                    format!("{gain_dep:+.6}"),
                    format!("{gain_frz:+.6}"),
                ]);
            }
            best_gain = best_gain.max(gain_dep);
        }
    }
    t3.print();
    txt.push('\n');
    txt.push_str(&t3.render());
    assert!(
        best_gain > 1e-4,
        "the bid-dependent order should be manipulable on anti/m3 (best gain {best_gain})"
    );
    let line = format!(
        "counter-example: bid-dependent order is manipulable on {} (best overbid gain \
         {best_gain:.6}); the identical lies are unprofitable under the frozen order",
        case.label
    );
    println!("{line}");
    txt.push('\n');
    txt.push_str(&line);
    txt.push('\n');
    println!();

    mirror
        .table("search_quality", &t)
        .table("truthfulness", &t2)
        .table("bid_dependent_gains", &t3)
        .scalar("grid_cases", grid.len() as f64)
        .scalar("oracle_checked", oracle_checked as f64)
        .scalar("oracle_matched", oracle_matched as f64)
        .scalar("misreport_sweeps", total_sweeps as f64)
        .scalar("profitable_misreports_frozen", total_profitable as f64)
        .scalar("best_gain_bid_dependent", best_gain)
        .scalar("search_restarts", cfg.restarts as f64);
    mirror
        .write("results/exp_seqsearch.json")
        .expect("write JSON mirror");
    std::fs::write("results/exp_seqsearch.txt", &txt).expect("write E29 txt");
    obs::flush();
    println!(
        "PASS: E29 — searched orders match the exhaustive optimum, frozen searched orders stay \
         strategyproof, bid-dependent orders are manipulable"
    );
}

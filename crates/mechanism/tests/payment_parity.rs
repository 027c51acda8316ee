//! Payment-parity suite (ISSUE 8): the O(m) batch settlement path
//! (`payment::settle_all` / `payment::settle_with` over one
//! `dlt::batch::solve_all_suffixes` sweep) must produce **byte-identical**
//! `PaymentBreakdown`s to the scalar per-agent `payment::settle`, which
//! re-solves the suffix chains from scratch on every call.
//!
//! Equality is asserted on `Debug`-formatted bytes (shortest-roundtrip
//! float printing is injective on finite f64, so equal bytes imply equal
//! bits in every field: valuation, compensation, recompense, bonus,
//! payment, utility).
//!
//! The deterministic test replays the E4 population — 500 random networks
//! (3–9 processors), every strategic agent, the full 45-point
//! `default_factor_grid()` of misreported bids — the exact workload whose
//! report bytes (`results/exp_strategyproof_sweep.json`) the rewiring is
//! required to leave unchanged. The proptests add adversarial conduct
//! (over/under-execution, slack rates, zero actual load) beyond what the
//! sweep exercises.

use dlt::linear;
use dlt::model::LinearNetwork;
use mechanism::payment::{self, JobLedger, PaymentBreakdown, PaymentInputs};
use mechanism::verify::default_factor_grid;
use minijson::Value;
use proptest::prelude::*;
use workloads::requests::{self, JobMixConfig};
use workloads::ChainConfig;

/// Settle every agent the slow way: one scalar `settle` per agent.
fn settle_scalar(
    bids: &LinearNetwork,
    inputs: &[PaymentInputs],
    solution_bonus: f64,
) -> Vec<payment::PaymentBreakdown> {
    inputs
        .iter()
        .enumerate()
        .map(|(idx, inp)| payment::settle(bids, idx + 1, *inp, solution_bonus))
        .collect()
}

/// Truthful-execution inputs for a bid chain: each agent is assigned its
/// bid-optimal share and computes exactly that at its true rate.
fn truthful_inputs(bid_net: &LinearNetwork, true_rates: &[f64]) -> Vec<PaymentInputs> {
    let sol = linear::solve(bid_net);
    (1..bid_net.len())
        .map(|j| PaymentInputs {
            assigned_load: sol.alloc.alpha(j),
            actual_load: sol.alloc.alpha(j),
            actual_rate: true_rates[j - 1],
        })
        .collect()
}

/// E4-population parity: 500 networks × every agent × 45 bid factors,
/// batch settlement byte-equal to the scalar reference.
#[test]
fn settle_all_matches_scalar_settle_on_the_e4_population() {
    let grid = default_factor_grid();
    assert_eq!(grid.len(), 45, "E4 bid grid drifted");
    let mut profiles = 0usize;
    for seed in 0..500u64 {
        let cfg = ChainConfig {
            processors: 2 + (seed % 7) as usize + 1,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, seed);
        let parts = workloads::mechanism_parts(&net);
        let m = parts.true_rates.len();
        for j in 1..=m {
            for &f in &grid {
                // Agent j misreports its rate by factor f; others truthful.
                let mut bids = parts.true_rates.clone();
                bids[j - 1] *= f;
                let mut w = vec![parts.root_rate];
                w.extend_from_slice(&bids);
                let bid_net = LinearNetwork::from_rates(&w, &parts.link_rates);
                let inputs = truthful_inputs(&bid_net, &parts.true_rates);
                let fast = payment::settle_all(&bid_net, &inputs, 0.0);
                let slow = settle_scalar(&bid_net, &inputs, 0.0);
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{slow:?}"),
                    "seed {seed}, agent {j}, factor {f}"
                );
                profiles += 1;
            }
        }
    }
    // Σ_seed (2 + seed % 7) agents × 45 factors = 2494 × 45.
    assert_eq!(profiles, 112_230, "population drifted");
}

/// Scalar reference for `JobLedger::finalize`: every agent settled from
/// its aggregated inputs, the bonus re-solved per agent and scaled by the
/// job size (eqs. 4.4–4.9 in absolute job units).
fn finalize_scalar(
    ledger: &JobLedger,
    bids: &LinearNetwork,
    load: f64,
    solution_bonus: f64,
) -> Vec<PaymentBreakdown> {
    (1..bids.len())
        .map(|j| {
            let inp = ledger.aggregate(bids, j);
            let v = payment::valuation(inp.actual_load, inp.actual_rate);
            if inp.actual_load <= 0.0 {
                return PaymentBreakdown {
                    valuation: v,
                    compensation: 0.0,
                    recompense: 0.0,
                    bonus: 0.0,
                    solution_bonus: 0.0,
                    payment: 0.0,
                    utility: v,
                };
            }
            let e = payment::recompense(inp.assigned_load, inp.actual_load, inp.actual_rate);
            let c = payment::compensation(inp.assigned_load, inp.actual_load, inp.actual_rate);
            let b = payment::bonus(bids, j, inp.actual_rate) * load;
            let q = c + b + solution_bonus;
            PaymentBreakdown {
                valuation: v,
                compensation: c,
                recompense: e,
                bonus: b,
                solution_bonus,
                payment: q,
                utility: v + q,
            }
        })
        .collect()
}

/// E28 served-mix parity: every job of the 128-line mix, posted in its
/// installments under truthful and adversarial conduct, finalized
/// byte-equal to the scalar reference.
#[test]
fn finalize_matches_scalar_reference_on_the_e28_job_mix() {
    let mix = JobMixConfig {
        total: 128,
        distinct_chains: 6,
        processors: 5,
        comm_startup: 0.02,
        ..JobMixConfig::default()
    };
    let pool = requests::job_chain_pool(&mix);
    let mut settled = 0usize;
    for (job, (line, idx)) in requests::job_lines_indexed(&mix).into_iter().enumerate() {
        let req = Value::parse(&line).expect("mix line is JSON");
        let load = req.get("load").and_then(Value::as_f64).expect("load");
        let rounds = req.get("rounds").and_then(Value::as_u64).unwrap_or(1) as usize;
        let net = &pool[idx];
        let m = net.last_index();
        let sol = linear::solve(net);
        let share = 1.0 / rounds as f64;
        // Conduct 0 is truthful; conduct 1 has one agent run slow and
        // over-compute, and another compute nothing (eq. 4.6).
        for conduct in 0..2 {
            let mut ledger = JobLedger::new(m);
            for _ in 0..rounds {
                let postings: Vec<PaymentInputs> = (1..=m)
                    .map(|i| {
                        let amount = sol.alloc.alpha(i) * share * load;
                        let (actual_load, actual_rate) = match (conduct, i) {
                            (1, 1) => (amount * 1.25, net.w(i) * 1.5),
                            (1, i) if i == m => (0.0, net.w(i)),
                            _ => (amount, net.w(i)),
                        };
                        PaymentInputs {
                            assigned_load: amount,
                            actual_load,
                            actual_rate,
                        }
                    })
                    .collect();
                ledger.post(&postings);
            }
            for s in [0.0, 0.25] {
                let fast = ledger.finalize(net, load, s);
                let slow = finalize_scalar(&ledger, net, load, s);
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{slow:?}"),
                    "job {job}, conduct {conduct}, S = {s}"
                );
                settled += 1;
            }
        }
    }
    assert_eq!(settled, 128 * 2 * 2, "job mix drifted");
}

fn chain_strategy() -> impl Strategy<Value = LinearNetwork> {
    (2usize..=10).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.05f64..5.0, n),
            proptest::collection::vec(0.0f64..2.0, n - 1),
        )
            .prop_map(|(w, z)| LinearNetwork::from_rates(&w, &z))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random chains, truthful execution, with and without the solution
    /// bonus: batch settlement byte-equal to scalar.
    #[test]
    fn parity_under_truthful_execution(
        bid_net in chain_strategy(),
        bonus in 0.0f64..0.5,
    ) {
        let rates: Vec<f64> = (1..bid_net.len()).map(|j| bid_net.w(j)).collect();
        let inputs = truthful_inputs(&bid_net, &rates);
        for s in [0.0, bonus] {
            let fast = payment::settle_all(&bid_net, &inputs, s);
            let slow = settle_scalar(&bid_net, &inputs, s);
            prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        }
    }

    /// Adversarial conduct: actual rate and load diverge from the bids
    /// (slack execution, over/under-computation, including a zero-load
    /// agent hitting the eq. 4.6 early-out). Parity must still be exact.
    #[test]
    fn parity_under_adversarial_conduct(
        bid_net in chain_strategy(),
        rate_slack in proptest::collection::vec(1.0f64..4.0, 10),
        load_skew in proptest::collection::vec(0.0f64..2.0, 10),
    ) {
        let sol = linear::solve(&bid_net);
        let inputs: Vec<PaymentInputs> = (1..bid_net.len())
            .map(|j| {
                let assigned = sol.alloc.alpha(j);
                PaymentInputs {
                    assigned_load: assigned,
                    // load_skew < 0.1 → zero actual load (eq. 4.6 branch).
                    actual_load: if load_skew[(j - 1) % 10] < 0.1 {
                        0.0
                    } else {
                        assigned * load_skew[(j - 1) % 10]
                    },
                    actual_rate: bid_net.w(j) * rate_slack[(j - 1) % 10],
                }
            })
            .collect();
        let fast = payment::settle_all(&bid_net, &inputs, 0.125);
        let slow = settle_scalar(&bid_net, &inputs, 0.125);
        prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }
}

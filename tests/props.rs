//! Property-based tests (proptest) on the core invariants, across randomly
//! generated networks, allocations and conducts.

#![allow(clippy::needless_range_loop)] // parallel-array assertions

use dls::prelude::*;
use dls::{dlt, mechanism, sim};
use proptest::prelude::*;

/// Strategy: a chain of 2..=12 processors with positive rates.
fn chain_strategy() -> impl Strategy<Value = LinearNetwork> {
    (2usize..=12).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.1f64..10.0, n),
            proptest::collection::vec(0.0f64..3.0, n - 1),
        )
            .prop_map(|(w, z)| LinearNetwork::from_rates(&w, &z))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn solver_output_is_feasible_and_balanced(net in chain_strategy()) {
        let sol = dlt::linear::solve(&net);
        prop_assert!(sol.alloc.validate().is_ok());
        prop_assert!(sol.alloc.fractions().iter().all(|&a| a > 0.0));
        prop_assert!(dlt::timing::participation_spread(&net, &sol.alloc) < 1e-9);
    }

    #[test]
    fn solver_matches_bisection_oracle(net in chain_strategy()) {
        let sol = dlt::linear::solve(&net);
        let bis = dlt::baseline::solve_bisection(&net, dlt::baseline::BisectionParams::default());
        prop_assert!((sol.makespan() - bis.makespan).abs() < 1e-7 * sol.makespan().max(1.0));
    }

    #[test]
    fn local_global_round_trip(net in chain_strategy()) {
        let sol = dlt::linear::solve(&net);
        let back = sol.alloc.to_local().to_global();
        for i in 0..net.len() {
            prop_assert!((back.alpha(i) - sol.alloc.alpha(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn equivalent_processor_never_slower_than_front(net in chain_strategy()) {
        let sol = dlt::linear::solve(&net);
        for i in 0..net.len() {
            prop_assert!(sol.equivalent[i] <= net.w(i) + 1e-12);
        }
    }

    #[test]
    fn reduction_preserves_makespan_at_any_cut(net in chain_strategy(), cut_frac in 0.0f64..1.0) {
        let cut = ((net.len() as f64 * cut_frac) as usize).min(net.len() - 1);
        prop_assert!(dlt::reduction::reduction_preserves_makespan(&net, cut, 1e-9));
    }

    #[test]
    fn simulation_reproduces_closed_form(net in chain_strategy()) {
        let sol = dlt::linear::solve(&net);
        let run = sim::simulate_honest(&net, &sol.local);
        let expected = dlt::timing::finish_times(&net, &sol.alloc);
        for i in 0..net.len() {
            prop_assert!((run.finish_times[i] - expected[i]).abs() < 1e-9);
        }
        prop_assert!(run.gantt.validate_one_port().is_ok());
    }

    #[test]
    fn monotone_bid_response(net in chain_strategy(), i_frac in 0.0f64..1.0, factor in 1.01f64..5.0) {
        let i = ((net.len() as f64 * i_frac) as usize).min(net.len() - 1);
        let lo = net.w(i);
        prop_assert!(dlt::optimal::monotonicity(&net, i, lo, lo * factor, 1e-9));
    }

    #[test]
    fn truthful_dominates_misreporting(
        net in chain_strategy(),
        j_frac in 0.0f64..1.0,
        factor in 0.2f64..4.0,
    ) {
        let parts = dls::workloads::mechanism_parts(&net);
        let mech = DlsLbl::new(parts.root_rate, parts.link_rates.clone());
        let agents: Vec<Agent> = parts.true_rates.iter().map(|&t| Agent::new(t)).collect();
        let j = 1 + ((agents.len() as f64 * j_frac) as usize).min(agents.len() - 1);
        let truthful = mech.settle_truthful(&agents);
        let mut conducts: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        conducts[j - 1] = Conduct::misreport(agents[j - 1], factor);
        let deviant = mech.settle(&conducts, false);
        prop_assert!(deviant.utility(j) <= truthful.utility(j) + 1e-9);
    }

    #[test]
    fn truthful_utility_nonnegative(net in chain_strategy()) {
        let parts = dls::workloads::mechanism_parts(&net);
        let mech = DlsLbl::new(parts.root_rate, parts.link_rates.clone());
        let agents: Vec<Agent> = parts.true_rates.iter().map(|&t| Agent::new(t)).collect();
        let report = mechanism::verify::participation_report(&mech, &agents);
        prop_assert!(report.holds(1e-12));
    }

    #[test]
    fn overload_recompense_neutralizes_extra_work(
        net in chain_strategy(),
        extra in 0.0f64..0.5,
    ) {
        // E_j makes a victim indifferent to receiving extra load.
        let parts = dls::workloads::mechanism_parts(&net);
        let mech = DlsLbl::new(parts.root_rate, parts.link_rates.clone());
        let agents: Vec<Agent> = parts.true_rates.iter().map(|&t| Agent::new(t)).collect();
        let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        let base = mech.settle(&truthful, false);
        let j = agents.len(); // the terminal node absorbs overloads
        let mut overloaded = truthful.clone();
        overloaded[j - 1].actual_load = Some(base.agents[j - 1].assigned_load + extra);
        let outcome = mech.settle(&overloaded, false);
        prop_assert!((outcome.utility(j) - base.utility(j)).abs() < 1e-9);
    }

    #[test]
    fn gantt_horizon_equals_makespan(net in chain_strategy()) {
        let sol = dlt::linear::solve(&net);
        let run = sim::simulate_honest(&net, &sol.local);
        prop_assert!((run.gantt.horizon() - run.makespan).abs() < 1e-9);
    }

    #[test]
    fn star_solver_feasible_and_balanced(
        w in proptest::collection::vec(0.1f64..10.0, 2..10),
        seed in 0u64..1000,
    ) {
        let z: Vec<f64> = (0..w.len() - 1).map(|i| 0.01 + ((seed + i as u64) % 10) as f64 * 0.1).collect();
        let star = StarNetwork::from_rates(&w, &z);
        let sol = dlt::star::solve(&star);
        sol.alloc.validate().unwrap();
        prop_assert!(dlt::star::participation_spread(&star, &sol.alloc) < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn protocol_honest_runs_always_clean(
        w in proptest::collection::vec(0.2f64..5.0, 3..8),
        seed in 0u64..10_000,
    ) {
        let z: Vec<f64> = (0..w.len() - 1).map(|i| 0.05 + (i as f64 * 0.07) % 0.5).collect();
        let net = LinearNetwork::from_rates(&w, &z);
        let parts = dls::workloads::mechanism_parts(&net);
        let scenario = Scenario::honest(parts.root_rate, parts.true_rates, parts.link_rates)
            .with_seed(seed);
        let report = dls::protocol::run(&scenario);
        prop_assert!(report.clean());
        prop_assert_eq!(report.ledger.total_fines(), 0.0);
        for j in 1..w.len() {
            prop_assert!(report.utility(j) >= -1e-9);
        }
    }

    #[test]
    fn lambda_tags_are_nested_suffixes_along_the_chain(
        w in proptest::collection::vec(0.2f64..5.0, 3..8),
        codes in proptest::collection::vec(0usize..=9, 8),
        seed in 0u64..10_000,
    ) {
        // The Λ block ids delivered down the chain must form nested
        // suffixes of the mint's id space: node i+1 receives exactly the
        // tail of what node i received. Holds for honest runs and under
        // every deviation combo — shedding shrinks the flow but never
        // reorders or forks the block stream.
        use dls::protocol::transcript::Entry;
        let z: Vec<f64> = (0..w.len() - 1).map(|i| 0.05 + (i as f64 * 0.07) % 0.5).collect();
        let net = LinearNetwork::from_rates(&w, &z);
        let parts = dls::workloads::mechanism_parts(&net);
        let mut scenario = Scenario::honest(parts.root_rate, parts.true_rates, parts.link_rates)
            .with_seed(seed);
        let catalog = Deviation::catalog();
        for j in 1..w.len() {
            if codes[j - 1] > 0 {
                scenario = scenario.with_deviation(j, catalog[codes[j - 1] - 1]);
            }
        }
        let report = dls::protocol::run(&scenario);
        let mint = dls::protocol::BlockMint::new(scenario.blocks, scenario.seed ^ 0x5EED_B10C);
        let full = mint.range(0, scenario.blocks);
        let deliveries: Vec<_> = report
            .transcript
            .entries()
            .iter()
            .filter_map(|e| match e {
                Entry::PhaseIIIDelivery { to, tag, .. } => Some((*to, tag.clone())),
                _ => None,
            })
            .collect();
        prop_assert_eq!(deliveries.len(), w.len() - 1);
        for pair in deliveries.windows(2) {
            let (a, tag_a) = (&pair[0].0, &pair[0].1);
            let (b, tag_b) = (&pair[1].0, &pair[1].1);
            prop_assert_eq!(*b, *a + 1);
            prop_assert!(
                tag_a.ids().ends_with(&tag_b.ids()),
                "delivery to P{} is not a suffix of delivery to P{}", b, a
            );
        }
        for (to, tag) in &deliveries {
            prop_assert!(
                full.ids().ends_with(&tag.ids()),
                "delivery to P{} is not a suffix of the block space", to
            );
            prop_assert!(mint.verify(tag).is_some(), "genuine tag failed verification");
        }
    }

    #[test]
    fn replay_never_accuses_honest_nodes(
        w in proptest::collection::vec(0.2f64..5.0, 3..8),
        codes in proptest::collection::vec(0usize..=9, 8),
        seed in 0u64..10_000,
    ) {
        // Forensic soundness of the transcript audit, fuzzed over random
        // chains and random deviation combos (including all-honest): every
        // replay finding names a node that actually deviated.
        let z: Vec<f64> = (0..w.len() - 1).map(|i| 0.05 + (i as f64 * 0.07) % 0.5).collect();
        let net = LinearNetwork::from_rates(&w, &z);
        let parts = dls::workloads::mechanism_parts(&net);
        let mut scenario = Scenario::honest(parts.root_rate, parts.true_rates, parts.link_rates)
            .with_seed(seed);
        let catalog = Deviation::catalog();
        for j in 1..w.len() {
            if codes[j - 1] > 0 {
                scenario = scenario.with_deviation(j, catalog[codes[j - 1] - 1]);
            }
        }
        let report = dls::protocol::run(&scenario);
        let registry = dls::protocol::Registry::new(w.len(), scenario.seed);
        let mint = dls::protocol::BlockMint::new(scenario.blocks, scenario.seed ^ 0x5EED_B10C);
        let findings = dls::protocol::replay(&report.transcript, &registry, &mint);
        for f in &findings {
            prop_assert!(f.accused >= 1, "replay accused the obedient root: {:?}", f);
            prop_assert!(
                codes[f.accused - 1] > 0,
                "replay accused honest P{} (codes {:?}, finding {:?})", f.accused, codes, f
            );
        }
    }

    #[test]
    fn exact_solver_agrees_with_f64(
        w in proptest::collection::vec(1i64..50, 2..8),
        z_seed in 0u64..100,
    ) {
        let z: Vec<i64> = (0..w.len() - 1).map(|i| 1 + ((z_seed + i as u64) % 9) as i64).collect();
        let chain = dlt::exact::ExactChain::from_scaled_ints(&w, &z, 10);
        let exact_sol = dlt::exact::chain::solve(&chain);
        prop_assert!(dlt::exact::chain::verify_equal_finish(&chain, &exact_sol));
        prop_assert!(dlt::exact::chain::verify_total(&exact_sol));
        let f64sol = dlt::linear::solve(&chain.to_f64_network());
        for i in 0..w.len() {
            prop_assert!((exact_sol.alloc[i].to_f64() - f64sol.alloc.alpha(i)).abs() < 1e-9);
        }
    }
}

//! The tree-fault property harness.
//!
//! Invariant proptests over the shared `workloads::tree_shape_grid`
//! population (stars, a balanced binary tree, seeded random trees,
//! degenerate paths) × seeded multi-fault plans:
//!
//! * **Load conservation** — the unit workload is fully completed across
//!   any composition of subtree splices.
//! * **No honest survivor is ever fined** (the tree extension of the
//!   fault-tolerant Lemma 5.2 corollary).
//! * **Deterministic replay** — the same `(TreeScenario, FaultPlan)` pair
//!   yields a byte-identical `FtTreeRunReport`.
//! * **Pro-rata settlement** — a mid-computation halt on a branching tree
//!   lands at exactly zero net utility.
//!
//! And the pinning trick: a degenerate path (every node with at most one
//! child) *is* a chain, so `ft_tree_runner` on it must be **byte-
//! identical** to the frozen linear fault path — `ft_runner` for every
//! plan, and `ft_reference` for every ≤1-halt plan — over the exact E22
//! population (crash pairs, cascades, seeded mixed batches) rebuilt as
//! path-shaped tree scenarios.

use dlt::model::{LinearNetwork, TreeNode};
use mechanism::payment;
use proptest::prelude::*;
use protocol::ft_tree_runner::FtTreeRunReport;
use protocol::tree_runner::TreeArbitration;
use protocol::{
    run_tree_with_faults, run_with_faults, run_with_faults_single, FaultKind, FaultPlan,
    FtRunReport, Scenario, TreeScenario,
};
use workloads::{
    cascade_grid, crash_pair_grid, multi_label, seeded_multi_cases, tree_shape_grid, FaultCase,
    FaultCaseKind, TreeFaultCase,
};

fn to_plan(cases: &[FaultCase]) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for case in cases {
        let kind = match case.kind {
            FaultCaseKind::Crash => FaultKind::Crash {
                phase: case.phase,
                progress: case.progress,
            },
            FaultCaseKind::Stall => FaultKind::Stall {
                progress: case.progress,
            },
            FaultCaseKind::DropMessage => FaultKind::DropMessage { phase: case.phase },
            FaultCaseKind::DelayMessage => FaultKind::DelayMessage {
                phase: case.phase,
                delay: case.delay,
            },
            FaultCaseKind::CorruptMessage => FaultKind::CorruptMessage { phase: case.phase },
        };
        plan = plan.with_event(case.node, kind);
    }
    plan
}

fn scenario_of(case: &TreeFaultCase) -> TreeScenario {
    TreeScenario::honest(case.shape.clone(), case.true_rates.clone())
}

/// Independent rebuild of the path→chain conversion — deliberately not
/// `ft_tree_runner::as_chain_scenario`, so a bug there cannot hide in the
/// differential.
fn chain_of_path(s: &TreeScenario) -> Scenario {
    let mut links = Vec::new();
    let mut node = &s.shape;
    while let Some((link, child)) = node.children.first() {
        assert_eq!(node.children.len(), 1, "not a path");
        links.push(link.z);
        node = child;
    }
    Scenario::honest(s.shape.processor.w, s.true_rates.clone(), links)
        .with_fine(s.fine)
        .with_seed(s.seed)
}

/// Independent rebuild of the chain→tree report embedding.
fn expect_of_chain(r: FtRunReport) -> FtTreeRunReport {
    FtTreeRunReport {
        crashed: r.crashed,
        stalled: r.stalled,
        detected: r.detected,
        assigned: r.assigned,
        completed: r.completed,
        recovered_load: r.recovered_load,
        recovery_assigned: r.recovery_assigned,
        makespan: r.makespan,
        base_makespan: r.base_makespan,
        arbitrations: r
            .arbitrations
            .iter()
            .map(|a| TreeArbitration {
                claimant: a.claimant,
                accused: a.accused,
                complaint: a.complaint.clone(),
                substantiated: a.substantiated,
            })
            .collect(),
        ledger: r.ledger,
        net_utilities: r.net_utilities,
        splice_map: r.splice_map,
        timeline: r.timeline,
    }
}

fn is_path(node: &TreeNode) -> bool {
    node.children.len() <= 1 && node.children.iter().all(|(_, c)| is_path(c))
}

/// Assert byte-identity of the tree engine against both frozen linear
/// paths on a path-shaped scenario.
fn assert_path_matches_chain(s: &TreeScenario, plan: &FaultPlan, tag: &str) {
    let tree = run_tree_with_faults(s, plan).expect("valid plan");
    let chain = chain_of_path(s);
    let lin = run_with_faults(&chain, plan).expect("valid plan");
    let expected = expect_of_chain(lin);
    assert_eq!(
        format!("{tree:?}"),
        format!("{expected:?}"),
        "{tag}: tree engine diverged from ft_runner on a path"
    );
    assert_eq!(tree, expected, "{tag}: PartialEq divergence");
    if plan.halting_faults().count() <= 1 {
        let frozen = run_with_faults_single(&chain, plan).expect("valid plan");
        assert_eq!(
            format!("{tree:?}"),
            format!("{:?}", expect_of_chain(frozen)),
            "{tag}: tree engine diverged from the frozen PR 1 reference"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole invariants over the shared shape grid × seeded
    /// multi-fault plans.
    #[test]
    fn tree_fault_plans_hold_the_invariants(
        grid_seed in 0u64..8,
        case_ix in 0usize..16,
        plan_seed in 0u64..1_000_000,
    ) {
        let grid = tree_shape_grid(grid_seed);
        let case = &grid[case_ix % grid.len()];
        let s = scenario_of(case);
        let m = s.num_agents();
        let plan = FaultPlan::seeded_multi(plan_seed, m, 3);
        let ft = run_tree_with_faults(&s, &plan).expect("seeded plans are valid");

        prop_assert!(
            ft.load_conserved(1e-9),
            "{}: lost load, completed {:?}", case.label, ft.completed
        );
        prop_assert!(
            ft.makespan >= ft.base_makespan - 1e-12,
            "{}: recovery cannot be free", case.label
        );
        for j in 1..=m {
            prop_assert!(
                ft.fines_paid(j) <= 1e-12,
                "{}: honest P{j} fined", case.label
            );
        }

        // Settlement of the dead, by the phase the halt struck in.
        for ev in plan.halting_faults() {
            let k = ev.node;
            match ev.kind.halt_phase() {
                Some(3) => prop_assert!(
                    ft.net_utilities[k - 1].abs() <= 1e-9,
                    "{}: pro-rata settlement must land P{k} at zero utility, got {}",
                    case.label, ft.net_utilities[k - 1]
                ),
                Some(1) | Some(2) => {
                    prop_assert_eq!(ft.completed[k], 0.0);
                    prop_assert!(
                        ft.ledger.net(k).abs() <= 1e-12,
                        "{}: P{k} crashed pre-distribution but has ledger net {}",
                        case.label, ft.ledger.net(k)
                    );
                }
                _ => {}
            }
        }

        // Survivors that performed recovery work are paid a wage for it.
        for j in 1..=m {
            if ft.halted().any(|h| h == j) || ft.recovery_assigned[j] <= 0.0 {
                continue;
            }
            let wage = payment::recovery_wage(ft.recovery_assigned[j], s.true_rates[j - 1]);
            prop_assert!(
                ft.ledger.net(j) >= wage - 1e-9,
                "{}: P{j} performed recovery work but was not paid its wage", case.label
            );
        }

        // Replay is bit-identical.
        let again = run_tree_with_faults(&s, &plan).expect("seeded plans are valid");
        prop_assert_eq!(&ft, &again, "replay diverged");
        prop_assert_eq!(format!("{ft:?}"), format!("{again:?}"), "debug replay diverged");
    }

    /// Random plans on random degenerate paths are byte-identical to the
    /// linear fault engines.
    #[test]
    fn random_paths_match_the_chain_engine(
        grid_seed in 0u64..32,
        plan_seed in 0u64..1_000_000,
    ) {
        let grid = tree_shape_grid(grid_seed);
        let case = grid.iter().find(|c| is_path(&c.shape)).expect("grid has paths");
        let s = scenario_of(case);
        let plan = FaultPlan::seeded_multi(plan_seed, s.num_agents(), 3);
        assert_path_matches_chain(&s, &plan, &format!("{} seed={plan_seed}", case.label));
    }
}

/// The exact E22 multi-failure population — crash pairs over every phase
/// combination, recovery-during-recovery cascades, seeded mixed batches —
/// rebuilt as degenerate-path tree scenarios: every single run must be
/// byte-identical to the linear `ft_runner` (report, ledger, payments),
/// and every ≤1-halt plan to the frozen `ft_reference` as well.
#[test]
fn e22_population_on_paths_is_byte_identical_to_the_chain_engine() {
    // The E20/E22 heterogeneous chain, as a path-shaped tree.
    let path = |m: usize| -> TreeScenario {
        let true_rates: Vec<f64> = (0..m).map(|j| 0.6 + 0.8 * ((j * 5 % 4) as f64)).collect();
        let link_rates: Vec<f64> = (0..m).map(|j| 0.1 + 0.12 * ((j * 3 % 3) as f64)).collect();
        let mut w = vec![1.0];
        w.extend_from_slice(&true_rates);
        let net = LinearNetwork::from_rates(&w, &link_rates);
        TreeScenario::honest(TreeNode::from_chain(&net), true_rates)
    };

    let mut runs = 0usize;
    const PHASE_PAIRS: [(u8, u8); 5] = [(1, 1), (3, 3), (4, 4), (1, 3), (3, 4)];
    for m in 3..=6usize {
        let s = path(m);
        for cases in crash_pair_grid(m, &PHASE_PAIRS, 0.5) {
            assert_path_matches_chain(&s, &to_plan(&cases), &multi_label(&cases));
            runs += 1;
        }
    }
    let s = path(6);
    for cases in cascade_grid(6, 4, &[0.25, 0.5, 0.75]) {
        assert_path_matches_chain(&s, &to_plan(&cases), &multi_label(&cases));
        runs += 1;
    }
    for m in 2..=7usize {
        let s = path(m);
        for cases in seeded_multi_cases(0xE22, m, 60, 3) {
            assert_path_matches_chain(&s, &to_plan(&cases), &multi_label(&cases));
            runs += 1;
        }
    }
    assert!(runs > 700, "population shrank to {runs} runs");
}

/// Cutting an internal node pre-distribution re-attaches its subtrees:
/// the survivor allocation equals solving the spliced true-rate tree
/// directly, and the orphaned children keep working.
#[test]
fn internal_crash_reattaches_subtrees_on_every_grid_shape() {
    for case in tree_shape_grid(0xE24) {
        let s = scenario_of(&case);
        let flat_children: Vec<usize> = (1..=s.num_agents())
            .filter(|&k| {
                // Internal strategic nodes only: k has children.
                fn count(node: &TreeNode, idx: &mut usize, k: usize) -> bool {
                    let here = *idx;
                    *idx += 1;
                    if here == k {
                        return !node.children.is_empty();
                    }
                    node.children.iter().any(|(_, c)| count(c, idx, k))
                }
                count(&s.shape, &mut 0, k)
            })
            .collect();
        for k in flat_children {
            let ft = run_tree_with_faults(&s, &FaultPlan::crash(k, 1, 0.0)).expect("valid");
            assert!(ft.load_conserved(1e-9), "{} k={k}", case.label);
            assert_eq!(ft.completed[k], 0.0);
            assert_eq!(ft.splice_map[k], None);
            let spliced = dlt::tree::splice_node(&with_true_rates(&s), k);
            let shares = dlt::tree::solve(&spliced.tree).alpha;
            for (old, new) in spliced.map.iter().enumerate() {
                if let Some(new) = new {
                    assert!(
                        (ft.completed[old] - shares[*new]).abs() < 1e-9,
                        "{} k={k} node {old}: {} vs {}",
                        case.label,
                        ft.completed[old],
                        shares[*new]
                    );
                }
            }
        }
    }
}

/// The scenario's shape with the *true* rates substituted at the agents.
fn with_true_rates(s: &TreeScenario) -> TreeNode {
    fn rebuild(node: &TreeNode, rates: &[f64], next: &mut usize, is_root: bool) -> TreeNode {
        let w = if is_root {
            node.processor.w
        } else {
            let r = rates[*next];
            *next += 1;
            r
        };
        TreeNode {
            processor: dlt::model::Processor::new(w),
            children: node
                .children
                .iter()
                .map(|(l, c)| (dlt::model::Link::new(l.z), rebuild(c, rates, next, false)))
                .collect(),
        }
    }
    rebuild(&s.shape, &s.true_rates, &mut 0, true)
}

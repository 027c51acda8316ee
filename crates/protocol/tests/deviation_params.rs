//! Deviation parameters that would break a run are typed rejections at
//! every fallible entry point — `try_run` and the chain and tree
//! fault-tolerant runners — never a panic inside the run and never a
//! silent NaN verdict. Parameters in range keep running.

use dlt::model::TreeNode;
use protocol::{
    run_tree, run_tree_with_faults, run_with_faults, try_run, Deviation, FaultPlan, Scenario,
    TreeScenario,
};

/// Deviations whose parameter is non-finite, or makes a rate that is not
/// positive.
fn out_of_range() -> Vec<Deviation> {
    let mut out = Vec::new();
    let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for f in [0.0, -0.0, -0.5].into_iter().chain(non_finite) {
        out.extend([
            Deviation::Underbid { factor: f },
            Deviation::Overbid { factor: f },
            Deviation::SlackExecution { factor: f },
            Deviation::WrongEquivalent { factor: f },
        ]);
    }
    for x in non_finite {
        out.extend([
            Deviation::ContradictoryBid { second_factor: x },
            Deviation::WrongDistribution { factor: x },
            Deviation::ShedLoad { keep_fraction: x },
            Deviation::Overcharge { amount: x },
        ]);
    }
    out
}

/// The catalog plus parameters at the edges of their ranges.
fn in_range() -> Vec<Deviation> {
    let mut out = Deviation::catalog();
    out.extend([
        Deviation::Underbid { factor: 1e-3 },
        Deviation::Overbid { factor: 40.0 },
        Deviation::SlackExecution { factor: 1e-3 },
        Deviation::WrongEquivalent { factor: 25.0 },
        Deviation::ContradictoryBid {
            second_factor: -1.0,
        },
        Deviation::WrongDistribution { factor: 0.0 },
        Deviation::ShedLoad { keep_fraction: 0.0 },
        Deviation::ShedLoad {
            keep_fraction: -0.5,
        },
        Deviation::Overcharge { amount: -1.0 },
    ]);
    out
}

fn chain() -> Scenario {
    Scenario::honest(1.0, vec![2.0, 0.5, 4.0], vec![0.2, 0.1, 0.7])
}

fn tree() -> TreeScenario {
    let shape = TreeNode::internal(
        1.0,
        vec![
            (
                0.15,
                TreeNode::internal(
                    1.0,
                    vec![(0.05, TreeNode::leaf(1.0)), (0.25, TreeNode::leaf(1.0))],
                ),
            ),
            (0.30, TreeNode::leaf(1.0)),
        ],
    );
    TreeScenario::honest(shape, vec![1.4, 2.2, 0.7, 1.9])
}

/// The rejection names the deviant's slot.
fn names_slot(error: String, j: usize) -> bool {
    error.contains(&format!("deviations[{}]", j - 1))
}

#[test]
fn out_of_range_parameters_are_typed_errors_on_chains() {
    for d in out_of_range() {
        for j in 1..=3 {
            let s = chain().with_deviation(j, d);
            let e = try_run(&s).expect_err("accepted").to_string();
            assert!(names_slot(e, j), "{d:?} at P{j}");
            for plan in [FaultPlan::none(), FaultPlan::crash(1, 3, 0.5)] {
                let e = run_with_faults(&s, &plan).expect_err("accepted");
                assert!(names_slot(e.to_string(), j), "{d:?} at P{j}");
            }
        }
    }
}

#[test]
fn out_of_range_parameters_are_typed_errors_on_trees() {
    for d in out_of_range() {
        for j in 1..=4 {
            let s = tree().with_deviation(j, d);
            for plan in [FaultPlan::none(), FaultPlan::crash(4, 3, 0.5)] {
                let e = run_tree_with_faults(&s, &plan).expect_err("accepted");
                assert!(names_slot(e.to_string(), j), "{d:?} at P{j}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "invalid scenario: deviations[0]")]
fn run_tree_refuses_an_out_of_range_parameter() {
    run_tree(&tree().with_deviation(1, Deviation::WrongEquivalent { factor: 0.0 }));
}

#[test]
fn in_range_parameters_still_run_to_finite_verdicts() {
    for d in in_range() {
        for j in 1..=3 {
            let report = try_run(&chain().with_deviation(j, d)).expect("valid");
            assert!(report.net_utilities.iter().all(|u| u.is_finite()), "{d:?}");
        }
        for j in 1..=4 {
            let s = tree().with_deviation(j, d);
            let report = run_tree_with_faults(&s, &FaultPlan::crash(4, 3, 0.5)).expect("valid");
            assert!(report.net_utilities.iter().all(|u| u.is_finite()), "{d:?}");
            let report = run_tree(&s);
            assert!(report.net_utilities.iter().all(|u| u.is_finite()), "{d:?}");
        }
    }
}

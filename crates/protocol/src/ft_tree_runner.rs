//! Fault-tolerant **tree** protocol execution: run a [`TreeScenario`]
//! under an injected [`FaultPlan`] and recover by **subtree
//! re-attachment** ([`dlt::tree::splice_node`]).
//!
//! The recovery protocol is the chain's ([`crate::ft_runner`]), written
//! once in the crate's recovery engine (`ft_engine`). This module is the
//! engine's tree topology:
//!
//! * **Splice**: the failed node may route several subtrees, so the splice
//!   re-attaches *every* child subtree of the dead node to the dead node's
//!   parent. Each re-attached subtree's incoming link fuses with the dead
//!   node's (`z(parent→child) = z(parent→dead) + z(dead→child)` — the data
//!   travels both hops, store-and-forward), and the parent's service order
//!   is re-canonicalized because the fused links can land anywhere in the
//!   ascending-link sequence. [`FtTreeRunReport::splice_map`] records
//!   where every survivor ended up.
//! * **Detection**: a node's first child is the first in canonical service
//!   order, so a silent node's Phase II allocation is awaited by that child
//!   (the root for a leaf). On a degenerate path the rules reduce to the
//!   chain's predecessor/successor rules. Parents, first children and
//!   links come from the run's [`dlt::tree::FlatTree`], built once per
//!   network and once per survivor network.
//! * **Re-solve and re-settlement**: residuals are re-solved over the
//!   spliced *bid* tree by the flat two-pass [`dlt::tree::solve`], down to
//!   a lone surviving root; a silent Phase IV node's honest bill comes
//!   from the root's own [`TreeMechanism`] settlement.
//! * **Base run**: the shared four-phase skeleton's tree impl
//!   (`tree_runner`) keeps no transcript and times no node, so a
//!   branching tree's timeline carries only the detection waits, splice
//!   instants and recovery spans.
//!
//! ### Degenerate paths delegate to the chain engine
//! A tree in which every node has at most one child *is* a chain, so this
//! engine detects the shape after canonicalization and routes it through
//! [`crate::ft_runner::run_with_faults`] on the faithfully converted
//! [`Scenario`] — chain fault semantics are inherited, not re-derived, and
//! the result is **byte-identical** to the frozen linear fault path by
//! construction (the same way `svc` cache hits are bit-identical to cold
//! solves). The `tree_fault` differential suite pins the routing and the
//! scenario conversion against drift, over the full E22 population.
//!
//! ### Determinism and the no-fault property
//! Given the same `(TreeScenario, FaultPlan)` pair the report is
//! bit-identical — faults are part of the experiment description, not
//! sampled during the run — and across every injected fault no honest
//! survivor is ever fined (the tree extension of Lemma 5.2's no-fault
//! corollary).

use crate::crypto::NodeId;
use crate::faults::FaultPlan;
use crate::ft_engine::{self, BaseRun, Topology};
use crate::ft_runner::{FtError, FtRunReport};
use crate::ledger::Ledger;
use crate::phases;
use crate::runner::{Scenario, ScenarioError};
use crate::tree_runner::{TreeArbitration, TreeRun, TreeScenario};
use dlt::model::{Processor, TreeNode};
use dlt::tree::{self, SplicedTree};
use mechanism::dls_tree::TreeMechanism;
use mechanism::Conduct;
use std::borrow::Cow;

/// Everything a fault-tolerant tree run produced. All per-node vectors use
/// the **original** preorder indexing over the canonicalized shape (`0` =
/// root, length `m + 1` or `m`), even when recovery ran on a spliced tree.
#[derive(Debug, Clone, PartialEq)]
pub struct FtTreeRunReport {
    /// Every crash-stopped node, in detection order.
    pub crashed: Vec<NodeId>,
    /// Every stalled (alive but unproductive) node, in detection order.
    pub stalled: Vec<NodeId>,
    /// Every detection event: `(detector, suspect, phase)`.
    pub detected: Vec<(NodeId, NodeId, u8)>,
    /// Load prescribed per node by the (possibly re-run) Phase II.
    pub assigned: Vec<f64>,
    /// Load each node actually finished, including recovery work. Sums to
    /// the unit workload whenever recovery succeeded.
    pub completed: Vec<f64>,
    /// Total residual load the recovery rounds re-assigned, counted with
    /// multiplicity across rounds. 0 when nothing halted mid-computation.
    pub recovered_load: f64,
    /// Extra load each node received from recovery **and actually
    /// performed**.
    pub recovery_assigned: Vec<f64>,
    /// Realized makespan including detection and recovery overhead.
    pub makespan: f64,
    /// Makespan of the same scenario with no faults (for overhead plots).
    pub base_makespan: f64,
    /// All arbitration records (timeout complaints included), in order.
    pub arbitrations: Vec<TreeArbitration>,
    /// The full ledger, renumbered to original indices.
    pub ledger: Ledger,
    /// Net utility of every strategic processor (`net_utilities[j-1]` is
    /// `P_j`'s), original indexing; a halted node's reflects pro-rata
    /// settlement.
    pub net_utilities: Vec<f64>,
    /// `splice_map[old] = Some(new)` maps original to post-splice preorder
    /// indices; `None` marks a removed node. Composed across nested
    /// splices. Identity when nothing was spliced before distribution.
    pub splice_map: Vec<Option<usize>>,
    /// Deterministic per-run timeline on the same virtual clock as
    /// `makespan`. On a degenerate path (chain delegation) this is the
    /// chain engine's full timeline; on a branching tree it carries the
    /// detection-timeout waits, splice instants and recovery spans (the
    /// base tree run does not time individual nodes).
    pub timeline: obs::PhaseTimeline,
}

/// `shape` with `rates` at the non-root processors (preorder); the
/// trusted root rate and all link rates are kept.
fn with_rates(shape: &TreeNode, rates: &[f64]) -> TreeNode {
    fn set(node: &mut TreeNode, rates: &mut std::slice::Iter<'_, f64>) {
        for (_, child) in &mut node.children {
            child.processor = Processor::new(*rates.next().expect("one rate per non-root node"));
            set(child, rates);
        }
    }
    let mut out = shape.clone();
    set(&mut out, &mut rates.iter());
    out
}

/// If the canonicalized shape is a degenerate path — every node has at
/// most one child — convert the scenario faithfully to the chain
/// [`Scenario`] it is: same preorder agent indexing, same fine schedule,
/// blocks and seed, no solution bonus (the tree protocol has none).
/// Returns `None` for a branching tree.
pub fn as_chain_scenario(scenario: &TreeScenario) -> Option<Scenario> {
    TreeRun::new(Cow::Borrowed(scenario)).as_chain()
}

impl TreeRun<'_> {
    /// [`as_chain_scenario`] of the run's scenario.
    fn as_chain(&self) -> Option<Scenario> {
        // A path: every node's parent is its preorder predecessor.
        let (flat, scenario) = (&self.flat, &*self.scenario);
        if (1..flat.len()).any(|i| flat.parent[i] != i - 1) {
            return None;
        }
        // On a path, preorder is chain order and `link[j]` feeds `P_j`.
        Some(Scenario {
            root_rate: flat.rate[0],
            true_rates: scenario.true_rates.clone(),
            link_rates: flat.link[1..].to_vec(),
            deviations: scenario.deviations.clone(),
            fine: scenario.fine,
            blocks: scenario.blocks,
            seed: scenario.seed,
            solution_bonus: 0.0,
            solution_found: false,
        })
    }
}

/// Wrap the engine's report into the tree report shape, verbatim: the
/// tree report has no transcript or event count, and its arbitration
/// records no fine amounts — unresponsive probes are no-fault (always
/// zero) and any real fine lives in the ledger.
fn from_chain_report(r: FtRunReport) -> FtTreeRunReport {
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
        arbitrations: r.arbitrations.into_iter().map(Into::into).collect(),
        ledger: r.ledger,
        net_utilities: r.net_utilities,
        splice_map: r.splice_map,
        timeline: r.timeline,
    }
}

impl Topology for TreeRun<'_> {
    type BidNet = TreeNode;

    const TIMES_NODES: bool = false;

    fn root_rate(&self) -> f64 {
        self.flat.rate[0]
    }

    fn parent(&self, k: NodeId) -> NodeId {
        self.flat.parent[k]
    }

    fn first_child(&self, k: NodeId) -> Option<NodeId> {
        self.children(k).first().copied()
    }

    fn base_run(&self) -> Result<BaseRun, ScenarioError> {
        Ok(phases::run(self).0)
    }

    /// Splicing moves no processor, so every survivor keeps its true rate
    /// and deviation, renumbered through the splice map.
    fn without(&self, k: NodeId) -> (Self, Vec<Option<usize>>) {
        let s = &*self.scenario;
        let true_tree = with_rates(&s.shape, &s.true_rates);
        let SplicedTree { tree: shape, map } = tree::splice_node(&true_tree, k);
        let mut true_rates = vec![0.0; s.num_agents() - 1];
        let mut deviations = vec![crate::deviation::Deviation::None; s.num_agents() - 1];
        for (j, new) in map.iter().enumerate().skip(1) {
            if let Some(nj) = new {
                true_rates[nj - 1] = s.true_rates[j - 1];
                deviations[nj - 1] = s.deviations[j - 1];
            }
        }
        let survivors = TreeScenario {
            shape,
            true_rates,
            deviations,
            ..*s
        };
        (TreeRun::new(Cow::Owned(survivors)), map)
    }

    /// Bids do not move links, so the canonical order of the bid tree is
    /// the shape's own.
    fn bid_net(&self, base: &BaseRun) -> TreeNode {
        with_rates(&self.scenario.shape, &base.bids)
    }

    fn splice_bid_net(net: &mut TreeNode, orig_of: &mut Vec<usize>, at: usize) {
        let SplicedTree { tree, map } = tree::splice_node(net, at);
        *net = tree;
        *orig_of = ft_engine::originals(&map)
            .into_iter()
            .map(|old| orig_of[old])
            .collect();
    }

    fn allocation(t: &TreeNode) -> (f64, Vec<f64>) {
        let sol = tree::solve(t);
        (sol.equivalent[0], sol.alpha)
    }

    /// The same settlement the base run used — deterministic, so an honest
    /// casualty's re-posted bill is bit-identical to the one it never
    /// sent.
    fn billing<'a>(&'a self, base: &'a BaseRun) -> impl Fn(NodeId) -> (f64, f64) + 'a {
        let mech = TreeMechanism::new(self.scenario.shape.clone());
        let conducts: Vec<Conduct> = (1..=self.scenario.num_agents())
            .map(|j| Conduct {
                bid: base.bids[j - 1],
                actual_rate: base.actual_rates[j - 1],
                actual_load: Some(base.retained[j]),
            })
            .collect();
        let outcome = mech.settle(&conducts);
        move |k| {
            (
                outcome.payment(k),
                -base.retained[k] * base.actual_rates[k - 1],
            )
        }
    }

    /// `completed[j]` = base share + recovery work performed.
    fn valuation(base: &BaseRun, j: NodeId, _billed: Option<f64>, recovery: f64) -> f64 {
        -(base.retained[j] + recovery) * base.actual_rates[j - 1]
    }
}

/// Execute the tree scenario under `plan`, recovering from the injected
/// faults. Re-exported at the crate root as `run_tree_with_faults`.
pub fn run_with_faults(
    scenario: &TreeScenario,
    plan: &FaultPlan,
) -> Result<FtTreeRunReport, FtError> {
    let run = TreeRun::new(Cow::Borrowed(scenario));
    run.validate()?;
    let m = scenario.num_agents();
    plan.validate(m)?;
    let _ft_span =
        obs::span!("protocol.ft_tree.run", "m" => m, "timeout" => plan.detection_timeout);

    let report = match run.as_chain() {
        // A degenerate path IS a chain: inherit the frozen chain fault
        // semantics wholesale — byte-identical by construction.
        Some(chain) => crate::ft_runner::run_with_faults(&chain, plan)?,
        None => ft_engine::run(&run, plan)?,
    };
    Ok(from_chain_report(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deviation::Deviation;
    use crate::faults::{FaultError, FaultKind};
    use crate::tree_runner::run_tree;

    /// The 7-node two-level tree of the `tree_runner` tests.
    fn shape() -> TreeNode {
        TreeNode::internal(
            1.0,
            vec![
                (
                    0.15,
                    TreeNode::internal(
                        1.0,
                        vec![(0.05, TreeNode::leaf(1.0)), (0.25, TreeNode::leaf(1.0))],
                    ),
                ),
                (
                    0.30,
                    TreeNode::internal(
                        1.0,
                        vec![(0.10, TreeNode::leaf(1.0)), (0.20, TreeNode::leaf(1.0))],
                    ),
                ),
            ],
        )
    }

    fn scenario() -> TreeScenario {
        TreeScenario::honest(shape(), vec![1.4, 2.2, 0.7, 1.9, 1.1, 3.0])
    }

    #[test]
    fn empty_plan_matches_plain_tree_run() {
        let s = scenario();
        let plain = run_tree(&s);
        let ft = run_with_faults(&s, &FaultPlan::none()).unwrap();
        assert_eq!(ft.makespan, plain.makespan);
        assert_eq!(ft.net_utilities, plain.net_utilities);
        assert_eq!(ft.completed, plain.retained);
        assert!(ft.crashed.is_empty() && ft.stalled.is_empty());
        assert_eq!(ft.overhead(), 0.0);
    }

    #[test]
    fn any_single_crash_recovers_on_the_branching_tree() {
        let s = scenario();
        let m = s.num_agents();
        for k in 1..=m {
            for phase in 1..=4u8 {
                for progress in [0.0, 0.37, 1.0] {
                    let plan = FaultPlan::crash(k, phase, progress);
                    let ft = run_with_faults(&s, &plan).unwrap();
                    assert_eq!(ft.crashed, vec![k]);
                    assert!(
                        ft.load_conserved(1e-9),
                        "k={k} phase={phase} p={progress}: completed {:?}",
                        ft.completed
                    );
                    assert!(ft.makespan >= ft.base_makespan, "recovery cannot be free");
                    for j in 1..=m {
                        assert!(
                            ft.fines_paid(j) <= 1e-12,
                            "honest P{j} fined after crash of P{k} in phase {phase}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn internal_node_crash_reattaches_its_subtrees() {
        // Node 1 routes the subtree {2, 3}; cutting it pre-distribution
        // must keep its children productive, not orphan them.
        let s = scenario();
        let ft = run_with_faults(&s, &FaultPlan::crash(1, 1, 0.0)).unwrap();
        assert!(ft.load_conserved(1e-9));
        assert_eq!(ft.completed[1], 0.0);
        assert!(
            ft.completed[2] > 0.0 && ft.completed[3] > 0.0,
            "re-attached subtree nodes still work: {:?}",
            ft.completed
        );
        assert_eq!(ft.splice_map[1], None);
        // The survivor allocation matches solving the spliced true-rate
        // tree directly.
        let true_tree = with_rates(&s.shape, &s.true_rates);
        let spliced = tree::splice_node(&true_tree, 1);
        let shares = tree::solve(&spliced.tree).alpha;
        for (old, new) in spliced.map.iter().enumerate() {
            if let Some(new) = new {
                assert!(
                    (ft.completed[old] - shares[*new]).abs() < 1e-12,
                    "node {old}: {} vs {}",
                    ft.completed[old],
                    shares[*new]
                );
            }
        }
    }

    #[test]
    fn phase3_crash_pays_pro_rata_and_keeps_survivors_whole() {
        let s = scenario();
        let plain = run_tree(&s);
        let ft = run_with_faults(&s, &FaultPlan::crash(4, 3, 0.4)).unwrap();
        assert!(
            ft.utility(4).abs() < 1e-9,
            "pro-rata utility {}",
            ft.utility(4)
        );
        assert!((ft.completed[4] - 0.4 * plain.retained[4]).abs() < 1e-12);
        for j in (1..=6).filter(|&j| j != 4) {
            assert!(
                (ft.utility(j) - plain.utility(j)).abs() < 1e-9,
                "P{j}: {} vs {}",
                ft.utility(j),
                plain.utility(j)
            );
        }
        assert!((ft.recovered_load - 0.6 * plain.retained[4]).abs() < 1e-12);
        let spread: f64 = ft.recovery_assigned.iter().sum();
        assert!((spread - ft.recovered_load).abs() < 1e-12);
        assert_eq!(ft.recovery_assigned[4], 0.0);
    }

    #[test]
    fn phase4_crash_settles_from_the_roots_recomputation() {
        let s = scenario();
        let plain = run_tree(&s);
        let ft = run_with_faults(&s, &FaultPlan::crash(2, 4, 0.0)).unwrap();
        assert!((ft.utility(2) - plain.utility(2)).abs() < 1e-9);
        assert!((ft.makespan - plain.makespan - FaultPlan::DEFAULT_TIMEOUT).abs() < 1e-12);
        assert!(ft.load_conserved(1e-9));
    }

    #[test]
    fn stall_triggers_recovery_without_conviction() {
        let s = scenario();
        let ft = run_with_faults(&s, &FaultPlan::stall(1, 0.25)).unwrap();
        assert_eq!(ft.stalled, vec![1]);
        assert!(ft.crashed.is_empty());
        assert!(ft.load_conserved(1e-9));
        let timeout_arb = ft
            .arbitrations
            .iter()
            .find(|a| a.complaint == "unresponsive")
            .unwrap();
        assert!(!timeout_arb.substantiated);
        for j in 1..=6 {
            assert!(ft.fines_paid(j) <= 1e-12, "P{j} fined for a stall");
        }
    }

    #[test]
    fn cascading_crashes_compose_subtree_splices() {
        let s = scenario();
        let plan = FaultPlan::crash(1, 1, 0.0).with_event(
            4,
            FaultKind::Crash {
                phase: 3,
                progress: 0.5,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![1, 4]);
        assert!(ft.load_conserved(1e-9));
        assert!(ft.recovered_load > 0.0);
        assert!(
            ft.utility(4).abs() < 1e-9,
            "inner casualty settled pro rata"
        );
        for j in 1..=6 {
            assert!(ft.fines_paid(j) <= 1e-12);
        }
        assert_eq!(ft.timeline.of(obs::TimelineKind::Splice).count(), 2);
    }

    #[test]
    fn all_strategic_nodes_crashing_leaves_the_root_alone() {
        let s = scenario();
        let mut plan = FaultPlan::crash(1, 3, 0.5);
        for k in 2..=6 {
            plan = plan.with_event(
                k,
                FaultKind::Crash {
                    phase: 3,
                    progress: 0.5,
                },
            );
        }
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![1, 2, 3, 4, 5, 6]);
        assert!(
            ft.load_conserved(1e-9),
            "the root absorbs the final residual: {:?}",
            ft.completed
        );
        for j in 1..=6 {
            assert!(ft.fines_paid(j) <= 1e-12);
            assert!(ft.utility(j).abs() < 1e-9, "P{j} settled pro rata");
        }
    }

    #[test]
    fn simultaneous_phase4_crashes_share_one_timeout() {
        let s = scenario();
        let plain = run_tree(&s);
        let plan = FaultPlan::crash(2, 4, 0.0).with_event(
            5,
            FaultKind::Crash {
                phase: 4,
                progress: 0.0,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![2, 5]);
        assert!(
            (ft.makespan - plain.makespan - FaultPlan::DEFAULT_TIMEOUT).abs() < 1e-12,
            "billing timers fire concurrently: one timeout, not two"
        );
        assert!((ft.utility(2) - plain.utility(2)).abs() < 1e-9);
        assert!((ft.utility(5) - plain.utility(5)).abs() < 1e-9);
        assert!(ft.load_conserved(1e-9));
    }

    #[test]
    fn message_faults_add_overhead_but_never_fines() {
        let s = scenario();
        let plain = run_tree(&s);
        let plan = FaultPlan::none()
            .with_event(1, FaultKind::DropMessage { phase: 1 })
            .with_event(2, FaultKind::CorruptMessage { phase: 2 })
            .with_event(
                4,
                FaultKind::DelayMessage {
                    phase: 4,
                    delay: 0.02,
                },
            );
        let ft = run_with_faults(&s, &plan).unwrap();
        // Node 2 is a leaf: it sends nothing in Phase II, so only the
        // drop and the delay cost anything.
        let expected = plain.makespan + FaultPlan::DEFAULT_TIMEOUT + 0.02;
        assert!((ft.makespan - expected).abs() < 1e-12);
        assert_eq!(ft.detected.len(), 1, "only the Phase I drop times out");
        for j in 1..=6 {
            assert!(ft.fines_paid(j) <= 1e-12, "P{j} fined for a network fault");
            assert!((ft.utility(j) - plain.utility(j)).abs() < 1e-9);
        }
        assert!(ft.load_conserved(1e-9));
    }

    #[test]
    fn deviant_that_crashes_keeps_its_earlier_fines() {
        let s = scenario().with_deviation(1, Deviation::WrongEquivalent { factor: 0.6 });
        let ft = run_with_faults(&s, &FaultPlan::crash(1, 3, 0.5)).unwrap();
        assert!(
            ft.fines_paid(1) > 0.0,
            "the Phase II conviction survives the crash"
        );
        assert!(ft.load_conserved(1e-9));
        assert!(
            ft.utility(1) < -1e-9,
            "fined deviant nets negative even with pro-rata pay"
        );
    }

    #[test]
    fn tree_reports_are_deterministic() {
        let s = scenario();
        for seed in 0..10u64 {
            let plan = FaultPlan::seeded_multi(seed, s.num_agents(), 3);
            let a = run_with_faults(&s, &plan).unwrap();
            let b = run_with_faults(&s, &plan).unwrap();
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        }
    }

    #[test]
    fn degenerate_path_delegates_to_the_chain_engine_byte_for_byte() {
        let net = dlt::model::LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]);
        let path = TreeNode::from_chain(&net);
        let s = TreeScenario::honest(path, vec![2.0, 0.5, 4.0]);
        let chain = as_chain_scenario(&s).expect("a path is a chain");
        for k in 1..=3 {
            for phase in 1..=4u8 {
                let plan = FaultPlan::crash(k, phase, 0.5);
                let ft = run_with_faults(&s, &plan).unwrap();
                let lin = crate::ft_runner::run_with_faults(&chain, &plan).unwrap();
                let expected = from_chain_report(lin);
                assert_eq!(
                    format!("{ft:?}"),
                    format!("{expected:?}"),
                    "k={k} phase={phase}"
                );
            }
        }
    }

    #[test]
    fn branching_trees_are_not_chains() {
        assert!(as_chain_scenario(&scenario()).is_none());
    }

    #[test]
    fn rejects_bad_plans_and_scenarios() {
        let s = scenario();
        assert!(matches!(
            run_with_faults(&s, &FaultPlan::crash(9, 1, 0.0)),
            Err(FtError::Fault(FaultError::NodeOutOfRange { .. }))
        ));
        let mut bad = scenario();
        bad.true_rates[0] = -1.0;
        assert!(matches!(
            run_with_faults(&bad, &FaultPlan::none()),
            Err(FtError::Scenario(ScenarioError::BadRate { .. }))
        ));
        let mut short = scenario();
        short.true_rates.pop();
        short.deviations.pop();
        assert!(matches!(
            run_with_faults(&short, &FaultPlan::none()),
            Err(FtError::Scenario(ScenarioError::LengthMismatch { .. }))
        ));
    }

    #[test]
    fn rejects_bad_root_and_link_rates_on_branching_trees() {
        // Rebuilding the tree for recovery must never be the first to see
        // a bad rate: validation rejects it with a typed error.
        let halting = FaultPlan::crash(1, 3, 0.5);
        let mut no_root = scenario();
        no_root.shape.processor.w = 0.0;
        assert!(matches!(
            run_with_faults(&no_root, &halting),
            Err(FtError::Scenario(ScenarioError::BadRate {
                field: "root_rate",
                index: 0,
                ..
            }))
        ));
        // Preorder: P_1 routes {P_2, P_3}; the link into P_3 is the third.
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let mut s = scenario();
            s.shape.children[0].1.children[1].0.z = bad;
            assert!(
                matches!(
                    run_with_faults(&s, &halting),
                    Err(FtError::Scenario(ScenarioError::BadRate {
                        field: "link_rates",
                        index: 2,
                        ..
                    }))
                ),
                "link rate {bad}"
            );
        }
        // A zero link models co-located processors, as `Link::new` allows.
        let mut colocated = scenario();
        colocated.shape.children[0].1.children[1].0.z = 0.0;
        assert!(run_with_faults(&colocated, &halting).is_ok());
    }

    #[test]
    fn seeded_multi_fault_sweeps_hold_the_invariants() {
        let s = scenario();
        let m = s.num_agents();
        for seed in 0..20u64 {
            let plan = FaultPlan::seeded_multi(seed, m, 3);
            let ft = run_with_faults(&s, &plan).unwrap();
            assert!(ft.load_conserved(1e-9), "seed={seed} plan {plan:?}");
            for j in 1..=m {
                assert!(
                    ft.fines_paid(j) <= 1e-12,
                    "seed={seed}: honest P{j} fined under {plan:?}"
                );
            }
        }
    }
}

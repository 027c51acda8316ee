//! The tree impl of the four-phase protocol — the enforcement layer for
//! the DLS-T companion mechanism (`mechanism::dls_tree`).
//!
//! Phases I–IV are the crate's shared `phases` skeleton; what changes on
//! a tree is the equivalent step (the local star's equal-finish makespan,
//! [`star::solve_into`]) and the Phase II message: a parent with several
//! children cannot be checked with the two-term balance identity (eq.
//! 2.7), so it hands every child its whole [`LocalDecision`] and the child
//! replays the local star. Phase III ships one-port in canonical service
//! order, a shedder spreading its excess over its children pro rata.
//! Every step reads the canonical shape's preorder layout
//! ([`dlt::tree::FlatTree`]), built once per run.

use crate::crypto::{Dsm, NodeId};
use crate::deviation::Deviation;
use crate::ledger::Ledger;
use crate::messages::{Complaint, LocalDecision};
use crate::phases::{self, Allocation, Execution, Phases, Run, Terms};
use crate::root::ArbitrationRecord;
use crate::runner::{check_rates, check_terms, ScenarioError};
use dlt::model::TreeNode;
use dlt::star;
use dlt::tree::FlatTree;
use mechanism::FineSchedule;
use std::borrow::Cow;

/// A tree protocol scenario. Agent indices are preorder positions over the
/// canonicalized shape's non-root nodes (1-based), matching
/// [`TreeMechanism`](mechanism::dls_tree::TreeMechanism).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeScenario {
    /// The network shape (root rate and link rates are trusted; non-root
    /// processor rates are placeholders).
    pub shape: TreeNode,
    /// True rates of the strategic nodes, preorder over the canonicalized
    /// shape.
    pub true_rates: Vec<f64>,
    /// Per-agent deviations.
    pub deviations: Vec<Deviation>,
    /// Fine schedule.
    pub fine: FineSchedule,
    /// Λ granularity.
    pub blocks: usize,
    /// RNG seed.
    pub seed: u64,
}

// The builders `with_deviation`, `with_seed`, `with_fine` and
// `num_agents`, and the report accessors `utility`, `clean` and
// `convictions`, are shared with the chain (`phases`).
impl TreeScenario {
    /// A fully honest scenario.
    pub fn honest(shape: TreeNode, true_rates: Vec<f64>) -> Self {
        let canonical = dlt::tree::canonicalize(&shape);
        let agents = canonical.size() - 1;
        assert_eq!(true_rates.len(), agents, "one true rate per non-root node");
        let max_rate = true_rates.iter().cloned().fold(1.0f64, f64::max);
        Self {
            shape: canonical,
            true_rates,
            deviations: vec![Deviation::None; agents],
            fine: FineSchedule::new(3.0 * max_rate.max(1.0), 0.5),
            blocks: 10_000,
            seed: 0x7EE_5EED,
        }
    }
}

/// A recorded grievance in a tree run.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeArbitration {
    /// Complaining node (flat id).
    pub claimant: NodeId,
    /// Accused node (flat id).
    pub accused: NodeId,
    /// Complaint label.
    pub complaint: String,
    /// Verdict.
    pub substantiated: bool,
}

/// Result of a tree protocol run.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRunReport {
    /// Net utilities per agent (valuation + all ledger flows).
    pub net_utilities: Vec<f64>,
    /// Assigned loads per node (flat order, root first), from the
    /// message chain.
    pub assigned: Vec<f64>,
    /// Actually retained loads per node.
    pub retained: Vec<f64>,
    /// Load that physically arrived at each node.
    pub received: Vec<f64>,
    /// Grievance records.
    pub arbitrations: Vec<TreeArbitration>,
    /// The ledger.
    pub ledger: Ledger,
    /// Realized makespan of Phase III.
    pub makespan: f64,
    /// Phase I bids per agent (`bids[j-1]` is `P_j`'s, preorder).
    pub bids: Vec<f64>,
    /// Metered execution rate per agent (preorder) — what the node
    /// actually ran at, deviations included.
    pub actual_rates: Vec<f64>,
}

impl From<ArbitrationRecord> for TreeArbitration {
    /// The record without its amounts, which live in the ledger.
    fn from(a: ArbitrationRecord) -> Self {
        TreeArbitration {
            claimant: a.claimant,
            accused: a.accused,
            complaint: a.complaint,
            substantiated: a.substantiated,
        }
    }
}

/// A tree scenario with its preorder layout, built once per run and once
/// per survivor network in fault recovery. Node ids are preorder positions
/// in the canonical shape, whose stored child order is the service order.
pub(crate) struct TreeRun<'a> {
    pub(crate) scenario: Cow<'a, TreeScenario>,
    pub(crate) flat: FlatTree,
}

impl<'a> TreeRun<'a> {
    pub(crate) fn new(scenario: Cow<'a, TreeScenario>) -> Self {
        let flat = FlatTree::new(&scenario.shape);
        Self { scenario, flat }
    }

    /// Node `i`'s children in service order.
    pub(crate) fn children(&self, i: NodeId) -> &[usize] {
        self.flat.children(self.flat.identity_order(), i)
    }

    /// The chain's scenario checks, with the shape supplying the root rate
    /// and the links; like `Link::new`, a zero link (co-located
    /// processors) is allowed. The tree protocol has no solution bonus.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        let s = &*self.scenario;
        let links = &self.flat.link[1..];
        check_rates(self.flat.rate[0], &s.true_rates, links, true, &s.deviations)?;
        check_terms(&s.fine, 0.0, s.blocks)
    }
}

/// Execute the tree scenario.
///
/// # Panics
/// Panics on a scenario the chain's checks reject ([`crate::Scenario::validate`],
/// with the shape supplying the root rate and the links).
pub fn run_tree(scenario: &TreeScenario) -> TreeRunReport {
    let run = TreeRun::new(Cow::Borrowed(scenario));
    run.validate()
        .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
    let n = scenario.num_agents() + 1;
    let mut run_span = obs::span!("protocol.tree.run", "n" => n, "seed" => scenario.seed);
    let (base, received, ..) = phases::run(&run);
    run_span.end_at(base.makespan);
    TreeRunReport {
        net_utilities: base.net_utilities,
        assigned: base.assigned,
        retained: base.retained,
        received,
        arbitrations: base.arbitrations.into_iter().map(Into::into).collect(),
        ledger: base.ledger,
        makespan: base.makespan,
        bids: base.bids,
        actual_rates: base.actual_rates,
    }
}

impl<'a> Phases for TreeRun<'a> {
    type Topo = TreeRun<'a>;

    const TRANSCRIPT: bool = false;

    const AUDIT_SALT: u64 = 0x7A0D17;

    fn scenario(&self) -> &Self {
        self
    }

    fn terms(&self) -> Terms<'_> {
        (&*self.scenario).into()
    }

    fn equivalent(&self, i: NodeId, bids: &[f64], wbar: &[f64]) -> f64 {
        let kids = self.children(i);
        let local = kids.iter().map(|&c| (self.flat.link[c], wbar[c]));
        star::solve_into(bids[i], local, &mut vec![0.0; kids.len() + 1])
    }

    /// Every internal node splits the load it received over its local
    /// star, preorder; every child replays its parent's decision from the
    /// self-signed sibling equivalents.
    fn allocate(&self, run: &mut Run, bids: &[f64], wbar: &[f64]) -> Allocation {
        let link = &self.flat.link;
        let n = self.flat.len();
        let mut d = vec![0.0; n];
        d[0] = 1.0;
        let mut star = Vec::new();
        for p in (0..n).filter(|&p| !self.flat.is_leaf(p)) {
            let kids = self.children(p);
            star.resize(kids.len() + 1, 0.0);
            star::solve_into(bids[p], kids.iter().map(|&c| (link[c], wbar[c])), &mut star);
            for (k, &c) in kids.iter().enumerate() {
                let honest = d[p] * star[k + 1];
                d[c] = match self.deviation(p) {
                    Deviation::WrongDistribution { factor } if k == 0 => {
                        (honest * factor).min(d[p])
                    }
                    _ => honest,
                };
            }
        }
        for c in 1..n {
            let p = self.flat.parent[c];
            let grandparent = self.flat.parent[p];
            let siblings = self.children(p);
            let key = run.registry.keypair(p);
            let sign = |k: NodeId| Dsm::new(&run.registry.keypair(k), wbar[k]);
            let evidence = LocalDecision {
                d_prev: Dsm::new(&run.registry.keypair(grandparent), d[p]),
                d_cur: Dsm::new(&key, d[c]),
                w: Dsm::new(&key, bids[p]),
                wbar: Dsm::new(&key, wbar[p]),
                children: siblings.iter().map(|&k| (link[k], sign(k))).collect(),
                position: siblings.iter().position(|&k| k == c).expect("child"),
            };
            obs::count!("protocol.messages", "phase" => 2u8);
            obs::count!("protocol.verification.checks", "phase" => 2u8, "node" => c);
            if !evidence.check(&run.registry, [grandparent, p], c) {
                let complaint = Complaint::BadDecision {
                    accused: p,
                    grandparent,
                    evidence,
                };
                run.file(&complaint, c, 0.0, 2);
            }
        }
        let assigned = (0..n)
            .map(|i| d[i] - self.children(i).iter().map(|&c| d[c]).sum::<f64>())
            .collect();
        Allocation {
            d,
            assigned,
            proofs: Vec::new(),
        }
    }

    /// Preorder flow: an internal shedder ships its excess to its children
    /// pro rata to their planned loads; a victim keeps what it is handed
    /// beyond its announcement.
    fn flow(&self, d: &[f64], assigned: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = d.len();
        let mut received = vec![0.0; n];
        let mut retained = vec![0.0; n];
        received[0] = 1.0;
        for i in 0..n {
            let children = self.children(i);
            let excess = (received[i] - d[i]).max(0.0);
            let planned_children: f64 = children.iter().map(|&c| d[c]).sum();
            let (keep, extra_shipped) = match self.deviation(i) {
                Deviation::ShedLoad { keep_fraction } if !children.is_empty() => {
                    let keep = assigned[i] * keep_fraction;
                    (keep, assigned[i] - keep)
                }
                _ => (assigned[i] + excess, 0.0),
            };
            retained[i] = keep.min(received[i]).max(0.0);
            for &c in children {
                let share = if planned_children > 1e-300 {
                    d[c] / planned_children
                } else {
                    0.0
                };
                received[c] = d[c] + extra_shipped * share;
            }
        }
        (received, retained)
    }

    /// One-port sequential sends in canonical order. The tree times no
    /// node on its timeline.
    fn execute(&self, actual: &[f64], received: &[f64], retained: &[f64]) -> Execution {
        let n = actual.len();
        let mut recv_end = vec![0.0f64; n];
        let mut makespan = 0.0f64;
        for i in 0..n {
            let mut t = recv_end[i];
            for &c in self.children(i) {
                t += received[c] * self.flat.link[c];
                recv_end[c] = t;
            }
            makespan = makespan.max(recv_end[i] + retained[i] * actual[i]);
        }
        let mut timeline = obs::PhaseTimeline::new(n);
        timeline.makespan = makespan;
        Execution {
            gantt: sim::GanttChart::default(),
            events: 0,
            timeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::EntryKind;
    use dlt::model::TreeNode;
    use mechanism::dls_tree::TreeMechanism;
    use mechanism::Agent;

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

    fn rates() -> Vec<f64> {
        vec![1.4, 2.2, 0.7, 1.9, 1.1, 3.0]
    }

    fn scenario() -> TreeScenario {
        TreeScenario::honest(shape(), rates())
    }

    #[test]
    fn honest_run_is_clean() {
        let report = run_tree(&scenario());
        assert!(report.clean(), "{:?}", report.arbitrations);
        assert_eq!(report.ledger.total_fines(), 0.0);
    }

    #[test]
    fn honest_run_matches_tree_mechanism() {
        let report = run_tree(&scenario());
        let mech = TreeMechanism::new(shape());
        let agents: Vec<Agent> = rates().into_iter().map(Agent::new).collect();
        let outcome = mech.settle_truthful(&agents);
        for j in 1..=6 {
            assert!(
                (report.utility(j) - outcome.utility(j)).abs() < 1e-9,
                "P{j}: protocol {} vs mechanism {}",
                report.utility(j),
                outcome.utility(j)
            );
        }
    }

    #[test]
    fn honest_loads_partition_the_unit() {
        let report = run_tree(&scenario());
        let total: f64 = report.retained.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        let assigned_total: f64 = report.assigned.iter().sum();
        assert!((assigned_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn honest_makespan_matches_solver() {
        // With truthful full-speed agents the realized timing equals the
        // tree solver's equivalent makespan.
        let report = run_tree(&scenario());
        let mech = TreeMechanism::new(shape());
        let agents: Vec<Agent> = rates().into_iter().map(Agent::new).collect();
        let outcome = mech.settle_truthful(&agents);
        assert!(
            (report.makespan - outcome.makespan).abs() < 1e-9,
            "run {} vs solver {}",
            report.makespan,
            outcome.makespan
        );
    }

    #[test]
    fn wrong_equivalent_at_internal_node_is_caught() {
        // Internal agents have children whose messages expose the lie.
        // Agent 1 is the first internal node (child of the root).
        let s = scenario().with_deviation(1, Deviation::WrongEquivalent { factor: 0.6 });
        let report = run_tree(&s);
        assert!(
            report.convictions().any(|a| a.accused == 1),
            "{:?}",
            report.arbitrations
        );
    }

    #[test]
    fn wrong_distribution_is_caught() {
        let s = scenario().with_deviation(1, Deviation::WrongDistribution { factor: 1.4 });
        let report = run_tree(&s);
        assert!(
            report.convictions().any(|a| a.accused == 1),
            "{:?}",
            report.arbitrations
        );
    }

    #[test]
    fn shedding_internal_node_is_caught_with_extra_penalty() {
        let s = scenario()
            .with_fine(FineSchedule::new(50.0, 1.0))
            .with_deviation(1, Deviation::ShedLoad { keep_fraction: 0.3 });
        let report = run_tree(&s);
        let convicted: Vec<_> = report.convictions().collect();
        assert!(convicted
            .iter()
            .any(|a| a.accused == 1 && a.complaint == "overload"));
        assert!(report.ledger.net_of(1, EntryKind::ExtraWorkPenalty) < 0.0);
    }

    #[test]
    fn contradictory_bid_is_caught() {
        let s = scenario().with_deviation(3, Deviation::ContradictoryBid { second_factor: 0.7 });
        let report = run_tree(&s);
        assert!(report.convictions().any(|a| a.accused == 3));
    }

    #[test]
    fn overcharge_fined_under_certain_audit() {
        let s = scenario()
            .with_fine(FineSchedule::new(50.0, 1.0))
            .with_deviation(4, Deviation::Overcharge { amount: 0.4 });
        let report = run_tree(&s);
        assert!(report
            .convictions()
            .any(|a| a.accused == 4 && a.complaint == "overcharge"));
    }

    #[test]
    fn false_accusation_backfires() {
        let s = scenario().with_deviation(2, Deviation::FalseAccusation);
        let report = run_tree(&s);
        let rec = report
            .arbitrations
            .iter()
            .find(|a| a.claimant == 2)
            .expect("filed");
        assert!(!rec.substantiated);
        assert!(report.ledger.net_of(2, EntryKind::Fine) < 0.0);
    }

    #[test]
    fn deviations_never_profit() {
        let honest = run_tree(&scenario().with_fine(FineSchedule::new(50.0, 1.0)));
        for d in Deviation::catalog() {
            // Target an internal node so every deviation is applicable.
            let target = 1;
            let s = scenario()
                .with_fine(FineSchedule::new(50.0, 1.0))
                .with_deviation(target, d);
            let report = run_tree(&s);
            assert!(
                report.utility(target) <= honest.utility(target) + 1e-9,
                "{} profited: {} vs {}",
                d.label(),
                report.utility(target),
                honest.utility(target)
            );
        }
    }

    #[test]
    fn honest_nodes_never_fined_in_tree_runs() {
        // A repeated "contradiction", and sheds so small that the Λ tag
        // may round the excess back under half a block.
        let band = (0..40).map(|k| 0.999 + 0.0009 * k as f64 / 39.0);
        let boundary = std::iter::once(Deviation::ContradictoryBid { second_factor: 1.0 })
            .chain(band.map(|keep_fraction| Deviation::ShedLoad { keep_fraction }));
        for d in Deviation::catalog().into_iter().chain(boundary) {
            for deviant in 1..=6 {
                let s = scenario()
                    .with_fine(FineSchedule::new(50.0, 1.0))
                    .with_deviation(deviant, d);
                let report = run_tree(&s);
                for j in (1..=6).filter(|&j| j != deviant) {
                    assert!(
                        report.ledger.net_of(j, EntryKind::Fine) >= 0.0,
                        "honest P{j} fined under {d:?} at P{deviant}: {:?}",
                        report.arbitrations
                    );
                }
                // Every complaint an honest node files is substantiated.
                assert!(
                    report
                        .arbitrations
                        .iter()
                        .all(|a| a.substantiated || a.claimant == deviant),
                    "unsubstantiated honest complaint under {d:?} at P{deviant}: {:?}",
                    report.arbitrations
                );
            }
        }
    }

    #[test]
    fn chain_shaped_tree_matches_chain_protocol() {
        // A path tree run through the tree protocol vs the chain runner.
        let chain_shape = TreeNode::internal(
            1.0,
            vec![(
                0.2,
                TreeNode::internal(1.0, vec![(0.1, TreeNode::leaf(1.0))]),
            )],
        );
        let tree_scenario = TreeScenario::honest(chain_shape, vec![2.0, 0.5]);
        let tree_report = run_tree(&tree_scenario);
        let chain_scenario = crate::runner::Scenario::honest(1.0, vec![2.0, 0.5], vec![0.2, 0.1]);
        let chain_report = crate::runner::run(&chain_scenario);
        for j in 1..=2 {
            assert!(
                (tree_report.utility(j) - chain_report.utility(j)).abs() < 1e-9,
                "P{j}: tree {} vs chain {}",
                tree_report.utility(j),
                chain_report.utility(j)
            );
        }
        assert!((tree_report.makespan - chain_report.makespan).abs() < 1e-9);
    }
}

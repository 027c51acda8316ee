//! The four-phase protocol generalized to tree networks — the enforcement
//! layer for the DLS-T companion mechanism (`mechanism::dls_tree`).
//!
//! Everything from the chain protocol carries over edge-wise; what changes
//! is the Phase II message: a parent with several children cannot be
//! checked with the two-term balance identity (eq. 2.7), so the message
//! carries the parent's **entire local decision** — its rate claim plus
//! every child's own-signed Phase I equivalent — and the recipient replays
//! the local star solution (canonical ascending-link order, see
//! `dlt::seqsearch`) to verify both the parent's equivalent claim and its
//! own load announcement. Children's equivalents are signed by the
//! children themselves, so the parent cannot tell different stories to
//! different children without producing attributable evidence.

use crate::crypto::{Dsm, NodeId, Registry};
use crate::deviation::Deviation;
use crate::lambda::BlockMint;
use crate::ledger::{EntryKind, Ledger};
use crate::root::ARBITRATION_TOL;
use dlt::model::{Link, Processor, StarNetwork, TreeNode};
use dlt::star;
use mechanism::dls_tree::TreeMechanism;
use mechanism::{Conduct, FineSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A tree protocol scenario. Agent indices are preorder positions over the
/// canonicalized shape's non-root nodes (1-based), matching
/// [`TreeMechanism`].
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

    /// Set one agent's deviation (1-based preorder index).
    pub fn with_deviation(mut self, j: usize, d: Deviation) -> Self {
        assert!(j >= 1 && j <= self.deviations.len());
        self.deviations[j - 1] = d;
        self
    }

    /// Set the fine schedule.
    pub fn with_fine(mut self, fine: FineSchedule) -> Self {
        self.fine = fine;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of strategic agents.
    pub fn num_agents(&self) -> usize {
        self.true_rates.len()
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

impl TreeRunReport {
    /// Net utility of agent `j` (1-based).
    pub fn utility(&self, j: usize) -> f64 {
        self.net_utilities[j - 1]
    }

    /// True if no grievance was filed.
    pub fn clean(&self) -> bool {
        self.arbitrations.is_empty()
    }

    /// Substantiated grievances.
    pub fn convictions(&self) -> impl Iterator<Item = &TreeArbitration> {
        self.arbitrations.iter().filter(|a| a.substantiated)
    }
}

/// Flat view of the canonicalized tree.
pub(crate) struct Flat {
    pub(crate) parent: Vec<Option<usize>>,
    pub(crate) z_in: Vec<f64>, // link into each node (0 for the root)
    pub(crate) children: Vec<Vec<usize>>,
}

pub(crate) fn flatten(node: &TreeNode) -> Flat {
    let n = node.size();
    let mut flat = Flat {
        parent: vec![None; n],
        z_in: vec![0.0; n],
        children: vec![Vec::new(); n],
    };
    fn walk(node: &TreeNode, parent: Option<usize>, z: f64, next: &mut usize, flat: &mut Flat) {
        let idx = *next;
        *next += 1;
        flat.parent[idx] = parent;
        flat.z_in[idx] = z;
        if let Some(p) = parent {
            flat.children[p].push(idx);
        }
        for (link, child) in &node.children {
            walk(child, Some(idx), link.z, next, flat);
        }
    }
    let mut next = 0;
    walk(node, None, 0.0, &mut next, &mut flat);
    flat
}

/// A node's local star: its rate `w`, then one `(link z, child
/// equivalent)` pair per child in service order.
fn local_star(w: f64, children: impl IntoIterator<Item = (f64, f64)>) -> StarNetwork {
    StarNetwork::new(
        Processor::new(w),
        children
            .into_iter()
            .map(|(z, w)| (Link::new(z), Processor::new(w)))
            .collect(),
    )
}

/// Execute the tree scenario.
pub fn run_tree(scenario: &TreeScenario) -> TreeRunReport {
    let flat = flatten(&scenario.shape);
    let n = flat.parent.len();
    let m = scenario.num_agents();
    assert_eq!(n, m + 1);
    let mut run_span = obs::span!("protocol.tree.run", "n" => n, "seed" => scenario.seed);
    let registry = Registry::new(n, scenario.seed);
    let mint = BlockMint::new(scenario.blocks, scenario.seed ^ 0x5EED_B10C);
    let mut ledger = Ledger::new();
    let mut arbitrations: Vec<TreeArbitration> = Vec::new();
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x7A0D17);

    let root_rate = scenario.shape.processor.w;

    // ---------- Phase I: bids and equivalents (post-order) ----------
    let mut bids = vec![root_rate; n];
    let mut actual = vec![root_rate; n];
    for j in 1..n {
        let t = scenario.true_rates[j - 1];
        let (bid, act) = match scenario.deviations[j - 1] {
            Deviation::Underbid { factor } | Deviation::Overbid { factor } => (t * factor, t),
            Deviation::SlackExecution { factor } => (t, t * factor),
            _ => (t, t),
        };
        bids[j] = bid;
        actual[j] = act;
    }

    // Reported equivalents, bottom-up; lies propagate.
    let mut reported_wbar = vec![0.0; n];
    for i in (0..n).rev() {
        let honest = if flat.children[i].is_empty() {
            bids[i]
        } else {
            star::equivalent_time(&local_star(
                bids[i],
                flat.children[i]
                    .iter()
                    .map(|&c| (flat.z_in[c], reported_wbar[c])),
            ))
        };
        reported_wbar[i] = if i >= 1 {
            match scenario.deviations[i - 1] {
                Deviation::WrongEquivalent { factor } => honest * factor,
                _ => honest,
            }
        } else {
            honest
        };
    }

    obs::count!("protocol.messages", by = m as f64, "phase" => 1u8);

    // Contradictory Phase I messages: detected by the parent.
    let fine = scenario.fine.deviation_fine();
    for j in 1..n {
        if let Deviation::ContradictoryBid { second_factor } = scenario.deviations[j - 1] {
            let key = registry.keypair(j);
            let first = Dsm::new(&key, reported_wbar[j]);
            let second = Dsm::new(&key, reported_wbar[j] * second_factor);
            let authentic = first.verify(&registry, Some(j)) && second.verify(&registry, Some(j));
            let substantiated =
                authentic && (first.payload - second.payload).abs() > ARBITRATION_TOL;
            let claimant = flat.parent[j].expect("non-root");
            if substantiated {
                ledger.post(j, EntryKind::Fine, -fine, 1);
                ledger.post(claimant, EntryKind::Reward, fine, 1);
            }
            arbitrations.push(TreeArbitration {
                claimant,
                accused: j,
                complaint: "contradiction".into(),
                substantiated,
            });
        }
    }

    // ---------- Phase II: allocation messages (preorder) ----------
    // Local star fractions committed by every internal node, and the load
    // announcements D_i.
    let mut d = vec![0.0; n];
    d[0] = 1.0;
    let mut announced_child_d = vec![0.0; n]; // D_c as announced to c
    announced_child_d[0] = 1.0;
    let mut local_fraction = vec![1.0; n]; // node's own retained fraction of D_i
    for p in 0..n {
        if flat.children[p].is_empty() {
            continue;
        }
        let sol = star::solve(&local_star(
            bids[p],
            flat.children[p]
                .iter()
                .map(|&c| (flat.z_in[c], reported_wbar[c])),
        ));
        local_fraction[p] = sol.alloc.alpha(0);
        for (k, &c) in flat.children[p].iter().enumerate() {
            let mut d_c = d[p] * sol.alloc.alpha(k + 1);
            if p >= 1 {
                if let Deviation::WrongDistribution { factor } = scenario.deviations[p - 1] {
                    if k == 0 {
                        d_c = (d_c * factor).min(d[p]);
                    }
                }
            }
            d[c] = d_c;
            announced_child_d[c] = d_c;
        }
    }

    // Per-edge verification: every child replays its parent's local star
    // from the self-signed sibling equivalents.
    for c in 1..n {
        let p = flat.parent[c].expect("non-root");
        obs::count!("protocol.messages", "phase" => 2u8);
        obs::count!("protocol.verification.checks", "phase" => 2u8, "node" => c);
        // Verify signatures on the sibling list (each child's own Phase I
        // value, signed by that child) and on the parent's rate claim.
        let w_p_claim = Dsm::new(&registry.keypair(p), bids[p]);
        let mut ok = w_p_claim.verify(&registry, Some(p));
        let siblings: Vec<(f64, f64)> = flat.children[p]
            .iter()
            .map(|&k| {
                let dsm = Dsm::new(&registry.keypair(k), reported_wbar[k]);
                ok &= dsm.verify(&registry, Some(k));
                (flat.z_in[k], dsm.payload)
            })
            .collect();
        // Replay the local star.
        let sol = star::solve(&local_star(w_p_claim.payload, siblings));
        // Check the parent's own equivalent claim (skip if p is the root,
        // whose equivalent nobody pays for).
        if p >= 1 {
            let claimed = reported_wbar[p];
            if (claimed - sol.makespan).abs() > ARBITRATION_TOL {
                ok = false;
            }
        }
        // Check our own announcement.
        let my_pos = flat.children[p]
            .iter()
            .position(|&k| k == c)
            .expect("child of parent");
        let expected_share = d[p] * sol.alloc.alpha(my_pos + 1);
        if (announced_child_d[c] - expected_share).abs() > ARBITRATION_TOL {
            ok = false;
        }
        if !ok {
            ledger.post(p, EntryKind::Fine, -fine, 2);
            ledger.post(c, EntryKind::Reward, fine, 2);
            arbitrations.push(TreeArbitration {
                claimant: c,
                accused: p,
                complaint: "bad-computation".into(),
                substantiated: true,
            });
        }
    }

    // False accusations backfire.
    for j in 1..n {
        if matches!(scenario.deviations[j - 1], Deviation::FalseAccusation) {
            let accused = flat.parent[j].expect("non-root");
            ledger.post(j, EntryKind::Fine, -fine, 2);
            ledger.post(accused, EntryKind::Reward, fine, 2);
            arbitrations.push(TreeArbitration {
                claimant: j,
                accused,
                complaint: "unfounded".into(),
                substantiated: false,
            });
        }
    }

    // ---------- Phase III: distribution, execution, overloads ----------
    let assigned: Vec<f64> = (0..n)
        .map(|i| {
            let to_children: f64 = flat.children[i].iter().map(|&c| d[c]).sum();
            d[i] - to_children
        })
        .collect();
    let mut received = vec![0.0; n];
    let mut retained = vec![0.0; n];
    received[0] = 1.0;
    // Preorder flow with shedding and victim absorption.
    for i in 0..n {
        let excess = (received[i] - d[i]).max(0.0);
        let planned_children: f64 = flat.children[i].iter().map(|&c| d[c]).sum();
        let (keep, extra_shipped) = if i >= 1 {
            match scenario.deviations[i - 1] {
                Deviation::ShedLoad { keep_fraction } if !flat.children[i].is_empty() => {
                    let keep = assigned[i] * keep_fraction;
                    (keep, assigned[i] - keep)
                }
                _ => (assigned[i] + excess, 0.0),
            }
        } else {
            (assigned[i] + excess, 0.0)
        };
        let keep = keep.min(received[i]).max(0.0);
        retained[i] = keep;
        for &c in &flat.children[i] {
            let share = if planned_children > 1e-300 {
                d[c] / planned_children
            } else {
                0.0
            };
            received[c] = d[c] + extra_shipped * share;
        }
    }
    // Overload grievances.
    let half_block = 0.5 * mint.block_size();
    for c in 1..n {
        obs::count!("protocol.verification.checks", "phase" => 3u8, "node" => c);
        if received[c] > d[c] + half_block {
            let p = flat.parent[c].expect("non-root");
            let recv_blocks = mint.to_blocks(received[c]).min(scenario.blocks);
            let tag = mint.range(scenario.blocks - recv_blocks, recv_blocks);
            let proven = mint.verify(&tag).unwrap_or(0.0);
            let substantiated = proven > d[c] + half_block;
            if substantiated {
                let extra = (proven - d[c]) * actual[c];
                ledger.post(p, EntryKind::Fine, -fine, 3);
                ledger.post(p, EntryKind::ExtraWorkPenalty, -extra, 3);
                ledger.post(c, EntryKind::Reward, fine, 3);
            }
            arbitrations.push(TreeArbitration {
                claimant: c,
                accused: p,
                complaint: "overload".into(),
                substantiated,
            });
        }
    }
    // Execution timing: one-port sequential sends in canonical order.
    let mut recv_end = vec![0.0f64; n];
    let mut makespan = 0.0f64;
    for i in 0..n {
        let mut t = recv_end[i];
        for &c in &flat.children[i] {
            let ship = received[c];
            t += ship * flat.z_in[c];
            recv_end[c] = t;
        }
        let finish = recv_end[i] + retained[i] * actual[i];
        makespan = makespan.max(finish);
    }

    // ---------- Phase IV: settlement, bills and audits ----------
    let mech = TreeMechanism::new(scenario.shape.clone());
    let conducts: Vec<Conduct> = (1..n)
        .map(|j| Conduct {
            bid: bids[j],
            actual_rate: actual[j],
            actual_load: Some(retained[j]),
        })
        .collect();
    let outcome = mech.settle(&conducts);
    let mut valuations = vec![0.0; n];
    for j in 1..n {
        let honest_bill = outcome.agents[j - 1].payment;
        valuations[j] = -retained[j] * actual[j];
        let billed = match scenario.deviations[j - 1] {
            Deviation::Overcharge { amount } => honest_bill + amount,
            _ => honest_bill,
        };
        obs::count!("protocol.messages", "phase" => 4u8);
        let challenged = rng.gen::<f64>() < scenario.fine.audit_probability;
        if challenged {
            obs::count!("protocol.audits", "node" => j);
        }
        if challenged && (billed - honest_bill).abs() > ARBITRATION_TOL {
            obs::hist!(
                "mechanism.fines.levied",
                scenario.fine.overcharge_fine(),
                "node" => j,
                "phase" => 4u8
            );
            ledger.post(j, EntryKind::Fine, -scenario.fine.overcharge_fine(), 4);
            ledger.post(j, EntryKind::Payment, honest_bill, 4);
            arbitrations.push(TreeArbitration {
                claimant: 0,
                accused: j,
                complaint: "overcharge".into(),
                substantiated: true,
            });
        } else {
            ledger.post(j, EntryKind::Payment, billed, 4);
        }
    }

    let net_utilities: Vec<f64> = (1..n).map(|j| valuations[j] + ledger.net(j)).collect();
    obs::count!("protocol.complaints.filed", by = arbitrations.len() as f64);
    obs::count!(
        "protocol.complaints.substantiated",
        by = arbitrations.iter().filter(|a| a.substantiated).count() as f64
    );
    run_span.end_at(makespan);
    TreeRunReport {
        net_utilities,
        assigned,
        retained,
        received,
        arbitrations,
        ledger,
        makespan,
        bids: bids[1..].to_vec(),
        actual_rates: actual[1..].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt::model::TreeNode;
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
        for d in Deviation::catalog() {
            let s = scenario()
                .with_fine(FineSchedule::new(50.0, 1.0))
                .with_deviation(2, d);
            let report = run_tree(&s);
            for j in (1..=6).filter(|&j| j != 2) {
                assert!(
                    report.ledger.net_of(j, EntryKind::Fine) >= 0.0,
                    "honest P{j} fined under {}",
                    d.label()
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

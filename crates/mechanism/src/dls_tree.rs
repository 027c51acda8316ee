//! DLS-T: the tree-network companion mechanism (\[9\], Carroll & Grosu,
//! IPDPS 2006), generalized here from the same building blocks as DLS-LBL.
//!
//! Every non-root node of a tree is a strategic agent bidding its unit
//! processing time; subtrees collapse into equivalent processors exactly
//! as chain suffixes do (see `dlt::tree`). The payment mirrors
//! eqs. 4.4–4.11 with "predecessor" generalized to "parent":
//!
//! * compensation `C_j = α_j w̃_j + E_j` for metered work;
//! * bonus `B_j = w_p − w̄_p(α(bids), actual)`: the improvement agent `j`'s
//!   subtree brings to its parent `p`'s equivalent processing time, with
//!   `j`'s branch re-timed by its measured speed via the tree analogue of
//!   eqs. 4.10–4.11 (`ŵ_j = α̂_j w̃_j` when slower than bid, unchanged
//!   when at least as fast; leaves use `ŵ_j = w̃_j`).
//!
//! A chain is a degenerate tree, and on chains this mechanism **coincides
//! exactly with DLS-LBL** — asserted in the tests — which is the
//! strongest evidence the generalization is the intended one. Bus and
//! star networks are depth-1 trees, so this module also covers the bus
//! companion \[14\] in the paper's own verification style (in contrast to
//! the Archer–Tardos realization in [`crate::archer_tardos`]).

use crate::agent::{Agent, Conduct};
use crate::payment::{self, PaymentInputs};
use dlt::model::{Link, Processor, StarNetwork, TreeNode};
use dlt::seqsearch::{self, TreeOrder};
use dlt::{star, tree};

/// How the mechanism chooses each settlement's service order (the order in
/// which every internal node distributes to its children).
///
/// The order is load-bearing for incentives (E18): the strategyproofness
/// argument needs the equal-finish makespan to be monotone in every
/// child's rate, which the canonical ascending-link order guarantees. A
/// **bid-independent** alternative order (e.g. one searched offline at the
/// true rates, [`OrderPolicy::Frozen`]) keeps the allocation rule a fixed
/// function of the bids under a fixed order, and E29 verifies truthfulness
/// survives. A **bid-dependent** order
/// ([`OrderPolicy::BidFastestEquivalentFirst`]) lets an agent's report
/// move its own service position — the manipulation channel E18
/// predicted, kept here as the measurable counter-example.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderPolicy {
    /// The canonical ascending-link order (the default, and the paper's
    /// strategyproof regime).
    Canonical,
    /// A fixed service order over the canonical shape's preorder, applied
    /// identically at every bid profile. Bid-independent by construction.
    Frozen(TreeOrder),
    /// Re-derive the order from the bids at every settlement: each node
    /// serves its children in ascending order of their bid-instantiated
    /// subtree equivalent time (stable for ties). A plausible
    /// "serve the fastest subtree first" rank policy — and manipulable,
    /// because an agent's bid moves its own service position.
    BidFastestEquivalentFirst,
}

/// The shape of the network: processor rates at non-root nodes are
/// *placeholders* (replaced by bids); the root's rate and all link rates
/// are trusted infrastructure.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeMechanism {
    shape: TreeNode,
    agents: usize,
    policy: OrderPolicy,
}

/// Per-agent outcome of a tree settlement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeAgentOutcome {
    /// Preorder index of the node (1-based among non-root nodes).
    pub agent: usize,
    /// Assigned load fraction.
    pub assigned: f64,
    /// Load actually computed.
    pub actual_load: f64,
    /// Bonus component.
    pub bonus: f64,
    /// Total payment.
    pub payment: f64,
    /// Utility.
    pub utility: f64,
}

/// Settled outcome of one tree round.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeOutcome {
    /// Per-agent outcomes in preorder (index 0 is agent 1).
    pub agents: Vec<TreeAgentOutcome>,
    /// The root's assigned load.
    pub root_load: f64,
    /// The optimal makespan under the bids.
    pub makespan: f64,
}

impl TreeOutcome {
    /// Utility of agent `j` (1-based preorder index).
    pub fn utility(&self, j: usize) -> f64 {
        self.agents[j - 1].utility
    }

    /// Payment owed to agent `j` (1-based preorder index) — the honest
    /// bill the fault-recovery path re-posts when a node goes silent
    /// before billing.
    pub fn payment(&self, j: usize) -> f64 {
        self.agents[j - 1].payment
    }
}

/// Flattened per-node view used by the payment computation.
struct NodeInfo {
    parent: Option<usize>,
    /// Bid rate at this node (root: trusted rate).
    rate: f64,
    /// Equivalent unit time of the subtree rooted here (bid-based).
    equivalent: f64,
    /// Assigned fraction of the unit load.
    assigned: f64,
    /// Local retained fraction `α̂` (assigned / received by the subtree).
    alpha_hat: f64,
    /// Is this node a leaf?
    leaf: bool,
    /// Children as `(link rate, child flat index)` in distribution order.
    children: Vec<(f64, usize)>,
}

impl TreeMechanism {
    /// Create the mechanism from a shape. Non-root processor rates in
    /// `shape` are ignored (bids replace them); link rates and the root's
    /// rate are kept.
    /// The shape is canonicalized (children sorted by ascending link
    /// rate) before use: the classical optimal distribution order, and a
    /// precondition for the bonus's monotonicity argument. **Agent indices
    /// are preorder positions in the canonicalized shape.**
    pub fn new(shape: TreeNode) -> Self {
        Self::with_order(shape, OrderPolicy::Canonical)
    }

    /// Create the mechanism with an explicit service-order policy. The
    /// shape is canonicalized first — **agent indices are always preorder
    /// positions in the canonicalized shape**, whatever order the policy
    /// then serves them in; a [`OrderPolicy::Frozen`] order must fit that
    /// canonical shape's preorder.
    pub fn with_order(shape: TreeNode, policy: OrderPolicy) -> Self {
        let shape = dlt::tree::canonicalize(&shape);
        let agents = shape.size() - 1;
        assert!(agents >= 1, "need at least one strategic node");
        if let OrderPolicy::Frozen(order) = &policy {
            assert!(
                order.is_valid(&shape),
                "frozen order does not fit the canonical shape's preorder"
            );
        }
        Self {
            shape,
            agents,
            policy,
        }
    }

    /// The canonicalized shape agent indices refer to.
    pub fn shape(&self) -> &TreeNode {
        &self.shape
    }

    /// The service-order policy in force.
    pub fn policy(&self) -> &OrderPolicy {
        &self.policy
    }

    /// A chain as a degenerate tree (for cross-checks against DLS-LBL).
    pub fn chain(root_rate: f64, link_rates: &[f64]) -> Self {
        let mut node = TreeNode::leaf(1.0);
        for &z in link_rates.iter().skip(1).rev() {
            node = TreeNode {
                processor: Processor::new(1.0),
                children: vec![(Link::new(z), node)],
            };
        }
        let root = TreeNode {
            processor: Processor::new(root_rate),
            children: vec![(Link::new(link_rates[0]), node)],
        };
        Self::new(root)
    }

    /// A star/bus as a depth-1 tree.
    pub fn star(root_rate: f64, link_rates: &[f64]) -> Self {
        let children = link_rates
            .iter()
            .map(|&z| (Link::new(z), TreeNode::leaf(1.0)))
            .collect();
        Self::new(TreeNode {
            processor: Processor::new(root_rate),
            children,
        })
    }

    /// Number of strategic agents.
    pub fn num_agents(&self) -> usize {
        self.agents
    }

    /// Instantiate the tree with the given bids (preorder over non-root
    /// nodes).
    fn with_bids(&self, bids: &[f64]) -> TreeNode {
        assert_eq!(bids.len(), self.agents, "one bid per strategic node");
        fn rebuild(node: &TreeNode, bids: &[f64], next: &mut usize, is_root: bool) -> TreeNode {
            let rate = if is_root {
                node.processor.w
            } else {
                let r = bids[*next];
                *next += 1;
                r
            };
            let children = node
                .children
                .iter()
                .map(|(l, c)| (*l, rebuild(c, bids, next, false)))
                .collect();
            TreeNode {
                processor: Processor::new(rate),
                children,
            }
        }
        let mut next = 0;
        let out = rebuild(&self.shape, bids, &mut next, true);
        assert_eq!(next, self.agents);
        out
    }

    /// The service order the policy prescribes for this bid-instantiated
    /// tree, expressed against the canonical shape's preorder.
    fn service_order(&self, instantiated: &TreeNode) -> TreeOrder {
        match &self.policy {
            // The shape is canonical, so its stored order *is* the
            // canonical service order.
            OrderPolicy::Canonical => seqsearch::identity_order(instantiated),
            OrderPolicy::Frozen(order) => order.clone(),
            OrderPolicy::BidFastestEquivalentFirst => {
                fn walk(node: &TreeNode, out: &mut Vec<Vec<usize>>) {
                    let mut perm: Vec<usize> = (0..node.children.len()).collect();
                    let equivalents: Vec<f64> = node
                        .children
                        .iter()
                        .map(|(_, c)| tree::equivalent_time(c))
                        .collect();
                    perm.sort_by(|&a, &b| equivalents[a].total_cmp(&equivalents[b]));
                    out.push(perm);
                    for (_, c) in &node.children {
                        walk(c, out);
                    }
                }
                let mut perms = Vec::new();
                walk(instantiated, &mut perms);
                TreeOrder { perms }
            }
        }
    }

    /// Flatten the solved tree into per-node info, indexed by the
    /// canonical shape's preorder (agent identity), with children listed
    /// in the *service* order the policy produced.
    fn analyze(&self, bids: &[f64]) -> (Vec<NodeInfo>, f64, f64) {
        let instantiated = self.with_bids(bids);
        let order = self.service_order(&instantiated);
        let (ordered, map) = seqsearch::apply_order_mapped(&instantiated, &order);
        let solution = tree::solve(&ordered);
        let n = self.agents + 1;
        let mut old_of_new = vec![0usize; n];
        for (old, &new) in map.iter().enumerate() {
            old_of_new[new] = old;
        }
        let mut infos: Vec<Option<NodeInfo>> = (0..n).map(|_| None).collect();
        fn walk(
            node: &TreeNode,
            sol: &tree::TreeSolution,
            parent: Option<usize>,
            next_new: &mut usize,
            old_of_new: &[usize],
            infos: &mut [Option<NodeInfo>],
        ) -> usize {
            let new_id = *next_new;
            *next_new += 1;
            let old = old_of_new[new_id];
            infos[old] = Some(NodeInfo {
                parent,
                rate: node.processor.w,
                equivalent: sol.equivalent,
                assigned: sol.alpha,
                alpha_hat: if sol.received > 1e-300 {
                    sol.alpha / sol.received
                } else {
                    1.0
                },
                leaf: node.children.is_empty(),
                children: Vec::new(),
            });
            for ((link, child), csol) in node.children.iter().zip(&sol.children) {
                let cold = walk(child, csol, Some(old), next_new, old_of_new, infos);
                infos[old]
                    .as_mut()
                    .expect("parent info just inserted")
                    .children
                    .push((link.z, cold));
            }
            old
        }
        let mut next_new = 0;
        walk(
            &ordered,
            &solution,
            None,
            &mut next_new,
            &old_of_new,
            &mut infos,
        );
        let infos = infos
            .into_iter()
            .map(|i| i.expect("every preorder node visited"))
            .collect();
        (infos, solution.equivalent, solution.alpha)
    }

    /// The tree analogue of eqs. 4.10–4.11: agent `j`'s adjusted subtree
    /// equivalent given its metered rate.
    fn adjusted_equivalent(info: &NodeInfo, actual_rate: f64) -> f64 {
        if info.leaf {
            actual_rate
        } else if actual_rate >= info.rate {
            info.alpha_hat * actual_rate
        } else {
            info.equivalent
        }
    }

    /// The realized equivalent time of parent `p`'s local star when child
    /// `j`'s branch is re-timed to `w_hat_j`, all split fractions fixed by
    /// the bids.
    fn realized_parent_equivalent(infos: &[NodeInfo], p: usize, j: usize, w_hat_j: f64) -> f64 {
        let parent = &infos[p];
        let star_net = StarNetwork::new(
            Processor::new(parent.rate),
            parent
                .children
                .iter()
                .map(|&(z, c)| (Link::new(z), Processor::new(infos[c].equivalent)))
                .collect(),
        );
        let local = star::solve(&star_net);
        // Evaluate finish times with child j's rate swapped for ŵ_j.
        let mut worst = local.alloc.alpha(0) * parent.rate;
        let mut comm = 0.0;
        for (i, &(z, c)) in parent.children.iter().enumerate() {
            let a = local.alloc.alpha(i + 1);
            comm += a * z;
            let rate = if c == j { w_hat_j } else { infos[c].equivalent };
            worst = worst.max(comm + a * rate);
        }
        worst
    }

    /// Settle a round of conducts (preorder over non-root nodes).
    pub fn settle(&self, conducts: &[Conduct]) -> TreeOutcome {
        assert_eq!(conducts.len(), self.agents);
        let bids: Vec<f64> = conducts.iter().map(|c| c.bid).collect();
        let (infos, makespan, root_load) = self.analyze(&bids);
        let agents = (1..=self.agents)
            .map(|j| {
                let info = &infos[j];
                let c = &conducts[j - 1];
                let assigned = info.assigned;
                let actual_load = c.actual_load.unwrap_or(assigned);
                let inputs = PaymentInputs {
                    assigned_load: assigned,
                    actual_load,
                    actual_rate: c.actual_rate,
                };
                let p = info.parent.expect("non-root");
                let w_hat = Self::adjusted_equivalent(info, c.actual_rate);
                let realized = Self::realized_parent_equivalent(&infos, p, j, w_hat);
                let b = payment::breakdown(inputs, infos[p].rate - realized, 0.0);
                TreeAgentOutcome {
                    agent: j,
                    assigned,
                    actual_load,
                    bonus: b.bonus,
                    payment: b.payment,
                    utility: b.utility,
                }
            })
            .collect();
        TreeOutcome {
            agents,
            root_load,
            makespan,
        }
    }

    /// Truthful settlement.
    pub fn settle_truthful(&self, agents: &[Agent]) -> TreeOutcome {
        let conducts: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        self.settle(&conducts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DlsLbl;

    fn chain_agents() -> Vec<Agent> {
        vec![Agent::new(2.0), Agent::new(0.5), Agent::new(4.0)]
    }

    #[test]
    fn chain_case_matches_dls_lbl_exactly() {
        let tree_mech = TreeMechanism::chain(1.0, &[0.2, 0.1, 0.7]);
        let chain_mech = DlsLbl::new(1.0, vec![0.2, 0.1, 0.7]);
        let agents = chain_agents();
        let t = tree_mech.settle_truthful(&agents);
        let c = chain_mech.settle_truthful(&agents);
        for j in 1..=3 {
            assert!(
                (t.utility(j) - c.utility(j)).abs() < 1e-12,
                "P{j}: tree {} vs chain {}",
                t.utility(j),
                c.utility(j)
            );
        }
        assert!((t.makespan - c.solution.makespan()).abs() < 1e-12);
        assert!((t.root_load - c.root_load).abs() < 1e-12);
    }

    #[test]
    fn chain_case_matches_dls_lbl_under_deviations() {
        let tree_mech = TreeMechanism::chain(1.0, &[0.2, 0.1, 0.7]);
        let chain_mech = DlsLbl::new(1.0, vec![0.2, 0.1, 0.7]);
        let agents = chain_agents();
        for (j, factor) in [(1usize, 0.5), (2, 2.0), (3, 1.5)] {
            let mut conducts: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
            conducts[j - 1] = Conduct::misreport(agents[j - 1], factor);
            let t = tree_mech.settle(&conducts);
            let c = chain_mech.settle(&conducts, false);
            for k in 1..=3 {
                assert!(
                    (t.utility(k) - c.utility(k)).abs() < 1e-12,
                    "deviant P{j}×{factor}, agent P{k}"
                );
            }
        }
    }

    fn binary_tree() -> TreeMechanism {
        // root(1.0) with two internal children, each with two leaves
        let shape = TreeNode::internal(
            1.0,
            vec![
                (
                    0.2,
                    TreeNode::internal(
                        1.0,
                        vec![(0.3, TreeNode::leaf(1.0)), (0.25, TreeNode::leaf(1.0))],
                    ),
                ),
                (
                    0.15,
                    TreeNode::internal(
                        1.0,
                        vec![(0.4, TreeNode::leaf(1.0)), (0.1, TreeNode::leaf(1.0))],
                    ),
                ),
            ],
        );
        TreeMechanism::new(shape)
    }

    fn tree_agents() -> Vec<Agent> {
        // preorder: branch1, leaf, leaf, branch2, leaf, leaf
        vec![
            Agent::new(1.5),
            Agent::new(2.0),
            Agent::new(0.8),
            Agent::new(1.1),
            Agent::new(3.0),
            Agent::new(0.6),
        ]
    }

    #[test]
    fn tree_truthful_utilities_nonnegative() {
        let mech = binary_tree();
        let agents = tree_agents();
        let outcome = mech.settle_truthful(&agents);
        for j in 1..=6 {
            assert!(outcome.utility(j) >= -1e-12, "P{j}: {}", outcome.utility(j));
        }
    }

    #[test]
    fn tree_truth_dominates_misreports() {
        let mech = binary_tree();
        let agents = tree_agents();
        let honest = mech.settle_truthful(&agents);
        for j in 1..=6 {
            for factor in [0.3, 0.6, 0.9, 1.1, 1.5, 2.5, 5.0] {
                let mut conducts: Vec<Conduct> =
                    agents.iter().map(|&a| Conduct::truthful(a)).collect();
                conducts[j - 1] = Conduct::misreport(agents[j - 1], factor);
                let deviant = mech.settle(&conducts);
                assert!(
                    deviant.utility(j) <= honest.utility(j) + 1e-9,
                    "P{j}×{factor}: {} vs {}",
                    deviant.utility(j),
                    honest.utility(j)
                );
            }
        }
    }

    #[test]
    fn tree_slack_execution_does_not_pay() {
        let mech = binary_tree();
        let agents = tree_agents();
        let honest = mech.settle_truthful(&agents);
        for j in 1..=6 {
            let mut conducts: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
            conducts[j - 1] = Conduct::slack_execution(agents[j - 1], 2.0);
            let deviant = mech.settle(&conducts);
            assert!(deviant.utility(j) <= honest.utility(j) + 1e-12, "P{j}");
        }
    }

    #[test]
    fn star_case_covers_the_bus_companion() {
        let mech = TreeMechanism::star(1.0, &[0.3, 0.3, 0.3]); // a bus
        let agents = vec![Agent::new(1.5), Agent::new(0.9), Agent::new(2.0)];
        let honest = mech.settle_truthful(&agents);
        for j in 1..=3 {
            assert!(honest.utility(j) >= 0.0);
            for factor in [0.4, 0.8, 1.3, 3.0] {
                let mut conducts: Vec<Conduct> =
                    agents.iter().map(|&a| Conduct::truthful(a)).collect();
                conducts[j - 1] = Conduct::misreport(agents[j - 1], factor);
                let deviant = mech.settle(&conducts);
                assert!(
                    deviant.utility(j) <= honest.utility(j) + 1e-9,
                    "P{j}×{factor}"
                );
            }
        }
    }

    #[test]
    fn loads_partition_the_unit() {
        let mech = binary_tree();
        let outcome = mech.settle_truthful(&tree_agents());
        let total: f64 = outcome.root_load + outcome.agents.iter().map(|a| a.assigned).sum::<f64>();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one bid per strategic node")]
    fn rejects_wrong_bid_arity() {
        binary_tree().with_bids(&[1.0, 2.0]);
    }

    #[test]
    fn canonical_policy_is_the_default_and_identical() {
        let shape = binary_tree().shape().clone();
        let a = TreeMechanism::new(shape.clone());
        let b = TreeMechanism::with_order(shape, OrderPolicy::Canonical);
        let agents = tree_agents();
        let oa = a.settle_truthful(&agents);
        let ob = b.settle_truthful(&agents);
        assert_eq!(oa, ob);
    }

    #[test]
    fn frozen_canonical_order_settles_bit_identically() {
        // Freezing the canonical order must be a no-op: same service
        // order, same solve, same payments to the last bit.
        let mech = binary_tree();
        let frozen = TreeMechanism::with_order(
            mech.shape().clone(),
            OrderPolicy::Frozen(dlt::seqsearch::identity_order(mech.shape())),
        );
        let agents = tree_agents();
        assert_eq!(
            mech.settle_truthful(&agents),
            frozen.settle_truthful(&agents)
        );
    }

    #[test]
    fn frozen_non_canonical_order_changes_the_solve_consistently() {
        // Reversing the root's service order is a worse (or equal) order:
        // the settlement must still partition the load, and the makespan
        // can only get worse.
        let mech = binary_tree();
        let shape = mech.shape().clone();
        let mut order = dlt::seqsearch::identity_order(&shape);
        order.perms[0].reverse();
        let reversed = TreeMechanism::with_order(shape, OrderPolicy::Frozen(order));
        let agents = tree_agents();
        let base = mech.settle_truthful(&agents);
        let rev = reversed.settle_truthful(&agents);
        let total: f64 = rev.root_load + rev.agents.iter().map(|a| a.assigned).sum::<f64>();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(rev.makespan >= base.makespan - 1e-12);
    }

    #[test]
    #[should_panic(expected = "frozen order does not fit")]
    fn frozen_order_arity_is_validated() {
        let shape = binary_tree().shape().clone();
        TreeMechanism::with_order(
            shape,
            OrderPolicy::Frozen(dlt::seqsearch::TreeOrder {
                perms: vec![vec![0]],
            }),
        );
    }

    #[test]
    fn bid_dependent_order_reorders_with_the_bids() {
        // Two leaves behind distinct links: under the fastest-equivalent-
        // first policy the served-first child is whoever *bids* lower, so
        // flipping the bids flips the realized makespan away from the
        // canonical one.
        let shape = TreeNode::internal(
            2.1,
            vec![(0.0969, TreeNode::leaf(1.0)), (0.6568, TreeNode::leaf(1.0))],
        );
        let mech = TreeMechanism::with_order(shape, OrderPolicy::BidFastestEquivalentFirst);
        let fast_first = mech.settle(&[
            Conduct {
                bid: 0.5,
                actual_rate: 0.5,
                actual_load: None,
            },
            Conduct {
                bid: 2.0,
                actual_rate: 2.0,
                actual_load: None,
            },
        ]);
        // Swap which node bids low: the slow link is now served first.
        let slow_first = mech.settle(&[
            Conduct {
                bid: 2.0,
                actual_rate: 2.0,
                actual_load: None,
            },
            Conduct {
                bid: 0.5,
                actual_rate: 0.5,
                actual_load: None,
            },
        ]);
        assert!(
            (fast_first.makespan - slow_first.makespan).abs() > 1e-9,
            "the service order must have responded to the bids: {} vs {}",
            fast_first.makespan,
            slow_first.makespan
        );
    }

    #[test]
    fn overloaded_tree_victim_made_whole() {
        let mech = binary_tree();
        let agents = tree_agents();
        let honest = mech.settle_truthful(&agents);
        let mut conducts: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        let base = honest.agents[1].assigned;
        conducts[1].actual_load = Some(base + 0.05);
        let outcome = mech.settle(&conducts);
        assert!((outcome.utility(2) - honest.utility(2)).abs() < 1e-9);
    }
}

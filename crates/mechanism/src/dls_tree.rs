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
//!
//! [`TreeMechanism::new`] flattens the canonical shape once into preorder
//! arrays ([`dlt::tree::FlatTree`]), so a settlement never rebuilds a
//! tree. [`TreeMechanism::settle`] makes five passes over those arrays:
//!
//! 1. the service order as a child-index view: the stored order for
//!    [`OrderPolicy::Canonical`], the frozen permutations for
//!    [`OrderPolicy::Frozen`], and for
//!    [`OrderPolicy::BidFastestEquivalentFirst`] a sort by the subtree
//!    equivalents of a bottom-up pass over the canonical view;
//! 2. one bottom-up pass that solves each internal node's local star once;
//! 3. one top-down pass that assigns the loads;
//! 4. each agent's realized parent equivalent, from the parent's cached
//!    star fractions;
//! 5. each agent's payment breakdown.
//!
//! The passes' buffers (the node rates, a bid-dependent order and the
//! [`dlt::tree::FlatSolution`]) live in a warm per-thread workspace, the
//! pattern of `dlt::batch::solve_many`, so a settlement allocates only
//! the `agents` it returns (DESIGN §22).

use crate::agent::{Agent, Conduct};
use crate::payment::{self, PaymentInputs};
use dlt::model::{LinearNetwork, Processor, StarNetwork, TreeNode};
use dlt::seqsearch::TreeOrder;
use dlt::tree::{FlatSolution, FlatTree};
use std::cell::RefCell;

/// The buffers of one [`TreeMechanism::settle`], kept warm per thread.
/// Every pass writes each entry it later reads, so what a larger tree
/// left behind never reaches a result.
#[derive(Debug, Default)]
struct Scratch {
    /// The root's rate, then the bids.
    rate: Vec<f64>,
    /// The bid-dependent service order of
    /// [`OrderPolicy::BidFastestEquivalentFirst`].
    order: Vec<usize>,
    /// The solve over the bids.
    sol: FlatSolution,
}

thread_local! {
    /// Warm per-thread workspace backing [`TreeMechanism::settle`].
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

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
    /// The canonical shape in preorder; agent `j` is node `j`.
    flat: FlatTree,
    /// The bid-independent service order of `Canonical` and `Frozen`
    /// (empty for the bid-dependent policy).
    order: Vec<usize>,
}

/// The root's rate, then a placeholder rate for the agent behind each
/// link (bids replace it).
fn placeholders(root_rate: f64, link_rates: &[f64]) -> Vec<f64> {
    let mut w = vec![1.0; link_rates.len() + 1];
    w[0] = root_rate;
    w
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
        let flat = FlatTree::new(&shape);
        let order = match &policy {
            // The shape is canonical, so its stored order *is* the
            // canonical service order.
            OrderPolicy::Canonical => flat.identity_order().to_vec(),
            OrderPolicy::Frozen(order) => {
                assert!(
                    order.is_valid(&shape),
                    "frozen order does not fit the canonical shape's preorder"
                );
                flat.permuted_order(&order.perms)
            }
            OrderPolicy::BidFastestEquivalentFirst => Vec::new(),
        };
        Self {
            shape,
            agents,
            policy,
            flat,
            order,
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
        let net = LinearNetwork::from_rates(&placeholders(root_rate, link_rates), link_rates);
        Self::new(TreeNode::from_chain(&net))
    }

    /// A star/bus as a depth-1 tree.
    pub fn star(root_rate: f64, link_rates: &[f64]) -> Self {
        let net = StarNetwork::from_rates(&placeholders(root_rate, link_rates), link_rates);
        Self::new(TreeNode::from_star(&net))
    }

    /// Number of strategic agents.
    pub fn num_agents(&self) -> usize {
        self.agents
    }

    /// Settle a round of conducts (preorder over non-root nodes). The
    /// node rates, the bid-dependent service order and the solve live in
    /// a warm per-thread workspace, so a settlement allocates only its
    /// outcome's `agents`.
    pub fn settle(&self, conducts: &[Conduct]) -> TreeOutcome {
        assert_eq!(conducts.len(), self.agents, "one bid per strategic node");
        // Nothing below settles again, so the borrow cannot be re-entered.
        SCRATCH.with(|scratch| self.settle_in(conducts, &mut scratch.borrow_mut()))
    }

    fn settle_in(&self, conducts: &[Conduct], scratch: &mut Scratch) -> TreeOutcome {
        let flat = &self.flat;
        let Scratch {
            rate,
            order: bid_order,
            sol,
        } = scratch;
        // Node rates: the root's trusted rate, then the bids. A larger
        // tree's leftovers are cut off here and overwritten by the passes.
        rate.clear();
        rate.push(flat.rate[0]);
        rate.extend(conducts.iter().map(|c| Processor::new(c.bid).w));
        // Pass 1: the service order as a child-index view.
        let order = match self.policy {
            OrderPolicy::BidFastestEquivalentFirst => {
                // Serve each node's children in ascending order of their
                // bid-instantiated equivalents over the canonical view
                // (stable for ties).
                bid_order.clear();
                bid_order.extend_from_slice(flat.identity_order());
                flat.reduce_into(rate, bid_order, sol);
                flat.sort_children(bid_order, &sol.equivalent);
                &bid_order[..]
            }
            _ => &self.order,
        };
        // Passes 2 and 3: every local star once, then the loads.
        flat.solve_into(rate, order, sol);
        // Passes 4 and 5: realized parent equivalents and payments.
        let agents = (1..=self.agents)
            .map(|j| {
                let c = &conducts[j - 1];
                let assigned = sol.alpha[j];
                let actual_load = c.actual_load.unwrap_or(assigned);
                let inputs = PaymentInputs {
                    assigned_load: assigned,
                    actual_load,
                    actual_rate: c.actual_rate,
                };
                let bonus = self.bonus(rate, sol, order, j, c.actual_rate);
                let b = payment::breakdown(inputs, bonus, 0.0);
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
            root_load: sol.alpha[0],
            makespan: sol.equivalent[0],
        }
    }

    /// Bonus `B_j = w_p − w̄_p(α(bids), actual)` of agent `j` with parent
    /// `p`. `j`'s branch is re-timed by the tree analogue of eqs.
    /// 4.10–4.11 (`ŵ_j = α̂_j w̃_j` when slower than bid, unchanged when
    /// at least as fast, `w̃_j` at a leaf), and `p`'s local star is
    /// re-timed under its cached fractions, so the split stays the bids'.
    fn bonus(
        &self,
        rate: &[f64],
        sol: &FlatSolution,
        order: &[usize],
        j: usize,
        actual_rate: f64,
    ) -> f64 {
        let flat = &self.flat;
        let w_hat = if flat.is_leaf(j) {
            actual_rate
        } else if actual_rate >= rate[j] {
            // `α̂_j`: the share of its subtree's load `j` retains.
            let alpha_hat = if sol.received[j] > 1e-300 {
                sol.alpha[j] / sol.received[j]
            } else {
                1.0
            };
            alpha_hat * actual_rate
        } else {
            sol.equivalent[j]
        };
        // The parent's finish times with j's branch re-timed to ŵ_j.
        let p = flat.parent[j];
        let star = flat.star(sol, p);
        let mut worst = star[0] * rate[p];
        let mut comm = 0.0;
        for (&c, &a) in flat.children(order, p).iter().zip(&star[1..]) {
            comm += a * flat.link[c];
            let branch = if c == j { w_hat } else { sol.equivalent[c] };
            worst = worst.max(comm + a * branch);
        }
        rate[p] - worst
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
        binary_tree().settle(&[Conduct::truthful(Agent::new(1.0))]);
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

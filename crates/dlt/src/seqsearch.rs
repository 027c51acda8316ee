//! Sequencing search over chain, star and tree service orders.
//!
//! With one-port sequential distribution, the order in which a node serves
//! its children is a degree of freedom. Every internal node serves its
//! children in some permutation, so a full service order is one
//! permutation **per node** ([`TreeOrder`]), and the space has
//! `∏ fanout_i!` points ([`order_space_size`]). A star is the depth-1
//! case ([`TreeNode::from_star`]): one permutation of its `m` children,
//! `m!` orders. Two searchers cover the space:
//!
//! * [`exhaustive_search`] — the ground-truth oracle. It enumerates the
//!   whole product space behind an **explicit budget guard**
//!   ([`BudgetExceeded`]) instead of silently exploding: callers state how
//!   many evaluations they are willing to pay and get a typed error past
//!   that.
//! * [`local_search`] — a seeded, deterministic first-class citizen for
//!   large trees: steepest-descent over an adjacent-swap + subtree-reorder
//!   neighborhood with seeded random restarts. Restart 0 always starts
//!   from the canonical ascending-link order, so the result can **never be
//!   worse than canonical**; determinism comes from an internal splitmix64
//!   stream (no external RNG dependency), so a fixed seed replays
//!   byte-for-byte.
//!
//! Every candidate order is evaluated through the real machinery — the
//! tree is flattened once ([`crate::tree::FlatTree`]), each order becomes
//! a child-index view of it, and [`crate::tree`]'s equal-finish bottom-up
//! pass solves that view (on a degenerate path this is exactly
//! [`crate::linear`]'s solution) — so makespans are the true fixed-order
//! equal-finish optima, not proxies, and no candidate rebuilds the tree.
//!
//! The classical sequencing result (serve faster links first) predicts
//! the canonical order is globally optimal in this model: the oracle lets
//! experiments E18 (stars) and E29 (trees) *verify* that rather than
//! assume it, and the mechanism layer (`mechanism::dls_tree`) uses
//! searched orders to test whether strategyproofness survives sequencing
//! optimization (it does for bid-independent frozen orders; it breaks for
//! bid-dependent ones — see E29 and DESIGN.md §15).

use crate::model::TreeNode;
use crate::tree::{FlatSolution, FlatTree};
use std::fmt;

/// A full service order for a tree: one permutation of child positions per
/// node, indexed by the node's **preorder index in the tree the order was
/// derived from**. `perms[i][k]` is the stored child position of node `i`
/// that is served `k`-th. Leaves carry empty permutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeOrder {
    /// Per-node child permutations in preorder.
    pub perms: Vec<Vec<usize>>,
}

impl TreeOrder {
    /// True iff this order fits `root`: one entry per preorder node, each
    /// a permutation of `0..fanout`.
    pub fn is_valid(&self, root: &TreeNode) -> bool {
        let fans = fanouts(root);
        if fans.len() != self.perms.len() {
            return false;
        }
        self.perms.iter().zip(&fans).all(|(perm, &f)| {
            let mut seen = perm.clone();
            seen.sort_unstable();
            perm.len() == f && seen.iter().copied().eq(0..f)
        })
    }
}

/// Preorder fanout of every node.
fn fanouts(root: &TreeNode) -> Vec<usize> {
    fn walk(node: &TreeNode, out: &mut Vec<usize>) {
        out.push(node.children.len());
        for (_, c) in &node.children {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    out
}

/// The identity order: children served in stored order.
pub fn identity_order(root: &TreeNode) -> TreeOrder {
    TreeOrder {
        perms: fanouts(root)
            .into_iter()
            .map(|f| (0..f).collect())
            .collect(),
    }
}

/// The canonical order: every node serves its children in ascending
/// link-rate order (stable for ties — equal links keep stored index
/// order, the contract [`crate::tree::canonicalize`] relies on).
pub fn canonical_order(root: &TreeNode) -> TreeOrder {
    fn walk(node: &TreeNode, out: &mut Vec<Vec<usize>>) {
        let mut perm: Vec<usize> = (0..node.children.len()).collect();
        perm.sort_by(|&a, &b| node.children[a].0.z.total_cmp(&node.children[b].0.z));
        out.push(perm);
        for (_, c) in &node.children {
            walk(c, out);
        }
    }
    let mut perms = Vec::new();
    walk(root, &mut perms);
    TreeOrder { perms }
}

/// Rebuild `root` with every node's children re-arranged per `order`.
/// Preorder indices in `order` refer to `root`'s preorder, not the
/// output's. The searchers evaluate orders without rebuilding; this is
/// the reference their child-index view is pinned against.
pub fn apply_order(root: &TreeNode, order: &TreeOrder) -> TreeNode {
    fn walk(node: &TreeNode, order: &TreeOrder, next: &mut usize) -> TreeNode {
        let id = *next;
        *next += 1;
        let perm = &order.perms[id];
        assert_eq!(
            perm.len(),
            node.children.len(),
            "order does not fit the tree at preorder node {id}"
        );
        // Rebuild subtrees in *original* preorder (the counter must advance
        // through the input tree's layout), then move them into perm order.
        let mut rebuilt: Vec<_> = node
            .children
            .iter()
            .map(|(l, c)| Some((*l, walk(c, order, next))))
            .collect();
        TreeNode {
            processor: node.processor,
            children: perm
                .iter()
                .map(|&k| rebuilt[k].take().expect("order entry is a permutation"))
                .collect(),
        }
    }
    let mut next = 0;
    let out = walk(root, order, &mut next);
    assert_eq!(next, order.perms.len(), "order does not fit the tree");
    out
}

/// Equal-finish makespan of `root` when served per `order`, through the
/// real tree solver's bottom-up pass over a child-index view of the
/// flattened tree. Bit-identical to
/// `tree::equivalent_time(&apply_order(root, order))`, without rebuilding
/// the tree.
pub fn order_makespan(root: &TreeNode, order: &TreeOrder) -> f64 {
    Evaluator::new(root).makespan(order)
}

/// Evaluates service orders of one tree: the tree is flattened once, and
/// each order becomes a child-index view ([`FlatTree::permuted_order`])
/// for the bottom-up pass.
struct Evaluator {
    flat: FlatTree,
    sol: FlatSolution,
}

impl Evaluator {
    fn new(root: &TreeNode) -> Self {
        Self {
            flat: FlatTree::new(root),
            sol: FlatSolution::default(),
        }
    }

    fn makespan(&mut self, order: &TreeOrder) -> f64 {
        let view = self.flat.permuted_order(&order.perms);
        self.flat.reduce_into(&self.flat.rate, &view, &mut self.sol);
        self.sol.equivalent[0]
    }
}

/// Number of orderable nodes: children whose service position is a real
/// degree of freedom (i.e. children of nodes with fanout ≥ 2). A chain
/// has zero; a star of `m` children has `m`.
pub fn orderable_nodes(root: &TreeNode) -> usize {
    fanouts(root).into_iter().filter(|&f| f >= 2).sum()
}

/// Size of the order space, `∏ fanout_i!`, or `None` on `u128` overflow.
pub fn order_space_size(root: &TreeNode) -> Option<u128> {
    let mut total: u128 = 1;
    for f in fanouts(root) {
        for k in 2..=f as u128 {
            total = total.checked_mul(k)?;
        }
    }
    Some(total)
}

/// Typed refusal of an exhaustive enumeration whose order space exceeds
/// the caller's evaluation budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Size of the order space (`u128::MAX` when it overflows `u128`).
    pub required: u128,
    /// The evaluation budget the caller offered.
    pub budget: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "order space of {} permutation assignments exceeds the evaluation budget of {}",
            self.required, self.budget
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Result of an order search (exhaustive or local).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The best order found (ties broken toward the first found, so the
    /// result is deterministic).
    pub best_order: TreeOrder,
    /// Its makespan.
    pub best_makespan: f64,
    /// The worst makespan seen (exhaustive: over the whole space).
    pub worst_makespan: f64,
    /// Number of orders evaluated through the tree solver.
    pub evaluated: u64,
}

/// Enumerate the entire order space and return the optimum — the oracle
/// that pins [`local_search`]. Refuses with [`BudgetExceeded`] when
/// `∏ fanout_i!` exceeds `budget` **before** evaluating anything.
pub fn exhaustive_search(root: &TreeNode, budget: u64) -> Result<SearchOutcome, BudgetExceeded> {
    let required = order_space_size(root).unwrap_or(u128::MAX);
    if required > budget as u128 {
        return Err(BudgetExceeded { required, budget });
    }
    let mut order = identity_order(root);
    let nodes: Vec<usize> = order
        .perms
        .iter()
        .enumerate()
        .filter(|(_, p)| p.len() >= 2)
        .map(|(i, _)| i)
        .collect();
    let mut best: Option<(TreeOrder, f64)> = None;
    let mut worst = f64::NEG_INFINITY;
    let mut evaluated = 0u64;
    // Odometer over the orderable nodes: recursively generate each node's
    // permutations by prefix swaps, then move to the next node.
    fn enum_nodes(
        root: &TreeNode,
        nodes: &[usize],
        k: usize,
        order: &mut TreeOrder,
        visit: &mut dyn FnMut(&TreeNode, &TreeOrder),
    ) {
        if k == nodes.len() {
            visit(root, order);
            return;
        }
        enum_perm(root, nodes, k, 0, order, visit);
    }
    fn enum_perm(
        root: &TreeNode,
        nodes: &[usize],
        k: usize,
        pos: usize,
        order: &mut TreeOrder,
        visit: &mut dyn FnMut(&TreeNode, &TreeOrder),
    ) {
        let id = nodes[k];
        let len = order.perms[id].len();
        if pos == len {
            enum_nodes(root, nodes, k + 1, order, visit);
            return;
        }
        for i in pos..len {
            order.perms[id].swap(pos, i);
            enum_perm(root, nodes, k, pos + 1, order, visit);
            order.perms[id].swap(pos, i);
        }
    }
    let mut eval = Evaluator::new(root);
    enum_nodes(root, &nodes, 0, &mut order, &mut |_, order| {
        let ms = eval.makespan(order);
        evaluated += 1;
        if best.as_ref().is_none_or(|(_, b)| ms < *b) {
            best = Some((order.clone(), ms));
        }
        worst = worst.max(ms);
    });
    let (best_order, best_makespan) = best.expect("order space is never empty");
    Ok(SearchOutcome {
        best_order,
        best_makespan,
        worst_makespan: worst,
        evaluated,
    })
}

/// Configuration of the seeded deterministic local search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSearchConfig {
    /// Seed of the restart stream. Identical seeds replay byte-for-byte.
    pub seed: u64,
    /// Random restarts beyond the canonical one (restart 0 always starts
    /// from the canonical ascending-link order).
    pub restarts: usize,
    /// Cap on descent steps per restart.
    pub max_steps: usize,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        Self {
            seed: 0x5E9_5EA8C,
            restarts: 3,
            max_steps: 200,
        }
    }
}

/// Result of [`local_search`], with the canonical makespan alongside for
/// gain accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSearchOutcome {
    /// The best order found.
    pub best_order: TreeOrder,
    /// Its makespan — never above `canonical_makespan`.
    pub best_makespan: f64,
    /// Makespan of the canonical ascending-link order.
    pub canonical_makespan: f64,
    /// Orders evaluated through the tree solver, across all restarts.
    pub evaluated: u64,
    /// Descent steps actually taken, across all restarts.
    pub steps: u64,
}

/// SplitMix64 — the module's only randomness, so the search carries no RNG
/// dependency and a fixed seed replays exactly.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded uniformly random order (per-node Fisher–Yates).
fn shuffled_order(root: &TreeNode, state: &mut u64) -> TreeOrder {
    let mut order = identity_order(root);
    for perm in &mut order.perms {
        for i in (1..perm.len()).rev() {
            let j = (splitmix64(state) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
    }
    order
}

/// Seeded deterministic local search: steepest descent over the
/// adjacent-swap + subtree-reorder neighborhood, restarted from seeded
/// random orders. Restart 0 descends from the canonical ascending-link
/// order, so `best_makespan ≤ canonical_makespan` holds unconditionally.
pub fn local_search(root: &TreeNode, cfg: &LocalSearchConfig) -> LocalSearchOutcome {
    let mut eval = Evaluator::new(root);
    let canonical = canonical_order(root);
    let canonical_makespan = eval.makespan(&canonical);
    let mut evaluated = 1u64;
    let mut steps = 0u64;
    let mut best_order = canonical.clone();
    let mut best_makespan = canonical_makespan;
    let mut state = cfg.seed ^ 0x0DD0_5EA8;
    for restart in 0..=cfg.restarts {
        let mut cur = if restart == 0 {
            canonical.clone()
        } else {
            shuffled_order(root, &mut state)
        };
        let mut cur_ms = if restart == 0 {
            canonical_makespan
        } else {
            evaluated += 1;
            eval.makespan(&cur)
        };
        for _ in 0..cfg.max_steps {
            let mut improved: Option<(TreeOrder, f64)> = None;
            let mut consider = |cand: TreeOrder, evaluated: &mut u64| {
                let ms = eval.makespan(&cand);
                *evaluated += 1;
                if ms < cur_ms && improved.as_ref().is_none_or(|(_, b)| ms < *b) {
                    improved = Some((cand, ms));
                }
            };
            for i in 0..cur.perms.len() {
                let f = cur.perms[i].len();
                if f < 2 {
                    continue;
                }
                // Adjacent swaps within node i's service permutation.
                for k in 0..f - 1 {
                    let mut cand = cur.clone();
                    cand.perms[i].swap(k, k + 1);
                    consider(cand, &mut evaluated);
                }
                // Subtree reorder: reset node i's permutation to its
                // canonical ascending-link order in one move.
                if cur.perms[i] != canonical.perms[i] {
                    let mut cand = cur.clone();
                    cand.perms[i] = canonical.perms[i].clone();
                    consider(cand, &mut evaluated);
                }
            }
            match improved {
                Some((next, ms)) => {
                    cur = next;
                    cur_ms = ms;
                    steps += 1;
                }
                None => break,
            }
        }
        if cur_ms < best_makespan {
            best_order = cur;
            best_makespan = cur_ms;
        }
    }
    LocalSearchOutcome {
        best_order,
        best_makespan,
        canonical_makespan,
        evaluated,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearNetwork, StarNetwork};
    use crate::{linear, star, tree};

    fn branchy() -> TreeNode {
        TreeNode::internal(
            1.1,
            vec![
                (
                    0.4,
                    TreeNode::internal(
                        1.6,
                        vec![(0.3, TreeNode::leaf(2.0)), (0.1, TreeNode::leaf(0.8))],
                    ),
                ),
                (0.05, TreeNode::leaf(2.5)),
                (0.2, TreeNode::leaf(1.4)),
            ],
        )
    }

    /// A star as a depth-1 tree: links 0.66, 0.1, 0.4, 0.05.
    fn star() -> TreeNode {
        TreeNode::from_star(&StarNetwork::from_rates(
            &[1.0, 2.0, 0.7, 3.0, 1.1],
            &[0.66, 0.1, 0.4, 0.05],
        ))
    }

    #[test]
    fn identity_order_round_trips_the_tree() {
        let t = branchy();
        let order = identity_order(&t);
        assert!(order.is_valid(&t));
        assert_eq!(apply_order(&t, &order), t);
    }

    #[test]
    fn canonical_order_sorts_each_node_by_link_rate() {
        let t = branchy();
        let order = canonical_order(&t);
        // Root links are 0.4, 0.05, 0.2 → serve 1, 2, 0.
        assert_eq!(order.perms[0], vec![1, 2, 0]);
        // The internal node's links are 0.3, 0.1 → serve 1, 0.
        assert_eq!(order.perms[1], vec![1, 0]);
        let ordered = apply_order(&t, &order);
        assert_eq!(ordered, tree::canonicalize(&t));
        assert_eq!(canonical_order(&star()).perms[0], vec![3, 1, 2, 0]);
    }

    #[test]
    fn canonical_order_is_stable_on_equal_links() {
        let t = TreeNode::internal(
            1.0,
            vec![
                (0.3, TreeNode::leaf(2.0)),
                (0.3, TreeNode::leaf(0.5)),
                (0.3, TreeNode::leaf(1.2)),
            ],
        );
        assert_eq!(canonical_order(&t).perms[0], vec![0, 1, 2]);
    }

    #[test]
    fn chains_have_a_trivial_order_space() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]);
        let t = TreeNode::from_chain(&net);
        assert_eq!(orderable_nodes(&t), 0);
        assert_eq!(order_space_size(&t), Some(1));
        let search = exhaustive_search(&t, 1).expect("one evaluation");
        assert_eq!(search.evaluated, 1);
        assert!((search.best_makespan - linear::solve(&net).makespan()).abs() < 1e-12);
        let local = local_search(&t, &LocalSearchConfig::default());
        assert_eq!(local.best_makespan, search.best_makespan);
    }

    #[test]
    fn exhaustive_covers_the_product_space() {
        // Branchy: root fanout 3, internal fanout 2 → 3! · 2! = 12 orders.
        // Star: 4 children → 4! = 24 orders.
        for (t, orders, orderable) in [(branchy(), 12, 5), (star(), 24, 4)] {
            assert_eq!(order_space_size(&t), Some(orders as u128));
            assert_eq!(orderable_nodes(&t), orderable);
            let search = exhaustive_search(&t, orders).expect("within budget");
            assert_eq!(search.evaluated, orders);
            assert!(search.best_makespan <= search.worst_makespan);
            assert!(search.best_order.is_valid(&t));
        }
    }

    #[test]
    fn exhaustive_optimum_is_the_canonical_order_makespan() {
        for t in [branchy(), star()] {
            let search = exhaustive_search(&t, 1_000).unwrap();
            let canon = order_makespan(&t, &canonical_order(&t));
            assert!(
                canon <= search.best_makespan + 1e-12,
                "classical sequencing: canonical {canon} vs oracle {}",
                search.best_makespan
            );
        }
    }

    #[test]
    fn star_order_matters_only_with_heterogeneous_links() {
        let search = exhaustive_search(&star(), 24).unwrap();
        assert!(
            search.worst_makespan > search.best_makespan + 1e-6,
            "with spread-out link rates the order must matter"
        );
        let bus = TreeNode::from_star(&StarNetwork::bus(1.0, &[2.0, 2.0, 2.0], 0.3));
        let search = exhaustive_search(&bus, 6).unwrap();
        assert_eq!(search.worst_makespan, search.best_makespan);
    }

    #[test]
    fn order_view_matches_solving_the_rebuilt_tree_bitwise() {
        // Every order of `branchy`: the child-index view and the rebuilt
        // tree are the same solve, bit for bit.
        let t = branchy();
        let mut orders = vec![identity_order(&t), canonical_order(&t)];
        let mut state = 7;
        orders.extend((0..16).map(|_| shuffled_order(&t, &mut state)));
        for order in &orders {
            assert_eq!(
                order_makespan(&t, order).to_bits(),
                tree::equivalent_time(&apply_order(&t, order)).to_bits(),
                "{order:?}"
            );
        }
    }

    #[test]
    fn star_as_tree_solves_through_star_solve() {
        let net = StarNetwork::from_rates(&[1.0, 2.0, 0.7, 3.0, 1.1], &[0.66, 0.1, 0.4, 0.05]);
        let t = TreeNode::from_star(&net);
        assert_eq!(
            order_makespan(&t, &identity_order(&t)).to_bits(),
            star::solve(&net).makespan.to_bits()
        );
    }

    #[test]
    fn budget_guard_refuses_before_evaluating() {
        let t = branchy();
        let err = exhaustive_search(&t, 11).unwrap_err();
        assert_eq!(
            err,
            BudgetExceeded {
                required: 12,
                budget: 11
            }
        );
        assert!(err.to_string().contains("exceeds the evaluation budget"));
    }

    #[test]
    fn order_space_size_overflows_to_none() {
        let children = (0..40)
            .map(|i| (0.1 + 0.01 * i as f64, TreeNode::leaf(1.0)))
            .collect();
        let wide = TreeNode::internal(1.0, children);
        assert_eq!(order_space_size(&wide), None);
        let err = exhaustive_search(&wide, u64::MAX).unwrap_err();
        assert_eq!(err.required, u128::MAX);
    }

    #[test]
    fn local_search_never_loses_to_canonical_and_matches_oracle_here() {
        let t = branchy();
        let local = local_search(&t, &LocalSearchConfig::default());
        assert!(local.best_makespan <= local.canonical_makespan + 1e-15);
        let oracle = exhaustive_search(&t, 1_000).unwrap();
        assert!(
            (local.best_makespan - oracle.best_makespan).abs() < 1e-12,
            "local {} vs oracle {}",
            local.best_makespan,
            oracle.best_makespan
        );
    }

    #[test]
    fn local_search_replays_byte_identically() {
        let t = branchy();
        let cfg = LocalSearchConfig {
            seed: 42,
            restarts: 5,
            max_steps: 50,
        };
        let a = local_search(&t, &cfg);
        let b = local_search(&t, &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn local_search_descends_from_a_bad_random_start() {
        // With zero restarts beyond canonical the guarantee still holds;
        // with restarts the descent must repair shuffled starts back to
        // the optimum on this small instance.
        let t = branchy();
        let cfg = LocalSearchConfig {
            seed: 7,
            restarts: 8,
            max_steps: 100,
        };
        let local = local_search(&t, &cfg);
        let oracle = exhaustive_search(&t, 1_000).unwrap();
        assert!((local.best_makespan - oracle.best_makespan).abs() < 1e-12);
        assert!(local.steps > 0, "shuffled restarts should need descent");
    }
}

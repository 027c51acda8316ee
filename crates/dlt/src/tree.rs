//! Optimal divisible load scheduling on tree networks by recursive
//! equivalent-processor reduction — the substrate of the companion tree
//! mechanism \[9\], used here as a baseline in the cross-architecture
//! comparison (E10) and as an independent oracle for the chain solver (a
//! chain is a degenerate tree, and the two solvers must agree exactly).
//!
//! Every internal node solves a local star problem over (link, equivalent
//! child) pairs: subtrees are collapsed bottom-up into equivalent processors
//! (their optimal unit-load makespan), and the load is then split top-down,
//! scaling the local star fractions by the amount each branch receives —
//! exact under the linear cost model.
//!
//! The tree has one layout, [`FlatTree`]'s preorder arrays, and one solver,
//! its two passes: the bottom-up pass solves each local star exactly once,
//! through [`star::solve_into`], and the top-down pass splits the load.
//! They run under any service order (a child-index view), so the tree
//! mechanism's settlement, the order search and the protocol walk the same
//! arrays; [`solve`] and [`equivalent_time`] run them over the stored
//! order of a [`TreeNode`].

use crate::model::{Link, Processor, TreeNode, EPSILON};
use crate::star;

/// Canonicalize a tree for scheduling: recursively sort every node's
/// children by ascending link rate (stable for ties).
///
/// The classical single-level-tree sequencing result says serving
/// faster links first is the optimal distribution order; with an
/// arbitrary order the fixed-order equal-finish solution need not be
/// min-makespan (a slow-linked child served early can block a fast
/// sibling), which also breaks the makespan's monotonicity in a child's
/// rate — the property the tree *mechanism* needs for strategyproofness.
/// Canonicalize before solving whenever the child order is not itself
/// meaningful.
pub fn canonicalize(node: &TreeNode) -> TreeNode {
    let mut children: Vec<(Link, TreeNode)> = node
        .children
        .iter()
        .map(|(l, c)| (*l, canonicalize(c)))
        .collect();
    children.sort_by(|a, b| a.0.z.total_cmp(&b.0.z));
    TreeNode {
        processor: node.processor,
        children,
    }
}

/// A tree flattened into preorder arrays: the layout of the solver's two
/// passes. Node 0 is the root and every node precedes its descendants, so
/// a reverse index sweep is bottom-up and a forward sweep is top-down,
/// whatever order each node serves its children in.
///
/// A *service order* is a slice holding, for every node in turn, its
/// children's node indices in the order it distributes to them;
/// [`FlatTree::children`] reads one node's part.
/// [`FlatTree::identity_order`] is the stored order;
/// [`FlatTree::permuted_order`] applies one permutation per node.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTree {
    /// Processor rate of each node, as stored in the source tree.
    pub rate: Vec<f64>,
    /// Rate of the link into each node from its parent (0 at the root).
    pub link: Vec<f64>,
    /// Parent of each node; the root is its own parent.
    pub parent: Vec<usize>,
    /// Node `i`'s stored children are `kids[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    kids: Vec<usize>,
}

/// The per-node result of [`FlatTree::solve_into`]. Reusable: solving
/// into a warm `FlatSolution` allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatSolution {
    /// Equivalent unit time of each node's subtree.
    pub equivalent: Vec<f64>,
    /// Load retained by each node's processor.
    pub alpha: Vec<f64>,
    /// Load handed to each node's subtree; the root receives 1.
    pub received: Vec<f64>,
    /// Every node's local star fractions, see [`FlatTree::star`].
    fractions: Vec<f64>,
}

impl FlatTree {
    /// Flatten `root` in preorder.
    pub fn new(root: &TreeNode) -> Self {
        // Preorder reserves each node's child slots before visiting its
        // children, so `start` is the running sum of earlier fanouts.
        fn walk(node: &TreeNode, parent: usize, z: f64, out: &mut FlatTree) {
            let id = out.rate.len();
            out.rate.push(node.processor.w);
            out.link.push(z);
            out.parent.push(parent);
            let first = out.kids.len();
            out.start.push(first);
            out.kids.resize(first + node.children.len(), 0);
            for (k, (link, child)) in node.children.iter().enumerate() {
                out.kids[first + k] = out.rate.len();
                walk(child, id, link.z, out);
            }
        }
        let n = root.size();
        let mut out = FlatTree {
            rate: Vec::with_capacity(n),
            link: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            start: Vec::with_capacity(n + 1),
            kids: Vec::with_capacity(n - 1),
        };
        walk(root, 0, 0.0, &mut out);
        out.start.push(out.kids.len());
        out
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rate.len()
    }

    /// True for an empty tree (never: a tree has a root).
    pub fn is_empty(&self) -> bool {
        self.rate.is_empty()
    }

    /// Node `i`'s children under service order `order`.
    #[inline]
    pub fn children<'a>(&self, order: &'a [usize], i: usize) -> &'a [usize] {
        &order[self.start[i]..self.start[i + 1]]
    }

    /// True if node `i` has no children.
    #[inline]
    pub fn is_leaf(&self, i: usize) -> bool {
        self.start[i] == self.start[i + 1]
    }

    /// The stored service order.
    pub fn identity_order(&self) -> &[usize] {
        &self.kids
    }

    /// The service order in which node `i` serves its `perms[i][k]`-th
    /// stored child `k`-th (a `seqsearch::TreeOrder`'s layout).
    pub fn permuted_order(&self, perms: &[Vec<usize>]) -> Vec<usize> {
        assert_eq!(perms.len(), self.len(), "one permutation per node");
        let mut order = Vec::with_capacity(self.kids.len());
        for (i, perm) in perms.iter().enumerate() {
            let kids = &self.kids[self.start[i]..self.start[i + 1]];
            assert_eq!(perm.len(), kids.len(), "permutation {i} does not fit");
            order.extend(perm.iter().map(|&k| kids[k]));
        }
        order
    }

    /// Re-sort every node's children in `order` by ascending `key[child]`
    /// (stable for ties).
    pub fn sort_children(&self, order: &mut [usize], key: &[f64]) {
        for i in 0..self.len() {
            order[self.start[i]..self.start[i + 1]].sort_by(|&a, &b| key[a].total_cmp(&key[b]));
        }
    }

    /// Node `i`'s local star fractions in `sol`: its own share first, then
    /// its children's in service order (a leaf's star is `[1.0]`).
    #[inline]
    pub fn star<'a>(&self, sol: &'a FlatSolution, i: usize) -> &'a [f64] {
        &sol.fractions[i + self.start[i]..=i + self.start[i + 1]]
    }

    /// The bottom-up pass: every subtree's equivalent time and every local
    /// star's fractions, each star solved once with [`star::solve_into`].
    /// `rate` replaces the stored rates (the mechanism's bids).
    pub fn reduce_into(&self, rate: &[f64], order: &[usize], sol: &mut FlatSolution) {
        let n = self.len();
        assert_eq!(rate.len(), n, "one rate per node");
        sol.equivalent.resize(n, 0.0);
        sol.fractions.resize(n + self.kids.len(), 0.0);
        for i in (0..n).rev() {
            let kids = self.children(order, i);
            let span = i + self.start[i]..=i + self.start[i + 1];
            let eq = &sol.equivalent;
            let local = kids.iter().map(|&c| (self.link[c], eq[c]));
            sol.equivalent[i] = star::solve_into(rate[i], local, &mut sol.fractions[span]);
        }
    }

    /// Both passes: [`FlatTree::reduce_into`], then the top-down split of
    /// the unit load from the root, scaling each local star's fractions by
    /// the load its node receives.
    pub fn solve_into(&self, rate: &[f64], order: &[usize], sol: &mut FlatSolution) {
        self.reduce_into(rate, order, sol);
        let n = self.len();
        sol.alpha.resize(n, 0.0);
        sol.received.resize(n, 0.0);
        sol.received[0] = 1.0;
        for i in 0..n {
            let span = i + self.start[i];
            let received = sol.received[i];
            sol.alpha[i] = sol.fractions[span] * received;
            for (k, &c) in self.children(order, i).iter().enumerate() {
                sol.received[c] = sol.fractions[span + 1 + k] * received;
            }
        }
    }
}

/// Compute the equivalent unit processing time of a subtree by bottom-up
/// star reduction: the makespan of the whole tree under the optimal
/// allocation (all processors finish together).
pub fn equivalent_time(node: &TreeNode) -> f64 {
    solve(node).equivalent[0]
}

/// Solve the tree problem: optimal fractions for every processor, in
/// preorder, when the root originates a unit load.
pub fn solve(root: &TreeNode) -> FlatSolution {
    let flat = FlatTree::new(root);
    let mut sol = FlatSolution::default();
    flat.solve_into(&flat.rate, &flat.kids, &mut sol);
    sol
}

/// Result of [`splice_node`]: the survivor tree plus the preorder
/// renumbering the splice induced.
#[derive(Debug, Clone, PartialEq)]
pub struct SplicedTree {
    /// The survivor tree, re-canonicalized.
    pub tree: TreeNode,
    /// `map[old] = Some(new)` maps the original tree's preorder indices to
    /// the survivor tree's; `None` marks the removed node.
    pub map: Vec<Option<usize>>,
}

/// Remove the non-root node at preorder index `dead` and re-attach each of
/// its child subtrees directly to its parent.
///
/// Every re-attached subtree's incoming link fuses with the dead node's:
/// the data still travels both hops, store-and-forward, so the rates add —
/// `z(parent→child) = z(parent→dead) + z(dead→child)`. On a degenerate
/// path this is exactly [`crate::linear::splice`]'s `z_k + z_{k+1}` fusion;
/// a leaf is simply cut. The survivor tree is re-canonicalized (children
/// re-sorted by ascending link rate, stably), because the fused links can
/// land anywhere in the parent's service order; `map` records where every
/// surviving node ended up.
pub fn splice_node(root: &TreeNode, dead: usize) -> SplicedTree {
    let n = root.size();
    assert!(
        dead >= 1 && dead < n,
        "can only splice a non-root node out of the tree (dead={dead}, n={n})"
    );

    // Tag every node with its original preorder index so the map survives
    // re-attachment and re-sorting.
    struct Tagged {
        old: usize,
        w: f64,
        children: Vec<(f64, Tagged)>,
    }
    fn tag(node: &TreeNode, next: &mut usize) -> Tagged {
        let old = *next;
        *next += 1;
        Tagged {
            old,
            w: node.processor.w,
            children: node
                .children
                .iter()
                .map(|(l, c)| (l.z, tag(c, next)))
                .collect(),
        }
    }
    fn remove(node: &mut Tagged, dead: usize) -> bool {
        if let Some(i) = node.children.iter().position(|(_, c)| c.old == dead) {
            let (z_dead, dead_node) = node.children.remove(i);
            for (z_c, c) in dead_node.children.into_iter().rev() {
                node.children.insert(i, (z_dead + z_c, c));
            }
            return true;
        }
        node.children.iter_mut().any(|(_, c)| remove(c, dead))
    }
    fn resort(node: &mut Tagged) {
        node.children.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (_, c) in &mut node.children {
            resort(c);
        }
    }
    fn rebuild(node: &Tagged, next: &mut usize, map: &mut [Option<usize>]) -> TreeNode {
        map[node.old] = Some(*next);
        *next += 1;
        TreeNode {
            processor: Processor::new(node.w),
            children: node
                .children
                .iter()
                .map(|(z, c)| (Link::new(*z), rebuild(c, next, map)))
                .collect(),
        }
    }

    let mut next = 0;
    let mut tagged = tag(root, &mut next);
    let removed = remove(&mut tagged, dead);
    debug_assert!(removed, "preorder index {dead} not found below the root");
    resort(&mut tagged);
    let mut map = vec![None; n];
    let mut next = 0;
    let tree = rebuild(&tagged, &mut next, &mut map);
    SplicedTree { tree, map }
}

/// Verify that the solution's fractions are non-negative and sum to one.
pub fn validate(sol: &FlatSolution) -> bool {
    sol.alpha.iter().all(|&a| a >= -EPSILON) && (sol.alpha.iter().sum::<f64>() - 1.0).abs() < 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear;
    use crate::model::{LinearNetwork, StarNetwork};

    #[test]
    fn leaf_takes_everything() {
        let sol = solve(&TreeNode::leaf(2.0));
        assert_eq!(sol.alpha, [1.0]);
        assert_eq!(sol.received, [1.0]);
        assert_eq!(sol.equivalent, [2.0]);
    }

    #[test]
    fn chain_as_tree_matches_chain_solver() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]);
        let tree = TreeNode::from_chain(&net);
        let tsol = solve(&tree);
        let lsol = linear::solve(&net);
        for i in 0..net.len() {
            assert!(
                (tsol.alpha[i] - lsol.alloc.alpha(i)).abs() < 1e-12,
                "α_{i}: tree {} vs chain {}",
                tsol.alpha[i],
                lsol.alloc.alpha(i)
            );
        }
        assert!((equivalent_time(&tree) - lsol.makespan()).abs() < 1e-12);
        assert_eq!(tsol.equivalent[0], equivalent_time(&tree));
    }

    #[test]
    fn star_as_tree_matches_star_solver() {
        let star_net = StarNetwork::from_rates(&[1.0, 2.0, 0.7, 3.0], &[0.1, 0.4, 0.2]);
        let tree = TreeNode::internal(
            1.0,
            vec![
                (0.1, TreeNode::leaf(2.0)),
                (0.4, TreeNode::leaf(0.7)),
                (0.2, TreeNode::leaf(3.0)),
            ],
        );
        let tsol = solve(&tree);
        let ssol = star::solve(&star_net);
        for i in 0..4 {
            assert!((tsol.alpha[i] - ssol.alloc.alpha(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn balanced_binary_tree_is_feasible_and_consistent() {
        let tree = TreeNode::internal(
            1.0,
            vec![
                (
                    0.2,
                    TreeNode::internal(
                        1.5,
                        vec![(0.3, TreeNode::leaf(2.0)), (0.3, TreeNode::leaf(2.0))],
                    ),
                ),
                (
                    0.2,
                    TreeNode::internal(
                        1.5,
                        vec![(0.3, TreeNode::leaf(2.0)), (0.3, TreeNode::leaf(2.0))],
                    ),
                ),
            ],
        );
        let sol = solve(&tree);
        assert!(validate(&sol));
        // Preorder: [root, A, A1, A2, B, B1, B2]. Symmetric branches
        // receive... the first branch receives more due to sequential
        // distribution.
        assert!(sol.received[1] > sol.received[4]);
        // Within a branch, symmetry holds: both leaves of the first internal
        // node relate by the same w/(z+w) ratio as the star recursion.
        assert!(sol.alpha[2] > sol.alpha[3]);
        // Each internal node keeps its share and hands the rest on.
        for (i, kids) in [(1, [2, 3]), (4, [5, 6])] {
            let handed = sol.received[kids[0]] + sol.received[kids[1]];
            assert!((sol.alpha[i] + handed - sol.received[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn subtree_equivalent_bounded_by_root_rate() {
        let tree = TreeNode::internal(
            2.0,
            vec![(0.5, TreeNode::leaf(1.0)), (0.1, TreeNode::leaf(3.0))],
        );
        let eq = equivalent_time(&tree);
        assert!(eq < 2.0, "helpers can only speed the root up");
        assert!(eq > 0.0);
    }

    #[test]
    fn deep_chain_tree_is_stable() {
        let net = LinearNetwork::homogeneous(64, 1.0, 0.1);
        let tree = TreeNode::from_chain(&net);
        let sol = solve(&tree);
        assert!(validate(&sol));
        assert!((equivalent_time(&tree) - linear::solve(&net).makespan()).abs() < 1e-10);
    }

    #[test]
    fn splice_on_a_path_matches_linear_splice_exactly() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0, 1.5], &[0.2, 0.1, 0.7, 0.3]);
        let tree = TreeNode::from_chain(&net);
        for dead in 1..net.len() {
            let spliced = splice_node(&tree, dead);
            let expected = linear::splice(&net, dead);
            let expected_tree = TreeNode::from_chain(&expected);
            assert_eq!(
                spliced.tree, expected_tree,
                "dead={dead}: fused path differs from linear::splice"
            );
            for old in 0..net.len() {
                let want = match old.cmp(&dead) {
                    std::cmp::Ordering::Less => Some(old),
                    std::cmp::Ordering::Equal => None,
                    std::cmp::Ordering::Greater => Some(old - 1),
                };
                assert_eq!(spliced.map[old], want, "dead={dead} old={old}");
            }
        }
    }

    #[test]
    fn splice_internal_node_reattaches_subtrees_with_fused_links() {
        // root --0.4--> A --{0.3, 0.1}--> (B, C): cutting A hands B and C
        // to the root with fused links 0.7 and 0.5, re-sorted ascending.
        let tree = TreeNode::internal(
            1.0,
            vec![(
                0.4,
                TreeNode::internal(
                    1.5,
                    vec![(0.3, TreeNode::leaf(2.0)), (0.1, TreeNode::leaf(3.0))],
                ),
            )],
        );
        let spliced = splice_node(&tree, 1);
        let expected = TreeNode::internal(
            1.0,
            vec![(0.5, TreeNode::leaf(3.0)), (0.7, TreeNode::leaf(2.0))],
        );
        assert_eq!(spliced.tree, expected);
        // Old preorder: [root, A, B(2.0), C(3.0)]. C's fused link (0.5) now
        // sorts before B's (0.7).
        assert_eq!(spliced.map, vec![Some(0), None, Some(2), Some(1)]);
    }

    #[test]
    fn splice_leaf_truncates() {
        let tree = TreeNode::internal(
            1.0,
            vec![(0.1, TreeNode::leaf(2.0)), (0.2, TreeNode::leaf(0.7))],
        );
        let spliced = splice_node(&tree, 2);
        assert_eq!(
            spliced.tree,
            TreeNode::internal(1.0, vec![(0.1, TreeNode::leaf(2.0))])
        );
        assert_eq!(spliced.map, vec![Some(0), Some(1), None]);
        // Down to a lone root.
        let lone = splice_node(&spliced.tree, 1);
        assert_eq!(lone.tree, TreeNode::leaf(1.0));
        assert_eq!(lone.map, vec![Some(0), None]);
    }

    #[test]
    fn spliced_tree_still_solves_to_a_unit_partition() {
        let tree = TreeNode::internal(
            1.0,
            vec![
                (
                    0.15,
                    TreeNode::internal(
                        1.4,
                        vec![(0.05, TreeNode::leaf(2.2)), (0.25, TreeNode::leaf(0.7))],
                    ),
                ),
                (
                    0.30,
                    TreeNode::internal(
                        1.9,
                        vec![(0.10, TreeNode::leaf(1.1)), (0.20, TreeNode::leaf(3.0))],
                    ),
                ),
            ],
        );
        for dead in 1..tree.size() {
            let spliced = splice_node(&tree, dead);
            assert_eq!(spliced.tree.size(), tree.size() - 1, "dead={dead}");
            let sol = solve(&spliced.tree);
            assert!(validate(&sol), "dead={dead}: invalid spliced solution");
            // Every survivor maps somewhere, bijectively.
            let mut seen: Vec<usize> = spliced.map.iter().filter_map(|&x| x).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..tree.size() - 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn canonicalize_is_tie_stable() {
        // Equal link rates must keep the stored child order at every
        // depth: the sort is stable, so canonicalization is deterministic
        // on tie-heavy (bus-like) shapes and agent preorder indices do not
        // shuffle between identical instances.
        let tree = TreeNode::internal(
            1.0,
            vec![
                (
                    0.3,
                    TreeNode::internal(
                        1.5,
                        vec![(0.2, TreeNode::leaf(2.0)), (0.2, TreeNode::leaf(0.7))],
                    ),
                ),
                (0.3, TreeNode::leaf(1.1)),
                (0.1, TreeNode::leaf(2.4)),
            ],
        );
        let canon = canonicalize(&tree);
        // The 0.1 link moves first; the two 0.3 links keep index order.
        assert_eq!(canon.children[0].1, TreeNode::leaf(2.4));
        assert_eq!(canon.children[1].0.z, 0.3);
        assert_eq!(canon.children[1].1.children.len(), 2);
        // Inside the tied subtree, the equal 0.2 links keep their order.
        assert_eq!(canon.children[1].1.children[0].1, TreeNode::leaf(2.0));
        assert_eq!(canon.children[1].1.children[1].1, TreeNode::leaf(0.7));
        assert_eq!(canon.children[2].1, TreeNode::leaf(1.1));
    }
}

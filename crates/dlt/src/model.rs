//! Core model types shared by every solver: processors, links, networks and
//! load allocations.
//!
//! The vocabulary follows Carroll & Grosu (IPPS 2007) and the underlying DLT
//! literature (Bharadwaj et al., 1996):
//!
//! * `w_i` — time taken by processor `P_i` to process one unit of load
//!   (smaller is faster).
//! * `z_j` — time taken to transmit one unit of load over link `ℓ_j`
//!   connecting `P_{j-1}` to `P_j`.
//! * `α_i` — the fraction of the (unit) total load assigned to `P_i`.
//! * `α̂_i` — the *local* allocation: the fraction of the load *received* by
//!   `P_i` that it retains for itself (the rest is forwarded).
//! * `D_i` — the amount of load received by `P_i` (`D_0 = 1`).

use std::fmt;

/// Numerical tolerance used by validators and equality checks on `f64`
/// quantities derived from allocations.
pub const EPSILON: f64 = 1e-9;

/// A processor characterized by its unit processing time `w` (the time it
/// takes to compute one unit of load). `w` must be strictly positive and
/// finite: a zero-time processor would absorb the entire load and break every
/// closed form in the theory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Processor {
    /// Unit processing time (`w_i` in the paper). Smaller is faster.
    pub w: f64,
}

impl Processor {
    /// Create a processor with unit processing time `w`.
    ///
    /// # Panics
    /// Panics if `w` is not strictly positive and finite.
    pub fn new(w: f64) -> Self {
        assert!(
            w.is_finite() && w > 0.0,
            "processor rate must be positive and finite, got {w}"
        );
        Self { w }
    }

    /// Time to process `load` units at this processor.
    #[inline]
    pub fn compute_time(&self, load: f64) -> f64 {
        load * self.w
    }
}

/// A communication link characterized by its unit transmission time `z` (the
/// time it takes to move one unit of load across the link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Unit transmission time (`z_j` in the paper). Smaller is faster.
    pub z: f64,
}

impl Link {
    /// Create a link with unit transmission time `z`.
    ///
    /// # Panics
    /// Panics if `z` is negative, NaN or infinite. `z == 0` (an infinitely
    /// fast link) is permitted; it models co-located processors.
    pub fn new(z: f64) -> Self {
        assert!(
            z.is_finite() && z >= 0.0,
            "link rate must be non-negative and finite, got {z}"
        );
        Self { z }
    }

    /// Time to transmit `load` units across this link.
    #[inline]
    pub fn transmit_time(&self, load: f64) -> f64 {
        load * self.z
    }
}

/// A linear (chain) network of `m + 1` processors `P_0 … P_m` connected by
/// `m` links, with the load originating at the *boundary* processor `P_0`.
///
/// ```text
/// P_0 --ℓ_1-- P_1 --ℓ_2-- P_2 -- … --ℓ_m-- P_m
/// ```
///
/// This is the network of Figure 1 in the paper. `links[j]` is `ℓ_{j+1}`,
/// i.e. the link *into* `processors[j + 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearNetwork {
    processors: Vec<Processor>,
    links: Vec<Link>,
}

impl LinearNetwork {
    /// Build a linear network from explicit processors and links.
    ///
    /// # Panics
    /// Panics if there are no processors or if `links.len() + 1 !=
    /// processors.len()`.
    pub fn new(processors: Vec<Processor>, links: Vec<Link>) -> Self {
        assert!(
            !processors.is_empty(),
            "a network needs at least one processor"
        );
        assert_eq!(
            links.len() + 1,
            processors.len(),
            "a chain of n processors has n-1 links (got {} processors, {} links)",
            processors.len(),
            links.len()
        );
        Self { processors, links }
    }

    /// Convenience constructor from raw rates: `w[i]` are unit processing
    /// times and `z[j]` are unit link times (`z\[0\]` is the link `P_0 → P_1`).
    pub fn from_rates(w: &[f64], z: &[f64]) -> Self {
        Self::new(
            w.iter().copied().map(Processor::new).collect(),
            z.iter().copied().map(Link::new).collect(),
        )
    }

    /// A homogeneous chain: `n` processors of rate `w` joined by links of
    /// rate `z`.
    pub fn homogeneous(n: usize, w: f64, z: f64) -> Self {
        assert!(n >= 1);
        Self::new(vec![Processor::new(w); n], vec![Link::new(z); n - 1])
    }

    /// Number of processors (`m + 1`).
    #[inline]
    pub fn len(&self) -> usize {
        self.processors.len()
    }

    /// True if the network consists of a single processor.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // by construction there is always at least one processor
    }

    /// The index `m` of the terminal processor.
    #[inline]
    pub fn last_index(&self) -> usize {
        self.processors.len() - 1
    }

    /// All processors, root first.
    #[inline]
    pub fn processors(&self) -> &[Processor] {
        &self.processors
    }

    /// All links; `links()[j]` connects `P_j` to `P_{j+1}`.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Unit processing time of `P_i`.
    #[inline]
    pub fn w(&self, i: usize) -> f64 {
        self.processors[i].w
    }

    /// Unit transmission time of the link into `P_j` (`z_j`, `j ≥ 1`).
    ///
    /// # Panics
    /// Panics if `j == 0`: there is no link into the root.
    #[inline]
    pub fn z(&self, j: usize) -> f64 {
        assert!(j >= 1, "z_j is defined for j >= 1 (link into P_j)");
        self.links[j - 1].z
    }

    /// The sub-chain `P_i … P_m` viewed as a network of its own (used by the
    /// reduction machinery and by per-agent payment computations).
    pub fn suffix(&self, i: usize) -> LinearNetwork {
        assert!(i < self.processors.len());
        LinearNetwork {
            processors: self.processors[i..].to_vec(),
            links: self.links[i..].to_vec(),
        }
    }

    /// The sub-chain `P_i … P_j` (inclusive) viewed as a network of its own.
    pub fn segment(&self, i: usize, j: usize) -> LinearNetwork {
        assert!(i <= j && j < self.processors.len());
        LinearNetwork {
            processors: self.processors[i..=j].to_vec(),
            links: self.links[i..j].to_vec(),
        }
    }

    /// Return a copy of the network with `P_i`'s unit processing time
    /// replaced by `w`. Used by bid sweeps.
    pub fn with_processor_rate(&self, i: usize, w: f64) -> LinearNetwork {
        let mut n = self.clone();
        n.processors[i] = Processor::new(w);
        n
    }

    /// Vector of unit processing times.
    pub fn rates_w(&self) -> Vec<f64> {
        self.processors.iter().map(|p| p.w).collect()
    }

    /// Vector of unit link times (`z_1 … z_m`).
    pub fn rates_z(&self) -> Vec<f64> {
        self.links.iter().map(|l| l.z).collect()
    }
}

impl fmt::Display for LinearNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P0(w={})", self.processors[0].w)?;
        for (j, (link, p)) in self.links.iter().zip(&self.processors[1..]).enumerate() {
            write!(f, " --z{}={}-- P{}(w={})", j + 1, link.z, j + 1, p.w)?;
        }
        Ok(())
    }
}

/// A star (single-level tree) network: a root `P_0` directly connected to
/// `m` children `P_1 … P_m` by dedicated links. The *bus* network is the
/// special case where every link has the same rate.
///
/// The root distributes the children's shares sequentially (one-port model)
/// in index order while computing its own share (front-end model).
#[derive(Debug, Clone, PartialEq)]
pub struct StarNetwork {
    root: Processor,
    children: Vec<(Link, Processor)>,
}

impl StarNetwork {
    /// Build a star from a root and `(link, child)` pairs in distribution
    /// order.
    pub fn new(root: Processor, children: Vec<(Link, Processor)>) -> Self {
        Self { root, children }
    }

    /// Build a star from raw rates. `w\[0\]` is the root, `w[i]` (`i ≥ 1`) the
    /// children; `z[i-1]` is the link to child `i`.
    pub fn from_rates(w: &[f64], z: &[f64]) -> Self {
        assert!(!w.is_empty());
        assert_eq!(w.len() - 1, z.len());
        Self {
            root: Processor::new(w[0]),
            children: z
                .iter()
                .zip(&w[1..])
                .map(|(&z, &w)| (Link::new(z), Processor::new(w)))
                .collect(),
        }
    }

    /// A bus network: star with a single shared bus rate `z` for all `n_children` children.
    pub fn bus(root_w: f64, child_w: &[f64], bus_z: f64) -> Self {
        Self {
            root: Processor::new(root_w),
            children: child_w
                .iter()
                .map(|&w| (Link::new(bus_z), Processor::new(w)))
                .collect(),
        }
    }

    /// The root processor.
    #[inline]
    pub fn root(&self) -> Processor {
        self.root
    }

    /// The `(link, child)` pairs in distribution order.
    #[inline]
    pub fn children(&self) -> &[(Link, Processor)] {
        &self.children
    }

    /// Total number of processors (root + children).
    #[inline]
    pub fn len(&self) -> usize {
        self.children.len() + 1
    }

    /// True if the star has no children.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

/// A node of a tree network: a processor plus the links to its subtrees.
/// The root of the whole tree originates the load. Children are served in
/// the stored order (one-port, front-end semantics at every internal node).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// The processor at this node.
    pub processor: Processor,
    /// `(link to child, child subtree)` pairs in distribution order.
    pub children: Vec<(Link, TreeNode)>,
}

impl TreeNode {
    /// A leaf node.
    pub fn leaf(w: f64) -> Self {
        Self {
            processor: Processor::new(w),
            children: Vec::new(),
        }
    }

    /// An internal node with explicit children.
    pub fn internal(w: f64, children: Vec<(f64, TreeNode)>) -> Self {
        Self {
            processor: Processor::new(w),
            children: children
                .into_iter()
                .map(|(z, c)| (Link::new(z), c))
                .collect(),
        }
    }

    /// Number of processors in the subtree rooted here.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|(_, c)| c.size()).sum::<usize>()
    }

    /// Depth of the subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|(_, c)| c.depth())
            .max()
            .unwrap_or(0)
    }

    /// Build a linear chain as a degenerate tree (each node has one child).
    /// `P_0` is the root. Provided so the tree solver can be cross-checked
    /// against the dedicated chain solver.
    pub fn from_chain(net: &LinearNetwork) -> Self {
        let mut node = TreeNode::leaf(net.w(net.last_index()));
        for i in (0..net.last_index()).rev() {
            node = TreeNode {
                processor: Processor::new(net.w(i)),
                children: vec![(Link::new(net.z(i + 1)), node)],
            };
        }
        node
    }

    /// Build a star as a depth-1 tree: the star's root with one leaf per
    /// child, in distribution order. Solving it through [`crate::tree`]
    /// runs the same `star::solve` call as solving the star directly.
    pub fn from_star(net: &StarNetwork) -> Self {
        let leaf = |&(link, child): &(Link, Processor)| (link, TreeNode::leaf(child.w));
        TreeNode {
            processor: net.root(),
            children: net.children().iter().map(leaf).collect(),
        }
    }
}

/// A load allocation: the fraction of the unit load assigned to each
/// processor, in network order. Produced by every solver in this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    fractions: Vec<f64>,
}

impl Allocation {
    /// Wrap raw fractions. Use [`Allocation::validate`] to check feasibility.
    pub fn new(fractions: Vec<f64>) -> Self {
        Self { fractions }
    }

    /// The fraction assigned to processor `i`.
    #[inline]
    pub fn alpha(&self, i: usize) -> f64 {
        self.fractions[i]
    }

    /// All fractions in network order.
    #[inline]
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// Number of processors covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.fractions.len()
    }

    /// True if the allocation covers no processors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fractions.is_empty()
    }

    /// Checks feasibility: every fraction non-negative and the total equal
    /// to one within [`EPSILON`].
    pub fn validate(&self) -> Result<(), AllocationError> {
        for (i, &a) in self.fractions.iter().enumerate() {
            if !a.is_finite() {
                return Err(AllocationError::NotFinite { index: i, value: a });
            }
            if a < -EPSILON {
                return Err(AllocationError::Negative { index: i, value: a });
            }
        }
        let total: f64 = self.fractions.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(AllocationError::BadTotal { total });
        }
        Ok(())
    }

    /// The amount of load `D_i` *received* by processor `i` in a chain:
    /// `D_0 = 1`, `D_j = 1 - Σ_{k<j} α_k`.
    pub fn received(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.fractions.len());
        let mut remaining = 1.0;
        for &a in &self.fractions {
            out.push(remaining);
            remaining -= a;
        }
        out
    }

    /// Convert the global allocation `α` into the local allocation `α̂`
    /// (fraction of *received* load retained) for a chain, per eqs. 2.5–2.6.
    /// For processors that receive (numerically) zero load the local
    /// fraction is defined as 1 (they would keep everything they get).
    pub fn to_local(&self) -> LocalAllocation {
        let mut local = Vec::with_capacity(self.fractions.len());
        let mut remaining = 1.0;
        for &a in &self.fractions {
            if remaining <= EPSILON {
                local.push(1.0);
            } else {
                local.push((a / remaining).clamp(0.0, 1.0));
            }
            remaining -= a;
        }
        LocalAllocation { fractions: local }
    }
}

/// Errors produced by [`Allocation::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum AllocationError {
    /// A fraction is NaN or infinite.
    NotFinite {
        /// Processor index.
        index: usize,
        /// Offending value.
        value: f64,
    },
    /// A fraction is negative beyond tolerance.
    Negative {
        /// Processor index.
        index: usize,
        /// Offending value.
        value: f64,
    },
    /// The fractions do not sum to one.
    BadTotal {
        /// The observed total.
        total: f64,
    },
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::NotFinite { index, value } => {
                write!(f, "allocation α_{index} = {value} is not finite")
            }
            AllocationError::Negative { index, value } => {
                write!(f, "allocation α_{index} = {value} is negative")
            }
            AllocationError::BadTotal { total } => {
                write!(f, "allocation sums to {total}, expected 1")
            }
        }
    }
}

impl std::error::Error for AllocationError {}

/// The local allocation vector `α̂`: `α̂_i` is the fraction of the load
/// *received* by `P_i` that it retains; the remainder `1 - α̂_i` is forwarded
/// to its successor. `α̂_m = 1` always (the terminal processor keeps all).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalAllocation {
    fractions: Vec<f64>,
}

impl LocalAllocation {
    /// Wrap raw local fractions.
    pub fn new(fractions: Vec<f64>) -> Self {
        Self { fractions }
    }

    /// Local retained fraction `α̂_i`.
    #[inline]
    pub fn alpha_hat(&self, i: usize) -> f64 {
        self.fractions[i]
    }

    /// All local fractions.
    #[inline]
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// Number of processors covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.fractions.len()
    }

    /// True if no processors are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fractions.is_empty()
    }

    /// Convert the local allocation back to the global allocation `α` via
    /// eqs. 2.5–2.6: `α_0 = α̂_0`, `α_j = Π_{k<j}(1-α̂_k) · α̂_j`.
    pub fn to_global(&self) -> Allocation {
        let mut out = Vec::with_capacity(self.fractions.len());
        let mut carried = 1.0;
        for &ah in &self.fractions {
            out.push(carried * ah);
            carried *= 1.0 - ah;
        }
        Allocation::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_compute_time_is_linear() {
        let p = Processor::new(2.5);
        assert_eq!(p.compute_time(0.0), 0.0);
        assert_eq!(p.compute_time(2.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn processor_rejects_zero_rate() {
        Processor::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn processor_rejects_nan() {
        Processor::new(f64::NAN);
    }

    #[test]
    fn link_allows_zero_rate() {
        let l = Link::new(0.0);
        assert_eq!(l.transmit_time(5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn link_rejects_negative_rate() {
        Link::new(-1.0);
    }

    #[test]
    fn linear_network_accessors() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 3.0], &[0.5, 0.25]);
        assert_eq!(net.len(), 3);
        assert_eq!(net.last_index(), 2);
        assert_eq!(net.w(0), 1.0);
        assert_eq!(net.w(2), 3.0);
        assert_eq!(net.z(1), 0.5);
        assert_eq!(net.z(2), 0.25);
    }

    #[test]
    #[should_panic]
    fn linear_network_z0_is_undefined() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0], &[0.5]);
        net.z(0);
    }

    #[test]
    #[should_panic(expected = "n-1 links")]
    fn linear_network_rejects_bad_link_count() {
        LinearNetwork::from_rates(&[1.0, 2.0], &[0.5, 0.5]);
    }

    #[test]
    fn linear_network_suffix_and_segment() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 3.0, 4.0], &[0.1, 0.2, 0.3]);
        let sfx = net.suffix(2);
        assert_eq!(sfx.len(), 2);
        assert_eq!(sfx.w(0), 3.0);
        assert_eq!(sfx.z(1), 0.3);
        let seg = net.segment(1, 2);
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.w(0), 2.0);
        assert_eq!(seg.z(1), 0.2);
    }

    #[test]
    fn homogeneous_chain() {
        let net = LinearNetwork::homogeneous(5, 1.5, 0.2);
        assert_eq!(net.len(), 5);
        assert!(net.processors().iter().all(|p| p.w == 1.5));
        assert!(net.links().iter().all(|l| l.z == 0.2));
    }

    #[test]
    fn single_processor_chain_has_no_links() {
        let net = LinearNetwork::homogeneous(1, 2.0, 0.0);
        assert_eq!(net.len(), 1);
        assert!(net.links().is_empty());
    }

    #[test]
    fn with_processor_rate_replaces_only_target() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 3.0], &[0.5, 0.25]);
        let net2 = net.with_processor_rate(1, 9.0);
        assert_eq!(net2.w(1), 9.0);
        assert_eq!(net2.w(0), 1.0);
        assert_eq!(net2.w(2), 3.0);
        assert_eq!(net.w(1), 2.0, "original untouched");
    }

    #[test]
    fn allocation_validate_accepts_feasible() {
        let a = Allocation::new(vec![0.5, 0.3, 0.2]);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn allocation_validate_rejects_negative() {
        let a = Allocation::new(vec![0.5, -0.3, 0.8]);
        assert!(matches!(
            a.validate(),
            Err(AllocationError::Negative { index: 1, .. })
        ));
    }

    #[test]
    fn allocation_validate_rejects_bad_total() {
        let a = Allocation::new(vec![0.5, 0.3]);
        assert!(matches!(
            a.validate(),
            Err(AllocationError::BadTotal { .. })
        ));
    }

    #[test]
    fn allocation_validate_rejects_nan() {
        let a = Allocation::new(vec![f64::NAN, 1.0]);
        assert!(matches!(
            a.validate(),
            Err(AllocationError::NotFinite { index: 0, .. })
        ));
    }

    #[test]
    fn received_load_is_cumulative_remainder() {
        let a = Allocation::new(vec![0.5, 0.3, 0.2]);
        let d = a.received();
        assert!((d[0] - 1.0).abs() < EPSILON);
        assert!((d[1] - 0.5).abs() < EPSILON);
        assert!((d[2] - 0.2).abs() < EPSILON);
    }

    #[test]
    fn local_global_round_trip() {
        let a = Allocation::new(vec![0.4, 0.36, 0.24]);
        let local = a.to_local();
        assert!(
            (local.alpha_hat(2) - 1.0).abs() < EPSILON,
            "terminal keeps all"
        );
        let back = local.to_global();
        for i in 0..3 {
            assert!((back.alpha(i) - a.alpha(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn local_to_global_eq_25_26() {
        // α̂ = (0.5, 0.5, 1.0) → α = (0.5, 0.25, 0.25)
        let local = LocalAllocation::new(vec![0.5, 0.5, 1.0]);
        let g = local.to_global();
        assert!((g.alpha(0) - 0.5).abs() < EPSILON);
        assert!((g.alpha(1) - 0.25).abs() < EPSILON);
        assert!((g.alpha(2) - 0.25).abs() < EPSILON);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn tree_from_chain_preserves_structure() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 3.0], &[0.5, 0.25]);
        let tree = TreeNode::from_chain(&net);
        assert_eq!(tree.size(), 3);
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.processor.w, 1.0);
        let (l1, c1) = &tree.children[0];
        assert_eq!(l1.z, 0.5);
        assert_eq!(c1.processor.w, 2.0);
        let (l2, c2) = &c1.children[0];
        assert_eq!(l2.z, 0.25);
        assert_eq!(c2.processor.w, 3.0);
        assert!(c2.children.is_empty());
    }

    #[test]
    fn tree_from_star_is_depth_one() {
        let star = StarNetwork::from_rates(&[1.0, 2.0, 3.0], &[0.1, 0.2]);
        let tree = TreeNode::from_star(&star);
        assert_eq!(tree.size(), 3);
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.processor.w, 1.0);
        let (l2, c2) = &tree.children[1];
        assert_eq!(l2.z, 0.2);
        assert_eq!(c2.processor.w, 3.0);
    }

    #[test]
    fn star_from_rates() {
        let s = StarNetwork::from_rates(&[1.0, 2.0, 3.0], &[0.1, 0.2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.root().w, 1.0);
        assert_eq!(s.children()[1].0.z, 0.2);
        assert_eq!(s.children()[1].1.w, 3.0);
    }

    #[test]
    fn bus_is_uniform_star() {
        let b = StarNetwork::bus(1.0, &[2.0, 2.0, 2.0], 0.3);
        assert!(b.children().iter().all(|(l, _)| l.z == 0.3));
    }

    #[test]
    fn display_is_readable() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0], &[0.5]);
        let s = format!("{net}");
        assert!(s.contains("P0(w=1)"));
        assert!(s.contains("z1=0.5"));
    }
}

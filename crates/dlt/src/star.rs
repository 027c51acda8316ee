//! Optimal divisible load scheduling on star (single-level tree) and bus
//! networks — the substrates of the companion mechanisms \[9, 14\] that the
//! paper cites as prior work, implemented here as baselines for the
//! cross-architecture comparison experiment (E10).
//!
//! Model: the root `P_0` holds the load, computes its own share through its
//! front-end, and transmits the children's shares sequentially in index
//! order over dedicated links (one-port). Child `i` receives its entire
//! share before computing. Finish times:
//!
//! * `T_0 = α_0 · w_0`
//! * `T_i = Σ_{k≤i} α_k z_k + α_i w_i`
//!
//! Equal finish times (the star analogue of Theorem 2.1) give the recursion
//! `α_i w_i = α_{i+1}(z_{i+1} + w_{i+1})`, anchored by
//! `α_0 w_0 = α_1 (z_1 + w_1)`, then normalized to sum to one.

use crate::model::{Allocation, StarNetwork, EPSILON};

/// Solution of the star scheduling problem.
#[derive(Debug, Clone, PartialEq)]
pub struct StarSolution {
    /// Global allocation: index 0 is the root, then children in
    /// distribution order.
    pub alloc: Allocation,
    /// The common finish time (makespan) for the unit load.
    pub makespan: f64,
}

/// Solve the star problem with every processor participating. Runs in O(m).
pub fn solve(net: &StarNetwork) -> StarSolution {
    let mut fractions = vec![0.0; net.len()];
    let makespan = solve_into(
        net.root().w,
        net.children().iter().map(|(link, child)| (link.z, child.w)),
        &mut fractions,
    );
    StarSolution {
        alloc: Allocation::new(fractions),
        makespan,
    }
}

/// The arithmetic of [`solve`], allocation-free: the equal-finish
/// fractions of a star whose root has rate `root_w` and whose children,
/// given as `(z_i, w_i)` in distribution order, are written into
/// `fractions` (root first, so it holds one more entry than there are
/// children). Returns the makespan. A childless star yields `[1.0]` and
/// `root_w`. The tree solver's bottom-up pass runs every local star
/// through here.
pub fn solve_into(
    root_w: f64,
    children: impl IntoIterator<Item = (f64, f64)>,
    fractions: &mut [f64],
) -> f64 {
    // Unnormalized shares from `α_i w_i = α_{i+1}(z_{i+1} + w_{i+1})`,
    // anchored at the root's 1, summed in order, then normalized.
    fractions[0] = 1.0;
    let (mut raw, mut prev_w, mut total) = (1.0f64, root_w, 1.0f64);
    for (k, (z, w)) in children.into_iter().enumerate() {
        raw *= prev_w / (z + w);
        fractions[k + 1] = raw;
        total += raw;
        prev_w = w;
    }
    for f in fractions.iter_mut() {
        *f /= total;
    }
    fractions[0] * root_w
}

/// Finish times of every processor in the star under an arbitrary
/// allocation (root first, then children in distribution order).
pub fn finish_times(net: &StarNetwork, alloc: &Allocation) -> Vec<f64> {
    assert_eq!(alloc.len(), net.len());
    let mut out = Vec::with_capacity(net.len());
    out.push(alloc.alpha(0) * net.root().w);
    let mut comm = 0.0;
    for (i, (link, child)) in net.children().iter().enumerate() {
        let a = alloc.alpha(i + 1);
        comm += a * link.z;
        if a > 0.0 {
            out.push(comm + a * child.w);
        } else {
            out.push(0.0);
        }
    }
    out
}

/// Makespan of the star under an arbitrary allocation.
pub fn makespan(net: &StarNetwork, alloc: &Allocation) -> f64 {
    finish_times(net, alloc).into_iter().fold(0.0, f64::max)
}

/// Spread of finish times over participating processors; zero at the
/// optimum.
pub fn participation_spread(net: &StarNetwork, alloc: &Allocation) -> f64 {
    let times = finish_times(net, alloc);
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (i, &t) in times.iter().enumerate() {
        if alloc.alpha(i) > EPSILON {
            lo = lo.min(t);
            hi = hi.max(t);
        }
    }
    if lo.is_infinite() {
        0.0
    } else {
        hi - lo
    }
}

/// The equivalent unit processing time of the whole star: its optimal
/// makespan under unit load. Used by the tree solver to collapse subtrees.
pub fn equivalent_time(net: &StarNetwork) -> f64 {
    if net.children().is_empty() {
        return net.root().w;
    }
    solve(net).makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StarNetwork;

    #[test]
    fn childless_star_gives_root_everything() {
        let net = StarNetwork::from_rates(&[2.0], &[]);
        let sol = solve(&net);
        assert_eq!(sol.alloc.alpha(0), 1.0);
        assert_eq!(sol.makespan, 2.0);
    }

    #[test]
    fn two_processor_star_matches_chain() {
        // A star with one child is exactly a 2-processor chain.
        let star = StarNetwork::from_rates(&[1.0, 1.0], &[1.0]);
        let sol = solve(&star);
        assert!((sol.alloc.alpha(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((sol.makespan - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn solution_is_feasible() {
        let net = StarNetwork::from_rates(&[1.0, 2.0, 0.7, 3.0], &[0.1, 0.4, 0.2]);
        let sol = solve(&net);
        sol.alloc.validate().unwrap();
        assert!(sol.alloc.fractions().iter().all(|&a| a > 0.0));
    }

    #[test]
    fn equal_finish_times_at_optimum() {
        let net = StarNetwork::from_rates(&[1.0, 2.0, 0.7, 3.0, 1.2], &[0.1, 0.4, 0.2, 0.3]);
        let sol = solve(&net);
        assert!(participation_spread(&net, &sol.alloc) < 1e-12);
    }

    #[test]
    fn makespan_equals_root_term() {
        let net = StarNetwork::from_rates(&[1.3, 0.9, 2.2], &[0.15, 0.25]);
        let sol = solve(&net);
        assert!((sol.makespan - sol.alloc.alpha(0) * 1.3).abs() < 1e-12);
        assert!((sol.makespan - makespan(&net, &sol.alloc)).abs() < 1e-12);
    }

    #[test]
    fn bus_children_with_equal_rates_get_equal_load() {
        let net = StarNetwork::bus(1.0, &[2.0, 2.0, 2.0], 0.2);
        let sol = solve(&net);
        // Sequential distribution: with equal w and z, later children get
        // strictly less (α_{i+1} = α_i · w/(z+w) < α_i).
        assert!(sol.alloc.alpha(2) < sol.alloc.alpha(1));
        assert!(sol.alloc.alpha(3) < sol.alloc.alpha(2));
    }

    #[test]
    fn faster_link_child_receives_more() {
        let fast = StarNetwork::from_rates(&[1.0, 1.0], &[0.1]);
        let slow = StarNetwork::from_rates(&[1.0, 1.0], &[2.0]);
        assert!(solve(&fast).alloc.alpha(1) > solve(&slow).alloc.alpha(1));
    }

    #[test]
    fn more_children_never_hurt() {
        let small = StarNetwork::from_rates(&[1.0, 2.0], &[0.3]);
        let big = StarNetwork::from_rates(&[1.0, 2.0, 2.0], &[0.3, 0.3]);
        assert!(solve(&big).makespan <= solve(&small).makespan + 1e-12);
    }

    #[test]
    fn equivalent_time_of_leaf_is_its_rate() {
        let net = StarNetwork::from_rates(&[3.5], &[]);
        assert_eq!(equivalent_time(&net), 3.5);
    }

    #[test]
    fn zero_allocation_child_has_zero_finish_time() {
        let net = StarNetwork::from_rates(&[1.0, 1.0, 1.0], &[0.5, 0.5]);
        let alloc = Allocation::new(vec![0.7, 0.3, 0.0]);
        let t = finish_times(&net, &alloc);
        assert_eq!(t[2], 0.0);
    }
}

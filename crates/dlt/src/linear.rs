//! The LINEAR BOUNDARY-LINEAR solver (Algorithm 1 of the paper) and the
//! chain reduction recurrences (eqs. 2.4 and 2.7).
//!
//! The solver walks the chain from the far end towards the root, collapsing
//! the two farthest processors into an *equivalent processor* at every step:
//!
//! * `α̂_m = 1`, `w̄_m = w_m`
//! * `α̂_i = (w̄_{i+1} + z_{i+1}) / (w_i + w̄_{i+1} + z_{i+1})`   (eq. 2.7)
//! * `w̄_i = α̂_i · w_i`                                          (eq. 2.4)
//!
//! and then unrolls the local fractions into global fractions (eqs. 2.5–2.6).
//! The resulting allocation makes all processors finish simultaneously
//! (Theorem 2.1) and is optimal for the linear cost model.

use crate::model::{Allocation, LinearNetwork, LocalAllocation};

#[path = "linear_reference.rs"]
pub mod reference;

/// The complete output of Algorithm 1: local fractions, global fractions and
/// the per-prefix equivalent processing times.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSolution {
    /// Local allocation `α̂` (fraction of received load retained by each
    /// processor; `α̂_m = 1`).
    pub local: LocalAllocation,
    /// Global allocation `α` (fractions of the unit total load).
    pub alloc: Allocation,
    /// `w̄_i`: the equivalent unit processing time of the sub-chain
    /// `P_i … P_m` (eq. 2.4). `w̄_0` is the makespan of the whole network
    /// under unit load.
    pub equivalent: Vec<f64>,
}

impl LinearSolution {
    /// The optimal makespan `T(α) = w̄_0` (the whole chain collapsed to a
    /// single equivalent processor handling the unit load).
    #[inline]
    pub fn makespan(&self) -> f64 {
        self.equivalent[0]
    }
}

/// Solve LINEAR BOUNDARY-LINEAR (Algorithm 1). Runs in O(m).
///
/// Every processor participates with a strictly positive fraction, finishing
/// at the same instant `w̄_0`.
pub fn solve(net: &LinearNetwork) -> LinearSolution {
    let m = net.last_index();
    obs::count!("dlt.linear.solve", "m" => m);
    let mut alpha_hat = vec![0.0; m + 1];
    let mut w_bar = vec![0.0; m + 1];
    alpha_hat[m] = 1.0;
    w_bar[m] = net.w(m);
    for i in (0..m).rev() {
        (alpha_hat[i], w_bar[i]) = reduce_pair(net.w(i), net.z(i + 1), w_bar[i + 1]);
    }
    let local = LocalAllocation::new(alpha_hat);
    let alloc = local.to_global();
    LinearSolution {
        local,
        alloc,
        equivalent: w_bar,
    }
}

/// The equivalent unit processing time `w̄` of an entire chain: the makespan
/// it exhibits when handed a unit load (eq. 2.3/2.4 after full reduction).
/// Equivalent to `solve(net).makespan()` but does not materialize the
/// allocation vectors.
pub fn equivalent_time(net: &LinearNetwork) -> f64 {
    obs::count!("dlt.linear.equivalent_time");
    let m = net.last_index();
    let mut w_bar = net.w(m);
    for i in (0..m).rev() {
        w_bar = reduce_pair_equivalent(net.w(i), net.z(i + 1), w_bar);
    }
    w_bar
}

/// One step of the pairwise reduction of Figure 3: collapse a processor with
/// rate `w` whose successor segment has equivalent rate `w_next` behind a
/// link of rate `z` into a single equivalent processor. Returns
/// `(α̂, w̄)` where `α̂` is the local fraction retained by the front
/// processor (eq. 2.7) and `w̄ = α̂·w` the resulting equivalent rate
/// (eq. 2.4) — the step [`solve`] takes.
#[inline]
pub fn reduce_pair(w: f64, z: f64, w_next: f64) -> (f64, f64) {
    let tail = w_next + z;
    let alpha_hat = tail / (w + tail);
    (alpha_hat, alpha_hat * w)
}

/// [`reduce_pair`]'s `w̄` in [`equivalent_time`]'s operation order,
/// `w·t/(w+t)` with `t = w_next + z`. The two orders round differently,
/// and each is a bit-identity target of its own.
#[inline]
pub fn reduce_pair_equivalent(w: f64, z: f64, w_next: f64) -> f64 {
    let tail = w_next + z;
    w * tail / (w + tail)
}

/// The surviving chain after processor `dead` crash-stops: `P_dead` is
/// removed and, when it was interior, the two links around it are fused
/// into one of rate `z_dead + z_{dead+1}` — load bound for `P_{dead+1}`
/// still physically traverses both hops (store-and-forward through the
/// failed node's position), it just no longer stops there. When `P_dead`
/// is the terminal processor the chain is simply truncated.
///
/// The fault-recovery protocol re-solves the allocation on this network.
///
/// # Panics
/// Panics if `dead` is the root (`0`, obedient and assumed reliable) or out
/// of range, or if removing the node would empty the chain.
pub fn splice(net: &LinearNetwork, dead: usize) -> LinearNetwork {
    obs::count!("dlt.linear.splice", "dead" => dead);
    let m = net.last_index();
    assert!(
        dead >= 1 && dead <= m,
        "can only splice out a strategic processor, got {dead}"
    );
    assert!(net.len() > 1, "cannot splice the only processor out");
    let mut w = Vec::with_capacity(net.len() - 1);
    let mut z = Vec::with_capacity(net.len() - 2);
    for i in 0..=m {
        if i == dead {
            continue;
        }
        w.push(net.w(i));
        if i >= 1 {
            z.push(if i == dead + 1 {
                net.z(dead) + net.z(i)
            } else {
                net.z(i)
            });
        }
    }
    LinearNetwork::from_rates(&w, &z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EPSILON;
    use crate::timing::{finish_times, makespan, participation_spread};

    #[test]
    fn single_processor_takes_everything() {
        let net = LinearNetwork::homogeneous(1, 3.0, 0.0);
        let sol = solve(&net);
        assert_eq!(sol.alloc.alpha(0), 1.0);
        assert_eq!(sol.makespan(), 3.0);
    }

    #[test]
    fn two_homogeneous_processors() {
        // w0=w1=1, z=1: α̂_0 = 2/3 → α = (2/3, 1/3), makespan 2/3.
        let net = LinearNetwork::from_rates(&[1.0, 1.0], &[1.0]);
        let sol = solve(&net);
        assert!((sol.alloc.alpha(0) - 2.0 / 3.0).abs() < EPSILON);
        assert!((sol.alloc.alpha(1) - 1.0 / 3.0).abs() < EPSILON);
        assert!((sol.makespan() - 2.0 / 3.0).abs() < EPSILON);
    }

    #[test]
    fn two_processors_free_link_balances_by_speed() {
        // z=0: loads proportional to 1/w. w0=1, w1=3 → α=(3/4, 1/4).
        let net = LinearNetwork::from_rates(&[1.0, 3.0], &[0.0]);
        let sol = solve(&net);
        assert!((sol.alloc.alpha(0) - 0.75).abs() < EPSILON);
        assert!((sol.alloc.alpha(1) - 0.25).abs() < EPSILON);
    }

    #[test]
    fn solution_is_feasible() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]);
        let sol = solve(&net);
        sol.alloc
            .validate()
            .expect("solver output must be feasible");
        assert!(
            sol.alloc.fractions().iter().all(|&a| a > 0.0),
            "all processors participate"
        );
    }

    #[test]
    fn theorem_2_1_equal_finish_times() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0, 1.5], &[0.2, 0.1, 0.7, 0.05]);
        let sol = solve(&net);
        let spread = participation_spread(&net, &sol.alloc);
        assert!(
            spread < 1e-12,
            "optimal solution must equalize finish times, spread={spread}"
        );
    }

    #[test]
    fn makespan_equals_w_bar_0() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 3.0], &[0.5, 0.25]);
        let sol = solve(&net);
        let ms = makespan(&net, &sol.alloc);
        assert!((ms - sol.makespan()).abs() < 1e-12);
        assert!((ms - sol.equivalent[0]).abs() < 1e-12);
    }

    #[test]
    fn equivalent_time_agrees_with_solve() {
        let net = LinearNetwork::from_rates(&[2.0, 1.0, 4.0, 0.25], &[0.3, 0.6, 0.1]);
        assert!((equivalent_time(&net) - solve(&net).makespan()).abs() < 1e-12);
    }

    #[test]
    fn equivalent_suffix_matches_segment_makespan() {
        // w̄_i must equal the makespan of the isolated sub-chain P_i…P_m.
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]);
        let sol = solve(&net);
        for i in 0..net.len() {
            let seg = solve(&net.suffix(i));
            assert!(
                (sol.equivalent[i] - seg.makespan()).abs() < 1e-12,
                "w̄_{i} mismatch: {} vs {}",
                sol.equivalent[i],
                seg.makespan()
            );
        }
    }

    #[test]
    fn equivalent_faster_than_front_processor() {
        // Adding helpers can only help: w̄_i ≤ w_i (engine of Lemma 5.4).
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0, 1.0], &[0.2, 0.9, 0.7, 0.1]);
        let sol = solve(&net);
        for i in 0..net.len() {
            assert!(sol.equivalent[i] <= net.w(i) + EPSILON);
        }
    }

    #[test]
    fn reduce_pair_matches_two_proc_solve() {
        let (ah, wb) = reduce_pair(1.0, 1.0, 1.0);
        assert!((ah - 2.0 / 3.0).abs() < EPSILON);
        assert!((wb - 2.0 / 3.0).abs() < EPSILON);
    }

    #[test]
    fn slow_link_starves_the_tail() {
        // An extremely slow link should leave almost all load at the root.
        let net = LinearNetwork::from_rates(&[1.0, 1.0], &[1e6]);
        let sol = solve(&net);
        assert!(sol.alloc.alpha(0) > 0.999_99);
        assert!(sol.alloc.alpha(1) > 0.0, "but the tail still participates");
    }

    #[test]
    fn faster_tail_gets_more_load() {
        let slow_tail = LinearNetwork::from_rates(&[1.0, 2.0], &[0.1]);
        let fast_tail = LinearNetwork::from_rates(&[1.0, 0.5], &[0.1]);
        let a_slow = solve(&slow_tail).alloc;
        let a_fast = solve(&fast_tail).alloc;
        assert!(a_fast.alpha(1) > a_slow.alpha(1));
    }

    #[test]
    fn adding_a_processor_never_hurts() {
        // Appending a processor to the chain cannot increase the makespan.
        let base = LinearNetwork::from_rates(&[1.0, 2.0], &[0.3]);
        let ext = LinearNetwork::from_rates(&[1.0, 2.0, 5.0], &[0.3, 0.4]);
        assert!(solve(&ext).makespan() <= solve(&base).makespan() + EPSILON);
    }

    #[test]
    fn finish_times_all_equal_makespan() {
        let net = LinearNetwork::from_rates(&[0.7, 1.3, 2.2, 0.9], &[0.15, 0.25, 0.35]);
        let sol = solve(&net);
        let times = finish_times(&net, &sol.alloc);
        for t in times {
            assert!((t - sol.makespan()).abs() < 1e-12);
        }
    }

    #[test]
    fn splice_interior_fuses_links() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]);
        let spliced = splice(&net, 2);
        assert_eq!(spliced.rates_w(), vec![1.0, 2.0, 4.0]);
        // Link into the old P3 fuses z_2 + z_3 = 0.1 + 0.7.
        assert_eq!(spliced.rates_z(), vec![0.2, 0.1 + 0.7]);
    }

    #[test]
    fn splice_terminal_truncates() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]);
        let spliced = splice(&net, 3);
        assert_eq!(spliced.rates_w(), vec![1.0, 2.0, 0.5]);
        assert_eq!(spliced.rates_z(), vec![0.2, 0.1]);
    }

    #[test]
    fn splice_first_strategic_node() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5], &[0.2, 0.1]);
        let spliced = splice(&net, 1);
        assert_eq!(spliced.rates_w(), vec![1.0, 0.5]);
        assert_eq!(spliced.rates_z(), vec![0.2 + 0.1]);
    }

    #[test]
    fn spliced_chain_is_solvable_and_slower() {
        // Losing a worker can only worsen (or keep) the equivalent time.
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0, 1.5], &[0.2, 0.1, 0.7, 0.05]);
        let base = equivalent_time(&net);
        for dead in 1..net.len() {
            let spliced = splice(&net, dead);
            let sol = solve(&spliced);
            sol.alloc
                .validate()
                .expect("spliced solution must be feasible");
            assert!(
                equivalent_time(&spliced) >= base - EPSILON,
                "removing P{dead} cannot speed the chain up"
            );
        }
    }

    #[test]
    #[should_panic(expected = "strategic")]
    fn splice_rejects_the_root() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0], &[0.2]);
        splice(&net, 0);
    }

    #[test]
    fn long_homogeneous_chain_is_stable() {
        let net = LinearNetwork::homogeneous(200, 1.0, 0.1);
        let sol = solve(&net);
        sol.alloc.validate().unwrap();
        assert!(participation_spread(&net, &sol.alloc) < 1e-9);
        // Makespan is bounded below by the perfect-split bound w/n and
        // above by the single-processor time.
        assert!(sol.makespan() >= 1.0 / 200.0);
        assert!(sol.makespan() <= 1.0);
    }
}

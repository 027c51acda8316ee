//! **Frozen** copy of the scalar Algorithm 1 solver — the bit-identity
//! oracle for the batch core.
//!
//! This module is a verbatim snapshot of `dlt::linear::{solve,
//! equivalent_time}` taken when `dlt::batch` was introduced, plus the
//! suffix solve the payment oracles use.
//! The differential test suite (`dlt/tests/batch_identity.rs`) and the E27
//! experiment pin every batch-core output byte-for-byte against these
//! functions, and a drift test in `linear` pins the live scalar solver
//! against this snapshot.
//!
//! **Do not modify the floating-point operations in this file.** Any change
//! to the sequence of FP operations here silently re-baselines every
//! bit-identity contract in the repository. (The `obs` counters of the live
//! solver are deliberately omitted: they do not participate in the
//! arithmetic and the reference is used inside tight differential loops.)

use crate::linear::LinearSolution;
use crate::model::{LinearNetwork, LocalAllocation};

/// Frozen Algorithm 1 (see [`crate::linear::solve`]).
pub fn solve(net: &LinearNetwork) -> LinearSolution {
    let m = net.last_index();
    let mut alpha_hat = vec![0.0; m + 1];
    let mut w_bar = vec![0.0; m + 1];
    alpha_hat[m] = 1.0;
    w_bar[m] = net.w(m);
    for i in (0..m).rev() {
        let tail = w_bar[i + 1] + net.z(i + 1);
        alpha_hat[i] = tail / (net.w(i) + tail); // eq. 2.7
        w_bar[i] = alpha_hat[i] * net.w(i); // eq. 2.4
    }
    let local = LocalAllocation::new(alpha_hat);
    let alloc = local.to_global();
    LinearSolution {
        local,
        alloc,
        equivalent: w_bar,
    }
}

/// Frozen equivalent-time recursion (see [`crate::linear::equivalent_time`]).
/// Note the FP operation order differs from [`solve`]'s `w̄` recursion
/// (`w·t/(w+t)` vs `(t/(w+t))·w`), so the two are *distinct* bit-identity
/// targets; the payment path depends on both.
pub fn equivalent_time(net: &LinearNetwork) -> f64 {
    let m = net.last_index();
    let mut w_bar = net.w(m);
    for i in (0..m).rev() {
        let tail = w_bar + net.z(i + 1);
        w_bar = net.w(i) * tail / (net.w(i) + tail);
    }
    w_bar
}

/// Frozen suffix solve: [`solve`] on the sub-chain `P_i … P_m`.
pub fn solve_suffix(net: &LinearNetwork, i: usize) -> LinearSolution {
    solve(&net.suffix(i))
}

#[cfg(test)]
mod tests {
    use crate::model::LinearNetwork;

    /// The live scalar solver must not drift from the frozen snapshot: if
    /// this test fails, someone edited `linear::solve` (or this file) and
    /// every bit-identity baseline in the repo needs re-auditing.
    #[test]
    fn live_solver_pinned_to_frozen_reference() {
        let nets = [
            LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]),
            LinearNetwork::from_rates(&[0.7, 1.3, 2.2, 0.9, 3.1], &[0.15, 0.25, 0.35, 0.4]),
            LinearNetwork::homogeneous(1, 3.0, 0.0),
            LinearNetwork::homogeneous(64, 1.0, 0.1),
        ];
        for net in &nets {
            let live = crate::linear::solve(net);
            let frozen = super::solve(net);
            assert_eq!(format!("{live:?}"), format!("{frozen:?}"));
            assert_eq!(
                crate::linear::equivalent_time(net).to_bits(),
                super::equivalent_time(net).to_bits()
            );
            for i in 0..net.len() {
                let a = crate::linear::solve(&net.suffix(i));
                let b = super::solve_suffix(net, i);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "suffix {i}");
            }
        }
    }
}

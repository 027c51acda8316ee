//! Empirical checkers for the mechanism's two headline properties:
//! strategyproofness (Theorem 5.3) and voluntary participation
//! (Theorem 5.4). These power the E4/E5 experiments and the property-based
//! test suite.

use crate::agent::{Agent, Conduct};
use crate::dls_lbl::DlsLbl;

/// One point on a utility-vs-bid curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The bid as a multiple of the true rate.
    pub bid_factor: f64,
    /// The absolute bid.
    pub bid: f64,
    /// The agent's resulting utility (best feasible execution for that
    /// bid: full capacity, prescribed load).
    pub utility: f64,
}

/// The utility-vs-bid curve for one agent, holding the others truthful (or
/// at any fixed conduct).
#[derive(Debug, Clone, PartialEq)]
pub struct BidSweep {
    /// Index of the swept strategic processor (1-based, `P_j`).
    pub agent: usize,
    /// The curve, in increasing bid order.
    pub points: Vec<SweepPoint>,
    /// Utility at the truthful bid.
    pub truthful_utility: f64,
}

impl BidSweep {
    /// True if no swept bid beats the truthful bid by more than `tol`.
    pub fn truthful_is_best(&self, tol: f64) -> bool {
        self.points
            .iter()
            .all(|p| p.utility <= self.truthful_utility + tol)
    }

    /// The most profitable deviation found (positive means a
    /// strategyproofness violation).
    pub fn max_gain(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.utility - self.truthful_utility)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Sweep agent `j`'s bid across `factors × t_j` while the other agents
/// follow `others` (typically truthful conduct).
///
/// For each bid the agent executes at its best feasible rate: full capacity
/// when the bid is at or above the true rate, and the (forced) true rate
/// when it underbids — it cannot compute faster than its hardware.
///
/// Every point settles through one [`DlsLbl::deviation`]: the others'
/// suffix is solved once, and the truthful bid and every factor's bid run
/// through [`Deviation::settle_each`](crate::Deviation::settle_each),
/// eight bids side by side per O(j) walk, with no allocation beyond the
/// deviation's one buffer and `points`. The utilities are bit-identical
/// to settling each profile whole with [`DlsLbl::settle`].
pub fn bid_sweep(
    mech: &DlsLbl,
    agents: &[Agent],
    j: usize,
    others: &[Conduct],
    factors: &[f64],
) -> BidSweep {
    assert!(j >= 1 && j <= agents.len());
    assert_eq!(others.len(), agents.len());
    let me = agents[j - 1];
    let conduct_at = |bid: f64| Conduct {
        bid,
        actual_rate: me.feasible_actual(bid.min(me.true_rate)),
        actual_load: None,
    };
    let bids = std::iter::once(me.true_rate).chain(factors.iter().map(|&f| me.true_rate * f));
    let mut truthful_utility = f64::NAN;
    let mut points = Vec::with_capacity(factors.len());
    mech.deviation(others, j)
        .settle_each(bids.map(conduct_at), false, |k, outcome| {
            let utility = outcome.breakdown.utility;
            match k.checked_sub(1) {
                None => truthful_utility = utility,
                Some(i) => points.push(SweepPoint {
                    bid_factor: factors[i],
                    bid: me.true_rate * factors[i],
                    utility,
                }),
            }
        });
    BidSweep {
        agent: j,
        points,
        truthful_utility,
    }
}

/// Check strategyproofness for every agent over a factor grid, others
/// truthful. Returns the per-agent sweeps; the caller asserts
/// [`BidSweep::truthful_is_best`].
pub fn strategyproofness_report(mech: &DlsLbl, agents: &[Agent], factors: &[f64]) -> Vec<BidSweep> {
    let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
    (1..=agents.len())
        .map(|j| bid_sweep(mech, agents, j, &truthful, factors))
        .collect()
}

/// Voluntary participation report: truthful utilities for every agent.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticipationReport {
    /// Truthful utility per strategic processor (index 0 is `P_1`).
    pub utilities: Vec<f64>,
}

impl ParticipationReport {
    /// Minimum utility across agents.
    pub fn min_utility(&self) -> f64 {
        self.utilities.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// True if every truthful agent nets at least `-tol`.
    pub fn holds(&self, tol: f64) -> bool {
        self.min_utility() >= -tol
    }
}

/// Compute the participation report at the truthful profile.
pub fn participation_report(mech: &DlsLbl, agents: &[Agent]) -> ParticipationReport {
    let outcome = mech.settle_truthful(agents);
    ParticipationReport {
        utilities: (1..=agents.len()).map(|j| outcome.utility(j)).collect(),
    }
}

/// The default factor grid used by experiments: a dense sweep around the
/// truthful point (factor 1) plus aggressive outliers.
pub fn default_factor_grid() -> Vec<f64> {
    let mut f: Vec<f64> = (1..=40).map(|i| 0.25 + i as f64 * 0.05).collect(); // 0.30 … 2.25
    f.extend_from_slice(&[0.05, 0.1, 3.0, 5.0, 10.0]);
    f.sort_by(f64::total_cmp);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DlsLbl, Vec<Agent>) {
        (
            DlsLbl::new(1.0, vec![0.2, 0.1, 0.7]),
            vec![Agent::new(2.0), Agent::new(0.5), Agent::new(4.0)],
        )
    }

    #[test]
    fn truthful_is_best_for_every_agent() {
        let (mech, agents) = setup();
        for sweep in strategyproofness_report(&mech, &agents, &default_factor_grid()) {
            assert!(
                sweep.truthful_is_best(1e-9),
                "P{} gains {} by deviating",
                sweep.agent,
                sweep.max_gain()
            );
        }
    }

    #[test]
    fn sweep_includes_truthful_point_with_zero_gain() {
        let (mech, agents) = setup();
        let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        let sweep = bid_sweep(&mech, &agents, 1, &truthful, &[1.0]);
        assert!((sweep.points[0].utility - sweep.truthful_utility).abs() < 1e-12);
        assert!((sweep.max_gain()).abs() < 1e-12);
    }

    #[test]
    fn participation_holds_truthfully() {
        let (mech, agents) = setup();
        let report = participation_report(&mech, &agents);
        assert!(report.holds(0.0), "min utility {}", report.min_utility());
        assert_eq!(report.utilities.len(), 3);
    }

    #[test]
    fn strategyproof_even_against_lying_others() {
        let (mech, agents) = setup();
        // Others misreport wildly; P2's truth must still dominate.
        let mut others: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        others[0] = Conduct::misreport(agents[0], 0.4);
        others[2] = Conduct::misreport(agents[2], 3.0);
        let sweep = bid_sweep(&mech, &agents, 2, &others, &default_factor_grid());
        assert!(sweep.truthful_is_best(1e-9), "gain {}", sweep.max_gain());
    }

    #[test]
    fn factor_grid_is_sorted_and_covers_truth() {
        let grid = default_factor_grid();
        assert!(grid.windows(2).all(|w| w[0] <= w[1]));
        assert!(grid.iter().any(|&f| (f - 1.0).abs() < 1e-12));
        assert!(grid[0] < 0.1);
        assert!(*grid.last().unwrap() >= 10.0);
    }
}

//! DLS-LIL: the interior-origination variant the paper leaves to future
//! work (§6 — "load origination … is either a terminal processor or an
//! interior processor. The DLS-LBL mechanism schedules loads when the root
//! is a terminal processor").
//!
//! With the obedient root strictly inside the chain, the network is two
//! *arms* hanging off the root. Three observations make the mechanism a
//! clean composition of chain machinery:
//!
//! 1. each arm, viewed from the root, is a boundary-origination chain, so
//!    Algorithm 1 applies within arms;
//! 2. the root's split between arms is a two-child star; the one-port
//!    *service order* is fixed **bid-independently** by ascending link
//!    rate (the E18-verified optimal rule) — a bid-dependent order would
//!    create exploitable discontinuities;
//! 3. the DLS-LBL bonus (eqs. 4.9–4.11) involves only *rates*, which are
//!    scale-free under the linear cost model — so each agent's payment is
//!    exactly the chain payment computed within its own arm, with the root
//!    as the arm head's predecessor, regardless of how much load the arm
//!    receives.
//!
//! Consequences (all asserted in tests): strategyproofness and voluntary
//! participation are inherited arm-wise from DLS-LBL, and an agent's
//! utility is *independent of the other arm's bids entirely*.

use crate::agent::{Agent, Conduct};
use crate::payment::{self, PaymentBreakdown, PaymentInputs};
use dlt::batch;
use dlt::interior::{InteriorNetwork, ServiceOrder};
use dlt::model::LinearNetwork;

/// Which arm an agent sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Towards `P_0`.
    Left,
    /// Towards `P_m`.
    Right,
}

/// The interior-origination mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct DlsInterior {
    /// Obedient root rate.
    pub root_rate: f64,
    /// Link rates of the left arm, root-outward (`z` between root and its
    /// left neighbor first).
    pub left_links: Vec<f64>,
    /// Link rates of the right arm, root-outward.
    pub right_links: Vec<f64>,
}

/// Outcome for one strategic agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteriorAgentOutcome {
    /// The arm.
    pub arm: Arm,
    /// Position within the arm (1 = adjacent to the root).
    pub position: usize,
    /// Assigned absolute load.
    pub assigned: f64,
    /// Itemized payment.
    pub breakdown: PaymentBreakdown,
}

/// Settled outcome of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct InteriorOutcome {
    /// Left-arm agents, root-outward.
    pub left: Vec<InteriorAgentOutcome>,
    /// Right-arm agents, root-outward.
    pub right: Vec<InteriorAgentOutcome>,
    /// Root's own load.
    pub root_load: f64,
    /// Achieved makespan under the bids.
    pub makespan: f64,
    /// The (bid-independent) service order used.
    pub order: ServiceOrder,
}

impl InteriorOutcome {
    /// Utility of the agent at `position` (1-based, root-outward) in `arm`.
    pub fn utility(&self, arm: Arm, position: usize) -> f64 {
        let agents = match arm {
            Arm::Left => &self.left,
            Arm::Right => &self.right,
        };
        agents[position - 1].breakdown.utility
    }
}

impl DlsInterior {
    /// Create the mechanism. Both arms must be non-empty (otherwise use
    /// [`crate::DlsLbl`]).
    pub fn new(root_rate: f64, left_links: Vec<f64>, right_links: Vec<f64>) -> Self {
        assert!(
            !left_links.is_empty() && !right_links.is_empty(),
            "interior origination needs both arms; use DlsLbl for boundary origination"
        );
        Self {
            root_rate,
            left_links,
            right_links,
        }
    }

    /// The bid-independent service order: the arm behind the faster first
    /// link is served first.
    pub fn service_order(&self) -> ServiceOrder {
        if self.left_links[0] <= self.right_links[0] {
            ServiceOrder::LeftFirst
        } else {
            ServiceOrder::RightFirst
        }
    }

    /// Number of strategic agents per arm.
    pub fn arm_sizes(&self) -> (usize, usize) {
        (self.left_links.len(), self.right_links.len())
    }

    /// Assemble the full physical chain (left arm reversed, root, right
    /// arm) with the given per-arm bids, plus the root's physical index.
    fn assemble(&self, left_bids: &[f64], right_bids: &[f64]) -> (LinearNetwork, usize) {
        assert_eq!(left_bids.len(), self.left_links.len());
        assert_eq!(right_bids.len(), self.right_links.len());
        let mut w: Vec<f64> = left_bids.iter().rev().copied().collect();
        w.push(self.root_rate);
        w.extend_from_slice(right_bids);
        let mut z: Vec<f64> = self.left_links.iter().rev().copied().collect();
        z.extend_from_slice(&self.right_links);
        (LinearNetwork::from_rates(&w, &z), left_bids.len())
    }

    /// The chain-view of one arm: root first, then the arm's processors
    /// root-outward — exactly the network DLS-LBL payments expect.
    fn arm_network(&self, arm: Arm, bids: &[f64]) -> LinearNetwork {
        let links = match arm {
            Arm::Left => &self.left_links,
            Arm::Right => &self.right_links,
        };
        assert_eq!(bids.len(), links.len());
        let mut w = vec![self.root_rate];
        w.extend_from_slice(bids);
        LinearNetwork::from_rates(&w, links)
    }

    /// Settle a round. Conducts are per arm, root-outward.
    pub fn settle(&self, left: &[Conduct], right: &[Conduct]) -> InteriorOutcome {
        let left_bids: Vec<f64> = left.iter().map(|c| c.bid).collect();
        let right_bids: Vec<f64> = right.iter().map(|c| c.bid).collect();
        let (chain, root_idx) = self.assemble(&left_bids, &right_bids);
        let interior = InteriorNetwork::new(chain, root_idx);
        let order = self.service_order();
        let solution = dlt::interior::solve_with_order(&interior, order);

        let settle_arm = |arm: Arm, conducts: &[Conduct], bids: &[f64]| {
            let net = self.arm_network(arm, bids);
            let sfx = batch::solve_all_suffixes(&net);
            conducts
                .iter()
                .enumerate()
                .map(|(idx, c)| {
                    let position = idx + 1;
                    // Physical index of this agent in the assembled chain.
                    let phys = match arm {
                        Arm::Left => root_idx - position,
                        Arm::Right => root_idx + position,
                    };
                    let assigned = solution.alloc.alpha(phys);
                    let actual = c.actual_load.unwrap_or(assigned);
                    let inputs = PaymentInputs {
                        assigned_load: assigned,
                        actual_load: actual,
                        actual_rate: c.actual_rate,
                    };
                    InteriorAgentOutcome {
                        arm,
                        position,
                        assigned,
                        breakdown: payment::settle_with(&sfx, &net, position, inputs, 0.0),
                    }
                })
                .collect::<Vec<_>>()
        };

        InteriorOutcome {
            left: settle_arm(Arm::Left, left, &left_bids),
            right: settle_arm(Arm::Right, right, &right_bids),
            root_load: solution.alloc.alpha(root_idx),
            makespan: solution.makespan,
            order,
        }
    }

    /// Truthful settlement.
    pub fn settle_truthful(&self, left: &[Agent], right: &[Agent]) -> InteriorOutcome {
        let l: Vec<Conduct> = left.iter().map(|&a| Conduct::truthful(a)).collect();
        let r: Vec<Conduct> = right.iter().map(|&a| Conduct::truthful(a)).collect();
        self.settle(&l, &r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt::linear;

    fn setup() -> (DlsInterior, Vec<Agent>, Vec<Agent>) {
        (
            DlsInterior::new(1.0, vec![0.2, 0.35], vec![0.15, 0.25, 0.4]),
            vec![Agent::new(1.8), Agent::new(0.9)],
            vec![Agent::new(0.6), Agent::new(2.5), Agent::new(1.2)],
        )
    }

    #[test]
    fn loads_partition_the_unit() {
        let (mech, l, r) = setup();
        let out = mech.settle_truthful(&l, &r);
        let total: f64 = out.root_load
            + out.left.iter().map(|a| a.assigned).sum::<f64>()
            + out.right.iter().map(|a| a.assigned).sum::<f64>();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn truthful_utilities_nonnegative() {
        let (mech, l, r) = setup();
        let out = mech.settle_truthful(&l, &r);
        for (arm, n) in [(Arm::Left, 2usize), (Arm::Right, 3)] {
            for p in 1..=n {
                assert!(out.utility(arm, p) >= -1e-12, "{arm:?} position {p}");
            }
        }
    }

    #[test]
    fn truth_dominates_in_both_arms() {
        let (mech, l, r) = setup();
        let honest = mech.settle_truthful(&l, &r);
        let lt: Vec<Conduct> = l.iter().map(|&a| Conduct::truthful(a)).collect();
        let rt: Vec<Conduct> = r.iter().map(|&a| Conduct::truthful(a)).collect();
        for factor in [0.3, 0.7, 1.4, 3.0] {
            for p in 1..=2 {
                let mut lc = lt.clone();
                lc[p - 1] = Conduct::misreport(l[p - 1], factor);
                let dev = mech.settle(&lc, &rt);
                assert!(dev.utility(Arm::Left, p) <= honest.utility(Arm::Left, p) + 1e-9);
            }
            for p in 1..=3 {
                let mut rc = rt.clone();
                rc[p - 1] = Conduct::misreport(r[p - 1], factor);
                let dev = mech.settle(&lt, &rc);
                assert!(dev.utility(Arm::Right, p) <= honest.utility(Arm::Right, p) + 1e-9);
            }
        }
    }

    #[test]
    fn utility_is_independent_of_the_other_arm() {
        // The bonus involves only rates within the agent's own arm.
        let (mech, l, r) = setup();
        let base = mech.settle_truthful(&l, &r);
        let lt: Vec<Conduct> = l.iter().map(|&a| Conduct::truthful(a)).collect();
        let mut rc: Vec<Conduct> = r.iter().map(|&a| Conduct::truthful(a)).collect();
        rc[0] = Conduct::misreport(r[0], 0.4);
        rc[2] = Conduct::misreport(r[2], 2.5);
        let out = mech.settle(&lt, &rc);
        for p in 1..=2 {
            assert!(
                (out.utility(Arm::Left, p) - base.utility(Arm::Left, p)).abs() < 1e-12,
                "left-arm P{p} was affected by right-arm bids"
            );
        }
    }

    #[test]
    fn service_order_is_bid_independent() {
        let (mech, _, _) = setup();
        assert_eq!(mech.service_order(), ServiceOrder::RightFirst); // 0.15 < 0.2
        let mech2 = DlsInterior::new(1.0, vec![0.1], vec![0.5]);
        assert_eq!(mech2.service_order(), ServiceOrder::LeftFirst);
    }

    #[test]
    fn makespan_matches_interior_solver() {
        let (mech, l, r) = setup();
        let out = mech.settle_truthful(&l, &r);
        let (chain, root_idx) = mech.assemble(
            &l.iter().map(|a| a.true_rate).collect::<Vec<_>>(),
            &r.iter().map(|a| a.true_rate).collect::<Vec<_>>(),
        );
        let solution = dlt::interior::solve_with_order(
            &InteriorNetwork::new(chain, root_idx),
            mech.service_order(),
        );
        assert!((out.makespan - solution.makespan).abs() < 1e-12);
    }

    #[test]
    fn arm_head_bonus_uses_root_as_predecessor() {
        // Lemma 5.4 identity within the arm: U = w_pred − w̄_pred with the
        // root as the arm head's predecessor.
        let (mech, l, r) = setup();
        let out = mech.settle_truthful(&l, &r);
        let arm_net = mech.arm_network(
            Arm::Right,
            &r.iter().map(|a| a.true_rate).collect::<Vec<_>>(),
        );
        let sol = linear::solve(&arm_net);
        for p in 1..=3 {
            let expected = arm_net.w(p - 1) - sol.equivalent[p - 1];
            assert!(
                (out.utility(Arm::Right, p) - expected).abs() < 1e-9,
                "position {p}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "both arms")]
    fn rejects_empty_arm() {
        DlsInterior::new(1.0, vec![], vec![0.5]);
    }
}

//! The DLS-LBL mechanism (§4): output function + payment function, glued
//! into a one-shot settlement over a whole chain of strategic agents.
//!
//! This module is the *economic* view of the mechanism: given true types,
//! bids, and executions, it computes allocations, payments and utilities.
//! The message-level machinery (signatures, grievances, fines, audits) that
//! *enforces* these numbers lives in the `protocol` crate; the two are
//! wired together by the experiments.
//!
//! Two settlement entry points share one payment core
//! (`payment::BonusTerms` and `payment::breakdown`):
//!
//! * [`DlsLbl::settle`] settles a whole profile in O(m) through one suffix
//!   sweep ([`dlt::batch::solve_all_suffixes`]);
//! * [`DlsLbl::deviation`] fixes every agent but `P_j` and then settles
//!   conducts of `P_j` alone. The suffix `P_{j+1} … P_m` behind the agent
//!   is solved once. Conducts then settle in lanes of up to eight side by
//!   side: one reduction step at `j`, a backward walk over `0..j` and the
//!   forward product for `α_j`, each run over a fixed-width array with one
//!   load of the prefix's rate and link per step for all lanes, and no
//!   allocation. Each lane does exactly the floating-point operations of a
//!   lone settlement, in the same order, so lanes only keep several
//!   divides in flight at once (DESIGN §21). This is what the Theorem 5.3
//!   sweeps ([`crate::verify::bid_sweep`]) run, and every field of an
//!   outcome is bit-identical to `settle(..).agents[j - 1]`.

use crate::agent::{Agent, Conduct};
use crate::payment::{self, BonusTerms, PaymentBreakdown, PaymentInputs};
use dlt::linear::{self, LinearSolution};
use dlt::model::{LinearNetwork, Processor};

/// Configuration of the mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MechanismConfig {
    /// The link rates `z_1 … z_m` are public infrastructure (the links are
    /// obedient per §4); processors only bid their `w`.
    pub solution_bonus: f64,
}

impl Default for MechanismConfig {
    fn default() -> Self {
        Self {
            solution_bonus: 0.0,
        }
    }
}

/// The mechanism instance for a chain with known (obedient) link rates.
#[derive(Debug, Clone, PartialEq)]
pub struct DlsLbl {
    /// Unit link times `z_1 … z_m`.
    pub link_rates: Vec<f64>,
    /// Root's (obedient) unit processing time `w_0`.
    pub root_rate: f64,
    /// Extension knobs.
    pub config: MechanismConfig,
}

/// The settled outcome for one strategic processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentOutcome {
    /// Prescribed assignment `α_j` under the bids.
    pub assigned_load: f64,
    /// Load actually computed `α̃_j`.
    pub actual_load: f64,
    /// Metered actual rate `w̃_j`.
    pub actual_rate: f64,
    /// Itemized payment.
    pub breakdown: PaymentBreakdown,
}

/// The settled outcome of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// The bid-derived network (root + declared rates).
    pub bid_network: LinearNetwork,
    /// The optimal solution under the bids.
    pub solution: LinearSolution,
    /// Root's load (α_0) — the root is obedient and nets zero utility.
    pub root_load: f64,
    /// Per-strategic-agent outcomes (index 0 is `P_1`).
    pub agents: Vec<AgentOutcome>,
}

impl RoundOutcome {
    /// Utility of strategic processor `P_j` (`j ≥ 1`).
    pub fn utility(&self, j: usize) -> f64 {
        self.agents[j - 1].breakdown.utility
    }

    /// Total payments disbursed by the mechanism.
    pub fn total_payment(&self) -> f64 {
        self.agents.iter().map(|a| a.breakdown.payment).sum()
    }
}

impl DlsLbl {
    /// Create a mechanism for a chain whose links have the given rates and
    /// whose root (P_0, obedient) has rate `root_rate`.
    pub fn new(root_rate: f64, link_rates: Vec<f64>) -> Self {
        assert!(
            !link_rates.is_empty(),
            "need at least one strategic processor"
        );
        Self {
            link_rates,
            root_rate,
            config: MechanismConfig::default(),
        }
    }

    /// Builder: enable the eq. 4.13 solution bonus.
    pub fn with_solution_bonus(mut self, s: f64) -> Self {
        assert!(s >= 0.0);
        self.config.solution_bonus = s;
        self
    }

    /// Number of strategic processors `m`.
    pub fn num_agents(&self) -> usize {
        self.link_rates.len()
    }

    /// The output function `α(w)`: assemble the bid network and run
    /// Algorithm 1 ([`dlt::linear::solve`]).
    pub fn allocate(&self, bids: &[f64]) -> (LinearNetwork, LinearSolution) {
        assert_eq!(
            bids.len(),
            self.num_agents(),
            "one bid per strategic processor"
        );
        let mut w = Vec::with_capacity(bids.len() + 1);
        w.push(self.root_rate);
        w.extend_from_slice(bids);
        let net = LinearNetwork::from_rates(&w, &self.link_rates);
        let sol = linear::solve(&net);
        (net, sol)
    }

    /// Settle a round: given each agent's conduct, compute assignments,
    /// actual loads, payments and utilities.
    ///
    /// `solution_found` feeds the eq. 4.13 extension: agents receive the
    /// solution bonus only when the embedded problem was solved.
    pub fn settle(&self, conducts: &[Conduct], solution_found: bool) -> RoundOutcome {
        assert_eq!(conducts.len(), self.num_agents());
        let bids: Vec<f64> = conducts.iter().map(|c| c.bid).collect();
        let (net, sol) = self.allocate(&bids);
        let s = if solution_found {
            self.config.solution_bonus
        } else {
            0.0
        };
        // One suffix sweep settles the whole profile in O(m); bit-identical
        // to the per-agent `payment::settle` loop (payment-parity suite).
        let inputs: Vec<PaymentInputs> = conducts
            .iter()
            .enumerate()
            .map(|(idx, c)| {
                let assigned = sol.alloc.alpha(idx + 1);
                PaymentInputs {
                    assigned_load: assigned,
                    actual_load: c.actual_load.unwrap_or(assigned),
                    actual_rate: c.actual_rate,
                }
            })
            .collect();
        let agents = payment::settle_all(&net, &inputs, s)
            .into_iter()
            .zip(&inputs)
            .map(|(breakdown, inp)| AgentOutcome {
                assigned_load: inp.assigned_load,
                actual_load: inp.actual_load,
                actual_rate: inp.actual_rate,
                breakdown,
            })
            .collect();
        RoundOutcome {
            root_load: sol.alloc.alpha(0),
            bid_network: net,
            solution: sol,
            agents,
        }
    }

    /// Settle with every agent truthful — the benchmark point of the
    /// strategyproofness experiments.
    pub fn settle_truthful(&self, agents: &[Agent]) -> RoundOutcome {
        let conducts: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        self.settle(&conducts, false)
    }

    /// Fix every agent but `P_j` at its conduct in `others` (`others[j - 1]`
    /// is ignored) and return a settler for `P_j`'s own conducts. Solves the
    /// unchanged suffix `P_{j+1} … P_m` once, in O(m − j).
    pub fn deviation(&self, others: &[Conduct], j: usize) -> Deviation<'_> {
        let m = self.num_agents();
        assert_eq!(others.len(), m, "one conduct per strategic processor");
        assert!(j >= 1 && j <= m, "P_j must be a strategic processor");
        let bid = |i: usize| Processor::new(others[i - 1].bid).w;
        // One buffer holds the prefix and, behind it, the lanes' α̂. It is
        // sized by the chain, not by `j`: sweeps over different agents of
        // one chain then reuse one allocation size, where `j`-sized
        // buffers fragmented the heap and raised a sweep workload's peak
        // RSS by ≈5 %.
        let mut scratch = Vec::with_capacity((m + 1) + LANES * m);
        scratch.push(self.root_rate);
        scratch.extend((1..j).map(bid));
        // The suffix recursions of `batch::solve_all_suffixes`, run down to
        // P_{j+1}: both `w̄_{j+1}` operation orders.
        let suffix = (j < m).then(|| {
            let (mut w_bar, mut eq_time) = (bid(m), bid(m));
            for i in (j + 1..m).rev() {
                let (w, z) = (bid(i), self.link_rates[i]);
                eq_time = linear::reduce_pair_equivalent(w, z, eq_time);
                w_bar = linear::reduce_pair(w, z, w_bar).1;
            }
            (w_bar, eq_time)
        });
        Deviation {
            mech: self,
            j,
            scratch,
            suffix,
        }
    }
}

/// Conducts that [`Deviation::settle_each`] settles side by side. At the
/// baseline x86-64 target, eight lanes keep four two-wide SSE2 divides in
/// flight per prefix step. Four lanes ran 1.3–1.8× slower at m ≥ 16;
/// sixteen won only on long chains and lost on short ones, where a
/// sweep's padded lanes cost more than its walk (DESIGN §21).
const LANES: usize = 8;

/// `P_j`'s settlements against a fixed profile of the other agents, from
/// [`DlsLbl::deviation`]. Every outcome of [`Deviation::settle`] and
/// [`Deviation::settle_each`] is bit-identical to
/// `DlsLbl::settle(..).agents[j - 1]` on the same profile.
#[derive(Debug, Clone)]
pub struct Deviation<'a> {
    mech: &'a DlsLbl,
    /// The deviating agent's index (1-based).
    j: usize,
    /// The prefix `w_0 … w_{j-1}` (the root's rate, then the others'
    /// bids), then `α̂_0 … α̂_{j-1}` of every lane, step-major: a
    /// settlement of `L` lanes rewrites the `L · j` entries behind the
    /// prefix. Its capacity, `(m + 1) + LANES · m`, is reserved at once, so
    /// growing into it never reallocates.
    scratch: Vec<f64>,
    /// `(w̄_{j+1}, equivalent_time_{j+1})` of the fixed suffix; `None`
    /// when `P_j` is terminal.
    suffix: Option<(f64, f64)>,
}

impl Deviation<'_> {
    /// Settle `P_j` under `conduct`, with `solution_found` feeding the
    /// eq. 4.13 bonus as in [`DlsLbl::settle`]: the one-lane instance of
    /// the kernel [`Deviation::settle_each`] runs. O(j), allocation-free.
    pub fn settle(&mut self, conduct: Conduct, solution_found: bool) -> AgentOutcome {
        let [outcome] = self.settle_lanes([conduct], solution_found);
        outcome
    }

    /// Settle every conduct of `conducts` in order and hand `each` its
    /// index and outcome, in that order. Conducts run eight at a time
    /// through one walk over the prefix; a short last chunk pads its
    /// unused lanes with its first conduct and drops their outcomes. Each
    /// outcome equals [`Deviation::settle`]'s to the bit. Allocation-free.
    pub fn settle_each(
        &mut self,
        conducts: impl IntoIterator<Item = Conduct>,
        solution_found: bool,
        mut each: impl FnMut(usize, AgentOutcome),
    ) {
        let mut conducts = conducts.into_iter();
        let mut done = 0;
        while let Some(first) = conducts.next() {
            let mut chunk = [first; LANES];
            let mut filled = 1;
            // `zip` stops on the chunk's end before pulling a conduct.
            for (lane, conduct) in chunk[1..].iter_mut().zip(conducts.by_ref()) {
                *lane = conduct;
                filled += 1;
            }
            let outcomes = self.settle_lanes(chunk, solution_found);
            for (k, outcome) in outcomes.into_iter().take(filled).enumerate() {
                each(done + k, outcome);
            }
            done += filled;
        }
    }

    /// The kernel: settle `L` conducts side by side. Every lane runs
    /// exactly the IEEE operations of a lone settlement, in the same
    /// order, with no fused multiply-add; the lanes share only the loads
    /// of the fixed inputs. Independent lanes let the compiler keep
    /// several divides in flight where one settlement waits on each.
    #[inline]
    fn settle_lanes<const L: usize>(
        &mut self,
        conducts: [Conduct; L],
        solution_found: bool,
    ) -> [AgentOutcome; L] {
        let j = self.j;
        let links = &self.mech.link_rates;
        let bid = conducts.map(|c| Processor::new(c.bid).w);
        // One reduction step at j against the fixed suffix (eqs. 2.4/2.7).
        let (mut alpha_hat_j, mut w_bar_j, mut eq_time_j) = ([1.0; L], bid, bid);
        if let Some((w_bar, eq_time)) = self.suffix {
            let z = links[j];
            for l in 0..L {
                (alpha_hat_j[l], w_bar_j[l]) = linear::reduce_pair(bid[l], z, w_bar);
                eq_time_j[l] = linear::reduce_pair_equivalent(bid[l], z, eq_time);
            }
        }
        // Backward walk over the prefix, one rate and link load per step
        // for all lanes. The lanes' α̂ grow into the reserved capacity.
        if self.scratch.len() < j + L * j {
            self.scratch.resize(j + L * j, 0.0);
        }
        let (prefix, alpha_hat) = self.scratch.split_at_mut(j);
        let (alpha_hat, _) = alpha_hat[..L * j].as_chunks_mut::<L>();
        let mut w_bar = w_bar_j;
        for i in (0..j).rev() {
            let (w, z, ah) = (prefix[i], links[i], &mut alpha_hat[i]);
            for l in 0..L {
                (ah[l], w_bar[l]) = linear::reduce_pair(w, z, w_bar[l]);
            }
        }
        // The forward product for α_j in `LocalAllocation::to_global`'s
        // order.
        let carried = alpha_hat.iter().fold([1.0; L], |mut c, ah| {
            for l in 0..L {
                c[l] *= 1.0 - ah[l];
            }
            c
        });
        let s = if solution_found {
            self.mech.config.solution_bonus
        } else {
            0.0
        };
        std::array::from_fn(|l| {
            let assigned = carried[l] * alpha_hat_j[l];
            let inputs = PaymentInputs {
                assigned_load: assigned,
                actual_load: conducts[l].actual_load.unwrap_or(assigned),
                actual_rate: conducts[l].actual_rate,
            };
            let terms = BonusTerms {
                w_pred: prefix[j - 1],
                z: links[j - 1],
                w: bid[l],
                alpha_hat: alpha_hat_j[l],
                w_bar: w_bar_j[l],
                eq_time: eq_time_j[l],
                terminal: self.suffix.is_none(),
            };
            AgentOutcome {
                assigned_load: inputs.assigned_load,
                actual_load: inputs.actual_load,
                actual_rate: inputs.actual_rate,
                breakdown: payment::breakdown(inputs, terms.bonus(inputs.actual_rate), s),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mechanism() -> DlsLbl {
        DlsLbl::new(1.0, vec![0.2, 0.1, 0.7])
    }

    fn agents() -> Vec<Agent> {
        vec![Agent::new(2.0), Agent::new(0.5), Agent::new(4.0)]
    }

    #[test]
    fn allocate_matches_direct_solver() {
        let mech = mechanism();
        let (net, sol) = mech.allocate(&[2.0, 0.5, 4.0]);
        let direct = dlt::linear::solve(&LinearNetwork::from_rates(
            &[1.0, 2.0, 0.5, 4.0],
            &[0.2, 0.1, 0.7],
        ));
        assert_eq!(net.len(), 4);
        for i in 0..4 {
            assert!((sol.alloc.alpha(i) - direct.alloc.alpha(i)).abs() < 1e-15);
        }
    }

    #[test]
    fn truthful_settlement_nonnegative_utilities() {
        let mech = mechanism();
        let outcome = mech.settle_truthful(&agents());
        for j in 1..=3 {
            assert!(
                outcome.utility(j) >= 0.0,
                "voluntary participation violated at P{j}"
            );
        }
    }

    #[test]
    fn truthful_utility_equals_w_pred_minus_w_bar_pred() {
        // Lemma 5.4's identity.
        let mech = mechanism();
        let outcome = mech.settle_truthful(&agents());
        let sol = &outcome.solution;
        let net = &outcome.bid_network;
        for j in 1..=3 {
            let expected = net.w(j - 1) - sol.equivalent[j - 1];
            assert!((outcome.utility(j) - expected).abs() < 1e-12, "P{j}");
        }
    }

    #[test]
    fn assigned_equals_actual_for_compliant_agents() {
        let mech = mechanism();
        let outcome = mech.settle_truthful(&agents());
        for a in &outcome.agents {
            assert_eq!(a.assigned_load, a.actual_load);
        }
    }

    #[test]
    fn loads_partition_the_unit() {
        let mech = mechanism();
        let outcome = mech.settle_truthful(&agents());
        let total: f64 =
            outcome.root_load + outcome.agents.iter().map(|a| a.assigned_load).sum::<f64>();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solution_bonus_flows_only_when_found() {
        let mech = mechanism().with_solution_bonus(0.1);
        let conducts: Vec<Conduct> = agents().iter().map(|&a| Conduct::truthful(a)).collect();
        let without = mech.settle(&conducts, false);
        let with = mech.settle(&conducts, true);
        for j in 1..=3 {
            assert!((with.utility(j) - without.utility(j) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn underbidding_does_not_pay() {
        let mech = mechanism();
        let ag = agents();
        let truthful = mech.settle_truthful(&ag);
        for j in 1..=3 {
            let mut conducts: Vec<Conduct> = ag.iter().map(|&a| Conduct::truthful(a)).collect();
            conducts[j - 1] = Conduct::misreport(ag[j - 1], 0.5);
            let deviant = mech.settle(&conducts, false);
            assert!(
                deviant.utility(j) <= truthful.utility(j) + 1e-12,
                "P{j} profited from underbidding: {} > {}",
                deviant.utility(j),
                truthful.utility(j)
            );
        }
    }

    #[test]
    fn overbidding_does_not_pay() {
        let mech = mechanism();
        let ag = agents();
        let truthful = mech.settle_truthful(&ag);
        for j in 1..=3 {
            let mut conducts: Vec<Conduct> = ag.iter().map(|&a| Conduct::truthful(a)).collect();
            conducts[j - 1] = Conduct::misreport(ag[j - 1], 2.0);
            let deviant = mech.settle(&conducts, false);
            assert!(
                deviant.utility(j) <= truthful.utility(j) + 1e-12,
                "P{j} profited from overbidding"
            );
        }
    }

    #[test]
    fn slack_execution_does_not_pay() {
        let mech = mechanism();
        let ag = agents();
        let truthful = mech.settle_truthful(&ag);
        for j in 1..=3 {
            let mut conducts: Vec<Conduct> = ag.iter().map(|&a| Conduct::truthful(a)).collect();
            conducts[j - 1] = Conduct::slack_execution(ag[j - 1], 2.0);
            let deviant = mech.settle(&conducts, false);
            assert!(
                deviant.utility(j) <= truthful.utility(j) + 1e-12,
                "P{j} profited from slacking"
            );
        }
    }

    #[test]
    fn utilities_independent_of_other_bids_shape() {
        // Strategyproofness is dominant-strategy: truthful P1 must weakly
        // prefer truth under *any* profile of others' bids.
        let mech = mechanism();
        let ag = agents();
        for other_factor in [0.3, 1.0, 2.5] {
            let mut base: Vec<Conduct> = ag.iter().map(|&a| Conduct::truthful(a)).collect();
            base[1] = Conduct::misreport(ag[1], other_factor);
            base[2] = Conduct::misreport(ag[2], 1.0 / other_factor.max(0.4));
            let honest = mech.settle(&base, false);
            let mut dev = base.clone();
            dev[0] = Conduct::misreport(ag[0], 1.7);
            let deviant = mech.settle(&dev, false);
            assert!(
                deviant.utility(1) <= honest.utility(1) + 1e-12,
                "P1 gained by lying while others bid ×{other_factor}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one bid per strategic processor")]
    fn allocate_rejects_wrong_arity() {
        mechanism().allocate(&[1.0]);
    }
}

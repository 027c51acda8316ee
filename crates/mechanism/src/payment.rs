//! The DLS-LBL payment functions (eqs. 4.3–4.13).
//!
//! For a strategic processor `P_j` (`j ≥ 1`) the mechanism computes:
//!
//! * **valuation** `V_j = −α̃_j · w̃_j` (eq. 4.5) — the cost of the work
//!   actually performed;
//! * **compensation** `C_j = α_j w̃_j + E_j` (eq. 4.7) with the
//!   **recompense** `E_j = (α̃_j − α_j) w̃_j` when `α̃_j ≥ α_j`, else 0
//!   (eq. 4.8) — overloaded victims are paid for the extra work;
//! * **bonus** `B_j = w_{j-1} − w̄_{j-1}(α(bids), actual)` (eq. 4.9) — the
//!   *improvement* `P_j` and its successors bring to the predecessor's
//!   equivalent processing time, evaluated at the allocation implied by the
//!   bids but re-timed with `P_j`'s *actual* performance via eqs. 4.10–4.11;
//! * optional **solution bonus** `S` (eq. 4.13) for the
//!   selfish-and-annoying extension.
//!
//! Total payment `Q_j = C_j + B_j (+ S)` if the processor computed anything
//! (`α̃_j > 0`), else 0 (eq. 4.6); utility `U_j = V_j + Q_j` (eq. 4.4).

use dlt::batch::{self, SuffixSolutions};
use dlt::linear;
use dlt::model::LinearNetwork;

/// Everything the payment computation for one processor depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaymentInputs {
    /// Prescribed assignment `α_j` (units of total load) from the bids.
    pub assigned_load: f64,
    /// Load actually computed, `α̃_j`.
    pub actual_load: f64,
    /// Actual unit processing time `w̃_j` recorded by the meter.
    pub actual_rate: f64,
}

/// Itemized payment for one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaymentBreakdown {
    /// Valuation `V_j` (non-positive).
    pub valuation: f64,
    /// Compensation `C_j` including recompense.
    pub compensation: f64,
    /// Recompense component `E_j` of the compensation.
    pub recompense: f64,
    /// Bonus `B_j`.
    pub bonus: f64,
    /// Solution bonus `S` (0 unless the extension is active and a solution
    /// was found).
    pub solution_bonus: f64,
    /// Total payment `Q_j`.
    pub payment: f64,
    /// Utility `U_j = V_j + Q_j`.
    pub utility: f64,
}

/// Valuation `V_j = −α̃_j w̃_j` (eq. 4.5).
#[inline]
pub fn valuation(actual_load: f64, actual_rate: f64) -> f64 {
    -actual_load * actual_rate
}

/// Recompense `E_j` (eq. 4.8).
#[inline]
pub fn recompense(assigned_load: f64, actual_load: f64, actual_rate: f64) -> f64 {
    if actual_load >= assigned_load {
        (actual_load - assigned_load) * actual_rate
    } else {
        0.0
    }
}

/// Compensation `C_j = α_j w̃_j + E_j` (eq. 4.7).
#[inline]
pub fn compensation(assigned_load: f64, actual_load: f64, actual_rate: f64) -> f64 {
    assigned_load * actual_rate + recompense(assigned_load, actual_load, actual_rate)
}

/// The adjusted equivalent bid `ŵ_j` of the segment `P_j … P_m`
/// (eqs. 4.10–4.11): dominated by `P_j`'s actual performance when it ran
/// slower than bid, unchanged when it ran at or faster than bid.
///
/// * `bids` — the declared rates of the whole chain (used to derive the
///   local fraction `α̂_j` and the equivalent time `w̄_j`);
/// * `j` — the processor being paid;
/// * `actual_rate` — its metered `w̃_j`.
pub fn adjusted_equivalent(bids: &LinearNetwork, j: usize, actual_rate: f64) -> f64 {
    let m = bids.last_index();
    assert!(
        j >= 1 && j <= m,
        "payments are defined for strategic processors 1..=m"
    );
    let sol = linear::solve(&bids.suffix(j));
    let alpha_hat_j = sol.local.alpha_hat(0);
    let w_bar_j = sol.makespan();
    if j == m {
        // eq. 4.10: the terminal processor's equivalent is itself.
        return actual_rate;
    }
    if actual_rate >= bids.w(j) {
        alpha_hat_j * actual_rate // eq. 4.11, slow case
    } else {
        w_bar_j // eq. 4.11, fast case: equivalent time unchanged
    }
}

/// The realized equivalent time of the segment `P_{j-1} … P_m`
/// (the `w̄_{j-1}(α(bids), actual)` term of eq. 4.9): the two-element
/// reduction of `P_{j-1}` against the adjusted equivalent successor, with
/// the split fixed by the *bids* but the successor re-timed by `ŵ_j`.
pub fn realized_predecessor_equivalent(bids: &LinearNetwork, j: usize, actual_rate: f64) -> f64 {
    assert!(j >= 1);
    let w_pred = bids.w(j - 1);
    let z_j = bids.z(j);
    let w_bar_j = linear::equivalent_time(&bids.suffix(j));
    // Local split of P_{j-1} vs its successor segment, from the bids (eq. 2.7).
    let tail = w_bar_j + z_j;
    let alpha_hat_pred = tail / (w_pred + tail);
    let w_hat_j = adjusted_equivalent(bids, j, actual_rate);
    let front = alpha_hat_pred * w_pred;
    let back = (1.0 - alpha_hat_pred) * (z_j + w_hat_j);
    front.max(back)
}

/// Bonus `B_j = w_{j-1} − w̄_{j-1}(α(bids), actual)` (eq. 4.9).
pub fn bonus(bids: &LinearNetwork, j: usize, actual_rate: f64) -> f64 {
    bids.w(j - 1) - realized_predecessor_equivalent(bids, j, actual_rate)
}

/// The bid-side quantities the eq. 4.9 bonus of one processor `P_j`
/// reads: its neighbours' bids and the solved suffix `P_j … P_m`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BonusTerms {
    /// `w_{j-1}`: the predecessor's bid (the root's rate at `j = 1`).
    pub w_pred: f64,
    /// `z_j`: the link into `P_j`.
    pub z: f64,
    /// `w_j`: `P_j`'s bid.
    pub w: f64,
    /// `α̂_j`: the suffix's front local fraction (solve order).
    pub alpha_hat: f64,
    /// `w̄_j`: the suffix's makespan (solve order).
    pub w_bar: f64,
    /// `w̄_j` in [`linear::equivalent_time`]'s operation order.
    pub eq_time: f64,
    /// `P_j` is the terminal processor (`j = m`).
    pub terminal: bool,
}

impl BonusTerms {
    /// The terms of `P_j` from a suffix sweep of the bid chain.
    #[inline]
    fn from_sweep(sfx: &SuffixSolutions, bids: &LinearNetwork, j: usize) -> Self {
        let m = bids.last_index();
        assert!(
            j >= 1 && j <= m,
            "payments are defined for strategic processors 1..=m"
        );
        Self {
            w_pred: bids.w(j - 1),
            z: bids.z(j),
            w: bids.w(j),
            alpha_hat: sfx.alpha_hat_front(j),
            w_bar: sfx.makespan(j),
            eq_time: sfx.equivalent_time(j),
            terminal: j == m,
        }
    }

    /// Bonus `B_j` (eq. 4.9) at metered rate `actual_rate`: the one home of
    /// eqs. 4.9–4.11 for every settlement path. Bit-identical to [`bonus`],
    /// which re-solves the suffix chains: the branches and FP operations
    /// mirror [`adjusted_equivalent`] and
    /// [`realized_predecessor_equivalent`], and `eq_time` is
    /// `equivalent_time(&bids.suffix(j))`, a *different* operation order
    /// than `w_bar`'s `solve`.
    #[inline]
    pub fn bonus(&self, actual_rate: f64) -> f64 {
        // eqs. 4.10–4.11: the adjusted equivalent ŵ_j.
        let w_hat_j = if self.terminal {
            actual_rate
        } else if actual_rate >= self.w {
            self.alpha_hat * actual_rate
        } else {
            self.w_bar
        };
        // The realized predecessor equivalent, split fixed by the bids (eq. 2.7).
        let tail = self.eq_time + self.z;
        let alpha_hat_pred = tail / (self.w_pred + tail);
        let front = alpha_hat_pred * self.w_pred;
        let back = (1.0 - alpha_hat_pred) * (self.z + w_hat_j);
        self.w_pred - front.max(back)
    }
}

/// Assemble one processor's breakdown around its bonus `B_j`: valuation
/// (eq. 4.5), the eq. 4.6 zero case, compensation and recompense
/// (eqs. 4.7–4.8), payment `Q_j = C_j + B_j + S` and utility
/// `U_j = V_j + Q_j` (eq. 4.4).
pub(crate) fn breakdown(
    inputs: PaymentInputs,
    bonus: f64,
    solution_bonus: f64,
) -> PaymentBreakdown {
    let v = valuation(inputs.actual_load, inputs.actual_rate);
    if inputs.actual_load <= 0.0 {
        // eq. 4.6: a processor that computed nothing is paid nothing.
        return PaymentBreakdown {
            valuation: v,
            compensation: 0.0,
            recompense: 0.0,
            bonus: 0.0,
            solution_bonus: 0.0,
            payment: 0.0,
            utility: v,
        };
    }
    let e = recompense(inputs.assigned_load, inputs.actual_load, inputs.actual_rate);
    let c = compensation(inputs.assigned_load, inputs.actual_load, inputs.actual_rate);
    let q = c + bonus + solution_bonus;
    PaymentBreakdown {
        valuation: v,
        compensation: c,
        recompense: e,
        bonus,
        solution_bonus,
        payment: q,
        utility: v + q,
    }
}

/// Payment for processor `j` given a precomputed suffix sweep of the bid
/// chain. O(1) per call; bit-identical to [`settle`] (pinned by the
/// payment-parity suite in `mechanism/tests/payment_parity.rs`). Callers
/// settling several agents of one bid profile should compute
/// [`dlt::batch::solve_all_suffixes`] once and use this.
#[inline]
pub fn settle_with(
    sfx: &SuffixSolutions,
    bids: &LinearNetwork,
    j: usize,
    inputs: PaymentInputs,
    solution_bonus: f64,
) -> PaymentBreakdown {
    let b = BonusTerms::from_sweep(sfx, bids, j).bonus(inputs.actual_rate);
    breakdown(inputs, b, solution_bonus)
}

/// Settle every strategic processor of one bid profile in O(m) total: one
/// suffix sweep ([`dlt::batch::solve_all_suffixes`]) replaces the former
/// per-agent `solve_suffix` loop (O(m²)). `inputs[idx]` belongs to
/// `P_{idx+1}`. Every breakdown is bit-identical to calling [`settle`]
/// per agent.
pub fn settle_all(
    bids: &LinearNetwork,
    inputs: &[PaymentInputs],
    solution_bonus: f64,
) -> Vec<PaymentBreakdown> {
    obs::count!("mechanism.payment.settle_all", "m" => bids.last_index());
    assert_eq!(
        inputs.len(),
        bids.last_index(),
        "one PaymentInputs per strategic processor"
    );
    let sfx = batch::solve_all_suffixes(bids);
    inputs
        .iter()
        .enumerate()
        .map(|(idx, inp)| settle_with(&sfx, bids, idx + 1, *inp, solution_bonus))
        .collect()
}

/// Full payment and utility for processor `j` (eqs. 4.4–4.9, plus the
/// optional eq. 4.13 solution bonus).
///
/// This is the scalar per-suffix path (each call re-solves the suffix
/// chains): the reference that the O(m) sweep path ([`settle_all`] /
/// [`settle_with`]) is differentially pinned against. Library code settles
/// through the sweep.
pub fn settle(
    bids: &LinearNetwork,
    j: usize,
    inputs: PaymentInputs,
    solution_bonus: f64,
) -> PaymentBreakdown {
    breakdown(inputs, bonus(bids, j, inputs.actual_rate), solution_bonus)
}

/// Pro-rata settlement for a processor that crash-stopped or stalled after
/// finishing only `completed_load` of its assignment: it is settled as if
/// it had been assigned exactly the work it metered, with no bonus — so it
/// is compensated `completed · w̃` with no recompense. Failure is no-fault
/// (no fine), but the bonus rewards *finishing* the prescribed share, which
/// a failed node did not do. Utility is therefore exactly zero: the node is
/// made whole for its cost, nothing more.
pub fn pro_rata(completed_load: f64, actual_rate: f64) -> PaymentBreakdown {
    obs::count!("mechanism.payment.pro_rata");
    obs::hist!("mechanism.payment.pro_rata_load", completed_load);
    let inputs = PaymentInputs {
        assigned_load: completed_load,
        actual_load: completed_load,
        actual_rate,
    };
    breakdown(inputs, 0.0, 0.0)
}

/// Wage for recovery work re-assigned after a chain splice: exactly the
/// metered cost `load · w̃` of the extra work — recovery is
/// utility-neutral for survivors (no bonus, no recompense; the work was
/// never part of anyone's prescribed share, so there is nothing to
/// improve on and nothing to be overloaded against).
pub fn recovery_wage(load: f64, rate: f64) -> f64 {
    obs::count!("mechanism.payment.recovery_wage");
    obs::hist!("mechanism.payment.recovery_wage_load", load);
    load * rate
}

/// Utility of the obedient root (eq. 4.3): always zero — the mechanism
/// reimburses exactly the cost of the work it performed.
pub fn root_utility(assigned_load: f64, actual_rate: f64) -> f64 {
    let v = -assigned_load * actual_rate;
    let c = assigned_load * actual_rate;
    v + c
}

/// Cross-round payment carry-over: per-installment postings accumulate
/// into one per-job ledger entry per strategic processor, settled once at
/// job completion by [`JobLedger::finalize`].
///
/// Valuation, compensation and recompense are linear in load, so summing
/// the per-installment assigned/actual loads (and load-averaging the
/// metered rate) reproduces the one-shot settlement of the whole job —
/// no processor can gain or lose by the load being split into rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct JobLedger {
    /// Installments posted so far.
    postings: usize,
    /// Σ assigned load per strategic processor (`P_1 …`).
    assigned: Vec<f64>,
    /// Σ actual load per strategic processor.
    actual: Vec<f64>,
    /// Σ actual_load · actual_rate per strategic processor — the metered
    /// cost, from which the load-weighted aggregate rate is recovered.
    cost: Vec<f64>,
}

impl JobLedger {
    /// An empty ledger for `m` strategic processors (`P_1 ..= P_m`).
    pub fn new(m: usize) -> Self {
        Self {
            postings: 0,
            assigned: vec![0.0; m],
            actual: vec![0.0; m],
            cost: vec![0.0; m],
        }
    }

    /// Post one installment: `inputs[idx]` belongs to `P_{idx+1}`, in
    /// absolute job units.
    pub fn post(&mut self, inputs: &[PaymentInputs]) {
        assert_eq!(
            inputs.len(),
            self.assigned.len(),
            "one posting per strategic processor"
        );
        for (idx, inp) in inputs.iter().enumerate() {
            self.assigned[idx] += inp.assigned_load;
            self.actual[idx] += inp.actual_load;
            self.cost[idx] += inp.actual_load * inp.actual_rate;
        }
        self.postings += 1;
    }

    /// Number of installments posted so far.
    pub fn postings(&self) -> usize {
        self.postings
    }

    /// Aggregate [`PaymentInputs`] for `P_j` (absolute job units; the rate
    /// is the load-weighted mean of the posted rates — exact when every
    /// installment ran at the same metered rate).
    pub fn aggregate(&self, bids: &LinearNetwork, j: usize) -> PaymentInputs {
        assert!(j >= 1 && j <= self.assigned.len());
        let idx = j - 1;
        let actual = self.actual[idx];
        let rate = if actual > 0.0 {
            self.cost[idx] / actual
        } else {
            bids.w(j) // no work metered; rate is irrelevant (eq. 4.6 pays 0)
        };
        PaymentInputs {
            assigned_load: self.assigned[idx],
            actual_load: actual,
            actual_rate: rate,
        }
    }

    /// Settle the whole job of size `load` in one entry per strategic
    /// processor, from one suffix sweep of the bid chain.
    ///
    /// The aggregated inputs are in **absolute job units**: valuation,
    /// compensation and recompense are linear in load, so they come
    /// straight from the absolute quantities. The bonus (eq. 4.9) is a
    /// *rate* improvement — it prices the predecessor's equivalent
    /// processing time per unit load — so a job of size `load` pays
    /// `B_j · load`. With `load = 1` and fractional inputs this is exactly
    /// [`settle`] (multiplying the bonus by 1.0 is exact).
    pub fn finalize(
        &self,
        bids: &LinearNetwork,
        load: f64,
        solution_bonus: f64,
    ) -> Vec<PaymentBreakdown> {
        obs::count!("mechanism.payment.job_finalize", "rounds" => self.postings);
        let sfx = batch::solve_all_suffixes(bids);
        (1..=self.assigned.len())
            .map(|j| {
                let inputs = self.aggregate(bids, j);
                let b = BonusTerms::from_sweep(&sfx, bids, j).bonus(inputs.actual_rate) * load;
                breakdown(inputs, b, solution_bonus)
            })
            .collect()
    }
}

/// Utility processor `P_j` collects across a multi-job batch when the
/// chain's declared profile is `bids`, its true unit processing time is
/// `true_rate`, and jobs of sizes `loads` each ship in `rounds` uniform
/// installments.
///
/// Allocations follow the bids (the mechanism prescribes them); `P_j`
/// executes its share at its true rate while every other processor runs
/// as bid. Each job's installment postings flow through a [`JobLedger`]
/// and settle at completion — this is the exact path the `svc::jobs`
/// scheduler takes, so sweeping `bids.w(j)` over misreports with this
/// function is the jobs-mode strategyproofness check: per unit load the
/// utility is the eq. 4.9 bonus, whose maximum is at the truthful bid, and
/// a batch utility is a positive combination of unit utilities — so no
/// misreport can profit across the batch.
pub fn jobs_batch_utility(
    bids: &LinearNetwork,
    j: usize,
    true_rate: f64,
    loads: &[f64],
    rounds: usize,
) -> f64 {
    assert!(rounds >= 1);
    let m = bids.last_index();
    assert!(j >= 1 && j <= m);
    let sol = linear::solve(bids);
    let share = 1.0 / rounds as f64;
    let mut total = 0.0;
    for &load in loads {
        let mut ledger = JobLedger::new(m);
        for _ in 0..rounds {
            let postings: Vec<PaymentInputs> = (1..=m)
                .map(|i| {
                    let amount = sol.alloc.alpha(i) * share * load;
                    PaymentInputs {
                        assigned_load: amount,
                        actual_load: amount,
                        actual_rate: if i == j { true_rate } else { bids.w(i) },
                    }
                })
                .collect();
            ledger.post(&postings);
        }
        total += ledger.finalize(bids, load, 0.0)[j - 1].utility;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bids() -> LinearNetwork {
        LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7])
    }

    #[test]
    fn valuation_is_cost() {
        assert_eq!(valuation(0.5, 2.0), -1.0);
        assert_eq!(valuation(0.0, 2.0), 0.0);
    }

    #[test]
    fn recompense_only_for_overload() {
        assert_eq!(recompense(0.3, 0.3, 2.0), 0.0);
        assert_eq!(recompense(0.3, 0.5, 2.0), 0.4);
        assert_eq!(
            recompense(0.3, 0.2, 2.0),
            0.0,
            "underload earns nothing extra"
        );
    }

    #[test]
    fn compensation_covers_assigned_plus_extra() {
        // α = 0.3, α̃ = 0.5, w̃ = 2 → C = 0.6 + 0.4 = 1.0 = α̃ w̃
        assert!((compensation(0.3, 0.5, 2.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn compliant_utility_is_pure_bonus() {
        // When α̃ = α and w̃ = w (bid), V + C = 0 so U = B.
        let net = bids();
        for j in 1..net.len() {
            let sol = dlt::linear::solve(&net);
            let inputs = PaymentInputs {
                assigned_load: sol.alloc.alpha(j),
                actual_load: sol.alloc.alpha(j),
                actual_rate: net.w(j),
            };
            let p = settle(&net, j, inputs, 0.0);
            assert!((p.utility - p.bonus).abs() < 1e-12, "P{j}");
        }
    }

    #[test]
    fn truthful_bonus_equals_marginal_improvement() {
        // At truthful full-speed conduct, ŵ_j = w̄_j and the realized
        // equivalent is exactly w̄_{j-1}, so B_j = w_{j-1} − w̄_{j-1} ≥ 0.
        let net = bids();
        let sol = dlt::linear::solve(&net);
        for j in 1..net.len() {
            let b = bonus(&net, j, net.w(j));
            let expected = net.w(j - 1) - sol.equivalent[j - 1];
            assert!((b - expected).abs() < 1e-12, "P{j}: {b} vs {expected}");
            assert!(b >= 0.0);
        }
    }

    #[test]
    fn adjusted_equivalent_terminal_is_actual() {
        let net = bids();
        let m = net.last_index();
        assert_eq!(adjusted_equivalent(&net, m, 7.5), 7.5);
    }

    #[test]
    fn adjusted_equivalent_fast_interior_unchanged() {
        let net = bids();
        let w_bar_1 = dlt::linear::equivalent_time(&net.suffix(1));
        // executing faster than bid leaves the equivalent at the bid value
        assert!((adjusted_equivalent(&net, 1, net.w(1) * 0.5) - w_bar_1).abs() < 1e-12);
    }

    #[test]
    fn adjusted_equivalent_slow_interior_grows() {
        let net = bids();
        let w_bar_1 = dlt::linear::equivalent_time(&net.suffix(1));
        let adj = adjusted_equivalent(&net, 1, net.w(1) * 2.0);
        assert!(adj > w_bar_1, "running slower must worsen the equivalent");
    }

    #[test]
    fn slow_execution_reduces_bonus() {
        let net = bids();
        for j in 1..net.len() {
            let honest = bonus(&net, j, net.w(j));
            let slow = bonus(&net, j, net.w(j) * 3.0);
            assert!(
                slow < honest - 1e-12,
                "P{j}: slow {slow} vs honest {honest}"
            );
        }
    }

    #[test]
    fn fast_execution_does_not_raise_bonus() {
        let net = bids();
        for j in 1..net.len() - 1 {
            let honest = bonus(&net, j, net.w(j));
            let fast = bonus(&net, j, net.w(j) * 0.5);
            assert!(
                (fast - honest).abs() < 1e-12,
                "interior P{j} cannot gain by overdelivering"
            );
        }
    }

    #[test]
    fn zero_actual_load_pays_nothing() {
        let net = bids();
        let p = settle(
            &net,
            1,
            PaymentInputs {
                assigned_load: 0.2,
                actual_load: 0.0,
                actual_rate: 2.0,
            },
            0.0,
        );
        assert_eq!(p.payment, 0.0);
        assert_eq!(p.utility, 0.0);
    }

    #[test]
    fn overloaded_victim_is_made_whole() {
        // Extra work is fully reimbursed: utility unchanged by the overload.
        let net = bids();
        let sol = dlt::linear::solve(&net);
        let j = 2;
        let base = PaymentInputs {
            assigned_load: sol.alloc.alpha(j),
            actual_load: sol.alloc.alpha(j),
            actual_rate: net.w(j),
        };
        let overloaded = PaymentInputs {
            actual_load: sol.alloc.alpha(j) + 0.1,
            ..base
        };
        let u0 = settle(&net, j, base, 0.0).utility;
        let u1 = settle(&net, j, overloaded, 0.0).utility;
        assert!(
            (u0 - u1).abs() < 1e-12,
            "recompense must neutralize the overload"
        );
    }

    #[test]
    fn solution_bonus_adds_linearly() {
        let net = bids();
        let sol = dlt::linear::solve(&net);
        let inputs = PaymentInputs {
            assigned_load: sol.alloc.alpha(1),
            actual_load: sol.alloc.alpha(1),
            actual_rate: net.w(1),
        };
        let without = settle(&net, 1, inputs, 0.0);
        let with = settle(&net, 1, inputs, 0.25);
        assert!((with.utility - without.utility - 0.25).abs() < 1e-15);
    }

    #[test]
    fn pro_rata_makes_failed_node_whole_without_bonus() {
        let p = pro_rata(0.3, 2.0);
        assert_eq!(p.payment, 0.6);
        assert_eq!(p.bonus, 0.0);
        assert_eq!(p.recompense, 0.0);
        assert!(
            p.utility.abs() < 1e-15,
            "exact cost reimbursement, nothing more"
        );
    }

    #[test]
    fn pro_rata_is_worse_than_finishing() {
        // A node that finishes earns its bonus; one that fails earns zero
        // utility — so failing is never preferable, even without a fine.
        let net = bids();
        let sol = dlt::linear::solve(&net);
        for j in 1..net.len() {
            let full = settle(
                &net,
                j,
                PaymentInputs {
                    assigned_load: sol.alloc.alpha(j),
                    actual_load: sol.alloc.alpha(j),
                    actual_rate: net.w(j),
                },
                0.0,
            );
            let failed = pro_rata(0.5 * sol.alloc.alpha(j), net.w(j));
            assert!(full.utility >= failed.utility - 1e-15, "P{j}");
        }
    }

    #[test]
    fn pro_rata_zero_progress_pays_nothing() {
        let p = pro_rata(0.0, 3.0);
        assert_eq!(p.payment, 0.0);
        assert_eq!(p.utility, 0.0);
    }

    #[test]
    fn root_utility_is_zero() {
        assert_eq!(root_utility(0.4, 1.0), 0.0);
        assert_eq!(root_utility(0.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "strategic")]
    fn bonus_undefined_for_root() {
        adjusted_equivalent(&bids(), 0, 1.0);
    }

    /// Truthful inputs for every strategic processor, scaled to a job of
    /// size `load`.
    fn job_inputs(net: &LinearNetwork, load: f64) -> Vec<PaymentInputs> {
        let sol = dlt::linear::solve(net);
        (1..net.len())
            .map(|j| PaymentInputs {
                assigned_load: sol.alloc.alpha(j) * load,
                actual_load: sol.alloc.alpha(j) * load,
                actual_rate: net.w(j),
            })
            .collect()
    }

    fn finalize_one_shot(net: &LinearNetwork, load: f64) -> Vec<PaymentBreakdown> {
        let mut ledger = JobLedger::new(net.last_index());
        ledger.post(&job_inputs(net, load));
        ledger.finalize(net, load, 0.0)
    }

    #[test]
    fn finalize_unit_load_equals_settle() {
        let net = bids();
        let inputs = job_inputs(&net, 1.0);
        for (j, got) in (1..).zip(finalize_one_shot(&net, 1.0)) {
            let want = settle(&net, j, inputs[j - 1], 0.0);
            assert_eq!(got, want, "P{j}: unit-load job settlement must be settle");
        }
    }

    #[test]
    fn finalize_scales_linearly_in_load() {
        let net = bids();
        let load = 2.5;
        let unit = job_inputs(&net, 1.0);
        for (j, scaled) in (1..).zip(finalize_one_shot(&net, load)) {
            let u1 = settle(&net, j, unit[j - 1], 0.0).utility;
            let ul = scaled.utility;
            assert!((ul - u1 * load).abs() < 1e-9, "P{j}: {ul} vs {}", u1 * load);
        }
    }

    #[test]
    fn ledger_finalize_matches_one_shot_settlement() {
        // Posting k uniform installments and settling the aggregate must
        // reproduce settling the whole job in one entry.
        let net = bids();
        let m = net.last_index();
        let load = 1.75;
        let one_shot = finalize_one_shot(&net, load);
        for k in [1usize, 3, 8] {
            let mut ledger = JobLedger::new(m);
            let share = 1.0 / k as f64;
            let unit = job_inputs(&net, share * load);
            for _ in 0..k {
                ledger.post(&unit);
            }
            assert_eq!(ledger.postings(), k);
            let settled = ledger.finalize(&net, load, 0.0);
            for (j, (s, o)) in (1..).zip(settled.iter().zip(&one_shot)) {
                assert!(
                    (s.utility - o.utility).abs() < 1e-9
                        && (s.payment - o.payment).abs() < 1e-9
                        && (s.bonus - o.bonus).abs() < 1e-9,
                    "P{j} k={k}: {s:?} vs {o:?}"
                );
            }
        }
    }

    #[test]
    fn ledger_zero_work_pays_nothing() {
        let net = bids();
        let m = net.last_index();
        let mut ledger = JobLedger::new(m);
        ledger.post(&vec![
            PaymentInputs {
                assigned_load: 0.0,
                actual_load: 0.0,
                actual_rate: 1.0,
            };
            m
        ]);
        for p in ledger.finalize(&net, 1.0, 0.0) {
            assert_eq!(p.payment, 0.0);
            assert_eq!(p.utility, 0.0);
        }
    }

    #[test]
    fn jobs_batch_truthful_bid_is_dominant() {
        // E2-style sweep through the job path: no misreported bid may beat
        // the truthful one across a multi-job batch.
        let truth = bids();
        let loads = [1.0, 0.5, 2.0];
        for j in 1..truth.len() {
            let true_rate = truth.w(j);
            let honest = payment_sweep_utility(&truth, j, true_rate, &loads);
            for factor in [0.25, 0.5, 0.8, 1.25, 2.0, 4.0] {
                let mut w = truth.rates_w().to_vec();
                w[j] = true_rate * factor;
                let lied = LinearNetwork::from_rates(&w, &truth.rates_z());
                let misreported = payment_sweep_utility(&lied, j, true_rate, &loads);
                assert!(
                    misreported <= honest + 1e-9,
                    "P{j} ×{factor}: misreport {misreported} vs honest {honest}"
                );
            }
        }
    }

    fn payment_sweep_utility(
        declared: &LinearNetwork,
        j: usize,
        true_rate: f64,
        loads: &[f64],
    ) -> f64 {
        jobs_batch_utility(declared, j, true_rate, loads, 4)
    }
}

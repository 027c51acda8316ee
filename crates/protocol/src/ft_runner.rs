//! Fault-tolerant protocol execution on chains: run a [`Scenario`] under
//! an injected [`FaultPlan`] and recover from cascading and simultaneous
//! failures via **chain splicing**.
//!
//! The recovery protocol is written once, for chains and trees, in the
//! crate's recovery engine (`ft_engine`, whose module doc describes it).
//! This module is the engine's chain topology: a dead `P_k` is cut by
//! fusing the links `z_k` and `z_{k+1}` into one store-and-forward hop
//! ([`dlt::linear::splice`]), a node's parent and first child are its
//! predecessor and successor, residuals are re-solved on the spliced bid
//! chain by [`dlt::linear::solve`], and silent Phase IV nodes are
//! re-settled by [`mechanism::payment::settle_with`] from one suffix sweep
//! of the bid chain.
//!
//! ### Determinism
//! Given the same `(Scenario, FaultPlan)` pair the report is bit-identical
//! — faults are part of the experiment description, not sampled during the
//! run. On single-failure plans this engine is additionally byte-identical
//! to the PR 1 single-failure path, frozen as
//! [`crate::ft_reference::run_with_faults_single`] and enforced by the
//! `multi_fault` differential suite.

use crate::crypto::NodeId;
use crate::faults::FaultPlan;
pub use crate::ft_engine::FtError;
use crate::ft_engine::{self, BaseRun, Topology};
use crate::ledger::Ledger;
use crate::root::ArbitrationRecord;
use crate::runner::{try_run, RunReport, Scenario, ScenarioError};
use crate::transcript::Transcript;
use dlt::model::LinearNetwork;
use dlt::{batch, linear};
use mechanism::payment::{self, PaymentInputs};

/// Everything a fault-tolerant run produced. All per-node vectors use the
/// **original** chain indexing (`0` = root, length `m + 1` or `m`), even
/// when recovery ran on a spliced chain.
#[derive(Debug, Clone, PartialEq)]
pub struct FtRunReport {
    /// Every crash-stopped node, in detection order.
    pub crashed: Vec<NodeId>,
    /// Every stalled (alive but unproductive) node, in detection order.
    pub stalled: Vec<NodeId>,
    /// Every detection event: `(detector, suspect, phase)`.
    pub detected: Vec<(NodeId, NodeId, u8)>,
    /// Load prescribed per node by the (possibly re-run) Phase II.
    pub assigned: Vec<f64>,
    /// Load each node actually finished, including recovery work. Sums to
    /// the unit workload whenever recovery succeeded.
    pub completed: Vec<f64>,
    /// Total residual load the recovery rounds re-assigned, counted with
    /// multiplicity: a unit that was re-assigned and then orphaned again by
    /// a crash-during-recovery counts once per round it traveled. 0 when
    /// nothing halted mid-computation.
    pub recovered_load: f64,
    /// Extra load each node received from recovery **and actually
    /// performed** (a node that died mid-recovery only counts the fraction
    /// it finished).
    pub recovery_assigned: Vec<f64>,
    /// Realized makespan including detection and recovery overhead.
    pub makespan: f64,
    /// Makespan of the same scenario with no faults (for overhead plots).
    pub base_makespan: f64,
    /// All arbitration records (timeout complaints included), in order.
    pub arbitrations: Vec<ArbitrationRecord>,
    /// The full ledger, renumbered to original indices.
    pub ledger: Ledger,
    /// Net utility of every strategic processor (`net_utilities[j-1]` is
    /// `P_j`'s), original indexing; a halted node's reflects pro-rata
    /// settlement.
    pub net_utilities: Vec<f64>,
    /// The transcript: fault entries plus the protocol messages of the run
    /// that executed (spliced indices for pre-distribution halts — see
    /// `splice_map`).
    pub transcript: Transcript,
    /// `splice_map[old] = Some(new)` maps original to post-splice indices;
    /// `None` marks a removed node. Composed across nested splices for
    /// cascading pre-distribution crashes. Identity when nothing was
    /// spliced before distribution.
    pub splice_map: Vec<Option<usize>>,
    /// Discrete events the execution simulator processed.
    pub events: u64,
    /// Deterministic per-run phase timeline (original chain indexing):
    /// base-run work, detection-timeout waits, the splice instants and
    /// recovery spans — nested recovery included — on the same virtual
    /// clock as `makespan`.
    pub timeline: obs::PhaseTimeline,
}

impl From<RunReport> for BaseRun {
    fn from(r: RunReport) -> Self {
        BaseRun {
            bids: r.bids,
            actual_rates: r.actual_rates,
            assigned: r.assigned,
            retained: r.retained,
            makespan: r.makespan,
            arbitrations: r.arbitrations,
            ledger: r.ledger,
            net_utilities: r.net_utilities,
            transcript: r.transcript,
            events: r.events,
            timeline: r.timeline,
        }
    }
}

impl Scenario {
    /// The chain with `rates` at the strategic processors.
    fn network(&self, rates: &[f64]) -> LinearNetwork {
        let mut w = vec![self.root_rate];
        w.extend_from_slice(rates);
        LinearNetwork::from_rates(&w, &self.link_rates)
    }
}

impl Topology for Scenario {
    type BidNet = LinearNetwork;

    const TIMES_NODES: bool = true;

    fn root_rate(&self) -> f64 {
        self.root_rate
    }

    fn parent(&self, k: NodeId) -> NodeId {
        k - 1
    }

    fn first_child(&self, k: NodeId) -> Option<NodeId> {
        (k < self.num_agents()).then_some(k + 1)
    }

    fn base_run(&self) -> Result<BaseRun, ScenarioError> {
        try_run(self).map(BaseRun::from)
    }

    fn without(&self, k: NodeId) -> (Self, Vec<Option<usize>>) {
        let spliced = linear::splice(&self.network(&self.true_rates), k);
        let mut deviations = self.deviations.clone();
        deviations.remove(k - 1);
        let survivors = Scenario {
            true_rates: spliced.rates_w()[1..].to_vec(),
            link_rates: spliced.rates_z(),
            deviations,
            ..*self
        };
        let map = (0..=self.num_agents())
            .map(|i| (i != k).then_some(if i < k { i } else { i - 1 }))
            .collect();
        (survivors, map)
    }

    fn bid_net(&self, base: &BaseRun) -> LinearNetwork {
        self.network(&base.bids)
    }

    fn splice_bid_net(net: &mut LinearNetwork, orig_of: &mut Vec<usize>, at: usize) {
        *net = linear::splice(net, at);
        orig_of.remove(at);
    }

    fn allocation(net: &LinearNetwork) -> (f64, Vec<f64>) {
        if net.len() == 1 {
            (net.w(0), vec![1.0])
        } else {
            let sol = linear::solve(net);
            (sol.makespan(), sol.alloc.fractions().to_vec())
        }
    }

    fn billing<'a>(&'a self, base: &'a BaseRun) -> impl Fn(NodeId) -> (f64, f64) + 'a {
        let bid_net = self.bid_net(base);
        let sfx = batch::solve_all_suffixes(&bid_net);
        let s = if self.solution_found {
            self.solution_bonus
        } else {
            0.0
        };
        move |k| {
            let honest = payment::settle_with(
                &sfx,
                &bid_net,
                k,
                PaymentInputs {
                    assigned_load: base.assigned[k],
                    actual_load: base.retained[k],
                    actual_rate: base.actual_rates[k - 1],
                },
                s,
            );
            (honest.payment, honest.valuation)
        }
    }

    /// Valuation recovered from the base report (or from the Phase IV
    /// re-settlement), less the recovery work's cost.
    fn valuation(base: &BaseRun, j: NodeId, billed: Option<f64>, recovery: f64) -> f64 {
        billed.unwrap_or_else(|| base.net_utilities[j - 1] - base.ledger.net(j))
            - recovery * base.actual_rates[j - 1]
    }
}

/// Execute `scenario` under `plan`, recovering from the injected faults.
pub fn run_with_faults(scenario: &Scenario, plan: &FaultPlan) -> Result<FtRunReport, FtError> {
    scenario.validate()?;
    let m = scenario.num_agents();
    plan.validate(m)?;
    let _ft_span = obs::span!("protocol.ft.run", "m" => m, "timeout" => plan.detection_timeout);
    ft_engine::run(scenario, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deviation::Deviation;
    use crate::faults::{FaultError, FaultKind};
    use crate::ledger::EntryKind;
    use mechanism::FineSchedule;

    fn scenario() -> Scenario {
        Scenario::honest(1.0, vec![2.0, 0.5, 4.0], vec![0.2, 0.1, 0.7])
    }

    /// Honest chains of 3–8 total nodes with heterogeneous rates.
    fn chains() -> Vec<Scenario> {
        (2..=7usize)
            .map(|m| {
                let true_rates: Vec<f64> =
                    (0..m).map(|j| 0.5 + 0.9 * ((j * 7 % 5) as f64)).collect();
                let link_rates: Vec<f64> =
                    (0..m).map(|j| 0.1 + 0.15 * ((j * 3 % 4) as f64)).collect();
                Scenario::honest(1.0, true_rates, link_rates)
            })
            .collect()
    }

    #[test]
    fn empty_plan_matches_plain_run() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let ft = run_with_faults(&s, &FaultPlan::none()).unwrap();
        assert_eq!(ft.makespan, plain.makespan);
        assert_eq!(ft.net_utilities, plain.net_utilities);
        assert_eq!(ft.completed, plain.retained);
        assert!(ft.crashed.is_empty() && ft.stalled.is_empty());
        assert_eq!(ft.overhead(), 0.0);
    }

    #[test]
    fn any_single_crash_recovers_on_every_chain() {
        // The acceptance sweep: every node, every phase, several progress
        // points, chains of 3–8 nodes — no panic, load conserved, no
        // honest survivor fined.
        for s in chains() {
            let m = s.num_agents();
            for k in 1..=m {
                for phase in 1..=4u8 {
                    for progress in [0.0, 0.37, 1.0] {
                        let plan = FaultPlan::crash(k, phase, progress);
                        let ft = run_with_faults(&s, &plan).unwrap();
                        assert_eq!(ft.crashed, vec![k]);
                        assert!(
                            ft.load_conserved(1e-9),
                            "m={m} k={k} phase={phase} p={progress}: completed {:?}",
                            ft.completed
                        );
                        assert!(ft.makespan >= ft.base_makespan, "recovery cannot be free");
                        for j in 1..=m {
                            assert!(
                                ft.fines_paid(j) <= 1e-12,
                                "honest P{j} fined after crash of P{k} in phase {phase}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn crash_reports_are_deterministic() {
        for s in chains().into_iter().take(3) {
            for seed in 0..10u64 {
                let plan = FaultPlan::seeded(seed, s.num_agents());
                let a = run_with_faults(&s, &plan).unwrap();
                let b = run_with_faults(&s, &plan).unwrap();
                assert_eq!(a, b, "seed {seed}");
            }
        }
    }

    #[test]
    fn phase3_crash_pays_pro_rata_and_keeps_survivors_whole() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let ft = run_with_faults(&s, &FaultPlan::crash(2, 3, 0.4)).unwrap();
        // The crashed node is made whole for its partial work: utility 0.
        assert!(
            ft.utility(2).abs() < 1e-9,
            "pro-rata utility {}",
            ft.utility(2)
        );
        // It completed exactly 40% of its share.
        assert!((ft.completed[2] - 0.4 * plain.retained[2]).abs() < 1e-12);
        // Survivors' recovery work is compensated at cost: net unchanged.
        for j in [1usize, 3] {
            assert!(
                (ft.utility(j) - plain.utility(j)).abs() < 1e-9,
                "P{j}: {} vs {}",
                ft.utility(j),
                plain.utility(j)
            );
        }
        // The residual was spread over root and survivors.
        assert!((ft.recovered_load - 0.6 * plain.retained[2]).abs() < 1e-12);
        let spread: f64 = ft.recovery_assigned.iter().sum();
        assert!((spread - ft.recovered_load).abs() < 1e-12);
        assert_eq!(
            ft.recovery_assigned[2], 0.0,
            "the dead node gets nothing back"
        );
    }

    #[test]
    fn stall_triggers_recovery_without_conviction() {
        let s = scenario();
        let ft = run_with_faults(&s, &FaultPlan::stall(2, 0.25)).unwrap();
        assert_eq!(ft.stalled, vec![2]);
        assert!(ft.crashed.is_empty());
        assert!(ft.load_conserved(1e-9));
        // The liveness probe finds the stalled node alive: complaint
        // unsubstantiated, but with zero fine for the honest reporter too.
        let timeout_arb = ft
            .arbitrations
            .iter()
            .find(|a| a.complaint == "unresponsive")
            .unwrap();
        assert!(!timeout_arb.substantiated);
        assert_eq!(timeout_arb.fine, 0.0);
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12, "P{j} fined for a stall");
        }
    }

    #[test]
    fn early_crash_reallocates_everything_to_survivors() {
        let s = scenario();
        let ft = run_with_faults(&s, &FaultPlan::crash(2, 1, 0.0)).unwrap();
        assert!(ft.load_conserved(1e-9));
        assert_eq!(ft.completed[2], 0.0);
        assert_eq!(ft.splice_map, vec![Some(0), Some(1), None, Some(2)]);
        assert!(
            ft.utility(2).abs() < 1e-15,
            "a node that never started earns nothing"
        );
        // The survivor chain's allocation matches solving the spliced
        // true-rate network directly.
        let spliced = linear::splice(
            &LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]),
            2,
        );
        let sol = linear::solve(&spliced);
        assert!((ft.completed[0] - sol.alloc.alpha(0)).abs() < 1e-12);
        assert!((ft.completed[1] - sol.alloc.alpha(1)).abs() < 1e-12);
        assert!((ft.completed[3] - sol.alloc.alpha(2)).abs() < 1e-12);
    }

    #[test]
    fn terminal_node_crash_truncates_the_chain() {
        let s = scenario();
        for phase in 1..=4u8 {
            let ft = run_with_faults(&s, &FaultPlan::crash(3, phase, 0.5)).unwrap();
            assert!(ft.load_conserved(1e-9), "phase {phase}");
            for j in 1..=3 {
                assert!(ft.fines_paid(j) <= 1e-12);
            }
        }
    }

    #[test]
    fn single_agent_crash_leaves_the_root_to_compute_alone() {
        let s = Scenario::honest(1.0, vec![1.0], vec![1.0]);
        let ft = run_with_faults(&s, &FaultPlan::crash(1, 1, 0.0)).unwrap();
        assert!(ft.load_conserved(1e-12));
        assert_eq!(ft.completed[0], 1.0);
        assert!((ft.makespan - (FaultPlan::DEFAULT_TIMEOUT + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn phase4_crash_settles_from_the_roots_recomputation() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let ft = run_with_faults(&s, &FaultPlan::crash(1, 4, 0.0)).unwrap();
        // All work was done; the honest node is settled exactly as if it
        // had billed, so its utility survives its crash.
        assert!((ft.utility(1) - plain.utility(1)).abs() < 1e-9);
        assert!((ft.makespan - plain.makespan - FaultPlan::DEFAULT_TIMEOUT).abs() < 1e-12);
        assert!(ft.load_conserved(1e-9));
    }

    #[test]
    fn phase4_crash_voids_an_overcharged_bill_without_the_audit_fine() {
        // An overcharger that crashes before billing never submits the
        // inflated bill: the root settles honestly, no fine, no profit.
        let s = scenario()
            .with_fine(FineSchedule::new(15.0, 1.0))
            .with_deviation(2, Deviation::Overcharge { amount: 0.5 });
        let ft = run_with_faults(&s, &FaultPlan::crash(2, 4, 0.0)).unwrap();
        assert_eq!(ft.fines_paid(2), 0.0, "no bill, no overcharge, no fine");
        let honest = run_with_faults(&scenario(), &FaultPlan::crash(2, 4, 0.0)).unwrap();
        assert!(
            (ft.utility(2) - honest.utility(2)).abs() < 1e-9,
            "crash voids the overcharge"
        );
    }

    #[test]
    fn deviant_that_crashes_keeps_its_earlier_fines() {
        // P2 lies in Phase I (wrong equivalent), is convicted in Phase II,
        // then crashes in Phase III: the fine stands, the pro-rata payment
        // only covers its metered cost.
        let s = scenario().with_deviation(2, Deviation::WrongEquivalent { factor: 0.6 });
        let ft = run_with_faults(&s, &FaultPlan::crash(2, 3, 0.5)).unwrap();
        assert!(
            ft.fines_paid(2) > 0.0,
            "the Phase II conviction survives the crash"
        );
        assert!(
            ft.utility(2) < -1e-9,
            "fined deviant nets negative even with pro-rata pay"
        );
        assert!(ft.load_conserved(1e-9));
        // The honest reporter's reward also stands.
        assert!(ft.ledger.net_of(3, EntryKind::Reward) > 0.0);
    }

    #[test]
    fn message_faults_add_overhead_but_never_fines() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let plan = FaultPlan::none()
            .with_event(1, FaultKind::DropMessage { phase: 1 })
            .with_event(2, FaultKind::CorruptMessage { phase: 2 })
            .with_event(
                3,
                FaultKind::DelayMessage {
                    phase: 4,
                    delay: 0.02,
                },
            );
        let ft = run_with_faults(&s, &plan).unwrap();
        let expected = plain.makespan + 2.0 * FaultPlan::DEFAULT_TIMEOUT + 0.02;
        assert!((ft.makespan - expected).abs() < 1e-12);
        assert_eq!(ft.detected.len(), 2, "drop and corruption each time out");
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12, "P{j} fined for a network fault");
            assert!((ft.utility(j) - plain.utility(j)).abs() < 1e-9);
        }
        assert!(ft.load_conserved(1e-9));
    }

    #[test]
    fn corrupted_messages_leave_no_replay_findings() {
        use crate::crypto::Registry;
        use crate::lambda::BlockMint;
        let s = scenario();
        let plan = FaultPlan::none().with_event(2, FaultKind::CorruptMessage { phase: 2 });
        let ft = run_with_faults(&s, &plan).unwrap();
        let registry = Registry::new(4, s.seed);
        let mint = BlockMint::new(s.blocks, s.seed ^ 0x5EED_B10C);
        let findings = crate::transcript::replay(&ft.transcript, &registry, &mint);
        assert!(
            findings.is_empty(),
            "line noise incriminated someone: {findings:?}"
        );
    }

    #[test]
    fn seeded_fault_sweeps_hold_the_invariants() {
        for s in chains() {
            let m = s.num_agents();
            for seed in 0..20u64 {
                let plan = FaultPlan::seeded(seed, m);
                let ft = run_with_faults(&s, &plan).unwrap();
                assert!(ft.load_conserved(1e-9), "m={m} seed={seed} plan {plan:?}");
                for j in 1..=m {
                    assert!(
                        ft.fines_paid(j) <= 1e-12,
                        "m={m} seed={seed}: honest P{j} fined under {plan:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_bad_plans_and_scenarios() {
        let s = scenario();
        assert!(matches!(
            run_with_faults(&s, &FaultPlan::crash(9, 1, 0.0)),
            Err(FtError::Fault(FaultError::NodeOutOfRange { .. }))
        ));
        let mut bad = scenario();
        bad.true_rates[0] = -1.0;
        assert!(matches!(
            run_with_faults(&bad, &FaultPlan::none()),
            Err(FtError::Scenario(ScenarioError::BadRate { .. }))
        ));
    }

    // ---- cascading and simultaneous failures ----

    #[test]
    fn two_simultaneous_phase1_crashes_splice_twice() {
        let s = Scenario::honest(1.0, vec![2.0, 0.5, 4.0, 1.5], vec![0.2, 0.1, 0.7, 0.3]);
        let plan = FaultPlan::crash(2, 1, 0.0).with_event(
            3,
            FaultKind::Crash {
                phase: 1,
                progress: 0.0,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![2, 3]);
        assert!(ft.load_conserved(1e-9));
        assert_eq!(
            ft.splice_map,
            vec![Some(0), Some(1), None, None, Some(2)],
            "both dead nodes cut, survivors renumbered through both splices"
        );
        assert_eq!(ft.completed[2], 0.0);
        assert_eq!(ft.completed[3], 0.0);
        for j in 1..=4 {
            assert!(ft.fines_paid(j) <= 1e-12, "honest P{j} fined");
        }
        // The doubly-spliced true-rate chain solved directly matches.
        let once = linear::splice(
            &LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0, 1.5], &[0.2, 0.1, 0.7, 0.3]),
            2,
        );
        let twice = linear::splice(&once, 2);
        let sol = linear::solve(&twice);
        assert!((ft.completed[0] - sol.alloc.alpha(0)).abs() < 1e-12);
        assert!((ft.completed[1] - sol.alloc.alpha(1)).abs() < 1e-12);
        assert!((ft.completed[4] - sol.alloc.alpha(2)).abs() < 1e-12);
    }

    #[test]
    fn crash_during_recovery_settles_on_the_recovery_fraction() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let plan = FaultPlan::crash(2, 3, 0.5).with_event(
            3,
            FaultKind::Crash {
                phase: 3,
                progress: 0.25,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![2, 3]);
        assert!(ft.load_conserved(1e-9));
        // P3 finished its whole base share plus a quarter of its recovery
        // assignment before dying.
        assert!(
            ft.completed[3] >= plain.retained[3] - 1e-12,
            "the base share was finished before the recovery round"
        );
        // Both casualties are honest: pro-rata settlement is
        // utility-neutral for them.
        assert!(ft.utility(2).abs() < 1e-9, "P2 utility {}", ft.utility(2));
        assert!(ft.utility(3).abs() < 1e-9, "P3 utility {}", ft.utility(3));
        // The pro-rata payment covers exactly what P3 completed — base
        // share plus the recovery fraction, not its original assignment.
        assert!(
            (ft.ledger.net_of(3, EntryKind::Payment) - ft.completed[3] * plain.actual_rates[2])
                .abs()
                < 1e-9
        );
        // Two recovery rounds: two splice marks and two recovery entries.
        assert_eq!(ft.timeline.of(obs::TimelineKind::Splice).count(), 2);
        assert_eq!(ft.detected.len(), 2);
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12, "honest P{j} fined");
        }
    }

    #[test]
    fn all_strategic_nodes_crashing_leaves_the_root_alone() {
        let s = scenario();
        let plan = FaultPlan::crash(1, 3, 0.5)
            .with_event(
                2,
                FaultKind::Crash {
                    phase: 3,
                    progress: 0.5,
                },
            )
            .with_event(
                3,
                FaultKind::Crash {
                    phase: 3,
                    progress: 0.5,
                },
            );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![1, 2, 3]);
        assert!(
            ft.load_conserved(1e-9),
            "the root absorbs the final residual: {:?}",
            ft.completed
        );
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12);
            assert!(ft.utility(j).abs() < 1e-9, "P{j} settled pro rata");
        }
        assert_eq!(ft.timeline.of(obs::TimelineKind::Splice).count(), 3);
    }

    #[test]
    fn simultaneous_phase4_crashes_share_one_timeout() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let plan = FaultPlan::crash(1, 4, 0.0).with_event(
            3,
            FaultKind::Crash {
                phase: 4,
                progress: 0.0,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![1, 3]);
        assert!(
            (ft.makespan - plain.makespan - FaultPlan::DEFAULT_TIMEOUT).abs() < 1e-12,
            "billing timers fire concurrently: one timeout, not two"
        );
        // Both are settled as if they had billed.
        assert!((ft.utility(1) - plain.utility(1)).abs() < 1e-9);
        assert!((ft.utility(3) - plain.utility(3)).abs() < 1e-9);
        assert!(ft.load_conserved(1e-9));
        assert_eq!(
            ft.arbitrations
                .iter()
                .filter(|a| a.complaint == "unresponsive" && a.substantiated)
                .count(),
            2,
            "both probes resolved in the concurrent batch"
        );
    }

    #[test]
    fn stall_then_phase4_crash_mixes_probe_outcomes() {
        let s = scenario();
        let plan = FaultPlan::stall(1, 0.3).with_event(
            3,
            FaultKind::Crash {
                phase: 4,
                progress: 0.0,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.stalled, vec![1]);
        assert_eq!(ft.crashed, vec![3]);
        assert!(ft.load_conserved(1e-9));
        let outcomes: Vec<bool> = ft
            .arbitrations
            .iter()
            .filter(|a| a.complaint == "unresponsive")
            .map(|a| a.substantiated)
            .collect();
        assert_eq!(
            outcomes,
            vec![false, true],
            "the stalled node answers its probe; the crashed one does not"
        );
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12);
        }
    }

    #[test]
    fn early_crash_followed_by_mid_computation_crash_composes_splices() {
        // P1 dies before distribution; P3 dies during the survivor re-run's
        // computation. Recovery-during-recovery re-enters the splice path.
        let s = scenario();
        let plan = FaultPlan::crash(1, 1, 0.0).with_event(
            3,
            FaultKind::Crash {
                phase: 3,
                progress: 0.4,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![1, 3]);
        assert_eq!(
            ft.splice_map,
            vec![Some(0), None, Some(1), Some(2)],
            "the outer splice composes with the inner identity"
        );
        assert!(ft.load_conserved(1e-9));
        assert!(
            ft.recovered_load > 0.0,
            "the inner Phase III crash re-assigned a residual"
        );
        assert!(
            ft.utility(3).abs() < 1e-9,
            "inner casualty settled pro rata"
        );
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12);
        }
        // The nested recovery's timeout and splice made it into the outer
        // timeline.
        assert_eq!(ft.timeline.of(obs::TimelineKind::Splice).count(), 2);
        assert_eq!(ft.timeline.of(obs::TimelineKind::Timeout).count(), 2);
    }

    #[test]
    fn deviant_in_a_cascade_keeps_its_fines() {
        let s = scenario().with_deviation(2, Deviation::WrongEquivalent { factor: 0.6 });
        let plan = FaultPlan::crash(2, 3, 0.5).with_event(
            1,
            FaultKind::Crash {
                phase: 3,
                progress: 0.5,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert!(
            ft.fines_paid(2) > 0.0,
            "the Phase II conviction survives the cascade"
        );
        assert!(ft.load_conserved(1e-9));
        assert!(ft.fines_paid(3) <= 1e-12, "honest survivor not fined");
        assert!(ft.fines_paid(1) <= 1e-12, "honest casualty not fined");
    }

    #[test]
    fn seeded_multi_fault_sweeps_hold_the_invariants() {
        for s in chains() {
            let m = s.num_agents();
            for seed in 0..20u64 {
                let plan = FaultPlan::seeded_multi(seed, m, 3);
                let ft = run_with_faults(&s, &plan).unwrap();
                assert!(ft.load_conserved(1e-9), "m={m} seed={seed} plan {plan:?}");
                for j in 1..=m {
                    assert!(
                        ft.fines_paid(j) <= 1e-12,
                        "m={m} seed={seed}: honest P{j} fined under {plan:?}"
                    );
                }
                let again = run_with_faults(&s, &plan).unwrap();
                assert_eq!(ft, again, "m={m} seed={seed}: replay diverged");
            }
        }
    }
}

//! The chain impl of the four-phase DLS-LBL protocol (§4) with deviation
//! injection.
//!
//! One [`Scenario`] describes the chain (true rates, link rates), each
//! strategic node's [`Deviation`], and the fine/audit configuration;
//! [`run`] plays out Phases I–IV (the crate's shared `phases` skeleton)
//! with real signed messages, Λ-tagged load blocks, grievance
//! arbitration, probabilistic audits and a final ledger, returning a
//! [`RunReport`] with every node's net utility. The chain's own steps are
//! the eq. 2.4 reduction, the eq. 2.7 `G` messages of Phase II and the
//! event-simulated Phase III.

use crate::crypto::{Dsm, NodeId};
use crate::deviation::Deviation;
use crate::ledger::Ledger;
use crate::messages::{Complaint, GMessage};
use crate::phases::{self, Allocation, Execution, Phases, Run, Terms};
use crate::root::{ArbitrationRecord, ARBITRATION_TOL};
use crate::transcript::{Entry, Transcript};
use dlt::linear;
use dlt::model::{LinearNetwork, LocalAllocation};
use mechanism::FineSchedule;
use sim::NodeBehavior;

/// A complete protocol scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The obedient root's unit processing time `w_0`.
    pub root_rate: f64,
    /// True rates `t_1 … t_m` of the strategic processors.
    pub true_rates: Vec<f64>,
    /// Link rates `z_1 … z_m` (public, obedient links).
    pub link_rates: Vec<f64>,
    /// Per-strategic-node deviations (`deviations[j-1]` is `P_j`'s).
    pub deviations: Vec<Deviation>,
    /// Fine schedule (fine `F`, audit probability `q`).
    pub fine: FineSchedule,
    /// Λ granularity: number of blocks the unit load is divided into.
    pub blocks: usize,
    /// RNG seed (keys, block identifiers, audit draws).
    pub seed: u64,
    /// Solution bonus `S` of eq. 4.13 (0 disables the extension).
    pub solution_bonus: f64,
    /// Whether the embedded problem's solution was found this round.
    pub solution_found: bool,
}

/// Why a [`Scenario`] was rejected before the protocol could start.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// `true_rates` is empty: there is no strategic processor to schedule.
    NoAgents,
    /// `true_rates`, `link_rates` and `deviations` must describe the same
    /// chain: `m` processors need `m` links and `m` deviation slots.
    LengthMismatch {
        /// `true_rates.len()`.
        true_rates: usize,
        /// `link_rates.len()`.
        link_rates: usize,
        /// `deviations.len()`.
        deviations: usize,
    },
    /// A rate that must be finite and strictly positive is not.
    BadRate {
        /// Which field (`"root_rate"`, `"true_rates"`, `"link_rates"`).
        field: &'static str,
        /// Index within the field (0 for scalars).
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The audit probability `q` must lie in `[0, 1]` and be finite.
    BadAuditProbability(f64),
    /// The fine `F` must be finite and non-negative.
    BadFine(f64),
    /// The solution bonus `S` must be finite and non-negative.
    BadSolutionBonus(f64),
    /// Λ must divide the unit load into at least one block.
    ZeroBlocks,
    /// A deviation's parameter is not finite, or makes a rate that is not
    /// finite and positive: a declared or metered rate `factor × t`, or a
    /// reported equivalent, which is at most `factor × t`.
    BadDeviation {
        /// Index within `deviations` (`P_{index+1}`'s).
        index: usize,
        /// The offending deviation.
        deviation: Deviation,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoAgents => write!(f, "scenario has no strategic processors"),
            ScenarioError::LengthMismatch {
                true_rates,
                link_rates,
                deviations,
            } => write!(
                f,
                "inconsistent chain description: {true_rates} true rates, \
                 {link_rates} link rates (need {true_rates}), {deviations} deviations \
                 (need {true_rates})"
            ),
            ScenarioError::BadRate {
                field,
                index,
                value,
            } => {
                write!(
                    f,
                    "{field}[{index}] = {value} is not a finite positive rate"
                )
            }
            ScenarioError::BadAuditProbability(q) => {
                write!(f, "audit probability {q} is not in [0, 1]")
            }
            ScenarioError::BadFine(v) => write!(f, "fine {v} is not finite and non-negative"),
            ScenarioError::BadSolutionBonus(v) => {
                write!(f, "solution bonus {v} is not finite and non-negative")
            }
            ScenarioError::ZeroBlocks => write!(f, "Λ granularity must be at least one block"),
            ScenarioError::BadDeviation { index, deviation } => write!(
                f,
                "deviations[{index}] = {deviation:?} needs finite parameters and positive rates"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn check_positive(field: &'static str, index: usize, value: f64) -> Result<(), ScenarioError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ScenarioError::BadRate {
            field,
            index,
            value,
        })
    }
}

// The builders `with_deviation`, `with_seed`, `with_fine` and
// `num_agents`, and the report accessors `utility`, `clean` and
// `convictions`, are shared with the tree (`phases`).
impl Scenario {
    /// A fully honest scenario over the given chain.
    ///
    /// Panics on a malformed chain description; use [`Scenario::validate`]
    /// / [`try_run`] for a fallible path.
    pub fn honest(root_rate: f64, true_rates: Vec<f64>, link_rates: Vec<f64>) -> Self {
        if true_rates.len() != link_rates.len() {
            panic!(
                "{}",
                ScenarioError::LengthMismatch {
                    true_rates: true_rates.len(),
                    link_rates: link_rates.len(),
                    deviations: true_rates.len(),
                }
            );
        }
        let m = true_rates.len();
        let mut w = vec![root_rate];
        w.extend_from_slice(&true_rates);
        let net = LinearNetwork::from_rates(&w, &link_rates);
        Self {
            root_rate,
            true_rates,
            link_rates,
            deviations: vec![Deviation::None; m],
            fine: FineSchedule::sufficient_for(&net, 0.5),
            blocks: 10_000,
            seed: 0xD15_CB01,
            solution_bonus: 0.0,
            solution_found: false,
        }
    }

    /// Enable the solution-bonus extension.
    pub fn with_solution_bonus(mut self, s: f64, found: bool) -> Self {
        self.solution_bonus = s;
        self.solution_found = found;
        self
    }

    /// Check every numeric input the protocol relies on, deviation
    /// parameters included. [`try_run`] and both fault-tolerant runners
    /// call this before touching any state; a scenario that passes cannot
    /// make the run itself divide by zero or propagate NaNs from its
    /// inputs.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        check_rates(
            self.root_rate,
            &self.true_rates,
            &self.link_rates,
            false,
            &self.deviations,
        )?;
        check_terms(&self.fine, self.solution_bonus, self.blocks)
    }
}

/// The rate checks every protocol scenario shares, chain or tree: agents
/// exist and line up one-to-one with their links (`link_rates[j-1]` feeds
/// `P_j`) and deviations; the root and every agent run at finite positive
/// rates; every link is finite and positive, or non-negative when
/// `zero_links` allows co-located processors; every deviation fits its
/// agent (`Deviation::fits`).
pub(crate) fn check_rates(
    root_rate: f64,
    true_rates: &[f64],
    link_rates: &[f64],
    zero_links: bool,
    deviations: &[Deviation],
) -> Result<(), ScenarioError> {
    let m = true_rates.len();
    if m == 0 {
        return Err(ScenarioError::NoAgents);
    }
    if link_rates.len() != m || deviations.len() != m {
        return Err(ScenarioError::LengthMismatch {
            true_rates: m,
            link_rates: link_rates.len(),
            deviations: deviations.len(),
        });
    }
    check_positive("root_rate", 0, root_rate)?;
    for (i, &t) in true_rates.iter().enumerate() {
        check_positive("true_rates", i, t)?;
    }
    for (i, &z) in link_rates.iter().enumerate() {
        if !(zero_links && z == 0.0) {
            check_positive("link_rates", i, z)?;
        }
    }
    match (0..m).find(|&i| !deviations[i].fits(true_rates[i])) {
        Some(index) => Err(ScenarioError::BadDeviation {
            index,
            deviation: deviations[index],
        }),
        None => Ok(()),
    }
}

/// The checks every protocol scenario shares after its rates: the fine
/// schedule, the solution bonus and the Λ granularity.
pub(crate) fn check_terms(
    fine: &FineSchedule,
    solution_bonus: f64,
    blocks: usize,
) -> Result<(), ScenarioError> {
    let q = fine.audit_probability;
    if !(q.is_finite() && (0.0..=1.0).contains(&q)) {
        return Err(ScenarioError::BadAuditProbability(q));
    }
    if !(fine.base.is_finite() && fine.base >= 0.0) {
        return Err(ScenarioError::BadFine(fine.base));
    }
    if !(solution_bonus.is_finite() && solution_bonus >= 0.0) {
        return Err(ScenarioError::BadSolutionBonus(solution_bonus));
    }
    if blocks == 0 {
        return Err(ScenarioError::ZeroBlocks);
    }
    Ok(())
}

/// Everything a protocol run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Declared rates `w_1 … w_m`.
    pub bids: Vec<f64>,
    /// Metered actual rates `w̃_1 … w̃_m`.
    pub actual_rates: Vec<f64>,
    /// Load prescribed to every node (root first) by the Phase II messages.
    pub assigned: Vec<f64>,
    /// Load actually retained and computed by every node (root first).
    pub retained: Vec<f64>,
    /// Load that physically arrived at every node (root first).
    pub received: Vec<f64>,
    /// All arbitration records, in occurrence order.
    pub arbitrations: Vec<ArbitrationRecord>,
    /// Which nodes were audited in Phase IV.
    pub audited: Vec<NodeId>,
    /// The full ledger.
    pub ledger: Ledger,
    /// Net utility of every strategic processor (`net_utilities[j-1]` is
    /// `P_j`'s): valuation + all ledger flows.
    pub net_utilities: Vec<f64>,
    /// The realized makespan of Phase III.
    pub makespan: f64,
    /// The recorded Gantt chart of Phase III.
    pub gantt: sim::GanttChart,
    /// The full message transcript (replayable via
    /// [`crate::transcript::replay`]).
    pub transcript: Transcript,
    /// Number of discrete events the execution simulation processed.
    pub events: u64,
    /// Deterministic per-run phase timeline (virtual time only; renderable
    /// via `sim::phase_timeline_to_gantt`).
    pub timeline: obs::PhaseTimeline,
}

/// Execute the scenario, panicking on malformed input.
///
/// Thin wrapper over [`try_run`] for tests and experiment drivers whose
/// scenarios are built programmatically and known-valid.
pub fn run(scenario: &Scenario) -> RunReport {
    try_run(scenario).unwrap_or_else(|e| panic!("invalid scenario: {e}"))
}

/// Execute the scenario after validating it, returning a typed error
/// instead of panicking on bad input (empty chains, mismatched vector
/// lengths, non-finite/zero/negative rates, out-of-range `q`, …).
pub fn try_run(scenario: &Scenario) -> Result<RunReport, ScenarioError> {
    scenario.validate()?;
    let m = scenario.num_agents();
    let mut run_span = obs::span!("protocol.run", "m" => m, "seed" => scenario.seed);
    let (base, received, audited, gantt) = phases::run(scenario);
    run_span.end_at(base.makespan);
    obs::hist!("protocol.makespan", base.makespan, "m" => m);
    Ok(RunReport {
        bids: base.bids,
        actual_rates: base.actual_rates,
        assigned: base.assigned,
        retained: base.retained,
        received,
        arbitrations: base.arbitrations,
        audited,
        ledger: base.ledger,
        net_utilities: base.net_utilities,
        makespan: base.makespan,
        gantt,
        transcript: base.transcript,
        events: base.events,
        timeline: base.timeline,
    })
}

impl Phases for Scenario {
    type Topo = Scenario;

    const TRANSCRIPT: bool = true;

    const AUDIT_SALT: u64 = 0xA0D17;

    fn scenario(&self) -> &Scenario {
        self
    }

    fn terms(&self) -> Terms<'_> {
        self.into()
    }

    /// The eq. 2.4 reduction of `P_i` with its reported tail.
    fn equivalent(&self, i: NodeId, bids: &[f64], wbar: &[f64]) -> f64 {
        match self.link_rates.get(i) {
            Some(&z) => linear::reduce_pair(bids[i], z, wbar[i + 1]).1,
            None => bids[i],
        }
    }

    /// The local fractions each node commits to (from its reported tail),
    /// the load announcements `D_i`, and one signed `G_i` per recipient,
    /// checked against eq. 2.7.
    fn allocate(&self, run: &mut Run, bids: &[f64], wbar: &[f64]) -> Allocation {
        let z = &self.link_rates;
        let m = z.len();
        let mut d = vec![0.0; m + 2];
        d[0] = 1.0;
        for i in 0..m {
            let tail = wbar[i + 1] + z[i];
            let honest = d[i] * (1.0 - tail / (bids[i] + tail));
            d[i + 1] = match self.deviation(i) {
                Deviation::WrongDistribution { factor } => (honest * factor).min(d[i]),
                _ => honest,
            };
        }
        let assigned = (0..=m).map(|i| d[i] - d[i + 1]).collect();
        d.pop();

        // The root vouches for its own load and equivalent in `G_1`.
        let root = run.registry.keypair(0);
        let (mut carry_d, mut carry_wbar) = (Dsm::new(&root, d[0]), Dsm::new(&root, wbar[0]));
        let mut proofs = Vec::with_capacity(m);
        for i in 1..=m {
            let sender_key = run.registry.keypair(i - 1);
            let g = GMessage {
                d_prev: carry_d,
                d_cur: Dsm::new(&sender_key, d[i]),
                wbar_prev: carry_wbar,
                w_prev: Dsm::new(&sender_key, bids[i - 1]),
                wbar_cur: Dsm::new(&sender_key, wbar[i]),
            };
            obs::count!("protocol.verification.checks", "phase" => 2u8, "node" => i);
            let (bid, link_rate) = (wbar[i], z[i - 1]);
            if g.check(&run.registry, i, bid, link_rate, ARBITRATION_TOL)
                .is_err()
            {
                // The recipient escalates with the message as evidence.
                let complaint = Complaint::BadComputation {
                    accused: i - 1,
                    evidence: g,
                    recipient_bid: bid,
                    link_rate,
                };
                run.file(&complaint, i, 0.0, 2);
            }
            run.transcript.record(Entry::PhaseIIAllocation {
                from: i - 1,
                to: i,
                g,
                link_rate,
            });
            obs::count!("protocol.messages", "phase" => 2u8);
            (carry_d, carry_wbar) = (g.d_cur, g.wbar_cur);
            proofs.push(g);
        }
        Allocation {
            d,
            assigned,
            proofs,
        }
    }

    /// Shedders keep less; their victims absorb the excess (the paper has
    /// the overloaded successor compute the extra units itself and restore
    /// the planned flow downstream).
    fn flow(&self, d: &[f64], assigned: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = d.len();
        let mut received = vec![0.0; n];
        let mut retained = vec![0.0; n];
        let mut flow = 1.0;
        for i in 0..n {
            received[i] = flow;
            let keep = match self.deviation(i) {
                _ if i + 1 == n => flow,
                Deviation::ShedLoad { keep_fraction } => assigned[i] * keep_fraction,
                _ => assigned[i] + (flow - d[i]).max(0.0),
            };
            retained[i] = keep.min(flow).max(0.0);
            flow -= retained[i];
        }
        (received, retained)
    }

    /// The event simulator's timeline. Message phases are instantaneous in
    /// the virtual-time model (markers at 0 and at the makespan); Phase III
    /// spans come from the recorded Gantt compute segments.
    fn execute(&self, actual: &[f64], received: &[f64], retained: &[f64]) -> Execution {
        let n = actual.len();
        let net = LinearNetwork::from_rates(actual, &self.link_rates);
        // The fraction of what reaches a node that it keeps (all, if nothing
        // does).
        let fraction = |i: usize| {
            let kept = (retained[i] / received[i]).clamp(0.0, 1.0);
            if received[i] > 1e-15 {
                kept
            } else {
                1.0
            }
        };
        let plan = LocalAllocation::new((0..n).map(fraction).collect());
        let behaviors: Vec<NodeBehavior> =
            actual.iter().map(|&w| NodeBehavior::compliant(w)).collect();
        let exec = sim::simulate_chain(&net, &plan, &behaviors);
        let mut timeline = obs::PhaseTimeline::new(n);
        for i in 0..n {
            timeline.mark(i, 1, obs::TimelineKind::Work, 0.0);
            timeline.mark(i, 2, obs::TimelineKind::Work, 0.0);
        }
        for (i, lane) in exec.gantt.lanes.iter().enumerate() {
            for seg in lane.of(sim::Activity::Compute) {
                let span = (seg.start, seg.end);
                timeline.push(i, 3, obs::TimelineKind::Work, span, seg.load);
            }
        }
        for i in 0..n {
            timeline.mark(i, 4, obs::TimelineKind::Work, exec.makespan);
        }
        timeline.makespan = exec.makespan;
        Execution {
            gantt: exec.gantt,
            events: exec.events,
            timeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::Registry;
    use crate::lambda::BlockMint;

    fn scenario() -> Scenario {
        Scenario::honest(1.0, vec![2.0, 0.5, 4.0], vec![0.2, 0.1, 0.7])
    }

    #[test]
    fn honest_run_is_clean() {
        let report = run(&scenario());
        assert!(
            report.clean(),
            "complaints in an honest run: {:?}",
            report.arbitrations
        );
        assert!(report.audited.len() <= 3);
        assert!(report.ledger.total_fines() == 0.0);
    }

    #[test]
    fn honest_run_matches_mechanism_settlement() {
        let report = run(&scenario());
        let mech = mechanism::DlsLbl::new(1.0, vec![0.2, 0.1, 0.7]);
        let agents: Vec<mechanism::Agent> = [2.0, 0.5, 4.0]
            .iter()
            .map(|&t| mechanism::Agent::new(t))
            .collect();
        let outcome = mech.settle_truthful(&agents);
        for j in 1..=3 {
            assert!(
                (report.utility(j) - outcome.utility(j)).abs() < 1e-9,
                "P{j}: protocol {} vs mechanism {}",
                report.utility(j),
                outcome.utility(j)
            );
        }
    }

    #[test]
    fn honest_run_allocation_matches_algorithm_1() {
        let report = run(&scenario());
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]);
        let sol = linear::solve(&net);
        for i in 0..4 {
            assert!(
                (report.assigned[i] - sol.alloc.alpha(i)).abs() < 1e-12,
                "α_{i}"
            );
            assert!((report.retained[i] - sol.alloc.alpha(i)).abs() < 1e-12);
        }
        assert!((report.makespan - sol.makespan()).abs() < 1e-12);
    }

    #[test]
    fn honest_utilities_nonnegative() {
        let report = run(&scenario());
        for j in 1..=3 {
            assert!(report.utility(j) >= -1e-12, "P{j} lost money while honest");
        }
    }

    #[test]
    fn wrong_equivalent_is_caught_and_fined() {
        let s = scenario().with_deviation(2, Deviation::WrongEquivalent { factor: 0.6 });
        let report = run(&s);
        let convictions: Vec<_> = report.convictions().collect();
        assert_eq!(convictions.len(), 1);
        assert_eq!(convictions[0].accused, 2);
        assert_eq!(convictions[0].complaint, "bad-computation");
        // Reporter (successor P3) is rewarded.
        assert!(report.ledger.net_of(3, crate::ledger::EntryKind::Reward) > 0.0);
    }

    #[test]
    fn wrong_distribution_is_caught() {
        let s = scenario().with_deviation(1, Deviation::WrongDistribution { factor: 1.3 });
        let report = run(&s);
        let convicted: Vec<_> = report.convictions().map(|a| a.accused).collect();
        assert!(
            convicted.contains(&1),
            "P1 should be convicted, got {convicted:?}"
        );
    }

    #[test]
    fn contradictory_bid_is_caught() {
        let s = scenario().with_deviation(3, Deviation::ContradictoryBid { second_factor: 0.7 });
        let report = run(&s);
        let convictions: Vec<_> = report.convictions().collect();
        assert_eq!(convictions.len(), 1);
        assert_eq!(convictions[0].accused, 3);
        assert_eq!(convictions[0].complaint, "contradiction");
    }

    #[test]
    fn shed_load_triggers_overload_grievance() {
        let s = scenario().with_deviation(2, Deviation::ShedLoad { keep_fraction: 0.4 });
        let report = run(&s);
        let convictions: Vec<_> = report.convictions().collect();
        assert_eq!(convictions.len(), 1, "{:?}", report.arbitrations);
        assert_eq!(convictions[0].accused, 2);
        assert_eq!(convictions[0].complaint, "overload");
        assert!(convictions[0].extra_penalty > 0.0);
        // The victim absorbed the extra and is recompensed: its net
        // utility must not fall below the honest run's.
        let honest = run(&scenario());
        assert!(
            report.utility(3) >= honest.utility(3) - 1e-9,
            "victim must be made whole"
        );
    }

    #[test]
    fn overcharge_is_fined_when_audited() {
        // q = 1 so the audit always fires.
        let s = scenario()
            .with_fine(FineSchedule::new(15.0, 1.0))
            .with_deviation(1, Deviation::Overcharge { amount: 0.5 });
        let report = run(&s);
        assert!(report.audited.contains(&1));
        assert!(report.ledger.net_of(1, crate::ledger::EntryKind::Fine) < 0.0);
    }

    #[test]
    fn false_accusation_backfires() {
        let s = scenario().with_deviation(2, Deviation::FalseAccusation);
        let report = run(&s);
        let recs: Vec<_> = report.arbitrations.iter().collect();
        assert_eq!(recs.len(), 1);
        assert!(!recs[0].substantiated);
        // The liar pays, the accused (P1) is rewarded.
        assert!(report.ledger.net_of(2, crate::ledger::EntryKind::Fine) < 0.0);
        assert!(report.ledger.net_of(1, crate::ledger::EntryKind::Reward) > 0.0);
    }

    #[test]
    fn every_finable_deviation_nets_less_than_compliance() {
        let honest = run(&scenario());
        for d in Deviation::catalog() {
            if !d.is_finable() {
                continue;
            }
            // Audits must fire to catch overcharging deterministically.
            let s = scenario()
                .with_fine(FineSchedule::new(15.0, 1.0))
                .with_deviation(2, d);
            let report = run(&s);
            assert!(
                report.utility(2) < honest.utility(2) - 1.0,
                "{} netted {} vs honest {}",
                d.label(),
                report.utility(2),
                honest.utility(2)
            );
        }
    }

    #[test]
    fn pure_misreports_are_not_fined_but_do_not_profit() {
        let honest = run(&scenario());
        for d in [
            Deviation::Underbid { factor: 0.5 },
            Deviation::Overbid { factor: 2.0 },
            Deviation::SlackExecution { factor: 1.5 },
        ] {
            let s = scenario().with_deviation(2, d);
            let report = run(&s);
            assert!(
                report.ledger.total_fines() == 0.0,
                "{} should not be fined",
                d.label()
            );
            assert!(
                report.utility(2) <= honest.utility(2) + 1e-9,
                "{} profited: {} vs {}",
                d.label(),
                report.utility(2),
                honest.utility(2)
            );
        }
    }

    /// Deviations at the edge of what honest evidence can prove: a
    /// "contradiction" that repeats the same value, and sheds so small
    /// that the Λ tag may round the excess back under half a block.
    fn boundary_deviations() -> Vec<Deviation> {
        let band = (0..40).map(|k| 0.999 + 0.0009 * k as f64 / 39.0);
        let mut out = vec![Deviation::ContradictoryBid { second_factor: 1.0 }];
        out.extend(band.map(|keep_fraction| Deviation::ShedLoad { keep_fraction }));
        out.push(Deviation::ShedLoad {
            keep_fraction: 0.999752445,
        });
        out
    }

    #[test]
    fn honest_nodes_never_fined_across_deviant_runs() {
        // Lemma 5.2, fuzzed over the catalog and the boundary cases: in
        // every run, only the deviant is ever fined.
        let chains = [
            scenario(),
            Scenario::honest(1.0, vec![1.2, 0.9, 1.5], vec![0.1, 0.2, 0.15]),
        ];
        for base in chains {
            for d in Deviation::catalog()
                .into_iter()
                .chain(boundary_deviations())
            {
                for deviant in 1..=3 {
                    let s = base
                        .clone()
                        .with_fine(FineSchedule::new(15.0, 1.0))
                        .with_deviation(deviant, d);
                    let report = run(&s);
                    for j in (1..=3).filter(|&j| j != deviant) {
                        assert!(
                            report.ledger.net_of(j, crate::ledger::EntryKind::Fine) >= 0.0,
                            "honest P{j} fined under {d:?} at P{deviant}: {:?}",
                            report.arbitrations
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn solution_bonus_raises_compliant_utilities() {
        let base = run(&scenario());
        let s = scenario().with_solution_bonus(0.25, true);
        let with = run(&s);
        for j in 1..=3 {
            assert!((with.utility(j) - base.utility(j) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn report_shape_is_consistent() {
        let report = run(&scenario());
        assert_eq!(report.bids.len(), 3);
        assert_eq!(report.assigned.len(), 4);
        let total_retained: f64 = report.retained.iter().sum();
        assert!((total_retained - 1.0).abs() < 1e-9, "load conservation");
        report.gantt.validate_one_port().unwrap();
        assert!(report.events > 0);
    }

    #[test]
    fn seeds_change_audits_not_outcomes() {
        let a = run(&scenario().with_seed(1));
        let b = run(&scenario().with_seed(2));
        for j in 1..=3 {
            assert!((a.utility(j) - b.utility(j)).abs() < 1e-12);
        }
    }

    #[test]
    fn honest_transcript_replays_clean() {
        let s = scenario();
        let report = run(&s);
        let registry = Registry::new(4, s.seed);
        let mint = BlockMint::new(s.blocks, s.seed ^ 0x5EED_B10C);
        let findings = crate::transcript::replay(&report.transcript, &registry, &mint);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(
            report.transcript.len() >= 3 + 3 + 3 + 3,
            "bids + Gs + deliveries + bills"
        );
    }

    #[test]
    fn replay_reaches_the_same_verdicts_as_the_online_checks() {
        // For every deviation the online protocol convicts, a post-hoc
        // replay of the transcript must incriminate the same node.
        for d in Deviation::catalog() {
            if !d.is_finable() || matches!(d, Deviation::FalseAccusation) {
                continue; // false accusations leave no transcript trace
            }
            let s = scenario()
                .with_fine(FineSchedule::new(15.0, 1.0))
                .with_deviation(2, d);
            let report = run(&s);
            let registry = Registry::new(4, s.seed);
            let mint = BlockMint::new(s.blocks, s.seed ^ 0x5EED_B10C);
            let findings = crate::transcript::replay(&report.transcript, &registry, &mint);
            assert!(
                findings.iter().any(|f| f.accused == 2),
                "{}: replay failed to incriminate P2 (findings {findings:?})",
                d.label()
            );
            // And it incriminates nobody else.
            assert!(
                findings.iter().all(|f| f.accused == 2),
                "{}: replay accused an honest node: {findings:?}",
                d.label()
            );
        }
    }

    #[test]
    fn validate_accepts_honest_scenarios() {
        assert_eq!(scenario().validate(), Ok(()));
    }

    #[test]
    fn try_run_rejects_empty_chain() {
        let mut s = scenario();
        s.true_rates.clear();
        assert_eq!(try_run(&s).unwrap_err(), ScenarioError::NoAgents);
    }

    #[test]
    fn try_run_rejects_mismatched_lengths() {
        let mut s = scenario();
        s.deviations.pop();
        assert!(matches!(
            try_run(&s),
            Err(ScenarioError::LengthMismatch { .. })
        ));
        let mut s = scenario();
        s.link_rates.push(0.5);
        assert!(matches!(
            try_run(&s),
            Err(ScenarioError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn try_run_rejects_degenerate_rates() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut s = scenario();
            s.true_rates[1] = bad;
            assert!(
                matches!(
                    try_run(&s),
                    Err(ScenarioError::BadRate {
                        field: "true_rates",
                        index: 1,
                        ..
                    })
                ),
                "accepted true rate {bad}"
            );
            let mut s = scenario();
            s.link_rates[0] = bad;
            assert!(matches!(
                try_run(&s),
                Err(ScenarioError::BadRate {
                    field: "link_rates",
                    index: 0,
                    ..
                })
            ));
            let mut s = scenario();
            s.root_rate = bad;
            assert!(matches!(
                try_run(&s),
                Err(ScenarioError::BadRate {
                    field: "root_rate",
                    ..
                })
            ));
        }
    }

    #[test]
    fn try_run_rejects_bad_mechanism_knobs() {
        let mut s = scenario();
        s.fine.audit_probability = 1.5;
        assert_eq!(
            try_run(&s).unwrap_err(),
            ScenarioError::BadAuditProbability(1.5)
        );
        let mut s = scenario();
        s.fine.base = f64::NAN;
        assert!(matches!(try_run(&s), Err(ScenarioError::BadFine(_))));
        let mut s = scenario();
        s.solution_bonus = -1.0;
        assert_eq!(
            try_run(&s).unwrap_err(),
            ScenarioError::BadSolutionBonus(-1.0)
        );
        let mut s = scenario();
        s.blocks = 0;
        assert_eq!(try_run(&s).unwrap_err(), ScenarioError::ZeroBlocks);
    }

    #[test]
    fn try_run_rejects_out_of_range_deviations() {
        // A metered rate of 0 would reach the Phase III simulation.
        let slack = Deviation::SlackExecution { factor: 0.0 };
        assert_eq!(
            try_run(&scenario().with_deviation(2, slack)).unwrap_err(),
            ScenarioError::BadDeviation {
                index: 1,
                deviation: slack
            }
        );
        // A factor whose rate overflows is as bad as an infinite one.
        let overbid = Deviation::Overbid { factor: 1e308 };
        assert!(matches!(
            try_run(&scenario().with_deviation(3, overbid)),
            Err(ScenarioError::BadDeviation { index: 2, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn run_panics_with_typed_message_on_bad_input() {
        let mut s = scenario();
        s.true_rates[0] = -2.0;
        run(&s);
    }

    #[test]
    fn scenario_errors_display_the_offence() {
        let msg = ScenarioError::BadRate {
            field: "link_rates",
            index: 2,
            value: -0.5,
        }
        .to_string();
        assert!(msg.contains("link_rates[2]"), "{msg}");
        assert!(msg.contains("-0.5"), "{msg}");
    }

    #[test]
    fn two_processor_minimal_chain() {
        let s = Scenario::honest(1.0, vec![1.0], vec![1.0]);
        let report = run(&s);
        assert!(report.clean());
        assert!((report.assigned[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((report.assigned[1] - 1.0 / 3.0).abs() < 1e-12);
    }
}

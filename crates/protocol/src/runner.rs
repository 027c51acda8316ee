//! End-to-end execution of the four-phase DLS-LBL protocol (§4) with
//! deviation injection.
//!
//! One [`Scenario`] describes the chain (true rates, link rates), each
//! strategic node's [`Deviation`], and the fine/audit configuration;
//! [`run`] plays out Phases I–IV with real signed messages, Λ-tagged load
//! blocks, grievance arbitration, probabilistic audits and a final ledger,
//! returning a [`RunReport`] with every node's net utility.
//!
//! ### Continuation semantics
//! The paper terminates the protocol on detected deviations. For
//! experimental comparability we instead let lies *propagate* (the
//! distorted values drive allocation and execution exactly as the deviant
//! sent them), apply the fines the arbitration produces, and settle
//! payments on what actually happened. The deviant's net utility therefore
//! reflects both the (possibly advantageous) distortion and the fine — and
//! because `F` exceeds any attainable profit, the net is always worse than
//! compliance, which is the claim under test.

use crate::crypto::{Dsm, NodeId, Registry};
use crate::deviation::Deviation;
use crate::lambda::BlockMint;
use crate::ledger::{EntryKind, Ledger};
use crate::messages::{Bill, Complaint, GMessage, PaymentProof};
use crate::root::{arbitrate, ArbitrationContext, ArbitrationRecord, ARBITRATION_TOL};
use crate::transcript::{Entry, Transcript};
use dlt::linear;
use dlt::model::{LinearNetwork, LocalAllocation};
use mechanism::payment::{self, PaymentInputs};
use mechanism::FineSchedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

    /// Set one node's deviation (builder style). `j` is 1-based (`P_j`).
    pub fn with_deviation(mut self, j: usize, d: Deviation) -> Self {
        assert!(j >= 1 && j <= self.deviations.len());
        self.deviations[j - 1] = d;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the fine schedule.
    pub fn with_fine(mut self, fine: FineSchedule) -> Self {
        self.fine = fine;
        self
    }

    /// Enable the solution-bonus extension.
    pub fn with_solution_bonus(mut self, s: f64, found: bool) -> Self {
        self.solution_bonus = s;
        self.solution_found = found;
        self
    }

    /// Number of strategic processors `m`.
    pub fn num_agents(&self) -> usize {
        self.true_rates.len()
    }

    /// Check every numeric input the protocol relies on. [`try_run`] calls
    /// this before touching any state; a scenario that passes cannot make
    /// the run itself divide by zero or propagate NaNs from its inputs.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        check_rates(
            self.root_rate,
            &self.true_rates,
            &self.link_rates,
            false,
            self.deviations.len(),
        )?;
        check_terms(&self.fine, self.solution_bonus, self.blocks)
    }
}

/// The rate checks every protocol scenario shares, chain or tree: agents
/// exist and line up one-to-one with their links (`link_rates[j-1]` feeds
/// `P_j`) and deviations; the root and every agent run at finite positive
/// rates; every link is finite and positive, or non-negative when
/// `zero_links` allows co-located processors.
pub(crate) fn check_rates(
    root_rate: f64,
    true_rates: &[f64],
    link_rates: &[f64],
    zero_links: bool,
    deviations: usize,
) -> Result<(), ScenarioError> {
    let m = true_rates.len();
    if m == 0 {
        return Err(ScenarioError::NoAgents);
    }
    if link_rates.len() != m || deviations != m {
        return Err(ScenarioError::LengthMismatch {
            true_rates: m,
            link_rates: link_rates.len(),
            deviations,
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
    Ok(())
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

impl RunReport {
    /// Net utility of strategic processor `P_j`.
    pub fn utility(&self, j: usize) -> f64 {
        self.net_utilities[j - 1]
    }

    /// True if no complaint was filed.
    pub fn clean(&self) -> bool {
        self.arbitrations.is_empty()
    }

    /// Arbitrations that substantiated a deviation.
    pub fn convictions(&self) -> impl Iterator<Item = &ArbitrationRecord> {
        self.arbitrations.iter().filter(|a| a.substantiated)
    }
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
    let n = m + 1;
    let mut run_span = obs::span!("protocol.run", "m" => m, "seed" => scenario.seed);
    let registry = Registry::new(n, scenario.seed);
    let mint = BlockMint::new(scenario.blocks, scenario.seed ^ 0x5EED_B10C);
    let mut ledger = Ledger::new();
    let mut arbitrations = Vec::new();
    let mut transcript = Transcript::new();
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0xA0D17);

    // ---------- Phase I: bids and equivalent-rate propagation ----------
    // Declared rates (index 0 is the root).
    let mut bids = vec![scenario.root_rate];
    // Metered actual rates.
    let mut actual = vec![scenario.root_rate];
    for (idx, &t) in scenario.true_rates.iter().enumerate() {
        let (bid, act) = match scenario.deviations[idx] {
            Deviation::Underbid { factor } => (t * factor, t), // cannot beat hardware
            Deviation::Overbid { factor } => (t * factor, t),  // runs at capacity
            Deviation::SlackExecution { factor } => (t, t * factor),
            _ => (t, t),
        };
        bids.push(bid);
        actual.push(act);
    }
    let z = &scenario.link_rates;

    // Equivalent rates reported up the chain; lies propagate.
    let mut reported_wbar = vec![0.0; n];
    {
        let honest_terminal = bids[m];
        reported_wbar[m] = match scenario.deviations[m - 1] {
            Deviation::WrongEquivalent { factor } => honest_terminal * factor,
            _ => honest_terminal,
        };
        // Contradictory terminal bid handled below with the others.
        for i in (0..m).rev() {
            let (_, honest) = linear::reduce_pair(bids[i], z[i], reported_wbar[i + 1]);
            reported_wbar[i] = if i >= 1 {
                match scenario.deviations[i - 1] {
                    Deviation::WrongEquivalent { factor } => honest * factor,
                    _ => honest,
                }
            } else {
                honest
            };
        }
    }
    // Record every node's upward Phase I message.
    for j in 1..=m {
        let key = registry.keypair(j);
        transcript.record(Entry::PhaseIBid {
            from: j,
            to: j - 1,
            message: Dsm::new(&key, reported_wbar[j]),
        });
    }
    obs::count!("protocol.messages", by = m as f64, "phase" => 1u8);
    // Contradictory Phase I messages: the sender signs two different
    // values; the predecessor detects and reports.
    for j in 1..=m {
        if let Deviation::ContradictoryBid { second_factor } = scenario.deviations[j - 1] {
            let key = registry.keypair(j);
            let first = Dsm::new(&key, reported_wbar[j]);
            let second = Dsm::new(&key, reported_wbar[j] * second_factor);
            transcript.record(Entry::PhaseIBid {
                from: j,
                to: j - 1,
                message: second,
            });
            obs::count!("protocol.messages", "phase" => 1u8);
            let complaint = Complaint::Contradiction {
                accused: j,
                first,
                second,
            };
            let ctx = ArbitrationContext {
                registry: &registry,
                mint: &mint,
                fine: scenario.fine,
                victim_rate: 0.0,
                phase: 1,
            };
            arbitrations.push(arbitrate(&complaint, j - 1, &ctx, &mut ledger));
            // The run continues with the first message's value.
        }
    }

    // ---------- Phase II: allocation messages down the chain ----------
    // Local fractions each node *commits to* (from the reported tail) and
    // the load announcements D_i, with WrongDistribution injection.
    let mut alpha_hat = vec![0.0; n];
    alpha_hat[m] = 1.0;
    for i in 0..m {
        let tail = reported_wbar[i + 1] + z[i];
        alpha_hat[i] = tail / (bids[i] + tail);
    }
    let mut d = vec![0.0; n + 1];
    d[0] = 1.0;
    for i in 0..m {
        let honest_next = d[i] * (1.0 - alpha_hat[i]);
        d[i + 1] = if i >= 1 {
            match scenario.deviations[i - 1] {
                Deviation::WrongDistribution { factor } => (honest_next * factor).min(d[i]),
                _ => honest_next,
            }
        } else {
            honest_next
        };
    }
    d[n] = 0.0;

    // Build and check the G messages with real signatures.
    let root_key = registry.keypair(0);
    let mut carry_d = Dsm::new(&root_key, d[0]);
    let mut carry_wbar = Dsm::new(&root_key, reported_wbar[0]);
    let mut g_messages: Vec<GMessage> = Vec::with_capacity(m);
    for i in 1..=m {
        let sender_key = registry.keypair(i - 1);
        let g = GMessage {
            d_prev: carry_d,
            d_cur: Dsm::new(&sender_key, d[i]),
            wbar_prev: carry_wbar,
            w_prev: Dsm::new(&sender_key, bids[i - 1]),
            wbar_cur: Dsm::new(&sender_key, reported_wbar[i]),
        };
        obs::count!("protocol.verification.checks", "phase" => 2u8, "node" => i);
        if let Err(_reason) = g.check(&registry, i, reported_wbar[i], z[i - 1], ARBITRATION_TOL) {
            // The recipient escalates with the message as evidence.
            let complaint = Complaint::BadComputation {
                accused: i - 1,
                evidence: g,
                recipient_bid: reported_wbar[i],
                link_rate: z[i - 1],
            };
            let ctx = ArbitrationContext {
                registry: &registry,
                mint: &mint,
                fine: scenario.fine,
                victim_rate: 0.0,
                phase: 2,
            };
            arbitrations.push(arbitrate(&complaint, i, &ctx, &mut ledger));
        }
        transcript.record(Entry::PhaseIIAllocation {
            from: i - 1,
            to: i,
            g,
            link_rate: z[i - 1],
        });
        obs::count!("protocol.messages", "phase" => 2u8);
        carry_d = g.d_cur;
        carry_wbar = g.wbar_cur;
        g_messages.push(g);
    }

    // False accusations are filed here (the accuser hopes for the reward).
    for j in 1..=m {
        if matches!(scenario.deviations[j - 1], Deviation::FalseAccusation) {
            let complaint = Complaint::Unfounded { accused: j - 1 };
            let ctx = ArbitrationContext {
                registry: &registry,
                mint: &mint,
                fine: scenario.fine,
                victim_rate: 0.0,
                phase: 2,
            };
            arbitrations.push(arbitrate(&complaint, j, &ctx, &mut ledger));
        }
    }

    // ---------- Phase III: physical distribution and computation ----------
    // Assigned (prescribed) absolute loads from the message chain.
    let assigned: Vec<f64> = (0..n).map(|i| d[i] - d[i + 1]).collect();
    // Physical flows: shedders keep less; their victims absorb the excess
    // (the paper has the overloaded successor compute the extra units
    // itself and restore the planned flow downstream).
    let mut received = vec![0.0; n];
    let mut retained = vec![0.0; n];
    let mut flow = 1.0;
    for i in 0..n {
        received[i] = flow;
        let excess = (flow - d[i]).max(0.0);
        let keep = if i == m {
            flow
        } else if i >= 1 {
            match scenario.deviations[i - 1] {
                Deviation::ShedLoad { keep_fraction } => assigned[i] * keep_fraction,
                _ => assigned[i] + excess,
            }
        } else {
            assigned[i] + excess
        };
        let keep = keep.min(flow).max(0.0);
        retained[i] = keep;
        flow -= keep;
    }

    // Execute on the event simulator for the realized timeline.
    let sim_net = {
        let w: Vec<f64> = actual.clone();
        LinearNetwork::from_rates(&w, z)
    };
    let plan = LocalAllocation::new(
        (0..n)
            .map(|i| {
                if received[i] > 1e-15 {
                    (retained[i] / received[i]).clamp(0.0, 1.0)
                } else {
                    1.0
                }
            })
            .collect(),
    );
    let behaviors: Vec<NodeBehavior> = (0..n).map(|i| NodeBehavior::compliant(actual[i])).collect();
    let exec = sim::simulate_chain(&sim_net, &plan, &behaviors);

    // Record deliveries and raise overload grievances.
    let half_block = 0.5 * mint.block_size();
    for i in 1..=m {
        let recv_blocks_i = mint.to_blocks(received[i]).min(scenario.blocks);
        transcript.record(Entry::PhaseIIIDelivery {
            from: i - 1,
            to: i,
            amount: received[i],
            tag: mint.range(scenario.blocks - recv_blocks_i, recv_blocks_i),
        });
        obs::count!("protocol.messages", "phase" => 3u8);
        obs::count!("protocol.verification.checks", "phase" => 3u8, "node" => i);
        if received[i] > d[i] + half_block {
            let recv_blocks = mint.to_blocks(received[i]).min(scenario.blocks);
            let tag = mint.range(scenario.blocks - recv_blocks, recv_blocks);
            let complaint = Complaint::Overload {
                accused: i - 1,
                expected: d[i],
                tag,
            };
            let ctx = ArbitrationContext {
                registry: &registry,
                mint: &mint,
                fine: scenario.fine,
                victim_rate: actual[i],
                phase: 3,
            };
            arbitrations.push(arbitrate(&complaint, i, &ctx, &mut ledger));
        }
    }

    // ---------- Phase IV: self-billing and audits ----------
    let bid_net = LinearNetwork::from_rates(&bids, z);
    // One suffix sweep powers every node's settlement (and any audit
    // recomputation) in O(m) total — bit-identical to the per-node
    // `payment::settle` loop it replaced.
    let suffixes = dlt::batch::solve_all_suffixes(&bid_net);
    let s = if scenario.solution_found {
        scenario.solution_bonus
    } else {
        0.0
    };
    let mut audited = Vec::new();
    let mut valuations = vec![0.0; n];
    for j in 1..=m {
        let inputs = PaymentInputs {
            assigned_load: assigned[j],
            actual_load: retained[j],
            actual_rate: actual[j],
        };
        let breakdown = payment::settle_with(&suffixes, &bid_net, j, inputs, s);
        valuations[j] = breakdown.valuation;
        let honest_bill = breakdown.payment;
        let billed = match scenario.deviations[j - 1] {
            Deviation::Overcharge { amount } => honest_bill + amount,
            _ => honest_bill,
        };
        let bill = Bill {
            node: j,
            amount: billed,
            proof: PaymentProof {
                g: g_messages[j - 1],
                meter: Dsm::new(&root_key, actual[j]),
                tag: {
                    let recv_blocks = mint.to_blocks(received[j]).min(scenario.blocks);
                    mint.range(scenario.blocks - recv_blocks, recv_blocks)
                },
                actual_load: retained[j],
            },
        };
        transcript.record(Entry::PhaseIVBill {
            bill: bill.clone(),
            recomputed: honest_bill,
        });
        obs::count!("protocol.messages", "phase" => 4u8);
        let challenged = rng.gen::<f64>() < scenario.fine.audit_probability;
        if challenged {
            audited.push(j);
            obs::count!("protocol.audits", "node" => j);
            obs::count!("protocol.verification.checks", "phase" => 4u8, "node" => j);
            // The root recomputes the payment from the proof.
            let recomputed = payment::settle_with(
                &suffixes,
                &bid_net,
                j,
                PaymentInputs {
                    assigned_load: assigned[j],
                    actual_load: bill.proof.actual_load,
                    actual_rate: bill.proof.meter.payload,
                },
                s,
            )
            .payment;
            if (bill.amount - recomputed).abs() > ARBITRATION_TOL {
                obs::hist!(
                    "mechanism.fines.levied",
                    scenario.fine.overcharge_fine(),
                    "node" => j,
                    "phase" => 4u8
                );
                ledger.post(j, EntryKind::Fine, -scenario.fine.overcharge_fine(), 4);
                ledger.post(j, EntryKind::Payment, recomputed, 4);
                arbitrations.push(ArbitrationRecord {
                    claimant: 0, // the root's audit
                    accused: j,
                    complaint: "overcharge".to_string(),
                    substantiated: true,
                    fine: scenario.fine.overcharge_fine(),
                    extra_penalty: 0.0,
                });
            } else {
                ledger.post(j, EntryKind::Payment, bill.amount, 4);
            }
        } else {
            ledger.post(j, EntryKind::Payment, bill.amount, 4);
        }
    }

    let net_utilities: Vec<f64> = (1..=m).map(|j| valuations[j] + ledger.net(j)).collect();

    // Deterministic phase timeline. Message phases are instantaneous in the
    // virtual-time model (markers at 0 and at the makespan); Phase III spans
    // come from the recorded Gantt compute segments.
    let mut timeline = obs::PhaseTimeline::new(n);
    for i in 0..n {
        timeline.mark(i, 1, obs::TimelineKind::Work, 0.0);
        timeline.mark(i, 2, obs::TimelineKind::Work, 0.0);
    }
    for (i, lane) in exec.gantt.lanes.iter().enumerate() {
        for seg in lane.of(sim::Activity::Compute) {
            timeline.push(
                i,
                3,
                obs::TimelineKind::Work,
                (seg.start, seg.end),
                seg.load,
            );
        }
    }
    for i in 0..n {
        timeline.mark(i, 4, obs::TimelineKind::Work, exec.makespan);
    }
    timeline.makespan = exec.makespan;
    run_span.end_at(exec.makespan);
    obs::hist!("protocol.makespan", exec.makespan, "m" => m);

    Ok(RunReport {
        bids: bids[1..].to_vec(),
        actual_rates: actual[1..].to_vec(),
        assigned,
        retained,
        received,
        arbitrations,
        audited,
        ledger,
        net_utilities,
        makespan: exec.makespan,
        gantt: exec.gantt,
        events: exec.events,
        transcript,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn honest_nodes_never_fined_across_deviant_runs() {
        // Lemma 5.2, fuzzed over the catalog: in every run, only the
        // deviant is ever fined.
        for d in Deviation::catalog() {
            let s = scenario()
                .with_fine(FineSchedule::new(15.0, 1.0))
                .with_deviation(2, d);
            let report = run(&s);
            for j in [1usize, 3] {
                assert!(
                    report.ledger.net_of(j, crate::ledger::EntryKind::Fine) >= 0.0,
                    "honest P{j} fined under {}",
                    d.label()
                );
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

//! The four-phase DLS-LBL protocol (§4), written once for chains and trees.
//!
//! Phases I–IV depend on the network's shape in only a few places, all
//! collected in the [`Phases`] trait: the equivalent-rate step, the Phase II
//! allocation with its recipient-side check, the Phase III flow, and the
//! execution timing. The chain impl lives in [`crate::runner`], the tree
//! impl in [`crate::tree_runner`]; the honest Phase IV bill is the
//! topology's fault-tolerant [`Topology::billing`] hook. Everything else
//! is shared:
//!
//! * deviation → declared bid and metered rate, and `WrongEquivalent`
//!   propagation up the network;
//! * contradictory Phase I bids and false accusations;
//! * Phase III overload grievances, proven by the Λ tags;
//! * the Phase IV bill/audit loop, the ledger and the net utilities.
//!
//! ### Lemma 5.2: honest nodes file only what their evidence proves
//! Every fault-free fine, reward and extra-work penalty is levied by
//! [`crate::root::arbitrate`], except the root's own Phase IV overcharge
//! audit. An honest node files a complaint only when the evidence it holds
//! already substantiates it, by the same test the root applies:
//!
//! * a **Contradiction** only when the two signed payloads differ by more
//!   than [`ARBITRATION_TOL`];
//! * a Phase II complaint only when the sender's message fails the
//!   recipient's check, which the root replays;
//! * an **Overload** only when the Λ tag the node received proves more
//!   than half a block beyond its Phase II prescription. A shortfall the
//!   rounded tag cannot prove is absorbed, not reported.
//!
//! So no honest node is ever fined, neither as the accused nor as a
//! claimant whose grievance the root rejects.
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
use crate::ft_engine::{BaseRun, Topology};
use crate::lambda::BlockMint;
use crate::ledger::{EntryKind, Ledger};
use crate::messages::{Bill, Complaint, GMessage, PaymentProof};
use crate::root::ARBITRATION_TOL;
use crate::root::{arbitrate, proven_overload, ArbitrationContext, ArbitrationRecord};
use crate::transcript::{Entry, Transcript};
use mechanism::FineSchedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scenario terms every topology shares.
pub(crate) struct Terms<'a> {
    pub(crate) true_rates: &'a [f64],
    pub(crate) deviations: &'a [Deviation],
    pub(crate) fine: FineSchedule,
    pub(crate) blocks: usize,
    pub(crate) seed: u64,
}

/// What chain and tree scenarios and reports share: the scenario builder
/// methods and [`Terms`], and the report accessors.
macro_rules! shared_by_chains_and_trees {
    ($scenario:ty, $report:ty, $record:ty) => {
        impl $scenario {
            /// Set agent `P_j`'s deviation (builder style; `j` is 1-based,
            /// in preorder on trees).
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

            /// Number of strategic processors `m`.
            pub fn num_agents(&self) -> usize {
                self.true_rates.len()
            }
        }

        impl<'a> From<&'a $scenario> for Terms<'a> {
            fn from(s: &'a $scenario) -> Self {
                Terms {
                    true_rates: &s.true_rates,
                    deviations: &s.deviations,
                    fine: s.fine,
                    blocks: s.blocks,
                    seed: s.seed,
                }
            }
        }

        impl $report {
            /// Net utility of strategic processor `P_j` (1-based).
            pub fn utility(&self, j: usize) -> f64 {
                self.net_utilities[j - 1]
            }

            /// True if no complaint was filed.
            pub fn clean(&self) -> bool {
                self.arbitrations.is_empty()
            }

            /// Arbitrations that substantiated a deviation.
            pub fn convictions(&self) -> impl Iterator<Item = &$record> {
                self.arbitrations.iter().filter(|a| a.substantiated)
            }
        }
    };
}

shared_by_chains_and_trees!(
    crate::runner::Scenario,
    crate::runner::RunReport,
    ArbitrationRecord
);
shared_by_chains_and_trees!(
    crate::tree_runner::TreeScenario,
    crate::tree_runner::TreeRunReport,
    crate::tree_runner::TreeArbitration
);

/// Phase II's outcome: the load `d[i]` announced to every node (`d[0] =
/// 1`), each node's own prescribed share, and the messages the recipients
/// keep as Phase IV proof (chain only).
pub(crate) struct Allocation {
    pub(crate) d: Vec<f64>,
    pub(crate) assigned: Vec<f64>,
    pub(crate) proofs: Vec<GMessage>,
}

/// Phase III's realized timing; the makespan is the timeline's.
pub(crate) struct Execution {
    pub(crate) gantt: sim::GanttChart,
    pub(crate) events: u64,
    pub(crate) timeline: obs::PhaseTimeline,
}

/// What the four phases need to know about the network's shape. Node ids
/// are the topology's own indexing (`0` = the root); every node's
/// successors have larger ids than the node itself.
pub(crate) trait Phases {
    /// The scenario, whose [`Topology`] hooks give the root rate and the
    /// honest Phase IV bills.
    type Topo: Topology;

    /// Whether the run keeps a message transcript. The transcript speaks
    /// the chain's message format (eq. 2.7 `G` messages), so only the
    /// chain keeps one.
    const TRANSCRIPT: bool;

    /// Salt of the Phase IV audit draws.
    const AUDIT_SALT: u64;

    /// The scenario this run plays out.
    fn scenario(&self) -> &Self::Topo;

    /// Its shared terms.
    fn terms(&self) -> Terms<'_>;

    /// The node `P_j`'s Phase I bid flows up to.
    fn parent(&self, j: NodeId) -> NodeId {
        self.scenario().parent(j)
    }

    /// `P_i`'s honest equivalent rate from its bid and its successors'
    /// reported equivalents (already final in `wbar`).
    fn equivalent(&self, i: NodeId, bids: &[f64], wbar: &[f64]) -> f64;

    /// Phase II: allocate from the reported equivalents, let every
    /// recipient check its message, and file the failures through `run`.
    fn allocate(&self, run: &mut Run, bids: &[f64], wbar: &[f64]) -> Allocation;

    /// Phase III flow from the announcements `d`: `(received, retained)`
    /// per node, shedders keeping less and their victims absorbing it.
    fn flow(&self, d: &[f64], assigned: &[f64]) -> (Vec<f64>, Vec<f64>);

    /// Phase III timing at the metered rates `actual`.
    fn execute(&self, actual: &[f64], received: &[f64], retained: &[f64]) -> Execution;

    /// `P_i`'s deviation (the root is obedient).
    fn deviation(&self, i: NodeId) -> Deviation {
        i.checked_sub(1)
            .map_or(Deviation::None, |k| self.terms().deviations[k])
    }
}

/// The state the phases share: the PKI, the Λ mint, and everything the
/// root arbitrates into.
pub(crate) struct Run {
    pub(crate) registry: Registry,
    pub(crate) mint: BlockMint,
    fine: FineSchedule,
    ledger: Ledger,
    arbitrations: Vec<ArbitrationRecord>,
    pub(crate) transcript: Transcript,
}

impl Run {
    /// File `complaint` with the root, which arbitrates it into the ledger.
    pub(crate) fn file(&mut self, complaint: &Complaint, by: NodeId, victim_rate: f64, phase: u8) {
        let ctx = ArbitrationContext {
            registry: &self.registry,
            mint: &self.mint,
            fine: self.fine,
            victim_rate,
            phase,
        };
        let record = arbitrate(complaint, by, &ctx, &mut self.ledger);
        self.arbitrations.push(record);
    }
}

/// The report of a fault-free run: what recovery reads, then the chain
/// report's extras — the load that reached every node, the audited nodes
/// and the Phase III Gantt chart.
pub(crate) type Outcome = (BaseRun, Vec<f64>, Vec<NodeId>, sim::GanttChart);

/// Play Phases I–IV.
pub(crate) fn run<P: Phases>(net: &P) -> Outcome {
    let t = net.terms();
    let n = t.true_rates.len() + 1;
    let mut run = Run {
        registry: Registry::new(n, t.seed),
        mint: BlockMint::new(t.blocks, t.seed ^ 0x5EED_B10C),
        fine: t.fine,
        ledger: Ledger::new(),
        arbitrations: Vec::new(),
        transcript: Transcript::new(),
    };
    let mut rng = StdRng::seed_from_u64(t.seed ^ P::AUDIT_SALT);

    // ---------- Phase I: bids and equivalent-rate propagation ----------
    // Declared and metered rates (index 0 is the root).
    let mut bids = vec![net.scenario().root_rate(); n];
    let mut actual = bids.clone();
    for j in 1..n {
        let rate = t.true_rates[j - 1];
        (bids[j], actual[j]) = match net.deviation(j) {
            // Cannot beat the hardware; runs at capacity.
            Deviation::Underbid { factor } | Deviation::Overbid { factor } => (rate * factor, rate),
            Deviation::SlackExecution { factor } => (rate, rate * factor),
            _ => (rate, rate),
        };
    }
    // Equivalent rates reported upward; lies propagate.
    let mut wbar = vec![0.0; n];
    for i in (0..n).rev() {
        let honest = net.equivalent(i, &bids, &wbar);
        wbar[i] = match net.deviation(i) {
            Deviation::WrongEquivalent { factor } => honest * factor,
            _ => honest,
        };
    }
    let record_bid = |run: &mut Run, from: NodeId, message: Dsm| {
        if P::TRANSCRIPT {
            let to = net.parent(from);
            run.transcript
                .record(Entry::PhaseIBid { from, to, message });
        }
    };
    for j in 1..n {
        let message = Dsm::new(&run.registry.keypair(j), wbar[j]);
        record_bid(&mut run, j, message);
    }
    obs::count!("protocol.messages", by = (n - 1) as f64, "phase" => 1u8);
    // Contradictory Phase I messages: the sender signs a second value; the
    // parent compares the two. The run continues with the first.
    for j in 1..n {
        if let Deviation::ContradictoryBid { second_factor } = net.deviation(j) {
            let key = run.registry.keypair(j);
            let first = Dsm::new(&key, wbar[j]);
            let second = Dsm::new(&key, wbar[j] * second_factor);
            record_bid(&mut run, j, second);
            obs::count!("protocol.messages", "phase" => 1u8);
            if (first.payload - second.payload).abs() > ARBITRATION_TOL {
                let complaint = Complaint::Contradiction {
                    accused: j,
                    first,
                    second,
                };
                run.file(&complaint, net.parent(j), 0.0, 1);
            }
        }
    }

    // ---------- Phase II: allocation messages ----------
    let alloc = net.allocate(&mut run, &bids, &wbar);
    let d = &alloc.d;
    // False accusations are filed here (the accuser hopes for the reward).
    for j in 1..n {
        if matches!(net.deviation(j), Deviation::FalseAccusation) {
            let accused = net.parent(j);
            run.file(&Complaint::Unfounded { accused }, j, 0.0, 2);
        }
    }

    // ---------- Phase III: distribution, execution, overloads ----------
    let (received, retained) = net.flow(d, &alloc.assigned);
    let exec = net.execute(&actual, &received, &retained);
    // The Λ receipt for `amount`: the tail of the minted blocks.
    let receipt = |mint: &BlockMint, amount: f64| {
        let blocks = mint.to_blocks(amount).min(t.blocks);
        mint.range(t.blocks - blocks, blocks)
    };
    let half_block = 0.5 * run.mint.block_size();
    for c in 1..n {
        obs::count!("protocol.verification.checks", "phase" => 3u8, "node" => c);
        if received[c] > d[c] + half_block {
            let tag = receipt(&run.mint, received[c]);
            if proven_overload(&run.mint, d[c], &tag).is_some() {
                let (accused, expected) = (net.parent(c), d[c]);
                let complaint = Complaint::Overload {
                    accused,
                    expected,
                    tag,
                };
                run.file(&complaint, c, actual[c], 3);
            }
        }
        if P::TRANSCRIPT {
            run.transcript.record(Entry::PhaseIIIDelivery {
                from: net.parent(c),
                to: c,
                amount: received[c],
                tag: receipt(&run.mint, received[c]),
            });
            obs::count!("protocol.messages", "phase" => 3u8);
        }
    }

    // ---------- Phase IV: self-billing and audits ----------
    let mut base = BaseRun {
        bids: bids[1..].to_vec(),
        actual_rates: actual[1..].to_vec(),
        assigned: alloc.assigned,
        retained,
        makespan: exec.timeline.makespan,
        arbitrations: Vec::new(),
        ledger: Ledger::new(),
        net_utilities: Vec::new(),
        transcript: Transcript::new(),
        events: exec.events,
        timeline: exec.timeline,
    };
    // The root meters every rate and Λ-proves every load itself, so its
    // recomputation from a bill's proof is the honest bill.
    let bills: Vec<(f64, f64)> = (1..n).map(net.scenario().billing(&base)).collect();
    let mut audited = Vec::new();
    for (j, &(honest, _)) in (1..n).zip(&bills) {
        let billed = match net.deviation(j) {
            Deviation::Overcharge { amount } => honest + amount,
            _ => honest,
        };
        if P::TRANSCRIPT {
            let bill = Bill {
                node: j,
                amount: billed,
                proof: PaymentProof {
                    g: alloc.proofs[j - 1],
                    meter: Dsm::new(&run.registry.keypair(0), actual[j]),
                    tag: receipt(&run.mint, received[j]),
                    actual_load: base.retained[j],
                },
            };
            let recomputed = honest;
            run.transcript
                .record(Entry::PhaseIVBill { bill, recomputed });
        }
        obs::count!("protocol.messages", "phase" => 4u8);
        let challenged = rng.gen::<f64>() < t.fine.audit_probability;
        if challenged {
            audited.push(j);
            obs::count!("protocol.audits", "node" => j);
            obs::count!("protocol.verification.checks", "phase" => 4u8, "node" => j);
        }
        if challenged && (billed - honest).abs() > ARBITRATION_TOL {
            let fine = t.fine.overcharge_fine();
            obs::hist!("mechanism.fines.levied", fine, "node" => j, "phase" => 4u8);
            run.ledger.post(j, EntryKind::Fine, -fine, 4);
            run.ledger.post(j, EntryKind::Payment, honest, 4);
            run.arbitrations.push(ArbitrationRecord {
                claimant: 0, // the root's audit
                accused: j,
                complaint: "overcharge".to_string(),
                substantiated: true,
                fine,
                extra_penalty: 0.0,
            });
        } else {
            run.ledger.post(j, EntryKind::Payment, billed, 4);
        }
    }
    base.net_utilities = (1..n).map(|j| bills[j - 1].1 + run.ledger.net(j)).collect();
    (base.arbitrations, base.ledger) = (run.arbitrations, run.ledger);
    base.transcript = run.transcript;
    (base, received, audited, exec.gantt)
}

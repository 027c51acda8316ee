//! The fault-tolerant recovery engine, written once for chains and trees.
//!
//! The four-phase protocol's fault recovery depends on the network's
//! topology in only a few places, all collected in the [`Topology`]
//! trait: who detects a silent node and who receives its messages, how a
//! dead node is spliced out (and the survivor→original renumbering that
//! comes with it), how a residual is re-solved over the survivors, and how
//! the root re-settles a silent node's bill. The chain impl lives in
//! [`crate::ft_runner`], the tree impl in [`crate::ft_tree_runner`];
//! everything below is shared.
//!
//! ### Recovery protocol
//! When a strategic processor `P_k` halts (crash-stop in any phase, or a
//! Phase III stall), a detection timer fires, the root probes liveness,
//! and recovery proceeds by *splicing* `P_k` out of the network and
//! re-solving the DLT allocation on the survivors for whatever load `P_k`
//! left unprocessed.
//!
//! * Halt **before distribution** (Phases I–II): the whole unit load is
//!   allocated over the survivors from scratch.
//! * Halt **during computation** (Phase III, at progress `p`): the dead
//!   node's residual `(1 − p)·α̃_k` is re-allocated over the survivors;
//!   each survivor's recovery work is compensated at exactly its metered
//!   cost, so recovery is utility-neutral for the survivors.
//! * Halt **before billing** (Phase IV): all work is done; the root
//!   settles the silent node's account from its own recomputation.
//!
//! The failed node is paid **pro rata** ([`mechanism::payment::pro_rata`])
//! for the work it verifiably completed — made whole for its cost, but no
//! bonus, since bonuses reward finishing the prescribed share.
//!
//! ### Cascading and simultaneous failures
//! A plan may halt any number of *distinct* nodes. The halting faults
//! resolve in [`FaultPlan::detection_order`] — ascending phase, plan order
//! within a phase — and splices compose, so each confirmed failure cuts
//! one node and the survivor network shrinks monotonically:
//!
//! * **Pre-distribution crashes** recurse: the first dead node is spliced
//!   out, the survivors re-run Phases I–II among themselves, and the
//!   remaining faults (renumbered to the spliced network) are recovered
//!   *inside* that re-run. The composed `splice_map` records the final
//!   renumbering.
//! * **Phase III halts** are serialized by the root: the first halt is
//!   detected during the base computation round; each subsequent halt
//!   strikes during the *latest recovery round* — the node has finished
//!   all earlier rounds and its `progress` applies to its current
//!   recovery assignment. A node that dies while performing recovery work
//!   is settled pro rata on everything it completed (its own share plus
//!   the recovery fraction it finished), **not** on its original Λ.
//! * **Phase IV crashes** are simultaneous: the root's billing timers all
//!   fire within one shared timeout window, and the batch of
//!   `Complaint::Unresponsive` probes is arbitrated concurrently
//!   ([`crate::root::arbitrate_concurrent_unresponsive`]) in detection
//!   order.
//!
//! ### Extended Lemma 5.2
//! Faults are operational, not strategic, so they are **no-fault**: across
//! every injected fault — crash, stall, message drop, delay, corruption —
//! no honest processor is ever fined. Timeout complaints resolve by
//! liveness probe with a zero fine either way; corrupted messages are
//! discarded *before* entering the transcript, so replay can never mistake
//! line noise for a forged signature. Deviations remain finable exactly as
//! in the fault-free protocol, and both layers compose: a deviant that
//! later crashes keeps its earlier fines and loses its bonus.
//!
//! ### Modelling simplifications
//! Phase boundaries act as barriers: detection and recovery start after
//! the fault-free schedule of the interrupted phase completes, and
//! recovery rounds are barriers too — the next halt in detection order is
//! confirmed only after the previous round's re-allocation is in flight.
//! A node that halts in phase `p` is treated as absent from phase `p`
//! onward *and* its earlier-phase message interplay is replayed on the
//! spliced network for pre-distribution halts (the survivors re-run
//! Phases I–II among themselves). Recovery allocation is computed on the
//! *reported* (bid) rates, like any Phase II allocation. After a
//! pre-distribution splice the inner protocol transcript and ledger are
//! renumbered back to the original indices via
//! [`FtRunReport::splice_map`].
//!
//! The engine reports in [`FtRunReport`]'s vocabulary, the superset of
//! both report types; the tree converts it to its own report at the end.

use crate::crypto::NodeId;
use crate::faults::{FaultError, FaultEvent, FaultKind, FaultPlan};
use crate::ft_runner::FtRunReport;
use crate::ledger::{EntryKind, Ledger};
use crate::root::{arbitrate_concurrent_unresponsive, arbitrate_unresponsive, ArbitrationRecord};
use crate::runner::ScenarioError;
use crate::transcript::{Entry, Transcript};
use mechanism::payment;

/// Why a fault-tolerant run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum FtError {
    /// The scenario itself is malformed.
    Scenario(ScenarioError),
    /// The fault plan is malformed (for this network size).
    Fault(FaultError),
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::Scenario(e) => write!(f, "invalid scenario: {e}"),
            FtError::Fault(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for FtError {}

impl From<ScenarioError> for FtError {
    fn from(e: ScenarioError) -> Self {
        FtError::Scenario(e)
    }
}

impl From<FaultError> for FtError {
    fn from(e: FaultError) -> Self {
        FtError::Fault(e)
    }
}

/// The accessors both fault-tolerant reports share.
macro_rules! report_helpers {
    ($report:ty) => {
        impl $report {
            /// Net utility of strategic processor `P_j` (original index).
            pub fn utility(&self, j: usize) -> f64 {
                self.net_utilities[j - 1]
            }

            /// True if the total finished load equals the unit workload.
            pub fn load_conserved(&self, tol: f64) -> bool {
                (self.completed.iter().sum::<f64>() - 1.0).abs() <= tol
            }

            /// Makespan overhead attributable to faults and recovery.
            pub fn overhead(&self) -> f64 {
                self.makespan - self.base_makespan
            }

            /// Fines actually paid by `P_j` (as a non-negative number).
            pub fn fines_paid(&self, j: NodeId) -> f64 {
                -(self.ledger.net_of(j, EntryKind::Fine)
                    + self.ledger.net_of(j, EntryKind::ExtraWorkPenalty))
            }

            /// All halted nodes (crashed and stalled), in detection order
            /// within each group.
            pub fn halted(&self) -> impl Iterator<Item = NodeId> + '_ {
                self.crashed.iter().chain(self.stalled.iter()).copied()
            }
        }
    };
}

report_helpers!(FtRunReport);
report_helpers!(crate::ft_tree_runner::FtTreeRunReport);

/// What recovery needs from a fault-free protocol run, for either
/// topology: the fields of the chain's `RunReport` it reads, with the
/// same meaning. A run that keeps no transcript or times no node leaves
/// those empty.
#[derive(Clone)]
pub(crate) struct BaseRun {
    pub(crate) bids: Vec<f64>,
    pub(crate) actual_rates: Vec<f64>,
    pub(crate) assigned: Vec<f64>,
    pub(crate) retained: Vec<f64>,
    pub(crate) makespan: f64,
    pub(crate) arbitrations: Vec<ArbitrationRecord>,
    pub(crate) ledger: Ledger,
    pub(crate) net_utilities: Vec<f64>,
    pub(crate) transcript: Transcript,
    pub(crate) events: u64,
    pub(crate) timeline: obs::PhaseTimeline,
}

/// What recovery needs to know about the network's shape. Node ids are
/// the topology's own indexing (`0` = root); a spliced survivor network
/// is a fresh topology with fresh ids.
pub(crate) trait Topology: Sized {
    /// The network of reported rates that Phase III recovery re-solves
    /// on, spliced as nodes halt.
    type BidNet;

    /// Whether the base run times every node's Phase III work on its
    /// timeline. When it does not, a survivor re-run shows up as one
    /// recovery span at the root.
    const TIMES_NODES: bool;

    /// The trusted root's rate `w_0`.
    fn root_rate(&self) -> f64;

    /// The node `P_k`'s Phase I bid flows up to.
    fn parent(&self, k: NodeId) -> NodeId;

    /// The first node `P_k`'s Phase II allocation flows down to, in
    /// service order — `None` for a node that serves no one.
    fn first_child(&self, k: NodeId) -> Option<NodeId>;

    /// Who notices `P_k` going silent in `phase`. Phase I bids flow upward
    /// (the parent waits); Phase II allocations flow downward (the first
    /// child waits, the root for a node that serves no one); results and
    /// bills are awaited by the root.
    fn detector(&self, k: NodeId, phase: u8) -> NodeId {
        match phase {
            1 => self.parent(k),
            2 => self.first_child(k).unwrap_or(0),
            _ => 0,
        }
    }

    /// Receiver of `P_v`'s outbound message in `phase` — `None` when the
    /// node sends nothing in that phase (a node that serves no one, in
    /// Phases II–III).
    fn receiver(&self, v: NodeId, phase: u8) -> Option<NodeId> {
        match phase {
            1 => Some(self.parent(v)),
            2 | 3 => self.first_child(v),
            _ => Some(0),
        }
    }

    /// The fault-free protocol run.
    fn base_run(&self) -> Result<BaseRun, ScenarioError>;

    /// The survivor scenario with `P_k` spliced out of the *true*-rate
    /// network, and `map[old] = Some(new)` from this topology's ids to
    /// the survivors' (`None` for `k`).
    fn without(&self, k: NodeId) -> (Self, Vec<Option<usize>>);

    /// The unspliced bid network of a base run.
    fn bid_net(&self, base: &BaseRun) -> Self::BidNet;

    /// Splice survivor position `at` out of `net`; `orig_of` (survivor
    /// position → original id) follows the renumbering.
    fn splice_bid_net(net: &mut Self::BidNet, orig_of: &mut Vec<usize>, at: usize);

    /// Per-unit-load makespan and absolute load shares (survivor
    /// positions) of a possibly root-only bid network.
    fn allocation(net: &Self::BidNet) -> (f64, Vec<f64>);

    /// The root's honest re-settlement of a silent Phase IV node, from its
    /// own recomputation: `P_k ↦ (payment, valuation)` as if `P_k` had
    /// billed for its base-round work.
    fn billing<'a>(&'a self, base: &'a BaseRun) -> impl Fn(NodeId) -> (f64, f64) + 'a;

    /// Valuation of `P_j` after `recovery` extra load when it was not
    /// settled pro rata; `billed` is its Phase IV re-settled valuation if
    /// it crashed before billing.
    fn valuation(base: &BaseRun, j: NodeId, billed: Option<f64>, recovery: f64) -> f64;
}

/// Run the topology's scenario under `plan`: the base run, recovery from
/// every halting fault, then the message faults on top.
pub(crate) fn run<T: Topology>(topo: &T, plan: &FaultPlan) -> Result<FtRunReport, FtError> {
    let mut report = recover(topo, &plan.detection_order(), plan.detection_timeout)?;
    apply_message_faults(topo, &mut report, plan);
    Ok(report)
}

/// Run the fault-free protocol and recover from the halting faults in
/// `queue` (already in detection order). Pre-distribution crashes recurse
/// — the survivors re-run the protocol and the remaining queue is
/// recovered inside that re-run; Phase III/IV halts are serialized by
/// [`compute_and_billing_recovery`].
fn recover<T: Topology>(
    topo: &T,
    queue: &[FaultEvent],
    timeout: f64,
) -> Result<FtRunReport, FtError> {
    let base = topo.base_run()?;
    match queue.first().map(|e| (e.node, e.kind.halt_phase())) {
        None => Ok(healthy_report(base)),
        // Only a crash halts in Phase I or II.
        Some((k, Some(p @ (1 | 2)))) => {
            pre_distribution_crash(topo, &base, k, p, &queue[1..], timeout)
        }
        // detection_order sorts by phase, so everything left is Phase
        // III/IV: crashes at phase 3 or 4, and stalls.
        _ => Ok(compute_and_billing_recovery(topo, &base, queue, timeout)),
    }
}

/// No halting fault: the base run, wrapped.
pub(crate) fn healthy_report(base: BaseRun) -> FtRunReport {
    let n = base.assigned.len();
    FtRunReport {
        crashed: Vec::new(),
        stalled: Vec::new(),
        detected: Vec::new(),
        assigned: base.assigned,
        completed: base.retained,
        recovered_load: 0.0,
        recovery_assigned: vec![0.0; n],
        makespan: base.makespan,
        base_makespan: base.makespan,
        arbitrations: base.arbitrations,
        ledger: base.ledger,
        net_utilities: base.net_utilities,
        transcript: base.transcript,
        splice_map: (0..n).map(Some).collect(),
        events: base.events,
        timeline: base.timeline,
    }
}

impl FtRunReport {
    /// Record one detection timeout: `detector` waited out `span` for a
    /// silent `suspect`.
    fn timed_out(
        &mut self,
        detector: NodeId,
        suspect: NodeId,
        phase: u8,
        span: (f64, f64),
        timeout: f64,
    ) {
        obs::count!("protocol.ft.detection_timeouts", "phase" => phase);
        obs::hist!("protocol.ft.timeout_wait", timeout, "phase" => phase);
        self.transcript.record(Entry::Timeout {
            detector,
            suspect,
            phase,
        });
        self.detected.push((detector, suspect, phase));
        self.timeline
            .push(detector, phase, obs::TimelineKind::Timeout, span, 0.0);
    }

    /// Close the report at virtual time `now`.
    fn finish(&mut self, now: f64) {
        self.makespan = now;
        self.timeline.makespan = now;
    }
}

/// Crash in Phase I or II: nothing was distributed; splice and re-run the
/// whole protocol on the survivors — recovering the remaining faults of
/// `rest` *inside* that re-run — then renumber back.
fn pre_distribution_crash<T: Topology>(
    topo: &T,
    base: &BaseRun,
    k: NodeId,
    phase: u8,
    rest: &[FaultEvent],
    timeout: f64,
) -> Result<FtRunReport, FtError> {
    let n = base.assigned.len();
    let m = n - 1;
    let mut r = FtRunReport {
        crashed: vec![k],
        stalled: Vec::new(),
        detected: Vec::new(),
        assigned: vec![0.0; n],
        completed: vec![0.0; n],
        recovered_load: 0.0,
        recovery_assigned: vec![0.0; n],
        makespan: 0.0,
        base_makespan: base.makespan,
        arbitrations: Vec::new(),
        ledger: Ledger::new(),
        net_utilities: vec![0.0; m],
        transcript: Transcript::new(),
        splice_map: vec![Some(0), None],
        events: 0,
        timeline: obs::PhaseTimeline::new(n),
    };

    // Recovery restarts the whole schedule: the virtual clock begins at 0,
    // waits out the detection timeout, then runs the survivor protocol.
    let mut clock = obs::RunClock::new();
    let detector = topo.detector(k, phase);
    let timeout_span = clock.advance(timeout);
    r.timed_out(detector, k, phase, timeout_span, timeout);
    r.arbitrations
        .push(arbitrate_unresponsive(detector, k, false));
    obs::event!("protocol.ft.splice", vt = clock.now(), "dead" => k, "phase" => phase);
    r.timeline
        .mark(k, phase, obs::TimelineKind::Splice, timeout_span.1);

    if m == 1 {
        // No strategic survivor: the obedient root computes the whole unit
        // load itself at rate w_0. (`rest` is necessarily empty — the only
        // strategic node is the one that crashed.)
        debug_assert!(rest.is_empty());
        r.transcript.record(Entry::Recovery {
            dead: k,
            residual: 0.0,
            reassigned: vec![(0, 1.0)],
        });
        r.assigned[0] = 1.0;
        r.completed[0] = 1.0;
        let root_span = clock.advance(topo.root_rate());
        r.timeline
            .push(0, 3, obs::TimelineKind::Recovery, root_span, 1.0);
        r.finish(clock.now());
        return Ok(r);
    }

    // Splice the network of *true* rates; bids re-derive from the
    // surviving nodes' deviations inside the inner run.
    let (survivors, map) = topo.without(k);
    let orig_of = originals(&map);
    // The remaining faults, renumbered to the spliced network, are
    // recovered *inside* the survivor re-run: recovery-during-recovery
    // re-enters the splice path.
    let inner_rest: Vec<FaultEvent> = rest
        .iter()
        .map(|e| FaultEvent {
            node: map[e.node].expect("remaining faults strike survivors"),
            kind: e.kind,
        })
        .collect();
    let inner = recover(&survivors, &inner_rest, timeout)?;
    obs::event!(
        "protocol.ft.residual_resolve",
        vt = clock.now(),
        "dead" => k,
        "survivors" => inner.assigned.len()
    );
    let recovery_span = clock.advance(inner.makespan);
    if !T::TIMES_NODES {
        r.timeline
            .push(0, 3, obs::TimelineKind::Recovery, recovery_span, 1.0);
    }
    // The survivor protocol's Phase III work, shifted past the timeout and
    // renumbered to the original network. A nested recovery's own timeout,
    // splice and recovery spans pass through the same shift.
    for s in &inner.timeline.spans {
        let shifted = (recovery_span.0 + s.start, recovery_span.0 + s.end);
        let kind = match s.kind {
            obs::TimelineKind::Work if s.phase == 3 => obs::TimelineKind::Recovery,
            obs::TimelineKind::Work => continue,
            kind => kind,
        };
        r.timeline
            .push(orig_of[s.node], s.phase, kind, shifted, s.load);
    }

    r.transcript.record(Entry::Recovery {
        dead: k,
        residual: 0.0,
        reassigned: inner
            .assigned
            .iter()
            .enumerate()
            .map(|(si, &a)| (orig_of[si], a))
            .collect(),
    });
    for e in inner.transcript.entries() {
        r.transcript.record(e.clone());
    }

    // Renumber everything back to original indices.
    for (si, &orig) in orig_of.iter().enumerate() {
        r.assigned[orig] = inner.assigned[si];
        r.completed[orig] = inner.completed[si];
        r.recovery_assigned[orig] = inner.recovery_assigned[si];
        if si >= 1 {
            r.net_utilities[orig - 1] = inner.net_utilities[si - 1];
        }
    }
    for e in inner.ledger.entries() {
        r.ledger.post(orig_of[e.node], e.kind, e.amount, e.phase);
    }
    r.arbitrations
        .extend(inner.arbitrations.iter().map(|a| ArbitrationRecord {
            claimant: orig_of[a.claimant],
            accused: orig_of[a.accused],
            ..a.clone()
        }));
    r.detected.extend(
        inner
            .detected
            .iter()
            .map(|&(d, s, p)| (orig_of[d], orig_of[s], p)),
    );
    r.crashed.extend(inner.crashed.iter().map(|&c| orig_of[c]));
    r.stalled = inner.stalled.iter().map(|&st| orig_of[st]).collect();
    // Compose the outer splice with whatever the inner recovery spliced.
    r.splice_map = map
        .iter()
        .map(|new| new.and_then(|ni| inner.splice_map[ni]))
        .collect();
    r.recovered_load = inner.recovered_load;
    r.events = inner.events;
    r.finish(clock.now());
    Ok(r)
}

/// Serialized recovery of every Phase III halt (crash or stall) followed
/// by the simultaneous settlement of every Phase IV crash.
///
/// Each Phase III halt costs one detection timeout, splices the dead node
/// out of the running bid network, and re-solves its unfinished work on
/// the remaining survivors; the next halt in detection order strikes
/// during that recovery round. Phase IV crashes share a single timeout
/// window — their billing timers fire concurrently — and are arbitrated
/// as a batch.
fn compute_and_billing_recovery<T: Topology>(
    topo: &T,
    base: &BaseRun,
    queue: &[FaultEvent],
    timeout: f64,
) -> FtRunReport {
    let n = base.assigned.len();
    let m = n - 1;
    // Start from the fault-free report; the recovery clock picks up where
    // the fault-free schedule ended.
    let mut r = healthy_report(base.clone());
    let mut clock = obs::RunClock::starting_at(base.makespan);

    // The running spliced *bid* network — recovery allocation is a Phase
    // II re-solve on reported rates — and the original index of each
    // surviving position.
    let mut net = topo.bid_net(base);
    let mut orig_of: Vec<usize> = (0..n).collect();
    // What each node is working on in the current round: `None` is the
    // base Phase III round (work = base.retained); after a splice it is
    // the latest recovery re-allocation, indexed by original node id.
    let mut round_assign: Option<Vec<f64>> = None;

    // Everything in the queue halts in Phase III or IV.
    let (phase3, phase4): (Vec<&FaultEvent>, Vec<&FaultEvent>) =
        queue.iter().partition(|e| e.kind.halt_phase() == Some(3));

    for e in &phase3 {
        let k = e.node;
        let (progress, alive) = match e.kind {
            FaultKind::Crash { progress, .. } => (progress, false),
            FaultKind::Stall { progress } => (progress, true),
            _ => unreachable!("phase filter admits only halting faults"),
        };
        // How much of its current round's work the node finished before
        // halting. In the base round that is `progress` of its retained
        // share; in a recovery round, `progress` of its latest recovery
        // assignment (all earlier rounds completed in full).
        let residual = match &round_assign {
            None => {
                let done_k = progress * base.retained[k];
                r.completed[k] = done_k;
                base.retained[k] - done_k
            }
            Some(assign) => {
                let residual = assign[k] - progress * assign[k];
                r.completed[k] -= residual;
                r.recovery_assigned[k] -= residual;
                residual
            }
        };

        let detector = topo.detector(k, 3);
        let timeout_span = clock.advance(timeout);
        r.timed_out(detector, k, 3, timeout_span, timeout);
        r.arbitrations
            .push(arbitrate_unresponsive(detector, k, alive));
        if alive {
            r.stalled.push(k);
        } else {
            r.crashed.push(k);
        }
        obs::event!("protocol.ft.splice", vt = clock.now(), "dead" => k, "phase" => 3u8);

        // Splice the halted node out of the running survivor network and
        // re-solve its unfinished work.
        let at = orig_of
            .iter()
            .position(|&o| o == k)
            .expect("halted node is on the survivor network");
        T::splice_bid_net(&mut net, &mut orig_of, at);
        let (per_unit_makespan, shares) = T::allocation(&net);
        obs::event!(
            "protocol.ft.residual_resolve",
            vt = clock.now(),
            "dead" => k,
            "residual" => residual,
            "survivors" => shares.len()
        );

        let mut round = vec![0.0; n];
        let mut reassigned = Vec::with_capacity(shares.len());
        for (si, &share) in shares.iter().enumerate() {
            let orig = orig_of[si];
            let extra = residual * share;
            r.recovery_assigned[orig] += extra;
            r.completed[orig] += extra;
            round[orig] = extra;
            reassigned.push((orig, extra));
        }
        r.transcript.record(Entry::Recovery {
            dead: k,
            residual,
            reassigned,
        });

        let recovery_span = clock.advance(residual * per_unit_makespan);
        r.timeline
            .mark(k, 3, obs::TimelineKind::Splice, recovery_span.0);
        for (orig, &extra) in round.iter().enumerate() {
            if extra > 0.0 {
                r.timeline
                    .push(orig, 3, obs::TimelineKind::Recovery, recovery_span, extra);
            }
        }
        r.recovered_load += residual;
        round_assign = Some(round);
    }

    // Phase IV crashes are simultaneous: every billing timer fires within
    // the same timeout window, and the root probes the whole batch.
    if !phase4.is_empty() {
        let timeout_span = clock.advance(timeout);
        let mut probes = Vec::with_capacity(phase4.len());
        for e in &phase4 {
            let detector = topo.detector(e.node, 4);
            r.timed_out(detector, e.node, 4, timeout_span, timeout);
            r.crashed.push(e.node);
            probes.push((detector, e.node, false));
        }
        r.arbitrations
            .extend(arbitrate_concurrent_unresponsive(&probes));
    }

    // Rebuild the ledger: every halted node's Phase IV settlement
    // (payment, and any audit outcome of a bill it never submitted) is
    // voided at once, then re-settled — Phase III halts pro rata on what
    // they verifiably completed, Phase IV crashes from the root's own
    // recomputation — and survivors are paid their recovery work at
    // metered cost. Earlier-phase fines and rewards stand.
    let halted: Vec<NodeId> = queue.iter().map(|e| e.node).collect();
    r.ledger = base.ledger.without_entries_of(&halted, 4);
    let mut pro_rata_of: Vec<Option<f64>> = vec![None; n];
    for e in &phase3 {
        let k = e.node;
        let pr = payment::pro_rata(r.completed[k], base.actual_rates[k - 1]);
        r.ledger.post(k, EntryKind::Payment, pr.payment, 4);
        pro_rata_of[k] = Some(pr.valuation);
    }
    let mut billed_of: Vec<Option<f64>> = vec![None; n];
    if !phase4.is_empty() {
        let bill = topo.billing(base);
        for e in &phase4 {
            let k = e.node;
            let (honest_payment, valuation) = bill(k);
            r.ledger.post(k, EntryKind::Payment, honest_payment, 4);
            // A Phase IV casualty that performed recovery work earlier is
            // paid that wage too — it finished it before dying.
            post_recovery_wage(&mut r, base, k);
            billed_of[k] = Some(valuation);
        }
    }
    for j in (1..=m).filter(|j| !halted.contains(j)) {
        post_recovery_wage(&mut r, base, j);
    }

    // Net utilities: valuation adjusted for the changed workloads, plus
    // the rebuilt ledger. When nothing halted mid-computation no workload
    // changed, so survivors keep their base utilities verbatim.
    for j in 1..=m {
        let valuation = match (pro_rata_of[j], billed_of[j]) {
            (Some(pro_rata), _) => pro_rata,
            (None, billed) if !phase3.is_empty() => {
                T::valuation(base, j, billed, r.recovery_assigned[j])
            }
            (None, Some(billed)) => billed,
            (None, None) => continue,
        };
        r.net_utilities[j - 1] = valuation + r.ledger.net(j);
    }
    r.finish(clock.now());
    r
}

/// Invert a splice map: the original id of every survivor position.
pub(crate) fn originals(map: &[Option<usize>]) -> Vec<usize> {
    let mut orig_of = vec![0; map.len() - 1];
    for (old, new) in map.iter().enumerate() {
        if let Some(new) = new {
            orig_of[*new] = old;
        }
    }
    orig_of
}

/// Pay `P_j` its recovery work, if any, at metered cost.
fn post_recovery_wage(r: &mut FtRunReport, base: &BaseRun, j: NodeId) {
    if r.recovery_assigned[j] > 0.0 {
        r.ledger.post(
            j,
            EntryKind::Payment,
            payment::recovery_wage(r.recovery_assigned[j], base.actual_rates[j - 1]),
            4,
        );
    }
}

/// Layer the plan's message faults on top of the halting-fault report:
/// each drop/corruption costs one detection timeout (and files a no-fault
/// timeout complaint that the liveness probe rejects); each delay adds its
/// latency. Messages of halted nodes are skipped — their silence is
/// already the halting faults' story — and so are messages a node never
/// sends. Corrupted messages never enter the transcript: only the
/// retransmitted, well-signed copy is recorded, so replay cannot
/// incriminate the sender.
pub(crate) fn apply_message_faults<T: Topology>(
    topo: &T,
    report: &mut FtRunReport,
    plan: &FaultPlan,
) {
    // Message-fault overhead accrues on the same clock the halting-fault
    // path ended on.
    let mut clock = obs::RunClock::starting_at(report.makespan);
    for event in plan.message_faults() {
        if report.halted().any(|h| h == event.node) {
            continue;
        }
        match event.kind {
            FaultKind::DropMessage { phase } | FaultKind::CorruptMessage { phase } => {
                let Some(receiver) = topo.receiver(event.node, phase) else {
                    continue;
                };
                let wait = clock.advance(plan.detection_timeout);
                report.timed_out(receiver, event.node, phase, wait, plan.detection_timeout);
                report
                    .arbitrations
                    .push(arbitrate_unresponsive(receiver, event.node, true));
            }
            FaultKind::DelayMessage { phase, delay } => {
                if topo.receiver(event.node, phase).is_some() {
                    clock.advance(delay);
                }
            }
            FaultKind::Crash { .. } | FaultKind::Stall { .. } => unreachable!("filtered"),
        }
    }
    report.finish(clock.now());
}

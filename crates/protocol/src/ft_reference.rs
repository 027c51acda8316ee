//! The **frozen single-failure recovery path** (PR 1), kept verbatim as a
//! differential-testing reference for the generalized cascading engine in
//! [`crate::ft_runner`].
//!
//! When multi-failure support was added, the single-failure logic was
//! rewritten into the round-based engine of
//! [`crate::ft_runner::run_with_faults`]. To guard against regressions
//! while generalizing, this module preserves the original three recovery
//! paths (pre-distribution crash, mid-computation halt, pre-billing
//! crash) exactly as PR 1 shipped them — same control flow, same
//! floating-point expression shapes — so the `multi_fault` differential
//! suite can assert that every single-failure `FaultPlan` produces a
//! **byte-identical** [`FtRunReport`] through both engines.
//!
//! Do not "improve" this module: its value is being frozen. It shares
//! only leaf helpers with the live engine — the chain topology's
//! detection rule, survivor splice, bid chain, residual allocation and
//! honest Phase IV bill (`Topology::{detector, without, bid_net,
//! allocation, billing}`), the engine's `healthy_report` and
//! `apply_message_faults`, and `Ledger::without_entries_of`; all
//! orchestration logic is duplicated on purpose.

use crate::crypto::NodeId;
use crate::faults::{FaultKind, FaultPlan};
use crate::ft_engine::{apply_message_faults, healthy_report, originals, BaseRun, Topology};
use crate::ft_runner::{FtError, FtRunReport};
use crate::ledger::{EntryKind, Ledger};
use crate::root::{arbitrate_unresponsive, ArbitrationRecord};
use crate::runner::{try_run, Scenario};
use crate::transcript::{Entry, Transcript};
use dlt::linear;
use mechanism::payment;

/// Execute `scenario` under a **single-failure** `plan` through the
/// original PR 1 recovery path.
///
/// # Panics
/// Panics if the plan carries more than one halting fault — this path
/// predates cascading failures by construction.
pub fn run_with_faults_single(
    scenario: &Scenario,
    plan: &FaultPlan,
) -> Result<FtRunReport, FtError> {
    scenario.validate()?;
    let m = scenario.num_agents();
    plan.validate(m)?;
    assert!(
        plan.halting_faults().count() <= 1,
        "the frozen reference path handles at most one halting fault"
    );
    let n = m + 1;
    let timeout = plan.detection_timeout;

    let base = BaseRun::from(try_run(scenario)?);
    let identity_map: Vec<Option<usize>> = (0..n).map(Some).collect();

    let mut report = match plan.halting_fault() {
        None => healthy_report(base),
        Some((
            k,
            FaultKind::Crash {
                phase: p @ (1 | 2), ..
            },
        )) => pre_distribution_crash(scenario, &base, k, p, timeout)?,
        Some((k, FaultKind::Crash { phase: 3, progress })) => {
            mid_computation_halt(scenario, &base, k, progress, timeout, false, identity_map)
        }
        Some((k, FaultKind::Stall { progress })) => {
            mid_computation_halt(scenario, &base, k, progress, timeout, true, identity_map)
        }
        Some((k, FaultKind::Crash { .. })) => {
            pre_billing_crash(scenario, &base, k, timeout, identity_map)
        }
        Some((_, _)) => unreachable!("halting_fault returns only Crash/Stall"),
    };

    apply_message_faults(scenario, &mut report, plan);
    Ok(report)
}

/// Crash in Phase I or II: nothing was distributed; splice and re-run the
/// whole protocol on the survivor chain, then renumber back.
fn pre_distribution_crash(
    scenario: &Scenario,
    base: &BaseRun,
    k: NodeId,
    phase: u8,
    timeout: f64,
) -> Result<FtRunReport, FtError> {
    let m = scenario.num_agents();
    let n = m + 1;

    let detector = scenario.detector(k, phase);
    let mut transcript = Transcript::new();
    transcript.record(Entry::Timeout {
        detector,
        suspect: k,
        phase,
    });
    let mut arbitrations = vec![arbitrate_unresponsive(detector, k, false)];
    let detected = vec![(detector, k, phase)];

    // Recovery restarts the whole schedule: the virtual clock begins at 0,
    // waits out the detection timeout, then runs the survivor protocol.
    let mut clock = obs::RunClock::new();
    let timeout_span = clock.advance(timeout);
    let mut timeline = obs::PhaseTimeline::new(n);
    timeline.push(
        detector,
        phase,
        obs::TimelineKind::Timeout,
        timeout_span,
        0.0,
    );
    timeline.mark(k, phase, obs::TimelineKind::Splice, timeout_span.1);

    if m == 1 {
        // No strategic survivor: the obedient root computes the whole unit
        // load itself at rate w_0.
        transcript.record(Entry::Recovery {
            dead: k,
            residual: 0.0,
            reassigned: vec![(0, 1.0)],
        });
        let mut assigned = vec![0.0; n];
        assigned[0] = 1.0;
        let root_span = clock.advance(scenario.root_rate);
        timeline.push(0, 3, obs::TimelineKind::Recovery, root_span, 1.0);
        timeline.makespan = clock.now();
        return Ok(FtRunReport {
            crashed: vec![k],
            stalled: Vec::new(),
            detected,
            completed: assigned.clone(),
            assigned,
            recovered_load: 0.0,
            recovery_assigned: vec![0.0; n],
            makespan: clock.now(),
            base_makespan: base.makespan,
            arbitrations,
            ledger: Ledger::new(),
            net_utilities: vec![0.0],
            transcript,
            splice_map: vec![Some(0), None],
            events: 0,
            timeline,
        });
    }

    // Splice the chain of *true* rates; bids re-derive from the surviving
    // nodes' deviations inside the inner run.
    let (inner_scenario, splice_map) = scenario.without(k);
    let orig_of = originals(&splice_map);
    let inner = try_run(&inner_scenario)?;
    let recovery_span = clock.advance(inner.makespan);
    // The survivor protocol's Phase III work, shifted past the timeout and
    // renumbered to the original chain.
    for s in inner.timeline.of(obs::TimelineKind::Work) {
        if s.phase == 3 {
            timeline.push(
                orig_of[s.node],
                3,
                obs::TimelineKind::Recovery,
                (recovery_span.0 + s.start, recovery_span.0 + s.end),
                s.load,
            );
        }
    }
    timeline.makespan = clock.now();

    transcript.record(Entry::Recovery {
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
        transcript.record(e.clone());
    }

    // Renumber everything back to original indices.
    let mut assigned = vec![0.0; n];
    let mut completed = vec![0.0; n];
    for si in 0..inner.assigned.len() {
        assigned[orig_of[si]] = inner.assigned[si];
        completed[orig_of[si]] = inner.retained[si];
    }
    let mut ledger = Ledger::new();
    for e in inner.ledger.entries() {
        ledger.post(orig_of[e.node], e.kind, e.amount, e.phase);
    }
    arbitrations.extend(inner.arbitrations.iter().map(|a| ArbitrationRecord {
        claimant: orig_of[a.claimant],
        accused: orig_of[a.accused],
        ..a.clone()
    }));
    let mut net_utilities = vec![0.0; m];
    for sj in 1..=m - 1 {
        net_utilities[orig_of[sj] - 1] = inner.net_utilities[sj - 1];
    }

    Ok(FtRunReport {
        crashed: vec![k],
        stalled: Vec::new(),
        detected,
        assigned,
        completed,
        recovered_load: 0.0,
        recovery_assigned: vec![0.0; n],
        makespan: clock.now(),
        base_makespan: base.makespan,
        arbitrations,
        ledger,
        net_utilities,
        transcript,
        splice_map,
        events: inner.events,
        timeline,
    })
}

/// Crash or stall during Phase III computation at fraction `progress`:
/// splice, re-allocate the residual, settle the halted node pro rata and
/// the survivors' recovery work at cost.
fn mid_computation_halt(
    scenario: &Scenario,
    base: &BaseRun,
    k: NodeId,
    progress: f64,
    timeout: f64,
    alive: bool,
    splice_map: Vec<Option<usize>>,
) -> FtRunReport {
    let m = scenario.num_agents();
    let n = m + 1;
    let actual_k = base.actual_rates[k - 1];
    let done_k = progress * base.retained[k];
    let residual = base.retained[k] - done_k;

    let detector = scenario.detector(k, 3);
    let mut transcript = base.transcript.clone();
    transcript.record(Entry::Timeout {
        detector,
        suspect: k,
        phase: 3,
    });
    let mut arbitrations = base.arbitrations.clone();
    arbitrations.push(arbitrate_unresponsive(detector, k, alive));

    // The recovery clock picks up where the fault-free schedule ended:
    // detection wait, splice, then the residual re-computation.
    let mut clock = obs::RunClock::starting_at(base.makespan);
    let timeout_span = clock.advance(timeout);

    // Re-solve on the spliced *bid* chain, as any Phase II allocation.
    let spliced = linear::splice(&scenario.bid_net(base), k);
    let (per_unit_makespan, shares) = Scenario::allocation(&spliced);

    let mut completed = base.retained.clone();
    completed[k] = done_k;
    let mut recovery_assigned = vec![0.0; n];
    let mut reassigned = Vec::with_capacity(shares.len());
    for (si, &share) in shares.iter().enumerate() {
        let orig = if si < k { si } else { si + 1 };
        let extra = residual * share;
        recovery_assigned[orig] = extra;
        completed[orig] += extra;
        reassigned.push((orig, extra));
    }
    transcript.record(Entry::Recovery {
        dead: k,
        residual,
        reassigned,
    });

    let recovery_span = clock.advance(residual * per_unit_makespan);
    let mut timeline = base.timeline.clone();
    timeline.push(detector, 3, obs::TimelineKind::Timeout, timeout_span, 0.0);
    timeline.mark(k, 3, obs::TimelineKind::Splice, recovery_span.0);
    for (orig, &extra) in recovery_assigned.iter().enumerate() {
        if extra > 0.0 {
            timeline.push(orig, 3, obs::TimelineKind::Recovery, recovery_span, extra);
        }
    }
    timeline.makespan = clock.now();

    // Rebuild the ledger: the halted node's Phase IV settlement (payment,
    // and any audit outcome of a bill it never submitted) is replaced by
    // pro-rata compensation; survivors are paid their recovery work at
    // metered cost. Earlier-phase fines and rewards stand.
    let mut ledger = base.ledger.without_entries_of(&[k], 4);
    let pro_rata = payment::pro_rata(done_k, actual_k);
    ledger.post(k, EntryKind::Payment, pro_rata.payment, 4);
    for j in 1..=m {
        if j != k && recovery_assigned[j] > 0.0 {
            ledger.post(
                j,
                EntryKind::Payment,
                recovery_assigned[j] * base.actual_rates[j - 1],
                4,
            );
        }
    }

    // Net utilities: valuation (recovered from the base report) adjusted
    // for the changed workloads, plus the rebuilt ledger.
    let mut net_utilities = vec![0.0; m];
    for j in 1..=m {
        let valuation = if j == k {
            pro_rata.valuation
        } else {
            let base_valuation = base.net_utilities[j - 1] - base.ledger.net(j);
            base_valuation - recovery_assigned[j] * base.actual_rates[j - 1]
        };
        net_utilities[j - 1] = valuation + ledger.net(j);
    }

    FtRunReport {
        crashed: if alive { Vec::new() } else { vec![k] },
        stalled: if alive { vec![k] } else { Vec::new() },
        detected: vec![(detector, k, 3)],
        assigned: base.assigned.clone(),
        completed,
        recovered_load: residual,
        recovery_assigned,
        makespan: clock.now(),
        base_makespan: base.makespan,
        arbitrations,
        ledger,
        net_utilities,
        transcript,
        splice_map,
        events: base.events,
        timeline,
    }
}

/// Crash in Phase IV: all work is done, only the bill is missing. After
/// the timeout the root settles the silent node from its own recomputation
/// (the proof data it already holds), which also voids any inflated bill
/// the node would have submitted.
fn pre_billing_crash(
    scenario: &Scenario,
    base: &BaseRun,
    k: NodeId,
    timeout: f64,
    splice_map: Vec<Option<usize>>,
) -> FtRunReport {
    let m = scenario.num_agents();
    let n = m + 1;
    let detector = scenario.detector(k, 4);
    let mut transcript = base.transcript.clone();
    transcript.record(Entry::Timeout {
        detector,
        suspect: k,
        phase: 4,
    });
    let mut arbitrations = base.arbitrations.clone();
    arbitrations.push(arbitrate_unresponsive(detector, k, false));

    let mut clock = obs::RunClock::starting_at(base.makespan);
    let timeout_span = clock.advance(timeout);
    let mut timeline = base.timeline.clone();
    timeline.push(detector, 4, obs::TimelineKind::Timeout, timeout_span, 0.0);
    timeline.makespan = clock.now();

    let (honest_payment, honest_valuation) = scenario.billing(base)(k);

    let mut ledger = base.ledger.without_entries_of(&[k], 4);
    ledger.post(k, EntryKind::Payment, honest_payment, 4);

    let mut net_utilities = base.net_utilities.clone();
    net_utilities[k - 1] = honest_valuation + ledger.net(k);

    FtRunReport {
        crashed: vec![k],
        stalled: Vec::new(),
        detected: vec![(detector, k, 4)],
        assigned: base.assigned.clone(),
        completed: base.retained.clone(),
        recovered_load: 0.0,
        recovery_assigned: vec![0.0; n],
        makespan: clock.now(),
        base_makespan: base.makespan,
        arbitrations,
        ledger,
        net_utilities,
        transcript,
        splice_map,
        events: base.events,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft_runner::run_with_faults;

    fn scenario() -> Scenario {
        Scenario::honest(1.0, vec![2.0, 0.5, 4.0], vec![0.2, 0.1, 0.7])
    }

    #[test]
    fn reference_agrees_with_live_engine_on_a_smoke_grid() {
        // The full differential sweep lives in tests/multi_fault.rs; this
        // is the fast in-crate smoke check.
        let s = scenario();
        for k in 1..=3 {
            for phase in 1..=4u8 {
                for progress in [0.0, 0.5, 1.0] {
                    let plan = FaultPlan::crash(k, phase, progress);
                    let frozen = run_with_faults_single(&s, &plan).unwrap();
                    let live = run_with_faults(&s, &plan).unwrap();
                    assert_eq!(
                        format!("{frozen:?}"),
                        format!("{live:?}"),
                        "k={k} phase={phase} p={progress}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most one halting fault")]
    fn reference_refuses_multi_failure_plans() {
        let plan = FaultPlan::crash(1, 3, 0.5).with_event(
            2,
            FaultKind::Crash {
                phase: 4,
                progress: 0.0,
            },
        );
        let _ = run_with_faults_single(&scenario(), &plan);
    }
}

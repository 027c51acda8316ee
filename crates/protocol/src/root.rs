//! Root-side arbitration (§4): the obedient root `P_0` receives complaints
//! with evidence, substantiates or rejects them, and levies fines/rewards
//! into the ledger.
//!
//! Lemma 5.2's guarantee — *a processor is fined only if it deviated* — is
//! implemented literally: the root trusts nothing but signatures it can
//! verify and arithmetic it can recompute.

use crate::crypto::{NodeId, Registry};
use crate::lambda::{BlockMint, LoadTag};
use crate::ledger::{EntryKind, Ledger};
use crate::messages::Complaint;
use mechanism::FineSchedule;

/// Tolerance for the root's arithmetic recomputation.
pub const ARBITRATION_TOL: f64 = 1e-9;

/// Outcome of arbitrating one complaint.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbitrationRecord {
    /// Who filed the complaint.
    pub claimant: NodeId,
    /// Who was accused.
    pub accused: NodeId,
    /// Short label of the complaint type.
    pub complaint: String,
    /// True if the root substantiated the claim (accused is fined), false
    /// if the accused was exculpated (claimant is fined).
    pub substantiated: bool,
    /// The fine levied (on the accused if substantiated, else on the
    /// claimant).
    pub fine: f64,
    /// Extra penalty charged to the offender on top of `F` (Phase III
    /// overload: the victim's extra work `(α̃−α)·w̃`).
    pub extra_penalty: f64,
}

/// Evidence the root consults beyond the complaint itself.
pub struct ArbitrationContext<'a> {
    /// The PKI registry.
    pub registry: &'a Registry,
    /// The Λ block mint (Phase III overload proofs).
    pub mint: &'a BlockMint,
    /// The fine schedule.
    pub fine: FineSchedule,
    /// The victim's metered rate, for the extra-work penalty of Phase III.
    pub victim_rate: f64,
    /// The phase the complaint arose in (ledger bookkeeping).
    pub phase: u8,
}

/// Arbitrate one complaint, posting fines and rewards to the ledger.
pub fn arbitrate(
    complaint: &Complaint,
    claimant: NodeId,
    ctx: &ArbitrationContext<'_>,
    ledger: &mut Ledger,
) -> ArbitrationRecord {
    let accused = complaint.accused();
    obs::count!("protocol.complaints.filed", "phase" => ctx.phase, "accused" => accused);
    let (substantiated, extra_penalty, label) = match complaint {
        Complaint::Contradiction {
            accused,
            first,
            second,
        } => {
            let both_authentic = first.verify(ctx.registry, Some(*accused))
                && second.verify(ctx.registry, Some(*accused));
            let different = (first.payload - second.payload).abs() > ARBITRATION_TOL;
            (both_authentic && different, 0.0, "contradiction")
        }
        Complaint::BadComputation {
            evidence,
            recipient_bid,
            link_rate,
            ..
        } => {
            // The root replays the recipient's checks. Any failure means
            // the sender deviated (signatures were already verified by the
            // recipient; the root re-verifies them too).
            let failed = evidence
                .check(
                    ctx.registry,
                    claimant,
                    *recipient_bid,
                    *link_rate,
                    ARBITRATION_TOL,
                )
                .is_err();
            (failed, 0.0, "bad-computation")
        }
        Complaint::BadDecision {
            accused,
            grandparent,
            evidence,
        } => (
            !evidence.check(ctx.registry, [*grandparent, *accused], claimant),
            0.0,
            "bad-computation",
        ),
        Complaint::Overload { expected, tag, .. } => {
            match proven_overload(ctx.mint, *expected, tag) {
                Some(excess) => (true, excess * ctx.victim_rate, "overload"),
                None => (false, 0.0, "overload"),
            }
        }
        Complaint::Unfounded { .. } => (false, 0.0, "unfounded"),
        // Timeouts cannot be substantiated from signed evidence alone — a
        // dropped message is indistinguishable from a crash. The root
        // resolves them out of band via a liveness probe
        // ([`arbitrate_unresponsive`]); routed here they are no-fault.
        Complaint::Unresponsive { .. } => (false, 0.0, "unresponsive"),
    };

    let f = if matches!(complaint, Complaint::Unresponsive { .. }) {
        0.0
    } else {
        ctx.fine.deviation_fine()
    };
    if substantiated {
        obs::count!("protocol.complaints.substantiated", "phase" => ctx.phase, "accused" => accused);
    }
    if f > 0.0 {
        let fined = if substantiated { accused } else { claimant };
        obs::hist!(
            "mechanism.fines.levied",
            f + extra_penalty,
            "node" => fined,
            "phase" => ctx.phase
        );
        if substantiated {
            ledger.post(accused, EntryKind::Fine, -f, ctx.phase);
            ledger.post(claimant, EntryKind::Reward, f, ctx.phase);
            if extra_penalty > 0.0 {
                ledger.post(
                    accused,
                    EntryKind::ExtraWorkPenalty,
                    -extra_penalty,
                    ctx.phase,
                );
            }
        } else {
            ledger.post(claimant, EntryKind::Fine, -f, ctx.phase);
            ledger.post(accused, EntryKind::Reward, f, ctx.phase);
        }
    }
    ArbitrationRecord {
        claimant,
        accused,
        complaint: label.to_string(),
        substantiated,
        fine: f,
        extra_penalty,
    }
}

/// The load a Λ `tag` proves beyond the Phase II prescription `expected`,
/// if that excess tops half a block (the rounding guard). The root
/// substantiates an overload grievance exactly when this is `Some`, and an
/// honest victim files one only then.
pub(crate) fn proven_overload(mint: &BlockMint, expected: f64, tag: &LoadTag) -> Option<f64> {
    let excess = mint.verify(tag)? - expected;
    (excess > 0.5 * mint.block_size()).then_some(excess)
}

/// Resolve an [`Complaint::Unresponsive`] timeout complaint by liveness
/// probe: the root pings the accused and substantiates the complaint iff
/// the node is genuinely down. Either way **no fine is levied and nothing
/// is posted to the ledger** — failure is no-fault, and a live node that
/// merely suffered a dropped message owes nothing, while the reporter who
/// experienced a real timeout is not punished for raising it. This is the
/// fault-tolerant extension of Lemma 5.2: across every injected fault, a
/// processor still pays only if it *deviated*.
pub fn arbitrate_unresponsive(claimant: NodeId, accused: NodeId, alive: bool) -> ArbitrationRecord {
    ArbitrationRecord {
        claimant,
        accused,
        complaint: "unresponsive".to_string(),
        substantiated: !alive,
        fine: 0.0,
        extra_penalty: 0.0,
    }
}

/// Resolve a batch of **concurrent** [`Complaint::Unresponsive`]
/// complaints — simultaneous failures whose detection timers all fire in
/// the same timeout window. The root probes each accused node in the
/// given order (which is the plan's deterministic detection order), so
/// the arbitration records of simultaneous failures are serialized
/// exactly like everything else in the run. Each probe is resolved by
/// [`arbitrate_unresponsive`]: no-fault, zero fine either way.
pub fn arbitrate_concurrent_unresponsive(
    probes: &[(NodeId, NodeId, bool)],
) -> Vec<ArbitrationRecord> {
    obs::count!("protocol.complaints.concurrent_unresponsive", "batch" => probes.len());
    probes
        .iter()
        .map(|&(claimant, accused, alive)| arbitrate_unresponsive(claimant, accused, alive))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::Dsm;

    fn ctx<'a>(reg: &'a Registry, mint: &'a BlockMint) -> ArbitrationContext<'a> {
        ArbitrationContext {
            registry: reg,
            mint,
            fine: FineSchedule::new(10.0, 0.5),
            victim_rate: 2.0,
            phase: 2,
        }
    }

    #[test]
    fn contradiction_substantiated_fines_accused() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let key = reg.keypair(2);
        let complaint = Complaint::Contradiction {
            accused: 2,
            first: Dsm::new(&key, 0.5),
            second: Dsm::new(&key, 0.9),
        };
        let mut ledger = Ledger::new();
        let rec = arbitrate(&complaint, 1, &ctx(&reg, &mint), &mut ledger);
        assert!(rec.substantiated);
        assert_eq!(ledger.net(2), -10.0);
        assert_eq!(ledger.net(1), 10.0);
    }

    #[test]
    fn fabricated_contradiction_fines_claimant() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let key = reg.keypair(2);
        // Claimant forges the second message (cannot sign as node 2).
        let mut second = Dsm::new(&key, 0.5);
        second.payload = 0.9; // tampered, signature now invalid
        let complaint = Complaint::Contradiction {
            accused: 2,
            first: Dsm::new(&key, 0.5),
            second,
        };
        let mut ledger = Ledger::new();
        let rec = arbitrate(&complaint, 1, &ctx(&reg, &mint), &mut ledger);
        assert!(!rec.substantiated, "forged evidence must not convict");
        assert_eq!(ledger.net(1), -10.0, "false accuser pays");
        assert_eq!(ledger.net(2), 10.0);
    }

    #[test]
    fn identical_messages_are_not_a_contradiction() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let key = reg.keypair(2);
        let m = Dsm::new(&key, 0.5);
        let complaint = Complaint::Contradiction {
            accused: 2,
            first: m,
            second: m,
        };
        let mut ledger = Ledger::new();
        let rec = arbitrate(&complaint, 1, &ctx(&reg, &mint), &mut ledger);
        assert!(!rec.substantiated);
    }

    #[test]
    fn overload_with_valid_tag_substantiated_with_extra_penalty() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let tag = mint.range(0, 6); // proven 0.6 received
        let complaint = Complaint::Overload {
            accused: 1,
            expected: 0.4,
            tag,
        };
        let mut ledger = Ledger::new();
        let rec = arbitrate(&complaint, 2, &ctx(&reg, &mint), &mut ledger);
        assert!(rec.substantiated);
        // extra = (0.6-0.4) * victim rate 2.0 = 0.4
        assert!((rec.extra_penalty - 0.4).abs() < 1e-9);
        assert!((ledger.net(1) + 10.4).abs() < 1e-9);
    }

    #[test]
    fn overload_with_forged_tag_rejected() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let tag = crate::lambda::LoadTag::forged(8, 99);
        let complaint = Complaint::Overload {
            accused: 1,
            expected: 0.4,
            tag,
        };
        let mut ledger = Ledger::new();
        let rec = arbitrate(&complaint, 2, &ctx(&reg, &mint), &mut ledger);
        assert!(!rec.substantiated);
        assert_eq!(ledger.net(2), -10.0);
    }

    #[test]
    fn overload_within_prescription_rejected() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let tag = mint.range(0, 4); // exactly the expected amount
        let complaint = Complaint::Overload {
            accused: 1,
            expected: 0.4,
            tag,
        };
        let mut ledger = Ledger::new();
        let rec = arbitrate(&complaint, 2, &ctx(&reg, &mint), &mut ledger);
        assert!(
            !rec.substantiated,
            "receiving the prescribed load is not a grievance"
        );
    }

    #[test]
    fn unfounded_accusation_backfires() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let complaint = Complaint::Unfounded { accused: 3 };
        let mut ledger = Ledger::new();
        let rec = arbitrate(&complaint, 2, &ctx(&reg, &mint), &mut ledger);
        assert!(!rec.substantiated);
        assert_eq!(ledger.net(2), -10.0);
        assert_eq!(ledger.net(3), 10.0);
    }

    #[test]
    fn unresponsive_complaint_never_moves_money() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let complaint = Complaint::Unresponsive {
            accused: 2,
            phase: 3,
        };
        let mut ledger = Ledger::new();
        let rec = arbitrate(&complaint, 1, &ctx(&reg, &mint), &mut ledger);
        assert_eq!(rec.fine, 0.0);
        assert!(
            ledger.entries().is_empty(),
            "timeouts are no-fault: no postings at all"
        );
    }

    #[test]
    fn liveness_probe_substantiates_against_dead_node_without_fine() {
        let rec = arbitrate_unresponsive(1, 2, false);
        assert!(rec.substantiated);
        assert_eq!(rec.fine, 0.0);
        assert_eq!(rec.extra_penalty, 0.0);
    }

    #[test]
    fn liveness_probe_exculpates_live_node_without_fining_reporter() {
        let rec = arbitrate_unresponsive(1, 2, true);
        assert!(!rec.substantiated);
        assert_eq!(
            rec.fine, 0.0,
            "a timeout the network caused must not cost the reporter"
        );
    }

    #[test]
    fn fines_and_rewards_balance() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let key = reg.keypair(2);
        let complaint = Complaint::Contradiction {
            accused: 2,
            first: Dsm::new(&key, 0.5),
            second: Dsm::new(&key, 0.9),
        };
        let mut ledger = Ledger::new();
        arbitrate(&complaint, 1, &ctx(&reg, &mint), &mut ledger);
        // Fine↔reward transfer balances; the extra-work penalty (none
        // here) is posted separately.
        assert!(ledger.fines_match_rewards(true, 1e-12));
    }

    /// The root `P_0` serving `P_1` (link 0.1) and `P_2` (link 0.2): its
    /// Phase II message to `P_1`, announcing `d_cur` instead of the share
    /// the local star gives.
    fn decision_to_p1(reg: &Registry, d_cur: Option<f64>) -> crate::messages::LocalDecision {
        let (root, w) = (reg.keypair(0), [1.0, 2.0, 1.5]);
        let children = vec![
            (0.1, Dsm::new(&reg.keypair(1), w[1])),
            (0.2, Dsm::new(&reg.keypair(2), w[2])),
        ];
        let star = dlt::model::StarNetwork::from_rates(&w, &[0.1, 0.2]);
        let sol = dlt::star::solve(&star);
        crate::messages::LocalDecision {
            d_prev: Dsm::new(&root, 1.0),
            d_cur: Dsm::new(&root, d_cur.unwrap_or(sol.alloc.alpha(1))),
            w: Dsm::new(&root, w[0]),
            wbar: Dsm::new(&root, sol.makespan),
            children,
            position: 0,
        }
    }

    #[test]
    fn tree_decision_replay_convicts_only_a_wrong_share() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        for (d_cur, guilty) in [(None, false), (Some(0.9), true)] {
            let evidence = decision_to_p1(&reg, d_cur);
            assert_eq!(evidence.check(&reg, [0, 0], 1), !guilty);
            let complaint = Complaint::BadDecision {
                accused: 0,
                grandparent: 0,
                evidence,
            };
            let mut ledger = Ledger::new();
            let rec = arbitrate(&complaint, 1, &ctx(&reg, &mint), &mut ledger);
            assert_eq!(rec.substantiated, guilty);
            let filer = if guilty { 10.0 } else { -10.0 };
            assert_eq!(ledger.net(1), filer, "claimant P1, guilty = {guilty}");
        }
    }

    #[test]
    fn tree_decision_with_a_foreign_signature_is_inauthentic() {
        let reg = Registry::new(4, 1);
        // The message is not the recipient's parent's, or names another
        // node in the recipient's slot.
        let evidence = decision_to_p1(&reg, None);
        assert!(!evidence.check(&reg, [0, 3], 1));
        assert!(!evidence.check(&reg, [0, 0], 2));
        let mut forged = evidence;
        forged.d_cur.payload = 0.5;
        assert!(!forged.check(&reg, [0, 0], 1));
    }
}

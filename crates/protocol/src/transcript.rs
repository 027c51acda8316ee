//! Protocol transcripts and post-hoc replay audits.
//!
//! Every message a run produces is recorded in order; [`replay`] lets the
//! root (or a third party with the PKI and the block mint) re-audit an
//! entire run **after the fact**, recomputing every check from the signed
//! evidence alone. The replay must reach exactly the same conclusions as
//! the online checks — asserted by the runner's tests — which is the
//! forensic guarantee behind Phase IV's "save `Proof_j` as evidence"
//! (eq. 4.12): nothing about a conviction depends on having watched the
//! run live.

use crate::crypto::{Dsm, NodeId, Registry};
use crate::lambda::{BlockMint, LoadTag};
use crate::messages::{Bill, GMessage};

/// One recorded protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// Phase I: `from` reported its equivalent time to `to`.
    PhaseIBid {
        /// Sender.
        from: NodeId,
        /// Receiver (the predecessor).
        to: NodeId,
        /// `dsm_from(w̄_from)`.
        message: Dsm,
    },
    /// Phase II: `from` handed `G_to` to `to`.
    PhaseIIAllocation {
        /// Sender (the predecessor).
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message.
        g: GMessage,
        /// The public rate of the link into `to`.
        link_rate: f64,
    },
    /// Phase III: `from` physically delivered load to `to`.
    PhaseIIIDelivery {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Amount delivered.
        amount: f64,
        /// The Λ receipt proof `to` can exhibit.
        tag: LoadTag,
    },
    /// Phase IV: `node` submitted a bill.
    PhaseIVBill {
        /// The bill with its proof.
        bill: Bill,
        /// The honest amount recomputed by the auditor's own settlement
        /// (recorded so replay needs no solver round-trip).
        recomputed: f64,
    },
    /// A neighbour's detection timer expired: `detector` reported `suspect`
    /// silent in `phase`. Recorded for forensics only — replay never turns
    /// a timeout into an accusation, because silence carries no signature
    /// and a dropped message can mimic a crash.
    Timeout {
        /// The node whose timer fired.
        detector: NodeId,
        /// The node that went silent.
        suspect: NodeId,
        /// The phase in which silence was observed.
        phase: u8,
    },
    /// The root spliced a failed node out of the chain and re-solved the
    /// allocation for its unprocessed load on the survivors.
    Recovery {
        /// The node removed from the chain.
        dead: NodeId,
        /// Load the dead node had been assigned but never finished.
        residual: f64,
        /// `(survivor, extra load)` pairs from the re-solved allocation.
        reassigned: Vec<(NodeId, f64)>,
    },
}

/// A full run transcript.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Transcript {
    entries: Vec<Entry>,
}

impl Transcript {
    /// Empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an entry.
    pub fn record(&mut self, entry: Entry) {
        self.entries.push(entry);
    }

    /// All entries in order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of recorded messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A deviation uncovered by replaying a transcript.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The node the evidence incriminates.
    pub accused: NodeId,
    /// What the replay found.
    pub kind: FindingKind,
}

/// Classification of replay findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Two authentic Phase I messages with different values.
    ContradictoryBids,
    /// A signature that does not verify.
    ForgedSignature,
    /// A Phase II message failing the arithmetic checks.
    InconsistentAllocation,
    /// A Phase III delivery exceeding the signed prescription.
    Overdelivery,
    /// A Phase IV bill that does not match its proof.
    Overcharge,
}

/// Replay a transcript against the PKI and block mint, returning every
/// deviation the evidence supports. Tolerance mirrors the online checks.
pub fn replay(transcript: &Transcript, registry: &Registry, mint: &BlockMint) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Phase I: group bid messages by sender and compare values.
    let mut bids: Vec<(NodeId, f64)> = Vec::new();
    for e in transcript.entries() {
        match e {
            Entry::PhaseIBid { from, message, .. } => {
                if !message.verify(registry, Some(*from)) {
                    findings.push(Finding {
                        accused: *from,
                        kind: FindingKind::ForgedSignature,
                    });
                    continue;
                }
                if let Some(&(_, prev)) = bids.iter().find(|(n, _)| n == from) {
                    if (prev - message.payload).abs() > 1e-9 {
                        findings.push(Finding {
                            accused: *from,
                            kind: FindingKind::ContradictoryBids,
                        });
                    }
                } else {
                    bids.push((*from, message.payload));
                }
            }
            Entry::PhaseIIAllocation {
                from,
                to,
                g,
                link_rate,
            } => {
                // The recipient's Phase I bid is whatever it reported
                // upward — read it from the transcript itself.
                let my_bid = bids
                    .iter()
                    .find(|(n, _)| n == to)
                    .map(|&(_, b)| b)
                    .unwrap_or(g.wbar_cur.payload);
                if g.check(registry, *to, my_bid, *link_rate, 1e-9).is_err() {
                    findings.push(Finding {
                        accused: *from,
                        kind: FindingKind::InconsistentAllocation,
                    });
                }
            }
            Entry::PhaseIIIDelivery {
                from,
                to,
                amount,
                tag,
            } => {
                // The prescription for `to` is the d_cur of the G message
                // addressed to it.
                let prescribed = transcript.entries().iter().find_map(|e2| match e2 {
                    Entry::PhaseIIAllocation { to: t2, g, .. } if t2 == to => Some(g.d_cur.payload),
                    _ => None,
                });
                if let Some(d) = prescribed {
                    let proven = mint.verify(tag);
                    match proven {
                        Some(p)
                            if p > d + 0.5 * mint.block_size()
                                && *amount > d + 0.5 * mint.block_size() =>
                        {
                            findings.push(Finding {
                                accused: *from,
                                kind: FindingKind::Overdelivery,
                            });
                        }
                        None => findings.push(Finding {
                            accused: *to,
                            kind: FindingKind::ForgedSignature,
                        }),
                        _ => {}
                    }
                }
            }
            Entry::PhaseIVBill { bill, recomputed } => {
                if (bill.amount - recomputed).abs() > 1e-9 {
                    findings.push(Finding {
                        accused: bill.node,
                        kind: FindingKind::Overcharge,
                    });
                }
            }
            // Fault-handling entries are evidence of *recovery*, not of
            // deviation: no replay finding may ever rest on them.
            Entry::Timeout { .. } | Entry::Recovery { .. } => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::Registry;

    #[test]
    fn empty_transcript_is_clean() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        assert!(replay(&Transcript::new(), &reg, &mint).is_empty());
    }

    #[test]
    fn consistent_bids_produce_no_findings() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let mut t = Transcript::new();
        let key = reg.keypair(2);
        t.record(Entry::PhaseIBid {
            from: 2,
            to: 1,
            message: Dsm::new(&key, 0.7),
        });
        t.record(Entry::PhaseIBid {
            from: 2,
            to: 1,
            message: Dsm::new(&key, 0.7),
        });
        assert!(replay(&t, &reg, &mint).is_empty());
    }

    #[test]
    fn contradictory_bids_are_found() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let mut t = Transcript::new();
        let key = reg.keypair(2);
        t.record(Entry::PhaseIBid {
            from: 2,
            to: 1,
            message: Dsm::new(&key, 0.7),
        });
        t.record(Entry::PhaseIBid {
            from: 2,
            to: 1,
            message: Dsm::new(&key, 0.9),
        });
        let findings = replay(&t, &reg, &mint);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].accused, 2);
        assert_eq!(findings[0].kind, FindingKind::ContradictoryBids);
    }

    #[test]
    fn forged_signature_is_found() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let mut t = Transcript::new();
        let mut msg = Dsm::new(&reg.keypair(2), 0.7);
        msg.payload = 0.8; // tampered after signing
        t.record(Entry::PhaseIBid {
            from: 2,
            to: 1,
            message: msg,
        });
        let findings = replay(&t, &reg, &mint);
        assert_eq!(findings[0].kind, FindingKind::ForgedSignature);
    }

    #[test]
    fn timeout_and_recovery_entries_accuse_nobody() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let mut t = Transcript::new();
        t.record(Entry::Timeout {
            detector: 1,
            suspect: 2,
            phase: 3,
        });
        t.record(Entry::Recovery {
            dead: 2,
            residual: 0.25,
            reassigned: vec![(1, 0.1), (3, 0.15)],
        });
        assert!(
            replay(&t, &reg, &mint).is_empty(),
            "fault entries must never incriminate"
        );
    }

    #[test]
    fn inflated_bill_is_found() {
        let reg = Registry::new(4, 1);
        let mint = BlockMint::new(10, 1);
        let mut t = Transcript::new();
        let key0 = reg.keypair(0);
        let g = GMessage {
            d_prev: Dsm::new(&key0, 1.0),
            d_cur: Dsm::new(&key0, 0.4),
            wbar_prev: Dsm::new(&key0, 0.6),
            w_prev: Dsm::new(&key0, 1.0),
            wbar_cur: Dsm::new(&key0, 1.0),
        };
        let bill = Bill {
            node: 1,
            amount: 2.5,
            proof: crate::messages::PaymentProof {
                g,
                meter: Dsm::new(&key0, 1.0),
                tag: mint.range(0, 4),
                actual_load: 0.4,
            },
        };
        t.record(Entry::PhaseIVBill {
            bill,
            recomputed: 2.0,
        });
        let findings = replay(&t, &reg, &mint);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::Overcharge);
        assert_eq!(findings[0].accused, 1);
    }
}

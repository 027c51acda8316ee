//! Protocol message types: Phase II `G_i` messages
//! (eqs. 4.1–4.2) and their tree counterpart, Phase III grievances, Phase
//! IV payment proofs (eq. 4.12).

use crate::crypto::{Dsm, NodeId, Registry};
use crate::lambda::LoadTag;
use crate::root::ARBITRATION_TOL;

/// Phase II message `G_i` handed from `P_{i-1}` to `P_i` (eq. 4.2; eq. 4.1
/// is the `i = 1` case where both signer indices collapse to the root).
///
/// The double-signing structure is the point: `D_{i-1}` and `w̄_{i-1}` are
/// signed by `P_{i-2}` (the *grandparent*), so `P_{i-1}` cannot tell its
/// parent one story and its child another without producing attributable,
/// contradictory evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GMessage {
    /// `dsm_{i-2}(D_{i-1})` — load reaching the predecessor, vouched by the
    /// grandparent.
    pub d_prev: Dsm,
    /// `dsm_{i-1}(D_i)` — load the predecessor claims to forward to us.
    pub d_cur: Dsm,
    /// `dsm_{i-2}(w̄_{i-1})` — the predecessor's Phase I equivalent bid, as
    /// countersigned by the grandparent.
    pub wbar_prev: Dsm,
    /// `dsm_{i-1}(w_{i-1})` — the predecessor's raw processing rate claim.
    pub w_prev: Dsm,
    /// `dsm_{i-1}(w̄_i)` — our own Phase I bid echoed back, countersigned
    /// by the predecessor.
    pub wbar_cur: Dsm,
}

/// Why a `G_i` message was rejected by its recipient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GCheckError {
    /// A signature failed to verify or carried the wrong signer.
    Inauthentic,
    /// The echoed `w̄_i` differs from the bid we sent in Phase I.
    BidMismatch,
    /// `w̄_{i-1} ≠ α̂_{i-1} · w_{i-1}` (identity of eq. 2.4 violated).
    EquivalentIdentity,
    /// `α̂_{i-1} w_{i-1} ≠ (1 − α̂_{i-1})(w̄_i + z_i)` (eq. 2.7 violated).
    BalanceIdentity,
    /// The implied `α̂_{i-1}` is outside `(0, 1]` or `D` values are
    /// nonsensical.
    BadFractions,
}

impl GMessage {
    /// Run the full recipient-side check suite for `P_i` (§4 Phase II).
    ///
    /// * `registry` — the PKI;
    /// * `i` — the recipient's index (`≥ 1`);
    /// * `my_bid` — the `w̄_i` the recipient sent in Phase I;
    /// * `z_i` — the (public, obedient) rate of the inbound link;
    /// * `tol` — numeric tolerance for the identity checks.
    pub fn check(
        &self,
        registry: &Registry,
        i: NodeId,
        my_bid: f64,
        z_i: f64,
        tol: f64,
    ) -> Result<(), GCheckError> {
        let grandparent = i.saturating_sub(2);
        let parent = i - 1;
        let authentic = self.d_prev.verify(registry, Some(grandparent))
            && self.d_cur.verify(registry, Some(parent))
            && self.wbar_prev.verify(registry, Some(grandparent))
            && self.w_prev.verify(registry, Some(parent))
            && self.wbar_cur.verify(registry, Some(parent));
        if !authentic {
            return Err(GCheckError::Inauthentic);
        }
        if (self.wbar_cur.payload - my_bid).abs() > tol {
            return Err(GCheckError::BidMismatch);
        }
        let d_prev = self.d_prev.payload;
        let d_cur = self.d_cur.payload;
        if !(d_prev > 0.0 && d_cur > 0.0 && d_cur < d_prev + tol) {
            return Err(GCheckError::BadFractions);
        }
        let alpha_hat = (d_prev - d_cur) / d_prev;
        if !(0.0..=1.0 + tol).contains(&alpha_hat) {
            return Err(GCheckError::BadFractions);
        }
        let w_prev = self.w_prev.payload;
        let wbar_prev = self.wbar_prev.payload;
        if (wbar_prev - alpha_hat * w_prev).abs() > tol {
            return Err(GCheckError::EquivalentIdentity);
        }
        let lhs = alpha_hat * w_prev;
        let rhs = (1.0 - alpha_hat) * (self.wbar_cur.payload + z_i);
        if (lhs - rhs).abs() > tol {
            return Err(GCheckError::BalanceIdentity);
        }
        Ok(())
    }
}

/// Phase II message from a tree node `P_p` to one of its children.
///
/// A parent with several children cannot be checked with the two-term
/// balance identity (eq. 2.7), so the message carries its **entire local
/// decision**: its rate claim plus every child's own-signed Phase I
/// equivalent. The recipient replays the local star solution (canonical
/// ascending-link order, see `dlt::seqsearch`) to verify both the
/// parent's equivalent claim and its own load announcement. The children
/// sign their equivalents themselves, so the parent cannot tell different
/// stories to different children without producing attributable
/// evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDecision {
    /// `D_p`, the load reaching the sender, vouched by the sender's parent
    /// (the root vouches for its own unit load).
    pub d_prev: Dsm,
    /// `D_c`, the load the sender claims to forward to the recipient.
    pub d_cur: Dsm,
    /// The sender's raw processing rate claim `w_p`.
    pub w: Dsm,
    /// The sender's own Phase I equivalent `w̄_p` (unchecked at the root,
    /// whose equivalent nobody pays for).
    pub wbar: Dsm,
    /// Every child's `(link rate, own-signed equivalent)`, in service order.
    pub children: Vec<(f64, Dsm)>,
    /// The recipient's position in `children`.
    pub position: usize,
}

impl LocalDecision {
    /// Run the recipient-side check for `P_i`, the child of the sender
    /// `P_p` whose own parent `P_gp` vouches for `D_p`. True if the message
    /// passes. The recipient's own equivalent is in the list under its own
    /// signature, so no echo check is needed.
    pub fn check(&self, registry: &Registry, [gp, p]: [NodeId; 2], i: NodeId) -> bool {
        let own = |(_, e): &(f64, Dsm)| e.signer == i;
        let authentic = self.children.get(self.position).is_some_and(own)
            && self.d_prev.verify(registry, Some(gp))
            && [self.d_cur, self.w, self.wbar]
                .iter()
                .all(|m| m.verify(registry, Some(p)))
            && self.children.iter().all(|(_, e)| e.verify(registry, None));
        if !authentic {
            return false;
        }
        let children = self.children.iter().map(|&(z, e)| (z, e.payload));
        let mut star = vec![0.0; self.children.len() + 1];
        let makespan = dlt::star::solve_into(self.w.payload, children, &mut star);
        let share = self.d_prev.payload * star[self.position + 1];
        let close = |a: f64, b: f64| (a - b).abs() <= ARBITRATION_TOL;
        (p == 0 || close(self.wbar.payload, makespan)) && close(self.d_cur.payload, share)
    }
}

/// A complaint submitted to the root for arbitration.
#[derive(Debug, Clone, PartialEq)]
pub enum Complaint {
    /// Two authentic, contradictory signed values from the same node
    /// (Phase I or II).
    Contradiction {
        /// The accused node.
        accused: NodeId,
        /// First signed value.
        first: Dsm,
        /// Second, different signed value.
        second: Dsm,
    },
    /// A `G` message failing the recipient's recomputation (Phase II).
    BadComputation {
        /// The accused node (the message's sender).
        accused: NodeId,
        /// The failing message, as evidence.
        evidence: GMessage,
        /// The recipient's Phase I bid (for the echo check).
        recipient_bid: f64,
        /// The public link rate `z_i`.
        link_rate: f64,
    },
    /// A tree node's [`LocalDecision`] failing the recipient's replay
    /// (Phase II).
    BadDecision {
        /// The accused node (the message's sender).
        accused: NodeId,
        /// The sender's parent, who vouches for `D_p`.
        grandparent: NodeId,
        /// The failing message, as evidence.
        evidence: LocalDecision,
    },
    /// Receiving more load than Phase II prescribed (Phase III), proven by
    /// the Λ tag.
    Overload {
        /// The accused predecessor.
        accused: NodeId,
        /// Load the claimant should have received (`D_i` from Phase II).
        expected: f64,
        /// The Λ receipt proof of what actually arrived.
        tag: LoadTag,
    },
    /// A fabricated accusation with no verifiable evidence (case (v)).
    Unfounded {
        /// The accused (innocent) node.
        accused: NodeId,
    },
    /// A neighbour stopped responding within the detection timeout. Unlike
    /// every other complaint this one is **no-fault**: a lost message can
    /// mimic a crash, so the root probes liveness and triggers recovery
    /// but levies no fine on either party (extended Lemma 5.2 — an honest
    /// survivor must never pay for its neighbour's failure, and an honest
    /// reporter must never pay for a timeout the network caused).
    Unresponsive {
        /// The silent node.
        accused: NodeId,
        /// The phase in which the silence was observed.
        phase: u8,
    },
}

impl Complaint {
    /// The node the complaint accuses.
    pub fn accused(&self) -> NodeId {
        match self {
            Complaint::Contradiction { accused, .. }
            | Complaint::BadComputation { accused, .. }
            | Complaint::BadDecision { accused, .. }
            | Complaint::Overload { accused, .. }
            | Complaint::Unfounded { accused }
            | Complaint::Unresponsive { accused, .. } => *accused,
        }
    }
}

/// The Phase IV payment proof `Proof_j` (eq. 4.12): everything the root
/// needs to recompute `Q_j` from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct PaymentProof {
    /// The `G_j` message received in Phase II.
    pub g: GMessage,
    /// The meter reading `dsm_0(w̃_j)` (signed by the root's key — the
    /// tamper-proof meter is the mechanism's instrument).
    pub meter: Dsm,
    /// The Λ receipt proof of the load actually received.
    pub tag: LoadTag,
    /// The load actually retained and computed (`α̃_j`).
    pub actual_load: f64,
}

/// A bill submitted to the payment infrastructure in Phase IV.
#[derive(Debug, Clone, PartialEq)]
pub struct Bill {
    /// The billing node.
    pub node: NodeId,
    /// The claimed payment `Q_j`.
    pub amount: f64,
    /// The supporting proof, producible on challenge.
    pub proof: PaymentProof,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::Registry;

    fn registry() -> Registry {
        Registry::new(5, 11)
    }

    /// Build an honest G message for P_i given chain data.
    fn honest_g(
        reg: &Registry,
        i: NodeId,
        d_prev: f64,
        d_cur: f64,
        wbar_prev: f64,
        w_prev: f64,
        wbar_cur: f64,
    ) -> GMessage {
        let gp = reg.keypair(i.saturating_sub(2));
        let p = reg.keypair(i - 1);
        GMessage {
            d_prev: Dsm::new(&gp, d_prev),
            d_cur: Dsm::new(&p, d_cur),
            wbar_prev: Dsm::new(&gp, wbar_prev),
            w_prev: Dsm::new(&p, w_prev),
            wbar_cur: Dsm::new(&p, wbar_cur),
        }
    }

    /// A consistent 2-processor example: w0=1, w1=1, z1=1.
    /// α̂_0 = 2/3, w̄_0 = 2/3, D_0 = 1, D_1 = 1/3, w̄_1 = 1.
    fn consistent_example(reg: &Registry) -> GMessage {
        honest_g(reg, 1, 1.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1.0)
    }

    #[test]
    fn honest_message_passes() {
        let reg = registry();
        let g = consistent_example(&reg);
        assert_eq!(g.check(&reg, 1, 1.0, 1.0, 1e-9), Ok(()));
    }

    #[test]
    fn tampered_signature_caught() {
        let reg = registry();
        let mut g = consistent_example(&reg);
        g.w_prev.payload = 0.9; // altered without re-signing
        assert_eq!(
            g.check(&reg, 1, 1.0, 1.0, 1e-9),
            Err(GCheckError::Inauthentic)
        );
    }

    #[test]
    fn wrong_signer_caught() {
        let reg = registry();
        let mut g = consistent_example(&reg);
        // Re-sign w_prev with a non-parent key.
        g.w_prev = Dsm::new(&reg.keypair(3), g.w_prev.payload);
        assert_eq!(
            g.check(&reg, 1, 1.0, 1.0, 1e-9),
            Err(GCheckError::Inauthentic)
        );
    }

    #[test]
    fn bid_echo_mismatch_caught() {
        let reg = registry();
        let g = consistent_example(&reg);
        // recipient actually bid 1.1, message echoes 1.0
        assert_eq!(
            g.check(&reg, 1, 1.1, 1.0, 1e-9),
            Err(GCheckError::BidMismatch)
        );
    }

    #[test]
    fn equivalent_identity_violation_caught() {
        let reg = registry();
        // wbar_prev inconsistent with α̂·w_prev
        let g = honest_g(&reg, 1, 1.0, 1.0 / 3.0, 0.5, 1.0, 1.0);
        assert_eq!(
            g.check(&reg, 1, 1.0, 1.0, 1e-9),
            Err(GCheckError::EquivalentIdentity)
        );
    }

    #[test]
    fn balance_identity_violation_caught() {
        let reg = registry();
        // self-consistent w̄_{0} = α̂·w_0 but α̂ violates eq. 2.7
        // α̂ = 0.5: wbar_prev = 0.5, but (1-0.5)(1+1) = 1 ≠ 0.5
        let g = honest_g(&reg, 1, 1.0, 0.5, 0.5, 1.0, 1.0);
        assert_eq!(
            g.check(&reg, 1, 1.0, 1.0, 1e-9),
            Err(GCheckError::BalanceIdentity)
        );
    }

    #[test]
    fn nonsense_fractions_caught() {
        let reg = registry();
        let g = honest_g(&reg, 1, 1.0, 1.5, 0.5, 1.0, 1.0); // D grows?!
        assert_eq!(
            g.check(&reg, 1, 1.0, 1.0, 1e-9),
            Err(GCheckError::BadFractions)
        );
    }

    #[test]
    fn complaint_reports_accused() {
        let reg = registry();
        let k = reg.keypair(2);
        let c = Complaint::Contradiction {
            accused: 2,
            first: Dsm::new(&k, 0.5),
            second: Dsm::new(&k, 0.6),
        };
        assert_eq!(c.accused(), 2);
        assert_eq!(Complaint::Unfounded { accused: 3 }.accused(), 3);
    }
}

//! Simulated digital signatures and PKI.
//!
//! The paper *assumes* an unforgeable signature scheme and a public key
//! infrastructure (§4); Lemma 5.2 explicitly takes forgery to be
//! impossible. We therefore simulate: every node holds a 128-bit secret,
//! a signature is a keyed hash of the canonical message bytes, and the
//! [`Registry`] (standing in for the PKI) verifies by recomputation. The
//! hash is not cryptographically strong — it doesn't need to be; what the
//! protocol logic requires is that *within the simulation* a node without
//! the secret cannot mint a verifying tag, which holds by construction
//! because secrets never leave the keypair/registry.
//!
//! Every signed protocol payload is one `f64`. Its canonical bytes are
//! the eight bytes of `payload.to_bits()` in little-endian order, so two
//! payloads sign alike only if their bit patterns are equal: `0.0` and
//! `-0.0` differ, and so do NaNs with different payload bits. The hash
//! reads its input in 8-byte words and folds in the input length, so
//! byte strings that differ only by trailing zero bytes differ too. Each
//! step is a bijection of the state, so under one key two different
//! 8-byte inputs never share a signature.
//!
//! All protocol-relevant behaviors are real on top of this substrate:
//! inauthentic messages are rejected, contradictory signed messages are
//! detectable and attributable, and evidence survives forwarding.

/// A node identifier: index in the chain (`0` is the root).
pub type NodeId = usize;

/// A signature tag over a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub u128);

/// Keyed 128-bit hash: an FNV-style multiply per 8-byte little-endian
/// word (the last one zero-padded), then the length, then an xor-shift
/// finalizer. Deterministic, stable across runs.
fn keyed_hash(secret: u128, data: &[u8]) -> u128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    const MIX: u128 = 0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835;
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d ^ secret;
    for chunk in data.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u128::from(u64::from_le_bytes(word))).wrapping_mul(PRIME);
    }
    h = (h ^ data.len() as u128).wrapping_mul(PRIME);
    h ^= h >> 64;
    h = h.wrapping_mul(MIX);
    h ^ (h >> 61)
}

/// A node's private key. Only the owning node (and the registry, which
/// plays the PKI's role of binding identities to keys) ever holds it.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// The owning node.
    pub node: NodeId,
    secret: u128,
}

impl KeyPair {
    /// Sign raw bytes.
    pub fn sign_bytes(&self, data: &[u8]) -> Signature {
        Signature(keyed_hash(self.secret, data))
    }

    /// Sign a payload's canonical bytes, `payload.to_bits()` little-endian.
    pub fn sign(&self, payload: f64) -> Signature {
        self.sign_bytes(&payload.to_bits().to_le_bytes())
    }
}

/// The PKI stand-in: issues keys and verifies signatures.
#[derive(Debug, Default)]
pub struct Registry {
    secrets: Vec<u128>,
}

impl Registry {
    /// Create a registry for `n` nodes with deterministic per-node secrets
    /// derived from `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut secrets = Vec::with_capacity(n);
        let mut state = (seed as u128) | 1;
        for i in 0..n {
            // splitmix-style expansion; distinct per node
            state = state
                .wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835)
                .wrapping_add(i as u128 + 0x632B_E5AB);
            secrets.push(state ^ state.rotate_left(49));
        }
        Self { secrets }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// True if no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }

    /// Hand node `id` its keypair.
    pub fn keypair(&self, id: NodeId) -> KeyPair {
        KeyPair {
            node: id,
            secret: self.secrets[id],
        }
    }

    /// Verify a signature over raw bytes.
    pub fn verify_bytes(&self, id: NodeId, data: &[u8], sig: Signature) -> bool {
        id < self.secrets.len() && keyed_hash(self.secrets[id], data) == sig.0
    }

    /// Verify a signature over a payload's canonical bytes,
    /// `payload.to_bits()` little-endian.
    pub fn verify(&self, id: NodeId, payload: f64, sig: Signature) -> bool {
        self.verify_bytes(id, &payload.to_bits().to_le_bytes(), sig)
    }
}

/// A digitally signed message `dsm_i(m) = (m, sig_i(m))` (§4 notation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dsm {
    /// The payload `m`.
    pub payload: f64,
    /// The signer.
    pub signer: NodeId,
    /// The signature `sig_i(m)`.
    pub signature: Signature,
}

impl Dsm {
    /// Sign a payload.
    pub fn new(key: &KeyPair, payload: f64) -> Self {
        Self {
            payload,
            signer: key.node,
            signature: key.sign(payload),
        }
    }

    /// Verify against the registry, optionally pinning the expected signer.
    pub fn verify(&self, registry: &Registry, expected_signer: Option<NodeId>) -> bool {
        if let Some(exp) = expected_signer {
            if exp != self.signer {
                return false;
            }
        }
        registry.verify(self.signer, self.payload, self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let reg = Registry::new(4, 42);
        let key = reg.keypair(2);
        let sig = key.sign_bytes(b"hello");
        assert!(reg.verify_bytes(2, b"hello", sig));
    }

    #[test]
    fn wrong_signer_rejected() {
        let reg = Registry::new(4, 42);
        let key = reg.keypair(2);
        let sig = key.sign_bytes(b"hello");
        assert!(!reg.verify_bytes(1, b"hello", sig));
    }

    #[test]
    fn tampered_payload_rejected() {
        let reg = Registry::new(4, 42);
        let key = reg.keypair(2);
        let sig = key.sign_bytes(b"hello");
        assert!(!reg.verify_bytes(2, b"hullo", sig));
    }

    #[test]
    fn forgery_without_secret_fails() {
        let reg = Registry::new(4, 42);
        // An attacker guesses a signature value.
        for guess in [0u128, 1, u128::MAX, 0xDEADBEEF] {
            assert!(!reg.verify(3, 42.0, Signature(guess)));
        }
    }

    #[test]
    fn secrets_differ_across_nodes_and_seeds() {
        let a = Registry::new(3, 1);
        let b = Registry::new(3, 2);
        let msg = 3.25;
        let s0 = a.keypair(0).sign(msg);
        let s1 = a.keypair(1).sign(msg);
        let s0b = b.keypair(0).sign(msg);
        assert_ne!(s0, s1, "different nodes, different tags");
        assert_ne!(s0, s0b, "different seeds, different tags");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Registry::new(3, 7);
        let b = Registry::new(3, 7);
        let msg = b"\x01\x02 two words and a tail";
        assert_eq!(a.keypair(1).sign_bytes(msg), b.keypair(1).sign_bytes(msg));
    }

    #[test]
    fn nans_with_different_bits_sign_differently() {
        let key = Registry::new(2, 42).keypair(1);
        let quiet = f64::NAN;
        let payload_nan = f64::from_bits(quiet.to_bits() | 1);
        let negative_nan = -quiet;
        assert_eq!(format!("{quiet:?}"), format!("{payload_nan:?}"));
        assert_ne!(key.sign(quiet), key.sign(payload_nan));
        assert_ne!(key.sign(quiet), key.sign(negative_nan));
        assert_ne!(key.sign(payload_nan), key.sign(negative_nan));
    }

    #[test]
    fn signed_zeros_sign_differently() {
        let key = Registry::new(2, 42).keypair(1);
        assert_ne!(key.sign(0.0), key.sign(-0.0));
    }

    #[test]
    fn trailing_zero_bytes_change_the_signature() {
        // The last word is zero-padded, so only the folded length tells
        // these apart.
        let key = Registry::new(2, 42).keypair(1);
        let sigs: Vec<Signature> = [
            &b"abc"[..],
            b"abc\0",
            b"abc\0\0\0\0\0",
            b"abc\0\0\0\0\0\0\0\0",
        ]
        .iter()
        .map(|data| key.sign_bytes(data))
        .collect();
        for (i, a) in sigs.iter().enumerate() {
            for b in &sigs[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(key.sign_bytes(b""), key.sign_bytes(b"\0"));
    }

    #[test]
    fn dsm_verify_pins_signer() {
        let reg = Registry::new(4, 42);
        let dsm = Dsm::new(&reg.keypair(1), 0.5);
        assert!(dsm.verify(&reg, Some(1)));
        assert!(!dsm.verify(&reg, Some(2)));
        assert!(dsm.verify(&reg, None));
    }

    #[test]
    fn dsm_detects_payload_substitution() {
        let reg = Registry::new(4, 42);
        let mut dsm = Dsm::new(&reg.keypair(1), 0.5);
        dsm.payload = 0.75;
        assert!(!dsm.verify(&reg, Some(1)));
    }

    #[test]
    fn dsm_detects_a_one_ulp_change() {
        let reg = Registry::new(4, 42);
        for payload in [0.5, 1.0 / 3.0, -2.5e-300, f64::MIN_POSITIVE] {
            let dsm = Dsm::new(&reg.keypair(1), payload);
            for nudged in [payload.next_up(), payload.next_down()] {
                let tampered = Dsm {
                    payload: nudged,
                    ..dsm
                };
                assert!(!tampered.verify(&reg, Some(1)), "{payload:e} -> {nudged:e}");
            }
        }
    }

    #[test]
    fn contradictory_messages_are_attributable() {
        // Two authentic messages with different payloads from the same
        // signer: both verify — exactly the evidence Phase I needs.
        let reg = Registry::new(4, 42);
        let key = reg.keypair(2);
        let m1 = Dsm::new(&key, 0.5);
        let m2 = Dsm::new(&key, 0.9);
        assert!(m1.verify(&reg, Some(2)) && m2.verify(&reg, Some(2)));
        assert_ne!(m1.payload, m2.payload);
    }

    #[test]
    fn unknown_node_never_verifies() {
        let reg = Registry::new(2, 42);
        let key = reg.keypair(1);
        let sig = key.sign(1.0);
        assert!(!reg.verify_bytes(5, b"x", sig));
        assert!(!reg.verify(5, 1.0, sig));
    }
}

//! Adversarial property tests: random tampering with protocol messages and
//! evidence must always be caught, and must never incriminate an honest
//! node. These complement the scenario-level tests in `runner` with
//! field-level fuzzing.

use proptest::prelude::*;
use protocol::{BlockMint, Complaint, Dsm, GMessage, LoadTag, Registry};

/// A consistent honest G message for a 2-processor chain `w0=1, w1, z1`,
/// addressed to node 1.
fn honest_g(reg: &Registry, w1: f64, z1: f64) -> (GMessage, f64, f64) {
    let root = reg.keypair(0);
    // α̂_0 = (w̄_1 + z1) / (w0 + w̄_1 + z1), w̄_1 = w1 (terminal).
    let w0 = 1.0;
    let tail = w1 + z1;
    let alpha_hat = tail / (w0 + tail);
    let d1 = 1.0 - alpha_hat;
    let wbar0 = alpha_hat * w0;
    let g = GMessage {
        d_prev: Dsm::new(&root, 1.0),
        d_cur: Dsm::new(&root, d1),
        wbar_prev: Dsm::new(&root, wbar0),
        w_prev: Dsm::new(&root, w0),
        wbar_cur: Dsm::new(&root, w1),
    };
    (g, w1, z1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn honest_messages_always_pass(w1 in 0.1f64..10.0, z1 in 0.0f64..5.0) {
        let reg = Registry::new(2, 42);
        let (g, bid, z) = honest_g(&reg, w1, z1);
        prop_assert!(g.check(&reg, 1, bid, z, 1e-9).is_ok());
    }

    #[test]
    fn payload_tampering_is_always_caught(
        w1 in 0.1f64..10.0,
        z1 in 0.0f64..5.0,
        field in 0usize..5,
        perturb in prop::sample::select(vec![0.5f64, 0.9, 1.1, 2.0]),
    ) {
        let reg = Registry::new(2, 42);
        let (mut g, bid, z) = honest_g(&reg, w1, z1);
        // Tamper one payload without re-signing.
        match field {
            0 => g.d_prev.payload *= perturb,
            1 => g.d_cur.payload *= perturb,
            2 => g.wbar_prev.payload *= perturb,
            3 => g.w_prev.payload *= perturb,
            _ => g.wbar_cur.payload *= perturb,
        }
        prop_assert!(g.check(&reg, 1, bid, z, 1e-9).is_err(), "tampered field {field} slipped through");
    }

    #[test]
    fn resigned_lies_are_caught_by_arithmetic(
        w1 in 0.1f64..10.0,
        z1 in 0.01f64..5.0,
        field in 0usize..4,
        perturb in prop::sample::select(vec![0.5f64, 0.8, 1.25, 2.0]),
    ) {
        // The sender CAN re-sign fields it signs itself (d_cur, w_prev,
        // wbar_cur) — then only the arithmetic checks can catch the lie.
        // (It cannot re-sign the grandparent-signed fields; that case is
        // covered by `payload_tampering_is_always_caught`.)
        let reg = Registry::new(2, 42);
        let root = reg.keypair(0);
        let (mut g, bid, z) = honest_g(&reg, w1, z1);
        match field {
            0 => g.d_cur = Dsm::new(&root, g.d_cur.payload * perturb),
            1 => g.w_prev = Dsm::new(&root, g.w_prev.payload * perturb),
            2 => g.wbar_cur = Dsm::new(&root, g.wbar_cur.payload * perturb),
            _ => {
                // Consistent re-derivation with a lied-about w_prev is the
                // "smart" deviant: it must STILL fail because wbar_prev is
                // grandparent-signed and cannot be re-derived.
                let w0_fake = g.w_prev.payload * perturb;
                g.w_prev = Dsm::new(&root, w0_fake);
            }
        }
        prop_assert!(g.check(&reg, 1, bid, z, 1e-9).is_err(), "re-signed lie slipped through");
    }

    #[test]
    fn forged_tags_never_prove_load(blocks in 2usize..500, n in 1usize..100, seed in 0u64..1000) {
        let mint = BlockMint::new(blocks, 7);
        // The forger has no access to the mint's RNG stream: give it an
        // independent seed (a same-seed "forgery" would just replay the
        // genuine identifiers, which is key theft, not guessing).
        let tag = LoadTag::forged(n.min(blocks), seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xF0F0_F0F0_F0F0_F0F0));
        prop_assert_eq!(mint.verify(&tag), None);
    }

    #[test]
    fn genuine_tags_always_verify(blocks in 2usize..500, frac in 0.0f64..1.0) {
        let mint = BlockMint::new(blocks, 7);
        let take = ((blocks as f64) * frac) as usize;
        let tag = mint.range(0, take);
        prop_assert!(mint.verify(&tag).is_some());
    }

    #[test]
    fn fabricated_contradictions_never_convict(
        value in 0.1f64..10.0,
        fake in 0.1f64..10.0,
        seed in 0u64..1000,
    ) {
        // An accuser who cannot sign as the accused cannot fabricate a
        // contradiction: the arbitration must exculpate.
        let reg = Registry::new(3, seed);
        let mint = BlockMint::new(10, seed);
        let genuine = Dsm::new(&reg.keypair(2), value);
        // The accuser forges the second message with its own key but
        // claims node 2 sent it.
        let mut forged = Dsm::new(&reg.keypair(1), fake);
        forged.signer = 2;
        let complaint = Complaint::Contradiction { accused: 2, first: genuine, second: forged };
        let mut ledger = protocol::Ledger::new();
        let ctx = protocol::ArbitrationContext {
            registry: &reg,
            mint: &mint,
            fine: mechanism::FineSchedule::new(10.0, 0.5),
            victim_rate: 1.0,
            phase: 1,
        };
        let record = protocol::arbitrate(&complaint, 1, &ctx, &mut ledger);
        prop_assert!(!record.substantiated, "forged evidence convicted an honest node");
        prop_assert!(ledger.net(2) > 0.0, "the falsely accused is rewarded");
        prop_assert!(ledger.net(1) < 0.0, "the false accuser pays");
    }

    #[test]
    fn overload_claims_require_genuine_excess(
        blocks in 10usize..200,
        expected_frac in 0.1f64..0.9,
        received_frac in 0.1f64..0.9,
        seed in 0u64..1000,
    ) {
        let reg = Registry::new(3, seed);
        let mint = BlockMint::new(blocks, seed);
        let received = ((blocks as f64) * received_frac) as usize;
        let expected = expected_frac;
        let tag = mint.range(blocks - received, received);
        let complaint = Complaint::Overload { accused: 1, expected, tag };
        let mut ledger = protocol::Ledger::new();
        let ctx = protocol::ArbitrationContext {
            registry: &reg,
            mint: &mint,
            fine: mechanism::FineSchedule::new(10.0, 0.5),
            victim_rate: 1.0,
            phase: 3,
        };
        let record = protocol::arbitrate(&complaint, 2, &ctx, &mut ledger);
        let genuinely_over = received as f64 / blocks as f64 > expected + 0.5 / blocks as f64;
        prop_assert_eq!(record.substantiated, genuinely_over,
            "verdict must track the Λ-proven amount exactly");
    }

    #[test]
    fn replayed_tags_verify_only_against_the_same_seed(
        blocks in 1usize..400,
        seed in 0u64..1_000_000,
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        // A transcript replay checks the run's tags against a second mint
        // built from the run's seed; a mint from any other seed must
        // refuse every non-empty tag.
        let start = ((blocks as f64) * start_frac) as usize;
        let len = (((blocks - start) as f64) * len_frac) as usize;
        let tag = BlockMint::new(blocks, seed).range(start, len);
        let proven = len as f64 / blocks as f64;
        prop_assert_eq!(BlockMint::new(blocks, seed).verify(&tag), Some(proven));
        let owned = LoadTag::from_ids(tag.ids().to_vec());
        prop_assert_eq!(BlockMint::new(blocks, seed).verify(&owned), Some(proven));
        let other = BlockMint::new(blocks, seed ^ 0x9E37_79B9_7F4A_7C15);
        if len > 0 {
            prop_assert_eq!(other.verify(&tag), None);
            prop_assert_eq!(other.verify(&owned), None);
        }
    }

    #[test]
    fn forged_and_duplicated_tags_fail_in_both_representations(
        blocks in 2usize..400,
        seed in 0u64..1_000_000,
        n in 1usize..100,
        dup_at in 0usize..100,
    ) {
        let mint = BlockMint::new(blocks, seed);
        let replay = BlockMint::new(blocks, seed);
        let n = n.min(blocks);
        // Forgeries: guessed ids held outright, and a range of a mint drawn
        // from a seed the forger picked.
        let guessed = LoadTag::forged(n, seed.wrapping_add(1).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let foreign = BlockMint::new(blocks, !seed).range(0, n);
        // Duplicates: a genuine range with one of its ids shown twice, and
        // a genuine range glued to an overlapping one.
        let genuine = mint.range(blocks - n, n);
        let mut doubled = genuine.ids().to_vec();
        doubled.push(doubled[dup_at % n]);
        let mut glued = mint.range(0, blocks / 2 + 1).ids().to_vec();
        glued.extend_from_slice(&mint.range(blocks / 2, blocks - blocks / 2).ids());
        for bad in [guessed, foreign, LoadTag::from_ids(doubled), LoadTag::from_ids(glued)] {
            prop_assert_eq!(mint.verify(&bad), None, "{:?}", bad);
            prop_assert_eq!(replay.verify(&bad), None, "{:?}", bad);
        }
        prop_assert!(mint.verify(&genuine).is_some() && replay.verify(&genuine).is_some());
    }
}

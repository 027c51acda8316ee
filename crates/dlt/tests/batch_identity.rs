//! Differential bit-identity suite for the batch solver core (ISSUE 8).
//!
//! The contract under test: every number produced by `dlt::batch` is
//! **bit-identical** to the frozen scalar solver `dlt::linear::reference`
//! for the same chain — not "close", the same bits. Equality is asserted
//! two ways, which agree for finite values: `f64::to_bits` on individual
//! numbers, and `Debug`-formatted bytes on whole solutions (Rust's
//! shortest-roundtrip float printing is injective on finite f64, so equal
//! Debug strings imply equal bits).
//!
//! Coverage:
//!
//! * random mixed-length batches (m ∈ {1 … 64}) through [`solve_many`],
//!   including the batch-composition property — a chain's lanes do not
//!   depend on what else shares the batch;
//! * every suffix from [`solve_all_suffixes`] against the O(m²) per-suffix
//!   reference, for *both* recursion orders (solve-style `w̄` and
//!   `equivalent_time`-style);
//! * dirty-scratch reuse (a poisoned workspace must not perturb results);
//! * splice-survivor chains (the fault runners' re-solve inputs, solved by
//!   `linear::solve`);
//! * degenerate chains (single processor, two processors, zero links);
//! * the exact-rational oracle: on integer-rate chains the batch core's
//!   f64 output sits within 1e-12 of the arbitrary-precision ground truth,
//!   which itself satisfies Theorem 2.1 *exactly* (mirrors the E2 row).

use dlt::batch::{self, BatchScratch, BatchSolution};
use dlt::linear::reference;
use dlt::model::LinearNetwork;
use dlt::{exact, linear};
use proptest::prelude::*;

/// Random chain with `1..=64` processors. Link rates may be exactly zero
/// (the model allows free links) via the `prop_map` floor.
fn chain_strategy() -> impl Strategy<Value = LinearNetwork> {
    (1usize..=64).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.05f64..5.0, n),
            proptest::collection::vec(0.0f64..2.0, n.saturating_sub(1)),
        )
            .prop_map(|(w, z)| LinearNetwork::from_rates(&w, &z))
    })
}

/// A batch of up to 40 chains of independently random lengths — exercises
/// cohort grouping (several length cohorts per call, singleton cohorts,
/// duplicated lengths).
fn batch_strategy() -> impl Strategy<Value = Vec<LinearNetwork>> {
    proptest::collection::vec(chain_strategy(), 1..40)
}

/// Debug bytes of a full solution — the bit-identity proxy.
fn dbg(sol: &linear::LinearSolution) -> String {
    format!("{sol:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solve_many_is_bit_identical_to_reference(nets in batch_strategy()) {
        let got = batch::solve_many(&nets);
        prop_assert_eq!(got.len(), nets.len());
        for (i, net) in nets.iter().enumerate() {
            let want = reference::solve(net);
            prop_assert_eq!(dbg(&got.solution(i)), dbg(&want), "chain {}", i);
            prop_assert_eq!(got.makespan(i).to_bits(), want.makespan().to_bits());
            for s in 0..net.len() {
                prop_assert_eq!(
                    got.alpha_hat(i)[s].to_bits(),
                    want.local.alpha_hat(s).to_bits()
                );
                prop_assert_eq!(got.w_bar(i)[s].to_bits(), want.equivalent[s].to_bits());
                prop_assert_eq!(got.alloc(i)[s].to_bits(), want.alloc.alpha(s).to_bits());
            }
        }
    }

    #[test]
    fn solve_one_is_bit_identical_to_reference(net in chain_strategy()) {
        prop_assert_eq!(dbg(&batch::solve_one(&net)), dbg(&reference::solve(&net)));
    }

    /// A chain's result is a function of the chain alone: solving it inside
    /// an arbitrary batch yields the same bits as solving it by itself.
    #[test]
    fn batch_composition_does_not_affect_results(
        nets in batch_strategy(),
        pick in 0usize..4096,
    ) {
        let i = pick % nets.len();
        let together = batch::solve_many(&nets);
        let alone = batch::solve_many(std::slice::from_ref(&nets[i]));
        prop_assert_eq!(dbg(&together.solution(i)), dbg(&alone.solution(0)));
    }

    /// Reusing a scratch and output dirtied by differently-shaped batches
    /// must be invisible in the results.
    #[test]
    fn dirty_scratch_reuse_is_idempotent(
        nets in batch_strategy(),
        poison in batch_strategy(),
    ) {
        let mut scratch = BatchScratch::new();
        let mut fresh = BatchSolution::new();
        batch::solve_many_into(&nets, &mut scratch, &mut fresh);
        let mut reused = BatchSolution::new();
        batch::solve_many_into(&poison, &mut scratch, &mut reused);
        batch::solve_many_into(&nets, &mut scratch, &mut reused);
        prop_assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
    }

    /// One O(m) suffix sweep equals m + 1 independent reference solves —
    /// front fraction, makespan, full solution, and the second
    /// (`equivalent_time`-order) recursion, all bitwise.
    #[test]
    fn every_suffix_matches_the_reference(net in chain_strategy()) {
        let sfx = batch::solve_all_suffixes(&net);
        prop_assert_eq!(sfx.len(), net.len());
        for i in 0..net.len() {
            let want = reference::solve_suffix(&net, i);
            prop_assert_eq!(dbg(&sfx.solution(i)), dbg(&want), "suffix {}", i);
            prop_assert_eq!(
                sfx.alpha_hat_front(i).to_bits(),
                want.local.alpha_hat(0).to_bits()
            );
            prop_assert_eq!(sfx.makespan(i).to_bits(), want.makespan().to_bits());
            prop_assert_eq!(
                sfx.equivalent_time(i).to_bits(),
                reference::equivalent_time(&net.suffix(i)).to_bits(),
                "equivalent_time order, suffix {}", i
            );
        }
    }

    /// Splice-survivor chains are what the fault runners re-solve after a
    /// crash; the live solver must not move a bit on them.
    #[test]
    fn splice_survivors_stay_bit_identical(
        net in chain_strategy(),
        pick in 0usize..4096,
    ) {
        prop_assume!(net.len() >= 2);
        let dead = 1 + pick % (net.len() - 1);
        let survivor = linear::splice(&net, dead);
        prop_assert_eq!(
            dbg(&linear::solve(&survivor)),
            dbg(&reference::solve(&survivor))
        );
    }
}

#[test]
fn degenerate_chains_are_bit_identical() {
    let nets = [
        LinearNetwork::homogeneous(1, 2.5, 0.0), // single processor: α̂ = α = 1
        LinearNetwork::from_rates(&[1.0, 3.0], &[0.0]), // zero-rate link
        LinearNetwork::from_rates(&[0.05, 5.0], &[2.0]), // extreme rate ratio
        LinearNetwork::homogeneous(2, 1.0, 1.0),
    ];
    let got = batch::solve_many(&nets);
    for (i, net) in nets.iter().enumerate() {
        let want = reference::solve(net);
        assert_eq!(format!("{:?}", got.solution(i)), format!("{want:?}"));
        assert_eq!(format!("{:?}", linear::solve(net)), format!("{want:?}"));
    }
    // The m = 1 chain allocates everything to the root.
    assert_eq!(got.alloc(0), &[1.0]);
}

/// Exact-rational oracle (mirrors the E2 integer-chain row): on 50 chains
/// with small integer rates, the batch core equals the frozen reference
/// bit-for-bit, the rational solver satisfies Theorem 2.1 *exactly*, and
/// the f64 path sits within 1e-12 of the exact ground truth.
#[test]
fn exact_rational_oracle_on_integer_chains() {
    let mut nets = Vec::new();
    let mut chains = Vec::new();
    for seed in 0..50u64 {
        let m = 2 + (seed % 10) as usize;
        let w: Vec<i64> = (0..=m)
            .map(|i| 3 + ((seed as i64 + i as i64 * 7) % 40))
            .collect();
        let z: Vec<i64> = (0..m)
            .map(|i| 1 + ((seed as i64 * 3 + i as i64 * 5) % 8))
            .collect();
        let chain = exact::ExactChain::from_scaled_ints(&w, &z, 10);
        nets.push(chain.to_f64_network());
        chains.push(chain);
    }
    let batch = batch::solve_many(&nets);
    for (i, chain) in chains.iter().enumerate() {
        // f64 batch vs frozen f64 reference: bitwise.
        let want = reference::solve(&nets[i]);
        assert_eq!(
            format!("{:?}", batch.solution(i)),
            format!("{want:?}"),
            "chain {i}"
        );
        // Exact ground truth satisfies the simultaneous-finish identity
        // exactly (Theorem 2.1) and sums to exactly 1.
        let truth = exact::chain::solve(chain);
        assert!(exact::chain::verify_equal_finish(chain, &truth));
        assert!(exact::chain::verify_total(&truth));
        // f64 batch output within 1e-12 of the exact rationals.
        let mk = truth.makespan().to_f64();
        assert!(
            (batch.makespan(i) - mk).abs() <= 1e-12 * mk.max(1.0),
            "chain {i} makespan: batch {} vs exact {mk}",
            batch.makespan(i)
        );
        for s in 0..chain.len() {
            let e = truth.alloc[s].to_f64();
            let a = batch.alloc(i)[s];
            assert!(
                (a - e).abs() <= 1e-12,
                "chain {i} α_{s}: batch {a} vs exact {e}"
            );
        }
    }
}

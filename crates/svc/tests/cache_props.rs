//! Solver-cache correctness properties (ISSUE 4):
//!
//! 1. A cache hit returns **byte-identical** bytes to the cold solve it
//!    replaced, for random bid chains.
//! 2. Quantization never aliases two chains whose optimal allocations
//!    differ at the configured tolerance: chains that share a key differ
//!    per rate by less than one quantum, and their true (unquantized)
//!    optimal allocations agree to well within the service tolerance.
//! 3. Chains that differ by at least one quantum in any rate never share
//!    a key.
//!
//! PR 6 adds the staleness controls:
//!
//! 4. A TTL expiry forces a re-solve whose bytes are identical to the
//!    expired entry — expiry affects *when* we solve, never *what*.
//! 5. A quantum change drops every resident entry: no request after a
//!    `reconfigure` can ever be answered by an old-epoch body.
//!
//! The cold solve runs `dlt::linear::solve` inside `DlsLbl::allocate`;
//! the suite also checks:
//!
//! 6. The numbers in a cold-solved body are **bit-identical** to the
//!    frozen scalar solver `dlt::linear::reference` applied to the same
//!    quantized canonical chain, down to the last bit of every serialized
//!    float.

use dlt::linear;
use dlt::model::LinearNetwork;
use proptest::prelude::*;
use svc::handlers::solve_body;
use svc::{canonicalize, SolverCache, DEFAULT_QUANTUM};

/// Tolerance at which the service considers two allocations distinct.
const ALLOC_TOL: f64 = 1e-6;

fn chain_inputs() -> impl Strategy<Value = (f64, Vec<f64>, Vec<f64>)> {
    (1usize..=6).prop_flat_map(|m| {
        (
            0.1f64..5.0,
            proptest::collection::vec(0.01f64..2.0, m),
            proptest::collection::vec(0.1f64..5.0, m),
        )
    })
}

fn true_alloc(root: f64, links: &[f64], bids: &[f64]) -> Vec<f64> {
    let mut w = vec![root];
    w.extend_from_slice(bids);
    let net = LinearNetwork::from_rates(&w, links);
    let sol = linear::solve(&net);
    (0..net.len()).map(|i| sol.alloc.alpha(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_hit_is_byte_identical_to_cold_solve((root, links, bids) in chain_inputs()) {
        let chain = canonicalize(root, &links, &bids, DEFAULT_QUANTUM).unwrap();
        let cache = SolverCache::new(4, 32);
        let (cold, hit_cold) = cache.get_or_insert(&chain.key, || solve_body(&chain));
        prop_assert!(!hit_cold);
        // A second request for the same chain — and any request that
        // canonicalizes to the same key — must see the same bytes.
        let (warm, hit_warm) = cache.get_or_insert(&chain.key, || unreachable!("cache must hit"));
        prop_assert!(hit_warm);
        prop_assert_eq!(cold.as_bytes(), warm.as_bytes());
        // And the cached bytes equal an independent cold solve.
        prop_assert_eq!(warm.as_str(), solve_body(&chain).as_str());
    }

    #[test]
    fn cold_solve_is_bit_identical_to_the_frozen_reference(
        (root, links, bids) in chain_inputs(),
    ) {
        // The body a cold solve produces (and the cache then retains) is
        // computed by the live solver; the reference path below is the
        // frozen snapshot. minijson writes floats with Rust's
        // shortest-roundtrip formatting and parses them back correctly
        // rounded, so `to_bits` equality through the serialized body is a
        // faithful bit-identity check.
        let chain = canonicalize(root, &links, &bids, DEFAULT_QUANTUM).unwrap();
        let body = minijson::Value::parse(&solve_body(&chain)).expect("body is JSON");

        let mut w = vec![chain.root_rate];
        w.extend_from_slice(&chain.bids);
        let net = LinearNetwork::from_rates(&w, &chain.link_rates);
        let want = dlt::linear::reference::solve(&net);

        let makespan = body.get("makespan").and_then(|v| v.as_f64()).unwrap();
        prop_assert_eq!(makespan.to_bits(), want.makespan().to_bits());
        let alloc = body.get("alloc").and_then(|v| v.as_array()).unwrap();
        prop_assert_eq!(alloc.len(), net.len());
        for (i, v) in alloc.iter().enumerate() {
            prop_assert_eq!(
                v.as_f64().unwrap().to_bits(),
                want.alloc.alpha(i).to_bits(),
                "alloc[{}]", i
            );
        }
    }

    #[test]
    fn aliased_chains_agree_at_the_tolerance(
        (root, links, bids) in chain_inputs(),
        jitter in proptest::collection::vec(-0.49f64..0.49, 13),
    ) {
        // Perturb every rate by strictly less than half a quantum around
        // its canonical value: the perturbed chain is *forced* to alias.
        let canon = canonicalize(root, &links, &bids, DEFAULT_QUANTUM).unwrap();
        let mut j = jitter.into_iter().cycle();
        let mut wiggle = |x: f64| x + j.next().unwrap() * DEFAULT_QUANTUM;
        let root2 = wiggle(canon.root_rate);
        let links2: Vec<f64> = canon.link_rates.iter().map(|&z| wiggle(z)).collect();
        let bids2: Vec<f64> = canon.bids.iter().map(|&b| wiggle(b)).collect();
        let canon2 = canonicalize(root2, &links2, &bids2, DEFAULT_QUANTUM).unwrap();
        prop_assert_eq!(&canon.key, &canon2.key, "sub-quantum jitter must alias");
        // Aliased chains must not differ at the advertised tolerance: the
        // true optimal allocations of the two *unquantized* chains agree.
        let a = true_alloc(root, &links, &bids);
        let b = true_alloc(root2, &links2, &bids2);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!(
                (x - y).abs() < ALLOC_TOL,
                "alpha_{} diverged: {} vs {}", i, x, y
            );
        }
    }

    #[test]
    fn super_quantum_changes_never_alias(
        (root, links, bids) in chain_inputs(),
        which in 0usize..12,
        bump in 2.0f64..1000.0,
    ) {
        let canon = canonicalize(root, &links, &bids, DEFAULT_QUANTUM).unwrap();
        let m = bids.len();
        let slot = which % (1 + 2 * m);
        let delta = bump * DEFAULT_QUANTUM;
        let (mut root2, mut links2, mut bids2) =
            (canon.root_rate, canon.link_rates.clone(), canon.bids.clone());
        if slot == 0 {
            root2 += delta;
        } else if slot <= m {
            links2[slot - 1] += delta;
        } else {
            bids2[slot - 1 - m] += delta;
        }
        let canon2 = canonicalize(root2, &links2, &bids2, DEFAULT_QUANTUM).unwrap();
        prop_assert_ne!(&canon.key, &canon2.key, "a ≥ 2-quantum change must re-key");
    }

    #[test]
    fn ttl_expiry_resolves_to_identical_bytes((root, links, bids) in chain_inputs()) {
        // A zero TTL expires every entry on its next touch — no sleeping.
        let chain = canonicalize(root, &links, &bids, DEFAULT_QUANTUM).unwrap();
        let cache = SolverCache::with_ttl(4, 32, Some(std::time::Duration::ZERO));
        let (cold, hit) = cache.get_or_insert(&chain.key, || solve_body(&chain));
        prop_assert!(!hit);
        let (resolved, hit) = cache.get_or_insert(&chain.key, || solve_body(&chain));
        prop_assert!(!hit, "zero-TTL entry must expire into a miss");
        prop_assert_eq!(cache.expired(), 1);
        prop_assert_eq!(
            cold.as_bytes(), resolved.as_bytes(),
            "expiry changed the answer bytes"
        );
    }

    #[test]
    fn quantum_change_never_serves_a_stale_body(
        (root, links, bids) in chain_inputs(),
        q_idx in 0usize..4,
    ) {
        let quantum2 = [1e-6f64, 1e-7, 1e-8, 1e-12][q_idx];
        prop_assert_ne!(quantum2, DEFAULT_QUANTUM);
        let cache = SolverCache::new(4, 32);
        cache.invalidate_on_quantum_change(DEFAULT_QUANTUM);
        let chain = canonicalize(root, &links, &bids, DEFAULT_QUANTUM).unwrap();
        cache.get_or_insert(&chain.key, || solve_body(&chain));
        prop_assert_eq!(cache.len(), 1);
        // The server reconfigures its quantum: every entry must go, even
        // ones whose tick vector would collide across the two epochs.
        prop_assert!(cache.invalidate_on_quantum_change(quantum2));
        prop_assert!(cache.is_empty(), "old-epoch entry survived");
        let chain2 = canonicalize(root, &links, &bids, quantum2).unwrap();
        let (body, hit) = cache.get_or_insert(&chain2.key, || solve_body(&chain2));
        prop_assert!(!hit, "post-reconfigure request must cold-solve");
        prop_assert_eq!(body.as_str(), solve_body(&chain2).as_str());
    }
}

//! Property tests across the dlt crate's extension modules: affine costs,
//! multi-installment scheduling, sequencing, and tree canonicalization.

use dlt::affine::{self, AffineOverheads};
use dlt::model::{LinearNetwork, StarNetwork, TreeNode};
use dlt::multiround::{self, MultiRoundConfig};
use dlt::{linear, seqsearch, tree};
use proptest::prelude::*;

fn chain_strategy() -> impl Strategy<Value = LinearNetwork> {
    (2usize..=8).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.1f64..5.0, n),
            proptest::collection::vec(0.01f64..2.0, n - 1),
        )
            .prop_map(|(w, z)| LinearNetwork::from_rates(&w, &z))
    })
}

fn star_strategy() -> impl Strategy<Value = StarNetwork> {
    (2usize..=5).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.1f64..5.0, n),
            proptest::collection::vec(0.01f64..2.0, n - 1),
        )
            .prop_map(|(w, z)| StarNetwork::from_rates(&w, &z))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn affine_zero_overheads_is_the_linear_model(net in chain_strategy()) {
        let sol = affine::solve(&net, &AffineOverheads::zero(net.len()));
        let lin = linear::solve(&net);
        prop_assert!((sol.makespan - lin.makespan()).abs() < 1e-6 * lin.makespan().max(1.0));
        prop_assert_eq!(sol.participants, net.len());
    }

    #[test]
    fn affine_makespan_monotone_in_overheads(
        net in chain_strategy(),
        c1 in 0.0f64..0.5,
        c2 in 0.0f64..0.5,
    ) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let a = affine::solve(&net, &AffineOverheads::uniform(net.len(), lo, lo)).makespan;
        let b = affine::solve(&net, &AffineOverheads::uniform(net.len(), hi, hi)).makespan;
        prop_assert!(b >= a - 1e-9);
    }

    #[test]
    fn affine_allocation_always_feasible(net in chain_strategy(), c in 0.0f64..2.0) {
        let sol = affine::solve(&net, &AffineOverheads::uniform(net.len(), c * 0.5, c));
        prop_assert!(sol.alloc.validate().is_ok());
        prop_assert!(sol.participants >= 1);
    }

    #[test]
    fn multiround_single_round_matches_algorithm_1(net in chain_strategy()) {
        let sched = multiround::schedule(&net, &MultiRoundConfig::new(1, 0.0));
        prop_assert!((sched.makespan - linear::solve(&net).makespan()).abs() < 1e-9);
    }

    #[test]
    fn multiround_optimizer_never_loses_to_single_split(
        net in chain_strategy(),
        k in 2usize..10,
    ) {
        let cfg = MultiRoundConfig::new(k, 0.0);
        let naive = multiround::makespan_with(&net, &cfg, &linear::solve(&net).alloc);
        let (_, optimized) = multiround::optimize_allocation(&net, &cfg);
        prop_assert!(optimized <= naive + 1e-9);
    }

    #[test]
    fn multiround_recurrence_respects_round_order(
        net in chain_strategy(),
        k in 2usize..6,
    ) {
        let cfg = MultiRoundConfig::new(k, 0.01);
        let sched = multiround::schedule(&net, &cfg);
        for i in 0..net.len() {
            for r in 1..k {
                prop_assert!(sched.compute_end[r][i] >= sched.compute_end[r - 1][i] - 1e-12);
            }
        }
    }

    #[test]
    fn ascending_link_order_is_exhaustively_optimal(star in star_strategy()) {
        let t = TreeNode::from_star(&star);
        let search = seqsearch::exhaustive_search(&t, 362_880).unwrap();
        let ascending = seqsearch::order_makespan(&t, &seqsearch::canonical_order(&t));
        prop_assert!(ascending <= search.best_makespan + 1e-9);
    }

    #[test]
    fn canonicalize_preserves_size_and_never_hurts(net in chain_strategy(), fanout in 1usize..4) {
        // Build a random-ish tree from the chain's rates and canonicalize.
        let cfg = workloads_free_tree(&net, fanout);
        let canonical = tree::canonicalize(&cfg);
        prop_assert_eq!(canonical.size(), cfg.size());
        let raw = tree::equivalent_time(&cfg);
        let opt = tree::equivalent_time(&canonical);
        prop_assert!(opt <= raw + 1e-9, "canonical {opt} vs raw {raw}");
        // Canonical trees are sorted by link rate at every node.
        fn sorted(node: &dlt::model::TreeNode) -> bool {
            node.children.windows(2).all(|p| p[0].0.z <= p[1].0.z)
                && node.children.iter().all(|(_, c)| sorted(c))
        }
        prop_assert!(sorted(&canonical));
    }
}

/// Deterministically fold a chain's rates into a heap-shaped tree without
/// depending on the workloads crate (dlt dev-dependencies only): node `i`'s
/// parent is `(i-1)/fanout`.
fn workloads_free_tree(net: &LinearNetwork, fanout: usize) -> dlt::model::TreeNode {
    use dlt::model::{Link, TreeNode};
    let n = net.len();
    let links = net.rates_z();
    fn build(i: usize, n: usize, fanout: usize, net: &LinearNetwork, links: &[f64]) -> TreeNode {
        let mut children = Vec::new();
        for k in 1..=fanout {
            let c = i * fanout + k;
            if c < n {
                let z = links[(c - 1) % links.len()].max(0.01);
                children.push((Link::new(z), build(c, n, fanout, net, links)));
            }
        }
        TreeNode {
            processor: net.processors()[i],
            children,
        }
    }
    build(0, n, fanout, net, &links)
}

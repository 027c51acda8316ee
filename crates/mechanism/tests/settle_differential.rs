//! Bitwise differential suite for the one-pass settlement paths.
//!
//! * `DlsLbl::deviation` settles one agent against a fixed profile of the
//!   others without re-solving the chain, one conduct at a time or eight
//!   lanes at a time (`Deviation::settle_each`); every field of its
//!   outcome must equal `DlsLbl::settle(..).agents[j - 1]` to the bit, and
//!   so must `verify::bid_sweep`'s utilities.
//! * `TreeMechanism::settle` runs five passes over flat preorder arrays;
//!   it must equal, to the bit, a frozen copy of the path it replaced,
//!   which rebuilt the bid tree, re-ordered it with a preorder map, solved
//!   it recursively and re-solved each parent's local star once per agent.
//!   Its buffers stay warm per thread, so a settlement after larger and
//!   smaller trees on one thread must equal the same settlement as the
//!   first on a fresh thread.
//! * `dlt::tree::solve` runs one bottom-up and one top-down pass over
//!   preorder arrays; in preorder, it must equal a frozen copy of the
//!   nested recursion it replaced, which re-solved every subtree once per
//!   ancestor. The pin covers a lone leaf, every shape below with its
//!   stored order reversed, and every `splice_node` survivor: the trees
//!   fault recovery re-solves, down to a lone root.
//!
//! Floats are compared with `to_bits`, so `-0.0`/`0.0` and NaN payloads
//! count as differences.

use dlt::model::{Link, Processor, TreeNode};
use dlt::seqsearch::{self, TreeOrder};
use dlt::tree::{self, FlatSolution};
use mechanism::verify::{bid_sweep, default_factor_grid};
use mechanism::{Agent, AgentOutcome, Conduct, DlsLbl, OrderPolicy, TreeMechanism, TreeOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------- chains

fn outcome_bits(o: &AgentOutcome) -> [u64; 10] {
    let b = &o.breakdown;
    [
        o.assigned_load,
        o.actual_load,
        o.actual_rate,
        b.valuation,
        b.compensation,
        b.recompense,
        b.bonus,
        b.solution_bonus,
        b.payment,
        b.utility,
    ]
    .map(f64::to_bits)
}

/// A seeded chain mechanism with `m` strategic agents.
fn chain(m: usize, seed: u64) -> (DlsLbl, Vec<Agent>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let links = (0..m).map(|_| rng.gen_range(0.05..=0.8)).collect();
    let mech = DlsLbl::new(rng.gen_range(0.5..=4.0), links);
    let agents = (0..m)
        .map(|_| Agent::new(rng.gen_range(0.5..=4.0)))
        .collect();
    (mech, agents)
}

/// Conducts of one agent: underbids, overbids, slack execution, running
/// faster than bid, and absolute actual loads that overload or shirk.
fn conducts_of(a: Agent) -> Vec<Conduct> {
    let mut out = vec![Conduct::truthful(a)];
    for f in [0.05, 0.3, 0.9, 1.0, 1.7, 10.0] {
        out.push(Conduct::misreport(a, f));
    }
    out.push(Conduct::slack_execution(a, 2.0));
    out.push(Conduct {
        bid: a.true_rate * 2.0,
        actual_rate: a.true_rate,
        actual_load: None,
    });
    for load in [0.0, 1e-3, 0.5, 0.95] {
        out.push(Conduct {
            actual_load: Some(load),
            ..Conduct::truthful(a)
        });
    }
    out
}

/// Every conduct of every agent against `others`, both ways, one at a
/// time; then in lane batches.
fn assert_deviations_match(mech: &DlsLbl, agents: &[Agent], others: &[Conduct], found: bool) {
    for j in 1..=agents.len() {
        let mut deviation = mech.deviation(others, j);
        for conduct in conducts_of(agents[j - 1]) {
            let mut profile = others.to_vec();
            profile[j - 1] = conduct;
            let want = mech.settle(&profile, found).agents[j - 1];
            let got = deviation.settle(conduct, found);
            assert_eq!(
                outcome_bits(&got),
                outcome_bits(&want),
                "m={} j={j} found={found} {conduct:?}:\n got {got:?}\nwant {want:?}",
                agents.len()
            );
        }
    }
    assert_batches_match(mech, agents, others, found);
}

/// Batches of every length up to two full chunks of the kernel's eight
/// lanes and one more, so every padded-tail shape runs.
const MAX_BATCH: usize = 2 * 8 + 1;

/// Every batch length of `P_j`'s conducts through one `settle_each`, each
/// outcome against a whole-chain settle; the batches rotate through
/// `conducts_of`, so every lane position meets every kind of conduct.
fn assert_batches_match(mech: &DlsLbl, agents: &[Agent], others: &[Conduct], found: bool) {
    let m = agents.len();
    let mut js = vec![1, m.div_ceil(2), m];
    js.dedup();
    for j in js {
        let pool = conducts_of(agents[j - 1]);
        let mut deviation = mech.deviation(others, j);
        for n in 1..=MAX_BATCH {
            let batch: Vec<Conduct> = (0..n).map(|k| pool[(n + k) % pool.len()]).collect();
            let mut seen = 0;
            deviation.settle_each(batch.iter().copied(), found, |k, got| {
                assert_eq!(k, seen, "outcomes arrive in order");
                seen += 1;
                let mut profile = others.to_vec();
                profile[j - 1] = batch[k];
                let want = mech.settle(&profile, found).agents[j - 1];
                assert_eq!(
                    outcome_bits(&got),
                    outcome_bits(&want),
                    "m={m} j={j} n={n} lane {k} found={found} {:?}:\n got {got:?}\nwant {want:?}",
                    batch[k]
                );
            });
            assert_eq!(seen, n, "m={m} j={j}: one outcome per conduct");
        }
    }
}

#[test]
fn deviation_matches_whole_chain_settle_bitwise() {
    for (k, m) in [1usize, 2, 3, 16, 200].into_iter().enumerate() {
        let (mech, agents) = chain(m, 0xD5 + k as u64);
        let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        assert_deviations_match(&mech, &agents, &truthful, false);

        // Others that lie and slack.
        let mut rng = StdRng::seed_from_u64(0x07E + k as u64);
        let lying: Vec<Conduct> = agents
            .iter()
            .map(|&a| Conduct {
                bid: a.true_rate * rng.gen_range(0.4..=2.5),
                actual_rate: a.true_rate * rng.gen_range(1.0..=1.5),
                actual_load: None,
            })
            .collect();
        assert_deviations_match(&mech, &agents, &lying, false);

        // The eq. 4.13 solution bonus, found and not found.
        let bonus = mech.clone().with_solution_bonus(0.25);
        assert_deviations_match(&bonus, &agents, &lying, true);
        assert_deviations_match(&bonus, &agents, &truthful, false);
    }
}

#[test]
fn an_empty_batch_settles_nothing() {
    let (mech, agents) = chain(4, 5);
    let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
    mech.deviation(&truthful, 2)
        .settle_each(std::iter::empty(), false, |k, _| panic!("outcome {k}"));
}

#[test]
fn bid_sweep_matches_one_whole_settle_per_point() {
    let grid = default_factor_grid();
    for (k, m) in [4usize, 16, 64, 256].into_iter().enumerate() {
        let (mech, agents) = chain(m, 0x5EE + k as u64);
        let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        for j in [1, 2, m / 2, m - 1, m] {
            let me = agents[j - 1];
            let utility = |bid: f64| {
                let mut profile = truthful.clone();
                profile[j - 1] = Conduct {
                    bid,
                    actual_rate: me.feasible_actual(bid.min(me.true_rate)),
                    actual_load: None,
                };
                mech.settle(&profile, false).utility(j)
            };
            let sweep = bid_sweep(&mech, &agents, j, &truthful, &grid);
            assert_eq!(sweep.agent, j);
            assert_eq!(
                sweep.truthful_utility.to_bits(),
                utility(me.true_rate).to_bits(),
                "m={m} j={j} truthful"
            );
            assert_eq!(sweep.points.len(), grid.len());
            for (p, &f) in sweep.points.iter().zip(&grid) {
                let bid = me.true_rate * f;
                assert_eq!(p.bid_factor.to_bits(), f.to_bits());
                assert_eq!(p.bid.to_bits(), bid.to_bits());
                assert_eq!(
                    p.utility.to_bits(),
                    utility(bid).to_bits(),
                    "m={m} j={j} ×{f}"
                );
            }
        }
    }
}

#[test]
fn deviation_ignores_the_deviating_agents_entry_in_others() {
    let (mech, agents) = chain(5, 3);
    let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
    let mut skewed = truthful.clone();
    skewed[2] = Conduct::misreport(agents[2], 7.0);
    let conduct = Conduct::misreport(agents[2], 0.6);
    let a = mech.deviation(&truthful, 3).settle(conduct, false);
    let b = mech.deviation(&skewed, 3).settle(conduct, false);
    assert_eq!(outcome_bits(&a), outcome_bits(&b));
}

#[test]
#[should_panic(expected = "processor rate must be positive")]
fn deviation_rejects_a_non_positive_bid_like_settle() {
    let (mech, agents) = chain(3, 4);
    let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
    let mut bad = truthful[1];
    bad.bid = 0.0;
    mech.deviation(&truthful, 2).settle(bad, false);
}

// ----------------------------------------------------------------- trees

/// The replaced recursion, frozen: every local star re-solved from a fresh
/// `StarNetwork`, every subtree re-solved once per ancestor.
mod frozen {
    use super::*;

    /// The replaced nested solution, mirroring the tree's shape.
    pub struct Nested {
        pub alpha: f64,
        pub received: f64,
        pub equivalent: f64,
        pub children: Vec<Nested>,
    }

    /// The replaced `star::solve` arithmetic: fractions and makespan.
    pub fn star_solve(root_w: f64, children: &[(f64, f64)]) -> (Vec<f64>, f64) {
        let mut raw = Vec::with_capacity(children.len() + 1);
        raw.push(1.0f64);
        let mut prev_w = root_w;
        for &(z, w) in children {
            let ratio = prev_w / (z + w);
            let prev = *raw.last().expect("non-empty");
            raw.push(prev * ratio);
            prev_w = w;
        }
        let total: f64 = raw.iter().sum();
        let fractions: Vec<f64> = raw.iter().map(|r| r / total).collect();
        let makespan = fractions[0] * root_w;
        (fractions, makespan)
    }

    fn local_star(node: &TreeNode) -> Vec<(f64, f64)> {
        node.children
            .iter()
            .map(|(link, child)| (link.z, equivalent_time(child)))
            .collect()
    }

    pub fn equivalent_time(node: &TreeNode) -> f64 {
        if node.children.is_empty() {
            return node.processor.w;
        }
        star_solve(node.processor.w, &local_star(node)).1
    }

    pub fn distribute(node: &TreeNode, amount: f64) -> Nested {
        if node.children.is_empty() {
            return Nested {
                alpha: amount,
                received: amount,
                equivalent: node.processor.w,
                children: Vec::new(),
            };
        }
        let (fractions, makespan) = star_solve(node.processor.w, &local_star(node));
        let children = node
            .children
            .iter()
            .enumerate()
            .map(|(i, (_, child))| distribute(child, fractions[i + 1] * amount))
            .collect();
        Nested {
            alpha: fractions[0] * amount,
            received: amount,
            equivalent: makespan,
            children,
        }
    }

    /// `seqsearch::apply_order` plus the old→new preorder map.
    fn apply_order_mapped(root: &TreeNode, order: &TreeOrder) -> (TreeNode, Vec<usize>) {
        fn renumber(
            node: &TreeNode,
            old: usize,
            order: &TreeOrder,
            next: &mut usize,
            map: &mut [usize],
        ) {
            map[old] = *next;
            *next += 1;
            let mut first = Vec::with_capacity(node.children.len());
            let mut at = old + 1;
            for (_, c) in &node.children {
                first.push(at);
                at += c.size();
            }
            for &k in &order.perms[old] {
                renumber(&node.children[k].1, first[k], order, next, map);
            }
        }
        let ordered = seqsearch::apply_order(root, order);
        let mut map = vec![0; order.perms.len()];
        renumber(root, 0, order, &mut 0, &mut map);
        (ordered, map)
    }

    struct NodeInfo {
        parent: Option<usize>,
        rate: f64,
        equivalent: f64,
        assigned: f64,
        alpha_hat: f64,
        leaf: bool,
        children: Vec<(f64, usize)>,
    }

    fn with_bids(shape: &TreeNode, bids: &[f64]) -> TreeNode {
        fn rebuild(node: &TreeNode, bids: &[f64], next: &mut usize, is_root: bool) -> TreeNode {
            let rate = if is_root {
                node.processor.w
            } else {
                *next += 1;
                bids[*next - 1]
            };
            TreeNode {
                processor: Processor::new(rate),
                children: node
                    .children
                    .iter()
                    .map(|(l, c)| (*l, rebuild(c, bids, next, false)))
                    .collect(),
            }
        }
        rebuild(shape, bids, &mut 0, true)
    }

    fn service_order(policy: &OrderPolicy, instantiated: &TreeNode) -> TreeOrder {
        match policy {
            OrderPolicy::Canonical => seqsearch::identity_order(instantiated),
            OrderPolicy::Frozen(order) => order.clone(),
            OrderPolicy::BidFastestEquivalentFirst => {
                fn walk(node: &TreeNode, out: &mut Vec<Vec<usize>>) {
                    let mut perm: Vec<usize> = (0..node.children.len()).collect();
                    let eqs: Vec<f64> = node
                        .children
                        .iter()
                        .map(|(_, c)| equivalent_time(c))
                        .collect();
                    perm.sort_by(|&a, &b| eqs[a].total_cmp(&eqs[b]));
                    out.push(perm);
                    for (_, c) in &node.children {
                        walk(c, out);
                    }
                }
                let mut perms = Vec::new();
                walk(instantiated, &mut perms);
                TreeOrder { perms }
            }
        }
    }

    fn analyze(mech: &TreeMechanism, bids: &[f64]) -> (Vec<NodeInfo>, f64, f64) {
        let instantiated = with_bids(mech.shape(), bids);
        let order = service_order(mech.policy(), &instantiated);
        let (ordered, map) = apply_order_mapped(&instantiated, &order);
        let solution = distribute(&ordered, 1.0);
        let n = map.len();
        let mut old_of_new = vec![0usize; n];
        for (old, &new) in map.iter().enumerate() {
            old_of_new[new] = old;
        }
        let mut infos: Vec<Option<NodeInfo>> = (0..n).map(|_| None).collect();
        fn walk(
            node: &TreeNode,
            sol: &Nested,
            parent: Option<usize>,
            next_new: &mut usize,
            old_of_new: &[usize],
            infos: &mut [Option<NodeInfo>],
        ) -> usize {
            let old = old_of_new[*next_new];
            *next_new += 1;
            infos[old] = Some(NodeInfo {
                parent,
                rate: node.processor.w,
                equivalent: sol.equivalent,
                assigned: sol.alpha,
                alpha_hat: if sol.received > 1e-300 {
                    sol.alpha / sol.received
                } else {
                    1.0
                },
                leaf: node.children.is_empty(),
                children: Vec::new(),
            });
            for ((link, child), csol) in node.children.iter().zip(&sol.children) {
                let cold = walk(child, csol, Some(old), next_new, old_of_new, infos);
                infos[old].as_mut().unwrap().children.push((link.z, cold));
            }
            old
        }
        walk(&ordered, &solution, None, &mut 0, &old_of_new, &mut infos);
        let infos = infos.into_iter().map(Option::unwrap).collect();
        (infos, solution.equivalent, solution.alpha)
    }

    /// Per agent `(assigned, actual_load, bonus, payment, utility)`, then
    /// the root load and the makespan.
    pub fn settle(mech: &TreeMechanism, conducts: &[Conduct]) -> (Vec<[f64; 5]>, f64, f64) {
        let bids: Vec<f64> = conducts.iter().map(|c| c.bid).collect();
        let (infos, makespan, root_load) = analyze(mech, &bids);
        let agents = (1..infos.len())
            .map(|j| {
                let info = &infos[j];
                let c = &conducts[j - 1];
                let assigned = info.assigned;
                let actual_load = c.actual_load.unwrap_or(assigned);
                let w_hat = if info.leaf {
                    c.actual_rate
                } else if c.actual_rate >= info.rate {
                    info.alpha_hat * c.actual_rate
                } else {
                    info.equivalent
                };
                let parent = &infos[info.parent.unwrap()];
                let star: Vec<(f64, f64)> = parent
                    .children
                    .iter()
                    .map(|&(z, k)| (z, infos[k].equivalent))
                    .collect();
                let (fractions, _) = star_solve(parent.rate, &star);
                let mut worst = fractions[0] * parent.rate;
                let mut comm = 0.0;
                for (i, &(z, k)) in parent.children.iter().enumerate() {
                    let a = fractions[i + 1];
                    comm += a * z;
                    let rate = if k == j { w_hat } else { infos[k].equivalent };
                    worst = worst.max(comm + a * rate);
                }
                let bonus = parent.rate - worst;
                // `payment::breakdown`, eqs. 4.4–4.8.
                let v = -actual_load * c.actual_rate;
                if actual_load <= 0.0 {
                    return [assigned, actual_load, 0.0, 0.0, v];
                }
                let e = if actual_load >= assigned {
                    (actual_load - assigned) * c.actual_rate
                } else {
                    0.0
                };
                let q = assigned * c.actual_rate + e + bonus;
                [assigned, actual_load, bonus, q, v + q]
            })
            .collect();
        (agents, root_load, makespan)
    }
}

fn tree_bits(o: &TreeOutcome) -> (Vec<[u64; 5]>, u64, u64) {
    let agents = o
        .agents
        .iter()
        .map(|a| [a.assigned, a.actual_load, a.bonus, a.payment, a.utility].map(f64::to_bits))
        .collect();
    (agents, o.root_load.to_bits(), o.makespan.to_bits())
}

fn frozen_bits(o: (Vec<[f64; 5]>, f64, f64)) -> (Vec<[u64; 5]>, u64, u64) {
    (
        o.0.iter().map(|a| a.map(f64::to_bits)).collect(),
        o.1.to_bits(),
        o.2.to_bits(),
    )
}

/// A seeded random tree of `n` nodes. Links come from a short list half
/// the time, so canonicalization meets ties.
fn random_tree(n: usize, rng: &mut StdRng) -> TreeNode {
    let mut parent = vec![0usize; n];
    for (i, p) in parent.iter_mut().enumerate().skip(1) {
        *p = rng.gen_range(0..i);
    }
    let mut link = vec![0.0; n];
    for z in link.iter_mut().skip(1) {
        *z = if rng.gen_range(0..2usize) == 0 {
            [0.1, 0.2, 0.3][rng.gen_range(0..3usize)]
        } else {
            rng.gen_range(0.05..=0.8)
        };
    }
    let rate: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..=4.0)).collect();
    fn build(i: usize, parent: &[usize], link: &[f64], rate: &[f64]) -> TreeNode {
        TreeNode {
            processor: Processor::new(rate[i]),
            children: (i + 1..parent.len())
                .filter(|&c| parent[c] == i)
                .map(|c| (Link::new(link[c]), build(c, parent, link, rate)))
                .collect(),
        }
    }
    build(0, &parent, &link, &rate)
}

/// A seeded random service order fitting `shape`.
fn random_order(shape: &TreeNode, rng: &mut StdRng) -> TreeOrder {
    let mut order = seqsearch::identity_order(shape);
    for perm in &mut order.perms {
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
    }
    order
}

/// The tree cases: the shape grid plus seeded random trees, with their
/// agents' true rates in canonical preorder.
fn tree_cases() -> Vec<(TreeNode, Vec<f64>)> {
    let mut cases: Vec<(TreeNode, Vec<f64>)> = workloads::tree_shape_grid(0xE24)
        .into_iter()
        .map(|c| (c.shape, c.true_rates))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x7EE5);
    for n in [2usize, 3, 5, 8, 13, 21, 34] {
        for _ in 0..3 {
            let shape = tree::canonicalize(&random_tree(n, &mut rng));
            let rates = (1..n).map(|_| rng.gen_range(0.5..=4.0)).collect();
            cases.push((shape, rates));
        }
    }
    cases
}

#[test]
fn tree_settle_matches_the_frozen_rebuild_path_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x5E771E);
    let mut checked = 0;
    for (shape, rates) in tree_cases() {
        let agents: Vec<Agent> = rates.iter().map(|&w| Agent::new(w)).collect();
        let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        let policies = [
            OrderPolicy::Canonical,
            OrderPolicy::Frozen(random_order(&shape, &mut rng)),
            OrderPolicy::BidFastestEquivalentFirst,
        ];
        for policy in policies {
            let mech = TreeMechanism::with_order(shape.clone(), policy);
            let mut profiles = vec![truthful.clone()];
            for j in 0..agents.len() {
                for conduct in conducts_of(agents[j]) {
                    let mut p = truthful.clone();
                    p[j] = conduct;
                    profiles.push(p);
                }
            }
            for conducts in profiles {
                assert_eq!(
                    tree_bits(&mech.settle(&conducts)),
                    frozen_bits(frozen::settle(&mech, &conducts)),
                    "{:?} on {shape:?} under {conducts:?}",
                    mech.policy()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 1000, "only {checked} profiles");
}

#[test]
fn a_warm_tree_workspace_settles_like_a_fresh_thread() {
    // Sizes alternate, largest first, so each settlement meets the
    // leftovers of a larger and of a smaller tree.
    let mut cases = tree_cases();
    cases.sort_by_key(|(shape, _)| std::cmp::Reverse(shape.size()));
    let mut alternating = Vec::with_capacity(cases.len());
    let mut cases = std::collections::VecDeque::from(cases);
    while let Some(large) = cases.pop_front() {
        alternating.push(large);
        alternating.extend(cases.pop_back());
    }
    let mut rng = StdRng::seed_from_u64(0x3A93);
    let mut checked = 0;
    for (shape, rates) in alternating {
        let agents: Vec<Agent> = rates.iter().map(|&w| Agent::new(w)).collect();
        let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        let mut profiles = vec![truthful.clone()];
        for factor in [rng.gen_range(0.2..1.0), rng.gen_range(1.0..=5.0)] {
            let mut lying = truthful.clone();
            let j = rng.gen_range(0..agents.len());
            lying[j] = Conduct::misreport(agents[j], factor);
            profiles.push(lying);
        }
        let policies = [
            OrderPolicy::Canonical,
            OrderPolicy::Frozen(random_order(&shape, &mut rng)),
            OrderPolicy::BidFastestEquivalentFirst,
        ];
        for policy in policies {
            let mech = TreeMechanism::with_order(shape.clone(), policy);
            for conducts in &profiles {
                let warm = tree_bits(&mech.settle(conducts));
                let fresh = std::thread::scope(|s| {
                    s.spawn(|| tree_bits(&mech.settle(conducts)))
                        .join()
                        .unwrap()
                });
                assert_eq!(warm, fresh, "{:?} on {shape:?}", mech.policy());
                checked += 1;
            }
        }
    }
    assert!(checked > 250, "only {checked} settlements");
}

/// The frozen solution's `[alpha, received, equivalent]` bits, preorder.
fn nested_bits(s: &frozen::Nested, out: &mut Vec<[u64; 3]>) {
    out.push([s.alpha, s.received, s.equivalent].map(f64::to_bits));
    for c in &s.children {
        nested_bits(c, out);
    }
}

/// The flat solution's `[alpha, received, equivalent]` bits, preorder.
fn flat_bits(s: &FlatSolution) -> Vec<[u64; 3]> {
    (0..s.alpha.len())
        .map(|i| [s.alpha[i], s.received[i], s.equivalent[i]].map(f64::to_bits))
        .collect()
}

/// `shape` with `rates` at its non-root processors, preorder.
fn with_rates(shape: &TreeNode, rates: &[f64]) -> TreeNode {
    fn build(node: &TreeNode, rates: &[f64], at: &mut usize, root: bool) -> TreeNode {
        let w = if root {
            node.processor.w
        } else {
            *at += 1;
            rates[*at - 1]
        };
        TreeNode {
            processor: Processor::new(w),
            children: node
                .children
                .iter()
                .map(|(l, c)| (*l, build(c, rates, at, false)))
                .collect(),
        }
    }
    build(shape, rates, &mut 0, true)
}

#[test]
fn tree_solve_matches_the_frozen_recursion_bitwise() {
    let mut trees = vec![TreeNode::leaf(2.7)];
    for (shape, rates) in tree_cases() {
        // The canonical order, a stored (non-canonical) order, and every
        // survivor of one splice.
        let canonical = with_rates(&shape, &rates);
        let reversed = seqsearch::apply_order(&canonical, &{
            let mut order = seqsearch::identity_order(&canonical);
            order.perms.iter_mut().for_each(|p| p.reverse());
            order
        });
        let survivors: Vec<TreeNode> = (1..canonical.size())
            .map(|dead| tree::splice_node(&canonical, dead).tree)
            .collect();
        trees.extend([canonical, reversed]);
        trees.extend(survivors);
    }
    assert!(trees
        .iter()
        .any(|t| t.children.is_empty() && t.processor.w != 2.7));
    for t in &trees {
        let mut want = Vec::new();
        nested_bits(&frozen::distribute(t, 1.0), &mut want);
        assert_eq!(flat_bits(&tree::solve(t)), want, "{t:?}");
        assert_eq!(
            tree::equivalent_time(t).to_bits(),
            frozen::equivalent_time(t).to_bits(),
            "{t:?}"
        );
    }
    assert!(trees.len() > 300, "only {} trees", trees.len());
}

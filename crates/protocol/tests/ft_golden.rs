//! Golden report bytes for the protocol engines.
//!
//! Every run of four fixed populations is rendered with `{:?}` and folded
//! into one FNV-1a-64 digest per population:
//!
//! * **E22 chains** — `crash_pair_grid`, `cascade_grid` and
//!   `seeded_multi_cases` on the E20/E22 heterogeneous chain, through
//!   `run_with_faults`. This pins multi-halt chain runs, which the
//!   `multi_fault` differential only checks for ≤1-halt plans.
//! * **E24 trees** — `tree_shape_grid` × every crash position, every
//!   internal-node pre-distribution crash and seeded mixed multi-failure
//!   plans, through `run_tree_with_faults`. This pins branching trees,
//!   which `tree_fault` only compares byte for byte on paths.
//! * **Fault-free chains** — the E20/E22 chain for m = 2..=6, honest and
//!   with every `Deviation::catalog()` entry at every agent, under a
//!   certain audit and under the default fine, through `run`.
//! * **Fault-free trees** — `tree_shape_grid`, honest and with every
//!   catalog deviation at every agent, through `run_tree`.
//!
//! The fault-free reports render their ledger as its entries stable-sorted
//! by node: the order in which one grievance posts to *different*
//! accounts carries no meaning, while each account's own sequence (and so
//! every `net(j)` sum) stays pinned.
//!
//! The committed E22/E24 JSON hold rounded summaries; these digests hold
//! every field of every report (ledger entries, arbitrations, timelines,
//! transcripts) at full `f64` precision. A behaviour-preserving refactor
//! of either engine must leave both digests unchanged.
//!
//! The chain reports carry signature values and Λ block ids. The E22 and
//! fault-free chain populations therefore also have a *masked* digest,
//! which folds every `Signature(..)` as `Signature(_)` and every
//! `LoadTag { ids: [..] }` as its id count, `LoadTag { ids: [_; n] }`. A
//! change to the signature scheme or to how block ids are derived alone
//! moves the plain digest and leaves the masked one unchanged.

use mechanism::FineSchedule;
use protocol::{
    run, run_tree, run_tree_with_faults, run_with_faults, BlockMint, Deviation, Dsm, FaultKind,
    FaultPlan, Ledger, LoadTag, Registry, Scenario, Signature, TreeScenario,
};
use workloads::{
    cascade_grid, crash_pair_grid, crash_position_grid, seeded_multi_cases, tree_shape_grid,
    FaultCase, FaultCaseKind,
};

/// Digest of the E22 chain population.
const E22_DIGEST: u64 = 0x4049_09b5_9446_5502;
/// Digest of the E24 tree population.
const E24_DIGEST: u64 = 0x07f5_db15_9d47_4c5c;
/// Digest of the fault-free deviant chain population.
const CHAIN_DIGEST: u64 = 0x34a0_436b_187b_7bba;
/// Digest of the E22 chain population, signature values and block ids
/// masked.
const E22_MASKED_DIGEST: u64 = 0x5042_bb41_0cac_cb9f;
/// Digest of the fault-free deviant chain population, signature values
/// and block ids masked.
const CHAIN_MASKED_DIGEST: u64 = 0x0d6c_7465_a187_b4ae;
/// Digest of the fault-free deviant tree population.
const TREE_DIGEST: u64 = 0xc3b0_27ae_a523_ffa3;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one report's debug rendering, newline-terminated.
    fn report(&mut self, report: &impl std::fmt::Debug) {
        self.write(format!("{report:?}\n").as_bytes());
    }
}

/// `text` with every `Signature(..)` value replaced by `_` and every
/// `LoadTag`'s ids by their count.
fn masked(text: &str) -> String {
    let text = replace_inside(text, "Signature(", ')', |_| "_".to_string());
    replace_inside(&text, "LoadTag { ids: [", ']', |ids| {
        let n = if ids.is_empty() {
            0
        } else {
            ids.split(", ").count()
        };
        format!("_; {n}")
    })
}

/// `text` with what lies between each `open` and the next `close` replaced
/// by `f` of it.
fn replace_inside(text: &str, open: &str, close: char, f: impl Fn(&str) -> String) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(open) {
        let (head, tail) = rest.split_at(at + open.len());
        let end = tail.find(close).expect("a closed field");
        out.push_str(head);
        out.push_str(&f(&tail[..end]));
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// The plain and the masked digest of a population's reports,
/// each report's debug rendering newline-terminated.
fn digests<R: std::fmt::Debug>(reports: impl IntoIterator<Item = R>) -> (u64, u64) {
    let (mut plain, mut hidden) = (Fnv::new(), Fnv::new());
    for report in reports {
        let text = format!("{report:?}\n");
        plain.write(text.as_bytes());
        hidden.write(masked(&text).as_bytes());
    }
    (plain.0, hidden.0)
}

/// `ledger` with its entries stable-sorted by node.
fn by_node(ledger: &Ledger) -> Ledger {
    let mut entries = ledger.entries().to_vec();
    entries.sort_by_key(|e| e.node);
    let mut sorted = Ledger::new();
    for e in entries {
        sorted.post(e.node, e.kind, e.amount, e.phase);
    }
    sorted
}

/// Honest, then every catalog deviation at each of `m` agents in turn.
fn deviant_population(m: usize) -> Vec<Option<(usize, Deviation)>> {
    let mut out = vec![None];
    for j in 1..=m {
        out.extend(Deviation::catalog().into_iter().map(|d| Some((j, d))));
    }
    out
}

fn to_plan(cases: &[FaultCase]) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for case in cases {
        let kind = match case.kind {
            FaultCaseKind::Crash => FaultKind::Crash {
                phase: case.phase,
                progress: case.progress,
            },
            FaultCaseKind::Stall => FaultKind::Stall {
                progress: case.progress,
            },
            FaultCaseKind::DropMessage => FaultKind::DropMessage { phase: case.phase },
            FaultCaseKind::DelayMessage => FaultKind::DelayMessage {
                phase: case.phase,
                delay: case.delay,
            },
            FaultCaseKind::CorruptMessage => FaultKind::CorruptMessage { phase: case.phase },
        };
        plan = plan.with_event(case.node, kind);
    }
    plan
}

/// The E20/E22 heterogeneous chain with `m` strategic processors.
fn chain(m: usize) -> Scenario {
    let true_rates: Vec<f64> = (0..m).map(|j| 0.6 + 0.8 * ((j * 5 % 4) as f64)).collect();
    let link_rates: Vec<f64> = (0..m).map(|j| 0.1 + 0.12 * ((j * 3 % 3) as f64)).collect();
    Scenario::honest(1.0, true_rates, link_rates)
}

/// Does strategic node `k` (preorder) route a subtree?
fn has_children(shape: &dlt::model::TreeNode, k: usize) -> bool {
    fn walk(node: &dlt::model::TreeNode, idx: &mut usize, k: usize) -> Option<bool> {
        let here = *idx;
        *idx += 1;
        if here == k {
            return Some(!node.children.is_empty());
        }
        node.children.iter().find_map(|(_, c)| walk(c, idx, k))
    }
    walk(shape, &mut 0, k).unwrap_or(false)
}

/// The E22 chain population's reports, as plain and masked digests.
fn e22_digests() -> (u64, u64) {
    const PHASE_PAIRS: [(u8, u8); 5] = [(1, 1), (3, 3), (4, 4), (1, 3), (3, 4)];
    let mut plans: Vec<(Scenario, Vec<FaultCase>)> = Vec::new();
    for m in 3..=6usize {
        for cases in crash_pair_grid(m, &PHASE_PAIRS, 0.5) {
            plans.push((chain(m), cases));
        }
    }
    for cases in cascade_grid(6, 4, &[0.25, 0.5, 0.75]) {
        plans.push((chain(6), cases));
    }
    for m in 2..=7usize {
        for cases in seeded_multi_cases(0xE22, m, 60, 3) {
            plans.push((chain(m), cases));
        }
    }
    assert_eq!(plans.len(), 709, "the E22 population changed size");
    digests(
        plans
            .iter()
            .map(|(s, cases)| run_with_faults(s, &to_plan(cases)).expect("valid plan")),
    )
}

#[test]
fn masking_hides_signature_values_only() {
    let registry = Registry::new(3, 1);
    let signed = Dsm::new(&registry.keypair(1), 0.5);
    let resigned = Dsm {
        signature: Signature(7),
        ..signed
    };
    let other_payload = Dsm {
        payload: 0.25,
        ..signed
    };
    assert_ne!(digests([signed]).0, digests([resigned]).0);
    assert_eq!(digests([signed]).1, digests([resigned]).1);
    assert_ne!(digests([signed]).1, digests([other_payload]).1);
}

#[test]
fn masking_hides_block_ids_but_not_their_count() {
    let minted = BlockMint::new(100, 1).range(10, 3);
    let other_ids = LoadTag::from_ids(vec![1, 2, 3]);
    let shorter = LoadTag::from_ids(vec![1, 2]);
    assert_ne!(digests([&minted]).0, digests([&other_ids]).0);
    assert_eq!(digests([&minted]).1, digests([&other_ids]).1);
    assert_ne!(digests([&minted]).1, digests([&shorter]).1);
    assert_ne!(
        digests([LoadTag::empty()]).1,
        digests([LoadTag::from_ids(vec![0])]).1
    );
    assert_eq!(
        masked(&format!("{shorter:?} {:?}", Signature(9))),
        "LoadTag { ids: [_; 2] } Signature(_)"
    );
}

#[test]
fn e22_chain_population_report_bytes_are_pinned() {
    let (digest, _) = e22_digests();
    assert_eq!(
        digest, E22_DIGEST,
        "E22 report bytes changed: digest {digest:#018x}"
    );
}

#[test]
fn e22_chain_population_masked_report_bytes_are_pinned() {
    let (_, digest) = e22_digests();
    assert_eq!(
        digest, E22_MASKED_DIGEST,
        "E22 report bytes outside signatures and block ids changed: digest {digest:#018x}"
    );
}

#[test]
fn e24_tree_population_report_bytes_are_pinned() {
    let mut runs = 0usize;
    let mut digest = Fnv::new();
    for case in tree_shape_grid(0xE24) {
        let s = TreeScenario::honest(case.shape.clone(), case.true_rates.clone());
        let m = case.num_agents();
        let mut plans: Vec<Vec<FaultCase>> = crash_position_grid(m, &[0.0, 0.5, 1.0])
            .into_iter()
            .map(|c| vec![c])
            .collect();
        plans.extend(
            (1..=m)
                .filter(|&k| has_children(&s.shape, k))
                .map(|k| vec![FaultCase::crash(k, 1, 0.0)]),
        );
        plans.extend(seeded_multi_cases(0xE24, m, 60, 3));
        for cases in &plans {
            digest.report(&run_tree_with_faults(&s, &to_plan(cases)).expect("valid plan"));
            runs += 1;
        }
    }
    assert_eq!(runs, 782, "the E24 population changed size");
    assert_eq!(
        digest.0, E24_DIGEST,
        "E24 report bytes changed: digest {:#018x}",
        digest.0
    );
}

/// The fault-free deviant chain population's reports, as plain and
/// masked digests.
fn chain_digests() -> (u64, u64) {
    let mut reports = Vec::new();
    for m in 2..=6usize {
        for fine in [Some(FineSchedule::new(15.0, 1.0)), None] {
            for dev in deviant_population(m) {
                let mut s = chain(m);
                if let Some(fine) = fine {
                    s = s.with_fine(fine);
                }
                if let Some((j, d)) = dev {
                    s = s.with_deviation(j, d);
                }
                let mut report = run(&s);
                report.ledger = by_node(&report.ledger);
                reports.push(report);
            }
        }
    }
    assert_eq!(
        reports.len(),
        370,
        "the fault-free chain population changed size"
    );
    digests(reports)
}

#[test]
fn fault_free_chain_population_report_bytes_are_pinned() {
    let (digest, _) = chain_digests();
    assert_eq!(
        digest, CHAIN_DIGEST,
        "fault-free chain report bytes changed: digest {digest:#018x}"
    );
}

#[test]
fn fault_free_chain_population_masked_report_bytes_are_pinned() {
    let (_, digest) = chain_digests();
    assert_eq!(
        digest, CHAIN_MASKED_DIGEST,
        "fault-free chain report bytes outside signatures and block ids changed: digest {digest:#018x}"
    );
}

#[test]
fn fault_free_tree_population_report_bytes_are_pinned() {
    let mut runs = 0usize;
    let mut digest = Fnv::new();
    for case in tree_shape_grid(0xE24) {
        for dev in deviant_population(case.num_agents()) {
            let mut s = TreeScenario::honest(case.shape.clone(), case.true_rates.clone());
            if let Some((j, d)) = dev {
                s = s.with_deviation(j, d);
            }
            let mut report = run_tree(&s);
            report.ledger = by_node(&report.ledger);
            digest.report(&report);
            runs += 1;
        }
    }
    assert_eq!(runs, 351, "the fault-free tree population changed size");
    assert_eq!(
        digest.0, TREE_DIGEST,
        "fault-free tree report bytes changed: digest {:#018x}",
        digest.0
    );
}

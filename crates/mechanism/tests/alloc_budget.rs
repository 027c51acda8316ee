//! Heap allocation budgets for the mechanism's settlement paths.
//!
//! A counting global allocator, installed only in this test binary, counts
//! the calls to `alloc`/`alloc_zeroed` and to `realloc` that each test's
//! own thread makes. Counts are deterministic, so they are pinned exactly:
//! a change that moves one updates the budget here and says why.
//!
//! Pinned:
//! * `Deviation::settle` allocates nothing;
//! * one `DlsLbl::deviation`, and one whole `verify::bid_sweep` over the
//!   default factor grid, at m = 4, 16, 64 and 256;
//! * `TreeMechanism::settle` on every shape of `tree_shape_grid(0x7EE)`,
//!   the grid the `settle-sweep` benchmark workload draws its trees from,
//!   under each order policy, after one warm-up settlement;
//! * `DlsLbl::settle` at m = 4, 16, 64 and 256.

use mechanism::verify::{bid_sweep, default_factor_grid};
use mechanism::{Agent, Conduct, DlsLbl, OrderPolicy, TreeMechanism};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::ChainConfig;

/// Heap calls made on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    /// `alloc` and `alloc_zeroed` calls.
    allocs: u64,
    /// `realloc` calls.
    reallocs: u64,
}

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; counting touches only
// `const`-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the heap calls it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    let out = f();
    let counts = Counts {
        allocs: ALLOCS.with(Cell::get) - before.0,
        reallocs: REALLOCS.with(Cell::get) - before.1,
    };
    (out, counts)
}

const fn budget(allocs: u64, reallocs: u64) -> Counts {
    Counts { allocs, reallocs }
}

/// The chain sizes of the `settle-sweep` benchmark workload.
const SIZES: [usize; 4] = [4, 16, 64, 256];

/// A seeded chain mechanism with `m` strategic agents and their truthful
/// conducts, built as the mechanism benches build theirs.
fn chain(m: usize) -> (DlsLbl, Vec<Agent>, Vec<Conduct>) {
    let cfg = ChainConfig {
        processors: m + 1,
        ..Default::default()
    };
    let parts = workloads::mechanism_parts(&workloads::chain(&cfg, 42));
    let mech = DlsLbl::new(parts.root_rate, parts.link_rates);
    let agents: Vec<Agent> = parts.true_rates.into_iter().map(Agent::new).collect();
    let truthful = agents.iter().map(|&a| Conduct::truthful(a)).collect();
    (mech, agents, truthful)
}

#[test]
fn settling_one_deviation_does_not_allocate() {
    for m in SIZES {
        let (mech, agents, truthful) = chain(m);
        for j in [1, m / 2, m] {
            let mut deviation = mech.deviation(&truthful, j);
            for f in [0.3, 1.0, 2.5] {
                let conduct = Conduct::misreport(agents[j - 1], f);
                let (_, counts) = counted(|| deviation.settle(conduct, false));
                assert_eq!(counts, budget(0, 0), "m={m} j={j} ×{f}");
            }
        }
    }
}

#[test]
fn a_deviation_allocates_one_chain_sized_buffer() {
    // The prefix rates and the lanes' α̂ share one buffer, sized by m at
    // once.
    for m in SIZES {
        let (mech, _, truthful) = chain(m);
        for j in [1, m / 2, m] {
            let (_, counts) = counted(|| mech.deviation(&truthful, j));
            assert_eq!(counts, budget(1, 0), "m={m} j={j}");
        }
    }
}

#[test]
fn a_bid_sweep_allocates_its_deviation_and_its_points() {
    // The deviation's buffer and the `points` vector.
    let grid = default_factor_grid();
    for m in SIZES {
        let (mech, agents, truthful) = chain(m);
        for j in [1, m / 2, m] {
            let (sweep, counts) = counted(|| bid_sweep(&mech, &agents, j, &truthful, &grid));
            assert_eq!(counts, budget(2, 0), "m={m} j={j}");
            assert_eq!(sweep.points.len(), grid.len());
        }
    }
}

#[test]
fn settling_a_whole_chain_allocates_a_fixed_number_of_buffers() {
    // 13 at every m: each buffer is allocated once at its final size, so
    // the count does not grow with the chain.
    for m in SIZES {
        let (mech, _, truthful) = chain(m);
        let (_, counts) = counted(|| mech.settle(&truthful, false));
        assert_eq!(counts, budget(13, 0), "m={m}");
    }
}

#[test]
fn a_warm_tree_settlement_allocates_only_its_agents() {
    // The node rates, the bid-dependent order and the solve live in the
    // thread's warm workspace: a settlement after one of the same tree
    // allocates only the outcome's `agents`, on every shape, under every
    // policy.
    for case in workloads::tree_shape_grid(0x7EE) {
        let frozen = dlt::seqsearch::identity_order(&dlt::tree::canonicalize(&case.shape));
        let truthful: Vec<Conduct> = case
            .true_rates
            .iter()
            .map(|&w| Conduct::truthful(Agent::new(w)))
            .collect();
        for policy in [
            OrderPolicy::Canonical,
            OrderPolicy::Frozen(frozen),
            OrderPolicy::BidFastestEquivalentFirst,
        ] {
            let mech = TreeMechanism::with_order(case.shape.clone(), policy);
            mech.settle(&truthful);
            let (_, counts) = counted(|| mech.settle(&truthful));
            assert_eq!(counts, budget(1, 0), "{} {:?}", case.label, mech.policy());
        }
    }
}

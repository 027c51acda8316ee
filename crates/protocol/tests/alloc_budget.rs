//! Heap allocation budgets for the protocol's hot paths.
//!
//! A counting global allocator, installed only in this test binary, counts
//! the calls to `alloc`/`alloc_zeroed` and to `realloc` that each test's
//! own thread makes. Counts are deterministic, so they are pinned exactly:
//! a change that moves one updates the budget here and says why.
//!
//! Pinned:
//! * `Dsm::new` and `Dsm::verify` allocate nothing;
//! * `BlockMint::verify` of a range keyed by its own seed allocates nothing;
//! * an honest and a one-crash `run_with_faults` at m = 4 and m = 16;
//! * a deviant `run`, agent 2 shedding half its load, at m = 4 and m = 16.

use protocol::{run, run_with_faults, BlockMint, Deviation, Dsm, FaultPlan, Registry, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// The E20/E22 heterogeneous chain with `m` strategic processors.
fn chain(m: usize) -> Scenario {
    let true_rates: Vec<f64> = (0..m).map(|j| 0.6 + 0.8 * ((j * 5 % 4) as f64)).collect();
    let link_rates: Vec<f64> = (0..m).map(|j| 0.1 + 0.12 * ((j * 3 % 3) as f64)).collect();
    Scenario::honest(1.0, true_rates, link_rates)
}

/// Heap calls of one `run_with_faults`, after a warm-up run of the same
/// inputs.
fn run_counts(m: usize, plan: &FaultPlan) -> Counts {
    let s = chain(m);
    run_with_faults(&s, plan).expect("valid plan");
    counted(|| run_with_faults(&s, plan).expect("valid plan")).1
}

/// The one-crash plan: the middle agent halts halfway through Phase III.
fn crash(m: usize) -> FaultPlan {
    FaultPlan::crash(m / 2, 3, 0.5)
}

#[test]
fn signing_and_verifying_do_not_allocate() {
    let registry = Registry::new(8, 42);
    let key = registry.keypair(3);
    let (dsm, counts) = counted(|| Dsm::new(&key, 0.123_456_789));
    assert_eq!(counts, budget(0, 0));
    let (verified, counts) = counted(|| dsm.verify(&registry, Some(3)));
    assert_eq!(counts, budget(0, 0));
    assert!(verified);
}

#[test]
fn verifying_a_range_keyed_by_the_mints_seed_does_not_allocate() {
    let mint = BlockMint::new(10_000, 42);
    let tag = mint.range(5_000, 5_000);
    let (proven, counts) = counted(|| mint.verify(&tag));
    assert_eq!(counts, budget(0, 0));
    assert_eq!(proven, Some(0.5));
    // A transcript replay builds a second mint from the same seed.
    let replay = BlockMint::new(10_000, 42);
    let (proven, counts) = counted(|| replay.verify(&tag));
    assert_eq!(counts, budget(0, 0));
    assert_eq!(proven, Some(0.5));
}

#[test]
fn honest_run_with_faults_allocations_are_pinned() {
    let honest = FaultPlan::none();
    assert_eq!(run_counts(4, &honest), budget(46, 7));
    assert_eq!(run_counts(16, &honest), budget(70, 22));
}

#[test]
fn one_crash_run_with_faults_allocations_are_pinned() {
    assert_eq!(run_counts(4, &crash(4)), budget(79, 11));
    assert_eq!(run_counts(16, &crash(16)), budget(103, 28));
}

/// Heap calls of one `run` with agent 2 keeping half its load, after a
/// warm-up run of the same inputs. The victim's overload grievance reads
/// the Λ receipt.
fn shed_load_counts(m: usize) -> Counts {
    let s = chain(m).with_deviation(2, Deviation::ShedLoad { keep_fraction: 0.5 });
    let report = run(&s);
    assert!(report.convictions().any(|a| a.complaint == "overload"));
    counted(|| run(&s)).1
}

#[test]
fn shed_load_run_allocations_are_pinned() {
    assert_eq!(shed_load_counts(4), budget(46, 8));
    assert_eq!(shed_load_counts(16), budget(70, 22));
}

//! Heap allocation budgets for the served path.
//!
//! A counting global allocator, installed only in this test binary, counts
//! the calls to `alloc`/`alloc_zeroed` and to `realloc` that each test's
//! own thread makes. Counts are deterministic, so they are pinned exactly:
//! a change that moves one updates the budget here and says why.
//!
//! Pinned, each after one warm-up call of the same inputs:
//! * `parse_request` of a `solve` line and `solve_body` of its chain at
//!   m = 4, 16 and 64;
//! * `ok_response` around a 6- and a 64-processor solve body;
//! * an honest m = 4 `ft_body`;
//!
//! and that a solve body and an `ok` line hold no spare capacity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use svc::handlers::{self, RequestKind, WorkRequest};
use svc::CanonicalChain;
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

/// `f`'s result and the heap calls it made on this thread, after one
/// warm-up call.
fn counted<T>(mut f: impl FnMut() -> T) -> (T, Counts) {
    drop(f());
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

/// A seeded uniform-random `solve` line with `m` strategic processors.
fn solve_line(m: usize) -> String {
    let cfg = ChainConfig {
        processors: m + 1,
        ..Default::default()
    };
    let net = workloads::chain(&cfg, 42);
    let bids: Vec<f64> = (1..net.len()).map(|j| net.w(j)).collect();
    workloads::solve_line(7, net.w(0), &net.rates_z(), &bids)
}

fn chain(m: usize) -> CanonicalChain {
    match handlers::parse_request(&solve_line(m), svc::DEFAULT_QUANTUM)
        .expect("valid line")
        .kind
    {
        RequestKind::Work(WorkRequest::Solve(chain)) => chain,
        other => panic!("parsed as {other:?}"),
    }
}

#[test]
fn parse_request_allocations_are_pinned() {
    for (m, want) in [(4, budget(7, 0)), (16, budget(7, 8)), (64, budget(7, 16))] {
        let line = solve_line(m);
        let (parsed, counts) = counted(|| handlers::parse_request(&line, svc::DEFAULT_QUANTUM));
        assert!(parsed.is_ok());
        assert_eq!(counts, want, "m = {m}");
    }
}

#[test]
fn solve_body_allocations_are_pinned() {
    for (m, want) in [(4, budget(17, 1)), (16, budget(17, 1)), (64, budget(17, 1))] {
        let chain = chain(m);
        let (body, counts) = counted(|| handlers::solve_body(&chain));
        assert!(body.starts_with("{\"m\":"));
        // The cache keeps the body: no spare capacity.
        assert_eq!(body.capacity(), body.len(), "m = {m}");
        assert_eq!(counts, want, "m = {m}");
    }
}

#[test]
fn ok_response_allocations_are_pinned() {
    for (m, want) in [(6, budget(1, 0)), (64, budget(1, 0))] {
        let body = handlers::solve_body(&chain(m));
        let (line, counts) = counted(|| handlers::ok_response(Some(7), Some(true), &body));
        assert!(line.ends_with(&format!("{body}}}")));
        assert_eq!(line.capacity(), line.len(), "m = {m}");
        assert_eq!(counts, want, "m = {m}");
    }
}

#[test]
fn honest_ft_body_allocations_are_pinned() {
    let rates = [2.0, 0.5, 4.0, 1.5];
    let links = [0.2, 0.1, 0.7, 0.3];
    let (body, counts) = counted(|| handlers::ft_body(1.0, &rates, &links, 42, None));
    assert!(body.is_ok());
    assert_eq!(counts, budget(55, 8));
}

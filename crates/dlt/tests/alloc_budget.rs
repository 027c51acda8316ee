//! Heap allocation budgets for the solvers.
//!
//! A counting global allocator, installed only in this test binary, counts
//! the calls to `alloc`/`alloc_zeroed` and to `realloc` that each test's
//! own thread makes. Counts are deterministic, so they are pinned exactly:
//! a change that moves one updates the budget here and says why.
//!
//! Pinned:
//! * `star::solve_into` allocates nothing;
//! * `FlatTree::solve_into` into a warm `FlatSolution` allocates nothing,
//!   on every shape of `tree_shape_grid(0x7EE)`;
//! * `linear::solve` at m = 4, 16, 64 and 256.

use dlt::model::LinearNetwork;
use dlt::tree::{FlatSolution, FlatTree};
use dlt::{linear, star};
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

/// A seeded chain with `m` processors behind the root.
fn chain(m: usize) -> LinearNetwork {
    let cfg = ChainConfig {
        processors: m + 1,
        ..Default::default()
    };
    workloads::chain(&cfg, 42)
}

#[test]
fn solving_a_star_into_a_buffer_does_not_allocate() {
    for m in [0, 1, 4, 16, 64] {
        let net = chain(m);
        let children: Vec<(f64, f64)> = (1..=m).map(|i| (net.z(i), net.w(i))).collect();
        let mut fractions = vec![0.0; m + 1];
        let (makespan, counts) =
            counted(|| star::solve_into(net.w(0), children.iter().copied(), &mut fractions));
        assert!(makespan > 0.0);
        assert_eq!(counts, budget(0, 0), "m={m}");
    }
}

#[test]
fn solving_a_tree_into_a_warm_solution_does_not_allocate() {
    let shapes: Vec<FlatTree> = workloads::tree_shape_grid(0x7EE)
        .iter()
        .map(|case| FlatTree::new(&case.shape))
        .collect();
    // One solution warmed by the largest tree serves every shape.
    let mut sol = FlatSolution::default();
    let largest = shapes.iter().max_by_key(|flat| flat.len()).unwrap();
    largest.solve_into(&largest.rate, largest.identity_order(), &mut sol);
    for flat in &shapes {
        let (_, counts) = counted(|| flat.solve_into(&flat.rate, flat.identity_order(), &mut sol));
        assert_eq!(counts, budget(0, 0), "{} nodes", flat.len());
        assert_eq!(sol.alpha.len(), flat.len());
    }
}

#[test]
fn a_chain_solve_allocates_its_three_vectors() {
    // α̂ and w̄ of the backward sweep, and the global α of
    // `LocalAllocation::to_global`, each allocated once at its final
    // size, at every m.
    for m in [4, 16, 64, 256] {
        let net = chain(m);
        let (sol, counts) = counted(|| linear::solve(&net));
        assert_eq!(sol.alloc.len(), m + 1);
        assert_eq!(counts, budget(3, 0), "m={m}");
    }
}

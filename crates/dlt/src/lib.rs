//! # `dlt` — Divisible Load Theory solvers
//!
//! The scheduling substrate of the DLS-LBL reproduction (Carroll & Grosu,
//! *"A Strategyproof Mechanism for Scheduling Divisible Loads in Linear
//! Networks"*, IPPS 2007). A *divisible load* is a workload that can be
//! split into arbitrarily small fractions, each requiring identical
//! processing; DLT asks how to split a unit load across networked
//! processors so that the overall finish time (makespan) is minimized.
//!
//! ## Modules
//!
//! * [`model`] — processors, links, networks, allocations.
//! * [`linear`] — the paper's Algorithm 1 (LINEAR BOUNDARY-LINEAR): the
//!   optimal chain schedule via equivalent-processor reduction
//!   (`linear::reference` is the frozen bit-identity oracle).
//! * [`batch`] — the struct-of-arrays batch solver core (`solve_many`,
//!   `solve_all_suffixes`): amortizes thousands of chains per call,
//!   bit-identical to the scalar solver by construction.
//! * [`baseline`] — an independent bisection solver used as an oracle.
//! * [`reduction`] — explicit reduction traces (Figure 3) and structural
//!   checks.
//! * [`timing`] — finish times (eqs. 2.1–2.2), makespans, analytic Gantt
//!   schedules (Figure 2).
//! * [`star`], [`tree`], [`interior`] — companion architectures (bus/star
//!   \[14\], tree \[9\], interior origination §6) for cross-architecture
//!   experiments. A tree has one layout, [`tree::FlatTree`]'s preorder
//!   arrays, whose two passes are the one tree solver: `tree::solve`, the
//!   tree mechanism, the order search and the tree protocol share them.
//! * [`seqsearch`] — service-order search: budget-guarded exhaustive and
//!   seeded local search over chain, star and tree order spaces (a star is
//!   a depth-1 tree, [`TreeNode::from_star`]).
//! * [`closed_form`] — hand-derived formulas cross-checking the solvers.
//! * [`optimal`] — perturbation probes and the monotonicity lemmas that
//!   power the strategyproofness proof.
//! * [`exact`] — arbitrary-precision rational arithmetic and an exact
//!   solver for bit-for-bit verification of Theorem 2.1.
//!
//! ## Quick example
//!
//! ```
//! use dlt::model::LinearNetwork;
//!
//! // Three processors in a chain, the load enters at P0.
//! let net = LinearNetwork::from_rates(&[1.0, 2.0, 1.5], &[0.2, 0.3]);
//! let sol = dlt::linear::solve(&net);
//! assert!(sol.alloc.validate().is_ok());
//! // Theorem 2.1: everyone finishes at the same instant.
//! let spread = dlt::timing::participation_spread(&net, &sol.alloc);
//! assert!(spread < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Parallel-array indexing is idiomatic throughout this numeric code.
#![allow(clippy::needless_range_loop)]

pub mod affine;
pub mod baseline;
pub mod batch;
pub mod closed_form;
pub mod exact;
pub mod interior;
pub mod linear;
pub mod model;
pub mod multiround;
pub mod optimal;
pub mod reduction;
pub mod seqsearch;
pub mod star;
pub mod timing;
pub mod tree;

pub use linear::{solve as solve_linear, LinearSolution};
pub use model::{
    Allocation, LinearNetwork, Link, LocalAllocation, Processor, StarNetwork, TreeNode,
};
pub use timing::{finish_time, finish_times, makespan, ChainSchedule};

//! # `protocol` — the four-phase DLS-LBL protocol with verification
//!
//! The enforcement layer of the reproduction of Carroll & Grosu (IPPS
//! 2007). Where the `mechanism` crate answers *who is paid what*, this
//! crate makes those numbers *incentive-compatible to compute in a
//! distributed way*, in the paper's autonomous-node model where agents
//! control both their inputs and the algorithm they run:
//!
//! * [`crypto`] — simulated unforgeable signatures and PKI (`dsm_i(m)`).
//! * [`lambda`] — the Λ data-tagging device of footnote 1: block
//!   identifiers that prove how much load a node received.
//! * [`messages`] — Phase II `G_i` messages (eqs. 4.1–4.2) and their tree
//!   counterpart, the `LocalDecision`, each with its full recipient-side
//!   check, grievances, and the Phase IV payment proof (eq. 4.12).
//! * [`root`] — arbitration: evidence verification, fines and rewards
//!   (Lemma 5.2: only actual deviants are ever fined).
//! * [`deviation`] — the Lemma 5.1 misbehavior catalog.
//! * [`ledger`] — the payment-infrastructure ledger.
//! * `phases` — Phases I–IV written once over a small topology trait:
//!   bids and equivalents, contradictions and false accusations, Phase III
//!   overload grievances, the Phase IV bill/audit loop and the ledger.
//!   Every fault-free grievance is settled by [`root::arbitrate`], and an
//!   honest node files only what its own evidence proves.
//! * [`runner`] — the chain impl: end-to-end scenario execution with
//!   deviations injected, caught, and fined; eq. 2.4 reduction, eq. 2.7
//!   `G` messages, event-simulated Phase III, replayable transcript.
//! * [`tree_runner`] — the tree impl, enforcing the DLS-T companion
//!   mechanism: local-star equivalents, `LocalDecision` replay, one-port
//!   Phase III.
//! * [`faults`] — deterministic, seeded fault plans: crash-stop, stalls,
//!   message drops/delays/corruption.
//! * [`ft_runner`] — fault-tolerant execution: timeout detection,
//!   chain-splice recovery of cascading and simultaneous failures,
//!   pro-rata settlement of failed nodes, and the no-fault extension of
//!   Lemma 5.2 (no honest survivor is ever fined under any injected
//!   fault).
//! * [`ft_reference`] — the frozen PR 1 single-failure recovery path,
//!   kept as a byte-identical differential-testing reference.
//! * [`ft_tree_runner`] — fault-tolerant execution on **tree** networks:
//!   subtree re-attachment recovery (`dlt::tree::splice_node`), with
//!   degenerate paths delegating byte-for-byte to [`ft_runner`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Parallel-array indexing is idiomatic throughout this numeric code.
#![allow(clippy::needless_range_loop)]

pub mod crypto;
pub mod deviation;
pub mod faults;
mod ft_engine;
pub mod ft_reference;
pub mod ft_runner;
pub mod ft_tree_runner;
pub mod lambda;
pub mod ledger;
pub mod messages;
mod phases;
pub mod root;
pub mod runner;
pub mod transcript;
pub mod tree_runner;

pub use crypto::{Dsm, KeyPair, NodeId, Registry, Signature};
pub use deviation::Deviation;
pub use faults::{FaultError, FaultEvent, FaultKind, FaultPlan};
pub use ft_reference::run_with_faults_single;
pub use ft_runner::{run_with_faults, FtError, FtRunReport};
pub use ft_tree_runner::{run_with_faults as run_tree_with_faults, FtTreeRunReport};
pub use lambda::{BlockMint, LoadTag};
pub use ledger::{EntryKind, Ledger};
pub use messages::{Bill, Complaint, GMessage, PaymentProof};
pub use root::{arbitrate, arbitrate_unresponsive, ArbitrationContext, ArbitrationRecord};
pub use runner::{run, try_run, RunReport, Scenario, ScenarioError};
pub use transcript::{replay, Finding, FindingKind, Transcript};
pub use tree_runner::{run_tree, TreeArbitration, TreeRunReport, TreeScenario};

//! # `mechanism` — the DLS-LBL strategyproof mechanism with verification
//!
//! The economic core of the reproduction of Carroll & Grosu (IPPS 2007):
//! one-parameter strategic agents ([`agent`]), the paper's payment functions
//! (eqs. 4.3–4.13, [`payment`]), the assembled mechanism ([`dls_lbl`]), the
//! fine schedule and audit deterrence analysis ([`fines`], [`audit`]),
//! empirical checkers for strategyproofness and voluntary participation
//! ([`verify`]), and the manipulable no-verification baseline the paper
//! motivates against ([`naive_baseline`]).
//!
//! The message-level enforcement (signatures, grievances, arbitration) is
//! the `protocol` crate; this crate answers "who is paid what and why".
//!
//! ```
//! use mechanism::{Agent, DlsLbl};
//!
//! // Root P0 (obedient, rate 1.0) plus three strategic processors.
//! let mech = DlsLbl::new(1.0, vec![0.2, 0.1, 0.7]);
//! let agents = vec![Agent::new(2.0), Agent::new(0.5), Agent::new(4.0)];
//! let outcome = mech.settle_truthful(&agents);
//! // Theorem 5.4: truthful agents never lose.
//! for j in 1..=3 {
//!     assert!(outcome.utility(j) >= 0.0);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Parallel-array indexing is idiomatic throughout this numeric code.
#![allow(clippy::needless_range_loop)]

pub mod agent;
pub mod archer_tardos;
pub mod audit;
pub mod dls_interior;
pub mod dls_lbl;
pub mod dls_tree;
pub mod equilibrium;
pub mod fines;
pub mod naive_baseline;
pub mod payment;
pub mod verify;

pub use agent::{Agent, Conduct};
pub use dls_lbl::{AgentOutcome, Deviation, DlsLbl, RoundOutcome};
pub use dls_tree::{OrderPolicy, TreeMechanism, TreeOutcome};
pub use fines::FineSchedule;
pub use payment::{JobLedger, PaymentBreakdown, PaymentInputs};

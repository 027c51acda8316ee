//! # `workloads` — network generators and sweep utilities
//!
//! The paper has no empirical section, so the experiment suite defines its
//! own workload model: random heterogeneous chains, homogeneous chains,
//! speed gradients, bottleneck links and straggler processors
//! ([`generators`]), plus grid helpers and network decomposition for the
//! mechanism/protocol layers ([`sweep`]), declarative fault-scenario
//! grids for the fault-injection experiments ([`fault_cases`]),
//! order-stress tree populations for the sequencing-search experiments
//! ([`ordergrid`]), and NDJSON request-mix streams for the serving layer
//! ([`requests`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Parallel-array indexing is idiomatic throughout this numeric code.
#![allow(clippy::needless_range_loop)]

pub mod fault_cases;
pub mod generators;
pub mod ordergrid;
pub mod requests;
pub mod scenarios;
pub mod sweep;

pub use fault_cases::{
    cascade_grid, crash_pair_grid, crash_position_grid, crash_time_grid, multi_label, seeded_cases,
    seeded_multi_cases, tree_shape_grid, FaultCase, FaultCaseKind, TreeFaultCase,
};
pub use generators::{chain, chains, star, tree, ChainConfig, ChainShape};
pub use ordergrid::{misreport_factors, order_search_grid};
pub use requests::{ft_line, solve_line, RequestMixConfig};
pub use scenarios::{DeviationSpec, NetworkSpec, ResolvedNetwork, ScenarioSpec};
pub use sweep::{chain_population, geomspace, linspace, mechanism_parts, MechanismParts};

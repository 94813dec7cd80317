//! Multi-grained specifications of the Zab protocol and the ZooKeeper system.
//!
//! This crate is the Rust counterpart of the paper's TLA+ specification library:
//!
//! * [`state`] — the global state of the system specification (per-server variables,
//!   network channels, fault budgets, ghost variables);
//! * [`actions`] — the action library, organised per Zab phase and per granularity
//!   (baseline system specification, fine-grained atomicity, fine-grained concurrency,
//!   coarse interaction-preserving abstraction, faults);
//! * [`invariants`] — the fourteen invariants of Table 2;
//! * [`presets`] — the mixed-grained compositions of Table 1 (SysSpec, mSpec-1..4);
//! * [`projection`] — the granularity projections relating those compositions, consumed
//!   by the refinement checker (`remix-checker::refine`) to prove the coarsenings
//!   interaction-preserving;
//! * [`fields`] — [`StateFields`](remix_spec::StateFields) reflection over `ZabState`,
//!   consumed by the effect audit (`remix-analyze`);
//! * [`symmetry`] — canonical representatives of `ZabState` under server-id
//!   permutation, consumed by the checker's symmetry reduction
//!   (`remix-checker::SymmetryMode`);
//! * [`versions`] — the ZooKeeper code versions, bug flags and the bug lineage of
//!   Figure 8;
//! * [`protocol`] — the protocol-level specification of Zab (§2.1.1) together with the
//!   improved protocol of §5.4.

#![warn(missing_docs)]

pub mod actions;
pub mod config;
pub mod fields;
pub mod invariants;
pub mod modules;
pub mod presets;
pub mod projection;
pub mod protocol;
pub mod state;
pub mod symmetry;
pub mod types;
pub mod versions;

pub use config::ClusterConfig;
pub use fields::underdeclare_node_restart;
pub use presets::{build_from_plan, SpecPreset};
pub use projection::{
    baseline_vs_fine_sync, coarse_vs_baseline, projection_between, ProjectionSpec,
};
pub use state::{GhostState, ServerData, ZabState};
pub use types::{
    CodeViolation, Message, ServerState, Sid, SidSet, SyncMode, Txn, VecMap, ViolationKind, Vote,
    ZabPhase, Zxid,
};
pub use versions::{BugFlags, CodeVersion, BUG_LINEAGE, MODELLED_ISSUES};

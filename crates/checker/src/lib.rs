//! Explicit-state model checker for specifications written with `remix-spec`.
//!
//! This crate plays the role of TLC in the paper: it exhaustively explores the state
//! space of a [`Spec`](remix_spec::Spec) using breadth-first search (so counterexamples
//! have minimal depth, §4.4), checks every registered invariant on every reachable state,
//! and reconstructs violation traces.  It also provides depth-first search, bounded
//! random simulation (used by the conformance checker to sample model-level traces,
//! §3.5.2), coverage-guided schedule exploration ([`mod@explore`]: sampling biased toward
//! rarely visited state regions), delta-debugging counterexample shrinking
//! ([`shrink`]), refinement checking between compositions of different granularities
//! ([`refine`]: parallel dual exploration proving a coarse composition simulates a fine
//! one under a granularity projection), and the statistics reported in Tables 4-6
//! (time, depth, distinct states, number of violations).

#![warn(missing_docs)]

pub mod bfs;
pub mod corpus;
pub mod coverage;
pub mod dfs;
mod expand;
pub mod explore;
pub mod fingerprint;
mod kernel;
pub mod options;
pub mod outcome;
pub(crate) mod por;
pub mod refine;
pub mod rng;
pub mod shrink;
pub mod simulate;
pub mod spill;
pub mod stop;
pub mod store;
pub mod sync;

pub use bfs::check_bfs;
pub use corpus::{corpus, CorpusOptions};
pub use coverage::{CoverageMap, CoverageSnapshot};
pub use dfs::check_dfs;
pub use explore::{explore, explore_one, ExploreOptions, ExploreOutcome, ExploreStats, Guidance};
pub use fingerprint::{fingerprint, state_key};
pub use options::{CheckMode, CheckOptions, SimulationOptions, SymmetryMode};
pub use outcome::{CheckOutcome, CheckStats, StopReason, Violation};
pub use refine::{
    check_refinement, DivergenceKind, RefineDivergence, RefineMode, RefineOptions, RefineOutcome,
    RefineStats, RefineVerdict,
};
pub use rng::CheckerRng;
pub use shrink::{replay_labels, shrink_trace, shrink_violation, ShrinkOutcome};
pub use simulate::{simulate, simulate_one};
pub use spill::{SpillConfig, SpillStats};
pub use stop::StopCell;
pub use store::{StateIndex, StateStore, StoreMode};

//! Specification framework for multi-grained model checking.
//!
//! This crate provides the substrate that the paper writes in TLA+: a specification is a
//! state machine given by a set of initial states and a *next-state relation* that is the
//! disjunction of guarded atomic [`actions`](action::ActionDef).  Actions are grouped into
//! [`modules`](module::ModuleSpec) (one per protocol phase in the ZooKeeper case study),
//! and every module specification carries a [`Granularity`] describing how closely it
//! models the code-level implementation.
//!
//! The framework supports:
//!
//! * **Composition** ([`compose`](mod@compose)): assembling per-module specifications of different
//!   granularities into a single *mixed-grained* specification whose next-state relation
//!   is the disjunction of all chosen actions (the paper's Figure 7).
//! * **Dependency / interaction-variable analysis** ([`analysis`]): the conservative
//!   rules of Definitions 2 and 3 in the paper's Appendix B, computed over the variable
//!   footprints that every action declares.
//! * **Interaction-preservation checking** ([`analysis::check_interaction_preservation`]):
//!   the two syntactic constraints of §3.2 that make coarsening safe.
//! * **Invariants** ([`invariant`]): protocol-level and code-level safety properties with
//!   applicability scopes, so that a composed specification automatically selects the
//!   invariants that make sense for its granularity (§3.5.1).
//! * **Traces** ([`trace`]): counterexample and simulation traces, used both for
//!   debugging and for conformance checking.
//! * **Granularity projections** ([`projection`]): the abstraction relation between two
//!   granularities of the same library — a per-state projection plus a stability
//!   predicate — consumed by the refinement checker
//!   (`remix-checker::refine`) to prove that a coarse composition simulates a fine one.
//! * **Field reflection** ([`reflect`]): enumeration of a state's semantic fields as
//!   stable `(path, hash)` pairs mapped to effect domains, the substrate of the
//!   `remix-analyze` effect audit (observed writes vs declared footprints).
//! * **Structural sharing** ([`shared`]): [`Shared`], a transparent copy-on-write handle
//!   a state type wraps its large components in, so a successor shares with its parent
//!   everything the action did not write and a state copy is a few refcount bumps.  The
//!   handle is hash-consed: it memoizes the 128-bit digest of its value
//!   ([`mod@fingerprint`]) and an [`InternPool`] keeps one allocation per distinct value
//!   under a dense `u32` slot, so a store can keep a state as a row of slots
//!   ([`SpecState::intern`] / [`SpecState::from_row`]).
//! * **Symmetry reduction** ([`symmetry`]): canonical representatives under a
//!   permutation group of process ids ([`Canonicalize`] / [`Perm`]), attached to a
//!   specification via [`Spec::with_canonicalization`] and consumed by the checker
//!   engines to dedup whole orbits of id-renamed states at once.

#![warn(missing_docs)]

pub mod action;
pub mod analysis;
pub mod compose;
pub mod effect;
pub mod error;
pub mod fingerprint;
pub mod invariant;
pub mod label;
pub mod module;
pub mod projection;
pub mod reflect;
pub mod shared;
pub mod slot_index;
pub mod spec;
pub mod symmetry;
pub mod trace;
pub mod value;

pub use action::{ActionDef, ActionInstance, Granularity};
pub use analysis::{
    check_interaction_preservation, dependency_variables, interaction_variables, module_footprint,
    InteractionAnalysis, ModuleFootprint, PreservationReport, PreservationViolation,
};
pub use compose::{compose, CompositionPlan, ModuleChoice};
pub use effect::{Effect, EffectBit};
pub use error::SpecError;
pub use fingerprint::{fingerprint, table_hash, DigestMap, Fingerprint, PairHasher, TableHasher};
pub use invariant::{Invariant, InvariantScope, InvariantSource};
pub use label::{Label, LabelId, LabelTable, INIT_LABEL};
pub use module::{ModuleId, ModuleSpec};
pub use projection::{StabilityFn, StateKeyFn, StateProjectionFn, TraceProjection};
pub use reflect::{FieldInfo, StateFields};
pub use shared::{InternPool, Shared};
pub use slot_index::SlotIndex;
pub use spec::{CanonFn, OwnedCanonFn, Spec, SpecState};
pub use symmetry::{canon_stats, Canonicalize, Perm};
pub use trace::{action_name, Trace, TraceStep};
pub use value::Value;

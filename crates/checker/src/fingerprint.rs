//! State fingerprinting: the two 128-bit functions of a state.
//!
//! * [`fingerprint`] is the **value hash**: one [`PairHasher`] traversal of the state's
//!   own `Hash` stream (the hasher lives in [`mod@remix_spec::fingerprint`], re-exported
//!   here).  It is pinned — `crates/zab/tests/state_diet.rs` holds digests of whole
//!   state spaces, and the samplers' coverage maps key on it, so seeded walks repeat
//!   step for step across representation changes.
//! * [`state_key`] is the **store identity**: the same hasher over
//!   [`SpecState::hash_key`], which a state type built on [`remix_spec::Shared`]
//!   components implements as its inline scalars plus one memoized 128-bit digest per
//!   component.  A successor therefore hashes only the one or two components its action
//!   wrote and ~150 bytes of digests, not the whole state.  It is computed only where
//!   it is read: a fingerprint-only [`StateStore`](crate::store::StateStore) routes and
//!   dedups on it (the kernel and seeding key each successor for such a store, trace
//!   replay looks states up by it), BFS breaks ties among same-depth violations by it,
//!   and refinement picks its witnesses' representatives by it (the kernel's dedup-hit
//!   hook hands it out on demand).  A Full store dedups on rows and asks for no key, so
//!   on its duplicate edges no digest is computed at all.  Nothing else may read it:
//!   keys never reach a trace, a statistic or an artefact.
//!
//! Both are functions of the state's *value* alone (a digest is the fingerprint of a
//! component's value, never an address, a pool slot or an insertion order), and they
//! induce the same partition of a state space unless a collision occurs.  The collision
//! argument for the key: two unequal states share a key only if two unequal components
//! share a 128-bit digest, or two distinct digest streams share a 128-bit hash.  With
//! `n` states assembled from `m ≤ n · k` distinct components that is at most
//! `(m² + n²) / 2^129` — the same order as the `n² / 2^129` of hashing whole states,
//! and `m` is in practice orders of magnitude below `n`.

use remix_spec::SpecState;

pub use remix_spec::fingerprint::{fingerprint, Fingerprint, PairHasher};

/// The key the exhaustive engines store `state` under; see the module docs.
pub fn state_key<S: SpecState>(state: &S) -> Fingerprint {
    let mut hasher = PairHasher::new();
    state.hash_key(&mut hasher);
    hasher.finish128()
}

//! The multi-grained action library of the ZooKeeper system specification.
//!
//! Each submodule provides a builder that returns a [`ModuleSpec`](remix_spec::ModuleSpec)
//! for one Zab phase at one granularity:
//!
//! | module | granularities provided |
//! |---|---|
//! | Election | baseline (FLE), coarse (merged with Discovery) |
//! | Discovery | baseline, coarse (merged with Election) |
//! | Synchronization | baseline, fine-grained (atomicity), fine-grained (atomicity + concurrency) |
//! | Broadcast | baseline, fine-grained (concurrency) |
//! | Faults | baseline (always composed in) |
//!
//! The composition presets of Table 1 pick one entry per module (`crate::presets`).

pub mod broadcast;
pub mod coarse;
pub mod discovery;
pub mod election;
pub mod faults;
pub mod fine;
pub mod sync;

use std::sync::Arc;

use remix_spec::Effect;

use crate::config::ClusterConfig;
use crate::state::ZabState;
use crate::types::Sid;

/// Convenience alias used by all builders.
pub type Cfg = Arc<ClusterConfig>;

// ---------------------------------------------------------------------------------------
// Declared read/write footprints (the `effect` argument of `sink.offer`).
//
// A footprint must be a conservative superset of everything the action's guard reads and
// its step writes, as a function of the label parameters alone.  The conventions:
//
// * A server's whole local struct is one cell (`writes_server`); guards reading it are
//   covered because writes imply reads.
// * The channel pair (i, j) covers the message queue in that direction *and* the
//   partition status of the pair: fault actions that flip reachability write both
//   directions, so any guard calling `reachable(i, j)` is covered by reading (or
//   writing) either direction.
// * `state.send(i, j, ..)` is a write of channel (i, j); `head`/`pop(j, i)` read/write
//   channel (j, i).
// * Global scalars (budgets, ghost bookkeeping, the first-writer-wins violation cell)
//   are named flags (`remix_spec::effect::flags`).
//
// Actions whose write set depends on the *state* (a leader broadcasting to whichever
// followers have acknowledged) conservatively claim every channel touching the server
// (`writes_channels_of`).  The coarse merged module declares `Effect::global()`:
// behaviourally identical to `None` (dependent on everything, always sound), but
// explicit so the spec lint can verify that every action registered a footprint.
//
// The effect audit (`remix-analyze`) checks these declarations against observed
// per-field state diffs over a bounded corpus; `crate::fields` maps each field to the
// bits it charges.
// ---------------------------------------------------------------------------------------

/// Footprint of a message handler on server `i` that pops the head of channel `j → i`
/// and may push a reply on `i → j`.
pub(crate) fn eff_recv_reply(i: Sid, j: Sid) -> Effect {
    Effect::new()
        .writes_server(i)
        .writes_channel(j, i)
        .writes_channel(i, j)
}

/// Footprint of a message handler on server `i` that pops the head of channel `j → i`
/// without replying.
pub(crate) fn eff_recv(i: Sid, j: Sid) -> Effect {
    Effect::new().writes_server(i).writes_channel(j, i)
}

/// Enumerates ordered pairs `(i, j)` with `i != j` of the ensemble, without allocating
/// (successor enumeration runs once per action per discovered state).
pub(crate) fn pairs(state: &ZabState) -> impl Iterator<Item = (Sid, Sid)> {
    let n = state.n();
    (0..n).flat_map(move |i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
}

/// Enumerates all server identifiers.
pub(crate) fn servers(state: &ZabState) -> std::ops::Range<Sid> {
    0..state.n()
}

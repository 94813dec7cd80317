//! Refinement checking: does a coarse composition simulate a finer one?
//!
//! The composer's interaction-preservation check (§3.2) is *syntactic* — it compares
//! declared variable footprints.  This module is the semantic counterpart: it explores
//! the state spaces of a fine and a coarse composition — each side is a visitor of the
//! level-synchronous kernel that also drives [`crate::bfs`], so it inherits the
//! fork-join levels, insert-while-hot staging, the spill tier and panic containment —
//! and verifies that, under a [`TraceProjection`], the coarse specification admits
//! exactly the externally visible behaviours of the fine one:
//!
//! * every *stable* reachable projection of the fine composition is a reachable
//!   projection of the coarse composition (the coarsening loses no interactions), and
//!   vice versa (the coarsening invents none);
//! * every fine *stabilization step* — a transition between consecutive stable
//!   projections, possibly through a stretch of unstable states that a coarse action
//!   executes atomically — is matched by a path in the coarse projected quotient graph
//!   (weak simulation up to stuttering).
//!
//! Both sides explore concrete states into a Full store (in RAM or spilled): no
//! symmetry reduction and no fingerprint-only store is layered on top of the check.
//!
//! Beside the store, each side keeps one `u32` per state, in a column indexed by its
//! [`StateIndex`]: the id of the context set the state hands to its successors — its
//! own stable projection, or the stable projections it may still be stabilizing from —
//! and a bit that marks it stable.  The sets themselves are interned once per side in
//! a small table, since few distinct ones recur across the whole space; the column
//! stays in RAM when the store spills.
//!
//! Everything else a side keeps grows with what it *learns*, not with the arrivals
//! and queries that taught it: one 24-byte representative per stable projection, one
//! key per quotient edge, each distinct context set once.  An edge's representative
//! is needed only while the level that discovered it is matched — the first
//! unmatched edge keeps its own for the witness — so it lives in a level-local map.  A level's arrivals are buffered only until its barrier, and only those that
//! can change the fold: 8 bytes for an arrival at an unstable or not yet classified
//! state, 24–32 for one at a stable state.  Once the coarse side is finished its edges
//! are frozen into a sorted compressed-sparse-row adjacency, and each fine edge
//! asks it `to ∈ reach(from)` by a search over an epoch-stamped visited array: no
//! reachable set is memoized.
//!
//! On divergence the checker reconstructs a concrete witness trace of the offending
//! side via BFS parent pointers and delta-debugs it down to a locally minimal trace
//! that still exhibits the divergence ([`crate::shrink`]).
//!
//! The projections-only comparison is deliberately performed on quotient classes (all
//! concrete states with the same projection are merged), which over-approximates the
//! coarse side's matching power: the check can miss refinement violations that only
//! distinguish states below the projection, but it never reports a false divergence
//! for that reason.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use remix_spec::{LabelTable, Spec, SpecState, Trace, TraceProjection};

use crate::expand::Pipeline;
use crate::fingerprint::{state_key, Fingerprint};
use crate::kernel::{self, Arrival, LevelEnd, Run, Visitor};
use crate::options::SymmetryMode;
use crate::outcome::StopReason;
use crate::shrink::{shrink_trace, ShrinkOutcome};
use crate::stop::StopCell;
use crate::store::{StateIndex, StateStore, StoreMode};

/// What the refinement checker verifies: one mode, named in every outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefineMode {
    /// Two-sided inclusion of the reachable stable projections plus matching of every
    /// fine stabilization step by a coarse path (weak simulation on the projected
    /// quotient).
    #[default]
    Simulation,
}

impl fmt::Display for RefineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RefineMode::Simulation => "simulation",
        })
    }
}

/// Options of a refinement check.
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// What to verify; [`RefineMode::Simulation`] is the only mode.
    pub mode: RefineMode,
    /// Worker threads expanding each exploration frontier (both sides).
    pub workers: usize,
    /// Lock stripes of each side's discovered-state set (rounded up to a power of two).
    pub shards: usize,
    /// Maximum exploration depth per side; `None` = unbounded.
    pub max_depth: Option<u32>,
    /// Maximum distinct states per side; `None` = unbounded.  A side that hits the limit
    /// is marked incomplete and inclusion checks *against* it are skipped (a missing
    /// projection cannot be distinguished from a not-yet-explored one).
    pub max_states: Option<usize>,
    /// Wall-clock budget for the whole check; `None` = unbounded.
    pub time_budget: Option<Duration>,
    /// Delta-debug the divergence witness down to a locally minimal trace that still
    /// diverges (via [`crate::shrink`]).
    pub shrink_witness: bool,
    /// The store backend of each side.  Must be [`StoreMode::Full`]:
    /// [`check_refinement`] refuses any other value before exploring.  Re-queued
    /// states and witness endpoints are rebuilt from their store rows.
    pub store_mode: StoreMode,
    /// Must be [`SymmetryMode::Off`]: [`check_refinement`] refuses any other value
    /// before exploring.  Both sides explore concrete states.
    pub symmetry: SymmetryMode,
    /// Extra BFS levels explored after a state or depth budget trips, expanding only
    /// *unstable* states (stable successors are recorded but not re-expanded).
    ///
    /// A hard stop mid-stabilization is what made capped runs collect almost no
    /// stable projections (the 5-server mSpec-1 row: 1 fine projection against
    /// 16,355 coarse ones — the stability predicate was never sampled under the
    /// cap): the cap lands while every path is still inside a coarse action's
    /// atomic stretch.  Draining finishes the stabilizations already in progress,
    /// which is sound — every projection recorded is genuinely reachable — and
    /// bounded, because only the unstable closure of the final frontier is
    /// expanded, for at most this many levels.  `0` restores the hard stop.
    pub stabilization_grace: u32,
    /// Memory budget and spill directory for each side's discovered-state store
    /// (see [`crate::spill::SpillConfig`]); defaults to
    /// [`SpillConfig::in_ram`](crate::spill::SpillConfig::in_ram).
    pub spill: crate::spill::SpillConfig,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            mode: RefineMode::Simulation,
            workers: 1,
            shards: 64,
            max_depth: None,
            max_states: None,
            time_budget: None,
            shrink_witness: true,
            store_mode: StoreMode::Full,
            symmetry: SymmetryMode::Off,
            stabilization_grace: 16,
            spill: crate::spill::SpillConfig::in_ram(),
        }
    }
}

impl RefineOptions {
    /// Sets the number of worker threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-side distinct-state cap.
    pub fn with_max_states(mut self, states: usize) -> Self {
        self.max_states = Some(states);
        self
    }

    /// Sets the per-side depth bound.
    pub fn with_max_depth(mut self, depth: u32) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Disables witness shrinking.
    pub fn without_shrinking(mut self) -> Self {
        self.shrink_witness = false;
        self
    }

    /// Sets the number of unstable-only BFS levels drained after a budget trips.
    pub fn with_stabilization_grace(mut self, levels: u32) -> Self {
        self.stabilization_grace = levels;
        self
    }

    /// Sets the store memory budget and spill directory for both sides.
    pub fn with_spill(mut self, spill: crate::spill::SpillConfig) -> Self {
        self.spill = spill;
        self
    }
}

/// How the fine and the coarse composition diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The fine composition reaches a stable projection the coarse one cannot: the
    /// coarsening *loses* externally visible behaviour (e.g. a dropped update).
    MissingInCoarse,
    /// The coarse composition reaches a stable projection the fine one cannot: the
    /// coarsening *invents* behaviour (e.g. electing a leader fast leader election
    /// would never elect).
    ExtraInCoarse,
    /// A fine stabilization step has no matching path in the coarse projected quotient
    /// (both endpoints are coarse-reachable, but not from each other).
    UnmatchedStep,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DivergenceKind::MissingInCoarse => "projection missing in the coarse composition",
            DivergenceKind::ExtraInCoarse => "projection only reachable in the coarse composition",
            DivergenceKind::UnmatchedStep => {
                "fine stabilization step unmatched by the coarse composition"
            }
        })
    }
}

/// A refinement divergence: the kind, the offending projection, and a concrete witness.
#[derive(Debug, Clone)]
pub struct RefineDivergence<S> {
    /// What went wrong.
    pub kind: DivergenceKind,
    /// Name of the specification the witness is an execution of (the fine side for
    /// [`DivergenceKind::MissingInCoarse`] / [`DivergenceKind::UnmatchedStep`], the
    /// coarse side for [`DivergenceKind::ExtraInCoarse`]).
    pub witness_spec: String,
    /// The offending projected state, rendered variable by variable.
    pub projection: String,
    /// A concrete execution of `witness_spec` reaching the divergence; shrunk to a
    /// locally minimal diverging trace when [`RefineOptions::shrink_witness`] is set.
    ///
    /// For [`DivergenceKind::UnmatchedStep`] the trace ends in the concrete state that
    /// completed the unmatched edge.  When the same state is reachable through several
    /// stable contexts, the recorded BFS path may stabilize from a *different* (and
    /// possibly matched) source class than the reported edge; in that case ddmin
    /// leaves the trace unshrunk rather than minimizing away the divergence.
    pub witness: Trace<S>,
    /// Transition count of the witness before shrinking.
    pub original_depth: usize,
}

/// Exploration statistics of one refinement check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Distinct concrete states explored on the fine side.
    pub fine_states: usize,
    /// Distinct concrete states explored on the coarse side.
    pub coarse_states: usize,
    /// Distinct stable projections reached by the fine side.
    pub fine_projections: usize,
    /// Distinct stable projections reached by the coarse side.
    pub coarse_projections: usize,
    /// Fine stabilization edges checked against the coarse quotient.
    pub edges_checked: usize,
    /// Whether the fine side was explored to exhaustion within the budgets.
    pub fine_complete: bool,
    /// Whether the coarse side was explored to exhaustion within the budgets.
    pub coarse_complete: bool,
    /// Out-of-core activity of the fine side's store (zeroed when everything fit in
    /// the memory budget).
    pub fine_spill: crate::spill::SpillStats,
    /// Out-of-core activity of the coarse side's store.
    pub coarse_spill: crate::spill::SpillStats,
    /// Wall-clock time of the whole check.
    pub elapsed: Duration,
}

/// Three-valued verdict of a refinement check.
///
/// A bounded exploration that found nothing is *not* evidence of refinement: a
/// truncated side may simply have stopped short of the divergence.  The verdict is
/// therefore definite only when a concrete witness exists ([`Diverges`]) or when both
/// sides were explored to exhaustion ([`Refines`]); everything else is
/// [`Inconclusive`].
///
/// [`Diverges`]: RefineVerdict::Diverges
/// [`Refines`]: RefineVerdict::Refines
/// [`Inconclusive`]: RefineVerdict::Inconclusive
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineVerdict {
    /// Both sides exhausted, no divergence: the coarse composition simulates the fine
    /// one over the *entire* reachable state space.
    Refines,
    /// A concrete divergence witness was found (definite regardless of truncation).
    Diverges,
    /// No divergence in the explored prefix, but at least one side was truncated by a
    /// state/depth/time budget — the check proves nothing about the full space.
    Inconclusive,
}

impl RefineVerdict {
    /// Stable lower-case serialization used in JSON rows (`refines` / `diverges` /
    /// `inconclusive`).
    pub fn as_str(&self) -> &'static str {
        match self {
            RefineVerdict::Refines => "refines",
            RefineVerdict::Diverges => "diverges",
            RefineVerdict::Inconclusive => "inconclusive",
        }
    }
}

impl fmt::Display for RefineVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The outcome of a refinement check.
#[derive(Debug, Clone)]
pub struct RefineOutcome<S> {
    /// Name of the fine (concrete) specification.
    pub fine_spec: String,
    /// Name of the coarse (abstract) specification.
    pub coarse_spec: String,
    /// Name of the projection the comparison ran under.
    pub projection: String,
    /// The mode the check ran in.
    pub mode: RefineMode,
    /// Exploration statistics.
    pub stats: RefineStats,
    /// The first divergence found, if any.
    pub divergence: Option<RefineDivergence<S>>,
}

impl<S> RefineOutcome<S> {
    /// The three-valued verdict.  [`RefineVerdict::Refines`] and
    /// [`RefineVerdict::Diverges`] are definite; [`RefineVerdict::Inconclusive`] means
    /// a budget truncated the exploration before anything was proved.
    pub fn verdict(&self) -> RefineVerdict {
        if self.divergence.is_some() {
            RefineVerdict::Diverges
        } else if self.stats.fine_complete && self.stats.coarse_complete {
            RefineVerdict::Refines
        } else {
            RefineVerdict::Inconclusive
        }
    }

    /// `Some(true)` when refinement was *proved* (both sides exhausted, no
    /// divergence), `Some(false)` when a concrete divergence witness exists, and
    /// `None` when the exploration was truncated before either could be established.
    ///
    /// The `Option` return is deliberate: an earlier version returned a bare `bool`
    /// that was `true` for truncated, nothing-checked runs, and downstream reports
    /// rendered those as passing verdicts.  Use [`verdict`](Self::verdict) for the
    /// symbolic form and [`divergence`](Self::divergence) to inspect a witness.
    pub fn refines(&self) -> Option<bool> {
        match self.verdict() {
            RefineVerdict::Refines => Some(true),
            RefineVerdict::Diverges => Some(false),
            RefineVerdict::Inconclusive => None,
        }
    }

    /// `true` when the verdict is definite: either a divergence was found (a concrete
    /// witness exists regardless of how much was explored), or both sides were
    /// explored to exhaustion so [`refines`](Self::refines) is a statement about the
    /// whole reachable state space rather than a bounded prefix.
    pub fn conclusive(&self) -> bool {
        self.verdict() != RefineVerdict::Inconclusive
    }
}

impl<S: fmt::Debug> fmt::Display for RefineOutcome<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "refinement {} ⊑ {} under {} ({} mode)",
            self.fine_spec, self.coarse_spec, self.projection, self.mode
        )?;
        writeln!(
            f,
            "fine:   {} states, {} stable projections{}",
            self.stats.fine_states,
            self.stats.fine_projections,
            if self.stats.fine_complete {
                ""
            } else {
                " (truncated)"
            }
        )?;
        writeln!(
            f,
            "coarse: {} states, {} stable projections{}",
            self.stats.coarse_states,
            self.stats.coarse_projections,
            if self.stats.coarse_complete {
                ""
            } else {
                " (truncated)"
            }
        )?;
        match &self.divergence {
            None => match self.verdict() {
                RefineVerdict::Refines => writeln!(f, "verdict: refines"),
                _ => writeln!(
                    f,
                    "verdict: inconclusive (no divergence in the explored prefix; \
                     a truncated side proves nothing about the full space)"
                ),
            },
            Some(d) => {
                writeln!(
                    f,
                    "verdict: {} — witness ({} steps):",
                    d.kind,
                    d.witness.depth()
                )?;
                write!(f, "{}", d.witness)
            }
        }
    }
}

/// Renders the projection of `state` for divergence reports.
fn render_projection<S: SpecState>(projection: &TraceProjection<S>, state: &S) -> String {
    let fields: Vec<String> = projection
        .project_state(state)
        .iter()
        .map(|(k, v)| format!("{k} = {v}"))
        .collect();
    format!("[{}]", fields.join(", "))
}

/// The concrete state a divergence witness is rebuilt from, with the depth and the
/// fingerprint it was reached with: 24 bytes.
///
/// State indices follow insert order, which with several workers depends on their
/// scheduling, so representatives are chosen by `(depth, fingerprint)`: the one on
/// record gives way only to an earlier arrival, or a same-depth one of lower
/// fingerprint.
#[derive(Clone, Copy, Debug)]
struct Rep {
    depth: u32,
    index: StateIndex,
    fp: Fingerprint,
}

/// Records `rep` for `key` unless the representative on record is lesser; returns
/// whether `key` was new.
fn offer_rep<K: Eq + Hash>(reps: &mut HashMap<K, Rep>, key: K, rep: Rep) -> bool {
    match reps.entry(key) {
        Entry::Occupied(mut slot) => {
            let old = slot.get_mut();
            if (rep.depth, rep.fp) < (old.depth, old.fp) {
                *old = rep;
            }
            false
        }
        Entry::Vacant(slot) => {
            slot.insert(rep);
            true
        }
    }
}

/// What exploring one side learns about its projected quotient graph.
#[derive(Default)]
struct Quotient {
    /// Stable projections → representative state.
    projs: HashMap<u64, Rep>,
    /// Stabilization edges of the projected quotient, `(from, to)` with `from ≠ to`.
    /// A finished coarse side hands its edges to an [`Adjacency`] and keeps none.
    edges: HashSet<(u64, u64)>,
    /// Whether exploration ran to exhaustion within the budgets.
    complete: bool,
    /// Stabilization edges checked incrementally against the other side's quotient
    /// (fine side only).
    edges_checked: usize,
    /// The first stabilization edge with no matching coarse path, by discovery level
    /// then key order (recorded during exploration; turned into a divergence by the
    /// caller once the cheaper projection-inclusion checks come up clean), with its
    /// representative: a concrete state that completed the edge.  Its parent chain
    /// need not stabilize from `from`, but it ends in the edge's target and is the best
    /// concrete anchor available without per-context parents.
    unmatched_edge: Option<((u64, u64), Rep)>,
}

/// A finished quotient's edges, frozen for reachability queries: the keys that end an
/// edge, sorted, name dense ids, and the successors of each id sit in one
/// compressed-sparse-row array — 8 bytes per key, 4 per edge and 4 per row, where
/// the edge set spends 16 and a control byte per bucket.  `to ∈ reach(from)` is a
/// search over it (see [`Walk`]); no reachable set is kept between searches.
#[derive(Default)]
struct Adjacency {
    /// Every key that ends an edge, sorted: `keys[id]` is the key of dense id `id`.
    keys: Vec<u64>,
    /// The successors of `id` are `targets[starts[id]..starts[id + 1]]`.
    starts: Vec<u32>,
    /// Successor ids, row after row in id order, each row sorted.
    targets: Vec<u32>,
}

impl Adjacency {
    /// Freezes an edge set of `(from, to)` key pairs.
    fn freeze(edges: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut pairs: Vec<(u64, u64)> = edges.into_iter().collect();
        pairs.sort_unstable();
        let mut keys: Vec<u64> = pairs.iter().flat_map(|&(from, to)| [from, to]).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.shrink_to_fit();
        let dense = |key: u64| keys.binary_search(&key).expect("an endpoint is a key");
        let mut starts = vec![0u32; keys.len() + 1];
        for &(from, _) in &pairs {
            starts[dense(from) + 1] += 1;
        }
        for id in 1..starts.len() {
            starts[id] += starts[id - 1];
        }
        let targets = pairs.iter().map(|&(_, to)| dense(to) as u32).collect();
        Adjacency {
            keys,
            starts,
            targets,
        }
    }

    /// The dense id of `key`, if it ends an edge.
    fn id(&self, key: u64) -> Option<u32> {
        self.keys.binary_search(&key).ok().map(|id| id as u32)
    }

    /// The ids `id` has an edge to.
    fn successors(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.targets[self.starts[id] as usize..self.starts[id + 1] as usize]
    }

    /// Whether `to` is reachable from `from`: every key reaches itself, and a key that
    /// ends no edge reaches nothing else.
    fn reaches(&self, walk: &mut Walk, from: u64, to: u64) -> bool {
        if from == to {
            return true;
        }
        match (self.id(from), self.id(to)) {
            (Some(source), Some(target)) => walk.reaches(self, source, target),
            _ => false,
        }
    }
}

/// The scratch of reachability searches over one [`Adjacency`]: a visited stamp per
/// dense id and a depth-first stack.
///
/// A search marks what it reaches with its epoch, so starting the next one costs an
/// increment, not a clear.  A search stops as soon as it reaches its target and is
/// resumed, not restarted, by the next query from the same source — the fine side
/// matches each level's new edges sorted by source — so the queries from one source
/// cost at most one traversal between them.
#[derive(Default)]
struct Walk {
    /// Per dense id, the epoch of the last search that reached it.
    stamps: Vec<u32>,
    epoch: u32,
    /// Reached ids whose successors are not stamped yet.
    stack: Vec<u32>,
    /// The source of the search under way.
    source: Option<u32>,
}

impl Walk {
    /// Whether `target` is reachable from `source` in `graph`, the one adjacency this
    /// walk searches.
    fn reaches(&mut self, graph: &Adjacency, source: u32, target: u32) -> bool {
        if self.source != Some(source) {
            self.restart(graph.keys.len(), source);
        }
        while self.stamps[target as usize] != self.epoch {
            let Some(id) = self.stack.pop() else {
                return false;
            };
            for &next in graph.successors(id) {
                let stamp = &mut self.stamps[next as usize];
                if *stamp != self.epoch {
                    *stamp = self.epoch;
                    self.stack.push(next);
                }
            }
        }
        true
    }

    /// Starts a search from `source` over `ids` dense ids.
    fn restart(&mut self, ids: usize, source: u32) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 || self.stamps.len() != ids {
            self.stamps.clear();
            self.stamps.resize(ids, 0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.stamps[source as usize] = self.epoch;
        self.stack.push(source);
        self.source = Some(source);
    }
}

/// The coarse side as the fine side's exploration matches against it: its quotient's
/// projections and completeness, and its edges frozen into an [`Adjacency`].
#[derive(Clone, Copy)]
struct Coarse<'a> {
    quotient: &'a Quotient,
    adjacency: &'a Adjacency,
}

/// One explored side: its quotient plus the Full store its witnesses are rebuilt from
/// (concrete states as rows, parent indices and interned action labels).
struct SideSummary<S: SpecState> {
    quotient: Quotient,
    /// All discovered concrete states.
    seen: StateStore<S>,
    /// The run's interned action labels.
    labels: LabelTable,
}

impl<S: SpecState> SideSummary<S> {
    /// Reconstructs the concrete trace to `index` by a parent-index walk.
    fn witness(&self, spec: &Spec<S>, index: StateIndex) -> Trace<S> {
        self.seen.trace_to(spec, &self.labels, index, None)
    }

    /// The state at `index`, rebuilt from its row.
    fn state_of(&self, index: StateIndex) -> S {
        self.seen
            .state_at(index)
            .expect("a Full store keeps every state's row")
    }
}

/// The projection key of `state` when it is stable ([`TraceProjection::key`]: 64 bits
/// suffice, since projections are compared, not stored, and a collision would only
/// *mask* a divergence on quotient classes that already over-approximate).
fn stable_key<S: SpecState>(projection: &TraceProjection<S>, state: &S) -> Option<u64> {
    projection.is_stable(state).then(|| projection.key(state))
}

/// The id of a context set in its side's [`ContextTable`].
type SetId = u32;

/// The id of the empty context set: what a seed hands its successors.
const NO_CONTEXTS: SetId = 0;

/// One side's context sets, each distinct set stored once and named by a [`SetId`].
///
/// A context set is a sorted, deduplicated slice of stable-projection keys: a stable
/// state's singleton `{key}`, or the *lset* of an unstable state — the stable
/// projections last seen on some path leading to it.  Few sets recur across many
/// states (SysSpec ⊑ mSpec-1 on three servers: 181 singletons and 23 lsets over
/// 65,653 states), so each state pays a 4-byte id in the [`KnownColumn`] instead of
/// its own set.  The sets' keys sit back to back in one `Vec`, and a map from a set's
/// hash to its id finds a set again, so each set is stored once: 8 bytes per key
/// and 8 per set, plus a map entry per distinct hash.  Ids follow intern order,
/// which several workers make scheduling-dependent: equal ids mean equal sets, and no
/// id is ordered or reported.
struct ContextTable {
    /// The keys of every set, back to back in id order.
    keys: Vec<u64>,
    /// Set `id` ends at `keys[ends[id]]` and starts where set `id − 1` ends.
    ends: Vec<u32>,
    /// A set's hash → the last set interned with that hash.
    by_hash: HashMap<u64, SetId>,
    /// Per set, the set interned before it with the same hash ([`Self::NO_SET`]: none).
    same_hash: Vec<SetId>,
}

impl Default for ContextTable {
    fn default() -> Self {
        let mut table = ContextTable {
            keys: Vec::new(),
            ends: Vec::new(),
            by_hash: HashMap::new(),
            same_hash: Vec::new(),
        };
        let empty = table.intern(&[]);
        debug_assert_eq!(empty, NO_CONTEXTS);
        table
    }
}

impl ContextTable {
    /// The end of a `same_hash` chain: no id is this large (see [`Known::MAX_SET`]).
    const NO_SET: SetId = SetId::MAX;

    /// The hash a set is found again by; collisions are resolved by comparing sets.
    fn hash(set: &[u64]) -> u64 {
        // The keys are hashes already: a multiply-rotate fold mixes them enough.
        set.iter().fold(set.len() as u64, |hash, &key| {
            (hash ^ key)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(29)
        })
    }

    /// The id of the sorted, deduplicated `set`, interning it on first sight.
    fn intern(&mut self, set: &[u64]) -> SetId {
        debug_assert!(set.windows(2).all(|pair| pair[0] < pair[1]), "{set:?}");
        let hash = Self::hash(set);
        let mut probe = self.by_hash.get(&hash).copied().unwrap_or(Self::NO_SET);
        while probe != Self::NO_SET {
            if self.get(probe) == set {
                return probe;
            }
            probe = self.same_hash[probe as usize];
        }
        let id = SetId::try_from(self.ends.len())
            .ok()
            .filter(|&id| id <= Known::MAX_SET)
            .expect("fewer distinct context sets than a column entry can name");
        self.keys.extend_from_slice(set);
        let end = u32::try_from(self.keys.len()).expect("fewer than 2^32 context keys");
        self.ends.push(end);
        let older = self.by_hash.insert(hash, id);
        self.same_hash.push(older.unwrap_or(Self::NO_SET));
        id
    }

    /// The sorted keys of set `id`.
    fn get(&self, id: SetId) -> &[u64] {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.keys[start as usize..self.ends[id] as usize]
    }

    /// Whether every key of set `from` occurs in set `known`.
    fn covers(&self, known: SetId, from: SetId) -> bool {
        from == known || covered(self.get(from), self.get(known))
    }

    /// The id of set `id` ∪ `extra` (`extra` in any order, duplicates allowed).
    fn union(&mut self, id: SetId, extra: &[u64]) -> SetId {
        let mut set: Vec<u64> = [self.get(id), extra].concat();
        set.sort_unstable();
        set.dedup();
        self.intern(&set)
    }
}

/// Whether every key of `from` occurs in the sorted `known`.
fn covered(from: &[u64], known: &[u64]) -> bool {
    from.iter().all(|key| known.binary_search(key).is_ok())
}

/// What the barrier knows about a discovered state, packed into one `u32`: the
/// [`SetId`] of the contexts it hands to its successors, and in the low bit whether
/// it is stable.  A stable state is "inside" its own projection for good, so its set
/// is the singleton `{key}`; an unstable state's set is its lset, which grows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Known(u32);

impl Known {
    /// The largest set id an entry can hold: one below the [`KnownColumn`]'s sentinel.
    const MAX_SET: SetId = (u32::MAX >> 1) - 1;

    fn stable(singleton: SetId) -> Self {
        Known(singleton << 1 | 1)
    }

    fn unstable(lset: SetId) -> Self {
        Known(lset << 1)
    }

    fn is_stable(self) -> bool {
        self.0 & 1 == 1
    }

    /// The id of the state's contexts.
    fn set(self) -> SetId {
        self.0 >> 1
    }
}

/// One [`Known`] per [`StateIndex`], dense: the column a side's barrier writes and its
/// workers read.  An entry no barrier has announced holds [`KnownColumn::UNANNOUNCED`].
///
/// Store indices pack `(local slot, stripe)`, so the column runs a little past the
/// state count, as far as the fullest stripe reaches.  The barrier grows it once per
/// level, exactly to the largest index the level announces, never by doubling: 4
/// bytes an entry, in RAM when the store spills.
#[derive(Default)]
struct KnownColumn(Vec<u32>);

impl KnownColumn {
    /// The entry of a state not announced yet.
    const UNANNOUNCED: u32 = u32::MAX;

    fn get(&self, index: StateIndex) -> Option<Known> {
        match self.0.get(index.0 as usize) {
            Some(&entry) if entry != Self::UNANNOUNCED => Some(Known(entry)),
            _ => None,
        }
    }

    /// The entry of a state an earlier barrier (or pass 1 of this one) announced.
    fn announced(&self, index: StateIndex) -> Known {
        self.get(index)
            .expect("every expanded state was announced at its barrier")
    }

    /// Makes room for the entries below `len`, allocating no more than that.
    fn grow_to(&mut self, len: usize) {
        if len > self.0.len() {
            self.0.reserve_exact(len - self.0.len());
            self.0.resize(len, Self::UNANNOUNCED);
        }
    }

    fn set(&mut self, index: StateIndex, known: Known) {
        let slot = index.0 as usize;
        self.grow_to(slot + 1);
        self.0[slot] = known.0;
    }

    /// The contexts an edge from `parent` carries ([`NO_PARENT`]: a seed's, none).  The
    /// parent was expanded this level, so an earlier barrier announced it.
    fn contexts_of(&self, parent: StateIndex) -> SetId {
        if parent == NO_PARENT {
            NO_CONTEXTS
        } else {
            self.announced(parent).set()
        }
    }

    /// The contexts the edge behind `at` carries: its parent's.
    fn contexts_from(&self, at: Arrival) -> SetId {
        self.contexts_of(Edge::from(at).parent)
    }
}

/// The parent of a buffered seed: the index the store reserves for "no parent".
const NO_PARENT: StateIndex = StateIndex(u32::MAX);

/// A buffered arrival: the state an edge reached and the state it left, 8 bytes.  The
/// level it arrived in is the one being folded, so no depth is kept.
#[derive(Clone, Copy, Debug)]
struct Edge {
    index: StateIndex,
    /// [`NO_PARENT`] for a seed.
    parent: StateIndex,
}

impl From<Arrival> for Edge {
    fn from(at: Arrival) -> Self {
        Edge {
            index: at.index,
            parent: at.parent.unwrap_or(NO_PARENT),
        }
    }
}

/// A buffered arrival at a stable state, with that state's fingerprint (its
/// `state_key`, computed only for such an arrival), which a representative needs: 24
/// bytes.
#[derive(Clone, Copy, Debug)]
struct Hit {
    edge: Edge,
    fp: Fingerprint,
}

impl Hit {
    fn rep(self, depth: u32) -> Rep {
        Rep {
            depth,
            index: self.edge.index,
            fp: self.fp,
        }
    }
}

/// What one worker saw during a level that can change the barrier's fold; folded
/// sequentially there.
///
/// Every fresh state is kept — the barrier announces it — but a dedup hit only if it
/// can teach its target something: the worker drops a hit whose parent hands down no
/// context, a hit into an older unstable state whose lset already covers its parent's
/// contexts, and a hit into an older stable state whose quotient edges from each of
/// its parent's contexts the side already holds.  That edge set holds only earlier
/// levels' edges, each with a shallower representative than this level can offer.
/// Only an arrival at a state known to be stable carries a fingerprint: a hit into
/// a state of this very level finds its target's among the level's fresh stable
/// states, at the barrier.
#[derive(Default)]
struct Arrivals {
    /// Fresh stable states, with their projection keys: 32 bytes each.
    stable: Vec<(Hit, u64)>,
    /// Fresh unstable states: 8 bytes each.
    unstable: Vec<Edge>,
    /// Dedup hits into a state this level discovered, which the worker cannot tell
    /// stable or not: 8 bytes each.
    level_hits: Vec<Edge>,
    /// Dedup hits into an older stable state through an edge the side lacks.
    hits: Vec<Hit>,
    /// Dedup hits into older *unstable* states bringing a context their lset lacks:
    /// re-enqueued at the barrier if the lset really grew.
    revisits: Vec<Edge>,
}

/// The kernel visitor that records one side's stable projections and the
/// stabilization edges of its projected quotient graph.
///
/// Workers key each state once, when it enters the store (`on_fresh`), and buffer the
/// arrivals that can change the fold ([`Arrivals`]); every table is written at the
/// level barrier, so nothing here is locked and the fold order — hence every
/// statistic — is independent of worker scheduling.  Workers read the
/// [`KnownColumn`], the [`ContextTable`] and the quotient's edge set (in
/// `on_existing`); the barrier announces the level's fresh states, folds the arrivals
/// into projections, quotient edges and lsets, and matches the level's new edges
/// against the frozen coarse [`Adjacency`].  What the visitor keeps grows with what
/// the side learns — one 24-byte [`Rep`] per projection, one key per quotient edge,
/// each distinct context set once, 4 bytes per state — while a level's arrivals and
/// its new edges' representatives live until its barrier only.  Set ids depend on the intern order, so none reaches an
/// ordering, a statistic, a representative choice or a witness: those all read the
/// sorted keys.
struct RefineVisitor<'a, S: SpecState> {
    projection: &'a TraceProjection<S>,
    options: &'a RefineOptions,
    store: &'a StateStore<S>,
    /// The coarse side, while the fine side is explored.  When its quotient is
    /// complete, exploration stops at the end of the first level that discovers a
    /// stable projection absent from it — deeper levels cannot contain a shallower
    /// divergence, so the minimal-depth divergence choice is unaffected while
    /// diverging checks skip the rest of the (often much larger) fine state space.
    /// Every stabilization edge is matched against it as soon as the level
    /// discovering it finishes, so a run truncated by a budget still reports how many
    /// edges it actually verified; matches against a truncated coarse quotient count
    /// as coverage, but only a *complete* one can condemn an edge.
    coarse: Option<Coarse<'a>>,
    /// The scratch of the searches over the coarse adjacency.
    walk: Walk,
    quotient: Quotient,
    /// What each state announced at an earlier barrier hands its successors.
    known: KnownColumn,
    /// The context sets `known` names.
    contexts: ContextTable,
    /// `Some(levels_drained)` once a state or depth budget has tripped: the run is
    /// incomplete, but stabilizations already in progress are finished (unstable
    /// states only) for up to `stabilization_grace` extra levels, so the projection
    /// and edge sets are populated instead of frozen mid-atomic-stretch.
    draining: Option<u32>,
}

impl<S: SpecState> RefineVisitor<'_, S> {
    /// Hands the contexts of `edge`'s parent to its target: quotient edges into a
    /// stable target (`fp`, the target's fingerprint, picks their representatives
    /// among the level's `new_edges`), lset growth — collected in `grown`, applied
    /// after the pass — on an unstable one.
    fn fold(
        &mut self,
        edge: Edge,
        fp: Option<Fingerprint>,
        depth: u32,
        new_edges: &mut HashMap<(u64, u64), Rep>,
        grown: &mut Vec<(StateIndex, SetId)>,
    ) {
        let from = self.known.contexts_of(edge.parent);
        let target = self.known.announced(edge.index);
        if target.is_stable() {
            let fp = fp.expect("an arrival at a stable state carries its fingerprint");
            let rep = Hit { edge, fp }.rep(depth);
            let key = self.contexts.get(target.set())[0];
            for &from in self.contexts.get(from).iter().filter(|&&from| from != key) {
                // Remember a concrete state completing a new edge, so an
                // unmatched-step divergence can reconstruct a witness that actually
                // ends with the offending stabilization.  An edge known from an
                // earlier level already had a shallower one.
                let edge = (from, key);
                if self.quotient.edges.insert(edge) || new_edges.contains_key(&edge) {
                    offer_rep(new_edges, edge, rep);
                }
            }
        } else if !self.contexts.covers(target.set(), from) {
            grown.push((edge.index, from));
        }
    }
}

impl<S: SpecState> Visitor<S> for RefineVisitor<'_, S> {
    type Local = Arrivals;

    fn on_fresh(&self, local: &mut Arrivals, at: Arrival, state: &S) -> bool {
        let key = stable_key(self.projection, state);
        let edge = Edge::from(at);
        match key {
            Some(key) => local.stable.push((
                Hit {
                    edge,
                    fp: state_key(state),
                },
                key,
            )),
            None => local.unstable.push(edge),
        }
        // While draining, stable successors close their stabilization and are not
        // expanded further: only the unstable closure of the final frontier grows the
        // capped exploration.
        self.draining.is_none() || key.is_none()
    }

    fn on_existing(
        &self,
        local: &mut Arrivals,
        at: Arrival,
        target_key: impl FnOnce() -> Fingerprint,
    ) {
        let from = self.known.contexts_from(at);
        if from == NO_CONTEXTS {
            // No context to hand down: neither an edge nor lset growth.
            return;
        }
        let edge = Edge::from(at);
        // A state the barrier has not seen yet was inserted earlier in this very
        // level; whether it is stable, only the barrier knows.
        let Some(target) = self.known.get(at.index) else {
            local.level_hits.push(edge);
            return;
        };
        if target.is_stable() {
            let key = self.contexts.get(target.set())[0];
            let edges = &self.quotient.edges;
            let lacking = self
                .contexts
                .get(from)
                .iter()
                .any(|&from| from != key && !edges.contains(&(from, key)));
            if lacking {
                local.hits.push(Hit {
                    edge,
                    fp: target_key(),
                });
            }
        } else if !self.contexts.covers(target.set(), from) {
            local.revisits.push(edge);
        }
    }

    fn on_level_end(
        &mut self,
        locals: Vec<Arrivals>,
        end: LevelEnd,
        requeue: &mut Vec<StateIndex>,
    ) -> ControlFlow<StopReason> {
        // Every arrival of the level is one of its states: the level names the depth.
        let depth = end.depth;
        // Pass 1: announce the level's states, so pass 2 finds the key of a target
        // another worker inserted.  The column grows once, to the level's largest index.
        let fresh = |local: &Arrivals| {
            let stable = local.stable.iter().map(|(hit, _)| hit.edge.index);
            stable
                .chain(local.unstable.iter().map(|edge| edge.index))
                .max()
        };
        if let Some(last) = locals.iter().filter_map(fresh).max() {
            self.known.grow_to(last.0 as usize + 1);
        }
        let mut missing = false;
        for local in &locals {
            for &(hit, key) in &local.stable {
                offer_rep(&mut self.quotient.projs, key, hit.rep(depth));
                missing |= self.coarse.is_some_and(|coarse| {
                    coarse.quotient.complete && !coarse.quotient.projs.contains_key(&key)
                });
                let singleton = self.contexts.intern(&[key]);
                self.known.set(hit.edge.index, Known::stable(singleton));
            }
            for edge in &local.unstable {
                self.known.set(edge.index, Known::unstable(NO_CONTEXTS));
            }
        }

        // Pass 2: every arrival hands its parent's contexts to its target.  Growth is
        // collected and applied after the pass: parents are read as the level saw them.
        let mut new_edges: HashMap<(u64, u64), Rep> = HashMap::new();
        let mut grown: Vec<(StateIndex, SetId)> = Vec::new();
        // The fingerprints of the level's stable states, for the hits into them.
        let mut level_fps: Vec<(StateIndex, Fingerprint)> = locals
            .iter()
            .flat_map(|local| &local.stable)
            .map(|(hit, _)| (hit.edge.index, hit.fp))
            .collect();
        level_fps.sort_unstable_by_key(|&(index, _)| index);
        let level_fp = |index: StateIndex| {
            let at = level_fps.binary_search_by_key(&index, |&(index, _)| index);
            at.ok().map(|at| level_fps[at].1)
        };
        for local in &locals {
            let hits = local.stable.iter().map(|(hit, _)| hit).chain(&local.hits);
            for hit in hits {
                self.fold(hit.edge, Some(hit.fp), depth, &mut new_edges, &mut grown);
            }
            for &edge in &local.level_hits {
                let fp = level_fp(edge.index);
                self.fold(edge, fp, depth, &mut new_edges, &mut grown);
            }
            for &edge in local.unstable.iter().chain(&local.revisits) {
                self.fold(edge, None, depth, &mut new_edges, &mut grown);
            }
        }
        grown.sort_unstable();
        let mut extra: Vec<u64> = Vec::new();
        let mut grown_states: Vec<StateIndex> = Vec::new();
        for growth in grown.chunk_by(|a, b| a.0 == b.0) {
            let index = growth[0].0;
            extra.clear();
            for &(_, from) in growth {
                extra.extend_from_slice(self.contexts.get(from));
            }
            let lset = self.known.announced(index).set();
            let lset = self.contexts.union(lset, &extra);
            self.known.set(index, Known::unstable(lset));
            grown_states.push(index);
        }
        // A grown lset on an *older* unstable state changes what its successors
        // stabilize from: re-enqueue it once (states of this level are already
        // enqueued and hand down the folded lset).
        let mut requeued = vec![false; grown_states.len()];
        for edge in locals.iter().flat_map(|local| &local.revisits) {
            if let Ok(at) = grown_states.binary_search(&edge.index) {
                if !std::mem::replace(&mut requeued[at], true) {
                    requeue.push(edge.index);
                }
            }
        }

        // Incremental simulation check: match the level's fresh stabilization edges
        // against the coarse quotient right away.  The first unmatched edge is
        // recorded, not acted on: the caller keeps the established check precedence
        // (projection inclusion first, then edge matching).
        if let Some(coarse) = self.coarse {
            if self.quotient.unmatched_edge.is_none() {
                let mut new_edges: Vec<_> = new_edges.into_iter().collect();
                new_edges.sort_unstable_by_key(|&(edge, _)| edge);
                for ((from, to), rep) in new_edges {
                    self.quotient.edges_checked += 1;
                    // Absence from an *incomplete* coarse quotient proves nothing (the
                    // matching path may lie past the coarse budget); only a complete
                    // quotient condemns an edge.  Later levels are deeper, so the
                    // level's representative is the edge's for good.
                    if coarse.quotient.complete
                        && !coarse.adjacency.reaches(&mut self.walk, from, to)
                    {
                        self.quotient.unmatched_edge = Some(((from, to), rep));
                        break;
                    }
                }
            }
        }
        if missing {
            // A divergence exists at (or above) this level; deeper levels cannot
            // beat its depth.  The side is intentionally left incomplete.
            return ControlFlow::Break(StopReason::FirstViolation);
        }
        if end.enqueued + requeue.len() == 0 {
            return ControlFlow::Continue(());
        }
        // The budgets are evaluated here, between levels, never at the insert: the
        // level about to be expanded holds the states of depth `end.depth`.
        if self.draining.is_none() {
            let depth_hit = self.options.max_depth.is_some_and(|max| end.depth >= max);
            let states_hit = self
                .options
                .max_states
                .is_some_and(|max| self.store.len() >= max);
            if depth_hit || states_hit {
                self.draining = Some(0);
            }
        }
        if let Some(drained) = self.draining {
            if drained >= self.options.stabilization_grace {
                return ControlFlow::Break(StopReason::StateLimit);
            }
            self.draining = Some(drained + 1);
        }
        ControlFlow::Continue(())
    }
}

/// Explores one side of the refinement pair on the level-synchronous kernel, recording
/// stable projections and the stabilization edges of the projected quotient graph (see
/// [`RefineVisitor`] for what the fine side does with the `coarse` quotient).
fn explore_side<S: SpecState>(
    spec: &Spec<S>,
    projection: &TraceProjection<S>,
    options: &RefineOptions,
    deadline: Option<Instant>,
    coarse: Option<Coarse<'_>>,
) -> SideSummary<S> {
    let seen = StateStore::with_spill(StoreMode::Full, options.shards, &options.spill);
    let labels = LabelTable::new();
    let pipeline = Pipeline::new(spec, &labels, false, false);
    let explored = kernel::explore(
        Run {
            pipeline: &pipeline,
            store: &seen,
            stop: &StopCell::new(),
            workers: options.workers,
            // The depth bound starts the stabilization drain instead of stopping the
            // run, so it is the visitor's to evaluate.
            max_depth: None,
            deadline,
        },
        RefineVisitor {
            projection,
            options,
            store: &seen,
            coarse,
            walk: Walk::default(),
            quotient: Quotient::default(),
            known: KnownColumn::default(),
            contexts: ContextTable::default(),
            draining: None,
        },
    );
    let capped = explored.visitor.draining.is_some();
    let mut quotient = explored.visitor.quotient;
    quotient.complete = explored.stop_reason == StopReason::Exhausted && !capped;
    SideSummary {
        quotient,
        seen,
        labels,
    }
}

/// Checks that `coarse` simulates `fine` under `projection`.
///
/// Returns a [`RefineOutcome`]; [`RefineOutcome::refines`] is the verdict and
/// [`RefineOutcome::divergence`] carries a (shrunk) concrete witness trace on failure.
/// Inclusion of one side's projections in the other is only checked when the other side
/// was explored to exhaustion; a truncated side yields an inconclusive (but
/// divergence-free) outcome rather than a spurious divergence.
///
/// # Panics
///
/// When `options.store_mode` is not [`StoreMode::Full`] or `options.symmetry` is not
/// [`SymmetryMode::Off`], before anything is explored.
pub fn check_refinement<S: SpecState>(
    fine: &Spec<S>,
    coarse: &Spec<S>,
    projection: &TraceProjection<S>,
    options: &RefineOptions,
) -> RefineOutcome<S> {
    assert!(
        options.store_mode == StoreMode::Full,
        "RefineOptions::store_mode must be full, got {}",
        options.store_mode
    );
    assert!(
        options.symmetry == SymmetryMode::Off,
        "RefineOptions::symmetry must be off, got {}",
        options.symmetry
    );
    let start = Instant::now();
    // One deadline spans both sides.
    let deadline = options.time_budget.map(|b| start + b);

    let mut coarse_side = explore_side(coarse, projection, options, deadline, None);
    // The coarse quotient is final: freeze its edges for the fine side's queries.
    let coarse_edges = std::mem::take(&mut coarse_side.quotient.edges);
    let adjacency = Adjacency::freeze(coarse_edges);
    let coarse_q = &coarse_side.quotient;
    let coarse_view = Coarse {
        quotient: coarse_q,
        adjacency: &adjacency,
    };
    let fine_side = explore_side(fine, projection, options, deadline, Some(coarse_view));
    let fine_q = &fine_side.quotient;

    let mut stats = RefineStats {
        fine_states: fine_side.seen.len(),
        coarse_states: coarse_side.seen.len(),
        fine_projections: fine_q.projs.len(),
        coarse_projections: coarse_q.projs.len(),
        edges_checked: fine_q.edges_checked,
        fine_complete: fine_q.complete,
        coarse_complete: coarse_q.complete,
        fine_spill: fine_side.seen.spill_stats(),
        coarse_spill: coarse_side.seen.spill_stats(),
        elapsed: Duration::default(),
    };

    let mut divergence: Option<RefineDivergence<S>> = None;

    // 1. Every stable fine projection must be coarse-reachable (no lost behaviour), and
    // 2. every stable coarse projection fine-reachable (no invented behaviour) — each
    //    checked only against a side explored to exhaustion.
    for (kind, spec, side, other) in [
        (DivergenceKind::MissingInCoarse, fine, &fine_side, coarse_q),
        (DivergenceKind::ExtraInCoarse, coarse, &coarse_side, fine_q),
    ] {
        if divergence.is_some() || !other.complete {
            continue;
        }
        // The shallowest projection of `side` that `other` lacks.
        let projs = &side.quotient.projs;
        let first_absent = projs
            .iter()
            .filter(|(key, _)| !other.projs.contains_key(key))
            .map(|(key, rep)| (rep.depth, *key, rep.index))
            .min();
        if let Some((_, key, index)) = first_absent {
            divergence = Some(build_divergence(
                kind,
                spec,
                side,
                index,
                projection,
                options,
                |candidate| trace_reaches_projection(candidate, projection, key),
            ));
        }
    }

    // 3. Every fine stabilization edge must be matched by a coarse path between the
    //    same projected classes.  The matching itself ran
    //    incrementally inside the fine exploration (so `edges_checked` reflects the
    //    explored prefix even under a budget); here the first recorded unmatched edge
    //    is turned into a witness, after the cheaper inclusion checks came up clean.
    if divergence.is_none() {
        if let Some(((from, _), rep)) = fine_q.unmatched_edge {
            // Prefer the concrete state that completed this edge over the class
            // representative: its trace ends in the offending stabilization.
            let index = rep.index;
            let mut d = build_divergence(
                DivergenceKind::UnmatchedStep,
                fine,
                &fine_side,
                index,
                projection,
                options,
                |candidate| trace_has_unmatched_edge(candidate, projection, &adjacency),
            );
            // Render both endpoints of the unmatched step: the target is already in
            // `d.projection`; prepend the source class the coarse side cannot leave.
            if let Some(from_rep) = fine_q.projs.get(&from) {
                let rendered = render_projection(projection, &fine_side.state_of(from_rep.index));
                d.projection = format!("{rendered} ⟶ {}", d.projection);
            }
            divergence = Some(d);
        }
    }

    stats.elapsed = start.elapsed();
    RefineOutcome {
        fine_spec: fine.name.clone(),
        coarse_spec: coarse.name.clone(),
        projection: projection.name.clone(),
        mode: options.mode,
        stats,
        divergence,
    }
}

/// Builds (and optionally shrinks) a divergence record whose witness ends at `index`.
fn build_divergence<S: SpecState>(
    kind: DivergenceKind,
    witness_spec: &Spec<S>,
    side: &SideSummary<S>,
    index: StateIndex,
    projection: &TraceProjection<S>,
    options: &RefineOptions,
    oracle: impl Fn(&Trace<S>) -> bool,
) -> RefineDivergence<S> {
    let witness = side.witness(witness_spec, index);
    let original_depth = witness.depth();
    let rendered = witness
        .last_state()
        .map(|s| render_projection(projection, s))
        .unwrap_or_default();
    let witness = if options.shrink_witness {
        let ShrinkOutcome { trace, .. } = shrink_trace(witness_spec, &witness, oracle);
        trace
    } else {
        witness
    };
    RefineDivergence {
        kind,
        witness_spec: witness_spec.name.clone(),
        projection: rendered,
        witness,
        original_depth,
    }
}

/// Oracle: the candidate trace visits a stable state with projection key `key`.
fn trace_reaches_projection<S: SpecState>(
    candidate: &Trace<S>,
    projection: &TraceProjection<S>,
    key: u64,
) -> bool {
    candidate
        .steps
        .iter()
        .any(|step| stable_key(projection, &step.state) == Some(key))
}

/// Oracle: the candidate trace still contains a stabilization edge with no matching
/// coarse path (used to shrink [`DivergenceKind::UnmatchedStep`] witnesses).  Each
/// candidate searches the frozen coarse adjacency afresh.
fn trace_has_unmatched_edge<S: SpecState>(
    candidate: &Trace<S>,
    projection: &TraceProjection<S>,
    coarse: &Adjacency,
) -> bool {
    let mut walk = Walk::default();
    let mut last_stable: Option<u64> = None;
    for step in &candidate.steps {
        let Some(key) = stable_key(projection, &step.state) else {
            continue;
        };
        if let Some(from) = last_stable {
            if !coarse.reaches(&mut walk, from, key) {
                return true;
            }
        }
        last_stable = Some(key);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_spec::{ActionDef, Granularity, ModuleId, ModuleSpec, Value};
    use std::collections::{BTreeMap, BTreeSet};

    /// A two-phase toy: module `M` raises `n` by two in one coarse step, or in two fine
    /// steps through an intermediate `mid` flag that the projection hides.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct TState {
        n: u32,
        mid: bool,
    }

    impl SpecState for TState {}

    const M: ModuleId = ModuleId("M");

    fn fine_spec(limit: u32) -> Spec<TState> {
        let start = ActionDef::new(
            "StepStart",
            M,
            Granularity::Baseline,
            vec!["n", "mid"],
            vec!["mid"],
            move |s: &TState, sink| {
                if !s.mid && s.n < limit {
                    sink.offer(format!("StepStart({})", s.n), None, |next| next.mid = true);
                }
            },
        );
        let finish = ActionDef::new(
            "StepFinish",
            M,
            Granularity::Baseline,
            vec!["n", "mid"],
            vec!["n", "mid"],
            |s: &TState, sink| {
                if s.mid {
                    sink.offer(format!("StepFinish({})", s.n), None, |next| {
                        *next = TState {
                            n: next.n + 2,
                            mid: false,
                        }
                    });
                }
            },
        );
        Spec::new(
            "fine",
            vec![TState { n: 0, mid: false }],
            vec![ModuleSpec::new(
                M,
                Granularity::Baseline,
                vec![start, finish],
            )],
            vec![],
        )
    }

    fn coarse_spec(limit: u32, broken: bool) -> Spec<TState> {
        let step = ActionDef::new(
            "StepBoth",
            M,
            Granularity::Coarse,
            vec!["n"],
            vec!["n"],
            move |s: &TState, sink| {
                if s.n < limit {
                    // The broken variant jumps too far: it loses the fine spec's
                    // intermediate visible states (and invents states of its own).
                    let bump = if broken { 3 } else { 2 };
                    sink.offer(format!("StepBoth({})", s.n), None, |next| {
                        *next = TState {
                            n: next.n + bump,
                            mid: false,
                        }
                    });
                }
            },
        );
        Spec::new(
            "coarse",
            vec![TState { n: 0, mid: false }],
            vec![ModuleSpec::new(M, Granularity::Coarse, vec![step])],
            vec![],
        )
    }

    /// The projection hides `mid`.
    fn only_n(s: &TState) -> BTreeMap<String, Value> {
        BTreeMap::from([("n".to_owned(), Value::from(s.n))])
    }

    fn projection() -> TraceProjection<TState> {
        projection_with(only_n)
    }

    /// [`projection`] with another state function.
    fn projection_with(
        state: impl Fn(&TState) -> BTreeMap<String, Value> + Send + Sync + 'static,
    ) -> TraceProjection<TState> {
        TraceProjection::new("n-only", Granularity::Coarse, Granularity::Baseline, state)
            .with_stability(|s: &TState| !s.mid)
    }

    #[test]
    fn matching_coarsening_refines() {
        let outcome = check_refinement(
            &fine_spec(6),
            &coarse_spec(6, false),
            &projection(),
            &RefineOptions::default(),
        );
        assert_eq!(outcome.verdict(), RefineVerdict::Refines, "{outcome}");
        assert_eq!(outcome.refines(), Some(true));
        assert!(outcome.conclusive());
        assert_eq!(outcome.stats.fine_projections, 4, "n ∈ {{0, 2, 4, 6}}");
        assert_eq!(outcome.stats.coarse_projections, 4);
        assert!(outcome.stats.edges_checked >= 3);
        assert!(outcome.to_string().contains("verdict: refines"));
    }

    #[test]
    fn broken_coarse_action_yields_a_shrunk_fine_witness() {
        // The broken coarse step bumps by 3: the fine projections {2, 4} are missing
        // from the coarse side (which reaches {0, 3, 6}).
        let outcome = check_refinement(
            &fine_spec(6),
            &coarse_spec(6, true),
            &projection(),
            &RefineOptions::default(),
        );
        let divergence = outcome.divergence.as_ref().expect("must diverge");
        assert_eq!(divergence.kind, DivergenceKind::MissingInCoarse);
        assert_eq!(divergence.witness_spec, "fine");
        // The minimal witness of the first missing projection (n == 2) is two steps.
        assert_eq!(divergence.witness.depth(), 2, "{}", divergence.witness);
        assert!(divergence.witness.depth() <= divergence.original_depth);
        assert!(divergence.projection.contains("n = 2"));
    }

    #[test]
    fn invented_coarse_behaviour_is_reported_with_a_coarse_witness() {
        // Coarse reaches odd n values the fine spec cannot: precision is violated even
        // though every *fine* projection also needs matching (checked first) — restrict
        // the fine spec so the missing direction stays clean.
        let fine = fine_spec(0); // fine never moves: projections = {0}
        let coarse = coarse_spec(1, true); // coarse reaches n = 1
        let outcome = check_refinement(&fine, &coarse, &projection(), &RefineOptions::default());
        let divergence = outcome.divergence.expect("must diverge");
        assert_eq!(divergence.kind, DivergenceKind::ExtraInCoarse);
        assert_eq!(divergence.witness_spec, "coarse");
        assert_eq!(divergence.witness.depth(), 1);
    }

    #[test]
    fn unmatched_step_is_caught_in_simulation_mode_only() {
        // Coarse reaches both projections but only in the order 0 → 4 → 2: the fine
        // stabilization edge 0 → 2 has no matching coarse path from 0's class... build
        // it directly: coarse jumps 0 → 4, then 4 → 2.
        let jump = ActionDef::new(
            "Jump",
            M,
            Granularity::Coarse,
            vec!["n"],
            vec!["n"],
            |s: &TState, sink| match s.n {
                0 => sink.offer("Jump(0)", None, |next| *next = TState { n: 4, mid: false }),
                4 => sink.offer("Jump(4)", None, |next| *next = TState { n: 2, mid: false }),
                _ => {}
            },
        );
        let coarse = Spec::new(
            "coarse-reordered",
            vec![TState { n: 0, mid: false }],
            vec![ModuleSpec::new(M, Granularity::Coarse, vec![jump])],
            vec![],
        );
        // Fine: 0 → 2 → 4 (and stops at 4).  Both sides reach the same projections,
        // so only the step matching can tell them apart.
        let fine = fine_spec(3);

        let simulation = check_refinement(&fine, &coarse, &projection(), &RefineOptions::default());
        let divergence = simulation.divergence.expect("simulation must diverge");
        // Fine's stabilization edge 2 → 4 is unmatched: the coarse quotient reaches 4
        // only directly from 0 (its edges are 0 → 4 → 2, nothing out of 2).
        assert_eq!(divergence.kind, DivergenceKind::UnmatchedStep);
        // The shrunk witness is the whole fine chain up to the unmatched 2 → 4 step:
        // no step can go without breaking the execution or the divergence.
        let labels: Vec<String> = divergence
            .witness
            .action_labels()
            .iter()
            .map(|l| l.to_string())
            .collect();
        assert_eq!(
            labels,
            [
                "StepStart(0)",
                "StepFinish(0)",
                "StepStart(2)",
                "StepFinish(2)"
            ]
        );
    }

    #[test]
    fn truncated_sides_are_inconclusive_not_divergent() {
        let outcome = check_refinement(
            &fine_spec(6),
            &coarse_spec(6, true),
            &projection(),
            &RefineOptions::default().with_max_states(1),
        );
        assert!(
            outcome.divergence.is_none(),
            "no divergence may be reported"
        );
        assert_eq!(outcome.verdict(), RefineVerdict::Inconclusive);
        assert_eq!(
            outcome.refines(),
            None,
            "a truncated run has no definite verdict"
        );
        assert!(!outcome.conclusive());
        assert!(
            outcome.to_string().contains("verdict: inconclusive"),
            "the rendered verdict must not read as passing: {outcome}"
        );
    }

    /// Stability only holds at the endpoints of a long unstable stretch, so a state
    /// cap always lands mid-stabilization — the shape of the 5-server mSpec-1 bench
    /// row that collected 1 fine projection against 16,355 coarse ones.
    fn deep_stability_projection() -> TraceProjection<TState> {
        TraceProjection::new("n-deep", Granularity::Coarse, Granularity::Baseline, only_n)
            .with_stability(|s: &TState| !s.mid && (s.n == 0 || s.n >= 4))
    }

    #[test]
    fn capped_run_still_samples_stable_projections_and_edges() {
        // Regression: under a cap that trips before the first non-initial stable
        // state, the fine side used to freeze with `fine_projections: 1` and
        // `edges_checked: 0`.  The stabilization drain finishes the in-progress
        // stretches (recording projections and edges) without reporting a verdict.
        let outcome = check_refinement(
            &fine_spec(6),
            &coarse_spec(6, false),
            &deep_stability_projection(),
            &RefineOptions::default().with_max_states(2),
        );
        assert!(outcome.divergence.is_none(), "{outcome}");
        assert_eq!(outcome.verdict(), RefineVerdict::Inconclusive);
        assert!(
            outcome.stats.fine_projections >= 2,
            "the drained run samples stability past the cap: {:?}",
            outcome.stats
        );
        assert!(
            outcome.stats.edges_checked >= 1,
            "edge checking starts incrementally, not only after both sides finish: {:?}",
            outcome.stats
        );

        // Control: grace 0 restores the old hard stop and its broken accounting.
        let hard = check_refinement(
            &fine_spec(6),
            &coarse_spec(6, false),
            &deep_stability_projection(),
            &RefineOptions::default()
                .with_max_states(2)
                .with_stabilization_grace(0),
        );
        assert_eq!(hard.stats.fine_projections, 1);
        assert_eq!(hard.stats.edges_checked, 0);
    }

    #[test]
    fn parallel_workers_agree_with_sequential() {
        // Everything the checker reports — not just the verdict — must be independent
        // of the worker count, on the refining pair and on the diverging one.
        for broken in [false, true] {
            let run = |workers: usize| {
                let mut outcome = check_refinement(
                    &fine_spec(40),
                    &coarse_spec(40, broken),
                    &projection(),
                    &RefineOptions::default().with_workers(workers),
                );
                outcome.stats.elapsed = Duration::default();
                outcome
            };
            let (seq, par) = (run(1), run(4));
            assert_eq!(seq.stats, par.stats, "broken coarse side: {broken}");
            assert_eq!(seq.refines(), Some(!broken));
            assert_eq!(seq.refines(), par.refines());
            let witness = |o: &RefineOutcome<TState>| {
                o.divergence.as_ref().map(|d| {
                    let labels: Vec<String> = d
                        .witness
                        .action_labels()
                        .iter()
                        .map(|l| l.to_string())
                        .collect();
                    (d.kind, labels)
                })
            };
            assert_eq!(witness(&seq), witness(&par), "broken coarse side: {broken}");
            assert_eq!(witness(&seq).is_some(), broken);
        }
    }

    #[test]
    fn each_state_is_projected_at_most_once_whatever_its_in_degree() {
        use crate::sync::{AtomicUsize, Ordering};
        use std::sync::Arc;

        // A self-loop on every state doubles the explored edges without adding a
        // state (or a quotient edge: both ends share one class).
        let looping = |mut spec: Spec<TState>| {
            let stutter = ActionDef::new(
                "Stutter",
                ModuleId("Loop"),
                Granularity::Baseline,
                vec!["n"],
                vec![],
                |_: &TState, sink| sink.offer("Stutter", None, |_| {}),
            );
            spec.modules.push(ModuleSpec::new(
                ModuleId("Loop"),
                Granularity::Baseline,
                vec![stutter],
            ));
            spec
        };
        let (fine, coarse) = (looping(fine_spec(200)), looping(coarse_spec(200, false)));
        let projections_at = |workers: usize| {
            let calls = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&calls);
            let counting = projection_with(move |s: &TState| {
                counter.fetch_add(1, Ordering::Relaxed);
                only_n(s)
            });
            let options = RefineOptions::default()
                .with_workers(workers)
                .without_shrinking();
            let outcome = check_refinement(&fine, &coarse, &counting, &options);
            assert_eq!(outcome.verdict(), RefineVerdict::Refines, "{outcome}");
            let states = outcome.stats.fine_states + outcome.stats.coarse_states;
            let calls = calls.load(Ordering::Relaxed);
            assert!(
                calls <= states,
                "{calls} projections for {states} states: projection must not scale with edges"
            );
            calls
        };
        assert_eq!(projections_at(1), projections_at(4));
    }

    #[test]
    fn panicking_action_closures_resurface_with_their_payload() {
        // The refinement twin of bfs's `wide_level_panics_propagate_instead_of_hanging`:
        // a 100-wide level runs as a fork-join of four workers (inline for 1), the
        // poisoned state's closure panics there, and check_refinement must re-raise
        // that very payload — not hang, and not a generic "worker panicked".  Poisoning
        // the successors of state 1 instead panics in a one-state level, which the
        // coordinator expands inline, spawning no team.
        let wide = |poisoned: u32| {
            let spawn = ActionDef::new(
                "Spawn",
                M,
                Granularity::Baseline,
                vec!["n"],
                vec!["n"],
                move |s: &TState, sink| match s.n {
                    n if n == poisoned => panic!("boom in refinement closure"),
                    0 => sink.offer("Seed", None, |next| *next = TState { n: 1, mid: false }),
                    1 => {
                        for n in 2..=101 {
                            sink.offer(format!("Spawn({n})"), None, |next| {
                                *next = TState { n, mid: false }
                            });
                        }
                    }
                    _ => {}
                },
            );
            Spec::new(
                "wide",
                vec![TState { n: 0, mid: false }],
                vec![ModuleSpec::new(M, Granularity::Baseline, vec![spawn])],
                vec![],
            )
        };
        for (workers, poisoned) in [(1, 42), (4, 42), (4, 1)] {
            let spec = wide(poisoned);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                check_refinement(
                    &spec,
                    &spec,
                    &projection(),
                    &RefineOptions::default().with_workers(workers),
                )
            }))
            .expect_err("the closure's panic must propagate");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"boom in refinement closure"),
                "workers {workers}, poisoned state {poisoned}"
            );
        }
    }

    /// A refinement check whose fingerprint sets exceed a tiny memory budget must
    /// spill, finish, and produce the *identical* verdict and per-side statistics as the
    /// fully in-RAM run — in the one mode `check_refinement` accepts (Full store,
    /// symmetry off).
    #[test]
    fn spilled_refinement_matches_the_in_ram_run_in_every_mode() {
        use crate::spill::SpillConfig;

        // Few shards so the ~180-state sides overflow the per-shard flush floor (with
        // the default 64 shards each delta table holds only a couple of entries and the
        // budget can never force a flush).
        let base = RefineOptions {
            shards: 2,
            ..RefineOptions::default()
        };
        let in_ram = check_refinement(
            &fine_spec(120),
            &coarse_spec(120, false),
            &projection(),
            &base,
        );
        let spilled = check_refinement(
            &fine_spec(120),
            &coarse_spec(120, false),
            &projection(),
            // 512 bytes: far below the ~120-state fine side's delta table, so both
            // sides flush sorted runs to disk and probe them.
            &base.with_spill(SpillConfig::in_ram().with_budget_bytes(512)),
        );
        assert_eq!(in_ram.verdict(), spilled.verdict());
        assert_eq!(spilled.refines(), Some(true));
        assert_eq!(in_ram.stats.fine_states, spilled.stats.fine_states);
        assert_eq!(in_ram.stats.coarse_states, spilled.stats.coarse_states);
        assert_eq!(
            in_ram.stats.fine_projections,
            spilled.stats.fine_projections
        );
        assert_eq!(
            in_ram.stats.coarse_projections,
            spilled.stats.coarse_projections
        );
        assert_eq!(in_ram.stats.edges_checked, spilled.stats.edges_checked);
        // The budgeted run actually went out of core on both sides, and the disk tier
        // was consulted on later inserts (the fine chain never revisits a state, so
        // most probes are bloom-filtered misses).
        assert!(spilled.stats.fine_spill.spilled());
        assert!(spilled.stats.fine_spill.runs_spilled > 0);
        assert!(
            spilled.stats.fine_spill.disk_probes + spilled.stats.fine_spill.bloom_negatives > 0
        );
        assert!(spilled.stats.coarse_spill.runs_spilled > 0);
        // …and the in-RAM baseline did not.
        assert!(!in_ram.stats.fine_spill.spilled());
        assert!(!in_ram.stats.coarse_spill.spilled());
    }

    #[test]
    fn equal_context_sets_share_one_id() {
        let mut table = ContextTable::default();
        assert_eq!(table.intern(&[]), NO_CONTEXTS);
        let a = table.intern(&[3, 7]);
        let b = table.intern(&[3]);
        assert_ne!(a, b);
        assert_eq!(table.intern(&[3, 7]), a);
        assert_eq!(
            table.union(b, &[7, 3, 7]),
            a,
            "a union equal to a known set is it"
        );
        assert_eq!(table.ends.len(), 3, "{{}}, {{3, 7}} and {{3}}, once each");
    }

    #[test]
    fn a_stable_state_hands_down_its_singleton() {
        let mut table = ContextTable::default();
        let mut column = KnownColumn::default();
        let (stable, unstable) = (StateIndex(9), StateIndex(2));
        column.set(stable, Known::stable(table.intern(&[42])));
        column.set(unstable, Known::unstable(table.intern(&[42])));
        assert_eq!(
            column.get(StateIndex(5)),
            None,
            "below the column's end, unannounced"
        );
        assert_eq!(column.get(StateIndex(10)), None, "past the column's end");
        let at = |parent| Arrival {
            index: StateIndex(0),
            parent,
            depth: 1,
        };
        for index in [stable, unstable] {
            assert_eq!(table.get(column.announced(index).set()), [42]);
            assert_eq!(table.get(column.contexts_from(at(Some(index)))), [42]);
        }
        assert!(column.announced(stable).is_stable());
        assert!(!column.announced(unstable).is_stable());
        assert_eq!(column.contexts_from(at(None)), NO_CONTEXTS, "a seed's edge");
        // The largest set id still differs from the sentinel in either role.
        for known in [
            Known::stable(Known::MAX_SET),
            Known::unstable(Known::MAX_SET),
        ] {
            assert_ne!(known.0, KnownColumn::UNANNOUNCED);
            assert_eq!(known.set(), Known::MAX_SET);
        }
    }

    #[test]
    fn a_union_is_sorted_and_deduplicated() {
        let mut table = ContextTable::default();
        let lset = table.intern(&[2, 9]);
        let grown = table.union(lset, &[9, 5, 1, 5]);
        assert_eq!(table.get(grown), [1, 2, 5, 9]);
        assert_eq!(table.get(lset), [2, 9], "the grown set is a new one");
        let fresh = table.union(NO_CONTEXTS, &[4, 4]);
        assert_eq!(table.get(fresh), [4]);
    }

    #[test]
    fn covers_through_ids_agrees_with_the_slice_check() {
        // Every subset of four keys, against every other.
        let subsets: Vec<Vec<u64>> = (0u32..16)
            .map(|bits| {
                (0u64..4)
                    .filter(|b| bits & 1 << b != 0)
                    .map(|b| 10 * b)
                    .collect()
            })
            .collect();
        let mut table = ContextTable::default();
        let ids: Vec<SetId> = subsets.iter().map(|set| table.intern(set)).collect();
        for (known, &known_id) in subsets.iter().zip(&ids) {
            for (from, &from_id) in subsets.iter().zip(&ids) {
                assert_eq!(
                    table.covers(known_id, from_id),
                    covered(from, known),
                    "{from:?} ⊆ {known:?}"
                );
            }
        }
    }

    #[test]
    fn a_hit_bringing_one_new_context_into_a_known_stable_state_is_kept() {
        // Stable 0 → stable 1 and unstable 2; 1 → unstable 3; 2 → stable 5 and
        // unstable 6; 3 → 6; 6 → 5.  Level 2 learns 0 → 5 (through 2); level 3 grows
        // 6's lset to {0, 1} through 3 and re-enqueues it, and drops 6's hit into 5
        // from {0}, whose edge is known; level 4's hit into 5 from {0, 1} is the only
        // arrival teaching 1 → 5, although 0 → 5 is known already.
        let step = ActionDef::new(
            "Step",
            M,
            Granularity::Baseline,
            vec!["n", "mid"],
            vec!["n", "mid"],
            |s: &TState, sink| {
                let targets: &[u32] = match s.n {
                    0 => &[1, 2],
                    1 => &[3],
                    2 => &[5, 6],
                    3 => &[6],
                    6 => &[5],
                    _ => &[],
                };
                for &n in targets {
                    let mid = matches!(n, 2 | 3 | 6);
                    sink.offer(format!("Step({n})"), None, |next| *next = TState { n, mid });
                }
            },
        );
        let spec = Spec::new(
            "converging",
            vec![TState { n: 0, mid: false }],
            vec![ModuleSpec::new(M, Granularity::Baseline, vec![step])],
            vec![],
        );
        let outcome = check_refinement(&spec, &spec, &projection(), &RefineOptions::default());
        assert_eq!(outcome.verdict(), RefineVerdict::Refines, "{outcome}");
        assert_eq!(outcome.stats.fine_states, 6);
        assert_eq!(outcome.stats.fine_projections, 3, "0, 1 and 5");
        assert_eq!(outcome.stats.edges_checked, 3, "0 → 1, 0 → 5 and 1 → 5");
    }

    #[test]
    fn sets_whose_hashes_collide_keep_their_own_ids() {
        // Build a pair `{0, y}` whose hash equals that of `{k}` by inverting the fold's
        // last step: the multiplier is odd, so it has an inverse modulo 2^64.
        const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
        let inverse = (0..6).fold(MUL, |inv, _| {
            inv.wrapping_mul(2u64.wrapping_sub(MUL.wrapping_mul(inv)))
        });
        assert_eq!(MUL.wrapping_mul(inverse), 1);
        let k = 42;
        // The fold over `{0, y}` after its first key: `(len ^ 0) · MUL`, rotated.
        let first = 2u64.wrapping_mul(MUL).rotate_left(29);
        let y = first
            ^ ContextTable::hash(&[k])
                .rotate_right(29)
                .wrapping_mul(inverse);
        assert!(y > 0, "the pair is sorted");
        assert_eq!(ContextTable::hash(&[0, y]), ContextTable::hash(&[k]));

        let mut table = ContextTable::default();
        let single = table.intern(&[k]);
        let pair = table.intern(&[0, y]);
        assert_ne!(single, pair, "a colliding hash is not an equal set");
        assert_eq!(table.by_hash.len(), 2, "{{}} and the shared hash");
        assert_eq!(table.intern(&[k]), single, "found again down the chain");
        assert_eq!(table.intern(&[0, y]), pair);
        assert_eq!(table.get(single), [k]);
        assert_eq!(table.get(pair), [0, y]);
    }

    /// Which of the keys `0..=200` `from` reaches over `edges`, itself included: a
    /// plain BFS.
    fn reference_reach(edges: &BTreeSet<(u64, u64)>, from: u64) -> Vec<bool> {
        let mut reached = vec![false; 201];
        reached[from as usize] = true;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(key) = queue.pop_front() {
            for &(_, to) in edges.range((key, 0)..=(key, u64::MAX)) {
                if !std::mem::replace(&mut reached[to as usize], true) {
                    queue.push_back(to);
                }
            }
        }
        reached
    }

    proptest::proptest! {
        /// The frozen adjacency answers `to ∈ reach(from)` as a plain BFS over the edge
        /// set does, for every pair of keys up to 200: every key reaches itself, and a
        /// key on no edge (200 never is) reaches nothing else.  One pass asks each
        /// source about every target in a row (the resumed search), another changes
        /// source on every query (a restarted one).
        #[test]
        fn adjacency_reachability_agrees_with_a_plain_search(
            pairs in proptest::collection::vec((0u64..200, 0u64..200), 0..300),
        ) {
            let edges: BTreeSet<(u64, u64)> =
                pairs.into_iter().filter(|(from, to)| from != to).collect();
            // Spread the keys, so that absent ones fall between present ones.
            let spread = |key: u64| key.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let adjacency =
                Adjacency::freeze(edges.iter().map(|&(from, to)| (spread(from), spread(to))));
            let reach: Vec<Vec<bool>> = (0..=200).map(|from| reference_reach(&edges, from)).collect();
            let mut walk = Walk::default();
            let mut agree = |from: usize, to: usize| {
                let reaches = adjacency.reaches(&mut walk, spread(from as u64), spread(to as u64));
                proptest::prop_assert_eq!(reaches, reach[from][to], "{} ⟶ {}", from, to);
            };
            for from in 0..=200 {
                for to in 0..=200 {
                    agree(from, to);
                }
            }
            for to in 0..=200 {
                for from in (to % 7..=200).step_by(7) {
                    agree(from, to);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "RefineOptions::store_mode must be full, got fingerprint-only")]
    fn a_fingerprint_only_store_is_refused() {
        let options = RefineOptions {
            store_mode: StoreMode::FingerprintOnly,
            ..RefineOptions::default()
        };
        check_refinement(
            &fine_spec(6),
            &coarse_spec(6, false),
            &projection(),
            &options,
        );
    }

    #[test]
    #[should_panic(expected = "RefineOptions::symmetry must be off, got canonicalize")]
    fn symmetry_reduction_is_refused() {
        let options = RefineOptions {
            symmetry: SymmetryMode::Canonicalize,
            ..RefineOptions::default()
        };
        check_refinement(
            &fine_spec(6),
            &coarse_spec(6, false),
            &projection(),
            &options,
        );
    }
}

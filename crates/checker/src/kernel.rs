//! The level-synchronous exploration kernel.
//!
//! One loop explores a specification level by level for every engine that needs
//! breadth-first order: [`crate::bfs`] (invariant checking) and [`crate::refine`]
//! (refinement bookkeeping) are [`Visitor`]s of it.  The kernel owns everything that is
//! not domain behaviour — seeding, the successor pipeline ([`crate::expand`]), dedup
//! inserts, the next frontier, budgets, and the parallel machinery:
//!
//! * **Index-only frontier** — a level is the [`StateIndex`] of each state to expand,
//!   4 bytes per entry, and a worker rebuilds each parent it claims from its store row
//!   ([`StateStore::state_at`], `2n + 1` reference-count bumps on an `n`-server Zab
//!   state).  The store already holds every discovered state as a row, so an owned
//!   copy per entry would hold each state twice (≈ 200 B per entry, over two levels of
//!   up to 13,672 entries on the fine three-server space).  Only a store that
//!   keeps no rows ([`StoreMode::FingerprintOnly`](crate::store::StoreMode)) cannot give
//!   a state back, and there an index-aligned `Vec` of states rides along — the one
//!   rule `state_at` follows, not a knob.  A level never leaves RAM: 4 bytes per entry
//!   is less than the store pays per state.
//! * **Fork-join levels** — a level narrower than 64 states is expanded inline on the
//!   calling thread; a wider one inside one `std::thread::scope`, where the calling
//!   thread works as worker 0 beside `workers − 1` helpers spawned for that level.  The
//!   coordinator keeps the frontier, its sleep sets, the depth and the visitor as
//!   locals; the team borrows them for the scope and hands its results back through
//!   `join`, so no lock guards the level: the borrow checker ends every worker's borrow
//!   before the barrier takes the visitor mutably.  A fork-join costs tens of
//!   microseconds, a run has at most a few dozen levels.
//! * **Insert while hot** — what a worker stages is *one parent's successors*: the
//!   enumeration callback pushes them into one per-worker `Vec` (no lock may be taken
//!   inside it), and as soon as it returns each is inserted in enumeration order —
//!   lock its stripe, insert, unlock, then the visitor hook and the POR sleep edge.
//!   Four in five successors are duplicates at the paper's scale, and a duplicate
//!   costs its enumeration, one intern and one row probe: a Full store routes by the
//!   row's hash and needs no key, so none is computed, and a typed label is interned
//!   without being rendered.  Each successor is interned (its just-written components
//!   replaced by the pool's) inside that insert — in a Full store under the pool's lock
//!   alone, before the row it writes picks and probes a stripe, in a fingerprint-only
//!   one when it is fresh, after the `state_key` that routed and deduped it; parking
//!   successors per stripe until a batch filled kept thousands of them — each with
//!   freshly allocated components — cold before the insert, and freed them late.  A
//!   batch amortised nothing but an uncontended stripe mutex.
//!   Every team size inserts this way: there is one insert rule.
//! * **One claim cursor** — every worker of a level claims its next run of frontier
//!   indices from one shared atomic counter (`fetch_add`), so each state is expanded
//!   exactly once for any worker count.  A run is half of what is left, split over the
//!   team: long runs while the level is full keep sibling states (which share pooled
//!   components) on one core, single states at the end let the team finish together,
//!   and a worker with cheap states simply claims more runs.
//! * **Deterministic stop precedence** — stop requests accumulate in the run's
//!   [`StopCell`] and are resolved once per level under its fixed precedence, so the
//!   reported [`StopReason`] does not depend on which worker tripped its condition
//!   first.  Expansion aborts a level early once any stop is requested.
//! * **Panic containment** — every worker body of a wide level runs under
//!   `catch_unwind`; a panicking spec closure requests a stop so the rest of the team
//!   drains the level, and once the scope has joined, the coordinator re-raises the
//!   first payload (in worker order).
//! * **Arrival folding** — under POR every arrival edge carries the sleep set it hands
//!   down; the coordinator intersects them per target at the level barrier.  Visitors
//!   fold the same way: an [`Arrival`] names its parent, workers collect arrivals, and
//!   the visitor reads whatever it knows about the parent at the barrier.
//!
//! With `workers = 1` the same code runs inline on the calling thread, with no thread
//! spawns.  Parallel and sequential runs discover the same state space level by level.
//!
//! # The visitor seam
//!
//! | hook | runs | invariant visitor | refinement visitor |
//! |---|---|---|---|
//! | `on_fresh` | worker, per new state, right after its insert, outside the stripe lock | state limit, invariants → pending violations (keyed by `state_key` for the tie-break); always enqueue | key the state (its stable projection, once) and buffer the arrival (8 B unstable; 32 B stable, with its `state_key`, computed here, and projection key); enqueue unless draining a capped run past a stable state |
//! | `on_existing` | worker, per dedup hit, with a closure that keys the interned duplicate on demand | nothing | buffer the arrival only if it can change the fold: drop it when the parent hands down no context, when an older unstable target's lset already covers the parent's contexts, or when an older stable target's quotient edges from all of them are already in the side's edge map (8 B per kept arrival, 24 B with the target's `state_key`, asked of the closure, when it is known to be stable) |
//! | `on_level_end` | coordinator, after the level's scope has joined (`&mut self`) | resolve violations into traces | fold keys into the dense per-state column (one interned context-set id and a stable bit per `StateIndex`), arrivals into projections / the edge map (one 24-byte representative per edge) / lsets, re-enqueue the indices of grown states, match new edges by searching the frozen coarse adjacency, state cap, early stops |
//!
//! No hook runs inside the successor-enumeration callback: an edge reaches a visitor
//! only as the [`Arrival`] of its insert.  Visitors are generic parameters, never `dyn`:
//! each engine is its own monomorphisation of the loop.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::time::Instant;

use remix_spec::{LabelId, SpecState};

use crate::expand::{Pipeline, Successor};
use crate::fingerprint::{state_key, Fingerprint};
use crate::outcome::StopReason;
use crate::por::{self, SleepSet};
use crate::stop::{StopCell, STOP_TIME_BUDGET};
use crate::store::{Insert, StateIndex, StateStore};
use crate::sync::{AtomicUsize, Ordering};

/// Which store entry an edge arrived at, from where, and at which depth.
#[derive(Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) index: StateIndex,
    /// The state the edge left (`None`: an initial state).  Parents were announced in
    /// an earlier level, so a visitor's barrier-written tables already know them.
    pub(crate) parent: Option<StateIndex>,
    pub(crate) depth: u32,
}

/// What a visitor is told at a level barrier.
pub(crate) struct LevelEnd {
    /// Depth of the states the level discovered (0 for the initial states).
    pub(crate) depth: u32,
    /// States `on_fresh` already enqueued for the next level.
    pub(crate) enqueued: usize,
}

/// The domain behaviour of one exploration; see the module docs for the contract.
pub(crate) trait Visitor<S: SpecState>: Send + Sync {
    /// Per-worker accumulator of one level, handed over at the barrier.
    type Local: Default + Send;

    /// A state entered the store; returns whether to expand it in the next level.  A
    /// visitor that needs a scheduling-independent tie-breaker among same-depth
    /// arrivals (state indices depend on insert order) computes `state_key(state)`.
    fn on_fresh(&self, local: &mut Self::Local, at: Arrival, state: &S) -> bool;

    /// An edge reached a state the store already holds.  `key` computes the target's
    /// `state_key` on demand: from the interned duplicate, whose components are the
    /// pool's (so each digest is computed once per run), unless the insert already had
    /// the key.
    fn on_existing(
        &self,
        _local: &mut Self::Local,
        _at: Arrival,
        _key: impl FnOnce() -> Fingerprint,
    ) {
    }

    /// The level barrier: every worker of the level has returned.  The states whose
    /// indices are pushed to `requeue` join the next level, each rebuilt from its store
    /// row (the kernel asserts the store keeps rows); `Break` ends the run with the given
    /// reason unless a mid-level stop request (which outranks it) is pending.
    fn on_level_end(
        &mut self,
        locals: Vec<Self::Local>,
        end: LevelEnd,
        requeue: &mut Vec<StateIndex>,
    ) -> ControlFlow<StopReason>;
}

/// Everything the kernel needs to know about one run besides its visitor.
pub(crate) struct Run<'a, S> {
    pub(crate) pipeline: &'a Pipeline<'a, S>,
    pub(crate) store: &'a StateStore<S>,
    pub(crate) stop: &'a StopCell,
    pub(crate) workers: usize,
    pub(crate) max_depth: Option<u32>,
    pub(crate) deadline: Option<Instant>,
}

/// What a finished run hands back.
pub(crate) struct Explored<V> {
    pub(crate) visitor: V,
    pub(crate) stop_reason: StopReason,
    pub(crate) totals: Totals,
}

/// Run-wide counters the coordinator accumulates.
pub(crate) struct Totals {
    pub(crate) per_worker_transitions: Vec<u64>,
    /// Transitions skipped by sleep-set POR (not counted as transitions).
    pub(crate) pruned_transitions: u64,
    pub(crate) max_depth: u32,
    /// The most states one level expanded, re-enqueued ones included.
    pub(crate) widest_level: usize,
}

/// States to expand, in order: the store index of each, and — only when the store keeps
/// no rows to rebuild them from — the states themselves, index-aligned.
struct Frontier<S> {
    indices: Vec<StateIndex>,
    /// Empty when the store keeps rows; otherwise `states[i]` is the state at
    /// `indices[i]`, whose sole copy this is.
    states: Vec<S>,
}

impl<S> Default for Frontier<S> {
    fn default() -> Self {
        Frontier {
            indices: Vec::new(),
            states: Vec::new(),
        }
    }
}

impl<S: SpecState> Frontier<S> {
    /// Enqueues the state stored at `index`; `state` is dropped unless `store` could
    /// not give it back.
    fn push(&mut self, store: &StateStore<S>, index: StateIndex, state: S) {
        self.indices.push(index);
        if !store.keeps_rows() {
            self.states.push(state);
        }
    }

    fn append(&mut self, other: Frontier<S>) {
        append_moving(&mut self.indices, other.indices);
        append_moving(&mut self.states, other.states);
    }

    fn len(&self) -> usize {
        self.indices.len()
    }
}

/// Everything one worker produced in one level.
struct WorkerResult<S, L> {
    next_frontier: Frontier<S>,
    transitions: u64,
    pruned: u64,
    /// The visitor's per-worker accumulator.
    local: L,
    /// Arrival edges recorded under POR: the sleep set each inserted (fresh *or*
    /// already-known) successor would inherit through this edge.
    sleep_edges: Vec<(StateIndex, SleepSet)>,
}

impl<S, L: Default> Default for WorkerResult<S, L> {
    fn default() -> Self {
        WorkerResult {
            next_frontier: Frontier::default(),
            transitions: 0,
            pruned: 0,
            local: L::default(),
            sleep_edges: Vec::new(),
        }
    }
}

/// One level under expansion: what its workers share, borrowed from the coordinator
/// for the level, and the cursor they claim frontier indices from.
struct Level<'a, S: SpecState, V> {
    run: &'a Run<'a, S>,
    visitor: &'a V,
    frontier: &'a Frontier<S>,
    /// The sleep set of each frontier state, index-aligned with `frontier`; empty when
    /// POR is off.
    sleeps: &'a [SleepSet],
    /// Depth of the successors this level generates.
    child_depth: u32,
    /// How many workers expand the level.
    team: usize,
    /// The next frontier index to hand out.
    cursor: AtomicUsize,
}

/// Explores `run.pipeline.spec` level by level, driving `visitor`.
pub(crate) fn explore<S: SpecState, V: Visitor<S>>(run: Run<'_, S>, mut visitor: V) -> Explored<V> {
    let mut totals = Totals {
        per_worker_transitions: vec![0; run.workers.max(1)],
        pruned_transitions: 0,
        max_depth: 0,
        widest_level: 0,
    };
    let stop_reason = level_loop(&run, &mut visitor, &mut totals);
    Explored {
        visitor,
        stop_reason,
        totals,
    }
}

/// What one level discovered, gathered from its workers for the barrier.
struct LevelOutput<S, L> {
    next: Frontier<S>,
    locals: Vec<L>,
    sleep_edges: Vec<(StateIndex, SleepSet)>,
}

impl<S: SpecState, L> LevelOutput<S, L> {
    fn gather(results: Vec<WorkerResult<S, L>>, totals: &mut Totals) -> Self {
        let mut output = LevelOutput {
            next: Frontier::default(),
            locals: Vec::with_capacity(results.len()),
            sleep_edges: Vec::new(),
        };
        for (w, result) in results.into_iter().enumerate() {
            totals.per_worker_transitions[w] += result.transitions;
            totals.pruned_transitions += result.pruned;
            output.next.append(result.next_frontier);
            output.locals.push(result.local);
            append_moving(&mut output.sleep_edges, result.sleep_edges);
        }
        output
    }
}

/// Appends `other` to `into`, or moves it in whole while `into` is empty: the first
/// worker's buffers (a one-worker level's only ones) reach the barrier uncopied.
fn append_moving<T>(into: &mut Vec<T>, mut other: Vec<T>) {
    if into.is_empty() {
        *into = other;
    } else {
        into.append(&mut other);
    }
}

/// The level-synchronous main loop, run by the coordinator (the calling thread).
fn level_loop<S: SpecState, V: Visitor<S>>(
    run: &Run<'_, S>,
    visitor: &mut V,
    totals: &mut Totals,
) -> StopReason {
    // Level 0: the initial states reach the visitor like any other fresh arrival.
    let mut depth: u32 = 0;
    let mut output = {
        let mut seeds = WorkerResult::default();
        run.pipeline.seed(run.store, |index, state| {
            let at = Arrival {
                index,
                parent: None,
                depth: 0,
            };
            if visitor.on_fresh(&mut seeds.local, at, &state) {
                seeds.next_frontier.push(run.store, index, state);
            }
        });
        LevelOutput::gather(vec![seeds], totals)
    };

    loop {
        // The barrier of level `depth`: `output` holds what the level discovered.
        let LevelOutput {
            mut next,
            locals,
            sleep_edges,
        } = output;
        let mut requeue = Vec::new();
        let end = LevelEnd {
            depth,
            enqueued: next.len(),
        };
        let flow = visitor.on_level_end(locals, end, &mut requeue);
        assert!(
            requeue.is_empty() || run.store.keeps_rows(),
            "a re-queued state is rebuilt from its row, and this store keeps none"
        );
        next.indices.extend(requeue);
        if next.len() > 0 {
            totals.max_depth = totals.max_depth.max(depth);
        }
        // Stops requested mid-level (violations, limits, the deadline, a contained
        // panic) outrank the visitor's barrier decision.
        if let Some(reason) = run.stop.stop_reason() {
            return reason;
        }
        if let ControlFlow::Break(reason) = flow {
            return reason;
        }
        if next.len() == 0 {
            return StopReason::Exhausted;
        }
        // Check resource budgets between levels (workers also check the deadline
        // within a level).
        if run.deadline.is_some_and(|d| Instant::now() >= d) {
            return StopReason::TimeBudget;
        }
        if run.max_depth.is_some_and(|max_depth| depth >= max_depth) {
            return StopReason::DepthBound;
        }
        totals.widest_level = totals.widest_level.max(next.len());
        let results = expand_level(run, visitor, next, sleep_edges, depth + 1);
        output = LevelOutput::gather(results, totals);
        depth += 1;
    }
}

/// Builds a level's sleep sets, index-aligned with its frontier, from the arrival
/// edges recorded while the previous level was expanded.
///
/// A state reached through several same-level edges keeps only the labels *every*
/// arrival keeps asleep (set intersection — commutative, so the result is independent
/// of worker scheduling).  Edges to states of older levels (re-visits at greater depth)
/// have no aligned frontier slot and are dropped, which degrades the reduction, never
/// its soundness.
fn align_sleeps(
    sleep_edges: Vec<(StateIndex, SleepSet)>,
    frontier: &[StateIndex],
) -> Vec<SleepSet> {
    // No edges: POR is off (an expanded level always has arrivals otherwise).
    if sleep_edges.is_empty() {
        return Vec::new();
    }
    let mut by_index: HashMap<u32, SleepSet> = HashMap::with_capacity(sleep_edges.len());
    for (index, sleep) in sleep_edges {
        match by_index.entry(index.0) {
            Entry::Occupied(mut slot) => por::intersect_sorted(slot.get_mut(), &sleep),
            Entry::Vacant(slot) => {
                slot.insert(sleep);
            }
        }
    }
    let aligned = |index: &StateIndex| by_index.remove(&index.0).unwrap_or_default();
    frontier.iter().map(aligned).collect()
}

/// Expands `frontier` into successors of depth `child_depth` and returns the results
/// in worker order.  A level narrower than 64 states is expanded inline; a wider one
/// by a team of `run.workers` in one fork-join, the calling thread being worker 0.
fn expand_level<S: SpecState, V: Visitor<S>>(
    run: &Run<'_, S>,
    visitor: &V,
    frontier: Frontier<S>,
    sleep_edges: Vec<(StateIndex, SleepSet)>,
    child_depth: u32,
) -> Vec<WorkerResult<S, V::Local>> {
    let sleeps = align_sleeps(sleep_edges, &frontier.indices);
    let team = if frontier.len() >= 64 {
        run.workers.max(1)
    } else {
        1
    };
    let level = Level {
        run,
        visitor,
        frontier: &frontier,
        sleeps: &sleeps,
        child_depth,
        team,
        cursor: AtomicUsize::new(0),
    };
    if team == 1 {
        return vec![level.expand()];
    }
    // A panicking spec closure (action, invariant or projection) on any worker requests
    // a stop, so the rest of the team drains the level, and its payload is re-raised
    // here once the scope has joined them all.
    let contained = || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| level.expand())).inspect_err(
            |_| {
                run.stop.request(STOP_TIME_BUDGET);
            },
        )
    };
    let results: Vec<_> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..team).map(|_| scope.spawn(contained)).collect();
        let own = contained();
        let joined = helpers.into_iter().map(|h| h.join().unwrap_or_else(Err));
        std::iter::once(own).chain(joined).collect()
    });
    results
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

impl<S: SpecState, V: Visitor<S>> Level<'_, S, V> {
    /// One worker's share of the level: claims runs of frontier indices from the shared
    /// cursor until the level is drained or a stop is requested, expands each claimed
    /// state into `staged`, and inserts what it staged before the next state.
    fn expand(&self) -> WorkerResult<S, V::Local> {
        let run = self.run;
        let mut result = WorkerResult::default();
        // One parent's successors, in enumeration order; empty between parents.
        let mut staged: Vec<Successor<S>> = Vec::new();
        let mut processed: u64 = 0;

        let len = self.frontier.len();
        let mut claimed = 0..0;
        while !run.stop.requested() {
            if claimed.is_empty() {
                // A claim takes half of what is left, split over the team: neighbouring
                // frontier entries are siblings that share pooled components, so long
                // runs keep one core bumping their reference counts, and the runs shrink
                // to single states as the level drains, so the team finishes together.
                // ordering: Relaxed — a stale read only sizes the run.
                let left = len.saturating_sub(self.cursor.load(Ordering::Relaxed));
                let run_len = (left / (2 * self.team)).max(1);
                // ordering: Relaxed — the cursor only hands out indices (each `fetch_add`
                // takes a range no other claim overlaps); the scope's spawns published
                // the level to the team.
                let start = self.cursor.fetch_add(run_len, Ordering::Relaxed);
                claimed = start.min(len)..start.saturating_add(run_len).min(len);
            }
            let Some(idx) = claimed.next() else {
                break;
            };
            let parent = self.frontier.indices[idx];
            // The frontier holds the parent only where the store keeps no row to rebuild
            // it from; the read locks the parent's stripe and the pool, and both are
            // released before the enumeration callback runs.
            let rebuilt;
            let state = match self.frontier.states.get(idx) {
                Some(state) => state,
                None => {
                    rebuilt = run
                        .store
                        .state_at(parent)
                        .expect("a store that keeps rows rebuilds every frontier state");
                    &rebuilt
                }
            };
            let sleep_in: &[LabelId] = self.sleeps.get(idx).map_or(&[], |sleep| sleep.as_slice());
            let (explored, pruned) = run
                .pipeline
                .expand(state, sleep_in, |succ| staged.push(succ));
            result.transitions += explored;
            result.pruned += pruned;
            // The callback has returned, so locks are allowed again: every staged
            // successor meets the store now, while the components its action wrote are
            // still in cache.
            for succ in staged.drain(..) {
                // A stop ends the run at the state that asked for it: in a team of one,
                // the first in (frontier, enumeration) order.
                if run.stop.requested() {
                    break;
                }
                self.arrive(parent, succ, &mut result);
            }

            processed += 1;
            if processed.is_multiple_of(64) && run.deadline.is_some_and(|d| Instant::now() >= d) {
                run.stop.request(STOP_TIME_BUDGET);
            }
        }
        result
    }

    /// One edge meets the store: lock the successor's stripe, insert, unlock, then
    /// (outside the lock) tell the visitor and record the sleep set the edge hands down.
    /// A fresh state goes no further than `on_fresh` unless the store cannot rebuild
    /// it; a dedup hit's copy is dropped here.
    fn arrive(
        &self,
        parent: StateIndex,
        succ: Successor<S>,
        result: &mut WorkerResult<S, V::Local>,
    ) {
        let store = self.run.store;
        // Only a fingerprint-only store keys the successor; a Full one needs no key.
        let (insert, key) = store.insert(Some(parent), succ.label, succ.state, succ.perm);
        let (Insert::Fresh(index, _) | Insert::Existing(index, _)) = &insert;
        let at = Arrival {
            index: *index,
            parent: Some(parent),
            depth: self.child_depth,
        };
        // Both fresh and already-known targets contribute an arrival edge: a state
        // reached again within the same level only keeps a label asleep if every
        // minimal-depth arrival does.
        if self.run.pipeline.por {
            result.sleep_edges.push((at.index, succ.sleep));
        }
        match insert {
            Insert::Fresh(_, state) => {
                if self.visitor.on_fresh(&mut result.local, at, &state) {
                    result.next_frontier.push(store, at.index, state);
                }
            }
            Insert::Existing(_, duplicate) => {
                let key = || key.unwrap_or_else(|| state_key(&duplicate));
                self.visitor.on_existing(&mut result.local, at, key);
            }
        }
    }
}

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
//! * **Persistent worker pool** — worker threads are spawned *once per run* and park on
//!   a condition variable between levels; the coordinator publishes each level
//!   (frontier, sleep sets, depth) and wakes them.  Re-spawning workers at every
//!   level boundary makes small-frontier levels pay thread spawn latency over and over.
//! * **Insert while hot** — what a worker stages is *one parent's successors*: the
//!   enumeration callback pushes them into one per-worker `Vec` (no lock may be taken
//!   inside it), and as soon as it returns each is inserted in enumeration order —
//!   lock its stripe, `insert_edge`, unlock, then the visitor hook and the POR sleep
//!   edge.  Half to four fifths of all successors are duplicates the dedup insert
//!   frees, and each is interned (its just-written components replaced by the pool's)
//!   inside that insert — in a Full store before the probe, whose key is the row it
//!   writes, in a fingerprint-only one when it is fresh; parking successors per stripe
//!   until a batch filled kept thousands of them — each with freshly allocated
//!   components — cold between `state_key` and the insert, and freed them late.  A
//!   batch amortised nothing but an uncontended stripe mutex: the pool lock is taken
//!   per insert inside it.
//!   Every team size inserts this way: there is one insert rule.
//! * **Work stealing** — the frontier of each level is split into one contiguous range
//!   per worker; a worker that drains its range steals the back half of the largest
//!   remaining range, so skewed successor costs cannot leave threads idle.  Range bounds
//!   live in one packed atomic word, so a claim and a steal can never hand the same
//!   index to two workers: every state is expanded exactly once for any worker count.
//! * **Deterministic stop precedence** — stop requests accumulate in the run's
//!   [`StopCell`] and are resolved once per level under its fixed precedence, so the
//!   reported [`StopReason`] does not depend on which worker tripped its condition
//!   first.  Expansion aborts a level early once any stop is requested.
//! * **Panic containment** — a panicking spec closure on a pool worker is caught, the
//!   level drains, and the coordinator re-raises the original payload.
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
//! | `on_fresh` | worker, per new state, right after its insert, outside the stripe lock | state limit, invariants → pending violations; always enqueue | key the state (its stable projection, once); enqueue unless draining a capped run past a stable state |
//! | `on_existing` | worker, per dedup hit (the duplicate copy is already dropped) | nothing | record the arrival unless the target's known contexts already cover the parent's |
//! | `on_level_end` | coordinator, workers parked | resolve violations into traces | fold keys into the per-state table, arrivals into projections / quotient edges / lsets, re-enqueue the indices of grown states, edge matching, state cap, early stops |
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
use crate::fingerprint::Fingerprint;
use crate::outcome::StopReason;
use crate::por::{self, SleepSet};
use crate::stop::{StopCell, STOP_TIME_BUDGET};
use crate::store::{Insert, StateIndex, StateStore};
use crate::sync::{
    AtomicU64, FrontierRank, GateRank, OrderedCondvar, OrderedMutex, OrderedRwLock, Ordering,
    PanicSlotRank, ResultsRank,
};

/// Which store entry an edge arrived at, from where, and at which depth.
#[derive(Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) index: StateIndex,
    /// The state the edge left (`None`: an initial state).  Parents were announced in
    /// an earlier level, so a visitor's barrier-written tables already know them.
    pub(crate) parent: Option<StateIndex>,
    /// The scheduling-independent tie-breaker among same-depth arrivals (state indices
    /// depend on insert order).
    pub(crate) fp: Fingerprint,
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

    /// A state entered the store; returns whether to expand it in the next level.
    fn on_fresh(&self, local: &mut Self::Local, at: Arrival, state: &S) -> bool;

    /// An edge reached a state the store already holds.
    fn on_existing(&self, _local: &mut Self::Local, _at: Arrival) {}

    /// The level barrier: every worker is parked.  The states whose indices are pushed
    /// to `requeue` join the next level, each rebuilt from its store row (the kernel
    /// asserts the store keeps rows); `Break` ends the run with the given reason unless
    /// a mid-level stop request (which outranks it) is pending.
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

struct ShutdownOnDrop<'a>(&'a OrderedMutex<GateRank, Gate>, &'a OrderedCondvar);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().shutdown = true;
        self.1.notify_all();
    }
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

/// One worker's slice of the frontier, stealable by other workers.
///
/// `next` and `end` are packed into one 64-bit word (32 bits each) so that claims and
/// steals are single compare-exchange operations on the same atomic: an index can never
/// be handed to both its owner and a thief, which keeps transition counts — not just the
/// explored state set — identical across worker counts.  Frontier levels are bounded far
/// below `u32::MAX` by the configuration's budgets.
struct StealRange {
    packed: AtomicU64,
}

fn pack(next: usize, end: usize) -> u64 {
    debug_assert!(next <= u32::MAX as usize && end <= u32::MAX as usize);
    ((next as u64) << 32) | end as u64
}

fn unpack(word: u64) -> (usize, usize) {
    ((word >> 32) as usize, (word & 0xffff_ffff) as usize)
}

impl StealRange {
    fn new(start: usize, end: usize) -> Self {
        StealRange {
            packed: AtomicU64::new(pack(start, end)),
        }
    }

    /// Re-arms this range for a new level (only the coordinator writes between levels).
    fn reset(&self, start: usize, end: usize) {
        // ordering: Release — publishes the new bounds before workers wake (the gate
        // handshake also orders this; Release keeps reset safe on its own).
        self.packed.store(pack(start, end), Ordering::Release);
    }

    /// One compare-exchange loop for claims and steals: replaces the bounds by the
    /// word `step` computes from them and returns what it hands out (`None` from `step`
    /// leaves the range alone).
    fn update<R>(&self, step: impl Fn(usize, usize) -> Option<(u64, R)>) -> Option<R> {
        // ordering: Acquire — sees the coordinator's reset and other claims/steals.
        let mut word = self.packed.load(Ordering::Acquire);
        loop {
            let (next, end) = unpack(word);
            let (replacement, handed_out) = step(next, end)?;
            match self.packed.compare_exchange_weak(
                word,
                replacement,
                // ordering: AcqRel on success (the update observes and extends the claim
                // history: an index goes to exactly one of owner and thief), Acquire on failure.
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(handed_out),
                Err(current) => word = current,
            }
        }
    }

    /// Claims the next index of this range, if any remains.
    fn claim(&self) -> Option<usize> {
        self.update(|next, end| (next < end).then(|| (pack(next + 1, end), next)))
    }

    fn remaining(&self) -> usize {
        // ordering: Acquire — an advisory victim-size read; pairs with the CAS.
        let (next, end) = unpack(self.packed.load(Ordering::Acquire));
        end.saturating_sub(next)
    }

    /// Tries to steal the back half of this range, returning the stolen bounds.
    fn steal_half(&self) -> Option<(usize, usize)> {
        self.update(|next, end| {
            let mid = next + end.saturating_sub(next) / 2;
            (end.saturating_sub(next) >= 2).then(|| (pack(next, mid), (mid, end)))
        })
    }
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
        self.indices.extend(other.indices);
        self.states.extend(other.states);
    }

    fn len(&self) -> usize {
        self.indices.len()
    }
}

/// Everything one worker produced in one pool cycle.
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

/// Coordination state of the persistent worker pool: generation counter, in-flight
/// worker count and the shutdown flag, guarded by one mutex with two condvars.
#[derive(Default)]
struct Gate {
    generation: u64,
    remaining: usize,
    shutdown: bool,
}

/// One pool worker's per-cycle result slot.
type ResultSlot<S, L> = OrderedMutex<ResultsRank, Option<WorkerResult<S, L>>>;

/// What the coordinator publishes for one cycle.  It writes between cycles, while every
/// worker is parked (the generation handshake in `gate` is the synchronisation point);
/// workers hold the read lock for a whole cycle.
struct Level<S, V> {
    frontier: Frontier<S>,
    /// The sleep set of each frontier state, index-aligned with `frontier`; empty when
    /// POR is off.
    sleeps: Vec<SleepSet>,
    /// Depth of the successors this level generates.
    child_depth: u32,
    /// Shared by the workers during a cycle, exclusive to the coordinator at barriers.
    visitor: V,
}

/// Everything shared between the coordinator and the pool workers for a whole run.
struct Shared<'a, S: SpecState, V: Visitor<S>> {
    run: Run<'a, S>,
    level: OrderedRwLock<FrontierRank, Level<S, V>>,
    /// One steal range per pool worker.
    ranges: Vec<StealRange>,
    /// One per pool worker.
    results: Vec<ResultSlot<S, V::Local>>,
    /// The first panic payload caught on a pool worker, re-raised by the coordinator
    /// after the level completes (a dead worker must still decrement `gate.remaining`,
    /// or the coordinator would wait forever — see `pool_worker`).
    worker_panic: OrderedMutex<PanicSlotRank, Option<Box<dyn std::any::Any + Send>>>,
    gate: OrderedMutex<GateRank, Gate>,
    work_ready: OrderedCondvar,
    work_done: OrderedCondvar,
}

/// Explores `run.pipeline.spec` level by level, driving `visitor`.
pub(crate) fn explore<S: SpecState, V: Visitor<S>>(run: Run<'_, S>, visitor: V) -> Explored<V> {
    let workers = run.workers.max(1);
    let shared = Shared {
        level: OrderedRwLock::new(Level {
            frontier: Frontier::default(),
            sleeps: Vec::new(),
            child_depth: 0,
            visitor,
        }),
        ranges: (0..workers).map(|_| StealRange::new(0, 0)).collect(),
        results: (0..workers).map(|_| OrderedMutex::new(None)).collect(),
        worker_panic: OrderedMutex::new(None),
        gate: OrderedMutex::new(Gate::default()),
        work_ready: OrderedCondvar::new(),
        work_done: OrderedCondvar::new(),
        run,
    };
    let mut totals = Totals {
        per_worker_transitions: vec![0; workers],
        pruned_transitions: 0,
        max_depth: 0,
        widest_level: 0,
    };
    let stop_reason = if workers == 1 {
        level_loop(&shared, &mut totals)
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let shared = &shared;
                scope.spawn(move || pool_worker(shared, w));
            }
            // Unparks everyone one last time so the scope can join — also when the
            // coordinator unwinds (a small level's closure panicking inline, or a
            // worker's payload re-raised by `run_cycle`).
            let _shutdown = ShutdownOnDrop(&shared.gate, &shared.work_ready);
            level_loop(&shared, &mut totals)
        })
    };
    Explored {
        visitor: shared.level.into_inner().visitor,
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
            output.sleep_edges.extend(result.sleep_edges);
        }
        output
    }
}

/// The level-synchronous main loop, run by the coordinator (the calling thread).
fn level_loop<S: SpecState, V: Visitor<S>>(
    shared: &Shared<'_, S, V>,
    totals: &mut Totals,
) -> StopReason {
    let run = &shared.run;

    // Level 0: the initial states reach the visitor like any other fresh arrival.
    let mut depth: u32 = 0;
    let mut output = {
        let level = shared.level.read();
        let mut seeds = WorkerResult::default();
        run.pipeline.seed(run.store, |index, fp, state| {
            let at = Arrival {
                index,
                parent: None,
                fp,
                depth: 0,
            };
            if level.visitor.on_fresh(&mut seeds.local, at, &state) {
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
        let flow = {
            let mut level = shared.level.write();
            level.frontier = Frontier::default();
            let end = LevelEnd {
                depth,
                enqueued: next.len(),
            };
            level.visitor.on_level_end(locals, end, &mut requeue)
        };
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
        output = LevelOutput::gather(expand_level(shared, next, sleep_edges, depth + 1), totals);
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

/// Publishes `frontier` as the level whose successors have depth `child_depth` and
/// expands it (inline or on the pool), returning the per-worker results.
fn expand_level<S: SpecState, V: Visitor<S>>(
    shared: &Shared<'_, S, V>,
    frontier: Frontier<S>,
    sleep_edges: Vec<(StateIndex, SleepSet)>,
    child_depth: u32,
) -> Vec<WorkerResult<S, V::Local>> {
    let len = frontier.len();
    // Small frontiers are not worth waking the pool for; expand them inline.
    let team = if len >= 64 { shared.ranges.len() } else { 1 };
    let per_worker = len.div_ceil(team);
    for (w, range) in shared.ranges.iter().enumerate() {
        range.reset((w * per_worker).min(len), ((w + 1) * per_worker).min(len));
    }
    {
        let mut level = shared.level.write();
        level.sleeps = align_sleeps(sleep_edges, &frontier.indices);
        level.frontier = frontier;
        level.child_depth = child_depth;
    }
    run_cycle(shared, team)
}

/// Expands the published level once on `team` workers — inline for a team of one, else
/// as one gate cycle of the persistent pool — and collects the per-worker results.
fn run_cycle<S: SpecState, V: Visitor<S>>(
    shared: &Shared<'_, S, V>,
    team: usize,
) -> Vec<WorkerResult<S, V::Local>> {
    if team == 1 {
        return vec![expand_range(shared, 0)];
    }
    // Wake the pool and wait for every worker to finish the cycle.
    {
        let mut gate = shared.gate.lock();
        gate.generation += 1;
        gate.remaining = team;
        drop(gate);
        shared.work_ready.notify_all();
        let mut gate = shared.gate.lock();
        while gate.remaining > 0 {
            gate = shared.work_done.wait(gate);
        }
    }
    if let Some(payload) = shared.worker_panic.lock().take() {
        // Re-raise the worker's panic from the coordinator.
        std::panic::resume_unwind(payload);
    }
    shared
        .results
        .iter()
        .map(|slot| {
            slot.lock()
                .take()
                .expect("every pool worker publishes a cycle result")
        })
        .collect()
}

/// The body of one pool worker: park until the coordinator publishes a cycle (or shuts
/// the run down), run it, publish the result, repeat.
fn pool_worker<S: SpecState, V: Visitor<S>>(shared: &Shared<'_, S, V>, worker: usize) {
    let mut last_generation = 0u64;
    loop {
        {
            let mut gate = shared.gate.lock();
            while gate.generation == last_generation && !gate.shutdown {
                gate = shared.work_ready.wait(gate);
            }
            if gate.shutdown {
                return;
            }
            last_generation = gate.generation;
        }
        // A panicking spec closure (action, invariant or projection) must not leave the
        // coordinator waiting forever on `gate.remaining`: catch the panic, publish an
        // empty result, request a stop so the other workers drain, and let the
        // coordinator re-raise the payload after the level completes.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            expand_range(shared, worker)
        }))
        .unwrap_or_else(|payload| {
            shared.worker_panic.lock().get_or_insert(payload);
            shared.run.stop.request(STOP_TIME_BUDGET);
            WorkerResult::default()
        });
        *shared.results[worker].lock() = Some(result);
        let mut gate = shared.gate.lock();
        gate.remaining -= 1;
        if gate.remaining == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// The worker loop: claims frontier indices of the published level (own range first,
/// then stolen halves), expands each state into `staged`, and inserts what it staged
/// before the next claim.  Holds the level read lock for the whole cycle.
fn expand_range<S: SpecState, V: Visitor<S>>(
    shared: &Shared<'_, S, V>,
    worker: usize,
) -> WorkerResult<S, V::Local> {
    let run = &shared.run;
    let level = shared.level.read();
    let mut result = WorkerResult::default();
    // One parent's successors, in enumeration order; empty between parents.
    let mut staged: Vec<Successor<S>> = Vec::new();
    let mut stolen: Option<StealRange> = None;
    let mut processed: u64 = 0;

    'claim: loop {
        if run.stop.requested() {
            break;
        }
        // Claim from the stolen range first (it was taken to be worked on), then from the
        // worker's own range, then steal from the largest remaining range.
        let idx = loop {
            if let Some(range) = &stolen {
                if let Some(idx) = range.claim() {
                    break idx;
                }
                stolen = None;
            }
            if let Some(idx) = shared.ranges[worker].claim() {
                break idx;
            }
            let victim = shared
                .ranges
                .iter()
                .enumerate()
                .filter(|(v, _)| *v != worker)
                .max_by_key(|(_, r)| r.remaining())
                .filter(|(_, r)| r.remaining() >= 2);
            let Some((_, victim)) = victim else {
                // No range anywhere holds stealable work: the level is drained.
                break 'claim;
            };
            match victim.steal_half() {
                Some((start, end)) => stolen = Some(StealRange::new(start, end)),
                // Lost the race to the victim's owner (or another thief); other ranges
                // may still hold work, so rescan rather than leaving this worker idle
                // for the rest of the level.
                None => continue,
            }
        };

        let parent = level.frontier.indices[idx];
        // The frontier holds the parent only where the store keeps no row to rebuild it
        // from; the read locks the parent's stripe and the pool, and both are released
        // before the enumeration callback runs.
        let rebuilt;
        let state = match level.frontier.states.get(idx) {
            Some(state) => state,
            None => {
                rebuilt = run
                    .store
                    .state_at(parent)
                    .expect("a store that keeps rows rebuilds every frontier state");
                &rebuilt
            }
        };
        let sleep_in: &[LabelId] = level.sleeps.get(idx).map_or(&[], |sleep| sleep.as_slice());
        let (explored, pruned) = run
            .pipeline
            .expand(state, sleep_in, |succ| staged.push(succ));
        result.transitions += explored;
        result.pruned += pruned;
        // The callback has returned, so locks are allowed again: every staged successor
        // meets the store now, while the components its action wrote are still in cache.
        for succ in staged.drain(..) {
            // A stop ends the run at the state that asked for it: in a team of one, the
            // first in (frontier, enumeration) order.
            if run.stop.requested() {
                break;
            }
            arrive(shared, &level, parent, succ, &mut result);
        }

        processed += 1;
        if processed.is_multiple_of(64) && run.deadline.is_some_and(|d| Instant::now() >= d) {
            run.stop.request(STOP_TIME_BUDGET);
        }
    }
    result
}

/// One edge meets the store: lock the successor's stripe, insert, unlock, then (outside
/// the lock) tell the visitor and record the sleep set the edge hands down.  A fresh
/// state goes no further than `on_fresh` unless the store cannot rebuild it; a dedup
/// hit's copy is dropped here.
fn arrive<S: SpecState, V: Visitor<S>>(
    shared: &Shared<'_, S, V>,
    level: &Level<S, V>,
    parent: StateIndex,
    succ: Successor<S>,
    result: &mut WorkerResult<S, V::Local>,
) {
    let store = shared.run.store;
    // The handle is a temporary: the stripe is unlocked at the end of this statement.
    let insert = store.lock_shard(store.shard_of(succ.fp)).insert_edge(
        succ.fp,
        Some(parent),
        succ.label,
        succ.state,
        succ.perm,
    );
    let (Insert::Fresh(index, _) | Insert::Existing(index, _)) = &insert;
    let at = Arrival {
        index: *index,
        parent: Some(parent),
        fp: succ.fp,
        depth: level.child_depth,
    };
    // Both fresh and already-known targets contribute an arrival edge: a state reached
    // again within the same level only keeps a label asleep if every minimal-depth
    // arrival does.
    if shared.run.pipeline.por {
        result.sleep_edges.push((at.index, succ.sleep));
    }
    match insert {
        Insert::Fresh(_, state) => {
            if level.visitor.on_fresh(&mut result.local, at, &state) {
                result.next_frontier.push(store, at.index, state);
            }
        }
        Insert::Existing(..) => level.visitor.on_existing(&mut result.local, at),
    }
}

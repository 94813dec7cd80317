//! Instrumented synchronization substrate for the parallel engine.
//!
//! Every lock, condvar and atomic the checker uses goes through this module — it is
//! the **only** file in the workspace allowed to name `std::sync` primitives directly
//! (the `remix-analyze` concurrency lint enforces this; `// sync-exempt:` marks the
//! leaf exceptions in `remix-spec`, which sits below this crate).  Centralizing
//! the substrate buys three things:
//!
//! 1. **A declared lock hierarchy.**  [`OrderedMutex`]`<R>` / [`OrderedRwLock`]`<R>`
//!    carry a compile-time rank marker `R:`[`LockRank`].  The convention is
//!    *outermost-first*: a thread may acquire a lock of rank `r` only while every
//!    lock it already holds has rank strictly **greater** than `r`.  Written in the
//!    inner-to-outer direction the engine's hierarchy reads
//!    `pool < shard < coverage < por < results < frontier < spill
//!    < panic-slot < gate` — the store's intern pool is the innermost lock (acquired
//!    last, under the shard lock of a fresh insert, with everything else already
//!    held), the worker-pool gate the outermost (always acquired with nothing held).
//! 2. **A lock-order audit.**  Under `REMIX_SYNC_AUDIT=1` (or a programmatic
//!    [`audit::session`]) every acquisition records the per-thread held-lock stack
//!    and an acquisition edge `held-site → acquired-site` into a global lock-order
//!    graph.  Rank inversions are flagged immediately with the offending stack;
//!    cycles in the site graph are reported with the witness stacks of **both**
//!    directions ([`AuditReport::cycles`]).  `remix-analyze` turns the report into
//!    soundness findings.
//! 3. **Schedule perturbation.**  [`perturb::install`] arms a seeded PRNG that
//!    injects `yield_now`/short-sleep calls at every instrumented sync point
//!    ([`perturb_point`]), so the determinism oracle can shake out
//!    schedule-dependent results with a replayable seed.
//!
//! When neither the audit nor the fuzzer is armed, every instrumented operation
//! reduces to **one relaxed atomic load and a predictable branch** on top of the
//! raw `std::sync` operation.  Every `remix-bench` run measures this disarmed path:
//! the harness refuses to start with any `REMIX_*` variable set, so the audit gate
//! is always off there.
//!
//! Poisoning policy lives here too, in exactly one place: [`lock_or_recover`] (and
//! its RwLock siblings) treat a poisoned lock as recoverable, because every
//! engine-side critical section leaves shared state consistent at every await-free
//! point and worker panics are separately caught and re-raised by the pool (see
//! `kernel::pool_worker`).  All `Ordered*` acquisition methods route through it.

// The one sanctioned raw-sync import site (see the module docs above).
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Duration;

// Re-exported under their std names so engine files write `sync::AtomicU64` etc.;
// plain atomics carry no lock rank (they never block), but importing them through
// this module keeps the raw-sync lint rule simple and total.
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// A compile-time lock rank: the marker type parameter of [`OrderedMutex`] /
/// [`OrderedRwLock`].
///
/// Acquisition is legal only while every held lock has a **strictly greater** rank
/// (outer locks are taken first).  `NAME` is the default site label used in audit
/// edges and findings.
pub trait LockRank {
    /// Position in the hierarchy; smaller is more deeply nested (acquired later).
    const RANK: u8;
    /// Default site label for audit edges and findings.
    const NAME: &'static str;
}

macro_rules! declare_rank {
    ($(#[$doc:meta])* $name:ident, $rank:expr, $label:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        pub struct $name;
        impl LockRank for $name {
            const RANK: u8 = $rank;
            const NAME: &'static str = $label;
        }
    };
}

declare_rank!(
    /// Innermost: the store's component intern pool.  Taken once per *fresh* insert,
    /// under that insert's shard lock, for a few map probes, and once per state a Full
    /// store rebuilds from its row (every BFS parent), under that stripe's lock;
    /// acquires nothing nested.
    PoolRank, 0, "store.pool"
);
declare_rank!(
    /// One stripe of the discovered-state store.  Acquired once per successor insert
    /// and once per parent read back from its row, while the frontier read lock is
    /// held; nests only the intern pool (spill
    /// flushes inside the shard do file I/O and atomics only).
    ShardRank, 5, "store.shard"
);
declare_rank!(
    /// The action-coverage map stripe; leaf — its critical sections touch only the
    /// map behind it.
    CoverageRank, 10, "coverage.stripe"
);
declare_rank!(
    /// The POR footprint table (`label → effect`); read/written during frontier
    /// expansion while the frontier read locks are held.
    PorEffectsRank, 20, "por.footprints"
);
declare_rank!(
    /// One worker's per-level result slot; written by the worker after its frontier
    /// guards drop, read by the coordinator between cycles.
    ResultsRank, 50, "bfs.results"
);
declare_rank!(
    /// The published level (frontier, its index-aligned sleep sets, the visitor);
    /// read-held by workers for a whole cycle, written by the coordinator while
    /// workers are parked.
    FrontierRank, 70, "bfs.frontier"
);
declare_rank!(
    /// No engine lock takes this rank (the spill paths are atomics and
    /// thread-confined files); it serves only as the "outer" rank of the seeded
    /// rank-inversion regression.
    SpillRank, 80, "spill.queue"
);
declare_rank!(
    /// The pool's first-worker-panic slot; taken with nothing else held.
    PanicSlotRank, 90, "bfs.worker_panic"
);
declare_rank!(
    /// Outermost: the worker-pool gate (generation + remaining counters) that the
    /// pool condvars wait on.  Always acquired with an empty held-set.
    GateRank, 100, "bfs.gate"
);

/// The single poisoning policy: recover the guard from a poisoned mutex.
///
/// A poisoned lock means some thread panicked while holding it.  Engine critical
/// sections keep their shared structures consistent at every unwind edge, and the
/// worker pool separately catches, records and re-raises worker panics — so
/// continuing with the recovered guard is sound and keeps a single panic from
/// cascading into every other thread.  Every `Ordered*` acquisition routes through
/// this helper (or its RwLock siblings below); nothing else in the workspace may
/// match on `PoisonError`.
pub fn lock_or_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_or_recover`] for `RwLock` read guards — same policy, same rationale.
pub fn read_or_recover<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_or_recover`] for `RwLock` write guards — same policy, same rationale.
pub fn write_or_recover<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Audit gate: one relaxed load on the hot path, lazily initialized from the
// REMIX_SYNC_AUDIT environment variable, forced on while a session is live.
// ---------------------------------------------------------------------------

/// The workspace's one environment hook.  It only instruments locks and never changes
/// a result, so it is the one run-wide switch that may live outside the option structs.
const AUDIT_VAR: &str = "REMIX_SYNC_AUDIT";

/// Parses [`AUDIT_VAR`]: `1` / `true` / `on`, `0` / `false` / `off`, or unset (off).
/// Anything else is an error naming the variable, the value and the accepted list — a
/// mistyped value must not silently leave the audit off.
fn parse_audit_var(raw: Option<&str>) -> Result<bool, String> {
    match raw {
        None | Some("0" | "false" | "off") => Ok(false),
        Some("1" | "true" | "on") => Ok(true),
        Some(other) => Err(format!(
            "{AUDIT_VAR}={other:?} is not an accepted value \
             (accepted: 1, true, on, 0, false, off, or unset)"
        )),
    }
}

const GATE_OFF: u8 = 0;
const GATE_ON: u8 = 1;
const GATE_UNINIT: u8 = 2;

static AUDIT_GATE: AtomicU8 = AtomicU8::new(GATE_UNINIT);
static AUDIT_SESSIONS: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn audit_on() -> bool {
    // ordering: Relaxed — the gate is a monotonic hint; acquisitions that race a
    // session toggle may miss (or spuriously take) the slow path, which only
    // affects what the audit observes, never engine correctness.
    match AUDIT_GATE.load(Ordering::Relaxed) {
        GATE_OFF => false,
        GATE_ON => true,
        _ => init_gate(),
    }
}

#[cold]
fn init_gate() -> bool {
    let raw = std::env::var_os(AUDIT_VAR).map(|v| v.to_string_lossy().into_owned());
    let env = parse_audit_var(raw.as_deref()).unwrap_or_else(|message| panic!("{message}"));
    // ordering: Relaxed — see audit_on; recompute_gate below re-derives the value
    // whenever sessions begin or end, so a racy double-init is idempotent.
    let on = env || AUDIT_SESSIONS.load(Ordering::Relaxed) > 0;
    AUDIT_GATE.store(
        if on { GATE_ON } else { GATE_OFF },
        Ordering::Relaxed, // ordering: Relaxed — hint only, see audit_on.
    );
    on
}

fn recompute_gate() {
    AUDIT_GATE.store(GATE_UNINIT, Ordering::Relaxed); // ordering: Relaxed — hint only.
    init_gate();
}

// ---------------------------------------------------------------------------
// Audit state: per-thread held-lock stacks plus the global lock-order graph.
// ---------------------------------------------------------------------------

thread_local! {
    /// The thread's held locks, innermost (most recently acquired) last.  Entries
    /// carry the stack snapshot active when they were acquired so a later rank
    /// violation can show *both* acquisition contexts.
    static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
}

#[derive(Clone)]
struct HeldLock {
    rank: u8,
    site: &'static str,
    /// Site names (outer→inner) held when this lock was acquired, itself included.
    stack: Vec<&'static str>,
}

/// One observed acquisition-order edge: `from` was held while `to` was acquired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderEdge {
    /// Site name of the already-held lock.
    pub from: String,
    /// Site name of the lock being acquired.
    pub to: String,
    /// Rank of the held lock.
    pub from_rank: u8,
    /// Rank of the acquired lock.
    pub to_rank: u8,
    /// Witness of the first observation of this edge.
    pub witness: LockWitness,
}

/// The context of one audited acquisition: which thread, holding which stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockWitness {
    /// Debug id (and name, when set) of the acquiring thread.
    pub thread: String,
    /// Held-lock site names outer→inner at the acquisition, the acquired site last.
    pub stack: Vec<String>,
}

/// A rank-order violation: a lock was acquired while a lock of equal or inner
/// (smaller-or-equal) rank was already held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankViolation {
    /// Site of the held lock that makes the acquisition illegal.
    pub held_site: String,
    /// Rank of the held lock.
    pub held_rank: u8,
    /// Stack snapshot from when the held lock itself was acquired.
    pub held_stack: Vec<String>,
    /// Site of the lock being acquired.
    pub acquired_site: String,
    /// Rank of the lock being acquired.
    pub acquired_rank: u8,
    /// The offending acquisition's context (thread + full held stack).
    pub witness: LockWitness,
}

/// A cycle in the lock-order graph, with one witness stack per edge — for the
/// canonical two-lock inversion that is exactly "both witness stacks".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderCycle {
    /// The sites along the cycle (first repeated implicitly).
    pub sites: Vec<String>,
    /// The witnesses of each edge `sites[i] → sites[(i+1) % len]`.
    pub witnesses: Vec<LockWitness>,
}

#[derive(Default)]
struct AuditCore {
    edges: BTreeMap<(&'static str, &'static str), (u8, u8, LockWitness)>,
    violations: Vec<RankViolation>,
    locks_seen: BTreeSet<&'static str>,
    acquisitions: u64,
}

static AUDIT_CORE: Mutex<AuditCore> = Mutex::new(AuditCore {
    edges: BTreeMap::new(),
    violations: Vec::new(),
    locks_seen: BTreeSet::new(),
    acquisitions: 0,
});

fn thread_label() -> String {
    let t = std::thread::current();
    match t.name() {
        Some(name) => format!("{name} ({:?})", t.id()),
        None => format!("{:?}", t.id()),
    }
}

/// Records one successful acquisition; returns `true` when it was audited (so the
/// guard knows to pop on release).
fn on_acquired(rank: u8, site: &'static str) -> bool {
    if !audit_on() {
        return false;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        let stack_now: Vec<&'static str> = held
            .iter()
            .map(|h| h.site)
            .chain(std::iter::once(site))
            .collect();
        {
            let mut core = lock_or_recover(&AUDIT_CORE);
            core.acquisitions += 1;
            core.locks_seen.insert(site);
            let witness = LockWitness {
                thread: thread_label(),
                stack: stack_now.iter().map(|s| s.to_string()).collect(),
            };
            for h in held.iter() {
                core.edges
                    .entry((h.site, site))
                    .or_insert_with(|| (h.rank, rank, witness.clone()));
            }
            // One violation per offending (held, acquired) pair: the innermost
            // held lock with rank <= the acquired rank is the decisive witness.
            if let Some(bad) = held.iter().rev().find(|h| h.rank <= rank) {
                let duplicate = core
                    .violations
                    .iter()
                    .any(|v| v.held_site == bad.site && v.acquired_site == site);
                if !duplicate {
                    let v = RankViolation {
                        held_site: bad.site.to_string(),
                        held_rank: bad.rank,
                        held_stack: bad.stack.iter().map(|s| s.to_string()).collect(),
                        acquired_site: site.to_string(),
                        acquired_rank: rank,
                        witness,
                    };
                    core.violations.push(v);
                }
            }
        }
        held.push(HeldLock {
            rank,
            site,
            stack: stack_now,
        });
    });
    true
}

/// Pops the matching held-lock entry (releases may legally be non-LIFO, so the
/// scan runs from the innermost end).
fn on_released(site: &'static str) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|h| h.site == site) {
            held.remove(pos);
        }
    });
}

/// Programmatic audit control and the audit report.
pub mod audit {
    use super::*;

    static SESSION_LOCK: Mutex<()> = Mutex::new(());

    /// An exclusive audit window: clears the global lock-order graph, enables the
    /// audit for the process, and hands the (serialized) caller a handle to read
    /// the report back out.  Concurrent sessions queue on an internal mutex, so
    /// audited tests can run under the default parallel test harness without
    /// observing each other's edges — as long as the *engine runs under audit*
    /// happen within a session.
    pub fn session() -> AuditSession {
        let guard = lock_or_recover(&SESSION_LOCK);
        *lock_or_recover(&AUDIT_CORE) = AuditCore::default();
        // ordering: Relaxed — the session mutex above already orders sessions;
        // the counter only feeds the advisory audit gate.
        AUDIT_SESSIONS.fetch_add(1, Ordering::Relaxed);
        recompute_gate();
        AuditSession { _serial: guard }
    }

    /// RAII handle of an audit [`session`]; dropping it disables the audit (unless
    /// `REMIX_SYNC_AUDIT` keeps it on) and releases the session slot.
    pub struct AuditSession {
        _serial: MutexGuard<'static, ()>,
    }

    impl AuditSession {
        /// Snapshots the lock-order graph accumulated since the session began.
        pub fn report(&self) -> AuditReport {
            let core = lock_or_recover(&AUDIT_CORE);
            AuditReport {
                acquisitions: core.acquisitions,
                locks_seen: core.locks_seen.iter().map(|s| s.to_string()).collect(),
                edges: core
                    .edges
                    .iter()
                    .map(
                        |(&(from, to), &(from_rank, to_rank, ref witness))| OrderEdge {
                            from: from.to_string(),
                            to: to.to_string(),
                            from_rank,
                            to_rank,
                            witness: witness.clone(),
                        },
                    )
                    .collect(),
                rank_violations: core.violations.clone(),
            }
        }
    }

    impl Drop for AuditSession {
        fn drop(&mut self) {
            // ordering: Relaxed — paired with the fetch_add in session; the
            // session mutex provides the actual ordering.
            AUDIT_SESSIONS.fetch_sub(1, Ordering::Relaxed);
            recompute_gate();
        }
    }
}

/// Everything one audit window observed: the acquisition census, the lock-order
/// graph, rank violations, and (derived) cycles.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Total audited acquisitions in the window.
    pub acquisitions: u64,
    /// Every distinct lock site observed.
    pub locks_seen: Vec<String>,
    /// The acquisition-order edges (held → acquired), first witness each.
    pub edges: Vec<OrderEdge>,
    /// Rank-order violations, at most one per (held, acquired) site pair.
    pub rank_violations: Vec<RankViolation>,
}

impl AuditReport {
    /// `true` when the window saw no rank violations and no order cycles.
    pub fn is_clean(&self) -> bool {
        self.rank_violations.is_empty() && self.cycles().is_empty()
    }

    /// Cycles in the site-level lock-order graph, each with the witness stack of
    /// every edge along it.  Cycles are deduplicated by their site *set*, so the
    /// two directions of a two-lock inversion report as one cycle carrying both
    /// witness stacks.
    pub fn cycles(&self) -> Vec<OrderCycle> {
        let mut adjacency: BTreeMap<&str, Vec<&OrderEdge>> = BTreeMap::new();
        for edge in &self.edges {
            adjacency.entry(edge.from.as_str()).or_default().push(edge);
        }
        let mut seen_keys: BTreeSet<Vec<String>> = BTreeSet::new();
        let mut cycles = Vec::new();
        // For each edge a→b, a path b→…→a closes a cycle.  The graphs here are a
        // handful of sites, so a per-edge DFS is plenty.
        for edge in &self.edges {
            if let Some(path) = self.path(&adjacency, &edge.to, &edge.from) {
                let mut sites: Vec<String> = vec![edge.from.clone()];
                let mut witnesses: Vec<LockWitness> = vec![edge.witness.clone()];
                for e in &path {
                    sites.push(e.from.clone());
                    witnesses.push(e.witness.clone());
                }
                // Rotate so the path-edge list aligns: sites[i] → sites[i+1] is
                // witnessed by witnesses[i]; the final edge closes back to sites[0].
                let mut key: Vec<String> = sites.clone();
                key.sort();
                if seen_keys.insert(key) {
                    cycles.push(OrderCycle { sites, witnesses });
                }
            }
        }
        cycles
    }

    fn path<'a>(
        &'a self,
        adjacency: &BTreeMap<&str, Vec<&'a OrderEdge>>,
        from: &str,
        to: &str,
    ) -> Option<Vec<&'a OrderEdge>> {
        // Iterative DFS returning the edge path from → … → to (inclusive).
        let mut stack: Vec<(&str, Vec<&'a OrderEdge>)> = vec![(from, Vec::new())];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            if node == to {
                return Some(path);
            }
            if !visited.insert(node) {
                continue;
            }
            for edge in adjacency.get(node).into_iter().flatten() {
                let mut next = path.clone();
                next.push(edge);
                stack.push((edge.to.as_str(), next));
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Schedule perturbation: a seeded PRNG injecting yields/sleeps at sync points.
// ---------------------------------------------------------------------------

/// Seeded schedule perturbation for the determinism oracle.
pub mod perturb {
    use super::*;

    static SEED: AtomicU64 = AtomicU64::new(0);
    static EPOCH: AtomicU64 = AtomicU64::new(0);
    static THREAD_SALT: AtomicU64 = AtomicU64::new(0);
    static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    thread_local! {
        /// (epoch, splitmix64 state); reseeded when the installed epoch moves.
        static RNG: RefCell<(u64, u64)> = const { RefCell::new((0, 0)) };
        static SALT: RefCell<Option<u64>> = const { RefCell::new(None) };
    }

    /// Arms schedule perturbation with `seed` for the lifetime of the returned
    /// guard.  Guards serialize on an internal mutex so overlapping fuzz runs
    /// cannot smear each other's seeds; a zero seed is treated as 1 (zero means
    /// "off" internally).
    pub fn install(seed: u64) -> PerturbGuard {
        let guard = lock_or_recover(&INSTALL_LOCK);
        // ordering: Relaxed — perturbation is timing-only; threads may observe the
        // new seed a beat late without affecting any engine result.
        EPOCH.fetch_add(1, Ordering::Relaxed);
        SEED.store(seed.max(1), Ordering::Relaxed); // ordering: Relaxed — as above.
        PerturbGuard { _serial: guard }
    }

    /// RAII handle of [`install`]; dropping it disarms perturbation.
    pub struct PerturbGuard {
        _serial: MutexGuard<'static, ()>,
    }

    impl Drop for PerturbGuard {
        fn drop(&mut self) {
            SEED.store(0, Ordering::Relaxed); // ordering: Relaxed — timing-only.
            EPOCH.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — timing-only.
        }
    }

    #[inline]
    pub(super) fn armed() -> bool {
        // ordering: Relaxed — a stale read only delays/extends perturbation.
        SEED.load(Ordering::Relaxed) != 0
    }

    #[cold]
    pub(super) fn hit() {
        let seed = SEED.load(Ordering::Relaxed); // ordering: Relaxed — timing-only.
        if seed == 0 {
            return;
        }
        let epoch = EPOCH.load(Ordering::Relaxed); // ordering: Relaxed — timing-only.
        let salt = SALT.with(|s| {
            *s.borrow_mut().get_or_insert_with(|| {
                // ordering: Relaxed — the counter only needs uniqueness, which the
                // atomic RMW guarantees regardless of ordering.
                THREAD_SALT.fetch_add(1, Ordering::Relaxed)
            })
        });
        let draw = RNG.with(|rng| {
            let mut rng = rng.borrow_mut();
            if rng.0 != epoch {
                *rng = (epoch, splitmix64_seed(seed, salt));
            }
            let (next, draw) = splitmix64(rng.1);
            rng.1 = next;
            draw
        });
        // Mostly cheap yields, occasionally a real (short) sleep: enough to move
        // park/steal/merge interleavings around without stalling the suite.
        match draw % 64 {
            0 => std::thread::sleep(Duration::from_micros(200)),
            1..=31 => std::thread::yield_now(),
            _ => {}
        }
    }

    fn splitmix64_seed(seed: u64, salt: u64) -> u64 {
        seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn splitmix64(state: u64) -> (u64, u64) {
        let next = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = next;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (next, z ^ (z >> 31))
    }
}

/// A schedule-perturbation point: when a fuzz seed is installed, maybe yield or
/// sleep here.  Every instrumented lock/condvar operation calls this; engine code
/// may add explicit points at logically interesting races (e.g. stop-flag
/// publication).  One relaxed load when disarmed.
#[inline]
pub fn perturb_point() {
    if perturb::armed() {
        perturb::hit();
    }
}

// ---------------------------------------------------------------------------
// The ordered primitives.
// ---------------------------------------------------------------------------

/// A [`Mutex`] with a declared [`LockRank`] and audited acquisitions.
///
/// `lock` recovers from poisoning via [`lock_or_recover`]; `lock_counting`
/// reproduces the store's contention-counting pattern (try first, count a miss,
/// then block) under the same audit.
pub struct OrderedMutex<R: LockRank, T> {
    site: &'static str,
    inner: Mutex<T>,
    _rank: PhantomData<R>,
}

impl<R: LockRank, T> OrderedMutex<R, T> {
    /// A new mutex labelled with the rank's default site name.
    pub fn new(value: T) -> Self {
        Self::with_site(R::NAME, value)
    }

    /// A new mutex with an explicit audit site label (e.g. seeded fixtures).
    pub fn with_site(site: &'static str, value: T) -> Self {
        OrderedMutex {
            site,
            inner: Mutex::new(value),
            _rank: PhantomData,
        }
    }

    /// Acquires the lock (poison-recovering), recording the acquisition when the
    /// audit is armed.
    pub fn lock(&self) -> OrderedMutexGuard<'_, R, T> {
        perturb_point();
        let guard = lock_or_recover(&self.inner);
        self.wrap(guard)
    }

    /// The contention-counting acquisition: try first; on `WouldBlock` bump
    /// `contended` (observability only) and block.  Used by the store shards and
    /// the coverage stripes so `CheckStats::shard_contention` keeps its meaning.
    pub fn lock_counting(&self, contended: &AtomicU64) -> OrderedMutexGuard<'_, R, T> {
        perturb_point();
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                // ordering: Relaxed — a statistics counter; nothing reads it for
                // control flow, and the final report reads it after joins.
                contended.fetch_add(1, Ordering::Relaxed);
                lock_or_recover(&self.inner)
            }
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        };
        self.wrap(guard)
    }

    fn wrap<'a>(&'a self, guard: MutexGuard<'a, T>) -> OrderedMutexGuard<'a, R, T> {
        let audited = on_acquired(R::RANK, self.site);
        OrderedMutexGuard {
            guard: Some(guard),
            site: self.site,
            audited,
            _rank: PhantomData,
        }
    }
}

impl<R: LockRank, T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<R, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("site", &self.site)
            .field("rank", &R::RANK)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard of an [`OrderedMutex`]; pops the audit held-stack on drop.
pub struct OrderedMutexGuard<'a, R: LockRank, T> {
    guard: Option<MutexGuard<'a, T>>,
    site: &'static str,
    audited: bool,
    _rank: PhantomData<R>,
}

impl<R: LockRank, T> Deref for OrderedMutexGuard<'_, R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<R: LockRank, T> DerefMut for OrderedMutexGuard<'_, R, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

impl<R: LockRank, T> Drop for OrderedMutexGuard<'_, R, T> {
    fn drop(&mut self) {
        if self.guard.is_some() {
            if self.audited {
                on_released(self.site);
            }
            perturb_point();
        }
    }
}

/// A [`Condvar`] paired with [`OrderedMutex`] guards: waiting releases the guard's
/// audit entry and re-records it on wake, so held-stack bookkeeping stays exact
/// across parks.
pub struct OrderedCondvar {
    inner: Condvar,
}

impl Default for OrderedCondvar {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedCondvar {
    /// A new condition variable.
    pub fn new() -> Self {
        OrderedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Blocks until notified, releasing and re-acquiring the ordered guard.
    pub fn wait<'a, R: LockRank, T>(
        &self,
        mut guard: OrderedMutexGuard<'a, R, T>,
    ) -> OrderedMutexGuard<'a, R, T> {
        let site = guard.site;
        if guard.audited {
            on_released(site);
        }
        let inner = guard.guard.take().expect("wait on a live guard");
        perturb_point();
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(inner);
        guard.audited = on_acquired(R::RANK, site);
        guard
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        perturb_point();
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        perturb_point();
        self.inner.notify_all();
    }
}

impl std::fmt::Debug for OrderedCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OrderedCondvar")
    }
}

/// An [`RwLock`] with a declared [`LockRank`] and audited acquisitions (reads and
/// writes both count: read-side deadlocks through a writer in between are real).
pub struct OrderedRwLock<R: LockRank, T> {
    site: &'static str,
    inner: RwLock<T>,
    _rank: PhantomData<R>,
}

impl<R: LockRank, T> OrderedRwLock<R, T> {
    /// A new rwlock labelled with the rank's default site name.
    pub fn new(value: T) -> Self {
        Self::with_site(R::NAME, value)
    }

    /// A new rwlock with an explicit audit site label.
    pub fn with_site(site: &'static str, value: T) -> Self {
        OrderedRwLock {
            site,
            inner: RwLock::new(value),
            _rank: PhantomData,
        }
    }

    /// Acquires a shared read guard (poison-recovering, audited).
    pub fn read(&self) -> OrderedReadGuard<'_, R, T> {
        perturb_point();
        let guard = read_or_recover(&self.inner);
        let audited = on_acquired(R::RANK, self.site);
        OrderedReadGuard {
            guard,
            site: self.site,
            audited,
            _rank: PhantomData,
        }
    }

    /// Consumes the lock and returns the protected value (poison-recovering; ownership
    /// proves exclusivity, so nothing is acquired or audited).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the exclusive write guard (poison-recovering, audited).
    pub fn write(&self) -> OrderedWriteGuard<'_, R, T> {
        perturb_point();
        let guard = write_or_recover(&self.inner);
        let audited = on_acquired(R::RANK, self.site);
        OrderedWriteGuard {
            guard,
            site: self.site,
            audited,
            _rank: PhantomData,
        }
    }
}

impl<R: LockRank, T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<R, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("site", &self.site)
            .field("rank", &R::RANK)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Read guard of an [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, R: LockRank, T> {
    guard: RwLockReadGuard<'a, T>,
    site: &'static str,
    audited: bool,
    _rank: PhantomData<R>,
}

impl<R: LockRank, T> Deref for OrderedReadGuard<'_, R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<R: LockRank, T> Drop for OrderedReadGuard<'_, R, T> {
    fn drop(&mut self) {
        if self.audited {
            on_released(self.site);
        }
        perturb_point();
    }
}

/// Write guard of an [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, R: LockRank, T> {
    guard: RwLockWriteGuard<'a, T>,
    site: &'static str,
    audited: bool,
    _rank: PhantomData<R>,
}

impl<R: LockRank, T> Deref for OrderedWriteGuard<'_, R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<R: LockRank, T> DerefMut for OrderedWriteGuard<'_, R, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<R: LockRank, T> Drop for OrderedWriteGuard<'_, R, T> {
    fn drop(&mut self) {
        if self.audited {
            on_released(self.site);
        }
        perturb_point();
    }
}

// ---------------------------------------------------------------------------
// The seeded rank-inversion regression.
// ---------------------------------------------------------------------------

/// The CI seeded regression: two threads acquire a `SpillRank`/`ShardRank` lock
/// pair in opposite orders inside one audit session and return the report, which
/// must contain the rank violation *and* the two-site cycle with both witness
/// stacks.  `remix-bench`'s concurrency artefact writes these findings with
/// `"seeded": true` and fails unless they are there.
pub fn seeded_rank_inversion() -> AuditReport {
    let session = audit::session();
    let outer: OrderedMutex<SpillRank, u32> = OrderedMutex::with_site("seeded.outer", 0);
    let inner: OrderedMutex<ShardRank, u32> = OrderedMutex::with_site("seeded.inner", 0);
    std::thread::scope(|scope| {
        // Thread one respects the hierarchy: outer (rank 80) before inner (rank 5).
        scope
            .spawn(|| {
                let _o = outer.lock();
                let _i = inner.lock();
            })
            .join()
            .expect("ordered thread");
        // Thread two inverts it: inner held while acquiring outer — the violation.
        scope
            .spawn(|| {
                let _i = inner.lock();
                let _o = outer.lock();
            })
            .join()
            .expect("inverted thread");
    });
    session.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_var_accepts_exactly_its_spellings() {
        assert_eq!(parse_audit_var(None), Ok(false));
        for on in ["1", "true", "on"] {
            assert_eq!(parse_audit_var(Some(on)), Ok(true));
        }
        for off in ["0", "false", "off"] {
            assert_eq!(parse_audit_var(Some(off)), Ok(false));
        }
        // Case, padding and near misses count: each would otherwise run unaudited.
        for typo in ["", "yes", "On", " 1", "owner"] {
            let err = parse_audit_var(Some(typo)).unwrap_err();
            assert!(err.contains(&format!("REMIX_SYNC_AUDIT={typo:?}")), "{err}");
            assert!(err.contains("1, true, on, 0, false, off"), "{err}");
        }
    }

    #[test]
    fn guards_balance_the_held_stack() {
        // Whether or not a concurrent test's audit session has the gate on, every
        // drop pops exactly what its acquisition pushed: the thread-local held
        // stack is empty once the guards are gone.
        let m: OrderedMutex<ShardRank, i32> = OrderedMutex::new(7);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 8);
        HELD.with(|h| assert!(h.borrow().is_empty()));
    }

    #[test]
    fn ordered_acquisitions_audit_clean() {
        let session = audit::session();
        let gate: OrderedMutex<GateRank, ()> = OrderedMutex::new(());
        let frontier: OrderedRwLock<FrontierRank, Vec<u8>> = OrderedRwLock::new(vec![1]);
        let shard: OrderedMutex<ShardRank, ()> = OrderedMutex::new(());
        {
            let _g = gate.lock();
        }
        {
            let _f = frontier.read();
            let _s = shard.lock();
        }
        let report = session.report();
        // Other tests in this binary may interleave rank-correct acquisitions into
        // the session, so the assertions are existential, not exact-count.
        assert!(report.is_clean(), "rank-respecting orders must audit clean");
        assert!(report.acquisitions >= 3);
        assert!(report
            .edges
            .iter()
            .any(|e| e.from == "bfs.frontier" && e.to == "store.shard"));
    }

    #[test]
    fn rank_inversion_is_flagged_with_both_stacks() {
        let report = seeded_rank_inversion();
        assert_eq!(report.rank_violations.len(), 1);
        let v = &report.rank_violations[0];
        assert_eq!(v.held_site, "seeded.inner");
        assert_eq!(v.acquired_site, "seeded.outer");
        assert_eq!(
            v.witness.stack,
            vec!["seeded.inner".to_string(), "seeded.outer".to_string()]
        );
        let cycles = report.cycles();
        assert_eq!(cycles.len(), 1, "the two-site inversion closes one cycle");
        assert_eq!(cycles[0].witnesses.len(), 2, "both directions witnessed");
        assert!(!report.is_clean());
    }

    #[test]
    fn condvar_wait_keeps_held_stack_exact() {
        let session = audit::session();
        let gate: std::sync::Arc<OrderedMutex<GateRank, bool>> =
            std::sync::Arc::new(OrderedMutex::new(false));
        let cv: std::sync::Arc<OrderedCondvar> = std::sync::Arc::new(OrderedCondvar::new());
        let waiter = {
            let gate = std::sync::Arc::clone(&gate);
            let cv = std::sync::Arc::clone(&cv);
            std::thread::spawn(move || {
                let mut g = gate.lock();
                while !*g {
                    g = cv.wait(g);
                }
                HELD.with(|h| h.borrow().len())
            })
        };
        loop {
            let mut g = gate.lock();
            *g = true;
            cv.notify_all();
            drop(g);
            if waiter.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(waiter.join().expect("waiter"), 1, "exactly the gate held");
        assert!(session.report().is_clean());
    }

    #[test]
    fn perturbation_is_seed_deterministic_per_thread() {
        // Two installs of the same seed step the same thread-local stream; the
        // test only asserts it runs and disarms — timing effects are the point,
        // determinism of *results* is the oracle's job.
        {
            let _g = perturb::install(42);
            for _ in 0..256 {
                perturb_point();
            }
        }
        assert!(!perturb::armed());
    }

    #[test]
    fn counting_lock_counts_contention_not_correctness() {
        let m: std::sync::Arc<OrderedMutex<CoverageRank, u64>> =
            std::sync::Arc::new(OrderedMutex::new(0));
        let contended = std::sync::Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                let c = std::sync::Arc::clone(&contended);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        *m.lock_counting(&c) += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        assert_eq!(*m.lock(), 2000);
    }
}

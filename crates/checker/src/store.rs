//! The discovered-state store: the memory layer under every exploration engine.
//!
//! Earlier engines kept one `HashMap<Fingerprint, Entry>` per run whose entries held an
//! `Arc<S>` clone of the state, the *parent's fingerprint* (16 bytes, plus a second map
//! lookup per trace step) and a freshly allocated `String` action label — three heap
//! allocations and ~70 bytes of bookkeeping per discovered state before counting the
//! state itself.  This module replaces that layer with a [`StateStore`]: a lock-striped
//! **arena** of entries addressed by dense `u32` [`StateIndex`]es, with
//!
//! * the parent stored as an *index* instead of a fingerprint (4 bytes; parent-chain
//!   walks are array reads, not hash lookups),
//! * the action label stored as an interned [`LabelId`] (4 bytes; the label string is
//!   allocated once per *distinct* label per run, see [`remix_spec::LabelTable`]), and
//! * the state stored as a **row of words** in 16-bit units — the pool slots of its
//!   components and its scalars, see "Rows" below — or, in
//!   [`StoreMode::FingerprintOnly`], not at all.
//!
//! # Backends
//!
//! [`StoreMode::Full`] (the compact full-state store) keeps every discovered state in
//! the arena, so counterexample traces are reconstructed by walking parent indices and
//! rebuilding each state from its row — O(depth) with no successor re-evaluation.
//!
//! [`StoreMode::FingerprintOnly`] is the TLC-style memory-bounded backend: only the
//! 128-bit fingerprint (in the dedup tier), parent index and label id are kept (28
//! bytes of payload per state, independent of the state type, of which the 8-byte
//! `(parent, label)` record stays resident when the fingerprints spill).  Traces are
//! reconstructed on demand by **bounded re-exploration**: the recorded `(parent index,
//! label)` chain is replayed forward through [`Spec::offer`], matching each step by
//! label and by looking the successor up in the store, which must name the recorded
//! entry — O(depth × branching) label renderings and one build per matching label,
//! paid only when a violation is actually reported.  This is the backend for exhaustive runs whose state count, not
//! state size, is the binding constraint.
//!
//! The per-entry record is the 8-byte `(parent, label)` pair in both backends.  What
//! identifies the state differs.  A fingerprint-only entry is its fingerprint, kept
//! once, as the key of its dedup entry (a stripe's map or a spilled run).  A Full entry
//! is its row, and its dedup entry is one 5-byte bucket of the stripe's row index (a
//! `u32` slot and a tag byte) that names the row; no fingerprint is kept per state.
//!
//! Both backends are safe for concurrent insertion from many workers: the arena is
//! striped into power-of-two lock shards, routed in a Full store by the hash of the
//! state's row and in a fingerprint-only one by the fingerprint's leading bits.  A
//! [`StateIndex`] packs `(local slot, shard)`, so indices stay valid forever without
//! any cross-shard coordination.
//!
//! # Keys
//!
//! [`StoreMode::FingerprintOnly`] dedups on a 128-bit [`Fingerprint`]: the caller
//! hands [`ShardHandle::insert`] one and locks the stripe its leading bits route to.
//! Two states with one key are one state to it, a 2^-128 chance per pair it accepts
//! for keeping nothing else.  The engines hand it [`state_key`] — a hash over the
//! state's memoized component digests (see [`mod@crate::fingerprint`]) — and
//! [`StateStore::index_of`] recomputes the same function to find the stripe, so a
//! fingerprint-only store whose states are to be looked up again (trace replay) must be
//! filled with `state_key`s.  (For a state type without shared components the two
//! functions coincide.)
//!
//! [`StoreMode::Full`] dedups on the state's row — its components hash-consed and
//! equality-checked by the pool, its scalars written out — so its dedup is exact and
//! needs no key: the row's own hash picks its stripe, [`ShardHandle::insert`] ignores
//! the fingerprint it is handed, and the engines compute none for it (the crate's
//! `StateStore::insert`).  At the paper's scale four edges in five are dedup hits, so a
//! hit costs its enumeration, one intern and one row probe.  The stripe's row index
//! finds the row by the same hash and confirms a tag match by comparing the stored row
//! word for word.  Under a
//! memory budget a Full stripe spills its rows' 128-bit [`PairHasher`] digests, read
//! out of the arena, and probes the runs with the digest of the row being inserted: the
//! in-RAM tier stays exact, and the spilled one is as exact as the fingerprint-only
//! store.
//!
//! # The intern pool
//!
//! A state space is assembled from few distinct components (221,490 states of the
//! fine three-server model from 2,510 servers, channel rows and ghost states), so the
//! store owns one [`InternPool`] per run and calls [`SpecState::intern`] before it
//! hands back the state: each component the discovering action wrote is replaced by
//! the pool's allocation of the same value (found by a cheap table hash and
//! equality-checked, so no hash collision ever merges two values), and the duplicate
//! is freed while still hot.  A Full store
//! does so on **every insert**, before the dedup probe, because the row it writes is
//! what the probe compares; a duplicate's components are all pooled already, so this
//! never grows the pool.  A fingerprint-only store does so on the **fresh-insert path
//! only**.  The frontier and every later successor then share one allocation per
//! distinct component value, and dropping the store frees 2.5 k components and a few
//! hundred chunks, not one heap block per state.
//! The pool is spec-agnostic (per type, an index of slots by value; slot →
//! type-erased `Arc`), lives
//! exactly as long as the store — it is dropped with it, inside what
//! `CheckStats::teardown` clocks — and is **resident and unbudgeted**:
//! [`StoreMode::FingerprintOnly`] and the spill tier bound what the store keeps per
//! *state*, not the pool.  The pool is not small: a component costs ≈ 380–430 B, of
//! which ≈ 70 B is bookkeeping — a 5-byte bucket in its type's index (at most 7/8 of
//! the buckets held) and a 16-byte `Arc<dyn Pooled>` slot (both sized to the next power
//! of two), and 48 B of `Arc` header and inner value wrapper — and the value itself is
//! pooled exactly sized, without the spare capacity its writes left.  Measured with a
//! counting allocator at the store's drop, before the index replaced 24-byte digest
//! buckets, that was 0.95 MB for the 2,510 components of the space above, and 3.78 MB
//! for the 8,796 of `remix-bench`'s `bug-hunt` ZK-4394 run: digest tables 423 KB (the
//! index takes a fifth of that), slots 262 KB (a 16,384-entry vector) and values
//! 3.10 MB — still more heap than that store's rows (2.9 MB), records (1.4 MB) and row
//! index (1.3 MB) hold apiece.  Pool slots and allocation addresses are per-run and
//! never reach a key, a trace or a statistic.
//!
//! # Rows
//!
//! Every pooled allocation has a dense `u32` slot, and a row of slots is the **only**
//! thing [`StoreMode::Full`] keeps per state — SPIN's COLLAPSE compression, flat (one
//! level of ids).  [`SpecState::intern`] writes the row while it interns (for the
//! three-server `ZabState` eight words: three server slots, three channel-row slots,
//! the ghost slot, and one word for the budgets, inline or the slot of a pooled copy of
//! the rarer scalars); [`SpecState::from_row`] is its inverse, `2n + 1` reference-count
//! bumps.  A state type that overrides neither is pooled whole and its row is the one
//! slot, so there is one arena layout for every state type.  Nothing is cloned at
//! insert: the moved-in state goes back to the caller, and the readers
//! ([`StateStore::state_at`]: the BFS kernel's parent of every expansion, trace
//! reconstruction, refinement's witnesses) decode the row into the stripe's scratch
//! row and rebuild from it under the stripe's lock and then the pool's (see "Locks").
//!
//! A row's words are `u32`s, but a run's pool holds a few thousand slots, so a stripe
//! keeps its rows in 16-bit units: one unit per word while every word the stripe has
//! stored fits in one, two (low unit first) from the first row with a wider word on,
//! which re-encodes the stripe's rows once, in place, under its lock.  The record
//! width against the store's row width says which encoding a stripe uses.  Rows are
//! compared, hashed and digested as their `u32` words, so the dedup index, the
//! spilled runs, slot assignment and visit order are the same at either width.
//!
//! A stripe's rows, metadata and permutations live in fixed-size chunks that are never
//! reallocated (the private `ChunkVec`): a doubling `Vec` copies the whole stripe at
//! each growth step and hands the allocator back a half-size buffer it cannot return
//! to the system, which on the 221,490-state space above was 8 MiB of a 48 MiB peak.
//! The row width in words is fixed by the first stored state and asserted for every
//! later one.
//!
//! # Locks
//!
//! Two kinds of lock live here: the stripes and the intern pool.  **The pool is a
//! leaf:** no code locks anything while it holds the pool, so however the pool is
//! taken it cannot close a cycle.  **Stripes never nest:** each `StateStore` method
//! locks at most one stripe and releases it before it returns.  Those two rules leave
//! one nesting, a stripe and then the pool, and no order in which a wait can go round.
//!
//! * A [`StoreMode::Full`] insert (and [`StateStore::index_of`]) interns the state and
//!   writes its row under the pool alone, into a per-thread scratch row, releases the
//!   pool, and only then locks the stripe the row's hash routes to, for the probe and
//!   the append.  So the pool serializes the intern only, and two workers probe and
//!   append rows in different stripes at once.
//! * A [`StoreMode::FingerprintOnly`] insert locks the stripe its `state_key` routes
//!   to (through [`StateStore::lock_shard`]; the kernel holds that [`ShardHandle`] for
//!   one insert) and, for a fresh state only, takes the pool under it.
//! * [`StateStore::state_at`] and a test-only walk over the stored states decode a row
//!   under its stripe and rebuild the state under the pool, taken under the stripe.
//!   [`StateStore::interned_components`] takes the pool alone.
//!
//! Code that holds two stripes at once, locks a stripe while it holds a handle, or
//! locks a stripe while it holds the pool, would break the order.

use std::cell::Cell;
use std::collections::hash_map::{Entry, VacantEntry};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hasher;
use std::marker::PhantomData;
use std::path::PathBuf;

use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering};

use remix_spec::{
    ActionInstance, CanonFn, DigestMap, InternPool, LabelId, LabelTable, Offer, PairHasher, Perm,
    SlotIndex, Spec, SpecState, TableHasher, Trace, INIT_LABEL,
};

use crate::fingerprint::{state_key, Fingerprint};
use crate::spill::{self, SpillConfig, SpillCounters, SpillRun, SpillStats};

/// Which backend a run stores discovered states in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreMode {
    /// The compact full-state store: every state is kept, as a row of pool slots in
    /// the arena, and traces are reconstructed by parent-index walks.  The default.
    #[default]
    Full,
    /// The TLC-style fingerprint-only store: full states are dropped after expansion,
    /// and an entry is its dedup key plus the 8-byte `(parent index, label)` record;
    /// traces are reconstructed by bounded re-exploration along that chain, each step
    /// matched by looking its key up.  Use for memory-bounded exhaustive runs.
    FingerprintOnly,
}

impl fmt::Display for StoreMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StoreMode::Full => "full",
            StoreMode::FingerprintOnly => "fingerprint-only",
        })
    }
}

/// Dense identifier of a discovered state: `(local slot << shard bits) | shard`.
///
/// `u32::MAX` is reserved as the no-parent sentinel, capping a run at just under 2^32
/// discovered states — far beyond what fits in memory at 28+ bytes per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateIndex(pub u32);

/// The reserved parent marker of initial states.
const NO_PARENT: u32 = u32::MAX;

/// Why indexing the arena by a [`StateIndex`] cannot fail.
const NO_ENTRY: &str = "a StateIndex names an entry of the store that issued it";

/// Fixed per-entry metadata: 8 bytes regardless of the state type and the backend.
/// The entry's fingerprint is not among them: the dedup tier (the stripe's map or a
/// spilled run) keeps it, once.
struct SlotMeta {
    /// Packed [`StateIndex`] of the parent, or [`NO_PARENT`] for initial states.
    parent: u32,
    /// Interned label of the action that first discovered this state.
    label: LabelId,
}

impl SlotMeta {
    fn new(parent: Option<StateIndex>, label: LabelId) -> Self {
        SlotMeta {
            parent: parent.map_or(NO_PARENT, |p| p.0),
            label,
        }
    }
}

/// One lock stripe of the arena.
struct StoreShard<S> {
    /// The dedup table: local slot indices (into `meta`), found by key or by row.
    ///
    /// Under a memory budget this is the stripe's *delta table*: once it reaches its
    /// share of the budget it is flushed to an immutable sorted run in `runs` and
    /// restarted empty, so its resident size stays bounded while `len` keeps growing.
    table: DedupTable,
    /// Spilled portions of the dedup table: immutable sorted `(key, slot)` runs on
    /// disk — the fingerprint, or in [`StoreMode::Full`] the row's [`row_digest`] —
    /// mutually disjoint with each other and with the delta table by construction (a
    /// key is probed against every run before it may enter the delta table).  Empty
    /// when no memory budget is configured.
    runs: Vec<SpillRun>,
    meta: ChunkVec<SlotMeta>,
    /// Parallel to `meta` in [`StoreMode::Full`] — each state as the row of words
    /// [`SpecState::intern`] wrote for it, in 16-bit units (see "Rows" in the module
    /// docs) — and empty in [`StoreMode::FingerprintOnly`].
    rows: ChunkVec<u16>,
    /// Parallel to `meta` under symmetry reduction (every insert then records the
    /// permutation that canonicalized the inserted state, 16 inline bytes); stays
    /// empty otherwise.  Mixing permuted and unpermuted inserts in one store is a
    /// caller bug.
    perms: ChunkVec<Perm>,
    /// Where a state's row is written before it is probed and appended to `rows`, and
    /// where a stored row is decoded to be rebuilt.
    row: Vec<u32>,
    /// Rows are words; the state type only says how to write and read them.
    state: PhantomData<fn() -> S>,
}

/// Records per chunk of a [`ChunkVec`]: 2 KiB of metadata, 4 KiB of three-server rows
/// (8 KiB once a stripe has widened).  Each stripe ends in a partly filled chunk per
/// sequence, and with 64 stripes those tails are resident: 8,192 records per chunk cost
/// `exhaust-fine` 20 MiB over this, 1,024 cost 1.5 MiB; below 256 the chunk list and
/// malloc's headers take over.
const CHUNK_RECORDS: usize = 256;

/// An append-only sequence of equally wide records, kept in fixed-size chunks that are
/// never reallocated: growing costs one chunk, not a copy of everything so far, and
/// leaves no freed half-size buffer behind for the allocator to retain (a doubling
/// `Vec` per stripe held `exhaust-fine` at 47.8 MiB where chunks hold it at 39.6).
struct ChunkVec<T> {
    chunks: Vec<Vec<T>>,
    /// Elements per record, fixed by the first push (a stripe's rows double it at most
    /// once, see `push_row`).
    width: usize,
    /// Records pushed.
    len: usize,
}

impl<T> ChunkVec<T> {
    const fn new() -> Self {
        ChunkVec {
            chunks: Vec::new(),
            width: 0,
            len: 0,
        }
    }

    fn push(&mut self, record: impl ExactSizeIterator<Item = T>) {
        if self.len == 0 {
            self.width = record.len();
        }
        assert!(
            record.len() == self.width && self.width > 0,
            "a store's records are all {} wide, not {}",
            self.width,
            record.len()
        );
        if self.len.is_multiple_of(CHUNK_RECORDS) {
            self.chunks
                .push(Vec::with_capacity(CHUNK_RECORDS * self.width));
        }
        let chunk = self.chunks.last_mut().expect("pushed above when full");
        chunk.extend(record);
        self.len += 1;
    }

    fn get(&self, index: usize) -> Option<&[T]> {
        let at = index % CHUNK_RECORDS * self.width;
        self.chunks
            .get(index / CHUNK_RECORDS)?
            .get(at..at + self.width)
    }

    fn get_mut(&mut self, index: usize) -> Option<&mut [T]> {
        let at = index % CHUNK_RECORDS * self.width;
        self.chunks
            .get_mut(index / CHUNK_RECORDS)?
            .get_mut(at..at + self.width)
    }
}

/// A stripe's rows: one 16-bit unit per word while every word the stripe has stored
/// fits in one, two units per word (low unit first) after that.  A record of a row of
/// `words` words is `words` or `2 × words` units wide, which is how a reader tells.
impl ChunkVec<u16> {
    /// Appends `row`.  The first row with a word wider than 16 bits re-encodes the rows
    /// before it at two units per word, once; a first row that has one starts wide.
    fn push_row(&mut self, row: &[u32]) {
        let fits = row.iter().all(|&word| word <= u32::from(u16::MAX));
        if !fits && self.width == row.len() {
            self.widen();
        }
        if fits && self.width != 2 * row.len() {
            self.push(row.iter().map(|&word| word as u16));
        } else {
            self.push((0..2 * row.len()).map(|unit| (row[unit / 2] >> (unit % 2 * 16)) as u16));
        }
    }

    /// Re-encodes every stored row at two units per word, a chunk at a time.
    fn widen(&mut self) {
        self.width *= 2;
        for chunk in &mut self.chunks {
            let mut wide = Vec::with_capacity(CHUNK_RECORDS * self.width);
            wide.extend(chunk.iter().flat_map(|&unit| [unit, 0]));
            *chunk = wide;
        }
    }

    /// The `words` words of row `index`.
    fn words(&self, index: usize, words: usize) -> Option<impl ExactSizeIterator<Item = u32> + '_> {
        let units = self.get(index)?;
        Some(units.chunks_exact(units.len() / words).map(|word| {
            word.iter()
                .rev()
                .fold(0, |value, &unit| value << 16 | u32::from(unit))
        }))
    }

    /// Whether row `index` holds exactly `row`'s words.
    fn holds(&self, index: usize, row: &[u32]) -> bool {
        self.words(index, row.len())
            .is_some_and(|stored| stored.eq(row.iter().copied()))
    }
}

/// A stripe's dedup table, one kind per backend.
enum DedupTable {
    /// [`StoreMode::FingerprintOnly`]: fingerprint → local slot.  Hashed by the
    /// fingerprint's own second word (its first picked the stripe): the key is uniform
    /// already, so the table probes with it instead of rehashing it.
    Keys(DigestMap<Fingerprint, u32>),
    /// [`StoreMode::Full`]: local slots, found by the [`row_hash`] of the row they name
    /// in `rows` and confirmed by comparing that row word for word, so a hit is exact:
    /// two states meet only when their rows are equal, and a row is the state's value
    /// (its components hash-consed and equality-checked by the pool, its scalars
    /// written out).  Nothing of a row is kept in the index: a probe and a growth step
    /// read the rows back out of the arena.  Boxed so that a stripe is no larger than
    /// a map makes it: the stripe array's size moves where the allocator places a
    /// run's later blocks, and with them its peak RSS.
    Rows(Box<SlotIndex>),
}

impl DedupTable {
    fn new(mode: StoreMode) -> Self {
        match mode {
            StoreMode::Full => DedupTable::Rows(Box::default()),
            StoreMode::FingerprintOnly => DedupTable::Keys(DigestMap::default()),
        }
    }

    /// Entries held in RAM.
    fn len(&self) -> usize {
        match self {
            DedupTable::Keys(map) => map.len(),
            DedupTable::Rows(index) => index.len(),
        }
    }
}

/// The [`TableHasher`] hash of a row's words: its low bits pick the bucket of a Full
/// stripe's [`SlotIndex`] of rows, its top byte tags it, and bits 32 on pick the
/// stripe (see [`StateStore::shard_of_row`]).
fn row_hash(row: impl ExactSizeIterator<Item = u32>) -> u64 {
    let mut hasher = TableHasher::default();
    hasher.write_usize(row.len());
    for word in row {
        hasher.write_u32(word);
    }
    hasher.finish()
}

/// The 128-bit key a [`StoreMode::Full`] row is spilled and probed under: the row's
/// words through a [`PairHasher`], so the spill tier's bloom filters get the two
/// independent halves they hash with.
fn row_digest(row: impl Iterator<Item = u32>) -> Fingerprint {
    let mut hasher = PairHasher::new();
    for word in row {
        hasher.write_u32(word);
    }
    hasher.finish128()
}

struct ShardCell<S> {
    inner: Mutex<StoreShard<S>>,
    /// Lock acquisitions on this stripe that found it already held.
    contention: AtomicU64,
}

/// The out-of-core plan of a budgeted store: where spill files go and when each
/// stripe's delta table gives way to a sorted run.
struct StoreSpill {
    /// Unique per-store directory holding every run file; removed when the store drops.
    dir: PathBuf,
    /// Delta-table entries per stripe before it is flushed to a run.
    flush_entries: usize,
    /// The configured budget, echoed into [`SpillStats`].
    budget_bytes: u64,
    counters: SpillCounters,
}

/// The lock-striped discovered-state arena.  See the module docs for the memory model.
pub struct StateStore<S> {
    shards: Vec<ShardCell<S>>,
    mode: StoreMode,
    /// `log2(shards.len())`.
    shard_bits: u32,
    /// `shards.len() - 1`.
    mask: usize,
    /// Right-shift extracting the stripe from the fingerprint's leading bits.
    shift: u32,
    len: AtomicUsize,
    /// Words per stored row: 0 until the first state is stored, the same for every
    /// state after it.
    stride: AtomicUsize,
    /// Whether entries carry a recorded permutation (set by the first canonical insert).
    records_perms: AtomicBool,
    /// One allocation per distinct component value of the run; see the module docs.  A
    /// leaf lock: nothing is locked while it is held (see "Locks").
    pool: Mutex<InternPool>,
    /// The out-of-core tier; `None` when no memory budget is configured (the store
    /// then behaves exactly as before the spill tier existed).
    spill: Option<StoreSpill>,
}

thread_local! {
    /// Where a [`StoreMode::Full`] insert or lookup writes the row of the state it is
    /// handed: the row is written under the pool's lock and probed under its stripe's,
    /// so it lives outside both, one per thread.
    static ROW: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on this thread's empty scratch row (see [`ROW`]).
fn with_row<R>(f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
    ROW.with(|cell| {
        let mut row = cell.take();
        row.clear();
        let out = f(&mut row);
        cell.set(row);
        out
    })
}

/// What a stripe is probed with: in [`StoreMode::Full`] the state's row and its
/// [`row_hash`], in [`StoreMode::FingerprintOnly`] the state's key.
enum Probe<'r> {
    Row(&'r [u32], u64),
    Key(Fingerprint),
}

/// Why a stripe's table and its probe always agree on the backend.
const ONE_BACKEND: &str = "a Full store is probed by row, a fingerprint-only one by key";

impl<S> Drop for StateStore<S> {
    fn drop(&mut self) {
        if let Some(spill) = &self.spill {
            let _ = std::fs::remove_dir_all(&spill.dir);
        }
    }
}

/// The result of an insertion attempt.  Both arms hand a state back to the caller, so
/// an insert never swallows the moved-in value.
pub enum Insert<S> {
    /// The state was already stored (in [`StoreMode::Full`] an equal row, in
    /// [`StoreMode::FingerprintOnly`] its fingerprint); the existing entry's index is
    /// returned along with the (unconsumed) moved-in state — in Full with its
    /// components interned.
    Existing(StateIndex, S),
    /// A fresh entry was created.  The returned state is the moved-in one, in both
    /// modes ([`StoreMode::Full`] keeps a row of pool slots, not the state), with its
    /// components interned into the store's pool.
    Fresh(StateIndex, S),
}

/// A locked stripe of a [`StoreMode::FingerprintOnly`] store, or the way into a
/// [`StoreMode::Full`] one, whose inserts each lock the stripe their row hashes to (see
/// [`StateStore::lock_shard`]).
pub struct ShardHandle<'a, S> {
    store: &'a StateStore<S>,
    /// The locked stripe and its number; `None` for a Full store.
    held: Option<(MutexGuard<'a, StoreShard<S>>, usize)>,
}

impl<S: SpecState> ShardHandle<'_, S> {
    /// Inserts one state discovered by `label` from `parent` (or an initial state when
    /// `parent` is `None`).  `fp` is any 128-bit function of the state's value that
    /// routed the caller to this stripe, [`state_key`] if states are to be looked up
    /// again (see the module docs).  [`StoreMode::FingerprintOnly`] deduplicates by
    /// `fp`; [`StoreMode::Full`] by the state's row, and ignores `fp`.
    pub fn insert(
        &mut self,
        fp: Fingerprint,
        parent: Option<StateIndex>,
        label: LabelId,
        state: S,
    ) -> Insert<S> {
        self.insert_edge(fp, parent, label, state, None)
    }

    /// Like [`ShardHandle::insert`], but for symmetry-reduced runs: `state` must be
    /// the *canonical* representative and `perm` the permutation that produced it
    /// from the concrete successor (see `remix_spec::Canonicalize`).  The permutation
    /// is recorded alongside the discovery edge so the engines' trace reconstruction
    /// (the private `trace_to`) can later rebuild a witness in the original id frame.
    ///
    /// A store must be fed exclusively through this method or exclusively through
    /// [`ShardHandle::insert`]; mixing the two within one run is a caller bug.
    pub fn insert_canonical(
        &mut self,
        fp: Fingerprint,
        parent: Option<StateIndex>,
        label: LabelId,
        state: S,
        perm: Perm,
    ) -> Insert<S> {
        self.insert_edge(fp, parent, label, state, Some(perm))
    }

    /// [`ShardHandle::insert_canonical`] when `perm` is set, [`ShardHandle::insert`]
    /// otherwise.
    fn insert_edge(
        &mut self,
        fp: Fingerprint,
        parent: Option<StateIndex>,
        label: LabelId,
        state: S,
        perm: Option<Perm>,
    ) -> Insert<S> {
        match &mut self.held {
            Some((guard, shard)) => {
                let probe = Probe::Key(fp);
                let meta = SlotMeta::new(parent, label);
                self.store
                    .insert_into(guard, *shard, probe, meta, state, perm)
            }
            None => self.store.insert_row(parent, label, state, perm),
        }
    }
}

/// Where a fresh insert goes in its stripe's delta table, found by the dedup probe.
enum Vacancy<'m> {
    /// [`StoreMode::Full`]: the row index, under the row's [`row_hash`].
    Row(&'m mut SlotIndex, &'m [u32], u64),
    /// [`StoreMode::FingerprintOnly`]: the fingerprint's vacant map entry.
    Key(VacantEntry<'m, Fingerprint, u32>),
}

/// Fixes a store's row width at its first stored state and holds every later one to it.
fn fix_stride(stride: &AtomicUsize, words: usize) {
    // ordering: Relaxed — the stride publishes nothing: it is one number that every
    // writer either agrees on or panics over, and readers only report it.
    if stride.load(Ordering::Relaxed) != words {
        let before = stride
            // ordering: Relaxed (×2) — see the load above.
            .compare_exchange(0, words, Ordering::Relaxed, Ordering::Relaxed)
            .unwrap_or_else(|known| known);
        assert!(
            before == 0 || before == words,
            "one store, rows of {before} and of {words} words: `SpecState::intern` \
             must write the same number of words for every state"
        );
    }
}

/// Flushes a stripe's delta table to a new immutable sorted run.  Slot assignments
/// are untouched — the entries only change *where* they live, so spilling can never
/// alter which states a run discovers or which indices they get.
///
/// A [`StoreMode::Full`] stripe spills each held row (of `words` words) under its
/// [`row_digest`], read out of the arena: no state is rebuilt.
fn flush_delta_table<S>(inner: &mut StoreShard<S>, spill: &StoreSpill, shard: u32, words: usize) {
    let entries: Vec<(Fingerprint, u32)> = match &mut inner.table {
        DedupTable::Keys(map) => map.drain().collect(),
        DedupTable::Rows(index) => {
            let entries = index
                .held()
                .map(|local| {
                    let row = inner.rows.words(local as usize, words).expect(NO_ENTRY);
                    (row_digest(row), local)
                })
                .collect();
            index.clear();
            entries
        }
    };
    let path = spill
        .dir
        .join(format!("shard{:04}-run{:04}.fps", shard, inner.runs.len()));
    let run = SpillRun::write(&path, entries).expect("writing a fingerprint spill run");
    // ordering: Relaxed (×3) — spill counters are observability only, read for the
    // stats snapshot after the run; no control decision consumes them.
    spill.counters.runs_spilled.fetch_add(1, Ordering::Relaxed);
    spill
        .counters
        .entries_spilled
        .fetch_add(run.len() as u64, Ordering::Relaxed); // ordering: see above.
    spill
        .counters
        .bytes_spilled
        .fetch_add((run.len() * spill::RECORD_BYTES) as u64, Ordering::Relaxed); // ordering: see above.
    inner.runs.push(run);
}

#[inline]
fn pack(local: u32, shard: u32, shard_bits: u32) -> StateIndex {
    StateIndex((local << shard_bits) | shard)
}

#[inline]
fn unpack(index: StateIndex, shard_bits: u32) -> (u32, u32) {
    (index.0 >> shard_bits, index.0 & ((1 << shard_bits) - 1))
}

impl<S: SpecState> StateStore<S> {
    /// Creates a fully in-RAM store with `shards` lock stripes (rounded up to a power of
    /// two).  Equivalent to [`StateStore::with_spill`] with an inactive config.
    pub fn new(mode: StoreMode, shards: usize) -> Self {
        Self::with_spill(mode, shards, &SpillConfig::in_ram())
    }

    /// Creates a store with `shards` lock stripes (rounded up to a power of two), armed
    /// with the out-of-core tier when `config` carries a memory budget.
    ///
    /// Under a budget, each stripe's dedup table becomes a bounded *delta table*: when
    /// it reaches its share of the budget (`budget / 48 bytes-per-entry / stripes`,
    /// floored at a small minimum, in both backends) it is sorted and flushed to an
    /// immutable run file under the spill directory.  Lookups then probe the delta
    /// table, then each run's bloom filter, and only pay a positioned disk read on a
    /// bloom hit.
    /// Spilling never changes slot assignment, so a budgeted run discovers exactly
    /// the states — with exactly the indices — the in-RAM run would.
    ///
    /// # Panics
    ///
    /// Panics when the spill directory cannot be created: silently continuing
    /// unbudgeted would defeat the point of asking for a budget.
    pub fn with_spill(mode: StoreMode, shards: usize, config: &SpillConfig) -> Self {
        let n = shards.max(1).next_power_of_two();
        let bits = n.trailing_zeros();
        let spill = config.budget_bytes.map(|budget| {
            let dir = spill::create_spill_dir(config.dir.as_deref())
                .expect("creating the spill directory for a memory-budgeted store");
            StoreSpill {
                dir,
                flush_entries: (budget as usize / spill::DELTA_ENTRY_BYTES / n)
                    .max(spill::MIN_FLUSH_ENTRIES),
                budget_bytes: budget,
                counters: SpillCounters::default(),
            }
        });
        StateStore {
            shards: (0..n)
                .map(|_| ShardCell {
                    inner: Mutex::new(StoreShard {
                        table: DedupTable::new(mode),
                        runs: Vec::new(),
                        meta: ChunkVec::new(),
                        rows: ChunkVec::new(),
                        perms: ChunkVec::new(),
                        row: Vec::new(),
                        state: PhantomData,
                    }),
                    contention: AtomicU64::new(0),
                })
                .collect(),
            mode,
            shard_bits: bits,
            mask: n - 1,
            // `% 64` keeps the single-shard case (bits = 0) well-defined; the mask then
            // collapses every stripe index to zero anyway.
            shift: (64 - bits) % 64,
            len: AtomicUsize::new(0),
            stride: AtomicUsize::new(0),
            records_perms: AtomicBool::new(false),
            pool: Mutex::new(InternPool::new()),
            spill,
        }
    }

    /// Out-of-core activity so far: all-zero when no budget is set or nothing has
    /// spilled yet.
    pub fn spill_stats(&self) -> SpillStats {
        match &self.spill {
            Some(spill) => spill.counters.snapshot(spill.budget_bytes),
            None => SpillStats::default(),
        }
    }

    /// Whether [`StateStore::state_at`] rebuilds stored states: `false` in
    /// [`StoreMode::FingerprintOnly`], which keeps no rows, so a caller that needs a
    /// state again must hold on to it.
    pub(crate) fn keeps_rows(&self) -> bool {
        self.mode == StoreMode::Full
    }

    /// The backend this store runs.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// The stripe owning a fingerprint in a [`StoreMode::FingerprintOnly`] store
    /// (routed by its leading bits).  A [`StoreMode::Full`] store routes each state by
    /// its row instead ([`StateStore::lock_shard`] takes no stripe there).
    pub fn shard_of(&self, fp: Fingerprint) -> usize {
        ((fp.0 >> self.shift) as usize) & self.mask
    }

    /// The stripe owning a [`StoreMode::Full`] row, by bits 32 on of its [`row_hash`]:
    /// the stripe's row index buckets by the low bits and tags by the top byte, so the
    /// three stay independent.
    fn shard_of_row(&self, hash: u64) -> usize {
        ((hash >> 32) as usize) & self.mask
    }

    /// The engines' insert: in [`StoreMode::Full`] by the state's row (no key is
    /// computed); in [`StoreMode::FingerprintOnly`] by its [`state_key`], which is
    /// handed back with the result.
    pub(crate) fn insert(
        &self,
        parent: Option<StateIndex>,
        label: LabelId,
        state: S,
        perm: Option<Perm>,
    ) -> (Insert<S>, Option<Fingerprint>) {
        match self.mode {
            StoreMode::Full => (self.insert_row(parent, label, state, perm), None),
            StoreMode::FingerprintOnly => {
                let key = state_key(&state);
                // The handle is a temporary: the stripe is unlocked at the end of this
                // statement.
                let insert = self
                    .lock_shard(self.shard_of(key))
                    .insert_edge(key, parent, label, state, perm);
                (insert, Some(key))
            }
        }
    }

    /// A [`StoreMode::Full`] insert: interns `state` and writes its row under the pool's
    /// lock alone, then probes and appends under the lock of the stripe the row hashes
    /// to.  The row is the state's identity, so it is written before the probe; every
    /// component of a duplicate is pooled already, so the pool grows only by what a
    /// fresh state brings.
    fn insert_row(
        &self,
        parent: Option<StateIndex>,
        label: LabelId,
        mut state: S,
        perm: Option<Perm>,
    ) -> Insert<S> {
        with_row(|row| {
            state.intern(&mut self.pool.lock(), Some(row));
            let hash = row_hash(row.iter().copied());
            let shard = self.shard_of_row(hash);
            let mut guard = self.lock_counting(shard);
            let (probe, meta) = (Probe::Row(row, hash), SlotMeta::new(parent, label));
            self.insert_into(&mut guard, shard, probe, meta, state, perm)
        })
    }

    /// Inserts `state` into stripe `shard`, locked by the caller as `inner`, under
    /// `probe`: the dedup and, for a fresh state, the append of its `meta`.
    fn insert_into(
        &self,
        inner: &mut StoreShard<S>,
        shard: usize,
        probe: Probe<'_>,
        meta: SlotMeta,
        mut state: S,
        perm: Option<Perm>,
    ) -> Insert<S> {
        let at = |local| pack(local, shard as u32, self.shard_bits);
        // Dedup: the in-RAM delta table first, then (budgeted stores only) every
        // spilled run, bloom filters first.  Runs and delta table are disjoint, so
        // the probe order never affects the answer — only which tier pays for it.
        // The table is probed once: a miss keeps where the insert below goes.
        let vacancy = match (&mut inner.table, probe) {
            (DedupTable::Rows(index), Probe::Row(row, hash)) => {
                let rows = &inner.rows;
                if let Some(local) = index.find(hash, |slot| rows.holds(slot as usize, row)) {
                    return Insert::Existing(at(local), state);
                }
                Vacancy::Row(index, row, hash)
            }
            (DedupTable::Keys(map), Probe::Key(key)) => match map.entry(key) {
                Entry::Occupied(known) => return Insert::Existing(at(*known.get()), state),
                Entry::Vacant(vacant) => Vacancy::Key(vacant),
            },
            _ => unreachable!("{ONE_BACKEND}"),
        };
        let spilled = self.spilled(&inner.runs, || match &vacancy {
            Vacancy::Row(_, row, _) => row_digest(row.iter().copied()),
            Vacancy::Key(vacant) => *vacant.key(),
        });
        if let Some(local) = spilled {
            return Insert::Existing(at(local), state);
        }
        let local = inner.meta.len as u32;
        // The packed index must round-trip: `local` may not spill into the
        // shard bits, and `NO_PARENT` (u32::MAX) stays reserved.
        assert!(
            (self.shard_bits == 0 && local < u32::MAX)
                || (self.shard_bits > 0 && local < 1 << (32 - self.shard_bits)),
            "state-store stripe is full ({local} slots at {} shard bits)",
            self.shard_bits
        );
        let index = at(local);
        assert_ne!(index.0, NO_PARENT, "state store is full (2^32 entries)");
        inner.meta.push(std::iter::once(meta));
        if let Some(perm) = perm {
            debug_assert_eq!(
                inner.perms.len + 1,
                inner.meta.len,
                "stores mixing canonical and plain inserts cannot de-canonicalize"
            );
            inner.perms.push(std::iter::once(perm));
            // ordering: Relaxed — like the stride, one fact every canonical insert
            // agrees on; only the size accounting reads it.
            if !self.records_perms.load(Ordering::Relaxed) {
                self.records_perms.store(true, Ordering::Relaxed); // ordering: see above.
            }
        }
        match vacancy {
            Vacancy::Row(index, row, hash) => {
                fix_stride(&self.stride, row.len());
                inner.rows.push_row(row);
                let (rows, words) = (&inner.rows, row.len());
                index.insert(hash, local, |slot| {
                    row_hash(rows.words(slot as usize, words).expect(NO_ENTRY))
                });
            }
            Vacancy::Key(vacant) => {
                vacant.insert(local);
                // Only a distinct state reaches this point, so the pool is probed once
                // per freshly written component of the run, never per edge.
                state.intern(&mut self.pool.lock(), None);
            }
        }
        // ordering: AcqRel — the global length feeds the max_states stop decision on
        // other workers, so it must publish with the insert and join prior counts.
        self.len.fetch_add(1, Ordering::AcqRel);
        if let Some(spill) = &self.spill {
            if inner.table.len() >= spill.flush_entries {
                // ordering: Relaxed — see `fix_stride`.
                let words = self.stride.load(Ordering::Relaxed);
                flush_delta_table(inner, spill, shard as u32, words);
            }
        }
        Insert::Fresh(index, state)
    }

    /// The slot a stripe's spilled `runs` hold under `key` (computed only when a
    /// memory budget is set and the stripe has spilled).
    fn spilled(&self, runs: &[SpillRun], key: impl FnOnce() -> Fingerprint) -> Option<u32> {
        let spill = self.spill.as_ref().filter(|_| !runs.is_empty())?;
        let key = key();
        runs.iter().find_map(|run| run.probe(key, &spill.counters))
    }

    /// Locks stripe `shard`, counting the acquisition as contended when it had to wait
    /// (the try-then-count-then-block pattern lives in `sync::Mutex::lock_counting`,
    /// poison policy in `sync::lock_or_recover`).
    fn lock_counting(&self, shard: usize) -> MutexGuard<'_, StoreShard<S>> {
        let cell = &self.shards[shard];
        cell.inner.lock_counting(&cell.contention)
    }

    /// The handle one insert goes through (the kernel's: one edge).  On a
    /// [`StoreMode::FingerprintOnly`] store it holds stripe `shard` locked — the one
    /// [`StateStore::shard_of`] routes the insert's key to — until it drops.  A
    /// [`StoreMode::Full`] store routes by the row, which is known only once the state
    /// is interned, so there the handle locks nothing and each of its inserts locks
    /// the stripe its row hashes to, as the engines' inserts do.
    pub fn lock_shard(&self, shard: usize) -> ShardHandle<'_, S> {
        let held =
            (self.mode == StoreMode::FingerprintOnly).then(|| (self.lock_counting(shard), shard));
        ShardHandle { store: self, held }
    }

    /// Total number of entries across all stripes.
    pub fn len(&self) -> usize {
        // ordering: Acquire — pairs with the AcqRel fetch_add in insert_into; the
        // reader uses this total for the max_states stop decision.
        self.len.load(Ordering::Acquire)
    }

    /// `true` when nothing has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What the store's intern pool holds, per kind (`std::any::type_name` of the
    /// value → distinct values): a state type's shared components and whatever else
    /// its rows point at — in [`StoreMode::Full`], for a type that keeps the default
    /// [`SpecState::intern`], every whole state.
    pub fn interned_components(&self) -> BTreeMap<&'static str, usize> {
        self.pool.lock().census()
    }

    /// Per-stripe contended-lock-acquisition counters.
    pub fn contention_counters(&self) -> Vec<u64> {
        self.shards
            .iter()
            // ordering: Relaxed — contention counts are observability only.
            .map(|s| s.contention.load(Ordering::Relaxed))
            .collect()
    }

    /// The index of `state`, if the store holds it (in the delta table or any spilled
    /// run).
    ///
    /// [`StoreMode::Full`] matches the state's row in the stripe it hashes to, so it
    /// writes one: the state's components are interned as an insert would, and those
    /// of an absent state stay in the pool.  [`StoreMode::FingerprintOnly`] matches the
    /// [`state_key`] itself, in the stripe it routes to, so a fingerprint-only store
    /// that is to answer this must be filled under `state_key`s.
    pub fn index_of(&self, state: &S) -> Option<StateIndex> {
        let found = |shard: usize, probe: Probe<'_>| {
            let guard = self.shards[shard].inner.lock();
            let local = match (&guard.table, probe) {
                (DedupTable::Rows(index), Probe::Row(row, hash)) => index
                    .find(hash, |slot| guard.rows.holds(slot as usize, row))
                    .or_else(|| self.spilled(&guard.runs, || row_digest(row.iter().copied()))),
                (DedupTable::Keys(map), Probe::Key(key)) => map
                    .get(&key)
                    .copied()
                    .or_else(|| self.spilled(&guard.runs, || key)),
                _ => unreachable!("{ONE_BACKEND}"),
            }?;
            Some(pack(local, shard as u32, self.shard_bits))
        };
        match self.mode {
            StoreMode::Full => with_row(|row| {
                state.clone().intern(&mut self.pool.lock(), Some(row));
                let hash = row_hash(row.iter().copied());
                found(self.shard_of_row(hash), Probe::Row(row, hash))
            }),
            StoreMode::FingerprintOnly => {
                let key = state_key(state);
                found(self.shard_of(key), Probe::Key(key))
            }
        }
    }

    /// The `(parent, label)` discovery edge of an entry.  Neither its key nor its state
    /// is kept beside it: [`StateStore::index_of`] maps a state to its entry, and that
    /// is the only direction replay needs.
    pub fn meta(&self, index: StateIndex) -> (Option<StateIndex>, LabelId) {
        let (local, shard) = unpack(index, self.shard_bits);
        let guard = self.shards[shard as usize].inner.lock();
        let meta = &guard.meta.get(local as usize).expect(NO_ENTRY)[0];
        let parent = (meta.parent != NO_PARENT).then_some(StateIndex(meta.parent));
        (parent, meta.label)
    }

    /// Rewrites an entry's discovery edge to `(parent, label)`.
    ///
    /// Used by depth-bounded DFS (concrete states only) when a strictly shallower path
    /// to an already-stored state is found: the recorded chain must follow best-known
    /// depths, or traces reconstructed through the re-discovered state would walk the
    /// old, deeper arm and disagree with the reported violation depth (and the depth
    /// bound).  Parent depths are strictly decreasing along any chain, so the rewrite
    /// cannot create a cycle.
    pub fn set_parent(&self, index: StateIndex, parent: StateIndex, label: LabelId) {
        let (local, shard) = unpack(index, self.shard_bits);
        let mut guard = self.shards[shard as usize].inner.lock();
        let meta = &mut guard.meta.get_mut(local as usize).expect(NO_ENTRY)[0];
        meta.parent = parent.0;
        meta.label = label;
    }

    /// The permutation recorded for an entry's discovery edge (the one that
    /// canonicalized the inserted state), or `None` when the store was filled without
    /// symmetry reduction.
    pub fn perm_of(&self, index: StateIndex) -> Option<Perm> {
        let (local, shard) = unpack(index, self.shard_bits);
        let guard = self.shards[shard as usize].inner.lock();
        Some(guard.perms.get(local as usize)?[0])
    }

    /// The state stored at `index`, rebuilt from its row (for a state type built on
    /// `remix_spec::Shared`, one reference-count bump per component).  `None` in
    /// [`StoreMode::FingerprintOnly`], which keeps no rows.
    pub fn state_at(&self, index: StateIndex) -> Option<S> {
        let (local, shard) = unpack(index, self.shard_bits);
        let mut guard = self.shards[shard as usize].inner.lock();
        let inner = &mut *guard;
        // ordering: Relaxed — see `fix_stride`; a stored row's stride was fixed before
        // the row was written under this stripe's lock.
        let words = self.stride.load(Ordering::Relaxed);
        let stored = inner.rows.words(local as usize, words)?;
        inner.row.clear();
        inner.row.extend(stored);
        Some(S::from_row(&inner.row, &self.pool.lock()))
    }

    /// Visits every stored state, stripe by stripe (nothing in
    /// [`StoreMode::FingerprintOnly`]).
    #[cfg(test)]
    pub(crate) fn for_each_state(&self, mut f: impl FnMut(&S)) {
        // ordering: Relaxed — see `state_at`.
        let words = self.stride.load(Ordering::Relaxed);
        let mut row = Vec::new();
        for shard in &self.shards {
            let held = shard.inner.lock();
            let pool = self.pool.lock();
            for local in 0..held.rows.len {
                row.clear();
                row.extend(held.rows.words(local, words).expect("in range"));
                f(&S::from_row(&row, &pool));
            }
        }
    }

    /// Resident bytes the store pays per entry: the 8-byte `(parent, label)` metadata
    /// slot, then the dedup entry and what identifies the state.  In
    /// [`StoreMode::FingerprintOnly`] that is the map entry (fingerprint key + `u32`
    /// slot, the one place the fingerprint is kept), 28 bytes in all.  In
    /// [`StoreMode::Full`] it is the state's row — the 16-bit units its stripe holds it
    /// in, one per word [`SpecState::intern`] writes or two in a widened stripe (the
    /// stripes' units averaged over the entries, rounded up; 0 while the store is
    /// empty; 8 words on a three-server `ZabState`, one for a type that keeps the
    /// default) — and its row-index bucket (a `u32` slot and a tag byte): 29 bytes on
    /// that `ZabState`, 15 on a narrow one-word row.  Under symmetry reduction both add
    /// the recorded [`Perm`] (16 bytes once the first canonical insert has happened),
    /// so a symmetry-reduced three-server `ZabState` pays 44 bytes fingerprint-only and
    /// 45 in Full.
    ///
    /// This is the *per-entry payload* accounting the bench artefact reports: it
    /// excludes hash-table load-factor overhead, the tail of each stripe's last chunk,
    /// and the intern pool the rows point into (one allocation per distinct component
    /// of the run, or in [`StoreMode::Full`] per distinct state under the default
    /// `intern`).
    pub fn entry_bytes_per_state(&self) -> usize {
        let identity = match self.mode {
            StoreMode::Full => {
                let (units, rows) = self.shards.iter().fold((0, 0), |(units, rows), cell| {
                    let shard = cell.inner.lock();
                    (
                        units + shard.rows.len * shard.rows.width,
                        rows + shard.rows.len,
                    )
                });
                (std::mem::size_of::<u16>() * units).div_ceil(rows.max(1)) + SlotIndex::BUCKET_BYTES
            }
            StoreMode::FingerprintOnly => {
                std::mem::size_of::<Fingerprint>() + std::mem::size_of::<u32>()
            }
        };
        // ordering: Relaxed — see `fix_stride` and `insert_into`.
        let perm = if self.records_perms.load(Ordering::Relaxed) {
            std::mem::size_of::<Perm>()
        } else {
            0
        };
        std::mem::size_of::<SlotMeta>() + identity + perm
    }

    /// Resident entry-payload bytes of the whole store (rows, metadata and dedup
    /// entries; not the pool).  The store is append-only, so this is also the run's
    /// peak.
    pub fn entry_bytes(&self) -> usize {
        self.len() * self.entry_bytes_per_state()
    }

    /// Reconstructs the trace from an initial state to `index`.
    ///
    /// In [`StoreMode::Full`] this walks parent indices and rebuilds each stored state
    /// from its row — no successor evaluation.  In [`StoreMode::FingerprintOnly`] the stored states
    /// are gone, so the recorded `(parent, label)` chain is replayed forward through
    /// [`Spec::offer`]: at each step the offer whose rendered label matches
    /// the recorded [`LabelId`] *and* which the store [holds](Self::index_of) at the
    /// recorded entry is taken.  The replay is bounded by the chain's length; each step
    /// evaluates the successors of exactly one state.
    ///
    /// # Panics
    ///
    /// Panics when the chain is not replayable against `spec` — i.e. the store was
    /// filled from a different specification or label table than the one passed here.
    pub fn reconstruct_trace(
        &self,
        spec: &Spec<S>,
        labels: &LabelTable,
        index: StateIndex,
    ) -> Trace<S> {
        self.trace_to(spec, labels, index, None)
    }

    /// Bounded re-exploration along a recorded chain: starting from the initial state
    /// the root entry records, takes at each step a successor of the current state that
    /// the next entry records; `None` when some step has none.
    ///
    /// The chain carries no keys: a candidate state matches an entry when the store
    /// [holds](Self::index_of) the candidate at that entry's index (the root, every
    /// step, and the de-canonicalizing path alike).  Without `canon` a successor must
    /// also carry the entry's interned label.  With it the chain is a sequence of
    /// canonical forms replayed in the original frame: the root is the initial state
    /// whose canonical form the store holds at the root entry; each step keeps the
    /// successors whose *canonical* form the store holds at the child entry (by orbit
    /// invariance, exactly the concrete moves the canonical edge stands for) and
    /// prefers the one canonicalized by `π_edge ∘ σ` — the edge's stored permutation
    /// composed with the running original→canonical map `σ`, i.e. the very execution
    /// the checker discovered — over any other match.  On a non-equivariant step (see
    /// the symmetry section of `ARCHITECTURE.md`) no successor may match.
    fn replay(
        &self,
        spec: &Spec<S>,
        labels: &LabelTable,
        chain: &[(StateIndex, LabelId)],
        canon: Option<&CanonFn<S>>,
    ) -> Option<Trace<S>> {
        // The entry a state is recorded as, and the permutation onto that frame.
        let located = |state: &S| match canon {
            Some(canon) => {
                let (canonical, perm) = canon(state);
                (self.index_of(&canonical), Some(perm))
            }
            None => (self.index_of(state), None),
        };
        let (root, root_label) = chain[0];
        debug_assert_eq!(labels.resolve(root_label), INIT_LABEL);
        let root = spec
            .init
            .iter()
            .find(|s| located(s).0 == Some(root))
            .cloned()
            .expect("chain root is (the canonical form of) an initial state of the replayed spec");
        // σ: the permutation mapping the current original-frame state onto its
        // canonical representative (the frame the chain is recorded in).
        let mut sigma = located(&root).1;
        let mut trace = Trace::from_init(root);
        let mut rendered = String::new();
        for &(index, label) in &chain[1..] {
            let current = trace.last_state()?;
            // Labels name server ids, so they only identify a step in the frame they
            // were recorded in: without `canon` only offers under the recorded label
            // are built.
            let recorded = canon.is_none().then(|| labels.resolve(label));
            // The exact discovered execution satisfies canon(next).1 == π_edge ∘ σ.
            let expected = sigma
                .as_ref()
                .and_then(|sigma| Some(self.perm_of(index)?.compose(sigma)));
            let mut chosen: Option<(ActionInstance<S>, Option<Perm>)> = None;
            let mut exact_found = false;
            spec.offer(current, &mut |offer: Offer<'_, S>| {
                if exact_found
                    || recorded
                        .as_ref()
                        .is_some_and(|recorded| offer.label.render_into(&mut rendered) != recorded)
                {
                    return;
                }
                let inst = offer.build(current);
                let (at, perm) = located(&inst.next);
                if at != Some(index) {
                    return;
                }
                exact_found = perm == expected;
                if exact_found || chosen.is_none() {
                    chosen = Some((inst, perm));
                }
            });
            let (step, perm) = chosen?;
            sigma = perm;
            trace.push(step.label.to_string(), step.next);
        }
        Some(trace)
    }

    /// The witness ending at `index`, in the original id frame: a de-canonicalizing
    /// [`replay`](Self::replay) when the run explored canonical representatives
    /// (`canon` set), the recorded chain otherwise — rebuilt from the arena's rows when
    /// it holds them, else replayed.  A symmetry-reduced chain that does not replay (a
    /// non-equivariant step) falls back, in [`StoreMode::Full`], to the stored
    /// canonical-frame chain: it need not replay step-by-step, but its endpoint still
    /// exhibits the violation up to renaming.
    ///
    /// # Panics
    ///
    /// When the chain does not replay and the store is [`StoreMode::FingerprintOnly`],
    /// which keeps no states to fall back to.
    pub(crate) fn trace_to(
        &self,
        spec: &Spec<S>,
        labels: &LabelTable,
        index: StateIndex,
        canon: Option<&CanonFn<S>>,
    ) -> Trace<S> {
        // Collect the chain root-first (one parent walk covers both backends).
        let mut chain: Vec<(StateIndex, LabelId)> = Vec::new();
        let mut cursor = Some(index);
        while let Some(c) = cursor {
            let (parent, label) = self.meta(c);
            chain.push((c, label));
            cursor = parent;
        }
        chain.reverse();
        let replayed = match (canon, self.mode) {
            (None, StoreMode::Full) => None,
            _ => self.replay(spec, labels, &chain, canon),
        };
        replayed.unwrap_or_else(|| {
            // Either the arena holds the execution itself, or a symmetry-reduced chain
            // hit a non-equivariant step (the canonical edge has no counterpart from
            // some original-frame state) and the stored canonical chain keeps the
            // report alive.
            assert!(
                self.mode == StoreMode::Full,
                "the recorded chain does not replay through the specification (a \
                 different spec, label table or canonicalization than the store was \
                 filled from, or a non-equivariant spec) and the fingerprint-only \
                 store kept no states to fall back to"
            );
            let mut trace = Trace::default();
            for (idx, label) in &chain {
                let state = self.state_at(*idx).expect("full store keeps every state");
                trace.push(labels.resolve(*label), state);
            }
            trace
        })
    }
}

impl<S> fmt::Debug for StateStore<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateStore")
            .field("mode", &self.mode)
            .field("shards", &self.shards.len())
            // ordering: Relaxed — debug snapshot, no synchronization implied.
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use remix_spec::{ActionDef, Granularity, ModuleId, ModuleSpec};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct N(u32);

    impl SpecState for N {}

    fn chain_spec(limit: u32) -> Spec<N> {
        let m = ModuleId("Chain");
        let inc = ActionDef::new(
            "Inc",
            m,
            Granularity::Baseline,
            vec!["n"],
            vec!["n"],
            move |s: &N, sink| {
                if s.0 < limit {
                    sink.offer(format!("Inc({})", s.0), None, |next| next.0 += 1);
                }
            },
        );
        Spec::new(
            "chain",
            vec![N(0)],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![inc])],
            vec![],
        )
    }

    /// Fills a store with the chain 0..=limit, returning the final index.
    fn fill(store: &StateStore<N>, labels: &LabelTable, limit: u32) -> StateIndex {
        let fp0 = fingerprint(&N(0));
        let mut handle = store.lock_shard(store.shard_of(fp0));
        let Insert::Fresh(mut prev, _) = handle.insert(fp0, None, LabelTable::init_id(), N(0))
        else {
            panic!("fresh insert");
        };
        drop(handle);
        for i in 0..limit {
            let next = N(i + 1);
            let fp = fingerprint(&next);
            let label = labels.intern(&format!("Inc({i})"));
            let mut handle = store.lock_shard(store.shard_of(fp));
            match handle.insert(fp, Some(prev), label, next) {
                Insert::Fresh(idx, _) => prev = idx,
                Insert::Existing(..) => panic!("chain states are distinct"),
            }
        }
        prev
    }

    #[test]
    fn insert_deduplicates_and_counts() {
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let store: StateStore<N> = StateStore::new(mode, 4);
            let fp = fingerprint(&N(7));
            let mut handle = store.lock_shard(store.shard_of(fp));
            let Insert::Fresh(idx, returned) = handle.insert(fp, None, LabelTable::init_id(), N(7))
            else {
                panic!("first insert is fresh");
            };
            assert_eq!(returned, N(7), "caller gets the state back in both modes");
            let Insert::Existing(existing, back) =
                handle.insert(fp, None, LabelTable::init_id(), N(7))
            else {
                panic!("second insert is a duplicate");
            };
            assert_eq!(existing, idx);
            assert_eq!(back, N(7), "duplicates hand the moved-in state back");
            drop(handle);
            assert_eq!(store.len(), 1);
            assert_eq!(store.index_of(&N(7)), Some(idx));
            assert_eq!(store.index_of(&N(8)), None);
            let kept = store.state_at(idx);
            match mode {
                StoreMode::Full => assert_eq!(kept, Some(N(7))),
                StoreMode::FingerprintOnly => assert_eq!(kept, None),
            }
        }
    }

    #[test]
    fn entry_bytes_count_the_row_and_its_bucket_or_the_fingerprint() {
        let labels = LabelTable::new();
        let full: StateStore<N> = StateStore::new(StoreMode::Full, 1);
        let fp_only: StateStore<N> = StateStore::new(StoreMode::FingerprintOnly, 1);
        assert_eq!(
            full.entry_bytes_per_state(),
            8 + 5,
            "an empty store has no row width yet"
        );
        fill(&full, &labels, 3);
        fill(&fp_only, &labels, 3);
        assert_eq!(fp_only.entry_bytes_per_state(), 8 + 16 + 4);
        assert_eq!(
            full.entry_bytes_per_state(),
            8 + 2 + 5,
            "the default row is one word, the slot of the pooled state, held in one \
             16-bit unit, and the row index holds it in a slot and a tag"
        );
        let kind = std::any::type_name::<N>();
        assert_eq!(full.interned_components(), BTreeMap::from([(kind, 4)]));
        assert!(
            fp_only.interned_components().is_empty(),
            "without rows the default `intern` keeps nothing"
        );
    }

    #[test]
    fn recorded_permutations_are_counted_per_entry() {
        let perm = Perm::from_image(vec![1, 0]);
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let plain: StateStore<N> = StateStore::new(mode, 2);
            let canonical: StateStore<N> = StateStore::new(mode, 2);
            let mut indices = Vec::new();
            for i in 0..3u32 {
                let fp = fingerprint(&N(i));
                let mut handle = plain.lock_shard(plain.shard_of(fp));
                handle.insert(fp, None, LabelTable::init_id(), N(i));
                drop(handle);
                let mut handle = canonical.lock_shard(canonical.shard_of(fp));
                let Insert::Fresh(index, _) =
                    handle.insert_canonical(fp, None, LabelTable::init_id(), N(i), perm)
                else {
                    panic!("distinct states");
                };
                indices.push(index);
            }
            assert_eq!(
                canonical.entry_bytes_per_state() - plain.entry_bytes_per_state(),
                std::mem::size_of::<Perm>(),
                "{mode}: the permutation column is part of every entry"
            );
            let expected = match mode {
                StoreMode::Full => 31,
                StoreMode::FingerprintOnly => 44,
            };
            assert_eq!(canonical.entry_bytes_per_state(), expected, "{mode}");
            assert_eq!(
                canonical.entry_bytes(),
                3 * canonical.entry_bytes_per_state()
            );
            for index in indices {
                assert_eq!(canonical.perm_of(index), Some(perm));
            }
            assert_eq!(plain.perm_of(StateIndex(0)), None);
        }
    }

    #[test]
    fn rows_survive_chunk_boundaries_and_keep_one_width() {
        let mut rows: ChunkVec<u32> = ChunkVec::new();
        assert_eq!(rows.get(0), None);
        let records = 2 * CHUNK_RECORDS + 3;
        rows.push([0, !0, 7].into_iter());
        let first = rows.chunks[0].as_ptr();
        for i in 1..records as u32 {
            rows.push([i, !i, 7].into_iter());
        }
        assert_eq!((rows.len, rows.chunks.len()), (records, 3));
        for i in [0, 1, CHUNK_RECORDS - 1, CHUNK_RECORDS, records - 1] {
            assert_eq!(rows.get(i), Some(&[i as u32, !(i as u32), 7][..]));
        }
        assert_eq!(rows.get(records), None);
        rows.get_mut(CHUNK_RECORDS).expect("stored")[2] = 9;
        assert_eq!(rows.get(CHUNK_RECORDS).expect("stored")[2], 9);
        assert!(
            rows.chunks
                .iter()
                .all(|c| c.capacity() == 3 * CHUNK_RECORDS),
            "chunks are allocated once, at full size"
        );
        assert_eq!(rows.chunks[0].as_ptr(), first, "and never moved");
        let narrow = std::panic::catch_unwind(move || rows.push([1, 2].into_iter()));
        assert!(narrow.is_err(), "a record of another width is refused");
    }

    /// A stripe is 200 bytes, and `exhaust-outofcore`'s peak RSS follows that size even
    /// though its fingerprint-only store keeps no rows: the stripe array's size moves
    /// where the allocator places the run's later blocks.  On a 2-core host
    /// (`remix-bench --seconds 8`, seed 7, one working directory) that peak read
    /// 17.57–17.70 MiB at 200 bytes; a stripe with a `Narrow`/`Wide` rows enum and a
    /// read buffer (232 bytes) read 16.2–16.3 MiB, and with the enum alone (208 bytes)
    /// 18.4–18.5.  A layout change that moves this size re-measures
    /// `exhaust-outofcore` first.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_stripe_keeps_its_size() {
        assert_eq!(std::mem::size_of::<StoreShard<N>>(), 200);
    }

    /// A state whose row is its own value, so a test picks the row's words.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct W(u32);

    impl SpecState for W {
        fn intern(&mut self, _: &mut InternPool, row: Option<&mut Vec<u32>>) {
            row.into_iter().for_each(|row| row.push(self.0));
        }

        fn from_row(row: &[u32], _: &InternPool) -> Self {
            W(row[0])
        }
    }

    fn insert_w(store: &StateStore<W>, value: u32) -> Insert<W> {
        let fp = fingerprint(&W(value));
        store
            .lock_shard(store.shard_of(fp))
            .insert(fp, None, LabelTable::init_id(), W(value))
    }

    fn fresh_w(store: &StateStore<W>, value: u32) -> StateIndex {
        match insert_w(store, value) {
            Insert::Fresh(index, _) => index,
            Insert::Existing(..) => panic!("W({value}) is new"),
        }
    }

    /// Units per word of each stripe that holds rows.
    fn unit_widths(store: &StateStore<W>) -> Vec<usize> {
        let cells = store.shards.iter().map(|cell| cell.inner.lock());
        cells
            .filter(|s| s.rows.len > 0)
            .map(|s| s.rows.width)
            .collect()
    }

    /// Every state is stored at `index`, rebuilt from its row, found by value, and a
    /// re-insert is a dedup hit on the same entry.
    fn assert_holds(store: &StateStore<W>, stored: &[(u32, StateIndex)]) {
        for &(value, index) in stored {
            assert_eq!(store.state_at(index), Some(W(value)));
            assert_eq!(store.index_of(&W(value)), Some(index));
            match insert_w(store, value) {
                Insert::Existing(again, back) => assert_eq!((again, back), (index, W(value))),
                Insert::Fresh(..) => panic!("W({value}) was stored once already"),
            }
        }
        assert_eq!(store.len(), stored.len());
    }

    #[test]
    fn a_stripe_widens_once_and_keeps_every_entry() {
        let store: StateStore<W> = StateStore::new(StoreMode::Full, 1);
        let mut stored: Vec<(u32, StateIndex)> = (0..CHUNK_RECORDS as u32 + 44)
            .map(|i| (i * 200, fresh_w(&store, i * 200)))
            .collect();
        assert_eq!(unit_widths(&store), [1], "every word so far fits one unit");
        assert_eq!(store.entry_bytes_per_state(), 8 + 2 + 5);
        assert_holds(&store, &stored);
        for value in [1 << 16, u32::MAX, 7] {
            stored.push((value, fresh_w(&store, value)));
            assert_eq!(unit_widths(&store), [2], "widened by W({})", 1 << 16);
            assert_holds(&store, &stored);
        }
        assert_eq!(
            store.entry_bytes_per_state(),
            8 + 4 + 5,
            "two units a word now"
        );
    }

    #[test]
    fn a_store_whose_first_row_is_wide_starts_wide() {
        let store: StateStore<W> = StateStore::new(StoreMode::Full, 1);
        let stored = [1 << 20, 3].map(|value| (value, fresh_w(&store, value)));
        assert_eq!(unit_widths(&store), [2]);
        assert_holds(&store, &stored);
    }

    #[test]
    fn a_budgeted_store_finds_every_row_through_its_runs_after_widening() {
        // A one-byte budget floors every stripe's delta table at the minimum flush size.
        let budget = SpillConfig::in_ram().with_budget_bytes(1);
        let store = StateStore::<W>::with_spill(StoreMode::Full, 4, &budget);
        let narrow: Vec<(u32, StateIndex)> = (0..300).map(|i| (i, fresh_w(&store, i))).collect();
        assert!(
            store
                .shards
                .iter()
                .all(|cell| !cell.inner.lock().runs.is_empty()),
            "every stripe flushed narrow rows"
        );
        assert_eq!(unit_widths(&store), [1; 4]);
        let wide = (0..300).map(|i| {
            let value = (1 << 16) + i;
            (value, fresh_w(&store, value))
        });
        let stored: Vec<(u32, StateIndex)> = narrow.into_iter().chain(wide).collect();
        assert_eq!(unit_widths(&store), [2; 4], "every stripe met a wide row");
        let probes_before = store.spill_stats().disk_probes;
        assert_holds(&store, &stored);
        assert!(
            store.spill_stats().disk_probes > probes_before,
            "re-inserts found rows in the spilled runs"
        );
    }

    #[test]
    fn a_store_holds_every_row_to_the_first_ones_width() {
        let stride = AtomicUsize::new(0);
        fix_stride(&stride, 12);
        fix_stride(&stride, 12);
        assert_eq!(stride.load(Ordering::Relaxed), 12);
        assert!(std::panic::catch_unwind(|| fix_stride(&stride, 16)).is_err());
    }

    #[test]
    fn full_store_reconstructs_by_parent_walk() {
        let spec = chain_spec(5);
        let labels = LabelTable::new();
        let store: StateStore<N> = StateStore::new(StoreMode::Full, 8);
        let last = fill(&store, &labels, 5);
        let trace = store.reconstruct_trace(&spec, &labels, last);
        assert_eq!(trace.depth(), 5);
        assert_eq!(trace.last_state(), Some(&N(5)));
        assert_eq!(trace.steps[0].action, INIT_LABEL);
        assert_eq!(trace.action_labels()[0], "Inc(0)");
        let mut stored = Vec::new();
        store.for_each_state(|s| stored.push(s.0));
        stored.sort_unstable();
        assert_eq!(
            stored,
            [0, 1, 2, 3, 4, 5],
            "every row rebuilds to its state"
        );
    }

    #[test]
    fn fingerprint_only_store_reconstructs_by_replay() {
        let spec = chain_spec(5);
        let labels = LabelTable::new();
        let store: StateStore<N> = StateStore::new(StoreMode::FingerprintOnly, 8);
        let last = fill(&store, &labels, 5);
        // No states are kept...
        assert_eq!(store.state_at(last), None);
        // ...yet the trace replays to the same execution the full store records.
        let trace = store.reconstruct_trace(&spec, &labels, last);
        assert_eq!(trace.depth(), 5);
        assert_eq!(trace.last_state(), Some(&N(5)));
        assert_eq!(
            trace.action_labels(),
            vec!["Inc(0)", "Inc(1)", "Inc(2)", "Inc(3)", "Inc(4)"]
        );
        assert_eq!(store.entry_bytes(), 6 * store.entry_bytes_per_state());
    }

    #[test]
    fn fingerprint_only_replay_finds_entries_through_spilled_runs() {
        let spec = chain_spec(300);
        let labels = LabelTable::new();
        // A one-byte budget floors every stripe's delta table at the minimum flush size.
        let budget = SpillConfig::in_ram().with_budget_bytes(1);
        let [full, fp_only] = [StoreMode::Full, StoreMode::FingerprintOnly]
            .map(|mode| StateStore::<N>::with_spill(mode, 4, &budget));
        // A Full store routes by row and a fingerprint-only one by key, so they number
        // the same inserts differently.
        let full_last = fill(&full, &labels, 300);
        let last = fill(&fp_only, &labels, 300);
        for store in [&full, &fp_only] {
            assert!(
                store
                    .shards
                    .iter()
                    .all(|cell| !cell.inner.lock().runs.is_empty()),
                "every stripe flushed its delta table"
            );
        }
        let probes_before = fp_only.spill_stats().disk_probes;
        let replayed = fp_only.reconstruct_trace(&spec, &labels, last);
        assert_eq!(replayed.depth(), 300);
        assert_eq!(replayed, full.reconstruct_trace(&spec, &labels, full_last));
        assert!(
            fp_only.spill_stats().disk_probes > probes_before,
            "replay looked entries up in the spilled runs"
        );
    }

    #[test]
    fn a_full_store_keeps_distinct_states_under_one_fingerprint() {
        let fp = fingerprint(&N(1));
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let store: StateStore<N> = StateStore::new(mode, 4);
            let mut handle = store.lock_shard(store.shard_of(fp));
            let Insert::Fresh(first, _) = handle.insert(fp, None, LabelTable::init_id(), N(1))
            else {
                panic!("the first insert is fresh");
            };
            let second = handle.insert(fp, None, LabelTable::init_id(), N(2));
            match (mode, second) {
                (StoreMode::Full, Insert::Fresh(second, _)) => {
                    assert_ne!(second, first);
                    let Insert::Existing(again, _) =
                        handle.insert(fp, None, LabelTable::init_id(), N(1))
                    else {
                        panic!("N(1) is stored");
                    };
                    assert_eq!(again, first);
                    drop(handle);
                    assert_eq!(store.len(), 2);
                    assert_eq!(store.state_at(second), Some(N(2)));
                }
                // The documented merge: a fingerprint is all this backend keeps.
                (StoreMode::FingerprintOnly, Insert::Existing(known, _)) => {
                    assert_eq!(known, first);
                    drop(handle);
                    assert_eq!(store.len(), 1);
                }
                (mode, _) => panic!("{mode}: wrong dedup answer for a second state"),
            }
        }
    }

    proptest::proptest! {
        /// A Full store dedups on values alone: whatever fingerprint the caller hands
        /// it, it keeps one entry per distinct state and finds each again.
        #[test]
        fn a_full_store_dedups_on_values_whatever_the_fingerprint(
            values in proptest::collection::vec(0u32..64, 0..200),
        ) {
            let fp = Fingerprint(0x5eed, 0x5eed);
            let store: StateStore<N> = StateStore::new(StoreMode::Full, 4);
            let mut handle = store.lock_shard(store.shard_of(fp));
            let mut first: BTreeMap<u32, StateIndex> = BTreeMap::new();
            for &v in &values {
                match handle.insert(fp, None, LabelTable::init_id(), N(v)) {
                    Insert::Fresh(index, _) => {
                        proptest::prop_assert!(first.insert(v, index).is_none());
                    }
                    Insert::Existing(index, _) => {
                        proptest::prop_assert_eq!(first.get(&v), Some(&index));
                    }
                }
            }
            for (&v, &index) in &first {
                let Insert::Existing(again, _) =
                    handle.insert(fp, None, LabelTable::init_id(), N(v))
                else {
                    panic!("N({v}) is stored");
                };
                proptest::prop_assert_eq!(again, index);
            }
            drop(handle);
            proptest::prop_assert_eq!(store.len(), first.len());
        }
    }

    #[test]
    fn a_budgeted_full_store_finds_every_state_through_its_runs() {
        // A one-byte budget floors every stripe's delta table at the minimum flush size.
        let budget = SpillConfig::in_ram().with_budget_bytes(1);
        let store = StateStore::<N>::with_spill(StoreMode::Full, 4, &budget);
        let insert = |i: u32| {
            let fp = fingerprint(&N(i));
            store
                .lock_shard(store.shard_of(fp))
                .insert(fp, None, LabelTable::init_id(), N(i))
        };
        let indices: Vec<StateIndex> = (0..300)
            .map(|i| match insert(i) {
                Insert::Fresh(index, _) => index,
                Insert::Existing(..) => panic!("N({i}) is new"),
            })
            .collect();
        assert!(
            store
                .shards
                .iter()
                .all(|cell| !cell.inner.lock().runs.is_empty()),
            "every stripe flushed its row index"
        );
        let stats = store.spill_stats();
        assert_eq!(
            stats.bytes_spilled,
            stats.entries_spilled * spill::RECORD_BYTES as u64
        );
        let probes_before = stats.disk_probes;
        for (i, &index) in (0..).zip(&indices) {
            match insert(i) {
                Insert::Existing(again, back) => {
                    assert_eq!((again, back), (index, N(i)));
                }
                Insert::Fresh(..) => panic!("N({i}) was stored once already"),
            }
            assert_eq!(store.index_of(&N(i)), Some(index));
        }
        assert_eq!(store.len(), 300);
        assert_eq!(store.index_of(&N(300)), None);
        assert!(
            store.spill_stats().disk_probes > probes_before,
            "re-inserts found rows in the spilled runs"
        );
    }

    #[test]
    fn indices_pack_shard_and_slot() {
        let store: StateStore<N> = StateStore::new(StoreMode::FingerprintOnly, 8);
        let labels = LabelTable::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u32 {
            let fp = fingerprint(&N(i));
            let mut handle = store.lock_shard(store.shard_of(fp));
            let Insert::Fresh(idx, _) = handle.insert(fp, None, LabelTable::init_id(), N(i)) else {
                panic!("distinct states");
            };
            drop(handle);
            assert!(seen.insert(idx), "indices are unique across shards");
            let (parent, label) = store.meta(idx);
            assert_eq!(store.index_of(&N(i)), Some(idx));
            assert_eq!(parent, None);
            assert_eq!(label, LabelTable::init_id());
        }
        let _ = labels;
        assert_eq!(store.len(), 64);
        assert_eq!(store.contention_counters().len(), 8);
    }
}

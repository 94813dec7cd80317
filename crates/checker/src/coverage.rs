//! Coverage accounting for guided schedule exploration.
//!
//! The conformance loop of §3.5.2 samples model-level traces by *uniform* random walk,
//! which keeps revisiting the hot regions of the state space (election/discovery churn)
//! and rarely reaches the deep interleavings where the historical bugs live.  The guided
//! explorer ([`mod@crate::explore`]) instead biases each action choice toward *rarely
//! visited* territory, and this module provides the shared bookkeeping it biases on:
//!
//! * **per-fingerprint-prefix hit counters** — how often each region of the state space
//!   (identified by the leading [`CoverageMap::prefix_bits`] bits of the 128-bit state
//!   fingerprint) has been visited across all sampled traces, and
//! * **per-action hit counters** — how often each action *definition* (the label up to
//!   its instantiation arguments, e.g. `NodeCrash` for `NodeCrash(2)`) has been taken.
//!
//! The map is shared by all explorer workers, so it reuses the lock-striping scheme of
//! the parallel BFS engine ([`crate::bfs`]): counters are split into power-of-two
//! stripes — prefix counters keyed by the leading fingerprint bits, action counters by
//! the definition's interned [`LabelId`], so each counter lives on exactly one stripe
//! and both reads and writes lock a single stripe.  Inserts only contend when two
//! workers hit the same stripe, and contended acquisitions are counted so a run can
//! report how much the sharing actually cost (mirroring `CheckStats::shard_contention`).
//!
//! A prefix is at most 32 bits and a prefix counter counts traces, so each prefix entry
//! is a `u32 → u32` pair: 8 bytes of payload per visited region instead of the 16 a
//! `u64 → u64` entry took (≈ 0.6 MB rather than 1.1 MB for the 35,845 regions of a
//! 4,096-trace guided run at the default 20-bit prefixes).  Counts saturate at
//! `u32::MAX`.

use std::collections::HashMap;

use remix_spec::{action_name, LabelId, LabelTable};

use crate::sync::{AtomicU64, Mutex, Ordering};

use crate::fingerprint::Fingerprint;

/// One lock stripe of the coverage counters.
struct CoverageShard {
    /// Fingerprint-prefix → visit count (saturating).  Both maps of a stripe are leaf
    /// locks and are never held simultaneously: [`CoverageMap::record`] drops the
    /// prefix guard before touching the action counter.
    prefixes: Mutex<HashMap<u32, u32>>,
    /// Interned action-definition id → taken count.  Definition names are interned
    /// into the map's [`LabelTable`] (the same layer the state store uses for labels),
    /// so the per-step hot path allocates no strings: recording and looking up an
    /// action costs one read-locked table hit plus one striped counter bump.
    actions: Mutex<HashMap<LabelId, u64>>,
    /// Lock acquisitions on this stripe that found it already held.
    contention: AtomicU64,
}

/// Lock-striped hit counters over fingerprint prefixes and action names.
///
/// All operations are `&self` and thread-safe; the map is designed to be shared by the
/// workers of one guided exploration run (§3.5.2's sampling loop, made coverage-aware).
pub struct CoverageMap {
    shards: Vec<CoverageShard>,
    /// `shards.len() - 1`; the stripe count is always a power of two.
    mask: usize,
    /// Right-shift extracting the coverage prefix from the leading fingerprint bits.
    prefix_shift: u32,
    /// Number of leading fingerprint bits that form a coverage prefix.
    prefix_bits: u32,
    /// Interned action-definition names (shared by all workers of a run).
    labels: LabelTable,
}

/// A point-in-time summary of a [`CoverageMap`], reported alongside exploration stats
/// (and serialized into `BENCH_explore.json` by the bench harness).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoverageSnapshot {
    /// Number of distinct fingerprint prefixes visited.
    pub distinct_prefixes: usize,
    /// Total state visits recorded (one per trace step).
    pub total_hits: u64,
    /// The highest hit count of any single prefix (a measure of how hot the hottest
    /// region was; uniform sampling drives this far above the mean).
    pub max_prefix_hits: u64,
    /// Number of distinct action definitions taken.
    pub distinct_actions: usize,
    /// Total contended lock acquisitions across all stripes.
    pub contention: u64,
}

impl CoverageMap {
    /// Creates a map with `shards` lock stripes (rounded up to a power of two) counting
    /// hits at `prefix_bits`-bit fingerprint-prefix granularity, clamped to 1..=32 so a
    /// prefix fits the `u32` key its counter is stored under ([`Self::prefix_bits`]
    /// reports the clamped value).
    ///
    /// Coarser prefixes (fewer bits) make more states count as "the same region" and
    /// push exploration away from anything resembling a visited state; finer prefixes
    /// approach per-state novelty search.
    pub fn new(shards: usize, prefix_bits: u32) -> Self {
        let n = shards.max(1).next_power_of_two();
        let prefix_bits = prefix_bits.clamp(1, 32);
        CoverageMap {
            shards: (0..n)
                .map(|_| CoverageShard {
                    prefixes: Mutex::new(HashMap::new()),
                    actions: Mutex::new(HashMap::new()),
                    contention: AtomicU64::new(0),
                })
                .collect(),
            mask: n - 1,
            prefix_shift: 64 - prefix_bits,
            prefix_bits,
            labels: LabelTable::new(),
        }
    }

    /// The number of leading fingerprint bits that form a coverage prefix.
    pub fn prefix_bits(&self) -> u32 {
        self.prefix_bits
    }

    /// The coverage prefix of a fingerprint: its leading [`Self::prefix_bits`] bits.
    pub fn prefix_of(&self, fp: Fingerprint) -> u32 {
        // At most 32 bits survive the shift.
        (fp.0 >> self.prefix_shift) as u32
    }

    fn shard_index(&self, prefix: u32) -> usize {
        // The prefix already is the leading bits; stripe by its low bits so neighbouring
        // prefixes spread across stripes.
        (prefix as usize) & self.mask
    }

    /// The stripe owning an action definition's counter: the definition's dense
    /// interned id, so a definition always lives on exactly one stripe and lookups
    /// lock only that one (no string hashing on the per-successor hot path).
    fn action_shard_index(&self, id: LabelId) -> usize {
        (id.0 as usize) & self.mask
    }

    /// Records one visit of the state with fingerprint `fp` reached by `action`, and
    /// returns the prefix's hit count *before* this visit (so the caller can reason
    /// about how novel the step was).
    ///
    /// The explorer calls this **at most once per trace per prefix** (and
    /// [`CoverageMap::record_action`] for the remaining steps), so a prefix counter
    /// reads as "number of traces that visited this region" and
    /// [`CoverageSnapshot::max_prefix_hits`] can never exceed the trace count.  The
    /// earlier every-step recording double-counted within-trace revisits — the
    /// `max_prefix_hits: 8193` from 8192 traces in the committed `BENCH_explore.json`
    /// artefact came from a walk stepping back into the initial state's region.
    pub fn record(&self, fp: Fingerprint, action: &str) -> u64 {
        let prefix = self.prefix_of(fp);
        let shard = &self.shards[self.shard_index(prefix)];
        let before = {
            let mut prefixes = shard.prefixes.lock_counting(&shard.contention);
            let slot = prefixes.entry(prefix).or_insert(0);
            let before = *slot;
            *slot = slot.saturating_add(1);
            u64::from(before)
        };
        self.record_action(action);
        before
    }

    /// Records one taken step of `action` without touching any prefix counter.
    ///
    /// Used by the explorer for steps whose state region was already recorded earlier
    /// in the same trace: action counters keep counting *steps* (how often a
    /// definition fires) while prefix counters count *traces* (how many walks reached
    /// a region).
    pub fn record_action(&self, action: &str) {
        let id = self.labels.intern(action_name(action));
        let action_shard = &self.shards[self.action_shard_index(id)];
        let mut actions = action_shard.actions.lock_counting(&action_shard.contention);
        *actions.entry(id).or_insert(0) += 1;
    }

    /// Hit count of the state region containing `fp`.
    pub fn prefix_hits(&self, fp: Fingerprint) -> u64 {
        let prefix = self.prefix_of(fp);
        let shard = &self.shards[self.shard_index(prefix)];
        let prefixes = shard.prefixes.lock_counting(&shard.contention);
        prefixes.get(&prefix).copied().map_or(0, u64::from)
    }

    /// Total hit count of an action definition (instantiation arguments are ignored, so
    /// `NodeCrash(0)` and `NodeCrash(2)` share one counter).
    ///
    /// A definition's counter lives on exactly one stripe (keyed by the interned
    /// [`LabelId`] of its name), so this locks a single stripe — it is on the guided
    /// explorer's per-successor hot path.
    pub fn action_hits_total(&self, action: &str) -> u64 {
        let id = self.labels.intern(action_name(action));
        let shard = &self.shards[self.action_shard_index(id)];
        let actions = shard.actions.lock_counting(&shard.contention);
        actions.get(&id).copied().unwrap_or(0)
    }

    /// Summarizes the map.
    pub fn snapshot(&self) -> CoverageSnapshot {
        let mut snap = CoverageSnapshot::default();
        for shard in &self.shards {
            {
                let prefixes = shard.prefixes.lock_counting(&shard.contention);
                snap.distinct_prefixes += prefixes.len();
                for &hits in prefixes.values() {
                    snap.total_hits += u64::from(hits);
                    snap.max_prefix_hits = snap.max_prefix_hits.max(u64::from(hits));
                }
            }
            {
                // A definition lives on exactly one stripe, so per-stripe map sizes sum
                // to the distinct-definition count.
                let actions = shard.actions.lock_counting(&shard.contention);
                snap.distinct_actions += actions.len();
            }
            // ordering: Relaxed — contention counts are observability only.
            snap.contention += shard.contention.load(Ordering::Relaxed);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;

    #[test]
    fn records_and_reports_hits() {
        let map = CoverageMap::new(8, 16);
        let fp = fingerprint(&42u64);
        assert_eq!(map.prefix_hits(fp), 0);
        assert_eq!(map.record(fp, "Step(1)"), 0);
        assert_eq!(map.record(fp, "Step(2)"), 1);
        assert_eq!(map.prefix_hits(fp), 2);
        assert_eq!(
            map.action_hits_total("Step(9)"),
            2,
            "arguments share a counter"
        );
        let snap = map.snapshot();
        assert_eq!(snap.total_hits, 2);
        assert_eq!(snap.distinct_prefixes, 1);
        assert_eq!(snap.distinct_actions, 1);
        assert_eq!(snap.max_prefix_hits, 2);
    }

    #[test]
    fn prefix_granularity_buckets_states() {
        // With a 1-bit prefix there are only two regions, so two distinct states very
        // likely share one (and certainly at most two exist).
        let map = CoverageMap::new(1, 1);
        for i in 0..64u64 {
            map.record(fingerprint(&i), "A");
        }
        let snap = map.snapshot();
        assert!(snap.distinct_prefixes <= 2);
        assert_eq!(snap.total_hits, 64);
    }

    #[test]
    fn wide_prefix_requests_are_clamped_to_32_bits() {
        // A prefix is stored as a `u32` key, so a 40-bit request keeps 32 bits and
        // still counts every visit exactly.
        let map = CoverageMap::new(8, 40);
        assert_eq!(map.prefix_bits(), 32);
        let states: Vec<u64> = (0..48).chain(0..16).collect();
        for (visit, state) in states.iter().enumerate() {
            let fp = fingerprint(state);
            let expected = states[..visit].iter().filter(|s| *s == state).count() as u64;
            assert_eq!(map.prefix_of(fp), (fp.0 >> 32) as u32);
            assert_eq!(map.record(fp, "Visit(0)"), expected);
            assert_eq!(map.prefix_hits(fp), expected + 1);
        }
        let snap = map.snapshot();
        assert_eq!(snap.total_hits, states.len() as u64);
        assert_eq!(snap.distinct_prefixes, 48);
        assert_eq!(snap.max_prefix_hits, 2);
    }

    #[test]
    fn action_definition_strips_arguments() {
        // Coverage keys an action by its definition name, so every instantiation of a
        // definition shares one counter, and a bare label is its own definition.
        let map = CoverageMap::new(8, 16);
        map.record_action("NodeCrash(2)");
        map.record_action("Init");
        map.record_action("Elect(1, [1, 2])");
        map.record_action("Elect(2, [0])");
        assert_eq!(map.action_hits_total("NodeCrash"), 1);
        assert_eq!(map.action_hits_total("Init"), 1);
        assert_eq!(map.action_hits_total("Elect"), 2);
        assert_eq!(map.snapshot().distinct_actions, 3);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let map = CoverageMap::new(4, 12);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..256u64 {
                        map.record(
                            fingerprint(&(i % 16)),
                            if t % 2 == 0 { "A(0)" } else { "B(1)" },
                        );
                    }
                });
            }
        });
        let snap = map.snapshot();
        assert_eq!(snap.total_hits, 4 * 256);
        assert_eq!(snap.distinct_actions, 2);
        assert_eq!(
            map.action_hits_total("A") + map.action_hits_total("B"),
            4 * 256
        );
    }
}

//! The out-of-core tier: spilled fingerprint runs, bloom-guarded disk probes, and
//! the knobs that decide when the in-RAM structures give way to files.
//!
//! This is the TLC-style disk-based fingerprint set (Yu/Manolios/Lamport): when a
//! store stripe's in-RAM *delta table* reaches its share of the configured memory
//! budget, the table is sorted and written out as an **immutable run** — a sorted
//! array of fixed-width `(key, slot)` records.  The key is a 128-bit [`Fingerprint`]:
//! the state's key in a fingerprint-only store, and in a Full store the digest of
//! the state's row, read out of the arena when the row index is flushed.  Membership
//! probes consult the delta table first, then each run through a per-run in-RAM bloom
//! filter; only a bloom hit pays a disk read, which fetches one fence-indexed block
//! and binary searches it.  Runs are mutually disjoint *by construction* (a key is
//! deduplicated against every run before it may enter the delta table), so probe
//! order never affects the answer and spilling cannot change which states a run
//! discovers — only where their keys live.
//!
//! Only the dedup keys go out of core.  A Full store's rows stay resident, and so does
//! a BFS level: 4 bytes per state (the kernel keeps indices and rebuilds each parent
//! from the store), less than the store pays per state.  The module also provides the
//! [`SpillConfig`] / [`SpillStats`] types the option and outcome structs surface.
//!
//! Everything here is `std`-only: plain files via [`std::os::unix::fs::FileExt`]
//! positioned reads (no memory mapping — the workspace denies `unsafe`).

use crate::fingerprint::Fingerprint;
use crate::sync::{AtomicU64, Ordering};
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Bytes of one spilled record: two 64-bit fingerprint halves plus the 32-bit local
/// slot the entry maps to.
pub(crate) const RECORD_BYTES: usize = 20;

/// Records per fence-indexed block: a probe that passes the bloom filter reads one
/// `256 × 20 = 5120`-byte block and binary searches it in memory.
const FENCE_EVERY: usize = 256;

/// Estimated resident bytes of one delta-table entry (`HashMap<Fingerprint, u32>`
/// payload plus load-factor and control overhead); used to translate the byte budget
/// into a per-stripe flush threshold.  A Full store's row index keeps the same
/// threshold, so a budget spills at the same points in both backends, though its
/// entries are smaller.
pub(crate) const DELTA_ENTRY_BYTES: usize = 48;

/// The smallest delta table worth flushing: below this, run files would degenerate
/// into per-entry syscalls.
pub(crate) const MIN_FLUSH_ENTRIES: usize = 8;

/// Where (and whether) a run may spill its fingerprint set to disk.
///
/// The default is fully in-RAM (`budget_bytes: None`); a run goes out of core only
/// when its options carry a budget (`SpillConfig::in_ram().with_budget_bytes(..)`, or
/// `CheckOptions::with_mem_budget`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillConfig {
    /// Memory budget in bytes for the store's dedup tables: each stripe's table (a
    /// fingerprint map, or a Full store's row index) is flushed to a sorted run file
    /// once it holds its share at 48 bytes per entry — a fingerprint map's cost, the
    /// threshold in both backends.  Rows, the intern pool and the BFS
    /// frontier (4 bytes per state) stay resident.  `None` disables spilling
    /// entirely.
    pub budget_bytes: Option<u64>,
    /// Directory spill files are created under (a unique per-store subdirectory is
    /// created inside it and removed when the store drops).  `None` uses the system
    /// temp directory.
    pub dir: Option<PathBuf>,
}

impl SpillConfig {
    /// A configuration that never spills (the default).
    pub fn in_ram() -> SpillConfig {
        SpillConfig::default()
    }

    /// Sets the memory budget in bytes.
    pub fn with_budget_bytes(mut self, bytes: u64) -> SpillConfig {
        self.budget_bytes = Some(bytes);
        self
    }

    /// Sets the directory spill files live under.
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> SpillConfig {
        self.dir = Some(dir.into());
        self
    }

    /// `true` when a budget is set, i.e. the out-of-core tier is armed.
    pub fn is_active(&self) -> bool {
        self.budget_bytes.is_some()
    }
}

/// Out-of-core activity counters of one run, surfaced in `CheckStats` and
/// `RefineStats`.  All-zero when everything fit in the budget (or no budget was set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// The configured memory budget in bytes; `0` when spilling was off.
    pub budget_bytes: u64,
    /// Immutable sorted runs written to disk.
    pub runs_spilled: u64,
    /// Fingerprint-set entries moved out of RAM into runs.
    pub entries_spilled: u64,
    /// Bytes written to run files.
    pub bytes_spilled: u64,
    /// Membership probes that passed a bloom filter and paid a disk read.
    pub disk_probes: u64,
    /// Membership probes a bloom filter answered negatively without touching disk.
    pub bloom_negatives: u64,
}

impl SpillStats {
    /// `true` when the run actually exceeded its memory budget: the fingerprint set
    /// spilled runs.
    pub fn spilled(&self) -> bool {
        self.runs_spilled > 0
    }
}

/// Atomic counterpart of [`SpillStats`], updated concurrently by shard handles.
#[derive(Debug, Default)]
pub(crate) struct SpillCounters {
    pub runs_spilled: AtomicU64,
    pub entries_spilled: AtomicU64,
    pub bytes_spilled: AtomicU64,
    pub disk_probes: AtomicU64,
    pub bloom_negatives: AtomicU64,
}

impl SpillCounters {
    pub fn snapshot(&self, budget_bytes: u64) -> SpillStats {
        // ordering: Relaxed (×5) — counters are statistics reported after the run;
        // nothing branches on them while workers are live.
        SpillStats {
            budget_bytes,
            runs_spilled: self.runs_spilled.load(Ordering::Relaxed), // ordering: see above.
            entries_spilled: self.entries_spilled.load(Ordering::Relaxed), // ordering: see above.
            bytes_spilled: self.bytes_spilled.load(Ordering::Relaxed), // ordering: see above.
            disk_probes: self.disk_probes.load(Ordering::Relaxed),   // ordering: see above.
            bloom_negatives: self.bloom_negatives.load(Ordering::Relaxed), // ordering: see above.
        }
    }
}

/// Creates the unique per-store spill directory under `base` (or the system temp
/// directory), named by pid and a process-wide sequence number so concurrent stores
/// never collide.
pub(crate) fn create_spill_dir(base: Option<&Path>) -> io::Result<PathBuf> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let base = base
        .map(Path::to_path_buf)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!(
        "remix-spill-{}-{}",
        std::process::id(),
        // ordering: Relaxed — the RMW alone guarantees unique values; no other
        // memory is published with the sequence number.
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Total sort key of a fingerprint (the record order of run files).
#[inline]
fn key(fp: Fingerprint) -> u128 {
    ((fp.0 as u128) << 64) | fp.1 as u128
}

/// A blocked bloom filter over one run's fingerprints: ~10 bits and 4 probes per
/// key (≈1% false-positive rate), so a negative membership probe usually costs four
/// cache lines of RAM instead of a disk read.  The two independently keyed SipHash
/// halves of [`Fingerprint`] supply the double-hashing pair directly.
struct Bloom {
    words: Vec<u64>,
    /// `words.len() * 64 - 1`; the bit count is a power of two.
    bit_mask: u64,
}

const BLOOM_BITS_PER_KEY: usize = 10;
const BLOOM_PROBES: u64 = 4;

impl Bloom {
    fn with_capacity(keys: usize) -> Bloom {
        let bits = (keys * BLOOM_BITS_PER_KEY).next_power_of_two().max(64);
        Bloom {
            words: vec![0u64; bits / 64],
            bit_mask: bits as u64 - 1,
        }
    }

    #[inline]
    fn insert(&mut self, fp: Fingerprint) {
        for i in 0..BLOOM_PROBES {
            let bit = fp.0.wrapping_add(i.wrapping_mul(fp.1)) & self.bit_mask;
            self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    #[inline]
    fn maybe_contains(&self, fp: Fingerprint) -> bool {
        (0..BLOOM_PROBES).all(|i| {
            let bit = fp.0.wrapping_add(i.wrapping_mul(fp.1)) & self.bit_mask;
            self.words[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }
}

/// One immutable sorted run of `(fingerprint, slot)` records on disk, with its
/// in-RAM bloom filter and fence index (the first key and byte offset of every
/// [`FENCE_EVERY`]-record block).
pub(crate) struct SpillRun {
    file: File,
    records: usize,
    fences: Vec<(u128, u64)>,
    bloom: Bloom,
}

impl SpillRun {
    /// Sorts `entries` and writes them as a new run at `path` (which must not exist).
    pub fn write(path: &Path, mut entries: Vec<(Fingerprint, u32)>) -> io::Result<SpillRun> {
        entries.sort_unstable_by_key(|(fp, _)| key(*fp));
        let mut bloom = Bloom::with_capacity(entries.len());
        let mut fences = Vec::with_capacity(entries.len().div_ceil(FENCE_EVERY));
        let mut buf = Vec::with_capacity(entries.len() * RECORD_BYTES);
        for (i, (fp, slot)) in entries.iter().enumerate() {
            if i % FENCE_EVERY == 0 {
                fences.push((key(*fp), (i * RECORD_BYTES) as u64));
            }
            bloom.insert(*fp);
            buf.extend_from_slice(&fp.0.to_le_bytes());
            buf.extend_from_slice(&fp.1.to_le_bytes());
            buf.extend_from_slice(&slot.to_le_bytes());
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        file.write_all_at(&buf, 0)?;
        Ok(SpillRun {
            file,
            records: entries.len(),
            fences,
            bloom,
        })
    }

    /// Number of records in this run.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Looks up `fp`, consulting the bloom filter before touching disk.
    ///
    /// # Panics
    ///
    /// Panics when the run file has become unreadable: silently treating a stored
    /// fingerprint as new would corrupt the exploration (duplicate slots, broken
    /// determinism), so an I/O error here is fatal by design.
    pub fn probe(&self, fp: Fingerprint, counters: &SpillCounters) -> Option<u32> {
        if !self.bloom.maybe_contains(fp) {
            // ordering: Relaxed (here and below) — probe counters are statistics only.
            counters.bloom_negatives.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        counters.disk_probes.fetch_add(1, Ordering::Relaxed); // ordering: see above.
        let k = key(fp);
        // The last fence whose first key is <= k owns the only block that can hold k.
        let block = match self.fences.partition_point(|(first, _)| *first <= k) {
            0 => return None,
            i => i - 1,
        };
        let offset = self.fences[block].1;
        let in_block = FENCE_EVERY.min(self.records - block * FENCE_EVERY);
        let mut buf = vec![0u8; in_block * RECORD_BYTES];
        self.file
            .read_exact_at(&mut buf, offset)
            .expect("spill run became unreadable; cannot continue soundly");
        // Binary search the block's fixed-width records.
        let (mut lo, mut hi) = (0usize, in_block);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let at = mid * RECORD_BYTES;
            let rec_key = {
                let hi64 = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
                let lo64 = u64::from_le_bytes(buf[at + 8..at + 16].try_into().unwrap());
                ((hi64 as u128) << 64) | lo64 as u128
            };
            match rec_key.cmp(&k) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let at = mid * RECORD_BYTES + 16;
                    return Some(u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(i: u64) -> Fingerprint {
        // Spread keys so sort order differs from insertion order.
        Fingerprint(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), !i)
    }

    #[test]
    fn run_round_trips_every_entry_and_rejects_absent_keys() {
        let dir = create_spill_dir(None).unwrap();
        let entries: Vec<(Fingerprint, u32)> = (0..1000u64).map(|i| (fp(i), i as u32)).collect();
        let run = SpillRun::write(&dir.join("run-0.fps"), entries.clone()).unwrap();
        assert_eq!(run.len(), 1000);
        let counters = SpillCounters::default();
        for (f, slot) in &entries {
            assert_eq!(run.probe(*f, &counters), Some(*slot));
        }
        assert_eq!(counters.disk_probes.load(Ordering::Relaxed), 1000);
        let mut negatives = 0;
        for i in 1000..3000u64 {
            if run.probe(fp(i), &counters).is_none() {
                negatives += 1;
            } else {
                panic!("absent key reported present");
            }
        }
        assert_eq!(negatives, 2000);
        assert!(
            counters.bloom_negatives.load(Ordering::Relaxed) > 1500,
            "the bloom filter must answer most absent probes without disk reads: {}",
            counters.bloom_negatives.load(Ordering::Relaxed)
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

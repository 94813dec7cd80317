//! Model-checking and simulation options.

use std::fmt;
use std::time::Duration;

use crate::spill::SpillConfig;
use crate::store::StoreMode;

/// Whether BFS keys its dedup maps and fingerprints on canonical representatives under
/// the specification's symmetry group (`check_dfs`, `check_refinement` and `explore`
/// accept only [`SymmetryMode::Off`]).
///
/// With `n` symmetric servers every reachable `ZabState` has up to `n!` siblings that
/// differ only by a renaming of server ids; canonicalization explores one representative
/// per orbit, cutting `distinct_states` (and the memory/throughput axis of Table 5)
/// accordingly.  Violation traces are *de-canonicalized* before they are reported: the
/// recorded chain is replayed on the original specification.  That replay needs the
/// successor relation to be equivariant along the chain; where a step is not, a
/// [`StoreMode::Full`] run reports the stored canonical-frame chain instead, which need
/// not replay step-by-step (see the symmetry section of `ARCHITECTURE.md`).
///
/// The mode is a no-op for specifications without an attached symmetry group
/// (`Spec::symmetry` is `None`), so it is safe to select for state types that
/// implement no `Canonicalize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SymmetryMode {
    /// Explore every concrete state (no symmetry reduction).  The default.
    #[default]
    Off,
    /// Key dedup and fingerprints on canonical representatives (`Spec::symmetry`),
    /// storing the per-edge permutations so violation traces can be de-canonicalized
    /// back into the original id frame.
    Canonicalize,
}

impl fmt::Display for SymmetryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SymmetryMode::Off => "off",
            SymmetryMode::Canonicalize => "canonicalize",
        })
    }
}

/// Whether checking stops at the first invariant violation or runs to completion.
///
/// These are the two modes of Table 5: "(a) stopping at the first violation" and
/// "(b) running to completion (till the limit)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Stop as soon as any invariant violation is found (Table 5, mode (a)).  With one
    /// worker BFS reports the first violating state in (frontier, enumeration) order —
    /// the order of the textbook queue loop, and TLC's: successors meet the store one
    /// parent at a time, in the order the parent enumerated them, and the run ends at
    /// the one that asked for the stop.  With several workers it is a violating state
    /// of the same (minimal) depth, chosen by `(invariant, fingerprint)` among those the
    /// workers reached before they saw the stop.
    #[default]
    FirstViolation,
    /// Keep exploring; record up to `violation_limit` violating states (Table 5, mode (b)).
    Completion {
        /// Maximum number of violations recorded before stopping (the paper uses 10,000).
        violation_limit: usize,
    },
}

/// Options controlling an exhaustive model-checking run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Stop-at-first-violation or run-to-completion — the two measurement modes of
    /// Table 5 ((a) and (b) respectively).
    pub mode: CheckMode,
    /// Maximum exploration depth in state transitions; `None` means unbounded.  Depth
    /// bounding is not used for the paper's tables (BFS levels are bounded by the
    /// configuration's fault and transaction budgets instead, §4.4) but supports quick
    /// sanity checks.
    pub max_depth: Option<u32>,
    /// Wall-clock budget; `None` means unbounded.  The paper's Table 5 runs use a
    /// 24-hour budget; the scaled-down reproduction defaults to minutes.
    pub time_budget: Option<Duration>,
    /// Maximum number of distinct states to explore; `None` means unbounded.  Used to
    /// bound the deep Table 4 bugs (ZK-4643/4646/4712) in bench loops.  The limit is
    /// checked at every fresh insert and a worker looks for a stop request before each
    /// insert, so the final count overshoots by at most one parent's successors per
    /// worker (by none at one worker).
    pub max_states: Option<usize>,
    /// Number of worker threads expanding each BFS frontier, like TLC's `-workers` flag
    /// (§4.4: the paper's runs use a 40-core machine).  `1` runs inline on the calling
    /// thread with no thread spawns.
    pub workers: usize,
    /// Number of lock stripes of the discovered-state set (rounded up to a power of
    /// two).  A [`StoreMode::FingerprintOnly`] store routes each insert to a stripe by
    /// the leading bits of its `state_key`; a [`StoreMode::Full`] one by its row's hash,
    /// after interning it under the pool's lock.  Inserts only contend when two workers
    /// hit the same stripe, so this should comfortably exceed `workers`; the default of
    /// 64 keeps contention (reported in `CheckStats::shard_contention`) negligible for
    /// any realistic core count.
    pub shards: usize,
    /// Ignored — results never depended on it; deleted in the next `benchmark` PR.
    pub batch_size: usize,
    /// Whether to keep full predecessor information for violation-trace reconstruction
    /// (the counterexample traces of §3.5.3 / Table 4).
    pub collect_traces: bool,
    /// Which backend discovered states are kept in: the compact full-state arena
    /// ([`StoreMode::Full`], the default), or the TLC-style memory-bounded
    /// [`StoreMode::FingerprintOnly`] store that drops full states and reconstructs
    /// violation traces by bounded re-exploration of the recorded `(parent, label)`
    /// chains, in BFS (`check_dfs` accepts only [`StoreMode::Full`]).  See
    /// [`crate::store`] for the memory model.
    pub store_mode: StoreMode,
    /// Whether BFS's dedup, fingerprints and violation bookkeeping key on canonical
    /// representatives under the specification's symmetry group (see [`SymmetryMode`]).
    /// Defaults to [`SymmetryMode::Off`]; a no-op for specifications without
    /// `Spec::symmetry`.
    pub symmetry: SymmetryMode,
    /// The out-of-core tier: when a memory budget is set, the store spills its dedup
    /// keys to sorted disk runs, so runs whose dedup tables exceed RAM still finish
    /// (with the same results; spilling never changes what is explored).  Both engines
    /// honour it.  Defaults to [`SpillConfig::in_ram`]; arm it with
    /// [`CheckOptions::with_mem_budget`].
    pub spill: SpillConfig,
    /// Ignored — results never depended on it; deleted in the next `benchmark` PR.
    pub route_by_owner: bool,
    /// BFS's dynamic partial-order reduction via sleep sets (`check_dfs` refuses it):
    /// transitions whose declared read/write footprints ([`remix_spec::Effect`]) prove
    /// them independent of an already-explored sibling are pruned, reported in
    /// `CheckStats::pruned_transitions`.  Sound for safety properties: every reachable
    /// state is still reached at its minimal depth, only redundant interleavings
    /// between two reached states are skipped, so verdicts, distinct state counts and
    /// minimal violation depths are unchanged — see the partial-order reduction section
    /// of `ARCHITECTURE.md`.  A no-op for actions without declared effects.  Off by
    /// default.
    pub por: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            mode: CheckMode::FirstViolation,
            max_depth: None,
            time_budget: None,
            max_states: None,
            workers: 1,
            shards: 64,
            batch_size: 128,
            collect_traces: true,
            store_mode: StoreMode::Full,
            symmetry: SymmetryMode::Off,
            spill: SpillConfig::in_ram(),
            route_by_owner: false,
            por: false,
        }
    }
}

impl CheckOptions {
    /// Options for a run-to-completion check with the paper's violation limit of 10,000.
    pub fn completion() -> Self {
        CheckOptions {
            mode: CheckMode::Completion {
                violation_limit: 10_000,
            },
            ..Default::default()
        }
    }

    /// Sets the wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets the maximum depth.
    pub fn with_max_depth(mut self, depth: u32) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Sets the maximum number of distinct states.
    pub fn with_max_states(mut self, states: usize) -> Self {
        self.max_states = Some(states);
        self
    }

    /// Sets the number of worker threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the number of lock stripes of the discovered-state set.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Selects the discovered-state store backend.
    pub fn with_store_mode(mut self, mode: StoreMode) -> Self {
        self.store_mode = mode;
        self
    }

    /// Selects the symmetry-reduction mode.
    pub fn with_symmetry(mut self, mode: SymmetryMode) -> Self {
        self.symmetry = mode;
        self
    }

    /// Sets the out-of-core configuration (memory budget + spill directory).
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = spill;
        self
    }

    /// Arms the out-of-core tier with a memory budget in bytes (shorthand for
    /// [`CheckOptions::with_spill`] on the current config).
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.spill.budget_bytes = Some(bytes);
        self
    }

    /// Enables or disables sleep-set partial-order reduction (see the field docs).
    pub fn with_por(mut self, on: bool) -> Self {
        self.por = on;
        self
    }
}

/// Options controlling random simulation (used by conformance checking, §3.5.2).
#[derive(Debug, Clone)]
pub struct SimulationOptions {
    /// Number of traces to generate (§3.5.2 samples model-level traces to replay against
    /// the implementation).
    pub traces: usize,
    /// Maximum length (in transitions) of each trace.
    pub max_depth: u32,
    /// Wall-clock budget for the whole sampling run (the paper uses e.g. 30 minutes).
    /// When it binds, how many trace indices complete before the cut-off depends on
    /// scheduling, so budget-limited batches are not comparable across worker counts.
    pub time_budget: Option<Duration>,
    /// Random seed for reproducibility: trace `i` samples from the sub-stream
    /// `CheckerRng::for_trace(seed, i)`, so equal seeds yield identical trace batches
    /// for any `workers` value (absent a binding time budget).
    pub seed: u64,
    /// Worker threads sampling disjoint stripes of the trace-index space concurrently
    /// (the parallelization contract of the conformance checker's replay, §3.5.2).
    /// `1` runs inline on the calling thread.
    pub workers: usize,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            traces: 32,
            max_depth: 40,
            time_budget: None,
            seed: 0xC0FFEE,
            workers: 1,
        }
    }
}

impl SimulationOptions {
    /// Sets the number of traces to sample.
    pub fn with_traces(mut self, traces: usize) -> Self {
        self.traces = traces;
        self
    }

    /// Sets the per-trace depth bound.
    pub fn with_max_depth(mut self, depth: u32) -> Self {
        self.max_depth = depth;
        self
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of sampling worker threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let o = CheckOptions::default();
        assert_eq!(o.mode, CheckMode::FirstViolation);
        assert_eq!(o.workers, 1);
        assert_eq!(o.store_mode, StoreMode::Full);
        assert_eq!(o.symmetry, SymmetryMode::Off);
        assert_eq!(o.spill, SpillConfig::in_ram());
        assert!(!o.por);
        assert!(o.collect_traces);
        assert!(o.shards >= 1);
        let c = CheckOptions::completion();
        assert_eq!(
            c.mode,
            CheckMode::Completion {
                violation_limit: 10_000
            }
        );
    }

    #[test]
    fn builders_apply() {
        let o = CheckOptions::default()
            .with_max_depth(5)
            .with_max_states(100)
            .with_workers(0)
            .with_shards(0)
            .with_store_mode(StoreMode::FingerprintOnly)
            .with_symmetry(SymmetryMode::Canonicalize)
            .with_mem_budget(1 << 20)
            .with_por(true)
            .with_time_budget(Duration::from_secs(1));
        assert_eq!(o.store_mode, StoreMode::FingerprintOnly);
        assert_eq!(o.symmetry, SymmetryMode::Canonicalize);
        assert_eq!(o.spill.budget_bytes, Some(1 << 20));
        assert!(o.por);
        assert_eq!(o.max_depth, Some(5));
        assert_eq!(o.max_states, Some(100));
        assert_eq!(o.workers, 1, "worker count is clamped to at least one");
        assert_eq!(o.shards, 1, "shard count is clamped to at least one");
        assert_eq!(o.time_budget, Some(Duration::from_secs(1)));
    }
}

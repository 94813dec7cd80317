//! Results of a model-checking run: statistics, violations and counterexample traces.

use std::collections::BTreeSet;
use std::fmt;
use std::time::{Duration, Instant};

use remix_spec::Trace;

/// Why exploration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The full reachable state space (within the depth bound) was explored.
    Exhausted,
    /// A violation was found and the mode was stop-at-first-violation.
    FirstViolation,
    /// The violation limit of the run-to-completion mode was reached.
    ViolationLimit,
    /// The wall-clock budget expired.
    TimeBudget,
    /// The distinct-state limit was reached.
    StateLimit,
    /// The depth bound was reached on every frontier path.
    DepthBound,
}

impl StopReason {
    /// Stable snake-case serialization used in JSON rows (`exhausted` /
    /// `first_violation` / `violation_limit` / `time_budget` / `state_limit` /
    /// `depth_bound`).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Exhausted => "exhausted",
            StopReason::FirstViolation => "first_violation",
            StopReason::ViolationLimit => "violation_limit",
            StopReason::TimeBudget => "time_budget",
            StopReason::StateLimit => "state_limit",
            StopReason::DepthBound => "depth_bound",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Exhausted => "state space exhausted",
            StopReason::FirstViolation => "stopped at first violation",
            StopReason::ViolationLimit => "violation limit reached",
            StopReason::TimeBudget => "time budget exhausted",
            StopReason::StateLimit => "state limit reached",
            StopReason::DepthBound => "depth bound reached",
        };
        f.write_str(s)
    }
}

/// Aggregate statistics of a checking run (the columns of Tables 4-6).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckStats {
    /// Number of distinct states explored.
    pub distinct_states: usize,
    /// Number of state transitions generated (successor evaluations).
    pub transitions: u64,
    /// Maximum depth (number of transitions from an initial state) reached.
    pub max_depth: u32,
    /// The most states one BFS level expanded (re-enqueued states included; 0 for
    /// DFS).  The frontier's resident share of a run's memory is this many entries: 4
    /// bytes each with the full-state store, a whole state each without it.
    pub widest_level: usize,
    /// Wall-clock time of the run, from the engine's entry until its discovered-state
    /// store has been freed — what a caller waits for the verdict.
    pub elapsed: Duration,
    /// The part of `elapsed` spent freeing the store and the engine's own work lists
    /// after exploration stopped (`elapsed - teardown` is the exploration itself).
    pub teardown: Duration,
    /// Transitions generated by each worker thread (index = worker id).  Sequential runs
    /// have a single entry equal to `transitions`; a balanced parallel run has roughly
    /// equal entries, so skew here points at frontier imbalance.
    pub per_worker_transitions: Vec<u64>,
    /// Per-stripe contention counters of the discovered-state set, one per stripe the
    /// store has: how many lock acquisitions on each stripe had to wait (a stripe is
    /// locked once per edge).  High values relative to `transitions` mean
    /// `CheckOptions::shards` should be raised.  Waits on a Full store's intern pool,
    /// taken once per edge before the stripe, are not counted here.
    pub shard_contention: Vec<u64>,
    /// Peak resident entry-payload bytes of the discovered-state store (the store is
    /// append-only, so the final size is the peak).  Counts the fixed per-entry
    /// metadata, the dedup entry (a fingerprint-map entry, or in the full-state backend
    /// a row-index bucket and the state's row of pool slots), and under symmetry
    /// reduction the recorded permutation; see `StateStore::entry_bytes_per_state` for
    /// the exact accounting.
    pub peak_entry_bytes: usize,
    /// Fixed bytes the selected store backend pays per discovered state, all of them
    /// beginning with the 8-byte `(parent, label)` record.  The fingerprint-only
    /// backend adds its dedup entry, fingerprint key and slot: 28 in all.  The
    /// full-state backend adds the 16-bit units its stripes hold the state's row in (2
    /// bytes per word, 4 in a stripe that has stored a wider word) and a 5-byte
    /// row-index bucket (a slot and a tag): 29 on three servers.  Symmetry reduction
    /// adds 16 for the recorded `Perm` (44 and 45).  The intern pool the rows point into
    /// is shared by all states and not counted.
    pub entry_bytes_per_state: usize,
    /// Out-of-core activity: fingerprint runs spilled to disk and probe traffic.
    /// All-zero when no memory budget was configured or everything fit.
    pub spill: crate::spill::SpillStats,
    /// Transitions pruned by sleep-set partial-order reduction
    /// (`CheckOptions::por`): redundant interleavings whose declared footprints prove
    /// them independent of an already-explored sibling.  Not counted in `transitions`.
    pub pruned_transitions: u64,
    /// Canonicalization tie groups that overflowed every refinement stage during this
    /// run and fell back to a non-orbit-invariant ordering (a dedup miss, never
    /// unsoundness).  Snapshot of `remix_spec::canon_stats` scoped to the run; any
    /// nonzero value deserves investigation.
    pub canon_fallbacks: u64,
}

impl CheckStats {
    /// Frees `arena` — the run's store and whatever else the engine still holds — and
    /// stamps both clocks, so `elapsed` covers the drop instead of stopping before it.
    pub(crate) fn stamp_after_dropping(&mut self, start: Instant, arena: impl Sized) {
        let teardown = Instant::now();
        drop(arena);
        self.teardown = teardown.elapsed();
        self.elapsed = start.elapsed();
    }
}

/// An invariant violation together with its minimal-depth counterexample trace.
#[derive(Debug, Clone)]
pub struct Violation<S> {
    /// The identifier of the violated invariant (e.g. `"I-8"`).
    pub invariant: &'static str,
    /// The invariant's human-readable name.
    pub invariant_name: &'static str,
    /// Depth (number of transitions) at which the violation was found.
    pub depth: u32,
    /// The counterexample trace from an initial state to the violating state.  Empty when
    /// trace collection was disabled.
    pub trace: Trace<S>,
}

/// The outcome of a model-checking run.
#[derive(Debug, Clone)]
pub struct CheckOutcome<S> {
    /// The name of the checked specification.
    pub spec_name: String,
    /// Exploration statistics.
    pub stats: CheckStats,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Recorded violations (at most one in first-violation mode).
    pub violations: Vec<Violation<S>>,
    /// Total number of violating states encountered (may exceed `violations.len()` in
    /// completion mode, where traces are only kept for the first violation of each
    /// invariant).
    pub violation_count: usize,
}

impl<S> CheckOutcome<S> {
    /// Returns `true` when no invariant violation was found.
    pub fn passed(&self) -> bool {
        self.violation_count == 0
    }

    /// The distinct identifiers of violated invariants, in order of identifier.
    pub fn violated_invariants(&self) -> Vec<&'static str> {
        let set: BTreeSet<&'static str> = self.violations.iter().map(|v| v.invariant).collect();
        set.into_iter().collect()
    }

    /// The first (minimal-depth) violation, if any.
    pub fn first_violation(&self) -> Option<&Violation<S>> {
        self.violations.iter().min_by_key(|v| v.depth)
    }
}

impl<S> fmt::Display for CheckOutcome<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "spec:            {}", self.spec_name)?;
        writeln!(f, "distinct states: {}", self.stats.distinct_states)?;
        writeln!(f, "transitions:     {}", self.stats.transitions)?;
        writeln!(f, "max depth:       {}", self.stats.max_depth)?;
        writeln!(f, "widest level:    {}", self.stats.widest_level)?;
        writeln!(f, "elapsed:         {:.2?}", self.stats.elapsed)?;
        writeln!(f, "teardown:        {:.2?}", self.stats.teardown)?;
        writeln!(f, "stop reason:     {}", self.stop_reason)?;
        writeln!(f, "violations:      {}", self.violation_count)?;
        for v in &self.violations {
            writeln!(
                f,
                "  {} ({}) at depth {}",
                v.invariant, v.invariant_name, v.depth
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        let outcome: CheckOutcome<u32> = CheckOutcome {
            spec_name: "toy".to_owned(),
            stats: CheckStats::default(),
            stop_reason: StopReason::Exhausted,
            violations: vec![
                Violation {
                    invariant: "I-10",
                    invariant_name: "History consistency",
                    depth: 13,
                    trace: Trace::default(),
                },
                Violation {
                    invariant: "I-8",
                    invariant_name: "Initial history integrity",
                    depth: 21,
                    trace: Trace::default(),
                },
            ],
            violation_count: 2,
        };
        assert!(!outcome.passed());
        assert_eq!(outcome.violated_invariants(), vec!["I-10", "I-8"]);
        assert_eq!(outcome.first_violation().unwrap().invariant, "I-10");
        let text = outcome.to_string();
        assert!(text.contains("I-8"));
        assert!(text.contains("widest level:"));
        assert!(text.contains("stopped") || text.contains("exhausted"));
    }

    #[test]
    fn stop_reason_display() {
        assert_eq!(StopReason::TimeBudget.to_string(), "time budget exhausted");
        assert_eq!(
            StopReason::FirstViolation.to_string(),
            "stopped at first violation"
        );
    }
}

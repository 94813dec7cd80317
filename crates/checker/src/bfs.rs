//! Breadth-first state-space exploration.
//!
//! BFS is the exploration strategy the paper uses (§4.4): it guarantees that the first
//! violation found for each invariant has minimal depth, which produces short, debuggable
//! counterexample traces.
//!
//! [`check_bfs`] is the level-synchronous kernel (the private `kernel` module:
//! index-only frontier, fork-join levels claimed from one cursor, insert-while-hot
//! staging, deterministic stop precedence) plus the invariant visitor defined here: every state
//! that enters the store is checked against the specification's invariants on the worker
//! that inserted it, and the violations of a level are resolved into traces at its
//! barrier.
//! Discovered states live in a lock-striped [`StateStore`]: `u32` state indices,
//! parent-by-index, interned action labels, and (in
//! [`StoreMode::Full`](crate::store::StoreMode)) each state as a row of pool slots,
//! which is also where the kernel reads every parent back from;
//! [`StoreMode::FingerprintOnly`](crate::store::StoreMode) drops the states entirely
//! for memory-bounded runs; see [`crate::store`].
//!
//! # Stop precedence
//!
//! Several stop conditions can trip within one level (a violation on one worker, the
//! state limit on another, the wall clock on a third).  Stop requests accumulate in a
//! bitmask and are resolved once per level under a fixed precedence — violation stops
//! over [`StopReason::StateLimit`] over [`StopReason::TimeBudget`] — so the reported
//! [`StopReason`] does not depend on which worker tripped its condition first.
//! Sequentially the abort point — and hence the fired set and reported reason — is
//! reproducible because states are claimed and flushed in a fixed order, while across
//! workers the fired set can vary with scheduling — the precedence then guarantees the
//! *resolution* over the fired set is still fixed, and a scheduling-dependent
//! wall-clock stop can never mask a violation stop.  Parallel and sequential runs
//! discover the same state space and report the same minimal violation depth (all
//! states of a level share one depth); see the `parallel_matches_sequential_*`
//! regression tests.
//!
//! # Partial-order reduction and symmetry
//!
//! Under [`CheckOptions::por`] the engine prunes redundant interleavings with sleep
//! sets derived from declared action footprints (see the `por` module): each frontier
//! state carries the set of labels already covered through a sibling ordering, pruned
//! transitions are skipped *before* canonicalization and fingerprinting, and the sleep
//! sets of all same-level arrival edges are intersected at the level barrier — which
//! keeps the reduction sound for safety properties, minimal-depth preserving, and
//! deterministic across worker counts.  Under symmetry reduction every surviving
//! successor is replaced by its orbit's canonical representative, by value
//! (`Spec::symmetry_owned`): a successor that is already canonical — the common case
//! for a canonical parent — is handed back as it is, not cloned.  Canonicalization
//! reads no footprint.  Both live in the shared successor pipeline (the private
//! `expand` module).

use std::ops::ControlFlow;
use std::time::Instant;

use remix_spec::{canon_stats, LabelTable, Spec, SpecState, Trace};

use crate::expand::Pipeline;
use crate::fingerprint::{state_key, Fingerprint};
use crate::kernel::{self, Arrival, LevelEnd, Run, Visitor};
use crate::options::{CheckMode, CheckOptions, SymmetryMode};
use crate::outcome::{CheckOutcome, CheckStats, StopReason, Violation};
use crate::stop::{StopCell, STOP_FIRST_VIOLATION, STOP_STATE_LIMIT, STOP_VIOLATION_LIMIT};
use crate::store::{StateIndex, StateStore};
use crate::sync::{AtomicUsize, Ordering};

/// A violation observed by a worker, resolved into a [`Violation`] (with trace) at the
/// level barrier.
struct PendingViolation {
    at: Arrival,
    /// `state_key` of the violating state: the scheduling-independent tie-breaker
    /// among same-depth violations (state indices depend on insert order).
    key: Fingerprint,
    invariant: &'static str,
    invariant_name: &'static str,
}

/// The kernel visitor that checks invariants: nothing to learn from re-arrivals, every
/// fresh state is expanded.
struct InvariantVisitor<'a, S> {
    pipeline: &'a Pipeline<'a, S>,
    store: &'a StateStore<S>,
    stop: &'a StopCell,
    options: &'a CheckOptions,
    violation_limit: usize,
    violation_stop: u8,
    violation_count: AtomicUsize,
    /// At most one per invariant: the first recorded, lowest depth first.
    violations: Vec<Violation<S>>,
}

impl<S: SpecState> Visitor<S> for InvariantVisitor<'_, S> {
    type Local = Vec<PendingViolation>;

    fn on_fresh(&self, local: &mut Self::Local, at: Arrival, state: &S) -> bool {
        // The limit is checked as successor batches merge; seeding alone never trips it.
        let limit = self.options.max_states.filter(|_| at.depth > 0);
        if limit.is_some_and(|max| self.store.len() >= max) {
            self.stop.request(STOP_STATE_LIMIT);
        }
        let violated = self.pipeline.spec.violated_invariants(state);
        if !violated.is_empty() {
            let total = self
                .violation_count
                // ordering: AcqRel — the running total decides the stop request
                // below, so each increment must observe and publish its peers.
                .fetch_add(violated.len(), Ordering::AcqRel)
                + violated.len();
            let key = state_key(state);
            local.extend(violated.into_iter().map(|inv| PendingViolation {
                at,
                key,
                invariant: inv.id,
                invariant_name: inv.name,
            }));
            if total >= self.violation_limit {
                self.stop.request(self.violation_stop);
            }
        }
        true
    }

    /// Turns the level's pending violation records into [`Violation`]s with
    /// reconstructed traces, keeping only the first recorded violation of each invariant.
    fn on_level_end(
        &mut self,
        locals: Vec<Self::Local>,
        _end: LevelEnd,
        _requeue: &mut Vec<StateIndex>,
    ) -> ControlFlow<StopReason> {
        let mut pending: Vec<PendingViolation> = locals.into_iter().flatten().collect();
        // Sort so the representative chosen for each invariant does not depend on worker
        // scheduling: lowest depth first, ties broken by the state's key.
        pending.sort_by_key(|p| (p.at.depth, p.invariant, p.key));
        for p in pending {
            if self.violations.iter().any(|v| v.invariant == p.invariant) {
                continue;
            }
            // A symmetry-reduced chain is a sequence of canonical forms, not an
            // execution; the witness is replayed back into the original id frame so it
            // runs step-by-step through `Spec::successors` on the original spec.
            let trace = if self.options.collect_traces {
                let Pipeline { spec, labels, .. } = *self.pipeline;
                self.store
                    .trace_to(spec, labels, p.at.index, self.pipeline.canon)
            } else {
                Trace::default()
            };
            self.violations.push(Violation {
                invariant: p.invariant,
                invariant_name: p.invariant_name,
                depth: p.at.depth,
                trace,
            });
        }
        ControlFlow::Continue(())
    }
}

/// Runs breadth-first model checking of `spec` under `options`.
pub fn check_bfs<S: SpecState>(spec: &Spec<S>, options: &CheckOptions) -> CheckOutcome<S> {
    let start = Instant::now();
    let store: StateStore<S> =
        StateStore::with_spill(options.store_mode, options.shards, &options.spill);
    let mut outcome = check_bfs_into(spec, options, start, &store);
    outcome.stats.stamp_after_dropping(start, store);
    outcome
}

/// [`check_bfs`] up to, but not including, the drop of its (initially empty) `store`.
fn check_bfs_into<S: SpecState>(
    spec: &Spec<S>,
    options: &CheckOptions,
    start: Instant,
    store: &StateStore<S>,
) -> CheckOutcome<S> {
    let fallbacks_before = canon_stats::tie_cap_fallbacks();
    let labels = LabelTable::new();
    let stop = StopCell::new();
    let (violation_limit, violation_stop) = match options.mode {
        CheckMode::FirstViolation => (1, STOP_FIRST_VIOLATION),
        CheckMode::Completion { violation_limit } => (violation_limit, STOP_VIOLATION_LIMIT),
    };
    let pipeline = Pipeline::new(
        spec,
        &labels,
        options.symmetry == SymmetryMode::Canonicalize,
        options.por,
    );
    let kernel::Explored {
        visitor,
        stop_reason,
        totals,
    } = kernel::explore(
        Run {
            pipeline: &pipeline,
            store,
            stop: &stop,
            workers: options.workers,
            max_depth: options.max_depth,
            deadline: options.time_budget.map(|b| start + b),
        },
        InvariantVisitor {
            pipeline: &pipeline,
            store,
            stop: &stop,
            options,
            violation_limit,
            violation_stop,
            violation_count: AtomicUsize::new(0),
            violations: Vec::new(),
        },
    );

    let InvariantVisitor {
        violations,
        violation_count,
        ..
    } = visitor;
    let stats = CheckStats {
        distinct_states: store.len(),
        transitions: totals.per_worker_transitions.iter().sum(),
        max_depth: totals.max_depth,
        widest_level: totals.widest_level,
        per_worker_transitions: totals.per_worker_transitions,
        shard_contention: store.contention_counters(),
        peak_entry_bytes: store.entry_bytes(),
        entry_bytes_per_state: store.entry_bytes_per_state(),
        spill: store.spill_stats(),
        pruned_transitions: totals.pruned_transitions,
        canon_fallbacks: canon_stats::tie_cap_fallbacks().saturating_sub(fallbacks_before),
        ..CheckStats::default()
    };
    CheckOutcome {
        spec_name: spec.name.clone(),
        stats,
        stop_reason,
        violations,
        violation_count: violation_count.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stop::STOP_TIME_BUDGET;
    use crate::store::StoreMode;
    use remix_spec::{
        ActionDef, Granularity, Invariant, InvariantSource, ModuleId, ModuleSpec, Shared,
    };
    use remix_zab::{
        ClusterConfig, CodeVersion, CodeViolation, GhostState, Message, ServerData, Sid, SpecPreset,
    };
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
    use std::time::Duration;

    /// A pair of counters where `b` may only be incremented after `a`, bounded by `max`.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Pair {
        a: u32,
        b: u32,
        max: u32,
    }

    impl SpecState for Pair {}

    fn pair_spec(max: u32, bad_at: Option<(u32, u32)>) -> Spec<Pair> {
        let m = ModuleId("Pair");
        let inc_a = ActionDef::new(
            "IncA",
            m,
            Granularity::Baseline,
            vec!["a"],
            vec!["a"],
            move |s: &Pair, sink| {
                if s.a < s.max {
                    sink.offer(format!("IncA({})", s.a), None, |next| next.a += 1);
                }
            },
        );
        let inc_b = ActionDef::new(
            "IncB",
            m,
            Granularity::Baseline,
            vec!["a", "b"],
            vec!["b"],
            move |s: &Pair, sink| {
                if s.b < s.a {
                    sink.offer(format!("IncB({})", s.b), None, |next| next.b += 1);
                }
            },
        );
        let inv = Invariant::always(
            "NO-BAD",
            "never reach the bad pair",
            InvariantSource::Protocol,
            move |s: &Pair| match bad_at {
                Some((a, b)) => !(s.a == a && s.b == b),
                None => true,
            },
        );
        Spec::new(
            "pair",
            vec![Pair { a: 0, b: 0, max }],
            vec![ModuleSpec::new(
                m,
                Granularity::Baseline,
                vec![inc_a, inc_b],
            )],
            vec![inv],
        )
    }

    #[test]
    fn explores_whole_space_when_no_violation() {
        let spec = pair_spec(3, None);
        let outcome = check_bfs(&spec, &CheckOptions::default());
        assert!(outcome.passed());
        assert_eq!(outcome.stop_reason, StopReason::Exhausted);
        // Reachable states are all pairs with b <= a <= 3: 4 + 3 + 2 + 1 = 10.
        assert_eq!(outcome.stats.distinct_states, 10);
        assert_eq!(outcome.stats.max_depth, 6);
        assert_eq!(
            outcome.stats.peak_entry_bytes,
            10 * outcome.stats.entry_bytes_per_state
        );
    }

    #[test]
    fn finds_minimal_depth_counterexample() {
        let spec = pair_spec(3, Some((2, 1)));
        let outcome = check_bfs(&spec, &CheckOptions::default());
        assert!(!outcome.passed());
        assert_eq!(outcome.stop_reason, StopReason::FirstViolation);
        let v = outcome.first_violation().unwrap();
        // Reaching (2, 1) takes exactly 3 transitions; BFS must not find a longer path.
        assert_eq!(v.depth, 3);
        assert_eq!(v.trace.depth(), 3);
        assert_eq!(v.trace.last_state().unwrap(), &Pair { a: 2, b: 1, max: 3 });
    }

    #[test]
    fn elapsed_covers_the_store_teardown() {
        let spec = pair_spec(12, None);
        let options = CheckOptions::default().with_store_mode(StoreMode::Full);
        for stats in [
            check_bfs(&spec, &options).stats,
            crate::dfs::check_dfs(&spec, &options).stats,
        ] {
            assert!(stats.teardown > Duration::ZERO, "{stats:?}");
            assert!(stats.elapsed >= stats.teardown, "{stats:?}");
        }
    }

    #[test]
    fn fingerprint_only_mode_finds_the_same_counterexample() {
        let spec = pair_spec(3, Some((2, 1)));
        let full = check_bfs(
            &spec,
            &CheckOptions::default().with_store_mode(StoreMode::Full),
        );
        let fp_only = check_bfs(
            &spec,
            &CheckOptions::default().with_store_mode(StoreMode::FingerprintOnly),
        );
        let (v_full, v_fp) = (
            full.first_violation().unwrap(),
            fp_only.first_violation().unwrap(),
        );
        assert_eq!(v_full.depth, v_fp.depth);
        assert_eq!(v_full.trace.last_state(), v_fp.trace.last_state());
        assert_eq!(
            v_full.trace.action_labels(),
            v_fp.trace.action_labels(),
            "the replayed fingerprint-only trace matches the stored one"
        );
        assert_eq!(
            (
                fp_only.stats.entry_bytes_per_state,
                full.stats.entry_bytes_per_state
            ),
            (8 + 16 + 4, 8 + 2 + 5),
            "beside its 8-byte record a fingerprint-only entry keeps its key and slot, a \
             Full one its one-word row (the state is pooled whole) in one 16-bit unit and \
             an index bucket"
        );
    }

    #[test]
    fn fingerprint_only_mode_explores_the_same_space() {
        let spec = pair_spec(12, None);
        let full = check_bfs(
            &spec,
            &CheckOptions::default().with_store_mode(StoreMode::Full),
        );
        let fp_only = check_bfs(
            &spec,
            &CheckOptions::default().with_store_mode(StoreMode::FingerprintOnly),
        );
        assert_eq!(full.stats.distinct_states, fp_only.stats.distinct_states);
        assert_eq!(full.stats.transitions, fp_only.stats.transitions);
        assert_eq!(full.stats.max_depth, fp_only.stats.max_depth);
        for stats in [&full.stats, &fp_only.stats] {
            assert_eq!(
                stats.peak_entry_bytes,
                stats.distinct_states * stats.entry_bytes_per_state
            );
        }
    }

    #[test]
    fn completion_mode_counts_all_violations() {
        // Every state with a == max violates; there are max+1 of them (b ranges 0..=max).
        let m = ModuleId("Pair");
        let spec = {
            let mut s = pair_spec(2, None);
            s.invariants = vec![Invariant::always(
                "A-NOT-MAX",
                "a below max",
                InvariantSource::Protocol,
                |p: &Pair| p.a < p.max,
            )];
            let _ = m;
            s
        };
        let outcome = check_bfs(&spec, &CheckOptions::completion());
        assert_eq!(outcome.stop_reason, StopReason::Exhausted);
        assert_eq!(outcome.violation_count, 3);
        // Only one trace is kept per invariant.
        assert_eq!(outcome.violations.len(), 1);
    }

    #[test]
    fn respects_state_limit_and_depth_bound() {
        let spec = pair_spec(10, None);
        let outcome = check_bfs(&spec, &CheckOptions::default().with_max_states(5));
        assert_eq!(outcome.stop_reason, StopReason::StateLimit);
        assert!(outcome.stats.distinct_states >= 5);

        let outcome = check_bfs(&spec, &CheckOptions::default().with_max_depth(2));
        assert_eq!(outcome.stop_reason, StopReason::DepthBound);
        assert!(outcome.stats.max_depth <= 2);
    }

    #[test]
    fn respects_time_budget() {
        let spec = pair_spec(60, None);
        let outcome = check_bfs(
            &spec,
            &CheckOptions::default().with_time_budget(Duration::from_millis(0)),
        );
        assert_eq!(outcome.stop_reason, StopReason::TimeBudget);
    }

    #[test]
    fn violation_stop_outranks_resource_stops_in_the_same_level() {
        // A level where both the first violation and the state limit fire must still
        // deterministically report the violation stop — it carries the counterexample.
        let spec = pair_spec(8, Some((1, 0)));
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let outcome = check_bfs(
                &spec,
                &CheckOptions::default()
                    .with_store_mode(mode)
                    .with_max_states(1),
            );
            assert_eq!(
                outcome.stop_reason,
                StopReason::FirstViolation,
                "store mode {mode}"
            );
            assert!(!outcome.passed());
        }
    }

    #[test]
    fn stop_requests_resolve_under_a_fixed_precedence() {
        // Whatever order workers trip their conditions in — violation limit, state
        // limit and time budget all within one level — the resolved reason is fixed.
        for order in [
            [STOP_TIME_BUDGET, STOP_STATE_LIMIT, STOP_VIOLATION_LIMIT],
            [STOP_VIOLATION_LIMIT, STOP_TIME_BUDGET, STOP_STATE_LIMIT],
            [STOP_STATE_LIMIT, STOP_VIOLATION_LIMIT, STOP_TIME_BUDGET],
        ] {
            let cell = StopCell::new();
            for bit in order {
                cell.request(bit);
            }
            assert_eq!(cell.stop_reason(), Some(StopReason::ViolationLimit));
        }
        let cell = StopCell::new();
        cell.request(STOP_TIME_BUDGET);
        cell.request(STOP_STATE_LIMIT);
        assert_eq!(cell.stop_reason(), Some(StopReason::StateLimit));
        cell.request(STOP_FIRST_VIOLATION);
        assert_eq!(cell.stop_reason(), Some(StopReason::FirstViolation));
    }

    #[test]
    #[should_panic(expected = "boom in successor closure")]
    fn wide_level_panics_propagate_instead_of_hanging() {
        // A wide first level (>= 64 states) runs as a fork-join of four workers; the
        // poisoned state's successor closure then panics on one of them.  The panic
        // must resurface from check_bfs, not be lost with its worker or leave the
        // rest of the team expanding.
        let m = ModuleId("Wide");
        let spawn = ActionDef::new(
            "Spawn",
            m,
            Granularity::Baseline,
            vec!["a"],
            vec!["a"],
            |s: &Pair, sink| {
                if s.a == 0 {
                    for i in 1..=100 {
                        sink.offer(format!("Spawn({i})"), None, |next| {
                            *next = Pair {
                                a: i,
                                b: 0,
                                max: 100,
                            }
                        });
                    }
                }
                if s.a == 42 {
                    panic!("boom in successor closure");
                }
            },
        );
        let spec = Spec::new(
            "wide",
            vec![Pair {
                a: 0,
                b: 0,
                max: 100,
            }],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![spawn])],
            vec![],
        );
        let _ = check_bfs(&spec, &CheckOptions::default().with_workers(4));
    }

    #[test]
    fn parallel_workers_agree_with_sequential() {
        let spec = pair_spec(12, Some((9, 4)));
        let seq = check_bfs(&spec, &CheckOptions::default());
        let par = check_bfs(&spec, &CheckOptions::default().with_workers(4));
        assert_eq!(
            seq.first_violation().unwrap().depth,
            par.first_violation().unwrap().depth
        );
        let full_seq = check_bfs(&pair_spec(12, None), &CheckOptions::default());
        let full_par = check_bfs(
            &pair_spec(12, None),
            &CheckOptions::default().with_workers(4),
        );
        assert_eq!(
            full_seq.stats.distinct_states,
            full_par.stats.distinct_states
        );
    }

    /// The visitor seam, counted: what the kernel tells a visitor must not depend on
    /// how the work was scheduled.
    #[derive(Default)]
    struct Counting {
        fresh: Vec<StateIndex>,
        /// `fresh` as of the last barrier, for the parent check.
        earlier: HashSet<StateIndex>,
        existing: u64,
        /// The key each dedup hit's closure gave, sorted at the end.
        existing_keys: Vec<Fingerprint>,
        levels: u32,
    }

    impl Counting {
        /// Seeds have no parent; every other arrival names a state this visitor was
        /// told about in an earlier level.
        fn check_parent(&self, at: Arrival) {
            match at.parent {
                None => assert_eq!(at.depth, 0, "only seeds are parentless"),
                Some(parent) => assert!(
                    at.depth > 0 && self.earlier.contains(&parent),
                    "parent {parent:?} of an arrival at depth {} was never announced",
                    at.depth
                ),
            }
        }
    }

    impl Visitor<Pair> for Counting {
        type Local = (Vec<StateIndex>, u64, Vec<Fingerprint>);

        fn on_fresh(&self, local: &mut Self::Local, at: Arrival, _: &Pair) -> bool {
            self.check_parent(at);
            local.0.push(at.index);
            true
        }

        fn on_existing(
            &self,
            local: &mut Self::Local,
            at: Arrival,
            key: impl FnOnce() -> Fingerprint,
        ) {
            self.check_parent(at);
            local.1 += 1;
            local.2.push(key());
        }

        fn on_level_end(
            &mut self,
            locals: Vec<Self::Local>,
            _end: LevelEnd,
            _requeue: &mut Vec<StateIndex>,
        ) -> ControlFlow<StopReason> {
            for (fresh, existing, keys) in locals {
                self.earlier.extend(&fresh);
                self.fresh.extend(fresh);
                self.existing += existing;
                self.existing_keys.extend(keys);
            }
            self.levels += 1;
            ControlFlow::Continue(())
        }
    }

    #[test]
    fn visitor_hooks_fire_once_per_arrival_however_the_work_is_scheduled() {
        // Levels of pair_spec(140) grow past 64 states, so a fork-join team (not just
        // the inline path) runs for workers > 1, and its diamonds produce dedup hits.
        let spec = pair_spec(140, None);
        let mut baseline = None;
        for workers in [1, 2, 4] {
            for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
                let labels = LabelTable::new();
                let store: StateStore<Pair> = StateStore::new(mode, 64);
                let explored = kernel::explore(
                    Run {
                        pipeline: &Pipeline::new(&spec, &labels, false, false),
                        store: &store,
                        stop: &StopCell::new(),
                        workers,
                        max_depth: None,
                        deadline: None,
                    },
                    Counting::default(),
                );
                let cell = format!("workers {workers}, {mode}");
                assert_eq!(explored.stop_reason, StopReason::Exhausted, "{cell}");
                let Counting {
                    mut fresh,
                    existing,
                    mut existing_keys,
                    levels,
                    ..
                } = explored.visitor;
                let announced = fresh.len();
                fresh.sort();
                fresh.dedup();
                assert_eq!(
                    fresh.len(),
                    announced,
                    "on_fresh twice for one state: {cell}"
                );
                assert_eq!(announced, store.len(), "{cell}");
                let transitions: u64 = explored.totals.per_worker_transitions.iter().sum();
                // Every explored edge is exactly one arrival; the initial state is the
                // one fresh arrival that is not an edge.
                assert_eq!(announced as u64 - 1 + existing, transitions, "{cell}");
                // Whether the insert had the key (fingerprint-only) or the closure keys
                // the duplicate (Full), a hit is told its target's `state_key`.
                existing_keys.sort();
                let signature = (announced, existing, transitions, levels, existing_keys);
                assert_eq!(
                    baseline.get_or_insert(signature.clone()),
                    &signature,
                    "{cell}"
                );
            }
        }
        assert_eq!(baseline.expect("ran").0, 141 * 142 / 2);
    }

    /// `base` with the ignored routing fields set as in the deleted owner-routed engine,
    /// which broke the two one-worker contracts below: `true` must now keep them.
    fn routed(base: &CheckOptions) -> CheckOptions {
        CheckOptions {
            route_by_owner: true,
            batch_size: 1,
            ..base.clone()
        }
    }

    #[test]
    fn the_state_limit_overshoots_by_at_most_one_parents_successors() {
        // pair_spec states have at most two successors, and its levels are narrower
        // than any batch: an engine that parks successors until a batch fills or the
        // level ends overshoots by what is left of the level (56 states for a cap of
        // 50), not by what is left of one parent.
        let spec = pair_spec(140, None);
        for cap in [2, 50, 51, 200, 1_000] {
            let base = CheckOptions::default().with_max_states(cap);
            for options in [routed(&base), base] {
                let cell = format!("cap {cap}, route_by_owner {}", options.route_by_owner);
                let outcome = check_bfs(&spec, &options);
                assert_eq!(outcome.stop_reason, StopReason::StateLimit, "{cell}");
                let states = outcome.stats.distinct_states;
                assert!(
                    (cap..=cap + 2).contains(&states),
                    "{cell}: stopped at {states} states"
                );
            }
        }
    }

    /// The textbook queue loop in `FirstViolation` mode: the first violating state in
    /// (frontier, enumeration) order, and how many states were known when it was found.
    fn reference_first_violation(spec: &Spec<Pair>) -> (Pair, usize) {
        let mut seen: HashSet<Pair> = spec.init.iter().cloned().collect();
        let mut frontier = spec.init.clone();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for parent in &frontier {
                for (_, child) in spec.successors(parent) {
                    if !seen.insert(child.clone()) {
                        continue;
                    }
                    if !spec.violated_invariants(&child).is_empty() {
                        return (child, seen.len());
                    }
                    next.push(child);
                }
            }
            frontier = next;
        }
        panic!("the spec has a reachable violation");
    }

    #[test]
    fn one_worker_reports_the_first_violation_in_frontier_then_enumeration_order() {
        // Depth 2 of the comb holds 600 states and 590 of them violate: which one a
        // run reports says in which order it walked the level, and where it stopped.
        let mut spec = wide_spec(600);
        spec.invariants = vec![Invariant::always(
            "EARLY-TEETH-ONLY",
            "only the first ten teeth tick",
            InvariantSource::Protocol,
            |p: &Pair| p.a <= 10 || p.b == 0,
        )];
        let (state, known) = reference_first_violation(&spec);
        assert_eq!((state.a, state.b), (11, 1), "the reference order's");
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let base = CheckOptions::default().with_store_mode(mode);
            for options in [routed(&base), base] {
                let cell = format!("{mode}, route_by_owner {}", options.route_by_owner);
                let outcome = check_bfs(&spec, &options);
                assert_eq!(outcome.stop_reason, StopReason::FirstViolation, "{cell}");
                let v = outcome.first_violation().expect("violation found");
                assert_eq!(v.depth, 2, "{cell}");
                assert_eq!(v.trace.last_state(), Some(&state), "{cell}");
                assert_eq!(
                    outcome.stats.distinct_states, known,
                    "{cell}: the run ends at the state that stopped it"
                );
            }
        }
    }

    #[test]
    fn sharding_and_batching_knobs_do_not_change_the_search() {
        let spec = pair_spec(14, None);
        let baseline = check_bfs(&spec, &CheckOptions::default());
        let mut cell = 0;
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            for (shards, batch) in [(1, 1), (2, 3), (256, 4096)] {
                // `batch_size` and `route_by_owner` are ignored: every other cell turns
                // routing on, so both values meet both store modes.
                let options = CheckOptions {
                    batch_size: batch,
                    route_by_owner: cell % 2 == 1,
                    ..CheckOptions::default()
                        .with_workers(3)
                        .with_shards(shards)
                        .with_store_mode(mode)
                };
                cell += 1;
                let outcome = check_bfs(&spec, &options);
                assert_eq!(
                    outcome.stats.distinct_states,
                    baseline.stats.distinct_states
                );
                assert_eq!(outcome.stats.max_depth, baseline.stats.max_depth);
                assert_eq!(outcome.stop_reason, StopReason::Exhausted);
            }
        }
    }

    #[test]
    fn tiny_memory_budget_spills_but_does_not_change_the_search() {
        // A budget far below the state count must force fingerprint runs onto disk
        // while leaving every reported statistic identical to the in-RAM run.
        use crate::spill::SpillConfig;
        let spec = pair_spec(40, None);
        let baseline = check_bfs(&spec, &CheckOptions::default());
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let spilled = check_bfs(
                &spec,
                &CheckOptions::default()
                    .with_store_mode(mode)
                    .with_spill(SpillConfig::in_ram().with_budget_bytes(1 << 10)),
            );
            assert_eq!(
                spilled.stats.distinct_states, baseline.stats.distinct_states,
                "store mode {mode}"
            );
            assert_eq!(spilled.stats.transitions, baseline.stats.transitions);
            assert_eq!(spilled.stats.max_depth, baseline.stats.max_depth);
            assert_eq!(spilled.stop_reason, StopReason::Exhausted);
            assert!(
                spilled.stats.spill.runs_spilled > 0,
                "a 1 KiB budget over {} states must spill: {:?}",
                spilled.stats.distinct_states,
                spilled.stats.spill
            );
            assert!(spilled.stats.spill.disk_probes > 0);
        }
        assert_eq!(
            baseline.stats.spill,
            Default::default(),
            "no budget, no spill activity"
        );
    }

    /// A three-level comb: one root fans out to `width` children, each ticking twice.
    /// Every level after the root is `width` states wide.
    fn wide_spec(width: u32) -> Spec<Pair> {
        let m = ModuleId("Wide");
        let spawn = ActionDef::new(
            "Spawn",
            m,
            Granularity::Baseline,
            vec!["a", "b"],
            vec!["a", "b"],
            move |s: &Pair, sink| {
                if s.a == 0 {
                    for i in 1..=width {
                        sink.offer(format!("Spawn({i})"), None, |next| {
                            *next = Pair {
                                a: i,
                                b: 0,
                                max: width,
                            }
                        });
                    }
                } else if s.b < 2 {
                    sink.offer(format!("Tick({},{})", s.a, s.b), None, |next| next.b += 1);
                }
            },
        );
        Spec::new(
            "wide",
            vec![Pair {
                a: 0,
                b: 0,
                max: width,
            }],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![spawn])],
            vec![],
        )
    }

    #[test]
    fn wide_levels_under_a_tiny_budget_keep_the_in_ram_stats() {
        // Levels of 600 states under a 1 KiB budget: the dedup tables spill, the
        // frontier stays resident as indices (or, without rows, as states), and the
        // search is the in-RAM one in every (workers, store) cell.
        use crate::spill::SpillConfig;
        let spec = wide_spec(600);
        let baseline = check_bfs(&spec, &CheckOptions::default());
        assert_eq!(baseline.stats.distinct_states, 1 + 3 * 600);
        assert_eq!(baseline.stats.widest_level, 600);
        for workers in [1, 3] {
            for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
                let cell = format!("workers {workers}, {mode}");
                let spilled = check_bfs(
                    &spec,
                    &CheckOptions::default()
                        .with_workers(workers)
                        .with_store_mode(mode)
                        .with_spill(SpillConfig::in_ram().with_budget_bytes(1 << 10)),
                );
                assert_eq!(spilled.stop_reason, StopReason::Exhausted, "{cell}");
                assert_eq!(
                    (
                        spilled.stats.distinct_states,
                        spilled.stats.transitions,
                        spilled.stats.max_depth,
                        spilled.stats.widest_level
                    ),
                    (
                        baseline.stats.distinct_states,
                        baseline.stats.transitions,
                        baseline.stats.max_depth,
                        baseline.stats.widest_level
                    ),
                    "{cell}"
                );
                assert!(
                    spilled.stats.spill.runs_spilled > 0,
                    "{cell}: a 1 KiB budget over 1,801 states spills: {:?}",
                    spilled.stats.spill
                );
            }
        }
    }

    #[test]
    fn spilled_run_finds_the_same_counterexample() {
        use crate::spill::SpillConfig;
        let spec = pair_spec(30, Some((20, 10)));
        let in_ram = check_bfs(&spec, &CheckOptions::default());
        let spilled = check_bfs(
            &spec,
            &CheckOptions::default().with_spill(SpillConfig::in_ram().with_budget_bytes(512)),
        );
        let (a, b) = (
            in_ram.first_violation().unwrap(),
            spilled.first_violation().unwrap(),
        );
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.trace.last_state(), b.trace.last_state());
        assert_eq!(a.trace.action_labels(), b.trace.action_labels());
        assert!(spilled.stats.spill.spilled());
    }

    #[test]
    fn per_worker_transitions_sum_to_the_total() {
        let spec = pair_spec(12, None);
        let outcome = check_bfs(&spec, &CheckOptions::default().with_workers(4));
        assert_eq!(outcome.stats.per_worker_transitions.len(), 4);
        assert_eq!(
            outcome.stats.per_worker_transitions.iter().sum::<u64>(),
            outcome.stats.transitions
        );
        // One contention counter per stripe the store has, in either backend.
        assert_eq!(
            outcome.stats.shard_contention.len(),
            CheckOptions::default().shards
        );
        let keyed = CheckOptions::default()
            .with_workers(4)
            .with_store_mode(StoreMode::FingerprintOnly)
            .with_shards(8);
        let outcome = check_bfs(&spec, &keyed);
        assert_eq!(outcome.stats.shard_contention.len(), 8);
    }
    /// Distinct values and distinct allocations among the handles of one component
    /// kind; `see` asserts `==` ⇒ `ptr_eq` (the converse holds by construction).
    struct Census<T>(HashMap<Fingerprint, Vec<Shared<T>>>);

    impl<T: std::hash::Hash + Eq + std::fmt::Debug> Census<T> {
        fn see(&mut self, handle: &Shared<T>) {
            let bucket = self.0.entry(handle.digest()).or_default();
            if bucket.iter().any(|seen| Shared::ptr_eq(seen, handle)) {
                return;
            }
            assert!(
                bucket.iter().all(|seen| seen != handle),
                "one value, two allocations: {handle:?}"
            );
            bucket.push(handle.clone());
        }

        fn distinct(&self) -> usize {
            self.0.values().map(Vec::len).sum()
        }
    }

    /// Exhausts mSpec-3 on `config` into a full store and returns the number of
    /// distinct `(servers, channel rows, ghost states)` it holds — each of which must
    /// be exactly one allocation, shared by every state that contains the value, and
    /// together with the scalars the rows point at (those of a partitioned or violating
    /// state; the budgets of these spaces fit a row inline), everything the pool holds.
    fn pooled_components(config: &ClusterConfig, workers: usize) -> (usize, usize, usize, usize) {
        let spec = SpecPreset::MSpec3.build(config);
        let options = CheckOptions::default()
            .with_store_mode(StoreMode::Full)
            .with_symmetry(SymmetryMode::Off)
            .with_por(false)
            .with_workers(workers);
        let store = StateStore::with_spill(options.store_mode, options.shards, &options.spill);
        let outcome = check_bfs_into(&spec, &options, Instant::now(), &store);
        assert_eq!(outcome.stop_reason, StopReason::Exhausted);
        let (mut servers, mut rows, mut ghosts) = (
            Census(HashMap::new()),
            Census(HashMap::new()),
            Census(HashMap::new()),
        );
        let mut scalars = HashSet::new();
        let mut states = 0;
        store.for_each_state(|state| {
            states += 1;
            state.servers.iter().for_each(|s| servers.see(s));
            state.msgs.iter().for_each(|r| rows.see(r));
            ghosts.see(&state.ghost);
            if !state.partitioned.is_empty() || state.violation.is_some() {
                let budgets = [
                    state.crashes_remaining,
                    state.partitions_remaining,
                    state.txns_created,
                ];
                scalars.insert((state.partitioned.clone(), state.violation.clone(), budgets));
            }
        });
        let counts = (servers.distinct(), rows.distinct(), ghosts.distinct());
        fn kind<T>(count: usize) -> Option<(&'static str, usize)> {
            (count > 0).then_some((std::any::type_name::<T>(), count))
        }
        let expected: BTreeMap<_, _> = [
            kind::<ServerData>(counts.0),
            kind::<Vec<Vec<Message>>>(counts.1),
            kind::<GhostState>(counts.2),
            kind::<(BTreeSet<(Sid, Sid)>, Option<CodeViolation>, [u32; 3])>(scalars.len()),
        ]
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(
            store.interned_components(),
            expected,
            "the pool holds exactly what the arena references"
        );
        (states, counts.0, counts.1, counts.2)
    }

    #[test]
    fn a_full_store_holds_one_allocation_per_distinct_component() {
        let smoke = ClusterConfig::small(CodeVersion::FinalFix)
            .with_transactions(1)
            .with_crashes(0);
        for workers in [1, 4] {
            assert_eq!(pooled_components(&smoke, workers), (503, 58, 83, 5));
        }
    }

    #[test]
    fn the_smoke_space_widest_level_is_pinned_in_every_cell() {
        // The frontier's share of a run's memory is this many entries (the multi-worker
        // path is covered by `wide_levels_under_a_tiny_budget_keep_the_in_ram_stats`).
        let smoke = ClusterConfig::small(CodeVersion::FinalFix)
            .with_transactions(1)
            .with_crashes(0);
        let spec = SpecPreset::MSpec3.build(&smoke);
        for workers in [1, 4] {
            for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
                let options = CheckOptions::default()
                    .with_workers(workers)
                    .with_store_mode(mode);
                let outcome = check_bfs(&spec, &options);
                assert_eq!(outcome.stop_reason, StopReason::Exhausted);
                assert_eq!(
                    (outcome.stats.distinct_states, outcome.stats.widest_level),
                    (503, 41),
                    "workers {workers}, {mode}"
                );
            }
        }
    }

    /// ROADMAP's probe of the `exhaust-fine` space, pinned.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "expensive model-checking run; use --release"
    )]
    fn exhaust_fine_is_assembled_from_2510_components() {
        let fine = ClusterConfig::small(CodeVersion::FinalFix)
            .with_transactions(1)
            .with_crashes(2);
        assert_eq!(pooled_components(&fine, 1), (221_490, 1_657, 702, 151));
    }
}

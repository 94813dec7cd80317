//! Depth-first state-space exploration.
//!
//! DFS uses far less memory per level than BFS but does not produce minimal-depth
//! counterexamples.  It is provided for completeness (TLC offers both strategies); the
//! paper's experiments all use BFS.
//!
//! DFS explores concrete states with no sleep sets, in a
//! [`StoreMode::Full`] store: the same [`StateStore`] arena as the BFS engine's
//! (sequential here, so a single stripe) — `u32` indices, parent-by-index, interned
//! labels, each state a row.  Under a memory budget ([`CheckOptions::spill`]) the store
//! spills its dedup keys to disk runs exactly as it does for BFS; the DFS stack itself
//! stays in RAM.  Successors come from the shared pipeline (the private `expand`
//! module) with both of its reductions off.
//!
//! # Depth-bounded soundness
//!
//! Depth-bounded DFS must track the *best-known* depth of every state, not the depth of
//! its first discovery.  DFS discovery depths are not minimal: a state first reached
//! through a long path may later be reached through a shorter one, and an engine that
//! freezes the first depth will refuse to (re-)expand the state even though the shorter
//! path leaves room below `max_depth` — silently dropping states that BFS finds within
//! the same bound.  This engine re-pushes a state whenever a strictly shallower path to
//! it is found while a depth bound is active (without a bound, re-expansion cannot
//! change the reachable set and is skipped); see the
//! `depth_bounded_dfs_reexpands_states_reached_shallower` regression test, which fails
//! against the previous first-discovery-depth engine.
//!
//! # Panics
//!
//! [`check_dfs`] refuses, before exploring, a `store_mode` other than
//! [`StoreMode::Full`], a `symmetry` other than [`SymmetryMode::Off`] and `por: true`:
//! those reductions run in BFS only.

use std::time::Instant;

use remix_spec::{LabelTable, Spec, SpecState, Trace};

use crate::expand::{Pipeline, Successor};
use crate::options::{CheckMode, CheckOptions, SymmetryMode};
use crate::outcome::{CheckOutcome, CheckStats, StopReason, Violation};
use crate::store::{Insert, StateIndex, StateStore, StoreMode};

/// Violation bookkeeping of one run: invariants are checked once per state, at first
/// discovery, and the first violation of each invariant keeps its trace.
struct Violations<'a, S> {
    pipeline: &'a Pipeline<'a, S>,
    store: &'a StateStore<S>,
    collect_traces: bool,
    found: Vec<Violation<S>>,
    count: usize,
}

impl<S: SpecState> Violations<'_, S> {
    fn check(&mut self, index: StateIndex, depth: u32, state: &S) {
        let violated = self.pipeline.spec.violated_invariants(state);
        self.count += violated.len();
        for inv in violated {
            if self.found.iter().any(|v| v.invariant == inv.id) {
                continue;
            }
            let trace = if self.collect_traces {
                let Pipeline { spec, labels, .. } = *self.pipeline;
                self.store.reconstruct_trace(spec, labels, index)
            } else {
                Trace::default()
            };
            self.found.push(Violation {
                invariant: inv.id,
                invariant_name: inv.name,
                depth,
                trace,
            });
        }
    }
}

/// Runs depth-first model checking of `spec` under `options`.
///
/// # Panics
///
/// When `options.store_mode` is not [`StoreMode::Full`], `options.symmetry` is not
/// [`SymmetryMode::Off`] or `options.por` is set, before anything is explored.
pub fn check_dfs<S: SpecState>(spec: &Spec<S>, options: &CheckOptions) -> CheckOutcome<S> {
    assert!(
        options.store_mode == StoreMode::Full,
        "check_dfs: CheckOptions::store_mode must be full, got {}",
        options.store_mode
    );
    assert!(
        options.symmetry == SymmetryMode::Off,
        "check_dfs: CheckOptions::symmetry must be off, got {}",
        options.symmetry
    );
    assert!(
        !options.por,
        "check_dfs: CheckOptions::por must be false, got true"
    );
    let start = Instant::now();
    let labels = LabelTable::new();
    // DFS is sequential; a single stripe makes `StateIndex` values dense (0, 1, 2, …),
    // which lets the best-known depths live in a flat vector indexed by state.
    let store: StateStore<S> = StateStore::with_spill(StoreMode::Full, 1, &options.spill);
    let mut best_depth: Vec<u32> = Vec::new();
    let mut stack: Vec<(StateIndex, S, u32)> = Vec::new();
    let mut transitions = 0u64;
    let mut max_depth_reached = 0u32;
    let mut stop_reason = StopReason::Exhausted;
    let pipeline = Pipeline::new(spec, &labels, false, false);
    let mut violations = Violations {
        pipeline: &pipeline,
        store: &store,
        collect_traces: options.collect_traces,
        found: Vec::new(),
        count: 0,
    };
    let violation_limit = match options.mode {
        CheckMode::FirstViolation => 1,
        CheckMode::Completion { violation_limit } => violation_limit,
    };

    pipeline.seed(&store, |index, state| {
        best_depth.push(0);
        violations.check(index, 0, &state);
        stack.push((index, state, 0));
    });

    'outer: while let Some((index, state, depth)) = stack.pop() {
        if violations.count >= violation_limit {
            stop_reason = if matches!(options.mode, CheckMode::FirstViolation) {
                StopReason::FirstViolation
            } else {
                StopReason::ViolationLimit
            };
            break;
        }
        if let Some(budget) = options.time_budget {
            if start.elapsed() >= budget {
                stop_reason = StopReason::TimeBudget;
                break;
            }
        }
        // A re-pushed state may since have been improved further; expand only the
        // best-known depth (stale stack entries are skipped, not re-expanded deeper).
        if depth > best_depth[index.0 as usize] {
            continue;
        }
        if let Some(max_depth) = options.max_depth {
            if depth >= max_depth {
                stop_reason = StopReason::DepthBound;
                continue;
            }
        }
        let ndepth = depth + 1;
        // The pipeline's callback must stay lock-free: buffer each successor; the store
        // pass below does every locked operation.
        let mut pending: Vec<Successor<S>> = Vec::new();
        let (explored, _) = pipeline.expand(&state, &[], |succ| pending.push(succ));
        transitions += explored;
        for Successor {
            label, state: next, ..
        } in pending
        {
            let (insert, _) = store.insert(Some(index), label, next, None);
            match insert {
                Insert::Fresh(nindex, next) => {
                    best_depth.push(ndepth);
                    max_depth_reached = max_depth_reached.max(ndepth);
                    violations.check(nindex, ndepth, &next);
                    stack.push((nindex, next, ndepth));
                }
                // The depth-bound soundness fix: a strictly shallower path makes
                // previously out-of-budget successors reachable, so the state goes back
                // on the stack at its improved depth (it was already checked).  Without
                // a bound the reachable set cannot change, so the re-expansion is
                // skipped.
                Insert::Existing(nindex, next)
                    if options.max_depth.is_some() && ndepth < best_depth[nindex.0 as usize] =>
                {
                    best_depth[nindex.0 as usize] = ndepth;
                    // Keep the recorded chain consistent with best-known depths: traces
                    // reconstructed through this state must follow the shallower arm,
                    // or their length would exceed the reported violation depth (and
                    // the bound itself).
                    store.set_parent(nindex, index, label);
                    stack.push((nindex, next, ndepth));
                }
                Insert::Existing(..) => continue,
            }
            if violations.count >= violation_limit
                && matches!(options.mode, CheckMode::FirstViolation)
            {
                stop_reason = StopReason::FirstViolation;
                break 'outer;
            }
            // Checked after every insert, so the run stops at the state that reached
            // the cap and no later sibling enters the store.
            if options.max_states.is_some_and(|max| store.len() >= max) {
                stop_reason = StopReason::StateLimit;
                break 'outer;
            }
        }
    }

    let mut stats = CheckStats {
        distinct_states: store.len(),
        transitions,
        max_depth: max_depth_reached,
        per_worker_transitions: vec![transitions],
        peak_entry_bytes: store.entry_bytes(),
        entry_bytes_per_state: store.entry_bytes_per_state(),
        spill: store.spill_stats(),
        ..CheckStats::default()
    };
    let Violations { found, count, .. } = violations;
    stats.stamp_after_dropping(start, (stack, best_depth, store));
    CheckOutcome {
        spec_name: spec.name.clone(),
        stats,
        stop_reason,
        violations: found,
        violation_count: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_spec::{
        ActionDef, ActionInstance, Granularity, Invariant, InvariantSource, ModuleId, ModuleSpec,
        Spec,
    };

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct N(u32);

    impl SpecState for N {}

    fn chain_spec(limit: u32, bad: Option<u32>) -> Spec<N> {
        let m = ModuleId("Chain");
        let inc = ActionDef::new(
            "Inc",
            m,
            Granularity::Baseline,
            vec!["n"],
            vec!["n"],
            move |s: &N| {
                if s.0 < limit {
                    vec![ActionInstance::new(format!("Inc({})", s.0), N(s.0 + 1))]
                } else {
                    vec![]
                }
            },
        );
        let inv = Invariant::always(
            "NOT-BAD",
            "avoid the bad value",
            InvariantSource::Protocol,
            move |s: &N| Some(s.0) != bad,
        );
        Spec::new(
            "chain",
            vec![N(0)],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![inc])],
            vec![inv],
        )
    }

    #[test]
    fn dfs_explores_all_states() {
        let outcome = check_dfs(&chain_spec(8, None), &CheckOptions::default());
        assert!(outcome.passed());
        assert_eq!(outcome.stats.distinct_states, 9);
        assert_eq!(outcome.stop_reason, StopReason::Exhausted);
    }

    #[test]
    fn dfs_finds_violation() {
        let outcome = check_dfs(&chain_spec(8, Some(5)), &CheckOptions::default());
        assert!(!outcome.passed());
        assert_eq!(
            outcome
                .first_violation()
                .unwrap()
                .trace
                .last_state()
                .unwrap(),
            &N(5)
        );
    }

    #[test]
    fn dfs_and_bfs_agree_on_reachable_state_count() {
        let spec = chain_spec(20, None);
        let d = check_dfs(&spec, &CheckOptions::default());
        let b = crate::bfs::check_bfs(&spec, &CheckOptions::default());
        assert_eq!(d.stats.distinct_states, b.stats.distinct_states);
    }

    /// A diamond joined at `X = N(1)`: the short arm `0 → B → X` and the long arm
    /// `0 → A1 → A2 → X`, with the tail `X → Y → Z` behind the join.  The long arm is
    /// enumerated *last* at the root, so the DFS stack pops it *first* and discovers `X`
    /// at depth 3 (and `Y` at depth 4, where the `max_depth = 4` bound stops expansion).
    /// When the short arm later reaches `X` at depth 2, an engine that freezes the
    /// first-discovery depth never re-expands `X`, and `Z` — which BFS finds at depth 4,
    /// inside the same bound — is silently dropped.
    fn diamond_spec() -> Spec<N> {
        let m = ModuleId("Diamond");
        let hop = ActionDef::new(
            "Hop",
            m,
            Granularity::Baseline,
            vec!["n"],
            vec!["n"],
            |s: &N| {
                let next = match s.0 {
                    0 => Some(20), // 0 → B
                    20 => Some(1), // B → X
                    1 => Some(2),  // X → Y
                    2 => Some(3),  // Y → Z
                    _ => None,
                };
                next.map(|n| vec![ActionInstance::new(format!("Hop({})", s.0), N(n))])
                    .unwrap_or_default()
            },
        );
        let detour = ActionDef::new(
            "Detour",
            m,
            Granularity::Baseline,
            vec!["n"],
            vec!["n"],
            |s: &N| {
                let next = match s.0 {
                    0 => Some(10),  // 0 → A1
                    10 => Some(11), // A1 → A2
                    11 => Some(1),  // A2 → X
                    _ => None,
                };
                next.map(|n| vec![ActionInstance::new(format!("Detour({})", s.0), N(n))])
                    .unwrap_or_default()
            },
        );
        Spec::new(
            "diamond",
            vec![N(0)],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![hop, detour])],
            vec![],
        )
    }

    #[test]
    fn depth_bounded_dfs_reexpands_states_reached_shallower() {
        let spec = diamond_spec();
        let options = CheckOptions::default().with_max_depth(4);
        let bfs = crate::bfs::check_bfs(&spec, &options);
        let dfs = check_dfs(&spec, &options);
        // All of {0, B, A1, A2, X, Y, Z} lie within 4 transitions of the initial state;
        // a DFS that freezes first-discovery depths finds only 6 of them (Z is reachable
        // within the bound only through the re-discovered shallower path to X).
        assert_eq!(bfs.stats.distinct_states, 7);
        assert_eq!(
            dfs.stats.distinct_states, bfs.stats.distinct_states,
            "depth-bounded DFS must reach every state BFS reaches within the same bound"
        );
    }

    #[test]
    fn reexpanded_states_report_traces_along_the_shallower_arm() {
        // Same diamond, but Z violates: Z is only reached through the re-expanded
        // shallower path to X, so its recorded chain must follow that arm — a trace
        // walking the deep first-discovery arm would be longer than the reported depth
        // (and than the bound itself).
        let mut spec = diamond_spec();
        spec.invariants = vec![Invariant::always(
            "NOT-Z",
            "never reach Z",
            InvariantSource::Protocol,
            |s: &N| s.0 != 3,
        )];
        let outcome = check_dfs(&spec, &CheckOptions::default().with_max_depth(4));
        let v = outcome
            .first_violation()
            .expect("Z is reachable within the bound");
        assert_eq!(v.trace.last_state(), Some(&N(3)));
        assert_eq!(
            v.trace.depth() as u32,
            v.depth,
            "trace length must match the reported depth"
        );
        assert!(v.depth <= 4, "no trace may exceed the bound");
        assert_eq!(
            v.trace.action_labels(),
            vec!["Hop(0)", "Hop(20)", "Hop(1)", "Hop(2)"],
            "the chain follows the shallower arm"
        );
    }

    #[test]
    fn unbounded_dfs_still_terminates_on_the_diamond() {
        // Without a depth bound the re-expansion path is skipped entirely; the diamond
        // still explores to exhaustion.
        let outcome = check_dfs(&diamond_spec(), &CheckOptions::default());
        assert_eq!(outcome.stop_reason, StopReason::Exhausted);
        assert_eq!(outcome.stats.distinct_states, 7);
    }

    /// `chain_spec` plus a `Dbl` shortcut `n → 2n`: most states are reached twice, so a
    /// spilled run meets dedup keys it has already moved to disk.
    fn doubling_spec(limit: u32, bad: u32) -> Spec<N> {
        let mut spec = chain_spec(limit, Some(bad));
        let dbl = ActionDef::new(
            "Dbl",
            ModuleId("Chain"),
            Granularity::Baseline,
            vec!["n"],
            vec!["n"],
            move |s: &N| {
                if s.0 > 0 && 2 * s.0 <= limit {
                    vec![ActionInstance::new(format!("Dbl({})", s.0), N(2 * s.0))]
                } else {
                    vec![]
                }
            },
        );
        spec.modules[0].actions.push(dbl);
        spec
    }

    #[test]
    fn tiny_memory_budget_spills_without_changing_the_dfs() {
        let spec = doubling_spec(200, 150);
        let in_ram = check_dfs(&spec, &CheckOptions::completion());
        let spilled = check_dfs(&spec, &CheckOptions::completion().with_mem_budget(512));
        assert!(
            spilled.stats.spill.spilled(),
            "a 512-byte budget over {} states must spill: {:?}",
            spilled.stats.distinct_states,
            spilled.stats.spill
        );
        assert_eq!(in_ram.stats.distinct_states, 201);
        assert_eq!(spilled.stats.distinct_states, in_ram.stats.distinct_states);
        assert_eq!(spilled.stats.transitions, in_ram.stats.transitions);
        let (a, b) = (
            in_ram.first_violation().expect("150 is reachable"),
            spilled.first_violation().expect("spilling never hides it"),
        );
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.trace.action_labels(), b.trace.action_labels());
    }

    #[test]
    fn both_engines_stop_at_the_state_that_reached_the_cap() {
        // The third expansion (of `2`) has two fresh successors, `3` and `4`; the
        // first of them is the fourth state, so neither engine may insert the second.
        let spec = doubling_spec(200, 150);
        let options = CheckOptions::default().with_max_states(4);
        for outcome in [
            check_dfs(&spec, &options),
            crate::bfs::check_bfs(&spec, &options),
        ] {
            assert_eq!(outcome.stop_reason, StopReason::StateLimit);
            assert_eq!(outcome.stats.distinct_states, 4);
        }
    }

    #[test]
    #[should_panic(expected = "check_dfs: CheckOptions::por must be false, got true")]
    fn sleep_sets_are_refused() {
        check_dfs(
            &chain_spec(8, None),
            &CheckOptions::default().with_por(true),
        );
    }

    #[test]
    #[should_panic(expected = "check_dfs: CheckOptions::symmetry must be off, got canonicalize")]
    fn symmetry_reduction_is_refused() {
        check_dfs(
            &chain_spec(8, None),
            &CheckOptions::default().with_symmetry(SymmetryMode::Canonicalize),
        );
    }

    #[test]
    #[should_panic(
        expected = "check_dfs: CheckOptions::store_mode must be full, got fingerprint-only"
    )]
    fn a_fingerprint_only_store_is_refused() {
        check_dfs(
            &chain_spec(8, None),
            &CheckOptions::default().with_store_mode(StoreMode::FingerprintOnly),
        );
    }
}

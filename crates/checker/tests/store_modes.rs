//! Integration tests of the two discovered-state store backends on the real Zab model:
//! stop-reason precedence must be deterministic across both modes, and fingerprint-only
//! violation traces must replay through `Spec::successors` to the violating state — in
//! every symmetry × POR cell and out of core, at one worker and at four.  The Full
//! store's kernel rebuilds every parent from its row while the fingerprint-only one
//! expands the states its frontier holds, so agreeing here is what says the rows read
//! back as the states that were stored.

use std::time::Duration;

use remix_checker::{
    check_bfs, CheckMode, CheckOptions, CheckOutcome, StopReason, StoreMode, SymmetryMode,
    Violation,
};
use remix_spec::Spec;
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

fn spec(version: CodeVersion) -> Spec<ZabState> {
    let config = ClusterConfig::small(version).with_transactions(1);
    SpecPreset::MSpec3.build(&config)
}

/// The statistics that describe the search, not the memory layout.
fn search(outcome: &CheckOutcome<ZabState>) -> (usize, u64, u32, usize, StopReason) {
    let stats = &outcome.stats;
    (
        stats.distinct_states,
        stats.transitions,
        stats.max_depth,
        stats.widest_level,
        outcome.stop_reason,
    )
}

/// The engine cells the store backends are compared in: symmetry × POR, plus an
/// out-of-core cell whose 64 KiB budget spills fingerprint runs.  Each cell is named
/// for assertion messages.
fn cells() -> Vec<(CheckOptions, String)> {
    let mut cells = Vec::new();
    for symmetry in [SymmetryMode::Off, SymmetryMode::Canonicalize] {
        for por in [false, true] {
            let options = CheckOptions::default()
                .with_symmetry(symmetry)
                .with_por(por);
            cells.push((options, format!("symmetry {symmetry}, por {por}")));
        }
    }
    let spilled = CheckOptions::default().with_mem_budget(64 << 10);
    cells.push((spilled, "64 KiB budget".to_owned()));
    cells
}

/// Both backends explore the identical state space and agree on every statistic that
/// does not describe memory layout, at one worker and at four.  A depth bound (not a
/// state cap, which a team overshoots by a schedule-dependent amount) ends the runs,
/// so the worker counts must agree with each other too.
#[test]
fn store_modes_explore_identical_state_spaces() {
    let spec = spec(CodeVersion::FinalFix);
    for (options, cell) in cells() {
        let mut one_worker = None;
        for workers in [1, 4] {
            let cell = format!("{cell}, workers {workers}");
            let options = options.clone().with_max_depth(12).with_workers(workers);
            let full = check_bfs(&spec, &options.clone().with_store_mode(StoreMode::Full));
            let fp_only = check_bfs(
                &spec,
                &options.clone().with_store_mode(StoreMode::FingerprintOnly),
            );
            assert_eq!(full.stop_reason, StopReason::DepthBound, "{cell}");
            assert_eq!(search(&full), search(&fp_only), "{cell}");
            assert_eq!(
                *one_worker.get_or_insert(search(&full)),
                search(&full),
                "{cell}"
            );
            assert!(
                fp_only.stats.peak_entry_bytes < full.stats.peak_entry_bytes,
                "fingerprint-only entries must be strictly smaller ({cell}): {} vs {}",
                fp_only.stats.peak_entry_bytes,
                full.stats.peak_entry_bytes
            );
            assert_eq!(
                options.spill.is_active(),
                full.stats.spill.spilled() && fp_only.stats.spill.spilled(),
                "{cell}"
            );
        }
    }
}

/// `max_states`, `time_budget` and `violation_limit` may all trip within the same BFS
/// level; the reported reason must follow the documented precedence (violation stops
/// over the state limit over the wall clock) in both store modes — and must therefore
/// be identical across modes and worker counts.
#[test]
fn stop_reason_precedence_is_deterministic_across_store_modes() {
    let spec = spec(CodeVersion::V391);
    for (base, cell) in cells() {
        // A one-worker run ends at the state that stops it, so the probe's violating state
        // is the last of its `distinct_states`: a `max_states` of exactly that count trips
        // inside the violating parent's own successors — at the insert of the violating
        // state — and both conditions fire in the same level, for the same state.
        let probe = check_bfs(&spec, &base);
        let violation_depth = probe.first_violation().expect("v3.9.1 violates").depth;
        assert!(
            violation_depth > 1,
            "a deep violation makes the race real ({cell})"
        );
        let cap = probe.stats.distinct_states;

        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            // Sequential claim and insert order is fixed — parents in frontier order, each
            // one's successors in enumeration order — so the fired set is reproducible and
            // the resolved reason is exactly the documented precedence.
            let outcome = check_bfs(
                &spec,
                &CheckOptions {
                    mode: CheckMode::Completion { violation_limit: 1 },
                    ..base.clone()
                }
                .with_store_mode(mode)
                .with_max_states(cap)
                .with_time_budget(Duration::from_secs(3600)),
            );
            assert_eq!(
                outcome.stop_reason,
                StopReason::ViolationLimit,
                "{cell}, mode {mode}: violation stop outranks the state limit"
            );
            assert!(!outcome.passed());
            assert_eq!(
                outcome.first_violation().expect("reported").depth,
                violation_depth,
                "{cell}, mode {mode}: the cap does not hide the minimal depth"
            );
            assert_eq!(outcome.stats.distinct_states, cap, "{cell}, mode {mode}");

            // Parallel runs may abort the level as soon as a resource limit trips (so the
            // violating state of the same level is not always discovered), but the resolved
            // reason still follows the precedence over whatever conditions fired — never
            // the scheduling-dependent wall clock.
            let parallel = check_bfs(
                &spec,
                &CheckOptions {
                    mode: CheckMode::Completion { violation_limit: 1 },
                    ..base.clone()
                }
                .with_store_mode(mode)
                .with_workers(4)
                .with_max_states(cap)
                .with_time_budget(Duration::from_secs(3600)),
            );
            assert!(
                matches!(
                    parallel.stop_reason,
                    StopReason::ViolationLimit | StopReason::StateLimit
                ),
                "{cell}, mode {mode}: got {}",
                parallel.stop_reason
            );

            // Without any violating state in reach, the same cap yields StateLimit.
            let clean = check_bfs(
                &spec,
                &base
                    .clone()
                    .with_store_mode(mode)
                    .with_max_states(cap.min(8))
                    .with_time_budget(Duration::from_secs(3600)),
            );
            assert_eq!(
                clean.stop_reason,
                StopReason::StateLimit,
                "{cell}, mode {mode}"
            );
        }
    }
}

/// A violation trace reconstructed by the fingerprint-only store's bounded
/// re-exploration is a legal execution: every step is a successor of its predecessor
/// under `Spec::successors` (matched by label), and it ends in the violating state.
/// At one worker it is the Full store's trace, label for label.  At four, which parent
/// inserts a state first depends on the schedule, and so does the recorded chain:
/// there the two backends must agree on the violation — invariant, depth and the
/// violating state's orbit — and each trace must replay.
#[test]
fn fingerprint_only_traces_replay_through_spec_successors() {
    let spec = spec(CodeVersion::V391);
    for (base, cell) in cells() {
        let outcome = check_bfs(
            &spec,
            &base.clone().with_store_mode(StoreMode::FingerprintOnly),
        );
        let violation = outcome.first_violation().expect("v3.9.1 violates mSpec-3");
        assert_replays(&spec, violation, &cell);

        // And the replayed counterexample is identical to the full store's.
        let full = check_bfs(&spec, &base.clone().with_store_mode(StoreMode::Full));
        let full_violation = full.first_violation().expect("same violation");
        assert_eq!(full_violation.invariant, violation.invariant);
        assert_eq!(full_violation.depth, violation.depth);
        assert_eq!(
            full_violation.trace.action_labels(),
            violation.trace.action_labels(),
            "{cell}"
        );

        // Four workers: every violating state of the minimal depth is found (the run
        // completes that level and stops before expanding it), and each invariant's
        // representative is its least key, so the violation itself is deterministic.
        let cell = format!("{cell}, workers 4");
        let team = CheckOptions {
            mode: CheckMode::Completion {
                violation_limit: usize::MAX,
            },
            ..base.clone()
        }
        .with_workers(4)
        .with_max_depth(violation.depth);
        let orbit = |state: &ZabState| match (&spec.symmetry, base.symmetry) {
            (Some(canon), SymmetryMode::Canonicalize) => canon(state).0,
            _ => state.clone(),
        };
        let mut agreed = None;
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let outcome = check_bfs(&spec, &team.clone().with_store_mode(mode));
            let found = outcome.first_violation().expect("the level holds it");
            assert_eq!(found.depth, violation.depth, "{cell}, {mode}");
            assert_replays(&spec, found, &cell);
            let last = orbit(found.trace.last_state().expect("non-empty"));
            let signature = (found.invariant, last, search(&outcome));
            assert_eq!(
                *agreed.get_or_insert(signature.clone()),
                signature,
                "{cell}, {mode}"
            );
        }
    }
}

/// `violation`'s trace starts in an initial state, takes each step as a successor of
/// its predecessor with exactly the recorded label, and ends in a violating state.
fn assert_replays(spec: &Spec<ZabState>, violation: &Violation<ZabState>, cell: &str) {
    let trace = &violation.trace;
    assert!(!trace.is_empty(), "trace collection is on by default");
    assert_eq!(trace.depth() as u32, violation.depth);
    assert!(spec.init.contains(&trace.steps[0].state));
    for window in trace.steps.windows(2) {
        let successors = spec.successors(&window[0].state);
        assert!(
            successors
                .iter()
                .any(|(label, next)| label == &window[1].action && next == &window[1].state),
            "{cell}: step `{}` must be a successor of its predecessor",
            window[1].action
        );
    }
    let last = trace.last_state().expect("non-empty");
    assert!(
        !spec.violated_invariants(last).is_empty(),
        "the replayed trace ends in the violating state ({cell})"
    );
}

/// The three `remix-bench` `bug-hunt` counterexamples (ZK-4394, ZK-3023, ZK-4685),
/// twice each: rebuilt state by state from the Full arena's rows, and replayed through
/// `Spec::successors` from the fingerprint-only store's `(parent, label)` chain.  The
/// two share nothing but the recorded chain, so equal traces mean every row along the
/// parent walk read back as the state that was stored.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "expensive model-checking run; use --release"
)]
fn row_rebuilt_traces_equal_replayed_ones_on_the_bug_hunt_violations() {
    let table4 = ClusterConfig::table4(CodeVersion::V391);
    for (config, preset, invariant, depth) in [
        (table4.unmask_zk4394(), SpecPreset::MSpec1, "I-14", 20),
        (table4, SpecPreset::MSpec3, "I-11", 15),
        (table4, SpecPreset::MSpec3, "I-12", 15),
    ] {
        let mut spec = preset.build(&config);
        spec.invariants.retain(|inv| inv.id == invariant);
        let counterexample = |mode| {
            let options = CheckOptions::default()
                .with_store_mode(mode)
                .with_symmetry(SymmetryMode::Off)
                .with_por(false)
                .with_workers(1);
            let outcome = check_bfs(&spec, &options);
            let violation = outcome.first_violation().expect("v3.9.1 violates");
            assert_eq!((violation.invariant, violation.depth), (invariant, depth));
            violation.trace.clone()
        };
        let rebuilt = counterexample(StoreMode::Full);
        assert_eq!(rebuilt.depth() as u32, depth);
        assert!(
            rebuilt == counterexample(StoreMode::FingerprintOnly),
            "{invariant}: the arena's trace is not the replayed one"
        );
    }
}

/// Engine against engine at the scale the duplicate-edge path is tuned for: a Full
/// store (64 stripes routed and deduped by row, no key computed) and a fingerprint-only
/// store (64 stripes routed and deduped by `state_key`) exhaust the same SysSpec space
/// — four in five of its edges are dedup hits — at one worker and at two.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "exhausts 65,653 states four times; use --release"
)]
fn the_row_routed_full_store_matches_the_keyed_store() {
    let config = ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_crashes(0);
    let spec = SpecPreset::SysSpec.build(&config);
    for workers in [1, 2] {
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let options = CheckOptions {
                mode: CheckMode::Completion {
                    violation_limit: usize::MAX,
                },
                ..CheckOptions::default()
            }
            .with_store_mode(mode)
            .with_workers(workers);
            let outcome = check_bfs(&spec, &options);
            let stats = &outcome.stats;
            let cell = format!("{mode}, {workers} workers");
            assert_eq!(outcome.stop_reason, StopReason::Exhausted, "{cell}");
            assert_eq!(
                (stats.distinct_states, stats.transitions, stats.max_depth),
                (65_653, 371_369, 36),
                "{cell}"
            );
            assert_eq!(stats.shard_contention.len(), options.shards, "{cell}");
        }
    }
}

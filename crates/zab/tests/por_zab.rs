//! Acceptance tests for sleep-set partial-order reduction on the real Zab model: with
//! `CheckOptions::por` BFS (the one engine that accepts it) must skip redundant
//! interleavings of independent actions *without* changing anything observable —
//! verdicts, stop reasons, the set of distinct states, and BFS minimal violation
//! depths — under both store backends, with and without symmetry reduction, and the
//! seeded v3.9.1 I-11 witness must still replay on the original specification.

use remix_checker::{
    check_bfs, CheckMode, CheckOptions, StopReason, StoreMode, SymmetryMode, Violation,
};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

fn exhaustion_config() -> ClusterConfig {
    ClusterConfig {
        max_transactions: 1,
        max_crashes: 1,
        ..ClusterConfig::small(CodeVersion::FinalFix)
    }
}

fn options(por: bool, store: StoreMode) -> CheckOptions {
    CheckOptions::default()
        .with_por(por)
        .with_store_mode(store)
        .with_symmetry(SymmetryMode::Off)
}

/// Replays a reported witness step-by-step through `Spec::successors` on the original
/// specification: every consecutive pair must be one of its labelled transitions.
fn assert_replays(spec: &remix_spec::Spec<ZabState>, trace: &remix_spec::Trace<ZabState>) {
    assert!(!trace.is_empty(), "witness must not be empty");
    for w in trace.steps.windows(2) {
        assert!(
            spec.successors(&w[0].state)
                .iter()
                .any(|(l, s)| *l == w[1].action && *s == w[1].state),
            "step via {:?} is not a transition of the original spec",
            w[1].action
        );
    }
}

/// The invariants violated at `depth` on `spec`, from an unreduced run to completion of
/// that depth: which of them a `FirstViolation` run meets first depends on the order it
/// walks the level in, and reductions change that order.
fn invariants_violated_at(spec: &remix_spec::Spec<ZabState>, depth: u32) -> Vec<&'static str> {
    let all = check_bfs(
        spec,
        &CheckOptions {
            mode: CheckMode::Completion {
                violation_limit: usize::MAX,
            },
            ..options(false, StoreMode::Full)
        }
        .with_max_depth(depth),
    );
    assert_eq!(all.stop_reason, StopReason::DepthBound);
    let at_depth = |v: &Violation<ZabState>| (v.depth == depth).then_some(v.invariant);
    all.violations.iter().filter_map(at_depth).collect()
}

#[test]
fn bfs_por_preserves_the_seeded_i11_witness_in_both_store_modes() {
    // Buggy v3.9.1 violates I-11 (ZK-3023 class) at minimal depth under the small
    // config; the pruned runs must find the same invariant at the same minimal depth
    // and hand back witnesses that replay on the original spec.
    let spec = SpecPreset::MSpec3.build(&ClusterConfig::small(CodeVersion::V391));
    let baseline = check_bfs(&spec, &options(false, StoreMode::Full));
    let v_base = baseline.first_violation().expect("v3.9.1 violates");
    for store in [StoreMode::Full, StoreMode::FingerprintOnly] {
        let outcome = check_bfs(&spec, &options(true, store));
        assert_eq!(outcome.stop_reason, baseline.stop_reason, "{store}");
        assert_eq!(outcome.stop_reason, StopReason::FirstViolation, "{store}");
        let v = outcome.first_violation().expect("violation found");
        assert_eq!(v.invariant, v_base.invariant, "{store}");
        assert_eq!(
            v.depth, v_base.depth,
            "BFS minimal violation depth is preserved under POR ({store})"
        );
        assert_eq!(v.trace.depth() as u32, v.depth, "{store}");
        assert_replays(&spec, &v.trace);
        assert!(
            spec.violated_invariants(v.trace.last_state().unwrap())
                .iter()
                .any(|i| i.id == v.invariant),
            "the replayed endpoint still violates {} ({store})",
            v.invariant
        );
    }
}

#[test]
fn bfs_por_preserves_the_state_space_and_prunes_transitions() {
    // Sleep sets remove redundant *edges*, never states: an exhaustive run must reach
    // exactly the same distinct states, and every pruned edge is one the plain run
    // generated, so explored + pruned adds back up to the unreduced count.
    let spec = SpecPreset::MSpec3.build(&exhaustion_config());
    for store in [StoreMode::Full, StoreMode::FingerprintOnly] {
        let off = check_bfs(&spec, &options(false, store));
        let on = check_bfs(&spec, &options(true, store));
        assert_eq!(off.stop_reason, StopReason::Exhausted, "{store}");
        assert_eq!(on.stop_reason, off.stop_reason, "{store}");
        assert_eq!(on.passed(), off.passed(), "{store}");
        assert_eq!(
            on.stats.distinct_states, off.stats.distinct_states,
            "POR must not lose states ({store})"
        );
        assert_eq!(on.stats.max_depth, off.stats.max_depth, "{store}");
        assert!(
            on.stats.pruned_transitions > 0,
            "the annotated model must admit some pruning ({store})"
        );
        assert_eq!(
            on.stats.transitions + on.stats.pruned_transitions,
            off.stats.transitions,
            "explored + pruned must account for every unreduced transition ({store})"
        );
        assert_eq!(off.stats.pruned_transitions, 0, "{store}");
    }
}

#[test]
fn bfs_por_is_deterministic_across_worker_counts() {
    // The level-barrier intersection makes per-state sleep sets a function of the
    // level sets alone, so pruning must not depend on worker scheduling.
    let spec = SpecPreset::MSpec3.build(&exhaustion_config());
    let seq = check_bfs(&spec, &options(true, StoreMode::Full));
    let par = check_bfs(&spec, &options(true, StoreMode::Full).with_workers(4));
    assert_eq!(seq.stats.distinct_states, par.stats.distinct_states);
    assert_eq!(seq.stats.transitions, par.stats.transitions);
    assert_eq!(seq.stats.pruned_transitions, par.stats.pruned_transitions);
}

#[test]
fn por_composes_with_symmetry_reduction() {
    // POR on top of canonicalization must preserve the canonical state space and the
    // seeded verdict; pruning survives because identity-permutation edges dominate.
    let spec = SpecPreset::MSpec3.build(&exhaustion_config());
    let canon = check_bfs(
        &spec,
        &options(false, StoreMode::Full).with_symmetry(SymmetryMode::Canonicalize),
    );
    let both = check_bfs(
        &spec,
        &options(true, StoreMode::Full).with_symmetry(SymmetryMode::Canonicalize),
    );
    assert_eq!(both.stop_reason, canon.stop_reason);
    assert_eq!(both.passed(), canon.passed());
    assert_eq!(
        both.stats.distinct_states, canon.stats.distinct_states,
        "POR must not lose canonical representatives"
    );
    assert!(both.stats.pruned_transitions > 0);
    assert!(both.stats.transitions < canon.stats.transitions);

    // And on the seeded violation workload the composed run still reports a violation
    // of the minimal depth — of an invariant the unreduced space violates there (the
    // canonical level is walked in another order, so not necessarily the one the
    // baseline met first) — with a replayable witness that exhibits it.
    let buggy = SpecPreset::MSpec3.build(&ClusterConfig::small(CodeVersion::V391));
    let base = check_bfs(&buggy, &options(false, StoreMode::Full));
    let v_base = base.first_violation().expect("v3.9.1 violates");
    let composed = check_bfs(
        &buggy,
        &options(true, StoreMode::Full).with_symmetry(SymmetryMode::Canonicalize),
    );
    assert_eq!(composed.stop_reason, base.stop_reason);
    let v = composed.first_violation().expect("violation found");
    let at_depth = invariants_violated_at(&buggy, v_base.depth);
    assert!(at_depth.contains(&v_base.invariant), "{at_depth:?}");
    assert!(
        at_depth.contains(&v.invariant),
        "{} ∉ {at_depth:?}",
        v.invariant
    );
    assert_eq!(v.depth, v_base.depth);
    assert_replays(&buggy, &v.trace);
    let endpoint = v.trace.last_state().expect("non-empty witness");
    let violated = buggy.violated_invariants(endpoint);
    assert!(violated.iter().any(|i| i.id == v.invariant));
}

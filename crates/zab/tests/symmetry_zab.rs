//! Acceptance tests for symmetry reduction on the real Zab model (the ISSUE 5
//! tentpole): on a symmetric 3-server mSpec-3 workload, `SymmetryMode::Canonicalize`
//! must explore strictly fewer distinct states than `Off` with the same stop reason
//! and invariant verdicts, and a seeded violation's de-canonicalized witness must
//! replay step-by-step through `Spec::successors` on the *un*-canonicalized
//! specification — under both store backends, with and without sleep-set POR.
//!
//! Measured shape of the exhaustion workload (mSpec-3 on FinalFix, 1 transaction,
//! 1 crash — the configuration the analysis artefact audits): 16,702 concrete states
//! collapse to 8,152 canonical representatives, a 2.05× reduction on the exact
//! memory/throughput axis Table 5 tracks.  Both counts are pinned in every
//! `(store backend, POR)` cell: backends and sleep sets change how a space is stored
//! and how many edges reach it, never which states it holds.

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

fn options(symmetry: SymmetryMode, store: StoreMode) -> CheckOptions {
    CheckOptions::default()
        .with_symmetry(symmetry)
        .with_store_mode(store)
}

/// Every `(store backend, POR)` cell a reduced run is checked in.
fn cells() -> impl Iterator<Item = (StoreMode, bool)> {
    [StoreMode::Full, StoreMode::FingerprintOnly]
        .into_iter()
        .flat_map(|store| [(store, false), (store, true)])
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
            ..options(SymmetryMode::Off, StoreMode::Full)
        }
        .with_max_depth(depth),
    );
    assert_eq!(all.stop_reason, StopReason::DepthBound);
    let at_depth = |v: &Violation<ZabState>| (v.depth == depth).then_some(v.invariant);
    all.violations.iter().filter_map(at_depth).collect()
}

#[test]
fn canonicalize_exhausts_with_fewer_states_and_the_same_verdict() {
    let spec = SpecPreset::MSpec3.build(&exhaustion_config());
    for (store, por) in cells() {
        let off = check_bfs(&spec, &options(SymmetryMode::Off, store).with_por(por));
        let canon = check_bfs(
            &spec,
            &options(SymmetryMode::Canonicalize, store).with_por(por),
        );
        let store = format!("{store}, por {por}");
        assert_eq!(off.stop_reason, StopReason::Exhausted, "{store}");
        assert_eq!(
            canon.stop_reason, off.stop_reason,
            "identical stop reason ({store})"
        );
        assert_eq!(
            canon.passed(),
            off.passed(),
            "identical invariant verdict ({store})"
        );
        assert!(off.passed(), "FinalFix passes mSpec-3 ({store})");
        assert!(
            canon.stats.distinct_states < off.stats.distinct_states,
            "canonicalization must strictly reduce the state count: {} vs {} ({store})",
            canon.stats.distinct_states,
            off.stats.distinct_states
        );
        assert!(
            canon.stats.transitions < off.stats.transitions,
            "canonicalization must strictly reduce the transition count: {} vs {} ({store})",
            canon.stats.transitions,
            off.stats.transitions
        );
        assert_eq!(
            (off.stats.distinct_states, canon.stats.distinct_states),
            (16_702, 8_152),
            "{store}"
        );
        // The memory axis shrinks: each entry also records its permutation, and there
        // are half as many entries.
        assert_eq!(
            canon.stats.entry_bytes_per_state,
            off.stats.entry_bytes_per_state + std::mem::size_of::<remix_spec::Perm>(),
            "{store}"
        );
        assert!(
            canon.stats.peak_entry_bytes < off.stats.peak_entry_bytes,
            "{store}"
        );
    }
}

#[test]
fn seeded_violation_decanonicalizes_and_replays_in_both_store_modes() {
    // Buggy v3.9.1 violates I-11 (ZK-3023 class) at minimal depth under the small
    // config; the symmetric runs must find a violation of the same minimal depth — of
    // an invariant the concrete space violates at that depth: they walk the level in
    // another order, so not necessarily the one the baseline met first — and hand back
    // witnesses that replay on the original spec.
    let spec = SpecPreset::MSpec3.build(&ClusterConfig::small(CodeVersion::V391));
    let baseline = check_bfs(&spec, &options(SymmetryMode::Off, StoreMode::Full));
    let v_base = baseline.first_violation().expect("v3.9.1 violates");
    let at_depth = invariants_violated_at(&spec, v_base.depth);
    assert!(at_depth.contains(&v_base.invariant), "{at_depth:?}");
    for (store, por) in cells() {
        let outcome = check_bfs(
            &spec,
            &options(SymmetryMode::Canonicalize, store).with_por(por),
        );
        let store = format!("{store}, por {por}");
        assert_eq!(outcome.stop_reason, StopReason::FirstViolation, "{store}");
        let v = outcome.first_violation().expect("violation found");
        assert!(
            at_depth.contains(&v.invariant),
            "{} ∉ {at_depth:?} ({store})",
            v.invariant
        );
        assert_eq!(
            v.depth, v_base.depth,
            "BFS minimal violation depth is preserved ({store})"
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
        assert!(
            outcome.stats.distinct_states < baseline.stats.distinct_states,
            "{store}"
        );
    }
}

/// SysSpec's election space under symmetry, pinned in two cells.  `remix-bench` only
/// compares a run with its own repetitions, so a change to the canonical order would
/// pass it silently; these counts move with any such change.  (The canonical states
/// outnumber the space's 65,653 concrete ones — `zab.symmetry_state_ratio` 1.167, the
/// open symmetry anomaly — so the pins hold today's forms, not a claim that they are
/// a reduction.)
#[test]
#[ignore = "exhausts SysSpec's election space twice; runs under --include-ignored"]
fn sysspec_election_canonical_counts_are_pinned() {
    let config = ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_crashes(0);
    let spec = SpecPreset::SysSpec.build(&config);
    let full = check_bfs(&spec, &options(SymmetryMode::Canonicalize, StoreMode::Full));
    assert_eq!(full.stop_reason, StopReason::Exhausted, "{full}");
    let stats = &full.stats;
    assert_eq!(
        (stats.distinct_states, stats.transitions, stats.max_depth),
        (76_617, 425_280, 38)
    );
    assert_eq!(stats.canon_fallbacks, 0);
    let reduced = check_bfs(
        &spec,
        &options(SymmetryMode::Canonicalize, StoreMode::FingerprintOnly).with_por(true),
    );
    assert_eq!(reduced.stop_reason, StopReason::Exhausted, "{reduced}");
    let stats = &reduced.stats;
    assert_eq!(
        (
            stats.distinct_states,
            stats.transitions,
            stats.pruned_transitions
        ),
        (75_883, 332_376, 88_931)
    );
    assert_eq!(stats.canon_fallbacks, 0);
}

#[test]
fn rest_of_engine_knobs_compose_with_symmetry() {
    // Workers must not change what a symmetric run explores, pruned or not.
    let spec = SpecPreset::MSpec3.build(&exhaustion_config());
    for por in [false, true] {
        let options = options(SymmetryMode::Canonicalize, StoreMode::Full).with_por(por);
        let seq = check_bfs(&spec, &options);
        let par = check_bfs(&spec, &options.with_workers(4));
        assert_eq!(
            seq.stats.distinct_states, par.stats.distinct_states,
            "por {por}"
        );
        assert_eq!(seq.stats.transitions, par.stats.transitions, "por {por}");
    }
}

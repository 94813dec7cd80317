//! Lock-order audit over the real engines: every production code path must be clean.
//!
//! The instrumented sync layer (`remix_checker::sync`) assigns each lock site a rank
//! in the workspace lock hierarchy and, under audit, records per-thread held-lock
//! sets, acquisition-order edges and rank violations.  These tests run the actual
//! engines — parallel BFS across its worker/store/POR matrix, sequential DFS, guided
//! exploration, trace refinement — inside an audit session and require the resulting
//! lock-order graph to have **zero rank violations and zero cycles**.  Any regression
//! that nests locks against the declared hierarchy (the precursor of a real deadlock)
//! fails here with both witness stacks, long before a scheduler ever interleaves the
//! two acquisitions unluckily.
//!
//! The sessions also double as determinism probes: every matrix cell must agree with
//! the first cell on the explored state space.

use std::time::Duration;

use remix_checker::store::Insert;
use remix_checker::sync::audit;
use remix_checker::{
    check_bfs, check_dfs, check_refinement, explore, state_key, CheckOptions, ExploreOptions,
    RefineOptions, RefineVerdict, StateStore, StoreMode,
};
use remix_spec::LabelTable;
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

fn workload() -> remix_spec::Spec<remix_zab::ZabState> {
    // Crash-free single-transaction mSpec-1: small enough to exhaust in every cell,
    // yet it exercises the full production path (sharded store, per-edge stripe locks,
    // fork-join levels, POR footprint table).
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(0);
    SpecPreset::MSpec1.build(&config)
}

fn options(workers: usize) -> CheckOptions {
    CheckOptions::default()
        .with_workers(workers)
        .with_time_budget(Duration::from_secs(300))
        .with_max_states(500_000)
}

#[test]
fn bfs_matrix_is_lock_order_clean_under_audit() {
    let spec = workload();
    let session = audit::session();
    let mut baseline: Option<usize> = None;
    for workers in [1, 2, 4] {
        for store in [StoreMode::Full, StoreMode::FingerprintOnly] {
            for por in [false, true] {
                let outcome = check_bfs(
                    &spec,
                    &options(workers).with_store_mode(store).with_por(por),
                );
                assert!(outcome.passed(), "workload must pass in every cell");
                let states = outcome.stats.distinct_states;
                match baseline {
                    None => baseline = Some(states),
                    Some(expected) => assert_eq!(
                        states, expected,
                        "workers={workers} store={store:?} por={por} diverged"
                    ),
                }
            }
        }
    }
    let report = session.report();
    assert!(
        report.acquisitions > 0,
        "the audit must have observed the run"
    );
    assert!(
        report.is_clean(),
        "BFS matrix must respect the lock hierarchy: {:?} {:?}",
        report.rank_violations,
        report.cycles()
    );
    // The store's intern pool is taken under the shard lock of an insert and of
    // every parent a Full run rebuilds from its row, and is a leaf.  Workers borrow
    // the level for its scope and hold no lock while they claim, insert, read parents
    // or record footprints.  That is every nesting there is: a new edge is a new
    // deadlock candidate.
    let mut edges: Vec<_> = report
        .edges
        .iter()
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();
    edges.sort_unstable();
    assert_eq!(edges, [("store.shard", "store.pool")]);
}

/// The Full store keeps a state as a row of pool slots, so *reading* one back takes the
/// pool under the stripe's lock, as an insert does.  The store is filled before
/// the session opens: the only acquisitions the audit sees are the reads'.
#[test]
fn reading_a_stored_state_nests_the_pool_under_its_stripe() {
    let spec = workload();
    let labels = LabelTable::new();
    let store: StateStore<remix_zab::ZabState> = StateStore::new(StoreMode::Full, 4);
    let mut last = None;
    let mut state = spec.init[0].clone();
    for _ in 0..4 {
        let key = state_key(&state);
        let label = match last {
            None => LabelTable::init_id(),
            Some(_) => labels.intern("step"),
        };
        let inserted = store
            .lock_shard(store.shard_of(key))
            .insert(key, last, label, state);
        let Insert::Fresh(index, back) = inserted else {
            panic!("a walk along distinct successors");
        };
        last = Some(index);
        state = spec.successors(&back).remove(0).1;
    }
    let tip = last.expect("four states stored");

    let session = audit::session();
    let rebuilt = store
        .state_at(tip)
        .expect("the full store keeps every state");
    assert_eq!(store.index_of(&rebuilt), Some(tip));
    let trace = store.reconstruct_trace(&spec, &labels, tip);
    assert_eq!(trace.last_state(), Some(&rebuilt));
    let report = session.report();
    assert!(report.is_clean(), "{:?}", report.rank_violations);
    let nested: Vec<_> = report
        .edges
        .iter()
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();
    assert_eq!(nested, [("store.shard", "store.pool")]);
}

#[test]
fn dfs_and_guided_exploration_are_lock_order_clean_under_audit() {
    let spec = workload();
    let session = audit::session();
    let dfs = check_dfs(&spec, &options(1).with_max_depth(24));
    assert!(dfs.stats.distinct_states > 0);
    let explored = explore(
        &spec,
        &ExploreOptions::default()
            .with_traces(64)
            .with_max_depth(24)
            .with_seed(11)
            .with_time_budget(Duration::from_secs(60))
            .guided(8),
    );
    assert!(explored.stats.traces > 0);
    let report = session.report();
    assert!(report.acquisitions > 0);
    assert!(
        report.is_clean(),
        "DFS + guided exploration must respect the lock hierarchy: {:?} {:?}",
        report.rank_violations,
        report.cycles()
    );
}

#[test]
fn refinement_check_is_lock_order_clean_under_audit() {
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(0);
    let fine = SpecPreset::SysSpec.build(&config);
    let coarse = SpecPreset::MSpec1.build(&config);
    let projection = remix_zab::coarse_vs_baseline(&config);
    let session = audit::session();
    let outcome = check_refinement(
        &fine,
        &coarse,
        &projection,
        &RefineOptions::default()
            .with_workers(2)
            .with_max_states(200_000)
            .with_time_budget(Duration::from_secs(120)),
    );
    assert_ne!(
        outcome.verdict(),
        RefineVerdict::Diverges,
        "honest presets must not diverge: {outcome}"
    );
    let report = session.report();
    assert!(report.acquisitions > 0);
    assert!(
        report.is_clean(),
        "refinement must respect the lock hierarchy: {:?} {:?}",
        report.rank_violations,
        report.cycles()
    );
}

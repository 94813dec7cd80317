//! Guided exploration on the real Zab model: the coverage-guided sampler finds a
//! seeded deep bug that uniform sampling misses under the same budget.
//!
//! The workload is the `ClusterConfig::explore` preset on buggy v3.9.1 with the
//! mSpec-3 composition restricted to the deep Table 4 invariants (I-8 data loss /
//! I-10 data inconsistency — the ZK-4643/ZK-4712 class).  Reaching them takes a
//! specific crash/re-election interleaving ~35+ transitions deep; uniform random walks
//! keep draining their budget in the hot election/discovery region, while the guided
//! policy is pushed out of over-visited fingerprint regions and reaches the violation.
//!
//! Budgets were re-tuned when the coarse Election module gained its
//! `ElectionAndDiscoveryLateJoin` action: with late joins absorbing LOOKING stragglers
//! that previously forced the re-elections the deep bugs ride on, the violations sit
//! further into the sampling stream for every policy (guided first reaches this one
//! around trace ~4.5k on this seed; uniform exhausts the doubled budget without
//! finding it).

use std::time::Duration;

use remix_checker::{explore, shrink_violation, ExploreOptions};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

fn options() -> ExploreOptions {
    ExploreOptions::default()
        .with_traces(8192)
        .with_max_depth(60)
        .with_seed(7)
        .with_time_budget(Duration::from_secs(90))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive sampling run; use --release")]
fn guided_sampling_finds_the_deep_bug_uniform_misses() {
    let config = ClusterConfig::explore(CodeVersion::V391);
    let mut spec = SpecPreset::MSpec3.build(&config);
    spec.invariants.retain(|i| i.id == "I-8" || i.id == "I-10");

    let guided = explore(&spec, &options().guided(24));
    let found_guided = guided
        .stats
        .first_violation_trace
        .expect("guided sampling reaches the deep violation within the budget");

    let uniform = explore(&spec, &options().uniform());
    match uniform.stats.first_violation_trace {
        None => {} // uniform exhausted the same budget without finding it: strict win
        Some(found_uniform) => assert!(
            found_guided < found_uniform,
            "guided must find the violation on an earlier trace: guided={found_guided} uniform={found_uniform}"
        ),
    }

    // The guided counterexample shrinks to a minimal legal execution that still
    // violates the same invariant.
    let violation = guided.first_violation().unwrap();
    let shrunk = shrink_violation(&spec, &violation.trace, violation.invariant);
    assert!(shrunk.shrunk_depth() <= shrunk.original_depth);
    assert!(
        !spec
            .violated_invariants(shrunk.trace.last_state().unwrap())
            .is_empty(),
        "the shrunk trace must still violate"
    );
}

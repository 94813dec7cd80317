//! Property tests of the granularity projections, via the vendored `proptest` stand-in.
//!
//! The refinement checker's verdicts are only as trustworthy as the projections it
//! compares under, so the properties the engine relies on are pinned down over
//! generated inputs: the per-state calls refinement makes are *total* on every
//! simulated Baseline trace, and `Granularity::abstracts` is a strict partial order (the precondition of
//! `TraceProjection::new`).  The memoized projection key the checker compares is pinned
//! to the `Value` form it stands for.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use remix_checker::{corpus, simulate_one, CheckerRng, CorpusOptions};
use remix_spec::{Granularity, Value};
use remix_zab::{coarse_vs_baseline, projection_between, ClusterConfig, CodeVersion, SpecPreset};

fn config() -> ClusterConfig {
    ClusterConfig {
        max_transactions: 1,
        max_crashes: 1,
        ..ClusterConfig::small(CodeVersion::V391)
    }
}

const GRANULARITIES: [Granularity; 5] = [
    Granularity::Protocol,
    Granularity::Coarse,
    Granularity::Baseline,
    Granularity::FineAtomic,
    Granularity::FineConcurrent,
];

proptest! {
    /// The calls refinement makes along a simulated Baseline trace are total: every
    /// state answers `is_stable` and `key` without panicking, and the `Value` form a
    /// divergence renders holds the globally visible variables.  Two states of the
    /// trace with equal projections have equal keys.
    #[test]
    fn baseline_trace_projection_is_total(seed in 0u64..64, depth in 1u32..40) {
        let config = config();
        let spec = SpecPreset::SysSpec.build(&config);
        let projection = coarse_vs_baseline(&config);
        let mut rng = CheckerRng::seed_from_u64(seed);
        let trace = simulate_one(&spec, depth, &mut rng);
        let mut keys: HashMap<BTreeMap<String, Value>, u64> = HashMap::new();
        for step in &trace.steps {
            let _ = projection.is_stable(&step.state);
            let key = projection.key(&step.state);
            let projected = projection.project_state(&step.state);
            prop_assert!(projected.contains_key("servers"));
            prop_assert!(projected.contains_key("ghost"));
            prop_assert!(projected.contains_key("crashBudget"));
            prop_assert!(projected.contains_key("violation"));
            let known = *keys.entry(projected).or_insert(key);
            prop_assert_eq!(known, key);
        }
    }

    /// `Granularity::abstracts` is a strict partial order: irreflexive, asymmetric and
    /// transitive (checked over all generated triples).
    #[test]
    fn abstracts_is_a_strict_partial_order(a in 0usize..5, b in 0usize..5, c in 0usize..5) {
        let (a, b, c) = (GRANULARITIES[a], GRANULARITIES[b], GRANULARITIES[c]);
        // Irreflexive.
        prop_assert!(!a.abstracts(a));
        // Asymmetric.
        if a.abstracts(b) {
            prop_assert!(!b.abstracts(a));
        }
        // Transitive.
        if a.abstracts(b) && b.abstracts(c) {
            prop_assert!(a.abstracts(c));
        }
        // Consistency with the non-strict order: strict abstraction is exactly
        // "strictly less detail".
        prop_assert_eq!(a.abstracts(b), b.at_least(a) && !a.at_least(b));
    }
}

/// The key contract of all three normalizations: over the reachable states of both
/// sides of each refinement pair, `key(a) == key(b)` exactly when `project_state(a) ==
/// project_state(b)` — the per-component memo neither merges nor splits a class.
#[test]
fn keys_agree_with_projections_on_every_normalization() {
    let three = ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_crashes(0);
    let two = ClusterConfig {
        num_servers: 2,
        ..three.with_crashes(1)
    };
    let pairs = [
        // Election: SysSpec ⊑ mSpec-1.
        (SpecPreset::SysSpec, SpecPreset::MSpec1, two),
        // Sync: mSpec-4 ⊑ SysSpec.
        (SpecPreset::MSpec4, SpecPreset::SysSpec, two),
        // Both: mSpec-2 ⊑ mSpec-1.
        (SpecPreset::MSpec2, SpecPreset::MSpec1, three),
    ];
    let mut classes = Vec::new();
    for (fine, coarse, config) in pairs {
        let projection =
            projection_between(&fine.plan(), &coarse.plan(), &config).expect("a refinement pair");
        let mut by_key: HashMap<u64, BTreeMap<String, Value>> = HashMap::new();
        let mut by_projection: HashMap<BTreeMap<String, Value>, u64> = HashMap::new();
        for preset in [fine, coarse] {
            let states = corpus(
                &preset.build(&config),
                CorpusOptions {
                    max_states: usize::MAX,
                    max_depth: usize::MAX,
                },
            );
            for state in states {
                let (key, projected) = (projection.key(&state), projection.project_state(&state));
                let class = by_key.entry(key).or_insert_with(|| projected.clone());
                assert_eq!(
                    class, &projected,
                    "{}: one key for two projections",
                    projection.name
                );
                let known = *by_projection.entry(projected).or_insert(key);
                assert_eq!(
                    known, key,
                    "{}: two keys for one projection",
                    projection.name
                );
            }
        }
        classes.push(by_key.len());
    }
    // 1,605 + 139, 1,972 + 1,605 and 207 + 181 states.
    assert_eq!(classes, [127, 581, 199], "projected classes per pair");
}

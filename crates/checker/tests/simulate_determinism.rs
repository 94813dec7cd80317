//! Regression tests: batch simulation must produce byte-identical traces for every
//! worker count, mirroring `parallel_determinism.rs` for the sampling engine.
//!
//! Per-trace seeding (`CheckerRng::for_trace`) is what makes the conformance loop's
//! parallel sampling reproducible (§3.5.2); these tests pin that contract on a real
//! composed Zab specification rather than a toy, so label generation, successor
//! enumeration and the RNG stream all run the production path.

use remix_checker::{
    explore, simulate, simulate_one, CheckerRng, ExploreOptions, SimulationOptions,
};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

fn options() -> SimulationOptions {
    SimulationOptions::default()
        .with_traces(12)
        .with_max_depth(24)
        .with_seed(0xD15EA5E)
}

#[test]
fn simulation_batches_are_byte_identical_across_worker_counts() {
    let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
    let spec = SpecPreset::MSpec1.build(&config);
    let sequential = simulate(&spec, &options());
    assert_eq!(sequential.len(), 12);
    for workers in [2, 4, 7] {
        let parallel = simulate(&spec, &options().with_workers(workers));
        assert_eq!(
            sequential, parallel,
            "the sampled batch must not depend on the worker count (workers={workers})"
        );
    }
}

#[test]
fn batch_traces_match_per_trace_sub_streams() {
    // Trace `i` of a batch is exactly what `simulate_one` produces from the documented
    // sub-stream — the property conformance checking relies on to replay a single
    // trace index in isolation.
    let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
    let spec = SpecPreset::MSpec1.build(&config);
    let opts = options();
    let batch = simulate(&spec, &opts);
    for (index, trace) in batch.iter().enumerate() {
        let mut rng = CheckerRng::for_trace(opts.seed, index as u64);
        let lone = simulate_one(&spec, opts.max_depth, &mut rng);
        assert_eq!(trace, &lone, "trace {index} diverged from its sub-stream");
    }
}

#[test]
fn uniform_exploration_matches_across_worker_counts() {
    // With uniform guidance the coverage map records hits but never influences a
    // choice, so guided exploration inherits simulate's determinism contract: the
    // sampled traces — and hence the violations found — are worker-count independent
    // (as long as no early stop cuts the run short), and each worker keeps only the
    // lowest-(trace, depth) violation per invariant it saw, so the merged ones agree.
    let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
    let spec = SpecPreset::MSpec1.build(&config);
    let opts = ExploreOptions::default()
        .with_traces(12)
        .with_max_depth(24)
        .with_seed(0xD15EA5E)
        .uniform();
    let opts = ExploreOptions {
        stop_on_violation: false,
        ..opts
    };
    let one = explore(&spec, &opts);
    let kept = |outcome: &remix_checker::ExploreOutcome<_>| {
        outcome
            .violations
            .iter()
            .map(|v| (v.invariant, v.depth, v.trace.clone()))
            .collect::<Vec<_>>()
    };
    for workers in [2, 3, 4] {
        let many = explore(&spec, &opts.clone().with_workers(workers));
        assert_eq!(one.stats.traces, many.stats.traces, "workers={workers}");
        assert_eq!(one.stats.steps, many.stats.steps, "workers={workers}");
        assert_eq!(
            one.stats.first_violation_trace, many.stats.first_violation_trace,
            "workers={workers}"
        );
        assert_eq!(kept(&one), kept(&many), "workers={workers}");
        assert_eq!(
            one.stats.coverage.total_hits, many.stats.coverage.total_hits,
            "workers={workers}"
        );
        assert_eq!(
            one.stats.coverage.distinct_prefixes, many.stats.coverage.distinct_prefixes,
            "workers={workers}"
        );
    }
    // `simulate` is the same walk without the coverage map: for one seed, trace budget
    // and depth, uniform exploration takes exactly the steps of simulate's batch.
    let batch = simulate(&spec, &options());
    assert_eq!(
        one.stats.steps,
        batch.iter().map(|t| t.depth() as u64).sum::<u64>(),
        "explore(Uniform) and simulate draw the same choices from the same sub-streams"
    );
}

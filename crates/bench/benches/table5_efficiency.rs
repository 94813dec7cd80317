//! Criterion bench for Table 5: verification efficiency of the mixed-grained
//! specifications (stop-at-first-violation mode) on a reduced configuration, plus the
//! worker-scaling and store-backend measurements of the parallel BFS engine.
//!
//! Besides the timing loops, `bench_workers_scaling` performs one instrumented
//! fixed-workload run per `(store mode, symmetry mode, worker count)` triple and
//! writes the resulting rows (states/sec, speedup over one worker, per-worker
//! transition balance, shard contention, and the store's peak entry bytes — where the
//! fingerprint-only backend must come in strictly below the full-state arena, and the
//! symmetry-reduced runs strictly below their unreduced twins on `distinct_states`)
//! to `BENCH_table5.json` (path overridable via `TABLE5_JSON`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use remix_checker::{check_bfs, CheckOptions, StoreMode, SymmetryMode};
use remix_core::{Verifier, VerifierOptions};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

fn bench_efficiency(c: &mut Criterion) {
    let mut group = c.benchmark_group("table5_efficiency");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(20));
    // The reduced configuration keeps even the baseline bounded enough for a bench loop;
    // the reproduce binary runs the full Table 5 configuration.
    let config = ClusterConfig::table5(CodeVersion::V370)
        .with_transactions(1)
        .with_crashes(1);
    // SysSpec and mSpec-4 (baseline election) are bounded by states rather than time so
    // that a single bench iteration stays in the sub-second range.
    for preset in [SpecPreset::MSpec1, SpecPreset::MSpec2, SpecPreset::MSpec3] {
        group.bench_function(preset.name(), |b| {
            b.iter(|| {
                let verifier = Verifier::new(config);
                let run = verifier.verify_preset(
                    preset,
                    &VerifierOptions::default().with_time_budget(Duration::from_secs(60)),
                );
                run.outcome.stats.distinct_states
            });
        });
    }
    for preset in [SpecPreset::SysSpec, SpecPreset::MSpec4] {
        group.bench_function(format!("{}-bounded", preset.name()), |b| {
            b.iter(|| {
                let verifier = Verifier::new(config);
                let run = verifier.verify_preset(
                    preset,
                    &VerifierOptions::default()
                        .with_time_budget(Duration::from_secs(60))
                        .with_max_states(20_000),
                );
                run.outcome.stats.distinct_states
            });
        });
    }
    group.finish();
}

/// One fixed-workload exploration: the fine-grained preset on the fixed implementation,
/// run to exhaustion, so every `(store mode, symmetry mode, POR, worker count)`
/// quadruple explores exactly the same states and throughput / memory are directly
/// comparable (within a symmetry mode; canonicalization shrinks the workload itself,
/// which is the point of the symmetry column, and sleep-set POR prunes redundant
/// edges of the same state space, which is the point of the `por` column).
fn scaling_run(
    mode: StoreMode,
    symmetry: SymmetryMode,
    por: bool,
    workers: usize,
) -> remix_checker::CheckOutcome<remix_zab::ZabState> {
    let config = ClusterConfig::small(CodeVersion::FinalFix).with_transactions(1);
    let spec = SpecPreset::MSpec3.build(&config);
    let options = CheckOptions::default()
        .with_store_mode(mode)
        .with_symmetry(symmetry)
        .with_por(por)
        .with_workers(workers)
        .with_time_budget(Duration::from_secs(120));
    check_bfs(&spec, &options)
}

fn bench_workers_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("table5_workers_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    let worker_counts = [1usize, 2, 4];
    let modes = [StoreMode::Full, StoreMode::FingerprintOnly];
    let symmetries = [SymmetryMode::Off, SymmetryMode::Canonicalize];
    let pors = [false, true];
    for mode in modes {
        for symmetry in symmetries {
            for por in pors {
                for workers in worker_counts {
                    group.bench_function(
                        format!("mSpec-3/{mode}/symmetry={symmetry}/por={por}/workers={workers}"),
                        |b| {
                            b.iter(|| {
                                scaling_run(mode, symmetry, por, workers)
                                    .stats
                                    .distinct_states
                            });
                        },
                    );
                }
            }
        }
    }
    group.finish();

    // One instrumented run per (store mode, symmetry mode, POR, worker count) for the
    // committed artefact.
    let mut rows = Vec::new();
    // Expected distinct-state count per symmetry mode (identical across store modes,
    // POR settings and worker counts — sleep sets prune edges, never states), and the
    // concrete/canonical pair for the workload banner.
    let mut workload_states: [Option<usize>; 2] = [None, None];
    let mut full_entry_bytes = None;
    // Unreduced transition counts per (store mode, workers), recorded on the
    // symmetry=off / por=off leg: the denominator-free baseline every reduced row's
    // `reduction_factor` is measured against.
    let mut baseline_transitions: std::collections::HashMap<(String, usize), u64> =
        std::collections::HashMap::new();
    let mut combined_reduction = None;
    for mode in modes {
        for (si, symmetry) in symmetries.into_iter().enumerate() {
            for por in pors {
                let mut base_rate = None;
                for workers in worker_counts {
                    // Exploration is deterministic, so repeated runs differ only in
                    // timing; keeping the fastest of three is the standard estimator
                    // robust to shared-runner interference, and the throughput gate in
                    // CI depends on these rows not being single-shot noise.
                    let outcome = (0..3)
                        .map(|_| scaling_run(mode, symmetry, por, workers))
                        .min_by_key(|o| o.stats.elapsed)
                        .expect("three attempts ran");
                    // A throughput comparison is only meaningful over identical
                    // workloads: every run must exhaust its state space, not get cut
                    // off by the budget.
                    assert_eq!(
                        outcome.stop_reason,
                        remix_checker::StopReason::Exhausted,
                        "scaling run ({mode}, {symmetry}, por={por}, workers={workers}) \
                         must exhaust the workload; got {}",
                        outcome.stop_reason
                    );
                    let expected =
                        *workload_states[si].get_or_insert(outcome.stats.distinct_states);
                    assert_eq!(
                        outcome.stats.distinct_states, expected,
                        "scaling runs must explore identical state spaces \
                         ({mode}, {symmetry}, por={por}, workers={workers})"
                    );
                    match mode {
                        StoreMode::Full => {
                            full_entry_bytes.get_or_insert(outcome.stats.peak_entry_bytes);
                        }
                        StoreMode::FingerprintOnly => {
                            let full = full_entry_bytes.expect("full mode measured first");
                            assert!(
                                outcome.stats.peak_entry_bytes < full,
                                "fingerprint-only peak entry bytes ({}) must be strictly \
                                 below the full store's ({full})",
                                outcome.stats.peak_entry_bytes
                            );
                        }
                    }
                    if symmetry == SymmetryMode::Off && !por {
                        baseline_transitions
                            .insert((mode.to_string(), workers), outcome.stats.transitions);
                    }
                    let baseline = baseline_transitions
                        .get(&(mode.to_string(), workers))
                        .copied()
                        .expect("the off/off leg runs first");
                    let reduction = if outcome.stats.transitions > 0 {
                        baseline as f64 / outcome.stats.transitions as f64
                    } else {
                        0.0
                    };
                    if mode == StoreMode::Full
                        && symmetry == SymmetryMode::Canonicalize
                        && por
                        && workers == 1
                    {
                        combined_reduction = Some(reduction);
                    }
                    let tx_rate = outcome.stats.transitions_per_second();
                    let base = *base_rate.get_or_insert(tx_rate);
                    let speedup = if base > 0.0 { tx_rate / base } else { 0.0 };
                    println!(
                        "scaling mode={mode} symmetry={symmetry} por={por} \
                         workers={workers}: {} states, {} transitions (+{} pruned) in \
                         {:.2?} -> {:.0} transitions/s (speedup {speedup:.2}x, \
                         reduction {reduction:.2}x, contention {}, peak entry bytes {})",
                        outcome.stats.distinct_states,
                        outcome.stats.transitions,
                        outcome.stats.pruned_transitions,
                        outcome.stats.elapsed,
                        tx_rate,
                        outcome.stats.total_contention(),
                        outcome.stats.peak_entry_bytes,
                    );
                    rows.push(format!(
                        "    {{\"store_mode\": \"{mode}\", \"symmetry\": \"{symmetry}\", \"por\": {por}, \"workers\": {workers}, \"distinct_states\": {}, \"stop_reason\": \"{}\", \"elapsed_ms\": {}, \"transitions\": {}, \"pruned_transitions\": {}, \"transitions_per_sec\": {:.1}, \"states_per_sec\": {:.1}, \"reduction_factor\": {reduction:.3}, \"speedup_vs_1_worker\": {speedup:.3}, \"peak_entry_bytes\": {}, \"entry_bytes_per_state\": {}, \"per_worker_transitions\": [{}], \"shard_contention_total\": {}, \"mem_budget\": {}, \"bytes_spilled\": {}}}",
                        outcome.stats.distinct_states,
                        outcome.stop_reason,
                        outcome.stats.elapsed.as_millis(),
                        outcome.stats.transitions,
                        outcome.stats.pruned_transitions,
                        tx_rate,
                        outcome.stats.states_per_second(),
                        outcome.stats.peak_entry_bytes,
                        outcome.stats.entry_bytes_per_state,
                        outcome
                            .stats
                            .per_worker_transitions
                            .iter()
                            .map(|t| t.to_string())
                            .collect::<Vec<_>>()
                            .join(", "),
                        outcome.stats.total_contention(),
                        outcome.stats.spill.budget_bytes,
                        outcome.stats.spill.bytes_spilled,
                    ));
                }
            }
        }
    }
    let [concrete_states, canonical_states] = workload_states;
    assert!(
        canonical_states.unwrap_or(0) < concrete_states.unwrap_or(usize::MAX),
        "symmetry reduction must strictly shrink the workload \
         ({canonical_states:?} vs {concrete_states:?} states)"
    );
    let combined_reduction = combined_reduction.expect("the canonicalize+POR leg ran");
    assert!(
        combined_reduction > 1.0,
        "symmetry and POR together must explore fewer transitions than the \
         unreduced run (got {combined_reduction:.3}x)"
    );
    // Benches run with the package directory as CWD; anchor the artefact at the
    // workspace root unless overridden.
    let path = std::env::var("TABLE5_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_table5.json", env!("CARGO_MANIFEST_DIR")));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"table5_workers_scaling\",\n  \"workload\": \"mSpec-3 on FinalFix, small config with 1 transaction, run to exhaustion ({} concrete states; {} canonical representatives under symmetry reduction), one row per (store mode, symmetry mode, POR, worker count)\",\n  \"host_cores\": {cores},\n  \"combined_reduction_factor\": {combined_reduction:.3},\n  \"note\": \"each row is the fastest of three identical runs (exploration is deterministic; min wall-clock is the noise-robust estimator). throughput is transitions_per_sec (generated edges per second): unlike states_per_sec it is comparable across symmetry/POR rows, which change how many distinct states the same work discovers; speedup_vs_1_worker is measured on it and bounded by host_cores. reduction_factor is the off/off leg's transition count over the row's (same store mode and worker count); combined_reduction_factor is that factor for the canonicalize+POR single-worker full-store row. por=true enables sleep-set pruning: pruned_transitions counts skipped edges and distinct_states must match the por=false twin. peak_entry_bytes counts per-entry store payload (metadata + dedup entry + inline state for the full mode); the fingerprint-only backend must be strictly lower. symmetry=canonicalize dedups whole server-id-permutation orbits, so its distinct_states must be strictly lower than the off rows'. mem_budget/bytes_spilled record out-of-core fingerprint-set activity (0 when the run ran fully in RAM).\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        concrete_states.unwrap_or(0),
        canonical_states.unwrap_or(0),
        rows.join(",\n")
    );
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_efficiency, bench_workers_scaling);
criterion_main!(benches);

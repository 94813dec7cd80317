//! The guided-vs-uniform exploration artefact: runs the paired comparison of
//! `remix_bench::explore_comparison` — same seeds, same budgets, deep Table 4
//! invariants only (I-8/I-10) — and writes the rows to `BENCH_explore.json` (path
//! overridable via `EXPLORE_JSON`).  Each row records the policy's time/traces to
//! first violation, its coverage footprint, and how far delta debugging shrank the
//! counterexample; uniform sampling typically finds nothing on these invariants within
//! the budget, which is the asymmetry the artefact documents.
//!
//! After the write the process asserts every row's bar, so a bare
//! `cargo bench --bench explore_guided` fails loudly: at least one trace sampled, the
//! hottest prefix hit at most once per trace, and a shrunk counterexample no longer
//! than the original.  Sampling throughput is `remix-bench`'s `sample-conform`
//! workload.

use std::time::Duration;

use remix_bench::explore_comparison;

fn main() {
    // Paired runs on the deep invariants across several seeds.  Budgets re-tuned for
    // the late-join-capable coarse Election module (see `guided_explore_zab.rs`): the
    // deep violations now sit thousands of traces into the sampling stream, so each
    // run gets a larger trace budget.
    let seeds = [2u64, 3, 7];
    let rows = explore_comparison(8192, 60, Duration::from_secs(60), &seeds);
    for row in &rows {
        println!(
            "explore seed={} mode={}: violation={} first_violation_trace={:?} traces={} shrunk={:?}/{:?}",
            row.seed,
            row.mode,
            row.violation_found,
            row.first_violation_trace,
            row.traces,
            row.shrunk_depth,
            row.original_depth,
        );
    }
    let found = |mode: &str| {
        rows.iter()
            .filter(|r| r.mode == mode && r.violation_found)
            .count()
    };
    // Benches run with the package directory as CWD; anchor the artefact at the
    // workspace root unless overridden.
    let path = std::env::var("EXPLORE_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_explore.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        "{{\n  \"bench\": \"explore_guided\",\n  \"workload\": \"mSpec-3 on v3.9.1 (explore config), deep invariants I-8/I-10 only, {} traces x depth {} per run\",\n  \"seeds\": {},\n  \"uniform_runs_with_violation\": {},\n  \"guided_runs_with_violation\": {},\n  \"note\": \"paired seeds: each seed runs both policies with identical budgets; durations in milliseconds. coverage counts each prefix once per trace (max_prefix_hits <= traces by construction) and rarity weights are relative to the candidate set's minimum, so guidance no longer degenerates to uniform on long runs\",\n  \"rows\": [\n    {}\n  ]\n}}\n",
        8192,
        60,
        seeds.len(),
        found("uniform"),
        found("coverage-guided"),
        rows.iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    println!("wrote {path}");

    for row in &rows {
        let json = row.to_json();
        assert!(row.traces >= 1, "a run that sampled no trace: {json}");
        assert!(
            row.max_prefix_hits <= row.traces as u64,
            "coverage counted a prefix more than once per trace: {json}"
        );
        if let (Some(original), Some(shrunk)) = (row.original_depth, row.shrunk_depth) {
            assert!(shrunk <= original, "shrinking lengthened the trace: {json}");
        }
    }
}

//! The concurrency-soundness artefact: runs the concurrency analysis tiers against
//! the engine and writes `BENCH_concurrency.json` (path overridable via
//! `CONCURRENCY_JSON`).
//!
//! * **Concurrency lint** — `lint_concurrency` over `crates/*/src`; rows carry
//!   workload `"workspace"`.  Zero findings is the acceptance bar.
//! * **Lock-order audit** — the parallel BFS matrix (workers {1, 2, 4} × store
//!   modes × POR on/off) plus DFS on the Table 5 small workload, run inside one
//!   audit session; the accumulated acquisition graph must have zero rank
//!   violations and zero cycles.
//! * **Seeded rank inversion** — `remix_checker::sync::seeded_rank_inversion`
//!   nests two locks against the declared hierarchy; its findings are written with
//!   `"seeded": true` and are *required*.
//! * **Determinism matrix** — the schedule-perturbation oracle re-runs the same
//!   workload across worker counts under seeded yield injection; any divergence
//!   from the unperturbed baseline is a soundness row.
//! * **Seeded divergence** — `seeded_schedule_divergence` checks a deliberately
//!   history-dependent spec; its rows are `"seeded": true` and one is required.
//!
//! After the write the process asserts the acceptance bar (lint clean, the audit saw
//! acquisitions and the fuzz compared cells with zero findings each — so no unseeded
//! row at all — and both seeded regressions reproduced), so a bare
//! `cargo bench --bench concurrency_soundness` fails loudly.

use std::time::Duration;

use remix_analyze::schedule::seeded_schedule_divergence;
use remix_analyze::{
    lint_concurrency, lock_order_findings, schedule_oracle, ScheduleOracleOptions,
};
use remix_checker::sync::{audit, seeded_rank_inversion};
use remix_checker::{check_bfs, check_dfs, CheckOptions, StoreMode};
use remix_core::json::JsonObject;
use remix_core::ConcurrencyRow;
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

fn main() {
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(0);
    let spec = SpecPreset::MSpec1.build(&config);
    let base = CheckOptions::default()
        .with_time_budget(Duration::from_secs(300))
        .with_max_states(500_000);

    let mut rows: Vec<ConcurrencyRow> = Vec::new();
    let mut runs: Vec<String> = Vec::new();

    // Tier: concurrency lint over the workspace source.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let lint = lint_concurrency(std::path::Path::new(root));
    for finding in &lint.findings {
        rows.push(ConcurrencyRow::from_finding("workspace", finding, false));
    }
    runs.push(
        JsonObject::new()
            .string("run", "concurrency_lint")
            .u128("files_scanned", lint.corpus_states.into())
            .u128("findings", lint.findings.len() as u128)
            .finish(),
    );
    println!(
        "concurrency lint: {} finding(s) over {} files",
        lint.findings.len(),
        lint.corpus_states
    );

    // Tier: lock-order audit over the engine matrix.
    let session = audit::session();
    for workers in [1usize, 2, 4] {
        for store in [StoreMode::Full, StoreMode::FingerprintOnly] {
            for por in [false, true] {
                let outcome = check_bfs(
                    &spec,
                    &base
                        .clone()
                        .with_workers(workers)
                        .with_store_mode(store)
                        .with_por(por),
                );
                assert!(outcome.passed(), "the audited workload must pass");
            }
        }
    }
    let dfs = check_dfs(&spec, &base.clone().with_max_depth(24));
    assert!(dfs.stats.distinct_states > 0);
    let audit_report = session.report();
    drop(session);
    let order = lock_order_findings(&audit_report);
    for finding in &order.findings {
        rows.push(ConcurrencyRow::from_finding(
            "mSpec-1 engine matrix",
            finding,
            false,
        ));
    }
    runs.push(
        JsonObject::new()
            .string("run", "lock_order_audit")
            .u128("acquisitions", audit_report.acquisitions.into())
            .u128("lock_sites", audit_report.locks_seen.len() as u128)
            .u128("order_edges", audit_report.edges.len() as u128)
            .u128("findings", order.findings.len() as u128)
            .finish(),
    );
    println!(
        "lock-order audit: {} acquisitions over {} sites, {} edges, {} finding(s)",
        audit_report.acquisitions,
        audit_report.locks_seen.len(),
        audit_report.edges.len(),
        order.findings.len()
    );

    // Seeded regression: the deliberate rank inversion must be flagged.
    let seeded_order = lock_order_findings(&seeded_rank_inversion());
    let inversion_hit = seeded_order
        .soundness()
        .any(|f| f.action == "rank-inversion" && f.location.contains("seeded.inner"));
    for finding in seeded_order.soundness() {
        rows.push(ConcurrencyRow::from_finding(
            "seeded-rank-inversion",
            finding,
            true,
        ));
    }
    println!(
        "seeded rank inversion: {} soundness finding(s), inner-site hit: {inversion_hit}",
        seeded_order.soundness_count()
    );

    // Tier: schedule-perturbation determinism matrix.
    let oracle_opts = ScheduleOracleOptions {
        workers: vec![1, 2, 4],
        seeds: vec![0xC0FF_EE11, 0xBAD_5EED],
    };
    let oracle = schedule_oracle("mSpec-1 small", &spec, &base, &oracle_opts);
    for finding in &oracle.findings {
        rows.push(ConcurrencyRow::from_finding(
            "mSpec-1 small",
            finding,
            false,
        ));
    }
    runs.push(
        JsonObject::new()
            .string("run", "schedule_fuzz")
            .u128("cells_compared", oracle.diamonds_checked.into())
            .u128("baseline_states", oracle.corpus_states.into())
            .u128("findings", oracle.findings.len() as u128)
            .finish(),
    );
    println!(
        "schedule fuzz: {} cells against a {}-state baseline, {} finding(s)",
        oracle.diamonds_checked,
        oracle.corpus_states,
        oracle.findings.len()
    );

    // Seeded regression: the history-dependent demo spec must diverge.
    let seeded_fuzz = seeded_schedule_divergence();
    let divergence_hit = seeded_fuzz
        .soundness()
        .any(|f| f.action == "determinism-divergence" && f.location.contains("seed="));
    for finding in seeded_fuzz.soundness() {
        rows.push(ConcurrencyRow::from_finding(
            "seeded-racy-demo",
            finding,
            true,
        ));
    }
    println!(
        "seeded divergence: {} soundness finding(s), replayable-seed hit: {divergence_hit}",
        seeded_fuzz.soundness_count()
    );

    let path = std::env::var("CONCURRENCY_JSON").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_concurrency.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    let json = format!(
        "{{\n  \"bench\": \"concurrency_soundness\",\n  \"workload\": \"concurrency lint over crates/*/src; lock-order audit of the parallel BFS matrix (workers 1/2/4 x Full/FingerprintOnly x POR on/off) plus DFS on mSpec-1 small (FinalFix, 1 transaction, crash-free); schedule-perturbation determinism oracle across the same worker counts x 2 seeds; plus the seeded rank-inversion and seeded determinism-divergence regressions (seeded: true rows)\",\n  \"runs\": [\n{}\n  ],\n  \"rows\": [\n{}\n  ]\n}}\n",
        runs.join(",\n"),
        rows.iter()
            .map(ConcurrencyRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    println!("wrote {path}");

    assert!(
        lint.findings.is_empty(),
        "concurrency lint findings on the workspace: {:?}",
        lint.findings
    );
    assert!(
        audit_report.acquisitions > 0,
        "the lock-order audit observed nothing"
    );
    assert!(
        order.findings.is_empty(),
        "lock-order findings on the honest engine: {:?}",
        order.findings
    );
    assert!(
        oracle.diamonds_checked > 0,
        "the schedule fuzz compared no cells"
    );
    assert!(
        oracle.findings.is_empty(),
        "schedule-fuzz findings on the honest engine: {:?}",
        oracle.findings
    );
    assert!(
        inversion_hit,
        "the seeded rank inversion was not reproduced"
    );
    assert!(
        divergence_hit,
        "the seeded determinism divergence was not reproduced"
    );
}

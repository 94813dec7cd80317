//! The schedule-perturbation determinism oracle on the real Zab workload.
//!
//! The oracle's promise cuts both ways and both directions need a regression:
//!
//! * **no false positives** — the production engine, which the determinism suites
//!   already pin as schedule-independent, must survive seeded yield injection
//!   across worker counts without a single divergence finding, in both store
//!   backends;
//! * **no false negatives** — the deliberately history-dependent demo spec
//!   ([`seeded_schedule_divergence`]) must be flagged, with a replayable seed.

use std::time::Duration;

use remix_analyze::schedule::seeded_schedule_divergence;
use remix_analyze::{schedule_oracle, ScheduleOracleOptions};
use remix_checker::{check_bfs, CheckOptions, StoreMode};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// Each engine run is checked in both store backends.
const STORES: [StoreMode; 2] = [StoreMode::Full, StoreMode::FingerprintOnly];

#[test]
fn zab_preset_is_deterministic_under_schedule_perturbation() {
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(0);
    let spec = SpecPreset::MSpec1.build(&config);
    for store in STORES {
        let base = CheckOptions::default()
            .with_store_mode(store)
            .with_time_budget(Duration::from_secs(300))
            .with_max_states(500_000);
        let report = schedule_oracle(
            "mspec1-small",
            &spec,
            &base,
            &ScheduleOracleOptions {
                workers: vec![1, 2, 4],
                seeds: vec![0xC0FF_EE11],
            },
        );
        assert!(
            report.findings.is_empty(),
            "the engine must be schedule-independent ({store}):\n{}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.diamonds_checked, 3, "all three cells compared");
        assert!(report.corpus_states > 0);
    }
}

#[test]
fn seeded_divergence_regression_is_flagged() {
    let report = seeded_schedule_divergence();
    assert!(report.has_soundness());
    let finding = &report.findings[0];
    assert_eq!(finding.action, "determinism-divergence");
    assert!(finding.location.contains("workers=2"));
    assert!(finding.detail.contains("perturb::install"));
}

/// The store's intern pool hands out allocations in insert order, which depends on
/// the schedule; nothing derived from a pooled handle (an address, a pool slot) may
/// reach a key, a trace or a statistic.  A run that records every violation of a buggy
/// version to completion exposes all three in its signature.
#[test]
fn violating_completion_run_is_deterministic_under_schedule_perturbation() {
    let config = ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_crashes(0);
    let spec = SpecPreset::MSpec3.build(&config);
    for store in STORES {
        let base = CheckOptions::completion().with_store_mode(store);
        assert!(
            !check_bfs(&spec, &base).violations.is_empty(),
            "the signature under test must carry violations ({store})"
        );
        let report = schedule_oracle(
            "mspec3-v391-completion",
            &spec,
            &base,
            &ScheduleOracleOptions {
                workers: vec![1, 2, 4],
                seeds: vec![0x5EED_F00D],
            },
        );
        assert!(
            report.findings.is_empty(),
            "{store}: {:?}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(report.diamonds_checked, 3);
        assert!(report.corpus_states > 100);
    }
}

//! Memory ceiling and counts of the `exhaust-outofcore` space: `exhaust-fine`'s cluster
//! under the fingerprint-only store with a 1 MiB budget — the one configuration where
//! the spill tier runs, so what stays resident per state is the per-entry record, not
//! the fingerprint.
//!
//! A test file is its own process, and this file holds a single test, so the process's
//! peak resident set (`VmHWM`) belongs to that one exploration.  Spilling may not
//! change the search: the counts are the in-RAM run's.
#![cfg(target_os = "linux")]

use std::time::Duration;

use remix_checker::{check_bfs, CheckOptions, SpillConfig, StopReason, StoreMode};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// `VmHWM` was 18.2–18.3 MiB while every entry kept its fingerprint twice — in the
/// dedup tier and again in a 24-byte `(fingerprint, parent, label)` record that stays
/// resident when the fingerprints spill; with the fingerprint kept once and an 8-byte
/// `(parent, label)` record it is 15.3–15.5 MiB, and the 24-byte records fail.
const CEILING_KIB: u64 = 17 * 1024;

fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("the kernel reports VmHWM");
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a number of kB")
}

#[test]
#[ignore = "exhausts 221,490 states through the spill tier; runs under --include-ignored"]
fn exhaust_outofcore_stays_under_the_memory_ceiling() {
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(2);
    let options = CheckOptions::default()
        .with_store_mode(StoreMode::FingerprintOnly)
        .with_spill(SpillConfig::in_ram().with_budget_bytes(1 << 20))
        .with_time_budget(Duration::from_secs(600));
    let outcome = check_bfs(&SpecPreset::MSpec3.build(&config), &options);
    assert_eq!(outcome.stop_reason, StopReason::Exhausted, "{outcome}");
    assert!(outcome.passed(), "{outcome}");
    assert_eq!(outcome.stats.distinct_states, 221_490);
    assert_eq!(outcome.stats.transitions, 432_409);
    assert!(outcome.stats.spill.spilled(), "{:?}", outcome.stats.spill);
    let peak = peak_rss_kib();
    assert!(
        peak <= CEILING_KIB,
        "peak RSS {:.1} MiB exceeds the {} MiB ceiling",
        peak as f64 / 1024.0,
        CEILING_KIB / 1024
    );
}

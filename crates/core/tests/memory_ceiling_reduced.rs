//! Memory ceiling and canonical counts of the `exhaust-reduced` space: `exhaust-fine`'s
//! cluster under the fingerprint-only store, symmetry canonicalization and sleep-set
//! POR — the one configuration where every reduction runs at once.
//!
//! A test file is its own process, and this file holds a single test, so the process's
//! peak resident set (`VmHWM`) belongs to that one exploration.  The counts pin the
//! canonical forms: `remix-bench` only compares a run with its own repetitions, so a
//! changed canonical order would pass it silently but moves these.
#![cfg(target_os = "linux")]

use std::time::Duration;

use remix_checker::{check_bfs, CheckOptions, StopReason, StoreMode, SymmetryMode};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// `VmHWM` was 18.4–18.8 MiB while every stored entry kept its permutation as a heap
/// `Vec<u32>` (24 inline bytes plus a 32-byte allocation); with a 16-byte inline `Perm`
/// it was 15.0–15.8 MiB, and the heap permutations fail.  With each entry's
/// fingerprint kept once, beside an 8-byte `(parent, label)` record instead of a
/// 24-byte one, it is 13.9–14.6 MiB.  The two ranges lie too close for a ceiling
/// between them, so the 24-byte records pass this one.
const CEILING_KIB: u64 = 16 * 1024;

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
#[ignore = "exhausts 105,770 canonical states; runs under --include-ignored"]
fn exhaust_reduced_stays_under_the_memory_ceiling() {
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(2);
    let options = CheckOptions::default()
        .with_store_mode(StoreMode::FingerprintOnly)
        .with_symmetry(SymmetryMode::Canonicalize)
        .with_por(true)
        .with_time_budget(Duration::from_secs(600));
    let outcome = check_bfs(&SpecPreset::MSpec3.build(&config), &options);
    assert_eq!(outcome.stop_reason, StopReason::Exhausted, "{outcome}");
    assert!(outcome.passed(), "{outcome}");
    assert_eq!(outcome.stats.distinct_states, 105_770);
    assert_eq!(outcome.stats.transitions, 192_314);
    assert_eq!(outcome.stats.pruned_transitions, 14_812);
    assert_eq!(outcome.stats.canon_fallbacks, 0);
    let peak = peak_rss_kib();
    assert!(
        peak <= CEILING_KIB,
        "peak RSS {:.1} MiB exceeds the {} MiB ceiling",
        peak as f64 / 1024.0,
        CEILING_KIB / 1024
    );
}

//! Memory ceiling of the `exhaust-fine` space: the one `remix-bench` metric that repeats
//! to a fraction of a percent (`peak_rss_mb`), gated where CI already runs.
//!
//! A test file is its own process, and this file holds a single test, so the process's
//! peak resident set (`VmHWM`) belongs to that one exploration.  The run uses the
//! default options — Full store, in RAM, no reductions, one worker — because a
//! fingerprint-only or spilling run says nothing about what a state costs.
#![cfg(target_os = "linux")]

use std::time::Duration;

use remix_checker::{check_bfs, CheckOptions, StopReason};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// `VmHWM` was 688 MiB with deep-copied states, 208 MiB with components shared along
/// the parent edge and about 80 MiB with the store's intern pool keeping one allocation
/// per distinct component; with the Full arena keeping each state as a row of pool
/// slots in fixed-size chunks it was about 43 MiB, and with the kernel staging one
/// parent's successors instead of a batch per stripe about 33 MiB.  With the frontier
/// holding store indices instead of owned states (the widest level, 13,672 states,
/// was ≈ 200 B each) it was about 27 MiB.  With each entry's fingerprint kept once, in
/// the dedup map, beside an 8-byte `(parent, label)` record, and a 9-word row (the
/// three budgets in one word, `partitioned` and `violation` in another) it was
/// 20.7–20.8 MiB.  With the Full store deduplicating on the rows themselves — a 5-byte
/// row-index bucket per state instead of a fingerprint-map entry — it was
/// 15.50–15.54 MiB.  With each row kept in 16-bit units, an 8-word row with the
/// budgets inline in one word, it was about 11.3 MiB, and the 32-bit rows' 15.5 fail.
/// With the intern pool keeping 16-byte slots, one digest table per type and exactly
/// sized values, and the server state's maps as sorted vectors, it is 10.8–11.0 MiB:
/// too close to 11.3 for a ceiling between them.
const CEILING_KIB: u64 = 13 * 1024;

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
#[ignore = "holds 221,490 full states; runs under --include-ignored"]
fn exhaust_fine_stays_under_the_memory_ceiling() {
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(2);
    let options = CheckOptions::default().with_time_budget(Duration::from_secs(600));
    let outcome = check_bfs(&SpecPreset::MSpec3.build(&config), &options);
    assert_eq!(outcome.stop_reason, StopReason::Exhausted, "{outcome}");
    assert!(outcome.passed(), "{outcome}");
    assert_eq!(outcome.stats.distinct_states, 221_490);
    assert_eq!(outcome.stats.transitions, 432_409);
    // Depth 27: the frontier term of the peak is this many entries.
    assert_eq!(outcome.stats.widest_level, 13_672);
    let peak = peak_rss_kib();
    assert!(
        peak <= CEILING_KIB,
        "peak RSS {:.1} MiB exceeds the {} MiB ceiling",
        peak as f64 / 1024.0,
        CEILING_KIB / 1024
    );
}

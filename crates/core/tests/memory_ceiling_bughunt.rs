//! Memory ceiling of `remix-bench`'s `bug-hunt` workload at its highest point: the
//! ZK-4394 hunt (mSpec-1 on Table 4's v3.9.1 cluster with the bug unmasked, checking
//! I-14 alone), the workload case with the most states at its violation.
//!
//! A test file is its own process, and this file holds a single test, so the process's
//! peak resident set (`VmHWM`) belongs to that one hunt.  The default options are the
//! workload's — Full store, in RAM, no reductions, one worker, stop at the first
//! violation — so what the peak measures above the store's rows is the intern pool:
//! the hunt meets 8,796 distinct servers, channel rows and ghost states, and a pool
//! entry outweighs a state's row, record and index bucket together.
#![cfg(target_os = "linux")]

use std::time::Duration;

use remix_checker::StopReason;
use remix_core::{Verifier, VerifierOptions};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// `VmHWM` was 14.4–14.6 MiB while the pool kept a 40-byte `(TypeId, digest)` key per
/// bucket and a 32-byte `(Arc<dyn Any>, &'static str)` slot and pooled each value with
/// the spare capacity its writes left, and the server and ghost states kept their maps
/// as `BTreeMap`s (a 192–368-byte leaf per non-empty map).  With one digest table per
/// type, 16-byte slots, exactly sized pooled values and sorted-vector maps it is
/// 12.7–12.8 MiB; either half alone reads 13.6–13.8 and fails.
const CEILING_KIB: u64 = 13 * 1024 + 256;

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
#[ignore = "stores 168,248 full states; runs under --include-ignored"]
fn zk4394_hunt_stays_under_the_memory_ceiling() {
    let config = ClusterConfig::table4(CodeVersion::V391).unmask_zk4394();
    let options = VerifierOptions::default()
        .targeting("I-14")
        .with_time_budget(Duration::from_secs(600));
    let outcome = Verifier::new(config)
        .verify_preset(SpecPreset::MSpec1, &options)
        .outcome;
    assert_eq!(outcome.stop_reason, StopReason::FirstViolation, "{outcome}");
    let violation = outcome.first_violation().expect("ZK-4394 violates I-14");
    assert_eq!(violation.invariant, "I-14");
    assert_eq!(violation.depth, 20, "BFS reports the minimal depth");
    assert_eq!(outcome.stats.distinct_states, 168_248);
    let peak = peak_rss_kib();
    assert!(
        peak <= CEILING_KIB,
        "peak RSS {:.1} MiB exceeds the {:.3} MiB ceiling",
        peak as f64 / 1024.0,
        CEILING_KIB as f64 / 1024.0
    );
}

//! Memory ceiling of refinement's own bookkeeping: mSpec-2 ⊑ mSpec-1 on three servers
//! under one crash, the `refine` workload's bookkeeping-bound pair, where each side
//! learns 2,327 stable projections and thousands of quotient edges from only
//! 9,274 / 7,894 states.
//!
//! A test file is its own process, and this file holds a single test, so the process's
//! peak resident set (`VmHWM`) belongs to that one check.  The run uses the default
//! options — Full store, in RAM, one worker — so what the peak measures above the two
//! stores is the refinement tables: projections, quotient edges, context sets and the
//! coarse side's reachability structure.
#![cfg(target_os = "linux")]

use remix_checker::{RefineOptions, RefineVerdict};
use remix_core::Verifier;
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// `VmHWM` was 8.7 MiB while each side kept its quotient edges twice (a `BTreeSet`
/// per source plus a map of 48-byte representatives), each context set twice, and
/// the fine side memoized a `HashSet` of coarse-reachable keys per source class
/// (1.04 MB in 2,119 sets).  With one edge map of 24-byte representatives per side,
/// each context set stored once and the coarse edges frozen into a compressed-sparse-
/// row adjacency searched without a memo, it is 6.2–6.3 MiB, and the old tables fail.
const CEILING_KIB: u64 = 7 * 1024 + 512;

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
#[ignore = "explores 9,274 + 7,894 states; runs under --include-ignored"]
fn mspec2_refines_mspec1_under_the_bookkeeping_ceiling() {
    let config = ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_crashes(1);
    let run = Verifier::new(config)
        .check_refinement(
            SpecPreset::MSpec2,
            SpecPreset::MSpec1,
            &RefineOptions::default(),
        )
        .expect("presets form a refinement pair");
    let outcome = &run.outcome;
    assert_eq!(outcome.verdict(), RefineVerdict::Refines, "{outcome}");
    assert!(outcome.conclusive(), "{outcome}");
    assert_eq!(outcome.stats.fine_states, 9_274);
    assert_eq!(outcome.stats.coarse_states, 7_894);
    assert_eq!(outcome.stats.fine_projections, 2_327);
    assert_eq!(outcome.stats.edges_checked, 5_818);
    let peak = peak_rss_kib();
    assert!(
        peak <= CEILING_KIB,
        "peak RSS {:.1} MiB exceeds the {:.1} MiB ceiling",
        peak as f64 / 1024.0,
        CEILING_KIB as f64 / 1024.0
    );
}

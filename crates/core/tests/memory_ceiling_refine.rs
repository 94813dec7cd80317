//! Memory ceiling of refinement checking: SysSpec ⊑ mSpec-1 on three servers, the
//! `refine` workload's explore-bound pair, where the fine side's 65,653 states set the
//! peak.
//!
//! A test file is its own process, and this file holds a single test, so the process's
//! peak resident set (`VmHWM`) belongs to that one check.  The run uses the default
//! options — Full store, in RAM, one worker — so what the peak measures is the store
//! plus refinement's own bookkeeping per state.
#![cfg(target_os = "linux")]

use remix_checker::{RefineOptions, RefineVerdict};
use remix_core::Verifier;
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// `VmHWM` was 13.1–13.2 MiB while each side kept a `HashMap<StateIndex, _>` entry
/// per state, with a boxed lset for every unstable one (≈ 110 B per state), and
/// 7.9–8.3 MiB with one `u32` per state in a dense column naming an interned context
/// set (the fine side's 25,668 stable states name 181 singletons, its 39,985 unstable
/// ones 23 lsets) while the widest level's arrivals were buffered whole (depth 13:
/// 8,748 fresh states at 48 B and 15,133 uncovered dedup hits at 32 B, in `Vec`s grown
/// to 16,384 entries each, 1.31 MB).  Buffering only what can change the barrier's
/// fold — 8 B per unstable arrival, 24–32 B per stable one, no hit into an older stable
/// state whose quotient edges are all known — takes that to 0.33 MB, and growing the
/// column once per level to the level's largest index instead of by doubling takes it
/// from 100,352 entries to 70,369: 6.6–6.9 MiB, and the buffers of whole arrivals
/// fail.  The fine side's store (2.6 MB of rows, records, row index and pool) is what
/// sets the peak now.
const CEILING_KIB: u64 = 7 * 1024 + 384;

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
#[ignore = "explores 65,653 fine states; runs under --include-ignored"]
fn sysspec_refines_mspec1_under_the_memory_ceiling() {
    let config = ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_crashes(0);
    let run = Verifier::new(config)
        .check_refinement(
            SpecPreset::SysSpec,
            SpecPreset::MSpec1,
            &RefineOptions::default(),
        )
        .expect("presets form a refinement pair");
    let outcome = &run.outcome;
    assert_eq!(outcome.verdict(), RefineVerdict::Refines, "{outcome}");
    assert!(outcome.conclusive(), "{outcome}");
    assert_eq!(outcome.stats.fine_states, 65_653);
    assert_eq!(outcome.stats.coarse_states, 181);
    assert_eq!(outcome.stats.fine_projections, 181);
    assert_eq!(outcome.stats.coarse_projections, 181);
    assert_eq!(outcome.stats.edges_checked, 441);
    let peak = peak_rss_kib();
    assert!(
        peak <= CEILING_KIB,
        "peak RSS {:.1} MiB exceeds the {:.3} MiB ceiling",
        peak as f64 / 1024.0,
        CEILING_KIB as f64 / 1024.0
    );
}

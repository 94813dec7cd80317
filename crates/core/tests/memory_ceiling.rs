//! Memory ceilings of the `remix-bench` workloads: the one metric that repeats to a
//! fraction of a percent (`peak_rss_mb`), gated where CI already runs, each case with
//! the counts that say it explored what it should.
//!
//! A process's peak resident set (`VmHWM`) belongs to everything the process ever did,
//! so every case of [`CASES`] runs in a process of its own: this binary has no test
//! harness, and without arguments it re-runs itself once per case (`--case <name>`),
//! one after another, reporting each like a test.  The cases are ignored unless
//! `--ignored` or `--include-ignored` is given; a positional argument keeps the cases
//! whose name contains it, `--exact` and `--skip` work as under libtest, the libtest
//! options that only shape a harness's output are accepted and change nothing, and any
//! other option is an error:
//!
//! ```text
//! cargo test --release -p remix-core --test memory_ceiling -- --include-ignored [filter]
//! ```
//!
//! Each case uses its workload's options.  Where the options are the defaults — Full
//! store, in RAM, no reductions, one worker — the peak says what a state costs; the
//! fingerprint-only cases say what an entry costs when no state is kept.  `VmHWM` is
//! read from Linux's `/proc`, so a case runs only there; elsewhere every case is
//! reported ignored.
//!
//! The readings quoted on each ceiling were taken while every case was a test of its
//! own libtest binary, at the commit that set the ceiling.  Run here, without the
//! harness's threads and buffers, the cases read 10.5, 12.5–13.3, 11.6–11.7, 6.6, 5.6,
//! 12.3–12.5 and 4.1 MiB in [`CASES`]' order; the ZK-4394 hunt, for one, read
//! 12.7–12.8 MiB under the harness.  The variants the comments say fail were measured
//! under the harness and have not been re-measured since, so a margin over a ceiling
//! may be up to 0.4 MiB thinner than quoted: the ZK-4394 hunt's halves, which read
//! 13.6–13.8 MiB, stand closest to theirs (13.25 MiB).

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use remix_checker::explore::{DEFAULT_COVERAGE_SHARDS, DEFAULT_PREFIX_BITS};
use remix_checker::{
    check_bfs, explore, CheckOptions, ExploreOptions, Guidance, RefineOptions, RefineVerdict,
    SpillConfig, StopReason, StoreMode, SymmetryMode,
};
use remix_core::{Composer, ConformanceChecker, ConformanceOptions, Verifier, VerifierOptions};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

/// One memory-ceiling case: a run, its pins (asserted by `run`) and the `VmHWM` it
/// must stay under.
struct Case {
    name: &'static str,
    ceiling_kib: u64,
    run: fn(),
}

const CASES: [Case; 7] = [
    Case {
        name: "exhaust_fine_stays_under_the_memory_ceiling",
        ceiling_kib: EXHAUST_FINE_KIB,
        run: exhaust_fine,
    },
    Case {
        name: "exhaust_reduced_stays_under_the_memory_ceiling",
        ceiling_kib: EXHAUST_REDUCED_KIB,
        run: exhaust_reduced,
    },
    Case {
        name: "exhaust_outofcore_stays_under_the_memory_ceiling",
        ceiling_kib: EXHAUST_OUTOFCORE_KIB,
        run: exhaust_outofcore,
    },
    Case {
        name: "sysspec_refines_mspec1_under_the_memory_ceiling",
        ceiling_kib: REFINE_KIB,
        run: refine_explore_bound,
    },
    Case {
        name: "mspec2_refines_mspec1_under_the_bookkeeping_ceiling",
        ceiling_kib: REFINE_BOOKKEEPING_KIB,
        run: refine_bookkeeping_bound,
    },
    Case {
        name: "zk4394_hunt_stays_under_the_memory_ceiling",
        ceiling_kib: BUG_HUNT_KIB,
        run: zk4394_hunt,
    },
    Case {
        name: "sampling_stays_under_the_memory_ceiling",
        ceiling_kib: SAMPLING_KIB,
        run: sampling,
    },
];

/// `exhaust-fine`: 221,490 full states.  `VmHWM` was 688 MiB with deep-copied states,
/// 208 MiB with components shared along the parent edge and about 80 MiB with the
/// store's intern pool keeping one allocation per distinct component; with the Full
/// arena keeping each state as a row of pool slots in fixed-size chunks it was about
/// 43 MiB, and with the kernel staging one parent's successors instead of a batch per
/// stripe about 33 MiB.  With the frontier holding store indices instead of owned
/// states (the widest level, 13,672 states, was ≈ 200 B each) it was about 27 MiB.
/// With each entry's fingerprint kept once, in the dedup map, beside an 8-byte
/// `(parent, label)` record, and a 9-word row (the three budgets in one word,
/// `partitioned` and `violation` in another) it was 20.7–20.8 MiB.  With the Full
/// store deduplicating on the rows themselves — a 5-byte row-index bucket per state
/// instead of a fingerprint-map entry — it was 15.50–15.54 MiB.  With each row kept in
/// 16-bit units, an 8-word row with the budgets inline in one word, it was about
/// 11.3 MiB, and the 32-bit rows' 15.5 fail.  With the intern pool keeping 16-byte
/// slots, one digest table per type and exactly sized values, and the server state's
/// maps as sorted vectors, it is 10.8–11.0 MiB: too close to 11.3 for a ceiling
/// between them.
const EXHAUST_FINE_KIB: u64 = 13 * 1024;

/// `exhaust-reduced`: `exhaust-fine`'s cluster under the fingerprint-only store,
/// symmetry canonicalization and sleep-set POR, the one configuration where every
/// reduction runs at once; its counts pin the canonical forms (`remix-bench` only
/// compares a run with its own repetitions, so a changed canonical order would pass it
/// silently).  `VmHWM` was 18.4–18.8 MiB while every stored entry kept its permutation
/// as a heap `Vec<u32>` (24 inline bytes plus a 32-byte allocation); with a 16-byte
/// inline `Perm` it was 15.0–15.8 MiB, and the heap permutations fail.  With each
/// entry's fingerprint kept once, beside an 8-byte `(parent, label)` record instead of
/// a 24-byte one, it is 13.9–14.6 MiB.  The two ranges lie too close for a ceiling
/// between them, so the 24-byte records pass this one.
const EXHAUST_REDUCED_KIB: u64 = 16 * 1024;

/// `exhaust-outofcore`: `exhaust-fine`'s cluster fingerprint-only under a 1 MiB
/// budget, the one configuration where the spill tier runs, so what stays resident per
/// state is the per-entry record, not the fingerprint; spilling may not change the
/// search, so the counts are the in-RAM run's.  `VmHWM` was 18.2–18.3 MiB while every
/// entry kept its fingerprint twice — in the dedup tier and again in a 24-byte
/// `(fingerprint, parent, label)` record that stays resident when the fingerprints
/// spill; with the fingerprint kept once and an 8-byte `(parent, label)` record it is
/// 15.3–15.5 MiB, and the 24-byte records fail.
const EXHAUST_OUTOFCORE_KIB: u64 = 17 * 1024;

/// SysSpec ⊑ mSpec-1 on three servers, the `refine` workload's explore-bound pair,
/// where the fine side's 65,653 states set the peak: the store plus refinement's own
/// bookkeeping per state.  `VmHWM` was 13.1–13.2 MiB while each side kept a
/// `HashMap<StateIndex, _>` entry per state, with a boxed lset for every unstable one
/// (≈ 110 B per state), and 7.9–8.3 MiB with one `u32` per state in a dense column
/// naming an interned context set (the fine side's 25,668 stable states name 181
/// singletons, its 39,985 unstable ones 23 lsets) while the widest level's arrivals
/// were buffered whole (depth 13: 8,748 fresh states at 48 B and 15,133 uncovered dedup
/// hits at 32 B, in `Vec`s grown to 16,384 entries each, 1.31 MB).  Buffering only what
/// can change the barrier's fold — 8 B per unstable arrival, 24–32 B per stable one, no
/// hit into an older stable state whose quotient edges are all known — takes that to
/// 0.33 MB, and growing the column once per level to the level's largest index instead
/// of by doubling takes it from 100,352 entries to 70,369: 6.6–6.9 MiB, and the buffers
/// of whole arrivals fail.  The fine side's store (2.6 MB of rows, records, row index
/// and pool) is what sets the peak now.
const REFINE_KIB: u64 = 7 * 1024 + 384;

/// mSpec-2 ⊑ mSpec-1 on three servers under one crash, the `refine` workload's
/// bookkeeping-bound pair, where each side learns 2,327 stable projections and
/// thousands of quotient edges from only 9,274 / 7,894 states: the peak above the two
/// stores is refinement's tables.  `VmHWM` was 8.7 MiB while each side kept its
/// quotient edges twice (a `BTreeSet` per source plus a map of 48-byte
/// representatives), each context set twice, and the fine side memoized a `HashSet` of
/// coarse-reachable keys per source class (1.04 MB in 2,119 sets).  With one edge map
/// of 24-byte representatives per side, each context set stored once and the coarse
/// edges frozen into a compressed-sparse-row adjacency searched without a memo, it is
/// 6.2–6.3 MiB, and the old tables fail.
const REFINE_BOOKKEEPING_KIB: u64 = 7 * 1024 + 512;

/// `bug-hunt` at its highest point, the ZK-4394 hunt (mSpec-1 on Table 4's v3.9.1
/// cluster with the bug unmasked, checking I-14 alone, stopping at the first
/// violation): above the store's rows the peak is the intern pool, since the hunt
/// meets 8,796 distinct servers, channel rows and ghost states and a pool entry
/// outweighs a state's row, record and index bucket together.  `VmHWM` was
/// 14.4–14.6 MiB while the pool kept a 40-byte `(TypeId, digest)` key per bucket and a
/// 32-byte `(Arc<dyn Any>, &'static str)` slot and pooled each value with the spare
/// capacity its writes left, and the server and ghost states kept their maps as
/// `BTreeMap`s (a 192–368-byte leaf per non-empty map).  With one digest table per
/// type, 16-byte slots, exactly sized pooled values and sorted-vector maps it is
/// 12.7–12.8 MiB; either half alone reads 13.6–13.8 and fails.
const BUG_HUNT_KIB: u64 = 13 * 1024 + 256;

/// Seeded sampling: `sample-conform`'s guided exploration (mSpec-3 on the exploration
/// cluster, I-8 and I-10 only, 4,096 traces of depth 60 at seed 7), then a uniform
/// conformance check of 16,000 traces of depth 40 on the three-server v3.9.1 cluster,
/// four times the workload's 4,000.  Neither keeps a store: the peak measures the
/// sampler's bookkeeping — the coverage map's prefix counters and whatever the trace
/// runner keeps per trace — so a sampler whose memory grows with its trace budget fails
/// here first.  `VmHWM` was 5.16–5.34 MiB while the trace runner collected one result
/// per trace and merged them at the end (≈ 136 B per replayed trace in the conformance
/// check's partial reports, ≈ 2 MB at 16,000 traces) and the coverage map kept each
/// 20-bit prefix as a `u64 → u64` entry (≈ 1.1 MB for the guided run's 35,845
/// prefixes).  With each trace folded into its worker's accumulator as it completes and
/// `u32 → u32` prefix counters it is 4.18–4.28 MiB.  The narrow counters alone read
/// 5.09–5.23 and fail; the fold alone reads 4.29–4.48 and passes, so the counters show
/// in `sample-conform`'s peak, which its guided case sets, more than here.
const SAMPLING_KIB: u64 = 4 * 1024 + 768;

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

/// `exhaust-fine`'s cluster: mSpec-3 on the fixed code, one transaction, two crashes.
fn fine_config() -> ClusterConfig {
    ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(2)
}

fn exhaust_fine() {
    let options = CheckOptions::default().with_time_budget(Duration::from_secs(600));
    let outcome = check_bfs(&SpecPreset::MSpec3.build(&fine_config()), &options);
    assert_eq!(outcome.stop_reason, StopReason::Exhausted, "{outcome}");
    assert!(outcome.passed(), "{outcome}");
    assert_eq!(outcome.stats.distinct_states, 221_490);
    assert_eq!(outcome.stats.transitions, 432_409);
    // Depth 27: the frontier term of the peak is this many entries.
    assert_eq!(outcome.stats.widest_level, 13_672);
}

fn exhaust_reduced() {
    let options = CheckOptions::default()
        .with_store_mode(StoreMode::FingerprintOnly)
        .with_symmetry(SymmetryMode::Canonicalize)
        .with_por(true)
        .with_time_budget(Duration::from_secs(600));
    let outcome = check_bfs(&SpecPreset::MSpec3.build(&fine_config()), &options);
    assert_eq!(outcome.stop_reason, StopReason::Exhausted, "{outcome}");
    assert!(outcome.passed(), "{outcome}");
    assert_eq!(outcome.stats.distinct_states, 105_770);
    assert_eq!(outcome.stats.transitions, 192_314);
    assert_eq!(outcome.stats.pruned_transitions, 14_812);
    assert_eq!(outcome.stats.canon_fallbacks, 0);
}

fn exhaust_outofcore() {
    let options = CheckOptions::default()
        .with_store_mode(StoreMode::FingerprintOnly)
        .with_spill(SpillConfig::in_ram().with_budget_bytes(1 << 20))
        .with_time_budget(Duration::from_secs(600));
    let outcome = check_bfs(&SpecPreset::MSpec3.build(&fine_config()), &options);
    assert_eq!(outcome.stop_reason, StopReason::Exhausted, "{outcome}");
    assert!(outcome.passed(), "{outcome}");
    assert_eq!(outcome.stats.distinct_states, 221_490);
    assert_eq!(outcome.stats.transitions, 432_409);
    assert!(outcome.stats.spill.spilled(), "{:?}", outcome.stats.spill);
}

fn refine_explore_bound() {
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
}

fn refine_bookkeeping_bound() {
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
}

fn zk4394_hunt() {
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
}

fn compose(preset: SpecPreset, config: ClusterConfig) -> remix_spec::Spec<ZabState> {
    Composer::new(config)
        .compose_preset(preset)
        .expect("preset composes")
        .spec
}

fn sampling() {
    let mut sampled = compose(
        SpecPreset::MSpec3,
        ClusterConfig::explore(CodeVersion::V391),
    );
    sampled
        .invariants
        .retain(|inv| ["I-8", "I-10"].contains(&inv.id));
    let guided = explore(
        &sampled,
        &ExploreOptions {
            traces: 4_096,
            max_depth: 60,
            seed: 7,
            workers: 1,
            time_budget: None,
            guidance: Guidance::CoverageGuided { rarity_weight: 24 },
            shards: DEFAULT_COVERAGE_SHARDS,
            prefix_bits: DEFAULT_PREFIX_BITS,
            stop_on_violation: false,
            symmetry: SymmetryMode::Off,
        },
    );
    assert_eq!(guided.stats.traces, 4_096);
    assert_eq!(guided.stats.steps, 144_597);
    assert_eq!(guided.stats.coverage.distinct_prefixes, 35_845);

    let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
    let report = ConformanceChecker::new(config).check(
        &compose(SpecPreset::MSpec3, config),
        &ConformanceOptions {
            traces: 16_000,
            max_depth: 40,
            seed: 7,
            time_budget: None,
            workers: 1,
            guidance: Guidance::Uniform,
            shrink_divergences: false,
        },
    );
    assert_eq!(report.traces_checked, 16_000);
    assert_eq!(report.steps_replayed, 521_431);
    assert!(report.conforms(), "{:?}", report.discrepancies.first());
}

/// Runs one case in this process and checks its peak; a failed pin or ceiling panics,
/// which exits the process with a failure.
fn run_case(case: &Case) {
    (case.run)();
    let peak = peak_rss_kib();
    assert!(
        peak <= case.ceiling_kib,
        "peak RSS {:.2} MiB exceeds the {:.3} MiB ceiling",
        peak as f64 / 1024.0,
        case.ceiling_kib as f64 / 1024.0
    );
    println!(
        "{}: peak RSS {:.2} MiB (ceiling {:.3} MiB)",
        case.name,
        peak as f64 / 1024.0,
        case.ceiling_kib as f64 / 1024.0
    );
}

/// What the command line asks for: libtest's flags, as far as they apply here.
struct Args {
    /// Run this one case in this process (how the runner starts each case).
    case: Option<String>,
    /// Run the cases instead of reporting them ignored.
    ignored: bool,
    /// Print the case names instead of running anything.
    list: bool,
    /// Keep the cases whose name contains (with `exact`, equals) one of these.
    filters: Vec<String>,
    exact: bool,
    /// Drop the cases whose name contains one of these.
    skip: Vec<String>,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            case: None,
            ignored: false,
            list: false,
            filters: Vec::new(),
            exact: false,
            skip: Vec::new(),
        };
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_owned())),
                _ => (arg.as_str(), None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{flag} takes a value"))
            };
            match flag {
                "--case" => parsed.case = Some(value()?),
                "--ignored" | "--include-ignored" => parsed.ignored = true,
                "--list" => parsed.list = true,
                "--exact" => parsed.exact = true,
                "--skip" => parsed.skip.push(value()?),
                // Each case runs in a process of its own, one after another, and prints
                // its own line: these change nothing here.
                "--test-threads" | "--format" | "--color" | "--logfile" | "--shuffle-seed"
                | "-Z" => {
                    value()?;
                }
                "-q" | "--quiet" | "--nocapture" | "--no-capture" | "--show-output"
                | "--report-time" | "--shuffle" | "--bench" | "--test" => {}
                _ if flag.starts_with('-') => return Err(format!("unrecognized option {arg}")),
                _ => parsed.filters.push(arg),
            }
        }
        Ok(parsed)
    }

    fn selects(&self, name: &str) -> bool {
        let matches = |filter: &String| {
            if self.exact {
                name == filter
            } else {
                name.contains(filter.as_str())
            }
        };
        (self.filters.is_empty() || self.filters.iter().any(matches))
            && !self.skip.iter().any(|skip| name.contains(skip.as_str()))
    }

    /// Why the selected cases are reported instead of run, if they are.
    fn not_run(&self) -> Option<&'static str> {
        if cfg!(not(target_os = "linux")) {
            Some("VmHWM is read from Linux's /proc")
        } else if !self.ignored {
            Some("runs under --include-ignored")
        } else {
            None
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = &args.case {
        let case = CASES
            .iter()
            .find(|case| case.name == name)
            .unwrap_or_else(|| panic!("no memory-ceiling case is named {name:?}"));
        run_case(case);
        return ExitCode::SUCCESS;
    }
    let cases: Vec<&Case> = CASES
        .iter()
        .filter(|case| args.selects(case.name))
        .collect();
    if args.list {
        for case in &cases {
            println!("{}: test", case.name);
        }
        return ExitCode::SUCCESS;
    }
    let start = Instant::now();
    println!("\nrunning {} tests", cases.len());
    let mut failed = Vec::new();
    for case in &cases {
        if let Some(why) = args.not_run() {
            println!("test {} ... ignored, {why}", case.name);
            continue;
        }
        let exe = std::env::current_exe().expect("the test binary knows its path");
        let ok = Command::new(exe)
            .args(["--case", case.name])
            .status()
            .is_ok_and(|status| status.success());
        println!(
            "test {} ... {}",
            case.name,
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            failed.push(case.name);
        }
    }
    let (passed, skipped) = if args.not_run().is_none() {
        (cases.len() - failed.len(), 0)
    } else {
        (0, cases.len())
    };
    println!(
        "\ntest result: {}. {passed} passed; {} failed; {skipped} ignored; 0 measured; {} \
         filtered out; finished in {:.2}s\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        failed.len(),
        CASES.len() - cases.len(),
        start.elapsed().as_secs_f64()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

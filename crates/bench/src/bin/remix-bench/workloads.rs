//! The seven workloads: how each is set up, what one rep runs, and what it observes.
//!
//! A rep runs all of a workload's cases back to back.  Each case is timed by the
//! caller from just before its public entry point is called until the outcome has
//! been returned **and dropped**, so store teardown — which `CheckStats::elapsed`
//! leaves out — counts.  Witness replays and expectation checks happen after the clock
//! has stopped.

use std::path::Path;
use std::time::Instant;

use remix_checker::{
    check_bfs, explore, replay_labels, CheckOptions, CheckOutcome, ExploreOptions, Guidance,
    RefineOptions, SpillConfig, StoreMode, SymmetryMode, Violation,
};
use remix_core::{Composer, ConformanceChecker, ConformanceOptions, Verifier, VerifierOptions};
use remix_spec::Spec;
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

use crate::expected::{check, expectation, Observed};
use crate::options;
use crate::schema::WORKLOADS;
use crate::trace::{SpanId, Tracer};

/// The size a workload runs at.  `Smoke` is for the unit tests and the verdict-checked
/// priming pass of set-up; its numbers are never reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// The workloads, in `schema::WORKLOADS` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExhaustFine,
    ExhaustElection,
    ExhaustReduced,
    ExhaustOutOfCore,
    BugHunt,
    Refine,
    SampleConform,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::ExhaustFine,
        Workload::ExhaustElection,
        Workload::ExhaustReduced,
        Workload::ExhaustOutOfCore,
        Workload::BugHunt,
        Workload::Refine,
        Workload::SampleConform,
    ];

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The invariants the sampling workload keeps: the two that `v3.9.1` violates within
/// the sampling depth, so every reported violation is attributable.
const SAMPLED_INVARIANTS: [&str; 2] = ["I-8", "I-10"];

/// Memory budget of the out-of-core workload: 341 delta-table entries per stripe, which
/// the full space overflows 627 times and the smoke space never does (set-up primes
/// with the smoke space, and should not wait on the disk).
pub const SPILL_BUDGET: u64 = 1 << 20;

/// One case, ready to run.
pub enum Case {
    Exhaust {
        spec: Spec<ZabState>,
        options: CheckOptions,
    },
    Bug {
        verifier: Verifier,
        preset: SpecPreset,
        options: VerifierOptions,
        /// The same composition, for replaying the returned trace off the clock.
        replay_spec: Spec<ZabState>,
    },
    Refine {
        verifier: Verifier,
        fine: SpecPreset,
        coarse: SpecPreset,
        options: RefineOptions,
    },
    Explore {
        spec: Spec<ZabState>,
        options: ExploreOptions,
    },
    Conform {
        spec: Spec<ZabState>,
        checker: ConformanceChecker,
        options: ConformanceOptions,
    },
}

/// What one run of one case produced.
pub struct CaseRun {
    pub name: &'static str,
    /// Caller-observed seconds, entry point to dropped outcome.
    pub seconds: f64,
    /// The engine's own `elapsed` (0 where it reports none).
    pub engine_seconds: f64,
    pub observed: Observed,
}

/// One rep: every case of the workload, back to back.
pub struct Rep {
    pub seconds: f64,
    pub cases: Vec<CaseRun>,
}

/// A workload after set-up.
pub struct Prepared {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
    pub cases: Vec<(&'static str, Case)>,
}

fn compose(preset: SpecPreset, config: ClusterConfig) -> Spec<ZabState> {
    Composer::new(config)
        .compose_preset(preset)
        .expect("preset composes")
        .spec
}

/// The cluster of the fine-grained exhaustion (and of its reduced and out-of-core
/// variants, which explore the same space under other modes).
pub fn fine_config(size: Size) -> ClusterConfig {
    let crashes = match size {
        Size::Full => 2,
        Size::Smoke => 0,
    };
    ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(crashes)
}

/// The cluster of the election-heavy exhaustion (and of the exploration-bound
/// refinement pair, which walks the same SysSpec space).
pub fn election_config(size: Size) -> ClusterConfig {
    let base = ClusterConfig::small(CodeVersion::V391).with_transactions(1);
    match size {
        Size::Full => base.with_crashes(0),
        Size::Smoke => ClusterConfig {
            num_servers: 2,
            ..base.with_crashes(1)
        },
    }
}

fn exhaust(
    preset: SpecPreset,
    config: ClusterConfig,
    store_mode: StoreMode,
    symmetry: SymmetryMode,
    por: bool,
    spill: SpillConfig,
) -> Case {
    Case::Exhaust {
        spec: compose(preset, config),
        options: options::check_options(store_mode, symmetry, por, spill),
    }
}

fn bug(config: ClusterConfig, preset: SpecPreset, invariant: &'static str) -> Case {
    Case::Bug {
        verifier: Verifier::new(config),
        preset,
        options: options::verifier_options(invariant),
        replay_spec: compose(preset, config),
    }
}

fn refinement(config: ClusterConfig, fine: SpecPreset, coarse: SpecPreset) -> Case {
    Case::Refine {
        verifier: Verifier::new(config),
        fine,
        coarse,
        options: options::refine_options(),
    }
}

/// The cluster of the bookkeeping-bound refinement pair (mSpec-2 ⊑ mSpec-1).
pub fn bookkeeping_config(size: Size) -> ClusterConfig {
    let crashes = match size {
        Size::Full => 1,
        Size::Smoke => 0,
    };
    ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_crashes(crashes)
}

/// The refinement pair the traced pass adds to the `refine` workload: mSpec-2 ⊑
/// mSpec-1 on three transactions spends ~6 s on 8.3 k states.  Too long for the timed
/// reps under the run-time cap, so it is measured once, as a layer number.
pub fn refine_heavy_case(size: Size) -> (&'static str, Case) {
    let config = match size {
        Size::Full => ClusterConfig::small(CodeVersion::V391)
            .with_transactions(3)
            .with_crashes(0),
        Size::Smoke => bookkeeping_config(size),
    };
    (
        "bookkeeping-heavy",
        refinement(config, SpecPreset::MSpec2, SpecPreset::MSpec1),
    )
}

impl Prepared {
    /// Sets a workload up: composes its specifications and builds every option
    /// struct, verifier and checker.  `scratch` is where the out-of-core workload
    /// spills; the sampling workload is the only one `seed` reaches.
    pub fn new(workload: Workload, size: Size, seed: u64, scratch: &Path) -> Prepared {
        let (full, off) = (StoreMode::Full, SymmetryMode::Off);
        let in_ram = SpillConfig::in_ram;
        let v391 = CodeVersion::V391;
        let cases = match workload {
            Workload::ExhaustFine => vec![(
                "mSpec-3",
                exhaust(
                    SpecPreset::MSpec3,
                    fine_config(size),
                    full,
                    off,
                    false,
                    in_ram(),
                ),
            )],
            Workload::ExhaustElection => vec![(
                "SysSpec",
                exhaust(
                    SpecPreset::SysSpec,
                    election_config(size),
                    full,
                    off,
                    false,
                    in_ram(),
                ),
            )],
            Workload::ExhaustReduced => vec![(
                "mSpec-3",
                exhaust(
                    SpecPreset::MSpec3,
                    fine_config(size),
                    StoreMode::FingerprintOnly,
                    SymmetryMode::Canonicalize,
                    true,
                    in_ram(),
                ),
            )],
            Workload::ExhaustOutOfCore => vec![(
                "mSpec-3",
                exhaust(
                    SpecPreset::MSpec3,
                    fine_config(size),
                    StoreMode::FingerprintOnly,
                    off,
                    false,
                    options::spill_under(SPILL_BUDGET, scratch),
                ),
            )],
            Workload::BugHunt => match size {
                Size::Full => {
                    let table4 = ClusterConfig::table4(v391);
                    vec![
                        (
                            "zk4394",
                            bug(table4.unmask_zk4394(), SpecPreset::MSpec1, "I-14"),
                        ),
                        ("zk3023", bug(table4, SpecPreset::MSpec3, "I-11")),
                        ("zk4685", bug(table4, SpecPreset::MSpec3, "I-12")),
                    ]
                }
                Size::Smoke => {
                    let config = ClusterConfig::small(v391)
                        .with_transactions(1)
                        .with_crashes(0);
                    vec![("zk3023", bug(config, SpecPreset::MSpec3, "I-11"))]
                }
            },
            Workload::Refine => vec![
                (
                    "explore-bound",
                    refinement(
                        election_config(size),
                        SpecPreset::SysSpec,
                        SpecPreset::MSpec1,
                    ),
                ),
                (
                    "bookkeeping-bound",
                    refinement(
                        bookkeeping_config(size),
                        SpecPreset::MSpec2,
                        SpecPreset::MSpec1,
                    ),
                ),
            ],
            Workload::SampleConform => {
                let (traces, replayed) = match size {
                    Size::Full => (4_096, 4_000),
                    Size::Smoke => (8, 8),
                };
                let mut sampled = compose(SpecPreset::MSpec3, ClusterConfig::explore(v391));
                sampled
                    .invariants
                    .retain(|inv| SAMPLED_INVARIANTS.contains(&inv.id));
                let conform_config = ClusterConfig::small(v391).with_crashes(0);
                vec![
                    (
                        "explore-uniform",
                        Case::Explore {
                            spec: sampled.clone(),
                            options: options::explore_options(seed, traces, 60, Guidance::Uniform),
                        },
                    ),
                    (
                        "explore-guided",
                        Case::Explore {
                            spec: sampled,
                            options: options::explore_options(
                                seed,
                                traces,
                                60,
                                Guidance::CoverageGuided { rarity_weight: 24 },
                            ),
                        },
                    ),
                    (
                        "conformance",
                        Case::Conform {
                            spec: compose(SpecPreset::MSpec3, conform_config),
                            checker: ConformanceChecker::new(conform_config),
                            options: options::conformance_options(seed, replayed, 40),
                        },
                    ),
                ]
            }
        };
        Prepared {
            workload,
            size,
            seed,
            cases,
        }
    }

    /// Runs one rep, with a span around each case's entry point.
    pub fn rep(&self, tracer: &mut Tracer, parent: SpanId) -> Rep {
        let cases: Vec<CaseRun> = self
            .cases
            .iter()
            .map(|(name, case)| {
                let span = tracer.open(parent, "case", name);
                let run = case.run(name);
                tracer.close(span);
                run
            })
            .collect();
        Rep {
            seconds: cases.iter().map(|c| c.seconds).sum(),
            cases,
        }
    }

    /// Holds every case of `rep` to `expected.rs` and to `first` (the first rep of the
    /// same process).  Returns one line per failed case; empty means all passed.
    pub fn failed_cases(&self, rep: &Rep, first: Option<&Rep>) -> Vec<String> {
        let workload = self.workload.name();
        rep.cases
            .iter()
            .enumerate()
            .filter_map(|(i, run)| {
                let row = expectation(workload, run.name, self.size);
                let first = first.map(|f| &f.cases[i].observed);
                let mismatches = check(row, self.seed, &run.observed, first);
                (!mismatches.is_empty())
                    .then(|| format!("{workload}/{}: {}", run.name, mismatches.join("; ")))
            })
            .collect()
    }
}

/// Checks made so far in a run, and the ones that failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Tally {
    /// Holds every case of a rep to `expected.rs` (see [`Prepared::failed_cases`]).
    pub fn check(&mut self, prepared: &Prepared, rep: &Rep, first: Option<&Rep>) {
        self.attempted += rep.cases.len();
        self.failures.extend(prepared.failed_cases(rep, first));
    }

    /// Records one check that is not a table row (an oracle comparison, say).
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The verdict line and counters of a `check_bfs`-shaped outcome.
pub fn observe_check(outcome: &CheckOutcome<ZabState>) -> Observed {
    let stats = &outcome.stats;
    let mut counts = vec![
        ("distinct_states", stats.distinct_states as u64),
        ("transitions", stats.transitions),
        ("max_depth", stats.max_depth as u64),
        ("violations", outcome.violation_count as u64),
        ("pruned_transitions", stats.pruned_transitions),
        ("entry_bytes_per_state", stats.entry_bytes_per_state as u64),
        ("bytes_spilled", stats.spill.bytes_spilled),
        ("runs_spilled", stats.spill.runs_spilled),
        ("disk_probes", stats.spill.disk_probes),
    ];
    let verdict = match outcome.first_violation() {
        None => format!("passes; {}", outcome.stop_reason),
        Some(violation) => {
            counts.push(("violation_depth", violation.depth as u64));
            format!("violates {}; {}", violation.invariant, outcome.stop_reason)
        }
    };
    Observed { verdict, counts }
}

/// `true` when `labels` is a legal execution of `spec` that ends in a state violating
/// `invariant`.
fn replays_to_violation(spec: &Spec<ZabState>, invariant: &str, labels: &[String]) -> bool {
    let Some(init) = spec.init.first() else {
        return false;
    };
    let Some(trace) = replay_labels(spec, init, labels) else {
        return false;
    };
    let Some(last) = trace.last_state() else {
        return false;
    };
    spec.invariants
        .iter()
        .any(|inv| inv.id == invariant && !inv.holds(last))
}

/// A returned counterexample, kept past its outcome: the invariant and the labels.
type Witness = (&'static str, Vec<String>);

fn witnesses(violations: &[Violation<ZabState>]) -> Vec<Witness> {
    violations
        .iter()
        .map(|v| {
            let labels = v.trace.action_labels();
            (v.invariant, labels.into_iter().map(str::to_owned).collect())
        })
        .collect()
}

impl Case {
    /// Runs the case once through its public entry point.
    pub fn run(&self, name: &'static str) -> CaseRun {
        let start = Instant::now();
        // Each arm takes what it needs out of the outcome and lets it drop, so the
        // clock read below includes teardown.  The third field is the engine's own
        // elapsed time (0 where it reports none).
        let (mut observed, found, engine_seconds) = match self {
            Case::Exhaust { spec, options } => {
                let outcome = check_bfs(spec, options);
                let elapsed = outcome.stats.elapsed.as_secs_f64();
                (observe_check(&outcome), Vec::new(), elapsed)
            }
            Case::Bug {
                verifier,
                preset,
                options,
                ..
            } => {
                let outcome = verifier.verify_preset(*preset, options).outcome;
                let elapsed = outcome.stats.elapsed.as_secs_f64();
                (
                    observe_check(&outcome),
                    witnesses(&outcome.violations),
                    elapsed,
                )
            }
            Case::Refine {
                verifier,
                fine,
                coarse,
                options,
            } => {
                let run = verifier
                    .check_refinement(*fine, *coarse, options)
                    .expect("the presets form a refinement pair");
                let stats = &run.outcome.stats;
                let conclusive = if run.outcome.conclusive() {
                    "conclusive"
                } else {
                    "inconclusive"
                };
                let observed = Observed {
                    verdict: format!("{}, {conclusive}", run.verdict()),
                    counts: vec![
                        ("fine_states", stats.fine_states as u64),
                        ("coarse_states", stats.coarse_states as u64),
                        ("fine_projections", stats.fine_projections as u64),
                        ("coarse_projections", stats.coarse_projections as u64),
                        ("edges_checked", stats.edges_checked as u64),
                    ],
                };
                (observed, Vec::new(), stats.elapsed.as_secs_f64())
            }
            Case::Explore { spec, options } => {
                let outcome = explore(spec, options);
                let stats = &outcome.stats;
                let observed = Observed {
                    verdict: "sampled".to_owned(),
                    counts: vec![
                        ("traces", stats.traces as u64),
                        ("steps", stats.steps),
                        ("distinct_prefixes", stats.coverage.distinct_prefixes as u64),
                        ("violations", outcome.violations.len() as u64),
                    ],
                };
                (
                    observed,
                    witnesses(&outcome.violations),
                    stats.elapsed.as_secs_f64(),
                )
            }
            Case::Conform {
                spec,
                checker,
                options,
            } => {
                let report = checker.check(spec, options);
                let observed = Observed {
                    verdict: if report.conforms() {
                        "conforms".to_owned()
                    } else {
                        format!("{} discrepancies", report.discrepancies.len())
                    },
                    counts: vec![
                        ("traces", report.traces_checked as u64),
                        ("steps", report.steps_replayed as u64),
                        ("discrepancies", report.discrepancies.len() as u64),
                    ],
                };
                (observed, Vec::new(), 0.0)
            }
        };
        let seconds = start.elapsed().as_secs_f64();

        // Off the clock: every returned counterexample must replay to a violation.
        if let Case::Bug {
            replay_spec: spec, ..
        }
        | Case::Explore { spec, .. } = self
        {
            let unreplayable = found
                .iter()
                .filter(|(inv, labels)| !replays_to_violation(spec, inv, labels))
                .count();
            observed
                .counts
                .push(("unreplayable_witnesses", unreplayable as u64));
        }
        if let Case::Explore { .. } = self {
            let foreign = found
                .iter()
                .filter(|(inv, _)| !SAMPLED_INVARIANTS.contains(inv))
                .count();
            observed.counts.push(("foreign_violations", foreign as u64));
        }
        CaseRun {
            name,
            seconds,
            engine_seconds,
            observed,
        }
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::trace::ROOT;

    /// A scratch directory private to one test (tests run on parallel threads).
    pub fn scratch(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("remix-bench-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("creating a test scratch directory");
        dir
    }

    #[test]
    fn names_follow_the_schema_table() {
        assert_eq!(Workload::ALL.len(), WORKLOADS.len());
        for (workload, info) in Workload::ALL.into_iter().zip(WORKLOADS) {
            assert_eq!(workload.name(), info.name);
            assert_eq!(Workload::from_name(info.name), Some(workload));
        }
        assert_eq!(Workload::from_name("exhaust"), None);
    }

    #[test]
    fn every_workload_passes_its_smoke_expectations_twice() {
        let dir = scratch("smoke");
        for workload in Workload::ALL {
            let prepared = Prepared::new(workload, Size::Smoke, crate::schema::DEFAULT_SEED, &dir);
            let mut tracer = Tracer::new(false);
            let first = prepared.rep(&mut tracer, ROOT);
            let second = prepared.rep(&mut tracer, ROOT);
            assert_eq!(prepared.failed_cases(&first, None), Vec::<String>::new());
            assert_eq!(
                prepared.failed_cases(&second, Some(&first)),
                Vec::<String>::new()
            );
            assert!(first.seconds > 0.0 && first.cases.len() == prepared.cases.len());
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_wrong_verdict_fails_the_case() {
        // FinalFix hides what v3.9.1 violates: the same smoke space under the buggy
        // version must not pass the exhaust-fine row.
        let dir = scratch("wrong-verdict");
        let mut prepared = Prepared::new(
            Workload::ExhaustFine,
            Size::Smoke,
            crate::schema::DEFAULT_SEED,
            &dir,
        );
        let buggy = ClusterConfig::small(CodeVersion::V391)
            .with_transactions(1)
            .with_crashes(0);
        prepared.cases[0].1 = exhaust(
            SpecPreset::MSpec3,
            buggy,
            StoreMode::Full,
            SymmetryMode::Off,
            false,
            SpillConfig::in_ram(),
        );
        let rep = prepared.rep(&mut Tracer::new(false), ROOT);
        let failures = prepared.failed_cases(&rep, None);
        assert!(
            failures.iter().any(|f| f.contains("verdict `violates")),
            "{failures:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

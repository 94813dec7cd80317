//! Concurrency tier, part 2 — the schedule-perturbation determinism oracle.
//!
//! The parallel BFS engine promises *schedule-independent results*: for a fixed
//! spec and options, `distinct_states`, `transitions`, `pruned_transitions`,
//! `max_depth`, the stop reason and the violation set are a function of the
//! workload alone — never of the worker count or of where the OS scheduler
//! happened to preempt (ARCHITECTURE.md, "determinism by construction").  That
//! promise is exactly what a data race breaks first, so this oracle tests it
//! head-on:
//!
//! 1. run the workload once, unperturbed, at one worker — the **baseline**;
//! 2. re-run it across worker counts × perturbation seeds, with
//!    [`perturb::install`](remix_checker::sync::perturb) injecting seeded
//!    yields/sleeps at every instrumented sync point (lock acquisitions, guard
//!    drops, stop-flag publications);
//! 3. diff each run's [`RunSignature`] against the baseline — any divergence is a
//!    **soundness** finding carrying the worker count and the seed, so the exact
//!    perturbation stream can be replayed.
//!
//! What is compared deliberately excludes anything the contract does not promise:
//! violation *traces* may legally differ in their interleaving prefix, so the
//! signature keeps only `(invariant, depth)` pairs (BFS discovers violations at
//! their minimal depth, which is schedule-independent).
//!
//! [`seeded_schedule_divergence`] is the oracle's own regression: a spec whose
//! successor function reads a process-global counter — the model-level analogue
//! of a data race — which must diverge and be flagged with a replayable seed.

use remix_checker::sync::{perturb, AtomicU64, Ordering};
use remix_checker::{check_bfs, CheckOptions, CheckOutcome, StopReason};
use remix_spec::{Spec, SpecState};

use crate::finding::{AnalysisReport, Finding, FindingClass, Tier};

/// The worker counts × perturbation seeds grid one oracle run sweeps.
#[derive(Debug, Clone)]
pub struct ScheduleOracleOptions {
    /// Worker counts to re-run under (the baseline always runs at 1).
    pub workers: Vec<usize>,
    /// Perturbation seeds; each (workers, seed) cell is one full checking run.
    pub seeds: Vec<u64>,
}

impl Default for ScheduleOracleOptions {
    fn default() -> Self {
        ScheduleOracleOptions {
            workers: vec![1, 2, 4],
            seeds: vec![0xC0FF_EE11, 0xBAD_5EED],
        }
    }
}

/// Everything the determinism contract promises to keep schedule-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSignature {
    /// Distinct states discovered.
    pub distinct_states: usize,
    /// Transitions generated (excluding pruned).
    pub transitions: u64,
    /// Transitions pruned by sleep-set POR.
    pub pruned_transitions: u64,
    /// Deepest level reached.
    pub max_depth: u32,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// `(invariant id, depth)` of every distinct recorded violation, sorted.
    pub violations: Vec<(String, u32)>,
}

impl RunSignature {
    /// Extracts the comparable signature of a checking run.
    pub fn of<S: SpecState>(outcome: &CheckOutcome<S>) -> Self {
        let mut violations: Vec<(String, u32)> = outcome
            .violations
            .iter()
            .map(|v| (v.invariant.to_string(), v.depth))
            .collect();
        violations.sort();
        RunSignature {
            distinct_states: outcome.stats.distinct_states,
            transitions: outcome.stats.transitions,
            pruned_transitions: outcome.stats.pruned_transitions,
            max_depth: outcome.stats.max_depth,
            stop_reason: outcome.stop_reason,
            violations,
        }
    }

    /// The fields on which `self` and `other` disagree, as `name: a != b` strings.
    pub fn diff(&self, other: &RunSignature) -> Vec<String> {
        let mut diffs = Vec::new();
        if self.distinct_states != other.distinct_states {
            diffs.push(format!(
                "distinct_states: {} != {}",
                self.distinct_states, other.distinct_states
            ));
        }
        if self.transitions != other.transitions {
            diffs.push(format!(
                "transitions: {} != {}",
                self.transitions, other.transitions
            ));
        }
        if self.pruned_transitions != other.pruned_transitions {
            diffs.push(format!(
                "pruned_transitions: {} != {}",
                self.pruned_transitions, other.pruned_transitions
            ));
        }
        if self.max_depth != other.max_depth {
            diffs.push(format!(
                "max_depth: {} != {}",
                self.max_depth, other.max_depth
            ));
        }
        if self.stop_reason != other.stop_reason {
            diffs.push(format!(
                "stop_reason: {} != {}",
                self.stop_reason, other.stop_reason
            ));
        }
        if self.violations != other.violations {
            diffs.push(format!(
                "violations: {:?} != {:?}",
                self.violations, other.violations
            ));
        }
        diffs
    }
}

/// Runs the determinism oracle on one workload.
///
/// `base` should describe an *exhausting* run (no wall-clock budget): a time
/// budget makes the stop reason legitimately scheduling-dependent, which is
/// exactly the noise the oracle must not report.  Returns one soundness finding
/// per diverging `(workers, seed)` cell, each naming the cell so
/// `perturb::install(seed)` + `with_workers(workers)` replays it.
pub fn schedule_oracle<S: SpecState>(
    name: &str,
    spec: &Spec<S>,
    base: &CheckOptions,
    opts: &ScheduleOracleOptions,
) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let baseline = RunSignature::of(&check_bfs(spec, &base.clone().with_workers(1)));
    report.corpus_states = baseline.distinct_states as u64;
    for &workers in &opts.workers {
        for &seed in &opts.seeds {
            let options = base.clone().with_workers(workers);
            let outcome = {
                let _guard = perturb::install(seed);
                check_bfs(spec, &options)
            };
            report.diamonds_checked += 1;
            let cell = RunSignature::of(&outcome);
            let diffs = cell.diff(&baseline);
            if !diffs.is_empty() {
                report.findings.push(Finding {
                    tier: Tier::ScheduleFuzz,
                    class: FindingClass::Soundness,
                    action: "determinism-divergence".to_owned(),
                    location: format!("{name} workers={workers} seed={seed:#x}"),
                    field_path: String::new(),
                    effect_bits: String::new(),
                    detail: format!(
                        "perturbed run diverged from the unperturbed workers=1 \
                         baseline on {}; replay with perturb::install({seed:#x}) and \
                         with_workers({workers})",
                        diffs.join(", "),
                    ),
                    estimated_lost_pruning: 0,
                });
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// The seeded regression: a schedule-dependent spec the oracle must flag.
// ---------------------------------------------------------------------------

/// State of the deliberately racy demo spec.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RacyState(u64);

impl SpecState for RacyState {}

/// The oracle's seeded regression: checks a spec whose successor function reads a
/// process-global counter (the model-level analogue of an under-synchronized
/// successor closure), which makes the reachable set a function of run *history*.
/// The baseline drains part of the counter budget, so every perturbed cell sees a
/// different state space — the oracle must report a divergence for each cell,
/// with its replayable seed.  `remix-bench` writes these findings with
/// `"seeded": true` and fails unless there is at least one.
pub fn seeded_schedule_divergence() -> AnalysisReport {
    // ordering: Relaxed — the counter *is* the deliberate nondeterminism under
    // test; the RMW's atomicity is all the demo needs.
    static RACE: AtomicU64 = AtomicU64::new(0);
    const BUDGET: u64 = 24;
    RACE.store(0, Ordering::Relaxed); // ordering: Relaxed — see above.
    let step = remix_spec::ActionDef::new(
        "Race",
        remix_spec::ModuleId("RacyDemo"),
        remix_spec::Granularity::Baseline,
        vec!["n"],
        vec!["n"],
        move |_s: &RacyState| {
            // ordering: Relaxed — deliberate shared-counter race, see above.
            let draw = RACE.fetch_add(1, Ordering::Relaxed);
            if draw < BUDGET {
                vec![remix_spec::ActionInstance::new(
                    format!("Race({draw})"),
                    RacyState(draw + 1),
                )]
            } else {
                vec![]
            }
        },
    );
    let spec = Spec::new(
        "racy-demo",
        vec![RacyState(0)],
        vec![remix_spec::ModuleSpec::new(
            remix_spec::ModuleId("RacyDemo"),
            remix_spec::Granularity::Baseline,
            vec![step],
        )],
        vec![],
    );
    let opts = ScheduleOracleOptions {
        workers: vec![2],
        seeds: vec![0xD1CE],
    };
    schedule_oracle("seeded-racy-demo", &spec, &CheckOptions::default(), &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_spec::{ActionDef, ActionInstance, Granularity, ModuleId, ModuleSpec};

    fn chain_spec(limit: u64) -> Spec<RacyState> {
        let m = ModuleId("Chain");
        let inc = ActionDef::new(
            "Inc",
            m,
            Granularity::Baseline,
            vec!["n"],
            vec!["n"],
            move |s: &RacyState| {
                if s.0 < limit {
                    vec![ActionInstance::new(
                        format!("Inc({})", s.0),
                        RacyState(s.0 + 1),
                    )]
                } else {
                    vec![]
                }
            },
        );
        Spec::new(
            "chain",
            vec![RacyState(0)],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![inc])],
            vec![],
        )
    }

    #[test]
    fn deterministic_spec_passes_the_oracle() {
        let report = schedule_oracle(
            "chain",
            &chain_spec(32),
            &CheckOptions::default(),
            &ScheduleOracleOptions {
                workers: vec![1, 2],
                seeds: vec![7],
            },
        );
        assert!(
            report.findings.is_empty(),
            "honest spec must not diverge: {:?}",
            report.findings
        );
        assert_eq!(report.diamonds_checked, 2);
        assert_eq!(report.corpus_states, 33);
    }

    #[test]
    fn seeded_racy_spec_is_flagged_with_a_replayable_seed() {
        let report = seeded_schedule_divergence();
        assert!(report.has_soundness(), "the racy demo must diverge");
        let f = report
            .findings
            .iter()
            .find(|f| f.action == "determinism-divergence")
            .expect("divergence finding");
        assert!(
            f.location.contains("seed=0xd1ce"),
            "seed in location: {}",
            f.location
        );
        assert!(
            f.detail.contains("replay with"),
            "replay recipe: {}",
            f.detail
        );
    }
}

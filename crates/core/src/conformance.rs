//! Conformance checking between specifications and the code-level implementation.
//!
//! Following the paper's top-down approach (§3.4, §3.5.2): model-level traces are sampled
//! by random exploration of the specification, each trace is replayed deterministically
//! against the simulated implementation by scheduling the mapped code-level events one at
//! a time, and after every model step the model's variables are compared with their
//! code-level counterparts.  Discrepancies — mismatched variables, model actions whose
//! code-level counterpart cannot run, unmapped actions, or implementation errors hit
//! during replay — are collected into a [`ConformanceReport`].

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use remix_checker::explore::striped;
use remix_checker::{
    explore_one, shrink_trace, simulate_one, CheckerRng, CoverageMap, Guidance, ShrinkOutcome,
};
use remix_spec::{Spec, Trace, Value};
use remix_zab::{ClusterConfig, ZabState};
use remix_zk_sim::{Cluster, Observation};

use crate::mapping::ActionMapping;

/// Options of a conformance-checking run.
#[derive(Debug, Clone)]
pub struct ConformanceOptions {
    /// Number of model-level traces to sample by random exploration of the specification
    /// (the trace-sampling loop of §3.4 / §3.5.2).
    pub traces: usize,
    /// Maximum length of each sampled trace, bounding the replayed executions the same
    /// way the paper's simulation budget does.
    pub max_depth: u32,
    /// Random seed for trace sampling; each trace index derives its own sub-stream, so a
    /// batch is reproducible regardless of `workers`.
    pub seed: u64,
    /// Time budget for the sampling phase (the paper uses e.g. 30 minutes).  When it
    /// binds, how many trace indices complete before the cut-off depends on scheduling,
    /// so budget-limited reports are not comparable across worker counts.
    pub time_budget: Option<Duration>,
    /// Worker threads sampling and replaying traces concurrently.  Replay of one trace
    /// is inherently sequential (the coordinator schedules one code-level event at a
    /// time, §3.5.2), so parallelism is across traces; results are merged in trace-index
    /// order and — absent a binding `time_budget` — identical for any worker count.
    pub workers: usize,
    /// The sampling policy: the paper's uniform random walk (§3.5.2), or coverage-guided
    /// sampling biased toward rarely visited state regions (`remix-checker::explore`).
    /// Guided sampling shares one coverage map across all workers, so with several
    /// workers the sampled traces depend on their interleaving; uniform sampling stays
    /// byte-identical for any worker count.
    pub guidance: Guidance,
    /// Delta-debug every diverging trace down to a locally minimal legal execution that
    /// still diverges (re-replaying each candidate against a fresh implementation
    /// cluster), and record the minimized schedules in
    /// [`ConformanceReport::shrunk_divergences`].
    pub shrink_divergences: bool,
}

impl Default for ConformanceOptions {
    fn default() -> Self {
        ConformanceOptions {
            traces: 24,
            max_depth: 30,
            seed: 0x5EED,
            time_budget: None,
            workers: 1,
            guidance: Guidance::Uniform,
            shrink_divergences: false,
        }
    }
}

impl ConformanceOptions {
    /// Switches to coverage-guided trace sampling with the given rarity weight.
    pub fn guided(mut self, rarity_weight: u32) -> Self {
        self.guidance = Guidance::CoverageGuided { rarity_weight };
        self
    }

    /// Enables delta-debugging of diverging traces.
    pub fn with_shrinking(mut self) -> Self {
        self.shrink_divergences = true;
        self
    }
}

/// One detected discrepancy between the model and the implementation.
#[derive(Debug, Clone)]
pub enum Discrepancy {
    /// A model-level variable and its code-level counterpart have different values.
    VariableMismatch {
        /// Index of the sampled trace.
        trace: usize,
        /// Step within the trace.
        step: usize,
        /// The model action that produced the step.
        action: String,
        /// The variable that differs.
        variable: String,
        /// The model-side value.
        model: Value,
        /// The implementation-side value.
        implementation: Value,
    },
    /// A model action has no registered code-level mapping.
    UnmappedAction {
        /// Index of the sampled trace.
        trace: usize,
        /// The unmapped action label.
        action: String,
    },
    /// The mapped code-level event could not run in the implementation state
    /// (the model-level action's counterpart, once enabled, never takes place).
    EventRejected {
        /// Index of the sampled trace.
        trace: usize,
        /// Step within the trace.
        step: usize,
        /// The model action.
        action: String,
        /// Why the implementation refused the event.
        reason: String,
    },
    /// The implementation raised an exception / failed assertion during replay while the
    /// model did not flag any error path (§3.5.2's "obvious symptoms").
    ImplementationError {
        /// Index of the sampled trace.
        trace: usize,
        /// Step within the trace.
        step: usize,
        /// The model action.
        action: String,
        /// The implementation error.
        error: String,
    },
}

impl Discrepancy {
    /// Index of the sampled trace the discrepancy was found on.
    fn trace(&self) -> usize {
        match self {
            Discrepancy::VariableMismatch { trace, .. }
            | Discrepancy::UnmappedAction { trace, .. }
            | Discrepancy::EventRejected { trace, .. }
            | Discrepancy::ImplementationError { trace, .. } => *trace,
        }
    }
}

/// A diverging trace minimized by delta debugging (§3.5.2's counterexamples, made
/// readable): the shrunk schedule is a legal execution of the specification whose
/// replay still produces a discrepancy, and no single remaining action can be removed
/// without losing that property.
#[derive(Debug, Clone)]
pub struct ShrunkDivergence {
    /// Index of the sampled trace that diverged.
    pub trace: usize,
    /// Transition count of the originally sampled trace.
    pub original_depth: usize,
    /// Transition count after shrinking (never larger than `original_depth`).
    pub shrunk_depth: usize,
    /// The minimized schedule: the action labels of the shrunk trace, replayable via
    /// `remix-checker::replay_labels` or [`ConformanceChecker::replay_trace`].
    pub actions: Vec<String>,
    /// The deterministic schedule seed the trace was sampled (and its shrunk form
    /// re-validated) under — boot the replay cluster with `Cluster::with_seed` on this
    /// value to reproduce the run exactly.
    pub schedule_seed: u64,
}

/// The outcome of a conformance-checking run.
#[derive(Debug, Default)]
pub struct ConformanceReport {
    /// Number of traces replayed.
    pub traces_checked: usize,
    /// Total number of model steps replayed.
    pub steps_replayed: usize,
    /// The detected discrepancies.
    pub discrepancies: Vec<Discrepancy>,
    /// Minimized diverging schedules (filled when
    /// [`ConformanceOptions::shrink_divergences`] is set).
    pub shrunk_divergences: Vec<ShrunkDivergence>,
}

impl ConformanceReport {
    /// `true` when no discrepancy was detected.
    pub fn conforms(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// The conformance checker.
#[derive(Debug)]
pub struct ConformanceChecker {
    /// The model-checking configuration (must match the implementation's configuration).
    pub config: ClusterConfig,
    /// The model-to-code action mapping.
    pub mapping: ActionMapping,
    /// The variables compared after every step.
    pub compared_variables: Vec<&'static str>,
}

impl ConformanceChecker {
    /// Creates a conformance checker with the default ZooKeeper action mapping.
    pub fn new(config: ClusterConfig) -> Self {
        ConformanceChecker {
            config,
            mapping: crate::mapping::default_mapping(),
            compared_variables: Observation::comparable_variables().to_vec(),
        }
    }

    /// Samples model-level traces from `spec` and replays each against a fresh
    /// implementation cluster, collecting discrepancies.
    ///
    /// Each trace index seeds its own random sub-stream, so absent a binding
    /// `time_budget` the sampled batch — and the resulting report — is the same for
    /// every `options.workers` value; workers simply sample and replay disjoint stripes
    /// of the index space concurrently.  A binding budget cuts each worker's stripe off
    /// at a scheduling-dependent index, so budget-limited reports may differ.
    pub fn check(&self, spec: &Spec<ZabState>, options: &ConformanceOptions) -> ConformanceReport {
        let start = Instant::now();
        // One coverage map shared by every sampling worker (only consulted when the
        // guidance is coverage-guided; recording for uniform runs would change nothing),
        // at the explorer's default striping/granularity so guided conformance sampling
        // behaves like a standalone guided exploration of the same spec.
        let coverage = CoverageMap::new(
            remix_checker::explore::DEFAULT_COVERAGE_SHARDS,
            remix_checker::explore::DEFAULT_PREFIX_BITS,
        );

        let check_one = |report: &mut ConformanceReport, index: usize| {
            // The value `CheckerRng::for_trace` seeds this trace's sampling sub-stream
            // with, reused as the replay cluster's schedule identity (one shared
            // derivation, so the recorded identity cannot drift from the stream).
            let schedule_seed = CheckerRng::trace_seed(options.seed, index as u64);
            let mut rng = CheckerRng::for_trace(options.seed, index as u64);
            let trace = match options.guidance {
                Guidance::Uniform => simulate_one(spec, options.max_depth, &mut rng),
                Guidance::CoverageGuided { .. } => explore_one(
                    spec,
                    options.max_depth,
                    &mut rng,
                    &coverage,
                    options.guidance,
                    None,
                ),
            };
            report.traces_checked += 1;
            let before = report.discrepancies.len();
            self.replay_trace_seeded(index, &trace, report, schedule_seed);
            if options.shrink_divergences && report.discrepancies.len() > before {
                let outcome = self.shrink_divergence(spec, &trace, schedule_seed);
                report.shrunk_divergences.push(ShrunkDivergence {
                    trace: index,
                    original_depth: outcome.original_depth,
                    shrunk_depth: outcome.shrunk_depth(),
                    actions: outcome
                        .trace
                        .action_labels()
                        .iter()
                        .map(|l| (*l).to_owned())
                        .collect(),
                    schedule_seed,
                });
            }
        };
        // At least one trace (index 0) is always produced, budget or not.  Each worker
        // folds its stripe into one report as it goes, so a run holds no per-trace
        // partial report, only what the traces found.
        let folded = striped(
            options.traces,
            options.workers,
            || options.time_budget.is_some_and(|b| start.elapsed() >= b),
            ConformanceReport::default,
            check_one,
        );

        let mut report = ConformanceReport::default();
        for part in folded {
            report.traces_checked += part.traces_checked;
            report.steps_replayed += part.steps_replayed;
            report.discrepancies.extend(part.discrepancies);
            report.shrunk_divergences.extend(part.shrunk_divergences);
        }
        // Each worker's findings are in trace-index order; a stable sort by trace index
        // interleaves the stripes into the order one worker produces, so the report is
        // the same for every worker count.
        report.discrepancies.sort_by_key(Discrepancy::trace);
        report.shrunk_divergences.sort_by_key(|shrunk| shrunk.trace);
        report
    }

    /// Delta-debugs a diverging model-level trace down to a locally minimal legal
    /// execution whose replay (under the same deterministic `schedule_seed`) still
    /// produces a discrepancy.
    ///
    /// Every candidate is first re-validated against `spec` (each remaining action must
    /// stay enabled along the way) and then replayed against a fresh implementation
    /// cluster; the oracle accepts it only when the replay still diverges, so the
    /// shrunk trace is guaranteed to reproduce a model/code gap of §3.5.2.
    pub fn shrink_divergence(
        &self,
        spec: &Spec<ZabState>,
        trace: &Trace<ZabState>,
        schedule_seed: u64,
    ) -> ShrinkOutcome<ZabState> {
        shrink_trace(spec, trace, |candidate| {
            let mut probe = ConformanceReport::default();
            self.replay_trace_seeded(0, candidate, &mut probe, schedule_seed);
            !probe.discrepancies.is_empty()
        })
    }

    /// Replays one model-level trace against a fresh cluster (used both by `check` and to
    /// confirm safety violations found during model checking, §3.5.2).
    pub fn replay_trace(
        &self,
        trace_index: usize,
        trace: &Trace<ZabState>,
        report: &mut ConformanceReport,
    ) {
        self.replay_trace_seeded(trace_index, trace, report, 0);
    }

    /// Like [`Self::replay_trace`], booting the replay cluster with the deterministic
    /// schedule seed of the sampled trace (`Cluster::with_seed`), so the replay — and
    /// any shrunk form of it — is tagged with the schedule identity it was found under.
    pub fn replay_trace_seeded(
        &self,
        trace_index: usize,
        trace: &Trace<ZabState>,
        report: &mut ConformanceReport,
        schedule_seed: u64,
    ) {
        let mut cluster = Cluster::with_seed(self.config, schedule_seed);
        for (step_index, step) in trace.steps.iter().enumerate().skip(1) {
            report.steps_replayed += 1;
            let Some(events) = self.mapping.translate(&step.action) else {
                report.discrepancies.push(Discrepancy::UnmappedAction {
                    trace: trace_index,
                    action: step.action.clone(),
                });
                continue;
            };
            let mut rejected = false;
            for event in &events {
                if let Err(e) = cluster.step(event) {
                    report.discrepancies.push(Discrepancy::EventRejected {
                        trace: trace_index,
                        step: step_index,
                        action: step.action.clone(),
                        reason: e.reason,
                    });
                    rejected = true;
                    break;
                }
            }
            if rejected {
                // The implementation diverged; comparing further states of this trace
                // would only produce cascading mismatches.
                break;
            }
            let observation = cluster.observe();
            for (variable, model, implementation) in
                mismatches(&step.state, &observation, &self.compared_variables)
            {
                report.discrepancies.push(Discrepancy::VariableMismatch {
                    trace: trace_index,
                    step: step_index,
                    action: step.action.clone(),
                    variable: variable.to_owned(),
                    model,
                    implementation,
                });
            }
            // Implementation exceptions with no model-side error path are discrepancies
            // in their own right (and conversely a modelled error path is not).
            if step.state.violation.is_none() {
                if let Some((_, error)) = observation.first_error() {
                    report.discrepancies.push(Discrepancy::ImplementationError {
                        trace: trace_index,
                        step: step_index,
                        action: step.action.clone(),
                        error: error.to_owned(),
                    });
                    break;
                }
            }
        }
    }

    /// Deterministically replays a violation trace found by the model checker and reports
    /// whether the implementation reaches a matching error / divergence, confirming the
    /// bug at the code level (§3.5.3).
    pub fn confirm_violation(&self, trace: &Trace<ZabState>) -> ConformanceReport {
        let mut report = ConformanceReport {
            traces_checked: 1,
            ..Default::default()
        };
        self.replay_trace(0, trace, &mut report);
        report
    }
}

/// The variables conformance can compare, in name order: the order a
/// `BTreeMap<String, Value>` of both sides' projections lists them in.
const COMPARABLE_BY_NAME: [&str; 5] = [
    "acceptedEpoch",
    "currentEpoch",
    "history",
    "lastCommitted",
    "violation",
];

/// The variables of `compared` whose model value differs from the implementation's
/// after a step, each with both sides' values, in name order.
///
/// Each side is read field by field, so a step that matches builds no `Value`; only a
/// differing variable is projected (by `ZabState::project` and `Observation::project`,
/// the views a mismatch reports).  A name listed twice is compared once, and a name
/// neither side projects is skipped.
fn mismatches(
    model: &ZabState,
    observed: &Observation,
    compared: &[&str],
) -> Vec<(&'static str, Value, Value)> {
    COMPARABLE_BY_NAME
        .into_iter()
        .filter(|name| compared.contains(name) && differs(model, observed, name))
        .map(|name| {
            let view = |mut projected: BTreeMap<String, Value>| {
                projected
                    .remove(name)
                    .expect("both sides project every comparable variable")
            };
            (
                name,
                view(model.project(&[name])),
                view(observed.project(&[name])),
            )
        })
        .collect()
}

/// Whether `variable` (one of [`COMPARABLE_BY_NAME`]) reads differently in the model
/// state and in the observation: the field-by-field form of comparing their projected
/// `Value`s.
fn differs(model: &ZabState, observed: &Observation, variable: &str) -> bool {
    let servers = model.servers.iter();
    let mut nodes = observed.nodes();
    match variable {
        "acceptedEpoch" => !servers
            .map(|s| s.accepted_epoch)
            .eq(nodes.map(|n| n.accepted_epoch)),
        "currentEpoch" => !servers
            .map(|s| s.current_epoch)
            .eq(nodes.map(|n| n.current_epoch)),
        "history" => !servers
            .map(|s| s.history.as_slice())
            .eq(nodes.map(|n| n.log)),
        "lastCommitted" => !servers
            .map(|s| s.last_committed)
            .eq(nodes.map(|n| n.committed)),
        "violation" => model.violation.is_some() != nodes.any(|n| n.error.is_some()),
        _ => unreachable!("{variable} is not a comparable variable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_zab::{CodeVersion, SpecPreset};

    fn options() -> ConformanceOptions {
        ConformanceOptions {
            traces: 12,
            max_depth: 24,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn fine_grained_spec_conforms_to_the_matching_implementation() {
        // mSpec-3 models asynchronous logging and committing, which is exactly what the
        // v3.9.1 implementation does: replaying its traces must not produce mismatches.
        let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
        let spec = SpecPreset::MSpec3.build(&config);
        let checker = ConformanceChecker::new(config);
        let report = checker.check(&spec, &options());
        assert!(report.traces_checked > 0 && report.steps_replayed > 0);
        assert!(
            report.conforms(),
            "mSpec-3 should conform to the v3.9.1 implementation: {:?}",
            report.discrepancies.first()
        );
    }

    #[test]
    fn final_fix_spec_conforms_to_the_fixed_implementation() {
        let config = ClusterConfig::small(CodeVersion::FinalFix).with_crashes(0);
        let spec = SpecPreset::MSpec3.build(&config);
        let checker = ConformanceChecker::new(config);
        let report = checker.check(&spec, &options());
        assert!(report.conforms(), "{:?}", report.discrepancies.first());
    }

    #[test]
    fn baseline_spec_exhibits_the_async_commit_model_code_gap() {
        // The baseline system specification commits synchronously at UPTODATE, while the
        // implementation hands commits to the CommitProcessor thread: conformance
        // checking must surface the gap (this mirrors the discrepancy-driven spec
        // adjustments of §4.1).
        let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
        let spec = SpecPreset::MSpec1.build(&config);
        let checker = ConformanceChecker::new(config);
        let report = checker.check(
            &spec,
            &ConformanceOptions {
                traces: 20,
                max_depth: 30,
                ..options()
            },
        );
        assert!(
            !report.conforms(),
            "the baseline specification should not conform to the asynchronous implementation"
        );
        assert!(report
            .discrepancies
            .iter()
            .any(|d| matches!(d, Discrepancy::VariableMismatch { variable, .. } if variable == "lastCommitted")));
    }

    #[test]
    fn guided_sampling_also_surfaces_the_gap() {
        // Coverage-guided sampling is a different distribution over the same legal
        // executions, so it must still expose the baseline model/code divergence.
        let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
        let spec = SpecPreset::MSpec1.build(&config);
        let checker = ConformanceChecker::new(config);
        let report = checker.check(
            &spec,
            &ConformanceOptions {
                traces: 20,
                max_depth: 30,
                ..options()
            }
            .guided(16),
        );
        assert!(
            !report.conforms(),
            "guided sampling should find the async-commit gap"
        );
    }

    #[test]
    fn shrinking_minimizes_diverging_traces() {
        let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
        let spec = SpecPreset::MSpec1.build(&config);
        let checker = ConformanceChecker::new(config);
        let report = checker.check(
            &spec,
            &ConformanceOptions {
                traces: 20,
                max_depth: 30,
                ..options()
            }
            .with_shrinking(),
        );
        assert!(!report.conforms());
        assert!(
            !report.shrunk_divergences.is_empty(),
            "every diverging trace should have been shrunk"
        );
        for shrunk in &report.shrunk_divergences {
            assert!(shrunk.shrunk_depth <= shrunk.original_depth);
            assert_eq!(shrunk.actions.len(), shrunk.shrunk_depth);
        }
    }

    #[test]
    fn reports_are_identical_across_worker_counts() {
        // Every worker folds its stripe into one report; the merge must give the
        // report one worker gives, discrepancy for discrepancy, on a run that has many.
        let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
        let spec = SpecPreset::MSpec1.build(&config);
        let checker = ConformanceChecker::new(config);
        let options = ConformanceOptions {
            traces: 20,
            max_depth: 30,
            ..options()
        };
        let one = checker.check(&spec, &options);
        assert!(!one.conforms());
        let rendered = format!("{one:?}");
        for workers in [2, 3] {
            let many = checker.check(
                &spec,
                &ConformanceOptions {
                    workers,
                    ..options.clone()
                },
            );
            assert_eq!(format!("{many:?}"), rendered, "workers={workers}");
        }
    }

    #[test]
    fn comparable_names_are_the_observation_s_in_name_order() {
        let mut names = Observation::comparable_variables().to_vec();
        names.sort_unstable();
        assert_eq!(names, COMPARABLE_BY_NAME);
    }

    /// The comparison the typed one replaced: both sides projected into `Value` maps,
    /// compared in the maps' name order.
    fn compare_views(
        model: &BTreeMap<String, Value>,
        implementation: &BTreeMap<String, Value>,
    ) -> Vec<(String, Value, Value)> {
        let mut out = Vec::new();
        for (var, model_value) in model {
            if let Some(impl_value) = implementation.get(var) {
                if impl_value != model_value {
                    out.push((var.clone(), model_value.clone(), impl_value.clone()));
                }
            }
        }
        out
    }

    /// Replays 20 sampled traces of `preset` (built for `model_config`) against an
    /// implementation booted with `impl_config`, asserting after every step that the
    /// typed comparison reports what the `Value`-map comparison reports; returns how
    /// many steps matched and how many diverged.
    fn typed_verdicts_agree(
        preset: SpecPreset,
        model_config: ClusterConfig,
        impl_config: ClusterConfig,
    ) -> (usize, usize) {
        let spec = preset.build(&model_config);
        let checker = ConformanceChecker::new(impl_config);
        // Out of order, one name twice and one neither side projects.
        let variables = [
            "violation",
            "history",
            "noSuchVariable",
            "currentEpoch",
            "history",
            "lastCommitted",
            "acceptedEpoch",
        ];
        let (mut matching, mut diverging) = (0, 0);
        for index in 0..20 {
            let mut rng = CheckerRng::for_trace(7, index);
            let trace = simulate_one(&spec, 30, &mut rng);
            let mut cluster = Cluster::with_seed(impl_config, CheckerRng::trace_seed(7, index));
            'steps: for step in trace.steps.iter().skip(1) {
                let Some(events) = checker.mapping.translate(&step.action) else {
                    continue;
                };
                for event in &events {
                    if cluster.step(event).is_err() {
                        break 'steps;
                    }
                }
                let observation = cluster.observe();
                let typed: Vec<(String, Value, Value)> =
                    mismatches(&step.state, &observation, &variables)
                        .into_iter()
                        .map(|(name, model, implementation)| {
                            (name.to_owned(), model, implementation)
                        })
                        .collect();
                let reference = compare_views(
                    &step.state.project(&variables),
                    &observation.project(&variables),
                );
                assert_eq!(typed, reference, "trace {index}, action {}", step.action);
                if typed.is_empty() {
                    matching += 1;
                } else {
                    diverging += 1;
                }
            }
        }
        (matching, diverging)
    }

    #[test]
    fn typed_comparison_matches_the_value_map_comparison() {
        let v391 = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
        let final_fix = ClusterConfig::small(CodeVersion::FinalFix).with_crashes(0);
        for (preset, model_config) in [(SpecPreset::MSpec1, v391), (SpecPreset::MSpec3, final_fix)]
        {
            let (matching, diverging) = typed_verdicts_agree(preset, model_config, v391);
            assert!(
                matching > 0 && diverging > 0,
                "{preset:?}: {matching} matching and {diverging} diverging steps"
            );
        }
    }

    #[test]
    fn parallel_replay_matches_sequential() {
        // Per-trace seeding makes the sampled batch independent of the worker count, so
        // the merged reports must agree exactly.
        let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
        let spec = SpecPreset::MSpec1.build(&config);
        let checker = ConformanceChecker::new(config);
        let seq = checker.check(&spec, &options());
        let par = checker.check(
            &spec,
            &ConformanceOptions {
                workers: 4,
                ..options()
            },
        );
        assert_eq!(seq.traces_checked, par.traces_checked);
        assert_eq!(seq.steps_replayed, par.steps_replayed);
        assert_eq!(seq.discrepancies.len(), par.discrepancies.len());
    }
}

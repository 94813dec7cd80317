//! The verifier: end-to-end model-checking runs over composed specifications.
//!
//! The verifier is the piece of Remix that drives the model checker and turns its raw
//! output into the measurements the paper reports: per-bug detection rows (Table 4),
//! per-specification efficiency rows (Table 5) and fix-verification rows (Table 6).

use std::fmt;
use std::time::Duration;

use remix_analyze::AnalysisReport;
use remix_checker::{
    check_bfs, check_refinement, shrink_violation, CheckMode, CheckOptions, CheckOutcome,
    CorpusOptions, RefineOptions, RefineOutcome, RefineVerdict, SpillConfig, StoreMode,
    SymmetryMode,
};
use remix_spec::{action_name, CompositionPlan, Invariant, ModuleId, Spec, SpecError, Trace};
use remix_zab::{projection_between, ClusterConfig, SpecPreset, ZabState};

use crate::composer::Composer;
use crate::report::RefineRow;

/// A structured verification-setup failure.
///
/// Earlier versions panicked out of [`Verifier::check_refinement`] when the requested
/// presets did not form a refinement pair or a composition plan failed to build; both
/// are now reported as values so harnesses (benches, CI matrices, long-running
/// verification loops) can skip or report a bad pairing instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The two presets/plans do not form a refinement pair: the `coarse` side must
    /// select a strictly coarser granularity than the `fine` side for at least one
    /// module (note the argument order: fine first, coarse second).
    NotARefinementPair {
        /// Name of the fine-side plan.
        fine: String,
        /// Name of the coarse-side plan.
        coarse: String,
    },
    /// A plan that *does* form a refinement pair failed to build — it names a
    /// module/granularity combination the specification library does not provide.
    PlanBuild {
        /// Name of the plan that failed to build.
        plan: String,
        /// The underlying specification error.
        source: SpecError,
    },
    /// The pre-check analysis gate ([`Verifier::verify_spec_gated`]) found
    /// soundness-class findings: some declared [`Effect`](remix_spec::Effect)
    /// footprint is narrower than the writes the effect audit observed (or a
    /// declared-independent pair fails its commute diamond).  Model checking with
    /// sleep-set POR on such a specification can silently drop states, so the
    /// verifier refuses to run it.
    UnsoundFootprint {
        /// Name of the analyzed specification.
        spec: String,
        /// The rendered soundness findings (one per line of
        /// [`remix_analyze::Finding`]'s display form).
        findings: Vec<String>,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NotARefinementPair { fine, coarse } => write!(
                f,
                "presets do not form a refinement pair: {coarse} must strictly abstract {fine} \
                 (check the argument order: fine first, coarse second)"
            ),
            VerifyError::PlanBuild { plan, source } => {
                write!(f, "composition plan {plan} does not build: {source}")
            }
            VerifyError::UnsoundFootprint { spec, findings } => {
                write!(
                    f,
                    "specification {spec} has {} unsound effect declaration(s); first: {}",
                    findings.len(),
                    findings.first().map(String::as_str).unwrap_or("<none>")
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Options of a verification run.
#[derive(Debug, Clone)]
pub struct VerifierOptions {
    /// Stop at the first violation or run to completion (Table 5a vs 5b).
    pub mode: CheckMode,
    /// Wall-clock budget of the run.
    pub time_budget: Duration,
    /// Maximum number of distinct states explored.
    pub max_states: Option<usize>,
    /// Worker threads for frontier expansion (TLC's `-workers`, §4.4).
    pub workers: usize,
    /// Lock stripes of the checker's discovered-state set; see
    /// [`CheckOptions::shards`](remix_checker::CheckOptions).
    pub shards: usize,
    /// Ignored — results never depended on it; deleted in the next `benchmark` PR.
    pub batch_size: usize,
    /// Which backend the checker keeps discovered states in: the compact full-state
    /// arena (the default), or the TLC-style memory-bounded fingerprint-only store;
    /// see [`StoreMode`].
    pub store_mode: StoreMode,
    /// Whether the checker dedups on canonical representatives under the
    /// specification's symmetry group.  Every Zab preset attaches one, but the Zab
    /// successor relation is not equivariant under server-id permutation (elections
    /// break ties by server id), so the reduced run can explore states no execution
    /// reaches, and a witness that does not replay is reported in canonical form (see
    /// [`SymmetryMode`] and the symmetry section of `ARCHITECTURE.md`).  Off by
    /// default.
    pub symmetry: SymmetryMode,
    /// Memory budget and spill directory of the checker's out-of-core tier; in RAM by
    /// default, armed by [`VerifierOptions::with_mem_budget`].  See [`SpillConfig`].
    pub spill: SpillConfig,
    /// Ignored — results never depended on it; deleted in the next `benchmark` PR.
    pub route_by_owner: bool,
    /// Whether the checker prunes provably redundant interleavings of independent
    /// actions with sleep sets (off by default); see
    /// [`CheckOptions::por`](remix_checker::CheckOptions).
    pub por: bool,
    /// Restrict checking to these invariant identifiers (empty = all selected by the
    /// composition).  Used by the Table 4 harness to attribute a run to one bug.
    pub only_invariants: Vec<&'static str>,
    /// Delta-debug every counterexample trace after the run
    /// (`remix-checker::shrink_violation`): each shrunk trace is a locally minimal
    /// legal execution whose final state still violates the same invariant.  BFS
    /// counterexamples are already depth-minimal (§4.4), so this mostly matters for
    /// traces that reach the verifier from simulation or DFS; the shrunk forms are
    /// reported in [`VerificationRun::shrunk`] without touching the raw outcome.
    pub shrink_counterexamples: bool,
}

impl Default for VerifierOptions {
    fn default() -> Self {
        let check = CheckOptions::default();
        VerifierOptions {
            mode: CheckMode::FirstViolation,
            time_budget: Duration::from_secs(120),
            max_states: None,
            workers: 1,
            shards: check.shards,
            batch_size: check.batch_size,
            store_mode: StoreMode::Full,
            symmetry: SymmetryMode::Off,
            spill: SpillConfig::in_ram(),
            route_by_owner: check.route_by_owner,
            por: false,
            only_invariants: Vec::new(),
            shrink_counterexamples: false,
        }
    }
}

impl VerifierOptions {
    /// Run-to-completion mode with the paper's violation limit of 10,000.
    pub fn completion() -> Self {
        VerifierOptions {
            mode: CheckMode::Completion {
                violation_limit: 10_000,
            },
            ..Default::default()
        }
    }

    /// Restricts checking to a single invariant.
    pub fn targeting(mut self, invariant: &'static str) -> Self {
        self.only_invariants = vec![invariant];
        self
    }

    /// Sets the time budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = budget;
        self
    }

    /// Sets the distinct-state cap.
    pub fn with_max_states(mut self, states: usize) -> Self {
        self.max_states = Some(states);
        self
    }

    /// Sets the number of worker threads expanding each BFS frontier.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Selects the discovered-state store backend.
    pub fn with_store_mode(mut self, mode: StoreMode) -> Self {
        self.store_mode = mode;
        self
    }

    /// Selects the symmetry-reduction mode.
    pub fn with_symmetry(mut self, mode: SymmetryMode) -> Self {
        self.symmetry = mode;
        self
    }

    /// Enables or disables sleep-set partial-order reduction.
    pub fn with_por(mut self, por: bool) -> Self {
        self.por = por;
        self
    }

    /// Sets the checker's memory budget in bytes (the fingerprint set spills sorted
    /// runs to disk beyond it).
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.spill.budget_bytes = Some(bytes);
        self
    }

    /// Replaces the whole out-of-core configuration.
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = spill;
        self
    }

    /// Enables counterexample shrinking.
    pub fn with_shrinking(mut self) -> Self {
        self.shrink_counterexamples = true;
        self
    }
}

/// A counterexample minimized by delta debugging after a verification run.
#[derive(Debug, Clone)]
pub struct ShrunkCounterexample {
    /// The violated invariant the shrunk trace still violates.
    pub invariant: &'static str,
    /// Transition count of the checker's original counterexample.
    pub original_depth: usize,
    /// The locally minimal violating trace (never longer than the original).
    pub trace: Trace<ZabState>,
}

/// The result of one verification run.
#[derive(Debug)]
pub struct VerificationRun {
    /// The name of the checked specification.
    pub spec_name: String,
    /// The raw model-checking outcome.
    pub outcome: CheckOutcome<ZabState>,
    /// Shrunk counterexamples, one per recorded violation (filled when
    /// [`VerifierOptions::shrink_counterexamples`] is set; empty otherwise).
    pub shrunk: Vec<ShrunkCounterexample>,
}

impl VerificationRun {
    /// `true` when no violation was found.
    pub fn passed(&self) -> bool {
        self.outcome.passed()
    }

    /// The identifier of the first violated invariant, if any.
    pub fn first_violated_invariant(&self) -> Option<&'static str> {
        self.outcome.first_violation().map(|v| v.invariant)
    }
}

/// The verifier: composes a specification (or takes one) and model-checks it.
#[derive(Debug, Clone)]
pub struct Verifier {
    /// The configuration verification runs are performed under.
    pub config: ClusterConfig,
}

impl Verifier {
    /// Creates a verifier for a configuration.
    pub fn new(config: ClusterConfig) -> Self {
        Verifier { config }
    }

    /// Verifies one of the preset mixed-grained specifications.
    pub fn verify_preset(&self, preset: SpecPreset, options: &VerifierOptions) -> VerificationRun {
        let composed = Composer::new(self.config)
            .compose_preset(preset)
            .expect("preset composes");
        self.verify_spec(composed.spec, options)
    }

    /// Verifies an already-composed specification.
    pub fn verify_spec(&self, spec: Spec<ZabState>, options: &VerifierOptions) -> VerificationRun {
        let spec = if options.only_invariants.is_empty() {
            spec
        } else {
            restrict_invariants(spec, &options.only_invariants)
        };
        let check = CheckOptions {
            mode: options.mode,
            max_depth: None,
            time_budget: Some(options.time_budget),
            max_states: options.max_states,
            workers: options.workers,
            shards: options.shards,
            batch_size: options.batch_size,
            collect_traces: true,
            store_mode: options.store_mode,
            symmetry: options.symmetry,
            spill: options.spill.clone(),
            route_by_owner: options.route_by_owner,
            por: options.por,
        };
        let outcome = check_bfs(&spec, &check);
        let shrunk = if options.shrink_counterexamples {
            outcome
                .violations
                .iter()
                .filter(|v| !v.trace.is_empty())
                .map(|v| {
                    let result = shrink_violation(&spec, &v.trace, v.invariant);
                    ShrunkCounterexample {
                        invariant: v.invariant,
                        original_depth: result.original_depth,
                        trace: result.trace,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        VerificationRun {
            spec_name: spec.name.clone(),
            outcome,
            shrunk,
        }
    }
}

impl Verifier {
    /// Runs the semantic analysis tiers — effect audit and commute oracle
    /// (`remix-analyze`) — over a bounded BFS corpus of a composed specification.
    ///
    /// The corpus is explored without symmetry or partial-order reduction: those are
    /// exactly the reductions whose soundness the analysis establishes.
    pub fn analyze_spec(&self, spec: &Spec<ZabState>, corpus: CorpusOptions) -> AnalysisReport {
        remix_analyze::analyze_spec(spec, corpus)
    }

    /// Verifies a specification behind the analysis pre-check gate: the semantic
    /// analysis ([`Verifier::analyze_spec`]) runs first, and any soundness-class
    /// finding aborts the run with [`VerifyError::UnsoundFootprint`] instead of model
    /// checking on declarations that could silently drop states.
    pub fn verify_spec_gated(
        &self,
        spec: Spec<ZabState>,
        options: &VerifierOptions,
        corpus: CorpusOptions,
    ) -> Result<VerificationRun, VerifyError> {
        let report = self.analyze_spec(&spec, corpus);
        if report.has_soundness() {
            return Err(VerifyError::UnsoundFootprint {
                spec: spec.name.clone(),
                findings: report.soundness().map(|f| f.to_string()).collect(),
            });
        }
        Ok(self.verify_spec(spec, options))
    }
}

/// The result of one refinement check between two compositions.
#[derive(Debug)]
pub struct RefinementRun {
    /// The raw refinement outcome, including the (shrunk) witness on divergence.
    pub outcome: RefineOutcome<ZabState>,
    /// The configuration the check ran under.
    pub config: ClusterConfig,
}

impl RefinementRun {
    /// The definite verdict when there is one: `Some(true)` only when the coarse
    /// composition simulates the fine one over the *whole* reachable space,
    /// `Some(false)` on a concrete divergence, `None` when a budget truncated the
    /// check (nothing was proved either way).
    pub fn refines(&self) -> Option<bool> {
        self.outcome.refines()
    }

    /// The three-valued verdict of the check.
    pub fn verdict(&self) -> RefineVerdict {
        self.outcome.verdict()
    }

    /// The modules of the actions in the divergence witness that exist only in the
    /// fine composition — the localization of the divergence (e.g. the thread actions
    /// of the Synchronization module for a ZK-3023 witness).
    ///
    /// Empty when the check refines, or when every witness action also exists on the
    /// coarse side (the divergence then comes from an interleaving, not a fine-only
    /// action).
    pub fn culprit_modules(&self, fine: &Spec<ZabState>, coarse: &Spec<ZabState>) -> Vec<ModuleId> {
        let Some(divergence) = &self.outcome.divergence else {
            return Vec::new();
        };
        let coarse_names: std::collections::BTreeSet<&str> =
            coarse.actions().map(|a| a.name).collect();
        let mut culprits: std::collections::BTreeSet<ModuleId> = Default::default();
        for label in divergence.witness.action_labels() {
            let name = action_name(label);
            if coarse_names.contains(name) {
                continue;
            }
            if let Some(action) = fine.actions().find(|a| a.name == name) {
                culprits.insert(action.module);
            }
        }
        culprits.into_iter().collect()
    }

    /// Renders the result as a row of the refinement matrix.
    pub fn row(&self) -> RefineRow {
        RefineRow {
            fine: self.outcome.fine_spec.clone(),
            coarse: self.outcome.coarse_spec.clone(),
            projection: self.outcome.projection.clone(),
            mode: self.outcome.mode.to_string(),
            version: self.config.version.label().to_owned(),
            servers: self.config.num_servers,
            verdict: self.outcome.verdict().as_str().to_owned(),
            conclusive: self.outcome.conclusive(),
            divergence: self
                .outcome
                .divergence
                .as_ref()
                .map(|d| format!("{:?}", d.kind)),
            witness_depth: self
                .outcome
                .divergence
                .as_ref()
                .map(|d| d.witness.depth() as u32),
            witness_original_depth: self
                .outcome
                .divergence
                .as_ref()
                .map(|d| d.original_depth as u32),
            fine_states: self.outcome.stats.fine_states,
            coarse_states: self.outcome.stats.coarse_states,
            fine_projections: self.outcome.stats.fine_projections,
            coarse_projections: self.outcome.stats.coarse_projections,
            edges_checked: self.outcome.stats.edges_checked,
            mem_budget: self
                .outcome
                .stats
                .fine_spill
                .budget_bytes
                .max(self.outcome.stats.coarse_spill.budget_bytes),
            fine_bytes_spilled: self.outcome.stats.fine_spill.bytes_spilled,
            coarse_bytes_spilled: self.outcome.stats.coarse_spill.bytes_spilled,
            time: self.outcome.stats.elapsed,
        }
    }
}

impl Verifier {
    /// Checks that the `coarse` preset simulates the `fine` preset under the
    /// granularity projection derived from their composition plans.
    ///
    /// This is the semantic verification of the paper's interaction-preservation claim
    /// (§3.2): it is what justifies trusting mixed-grained verification results
    /// obtained with the coarse composition.
    ///
    /// Returns [`VerifyError::NotARefinementPair`] when `coarse` does not select a
    /// strictly coarser granularity than `fine` for at least one module (note the
    /// argument order: the *fine* preset comes first), and [`VerifyError::PlanBuild`]
    /// when a preset's plan names a module/granularity combination the specification
    /// library does not provide.
    pub fn check_refinement(
        &self,
        fine: SpecPreset,
        coarse: SpecPreset,
        options: &RefineOptions,
    ) -> Result<RefinementRun, VerifyError> {
        self.check_refinement_plans(&fine.plan(), &coarse.plan(), options)
    }

    /// Checks refinement between two arbitrary composition plans.
    ///
    /// Returns [`VerifyError::NotARefinementPair`] when the plans do not form a
    /// refinement pair (identical granularities everywhere, or the `coarse` plan does
    /// not abstract the `fine` plan), and [`VerifyError::PlanBuild`] when a plan that
    /// *does* form a refinement pair fails to build — a set-up error reported with the
    /// underlying [`remix_spec::SpecError`] instead of the panic earlier versions
    /// raised.
    pub fn check_refinement_plans(
        &self,
        fine_plan: &CompositionPlan,
        coarse_plan: &CompositionPlan,
        options: &RefineOptions,
    ) -> Result<RefinementRun, VerifyError> {
        let projection =
            projection_between(fine_plan, coarse_plan, &self.config).ok_or_else(|| {
                VerifyError::NotARefinementPair {
                    fine: fine_plan.name.clone(),
                    coarse: coarse_plan.name.clone(),
                }
            })?;
        let fine = remix_zab::build_from_plan(fine_plan, &self.config).map_err(|source| {
            VerifyError::PlanBuild {
                plan: fine_plan.name.clone(),
                source,
            }
        })?;
        let coarse = remix_zab::build_from_plan(coarse_plan, &self.config).map_err(|source| {
            VerifyError::PlanBuild {
                plan: coarse_plan.name.clone(),
                source,
            }
        })?;
        let outcome = check_refinement(&fine, &coarse, &projection, options);
        Ok(RefinementRun {
            outcome,
            config: self.config,
        })
    }
}

/// Keeps only the named invariants of a specification (used to attribute a run to one
/// bug in the Table 4 harness).
fn restrict_invariants(mut spec: Spec<ZabState>, ids: &[&'static str]) -> Spec<ZabState> {
    let kept: Vec<Invariant<ZabState>> = spec
        .invariants
        .into_iter()
        .filter(|inv| ids.contains(&inv.id))
        .collect();
    spec.invariants = kept;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_zab::CodeVersion;

    #[test]
    fn swapped_refinement_presets_report_an_error_instead_of_panicking() {
        let verifier = Verifier::new(ClusterConfig::small(CodeVersion::FinalFix));
        // Argument order swapped: the "coarse" side is strictly finer than the "fine"
        // side, so no projection exists between the plans.
        let err = verifier
            .check_refinement(
                SpecPreset::MSpec1,
                SpecPreset::SysSpec,
                &RefineOptions::default(),
            )
            .expect_err("swapped presets are not a refinement pair");
        match &err {
            VerifyError::NotARefinementPair { fine, coarse } => {
                assert_eq!(fine, SpecPreset::MSpec1.plan().name.as_str());
                assert_eq!(coarse, SpecPreset::SysSpec.plan().name.as_str());
            }
            other => panic!("unexpected error: {other:?}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains("refinement pair"), "{rendered}");
    }

    #[test]
    fn analysis_gate_rejects_underdeclared_footprints() {
        let config = ClusterConfig::small(CodeVersion::FinalFix).with_transactions(1);
        let verifier = Verifier::new(config);
        let corpus = CorpusOptions {
            max_states: 1_500,
            max_depth: 64,
        };

        // The honest workspace passes the gate (and a tiny bounded check), whichever
        // store the checker then runs on.
        for store in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let composed = Composer::new(config)
                .compose_preset(SpecPreset::MSpec3)
                .expect("preset composes");
            let run = verifier.verify_spec_gated(
                composed.spec,
                &VerifierOptions::default()
                    .with_store_mode(store)
                    .with_time_budget(Duration::from_secs(10))
                    .with_max_states(500),
                corpus,
            );
            let run = run.unwrap_or_else(|e| panic!("honest spec must pass the gate: {e}"));
            assert_eq!(run.outcome.stats.distinct_states, 500, "{store}");
        }

        // The seeded NodeRestart under-declaration is refused before checking.
        let mut seeded = Composer::new(config)
            .compose_preset(SpecPreset::MSpec3)
            .expect("preset composes")
            .spec;
        remix_zab::underdeclare_node_restart(&mut seeded);
        let err = verifier
            .verify_spec_gated(seeded, &VerifierOptions::default(), corpus)
            .expect_err("under-declared footprint must be refused");
        match &err {
            VerifyError::UnsoundFootprint { findings, .. } => {
                assert!(
                    findings.iter().any(|f| f.contains("NodeRestart")),
                    "findings name the action: {findings:?}"
                );
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.to_string().contains("unsound effect declaration"));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "expensive model-checking run; use --release"
    )]
    fn fixed_version_passes_mspec3_within_bounds() {
        let config = ClusterConfig::small(CodeVersion::FinalFix).with_transactions(1);
        let verifier = Verifier::new(config);
        let run = verifier.verify_preset(
            SpecPreset::MSpec3,
            &VerifierOptions::default()
                .with_time_budget(Duration::from_secs(30))
                .with_max_states(60_000),
        );
        assert!(run.passed(), "final fix should pass: {}", run.outcome);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "expensive model-checking run; use --release"
    )]
    fn buggy_version_fails_mspec3_and_invariant_filter_works() {
        let config = ClusterConfig::small(CodeVersion::V391);
        let verifier = Verifier::new(config);
        let run = verifier.verify_preset(
            SpecPreset::MSpec3,
            &VerifierOptions::default().with_time_budget(Duration::from_secs(60)),
        );
        assert!(!run.passed());
        // Restricting to I-12 must attribute the run to the bad-acknowledgement bug.
        let run = verifier.verify_preset(
            SpecPreset::MSpec3,
            &VerifierOptions::default()
                .targeting("I-12")
                .with_time_budget(Duration::from_secs(60)),
        );
        assert_eq!(run.first_violated_invariant(), Some("I-12"));
    }
}

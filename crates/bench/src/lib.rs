//! The reproduction harness: one function per table / figure of the evaluation section.
//!
//! Each `table*` function runs the corresponding experiment at laptop scale and returns
//! the structured rows (see `remix-core::report`); the `reproduce` binary prints them in
//! the paper's layout.  The artefact benches in `benches/` write `explore_comparison`'s
//! and `refine_matrix`'s rows (plus the two soundness artefacts) and assert them;
//! timing is the `remix-bench` binary's alone (`src/bin/remix-bench/`).

use std::time::Duration;

use remix_checker::{
    explore, shrink_violation, CheckMode, ExploreOptions, RefineOptions, SpillConfig,
};
use remix_core::{
    BugReport, ComposedSpec, Composer, ConformanceChecker, ConformanceOptions, EfficiencyRow,
    ExploreRow, FixVerificationRow, RefineRow, Verifier, VerifierOptions,
};
use remix_spec::{CompositionPlan, Granularity};
use remix_zab::invariants::CODE_INVARIANT_INSTANCES;
use remix_zab::modules::{BROADCAST, DISCOVERY, ELECTION, PHASES, SYNCHRONIZATION};
use remix_zab::protocol::{protocol_spec, ProtocolVariant};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, BUG_LINEAGE};

/// Scaled-down default time budget per model-checking run.
pub const RUN_BUDGET: Duration = Duration::from_secs(60);

/// Table 1: the composition matrix of the mixed-grained specifications.
pub fn table1(config: &ClusterConfig) -> Vec<(String, Vec<(String, Granularity)>)> {
    SpecPreset::all()
        .iter()
        .map(|p| {
            let spec = p.build(config);
            let row = PHASES
                .iter()
                .map(|m| {
                    (
                        m.name().to_owned(),
                        spec.module_granularity(*m).expect("phase present"),
                    )
                })
                .collect();
            (p.name().to_owned(), row)
        })
        .collect()
}

/// Table 2: the invariants of the specification library (id, name, source, instances).
pub fn table2() -> Vec<(String, String, String, usize)> {
    remix_zab::invariants::all_invariants()
        .iter()
        .map(|inv| {
            let instances = CODE_INVARIANT_INSTANCES
                .iter()
                .find(|(id, _)| *id == inv.id)
                .map(|(_, n)| *n)
                .unwrap_or(1);
            (
                inv.id.to_owned(),
                inv.name.to_owned(),
                inv.source.to_string(),
                instances,
            )
        })
        .collect()
}

/// One row of Table 3: per-specification size metrics.
#[derive(Debug, Clone)]
pub struct EffortRow {
    /// The specification.
    pub spec: String,
    /// Number of distinct variables mentioned by the composed actions.
    pub variables: usize,
    /// Number of actions in the composed next-state relation.
    pub actions: usize,
    /// Number of instrumentation pointcuts (code-level events the action mapping
    /// schedules for this composition).
    pub instrumentation_points: usize,
}

/// Table 3: the effort metrics of the multi-grained specifications.
pub fn table3(config: &ClusterConfig) -> Vec<EffortRow> {
    let composer = Composer::new(*config);
    let mapping = remix_core::default_mapping();
    [
        SpecPreset::SysSpec,
        SpecPreset::MSpec1,
        SpecPreset::MSpec2,
        SpecPreset::MSpec3,
    ]
    .iter()
    .map(|p| {
        let ComposedSpec { spec, .. } = composer.compose_preset(*p).expect("preset composes");
        let instrumentation_points: usize = spec
            .actions()
            .map(|a| {
                mapping
                    .translate(&format!("{}(0, 1)", a.name))
                    .map(|events| events.len())
                    .unwrap_or(0)
            })
            .sum();
        EffortRow {
            spec: p.name().to_owned(),
            variables: spec.variable_count(),
            actions: spec.action_count(),
            instrumentation_points,
        }
    })
    .collect()
}

/// The six bugs of Table 4 with the specification and invariant that detect them, plus
/// the code version used for the run (see EXPERIMENTS.md for the ZK-4646 ablation note).
pub fn table4_bugs() -> Vec<(
    &'static str,
    &'static str,
    SpecPreset,
    &'static str,
    CodeVersion,
    bool,
)> {
    vec![
        (
            "ZK-3023",
            "Data sync failure",
            SpecPreset::MSpec3,
            "I-11",
            CodeVersion::V391,
            true,
        ),
        (
            "ZK-4394",
            "Data sync failure",
            SpecPreset::MSpec1,
            "I-14",
            CodeVersion::V391,
            false,
        ),
        (
            "ZK-4643",
            "Data loss",
            SpecPreset::MSpec2,
            "I-8",
            CodeVersion::V391,
            true,
        ),
        (
            "ZK-4646",
            "Data loss",
            SpecPreset::MSpec3,
            "I-8",
            CodeVersion::Pr1848,
            true,
        ),
        (
            "ZK-4685",
            "Data sync failure",
            SpecPreset::MSpec3,
            "I-12",
            CodeVersion::V391,
            true,
        ),
        (
            "ZK-4712",
            "Data inconsistency",
            SpecPreset::MSpec3,
            "I-10",
            CodeVersion::V391,
            true,
        ),
    ]
}

/// Table 4: bug detection.  Each bug is checked with its most efficient specification,
/// targeting the invariant the paper attributes to it.
pub fn table4(budget: Duration) -> Vec<BugReport> {
    table4_bugs()
        .into_iter()
        .map(|(bug, impact, preset, invariant, version, masked)| {
            let mut config = ClusterConfig::table4(version);
            if !masked {
                config = config.unmask_zk4394();
            }
            // ZK-4643 and ZK-4646 need a second election round after the interrupted
            // handshake, hence a larger crash budget.
            if bug == "ZK-4643" || bug == "ZK-4646" {
                config = config.with_crashes(2);
            }
            let verifier = Verifier::new(config);
            let run = verifier.verify_preset(
                preset,
                &VerifierOptions::default()
                    .targeting(invariant)
                    .with_time_budget(budget),
            );
            let detected = !run.passed();
            BugReport {
                bug: bug.to_owned(),
                impact: impact.to_owned(),
                spec: format!("{}{}", preset.name(), if !masked { "*" } else { "" }),
                time: run.outcome.stats.elapsed,
                depth: run
                    .outcome
                    .first_violation()
                    .map(|v| v.depth)
                    .unwrap_or(run.outcome.stats.max_depth),
                states: run.outcome.stats.distinct_states,
                invariant: invariant.to_owned(),
                detected,
            }
        })
        .collect()
}

/// Table 5: verification efficiency of the five specifications on v3.7.0, in
/// stop-at-first-violation or run-to-completion mode.
pub fn table5(completion: bool, budget: Duration) -> Vec<EfficiencyRow> {
    let config = ClusterConfig::table5(CodeVersion::V370);
    let verifier = Verifier::new(config);
    SpecPreset::all()
        .iter()
        .map(|preset| {
            let options = VerifierOptions {
                mode: if completion {
                    CheckMode::Completion {
                        violation_limit: 10_000,
                    }
                } else {
                    CheckMode::FirstViolation
                },
                time_budget: budget,
                ..Default::default()
            };
            let run = verifier.verify_preset(*preset, &options);
            EfficiencyRow {
                spec: preset.name().to_owned(),
                time: run.outcome.stats.elapsed,
                teardown: run.outcome.stats.teardown,
                depth: run
                    .outcome
                    .first_violation()
                    .map(|v| v.depth)
                    .unwrap_or(run.outcome.stats.max_depth),
                states: run.outcome.stats.distinct_states,
                violations: run.outcome.violation_count,
                violated_invariants: run
                    .outcome
                    .violated_invariants()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                completed: !matches!(
                    run.outcome.stop_reason,
                    remix_checker::StopReason::TimeBudget
                ),
            }
        })
        .collect()
}

/// Table 6: verifying the bug-fix pull requests on mSpec-3+ (mSpec-3 with the ZK-4712 fix).
pub fn table6(budget: Duration) -> Vec<FixVerificationRow> {
    [
        CodeVersion::Pr1848,
        CodeVersion::Pr1930,
        CodeVersion::Pr1993,
        CodeVersion::Pr2111,
    ]
    .iter()
    .map(|version| {
        let config = ClusterConfig::table4(*version).with_crashes(2);
        let verifier = Verifier::new(config);
        let run = verifier.verify_preset(
            SpecPreset::MSpec3,
            &VerifierOptions::default().with_time_budget(budget),
        );
        FixVerificationRow {
            pull_request: format!("{version:?}").replace("Pr", "PR-"),
            spec: "mSpec-3+".to_owned(),
            time: run.outcome.stats.elapsed,
            depth: run
                .outcome
                .first_violation()
                .map(|v| v.depth)
                .unwrap_or(run.outcome.stats.max_depth),
            states: run.outcome.stats.distinct_states,
            invariant: run.first_violated_invariant().map(|s| s.to_owned()),
        }
    })
    .collect()
}

/// Figure 8: the bug lineage plus a check that the final fix closes it.
pub fn figure8(budget: Duration) -> Vec<(String, String, bool)> {
    let mut out: Vec<(String, String, bool)> = BUG_LINEAGE
        .iter()
        .map(|e| (e.cause.to_owned(), e.effect.to_owned(), e.effect_fix_merged))
        .collect();
    // Verify the final fix closes the lineage: mSpec-3 on the final fix passes.
    let config = ClusterConfig::small(CodeVersion::FinalFix).with_transactions(1);
    let verifier = Verifier::new(config);
    let run = verifier.verify_preset(
        SpecPreset::MSpec3,
        &VerifierOptions::default()
            .with_time_budget(budget)
            .with_max_states(200_000),
    );
    out.push((
        "final fix".to_owned(),
        "all modelled bugs".to_owned(),
        run.passed(),
    ));
    out
}

/// §5.4: the original and improved protocol specifications pass the ten protocol-level
/// invariants on a small configuration.
pub fn improved_protocol(budget: Duration) -> Vec<(String, bool, usize)> {
    let config = ClusterConfig {
        max_transactions: 1,
        max_crashes: 1,
        max_epoch: 2,
        ..ClusterConfig::small(CodeVersion::FinalFix)
    };
    [ProtocolVariant::Original, ProtocolVariant::Improved]
        .iter()
        .map(|variant| {
            let spec = protocol_spec(*variant, &config);
            let verifier = Verifier::new(config);
            let run = verifier.verify_spec(
                spec,
                &VerifierOptions::default()
                    .with_time_budget(budget)
                    .with_max_states(400_000),
            );
            (
                run.spec_name.clone(),
                run.passed(),
                run.outcome.stats.distinct_states,
            )
        })
        .collect()
}

/// Guided-vs-uniform schedule exploration (the sampling loop of §3.5.2 with and
/// without coverage bias) on the deep data-inconsistency bug of Table 4 (ZK-4712's
/// I-10 on v3.9.1, plus the ZK-4643 data-loss invariant I-8): for each seed, both
/// policies get the same trace/time budget and the rows record how many traces each
/// needed before the first violation, how much of the state space it covered, and how
/// far delta debugging shrank the counterexample.
///
/// Uniform sampling spends its budget re-walking the hot election/discovery region and
/// only stumbles into these violations late, if at all; the coverage-guided policy
/// biases toward rarely-fingerprinted successors and rarely-taken action definitions
/// (per-dimension relative weights — see `Guidance::CoverageGuided`) and reaches them
/// on earlier trace indices — the asymmetry `BENCH_explore.json` exists to document.
pub fn explore_comparison(
    traces: usize,
    max_depth: u32,
    budget: Duration,
    seeds: &[u64],
) -> Vec<ExploreRow> {
    let config = ClusterConfig::explore(CodeVersion::V391);
    let mut spec = SpecPreset::MSpec3.build(&config);
    // Restrict to the deep bugs: the shallow invariants (I-11/I-14) are found within a
    // handful of traces by either policy and would drown out the comparison.
    spec.invariants.retain(|i| i.id == "I-8" || i.id == "I-10");
    let mut rows = Vec::new();
    for &seed in seeds {
        for (mode, base) in [
            ("uniform", ExploreOptions::default().uniform()),
            ("coverage-guided", ExploreOptions::default().guided(24)),
        ] {
            let options = ExploreOptions {
                traces,
                max_depth,
                seed,
                time_budget: Some(budget),
                ..base
            };
            let outcome = explore(&spec, &options);
            let (original_depth, shrunk_depth) = match outcome.first_violation() {
                Some(v) => {
                    let shrunk = shrink_violation(&spec, &v.trace, v.invariant);
                    (
                        Some(shrunk.original_depth as u32),
                        Some(shrunk.shrunk_depth() as u32),
                    )
                }
                None => (None, None),
            };
            rows.push(ExploreRow {
                mode: mode.to_owned(),
                spec: outcome.spec_name.clone(),
                seed,
                traces: outcome.stats.traces,
                steps: outcome.stats.steps,
                violation_found: !outcome.passed(),
                time_to_violation: outcome.stats.time_to_first_violation,
                first_violation_trace: outcome.stats.first_violation_trace,
                original_depth,
                shrunk_depth,
                distinct_prefixes: outcome.stats.coverage.distinct_prefixes,
                max_prefix_hits: outcome.stats.coverage.max_prefix_hits,
                distinct_actions: outcome.stats.coverage.distinct_actions,
            });
        }
    }
    rows
}

/// The refinement matrix (the `BENCH_refine.json` artefact): for each refinement pair
/// — the Election/Discovery coarsening (mSpec-1 over SysSpec), the fine-grained
/// atomicity refinement of Synchronization (SysSpec over a FineAtomic plan), and the
/// all-coarse-election pair (mSpec-1 over mSpec-2) — and each ensemble size, check
/// that the coarse composition simulates the fine one and record per-side state
/// counts, spill activity and wall times.
///
/// The three-server rows and the mSpec-2 ⊑ mSpec-1 rows explore both sides to
/// exhaustion (a conclusive verdict — both presets coarsen election, so the FLE
/// interleaving blowup that makes raw five-server exploration infeasible never
/// happens).  The five-server rows of the two baseline-election pairs are bounded by
/// `large_ensemble_state_cap` states per side: they are honest throughput probes whose
/// verdict is `inconclusive`, never a definite claim.  When
/// `large_ensemble_mem_budget` is set, those capped rows run their discovered-state
/// sets under that byte budget, spilling sorted fingerprint runs to disk — the
/// out-of-core demonstration row of the artefact (see the spill columns of
/// [`RefineRow`]).
pub fn refine_matrix(
    budget: Duration,
    workers: usize,
    large_ensemble_state_cap: usize,
    large_ensemble_mem_budget: Option<u64>,
) -> Vec<RefineRow> {
    let fine_atomic_plan = CompositionPlan::new("fSpec-atom")
        .with(ELECTION, Granularity::Baseline)
        .with(DISCOVERY, Granularity::Baseline)
        .with(SYNCHRONIZATION, Granularity::FineAtomic)
        .with(BROADCAST, Granularity::Baseline);
    let mut rows = Vec::new();
    for servers in [3usize, 5] {
        let config = ClusterConfig {
            num_servers: servers,
            max_transactions: 1,
            max_crashes: 0,
            ..ClusterConfig::small(CodeVersion::V391)
        };
        let verifier = Verifier::new(config);
        let exhaustive = RefineOptions::default()
            .with_workers(workers)
            .with_time_budget(budget);
        let mut capped = exhaustive.clone();
        if servers > 3 {
            capped = capped.with_max_states(large_ensemble_state_cap);
            if let Some(bytes) = large_ensemble_mem_budget {
                capped = capped.with_spill(SpillConfig::in_ram().with_budget_bytes(bytes));
            }
        }
        rows.push(
            verifier
                .check_refinement(SpecPreset::SysSpec, SpecPreset::MSpec1, &capped)
                .expect("presets form a refinement pair")
                .row(),
        );
        rows.push(
            verifier
                .check_refinement_plans(&fine_atomic_plan, &SpecPreset::SysSpec.plan(), &capped)
                .expect("FineAtomic plan refines to the baseline plan")
                .row(),
        );
        // Both sides coarsen election, so this pair stays small at five servers —
        // the row that makes the five-server column of the matrix conclusive.
        rows.push(
            verifier
                .check_refinement(SpecPreset::MSpec2, SpecPreset::MSpec1, &exhaustive)
                .expect("presets form a refinement pair")
                .row(),
        );
    }
    rows
}

/// §4.1 / §3.4: conformance checking of the baseline and fine-grained specifications
/// against the v3.9.1 implementation.
pub fn conformance_summary() -> Vec<(String, usize, usize, usize)> {
    let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
    let checker = ConformanceChecker::new(config);
    [SpecPreset::MSpec1, SpecPreset::MSpec3]
        .iter()
        .map(|preset| {
            let spec = preset.build(&config);
            let report = checker.check(
                &spec,
                &ConformanceOptions {
                    traces: 16,
                    max_depth: 24,
                    ..Default::default()
                },
            );
            (
                preset.name().to_owned(),
                report.traces_checked,
                report.steps_replayed,
                report.discrepancies.len(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_and_table2_are_static_and_complete() {
        let config = ClusterConfig::small(CodeVersion::V391);
        let t1 = table1(&config);
        assert_eq!(t1.len(), 5);
        assert!(t1.iter().all(|(_, row)| row.len() == 4));
        let t2 = table2();
        assert_eq!(t2.len(), 14);
        assert_eq!(t2.iter().map(|(_, _, _, n)| n).sum::<usize>(), 10 + 11);
    }

    #[test]
    fn table3_shows_growing_detail() {
        let config = ClusterConfig::small(CodeVersion::V391);
        let rows = table3(&config);
        assert_eq!(rows.len(), 4);
        let sys = &rows[0];
        let m1 = &rows[1];
        let m3 = &rows[3];
        assert!(m1.actions < sys.actions, "coarsening removes actions");
        assert!(
            m3.actions > m1.actions,
            "fine-grained modelling adds actions"
        );
        assert!(m3.instrumentation_points >= m1.instrumentation_points);
    }

    #[test]
    fn explore_comparison_produces_paired_rows() {
        // A tiny budget: the point here is row shape and JSON validity, not whether the
        // deep bug is actually found (the bench target runs the real budgets).
        let rows = explore_comparison(4, 20, Duration::from_secs(5), &[1, 2]);
        assert_eq!(rows.len(), 4, "one row per (seed, mode) pair");
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].mode, "uniform");
            assert_eq!(pair[1].mode, "coverage-guided");
            assert_eq!(pair[0].seed, pair[1].seed);
        }
        for row in &rows {
            assert!(row.traces >= 1);
            assert!(row.distinct_prefixes > 0);
            if let (Some(original), Some(shrunk)) = (row.original_depth, row.shrunk_depth) {
                assert!(shrunk <= original);
            }
            assert!(row.to_json().contains("\"mode\""));
        }
    }

    #[test]
    fn refine_matrix_produces_one_row_per_pair_and_size() {
        // A tiny budget: the point is row shape and JSON validity; the bench target
        // runs the real budgets and conclusive three-server verdicts.
        let rows = refine_matrix(Duration::from_millis(500), 1, 500, Some(64 * 1024));
        assert_eq!(rows.len(), 6, "three pairs × two ensemble sizes");
        assert_eq!(rows[0].coarse, "mSpec-1");
        assert_eq!(rows[0].fine, "SysSpec");
        assert_eq!(rows[1].coarse, "SysSpec");
        assert_eq!(rows[1].fine, "fSpec-atom");
        assert_eq!(rows[2].coarse, "mSpec-1");
        assert_eq!(rows[2].fine, "mSpec-2");
        assert_eq!(rows[0].servers, 3);
        assert_eq!(rows[5].servers, 5);
        for row in &rows {
            let json = row.to_json();
            assert!(json.contains("\"verdict\""));
            assert!(
                !json.contains("\"refines\":"),
                "old boolean key resurfaced: {json}"
            );
            // The bug this PR removes: a definite verdict on a truncated run.
            if !row.conclusive {
                assert_eq!(row.verdict, "inconclusive", "{json}");
            }
            assert!(!row.projection.is_empty());
        }
        // The five-server capped rows carry the memory budget we passed in.
        assert_eq!(rows[3].mem_budget, 64 * 1024);
        assert_eq!(rows[4].mem_budget, 64 * 1024);
    }

    #[test]
    fn table4_bug_list_matches_the_paper() {
        let bugs = table4_bugs();
        assert_eq!(bugs.len(), 6);
        assert!(bugs.iter().any(|(b, ..)| *b == "ZK-4394"));
        // Every bug except ZK-4394 requires a fine-grained specification.
        for (bug, _, preset, ..) in &bugs {
            if *bug != "ZK-4394" {
                assert_ne!(
                    *preset,
                    SpecPreset::MSpec1,
                    "{bug} needs fine-grained modelling"
                );
            }
        }
    }
}

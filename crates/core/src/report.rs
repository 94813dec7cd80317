//! Report rows: the structured data behind the tables of the evaluation section.
//!
//! The benchmark harness (`remix-bench`) fills these rows and prints them in the same
//! layout as the paper (Tables 3-6); each row also serializes itself to a line of JSON
//! (via the [`crate::json`] helpers) so EXPERIMENTS.md and `BENCH_*.json` artefacts can
//! be regenerated mechanically.  Durations are serialized as integer milliseconds.

use std::time::Duration;

use crate::json::JsonObject;

/// One row of Table 4 (bug detection) or of the per-bug appendix.
#[derive(Debug, Clone)]
pub struct BugReport {
    /// The ZooKeeper issue, e.g. `"ZK-4643"`.
    pub bug: String,
    /// The impact reported by the paper (data loss, inconsistency, ...).
    pub impact: String,
    /// The most efficient specification that detects it.
    pub spec: String,
    /// Time to the first violation.
    pub time: Duration,
    /// Depth (transitions) of the counterexample.
    pub depth: u32,
    /// Distinct states explored when the violation was found.
    pub states: usize,
    /// The violated invariant.
    pub invariant: String,
    /// Whether the bug was detected at all within the budget.
    pub detected: bool,
}

impl BugReport {
    /// Serializes the row as one JSON object (durations in milliseconds).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("bug", &self.bug)
            .string("impact", &self.impact)
            .string("spec", &self.spec)
            .u128("time", self.time.as_millis())
            .u128("depth", self.depth.into())
            .u128("states", self.states as u128)
            .string("invariant", &self.invariant)
            .bool("detected", self.detected)
            .finish()
    }
}

/// One row of Table 5 (verification efficiency).
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// The specification (SysSpec, mSpec-1..4).
    pub spec: String,
    /// Wall-clock time of the run.
    pub time: Duration,
    /// The part of `time` spent freeing the state store after exploration stopped.
    pub teardown: Duration,
    /// Maximum depth reached.
    pub depth: u32,
    /// Distinct states explored.
    pub states: usize,
    /// Number of violations found (0 in first-violation mode when none).
    pub violations: usize,
    /// The violated invariants.
    pub violated_invariants: Vec<String>,
    /// Whether the run finished within the time budget.
    pub completed: bool,
}

impl EfficiencyRow {
    /// Serializes the row as one JSON object (durations in milliseconds).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("spec", &self.spec)
            .u128("time", self.time.as_millis())
            .u128("teardown", self.teardown.as_millis())
            .u128("depth", self.depth.into())
            .u128("states", self.states as u128)
            .u128("violations", self.violations as u128)
            .string_array("violated_invariants", &self.violated_invariants)
            .bool("completed", self.completed)
            .finish()
    }
}

/// One row of Table 6 (verifying bug-fix pull requests).
#[derive(Debug, Clone)]
pub struct FixVerificationRow {
    /// The pull request.
    pub pull_request: String,
    /// The base specification used (mSpec-3+).
    pub spec: String,
    /// Time to the first violation (or the full run when none).
    pub time: Duration,
    /// Depth of the counterexample.
    pub depth: u32,
    /// Distinct states explored.
    pub states: usize,
    /// The first violated invariant, if any.
    pub invariant: Option<String>,
}

impl FixVerificationRow {
    /// Serializes the row as one JSON object (durations in milliseconds).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("pull_request", &self.pull_request)
            .string("spec", &self.spec)
            .u128("time", self.time.as_millis())
            .u128("depth", self.depth.into())
            .u128("states", self.states as u128)
            .opt_string("invariant", self.invariant.as_deref())
            .finish()
    }
}

/// One row of the guided-vs-uniform exploration comparison (the `BENCH_explore.json`
/// artefact): how quickly one sampling policy of §3.5.2 reached a violation, how much
/// of the state space it covered, and how far the counterexample shrank.
#[derive(Debug, Clone)]
pub struct ExploreRow {
    /// The sampling policy (`"uniform"` or `"coverage-guided"`).
    pub mode: String,
    /// The explored specification.
    pub spec: String,
    /// The base sampling seed of the run (both policies are compared seed by seed).
    pub seed: u64,
    /// Traces sampled before the run stopped.
    pub traces: usize,
    /// Total transitions taken across all sampled traces.
    pub steps: u64,
    /// Whether any invariant violation was found within the budget.
    pub violation_found: bool,
    /// Wall-clock time to the first violation, when one was found.
    pub time_to_violation: Option<Duration>,
    /// Trace index of the first violation, when one was found (the budget metric the
    /// guided-vs-uniform comparison is about: lower = fewer wasted samples).
    pub first_violation_trace: Option<usize>,
    /// Transition count of the original counterexample, when one was found.
    pub original_depth: Option<u32>,
    /// Transition count after delta-debugging the counterexample
    /// (`remix-checker::shrink`), when one was found.
    pub shrunk_depth: Option<u32>,
    /// Distinct fingerprint prefixes visited (coverage breadth).
    pub distinct_prefixes: usize,
    /// Hit count of the hottest prefix (coverage skew; uniform sampling drives this far
    /// above the mean).
    pub max_prefix_hits: u64,
    /// Distinct action definitions taken.
    pub distinct_actions: usize,
}

impl ExploreRow {
    /// Serializes the row as one JSON object (durations in milliseconds).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("mode", &self.mode)
            .string("spec", &self.spec)
            .u128("seed", self.seed.into())
            .u128("traces", self.traces as u128)
            .u128("steps", self.steps.into())
            .bool("violation_found", self.violation_found)
            .opt_u128(
                "time_to_violation",
                self.time_to_violation.map(|d| d.as_millis()),
            )
            .opt_u128(
                "first_violation_trace",
                self.first_violation_trace.map(|t| t as u128),
            )
            .opt_u128("original_depth", self.original_depth.map(u128::from))
            .opt_u128("shrunk_depth", self.shrunk_depth.map(u128::from))
            .u128("distinct_prefixes", self.distinct_prefixes as u128)
            .u128("max_prefix_hits", self.max_prefix_hits.into())
            .u128("distinct_actions", self.distinct_actions as u128)
            .finish()
    }
}

/// One row of the refinement matrix (the `BENCH_refine.json` artefact): whether one
/// composition simulates another under a granularity projection, with the state counts
/// and wall time of the dual exploration.
#[derive(Debug, Clone)]
pub struct RefineRow {
    /// The fine (concrete) specification.
    pub fine: String,
    /// The coarse (abstract) specification.
    pub coarse: String,
    /// The projection the comparison ran under.
    pub projection: String,
    /// The check mode (`"simulation"` or `"trace-inclusion"`).
    pub mode: String,
    /// The modelled code version.
    pub version: String,
    /// Number of servers in the configuration.
    pub servers: usize,
    /// The three-valued verdict: `"refines"`, `"diverges"`, or `"inconclusive"`.
    /// A budget-truncated run is `"inconclusive"` — never a definite verdict, so no
    /// consumer can mistake a truncated row for a proof (the old `refines: true` +
    /// `conclusive: false` pairing).
    pub verdict: String,
    /// Whether the verdict is definite (both sides explored far enough to decide).
    /// `"refines"`/`"diverges"` imply `true`; `"inconclusive"` implies `false`.
    pub conclusive: bool,
    /// The divergence kind when one was found.
    pub divergence: Option<String>,
    /// Transition count of the shrunk divergence witness.
    pub witness_depth: Option<u32>,
    /// Transition count of the witness before shrinking.
    pub witness_original_depth: Option<u32>,
    /// Distinct concrete states explored on the fine side.
    pub fine_states: usize,
    /// Distinct concrete states explored on the coarse side.
    pub coarse_states: usize,
    /// Distinct stable projections on the fine side.
    pub fine_projections: usize,
    /// Distinct stable projections on the coarse side.
    pub coarse_projections: usize,
    /// Fine stabilization edges checked against the coarse quotient.
    pub edges_checked: usize,
    /// The checker's memory budget in bytes (0 when unbudgeted — everything in RAM).
    pub mem_budget: u64,
    /// Fingerprint bytes the fine side spilled to sorted on-disk runs.
    pub fine_bytes_spilled: u64,
    /// Fingerprint bytes the coarse side spilled to sorted on-disk runs.
    pub coarse_bytes_spilled: u64,
    /// Wall-clock time of the check.
    pub time: Duration,
}

impl RefineRow {
    /// Serializes the row as one JSON object (durations in milliseconds).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("fine", &self.fine)
            .string("coarse", &self.coarse)
            .string("projection", &self.projection)
            .string("mode", &self.mode)
            .string("version", &self.version)
            .u128("servers", self.servers as u128)
            .string("verdict", &self.verdict)
            .bool("conclusive", self.conclusive)
            .opt_string("divergence", self.divergence.as_deref())
            .opt_u128("witness_depth", self.witness_depth.map(u128::from))
            .opt_u128(
                "witness_original_depth",
                self.witness_original_depth.map(u128::from),
            )
            .u128("fine_states", self.fine_states as u128)
            .u128("coarse_states", self.coarse_states as u128)
            .u128("fine_projections", self.fine_projections as u128)
            .u128("coarse_projections", self.coarse_projections as u128)
            .u128("edges_checked", self.edges_checked as u128)
            .u128("mem_budget", self.mem_budget.into())
            .u128("fine_bytes_spilled", self.fine_bytes_spilled.into())
            .u128("coarse_bytes_spilled", self.coarse_bytes_spilled.into())
            .u128("time", self.time.as_millis())
            .finish()
    }
}

/// One row of the spec-soundness analysis artefact (`BENCH_analysis.json`): one
/// finding of one analysis tier, plus the spec it was found in and whether the
/// finding comes from the deliberately seeded regression (the bench that writes it
/// fails on any soundness-class row with `seeded: false`).
#[derive(Debug, Clone)]
pub struct AnalysisRow {
    /// The analyzed specification (or `"workspace"` for source-lint rows).
    pub spec: String,
    /// The analysis tier (`effect_audit`, `commute_oracle`, `spec_lint`).
    pub tier: String,
    /// The severity class (`soundness`, `precision`, `convention`).
    pub class: String,
    /// The action name (semantic tiers) or lint rule id (spec lint).
    pub action: String,
    /// The offending instance label or source location.
    pub location: String,
    /// The semantic field whose write escaped the declaration, when applicable.
    pub field_path: String,
    /// The undeclared / unused effect bits in display form, when applicable.
    pub effect_bits: String,
    /// Human-readable explanation.
    pub detail: String,
    /// Estimated pruning lost to an over-wide declaration (precision rows only).
    pub estimated_lost_pruning: u64,
    /// Whether the finding comes from the seeded under-declaration regression.
    pub seeded: bool,
}

impl AnalysisRow {
    /// Builds a row from an analyzer finding.
    pub fn from_finding(spec: &str, finding: &remix_analyze::Finding, seeded: bool) -> Self {
        AnalysisRow {
            spec: spec.to_owned(),
            tier: finding.tier.as_str().to_owned(),
            class: finding.class.as_str().to_owned(),
            action: finding.action.clone(),
            location: finding.location.clone(),
            field_path: finding.field_path.clone(),
            effect_bits: finding.effect_bits.clone(),
            detail: finding.detail.clone(),
            estimated_lost_pruning: finding.estimated_lost_pruning,
            seeded,
        }
    }

    /// Serializes the row as one JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("spec", &self.spec)
            .string("tier", &self.tier)
            .string("class", &self.class)
            .string("action", &self.action)
            .string("location", &self.location)
            .string("field_path", &self.field_path)
            .string("effect_bits", &self.effect_bits)
            .string("detail", &self.detail)
            .u128("estimated_lost_pruning", self.estimated_lost_pruning.into())
            .bool("seeded", self.seeded)
            .finish()
    }
}

/// One row of the concurrency-soundness artefact (`BENCH_concurrency.json`): one
/// finding of the concurrency tiers (`concurrency_lint`, `lock_order`,
/// `schedule_fuzz`), plus the workload it was found on and whether it comes from a
/// deliberately seeded regression.  The bench that writes it fails on any unseeded
/// finding and *requires* the seeded rank-inversion and seeded
/// determinism-divergence rows, so the pass keeps catching the incident classes it
/// was built for.
#[derive(Debug, Clone)]
pub struct ConcurrencyRow {
    /// The audited workload (an engine preset name, or `"workspace"` for lint rows).
    pub workload: String,
    /// The analysis tier (`concurrency_lint`, `lock_order`, `schedule_fuzz`).
    pub tier: String,
    /// The severity class (`soundness`, `convention`).
    pub class: String,
    /// The lint rule id (`raw-sync-import`, …) or finding kind (`rank-inversion`,
    /// `order-cycle`, `determinism-divergence`).
    pub action: String,
    /// The offending source location, lock-site pair, or oracle cell (which carries
    /// the replayable `workers=… seed=…` coordinates for divergence rows).
    pub location: String,
    /// Human-readable explanation, including witness stacks / replay recipe.
    pub detail: String,
    /// Whether the finding comes from a deliberately seeded regression.
    pub seeded: bool,
}

impl ConcurrencyRow {
    /// Builds a row from an analyzer finding.
    pub fn from_finding(workload: &str, finding: &remix_analyze::Finding, seeded: bool) -> Self {
        ConcurrencyRow {
            workload: workload.to_owned(),
            tier: finding.tier.as_str().to_owned(),
            class: finding.class.as_str().to_owned(),
            action: finding.action.clone(),
            location: finding.location.clone(),
            detail: finding.detail.clone(),
            seeded,
        }
    }

    /// Serializes the row as one JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("workload", &self.workload)
            .string("tier", &self.tier)
            .string("class", &self.class)
            .string("action", &self.action)
            .string("location", &self.location)
            .string("detail", &self.detail)
            .bool("seeded", self.seeded)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_rows_serialize_to_json() {
        let finding = remix_analyze::Finding {
            tier: remix_analyze::Tier::LockOrder,
            class: remix_analyze::FindingClass::Soundness,
            action: "rank-inversion".to_owned(),
            location: "seeded.outer -> seeded.inner".to_owned(),
            field_path: String::new(),
            effect_bits: String::new(),
            detail: "lock acquired against the declared hierarchy".to_owned(),
            estimated_lost_pruning: 0,
        };
        let row = ConcurrencyRow::from_finding("seeded-inversion", &finding, true);
        let json = row.to_json();
        assert!(json.contains("\"workload\":\"seeded-inversion\""));
        assert!(json.contains("\"tier\":\"lock_order\""));
        assert!(json.contains("\"class\":\"soundness\""));
        assert!(json.contains("\"action\":\"rank-inversion\""));
        assert!(json.contains("\"seeded\":true"));
    }

    #[test]
    fn analysis_rows_serialize_to_json() {
        let finding = remix_analyze::Finding {
            tier: remix_analyze::Tier::EffectAudit,
            class: remix_analyze::FindingClass::Soundness,
            action: "NodeRestart".to_owned(),
            location: "NodeRestart(1)".to_owned(),
            field_path: "link[0][1]".to_owned(),
            effect_bits: "channel[0->1]".to_owned(),
            detail: "observed write outside declared footprint".to_owned(),
            estimated_lost_pruning: 0,
        };
        let row = AnalysisRow::from_finding("mSpec-3", &finding, true);
        let json = row.to_json();
        assert!(json.contains("\"spec\":\"mSpec-3\""));
        assert!(json.contains("\"tier\":\"effect_audit\""));
        assert!(json.contains("\"class\":\"soundness\""));
        assert!(json.contains("\"field_path\":\"link[0][1]\""));
        assert!(json.contains("\"effect_bits\":\"channel[0->1]\""));
        assert!(json.contains("\"seeded\":true"));
    }

    #[test]
    fn refine_rows_serialize_to_json() {
        let row = RefineRow {
            fine: "SysSpec".to_owned(),
            coarse: "mSpec-1".to_owned(),
            projection: "Coarse⊑Baseline(Election+Discovery)".to_owned(),
            mode: "simulation".to_owned(),
            version: "ZooKeeper v3.9.1".to_owned(),
            servers: 3,
            verdict: "refines".to_owned(),
            conclusive: true,
            divergence: None,
            witness_depth: None,
            witness_original_depth: None,
            fine_states: 65_653,
            coarse_states: 181,
            fine_projections: 181,
            coarse_projections: 181,
            edges_checked: 704,
            mem_budget: 0,
            fine_bytes_spilled: 0,
            coarse_bytes_spilled: 0,
            time: Duration::from_millis(5_400),
        };
        let json = row.to_json();
        assert!(json.contains("\"verdict\":\"refines\""));
        assert!(json.contains("\"divergence\":null"));
        assert!(json.contains("\"time\":5400"));
        let diverging = RefineRow {
            verdict: "diverges".to_owned(),
            divergence: Some("MissingInCoarse".to_owned()),
            witness_depth: Some(12),
            witness_original_depth: Some(31),
            ..row.clone()
        };
        let json = diverging.to_json();
        assert!(json.contains("\"divergence\":\"MissingInCoarse\""));
        assert!(json.contains("\"witness_depth\":12"));

        // A truncated run: the verdict string itself says inconclusive, and the spill
        // columns surface the out-of-core activity.
        let truncated = RefineRow {
            verdict: "inconclusive".to_owned(),
            conclusive: false,
            mem_budget: 1 << 30,
            fine_bytes_spilled: 123_456,
            coarse_bytes_spilled: 0,
            ..row
        };
        let json = truncated.to_json();
        assert!(json.contains("\"verdict\":\"inconclusive\""));
        assert!(
            !json.contains("\"refines\""),
            "no boolean refines field can pair a definite verdict with conclusive:false"
        );
        assert!(json.contains("\"mem_budget\":1073741824"));
        assert!(json.contains("\"fine_bytes_spilled\":123456"));
    }

    #[test]
    fn explore_rows_serialize_to_json() {
        let row = ExploreRow {
            mode: "coverage-guided".to_owned(),
            spec: "mSpec-3".to_owned(),
            seed: 7,
            traces: 37,
            steps: 1480,
            violation_found: true,
            time_to_violation: Some(Duration::from_millis(250)),
            first_violation_trace: Some(36),
            original_depth: Some(40),
            shrunk_depth: Some(11),
            distinct_prefixes: 512,
            max_prefix_hits: 99,
            distinct_actions: 12,
        };
        let json = row.to_json();
        assert!(json.contains("\"mode\":\"coverage-guided\""));
        assert!(json.contains("\"time_to_violation\":250"));
        assert!(json.contains("\"shrunk_depth\":11"));
        let none = ExploreRow {
            violation_found: false,
            time_to_violation: None,
            first_violation_trace: None,
            original_depth: None,
            shrunk_depth: None,
            ..row
        };
        assert!(none.to_json().contains("\"time_to_violation\":null"));
    }

    #[test]
    fn rows_serialize_to_json() {
        let row = BugReport {
            bug: "ZK-4643".to_owned(),
            impact: "Data loss".to_owned(),
            spec: "mSpec-2".to_owned(),
            time: Duration::from_millis(1700),
            depth: 21,
            states: 208_018,
            invariant: "I-8".to_owned(),
            detected: true,
        };
        let json = row.to_json();
        assert!(json.contains("\"ZK-4643\""));
        assert!(json.contains("\"time\":1700"));

        let eff = EfficiencyRow {
            spec: "mSpec-3".to_owned(),
            time: Duration::from_secs(11),
            teardown: Duration::from_millis(700),
            depth: 13,
            states: 77_179,
            violations: 1,
            violated_invariants: vec!["I-10".to_owned()],
            completed: true,
        };
        assert!(eff.to_json().contains("I-10"));

        let fix = FixVerificationRow {
            pull_request: "PR-1848".to_owned(),
            spec: "mSpec-3+".to_owned(),
            time: Duration::from_secs(274),
            depth: 21,
            states: 8_166_775,
            invariant: Some("I-8".to_owned()),
        };
        assert!(fix.to_json().contains("PR-1848"));
        let none = FixVerificationRow {
            invariant: None,
            ..fix
        };
        assert!(none.to_json().contains("\"invariant\":null"));
    }
}

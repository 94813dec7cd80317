//! The finding model shared by all three analysis tiers.
//!
//! Every tier reports the same record shape so reports, the `Verifier` gate and the
//! `BENCH_analysis.json` bench's row checks can treat findings uniformly.  The severity
//! split matters more than the tier:
//!
//! * **Soundness** findings mean a declared [`Effect`](remix_spec::Effect) is *too
//!   narrow* (an observed write outside the declaration, a non-commuting pair declared
//!   independent, or a label declaring two different footprints).  Sleep-set POR,
//!   the one reduction built on that declaration, may then silently drop states, the
//!   NodeRestart failure mode of PR 7.  CI fails hard on these.
//! * **Precision** findings mean a declaration is *too wide* (declared-but-never-
//!   observed write bits).  Nothing is unsound, but pruning opportunities are lost;
//!   the finding estimates how many observed label pairs would become independent
//!   under the tight footprint.
//! * **Convention** findings come from the source lint (`remix-lint`): workspace
//!   idioms whose violation has historically preceded soundness bugs (unannotated
//!   instances, fault actions without link bits, guards not shared with step
//!   functions, panics inside action closures).

use std::fmt;

/// Which analysis pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Dynamic effect audit: observed field-level writes vs declared footprints.
    EffectAudit,
    /// Commute / never-disable diamond oracle over declared-independent pairs.
    CommuteOracle,
    /// Source-level workspace convention lint.
    SpecLint,
    /// Source-level concurrency lint (raw sync imports, unjustified orderings,
    /// locks inside successor callbacks, scattered poison handling).
    ConcurrencyLint,
    /// Schedule-perturbation determinism oracle: seeded divergence between runs
    /// that must agree.
    ScheduleFuzz,
}

impl Tier {
    /// Stable lowercase identifier used in JSON artefacts.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::EffectAudit => "effect_audit",
            Tier::CommuteOracle => "commute_oracle",
            Tier::SpecLint => "spec_lint",
            Tier::ConcurrencyLint => "concurrency_lint",
            Tier::ScheduleFuzz => "schedule_fuzz",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Severity class of a finding (see the module documentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingClass {
    /// A declaration is too narrow: reductions relying on it are unsound.
    Soundness,
    /// A declaration is too wide: sound, but pruning power is lost.
    Precision,
    /// A workspace source convention is violated.
    Convention,
}

impl FindingClass {
    /// Stable lowercase identifier used in JSON artefacts.
    pub fn as_str(self) -> &'static str {
        match self {
            FindingClass::Soundness => "soundness",
            FindingClass::Precision => "precision",
            FindingClass::Convention => "convention",
        }
    }
}

impl fmt::Display for FindingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The pass that produced the finding.
    pub tier: Tier,
    /// Severity class.
    pub class: FindingClass,
    /// The action name (effect audit / commute oracle) or lint rule id (spec lint).
    pub action: String,
    /// The offending instance label (e.g. `NodeRestart(1)`) or source location
    /// (`crates/zab/src/actions/faults.rs:61`).
    pub location: String,
    /// The semantic field whose observed write escaped the declaration (effect audit),
    /// empty otherwise.
    pub field_path: String,
    /// The undeclared / unused effect write bits, rendered via
    /// [`EffectBit`](remix_spec::EffectBit)'s display form; empty when not applicable.
    pub effect_bits: String,
    /// Human-readable explanation.
    pub detail: String,
    /// For precision findings: how many observed label pairs would flip to independent
    /// under the tightened footprint (an estimate of lost pruning). Zero otherwise.
    pub estimated_lost_pruning: u64,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{}] {} at {}",
            self.tier, self.class, self.action, self.location
        )?;
        if !self.field_path.is_empty() {
            write!(f, " field {}", self.field_path)?;
        }
        if !self.effect_bits.is_empty() {
            write!(f, " bits {}", self.effect_bits)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The combined result of one or more analysis passes.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All findings, in pass order.
    pub findings: Vec<Finding>,
    /// Number of (state, instance) transition observations the effect audit diffed.
    pub audited_transitions: u64,
    /// Number of commute diamonds the oracle actually closed.
    pub diamonds_checked: u64,
    /// Number of corpus states the passes ran over.
    pub corpus_states: u64,
}

impl AnalysisReport {
    /// Merges another report's findings and counters into this one.
    pub fn merge(&mut self, other: AnalysisReport) {
        self.findings.extend(other.findings);
        self.audited_transitions += other.audited_transitions;
        self.diamonds_checked += other.diamonds_checked;
        self.corpus_states = self.corpus_states.max(other.corpus_states);
    }

    /// `true` when any finding is soundness-class.
    pub fn has_soundness(&self) -> bool {
        self.soundness_count() > 0
    }

    /// Number of soundness-class findings.
    pub fn soundness_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.class == FindingClass::Soundness)
            .count()
    }

    /// The soundness-class findings.
    pub fn soundness(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.class == FindingClass::Soundness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_counters() {
        let f = Finding {
            tier: Tier::EffectAudit,
            class: FindingClass::Soundness,
            action: "NodeRestart".into(),
            location: "NodeRestart(1)".into(),
            field_path: "link[0][1]".into(),
            effect_bits: "channel[0->1]".into(),
            detail: "observed write outside declared footprint".into(),
            estimated_lost_pruning: 0,
        };
        let s = f.to_string();
        assert!(s.contains("effect_audit/soundness"));
        assert!(s.contains("NodeRestart"));
        assert!(s.contains("link[0][1]"));
        let mut r = AnalysisReport::default();
        assert!(!r.has_soundness());
        r.findings.push(f);
        assert!(r.has_soundness());
        assert_eq!(r.soundness_count(), 1);
    }
}

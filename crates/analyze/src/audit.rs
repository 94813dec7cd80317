//! Tier 1 — the dynamic effect audit.
//!
//! For every transition observed over a bounded BFS corpus, the audit diffs the
//! parent's and child's per-field hashes (via [`StateFields`]) and checks each changed
//! field's effect domain against the write set the action *declared*:
//!
//! * a changed field whose domain bits are not covered by the declared writes is a
//!   **soundness** finding — the exact failure mode that made sleep-set POR drop
//!   states when `NodeRestart` forgot its channel row (PR 7);
//! * a label observed declaring two different footprints (the checker's footprint
//!   table is write-once per label) is also a **soundness** finding;
//! * declared write bits never observed to change anything over the whole corpus are
//!   **precision** findings, with an estimate of the pruning lost: the number of
//!   observed label pairs whose declared footprints conflict but whose *tightened*
//!   footprints (writes restricted to observed bits) would be independent.
//!
//! Instances declaring no effect, or a global effect, are skipped: both are always
//! sound (the checker treats them as dependent on everything).

use std::collections::{HashMap, HashSet};

use remix_checker::{corpus, CorpusOptions};
use remix_spec::effect::flags;
use remix_spec::{action_name, Effect, FieldInfo, Spec, SpecState, StateFields};

use crate::finding::{AnalysisReport, Finding, FindingClass, Tier};

/// Runs the effect audit over a freshly built bounded corpus of `spec`.
pub fn effect_audit<S>(spec: &Spec<S>, opts: CorpusOptions) -> AnalysisReport
where
    S: SpecState + StateFields,
{
    let states = corpus(spec, opts);
    effect_audit_corpus(spec, &states)
}

/// Runs the effect audit over an already collected corpus of reachable states.
pub fn effect_audit_corpus<S>(spec: &Spec<S>, states: &[S]) -> AnalysisReport
where
    S: SpecState + StateFields,
{
    let mut report = AnalysisReport {
        corpus_states: states.len() as u64,
        ..AnalysisReport::default()
    };
    let Some(first) = states.first() else {
        return report;
    };
    let fields: Vec<FieldInfo> = first.fields();

    // Per-label bookkeeping: the first declared footprint (for label-determinism),
    // and the union of observed written-field domains (for precision).
    let mut declared: HashMap<String, Option<Effect>> = HashMap::new();
    let mut observed: HashMap<String, Effect> = HashMap::new();
    // Dedup keys so one under-declaration is reported once, not once per state.
    let mut reported: HashSet<(String, usize)> = HashSet::new();
    let mut nondeterministic: HashSet<String> = HashSet::new();

    let mut parent_hashes: Vec<u64> = Vec::with_capacity(fields.len());
    let mut child_hashes: Vec<u64> = Vec::with_capacity(fields.len());

    for state in states {
        parent_hashes.clear();
        state.field_hashes(&mut parent_hashes);
        debug_assert_eq!(parent_hashes.len(), fields.len());
        for module in &spec.modules {
            for def in &module.actions {
                for inst in def.enabled(state) {
                    let label = inst.label.to_string();
                    match declared.entry(label.clone()) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(inst.effect);
                        }
                        std::collections::hash_map::Entry::Occupied(e) => {
                            if *e.get() != inst.effect && nondeterministic.insert(label.clone()) {
                                report.findings.push(Finding {
                                    tier: Tier::EffectAudit,
                                    class: FindingClass::Soundness,
                                    action: def.name.to_owned(),
                                    location: label.clone(),
                                    field_path: String::new(),
                                    effect_bits: String::new(),
                                    detail: "label declares different footprints in \
                                             different states; footprints must be a \
                                             function of the label alone"
                                        .to_owned(),
                                    estimated_lost_pruning: 0,
                                });
                            }
                        }
                    }
                    let Some(eff) = inst.effect.filter(|e| !e.is_global()) else {
                        continue;
                    };
                    report.audited_transitions += 1;
                    child_hashes.clear();
                    inst.next.field_hashes(&mut child_hashes);
                    debug_assert_eq!(child_hashes.len(), fields.len());
                    for (idx, field) in fields.iter().enumerate() {
                        if parent_hashes[idx] == child_hashes[idx] {
                            continue;
                        }
                        let obs = observed.entry(label.clone()).or_default();
                        *obs = obs.union(&field.domain);
                        if eff.covers_writes(&field.domain) {
                            continue;
                        }
                        if reported.insert((label.clone(), idx)) {
                            let missing = undeclared_bits(&eff, &field.domain);
                            report.findings.push(Finding {
                                tier: Tier::EffectAudit,
                                class: FindingClass::Soundness,
                                action: def.name.to_owned(),
                                location: label.clone(),
                                field_path: field.path.clone(),
                                effect_bits: missing,
                                detail: "observed write outside the declared Effect: \
                                         sleep-set POR built on this footprint is unsound"
                                    .to_owned(),
                                estimated_lost_pruning: 0,
                            });
                        }
                    }
                }
            }
        }
    }

    precision_findings(spec, &declared, &observed, &mut report);
    report
}

/// Renders the write bits of `domain` not covered by `declared`, comma-separated.
fn undeclared_bits(declared: &Effect, domain: &Effect) -> String {
    let missing = Effect {
        writes_servers: domain.writes_servers & !declared.writes_servers,
        writes_channels: domain.writes_channels & !declared.writes_channels,
        writes_flags: domain.writes_flags & !declared.writes_flags,
        ..Effect::default()
    };
    missing
        .write_bits()
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Restricts `declared`'s write bits to those in `observed`, keeping reads as
/// declared (an explicit guard read cannot be distinguished from the read implied by
/// a spurious write, so reads are never tightened).
fn tighten(declared: &Effect, observed: &Effect) -> Effect {
    Effect {
        writes_servers: declared.writes_servers & observed.writes_servers,
        writes_channels: declared.writes_channels & observed.writes_channels,
        writes_flags: declared.writes_flags & observed.writes_flags,
        ..*declared
    }
}

fn precision_findings<S: SpecState>(
    spec: &Spec<S>,
    declared: &HashMap<String, Option<Effect>>,
    observed: &HashMap<String, Effect>,
    report: &mut AnalysisReport,
) {
    // Label -> action name, for reporting.
    let action_of = |label: &str| -> String {
        let prefix = action_name(label);
        spec.modules
            .iter()
            .flat_map(|m| &m.actions)
            .map(|d| d.name)
            .find(|n| *n == prefix)
            .unwrap_or(prefix)
            .to_owned()
    };
    let footprinted: Vec<(&String, Effect)> = declared
        .iter()
        .filter_map(|(l, e)| e.filter(|e| !e.is_global()).map(|e| (l, e)))
        .collect();
    let mut labels: Vec<&String> = footprinted.iter().map(|(l, _)| *l).collect();
    labels.sort();
    for label in labels {
        let decl = declared[label].expect("filtered to Some above");
        let obs = observed.get(label).copied().unwrap_or_default();
        let spurious = Effect {
            writes_servers: decl.writes_servers & !obs.writes_servers,
            writes_channels: decl.writes_channels & !obs.writes_channels,
            writes_flags: decl.writes_flags & !obs.writes_flags & !flags::GLOBAL,
            ..Effect::default()
        };
        if spurious.writes_servers == 0
            && spurious.writes_channels == 0
            && spurious.writes_flags == 0
        {
            continue;
        }
        let tight = tighten(&decl, &obs);
        let lost = footprinted
            .iter()
            .filter(|(other, other_decl)| {
                *other != label && !decl.independent(other_decl) && {
                    let other_obs = observed.get(*other).copied().unwrap_or_default();
                    tight.independent(&tighten(other_decl, &other_obs))
                }
            })
            .count() as u64;
        report.findings.push(Finding {
            tier: Tier::EffectAudit,
            class: FindingClass::Precision,
            action: action_of(label),
            location: label.clone(),
            field_path: String::new(),
            effect_bits: spurious
                .write_bits()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            detail: format!(
                "declared write bits never observed over {} corpus states; the \
                 footprint is sound but wider than necessary",
                report.corpus_states
            ),
            estimated_lost_pruning: lost,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use remix_spec::{ActionDef, Granularity, ModuleId, ModuleSpec};

    /// Two counters in "server 0" and "server 1" slots; `IncBoth` writes both but can
    /// be built with an under-declared footprint to exercise the audit.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Pair {
        a: u32,
        b: u32,
    }

    impl SpecState for Pair {}

    impl StateFields for Pair {
        fn fields(&self) -> Vec<FieldInfo> {
            vec![
                FieldInfo::new("a", Effect::new().writes_server(0)),
                FieldInfo::new("b", Effect::new().writes_server(1)),
            ]
        }
        fn field_hashes(&self, out: &mut Vec<u64>) {
            out.push(u64::from(self.a));
            out.push(u64::from(self.b));
        }
    }

    fn pair_spec(declare_b: bool) -> Spec<Pair> {
        let m = ModuleId("Pair");
        let inc_both = ActionDef::new(
            "IncBoth",
            m,
            Granularity::Baseline,
            vec!["a", "b"],
            vec!["a", "b"],
            move |s: &Pair, sink| {
                if s.a < 2 {
                    let mut eff = Effect::new().writes_server(0);
                    if declare_b {
                        eff = eff.writes_server(1);
                    }
                    sink.offer(format!("IncBoth({})", s.a), eff, |next| {
                        next.a += 1;
                        next.b += 1;
                    });
                }
            },
        );
        Spec::new(
            "pair",
            vec![Pair { a: 0, b: 0 }],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![inc_both])],
            vec![],
        )
    }

    #[test]
    fn under_declaration_is_a_soundness_finding() {
        let report = effect_audit(&pair_spec(false), CorpusOptions::default());
        assert!(report.has_soundness());
        let f = report.soundness().next().unwrap();
        assert_eq!(f.action, "IncBoth");
        assert_eq!(f.field_path, "b");
        assert_eq!(f.effect_bits, "server[1]");
    }

    #[test]
    fn full_declaration_is_clean() {
        let report = effect_audit(&pair_spec(true), CorpusOptions::default());
        assert!(!report.has_soundness(), "findings: {:?}", report.findings);
        assert!(report.audited_transitions > 0);
    }

    #[test]
    fn spurious_bits_are_precision_findings() {
        // Declares a write of server 2 that never happens.
        let m = ModuleId("Pair");
        let inc_a = ActionDef::new(
            "IncA",
            m,
            Granularity::Baseline,
            vec!["a"],
            vec!["a"],
            move |s: &Pair, sink| {
                if s.a < 2 {
                    let eff = Effect::new().writes_server(0).writes_server(2);
                    sink.offer(format!("IncA({})", s.a), eff, |next| next.a += 1);
                }
            },
        );
        let spec = Spec::new(
            "pair",
            vec![Pair { a: 0, b: 0 }],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![inc_a])],
            vec![],
        );
        let report = effect_audit(&spec, CorpusOptions::default());
        assert!(!report.has_soundness());
        let precision: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.class == FindingClass::Precision)
            .collect();
        assert!(!precision.is_empty());
        assert!(precision[0].effect_bits.contains("server[2]"));
    }
}

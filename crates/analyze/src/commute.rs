//! Tier 2 — the commute / never-disable diamond oracle.
//!
//! Sleep-set POR keeps a transition asleep across another exactly when their declared
//! footprints are [`independent`](remix_spec::Effect::independent).  That is only
//! sound if declared-independent pairs actually *commute* (both orders reach the same
//! corner state) and *never disable* each other (firing one leaves the other
//! enabled).  This pass checks the semantic property directly: over a corpus of
//! reachable states, for every co-enabled pair of instances whose declared footprints
//! say "independent", it closes the diamond and reports any violation as a
//! **soundness** finding.
//!
//! This generalizes the hand-written Zab diamond test that caught the `NodeRestart`
//! under-declaration (PR 7) to any [`Spec`] — a new protocol crate gets the oracle
//! for free, without writing protocol-specific assertions.
//!
//! Violations are deduplicated per unordered label pair, so one bad pair produces one
//! finding no matter how many corpus states exhibit it.

use std::collections::{HashMap, HashSet};

use remix_checker::{corpus, CorpusOptions};
use remix_spec::{Effect, Spec, SpecState};

use crate::finding::{AnalysisReport, Finding, FindingClass, Tier};

/// Runs the commute oracle over a freshly built bounded corpus of `spec`.
pub fn commute_oracle<S: SpecState>(spec: &Spec<S>, opts: CorpusOptions) -> AnalysisReport {
    let states = corpus(spec, opts);
    commute_oracle_corpus(spec, &states)
}

/// Runs the commute oracle over an already collected corpus of reachable states.
pub fn commute_oracle_corpus<S: SpecState>(spec: &Spec<S>, states: &[S]) -> AnalysisReport {
    let mut report = AnalysisReport {
        corpus_states: states.len() as u64,
        ..AnalysisReport::default()
    };
    // Successor memo for the intermediate diamond states: label -> set of nexts.
    let mut succ_cache: HashMap<S, HashMap<String, Vec<S>>> = HashMap::new();
    let mut reported: HashSet<(String, String)> = HashSet::new();

    for state in states {
        // All co-enabled instances with usable footprints, with their action names.
        let mut insts: Vec<(&'static str, String, S, Effect)> = Vec::new();
        for module in &spec.modules {
            for def in &module.actions {
                for inst in def.enabled(state) {
                    if let Some(eff) = inst.effect.filter(|e| !e.is_global()) {
                        insts.push((def.name, inst.label.to_string(), inst.next, eff));
                    }
                }
            }
        }
        for i in 0..insts.len() {
            for j in (i + 1)..insts.len() {
                let (name_a, label_a, next_a, eff_a) = &insts[i];
                let (name_b, label_b, next_b, eff_b) = &insts[j];
                if label_a == label_b || !eff_a.independent(eff_b) {
                    continue;
                }
                let pair_key = if label_a <= label_b {
                    (label_a.clone(), label_b.clone())
                } else {
                    (label_b.clone(), label_a.clone())
                };
                if reported.contains(&pair_key) {
                    continue;
                }
                let corners_ab = corners(spec, &mut succ_cache, next_a, label_b);
                let corners_ba = corners(spec, &mut succ_cache, next_b, label_a);
                let action_pair = format!("{name_a} x {name_b}");
                let location = format!("{label_a} | {label_b}");
                if corners_ab.is_empty() || corners_ba.is_empty() {
                    let disabled = if corners_ab.is_empty() {
                        label_b
                    } else {
                        label_a
                    };
                    reported.insert(pair_key);
                    report.findings.push(Finding {
                        tier: Tier::CommuteOracle,
                        class: FindingClass::Soundness,
                        action: action_pair,
                        location,
                        field_path: String::new(),
                        effect_bits: String::new(),
                        detail: format!(
                            "declared independent, but firing the other transition \
                             disables {disabled}: sleep-set pruning over this pair \
                             can lose states"
                        ),
                        estimated_lost_pruning: 0,
                    });
                    continue;
                }
                let set_ab: HashSet<&S> = corners_ab.iter().collect();
                let set_ba: HashSet<&S> = corners_ba.iter().collect();
                if set_ab != set_ba {
                    reported.insert(pair_key);
                    report.findings.push(Finding {
                        tier: Tier::CommuteOracle,
                        class: FindingClass::Soundness,
                        action: action_pair,
                        location,
                        field_path: String::new(),
                        effect_bits: String::new(),
                        detail: "declared independent, but the two firing orders \
                                 reach different corner states (no commuting diamond)"
                            .to_owned(),
                        estimated_lost_pruning: 0,
                    });
                    continue;
                }
                report.diamonds_checked += 1;
            }
        }
    }
    report
}

/// The successor states of `state` under the instance labelled `label`, memoized on
/// the intermediate state (each diamond queries two intermediates).
fn corners<S: SpecState>(
    spec: &Spec<S>,
    cache: &mut HashMap<S, HashMap<String, Vec<S>>>,
    state: &S,
    label: &str,
) -> Vec<S> {
    let by_label = cache.entry(state.clone()).or_insert_with(|| {
        let mut m: HashMap<String, Vec<S>> = HashMap::new();
        for (l, next) in spec.successors(state) {
            m.entry(l).or_default().push(next);
        }
        m
    });
    by_label.get(label).cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    use remix_spec::{ActionDef, Granularity, ModuleId, ModuleSpec};

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Grid {
        x: u32,
        y: u32,
    }

    impl SpecState for Grid {}

    /// `IncX` and `IncY` declare disjoint footprints.  With `honest`, they are truly
    /// independent; without it, `IncY` is guarded on `x == 0` (IncX disables it) while
    /// still declaring independence.
    fn grid_spec(honest: bool) -> Spec<Grid> {
        let m = ModuleId("Grid");
        let inc_x = ActionDef::new(
            "IncX",
            m,
            Granularity::Baseline,
            vec!["x"],
            vec!["x"],
            move |s: &Grid, sink| {
                if s.x < 2 {
                    let eff = Effect::new().writes_server(0);
                    sink.offer(format!("IncX({})", s.x), eff, |next| next.x += 1);
                }
            },
        );
        let inc_y = ActionDef::new(
            "IncY",
            m,
            Granularity::Baseline,
            vec!["y"],
            vec!["y"],
            move |s: &Grid, sink| {
                if s.y < 2 && (honest || s.x == 0) {
                    let eff = Effect::new().writes_server(1);
                    sink.offer(format!("IncY({})", s.y), eff, |next| next.y += 1);
                }
            },
        );
        Spec::new(
            "grid",
            vec![Grid { x: 0, y: 0 }],
            vec![ModuleSpec::new(
                m,
                Granularity::Baseline,
                vec![inc_x, inc_y],
            )],
            vec![],
        )
    }

    #[test]
    fn honest_spec_closes_diamonds_cleanly() {
        let report = commute_oracle(&grid_spec(true), CorpusOptions::default());
        assert!(!report.has_soundness(), "findings: {:?}", report.findings);
        assert!(report.diamonds_checked > 0);
    }

    #[test]
    fn disabling_pair_is_flagged() {
        let report = commute_oracle(&grid_spec(false), CorpusOptions::default());
        assert!(report.has_soundness());
        let f = report.soundness().next().unwrap();
        assert_eq!(f.tier, Tier::CommuteOracle);
        assert!(f.detail.contains("disables"));
    }
}

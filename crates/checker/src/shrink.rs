//! Counterexample shrinking: delta-debugging violating traces down to local minima.
//!
//! Random sampling (and DFS) hands users counterexamples that are hundreds of steps of
//! mostly irrelevant churn; the paper's BFS engine sidesteps this by construction
//! (minimal-depth counterexamples, §4.4), but simulation traces, DFS traces and
//! conformance-divergence traces (§3.5.2) have no such guarantee.  [`shrink_trace`]
//! applies ddmin-style delta debugging to the *action sequence* of a trace: it
//! repeatedly removes chunks of actions, replays the remaining labels from the initial
//! state to check the candidate is still a **legal execution** of the specification
//! (each label must name an enabled action in its predecessor state), and keeps the
//! candidate when the caller's oracle still accepts it.  The result is 1-minimal: no
//! single remaining action can be removed without either breaking legality or losing
//! the property the oracle checks.
//!
//! The oracle is a plain closure over the candidate trace, so the same machinery
//! minimizes invariant violations (oracle: the final state still violates, see
//! [`shrink_violation`]), conformance divergences (oracle: replaying the candidate
//! against the implementation still produces a discrepancy — wired up in
//! `remix-core`), or anything else a caller can phrase as a predicate.

use remix_spec::{Spec, SpecState, Trace};

/// The result of shrinking one trace.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome<S> {
    /// The shrunk trace — a legal execution accepted by the oracle, 1-minimal under
    /// action removal (equal to the input when nothing could be removed, or when the
    /// oracle rejected the input itself).
    pub trace: Trace<S>,
    /// Transition count of the input trace.
    pub original_depth: usize,
    /// Number of candidate action sequences generated (including illegal ones).
    pub candidates: usize,
    /// Number of times the oracle ran (only legal candidates reach it).
    pub oracle_calls: usize,
}

impl<S> ShrinkOutcome<S> {
    /// Transition count of the shrunk trace.
    pub fn shrunk_depth(&self) -> usize {
        self.trace.depth()
    }

    /// `true` when shrinking removed at least one action.
    pub fn reduced(&self) -> bool {
        self.shrunk_depth() < self.original_depth
    }
}

/// Replays a sequence of action labels from `init`, returning the resulting trace when
/// every label names an enabled action along the way (i.e. the sequence is a legal
/// execution of `spec`), and `None` otherwise.
///
/// Labels are fully instantiated (e.g. `NodeCrash(2)`), so replay is deterministic as
/// long as labels are unique per state; if a state offers several successors under the
/// same label, the first is taken.
pub fn replay_labels<S: SpecState>(
    spec: &Spec<S>,
    init: &S,
    labels: &[String],
) -> Option<Trace<S>> {
    let mut trace = Trace::from_init(init.clone());
    let mut current = init.clone();
    for label in labels {
        let (taken, next) = spec
            .successors(&current)
            .into_iter()
            .find(|(l, _)| l == label)?;
        trace.push(taken, next.clone());
        current = next;
    }
    Some(trace)
}

/// Delta-debugs `trace` down to a locally minimal legal execution still accepted by
/// `oracle`.
///
/// The oracle must accept the input trace; when it does not (or the trace has no
/// transitions), the input is returned unchanged.  Candidates are produced by removing
/// contiguous chunks of actions, halving the chunk size ddmin-style, and every
/// candidate is re-validated against the spec before the oracle sees it, so the
/// result is always a legal execution.
///
/// Degenerate witnesses are already minimal and short-circuit without touching the
/// oracle: an empty trace, an init-only trace and a single-action trace all come back
/// unchanged with `oracle_calls == 0`.  (Callers such as the refinement checker hand
/// ddmin whatever witness exploration produced, including depth-0 witnesses of a
/// diverging *initial* state and depth-1 witnesses of a diverging first step — the
/// only removal a depth-1 witness admits is the empty execution, which cannot witness
/// anything, so there is nothing to search.)
pub fn shrink_trace<S: SpecState>(
    spec: &Spec<S>,
    trace: &Trace<S>,
    oracle: impl Fn(&Trace<S>) -> bool,
) -> ShrinkOutcome<S> {
    let original_depth = trace.depth();
    let mut outcome = ShrinkOutcome {
        trace: trace.clone(),
        original_depth,
        candidates: 0,
        oracle_calls: 0,
    };
    let Some(first) = trace.steps.first() else {
        return outcome; // Empty witness: nothing to remove.
    };
    if original_depth <= 1 {
        // Init-only or single-action witness: already 1-minimal, return unchanged.
        return outcome;
    }
    outcome.oracle_calls += 1;
    if !oracle(trace) {
        // Nothing to minimize: the property does not even hold on the input.
        return outcome;
    }
    let init = first.state.clone();
    let mut labels: Vec<String> = trace
        .steps
        .iter()
        .skip(1)
        .map(|s| s.action.clone())
        .collect();
    let mut best = trace.clone();

    let mut chunk = (labels.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < labels.len() {
            let end = (i + chunk).min(labels.len());
            let candidate_labels: Vec<String> = labels[..i]
                .iter()
                .chain(labels[end..].iter())
                .cloned()
                .collect();
            outcome.candidates += 1;
            let accepted = match replay_labels(spec, &init, &candidate_labels) {
                Some(candidate) => {
                    outcome.oracle_calls += 1;
                    if oracle(&candidate) {
                        best = candidate;
                        true
                    } else {
                        false
                    }
                }
                None => false,
            };
            if accepted {
                labels = candidate_labels;
                removed_any = true;
                // Re-test from the same offset: the chunk now holds different actions.
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            if !removed_any {
                break; // 1-minimal: no single action can be removed.
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
        if labels.is_empty() {
            break;
        }
    }

    outcome.trace = best;
    outcome
}

/// Shrinks an invariant-violation counterexample: the oracle accepts a candidate when
/// its final state still violates the invariant identified by `invariant_id`.
///
/// Useful for violations found by simulation ([`mod@crate::explore`]) or DFS; BFS
/// counterexamples are already depth-minimal (§4.4) and typically come back unchanged.
pub fn shrink_violation<S: SpecState>(
    spec: &Spec<S>,
    trace: &Trace<S>,
    invariant_id: &str,
) -> ShrinkOutcome<S> {
    shrink_trace(spec, trace, |candidate| {
        candidate.last_state().is_some_and(|state| {
            spec.violated_invariants(state)
                .iter()
                .any(|inv| inv.id == invariant_id)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SimulationOptions;
    use crate::rng::CheckerRng;
    use crate::simulate::simulate_one;
    use remix_spec::{
        ActionDef, ActionInstance, Granularity, Invariant, InvariantSource, ModuleId, ModuleSpec,
    };

    /// Counter with an irrelevant toggle: `Inc` raises `n`, `Toggle` flips `t`, the
    /// violation only depends on `n`, so a minimal counterexample is all-`Inc`.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct TState {
        n: u32,
        t: bool,
    }

    impl SpecState for TState {}

    fn toggle_spec(limit: u32) -> Spec<TState> {
        let m = ModuleId("T");
        let inc = ActionDef::new(
            "Inc",
            m,
            Granularity::Baseline,
            vec!["n"],
            vec!["n"],
            move |s: &TState| {
                if s.n < limit {
                    vec![ActionInstance::new(
                        format!("Inc({})", s.n),
                        TState {
                            n: s.n + 1,
                            ..s.clone()
                        },
                    )]
                } else {
                    vec![]
                }
            },
        );
        let toggle = ActionDef::new(
            "Toggle",
            m,
            Granularity::Baseline,
            vec!["t"],
            vec!["t"],
            |s: &TState| {
                vec![ActionInstance::new(
                    format!("Toggle({})", s.t),
                    TState {
                        t: !s.t,
                        ..s.clone()
                    },
                )]
            },
        );
        let inv = Invariant::always(
            "N-BOUND",
            "n stays below 4",
            InvariantSource::Protocol,
            |s: &TState| s.n < 4,
        );
        Spec::new(
            "toggle",
            vec![TState { n: 0, t: false }],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![inc, toggle])],
            vec![inv],
        )
    }

    #[test]
    fn replay_rejects_illegal_sequences() {
        let spec = toggle_spec(10);
        let init = TState { n: 0, t: false };
        assert!(replay_labels(&spec, &init, &["Inc(0)".to_owned()]).is_some());
        // Inc(1) is not enabled at n=0.
        assert!(replay_labels(&spec, &init, &["Inc(1)".to_owned()]).is_none());
        let t = replay_labels(
            &spec,
            &init,
            &["Toggle(false)".to_owned(), "Toggle(true)".to_owned()],
        )
        .unwrap();
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn shrinks_to_the_minimal_inc_chain() {
        let spec = toggle_spec(10);
        // A long random walk that eventually reaches n == 4.
        let mut rng = CheckerRng::seed_from_u64(3);
        let mut trace = simulate_one(&spec, 200, &mut rng);
        while trace
            .last_state()
            .map(|s| spec.violated_invariants(s).is_empty())
            .unwrap_or(true)
        {
            trace = simulate_one(&spec, 200, &mut rng);
        }
        assert!(trace.depth() > 4, "the sampled walk should be wasteful");

        let outcome = shrink_violation(&spec, &trace, "N-BOUND");
        // The minimal violating execution is Inc(0) Inc(1) Inc(2) Inc(3): n == 4.
        assert_eq!(outcome.shrunk_depth(), 4, "{}", outcome.trace);
        assert!(outcome.reduced());
        assert_eq!(
            outcome.trace.action_labels(),
            vec!["Inc(0)", "Inc(1)", "Inc(2)", "Inc(3)"]
        );
        // The shrunk trace is a legal execution that still violates.
        assert!(!spec
            .violated_invariants(outcome.trace.last_state().unwrap())
            .is_empty());
        assert!(outcome.candidates >= outcome.oracle_calls - 1);

        // Local minimality: removing any single remaining action breaks the candidate.
        let labels: Vec<String> = outcome
            .trace
            .steps
            .iter()
            .skip(1)
            .map(|s| s.action.clone())
            .collect();
        let init = &outcome.trace.steps[0].state;
        for skip in 0..labels.len() {
            let candidate: Vec<String> = labels
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| l.clone())
                .collect();
            let still_violates = replay_labels(&spec, init, &candidate)
                .and_then(|t| t.last_state().cloned())
                .map(|s| !spec.violated_invariants(&s).is_empty())
                .unwrap_or(false);
            assert!(
                !still_violates,
                "removing action {skip} should not be possible"
            );
        }
    }

    #[test]
    fn oracle_rejecting_the_input_returns_it_unchanged() {
        let spec = toggle_spec(10);
        let mut rng = CheckerRng::seed_from_u64(1);
        let trace = simulate_one(&spec, 6, &mut rng);
        let outcome = shrink_trace(&spec, &trace, |_| false);
        assert_eq!(outcome.trace, trace);
        assert!(!outcome.reduced());
        assert_eq!(outcome.oracle_calls, 1);
    }

    #[test]
    fn empty_and_init_only_traces_are_returned_unchanged() {
        let spec = toggle_spec(10);
        let empty: Trace<TState> = Trace::default();
        assert_eq!(shrink_trace(&spec, &empty, |_| true).trace, empty);
        let init_only = Trace::from_init(TState { n: 0, t: false });
        let outcome = shrink_trace(&spec, &init_only, |_| true);
        assert_eq!(outcome.trace, init_only);
        assert_eq!(outcome.oracle_calls, 0);
    }

    #[test]
    fn single_action_witness_is_returned_unchanged() {
        // ddmin over a single-action witness must terminate and return the input
        // unchanged — the only removable candidate is the empty execution, which cannot
        // witness anything — regardless of what the oracle would say about it.
        let spec = toggle_spec(10);
        let mut one = Trace::from_init(TState { n: 0, t: false });
        one.push("Inc(0)", TState { n: 1, t: false });
        for oracle in [true, false] {
            let outcome = shrink_trace(&spec, &one, |_| oracle);
            assert_eq!(outcome.trace, one, "oracle = {oracle}");
            assert_eq!(outcome.shrunk_depth(), 1);
            assert!(!outcome.reduced());
            assert_eq!(
                outcome.oracle_calls, 0,
                "degenerate witnesses skip the oracle"
            );
            assert_eq!(outcome.candidates, 0);
        }
    }

    #[test]
    fn two_action_witness_still_shrinks_normally() {
        // The depth-1 guard must not swallow the first genuinely shrinkable size.
        let spec = toggle_spec(10);
        let mut two = Trace::from_init(TState { n: 0, t: false });
        two.push("Toggle(false)", TState { n: 0, t: true });
        two.push("Inc(0)", TState { n: 1, t: true }); // n is what the oracle watches
        let outcome = shrink_trace(&spec, &two, |t| t.last_state().is_some_and(|s| s.n == 1));
        assert_eq!(outcome.trace.action_labels(), vec!["Inc(0)"]);
        assert!(outcome.reduced());
    }

    #[test]
    fn simulate_options_are_compatible_with_shrinking() {
        // A batch sampled by `simulate` can be shrunk trace by trace.
        let spec = toggle_spec(6);
        let traces = crate::simulate::simulate(
            &spec,
            &SimulationOptions {
                traces: 8,
                max_depth: 60,
                ..Default::default()
            },
        );
        for trace in &traces {
            if let Some(last) = trace.last_state() {
                if !spec.violated_invariants(last).is_empty() {
                    let outcome = shrink_violation(&spec, trace, "N-BOUND");
                    assert!(outcome.shrunk_depth() <= trace.depth());
                    assert_eq!(outcome.shrunk_depth(), 4);
                }
            }
        }
    }
}

//! Traces: sequences of states joined by action labels.
//!
//! Counterexamples, simulated walks and conformance replays are all [`Trace`]s: an
//! initial state followed by action-labelled transitions.  Comparing two granularities
//! is not done on traces — the refinement checker projects each state on its own (see
//! [`crate::projection`]).

use std::fmt;

/// The action *definition* name of an instantiated label: everything before the first
/// `(`, e.g. `"NodeCrash"` for `"NodeCrash(2)"`; a label without arguments (`"Init"`)
/// is its own name.
pub fn action_name(label: &str) -> &str {
    label.split('(').next().unwrap_or(label).trim()
}

/// One step of a trace: the action that was taken and the state it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep<S> {
    /// The instantiated action label, e.g. `"NodeCrash(2)"`.  The initial state carries
    /// the label `"Init"`.
    pub action: String,
    /// The state after the action.
    pub state: S,
}

/// A finite execution: an initial state followed by action-labelled transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace<S> {
    /// The steps of the trace; the first step has action `"Init"`.
    pub steps: Vec<TraceStep<S>>,
}

impl<S> Default for Trace<S> {
    fn default() -> Self {
        Trace { steps: Vec::new() }
    }
}

impl<S> Trace<S> {
    /// Creates a trace starting from an initial state.
    pub fn from_init(init: S) -> Self {
        Trace {
            steps: vec![TraceStep {
                action: "Init".to_owned(),
                state: init,
            }],
        }
    }

    /// Appends a step.
    pub fn push(&mut self, action: impl Into<String>, state: S) {
        self.steps.push(TraceStep {
            action: action.into(),
            state,
        });
    }

    /// Number of transitions (the "Depth" columns of Tables 4-6 count transitions, i.e.
    /// steps excluding the initial state).
    pub fn depth(&self) -> usize {
        self.steps.len().saturating_sub(1)
    }

    /// The last state of the trace, if any.
    pub fn last_state(&self) -> Option<&S> {
        self.steps.last().map(|s| &s.state)
    }

    /// The sequence of action labels, excluding the initial pseudo-action.
    pub fn action_labels(&self) -> Vec<&str> {
        self.steps
            .iter()
            .skip(1)
            .map(|s| s.action.as_str())
            .collect()
    }

    /// Returns `true` if the trace has no steps at all.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl<S: fmt::Debug> fmt::Display for Trace<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "State {i}: <{}>", step.action)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::Counters;

    #[test]
    fn action_name_strips_arguments() {
        assert_eq!(action_name("Init"), "Init");
        assert_eq!(action_name("NodeCrash(1)"), "NodeCrash");
        assert_eq!(
            action_name("ElectionAndDiscovery(2, {0, 1, 2})"),
            "ElectionAndDiscovery"
        );
    }

    fn sample_trace() -> Trace<Counters> {
        let mut t = Trace::from_init(Counters { x: 0, y: 0 });
        t.push("IncX(0)", Counters { x: 1, y: 0 });
        t.push("IncY(0)", Counters { x: 1, y: 1 });
        t.push("IncX(1)", Counters { x: 2, y: 1 });
        t
    }

    #[test]
    fn depth_and_labels() {
        let t = sample_trace();
        assert_eq!(t.depth(), 3);
        assert_eq!(t.action_labels(), vec!["IncX(0)", "IncY(0)", "IncX(1)"]);
        assert_eq!(t.last_state(), Some(&Counters { x: 2, y: 1 }));
        assert!(!t.is_empty());
        assert!(t.to_string().contains("State 0: <Init>"));
    }
}

//! Property tests of [`Trace`] construction invariants, via the vendored `proptest`
//! stand-in.
//!
//! Traces are the currency every layer above `remix-spec` trades in — the checker
//! reconstructs them, the conformance checker replays them, the shrinker rewrites them
//! — so the basic bookkeeping (`depth` = transitions, labels exclude the initial
//! pseudo-action) is pinned down over generated step sequences rather than single
//! examples.

use proptest::prelude::*;
use remix_spec::{SpecState, Trace};

/// A minimal state for trace bookkeeping tests: one counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct S(u32);

impl SpecState for S {}

proptest! {
    /// `push` appends exactly one step: depth grows by one per push, the last state and
    /// label are the pushed ones, and earlier steps are never disturbed.
    #[test]
    fn push_appends_exactly_one_step(values in proptest::collection::vec(0u32..100, 0..24)) {
        let mut trace = Trace::from_init(S(0));
        prop_assert_eq!(trace.depth(), 0);
        prop_assert_eq!(trace.steps[0].action.as_str(), "Init");
        for (i, v) in values.iter().enumerate() {
            let before = trace.steps.clone();
            trace.push(format!("Set({v})"), S(*v));
            prop_assert_eq!(trace.depth(), i + 1);
            prop_assert_eq!(trace.steps.len(), i + 2);
            prop_assert_eq!(trace.last_state(), Some(&S(*v)));
            prop_assert_eq!(trace.steps.last().unwrap().action.as_str(), format!("Set({v})").as_str());
            // Existing steps are untouched.
            prop_assert_eq!(&trace.steps[..before.len()], &before[..]);
        }
        // Labels enumerate the pushed actions, excluding the initial pseudo-action.
        let labels = trace.action_labels();
        prop_assert_eq!(labels.len(), values.len());
        for (label, v) in labels.iter().zip(values.iter()) {
            prop_assert_eq!(*label, format!("Set({v})").as_str());
        }
    }

    /// `depth` always equals `steps.len() - 1` on non-empty traces, and an empty trace
    /// reports depth 0 without underflowing.
    #[test]
    fn depth_counts_transitions(count in 0usize..32) {
        let empty: Trace<S> = Trace::default();
        prop_assert_eq!(empty.depth(), 0);
        prop_assert!(empty.is_empty());
        prop_assert_eq!(empty.last_state(), None);

        let mut trace = Trace::from_init(S(0));
        for i in 0..count {
            trace.push("Step", S(i as u32));
        }
        prop_assert_eq!(trace.depth(), trace.steps.len() - 1);
        prop_assert!(!trace.is_empty());
    }
}

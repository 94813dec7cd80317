//! Composition of per-module specifications into mixed-grained specifications.
//!
//! The paper composes module specifications of different granularities by taking the
//! disjunction of their actions as the next-state relation (Figure 7) and selecting the
//! invariants appropriate for the chosen granularities (§3.5.1).  [`compose`] performs the
//! mechanical assembly; the Remix crate builds [`CompositionPlan`]s from a specification
//! library and runs the interaction-preservation check before composing.

use std::collections::BTreeSet;

use crate::action::Granularity;
use crate::error::SpecError;
use crate::invariant::Invariant;
use crate::module::{ModuleId, ModuleSpec};
use crate::spec::{Spec, SpecState};

/// One entry of a composition plan: which granularity to use for a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleChoice {
    /// The module to include.
    pub module: ModuleId,
    /// The granularity of the specification to use for that module.
    pub granularity: Granularity,
}

/// A composition plan: the per-module granularity choices of one mixed-grained
/// specification (one row of Table 1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompositionPlan {
    /// Human-readable specification name, e.g. `"mSpec-3"`.
    pub name: String,
    /// The per-module choices.
    pub choices: Vec<ModuleChoice>,
}

impl CompositionPlan {
    /// Creates a plan with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CompositionPlan {
            name: name.into(),
            choices: Vec::new(),
        }
    }

    /// Adds a module choice and returns the plan (builder style).
    pub fn with(mut self, module: ModuleId, granularity: Granularity) -> Self {
        self.choices.push(ModuleChoice {
            module,
            granularity,
        });
        self
    }

    /// Returns the granularity chosen for `module`, if present in the plan.
    pub fn granularity_of(&self, module: ModuleId) -> Option<Granularity> {
        self.choices
            .iter()
            .find(|c| c.module == module)
            .map(|c| c.granularity)
    }
}

/// Composes selected module specifications and invariants into a full specification.
///
/// * `modules` must contain exactly one specification per distinct [`ModuleId`];
/// * `invariants` is filtered by applicability: a scoped invariant is only included when
///   the module it talks about is present at a sufficient granularity.
pub fn compose<S: SpecState>(
    name: impl Into<String>,
    init: Vec<S>,
    modules: Vec<ModuleSpec<S>>,
    invariants: Vec<Invariant<S>>,
) -> Result<Spec<S>, SpecError> {
    let mut seen: BTreeSet<ModuleId> = BTreeSet::new();
    for m in &modules {
        if !seen.insert(m.module) {
            return Err(SpecError::DuplicateModule {
                module: m.module.name().to_owned(),
            });
        }
    }

    let granularity_of = |module: ModuleId| -> Option<Granularity> {
        modules
            .iter()
            .find(|m| m.module == module)
            .map(|m| m.granularity)
    };
    let selected: Vec<Invariant<S>> = invariants
        .into_iter()
        .filter(|inv| inv.applies(&granularity_of))
        .collect();

    Ok(Spec::new(name, init, modules, selected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionDef;
    use crate::invariant::InvariantSource;
    use crate::spec::testutil::{Counters, MOD_X, MOD_Y};

    fn module(module: ModuleId, granularity: Granularity) -> ModuleSpec<Counters> {
        let action = ActionDef::new(
            "Noop",
            module,
            granularity,
            vec!["x"],
            vec!["x"],
            |_s: &Counters, sink| sink.offer("Noop", None, |_| {}),
        );
        ModuleSpec::new(module, granularity, vec![action])
    }

    #[test]
    fn compose_rejects_duplicate_modules() {
        let err = compose(
            "dup",
            vec![Counters { x: 0, y: 0 }],
            vec![
                module(MOD_X, Granularity::Baseline),
                module(MOD_X, Granularity::Coarse),
            ],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::DuplicateModule { .. }));
    }

    #[test]
    fn compose_filters_invariants_by_scope() {
        let always: Invariant<Counters> =
            Invariant::always("I-1", "always", InvariantSource::Protocol, |_| true);
        let scoped: Invariant<Counters> = Invariant::scoped(
            "I-11",
            "code-level",
            InvariantSource::Code,
            MOD_Y,
            Granularity::FineConcurrent,
            |_| true,
        );
        // MOD_Y is only at baseline granularity: the code-level invariant is dropped.
        let spec = compose(
            "mix",
            vec![Counters { x: 0, y: 0 }],
            vec![
                module(MOD_X, Granularity::Coarse),
                module(MOD_Y, Granularity::Baseline),
            ],
            vec![always.clone(), scoped.clone()],
        )
        .unwrap();
        assert_eq!(spec.invariants.len(), 1);
        assert_eq!(spec.invariants[0].id, "I-1");

        // With MOD_Y fine-grained, both invariants apply.
        let spec = compose(
            "mix-fine",
            vec![Counters { x: 0, y: 0 }],
            vec![
                module(MOD_X, Granularity::Coarse),
                module(MOD_Y, Granularity::FineConcurrent),
            ],
            vec![always, scoped],
        )
        .unwrap();
        assert_eq!(spec.invariants.len(), 2);
    }

    #[test]
    fn plan_builder_records_choices() {
        let plan = CompositionPlan::new("mSpec-1")
            .with(MOD_X, Granularity::Coarse)
            .with(MOD_Y, Granularity::Baseline);
        assert_eq!(plan.granularity_of(MOD_X), Some(Granularity::Coarse));
        assert_eq!(plan.granularity_of(MOD_Y), Some(Granularity::Baseline));
        assert_eq!(plan.granularity_of(ModuleId("Z")), None);
        assert_eq!(plan.name, "mSpec-1");
    }
}

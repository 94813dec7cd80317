//! Actions: guarded atomic state transitions with declared variable footprints.
//!
//! A TLA+ action is a conjunction of enabling conditions and next-state updates.  Here an
//! [`ActionDef`] bundles a *successor function* (which enumerates every enabled parameter
//! instantiation of the action in a given state and returns the resulting next states)
//! together with metadata used by the rest of the framework:
//!
//! * the module the action belongs to (the paper decomposes Zab by phase),
//! * the [`Granularity`] of the specification the action was written for, and
//! * the declared *read* and *write* variable footprints, which drive the dependency /
//!   interaction-variable analysis of Appendix B and the interaction-preservation check.

use std::fmt;
use std::sync::Arc;

use crate::effect::Effect;
use crate::label::Label;
use crate::module::ModuleId;

/// Granularity of a module specification (§3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Granularity {
    /// Interaction-preserving coarsening of a module (e.g. the single
    /// `ElectionAndDiscovery` action of Figure 5b).
    Coarse,
    /// The system specification granularity (the baseline in Table 1).
    Baseline,
    /// Fine-grained modelling of non-atomic updates (the "atom." column of Table 1).
    FineAtomic,
    /// Fine-grained modelling of non-atomic updates and local (multithreading)
    /// concurrency (the "atom.+concur." column of Table 1).
    FineConcurrent,
    /// The protocol specification granularity (Zab paper pseudo-code, §2.1.1).
    Protocol,
}

impl Granularity {
    /// A short human-readable label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Granularity::Coarse => "Coarsened",
            Granularity::Baseline => "Baseline",
            Granularity::FineAtomic => "Fine-grained (atom.)",
            Granularity::FineConcurrent => "Fine-grained (atom.+concur.)",
            Granularity::Protocol => "Protocol",
        }
    }

    /// Returns `true` if this granularity models at least as much code-level detail as
    /// `other`.  `Coarse < Baseline < FineAtomic < FineConcurrent`; `Protocol` is treated
    /// as the coarsest.
    pub fn at_least(self, other: Granularity) -> bool {
        self.detail_rank() >= other.detail_rank()
    }

    /// Returns `true` if this granularity is a *strict* abstraction of `other`: it models
    /// strictly less code-level detail, so a specification at this granularity is the
    /// coarse side of a refinement check against a specification at `other`.
    ///
    /// `abstracts` is a strict partial order (irreflexive, asymmetric, transitive); it is
    /// the strict companion of [`Granularity::at_least`] with the arguments flipped:
    /// `a.abstracts(b) ⟺ b.at_least(a) ∧ a ≠ b` over the detail ranks.
    pub fn abstracts(self, other: Granularity) -> bool {
        self.detail_rank() < other.detail_rank()
    }

    fn detail_rank(self) -> u8 {
        match self {
            Granularity::Protocol => 0,
            Granularity::Coarse => 1,
            Granularity::Baseline => 2,
            Granularity::FineAtomic => 3,
            Granularity::FineConcurrent => 4,
        }
    }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One enabled instantiation of an action in a particular state.
///
/// The label carries the concrete parameters (e.g. `FollowerProcessNEWLEADER(2, 0)`) so
/// that counterexample traces read like the paper's.
#[derive(Debug, Clone)]
pub struct ActionInstance<S> {
    /// Fully instantiated label, e.g. `NodeCrash` with `1`, rendered `"NodeCrash(1)"`.
    pub label: Label,
    /// The successor state produced by executing the action.
    pub next: S,
    /// The instance's declared read/write footprint, when the action provides one.
    ///
    /// Must be a function of the label's parameters only (see [`crate::effect`]), so
    /// that every firing of the same label declares the same footprint.  `None` is the
    /// conservative default: the checker treats the instance as dependent on the whole
    /// state.
    pub effect: Option<Effect>,
}

impl<S> ActionInstance<S> {
    /// Creates a new instance with the given label — a typed [`Label`], or a `String`
    /// that is its own rendering — and successor state (no declared footprint).
    pub fn new(label: impl Into<Label>, next: S) -> Self {
        ActionInstance {
            label: label.into(),
            next,
            effect: None,
        }
    }

    /// Attaches a declared read/write footprint to the instance.
    #[must_use]
    pub fn with_effect(mut self, effect: Effect) -> Self {
        self.effect = Some(effect);
        self
    }
}

/// Type of the successor-enumeration function of an action.
pub type SuccessorFn<S> = Arc<dyn Fn(&S) -> Vec<ActionInstance<S>> + Send + Sync>;

/// A named, guarded atomic action with a declared variable footprint.
#[derive(Clone)]
pub struct ActionDef<S> {
    /// The action name without parameters, e.g. `"FollowerProcessNEWLEADER"`.
    pub name: &'static str,
    /// The module (protocol phase) this action belongs to.
    pub module: ModuleId,
    /// The granularity of the module specification this action was written for.
    pub granularity: Granularity,
    /// Variables read by the enabling condition or used to compute updates
    /// (dependency variables, Definition 2 rule 1/3).
    pub reads: Vec<&'static str>,
    /// Variables written by the next-state updates.
    pub writes: Vec<&'static str>,
    /// Enumerates every enabled instantiation of the action in the given state.
    pub successors: SuccessorFn<S>,
}

impl<S> ActionDef<S> {
    /// Creates an action definition.
    pub fn new(
        name: &'static str,
        module: ModuleId,
        granularity: Granularity,
        reads: Vec<&'static str>,
        writes: Vec<&'static str>,
        successors: impl Fn(&S) -> Vec<ActionInstance<S>> + Send + Sync + 'static,
    ) -> Self {
        ActionDef {
            name,
            module,
            granularity,
            reads,
            writes,
            successors: Arc::new(successors),
        }
    }

    /// Enumerates the enabled instantiations of this action in `state`.
    pub fn enabled(&self, state: &S) -> Vec<ActionInstance<S>> {
        (self.successors)(state)
    }
}

impl<S> fmt::Debug for ActionDef<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActionDef")
            .field("name", &self.name)
            .field("module", &self.module)
            .field("granularity", &self.granularity)
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_action() -> ActionDef<u32> {
        ActionDef::new(
            "Increment",
            ModuleId("Counter"),
            Granularity::Baseline,
            vec!["count"],
            vec!["count"],
            |s: &u32| {
                if *s < 3 {
                    vec![ActionInstance::new(format!("Increment({s})"), s + 1)]
                } else {
                    vec![]
                }
            },
        )
    }

    #[test]
    fn enabled_respects_guard() {
        let a = counter_action();
        assert_eq!(a.enabled(&0).len(), 1);
        assert_eq!(a.enabled(&0)[0].next, 1);
        assert_eq!(a.enabled(&0)[0].label.to_string(), "Increment(0)");
        assert!(a.enabled(&3).is_empty());
    }

    #[test]
    fn granularity_ordering() {
        assert!(Granularity::FineConcurrent.at_least(Granularity::Baseline));
        assert!(Granularity::Baseline.at_least(Granularity::Coarse));
        assert!(!Granularity::Coarse.at_least(Granularity::FineAtomic));
        assert_eq!(Granularity::FineAtomic.label(), "Fine-grained (atom.)");
        assert_eq!(Granularity::Coarse.to_string(), "Coarsened");
    }

    #[test]
    fn abstracts_is_strict() {
        assert!(Granularity::Coarse.abstracts(Granularity::Baseline));
        assert!(Granularity::Baseline.abstracts(Granularity::FineAtomic));
        assert!(Granularity::Protocol.abstracts(Granularity::Coarse));
        // Irreflexive and asymmetric.
        assert!(!Granularity::Baseline.abstracts(Granularity::Baseline));
        assert!(!Granularity::Baseline.abstracts(Granularity::Coarse));
    }

    #[test]
    fn debug_omits_closure() {
        let a = counter_action();
        let s = format!("{a:?}");
        assert!(s.contains("Increment"));
        assert!(s.contains("Counter"));
    }
}

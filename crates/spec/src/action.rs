//! Actions: guarded atomic state transitions with declared variable footprints.
//!
//! A TLA+ action is a conjunction of enabling conditions and next-state updates.  Here an
//! [`ActionDef`] bundles an *offer function* (which evaluates the action's guards in a
//! given state and offers every enabled parameter instantiation to a caller's [`Sink`]
//! as a label, a footprint and an update, without building the successor) together with
//! metadata used by the rest of the framework:
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

/// One enabled instantiation of an action, built: its label, the successor state and
/// its declared footprint.  [`ActionDef::enabled`] and [`Offer::build`] hand these out.
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

/// One enabled instantiation of an action, offered to a [`Sink`] but not yet built:
/// its label, its declared footprint, and the update that turns a copy of the parent
/// into the successor.
///
/// A sink that keeps the instance calls [`Offer::build`]; one that only counts or
/// compares labels drops the offer, and the successor is never built.
pub struct Offer<'a, S> {
    /// Fully instantiated label (see [`ActionInstance::label`]).
    pub label: Label,
    /// The declared footprint (see [`ActionInstance::effect`]).
    pub effect: Option<Effect>,
    apply: &'a mut dyn FnMut(&mut S),
}

impl<S: Clone> Offer<'_, S> {
    /// Builds the instance: a copy of `parent` — the state the offer was made in —
    /// with the offer's update applied.
    pub fn build(self, parent: &S) -> ActionInstance<S> {
        let mut next = parent.clone();
        (self.apply)(&mut next);
        ActionInstance {
            label: self.label,
            next,
            effect: self.effect,
        }
    }
}

/// Where an action's enabled instances go: see [`ActionDef`] for the offer contract.
///
/// Any `FnMut(Offer<'_, S>)` closure is a sink.
pub trait Sink<S> {
    /// Receives one offer.
    fn take(&mut self, offer: Offer<'_, S>);
}

impl<S, F: FnMut(Offer<'_, S>)> Sink<S> for F {
    fn take(&mut self, offer: Offer<'_, S>) {
        self(offer)
    }
}

impl<'a, S> dyn Sink<S> + 'a {
    /// Offers one enabled instance: its typed [`Label`] (or a `String` that is its own
    /// rendering), its declared footprint (an [`Effect`], or `None` for none), and the
    /// update `apply` that turns a copy of the parent into the successor.  `apply` runs
    /// at most once, and only when the sink builds the instance.
    pub fn offer(
        &mut self,
        label: impl Into<Label>,
        effect: impl Into<Option<Effect>>,
        apply: impl FnOnce(&mut S),
    ) {
        let mut apply = Some(apply);
        self.take(Offer {
            label: label.into(),
            effect: effect.into(),
            apply: &mut |next| {
                if let Some(apply) = apply.take() {
                    apply(next);
                }
            },
        });
    }
}

/// Type of the enumeration function of an action: it offers every enabled instance in
/// the given state to the sink (see [`ActionDef`]).
pub type OfferFn<S> = Arc<dyn Fn(&S, &mut dyn Sink<S>) + Send + Sync>;

/// A named, guarded atomic action with a declared variable footprint.
///
/// # The offer contract
///
/// The action's function evaluates its guards on the parent state and offers each
/// enabled instance to the caller's [`Sink`] (`sink.offer(label, effect, apply)`).
/// Callers rely on three properties:
///
/// * **A fixed order.**  The same parent gets the same offers, in the same order, on
///   every call: the samplers count the offers, draw one, and build it by calling the
///   action again and taking the offer at the drawn position.
/// * **`apply` is a function of the parent and the captured parameters only.**  It is
///   handed a copy of the parent and writes the successor into it; whether the
///   instance is enabled is decided before the offer, never inside `apply`, so a sink
///   that does not build the instance still sees exactly the enabled ones.
/// * **No panics.**  A panicking action takes down the whole checker instead of
///   reporting a violation trace (`remix-lint`'s `no-panic-in-action` rule).
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
    /// Offers every enabled instantiation of the action in the given state.
    pub offers: OfferFn<S>,
}

impl<S> ActionDef<S> {
    /// Creates an action definition from its offer function (see the offer contract).
    pub fn new(
        name: &'static str,
        module: ModuleId,
        granularity: Granularity,
        reads: Vec<&'static str>,
        writes: Vec<&'static str>,
        offers: impl Fn(&S, &mut dyn Sink<S>) + Send + Sync + 'static,
    ) -> Self {
        ActionDef {
            name,
            module,
            granularity,
            reads,
            writes,
            offers: Arc::new(offers),
        }
    }

    /// Offers the enabled instantiations of this action in `state` to `sink`.
    pub fn offer(&self, state: &S, sink: &mut dyn Sink<S>) {
        (self.offers)(state, sink)
    }

    /// The enabled instantiations of this action in `state`, each built.
    pub fn enabled(&self, state: &S) -> Vec<ActionInstance<S>>
    where
        S: Clone,
    {
        let mut out = Vec::new();
        self.offer(state, &mut |offer: Offer<'_, S>| {
            out.push(offer.build(state))
        });
        out
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
            |s: &u32, sink| {
                if *s < 3 {
                    sink.offer(format!("Increment({s})"), None, |next| *next += 1);
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
    fn an_offer_is_applied_only_when_built() {
        let mut applied = 0;
        let mut labels = Vec::new();
        let counting: &mut dyn Sink<u32> =
            &mut |offer: Offer<'_, u32>| labels.push(offer.label.to_string());
        counting.offer(Label::new("Add").arg(1), None, |next| {
            applied += 1;
            *next += 1;
        });
        assert_eq!(labels, ["Add(1)"]);
        assert_eq!(applied, 0, "counting builds nothing");
        let mut built = None;
        let building: &mut dyn Sink<u32> =
            &mut |offer: Offer<'_, u32>| built = Some(offer.build(&5));
        building.offer("Add(2)", Effect::global(), |next| {
            applied += 1;
            *next += 2;
        });
        let built = built.expect("built");
        assert_eq!((built.next, built.effect), (7, Some(Effect::global())));
        assert_eq!(applied, 1, "the kept offer, once");
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

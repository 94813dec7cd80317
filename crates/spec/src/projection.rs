//! Granularity projections: the abstraction relation between specifications of
//! different granularities.
//!
//! Composing modules at mixed granularities is only sound when the coarse module
//! specifications admit exactly the cross-module interactions of the finer ones (§3.2).
//! The refinement checker (`remix-checker::refine`) verifies this *semantically* by
//! exploring both compositions and comparing them under a [`TraceProjection`] — a triple
//! of
//!
//! * a **state projection**: the externally visible part of a state at the coarse
//!   granularity, with the internal bookkeeping of the coarsened modules (votes,
//!   notification messages, thread queues) normalized away;
//! * a **label projection**: which fine action labels are visible at the coarse
//!   granularity (`None` = internal step that the coarse side matches by stuttering);
//! * a **stability predicate**: whether a state is *between* coarse steps.  A coarse
//!   action such as `ElectionAndDiscovery` (Figure 5b) executes many fine transitions
//!   atomically; fine states inside that stretch correspond to no coarse state at all
//!   and are only compared once the stretch completes ("commit points" of the
//!   coarsening).
//!
//! The checker compares projected states by their [`key`](TraceProjection::key), a
//! 64-bit hash that is equal exactly when the projections are: by default the hash of
//! [`project_state`](TraceProjection::project_state), or a cheaper function with the
//! same equality set with [`with_key`](TraceProjection::with_key) (the Zab projections
//! hash memoized per-component projection hashes instead of building the map).  The
//! `Value` form is then only built to render divergences and projected traces.
//!
//! [`TraceProjection::project_trace`] applies all three to a concrete trace, producing
//! the condensed, stable-snapshot [`ProjectedTrace`] on which trace equivalence (the
//! `~` relation of Appendix B.4) is decided.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::action::Granularity;
use crate::fingerprint::fingerprint;
use crate::spec::SpecState;
use crate::trace::{condense, ProjectedStep, ProjectedTrace, Trace};
use crate::value::Value;

/// Function projecting a state onto its externally visible variables.
pub type StateProjectionFn<S> = Arc<dyn Fn(&S) -> BTreeMap<String, Value> + Send + Sync>;

/// Function keying a state by its projection (see [`TraceProjection::key`]).
pub type StateKeyFn<S> = Arc<dyn Fn(&S) -> u64 + Send + Sync>;

/// Function mapping a fine action label onto the coarse label space (`None` = internal).
pub type LabelProjectionFn = Arc<dyn Fn(&str) -> Option<String> + Send + Sync>;

/// Predicate deciding whether a state lies between coarse steps (a commit point).
pub type StabilityFn<S> = Arc<dyn Fn(&S) -> bool + Send + Sync>;

/// The abstraction relation between two granularities of one specification library.
#[derive(Clone)]
pub struct TraceProjection<S> {
    /// Human-readable name, e.g. `"Coarse⊑Baseline(Election+Discovery)"`.
    pub name: String,
    /// The coarse (abstract) granularity of the pair.
    pub coarse: Granularity,
    /// The fine (concrete) granularity of the pair.
    pub fine: Granularity,
    state: StateProjectionFn<S>,
    /// `None` while the key is the hash of `state`'s value.
    key: Option<StateKeyFn<S>>,
    label: LabelProjectionFn,
    stable: StabilityFn<S>,
    /// Whether the projection is *equivariant* under the state type's symmetry group:
    /// renaming process ids before projecting yields the same projected class as
    /// projecting first (see [`TraceProjection::assume_equivariant`]).
    equivariant: bool,
}

impl<S: SpecState> TraceProjection<S> {
    /// Creates the identity projection between two granularities: every variable is
    /// visible, every label is visible unchanged, and every state is stable.
    ///
    /// `coarse` must strictly abstract `fine` ([`Granularity::abstracts`]); the
    /// constructor asserts this so ill-ordered pairs fail loudly at construction time.
    pub fn identity(name: impl Into<String>, coarse: Granularity, fine: Granularity) -> Self {
        assert!(
            coarse.abstracts(fine),
            "{coarse} does not abstract {fine}: projections go from fine to coarse"
        );
        TraceProjection {
            name: name.into(),
            coarse,
            fine,
            state: Arc::new(|s: &S| {
                let vars = S::variable_names();
                s.project(&vars)
            }),
            key: None,
            label: Arc::new(|l: &str| Some(l.to_owned())),
            stable: Arc::new(|_| true),
            equivariant: false,
        }
    }

    /// Replaces the state projection.  The key goes back to the hash of the new
    /// projection, so a key set earlier can never disagree with it.
    pub fn with_state(
        mut self,
        state: impl Fn(&S) -> BTreeMap<String, Value> + Send + Sync + 'static,
    ) -> Self {
        self.state = Arc::new(state);
        self.key = None;
        self
    }

    /// Replaces the projection key by a cheaper function with the same contract as the
    /// default (see [`TraceProjection::key`]).  Set it after the state projection it
    /// keys: [`TraceProjection::with_state`] resets it.
    pub fn with_key(mut self, key: impl Fn(&S) -> u64 + Send + Sync + 'static) -> Self {
        self.key = Some(Arc::new(key));
        self
    }

    /// Replaces the label projection.
    pub fn with_label(
        mut self,
        label: impl Fn(&str) -> Option<String> + Send + Sync + 'static,
    ) -> Self {
        self.label = Arc::new(label);
        self
    }

    /// Replaces the stability predicate.
    pub fn with_stability(mut self, stable: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        self.stable = Arc::new(stable);
        self
    }

    /// Declares the projection *equivariant* under the state type's symmetry group:
    /// for every state `s`, permutation `π` and this projection `p`, `p(π(s))` and
    /// `p(s)` are the same projected class (e.g. the projection only exposes
    /// permutation-invariant summaries — multisets, cardinalities, budgets — rather
    /// than per-process-indexed values), and the stability predicate agrees on a
    /// state and its renamings.  So must the [key](TraceProjection::key): a key set
    /// with [`TraceProjection::with_key`] must agree on a state and its renamings too.
    ///
    /// This is the soundness precondition for running the refinement checker with
    /// `SymmetryMode::Canonicalize`: the checker only keys a refinement comparison on
    /// canonical forms when the projection carries this declaration, because a
    /// non-equivariant projection would let the two sides pick different
    /// representatives of one projected class and report a spurious divergence.  The
    /// declaration is a promise by the projection author — it is not checked.
    pub fn assume_equivariant(mut self) -> Self {
        self.equivariant = true;
        self
    }

    /// Whether [`TraceProjection::assume_equivariant`] was declared.
    pub fn is_equivariant(&self) -> bool {
        self.equivariant
    }

    /// Projects one state onto its externally visible variables.
    pub fn project_state(&self, state: &S) -> BTreeMap<String, Value> {
        (self.state)(state)
    }

    /// The 64-bit key of `state`'s projected class: `key(a) == key(b)` exactly when
    /// `project_state(a) == project_state(b)`, up to 64-bit hash collisions (a
    /// collision can only merge two classes, which masks a divergence and never
    /// invents one).  By default it is the [`fingerprint`] of
    /// [`TraceProjection::project_state`]; [`TraceProjection::with_key`] replaces it.
    pub fn key(&self, state: &S) -> u64 {
        match &self.key {
            Some(key) => key(state),
            None => fingerprint(&self.project_state(state)).0,
        }
    }

    /// Maps a fine action label onto the coarse label space (`None` = internal step).
    pub fn project_label(&self, label: &str) -> Option<String> {
        (self.label)(label)
    }

    /// Returns `true` when `state` is a commit point of the coarsening (it corresponds
    /// to a coarse state and participates in the refinement comparison).
    pub fn is_stable(&self, state: &S) -> bool {
        (self.stable)(state)
    }

    /// Projects a trace: keeps the stable snapshots, projects each onto the visible
    /// variables, maps the labels, and condenses away stuttering steps.
    ///
    /// The result is total on every trace (projection never fails): unstable steps are
    /// folded into the preceding stable snapshot, internal labels are replaced by `"τ"`
    /// when the projected state still changed (which the condensation then keeps), and
    /// repeated projections are dropped.
    pub fn project_trace(&self, trace: &Trace<S>) -> ProjectedTrace {
        let mut steps: Vec<ProjectedStep> = Vec::new();
        for (i, step) in trace.steps.iter().enumerate() {
            if !self.is_stable(&step.state) {
                continue;
            }
            let action = if i == 0 {
                step.action.clone()
            } else {
                self.project_label(&step.action)
                    .unwrap_or_else(|| "τ".to_owned())
            };
            steps.push(ProjectedStep {
                action,
                vars: self.project_state(&step.state),
            });
        }
        condense(&ProjectedTrace { steps })
    }
}

impl<S> fmt::Debug for TraceProjection<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceProjection")
            .field("name", &self.name)
            .field("coarse", &self.coarse)
            .field("fine", &self.fine)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil::Counters;

    fn sample() -> Trace<Counters> {
        let mut t = Trace::from_init(Counters { x: 0, y: 0 });
        t.push("IncX(0)", Counters { x: 1, y: 0 });
        t.push("IncY(0)", Counters { x: 1, y: 1 });
        t.push("IncX(1)", Counters { x: 2, y: 1 });
        t
    }

    fn y_projection() -> TraceProjection<Counters> {
        TraceProjection::identity("y-only", Granularity::Coarse, Granularity::Baseline)
            .with_state(|s: &Counters| s.project(&["y"]))
            .with_label(|l: &str| {
                if l.starts_with("IncY") {
                    Some(l.to_owned())
                } else {
                    None
                }
            })
    }

    #[test]
    #[should_panic(expected = "does not abstract")]
    fn identity_rejects_ill_ordered_pairs() {
        let _ = TraceProjection::<Counters>::identity(
            "bad",
            Granularity::FineAtomic,
            Granularity::Coarse,
        );
    }

    #[test]
    fn identity_projection_keeps_everything() {
        let p: TraceProjection<Counters> =
            TraceProjection::identity("id", Granularity::Coarse, Granularity::Baseline);
        let t = sample();
        let projected = p.project_trace(&t);
        assert_eq!(projected.steps.len(), 4);
        assert_eq!(projected.steps[1].action, "IncX(0)");
        assert!(p.is_stable(&Counters { x: 0, y: 0 }));
        assert_eq!(p.project_label("IncX(0)"), Some("IncX(0)".to_owned()));
    }

    #[test]
    fn state_and_label_projections_condense_internal_steps() {
        let p = y_projection();
        let t = sample();
        let projected = p.project_trace(&t);
        // Only the y-changing step survives condensation; the IncX steps stutter.
        assert_eq!(projected.steps.len(), 2);
        assert_eq!(projected.steps[1].action, "IncY(0)");
        assert_eq!(projected.steps[1].vars["y"], Value::Int(1));
        // Projection is idempotent: condensing the projected trace is a fixed point.
        assert_eq!(condense(&projected), projected);
    }

    #[test]
    fn unstable_snapshots_are_skipped() {
        // States with x > y are "mid-step" for this toy coarsening.
        let p = y_projection().with_stability(|s: &Counters| s.x == s.y);
        let t = sample();
        let projected = p.project_trace(&t);
        // Only (0, 0) and (1, 1) are stable; their y-projections are 0 and 1.
        assert_eq!(projected.steps.len(), 2);
        assert_eq!(projected.steps[0].vars["y"], Value::Int(0));
        assert_eq!(projected.steps[1].vars["y"], Value::Int(1));
    }

    #[test]
    fn the_default_key_hashes_the_projection() {
        let p = y_projection();
        let (a, b) = (Counters { x: 0, y: 1 }, Counters { x: 5, y: 1 });
        assert_eq!(p.key(&a), fingerprint(&p.project_state(&a)).0);
        assert_eq!(p.key(&a), p.key(&b), "x is projected away");
        assert_ne!(p.key(&a), p.key(&Counters { x: 0, y: 2 }));
    }

    #[test]
    fn with_state_after_with_key_restores_the_derived_key() {
        let s = Counters { x: 3, y: 4 };
        let keyed = y_projection().with_key(|_| 7);
        assert_eq!(keyed.key(&s), 7);
        let reset = keyed.with_state(|s: &Counters| s.project(&["x"]));
        assert_eq!(reset.key(&s), fingerprint(&reset.project_state(&s)).0);
        assert_ne!(reset.key(&s), 7);
    }

    #[test]
    fn internal_label_with_visible_change_becomes_tau() {
        // Everything visible in the state, but all labels internal: changes show as τ.
        let p: TraceProjection<Counters> =
            TraceProjection::identity("tau", Granularity::Coarse, Granularity::Baseline)
                .with_label(|_| None);
        let projected = p.project_trace(&sample());
        assert!(projected.steps.iter().skip(1).all(|s| s.action == "τ"));
        assert_eq!(projected.steps.len(), 4, "x/y change on every step");
    }
}

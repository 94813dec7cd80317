//! Granularity projections: the abstraction relation between specifications of
//! different granularities.
//!
//! Composing modules at mixed granularities is only sound when the coarse module
//! specifications admit exactly the cross-module interactions of the finer ones (§3.2).
//! The refinement checker (`remix-checker::refine`) verifies this *semantically* by
//! exploring both compositions and comparing them under a [`TraceProjection`] — a pair
//! of:
//!
//! * a **state projection**: the externally visible part of a state at the coarse
//!   granularity, with the internal bookkeeping of the coarsened modules (votes,
//!   notification messages, thread queues) normalized away;
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
//! `Value` form is then only built to render divergences.
//!
//! Both are applied state by state, as the checker folds each side into a quotient; no
//! trace is ever projected as a whole, and action labels are never compared: the fine
//! steps between two stable states are matched by whatever coarse path joins their
//! projections.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::action::Granularity;
use crate::fingerprint::fingerprint;
use crate::spec::SpecState;
use crate::value::Value;

/// Function projecting a state onto its externally visible variables.
pub type StateProjectionFn<S> = Arc<dyn Fn(&S) -> BTreeMap<String, Value> + Send + Sync>;

/// Function keying a state by its projection (see [`TraceProjection::key`]).
pub type StateKeyFn<S> = Arc<dyn Fn(&S) -> u64 + Send + Sync>;

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
    stable: StabilityFn<S>,
}

impl<S: SpecState> TraceProjection<S> {
    /// Creates the projection between two granularities that maps each state through
    /// `state` and treats every state as stable;
    /// [`with_stability`](TraceProjection::with_stability) replaces the latter.
    ///
    /// `coarse` must strictly abstract `fine` ([`Granularity::abstracts`]); the
    /// constructor asserts this so ill-ordered pairs fail loudly at construction time.
    pub fn new(
        name: impl Into<String>,
        coarse: Granularity,
        fine: Granularity,
        state: impl Fn(&S) -> BTreeMap<String, Value> + Send + Sync + 'static,
    ) -> Self {
        assert!(
            coarse.abstracts(fine),
            "{coarse} does not abstract {fine}: projections go from fine to coarse"
        );
        TraceProjection {
            name: name.into(),
            coarse,
            fine,
            state: Arc::new(state),
            key: None,
            stable: Arc::new(|_| true),
        }
    }

    /// Replaces the projection key by a cheaper function with the same contract as the
    /// default (see [`TraceProjection::key`]).
    pub fn with_key(mut self, key: impl Fn(&S) -> u64 + Send + Sync + 'static) -> Self {
        self.key = Some(Arc::new(key));
        self
    }

    /// Replaces the stability predicate.
    pub fn with_stability(mut self, stable: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        self.stable = Arc::new(stable);
        self
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

    /// Returns `true` when `state` is a commit point of the coarsening (it corresponds
    /// to a coarse state and participates in the refinement comparison).
    pub fn is_stable(&self, state: &S) -> bool {
        (self.stable)(state)
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

    fn only_y(s: &Counters) -> BTreeMap<String, Value> {
        BTreeMap::from([("y".to_owned(), Value::from(s.y))])
    }

    fn y_projection() -> TraceProjection<Counters> {
        TraceProjection::new("y-only", Granularity::Coarse, Granularity::Baseline, only_y)
    }

    #[test]
    #[should_panic(expected = "does not abstract")]
    fn new_rejects_ill_ordered_pairs() {
        let _ = TraceProjection::<Counters>::new(
            "bad",
            Granularity::FineAtomic,
            Granularity::Coarse,
            only_y,
        );
    }

    #[test]
    fn new_keeps_every_label_and_every_state() {
        let p = TraceProjection::new("y", Granularity::Coarse, Granularity::Baseline, only_y);
        let s = Counters { x: 2, y: 1 };
        assert_eq!(p.project_state(&s), only_y(&s));
        assert!(p.is_stable(&Counters { x: 0, y: 0 }));
        assert!(p.is_stable(&s));
    }

    #[test]
    fn unstable_snapshots_are_skipped() {
        // States with x > y are "mid-step" for this toy coarsening.
        let p = y_projection().with_stability(|s: &Counters| s.x == s.y);
        let walk = [(0, 0), (1, 0), (1, 1), (2, 1)].map(|(x, y)| Counters { x, y });
        let stable: Vec<_> = walk.iter().filter(|s| p.is_stable(s)).collect();
        // Only (0, 0) and (1, 1) are compared; their y-projections are 0 and 1.
        assert_eq!(stable, [&walk[0], &walk[2]]);
        assert_eq!(p.project_state(stable[0])["y"], Value::Int(0));
        assert_eq!(p.project_state(stable[1])["y"], Value::Int(1));
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
    fn with_key_replaces_the_derived_key() {
        let s = Counters { x: 3, y: 4 };
        let keyed = y_projection().with_key(|s: &Counters| u64::from(s.y) + 7);
        assert_eq!(keyed.key(&s), 11);
        assert_eq!(keyed.project_state(&s), only_y(&s), "the Value form stays");
    }
}

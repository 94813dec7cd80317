//! Complete specifications: initial states, a next-state relation and invariants.

use std::fmt;
use std::hash::{Hash, Hasher};

use std::sync::Arc;

use crate::action::{ActionDef, Granularity, Offer, Sink};
use crate::effect::Effect;
use crate::invariant::Invariant;
use crate::label::{LabelId, LabelTable};
use crate::module::{ModuleId, ModuleSpec};
use crate::shared::{InternPool, Shared};
use crate::symmetry::{Canonicalize, Perm};

/// A canonicalization function attached to a [`Spec`]: maps a state to the canonical
/// representative of its orbit under the specification's symmetry group, returning the
/// permutation that was applied (see [`Canonicalize`]).
///
/// Stored type-erased so `Spec` stays usable for state types without a symmetry group,
/// and checker options can switch symmetry reduction on and off without generic bounds.
pub type CanonFn<S> = Arc<dyn Fn(&S) -> (S, Perm) + Send + Sync>;

/// The owned form of a [`CanonFn`] ([`Canonicalize::canonicalize_owned`]): it consumes
/// the state, so a state that is already canonical comes back without a clone.
pub type OwnedCanonFn<S> = Arc<dyn Fn(S) -> (S, Perm) + Send + Sync>;

/// Trait bound for states explored by the model checker.
///
/// States must be cloneable, hashable and comparable.  Every method is provided, so a
/// toy state needs nothing but `impl SpecState for T {}`; a type built on [`Shared`]
/// components overrides [`hash_key`](SpecState::hash_key),
/// [`intern`](SpecState::intern) and [`from_row`](SpecState::from_row) to key and store
/// itself component by component.  Viewing a state as [`Value`](crate::Value)s is not
/// the trait's business: a refinement check is handed its state projection as a
/// function ([`TraceProjection::new`](crate::TraceProjection::new)).
pub trait SpecState: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static {
    /// Feeds the stream of the exhaustive engines' state key (`remix-checker`'s
    /// `state_key`): what a fingerprint-only store routes and dedups on, and what
    /// breaks ties between same-depth states.  A Full store dedups on the row
    /// [`SpecState::intern`] writes and asks for no key, so on its duplicate edges this
    /// is never called.  Like `Hash`, it must be a function of the state's *value* that
    /// separates unequal states; unlike `Hash`, nothing outside the store depends on
    /// its bytes, so a type built on [`Shared`] components feeds each
    /// component's memoized [`digest`](crate::Shared::digest) here and re-hashes only
    /// what an action wrote.  The default is the `Hash` stream itself.
    fn hash_key<H: Hasher>(&self, hasher: &mut H) {
        self.hash(hasher);
    }

    /// Hands the state to a store's `pool`, and (when `row` is given) writes the state
    /// down as a **row** of `u32` words from which [`SpecState::from_row`] rebuilds it:
    /// the pool slots of its parts ([`Shared::intern`](crate::Shared::intern)) and
    /// whatever scalars fit a word.  The state's value must not change, every state of
    /// one specification must append the same number of words (at least one), and a
    /// word may depend on nothing but the state's value and `pool`.  The store keeps rows
    /// in 16-bit units while their words fit in one, so small words halve what a row
    /// costs.
    ///
    /// A store that keeps states (`StoreMode::Full`) calls this once per insert, before
    /// its dedup probe: the row is the state's identity there, compared word for word,
    /// so equal states must write equal rows (and unequal ones unequal rows, which
    /// [`from_row`](SpecState::from_row) needs anyway).  A duplicate's parts are pooled
    /// already, so interning it never grows the pool.  `row` is `None` when the store
    /// keeps no states (`StoreMode::FingerprintOnly`), which calls this once per
    /// distinct state: only the sharing is wanted then — a type built on [`Shared`]
    /// components still replaces each by the pool's allocation of its value, so that
    /// the frontier shares them.  Either way it runs before the store hands the state
    /// back.
    ///
    /// The default treats the whole state as one pooled component: a one-word row,
    /// and nothing at all without a row to write.
    fn intern(&mut self, pool: &mut InternPool, row: Option<&mut Vec<u32>>) {
        if let Some(row) = row {
            row.push(Shared::new(self.clone()).intern(pool));
        }
    }

    /// The inverse of [`SpecState::intern`]: the state `row` was written for, read
    /// back out of the same `pool`.
    fn from_row(row: &[u32], pool: &InternPool) -> Self {
        (*pool.get::<Self>(row[0])).clone()
    }
}

/// A complete specification: `Init /\ [][Next]_vars` plus invariants.
///
/// The next-state relation is the disjunction of all actions of all selected module
/// specifications (the composition style of Figure 7).
#[derive(Clone)]
pub struct Spec<S> {
    /// Human-readable name, e.g. `"mSpec-3"`.
    pub name: String,
    /// The initial states.
    pub init: Vec<S>,
    /// The module specifications composing the next-state relation.
    pub modules: Vec<ModuleSpec<S>>,
    /// The invariants checked on every reachable state.
    pub invariants: Vec<Invariant<S>>,
    /// The specification's symmetry group, as a canonicalization function (`None` for
    /// state types without one).  Engines consult it only when their options request
    /// symmetry reduction; see [`Spec::with_canonicalization`].
    pub symmetry: Option<CanonFn<S>>,
    /// The owned form of [`symmetry`](Self::symmetry), attached with it by
    /// [`Spec::with_canonicalization`].  Engines canonicalize each successor through it
    /// when it is set, and through `symmetry` on a borrow otherwise (a spec whose
    /// `symmetry` field was set by hand); it is never consulted without `symmetry`.
    pub symmetry_owned: Option<OwnedCanonFn<S>>,
}

impl<S: SpecState> Spec<S> {
    /// Creates a specification from its parts.
    pub fn new(
        name: impl Into<String>,
        init: Vec<S>,
        modules: Vec<ModuleSpec<S>>,
        invariants: Vec<Invariant<S>>,
    ) -> Self {
        Spec {
            name: name.into(),
            init,
            modules,
            invariants,
            symmetry: None,
            symmetry_owned: None,
        }
    }

    /// Attaches the canonical-representative function of the state type's
    /// [`Canonicalize`] implementation as this specification's symmetry group, in
    /// both its borrowed and its owned form.
    ///
    /// Attaching symmetry does not change any behaviour by itself: the BFS engine
    /// keys its dedup maps and fingerprints on canonical forms only when its options
    /// select `SymmetryMode::Canonicalize` (`with_symmetry` on `remix-checker`'s
    /// `CheckOptions`).
    pub fn with_canonicalization(mut self) -> Self
    where
        S: Canonicalize,
    {
        self.symmetry = Some(Arc::new(|s: &S| s.canonicalize()));
        self.symmetry_owned = Some(Arc::new(|s: S| s.canonicalize_owned()));
        self
    }

    /// Offers every enabled instance of the next-state relation in `state` to `sink`,
    /// action by action in module order (see [`ActionDef`]'s offer contract).  This is
    /// the one enumeration protocol: every other enumeration is a sink over it.
    pub fn offer(&self, state: &S, sink: &mut dyn Sink<S>) {
        for action in self.actions() {
            action.offer(state, sink);
        }
    }

    /// Enumerates all successors of `state` under the next-state relation, labelled with
    /// the fully instantiated action name, rendered.
    pub fn successors(&self, state: &S) -> Vec<(String, S)> {
        let mut out = Vec::new();
        self.offer(state, &mut |offer: Offer<'_, S>| {
            let inst = offer.build(state);
            out.push((inst.label.to_string(), inst.next));
        });
        out
    }

    /// Streams all successors of `state` to `f`, interning each instantiated label into
    /// `labels` and handing over the dense [`LabelId`] instead of the label.
    ///
    /// This is the checker's hot-path variant of [`Spec::successors`]: every offer is
    /// built (the parent cloned and the update applied) and handed over as it comes, no
    /// successor vector is built, and no label is rendered — a typed
    /// [`Label`](crate::Label) is looked up as it is, and rendered once per *distinct*
    /// label for the whole run — so downstream bookkeeping stores a `u32` per
    /// transition rather than a heap string.
    ///
    /// The third closure argument is the instance's declared [`Effect`] footprint
    /// (`None` when the action does not declare one), which drives partial-order
    /// reduction in the checker.
    pub fn for_each_successor(
        &self,
        state: &S,
        labels: &LabelTable,
        mut f: impl FnMut(LabelId, S, Option<Effect>),
    ) {
        self.offer(state, &mut |offer: Offer<'_, S>| {
            let inst = offer.build(state);
            f(labels.intern_label(inst.label), inst.next, inst.effect);
        });
    }

    /// Returns the invariants violated by `state` (empty when all hold).
    pub fn violated_invariants(&self, state: &S) -> Vec<&Invariant<S>> {
        self.invariants
            .iter()
            .filter(|inv| !inv.holds(state))
            .collect()
    }

    /// Returns the granularity chosen for `module`, if the module is part of this
    /// specification.
    pub fn module_granularity(&self, module: ModuleId) -> Option<Granularity> {
        self.modules
            .iter()
            .find(|m| m.module == module)
            .map(|m| m.granularity)
    }

    /// All actions of the composed next-state relation, in module order.
    pub fn actions(&self) -> impl Iterator<Item = &ActionDef<S>> {
        self.modules.iter().flat_map(|m| m.actions.iter())
    }

    /// Total number of actions (reported in Table 3).
    pub fn action_count(&self) -> usize {
        self.modules.iter().map(|m| m.action_count()).sum()
    }

    /// Number of distinct variables mentioned by the composed actions (Table 3).
    pub fn variable_count(&self) -> usize {
        self.modules
            .iter()
            .flat_map(|m| m.variable_set())
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }

    /// The composition matrix: module → granularity (Table 1 rows).
    pub fn composition(&self) -> Vec<(ModuleId, Granularity)> {
        self.modules
            .iter()
            .map(|m| (m.module, m.granularity))
            .collect()
    }
}

impl<S> fmt::Debug for Spec<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Spec")
            .field("name", &self.name)
            .field("init_states", &self.init.len())
            .field("modules", &self.modules.len())
            .field("invariants", &self.invariants.len())
            .field("symmetry", &self.symmetry.is_some())
            .field("symmetry_owned", &self.symmetry_owned.is_some())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A tiny two-counter specification used by unit tests across the crate.

    use super::*;
    use crate::invariant::InvariantSource;

    /// A toy state with two counters owned by two different "modules".
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct Counters {
        pub x: u32,
        pub y: u32,
    }

    impl SpecState for Counters {}

    pub const MOD_X: ModuleId = ModuleId("X");
    pub const MOD_Y: ModuleId = ModuleId("Y");

    pub fn spec(max: u32) -> Spec<Counters> {
        let inc_x = ActionDef::new(
            "IncX",
            MOD_X,
            Granularity::Baseline,
            vec!["x"],
            vec!["x"],
            move |s: &Counters, sink| {
                if s.x < max {
                    sink.offer(format!("IncX({})", s.x), None, |next| next.x += 1);
                }
            },
        );
        let inc_y = ActionDef::new(
            "IncY",
            MOD_Y,
            Granularity::Baseline,
            vec!["x", "y"],
            vec!["y"],
            move |s: &Counters, sink| {
                // `y` may only grow while it is below `x` (an interaction with module X).
                if s.y < s.x {
                    sink.offer(format!("IncY({})", s.y), None, |next| next.y += 1);
                }
            },
        );
        let inv = Invariant::always(
            "INV-ORD",
            "y never exceeds x",
            InvariantSource::Protocol,
            |s: &Counters| s.y <= s.x,
        );
        Spec::new(
            "counters",
            vec![Counters { x: 0, y: 0 }],
            vec![
                ModuleSpec::new(MOD_X, Granularity::Baseline, vec![inc_x]),
                ModuleSpec::new(MOD_Y, Granularity::Baseline, vec![inc_y]),
            ],
            vec![inv],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{spec, Counters, MOD_X};
    use super::*;

    #[test]
    fn successors_enumerate_all_enabled_actions() {
        let s = spec(2);
        let succ = s.successors(&Counters { x: 1, y: 0 });
        let labels: Vec<_> = succ.iter().map(|(l, _)| l.clone()).collect();
        assert!(labels.contains(&"IncX(1)".to_owned()));
        assert!(labels.contains(&"IncY(0)".to_owned()));
        assert_eq!(succ.len(), 2);
    }

    #[test]
    fn interned_successors_match_the_allocating_enumeration() {
        let s = spec(2);
        let labels = crate::label::LabelTable::new();
        let state = Counters { x: 1, y: 0 };
        let mut interned = Vec::new();
        s.for_each_successor(&state, &labels, |id, next, _effect| {
            interned.push((labels.resolve(id), next));
        });
        assert_eq!(s.successors(&state), interned);
        // Re-enumeration interns nothing new.
        let before = labels.len();
        s.for_each_successor(&state, &labels, |_, _, _| {});
        assert_eq!(labels.len(), before);
    }

    #[test]
    fn invariants_and_metadata() {
        let s = spec(2);
        assert!(s.violated_invariants(&Counters { x: 0, y: 0 }).is_empty());
        assert_eq!(s.violated_invariants(&Counters { x: 0, y: 1 }).len(), 1);
        assert_eq!(s.action_count(), 2);
        assert_eq!(s.variable_count(), 2);
        assert_eq!(s.module_granularity(MOD_X), Some(Granularity::Baseline));
        assert_eq!(s.module_granularity(ModuleId("Z")), None);
        assert_eq!(s.composition().len(), 2);
    }

    #[test]
    fn the_default_row_is_the_slot_of_the_whole_state() {
        let mut pool = InternPool::new();
        let mut row = Vec::new();
        let mut states = [Counters { x: 3, y: 1 }, Counters { x: 0, y: 0 }];
        for state in &mut states {
            state.intern(&mut pool, Some(&mut row));
        }
        assert_eq!(row, [0, 1], "one word per state");
        assert_eq!(Counters::from_row(&row[1..], &pool), states[1]);
        assert_eq!(Counters::from_row(&row[..1], &pool), states[0]);
        // Without a row to write there is nothing to keep.
        states[0].x = 9;
        states[0].intern(&mut pool, None);
        assert_eq!(pool.len(), 2);
    }
}

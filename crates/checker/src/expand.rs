//! The successor pipeline and the init-state seeding, each written once.
//!
//! Every exhaustive engine does the same thing to an enumerated successor before the
//! store sees it: skip it if its label is asleep (sleep-set POR, see [`crate::por`]),
//! compute the sleep set it hands down, replace it by its orbit's canonical
//! representative (by value: an already canonical successor is not cloned), and reset
//! the sleep set if canonicalization relabelled it.  It does not key the successor: a
//! [`StoreMode::Full`](crate::store::StoreMode) store dedups on the row it writes and
//! routes it to a stripe by the row's hash, so the store's insert
//! ([`StateStore::insert`]) keys a successor only for a fingerprint-only store, which
//! computes `state_key`
//! (a hash over memoized component digests, so only what the action wrote is hashed).
//! The level-synchronous kernel and [`crate::dfs`] both call [`Pipeline::expand`]; it
//! is the only caller of `Spec::for_each_successor` in this crate (the
//! `single-successor-pipeline` lint rule keeps it that way).  Only BFS turns the
//! reductions on: DFS, refinement and `corpus` build the pipeline with both off.

use remix_spec::{CanonFn, Effect, LabelId, LabelTable, OwnedCanonFn, Perm, Spec, SpecState};

use crate::por::{self, FootprintTable, SleepSet};
use crate::store::{Insert, StateIndex, StateStore};

/// One successor that survived pruning, ready for a dedup insert.
pub(crate) struct Successor<S> {
    pub(crate) label: LabelId,
    /// The successor — the canonical representative of its orbit under symmetry.
    pub(crate) state: S,
    /// The permutation that canonicalized `state` (`None` when symmetry is off).
    pub(crate) perm: Option<Perm>,
    /// The sleep set this edge hands down to its target (empty when POR is off).
    pub(crate) sleep: SleepSet,
}

/// A specification together with the reductions one run applies to it.
pub(crate) struct Pipeline<'a, S> {
    pub(crate) spec: &'a Spec<S>,
    pub(crate) labels: &'a LabelTable,
    /// The active canonicalization function (`None` when symmetry is off or the spec
    /// has no symmetry group).  When set, frontiers and the store hold canonical
    /// representatives and traces are de-canonicalized on reconstruction.
    pub(crate) canon: Option<&'a CanonFn<S>>,
    /// The owned form of `canon`, which successors go through when the spec has one;
    /// only ever active together with `canon`.
    owned: Option<&'a OwnedCanonFn<S>>,
    /// Sleep-set partial-order reduction is active.
    pub(crate) por: bool,
    /// Declared footprint per interned label (grown lazily as labels are explored).
    footprints: FootprintTable,
}

impl<'a, S: SpecState> Pipeline<'a, S> {
    /// `symmetry` requests canonicalization; it is a no-op for specs without a
    /// symmetry group.
    pub(crate) fn new(
        spec: &'a Spec<S>,
        labels: &'a LabelTable,
        symmetry: bool,
        por: bool,
    ) -> Self {
        let canon = spec.symmetry.as_ref().filter(|_| symmetry);
        Pipeline {
            spec,
            labels,
            canon,
            owned: canon.and(spec.symmetry_owned.as_ref()),
            por,
            footprints: FootprintTable::new(),
        }
    }

    /// Inserts the (canonicalized) initial states, handing each distinct one to `fresh`.
    pub(crate) fn seed(&self, store: &StateStore<S>, mut fresh: impl FnMut(StateIndex, S)) {
        for init in &self.spec.init {
            let (state, perm) = match self.canon {
                Some(canon) => {
                    let (canonical, perm) = canon(init);
                    (canonical, Some(perm))
                }
                None => (init.clone(), None),
            };
            let (insert, _) = store.insert(None, LabelTable::init_id(), state, perm);
            if let Insert::Fresh(index, state) = insert {
                fresh(index, state);
            }
        }
    }

    /// Streams the successors of `state` that survive the sleep set `sleep_in` (sorted;
    /// empty when POR is off) to `emit`, returning `(explored, pruned)` edge counts.
    ///
    /// `emit` runs inside the enumeration callback and must stay lock-free like the
    /// rest of it (the `no-lock-in-successor-callback` rule): buffer, flush later.
    pub(crate) fn expand(
        &self,
        state: &S,
        sleep_in: &[LabelId],
        mut emit: impl FnMut(Successor<S>),
    ) -> (u64, u64) {
        let sleep_in_effects: Vec<(LabelId, Effect)> = if sleep_in.is_empty() {
            Vec::new()
        } else {
            self.footprints.resolve(sleep_in)
        };
        // Explored earlier siblings with a declared footprint, in enumeration order.
        let mut retained: Vec<(LabelId, Effect)> = Vec::new();
        // Effects observed during this expansion; recorded into the (locked) footprint
        // table only after the callback returns.  Recording is first-writer-wins over
        // values that are a function of the label alone, so deferring changes nothing.
        let mut fresh_effects: Vec<(LabelId, Effect)> = Vec::new();
        let (mut explored, mut pruned) = (0u64, 0u64);
        self.spec
            .for_each_successor(state, self.labels, |label, next, effect| {
                if self.por && sleep_in.binary_search(&label).is_ok() {
                    // Already covered through a sibling interleaving of an earlier
                    // edge: skip before canonicalization and the insert.
                    pruned += 1;
                    return;
                }
                explored += 1;
                let mut sleep = SleepSet::new();
                if self.por {
                    if let Some(e) = effect {
                        fresh_effects.push((label, e));
                    }
                    sleep = por::child_sleep(&sleep_in_effects, &retained, effect);
                    if let Some(e) = effect.filter(|e| !e.is_global()) {
                        retained.push((label, e));
                    }
                }
                // Under symmetry the successor is replaced by the canonical
                // representative of its orbit before the insert, so the whole
                // orbit dedups to one store entry; the applied permutation rides
                // along for later trace de-canonicalization.
                let (next, perm) = match (self.owned, self.canon) {
                    (Some(owned), _) => {
                        let (canonical, perm) = owned(next);
                        (canonical, Some(perm))
                    }
                    (None, Some(canon)) => {
                        let (canonical, perm) = canon(&next);
                        (canonical, Some(perm))
                    }
                    (None, None) => (next, None),
                };
                // Sleep-set labels live in the parent's id frame; a relabelling edge
                // invalidates them, so the child starts awake (always sound).
                if perm.is_some_and(|p| !p.is_identity()) {
                    sleep.clear();
                }
                emit(Successor {
                    label,
                    state: next,
                    perm,
                    sleep,
                });
            });
        for (label, effect) in fresh_effects {
            self.footprints.record(label, effect);
        }
        (explored, pruned)
    }
}

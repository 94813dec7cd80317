//! Sleep-set dynamic partial-order reduction for the BFS engine (`check_dfs` refuses it).
//!
//! # What is pruned
//!
//! Two transitions with declared read/write footprints ([`Effect`]) that are
//! *independent* ([`Effect::independent`]) commute: firing them in either order from a
//! common state reaches the same final state, and neither disables the other.  Plain
//! exploration still walks both interleavings and relies on state dedup to merge the
//! diamond at the far corner — paying a full successor generation (and, under symmetry,
//! a canonicalization) for each redundant edge.  Sleep sets prune those edges *before*
//! they are generated.
//!
//! Each frontier state carries a **sleep set**: labels whose transitions are already
//! covered through a sibling interleaving.  When a state is expanded, transitions whose
//! label is in its sleep set are skipped (counted in `CheckStats::pruned_transitions`);
//! each explored transition `t` passes down the sleep set
//!
//! ```text
//! sleep(child) = { x ∈ sleep(s) ∪ earlier(s, t) : independent(x, t) }
//! ```
//!
//! where `earlier(s, t)` are the explored (not pruned) transitions enumerated before
//! `t` at `s` with declared footprints.  This is Godefroid's classical sleep-set
//! recurrence; the footprint table below supplies the independence relation.
//!
//! # Soundness (safety properties)
//!
//! Sleep sets never remove *states*, only redundant edges between reached states:
//! every reachable state is still reached, so invariant verdicts (and
//! `distinct_states`) are unchanged.  BFS joins the sleep sets of all same-level
//! arrival edges by intersection at the level barrier (a transition is only kept
//! asleep if *every* minimal-depth arrival keeps it asleep), and ignores arrival edges
//! from deeper levels entirely.  An induction over levels shows every state is still
//! discovered at its minimal BFS depth, so minimal counterexample depths — and
//! depth-bounded runs — are also unchanged, and the per-state sleep sets are a function
//! of the level sets alone, making pruned/explored transition counts identical for
//! every worker count.
//!
//! Composition with symmetry reduction is frame-based: sleep sets hold labels in the
//! parent's (canonical) id frame, so they are only propagated across edges whose
//! canonicalizing permutation is the identity — any relabelling edge resets the child's
//! sleep set to empty, which is always sound.  See `ARCHITECTURE.md` for the full
//! argument.

use remix_spec::{Effect, LabelId};

use crate::sync::RwLock;

/// A sorted, deduplicated set of sleeping labels.
pub(crate) type SleepSet = Vec<LabelId>;

/// Write-once table of declared label footprints, indexed by the dense [`LabelId`]
/// space.
///
/// An instance's [`Effect`] must be a function of its label alone (the contract of
/// `ActionInstance::effect`), so every recording for a label carries the same value and
/// first-writer-wins is deterministic.  Labels without a recorded footprint are treated
/// as dependent on everything (they can never justify keeping another label asleep).
/// Its lock is a leaf: nothing else is acquired while a guard of it is held.
pub(crate) struct FootprintTable {
    effects: RwLock<Vec<Option<Effect>>>,
}

impl FootprintTable {
    pub(crate) fn new() -> Self {
        FootprintTable {
            effects: RwLock::new(Vec::new()),
        }
    }

    /// Records `effect` as `label`'s footprint (no-op if already recorded).
    pub(crate) fn record(&self, label: LabelId, effect: Effect) {
        let idx = label.0 as usize;
        {
            let effects = self.effects.read();
            if effects.get(idx).is_some_and(Option::is_some) {
                return;
            }
        }
        let mut effects = self.effects.write();
        if effects.len() <= idx {
            effects.resize(idx + 1, None);
        }
        effects[idx].get_or_insert(effect);
    }

    /// The recorded footprint of `label`, if any.
    #[cfg(test)]
    pub(crate) fn get(&self, label: LabelId) -> Option<Effect> {
        self.effects.read().get(label.0 as usize).copied().flatten()
    }

    /// Resolves a sleep set into `(label, effect)` pairs, dropping labels without a
    /// recorded footprint (they cannot stay asleep across any transition anyway).
    pub(crate) fn resolve(&self, sleep: &[LabelId]) -> Vec<(LabelId, Effect)> {
        let effects = self.effects.read();
        sleep
            .iter()
            .filter_map(|&l| effects.get(l.0 as usize).copied().flatten().map(|e| (l, e)))
            .collect()
    }
}

/// Intersects `cur` (sorted) with `other` (sorted) in place.
pub(crate) fn intersect_sorted(cur: &mut SleepSet, other: &[LabelId]) {
    cur.retain(|x| other.binary_search(x).is_ok());
}

/// The sleep set handed down across the transition `t` (with footprint `effect`):
/// every inherited or earlier-sibling label whose footprint is independent of `t`'s.
/// Returns an empty set for transitions without a usable footprint — they are
/// dependent on everything, so nothing stays asleep across them.
pub(crate) fn child_sleep(
    sleep_in: &[(LabelId, Effect)],
    retained: &[(LabelId, Effect)],
    effect: Option<Effect>,
) -> SleepSet {
    let Some(e) = effect.filter(|e| !e.is_global()) else {
        return Vec::new();
    };
    let mut out: SleepSet = sleep_in
        .iter()
        .chain(retained)
        .filter(|(_, xe)| xe.independent(&e))
        .map(|(x, _)| *x)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_table_is_write_once() {
        let t = FootprintTable::new();
        let a = Effect::new().writes_server(0);
        let b = Effect::new().writes_server(1);
        t.record(LabelId(3), a);
        t.record(LabelId(3), b);
        assert_eq!(t.get(LabelId(3)), Some(a), "first writer wins");
        assert_eq!(t.get(LabelId(0)), None);
        assert_eq!(t.get(LabelId(99)), None);
    }

    #[test]
    fn resolve_drops_unknown_labels() {
        let t = FootprintTable::new();
        let a = Effect::new().writes_server(0);
        t.record(LabelId(1), a);
        let resolved = t.resolve(&[LabelId(0), LabelId(1)]);
        assert_eq!(resolved, vec![(LabelId(1), a)]);
    }

    #[test]
    fn child_sleep_keeps_only_independent_labels() {
        let w0 = Effect::new().writes_server(0);
        let w1 = Effect::new().writes_server(1);
        let w2 = Effect::new().writes_server(2);
        let sleep_in = vec![(LabelId(10), w0), (LabelId(11), w2)];
        let retained = vec![(LabelId(12), w1)];
        // Transition writes server 1: the earlier sibling (also writing 1) conflicts,
        // the inherited labels writing 0 and 2 stay asleep.
        let cs = child_sleep(&sleep_in, &retained, Some(w1));
        assert_eq!(cs, vec![LabelId(10), LabelId(11)]);
        // No declared footprint: nothing survives.
        assert!(child_sleep(&sleep_in, &retained, None).is_empty());
        assert!(child_sleep(&sleep_in, &retained, Some(Effect::global())).is_empty());
    }

    #[test]
    fn intersection_is_sorted_set_intersection() {
        let mut cur = vec![LabelId(1), LabelId(3), LabelId(5)];
        intersect_sorted(&mut cur, &[LabelId(3), LabelId(4), LabelId(5)]);
        assert_eq!(cur, vec![LabelId(3), LabelId(5)]);
        intersect_sorted(&mut cur, &[]);
        assert!(cur.is_empty());
    }
}

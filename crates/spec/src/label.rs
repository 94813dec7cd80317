//! Action-label interning.
//!
//! Every enabled [`ActionInstance`](crate::ActionInstance) carries a fully instantiated
//! label such as `"FollowerProcessNEWLEADER(2, 0)"`.  State-space exploration touches
//! millions of transitions, and storing one heap `String` per discovered state (plus a
//! clone per trace-reconstruction step) dominated the checker's allocation profile.  A
//! [`LabelTable`] deduplicates labels into dense 32-bit [`LabelId`]s: the distinct-label
//! count of a run is tiny compared to its state count (labels are bounded by the action
//! definitions times their parameter instantiations), so the table stays small while the
//! per-state bookkeeping shrinks to one `u32`.
//!
//! The table is shared by all worker threads of a run.  Lookups of already-interned
//! labels take a read lock only; the write lock is taken once per *distinct* label for
//! the lifetime of the run.

use std::collections::HashMap;
// sync-exempt: the spec crate sits below remix-checker and cannot use its
// instrumented checker::sync layer; this RwLock is leaf-level (never held while
// acquiring another lock), so it cannot participate in a lock-order cycle.
use std::sync::{Arc, PoisonError, RwLock};

/// A dense identifier of an interned action label (index into the [`LabelTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

/// The reserved label of initial states.
pub const INIT_LABEL: &str = "Init";

struct TableInner {
    /// Label → id.  The key shares its heap payload with the `labels` entry for the
    /// same id, so each distinct label's bytes are stored exactly once.
    ids: HashMap<Arc<str>, u32>,
    labels: Vec<Arc<str>>,
}

/// A thread-safe, append-only interning table of action labels.
///
/// Created once per checking run; see the module docs for the locking contract.
pub struct LabelTable {
    inner: RwLock<TableInner>,
}

impl Default for LabelTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LabelTable {
    /// Creates a table with [`INIT_LABEL`] pre-interned as id 0.
    pub fn new() -> Self {
        let init: Arc<str> = Arc::from(INIT_LABEL);
        let mut ids = HashMap::new();
        ids.insert(Arc::clone(&init), 0);
        LabelTable {
            inner: RwLock::new(TableInner {
                ids,
                labels: vec![init],
            }),
        }
    }

    /// The id of the reserved `"Init"` label.
    pub fn init_id() -> LabelId {
        LabelId(0)
    }

    /// Interns a label.  An already-known label is simply dropped; a fresh one is
    /// copied once into a shared `Arc<str>` whose payload backs both the id map and
    /// the resolve vector.
    pub fn intern_owned(&self, label: String) -> LabelId {
        self.intern(&label)
    }

    /// Interns a borrowed label (copies the bytes only for labels not seen before).
    pub fn intern(&self, label: &str) -> LabelId {
        {
            let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&id) = inner.ids.get(label) {
                return LabelId(id);
            }
        }
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = inner.ids.get(label) {
            return LabelId(id);
        }
        let id = inner.labels.len() as u32;
        let shared: Arc<str> = Arc::from(label);
        inner.labels.push(Arc::clone(&shared));
        inner.ids.insert(shared, id);
        LabelId(id)
    }

    /// Resolves an id back to its label (cloned out of the table).
    ///
    /// # Panics
    ///
    /// Panics when the id was not produced by this table.
    pub fn resolve(&self, id: LabelId) -> String {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        inner.labels[id.0 as usize].to_string()
    }

    /// Number of distinct labels interned so far (including the reserved `"Init"`).
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .labels
            .len()
    }

    /// `true` when only the reserved `"Init"` label has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }
}

impl std::fmt::Debug for LabelTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelTable")
            .field("labels", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_deduplicating() {
        let t = LabelTable::new();
        let a = t.intern("IncX(0)");
        let b = t.intern_owned("IncX(1)".to_owned());
        assert_ne!(a, b);
        assert_eq!(t.intern("IncX(0)"), a);
        assert_eq!(t.intern_owned("IncX(1)".to_owned()), b);
        assert_eq!(t.resolve(a), "IncX(0)");
        assert_eq!(t.resolve(b), "IncX(1)");
        assert_eq!(t.len(), 3, "Init is pre-interned");
        assert_eq!(t.intern(INIT_LABEL), LabelTable::init_id());
        assert!(!t.is_empty());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let t = LabelTable::new();
        let ids: Vec<Vec<LabelId>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..64)
                            .map(|i| t.intern(&format!("L({})", i % 8)))
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for other in &ids[1..] {
            assert_eq!(&ids[0], other);
        }
        assert_eq!(t.len(), 9);
    }
}

//! Action labels, typed, and their interning.
//!
//! Every enabled [`ActionInstance`](crate::ActionInstance) carries a [`Label`]: an
//! action name and its parameters, e.g. `FollowerProcessNEWLEADER` with `2` and `0`,
//! which renders as `"FollowerProcessNEWLEADER(2, 0)"`.  State-space exploration touches
//! millions of transitions, and four in five of them reach a state already stored, so
//! a label is built without formatting anything: a `&'static str` and up to
//! [`Label::MAX_PARAMS`] small integers or server sets, inline.  A [`LabelTable`]
//! deduplicates labels into dense 32-bit [`LabelId`]s and renders each distinct label
//! once, when it is first interned: the distinct-label count of a run is tiny compared
//! to its state count (labels are bounded by the action definitions times their
//! parameter instantiations), so the table stays small while the per-state bookkeeping
//! shrinks to one `u32`.
//!
//! Two labels share a [`LabelId`] exactly when they render to the same string, typed
//! or not: a label built from a `String` (toy specifications keep their `format!`s) is
//! its own rendering.
//!
//! The table is shared by all worker threads of a run.  Lookups of already-interned
//! labels take a read lock only; the write lock is taken once per *distinct* label for
//! the lifetime of the run.

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
// sync-exempt: the spec crate sits below remix-checker and cannot use its
// instrumented checker::sync layer; this RwLock is leaf-level (never held while
// acquiring another lock), so it cannot participate in a lock-order cycle.
use std::sync::{Arc, PoisonError, RwLock};

use crate::fingerprint::TableHasher;

/// A dense identifier of an interned action label (index into the [`LabelTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

/// The reserved label of initial states.
pub const INIT_LABEL: &str = "Init";

/// One parameter of a typed [`Label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Param {
    /// Renders as the number.
    Int(u32),
    /// A set of small integers (server ids), as a bitmask; renders as `{a, b, c}` in
    /// ascending order, `{}` when empty.
    Set(u32),
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Param::Int(value) => write!(f, "{value}"),
            Param::Set(bits) => {
                f.write_str("{")?;
                let mut members = (0..u32::BITS).filter(|m| bits >> m & 1 == 1);
                if let Some(first) = members.next() {
                    write!(f, "{first}")?;
                    for member in members {
                        write!(f, ", {member}")?;
                    }
                }
                f.write_str("}")
            }
        }
    }
}

/// The label of one action instance: an action name and its parameters, or a string
/// built elsewhere.  See the module docs.
///
/// `Display` renders a typed label as `Name(p1, p2, …)` — the name alone without
/// parameters — and a string label as itself.  Equality and hashing are those of the
/// parts, so two labels that render alike may still be unequal values (a typed one and
/// a string one); [`LabelTable`] gives them one id all the same.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Label(Repr);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Typed {
        name: &'static str,
        params: [Param; Label::MAX_PARAMS],
        len: u8,
    },
    Text(String),
}

impl Label {
    /// The most parameters a typed label carries.
    pub const MAX_PARAMS: usize = 3;

    /// A typed label of action `name`, without parameters so far.
    pub const fn new(name: &'static str) -> Self {
        Label(Repr::Typed {
            name,
            params: [Param::Int(0); Label::MAX_PARAMS],
            len: 0,
        })
    }

    /// Appends an integer parameter.
    ///
    /// # Panics
    ///
    /// When the label already has [`Label::MAX_PARAMS`] parameters, is a string label,
    /// or `value` does not fit a `u32`.
    #[must_use]
    pub fn arg(self, value: usize) -> Self {
        let value = u32::try_from(value).expect("a label parameter fits a u32");
        self.push(Param::Int(value))
    }

    /// Appends a set parameter, rendered `{a, b, …}` in ascending order whatever the
    /// order of `members`.
    ///
    /// # Panics
    ///
    /// Like [`Label::arg`], and when a member is 32 or more.
    #[must_use]
    pub fn set(self, members: impl IntoIterator<Item = usize>) -> Self {
        let bits = members.into_iter().fold(0u32, |bits, member| {
            assert!(
                member < u32::BITS as usize,
                "a label set member is below 32"
            );
            bits | 1 << member
        });
        self.push(Param::Set(bits))
    }

    fn push(mut self, param: Param) -> Self {
        match &mut self.0 {
            Repr::Typed { params, len, .. } => {
                assert!(
                    usize::from(*len) < Label::MAX_PARAMS,
                    "a label has at most {} parameters",
                    Label::MAX_PARAMS
                );
                params[usize::from(*len)] = param;
                *len += 1;
            }
            Repr::Text(text) => panic!("the string label {text:?} takes no parameters"),
        }
        self
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Typed { name, params, len } => {
                f.write_str(name)?;
                if let Some((first, rest)) = params[..usize::from(*len)].split_first() {
                    write!(f, "({first}")?;
                    for param in rest {
                        write!(f, ", {param}")?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
            Repr::Text(text) => f.write_str(text),
        }
    }
}

impl From<String> for Label {
    fn from(text: String) -> Self {
        Label(Repr::Text(text))
    }
}

impl From<&str> for Label {
    fn from(text: &str) -> Self {
        Label(Repr::Text(text.to_owned()))
    }
}

struct TableInner {
    /// Rendered label → id.  The key shares its heap payload with the `labels` entry
    /// for the same id, so each distinct label's bytes are stored exactly once.
    ids: HashMap<Arc<str>, u32>,
    labels: Vec<Arc<str>>,
    /// Typed label → id, found without rendering; several labels may name one id.
    typed: HashMap<Label, u32, BuildHasherDefault<TableHasher>>,
}

impl TableInner {
    /// The id of a rendered label, added when new.
    fn id_of_rendered(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = u32::try_from(self.labels.len()).expect("a label id fits a u32");
        let shared: Arc<str> = Arc::from(label);
        self.labels.push(Arc::clone(&shared));
        self.ids.insert(shared, id);
        id
    }
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
        let mut inner = TableInner {
            ids: HashMap::new(),
            labels: Vec::new(),
            typed: HashMap::default(),
        };
        inner.id_of_rendered(INIT_LABEL);
        LabelTable {
            inner: RwLock::new(inner),
        }
    }

    /// The id of the reserved `"Init"` label.
    pub fn init_id() -> LabelId {
        LabelId(0)
    }

    /// Interns a label, rendering it only when it is new to the table: a typed label
    /// is found as it is, a string label by its text.
    pub fn intern_label(&self, label: Label) -> LabelId {
        if let Repr::Text(text) = &label.0 {
            return self.intern(text);
        }
        {
            let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&id) = inner.typed.get(&label) {
                return LabelId(id);
            }
        }
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = inner.typed.get(&label) {
            return LabelId(id);
        }
        let id = inner.id_of_rendered(&label.to_string());
        inner.typed.insert(label, id);
        LabelId(id)
    }

    /// Interns a rendered label: an already-known one is found by its text, a fresh one
    /// is copied once into a shared `Arc<str>` whose payload backs both the id map and
    /// the resolve vector.
    pub fn intern(&self, label: &str) -> LabelId {
        {
            let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&id) = inner.ids.get(label) {
                return LabelId(id);
            }
        }
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        LabelId(inner.id_of_rendered(label))
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
        let b = t.intern_label(Label::from("IncX(1)".to_owned()));
        assert_ne!(a, b);
        assert_eq!(t.intern("IncX(0)"), a);
        assert_eq!(t.intern("IncX(1)"), b);
        assert_eq!(t.resolve(a), "IncX(0)");
        assert_eq!(t.resolve(b), "IncX(1)");
        assert_eq!(t.len(), 3, "Init is pre-interned");
        assert_eq!(t.intern(INIT_LABEL), LabelTable::init_id());
        assert!(!t.is_empty());
    }

    #[test]
    fn typed_labels_render_like_their_format_strings() {
        let (i, j, leader) = (2usize, 0usize, 1usize);
        let cases = [
            (
                Label::new("FollowerProcessNEWLEADER").arg(i).arg(j),
                format!("FollowerProcessNEWLEADER({i}, {j})"),
            ),
            (Label::new("NodeCrash").arg(i), format!("NodeCrash({i})")),
            (
                Label::new("ElectionAndDiscovery")
                    .arg(leader)
                    .set([2, 0, 1]),
                format!("ElectionAndDiscovery({leader}, {{0, 1, 2}})"),
            ),
            (
                Label::new("ElectionAndDiscoveryLeaderCrash")
                    .arg(leader)
                    .set([0, 1])
                    .set([]),
                format!("ElectionAndDiscoveryLeaderCrash({leader}, {{0, 1}}, {{}})"),
            ),
            (Label::new("Tick"), "Tick".to_owned()),
            (Label::from("IncX(1)"), "IncX(1)".to_owned()),
        ];
        for (label, text) in cases {
            assert_eq!(label.to_string(), text);
        }
    }

    #[test]
    fn labels_share_an_id_exactly_when_they_render_alike() {
        let t = LabelTable::new();
        let typed = t.intern_label(Label::new("IncX").arg(1));
        assert_eq!(t.resolve(typed), "IncX(1)");
        assert_eq!(
            t.intern_label(Label::from("IncX(1)")),
            typed,
            "a string label joins it"
        );
        assert_eq!(t.intern("IncX(1)"), typed);
        assert_eq!(t.intern_label(Label::new("IncX").arg(1)), typed);
        let set = t.intern_label(Label::new("Q").set([1, 0]));
        assert_eq!(t.intern_label(Label::new("Q").set([0, 1])), set);
        assert_eq!(t.intern("Q({0, 1})"), set);
        assert_ne!(t.intern_label(Label::new("IncX").arg(2)), typed);
        assert_ne!(t.intern_label(Label::new("IncX")), typed);
        assert_eq!(t.len(), 5);
    }

    #[test]
    #[should_panic(expected = "at most 3 parameters")]
    fn a_fourth_parameter_panics() {
        let _ = Label::new("L").arg(0).arg(1).arg(2).arg(3);
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

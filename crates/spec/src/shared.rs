//! Copy-on-write structural sharing for state components.
//!
//! An action rewrites a small part of a state, yet the checker copies whole states:
//! into the store, into the frontier, per sampler step.  A state type that wraps its
//! large components in [`Shared`] makes those copies reference-count bumps, and pays
//! for a deep copy of a component only when an action first writes it.
//!
//! `Shared<T>` is *transparent*: `Clone` aside, every trait it implements delegates to
//! `T`, so wrapping a field changes neither the state's `Hash` stream (fingerprints),
//! its `Ord` (canonical representatives) nor its `Debug` rendering (traces).
//!
//! The one rule to program by: **reads never copy, any `&mut` does.**  Method auto-ref
//! picks `Deref` for `&self` methods and `DerefMut` for `&mut self` ones — including
//! `clear()` on a collection that is already empty.  Guard writes that may change
//! nothing (`if !q.is_empty() { q.clear() }`).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A copy-on-write handle to a `T`: cloning shares, the first write through a shared
/// handle copies (`Arc::make_mut`), later writes through the now-unique handle are free.
///
/// The derived `PartialEq` and `Hash` are `Arc`'s, which delegate to `T` (and `==`
/// short-circuits on pointer equality when `T: Eq`).
#[derive(Default, PartialEq, Eq, Hash)]
pub struct Shared<T>(Arc<T>);

impl<T> Shared<T> {
    /// Wraps a value in a fresh, unshared handle.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(value))
    }

    /// Returns `true` when both handles point at the same allocation — the component
    /// was never written between them.  (Equal values may still live apart.)
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Self {
        Shared::new(value)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    fn deref_mut(&mut self) -> &mut T {
        Arc::make_mut(&mut self.0)
    }
}

impl<T: PartialOrd> PartialOrd for Shared<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl<T: Ord> Ord for Shared<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<'a, T> IntoIterator for &'a Shared<T>
where
    &'a T: IntoIterator,
{
    type Item = <&'a T as IntoIterator>::Item;
    type IntoIter = <&'a T as IntoIterator>::IntoIter;

    fn into_iter(self) -> Self::IntoIter {
        (&*self.0).into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn reads_share_and_the_first_write_copies() {
        let parent: Shared<Vec<u32>> = vec![1, 2].into();
        let mut child = parent.clone();
        assert!(Shared::ptr_eq(&parent, &child));
        assert_eq!(child.len(), 2, "a read goes through Deref");
        assert!(
            Shared::ptr_eq(&parent, &child),
            "and leaves the sharing intact"
        );
        child.push(3);
        assert!(!Shared::ptr_eq(&parent, &child));
        assert_eq!(
            *parent,
            vec![1, 2],
            "the parent never sees the child's write"
        );
        assert_eq!(*child, vec![1, 2, 3]);
    }

    #[test]
    fn a_write_that_changes_nothing_still_copies() {
        let parent: Shared<Vec<u32>> = Shared::default();
        let mut child = parent.clone();
        child.clear();
        assert!(
            !Shared::ptr_eq(&parent, &child),
            "hence the guard-your-writes rule"
        );
        assert_eq!(parent, child);
    }

    #[test]
    fn eq_ord_hash_and_debug_are_those_of_the_value() {
        let (a, b) = (vec![1u32, 5], vec![2u32]);
        let (sa, sb) = (Shared::new(a.clone()), Shared::new(b.clone()));
        assert_eq!(sa.cmp(&sb), a.cmp(&b));
        assert_eq!(sa.partial_cmp(&sb), a.partial_cmp(&b));
        assert_eq!(sa.cmp(&sa.clone()), Ordering::Equal);
        assert_eq!(
            sa,
            Shared::new(a.clone()),
            "equal values in separate allocations"
        );
        assert_ne!(sa, sb);
        assert_eq!(hash_of(&sa), hash_of(&a));
        assert_eq!(format!("{sa:?}"), format!("{a:?}"));
        assert_eq!((&sa).into_iter().sum::<u32>(), 6);
    }
}

//! Copy-on-write, hash-consed structural sharing for state components.
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
//!
//! # Hash-consing: one digest and one allocation per distinct value
//!
//! A state space is assembled from far fewer distinct components than states (221,490
//! states of the three-server fine model from 1,657 servers, 702 channel rows and 151
//! ghost states), so the allocation behind a handle carries two things besides the
//! value:
//!
//! * the memoized **digest** of the value ([`Shared::digest`]: the 128-bit
//!   [`fingerprint`] of `T`'s `Hash` stream), computed at the first read after a write
//!   and cleared by every `DerefMut` — also on a uniquely owned handle, which
//!   `Arc::make_mut` writes in place.  A state's store key
//!   ([`SpecState::hash_key`](crate::SpecState::hash_key)) is a hash over these digests,
//!   so a successor re-hashes only the components its action wrote.  The digest is a
//!   function of the value alone — never of an address, a pool or an insertion order —
//!   and it is *not* what `Hash for Shared<T>` feeds: that stays the value's own stream,
//!   so [`fingerprint`] of a state is unchanged by the wrapper;
//! * a tag naming the [`InternPool`] that holds this very allocation, so
//!   [`Shared::intern`] recognises a pooled handle without a lookup.
//!
//! [`Shared::intern`] replaces a handle by the pool's allocation of an equal value (or
//! makes this allocation the pool's).  Equality is checked on every digest hit, so two
//! unequal values that collide in all 128 bits are never merged — the later one just
//! stays outside the pool.

use std::any::{Any, TypeId};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
// sync-exempt: the spec crate sits below remix-checker and cannot use its
// instrumented checker::sync layer.  The digest cell is leaf-level: its initializer
// hashes the value behind the handle (a nested `Shared` hashes its own value, not its
// cell) and acquires nothing, so it cannot take part in a lock-order cycle; the pool
// tag and the pool-id counter are lock-free.
use std::sync::atomic::{self, AtomicU64};
use std::sync::{Arc, OnceLock};

use crate::fingerprint::{fingerprint, Fingerprint};

/// What one shared allocation holds: the value and what is memoized about it.
struct Inner<T> {
    value: T,
    /// `fingerprint(&value)`, set at the first [`Shared::digest`] after a write.
    digest: OnceLock<Fingerprint>,
    /// Id of the [`InternPool`] known to hold this allocation; 0 for none.  A hint:
    /// a stale or foreign id only costs [`Shared::intern`] a lookup.
    pool: AtomicU64,
}

impl<T> Inner<T> {
    fn new(value: T) -> Self {
        Inner {
            value,
            digest: OnceLock::new(),
            pool: AtomicU64::new(0),
        }
    }
}

/// The copy `Arc::make_mut` takes of a shared allocation is about to be written:
/// it starts without a digest and outside every pool.
impl<T: Clone> Clone for Inner<T> {
    fn clone(&self) -> Self {
        Inner::new(self.value.clone())
    }
}

/// A copy-on-write handle to a `T`: cloning shares, the first write through a shared
/// handle copies (`Arc::make_mut`), later writes through the now-unique handle are free.
///
/// `PartialEq`, `Ord`, `Hash` and `Debug` are `T`'s (`==` and `cmp` short-circuit on
/// pointer equality).
pub struct Shared<T>(Arc<Inner<T>>);

impl<T> Shared<T> {
    /// Wraps a value in a fresh, unshared handle.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(Inner::new(value)))
    }

    /// Returns `true` when both handles point at the same allocation — the component
    /// was never written between them, or both were interned into one pool.  (Equal
    /// values may still live apart.)
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T: Hash> Shared<T> {
    /// The 128-bit [`fingerprint`] of the value, computed once per allocation per
    /// write: every handle sharing the allocation reads the memo.
    pub fn digest(&self) -> Fingerprint {
        *self.0.digest.get_or_init(|| fingerprint(&self.0.value))
    }
}

impl<T: Hash + Eq + Send + Sync + 'static> Shared<T> {
    /// Points this handle at `pool`'s allocation of its value, adding this allocation
    /// to the pool when the value is new to it.  The value behind the handle never
    /// changes; a duplicate allocation is released (freed, if this was its last handle).
    pub fn intern(&mut self, pool: &mut InternPool) {
        // ordering: Relaxed — the tag is a hint about this one allocation and
        // publishes nothing: only a holder of `pool` ever stores `pool.id`, and it
        // does so after the allocation entered `pool`, which never forgets an entry.
        if self.0.pool.load(atomic::Ordering::Relaxed) == pool.id {
            return;
        }
        match pool.entries.entry((TypeId::of::<T>(), self.digest())) {
            Entry::Vacant(slot) => {
                slot.insert(Arc::clone(&self.0) as Arc<dyn Any + Send + Sync>);
            }
            Entry::Occupied(slot) => {
                let pooled = Arc::clone(slot.get())
                    .downcast::<Inner<T>>()
                    .expect("pool entries are keyed by their type");
                if !Arc::ptr_eq(&pooled, &self.0) {
                    if pooled.value != self.0.value {
                        // A 128-bit collision: never merge unequal values.
                        return;
                    }
                    self.0 = pooled;
                }
            }
        }
        // ordering: Relaxed — see the load above.
        self.0.pool.store(pool.id, atomic::Ordering::Relaxed);
    }
}

/// A hash-consing table for [`Shared`] components of any type: digest → the one
/// allocation the pool's users share for that value.
///
/// A pool belongs to one exploration (the checker's `StateStore` owns it) and only
/// grows; dropping it releases the pool's own handle on every entry.  It is
/// spec-agnostic: a state type decides what to intern in
/// [`SpecState::intern`](crate::SpecState::intern).
pub struct InternPool {
    /// Process-unique and never 0, so an allocation's tag names at most one live pool.
    id: u64,
    entries: HashMap<(TypeId, Fingerprint), Arc<dyn Any + Send + Sync>>,
}

impl InternPool {
    /// An empty pool.
    pub fn new() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        InternPool {
            // ordering: Relaxed — only uniqueness matters, and fetch_add is atomic.
            id: NEXT_ID.fetch_add(1, atomic::Ordering::Relaxed),
            entries: HashMap::new(),
        }
    }

    /// Number of distinct values the pool holds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for InternPool {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared::new(T::default())
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
        &self.0.value
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    fn deref_mut(&mut self) -> &mut T {
        let inner = Arc::make_mut(&mut self.0);
        // A uniquely owned allocation is written in place: what was memoized about
        // the old value goes (a pool that holds the allocation also holds a handle,
        // so a pooled allocation is never unique and never written).
        inner.digest.take();
        *inner.pool.get_mut() = 0;
        &mut inner.value
    }
}

impl<T: Eq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.value == other.0.value
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: Hash> Hash for Shared<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.value.hash(state);
    }
}

impl<T: Ord> PartialOrd for Shared<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Shared<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.value.cmp(&other.0.value)
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<'a, T> IntoIterator for &'a Shared<T>
where
    &'a T: IntoIterator,
{
    type Item = <&'a T as IntoIterator>::Item;
    type IntoIter = <&'a T as IntoIterator>::IntoIter;

    fn into_iter(self) -> Self::IntoIter {
        (&self.0.value).into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

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

    #[test]
    fn the_digest_is_the_fingerprint_of_the_value_and_follows_every_write() {
        let mut a: Shared<Vec<u32>> = vec![1, 2].into();
        assert_eq!(a.digest(), fingerprint(&vec![1u32, 2]));
        assert_eq!(
            hash_of(&a),
            hash_of(&vec![1u32, 2]),
            "Hash is not the digest"
        );

        // A write through a shared handle copies: the parent keeps its memo, the
        // copy starts without one.
        let parent = a.clone();
        a.push(3);
        assert_eq!(parent.digest(), fingerprint(&vec![1u32, 2]));
        assert_eq!(a.digest(), fingerprint(&vec![1u32, 2, 3]));

        // A write through the now uniquely owned handle is in place, after the memo
        // was read: it must be cleared all the same.
        a.push(4);
        assert_eq!(a.digest(), fingerprint(&vec![1u32, 2, 3, 4]));
        a.pop();
        a.pop();
        a.pop();
        assert_eq!(a.digest(), fingerprint(&vec![1u32]));
        assert_eq!(a.clone().digest(), a.digest(), "handles share the memo");
    }

    #[test]
    fn interning_keeps_one_allocation_per_value() {
        let mut pool = InternPool::new();
        let mut first: Shared<Vec<u32>> = vec![7].into();
        let mut second: Shared<Vec<u32>> = vec![7].into();
        let mut other: Shared<Vec<u32>> = vec![8].into();
        first.intern(&mut pool);
        let kept = first.clone();
        second.intern(&mut pool);
        other.intern(&mut pool);
        assert!(
            Shared::ptr_eq(&first, &kept),
            "the first allocation is the pool's"
        );
        assert!(Shared::ptr_eq(&first, &second), "an equal value joins it");
        assert!(!Shared::ptr_eq(&first, &other));
        assert_eq!((*second).clone(), vec![7], "the value never changes");
        assert_eq!(pool.len(), 2);

        // A pooled handle is recognised (and left alone) without a lookup; in
        // another pool it is a stranger and becomes that pool's allocation.
        second.intern(&mut pool);
        assert!(Shared::ptr_eq(&first, &second));
        let mut elsewhere = InternPool::new();
        second.intern(&mut elsewhere);
        assert!(Shared::ptr_eq(&first, &second));
        first.intern(&mut pool);
        assert!(
            Shared::ptr_eq(&first, &kept),
            "re-tagging never moves a handle"
        );
        assert_eq!((pool.len(), elsewhere.len()), (2, 1));

        // Writing a pooled handle copies (the pool holds the other reference), and
        // the copy is outside the pool until interned under its new value.
        second.push(1);
        assert!(!Shared::ptr_eq(&first, &second));
        assert_eq!(*first, vec![7]);
        second.intern(&mut pool);
        assert_eq!(pool.len(), 3);

        // Types are pooled apart even when their hash streams coincide.
        let mut boxed: Shared<Box<Vec<u32>>> = Box::new(vec![7]).into();
        assert_eq!(boxed.digest(), first.digest());
        boxed.intern(&mut pool);
        assert_eq!(pool.len(), 4);
    }

    /// Every value of this type has the same digest: the worst collision there is.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Unhashed(u32);

    impl Hash for Unhashed {
        fn hash<H: Hasher>(&self, _state: &mut H) {}
    }

    #[test]
    fn a_digest_collision_never_merges_unequal_values() {
        let mut pool = InternPool::new();
        let mut handles: Vec<Shared<Unhashed>> = (0..4).map(|i| Unhashed(i % 2).into()).collect();
        assert_eq!(handles[0].digest(), handles[1].digest());
        for handle in &mut handles {
            handle.intern(&mut pool);
        }
        let values: Vec<u32> = handles.iter().map(|h| (**h).0).collect();
        assert_eq!(values, [0, 1, 0, 1], "no handle took another value");
        assert!(
            Shared::ptr_eq(&handles[0], &handles[2]),
            "the pooled value is shared"
        );
        assert!(
            !Shared::ptr_eq(&handles[1], &handles[3]),
            "the collider stays outside"
        );
        assert_eq!(pool.len(), 1);
    }
}

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
//! # Hash-consing: one allocation and one slot per distinct value
//!
//! A state space is assembled from far fewer distinct components than states (221,490
//! states of the three-server fine model from 1,657 servers, 702 channel rows and 151
//! ghost states), so the allocation behind a handle carries two things besides the
//! value:
//!
//! * the memoized **digest** of the value ([`Shared::digest`]: the 128-bit
//!   [`fingerprint`](crate::fingerprint::fingerprint) of `T`'s `Hash` stream), computed
//!   at the first read after a write and cleared by every `DerefMut` — also on a
//!   uniquely owned handle, which `Arc::make_mut` writes in place.  A state's store key
//!   ([`SpecState::hash_key`](crate::SpecState::hash_key)) is a hash over these digests,
//!   so a successor re-hashes only the components its action wrote.  The digest is a
//!   function of the value alone — never of an address, a pool or an insertion order —
//!   and it is *not* what `Hash for Shared<T>` feeds: that stays the value's own stream,
//!   so the fingerprint of a state is unchanged by the wrapper.  Only a caller that asks
//!   for a key computes it: hash-consing never does;
//! * a **tag** naming the [`InternPool`] that holds this very allocation and the slot
//!   it holds it in (`(pool id << 32) | slot`, one word), so [`Shared::intern`]
//!   recognises a pooled handle — and knows its slot — without a lookup.
//!
//! [`Shared::intern`] replaces a handle by the pool's allocation of an equal value (or
//! makes this allocation the pool's) and returns the allocation's **slot**: a dense
//! `u32` that [`InternPool::get`] turns back into a handle on the same allocation.  A
//! slot is the dictionary code of a value — the checker's store keeps a state as a row
//! of them ([`SpecState::intern`](crate::SpecState::intern) /
//! [`SpecState::from_row`](crate::SpecState::from_row)) — and, like an address, is
//! per-pool and per-run: it never reaches a key, a trace or a statistic.
//!
//! The pool finds a value by its **table hash**
//! ([`table_hash`]: a cheap 64-bit hash of the same
//! `Hash` stream, one multiply per word where the digest pays two SipHash rounds) in a
//! per-type open-addressing index, and confirms every candidate by value
//! equality.  So the table hash only has to spread values, not tell them apart: equal
//! values always share one slot, and unequal values never do, even when their table
//! hashes (or their digests) collide.

use std::any::{Any, TypeId};
use std::cmp::Ordering;
use std::collections::BTreeMap;
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

use crate::fingerprint::{fingerprint, table_hash, Fingerprint};
use crate::slot_index::SlotIndex;

/// What one shared allocation holds: the value and what is memoized about it.
struct Inner<T> {
    value: T,
    /// `fingerprint(&value)`, set at the first [`Shared::digest`] after a write.
    digest: OnceLock<Fingerprint>,
    /// `(pool id << 32) | slot` of an [`InternPool`] known to hold this allocation; 0
    /// for none (no pool has id 0).  A hint: a stale or foreign tag only costs
    /// [`Shared::intern`] a lookup.
    tag: AtomicU64,
}

impl<T> Inner<T> {
    fn new(value: T) -> Self {
        Inner {
            value,
            digest: OnceLock::new(),
            tag: AtomicU64::new(0),
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

    /// The slot `pool` holds this allocation in, when the allocation's tag says so.
    /// `Some(slot)` is exact (`pool.get(slot)` is this allocation); `None` only means
    /// the tag names no pool or another one — an allocation interned into two pools
    /// remembers the later — so take the slot [`Shared::intern`] returns where one is
    /// needed.
    pub fn slot(&self, pool: &InternPool) -> Option<u32> {
        // The tag is a hint about this one allocation: only a holder of `pool` ever
        // stores `pool.id`, in one word with the slot, after the allocation entered
        // `pool`, which never forgets or moves an entry.
        // ordering: Relaxed — the tag publishes nothing but itself.
        let tag = self.0.tag.load(atomic::Ordering::Relaxed);
        (tag >> 32 == u64::from(pool.id)).then_some(tag as u32)
    }
}

impl<T: Hash> Shared<T> {
    /// The 128-bit [`fingerprint`](crate::fingerprint::fingerprint) of the value,
    /// computed once per allocation per write: every handle sharing the allocation
    /// reads the memo.
    pub fn digest(&self) -> Fingerprint {
        *self.0.digest.get_or_init(|| fingerprint(&self.0.value))
    }
}

impl<T: Clone + Hash + Eq + Send + Sync + 'static> Shared<T> {
    /// Points this handle at `pool`'s allocation of its value, adding this allocation
    /// to the pool when the value is new to it, and returns the allocation's slot.
    /// The value behind the handle never changes; a duplicate allocation is released
    /// (freed, if this was its last handle).
    ///
    /// The value is found by its [`table_hash`] and confirmed by `==`, so equal values
    /// always share one slot and unequal ones never do, whatever their hashes.  No
    /// digest is computed here.
    ///
    /// A value new to the pool is kept for the rest of the run, so when this handle is
    /// its only one the value is first replaced, in place, by its own clone: equal, with
    /// the same hashes, but without the spare capacity `push` left in its vectors.  The
    /// allocation, and so every address the caller holds, stays where it is.
    pub fn intern(&mut self, pool: &mut InternPool) -> u32 {
        if let Some(slot) = self.slot(pool) {
            return slot;
        }
        let hash = table_hash(&self.0.value);
        let InternPool { index, slots, .. } = pool;
        let table = type_table::<T>(index);
        let value = &self.0.value;
        let slot = match table.find(hash, |slot| value_of::<T>(&slots[slot as usize]) == value) {
            Some(slot) => {
                self.0 = downcast::<T>(&slots[slot as usize]);
                slot
            }
            None => {
                if let Some(inner) = Arc::get_mut(&mut self.0) {
                    inner.value = inner.value.clone();
                }
                let slot = push_slot(slots, &self.0);
                table.insert(hash, slot, |slot| {
                    table_hash(value_of::<T>(&slots[slot as usize]))
                });
                slot
            }
        };
        // ordering: Relaxed — see `slot`.
        self.0.tag.store(
            (u64::from(pool.id) << 32) | u64::from(slot),
            atomic::Ordering::Relaxed,
        );
        slot
    }
}

/// One pooled allocation, type-erased: a single fat pointer, whose vtable also names
/// the value's type for the census.
type Slot = Arc<dyn Pooled>;

/// What a pool needs of an allocation it holds: its type back ([`Any`], to hand out
/// typed handles) and the type's name (for [`InternPool::census`]).
trait Pooled: Any + Send + Sync {
    /// `std::any::type_name` of the value.
    fn type_name(&self) -> &'static str;
}

impl<T: Send + Sync + 'static> Pooled for Inner<T> {
    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

/// The index of `T`'s values, added on the first value of `T` a pool sees.
fn type_table<T: 'static>(index: &mut Vec<(TypeId, SlotIndex)>) -> &mut SlotIndex {
    let ty = TypeId::of::<T>();
    let at = match index.iter().position(|(id, _)| *id == ty) {
        Some(at) => at,
        None => {
            index.push((ty, SlotIndex::default()));
            index.len() - 1
        }
    };
    &mut index[at].1
}

/// Appends `inner` to a pool's slots and returns where.
///
/// # Panics
///
/// When the pool is full: a slot is one `u32` word of an allocation's tag and of a
/// stored row, and [`InternPool::NO_SLOT`] is never handed out.
fn push_slot<T: Send + Sync + 'static>(slots: &mut Vec<Slot>, inner: &Arc<Inner<T>>) -> u32 {
    let slot = slot_number(slots.len());
    slots.push(Arc::clone(inner) as Slot);
    slot
}

fn slot_number(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&slot| slot != InternPool::NO_SLOT)
        .expect("intern pool is full: a slot must fit one u32 word")
}

fn pool_id(counter: u64) -> u32 {
    u32::try_from(counter).expect("intern pool ids are exhausted: an id must fit one u32 word")
}

fn downcast<T: Send + Sync + 'static>(slot: &Slot) -> Arc<Inner<T>> {
    let any: Arc<dyn Any + Send + Sync> = Arc::<dyn Pooled>::clone(slot);
    any.downcast::<Inner<T>>()
        .expect("a slot is read back at the type it was interned at")
}

/// The value a slot holds, borrowed.
fn value_of<T: Send + Sync + 'static>(slot: &Slot) -> &T {
    let any: &dyn Any = &**slot;
    &any.downcast_ref::<Inner<T>>()
        .expect("a slot is read back at the type it was interned at")
        .value
}

/// A hash-consing table for [`Shared`] components of any type: per type, an index of
/// the slots of the allocations the pool's users share, one per distinct value, and
/// slot → allocation.
///
/// What it keeps per distinct value, besides the allocation itself, is one 5-byte
/// bucket of its type's [`SlotIndex`] (a `u32` slot and a tag byte, at most 7/8 of the
/// buckets held) and one 16-byte slot: types are told apart by which index a slot is in, not
/// by a `TypeId` in every key, and a slot is the one fat pointer `Arc<dyn Pooled>`,
/// whose vtable also names the type.
///
/// A pool belongs to one exploration (the checker's `StateStore` owns it) and only
/// grows; dropping it releases the pool's own handle on every entry.  It is
/// spec-agnostic: a state type decides what to intern in
/// [`SpecState::intern`](crate::SpecState::intern).
pub struct InternPool {
    /// Process-unique and never 0, so an allocation's tag names at most one live pool.
    id: u32,
    /// One index per pooled type, in the order the types were first interned (a state
    /// type pools a handful): each of the type's slots, found by its value's
    /// [`table_hash`] and confirmed by `==`.
    index: Vec<(TypeId, SlotIndex)>,
    slots: Vec<Slot>,
}

impl InternPool {
    /// The one `u32` that is never a slot: free for a state type's row to mean "no
    /// pooled value here" (an empty set, a `None`).
    pub const NO_SLOT: u32 = u32::MAX;

    /// An empty pool.
    pub fn new() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        InternPool {
            // ordering: Relaxed — only uniqueness matters, and fetch_add is atomic.
            id: pool_id(NEXT_ID.fetch_add(1, atomic::Ordering::Relaxed)),
            index: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// A handle on the allocation in `slot` (a reference-count bump).
    ///
    /// # Panics
    ///
    /// When `slot` was not handed out by this pool for a `Shared<T>`.
    pub fn get<T: Send + Sync + 'static>(&self, slot: u32) -> Shared<T> {
        Shared(downcast(&self.slots[slot as usize]))
    }

    /// Number of allocations the pool holds: one per distinct value.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// What the pool holds, per kind: `std::any::type_name` of the value → number of
    /// allocations.
    pub fn census(&self) -> BTreeMap<&'static str, usize> {
        let mut kinds = BTreeMap::new();
        for slot in &self.slots {
            *kinds.entry(slot.type_name()).or_default() += 1;
        }
        kinds
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
        *inner.tag.get_mut() = 0;
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
    use crate::fingerprint::fingerprint;
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

    #[test]
    fn a_new_uniquely_held_value_is_pooled_exactly_sized_in_place() {
        let mut pool = InternPool::new();
        let mut spare = Vec::with_capacity(16);
        spare.extend([1u32, 2, 3]);
        let mut fresh: Shared<Vec<u32>> = spare.into();
        let (address, digest) = (Arc::as_ptr(&fresh.0), fresh.digest());
        let slot = fresh.intern(&mut pool);
        assert_eq!(
            (fresh.len(), fresh.capacity()),
            (3, 3),
            "the spare capacity went"
        );
        assert_eq!(
            Arc::as_ptr(&fresh.0),
            address,
            "the allocation did not move"
        );
        assert_eq!(fresh.digest(), digest);
        assert!(Shared::ptr_eq(&pool.get::<Vec<u32>>(slot), &fresh));

        // A handle that is not the only one is pooled as it is.
        let mut spare = Vec::with_capacity(16);
        spare.push(4u32);
        let mut shared: Shared<Vec<u32>> = spare.into();
        let other = shared.clone();
        shared.intern(&mut pool);
        assert!(Shared::ptr_eq(&shared, &other));
        assert_eq!(shared.capacity(), 16, "a shared handle is left alone");
    }

    #[test]
    fn equal_values_of_one_type_share_a_slot_apart_from_other_types() {
        let mut pool = InternPool::new();
        let mut plain: Shared<Vec<u32>> = vec![7].into();
        let mut boxed: Shared<Box<Vec<u32>>> = Box::new(vec![7]).into();
        let mut again: Shared<Box<Vec<u32>>> = Box::new(vec![7]).into();
        assert_eq!(boxed.digest(), plain.digest(), "the hash streams coincide");
        let slots = [
            plain.intern(&mut pool),
            boxed.intern(&mut pool),
            again.intern(&mut pool),
        ];
        assert_eq!(
            slots,
            [0, 1, 1],
            "the second box joins the first one's slot"
        );
        assert!(Shared::ptr_eq(&boxed, &again));
        let mut name: Shared<String> = String::from("seven").into();
        name.intern(&mut pool);
        assert_eq!(
            pool.census(),
            BTreeMap::from([
                (std::any::type_name::<Vec<u32>>(), 1),
                (std::any::type_name::<Box<Vec<u32>>>(), 1),
                (std::any::type_name::<String>(), 1),
            ]),
            "the census names every type"
        );
    }

    /// Every value of this type has the same digest and the same table hash: the worst
    /// collision there is.
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
        assert!(Shared::ptr_eq(&handles[0], &handles[2]));
        assert!(
            Shared::ptr_eq(&handles[1], &handles[3]),
            "equality, not the hash, decides: a collider is shared like any value"
        );
        assert!(!Shared::ptr_eq(&handles[0], &handles[1]));

        let slots: Vec<u32> = handles
            .iter()
            .map(|h| h.slot(&pool).expect("tagged by intern"))
            .collect();
        assert_eq!(slots, [0, 1, 0, 1]);
        for (handle, &slot) in handles.iter_mut().zip(&slots) {
            assert!(Shared::ptr_eq(&pool.get::<Unhashed>(slot), handle));
            assert_eq!(handle.intern(&mut pool), slot);
        }
        assert_eq!(pool.len(), 2);
        assert_eq!(
            pool.census(),
            BTreeMap::from([(std::any::type_name::<Unhashed>(), 2)])
        );
    }

    /// Values whose table hashes collide in classes of eight (the hash stream is the
    /// value's class), told apart only by `==`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Classed(u32);

    impl Hash for Classed {
        fn hash<H: Hasher>(&self, state: &mut H) {
            (self.0 / 8).hash(state);
        }
    }

    #[test]
    fn a_table_hash_collision_never_merges_unequal_values() {
        assert_eq!(table_hash(&Classed(0)), table_hash(&Classed(7)));
        let mut pool = InternPool::new();
        // 100 distinct values, each interned through three separate allocations, in
        // an order that interleaves the classes and grows the index several times.
        let order: Vec<u32> = (0..300).map(|i| (i * 37) % 100).collect();
        let mut handles: Vec<Shared<Classed>> = order.iter().map(|&v| Classed(v).into()).collect();
        let slots: Vec<u32> = handles.iter_mut().map(|h| h.intern(&mut pool)).collect();

        let mut slot_of: BTreeMap<u32, (u32, &Shared<Classed>)> = BTreeMap::new();
        for ((&value, &slot), handle) in order.iter().zip(&slots).zip(&handles) {
            assert_eq!((**handle).0, value, "interning never changes a value");
            let (first_slot, first) = *slot_of.entry(value).or_insert((slot, handle));
            assert_eq!(slot, first_slot, "equal values get one slot");
            assert!(Shared::ptr_eq(handle, first), "and one allocation");
        }
        let distinct: std::collections::BTreeSet<u32> = slot_of.values().map(|(s, _)| *s).collect();
        assert_eq!(distinct.len(), 100, "unequal values never merge");
        for (&value, &(slot, handle)) in &slot_of {
            let read = pool.get::<Classed>(slot);
            assert!(Shared::ptr_eq(&read, handle), "get round-trips slot {slot}");
            assert_eq!((*read).0, value);
        }
        assert_eq!(pool.len(), 100);
        assert_eq!(
            pool.census(),
            BTreeMap::from([(std::any::type_name::<Classed>(), 100)]),
            "the census counts every value"
        );
    }

    #[test]
    fn a_slot_reads_back_as_the_allocation_it_names() {
        let mut pool = InternPool::new();
        let mut a: Shared<Vec<u32>> = vec![7].into();
        let mut b: Shared<String> = String::from("seven").into();
        assert_eq!(a.slot(&pool), None, "never interned");
        let (slot_a, slot_b) = (a.intern(&mut pool), b.intern(&mut pool));
        assert_eq!((slot_a, slot_b), (0, 1), "slots are dense, across types");
        assert_eq!(a.slot(&pool), Some(slot_a));
        assert!(Shared::ptr_eq(&pool.get::<Vec<u32>>(slot_a), &a));
        assert!(Shared::ptr_eq(&pool.get::<String>(slot_b), &b));
        assert_eq!(a.clone().slot(&pool), Some(slot_a), "handles share the tag");

        // An equal value arriving later is given the same slot (and allocation).
        let mut again: Shared<Vec<u32>> = vec![7].into();
        assert_eq!(again.intern(&mut pool), slot_a);
        assert!(Shared::ptr_eq(&again, &a));

        // A foreign pool knows nothing of the tag; once it interns the allocation the
        // tag names *it*, and the first pool finds its slot again by lookup.
        let mut foreign = InternPool::new();
        assert_eq!(a.slot(&foreign), None);
        assert_eq!(b.intern(&mut foreign), 0);
        assert_eq!((b.slot(&foreign), b.slot(&pool)), (Some(0), None));
        assert_eq!(b.intern(&mut pool), slot_b);
        assert_eq!(
            (pool.len(), foreign.len()),
            (2, 1),
            "re-tagging adds nothing"
        );
    }

    #[test]
    fn a_write_clears_the_slot() {
        let mut pool = InternPool::new();
        let mut a: Shared<Vec<u32>> = vec![7].into();
        let slot = a.intern(&mut pool);

        // Through a shared handle (the pool holds the other reference) the write
        // copies, and the copy is in no pool; the pool's allocation is untouched.
        let mut written = a.clone();
        written.push(8);
        assert_eq!(written.slot(&pool), None);
        assert_eq!(a.slot(&pool), Some(slot));
        assert_eq!(*pool.get::<Vec<u32>>(slot), vec![7]);
        assert_ne!(written.intern(&mut pool), slot);

        // Through a unique handle — the pool is gone — the write is in place, and
        // the tag must go with the old value.
        drop((pool, written));
        assert_ne!(a.0.tag.load(atomic::Ordering::Relaxed), 0);
        a.push(9);
        assert_eq!(a.0.tag.load(atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn the_tag_is_one_word_of_two_halves() {
        assert_eq!(
            std::mem::size_of::<Inner<u64>>(),
            std::mem::size_of::<(u64, OnceLock<Fingerprint>, u64)>(),
            "value, digest memo and one tag word"
        );
        assert_eq!(slot_number(0), 0);
        assert_eq!(slot_number(u32::MAX as usize - 1), u32::MAX - 1);
        assert_eq!(pool_id(u64::from(u32::MAX)), u32::MAX);
        // The last slot of the last pool still reads back exactly.
        let tagged: Shared<u8> = Shared::new(0);
        let last = InternPool {
            id: u32::MAX,
            index: Vec::new(),
            slots: Vec::new(),
        };
        tagged.0.tag.store(u64::MAX - 1, atomic::Ordering::Relaxed);
        assert_eq!(tagged.slot(&last), Some(u32::MAX - 1));
        assert_eq!(tagged.slot(&InternPool::new()), None);
    }

    #[test]
    #[should_panic(expected = "intern pool is full")]
    fn the_reserved_slot_is_never_handed_out() {
        slot_number(InternPool::NO_SLOT as usize);
    }

    #[test]
    #[should_panic(expected = "intern pool is full")]
    fn a_slot_past_one_word_panics_instead_of_wrapping() {
        slot_number(1 << 32);
    }

    #[test]
    #[should_panic(expected = "intern pool ids are exhausted")]
    fn a_pool_id_past_one_word_panics_instead_of_wrapping() {
        pool_id(1 << 32);
    }
}

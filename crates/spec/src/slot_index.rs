//! An exact hash index of dense `u32` slots whose values live elsewhere.
//!
//! Both hash-consing tables of a run — the intern pool's per-type index of components
//! ([`InternPool`](crate::InternPool)) and a Full store's index of rows — map a value
//! to the slot of the one stored copy of it, and both keep the values in a dense array
//! of their own.  A [`SlotIndex`] is the table part alone: open addressing over slots,
//! one `u32` and one tag byte per bucket (5 bytes), probed linearly.  A bucket is found
//! by the 64-bit hash of the value its slot names and confirmed by the caller's
//! comparison of that value, so a hit is exact however hashes collide.  Nothing of a
//! value is kept here: a probe and a growth step ask the caller about slots.
//!
//! At most 7/8 of the buckets are held, so a probe always ends at an empty one.

/// A bucket that holds no slot.  A held slot's tag is never 0.
const EMPTY: u8 = 0;

/// See the module docs.
#[derive(Debug, Default)]
pub struct SlotIndex {
    /// [`EMPTY`], or the top byte of the held value's hash (at least 1).
    tags: Vec<u8>,
    /// The slot each held bucket names.
    slots: Vec<u32>,
    /// Held buckets.
    len: usize,
}

impl SlotIndex {
    /// Bytes of one bucket: its `u32` slot and its tag.
    pub const BUCKET_BYTES: usize = std::mem::size_of::<u32>() + std::mem::size_of::<u8>();

    fn tag(hash: u64) -> u8 {
        ((hash >> 56) as u8).max(1)
    }

    /// Slots held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no slot is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The held slot, among those whose value hashed to `hash`, that `holds` accepts:
    /// `holds(slot)` says whether the value in `slot` is the one looked for.
    pub fn find(&self, hash: u64, mut holds: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.tags.len() - 1;
        let tag = Self::tag(hash);
        let mut bucket = hash as usize & mask;
        loop {
            match self.tags[bucket] {
                EMPTY => return None,
                held if held == tag && holds(self.slots[bucket]) => {
                    return Some(self.slots[bucket]);
                }
                _ => {}
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// Adds `slot`, whose value hashes to `hash` and is not held yet.  A growth step
    /// re-places every held slot by `rehash(slot)`, the hash of the value it names.
    pub fn insert(&mut self, hash: u64, slot: u32, rehash: impl FnMut(u32) -> u64) {
        if (self.len + 1) * 8 > self.tags.len() * 7 {
            self.grow(rehash);
        }
        self.place(hash, slot);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, slot: u32) {
        let mask = self.tags.len() - 1;
        let mut bucket = hash as usize & mask;
        while self.tags[bucket] != EMPTY {
            bucket = (bucket + 1) & mask;
        }
        self.tags[bucket] = Self::tag(hash);
        self.slots[bucket] = slot;
    }

    /// Doubles the buckets (16 at first) and re-places every held slot.
    fn grow(&mut self, mut rehash: impl FnMut(u32) -> u64) {
        let buckets = (self.tags.len() * 2).max(16);
        let tags = std::mem::replace(&mut self.tags, vec![EMPTY; buckets]);
        let slots = std::mem::replace(&mut self.slots, vec![0; buckets]);
        for (tag, slot) in tags.into_iter().zip(slots) {
            if tag != EMPTY {
                self.place(rehash(slot), slot);
            }
        }
    }

    /// Every held slot, in bucket order.
    pub fn held(&self) -> impl Iterator<Item = u32> + '_ {
        self.tags
            .iter()
            .zip(&self.slots)
            .filter(|(&tag, _)| tag != EMPTY)
            .map(|(_, &slot)| slot)
    }

    /// Empties the index, keeping its buckets for the slots to come.
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colliding_hashes_are_told_apart_by_the_callers_comparison() {
        // Slot i holds value i; every value hashes to one of four hashes, so each
        // probe walks past colliders, and 100 slots grow the index several times.
        let hash = |value: u32| u64::from(value % 4).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut index = SlotIndex::default();
        for slot in 0..100 {
            assert_eq!(index.find(hash(slot), |held| held == slot), None);
            index.insert(hash(slot), slot, hash);
        }
        assert_eq!(index.len(), 100);
        for value in 0..100 {
            assert_eq!(index.find(hash(value), |held| held == value), Some(value));
        }
        assert_eq!(index.find(hash(100), |held| held == 100), None);
        let mut held: Vec<u32> = index.held().collect();
        held.sort_unstable();
        assert_eq!(held, (0..100).collect::<Vec<_>>());
        index.clear();
        assert!(index.is_empty());
        assert_eq!(index.find(hash(7), |held| held == 7), None);
    }
}

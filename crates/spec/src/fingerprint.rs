//! 128-bit value fingerprints.
//!
//! TLC stores 64-bit fingerprints of states rather than the states themselves.  This
//! workspace hashes to **128 bits** so that a store which keeps nothing else of a state
//! (`remix-checker`'s fingerprint-only backend) can drop it without making accidental
//! collisions a practical concern at the state counts this reproduction reaches.
//!
//! The 128 bits are produced by a [`PairHasher`]: two SipHash-1-3 instances keyed with
//! **genuinely distinct fixed 128-bit keys**, both fed from a *single* traversal of the
//! value's [`Hash`] implementation.  Distinct keys matter: an earlier implementation ran
//! two identically keyed hashers and merely prefixed a constant into the second, which
//! correlates the halves (both were the same permutation walked from related starting
//! points) — a collision of the first half then made a collision of the second far more
//! likely than 2^-64, silently eroding the 128-bit guarantee the store relies on.  With
//! independent keys the halves behave as two independent PRFs of the same input, and the
//! single traversal halves the hashing cost of the old double-hash scheme.
//!
//! The hasher lives in this crate because [`Shared`](crate::Shared) memoizes the
//! fingerprint of the value behind it; `remix_checker::fingerprint` re-exports it, next
//! to `state_key`, the store identity built from those memoized digests.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A 128-bit state fingerprint: two halves from independently keyed hashers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64, pub u64);

mod sip;

/// Two distinctly keyed SipHash-1-3 states from one input stream.
///
/// One call to `state.hash(&mut PairHasher)` — a single traversal of the state — yields
/// the full 128-bit [`Fingerprint`] via `finish128`.
pub type PairHasher = sip::SipStream<2>;

/// The first state of a [`PairHasher`] alone: its `finish` is the first half of the
/// [`Fingerprint`] of the same stream, at half the hashing cost.
type HeadHasher = sip::SipStream<1>;

/// Computes the 128-bit fingerprint of a hashable value in a single traversal: a
/// function of the value's `Hash` stream alone, never of where or how it is stored.
pub fn fingerprint<S: Hash + ?Sized>(state: &S) -> Fingerprint {
    let mut hasher = PairHasher::new();
    state.hash(&mut hasher);
    hasher.finish128()
}

/// The first half of [`fingerprint`]`(state)`, bit for bit, from one SipHash state
/// instead of two: what a reader of the leading fingerprint bits alone (a coverage
/// prefix) needs.
pub fn fingerprint_head<S: Hash + ?Sized>(state: &S) -> u64 {
    let mut hasher = HeadHasher::new();
    state.hash(&mut hasher);
    hasher.finish()
}

/// The pass-through [`Hasher`] of a table keyed on a [`Fingerprint`]: the hash of a key
/// is the last `u64` it writes — the fingerprint's second word.  A fingerprint is 128
/// uniform bits already; rehashing it (SipHash under `RandomState`, once per lookup and
/// once more per insert) buys nothing.  Use it only for keys this program computed: a
/// table of outside input needs the default hasher's protection against crafted keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    /// Keys that end in anything but a `u64` still hash correctly, just not fast.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` whose keys end in a [`Fingerprint`], probed by [`DigestHasher`].
pub type DigestMap<K, V> = HashMap<K, V, BuildHasherDefault<DigestHasher>>;

/// A cheap 64-bit [`Hasher`] for in-memory tables whose hits are confirmed by value
/// equality: one multiply-rotate step per word written (FxHash's), and SplitMix64's
/// finalizer in `finish`, so every word reaches both the low bits that pick a bucket
/// and the top byte a table may tag it with.  It is neither keyed nor collision
/// resistant: a table that uses it must compare values on every hit, and must not
/// hold outside input.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableHasher(u64);

impl TableHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for TableHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word) ^ (tail.len() as u64) << 59);
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// The [`TableHasher`] hash of a value's `Hash` stream.
pub fn table_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = TableHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_states_have_equal_fingerprints() {
        let a = (1u32, vec![1, 2, 3]);
        let b = (1u32, vec![1, 2, 3]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn different_states_have_different_fingerprints() {
        // Not guaranteed in general, but these simple cases must differ.
        assert_ne!(fingerprint(&1u32), fingerprint(&2u32));
        assert_ne!(fingerprint(&vec![1, 2]), fingerprint(&vec![2, 1]));
    }

    #[test]
    fn halves_come_from_distinct_keys() {
        // With identically keyed hashers the halves would be equal for every input;
        // with the old prefix-perturbation scheme they were correlated.  Sanity-check
        // that the halves differ and that neither tracks the other across inputs.
        let mut xor_constant = true;
        let mut prev: Option<Fingerprint> = None;
        for i in 0..64u64 {
            let fp = fingerprint(&i);
            assert_ne!(fp.0, fp.1, "halves must not coincide (input {i})");
            if let Some(p) = prev {
                if fp.0 ^ fp.1 != p.0 ^ p.1 {
                    xor_constant = false;
                }
            }
            prev = Some(fp);
        }
        assert!(!xor_constant, "halves must not differ by a constant mask");
    }

    #[test]
    fn byte_stream_chunking_does_not_change_the_fingerprint() {
        // The same logical byte stream must fingerprint identically however `write` is
        // chunked — mixed-size writes exercise the pending-block stitching.
        let bytes: Vec<u8> = (0..37u8).collect();
        let mut one = PairHasher::new();
        one.write(&bytes);
        let mut split = PairHasher::new();
        split.write(&bytes[..3]);
        split.write(&bytes[3..20]);
        split.write(&bytes[20..21]);
        split.write(&bytes[21..]);
        assert_eq!(one.finish128(), split.finish128());
        assert_eq!(one.finish(), one.finish128().0);
    }

    #[test]
    fn length_is_part_of_the_fingerprint() {
        let mut a = PairHasher::new();
        a.write(&[0, 0]);
        let mut b = PairHasher::new();
        b.write(&[0, 0, 0]);
        assert_ne!(a.finish128(), b.finish128());
    }

    #[test]
    fn aligned_u64_fast_path_matches_the_byte_path() {
        let mut fast = PairHasher::new();
        fast.write_u64(0xdead_beef_0bad_cafe);
        let mut slow = PairHasher::new();
        slow.write(&0xdead_beef_0bad_cafeu64.to_le_bytes());
        assert_eq!(fast.finish128(), slow.finish128());
    }

    #[test]
    fn the_table_hash_follows_the_value() {
        assert_eq!(table_hash(&vec![1u32, 2]), table_hash(&vec![1u32, 2]));
        assert_ne!(table_hash(&vec![1u32, 2]), table_hash(&vec![2u32, 1]));
        assert_ne!(
            table_hash("ab"),
            table_hash("ab\0"),
            "a short tail counts its length"
        );
        assert_ne!(table_hash(&0u64), table_hash(&1u64));
    }

    #[test]
    fn the_head_is_the_first_half() {
        let bytes: Vec<u8> = (0..37).collect();
        let long = (7u16, &bytes, "tail");
        assert_eq!(fingerprint_head(&()), fingerprint(&()).0);
        assert_eq!(fingerprint_head(&42u64), fingerprint(&42u64).0);
        assert_eq!(fingerprint_head(&long), fingerprint(&long).0);
    }

    #[test]
    fn matches_pinned_reference_vectors() {
        // Hard-coded expected values, computed once from this implementation and
        // pinned for all time: any change to the sip rounds, the keys or the
        // finalization (which would silently invalidate every persisted fingerprint)
        // fails here instead of passing self-referentially.
        assert_eq!(
            fingerprint(&()),
            Fingerprint(0x237abc25925bd676, 0xaed2a90a3dde3b40),
            "zero-byte input"
        );
        assert_eq!(
            fingerprint(&42u64),
            Fingerprint(0x2ff00e6a9dd799f9, 0x6cc3af0669c3c982),
            "one aligned u64 block"
        );
    }
}

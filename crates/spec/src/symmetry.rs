//! Symmetry reduction: canonical representatives under a permutation group.
//!
//! Distributed-system state spaces are dominated by states that differ only by a
//! renaming of process identities: with `n` symmetric servers, every reachable state
//! has up to `n!` indistinguishable siblings, and an explicit-state checker that
//! fingerprints each sibling separately pays the full factorial redundancy in both
//! memory and throughput.  Symmetry reduction (TLC's `SYMMETRY` sets) explores one
//! *canonical representative* per orbit instead.
//!
//! This module provides the two pieces the engines need:
//!
//! * [`Perm`] — a permutation of `0..n` process ids (`n` ≤ [`Perm::MAX_LEN`]), with
//!   identity, composition and inversion.  It is a 16-byte `Copy` value that owns no
//!   heap memory.  Engines record the permutation applied at every discovery edge so a
//!   violation trace can later be *de-canonicalized* back into the original id frame
//!   (see `remix-checker`'s store, which keeps one `Perm` per entry).
//! * [`Canonicalize`] — the per-state-type contract: map a state to the canonical
//!   representative of its orbit, returning the permutation that was applied, and
//!   rewrite a state under an arbitrary permutation.
//!
//! # Laws
//!
//! Implementations must satisfy, for all states `s` and permutations `π` over the
//! state's id domain:
//!
//! 1. **Consistency** — `s.canonicalize() == (c, π)` implies `s.permute(&π) == c`.
//! 2. **Idempotence** — `canon(canon(s)) == canon(s)` (canonical forms are fixed
//!    points, up to the identity permutation).
//! 3. **Orbit invariance** — `canon(s.permute(&π)) == canon(s)`: every member of an
//!    orbit maps to the same representative.  This is the property that makes keying
//!    dedup maps, fingerprints and coverage counters on canonical forms sound.
//!
//! Soundness of *exploration* under canonicalization additionally needs the
//! specification itself to be equivariant (`t ∈ succ(s)` iff `π(t) ∈ succ(π(s))`);
//! see the symmetry section of `ARCHITECTURE.md` for the argument and for where the
//! Zab model approximates it.

use std::fmt;

/// A permutation of the dense id domain `0..n`, for `n` up to [`Perm::MAX_LEN`].
///
/// `perm.apply(i)` is the new id of old id `i`.  Displayed in cycle-free one-line
/// notation, e.g. `[2, 0, 1]` maps `0 → 2`, `1 → 0`, `2 → 1`.
///
/// The image is packed into one `u64`, four bits per id with id 0 in the most
/// significant nibble, and the ids from `n` to `MAX_LEN` map to themselves — so a
/// `Perm` is `Copy`, 16 bytes, and never allocates.  The derived `Ord` (packed word,
/// then length) is the lexicographic order of the image vectors: a first difference
/// within both domains is the first differing nibble, and when the shorter image is a
/// prefix of the longer, its fixed tail is the identity, which no permutation of the
/// longer's remaining ids undercuts — so the tie falls to the length, as for vectors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Perm {
    packed: u64,
    len: u8,
}

impl Perm {
    /// The widest id domain a permutation covers (as many ids as `remix-zab`'s
    /// `SidSet` holds).
    pub const MAX_LEN: usize = 16;

    /// Every id mapped to itself.
    const IDENTITY: u64 = 0x0123_4567_89ab_cdef;

    /// Bit offset of id `i`'s nibble.
    const fn shift(i: usize) -> u32 {
        (60 - 4 * i) as u32
    }

    /// The image of id `i` (any `i < MAX_LEN`).
    const fn nibble(self, i: usize) -> usize {
        ((self.packed >> Self::shift(i)) & 0xf) as usize
    }

    /// `packed` with id `i` mapped to `v`.
    const fn with_nibble(packed: u64, i: usize, v: usize) -> u64 {
        (packed & !(0xf << Self::shift(i))) | ((v as u64) << Self::shift(i))
    }

    fn check_len(n: usize) {
        assert!(
            n <= Self::MAX_LEN,
            "{n} ids exceed Perm::MAX_LEN ({})",
            Self::MAX_LEN
        );
    }

    /// The identity permutation over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds [`Perm::MAX_LEN`].
    pub fn identity(n: usize) -> Self {
        Self::check_len(n);
        Perm {
            packed: Self::IDENTITY,
            len: n as u8,
        }
    }

    /// Builds a permutation from its one-line image vector (`image[i]` is the new id
    /// of old id `i`).
    ///
    /// # Panics
    ///
    /// Panics when `image` is longer than [`Perm::MAX_LEN`] or is not a permutation of
    /// `0..image.len()`.
    pub fn from_image(image: impl AsRef<[u32]>) -> Self {
        let image = image.as_ref();
        let n = image.len();
        Self::check_len(n);
        let mut seen = 0u32;
        let mut packed = Self::IDENTITY;
        for (i, &v) in image.iter().enumerate() {
            assert!(
                (v as usize) < n && seen & (1 << v) == 0,
                "not a permutation of 0..{n}: {image:?}"
            );
            seen |= 1 << v;
            packed = Self::with_nibble(packed, i, v as usize);
        }
        Perm {
            packed,
            len: n as u8,
        }
    }

    /// The size of the id domain.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` for the empty domain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The new id of old id `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is outside the id domain.
    pub fn apply(&self, i: usize) -> usize {
        assert!(
            i < self.len(),
            "id {i} is outside the domain 0..{}",
            self.len
        );
        self.nibble(i)
    }

    /// `true` when this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.packed == Self::IDENTITY
    }

    /// The composition *self ∘ other*: first apply `other`, then `self`.
    ///
    /// `x.permute(&other).permute(&self) == x.permute(&self.compose(&other))` — the
    /// composition rule engines use to accumulate per-edge permutations along a
    /// parent chain.
    ///
    /// # Panics
    ///
    /// Panics when the domains differ.
    pub fn compose(&self, other: &Perm) -> Perm {
        assert_eq!(self.len, other.len, "composing different id domains");
        let mut packed = Self::IDENTITY;
        for i in 0..self.len() {
            packed = Self::with_nibble(packed, i, self.nibble(other.nibble(i)));
        }
        Perm { packed, ..*self }
    }

    /// The inverse permutation: `p.compose(&p.inverse())` is the identity.
    pub fn inverse(&self) -> Perm {
        let mut packed = Self::IDENTITY;
        for i in 0..self.len() {
            packed = Self::with_nibble(packed, self.nibble(i), i);
        }
        Perm { packed, ..*self }
    }

    /// The one-line image (item `i` is the new id of old id `i`).
    pub fn image(&self) -> impl ExactSizeIterator<Item = u32> {
        let perm = *self;
        (0..perm.len()).map(move |i| perm.nibble(i) as u32)
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.image().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Renders the image vector, as `Perm(Vec<u32>)` derived it: `Perm([2, 0, 1])`.
impl fmt::Debug for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let image: Vec<u32> = self.image().collect();
        f.debug_tuple("Perm").field(&image).finish()
    }
}

/// Canonical representatives under a permutation group of process ids.
///
/// See the [module docs](self) for the laws implementations must satisfy, and
/// `remix-zab`'s `ZabState` implementation for the canonical example: servers are
/// sorted by a permutation-invariant sort key, groups of servers with equal keys are
/// resolved by minimizing the rewritten state, and every `Sid`-bearing field (network
/// channels, received votes, learner maps, pending acknowledgements, ghost
/// establishment records, leader and vote fields) is rewritten consistently.
pub trait Canonicalize: Sized {
    /// Returns the canonical representative of this state's orbit together with the
    /// permutation `π` that maps this state onto it (`canon == self.permute(&π)`).
    fn canonicalize(&self) -> (Self, Perm);

    /// Owned variant of [`canonicalize`](Self::canonicalize): consumes `self` so an
    /// implementation can return the state unchanged (no deep rewrite, no clone) when
    /// the canonicalizing permutation turns out to be the identity — which in a checker
    /// expanding successors of an already-canonical parent is the common case.  The
    /// engines canonicalize every successor through this method (attached by
    /// `Spec::with_canonicalization`).  Must agree with `canonicalize` on both
    /// components for every state.
    fn canonicalize_owned(self) -> (Self, Perm) {
        self.canonicalize()
    }

    /// Rewrites every id-bearing field of the state through `perm` (old id `i`
    /// becomes `perm.apply(i)`).
    fn permute(&self, perm: &Perm) -> Self;
}

/// Process-global counters for canonicalization edge cases, snapshotted by the checker
/// into its per-run statistics (`CheckStats::canon_fallbacks` in `remix-checker`).
pub mod canon_stats {
    // sync-exempt: the spec crate sits below remix-checker and cannot use its
    // instrumented checker::sync layer; one lock-free statistics counter.
    use std::sync::atomic::{AtomicU64, Ordering};

    static TIE_CAP_FALLBACKS: AtomicU64 = AtomicU64::new(0);

    /// Records one tie-group that exceeded every refinement stage and fell back to a
    /// non-orbit-invariant ordering.  Any nonzero count means two members of one orbit
    /// may map to different representatives (dedup misses, never unsoundness).
    pub fn note_tie_cap_fallback() {
        // ordering: Relaxed — statistics only; runs snapshot the monotonic count
        // before and after and report the difference, no other memory rides on it.
        TIE_CAP_FALLBACKS.fetch_add(1, Ordering::Relaxed);
    }

    /// The process-global fallback count (monotonic; diff two reads to scope a run).
    #[must_use]
    pub fn tie_cap_fallbacks() -> u64 {
        // ordering: Relaxed — see note_tie_cap_fallback.
        TIE_CAP_FALLBACKS.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_inverse() {
        let id = Perm::identity(4);
        assert!(id.is_identity());
        assert_eq!(id.apply(2), 2);
        let p = Perm::from_image(vec![2, 0, 1]);
        assert!(!p.is_identity());
        assert_eq!(p.apply(0), 2);
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
        assert_eq!(p.to_string(), "[2, 0, 1]");
    }

    #[test]
    fn composition_applies_right_to_left() {
        // other first, then self.
        let swap01 = Perm::from_image(vec![1, 0, 2]);
        let rot = Perm::from_image(vec![1, 2, 0]);
        let composed = rot.compose(&swap01);
        for i in 0..3 {
            assert_eq!(composed.apply(i), rot.apply(swap01.apply(i)));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn malformed_images_are_rejected() {
        let _ = Perm::from_image(vec![0, 0, 1]);
    }
}

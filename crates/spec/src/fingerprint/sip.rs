//! The SipHash-1-3 stream behind [`PairHasher`](super::PairHasher) and the head-only
//! hasher of [`fingerprint_head`](super::fingerprint_head).  The module is private, so
//! the generic stream is reachable only through those two.

use std::hash::Hasher;

use super::Fingerprint;

/// One SipHash-1-3 state (the variant `DefaultHasher` uses: 1 compression round per
/// message block, 3 finalization rounds), keyed explicitly.
#[derive(Clone, Copy)]
struct Sip13 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

#[inline]
fn sip_round(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

impl Sip13 {
    #[inline]
    fn new(k0: u64, k1: u64) -> Self {
        Sip13 {
            v0: k0 ^ 0x736f_6d65_7073_6575,
            v1: k1 ^ 0x646f_7261_6e64_6f6d,
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
        }
    }

    #[inline]
    fn compress(&mut self, block: u64) {
        self.v3 ^= block;
        sip_round(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        self.v0 ^= block;
    }

    #[inline]
    fn finish(mut self, tail_block: u64) -> u64 {
        self.compress(tail_block);
        self.v2 ^= 0xff;
        for _ in 0..3 {
            sip_round(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        }
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

/// The first hasher's fixed 128-bit key.
const KEY_A: (u64, u64) = (0x9e37_79b9_7f4a_7c15, 0xf39c_c060_5ced_c834);
/// The second hasher's fixed 128-bit key — unrelated to [`KEY_A`] (not a constant
/// offset, not a prefix perturbation of the same key).
const KEY_B: (u64, u64) = (0x1082_276b_f3a2_7251, 0x7109_88c0_bb3c_d9e2);

/// A [`Hasher`] driving `N` distinctly keyed SipHash-1-3 states (the first `N` of
/// [`KEY_A`], [`KEY_B`]) from one input stream: a `PairHasher` runs both, a
/// `HeadHasher` the first alone.  `finish` is always the first state's hash.
pub struct SipStream<const N: usize> {
    states: [Sip13; N],
    /// Pending input bytes not yet forming a full 8-byte block (little-endian, low
    /// `pending_len` bytes valid).
    pending: u64,
    pending_len: usize,
    /// Total bytes written (folded into the final block, as in SipHash proper).
    written: u64,
}

impl<const N: usize> Default for SipStream<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> SipStream<N> {
    /// Creates the hasher with the module's fixed, distinct keys.
    ///
    /// # Panics
    ///
    /// When `N` is above 2: there are two keys.
    pub fn new() -> Self {
        let keys = [KEY_A, KEY_B];
        SipStream {
            states: std::array::from_fn(|i| Sip13::new(keys[i].0, keys[i].1)),
            pending: 0,
            pending_len: 0,
            written: 0,
        }
    }

    #[inline]
    fn compress(&mut self, block: u64) {
        for state in &mut self.states {
            state.compress(block);
        }
    }

    /// SipHash's final block: the pending tail bytes with the input length in the top
    /// byte, so streams of different lengths can never share a final block.
    #[inline]
    fn tail(&self) -> u64 {
        self.pending | (self.written << 56)
    }

    /// Appends the low `len` bytes (1–8) of `value` — which must be zero above them — to
    /// the stream: the same bytes `write(&value.to_le_bytes()[..len])` would feed, shifted
    /// into the pending block as one word instead of byte by byte.  `derive(Hash)` feeds
    /// every integer field, enum discriminant and length prefix of a state through the
    /// typed writes, so this is the per-edge path of every digest.
    #[inline]
    fn write_short(&mut self, value: u64, len: usize) {
        debug_assert!((1..=8).contains(&len) && (len == 8 || value >> (8 * len) == 0));
        self.written = self.written.wrapping_add(len as u64);
        let shift = 8 * self.pending_len as u32;
        self.pending |= value << shift;
        self.pending_len += len;
        if self.pending_len >= 8 {
            let block = self.pending;
            self.compress(block);
            self.pending_len -= 8;
            // What did not fit: `value >> (64 - shift)`, written so that an empty block
            // (`shift` 0, which only a full word overflows) leaves nothing behind.
            self.pending = (value >> 1) >> (63 - shift);
        }
    }
}

impl SipStream<2> {
    /// Finalizes both hashers, producing the 128-bit fingerprint.
    pub fn finish128(&self) -> Fingerprint {
        let tail = self.tail();
        Fingerprint(self.states[0].finish(tail), self.states[1].finish(tail))
    }
}

impl<const N: usize> Hasher for SipStream<N> {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        self.written = self.written.wrapping_add(bytes.len() as u64);
        // Fill the pending block first.
        if self.pending_len > 0 {
            let need = 8 - self.pending_len;
            let take = need.min(bytes.len());
            for (i, &byte) in bytes[..take].iter().enumerate() {
                self.pending |= (byte as u64) << (8 * (self.pending_len + i));
            }
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len == 8 {
                let block = self.pending;
                self.compress(block);
                self.pending = 0;
                self.pending_len = 0;
            } else {
                return;
            }
        }
        // Whole blocks.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let block = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.compress(block);
        }
        // Remainder becomes the new pending tail.
        for (i, &byte) in chunks.remainder().iter().enumerate() {
            self.pending |= (byte as u64) << (8 * i);
        }
        self.pending_len = chunks.remainder().len();
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.write_short(value as u64, 1);
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.write_short(value as u64, 2);
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_short(value as u64, 4);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.write_short(value, 8);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// The first half of the fingerprint (the full 128 bits come from
    /// [`SipStream::finish128`]).
    fn finish(&self) -> u64 {
        self.states[0].finish(self.tail())
    }
}

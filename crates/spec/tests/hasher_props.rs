//! Property test of [`PairHasher`]'s typed writes, via the vendored `proptest` stand-in.
//!
//! Every fingerprint, component digest, `state_key`, coverage key and spill record is a
//! function of the byte stream a value's `Hash` feeds the hasher.  `write(&[u8])` defines
//! that function; `write_u8` / `write_u16` / `write_u32` / `write_u64` / `write_usize`
//! are shortcuts that shift the value into the pending block as one word, and must feed
//! exactly the value's little-endian bytes — whatever is pending when they are called.

use std::hash::Hasher;

use proptest::prelude::*;
use remix_spec::PairHasher;

proptest! {
    /// Any sequence of typed writes and byte slices (0–24 bytes), starting at any
    /// `pending_len`, finishes like the concatenated bytes fed through `write` alone.
    #[test]
    fn typed_writes_feed_their_little_endian_bytes(
        lead in 0usize..8,
        ops in proptest::collection::vec((0u8..6, 0u64..u64::MAX, 0usize..25), 0..40),
    ) {
        let mut stream: Vec<u8> = (0..lead as u8).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
        let mut typed = PairHasher::new();
        typed.write(&stream);
        for (kind, value, len) in ops {
            match kind {
                0 => {
                    typed.write_u8(value as u8);
                    stream.push(value as u8);
                }
                1 => {
                    typed.write_u16(value as u16);
                    stream.extend((value as u16).to_le_bytes());
                }
                2 => {
                    typed.write_u32(value as u32);
                    stream.extend((value as u32).to_le_bytes());
                }
                3 => {
                    typed.write_u64(value);
                    stream.extend(value.to_le_bytes());
                }
                4 => {
                    typed.write_usize(value as usize);
                    stream.extend((value as usize as u64).to_le_bytes());
                }
                _ => {
                    let slice: Vec<u8> = (0..len)
                        .map(|i| (value >> (8 * (i % 8))) as u8 ^ i as u8)
                        .collect();
                    typed.write(&slice);
                    stream.extend(slice);
                }
            }
        }
        let mut oracle = PairHasher::new();
        oracle.write(&stream);
        prop_assert_eq!(typed.finish128(), oracle.finish128(), "stream {:?}", stream);
        prop_assert_eq!(typed.finish(), oracle.finish());
    }
}

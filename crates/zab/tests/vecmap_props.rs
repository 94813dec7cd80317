//! `VecMap` against its oracle: a sorted vector and a `BTreeMap` put through the same
//! sequence of writes must be indistinguishable through every read the specification
//! uses — including `Ord` (canonical representatives are `Ord`-minima), the `Debug`
//! rendering (traces) and the byte stream fed to the fingerprint hasher (a stored
//! fingerprint must not depend on the layout).

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;
use remix_checker::fingerprint;
use remix_zab::VecMap;

/// One write, as both maps spell it.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u16),
    Remove(u8),
    Clear,
    /// `*entry(key).or_default() += by`.
    Bump(u8, u16),
}

/// Inserts 4 in 10, removes and bumps 2 in 10 each, clears 1 in 10 — over a small key
/// range, so writes meet keys already present.
fn op() -> impl Strategy<Value = Op> {
    (0..10u8, 0..8u8, 0..1_000u16).prop_map(|(kind, k, v)| match kind {
        0..=3 => Op::Insert(k, v),
        4..=5 => Op::Remove(k),
        6 => Op::Clear,
        _ => Op::Bump(k, v % 4),
    })
}

/// Applies `ops` to a fresh pair, checking that every write reports the same.
fn build(ops: &[Op]) -> (VecMap<u8, u16>, BTreeMap<u8, u16>) {
    let (mut map, mut oracle) = (VecMap::new(), BTreeMap::new());
    for op in ops {
        match *op {
            Op::Insert(k, v) => prop_assert_eq!(map.insert(k, v), oracle.insert(k, v)),
            Op::Remove(k) => prop_assert_eq!(map.remove(&k), oracle.remove(&k)),
            Op::Clear => {
                map.clear();
                oracle.clear();
            }
            Op::Bump(k, by) => {
                let (a, b) = (map.entry(k).or_default(), oracle.entry(k).or_default());
                *a = a.wrapping_add(by);
                *b = b.wrapping_add(by);
                prop_assert_eq!(*a, *b);
            }
        }
    }
    (map, oracle)
}

proptest! {
    #[test]
    fn a_vec_map_reads_like_the_btree_map(ops in vec(op(), 0..40), probe in 0..8u8) {
        let (map, oracle) = build(&ops);
        prop_assert_eq!(map.len(), oracle.len());
        prop_assert_eq!(map.is_empty(), oracle.is_empty());
        prop_assert_eq!(map.get(&probe), oracle.get(&probe));
        prop_assert_eq!(map.contains_key(&probe), oracle.contains_key(&probe));
        prop_assert_eq!(map.iter().collect::<Vec<_>>(), oracle.iter().collect::<Vec<_>>());
        prop_assert_eq!(map.keys().collect::<Vec<_>>(), oracle.keys().collect::<Vec<_>>());
        prop_assert_eq!(map.values().collect::<Vec<_>>(), oracle.values().collect::<Vec<_>>());
        prop_assert_eq!(format!("{map:?}"), format!("{oracle:?}"));
        prop_assert_eq!(fingerprint(&map), fingerprint(&oracle));
        let collected: VecMap<u8, u16> = oracle.clone().into_iter().collect();
        prop_assert_eq!(collected, map);
    }

    #[test]
    fn two_vec_maps_order_as_their_btree_maps_do(
        a in vec(op(), 0..24),
        b in vec(op(), 0..24),
    ) {
        let ((ma, oa), (mb, ob)) = (build(&a), build(&b));
        prop_assert_eq!(ma.cmp(&mb), oa.cmp(&ob));
        prop_assert_eq!(ma.partial_cmp(&mb), oa.partial_cmp(&ob));
        prop_assert_eq!(ma == mb, oa == ob);
    }

    #[test]
    fn collecting_keeps_the_last_value_of_a_key(pairs in vec((0..8u8, 0..1_000u16), 0..24)) {
        let map: VecMap<u8, u16> = pairs.iter().copied().collect();
        let oracle: BTreeMap<u8, u16> = pairs.into_iter().collect();
        prop_assert_eq!(map.iter().collect::<Vec<_>>(), oracle.iter().collect::<Vec<_>>());
    }
}

#[test]
#[should_panic(expected = "no entry found for key")]
fn indexing_a_missing_key_panics_as_the_btree_map_does() {
    let map: VecMap<u8, u16> = [(1, 10)].into_iter().collect();
    assert_eq!(map[&1], 10);
    let _ = map[&2];
}

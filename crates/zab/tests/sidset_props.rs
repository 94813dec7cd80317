//! `SidSet` against its oracle: a bitmask and a `BTreeSet<Sid>` built from the same
//! input must be indistinguishable through every operation the specification uses —
//! including `Ord` (canonical representatives are `Ord`-minima) and the byte stream fed
//! to the fingerprint hasher (a stored fingerprint must not depend on the layout).

use std::collections::BTreeSet;

use proptest::collection::vec;
use proptest::prelude::*;
use remix_checker::fingerprint;
use remix_zab::{Sid, SidSet};

fn sids() -> impl Strategy<Value = Vec<Sid>> {
    vec(0..SidSet::CAPACITY, 0..12)
}

proptest! {
    #[test]
    fn a_sid_set_reads_like_the_btree_set(input in sids(), probe in 0..SidSet::CAPACITY) {
        let set: SidSet = input.iter().copied().collect();
        let oracle: BTreeSet<Sid> = input.iter().copied().collect();
        prop_assert_eq!(set.len(), oracle.len());
        prop_assert_eq!(set.is_empty(), oracle.is_empty());
        prop_assert_eq!(set.contains(&probe), oracle.contains(&probe));
        prop_assert_eq!(
            set.iter().collect::<Vec<_>>(),
            oracle.iter().copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(format!("{set:?}"), format!("{oracle:?}"));
        prop_assert_eq!(fingerprint(&set), fingerprint(&oracle));
    }

    #[test]
    fn insert_and_remove_report_what_the_btree_set_reports(
        input in sids(),
        removals in sids(),
    ) {
        let (mut set, mut oracle) = (SidSet::new(), BTreeSet::new());
        for sid in &input {
            prop_assert_eq!(set.insert(*sid), oracle.insert(*sid));
        }
        for sid in &removals {
            prop_assert_eq!(set.remove(sid), oracle.remove(sid));
        }
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), oracle.into_iter().collect::<Vec<_>>());
        set.clear();
        prop_assert!(set.is_empty());
    }

    #[test]
    fn two_sid_sets_order_as_their_btree_sets_do(a in sids(), b in sids()) {
        let (sa, sb): (SidSet, SidSet) = (a.iter().copied().collect(), b.iter().copied().collect());
        let (oa, ob): (BTreeSet<Sid>, BTreeSet<Sid>) = (a.into_iter().collect(), b.into_iter().collect());
        prop_assert_eq!(sa.cmp(&sb), oa.cmp(&ob));
        prop_assert_eq!(sa == sb, oa == ob);
    }
}

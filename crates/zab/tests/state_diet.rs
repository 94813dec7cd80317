//! Fingerprints are representation-independent: the digests below were computed on the
//! deep-copy `ZabState` (plain `Vec<ServerData>`, `BTreeSet<Sid>` sid sets) and must
//! never move when the state's *layout* changes — a moved digest means the `Hash`
//! stream changed, and with it every sampler's coverage key and canonical
//! representative.
//!
//! The store identity, `state_key`, is a different function of the same value (a hash
//! over memoized component digests).  Its bytes are pinned nowhere, but over each space
//! it must induce exactly `fingerprint`'s partition: as many distinct keys as distinct
//! fingerprints, paired one to one.
//!
//! And the store's third representation — the row of pool slots `SpecState::intern`
//! writes — must read back (`SpecState::from_row`) as the very state: equal, every
//! component the pool's own allocation, key and fingerprint unmoved.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use remix_checker::fingerprint::{fingerprint, state_key, Fingerprint};
use remix_spec::{InternPool, Shared, Spec, SpecState};
use remix_zab::{ClusterConfig, CodeVersion, CodeViolation, SpecPreset, ViolationKind, ZabState};

/// Writes `state` down as a row of `pool` and reads it back.
fn round_trip(state: &ZabState, pool: &mut InternPool, row: &mut Vec<u32>) {
    let mut pooled = state.clone();
    row.clear();
    pooled.intern(pool, Some(row));
    assert_eq!(&pooled, state, "interning never changes the value");
    assert_eq!(row.len(), 2 * state.n() + 2);
    assert!(
        row.iter().all(|&word| word <= u32::from(u16::MAX)),
        "every word fits the store's 16-bit units: {row:?}"
    );
    let rebuilt = ZabState::from_row(row, pool);
    assert_eq!(&rebuilt, state, "row {row:?}");
    let servers = rebuilt.servers.iter().zip(&pooled.servers);
    assert!(servers.into_iter().all(|(a, b)| Shared::ptr_eq(a, b)));
    let channels = rebuilt.msgs.iter().zip(&pooled.msgs);
    assert!(channels.into_iter().all(|(a, b)| Shared::ptr_eq(a, b)));
    assert!(Shared::ptr_eq(&rebuilt.ghost, &pooled.ghost));
    assert_eq!(state_key(&rebuilt), state_key(state));
    assert_eq!(fingerprint(&rebuilt), fingerprint(state));
}

/// `(states, wrapping sum of fp.0, wrapping sum of fp.1)` over the reachable space,
/// explored with nothing but `Spec::successors` and `fingerprint`; every generated
/// state (duplicates included) also checks the fingerprint ↔ key bijection and the
/// row round trip.
fn digest(spec: &Spec<ZabState>) -> (usize, u64, u64) {
    let (mut pool, mut row) = (InternPool::new(), Vec::new());
    let mut key_of: HashMap<Fingerprint, Fingerprint> = HashMap::new();
    let mut keys: HashSet<Fingerprint> = HashSet::new();
    let mut frontier: Vec<ZabState> = Vec::new();
    let (mut sum0, mut sum1) = (0u64, 0u64);
    let mut visit = |state: ZabState, frontier: &mut Vec<ZabState>| {
        round_trip(&state, &mut pool, &mut row);
        let fp = fingerprint(&state);
        let key = state_key(&state);
        match key_of.entry(fp) {
            Entry::Occupied(seen) => {
                assert_eq!(*seen.get(), key, "one fingerprint, two keys:\n{state:#?}")
            }
            Entry::Vacant(slot) => {
                slot.insert(key);
                assert!(keys.insert(key), "two fingerprints, one key:\n{state:#?}");
                sum0 = sum0.wrapping_add(fp.0);
                sum1 = sum1.wrapping_add(fp.1);
                frontier.push(state);
            }
        }
    };
    for init in &spec.init {
        visit(init.clone(), &mut frontier);
    }
    while let Some(state) = frontier.pop() {
        for (_, child) in spec.successors(&state) {
            visit(child, &mut frontier);
        }
    }
    assert_eq!(keys.len(), key_of.len());
    (key_of.len(), sum0, sum1)
}

#[test]
fn mspec3_smoke_space_digest_is_pinned() {
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(0);
    assert_eq!(
        digest(&SpecPreset::MSpec3.build(&config)),
        (503, 0xb565_7c6b_f95c_1ddc, 0xc3a8_e8ca_af73_1018)
    );
}

#[test]
fn sysspec_two_server_digest_is_pinned() {
    let config = ClusterConfig {
        num_servers: 2,
        ..ClusterConfig::small(CodeVersion::V391)
            .with_transactions(1)
            .with_crashes(1)
    };
    assert_eq!(
        digest(&SpecPreset::SysSpec.build(&config)),
        (1605, 0x6361_6cf4_d5a2_fa7d, 0xea4a_ff0b_3d8e_6b77)
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "expensive model-checking run; use --release"
)]
fn mspec3_exhaust_fine_digest_is_pinned() {
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(2);
    assert_eq!(
        digest(&SpecPreset::MSpec3.build(&config)),
        (221_490, 0xf1fe_a7ad_2265_a394, 0xee0b_369c_4dc3_9f67)
    );
}

/// The row's width follows the ensemble (`2n + 2`: 12 words on five servers), and its
/// last word — the scalars — holds the budgets inline (below 2^15) unless there is a
/// partition or a violation to point at, when it is 2^15 plus a pool slot: this walk
/// partitions the network, and its last state is given a code violation by hand.
#[test]
fn five_server_rows_round_trip() {
    let config = ClusterConfig {
        num_servers: 5,
        ..ClusterConfig::small(CodeVersion::FinalFix)
            .with_transactions(1)
            .with_partitions(1)
    };
    let spec = SpecPreset::MSpec3.build(&config);
    let (mut pool, mut row) = (InternPool::new(), Vec::new());
    let mut seen: HashSet<Fingerprint> = HashSet::new();
    let mut frontier: Vec<ZabState> = spec.init.clone();
    let mut partitioned = None;
    while let Some(state) = frontier.pop().filter(|_| seen.len() < 3_000) {
        for (_, child) in spec.successors(&state) {
            round_trip(&child, &mut pool, &mut row);
            assert_eq!(row.len(), 12);
            assert!(child.violation.is_none(), "the final fix has no error path");
            assert_eq!(row[11] < 1 << 15, child.partitioned.is_empty());
            if !child.partitioned.is_empty() {
                partitioned = Some(child.clone());
            }
            if seen.insert(state_key(&child)) {
                frontier.push(child);
            }
        }
    }
    let mut flagged = partitioned.expect("the walk must reach a partitioned network");
    flagged.record_violation(CodeViolation {
        kind: ViolationKind::BadAck,
        instance: 1,
        server: 4,
        issue: "ZK-4685",
    });
    round_trip(&flagged, &mut pool, &mut row);
    assert!(row[11] >= 1 << 15);
}

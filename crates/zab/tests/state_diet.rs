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

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use remix_checker::fingerprint::{fingerprint, state_key, Fingerprint};
use remix_spec::Spec;
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

/// `(states, wrapping sum of fp.0, wrapping sum of fp.1)` over the reachable space,
/// explored with nothing but `Spec::successors` and `fingerprint`; every generated
/// state (duplicates included) also checks the fingerprint ↔ key bijection.
fn digest(spec: &Spec<ZabState>) -> (usize, u64, u64) {
    let mut key_of: HashMap<Fingerprint, Fingerprint> = HashMap::new();
    let mut keys: HashSet<Fingerprint> = HashSet::new();
    let mut frontier: Vec<ZabState> = Vec::new();
    let (mut sum0, mut sum1) = (0u64, 0u64);
    let mut visit = |state: ZabState, frontier: &mut Vec<ZabState>| {
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

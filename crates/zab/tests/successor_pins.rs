//! Every specification enumerates the same successors, in the same order, with the
//! same declared effects, whatever the enumeration protocol behind `Spec::successors`.
//!
//! Over the capped corpus of `label_render.rs` (every specification's reachable states
//! under one crash and one transaction), [`PINS`] holds per specification the number of
//! enabled instances and an order-sensitive FNV-1a 64 digest of each state's sequence of
//! `(rendered label, Effect, fingerprint(successor))` triples, corpus state by corpus
//! state.  A reordered, dropped, added or differently built successor moves the digest,
//! and so does a changed footprint.  The protocol-level specifications are pinned beside
//! the five presets.
//!
//! The samplers count offers without building them and then build one; on every corpus
//! state the offers counted without applying, the offers applied, and the successors
//! `Spec::successors` hands out must agree.  Coverage prefixes read
//! `fingerprint_head`, which must equal every successor's `fingerprint(..).0`.

use remix_checker::{corpus, CorpusOptions};
use remix_spec::{fingerprint, fingerprint_head, LabelTable, Offer, Spec};
use remix_zab::protocol::{protocol_spec, ProtocolVariant};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

/// Per specification (in [`specs`]' order): the instances the corpus enables, and the
/// digest of their `(label, effect, successor fingerprint)` sequence.
const PINS: [(usize, u64); 7] = [
    (124_211, 0x1960_65e2_5ed2_c8c6),
    (13_068, 0x5450_e473_f56a_b8e0),
    (15_620, 0x55e9_f0b2_a3f9_2fed),
    (51_352, 0x73b8_daf8_6e85_5f27),
    (124_211, 0x1960_65e2_5ed2_c8c6),
    (6_031, 0xa7ce_061e_1071_f7aa),
    (7_295, 0x2e19_459c_0c90_a915),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The five presets in [`SpecPreset::all`]'s order, then the original and the improved
/// protocol-level specifications.
fn specs(config: &ClusterConfig) -> Vec<(String, Spec<ZabState>)> {
    let mut specs: Vec<_> = SpecPreset::all()
        .iter()
        .map(|preset| (format!("{preset:?}"), preset.build(config)))
        .collect();
    for variant in [ProtocolVariant::Original, ProtocolVariant::Improved] {
        specs.push((format!("{variant:?}"), protocol_spec(variant, config)));
    }
    specs
}

#[test]
#[cfg_attr(debug_assertions, ignore = "enumerates 100,000 states; use --release")]
fn every_specification_enumerates_the_pinned_successors() {
    let config = ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_crashes(1);
    let specs = specs(&config);
    assert_eq!(specs.len(), PINS.len());
    let mut seen = Vec::new();
    for (name, spec) in &specs {
        let states = corpus(
            spec,
            CorpusOptions {
                max_states: 20_000,
                ..CorpusOptions::default()
            },
        );
        let labels = LabelTable::new();
        let mut digest = Fnv::new();
        let mut instances = 0usize;
        for state in &states {
            let successors = spec.successors(state);
            let mut counted = 0;
            spec.offer(state, &mut |_: Offer<'_, _>| counted += 1);
            let mut applied = 0;
            spec.for_each_successor(state, &labels, |_, _, _| applied += 1);
            assert_eq!(
                (counted, applied),
                (successors.len(), successors.len()),
                "{name}"
            );
            let built: Vec<_> = spec
                .actions()
                .flat_map(|action| action.enabled(state))
                .collect();
            assert_eq!(built.len(), successors.len(), "{name}");
            for (inst, (label, next)) in built.iter().zip(&successors) {
                assert_eq!(&inst.label.to_string(), label, "{name}");
                let fp = fingerprint(next);
                assert_eq!(fingerprint(&inst.next), fp, "{name} {label}");
                assert_eq!(fingerprint_head(next), fp.0, "{name} {label}");
                digest.bytes(label.as_bytes());
                digest.bytes(&[0]);
                digest.bytes(format!("{:?}", inst.effect).as_bytes());
                digest.bytes(&[0]);
                digest.bytes(&fp.0.to_le_bytes());
                digest.bytes(&fp.1.to_le_bytes());
            }
            // A state boundary, so moving a successor to a neighbour moves the digest.
            digest.bytes(&[0xff]);
            instances += successors.len();
        }
        seen.push((instances, digest.0));
    }
    let printed: Vec<String> = seen
        .iter()
        .map(|(n, d)| format!("({n}, {d:#018x})"))
        .collect();
    assert_eq!(seen, PINS, "observed: [{}]", printed.join(", "));
}

//! Typed action labels render byte-identically to the strings the checker's traces,
//! pinned witnesses and artefacts were written with.
//!
//! Every Zab action builds its label as a `Label` (an action name plus integer or
//! server-set parameters) and `LabelTable` interns it without rendering it.  Over a
//! capped corpus of every preset's reachable states, each enabled instance's label must
//! resolve through the table to its own `Display` string, two labels must share an id
//! exactly when their strings are equal, and `Spec::successors` must hand out the same
//! strings in the same order.  Those checks hold the rendering to itself; what ties it
//! to the old `format!` strings is [`PINS`], each preset's set of distinct labels as
//! the `format!`-built actions rendered it over the same corpus.

use std::collections::{BTreeSet, HashMap};

use remix_checker::{corpus, CorpusOptions};
use remix_spec::{LabelId, LabelTable};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// Per preset (in [`SpecPreset::all`]'s order): the distinct labels the corpus
/// enables, and the FNV-1a 64 hash of their sorted list, each followed by `\n` — taken
/// from the actions that built their labels with `format!`.
const PINS: [(usize, u64); 5] = [
    (35, 0xed29_113a_1f68_5ed8),
    (81, 0x15f4_9285_2520_f9a8),
    (87, 0x0a54_8c4c_a329_529a),
    (99, 0xe3ee_864c_fd92_87ba),
    (35, 0xed29_113a_1f68_5ed8),
];

fn fnv1a(labels: &BTreeSet<String>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in labels.iter().flat_map(|label| label.bytes().chain([b'\n'])) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "enumerates 100,000 states twice; use --release"
)]
fn typed_labels_resolve_to_their_rendered_strings() {
    let config = ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_crashes(1);
    assert_eq!(SpecPreset::all().len(), PINS.len());
    for (&preset, &(distinct, hash)) in SpecPreset::all().iter().zip(&PINS) {
        let spec = preset.build(&config);
        let states = corpus(
            &spec,
            CorpusOptions {
                max_states: 20_000,
                ..CorpusOptions::default()
            },
        );
        let table = LabelTable::new();
        let mut id_of: HashMap<String, LabelId> = HashMap::new();
        let mut text_of: HashMap<LabelId, String> = HashMap::new();
        let mut instances = 0usize;
        for state in &states {
            let mut rendered = Vec::new();
            for action in spec.actions() {
                for instance in action.enabled(state) {
                    let text = instance.label.to_string();
                    let id = table.intern_label(instance.label);
                    assert_eq!(table.resolve(id), text, "{preset:?}");
                    assert_eq!(*id_of.entry(text.clone()).or_insert(id), id, "{text}");
                    assert_eq!(*text_of.entry(id).or_insert(text.clone()), text);
                    rendered.push(text);
                    instances += 1;
                }
            }
            let successors: Vec<String> = spec
                .successors(state)
                .into_iter()
                .map(|(label, _)| label)
                .collect();
            assert_eq!(successors, rendered, "{preset:?}");
        }
        assert!(
            states.len() > 1_000 && instances > states.len(),
            "{preset:?}"
        );
        // Init, then one id per distinct string.
        assert_eq!(table.len(), id_of.len() + 1, "{preset:?}");
        let labels: BTreeSet<String> = id_of.into_keys().collect();
        assert_eq!(
            (labels.len(), fnv1a(&labels)),
            (distinct, hash),
            "{preset:?}"
        );
    }
}

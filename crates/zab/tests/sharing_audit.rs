//! Sharing audit: a successor shares with its parent every component its action's
//! declared `Effect` does not write, and enumerating successors never writes through
//! to the parent.
//!
//! `Shared` copies on *any* `&mut`, including writes that change nothing (`clear()` on
//! an empty queue), so a spurious `&mut` in an action body silently costs a component
//! copy per successor.  This turns it into a failing test naming the action — and gives
//! the declared footprints a second, pointer-level witness next to the hash-level
//! effect audit of `remix-analyze`.

use remix_checker::{corpus, fingerprint, CorpusOptions};
use remix_spec::effect::flags;
use remix_spec::Shared;
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// Audits every transition out of the reduction-free corpus of `preset` on `config`;
/// returns how many successors carried a (non-global) declared footprint.
fn audit(preset: SpecPreset, config: &ClusterConfig, max_states: usize) -> usize {
    let spec = preset.build(config);
    let states = corpus(
        &spec,
        CorpusOptions {
            max_states,
            ..CorpusOptions::default()
        },
    );
    let mut audited = 0;
    for parent in &states {
        let before = fingerprint(parent);
        for action in spec.actions() {
            for inst in action.enabled(parent) {
                let Some(effect) = inst.effect.filter(|e| !e.is_global()) else {
                    continue;
                };
                audited += 1;
                let (label, child) = (&inst.label, &inst.next);
                for i in 0..parent.n() {
                    if effect.writes_servers & (1 << i) == 0 {
                        assert!(
                            Shared::ptr_eq(&parent.servers[i], &child.servers[i]),
                            "{label}: server {i} is outside writes_servers but was copied"
                        );
                    }
                    if (effect.writes_channels >> (i * 8)) & 0xff == 0 {
                        assert!(
                            Shared::ptr_eq(&parent.msgs[i], &child.msgs[i]),
                            "{label}: no channel out of {i} is declared written but its \
                             row was copied"
                        );
                    }
                }
                if effect.writes_flags & flags::GHOST == 0 {
                    assert!(
                        Shared::ptr_eq(&parent.ghost, &child.ghost),
                        "{label}: the ghost flag is not declared written but the ghost \
                         state was copied"
                    );
                }
            }
        }
        assert_eq!(
            fingerprint(parent),
            before,
            "enumerating successors wrote through to the parent:\n{parent:#?}"
        );
    }
    audited
}

#[test]
fn successors_share_what_their_effect_does_not_write() {
    let smoke = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(0);
    assert!(audit(SpecPreset::MSpec3, &smoke, usize::MAX) > 500);
}

#[test]
fn fault_and_coarse_actions_share_too() {
    // The smoke space has no fault budget; these bounded corpora reach the crash,
    // restart and partition actions and the coarse / baseline action libraries.
    let faulty = ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_partitions(1);
    for preset in [SpecPreset::MSpec3, SpecPreset::MSpec1, SpecPreset::SysSpec] {
        assert!(audit(preset, &faulty, 3_000) > 3_000, "{preset:?}");
    }
}

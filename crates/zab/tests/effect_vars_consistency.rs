//! Single-source-of-truth check: every Zab action's module-level variable footprint
//! (the `&'static str` read/write sets consumed by `remix_spec::analysis` for
//! interaction-preservation checking) must be consistent with its bit-level
//! [`Effect`] footprint (consumed by sleep-set POR).  The two declarations describe
//! the same semantics at different granularities; this test fails when either side
//! drifts.
//!
//! The mapping between the two vocabularies:
//!
//! * per-server variables (`state`, `currentEpoch`, ...) ↔ the server bit domain;
//! * queue variables (`msgs`, `electionMsgs`) ↔ the channel bit domain;
//! * `partitions` ↔ the channel domain too (the workspace convention charges link
//!   reachability to the channel pair) plus the partition budget flag;
//! * `state` may also justify channel bits alone: crash/restart/shutdown write
//!   `state`, which flips derived reachability — the NodeRestart lesson;
//! * the budget/ghost/violation scalars ↔ their named flag bits.

use std::collections::BTreeMap;

use remix_checker::{corpus, CorpusOptions};
use remix_spec::effect::flags;
use remix_spec::Effect;
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// Variables living in the channel domain (directed message queues).
const CHANNEL_VARS: &[&str] = &["msgs", "electionMsgs"];

/// Variables whose writes can legitimately show up as channel bits: the queues
/// themselves, the partition set, and `state` (derived reachability).
const CHANNEL_JUSTIFYING_VARS: &[&str] = &["msgs", "electionMsgs", "partitions", "state"];

/// Scalar variables mapped one-to-one onto named flag bits.
const FLAG_VARS: &[(&str, u16)] = &[
    ("crashBudget", flags::CRASH_BUDGET),
    ("txnBudget", flags::TXN_BUDGET),
    ("violation", flags::VIOLATION),
    ("ghost", flags::GHOST),
];

fn is_per_server_var(var: &str) -> bool {
    !CHANNEL_VARS.contains(&var)
        && var != "partitions"
        && FLAG_VARS.iter().all(|(name, _)| *name != var)
}

/// Per-definition observation: the union of declared instance effects (`None`
/// marks a definition observed without an annotation) plus the declared
/// read/write variable sets.
type ObservedEffect = (Option<Effect>, Vec<&'static str>, Vec<&'static str>);

/// Unions the declared per-instance effects of every action definition over a
/// bounded corpus of each preset; absent keys were never observed enabled.
fn observed_effects() -> BTreeMap<&'static str, ObservedEffect> {
    let opts = CorpusOptions {
        max_states: 3_000,
        max_depth: 64,
    };
    let mut out: BTreeMap<&'static str, ObservedEffect> = BTreeMap::new();
    // `with_partitions(1)` puts the partition fault actions in scope as well.
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_partitions(1);
    for &preset in SpecPreset::all() {
        let spec = preset.build(&config);
        let states = corpus(&spec, opts);
        for module in &spec.modules {
            for def in &module.actions {
                for state in &states {
                    for inst in def.enabled(state) {
                        let entry = out.entry(def.name).or_insert_with(|| {
                            (Some(Effect::new()), def.reads.clone(), def.writes.clone())
                        });
                        match (&mut entry.0, inst.effect) {
                            (Some(acc), Some(eff)) => *acc = acc.union(&eff),
                            (slot, _) => *slot = None,
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn variable_sets_and_effect_bits_agree() {
    let observed = observed_effects();
    assert!(
        observed.len() >= 20,
        "corpus too small to observe the action library: {:?}",
        observed.keys().collect::<Vec<_>>()
    );
    let mut errors = Vec::new();
    for (name, (effect, reads, writes)) in &observed {
        let Some(effect) = effect else {
            errors.push(format!(
                "{name}: instance observed without an Effect annotation"
            ));
            continue;
        };
        if effect.is_global() {
            // Dependent-on-everything: consistent with any variable footprint.
            continue;
        }

        // Direction 1: every declared effect write bit needs a variable to justify it.
        if effect.writes_servers != 0 && !writes.iter().any(|v| is_per_server_var(v)) {
            errors.push(format!(
                "{name}: effect writes server bits but the variable write set {writes:?} \
                 names no per-server variable"
            ));
        }
        if effect.writes_channels != 0
            && !writes.iter().any(|v| CHANNEL_JUSTIFYING_VARS.contains(v))
        {
            errors.push(format!(
                "{name}: effect writes channel bits but the variable write set {writes:?} \
                 names none of {CHANNEL_JUSTIFYING_VARS:?}"
            ));
        }
        for (var, bit) in FLAG_VARS {
            if effect.writes_flags & bit != 0 && !writes.contains(var) {
                errors.push(format!(
                    "{name}: effect writes flag {:?} but the variable write set {writes:?} \
                     does not name {var}",
                    flags::name(*bit)
                ));
            }
        }
        if effect.writes_flags & flags::PARTITION_BUDGET != 0 && !writes.contains(&"partitions") {
            errors.push(format!(
                "{name}: effect writes the partition budget but the variable write set \
                 {writes:?} does not name partitions"
            ));
        }

        // Direction 2: every variable-level write needs effect bits to cover it.
        if writes.iter().any(|v| is_per_server_var(v)) && effect.writes_servers == 0 {
            errors.push(format!(
                "{name}: variable write set {writes:?} names per-server variables but the \
                 effect writes no server bit"
            ));
        }
        if writes.iter().any(|v| CHANNEL_VARS.contains(v)) && effect.writes_channels == 0 {
            errors.push(format!(
                "{name}: variable write set {writes:?} names a queue variable but the \
                 effect writes no channel bit"
            ));
        }
        if writes.contains(&"partitions") && effect.writes_channels == 0 {
            errors.push(format!(
                "{name}: variable write set {writes:?} names partitions but the effect \
                 writes no channel bit (link convention)"
            ));
        }
        for (var, bit) in FLAG_VARS {
            if writes.contains(var) && effect.writes_flags & bit == 0 {
                errors.push(format!(
                    "{name}: variable write set names {var} but the effect lacks flag {:?}",
                    flags::name(*bit)
                ));
            }
        }

        // Reads: channel read bits (beyond writes) need a channel-ish variable in
        // scope on either side of the declaration.
        let read_only_channels = effect.reads_channels & !effect.writes_channels;
        if read_only_channels != 0
            && !reads
                .iter()
                .chain(writes.iter())
                .any(|v| CHANNEL_JUSTIFYING_VARS.contains(v))
        {
            errors.push(format!(
                "{name}: effect reads channel bits but neither read set {reads:?} nor \
                 write set {writes:?} names a channel-domain variable"
            ));
        }
    }
    assert!(
        errors.is_empty(),
        "{} variable/effect drift(s):\n{}",
        errors.len(),
        errors.join("\n")
    );
}

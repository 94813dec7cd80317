//! Property tests of `ZabState` canonicalization, via the vendored `proptest`
//! stand-in.
//!
//! Symmetry reduction is only sound if the canonicalization function really is a
//! canonical form for the orbit: applying it twice must be a fixed point, every
//! id-renamed sibling must map to the *same* representative, and the invariants of
//! Table 2 must not distinguish a state from its representative (otherwise keying
//! invariant checking on canonical forms would flip verdicts).  States are generated
//! the same way `projection_props.rs` generates its inputs — random walks through the
//! real composed specifications, so every tested state is reachable — across both a
//! correct and a buggy code version (the buggy walks reach violation-flagged states,
//! exercising the `CodeViolation::server` rewriting too).

use proptest::prelude::*;
use remix_checker::{fingerprint, simulate_one, state_key, CheckerRng};
use remix_spec::effect::{flags, MAX_EFFECT_SERVERS};
use remix_spec::{Canonicalize, InternPool, Perm, Shared, SpecState};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

fn config(version: CodeVersion) -> ClusterConfig {
    ClusterConfig {
        max_transactions: 1,
        max_crashes: 1,
        ..ClusterConfig::small(version)
    }
}

/// A reachable state: the `depth`-th state of a seeded random walk.
fn walk_state(version: CodeVersion, seed: u64, depth: u32) -> ZabState {
    let spec = SpecPreset::MSpec3.build(&config(version));
    let mut rng = CheckerRng::seed_from_u64(seed);
    let trace = simulate_one(&spec, depth, &mut rng);
    trace.last_state().expect("walks start somewhere").clone()
}

/// All six permutations of a three-server ensemble.
fn perms3() -> Vec<Perm> {
    [
        [0u32, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ]
    .into_iter()
    .map(Perm::from_image)
    .collect()
}

/// An equal state in which every shared component is a fresh allocation without a
/// memoized digest.
fn rebuilt(s: &ZabState) -> ZabState {
    ZabState {
        servers: s
            .servers
            .iter()
            .map(|c| Shared::new((**c).clone()))
            .collect(),
        msgs: s.msgs.iter().map(|c| Shared::new((**c).clone())).collect(),
        ghost: Shared::new((*s.ghost).clone()),
        ..s.clone()
    }
}

proptest! {
    /// The store key is a function of the state's value alone: where a component is
    /// allocated, whether its digest was memoized before or after it was pooled, and
    /// what was written to it and taken back in between can never show in the key.
    #[test]
    fn state_key_is_a_function_of_the_value_alone(
        seed in 0u64..48,
        depth in 0u32..40,
        buggy in 0u8..2,
    ) {
        let version = if buggy == 1 { CodeVersion::V391 } else { CodeVersion::FinalFix };
        let s = walk_state(version, seed, depth);
        let (key, fp) = (state_key(&s), fingerprint(&s));

        // Fresh allocations, memo set by this very call.
        let fresh = rebuilt(&s);
        prop_assert_eq!(state_key(&fresh), key);

        // Pooled, memo set before `intern` (by `state_key` above) ...
        let mut pool = InternPool::new();
        let mut early = s.clone();
        early.intern(&mut pool, None);
        prop_assert_eq!(&early, &s, "interning never changes the value");
        prop_assert_eq!(state_key(&early), key);
        // ... and memo set by `intern` itself, on allocations the pool then drops.
        let mut late = rebuilt(&s);
        late.intern(&mut pool, None);
        prop_assert_eq!(&late, &s);
        prop_assert_eq!(state_key(&late), key);
        prop_assert_eq!(fingerprint(&late), fp);
        for (a, b) in early.servers.iter().zip(&late.servers) {
            prop_assert!(Shared::ptr_eq(a, b), "equal values share the pool's allocation");
        }

        // Write, then revert: through a shared handle (copies) and through the then
        // unique handle (writes in place) the memo must follow the value.
        for i in 0..s.n() {
            let mut w = s.clone();
            let epoch = w.servers[i].current_epoch;
            w.servers[i].current_epoch = epoch + 1;
            prop_assert_ne!(state_key(&w), key, "server {}", i);
            w.servers[i].current_epoch = epoch;
            prop_assert_eq!(state_key(&w), key, "server {}", i);
        }
        let mut w = s.clone();
        w.ghost.duplicate_establishment ^= true;
        prop_assert_ne!(state_key(&w), key);
        w.ghost.duplicate_establishment ^= true;
        prop_assert_eq!(state_key(&w), key);

        // Permute and back: components rebuilt at another index and returned.
        for perm in perms3() {
            let renamed = s.permute(&perm);
            if renamed != s {
                prop_assert_ne!(state_key(&renamed), key, "π = {}", &perm);
            }
            let back = renamed.permute(&perm.inverse());
            prop_assert_eq!(&back, &s);
            prop_assert_eq!(state_key(&back), key, "π = {}", &perm);
        }
    }

    /// Consistency: the returned permutation really maps the state onto its
    /// representative, and canonicalization is idempotent (`canon(canon(s)) ==
    /// canon(s)`).
    #[test]
    fn canonicalization_is_consistent_and_idempotent(
        seed in 0u64..48,
        depth in 0u32..40,
        buggy in 0u8..2,
    ) {
        let version = if buggy == 1 { CodeVersion::V391 } else { CodeVersion::FinalFix };
        let s = walk_state(version, seed, depth);
        let (canon, perm) = s.canonicalize();
        prop_assert_eq!(&s.permute(&perm), &canon, "canon == permute(self, π)");
        let (canon2, _) = canon.canonicalize();
        prop_assert_eq!(&canon2, &canon, "canonical forms are fixed points");
    }

    /// Orbit invariance: every id-renamed sibling maps to the same representative —
    /// the property that makes keying dedup maps and fingerprints on canonical forms
    /// collapse whole orbits.
    #[test]
    fn canonicalization_is_permutation_invariant(
        seed in 0u64..48,
        depth in 0u32..40,
        buggy in 0u8..2,
    ) {
        let version = if buggy == 1 { CodeVersion::V391 } else { CodeVersion::FinalFix };
        let s = walk_state(version, seed, depth);
        let (canon, _) = s.canonicalize();
        for perm in perms3() {
            let renamed = s.permute(&perm);
            let (canon_renamed, _) = renamed.canonicalize();
            prop_assert_eq!(&canon_renamed, &canon, "π = {}", perm);
        }
    }

    /// Invariant preservation: the Table 2 invariants cannot tell a state from its
    /// canonical representative (they are all formulated over renaming-invariant
    /// structure — histories, epochs, quorum cardinalities, ghost duplicates), so the
    /// checker may evaluate them on representatives without changing any verdict.
    #[test]
    fn invariants_cannot_distinguish_a_state_from_its_representative(
        seed in 0u64..48,
        depth in 0u32..40,
        buggy in 0u8..2,
    ) {
        let version = if buggy == 1 { CodeVersion::V391 } else { CodeVersion::FinalFix };
        let spec = SpecPreset::MSpec3.build(&config(version));
        let mut rng = CheckerRng::seed_from_u64(seed);
        let trace = simulate_one(&spec, depth, &mut rng);
        for step in &trace.steps {
            let (canon, _) = step.state.canonicalize();
            let violated_s: Vec<&str> =
                spec.violated_invariants(&step.state).iter().map(|i| i.id).collect();
            let violated_c: Vec<&str> =
                spec.violated_invariants(&canon).iter().map(|i| i.id).collect();
            prop_assert_eq!(violated_s, violated_c);
        }
    }

    /// Owned canonicalization: the allocation-avoiding owned variant (what the engines
    /// call on every successor) must agree with the borrowed recomputation on both the
    /// representative and the permutation — checked on reachable states, every
    /// id-renamed sibling and every successor of the walk's endpoint, which exercises
    /// all three of its paths (strictly sorted servers, unmaterialized-identity tie
    /// minimization, and the permuting fallback).
    #[test]
    fn owned_canonicalization_matches_borrowed(
        seed in 0u64..48,
        depth in 0u32..40,
        buggy in 0u8..2,
    ) {
        let version = if buggy == 1 { CodeVersion::V391 } else { CodeVersion::FinalFix };
        let spec = SpecPreset::MSpec3.build(&config(version));
        let s = walk_state(version, seed, depth);
        let successors = spec.successors(&s).into_iter().map(|(_, t)| t);
        let renamed = perms3().into_iter().map(|perm| s.permute(&perm));
        for t in renamed.chain(successors) {
            let (canon, p) = t.canonicalize();
            let (canon_owned, p_owned) = t.clone().canonicalize_owned();
            prop_assert_eq!(&canon_owned, &canon, "representative differs on {:?}", &t);
            prop_assert_eq!(p_owned, p, "permutation differs on {:?}", &t);
        }
    }

    /// Footprint conservatism: whatever an action's declared footprint does *not*
    /// write must be identical between the pre- and post-state — untouched servers,
    /// unwritten channels (content and partition status) and unwritten global
    /// scalars.  An under-declared write set would make sleep-set pruning unsound, so
    /// this is the safety net for every declared offer `Effect` in the action
    /// library.
    #[test]
    fn declared_footprints_cover_every_write(
        seed in 0u64..48,
        depth in 0u32..40,
        buggy in 0u8..2,
    ) {
        let version = if buggy == 1 { CodeVersion::V391 } else { CodeVersion::FinalFix };
        let spec = SpecPreset::MSpec3.build(&config(version));
        let mut rng = CheckerRng::seed_from_u64(seed);
        let trace = simulate_one(&spec, depth, &mut rng);
        let parent = trace.last_state().expect("walks start somewhere");
        let n = parent.servers.len();
        for module in &spec.modules {
            for action in &module.actions {
                for inst in action.enabled(parent) {
                    let Some(e) = inst.effect.filter(|e| !e.is_global()) else {
                        continue;
                    };
                    let next = &inst.next;
                    for k in 0..n {
                        if e.writes_servers & (1 << k) == 0 {
                            prop_assert_eq!(
                                &parent.servers[k], &next.servers[k],
                                "label {} wrote undeclared server {}", inst.label, k
                            );
                        }
                    }
                    for f in 0..n {
                        for t in 0..n {
                            let bit = 1u64 << (f * MAX_EFFECT_SERVERS + t);
                            if e.writes_channels & bit == 0 {
                                prop_assert_eq!(
                                    &parent.msgs[f][t], &next.msgs[f][t],
                                    "label {} wrote undeclared channel {} -> {}",
                                    inst.label, f, t
                                );
                            }
                            // Partition status is charged to the channel bits of both
                            // directions.
                            let back = 1u64 << (t * MAX_EFFECT_SERVERS + f);
                            if e.writes_channels & (bit | back) == 0 {
                                prop_assert_eq!(
                                    parent.partitioned.contains(&(f, t)),
                                    next.partitioned.contains(&(f, t)),
                                    "label {} repartitioned undeclared pair ({}, {})",
                                    inst.label, f, t
                                );
                            }
                        }
                    }
                    let scalars: [(u16, bool); 5] = [
                        (flags::CRASH_BUDGET, parent.crashes_remaining == next.crashes_remaining),
                        (
                            flags::PARTITION_BUDGET,
                            parent.partitions_remaining == next.partitions_remaining,
                        ),
                        (flags::TXN_BUDGET, parent.txns_created == next.txns_created),
                        (flags::GHOST, parent.ghost == next.ghost),
                        (flags::VIOLATION, parent.violation == next.violation),
                    ];
                    for (flag, unchanged) in scalars {
                        if e.writes_flags & flag == 0 {
                            prop_assert!(
                                unchanged,
                                "label {} wrote undeclared flag {:#x}", inst.label, flag
                            );
                        }
                    }
                }
            }
        }
    }
}

//! Empirical validation of the declared independence relation on reachable states.
//!
//! The write-coverage proptest (`symmetry_props.rs`) catches *under-declared writes*,
//! but sleep-set soundness needs more: whenever two co-enabled actions have
//! `Effect::independent` footprints, neither may disable the other and both
//! interleavings must land in the same state (the commuting diamond).  An
//! under-declared *guard read* breaks exactly these — e.g. `NodeRestart(j)` silently
//! disabling `FollowerShutdown(i)` whose guard reads `reachable(i, j)` — without ever
//! writing undeclared state, which is how the original annotation bug slipped past the
//! write-coverage net and cost the pruned runs three quarters of the state space.
//!
//! States are drawn as seeded random walks through the composed mSpec-3 specification,
//! so every checked diamond starts from a reachable state.

use remix_checker::{simulate_one, CheckerRng};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

fn config(version: CodeVersion) -> ClusterConfig {
    ClusterConfig {
        max_transactions: 1,
        max_crashes: 1,
        ..ClusterConfig::small(version)
    }
}

/// All enabled instances of `spec` at `s` that declare a usable footprint.
fn footprinted_instances(
    spec: &remix_spec::Spec<ZabState>,
    s: &ZabState,
) -> Vec<(String, ZabState, remix_spec::Effect)> {
    let mut out = Vec::new();
    for module in &spec.modules {
        for action in &module.actions {
            for inst in action.enabled(s) {
                if let Some(e) = inst.effect.filter(|e| !e.is_global()) {
                    out.push((inst.label.to_string(), inst.next, e));
                }
            }
        }
    }
    out
}

#[test]
fn independent_co_enabled_pairs_commute_and_never_disable_each_other() {
    for version in [CodeVersion::FinalFix, CodeVersion::V391] {
        let spec = SpecPreset::MSpec3.build(&config(version));
        let mut diamonds = 0usize;
        for seed in 0..40u64 {
            for depth in [0u32, 4, 8, 14, 22, 30] {
                let mut rng = CheckerRng::seed_from_u64(seed);
                let trace = simulate_one(&spec, depth, &mut rng);
                let s = trace.last_state().expect("walks start somewhere");
                let insts = footprinted_instances(&spec, s);
                for i in 0..insts.len() {
                    for j in (i + 1)..insts.len() {
                        let (la, na, ea) = &insts[i];
                        let (lb, nb, eb) = &insts[j];
                        if la == lb || !ea.independent(eb) {
                            continue;
                        }
                        // Neither transition may disable the other...
                        let ab: Vec<ZabState> = spec
                            .successors(na)
                            .into_iter()
                            .filter(|(l, _)| l == lb)
                            .map(|(_, s)| s)
                            .collect();
                        let ba: Vec<ZabState> = spec
                            .successors(nb)
                            .into_iter()
                            .filter(|(l, _)| l == la)
                            .map(|(_, s)| s)
                            .collect();
                        assert_eq!(
                            ab.len(),
                            1,
                            "{la} disables {lb} although declared independent ({version:?})"
                        );
                        assert_eq!(
                            ba.len(),
                            1,
                            "{lb} disables {la} although declared independent ({version:?})"
                        );
                        // ...and both orders must reach the same corner.
                        assert_eq!(
                            ab[0], ba[0],
                            "{la} and {lb} do not commute although declared independent \
                             ({version:?})"
                        );
                        diamonds += 1;
                    }
                }
            }
        }
        assert!(
            diamonds > 10,
            "the walks must exercise a meaningful number of diamonds, got {diamonds}"
        );
    }
}

//! Specification presets: the rows of Table 1 (SysSpec, mSpec-1..4) plus helpers.
//!
//! A preset names a per-module granularity choice; `build` assembles the mixed-grained
//! specification by composing the corresponding module specifications from the action
//! library, adding the fault module and selecting the applicable invariants.

use std::sync::Arc;

use remix_spec::{compose, CompositionPlan, Granularity, ModuleSpec, Spec, SpecError};

use crate::actions::{broadcast, coarse, discovery, election, faults, fine, sync};
use crate::config::ClusterConfig;
use crate::invariants::all_invariants;
use crate::modules::{BROADCAST, DISCOVERY, ELECTION, SYNCHRONIZATION};
use crate::state::ZabState;

/// The mixed-grained specification presets of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpecPreset {
    /// The system specification: every module at baseline granularity.
    SysSpec,
    /// mSpec-1: Election and Discovery coarsened, the rest at baseline.
    MSpec1,
    /// mSpec-2: coarsened election, fine-grained (atomicity) Synchronization.
    MSpec2,
    /// mSpec-3: coarsened election, fine-grained (atomicity + concurrency)
    /// Synchronization, fine-grained (concurrency) Broadcast.
    MSpec3,
    /// mSpec-4: baseline Election/Discovery with the fine-grained log-replication
    /// modules of mSpec-3.
    MSpec4,
}

impl SpecPreset {
    /// All presets, in the order of Table 1.
    pub fn all() -> &'static [SpecPreset] {
        &[
            SpecPreset::SysSpec,
            SpecPreset::MSpec1,
            SpecPreset::MSpec2,
            SpecPreset::MSpec3,
            SpecPreset::MSpec4,
        ]
    }

    /// The preset's name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            SpecPreset::SysSpec => "SysSpec",
            SpecPreset::MSpec1 => "mSpec-1",
            SpecPreset::MSpec2 => "mSpec-2",
            SpecPreset::MSpec3 => "mSpec-3",
            SpecPreset::MSpec4 => "mSpec-4",
        }
    }

    /// The per-module granularity choices (the row of Table 1).
    pub fn plan(self) -> CompositionPlan {
        use Granularity::*;
        let p = CompositionPlan::new(self.name());
        match self {
            SpecPreset::SysSpec => p
                .with(ELECTION, Baseline)
                .with(DISCOVERY, Baseline)
                .with(SYNCHRONIZATION, Baseline)
                .with(BROADCAST, Baseline),
            SpecPreset::MSpec1 => p
                .with(ELECTION, Coarse)
                .with(DISCOVERY, Coarse)
                .with(SYNCHRONIZATION, Baseline)
                .with(BROADCAST, Baseline),
            SpecPreset::MSpec2 => p
                .with(ELECTION, Coarse)
                .with(DISCOVERY, Coarse)
                .with(SYNCHRONIZATION, FineAtomic)
                .with(BROADCAST, Baseline),
            SpecPreset::MSpec3 => p
                .with(ELECTION, Coarse)
                .with(DISCOVERY, Coarse)
                .with(SYNCHRONIZATION, FineConcurrent)
                .with(BROADCAST, FineConcurrent),
            SpecPreset::MSpec4 => p
                .with(ELECTION, Baseline)
                .with(DISCOVERY, Baseline)
                .with(SYNCHRONIZATION, FineConcurrent)
                .with(BROADCAST, FineConcurrent),
        }
    }

    /// Builds the composed specification for this preset under a configuration.
    pub fn build(self, config: &ClusterConfig) -> Spec<ZabState> {
        build_from_plan(&self.plan(), config).expect("presets are well-formed")
    }
}

/// Returns the module specification for a `(module, granularity)` pair, if the library
/// provides one.
pub fn module_at(
    module: remix_spec::ModuleId,
    granularity: Granularity,
    cfg: &Arc<ClusterConfig>,
) -> Option<ModuleSpec<ZabState>> {
    match (module, granularity) {
        (ELECTION, Granularity::Baseline) => Some(election::module(cfg)),
        (ELECTION, Granularity::Coarse) => Some(coarse::election_module(cfg)),
        (DISCOVERY, Granularity::Baseline) => Some(discovery::module(cfg)),
        (DISCOVERY, Granularity::Coarse) => Some(coarse::discovery_module(cfg)),
        (SYNCHRONIZATION, Granularity::Baseline) => Some(sync::module(cfg)),
        (SYNCHRONIZATION, Granularity::FineAtomic) => Some(fine::sync_atomic_module(cfg)),
        (SYNCHRONIZATION, Granularity::FineConcurrent) => Some(fine::sync_concurrent_module(cfg)),
        (BROADCAST, Granularity::Baseline) => Some(broadcast::module(cfg)),
        (BROADCAST, Granularity::FineConcurrent) => Some(fine::broadcast_concurrent_module(cfg)),
        _ => None,
    }
}

/// Builds a mixed-grained specification from an arbitrary composition plan.
///
/// The fault module is always composed in, and the invariants of Table 2 are filtered by
/// applicability to the chosen granularities.
pub fn build_from_plan(
    plan: &CompositionPlan,
    config: &ClusterConfig,
) -> Result<Spec<ZabState>, SpecError> {
    let cfg = Arc::new(*config);
    let mut modules = Vec::new();
    for choice in &plan.choices {
        let m = module_at(choice.module, choice.granularity, &cfg).ok_or_else(|| {
            SpecError::UnknownModule {
                module: choice.module.name().to_owned(),
                granularity: choice.granularity.label().to_owned(),
            }
        })?;
        modules.push(m);
    }
    modules.push(faults::module(&cfg));
    compose(
        plan.name.clone(),
        vec![ZabState::initial(config)],
        modules,
        all_invariants(),
    )
    // `ZabState` is symmetric under server-id permutation; attach its canonical-form
    // function (borrowed and owned) so checker runs may opt into symmetry reduction
    // (options built `with_symmetry(SymmetryMode::Canonicalize)`).  Attaching it
    // changes nothing by itself.
    .map(Spec::with_canonicalization)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::versions::CodeVersion;

    fn config() -> ClusterConfig {
        ClusterConfig::small(CodeVersion::V391)
    }

    #[test]
    fn every_preset_builds() {
        for preset in SpecPreset::all() {
            let spec = preset.build(&config());
            assert_eq!(spec.name, preset.name());
            assert!(spec.action_count() > 0);
            assert!(!spec.init.is_empty());
        }
    }

    #[test]
    fn table1_composition_matrix() {
        use Granularity::*;
        let cases = [
            (
                SpecPreset::SysSpec,
                [Baseline, Baseline, Baseline, Baseline],
            ),
            (SpecPreset::MSpec1, [Coarse, Coarse, Baseline, Baseline]),
            (SpecPreset::MSpec2, [Coarse, Coarse, FineAtomic, Baseline]),
            (
                SpecPreset::MSpec3,
                [Coarse, Coarse, FineConcurrent, FineConcurrent],
            ),
            (
                SpecPreset::MSpec4,
                [Baseline, Baseline, FineConcurrent, FineConcurrent],
            ),
        ];
        for (preset, expected) in cases {
            let spec = preset.build(&config());
            assert_eq!(
                spec.module_granularity(ELECTION),
                Some(expected[0]),
                "{preset:?}"
            );
            assert_eq!(
                spec.module_granularity(DISCOVERY),
                Some(expected[1]),
                "{preset:?}"
            );
            assert_eq!(
                spec.module_granularity(SYNCHRONIZATION),
                Some(expected[2]),
                "{preset:?}"
            );
            assert_eq!(
                spec.module_granularity(BROADCAST),
                Some(expected[3]),
                "{preset:?}"
            );
        }
    }

    #[test]
    fn coarsening_reduces_the_action_count() {
        let sys = SpecPreset::SysSpec.build(&config());
        let m1 = SpecPreset::MSpec1.build(&config());
        let m3 = SpecPreset::MSpec3.build(&config());
        assert!(m1.action_count() < sys.action_count());
        assert!(
            m3.action_count() > m1.action_count(),
            "fine-grained modelling adds actions"
        );
    }

    #[test]
    fn invariant_selection_follows_granularity() {
        let sys = SpecPreset::SysSpec.build(&config());
        let m3 = SpecPreset::MSpec3.build(&config());
        let sys_ids: Vec<_> = sys.invariants.iter().map(|i| i.id).collect();
        let m3_ids: Vec<_> = m3.invariants.iter().map(|i| i.id).collect();
        // Baseline compositions carry the protocol invariants plus I-13/I-14.
        assert!(sys_ids.contains(&"I-8"));
        assert!(sys_ids.contains(&"I-14"));
        assert!(!sys_ids.contains(&"I-11"));
        assert!(!sys_ids.contains(&"I-12"));
        // Fine-grained concurrency compositions carry all fourteen.
        assert_eq!(m3_ids.len(), 14);
    }

    #[test]
    fn unknown_combination_is_an_error() {
        let plan = CompositionPlan::new("bad").with(BROADCAST, Granularity::FineAtomic);
        let err = build_from_plan(&plan, &config()).unwrap_err();
        assert!(matches!(err, SpecError::UnknownModule { .. }));
    }
}

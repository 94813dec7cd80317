//! Dependency / interaction-variable analysis and interaction-preservation checking.
//!
//! These are the formal underpinnings of safe coarsening (§3.2 and Appendix B of the
//! paper).  The analysis works on the variable footprints that every action declares:
//!
//! * the **dependency variables** of a module are the variables read by its actions —
//!   either in an enabling condition or to compute an update (Definition 2; because each
//!   action declares *all* variables it reads, the transitive rule 3 is already folded
//!   into the declaration);
//! * the **interaction variables** of a specification are the variables shared between
//!   modules' dependency sets, closed under "a value assigned to an interaction variable
//!   is computed from these variables" (Definition 3, approximated by closing over the
//!   read sets of any action that writes an interaction variable);
//! * **interaction preservation** requires that, for a target module `M_i`, coarsening
//!   any other module must not change which protected variables (dependency variables of
//!   `M_i` plus interaction variables) it writes, nor remove those variables — only purely
//!   internal variables and their updates may be omitted.
//!
//! Besides the syntactic check, [`PreservationReport`] records the variables involved so
//! callers (the Remix composer, reports, tests) can display why a coarsening is safe.

use std::collections::{BTreeMap, BTreeSet};

use crate::module::{ModuleId, ModuleSpec};

/// The variable footprint of a module: reads (dependency variables) and writes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModuleFootprint {
    /// Variables read by the module's actions (its dependency variables).
    pub reads: BTreeSet<&'static str>,
    /// Variables written by the module's actions.
    pub writes: BTreeSet<&'static str>,
}

/// Computes the footprint of a module specification.
pub fn module_footprint<S>(module: &ModuleSpec<S>) -> ModuleFootprint {
    ModuleFootprint {
        reads: module.read_set(),
        writes: module.write_set(),
    }
}

/// Computes the dependency variables of a module (Definition 2).
pub fn dependency_variables<S>(module: &ModuleSpec<S>) -> BTreeSet<&'static str> {
    module.read_set()
}

/// Result of the interaction analysis over a set of module specifications.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InteractionAnalysis {
    /// Dependency variables per module.
    pub dependencies: BTreeMap<ModuleId, BTreeSet<&'static str>>,
    /// The interaction variables of the whole specification (Definition 3).
    pub interaction: BTreeSet<&'static str>,
}

impl InteractionAnalysis {
    /// The protected variable set for a target module: its dependency variables plus all
    /// interaction variables.  Only variables outside this set may be coarsened away.
    pub fn protected_for(&self, target: ModuleId) -> BTreeSet<&'static str> {
        let mut out = self.interaction.clone();
        if let Some(deps) = self.dependencies.get(&target) {
            out.extend(deps.iter().copied());
        }
        out
    }
}

/// Computes dependency and interaction variables for a set of module specifications
/// (one specification per module; granularity does not matter for the analysis itself).
pub fn interaction_variables<S>(modules: &[&ModuleSpec<S>]) -> InteractionAnalysis {
    let mut dependencies: BTreeMap<ModuleId, BTreeSet<&'static str>> = BTreeMap::new();
    for m in modules {
        dependencies
            .entry(m.module)
            .or_default()
            .extend(m.read_set());
    }

    // Rule 1: variables shared by the dependency sets of two different modules.
    let mut interaction: BTreeSet<&'static str> = BTreeSet::new();
    let mods: Vec<_> = dependencies.keys().copied().collect();
    for (i, a) in mods.iter().enumerate() {
        for b in mods.iter().skip(i + 1) {
            interaction.extend(dependencies[a].intersection(&dependencies[b]).copied());
        }
    }

    // Rules 2 & 3 (approximated over declared footprints): if an action writes an
    // interaction variable or a dependency variable, the variables it reads feed that
    // assignment, so add any of them that are not already dependency variables of the
    // writing module to the interaction set.  Iterate to a fixed point.
    loop {
        let before = interaction.len();
        for m in modules {
            let own_deps = &dependencies[&m.module];
            for action in &m.actions {
                let writes_protected = action
                    .writes
                    .iter()
                    .any(|w| interaction.contains(w) || own_deps.contains(w));
                if writes_protected {
                    for r in &action.reads {
                        if !own_deps.contains(r) {
                            interaction.insert(r);
                        }
                    }
                }
            }
        }
        if interaction.len() == before {
            break;
        }
    }

    InteractionAnalysis {
        dependencies,
        interaction,
    }
}

/// A single violation of the interaction-preservation constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreservationViolation {
    /// The coarsened module stopped writing a protected variable that the original
    /// module writes (its updates would be lost for the target module).
    MissingWrite {
        /// The module that was coarsened.
        module: ModuleId,
        /// The protected variable no longer written.
        variable: &'static str,
    },
    /// The coarsened module writes a protected variable that the original module does
    /// not write (it would introduce new interactions).
    ExtraWrite {
        /// The module that was coarsened.
        module: ModuleId,
        /// The protected variable newly written.
        variable: &'static str,
    },
}

/// The outcome of an interaction-preservation check.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PreservationReport {
    /// The protected variables (dependency variables of the target plus interaction
    /// variables) the check was performed against.
    pub protected: BTreeSet<&'static str>,
    /// Constraint violations; empty when the coarsening preserves interaction.
    pub violations: Vec<PreservationViolation>,
}

impl PreservationReport {
    /// Returns `true` when the coarsening satisfies the interaction-preservation
    /// constraints.
    pub fn preserved(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks that `coarse` is an interaction-preserving coarsening of `original` with
/// respect to the target module whose protected variable set is `protected`.
///
/// The check is the footprint-level counterpart of the two constraints in §3.2: the
/// coarsened module must write exactly the same protected variables as the original
/// (updates to protected variables are preserved), and may only drop variables and
/// updates that are internal to the coarsened module.
pub fn check_interaction_preservation<S>(
    original: &[&ModuleSpec<S>],
    coarse: &[&ModuleSpec<S>],
    protected: &BTreeSet<&'static str>,
) -> PreservationReport {
    let mut report = PreservationReport {
        protected: protected.clone(),
        violations: Vec::new(),
    };

    let orig_writes: BTreeSet<&'static str> = original
        .iter()
        .flat_map(|m| m.write_set())
        .filter(|v| protected.contains(v))
        .collect();
    let coarse_writes: BTreeSet<&'static str> = coarse
        .iter()
        .flat_map(|m| m.write_set())
        .filter(|v| protected.contains(v))
        .collect();
    let coarse_module = coarse
        .first()
        .map(|m| m.module)
        .unwrap_or(ModuleId("<empty>"));

    for v in orig_writes.difference(&coarse_writes) {
        report.violations.push(PreservationViolation::MissingWrite {
            module: coarse_module,
            variable: v,
        });
    }
    for v in coarse_writes.difference(&orig_writes) {
        report.violations.push(PreservationViolation::ExtraWrite {
            module: coarse_module,
            variable: v,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, Granularity};

    type S = u32;

    fn action(
        name: &'static str,
        module: ModuleId,
        gran: Granularity,
        reads: Vec<&'static str>,
        writes: Vec<&'static str>,
    ) -> ActionDef<S> {
        ActionDef::new(name, module, gran, reads, writes, |_s: &S, sink| {
            sink.offer("noop", None, |next| *next = 0)
        })
    }

    const ELECTION: ModuleId = ModuleId("Election");
    const SYNC: ModuleId = ModuleId("Synchronization");

    fn election_fine() -> ModuleSpec<S> {
        ModuleSpec::new(
            ELECTION,
            Granularity::Baseline,
            vec![
                action(
                    "FLEHandleNotmsg",
                    ELECTION,
                    Granularity::Baseline,
                    vec!["currentVote", "state"],
                    vec!["currentVote", "state"],
                ),
                action(
                    "FLEDecide",
                    ELECTION,
                    Granularity::Baseline,
                    vec!["currentVote", "state"],
                    vec!["state", "zabState"],
                ),
            ],
        )
    }

    fn election_coarse_good() -> ModuleSpec<S> {
        ModuleSpec::new(
            ELECTION,
            Granularity::Coarse,
            vec![action(
                "ElectionAndDiscovery",
                ELECTION,
                Granularity::Coarse,
                vec!["state"],
                vec!["state", "zabState"],
            )],
        )
    }

    fn election_coarse_bad() -> ModuleSpec<S> {
        // Drops the update of `zabState`, which the Synchronization module depends on.
        ModuleSpec::new(
            ELECTION,
            Granularity::Coarse,
            vec![action(
                "ElectionAndDiscovery",
                ELECTION,
                Granularity::Coarse,
                vec!["state"],
                vec!["state"],
            )],
        )
    }

    fn sync_module() -> ModuleSpec<S> {
        ModuleSpec::new(
            SYNC,
            Granularity::Baseline,
            vec![action(
                "FollowerProcessNEWLEADER",
                SYNC,
                Granularity::Baseline,
                vec!["zabState", "state", "history"],
                vec!["history", "currentEpoch"],
            )],
        )
    }

    #[test]
    fn dependency_variables_are_reads() {
        let m = sync_module();
        let deps = dependency_variables(&m);
        assert!(deps.contains("zabState"));
        assert!(deps.contains("history"));
        assert!(!deps.contains("currentEpoch"));
        let fp = module_footprint(&m);
        assert!(fp.writes.contains("currentEpoch"));
    }

    #[test]
    fn interaction_variables_are_shared_dependencies() {
        let e = election_fine();
        let s = sync_module();
        let analysis = interaction_variables(&[&e, &s]);
        // `state` is read by both modules.
        assert!(analysis.interaction.contains("state"));
        // `currentVote` is internal to Election.
        assert!(!analysis.interaction.contains("currentVote"));
        let protected = analysis.protected_for(SYNC);
        assert!(protected.contains("zabState"));
        assert!(protected.contains("state"));
    }

    #[test]
    fn good_coarsening_preserves_interaction() {
        let e = election_fine();
        let s = sync_module();
        let analysis = interaction_variables(&[&e, &s]);
        let protected = analysis.protected_for(SYNC);
        let coarse = election_coarse_good();
        let report = check_interaction_preservation(&[&e], &[&coarse], &protected);
        assert!(report.preserved(), "violations: {:?}", report.violations);
    }

    #[test]
    fn dropping_protected_update_is_rejected() {
        let e = election_fine();
        let s = sync_module();
        let analysis = interaction_variables(&[&e, &s]);
        let protected = analysis.protected_for(SYNC);
        let coarse = election_coarse_bad();
        let report = check_interaction_preservation(&[&e], &[&coarse], &protected);
        assert!(!report.preserved());
        assert!(report.violations.iter().any(|v| matches!(
            v,
            PreservationViolation::MissingWrite {
                variable: "zabState",
                ..
            }
        )));
    }

    #[test]
    fn extra_protected_write_is_rejected() {
        let e = election_fine();
        let s = sync_module();
        let analysis = interaction_variables(&[&e, &s]);
        let protected = analysis.protected_for(SYNC);
        let coarse = ModuleSpec::new(
            ELECTION,
            Granularity::Coarse,
            vec![action(
                "ElectionAndDiscovery",
                ELECTION,
                Granularity::Coarse,
                vec!["state"],
                vec!["state", "zabState", "history"],
            )],
        );
        let report = check_interaction_preservation(&[&election_fine()], &[&coarse], &protected);
        assert!(!report.preserved());
        assert!(report.violations.iter().any(|v| matches!(
            v,
            PreservationViolation::ExtraWrite {
                variable: "history",
                ..
            }
        )));
    }
}

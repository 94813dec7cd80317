//! Every option struct the harness hands to an engine, built field by field.
//!
//! `CheckOptions::default()`, `VerifierOptions::default()`, `RefineOptions::default()`
//! and `ExploreOptions::default()` read `REMIX_*` environment hooks, so a row built
//! from them means whatever the shell says.  Nothing here goes through `Default`,
//! every engine runs with `workers = 1`, and `main` refuses to start while any
//! `REMIX_*` variable is set.

use std::path::Path;
use std::time::Duration;

use remix_checker::{
    CheckMode, CheckOptions, ExploreOptions, Guidance, RefineMode, RefineOptions,
    SimulationOptions, SpillConfig, StoreMode, SymmetryMode,
};
use remix_core::{ConformanceOptions, VerifierOptions};

/// Per-case limit of the exhaustive and bug-hunting cases; hitting it fails the case.
pub const CHECK_LIMIT: Duration = Duration::from_secs(60);
/// Per-case limit of the refinement cases; hitting it fails the case.
pub const REFINE_LIMIT: Duration = Duration::from_secs(120);

const WORKERS: usize = 1;
const SHARDS: usize = 64;
const BATCH_SIZE: usize = 128;

/// Names of the `REMIX_*` variables in `vars` (the harness refuses to run with any).
pub fn remix_variables(vars: impl Iterator<Item = String>) -> Vec<String> {
    vars.filter(|name| name.starts_with("REMIX_")).collect()
}

/// The out-of-core configuration: a budget in bytes with an explicit spill directory.
pub fn spill_under(budget_bytes: u64, dir: &Path) -> SpillConfig {
    SpillConfig::in_ram()
        .with_budget_bytes(budget_bytes)
        .with_dir(dir)
}

/// Options of an exhaustive `check_bfs` / `check_dfs` run.
pub fn check_options(
    store_mode: StoreMode,
    symmetry: SymmetryMode,
    por: bool,
    spill: SpillConfig,
) -> CheckOptions {
    CheckOptions {
        mode: CheckMode::FirstViolation,
        max_depth: None,
        time_budget: Some(CHECK_LIMIT),
        max_states: None,
        workers: WORKERS,
        shards: SHARDS,
        batch_size: BATCH_SIZE,
        collect_traces: true,
        store_mode,
        symmetry,
        spill,
        route_by_owner: false,
        por,
    }
}

/// Options of one bug-hunting `Verifier::verify_preset` run targeting `invariant`.
pub fn verifier_options(invariant: &'static str) -> VerifierOptions {
    VerifierOptions {
        mode: CheckMode::FirstViolation,
        time_budget: CHECK_LIMIT,
        max_states: None,
        workers: WORKERS,
        shards: SHARDS,
        batch_size: BATCH_SIZE,
        store_mode: StoreMode::Full,
        symmetry: SymmetryMode::Off,
        spill: SpillConfig::in_ram(),
        route_by_owner: false,
        por: false,
        only_invariants: vec![invariant],
        shrink_counterexamples: false,
    }
}

/// Options of a `Verifier::check_refinement` run.
pub fn refine_options() -> RefineOptions {
    RefineOptions {
        mode: RefineMode::Simulation,
        workers: WORKERS,
        shards: SHARDS,
        max_depth: None,
        max_states: None,
        time_budget: Some(REFINE_LIMIT),
        shrink_witness: true,
        store_mode: StoreMode::Full,
        symmetry: SymmetryMode::Off,
        stabilization_grace: 16,
        spill: SpillConfig::in_ram(),
    }
}

/// Options of an `explore` run that samples every trace of its budget.
pub fn explore_options(
    seed: u64,
    traces: usize,
    max_depth: u32,
    guidance: Guidance,
) -> ExploreOptions {
    ExploreOptions {
        traces,
        max_depth,
        seed,
        workers: WORKERS,
        time_budget: None,
        guidance,
        shards: SHARDS,
        prefix_bits: remix_checker::explore::DEFAULT_PREFIX_BITS,
        stop_on_violation: false,
        symmetry: SymmetryMode::Off,
    }
}

/// Options of a `simulate` run over the same budget as [`explore_options`].
pub fn simulation_options(seed: u64, traces: usize, max_depth: u32) -> SimulationOptions {
    SimulationOptions {
        traces,
        max_depth,
        time_budget: None,
        seed,
        workers: WORKERS,
    }
}

/// Options of a uniform-sampling `ConformanceChecker::check` run.
pub fn conformance_options(seed: u64, traces: usize, max_depth: u32) -> ConformanceOptions {
    ConformanceOptions {
        traces,
        max_depth,
        seed,
        time_budget: None,
        workers: WORKERS,
        guidance: Guidance::Uniform,
        shrink_divergences: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_remix_variables_are_reported() {
        let vars = ["PATH", "REMIX_POR", "HOME", "REMIX_MEM_BUDGET", "XREMIX_"];
        assert_eq!(
            remix_variables(vars.iter().map(|s| s.to_string())),
            vec!["REMIX_POR".to_owned(), "REMIX_MEM_BUDGET".to_owned()]
        );
    }
}

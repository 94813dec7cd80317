//! `reproduce` — regenerates every table and figure of the evaluation section.
//!
//! Usage: `cargo run --release -p remix-bench --bin reproduce -- [experiment ...]`
//! where `experiment` is one of `table1 table2 table3 table4 table5a table5b table6
//! figure8 improved-protocol conformance actions all` (default: `all`).  The
//! per-experiment budget is `REPRODUCE_BUDGET_SECS` whole seconds (default 60).  An
//! unknown experiment or a malformed budget exits non-zero before anything runs.

use std::env;
use std::process::ExitCode;
use std::time::Duration;

use remix_bench as bench;
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

/// Every accepted experiment name, `all` last.
const EXPERIMENTS: [&str; 12] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5a",
    "table5b",
    "table6",
    "figure8",
    "improved-protocol",
    "conformance",
    "actions",
    "all",
];

/// What one invocation runs.
#[derive(Debug, PartialEq)]
struct Selection {
    experiments: Vec<String>,
    budget: Duration,
}

impl Selection {
    fn wants(&self, name: &str) -> bool {
        self.experiments.iter().any(|a| a == name || a == "all")
    }
}

/// Parses the experiment arguments and the raw `REPRODUCE_BUDGET_SECS` value.  The
/// error names the offending value and the accepted ones: a typo must not silently
/// run nothing, or run with the default budget.
fn parse(args: &[String], budget_secs: Option<&str>) -> Result<Selection, String> {
    if let Some(unknown) = args.iter().find(|a| !EXPERIMENTS.contains(&a.as_str())) {
        return Err(format!(
            "unknown experiment {unknown:?} (accepted: {})",
            EXPERIMENTS.join(", ")
        ));
    }
    let secs = match budget_secs {
        None => 60,
        Some(raw) => raw.parse().map_err(|_| {
            format!(
                "REPRODUCE_BUDGET_SECS={raw:?} is not an accepted value \
                 (accepted: a whole number of seconds, or unset)"
            )
        })?,
    };
    Ok(Selection {
        experiments: if args.is_empty() {
            vec!["all".to_owned()]
        } else {
            args.to_vec()
        },
        budget: Duration::from_secs(secs),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let budget_secs =
        env::var_os("REPRODUCE_BUDGET_SECS").map(|v| v.to_string_lossy().into_owned());
    let selection = match parse(&args, budget_secs.as_deref()) {
        Ok(selection) => selection,
        Err(message) => {
            eprintln!("reproduce: {message}");
            return ExitCode::FAILURE;
        }
    };
    let budget = selection.budget;
    let want = |name: &str| selection.wants(name);
    let config = ClusterConfig::small(CodeVersion::V391);

    if want("table1") {
        println!("== Table 1: mixed-grained specifications for log replication ==");
        for (spec, row) in bench::table1(&config) {
            let cells: Vec<String> = row
                .iter()
                .map(|(m, g)| format!("{m}={}", g.label()))
                .collect();
            println!("{spec:<9} {}", cells.join("  "));
        }
        println!();
    }
    if want("table2") {
        println!("== Table 2: invariants ==");
        for (id, name, source, instances) in bench::table2() {
            println!("{id:<6} {name:<28} source={source:<9} instances={instances}");
        }
        println!();
    }
    if want("table3") {
        println!("== Table 3: effort of writing multi-grained specifications ==");
        for row in bench::table3(&config) {
            println!(
                "{:<9} variables={:<3} actions={:<3} instrumentation-points={}",
                row.spec, row.variables, row.actions, row.instrumentation_points
            );
        }
        println!();
    }
    if want("table4") {
        println!("== Table 4: bug detection in ZooKeeper v3.9.1 ==");
        for r in bench::table4(budget) {
            println!(
                "{:<8} {:<21} {:<9} time={:>8.2?} depth={:<3} states={:<9} inv={} detected={}",
                r.bug, r.impact, r.spec, r.time, r.depth, r.states, r.invariant, r.detected
            );
        }
        println!();
    }
    if want("table5a") {
        println!("== Table 5a: verification efficiency (stop at first violation) ==");
        print_efficiency(&bench::table5(false, budget));
        println!();
    }
    if want("table5b") {
        println!("== Table 5b: verification efficiency (run to completion) ==");
        print_efficiency(&bench::table5(true, budget));
        println!();
    }
    if want("table6") {
        println!("== Table 6: verifying bug fixes (pull requests) on mSpec-3+ ==");
        for r in bench::table6(budget) {
            println!(
                "{:<8} {:<9} time={:>8.2?} depth={:<3} states={:<9} inv={}",
                r.pull_request,
                r.spec,
                r.time,
                r.depth,
                r.states,
                r.invariant.as_deref().unwrap_or("None")
            );
        }
        println!();
    }
    if want("figure8") {
        println!("== Figure 8: bugs introduced in ZooKeeper's log replication ==");
        for (cause, effect, merged) in bench::figure8(budget) {
            println!("{cause:<10} -> {effect:<22} fix merged / verified: {merged}");
        }
        println!();
    }
    if want("improved-protocol") {
        println!("== §5.4: protocol specification and the improved protocol ==");
        for (name, passed, states) in bench::improved_protocol(budget) {
            println!("{name:<22} passes I-1..I-10: {passed}  distinct states: {states}");
        }
        println!();
    }
    if want("conformance") {
        println!("== §3.4/§4.1: conformance checking against the v3.9.1 implementation ==");
        for (spec, traces, steps, discrepancies) in bench::conformance_summary() {
            println!("{spec:<9} traces={traces:<3} steps={steps:<5} discrepancies={discrepancies}");
        }
        println!();
    }
    if want("actions") {
        println!("== Figure 7: next-state action set of each composition ==");
        for preset in SpecPreset::all() {
            let spec = preset.build(&config);
            let names: Vec<&str> = spec.actions().map(|a| a.name).collect();
            println!("{}: {}", preset.name(), names.join(", "));
        }
        println!();
    }
    ExitCode::SUCCESS
}

fn print_efficiency(rows: &[remix_core::EfficiencyRow]) {
    for r in rows {
        println!(
            "{:<9} time={:>8.2?} teardown={:>8.2?} depth={:<3} states={:<10} violations={:<6} \
             inv={:?} stop={}",
            r.spec,
            r.time,
            r.teardown,
            r.depth,
            r.states,
            r.violations,
            r.violated_invariants,
            r.stop.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn defaults_to_every_experiment_for_sixty_seconds() {
        let all = parse(&[], None).unwrap();
        assert_eq!(all.budget, Duration::from_secs(60));
        assert!(EXPERIMENTS.iter().all(|e| all.wants(e)));
        let some = parse(&args(&["table1", "table4"]), Some("30")).unwrap();
        assert_eq!(some.budget, Duration::from_secs(30));
        assert!(some.wants("table4") && !some.wants("table5a"));
    }

    #[test]
    fn an_unknown_experiment_is_rejected_with_the_accepted_list() {
        let err = parse(&args(&["table1", "table5"]), None).unwrap_err();
        assert!(err.contains("\"table5\""), "{err}");
        assert!(err.contains("table5a, table5b"), "{err}");
        assert!(err.contains("actions, all"), "{err}");
    }

    #[test]
    fn a_malformed_budget_is_rejected_not_defaulted() {
        for raw in ["30s", "", "-1", "1.5", " 30"] {
            let err = parse(&[], Some(raw)).unwrap_err();
            assert!(
                err.contains(&format!("REPRODUCE_BUDGET_SECS={raw:?}")),
                "{err}"
            );
            assert!(err.contains("whole number of seconds"), "{err}");
        }
    }
}

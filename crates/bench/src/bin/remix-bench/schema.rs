//! The benchmark's one row schema: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end number each is
//! predicted to move.  `BENCHMARK.json`, `--list`, the result line, `results.tsv` and
//! `compare` are all rendered from or checked against these tables.

use remix_core::json::escape;

/// The command `BENCHMARK.json` records: this directory's own manifest, so the
/// benchmark builds from a checkout without the workspace root manifest.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "crates/bench/src/bin/remix-bench/Cargo.toml",
    "--",
];

/// The one directory that holds the benchmark.
pub const PATHS: &[&str] = &["crates/bench/src/bin/remix-bench"];

/// Measuring window of one untraced run, in seconds: timed reps repeat until it has
/// elapsed (and at least [`MIN_TIMED_REPS`] ran).
pub const RUN_SECONDS: u64 = 8;

/// Never fewer timed reps than this, whatever `--seconds` says.
pub const MIN_TIMED_REPS: usize = 3;

/// The seed the count pins of the sampling workload hold for.
pub const DEFAULT_SEED: u64 = 7;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

/// One end-to-end metric: what a user of the checker waits for or pays.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may get worse before `compare`
    /// calls the row `worse`.
    pub bound: f64,
    pub what: &'static str,
}

/// One per-layer metric from the traced pass.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload a change to this layer is predicted to move
    /// (written down before measuring, so a perf PR can be held to it).
    pub moves: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "exhaust-fine",
        why: "Verify-a-fix exhaustion (Table 6 shape) of mSpec-3: 51% of edges are fresh states, so ZabState clones and Full-store inserts do most of the work.",
    },
    WorkloadInfo {
        name: "exhaust-election",
        why: "Same engine on SysSpec: 5.7 edges per state, 82% dedup hits, cheap enumeration, so fingerprinting and the dedup probe dominate and the insert-heavy path is bypassed.",
    },
    WorkloadInfo {
        name: "exhaust-reduced",
        why: "exhaust-fine's space under the fingerprint-only store, symmetry canonicalization and sleep-set POR: the only workload where the reductions run.",
    },
    WorkloadInfo {
        name: "exhaust-outofcore",
        why: "exhaust-fine's space, fingerprint-only under a 1 MiB budget: the only workload where the spill tier runs; no state clones, so enumeration and fingerprinting are nearly all of it.",
    },
    WorkloadInfo {
        name: "bug-hunt",
        why: "Time to a counterexample (Table 4) on ZK-4394, ZK-3023 and ZK-4685: early stop, invariant targeting and trace reconstruction, so search order can move it alone.",
    },
    WorkloadInfo {
        name: "refine",
        why: "Refinement checking bypasses BFS: refine::explore_side and the BTreeMap projection do the work, on one exploration-bound and one bookkeeping-bound pair.",
    },
    WorkloadInfo {
        name: "sample-conform",
        why: "Seeded sampling with no store and no BFS: explore uniform then guided, then conformance replay against the simulated cluster; a BFS-side change must leave it flat.",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "verdict_s",
        unit: "s",
        better: Better::Lower,
        // The issue asked for 10 %.  Ten fresh-process runs on the 2-core sandbox
        // spread (quartile distance over median) 5-15 % per workload, and a bound
        // must clear the noise it is judged in, so this is the ceiling.
        bound: 0.25,
        what: "median caller-observed wall-clock of one timed rep: all of the workload's cases back to back, each from just before its public entry point until its outcome is dropped",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        // The issue asked for 5 %, and the workloads that allocate repeat to 0.2 %.
        // `sample-conform` peaks at 5 MiB, where the seed alone moves the peak by 8 %
        // (quartile distance up to 4.2 %), and one bound serves every workload.
        bound: 0.10,
        what: "the process's VmHWM after the last timed rep (one workload per process)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of repeated set-ups: compose the specs, build every option struct and checker, and prime the same entry points with the verdict-checked smoke-size pass",
    },
];

const LOWER: Better = Better::Lower;
const HIGHER: Better = Better::Higher;

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SPEC_MOVES: &str =
    "verdict_s on every exhaust-* and bug-hunt; largest on exhaust-outofcore and exhaust-fine";
const INVARIANT_MOVES: &str = "at most 8% of any loop: predicted to move nothing visible";
const CLONE_MOVES: &str =
    "verdict_s and peak_rss_mb on exhaust-fine and bug-hunt; not the fingerprint-only workloads";
const CANON_MOVES: &str = "verdict_s on exhaust-reduced only";
const FP_MOVES: &str = "verdict_s on exhaust-election most, then exhaust-fine";
const INSERT_MOVES: &str =
    "verdict_s and peak_rss_mb on exhaust-fine and bug-hunt; dedup-hit cost on exhaust-election";
const SPILL_MOVES: &str = "verdict_s on exhaust-outofcore only";
const BFS_MOVES: &str =
    "verdict_s on exhaust-election and exhaust-outofcore once the kernels are unified; sample-conform flat";
const COUNT_MOVES: &str =
    "pinned by expected.rs on the unreduced workloads; a change here is a different search, not a speed-up";
const POR_MOVES: &str = "verdict_s on exhaust-reduced only";
const DFS_MOVES: &str = "no end-to-end metric: the second engine the one-kernel PR must not slow";
const REFINE_MOVES: &str = "verdict_s on refine; every exhaust-* flat";
const SAMPLE_MOVES: &str = "verdict_s on sample-conform only";
const SETUP_MOVES: &str = "setup_s; no workload runs the gate, so nothing else";
const BUGHUNT_MOVES: &str = "verdict_s on bug-hunt";
const PROCESS_MOVES: &str = "memory work shows in peak_rss_mb and the cold-rep numbers";
const TRACE_MOVES: &str =
    "bounds how far the traced shares can be trusted; moves no end-to-end metric";

pub const PER_LAYER: &[PerLayer] = &[
    layer("spec.enumerate_ns_per_edge", "ns", LOWER, SPEC_MOVES),
    layer("spec.enumerate_share", "ratio", LOWER, SPEC_MOVES),
    layer("spec.edges_per_state", "ratio", LOWER, SPEC_MOVES),
    layer("spec.invariants_ns_per_state", "ns", LOWER, INVARIANT_MOVES),
    layer("spec.invariants_share", "ratio", LOWER, INVARIANT_MOVES),
    layer(
        "spec.successors_vec_ns_per_edge",
        "ns",
        LOWER,
        "verdict_s on refine and sample-conform only",
    ),
    layer("zab.clone_ns_per_state", "ns", LOWER, CLONE_MOVES),
    layer("zab.canonicalize_ns_per_state", "ns", LOWER, CANON_MOVES),
    layer("zab.canonicalize_share", "ratio", LOWER, CANON_MOVES),
    layer("zab.symmetry_state_ratio", "ratio", LOWER, CANON_MOVES),
    layer(
        "zab.project_ns_per_state",
        "ns",
        LOWER,
        "verdict_s on refine only",
    ),
    layer("fingerprint.ns_per_state", "ns", LOWER, FP_MOVES),
    layer("fingerprint.share", "ratio", LOWER, FP_MOVES),
    layer("store.insert_ns_per_edge", "ns", LOWER, INSERT_MOVES),
    layer("store.insert_share", "ratio", LOWER, INSERT_MOVES),
    layer("store.fresh_ratio", "ratio", HIGHER, INSERT_MOVES),
    layer(
        "store.entry_bytes_per_state",
        "bytes",
        LOWER,
        "peak_rss_mb on exhaust-fine and bug-hunt",
    ),
    layer("store.teardown_s", "s", LOWER, INSERT_MOVES),
    layer("store.spill_probes_per_edge", "ratio", LOWER, SPILL_MOVES),
    layer("store.spill_bytes", "bytes", LOWER, SPILL_MOVES),
    layer("store.spill_runs", "count", LOWER, SPILL_MOVES),
    layer("bfs.distinct_states", "count", LOWER, COUNT_MOVES),
    layer("bfs.transitions", "count", LOWER, COUNT_MOVES),
    layer("bfs.max_depth", "count", LOWER, COUNT_MOVES),
    layer("bfs.transitions_per_s", "1/s", HIGHER, BFS_MOVES),
    layer("bfs.engine_elapsed_s", "s", LOWER, BFS_MOVES),
    layer("bfs.unaccounted_s", "s", LOWER, BFS_MOVES),
    layer("bfs.reference_loop_s", "s", LOWER, BFS_MOVES),
    layer("bfs.engine_overhead_share", "ratio", LOWER, BFS_MOVES),
    layer("por.pruned_transitions", "count", HIGHER, POR_MOVES),
    layer("por.reduction_factor", "ratio", HIGHER, POR_MOVES),
    layer("dfs.verdict_s", "s", LOWER, DFS_MOVES),
    layer("dfs.vs_bfs_ratio", "ratio", LOWER, DFS_MOVES),
    layer("refine.explore_bound_s", "s", LOWER, REFINE_MOVES),
    layer("refine.bookkeeping_bound_s", "s", LOWER, REFINE_MOVES),
    layer("refine.bookkeeping_heavy_s", "s", LOWER, REFINE_MOVES),
    layer("refine.states_per_s", "1/s", HIGHER, REFINE_MOVES),
    layer("refine.edges_checked", "count", LOWER, REFINE_MOVES),
    layer("refine.projections", "count", LOWER, REFINE_MOVES),
    layer("refine.vs_bfs_ratio", "ratio", LOWER, REFINE_MOVES),
    layer("explore.uniform_steps_per_s", "1/s", HIGHER, SAMPLE_MOVES),
    layer("explore.guided_steps_per_s", "1/s", HIGHER, SAMPLE_MOVES),
    layer(
        "explore.guided_overhead_ratio",
        "ratio",
        LOWER,
        SAMPLE_MOVES,
    ),
    layer("explore.distinct_prefixes", "count", HIGHER, SAMPLE_MOVES),
    layer("simulate.steps_per_s", "1/s", HIGHER, SAMPLE_MOVES),
    layer("conform.check_steps_per_s", "1/s", HIGHER, SAMPLE_MOVES),
    layer("conform.sample_share", "ratio", LOWER, SAMPLE_MOVES),
    layer("zksim.replay_steps_per_s", "1/s", HIGHER, SAMPLE_MOVES),
    layer("zksim.discrepancies", "count", LOWER, SAMPLE_MOVES),
    layer("core.compose_ms", "ms", LOWER, SETUP_MOVES),
    layer("analyze.gate_s", "s", LOWER, SETUP_MOVES),
    layer("bughunt.zk4394_s", "s", LOWER, BUGHUNT_MOVES),
    layer("bughunt.zk3023_s", "s", LOWER, BUGHUNT_MOVES),
    layer("bughunt.zk4685_s", "s", LOWER, BUGHUNT_MOVES),
    layer("bughunt.states_at_violation", "count", LOWER, BUGHUNT_MOVES),
    layer("process.startup_s", "s", LOWER, PROCESS_MOVES),
    layer("process.cold_rep_s", "s", LOWER, PROCESS_MOVES),
    layer("process.cold_penalty_ratio", "ratio", LOWER, PROCESS_MOVES),
    layer("process.cpu_s", "s", LOWER, PROCESS_MOVES),
    layer("process.minor_faults", "count", LOWER, PROCESS_MOVES),
    layer("process.rss_bytes_per_state", "bytes", LOWER, PROCESS_MOVES),
    layer("trace.overhead_share", "ratio", LOWER, TRACE_MOVES),
    layer("trace.spans", "count", LOWER, TRACE_MOVES),
];

/// The unit a metric is reported in, or `None` for a name outside the schema.
pub fn unit_of(metric: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == metric).map(|m| m.unit))
        .or(match metric {
            "cases_failed" | "cases_total" => Some("count"),
            _ => None,
        })
}

fn string_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(", "))
}

/// Renders `BENCHMARK.json` from the tables above (`remix-bench --manifest`); a unit
/// test holds the committed file to this text.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                escape(w.name),
                escape(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        string_list(COMMAND),
        string_list(PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// The `--list` text: every workload with its reason, every metric with unit,
/// direction, bound and prediction.
pub fn list_text() -> String {
    let mut out = String::from("workloads:\n");
    for w in WORKLOADS {
        out.push_str(&format!("  {:<18} {}\n", w.name, w.why));
    }
    out.push_str("end-to-end metrics (name, unit, better, regression bound, definition):\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<12} {:<4} {:<6} +{:.0}%  {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        ));
    }
    out.push_str(
        "  cases_failed  count of cases_total, 0 allowed: carried by the result line's `failed`/`attempted` and the exit code\n",
    );
    out.push_str("per-layer metrics (name, unit, better, predicted to move):\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<34} {:<6} {:<6} {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "every name is used once");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        // The sources build both as `crates/bench`'s bin and as this directory's own
        // package, so walk up from whichever manifest dir is in effect.
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let committed = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest dir");
        };
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `remix-bench --manifest > BENCHMARK.json`"
        );
    }
}

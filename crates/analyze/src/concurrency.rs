//! Concurrency tier, part 1 — the source lint.
//!
//! The parallel engine's soundness rests on conventions no type system checks:
//! every blocking primitive goes through the instrumented `checker::sync` layer,
//! every memory-ordering choice is justified in place, successor callbacks stay
//! lock-free, and poisoning is handled by exactly one policy helper.  This module
//! turns each convention into a scannable rule over `crates/*/src` (the
//! no-parser, needle-based scanner [`crate::lint`] runs on):
//!
//! * **`raw-sync-import`** — no `use std::sync::…` importing `Mutex`, `RwLock`,
//!   `Condvar`, `Barrier`, `mpsc`, atomics or `Ordering` anywhere outside
//!   `crates/checker/src/sync.rs`.  `Arc` and `PoisonError` ride along freely (the
//!   former is not a lock, the latter appears in type positions of the policy
//!   helpers).  A `// sync-exempt: <reason>` comment anywhere in the file waives
//!   this rule and `poison-handled-centrally` for that file — the escape hatch for
//!   crates below `remix-checker` in the dependency order.
//! * **`ordering-justified`** — every `Ordering::{Relaxed, Acquire, Release,
//!   AcqRel, SeqCst}` use carries a `// ordering: <why>` comment on the same line
//!   or within the three preceding lines.  `std::cmp::Ordering` matches are
//!   skipped, as is `#[cfg(test)]` content (test assertions read counters, they
//!   do not synchronize).
//! * **`no-lock-in-successor-callback`** — no lock acquisition inside the span of
//!   a `for_each_successor(...)` call.  Successor closures run user-controlled
//!   spec code on the expansion hot path; a blocking acquisition there drags that
//!   code into the lock hierarchy (and would run under whatever lock the caller
//!   holds).  Callbacks must buffer and let the caller flush after the closure
//!   returns (see `Level::expand` in the checker's kernel).
//! * **`single-successor-pipeline`** — in non-test code under `crates/checker/src`,
//!   `for_each_successor(...)` is called from exactly one file (the shared pipeline,
//!   `expand.rs`).  Every engine that enumerates successors on its own grows its own
//!   copy of prune → canonicalize → fingerprint, and the copies drift: a reduction
//!   added to one engine silently misses the others.
//! * **`poison-handled-centrally`** — no `PoisonError` handling (`into_inner`)
//!   outside `checker::sync`'s `lock_or_recover` family; scattered poison
//!   recovery is how policy drifts.

use std::path::Path;

use crate::finding::{AnalysisReport, Tier};
use crate::source::{balanced_span_end, flag, line_of, occurrences, workspace_sources};

// Needles are assembled at compile time so this file does not trip its own rules
// (the scanner lints every crate, including this one).
const SYNC_IMPORT: &str = concat!("use std::", "sync");
const ORDERING_USE: &str = concat!("Ordering", "::");
const CMP_PREFIX: &str = concat!("cmp", "::");
const EXEMPT_MARK: &str = concat!("// sync-", "exempt:");
const ORDERING_MARK: &str = concat!("// ordering", ":");
const POISON: &str = concat!("Poison", "Error");
const SUCCESSOR_CALL: &str = concat!("for_each_", "successor(");
const CFG_TEST: &str = concat!("#[cfg(", "test)]");
const SANCTIONED_FILE: &str = "crates/checker/src/sync.rs";
/// The tree in which successor enumeration must go through one shared pipeline.
const PIPELINE_SCOPE: &str = "crates/checker/src/";

/// Identifiers whose appearance in a `use std::sync` line makes it a raw-sync
/// import (anything that blocks, fences or orders).
const BANNED_IMPORTS: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "Barrier", "Once", "mpsc", "atomic", "Ordering",
];

/// Lock-acquisition needles that must not appear inside a successor callback.
const LOCK_NEEDLES: &[&str] = &[
    ".lock(",
    ".read()",
    ".write()",
    "lock_shard(",
    "lock_counting(",
    "lock_or_recover(",
    "read_or_recover(",
    "write_or_recover(",
];

/// The orderings whose choice must be justified.
const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Lints every `crates/*/src` tree under `root` for the concurrency conventions.
pub fn lint_concurrency(root: &Path) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let mut enumerators = Vec::new();
    // An unreadable workspace is `lint_workspace`'s finding.
    let crates = workspace_sources(root).unwrap_or_default();
    for (rel, source) in crates.into_iter().flatten() {
        lint_concurrency_file(&rel, &source, &mut report);
        enumerators.extend(successor_call_line(&rel, &source).map(|line| (rel, line)));
        // The lint's "corpus" is the set of scanned source files.
        report.corpus_states += 1;
    }
    rule_single_successor_pipeline(&enumerators, &mut report);
    report
}

/// Runs the concurrency rules on one source file (`rel` is the workspace-relative
/// path, `/`-separated, used in finding locations and for the sanctioned-file
/// check).
pub fn lint_concurrency_file(rel: &str, source: &str, report: &mut AnalysisReport) {
    let sanctioned = rel == SANCTIONED_FILE;
    let exempt = source.contains(EXEMPT_MARK);
    if !sanctioned && !exempt {
        rule_raw_sync_import(rel, source, report);
        rule_poison_centrally(rel, source, report);
    }
    rule_ordering_justified(rel, source, report);
    rule_no_lock_in_successor_callback(rel, source, report);
}

fn push(report: &mut AnalysisReport, rule: &str, location: String, detail: String) {
    flag(report, Tier::ConcurrencyLint, rule, location, detail);
}

fn rule_raw_sync_import(rel: &str, source: &str, report: &mut AnalysisReport) {
    for (lineno, line) in source.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") || !trimmed.contains(SYNC_IMPORT) {
            continue;
        }
        if BANNED_IMPORTS.iter().any(|b| trimmed.contains(b)) {
            push(
                report,
                "raw-sync-import",
                format!("{rel}:{}", lineno + 1),
                format!(
                    "raw std sync primitive imported outside checker::sync; route \
                     locks, condvars and atomics through the instrumented layer (or \
                     mark the file `{EXEMPT_MARK} <reason>` when it sits below \
                     remix-checker)"
                ),
            );
        }
    }
}

fn rule_ordering_justified(rel: &str, source: &str, report: &mut AnalysisReport) {
    // Justifications do not synchronize tests; cut the scan at `#[cfg(test)]`.
    let scan_end = source.find(CFG_TEST).unwrap_or(source.len());
    let scanned = &source[..scan_end];
    let lines: Vec<&str> = scanned.lines().collect();
    for (lineno, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        let mut from = 0usize;
        while let Some(hit) = line[from..].find(ORDERING_USE) {
            let at = from + hit;
            from = at + ORDERING_USE.len();
            // `std::cmp::Ordering::Less` and friends are comparisons, not fences.
            if line[..at].ends_with(CMP_PREFIX) {
                continue;
            }
            let rest = &line[at + ORDERING_USE.len()..];
            if !MEMORY_ORDERINGS.iter().any(|m| rest.starts_with(m)) {
                continue;
            }
            let justified = line.contains(ORDERING_MARK)
                || lines[lineno.saturating_sub(3)..lineno]
                    .iter()
                    .any(|l| l.contains(ORDERING_MARK));
            if !justified {
                push(
                    report,
                    "ordering-justified",
                    format!("{rel}:{}", lineno + 1),
                    format!(
                        "memory-ordering choice without a `{ORDERING_MARK} <why>` \
                         justification on the same or one of the three preceding \
                         lines; every Relaxed/Acquire/Release/AcqRel/SeqCst pick \
                         must say what it pairs with or why it needs nothing"
                    ),
                );
            }
        }
    }
}

fn rule_no_lock_in_successor_callback(rel: &str, source: &str, report: &mut AnalysisReport) {
    for start in occurrences(source, SUCCESSOR_CALL) {
        let open = start + SUCCESSOR_CALL.len() - 1;
        let Some(end) = balanced_span_end(source, open) else {
            continue;
        };
        let span = &source[start..end];
        for needle in LOCK_NEEDLES {
            for hit in occurrences(span, needle) {
                // Comment text inside the span ("stays lock-free", doc references)
                // is not an acquisition.
                let line_start = span[..hit].rfind('\n').map_or(0, |p| p + 1);
                if span[line_start..hit].trim_start().starts_with("//") {
                    continue;
                }
                push(
                    report,
                    "no-lock-in-successor-callback",
                    format!("{rel}:{}", line_of(source, start + hit)),
                    format!(
                        "lock acquisition `{needle}..` inside a successor-enumeration \
                         callback; buffer in the closure and flush after it returns \
                         (the callback runs on the expansion hot path with frontier \
                         locks held)"
                    ),
                );
            }
        }
    }
}

/// 1-indexed line of the first non-test, non-comment `for_each_successor(` call of a
/// file inside the single-pipeline rule's scope (`None` outside it or without a call).
fn successor_call_line(rel: &str, source: &str) -> Option<usize> {
    if !rel.starts_with(PIPELINE_SCOPE) {
        return None;
    }
    let scan_end = source.find(CFG_TEST).unwrap_or(source.len());
    source[..scan_end]
        .lines()
        .position(|line| !line.trim_start().starts_with("//") && line.contains(SUCCESSOR_CALL))
        .map(|lineno| lineno + 1)
}

/// The cross-file rule: `enumerators` holds every `(file, line)` that
/// [`successor_call_line`] found; more than one file is one finding per file.
fn rule_single_successor_pipeline(enumerators: &[(String, usize)], report: &mut AnalysisReport) {
    if enumerators.len() <= 1 {
        return;
    }
    for (rel, line) in enumerators {
        let others: Vec<&str> = enumerators
            .iter()
            .map(|(other, _)| other.as_str())
            .filter(|other| other != rel)
            .collect();
        push(
            report,
            "single-successor-pipeline",
            format!("{rel}:{line}"),
            format!(
                "successor enumeration outside the shared pipeline (also called from {}); \
                 engines under {PIPELINE_SCOPE} call `expand::Pipeline::expand`, so \
                 pruning, canonicalization and fingerprinting exist once",
                others.join(", ")
            ),
        );
    }
}

fn rule_poison_centrally(rel: &str, source: &str, report: &mut AnalysisReport) {
    for (lineno, line) in source.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") || !trimmed.contains(POISON) {
            continue;
        }
        push(
            report,
            "poison-handled-centrally",
            format!("{rel}:{}", lineno + 1),
            "poison handling outside checker::sync; the one poisoning policy is \
             sync::lock_or_recover and its RwLock siblings — acquire through the \
             sync layer's Mutex and RwLock instead"
                .to_owned(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::Finding;

    fn run(rel: &str, source: &str) -> Vec<Finding> {
        let mut r = AnalysisReport::default();
        lint_concurrency_file(rel, source, &mut r);
        r.findings
    }

    #[test]
    fn raw_sync_import_is_flagged_outside_the_sanctioned_file() {
        let src = format!("{SYNC_IMPORT}::Mutex;\n");
        let findings = run("crates/x/src/a.rs", &src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].action, "raw-sync-import");
        assert!(
            run(SANCTIONED_FILE, &src).is_empty(),
            "sync.rs is sanctioned"
        );
        let arc_only = format!("{SYNC_IMPORT}::Arc;\n");
        assert!(
            run("crates/x/src/a.rs", &arc_only).is_empty(),
            "Arc rides free"
        );
    }

    #[test]
    fn sync_exempt_comment_waives_import_and_poison_rules() {
        let src = format!(
            "{EXEMPT_MARK} below remix-checker in the dependency order\n\
             {SYNC_IMPORT}::{{Arc, {POISON}, RwLock}};\n\
             fn f() {{ l.read().unwrap_or_else({POISON}::into_inner); }}\n"
        );
        assert!(run("crates/spec/src/label.rs", &src).is_empty());
    }

    #[test]
    fn unjustified_ordering_is_flagged_and_cmp_ordering_is_not() {
        let bad = format!("fn f() {{ x.load({ORDERING_USE}Relaxed); }}\n");
        let findings = run("crates/x/src/a.rs", &bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].action, "ordering-justified");
        let good = format!(
            "fn f() {{\n    {ORDERING_MARK} Relaxed — statistics only.\n    \
             x.load({ORDERING_USE}Relaxed);\n}}\n"
        );
        assert!(run("crates/x/src/a.rs", &good).is_empty());
        let cmp = format!(
            "fn f() {{ match a.cmp(b) {{ std::{CMP_PREFIX}{ORDERING_USE}Less => 1, _ => 0 }} }}\n"
        );
        assert!(run("crates/x/src/a.rs", &cmp).is_empty());
        let test_only =
            format!("{CFG_TEST}\nmod tests {{ fn f() {{ x.load({ORDERING_USE}Relaxed); }} }}\n");
        assert!(run("crates/x/src/a.rs", &test_only).is_empty());
    }

    #[test]
    fn lock_inside_successor_callback_is_flagged() {
        let bad = format!(
            "fn f() {{ spec.{SUCCESSOR_CALL}state, labels, |l, n, e| {{\n    \
             let g = store.lock_shard(0);\n}}); }}\n"
        );
        let findings = run("crates/x/src/a.rs", &bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].action, "no-lock-in-successor-callback");
        let buffered = format!(
            "fn f() {{ spec.{SUCCESSOR_CALL}state, labels, |l, n, e| {{\n    \
             // the store pass after the closure takes the .lock( instead\n    \
             buf.push(n);\n}});\nlet g = store.lock_shard(0);\n}}\n"
        );
        assert!(run("crates/x/src/a.rs", &buffered).is_empty());
    }

    #[test]
    fn second_successor_enumerator_is_flagged_and_one_is_clean() {
        let call =
            format!("fn f() {{ spec.{SUCCESSOR_CALL}state, labels, |l, n, e| buf.push(n)); }}\n");
        let commented = format!("// spec.{SUCCESSOR_CALL}..) is the pipeline's job\nfn f() {{}}\n");
        let in_tests = format!("fn f() {{}}\n{CFG_TEST}\nmod tests {{ {call} }}\n");
        let scan = |files: &[(&str, &str)]| {
            let enumerators: Vec<(String, usize)> = files
                .iter()
                .filter_map(|(rel, src)| {
                    successor_call_line(rel, src).map(|line| (rel.to_string(), line))
                })
                .collect();
            let mut report = AnalysisReport::default();
            rule_single_successor_pipeline(&enumerators, &mut report);
            report.findings
        };
        let flagged = scan(&[
            ("crates/checker/src/expand.rs", &call),
            ("crates/checker/src/refine.rs", &call),
        ]);
        assert_eq!(flagged.len(), 2, "one finding per enumerating file");
        assert!(flagged
            .iter()
            .all(|f| f.action == "single-successor-pipeline"));
        assert_eq!(flagged[1].location, "crates/checker/src/refine.rs:1");
        assert!(flagged[1].detail.contains("crates/checker/src/expand.rs"));
        // One pipeline file is clean, however many comments, tests and out-of-scope
        // files (the benchmark's reference loop) mention the call.
        assert!(scan(&[
            ("crates/checker/src/expand.rs", &call),
            ("crates/checker/src/dfs.rs", &commented),
            ("crates/checker/src/bfs.rs", &in_tests),
            ("crates/bench/src/bin/remix-bench/reference.rs", &call),
        ])
        .is_empty());
    }

    #[test]
    fn scattered_poison_handling_is_flagged() {
        let src = format!("fn f() {{ m.lock().unwrap_or_else({POISON}::into_inner); }}\n");
        let findings = run("crates/x/src/a.rs", &src);
        assert!(findings
            .iter()
            .any(|f| f.action == "poison-handled-centrally"));
    }
}

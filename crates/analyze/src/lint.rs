//! Tier 3 — the workspace source lint.
//!
//! A self-contained scanner over `crates/*/src` (plain `std::fs`, no parser, no new
//! dependencies) enforcing the conventions that keep footprint declarations honest:
//!
//! An action offers each enabled instance as `sink.offer(label, effect, apply)`; an
//! *offer* below is any `.offer(` call with those three arguments.
//!
//! * **`effect-annotation`** — in protocol action files (any path under a
//!   `src/actions/` directory), every offer must declare a footprint: its effect
//!   argument may not be `None`.  Unannotated instances silently opt out of POR *and*
//!   of the effect audit.
//! * **`fault-link-bits`** — in `actions/faults.rs`, every top-level function that
//!   offers an instance must mention `writes_channel`: fault actions flip link-level
//!   reachability, so a footprint without channel-pair bits is exactly the
//!   NodeRestart under-declaration.
//! * **`guard-extracted`** — every `*_enabled` guard function defined in a crate must
//!   be referenced at least twice in that crate (its definition plus at least one
//!   call): an uncalled guard means a step function re-implements the enabling
//!   condition inline and the two will drift.
//! * **`no-panic-in-action`** — no `.unwrap()` / `.expect(` inside the span of an
//!   action-definition constructor call or inside an offer's `apply`: a panicking
//!   action closure takes down the whole checker rather than reporting a violation
//!   trace.
//! * **`env-read`** — no `std::env::var` / `var_os` / `vars` / `vars_os` outside
//!   the binaries under `crates/bench/src/bin/`: a verdict must depend on nothing but
//!   the spec and the options a caller built, so library code never reads the
//!   environment.
//!
//! Findings are [`Convention`](crate::finding::FindingClass::Convention)-class; CI
//! fails on any of them.  The scanner skips string/character content only at the
//! double-quote level (enough for the workspace's real sources) and never parses
//! Rust — rules are phrased so that false positives are fixed by making the code
//! follow the convention, which is the point.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::finding::{AnalysisReport, Tier};
use crate::source::{balanced_span_end, call_args, flag, line_of, occurrences, workspace_sources};

// Needles are assembled at compile time so this file does not contain its own
// patterns (the linter scans every crate, including this one).
const OFFER: &str = concat!(".off", "er(");
const DEF_NEW: &str = concat!("Action", "Def::new(");
const WRITES_CHANNEL: &str = concat!("writes_", "channel");
const UNWRAP: &str = concat!(".unw", "rap()");
const EXPECT: &str = concat!(".exp", "ect(");
const ENABLED_SUFFIX: &str = concat!("_enab", "led");
const ENV_READ: &str = concat!("env::", "var");

/// Where reading the environment is allowed: every file under the binaries' directory.
const ENV_READ_ALLOWED: &str = "crates/bench/src/bin/";

/// Lints every `crates/*/src` tree under `root` (the workspace root).
pub fn lint_workspace(root: &Path) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    match workspace_sources(root) {
        Ok(crates) => crates
            .iter()
            .for_each(|sources| lint_crate(sources, &mut report)),
        Err(e) => flag(
            &mut report,
            Tier::SpecLint,
            "workspace-layout",
            root.join("crates").display().to_string(),
            format!("cannot read crates directory: {e}"),
        ),
    }
    report
}

/// Lints one crate's `(path, content)` sources.
fn lint_crate(sources: &[(String, String)], report: &mut AnalysisReport) {
    // name -> (definition site, reference count across the crate's sources)
    let mut guards: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for (rel, source) in sources {
        lint_file(rel, source, report);
        collect_guard_defs(rel, source, &mut guards);
    }
    for (_, source) in sources {
        count_guard_refs(source, &mut guards);
    }
    for (name, (site, refs)) in guards {
        if refs < 2 {
            flag(
                report,
                Tier::SpecLint,
                "guard-extracted",
                site,
                format!(
                    "guard fn {name} is defined but never called in its crate; step \
                     functions must call the extracted guard, not re-inline it"
                ),
            );
        }
    }
}

/// Runs the per-file rules on one source file (`rel` is the workspace-relative path
/// used in finding locations).
pub fn lint_file(rel: &str, source: &str, report: &mut AnalysisReport) {
    let in_actions_dir = rel.replace('\\', "/").contains("/src/actions/");
    if in_actions_dir {
        rule_effect_annotation(rel, source, report);
        if rel.ends_with("faults.rs") {
            rule_fault_link_bits(rel, source, report);
        }
    }
    rule_no_panic_in_action(rel, source, report);
    if !rel.starts_with(ENV_READ_ALLOWED) {
        rule_env_read(rel, source, report);
    }
}

/// `rest` with leading whitespace and `//` line comments skipped: a comment in front of
/// an offer's effect argument (rustfmt happily reflows one there) must not hide the
/// annotation from the lint.
fn skip_trivia(mut rest: &str) -> &str {
    loop {
        rest = rest.trim_start();
        if !rest.starts_with("//") {
            return rest;
        }
        match rest.find('\n') {
            Some(nl) => rest = &rest[nl + 1..],
            None => return "",
        }
    }
}

/// Every offer in `source` — a `.offer(` call with three arguments, `(label, effect,
/// apply)` — as the offset of its `.offer(` and its arguments.
fn offers(source: &str) -> impl Iterator<Item = (usize, Vec<&str>)> {
    occurrences(source, OFFER).filter_map(|start| {
        let args = call_args(source, start + OFFER.len() - 1)?;
        (args.len() == 3).then_some((start, args))
    })
}

fn rule_effect_annotation(rel: &str, source: &str, report: &mut AnalysisReport) {
    for (start, args) in offers(source) {
        if skip_trivia(args[1]) == "None" {
            flag(
                report,
                Tier::SpecLint,
                "effect-annotation",
                format!("{rel}:{}", line_of(source, start)),
                "action instance offered without a declared Effect \
                         footprint; unannotated instances opt out of POR and of the \
                         effect audit"
                    .to_owned(),
            );
        }
    }
}

fn rule_fault_link_bits(rel: &str, source: &str, report: &mut AnalysisReport) {
    // Split at top-level (column 0) function definitions.
    let mut fn_starts: Vec<usize> = Vec::new();
    for (off, line) in line_offsets(source) {
        if line.starts_with("pub fn ") || line.starts_with("fn ") {
            fn_starts.push(off);
        }
    }
    fn_starts.push(source.len());
    for w in fn_starts.windows(2) {
        let body = &source[w[0]..w[1]];
        if offers(body).next().is_some() && !body.contains(WRITES_CHANNEL) {
            flag(
                report,
                Tier::SpecLint,
                "fault-link-bits",
                format!("{rel}:{}", line_of(source, w[0])),
                "fault action declares no channel-pair link bits; faults flip \
                         reachability, so a footprint without channel writes is the \
                         NodeRestart-class under-declaration"
                    .to_owned(),
            );
        }
    }
}

fn rule_no_panic_in_action(rel: &str, source: &str, report: &mut AnalysisReport) {
    // The spans an action runs in: action-definition constructor calls, and every
    // offer's `apply` (which may sit in a helper outside any constructor).
    let mut spans: Vec<&str> = occurrences(source, DEF_NEW)
        .filter_map(|start| {
            let end = balanced_span_end(source, start + DEF_NEW.len() - 1)?;
            Some(&source[start..end])
        })
        .collect();
    spans.extend(offers(source).map(|(_, args)| args[2]));
    // Offsets, so a panic inside an offer inside a constructor is flagged once.
    let mut hits = BTreeSet::new();
    for span in spans {
        let base = span.as_ptr() as usize - source.as_ptr() as usize;
        for needle in [UNWRAP, EXPECT] {
            hits.extend(occurrences(span, needle).map(|hit| base + hit));
        }
    }
    for hit in hits {
        flag(
            report,
            Tier::SpecLint,
            "no-panic-in-action",
            format!("{rel}:{}", line_of(source, hit)),
            "panicking call inside an action definition closure; \
                     action closures must degrade (skip the instance or record \
                     a violation), not abort the checker"
                .to_owned(),
        );
    }
}

fn rule_env_read(rel: &str, source: &str, report: &mut AnalysisReport) {
    for (lineno, line) in source.lines().enumerate() {
        if line.trim_start().starts_with("//") || !line.contains(ENV_READ) {
            continue;
        }
        flag(
            report,
            Tier::SpecLint,
            "env-read",
            format!("{rel}:{}", lineno + 1),
            "environment read outside the bench binaries; library code reads no \
             environment: take the value as an option field instead, so a run \
             depends only on its options"
                .to_owned(),
        );
    }
}

/// `(byte offset, line)` pairs for each line of `source`.
fn line_offsets(source: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut off = 0;
    source.lines().map(move |line| {
        let this = off;
        off += line.len() + 1;
        (this, line)
    })
}

fn collect_guard_defs(rel: &str, source: &str, guards: &mut BTreeMap<String, (String, usize)>) {
    for start in occurrences(source, "fn ") {
        // Require a word boundary before `fn` (start of file, whitespace or `(`).
        if start > 0 {
            let prev = source.as_bytes()[start - 1];
            if !prev.is_ascii_whitespace() && prev != b'(' {
                continue;
            }
        }
        let after = &source[start + 3..];
        let name: String = after
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.ends_with(ENABLED_SUFFIX) && after[name.len()..].starts_with('(') {
            guards
                .entry(name)
                .or_insert_with(|| (format!("{rel}:{}", line_of(source, start)), 0));
        }
    }
}

fn count_guard_refs(source: &str, guards: &mut BTreeMap<String, (String, usize)>) {
    for (name, (_, count)) in guards.iter_mut() {
        let needle = format!("{name}(");
        *count += occurrences(source, &needle)
            .filter(|&i| {
                // Reject hits that are merely suffixes of a longer identifier.
                i == 0 || {
                    let prev = source.as_bytes()[i - 1];
                    !prev.is_ascii_alphanumeric() && prev != b'_'
                }
            })
            .count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::Finding;

    fn run(rel: &str, source: &str) -> Vec<Finding> {
        let mut r = AnalysisReport::default();
        lint_file(rel, source, &mut r);
        r.findings
    }

    #[test]
    fn unannotated_instance_in_actions_dir_is_flagged() {
        let src = format!(
            "fn a() {{ sink{OFFER}Label::new(\"L\").arg(0), None, |next| next.x = 1); }}\n\
             fn b() {{ sink{OFFER}Label::new(\"L\").arg(1), eff_recv(i, j), |next| {{\n\
             \x20   next.x = 1;\n}}); }}\n"
        );
        let findings = run("crates/x/src/actions/foo.rs", &src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].action, "effect-annotation");
        assert!(findings[0].location.ends_with(":1"));
        // Outside an actions dir the rule does not apply.
        assert!(run("crates/x/src/state.rs", &src).is_empty());
        // Enumerating a spec's or an action's offers is no offer.
        let sinks = format!("fn c() {{ spec{OFFER}s, &mut |o: Offer<'_, S>| n += 1); }}\n");
        assert!(run("crates/x/src/actions/foo.rs", &sinks).is_empty());
    }

    #[test]
    fn comment_between_constructor_and_annotation_is_tolerated() {
        let src = format!(
            "fn a() {{\n    sink{OFFER}\n        Label::new(\"L\"),\n\
             \x20       // rustfmt reflows explanatory comments to here\n\
             \x20       Effect::new().writes_server(i),\n\
             \x20       |next| next.x = 1,\n    );\n}}\n"
        );
        assert!(run("crates/x/src/actions/foo.rs", &src).is_empty());
    }

    #[test]
    fn fault_fn_without_channel_bits_is_flagged() {
        let src = format!(
            "pub fn crash() {{ sink{OFFER}l, Effect::new().{WRITES_CHANNEL}s_of(0), |n| {{}}); }}\n\
             pub fn restart() {{ sink{OFFER}l, Effect::new().writes_server(0), |n| {{}}); }}\n"
        );
        let findings = run("crates/x/src/actions/faults.rs", &src);
        let fault: Vec<_> = findings
            .iter()
            .filter(|f| f.action == "fault-link-bits")
            .collect();
        assert_eq!(fault.len(), 1);
        assert!(fault[0].location.ends_with(":2"));
    }

    #[test]
    fn panic_inside_action_def_is_flagged() {
        let src = format!(
            "fn m() {{ {DEF_NEW}\"A\", m, g, vec![], vec![], move |s, sink| {{\n\
             let x = q.iter().max(){EXPECT}\"nonempty\");\n}})\n}}\n"
        );
        let findings = run("crates/x/src/foo.rs", &src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].action, "no-panic-in-action");
        // The same panic outside an action span is not this lint's business.
        let outside = format!("fn m() {{ let x = q.iter().max(){EXPECT}\"nonempty\"); }}\n");
        assert!(run("crates/x/src/foo.rs", &outside).is_empty());
    }

    #[test]
    fn panic_inside_an_apply_is_flagged_once() {
        // An apply in a helper outside any constructor, and one inside a constructor.
        let src = format!(
            "fn h(sink: &mut dyn Sink<S>) {{\n    sink{OFFER}l, e, |next| {{\n\
             \x20       next.x = q.first(){UNWRAP};\n    }});\n}}\n\
             fn m() {{ {DEF_NEW}\"A\", m, g, vec![], vec![], |s, sink| {{\n\
             sink{OFFER}l, e, |next| next.y = q.last(){UNWRAP});\n}})\n}}\n"
        );
        let findings = run("crates/x/src/foo.rs", &src);
        let lines: Vec<_> = findings.iter().map(|f| f.location.as_str()).collect();
        assert_eq!(lines, ["crates/x/src/foo.rs:3", "crates/x/src/foo.rs:7"]);
        // The guard in front of an offer may still panic-check its own inputs.
        let clean = format!(
            "fn h(sink: &mut dyn Sink<S>) {{\n    let x = q.first(){UNWRAP};\n\
             \x20   sink{OFFER}l, e, move |next| next.x = x);\n}}\n"
        );
        assert!(run("crates/x/src/foo.rs", &clean).is_empty());
    }

    #[test]
    fn env_reads_outside_the_sanctioned_files_are_flagged() {
        let src = format!(
            "fn f() {{\n    // {ENV_READ}(\"X\") in a comment is fine\n\
             \x20   let a = std::{ENV_READ}_os(\"X\");\n\
             \x20   let b = {ENV_READ}s_os().count();\n}}\n"
        );
        for flagged in [
            "crates/checker/src/options.rs",
            "crates/checker/src/sync.rs",
        ] {
            let findings = run(flagged, &src);
            assert_eq!(findings.len(), 2, "{flagged}: {findings:?}");
            assert!(findings.iter().all(|f| f.action == "env-read"));
            assert!(findings[0].location.ends_with(".rs:3"));
            assert!(findings[1].location.ends_with(".rs:4"));
        }
        for allowed in [
            "crates/bench/src/bin/reproduce.rs",
            "crates/bench/src/bin/remix-bench/main.rs",
        ] {
            assert!(run(allowed, &src).is_empty(), "{allowed}");
        }
    }

    #[test]
    fn other_env_items_are_clean() {
        let src = "fn f() {\n    let dir = std::env::temp_dir();\n    \
                   let args: Vec<String> = std::env::args().collect();\n    \
                   let root = env!(\"CARGO_MANIFEST_DIR\");\n}\n";
        assert!(run("crates/checker/src/spill.rs", src).is_empty());
    }

    #[test]
    fn balanced_spans_skip_string_parens() {
        let src = format!("{OFFER}format!(\"L({{i}}, \"), None, |a, b| f(a, b))");
        let end = balanced_span_end(&src, OFFER.len() - 1).expect("closes");
        assert_eq!(end, src.len());
        let args = call_args(&src, OFFER.len() - 1).expect("closes");
        assert_eq!(args, ["format!(\"L({i}, \")", "None", "|a, b| f(a, b)"]);
    }

    #[test]
    fn uncalled_guard_is_flagged() {
        let def = "pub fn step_enabled(s: &S) -> bool { true }\n";
        let mut guards = BTreeMap::new();
        collect_guard_defs("crates/x/src/a.rs", def, &mut guards);
        count_guard_refs(def, &mut guards);
        assert_eq!(guards["step_enabled"].1, 1, "definition only");
        let caller = "fn step() { if step_enabled(s) {} }\n";
        count_guard_refs(caller, &mut guards);
        assert_eq!(guards["step_enabled"].1, 2);
    }
}

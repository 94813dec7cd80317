//! The workspace must be clean under its own concurrency lint.
//!
//! This is the self-hosting gate of the concurrency-soundness pass: every
//! synchronization primitive in the engine goes through `remix_checker::sync` (or
//! carries an explicit `// sync-exempt:` waiver with its leaf-lock argument), every
//! memory-ordering choice is justified, no successor callback takes a lock, and
//! poison handling is centralized.  A finding here means a convention regressed —
//! the same class of drift the lint exists to catch in review.

use std::path::PathBuf;

use remix_analyze::lint_concurrency;

fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_is_clean_under_the_concurrency_lint() {
    let report = lint_concurrency(&workspace_root());
    assert!(
        report.findings.is_empty(),
        "concurrency lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.corpus_states > 0,
        "the lint must actually have scanned source files"
    );
}

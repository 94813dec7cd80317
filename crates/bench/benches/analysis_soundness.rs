//! The spec-soundness analysis artefact: runs all three `remix-analyze` tiers over
//! the Table 5 workload and writes `BENCH_analysis.json` (path overridable via
//! `ANALYSIS_JSON`).
//!
//! * **Effect audit** — every preset of Table 1 on the Table 5 configuration
//!   (`small(FinalFix)` with one transaction), over a corpus large enough to exhaust
//!   mSpec-3's 16,702 concrete states.  Zero soundness findings is the workspace's
//!   acceptance bar.
//! * **Commute oracle** — the same presets over a smaller corpus (diamond closure
//!   memoizes successor sets per intermediate state, so its corpus is bounded
//!   tighter; the truncation is recorded in the per-run counters, not hidden).
//! * **Seeded regression** — `remix_zab::underdeclare_node_restart` re-creates the
//!   PR 7 NodeRestart under-declaration; its findings are written with
//!   `"seeded": true` and are *required* (the analyzer must keep catching the
//!   incident class it was built for).
//! * **Spec lint** — `lint_workspace` over `crates/*/src`; rows carry spec
//!   `"workspace"`.
//!
//! After the write the process asserts the acceptance bar on the rows it wrote
//! (every audit saw a transition, no unseeded soundness row, no convention row, the
//! seeded finding present), so a bare `cargo bench --bench analysis_soundness` fails
//! loudly.

use remix_analyze::{commute_oracle, effect_audit, lint_workspace, FindingClass};
use remix_checker::CorpusOptions;
use remix_core::json::JsonObject;
use remix_core::{AnalysisRow, Verifier};
use remix_zab::{underdeclare_node_restart, ClusterConfig, CodeVersion, SpecPreset};

fn main() {
    let config = ClusterConfig::small(CodeVersion::FinalFix).with_transactions(1);
    let audit_opts = CorpusOptions {
        max_states: 20_000,
        max_depth: 256,
    };
    let commute_opts = CorpusOptions {
        max_states: 4_000,
        max_depth: 64,
    };
    let verifier = Verifier::new(config);

    let mut rows: Vec<AnalysisRow> = Vec::new();
    let mut runs: Vec<String> = Vec::new();
    let mut unaudited: Vec<&str> = Vec::new();

    for &preset in SpecPreset::all() {
        let spec = preset.build(&config);
        let mut report = effect_audit(&spec, audit_opts);
        let audit_states = report.corpus_states;
        report.merge(commute_oracle(&spec, commute_opts));
        if report.audited_transitions == 0 {
            unaudited.push(preset.name());
        }
        for finding in &report.findings {
            rows.push(AnalysisRow::from_finding(preset.name(), finding, false));
        }
        runs.push(
            JsonObject::new()
                .string("spec", preset.name())
                .u128("audit_corpus_states", audit_states.into())
                .u128("audited_transitions", report.audited_transitions.into())
                .u128("diamonds_checked", report.diamonds_checked.into())
                .u128("soundness", report.soundness_count() as u128)
                .u128(
                    "precision",
                    report
                        .findings
                        .iter()
                        .filter(|f| f.class == FindingClass::Precision)
                        .count() as u128,
                )
                .finish(),
        );
        println!(
            "{}: {} transitions audited over {} states, {} diamonds, {} findings",
            preset.name(),
            report.audited_transitions,
            audit_states,
            report.diamonds_checked,
            report.findings.len()
        );
    }

    // The seeded regression: strip NodeRestart's channel bits and re-audit.  The
    // verifier's gate must refuse the spec, and the audit rows (written with
    // seeded: true) must name the action, a link field and the undeclared bit.
    let mut seeded = SpecPreset::MSpec3.build(&config);
    underdeclare_node_restart(&mut seeded);
    let gate = verifier.verify_spec_gated(
        seeded.clone(),
        &remix_core::VerifierOptions::default(),
        commute_opts,
    );
    assert!(
        matches!(gate, Err(remix_core::VerifyError::UnsoundFootprint { .. })),
        "the verifier gate must refuse the seeded under-declaration, got {gate:?}"
    );
    let seeded_report = effect_audit(&seeded, audit_opts);
    let seeded_hit = seeded_report.soundness().any(|f| {
        f.action == "NodeRestart"
            && f.field_path.starts_with("link[")
            && f.effect_bits.contains("channel[")
    });
    for finding in seeded_report.soundness() {
        rows.push(AnalysisRow::from_finding(
            "mSpec-3+seeded-NodeRestart",
            finding,
            true,
        ));
    }
    println!(
        "seeded regression: {} soundness finding(s), NodeRestart/link/channel hit: {seeded_hit}",
        seeded_report.soundness_count()
    );

    // Tier 3: the workspace source lint.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let lint = lint_workspace(std::path::Path::new(root));
    for finding in &lint.findings {
        rows.push(AnalysisRow::from_finding("workspace", finding, false));
    }
    println!("spec lint: {} finding(s)", lint.findings.len());

    let path = std::env::var("ANALYSIS_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_analysis.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        "{{\n  \"bench\": \"analysis_soundness\",\n  \"workload\": \"all Table 1 presets on FinalFix, small config with 1 transaction; effect audit over a BFS corpus bounded at {} states / depth {} (exhausts mSpec-3's 16,702 concrete states), commute oracle bounded at {} states / depth {}; plus the seeded NodeRestart under-declaration regression (seeded: true rows) and the crates/*/src spec lint (spec: workspace rows)\",\n  \"runs\": [\n{}\n  ],\n  \"rows\": [\n{}\n  ]\n}}\n",
        audit_opts.max_states,
        audit_opts.max_depth,
        commute_opts.max_states,
        commute_opts.max_depth,
        runs.join(",\n"),
        rows.iter()
            .map(AnalysisRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    println!("wrote {path}");

    assert!(
        unaudited.is_empty(),
        "the audit ran on an empty corpus for {unaudited:?}"
    );
    let unseeded: Vec<_> = rows
        .iter()
        .filter(|r| r.class == FindingClass::Soundness.as_str() && !r.seeded)
        .collect();
    assert!(
        unseeded.is_empty(),
        "soundness findings on the honest workspace: {unseeded:?}"
    );
    let convention: Vec<_> = rows
        .iter()
        .filter(|r| r.class == FindingClass::Convention.as_str())
        .collect();
    assert!(
        convention.is_empty(),
        "spec lint findings reached the artefact: {convention:?}"
    );
    assert!(
        seeded_hit,
        "the seeded NodeRestart under-declaration was not reproduced"
    );
}

//! Spec soundness analyzer: effect audits, commute oracles and source lints.
//!
//! Declared [`Effect`](remix_spec::Effect) footprints are the soundness linchpin of
//! sleep-set partial-order reduction: an under-declared footprint makes the checker
//! silently drop states (the `NodeRestart` incident of PR 7 lost 12,565 of 16,702
//! states).  This crate turns that one-off lesson into a reusable, spec-generic
//! analysis subsystem with three tiers:
//!
//! 1. **Effect audit** ([`audit`]) — walk a bounded BFS corpus, diff parent/child
//!    per-field hashes ([`StateFields`]) for every enabled
//!    instance, and report observed writes outside the declared footprint as
//!    **soundness** findings (plus declared-but-never-observed bits as **precision**
//!    warnings with an estimate of lost pruning).
//! 2. **Commute oracle** ([`commute`]) — for every co-enabled pair declared
//!    independent, close the commute + never-disable diamond over the corpus, for any
//!    [`Spec`].
//! 3. **Spec lint** ([`lint`]) — a self-contained source scan of `crates/*/src`
//!    enforcing the workspace conventions that keep declarations honest.
//!
//! The concurrency-soundness pass adds a fourth tier aimed at the *engine* rather
//! than the specs it checks:
//!
//! 4. **Concurrency analysis** ([`concurrency`] + [`schedule`]) — a source lint
//!    keeping every synchronization primitive on the instrumented
//!    `remix_checker::sync` layer (with justified memory orderings and lock-free
//!    successor callbacks), and a schedule-perturbation oracle that re-runs
//!    workloads under seeded yield injection and reports any divergence from the
//!    deterministic baseline.  Lock order needs no tier: the store's two nesting
//!    locks can only be taken in one order (see `remix_checker::store`).
//!
//! `remix-core` wires tiers 1 and 2 into the `Verifier` as a pre-check gate
//! (`Verifier::analyze_*`); the `remix-lint` binary in `remix-bench` drives tiers 3
//! and 4's source lints; CI fails on any soundness- or convention-class finding via
//! `BENCH_analysis.json` and `BENCH_concurrency.json`.

#![warn(missing_docs)]

pub mod audit;
pub mod commute;
pub mod concurrency;
pub mod finding;
pub mod lint;
pub mod schedule;
mod source;

pub use audit::{effect_audit, effect_audit_corpus};
pub use commute::{commute_oracle, commute_oracle_corpus};
pub use concurrency::lint_concurrency;
pub use finding::{AnalysisReport, Finding, FindingClass, Tier};
pub use lint::lint_workspace;
pub use schedule::{schedule_oracle, RunSignature, ScheduleOracleOptions};

use remix_checker::{corpus, CorpusOptions};
use remix_spec::{Spec, SpecState, StateFields};

/// Runs the two semantic tiers (effect audit + commute oracle) over one shared
/// bounded corpus of `spec` and merges their findings.
pub fn analyze_spec<S>(spec: &Spec<S>, opts: CorpusOptions) -> AnalysisReport
where
    S: SpecState + StateFields,
{
    let states = corpus(spec, opts);
    let mut report = effect_audit_corpus(spec, &states);
    report.merge(commute_oracle_corpus(spec, &states));
    report
}

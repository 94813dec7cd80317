//! The traced pass: one workload, tracing on, the harness itself driving each layer's
//! public functions with a span around every call.
//!
//! Every workload runs a cold rep and a warm rep with a span per case, then its own
//! probes: the reference level loop (spans on and off) for the exhaustive workloads,
//! and the micro-loops named in the README's layer table for the others.  A metric a
//! workload does not exercise is simply not measured there; the result line reads it
//! as 0.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use remix_analyze::{commute_oracle_corpus, effect_audit_corpus};
use remix_checker::{check_dfs, corpus, simulate, CheckOptions, CorpusOptions, SymmetryMode};
use remix_core::{Composer, ConformanceReport};
use remix_spec::Spec;
use remix_zab::{projection_between, ClusterConfig, CodeVersion, SpecPreset, ZabState};

use crate::expected::{check, expectation};
use crate::options;
use crate::reference::{
    reference_loop, ReferenceRun, CANONICALIZE, CLONE, ENUMERATE, FINGERPRINT, INSERT, INVARIANTS,
};
use crate::report::{cpu_seconds, minor_faults, peak_rss_mib};
use crate::trace::{SpanId, Tracer, ROOT};
use crate::workloads::{
    bookkeeping_config, fine_config, observe_check, refine_heavy_case, Case, CaseRun, Prepared,
    Rep, Size, Tally, Workload,
};

/// What the traced pass of one workload measured.
#[derive(Default)]
pub struct TracedPass {
    /// `(metric, value)` for every per-layer metric this workload exercises.
    pub metrics: Vec<(&'static str, f64)>,
    /// Case runs and oracle comparisons checked.
    pub tally: Tally,
}

impl TracedPass {
    fn set(&mut self, metric: &'static str, value: f64) {
        self.metrics.push((metric, value));
    }
}

/// Seconds `f` takes, with a span around it.
fn timed<T>(
    tracer: &mut Tracer,
    parent: SpanId,
    layer: &'static str,
    name: &str,
    f: impl FnOnce() -> T,
) -> (f64, T) {
    let span = tracer.open(parent, layer, name);
    let start = Instant::now();
    let out = f();
    let seconds = start.elapsed().as_secs_f64();
    tracer.close(span);
    (seconds, out)
}

/// Runs the traced pass of `workload`.  `process_start` is when `main` began, so the
/// start-up number covers set-up and the cold rep.
pub fn traced_pass(
    workload: Workload,
    size: Size,
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
    process_start: Instant,
) -> TracedPass {
    let mut pass = TracedPass::default();
    let root = tracer.open(ROOT, "workload", workload.name());
    let prepared = Prepared::new(workload, size, seed, scratch);

    let cold_span = tracer.open(root, "rep", "cold");
    let cold = prepared.rep(tracer, cold_span);
    tracer.close(cold_span);
    pass.tally.check(&prepared, &cold, None);
    pass.set("process.startup_s", process_start.elapsed().as_secs_f64());

    let (cpu_before, faults_before) = (cpu_seconds(), minor_faults());
    let warm_span = tracer.open(root, "rep", "warm");
    let warm = prepared.rep(tracer, warm_span);
    tracer.close(warm_span);
    let (cpu_after, faults_after) = (cpu_seconds(), minor_faults());
    pass.tally.check(&prepared, &warm, Some(&cold));
    pass.set("process.cold_rep_s", cold.seconds);
    pass.set("process.cold_penalty_ratio", cold.seconds / warm.seconds);
    pass.set("process.cpu_s", cpu_after - cpu_before);
    pass.set(
        "process.minor_faults",
        (faults_after - faults_before) as f64,
    );

    match workload {
        Workload::BugHunt => bug_hunt_layers(&mut pass, &warm),
        Workload::Refine => refine_layers(&mut pass, &prepared, &warm, scratch, tracer, root),
        Workload::SampleConform => sample_layers(&mut pass, &prepared, &warm, tracer, root),
        Workload::ExhaustFine
        | Workload::ExhaustElection
        | Workload::ExhaustReduced
        | Workload::ExhaustOutOfCore => {
            exhaustive_layers(&mut pass, &prepared, &warm, tracer, root)
        }
    }
    setup_layers(&mut pass, size, tracer, root);

    tracer.close(root);
    pass.set("trace.spans", tracer.len() as f64);
    pass
}

/// The run of the case named `case` (the smoke form of a workload may lack it).
fn case<'a>(rep: &'a Rep, case: &str) -> Option<&'a CaseRun> {
    rep.cases.iter().find(|c| c.name == case)
}

fn case_seconds(rep: &Rep, name: &str) -> f64 {
    case(rep, name).map_or(0.0, |c| c.seconds)
}

/// The layers under `check_bfs`, split by the reference level loop.
fn exhaustive_layers(
    pass: &mut TracedPass,
    prepared: &Prepared,
    warm: &Rep,
    tracer: &mut Tracer,
    root: SpanId,
) {
    let Case::Exhaust { spec, options } = &prepared.cases[0].1 else {
        panic!("exhaustive workloads hold one exhaust case");
    };
    let engine = &warm.cases[0];
    let observed = &engine.observed;
    let states = observed.count("distinct_states");
    let transitions = observed.count("transitions");
    let pruned = observed.count("pruned_transitions");
    pass.set("bfs.distinct_states", states as f64);
    pass.set("bfs.transitions", transitions as f64);
    pass.set("bfs.max_depth", observed.count("max_depth") as f64);
    pass.set("bfs.transitions_per_s", transitions as f64 / engine.seconds);
    pass.set("bfs.engine_elapsed_s", engine.engine_seconds);
    pass.set("bfs.unaccounted_s", engine.seconds - engine.engine_seconds);
    pass.set(
        "store.entry_bytes_per_state",
        observed.count("entry_bytes_per_state") as f64,
    );
    pass.set(
        "process.rss_bytes_per_state",
        peak_rss_mib() * 1024.0 * 1024.0 / states as f64,
    );
    if options.por {
        pass.set("por.pruned_transitions", pruned as f64);
        pass.set(
            "por.reduction_factor",
            (transitions + pruned) as f64 / transitions as f64,
        );
    }
    if options.spill.is_active() {
        pass.set("store.spill_bytes", observed.count("bytes_spilled") as f64);
        pass.set("store.spill_runs", observed.count("runs_spilled") as f64);
        pass.set(
            "store.spill_probes_per_edge",
            observed.count("disk_probes") as f64 / transitions as f64,
        );
    }

    let span = tracer.open(root, "reference", "spans on");
    let traced = reference_loop(spec, options, tracer, span);
    tracer.close(span);
    let plain = reference_loop(spec, options, &mut Tracer::new(false), ROOT);
    for run in [&traced, &plain] {
        // Canonical spaces are not level-for-level the concrete ones, and the engine's
        // incremental canonical form may order them differently: depth is held only
        // where both loops walk concrete states.
        let depth_agrees = options.symmetry == SymmetryMode::Canonicalize
            || run.max_depth as u64 == observed.count("max_depth");
        pass.tally.expect(
            run.distinct_states == states
                && run.transitions == transitions + pruned
                && run.violations == 0
                && depth_agrees,
            || {
                format!(
                    "{}: the reference loop reached {run:?}, check_bfs {:?}",
                    prepared.workload.name(),
                    observed.counts
                )
            },
        );
    }
    reference_layers(pass, &traced, &plain, engine.seconds);

    if options.symmetry == SymmetryMode::Canonicalize {
        // Canonical over concrete states: the concrete count is exhaust-fine's pin.
        let concrete = expectation("exhaust-fine", "mSpec-3", prepared.size)
            .pinned("distinct_states")
            .expect("exhaust-fine pins its state count");
        pass.set("zab.symmetry_state_ratio", states as f64 / concrete as f64);
    }
    if prepared.workload == Workload::ExhaustElection {
        election_extras(pass, spec, options, states, engine.seconds, tracer, root);
    }
}

/// Shares and unit costs from a traced and an untraced run of the reference loop.
fn reference_layers(
    pass: &mut TracedPass,
    traced: &ReferenceRun,
    plain: &ReferenceRun,
    verdict_seconds: f64,
) {
    let busy = &traced.busy;
    // The clone probe is extra work the untraced loop does not do: keep it out of the
    // denominators.
    let loop_ns = traced.loop_seconds * 1e9 - busy[CLONE].ns as f64;
    let per_call = |call: usize| busy[call].ns as f64 / busy[call].calls as f64;
    let share = |call: usize| busy[call].ns as f64 / loop_ns;
    pass.set(
        "spec.enumerate_ns_per_edge",
        busy[ENUMERATE].ns as f64 / traced.transitions as f64,
    );
    pass.set("spec.enumerate_share", share(ENUMERATE));
    pass.set(
        "spec.edges_per_state",
        traced.transitions as f64 / traced.distinct_states as f64,
    );
    pass.set("spec.invariants_ns_per_state", per_call(INVARIANTS));
    pass.set("spec.invariants_share", share(INVARIANTS));
    if busy[CLONE].calls > 0 {
        pass.set("zab.clone_ns_per_state", per_call(CLONE));
    }
    if busy[CANONICALIZE].calls > 0 {
        pass.set("zab.canonicalize_ns_per_state", per_call(CANONICALIZE));
        pass.set("zab.canonicalize_share", share(CANONICALIZE));
    }
    pass.set("fingerprint.ns_per_state", per_call(FINGERPRINT));
    pass.set("fingerprint.share", share(FINGERPRINT));
    pass.set("store.insert_ns_per_edge", per_call(INSERT));
    pass.set("store.insert_share", share(INSERT));
    pass.set(
        "store.fresh_ratio",
        traced.distinct_states as f64 / busy[INSERT].calls as f64,
    );
    pass.set("store.teardown_s", plain.teardown_seconds);
    let reference_seconds = plain.loop_seconds + plain.teardown_seconds;
    pass.set("bfs.reference_loop_s", reference_seconds);
    pass.set(
        "bfs.engine_overhead_share",
        (verdict_seconds - reference_seconds) / verdict_seconds,
    );
    pass.set(
        "trace.overhead_share",
        (loop_ns / 1e9 - plain.loop_seconds) / plain.loop_seconds,
    );
}

/// The two numbers only the election space gives: the second engine on the same
/// space, and what symmetry does to a space it does not shrink.
fn election_extras(
    pass: &mut TracedPass,
    spec: &Spec<ZabState>,
    options: &CheckOptions,
    states: u64,
    bfs_seconds: f64,
    tracer: &mut Tracer,
    root: SpanId,
) {
    let (dfs_seconds, dfs) = timed(tracer, root, "dfs", "check_dfs", || {
        let outcome = check_dfs(spec, options);
        observe_check(&outcome)
    });
    pass.tally.expect(
        dfs.verdict == "passes; state space exhausted" && dfs.count("distinct_states") == states,
        || format!("exhaust-election: check_dfs disagrees with check_bfs: {dfs:?}"),
    );
    pass.set("dfs.verdict_s", dfs_seconds);
    pass.set("dfs.vs_bfs_ratio", dfs_seconds / bfs_seconds);

    let canonical = CheckOptions {
        symmetry: SymmetryMode::Canonicalize,
        ..options.clone()
    };
    let span = tracer.open(root, "reference", "canonical");
    let run = reference_loop(spec, &canonical, &mut Tracer::new(false), ROOT);
    tracer.close(span);
    pass.set(
        "zab.symmetry_state_ratio",
        run.distinct_states as f64 / states as f64,
    );
}

fn bug_hunt_layers(pass: &mut TracedPass, warm: &Rep) {
    for (name, metric) in [
        ("zk4394", "bughunt.zk4394_s"),
        ("zk3023", "bughunt.zk3023_s"),
        ("zk4685", "bughunt.zk4685_s"),
    ] {
        pass.set(metric, case_seconds(warm, name));
    }
    let states: u64 = warm
        .cases
        .iter()
        .map(|c| c.observed.count("distinct_states"))
        .sum();
    pass.set("bughunt.states_at_violation", states as f64);
}

fn refine_layers(
    pass: &mut TracedPass,
    prepared: &Prepared,
    warm: &Rep,
    scratch: &Path,
    tracer: &mut Tracer,
    root: SpanId,
) {
    let explore_bound = case_seconds(warm, "explore-bound");
    pass.set("refine.explore_bound_s", explore_bound);
    pass.set(
        "refine.bookkeeping_bound_s",
        case_seconds(warm, "bookkeeping-bound"),
    );

    // The pathology pair, once.
    let (size, seed) = (prepared.size, prepared.seed);
    let (name, case) = refine_heavy_case(size);
    let span = tracer.open(root, "case", name);
    let heavy = case.run(name);
    tracer.close(span);
    let row = expectation(Workload::Refine.name(), name, size);
    let mismatches = check(row, seed, &heavy.observed, None);
    pass.tally.expect(mismatches.is_empty(), || {
        format!("refine/{name}: {}", mismatches.join("; "))
    });
    let explored = heavy.observed.count("fine_states") + heavy.observed.count("coarse_states");
    pass.set("refine.bookkeeping_heavy_s", heavy.seconds);
    pass.set("refine.states_per_s", explored as f64 / heavy.seconds);
    pass.set(
        "refine.edges_checked",
        heavy.observed.count("edges_checked") as f64,
    );
    pass.set(
        "refine.projections",
        heavy.observed.count("fine_projections") as f64,
    );

    // Plain BFS over the SysSpec space the exploration-bound pair walks.
    let election = Prepared::new(Workload::ExhaustElection, size, seed, scratch);
    let span = tracer.open(root, "rep", "exhaust-election");
    let bfs = election.rep(tracer, span);
    tracer.close(span);
    pass.tally.check(&election, &bfs, None);
    pass.set("refine.vs_bfs_ratio", explore_bound / bfs.seconds);

    // The projection the bookkeeping-bound pair pays per state.
    let config = bookkeeping_config(size);
    let fine = SpecPreset::MSpec2.build(&config);
    let projection = projection_between(
        &SpecPreset::MSpec2.plan(),
        &SpecPreset::MSpec1.plan(),
        &config,
    )
    .expect("mSpec-2 and mSpec-1 form a refinement pair");
    let states = corpus(&fine, CorpusOptions::default());
    let (seconds, ()) = timed(tracer, root, "zab", "project_state", || {
        for state in &states {
            black_box(projection.project_state(state));
        }
    });
    pass.set(
        "zab.project_ns_per_state",
        seconds * 1e9 / states.len() as f64,
    );
}

fn sample_layers(
    pass: &mut TracedPass,
    prepared: &Prepared,
    warm: &Rep,
    tracer: &mut Tracer,
    root: SpanId,
) {
    let steps_per_second = |name: &str| -> f64 {
        case(warm, name).map_or(0.0, |c| c.observed.count("steps") as f64 / c.seconds)
    };
    let (uniform, guided) = (
        steps_per_second("explore-uniform"),
        steps_per_second("explore-guided"),
    );
    pass.set("explore.uniform_steps_per_s", uniform);
    pass.set("explore.guided_steps_per_s", guided);
    pass.set("explore.guided_overhead_ratio", uniform / guided);
    pass.set(
        "explore.distinct_prefixes",
        case(warm, "explore-guided").map_or(0, |c| c.observed.count("distinct_prefixes")) as f64,
    );
    pass.set("conform.check_steps_per_s", steps_per_second("conformance"));

    let [(
        _,
        Case::Explore {
            spec: sampled,
            options: explore_options,
        },
    ), _, (
        _,
        Case::Conform {
            spec: conform_spec,
            checker,
            options: conform_options,
        },
    )] = &prepared.cases[..]
    else {
        panic!("sample-conform holds two explore cases and one conformance case");
    };

    // `simulate` over the uniform explore budget.
    let budget = options::simulation_options(
        explore_options.seed,
        explore_options.traces,
        explore_options.max_depth,
    );
    let (seconds, steps) = timed(tracer, root, "simulate", "simulate", || {
        simulate(sampled, &budget)
            .iter()
            .map(|t| t.depth())
            .sum::<usize>()
    });
    pass.set("simulate.steps_per_s", steps as f64 / seconds);

    // Replay alone, over traces sampled beforehand with the conformance budget.
    let traces = simulate(
        conform_spec,
        &options::simulation_options(
            conform_options.seed,
            conform_options.traces,
            conform_options.max_depth,
        ),
    );
    let (seconds, report) = timed(tracer, root, "zksim", "replay_trace", || {
        let mut report = ConformanceReport::default();
        for (index, trace) in traces.iter().enumerate() {
            checker.replay_trace(index, trace, &mut report);
        }
        report
    });
    pass.set(
        "zksim.replay_steps_per_s",
        report.steps_replayed as f64 / seconds,
    );
    pass.set("zksim.discrepancies", report.discrepancies.len() as f64);
    pass.set(
        "conform.sample_share",
        1.0 - seconds / case_seconds(warm, "conformance"),
    );

    // `Spec::successors`, the Vec-building enumeration the samplers and refinement use.
    let fine = SpecPreset::MSpec3.build(&fine_config(prepared.size));
    let states = corpus(&fine, CorpusOptions::default());
    let (seconds, edges) = timed(tracer, root, "spec", "successors", || {
        states
            .iter()
            .map(|s| black_box(fine.successors(s)).len())
            .sum::<usize>()
    });
    pass.set(
        "spec.successors_vec_ns_per_edge",
        seconds * 1e9 / edges as f64,
    );
}

/// What set-up is made of, on every workload: composition, and the analysis gate no
/// workload runs.
fn setup_layers(pass: &mut TracedPass, size: Size, tracer: &mut Tracer, root: SpanId) {
    let composer = Composer::new(ClusterConfig::small(CodeVersion::V391));
    let (seconds, ()) = timed(tracer, root, "core", "compose_preset x5", || {
        for preset in SpecPreset::all() {
            black_box(composer.compose_preset(*preset).expect("preset composes"));
        }
    });
    pass.set("core.compose_ms", seconds * 1e3);

    let spec = SpecPreset::MSpec3.build(&fine_config(size));
    let max_states = match size {
        Size::Full => 5_000,
        Size::Smoke => 100,
    };
    let states = corpus(
        &spec,
        CorpusOptions {
            max_states,
            max_depth: 64,
        },
    );
    let (seconds, sound) = timed(tracer, root, "analyze", "gate", || {
        let mut report = effect_audit_corpus(&spec, &states);
        report.merge(commute_oracle_corpus(&spec, &states));
        !report.has_soundness()
    });
    pass.tally.expect(sound, || {
        "the analysis gate reports a soundness finding on mSpec-3".to_owned()
    });
    pass.set("analyze.gate_s", seconds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Busy;
    use crate::schema::{DEFAULT_SEED, PER_LAYER};
    use crate::workloads::tests::scratch;

    /// The whole traced pass at smoke size: nothing fails, only schema metrics are
    /// reported, and between them the seven workloads measure every per-layer metric.
    #[test]
    fn smoke_traced_passes_cover_the_per_layer_schema() {
        let dir = scratch("layers");
        let mut measured = std::collections::BTreeSet::new();
        for workload in Workload::ALL {
            let mut tracer = Tracer::new(true);
            let pass = traced_pass(
                workload,
                Size::Smoke,
                DEFAULT_SEED,
                &dir,
                &mut tracer,
                Instant::now(),
            );
            assert_eq!(
                pass.tally.failures,
                Vec::<String>::new(),
                "{}",
                workload.name()
            );
            assert!(pass.tally.attempted > 2, "two reps and the gate at least");
            for (name, value) in &pass.metrics {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == *name),
                    "{name} is not a per-layer metric"
                );
                assert!(value.is_finite(), "{name} = {value}");
                measured.insert(*name);
            }
            let path = dir.join(format!("trace-{}.json", workload.name()));
            tracer.write_json(&path).expect("writing the span file");
            let text = std::fs::read_to_string(&path).expect("reading the span file back");
            assert!(text.starts_with("[\n") && text.ends_with("]\n"));
            assert_eq!(text.lines().count(), tracer.len() + 2);
        }
        let unmeasured: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|name| !measured.contains(name))
            .collect();
        assert_eq!(unmeasured, Vec::<&str>::new());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shares_are_taken_over_the_loop_without_the_clone_probe() {
        let mut busy = [Busy::default(); 6];
        busy[ENUMERATE] = Busy { ns: 400, calls: 10 };
        busy[INVARIANTS] = Busy { ns: 50, calls: 10 };
        busy[CLONE] = Busy { ns: 500, calls: 10 };
        busy[FINGERPRINT] = Busy { ns: 150, calls: 30 };
        busy[INSERT] = Busy { ns: 300, calls: 30 };
        let run = |loop_seconds: f64, busy| ReferenceRun {
            distinct_states: 10,
            transitions: 29,
            max_depth: 3,
            violations: 0,
            loop_seconds,
            teardown_seconds: 100e-9,
            busy,
        };
        let traced = run(1500e-9, busy);
        let plain = run(800e-9, [Busy::default(); 6]);
        let mut pass = TracedPass::default();
        reference_layers(&mut pass, &traced, &plain, 1200e-9);
        let metric = |name: &str| -> f64 {
            pass.metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} not measured"))
                .1
        };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(metric("spec.enumerate_share"), 0.4));
        assert!(close(metric("store.insert_ns_per_edge"), 10.0));
        assert!(close(metric("zab.clone_ns_per_state"), 50.0));
        assert!(close(metric("store.fresh_ratio"), 10.0 / 30.0));
        assert!(close(metric("bfs.reference_loop_s"), 900e-9));
        assert!(close(metric("bfs.engine_overhead_share"), 0.25));
        assert!(close(metric("trace.overhead_share"), 0.25));
        assert!(!pass
            .metrics
            .iter()
            .any(|(n, _)| n.starts_with("zab.canonicalize")));
    }
}

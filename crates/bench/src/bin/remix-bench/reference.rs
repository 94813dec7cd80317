//! The reference level loop: breadth-first exhaustion written only from public
//! primitives, with a clock around each call into a layer.
//!
//! `Spec::violated_invariants` → `Spec::for_each_successor` into a buffer →
//! (`Spec::symmetry` when the workload canonicalizes) → `fingerprint` →
//! `StateStore::lock_shard(shard_of(fp)).insert` → next frontier.  It shares no code
//! with `bfs::level_loop`, so reaching the engine's `distinct_states` and
//! `transitions` makes it the independent oracle for the count pins of `expected.rs`,
//! and the per-layer sums say where a level's wall-clock went.  Sleep-set POR is
//! `pub(crate)` in the checker, so the loop never prunes: on a POR workload it
//! generates the engine's `transitions + pruned_transitions` edges.
//!
//! Successors are buffered and inserted after the enumeration closure returns: the
//! `no-lock-in-successor-callback` rule of `remix-lint` applies here too.

use std::hint::black_box;
use std::time::Instant;

use remix_checker::store::Insert;
use remix_checker::{fingerprint, CheckOptions, StateIndex, StateStore, StoreMode, SymmetryMode};
use remix_spec::{LabelId, LabelTable, Spec, SpecState};

use crate::trace::{SpanId, Tracer};

/// The calls the loop clocks, as `(layer, call)`; indices are the constants below.
pub const CALLS: [(&str, &str); 6] = [
    ("spec", "violated_invariants"),
    ("spec", "for_each_successor"),
    ("zab", "clone"),
    ("zab", "canonicalize"),
    ("fingerprint", "fingerprint"),
    ("store", "insert"),
];
pub const INVARIANTS: usize = 0;
pub const ENUMERATE: usize = 1;
pub const CLONE: usize = 2;
pub const CANONICALIZE: usize = 3;
pub const FINGERPRINT: usize = 4;
pub const INSERT: usize = 5;

/// Time and call count of one clocked call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub ns: u64,
    pub calls: u64,
}

/// What one run of the loop found and where its time went.
#[derive(Debug)]
pub struct ReferenceRun {
    pub distinct_states: u64,
    pub transitions: u64,
    pub max_depth: u32,
    pub violations: u64,
    /// The level loop, store still alive.
    pub loop_seconds: f64,
    /// Dropping the last frontier and the store.
    pub teardown_seconds: f64,
    /// Per-call totals, indexed like [`CALLS`]; all zero when the run was not traced.
    pub busy: [Busy; CALLS.len()],
}

/// Sums clocked calls for the level in flight; a no-op when `on` is false.
struct LayerClock {
    on: bool,
    level: [Busy; CALLS.len()],
}

impl LayerClock {
    #[inline]
    fn time<T>(&mut self, call: usize, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.level[call].ns += start.elapsed().as_nanos() as u64;
        self.level[call].calls += 1;
        out
    }
}

/// Exhausts `spec` under the store mode, symmetry mode and spill configuration of
/// `options` (the other fields belong to the engine).  With an enabled `tracer`, every
/// level becomes a span under `parent` with one summed record per clocked call.
pub fn reference_loop<S: SpecState>(
    spec: &Spec<S>,
    options: &CheckOptions,
    tracer: &mut Tracer,
    parent: SpanId,
) -> ReferenceRun {
    let started = Instant::now();
    let labels = LabelTable::new();
    let store: StateStore<S> =
        StateStore::with_spill(options.store_mode, options.shards, &options.spill);
    let canon = match options.symmetry {
        SymmetryMode::Canonicalize => spec.symmetry.as_ref(),
        SymmetryMode::Off => None,
    };
    let mut clock = LayerClock {
        on: tracer.enabled(),
        level: [Busy::default(); CALLS.len()],
    };
    let mut busy = [Busy::default(); CALLS.len()];
    let clone_probe = clock.on && options.store_mode == StoreMode::Full;

    let insert = |clock: &mut LayerClock,
                  source: Option<StateIndex>,
                  label: LabelId,
                  state: S|
     -> Option<(StateIndex, S)> {
        let (state, perm) = match canon {
            Some(canon) => {
                let (canonical, perm) = clock.time(CANONICALIZE, || canon(&state));
                (canonical, Some(perm))
            }
            None => (state, None),
        };
        let fp = clock.time(FINGERPRINT, || fingerprint(&state));
        let inserted = clock.time(INSERT, || {
            let mut shard = store.lock_shard(store.shard_of(fp));
            match perm {
                Some(perm) => shard.insert_canonical(fp, source, label, state, perm),
                None => shard.insert(fp, source, label, state),
            }
        });
        match inserted {
            Insert::Fresh(index, state) => Some((index, state)),
            Insert::Existing(..) => None,
        }
    };

    let mut frontier: Vec<(StateIndex, S)> = spec
        .init
        .iter()
        .filter_map(|init| insert(&mut clock, None, LabelTable::init_id(), init.clone()))
        .collect();
    let mut transitions = 0u64;
    let mut violations = 0u64;
    let mut depth = 0u32;
    let mut buffer: Vec<(LabelId, S)> = Vec::new();
    while !frontier.is_empty() {
        let level_span = tracer.open(parent, "bfs", &format!("level {depth}"));
        let level_start_ns = tracer.now_ns();
        let mut next: Vec<(StateIndex, S)> = Vec::new();
        for (index, state) in &frontier {
            violations += clock.time(INVARIANTS, || spec.violated_invariants(state).len()) as u64;
            clock.time(ENUMERATE, || {
                spec.for_each_successor(state, &labels, |label, successor, _effect| {
                    buffer.push((label, successor));
                })
            });
            if clone_probe {
                // What a fresh insert pays in the full-state store, clocked on its own.
                clock.time(CLONE, || drop(black_box(state.clone())));
            }
            for (label, successor) in buffer.drain(..) {
                transitions += 1;
                next.extend(insert(&mut clock, Some(*index), label, successor));
            }
        }
        for (call, level) in clock.level.iter_mut().enumerate() {
            if level.calls > 0 {
                let (layer, name) = CALLS[call];
                tracer.record(
                    level_span,
                    layer,
                    name,
                    level_start_ns,
                    level.ns,
                    level.calls,
                );
            }
            busy[call].ns += level.ns;
            busy[call].calls += level.calls;
            *level = Busy::default();
        }
        tracer.close(level_span);
        if !next.is_empty() {
            depth += 1;
        }
        frontier = next;
    }
    let loop_seconds = started.elapsed().as_secs_f64();
    let distinct_states = store.len() as u64;
    let teardown = Instant::now();
    drop(frontier);
    drop(store);
    ReferenceRun {
        distinct_states,
        transitions,
        max_depth: depth,
        violations,
        loop_seconds,
        teardown_seconds: teardown.elapsed().as_secs_f64(),
        busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ROOT;
    use crate::workloads::tests::scratch;
    use crate::workloads::{Case, Prepared, Size, Workload};

    /// The oracle property: on every exhaustive workload the loop reaches exactly the
    /// engine's state count, and its edge count once pruned edges are added back.
    #[test]
    fn reference_loop_reaches_the_engine_counts() {
        let dir = scratch("reference");
        let mut shadowed = 0;
        for workload in Workload::ALL {
            let prepared = Prepared::new(workload, Size::Smoke, 0, &dir);
            let Case::Exhaust { spec, options } = &prepared.cases[0].1 else {
                continue;
            };
            shadowed += 1;
            let engine = prepared.rep(&mut Tracer::new(false), ROOT);
            assert_eq!(prepared.failed_cases(&engine, None), Vec::<String>::new());
            let observed = &engine.cases[0].observed;
            let mut tracer = Tracer::new(true);
            let traced = reference_loop(spec, options, &mut tracer, ROOT);
            let plain = reference_loop(spec, options, &mut Tracer::new(false), ROOT);
            for run in [&traced, &plain] {
                assert_eq!(run.distinct_states, observed.count("distinct_states"));
                assert_eq!(
                    run.transitions,
                    observed.count("transitions") + observed.count("pruned_transitions")
                );
                assert_eq!(run.violations, 0);
            }
            if options.symmetry == SymmetryMode::Off {
                assert_eq!(traced.max_depth as u64, observed.count("max_depth"));
            }
            // One span per level, one record per clocked call that ran in it.
            assert!(tracer.len() > traced.max_depth as usize);
            assert_eq!(traced.busy[INSERT].calls, traced.transitions + 1);
            assert_eq!(traced.busy[ENUMERATE].calls, traced.distinct_states);
            assert_eq!(plain.busy[INSERT].calls, 0);
        }
        assert_eq!(shadowed, 4, "the four exhaust-* workloads");

        // The smoke space fits the out-of-core workload's budget; shrink the budget to
        // the store's floor of 8 entries per stripe so both loops really spill.
        let prepared = Prepared::new(Workload::ExhaustOutOfCore, Size::Smoke, 0, &dir);
        let Case::Exhaust { spec, options } = &prepared.cases[0].1 else {
            panic!("exhaustive workloads hold one exhaust case");
        };
        let tiny = CheckOptions {
            spill: crate::options::spill_under(1 << 10, &dir),
            ..options.clone()
        };
        let engine = crate::workloads::observe_check(&remix_checker::check_bfs(spec, &tiny));
        let reference = reference_loop(spec, &tiny, &mut Tracer::new(false), ROOT);
        assert!(engine.count("bytes_spilled") > 0);
        assert_eq!(reference.distinct_states, engine.count("distinct_states"));
        assert_eq!(reference.transitions, engine.count("transitions"));
        let _ = std::fs::remove_dir_all(dir);
    }
}

//! Bounded breadth-first state corpora for analysis passes.
//!
//! The `remix-analyze` passes (effect audit, commute oracle) need a representative,
//! deterministic sample of reachable states to observe transitions on.  [`corpus`] is a
//! run of the level-synchronous kernel (the private `kernel` module) with a collecting
//! visitor: one worker, a one-stripe [`StoreMode::Full`] store deduplicating on full
//! states, and the successor pipeline with both reductions off — no symmetry, no
//! partial-order reduction, no invariant checking.  The reductions are exactly what the
//! analyses are auditing, so the corpus must be built without them.

use std::ops::ControlFlow;

use remix_spec::{LabelTable, Spec, SpecState};

use crate::expand::Pipeline;
use crate::kernel::{self, Arrival, LevelEnd, Run, Visitor};
use crate::outcome::StopReason;
use crate::stop::{StopCell, STOP_STATE_LIMIT};
use crate::store::{StateIndex, StateStore, StoreMode};

/// Bounds for [`corpus`]: both limits apply, whichever is hit first.
#[derive(Debug, Clone, Copy)]
pub struct CorpusOptions {
    /// Maximum number of distinct states collected (initial states included).
    pub max_states: usize,
    /// Maximum BFS depth expanded (initial states are depth 0).
    pub max_depth: usize,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            max_states: 20_000,
            max_depth: 64,
        }
    }
}

/// The kernel visitor behind [`corpus`]: keeps a copy of every fresh state and asks
/// for a stop once the store holds `max_states`.
struct Collector<'a, S> {
    store: &'a StateStore<S>,
    stop: &'a StopCell,
    max_states: usize,
    states: Vec<S>,
}

impl<S: SpecState> Visitor<S> for Collector<'_, S> {
    type Local = Vec<S>;

    fn on_fresh(&self, local: &mut Self::Local, _at: Arrival, state: &S) -> bool {
        local.push(state.clone());
        if self.store.len() >= self.max_states {
            self.stop.request(STOP_STATE_LIMIT);
        }
        true
    }

    fn on_level_end(
        &mut self,
        locals: Vec<Self::Local>,
        _end: LevelEnd,
        _requeue: &mut Vec<StateIndex>,
    ) -> ControlFlow<StopReason> {
        self.states.extend(locals.into_iter().flatten());
        ControlFlow::Continue(())
    }
}

/// Collects a deterministic, deduplicated corpus of reachable states by bounded BFS.
///
/// States are returned in discovery order (level by level, enumeration order within a
/// level), so the corpus is a function of the specification and the bounds alone.
/// Reductions (symmetry, sleep sets) are intentionally not applied: analysis passes
/// audit the declarations those reductions rely on.
pub fn corpus<S: SpecState>(spec: &Spec<S>, opts: CorpusOptions) -> Vec<S> {
    let labels = LabelTable::new();
    let store: StateStore<S> = StateStore::new(StoreMode::Full, 1);
    let stop = StopCell::new();
    let pipeline = Pipeline::new(spec, &labels, false, false);
    // One worker stops at the state that asked, so the cap is exact past the initial
    // states, which are all seeded before any stop is looked at.
    let explored = kernel::explore(
        Run {
            pipeline: &pipeline,
            store: &store,
            stop: &stop,
            workers: 1,
            max_depth: u32::try_from(opts.max_depth).ok(),
            deadline: None,
        },
        Collector {
            store: &store,
            stop: &stop,
            max_states: opts.max_states,
            states: Vec::new(),
        },
    );
    let mut states = explored.visitor.states;
    states.truncate(opts.max_states);
    states
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashSet;

    use remix_spec::{ActionDef, Granularity, ModuleId, ModuleSpec, SpecState};
    use remix_zab::{ClusterConfig, CodeVersion, SpecPreset};

    /// The plain breadth-first walk `corpus` was before it ran on the kernel, kept as
    /// its oracle: dedup on full states, levels in enumeration order, the state cap
    /// checked before every insert.
    fn reference_corpus<S: SpecState>(spec: &Spec<S>, opts: CorpusOptions) -> Vec<S> {
        let mut seen: HashSet<S> = HashSet::new();
        let mut out: Vec<S> = Vec::new();
        let mut frontier: Vec<S> = Vec::new();
        for init in &spec.init {
            if out.len() >= opts.max_states {
                break;
            }
            if seen.insert(init.clone()) {
                out.push(init.clone());
                frontier.push(init.clone());
            }
        }
        let mut depth = 0;
        while !frontier.is_empty() && depth < opts.max_depth && out.len() < opts.max_states {
            let mut next_frontier = Vec::new();
            'level: for state in &frontier {
                for (_, child) in spec.successors(state) {
                    if out.len() >= opts.max_states {
                        break 'level;
                    }
                    if seen.insert(child.clone()) {
                        out.push(child.clone());
                        next_frontier.push(child);
                    }
                }
            }
            frontier = next_frontier;
            depth += 1;
        }
        out
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Counter(u32);

    impl SpecState for Counter {}

    /// `n → n + 1`, and `n → 2n` when `doubling`, up to `max`.
    fn counter_spec(name: &str, init: Vec<Counter>, max: u32, doubling: bool) -> Spec<Counter> {
        let m = ModuleId("Counter");
        let step = ActionDef::new(
            "Step",
            m,
            Granularity::Baseline,
            vec!["n"],
            vec!["n"],
            move |s: &Counter, sink| {
                for n in std::iter::once(s.0 + 1)
                    .chain(doubling.then_some(2 * s.0))
                    .filter(|&n| n <= max)
                {
                    sink.offer(format!("Step({n})"), None, |next| *next = Counter(n));
                }
            },
        );
        let module = ModuleSpec::new(m, Granularity::Baseline, vec![step]);
        Spec::new(name, init, vec![module], vec![])
    }

    fn chain_spec(max: u32) -> Spec<Counter> {
        counter_spec("chain", vec![Counter(0)], max, false)
    }

    /// Levels of 2, 3, 4 and 6 states from the initial states 1, 1 and 3, with both
    /// duplicate initial states and states reached along both arms.
    fn branching_spec() -> Spec<Counter> {
        let init = vec![Counter(1), Counter(1), Counter(3)];
        counter_spec("branching", init, 40, true)
    }

    #[test]
    fn corpus_is_deduped_and_bounded() {
        let spec = chain_spec(10);
        let all = corpus(
            &spec,
            CorpusOptions {
                max_states: 1_000,
                max_depth: 64,
            },
        );
        assert_eq!(all.len(), 11, "0..=10, each exactly once");
        let capped = corpus(
            &spec,
            CorpusOptions {
                max_states: 3,
                max_depth: 64,
            },
        );
        assert_eq!(capped.len(), 3);
        let shallow = corpus(
            &spec,
            CorpusOptions {
                max_states: 1_000,
                max_depth: 0,
            },
        );
        assert_eq!(shallow.len(), 1, "depth 0 keeps only inits");
    }

    #[test]
    fn corpus_is_deterministic() {
        let spec = chain_spec(6);
        let opts = CorpusOptions::default();
        assert_eq!(corpus(&spec, opts), corpus(&spec, opts));
    }

    fn bounded(max_states: usize, max_depth: usize) -> CorpusOptions {
        CorpusOptions {
            max_states,
            max_depth,
        }
    }

    #[test]
    fn kernel_corpus_matches_the_plain_walk() {
        let through = |depth| reference_corpus(&branching_spec(), bounded(1_000, depth)).len();
        assert_eq!(
            (through(2), through(3)),
            (9, 15),
            "a cap of 12 cuts a level"
        );
        for spec in [chain_spec(10), branching_spec()] {
            for (max_states, max_depth) in [(1_000, 64), (12, 64), (1, 64), (0, 64), (1_000, 0)] {
                let opts = bounded(max_states, max_depth);
                let expected = reference_corpus(&spec, opts);
                assert_eq!(corpus(&spec, opts), expected, "{} {opts:?}", spec.name);
            }
        }
    }

    #[test]
    fn kernel_corpus_matches_the_plain_walk_on_zab() {
        let config = ClusterConfig {
            max_transactions: 1,
            max_crashes: 1,
            ..ClusterConfig::small(CodeVersion::FinalFix)
        };
        let spec = SpecPreset::MSpec3.build(&config);
        let states = corpus(&spec, bounded(2_501, usize::MAX));
        assert_eq!(states, reference_corpus(&spec, bounded(2_501, usize::MAX)));
        assert_eq!(states.len(), 2_501);
        // The cap lands inside a level: the first depth bound that reaches 2,501 states
        // reaches more.
        let through_cut_level = (0..)
            .map(|depth| corpus(&spec, bounded(usize::MAX, depth)).len())
            .find(|&len| len >= 2_501)
            .expect("the space holds more than 2,501 states");
        assert!(through_cut_level > 2_501, "{through_cut_level}");
    }
}

//! Bounded breadth-first state corpora for analysis passes.
//!
//! The `remix-analyze` passes (effect audit, commute oracle) need a representative,
//! deterministic sample of reachable states to observe transitions on.  This module
//! provides a deliberately simple driver: a plain breadth-first walk of the
//! specification's state graph, deduplicated on full states, bounded by a state count
//! and a depth — no symmetry, no partial-order reduction, no invariant checking.  The
//! reductions are exactly what the analyses are auditing, so the corpus must be built
//! without them; for the small bounded configurations analyses run on, the naive walk
//! is cheap.

use std::collections::HashSet;

use remix_spec::{Spec, SpecState};

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

/// Collects a deterministic, deduplicated corpus of reachable states by bounded BFS.
///
/// States are returned in discovery order (level by level, enumeration order within a
/// level), so the corpus is a function of the specification and the bounds alone.
/// Reductions (symmetry, sleep sets) are intentionally not applied: analysis passes
/// audit the declarations those reductions rely on.
pub fn corpus<S: SpecState>(spec: &Spec<S>, opts: CorpusOptions) -> Vec<S> {
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

#[cfg(test)]
mod tests {
    use super::*;

    use remix_spec::{ActionDef, ActionInstance, Granularity, ModuleId, ModuleSpec, SpecState};

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Counter(u32);

    impl SpecState for Counter {}

    fn chain_spec(max: u32) -> Spec<Counter> {
        let m = ModuleId("Chain");
        let inc = ActionDef::new(
            "Inc",
            m,
            Granularity::Baseline,
            vec!["n"],
            vec!["n"],
            move |s: &Counter| {
                if s.0 < max {
                    vec![ActionInstance::new(
                        format!("Inc({})", s.0),
                        Counter(s.0 + 1),
                    )]
                } else {
                    vec![]
                }
            },
        );
        Spec::new(
            "chain",
            vec![Counter(0)],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![inc])],
            vec![],
        )
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
}

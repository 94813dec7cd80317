//! Bounded random simulation of a specification.
//!
//! The conformance checker (§3.5.2 of the paper) samples model-level traces by randomly
//! exploring the state space under a time budget and then replays them against the
//! implementation.  [`simulate`] produces such samples; every trace is a legal execution
//! of the specification (each step applies one enabled action).

use std::time::Instant;

use remix_spec::{Spec, SpecState, Trace};

use crate::explore::{striped, walk};
use crate::options::SimulationOptions;
use crate::rng::CheckerRng;

/// Generates one random trace of at most `max_depth` transitions starting from a random
/// initial state: the explorer's walk with uniform choices and no coverage recording.
///
/// Degenerate inputs are handled without panicking: a specification with no initial
/// states yields an empty trace, and `max_depth == 0` yields a trace holding the chosen
/// initial state alone (depth 0).
pub fn simulate_one<S: SpecState>(
    spec: &Spec<S>,
    max_depth: u32,
    rng: &mut CheckerRng,
) -> Trace<S> {
    walk(spec, max_depth, rng, None, None)
}

/// Generates a batch of random traces under the given options.
///
/// Trace `i` of the batch is sampled from its own sub-stream
/// ([`CheckerRng::for_trace`]`(options.seed, i)`), and `options.workers` threads sample
/// disjoint stripes of the index space concurrently, merging in index order — so absent
/// a binding time budget the batch is byte-identical for every worker count (the same
/// parallelization contract as the conformance checker's replay, §3.5.2).  A binding
/// budget cuts each worker's stripe off at a scheduling-dependent index; at least one
/// trace (index 0) is always produced.
pub fn simulate<S: SpecState>(spec: &Spec<S>, options: &SimulationOptions) -> Vec<Trace<S>> {
    let start = Instant::now();
    let stripes = striped(
        options.traces,
        options.workers,
        || options.time_budget.is_some_and(|b| start.elapsed() >= b),
        Vec::new,
        |traces: &mut Vec<(usize, Trace<S>)>, index| {
            let mut rng = CheckerRng::for_trace(options.seed, index as u64);
            traces.push((index, simulate_one(spec, options.max_depth, &mut rng)));
        },
    );
    let mut indexed: Vec<(usize, Trace<S>)> = stripes.into_iter().flatten().collect();
    indexed.sort_by_key(|(index, _)| *index);
    indexed.into_iter().map(|(_, trace)| trace).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_spec::{ActionDef, Granularity, ModuleId, ModuleSpec};

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct N(u32);

    impl SpecState for N {}

    fn branching_spec() -> Spec<N> {
        let m = ModuleId("Branch");
        let step = ActionDef::new(
            "Step",
            m,
            Granularity::Baseline,
            vec!["n"],
            vec!["n"],
            |s: &N, sink| {
                if s.0 >= 64 {
                    return;
                }
                sink.offer(format!("Double({})", s.0), None, |next| {
                    next.0 = next.0 * 2 + 1
                });
                sink.offer(format!("Inc({})", s.0), None, |next| next.0 += 1);
            },
        );
        Spec::new(
            "branch",
            vec![N(0)],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![step])],
            vec![],
        )
    }

    #[test]
    fn traces_are_legal_executions() {
        let spec = branching_spec();
        let mut rng = CheckerRng::seed_from_u64(7);
        let trace = simulate_one(&spec, 10, &mut rng);
        assert!(trace.depth() <= 10);
        // Every consecutive pair must be connected by some enabled action.
        for w in trace.steps.windows(2) {
            let successors = spec.successors(&w[0].state);
            assert!(successors.iter().any(|(_, s)| s == &w[1].state));
        }
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let spec = branching_spec();
        let opts = SimulationOptions {
            traces: 5,
            max_depth: 12,
            time_budget: None,
            seed: 99,
            workers: 1,
        };
        let a = simulate(&spec, &opts);
        let b = simulate(&spec, &opts);
        assert_eq!(a.len(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = branching_spec();
        let a = simulate(
            &spec,
            &SimulationOptions {
                traces: 3,
                max_depth: 12,
                time_budget: None,
                seed: 1,
                workers: 1,
            },
        );
        let b = simulate(
            &spec,
            &SimulationOptions {
                traces: 3,
                max_depth: 12,
                time_budget: None,
                seed: 2,
                workers: 1,
            },
        );
        assert_ne!(a, b);
    }

    #[test]
    fn empty_init_yields_an_empty_trace() {
        let spec: Spec<N> = Spec::new("empty", vec![], vec![], vec![]);
        let mut rng = CheckerRng::seed_from_u64(1);
        let trace = simulate_one(&spec, 10, &mut rng);
        assert!(trace.is_empty());
        assert_eq!(trace.depth(), 0);
        // Batch sampling over the empty spec also terminates without panicking.
        let traces = simulate(&spec, &SimulationOptions::default());
        assert!(traces.iter().all(|t| t.is_empty()));
    }

    #[test]
    fn zero_max_depth_yields_the_initial_state_alone() {
        let spec = branching_spec();
        let mut rng = CheckerRng::seed_from_u64(2);
        let trace = simulate_one(&spec, 0, &mut rng);
        assert_eq!(trace.depth(), 0);
        assert_eq!(trace.steps.len(), 1);
        assert_eq!(trace.steps[0].action, "Init");
    }

    #[test]
    fn batches_are_identical_across_worker_counts() {
        let spec = branching_spec();
        let base = SimulationOptions {
            traces: 9,
            max_depth: 16,
            time_budget: None,
            seed: 0xFEED,
            workers: 1,
        };
        let one = simulate(&spec, &base);
        for workers in [2, 3, 8] {
            let many = simulate(
                &spec,
                &SimulationOptions {
                    workers,
                    ..base.clone()
                },
            );
            assert_eq!(one, many, "workers={workers}");
        }
    }

    #[test]
    fn terminal_states_end_traces() {
        let spec = branching_spec();
        let mut rng = CheckerRng::seed_from_u64(3);
        let trace = simulate_one(&spec, 1000, &mut rng);
        let last = trace.last_state().unwrap();
        assert!(last.0 >= 64 || trace.depth() == 1000);
    }
}

//! Coverage-guided schedule exploration.
//!
//! The paper's conformance loop (§3.5.2) samples model-level traces by uniform random
//! walk.  Uniform sampling wastes most of its budget re-walking the hot core of the
//! state space: in the Zab model the election/discovery actions are enabled almost
//! everywhere and keep funnelling walks through the same handful of states, while the
//! interleavings behind the historical bugs (a crash *between* the epoch update and the
//! history write, an acknowledgement *before* the sync processor ran) are reached by
//! exactly one rare action sequence.
//!
//! [`explore`] keeps sampling traces, but each step draws the next action from a
//! distribution biased toward *rarely covered* territory: successor states whose
//! fingerprint prefix has a low hit count in the shared [`CoverageMap`], reached by
//! action definitions that have been taken rarely (see [`Guidance::CoverageGuided`]).
//! Every reachable state stays reachable — weights are never zero — so guided sampling
//! is still probabilistically complete; it just stops paying rent on the hot loop.
//!
//! Sampling runs across [`ExploreOptions::workers`] threads, each trace seeded from its
//! index exactly like the conformance checker's parallel replay
//! (`CheckerRng::for_trace`), so with one worker a run is fully deterministic for a
//! seed, and with many workers the *trace index → RNG stream* mapping still is (only
//! the coverage bias, which depends on cross-worker interleaving, varies; see
//! [`ExploreStats`]).  Violations found along the way carry their full trace and can be
//! handed directly to [`crate::shrink`] for minimization.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use remix_spec::{Spec, SpecState, Trace};

use crate::coverage::{CoverageMap, CoverageSnapshot};
use crate::fingerprint::{fingerprint, Fingerprint};
use crate::options::SymmetryMode;
use crate::outcome::Violation;
use crate::rng::CheckerRng;
use crate::sync::{AtomicBool, AtomicU64, Ordering};

/// Default lock-stripe count of the shared coverage map (matches the BFS engine's
/// default shard count; reused by `remix-core`'s guided conformance sampling).
pub const DEFAULT_COVERAGE_SHARDS: usize = 64;

/// Default fingerprint-prefix granularity of the coverage counters, in leading bits
/// (reused by `remix-core`'s guided conformance sampling).
pub const DEFAULT_PREFIX_BITS: u32 = 20;

/// How the explorer chooses among enabled actions (§3.5.2's sampling policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guidance {
    /// Uniform random choice — the paper's baseline sampling policy.
    Uniform,
    /// Coverage-guided choice: each successor is weighted by the *rarity* of its
    /// fingerprint prefix and of its action definition in the shared coverage map.
    CoverageGuided {
        /// Strength of the rarity bias.  A successor's weight is computed *relative
        /// to the least-visited candidate in the same choice*, per dimension:
        ///
        /// ```text
        /// rarity_weight · SCALE · (1+min_prefix)/(1+prefix) · (1+min_action)/(1+action) + 1
        /// ```
        ///
        /// — the rarest candidate always carries the full `rarity_weight * SCALE` and
        /// hotter ones scale down by their hit *ratios*.  `0` degenerates to uniform,
        /// and the `+ 1` floor keeps every enabled action reachable (probabilistic
        /// completeness).
        ///
        /// The earlier absolute formula `rarity_weight * SCALE / (1 + hits) + 1`
        /// (with `hits` the *sum* of both counters) had two degenerations: once hit
        /// counts passed `rarity_weight * SCALE` every weight floored to 1,
        /// collapsing long guided runs to uniform-with-overhead — the bug behind
        /// guided losing to uniform in the old `BENCH_explore.json` artefact — and
        /// the step-scaled action counters drowned the trace-scaled prefix novelty
        /// signal inside the sum.  Per-dimension ratios are invariant under uniformly
        /// growing hit counts, so the bias never degenerates.
        rarity_weight: u32,
    },
}

impl Default for Guidance {
    fn default() -> Self {
        Guidance::CoverageGuided { rarity_weight: 24 }
    }
}

/// Options of a guided exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Maximum number of traces to sample (the sampling budget of §3.5.2).
    pub traces: usize,
    /// Maximum length (in transitions) of each trace.
    pub max_depth: u32,
    /// Base seed; trace `i` samples from `CheckerRng::for_trace(seed, i)`, making the
    /// per-trace RNG streams independent of the worker count.
    pub seed: u64,
    /// Worker threads sampling traces concurrently over disjoint index stripes, like
    /// the conformance checker's parallel replay.
    pub workers: usize,
    /// Wall-clock budget; sampling stops scheduling new traces once it expires.  At
    /// least one trace is always produced.
    pub time_budget: Option<Duration>,
    /// The sampling policy (uniform baseline vs coverage-guided).
    pub guidance: Guidance,
    /// Lock stripes of the shared coverage map (see [`CoverageMap::new`] and the
    /// identically-motivated `CheckOptions::shards`).
    pub shards: usize,
    /// Fingerprint-prefix granularity of the coverage counters, in leading bits:
    /// clamped to 1..=32 (see [`CoverageMap::new`]), so a wider request counts at 32.
    pub prefix_bits: u32,
    /// Stop scheduling new traces once any invariant violation has been found
    /// (time-to-first-violation mode; in-flight traces still complete).
    pub stop_on_violation: bool,
    /// Must be [`SymmetryMode::Off`]: [`explore`] refuses any other value before
    /// sampling.  Coverage keys on the fingerprints of concrete states.
    pub symmetry: SymmetryMode,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            traces: 256,
            max_depth: 40,
            seed: 0xC0FFEE,
            workers: 1,
            time_budget: None,
            guidance: Guidance::default(),
            shards: DEFAULT_COVERAGE_SHARDS,
            prefix_bits: DEFAULT_PREFIX_BITS,
            stop_on_violation: true,
            symmetry: SymmetryMode::Off,
        }
    }
}

impl ExploreOptions {
    /// Switches to the uniform baseline policy.
    pub fn uniform(mut self) -> Self {
        self.guidance = Guidance::Uniform;
        self
    }

    /// Switches to coverage-guided sampling with the given rarity weight.
    pub fn guided(mut self, rarity_weight: u32) -> Self {
        self.guidance = Guidance::CoverageGuided { rarity_weight };
        self
    }

    /// Sets the sampling budget in traces.
    pub fn with_traces(mut self, traces: usize) -> Self {
        self.traces = traces;
        self
    }

    /// Sets the per-trace depth bound.
    pub fn with_max_depth(mut self, depth: u32) -> Self {
        self.max_depth = depth;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }
}

/// Statistics of an exploration run.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Number of traces sampled.
    pub traces: usize,
    /// Total transitions taken across all traces.
    pub steps: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// The lowest trace index on which a violation was found, if any.  For a fixed seed
    /// this is deterministic with one worker; with several workers the sampled traces
    /// are identical but the early-stop point may shift, so indices are comparable only
    /// within a worker count.
    pub first_violation_trace: Option<usize>,
    /// Wall-clock time from the start of the run to the first recorded violation.
    pub time_to_first_violation: Option<Duration>,
    /// How far the run overshot [`ExploreOptions::time_budget`], when one was set and
    /// exceeded.  The deadline is checked inside the per-step sampling loop (not just
    /// between traces), so the overshoot is bounded by one successor
    /// enumeration + invariant sweep per in-flight worker rather than by a whole
    /// deep trace — the earlier between-traces-only check let a single long trace
    /// overrun the budget unboundedly.
    pub budget_overshoot: Option<Duration>,
    /// Snapshot of the shared coverage map at the end of the run.
    pub coverage: CoverageSnapshot,
}

/// The outcome of a guided exploration run.
#[derive(Debug)]
pub struct ExploreOutcome<S> {
    /// The name of the explored specification.
    pub spec_name: String,
    /// Violations found, at most one per invariant (the one on the lowest trace index),
    /// each carrying the full sampled trace as a counterexample.
    pub violations: Vec<Violation<S>>,
    /// Exploration statistics.
    pub stats: ExploreStats,
}

impl<S> ExploreOutcome<S> {
    /// `true` when no invariant violation was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation found (lowest trace index, then shallowest), if any.
    ///
    /// `violations` is merged in `(trace index, depth, invariant)` order, so this is
    /// the violation [`ExploreStats::first_violation_trace`] refers to.  With one
    /// worker [`ExploreStats::time_to_first_violation`] describes it too; with several
    /// workers the wall-clock minimum may have been observed for a later-index
    /// violation that a faster worker reached first.
    pub fn first_violation(&self) -> Option<&Violation<S>> {
        self.violations.first()
    }
}

/// Where a walk records coverage and how it biases its choices; a walk without one is
/// the plain uniform walk of [`crate::simulate`], which records nothing.
pub(crate) struct Guide<'a> {
    coverage: &'a CoverageMap,
    guidance: Guidance,
}

/// Samples one trace of at most `max_depth` transitions from a random initial state —
/// the one walk behind [`explore_one`] and [`crate::simulate::simulate_one`].
///
/// The result is a legal execution (every step applies one enabled action), and the
/// degenerate cases do not panic: an empty initial-state set yields an empty trace, and
/// `max_depth == 0` yields the initial state alone.  When `deadline` is set, the walk is
/// cut off as soon as the deadline passes — checked before every step, so a single deep
/// trace cannot overshoot a run's time budget by more than one step.
pub(crate) fn walk<S: SpecState>(
    spec: &Spec<S>,
    max_depth: u32,
    rng: &mut CheckerRng,
    deadline: Option<Instant>,
    guide: Option<&Guide<'_>>,
) -> Trace<S> {
    if spec.init.is_empty() {
        return Trace::default();
    }
    // Prefixes already recorded by *this* trace: revisits add no prefix hit.
    let mut seen_prefixes: HashSet<u32> = HashSet::new();
    let mut record = |guide: &Guide<'_>, fp: Fingerprint, label: &str| {
        if seen_prefixes.insert(guide.coverage.prefix_of(fp)) {
            guide.coverage.record(fp, label);
        } else {
            guide.coverage.record_action(label);
        }
    };
    let init = spec.init[rng.index(spec.init.len())].clone();
    if let Some(guide) = guide {
        record(guide, fingerprint(&init), "Init");
    }
    let mut trace = Trace::from_init(init.clone());
    let mut current = init;
    for _ in 0..max_depth {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let successors = spec.successors(&current);
        if successors.is_empty() {
            break;
        }
        // Guided choices hand back the chosen candidate's fingerprint, which
        // weighted_choice computed anyway.
        let (choice, chosen_fp) = match guide {
            Some(Guide {
                coverage,
                guidance: Guidance::CoverageGuided { rarity_weight },
            }) => {
                let (i, fp) = weighted_choice(&successors, coverage, *rarity_weight, rng);
                (i, Some(fp))
            }
            _ => (rng.index(successors.len()), None),
        };
        let (label, next) = successors
            .into_iter()
            .nth(choice)
            .expect("choice is in bounds");
        if let Some(guide) = guide {
            let fp = chosen_fp.unwrap_or_else(|| fingerprint(&next));
            record(guide, fp, &label);
        }
        trace.push(label, next.clone());
        current = next;
    }
    trace
}

/// Samples one trace, biased by `guidance` over the shared `coverage` map (see `walk`
/// for the walk itself).
///
/// Coverage accounting: each fingerprint prefix is recorded **at most once per
/// trace** (revisits within the same walk bump only the action counters), so prefix
/// hit counts read as "traces that reached this region" and
/// [`CoverageSnapshot::max_prefix_hits`] is bounded by the trace count.
pub fn explore_one<S: SpecState>(
    spec: &Spec<S>,
    max_depth: u32,
    rng: &mut CheckerRng,
    coverage: &CoverageMap,
    guidance: Guidance,
    deadline: Option<Instant>,
) -> Trace<S> {
    let guide = Guide { coverage, guidance };
    walk(spec, max_depth, rng, deadline, Some(&guide))
}

/// Folds the indices `0..total` into one accumulator per worker on `workers` threads,
/// each striding its own stripe (`worker`, `worker + workers`, …) — the one runner
/// behind [`explore`], [`crate::simulate::simulate`] and the conformance checker's
/// replay.  Worker `w` starts from `init()` and calls `fold(&mut acc, index)` for its
/// stripe's indices in increasing order; the accumulators come back in worker order.
///
/// What a run keeps is what its accumulators keep: a caller that folds each index into
/// a summary holds memory independent of `total`, where collecting one result per
/// index would grow with the sampling budget.
///
/// A stripe ends early once `halt()` holds (a spent budget, a stop flag), checked
/// before every index but 0, so a run always folds at least one index.  Because a fold
/// sees nothing of other stripes, the indices that did run fold the same way for every
/// worker count.  A panicking fold is re-raised on the caller.
pub fn striped<A: Send>(
    total: usize,
    workers: usize,
    halt: impl Fn() -> bool + Sync,
    init: impl Fn() -> A + Sync,
    fold: impl Fn(&mut A, usize) + Sync,
) -> Vec<A> {
    let total = total.max(1);
    let workers = workers.clamp(1, total);
    let run_stripe = |worker: usize| -> A {
        let mut acc = init();
        for index in (worker..total).step_by(workers) {
            if index != 0 && halt() {
                break;
            }
            fold(&mut acc, index);
        }
        acc
    };
    if workers == 1 {
        vec![run_stripe(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || run_stripe(w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }
}

/// Weighted successor choice, relative to the least-visited candidate per dimension
/// (see [`Guidance::CoverageGuided`] for the formula and its rationale).  Returns the
/// chosen index together with the candidate's fingerprint so the caller records
/// coverage without recomputing it.
///
/// Normalizing each dimension by the candidate set's minimum makes the weights
/// depend only on hit *ratios*, so the bias survives arbitrarily long runs: the old
/// absolute formula degenerated to all-ones (uniform) once every candidate's count
/// exceeded `rarity_weight * SCALE`.  The `+ 1` floor keeps every enabled action
/// reachable.
fn weighted_choice<S: SpecState>(
    successors: &[(String, S)],
    coverage: &CoverageMap,
    rarity_weight: u32,
    rng: &mut CheckerRng,
) -> (usize, Fingerprint) {
    const SCALE: u128 = 1024;
    // Prefix hits count *traces* that reached a region (per-trace dedup) while action
    // hits count *steps* globally, so the two live on very different scales: summed,
    // the action term would drown the novelty signal.  Each dimension is therefore
    // normalized by its own candidate-set minimum and the ratios are multiplied.
    let hits: Vec<(Fingerprint, u64, u64)> = successors
        .iter()
        .map(|(label, next)| {
            let fp = fingerprint(next);
            (
                fp,
                coverage.prefix_hits(fp),
                coverage.action_hits_total(label),
            )
        })
        .collect();
    let min_prefix = hits.iter().map(|(_, p, _)| *p).min().expect("non-empty");
    let min_action = hits.iter().map(|(_, _, a)| *a).min().expect("non-empty");
    let weights: Vec<u64> = hits
        .iter()
        .map(|(_, p, a)| {
            // ≤ rarity_weight * SCALE + 1 ≤ 2^42: the u128 intermediates cannot
            // overflow and the result always fits a u64.
            let scaled = rarity_weight as u128 * SCALE * (min_prefix as u128 + 1)
                / (*p as u128 + 1)
                * (min_action as u128 + 1)
                / (*a as u128 + 1);
            scaled as u64 + 1
        })
        .collect();
    let total: u64 = weights.iter().sum();
    let mut r = rng.next_u64() % total;
    let mut choice = weights.len() - 1;
    for (i, w) in weights.iter().enumerate() {
        if r < *w {
            choice = i;
            break;
        }
        r -= w;
    }
    (choice, hits[choice].0)
}

/// Runs coverage-guided (or uniform) trace sampling of `spec` under `options`,
/// checking every visited state against the specification's invariants.
///
/// # Panics
///
/// When `options.symmetry` is not [`SymmetryMode::Off`], before anything is sampled.
pub fn explore<S: SpecState>(spec: &Spec<S>, options: &ExploreOptions) -> ExploreOutcome<S> {
    assert!(
        options.symmetry == SymmetryMode::Off,
        "ExploreOptions::symmetry must be off, got {}",
        options.symmetry
    );
    let start = Instant::now();
    let coverage = CoverageMap::new(options.shards, options.prefix_bits);
    let stop = AtomicBool::new(false);
    let first_violation_nanos = AtomicU64::new(u64::MAX);
    let deadline = options.time_budget.map(|b| start + b);
    let guide = Guide {
        coverage: &coverage,
        guidance: options.guidance,
    };
    // ordering: Acquire — pairs with the Release store below; a worker that observes
    // the stop also observes the violation that caused it.
    let halt = || stop.load(Ordering::Acquire) || deadline.is_some_and(|d| Instant::now() >= d);
    let sample = |tally: &mut Tally<S>, index: usize| {
        let mut rng = CheckerRng::for_trace(options.seed, index as u64);
        // Trace 0 skips only the *scheduling* budget check (so a budget-bound run still
        // reports at least one trace); the in-walk deadline applies to every trace,
        // keeping the documented one-step overshoot bound — an expired deadline still
        // yields the initial state.
        let trace = walk(spec, options.max_depth, &mut rng, deadline, Some(&guide));
        tally.traces += 1;
        tally.steps += trace.depth() as u64;
        // Only the first violating step of an invariant on a trace can be kept (the
        // walk typically stays in violation), and it is kept — its prefix cloned — only
        // when it beats what this worker already keeps for that invariant.  A
        // different invariant first violated deeper in the same trace is still seen.
        let mut timed = false;
        for (depth, step) in trace.steps.iter().enumerate() {
            let violated = spec.violated_invariants(&step.state);
            if violated.is_empty() {
                continue;
            }
            for inv in violated {
                if tally.beats(inv.id, index, depth as u32) {
                    tally.keep(
                        index,
                        Violation {
                            invariant: inv.id,
                            invariant_name: inv.name,
                            depth: depth as u32,
                            trace: prefix_trace(&trace, depth),
                        },
                    );
                }
            }
            // A trace's first violating step is its earliest violation, so timing only
            // that one still gives the run's minimum.
            if !timed {
                timed = true;
                let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                // ordering: AcqRel — concurrent minima must all join (Acquire)
                // and publish (Release) so the final load sees the true minimum.
                first_violation_nanos.fetch_min(nanos, Ordering::AcqRel);
                if options.stop_on_violation {
                    // ordering: Release — publishes this worker's recorded
                    // violation before other workers observe the stop flag.
                    stop.store(true, Ordering::Release);
                }
            }
        }
    };
    let tallies = striped(options.traces, options.workers, halt, Tally::new, sample);
    let mut total = Tally::new();
    for tally in tallies {
        total.merge(tally);
    }
    // Kept violations in `(trace index, depth, invariant)` order: per invariant the one
    // with the lowest (trace, depth), whatever the worker count.
    let mut kept = total.kept;
    kept.sort_by_key(|(index, v)| (*index, v.depth, v.invariant));
    let first_violation_trace = kept.first().map(|(index, _)| *index);
    let violations = kept.into_iter().map(|(_, v)| v).collect();

    // ordering: Acquire — pairs with the AcqRel fetch_min above (workers have joined
    // by now, but the load should not rely on the join for its value).
    let nanos = first_violation_nanos.load(Ordering::Acquire);
    let elapsed = start.elapsed();
    ExploreOutcome {
        spec_name: spec.name.clone(),
        violations,
        stats: ExploreStats {
            traces: total.traces,
            steps: total.steps,
            elapsed,
            first_violation_trace,
            time_to_first_violation: (nanos != u64::MAX).then(|| Duration::from_nanos(nanos)),
            budget_overshoot: options
                .time_budget
                .and_then(|budget| elapsed.checked_sub(budget))
                .filter(|o| !o.is_zero()),
            coverage: coverage.snapshot(),
        },
    }
}

/// What one sampling worker keeps of the traces it folded (see [`striped`]).
struct Tally<S> {
    /// Traces sampled.
    traces: usize,
    /// Transitions taken across those traces.
    steps: u64,
    /// Per invariant, the violation with the lowest `(trace index, depth)` seen, tagged
    /// with its trace index.
    kept: Vec<(usize, Violation<S>)>,
}

impl<S> Tally<S> {
    fn new() -> Self {
        Tally {
            traces: 0,
            steps: 0,
            kept: Vec::new(),
        }
    }

    /// Whether a violation of `invariant` on trace `index` at `depth` would be kept:
    /// none of that invariant is kept yet, or the kept one is on a later `(trace,
    /// depth)`.
    fn beats(&self, invariant: &str, index: usize, depth: u32) -> bool {
        self.kept
            .iter()
            .find(|(_, v)| v.invariant == invariant)
            .is_none_or(|(kept, v)| (index, depth) < (*kept, v.depth))
    }

    /// Keeps `violation`, found on trace `index`, if it beats the one kept for its
    /// invariant.
    fn keep(&mut self, index: usize, violation: Violation<S>) {
        if self.beats(violation.invariant, index, violation.depth) {
            self.kept
                .retain(|(_, v)| v.invariant != violation.invariant);
            self.kept.push((index, violation));
        }
    }

    /// Folds another worker's tally into this one.
    fn merge(&mut self, other: Tally<S>) {
        self.traces += other.traces;
        self.steps += other.steps;
        for (index, violation) in other.kept {
            self.keep(index, violation);
        }
    }
}

/// The prefix of `trace` ending at step `depth` (inclusive).
fn prefix_trace<S: Clone>(trace: &Trace<S>, depth: usize) -> Trace<S> {
    Trace {
        steps: trace.steps[..=depth].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_spec::{
        ActionDef, ActionInstance, Granularity, Invariant, InvariantSource, ModuleId, ModuleSpec,
    };

    /// A walk with a hot "noise" loop and one rare "advance" chain: `Advance` is only
    /// enabled when `noise == 0`, while three `Churn` actions shuffle `noise` through a
    /// tiny set of values.  Uniform sampling spends most steps churning; coverage
    /// guidance learns that churned states are over-visited and favours the fresh
    /// states `Advance` produces.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Walk {
        pos: u32,
        noise: u32,
    }

    impl SpecState for Walk {}

    fn needle_spec(target: u32) -> Spec<Walk> {
        let m = ModuleId("Walk");
        let churn = ActionDef::new(
            "Churn",
            m,
            Granularity::Baseline,
            vec!["noise"],
            vec!["noise"],
            |s: &Walk| {
                (1..=3u32)
                    .map(|i| {
                        ActionInstance::new(
                            format!("Churn({i})"),
                            Walk {
                                noise: (s.noise + i) % 4,
                                ..s.clone()
                            },
                        )
                    })
                    .collect()
            },
        );
        let advance = ActionDef::new(
            "Advance",
            m,
            Granularity::Baseline,
            vec!["pos", "noise"],
            vec!["pos"],
            |s: &Walk| {
                if s.noise == 0 {
                    vec![ActionInstance::new(
                        format!("Advance({})", s.pos),
                        Walk {
                            pos: s.pos + 1,
                            noise: s.noise,
                        },
                    )]
                } else {
                    vec![]
                }
            },
        );
        let inv = Invariant::always(
            "NEEDLE",
            "target position is unreachable",
            InvariantSource::Protocol,
            move |s: &Walk| s.pos < target,
        );
        Spec::new(
            "needle",
            vec![Walk { pos: 0, noise: 1 }],
            vec![ModuleSpec::new(
                m,
                Granularity::Baseline,
                vec![churn, advance],
            )],
            vec![inv],
        )
    }

    /// The needle spec with a second invariant, `QUIET`, that most walks break within
    /// a few steps (`Churn(2)` from the initial noise reaches 3).
    fn noisy_needle_spec(target: u32) -> Spec<Walk> {
        let mut spec = needle_spec(target);
        spec.invariants.push(Invariant::always(
            "QUIET",
            "noise never reaches 3",
            InvariantSource::Protocol,
            |s: &Walk| s.noise != 3,
        ));
        spec
    }

    fn options() -> ExploreOptions {
        ExploreOptions::default()
            .with_traces(400)
            .with_max_depth(48)
            .with_seed(11)
    }

    #[test]
    fn guided_traces_are_legal_executions() {
        let spec = needle_spec(1000);
        let coverage = CoverageMap::new(8, 16);
        let mut rng = CheckerRng::seed_from_u64(5);
        let trace = explore_one(
            &spec,
            24,
            &mut rng,
            &coverage,
            Guidance::CoverageGuided { rarity_weight: 16 },
            None,
        );
        assert!(trace.depth() <= 24);
        for w in trace.steps.windows(2) {
            let successors = spec.successors(&w[0].state);
            assert!(successors.iter().any(|(_, s)| s == &w[1].state));
        }
    }

    #[test]
    fn exploration_is_deterministic_for_a_seed() {
        let spec = needle_spec(6);
        let a = explore(&spec, &options());
        let b = explore(&spec, &options());
        assert_eq!(a.stats.traces, b.stats.traces);
        assert_eq!(a.stats.first_violation_trace, b.stats.first_violation_trace);
        assert_eq!(
            a.violations.iter().map(|v| v.depth).collect::<Vec<_>>(),
            b.violations.iter().map(|v| v.depth).collect::<Vec<_>>()
        );
    }

    #[test]
    fn kept_violations_are_the_lowest_trace_and_depth_per_invariant() {
        // Most traces violate both invariants; per invariant the run must keep the
        // violation the old merge chose: every trace's first violation of each
        // invariant, sorted by (trace, depth, invariant), the first per invariant kept.
        let spec = noisy_needle_spec(2);
        let opts = ExploreOptions {
            stop_on_violation: false,
            ..options().with_traces(200).with_max_depth(24).uniform()
        };
        let mut all = Vec::new();
        for index in 0..opts.traces {
            // A uniform walk draws the same choices with or without a coverage map.
            let mut rng = CheckerRng::for_trace(opts.seed, index as u64);
            let trace = walk(&spec, opts.max_depth, &mut rng, None, None);
            let mut seen = Vec::new();
            for (depth, step) in trace.steps.iter().enumerate() {
                for inv in spec.violated_invariants(&step.state) {
                    if !seen.contains(&inv.id) {
                        seen.push(inv.id);
                        all.push((index, depth as u32, inv.id, prefix_trace(&trace, depth)));
                    }
                }
            }
        }
        let violating: HashSet<usize> = all.iter().map(|(index, ..)| *index).collect();
        assert!(
            violating.len() > opts.traces / 2,
            "{} of {} traces violate",
            violating.len(),
            opts.traces
        );
        all.sort_by_key(|(index, depth, inv, _)| (*index, *depth, *inv));
        let mut expected: Vec<(usize, u32, &str, Trace<Walk>)> = Vec::new();
        for entry in all {
            if !expected.iter().any(|kept| kept.2 == entry.2) {
                expected.push(entry);
            }
        }
        assert_eq!(expected.len(), 2, "both invariants are violated");
        for workers in [1, 2, 3] {
            let outcome = explore(&spec, &opts.clone().with_workers(workers));
            assert_eq!(outcome.stats.traces, opts.traces);
            assert_eq!(
                outcome.stats.first_violation_trace,
                Some(expected[0].0),
                "workers={workers}"
            );
            let kept: Vec<(u32, &str, &Trace<Walk>)> = outcome
                .violations
                .iter()
                .map(|v| (v.depth, v.invariant, &v.trace))
                .collect();
            let want: Vec<(u32, &str, &Trace<Walk>)> = expected
                .iter()
                .map(|(_, depth, inv, trace)| (*depth, *inv, trace))
                .collect();
            assert_eq!(kept, want, "workers={workers}");
        }
    }

    #[test]
    fn guided_finds_the_needle_faster_than_uniform() {
        // Same seed, same budget; guidance must reach the rare deep state on an earlier
        // trace index than the uniform baseline.
        let spec = needle_spec(8);
        let uniform = explore(&spec, &options().uniform());
        let guided = explore(&spec, &options().guided(16));
        let found_guided = guided
            .stats
            .first_violation_trace
            .expect("guided exploration finds the needle");
        match uniform.stats.first_violation_trace {
            None => {} // uniform never found it within the budget — guided strictly wins
            Some(found_uniform) => assert!(
                found_guided < found_uniform,
                "guided should find the violation on an earlier trace: guided={found_guided} uniform={found_uniform}"
            ),
        }
        // The guided counterexample is a real violation of the spec.
        let v = guided.first_violation().unwrap();
        assert_eq!(v.invariant, "NEEDLE");
        assert!(!spec
            .violated_invariants(v.trace.last_state().unwrap())
            .is_empty());
    }

    #[test]
    fn guided_coverage_spreads_over_more_prefixes() {
        // On a pass-through budget (no violation to stop at), guidance visits at least
        // as many distinct regions as uniform sampling with the same step budget.
        let spec = needle_spec(1000);
        let opts = options().with_traces(64);
        let uniform = explore(&spec, &opts.clone().uniform());
        let guided = explore(&spec, &opts.guided(16));
        assert!(
            guided.stats.coverage.distinct_prefixes >= uniform.stats.coverage.distinct_prefixes,
            "guided {} vs uniform {}",
            guided.stats.coverage.distinct_prefixes,
            uniform.stats.coverage.distinct_prefixes
        );
    }

    #[test]
    fn empty_init_and_zero_depth_are_handled() {
        let spec: Spec<Walk> = Spec::new("empty", vec![], vec![], vec![]);
        let coverage = CoverageMap::new(1, 8);
        let mut rng = CheckerRng::seed_from_u64(1);
        let trace = explore_one(&spec, 10, &mut rng, &coverage, Guidance::Uniform, None);
        assert!(trace.is_empty());

        let spec = needle_spec(5);
        let trace = explore_one(&spec, 0, &mut rng, &coverage, Guidance::Uniform, None);
        assert_eq!(trace.depth(), 0);
        assert_eq!(trace.steps.len(), 1);
    }

    #[test]
    fn coverage_counts_each_prefix_once_per_trace() {
        // The Walk spec churns through a four-value noise set, so every walk revisits
        // regions it has already recorded.  Per-trace dedup must keep the hottest
        // prefix at or below the trace count — the committed artefact's
        // `max_prefix_hits: 8193` out of 8192 traces came from exactly this
        // within-trace revisit over-count.
        let spec = needle_spec(1000);
        for opts in [
            options().with_traces(128).uniform(),
            options().with_traces(128).guided(16),
        ] {
            let outcome = explore(&spec, &opts);
            assert!(
                outcome.stats.coverage.max_prefix_hits <= outcome.stats.traces as u64,
                "max_prefix_hits {} must not exceed the {} sampled traces",
                outcome.stats.coverage.max_prefix_hits,
                outcome.stats.traces
            );
        }
    }

    #[test]
    fn expired_deadline_cuts_a_trace_mid_walk() {
        // A deadline that has already passed must stop the walk before its first step;
        // the earlier engine only checked the budget between traces, so one deep trace
        // could overshoot it unboundedly.
        let spec = needle_spec(1000);
        let coverage = CoverageMap::new(8, 16);
        let mut rng = CheckerRng::seed_from_u64(3);
        let expired = Instant::now() - Duration::from_millis(1);
        let trace = explore_one(
            &spec,
            1_000_000,
            &mut rng,
            &coverage,
            Guidance::Uniform,
            Some(expired),
        );
        assert_eq!(trace.depth(), 0, "no step may start after the deadline");
        assert_eq!(trace.steps.len(), 1, "the initial state is still reported");
    }

    #[test]
    fn budget_overshoot_is_reported_and_bounded() {
        let spec = needle_spec(1000);
        let outcome = explore(
            &spec,
            &options()
                .with_traces(64)
                .with_max_depth(4096)
                .with_time_budget(Duration::from_millis(1)),
        );
        // The run overshoots by at most one step of the single in-flight trace, not by
        // the full 4096-step walk; on any realistic host that is well under a second.
        if let Some(overshoot) = outcome.stats.budget_overshoot {
            assert!(
                overshoot < Duration::from_secs(5),
                "overshoot {overshoot:?} suggests the per-step deadline check regressed"
            );
        }
        assert!(outcome.stats.elapsed >= Duration::from_millis(1));
    }

    #[test]
    fn rarity_weights_do_not_collapse_on_long_runs() {
        // Pre-heat the coverage map far past the old absolute cut-off
        // (rarity_weight * SCALE = 16 * 1024): under the old formula every weight
        // would floor to 1 and the choice would be uniform; the relative formula must
        // still strongly prefer the cold successor.
        let spec = needle_spec(1000);
        let coverage = CoverageMap::new(8, 16);
        let hot = Walk { pos: 0, noise: 2 };
        for _ in 0..200_000u32 {
            coverage.record_action("Churn(2)");
        }
        let _ = spec; // hits come from the shared action counter
        let successors = vec![
            ("Churn(2)".to_owned(), hot.clone()),
            ("Advance(0)".to_owned(), Walk { pos: 1, noise: 0 }),
        ];
        let mut rng = CheckerRng::seed_from_u64(9);
        let mut cold_choices = 0usize;
        for _ in 0..256 {
            if weighted_choice(&successors, &coverage, 16, &mut rng).0 == 1 {
                cold_choices += 1;
            }
        }
        assert!(
            cold_choices > 230,
            "the cold successor must dominate ({cold_choices}/256 picks); \
             near-uniform picks mean the rarity weight degenerated"
        );
    }

    #[test]
    fn workers_share_the_coverage_map() {
        let spec = needle_spec(1000);
        let outcome = explore(&spec, &options().with_traces(32).with_workers(4));
        assert_eq!(outcome.stats.traces, 32);
        assert!(outcome.stats.coverage.total_hits > 0);
        assert!(outcome.stats.steps > 0);
    }

    #[test]
    #[should_panic(expected = "ExploreOptions::symmetry must be off, got canonicalize")]
    fn canonical_coverage_keys_are_refused() {
        let options = ExploreOptions {
            symmetry: SymmetryMode::Canonicalize,
            ..options()
        };
        explore(&needle_spec(1000), &options);
    }
}

//! Symmetry reduction on a toy fully symmetric spec: canonicalization must shrink the
//! explored state count without changing any verdict, and violation witnesses must be
//! de-canonicalized back into executions of the *original* specification — in both
//! store backends, with and without sleep-set POR, in RAM and out of core.  BFS is the
//! one engine that accepts symmetry (`check_dfs` refuses it).
//!
//! The model: `k` identical workers, each holding a counter; any worker may increment
//! its counter up to `max`.  States are plain counter vectors, so the symmetric group
//! acts by reordering them and sorting is an exact canonical form.  Without reduction
//! the reachable space is `(max+1)^k` vectors; with it, the multisets —
//! `C(max+k, k)` — which is where the strict `distinct_states` drop comes from.

use remix_checker::{check_bfs, CheckOptions, StopReason, StoreMode, SymmetryMode};
use remix_spec::{
    ActionDef, Canonicalize, Effect, Granularity, Invariant, InvariantSource, ModuleId, ModuleSpec,
    Perm, Spec, SpecState,
};

/// `k` interchangeable workers, each a bare counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Workers(Vec<u8>);

impl SpecState for Workers {}

impl Canonicalize for Workers {
    fn canonicalize(&self) -> (Self, Perm) {
        // Sorting the counters is an exact canonical form for the full symmetric
        // group; the permutation sends each worker to its sorted position (stable, so
        // equal counters keep their relative order and the perm is well-defined).
        let mut order: Vec<usize> = (0..self.0.len()).collect();
        order.sort_by_key(|&i| self.0[i]);
        let mut image = vec![0u32; self.0.len()];
        for (new_pos, old) in order.iter().enumerate() {
            image[*old] = new_pos as u32;
        }
        let perm = Perm::from_image(image);
        (self.permute(&perm), perm)
    }

    fn permute(&self, perm: &Perm) -> Self {
        let mut out = vec![0u8; self.0.len()];
        for (i, c) in self.0.iter().enumerate() {
            out[perm.apply(i)] = *c;
        }
        Workers(out)
    }
}

/// The spec: every worker may increment below `max`; optionally an invariant that the
/// counter multiset never reaches `bad` (a multiset, so it is permutation-invariant).
/// `Inc(i)` declares that it writes worker `i` alone, so POR may prune the diamonds.
fn workers_spec(k: usize, max: u8, bad: Option<Vec<u8>>) -> Spec<Workers> {
    let m = ModuleId("Workers");
    let inc = ActionDef::new(
        "Inc",
        m,
        Granularity::Baseline,
        vec!["counters"],
        vec!["counters"],
        move |s: &Workers, sink| {
            for i in (0..s.0.len()).filter(|&i| s.0[i] < max) {
                sink.offer(
                    format!("Inc({i})"),
                    Effect::new().writes_server(i),
                    |next| next.0[i] += 1,
                );
            }
        },
    );
    let invariants = match bad {
        Some(bad) => vec![Invariant::always(
            "NOT-BAD",
            "the bad counter multiset is unreachable",
            InvariantSource::Protocol,
            move |s: &Workers| {
                let mut sorted = s.0.clone();
                sorted.sort_unstable();
                sorted != bad
            },
        )],
        None => vec![],
    };
    Spec::new(
        "workers",
        vec![Workers(vec![0; k])],
        vec![ModuleSpec::new(m, Granularity::Baseline, vec![inc])],
        invariants,
    )
    .with_canonicalization()
}

/// The engine cells each test runs in, all with `symmetry`: both store backends, each
/// plain, under sleep-set POR, and out of core (one stripe under a 512-byte budget, so
/// even these few states spill fingerprint runs).
fn cells(symmetry: SymmetryMode) -> Vec<CheckOptions> {
    let mut cells = Vec::new();
    for store in [StoreMode::Full, StoreMode::FingerprintOnly] {
        let base = CheckOptions::default()
            .with_symmetry(symmetry)
            .with_store_mode(store);
        cells.push(base.clone());
        cells.push(base.clone().with_por(true));
        cells.push(base.with_shards(1).with_mem_budget(512));
    }
    cells
}

/// The `(Off, Canonicalize)` pair of every cell, and the cell's name for messages.
fn cell_pairs() -> impl Iterator<Item = (CheckOptions, CheckOptions, String)> {
    cells(SymmetryMode::Off)
        .into_iter()
        .zip(cells(SymmetryMode::Canonicalize))
        .map(|(off, canon)| {
            let name = format!(
                "{} store, por {}, budget {:?}",
                off.store_mode, off.por, off.spill.budget_bytes
            );
            (off, canon, name)
        })
}

/// `C(n, k)` (number of multisets of size `k` over `n` values is `C(max+k, k)`).
fn binomial(n: usize, k: usize) -> usize {
    (1..=k).fold(1, |acc, i| acc * (n - k + i) / i)
}

#[test]
fn canonicalization_collapses_orbits_without_changing_the_verdict() {
    let (k, max) = (3usize, 4u8);
    let spec = workers_spec(k, max, None);
    for (off_options, canon_options, cell) in cell_pairs() {
        let off = check_bfs(&spec, &off_options);
        let canon = check_bfs(&spec, &canon_options);
        assert_eq!(off.stop_reason, StopReason::Exhausted, "{cell}");
        assert_eq!(canon.stop_reason, StopReason::Exhausted, "{cell}");
        assert!(off.passed() && canon.passed(), "{cell}");
        assert_eq!(
            off.stats.distinct_states,
            (max as usize + 1).pow(k as u32),
            "all counter vectors ({cell})"
        );
        assert_eq!(
            canon.stats.distinct_states,
            binomial(max as usize + k, k),
            "one representative per counter multiset ({cell})"
        );
        assert!(
            canon.stats.distinct_states < off.stats.distinct_states,
            "symmetry must strictly reduce the explored space ({cell})"
        );
        // The BFS level structure is preserved: the deepest state (all counters at
        // max) sits at the same minimal depth in both runs.
        assert_eq!(off.stats.max_depth, canon.stats.max_depth, "{cell}");
        assert_eq!(off_options.por, off.stats.pruned_transitions > 0, "{cell}");
        assert_eq!(
            off_options.spill.is_active(),
            off.stats.spill.spilled() && canon.stats.spill.spilled(),
            "{cell}"
        );
    }
}

#[test]
fn decanonicalized_traces_replay_on_the_original_spec() {
    // The violating multiset {1, 2, 2} is reachable at depth 5; BFS must report the
    // same minimal depth with and without symmetry, and the symmetric run's witness —
    // recorded as a chain of canonical forms — must replay as a real execution.
    let spec = workers_spec(3, 3, Some(vec![1, 2, 2]));
    for (off_options, canon_options, cell) in cell_pairs() {
        let off = check_bfs(&spec, &off_options);
        let canon = check_bfs(&spec, &canon_options);
        let (v_off, v_canon) = (
            off.first_violation().expect("off finds the violation"),
            canon.first_violation().expect("canonicalize finds it too"),
        );
        assert_eq!(v_off.invariant, v_canon.invariant, "{cell}");
        assert_eq!(
            v_off.depth, v_canon.depth,
            "minimal depth is preserved ({cell})"
        );
        assert_eq!(v_canon.trace.depth() as u32, v_canon.depth, "{cell}");
        // Step-by-step replay through `Spec::successors` on the original spec: every
        // consecutive pair must be one of its labelled transitions.
        for w in v_canon.trace.steps.windows(2) {
            let successors = spec.successors(&w[0].state);
            assert!(
                successors
                    .iter()
                    .any(|(l, s)| *l == w[1].action && *s == w[1].state),
                "step {:?} -> {:?} via {} is not a transition of the original spec \
                 ({cell})",
                w[0].state,
                w[1].state,
                w[1].action
            );
        }
        // And the replayed endpoint still violates the invariant.
        assert!(
            !spec
                .violated_invariants(v_canon.trace.last_state().unwrap())
                .is_empty(),
            "{cell}"
        );
    }
}

#[test]
fn symmetry_mode_is_a_no_op_without_an_attached_group() {
    // A spec without `Spec::symmetry` must explore identically whatever the mode, so
    // selecting symmetry is safe for asymmetric models.
    let mut spec = workers_spec(2, 3, None);
    spec.symmetry = None;
    for (off_options, canon_options, cell) in cell_pairs() {
        let off = check_bfs(&spec, &off_options);
        let canon = check_bfs(&spec, &canon_options);
        assert_eq!(
            off.stats.distinct_states, canon.stats.distinct_states,
            "{cell}"
        );
        assert_eq!(off.stats.transitions, canon.stats.transitions, "{cell}");
    }
}

#[test]
fn parallel_symmetric_runs_agree_with_sequential() {
    let spec = workers_spec(3, 4, None);
    for (_, options, cell) in cell_pairs() {
        let seq = check_bfs(&spec, &options);
        let par = check_bfs(&spec, &options.with_workers(4));
        assert_eq!(
            seq.stats.distinct_states, par.stats.distinct_states,
            "{cell}"
        );
        assert_eq!(seq.stats.transitions, par.stats.transitions, "{cell}");
        assert_eq!(seq.stats.max_depth, par.stats.max_depth, "{cell}");
    }
}

//! Property tests of the checker's deterministic building blocks, via the vendored
//! `proptest` stand-in: state fingerprinting, the SplitMix64 generator, and the
//! coverage-prefix accounting the guided explorer biases on.
//!
//! Everything the parallel engines rely on for cross-worker reproducibility is a
//! *property*, not an example: fingerprints must be pure functions of state value,
//! RNG streams must be pure functions of the seed, and bounded draws must stay in
//! bounds for every bound — so these are checked over generated inputs rather than
//! hand-picked cases.

use proptest::prelude::*;

use remix_checker::{fingerprint, CheckerRng, CoverageMap};
use remix_spec::action_name;

proptest! {
    /// Fingerprints are stable across clones: hashing is a pure function of the state
    /// value, so a clone (and a structurally equal rebuild) fingerprints identically.
    #[test]
    fn fingerprint_is_stable_across_clones(
        n in 0u64..1_000_000,
        tags in proptest::collection::vec(0u8..255, 0..12),
    ) {
        let state = (n, tags);
        let cloned = state.clone();
        prop_assert_eq!(fingerprint(&state), fingerprint(&cloned));
        // A structurally equal value built independently also agrees.
        let rebuilt = (state.0, state.1.clone());
        prop_assert_eq!(fingerprint(&state), fingerprint(&rebuilt));
    }

    /// Simple perturbations of a state produce distinct fingerprints (collisions over
    /// a 128-bit space are possible in principle but must not occur on neighbours).
    #[test]
    fn fingerprint_separates_neighbouring_states(n in 0u64..1_000_000) {
        prop_assert_ne!(fingerprint(&n), fingerprint(&(n + 1)));
        prop_assert_ne!(fingerprint(&(n, 0u8)), fingerprint(&(n, 1u8)));
        // The two 64-bit halves come from independently perturbed hashers.
        let fp = fingerprint(&n);
        prop_assert_ne!(fp.0, fp.1);
    }

    /// Equal seeds yield byte-identical streams; different seeds diverge within a few
    /// draws (SplitMix64 has no short cycles on neighbouring seeds).
    #[test]
    fn rng_streams_are_determined_by_the_seed(seed in 0u64..u64::MAX) {
        let mut a = CheckerRng::seed_from_u64(seed);
        let mut b = CheckerRng::seed_from_u64(seed);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        prop_assert_eq!(&xs, &ys);
        let mut c = CheckerRng::seed_from_u64(seed.wrapping_add(1));
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        prop_assert_ne!(&ys, &zs);
    }

    /// Per-trace sub-streams are determined by the `(seed, index)` pair and distinct
    /// across neighbouring indices — the contract the parallel samplers stripe on.
    #[test]
    fn per_trace_streams_are_independent(seed in 0u64..u64::MAX, index in 0u64..1_000_000) {
        let mut a = CheckerRng::for_trace(seed, index);
        let mut b = CheckerRng::for_trace(seed, index);
        prop_assert_eq!(a.next_u64(), b.next_u64());
        let mut c = CheckerRng::for_trace(seed, index + 1);
        prop_assert_ne!(a.next_u64(), c.next_u64());
    }

    /// `index` always stays strictly below its bound, for any seed and any bound.
    #[test]
    fn index_is_always_in_bounds(seed in 0u64..u64::MAX, bound in 1usize..4096) {
        let mut rng = CheckerRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(rng.index(bound) < bound);
        }
    }

    /// `choose` returns `None` exactly on empty slices and otherwise an element of the
    /// slice.
    #[test]
    fn choose_respects_slice_bounds(
        seed in 0u64..u64::MAX,
        items in proptest::collection::vec(0u32..1000, 0..64),
    ) {
        let mut rng = CheckerRng::seed_from_u64(seed);
        match rng.choose(&items) {
            None => prop_assert!(items.is_empty()),
            Some(chosen) => prop_assert!(items.contains(chosen)),
        }
    }

    /// Coverage accounting is exact: `record` returns the pre-visit count and the
    /// snapshot totals equal the number of recorded visits.
    #[test]
    fn coverage_counts_every_visit(
        states in proptest::collection::vec(0u64..32, 1..64),
        prefix_bits in 1u32..64,
    ) {
        let map = CoverageMap::new(8, prefix_bits);
        for state in &states {
            let fp = fingerprint(state);
            let before = map.record(fp, "Visit(0)");
            prop_assert_eq!(map.prefix_hits(fp), before + 1);
        }
        let snap = map.snapshot();
        prop_assert_eq!(snap.total_hits, states.len() as u64);
        prop_assert_eq!(map.action_hits_total("Visit(99)"), states.len() as u64);
        prop_assert!(snap.distinct_prefixes <= states.len());
        prop_assert!(snap.max_prefix_hits <= snap.total_hits);
    }

    /// Action-definition extraction never panics and is idempotent.
    #[test]
    fn action_definition_is_idempotent(
        name in proptest::collection::vec(97u8..123, 1..8),
        arg in 0u32..100,
    ) {
        let name = String::from_utf8(name).expect("ascii");
        let label = format!("{name}({arg})");
        prop_assert_eq!(action_name(&label), name.as_str());
        prop_assert_eq!(action_name(action_name(&label)), name.as_str());
    }
}

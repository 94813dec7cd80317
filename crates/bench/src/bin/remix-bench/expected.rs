//! The hand-written expectation table every case is checked against.
//!
//! Verdicts, invariant ids and violation depths come from the paper's Table 4
//! attribution and BFS minimality; state and transition counts of the unreduced
//! exhaustive workloads are pinned only after the reference level loop
//! (`reference.rs`, written from public primitives alone) reached the same numbers as
//! `check_bfs` — never copied from the engine alone.  Counts that depend on a
//! reduction (canonical states, pruned edges, states explored before an early stop)
//! are reported and must repeat exactly across reps, but are not pinned, so a better
//! canonical form or search order is not a failure.

use crate::schema::DEFAULT_SEED;
use crate::workloads::Size;

/// How one observed count is held to the table.
#[derive(Debug, Clone, Copy)]
pub enum Pin {
    /// Must equal this value.
    Exactly(u64),
    /// Reduction-dependent: bounded by the unreduced count, otherwise free.
    AtMost(u64),
    /// Must be non-zero (the mechanism ran).
    Positive,
    /// Must equal this value when the run uses [`DEFAULT_SEED`]; skipped otherwise.
    AtDefaultSeed(u64),
}

/// The expected outcome of one case at one size.
pub struct Expectation {
    pub workload: &'static str,
    pub case: &'static str,
    pub size: Size,
    pub verdict: &'static str,
    pub pins: &'static [(&'static str, Pin)],
}

impl Expectation {
    /// The value `key` is pinned to exactly, if it is.
    pub fn pinned(&self, key: &str) -> Option<u64> {
        self.pins.iter().find_map(|(k, pin)| match pin {
            Pin::Exactly(n) if *k == key => Some(*n),
            _ => None,
        })
    }
}

/// What a case run observed: a verdict line and its deterministic counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    pub verdict: String,
    pub counts: Vec<(&'static str, u64)>,
}

impl Observed {
    /// The counter named `key` (0 when the case does not report it).
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }
}

use Pin::{AtDefaultSeed, AtMost, Exactly, Positive};

const EXHAUSTED: &str = "passes; state space exhausted";
const REFINES: &str = "refines, conclusive";
const SAMPLED: &str = "sampled";
const CONFORMS: &str = "conforms";

/// mSpec-3, `FinalFix`, 3 servers, 1 transaction, 2 crashes.
const FINE_SPACE: &[(&str, Pin)] = &[
    ("distinct_states", Exactly(221_490)),
    ("transitions", Exactly(432_409)),
    ("max_depth", Exactly(46)),
    ("violations", Exactly(0)),
];
/// mSpec-3, `FinalFix`, 3 servers, 1 transaction, 0 crashes.
const FINE_SMOKE_SPACE: &[(&str, Pin)] = &[
    ("distinct_states", Exactly(503)),
    ("transitions", Exactly(1_098)),
    ("max_depth", Exactly(24)),
    ("violations", Exactly(0)),
];
const SAMPLE_PINS: &[(&str, Pin)] = &[
    ("foreign_violations", Exactly(0)),
    ("unreplayable_witnesses", Exactly(0)),
];

pub const EXPECTED: &[Expectation] = &[
    Expectation {
        workload: "exhaust-fine",
        case: "mSpec-3",
        size: Size::Full,
        verdict: EXHAUSTED,
        pins: FINE_SPACE,
    },
    Expectation {
        workload: "exhaust-fine",
        case: "mSpec-3",
        size: Size::Smoke,
        verdict: EXHAUSTED,
        pins: FINE_SMOKE_SPACE,
    },
    Expectation {
        workload: "exhaust-election",
        case: "SysSpec",
        size: Size::Full,
        verdict: EXHAUSTED,
        pins: &[
            ("distinct_states", Exactly(65_653)),
            ("transitions", Exactly(371_369)),
            ("max_depth", Exactly(36)),
            ("violations", Exactly(0)),
        ],
    },
    Expectation {
        workload: "exhaust-election",
        case: "SysSpec",
        size: Size::Smoke,
        verdict: EXHAUSTED,
        pins: &[
            ("distinct_states", Exactly(1_605)),
            ("transitions", Exactly(4_036)),
            ("max_depth", Exactly(36)),
            ("violations", Exactly(0)),
        ],
    },
    Expectation {
        workload: "exhaust-reduced",
        case: "mSpec-3",
        size: Size::Full,
        verdict: EXHAUSTED,
        pins: &[
            ("distinct_states", AtMost(221_490)),
            ("transitions", AtMost(432_409)),
            ("pruned_transitions", Positive),
            ("violations", Exactly(0)),
        ],
    },
    Expectation {
        workload: "exhaust-reduced",
        case: "mSpec-3",
        size: Size::Smoke,
        verdict: EXHAUSTED,
        pins: &[
            ("distinct_states", AtMost(503)),
            ("transitions", AtMost(1_098)),
            ("pruned_transitions", Positive),
            ("violations", Exactly(0)),
        ],
    },
    Expectation {
        workload: "exhaust-outofcore",
        case: "mSpec-3",
        size: Size::Full,
        verdict: EXHAUSTED,
        pins: &[
            ("distinct_states", Exactly(221_490)),
            ("transitions", Exactly(432_409)),
            ("max_depth", Exactly(46)),
            ("violations", Exactly(0)),
            ("bytes_spilled", Positive),
        ],
    },
    Expectation {
        workload: "exhaust-outofcore",
        case: "mSpec-3",
        size: Size::Smoke,
        verdict: EXHAUSTED,
        pins: FINE_SMOKE_SPACE,
    },
    // Table 4: ZK-4394 is caught by I-14 on mSpec-1, ZK-3023 by I-11 and ZK-4685 by
    // I-12 on mSpec-3; BFS makes the reported depth the minimal one.
    Expectation {
        workload: "bug-hunt",
        case: "zk4394",
        size: Size::Full,
        verdict: "violates I-14; stopped at first violation",
        pins: &[
            ("violation_depth", Exactly(20)),
            ("unreplayable_witnesses", Exactly(0)),
        ],
    },
    Expectation {
        workload: "bug-hunt",
        case: "zk3023",
        size: Size::Full,
        verdict: "violates I-11; stopped at first violation",
        pins: &[
            ("violation_depth", Exactly(15)),
            ("unreplayable_witnesses", Exactly(0)),
        ],
    },
    Expectation {
        workload: "bug-hunt",
        case: "zk4685",
        size: Size::Full,
        verdict: "violates I-12; stopped at first violation",
        pins: &[
            ("violation_depth", Exactly(15)),
            ("unreplayable_witnesses", Exactly(0)),
        ],
    },
    Expectation {
        workload: "bug-hunt",
        case: "zk3023",
        size: Size::Smoke,
        verdict: "violates I-11; stopped at first violation",
        pins: &[
            ("violation_depth", Exactly(15)),
            ("unreplayable_witnesses", Exactly(0)),
        ],
    },
    Expectation {
        workload: "refine",
        case: "explore-bound",
        size: Size::Full,
        verdict: REFINES,
        pins: &[
            ("fine_states", Exactly(65_653)),
            ("coarse_states", Exactly(181)),
        ],
    },
    Expectation {
        workload: "refine",
        case: "explore-bound",
        size: Size::Smoke,
        verdict: REFINES,
        pins: &[
            ("fine_states", Exactly(1_605)),
            ("coarse_states", Exactly(139)),
        ],
    },
    Expectation {
        workload: "refine",
        case: "bookkeeping-bound",
        size: Size::Full,
        verdict: REFINES,
        pins: &[
            ("fine_states", Exactly(9_274)),
            ("coarse_states", Exactly(7_894)),
            ("fine_projections", Exactly(2_327)),
            ("edges_checked", Exactly(5_818)),
        ],
    },
    Expectation {
        workload: "refine",
        case: "bookkeeping-bound",
        size: Size::Smoke,
        verdict: REFINES,
        pins: &[
            ("fine_states", Exactly(207)),
            ("coarse_states", Exactly(181)),
            ("fine_projections", Exactly(91)),
            ("edges_checked", Exactly(224)),
        ],
    },
    // Traced pass only: 1.3 k states/s, the pathology the one-kernel item targets.
    Expectation {
        workload: "refine",
        case: "bookkeeping-heavy",
        size: Size::Full,
        verdict: REFINES,
        pins: &[
            ("fine_states", Exactly(4_211)),
            ("coarse_states", Exactly(4_107)),
            ("fine_projections", Exactly(1_873)),
            ("edges_checked", Exactly(21_000)),
        ],
    },
    Expectation {
        workload: "refine",
        case: "bookkeeping-heavy",
        size: Size::Smoke,
        verdict: REFINES,
        pins: &[
            ("fine_states", Exactly(207)),
            ("coarse_states", Exactly(181)),
        ],
    },
    Expectation {
        workload: "sample-conform",
        case: "explore-uniform",
        size: Size::Full,
        verdict: SAMPLED,
        pins: &[
            ("traces", Exactly(4_096)),
            ("steps", AtDefaultSeed(145_787)),
            ("foreign_violations", Exactly(0)),
            ("unreplayable_witnesses", Exactly(0)),
        ],
    },
    Expectation {
        workload: "sample-conform",
        case: "explore-guided",
        size: Size::Full,
        verdict: SAMPLED,
        pins: &[
            ("traces", Exactly(4_096)),
            ("steps", AtDefaultSeed(144_597)),
            ("foreign_violations", Exactly(0)),
            ("unreplayable_witnesses", Exactly(0)),
        ],
    },
    Expectation {
        workload: "sample-conform",
        case: "conformance",
        size: Size::Full,
        verdict: CONFORMS,
        pins: &[
            ("traces", Exactly(4_000)),
            ("steps", AtDefaultSeed(130_286)),
            ("discrepancies", Exactly(0)),
        ],
    },
    Expectation {
        workload: "sample-conform",
        case: "explore-uniform",
        size: Size::Smoke,
        verdict: SAMPLED,
        pins: SAMPLE_PINS,
    },
    Expectation {
        workload: "sample-conform",
        case: "explore-guided",
        size: Size::Smoke,
        verdict: SAMPLED,
        pins: SAMPLE_PINS,
    },
    Expectation {
        workload: "sample-conform",
        case: "conformance",
        size: Size::Smoke,
        verdict: CONFORMS,
        pins: &[("discrepancies", Exactly(0))],
    },
];

/// The table row of a case.
///
/// # Panics
///
/// Panics when the row is missing: every case a workload builds must have one.
pub fn expectation(workload: &str, case: &str, size: Size) -> &'static Expectation {
    EXPECTED
        .iter()
        .find(|e| e.workload == workload && e.case == case && e.size == size)
        .unwrap_or_else(|| panic!("expected.rs has no row for {workload}/{case} at {size:?}"))
}

/// Holds one observation to its table row and to the first rep's observation.
/// Returns one line per mismatch; empty means the case passed.
pub fn check(
    expected: &Expectation,
    seed: u64,
    observed: &Observed,
    first_rep: Option<&Observed>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if observed.verdict != expected.verdict {
        failures.push(format!(
            "verdict `{}`, expected `{}`",
            observed.verdict, expected.verdict
        ));
    }
    for (key, pin) in expected.pins {
        let got = observed.count(key);
        let ok = match *pin {
            Pin::Exactly(want) => got == want,
            Pin::AtMost(limit) => got <= limit,
            Pin::Positive => got > 0,
            Pin::AtDefaultSeed(want) => seed != DEFAULT_SEED || got == want,
        };
        if !ok {
            failures.push(format!("{key} = {got}, expected {pin:?}"));
        }
    }
    if let Some(first) = first_rep {
        if first != observed {
            failures.push(format!(
                "differs from the first rep: {observed:?} vs {first:?}"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed(verdict: &str, counts: &[(&'static str, u64)]) -> Observed {
        Observed {
            verdict: verdict.to_owned(),
            counts: counts.to_vec(),
        }
    }

    #[test]
    fn every_pin_kind_is_enforced() {
        let row = Expectation {
            workload: "w",
            case: "c",
            size: Size::Smoke,
            verdict: "ok",
            pins: &[
                ("a", Exactly(3)),
                ("b", AtMost(10)),
                ("c", Positive),
                ("d", AtDefaultSeed(5)),
            ],
        };
        let good = observed("ok", &[("a", 3), ("b", 7), ("c", 1), ("d", 5)]);
        assert!(check(&row, DEFAULT_SEED, &good, Some(&good)).is_empty());
        let bad = observed("nope", &[("a", 4), ("b", 11), ("c", 0), ("d", 6)]);
        assert_eq!(check(&row, DEFAULT_SEED, &bad, None).len(), 5);
        // Seeded pins are skipped for other seeds; everything else still applies.
        assert_eq!(check(&row, DEFAULT_SEED + 1, &bad, None).len(), 4);
        // A count that moves between reps fails even when no pin names it.
        let drifted = observed("ok", &[("a", 3), ("b", 8), ("c", 1), ("d", 5)]);
        assert_eq!(check(&row, DEFAULT_SEED, &drifted, Some(&good)).len(), 1);
    }

    #[test]
    fn rows_are_unique() {
        for (i, a) in EXPECTED.iter().enumerate() {
            for b in &EXPECTED[i + 1..] {
                assert!(
                    (a.workload, a.case, a.size) != (b.workload, b.case, b.size),
                    "{}/{} listed twice",
                    a.workload,
                    a.case
                );
            }
        }
    }
}

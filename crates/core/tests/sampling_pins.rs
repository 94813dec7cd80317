//! Seeded sampling walks and conformance reports, pinned.
//!
//! The `sample-conform` workload pins only trace counts and step totals; these pins
//! hold every label and every state of the walks themselves.  For seeds `0..32` on
//! that workload's explore configuration (mSpec-3 on `ClusterConfig::explore(V391)`,
//! 60 steps), [`WALK_PINS`] holds an FNV-1a 64 digest of each walk's labels and state
//! fingerprints for `simulate_one`, for uniform `explore_one` and for guided
//! `explore_one` (one coverage map shared by the 32 walks of each mode, so the guided
//! pin also holds the coverage bias).  [`CONFORM_PINS`] holds small uniform
//! conformance reports on `ClusterConfig::small(V391).with_crashes(0)`: mSpec-3, which
//! conforms, and mSpec-1, whose asynchronous commit diverges from the code.

use remix_checker::explore::{DEFAULT_COVERAGE_SHARDS, DEFAULT_PREFIX_BITS};
use remix_checker::{explore_one, simulate_one, CheckerRng, CoverageMap, Guidance};
use remix_core::{ConformanceChecker, ConformanceOptions};
use remix_spec::{fingerprint, Trace};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

/// Per mode (`simulate_one`, uniform `explore_one`, guided `explore_one`): steps taken
/// over the 32 walks, and the digest of their labels and state fingerprints.
const WALK_PINS: [(usize, u64); 3] = [
    (1_137, 0xc1d2_79dd_45a3_7a0a),
    (1_137, 0xc1d2_79dd_45a3_7a0a),
    (1_101, 0xd5d1_0db4_2577_37a7),
];

/// Per preset (mSpec-3, mSpec-1): traces checked, steps replayed, discrepancies, and
/// the digest of the discrepancies' `Debug` text.
const CONFORM_PINS: [(usize, usize, usize, u64); 2] = [
    (64, 2_202, 0, 0x0961_2b07_b5ec_b5a5),
    (64, 1_035, 491, 0x2d5e_e102_9e74_ee80),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn trace(&mut self, trace: &Trace<ZabState>) {
        for step in &trace.steps {
            let fp = fingerprint(&step.state);
            self.bytes(step.action.as_bytes());
            self.bytes(&[0]);
            self.bytes(&fp.0.to_le_bytes());
            self.bytes(&fp.1.to_le_bytes());
        }
        self.bytes(&[0xff]);
    }
}

#[test]
fn seeded_walks_are_pinned() {
    let spec = SpecPreset::MSpec3.build(&ClusterConfig::explore(CodeVersion::V391));
    let mut seen = Vec::new();
    for mode in 0..3 {
        let coverage = CoverageMap::new(DEFAULT_COVERAGE_SHARDS, DEFAULT_PREFIX_BITS);
        let mut digest = Fnv::new();
        let mut steps = 0;
        for seed in 0..32 {
            let mut rng = CheckerRng::seed_from_u64(seed);
            let trace = match mode {
                0 => simulate_one(&spec, 60, &mut rng),
                1 => explore_one(&spec, 60, &mut rng, &coverage, Guidance::Uniform, None),
                _ => explore_one(
                    &spec,
                    60,
                    &mut rng,
                    &coverage,
                    Guidance::CoverageGuided { rarity_weight: 24 },
                    None,
                ),
            };
            steps += trace.depth();
            digest.trace(&trace);
        }
        seen.push((steps, digest.0));
    }
    let printed: Vec<String> = seen
        .iter()
        .map(|(n, d)| format!("({n}, {d:#018x})"))
        .collect();
    assert_eq!(seen, WALK_PINS, "observed: [{}]", printed.join(", "));
}

#[test]
fn small_conformance_reports_are_pinned() {
    let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
    let checker = ConformanceChecker::new(config);
    let options = ConformanceOptions {
        traces: 64,
        max_depth: 40,
        seed: 7,
        workers: 1,
        time_budget: None,
        guidance: Guidance::Uniform,
        shrink_divergences: false,
    };
    let mut seen = Vec::new();
    for preset in [SpecPreset::MSpec3, SpecPreset::MSpec1] {
        let report = checker.check(&preset.build(&config), &options);
        let mut digest = Fnv::new();
        digest.bytes(format!("{:?}", report.discrepancies).as_bytes());
        seen.push((
            report.traces_checked,
            report.steps_replayed,
            report.discrepancies.len(),
            digest.0,
        ));
    }
    let printed: Vec<String> = seen
        .iter()
        .map(|(t, s, n, d)| format!("({t}, {s}, {n}, {d:#018x})"))
        .collect();
    assert_eq!(seen, CONFORM_PINS, "observed: [{}]", printed.join(", "));
}

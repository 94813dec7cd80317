//! Cross-granularity refinement checking, end to end: the coarse compositions
//! simulate the finer ones, a deliberately broken coarse action is caught with a
//! shrunk fine-trace witness, and the differential version matrix localizes every
//! injected bug to the module that carries it.
//!
//! Every check runs in two store cells (see `cells`): verdicts and witnesses must
//! not depend on going out of core.  These are expensive dual state-space
//! explorations; like `guided_explore_zab.rs` they are release-gated.

use std::sync::Arc;
use std::time::Duration;

use remix_checker::{
    check_refinement, replay_labels, DivergenceKind, RefineOptions, RefineVerdict, SpillConfig,
};
use remix_core::Verifier;
use remix_spec::{CompositionPlan, Granularity, Offer, Sink};
use remix_zab::modules::{BROADCAST, DISCOVERY, ELECTION, SYNCHRONIZATION};
use remix_zab::{
    coarse_vs_baseline, ClusterConfig, CodeVersion, ServerState, SpecPreset, ZabState,
};

fn options() -> RefineOptions {
    RefineOptions::default().with_time_budget(Duration::from_secs(120))
}

/// The store cells each check runs in: in RAM, and under a 1 MiB budget, which sends
/// the larger explorations' fingerprint sets to disk runs.
fn cells(base: RefineOptions) -> [RefineOptions; 2] {
    [
        base.clone(),
        base.with_spill(SpillConfig::in_ram().with_budget_bytes(1 << 20)),
    ]
}

/// The action labels of a divergence witness.
fn witness_labels<S>(divergence: &remix_checker::RefineDivergence<S>) -> Vec<String> {
    divergence
        .witness
        .action_labels()
        .iter()
        .map(|l| l.to_string())
        .collect()
}

/// A cell's name for assertion messages.
fn cell_name(options: &RefineOptions) -> String {
    format!("budget {:?}", options.spill.budget_bytes)
}

/// The FineAtomic counterpart of the system specification: the NEWLEADER handshake
/// split into epoch-update and logging steps, everything else at baseline.
fn fine_atomic_plan() -> CompositionPlan {
    CompositionPlan::new("fSpec-atom")
        .with(ELECTION, Granularity::Baseline)
        .with(DISCOVERY, Granularity::Baseline)
        .with(SYNCHRONIZATION, Granularity::FineAtomic)
        .with(BROADCAST, Granularity::Baseline)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn coarse_election_refines_baseline_conclusively() {
    // The tentpole acceptance check: mSpec-1 (the Figure 5b coarsening) simulates
    // SysSpec under the election/discovery projection, conclusively (both sides
    // explored to exhaustion), in full simulation mode — for a buggy and a fixed
    // version (the election coarsening is orthogonal to the sync-level bug flags).
    for version in [CodeVersion::V391, CodeVersion::FinalFix] {
        let config = ClusterConfig {
            max_transactions: 1,
            max_crashes: 0,
            ..ClusterConfig::small(version)
        };
        for options in cells(options()) {
            let cell = cell_name(&options);
            let run = Verifier::new(config)
                .check_refinement(SpecPreset::SysSpec, SpecPreset::MSpec1, &options)
                .expect("presets form a refinement pair");
            assert_eq!(
                run.refines(),
                Some(true),
                "{version:?}, {cell}: {}",
                run.outcome
            );
            assert!(
                run.outcome.conclusive(),
                "{version:?}, {cell} must be conclusive"
            );
            assert!(run.outcome.stats.fine_states > run.outcome.stats.coarse_states);
            assert_eq!(
                run.outcome.stats.fine_spill.spilled(),
                options.spill.is_active(),
                "the budget cell's fine side goes out of core ({cell}): {:?}",
                run.outcome.stats.fine_spill
            );
            assert_eq!(
                run.outcome.stats.fine_projections, run.outcome.stats.coarse_projections,
                "the stable projected state spaces coincide exactly ({cell})"
            );
            let row = run.row();
            assert!(row.verdict == "refines" && row.conclusive);
            assert!(row.to_json().contains("\"verdict\":\"refines\""));
        }
    }
}

/// Checks `fine` ⊑ `coarse` at one and two workers, in RAM and spilled, against the
/// one-worker in-RAM figures: `(fine, coarse)` states, `(fine, coarse)` projections,
/// edges checked, and both sides complete.
fn assert_counts_in_every_cell(
    config: ClusterConfig,
    fine: SpecPreset,
    coarse: SpecPreset,
    expected: (usize, usize, usize, usize, usize),
) {
    for base in cells(options()) {
        for workers in [1, 2] {
            let options = base.clone().with_workers(workers);
            let cell = cell_name(&options);
            let run = Verifier::new(config)
                .check_refinement(fine, coarse, &options)
                .expect("presets form a refinement pair");
            let stats = &run.outcome.stats;
            assert_eq!(
                run.outcome.verdict(),
                RefineVerdict::Refines,
                "{cell}, {workers} workers: {}",
                run.outcome
            );
            assert!(stats.fine_complete && stats.coarse_complete, "{cell}");
            assert_eq!(
                (
                    stats.fine_states,
                    stats.coarse_states,
                    stats.fine_projections,
                    stats.coarse_projections,
                    stats.edges_checked,
                ),
                expected,
                "{cell}, {workers} workers"
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn explore_bound_counts_are_independent_of_workers_and_spilling() {
    // SysSpec ⊑ mSpec-1, the refine workload's explore-bound pair: a one-worker run
    // folds its context sets in one order, a two-worker run (the levels past 64 states
    // are fork-joins) in another, and the set ids follow that order.  No count and no
    // verdict may: every cell and worker count reports the one-worker in-RAM figures.
    let config = ClusterConfig {
        max_transactions: 1,
        max_crashes: 0,
        ..ClusterConfig::small(CodeVersion::V391)
    };
    let expected = (65_653, 181, 181, 181, 441);
    assert_counts_in_every_cell(config, SpecPreset::SysSpec, SpecPreset::MSpec1, expected);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn bookkeeping_bound_counts_are_independent_of_workers_and_spilling() {
    // mSpec-2 ⊑ mSpec-1 under one crash, the refine workload's bookkeeping-bound pair:
    // 2,327 projections and 5,818 quotient edges on each side, so what the barriers
    // fold — projections, edges, lsets and their representatives — is most of the
    // work, and workers drop most dedup hits before the barrier.  Neither the fold
    // order of two workers nor a spilled store may move a count or the verdict.
    let config = ClusterConfig::small(CodeVersion::V391)
        .with_transactions(1)
        .with_crashes(1);
    let expected = (9_274, 7_894, 2_327, 2_327, 5_818);
    assert_counts_in_every_cell(config, SpecPreset::MSpec2, SpecPreset::MSpec1, expected);
}

/// The shrunk witness of the crash-interrupted election round: the stock mSpec-1
/// election cannot reach the stable projection it ends in.
const INTERRUPTED_ROUND: [&str; 21] = [
    "FLEBroadcastNotification(1)",
    "FLEReceiveNotification(0, 1)",
    "FLEBroadcastNotification(0)",
    "FLEReceiveNotification(1, 0)",
    "FLEDecide(0)",
    "FLEDecide(1)",
    "ConnectAndFollowerSendFOLLOWERINFO(0, 1)",
    "LeaderProcessFOLLOWERINFO(1, 0)",
    "FollowerProcessLEADERINFO(0, 1)",
    "NodeCrash(1)",
    "NodeRestart(1)",
    "FLEBroadcastNotification(2)",
    "FLEReceiveNotification(1, 2)",
    "FLEBroadcastNotification(1)",
    "FLEReceiveNotification(2, 1)",
    "FLEDecide(1)",
    "FLEDecide(2)",
    "ConnectAndFollowerSendFOLLOWERINFO(1, 2)",
    "LeaderProcessFOLLOWERINFO(2, 1)",
    "FollowerProcessLEADERINFO(1, 2)",
    "LeaderProcessACKEPOCH(2, 1)",
];

/// The shrunk witness of the gap the fault-complete election leaves: an unmatched
/// stabilization step, which exercises the edge representatives and the reachability
/// queries of the shrink oracle.
const FAULT_COMPLETE_GAP: [&str; 23] = [
    "FLEBroadcastNotification(2)",
    "FLEReceiveNotification(0, 2)",
    "FLEReceiveNotification(1, 2)",
    "FLEBroadcastNotification(1)",
    "FLEReceiveNotification(2, 1)",
    "FLEDecide(1)",
    "FLEDecide(2)",
    "ConnectAndFollowerSendFOLLOWERINFO(1, 2)",
    "LeaderProcessFOLLOWERINFO(2, 1)",
    "FollowerProcessLEADERINFO(1, 2)",
    "LeaderProcessACKEPOCH(2, 1)",
    "LeaderSyncFollower(2, 1)",
    "FollowerProcessSyncPackets(1, 2)",
    "FollowerProcessNEWLEADER(1, 2)",
    "LeaderProcessACKLD(2, 1)",
    "NodeCrash(1)",
    "NodeRestart(1)",
    "FLEBroadcastNotification(0)",
    "FLEReceiveNotification(2, 0)",
    "FLEDecide(0)",
    "ConnectAndFollowerSendFOLLOWERINFO(0, 2)",
    "LeaderProcessFOLLOWERINFO(2, 0)",
    "FollowerProcessLEADERINFO(0, 2)",
];

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn coarse_election_under_crashes_diverges_until_fault_completed() {
    // Under a crash budget the baseline election can be interrupted mid-discovery,
    // leaving followers durably joined to an epoch whose leader never committed it.
    // The paper-faithful atomic coarsening (the preset) admits no such round: the
    // checker proves the under-approximation with a concrete witness that localizes
    // to the coarsened modules.  Swapping in the fault-complete coarse Election
    // module restores refinement (bounded: the fine side is too large to exhaust).
    let config = ClusterConfig {
        max_transactions: 0,
        max_crashes: 1,
        max_epoch: 2,
        ..ClusterConfig::small(CodeVersion::V391)
    };
    let fine = SpecPreset::SysSpec.build(&config);
    let coarse = SpecPreset::MSpec1.build(&config);
    let mut completed = SpecPreset::MSpec1.build(&config);
    let cfg = std::sync::Arc::new(config);
    for module in &mut completed.modules {
        if module.module == ELECTION {
            *module = remix_zab::actions::coarse::election_module_fault_complete(&cfg);
        }
    }
    let projection = coarse_vs_baseline(&config);
    let base = RefineOptions::default()
        .with_time_budget(Duration::from_secs(150))
        .with_max_states(900_000);

    for options in cells(base) {
        let cell = cell_name(&options);
        // (a) The stock preset under-approximates: a crash-interrupted round diverges.
        let run = Verifier::new(config)
            .check_refinement(SpecPreset::SysSpec, SpecPreset::MSpec1, &options)
            .expect("presets form a refinement pair");
        let divergence = run.outcome.divergence.as_ref().expect("must diverge");
        assert_eq!(divergence.kind, DivergenceKind::MissingInCoarse, "{cell}");
        let culprits = run.culprit_modules(&fine, &coarse);
        assert!(
            culprits.contains(&ELECTION) || culprits.contains(&DISCOVERY),
            "{cell}: the witness's fine-only actions are the interrupted election round: \
             {culprits:?}"
        );
        assert!(
            divergence
                .witness
                .action_labels()
                .iter()
                .any(|l| l.starts_with("NodeCrash")),
            "{cell}: the crash is load-bearing: {:?}",
            divergence.witness.action_labels()
        );
        assert_eq!(witness_labels(divergence), INTERRUPTED_ROUND, "{cell}");

        // (b) The fault-complete module closes the witnessed gap: the same check either
        // refines within the bounds, or — in the spirit of §4.1's discrepancy-driven spec
        // refinement — moves on to a *different*, deeper fault-interleaving gap.  Either
        // way the interrupted-round interaction of (a) is now admitted by the coarse side.
        let outcome = check_refinement(&fine, &completed, &projection, &options);
        assert!(
            outcome.stats.coarse_complete,
            "{cell}: the coarse side must be exhausted for the verdict to mean anything"
        );
        match &outcome.divergence {
            None => {}
            Some(next_gap) => assert_ne!(
                next_gap.projection, divergence.projection,
                "{cell}: the interrupted-round gap itself must be closed; a remaining \
                 divergence must be a different missing interaction"
            ),
        }
        let next_gap = outcome
            .divergence
            .as_ref()
            .map(|d| (d.kind, witness_labels(d)));
        assert_eq!(
            next_gap,
            Some((
                DivergenceKind::UnmatchedStep,
                FAULT_COMPLETE_GAP.map(String::from).to_vec()
            )),
            "{cell}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn broken_coarse_action_yields_a_shrunk_fine_witness() {
    // Sabotage the coarse ElectionAndDiscovery action: "forget" that discovery
    // commits the new leader's currentEpoch.  The refinement checker must return a
    // concrete, ddmin-shrunk fine trace whose projection the broken coarse
    // composition cannot reach.
    let config = ClusterConfig {
        max_transactions: 0,
        max_crashes: 0,
        ..ClusterConfig::small(CodeVersion::V391)
    };
    let fine = SpecPreset::SysSpec.build(&config);
    let mut coarse = SpecPreset::MSpec1.build(&config);
    for module in &mut coarse.modules {
        for action in &mut module.actions {
            if action.name != "ElectionAndDiscovery" {
                continue;
            }
            let original = Arc::clone(&action.offers);
            action.offers = Arc::new(move |s: &ZabState, sink: &mut dyn Sink<ZabState>| {
                original(s, &mut |offer: Offer<'_, ZabState>| {
                    let mut inst = offer.build(s);
                    for (i, sv) in inst.next.servers.iter_mut().enumerate() {
                        if sv.state == ServerState::Leading
                            && s.servers[i].state == ServerState::Looking
                        {
                            // The bug under test: the epoch commit is dropped.
                            sv.current_epoch = s.servers[i].current_epoch;
                        }
                    }
                    sink.offer(inst.label, inst.effect, |next| *next = inst.next);
                });
            });
        }
    }
    let projection = coarse_vs_baseline(&config);
    for options in cells(options()) {
        let cell = cell_name(&options);
        let outcome = check_refinement(&fine, &coarse, &projection, &options);
        let divergence = outcome.divergence.expect("the sabotage must be caught");
        assert_eq!(divergence.kind, DivergenceKind::MissingInCoarse, "{cell}");
        assert_eq!(divergence.witness_spec, "SysSpec", "{cell}");
        assert!(
            divergence.witness.depth() <= divergence.original_depth,
            "the witness is never longer than the raw trace"
        );
        assert!(divergence.witness.depth() > 0);
        // The shrunk witness is a legal fine execution...
        let labels: Vec<String> = divergence
            .witness
            .action_labels()
            .iter()
            .map(|l| l.to_string())
            .collect();
        assert_eq!(
            labels,
            [
                "FLEBroadcastNotification(1)",
                "FLEReceiveNotification(0, 1)",
                "FLEBroadcastNotification(0)",
                "FLEReceiveNotification(1, 0)",
                "FLEDecide(0)",
                "FLEDecide(1)",
                "ConnectAndFollowerSendFOLLOWERINFO(0, 1)",
                "LeaderProcessFOLLOWERINFO(1, 0)",
                "FollowerProcessLEADERINFO(0, 1)",
                "LeaderProcessACKEPOCH(1, 0)",
            ],
            "{cell}: the shrunk witness"
        );
        let replayed = replay_labels(&fine, &fine.init[0], &labels).expect("witness replays");
        // ...that still reaches a stable projection the broken coarse spec is missing:
        // its final state has a committed leader epoch the sabotage can never produce.
        let last = replayed.last_state().expect("non-empty");
        assert!(projection.is_stable(last));
        assert!(
            last.servers
                .iter()
                .any(|sv| sv.state == ServerState::Leading && sv.current_epoch > 0),
            "the distinguishing effect is the committed leader epoch ({cell})"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn compose_checked_makes_interaction_preserved_a_checked_property() {
    let config = ClusterConfig {
        max_transactions: 1,
        max_crashes: 0,
        ..ClusterConfig::small(CodeVersion::V391)
    };
    let composer = remix_core::Composer::new(config);
    for options in cells(options()) {
        let cell = cell_name(&options);
        let composed = composer
            .compose_checked(&SpecPreset::MSpec1.plan(), &options)
            .expect("composes");
        let refinement = composed.refinement.as_ref().expect("semantic check ran");
        assert_eq!(refinement.refines(), Some(true), "{cell}");
        assert!(composed.interaction_preserved());

        // A composition with nothing coarsened skips the semantic check.
        let baseline = composer
            .compose_checked(&SpecPreset::SysSpec.plan(), &options)
            .expect("composes");
        assert!(baseline.refinement.is_none());
        assert!(baseline.interaction_preserved());
    }
}

/// One row of the differential version matrix: refinement of the fine-grained
/// (concurrency) composition against the baseline, under one code version.
fn version_row(
    version: CodeVersion,
    options: &RefineOptions,
) -> (remix_core::RefinementRun, Vec<&'static str>) {
    let config = ClusterConfig {
        max_transactions: 1,
        max_crashes: 0,
        ..ClusterConfig::small(version)
    };
    let verifier = Verifier::new(config);
    let run = verifier
        .check_refinement(SpecPreset::MSpec4, SpecPreset::SysSpec, options)
        .expect("presets form a refinement pair");
    let fine = SpecPreset::MSpec4.build(&config);
    let coarse = SpecPreset::SysSpec.build(&config);
    let culprits = run
        .culprit_modules(&fine, &coarse)
        .into_iter()
        .map(|m| m.name())
        .collect();
    (run, culprits)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn version_matrix_localizes_every_injected_bug_to_its_module() {
    // Differential version matrix, fine-grained concurrency vs baseline: every buggy
    // version exposes thread-level behaviour the baseline cannot match — e.g. the
    // ZK-3023 commit-before-log race — and the divergence witness localizes to the
    // Synchronization module that carries the injected bug.
    for version in [
        CodeVersion::V370,
        CodeVersion::V391,
        CodeVersion::MSpec3Plus,
        CodeVersion::Pr1848,
        CodeVersion::Pr1930,
        CodeVersion::Pr1993,
        CodeVersion::Pr2111,
    ] {
        for options in cells(options()) {
            let cell = cell_name(&options);
            let (run, culprits) = version_row(version, &options);
            let divergence = run
                .outcome
                .divergence
                .as_ref()
                .unwrap_or_else(|| panic!("{version:?}, {cell} must diverge: {}", run.outcome));
            assert_eq!(
                divergence.kind,
                DivergenceKind::MissingInCoarse,
                "{version:?}, {cell}: the fine composition has behaviours the baseline lacks"
            );
            assert_eq!(
                culprits,
                vec!["Synchronization"],
                "{version:?}, {cell}: the witness's fine-only actions localize the bug"
            );
            assert!(divergence.witness.depth() <= divergence.original_depth);
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn final_fix_residual_divergence_is_the_missing_uptodate_ack() {
    // Even with every modelled bug fixed, the fine-grained composition does not
    // refine to the baseline: the checker rediscovers the paper's §2.2.3 "missing
    // state transition" — the baseline omits the follower's UPTODATE acknowledgement,
    // which the implementation (and the fine spec) sends and the leader counts as a
    // proposal acknowledgement.  The witness still localizes to Synchronization.
    for options in cells(options()) {
        let cell = cell_name(&options);
        let (run, culprits) = version_row(CodeVersion::FinalFix, &options);
        let divergence = run.outcome.divergence.as_ref().expect("§2.2.3 divergence");
        assert_eq!(divergence.kind, DivergenceKind::MissingInCoarse, "{cell}");
        assert_eq!(culprits, vec!["Synchronization"], "{cell}");
        assert!(
            divergence
                .witness
                .action_labels()
                .iter()
                .any(|l| l.starts_with("FollowerProcessUPTODATE")),
            "{cell}: the witness exercises the UPTODATE path: {:?}",
            divergence.witness.action_labels()
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn fixed_versions_refine_cleanly_at_the_atomicity_granularity() {
    // The FineAtomic granularity splits the NEWLEADER handshake but keeps the
    // baseline's synchronous UPTODATE, so the §2.2.3 gap does not apply: versions
    // with the fixed epoch/logging order refine to the baseline conclusively.
    // (The buggy order differs only in crash-visible intermediate states, so it also
    // refines on a crash-free configuration — the split is timing-internal there.)
    for (version, must_be_conclusive) in [
        (CodeVersion::Pr1848, true),
        (CodeVersion::FinalFix, true),
        // The buggy ordering multiplies interleavings; its exploration may hit the
        // budget, in which case "no divergence in the explored prefix" is the verdict.
        (CodeVersion::V391, false),
    ] {
        let config = ClusterConfig {
            max_transactions: 1,
            max_crashes: 0,
            ..ClusterConfig::small(version)
        };
        for options in cells(options()) {
            let cell = cell_name(&options);
            let run = Verifier::new(config)
                .check_refinement_plans(&fine_atomic_plan(), &SpecPreset::SysSpec.plan(), &options)
                .expect("plans form a refinement pair");
            assert!(
                run.outcome.divergence.is_none(),
                "{version:?}, {cell}: {}",
                run.outcome
            );
            if must_be_conclusive {
                assert_eq!(
                    run.refines(),
                    Some(true),
                    "{version:?}, {cell}: a conclusive clean run is a definite verdict"
                );
                assert!(run.outcome.conclusive(), "{version:?}, {cell}");
                assert_eq!(
                    run.outcome.stats.fine_projections,
                    run.outcome.stats.coarse_projections
                );
            } else {
                assert_ne!(
                    run.refines(),
                    Some(false),
                    "{version:?}, {cell}: no divergence may be claimed"
                );
            }
        }
    }
}

/// An established epoch-1 cluster: leader 2 serving, follower 1 fully synced, and
/// follower 0 having acknowledged NEWLEADER *before persisting* (its
/// SyncRequestProcessor queue still holds the transaction — the ZK-4646 window that
/// arms ZK-4712).  Reachable under every version with the ack-before-persist flag
/// open, which includes both v3.9.1 and mSpec-3+.
fn established_with_loaded_queue(config: &ClusterConfig) -> remix_zab::ZabState {
    use remix_zab::{Txn, ZabPhase, ZabState, Zxid};
    let mut s = ZabState::initial(config);
    let txn = Txn::new(1, 1, 1);
    let leader = 2;
    for i in 0..3 {
        s.servers[i].accepted_epoch = 1;
        s.servers[i].current_epoch = 1;
        s.servers[i].phase = ZabPhase::Broadcast;
        s.servers[i].leader = Some(leader);
        s.servers[i].serving = true;
    }
    s.servers[leader].state = ServerState::Leading;
    s.servers[leader].established = true;
    s.servers[leader].epoch_proposed = true;
    s.servers[leader].history = vec![txn];
    s.servers[leader].last_committed = 1;
    for f in [0usize, 1] {
        s.servers[f].state = ServerState::Following;
        s.servers[f].connected = true;
        s.servers[leader].learners.insert(f);
        s.servers[leader].epoch_acks.insert(f);
        s.servers[leader].newleader_acks.insert(f);
        s.servers[leader].sync_sent.insert(f);
        s.servers[leader].learner_last_zxid.insert(f, Zxid::ZERO);
    }
    s.servers[1].history = vec![txn];
    s.servers[1].last_committed = 1;
    // Follower 0 acked before persisting: the transaction is still queued.
    s.servers[0].queued_requests = vec![txn];
    s.txns_created = config.max_transactions; // no further client requests
    s.record_establishment(1, leader, vec![]);
    s.ghost.broadcast.push(txn);
    s
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn zk4712_version_differential_localizes_to_faults_and_sync() {
    // Same granularity, different code versions: v3.9.1 and mSpec-3+ differ *only* in
    // the ZK-4712 fix (whether the SyncRequestProcessor queue survives a shutdown), so
    // a refinement check between them isolates exactly that bug.  Seeded at an
    // established cluster with follower 0's queue loaded, the buggy side reaches
    // states — the stale transaction logged after the follower rejoined a new epoch —
    // that the fixed side cannot, and the witness combines the fault action with the
    // Synchronization thread step ("ZK-4712 → faults/sync").
    let buggy_config = ClusterConfig {
        max_transactions: 1,
        max_crashes: 1,
        max_epoch: 2,
        ..ClusterConfig::small(CodeVersion::V391)
    };
    let fixed_config = ClusterConfig {
        version: CodeVersion::MSpec3Plus,
        ..buggy_config
    };
    let mut fine = SpecPreset::MSpec4.build(&buggy_config);
    let mut coarse = SpecPreset::MSpec4.build(&fixed_config);
    fine.init = vec![established_with_loaded_queue(&buggy_config)];
    coarse.init = vec![established_with_loaded_queue(&fixed_config)];
    // The granularities are equal; only the sync-thread normalization applies (queue
    // states are unstable, ACKs hidden) so thread-timing differences don't register.
    let projection = remix_zab::projection::projection(
        "ZK-4712 differential (v3.9.1 vs mSpec-3+)",
        Granularity::Baseline,
        Granularity::FineConcurrent,
        remix_zab::ProjectionSpec {
            normalize_election: false,
            normalize_sync: true,
        },
    );
    let base = RefineOptions::default().with_time_budget(Duration::from_secs(180));
    for options in cells(base) {
        let cell = cell_name(&options);
        let outcome = check_refinement(&fine, &coarse, &projection, &options);
        let divergence = outcome.divergence.as_ref().expect("ZK-4712 must diverge");
        assert_eq!(divergence.kind, DivergenceKind::MissingInCoarse, "{cell}");
        let labels = divergence.witness.action_labels();
        assert!(
            labels
                .iter()
                .any(|l| l.starts_with("FollowerShutdown") || l.starts_with("LeaderShutdown")),
            "{cell}: the fault module's shutdown is load-bearing: {labels:?}"
        );
        assert!(
            labels
                .iter()
                .any(|l| l.starts_with("FollowerSyncProcessorLogRequest")),
            "{cell}: the sync thread logging the stale request is load-bearing: {labels:?}"
        );
        assert_eq!(
            witness_labels(divergence),
            [
                "NodeCrash(2)",
                "FollowerShutdown(0)",
                "FLEBroadcastNotification(0)",
                "FollowerSyncProcessorLogRequest(0)",
            ],
            "{cell}: the shrunk witness"
        );
    }
}

//! Synchronization module, baseline (system-specification) granularity, plus the shared
//! leader-side helpers reused by the fine-grained variants.
//!
//! The baseline models the follower's NEWLEADER handling as one atomic action
//! (Figure 2b of the paper): epoch update, logging of the pending packets and the ACK are
//! a single state transition.  The leader side decides the sync mode (DIFF / TRUNC /
//! SNAP), sends the payload and NEWLEADER, collects the quorum of acknowledgements,
//! establishes the epoch and releases UPTODATE.

use remix_spec::effect::flags;
use remix_spec::{ActionDef, Effect, Granularity, Label, ModuleSpec};

use crate::modules::SYNCHRONIZATION;
use crate::state::ZabState;
use crate::types::{
    CodeViolation, Message, ServerState, Sid, SyncMode, Txn, ViolationKind, ZabPhase, Zxid,
};

use super::{eff_recv, eff_recv_reply, pairs, Cfg};

// ---------------------------------------------------------------------------------------
// Shared leader-side steps (used by both the baseline and fine-grained modules).
// ---------------------------------------------------------------------------------------

/// `true` when server `i` is an up follower of `j` still in the Synchronization phase —
/// the shared guard prefix of every in-sync message handler.
pub(crate) fn follower_in_sync(state: &ZabState, i: Sid, j: Sid) -> bool {
    let sv = &state.servers[i];
    sv.is_up()
        && sv.state == ServerState::Following
        && sv.leader == Some(j)
        && sv.phase == ZabPhase::Synchronization
}

/// The guard of [`leader_sync_follower_step`], checkable without cloning the state.
///
/// Each `*_enabled` predicate is the *single source of truth* for its action's guard:
/// the step function delegates to it, and the action closures consult it before paying
/// for a state clone — the speculative clone-per-candidate of the earlier enumeration
/// was the checker's dominant cost (most candidates are disabled in any given state).
pub(crate) fn leader_sync_follower_enabled(state: &ZabState, i: Sid, j: Sid) -> bool {
    let leader = &state.servers[i];
    leader.is_up()
        && leader.state == ServerState::Leading
        && leader.phase == ZabPhase::Synchronization
        && leader.epoch_acks.contains(&j)
        && !leader.sync_sent.contains(&j)
        && state.reachable(i, j)
}

/// Decides the synchronization payload for follower `j` and sends it followed by
/// NEWLEADER.  Returns `false` when the action is not enabled.
pub(crate) fn leader_sync_follower_step(state: &mut ZabState, i: Sid, j: Sid) -> bool {
    if !leader_sync_follower_enabled(state, i, j) {
        return false;
    }
    let follower_zxid = *state.servers[i]
        .learner_last_zxid
        .get(&j)
        .unwrap_or(&Zxid::ZERO);
    let leader_history = state.servers[i].history.clone();
    let leader_last = state.servers[i].last_zxid();
    let committed_upto = if state.servers[i].last_committed > 0 {
        state.servers[i].history[state.servers[i].last_committed - 1].zxid
    } else {
        Zxid::ZERO
    };

    let follower_point_known =
        follower_zxid == Zxid::ZERO || leader_history.iter().any(|t| t.zxid == follower_zxid);
    let payload = if follower_zxid == leader_last {
        Message::SyncPackets {
            mode: SyncMode::Diff,
            txns: Vec::new(),
            committed_upto,
            trunc_to: Zxid::ZERO,
        }
    } else if follower_zxid > leader_last {
        Message::SyncPackets {
            mode: SyncMode::Trunc,
            txns: Vec::new(),
            committed_upto,
            trunc_to: leader_last,
        }
    } else if follower_point_known {
        let txns: Vec<Txn> = leader_history
            .iter()
            .filter(|t| t.zxid > follower_zxid)
            .copied()
            .collect();
        Message::SyncPackets {
            mode: SyncMode::Diff,
            txns,
            committed_upto,
            trunc_to: Zxid::ZERO,
        }
    } else {
        Message::SyncPackets {
            mode: SyncMode::Snap,
            txns: leader_history.clone(),
            committed_upto,
            trunc_to: Zxid::ZERO,
        }
    };

    let epoch = state.servers[i].accepted_epoch;
    state.servers[i].sync_sent.insert(j);
    state.send(i, j, payload);
    state.send(
        i,
        j,
        Message::NewLeader {
            epoch,
            zxid: leader_last,
        },
    );
    true
}

/// Establishes the leader's epoch after a quorum of NEWLEADER acknowledgements: commits
/// its whole history, records the ghost establishment, sends COMMITs for the
/// newly-committed tail followed by UPTODATE to every acknowledged follower.
pub(crate) fn establish_leader(state: &mut ZabState, i: Sid) {
    let epoch = state.servers[i].accepted_epoch;
    let history = state.servers[i].history.clone();
    let newly_committed: Vec<Zxid> = state.servers[i].history[state.servers[i].last_committed..]
        .iter()
        .map(|t| t.zxid)
        .collect();
    state.servers[i].current_epoch = epoch;
    state.servers[i].last_committed = state.servers[i].history.len();
    state.servers[i].established = true;
    state.servers[i].phase = ZabPhase::Broadcast;
    state.servers[i].serving = true;
    state.record_establishment(epoch, i, history);

    let last_zxid = state.servers[i].last_zxid();
    let followers = state.servers[i].newleader_acks;
    for f in followers.iter() {
        // ZooKeeper sends the commits of the leader's initial history before UPTODATE;
        // this ordering is what exposes ZK-4394 on followers still in synchronization.
        for z in &newly_committed {
            state.send(i, f, Message::Commit { zxid: *z });
        }
        state.send(i, f, Message::UpToDate { zxid: last_zxid });
    }
}

/// The guard of [`leader_process_ackld_step`], checkable without cloning the state.
pub(crate) fn leader_process_ackld_enabled(state: &ZabState, i: Sid, j: Sid) -> bool {
    state.servers[i].is_up()
        && state.servers[i].state == ServerState::Leading
        && state.servers[i].phase == ZabPhase::Synchronization
        && matches!(state.head(j, i), Some(Message::Ack { .. }))
}

/// Handles an ACK received by a leader that is still in the Synchronization phase.
/// Returns `false` when not enabled.
pub(crate) fn leader_process_ackld_step(cfg: &Cfg, state: &mut ZabState, i: Sid, j: Sid) -> bool {
    if !leader_process_ackld_enabled(state, i, j) {
        return false;
    }
    let Some(Message::Ack { zxid }) = state.head(j, i) else {
        return false;
    };
    let zxid = *zxid;
    state.pop(j, i);
    let newleader_zxid = state.servers[i].last_zxid();
    if zxid == newleader_zxid {
        state.servers[i].newleader_acks.insert(j);
        let mut acked = state.servers[i].newleader_acks;
        acked.insert(i);
        if state.is_quorum(&acked) && !state.servers[i].established {
            establish_leader(state, i);
        }
    } else if cfg.bugs().leader_rejects_early_proposal_ack {
        // ZK-4685: the leader cannot match the acknowledgement while collecting NEWLEADER
        // acks; the real implementation throws and shuts down synchronization.
        state.record_violation(CodeViolation {
            kind: ViolationKind::BadAck,
            instance: 1,
            server: i,
            issue: "ZK-4685",
        });
    } else {
        // Tolerant behaviour (PR-1993 / final fix): remember the proposal acknowledgement.
        state.servers[i]
            .pending_acks
            .entry(zxid)
            .or_default()
            .insert(j);
    }
    true
}

/// The guard of [`follower_commit_in_sync_step`], checkable without cloning the state.
pub(crate) fn follower_commit_in_sync_enabled(state: &ZabState, i: Sid, j: Sid) -> bool {
    follower_in_sync(state, i, j) && matches!(state.head(j, i), Some(Message::Commit { .. }))
}

/// Handles a COMMIT received by a follower that is still in the Synchronization phase
/// (after NEWLEADER, before UPTODATE).  Returns `false` when not enabled.
pub(crate) fn follower_commit_in_sync_step(
    cfg: &Cfg,
    state: &mut ZabState,
    i: Sid,
    j: Sid,
) -> bool {
    if !follower_commit_in_sync_enabled(state, i, j) {
        return false;
    }
    let Some(Message::Commit { zxid }) = state.head(j, i) else {
        return false;
    };
    let zxid = *zxid;
    state.pop(j, i);
    let sv = &mut state.servers[i];
    if let Some(pos) = sv.packets_not_committed.iter().position(|t| t.zxid == zxid) {
        // Matches a pending proposal received during synchronization.
        if pos == 0 {
            sv.packets_committed.push(zxid);
        } else {
            // Out-of-order commit relative to the pending packets.
            state.record_violation(CodeViolation {
                kind: ViolationKind::BadCommit,
                instance: 2,
                server: i,
                issue: "out-of-order commit during sync",
            });
        }
    } else if sv.history.iter().any(|t| t.zxid == zxid)
        || sv.queued_requests.iter().any(|t| t.zxid == zxid)
    {
        // The transaction was already logged (DIFF payload handled at NEWLEADER) or is
        // queued for logging; remember the commit for delivery at UPTODATE.
        sv.packets_committed.push(zxid);
    } else if cfg.bugs().commit_in_sync_nullpointer && !cfg.mask_zk4394 {
        // ZK-4394: Learner.syncWithLeader cannot match the COMMIT and raises a
        // NullPointerException, aborting data recovery.
        state.record_violation(CodeViolation {
            kind: ViolationKind::BadCommit,
            instance: 1,
            server: i,
            issue: "ZK-4394",
        });
    } else {
        // Masked (§4.1) or fixed: the commit is dropped and recovery continues.
    }
    true
}

/// The guard of [`follower_proposal_in_sync_step`], checkable without cloning the state.
pub(crate) fn follower_proposal_in_sync_enabled(state: &ZabState, i: Sid, j: Sid) -> bool {
    follower_in_sync(state, i, j) && matches!(state.head(j, i), Some(Message::Proposal { .. }))
}

/// Handles a PROPOSAL received by a follower that is still in the Synchronization phase:
/// the proposal joins the pending packets and is logged at NEWLEADER / UPTODATE time.
pub(crate) fn follower_proposal_in_sync_step(state: &mut ZabState, i: Sid, j: Sid) -> bool {
    if !follower_proposal_in_sync_enabled(state, i, j) {
        return false;
    }
    let Some(Message::Proposal { txn }) = state.head(j, i) else {
        return false;
    };
    let txn = *txn;
    state.pop(j, i);
    state.servers[i].packets_not_committed.push(txn);
    true
}

/// The guard of [`follower_process_sync_packets_step`], checkable without cloning.
pub(crate) fn follower_process_sync_packets_enabled(state: &ZabState, i: Sid, j: Sid) -> bool {
    follower_in_sync(state, i, j) && matches!(state.head(j, i), Some(Message::SyncPackets { .. }))
}

/// Applies a SyncPackets payload on the follower.  Returns `false` when not enabled.
pub(crate) fn follower_process_sync_packets_step(state: &mut ZabState, i: Sid, j: Sid) -> bool {
    if !follower_process_sync_packets_enabled(state, i, j) {
        return false;
    }
    let Some(Message::SyncPackets {
        mode,
        txns,
        committed_upto,
        trunc_to,
    }) = state.pop(j, i)
    else {
        return false;
    };
    let sv = &mut *state.servers[i];
    match mode {
        SyncMode::Diff => {
            // Transactions the follower already has and that are now known committed.
            for t in &sv.history[sv.last_committed..] {
                if t.zxid <= committed_upto {
                    sv.packets_committed.push(t.zxid);
                }
            }
            for t in txns {
                sv.packets_not_committed.push(t);
                if t.zxid <= committed_upto {
                    sv.packets_committed.push(t.zxid);
                }
            }
        }
        SyncMode::Trunc => {
            sv.history.retain(|t| t.zxid <= trunc_to);
            sv.last_committed = sv.last_committed.min(sv.history.len());
        }
        SyncMode::Snap => {
            sv.history = txns;
            sv.last_committed = sv
                .history
                .iter()
                .filter(|t| t.zxid <= committed_upto)
                .count();
            sv.packets_not_committed.clear();
            sv.packets_committed.clear();
        }
    }
    true
}

/// Commits everything the follower learned during synchronization and moves it to the
/// Broadcast phase (the baseline, synchronous-commit semantics of UPTODATE).
pub(crate) fn follower_uptodate_commit(state: &mut ZabState, i: Sid, uptodate_zxid: Zxid) {
    let sv = &mut state.servers[i];
    // Any packets still pending (proposals that arrived after NEWLEADER) are logged now.
    let pending: Vec<Txn> = sv.packets_not_committed.drain(..).collect();
    sv.history.extend(pending);
    let committed: std::collections::BTreeSet<Zxid> = sv.packets_committed.drain(..).collect();
    let mut committed_len = sv.last_committed;
    for (idx, t) in sv.history.iter().enumerate() {
        if t.zxid <= uptodate_zxid || committed.contains(&t.zxid) {
            committed_len = committed_len.max(idx + 1);
        }
    }
    sv.last_committed = committed_len.min(sv.history.len());
    sv.phase = ZabPhase::Broadcast;
    sv.serving = true;
}

// ---------------------------------------------------------------------------------------
// Baseline actions.
// ---------------------------------------------------------------------------------------

fn leader_sync_follower(_cfg: &Cfg, granularity: Granularity) -> ActionDef<ZabState> {
    ActionDef::new(
        "LeaderSyncFollower",
        SYNCHRONIZATION,
        granularity,
        // `sync_sent` (the per-learner "NEWLEADER sent" bookkeeping the guard reads
        // and the step inserts into) folds under `ackldRecv`: both sides of the
        // NEWLEADER exchange live in the same variable, like `learner_last_zxid`
        // folds under `ackeRecv`/`learners` in the Discovery module.
        vec![
            "state",
            "zabState",
            "ackeRecv",
            "ackldRecv",
            "history",
            "lastCommitted",
        ],
        vec!["msgs", "ackldRecv"],
        |s: &ZabState, sink| {
            for (i, j) in pairs(s) {
                if !leader_sync_follower_enabled(s, i, j) {
                    continue;
                }
                sink.offer(
                    Label::new("LeaderSyncFollower").arg(i).arg(j),
                    Effect::new().writes_server(i).writes_channel(i, j),
                    |next| {
                        leader_sync_follower_step(next, i, j);
                    },
                );
            }
        },
    )
}

fn follower_process_sync_packets(_cfg: &Cfg, granularity: Granularity) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerProcessSyncPackets",
        SYNCHRONIZATION,
        granularity,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "history",
            "lastCommitted",
            "msgs",
        ],
        vec!["history", "lastCommitted", "packetsSync", "msgs"],
        |s: &ZabState, sink| {
            for (i, j) in pairs(s) {
                if !follower_process_sync_packets_enabled(s, i, j) {
                    continue;
                }
                sink.offer(
                    Label::new("FollowerProcessSyncPackets").arg(i).arg(j),
                    eff_recv(i, j),
                    |next| {
                        follower_process_sync_packets_step(next, i, j);
                    },
                );
            }
        },
    )
}

/// The baseline, atomic `FollowerProcessNEWLEADER` of Figure 2b: epoch update, logging of
/// the pending packets and the acknowledgement in one step.
fn follower_process_newleader_atomic(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerProcessNEWLEADER",
        SYNCHRONIZATION,
        Granularity::Baseline,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "acceptedEpoch",
            "currentEpoch",
            "packetsSync",
            "msgs",
        ],
        vec![
            "currentEpoch",
            "history",
            "packetsSync",
            "msgs",
            "state",
            "zabState",
        ],
        |s: &ZabState, sink| {
            for (i, j) in pairs(s) {
                let sv = &s.servers[i];
                if !sv.is_up()
                    || sv.state != ServerState::Following
                    || sv.leader != Some(j)
                    || sv.phase != ZabPhase::Synchronization
                {
                    continue;
                }
                let Some(Message::NewLeader { epoch, zxid }) = s.head(j, i) else {
                    continue;
                };
                let (epoch, zxid) = (*epoch, *zxid);
                sink.offer(
                    Label::new("FollowerProcessNEWLEADER").arg(i).arg(j),
                    eff_recv_reply(i, j),
                    |next| {
                        next.pop(j, i);
                        if next.servers[i].accepted_epoch == epoch {
                            let sv = &mut next.servers[i];
                            sv.current_epoch = epoch;
                            let pending: Vec<Txn> = sv.packets_not_committed.drain(..).collect();
                            sv.history.extend(pending);
                            next.send(i, j, Message::Ack { zxid });
                        } else {
                            next.servers[i].shutdown_to_looking(i, true);
                        }
                    },
                );
            }
        },
    )
}

fn leader_process_ackld(cfg: &Cfg, granularity: Granularity) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "LeaderProcessACKLD",
        SYNCHRONIZATION,
        granularity,
        vec![
            "state",
            "zabState",
            "ackldRecv",
            "history",
            "lastCommitted",
            "msgs",
        ],
        vec![
            "ackldRecv",
            "currentEpoch",
            "lastCommitted",
            "zabState",
            "serving",
            "msgs",
            "violation",
            "ghost",
            "proposalAcks",
        ],
        move |s: &ZabState, sink| {
            for (i, j) in pairs(s) {
                if !leader_process_ackld_enabled(s, i, j) {
                    continue;
                }
                // Establishing the epoch broadcasts to a state-dependent follower
                // set, records ghost bookkeeping and may record a violation.
                sink.offer(
                    Label::new("LeaderProcessACKLD").arg(i).arg(j),
                    Effect::new()
                        .writes_server(i)
                        .writes_channels_of(i)
                        .writes_flag(flags::GHOST)
                        .writes_flag(flags::VIOLATION),
                    |next| {
                        leader_process_ackld_step(&cfg, next, i, j);
                    },
                );
            }
        },
    )
}

/// The baseline UPTODATE handler: commit synchronously, start serving, do not reply
/// (the "missing state transition" of §2.2.3 — the fine-grained variant replies ACK).
fn follower_process_uptodate(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerProcessUPTODATE",
        SYNCHRONIZATION,
        Granularity::Baseline,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "packetsSync",
            "history",
            "msgs",
        ],
        vec![
            "history",
            "lastCommitted",
            "packetsSync",
            "zabState",
            "serving",
            "msgs",
        ],
        |s: &ZabState, sink| {
            for (i, j) in pairs(s) {
                let sv = &s.servers[i];
                if !sv.is_up()
                    || sv.state != ServerState::Following
                    || sv.leader != Some(j)
                    || sv.phase != ZabPhase::Synchronization
                {
                    continue;
                }
                let Some(Message::UpToDate { zxid }) = s.head(j, i) else {
                    continue;
                };
                let zxid = *zxid;
                sink.offer(
                    Label::new("FollowerProcessUPTODATE").arg(i).arg(j),
                    eff_recv(i, j),
                    |next| {
                        next.pop(j, i);
                        follower_uptodate_commit(next, i, zxid);
                    },
                );
            }
        },
    )
}

fn follower_process_commit_in_sync(cfg: &Cfg, granularity: Granularity) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "FollowerProcessCOMMITInSync",
        SYNCHRONIZATION,
        granularity,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "packetsSync",
            "history",
            "queuedRequests",
            "msgs",
        ],
        vec!["packetsSync", "msgs", "violation"],
        move |s: &ZabState, sink| {
            for (i, j) in pairs(s) {
                if !follower_commit_in_sync_enabled(s, i, j) {
                    continue;
                }
                sink.offer(
                    Label::new("FollowerProcessCOMMITInSync").arg(i).arg(j),
                    eff_recv(i, j).writes_flag(flags::VIOLATION),
                    |next| {
                        follower_commit_in_sync_step(&cfg, next, i, j);
                    },
                );
            }
        },
    )
}

fn follower_process_proposal_in_sync(_cfg: &Cfg, granularity: Granularity) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerProcessPROPOSALInSync",
        SYNCHRONIZATION,
        granularity,
        vec!["state", "zabState", "leaderAddr", "msgs"],
        vec!["packetsSync", "msgs"],
        |s: &ZabState, sink| {
            for (i, j) in pairs(s) {
                if !follower_proposal_in_sync_enabled(s, i, j) {
                    continue;
                }
                sink.offer(
                    Label::new("FollowerProcessPROPOSALInSync").arg(i).arg(j),
                    eff_recv(i, j),
                    |next| {
                        follower_proposal_in_sync_step(next, i, j);
                    },
                );
            }
        },
    )
}

/// The shared (leader-side plus in-sync message handling) actions reused by every
/// granularity of the Synchronization module.
pub(crate) fn shared_actions(cfg: &Cfg, granularity: Granularity) -> Vec<ActionDef<ZabState>> {
    vec![
        leader_sync_follower(cfg, granularity),
        follower_process_sync_packets(cfg, granularity),
        leader_process_ackld(cfg, granularity),
        follower_process_commit_in_sync(cfg, granularity),
        follower_process_proposal_in_sync(cfg, granularity),
    ]
}

/// The baseline Synchronization module specification (seven actions).
pub fn module(cfg: &Cfg) -> ModuleSpec<ZabState> {
    let mut actions = shared_actions(cfg, Granularity::Baseline);
    actions.push(follower_process_newleader_atomic(cfg));
    actions.push(follower_process_uptodate(cfg));
    ModuleSpec::new(SYNCHRONIZATION, Granularity::Baseline, actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::versions::CodeVersion;
    use std::sync::Arc;

    pub(crate) fn cfg_for(version: CodeVersion) -> Cfg {
        Arc::new(ClusterConfig::small(version))
    }

    /// A state where server 2 leads servers 0 and 1, all in Synchronization, epoch 1
    /// negotiated; the leader already has `leader_txns` in its history with
    /// `committed` of them committed.
    pub(crate) fn post_discovery(
        version: CodeVersion,
        leader_txns: u32,
        committed: usize,
    ) -> ZabState {
        let config = ClusterConfig::small(version);
        let mut s = ZabState::initial(&config);
        for i in 0..3 {
            s.servers[i].accepted_epoch = 1;
        }
        let leader = 2;
        s.servers[leader].state = ServerState::Leading;
        s.servers[leader].leader = Some(leader);
        s.servers[leader].phase = ZabPhase::Synchronization;
        s.servers[leader].current_epoch = 1;
        s.servers[leader].epoch_proposed = true;
        for c in 0..leader_txns {
            s.servers[leader].history.push(Txn::new(1, c + 1, c + 1));
        }
        s.servers[leader].last_committed = committed;
        for i in 0..2 {
            s.servers[i].state = ServerState::Following;
            s.servers[i].leader = Some(leader);
            s.servers[i].phase = ZabPhase::Synchronization;
            s.servers[i].connected = true;
            s.servers[leader].learners.insert(i);
            s.servers[leader].epoch_acks.insert(i);
            let follower_zxid = s.servers[i].last_zxid();
            s.servers[leader].learner_last_zxid.insert(i, follower_zxid);
        }
        s
    }

    fn run(module: &ModuleSpec<ZabState>, mut s: ZabState, steps: usize) -> ZabState {
        for _ in 0..steps {
            let Some(inst) = module.actions.iter().flat_map(|a| a.enabled(&s)).next() else {
                break;
            };
            s = inst.next;
        }
        s
    }

    #[test]
    fn full_synchronization_round_establishes_the_epoch() {
        // No client transactions: this test only exercises the synchronization round.
        let cfg = Arc::new(ClusterConfig::small(CodeVersion::V391).with_transactions(0));
        // Late NEWLEADER acknowledgements (after the epoch is established) are handled by
        // the Broadcast module, so compose both modules as a mixed run would.
        let mut m = module(&cfg);
        m.actions
            .extend(crate::actions::broadcast::module(&cfg).actions);
        let s = post_discovery(CodeVersion::V391, 2, 2);
        let s = run(&m, s, 120);
        let leader = &s.servers[2];
        assert!(leader.established);
        assert_eq!(leader.phase, ZabPhase::Broadcast);
        assert_eq!(leader.current_epoch, 1);
        assert_eq!(s.ghost.established_leaders.get(&1), Some(&2));
        assert_eq!(s.ghost.initial_history.get(&1).unwrap().len(), 2);
        // Followers got the DIFF payload and committed it at UPTODATE.
        for i in 0..2 {
            let f = &s.servers[i];
            assert_eq!(f.phase, ZabPhase::Broadcast, "follower {i}");
            assert_eq!(f.history.len(), 2);
            assert_eq!(f.last_committed, 2);
            assert_eq!(f.current_epoch, 1);
        }
        assert!(s.violation.is_none());
    }

    #[test]
    fn trunc_sync_removes_extra_uncommitted_transactions() {
        let cfg = cfg_for(CodeVersion::V391);
        let m = module(&cfg);
        let mut s = post_discovery(CodeVersion::V391, 1, 1);
        // Follower 0 has an extra uncommitted transaction beyond the leader's history.
        s.servers[0].history = vec![Txn::new(1, 1, 1), Txn::new(1, 2, 99)];
        s.servers[2].learner_last_zxid.insert(0, Zxid::new(1, 2));
        let s = run(&m, s, 60);
        assert_eq!(s.servers[0].history.len(), 1);
        assert_eq!(s.servers[0].history[0].zxid, Zxid::new(1, 1));
    }

    #[test]
    fn snap_sync_replaces_a_diverged_history() {
        let cfg = Arc::new(ClusterConfig::small(CodeVersion::V391).with_transactions(0));
        let mut m = module(&cfg);
        m.actions
            .extend(crate::actions::broadcast::module(&cfg).actions);
        let mut s = post_discovery(CodeVersion::V391, 2, 2);
        // The leader's log starts at counter 2; follower 1's last zxid <<1, 1>> is behind
        // the leader but not a point in the leader's log, which forces a SNAP sync.
        s.servers[2].history = vec![Txn::new(1, 2, 2), Txn::new(1, 3, 3)];
        s.servers[1].history = vec![Txn::new(1, 1, 42)];
        s.servers[2].learner_last_zxid.insert(1, Zxid::new(1, 1));
        let s = run(&m, s, 120);
        assert_eq!(s.servers[1].history, s.servers[2].history);
        assert_eq!(s.servers[1].last_committed, 2);
    }

    #[test]
    fn early_proposal_ack_trips_zk4685_on_buggy_versions() {
        let cfg = cfg_for(CodeVersion::V391);
        let mut s = post_discovery(CodeVersion::V391, 1, 1);
        // The leader is collecting NEWLEADER acks; an ACK for a proposal zxid arrives.
        s.msgs[0][2].push(Message::Ack {
            zxid: Zxid::new(1, 7),
        });
        let mut next = s.clone();
        assert!(leader_process_ackld_step(&cfg, &mut next, 2, 0));
        let v = next.violation.expect("violation recorded");
        assert_eq!(v.kind, ViolationKind::BadAck);
        assert_eq!(v.issue, "ZK-4685");

        // The fixed implementation tolerates it.
        let cfg_fixed = cfg_for(CodeVersion::FinalFix);
        let mut next = s;
        assert!(leader_process_ackld_step(&cfg_fixed, &mut next, 2, 0));
        assert!(next.violation.is_none());
        assert!(next.servers[2].pending_acks.contains_key(&Zxid::new(1, 7)));
    }

    #[test]
    fn unmatched_commit_in_sync_is_zk4394_when_unmasked() {
        let masked = cfg_for(CodeVersion::V391);
        let unmasked = Arc::new(ClusterConfig::small(CodeVersion::V391).unmask_zk4394());
        let mut s = post_discovery(CodeVersion::V391, 1, 1);
        s.msgs[2][0].push(Message::Commit {
            zxid: Zxid::new(1, 9),
        });

        let mut masked_next = s.clone();
        assert!(follower_commit_in_sync_step(
            &masked,
            &mut masked_next,
            0,
            2
        ));
        assert!(
            masked_next.violation.is_none(),
            "masked configuration drops the commit"
        );

        let mut unmasked_next = s.clone();
        assert!(follower_commit_in_sync_step(
            &unmasked,
            &mut unmasked_next,
            0,
            2
        ));
        let v = unmasked_next.violation.expect("violation recorded");
        assert_eq!(v.issue, "ZK-4394");
        assert_eq!(v.kind, ViolationKind::BadCommit);

        // A commit that matches the follower's log is benign.
        let mut s2 = s;
        s2.msgs[2][0].clear();
        s2.servers[0].history.push(Txn::new(1, 1, 1));
        s2.msgs[2][0].push(Message::Commit {
            zxid: Zxid::new(1, 1),
        });
        let mut ok = s2.clone();
        assert!(follower_commit_in_sync_step(&unmasked, &mut ok, 0, 2));
        assert!(ok.violation.is_none());
        assert_eq!(ok.servers[0].packets_committed, vec![Zxid::new(1, 1)]);
    }

    #[test]
    fn stale_newleader_epoch_sends_follower_back_to_election() {
        let cfg = cfg_for(CodeVersion::V391);
        let m = module(&cfg);
        let mut s = post_discovery(CodeVersion::V391, 0, 0);
        s.servers[0].accepted_epoch = 3;
        s.msgs[2][0].push(Message::NewLeader {
            epoch: 1,
            zxid: Zxid::ZERO,
        });
        let action = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER")
            .unwrap();
        let inst = action
            .enabled(&s)
            .into_iter()
            .find(|i| i.label.to_string() == "FollowerProcessNEWLEADER(0, 2)")
            .unwrap();
        assert_eq!(inst.next.servers[0].state, ServerState::Looking);
    }
}

//! Fine-grained specifications of the Synchronization and Broadcast modules.
//!
//! * [`sync_atomic_module`] (mSpec-2): the atomic `FollowerProcessNEWLEADER` of the
//!   baseline is split into separate epoch-update and history-logging actions, exposing
//!   the intermediate states a crash can observe (ZK-4643).
//! * [`sync_concurrent_module`] (mSpec-3): additionally models the follower's
//!   SyncRequestProcessor and CommitProcessor threads with their queues, exposing
//!   asynchronous logging and committing (ZK-3023, ZK-4646, ZK-4685, ZK-4712).
//! * [`broadcast_concurrent_module`]: the Broadcast module with proposals and commits
//!   routed through the same thread queues.

use remix_spec::effect::flags;
use remix_spec::{ActionDef, Effect, Granularity, Label, ModuleSpec};

use crate::modules::{BROADCAST, SYNCHRONIZATION};
use crate::state::ZabState;
use crate::types::{CodeViolation, Message, ServerState, Txn, ViolationKind, ZabPhase};

use super::broadcast::{check_proposal, shared_actions as broadcast_shared};
use super::sync::{follower_uptodate_commit, shared_actions as sync_shared};
use super::{eff_recv, eff_recv_reply, pairs, servers, Cfg};

// ---------------------------------------------------------------------------------------
// Split NEWLEADER handling (atomicity granularity, Figure 3).
// ---------------------------------------------------------------------------------------

/// Action 1 (Figure 3a): update the follower's `currentEpoch`.
///
/// With the buggy ordering (`epoch_updated_before_history`), this action is enabled as
/// soon as the NEWLEADER message is pending and the epoch update happens on its own,
/// leaving a dangerous intermediate state (high epoch, stale history).  With the fixed
/// ordering (§5.4) it is only enabled after the synced history has been logged, and it
/// completes the handshake by consuming the message and acknowledging.
fn newleader_update_epoch(cfg: &Cfg, granularity: Granularity) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "FollowerProcessNEWLEADER_UpdateEpoch",
        SYNCHRONIZATION,
        granularity,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "acceptedEpoch",
            "currentEpoch",
            "packetsSync",
            "msgs",
        ],
        vec!["currentEpoch", "msgs"],
        move |s: &ZabState, sink| {
            let bugs = cfg.bugs();
            let fine_concurrent = granularity == Granularity::FineConcurrent;
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
                if sv.accepted_epoch != epoch || sv.current_epoch == epoch {
                    continue;
                }
                if !bugs.epoch_updated_before_history && !sv.packets_not_committed.is_empty() {
                    // Fixed ordering: the history must be logged before the epoch.
                    continue;
                }
                sink.offer(
                    Label::new("FollowerProcessNEWLEADER_UpdateEpoch")
                        .arg(i)
                        .arg(j),
                    eff_recv_reply(i, j),
                    |next| {
                        next.servers[i].current_epoch = epoch;
                        if !bugs.epoch_updated_before_history && !fine_concurrent {
                            // Fixed ordering at the atomicity granularity: the epoch update is
                            // the last step of the handshake, so acknowledge here.
                            next.pop(j, i);
                            next.send(i, j, Message::Ack { zxid });
                        }
                    },
                );
            }
        },
    )
}

/// Action 2 at the atomicity granularity: log the pending packets (and, with the buggy
/// epoch-first ordering, acknowledge NEWLEADER).  Logging is still synchronous; only
/// atomicity with the epoch update is relaxed.
fn newleader_log_and_ack(cfg: &Cfg) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "FollowerProcessNEWLEADER_LogAndAck",
        SYNCHRONIZATION,
        Granularity::FineAtomic,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "acceptedEpoch",
            "currentEpoch",
            "packetsSync",
            "msgs",
        ],
        vec!["history", "packetsSync", "msgs"],
        move |s: &ZabState, sink| {
            let bugs = cfg.bugs();
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
                if sv.accepted_epoch != epoch {
                    continue;
                }
                if bugs.epoch_updated_before_history {
                    // Buggy ordering: the epoch update must come first; this action then
                    // logs and acknowledges.
                    if sv.current_epoch != epoch {
                        continue;
                    }
                } else {
                    // Fixed ordering: this action only logs; the acknowledgement is sent
                    // by the epoch-update action afterwards.
                    if sv.packets_not_committed.is_empty() {
                        continue;
                    }
                }
                sink.offer(
                    Label::new("FollowerProcessNEWLEADER_LogAndAck")
                        .arg(i)
                        .arg(j),
                    eff_recv_reply(i, j),
                    |next| {
                        {
                            let sv = &mut next.servers[i];
                            let pending: Vec<Txn> = sv.packets_not_committed.drain(..).collect();
                            sv.history.extend(pending);
                        }
                        if bugs.epoch_updated_before_history {
                            next.pop(j, i);
                            next.send(i, j, Message::Ack { zxid });
                        }
                    },
                );
            }
        },
    )
}

// ---------------------------------------------------------------------------------------
// Concurrency granularity: thread queues (Figures 3b, 3c and 4a).
// ---------------------------------------------------------------------------------------

/// Action 2 (Figure 3b): move the pending packets to the SyncRequestProcessor queue for
/// asynchronous logging (or log them synchronously under the final fix).
fn newleader_log_async(cfg: &Cfg) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "FollowerProcessNEWLEADER_LogAsync",
        SYNCHRONIZATION,
        Granularity::FineConcurrent,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "acceptedEpoch",
            "currentEpoch",
            "packetsSync",
            "msgs",
        ],
        vec!["queuedRequests", "packetsSync", "history"],
        move |s: &ZabState, sink| {
            let bugs = cfg.bugs();
            for (i, j) in pairs(s) {
                let sv = &s.servers[i];
                if !sv.is_up()
                    || sv.state != ServerState::Following
                    || sv.leader != Some(j)
                    || sv.phase != ZabPhase::Synchronization
                {
                    continue;
                }
                let Some(Message::NewLeader { epoch, .. }) = s.head(j, i) else {
                    continue;
                };
                let epoch = *epoch;
                if sv.accepted_epoch != epoch || sv.packets_not_committed.is_empty() {
                    continue;
                }
                if bugs.epoch_updated_before_history && sv.current_epoch != epoch {
                    continue;
                }
                // Reads the NEWLEADER head without consuming it.
                sink.offer(
                    Label::new("FollowerProcessNEWLEADER_LogAsync")
                        .arg(i)
                        .arg(j),
                    Effect::new().writes_server(i).reads_channel(j, i),
                    |next| {
                        let sv = &mut next.servers[i];
                        let pending: Vec<Txn> = sv.packets_not_committed.drain(..).collect();
                        if bugs.synchronous_sync_logging {
                            sv.history.extend(pending);
                        } else {
                            sv.queued_requests.extend(pending);
                        }
                    },
                );
            }
        },
    )
}

/// Action 3 (Figure 3c): acknowledge NEWLEADER.  With the buggy behaviour the ACK may be
/// sent while the queued requests are still unpersisted (ZK-4646); the fixed behaviour
/// waits for the SyncRequestProcessor queue to drain.
fn newleader_reply_ack(cfg: &Cfg) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "FollowerProcessNEWLEADER_ReplyAck",
        SYNCHRONIZATION,
        Granularity::FineConcurrent,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "acceptedEpoch",
            "currentEpoch",
            "packetsSync",
            "queuedRequests",
            "msgs",
        ],
        vec!["msgs"],
        move |s: &ZabState, sink| {
            let bugs = cfg.bugs();
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
                if sv.accepted_epoch != epoch
                    || sv.current_epoch != epoch
                    || !sv.packets_not_committed.is_empty()
                {
                    continue;
                }
                if !bugs.ack_newleader_before_persist && !sv.queued_requests.is_empty() {
                    // Fixed behaviour: only acknowledge once everything is persisted.
                    continue;
                }
                // Unlike the other handlers this one only moves messages (the
                // guard reads `i`'s local state but nothing on the server
                // changes), so the server bit is read-only.
                sink.offer(
                    Label::new("FollowerProcessNEWLEADER_ReplyAck")
                        .arg(i)
                        .arg(j),
                    Effect::new()
                        .reads_server(i)
                        .writes_channel(j, i)
                        .writes_channel(i, j),
                    |next| {
                        next.pop(j, i);
                        next.send(i, j, Message::Ack { zxid });
                    },
                );
            }
        },
    )
}

/// `FollowerSyncProcessorLogRequest(i)` (Figure 4a): the logging thread takes one request
/// from its queue, appends it to the durable log and acknowledges it to the leader.
///
/// The thread keeps running across phases — which is exactly why a queue that survives a
/// shutdown (ZK-4712) can append stale transactions after the server joined a new epoch.
fn sync_processor_log_request(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerSyncProcessorLogRequest",
        SYNCHRONIZATION,
        Granularity::FineConcurrent,
        vec!["state", "queuedRequests", "leaderAddr", "history"],
        vec!["history", "queuedRequests", "msgs"],
        |s: &ZabState, sink| {
            for i in servers(s) {
                let sv = &s.servers[i];
                if !sv.is_up() || sv.queued_requests.is_empty() || sv.state == ServerState::Leading
                {
                    continue;
                }
                // The ACK goes to a state-dependent leader: claim every channel of `i`.
                sink.offer(
                    Label::new("FollowerSyncProcessorLogRequest").arg(i),
                    Effect::new().writes_server(i).writes_channels_of(i),
                    |next| {
                        let txn = next.servers[i].queued_requests.remove(0);
                        next.servers[i].history.push(txn);
                        if next.servers[i].state == ServerState::Following {
                            if let Some(l) = next.servers[i].leader {
                                next.send(i, l, Message::Ack { zxid: txn.zxid });
                            }
                        }
                    },
                );
            }
        },
    )
}

/// `FollowerCommitProcessorCommit(i)`: the commit thread delivers the next queued commit.
///
/// Committing a transaction that the logging thread has not persisted yet is the ZK-3023
/// error path; the fixed implementation simply waits (the action is not enabled).
fn commit_processor_commit(cfg: &Cfg) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "FollowerCommitProcessorCommit",
        SYNCHRONIZATION,
        Granularity::FineConcurrent,
        vec!["state", "committedRequests", "history", "lastCommitted"],
        vec!["committedRequests", "lastCommitted", "violation"],
        move |s: &ZabState, sink| {
            let bugs = cfg.bugs();
            for i in servers(s) {
                let sv = &s.servers[i];
                if !sv.is_up() || sv.pending_commits.is_empty() || sv.state == ServerState::Looking
                {
                    continue;
                }
                let zxid = sv.pending_commits[0];
                let already_delivered = sv.history[..sv.last_committed]
                    .iter()
                    .any(|t| t.zxid == zxid);
                let is_next = sv.last_committed < sv.history.len()
                    && sv.history[sv.last_committed].zxid == zxid;
                if !already_delivered && !is_next && !bugs.commit_requires_logged_txn {
                    // Fixed behaviour: wait until the logging thread catches up.
                    continue;
                }
                sink.offer(
                    Label::new("FollowerCommitProcessorCommit").arg(i),
                    Effect::new().writes_server(i).writes_flag(flags::VIOLATION),
                    |next| {
                        next.servers[i].pending_commits.remove(0);
                        if already_delivered {
                            // Duplicate commit: ignored.
                        } else if is_next {
                            next.servers[i].last_committed += 1;
                        } else {
                            // ZK-3023: the committed transaction is not in the log (the sync
                            // thread has not persisted it yet) — the implementation's assertion
                            // about the follower's history being in sync with the leader's
                            // initial history fails.
                            next.record_violation(CodeViolation {
                                kind: ViolationKind::BadState,
                                instance: 1,
                                server: i,
                                issue: "ZK-3023",
                            });
                        }
                    },
                );
            }
        },
    )
}

/// Fine-grained UPTODATE handling: queue the deferred commits for the CommitProcessor,
/// queue any remaining packets for the SyncRequestProcessor, acknowledge UPTODATE (the
/// state transition the baseline omits, §2.2.3) and start serving.
fn follower_process_uptodate_concurrent(cfg: &Cfg) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "FollowerProcessUPTODATE",
        SYNCHRONIZATION,
        Granularity::FineConcurrent,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "packetsSync",
            "history",
            "queuedRequests",
            "msgs",
        ],
        vec![
            "queuedRequests",
            "committedRequests",
            "packetsSync",
            "history",
            "lastCommitted",
            "zabState",
            "serving",
            "msgs",
        ],
        move |s: &ZabState, sink| {
            let bugs = cfg.bugs();
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
                    eff_recv_reply(i, j),
                    |next| {
                        next.pop(j, i);
                        if bugs.synchronous_sync_logging {
                            // Final fix: the synchronization path is synchronous end to end.
                            follower_uptodate_commit(next, i, zxid);
                        } else {
                            let sv = &mut next.servers[i];
                            // Late proposals still pending go to the logging thread.
                            let pending: Vec<Txn> = sv.packets_not_committed.drain(..).collect();
                            sv.queued_requests.extend(pending);
                            // Deferred commits (including the initial history up to the NEWLEADER
                            // zxid) go to the commit thread.
                            let deferred: Vec<_> = sv.packets_committed.drain(..).collect();
                            let mut to_commit: Vec<_> = Vec::new();
                            let already: std::collections::BTreeSet<_> = sv.history
                                [..sv.last_committed]
                                .iter()
                                .map(|t| t.zxid)
                                .collect();
                            for t in sv.history.iter().chain(sv.queued_requests.iter()) {
                                if t.zxid <= zxid
                                    && !already.contains(&t.zxid)
                                    && !to_commit.contains(&t.zxid)
                                {
                                    to_commit.push(t.zxid);
                                }
                            }
                            for z in deferred {
                                if !already.contains(&z) && !to_commit.contains(&z) {
                                    to_commit.push(z);
                                }
                            }
                            to_commit.sort();
                            sv.pending_commits.extend(to_commit);
                            sv.phase = ZabPhase::Broadcast;
                            sv.serving = true;
                        }
                        // The fine-grained model includes the follower's ACK to UPTODATE.
                        next.send(i, j, Message::Ack { zxid });
                    },
                );
            }
        },
    )
}

// ---------------------------------------------------------------------------------------
// Fine-grained Broadcast module (concurrency).
// ---------------------------------------------------------------------------------------

/// Fine-grained PROPOSAL handling: the proposal is queued for the logging thread; the
/// acknowledgement is sent by `FollowerSyncProcessorLogRequest` once persisted.
fn follower_process_proposal_async(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerProcessPROPOSAL",
        BROADCAST,
        Granularity::FineConcurrent,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "history",
            "currentEpoch",
            "queuedRequests",
            "msgs",
        ],
        vec!["queuedRequests", "msgs", "violation"],
        |s: &ZabState, sink| {
            for (i, j) in pairs(s) {
                let sv = &s.servers[i];
                if !sv.is_up()
                    || sv.state != ServerState::Following
                    || sv.leader != Some(j)
                    || sv.phase != ZabPhase::Broadcast
                {
                    continue;
                }
                let Some(Message::Proposal { txn }) = s.head(j, i) else {
                    continue;
                };
                let txn = *txn;
                sink.offer(
                    Label::new("FollowerProcessPROPOSAL").arg(i).arg(j),
                    eff_recv(i, j).writes_flag(flags::VIOLATION),
                    |next| {
                        next.pop(j, i);
                        check_proposal(next, i, txn);
                        next.servers[i].queued_requests.push(txn);
                    },
                );
            }
        },
    )
}

/// Fine-grained COMMIT handling: the commit is queued for the commit thread.
fn follower_process_commit_async(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerProcessCOMMIT",
        BROADCAST,
        Granularity::FineConcurrent,
        vec!["state", "zabState", "leaderAddr", "msgs"],
        vec!["committedRequests", "msgs"],
        |s: &ZabState, sink| {
            for (i, j) in pairs(s) {
                let sv = &s.servers[i];
                if !sv.is_up()
                    || sv.state != ServerState::Following
                    || sv.leader != Some(j)
                    || sv.phase != ZabPhase::Broadcast
                {
                    continue;
                }
                let Some(Message::Commit { zxid }) = s.head(j, i) else {
                    continue;
                };
                let zxid = *zxid;
                sink.offer(
                    Label::new("FollowerProcessCOMMIT").arg(i).arg(j),
                    eff_recv(i, j),
                    |next| {
                        next.pop(j, i);
                        next.servers[i].pending_commits.push(zxid);
                    },
                );
            }
        },
    )
}

// ---------------------------------------------------------------------------------------
// Module builders.
// ---------------------------------------------------------------------------------------

/// The fine-grained (atomicity) Synchronization module of mSpec-2: eight actions.
pub fn sync_atomic_module(cfg: &Cfg) -> ModuleSpec<ZabState> {
    let mut actions = sync_shared(cfg, Granularity::FineAtomic);
    actions.push(newleader_update_epoch(cfg, Granularity::FineAtomic));
    actions.push(newleader_log_and_ack(cfg));
    actions.push(uptodate_baseline_at(cfg, Granularity::FineAtomic));
    ModuleSpec::new(SYNCHRONIZATION, Granularity::FineAtomic, actions)
}

/// Baseline-style synchronous UPTODATE handling retagged for the atomicity granularity.
fn uptodate_baseline_at(_cfg: &Cfg, granularity: Granularity) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerProcessUPTODATE",
        SYNCHRONIZATION,
        granularity,
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

/// The fine-grained (atomicity + concurrency) Synchronization module of mSpec-3:
/// eleven actions including the SyncRequestProcessor and CommitProcessor threads.
pub fn sync_concurrent_module(cfg: &Cfg) -> ModuleSpec<ZabState> {
    let mut actions = sync_shared(cfg, Granularity::FineConcurrent);
    actions.push(newleader_update_epoch(cfg, Granularity::FineConcurrent));
    actions.push(newleader_log_async(cfg));
    actions.push(newleader_reply_ack(cfg));
    actions.push(sync_processor_log_request(cfg));
    actions.push(commit_processor_commit(cfg));
    actions.push(follower_process_uptodate_concurrent(cfg));
    ModuleSpec::new(SYNCHRONIZATION, Granularity::FineConcurrent, actions)
}

/// The fine-grained (concurrency) Broadcast module of mSpec-3: four actions, sharing the
/// follower's thread actions with the Synchronization module.
pub fn broadcast_concurrent_module(cfg: &Cfg) -> ModuleSpec<ZabState> {
    let mut actions = broadcast_shared(cfg, Granularity::FineConcurrent);
    actions.push(follower_process_proposal_async(cfg));
    actions.push(follower_process_commit_async(cfg));
    ModuleSpec::new(BROADCAST, Granularity::FineConcurrent, actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::types::Zxid;
    use crate::versions::CodeVersion;
    use std::sync::Arc;

    fn cfg(version: CodeVersion) -> Cfg {
        Arc::new(ClusterConfig::small(version))
    }

    /// Follower 0 is in Synchronization under leader 2 (epoch 1) with one pending DIFF
    /// packet and the NEWLEADER message at the head of its channel.
    fn pending_newleader(version: CodeVersion) -> ZabState {
        let mut s = ZabState::initial(&ClusterConfig::small(version));
        let leader = 2;
        s.servers[leader].state = ServerState::Leading;
        s.servers[leader].leader = Some(leader);
        s.servers[leader].phase = ZabPhase::Synchronization;
        s.servers[leader].accepted_epoch = 1;
        s.servers[leader].current_epoch = 1;
        s.servers[leader].history.push(Txn::new(1, 1, 1));
        s.servers[0].state = ServerState::Following;
        s.servers[0].leader = Some(leader);
        s.servers[0].phase = ZabPhase::Synchronization;
        s.servers[0].accepted_epoch = 1;
        s.servers[0].packets_not_committed.push(Txn::new(1, 1, 1));
        s.msgs[leader][0].push(Message::NewLeader {
            epoch: 1,
            zxid: Zxid::new(1, 1),
        });
        s
    }

    #[test]
    fn buggy_order_allows_epoch_update_before_logging() {
        let m = sync_atomic_module(&cfg(CodeVersion::V391));
        let s = pending_newleader(CodeVersion::V391);
        let update = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_UpdateEpoch")
            .unwrap();
        let log = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_LogAndAck")
            .unwrap();
        // Buggy order: epoch first, logging not yet enabled.
        assert_eq!(update.enabled(&s).len(), 1);
        assert!(log.enabled(&s).is_empty());
        let s2 = update.enabled(&s).remove(0).next;
        assert_eq!(s2.servers[0].current_epoch, 1);
        assert!(
            s2.servers[0].history.is_empty(),
            "crash here loses the history (ZK-4643)"
        );
        // Now logging is enabled and completes the handshake.
        let s3 = log.enabled(&s2).remove(0).next;
        assert_eq!(s3.servers[0].history.len(), 1);
        assert_eq!(s3.msgs[0][2].last().unwrap().kind(), "ACK");
    }

    #[test]
    fn fixed_order_requires_logging_before_epoch_update() {
        let m = sync_atomic_module(&cfg(CodeVersion::Pr1848));
        let s = pending_newleader(CodeVersion::Pr1848);
        let update = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_UpdateEpoch")
            .unwrap();
        let log = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_LogAndAck")
            .unwrap();
        assert!(
            update.enabled(&s).is_empty(),
            "epoch update must wait for the history"
        );
        let s2 = log.enabled(&s).remove(0).next;
        assert_eq!(s2.servers[0].history.len(), 1);
        assert_eq!(update.enabled(&s2).len(), 1);
    }

    #[test]
    fn concurrent_newleader_acks_before_persisting_on_buggy_versions() {
        let m = sync_concurrent_module(&cfg(CodeVersion::V391));
        let s = pending_newleader(CodeVersion::V391);
        let update = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_UpdateEpoch")
            .unwrap();
        let queue = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_LogAsync")
            .unwrap();
        let ack = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_ReplyAck")
            .unwrap();
        let s = update.enabled(&s).remove(0).next;
        let s = queue.enabled(&s).remove(0).next;
        assert_eq!(s.servers[0].queued_requests.len(), 1);
        assert!(s.servers[0].history.is_empty());
        // ZK-4646: the ACK can be sent while the queue is still unpersisted.
        let acked = ack.enabled(&s).remove(0).next;
        assert_eq!(acked.msgs[0][2].last().unwrap().kind(), "ACK");
        assert_eq!(acked.servers[0].history.len(), 0);
    }

    #[test]
    fn fixed_versions_wait_for_the_queue_before_acking() {
        let m = sync_concurrent_module(&cfg(CodeVersion::Pr1993));
        let s = pending_newleader(CodeVersion::Pr1993);
        let update = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_UpdateEpoch")
            .unwrap();
        let queue = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_LogAsync")
            .unwrap();
        let ack = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_ReplyAck")
            .unwrap();
        let log = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerSyncProcessorLogRequest")
            .unwrap();
        let s = update.enabled(&s).remove(0).next;
        let s = queue.enabled(&s).remove(0).next;
        assert!(
            ack.enabled(&s).is_empty(),
            "PR-1993 only acks after persisting"
        );
        let s = log.enabled(&s).remove(0).next;
        assert_eq!(s.servers[0].history.len(), 1);
        assert_eq!(ack.enabled(&s).len(), 1);
    }

    #[test]
    fn final_fix_logs_synchronously_during_sync() {
        let m = sync_concurrent_module(&cfg(CodeVersion::FinalFix));
        let s = pending_newleader(CodeVersion::FinalFix);
        let queue = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessNEWLEADER_LogAsync")
            .unwrap();
        let s = queue.enabled(&s).remove(0).next;
        assert_eq!(s.servers[0].history.len(), 1, "logged directly");
        assert!(s.servers[0].queued_requests.is_empty());
    }

    #[test]
    fn sync_processor_logs_and_acks_queued_requests() {
        let m = sync_concurrent_module(&cfg(CodeVersion::V391));
        let mut s = pending_newleader(CodeVersion::V391);
        s.servers[0].queued_requests.push(Txn::new(1, 1, 1));
        s.servers[0].packets_not_committed.clear();
        let log = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerSyncProcessorLogRequest")
            .unwrap();
        let s2 = log
            .enabled(&s)
            .into_iter()
            .find(|i| i.label.to_string().contains("(0)"))
            .unwrap()
            .next;
        assert_eq!(s2.servers[0].history.len(), 1);
        assert!(s2.servers[0].queued_requests.is_empty());
        // The per-request ACK goes to the leader before the NEWLEADER ack: ZK-4685 fuel.
        assert_eq!(
            s2.msgs[0][2].last().unwrap(),
            &Message::Ack {
                zxid: Zxid::new(1, 1)
            }
        );
    }

    #[test]
    fn commit_processor_flags_unlogged_commits_on_buggy_versions() {
        let buggy = sync_concurrent_module(&cfg(CodeVersion::V391));
        let fixed = sync_concurrent_module(&cfg(CodeVersion::FinalFix));
        let mut s = pending_newleader(CodeVersion::V391);
        s.servers[0].pending_commits.push(Zxid::new(1, 1));
        s.servers[0].queued_requests.push(Txn::new(1, 1, 1));
        s.servers[0].packets_not_committed.clear();

        let commit =
            |m: &ModuleSpec<ZabState>, s: &ZabState| -> Vec<remix_spec::ActionInstance<ZabState>> {
                m.actions
                    .iter()
                    .find(|a| a.name == "FollowerCommitProcessorCommit")
                    .unwrap()
                    .enabled(s)
            };
        let insts = commit(&buggy, &s);
        assert_eq!(insts.len(), 1);
        let v = insts[0].next.violation.clone().expect("ZK-3023 violation");
        assert_eq!(v.issue, "ZK-3023");
        assert_eq!(v.kind, ViolationKind::BadState);
        // The fixed commit processor simply waits for the logging thread.
        assert!(commit(&fixed, &s).is_empty());
    }

    #[test]
    fn fine_broadcast_routes_messages_through_queues() {
        let m = broadcast_concurrent_module(&cfg(CodeVersion::V391));
        let mut s = pending_newleader(CodeVersion::V391);
        s.servers[0].phase = ZabPhase::Broadcast;
        s.servers[0].current_epoch = 1;
        s.msgs[2][0].clear();
        s.msgs[2][0].push(Message::Proposal {
            txn: Txn::new(1, 1, 1),
        });
        s.msgs[2][0].push(Message::Commit {
            zxid: Zxid::new(1, 1),
        });
        let prop = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessPROPOSAL")
            .unwrap();
        let s = prop.enabled(&s).remove(0).next;
        assert_eq!(
            s.servers[0].queued_requests.last().unwrap().zxid,
            Zxid::new(1, 1)
        );
        let commit = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerProcessCOMMIT")
            .unwrap();
        let s = commit.enabled(&s).remove(0).next;
        assert_eq!(s.servers[0].pending_commits, vec![Zxid::new(1, 1)]);
    }

    #[test]
    fn module_action_counts() {
        let c = cfg(CodeVersion::V391);
        assert_eq!(sync_atomic_module(&c).action_count(), 8);
        assert_eq!(sync_concurrent_module(&c).action_count(), 11);
        assert_eq!(broadcast_concurrent_module(&c).action_count(), 4);
    }
}

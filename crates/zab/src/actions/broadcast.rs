//! Broadcast module: normal-case log replication.
//!
//! The baseline granularity logs and acknowledges proposals synchronously on the
//! follower; the fine-grained (concurrency) variant in `fine.rs` routes proposals and
//! commits through the follower's SyncRequestProcessor / CommitProcessor queues.

use remix_spec::effect::flags;
use remix_spec::{ActionDef, ActionInstance, Effect, Granularity, Label, ModuleSpec};

use crate::modules::BROADCAST;
use crate::state::ZabState;
use crate::types::{
    CodeViolation, Message, ServerState, Sid, SidSet, Txn, ViolationKind, ZabPhase, Zxid,
};

use super::{eff_recv, eff_recv_reply, pairs, servers, Cfg};

// ---------------------------------------------------------------------------------------
// Shared leader-side steps.
// ---------------------------------------------------------------------------------------

/// The guard of [`leader_process_request_step`], checkable without cloning the state
/// (the single source of truth pattern of `sync::leader_sync_follower_enabled`).
pub(crate) fn leader_process_request_enabled(cfg: &Cfg, state: &ZabState, i: Sid) -> bool {
    let leader = &state.servers[i];
    leader.is_up()
        && leader.state == ServerState::Leading
        && leader.phase == ZabPhase::Broadcast
        && leader.established
        && state.txns_created < cfg.max_transactions
}

/// The leader creates a new transaction from a client request, appends it to its own log
/// and sends a PROPOSAL to every synced follower.  Returns `false` when not enabled.
pub(crate) fn leader_process_request_step(cfg: &Cfg, state: &mut ZabState, i: Sid) -> bool {
    if !leader_process_request_enabled(cfg, state, i) {
        return false;
    }
    let epoch = state.servers[i].current_epoch;
    let counter = state.servers[i]
        .history
        .iter()
        .filter(|t| t.zxid.epoch == epoch)
        .map(|t| t.zxid.counter)
        .max()
        .unwrap_or(0)
        + 1;
    state.txns_created += 1;
    let txn = Txn::new(epoch, counter, state.txns_created);
    state.servers[i].history.push(txn);
    state.ghost.broadcast.push(txn);
    let ackers = SidSet::from_iter([i]);
    state.servers[i].pending_acks.insert(txn.zxid, ackers);
    let followers = state.servers[i].newleader_acks;
    for f in followers.iter() {
        state.send(i, f, Message::Proposal { txn });
    }
    true
}

/// The guard of [`leader_process_ack_step`], checkable without cloning the state.
pub(crate) fn leader_process_ack_enabled(state: &ZabState, i: Sid, j: Sid) -> bool {
    let leader = &state.servers[i];
    leader.is_up()
        && leader.state == ServerState::Leading
        && leader.phase == ZabPhase::Broadcast
        && matches!(state.head(j, i), Some(Message::Ack { .. }))
}

/// The leader counts a proposal acknowledgement and commits in order once a quorum acks.
/// Also handles a late NEWLEADER acknowledgement from a follower that finished
/// synchronizing after the epoch was established.  Returns `false` when not enabled.
pub(crate) fn leader_process_ack_step(state: &mut ZabState, i: Sid, j: Sid) -> bool {
    if !leader_process_ack_enabled(state, i, j) {
        return false;
    }
    let Some(Message::Ack { zxid }) = state.head(j, i) else {
        return false;
    };
    let zxid = *zxid;
    state.pop(j, i);

    if state.servers[i].pending_acks.contains_key(&zxid) {
        state.servers[i]
            .pending_acks
            .get_mut(&zxid)
            .expect("checked")
            .insert(j);
        commit_ready_proposals(state, i);
    } else if !state.servers[i].newleader_acks.contains(&j) {
        // A late acknowledgement of NEWLEADER (or UPTODATE): bring the follower up to
        // date with the proposals it missed while synchronizing, then include it in the
        // broadcast set.
        let missed: Vec<Txn> = state.servers[i]
            .history
            .iter()
            .filter(|t| t.zxid > zxid)
            .copied()
            .collect();
        let committed_upto = leader_committed_zxid(state, i);
        for t in missed {
            state.send(i, j, Message::Proposal { txn: t });
            if t.zxid <= committed_upto {
                state.send(i, j, Message::Commit { zxid: t.zxid });
            }
        }
        state.servers[i].newleader_acks.insert(j);
        let last = state.servers[i].last_zxid();
        state.send(i, j, Message::UpToDate { zxid: last });
    } else {
        // An acknowledgement for an already-committed proposal (or a duplicate): ignored,
        // as in the implementation.
    }
    true
}

fn leader_committed_zxid(state: &ZabState, i: Sid) -> Zxid {
    let sv = &state.servers[i];
    if sv.last_committed > 0 {
        sv.history[sv.last_committed - 1].zxid
    } else {
        Zxid::ZERO
    }
}

/// Commits, in log order, every pending proposal that has gathered a quorum, sending
/// COMMIT messages to the synced followers.
pub(crate) fn commit_ready_proposals(state: &mut ZabState, i: Sid) {
    loop {
        let next_index = state.servers[i].last_committed;
        if next_index >= state.servers[i].history.len() {
            break;
        }
        let zxid = state.servers[i].history[next_index].zxid;
        let Some(ackers) = state.servers[i].pending_acks.get(&zxid) else {
            break;
        };
        if !state.is_quorum(ackers) {
            break;
        }
        state.servers[i].last_committed = next_index + 1;
        state.servers[i].pending_acks.remove(&zxid);
        let followers = state.servers[i].newleader_acks;
        for f in followers.iter() {
            state.send(i, f, Message::Commit { zxid });
        }
    }
}

/// Commits `zxid` on a follower in the Broadcast phase.  Out-of-order or unknown commits
/// are the error paths guarded by the code-level invariants.
pub(crate) fn follower_apply_commit(state: &mut ZabState, i: Sid, zxid: Zxid, logged_check: bool) {
    let sv = &mut state.servers[i];
    if sv.history[..sv.last_committed]
        .iter()
        .any(|t| t.zxid == zxid)
    {
        // Already delivered (duplicate commit): ignore.
        return;
    }
    if sv.last_committed < sv.history.len() && sv.history[sv.last_committed].zxid == zxid {
        sv.last_committed += 1;
        return;
    }
    if logged_check {
        // The committed transaction is not the next entry of the log (either not logged
        // yet, or the log diverged): ZooKeeper's commit path treats this as an error.
        let instance = if sv.history.iter().any(|t| t.zxid == zxid) {
            3
        } else {
            2
        };
        state.record_violation(CodeViolation {
            kind: ViolationKind::BadCommit,
            instance,
            server: i,
            issue: "commit does not match the next logged transaction",
        });
    }
}

// ---------------------------------------------------------------------------------------
// Baseline actions.
// ---------------------------------------------------------------------------------------

fn leader_process_request(cfg: &Cfg, granularity: Granularity) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "LeaderProcessRequest",
        BROADCAST,
        granularity,
        vec![
            "state",
            "zabState",
            "currentEpoch",
            "history",
            "txnBudget",
            "ackldRecv",
        ],
        vec!["history", "proposalAcks", "msgs", "txnBudget", "ghost"],
        move |s: &ZabState| {
            let mut out = Vec::new();
            for i in servers(s) {
                if !leader_process_request_enabled(&cfg, s, i) {
                    continue;
                }
                let mut next = s.clone();
                if leader_process_request_step(&cfg, &mut next, i) {
                    // Proposals go to a state-dependent follower set; the transaction
                    // budget and the ghost broadcast history are global scalars.
                    out.push(
                        ActionInstance::new(Label::new("LeaderProcessRequest").arg(i), next)
                            .with_effect(
                                Effect::new()
                                    .writes_server(i)
                                    .writes_channels_of(i)
                                    .writes_flag(flags::TXN_BUDGET)
                                    .writes_flag(flags::GHOST),
                            ),
                    );
                }
            }
            out
        },
    )
}

/// Baseline follower PROPOSAL handling: log synchronously and acknowledge immediately.
fn follower_process_proposal(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerProcessPROPOSAL",
        BROADCAST,
        Granularity::Baseline,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "history",
            "currentEpoch",
            "msgs",
        ],
        vec!["history", "msgs", "violation"],
        |s: &ZabState| {
            let mut out = Vec::new();
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
                let mut next = s.clone();
                next.pop(j, i);
                check_proposal(&mut next, i, txn);
                next.servers[i].history.push(txn);
                next.send(i, j, Message::Ack { zxid: txn.zxid });
                out.push(
                    ActionInstance::new(Label::new("FollowerProcessPROPOSAL").arg(i).arg(j), next)
                        .with_effect(eff_recv_reply(i, j).writes_flag(flags::VIOLATION)),
                );
            }
            out
        },
    )
}

/// The code-level checks on an incoming proposal (I-13 instances): the proposal's epoch
/// must match the follower's current epoch, and its zxid must be greater than everything
/// already logged.
pub(crate) fn check_proposal(state: &mut ZabState, i: Sid, txn: Txn) {
    let sv = &state.servers[i];
    if txn.zxid.epoch != sv.current_epoch {
        state.record_violation(CodeViolation {
            kind: ViolationKind::BadProposal,
            instance: 1,
            server: i,
            issue: "proposal epoch differs from the follower's current epoch",
        });
        return;
    }
    if sv.history.last().is_some_and(|last| txn.zxid <= last.zxid) {
        state.record_violation(CodeViolation {
            kind: ViolationKind::BadProposal,
            instance: 2,
            server: i,
            issue: "proposal zxid is not beyond the end of the follower's log",
        });
    }
}

fn leader_process_ack(_cfg: &Cfg, granularity: Granularity) -> ActionDef<ZabState> {
    ActionDef::new(
        "LeaderProcessACK",
        BROADCAST,
        granularity,
        vec![
            "state",
            "zabState",
            "proposalAcks",
            "ackldRecv",
            "history",
            "lastCommitted",
            "msgs",
        ],
        vec!["proposalAcks", "ackldRecv", "lastCommitted", "msgs"],
        |s: &ZabState| {
            let mut out = Vec::new();
            for (i, j) in pairs(s) {
                if !leader_process_ack_enabled(s, i, j) {
                    continue;
                }
                let mut next = s.clone();
                if leader_process_ack_step(&mut next, i, j) {
                    // Commits broadcast to a state-dependent follower set.
                    out.push(
                        ActionInstance::new(Label::new("LeaderProcessACK").arg(i).arg(j), next)
                            .with_effect(Effect::new().writes_server(i).writes_channels_of(i)),
                    );
                }
            }
            out
        },
    )
}

/// Baseline follower COMMIT handling: deliver synchronously, in order.
fn follower_process_commit(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerProcessCOMMIT",
        BROADCAST,
        Granularity::Baseline,
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "history",
            "lastCommitted",
            "msgs",
        ],
        vec!["lastCommitted", "msgs", "violation"],
        |s: &ZabState| {
            let mut out = Vec::new();
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
                let mut next = s.clone();
                next.pop(j, i);
                follower_apply_commit(&mut next, i, zxid, true);
                out.push(
                    ActionInstance::new(Label::new("FollowerProcessCOMMIT").arg(i).arg(j), next)
                        .with_effect(eff_recv(i, j).writes_flag(flags::VIOLATION)),
                );
            }
            out
        },
    )
}

/// The shared Broadcast actions (leader side) reused by the fine-grained variant.
pub(crate) fn shared_actions(cfg: &Cfg, granularity: Granularity) -> Vec<ActionDef<ZabState>> {
    vec![
        leader_process_request(cfg, granularity),
        leader_process_ack(cfg, granularity),
    ]
}

/// The baseline Broadcast module specification (four actions).
pub fn module(cfg: &Cfg) -> ModuleSpec<ZabState> {
    let mut actions = shared_actions(cfg, Granularity::Baseline);
    actions.push(follower_process_proposal(cfg));
    actions.push(follower_process_commit(cfg));
    ModuleSpec::new(BROADCAST, Granularity::Baseline, actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::versions::CodeVersion;
    use std::sync::Arc;

    fn cfg() -> Cfg {
        Arc::new(ClusterConfig::small(CodeVersion::V391))
    }

    /// A state where server 2 is an established leader of epoch 1 in Broadcast with
    /// followers 0 and 1 fully synced (empty history).
    pub(crate) fn broadcast_ready() -> ZabState {
        let mut s = ZabState::initial(&ClusterConfig::small(CodeVersion::V391));
        let leader = 2;
        for i in 0..3 {
            s.servers[i].accepted_epoch = 1;
            s.servers[i].current_epoch = 1;
            s.servers[i].phase = ZabPhase::Broadcast;
            s.servers[i].serving = true;
        }
        s.servers[leader].state = ServerState::Leading;
        s.servers[leader].leader = Some(leader);
        s.servers[leader].established = true;
        s.servers[leader].epoch_proposed = true;
        for i in 0..2 {
            s.servers[i].state = ServerState::Following;
            s.servers[i].leader = Some(leader);
            s.servers[leader].learners.insert(i);
            s.servers[leader].epoch_acks.insert(i);
            s.servers[leader].newleader_acks.insert(i);
        }
        s.record_establishment(1, leader, vec![]);
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
    fn a_request_is_replicated_and_committed_everywhere() {
        let cfg = cfg();
        let m = module(&cfg);
        let s = broadcast_ready();
        let s = run(&m, s, 60);
        for i in 0..3 {
            assert_eq!(
                s.servers[i].history.len(),
                2,
                "server {i} should log both txns"
            );
            assert_eq!(
                s.servers[i].last_committed, 2,
                "server {i} should deliver both txns"
            );
        }
        assert!(s.violation.is_none());
        assert_eq!(s.ghost.broadcast.len(), 2);
        assert_eq!(s.txns_created, 2);
    }

    #[test]
    fn request_budget_is_respected() {
        let cfg = cfg();
        let mut s = broadcast_ready();
        s.txns_created = cfg.max_transactions;
        assert!(!leader_process_request_step(&cfg, &mut s, 2));
    }

    #[test]
    fn proposal_with_wrong_epoch_is_a_bad_proposal() {
        let mut s = broadcast_ready();
        check_proposal(&mut s, 0, Txn::new(9, 1, 1));
        let v = s.violation.expect("violation");
        assert_eq!(v.kind, ViolationKind::BadProposal);
        assert_eq!(v.instance, 1);
    }

    #[test]
    fn stale_proposal_zxid_is_a_bad_proposal() {
        let mut s = broadcast_ready();
        s.servers[0].history.push(Txn::new(1, 5, 5));
        check_proposal(&mut s, 0, Txn::new(1, 3, 3));
        let v = s.violation.expect("violation");
        assert_eq!(v.kind, ViolationKind::BadProposal);
        assert_eq!(v.instance, 2);
    }

    #[test]
    fn commit_of_unlogged_txn_is_a_bad_commit() {
        let mut s = broadcast_ready();
        follower_apply_commit(&mut s, 0, Zxid::new(1, 1), true);
        let v = s.violation.expect("violation");
        assert_eq!(v.kind, ViolationKind::BadCommit);
    }

    #[test]
    fn late_newleader_ack_brings_the_follower_up_to_date() {
        let cfg = cfg();
        let m = module(&cfg);
        let mut s = broadcast_ready();
        // Follower 1 is not yet in the broadcast set and still in Synchronization.
        s.servers[2].newleader_acks.remove(&1);
        s.servers[1].phase = ZabPhase::Synchronization;
        // The leader commits one transaction with follower 0 only.
        let s = run(&m, s, 40);
        assert_eq!(s.servers[2].last_committed, 2);
        // Now the late NEWLEADER ack arrives from follower 1.
        let mut s = s;
        s.msgs[1][2].push(Message::Ack { zxid: Zxid::ZERO });
        let mut next = s.clone();
        assert!(leader_process_ack_step(&mut next, 2, 1));
        assert!(next.servers[2].newleader_acks.contains(&1));
        // The missed proposals and commits were queued to follower 1, ending with UPTODATE.
        let kinds: Vec<&str> = next.msgs[2][1].iter().map(|m| m.kind()).collect();
        assert!(kinds.contains(&"PROPOSAL"));
        assert!(kinds.contains(&"COMMIT"));
        assert_eq!(kinds.last(), Some(&"UPTODATE"));
    }
}

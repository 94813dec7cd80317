//! Baseline Discovery module: epoch negotiation between the new leader and its learners.

use remix_spec::{ActionDef, ActionInstance, Effect, Granularity, Label, ModuleSpec};

use crate::modules::DISCOVERY;
use crate::state::ZabState;
use crate::types::{Message, ServerState, Sid, ZabPhase};

use super::{pairs, Cfg};

/// Footprint of `LeaderProcessFOLLOWERINFO(i, j)`: pops the follower's report,
/// updates the leader's own bookkeeping, and may send LEADERINFO — either to `j`
/// alone or, on reaching a quorum, to *every* registered learner (a state-dependent
/// set, so the declaration covers the whole outgoing row).  Choosing the new epoch
/// reads `max(acceptedEpoch, currentEpoch)` over all servers, hence the read of
/// every server bit.
fn eff_leader_process_follower_info(n: usize, i: Sid, j: Sid) -> Effect {
    let mut eff = Effect::new().writes_server(i).writes_channel(j, i);
    for l in 0..n {
        if l != i {
            eff = eff.writes_channel(i, l);
        }
        eff = eff.reads_server(l);
    }
    eff
}

/// `ConnectAndFollowerSendFOLLOWERINFO(i, j)`: a follower that decided on leader `j`
/// connects and reports its accepted epoch and last zxid.
fn follower_info(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "ConnectAndFollowerSendFOLLOWERINFO",
        DISCOVERY,
        Granularity::Baseline,
        // `connected` (the "FOLLOWERINFO already sent" flag the guard reads and the
        // step sets) folds under `leaderAddr`: it is connection status toward the
        // chosen leader and resets exactly when `leaderAddr` does.
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "acceptedEpoch",
            "history",
        ],
        vec!["msgs", "leaderAddr"],
        |s: &ZabState| {
            let mut out = Vec::new();
            for (i, j) in pairs(s) {
                let sv = &s.servers[i];
                if sv.state != ServerState::Following
                    || sv.leader != Some(j)
                    || sv.phase != ZabPhase::Discovery
                    || sv.connected
                    || !s.reachable(i, j)
                {
                    continue;
                }
                let mut next = s.clone();
                next.servers[i].connected = true;
                let msg = Message::FollowerInfo {
                    accepted_epoch: next.servers[i].accepted_epoch,
                    last_zxid: next.servers[i].last_zxid(),
                };
                next.send(i, j, msg);
                out.push(
                    ActionInstance::new(
                        Label::new("ConnectAndFollowerSendFOLLOWERINFO")
                            .arg(i)
                            .arg(j),
                        next,
                    )
                    .with_effect(Effect::new().writes_server(i).writes_channel(i, j)),
                );
            }
            out
        },
    )
}

/// `LeaderProcessFOLLOWERINFO(i, j)`: the leader registers a learner; once a quorum of
/// learners is connected it proposes the new epoch (LEADERINFO).
fn leader_process_follower_info(cfg: &Cfg) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "LeaderProcessFOLLOWERINFO",
        DISCOVERY,
        Granularity::Baseline,
        vec!["state", "learners", "acceptedEpoch", "msgs"],
        vec!["learners", "acceptedEpoch", "msgs"],
        move |s: &ZabState| {
            let mut out = Vec::new();
            for (i, j) in pairs(s) {
                if !s.servers[i].is_up() || s.servers[i].state != ServerState::Leading {
                    continue;
                }
                let Some(Message::FollowerInfo { last_zxid, .. }) = s.head(j, i) else {
                    continue;
                };
                let last_zxid = *last_zxid;
                let mut next = s.clone();
                next.pop(j, i);
                next.servers[i].learners.insert(j);
                next.servers[i].learner_last_zxid.insert(j, last_zxid);
                if next.servers[i].epoch_proposed {
                    // Epoch already chosen: inform the newly connected learner directly.
                    let epoch = next.servers[i].accepted_epoch;
                    next.send(i, j, Message::LeaderInfo { epoch });
                } else {
                    let mut connected = next.servers[i].learners;
                    connected.insert(i);
                    if next.is_quorum(&connected) {
                        let epoch = next.max_accepted_epoch() + 1;
                        if epoch <= cfg.max_epoch {
                            next.servers[i].accepted_epoch = epoch;
                            next.servers[i].epoch_proposed = true;
                            let learners = next.servers[i].learners;
                            for l in learners.iter() {
                                next.send(i, l, Message::LeaderInfo { epoch });
                            }
                        }
                    }
                }
                out.push(
                    ActionInstance::new(
                        Label::new("LeaderProcessFOLLOWERINFO").arg(i).arg(j),
                        next,
                    )
                    .with_effect(eff_leader_process_follower_info(s.n(), i, j)),
                );
            }
            out
        },
    )
}

/// `FollowerProcessLEADERINFO(i, j)`: the follower accepts the proposed epoch and
/// acknowledges with its current epoch and last zxid, entering Synchronization.
fn follower_process_leader_info(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FollowerProcessLEADERINFO",
        DISCOVERY,
        Granularity::Baseline,
        vec![
            "state",
            "leaderAddr",
            "acceptedEpoch",
            "currentEpoch",
            "history",
            "msgs",
        ],
        vec!["acceptedEpoch", "zabState", "msgs", "state"],
        |s: &ZabState| {
            let mut out = Vec::new();
            for (i, j) in pairs(s) {
                let sv = &s.servers[i];
                if !sv.is_up() || sv.state != ServerState::Following || sv.leader != Some(j) {
                    continue;
                }
                let Some(Message::LeaderInfo { epoch }) = s.head(j, i) else {
                    continue;
                };
                let epoch = *epoch;
                let mut next = s.clone();
                next.pop(j, i);
                if epoch >= next.servers[i].accepted_epoch {
                    next.servers[i].accepted_epoch = epoch;
                    next.servers[i].phase = ZabPhase::Synchronization;
                    let ack = Message::AckEpoch {
                        current_epoch: next.servers[i].current_epoch,
                        last_zxid: next.servers[i].last_zxid(),
                    };
                    next.send(i, j, ack);
                } else {
                    // Epoch regression: the follower abandons this leader.
                    next.servers[i].shutdown_to_looking(i, true);
                }
                out.push(
                    ActionInstance::new(
                        Label::new("FollowerProcessLEADERINFO").arg(i).arg(j),
                        next,
                    )
                    .with_effect(super::eff_recv_reply(i, j)),
                );
            }
            out
        },
    )
}

/// `LeaderProcessACKEPOCH(i, j)`: the leader records the acknowledgement; on a quorum it
/// commits to the new epoch and enters Synchronization.
fn leader_process_ack_epoch(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "LeaderProcessACKEPOCH",
        DISCOVERY,
        Granularity::Baseline,
        vec!["state", "ackeRecv", "acceptedEpoch", "msgs"],
        vec!["ackeRecv", "currentEpoch", "zabState", "msgs"],
        |s: &ZabState| {
            let mut out = Vec::new();
            for (i, j) in pairs(s) {
                if !s.servers[i].is_up() || s.servers[i].state != ServerState::Leading {
                    continue;
                }
                let Some(Message::AckEpoch { last_zxid, .. }) = s.head(j, i) else {
                    continue;
                };
                let last_zxid = *last_zxid;
                let mut next = s.clone();
                next.pop(j, i);
                next.servers[i].epoch_acks.insert(j);
                next.servers[i].learner_last_zxid.insert(j, last_zxid);
                if next.servers[i].phase == ZabPhase::Discovery {
                    let mut acked = next.servers[i].epoch_acks;
                    acked.insert(i);
                    if next.is_quorum(&acked) {
                        next.servers[i].current_epoch = next.servers[i].accepted_epoch;
                        next.servers[i].phase = ZabPhase::Synchronization;
                    }
                }
                out.push(
                    ActionInstance::new(Label::new("LeaderProcessACKEPOCH").arg(i).arg(j), next)
                        .with_effect(super::eff_recv(i, j)),
                );
            }
            out
        },
    )
}

/// The baseline Discovery module specification (four actions).
pub fn module(cfg: &Cfg) -> ModuleSpec<ZabState> {
    ModuleSpec::new(
        DISCOVERY,
        Granularity::Baseline,
        vec![
            follower_info(cfg),
            leader_process_follower_info(cfg),
            follower_process_leader_info(cfg),
            leader_process_ack_epoch(cfg),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::types::Zxid;
    use crate::versions::CodeVersion;
    use std::sync::Arc;

    fn cfg() -> Cfg {
        Arc::new(ClusterConfig::small(CodeVersion::V391))
    }

    /// A state where server 2 leads and servers 0, 1 follow, all in Discovery.
    fn post_election() -> ZabState {
        let mut s = ZabState::initial(&ClusterConfig::small(CodeVersion::V391));
        s.servers[2].state = ServerState::Leading;
        s.servers[2].leader = Some(2);
        s.servers[2].phase = ZabPhase::Discovery;
        for i in 0..2 {
            s.servers[i].state = ServerState::Following;
            s.servers[i].leader = Some(2);
            s.servers[i].phase = ZabPhase::Discovery;
        }
        s
    }

    /// Runs the discovery module to quiescence, always taking the first enabled action.
    fn run_to_quiescence(s: ZabState) -> ZabState {
        let m = module(&cfg());
        let mut s = s;
        for _ in 0..100 {
            let Some(inst) = m.actions.iter().flat_map(|a| a.enabled(&s)).next() else {
                break;
            };
            s = inst.next;
        }
        s
    }

    #[test]
    fn discovery_reaches_synchronization_with_a_new_epoch() {
        let s = run_to_quiescence(post_election());
        assert_eq!(s.servers[2].phase, ZabPhase::Synchronization);
        assert_eq!(s.servers[2].accepted_epoch, 1);
        assert_eq!(s.servers[2].current_epoch, 1);
        assert!(!s.servers[2].epoch_acks.is_empty());
        // Followers that processed LEADERINFO accepted the epoch.
        for i in 0..2 {
            if s.servers[i].phase == ZabPhase::Synchronization {
                assert_eq!(s.servers[i].accepted_epoch, 1);
            }
        }
    }

    #[test]
    fn leader_records_learner_last_zxid() {
        let mut s = post_election();
        s.servers[0].history.push(crate::types::Txn::new(1, 1, 5));
        let s = run_to_quiescence(s);
        assert_eq!(
            s.servers[2].learner_last_zxid.get(&0),
            Some(&Zxid::new(1, 1))
        );
    }

    #[test]
    fn epoch_is_bounded_by_configuration() {
        let mut s = post_election();
        for sv in &mut s.servers {
            sv.accepted_epoch = 4; // == max_epoch, so the next epoch would exceed it
        }
        let s = run_to_quiescence(s);
        assert!(
            !s.servers[2].epoch_proposed,
            "epoch proposal must respect max_epoch"
        );
    }

    #[test]
    fn stale_leaderinfo_sends_follower_back_to_election() {
        let mut s = post_election();
        s.servers[0].accepted_epoch = 3;
        s.servers[0].connected = true;
        s.msgs[2][0].push(Message::LeaderInfo { epoch: 1 });
        let m = module(&cfg());
        let inst = m.actions[2]
            .enabled(&s)
            .into_iter()
            .find(|i| i.label.to_string() == "FollowerProcessLEADERINFO(0, 2)")
            .unwrap();
        assert_eq!(inst.next.servers[0].state, ServerState::Looking);
    }
}

//! Baseline Election module: a model of ZooKeeper's fast leader election (FLE).
//!
//! Votes are compared by `(currentEpoch, lastZxid, sid)`; a LOOKING server broadcasts its
//! vote, adopts any better vote it receives (and rebroadcasts), and decides once a quorum
//! of peers agrees with its vote.  Notification channels hold at most one pending
//! notification per ordered pair, mirroring FLE's "latest notification supersedes"
//! behaviour and keeping the state space finite.

use remix_spec::{ActionDef, Effect, Granularity, Label, ModuleSpec};

use crate::modules::ELECTION;
use crate::state::ZabState;
use crate::types::{Message, ServerState, Sid, SidSet, Vote, ZabPhase};

use super::{servers, Cfg};

/// Footprint of `FLEBroadcastNotification(i)`: writes `i`'s own state and every
/// outgoing channel (stale-notification replacement touches `msgs[i][j]` even for
/// unreachable peers; the sends read reachability, charged to the same bits).
fn eff_broadcast(n: usize, i: Sid) -> Effect {
    let mut eff = Effect::new().writes_server(i);
    for j in 0..n {
        if j != i {
            eff = eff.writes_channel(i, j);
        }
    }
    eff
}

/// Footprint of `FLENotificationTimeout(i)`: writes only `i`'s own state, but its
/// guard reads every peer's state (is a reachable peer still LOOKING?) and every
/// incoming channel (is the notification round quiet?); the reachability read is
/// covered by the incoming channel bit of each pair.
fn eff_timeout(n: usize, i: Sid) -> Effect {
    let mut eff = Effect::new().writes_server(i);
    for j in 0..n {
        if j != i {
            eff = eff.reads_server(j).reads_channel(j, i);
        }
    }
    eff
}

/// Sends (or replaces) the notification from `i` to every reachable peer.
fn broadcast_vote(state: &mut ZabState, i: Sid) {
    let vote = state.servers[i].vote;
    for j in 0..state.n() {
        if j == i {
            continue;
        }
        // Replace any stale pending notification from `i` to `j`.
        state.msgs[i][j].retain(|m| !matches!(m, Message::Notification { .. }));
        state.send(i, j, Message::Notification { vote });
    }
    state.servers[i].vote_broadcast = true;
}

/// `FLEBroadcastNotification(i)`: a LOOKING server advertises its current vote.
fn fle_broadcast(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FLEBroadcastNotification",
        ELECTION,
        Granularity::Baseline,
        vec!["state", "currentVote", "electionMsgs"],
        vec!["electionMsgs", "currentVote"],
        |s: &ZabState, sink| {
            for i in servers(s) {
                let sv = &s.servers[i];
                if sv.state == ServerState::Looking && !sv.vote_broadcast {
                    sink.offer(
                        Label::new("FLEBroadcastNotification").arg(i),
                        eff_broadcast(s.n(), i),
                        |next| {
                            broadcast_vote(next, i);
                        },
                    );
                }
            }
        },
    )
}

/// `FLEReceiveNotification(i, j)`: a server receives a peer's vote, adopting it when it
/// is better than its own.
fn fle_receive(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FLEReceiveNotification",
        ELECTION,
        Granularity::Baseline,
        vec!["state", "currentVote", "receiveVotes", "electionMsgs"],
        vec!["currentVote", "receiveVotes", "electionMsgs"],
        |s: &ZabState, sink| {
            for (i, j) in super::pairs(s) {
                if !s.servers[i].is_up() {
                    continue;
                }
                let Some(Message::Notification { vote }) = s.head(j, i) else {
                    continue;
                };
                let vote = *vote;
                sink.offer(
                    Label::new("FLEReceiveNotification").arg(i).arg(j),
                    super::eff_recv(i, j),
                    |next| {
                        next.pop(j, i);
                        if next.servers[i].state == ServerState::Looking {
                            next.servers[i].recv_votes.insert(j, vote);
                            if vote > next.servers[i].vote {
                                next.servers[i].vote = vote;
                                next.servers[i].vote_broadcast = false;
                            }
                        }
                    },
                );
            }
        },
    )
}

/// `FLEDecide(i)`: a LOOKING server that sees a quorum agreeing with its vote leaves the
/// election and enters Discovery as leader or follower.
fn fle_decide(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FLEDecide",
        ELECTION,
        Granularity::Baseline,
        vec!["state", "currentVote", "receiveVotes"],
        vec!["state", "zabState", "leaderAddr", "receiveVotes"],
        |s: &ZabState, sink| {
            for i in servers(s) {
                let sv = &s.servers[i];
                if sv.state != ServerState::Looking || !sv.vote_broadcast {
                    continue;
                }
                let mut agreeing: SidSet = sv
                    .recv_votes
                    .iter()
                    .filter(|(_, v)| **v == sv.vote)
                    .map(|(j, _)| *j)
                    .collect();
                agreeing.insert(i);
                if !s.is_quorum(&agreeing) {
                    continue;
                }
                let leader = sv.vote.leader;
                sink.offer(
                    Label::new("FLEDecide").arg(i),
                    Effect::new().writes_server(i),
                    |next| {
                        let sv = &mut next.servers[i];
                        sv.recv_votes.clear();
                        sv.leader = Some(leader);
                        sv.phase = ZabPhase::Discovery;
                        if leader == i {
                            sv.state = ServerState::Leading;
                        } else {
                            sv.state = ServerState::Following;
                        }
                    },
                );
            }
        },
    )
}

/// `FLENotificationTimeout(i)`: a LOOKING server whose notification round went quiet
/// rebroadcasts its vote (models FLE's notification timeout / new round).
fn fle_timeout(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "FLENotificationTimeout",
        ELECTION,
        Granularity::Baseline,
        vec!["state", "currentVote", "electionMsgs"],
        vec!["currentVote"],
        |s: &ZabState, sink| {
            for i in servers(s) {
                let sv = &s.servers[i];
                if sv.state != ServerState::Looking || !sv.vote_broadcast {
                    continue;
                }
                // Only meaningful when there are no pending notifications addressed to us
                // and some reachable peer is still looking.
                let quiet = (0..s.n())
                    .all(|j| j == i || !matches!(s.head(j, i), Some(Message::Notification { .. })));
                let peer_looking = (0..s.n()).any(|j| {
                    j != i && s.reachable(i, j) && s.servers[j].state == ServerState::Looking
                });
                if quiet && peer_looking {
                    sink.offer(
                        Label::new("FLENotificationTimeout").arg(i),
                        eff_timeout(s.n(), i),
                        |next| {
                            next.servers[i].vote_broadcast = false;
                        },
                    );
                }
            }
        },
    )
}

/// The baseline Election module specification (four FLE actions).
pub fn module(cfg: &Cfg) -> ModuleSpec<ZabState> {
    ModuleSpec::new(
        ELECTION,
        Granularity::Baseline,
        vec![
            fle_broadcast(cfg),
            fle_receive(cfg),
            fle_decide(cfg),
            fle_timeout(cfg),
        ],
    )
}

/// Initial vote of a server, used by tests and by state constructors.
pub fn self_vote(state: &ZabState, i: Sid) -> Vote {
    let sv = &state.servers[i];
    Vote {
        epoch: sv.current_epoch,
        zxid: sv.last_zxid(),
        leader: i,
    }
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

    fn init() -> ZabState {
        ZabState::initial(&ClusterConfig::small(CodeVersion::V391))
    }

    #[test]
    fn broadcast_is_enabled_for_all_looking_servers_initially() {
        let m = module(&cfg());
        let s = init();
        let broadcast = &m.actions[0];
        assert_eq!(broadcast.enabled(&s).len(), 3);
    }

    #[test]
    fn election_converges_to_highest_sid_without_history() {
        // Drive the election to completion with a synchronous round structure (everyone
        // broadcasts, then receives, then decides); with equal epochs and zxids the
        // highest sid (2) must win.
        let m = module(&cfg());
        let mut s = init();
        for _ in 0..200 {
            let mut applied = false;
            // Broadcast before receiving so that every vote (and every vote update)
            // reaches all peers before anyone decides.
            for a in [&m.actions[0], &m.actions[1], &m.actions[2]] {
                if let Some(inst) = a.enabled(&s).into_iter().next() {
                    s = inst.next;
                    applied = true;
                    break;
                }
            }
            if !applied {
                break;
            }
            if s.servers.iter().all(|sv| sv.state != ServerState::Looking) {
                break;
            }
        }
        assert_eq!(s.servers[2].state, ServerState::Leading);
        assert_eq!(s.servers[0].state, ServerState::Following);
        assert_eq!(s.servers[0].leader, Some(2));
        assert_eq!(s.servers[1].phase, ZabPhase::Discovery);
    }

    #[test]
    fn better_vote_is_adopted_and_rebroadcast() {
        let m = module(&cfg());
        let mut s = init();
        // Give server 0 a higher epoch so its vote beats the others.
        s.servers[0].current_epoch = 2;
        s.servers[0].vote = self_vote(&s, 0);
        // Server 0 broadcasts; server 1 receives and must adopt the vote.
        let b = m.actions[0]
            .enabled(&s)
            .into_iter()
            .find(|i| i.label.to_string() == "FLEBroadcastNotification(0)")
            .unwrap();
        let s = b.next;
        let r = m.actions[1]
            .enabled(&s)
            .into_iter()
            .find(|i| i.label.to_string() == "FLEReceiveNotification(1, 0)")
            .unwrap();
        let s = r.next;
        assert_eq!(s.servers[1].vote.leader, 0);
        assert!(
            !s.servers[1].vote_broadcast,
            "adopting a vote forces a rebroadcast"
        );
    }

    #[test]
    fn notification_channels_hold_at_most_one_pending_notification() {
        let m = module(&cfg());
        let s = init();
        let s = m.actions[0].enabled(&s).into_iter().next().unwrap().next;
        // Timeout then rebroadcast: the channel still holds exactly one notification.
        let i = s
            .servers
            .iter()
            .position(|sv| sv.vote_broadcast)
            .expect("someone broadcast");
        let mut s2 = s.clone();
        s2.servers[i].vote_broadcast = false;
        let s2 = m.actions[0]
            .enabled(&s2)
            .into_iter()
            .find(|inst| inst.label == Label::new("FLEBroadcastNotification").arg(i))
            .unwrap()
            .next;
        for j in 0..s2.n() {
            if j != i {
                let notifications = s2.msgs[i][j]
                    .iter()
                    .filter(|msg| matches!(msg, Message::Notification { .. }))
                    .count();
                assert_eq!(notifications, 1);
            }
        }
    }

    #[test]
    fn crashed_servers_do_not_participate() {
        let m = module(&cfg());
        let mut s = init();
        s.servers[1].crash();
        let labels: Vec<String> = m
            .actions
            .iter()
            .flat_map(|a| a.enabled(&s))
            .map(|i| i.label.to_string())
            .collect();
        assert!(labels
            .iter()
            .all(|l| !l.contains("(1)") && !l.contains("(1,")));
    }
}

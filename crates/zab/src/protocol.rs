//! The protocol-level specification of Zab (§2.1.1) and the improved protocol of §5.4.
//!
//! The protocol specification follows the Zab paper's pen-and-paper description: leader
//! election is an oracle, and the follower's handling of NEWLEADER atomically updates
//! both its epoch and its history.  The improved protocol of §5.4 drops the atomicity
//! requirement but fixes the order — history before epoch — which is what makes it safe
//! to implement with non-atomic updates.
//!
//! Both variants are model-checked against the ten protocol-level invariants; the state
//! type reuses [`ZabState`] so the same invariant library applies.

use std::sync::Arc;

use remix_spec::{compose, ActionDef, ActionInstance, Granularity, Label, ModuleSpec, Spec};

use crate::config::ClusterConfig;
use crate::invariants::protocol_invariants;
use crate::modules::{BROADCAST, ELECTION, FAULTS, SYNCHRONIZATION};
use crate::state::ZabState;
use crate::types::{Message, ServerState, Sid, SidSet, ZabPhase, Zxid};

/// Which protocol variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolVariant {
    /// The original Zab protocol: epoch and history are updated atomically on NEWLEADER.
    Original,
    /// The improved protocol of §5.4: the updates are split into two serialized actions,
    /// history first, epoch second (tracked by a serving-state condition).
    Improved,
}

/// `OracleElectLeader(i, Q)`: the leader oracle picks the member of `Q` with the most
/// up-to-date history, and the quorum enters the Synchronization phase with a new epoch.
fn oracle_elect(cfg: &Arc<ClusterConfig>) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "OracleElectLeader",
        ELECTION,
        Granularity::Protocol,
        vec!["state", "currentEpoch", "history"],
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "acceptedEpoch",
            "currentEpoch",
            "learners",
        ],
        move |s: &ZabState| {
            let mut out = Vec::new();
            let looking: Vec<Sid> = (0..s.n())
                .filter(|&i| s.servers[i].is_up() && s.servers[i].state == ServerState::Looking)
                .collect();
            if looking.len() < s.quorum_size() {
                return out;
            }
            let new_epoch = s.max_accepted_epoch() + 1;
            if new_epoch > cfg.max_epoch {
                return out;
            }
            // The oracle considers every quorum of looking servers.
            let n = looking.len();
            for mask in 1u32..(1 << n) {
                let q: SidSet = looking
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| mask & (1 << k) != 0)
                    .map(|(_, &x)| x)
                    .collect();
                if q.len() < s.quorum_size() {
                    continue;
                }
                let Some(leader) = q
                    .iter()
                    .max_by_key(|&i| (s.servers[i].current_epoch, s.servers[i].last_zxid(), i))
                else {
                    continue;
                };
                let mut next = s.clone();
                for m in q.iter() {
                    let sv = &mut next.servers[m];
                    sv.accepted_epoch = new_epoch;
                    sv.leader = Some(leader);
                    sv.phase = ZabPhase::Synchronization;
                    if m == leader {
                        sv.state = ServerState::Leading;
                        sv.current_epoch = new_epoch;
                    } else {
                        sv.state = ServerState::Following;
                    }
                }
                for m in q.iter() {
                    if m != leader {
                        let z = next.servers[m].last_zxid();
                        next.servers[leader].learners.insert(m);
                        next.servers[leader].epoch_acks.insert(m);
                        next.servers[leader].learner_last_zxid.insert(m, z);
                    }
                }
                out.push(ActionInstance::new(
                    Label::new("OracleElectLeader").arg(leader).set(q.iter()),
                    next,
                ));
            }
            out
        },
    )
}

/// `LeaderSendNEWLEADER(i, j)`: the leader sends its complete history with NEWLEADER
/// (Step l.2.1 of the protocol — no DIFF/TRUNC/SNAP optimization at this level).
fn leader_send_newleader(_cfg: &Arc<ClusterConfig>) -> ActionDef<ZabState> {
    ActionDef::new(
        "LeaderSendNEWLEADER",
        SYNCHRONIZATION,
        Granularity::Protocol,
        vec!["state", "zabState", "history", "ackeRecv"],
        vec!["msgs"],
        |s: &ZabState| {
            let mut out = Vec::new();
            for i in 0..s.n() {
                if s.servers[i].state != ServerState::Leading
                    || s.servers[i].phase != ZabPhase::Synchronization
                {
                    continue;
                }
                for j in s.servers[i].epoch_acks.iter() {
                    if s.servers[i].sync_sent.contains(&j) || !s.reachable(i, j) {
                        continue;
                    }
                    let mut next = s.clone();
                    let epoch = next.servers[i].accepted_epoch;
                    let history = next.servers[i].history.clone();
                    let committed_upto = if next.servers[i].last_committed > 0 {
                        next.servers[i].history[next.servers[i].last_committed - 1].zxid
                    } else {
                        Zxid::ZERO
                    };
                    let zxid = next.servers[i].last_zxid();
                    next.servers[i].sync_sent.insert(j);
                    next.send(
                        i,
                        j,
                        Message::SyncPackets {
                            mode: crate::types::SyncMode::Snap,
                            txns: history,
                            committed_upto,
                            trunc_to: Zxid::ZERO,
                        },
                    );
                    next.send(i, j, Message::NewLeader { epoch, zxid });
                    out.push(ActionInstance::new(
                        Label::new("LeaderSendNEWLEADER").arg(i).arg(j),
                        next,
                    ));
                }
            }
            out
        },
    )
}

/// Builds the follower-side NEWLEADER handling for the chosen protocol variant.
fn follower_newleader_actions(
    variant: ProtocolVariant,
    _cfg: &Arc<ClusterConfig>,
) -> Vec<ActionDef<ZabState>> {
    // Shared guard: the follower has a SyncPackets+NewLeader pair pending.
    fn pending(s: &ZabState, i: Sid, j: Sid) -> Option<(u32, Zxid)> {
        let sv = &s.servers[i];
        if !sv.is_up()
            || sv.state != ServerState::Following
            || sv.leader != Some(j)
            || sv.phase != ZabPhase::Synchronization
        {
            return None;
        }
        match s.head(j, i) {
            Some(Message::NewLeader { epoch, zxid }) => Some((*epoch, *zxid)),
            _ => None,
        }
    }
    // Accepting the leader's history: replace the follower's log (protocol-level SNAP).
    fn accept_history(s: &mut ZabState, i: Sid, j: Sid) {
        if let Some(Message::SyncPackets {
            txns,
            committed_upto,
            ..
        }) = s.pop(j, i)
        {
            let sv = &mut s.servers[i];
            sv.history = txns;
            sv.last_committed = sv
                .history
                .iter()
                .filter(|t| t.zxid <= committed_upto)
                .count();
        }
    }

    match variant {
        ProtocolVariant::Original => {
            vec![ActionDef::new(
                "FollowerProcessNEWLEADER",
                SYNCHRONIZATION,
                Granularity::Protocol,
                vec!["state", "zabState", "leaderAddr", "acceptedEpoch", "msgs"],
                vec!["currentEpoch", "history", "lastCommitted", "msgs"],
                |s: &ZabState| {
                    let mut out = Vec::new();
                    for i in 0..s.n() {
                        for j in 0..s.n() {
                            if i == j {
                                continue;
                            }
                            // The SyncPackets message precedes NEWLEADER in the channel.
                            let has_packets =
                                matches!(s.head(j, i), Some(Message::SyncPackets { .. }));
                            if !has_packets {
                                continue;
                            }
                            let mut probe = s.clone();
                            probe.pop(j, i);
                            let Some((epoch, zxid)) = pending(&probe, i, j) else {
                                continue;
                            };
                            let mut next = s.clone();
                            // Atomically: accept the history, set the epoch, acknowledge.
                            accept_history(&mut next, i, j);
                            next.pop(j, i);
                            next.servers[i].current_epoch = epoch;
                            next.servers[i].accepted_epoch = epoch;
                            next.send(i, j, Message::Ack { zxid });
                            out.push(ActionInstance::new(
                                Label::new("FollowerProcessNEWLEADER").arg(i).arg(j),
                                next,
                            ));
                        }
                    }
                    out
                },
            )]
        }
        ProtocolVariant::Improved => vec![
            ActionDef::new(
                "FollowerProcessNEWLEADER_AcceptHistory",
                SYNCHRONIZATION,
                Granularity::Protocol,
                vec!["state", "zabState", "leaderAddr", "msgs"],
                vec!["history", "lastCommitted", "msgs"],
                |s: &ZabState| {
                    let mut out = Vec::new();
                    for i in 0..s.n() {
                        for j in 0..s.n() {
                            if i == j || !matches!(s.head(j, i), Some(Message::SyncPackets { .. }))
                            {
                                continue;
                            }
                            let mut probe = s.clone();
                            probe.pop(j, i);
                            if pending(&probe, i, j).is_none() {
                                continue;
                            }
                            let mut next = s.clone();
                            accept_history(&mut next, i, j);
                            out.push(ActionInstance::new(
                                Label::new("FollowerProcessNEWLEADER_AcceptHistory")
                                    .arg(i)
                                    .arg(j),
                                next,
                            ));
                        }
                    }
                    out
                },
            ),
            ActionDef::new(
                "FollowerProcessNEWLEADER_UpdateEpochAndAck",
                SYNCHRONIZATION,
                Granularity::Protocol,
                vec!["state", "zabState", "leaderAddr", "acceptedEpoch", "msgs"],
                vec!["currentEpoch", "acceptedEpoch", "msgs"],
                |s: &ZabState| {
                    let mut out = Vec::new();
                    for i in 0..s.n() {
                        for j in 0..s.n() {
                            if i == j {
                                continue;
                            }
                            // History must have been accepted first (the SyncPackets
                            // message is gone and NEWLEADER is now at the head).
                            let Some((epoch, zxid)) = pending(s, i, j) else {
                                continue;
                            };
                            let mut next = s.clone();
                            next.pop(j, i);
                            next.servers[i].current_epoch = epoch;
                            next.servers[i].accepted_epoch = epoch;
                            next.send(i, j, Message::Ack { zxid });
                            out.push(ActionInstance::new(
                                Label::new("FollowerProcessNEWLEADER_UpdateEpochAndAck")
                                    .arg(i)
                                    .arg(j),
                                next,
                            ));
                        }
                    }
                    out
                },
            ),
        ],
    }
}

/// `LeaderProcessACKLD` and `FollowerProcessCOMMITLD`: establishment and delivery of the
/// initial history, protocol style (the leader sends a single "commit-all" UPTODATE).
fn establishment_actions(_cfg: &Arc<ClusterConfig>) -> Vec<ActionDef<ZabState>> {
    vec![
        ActionDef::new(
            "LeaderProcessACKLD",
            SYNCHRONIZATION,
            Granularity::Protocol,
            vec!["state", "zabState", "ackldRecv", "history", "msgs"],
            vec![
                "ackldRecv",
                "lastCommitted",
                "zabState",
                "serving",
                "msgs",
                "ghost",
            ],
            |s: &ZabState| {
                let mut out = Vec::new();
                for i in 0..s.n() {
                    for j in 0..s.n() {
                        if i == j
                            || s.servers[i].state != ServerState::Leading
                            || s.servers[i].phase != ZabPhase::Synchronization
                        {
                            continue;
                        }
                        let Some(Message::Ack { zxid }) = s.head(j, i) else {
                            continue;
                        };
                        if *zxid != s.servers[i].last_zxid() {
                            continue;
                        }
                        let mut next = s.clone();
                        next.pop(j, i);
                        next.servers[i].newleader_acks.insert(j);
                        let mut acked = next.servers[i].newleader_acks;
                        acked.insert(i);
                        if next.is_quorum(&acked) && !next.servers[i].established {
                            let epoch = next.servers[i].accepted_epoch;
                            let history = next.servers[i].history.clone();
                            next.servers[i].established = true;
                            next.servers[i].last_committed = next.servers[i].history.len();
                            next.servers[i].phase = ZabPhase::Broadcast;
                            next.servers[i].serving = true;
                            next.record_establishment(epoch, i, history);
                            let last = next.servers[i].last_zxid();
                            for f in next.servers[i].newleader_acks.iter() {
                                next.send(i, f, Message::UpToDate { zxid: last });
                            }
                        }
                        out.push(ActionInstance::new(
                            Label::new("LeaderProcessACKLD").arg(i).arg(j),
                            next,
                        ));
                    }
                }
                out
            },
        ),
        ActionDef::new(
            "FollowerProcessCOMMITLD",
            SYNCHRONIZATION,
            Granularity::Protocol,
            vec!["state", "zabState", "leaderAddr", "history", "msgs"],
            vec!["lastCommitted", "zabState", "serving", "msgs"],
            |s: &ZabState| {
                let mut out = Vec::new();
                for i in 0..s.n() {
                    for j in 0..s.n() {
                        if i == j
                            || s.servers[i].state != ServerState::Following
                            || s.servers[i].leader != Some(j)
                            || s.servers[i].phase != ZabPhase::Synchronization
                        {
                            continue;
                        }
                        let Some(Message::UpToDate { zxid }) = s.head(j, i) else {
                            continue;
                        };
                        let zxid = *zxid;
                        let mut next = s.clone();
                        next.pop(j, i);
                        let sv = &mut next.servers[i];
                        sv.last_committed = sv.history.iter().filter(|t| t.zxid <= zxid).count();
                        sv.phase = ZabPhase::Broadcast;
                        sv.serving = true;
                        out.push(ActionInstance::new(
                            Label::new("FollowerProcessCOMMITLD").arg(i).arg(j),
                            next,
                        ));
                    }
                }
                out
            },
        ),
    ]
}

/// Broadcast-phase actions at protocol granularity: propose, ack, commit, deliver.
fn broadcast_actions(cfg: &Arc<ClusterConfig>) -> Vec<ActionDef<ZabState>> {
    let cfg_prop = cfg.clone();
    vec![
        ActionDef::new(
            "LeaderBroadcastPROPOSE",
            BROADCAST,
            Granularity::Protocol,
            vec!["state", "zabState", "currentEpoch", "history", "txnBudget"],
            vec!["history", "proposalAcks", "msgs", "txnBudget", "ghost"],
            move |s: &ZabState| {
                let mut out = Vec::new();
                for i in 0..s.n() {
                    let mut next = s.clone();
                    if crate::actions::broadcast::leader_process_request_step(
                        &cfg_prop, &mut next, i,
                    ) {
                        out.push(ActionInstance::new(
                            Label::new("LeaderBroadcastPROPOSE").arg(i),
                            next,
                        ));
                    }
                }
                out
            },
        ),
        ActionDef::new(
            "FollowerAcceptPROPOSE",
            BROADCAST,
            Granularity::Protocol,
            vec!["state", "zabState", "leaderAddr", "history", "msgs"],
            vec!["history", "msgs"],
            |s: &ZabState| {
                let mut out = Vec::new();
                for i in 0..s.n() {
                    for j in 0..s.n() {
                        if i == j
                            || s.servers[i].state != ServerState::Following
                            || s.servers[i].leader != Some(j)
                            || s.servers[i].phase != ZabPhase::Broadcast
                        {
                            continue;
                        }
                        let Some(Message::Proposal { txn }) = s.head(j, i) else {
                            continue;
                        };
                        let txn = *txn;
                        let mut next = s.clone();
                        next.pop(j, i);
                        next.servers[i].history.push(txn);
                        next.send(i, j, Message::Ack { zxid: txn.zxid });
                        out.push(ActionInstance::new(
                            Label::new("FollowerAcceptPROPOSE").arg(i).arg(j),
                            next,
                        ));
                    }
                }
                out
            },
        ),
        ActionDef::new(
            "LeaderProcessACK",
            BROADCAST,
            Granularity::Protocol,
            vec!["state", "zabState", "proposalAcks", "msgs"],
            vec!["proposalAcks", "lastCommitted", "ackldRecv", "msgs"],
            |s: &ZabState| {
                let mut out = Vec::new();
                for i in 0..s.n() {
                    for j in 0..s.n() {
                        if i == j {
                            continue;
                        }
                        let mut next = s.clone();
                        if crate::actions::broadcast::leader_process_ack_step(&mut next, i, j) {
                            out.push(ActionInstance::new(
                                Label::new("LeaderProcessACK").arg(i).arg(j),
                                next,
                            ));
                        }
                    }
                }
                out
            },
        ),
        ActionDef::new(
            "FollowerDeliverCOMMIT",
            BROADCAST,
            Granularity::Protocol,
            vec![
                "state",
                "zabState",
                "leaderAddr",
                "history",
                "lastCommitted",
                "msgs",
            ],
            vec!["lastCommitted", "msgs"],
            |s: &ZabState| {
                let mut out = Vec::new();
                for i in 0..s.n() {
                    for j in 0..s.n() {
                        if i == j
                            || s.servers[i].state != ServerState::Following
                            || s.servers[i].leader != Some(j)
                            || s.servers[i].phase != ZabPhase::Broadcast
                        {
                            continue;
                        }
                        let Some(Message::Commit { zxid }) = s.head(j, i) else {
                            continue;
                        };
                        let zxid = *zxid;
                        let mut next = s.clone();
                        next.pop(j, i);
                        crate::actions::broadcast::follower_apply_commit(&mut next, i, zxid, false);
                        out.push(ActionInstance::new(
                            Label::new("FollowerDeliverCOMMIT").arg(i).arg(j),
                            next,
                        ));
                    }
                }
                out
            },
        ),
    ]
}

/// Crash / restart / failure-detection actions at protocol granularity (reused from the
/// system-level fault module).
fn fault_module(cfg: &Arc<ClusterConfig>) -> ModuleSpec<ZabState> {
    crate::actions::faults::module(cfg)
}

/// Builds the protocol specification (original or improved) for a configuration.
pub fn protocol_spec(variant: ProtocolVariant, config: &ClusterConfig) -> Spec<ZabState> {
    let cfg = Arc::new(*config);
    let election = ModuleSpec::new(ELECTION, Granularity::Protocol, vec![oracle_elect(&cfg)]);
    let mut sync_actions = vec![leader_send_newleader(&cfg)];
    sync_actions.extend(follower_newleader_actions(variant, &cfg));
    sync_actions.extend(establishment_actions(&cfg));
    let sync = ModuleSpec::new(SYNCHRONIZATION, Granularity::Protocol, sync_actions);
    let broadcast = ModuleSpec::new(BROADCAST, Granularity::Protocol, broadcast_actions(&cfg));
    let faults = fault_module(&cfg);
    let name = match variant {
        ProtocolVariant::Original => "ProtocolSpec",
        ProtocolVariant::Improved => "ProtocolSpec-Improved",
    };
    let _ = FAULTS;
    compose(
        name,
        vec![ZabState::initial(config)],
        vec![election, sync, broadcast, faults],
        protocol_invariants(),
    )
    .expect("protocol composition is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::versions::CodeVersion;

    fn config() -> ClusterConfig {
        ClusterConfig {
            max_transactions: 1,
            max_crashes: 1,
            max_epoch: 2,
            ..ClusterConfig::small(CodeVersion::FinalFix)
        }
    }

    #[test]
    fn both_variants_build() {
        let original = protocol_spec(ProtocolVariant::Original, &config());
        let improved = protocol_spec(ProtocolVariant::Improved, &config());
        assert!(original.action_count() > 0);
        // The improved protocol splits NEWLEADER handling into two serialized actions.
        assert_eq!(improved.action_count(), original.action_count() + 1);
        assert_eq!(original.invariants.len(), 10);
    }

    #[test]
    fn improved_protocol_orders_history_before_epoch() {
        let spec = protocol_spec(ProtocolVariant::Improved, &config());
        let mut s = ZabState::initial(&config());
        // Elect a leader and run until a follower has the NEWLEADER pair pending.
        for _ in 0..10 {
            let succ = spec.successors(&s);
            let Some((_, n)) = succ.iter().find(|(l, _)| {
                l.starts_with("OracleElectLeader") || l.starts_with("LeaderSendNEWLEADER")
            }) else {
                break;
            };
            s = n.clone();
        }
        let succ = spec.successors(&s);
        let has_accept = succ
            .iter()
            .any(|(l, _)| l.starts_with("FollowerProcessNEWLEADER_AcceptHistory"));
        let has_epoch = succ
            .iter()
            .any(|(l, _)| l.starts_with("FollowerProcessNEWLEADER_UpdateEpochAndAck"));
        assert!(has_accept, "history acceptance must be enabled first");
        assert!(!has_epoch, "epoch update must wait for the history");
    }
}

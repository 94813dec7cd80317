//! Fault module: node crashes, restarts, failure detection and network partitions.
//!
//! The fault actions are composed into every specification (the "other actions, e.g. for
//! modeling faults" of Figure 7).  The follower-shutdown path is where ZK-4712 lives: in
//! the buggy versions the SyncRequestProcessor queue survives the shutdown and its stale
//! requests may still be logged after the server joins a new epoch.

use remix_spec::effect::flags;
use remix_spec::{ActionDef, ActionInstance, Effect, Granularity, Label, ModuleSpec};

use crate::modules::FAULTS;
use crate::state::ZabState;
use crate::types::{ServerState, SidSet};

use super::{servers, Cfg};

/// `NodeCrash(i)`: the process dies; volatile state and in-flight messages are lost.
fn node_crash(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "NodeCrash",
        FAULTS,
        Granularity::Baseline,
        vec!["state", "crashBudget"],
        vec![
            "state",
            "zabState",
            "crashBudget",
            "msgs",
            "queuedRequests",
            "committedRequests",
        ],
        |s: &ZabState| {
            let mut out = Vec::new();
            if s.crashes_remaining == 0 {
                return out;
            }
            for i in servers(s) {
                if !s.servers[i].is_up() {
                    continue;
                }
                let mut next = s.clone();
                next.crashes_remaining -= 1;
                next.servers[i].crash();
                next.clear_channels(i);
                out.push(
                    ActionInstance::new(Label::new("NodeCrash").arg(i), next).with_effect(
                        Effect::new()
                            .writes_server(i)
                            .writes_channels_of(i)
                            .writes_flag(flags::CRASH_BUDGET),
                    ),
                );
            }
            out
        },
    )
}

/// `NodeRestart(i)`: a crashed server comes back with its durable state and rejoins
/// leader election.
fn node_restart(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "NodeRestart",
        FAULTS,
        Granularity::Baseline,
        vec!["state"],
        vec!["state", "zabState", "currentVote", "lastCommitted"],
        |s: &ZabState| {
            let mut out = Vec::new();
            for i in servers(s) {
                if s.servers[i].state != ServerState::Down {
                    continue;
                }
                let mut next = s.clone();
                next.servers[i].restart(i);
                // Restart flips `reachable(i, j)` for every peer `j` from false to
                // true, and link status is charged to the channel pair bits (the
                // convention in `actions/mod.rs`), so `i`'s channels are written even
                // though no message moves — otherwise a guard or a `send` reading
                // reachability of a link of `i` (e.g. `FollowerShutdown`'s dead-leader
                // check) would be disabled by a restart it was declared independent of.
                out.push(
                    ActionInstance::new(Label::new("NodeRestart").arg(i), next)
                        .with_effect(Effect::new().writes_server(i).writes_channels_of(i)),
                );
            }
            out
        },
    )
}

/// `FollowerShutdown(i)`: a follower that can no longer reach its leader abandons it and
/// goes back to leader election.  Whether the logging queue is cleared depends on the
/// code version (ZK-4712).
fn follower_shutdown(cfg: &Cfg) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "FollowerShutdown",
        FAULTS,
        Granularity::Baseline,
        vec!["state", "leaderAddr", "partitions"],
        vec![
            "state",
            "zabState",
            "currentVote",
            "queuedRequests",
            "committedRequests",
            "msgs",
        ],
        move |s: &ZabState| {
            let mut out = Vec::new();
            for i in servers(s) {
                let sv = &s.servers[i];
                if !sv.is_up() || sv.state != ServerState::Following {
                    continue;
                }
                let Some(leader) = sv.leader else { continue };
                if s.reachable(i, leader) {
                    continue;
                }
                let mut next = s.clone();
                let clear_queue = !cfg.bugs().shutdown_keeps_request_queue;
                next.servers[i].shutdown_to_looking(i, clear_queue);
                next.clear_pair_channels(i, leader);
                // The leader endpoint is state-dependent, so claim every channel of `i`.
                out.push(
                    ActionInstance::new(Label::new("FollowerShutdown").arg(i), next)
                        .with_effect(Effect::new().writes_server(i).writes_channels_of(i)),
                );
            }
            out
        },
    )
}

/// `LeaderShutdown(i)`: a leader that can no longer reach a quorum abandons leadership.
fn leader_shutdown(cfg: &Cfg) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "LeaderShutdown",
        FAULTS,
        Granularity::Baseline,
        vec!["state", "partitions"],
        vec![
            "state",
            "zabState",
            "currentVote",
            "queuedRequests",
            "committedRequests",
            "msgs",
        ],
        move |s: &ZabState| {
            let mut out = Vec::new();
            for i in servers(s) {
                let sv = &s.servers[i];
                if !sv.is_up() || sv.state != ServerState::Leading {
                    continue;
                }
                let reachable: SidSet = (0..s.n()).filter(|&j| s.reachable(i, j)).collect();
                if s.is_quorum(&reachable) {
                    continue;
                }
                let mut next = s.clone();
                let clear_queue = !cfg.bugs().shutdown_keeps_request_queue;
                next.servers[i].shutdown_to_looking(i, clear_queue);
                next.clear_channels(i);
                // The quorum scan reads every server's up status.
                let mut effect = Effect::new().writes_server(i).writes_channels_of(i);
                for j in servers(s) {
                    effect = effect.reads_server(j);
                }
                out.push(
                    ActionInstance::new(Label::new("LeaderShutdown").arg(i), next)
                        .with_effect(effect),
                );
            }
            out
        },
    )
}

/// `NetworkPartition(i, j)`: the link between two servers breaks; in-flight messages on
/// the link are lost.
fn network_partition(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "NetworkPartition",
        FAULTS,
        Granularity::Baseline,
        vec!["partitions"],
        vec!["partitions", "msgs"],
        |s: &ZabState| {
            let mut out = Vec::new();
            if s.partitions_remaining == 0 {
                return out;
            }
            for i in 0..s.n() {
                for j in (i + 1)..s.n() {
                    if s.partitioned.contains(&(i, j))
                        || !s.servers[i].is_up()
                        || !s.servers[j].is_up()
                    {
                        continue;
                    }
                    let mut next = s.clone();
                    next.partitions_remaining -= 1;
                    next.partitioned.insert((i, j));
                    next.clear_pair_channels(i, j);
                    out.push(
                        ActionInstance::new(Label::new("NetworkPartition").arg(i).arg(j), next)
                            .with_effect(
                                Effect::new()
                                    .reads_server(i)
                                    .reads_server(j)
                                    .writes_channel(i, j)
                                    .writes_channel(j, i)
                                    .writes_flag(flags::PARTITION_BUDGET),
                            ),
                    );
                }
            }
            out
        },
    )
}

/// `PartitionRecover(i, j)`: a partitioned link heals.
fn partition_recover(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "PartitionRecover",
        FAULTS,
        Granularity::Baseline,
        vec!["partitions"],
        vec!["partitions"],
        |s: &ZabState| {
            let mut out = Vec::new();
            for &(i, j) in &s.partitioned {
                let mut next = s.clone();
                next.partitioned.remove(&(i, j));
                out.push(
                    ActionInstance::new(Label::new("PartitionRecover").arg(i).arg(j), next)
                        .with_effect(Effect::new().writes_channel(i, j).writes_channel(j, i)),
                );
            }
            out
        },
    )
}

/// The fault module specification (six actions).
pub fn module(cfg: &Cfg) -> ModuleSpec<ZabState> {
    ModuleSpec::new(
        FAULTS,
        Granularity::Baseline,
        vec![
            node_crash(cfg),
            node_restart(cfg),
            follower_shutdown(cfg),
            leader_shutdown(cfg),
            network_partition(cfg),
            partition_recover(cfg),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::types::{Txn, ZabPhase};
    use crate::versions::CodeVersion;
    use std::sync::Arc;

    fn cfg(version: CodeVersion) -> Cfg {
        Arc::new(ClusterConfig::small(version).with_partitions(1))
    }

    fn following_state() -> ZabState {
        let mut s = ZabState::initial(&ClusterConfig::small(CodeVersion::V391).with_partitions(1));
        s.servers[2].state = ServerState::Leading;
        s.servers[2].leader = Some(2);
        s.servers[2].phase = ZabPhase::Broadcast;
        for i in 0..2 {
            s.servers[i].state = ServerState::Following;
            s.servers[i].leader = Some(2);
            s.servers[i].phase = ZabPhase::Broadcast;
        }
        s
    }

    #[test]
    fn crash_budget_limits_crashes() {
        let m = module(&cfg(CodeVersion::V391));
        let s = following_state();
        let crash = m.actions.iter().find(|a| a.name == "NodeCrash").unwrap();
        assert_eq!(crash.enabled(&s).len(), 3);
        let mut exhausted = s.clone();
        exhausted.crashes_remaining = 0;
        assert!(crash.enabled(&exhausted).is_empty());
    }

    #[test]
    fn follower_shutdown_requires_unreachable_leader() {
        let m = module(&cfg(CodeVersion::V391));
        let s = following_state();
        let shutdown = m
            .actions
            .iter()
            .find(|a| a.name == "FollowerShutdown")
            .unwrap();
        assert!(
            shutdown.enabled(&s).is_empty(),
            "leader reachable: no shutdown"
        );
        let mut s2 = s.clone();
        s2.servers[2].crash();
        let insts = shutdown.enabled(&s2);
        assert_eq!(insts.len(), 2);
        assert!(insts.iter().all(|i| {
            let sv = &i.next.servers
                [usize::from(i.label.to_string().as_bytes()["FollowerShutdown(".len()] - b'0')];
            sv.state == ServerState::Looking
        }));
    }

    #[test]
    fn buggy_shutdown_keeps_the_logging_queue() {
        let buggy = module(&cfg(CodeVersion::V391));
        let fixed = module(&cfg(CodeVersion::MSpec3Plus));
        let mut s = following_state();
        s.servers[0].queued_requests.push(Txn::new(1, 1, 1));
        s.servers[2].crash();

        let shutdown = |m: &ModuleSpec<ZabState>, s: &ZabState| {
            m.actions
                .iter()
                .find(|a| a.name == "FollowerShutdown")
                .unwrap()
                .enabled(s)
                .into_iter()
                .find(|i| i.label.to_string() == "FollowerShutdown(0)")
                .unwrap()
                .next
        };
        assert_eq!(
            shutdown(&buggy, &s).servers[0].queued_requests.len(),
            1,
            "ZK-4712 path"
        );
        assert!(
            shutdown(&fixed, &s).servers[0].queued_requests.is_empty(),
            "fixed path"
        );
    }

    #[test]
    fn leader_shutdown_when_quorum_lost() {
        let m = module(&cfg(CodeVersion::V391));
        let mut s = following_state();
        s.servers[0].crash();
        s.servers[1].crash();
        s.crashes_remaining = 0;
        let shutdown = m
            .actions
            .iter()
            .find(|a| a.name == "LeaderShutdown")
            .unwrap();
        let insts = shutdown.enabled(&s);
        assert_eq!(insts.len(), 1);
        assert_eq!(insts[0].next.servers[2].state, ServerState::Looking);
    }

    #[test]
    fn partition_and_recovery() {
        let m = module(&cfg(CodeVersion::V391));
        let s = following_state();
        let partition = m
            .actions
            .iter()
            .find(|a| a.name == "NetworkPartition")
            .unwrap();
        let insts = partition.enabled(&s);
        assert_eq!(insts.len(), 3, "three possible pairs");
        let partitioned = insts.into_iter().next().unwrap().next;
        assert_eq!(partitioned.partitioned.len(), 1);
        assert_eq!(partitioned.partitions_remaining, 0);
        let recover = m
            .actions
            .iter()
            .find(|a| a.name == "PartitionRecover")
            .unwrap();
        let healed = recover
            .enabled(&partitioned)
            .into_iter()
            .next()
            .unwrap()
            .next;
        assert!(healed.partitioned.is_empty());
        // The budget is not restored by healing.
        assert_eq!(healed.partitions_remaining, 0);
    }

    #[test]
    fn restart_returns_to_election_with_durable_state() {
        let m = module(&cfg(CodeVersion::V391));
        let mut s = following_state();
        s.servers[1].history.push(Txn::new(1, 1, 1));
        s.servers[1].current_epoch = 1;
        s.servers[1].crash();
        let restart = m.actions.iter().find(|a| a.name == "NodeRestart").unwrap();
        let restarted = restart.enabled(&s).into_iter().next().unwrap().next;
        assert_eq!(restarted.servers[1].state, ServerState::Looking);
        assert_eq!(restarted.servers[1].history.len(), 1);
        assert_eq!(restarted.servers[1].vote.epoch, 1);
    }
}

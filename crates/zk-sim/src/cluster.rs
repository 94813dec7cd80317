//! The cluster: a set of server processes, the network, and the scheduler interface.
//!
//! Every code-level action that the Remix coordinator may schedule is a [`SimEvent`];
//! [`Cluster::step`] executes exactly one event, mirroring how the paper's coordinator
//! lets one instrumented code-level action run at a time (§3.5.3).

use std::fmt;

use remix_zab::{ClusterConfig, Message, Sid, Zxid};

use crate::network::Network;
use crate::node::{NodeHandle, RunState, SyncPhase};
use crate::observation::Observation;

/// One schedulable code-level action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// Leader election plus discovery for a quorum (the coordinator elects `leader` with
    /// `quorum`, giving the FLE messages that vote for the target leader priority, as
    /// described in §3.5.3).
    ElectLeader {
        /// The server to elect.
        leader: Sid,
        /// The participating quorum (including the leader).
        quorum: Vec<Sid>,
    },
    /// A LOOKING server that overheard the winning election round connects to the
    /// already-elected leader and completes the discovery handshake (the code path a
    /// late `FastLeaderElection` decision takes; the model-level counterpart is the
    /// coarse `ElectionAndDiscoveryLateJoin` action).
    FollowerJoinLeader {
        /// The joining server.
        follower: Sid,
        /// The established (or synchronizing) leader it connects to.
        leader: Sid,
    },
    /// An election round interrupted by the elected leader crashing mid-discovery: the
    /// `joined` followers durably accepted the proposed epoch, the leader wrote its
    /// `acceptedEpoch` (but never committed `currentEpoch`) and died (the model-level
    /// counterpart is the coarse `ElectionAndDiscoveryLeaderCrash` action).
    ElectLeaderInterrupted {
        /// The elected (and immediately crashed) leader.
        leader: Sid,
        /// The participating quorum (including the leader).
        quorum: Vec<Sid>,
        /// The followers whose discovery handshake completed before the crash.
        joined: Vec<Sid>,
    },
    /// The leader's LearnerHandler sends the sync payload and NEWLEADER to a follower.
    LeaderSyncFollower {
        /// The leader.
        leader: Sid,
        /// The follower.
        follower: Sid,
    },
    /// The follower processes the pending sync payload (DIFF / TRUNC / SNAP).
    FollowerHandleSyncPackets {
        /// The follower.
        follower: Sid,
    },
    /// `Learner.syncWithLeader` NEWLEADER step ①: update `currentEpoch`.
    FollowerNewLeaderUpdateEpoch {
        /// The follower.
        follower: Sid,
    },
    /// NEWLEADER step ②: hand pending packets to the SyncRequestProcessor.
    FollowerNewLeaderLogRequests {
        /// The follower.
        follower: Sid,
    },
    /// NEWLEADER step ③: acknowledge NEWLEADER (consumes the packet).
    FollowerNewLeaderAck {
        /// The follower.
        follower: Sid,
    },
    /// One iteration of the follower's SyncRequestProcessor thread.
    SyncProcessorRun {
        /// The node whose logging thread runs.
        node: Sid,
    },
    /// One iteration of the follower's CommitProcessor thread.
    CommitProcessorRun {
        /// The node whose commit thread runs.
        node: Sid,
    },
    /// The leader processes the next pending ACK from a follower.
    LeaderProcessAck {
        /// The leader.
        leader: Sid,
        /// The follower whose ACK is processed.
        from: Sid,
    },
    /// The follower processes a pending COMMIT while still synchronizing.
    FollowerHandleCommitInSync {
        /// The follower.
        follower: Sid,
    },
    /// The follower processes a pending UPTODATE.
    FollowerHandleUpToDate {
        /// The follower.
        follower: Sid,
    },
    /// The follower processes a pending broadcast PROPOSAL.
    FollowerHandleProposal {
        /// The follower.
        follower: Sid,
    },
    /// The follower processes a pending broadcast COMMIT.
    FollowerHandleCommit {
        /// The follower.
        follower: Sid,
    },
    /// The leader turns a client request into a proposal.
    LeaderClientRequest {
        /// The leader.
        leader: Sid,
    },
    /// A node crashes.
    Crash {
        /// The node.
        node: Sid,
    },
    /// A crashed node restarts.
    Restart {
        /// The node.
        node: Sid,
    },
    /// A follower detects that its leader is unreachable and shuts down.
    FollowerShutdown {
        /// The follower.
        follower: Sid,
    },
    /// A leader that lost its quorum shuts down.
    LeaderShutdown {
        /// The leader.
        leader: Sid,
    },
    /// The link between two nodes partitions.
    Partition {
        /// One endpoint.
        a: Sid,
        /// The other endpoint.
        b: Sid,
    },
    /// A partitioned link heals.
    Heal {
        /// One endpoint.
        a: Sid,
        /// The other endpoint.
        b: Sid,
    },
    /// No-op (used for model actions with no code-level counterpart).
    Skip,
}

/// Errors returned when an event cannot be executed in the current cluster state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Description of why the event was not executable.
    pub reason: String,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation event not executable: {}", self.reason)
    }
}

impl std::error::Error for SimError {}

fn err(reason: impl Into<String>) -> SimError {
    SimError {
        reason: reason.into(),
    }
}

/// The simulated cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Configuration (code version, cluster size, budgets).
    pub config: ClusterConfig,
    /// The server processes.
    pub nodes: Vec<NodeHandle>,
    /// The network.
    pub network: Network,
    /// Client request payload counter.
    next_value: u32,
    /// The schedule seed this replay runs under (see [`Cluster::with_seed`]).
    schedule_seed: u64,
}

impl Cluster {
    /// Boots a cluster with schedule seed 0.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster::with_seed(config, 0)
    }

    /// Boots a cluster tagged with the deterministic schedule seed of the model-level
    /// trace it replays.
    ///
    /// Execution itself is already deterministic — the coordinator schedules one
    /// [`SimEvent`] at a time (§3.5.3) and the simulator makes no free choices — so the
    /// seed does not perturb behaviour.  It records *which* sampled schedule this
    /// replay belongs to: the conformance checker boots the replay cluster with the
    /// per-trace sampling seed, and a shrunk divergence carries the same seed, so the
    /// minimized trace can always be re-run under the identical schedule identity it
    /// was found with.
    pub fn with_seed(config: ClusterConfig, schedule_seed: u64) -> Self {
        Cluster {
            config,
            nodes: (0..config.num_servers).map(NodeHandle::new).collect(),
            network: Network::new(config.num_servers),
            next_value: 0,
            schedule_seed,
        }
    }

    /// The deterministic schedule seed this replay is tagged with.
    pub fn schedule_seed(&self) -> u64 {
        self.schedule_seed
    }

    fn quorum(&self) -> usize {
        self.config.quorum_size()
    }

    /// Executes one code-level event.
    pub fn step(&mut self, event: &SimEvent) -> Result<(), SimError> {
        let bugs = self.config.bugs();
        match event.clone() {
            SimEvent::Skip => Ok(()),
            SimEvent::ElectLeader { leader, quorum } => {
                let epoch = self
                    .nodes
                    .iter()
                    .map(|n| {
                        n.server
                            .disk
                            .accepted_epoch
                            .max(n.server.disk.current_epoch)
                    })
                    .max()
                    .unwrap_or(0)
                    + 1;
                if !quorum.contains(&leader) {
                    return Err(err("leader not in quorum"));
                }
                for &m in &quorum {
                    if self.nodes[m].server.run_state != RunState::Looking {
                        return Err(err(format!("server {m} is not LOOKING")));
                    }
                }
                for &m in &quorum {
                    if m == leader {
                        let mut l = crate::node::LeaderServer::new(leader, epoch);
                        for &f in &quorum {
                            if f != leader {
                                l.register_learner(f, self.nodes[f].server.disk.last_zxid());
                            }
                        }
                        self.nodes[m].server.run_state = RunState::Leading;
                        self.nodes[m].server.phase = SyncPhase::Synchronizing;
                        self.nodes[m].server.disk.accepted_epoch = epoch;
                        self.nodes[m].server.disk.current_epoch = epoch;
                        self.nodes[m].leader = Some(l);
                    } else {
                        self.nodes[m].server.start_following(leader, epoch);
                    }
                }
                Ok(())
            }
            SimEvent::FollowerJoinLeader { follower, leader } => {
                if self.nodes[follower].server.run_state != RunState::Looking {
                    return Err(err(format!("server {follower} is not LOOKING")));
                }
                if self.nodes[leader].server.run_state != RunState::Leading {
                    return Err(err(format!("server {leader} is not LEADING")));
                }
                let last = self.nodes[follower].server.disk.last_zxid();
                let epoch = self.nodes[leader].server.disk.accepted_epoch;
                let l = self.nodes[leader]
                    .leader
                    .as_mut()
                    .ok_or_else(|| err("not a leader"))?;
                l.register_learner(follower, last);
                self.nodes[follower].server.start_following(leader, epoch);
                Ok(())
            }
            SimEvent::ElectLeaderInterrupted {
                leader,
                quorum,
                joined,
            } => {
                let epoch = self
                    .nodes
                    .iter()
                    .map(|n| {
                        n.server
                            .disk
                            .accepted_epoch
                            .max(n.server.disk.current_epoch)
                    })
                    .max()
                    .unwrap_or(0)
                    + 1;
                for &m in &quorum {
                    if self.nodes[m].server.run_state != RunState::Looking {
                        return Err(err(format!("server {m} is not LOOKING")));
                    }
                }
                for &j in &joined {
                    if !quorum.contains(&j) || j == leader {
                        return Err(err(format!("server {j} did not participate")));
                    }
                    self.nodes[j].server.start_following(leader, epoch);
                }
                // The leader durably accepted the epoch it proposed, then died before
                // committing it.
                self.nodes[leader].server.disk.accepted_epoch = epoch;
                self.nodes[leader].server.crash();
                self.nodes[leader].leader = None;
                self.network.disconnect(leader);
                Ok(())
            }
            SimEvent::LeaderSyncFollower { leader, follower } => {
                let disk = self.nodes[leader].server.disk.clone();
                let l = self.nodes[leader]
                    .leader
                    .as_mut()
                    .ok_or_else(|| err("not a leader"))?;
                l.sync_follower(follower, &disk, &mut self.network);
                Ok(())
            }
            SimEvent::FollowerHandleSyncPackets { follower } => {
                let leader = self.nodes[follower]
                    .server
                    .leader
                    .ok_or_else(|| err("no leader"))?;
                match self.network.recv(leader, follower) {
                    Some(Message::SyncPackets {
                        mode,
                        txns,
                        committed_upto,
                        trunc_to,
                    }) => {
                        self.nodes[follower].server.handle_sync_packets(
                            mode,
                            txns,
                            committed_upto,
                            trunc_to,
                        );
                        Ok(())
                    }
                    other => Err(err(format!("expected SYNCPACKETS, got {other:?}"))),
                }
            }
            SimEvent::FollowerNewLeaderUpdateEpoch { follower } => {
                let leader = self.nodes[follower]
                    .server
                    .leader
                    .ok_or_else(|| err("no leader"))?;
                match self.network.peek(leader, follower) {
                    Some(Message::NewLeader { epoch, .. }) => {
                        let epoch = *epoch;
                        self.nodes[follower].server.newleader_update_epoch(epoch);
                        Ok(())
                    }
                    other => Err(err(format!("expected NEWLEADER, got {other:?}"))),
                }
            }
            SimEvent::FollowerNewLeaderLogRequests { follower } => {
                self.nodes[follower].server.newleader_log_requests(&bugs);
                Ok(())
            }
            SimEvent::FollowerNewLeaderAck { follower } => {
                let leader = self.nodes[follower]
                    .server
                    .leader
                    .ok_or_else(|| err("no leader"))?;
                match self.network.recv(leader, follower) {
                    Some(Message::NewLeader { zxid, .. }) => {
                        self.nodes[follower]
                            .server
                            .newleader_write_ack(zxid, &mut self.network);
                        Ok(())
                    }
                    other => Err(err(format!("expected NEWLEADER, got {other:?}"))),
                }
            }
            SimEvent::SyncProcessorRun { node } => {
                self.nodes[node]
                    .server
                    .sync_processor_run_once(&mut self.network);
                Ok(())
            }
            SimEvent::CommitProcessorRun { node } => {
                self.nodes[node].server.commit_processor_run_once(&bugs);
                Ok(())
            }
            SimEvent::LeaderProcessAck { leader, from } => {
                let quorum = self.quorum();
                match self.network.recv(from, leader) {
                    Some(Message::Ack { zxid }) => {
                        let mut disk = self.nodes[leader].server.disk.clone();
                        let l = self.nodes[leader]
                            .leader
                            .as_mut()
                            .ok_or_else(|| err("not a leader"))?;
                        if l.established {
                            l.process_ack_in_broadcast(
                                from,
                                zxid,
                                &mut disk,
                                &mut self.network,
                                quorum,
                            );
                        } else {
                            let ready = l.process_ack_during_sync(from, zxid, &disk, &bugs, quorum);
                            if ready {
                                l.establish(&mut disk, &mut self.network);
                                self.nodes[leader].server.phase = SyncPhase::Broadcast;
                            }
                        }
                        self.nodes[leader].server.disk = disk;
                        Ok(())
                    }
                    other => Err(err(format!("expected ACK, got {other:?}"))),
                }
            }
            SimEvent::FollowerHandleCommitInSync { follower } => {
                let leader = self.nodes[follower]
                    .server
                    .leader
                    .ok_or_else(|| err("no leader"))?;
                match self.network.recv(leader, follower) {
                    Some(Message::Commit { zxid }) => {
                        let masked = self.config.mask_zk4394;
                        self.nodes[follower]
                            .server
                            .handle_commit_in_sync(zxid, &bugs, masked);
                        Ok(())
                    }
                    other => Err(err(format!("expected COMMIT, got {other:?}"))),
                }
            }
            SimEvent::FollowerHandleUpToDate { follower } => {
                let leader = self.nodes[follower]
                    .server
                    .leader
                    .ok_or_else(|| err("no leader"))?;
                match self.network.recv(leader, follower) {
                    Some(Message::UpToDate { zxid }) => {
                        self.nodes[follower]
                            .server
                            .handle_uptodate(zxid, &bugs, &mut self.network);
                        Ok(())
                    }
                    other => Err(err(format!("expected UPTODATE, got {other:?}"))),
                }
            }
            SimEvent::FollowerHandleProposal { follower } => {
                let leader = self.nodes[follower]
                    .server
                    .leader
                    .ok_or_else(|| err("no leader"))?;
                match self.network.recv(leader, follower) {
                    Some(Message::Proposal { txn }) => {
                        if self.nodes[follower].server.phase == SyncPhase::Synchronizing {
                            self.nodes[follower].server.packets_not_committed.push(txn);
                        } else {
                            self.nodes[follower].server.handle_proposal(txn);
                        }
                        Ok(())
                    }
                    other => Err(err(format!("expected PROPOSAL, got {other:?}"))),
                }
            }
            SimEvent::FollowerHandleCommit { follower } => {
                let leader = self.nodes[follower]
                    .server
                    .leader
                    .ok_or_else(|| err("no leader"))?;
                match self.network.recv(leader, follower) {
                    Some(Message::Commit { zxid }) => {
                        self.nodes[follower].server.handle_commit(zxid);
                        Ok(())
                    }
                    other => Err(err(format!("expected COMMIT, got {other:?}"))),
                }
            }
            SimEvent::LeaderClientRequest { leader } => {
                self.next_value += 1;
                let value = self.next_value;
                let mut disk = self.nodes[leader].server.disk.clone();
                let l = self.nodes[leader]
                    .leader
                    .as_mut()
                    .ok_or_else(|| err("not a leader"))?;
                l.propose(value, &mut disk, &mut self.network);
                self.nodes[leader].server.disk = disk;
                Ok(())
            }
            SimEvent::Crash { node } => {
                self.nodes[node].server.crash();
                self.nodes[node].leader = None;
                self.network.disconnect(node);
                Ok(())
            }
            SimEvent::Restart { node } => {
                self.nodes[node].server.restart();
                Ok(())
            }
            SimEvent::FollowerShutdown { follower } => {
                self.nodes[follower].server.shutdown(&bugs);
                Ok(())
            }
            SimEvent::LeaderShutdown { leader } => {
                self.nodes[leader].leader = None;
                self.nodes[leader].server.shutdown(&bugs);
                self.network.disconnect(leader);
                Ok(())
            }
            SimEvent::Partition { a, b } => {
                self.network.partition(a, b);
                Ok(())
            }
            SimEvent::Heal { a, b } => {
                self.network.heal(a, b);
                Ok(())
            }
        }
    }

    /// The observable state of the cluster: a view that reads each node's record, its
    /// log and error text borrowed, when asked for it.
    pub fn observe(&self) -> Observation<'_> {
        Observation::of(&self.nodes)
    }

    /// The last zxid of a node's log (helper for tests and mappings).
    pub fn last_zxid(&self, node: Sid) -> Zxid {
        self.nodes[node].server.disk.last_zxid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_zab::CodeVersion;

    fn cluster(version: CodeVersion) -> Cluster {
        Cluster::new(ClusterConfig::small(version))
    }

    /// Drives a full, bug-free synchronization and one broadcast round on the fixed
    /// build.  Replay-step failures surface as structured [`SimError`]s through the
    /// test's `Result` (with the failing step prepended) rather than a panic.
    #[test]
    fn happy_path_on_the_fixed_build() -> Result<(), SimError> {
        let mut c = cluster(CodeVersion::FinalFix);
        let steps = [
            SimEvent::ElectLeader {
                leader: 2,
                quorum: vec![0, 1, 2],
            },
            SimEvent::LeaderSyncFollower {
                leader: 2,
                follower: 0,
            },
            SimEvent::LeaderSyncFollower {
                leader: 2,
                follower: 1,
            },
            SimEvent::FollowerHandleSyncPackets { follower: 0 },
            SimEvent::FollowerNewLeaderUpdateEpoch { follower: 0 },
            SimEvent::FollowerNewLeaderLogRequests { follower: 0 },
            SimEvent::FollowerNewLeaderAck { follower: 0 },
            SimEvent::FollowerHandleSyncPackets { follower: 1 },
            SimEvent::FollowerNewLeaderUpdateEpoch { follower: 1 },
            SimEvent::FollowerNewLeaderLogRequests { follower: 1 },
            SimEvent::FollowerNewLeaderAck { follower: 1 },
            SimEvent::LeaderProcessAck { leader: 2, from: 0 },
            SimEvent::LeaderProcessAck { leader: 2, from: 1 },
            SimEvent::FollowerHandleUpToDate { follower: 0 },
            SimEvent::FollowerHandleUpToDate { follower: 1 },
            // Drain the followers' UPTODATE acknowledgements.
            SimEvent::LeaderProcessAck { leader: 2, from: 0 },
            SimEvent::LeaderProcessAck { leader: 2, from: 1 },
            SimEvent::LeaderClientRequest { leader: 2 },
            SimEvent::FollowerHandleProposal { follower: 0 },
            SimEvent::FollowerHandleProposal { follower: 1 },
            SimEvent::SyncProcessorRun { node: 0 },
            SimEvent::SyncProcessorRun { node: 1 },
            SimEvent::LeaderProcessAck { leader: 2, from: 0 },
            SimEvent::LeaderProcessAck { leader: 2, from: 1 },
            SimEvent::FollowerHandleCommit { follower: 0 },
            SimEvent::FollowerHandleCommit { follower: 1 },
            SimEvent::CommitProcessorRun { node: 0 },
            SimEvent::CommitProcessorRun { node: 1 },
        ];
        for (idx, e) in steps.iter().enumerate() {
            c.step(e)
                .map_err(|cause| err(format!("step {idx} ({e:?}) failed: {cause}")))?;
        }
        let obs = c.observe();
        assert!(obs.first_error().is_none());
        for n in obs.nodes() {
            assert_eq!(n.current_epoch, 1, "server {}", n.sid);
            assert_eq!(n.log.len(), 1, "server {}", n.sid);
            assert_eq!(n.committed, 1, "server {}", n.sid);
        }
        Ok(())
    }

    /// Replays the ZK-4646 interleaving on the buggy build: the follower acknowledges
    /// NEWLEADER before its SyncRequestProcessor persisted anything.
    #[test]
    fn buggy_build_acks_newleader_before_persisting() {
        let mut c = cluster(CodeVersion::V391);
        // Seed the leader's log with one transaction so there is data to lose.
        c.nodes[2]
            .server
            .disk
            .log
            .push(remix_zab::Txn::new(1, 1, 9));
        let steps = [
            SimEvent::ElectLeader {
                leader: 2,
                quorum: vec![0, 2],
            },
            SimEvent::LeaderSyncFollower {
                leader: 2,
                follower: 0,
            },
            SimEvent::FollowerHandleSyncPackets { follower: 0 },
            SimEvent::FollowerNewLeaderUpdateEpoch { follower: 0 },
            SimEvent::FollowerNewLeaderLogRequests { follower: 0 },
            SimEvent::FollowerNewLeaderAck { follower: 0 },
            SimEvent::LeaderProcessAck { leader: 2, from: 0 },
        ];
        for e in &steps {
            c.step(e).unwrap();
        }
        let obs = c.observe();
        // The epoch is established and committed on the leader...
        assert_eq!(obs.node(2).committed, 1);
        // ...but the follower's disk has nothing: the data only lives in its queue.
        assert!(obs.node(0).log.is_empty());
        assert_eq!(c.nodes[0].server.sync_processor.queue.len(), 1);
    }

    #[test]
    fn events_that_do_not_match_the_state_are_rejected() {
        let mut c = cluster(CodeVersion::V391);
        assert!(c
            .step(&SimEvent::LeaderSyncFollower {
                leader: 2,
                follower: 0
            })
            .is_err());
        assert!(c
            .step(&SimEvent::FollowerHandleUpToDate { follower: 0 })
            .is_err());
        c.step(&SimEvent::ElectLeader {
            leader: 2,
            quorum: vec![0, 2],
        })
        .unwrap();
        assert!(c
            .step(&SimEvent::ElectLeader {
                leader: 2,
                quorum: vec![0, 2]
            })
            .is_err());
        assert!(c.step(&SimEvent::Skip).is_ok());
    }

    #[test]
    fn crash_and_restart_preserve_the_disk() {
        let mut c = cluster(CodeVersion::V391);
        c.nodes[1]
            .server
            .disk
            .log
            .push(remix_zab::Txn::new(1, 1, 1));
        c.nodes[1].server.disk.current_epoch = 1;
        c.step(&SimEvent::Crash { node: 1 }).unwrap();
        assert!(!c.observe().node(1).up);
        c.step(&SimEvent::Restart { node: 1 }).unwrap();
        let obs = c.observe();
        assert!(obs.node(1).up);
        assert_eq!(obs.node(1).log.len(), 1);
        assert_eq!(obs.node(1).current_epoch, 1);
    }
}

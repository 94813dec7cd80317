//! Coarse-grained, interaction-preserving abstraction of the Election and Discovery
//! modules (Figure 5b of the paper).
//!
//! The eight FLE / discovery actions collapse into a single `ElectionAndDiscovery(i, Q)`
//! action: a quorum `Q` of LOOKING servers atomically elects the member with the maximal
//! `(currentEpoch, lastZxid, sid)` — the same total order fast leader election uses — and
//! moves every member of `Q` directly into the Synchronization phase with the new epoch
//! negotiated.  Internal variables (votes, notification messages) are abstracted away;
//! the externally visible effects (`state`, `zabState`, `acceptedEpoch`, `currentEpoch`
//! of the leader, learner bookkeeping) are preserved.

use remix_spec::{ActionDef, Effect, Granularity, Label, ModuleSpec};

use crate::modules::{DISCOVERY, ELECTION};
use crate::state::ZabState;
use crate::types::{ServerState, Sid, SidSet, Vote, ZabPhase};

use super::Cfg;

/// Enumerates all subsets of `candidates` of size at least `min` (the candidate quorums).
fn quorums(candidates: &[Sid], min: usize) -> Vec<SidSet> {
    let mut out = Vec::new();
    let n = candidates.len();
    for mask in 1u32..(1 << n) {
        let set: SidSet = candidates
            .iter()
            .enumerate()
            .filter(|(k, _)| mask & (1 << k) != 0)
            .map(|(_, &s)| s)
            .collect();
        if set.len() >= min {
            out.push(set);
        }
    }
    out
}

/// The vote a server would cast for itself, used to pick the election winner.
fn candidate_vote(state: &ZabState, i: Sid) -> Vote {
    Vote {
        epoch: state.servers[i].current_epoch,
        zxid: state.servers[i].last_zxid(),
        leader: i,
    }
}

/// Builds the single coarse `ElectionAndDiscovery(i, Q)` action.
fn election_and_discovery(cfg: &Cfg) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "ElectionAndDiscovery",
        ELECTION,
        Granularity::Coarse,
        vec![
            "state",
            "zabState",
            "currentEpoch",
            "acceptedEpoch",
            "history",
        ],
        // `msgs` is declared written because the combined action absorbs the election and
        // discovery traffic whose net effect it models (no discovery messages remain in
        // flight once the action completes), preserving the interaction with the
        // Synchronization module.  `currentVote` / `receiveVotes` cover the remnant
        // votes recorded on overhearing non-participants (consumed by the late-join).
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "acceptedEpoch",
            "currentEpoch",
            "learners",
            "ackeRecv",
            "msgs",
            "currentVote",
            "receiveVotes",
        ],
        move |s: &ZabState, sink| {
            let looking: Vec<Sid> = (0..s.n())
                .filter(|&i| s.servers[i].is_up() && s.servers[i].state == ServerState::Looking)
                .collect();
            if looking.len() < s.quorum_size() {
                return;
            }
            let new_epoch = s.max_accepted_epoch() + 1;
            if new_epoch > cfg.max_epoch {
                return;
            }
            for q in quorums(&looking, s.quorum_size()) {
                // Every member of the quorum must be mutually reachable for the election
                // (and the subsequent discovery round) to complete.
                let connected = q.iter().all(|a| q.iter().all(|b| s.reachable(a, b)));
                if !connected {
                    continue;
                }
                // Fast leader election elects the member with the maximal vote.
                let Some(leader) = q.iter().max_by_key(|&i| candidate_vote(s, i)) else {
                    continue;
                };
                sink.offer(
                    Label::new("ElectionAndDiscovery").arg(leader).set(q.iter()),
                    Effect::global(),
                    |next| {
                        for member in q.iter() {
                            let last_zxid = next.servers[member].last_zxid();
                            let sv = &mut next.servers[member];
                            sv.accepted_epoch = new_epoch;
                            sv.phase = ZabPhase::Synchronization;
                            sv.leader = Some(leader);
                            sv.recv_votes.clear();
                            sv.vote = Vote {
                                epoch: sv.current_epoch,
                                zxid: last_zxid,
                                leader,
                            };
                            if member == leader {
                                sv.state = ServerState::Leading;
                                sv.current_epoch = new_epoch;
                                sv.epoch_proposed = true;
                                sv.established = false;
                            } else {
                                sv.state = ServerState::Following;
                                sv.connected = true;
                            }
                        }
                        // Leader-side discovery bookkeeping: every follower of Q has reported its
                        // last zxid (ACKEPOCH) by the end of the combined action.
                        let followers: Vec<Sid> = q.iter().filter(|&m| m != leader).collect();
                        for &f in &followers {
                            let fz = next.servers[f].last_zxid();
                            next.servers[leader].learners.insert(f);
                            next.servers[leader].epoch_acks.insert(f);
                            next.servers[leader].learner_last_zxid.insert(f, fz);
                        }
                        // Non-participants that overheard the winning round keep the notification
                        // remnants fast leader election leaves behind: the winning vote, recorded
                        // from every reachable quorum member, adopted when it beats their own.
                        // These remnants are internal (hidden from granularity projections) but
                        // enable `ElectionAndDiscoveryLateJoin` later — without them the coarse
                        // module would lose the baseline's late-join interaction with the
                        // Synchronization module (a refinement-checker finding).
                        let winning = candidate_vote(s, leader);
                        for &o in &looking {
                            if q.contains(&o) {
                                continue;
                            }
                            let mut overheard = false;
                            for member in q.iter() {
                                if s.reachable(o, member) {
                                    next.servers[o].recv_votes.insert(member, winning);
                                    overheard = true;
                                }
                            }
                            if overheard && winning > next.servers[o].vote {
                                next.servers[o].vote = winning;
                            }
                        }
                    },
                );
            }
        },
    )
}

/// Builds the coarse `ElectionAndDiscoveryLateJoin(i, l)` action.
///
/// In the baseline specification a LOOKING server that overheard the winning election
/// round (its `recv_votes` still hold a quorum of votes agreeing with the winner) can
/// decide late and run the discovery handshake against the already-elected leader —
/// joining an established epoch without a new election.  The coarse abstraction
/// executes that whole dance atomically: the server moves straight into the
/// Synchronization phase of the leader's epoch and the leader's learner bookkeeping is
/// completed, exactly as if FOLLOWERINFO / LEADERINFO / ACKEPOCH had been exchanged.
///
/// The enabling condition mirrors `FLEDecide` over the votes the joiner can gather:
/// its own remnant votes (recorded by `ElectionAndDiscovery` on overhearing
/// non-participants) and the votes still held by LOOKING peers that overheard the
/// round — in the baseline those peers keep rebroadcasting the winning vote, which is
/// how even a *restarted* server (whose own remnants were wiped) can decide late.
/// A leader whose proposed epoch regressed below the joiner's accepted epoch is
/// skipped (the baseline bounces such a server back to LOOKING with no externally
/// visible effect).
fn late_join(_cfg: &Cfg) -> ActionDef<ZabState> {
    ActionDef::new(
        "ElectionAndDiscoveryLateJoin",
        ELECTION,
        Granularity::Coarse,
        vec![
            "state",
            "zabState",
            "currentVote",
            "receiveVotes",
            "acceptedEpoch",
            "history",
        ],
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "acceptedEpoch",
            "learners",
            "ackeRecv",
            "currentVote",
            "receiveVotes",
        ],
        |s: &ZabState, sink| {
            for i in 0..s.n() {
                let sv = &s.servers[i];
                if !sv.is_up() || sv.state != ServerState::Looking {
                    continue;
                }
                // Votes the joiner can gather: its own remnants plus the current votes
                // of reachable LOOKING peers (which fast leader election rebroadcasts).
                let mut gathered: Vec<(Sid, Vote)> =
                    sv.recv_votes.iter().map(|(j, v)| (*j, *v)).collect();
                for p in 0..s.n() {
                    if p != i
                        && s.servers[p].is_up()
                        && s.servers[p].state == ServerState::Looking
                        && s.reachable(i, p)
                    {
                        gathered.push((p, s.servers[p].vote));
                    }
                }
                // The joiner adopts the best gatherable vote when it beats its own.
                let my_vote = gathered
                    .iter()
                    .map(|(_, v)| *v)
                    .max()
                    .map_or(sv.vote, |best| best.max(sv.vote));
                let l = my_vote.leader;
                if l == i {
                    continue;
                }
                let leader = &s.servers[l];
                if !leader.is_up()
                    || leader.state != ServerState::Leading
                    || !leader.epoch_proposed
                    || !matches!(
                        leader.phase,
                        ZabPhase::Synchronization | ZabPhase::Broadcast
                    )
                    || !s.reachable(i, l)
                {
                    continue;
                }
                // FLE's decision rule over the gathered votes.
                let mut agreeing: SidSet = gathered
                    .iter()
                    .filter(|(_, v)| *v == my_vote)
                    .map(|(j, _)| *j)
                    .collect();
                agreeing.insert(i);
                if !s.is_quorum(&agreeing) {
                    continue;
                }
                let epoch = leader.accepted_epoch;
                if epoch < sv.accepted_epoch {
                    continue;
                }
                let last_zxid = sv.last_zxid();
                sink.offer(
                    Label::new("ElectionAndDiscoveryLateJoin").arg(i).arg(l),
                    Effect::global(),
                    |next| {
                        {
                            let joiner = &mut next.servers[i];
                            joiner.state = ServerState::Following;
                            joiner.phase = ZabPhase::Synchronization;
                            joiner.leader = Some(l);
                            joiner.accepted_epoch = epoch;
                            joiner.connected = true;
                            joiner.vote = my_vote;
                            joiner.recv_votes.clear();
                        }
                        next.servers[l].learners.insert(i);
                        next.servers[l].epoch_acks.insert(i);
                        next.servers[l].learner_last_zxid.insert(i, last_zxid);
                    },
                );
            }
        },
    )
}

/// Builds the coarse `ElectionAndDiscoveryLeaderCrash(l, Q, J)` action: an election
/// round that is interrupted by the elected leader crashing mid-discovery.
///
/// In the baseline, discovery completes *per member*: followers that processed
/// LEADERINFO have durably accepted the new epoch while the leader only commits
/// (`currentEpoch`) after a quorum of ACKEPOCHs.  A leader crash in that window leaves
/// a durable state the atomic `ElectionAndDiscovery` cannot produce — followers of an
/// epoch whose leader never committed it, so the *next* election's vote order differs
/// (the dead leader's `currentEpoch` was never raised).  This action restores the
/// interaction: it elects `l` with quorum `Q`, lets the subset `J ⊆ Q \ {l}` of
/// followers complete their handshake (accepted epoch, Synchronization phase), records
/// the leader's proposed epoch, and crashes the leader — consuming one unit of the
/// crash budget, exactly like `NodeCrash`.  Members of `Q \ J` never complete and stay
/// LOOKING (in the baseline they shut back down once the dead leader is unreachable,
/// with no further externally visible effect).
///
/// This action (like `ElectionAndDiscoveryLateJoin`) exists because the refinement
/// checker flagged its absence: without it, `check_refinement(SysSpec, mSpec-1)`
/// returns concrete fine traces whose projections the coarse composition cannot reach
/// under any crash budget ≥ 1.
fn election_and_discovery_leader_crash(cfg: &Cfg) -> ActionDef<ZabState> {
    let cfg = cfg.clone();
    ActionDef::new(
        "ElectionAndDiscoveryLeaderCrash",
        ELECTION,
        Granularity::Coarse,
        vec![
            "state",
            "zabState",
            "currentEpoch",
            "acceptedEpoch",
            "history",
            "crashBudget",
        ],
        // The crash half mirrors `NodeCrash`'s footprint (volatile state and thread
        // queues of the crashed leader are lost); the election half writes the joined
        // followers' control state and votes.
        vec![
            "state",
            "zabState",
            "leaderAddr",
            "acceptedEpoch",
            "currentVote",
            "receiveVotes",
            "crashBudget",
            "msgs",
            "queuedRequests",
            "committedRequests",
        ],
        move |s: &ZabState, sink| {
            if s.crashes_remaining == 0 {
                return;
            }
            let looking: Vec<Sid> = (0..s.n())
                .filter(|&i| s.servers[i].is_up() && s.servers[i].state == ServerState::Looking)
                .collect();
            if looking.len() < s.quorum_size() {
                return;
            }
            let new_epoch = s.max_accepted_epoch() + 1;
            if new_epoch > cfg.max_epoch {
                return;
            }
            for q in quorums(&looking, s.quorum_size()) {
                let connected = q.iter().all(|a| q.iter().all(|b| s.reachable(a, b)));
                if !connected {
                    continue;
                }
                let Some(leader) = q.iter().max_by_key(|&i| candidate_vote(s, i)) else {
                    continue;
                };
                let followers: Vec<Sid> = q.iter().filter(|&m| m != leader).collect();
                // Every subset J of followers may have completed the handshake before
                // the crash (including none: the leader died right after proposing).
                for joined in subsets(&followers) {
                    sink.offer(
                        Label::new("ElectionAndDiscoveryLeaderCrash")
                            .arg(leader)
                            .set(q.iter())
                            .set(joined.iter().copied()),
                        Effect::global(),
                        |next| {
                            for &j in &joined {
                                let last_zxid = next.servers[j].last_zxid();
                                let sv = &mut next.servers[j];
                                sv.accepted_epoch = new_epoch;
                                sv.phase = ZabPhase::Synchronization;
                                sv.state = ServerState::Following;
                                sv.leader = Some(leader);
                                sv.connected = true;
                                sv.recv_votes.clear();
                                sv.vote = Vote {
                                    epoch: sv.current_epoch,
                                    zxid: last_zxid,
                                    leader,
                                };
                            }
                            // The leader durably accepted the epoch it proposed but never
                            // committed it (`currentEpoch` stays), then crashed.
                            next.servers[leader].accepted_epoch = new_epoch;
                            next.crashes_remaining -= 1;
                            next.servers[leader].crash();
                            next.clear_channels(leader);
                        },
                    );
                }
            }
        },
    )
}

/// Enumerates all subsets of `items` (including the empty set).
fn subsets(items: &[Sid]) -> Vec<Vec<Sid>> {
    let mut out = Vec::with_capacity(1 << items.len());
    for mask in 0u32..(1 << items.len()) {
        out.push(
            items
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, &s)| s)
                .collect(),
        );
    }
    out
}

/// The coarse Election module of the Table 1 presets: the combined
/// election-and-discovery action plus the atomic late-join.
///
/// This is the paper's Figure 5b abstraction (with the late-join interaction the
/// refinement checker showed it was missing).  It deliberately does *not* include
/// [`election_module_fault_complete`]'s crash-interrupted round: like the paper's
/// TLA+ coarse spec, the atomic `ElectionAndDiscovery` admits no mid-round leader
/// crash, so under a crash budget the coarse composition is a strict
/// under-approximation of the baseline — a property `check_refinement` demonstrates
/// with a concrete witness (see `crates/core/tests/refinement.rs`).
pub fn election_module(cfg: &Cfg) -> ModuleSpec<ZabState> {
    ModuleSpec::new(
        ELECTION,
        Granularity::Coarse,
        vec![election_and_discovery(cfg), late_join(cfg)],
    )
}

/// The *fault-complete* coarse Election module: [`election_module`] extended with the
/// crash-interrupted round, restoring refinement of the baseline under a crash budget.
///
/// Not part of the presets (the many crash-election instances would reshape the
/// sampling distribution of the exploration workloads and inflate the coarse state
/// spaces the paper's tables measure); used by refinement studies that need the
/// abstraction to be complete in the presence of faults.
pub fn election_module_fault_complete(cfg: &Cfg) -> ModuleSpec<ZabState> {
    ModuleSpec::new(
        ELECTION,
        Granularity::Coarse,
        vec![
            election_and_discovery(cfg),
            late_join(cfg),
            election_and_discovery_leader_crash(cfg),
        ],
    )
}

/// The coarse Discovery module: empty — its externally visible effects are folded into
/// the combined `ElectionAndDiscovery` action of the coarse Election module.
pub fn discovery_module(_cfg: &Cfg) -> ModuleSpec<ZabState> {
    ModuleSpec::new(DISCOVERY, Granularity::Coarse, vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::types::Txn;
    use crate::versions::CodeVersion;
    use std::sync::Arc;

    fn cfg() -> Cfg {
        Arc::new(ClusterConfig::small(CodeVersion::V391))
    }

    #[test]
    fn initial_state_offers_all_quorums() {
        let m = election_module(&cfg());
        let s = ZabState::initial(&ClusterConfig::small(CodeVersion::V391));
        let insts = m.actions[0].enabled(&s);
        // Quorums of {0,1,2}: three pairs plus the full set.
        assert_eq!(insts.len(), 4);
        for inst in &insts {
            let next = &inst.next;
            let leader = next
                .servers
                .iter()
                .position(|sv| sv.state == ServerState::Leading)
                .unwrap();
            assert_eq!(next.servers[leader].current_epoch, 1);
            assert_eq!(next.servers[leader].phase, ZabPhase::Synchronization);
            let followers = next
                .servers
                .iter()
                .filter(|sv| sv.state == ServerState::Following)
                .count();
            assert!(followers >= 1);
        }
    }

    #[test]
    fn leader_is_the_member_with_the_best_vote() {
        let m = election_module(&cfg());
        let mut s = ZabState::initial(&ClusterConfig::small(CodeVersion::V391));
        // Server 0 has the longest history; server 1 has a higher epoch with no history.
        s.servers[0].history.push(Txn::new(1, 1, 1));
        s.servers[1].current_epoch = 2;
        let insts = m.actions[0].enabled(&s);
        let full = insts
            .iter()
            .find(|i| i.label.to_string().contains("{0, 1, 2}"))
            .expect("full-quorum election exists");
        // currentEpoch dominates the zxid in the vote order (the ZK-4643 mechanism).
        assert!(full
            .label
            .to_string()
            .starts_with("ElectionAndDiscovery(1,"));
        assert_eq!(full.next.servers[1].state, ServerState::Leading);
        assert_eq!(full.next.servers[0].leader, Some(1));
        // Learner bookkeeping is complete after the combined action.
        assert!(full.next.servers[1].epoch_acks.contains(&0));
        assert_eq!(
            full.next.servers[1].learner_last_zxid.get(&0),
            Some(&crate::types::Zxid::new(1, 1))
        );
    }

    #[test]
    fn partitioned_quorums_are_excluded() {
        let m = election_module(&cfg());
        let mut s = ZabState::initial(&ClusterConfig::small(CodeVersion::V391));
        s.partitioned.insert((0, 1));
        let insts = m.actions[0].enabled(&s);
        assert!(insts
            .iter()
            .all(|i| !i.label.to_string().contains("{0, 1}")));
        // {0, 2} and {1, 2} remain possible; the full set is not mutually connected.
        assert_eq!(insts.len(), 2);
    }

    #[test]
    fn crashed_or_settled_servers_do_not_participate() {
        let m = election_module(&cfg());
        let mut s = ZabState::initial(&ClusterConfig::small(CodeVersion::V391));
        s.servers[0].crash();
        let insts = m.actions[0].enabled(&s);
        assert_eq!(insts.len(), 1);
        assert!(insts[0].label.to_string().contains("{1, 2}"));
        // Once servers leave the LOOKING state no further election is offered.
        let settled = &insts[0].next;
        assert!(m.actions[0].enabled(settled).is_empty());
    }

    #[test]
    fn epoch_bound_disables_the_action() {
        let m = election_module(&cfg());
        let mut s = ZabState::initial(&ClusterConfig::small(CodeVersion::V391));
        for sv in &mut s.servers {
            sv.accepted_epoch = 4;
        }
        assert!(m.actions[0].enabled(&s).is_empty());
    }

    #[test]
    fn coarse_discovery_module_is_empty() {
        assert_eq!(discovery_module(&cfg()).action_count(), 0);
    }
}

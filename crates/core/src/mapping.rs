//! The action mapping: model-level actions → code-level events.
//!
//! The paper requires developers to provide, for each model-level action, the code-level
//! events that mark its beginning and end; Remix then instruments those points and the
//! coordinator schedules them (§3.5.3).  Here the mapping translates an instantiated
//! model action label (e.g. `"FollowerProcessNEWLEADER_UpdateEpoch(0, 2)"`) into the
//! [`SimEvent`]s the simulated cluster executes.

use remix_spec::action_name;
use remix_zab::Sid;
use remix_zk_sim::SimEvent;

/// Type of the label-translation function backing an [`ActionMapping`].
type TranslateFn = dyn Fn(&str) -> Option<Vec<SimEvent>> + Send + Sync;

/// A mapping from model-level action labels to code-level events.
pub struct ActionMapping {
    translate: Box<TranslateFn>,
}

impl ActionMapping {
    /// Creates a mapping from a translation function.
    pub fn new(translate: impl Fn(&str) -> Option<Vec<SimEvent>> + Send + Sync + 'static) -> Self {
        ActionMapping {
            translate: Box::new(translate),
        }
    }

    /// Translates one model action label into the code-level events to schedule.
    ///
    /// `None` means the label has no registered mapping (a conformance set-up error);
    /// an empty vector means the action intentionally has no code-level counterpart.
    pub fn translate(&self, label: &str) -> Option<Vec<SimEvent>> {
        (self.translate)(label)
    }
}

impl std::fmt::Debug for ActionMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ActionMapping")
    }
}

/// Parses the parameters of an instantiated action label, e.g. `"Foo(1, 2)"` → `[1, 2]`.
fn params(label: &str) -> Vec<usize> {
    let Some(open) = label.find('(') else {
        return Vec::new();
    };
    let inner = &label[open + 1..label.len().saturating_sub(1)];
    inner
        .split(',')
        .filter_map(|p| {
            p.trim()
                .trim_matches(|c| c == '{' || c == '}')
                .parse::<usize>()
                .ok()
        })
        .collect()
}

/// Parses the quorum set out of an `ElectionAndDiscovery(i, {a, b, c})` label.
fn quorum_of(label: &str) -> Vec<Sid> {
    sets_of(label).into_iter().next().unwrap_or_default()
}

/// Parses every `{...}` set of an instantiated label, in order (e.g. the quorum and the
/// joined set of `ElectionAndDiscoveryLeaderCrash(l, {a, b}, {a})`).
fn sets_of(label: &str) -> Vec<Vec<Sid>> {
    let mut out = Vec::new();
    let mut rest = label;
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        out.push(
            rest[open + 1..open + close]
                .split(',')
                .filter_map(|p| p.trim().parse::<usize>().ok())
                .collect(),
        );
        rest = &rest[open + close + 1..];
    }
    out
}

/// The default mapping for the ZooKeeper specifications of `remix-zab`.
///
/// Coarse, baseline and fine-grained action labels are all covered; baseline atomic
/// actions map to the *sequence* of code-level events their atomic step abbreviates
/// (e.g. the atomic `FollowerProcessNEWLEADER` maps to update-epoch, log, ack), which is
/// exactly the model-code relationship the paper describes.
pub fn default_mapping() -> ActionMapping {
    ActionMapping::new(|label: &str| {
        let name = action_name(label);
        let p = params(label);
        let first = p.first().copied().unwrap_or(0);
        let second = p.get(1).copied().unwrap_or(0);
        let events = match name {
            "ElectionAndDiscovery" | "OracleElectLeader" => {
                vec![SimEvent::ElectLeader {
                    leader: first,
                    quorum: quorum_of(label),
                }]
            }
            "ElectionAndDiscoveryLateJoin" => {
                vec![SimEvent::FollowerJoinLeader {
                    follower: first,
                    leader: second,
                }]
            }
            "ElectionAndDiscoveryLeaderCrash" => {
                let mut sets = sets_of(label).into_iter();
                vec![SimEvent::ElectLeaderInterrupted {
                    leader: first,
                    quorum: sets.next().unwrap_or_default(),
                    joined: sets.next().unwrap_or_default(),
                }]
            }
            // The baseline FLE actions have no one-to-one code counterpart scheduled by
            // the coordinator; the election outcome is scheduled by FLEDecide of the
            // elected leader (§3.5.3: vote messages for the target leader get priority).
            "FLEBroadcastNotification" | "FLEReceiveNotification" | "FLENotificationTimeout" => {
                vec![]
            }
            "FLEDecide" => vec![],
            "ConnectAndFollowerSendFOLLOWERINFO"
            | "LeaderProcessFOLLOWERINFO"
            | "FollowerProcessLEADERINFO"
            | "LeaderProcessACKEPOCH" => vec![],
            "LeaderSyncFollower" | "LeaderSendNEWLEADER" => {
                vec![SimEvent::LeaderSyncFollower {
                    leader: first,
                    follower: second,
                }]
            }
            "FollowerProcessSyncPackets" => {
                vec![SimEvent::FollowerHandleSyncPackets { follower: first }]
            }
            "FollowerProcessNEWLEADER" => vec![
                SimEvent::FollowerNewLeaderUpdateEpoch { follower: first },
                SimEvent::FollowerNewLeaderLogRequests { follower: first },
                SimEvent::FollowerNewLeaderAck { follower: first },
            ],
            "FollowerProcessNEWLEADER_UpdateEpoch" => {
                vec![SimEvent::FollowerNewLeaderUpdateEpoch { follower: first }]
            }
            "FollowerProcessNEWLEADER_LogAndAck" => vec![
                SimEvent::FollowerNewLeaderLogRequests { follower: first },
                SimEvent::FollowerNewLeaderAck { follower: first },
            ],
            "FollowerProcessNEWLEADER_LogAsync" => {
                vec![SimEvent::FollowerNewLeaderLogRequests { follower: first }]
            }
            "FollowerProcessNEWLEADER_ReplyAck" => {
                vec![SimEvent::FollowerNewLeaderAck { follower: first }]
            }
            "FollowerSyncProcessorLogRequest" => vec![SimEvent::SyncProcessorRun { node: first }],
            "FollowerCommitProcessorCommit" => vec![SimEvent::CommitProcessorRun { node: first }],
            "LeaderProcessACKLD" | "LeaderProcessACK" => {
                vec![SimEvent::LeaderProcessAck {
                    leader: first,
                    from: second,
                }]
            }
            "FollowerProcessCOMMITInSync" => {
                vec![SimEvent::FollowerHandleCommitInSync { follower: first }]
            }
            "FollowerProcessPROPOSALInSync" => {
                vec![SimEvent::FollowerHandleProposal { follower: first }]
            }
            "FollowerProcessUPTODATE" | "FollowerProcessCOMMITLD" => {
                vec![SimEvent::FollowerHandleUpToDate { follower: first }]
            }
            "LeaderProcessRequest" | "LeaderBroadcastPROPOSE" => {
                vec![SimEvent::LeaderClientRequest { leader: first }]
            }
            "FollowerProcessPROPOSAL" | "FollowerAcceptPROPOSE" => {
                vec![SimEvent::FollowerHandleProposal { follower: first }]
            }
            "FollowerProcessCOMMIT" | "FollowerDeliverCOMMIT" => {
                vec![SimEvent::FollowerHandleCommit { follower: first }]
            }
            "NodeCrash" => vec![SimEvent::Crash { node: first }],
            "NodeRestart" => vec![SimEvent::Restart { node: first }],
            "FollowerShutdown" => vec![SimEvent::FollowerShutdown { follower: first }],
            "LeaderShutdown" => vec![SimEvent::LeaderShutdown { leader: first }],
            "NetworkPartition" => vec![SimEvent::Partition {
                a: first,
                b: second,
            }],
            "PartitionRecover" => vec![SimEvent::Heal {
                a: first,
                b: second,
            }],
            "FollowerProcessNEWLEADER_AcceptHistory" => vec![
                SimEvent::FollowerHandleSyncPackets { follower: first },
                SimEvent::FollowerNewLeaderLogRequests { follower: first },
            ],
            "FollowerProcessNEWLEADER_UpdateEpochAndAck" => vec![
                SimEvent::FollowerNewLeaderUpdateEpoch { follower: first },
                SimEvent::FollowerNewLeaderAck { follower: first },
            ],
            _ => return None,
        };
        Some(events)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_parameters_and_quorums() {
        assert_eq!(params("NodeCrash(2)"), vec![2]);
        assert_eq!(params("LeaderProcessACKLD(2, 0)"), vec![2, 0]);
        assert_eq!(quorum_of("ElectionAndDiscovery(2, {0, 2})"), vec![0, 2]);
    }

    #[test]
    fn coarse_election_maps_to_elect_leader() {
        let m = default_mapping();
        let events = m.translate("ElectionAndDiscovery(2, {0, 1, 2})").unwrap();
        assert_eq!(
            events,
            vec![SimEvent::ElectLeader {
                leader: 2,
                quorum: vec![0, 1, 2]
            }]
        );
    }

    #[test]
    fn atomic_newleader_expands_to_three_code_events() {
        let m = default_mapping();
        let events = m.translate("FollowerProcessNEWLEADER(0, 2)").unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0],
            SimEvent::FollowerNewLeaderUpdateEpoch { follower: 0 }
        );
        assert_eq!(events[2], SimEvent::FollowerNewLeaderAck { follower: 0 });
    }

    #[test]
    fn fine_grained_actions_map_one_to_one() {
        let m = default_mapping();
        assert_eq!(
            m.translate("FollowerSyncProcessorLogRequest(1)").unwrap(),
            vec![SimEvent::SyncProcessorRun { node: 1 }]
        );
        assert_eq!(
            m.translate("FollowerProcessNEWLEADER_ReplyAck(0, 2)")
                .unwrap(),
            vec![SimEvent::FollowerNewLeaderAck { follower: 0 }]
        );
    }

    #[test]
    fn unknown_actions_are_reported_as_unmapped() {
        let m = default_mapping();
        assert!(m.translate("SomethingElse(1)").is_none());
        // FLE actions are mapped to "no code-level event" on purpose.
        assert_eq!(m.translate("FLEDecide(1)").unwrap(), vec![]);
    }
}

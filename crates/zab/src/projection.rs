//! Granularity projections for the Zab specification library.
//!
//! These are the abstraction relations the refinement checker
//! (`remix-checker::refine`) uses to prove that a coarser composition simulates a finer
//! one — the semantic counterpart of the syntactic interaction-preservation check of
//! §3.2.  Two normalizations are provided, selected per module pair:
//!
//! * **Election/Discovery** ([`normalize_election`](ProjectionSpec::normalize_election)):
//!   the coarse `ElectionAndDiscovery(i, Q)` action (Figure 5b) executes the whole FLE
//!   round and epoch negotiation atomically.  Fine states *inside* that stretch (a
//!   server that decided but has not completed discovery) correspond to no coarse state
//!   and are unstable; election-internal variables (votes, notification bookkeeping)
//!   and messages (NOTIFICATION / FOLLOWERINFO / LEADERINFO / ACKEPOCH) are hidden, as
//!   are the per-server epoch markers of servers *outside* the protocol phases
//!   (`currentEpoch` / `acceptedEpoch` of LOOKING and DOWN servers), whose values the
//!   atomic coarsening cannot reproduce mid-handshake but whose downstream effects
//!   (which epochs get established, with which histories) stay fully visible.
//! * **Synchronization/Broadcast** ([`normalize_sync`](ProjectionSpec::normalize_sync)):
//!   the fine-grained modules split the atomic NEWLEADER / proposal handling into
//!   thread steps through the `queuedRequests` / `committedRequests` queues.  States
//!   with non-empty thread queues or a partially processed NEWLEADER handshake are
//!   unstable, and ACK messages are hidden (the fine side acknowledges per request;
//!   the visible consequences — leader bookkeeping, establishment, violations — remain
//!   projected).
//!
//! What stays visible in every projection: per-server control state of servers inside
//! the protocol phases, the durable logs and commit indices, the fault budgets and
//! partitions, the ghost variables (established epochs, initial histories, broadcast
//! order) and the code-level `violation` marker — i.e. exactly the state the
//! non-coarsened modules interact with.

use remix_spec::{CompositionPlan, Granularity, TraceProjection, Value};

use crate::config::ClusterConfig;
use crate::state::{ServerData, ZabState};
use crate::types::{Message, ServerState, ZabPhase};

/// Which normalizations a projection applies (derived from the pair of composition
/// plans being compared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionSpec {
    /// Normalize the Election + Discovery coarsening (pair differs in those modules).
    pub normalize_election: bool,
    /// Normalize the fine-grained Synchronization / Broadcast thread structure.
    pub normalize_sync: bool,
}

/// Action names internal to the Election/Discovery coarsening (matched by the coarse
/// side by stuttering).
const ELECTION_INTERNAL: &[&str] = &[
    "FLEBroadcastNotification",
    "FLEReceiveNotification",
    "FLEDecide",
    "FLENotificationTimeout",
    "ConnectAndFollowerSendFOLLOWERINFO",
    "LeaderProcessFOLLOWERINFO",
    "FollowerProcessLEADERINFO",
    "LeaderProcessACKEPOCH",
];

/// Action names internal to the fine-grained Synchronization/Broadcast thread model.
const SYNC_INTERNAL: &[&str] = &[
    "FollowerProcessNEWLEADER_UpdateEpoch",
    "FollowerProcessNEWLEADER_LogAndAck",
    "FollowerProcessNEWLEADER_LogAsync",
    "FollowerProcessNEWLEADER_ReplyAck",
    "FollowerSyncProcessorLogRequest",
    "FollowerCommitProcessorCommit",
];

/// The action name of a fully instantiated label (`"FLEDecide(2)"` → `"FLEDecide"`).
fn action_name(label: &str) -> &str {
    label.split('(').next().unwrap_or(label).trim()
}

/// `true` when the server is inside the protocol phases the projection keeps fully
/// visible (Synchronization or Broadcast, i.e. past the coarsened handshake).
fn in_phase(sv: &ServerData) -> bool {
    sv.is_up() && matches!(sv.phase, ZabPhase::Synchronization | ZabPhase::Broadcast)
}

fn zxid_value(z: crate::types::Zxid) -> Value {
    Value::record(vec![
        ("epoch".to_owned(), Value::from(z.epoch)),
        ("counter".to_owned(), Value::from(z.counter)),
    ])
}

fn txn_value(t: &crate::types::Txn) -> Value {
    Value::record(vec![
        ("zxid".to_owned(), zxid_value(t.zxid)),
        ("value".to_owned(), Value::from(t.value)),
    ])
}

fn history_value(txns: &[crate::types::Txn]) -> Value {
    Value::Seq(txns.iter().map(txn_value).collect())
}

/// Projects one server onto its visible record under `spec`.
fn project_server(sv: &ServerData, spec: ProjectionSpec) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        // Durable data state: always visible — this is what the invariants are about.
        ("history".to_owned(), history_value(&sv.history)),
        (
            "lastCommitted".to_owned(),
            Value::from(sv.last_committed.min(sv.history.len())),
        ),
        // Thread queues: visible (the ZK-4712 stale-queue interaction lives here); the
        // sync normalization makes states with non-empty queues unstable instead.
        (
            "queuedRequests".to_owned(),
            history_value(&sv.queued_requests),
        ),
        (
            "committedRequests".to_owned(),
            Value::Seq(sv.pending_commits.iter().map(|z| zxid_value(*z)).collect()),
        ),
    ];

    let visible_control = !spec.normalize_election || in_phase(sv) || !sv.is_up();
    let state_label = if spec.normalize_election && sv.is_up() && !in_phase(sv) {
        // Anything still inside the coarsened handshake renders as a plain LOOKING
        // server; the handshake's intermediate control state is internal.
        "Looking".to_owned()
    } else {
        format!("{:?}", sv.state)
    };
    fields.push(("state".to_owned(), Value::str(state_label)));

    if visible_control && sv.is_up() {
        fields.push(("zabState".to_owned(), Value::str(format!("{:?}", sv.phase))));
        fields.push((
            "leaderAddr".to_owned(),
            match sv.leader {
                Some(l) => Value::from(l),
                None => Value::Int(-1),
            },
        ));
        fields.push(("serving".to_owned(), Value::Bool(sv.serving)));
        fields.push(("established".to_owned(), Value::Bool(sv.established)));
        fields.push(("epochProposed".to_owned(), Value::Bool(sv.epoch_proposed)));
        fields.push((
            "syncSent".to_owned(),
            Value::set(sv.sync_sent.iter().map(Value::from).collect()),
        ));
        fields.push((
            "ackldRecv".to_owned(),
            Value::set(sv.newleader_acks.iter().map(Value::from).collect()),
        ));
        fields.push((
            "proposalAcks".to_owned(),
            Value::Seq(
                sv.pending_acks
                    .iter()
                    .map(|(z, acks)| {
                        Value::record(vec![
                            ("zxid".to_owned(), zxid_value(*z)),
                            (
                                "acks".to_owned(),
                                Value::set(acks.iter().map(Value::from).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "packetsSync".to_owned(),
            Value::record(vec![
                (
                    "notCommitted".to_owned(),
                    history_value(&sv.packets_not_committed),
                ),
                (
                    "committed".to_owned(),
                    Value::Seq(
                        sv.packets_committed
                            .iter()
                            .map(|z| zxid_value(*z))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }

    // Epoch markers: visible for servers inside the protocol phases; for LOOKING / DOWN
    // servers they are only visible when the election handshake is not normalized (the
    // atomic ElectionAndDiscovery cannot reproduce partially negotiated epochs, and
    // their only downstream effect — which epoch the next round negotiates and who wins
    // it — is re-exposed through the states that round produces).
    let epochs_visible = if spec.normalize_election {
        in_phase(sv)
    } else {
        true
    };
    if epochs_visible {
        fields.push(("currentEpoch".to_owned(), Value::from(sv.current_epoch)));
        fields.push(("acceptedEpoch".to_owned(), Value::from(sv.accepted_epoch)));
    }

    if !spec.normalize_election {
        // Election granularities match on both sides: election bookkeeping evolves
        // identically and stays comparable.
        fields.push((
            "learners".to_owned(),
            Value::set(sv.learners.iter().map(Value::from).collect()),
        ));
        fields.push((
            "ackeRecv".to_owned(),
            Value::set(sv.epoch_acks.iter().map(Value::from).collect()),
        ));
    }

    Value::record(fields)
}

/// `true` when `msg` is internal to the Election/Discovery coarsening.
fn election_internal_msg(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Notification { .. }
            | Message::FollowerInfo { .. }
            | Message::LeaderInfo { .. }
            | Message::AckEpoch { .. }
    )
}

/// Projects the network onto the visible message sequences.
fn project_msgs(state: &ZabState, spec: ProjectionSpec) -> Value {
    let mut channels: Vec<Value> = Vec::new();
    for from in 0..state.n() {
        for to in 0..state.n() {
            let kept: Vec<Value> = state.msgs[from][to]
                .iter()
                .filter(|m| !(spec.normalize_election && election_internal_msg(m)))
                .filter(|m| !(spec.normalize_sync && matches!(m, Message::Ack { .. })))
                .map(|m| Value::str(format!("{m:?}")))
                .collect();
            if !kept.is_empty() {
                channels.push(Value::record(vec![
                    ("from".to_owned(), Value::from(from)),
                    ("to".to_owned(), Value::from(to)),
                    ("queue".to_owned(), Value::Seq(kept)),
                ]));
            }
        }
    }
    Value::Seq(channels)
}

/// Projects the ghost variables (fully visible: the protocol-level invariants read
/// them, so a coarsening that changed them would change verification results).
fn project_ghost(state: &ZabState) -> Value {
    Value::record(vec![
        (
            "establishedLeaders".to_owned(),
            Value::Seq(
                state
                    .ghost
                    .established_leaders
                    .iter()
                    .map(|(e, l)| {
                        Value::record(vec![
                            ("epoch".to_owned(), Value::from(*e)),
                            ("leader".to_owned(), Value::from(*l)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "duplicate".to_owned(),
            Value::Bool(state.ghost.duplicate_establishment),
        ),
        (
            "initialHistory".to_owned(),
            Value::Seq(
                state
                    .ghost
                    .initial_history
                    .iter()
                    .map(|(e, h)| {
                        Value::record(vec![
                            ("epoch".to_owned(), Value::from(*e)),
                            ("history".to_owned(), history_value(h)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "broadcast".to_owned(),
            history_value(&state.ghost.broadcast),
        ),
    ])
}

/// `true` when the state is between coarse steps under `spec` (a commit point).
fn is_stable(state: &ZabState, spec: ProjectionSpec) -> bool {
    if spec.normalize_election {
        // No server may be inside the election/discovery handshake: decided (no longer
        // LOOKING) but not yet through epoch negotiation.
        for sv in &state.servers {
            if sv.is_up()
                && sv.state != ServerState::Looking
                && matches!(sv.phase, ZabPhase::Election | ZabPhase::Discovery)
            {
                return false;
            }
        }
    }
    if spec.normalize_sync {
        // Thread queues must be drained...
        for sv in &state.servers {
            if !sv.queued_requests.is_empty() || !sv.pending_commits.is_empty() {
                return false;
            }
        }
        // ...no NEWLEADER handshake may be in flight toward a synchronizing follower
        // (its epoch update / logging / acknowledgement sub-steps are one atomic step
        // on the coarse side)...
        for (i, sv) in state.servers.iter().enumerate() {
            if !sv.is_up()
                || sv.state != ServerState::Following
                || sv.phase != ZabPhase::Synchronization
            {
                continue;
            }
            if let Some(leader) = sv.leader {
                if state.msgs[leader][i]
                    .iter()
                    .any(|m| matches!(m, Message::NewLeader { .. }))
                {
                    return false;
                }
            }
        }
        // ...and no ACK may be in flight (the fine side acknowledges per logged
        // request; ACKs are hidden from the projection, so a state is only comparable
        // once they are consumed).
        for from in 0..state.n() {
            for to in 0..state.n() {
                if state.msgs[from][to]
                    .iter()
                    .any(|m| matches!(m, Message::Ack { .. }))
                {
                    return false;
                }
            }
        }
    }
    true
}

/// Builds the projection for a normalization choice.
pub fn projection(
    name: impl Into<String>,
    coarse: Granularity,
    fine: Granularity,
    spec: ProjectionSpec,
) -> TraceProjection<ZabState> {
    TraceProjection::identity(name, coarse, fine)
        .with_state(move |s: &ZabState| {
            let mut out = std::collections::BTreeMap::new();
            out.insert(
                "servers".to_owned(),
                Value::Seq(
                    s.servers
                        .iter()
                        .map(|sv| project_server(sv, spec))
                        .collect(),
                ),
            );
            out.insert("msgs".to_owned(), project_msgs(s, spec));
            out.insert(
                "partitions".to_owned(),
                Value::set(
                    s.partitioned
                        .iter()
                        .map(|(a, b)| {
                            Value::record(vec![
                                ("a".to_owned(), Value::from(*a)),
                                ("b".to_owned(), Value::from(*b)),
                            ])
                        })
                        .collect(),
                ),
            );
            out.insert("crashBudget".to_owned(), Value::from(s.crashes_remaining));
            out.insert(
                "partitionBudget".to_owned(),
                Value::from(s.partitions_remaining),
            );
            out.insert("txnBudget".to_owned(), Value::from(s.txns_created));
            out.insert(
                "violation".to_owned(),
                Value::str(format!("{:?}", s.violation)),
            );
            out.insert("ghost".to_owned(), project_ghost(s));
            out
        })
        .with_label(move |label: &str| {
            let name = action_name(label);
            if spec.normalize_election
                && (ELECTION_INTERNAL.contains(&name) || name == "ElectionAndDiscovery")
            {
                if name == "ElectionAndDiscovery" {
                    return Some("ElectionAndDiscovery".to_owned());
                }
                return None;
            }
            if spec.normalize_sync && SYNC_INTERNAL.contains(&name) {
                return None;
            }
            Some(label.to_owned())
        })
        .with_stability(move |s: &ZabState| is_stable(s, spec))
}

/// The projection for comparing a composition that coarsens Election + Discovery
/// against one that keeps them at baseline granularity (mSpec-1 vs SysSpec).
pub fn coarse_vs_baseline(_config: &ClusterConfig) -> TraceProjection<ZabState> {
    projection(
        "Coarse⊑Baseline(Election+Discovery)",
        Granularity::Coarse,
        Granularity::Baseline,
        ProjectionSpec {
            normalize_election: true,
            normalize_sync: false,
        },
    )
}

/// The projection for comparing a composition with fine-grained Synchronization /
/// Broadcast modules against the baseline system specification.
pub fn baseline_vs_fine_sync(
    _config: &ClusterConfig,
    fine: Granularity,
) -> TraceProjection<ZabState> {
    projection(
        format!("Baseline⊑{fine}(Synchronization+Broadcast)"),
        Granularity::Baseline,
        fine,
        ProjectionSpec {
            normalize_election: false,
            normalize_sync: true,
        },
    )
}

/// Derives the projection relating two composition plans, or `None` when the plans
/// select identical granularities everywhere (no refinement pair).
///
/// The `coarse_plan` must select, for every module where the plans differ, a
/// granularity that strictly abstracts the `fine_plan`'s choice.
pub fn projection_between(
    fine_plan: &CompositionPlan,
    coarse_plan: &CompositionPlan,
    config: &ClusterConfig,
) -> Option<TraceProjection<ZabState>> {
    let mut normalize_election = false;
    let mut normalize_sync = false;
    let mut coarsest = Granularity::FineConcurrent;
    let mut finest = Granularity::Protocol;
    for choice in &coarse_plan.choices {
        let fine_g = fine_plan.granularity_of(choice.module)?;
        if fine_g == choice.granularity {
            continue;
        }
        if !choice.granularity.abstracts(fine_g) {
            return None;
        }
        match choice.module.name() {
            "Election" | "Discovery" => normalize_election = true,
            "Synchronization" | "Broadcast" => normalize_sync = true,
            _ => return None,
        }
        if choice.granularity.abstracts(coarsest) {
            coarsest = choice.granularity;
        }
        if finest.abstracts(fine_g) {
            finest = fine_g;
        }
    }
    if !normalize_election && !normalize_sync {
        return None;
    }
    let _ = config;
    Some(projection(
        format!("{}⊑{}", coarse_plan.name, fine_plan.name),
        coarsest,
        finest,
        ProjectionSpec {
            normalize_election,
            normalize_sync,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::SpecPreset;
    use crate::versions::CodeVersion;

    fn config() -> ClusterConfig {
        ClusterConfig::small(CodeVersion::V391)
    }

    #[test]
    fn initial_state_is_stable_and_projects() {
        let p = coarse_vs_baseline(&config());
        let s = ZabState::initial(&config());
        assert!(p.is_stable(&s));
        let projected = p.project_state(&s);
        assert!(projected.contains_key("servers"));
        assert!(projected.contains_key("ghost"));
        assert!(projected.contains_key("crashBudget"));
    }

    #[test]
    fn mid_handshake_states_are_unstable() {
        let p = coarse_vs_baseline(&config());
        let mut s = ZabState::initial(&config());
        s.servers[0].state = ServerState::Leading;
        s.servers[0].phase = ZabPhase::Discovery;
        assert!(!p.is_stable(&s));
        // Once through discovery the state is a commit point again.
        s.servers[0].phase = ZabPhase::Synchronization;
        assert!(p.is_stable(&s));
    }

    #[test]
    fn election_internals_are_hidden() {
        let p = coarse_vs_baseline(&config());
        let mut a = ZabState::initial(&config());
        let b = a.clone();
        // Vote bookkeeping and election messages are internal: projections must agree.
        a.servers[1].vote_broadcast = true;
        a.servers[2].recv_votes.insert(
            1,
            crate::types::Vote {
                epoch: 0,
                zxid: crate::types::Zxid::ZERO,
                leader: 1,
            },
        );
        a.msgs[1][2].push(Message::Notification {
            vote: a.servers[1].vote,
        });
        assert_eq!(p.project_state(&a), p.project_state(&b));
        // A durable difference stays visible.
        a.servers[1].history.push(crate::types::Txn::new(1, 1, 7));
        assert_ne!(p.project_state(&a), p.project_state(&b));
    }

    #[test]
    fn labels_project_per_normalization() {
        let p = coarse_vs_baseline(&config());
        assert_eq!(p.project_label("FLEDecide(2)"), None);
        assert_eq!(p.project_label("LeaderProcessACKEPOCH(2, 0)"), None);
        assert_eq!(
            p.project_label("ElectionAndDiscovery(2, {0, 1, 2})"),
            Some("ElectionAndDiscovery".to_owned())
        );
        assert_eq!(
            p.project_label("NodeCrash(1)"),
            Some("NodeCrash(1)".to_owned())
        );

        let q = baseline_vs_fine_sync(&config(), Granularity::FineConcurrent);
        assert_eq!(q.project_label("FollowerSyncProcessorLogRequest(0)"), None);
        assert_eq!(
            q.project_label("FollowerProcessNEWLEADER_ReplyAck(0, 2)"),
            None
        );
        assert_eq!(
            q.project_label("FollowerProcessNEWLEADER(0, 2)"),
            Some("FollowerProcessNEWLEADER(0, 2)".to_owned())
        );
    }

    #[test]
    fn sync_normalization_marks_queue_states_unstable() {
        let q = baseline_vs_fine_sync(&config(), Granularity::FineConcurrent);
        let mut s = ZabState::initial(&config());
        assert!(q.is_stable(&s));
        s.servers[0]
            .queued_requests
            .push(crate::types::Txn::new(1, 1, 1));
        assert!(!q.is_stable(&s));
        s.servers[0].queued_requests.clear();
        s.msgs[0][2].push(Message::Ack {
            zxid: crate::types::Zxid::new(1, 1),
        });
        assert!(
            !q.is_stable(&s),
            "in-flight ACKs are hidden, so not comparable"
        );
    }

    #[test]
    fn projection_between_derives_normalizations_from_plans() {
        let cfg = config();
        let p = projection_between(
            &SpecPreset::SysSpec.plan(),
            &SpecPreset::MSpec1.plan(),
            &cfg,
        )
        .expect("Coarse vs Baseline pair");
        assert_eq!(p.coarse, Granularity::Coarse);
        assert_eq!(p.fine, Granularity::Baseline);
        assert_eq!(p.project_label("FLEDecide(1)"), None);

        let q = projection_between(
            &SpecPreset::MSpec4.plan(),
            &SpecPreset::SysSpec.plan(),
            &cfg,
        )
        .expect("Baseline vs FineConcurrent pair");
        assert_eq!(q.coarse, Granularity::Baseline);
        assert_eq!(q.fine, Granularity::FineConcurrent);
        assert_eq!(q.project_label("FollowerCommitProcessorCommit(0)"), None);

        // Identical plans have no refinement relation.
        assert!(projection_between(
            &SpecPreset::SysSpec.plan(),
            &SpecPreset::SysSpec.plan(),
            &cfg
        )
        .is_none());
        // An ill-ordered pair (coarse side finer than fine side) is rejected.
        assert!(projection_between(
            &SpecPreset::MSpec1.plan(),
            &SpecPreset::SysSpec.plan(),
            &cfg
        )
        .is_none());
    }
}

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
//!
//! The projection is built per component — `project_server`, `project_row` (the
//! channels out of one sender) and `project_ghost` — and so is its key: the refinement
//! checker keys every stable state, and a state space has far fewer distinct servers,
//! rows and ghost states than states, so each component's projection hash is memoized
//! by the component's digest and a key is a hash over those plus the scalar fields.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
// sync-exempt: remix-zab sits below remix-checker and cannot use its instrumented
// checker::sync layer.  The projection memo's RwLock is leaf-level: a miss is projected
// and fingerprinted with no lock held, and nothing is acquired while it is held, so it
// cannot take part in a lock-order cycle.
use std::sync::{Arc, PoisonError, RwLock};

use remix_spec::{
    fingerprint, CompositionPlan, DigestMap, Fingerprint, Granularity, PairHasher, Shared,
    TraceProjection, Value,
};

use crate::config::ClusterConfig;
use crate::state::{GhostState, ServerData, ZabState};
use crate::types::{Message, ServerState, Sid, ZabPhase};

/// Which normalizations a projection applies (derived from the pair of composition
/// plans being compared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionSpec {
    /// Normalize the Election + Discovery coarsening (pair differs in those modules).
    pub normalize_election: bool,
    /// Normalize the fine-grained Synchronization / Broadcast thread structure.
    pub normalize_sync: bool,
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

/// Projects the channels out of server `from` onto their visible message sequences:
/// one record per channel with a visible message, in destination order.  Every record
/// names its sender, so the network's projection is the concatenation of its rows'.
fn project_row(state: &ZabState, from: Sid, spec: ProjectionSpec) -> Vec<Value> {
    let mut channels = Vec::new();
    for (to, queue) in state.msgs[from].iter().enumerate() {
        let kept: Vec<Value> = queue
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
    channels
}

/// Projects the ghost variables (fully visible: the protocol-level invariants read
/// them, so a coarsening that changed them would change verification results).
fn project_ghost(ghost: &GhostState) -> Value {
    Value::record(vec![
        (
            "establishedLeaders".to_owned(),
            Value::Seq(
                ghost
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
            Value::Bool(ghost.duplicate_establishment),
        ),
        (
            "initialHistory".to_owned(),
            Value::Seq(
                ghost
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
        ("broadcast".to_owned(), history_value(&ghost.broadcast)),
    ])
}

/// The `Value` form of a state's projection, assembled from the per-component
/// builders (what divergence reports render).
fn project_state(s: &ZabState, spec: ProjectionSpec) -> BTreeMap<String, Value> {
    let mut out = BTreeMap::new();
    out.insert(
        "servers".to_owned(),
        Value::Seq(
            s.servers
                .iter()
                .map(|sv| project_server(sv, spec))
                .collect(),
        ),
    );
    out.insert(
        "msgs".to_owned(),
        Value::Seq(
            (0..s.n())
                .flat_map(|from| project_row(s, from, spec))
                .collect(),
        ),
    );
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
    out.insert("ghost".to_owned(), project_ghost(&s.ghost));
    out
}

/// Which kind of shared component a memoized projection hash belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Component {
    Server,
    Row,
    Ghost,
}

/// The projection hashes of the components a projection has keyed, so that a state's
/// key costs one lookup per component instead of a projection of the whole state: a
/// state space is built from far fewer distinct servers, channel rows and ghost states
/// than states.
///
/// Entries are keyed by `(kind, sender index, Shared::digest())`, never by pool slot:
/// slots are per store and each side of a refinement check has its own, while a digest
/// depends on the value alone — so the side explored first warms the memo for the
/// other.  The sender index is 0 except for rows, whose projection names its sender.
struct ProjectionMemo {
    spec: ProjectionSpec,
    hashes: RwLock<DigestMap<(Component, usize, Fingerprint), u64>>,
}

impl ProjectionMemo {
    fn new(spec: ProjectionSpec) -> Self {
        ProjectionMemo {
            spec,
            hashes: RwLock::default(),
        }
    }

    /// The hash of `component`'s projection, projected (outside the lock) only the
    /// first time its value is seen in this `kind` and `index`.
    fn hash<T: Hash>(
        &self,
        kind: Component,
        index: usize,
        component: &Shared<T>,
        project: impl FnOnce(&T) -> Value,
    ) -> u64 {
        let entry = (kind, index, component.digest());
        let known = self
            .hashes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&entry)
            .copied();
        known.unwrap_or_else(|| {
            let hash = fingerprint(&project(component)).0;
            *self
                .hashes
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(entry)
                .or_insert(hash)
        })
    }

    /// The state's projection key: each component's memoized projection hash, and the
    /// scalar fields as the projection shows them (a value for value image, so equal
    /// exactly when `project_state` is).  `ZabState` is destructured so that a new
    /// field cannot be left out.
    fn key(&self, state: &ZabState) -> u64 {
        let ZabState {
            servers,
            msgs,
            partitioned,
            crashes_remaining,
            partitions_remaining,
            txns_created,
            ghost,
            violation,
        } = state;
        let spec = self.spec;
        let mut hasher = PairHasher::new();
        hasher.write_usize(servers.len());
        for server in servers {
            hasher
                .write_u64(self.hash(Component::Server, 0, server, |sv| project_server(sv, spec)));
        }
        for (from, row) in msgs.iter().enumerate() {
            hasher.write_u64(self.hash(Component::Row, from, row, |_| {
                Value::Seq(project_row(state, from, spec))
            }));
        }
        hasher.write_u64(self.hash(Component::Ghost, 0, ghost, project_ghost));
        partitioned.hash(&mut hasher);
        crashes_remaining.hash(&mut hasher);
        partitions_remaining.hash(&mut hasher);
        txns_created.hash(&mut hasher);
        violation.hash(&mut hasher);
        hasher.finish()
    }
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

/// Builds the projection for a normalization choice.  Its key hashes the projection
/// hash of each server, channel row and ghost state, memoized per distinct component,
/// with the scalar fields; the `Value` form is only built to render divergences.
pub fn projection(
    name: impl Into<String>,
    coarse: Granularity,
    fine: Granularity,
    spec: ProjectionSpec,
) -> TraceProjection<ZabState> {
    memoized_projection(name, coarse, fine, Arc::new(ProjectionMemo::new(spec)))
}

/// [`projection`] over a given memo.
fn memoized_projection(
    name: impl Into<String>,
    coarse: Granularity,
    fine: Granularity,
    memo: Arc<ProjectionMemo>,
) -> TraceProjection<ZabState> {
    let spec = memo.spec;
    let state = move |s: &ZabState| project_state(s, spec);
    TraceProjection::new(name, coarse, fine, state)
        .with_key(move |s: &ZabState| memo.key(s))
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
    fn the_memo_keeps_one_hash_per_distinct_component() {
        use remix_checker::{check_refinement, corpus, CorpusOptions, RefineOptions};
        use std::collections::HashSet;

        let config = ClusterConfig::small(CodeVersion::V391)
            .with_transactions(1)
            .with_crashes(0);
        let fine = SpecPreset::MSpec2.build(&config);
        let coarse = SpecPreset::MSpec1.build(&config);
        let memo = Arc::new(ProjectionMemo::new(ProjectionSpec {
            normalize_election: true,
            normalize_sync: true,
        }));
        let p = memoized_projection(
            "mSpec-1⊑mSpec-2",
            Granularity::Coarse,
            Granularity::Baseline,
            Arc::clone(&memo),
        );
        let outcome = check_refinement(&fine, &coarse, &p, &RefineOptions::default());
        assert_eq!(outcome.refines(), Some(true), "{outcome}");

        // What both sides reach, component by component.
        let everything = CorpusOptions {
            max_states: usize::MAX,
            max_depth: usize::MAX,
        };
        let states: Vec<ZabState> = [&fine, &coarse]
            .into_iter()
            .flat_map(|spec| corpus(spec, everything))
            .collect();
        let servers: HashSet<Fingerprint> = states
            .iter()
            .flat_map(|s| s.servers.iter().map(|sv| sv.digest()))
            .collect();
        let rows: HashSet<(usize, Fingerprint)> = states
            .iter()
            .flat_map(|s| s.msgs.iter().map(|row| row.digest()).enumerate())
            .collect();
        let ghosts: HashSet<Fingerprint> = states.iter().map(|s| s.ghost.digest()).collect();
        let entries = || {
            let hashes = memo.hashes.read().unwrap();
            [Component::Server, Component::Row, Component::Ghost]
                .map(|kind| hashes.keys().filter(|(k, ..)| *k == kind).count())
        };
        let seen = entries();
        let distinct = [servers.len(), rows.len(), ghosts.len()];
        assert!(
            seen.iter().zip(&distinct).all(|(&s, &d)| 0 < s && s <= d),
            "memo entries {seen:?} against distinct servers, rows, ghosts {distinct:?}"
        );

        // The run keyed every stable state: keying one again projects nothing new.
        let stable: Vec<&ZabState> = states.iter().filter(|s| p.is_stable(s)).collect();
        assert!(seen.iter().sum::<usize>() < stable.len());
        for state in stable {
            p.key(state);
        }
        assert_eq!(entries(), seen);
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

        let q = projection_between(
            &SpecPreset::MSpec4.plan(),
            &SpecPreset::SysSpec.plan(),
            &cfg,
        )
        .expect("Baseline vs FineConcurrent pair");
        assert_eq!(q.coarse, Granularity::Baseline);
        assert_eq!(q.fine, Granularity::FineConcurrent);

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

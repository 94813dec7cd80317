//! [`StateFields`] reflection for [`ZabState`], the substrate of the effect audit.
//!
//! Every part of the global state is assigned to exactly one *semantic field*, and
//! every field to the [`Effect`] write bits that must be declared by any action that
//! changes it:
//!
//! * the 24 per-server variables map to that server's bit (`server[i].currentEpoch`,
//!   ... → `writes_server(i)`);
//! * each directed message queue maps to its channel bit (`msgs[i][j]` →
//!   `writes_channel(i, j)`);
//! * each unordered pair's *link status* — partition membership plus derived
//!   reachability — maps to both direction bits (`link[a][b]` →
//!   `writes_channel(a, b)` + `writes_channel(b, a)`), per the workspace convention
//!   that reachability is charged to the channel domain.  Crucially, `reachable`
//!   derives from server *state* (`is_up`), so crashing or restarting a server
//!   changes `link` fields without touching a queue — the NodeRestart-class write
//!   this mapping exists to expose;
//! * the global scalars map to their named flag bits (`crashBudget`, ...).
//!
//! The enumeration is a function of the server count alone, so audits can compare
//! per-field hash vectors positionally across any two states of a run.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use remix_spec::effect::flags;
use remix_spec::{Effect, FieldInfo, Offer, Sink, Spec, StateFields};

use crate::state::{ServerData, ZabState};

/// The per-server field names, index-aligned with [`server_field_hashes`].
const SERVER_FIELDS: &[&str] = &[
    "currentEpoch",
    "acceptedEpoch",
    "history",
    "lastCommitted",
    "state",
    "zabState",
    "leaderAddr",
    "currentVote",
    "voteBroadcast",
    "receiveVotes",
    "learners",
    "learnerLastZxid",
    "epochProposed",
    "ackeRecv",
    "syncSent",
    "ackldRecv",
    "established",
    "proposalAcks",
    "connected",
    "packetsSync.notCommitted",
    "packetsSync.committed",
    "queuedRequests",
    "committedRequests",
    "serving",
];

fn hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// One hash per entry of [`SERVER_FIELDS`], in order.
fn server_field_hashes(s: &ServerData, out: &mut Vec<u64>) {
    out.push(hash_one(&s.current_epoch));
    out.push(hash_one(&s.accepted_epoch));
    out.push(hash_one(&s.history));
    out.push(hash_one(&s.last_committed));
    out.push(hash_one(&s.state));
    out.push(hash_one(&s.phase));
    out.push(hash_one(&s.leader));
    out.push(hash_one(&s.vote));
    out.push(hash_one(&s.vote_broadcast));
    out.push(hash_one(&s.recv_votes));
    out.push(hash_one(&s.learners));
    out.push(hash_one(&s.learner_last_zxid));
    out.push(hash_one(&s.epoch_proposed));
    out.push(hash_one(&s.epoch_acks));
    out.push(hash_one(&s.sync_sent));
    out.push(hash_one(&s.newleader_acks));
    out.push(hash_one(&s.established));
    out.push(hash_one(&s.pending_acks));
    out.push(hash_one(&s.connected));
    out.push(hash_one(&s.packets_not_committed));
    out.push(hash_one(&s.packets_committed));
    out.push(hash_one(&s.queued_requests));
    out.push(hash_one(&s.pending_commits));
    out.push(hash_one(&s.serving));
}

impl StateFields for ZabState {
    fn fields(&self) -> Vec<FieldInfo> {
        let n = self.n();
        let mut out = Vec::with_capacity(n * SERVER_FIELDS.len() + n * n + 5);
        for i in 0..n {
            for name in SERVER_FIELDS {
                out.push(FieldInfo::new(
                    format!("server[{i}].{name}"),
                    Effect::new().writes_server(i),
                ));
            }
        }
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    out.push(FieldInfo::new(
                        format!("msgs[{from}][{to}]"),
                        Effect::new().writes_channel(from, to),
                    ));
                }
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                out.push(FieldInfo::new(
                    format!("link[{a}][{b}]"),
                    Effect::new().writes_channel(a, b).writes_channel(b, a),
                ));
            }
        }
        out.push(FieldInfo::new(
            "crashBudget",
            Effect::new().writes_flag(flags::CRASH_BUDGET),
        ));
        out.push(FieldInfo::new(
            "partitionBudget",
            Effect::new().writes_flag(flags::PARTITION_BUDGET),
        ));
        out.push(FieldInfo::new(
            "txnBudget",
            Effect::new().writes_flag(flags::TXN_BUDGET),
        ));
        out.push(FieldInfo::new(
            "ghost",
            Effect::new().writes_flag(flags::GHOST),
        ));
        out.push(FieldInfo::new(
            "violation",
            Effect::new().writes_flag(flags::VIOLATION),
        ));
        out
    }

    fn field_hashes(&self, out: &mut Vec<u64>) {
        let n = self.n();
        for server in &self.servers {
            server_field_hashes(server, out);
        }
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    out.push(hash_one(&self.msgs[from][to]));
                }
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                let key = (a, b);
                out.push(hash_one(&(
                    self.partitioned.contains(&key),
                    self.reachable(a, b),
                )));
            }
        }
        out.push(hash_one(&self.crashes_remaining));
        out.push(hash_one(&self.partitions_remaining));
        out.push(hash_one(&self.txns_created));
        out.push(hash_one(&self.ghost));
        out.push(hash_one(&self.violation));
    }
}

/// Test hook for the seeded audit regression: re-creates the PR 7 `NodeRestart`
/// under-declaration by stripping the channel-row write bits from every `NodeRestart`
/// instance's declared footprint, leaving only the server bit.
///
/// Restarting a crashed server flips `reachable(i, ·)` for every peer, so the
/// tightened footprint is unsound — the effect audit must flag the `link` fields and
/// the commute oracle may catch the resulting false diamonds.  Production code never
/// calls this; it exists so the analyzer's headline regression (`NodeRestart`-class
/// silent state loss) stays reproducible end to end.
pub fn underdeclare_node_restart(spec: &mut Spec<ZabState>) {
    for module in &mut spec.modules {
        for action in &mut module.actions {
            if action.name != "NodeRestart" {
                continue;
            }
            let orig = Arc::clone(&action.offers);
            action.offers = Arc::new(move |s: &ZabState, sink: &mut dyn Sink<ZabState>| {
                orig(s, &mut |mut offer: Offer<'_, ZabState>| {
                    if let Some(e) = offer.effect.as_mut() {
                        e.writes_channels = 0;
                        e.reads_channels = 0;
                    }
                    sink.take(offer);
                });
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::versions::CodeVersion;

    #[test]
    fn enumeration_and_hashes_are_aligned() {
        let s = ZabState::initial(&ClusterConfig::small(CodeVersion::FinalFix));
        let fields = s.fields();
        let mut hashes = Vec::new();
        s.field_hashes(&mut hashes);
        assert_eq!(fields.len(), hashes.len());
        // 3 servers: 24 per-server fields, 6 directed queues, 3 links, 5 globals.
        assert_eq!(fields.len(), 3 * 24 + 6 + 3 + 5);
        let paths: std::collections::HashSet<_> = fields.iter().map(|f| &f.path).collect();
        assert_eq!(paths.len(), fields.len(), "paths are unique");
    }

    #[test]
    fn crash_changes_link_fields_not_just_server_fields() {
        let base = ZabState::initial(&ClusterConfig::small(CodeVersion::FinalFix));
        let mut crashed = base.clone();
        crashed.servers[1].crash();
        let fields = base.fields();
        let (mut h0, mut h1) = (Vec::new(), Vec::new());
        base.field_hashes(&mut h0);
        crashed.field_hashes(&mut h1);
        let changed: Vec<&str> = fields
            .iter()
            .zip(h0.iter().zip(&h1))
            .filter(|(_, (a, b))| a != b)
            .map(|(f, _)| f.path.as_str())
            .collect();
        assert!(changed.contains(&"link[0][1]"), "changed: {changed:?}");
        assert!(changed.contains(&"link[1][2]"));
        assert!(!changed.contains(&"link[0][2]"));
        assert!(changed.iter().any(|p| p.starts_with("server[1].")));
        assert!(!changed.iter().any(|p| p.starts_with("server[0].")));
    }

    #[test]
    fn link_fields_track_partitions() {
        let base = ZabState::initial(&ClusterConfig::small(CodeVersion::FinalFix));
        let mut split = base.clone();
        split.partitioned.insert((0, 2));
        let fields = base.fields();
        let (mut h0, mut h1) = (Vec::new(), Vec::new());
        base.field_hashes(&mut h0);
        split.field_hashes(&mut h1);
        let changed: Vec<&str> = fields
            .iter()
            .zip(h0.iter().zip(&h1))
            .filter(|(_, (a, b))| a != b)
            .map(|(f, _)| f.path.as_str())
            .collect();
        assert_eq!(changed, vec!["link[0][2]"]);
    }
}

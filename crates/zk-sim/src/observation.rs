//! Observations: the code-level state snapshot compared against the model during
//! conformance checking.
//!
//! An observation borrows the nodes of the cluster it was taken of and reads each
//! node's record when it is asked for — the durable log and error text in place, not
//! copied — so taking one per replayed step allocates nothing.

use std::collections::BTreeMap;

use remix_spec::Value;
use remix_zab::{Sid, Txn};

use crate::node::{NodeHandle, RunState};

/// The observable state of one server process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeObservation<'a> {
    /// The server id.
    pub sid: Sid,
    /// `currentEpoch` on disk.
    pub current_epoch: u32,
    /// `acceptedEpoch` on disk.
    pub accepted_epoch: u32,
    /// The durable transaction log.
    pub log: &'a [Txn],
    /// Number of committed (delivered) transactions.
    pub committed: usize,
    /// Whether the process is up.
    pub up: bool,
    /// Any error (exception / failed assertion) the process raised.
    pub error: Option<&'a str>,
}

impl<'a> NodeObservation<'a> {
    /// What `node` shows of itself: its disk, whether it is up, and the error its
    /// follower side — or else its leader side — raised.
    pub fn of(node: &'a NodeHandle) -> Self {
        let server = &node.server;
        NodeObservation {
            sid: server.sid,
            current_epoch: server.disk.current_epoch,
            accepted_epoch: server.disk.accepted_epoch,
            log: &server.disk.log,
            committed: server.disk.committed,
            up: server.run_state != RunState::Down,
            error: server
                .error
                .as_deref()
                .or_else(|| node.leader.as_ref().and_then(|l| l.error.as_deref())),
        }
    }
}

/// The observable state of the whole cluster: a view of its nodes, each read into a
/// [`NodeObservation`] when [`Observation::nodes`] reaches it.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    nodes: &'a [NodeHandle],
}

impl<'a> Observation<'a> {
    /// The observation of `nodes`, indexed by sid.
    pub fn of(nodes: &'a [NodeHandle]) -> Self {
        Observation { nodes }
    }

    /// Per-server observations, in sid order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeObservation<'a>> + 'a {
        self.nodes.iter().map(NodeObservation::of)
    }

    /// The observation of server `sid`.
    ///
    /// # Panics
    ///
    /// When the cluster has no server `sid`.
    pub fn node(&self, sid: Sid) -> NodeObservation<'a> {
        NodeObservation::of(&self.nodes[sid])
    }

    /// Projects the observation into the same variable space as the model state, so the
    /// conformance checker can compare them value by value.
    pub fn project(&self, vars: &[&str]) -> BTreeMap<String, Value> {
        let mut out = BTreeMap::new();
        let per_node = |f: &dyn Fn(&NodeObservation) -> Value| -> Value {
            Value::Seq(self.nodes().map(|n| f(&n)).collect())
        };
        for var in vars {
            let v = match *var {
                "currentEpoch" => Some(per_node(&|n| Value::from(n.current_epoch))),
                "acceptedEpoch" => Some(per_node(&|n| Value::from(n.accepted_epoch))),
                "lastCommitted" => Some(per_node(&|n| Value::from(n.committed))),
                "history" => Some(per_node(&|n| {
                    Value::Seq(
                        n.log
                            .iter()
                            .map(|t| {
                                Value::record(vec![
                                    ("epoch".to_owned(), Value::from(t.zxid.epoch)),
                                    ("counter".to_owned(), Value::from(t.zxid.counter)),
                                    ("value".to_owned(), Value::from(t.value)),
                                ])
                            })
                            .collect(),
                    )
                })),
                "violation" => Some(Value::Bool(self.nodes().any(|n| n.error.is_some()))),
                _ => None,
            };
            if let Some(v) = v {
                out.insert((*var).to_owned(), v);
            }
        }
        out
    }

    /// The variables this observation can project (the conformance-checkable subset).
    pub fn comparable_variables() -> &'static [&'static str] {
        &[
            "currentEpoch",
            "acceptedEpoch",
            "history",
            "lastCommitted",
            "violation",
        ]
    }

    /// The first error raised by any node, if any.
    pub fn first_error(&self) -> Option<(NodeObservation<'a>, &'a str)> {
        self.nodes().find_map(|n| n.error.map(|e| (n, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two nodes: server 0 with one committed transaction in epoch 1, server 1 with
    /// accepted epoch 1 and an error.
    fn nodes() -> Vec<NodeHandle> {
        let mut nodes = vec![NodeHandle::new(0), NodeHandle::new(1)];
        let disk = &mut nodes[0].server.disk;
        disk.current_epoch = 1;
        disk.accepted_epoch = 1;
        disk.log.push(Txn::new(1, 1, 7));
        disk.committed = 1;
        nodes[1].server.disk.accepted_epoch = 1;
        nodes[1].server.error = Some("ZK-4394".to_owned());
        nodes
    }

    #[test]
    fn projection_matches_the_model_variable_space() {
        let nodes = nodes();
        let o = Observation::of(&nodes);
        let p = o.project(Observation::comparable_variables());
        assert_eq!(p.len(), 5);
        assert_eq!(
            p["currentEpoch"],
            Value::Seq(vec![Value::Int(1), Value::Int(0)])
        );
        assert_eq!(
            p["lastCommitted"],
            Value::Seq(vec![Value::Int(1), Value::Int(0)])
        );
        assert_eq!(p["violation"], Value::Bool(true));
        let history = p["history"].as_seq().unwrap();
        assert_eq!(history[0].len(), 1);
        assert_eq!(history[1].len(), 0);
    }

    #[test]
    fn first_error_is_reported() {
        let nodes = nodes();
        let o = Observation::of(&nodes);
        let (node, err) = o.first_error().unwrap();
        assert_eq!(node.sid, 1);
        assert!(err.contains("ZK-4394"));
    }
}

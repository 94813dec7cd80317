//! Observations: the code-level state snapshot compared against the model during
//! conformance checking.
//!
//! An observation borrows from the cluster it was taken of — each node's durable log
//! and error text are read in place, not copied — so taking one per replayed step
//! costs one small vector of per-node records.

use std::collections::BTreeMap;

use remix_spec::Value;
use remix_zab::{Sid, Txn};

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

/// The observable state of the whole cluster.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Observation<'a> {
    /// Per-server observations, indexed by sid.
    pub nodes: Vec<NodeObservation<'a>>,
}

impl<'a> Observation<'a> {
    /// Projects the observation into the same variable space as the model state, so the
    /// conformance checker can compare them value by value.
    pub fn project(&self, vars: &[&str]) -> BTreeMap<String, Value> {
        let mut out = BTreeMap::new();
        let per_node = |f: &dyn Fn(&NodeObservation) -> Value| -> Value {
            Value::Seq(self.nodes.iter().map(f).collect())
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
                "violation" => Some(Value::Bool(self.nodes.iter().any(|n| n.error.is_some()))),
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
    pub fn first_error(&self) -> Option<(&NodeObservation<'a>, &'a str)> {
        self.nodes.iter().find_map(|n| n.error.map(|e| (n, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(log: &[Txn]) -> Observation<'_> {
        Observation {
            nodes: vec![
                NodeObservation {
                    sid: 0,
                    current_epoch: 1,
                    accepted_epoch: 1,
                    log,
                    committed: 1,
                    up: true,
                    error: None,
                },
                NodeObservation {
                    sid: 1,
                    current_epoch: 0,
                    accepted_epoch: 1,
                    log: &[],
                    committed: 0,
                    up: true,
                    error: Some("ZK-4394"),
                },
            ],
        }
    }

    #[test]
    fn projection_matches_the_model_variable_space() {
        let log = [Txn::new(1, 1, 7)];
        let o = obs(&log);
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
        let log = [Txn::new(1, 1, 7)];
        let o = obs(&log);
        let (node, err) = o.first_error().unwrap();
        assert_eq!(node.sid, 1);
        assert!(err.contains("ZK-4394"));
    }
}

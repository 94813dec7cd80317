//! ZooKeeper code versions, bug flags and the bug lineage of Figure 8.
//!
//! The model checker verifies *a particular implementation*; which error paths exist in
//! the model depends on which version of the log-replication code is being modelled.
//! [`CodeVersion`] enumerates the versions the paper evaluates (v3.7.0 for Table 5,
//! v3.9.1 for Table 4, the four bug-fix pull requests of Table 6, and the final verified
//! fix of §5.4); [`BugFlags`] is the derived set of behavioural switches consumed by the
//! specification actions.

/// The ZooKeeper issues modelled by this reproduction.
pub const MODELLED_ISSUES: &[&str] = &[
    "ZK-3023", "ZK-4394", "ZK-4643", "ZK-4646", "ZK-4685", "ZK-4712",
];

/// A version of the ZooKeeper log-replication implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CodeVersion {
    /// ZooKeeper 3.7.0 — the version used for the efficiency evaluation (Table 5).
    V370,
    /// ZooKeeper 3.9.1 — the version used for bug detection (Table 4).
    V391,
    /// v3.9.1 with the ZK-4712 fix applied (the `mSpec-3+` baseline of Table 6).
    MSpec3Plus,
    /// Pull request 1848 (attempts ZK-4643 by reordering the epoch/history update).
    Pr1848,
    /// Pull request 1930 (attempts the NEWLEADER acknowledgement handling).
    Pr1930,
    /// Pull request 1993 (attempts ZK-4646 and ZK-4685).
    Pr1993,
    /// Pull request 2111 (a later attempt along the lines of PR-1993).
    Pr2111,
    /// The final fix verified in §5.4: the follower logs the synced history *before*
    /// updating its epoch, logging during synchronization is synchronous, and the leader
    /// tolerates early proposal acknowledgements.
    FinalFix,
}

impl CodeVersion {
    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CodeVersion::V370 => "ZooKeeper v3.7.0",
            CodeVersion::V391 => "ZooKeeper v3.9.1",
            CodeVersion::MSpec3Plus => "v3.9.1 + ZK-4712 fix (mSpec-3+)",
            CodeVersion::Pr1848 => "PR-1848",
            CodeVersion::Pr1930 => "PR-1930",
            CodeVersion::Pr1993 => "PR-1993",
            CodeVersion::Pr2111 => "PR-2111",
            CodeVersion::FinalFix => "final verified fix (§5.4)",
        }
    }

    /// The behavioural switches of this version.
    pub fn bugs(self) -> BugFlags {
        use CodeVersion::*;
        BugFlags {
            // ZK-4643: the follower updates `currentEpoch` before logging the synced
            // history, so a crash in between leaves a high epoch with a stale log.
            epoch_updated_before_history: !matches!(self, Pr1848 | FinalFix),
            // ZK-4646: the follower acknowledges NEWLEADER before its SyncRequestProcessor
            // has persisted the synced transactions.
            ack_newleader_before_persist: !matches!(self, Pr1993 | Pr2111 | FinalFix),
            // ZK-4685: the leader, while collecting NEWLEADER acknowledgements, rejects an
            // acknowledgement that carries a proposal zxid and shuts down synchronization.
            leader_rejects_early_proposal_ack: !matches!(self, Pr1993 | Pr2111 | FinalFix),
            // ZK-3023: the commit processor asserts that a committed transaction is
            // already in the log; with asynchronous logging during synchronization the
            // assertion can fire.
            commit_requires_logged_txn: !matches!(self, FinalFix),
            // ZK-4394: a COMMIT received after NEWLEADER but before UPTODATE cannot be
            // matched against `packetsNotCommitted` and raises a NullPointerException.
            commit_in_sync_nullpointer: !matches!(self, FinalFix),
            // ZK-4712: on shutdown the follower keeps its SyncRequestProcessor queue, so
            // stale requests can still be logged after it rejoins a new epoch.
            shutdown_keeps_request_queue: matches!(self, V370 | V391),
            // §5.4: the final fix makes logging during synchronization synchronous.
            synchronous_sync_logging: matches!(self, FinalFix),
        }
    }

    /// All versions, in chronological/evaluation order.
    pub fn all() -> &'static [CodeVersion] {
        &[
            CodeVersion::V370,
            CodeVersion::V391,
            CodeVersion::MSpec3Plus,
            CodeVersion::Pr1848,
            CodeVersion::Pr1930,
            CodeVersion::Pr1993,
            CodeVersion::Pr2111,
            CodeVersion::FinalFix,
        ]
    }
}

/// Behavioural switches derived from a [`CodeVersion`] (or set explicitly for ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BugFlags {
    /// ZK-4643 enabling order: epoch before history.
    pub epoch_updated_before_history: bool,
    /// ZK-4646: NEWLEADER acknowledged before the synced transactions are persisted.
    pub ack_newleader_before_persist: bool,
    /// ZK-4685: leader rejects an early proposal acknowledgement during synchronization.
    pub leader_rejects_early_proposal_ack: bool,
    /// ZK-3023: committing a transaction that is not yet logged is an error path.
    pub commit_requires_logged_txn: bool,
    /// ZK-4394: unmatched COMMIT between NEWLEADER and UPTODATE raises an exception.
    pub commit_in_sync_nullpointer: bool,
    /// ZK-4712: the follower's logging queue survives shutdown.
    pub shutdown_keeps_request_queue: bool,
    /// §5.4 final fix: logging during synchronization is synchronous.
    pub synchronous_sync_logging: bool,
}

/// One edge of the bug lineage of Figure 8: a change (optimization or fix) and the bugs
/// it introduced or left open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageEdge {
    /// The change (JIRA issue or optimization) at the origin of the edge.
    pub cause: &'static str,
    /// The bug introduced or enabled by the change.
    pub effect: &'static str,
    /// Whether the effect's fix has been merged (the `*` annotation in Figure 8).
    pub effect_fix_merged: bool,
}

/// The bug lineage of Figure 8: the ZK-2678 data-recovery optimizations and the chain of
/// data-loss / inconsistency bugs they introduced, including fixes that opened new bugs.
pub const BUG_LINEAGE: &[LineageEdge] = &[
    LineageEdge {
        cause: "ZK-2678",
        effect: "ZK-2845",
        effect_fix_merged: true,
    },
    LineageEdge {
        cause: "ZK-2678",
        effect: "ZK-3023",
        effect_fix_merged: false,
    },
    LineageEdge {
        cause: "ZK-2678",
        effect: "ZK-3642",
        effect_fix_merged: true,
    },
    LineageEdge {
        cause: "ZK-2678",
        effect: "ZK-3911",
        effect_fix_merged: true,
    },
    LineageEdge {
        cause: "ZK-2678",
        effect: "ZK-4643",
        effect_fix_merged: false,
    },
    LineageEdge {
        cause: "ZK-2678",
        effect: "ZK-4646",
        effect_fix_merged: false,
    },
    LineageEdge {
        cause: "ZK-3911",
        effect: "ZK-3023",
        effect_fix_merged: false,
    },
    LineageEdge {
        cause: "ZK-3911",
        effect: "ZK-4685",
        effect_fix_merged: false,
    },
    LineageEdge {
        cause: "ZK-2678",
        effect: "ZK-4394",
        effect_fix_merged: false,
    },
    LineageEdge {
        cause: "ZK-2678",
        effect: "ZK-4712",
        effect_fix_merged: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buggy_versions_expose_the_expected_error_paths() {
        let v391 = CodeVersion::V391.bugs();
        assert!(v391.epoch_updated_before_history);
        assert!(v391.ack_newleader_before_persist);
        assert!(v391.leader_rejects_early_proposal_ack);
        assert!(v391.shutdown_keeps_request_queue);
        assert!(!v391.synchronous_sync_logging);
    }

    #[test]
    fn mspec3_plus_only_fixes_zk4712() {
        let base = CodeVersion::V391.bugs();
        let plus = CodeVersion::MSpec3Plus.bugs();
        assert!(!plus.shutdown_keeps_request_queue);
        assert_eq!(
            BugFlags {
                shutdown_keeps_request_queue: true,
                ..plus
            },
            base,
            "mSpec-3+ differs from v3.9.1 only by the ZK-4712 fix"
        );
    }

    #[test]
    fn final_fix_clears_every_flag() {
        let f = CodeVersion::FinalFix.bugs();
        assert!(!f.epoch_updated_before_history);
        assert!(!f.ack_newleader_before_persist);
        assert!(!f.leader_rejects_early_proposal_ack);
        assert!(!f.commit_requires_logged_txn);
        assert!(!f.commit_in_sync_nullpointer);
        assert!(!f.shutdown_keeps_request_queue);
        assert!(f.synchronous_sync_logging);
    }

    #[test]
    fn pull_requests_leave_some_bug_open() {
        // Each PR of Table 6 must still expose at least one error path.
        for pr in [
            CodeVersion::Pr1848,
            CodeVersion::Pr1930,
            CodeVersion::Pr1993,
            CodeVersion::Pr2111,
        ] {
            let b = pr.bugs();
            let any_open = b.epoch_updated_before_history
                || b.ack_newleader_before_persist
                || b.leader_rejects_early_proposal_ack
                || b.commit_requires_logged_txn
                || b.commit_in_sync_nullpointer
                || b.shutdown_keeps_request_queue;
            assert!(any_open, "{pr:?} should still have an open bug");
        }
    }

    #[test]
    fn lineage_mentions_all_modelled_issues() {
        for issue in MODELLED_ISSUES {
            assert!(
                BUG_LINEAGE
                    .iter()
                    .any(|e| e.effect == *issue || e.cause == *issue),
                "{issue} missing from the lineage"
            );
        }
        assert_eq!(CodeVersion::all().len(), 8);
        assert!(CodeVersion::V391.label().contains("3.9.1"));
    }
}

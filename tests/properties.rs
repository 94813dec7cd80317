//! Property-based tests on the core data structures and invariants of the framework.

use multigrained::checker::fingerprint;
use multigrained::zab::{ClusterConfig, CodeVersion, ServerData, Txn, ZabState, Zxid};
use proptest::prelude::*;

fn arb_zxid() -> impl Strategy<Value = Zxid> {
    (0u32..4, 0u32..6).prop_map(|(e, c)| Zxid::new(e, c))
}

fn arb_txn() -> impl Strategy<Value = Txn> {
    (arb_zxid(), 0u32..8).prop_map(|(z, v)| Txn { zxid: z, value: v })
}

fn arb_history() -> impl Strategy<Value = Vec<Txn>> {
    proptest::collection::vec(arb_txn(), 0..6).prop_map(|mut v| {
        v.sort_by_key(|t| t.zxid);
        v.dedup_by_key(|t| t.zxid);
        v
    })
}

proptest! {
    /// Zxid ordering is epoch-major and total.
    #[test]
    fn zxid_order_is_epoch_major(a in arb_zxid(), b in arb_zxid()) {
        if a.epoch != b.epoch {
            prop_assert_eq!(a < b, a.epoch < b.epoch);
        } else {
            prop_assert_eq!(a < b, a.counter < b.counter);
        }
        // Total order: exactly one of <, ==, > holds.  The "neither less" phrasing is
        // the property under test, so keep it literal.
        #[allow(clippy::nonminimal_bool)]
        {
            prop_assert_eq!(a == b, !(a < b) && !(b < a));
        }
    }

    /// Fingerprints are deterministic and respect equality.
    #[test]
    fn fingerprints_are_deterministic(history in arb_history(), epoch in 0u32..5) {
        let mut a = ZabState::initial(&ClusterConfig::small(CodeVersion::V391));
        a.servers[0].history = history.clone();
        a.servers[0].current_epoch = epoch;
        let b = a.clone();
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        let mut c = a.clone();
        c.servers[0].current_epoch = epoch + 1;
        prop_assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    /// The delivered prefix of a server never exceeds its log and is itself a prefix.
    #[test]
    fn delivered_is_a_prefix_of_history(history in arb_history(), committed in 0usize..10) {
        let mut sd = ServerData::initial(0);
        sd.history = history.clone();
        sd.last_committed = committed;
        let delivered = sd.delivered();
        prop_assert!(delivered.len() <= history.len());
        prop_assert_eq!(delivered, &history[..delivered.len()]);
    }

    /// State projection is stable: projecting twice yields the same values, and the
    /// projected variables are exactly those requested (when known).
    #[test]
    fn projection_is_stable(history in arb_history()) {
        let mut s = ZabState::initial(&ClusterConfig::small(CodeVersion::V391));
        s.servers[1].history = history;
        let vars = ["history", "currentEpoch", "lastCommitted"];
        let p1 = s.project(&vars);
        let p2 = s.project(&vars);
        prop_assert_eq!(&p1, &p2);
        prop_assert_eq!(p1.len(), vars.len());
    }

    /// Crashing and restarting preserves exactly the durable state.
    #[test]
    fn crash_restart_preserves_durable_state(history in arb_history(), epoch in 0u32..5) {
        let mut sd = ServerData::initial(1);
        sd.history = history.clone();
        sd.current_epoch = epoch;
        sd.last_committed = history.len();
        sd.queued_requests.push(Txn::new(9, 9, 9));
        sd.crash();
        sd.restart(1);
        prop_assert_eq!(sd.history, history);
        prop_assert_eq!(sd.current_epoch, epoch);
        prop_assert!(sd.queued_requests.is_empty(), "volatile state is lost");
    }
}

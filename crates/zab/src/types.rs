//! Basic Zab / ZooKeeper domain types: zxids, transactions, messages, votes, and the
//! two collections the state is stored in:
//!
//! * [`SidSet`] — the bitmask every set of server ids in the state is stored as (an
//!   inline `u16` where a `BTreeSet<Sid>` cost a heap node per non-empty set per state,
//!   with `BTreeSet<Sid>`'s iteration order, `Ord` and `Hash` stream);
//! * [`VecMap`] — the sorted vector every map in the state is stored as (one exactly
//!   sized buffer of pairs where a one-entry `BTreeMap` leaf cost 192–368 bytes, with
//!   `BTreeMap`'s iteration order, `Eq`, `Ord`, `Hash` stream and `Debug` rendering).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

/// Server identifier (the `sid` / `myid` of a ZooKeeper ensemble member).
pub type Sid = usize;

/// A set of server ids as a bitmask: bit `i` is set when server `i` is a member.
///
/// A drop-in for the `BTreeSet<Sid>` it replaced — same method names, ascending
/// iteration (by value: there is no element to borrow), and, hand-written rather than
/// derived, the same lexicographic [`Ord`] and length-prefixed [`Hash`] stream, so state
/// fingerprints and canonical representatives do not depend on the representation.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct SidSet(u16);

impl SidSet {
    /// The number of distinct sids a set can hold: sids are `0..CAPACITY`.
    pub const CAPACITY: usize = u16::BITS as usize;

    /// The empty set.
    pub const fn new() -> Self {
        SidSet(0)
    }

    /// Adds `sid`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// On a sid the mask cannot hold: a shift that wrapped would put a *different*
    /// server in the set, and a wrong set is a wrong verdict.
    pub fn insert(&mut self, sid: Sid) -> bool {
        assert!(
            sid < Self::CAPACITY,
            "sid {sid} exceeds SidSet::CAPACITY ({})",
            Self::CAPACITY
        );
        let fresh = !self.contains(&sid);
        self.0 |= 1 << sid;
        fresh
    }

    /// Removes `sid`; returns whether it was a member.
    pub fn remove(&mut self, sid: &Sid) -> bool {
        let present = self.contains(sid);
        if present {
            self.0 &= !(1 << *sid);
        }
        present
    }

    /// Returns `true` when `sid` is a member.
    pub fn contains(&self, sid: &Sid) -> bool {
        *sid < Self::CAPACITY && self.0 & (1 << *sid) != 0
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// The members in ascending order.  The iterator owns a copy of the mask, so the
    /// set's owner may be written while it runs.
    pub fn iter(&self) -> impl Iterator<Item = Sid> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let sid = rest.trailing_zeros() as Sid;
                rest &= rest - 1;
                sid
            })
        })
    }
}

impl FromIterator<Sid> for SidSet {
    fn from_iter<I: IntoIterator<Item = Sid>>(iter: I) -> Self {
        let mut set = SidSet::new();
        for sid in iter {
            set.insert(sid);
        }
        set
    }
}

impl PartialOrd for SidSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the ascending members, as `BTreeSet`'s: `{0, 2} < {1}`, although
/// as masks `0b101 > 0b010`.
impl Ord for SidSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

/// The byte stream `BTreeSet<usize>` feeds a hasher: the length, then each member.
impl Hash for SidSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for sid in self.iter() {
            sid.hash(state);
        }
    }
}

/// Renders as the set it is (`{0, 2}`), not as a mask.
impl fmt::Debug for SidSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A map as a vector of `(key, value)` pairs sorted by key, without duplicate keys.
///
/// A drop-in for the `BTreeMap` it replaced, by the [`SidSet`] rule: the same method
/// names, ascending iteration, and the same [`Eq`], lexicographic [`Ord`] over the
/// pairs, length-prefixed [`Hash`] stream and [`Debug`] rendering, so state fingerprints
/// and canonical representatives do not depend on the representation.  The maps of a
/// state hold a few entries each, so a binary search and a shifting insert beat a
/// tree's pointers, and a clone is one exactly sized buffer.
#[derive(Clone, PartialEq, Eq)]
pub struct VecMap<K, V>(Vec<(K, V)>);

impl<K, V> VecMap<K, V> {
    /// The empty map.
    pub const fn new() -> Self {
        VecMap(Vec::new())
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.0.iter().map(|(key, value)| (key, value))
    }

    /// The keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.0.iter().map(|(key, _)| key)
    }

    /// The values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, value)| value)
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Where `key` is (`Ok`) or would be inserted (`Err`).
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.0.binary_search_by(|(probe, _)| probe.cmp(key))
    }

    /// The value of `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|at| &self.0[at].1)
    }

    /// The value of `key`, if any, for writing.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|at| &mut self.0[at].1)
    }

    /// Returns `true` when `key` has a value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Sets the value of `key`; returns the value it replaced, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, value)),
            Err(at) => {
                self.0.insert(at, (key, value));
                None
            }
        }
    }

    /// Removes `key`; returns its value, if it had one.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|at| self.0.remove(at).1)
    }

    /// The place of `key` in the map, for in-place insertion or update.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let at = self.find(&key);
        Entry { map: self, key, at }
    }
}

/// A key's place in a [`VecMap`], from [`VecMap::entry`].
pub struct Entry<'a, K, V> {
    map: &'a mut VecMap<K, V>,
    key: K,
    at: Result<usize, usize>,
}

impl<'a, K, V: Default> Entry<'a, K, V> {
    /// The key's value, inserting `V::default()` first if it has none.
    pub fn or_default(self) -> &'a mut V {
        let at = match self.at {
            Ok(at) => at,
            Err(at) => {
                self.map.0.insert(at, (self.key, V::default()));
                at
            }
        };
        &mut self.map.0[at].1
    }
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap::new()
    }
}

/// Later pairs win over earlier ones with the same key, as `BTreeMap`'s.
impl<K: Ord, V> FromIterator<(K, V)> for VecMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut map = VecMap(Vec::with_capacity(iter.size_hint().0));
        for (key, value) in iter {
            map.insert(key, value);
        }
        map
    }
}

/// # Panics
///
/// When `key` has no value, as `BTreeMap`'s.
impl<K: Ord, V> Index<&K> for VecMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: Ord, V: Ord> PartialOrd for VecMap<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the ascending `(key, value)` pairs, as `BTreeMap`'s.
impl<K: Ord, V: Ord> Ord for VecMap<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

/// The byte stream `BTreeMap` feeds a hasher: the length, then each key and its value.
impl<K: Hash, V: Hash> Hash for VecMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for (key, value) in &self.0 {
            key.hash(state);
            value.hash(state);
        }
    }
}

/// Renders as the map it is (`{0: a, 2: b}`), as `BTreeMap` does.
impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A ZooKeeper transaction identifier: an (epoch, counter) pair, totally ordered
/// epoch-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Zxid {
    /// The epoch in which the transaction was proposed.
    pub epoch: u32,
    /// The per-epoch counter.
    pub counter: u32,
}

impl Zxid {
    /// Creates a zxid.
    pub const fn new(epoch: u32, counter: u32) -> Self {
        Zxid { epoch, counter }
    }

    /// The zero zxid `<<0, 0>>` used for empty histories.
    pub const ZERO: Zxid = Zxid {
        epoch: 0,
        counter: 0,
    };
}

impl fmt::Display for Zxid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<<{}, {}>>", self.epoch, self.counter)
    }
}

/// A transaction: a zxid plus an opaque payload value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Txn {
    /// The transaction identifier.
    pub zxid: Zxid,
    /// The payload (a small integer standing in for the znode update).
    pub value: u32,
}

impl Txn {
    /// Creates a transaction.
    pub const fn new(epoch: u32, counter: u32, value: u32) -> Self {
        Txn {
            zxid: Zxid::new(epoch, counter),
            value,
        }
    }
}

impl fmt::Display for Txn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[zxid |-> {}, value |-> {}]", self.zxid, self.value)
    }
}

/// The coarse server state (`state` variable of the TLA+ specifications).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServerState {
    /// Running leader election.
    Looking,
    /// Following an elected leader.
    Following,
    /// Leading.
    Leading,
    /// Crashed.
    Down,
}

/// The Zab phase a server is in (`zabState` variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ZabPhase {
    /// Phase 0: leader election.
    Election,
    /// Phase 1: discovery.
    Discovery,
    /// Phase 2: synchronization.
    Synchronization,
    /// Phase 3: broadcast.
    Broadcast,
}

/// How a follower's log is brought up to date during synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyncMode {
    /// Send the proposals the follower misses.
    Diff,
    /// Ask the follower to truncate its log to the leader's last zxid.
    Trunc,
    /// Send a full snapshot of the leader's history.
    Snap,
}

/// A vote exchanged during fast leader election.
///
/// Votes are compared by `(epoch, zxid, leader)` — exactly the ordering ZooKeeper's
/// `FastLeaderElection.totalOrderPredicate` uses, which is what makes a node with a
/// higher `currentEpoch` but stale history win an election (the mechanism behind
/// ZK-4643).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vote {
    /// The voter's current epoch (peer epoch).
    pub epoch: u32,
    /// The last zxid in the voter's log.
    pub zxid: Zxid,
    /// The proposed leader.
    pub leader: Sid,
}

/// Messages exchanged between servers.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Message {
    /// Fast-leader-election notification carrying the sender's vote.
    Notification {
        /// The sender's current vote.
        vote: Vote,
    },
    /// Follower → leader: start of discovery.
    FollowerInfo {
        /// The follower's accepted epoch.
        accepted_epoch: u32,
        /// The follower's last logged zxid.
        last_zxid: Zxid,
    },
    /// Leader → follower: the newly proposed epoch.
    LeaderInfo {
        /// The new epoch.
        epoch: u32,
    },
    /// Follower → leader: acknowledgement of the proposed epoch.
    AckEpoch {
        /// The follower's current epoch.
        current_epoch: u32,
        /// The follower's last logged zxid.
        last_zxid: Zxid,
    },
    /// Leader → follower: the synchronization payload (DIFF / TRUNC / SNAP and the
    /// accompanying proposals/commits), sent just before `NewLeader`.
    SyncPackets {
        /// The synchronization mode.
        mode: SyncMode,
        /// Proposals the follower must log (DIFF) or the full history (SNAP).
        txns: Vec<Txn>,
        /// Zxid up to which the payload is already committed on the leader.
        committed_upto: Zxid,
        /// For TRUNC: the zxid the follower must truncate to.
        trunc_to: Zxid,
    },
    /// Leader → follower: end of the synchronization payload.
    NewLeader {
        /// The new epoch.
        epoch: u32,
        /// The leader's last zxid (the "NEWLEADER zxid" acknowledged by followers).
        zxid: Zxid,
    },
    /// Leader → follower: the follower may start serving clients.
    UpToDate {
        /// The leader's last zxid (used in the follower's acknowledgement).
        zxid: Zxid,
    },
    /// Acknowledgement (of NEWLEADER, UPTODATE or of an individual proposal).
    Ack {
        /// The acknowledged zxid.
        zxid: Zxid,
    },
    /// Leader → follower: a broadcast proposal.
    Proposal {
        /// The proposed transaction.
        txn: Txn,
    },
    /// Leader → follower: commit of a proposal.
    Commit {
        /// The committed zxid.
        zxid: Zxid,
    },
}

impl Message {
    /// A short tag used in labels and conformance mappings.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Notification { .. } => "NOTIFICATION",
            Message::FollowerInfo { .. } => "FOLLOWERINFO",
            Message::LeaderInfo { .. } => "LEADERINFO",
            Message::AckEpoch { .. } => "ACKEPOCH",
            Message::SyncPackets { .. } => "SYNCPACKETS",
            Message::NewLeader { .. } => "NEWLEADER",
            Message::UpToDate { .. } => "UPTODATE",
            Message::Ack { .. } => "ACK",
            Message::Proposal { .. } => "PROPOSAL",
            Message::Commit { .. } => "COMMIT",
        }
    }
}

/// The code-level invariant families of Table 2 (I-11..I-14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// I-11: exceptions or failed assertions on server state upon receiving a message.
    BadState,
    /// I-12: exceptions or failed assertions on ACK content processed by the leader.
    BadAck,
    /// I-13: exceptions or failed assertions on PROPOSAL content processed by a follower.
    BadProposal,
    /// I-14: exceptions or failed assertions while handling COMMIT / committing.
    BadCommit,
}

impl ViolationKind {
    /// The invariant identifier of Table 2 this violation kind belongs to.
    pub fn invariant_id(self) -> &'static str {
        match self {
            ViolationKind::BadState => "I-11",
            ViolationKind::BadAck => "I-12",
            ViolationKind::BadProposal => "I-13",
            ViolationKind::BadCommit => "I-14",
        }
    }
}

/// A code-level error path reached by the execution (an exception or failed assertion in
/// the ZooKeeper implementation).  Recording it in the state lets the code-level
/// invariants of Table 2 flag the execution.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CodeViolation {
    /// The invariant family.
    pub kind: ViolationKind,
    /// The instance within the family (e.g. I-11 has four instances).
    pub instance: u8,
    /// The server on which the error path was reached.
    pub server: Sid,
    /// The related ZooKeeper issue, when the error path corresponds to a known bug.
    pub issue: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sid_sets_order_lexicographically_not_by_mask() {
        let (a, b) = (SidSet::from_iter([0, 2]), SidSet::from_iter([1]));
        assert!(
            a < b,
            "{{0, 2}} < {{1}} as BTreeSets, although 0b101 > 0b010"
        );
        assert!(SidSet::new() < a);
        assert!(SidSet::from_iter([0]) < a, "a strict prefix sorts first");
        assert_eq!(format!("{a:?}"), "{0, 2}");
    }

    #[test]
    #[should_panic(expected = "exceeds SidSet::CAPACITY")]
    fn a_sid_past_the_capacity_is_refused_not_wrapped() {
        SidSet::new().insert(SidSet::CAPACITY);
    }

    #[test]
    fn zxid_ordering_is_epoch_major() {
        assert!(Zxid::new(2, 0) > Zxid::new(1, 9));
        assert!(Zxid::new(1, 3) > Zxid::new(1, 2));
        assert_eq!(Zxid::ZERO, Zxid::new(0, 0));
        assert_eq!(Zxid::new(1, 2).to_string(), "<<1, 2>>");
    }

    #[test]
    fn vote_ordering_prefers_epoch_then_zxid_then_sid() {
        let stale_high_epoch = Vote {
            epoch: 3,
            zxid: Zxid::new(1, 1),
            leader: 0,
        };
        let fresh_low_epoch = Vote {
            epoch: 2,
            zxid: Zxid::new(2, 5),
            leader: 2,
        };
        assert!(
            stale_high_epoch > fresh_low_epoch,
            "higher currentEpoch wins (ZK-4643 mechanism)"
        );
        let a = Vote {
            epoch: 2,
            zxid: Zxid::new(2, 1),
            leader: 1,
        };
        let b = Vote {
            epoch: 2,
            zxid: Zxid::new(2, 1),
            leader: 2,
        };
        assert!(b > a, "sid breaks ties");
    }

    #[test]
    fn message_kinds() {
        assert_eq!(Message::UpToDate { zxid: Zxid::ZERO }.kind(), "UPTODATE");
        assert_eq!(Message::Ack { zxid: Zxid::ZERO }.kind(), "ACK");
        assert_eq!(
            Message::Notification {
                vote: Vote {
                    epoch: 0,
                    zxid: Zxid::ZERO,
                    leader: 0
                }
            }
            .kind(),
            "NOTIFICATION"
        );
    }

    #[test]
    fn violation_kind_maps_to_invariants() {
        assert_eq!(ViolationKind::BadState.invariant_id(), "I-11");
        assert_eq!(ViolationKind::BadAck.invariant_id(), "I-12");
        assert_eq!(ViolationKind::BadProposal.invariant_id(), "I-13");
        assert_eq!(ViolationKind::BadCommit.invariant_id(), "I-14");
    }

    #[test]
    fn txn_display() {
        assert_eq!(
            Txn::new(1, 2, 7).to_string(),
            "[zxid |-> <<1, 2>>, value |-> 7]"
        );
    }
}

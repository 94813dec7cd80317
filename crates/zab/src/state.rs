//! The global state of the ZooKeeper system specification and its helpers.
//!
//! The state mirrors the variables of the paper's TLA+ system specification: per-server
//! variables (`state`, `zabState`, `acceptedEpoch`, `currentEpoch`, `history`,
//! `lastCommitted`, `packetsSync`, `queuedRequests`, ...), the network (`msgs`), fault
//! budgets, and a small set of *ghost* variables (established epochs and their initial
//! histories, the global broadcast order) used only by the protocol-level invariants of
//! Table 2.
//!
//! # Structural sharing
//!
//! An action rewrites one server and at most one channel row, so [`ZabState`] holds its
//! large components — each server, each sender's row of channels, the ghost state —
//! behind [`Shared`]: cloning a state bumps reference counts, and a successor shares
//! with its parent everything its action did not write.  `Shared` derefs to the value,
//! so reads (`state.servers[i].history.len()`, `state.msgs[i][j].first()`) are written
//! as before and never copy; **any `&mut` copies a component that is still shared**,
//! even when the write changes nothing, so writes that may be no-ops are guarded
//! ([`ZabState::clear_channels`]).  `Shared`'s `Eq`/`Ord`/`Hash`/`Debug` are the value's,
//! sets of sids are [`SidSet`] bitmasks with `BTreeSet<Sid>`'s `Ord` and `Hash`, and
//! maps follow the same rule as [`VecMap`]s, sorted vectors of pairs with `BTreeMap`'s
//! `Eq`, `Ord`, `Hash` and `Debug`, so the layout is invisible to fingerprints,
//! canonical forms and traces.
//!
//! # Two hashes
//!
//! `Hash for ZabState` (derived) is the **value hash**: `fingerprint(&state)` feeds every
//! byte of every component, is pinned by `tests/state_diet.rs`, and is what the samplers
//! key coverage on.  [`SpecState::hash_key`] is the **store identity**: the same inline
//! scalars, but each shared component as the 128-bit digest its allocation memoizes
//! ([`Shared::digest`]), so keying a successor hashes the one or two components its
//! action wrote and seven digests instead of the whole state.  Both are functions of
//! the value alone.  The checker computes `state_key` only where it reads it — a
//! fingerprint-only store's routing and dedup, BFS's tie-break among same-depth
//! violations, refinement's representatives — so on a Full store's duplicate edges no
//! digest is computed: the pool finds each written component by a cheap table hash of
//! the same `Hash` stream and confirms it by `==` (see `remix_spec::shared`).
//!
//! # The stored row
//!
//! [`SpecState::intern`] hands every component to the store's pool, which keeps one
//! allocation per distinct server, channel row and ghost state of a run, and writes the
//! state down as the `2n + 2` words the Full store keeps of it: the pool slots of its
//! `2n + 1` components and one scalar word.  The scalar word holds the three budgets
//! inline (4 + 4 + 7 bits, below 2^15) while `partitioned` is empty, the violation
//! `None` and the budgets fit — nearly always — and otherwise 2^15 plus the slot of a
//! pooled copy of all five scalars.  A run's pool holds a few thousand slots, so every
//! word fits the 16-bit units the store keeps rows in.
//! [`SpecState::from_row`] reads the row back — `2n + 1` reference-count bumps into the
//! same allocations — and `tests/state_diet.rs` round-trips every state of its spaces.
//! A new field of [`ZabState`] fails to compile in `hash_key` and `intern` (both
//! destructure `Self`) and in `from_row` (a struct literal) until it has a word.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use remix_spec::{InternPool, Shared, SpecState, Value};

use crate::config::ClusterConfig;
use crate::types::{
    CodeViolation, Message, ServerState, Sid, SidSet, Txn, VecMap, Vote, ZabPhase, Zxid,
};

/// Per-server state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerData {
    // ---- Durable state (survives crashes) -------------------------------------------
    /// `currentEpoch`: the epoch the server has committed to (written to disk).
    pub current_epoch: u32,
    /// `acceptedEpoch`: the epoch proposed by the last LEADERINFO the server accepted.
    pub accepted_epoch: u32,
    /// `history`: the durable transaction log.
    pub history: Vec<Txn>,
    /// `lastCommitted`: number of committed (delivered) transactions — a prefix of
    /// `history`.
    pub last_committed: usize,

    // ---- Volatile state --------------------------------------------------------------
    /// `state`: LOOKING / FOLLOWING / LEADING / DOWN.
    pub state: ServerState,
    /// `zabState`: ELECTION / DISCOVERY / SYNCHRONIZATION / BROADCAST.
    pub phase: ZabPhase,
    /// The leader this server follows (itself when leading).
    pub leader: Option<Sid>,

    // Fast leader election.
    /// `currentVote`: the server's current vote.
    pub vote: Vote,
    /// Whether the current vote has been broadcast to peers.
    pub vote_broadcast: bool,
    /// Votes received from peers in the current election round.
    pub recv_votes: VecMap<Sid, Vote>,

    // Leader-side bookkeeping.
    /// `learners`: followers connected to this leader (FOLLOWERINFO received).
    pub learners: SidSet,
    /// Last zxid reported by each learner (from ACKEPOCH), used to pick the sync mode.
    pub learner_last_zxid: VecMap<Sid, Zxid>,
    /// Whether the leader has proposed its new epoch (sent LEADERINFO).
    pub epoch_proposed: bool,
    /// Followers that acknowledged the proposed epoch (ACKEPOCH received).
    pub epoch_acks: SidSet,
    /// Followers to which the synchronization payload and NEWLEADER have been sent.
    pub sync_sent: SidSet,
    /// Followers that acknowledged NEWLEADER.
    pub newleader_acks: SidSet,
    /// Whether this leader has established its epoch (quorum of NEWLEADER acks).
    pub established: bool,
    /// Outstanding broadcast proposals and the servers that acknowledged them.
    pub pending_acks: VecMap<Zxid, SidSet>,

    // Follower-side synchronization bookkeeping.
    /// Whether the follower has sent FOLLOWERINFO to its leader.
    pub connected: bool,
    /// `packetsSync.notCommitted`: proposals received during sync and not yet logged.
    pub packets_not_committed: Vec<Txn>,
    /// `packetsSync.committed`: zxids committed during sync, to be delivered at UPTODATE.
    pub packets_committed: Vec<Zxid>,

    // Follower-side threads (fine-grained concurrency).
    /// `queuedRequests`: the SyncRequestProcessor input queue (volatile).
    pub queued_requests: Vec<Txn>,
    /// `committedRequests`: the CommitProcessor input queue (volatile).
    pub pending_commits: Vec<Zxid>,
    /// Whether the server is serving client requests (after UPTODATE / establishment).
    pub serving: bool,
}

impl ServerData {
    /// A freshly booted server with empty durable state.
    pub fn initial(sid: Sid) -> Self {
        ServerData {
            current_epoch: 0,
            accepted_epoch: 0,
            history: Vec::new(),
            last_committed: 0,
            state: ServerState::Looking,
            phase: ZabPhase::Election,
            leader: None,
            vote: Vote {
                epoch: 0,
                zxid: Zxid::ZERO,
                leader: sid,
            },
            vote_broadcast: false,
            recv_votes: VecMap::new(),
            learners: SidSet::new(),
            learner_last_zxid: VecMap::new(),
            epoch_proposed: false,
            epoch_acks: SidSet::new(),
            sync_sent: SidSet::new(),
            newleader_acks: SidSet::new(),
            established: false,
            pending_acks: VecMap::new(),
            connected: false,
            packets_not_committed: Vec::new(),
            packets_committed: Vec::new(),
            queued_requests: Vec::new(),
            pending_commits: Vec::new(),
            serving: false,
        }
    }

    /// The last zxid in the durable log (`<<0, 0>>` for an empty log).
    pub fn last_zxid(&self) -> Zxid {
        self.history.last().map(|t| t.zxid).unwrap_or(Zxid::ZERO)
    }

    /// The delivered (committed) prefix of the log.
    pub fn delivered(&self) -> &[Txn] {
        &self.history[..self.last_committed.min(self.history.len())]
    }

    /// Returns `true` if the server is up (not crashed).
    pub fn is_up(&self) -> bool {
        self.state != ServerState::Down
    }

    /// Resets the volatile state kept while following or leading (used when a server
    /// goes back to leader election).  Durable state is preserved.  The
    /// SyncRequestProcessor queue is cleared only when `clear_request_queue` is set —
    /// keeping it across a shutdown is the ZK-4712 error path.
    pub fn shutdown_to_looking(&mut self, sid: Sid, clear_request_queue: bool) {
        self.state = ServerState::Looking;
        self.phase = ZabPhase::Election;
        self.leader = None;
        self.vote = Vote {
            epoch: self.current_epoch,
            zxid: self.last_zxid(),
            leader: sid,
        };
        self.vote_broadcast = false;
        self.recv_votes.clear();
        self.learners.clear();
        self.learner_last_zxid.clear();
        self.epoch_proposed = false;
        self.epoch_acks.clear();
        self.sync_sent.clear();
        self.newleader_acks.clear();
        self.established = false;
        self.pending_acks.clear();
        self.connected = false;
        self.packets_not_committed.clear();
        self.packets_committed.clear();
        self.pending_commits.clear();
        self.serving = false;
        if clear_request_queue {
            self.queued_requests.clear();
        }
    }

    /// Crashes the server: volatile state is lost, durable state is preserved.
    pub fn crash(&mut self) {
        // `ServerData` does not know its own sid: the reset vote keeps naming the stale
        // vote's leader while the server is down, until `restart` re-votes for the
        // server itself.
        let sid = self.vote.leader;
        self.shutdown_to_looking(sid, true);
        self.state = ServerState::Down;
    }

    /// Restarts a crashed server into leader election.
    pub fn restart(&mut self, sid: Sid) {
        debug_assert_eq!(self.state, ServerState::Down);
        // Recover the committed prefix from the durable log (ZooKeeper replays the log on
        // startup; the committed index cannot exceed the log length).
        self.last_committed = self.last_committed.min(self.history.len());
        self.shutdown_to_looking(sid, true);
        self.state = ServerState::Looking;
    }
}

/// Ghost variables used only by the protocol-level invariants.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GhostState {
    /// Leader that established each epoch (quorum of NEWLEADER acknowledgements).
    pub established_leaders: VecMap<u32, Sid>,
    /// Set when a second, different leader establishes an already-established epoch
    /// (flags invariant I-1).
    pub duplicate_establishment: bool,
    /// The initial history of each established epoch (the leader's history at
    /// establishment time), as required by invariants I-8 and I-9.
    pub initial_history: VecMap<u32, Vec<Txn>>,
    /// Every transaction broadcast by an established primary, in broadcast order.
    pub broadcast: Vec<Txn>,
}

/// The global state of the ZooKeeper system specification.
///
/// States are totally ordered (`Ord`) so symmetry reduction can pick the minimal
/// member of a permutation orbit as its canonical representative (see
/// [`crate::symmetry`]); the ordering itself carries no protocol meaning.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZabState {
    /// Per-server state, indexed by sid.
    pub servers: Vec<Shared<ServerData>>,
    /// FIFO channels: `msgs[from][to]` is the queue of in-flight messages (one shared
    /// row per sender).
    pub msgs: Vec<Shared<Vec<Vec<Message>>>>,
    /// Pairs of servers currently partitioned from each other (normalized `(min, max)`).
    pub partitioned: BTreeSet<(Sid, Sid)>,
    /// Remaining crash budget.
    pub crashes_remaining: u32,
    /// Remaining partition budget.
    pub partitions_remaining: u32,
    /// Number of client transactions created so far (bounded by the configuration).
    pub txns_created: u32,
    /// Ghost variables for the protocol-level invariants.
    pub ghost: Shared<GhostState>,
    /// The first code-level error path reached by this execution, if any.
    pub violation: Option<CodeViolation>,
}

impl ZabState {
    /// The initial state for a configuration: every server freshly booted and looking.
    ///
    /// # Panics
    ///
    /// When the ensemble is larger than [`SidSet::CAPACITY`], the widest set of servers
    /// the state can represent.
    pub fn initial(config: &ClusterConfig) -> Self {
        let n = config.num_servers;
        assert!(
            n <= SidSet::CAPACITY,
            "{n} servers exceed the {} a SidSet can hold",
            SidSet::CAPACITY
        );
        ZabState {
            servers: (0..n).map(|i| ServerData::initial(i).into()).collect(),
            msgs: vec![vec![Vec::new(); n].into(); n],
            partitioned: BTreeSet::new(),
            crashes_remaining: config.max_crashes,
            partitions_remaining: config.max_partitions,
            txns_created: 0,
            ghost: Shared::default(),
            violation: None,
        }
    }

    /// Number of servers.
    pub fn n(&self) -> usize {
        self.servers.len()
    }

    /// Quorum size (strict majority).
    pub fn quorum_size(&self) -> usize {
        self.n() / 2 + 1
    }

    /// Returns `true` if the given set of servers is a quorum.
    pub fn is_quorum(&self, set: &SidSet) -> bool {
        set.len() >= self.quorum_size()
    }

    /// Returns `true` if servers `a` and `b` can currently exchange messages (both up and
    /// not partitioned from each other).
    pub fn reachable(&self, a: Sid, b: Sid) -> bool {
        if a == b {
            return true;
        }
        let key = (a.min(b), a.max(b));
        self.servers[a].is_up() && self.servers[b].is_up() && !self.partitioned.contains(&key)
    }

    /// Sends a message from `from` to `to`.  Messages to unreachable peers are dropped
    /// (the connection is broken), mirroring the official system specification.
    pub fn send(&mut self, from: Sid, to: Sid, msg: Message) {
        if from != to && self.reachable(from, to) {
            self.msgs[from][to].push(msg);
        }
    }

    /// The message at the head of the channel `from → to`, if any.
    pub fn head(&self, from: Sid, to: Sid) -> Option<&Message> {
        self.msgs[from][to].first()
    }

    /// Pops the message at the head of the channel `from → to`.
    pub fn pop(&mut self, from: Sid, to: Sid) -> Option<Message> {
        if self.msgs[from][to].is_empty() {
            None
        } else {
            Some(self.msgs[from][to].remove(0))
        }
    }

    /// Empties the channel `from → to`.  An already-empty queue is left alone: a
    /// `&mut` into a shared row copies the row even when the write changes nothing.
    fn clear_channel(&mut self, from: Sid, to: Sid) {
        if !self.msgs[from][to].is_empty() {
            self.msgs[from][to].clear();
        }
    }

    /// Clears every channel to and from server `i` (used when `i` crashes or when a
    /// partition forms: TCP connections break and in-flight messages are lost).
    pub fn clear_channels(&mut self, i: Sid) {
        for j in 0..self.n() {
            self.clear_channel(i, j);
            self.clear_channel(j, i);
        }
    }

    /// Clears the channels between a specific pair of servers.
    pub fn clear_pair_channels(&mut self, a: Sid, b: Sid) {
        self.clear_channel(a, b);
        self.clear_channel(b, a);
    }

    /// Records a code-level error path (only the first one is kept).
    pub fn record_violation(&mut self, violation: CodeViolation) {
        if self.violation.is_none() {
            self.violation = Some(violation);
        }
    }

    /// Records the establishment of an epoch by a leader (ghost bookkeeping for I-1/I-8).
    pub fn record_establishment(&mut self, epoch: u32, leader: Sid, initial_history: Vec<Txn>) {
        match self.ghost.established_leaders.get(&epoch) {
            Some(existing) if *existing != leader => {
                self.ghost.duplicate_establishment = true;
            }
            Some(_) => {}
            None => {
                self.ghost.established_leaders.insert(epoch, leader);
                self.ghost.initial_history.insert(epoch, initial_history);
            }
        }
    }

    /// All sids.
    pub fn sids(&self) -> impl Iterator<Item = Sid> {
        0..self.n()
    }

    /// The highest accepted epoch across all servers (used when proposing a new epoch).
    pub fn max_accepted_epoch(&self) -> u32 {
        self.servers
            .iter()
            .map(|s| s.accepted_epoch.max(s.current_epoch))
            .max()
            .unwrap_or(0)
    }
}

impl ZabState {
    /// Projects the named variables of this state into a uniform value representation:
    /// the model side of conformance checking (§3.4), compared variable by variable
    /// with `remix-zk-sim`'s `Observation`.  It answers exactly the variables
    /// conformance compares (`Observation::comparable_variables`); any other name is
    /// omitted from the result.
    pub fn project(&self, requested: &[&str]) -> BTreeMap<String, Value> {
        let mut out = BTreeMap::new();
        let per_server = |f: &dyn Fn(&ServerData) -> Value| -> Value {
            Value::Seq(self.servers.iter().map(|s| f(s)).collect())
        };
        for var in requested {
            let value = match *var {
                "acceptedEpoch" => Some(per_server(&|s| Value::from(s.accepted_epoch))),
                "currentEpoch" => Some(per_server(&|s| Value::from(s.current_epoch))),
                "history" => Some(per_server(&|s| {
                    Value::Seq(
                        s.history
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
                "lastCommitted" => Some(per_server(&|s| Value::from(s.last_committed))),
                "violation" => Some(Value::Bool(self.violation.is_some())),
                _ => None,
            };
            if let Some(v) = value {
                out.insert((*var).to_owned(), v);
            }
        }
        out
    }
}

impl SpecState for ZabState {
    /// The inline fields as `Hash` feeds them, each shared component as its memoized
    /// digest.  `Self` is destructured so that a new field cannot be left out.
    fn hash_key<H: Hasher>(&self, hasher: &mut H) {
        let ZabState {
            servers,
            msgs,
            partitioned,
            crashes_remaining,
            partitions_remaining,
            txns_created,
            ghost,
            violation,
        } = self;
        hasher.write_usize(servers.len());
        for server in servers {
            server.digest().hash(hasher);
        }
        hasher.write_usize(msgs.len());
        for row in msgs {
            row.digest().hash(hasher);
        }
        partitioned.hash(hasher);
        crashes_remaining.hash(hasher);
        partitions_remaining.hash(hasher);
        txns_created.hash(hasher);
        ghost.digest().hash(hasher);
        violation.hash(hasher);
    }

    /// `2n + 2` words: the slots of the `n` servers, the `n` channel rows and the ghost
    /// state, then one scalar word.  While `partitioned` is empty, the violation `None`
    /// and the budgets fit (nearly always), that word holds the budgets inline, low
    /// bits first: 4 bits of `crashes_remaining`, 4 of `partitions_remaining`, 7 of
    /// `txns_created`.  Otherwise it is 2^15 plus the slot of a pooled copy of all five
    /// scalars, since neither a set of pairs nor a `&'static str` is a word.  Either
    /// way the word is a function of the value, and no two values share it.
    fn intern(&mut self, pool: &mut InternPool, row: Option<&mut Vec<u32>>) {
        let ZabState {
            servers,
            msgs,
            partitioned,
            crashes_remaining,
            partitions_remaining,
            txns_created,
            ghost,
            violation,
        } = self;
        let Some(row) = row else {
            for server in servers {
                server.intern(pool);
            }
            for channels in msgs {
                channels.intern(pool);
            }
            ghost.intern(pool);
            return;
        };
        row.extend(servers.iter_mut().map(|s| s.intern(pool)));
        row.extend(msgs.iter_mut().map(|r| r.intern(pool)));
        row.push(ghost.intern(pool));
        let budgets = [*crashes_remaining, *partitions_remaining, *txns_created];
        let inline = partitioned.is_empty()
            && violation.is_none()
            && budgets
                .iter()
                .zip(BUDGET_BITS)
                .all(|(&b, bits)| b < 1 << bits);
        row.push(if inline {
            let fields = budgets.iter().zip(BUDGET_BITS).rev();
            fields.fold(0, |word, (&budget, bits)| word << bits | budget)
        } else {
            let scalars = (partitioned.clone(), violation.clone(), budgets);
            Shared::new(scalars)
                .intern(pool)
                .checked_add(POOLED_SCALARS)
                .expect("a run's pool holds fewer than 2^32 - 2^15 allocations")
        });
    }

    /// Reads back the `2n + 2` words [`ZabState::intern`](SpecState::intern) wrote:
    /// `2n + 1` reference-count bumps, then the budgets read out of the scalar word, or
    /// a clone of the pooled scalars when it names a slot.
    fn from_row(row: &[u32], pool: &InternPool) -> Self {
        let n = (row.len() - 2) / 2;
        let (servers, rest) = row.split_at(n);
        let (msgs, rest) = rest.split_at(n);
        let &[ghost, scalars] = rest else {
            panic!("a ZabState row is 2n + 2 words, not {}", row.len());
        };
        let (partitioned, violation, budgets) = match scalars.checked_sub(POOLED_SCALARS) {
            Some(slot) => (*pool.get::<Scalars>(slot)).clone(),
            None => {
                let mut word = scalars;
                let budgets = BUDGET_BITS.map(|bits| {
                    let budget = word & ((1 << bits) - 1);
                    word >>= bits;
                    budget
                });
                (BTreeSet::new(), None, budgets)
            }
        };
        let [crashes_remaining, partitions_remaining, txns_created] = budgets;
        ZabState {
            servers: servers.iter().map(|&slot| pool.get(slot)).collect(),
            msgs: msgs.iter().map(|&slot| pool.get(slot)).collect(),
            partitioned,
            crashes_remaining,
            partitions_remaining,
            txns_created,
            ghost: pool.get(ghost),
            violation,
        }
    }
}

/// The scalar fields of a [`ZabState`], pooled together when they do not fit one word
/// of the stored row inline: `partitioned`, `violation`, and the budgets
/// (`crashes_remaining`, `partitions_remaining`, `txns_created`).
type Scalars = (BTreeSet<(Sid, Sid)>, Option<CodeViolation>, [u32; 3]);

/// Bits of `crashes_remaining`, `partitions_remaining` and `txns_created`, low bits
/// first, when a [`ZabState`]'s row holds its budgets inline: 15 in all.
const BUDGET_BITS: [u32; 3] = [4, 4, 7];

/// The first scalar word that names a pool slot (of pooled [`Scalars`]) rather than
/// holding the budgets inline: every inline word is below it.
const POOLED_SCALARS: u32 = 1 << (BUDGET_BITS[0] + BUDGET_BITS[1] + BUDGET_BITS[2]);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::versions::CodeVersion;

    fn state() -> ZabState {
        ZabState::initial(&ClusterConfig::small(CodeVersion::V391))
    }

    #[test]
    fn initial_state_shape() {
        let s = state();
        assert_eq!(s.n(), 3);
        assert_eq!(s.quorum_size(), 2);
        assert_eq!(s.crashes_remaining, 1);
        assert!(s.violation.is_none());
        assert!(s.servers.iter().all(|sv| sv.state == ServerState::Looking));
        assert!(s.servers.iter().all(|sv| sv.history.is_empty()));
    }

    #[test]
    #[should_panic(expected = "exceed the 16 a SidSet can hold")]
    fn an_ensemble_wider_than_a_sid_set_is_refused() {
        ZabState::initial(&ClusterConfig {
            num_servers: SidSet::CAPACITY + 1,
            ..ClusterConfig::small(CodeVersion::V391)
        });
    }

    #[test]
    fn send_and_receive_are_fifo() {
        let mut s = state();
        s.send(0, 1, Message::UpToDate { zxid: Zxid::ZERO });
        s.send(
            0,
            1,
            Message::Commit {
                zxid: Zxid::new(1, 1),
            },
        );
        assert_eq!(s.head(0, 1).unwrap().kind(), "UPTODATE");
        assert_eq!(s.pop(0, 1).unwrap().kind(), "UPTODATE");
        assert_eq!(s.pop(0, 1).unwrap().kind(), "COMMIT");
        assert!(s.pop(0, 1).is_none());
    }

    #[test]
    fn messages_to_unreachable_peers_are_dropped() {
        let mut s = state();
        s.servers[1].state = ServerState::Down;
        s.send(0, 1, Message::UpToDate { zxid: Zxid::ZERO });
        assert!(s.head(0, 1).is_none());

        let mut s = state();
        s.partitioned.insert((0, 2));
        assert!(!s.reachable(0, 2));
        assert!(s.reachable(0, 1));
        s.send(2, 0, Message::UpToDate { zxid: Zxid::ZERO });
        assert!(s.head(2, 0).is_none());
    }

    #[test]
    fn crash_preserves_durable_state_and_clears_volatile() {
        let mut s = state();
        s.servers[0].history.push(Txn::new(1, 1, 7));
        s.servers[0].last_committed = 1;
        s.servers[0].current_epoch = 3;
        s.servers[0].queued_requests.push(Txn::new(1, 2, 8));
        s.servers[0].serving = true;
        s.servers[0].crash();
        assert_eq!(s.servers[0].state, ServerState::Down);
        assert_eq!(s.servers[0].history.len(), 1);
        assert_eq!(s.servers[0].current_epoch, 3);
        assert!(s.servers[0].queued_requests.is_empty());
        assert!(!s.servers[0].serving);
        s.servers[0].restart(0);
        assert_eq!(s.servers[0].state, ServerState::Looking);
        assert_eq!(s.servers[0].vote.epoch, 3);
        assert_eq!(s.servers[0].vote.zxid, Zxid::new(1, 1));
    }

    #[test]
    fn shutdown_can_keep_request_queue_for_zk4712() {
        let mut sd = ServerData::initial(1);
        sd.queued_requests.push(Txn::new(1, 1, 1));
        sd.shutdown_to_looking(1, false);
        assert_eq!(
            sd.queued_requests.len(),
            1,
            "buggy shutdown keeps the queue"
        );
        sd.shutdown_to_looking(1, true);
        assert!(sd.queued_requests.is_empty());
    }

    #[test]
    fn establishment_ghost_detects_duplicates() {
        let mut s = state();
        s.record_establishment(1, 0, vec![]);
        s.record_establishment(1, 0, vec![]);
        assert!(!s.ghost.duplicate_establishment);
        s.record_establishment(1, 2, vec![]);
        assert!(s.ghost.duplicate_establishment);
    }

    #[test]
    fn projection_covers_registered_variables() {
        let s = state();
        // The five variables conformance compares all project; other names are omitted.
        let compared = [
            "currentEpoch",
            "acceptedEpoch",
            "history",
            "lastCommitted",
            "violation",
        ];
        let p = s.project(&[&compared[..], &["state", "msgs", "nonexistent"]].concat());
        assert!(compared.iter().all(|v| p.contains_key(*v)), "{p:?}");
        assert_eq!(p.len(), compared.len(), "{p:?}");
        assert_eq!(p["violation"], Value::Bool(false));
    }

    /// Writes `s` down as a row of `pool` and reads it back.
    fn round_trip(s: &ZabState, pool: &mut InternPool) -> (Vec<u32>, ZabState) {
        let mut row = Vec::new();
        s.clone().intern(pool, Some(&mut row));
        let rebuilt = ZabState::from_row(&row, pool);
        (row, rebuilt)
    }

    #[test]
    fn the_scalar_word_is_inline_exactly_while_the_scalars_fit() {
        let mut pool = InternPool::new();
        let plain = state();
        let (row, rebuilt) = round_trip(&plain, &mut pool);
        assert_eq!(row.len(), 2 * plain.n() + 2);
        assert_eq!(
            row[2 * plain.n() + 1],
            1,
            "one crash left, crashes in the low bits"
        );
        assert_eq!(rebuilt, plain);

        let with = |change: fn(&mut ZabState)| {
            let mut s = state();
            change(&mut s);
            s
        };
        let cases = [
            ("15 crashes", with(|s| s.crashes_remaining = 15), true),
            ("16 crashes", with(|s| s.crashes_remaining = 16), false),
            ("15 partitions", with(|s| s.partitions_remaining = 15), true),
            (
                "16 partitions",
                with(|s| s.partitions_remaining = 16),
                false,
            ),
            ("127 txns", with(|s| s.txns_created = 127), true),
            ("128 txns", with(|s| s.txns_created = 128), false),
            (
                "a partition",
                with(|s| s.partitioned.extend([(0, 2)])),
                false,
            ),
            (
                "a violation",
                with(|s| {
                    s.record_violation(CodeViolation {
                        kind: crate::types::ViolationKind::BadAck,
                        instance: 1,
                        server: 2,
                        issue: "ZK-4685",
                    })
                }),
                false,
            ),
        ];
        let mut pooled = BTreeSet::new();
        for (case, s, inline) in cases {
            let (row, rebuilt) = round_trip(&s, &mut pool);
            assert_eq!(row.len(), 2 * s.n() + 2, "{case}");
            let word = row[2 * s.n() + 1];
            assert_eq!(word < POOLED_SCALARS, inline, "{case}: word {word}");
            assert!(inline || pooled.insert(word), "{case}: a word of its own");
            assert_eq!(rebuilt, s, "{case}");
        }
        assert_eq!(
            round_trip(&plain, &mut pool).0,
            row,
            "the same value, the same row"
        );
    }

    #[test]
    fn budgets_of_any_size_round_trip() {
        let mut s = state();
        [s.crashes_remaining, s.partitions_remaining, s.txns_created] = [u32::MAX; 3];
        let mut pool = InternPool::new();
        let (row, rebuilt) = round_trip(&s, &mut pool);
        assert!(row[2 * s.n() + 1] >= POOLED_SCALARS);
        assert_eq!(rebuilt, s);
        assert_eq!(round_trip(&s, &mut pool).0, row, "pooled once");
    }

    #[test]
    fn delivered_is_committed_prefix() {
        let mut sd = ServerData::initial(0);
        sd.history = vec![Txn::new(1, 1, 1), Txn::new(1, 2, 2)];
        sd.last_committed = 1;
        assert_eq!(sd.delivered(), &[Txn::new(1, 1, 1)]);
        assert_eq!(sd.last_zxid(), Zxid::new(1, 2));
    }
}

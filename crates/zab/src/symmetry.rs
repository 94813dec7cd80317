//! Symmetry reduction for the ZooKeeper system state: `ZabState` is symmetric under
//! permutation of server ids.
//!
//! Every reachable [`ZabState`] has up to `n!` siblings that differ only by a renaming
//! of `Sid`s: the per-server array is re-indexed and every `Sid`-bearing field —
//! network channels, received votes, learner bookkeeping, acknowledgement sets,
//! pending-proposal acks, leader and vote fields, partitions, ghost establishment
//! records and code-violation attributions — is rewritten consistently.  The model
//! checker pays for each sibling separately unless it dedups on a canonical
//! representative per orbit; this module provides that representative via
//! [`Canonicalize`].
//!
//! # How the representative is chosen
//!
//! 1. Servers are compared by a **permutation-invariant order** (`cmp_servers`): their
//!    durable and volatile scalars, their history, self-relative renderings of the
//!    `Sid`-valued fields (`leader` is "none / other / myself", the vote is "for
//!    myself or not"), invariant multiset summaries of their maps, and — only when all
//!    of that ties — their message / partition degrees.  Renaming ids never changes
//!    how two servers compare.  The comparison reads the state in place: multisets are
//!    sorted into stack arrays, and nothing is allocated.
//! 2. Servers are sorted in that order.  When no two compare equal this pins the
//!    *only* permutation that can map the state onto a sorted sibling, and the rewrite
//!    under that permutation is the canonical form.  A state whose servers are already
//!    strictly sorted (most successors of a canonical parent) is its own canonical
//!    form after `n - 1` comparisons.
//! 3. Servers that **compare equal** may still differ through cross-references (who
//!    follows whom, queue contents), so all orderings within each tie group are
//!    enumerated — the candidate set is exactly the orbit members whose servers are
//!    sorted — and the [`Ord`]-minimal rewritten state wins.  The candidate set,
//!    and hence the minimum, depends only on the orbit, which gives exact orbit
//!    invariance: `canon(π(s)) == canon(s)` for every permutation `π`.
//!
//! Tie groups are tiny in practice (they require byte-identical per-server summaries,
//! as in the fully symmetric initial state); the enumeration is capped at
//! [`MAX_TIE_CANDIDATES`] rewrites, far above anything a 3–5 server model can produce
//! (`5! = 120`).  When a larger ensemble exceeds the cap, the tie groups are first
//! *refined* with an orbit-invariant relational coloring (iterated signatures over the
//! pairwise relations: channel lengths, partitions, leader/learner/ack edges), and if
//! classes still exceed the cap, by individualization-refinement — distinguishing one
//! member of the first non-singleton class per branch and re-refining, which resolves
//! vertex-transitive structures (rings) that pure refinement cannot split.  Both stages
//! depend only on orbit-invariant data, so the candidate set — and hence the chosen
//! minimum — is identical for every member of an orbit.  Only if even the branch
//! enumeration overflows the cap does the code fall back to a non-invariant prefix; the
//! fallback is counted process-globally (`remix_spec::canon_stats`), surfaced as
//! `CheckStats::canon_fallbacks`, and trips a debug assertion.
//!
//! # Soundness
//!
//! Keying exploration on canonical forms is exact when the next-state relation is
//! *equivariant* (`t ∈ succ(s)` iff `π(t) ∈ succ(π(s))`).  The Zab action library is
//! equivariant in all structure except fast leader election's numeric sid tie-break
//! (`Vote` ordering compares `leader` ids last), which renaming does not commute
//! with; the checker therefore treats symmetry reduction as an opt-in mode, and the
//! acceptance tests verify verdict equality against `SymmetryMode::Off` empirically
//! — see the symmetry section of `ARCHITECTURE.md` for the full argument.

use std::borrow::Cow;
use std::cmp::Ordering;

use remix_spec::{canon_stats, Canonicalize, Perm, Shared};

use crate::state::{GhostState, ServerData, ZabState};
use crate::types::{Message, Sid, SidSet, Vote, Zxid};

/// Upper bound on the number of tie-break candidates `ZabState::canonicalize`
/// enumerates directly, and on the orderings the individualization-refinement stage may
/// branch into before the counted fallback.  `720 = 6!` covers a fully symmetric
/// six-server ensemble exactly; larger tie groups go through relational refinement
/// first (see the module docs).
pub const MAX_TIE_CANDIDATES: usize = 720;

/// A server's `leader` field, rendered relative to the server itself (invariant under
/// id renaming, unlike the raw `Sid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LeaderRel {
    None,
    Other,
    Myself,
}

fn leader_rel(s: &ServerData, i: Sid) -> LeaderRel {
    match s.leader {
        None => LeaderRel::None,
        Some(l) if l == i => LeaderRel::Myself,
        Some(_) => LeaderRel::Other,
    }
}

/// The permutation-invariant order of servers `a` and `b` of `state`: renaming ids
/// never changes how two servers compare, and the order discriminates aggressively
/// enough that ties only remain between servers with identical summaries.
///
/// It is the derived `Ord` of the test-only `ServerKey` — the same fields in the same
/// order — computed without building a key: scalars are compared in place, multisets
/// are sorted into stack arrays, and the relational fields are read only when the
/// server-local parts tie (they are last in the order).
fn cmp_servers(state: &ZabState, a: Sid, b: Sid) -> Ordering {
    cmp_local(&state.servers[a], a, &state.servers[b], b).then_with(|| cmp_relational(state, a, b))
}

/// Server `x` (id `a`) against server `y` (id `b`) on what each holds itself.
fn cmp_local(x: &ServerData, a: Sid, y: &ServerData, b: Sid) -> Ordering {
    x.current_epoch
        .cmp(&y.current_epoch)
        .then_with(|| x.accepted_epoch.cmp(&y.accepted_epoch))
        .then_with(|| x.state.cmp(&y.state))
        .then_with(|| x.phase.cmp(&y.phase))
        .then_with(|| x.history.cmp(&y.history))
        .then_with(|| x.last_committed.cmp(&y.last_committed))
        .then_with(|| leader_rel(x, a).cmp(&leader_rel(y, b)))
        .then_with(|| x.vote.epoch.cmp(&y.vote.epoch))
        .then_with(|| x.vote.zxid.cmp(&y.vote.zxid))
        .then_with(|| (x.vote.leader == a).cmp(&(y.vote.leader == b)))
        .then_with(|| x.vote_broadcast.cmp(&y.vote_broadcast))
        .then_with(|| cmp_multisets(recv_votes(x, a), recv_votes(y, b)))
        .then_with(|| {
            let from_self = |s: &ServerData, i: Sid| s.recv_votes.contains_key(&i);
            from_self(x, a).cmp(&from_self(y, b))
        })
        .then_with(|| x.learners.len().cmp(&y.learners.len()))
        .then_with(|| {
            cmp_multisets(
                x.learner_last_zxid.values().copied(),
                y.learner_last_zxid.values().copied(),
            )
        })
        .then_with(|| x.epoch_proposed.cmp(&y.epoch_proposed))
        .then_with(|| x.epoch_acks.len().cmp(&y.epoch_acks.len()))
        .then_with(|| x.sync_sent.len().cmp(&y.sync_sent.len()))
        .then_with(|| x.newleader_acks.len().cmp(&y.newleader_acks.len()))
        .then_with(|| x.established.cmp(&y.established))
        .then_with(|| pending_acks(x, a).cmp(pending_acks(y, b)))
        .then_with(|| x.connected.cmp(&y.connected))
        .then_with(|| x.packets_not_committed.cmp(&y.packets_not_committed))
        .then_with(|| x.packets_committed.cmp(&y.packets_committed))
        .then_with(|| x.queued_requests.cmp(&y.queued_requests))
        .then_with(|| x.pending_commits.cmp(&y.pending_commits))
        .then_with(|| x.serving.cmp(&y.serving))
}

/// Server `s`'s (id `i`) received votes as `(epoch, zxid, vote is for s)`, in sid order.
fn recv_votes(s: &ServerData, i: Sid) -> impl Iterator<Item = (u32, Zxid, bool)> + '_ {
    s.recv_votes
        .values()
        .map(move |v| (v.epoch, v.zxid, v.leader == i))
}

/// Server `s`'s (id `i`) outstanding proposals as `(zxid, acks, acked by s)`.
fn pending_acks(s: &ServerData, i: Sid) -> impl Iterator<Item = (Zxid, usize, bool)> + '_ {
    s.pending_acks
        .iter()
        .map(move |(z, acks)| (*z, acks.len(), acks.contains(&i)))
}

/// Servers `a` and `b` on how the rest of the state relates to them.
fn cmp_relational(state: &ZabState, a: Sid, b: Sid) -> Ordering {
    let out_lens = move |i: Sid| state.msgs[i].iter().map(Vec::len);
    let in_lens = move |i: Sid| state.msgs.iter().map(move |row| row[i].len());
    let partitions = |i: Sid| {
        state
            .partitioned
            .iter()
            .filter(|(p, q)| *p == i || *q == i)
            .count()
    };
    let violating = |i: Sid| state.violation.as_ref().is_some_and(|v| v.server == i);
    let epochs = |i: Sid| {
        state
            .ghost
            .established_leaders
            .values()
            .filter(|l| **l == i)
            .count()
    };
    cmp_multisets(out_lens(a), out_lens(b))
        .then_with(|| cmp_multisets(in_lens(a), in_lens(b)))
        .then_with(|| partitions(a).cmp(&partitions(b)))
        .then_with(|| violating(a).cmp(&violating(b)))
        .then_with(|| epochs(a).cmp(&epochs(b)))
}

/// Two multisets of at most [`SidSet::CAPACITY`] items (one per server) compared as
/// their sorted sequences, each sorted in a stack array.
fn cmp_multisets<T: Ord + Copy + Default>(
    x: impl Iterator<Item = T>,
    y: impl Iterator<Item = T>,
) -> Ordering {
    fn sorted<T: Ord + Copy>(
        items: impl Iterator<Item = T>,
        buf: &mut [T; SidSet::CAPACITY],
    ) -> &[T] {
        let mut len = 0;
        for item in items {
            buf[len] = item;
            len += 1;
        }
        let items = &mut buf[..len];
        items.sort_unstable();
        items
    }
    let mut bufs = [[T::default(); SidSet::CAPACITY]; 2];
    let [bx, by] = &mut bufs;
    sorted(x, bx).cmp(sorted(y, by))
}

/// The order [`cmp_servers`] computes, spelled out as a key whose derived `Ord` is the
/// oracle the comparator is tested against: two servers related by an id renaming
/// always produce equal keys.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ServerKey {
    current_epoch: u32,
    accepted_epoch: u32,
    state: crate::types::ServerState,
    phase: crate::types::ZabPhase,
    history: Vec<crate::types::Txn>,
    last_committed: usize,
    leader: LeaderRel,
    vote_epoch: u32,
    vote_zxid: Zxid,
    vote_for_self: bool,
    vote_broadcast: bool,
    /// Invariant summary of `recv_votes`: the sorted multiset of
    /// `(epoch, zxid, vote is for this server)` plus whether the server holds a vote
    /// from itself.
    recv_votes: Vec<(u32, Zxid, bool)>,
    recv_vote_from_self: bool,
    learners: usize,
    /// Sorted multiset of the last zxids reported by learners (keys are `Sid`s, so
    /// only the value multiset is invariant).
    learner_last_zxids: Vec<Zxid>,
    epoch_proposed: bool,
    epoch_acks: usize,
    sync_sent: usize,
    newleader_acks: usize,
    established: bool,
    /// Per outstanding proposal: the zxid and how many acks it holds (and whether the
    /// server acked its own proposal).
    pending_acks: Vec<(Zxid, usize, bool)>,
    connected: bool,
    packets_not_committed: Vec<crate::types::Txn>,
    packets_committed: Vec<Zxid>,
    queued_requests: Vec<crate::types::Txn>,
    pending_commits: Vec<Zxid>,
    serving: bool,
    /// Message degrees: total queued messages inbound and outbound (per-channel
    /// lengths sorted, so the key sees the shape, not the peer ids).
    out_channel_lens: Vec<usize>,
    in_channel_lens: Vec<usize>,
    /// Number of partition pairs this server is part of.
    partition_degree: usize,
    /// Whether the recorded code violation (if any) happened on this server.
    violating: bool,
    /// Number of epochs this server established (ghost).
    established_epochs: usize,
}

#[cfg(test)]
fn server_key(state: &ZabState, i: Sid) -> ServerKey {
    let s = &state.servers[i];
    let mut recv_votes: Vec<(u32, Zxid, bool)> = s
        .recv_votes
        .values()
        .map(|v| (v.epoch, v.zxid, v.leader == i))
        .collect();
    recv_votes.sort();
    let mut learner_last_zxids: Vec<Zxid> = s.learner_last_zxid.values().copied().collect();
    learner_last_zxids.sort();
    let pending_acks: Vec<(Zxid, usize, bool)> = s
        .pending_acks
        .iter()
        .map(|(z, acks)| (*z, acks.len(), acks.contains(&i)))
        .collect();
    let mut out_channel_lens: Vec<usize> = state.msgs[i].iter().map(Vec::len).collect();
    out_channel_lens.sort_unstable();
    let mut in_channel_lens: Vec<usize> = state.msgs.iter().map(|row| row[i].len()).collect();
    in_channel_lens.sort_unstable();
    ServerKey {
        current_epoch: s.current_epoch,
        accepted_epoch: s.accepted_epoch,
        state: s.state,
        phase: s.phase,
        history: s.history.clone(),
        last_committed: s.last_committed,
        leader: match s.leader {
            None => LeaderRel::None,
            Some(l) if l == i => LeaderRel::Myself,
            Some(_) => LeaderRel::Other,
        },
        vote_epoch: s.vote.epoch,
        vote_zxid: s.vote.zxid,
        vote_for_self: s.vote.leader == i,
        vote_broadcast: s.vote_broadcast,
        recv_votes,
        recv_vote_from_self: s.recv_votes.contains_key(&i),
        learners: s.learners.len(),
        learner_last_zxids,
        epoch_proposed: s.epoch_proposed,
        epoch_acks: s.epoch_acks.len(),
        sync_sent: s.sync_sent.len(),
        newleader_acks: s.newleader_acks.len(),
        established: s.established,
        pending_acks,
        connected: s.connected,
        packets_not_committed: s.packets_not_committed.clone(),
        packets_committed: s.packets_committed.clone(),
        queued_requests: s.queued_requests.clone(),
        pending_commits: s.pending_commits.clone(),
        serving: s.serving,
        out_channel_lens,
        in_channel_lens,
        partition_degree: state
            .partitioned
            .iter()
            .filter(|(a, b)| *a == i || *b == i)
            .count(),
        violating: state.violation.as_ref().is_some_and(|v| v.server == i),
        established_epochs: state
            .ghost
            .established_leaders
            .values()
            .filter(|l| **l == i)
            .count(),
    }
}

fn permute_sid(perm: &Perm, sid: Sid) -> Sid {
    perm.apply(sid)
}

fn permute_sids(perm: &Perm, sids: SidSet) -> SidSet {
    sids.iter().map(|sid| permute_sid(perm, sid)).collect()
}

fn permute_vote(perm: &Perm, vote: &Vote) -> Vote {
    Vote {
        epoch: vote.epoch,
        zxid: vote.zxid,
        leader: permute_sid(perm, vote.leader),
    }
}

fn permute_message(perm: &Perm, msg: &Message) -> Message {
    match msg {
        Message::Notification { vote } => Message::Notification {
            vote: permute_vote(perm, vote),
        },
        // No other message carries a Sid.
        other => other.clone(),
    }
}

fn permute_server(perm: &Perm, s: &ServerData) -> ServerData {
    // Fully explicit construction: `..s.clone()` would clone every Sid-bearing
    // collection only to immediately overwrite and drop it, and permute_server runs
    // once per generated successor on the canonicalizing hot path.
    ServerData {
        current_epoch: s.current_epoch,
        accepted_epoch: s.accepted_epoch,
        history: s.history.clone(),
        last_committed: s.last_committed,
        state: s.state,
        phase: s.phase,
        leader: s.leader.map(|l| permute_sid(perm, l)),
        vote: permute_vote(perm, &s.vote),
        vote_broadcast: s.vote_broadcast,
        recv_votes: s
            .recv_votes
            .iter()
            .map(|(sid, v)| (permute_sid(perm, *sid), permute_vote(perm, v)))
            .collect(),
        learners: permute_sids(perm, s.learners),
        learner_last_zxid: s
            .learner_last_zxid
            .iter()
            .map(|(sid, z)| (permute_sid(perm, *sid), *z))
            .collect(),
        epoch_proposed: s.epoch_proposed,
        epoch_acks: permute_sids(perm, s.epoch_acks),
        sync_sent: permute_sids(perm, s.sync_sent),
        newleader_acks: permute_sids(perm, s.newleader_acks),
        established: s.established,
        pending_acks: s
            .pending_acks
            .iter()
            .map(|(z, acks)| (*z, permute_sids(perm, *acks)))
            .collect(),
        connected: s.connected,
        packets_not_committed: s.packets_not_committed.clone(),
        packets_committed: s.packets_committed.clone(),
        queued_requests: s.queued_requests.clone(),
        pending_commits: s.pending_commits.clone(),
        serving: s.serving,
    }
}

fn permute_ghost(perm: &Perm, g: &GhostState) -> GhostState {
    GhostState {
        established_leaders: g
            .established_leaders
            .iter()
            .map(|(e, l)| (*e, permute_sid(perm, *l)))
            .collect(),
        duplicate_establishment: g.duplicate_establishment,
        initial_history: g.initial_history.clone(),
        broadcast: g.broadcast.clone(),
    }
}

/// Wraps a rewritten component, handing back the source's allocation when the renaming
/// left it alone — a permuted state shares those components with its source.
fn share_unchanged<T: Eq>(old: &Shared<T>, new: T) -> Shared<T> {
    if **old == new {
        old.clone()
    } else {
        new.into()
    }
}

/// `order[new_pos] = old index  ⇒  π(old) = new_pos`.
fn perm_of_order(order: &[usize]) -> Perm {
    let mut image = [0u32; Perm::MAX_LEN];
    for (new_pos, old) in order.iter().enumerate() {
        image[*old] = new_pos as u32;
    }
    Perm::from_image(&image[..order.len()])
}

/// Minimizes the rewritten state over every ordering that differs from `order` only by
/// rearranging servers within a tie group.  `None` when the state as it stands is the
/// minimum: the identity ordering is a candidate exactly when `order` is the identity
/// (both sorts are stable), it is enumerated first — so it wins the comparisons it
/// ties — and it is never materialized.
fn minimize_over_groups(
    state: &ZabState,
    order: &mut [usize],
    groups: &[(usize, usize)],
) -> Option<(ZabState, Perm)> {
    let is_identity = |order: &[usize]| order.iter().enumerate().all(|(pos, old)| pos == *old);
    let identity_is_candidate = is_identity(order);
    let mut best: Option<(ZabState, Perm)> = None;
    permute_groups(order, groups, 0, &mut |candidate| {
        if is_identity(candidate) {
            return;
        }
        let perm = perm_of_order(candidate);
        let rewritten = state.permute(&perm);
        let beats = match &best {
            Some((b, _)) => rewritten < *b,
            None => !identity_is_candidate || rewritten < *state,
        };
        if beats {
            best = Some((rewritten, perm));
        }
    });
    best
}

/// Packed orbit-invariant descriptor of the directed relation from server `i` to
/// server `j`: channel length plus the cross-reference edges (partition, leader, vote,
/// learner and acknowledgement sets).  Renaming ids maps `rel(s, i, j)` to
/// `rel(π(s), π(i), π(j))` unchanged, which is what makes the refinement coloring
/// equivariant.
fn rel(state: &ZabState, i: Sid, j: Sid) -> u64 {
    let s = &state.servers[i];
    let mut r = state.msgs[i][j].len().min(255) as u64;
    if state.partitioned.contains(&(i.min(j), i.max(j))) {
        r |= 1 << 8;
    }
    if s.leader == Some(j) {
        r |= 1 << 9;
    }
    if s.recv_votes.contains_key(&j) {
        r |= 1 << 10;
    }
    if s.vote.leader == j {
        r |= 1 << 11;
    }
    if s.learners.contains(&j) {
        r |= 1 << 12;
    }
    if s.epoch_acks.contains(&j) {
        r |= 1 << 13;
    }
    if s.sync_sent.contains(&j) {
        r |= 1 << 14;
    }
    if s.newleader_acks.contains(&j) {
        r |= 1 << 15;
    }
    if s.learner_last_zxid.contains_key(&j) {
        r |= 1 << 16;
    }
    if s.pending_acks.values().any(|acks| acks.contains(&j)) {
        r |= 1 << 17;
    }
    r
}

/// Iterated equitable refinement of a server coloring: each round replaces a server's
/// color with the rank of `(old color, sorted multiset of (color(j), rel(i,j), rel(j,i)))`
/// among the distinct signatures, until a fixed point.  Because the old color leads the
/// signature, refinement only ever *splits* classes and keeps their relative order, so
/// a coloring that starts from key-group ranks stays consistent with the key sort.
fn refine_colors(state: &ZabState, colors: &mut Vec<usize>) {
    let n = colors.len();
    // (own color, sorted multiset of (neighbour color, rel out, rel in)).
    type Signature = (usize, Vec<(usize, u64, u64)>);
    loop {
        let sigs: Vec<Signature> = (0..n)
            .map(|i| {
                let mut row: Vec<(usize, u64, u64)> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| (colors[j], rel(state, i, j), rel(state, j, i)))
                    .collect();
                row.sort_unstable();
                (colors[i], row)
            })
            .collect();
        let mut distinct = sigs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let new: Vec<usize> = sigs
            .iter()
            .map(|s| distinct.binary_search(s).expect("own signature is present"))
            .collect();
        if new == *colors {
            return;
        }
        *colors = new;
    }
}

/// Splits server `m` out of its color class, placing it *first* within the class so the
/// individualized coloring still refines the original class order.
fn individualize(colors: &mut [usize], m: usize) {
    let cm = colors[m];
    for (i, c) in colors.iter_mut().enumerate() {
        if *c > cm || (*c == cm && i != m) {
            *c += 1;
        }
    }
}

/// Individualization-refinement: refines `colors` to a fixed point, and while any class
/// is non-singleton, branches over its members (individualize one, recurse).  Every
/// discrete coloring contributes one candidate ordering.  Returns `false` when the
/// branch count exceeds [`MAX_TIE_CANDIDATES`] (the collected prefix is then *not*
/// orbit-invariant).
fn ir_orderings(state: &ZabState, mut colors: Vec<usize>, out: &mut Vec<Vec<usize>>) -> bool {
    refine_colors(state, &mut colors);
    let n = colors.len();
    let mut counts = vec![0usize; n];
    for &c in &colors {
        counts[c] += 1;
    }
    match (0..n).find(|&c| counts[c] >= 2) {
        None => {
            if out.len() >= MAX_TIE_CANDIDATES {
                return false;
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| colors[i]);
            out.push(order);
            true
        }
        Some(class) => (0..n).filter(|&i| colors[i] == class).all(|m| {
            let mut branch = colors.clone();
            individualize(&mut branch, m);
            ir_orderings(state, branch, out)
        }),
    }
}

/// The maximal runs of `order` whose servers `tied` deems equal, as `(start, len)` into
/// `order`, and how many orderings differ from `order` only within a run.
fn tie_groups(
    order: &[usize],
    tied: impl Fn(usize, usize) -> bool,
) -> (Vec<(usize, usize)>, usize) {
    let n = order.len();
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for i in 1..=n {
        if i == n || !tied(order[i], order[start]) {
            groups.push((start, i - start));
            start = i;
        }
    }
    let candidates = groups
        .iter()
        .map(|(_, len)| (1..=*len).product::<usize>())
        .product();
    (groups, candidates)
}

/// Resolves a tie structure too large to enumerate directly: refine with the relational
/// coloring, re-enumerate if the refined classes are small enough, otherwise run
/// individualization-refinement.  Only the residual overflow of the IR branch count
/// falls back to a non-invariant choice — counted and debug-asserted.
fn canonicalize_refined(
    state: &ZabState,
    order: &[usize],
    groups: &[(usize, usize)],
) -> (ZabState, Perm) {
    let n = order.len();
    // Initial colors: the key-group rank of each server.
    let mut colors = vec![0usize; n];
    for (gidx, &(start, len)) in groups.iter().enumerate() {
        for pos in start..start + len {
            colors[order[pos]] = gidx;
        }
    }
    refine_colors(state, &mut colors);

    let mut order2: Vec<usize> = (0..n).collect();
    order2.sort_by_key(|&i| colors[i]);
    let (groups2, candidates) = tie_groups(&order2, |a, b| colors[a] == colors[b]);
    if candidates <= MAX_TIE_CANDIDATES {
        return minimize_over_groups(state, &mut order2, &groups2)
            .unwrap_or_else(|| (state.clone(), Perm::identity(n)));
    }

    let mut orderings: Vec<Vec<usize>> = Vec::new();
    let complete = ir_orderings(state, colors, &mut orderings);
    if !complete {
        // The prefix explored so far is minimized anyway (deterministic, but two orbit
        // members may now disagree on their representative — a dedup miss, never
        // unsoundness).  Count it so `CheckStats::canon_fallbacks` surfaces the loss.
        canon_stats::note_tie_cap_fallback();
        debug_assert!(
            false,
            "canonicalization tie group overflowed {MAX_TIE_CANDIDATES} candidates even \
             after individualization-refinement ({n} servers)"
        );
    }
    if orderings.is_empty() {
        orderings.push(order2);
    }
    let mut best: Option<(ZabState, Perm)> = None;
    for ord in &orderings {
        let perm = perm_of_order(ord);
        let rewritten = state.permute(&perm);
        if best.as_ref().is_none_or(|(b, _)| rewritten < *b) {
            best = Some((rewritten, perm));
        }
    }
    best.expect("at least one candidate ordering exists")
}

/// The canonicalization pipeline, for a borrowed or an owned state.
///
/// When the canonicalizing permutation is the identity an owned `state` is returned as
/// it stands (a borrowed one is cloned) — no deep [`ZabState::permute`] rewrite.  Two
/// cases hit that path: the servers are already strictly sorted (the only candidate
/// is the identity; `n - 1` comparisons and no allocation decide it), and they are
/// weakly sorted with ties none of whose rearrangements beats the state.
fn canonicalize_cow(state: Cow<'_, ZabState>) -> (ZabState, Perm) {
    let n = state.servers.len();
    let cmp = |a: usize, b: usize| cmp_servers(&state, a, b);
    if (1..n).all(|i| cmp(i - 1, i).is_lt()) {
        return (state.into_owned(), Perm::identity(n));
    }
    // 1. Sort the server indices (stable, so equal servers keep their relative order
    //    and the candidate set is deterministic).
    let mut order = [0usize; Perm::MAX_LEN];
    let order = &mut order[..n];
    for (pos, slot) in order.iter_mut().enumerate() {
        *slot = pos;
    }
    order.sort_by(|&a, &b| cmp(a, b));

    // 2. Group ties.
    let (groups, candidates) = tie_groups(order, |a, b| cmp(a, b).is_eq());

    let rewritten = if candidates <= MAX_TIE_CANDIDATES {
        // 3. Minimize over the tie-break candidates: every ordering that differs from
        //    `order` only by rearranging servers within a tie group (a strict order
        //    pins the only one).
        minimize_over_groups(&state, order, &groups)
    } else {
        // 4. Too many candidates: refine the ties relationally before enumerating.
        Some(canonicalize_refined(&state, order, &groups))
    };
    rewritten.unwrap_or_else(|| (state.into_owned(), Perm::identity(n)))
}

impl Canonicalize for ZabState {
    fn canonicalize(&self) -> (Self, Perm) {
        canonicalize_cow(Cow::Borrowed(self))
    }

    fn canonicalize_owned(self) -> (Self, Perm) {
        canonicalize_cow(Cow::Owned(self))
    }

    fn permute(&self, perm: &Perm) -> Self {
        let n = self.servers.len();
        debug_assert_eq!(perm.len(), n, "permutation domain must match the ensemble");
        // Place each rewritten server and channel row directly at its destination slot
        // (cloning the whole array first would throw those clones away immediately).
        let inv = perm.inverse();
        let servers = (0..n)
            .map(|new_pos| {
                let old = &self.servers[inv.apply(new_pos)];
                share_unchanged(old, permute_server(perm, old))
            })
            .collect();
        let msgs = (0..n)
            .map(|new_from| {
                let old = &self.msgs[inv.apply(new_from)];
                let row = (0..n)
                    .map(|new_to| {
                        let queue = &old[inv.apply(new_to)];
                        queue.iter().map(|m| permute_message(perm, m)).collect()
                    })
                    .collect();
                share_unchanged(old, row)
            })
            .collect();
        ZabState {
            servers,
            msgs,
            partitioned: self
                .partitioned
                .iter()
                .map(|(a, b)| {
                    let (pa, pb) = (permute_sid(perm, *a), permute_sid(perm, *b));
                    (pa.min(pb), pa.max(pb))
                })
                .collect(),
            crashes_remaining: self.crashes_remaining,
            partitions_remaining: self.partitions_remaining,
            txns_created: self.txns_created,
            ghost: share_unchanged(&self.ghost, permute_ghost(perm, &self.ghost)),
            violation: self
                .violation
                .as_ref()
                .map(|v| crate::types::CodeViolation {
                    server: permute_sid(perm, v.server),
                    ..v.clone()
                }),
        }
    }
}

/// Calls `f` with every ordering obtained by permuting `order` within each tie group
/// (the cartesian product of per-group permutations), via recursive Heap-style swaps.
fn permute_groups(
    order: &mut [usize],
    groups: &[(usize, usize)],
    group: usize,
    f: &mut impl FnMut(&[usize]),
) {
    let Some(&(start, len)) = groups.get(group) else {
        f(order);
        return;
    };
    fn inner(
        order: &mut [usize],
        groups: &[(usize, usize)],
        group: usize,
        start: usize,
        k: usize,
        len: usize,
        f: &mut impl FnMut(&[usize]),
    ) {
        if k == len {
            permute_groups(order, groups, group + 1, f);
            return;
        }
        for i in k..len {
            order.swap(start + k, start + i);
            inner(order, groups, group, start, k + 1, len, f);
            order.swap(start + k, start + i);
        }
    }
    inner(order, groups, group, start, 0, len, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::types::{ServerState, Txn};
    use crate::versions::CodeVersion;

    fn state() -> ZabState {
        ZabState::initial(&ClusterConfig::small(CodeVersion::V391))
    }

    #[test]
    fn initial_state_is_its_own_canonical_form() {
        // All servers of the initial state are related by renaming, so the state is
        // fully symmetric: its orbit is a singleton and canonicalization fixes it.
        let s = state();
        let (c, _) = s.canonicalize();
        assert_eq!(c, s);
    }

    #[test]
    fn consistency_law_holds() {
        let mut s = state();
        s.servers[2].current_epoch = 3;
        s.servers[2].history.push(Txn::new(3, 1, 9));
        s.send(2, 0, Message::LeaderInfo { epoch: 3 });
        let (c, p) = s.canonicalize();
        assert_eq!(s.permute(&p), c, "canon == permute(self, π)");
    }

    #[test]
    fn renamed_states_share_one_canonical_form() {
        let mut s = state();
        s.servers[0].state = ServerState::Down;
        s.servers[1].current_epoch = 2;
        s.servers[1].leader = Some(1);
        s.servers[1].learners.insert(2);
        s.servers[2].leader = Some(1);
        s.send(1, 2, Message::UpToDate { zxid: Zxid::ZERO });
        let rot = Perm::from_image(vec![1, 2, 0]);
        let renamed = s.permute(&rot);
        assert_ne!(s, renamed, "the rotation moves visible structure");
        assert_eq!(s.canonicalize().0, renamed.canonicalize().0);
    }

    #[test]
    fn permute_rewrites_every_sid_bearing_field() {
        let mut s = state();
        s.servers[0].leader = Some(2);
        s.servers[0].recv_votes.insert(
            2,
            Vote {
                epoch: 1,
                zxid: Zxid::ZERO,
                leader: 2,
            },
        );
        s.servers[2].learner_last_zxid.insert(0, Zxid::new(1, 1));
        s.servers[2]
            .pending_acks
            .entry(Zxid::new(1, 1))
            .or_default()
            .insert(0);
        s.partitioned.insert((0, 2));
        s.ghost.established_leaders.insert(1, 2);
        s.violation = Some(crate::types::CodeViolation {
            kind: crate::types::ViolationKind::BadAck,
            instance: 1,
            server: 2,
            issue: "TEST",
        });
        let swap02 = Perm::from_image(vec![2, 1, 0]);
        let t = s.permute(&swap02);
        assert_eq!(t.servers[2].leader, Some(0));
        assert_eq!(t.servers[2].recv_votes[&0].leader, 0);
        assert_eq!(t.servers[0].learner_last_zxid[&2], Zxid::new(1, 1));
        assert!(t.servers[0].pending_acks[&Zxid::new(1, 1)].contains(&2));
        assert!(t.partitioned.contains(&(0, 2)), "pair stays normalized");
        assert_eq!(t.ghost.established_leaders[&1], 0);
        assert_eq!(t.violation.as_ref().unwrap().server, 0);
        // Round-trip through the inverse restores the original.
        assert_eq!(t.permute(&swap02.inverse()), s);
    }

    /// Regression for the old tie-cap fallback: a tie group larger than
    /// `MAX_TIE_CANDIDATES` used to silently take the *first* key-sorted ordering,
    /// which is not orbit-invariant — two renamings of one state could land on
    /// different "canonical" forms.  An eight-server directed message ring is the
    /// worst case: all eight keys are equal (candidates `8! = 40320`), and the ring is
    /// vertex-transitive, so plain relational refinement cannot split it either —
    /// only individualization-refinement resolves it.
    #[test]
    fn oversized_tie_groups_stay_orbit_invariant() {
        let fallbacks_before = canon_stats::tie_cap_fallbacks();
        let cfg = ClusterConfig {
            num_servers: 8,
            ..ClusterConfig::small(CodeVersion::V391)
        };
        let mut s = ZabState::initial(&cfg);
        for i in 0..8 {
            s.send(i, (i + 1) % 8, Message::LeaderInfo { epoch: 1 });
        }
        let (c, p) = s.canonicalize();
        assert_eq!(s.permute(&p), c, "consistency law");
        // Idempotence: the representative is a fixed point.
        assert_eq!(c.canonicalize().0, c);
        // Orbit invariance under a permutation that is NOT a ring automorphism: the
        // transposed state is a genuinely different member of the orbit.
        let swap01 = Perm::from_image(vec![1, 0, 2, 3, 4, 5, 6, 7]);
        let renamed = s.permute(&swap01);
        assert_ne!(s, renamed, "the transposition moves visible structure");
        assert_eq!(renamed.canonicalize().0, c);
        // And under a rotation, for good measure.
        let rot = Perm::from_image(vec![1, 2, 3, 4, 5, 6, 7, 0]);
        assert_eq!(s.permute(&rot).canonicalize().0, c);
        assert_eq!(
            canon_stats::tie_cap_fallbacks(),
            fallbacks_before,
            "individualization-refinement must resolve the ring without falling back"
        );
    }

    /// The comparator is the order it replaced: on every ordered pair of servers of
    /// three 20,000-state corpora — the fine space (`exhaust-fine`'s cluster), the
    /// election space (`exhaust-election`'s) and a buggy four-transaction space that
    /// reaches code violations (`ClusterConfig::table4`) — `cmp_servers` agrees with
    /// comparing the two servers' `ServerKey`s.  Together with
    /// `owned_canonicalization_matches_borrowed` in `tests/symmetry_props.rs`, this is
    /// what keeps every canonical form, and so every count, where it was.
    #[test]
    fn comparator_is_the_server_key_order() {
        use crate::presets::SpecPreset;
        use remix_checker::{corpus, CorpusOptions};
        let fine = ClusterConfig::small(CodeVersion::FinalFix)
            .with_transactions(1)
            .with_crashes(2);
        let election = ClusterConfig::small(CodeVersion::V391)
            .with_transactions(1)
            .with_crashes(0);
        let corpora = [
            (SpecPreset::MSpec3, fine),
            (SpecPreset::SysSpec, election),
            (SpecPreset::MSpec3, ClusterConfig::table4(CodeVersion::V391)),
        ];
        let (mut pairs, mut ties, mut relational) = (0u64, 0u64, 0u64);
        for (preset, config) in corpora {
            let states = corpus(
                &preset.build(&config),
                CorpusOptions {
                    max_states: 20_000,
                    max_depth: usize::MAX,
                },
            );
            assert_eq!(states.len(), 20_000, "{}", preset.name());
            for s in &states {
                let keys: Vec<ServerKey> = (0..s.n()).map(|i| server_key(s, i)).collect();
                for i in 0..s.n() {
                    for j in 0..s.n() {
                        let expected = keys[i].cmp(&keys[j]);
                        assert_eq!(
                            cmp_servers(s, i, j),
                            expected,
                            "{} servers {i} and {j} of {s:?}",
                            preset.name()
                        );
                        pairs += 1;
                        ties += u64::from(i != j && expected.is_eq());
                        relational += u64::from(
                            !expected.is_eq()
                                && cmp_local(&s.servers[i], i, &s.servers[j], j).is_eq(),
                        );
                    }
                }
            }
        }
        assert_eq!(pairs, 3 * 20_000 * 9);
        assert!(ties > 0, "the corpora hold tie groups");
        assert!(
            relational > 0,
            "the corpora hold servers only the relational part orders"
        );
    }
}

//! Static read/write footprints of action instances, used for dynamic partial-order
//! reduction and audited by `remix-analyze`.
//!
//! An [`Effect`] is a conservative, *label-determined* footprint: it must be a function
//! of the action's parameters alone (never of the state it fires in), so that the same
//! label always declares the same footprint.  Where the true footprint is state-dependent
//! (e.g. "clear the channel to whoever my leader is"), the declaration must be a
//! superset (e.g. the whole channel row).  Declaring no effect at all
//! (`ActionInstance::effect == None`) is always sound: the checker treats such an action
//! as dependent on everything.
//!
//! The footprint covers three resource domains:
//!
//! * **servers** — per-server replica state, as a bitmask over server ids `0..8`;
//! * **channels** — directed FIFO message channels, bit `from * 8 + to` of a `u64`.
//!   Network-level facts about the link (reachability, partition status) are charged to
//!   the channel bits of both directions, so a send (which *reads* reachability) and a
//!   partition (which *writes* it) conflict through the channel domain;
//! * **flags** — named global scalars (fault budgets, ghost history, the first-writer
//!   violation cell).
//!
//! Two effects are *independent* exactly when neither's write set intersects the other's
//! read-or-write set in any domain ([`Effect::independent`]), the classical condition
//! under which the two transitions commute and preserve each other's enabledness.  For
//! that condition to be meaningful the declared reads must also cover the action's
//! *guard* reads, not just the values flowing into the written state.
#![allow(clippy::module_name_repetitions)]

/// Maximum number of servers representable in a footprint mask.
pub const MAX_EFFECT_SERVERS: usize = 8;

/// Named global scalars of the flag domain (bits of `Effect::{reads,writes}_flags`).
pub mod flags {
    /// The remaining crash budget.
    pub const CRASH_BUDGET: u16 = 1 << 0;
    /// The remaining partition budget.
    pub const PARTITION_BUDGET: u16 = 1 << 1;
    /// The transaction-creation budget.
    pub const TXN_BUDGET: u16 = 1 << 2;
    /// Ghost bookkeeping (established leaders, broadcast history, ...).
    pub const GHOST: u16 = 1 << 3;
    /// The first-writer-wins code-violation cell.  Writes to it never commute, so any
    /// action that *may* record a violation must declare a read *and* a write of this
    /// flag.
    pub const VIOLATION: u16 = 1 << 4;
    /// The whole state: an action declaring this bit conflicts with everything.
    pub const GLOBAL: u16 = 1 << 15;

    /// The human-readable name of a single flag bit, if it is one of the named scalars.
    #[must_use]
    pub fn name(bit: u16) -> Option<&'static str> {
        match bit {
            CRASH_BUDGET => Some("crashBudget"),
            PARTITION_BUDGET => Some("partitionBudget"),
            TXN_BUDGET => Some("txnBudget"),
            GHOST => Some("ghost"),
            VIOLATION => Some("violation"),
            GLOBAL => Some("global"),
            _ => None,
        }
    }
}

/// One named bit of an [`Effect`] write set, used by analysis passes to report
/// undeclared or unused footprint bits in human-readable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EffectBit {
    /// The replica state of one server.
    Server(usize),
    /// One directed channel `from -> to` (content or link-level status).
    Channel(usize, usize),
    /// One global flag scalar (a bit of the flag domain).
    Flag(u16),
}

impl std::fmt::Display for EffectBit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EffectBit::Server(i) => write!(f, "server[{i}]"),
            EffectBit::Channel(from, to) => write!(f, "channel[{from}->{to}]"),
            EffectBit::Flag(bit) => match flags::name(bit) {
                Some(name) => write!(f, "flag[{name}]"),
                None => write!(f, "flag[{bit:#06x}]"),
            },
        }
    }
}

/// A conservative read/write footprint of one action instance.
///
/// Built with the fluent constructors; all sets default to empty.  See the module
/// documentation for the soundness contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effect {
    /// Servers whose replica state the action reads (guards included), as a bitmask.
    pub reads_servers: u8,
    /// Servers whose replica state the action may write, as a bitmask.
    pub writes_servers: u8,
    /// Directed channels the action reads (bit `from * 8 + to`).
    pub reads_channels: u64,
    /// Directed channels the action may write (send, pop, clear, or their
    /// partition/reachability status).
    pub writes_channels: u64,
    /// Global flag scalars the action reads.
    pub reads_flags: u16,
    /// Global flag scalars the action may write.
    pub writes_flags: u16,
}

impl Effect {
    /// An empty footprint (reads and writes nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The whole-state footprint: dependent on everything, canonical keys of every
    /// server may change.
    #[must_use]
    pub fn global() -> Self {
        Self {
            reads_flags: flags::GLOBAL,
            writes_flags: flags::GLOBAL,
            ..Self::default()
        }
    }

    /// Returns `true` when the footprint covers the whole state.
    #[must_use]
    pub fn is_global(&self) -> bool {
        (self.reads_flags | self.writes_flags) & flags::GLOBAL != 0
    }

    fn server_bit(i: usize) -> Option<u8> {
        (i < MAX_EFFECT_SERVERS).then(|| 1u8 << i)
    }

    fn channel_bit(from: usize, to: usize) -> Option<u64> {
        (from < MAX_EFFECT_SERVERS && to < MAX_EFFECT_SERVERS)
            .then(|| 1u64 << (from * MAX_EFFECT_SERVERS + to))
    }

    /// Declares a read of server `i`'s state.  Out-of-range ids degrade to [`global`](Self::global).
    #[must_use]
    pub fn reads_server(mut self, i: usize) -> Self {
        match Self::server_bit(i) {
            Some(b) => self.reads_servers |= b,
            None => return Self::global(),
        }
        self
    }

    /// Declares a write (and implicitly a read) of server `i`'s state.
    #[must_use]
    pub fn writes_server(mut self, i: usize) -> Self {
        match Self::server_bit(i) {
            Some(b) => {
                self.writes_servers |= b;
                self.reads_servers |= b;
            }
            None => return Self::global(),
        }
        self
    }

    /// Declares a read of the directed channel `from -> to` (its content or its
    /// link-level status such as reachability).
    #[must_use]
    pub fn reads_channel(mut self, from: usize, to: usize) -> Self {
        match Self::channel_bit(from, to) {
            Some(b) => self.reads_channels |= b,
            None => return Self::global(),
        }
        self
    }

    /// Declares a write (and implicitly a read) of the directed channel `from -> to`.
    #[must_use]
    pub fn writes_channel(mut self, from: usize, to: usize) -> Self {
        match Self::channel_bit(from, to) {
            Some(b) => {
                self.writes_channels |= b;
                self.reads_channels |= b;
            }
            None => return Self::global(),
        }
        self
    }

    /// Declares writes of every channel adjacent to server `i` (both directions), the
    /// footprint of crashing or shutting down a server.
    #[must_use]
    pub fn writes_channels_of(mut self, i: usize) -> Self {
        if i >= MAX_EFFECT_SERVERS {
            return Self::global();
        }
        let row: u64 = 0xffu64 << (i * MAX_EFFECT_SERVERS);
        let col: u64 = (0..MAX_EFFECT_SERVERS)
            .map(|f| 1u64 << (f * MAX_EFFECT_SERVERS + i))
            .fold(0, |a, b| a | b);
        self.writes_channels |= row | col;
        self.reads_channels |= row | col;
        self
    }

    /// Declares a write (and implicitly a read) of a flag scalar (see [`flags`]).
    #[must_use]
    pub fn writes_flag(mut self, f: u16) -> Self {
        self.writes_flags |= f;
        self.reads_flags |= f;
        self
    }

    /// `true` when the two effects are independent: neither's writes intersect the
    /// other's reads or writes in any domain.  Independent transitions commute and
    /// preserve each other's enabledness, the premise of sleep-set pruning.
    #[must_use]
    pub fn independent(&self, other: &Effect) -> bool {
        if self.is_global() || other.is_global() {
            return false;
        }
        let servers = (self.writes_servers & (other.reads_servers | other.writes_servers))
            | (other.writes_servers & (self.reads_servers | self.writes_servers));
        let channels = (self.writes_channels & (other.reads_channels | other.writes_channels))
            | (other.writes_channels & (self.reads_channels | self.writes_channels));
        let flags = (self.writes_flags & (other.reads_flags | other.writes_flags))
            | (other.writes_flags & (self.reads_flags | self.writes_flags));
        servers == 0 && channels == 0 && flags == 0
    }

    /// The union of two footprints: reads and writes are combined bitwise per domain.
    ///
    /// Union is monotone for conflict: if `a` conflicts with `b`, then `a.union(c)`
    /// still conflicts with `b` for any `c` — widening a footprint can only lose
    /// precision, never soundness.
    #[must_use]
    pub fn union(&self, other: &Effect) -> Effect {
        Effect {
            reads_servers: self.reads_servers | other.reads_servers,
            writes_servers: self.writes_servers | other.writes_servers,
            reads_channels: self.reads_channels | other.reads_channels,
            writes_channels: self.writes_channels | other.writes_channels,
            reads_flags: self.reads_flags | other.reads_flags,
            writes_flags: self.writes_flags | other.writes_flags,
        }
    }

    /// `true` when every write bit of `other` is also a write bit of `self` — i.e. this
    /// declaration is at least as wide as the observed footprint `other`.  A global
    /// footprint covers everything.
    #[must_use]
    pub fn covers_writes(&self, other: &Effect) -> bool {
        if self.is_global() {
            return true;
        }
        if other.is_global() {
            return false;
        }
        other.writes_servers & !self.writes_servers == 0
            && other.writes_channels & !self.writes_channels == 0
            && other.writes_flags & !self.writes_flags == 0
    }

    /// Enumerates the individual write bits of this footprint as named [`EffectBit`]s,
    /// in a deterministic order (servers, then channels, then flags).
    #[must_use]
    pub fn write_bits(&self) -> Vec<EffectBit> {
        let mut out = Vec::new();
        for i in 0..MAX_EFFECT_SERVERS {
            if self.writes_servers & (1u8 << i) != 0 {
                out.push(EffectBit::Server(i));
            }
        }
        for from in 0..MAX_EFFECT_SERVERS {
            for to in 0..MAX_EFFECT_SERVERS {
                if self.writes_channels & (1u64 << (from * MAX_EFFECT_SERVERS + to)) != 0 {
                    out.push(EffectBit::Channel(from, to));
                }
            }
        }
        for bit in 0..16 {
            if self.writes_flags & (1u16 << bit) != 0 {
                out.push(EffectBit::Flag(1u16 << bit));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_footprints_are_independent() {
        let a = Effect::new().writes_server(0).writes_channel(2, 0);
        let b = Effect::new().writes_server(1).writes_channel(2, 1);
        assert!(a.independent(&b));
        assert!(b.independent(&a));
    }

    #[test]
    fn read_write_overlap_is_dependent() {
        // b only *reads* server 0, which a writes.
        let a = Effect::new().writes_server(0);
        let b = Effect::new().reads_server(0).writes_server(1);
        assert!(!a.independent(&b));
        // Pure read/read overlap stays independent.
        let c = Effect::new().reads_server(0).writes_server(2);
        assert!(b.independent(&c));
    }

    #[test]
    fn flags_conflict_and_global_dominates() {
        let a = Effect::new().writes_flag(flags::VIOLATION).writes_server(0);
        let b = Effect::new().writes_flag(flags::VIOLATION).writes_server(1);
        assert!(!a.independent(&b));
        assert!(!Effect::global().independent(&Effect::new()));
        assert!(Effect::global().is_global());
    }

    #[test]
    fn channel_row_covers_every_direction() {
        let crash = Effect::new().writes_server(1).writes_channels_of(1);
        let send = Effect::new().writes_server(0).writes_channel(0, 1);
        let other = Effect::new().writes_server(0).writes_channel(0, 2);
        assert!(!crash.independent(&send), "send into the crashed row");
        assert!(crash.independent(&other), "unrelated link commutes");
    }

    #[test]
    fn union_and_coverage() {
        let a = Effect::new().writes_server(0).writes_channel(0, 1);
        let b = Effect::new().writes_server(1).writes_flag(flags::GHOST);
        let u = a.union(&b);
        assert!(u.covers_writes(&a) && u.covers_writes(&b));
        assert!(!a.covers_writes(&b));
        assert!(Effect::global().covers_writes(&u));
        assert!(!u.covers_writes(&Effect::global()));
    }

    #[test]
    fn write_bits_are_named_and_deterministic() {
        let e = Effect::new()
            .writes_server(2)
            .writes_channel(1, 0)
            .writes_flag(flags::VIOLATION);
        let bits = e.write_bits();
        assert_eq!(
            bits,
            vec![
                EffectBit::Server(2),
                EffectBit::Channel(1, 0),
                EffectBit::Flag(flags::VIOLATION),
            ]
        );
        assert_eq!(bits[0].to_string(), "server[2]");
        assert_eq!(bits[1].to_string(), "channel[1->0]");
        assert_eq!(bits[2].to_string(), "flag[violation]");
    }

    #[test]
    fn out_of_range_ids_degrade_to_global() {
        assert!(Effect::new().writes_server(9).is_global());
        assert!(Effect::new().writes_channel(0, 12).is_global());
    }
}

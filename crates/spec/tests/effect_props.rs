//! Property tests of the [`Effect`] algebra, via the vendored `proptest` stand-in.
//!
//! The effect algebra underwrites one reduction (sleep-set POR) and one analysis (the
//! `remix-analyze` effect audit), so its algebraic laws are pinned down over generated
//! footprints rather than single examples: independence is symmetric, widening a
//! footprint is conflict-monotone (union can lose precision but never soundness), and
//! coverage behaves like the write-bit superset it claims to be.

use proptest::prelude::*;
use remix_spec::effect::{flags, MAX_EFFECT_SERVERS};
use remix_spec::Effect;

/// Generates an arbitrary (possibly global) footprint directly over the bit fields.
/// The vendored stand-in only provides range and tuple strategies, so the three
/// non-channel fields are unpacked from one 64-bit word.
fn any_effect() -> impl Strategy<Value = Effect> {
    (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(x, rc, wc)| {
        let ws = (x & 0xff) as u8;
        let wf = ((x >> 16) & 0xffff) as u16;
        Effect {
            // Writes imply reads, as the builders enforce.
            reads_servers: ((x >> 8) & 0xff) as u8 | ws,
            writes_servers: ws,
            reads_channels: rc | wc,
            writes_channels: wc,
            reads_flags: ((x >> 32) & 0xffff) as u16 | wf,
            writes_flags: wf,
        }
    })
}

proptest! {
    /// Independence is symmetric: the sleep-set engine checks pairs in one order only.
    #[test]
    fn independence_is_symmetric(a in any_effect(), b in any_effect()) {
        prop_assert_eq!(a.independent(&b), b.independent(&a));
    }

    /// Conflict is monotone under union: if `a` conflicts with `b`, widening `a` by
    /// any `c` keeps the conflict.  This is what makes conservative (over-wide)
    /// declarations sound: they can only turn independence into conflict, never the
    /// other way around.
    #[test]
    fn conflict_is_monotone_under_union(
        a in any_effect(),
        b in any_effect(),
        c in any_effect(),
    ) {
        if !a.independent(&b) {
            prop_assert!(!a.union(&c).independent(&b));
        }
    }

    /// Union is an upper bound in the coverage order, and coverage is reflexive.
    #[test]
    fn union_covers_both_operands(a in any_effect(), b in any_effect()) {
        let u = a.union(&b);
        prop_assert!(u.covers_writes(&a));
        prop_assert!(u.covers_writes(&b));
        prop_assert!(a.covers_writes(&a));
        // Coverage means exactly "no write bit of the covered side is missing".
        if !u.is_global() {
            prop_assert_eq!(u.writes_servers, a.writes_servers | b.writes_servers);
        }
    }

    /// Every write bit enumerated by `write_bits` is covered by the footprint that
    /// produced it, and a footprint with no write bits is independent of itself
    /// unless global (read-read sharing never conflicts).
    #[test]
    fn write_bits_round_trip(e in any_effect()) {
        for bit in e.write_bits() {
            let single = match bit {
                remix_spec::EffectBit::Server(i) => Effect::new().writes_server(i),
                remix_spec::EffectBit::Channel(f, t) => Effect::new().writes_channel(f, t),
                remix_spec::EffectBit::Flag(f) => Effect::new().writes_flag(f),
            };
            prop_assert!(
                e.covers_writes(&single) || e.is_global() || single.is_global(),
                "bit {bit} escaped its own footprint"
            );
        }
        if e.write_bits().is_empty() && !e.is_global() {
            prop_assert!(e.independent(&e), "a read-only footprint conflicts with itself");
        }
    }

    /// The global footprint is absorbing: it covers everything and is independent of
    /// nothing.
    #[test]
    fn global_is_absorbing(e in any_effect()) {
        let g = Effect::global();
        prop_assert!(g.covers_writes(&e));
        prop_assert!(!g.independent(&e));
        prop_assert!(!e.independent(&g));
        prop_assert!(e.union(&g).is_global());
    }
}

/// The builders saturate out-of-range indices to the global footprint instead of
/// silently truncating (a non-property sanity anchor for the strategies above).
#[test]
fn out_of_range_builders_saturate_to_global() {
    assert!(Effect::new().writes_server(MAX_EFFECT_SERVERS).is_global());
    assert!(Effect::new()
        .writes_channel(0, MAX_EFFECT_SERVERS)
        .is_global());
    assert!(Effect::new().writes_flag(flags::GLOBAL).is_global());
}

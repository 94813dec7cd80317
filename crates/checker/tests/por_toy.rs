//! Engine-level soundness checks for sleep-set POR on a toy spec with *known correct*
//! footprints: two counters incremented by actions with disjoint declared write sets.
//! Every interleaving of the two actions commutes, so POR may prune edges but must
//! still reach every grid point.  A failure here indicts BFS's sleep-set propagation
//! rather than any model's annotations (`check_dfs` refuses `por`).

use remix_checker::{check_bfs, CheckOptions, StopReason, StoreMode};
use remix_spec::{
    ActionDef, Effect, Granularity, Invariant, InvariantSource, ModuleId, ModuleSpec, Spec,
    SpecState,
};

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Grid {
    x: u32,
    y: u32,
    nx: u32,
    ny: u32,
}

impl SpecState for Grid {}

/// Two fully independent counters: `IncX` writes server slot 0, `IncY` slot 1.
fn grid_spec(nx: u32, ny: u32) -> Spec<Grid> {
    let m = ModuleId("Grid");
    let inc_x = ActionDef::new(
        "IncX",
        m,
        Granularity::Baseline,
        vec!["x"],
        vec!["x"],
        move |s: &Grid, sink| {
            if s.x < s.nx {
                sink.offer("IncX", Effect::new().writes_server(0), |next| next.x += 1);
            }
        },
    );
    let inc_y = ActionDef::new(
        "IncY",
        m,
        Granularity::Baseline,
        vec!["y"],
        vec!["y"],
        move |s: &Grid, sink| {
            if s.y < s.ny {
                sink.offer("IncY", Effect::new().writes_server(1), |next| next.y += 1);
            }
        },
    );
    let inv = Invariant::always("TRUE", "trivially holds", InvariantSource::Protocol, |_| {
        true
    });
    Spec::new(
        "grid",
        vec![Grid { x: 0, y: 0, nx, ny }],
        vec![ModuleSpec::new(
            m,
            Granularity::Baseline,
            vec![inc_x, inc_y],
        )],
        vec![inv],
    )
}

/// Each test runs once per store backend.
const STORES: [StoreMode; 2] = [StoreMode::Full, StoreMode::FingerprintOnly];

fn options(por: bool, store: StoreMode) -> CheckOptions {
    CheckOptions::default().with_por(por).with_store_mode(store)
}

#[test]
fn bfs_por_preserves_every_grid_point() {
    let (nx, ny) = (5, 4);
    let spec = grid_spec(nx, ny);
    for store in STORES {
        let off = check_bfs(&spec, &options(false, store));
        let on = check_bfs(&spec, &options(true, store));
        assert_eq!(off.stop_reason, StopReason::Exhausted, "{store}");
        assert_eq!(on.stop_reason, StopReason::Exhausted, "{store}");
        assert_eq!(
            off.stats.distinct_states as u32,
            (nx + 1) * (ny + 1),
            "{store}"
        );
        assert_eq!(
            on.stats.distinct_states, off.stats.distinct_states,
            "sleep sets prune edges, never states ({store})"
        );
        assert_eq!(on.stats.max_depth, off.stats.max_depth, "{store}");
        assert!(
            on.stats.pruned_transitions > 0,
            "the diamonds must prune ({store})"
        );
        assert_eq!(
            on.stats.transitions + on.stats.pruned_transitions,
            off.stats.transitions,
            "{store}"
        );
    }
}

//! The refinement matrix artefact: runs `remix_bench::refine_matrix` — {Coarse ⊑
//! Baseline (mSpec-1 over SysSpec), Baseline ⊑ FineAtomic (SysSpec over fSpec-atom),
//! Coarse ⊑ Coarse+FineAtomic (mSpec-1 over mSpec-2)} × {3, 5} servers — and writes
//! the rows to `BENCH_refine.json` (path overridable via `REFINE_JSON`).  Each row
//! records the three-valued verdict (`refines` / `diverges` / `inconclusive`), whether
//! it is conclusive, per-side state, projection and spill counts, and the wall time of
//! the dual exploration.  The three-server rows and the mSpec-2 ⊑ mSpec-1 rows must
//! refine conclusively — including at five servers, which is the machine-checked form
//! of the paper's interaction-preservation claim (§3.2, Figure 5b) at the scale the
//! paper reports.  The capped five-server rows run under a 1 MiB fingerprint memory
//! budget, so their discovered-state sets spill sorted runs to disk: the committed
//! artefact documents one out-of-core run via the `*_bytes_spilled` columns.
//!
//! After the write the process asserts that bar, so a bare
//! `cargo bench --bench refine_matrix` fails loudly: the bug it guards against is a
//! truncated run serialized as a passing verdict.  Refinement throughput is
//! `remix-bench`'s `refine` workload.

use std::time::Duration;

use remix_bench::refine_matrix;
use remix_core::RefineRow;

/// A definite, positive verdict: both sides explored far enough to prove refinement.
fn refines_conclusively(row: &RefineRow) -> bool {
    row.conclusive && row.verdict == "refines"
}

fn main() {
    let rows = refine_matrix(Duration::from_secs(120), 1, 150_000, Some(1 << 20));
    for row in &rows {
        println!(
            "refine {}⊑{} servers={}: verdict={} conclusive={} fine_states={} coarse_states={} spilled={}B time={:?}",
            row.fine,
            row.coarse,
            row.servers,
            row.verdict,
            row.conclusive,
            row.fine_states,
            row.coarse_states,
            row.fine_bytes_spilled + row.coarse_bytes_spilled,
            row.time,
        );
    }
    // Benches run with the package directory as CWD; anchor the artefact at the
    // workspace root unless overridden.
    let path = std::env::var("REFINE_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_refine.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        "{{\n  \"bench\": \"refine_matrix\",\n  \"workload\": \"{{Coarse vs Baseline, Baseline vs FineAtomic, Coarse vs Coarse+FineAtomic}} x {{3, 5}} servers, 1 txn, 0 crashes\",\n  \"note\": \"verdict is refines/diverges/inconclusive and is definite only when conclusive; three-server rows and the mSpec-2-vs-mSpec-1 rows (both sizes) are explored to exhaustion; the capped five-server rows run under a 1 MiB fingerprint budget and spill runs to disk (*_bytes_spilled); durations in milliseconds\",\n  \"rows\": [\n    {}\n  ]\n}}\n",
        rows.iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    println!("wrote {path}");

    for row in &rows {
        let json = row.to_json();
        assert!(
            row.conclusive || row.verdict == "inconclusive",
            "definite verdict on an inconclusive row: {json}"
        );
        assert!(
            !json.contains("\"refines\":"),
            "legacy boolean 'refines' key resurfaced: {json}"
        );
        if row.servers == 3 {
            assert!(
                refines_conclusively(row),
                "a three-server row that does not refine conclusively: {json}"
            );
        }
    }
    assert!(rows.iter().any(|r| r.servers == 3), "no three-server row");
    assert!(
        rows.iter()
            .filter(|r| r.servers == 5)
            .any(refines_conclusively),
        "no conclusive five-server refinement row"
    );
    assert!(
        rows.iter()
            .any(|r| r.fine_bytes_spilled + r.coarse_bytes_spilled > 0),
        "no out-of-core row (nothing spilled under the memory budget)"
    );
}

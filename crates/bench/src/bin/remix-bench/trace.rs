//! In-memory span recorder for the traced pass.
//!
//! The harness itself drives each layer's public functions and records a span around
//! those calls; nothing inside the engines is instrumented.  Spans stay in memory and
//! are written as one JSON array when the pass ends.  A disabled tracer records
//! nothing, so the untraced runs share the same code path at the cost of a branch.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use remix_core::json::JsonObject;

/// Identifier of a recorded span; [`ROOT`] is the parent of top-level spans.
pub type SpanId = u32;

/// The parent of spans nothing caused.
pub const ROOT: SpanId = 0;

/// One span: `calls` invocations of `name` in `layer`, busy for `busy_ns` starting at
/// `start_ns` (an open/close pair has `calls == 1` and `busy_ns` = its duration; a
/// per-level layer record sums many calls).
struct Span {
    parent: SpanId,
    layer: &'static str,
    name: String,
    start_ns: u64,
    busy_ns: u64,
    calls: u64,
}

/// The recorder.  Span ids are positions in the record (1-based; 0 is [`ROOT`]).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, parent: SpanId, layer: &'static str, name: &str) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.record(parent, layer, name, start_ns, 0, 1)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled || id == ROOT {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.busy_ns = now - span.start_ns;
    }

    /// Records an already measured span (used for the per-level layer sums).
    pub fn record(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &str,
        start_ns: u64,
        busy_ns: u64,
        calls: u64,
    ) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(Span {
            parent,
            layer,
            name: name.to_owned(),
            start_ns,
            busy_ns,
            calls,
        });
        self.spans.len() as SpanId
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as a JSON array of flat objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let object = JsonObject::new()
                .u128("id", i as u128 + 1)
                .u128("parent", span.parent as u128)
                .string("layer", span.layer)
                .string("name", &span.name)
                .u128("start_ns", span.start_ns as u128)
                .u128("busy_ns", span.busy_ns as u128)
                .u128("calls", span.calls as u128)
                .finish();
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(out, "  {object}{comma}")?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let case = tracer.open(ROOT, "case", "outer");
        let level = tracer.open(case, "bfs", "level 0");
        tracer.record(level, "spec", "enumerate", 5, 40, 3);
        tracer.close(level);
        tracer.close(case);
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.spans[1].parent, case);
        assert_eq!(tracer.spans[2].parent, level);
        assert!(tracer.spans[0].busy_ns >= tracer.spans[1].busy_ns);

        let mut off = Tracer::new(false);
        let id = off.open(ROOT, "case", "ignored");
        off.close(id);
        assert_eq!((id, off.len()), (ROOT, 0));
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer's public functions — the program itself is not instrumented. Each
//! span has a name (`<layer>.<call>`), start and end (ns since the tracer
//! was created), its parent span, and the id of the operation it belongs
//! to. A disabled tracer runs the wrapped call and records nothing, so the
//! untraced run pays one branch per wrapped call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `voxel.vqrf_build`.
    pub name: &'static str,
    /// Operation id shared by every span of one operation (0 = set-up and
    /// probes outside the measured loop).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer, recording or not.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Switches recording on or off (the traced run alternates operations
    /// to measure tracing overhead).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Sets the operation id later spans carry.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            let start_ns = self.now_ns();
            spans.push(Span { name, op: self.op.get(), parent, start_ns, end_ns: start_ns });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    /// Every span recorded so far, in start order.
    #[cfg(test)]
    fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Wall durations (ns) of every span named `name`, in start order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time per layer (ns): each span's duration minus the part its
    /// direct children cover, summed by the layer prefix of the span name.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            *by_layer.entry(layer_of(s.name).to_string()).or_insert(0) +=
                s.duration_ns().saturating_sub(children);
        }
        by_layer
    }

    /// Writes every span plus the per-layer self times as one JSON document.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating, writing or flushing the file.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "{{\"spans\": [")?;
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "], \"self_ns_by_layer\": {{")?;
        let layers = self.self_time_by_layer();
        for (i, (layer, ns)) in layers.iter().enumerate() {
            let sep = if i + 1 == layers.len() { "" } else { "," };
            writeln!(out, "  \"{layer}\": {ns}{sep}")?;
        }
        writeln!(out, "}}}}")?;
        out.flush()
    }
}

/// The layer a span belongs to: its name up to the last `.`.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new(true);
        t.set_op(3);
        t.span("pipeline.build", || {
            t.span("voxel.vqrf_build", || std::hint::black_box(1 + 1));
            t.span("core.spnerf_build", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        let by_layer = t.self_time_by_layer();
        assert_eq!(by_layer["pipeline"], spans[0].duration_ns() - children);
        assert_eq!(by_layer["voxel"], spans[1].duration_ns());
        assert_eq!(t.durations_ns("core.spnerf_build").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let t = Tracer::new(false);
        assert_eq!(t.span("render.frame", || 41 + 1), 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn layer_is_the_name_prefix() {
        assert_eq!(layer_of("render.stage.decode"), "render.stage");
        assert_eq!(layer_of("voxel.vqrf_build"), "voxel");
        assert_eq!(layer_of("bare"), "bare");
    }
}

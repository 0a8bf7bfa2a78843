//! In-memory span recorder for the traced run.
//!
//! A span is a named interval of host time with the span that caused it
//! (its parent) and the number of layer calls it covers. Spans are kept in
//! a `Vec` while the benchmark runs and written out as JSON lines at the
//! end; nothing here touches the program under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers spans are grouped into, named after the repository's
/// modules; `bench` is the benchmark's own grouping spans.
pub const LAYERS: [&str; 8] =
    ["bench", "crypto", "core", "sim.queue", "sim.topology", "sim.engine", "topo", "systems"];

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `crypto.aes_block`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Public calls into the layer the span covers (0 for grouping spans).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the longest of [`LAYERS`] its name
    /// starts with.
    pub fn layer(&self) -> &'static str {
        LAYERS
            .iter()
            .filter(|l| self.name.starts_with(*l) && self.name[l.len()..].starts_with('.'))
            .max_by_key(|l| l.len())
            .copied()
            .unwrap_or("bench")
    }
}

/// Records spans against one epoch, keeping a stack of open spans so every
/// new span knows its parent.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls: 0,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`, crediting it
    /// with `calls` layer calls.
    pub fn exit(&mut self, id: usize, calls: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.calls = calls;
    }

    /// Run `f` inside a leaf span covering `calls` layer calls.
    pub fn span<R>(&mut self, name: impl Into<String>, calls: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id, calls);
        out
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host seconds of the span at `id`.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Host seconds of the most recently opened span.
    pub fn last_secs(&self) -> f64 {
        self.secs(self.spans.len() - 1)
    }

    /// Each layer's self time in seconds: a span's duration minus the part
    /// its direct children cover, summed per layer.
    pub fn self_secs_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) += s.dur_ns().saturating_sub(child) as f64 / 1e9;
        }
        out
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.enter("sim.engine.run");
        t.span("sim.queue.droptail.enq_deq", 10, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root, 0);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let by_layer = t.self_secs_by_layer();
        let total = spans[0].dur_ns() as f64 / 1e9;
        let sum: f64 = by_layer.values().sum();
        assert!((sum - total).abs() < 1e-9, "self times must partition the root");
        assert_eq!(spans[1].calls, 10);
        assert_eq!(spans[0].layer(), "sim.engine");
        assert_eq!(spans[1].layer(), "sim.queue");
    }
}

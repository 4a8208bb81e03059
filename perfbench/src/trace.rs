//! In-memory spans recorded around the public calls of a replayed op.
//! Spans stay in memory and are written out when the run ends.

use crate::clock::Stopwatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `formulation.build`.
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, wall seconds since the tracer was created.
    pub start: f64,
    /// End, wall seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Wall seconds the span covers.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id of the spans that follow.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` are
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start = self.origin.seconds();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.seconds();
        out
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed over spans of that name.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_time) {
            let entry = out.entry(span.name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += span.duration() - child;
        }
        out
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.name, s.op, s.start, s.end
            );
        }
        out
    }
}

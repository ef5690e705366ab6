//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end, parent. Spans stay in memory and are written
//! out once, when the benchmark ends.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A single-thread span recorder. When off, `enter`/`exit` record nothing,
/// so the same replica code serves traced and untraced runs.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool, origin: Instant) -> Self {
        Spans {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Summed self time of every span called `name`: each span's duration
    /// minus its children's. Children on one thread never overlap, so their
    /// summed durations are the part of the parent they cover.
    pub fn self_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_of(i))
            .sum()
    }

    fn self_of(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .sum();
        self.spans[idx].secs() - children
    }

    /// `(wall, unaccounted)` over the root spans: their summed duration, and
    /// the part of it no top-level child span covers.
    pub fn accounting(&self) -> (f64, f64) {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect();
        let wall = roots.iter().map(|&i| self.spans[i].secs()).sum();
        let unaccounted = roots.iter().map(|&i| self.self_of(i)).sum();
        (wall, unaccounted)
    }

    /// End of the first span called `name`, in seconds after the start of
    /// the first root span.
    pub fn offset_of_end(&self, name: &str) -> Option<f64> {
        let root = self.spans.first()?;
        let s = self.spans.iter().find(|s| s.name == name)?;
        Some((s.end_ns - root.start_ns) as f64 / 1e9)
    }
}

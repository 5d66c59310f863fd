//! Coarse spans of the traced run: one per driver-level step (set-up, each
//! injection batch, each `Network::run_until`, each harvest pass, the
//! fluid oracle run). Spans are kept in memory and written out once the
//! benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for the driving thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        self.spans[id].ns()
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let result = f();
        self.close(id);
        result
    }

    /// Total nanoseconds of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Total nanoseconds of the direct children of every span named
    /// `parent_name`.
    pub fn children_ns(&self, parent_name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent_name))
            .map(Span::ns)
            .sum()
    }

    /// The spans as one JSON document: `{"spans": [{"id", "name",
    /// "start_ns", "end_ns", "parent"}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

//! Benchmark-side spans. Because this change may not touch program
//! code, every span is taken **from outside**: around a call into a
//! crate's public function (layer harness) or around one request as
//! the client sees it (traced workload re-run). Spans are held in
//! memory and written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use super::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = root).
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span buffer. Each thread owns one (`lane` keeps ids
/// unique across threads); the runner merges them at the end.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    lane: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, lane: u64) -> SpanLog {
        SpanLog {
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Record a finished span; returns its id.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = (self.lane << 40) | (self.spans.len() as u64 + 1);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Run `f` inside a span; returns its result and the elapsed ns.
    pub fn time<R>(&mut self, name: &str, parent: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.add(name, parent, start, end);
        (r, (end - start).as_nanos() as u64)
    }

    /// Move the end of span `id` (a span opened before its children so
    /// they can name it, closed once they are done).
    pub fn close(&mut self, id: u64, end: Instant) {
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        if let Some(s) = self.spans.iter_mut().find(|s| s.id == id) {
            s.end_ns = end_ns;
        }
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// One header line (run description), then one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, header: &Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{}", header.render())?;
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::str(s.name.as_str())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the request it belongs to. Spans stay in memory during the run and
//! are written out as JSON lines when the benchmark ends. A span's self
//! time is its duration minus the part of it that its children cover.
//!
//! Spans marked `synthetic` were not timed by the benchmark itself: they
//! carry a duration the program already reports (a report's probe time, a
//! reply's `server_ns`) laid out from the start of their parent. One that
//! would end after its parent is clipped to it and counted as a defect of
//! its request: the program reported more time for a part than the
//! benchmark timed for the whole.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Absolute slack of the decomposition check: the untraced instants
/// around a request's root span (taking the clock, pushing the span).
pub const SLACK_NS: u64 = 100_000;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps (`binding.map`, `prune.build`, ...).
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Causing span, `None` for a request's root.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Duration taken from the program's own report, not timed here.
    pub synthetic: bool,
}

/// The span store of one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Requests with a synthetic span that had to be clipped.
    clipped: BTreeMap<u64, u64>,
}

impl Tracer {
    /// An empty store whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            clipped: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken elsewhere to the tracer's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now();
        self.record(name, request, parent, start_ns, 0, false)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        synthetic: bool,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
            synthetic,
        });
        self.spans.len() - 1
    }

    /// A synthetic child of `parent` lasting `dur_ns` from `offset_ns` after
    /// the parent's start. If it would end after the parent it is clipped to
    /// the parent's end and its request is marked as not adding up.
    pub fn synthetic(
        &mut self,
        name: &'static str,
        parent: SpanId,
        offset_ns: u64,
        dur_ns: u64,
    ) -> SpanId {
        let p = &self.spans[parent];
        let (request, end) = (p.request, p.end_ns.max(p.start_ns));
        let start = p.start_ns + offset_ns;
        if start + dur_ns > end {
            *self.clipped.entry(request).or_default() += 1;
        }
        self.record(
            name,
            request,
            Some(parent),
            start.min(end),
            (start + dur_ns).min(end),
            true,
        )
    }

    /// The duration of a closed span in nanoseconds.
    pub fn duration(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.end_ns.saturating_sub(s.start_ns) - covered
            })
            .collect()
    }

    /// Checks every traced request against `timed`, its end-to-end latency
    /// as the benchmark timed it apart from the spans (request id →
    /// nanoseconds). A request fails when a synthetic span of it had to be
    /// clipped, when it has no timing, or when its spans' self times do not
    /// sum to that latency within [`SLACK_NS`] or 2% of it. Returns the
    /// number of requests that fail and the number checked.
    pub fn check_decomposition(&self, timed: &BTreeMap<u64, u64>) -> (usize, usize) {
        let selfs = self.self_times();
        let mut sum: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *sum.entry(s.request).or_default() += selfs[i];
        }
        let bad = sum
            .iter()
            .filter(|(req, &total)| {
                self.clipped.contains_key(req)
                    || timed
                        .get(req)
                        .is_none_or(|&t| total.abs_diff(t) > SLACK_NS.max(t / 50))
            })
            .count();
        (bad, sum.len())
    }

    /// Total self time per span name, in nanoseconds, and the number of
    /// requests traced.
    pub fn self_by_name(&self) -> (BTreeMap<&'static str, u64>, usize) {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut roots = 0;
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_default() += selfs[i];
            roots += usize::from(s.parent.is_none());
        }
        (out, roots)
    }

    /// Writes every span as one JSON line to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{stamp}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"synthetic\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns, s.synthetic
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_must_sum_to_the_timed_latency() {
        let mut t = Tracer::new();
        let root = t.record("req", 1, None, 0, 1_000_000, false);
        let a = t.record("a", 1, Some(root), 100_000, 400_000, false);
        t.record("a.child", 1, Some(a), 150_000, 250_000, false);
        t.record("b", 1, Some(root), 500_000, 900_000, false);
        assert_eq!(t.self_times(), vec![300_000, 200_000, 100_000, 400_000]);
        let timed = BTreeMap::from([(1, 1_010_000)]);
        assert_eq!(t.check_decomposition(&timed), (0, 1));
        // Latency the spans do not account for is caught...
        assert_eq!(
            t.check_decomposition(&BTreeMap::from([(1, 1_500_000)])),
            (1, 1)
        );
        // ...and so is a request with no timing of its own.
        assert_eq!(t.check_decomposition(&BTreeMap::new()), (1, 1));
        // Overlapping siblings count their overlap twice.
        t.record("c", 1, Some(root), 300_000, 950_000, false);
        assert_eq!(t.check_decomposition(&timed), (1, 1));
    }

    #[test]
    fn a_clipped_synthetic_span_fails_its_request() {
        let mut t = Tracer::new();
        let root = t.record("req", 1, None, 0, 1_000_000, false);
        t.synthetic("inner", root, 0, 900_000);
        let timed = BTreeMap::from([(1, 1_000_000)]);
        assert_eq!(t.check_decomposition(&timed), (0, 1));
        t.synthetic("inner", root, 500_000, 600_000);
        assert_eq!(t.check_decomposition(&timed), (1, 1));
    }
}

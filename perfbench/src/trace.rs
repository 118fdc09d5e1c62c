//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A disabled tracer runs the wrapped closure and records nothing, so
//! the untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span: a named interval, the span that caused it, and
/// the request it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.prepare`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Spans nest through [`Tracer::span`]: a span opened
/// inside another's closure records it as its parent.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start a new request: later spans carry its id until the next call.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Run `f` inside a span called `name` (a no-op wrapper when off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ns_to_ms(s.duration_ns()))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 112);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Nanoseconds as milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // root [0,100) with children [10,30) and [50,60); the first child
        // has a grandchild [12,20) that must not be subtracted from root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a.inner", 12, 20, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 12, 8, 10]);
    }

    #[test]
    fn overlapping_and_escaping_children_count_once() {
        // Children [10,40) and [30,50) overlap on [30,40); a third one
        // runs past the parent's end and only [90,100) is inside it.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 40, Some(0)),
            span("y", 30, 50, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_tags_requests() {
        let mut t = Tracer::new(true);
        let req = t.next_request();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].request), ("outer", None, req));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].request),
            ("inner", Some(0), req)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times_ns(s);
        assert_eq!(selfs[0], s[0].duration_ns() - s[1].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }
}

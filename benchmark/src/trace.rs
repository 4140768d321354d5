//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files (tracing inside the
//! program is a later change), kept in memory, and written out as Chrome
//! trace JSON when the run ends. A disabled tracer records nothing and
//! reads no clock, so the untraced run pays one branch per call site.

use std::fmt::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`pipeline`, `core.run`, ...).
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one pipeline iteration.
    pub iteration: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` inside when disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    iteration: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            iteration: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off between iterations.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Tag the spans that follow with a new iteration identifier.
    pub fn next_iteration(&mut self) {
        self.iteration += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[cfg(test)]
    fn from_spans(spans: Vec<Span>) -> Self {
        Tracer {
            spans,
            ..Tracer::new(true)
        }
    }

    /// Self time of span `i`: its duration minus the part of that interval
    /// its direct children cover (overlapping children count once).
    pub fn self_ns(&self, i: usize) -> u64 {
        let parent = &self.spans[i];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (parent.end_ns - parent.start_ns) - covered
    }

    /// Per-iteration self time, seconds, of every span named `name`.
    pub fn self_seconds(&self, name: &str) -> Vec<f64> {
        self.per_iteration(name, |t, i| t.self_ns(i))
    }

    /// Per-iteration duration, seconds, of every span named `name`.
    pub fn total_seconds(&self, name: &str) -> Vec<f64> {
        self.per_iteration(name, |t, i| t.spans[i].end_ns - t.spans[i].start_ns)
    }

    /// Sum `ns` over the spans named `name`, one total per iteration.
    fn per_iteration(&self, name: &str, ns: impl Fn(&Tracer, usize) -> u64) -> Vec<f64> {
        let mut out: Vec<(u32, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            match out.last_mut() {
                Some((iteration, total)) if *iteration == s.iteration => *total += ns(self, i),
                _ => out.push((s.iteration, ns(self, i))),
            }
        }
        out.into_iter()
            .map(|(_, total)| total as f64 / 1e9)
            .collect()
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// complete (`X`) events, microsecond timestamps, the causing span and
    /// the iteration identifier in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"iteration\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.iteration,
            );
        }
        out.push_str("\n]\n");
        out
    }
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
            iteration: 1,
        }
    }

    #[test]
    fn self_time_subtracts_siblings_but_not_grandchildren() {
        let t = Tracer::from_spans(vec![
            span("pipeline", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("run", 30, 80, Some(0)),
            span("inner", 40, 70, Some(2)),
        ]);
        assert_eq!(t.self_ns(0), 100 - 10 - 50);
        assert_eq!(t.self_ns(1), 10);
        assert_eq!(t.self_ns(2), 50 - 30);
        assert_eq!(t.self_ns(3), 30);
    }

    #[test]
    fn overlapping_children_count_once() {
        let t = Tracer::from_spans(vec![
            span("parent", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 55, Some(0)),
        ]);
        assert_eq!(t.self_ns(0), 100 - 80);
    }

    #[test]
    fn recorded_spans_nest_and_group_by_iteration() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            t.next_iteration();
            let outer = t.begin("pipeline");
            for _ in 0..3 {
                let run = t.begin("core.run");
                t.end(run);
            }
            t.end(outer);
        }
        assert_eq!(t.spans().len(), 8);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[5].parent, Some(4));
        // Three `core.run` spans per iteration fold into one sample each.
        assert_eq!(t.total_seconds("core.run").len(), 2);
        assert_eq!(t.self_seconds("pipeline").len(), 2);
        let json = t.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 8);
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":4"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("pipeline");
        t.end(id);
        assert!(t.spans().is_empty());
    }
}

//! Benchmark-side tracing: spans around every timed public call, kept in
//! memory and written as JSONL when the run ends, plus an event-counting
//! tracer for the program's own tracer hooks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use uba_trace::{TraceEvent, Tracer};

/// One closed span. Times are microseconds since the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Request id: the instance or submission the span belongs to.
    pub req: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// A per-thread span recorder. Disabled recorders cost one branch per call,
/// so the untraced run can share the traced run's code.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    origin: Instant,
    next: u64,
    spans: Vec<Span>,
}

/// Handle of an open span; `0` when recording is off.
pub type SpanId = u64;

impl SpanLog {
    /// A recorder whose span ids start at `thread_tag << 40`, so recorders
    /// of different threads merge without collisions.
    pub fn new(on: bool, origin: Instant, thread_tag: u64) -> Self {
        SpanLog {
            on,
            origin,
            next: (thread_tag << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, thread_tag: u64) -> Self {
        SpanLog::new(self.on, self.origin, thread_tag)
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3
    }

    /// Opens a span starting now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        let start_us = self.us(Instant::now());
        self.spans.push(Span {
            id,
            parent: (parent != 0).then_some(parent),
            name,
            req,
            start_us,
            end_us: f64::NAN,
        });
        id
    }

    /// Closes an open span now.
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end_us = self.us(Instant::now());
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_us = end_us;
        }
    }

    /// Records a span from instants the caller already measured.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let id = self.next;
        self.next += 1;
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            id,
            parent: (parent != 0).then_some(parent),
            name,
            req,
            start_us,
            end_us,
        });
    }

    /// Takes over another recorder's spans (a joined thread's).
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, s.start_us);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_us - s.start_us) - covered)
        })
        .collect()
}

/// Per span name: count, total and self milliseconds.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end_us - s.start_us) / 1e3;
        e.2 += selfs[&s.id] / 1e3;
    }
    out
}

/// The spans as JSONL, one object per line, with self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            s.id, parent, s.name, s.req, s.start_us, s.end_us, selfs[&s.id]
        );
    }
    out
}

/// The tracer handed to the program's tracer hooks in the traced run:
/// counts events, so the program pays for constructing them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountTracer(pub u64);

impl Tracer for CountTracer {
    fn record(&mut self, _event: TraceEvent) {
        self.0 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            req: 0,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 30.0),
            span(3, Some(1), 20.0, 40.0),  // overlaps span 2
            span(4, Some(1), 90.0, 120.0), // runs past its parent
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100.0 - 30.0 - 10.0);
        assert_eq!(selfs[&2], 20.0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 0);
        let id = log.begin("x", 0, 1);
        log.end(id);
        assert!(log.spans().is_empty());
        let mut log = SpanLog::new(true, Instant::now(), 2);
        let root = log.begin("root", 0, 0);
        let child = log.begin("child", root, 7);
        log.end(child);
        log.end(root);
        assert_eq!(log.spans()[1].parent, Some(root));
        assert!(root >> 40 == 2 && log.spans().iter().all(|s| s.end_us >= s.start_us));
        assert_eq!(to_jsonl(log.spans()).lines().count(), 2);
    }
}

//! Outside-in span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. A span has a name, a wall-clock start and end, an
//! explicit parent, and the id of the op it belongs to. Spans stay in
//! memory and are written out as JSON lines when the run ends.
//!
//! Two kinds of child exist. A *nested* child runs inside its parent's
//! interval (the planner call inside an arrival). A *replayed* child
//! re-executes, after the op, a layer call the parent made internally
//! (the envelope encode inside `Network::invoke`) on the same inputs, on
//! standalone instances, so that the layer can be timed from outside.
//! Self time treats both alike: a span's duration minus the durations
//! of its children, floored at zero.
//!
//! A disabled tracer records nothing; every call is one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Handle of an open (or closed) span. Disabled tracers hand out a
/// sentinel that every method ignores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

const NONE: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Span and counter store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    op_span: SpanId,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records nothing (the untraced run).
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            op_span: SpanId(NONE),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open the root span of op `op`; later spans default to it.
    pub fn begin_op(&mut self, op: u64) -> SpanId {
        self.op = op;
        self.op_span = self.open("op", None);
        self.op_span
    }

    /// The root span of the current op.
    pub fn op_span(&self) -> SpanId {
        self.op_span
    }

    /// Open a span named `name` under `parent` (`None`: a root).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(NONE);
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: parent.map(|p| p.0).filter(|&p| p != NONE),
            start: now,
            end: now,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end = self.epoch.elapsed();
        }
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Add `n` to a named counter (recorded only when enabled).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0) += n;
        }
    }

    /// A counter's value.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Forget every span and counter (after warm-up).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.counters.clear();
        self.op_span = SpanId(NONE);
    }

    /// Duration of a span; zero for the disabled sentinel.
    pub fn duration(&self, id: SpanId) -> Duration {
        self.spans
            .get(id.0)
            .map_or(Duration::ZERO, |s| s.end.saturating_sub(s.start))
    }

    /// `(op, duration)` of every span named `name`, in record order.
    pub fn durations_of(&self, name: &str) -> Vec<(u64, Duration)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, s.end.saturating_sub(s.start)))
            .collect()
    }

    /// Total self time per span name: each span's duration minus the
    /// durations of its children, floored at zero.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.end.saturating_sub(span.start);
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = span.end.saturating_sub(span.start).saturating_sub(covered);
            *out.entry(span.name).or_insert(Duration::ZERO) += own;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"parent\":{parent},\"op\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::on();
        let op = tr.begin_op(0);
        let outer = tr.open("outer", Some(op));
        tr.time("inner", outer, || spin(Duration::from_millis(2)));
        tr.close(outer);
        tr.close(op);
        let selfs = tr.self_times();
        assert!(selfs["inner"] >= Duration::from_millis(2));
        assert!(selfs["outer"] < selfs["inner"]);
        let total: Duration = selfs.values().sum();
        assert_eq!(total, tr.duration(op));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let op = tr.begin_op(3);
        let s = tr.open("x", Some(op));
        tr.close(s);
        tr.count("c", 5);
        assert!(tr.self_times().is_empty());
        assert_eq!(tr.counter("c"), 0);
        assert_eq!(tr.duration(op), Duration::ZERO);
    }
}

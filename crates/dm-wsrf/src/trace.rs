//! Causal tracing: spans timed on the virtual clock, linked by
//! `trace_id`/`span_id`/`parent_span_id`, and propagated across the
//! simulated wire in a W3C-`traceparent`-style SOAP header.
//!
//! The paper's users watched their composed invocations through
//! Triana's workflow monitor; Discovery Net and GridMiner (PAPERS.md)
//! make the same point about end-to-end monitoring of composed mining
//! services. Flat logs ([`crate::monitor::MonitorLog`]) cannot answer
//! "which workflow task caused this dispatch?" — spans can: the
//! executor opens a span per task attempt,
//! [`crate::resilience::attempt`] opens a SOAP-call span per host
//! attempt (for tools and typed clients alike), the transport records
//! the request and response legs, and the container records the
//! dispatch and handler work, each child carrying its parent's
//! `span_id`.
//!
//! Propagation is two-layered: **within a thread**, a task-local stack
//! ([`push_current`]/[`current`]) carries the active span so deeper
//! layers need no plumbed-through arguments (the thread running a
//! workflow task calls the whole stack, so this crosses every layer);
//! **across the wire**, [`SpanContext::to_traceparent`] rides in the
//! envelope header so the server-side dispatch span parents correctly
//! even though client and server share no stack.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What produced a span — one variant per layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole workflow enactment (the trace root).
    Workflow,
    /// One execution attempt of a workflow task.
    Task,
    /// One SOAP call attempt against one host (tool or typed client).
    SoapCall,
    /// One transport leg (request or response) across the simulated wire.
    TransportLeg,
    /// The container decoding and dispatching a call on the server side.
    Dispatch,
    /// Work inside a service implementation.
    Handler,
}

impl SpanKind {
    /// Stable lowercase name used in renderings and exports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Workflow => "workflow",
            SpanKind::Task => "task",
            SpanKind::SoapCall => "soap-call",
            SpanKind::TransportLeg => "transport-leg",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Handler => "handler",
        }
    }
}

/// How a span ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanStatus {
    /// The traced operation completed normally.
    Ok,
    /// The traced operation failed (message attached).
    Error(String),
}

/// The identity a span exports to its children: enough to parent a new
/// span locally or to reconstruct the link on the far side of the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Identifier shared by every span of one enactment.
    pub trace_id: u128,
    /// This span's identifier, unique within the tracer.
    pub span_id: u64,
}

impl SpanContext {
    /// Encode as a W3C-`traceparent`-style header value:
    /// `00-{trace_id:032x}-{span_id:016x}-01`.
    pub fn to_traceparent(self) -> String {
        format!("00-{:032x}-{:016x}-01", self.trace_id, self.span_id)
    }

    /// Decode a `traceparent` header value produced by
    /// [`SpanContext::to_traceparent`].
    pub fn from_traceparent(value: &str) -> Option<SpanContext> {
        let mut parts = value.split('-');
        if parts.next()? != "00" {
            return None;
        }
        let trace = parts.next()?;
        let span = parts.next()?;
        if trace.len() != 32 || span.len() != 16 || parts.next().is_none() {
            return None;
        }
        Some(SpanContext {
            trace_id: u128::from_str_radix(trace, 16).ok()?,
            span_id: u64::from_str_radix(span, 16).ok()?,
        })
    }
}

/// One finished span: identity, causal link, virtual-clock interval,
/// outcome, and free-form attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier shared by every span of one enactment.
    pub trace_id: u128,
    /// This span's identifier.
    pub span_id: u64,
    /// The causing span, `None` for a trace root.
    pub parent_span_id: Option<u64>,
    /// Display name (task, operation, or leg name).
    pub name: String,
    /// Which layer produced the span.
    pub kind: SpanKind,
    /// Virtual-clock instant the span opened.
    pub start: Duration,
    /// Virtual-clock instant the span closed.
    pub end: Duration,
    /// How the traced operation ended.
    pub status: SpanStatus,
    /// Key/value annotations (host, attempt, byte counts, …).
    pub attributes: Vec<(String, String)>,
}

impl Span {
    /// Attribute lookup by key.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Collects finished spans and allocates identifiers. The clock is
/// injected (the network wires in its virtual clock) so span intervals
/// line up with the transport's simulated time.
pub struct Tracer {
    clock: Arc<dyn Fn() -> Duration + Send + Sync>,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("spans", &self.spans.lock().len())
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// Create a tracer reading timestamps from `clock`.
    pub fn new(clock: Arc<dyn Fn() -> Duration + Send + Sync>) -> Tracer {
        Tracer {
            clock,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer on the real (monotonic-offset) clock — for tests and
    /// standalone use outside the simulated network.
    pub fn wall_clock() -> Tracer {
        let origin = std::time::Instant::now();
        Tracer::new(Arc::new(move || origin.elapsed()))
    }

    fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The tracer's current clock reading.
    pub fn now(&self) -> Duration {
        (self.clock)()
    }

    /// Open a span. A `parent` of `None` starts a new trace (the span
    /// becomes a root); otherwise the span joins the parent's trace.
    pub fn start_span(
        self: &Arc<Self>,
        name: impl Into<String>,
        kind: SpanKind,
        parent: Option<SpanContext>,
    ) -> ActiveSpan {
        let span_id = self.allocate_id();
        let (trace_id, parent_span_id) = match parent {
            Some(ctx) => (ctx.trace_id, Some(ctx.span_id)),
            None => (u128::from(span_id) | (1u128 << 64), None),
        };
        ActiveSpan {
            tracer: Arc::clone(self),
            span: Some(Span {
                trace_id,
                span_id,
                parent_span_id,
                name: name.into(),
                kind,
                start: self.now(),
                end: Duration::ZERO,
                status: SpanStatus::Ok,
                attributes: Vec::new(),
            }),
        }
    }

    /// Snapshot of every finished span so far, in finish order.
    pub fn finished_spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Number of finished spans.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// `true` when no span has finished yet.
    pub fn is_empty(&self) -> bool {
        self.spans.lock().is_empty()
    }

    /// Drop all finished spans (between experiment phases).
    pub fn clear(&self) {
        self.spans.lock().clear();
    }

    fn record(&self, span: Span) {
        self.spans.lock().push(span);
    }
}

/// A span that is still open. Finishes (and is recorded) on drop; the
/// end timestamp is read from the tracer's clock at that moment.
pub struct ActiveSpan {
    tracer: Arc<Tracer>,
    span: Option<Span>,
}

impl ActiveSpan {
    /// The context children parent under.
    pub fn ctx(&self) -> SpanContext {
        let span = self.span.as_ref().expect("span open until drop");
        SpanContext {
            trace_id: span.trace_id,
            span_id: span.span_id,
        }
    }

    /// Attach a key/value attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        if let Some(span) = self.span.as_mut() {
            span.attributes.push((key.into(), value.into()));
        }
    }

    /// Mark the span failed with `message`.
    pub fn set_error(&mut self, message: impl Into<String>) {
        if let Some(span) = self.span.as_mut() {
            span.status = SpanStatus::Error(message.into());
        }
    }

    /// Make this span the thread's current span until the returned
    /// guard drops; [`child_span`] calls in deeper stack frames parent
    /// under it.
    pub fn make_current(&self) -> CurrentSpanGuard {
        push_current(&self.tracer, self.ctx())
    }

    /// Close the span now (drop does the same).
    pub fn finish(self) {}
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.end = self.tracer.now();
            self.tracer.record(span);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<(Arc<Tracer>, SpanContext)>> = const { RefCell::new(Vec::new()) };
}

/// Restores the previous current span when dropped.
#[must_use = "dropping the guard immediately pops the span"]
pub struct CurrentSpanGuard {
    _private: (),
}

impl Drop for CurrentSpanGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Push `(tracer, ctx)` as the thread's current span; popped when the
/// guard drops.
pub fn push_current(tracer: &Arc<Tracer>, ctx: SpanContext) -> CurrentSpanGuard {
    CURRENT.with(|stack| stack.borrow_mut().push((Arc::clone(tracer), ctx)));
    CurrentSpanGuard { _private: () }
}

/// The thread's current span, if any layer above established one.
pub fn current() -> Option<(Arc<Tracer>, SpanContext)> {
    CURRENT.with(|stack| stack.borrow().last().map(|(t, ctx)| (Arc::clone(t), *ctx)))
}

/// Open a child of the thread's current span, or `None` when tracing is
/// not active on this call path. This is how leaf layers (service
/// handlers) participate without holding a tracer of their own.
pub fn child_span(name: impl Into<String>, kind: SpanKind) -> Option<ActiveSpan> {
    current().map(|(tracer, ctx)| tracer.start_span(name, kind, Some(ctx)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_clock() -> (Arc<AtomicU64>, Arc<Tracer>) {
        let nanos = Arc::new(AtomicU64::new(0));
        let src = Arc::clone(&nanos);
        let tracer = Arc::new(Tracer::new(Arc::new(move || {
            Duration::from_nanos(src.load(Ordering::Relaxed))
        })));
        (nanos, tracer)
    }

    #[test]
    fn spans_record_interval_status_and_attributes() {
        let (clock, tracer) = manual_clock();
        let mut span = tracer.start_span("work", SpanKind::Task, None);
        span.set_attr("attempt", "1");
        clock.store(5_000, Ordering::Relaxed);
        span.set_error("boom");
        drop(span);
        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.name, "work");
        assert_eq!(s.kind, SpanKind::Task);
        assert_eq!(s.start, Duration::ZERO);
        assert_eq!(s.end, Duration::from_nanos(5_000));
        assert_eq!(s.status, SpanStatus::Error("boom".into()));
        assert_eq!(s.attribute("attempt"), Some("1"));
        assert_eq!(s.parent_span_id, None);
    }

    #[test]
    fn children_share_the_trace_and_link_to_parents() {
        let (_, tracer) = manual_clock();
        let root = tracer.start_span("root", SpanKind::Workflow, None);
        let child = tracer.start_span("child", SpanKind::Task, Some(root.ctx()));
        let grandchild = tracer.start_span("leaf", SpanKind::SoapCall, Some(child.ctx()));
        let (root_ctx, child_ctx) = (root.ctx(), child.ctx());
        drop(grandchild);
        drop(child);
        drop(root);
        let spans = tracer.finished_spans();
        assert!(spans.iter().all(|s| s.trace_id == root_ctx.trace_id));
        let leaf = spans.iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!(leaf.parent_span_id, Some(child_ctx.span_id));
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent_span_id, Some(root_ctx.span_id));
    }

    #[test]
    fn separate_roots_get_separate_traces() {
        let (_, tracer) = manual_clock();
        let a = tracer.start_span("a", SpanKind::Workflow, None).ctx();
        let b = tracer.start_span("b", SpanKind::Workflow, None).ctx();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
    }

    #[test]
    fn traceparent_roundtrip_and_rejection() {
        let ctx = SpanContext {
            trace_id: 0xdead_beef_0123,
            span_id: 42,
        };
        let header = ctx.to_traceparent();
        assert_eq!(
            header,
            "00-00000000000000000000deadbeef0123-000000000000002a-01"
        );
        assert_eq!(SpanContext::from_traceparent(&header), Some(ctx));
        for bad in [
            "",
            "01-00000000000000000000000000000001-0000000000000001-01",
            "00-short-0000000000000001-01",
            "00-00000000000000000000000000000001-short-01",
            "00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-0000000000000001-01",
            "00-00000000000000000000000000000001-0000000000000001",
        ] {
            assert_eq!(SpanContext::from_traceparent(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn thread_local_current_nests_and_restores() {
        let (_, tracer) = manual_clock();
        assert!(current().is_none());
        assert!(child_span("orphan", SpanKind::Handler).is_none());
        let root = tracer.start_span("root", SpanKind::Workflow, None);
        {
            let _outer = root.make_current();
            let inner = child_span("inner", SpanKind::Task).unwrap();
            {
                let _inner_guard = inner.make_current();
                assert_eq!(current().unwrap().1, inner.ctx());
            }
            assert_eq!(current().unwrap().1, root.ctx());
        }
        assert!(current().is_none());
    }

    #[test]
    fn current_does_not_leak_across_threads() {
        let (_, tracer) = manual_clock();
        let root = tracer.start_span("root", SpanKind::Workflow, None);
        let _guard = root.make_current();
        std::thread::spawn(|| assert!(current().is_none()))
            .join()
            .unwrap();
    }

    #[test]
    fn clear_and_len() {
        let tracer = Arc::new(Tracer::wall_clock());
        assert!(tracer.is_empty());
        tracer.start_span("x", SpanKind::Task, None).finish();
        assert_eq!(tracer.len(), 1);
        tracer.clear();
        assert!(tracer.is_empty());
    }
}

//! Service monitoring: "the framework should allow users to monitor the
//! progress of their jobs as they are executed on distributed
//! resources" (§3, category 2). There is one invocation log: the
//! network's, which [`Network::invoke`] records into for every attempt
//! at the transport chokepoint, failed attempts included, and which the
//! toolkit, cost model and exporters summarise.
//!
//! [`MonitorLog::record`] is the one place telemetry is aggregated, so
//! every reader costs O(series) however long the run has been going.
//! Each record updates:
//!
//! * the all-time series of its `(host, service, operation)`: ok, fault
//!   and transport-error counts, byte and duration totals, the worst
//!   duration, and a latency [`Histogram`];
//! * its host's sliding window of the last [`HOST_WINDOW`] attempt
//!   durations, kept sorted, which the nearest-rank quantiles read.
//!
//! The event itself is not kept: it borrows the call's names, and a
//! record copies them only when it opens a new series.
//!
//! Durations are virtual time, the simulated clock's delta across the
//! call. Wall time is the tracer's business, not the log's.
//!
//! [`Network::invoke`]: crate::transport::Network::invoke

use crate::metrics::Histogram;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Attempts per host that the quantile window holds: p50/p95/p99 are
/// exact nearest-rank over the host's last this-many durations.
pub const HOST_WINDOW: usize = 4096;

/// Result of one invocation. It borrows the fault code from the
/// call's error, as [`InvocationEvent`] borrows its names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<'a> {
    /// The operation returned a value.
    Ok,
    /// The operation returned a SOAP fault (carrying its code).
    Fault(&'a str),
    /// The call failed in transit (either leg) and never produced a
    /// usable response; the network's log sees it because it records
    /// at the transport, not at the service.
    TransportError,
}

impl Outcome<'_> {
    /// `true` for anything other than a successful return.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Outcome::Ok)
    }
}

/// One invocation, as [`MonitorLog::record`] aggregates it.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationEvent<'a> {
    /// Host the call was addressed to.
    pub host: &'a str,
    /// Service name.
    pub service: &'a str,
    /// Operation name.
    pub operation: &'a str,
    /// How long the attempt took on the virtual clock: both links,
    /// queue wait and service time, as [`Network::invoke`] charged them.
    ///
    /// [`Network::invoke`]: crate::transport::Network::invoke
    pub duration: Duration,
    /// Request envelope bytes on the wire (0 when the request leg
    /// failed before sending).
    pub bytes_in: usize,
    /// Response envelope bytes on the wire (0 when no response was
    /// sent).
    pub bytes_out: usize,
    /// Wire bytes avoided by pass-by-reference substitution (0 when
    /// the data plane is off or nothing was substituted).
    pub bytes_saved: usize,
    /// Payloads that travelled as `DataRef` handles instead of inline.
    pub ref_hits: usize,
    /// Success or fault.
    pub outcome: Outcome<'a>,
}

/// Aggregate statistics over every event ever recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorSummary {
    /// Total invocations.
    pub invocations: usize,
    /// Invocations that did not return a value: SOAP faults plus
    /// transport errors.
    pub faults: usize,
    /// Sum of attempt durations (virtual time).
    pub total_duration: Duration,
    /// Total request bytes.
    pub bytes_in: usize,
    /// Total response bytes.
    pub bytes_out: usize,
    /// Total wire bytes avoided by pass-by-reference substitution.
    pub bytes_saved: usize,
    /// Total payloads that travelled as `DataRef` handles.
    pub ref_hits: usize,
}

/// Per-host aggregate statistics, the cost model's and circuit
/// breakers' view of endpoint health. Counts, traffic and
/// `max_duration` are all-time; the quantiles read the host's last
/// [`HOST_WINDOW`] attempts. Durations are virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSummary {
    /// Host name.
    pub host: String,
    /// Total attempts recorded against the host.
    pub invocations: usize,
    /// Attempts that ended in a SOAP fault.
    pub faults: usize,
    /// Attempts that failed in transit (either leg).
    pub transport_errors: usize,
    /// `(faults + transport_errors) / invocations`; 0 when empty.
    pub failure_rate: f64,
    /// Nearest-rank median duration over the host's last
    /// [`HOST_WINDOW`] attempts.
    pub p50_duration: Duration,
    /// Nearest-rank 95th-percentile duration over the host's last
    /// [`HOST_WINDOW`] attempts.
    pub p95_duration: Duration,
    /// Nearest-rank 99th-percentile duration over the host's last
    /// [`HOST_WINDOW`] attempts — the tail signal the E19 autoscaler,
    /// replica router, and E20 planner cost model act on.
    pub p99_duration: Duration,
    /// Worst attempt duration ever recorded against the host.
    pub max_duration: Duration,
    /// Total request bytes.
    pub bytes_in: usize,
    /// Total response bytes.
    pub bytes_out: usize,
}

/// Per-operation aggregate statistics — the per-chunk wire-accounting
/// view for streaming ops: `bytes_in / invocations` of a `sendChunk`
/// row is the average wire bytes per chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationSummary {
    /// Operation name.
    pub operation: String,
    /// Total invocations of the operation.
    pub invocations: usize,
    /// Invocations that did not return a value.
    pub faults: usize,
    /// Total request bytes.
    pub bytes_in: usize,
    /// Total response bytes.
    pub bytes_out: usize,
    /// Total wire bytes avoided by pass-by-reference substitution.
    pub bytes_saved: usize,
    /// Payloads that travelled as `DataRef` handles.
    pub ref_hits: usize,
    /// Sum of attempt durations (virtual time).
    pub total_duration: Duration,
}

/// Index of the `ceil(q·n)`-th smallest of `n > 0` sorted values,
/// clamped into the sample.
fn rank_index(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile over an ascending-sorted sample: the
/// `ceil(q·n)`-th smallest value, clamped into the sample (so `q = 0`
/// still reads the minimum), and [`Duration::ZERO`] for an empty
/// sample. This is the one quantile definition shared by the per-host
/// summaries, the planner cost model, and the benches — nearest-rank,
/// never interpolated, so a reported p99 is always a value that
/// actually occurred.
pub fn nearest_rank(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[rank_index(sorted.len(), q)]
}

/// The all-time aggregate of one `(host, service, operation)`.
#[derive(Debug, Default)]
pub(crate) struct Series {
    pub(crate) ok: usize,
    pub(crate) faults: usize,
    pub(crate) transport_errors: usize,
    pub(crate) bytes_in: usize,
    pub(crate) bytes_out: usize,
    bytes_saved: usize,
    pub(crate) ref_hits: usize,
    total_duration: Duration,
    max_duration: Duration,
    /// Durations in seconds, over [`crate::metrics::LATENCY_BUCKETS`].
    pub(crate) histogram: Histogram,
}

impl Series {
    fn observe(&mut self, e: &InvocationEvent) {
        match e.outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Fault(_) => self.faults += 1,
            Outcome::TransportError => self.transport_errors += 1,
        }
        self.bytes_in += e.bytes_in;
        self.bytes_out += e.bytes_out;
        self.bytes_saved += e.bytes_saved;
        self.ref_hits += e.ref_hits;
        self.total_duration += e.duration;
        self.max_duration = self.max_duration.max(e.duration);
        self.histogram.observe(e.duration.as_secs_f64());
    }

    fn invocations(&self) -> usize {
        self.ok + self.faults + self.transport_errors
    }

    fn failures(&self) -> usize {
        self.faults + self.transport_errors
    }
}

/// One host's last [`HOST_WINDOW`] attempt durations in nanoseconds,
/// both in arrival order (to know which to evict) and sorted (to read
/// quantiles by index).
#[derive(Debug)]
struct Window {
    arrivals: VecDeque<u64>,
    sorted: Vec<u64>,
}

impl Window {
    fn new() -> Window {
        Window {
            arrivals: VecDeque::with_capacity(HOST_WINDOW),
            sorted: Vec::with_capacity(HOST_WINDOW),
        }
    }

    fn push(&mut self, d: Duration) {
        let new = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let at = self.sorted.partition_point(|&v| v <= new);
        if self.arrivals.len() < HOST_WINDOW {
            self.sorted.insert(at, new);
        } else {
            // Full: evict the oldest and insert the newest with one
            // shift of the values between their two slots.
            let old = self.arrivals.pop_front().expect("a full window");
            let gone = self
                .sorted
                .binary_search(&old)
                .expect("every arrival is in the sorted window");
            if gone < at {
                self.sorted.copy_within(gone + 1..at, gone);
                self.sorted[at - 1] = new;
            } else {
                self.sorted.copy_within(at..gone, at + 1);
                self.sorted[at] = new;
            }
        }
        self.arrivals.push_back(new);
    }

    fn quantile(&self, q: f64) -> Duration {
        if self.sorted.is_empty() {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sorted[rank_index(self.sorted.len(), q)])
    }
}

#[derive(Debug)]
struct HostTelemetry {
    window: Window,
    /// service → operation → series.
    series: BTreeMap<String, BTreeMap<String, Series>>,
}

#[derive(Debug, Default)]
struct Telemetry {
    /// Events recorded since creation or the last [`MonitorLog::clear`].
    recorded: usize,
    hosts: BTreeMap<String, HostTelemetry>,
}

impl Telemetry {
    /// Every series with its host, service and operation, in name order.
    fn series(&self) -> impl Iterator<Item = (&str, &str, &str, &Series)> {
        self.hosts.iter().flat_map(|(host, h)| {
            h.series.iter().flat_map(move |(service, ops)| {
                ops.iter()
                    .map(move |(op, s)| (host.as_str(), service.as_str(), op.as_str(), s))
            })
        })
    }
}

/// The map's value under `key`, inserting `new()` on first use. Only the
/// first use allocates the key.
fn slot<'a, V>(map: &'a mut BTreeMap<String, V>, key: &str, new: impl FnOnce() -> V) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), new());
    }
    map.get_mut(key).expect("inserted above")
}

/// A thread-safe invocation log that aggregates on record: all-time
/// per-`(host, service, operation)` series and a per-host quantile
/// window of [`HOST_WINDOW`] durations. Its memory is bounded by the
/// number of distinct series, however many events it records.
#[derive(Debug, Default)]
pub struct MonitorLog {
    telemetry: Mutex<Telemetry>,
}

impl MonitorLog {
    /// Create an empty log. Allocates nothing until the first record.
    pub fn new() -> MonitorLog {
        MonitorLog::default()
    }

    /// Aggregate one event into its series and its host's window.
    /// Allocates only when the event opens a new series (copying its
    /// names) or a new host (sizing its window); otherwise it records in
    /// place.
    pub fn record(&self, event: InvocationEvent<'_>) {
        let mut guard = self.telemetry.lock();
        let Telemetry { recorded, hosts } = &mut *guard;
        *recorded += 1;
        let host = slot(hosts, event.host, || HostTelemetry {
            window: Window::new(),
            series: BTreeMap::new(),
        });
        host.window.push(event.duration);
        let ops = slot(&mut host.series, event.service, BTreeMap::new);
        slot(ops, event.operation, Series::default).observe(&event);
    }

    /// Number of events ever recorded (since the last [`clear`]).
    ///
    /// [`clear`]: MonitorLog::clear
    pub fn len(&self) -> usize {
        self.telemetry.lock().recorded
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every event and aggregate.
    pub fn clear(&self) {
        *self.telemetry.lock() = Telemetry::default();
    }

    /// Visit every `(host, service, series)` in name order, under the
    /// log's lock.
    pub(crate) fn for_each_series(&self, mut f: impl FnMut(&str, &str, &Series)) {
        for (host, service, _, s) in self.telemetry.lock().series() {
            f(host, service, s);
        }
    }

    /// Summarise, optionally filtered by service name.
    pub fn summary(&self, service: Option<&str>) -> MonitorSummary {
        let t = self.telemetry.lock();
        let mut out = MonitorSummary::default();
        for (_, _, _, s) in t.series().filter(|e| service.is_none_or(|sv| e.1 == sv)) {
            out.invocations += s.invocations();
            out.faults += s.failures();
            out.total_duration += s.total_duration;
            out.bytes_in += s.bytes_in;
            out.bytes_out += s.bytes_out;
            out.bytes_saved += s.bytes_saved;
            out.ref_hits += s.ref_hits;
        }
        out
    }

    /// Per-operation aggregates, optionally filtered by service name
    /// and sorted by operation name. Streaming consumers read chunk
    /// wire costs here (`sendChunk` → bytes per chunk, `DataRef`
    /// substitutions for repeated chunks) without scanning raw events.
    pub fn summary_by_operation(&self, service: Option<&str>) -> Vec<OperationSummary> {
        let t = self.telemetry.lock();
        let mut ops: BTreeMap<&str, OperationSummary> = BTreeMap::new();
        for (_, _, op, s) in t.series().filter(|e| service.is_none_or(|sv| e.1 == sv)) {
            let out = ops.entry(op).or_insert_with(|| OperationSummary {
                operation: op.to_string(),
                invocations: 0,
                faults: 0,
                bytes_in: 0,
                bytes_out: 0,
                bytes_saved: 0,
                ref_hits: 0,
                total_duration: Duration::ZERO,
            });
            out.invocations += s.invocations();
            out.faults += s.failures();
            out.bytes_in += s.bytes_in;
            out.bytes_out += s.bytes_out;
            out.bytes_saved += s.bytes_saved;
            out.ref_hits += s.ref_hits;
            out.total_duration += s.total_duration;
        }
        ops.into_values().collect()
    }

    /// Per-host aggregates (failure rate, windowed p50/p95/p99, all-time
    /// max, traffic), sorted by host name. This is the feed for
    /// health-aware host selection: a host whose failure rate climbs
    /// shows up here before a breaker trips.
    pub fn summary_by_host(&self) -> Vec<HostSummary> {
        let t = self.telemetry.lock();
        t.hosts
            .iter()
            .map(|(host, h)| {
                let mut out = HostSummary {
                    host: host.clone(),
                    invocations: 0,
                    faults: 0,
                    transport_errors: 0,
                    failure_rate: 0.0,
                    p50_duration: h.window.quantile(0.50),
                    p95_duration: h.window.quantile(0.95),
                    p99_duration: h.window.quantile(0.99),
                    max_duration: Duration::ZERO,
                    bytes_in: 0,
                    bytes_out: 0,
                };
                for s in h.series.values().flat_map(BTreeMap::values) {
                    out.invocations += s.invocations();
                    out.faults += s.faults;
                    out.transport_errors += s.transport_errors;
                    out.max_duration = out.max_duration.max(s.max_duration);
                    out.bytes_in += s.bytes_in;
                    out.bytes_out += s.bytes_out;
                }
                out.failure_rate =
                    (out.faults + out.transport_errors) as f64 / out.invocations as f64;
                out
            })
            .collect()
    }
}

/// The readers as they were before aggregation moved to record time:
/// rescans of a raw event list. Kept as the reference the aggregated
/// readers are checked against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn summary(events: &[InvocationEvent<'_>], service: Option<&str>) -> MonitorSummary {
        let mut s = MonitorSummary::default();
        for e in events {
            if let Some(name) = service {
                if e.service != name {
                    continue;
                }
            }
            s.invocations += 1;
            if e.outcome.is_failure() {
                s.faults += 1;
            }
            s.total_duration += e.duration;
            s.bytes_in += e.bytes_in;
            s.bytes_out += e.bytes_out;
            s.bytes_saved += e.bytes_saved;
            s.ref_hits += e.ref_hits;
        }
        s
    }

    pub(crate) fn summary_by_operation(
        events: &[InvocationEvent<'_>],
        service: Option<&str>,
    ) -> Vec<OperationSummary> {
        let mut ops: Vec<&str> = events
            .iter()
            .filter(|e| service.is_none_or(|s| e.service == s))
            .map(|e| e.operation)
            .collect();
        ops.sort_unstable();
        ops.dedup();

        ops.into_iter()
            .map(|op| {
                let mut s = OperationSummary {
                    operation: op.to_string(),
                    invocations: 0,
                    faults: 0,
                    bytes_in: 0,
                    bytes_out: 0,
                    bytes_saved: 0,
                    ref_hits: 0,
                    total_duration: Duration::ZERO,
                };
                for e in events
                    .iter()
                    .filter(|e| e.operation == op && service.is_none_or(|sv| e.service == sv))
                {
                    s.invocations += 1;
                    if e.outcome.is_failure() {
                        s.faults += 1;
                    }
                    s.bytes_in += e.bytes_in;
                    s.bytes_out += e.bytes_out;
                    s.bytes_saved += e.bytes_saved;
                    s.ref_hits += e.ref_hits;
                    s.total_duration += e.duration;
                }
                s
            })
            .collect()
    }

    pub(crate) fn summary_by_host(events: &[InvocationEvent<'_>]) -> Vec<HostSummary> {
        let mut hosts: Vec<&str> = events.iter().map(|e| e.host).collect();
        hosts.sort_unstable();
        hosts.dedup();

        hosts
            .into_iter()
            .map(|host| {
                let mut durations: Vec<Duration> = Vec::new();
                let mut s = HostSummary {
                    host: host.to_string(),
                    invocations: 0,
                    faults: 0,
                    transport_errors: 0,
                    failure_rate: 0.0,
                    p50_duration: Duration::ZERO,
                    p95_duration: Duration::ZERO,
                    p99_duration: Duration::ZERO,
                    max_duration: Duration::ZERO,
                    bytes_in: 0,
                    bytes_out: 0,
                };
                for e in events.iter().filter(|e| e.host == host) {
                    s.invocations += 1;
                    match &e.outcome {
                        Outcome::Ok => {}
                        Outcome::Fault(_) => s.faults += 1,
                        Outcome::TransportError => s.transport_errors += 1,
                    }
                    durations.push(e.duration);
                    s.max_duration = s.max_duration.max(e.duration);
                    s.bytes_in += e.bytes_in;
                    s.bytes_out += e.bytes_out;
                }
                durations.sort_unstable();
                s.p50_duration = nearest_rank(&durations, 0.50);
                s.p95_duration = nearest_rank(&durations, 0.95);
                s.p99_duration = nearest_rank(&durations, 0.99);
                s.failure_rate = (s.faults + s.transport_errors) as f64 / s.invocations as f64;
                s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use proptest::prelude::*;

    fn event<'a>(service: &'a str, outcome: Outcome<'a>) -> InvocationEvent<'a> {
        InvocationEvent {
            host: "h",
            service,
            operation: "op",
            duration: Duration::from_millis(5),
            bytes_in: 100,
            bytes_out: 50,
            bytes_saved: 0,
            ref_hits: 0,
            outcome,
        }
    }

    #[test]
    fn record_and_snapshot() {
        let log = MonitorLog::new();
        assert!(log.is_empty());
        log.record(event("A", Outcome::Ok));
        log.record(event("B", Outcome::Fault("Server")));
        assert_eq!(log.len(), 2);
        assert_eq!(log.summary(None).invocations, 2);
        assert_eq!(log.summary(None).faults, 1);
    }

    #[test]
    fn summary_totals() {
        let log = MonitorLog::new();
        for _ in 0..3 {
            log.record(event("A", Outcome::Ok));
        }
        log.record(event("A", Outcome::Fault("Server")));
        let s = log.summary(None);
        assert_eq!(s.invocations, 4);
        assert_eq!(s.faults, 1);
        assert_eq!(s.bytes_in, 400);
        assert_eq!(s.total_duration, Duration::from_millis(20));
    }

    #[test]
    fn summary_filters_by_service() {
        let log = MonitorLog::new();
        log.record(event("A", Outcome::Ok));
        log.record(event("B", Outcome::Ok));
        assert_eq!(log.summary(Some("A")).invocations, 1);
        assert_eq!(log.summary(Some("C")).invocations, 0);
    }

    #[test]
    fn summary_by_host_aggregates_and_sorts() {
        let log = MonitorLog::new();
        let on = |host: &str, ms: u64, outcome: Outcome| {
            let mut e = event("A", outcome);
            e.host = host;
            e.duration = Duration::from_millis(ms);
            log.record(e);
        };
        on("b", 10, Outcome::Ok);
        on("a", 2, Outcome::Ok);
        on("a", 4, Outcome::TransportError);
        on("a", 6, Outcome::Fault("Server"));
        on("a", 8, Outcome::Ok);

        let hosts = log.summary_by_host();
        assert_eq!(hosts.len(), 2);
        let a = &hosts[0];
        assert_eq!(a.host, "a");
        assert_eq!(a.invocations, 4);
        assert_eq!(a.faults, 1);
        assert_eq!(a.transport_errors, 1);
        assert!((a.failure_rate - 0.5).abs() < 1e-12);
        // Nearest-rank median of [2,4,6,8] ms is the 2nd sample, 4 ms.
        assert_eq!(a.p50_duration, Duration::from_millis(4));
        assert_eq!(a.max_duration, Duration::from_millis(8));
        let b = &hosts[1];
        assert_eq!(b.host, "b");
        assert!((b.failure_rate - 0.0).abs() < 1e-12);
    }

    #[test]
    fn p50_is_nearest_rank_not_upper_median() {
        // Two wildly different samples: the nearest-rank median is the
        // lower one. The pre-fix `durations[len / 2]` picked the upper
        // (9 ms) — this test fails on that code.
        let log = MonitorLog::new();
        for ms in [1, 9] {
            let mut e = event("A", Outcome::Ok);
            e.duration = Duration::from_millis(ms);
            log.record(e);
        }
        let hosts = log.summary_by_host();
        assert_eq!(hosts[0].p50_duration, Duration::from_millis(1));
        // Odd-length samples agree under both definitions.
        let mut e = event("A", Outcome::Ok);
        e.duration = Duration::from_millis(5);
        log.record(e);
        assert_eq!(
            log.summary_by_host()[0].p50_duration,
            Duration::from_millis(5)
        );
    }

    #[test]
    fn p99_is_nearest_rank_tail() {
        let log = MonitorLog::new();
        for ms in 1..=100 {
            let mut e = event("A", Outcome::Ok);
            e.duration = Duration::from_millis(ms);
            log.record(e);
        }
        let hosts = log.summary_by_host();
        // Nearest-rank p99 of 1..=100 ms is the 99th sample, not max.
        assert_eq!(hosts[0].p99_duration, Duration::from_millis(99));
        assert_eq!(hosts[0].max_duration, Duration::from_millis(100));
        // A single sample is its own p50/p99/max.
        let solo = MonitorLog::new();
        let mut e = event("B", Outcome::Ok);
        e.duration = Duration::from_millis(7);
        solo.record(e);
        let s = &solo.summary_by_host()[0];
        assert_eq!(
            (s.p50_duration, s.p99_duration, s.max_duration),
            (
                Duration::from_millis(7),
                Duration::from_millis(7),
                Duration::from_millis(7)
            )
        );
    }

    #[test]
    fn nearest_rank_boundary_windows() {
        let ms = |v: u64| Duration::from_millis(v);
        // 0 samples: every quantile reads zero instead of panicking.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(nearest_rank(&[], q), Duration::ZERO);
        }
        // 1 sample: it is its own p50/p95/p99 (rank clamps into the
        // sample even when ceil(q·n) rounds to 0).
        let one = [ms(7)];
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(nearest_rank(&one, q), ms(7));
        }
        // 2 samples: the median is the *lower* sample (ceil(1.0) = 1),
        // while p95 and p99 both read the upper one (ceil(1.9) =
        // ceil(1.98) = 2). An interpolating or upper-median definition
        // would disagree on at least one of these.
        let two = [ms(1), ms(9)];
        assert_eq!(nearest_rank(&two, 0.50), ms(1));
        assert_eq!(nearest_rank(&two, 0.95), ms(9));
        assert_eq!(nearest_rank(&two, 0.99), ms(9));
    }

    #[test]
    fn host_summary_tail_quantiles_on_tiny_windows() {
        // 1-sample window: p50 = p95 = p99 = max.
        let log = MonitorLog::new();
        let mut e = event("A", Outcome::Ok);
        e.duration = Duration::from_millis(3);
        log.record(e);
        let s = &log.summary_by_host()[0];
        assert_eq!(s.p50_duration, Duration::from_millis(3));
        assert_eq!(s.p95_duration, Duration::from_millis(3));
        assert_eq!(s.p99_duration, Duration::from_millis(3));

        // 2-sample window: p50 takes the lower sample, p95/p99 the
        // upper.
        let mut e = event("A", Outcome::Ok);
        e.duration = Duration::from_millis(11);
        log.record(e);
        let s = &log.summary_by_host()[0];
        assert_eq!(s.p50_duration, Duration::from_millis(3));
        assert_eq!(s.p95_duration, Duration::from_millis(11));
        assert_eq!(s.p99_duration, Duration::from_millis(11));
    }

    #[test]
    fn p95_separates_from_p99_at_scale() {
        let log = MonitorLog::new();
        for ms in 1..=100 {
            let mut e = event("A", Outcome::Ok);
            e.duration = Duration::from_millis(ms);
            log.record(e);
        }
        let s = &log.summary_by_host()[0];
        assert_eq!(s.p95_duration, Duration::from_millis(95));
        assert_eq!(s.p99_duration, Duration::from_millis(99));
    }

    #[test]
    fn transport_errors_count_as_failures_in_summary() {
        let log = MonitorLog::new();
        log.record(event("A", Outcome::TransportError));
        assert_eq!(log.summary(None).faults, 1);
        assert!(Outcome::TransportError.is_failure());
        assert!(!Outcome::Ok.is_failure());
    }

    #[test]
    fn clear_resets() {
        let log = MonitorLog::new();
        log.record(event("A", Outcome::Ok));
        log.clear();
        assert!(log.is_empty());
        assert!(log.summary_by_host().is_empty());
        assert_eq!(log.summary(None), MonitorSummary::default());
    }

    /// Durations drawn from a small set so that ties are common; they
    /// span the histogram from its first bucket to its overflow bucket.
    const DURATIONS_US: [u64; 9] = [0, 50, 100, 100, 400, 1_000, 3_000, 80_000, 11_000_000];

    /// One generated event: host, service, operation, outcome, duration
    /// and traffic, each from a small domain.
    fn events(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<InvocationEvent<'static>>> {
        proptest::collection::vec(
            (
                (0usize..3, 0usize..3, 0usize..3),
                0usize..3,
                0usize..DURATIONS_US.len(),
                (0usize..5_000, 0usize..5_000, 0usize..3_000, 0usize..3),
            ),
            len,
        )
        .prop_map(|draws| {
            draws
                .into_iter()
                .map(
                    |((h, s, o), outcome, d, (bytes_in, bytes_out, saved, refs))| InvocationEvent {
                        host: ["host-a", "host-b", "host-c"][h],
                        service: ["Classifier", "Clusterer", "DataStream"][s],
                        operation: ["classify", "cluster", "sendChunk"][o],
                        duration: Duration::from_micros(DURATIONS_US[d]),
                        bytes_in,
                        bytes_out,
                        bytes_saved: saved,
                        ref_hits: refs,
                        outcome: match outcome {
                            0 => Outcome::Ok,
                            1 => Outcome::Fault("Server"),
                            _ => Outcome::TransportError,
                        },
                    },
                )
                .collect()
        })
    }

    fn log_of(events: &[InvocationEvent<'_>]) -> MonitorLog {
        let log = MonitorLog::new();
        for e in events {
            log.record(e.clone());
        }
        log
    }

    /// The oracle's per-host view with quantiles taken over each host's
    /// last [`HOST_WINDOW`] events and everything else over all events.
    fn windowed_oracle(events: &[InvocationEvent<'_>]) -> Vec<HostSummary> {
        oracle::summary_by_host(events)
            .into_iter()
            .map(|mut all_time| {
                let of_host: Vec<InvocationEvent> = events
                    .iter()
                    .filter(|e| e.host == all_time.host)
                    .cloned()
                    .collect();
                let recent = &of_host[of_host.len().saturating_sub(HOST_WINDOW)..];
                let w = &oracle::summary_by_host(recent)[0];
                all_time.p50_duration = w.p50_duration;
                all_time.p95_duration = w.p95_duration;
                all_time.p99_duration = w.p99_duration;
                all_time
            })
            .collect()
    }

    /// Prometheus text of a registry fed by the aggregated log and by
    /// the per-event replay: equal line for line, except that a
    /// histogram `_sum` may differ in the order its f64 terms were
    /// added.
    fn assert_exports_match(aggregated: &str, replayed: &str) {
        let (a, r): (Vec<&str>, Vec<&str>) =
            (aggregated.lines().collect(), replayed.lines().collect());
        assert_eq!(a.len(), r.len(), "{aggregated}\n---\n{replayed}");
        for (x, y) in a.iter().zip(&r) {
            if x.contains("_sum{") {
                let (kx, vx) = x.rsplit_once(' ').unwrap();
                let (ky, vy) = y.rsplit_once(' ').unwrap();
                assert_eq!(kx, ky);
                let (vx, vy): (f64, f64) = (vx.parse().unwrap(), vy.parse().unwrap());
                assert!((vx - vy).abs() <= 1e-9 * vx.abs().max(1.0), "{x} vs {y}");
            } else {
                assert_eq!(x, y);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn aggregates_equal_the_rescanning_oracle(events in events(0..400)) {
            let log = log_of(&events);
            prop_assert_eq!(log.len(), events.len());
            for service in [None, Some("Classifier"), Some("DataStream"), Some("absent")] {
                prop_assert_eq!(log.summary(service), oracle::summary(&events, service));
                prop_assert_eq!(
                    log.summary_by_operation(service),
                    oracle::summary_by_operation(&events, service)
                );
            }
            prop_assert_eq!(log.summary_by_host(), oracle::summary_by_host(&events));

            let aggregated = MetricsRegistry::new();
            aggregated.ingest_monitor(&log);
            let replayed = MetricsRegistry::new();
            crate::metrics::oracle::ingest_monitor(&replayed, &events);
            assert_exports_match(&aggregated.export_prometheus(), &replayed.export_prometheus());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn quantiles_track_the_last_window_of_each_host(
            events in events(HOST_WINDOW * 4 / 3 + 1..HOST_WINDOW * 4 / 3 + 1_500)
        ) {
            // Three in four events land on host-a, so it passes the
            // window; the others stay within it. Durations drift upwards
            // (keeping their ties), so the last window's quantiles differ
            // from any earlier window's.
            let mut events = events;
            for (i, e) in events.iter_mut().enumerate() {
                if i % 4 != 0 {
                    e.host = "host-a";
                }
                e.duration += Duration::from_millis((i / 256) as u64);
            }
            let log = log_of(&events);
            let hosts = log.summary_by_host();
            prop_assert!(hosts[0].invocations > HOST_WINDOW);
            prop_assert_eq!(hosts, windowed_oracle(&events));
            prop_assert_eq!(log.summary(None), oracle::summary(&events, None));
            prop_assert_eq!(
                log.summary_by_operation(None),
                oracle::summary_by_operation(&events, None)
            );

            let aggregated = MetricsRegistry::new();
            aggregated.ingest_monitor(&log);
            let replayed = MetricsRegistry::new();
            crate::metrics::oracle::ingest_monitor(&replayed, &events);
            assert_exports_match(&aggregated.export_prometheus(), &replayed.export_prometheus());
        }
    }

    #[test]
    fn a_long_run_stays_bounded() {
        const RECORDS: usize = 100_000;
        let hosts = ["host-a", "host-b", "host-c"];
        let services = ["Classifier", "Clusterer"];
        let ops = ["classify", "cluster", "sendChunk"];
        let log = MonitorLog::new();
        for i in 0..RECORDS {
            log.record(InvocationEvent {
                host: hosts[i % 3],
                service: services[i / 3 % 2],
                operation: ops[i / 7 % 3],
                duration: Duration::from_micros((i * 7_919 % 5_003) as u64),
                bytes_in: 1,
                bytes_out: 2,
                bytes_saved: 0,
                ref_hits: 0,
                outcome: Outcome::Ok,
            });
        }
        assert_eq!(log.len(), RECORDS);
        assert_eq!(log.summary(None).invocations, RECORDS);
        assert_eq!(log.summary(None).bytes_out, 2 * RECORDS);
        let t = log.telemetry.lock();
        for h in t.hosts.values() {
            assert!(h.window.sorted.len() <= HOST_WINDOW);
            assert_eq!(h.window.sorted.len(), h.window.arrivals.len());
            assert!(h.window.sorted.is_sorted());
        }
        assert_eq!(t.series().count(), hosts.len() * services.len() * ops.len());
    }

    #[test]
    fn new_allocates_nothing_and_a_full_log_records_in_place() {
        let log = MonitorLog::new();
        assert!(log.telemetry.lock().hosts.is_empty());
        let capacities = |log: &MonitorLog| {
            let t = log.telemetry.lock();
            let h = &t.hosts["h"];
            (h.window.arrivals.capacity(), h.window.sorted.capacity())
        };
        let record = |i: usize| {
            let mut e = event("A", Outcome::Ok);
            e.duration = Duration::from_micros(i as u64 % 97);
            log.record(e);
        };
        record(0);
        // The window is sized when its host opens and then stays put,
        // through filling and past it.
        let opened = capacities(&log);
        for i in 1..2 * HOST_WINDOW {
            record(i);
        }
        assert_eq!(capacities(&log), opened);
        assert_eq!(log.len(), 2 * HOST_WINDOW);
    }
}

//! A metrics registry absorbing the toolkit's scattered counters —
//! [`crate::monitor::MonitorLog`] invocation events,
//! [`crate::transport::WireStats`] wire accounting, and
//! [`crate::dataplane::CacheStats`] from the attachment/model/memo
//! caches — into one namespace of counters, gauges, and fixed-bucket
//! latency histograms, exported as a JSON snapshot or Prometheus text.
//!
//! Quantiles (p50/p95/p99) are computed nearest-rank over the
//! cumulative bucket counts and reported as the upper bound of the
//! bucket holding the ranked observation — the same nearest-rank
//! definition [`crate::monitor::MonitorLog::summary_by_host`] uses for
//! its median.
//!
//! Every `ingest_*` call reads an absolute snapshot and *sets* the
//! series it covers, so ingesting the same snapshot twice exports the
//! same values as ingesting it once. Sources this crate does not depend
//! on (the compute pool, the run journal) are written the same way, by
//! the scraper, through [`MetricsRegistry::set_counter`] and
//! [`MetricsRegistry::set_gauge`].

use crate::container::LoadStats;
use crate::dataplane::CacheStats;
use crate::monitor::MonitorLog;
use crate::transport::WireStats;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Sorted label key/value pairs identifying one series of a metric.
pub type LabelSet = Vec<(String, String)>;

/// Histogram bucket upper bounds in seconds: log-spaced from 100 µs to
/// 10 s, covering the simulated network's base latency (500 µs) up to
/// multi-second dataset transfers.
pub const LATENCY_BUCKETS: [f64; 16] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// One fixed-bucket histogram series.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Observation counts per bucket of [`LATENCY_BUCKETS`], plus a
    /// final overflow (+Inf) bucket.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram over [`LATENCY_BUCKETS`]. Public so other
    /// layers (the monitor log's series, the container's
    /// admission-control load state) can pre-aggregate observations
    /// that the registry later exports without replaying them.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; LATENCY_BUCKETS.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Record one observation (in seconds).
    pub fn observe(&mut self, value: f64) {
        let idx = LATENCY_BUCKETS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.buckets[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Add another histogram's observations, bucket by bucket.
    fn absorb(&mut self, other: &Histogram) {
        for (bucket, add) in self.buckets.iter_mut().zip(&other.buckets) {
            *bucket += add;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// containing the `ceil(q·n)`-th observation (`None` when empty).
    /// Observations past the last bound report that bound — a floor,
    /// not an estimate, which is the honest answer a fixed-bucket
    /// histogram can give.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return Some(
                    LATENCY_BUCKETS
                        .get(idx)
                        .copied()
                        .unwrap_or(LATENCY_BUCKETS[LATENCY_BUCKETS.len() - 1]),
                );
            }
        }
        None
    }
}

#[derive(Debug)]
enum Metric {
    Counter(BTreeMap<LabelSet, u64>),
    Gauge(BTreeMap<LabelSet, f64>),
    Histogram(BTreeMap<LabelSet, Histogram>),
}

/// A thread-safe registry of named metrics, each fanned out by label
/// set. Names are sorted in exports, so output is deterministic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

fn labels_of(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to a counter series (created at 0 on first touch).
    pub fn inc_counter(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(BTreeMap::new()));
        if let Metric::Counter(series) = metric {
            *series.entry(labels_of(labels)).or_insert(0) += delta;
        }
    }

    /// Set a counter series to an absolute `value` read from a snapshot.
    pub fn set_counter(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(BTreeMap::new()));
        if let Metric::Counter(series) = metric {
            series.insert(labels_of(labels), value);
        }
    }

    /// Set a gauge series to `value`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(BTreeMap::new()));
        if let Metric::Gauge(series) = metric {
            series.insert(labels_of(labels), value);
        }
    }

    /// Record one observation (in seconds) into a histogram series.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], seconds: f64) {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(BTreeMap::new()));
        if let Metric::Histogram(series) = metric {
            series
                .entry(labels_of(labels))
                .or_insert_with(Histogram::new)
                .observe(seconds);
        }
    }

    /// Set a histogram series to a pre-aggregated [`Histogram`]. This
    /// is how the monitor log's latency series and the container's
    /// queue-wait distributions reach the registry without replaying
    /// every observation.
    fn set_histogram(&self, name: &str, labels: &[(&str, &str)], h: Histogram) {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(BTreeMap::new()));
        if let Metric::Histogram(series) = metric {
            series.insert(labels_of(labels), h);
        }
    }

    /// Ingest one host's admission-control [`LoadStats`]: admitted /
    /// queued / shed counters, a queue-depth gauge, and the
    /// queueing-delay histogram, all labelled by host.
    pub fn ingest_load(&self, host: &str, stats: &LoadStats) {
        let labels = [("host", host)];
        self.set_counter("faehim_requests_admitted_total", &labels, stats.admitted);
        self.set_counter("faehim_requests_queued_total", &labels, stats.queued);
        self.set_counter("faehim_requests_shed_total", &labels, stats.shed);
        self.set_gauge("faehim_queue_depth", &labels, stats.in_system as f64);
        self.set_histogram(
            "faehim_queueing_delay_seconds",
            &labels,
            stats.queue_waits.clone(),
        );
    }

    /// Current value of a counter series (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.metrics.lock().get(name) {
            Some(Metric::Counter(series)) => series.get(&labels_of(labels)).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Current value of a gauge series.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.metrics.lock().get(name) {
            Some(Metric::Gauge(series)) => series.get(&labels_of(labels)).copied(),
            _ => None,
        }
    }

    /// Quantile estimate of a histogram series.
    pub fn histogram_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        match self.metrics.lock().get(name) {
            Some(Metric::Histogram(series)) => series.get(&labels_of(labels))?.quantile(q),
            _ => None,
        }
    }

    /// Ingest a [`MonitorLog`]'s all-time aggregates: per-service ×
    /// host × outcome counters, a per-service latency histogram, and
    /// per-service wire-byte / ref-hit counters. Reads the log's
    /// `(host, service, operation)` series, never its events, so a
    /// scrape costs O(series) however long the log has been recording.
    pub fn ingest_monitor(&self, log: &MonitorLog) {
        #[derive(Default)]
        struct PerService {
            /// host → ok / fault / transport-error counts.
            outcomes: BTreeMap<String, [u64; 3]>,
            latency: Histogram,
            bytes_in: u64,
            bytes_out: u64,
            ref_hits: u64,
        }
        let mut services: BTreeMap<String, PerService> = BTreeMap::new();
        log.for_each_series(|host, service, s| {
            let per = services.entry(service.to_string()).or_default();
            let counts = per.outcomes.entry(host.to_string()).or_default();
            counts[0] += s.ok as u64;
            counts[1] += s.faults as u64;
            counts[2] += s.transport_errors as u64;
            per.latency.absorb(&s.histogram);
            per.bytes_in += s.bytes_in as u64;
            per.bytes_out += s.bytes_out as u64;
            per.ref_hits += s.ref_hits as u64;
        });
        for (service, per) in services {
            let service = service.as_str();
            for (host, counts) in &per.outcomes {
                for (outcome, &n) in ["ok", "fault", "transport-error"].iter().zip(&counts[..]) {
                    if n > 0 {
                        self.set_counter(
                            "faehim_invocations_total",
                            &[("service", service), ("host", host), ("outcome", outcome)],
                            n,
                        );
                    }
                }
            }
            self.set_histogram(
                "faehim_invocation_duration_seconds",
                &[("service", service)],
                per.latency,
            );
            self.set_counter(
                "faehim_invocation_bytes_total",
                &[("service", service), ("direction", "in")],
                per.bytes_in,
            );
            self.set_counter(
                "faehim_invocation_bytes_total",
                &[("service", service), ("direction", "out")],
                per.bytes_out,
            );
            self.set_counter(
                "faehim_invocation_ref_hits_total",
                &[("service", service)],
                per.ref_hits,
            );
        }
    }

    /// Ingest a [`WireStats`] snapshot as absolute counters.
    pub fn ingest_wire(&self, wire: &WireStats) {
        self.set_counter("faehim_wire_envelopes_total", &[], wire.envelopes);
        self.set_counter("faehim_wire_bytes_total", &[], wire.bytes);
        self.set_counter("faehim_wire_bytes_saved_total", &[], wire.bytes_saved);
        self.set_counter(
            "faehim_wire_ref_substitutions_total",
            &[],
            wire.ref_substitutions,
        );
    }

    /// Ingest a cache's [`CacheStats`] under a `cache` label (e.g. the
    /// per-host attachment stores, the classifier model/eval caches, or
    /// the workflow memo cache).
    pub fn ingest_cache(&self, cache: &str, labels: &[(&str, &str)], stats: &CacheStats) {
        let mut all: Vec<(&str, &str)> = labels.to_vec();
        all.push(("cache", cache));
        for (event, value) in [
            ("lookups", stats.lookups),
            ("hits", stats.hits),
            ("misses", stats.misses),
            ("insertions", stats.insertions),
            ("evictions", stats.evictions),
        ] {
            let mut with_event = all.clone();
            with_event.push(("event", event));
            self.set_counter("faehim_cache_events_total", &with_event, value);
        }
        let mut gauge_labels = all.clone();
        gauge_labels.push(("unit", "entries"));
        self.set_gauge("faehim_cache_size", &gauge_labels, stats.entries as f64);
        let mut byte_labels = all;
        byte_labels.push(("unit", "bytes"));
        self.set_gauge("faehim_cache_size", &byte_labels, stats.bytes as f64);
    }

    /// Prometheus text exposition: `# TYPE` lines, one sample line per
    /// series, and for histograms the `_bucket`/`_sum`/`_count` series
    /// plus summary-style p50/p95/p99 `quantile` samples.
    pub fn export_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, metric) in self.metrics.lock().iter() {
            match metric {
                Metric::Counter(series) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    for (labels, value) in series {
                        let _ = writeln!(out, "{name}{} {value}", prom_labels(labels, &[]));
                    }
                }
                Metric::Gauge(series) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    for (labels, value) in series {
                        let _ = writeln!(out, "{name}{} {value}", prom_labels(labels, &[]));
                    }
                }
                Metric::Histogram(series) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    for (labels, h) in series {
                        let mut cumulative = 0;
                        for (idx, &bucket) in h.buckets.iter().enumerate() {
                            cumulative += bucket;
                            let le = LATENCY_BUCKETS
                                .get(idx)
                                .map(|b| format!("{b}"))
                                .unwrap_or_else(|| "+Inf".to_string());
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                prom_labels(labels, &[("le", &le)])
                            );
                        }
                        let _ = writeln!(out, "{name}_sum{} {}", prom_labels(labels, &[]), h.sum);
                        let _ =
                            writeln!(out, "{name}_count{} {}", prom_labels(labels, &[]), h.count);
                        for q in [0.5, 0.95, 0.99] {
                            if let Some(estimate) = h.quantile(q) {
                                let _ = writeln!(
                                    out,
                                    "{name}{} {estimate}",
                                    prom_labels(labels, &[("quantile", &format!("{q}"))])
                                );
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// JSON snapshot: counters and gauges as label→value series,
    /// histograms with count, sum, and p50/p95/p99.
    pub fn export_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let metrics = self.metrics.lock();
        for (i, (name, metric)) in metrics.iter().enumerate() {
            let _ = write!(out, "  {}: ", json_string(name));
            match metric {
                Metric::Counter(series) => {
                    json_series(&mut out, series.iter().map(|(l, v)| (l, v.to_string())));
                }
                Metric::Gauge(series) => {
                    json_series(&mut out, series.iter().map(|(l, v)| (l, json_f64(*v))));
                }
                Metric::Histogram(series) => {
                    out.push_str("[\n");
                    for (j, (labels, h)) in series.iter().enumerate() {
                        out.push_str("    {\"labels\": ");
                        json_labels(&mut out, labels);
                        let _ = write!(
                            out,
                            ", \"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                            h.count,
                            json_f64(h.sum),
                            json_quantile(h, 0.5),
                            json_quantile(h, 0.95),
                            json_quantile(h, 0.99),
                        );
                        out.push_str(if j + 1 < series.len() { ",\n" } else { "\n" });
                    }
                    out.push_str("  ]");
                }
            }
            out.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
        }
        out.push('}');
        out
    }
}

fn prom_labels(labels: &LabelSet, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_quantile(h: &Histogram, q: f64) -> String {
    h.quantile(q)
        .map(json_f64)
        .unwrap_or_else(|| "null".to_string())
}

fn json_labels(out: &mut String, labels: &LabelSet) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_string(k));
        out.push_str(": ");
        out.push_str(&json_string(v));
    }
    out.push('}');
}

fn json_series<'a>(out: &mut String, series: impl Iterator<Item = (&'a LabelSet, String)>) {
    out.push_str("[\n");
    let rows: Vec<(&LabelSet, String)> = series.collect();
    for (j, (labels, value)) in rows.iter().enumerate() {
        out.push_str("    {\"labels\": ");
        json_labels(out, labels);
        out.push_str(", \"value\": ");
        out.push_str(value);
        out.push('}');
        out.push_str(if j + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
}

/// `ingest_monitor` as it was before the monitor log aggregated on
/// record: a replay of raw events. Kept as the reference the
/// aggregated export is checked against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::MetricsRegistry;
    use crate::monitor::{InvocationEvent, Outcome};

    pub(crate) fn ingest_monitor(registry: &MetricsRegistry, events: &[InvocationEvent<'_>]) {
        for event in events {
            let outcome = match &event.outcome {
                Outcome::Ok => "ok",
                Outcome::Fault(_) => "fault",
                Outcome::TransportError => "transport-error",
            };
            registry.inc_counter(
                "faehim_invocations_total",
                &[
                    ("service", event.service),
                    ("host", event.host),
                    ("outcome", outcome),
                ],
                1,
            );
            registry.observe(
                "faehim_invocation_duration_seconds",
                &[("service", event.service)],
                event.duration.as_secs_f64(),
            );
            registry.inc_counter(
                "faehim_invocation_bytes_total",
                &[("service", event.service), ("direction", "in")],
                event.bytes_in as u64,
            );
            registry.inc_counter(
                "faehim_invocation_bytes_total",
                &[("service", event.service), ("direction", "out")],
                event.bytes_out as u64,
            );
            registry.inc_counter(
                "faehim_invocation_ref_hits_total",
                &[("service", event.service)],
                event.ref_hits as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{InvocationEvent, Outcome};
    use std::time::Duration;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let m = MetricsRegistry::new();
        m.inc_counter("calls", &[("service", "A")], 2);
        m.inc_counter("calls", &[("service", "A")], 3);
        m.inc_counter("calls", &[("service", "B")], 1);
        m.set_gauge("depth", &[], 4.5);
        assert_eq!(m.counter_value("calls", &[("service", "A")]), 5);
        assert_eq!(m.counter_value("calls", &[("service", "B")]), 1);
        assert_eq!(m.counter_value("calls", &[("service", "C")]), 0);
        assert_eq!(m.gauge_value("depth", &[]), Some(4.5));
        // Label order is normalised.
        m.inc_counter("multi", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(m.counter_value("multi", &[("a", "1"), ("b", "2")]), 1);
    }

    #[test]
    fn histogram_quantiles_are_nearest_rank_bucket_bounds() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        // 8 fast observations, 2 slow: p50 in the fast bucket, p95/p99
        // in the slow one.
        for _ in 0..8 {
            h.observe(0.0004); // ≤ 0.0005
        }
        for _ in 0..2 {
            h.observe(0.08); // ≤ 0.1
        }
        assert_eq!(h.quantile(0.5), Some(0.0005));
        assert_eq!(h.quantile(0.95), Some(0.1));
        assert_eq!(h.quantile(0.99), Some(0.1));
        assert_eq!(h.count, 10);
        // Overflow observations floor at the last finite bound.
        let mut over = Histogram::new();
        over.observe(99.0);
        assert_eq!(over.quantile(0.5), Some(10.0));
    }

    #[test]
    fn even_sample_median_uses_lower_of_the_middle_pair() {
        // Two observations in different buckets: nearest-rank p50 is
        // the first (rank ceil(0.5·2) = 1), not the second.
        let mut h = Histogram::new();
        h.observe(0.0004);
        h.observe(0.08);
        assert_eq!(h.quantile(0.5), Some(0.0005));
    }

    #[test]
    fn monitor_ingestion_builds_per_service_series() {
        let log = MonitorLog::new();
        for (service, ms, outcome) in [
            ("Classifier", 4, Outcome::Ok),
            ("Classifier", 6, Outcome::Ok),
            ("Clusterer", 2, Outcome::Fault("Server")),
        ] {
            log.record(InvocationEvent {
                host: "h",
                service,
                operation: "op",
                duration: Duration::from_millis(ms),
                bytes_in: 100,
                bytes_out: 10,
                bytes_saved: 0,
                ref_hits: 1,
                outcome,
            });
        }
        let m = MetricsRegistry::new();
        m.ingest_monitor(&log);
        assert_eq!(
            m.counter_value(
                "faehim_invocations_total",
                &[("service", "Classifier"), ("host", "h"), ("outcome", "ok")]
            ),
            2
        );
        assert_eq!(
            m.counter_value(
                "faehim_invocations_total",
                &[
                    ("service", "Clusterer"),
                    ("host", "h"),
                    ("outcome", "fault")
                ]
            ),
            1
        );
        assert!(m
            .histogram_quantile(
                "faehim_invocation_duration_seconds",
                &[("service", "Classifier")],
                0.5
            )
            .is_some());
    }

    #[test]
    fn wire_and_cache_ingestion() {
        let m = MetricsRegistry::new();
        m.ingest_wire(&WireStats {
            envelopes: 4,
            bytes: 1000,
            bytes_saved: 300,
            ref_substitutions: 2,
            serialisations: 4,
        });
        assert_eq!(m.counter_value("faehim_wire_bytes_total", &[]), 1000);
        assert_eq!(m.counter_value("faehim_wire_bytes_saved_total", &[]), 300);
        m.ingest_cache(
            "attachments",
            &[("host", "h")],
            &CacheStats {
                lookups: 10,
                hits: 7,
                misses: 3,
                insertions: 3,
                evictions: 1,
                entries: 2,
                bytes: 2048,
            },
        );
        assert_eq!(
            m.counter_value(
                "faehim_cache_events_total",
                &[("host", "h"), ("cache", "attachments"), ("event", "hits")]
            ),
            7
        );
        assert_eq!(
            m.gauge_value(
                "faehim_cache_size",
                &[("host", "h"), ("cache", "attachments"), ("unit", "bytes")]
            ),
            Some(2048.0)
        );
    }

    #[test]
    fn ingesting_every_snapshot_twice_exports_what_once_does() {
        let log = MonitorLog::new();
        for (host, outcome) in [
            ("a", Outcome::Ok),
            ("a", Outcome::Fault("Server")),
            ("b", Outcome::TransportError),
        ] {
            log.record(InvocationEvent {
                host,
                service: "Classifier",
                operation: "classify",
                duration: Duration::from_millis(3),
                bytes_in: 100,
                bytes_out: 10,
                bytes_saved: 40,
                ref_hits: 1,
                outcome,
            });
        }
        let mut queue_waits = Histogram::new();
        queue_waits.observe(0.002);
        let load = LoadStats {
            admitted: 5,
            queued: 2,
            shed: 1,
            total_queue_wait: Duration::from_millis(4),
            in_system: 3,
            queue_waits,
        };
        let ingest = |m: &MetricsRegistry| {
            m.ingest_monitor(&log);
            m.ingest_wire(&WireStats {
                envelopes: 4,
                bytes: 1000,
                bytes_saved: 300,
                ref_substitutions: 2,
                serialisations: 4,
            });
            m.ingest_cache(
                "model",
                &[("service", "Classifier")],
                &CacheStats {
                    lookups: 10,
                    hits: 7,
                    misses: 3,
                    insertions: 3,
                    evictions: 1,
                    entries: 2,
                    bytes: 2048,
                },
            );
            m.ingest_load("a", &load);
            m.set_counter("faehim_pool_tasks_total", &[], 12);
            m.set_gauge("faehim_pool_threads", &[], 2.0);
        };
        let once = MetricsRegistry::new();
        ingest(&once);
        let twice = MetricsRegistry::new();
        ingest(&twice);
        ingest(&twice);
        assert_eq!(twice.export_prometheus(), once.export_prometheus());
        assert_eq!(twice.export_json(), once.export_json());
        assert_eq!(once.counter_value("faehim_wire_bytes_total", &[]), 1000);
        assert_eq!(
            once.counter_value("faehim_requests_admitted_total", &[("host", "a")]),
            5
        );
    }

    #[test]
    fn prometheus_export_has_types_buckets_and_quantiles() {
        let m = MetricsRegistry::new();
        m.inc_counter("faehim_invocations_total", &[("service", "A")], 3);
        m.observe(
            "faehim_invocation_duration_seconds",
            &[("service", "A")],
            0.004,
        );
        let text = m.export_prometheus();
        assert!(text.contains("# TYPE faehim_invocations_total counter"));
        assert!(text.contains("faehim_invocations_total{service=\"A\"} 3"));
        assert!(text.contains("# TYPE faehim_invocation_duration_seconds histogram"));
        assert!(text.contains("_bucket{service=\"A\",le=\"+Inf\"} 1"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("quantile=\"0.95\""));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("faehim_invocation_duration_seconds_count{service=\"A\"} 1"));
    }

    #[test]
    fn json_export_is_parseable_shape() {
        let m = MetricsRegistry::new();
        m.inc_counter("c", &[("k", "v\"q")], 1);
        m.set_gauge("g", &[], 1.5);
        m.observe("h", &[], 0.01);
        let json = m.export_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"c\""));
        assert!(json.contains("\\\"q\""));
        assert!(json.contains("\"p50\": 0.01"));
        assert!(json.contains("\"p95\""));
        assert!(json.contains("\"p99\""));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}

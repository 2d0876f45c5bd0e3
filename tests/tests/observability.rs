//! E13 — the observability layer end to end: enacting the §5 case
//! study with tracing on yields one causally-linked span tree per
//! workflow (workflow → task → SOAP call → transport leg → dispatch →
//! handler), and the metrics registry exports per-service invocation
//! latency quantiles in both Prometheus and JSON form.

#![forbid(unsafe_code)]

use dm_data::corpus::breast_cancer_arff;
use dm_wsrf::container::CapacityConfig;
use dm_wsrf::dataplane::CacheStats;
use dm_wsrf::metrics::MetricsRegistry;
use dm_wsrf::trace::{Span, SpanKind, SpanStatus};
use dm_wsrf::transport::WireStats;
use faehim::casestudy::run_case_study_with;
use faehim::Toolkit;
use std::time::Duration;

fn find_child<'a>(spans: &'a [Span], parent: &Span, kind: SpanKind) -> &'a Span {
    spans
        .iter()
        .find(|s| s.parent_span_id == Some(parent.span_id) && s.kind == kind)
        .unwrap_or_else(|| panic!("no {kind:?} child under {:?}", parent.name))
}

#[test]
fn case_study_produces_a_causally_linked_span_tree() {
    let toolkit = Toolkit::new().unwrap();
    let tracer = toolkit.enable_tracing();
    let executor = toolkit.resilient_executor(None);
    run_case_study_with(&toolkit, &executor).unwrap();

    let spans = tracer.finished_spans();
    let root = spans
        .iter()
        .find(|s| s.kind == SpanKind::Workflow)
        .expect("workflow root span");
    assert_eq!(root.parent_span_id, None);
    assert_eq!(root.attribute("tasks"), Some("10"));
    // Every task span belongs to the root's trace. (Spans from direct
    // client calls outside the enactment — the Figure-3 summary fetch —
    // form their own traces.)
    assert!(spans
        .iter()
        .filter(|s| s.kind == SpanKind::Task)
        .all(|s| s.trace_id == root.trace_id));

    // Walk one full causal chain down from the root: the
    // `Classifier.getClassifiers` task invokes over the wire, so its
    // task span must chain task → soap-call → transport-leg, and the
    // request leg's context crosses the wire to parent the container's
    // dispatch span, which in turn parents the service handler span.
    let task = spans
        .iter()
        .find(|s| s.kind == SpanKind::Task && s.name == "Classifier.getClassifiers")
        .expect("task span");
    assert_eq!(task.parent_span_id, Some(root.span_id));
    assert_eq!(task.attribute("attempt"), Some("1"));
    let call = find_child(&spans, task, SpanKind::SoapCall);
    let request_leg = find_child(&spans, call, SpanKind::TransportLeg);
    let dispatch = find_child(&spans, request_leg, SpanKind::Dispatch);
    let handler = find_child(&spans, dispatch, SpanKind::Handler);
    assert_eq!(handler.name, "Classifier.getClassifiers");
    for span in [call, request_leg, dispatch, handler] {
        assert_eq!(span.status, SpanStatus::Ok, "{:?}", span.name);
    }
    // Intervals nest on the virtual clock: each link starts no earlier
    // than its parent.
    assert!(task.start >= root.start);
    assert!(call.start >= task.start);
    assert!(request_leg.start >= call.start);
    assert!(dispatch.start >= request_leg.start);

    // The rendered tree shows the whole chain indented in order.
    let text = dm_viz::spantree::render_span_tree(&spans);
    let positions: Vec<usize> = [
        "workflow [workflow]",
        "[task]",
        "[soap-call]",
        "[transport-leg]",
        "[dispatch]",
        "[handler]",
    ]
    .iter()
    .map(|needle| {
        text.find(needle)
            .unwrap_or_else(|| panic!("{needle} missing:\n{text}"))
    })
    .collect();
    assert!(positions.windows(2).all(|w| w[0] < w[1]), "{text}");
}

#[test]
fn exporters_carry_per_service_latency_quantiles() {
    let toolkit = Toolkit::new().unwrap();
    let classifier = toolkit.classifier_client();
    for _ in 0..3 {
        classifier.get_classifiers().unwrap();
    }
    let metrics = toolkit.metrics_registry();

    let labels = [("service", "Classifier")];
    assert!(
        metrics.counter_value(
            "faehim_invocations_total",
            &[
                ("service", "Classifier"),
                ("host", toolkit.primary_host()),
                ("outcome", "ok")
            ]
        ) >= 3
    );
    for q in [0.5, 0.95, 0.99] {
        let value = metrics
            .histogram_quantile("faehim_invocation_duration_seconds", &labels, q)
            .expect("latency quantile");
        assert!(value > 0.0);
    }

    let prom = metrics.export_prometheus();
    assert!(
        prom.contains("# TYPE faehim_invocation_duration_seconds histogram"),
        "{prom}"
    );
    assert!(
        prom.contains(
            "faehim_invocation_duration_seconds_bucket{service=\"Classifier\",le=\"+Inf\"}"
        ),
        "{prom}"
    );
    for q in ["0.5", "0.95", "0.99"] {
        assert!(
            prom.contains(&format!("{{service=\"Classifier\",quantile=\"{q}\"}}")),
            "missing quantile {q}:\n{prom}"
        );
    }
    assert!(prom.contains("faehim_wire_envelopes_total"), "{prom}");
    // The Classifier's model/eval caches are read in process, through
    // its container.
    assert!(prom.contains("cache=\"model\""), "{prom}");

    let json = metrics.export_json();
    assert!(
        json.contains("\"faehim_invocation_duration_seconds\""),
        "{json}"
    );
    for key in ["\"p50\"", "\"p95\"", "\"p99\""] {
        assert!(json.contains(key), "missing {key}:\n{json}");
    }
}

/// What a scrape could charge or record: the virtual clock, the wire
/// totals and the invocation log's length.
fn footprint(toolkit: &Toolkit) -> (Duration, WireStats, usize) {
    let net = toolkit.network();
    (net.virtual_time(), net.wire_stats(), net.monitor().len())
}

/// The cache series a scrape exported for `service` hold `caches`.
fn assert_cache_series(
    metrics: &MetricsRegistry,
    service: &str,
    caches: &[(&'static str, CacheStats)],
) {
    for (cache, stats) in caches {
        for (event, value) in [
            ("lookups", stats.lookups),
            ("hits", stats.hits),
            ("misses", stats.misses),
            ("insertions", stats.insertions),
            ("evictions", stats.evictions),
        ] {
            let labels = [("service", service), ("cache", cache), ("event", event)];
            assert_eq!(
                metrics.counter_value("faehim_cache_events_total", &labels),
                value,
                "{service} {cache} {event}"
            );
        }
        let labels = [("service", service), ("cache", cache), ("unit", "entries")];
        assert_eq!(
            metrics.gauge_value("faehim_cache_size", &labels),
            Some(stats.entries as f64),
            "{service} {cache} entries"
        );
    }
}

#[test]
fn a_scrape_reads_the_classifier_caches_in_process_and_survives_a_saturated_host() {
    let toolkit = Toolkit::new().unwrap();
    let classifier = toolkit.classifier_client();
    let arff = breast_cancer_arff();
    for _ in 0..2 {
        classifier
            .classify_instance(&arff, "J48", "", "Class")
            .unwrap();
    }
    classifier
        .cross_validate(&arff, "NaiveBayes", "", "Class", 3)
        .unwrap();
    let (model, eval) = classifier.get_cache_stats().unwrap();
    assert_eq!((model.lookups, model.hits, eval.lookups), (2, 1, 1));

    let before = footprint(&toolkit);
    let metrics = toolkit.metrics_registry();
    assert_eq!(footprint(&toolkit), before, "the scrape made a call");
    assert_cache_series(&metrics, "Classifier", &[("model", model), ("eval", eval)]);

    // One worker, no queue: a call during the first one's service time
    // is shed, and so would any call the scrape made.
    toolkit.enable_admission_control(CapacityConfig {
        workers: 1,
        queue_limit: Some(0),
        service_time: Duration::from_secs(1),
    });
    classifier.get_classifiers().unwrap();
    toolkit.network().set_virtual_time(Duration::ZERO);
    assert!(classifier.get_classifiers().unwrap_err().is_server_busy());
    let before = footprint(&toolkit);
    let metrics = toolkit.metrics_registry();
    assert_eq!(footprint(&toolkit), before, "the scrape made a call");
    assert_cache_series(&metrics, "Classifier", &[("model", model), ("eval", eval)]);
    let host = [("host", toolkit.primary_host())];
    assert_eq!(
        metrics.counter_value("faehim_requests_shed_total", &host),
        1
    );
}

#[test]
fn a_scrape_exports_the_j48_kept_trees_in_process() {
    let toolkit = Toolkit::new().unwrap();
    let j48 = toolkit.j48_client();
    let arff = breast_cancer_arff();
    for _ in 0..2 {
        j48.classify(&arff, "Class", "").unwrap();
    }
    j48.classify_graph(&arff, "Class", "").unwrap();
    j48.classify(&arff, "Class", "-M 5").unwrap();
    let container = toolkit.network().host(toolkit.primary_host()).unwrap();
    let kept = container.cache_stats("J48");
    let model = kept[0].1;
    assert_eq!(kept.len(), 1);
    assert_eq!((model.lookups, model.hits, model.entries), (4, 2, 2));

    let before = footprint(&toolkit);
    let metrics = toolkit.metrics_registry();
    assert_eq!(footprint(&toolkit), before, "the scrape made a call");
    assert_cache_series(&metrics, "J48", &kept);
    assert_eq!(
        container.cache_stats("J48"),
        kept,
        "the scrape moved the counters"
    );
}

#[test]
fn tracing_disables_cleanly_and_keeps_envelopes_header_free() {
    let toolkit = Toolkit::new().unwrap();
    let net = toolkit.network();
    net.reset_wire_stats();
    toolkit.classifier_client().get_classifiers().unwrap();
    let plain_bytes = net.wire_stats().bytes;

    let tracer = toolkit.enable_tracing();
    net.reset_wire_stats();
    toolkit.classifier_client().get_classifiers().unwrap();
    let traced_bytes = net.wire_stats().bytes;
    // Only the request envelope carries the 109-byte traceparent
    // header (context propagates caller → callee, as in W3C tracing).
    assert_eq!(traced_bytes - plain_bytes, 109);
    assert!(!tracer.finished_spans().is_empty());

    net.disable_tracing();
    tracer.clear();
    net.reset_wire_stats();
    toolkit.classifier_client().get_classifiers().unwrap();
    assert_eq!(net.wire_stats().bytes, plain_bytes);
    assert!(tracer.finished_spans().is_empty());
}

#[test]
fn failed_dispatch_marks_the_span_chain() {
    let toolkit = Toolkit::new().unwrap();
    let tracer = toolkit.enable_tracing();
    let err = toolkit
        .classifier_client()
        .classify_instance("not arff", "NoSuchAlgorithm", "", "Class")
        .unwrap_err();
    assert!(err.to_string().contains("fault"), "{err}");
    let spans = tracer.finished_spans();
    // The SOAP-call, dispatch, and handler spans all record the fault.
    for kind in [SpanKind::SoapCall, SpanKind::Dispatch, SpanKind::Handler] {
        let span = spans
            .iter()
            .find(|s| s.kind == kind)
            .unwrap_or_else(|| panic!("no {kind:?} span"));
        assert!(
            matches!(&span.status, SpanStatus::Error(m) if !m.is_empty()),
            "{kind:?} span not errored"
        );
    }
}

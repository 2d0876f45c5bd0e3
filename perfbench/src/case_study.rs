//! `case_study`: one enactment of the §5 case-study graph (10 tasks, 5
//! SOAP calls) per op on one warm single-host toolkit.
//!
//! The executor rotates in a fixed order: serial, parallel, then
//! durable with 2 workers and a fresh journal per run, so replay never
//! short-circuits. The seed picks where the rotation starts; the graph
//! and its inputs are the paper's and do not vary. Every 64th
//! enactment also scrapes the Prometheus exporter.

use crate::replay::{Call, Replayer};
use crate::trace::{SpanId, Tracer};
use crate::{mean, Metric, OpOutcome, Workload};
use dm_services::classifier_ws::ClassifierService;
use dm_workflow::engine::{ExecutionReport, Executor};
use dm_workflow::graph::{TaskGraph, TaskId, Token};
use dm_wsrf::container::WebService;
use dm_wsrf::dataplane::fingerprint;
use dm_wsrf::soap::SoapValue;
use faehim::casestudy::{build_case_study, CaseStudyTasks, BREAST_CANCER_URL};
use faehim::Toolkit;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Enactments between Prometheus scrapes.
const SCRAPE_EVERY: u64 = 64;

/// Which executor runs an enactment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Executor::serial()`.
    Serial,
    /// `Executor::parallel()`.
    Parallel,
    /// `Toolkit::run_durable` with 2 workers.
    Durable,
}

impl Engine {
    fn span(self) -> &'static str {
        match self {
            Engine::Serial => "engine.serial",
            Engine::Parallel => "engine.parallel",
            Engine::Durable => "durable.run",
        }
    }
}

/// Replay state: a second toolkit that receives the same five SOAP
/// calls, so that `Network::invoke` and the layers below it can be
/// timed one call at a time.
struct Shadow {
    toolkit: Toolkit,
    replayer: Replayer,
    engine_span: Option<SpanId>,
}

/// The `case_study` workload.
pub struct CaseStudy {
    toolkit: Toolkit,
    graph: TaskGraph,
    tasks: CaseStudyTasks,
    bindings: HashMap<(TaskId, usize), Token>,
    start: u64,
    expected: Option<[u128; 3]>,
    shadow: Option<Shadow>,
    serial_overhead_us: Vec<f64>,
    journal_kib: Vec<f64>,
}

fn suite() -> Vec<Arc<dyn WebService>> {
    vec![
        Arc::new(ClassifierService::new()),
        Arc::new(dm_services::convert_ws::UrlReaderService::with_standard_corpus()),
    ]
}

impl CaseStudy {
    fn engine(&self, i: u64) -> Engine {
        match (i + self.start) % 3 {
            0 => Engine::Serial,
            1 => Engine::Parallel,
            _ => Engine::Durable,
        }
    }

    /// Check one enactment; returns the fingerprint of its outputs.
    fn check(&mut self, i: u64, report: &ExecutionReport) -> Result<u128, String> {
        if report.runs.len() != 10 {
            return Err(format!("op {i}: {} of 10 tasks ran", report.runs.len()));
        }
        let out = |t: TaskId| report.output(t, 0).map_or(0, fingerprint);
        let analysis = report
            .output(self.tasks.analyser, 0)
            .and_then(|t| t.as_text().ok())
            .unwrap_or("");
        if !analysis.contains("root attribute: node-caps") {
            return Err(format!("op {i}: analysis does not root at node-caps"));
        }
        let got = [
            out(self.tasks.analyser),
            out(self.tasks.viewer),
            out(self.tasks.visualise),
        ];
        match self.expected {
            None => self.expected = Some(got),
            Some(want) if want != got => {
                return Err(format!(
                    "op {i}: {:?} enactment disagrees with the first enactment",
                    self.engine(i)
                ))
            }
            Some(_) => {}
        }
        Ok(got.iter().fold(0, |acc, f| acc.rotate_left(7) ^ f))
    }

    /// Send the enactment's five SOAP calls again on the shadow toolkit,
    /// each as a replayed `transport.invoke` under the engine span.
    fn replay_calls(shadow: &Shadow, parent: SpanId, tr: &mut Tracer) -> Result<(), String> {
        let net = shadow.toolkit.network();
        let host = shadow.toolkit.primary_host().to_string();
        let text = |s: &str| SoapValue::Text(s.to_string());
        let call = |tr: &mut Tracer,
                    service: &str,
                    operation: &str,
                    args: Vec<(String, SoapValue)>|
         -> Result<SoapValue, String> {
            let span = tr.open("transport.invoke", Some(parent));
            let value = net
                .invoke(&host, service, operation, args.clone())
                .map_err(|e| format!("shadow {service}.{operation}: {e}"))?;
            tr.close(span);
            shadow.replayer.replay(
                &Call::new(service, operation, args, value.clone()),
                span,
                tr,
            );
            Ok(value)
        };
        let dataset = call(
            tr,
            "UrlReader",
            "readArff",
            vec![("url".into(), text(BREAST_CANCER_URL))],
        )?;
        call(tr, "Classifier", "getClassifiers", vec![])?;
        let options = call(
            tr,
            "Classifier",
            "getOptions",
            vec![("classifier".into(), text("J48"))],
        )?;
        // What the graph's OptionSelector makes of the option rows.
        let defaults: Vec<String> = options
            .as_list()
            .unwrap_or(&[])
            .iter()
            .filter_map(|row| {
                let cells = row.as_list().ok()?;
                let flag = cells.first()?.as_text().ok()?;
                let default = cells.get(3).and_then(|c| c.as_text().ok()).unwrap_or("");
                Some(format!("{flag} {default}"))
            })
            .collect();
        let model_args = |options: &str| {
            vec![
                ("dataset".into(), dataset.clone()),
                ("classifier".into(), text("J48")),
                ("options".into(), text(options)),
                ("attribute".into(), text("Class")),
            ]
        };
        call(
            tr,
            "Classifier",
            "classifyInstance",
            model_args(&defaults.join(" ")),
        )?;
        call(tr, "Classifier", "classifyGraph", model_args(""))?;
        Ok(())
    }
}

impl Workload for CaseStudy {
    type Input = Engine;
    const PINNED_OPS: u64 = 192;
    const OPS: u64 = 3_072;
    const LAYERS: &'static [&'static str] = &[
        "engine.serial_us",
        "engine.parallel_us",
        "durable.run_us",
        "engine.overhead_us",
        "journal.kib_per_run",
        "metrics.scrape_us",
        "transport.invoke_us",
        "transport.unattributed_us",
        "soap.encode_us",
        "soap.decode_us",
        "soap.kib_per_op",
        "container.dispatch_us",
        "handler.invoke_us",
        "arff.parse_us",
        "monitor.events",
        "unattributed_us",
        "trace.overhead_frac",
    ];

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let toolkit = Toolkit::new().map_err(|e| e.to_string())?;
        let (graph, tasks, bindings) = build_case_study(&toolkit).map_err(|e| e.to_string())?;
        let shadow = if tr.enabled() {
            let classifier = Arc::new(ClassifierService::new());
            Some(Shadow {
                toolkit: Toolkit::new().map_err(|e| e.to_string())?,
                replayer: Replayer::new(suite(), Some(classifier), None),
                engine_span: None,
            })
        } else {
            None
        };
        let mut w = CaseStudy {
            toolkit,
            graph,
            tasks,
            bindings,
            start: seed % 3,
            expected: None,
            shadow,
            serial_overhead_us: Vec::new(),
            journal_kib: Vec::new(),
        };
        // Warm-up: one serial enactment fills the model cache (and the
        // shadow's, through its replay).
        let op = tr.begin_op(u64::MAX);
        let report = Executor::serial()
            .run(&w.graph, &w.bindings)
            .map_err(|e| format!("warm-up: {e}"))?;
        tr.close(op);
        w.check(u64::MAX, &report)?;
        if let Some(shadow) = &w.shadow {
            CaseStudy::replay_calls(shadow, op, tr)?;
        }
        Ok(w)
    }

    fn input(&mut self, i: u64) -> Result<Engine, String> {
        let engine = self.engine(i);
        if engine == Engine::Durable {
            // A fresh journal per run: nothing to replay from.
            self.toolkit.enable_durable_enactment(2);
        }
        Ok(engine)
    }

    fn op(&mut self, i: u64, engine: Engine, tr: &mut Tracer) -> Result<OpOutcome, String> {
        let net = self.toolkit.network();
        let virt_start = net.virtual_time();
        let span = tr.open(engine.span(), Some(tr.op_span()));
        let report = match engine {
            Engine::Serial => Executor::serial().run(&self.graph, &self.bindings),
            Engine::Parallel => Executor::parallel().run(&self.graph, &self.bindings),
            Engine::Durable => self.toolkit.run_durable(&self.graph, &self.bindings),
        }
        .map_err(|e| format!("op {i}: {e}"))?;
        tr.close(span);
        if i % SCRAPE_EVERY == SCRAPE_EVERY - 1 {
            let scrape = tr.open("metrics.scrape", Some(tr.op_span()));
            let text = self.toolkit.metrics_registry().export_prometheus();
            tr.close(scrape);
            if !text.contains("faehim_") {
                return Err(format!("op {i}: the Prometheus scrape is empty"));
            }
        }
        let virt = net.virtual_time() - virt_start;
        let output = self.check(i, &report)?;
        match engine {
            Engine::Serial => {
                let tasks: Duration = report.runs.iter().map(|r| r.duration).sum();
                let overhead = report.elapsed.saturating_sub(tasks);
                self.serial_overhead_us.push(overhead.as_secs_f64() * 1e6);
            }
            Engine::Durable => {
                if let Some(config) = self.toolkit.durable_config() {
                    self.journal_kib
                        .push(config.journal().stats().bytes as f64 / 1024.0);
                }
            }
            Engine::Parallel => {}
        }
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.engine_span = Some(span);
        }
        Ok(OpOutcome {
            virt,
            failed: false,
            output,
            kind: engine.span(),
        })
    }

    fn replay(&mut self, tr: &mut Tracer) {
        if let Some(shadow) = self.shadow.as_mut() {
            if let Some(parent) = shadow.engine_span.take() {
                // A shadow failure only loses trace detail; the real
                // enactment was already checked.
                let _ = CaseStudy::replay_calls(shadow, parent, tr);
            }
        }
    }

    fn wire_bytes(&self) -> u64 {
        self.toolkit.wire_stats().bytes
    }

    fn finish(
        &mut self,
        _ops: u64,
        _elapsed: Duration,
        _tr: &Tracer,
    ) -> Result<Vec<Metric>, String> {
        // The case study never reaches the compute pool: the model cache
        // answers every classification after the warm-up.
        Ok(vec![
            Metric::new(
                "monitor.events",
                self.toolkit.network().monitor().len() as f64,
                "count",
            ),
            Metric::new("engine.overhead_us", mean(&self.serial_overhead_us), "us"),
            Metric::new("journal.kib_per_run", mean(&self.journal_kib), "KiB"),
        ])
    }
}

//! The [`Toolkit`]: one-call provisioning of the FAEHIM environment —
//! a simulated network with service hosts, the deployed Web Service
//! suite, a registry, and a workflow toolbox organised as in Figures 1
//! and 2. The registry is one [`GossipNode`] holding a `(service,
//! host)` record for every deployed service on every host; the toolkit
//! never heartbeats it, so its inquiries use an unbounded freshness
//! window and its own deployments never age out.
//! [`Toolkit::enable_resilience`] turns on the
//! resilience layer end to end: imported tools, typed clients, and
//! executors all share one circuit-breaker board and retry policy, and
//! [`Toolkit::degraded_mode_report`] summarises what the deployment is
//! routing around.

use dm_algorithms::pool::PoolStats;
use dm_services::client::{
    ClassifierClient, ClientChannel, ClustererClient, ConvertClient, J48Client,
};
use dm_services::{deploy_faehim_suite, publish_suite};
use dm_workflow::durable::DurableConfig;
use dm_workflow::engine::{BackoffSink, ExecutionReport, Executor, RetryPolicy};
use dm_workflow::error::WorkflowError;
use dm_workflow::graph::{TaskGraph, TaskId, Token};
use dm_workflow::journal::{JournalStats, RunJournal};
use dm_workflow::planner::{Goal, GoalStep, Plan, Planner, UsageRecommender};
use dm_workflow::toolbox::Toolbox;
use dm_workflow::wsimport::{import_from_host, WsTool};
use dm_wsrf::container::{CapacityConfig, ServiceContainer};
use dm_wsrf::costmodel::CostModel;
use dm_wsrf::dataplane::AttachmentStore;
use dm_wsrf::fleet::GossipNode;
use dm_wsrf::metrics::MetricsRegistry;
use dm_wsrf::registry::ServiceEntry;
use dm_wsrf::resilience::{BreakerBoard, BreakerConfig, ResiliencePolicy, ResilientCaller};
use dm_wsrf::trace::Tracer;
use dm_wsrf::transport::{DataPlaneConfig, Network, WireStats};
use dm_wsrf::WsError;
use std::sync::Arc;
use std::time::Duration;

/// Default host name for a single-host toolkit (the paper's services
/// were hosted at the Welsh e-Science Centre).
pub const DEFAULT_HOST: &str = "wesc.cf.ac.uk";

/// Freshness window of every registry inquiry the toolkit makes.
/// Nothing heartbeats the toolkit's own deployments, so they must never
/// read as stale.
const FRESHNESS: Duration = Duration::MAX;

/// The provisioned FAEHIM environment.
pub struct Toolkit {
    network: Arc<Network>,
    registry: Arc<GossipNode>,
    toolbox: Arc<Toolbox>,
    hosts: Vec<String>,
    resilience: Option<ResilientCaller>,
    durable: Option<DurableConfig>,
}

impl Toolkit {
    /// Provision a single-host toolkit with the full service suite
    /// deployed, published, and imported into the toolbox.
    pub fn new() -> Result<Toolkit, WsError> {
        Toolkit::with_hosts(&[DEFAULT_HOST])
    }

    /// Provision with several hosts, each running the full suite
    /// (replicas for the fault-tolerance and parallelism experiments).
    /// The first host is the primary: its services are imported into
    /// the toolbox, with every other host as a failover replica. Errors
    /// with [`WsError::NotFound`] when `hosts` is empty.
    pub fn with_hosts(hosts: &[&str]) -> Result<Toolkit, WsError> {
        let Some(&primary) = hosts.first() else {
            return Err(WsError::NotFound(
                "primary host: a toolkit needs at least one host".into(),
            ));
        };
        let network = Arc::new(Network::new());
        let registry = Arc::new(GossipNode::new(primary));
        let toolbox = Arc::new(Toolbox::with_common_tools());
        for &host in hosts {
            let container = network.add_host(host);
            deploy_faehim_suite(&container)?;
            publish_suite(&container, &registry, network.now())?;
        }
        let toolkit = Toolkit {
            network,
            registry,
            toolbox,
            hosts: hosts.iter().map(|h| h.to_string()).collect(),
            resilience: None,
            durable: None,
        };
        for tool in toolkit.import_primary()? {
            toolkit.toolbox.add(Arc::new(tool));
        }
        // Local data-manipulation / processing / visualisation tools
        // (the Figure 2 toolbox components) plus the Triana signal
        // processing toolbox the paper cites (§2).
        crate::tools::register_local_tools(&toolkit.toolbox);
        crate::signal_tools::register_signal_tools(&toolkit.toolbox);
        Ok(toolkit)
    }

    /// The simulated network.
    pub fn network(&self) -> Arc<Network> {
        Arc::clone(&self.network)
    }

    /// The registry: a gossip view with one record per deployed
    /// `(service, host)`.
    pub fn registry(&self) -> Arc<GossipNode> {
        Arc::clone(&self.registry)
    }

    /// Import every operation of the primary host's published services
    /// as a workspace tool (Triana: "creates a tool for each
    /// operation"), in service-name order, with every other host as a
    /// failover replica.
    fn import_primary(&self) -> Result<Vec<WsTool>, WsError> {
        let mut tools = Vec::new();
        for entry in self.published() {
            if entry.host == self.primary_host() {
                tools.extend(self.import_service(&entry.host, &entry.name)?);
            }
        }
        Ok(tools)
    }

    /// Every live registry record, sorted by `(service, host)` (the
    /// view itself is unordered).
    fn published(&self) -> Vec<ServiceEntry> {
        let now = self.network.now();
        let mut entries: Vec<ServiceEntry> = self
            .registry
            .view_snapshot()
            .into_iter()
            .filter(|r| r.is_live(now, FRESHNESS))
            .map(|r| r.entry)
            .collect();
        entries.sort_by(|a, b| (&a.name, &a.host).cmp(&(&b.name, &b.host)));
        entries
    }

    /// The workflow toolbox.
    pub fn toolbox(&self) -> Arc<Toolbox> {
        Arc::clone(&self.toolbox)
    }

    /// Provisioned host names.
    pub fn hosts(&self) -> &[String] {
        &self.hosts
    }

    /// The primary host.
    pub fn primary_host(&self) -> &str {
        &self.hosts[0]
    }

    /// A host's container.
    pub fn container(&self, host: &str) -> Result<Arc<ServiceContainer>, WsError> {
        self.network.host(host)
    }

    /// Turn on the resilience layer: one shared circuit-breaker board
    /// and retry policy, used by every tool subsequently imported via
    /// [`Toolkit::import_service`], by the typed clients, and by
    /// [`Toolkit::resilient_executor`].
    pub fn enable_resilience(&mut self, policy: ResiliencePolicy, breakers: BreakerConfig) {
        let board = Arc::new(BreakerBoard::new(breakers));
        self.resilience = Some(ResilientCaller::new(self.network(), board, policy));
    }

    /// The shared resilient caller, when [`Toolkit::enable_resilience`]
    /// has been called.
    pub fn resilience(&self) -> Option<&ResilientCaller> {
        self.resilience.as_ref()
    }

    /// Turn on admission control on every provisioned host: each
    /// container simulates `config.workers` parallel workers with a
    /// FIFO accept queue of `config.queue_limit` slots on the network's
    /// virtual clock. Arrivals beyond the queue are shed with a
    /// retryable `ServerBusy` fault; admitted requests charge their
    /// queueing delay and service time to the clock. Pass
    /// `queue_limit: None` to model the pathological unbounded queue.
    /// Call with a fresh config to reset the per-host load counters, or
    /// see [`ServiceContainer::set_capacity`] for per-host control.
    pub fn enable_admission_control(&self, config: CapacityConfig) {
        for host in &self.hosts {
            if let Ok(container) = self.network.host(host) {
                container.set_capacity(Some(config));
            }
        }
    }

    /// Turn on the content-addressed data plane with default settings:
    /// datasets and models above the inline threshold travel as
    /// `DataRef` handles whenever the receiving side already holds the
    /// payload, and the network starts accounting wire bytes saved
    /// ([`Toolkit::wire_stats`]).
    pub fn enable_data_plane(&self) {
        self.network.enable_data_plane(DataPlaneConfig::default());
    }

    /// Wire-level traffic counters (envelopes, bytes, bytes saved by
    /// pass-by-reference substitution).
    pub fn wire_stats(&self) -> WireStats {
        self.network.wire_stats()
    }

    /// Turn on causal tracing end to end: every container records
    /// dispatch spans, the transport records send/receive legs, and
    /// executors built by [`Toolkit::resilient_executor`] open workflow
    /// and task spans into the same tracer. Span intervals run on the
    /// network's virtual clock.
    pub fn enable_tracing(&self) -> Arc<Tracer> {
        self.network.enable_tracing()
    }

    /// The shared tracer, when [`Toolkit::enable_tracing`] has been
    /// called.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.network.tracer()
    }

    /// Turn on event-sourced durable enactment: subsequent
    /// [`Toolkit::run_durable`] calls append every run event to one
    /// shared append-only [`RunJournal`], execute tasks under claim/ack
    /// on `workers` threads (the calling thread included), and can
    /// resume a crashed run from the log without re-executing completed
    /// tasks. Large task outputs are
    /// persisted as content-addressed refs into the client attachment
    /// store when the data plane is enabled (a dedicated store is
    /// provisioned otherwise), so the journal itself stays small.
    /// Returns the journal so callers can snapshot its bytes, inject
    /// crashes against its append counter, or rebuild it after a
    /// simulated orchestrator death.
    pub fn enable_durable_enactment(&mut self, workers: usize) -> Arc<RunJournal> {
        let store = self
            .network
            .client_store()
            .unwrap_or_else(|| Arc::new(AttachmentStore::new(64 << 20)));
        let journal = Arc::new(RunJournal::with_store(store, 1024));
        self.durable = Some(DurableConfig::new(Arc::clone(&journal)).with_workers(workers));
        journal
    }

    /// Adopt a rebuilt journal (e.g. one recovered from a dead
    /// orchestrator's bytes via [`RunJournal::from_bytes`]) as the
    /// durable-enactment log, replacing whatever
    /// [`Toolkit::enable_durable_enactment`] installed.
    pub fn adopt_journal(&mut self, journal: Arc<RunJournal>) {
        let workers = self.durable.as_ref().map_or(4, DurableConfig::workers);
        self.durable = Some(DurableConfig::new(journal).with_workers(workers));
    }

    /// The durable-enactment configuration, when
    /// [`Toolkit::enable_durable_enactment`] has been called. Clone and
    /// extend it (crash scripts, kill points) before handing it to
    /// [`dm_workflow::engine::Executor::run_durable`] directly.
    pub fn durable_config(&self) -> Option<&DurableConfig> {
        self.durable.as_ref()
    }

    /// Enact `graph` durably: every lifecycle event is journalled
    /// before it takes effect, completed work recorded by a previous
    /// (possibly crashed) run of the same graph is replayed from the
    /// log instead of re-executed, and task failures block only their
    /// downstream cone while independent branches run to completion.
    /// The executor is the toolkit's resilient executor, so retries,
    /// virtual-clock accounting, and tracing all apply. Errors with a
    /// [`dm_workflow::error::WorkflowError::Ws`] message when durable
    /// enactment has not been enabled.
    pub fn run_durable(
        &self,
        graph: &TaskGraph,
        bindings: &std::collections::HashMap<(TaskId, usize), Token>,
    ) -> dm_workflow::error::Result<ExecutionReport> {
        let config = self.durable.as_ref().ok_or_else(|| {
            dm_workflow::error::WorkflowError::Ws(
                "durable enactment is not enabled; call Toolkit::enable_durable_enactment".into(),
            )
        })?;
        self.resilient_executor(None)
            .run_durable(graph, bindings, config)
    }

    /// Snapshot the deployment's counters into a fresh
    /// [`MetricsRegistry`]: per-service invocation counts, latency
    /// histograms and byte counters from the monitor log's record-time
    /// aggregates (O(series), however long the log is), wire-level
    /// envelope/byte/savings totals, the attachment stores, the
    /// compute pool's task/steal/busy counters (from
    /// `dm_algorithms::pool::stats`), the run journal's counters when
    /// durable enactment is on ([`RunJournal::stats`]), and the primary
    /// host's Classifier model/evaluation caches and J48 kept trees.
    /// Every figure is read in process: the services' cache counters
    /// come through their container ([`ServiceContainer::cache_stats`]),
    /// not a `getCacheStats` call, so a scrape charges no virtual time
    /// or wire bytes, records no invocation, and is never shed by a
    /// saturated host.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let metrics = MetricsRegistry::new();
        metrics.ingest_monitor(self.network.monitor());
        metrics.ingest_wire(&self.network.wire_stats());
        if let Ok(container) = self.network.host(self.primary_host()) {
            for service in ["Classifier", "J48"] {
                for (cache, stats) in container.cache_stats(service) {
                    metrics.ingest_cache(cache, &[("service", service)], &stats);
                }
            }
        }
        let now = self.network.now();
        for host in &self.hosts {
            if let Ok(container) = self.network.host(host) {
                metrics.ingest_cache(
                    "attachments",
                    &[("host", host)],
                    &container.attachments().stats(),
                );
                if let Some(load) = container.load_stats(now) {
                    metrics.ingest_load(host, &load);
                }
            }
        }
        if let Some(store) = self.network.client_store() {
            metrics.ingest_cache("attachments", &[("host", "client")], &store.stats());
        }
        write_pool(&metrics, &dm_algorithms::pool::stats());
        if let Some(config) = &self.durable {
            write_journal(&metrics, &config.journal().stats());
        }
        metrics
    }

    /// Freeze the deployment's live telemetry into a [`CostModel`]
    /// snapshot: per-host latency quantiles and failure rates from the
    /// monitor log, in-system counts from the network, shed rates
    /// and in-system depth from each host's admission-control counters,
    /// and breaker state when the resilience layer is enabled. The
    /// snapshot is plain data — a planner run over it is reproducible.
    pub fn cost_model(&self) -> CostModel {
        let mut cost = CostModel::new();
        let now = self.network.now();
        cost.observe_monitor(self.network.monitor());
        cost.observe_loads(&self.network.load_snapshot());
        for host in &self.hosts {
            if let Ok(container) = self.network.host(host) {
                if let Some(load) = container.load_stats(now) {
                    cost.observe_load_stats(host, &load);
                }
            }
        }
        if let Some(caller) = &self.resilience {
            cost.observe_breakers(caller.board(), now);
        }
        cost
    }

    /// A goal step's candidate replicas: the registry's live records
    /// in the step's category ([`Planner::live_candidates`], sorted by
    /// `(service, host)`) whose service exposes the step's operation.
    pub fn candidates(&self, step: &GoalStep) -> Vec<ServiceEntry> {
        let view = self.registry.view_snapshot();
        Planner::live_candidates(&view, &step.category, self.network.now(), FRESHNESS)
            .into_iter()
            .filter(|e| {
                self.network
                    .host(&e.host)
                    .and_then(|c| c.wsdl_of(&e.name))
                    .is_ok_and(|w| w.operations.iter().any(|o| o.name == step.operation))
            })
            .collect()
    }

    /// Plan an abstract composition goal against live telemetry and
    /// bind it to a concrete workflow. Candidates for each step come
    /// from [`Toolkit::candidates`]; the cost snapshot is
    /// [`Toolkit::cost_model`]; when durable enactment is enabled, the
    /// run journal is mined into a [`UsageRecommender`] so past
    /// co-invocations pre-rank the candidates. Bound tools carry the
    /// toolkit's purity and resilience metadata but are pinned to the
    /// planner's chosen replica with no failover list: the plan *is*
    /// the placement decision.
    ///
    /// Returns the plan alongside the enactable graph and its task ids
    /// in step order.
    pub fn plan_composition(
        &self,
        goal: &Goal,
        planner: &Planner,
    ) -> dm_workflow::Result<(Plan, TaskGraph, Vec<TaskId>)> {
        let cost = self.cost_model();
        let mut recommender = UsageRecommender::new();
        if let Some(config) = &self.durable {
            recommender.observe_journal(config.journal());
        }
        let plan = planner.plan(
            goal,
            &|step| self.candidates(step),
            &cost,
            if recommender.is_empty() {
                None
            } else {
                Some(&recommender)
            },
        )?;
        let network = self.network();
        let (graph, tasks) = plan.bind_with(&mut |host, service| {
            let mut tools = import_from_host(Arc::clone(&network), host, service)
                .map_err(WorkflowError::from)?;
            for tool in &mut tools {
                tool.set_pure(dm_services::is_pure_operation(
                    service,
                    &tool.operation().name,
                ));
                if let Some(caller) = &self.resilience {
                    tool.set_resilience(caller.clone());
                }
            }
            Ok(tools)
        })?;
        Ok((plan, graph, tasks))
    }

    /// A serial [`Executor`] aligned with the toolkit's resilience
    /// configuration: task retries use the resilience policy's attempt
    /// ceiling and backoff shape, backoff pauses are charged to the
    /// network's virtual clock, and `retry_budget` bounds total retries
    /// across the workflow. Without resilience enabled this is a plain
    /// no-retry serial executor.
    pub fn resilient_executor(&self, retry_budget: Option<usize>) -> Executor {
        let mut executor = Executor::serial();
        {
            // Execution reports read simulated elapsed time off the
            // network's virtual clock, clock charges included.
            let network = self.network();
            executor = executor.with_virtual_clock(Arc::new(move || network.now()));
        }
        if let Some(tracer) = self.network.tracer() {
            executor = executor.with_tracing(tracer);
        }
        if let Some(caller) = &self.resilience {
            let policy = caller.policy();
            let network = self.network();
            let sink: BackoffSink = Arc::new(move |pause| network.advance_virtual_time(pause));
            executor = executor
                .with_retry_policy(RetryPolicy {
                    max_attempts: policy.max_attempts as usize,
                    base_backoff: policy.base_backoff,
                    max_backoff: policy.max_backoff,
                    retry_budget,
                    seed: 0xFAE1,
                })
                .with_backoff_sink(sink);
        }
        executor
    }

    /// What the deployment is currently routing around: breaker states
    /// and per-host traffic and failure rates.
    pub fn degraded_mode_report(&self) -> String {
        let now = self.network.now();
        let mut out = String::from("Degraded-mode report\n====================\n\n");
        match &self.resilience {
            None => out.push_str("resilience layer: disabled\n"),
            Some(caller) => {
                let p = caller.policy();
                out.push_str(&format!(
                    "resilience layer: enabled (deadline {:?}, {} attempts, backoff {:?}..{:?})\n",
                    p.deadline, p.max_attempts, p.base_backoff, p.max_backoff
                ));
                let open = caller.board().open_hosts(now);
                if open.is_empty() {
                    out.push_str("open breakers: none\n");
                } else {
                    out.push_str(&format!("open breakers: {}\n", open.join(", ")));
                }
                out.push_str("breaker states:\n");
                for host in &self.hosts {
                    let breaker = caller.board().breaker(host);
                    out.push_str(&format!(
                        "  {host}: {:?} (opened {} times)\n",
                        breaker.state(now),
                        breaker.times_opened()
                    ));
                }
            }
        }
        out.push_str("\nper-host traffic:\n");
        let summaries = self.network.monitor().summary_by_host();
        if summaries.is_empty() {
            out.push_str("  (no invocations recorded)\n");
        }
        for s in summaries {
            out.push_str(&format!(
                "  {}: {} calls, failure rate {:.2}, p50 {:?}, p99 {:?}, max {:?}\n",
                s.host,
                s.invocations,
                s.failure_rate,
                s.p50_duration,
                s.p99_duration,
                s.max_duration
            ));
        }
        out
    }

    /// Import one service's operations as tools, with every other host
    /// added as a failover replica. When resilience is enabled the
    /// tools route attempts through the shared resilient caller and
    /// demote failing primaries behind healthy replicas.
    pub fn import_service(&self, host: &str, service: &str) -> Result<Vec<WsTool>, WsError> {
        let mut tools = import_from_host(self.network(), host, service)?;
        for tool in &mut tools {
            // Purity metadata makes the imported tool eligible for
            // memoised enactment (Executor::with_memoisation).
            tool.set_pure(dm_services::is_pure_operation(
                service,
                &tool.operation().name,
            ));
            for other in &self.hosts {
                if other != host {
                    tool.add_replica(other.clone());
                }
            }
            if let Some(caller) = &self.resilience {
                tool.set_resilience(caller.clone());
            }
        }
        Ok(tools)
    }

    /// The channel every typed client is made from: the primary host,
    /// through the shared resilient caller when the layer is enabled.
    fn channel(&self) -> ClientChannel {
        let channel = ClientChannel::new(self.network(), self.primary_host());
        match &self.resilience {
            Some(caller) => channel.with_resilience(caller.clone()),
            None => channel,
        }
    }

    /// Typed client for the general Classifier service on the primary
    /// host (resilient when the layer is enabled).
    pub fn classifier_client(&self) -> ClassifierClient {
        self.channel().into()
    }

    /// Typed client for the dedicated J48 service (resilient when the
    /// layer is enabled).
    pub fn j48_client(&self) -> J48Client {
        self.channel().into()
    }

    /// Typed client for the clustering services (resilient when the
    /// layer is enabled).
    pub fn clusterer_client(&self) -> ClustererClient {
        self.channel().into()
    }

    /// Typed client for the conversion / URL-reader services (resilient
    /// when the layer is enabled).
    pub fn convert_client(&self) -> ConvertClient {
        self.channel().into()
    }

    /// The Figure-2 component inventory as text: the workflow engine
    /// plus the tool groups and deployed services around it.
    pub fn describe_components(&self) -> String {
        let mut out = String::from("FAEHIM toolkit components (Figure 2)\n");
        out.push_str("=====================================\n\n");
        out.push_str("Workflow engine: dataflow composition + serial/parallel enactment\n");
        out.push_str(match self.resilience {
            Some(_) => "Resilience layer: enabled (deadlines, retry budgets, circuit breakers)\n\n",
            None => "Resilience layer: disabled\n\n",
        });
        out.push_str("Toolbox folders:\n");
        for folder in self.toolbox.folders() {
            out.push_str(&format!(
                "  {folder}/  ({} tools)\n",
                self.toolbox.tools_in(&folder).len()
            ));
        }
        out.push_str("\nDeployed Web Services:\n");
        for entry in self.published() {
            out.push_str(&format!(
                "  {} @ {}  [{}]\n",
                entry.name,
                entry.host,
                entry.categories.join(", ")
            ));
        }
        out.push_str(&format!(
            "\nAlgorithm pool: {} registered algorithms ({} classifiers, {} clusterers, {} associators, {} attribute-selection approaches)\n",
            dm_algorithms::registry::inventory_size(),
            dm_algorithms::registry::classifier_names().len(),
            dm_algorithms::registry::clusterer_names().len(),
            dm_algorithms::registry::associator_names().len(),
            dm_algorithms::attrsel::approaches().len(),
        ));
        out
    }
}

/// Write the compute pool's `faehim_pool_*` series from its own stats:
/// global task / batch / fan-out / steal counters, a thread-count gauge,
/// and per-worker task counters and busy-time gauges labelled by worker
/// slot.
fn write_pool(metrics: &MetricsRegistry, stats: &PoolStats) {
    metrics.set_gauge("faehim_pool_threads", &[], stats.threads as f64);
    metrics.set_counter("faehim_pool_tasks_total", &[], stats.tasks);
    metrics.set_counter("faehim_pool_batches_total", &[], stats.batches);
    metrics.set_counter("faehim_pool_fanouts_total", &[], stats.fanouts);
    metrics.set_counter("faehim_pool_steals_total", &[], stats.steals);
    for (slot, worker) in stats.workers.iter().enumerate() {
        let slot = slot.to_string();
        let labels = [("worker", slot.as_str())];
        metrics.set_counter("faehim_pool_worker_tasks_total", &labels, worker.tasks);
        metrics.set_gauge(
            "faehim_pool_worker_busy_seconds",
            &labels,
            worker.busy.as_secs_f64(),
        );
    }
}

/// Write the run journal's series from its own stats: append and size
/// figures, replay hits (tasks restored from the log instead of
/// re-executing), worker-death redeliveries, and torn-tail bytes dropped
/// by checksum verification.
fn write_journal(metrics: &MetricsRegistry, stats: &JournalStats) {
    metrics.set_counter("faehim_journal_appends_total", &[], stats.appends);
    metrics.set_gauge("faehim_journal_records", &[], stats.records as f64);
    metrics.set_gauge("faehim_journal_bytes", &[], stats.bytes as f64);
    metrics.set_counter("faehim_replay_hits_total", &[], stats.replay_hits);
    metrics.set_counter("faehim_redeliveries_total", &[], stats.redeliveries);
    metrics.set_counter("faehim_journal_torn_bytes_total", &[], stats.torn_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_host_provisioning() {
        let tk = Toolkit::new().unwrap();
        assert_eq!(tk.hosts().len(), 1);
        assert_eq!(tk.registry().view_len(), 14);
        // Common tools + local tools + imported WS operation tools.
        assert!(
            tk.toolbox().len() > 20,
            "toolbox has {} tools",
            tk.toolbox().len()
        );
        let folders = tk.toolbox().folders();
        assert!(folders.iter().any(|f| f == "Common"));
        assert!(folders.iter().any(|f| f.starts_with("WebServices.")));
    }

    #[test]
    fn multi_host_replicas() {
        use dm_workflow::graph::Tool;
        let both = ["host-a".to_string(), "host-b".to_string()];
        let tk = Toolkit::with_hosts(&["host-a", "host-b"]).unwrap();
        assert_eq!(tk.hosts(), both);
        let tools = tk.import_service("host-a", "J48").unwrap();
        assert_eq!(tools[0].hosts(), both);

        // One record per (service, host): both hosts' suites are
        // published, and the primary's services are imported with the
        // other host as their replica.
        assert_eq!(tk.registry().view_len(), 28);
        assert_eq!(
            tk.registry()
                .live_hosts("Classifier", tk.network().now(), FRESHNESS),
            both
        );
        let toolbox = tk.toolbox();
        let ws_folders: Vec<String> = toolbox
            .folders()
            .into_iter()
            .filter(|f| f.starts_with("WebServices."))
            .collect();
        assert_eq!(ws_folders.len(), 14, "{ws_folders:?}");
        let one_host = Toolkit::new().unwrap();
        assert_eq!(toolbox.len(), one_host.toolbox().len());
        let imported = tk.import_primary().unwrap();
        assert_eq!(
            imported.len(),
            ws_folders
                .iter()
                .map(|f| toolbox.tools_in(f).len())
                .sum::<usize>()
        );
        for tool in &imported {
            assert_eq!(tool.hosts(), both, "{}", tool.name());
        }

        // The case study builds and runs on the two-host toolkit, with
        // the same bytes as on one host.
        let run = |tk: &Toolkit| {
            let (graph, _, bindings) = crate::casestudy::build_case_study(tk).unwrap();
            Executor::serial()
                .run(&graph, &bindings)
                .unwrap()
                .canonical_bytes()
        };
        assert_eq!(run(&tk), run(&one_host));
    }

    #[test]
    fn an_empty_host_list_is_a_typed_error() {
        assert!(matches!(
            Toolkit::with_hosts(&[]),
            Err(WsError::NotFound(_))
        ));
    }

    #[test]
    fn clients_reach_services() {
        let tk = Toolkit::new().unwrap();
        assert!(tk.classifier_client().get_classifiers().unwrap().len() >= 13);
        assert!(tk.clusterer_client().get_clusterers().unwrap().len() >= 5);
    }

    #[test]
    fn component_description_mentions_everything() {
        let tk = Toolkit::new().unwrap();
        let text = tk.describe_components();
        assert!(text.contains("Workflow engine"));
        assert!(text.contains("Classifier @"));
        assert!(text.contains("42 registered algorithms"));
    }

    #[test]
    fn resilient_toolkit_survives_primary_failure() {
        use dm_workflow::graph::{Token, Tool};
        let mut tk = Toolkit::with_hosts(&["host-a", "host-b"]).unwrap();
        tk.enable_resilience(
            ResiliencePolicy::default().attempts(2),
            BreakerConfig::default(),
        );
        let tools = tk.import_service("host-a", "J48").unwrap();
        let tool = tools.iter().find(|t| t.name() == "J48.classify").unwrap();
        // The primary dies after import, mid-run.
        tk.network().set_host_down("host-a", true);
        let out = tool
            .execute(&[
                Token::Text(dm_data::corpus::breast_cancer_arff()),
                Token::Text("Class".into()),
                Token::Text(String::new()),
            ])
            .unwrap();
        assert!(matches!(&out[0], Token::Text(tree) if tree.contains("node-caps")));
        assert_eq!(tool.last_served_host(), Some("host-b".to_string()));
        assert!(tool.last_call_stats().attempts >= 3);
        // The failing primary was demoted behind the serving replica.
        assert_eq!(tool.hosts(), ["host-b".to_string(), "host-a".to_string()]);

        let report = tk.degraded_mode_report();
        assert!(report.contains("resilience layer: enabled"), "{report}");
        assert!(report.contains("host-a"), "{report}");
        assert!(report.contains("failure rate"), "{report}");
    }

    #[test]
    fn resilient_client_rides_out_scripted_outage() {
        let mut tk = Toolkit::new().unwrap();
        tk.enable_resilience(
            ResiliencePolicy::default().attempts(4),
            BreakerConfig::default(),
        );
        // Outage covering the next few virtual milliseconds: the first
        // attempt fails, backoff advances the virtual clock past the
        // window, and a retry succeeds.
        let now = tk.network().now();
        tk.network().add_outage(
            tk.primary_host(),
            now,
            now + std::time::Duration::from_millis(5),
        );
        let names = tk.classifier_client().get_classifiers().unwrap();
        assert!(names.contains(&"J48".to_string()));
        let failures = tk
            .network()
            .monitor()
            .summary_by_host()
            .iter()
            .map(|s| s.transport_errors)
            .sum::<usize>();
        assert!(
            failures >= 1,
            "expected the outage to cost at least one attempt"
        );
    }

    #[test]
    fn resilient_executor_mirrors_the_policy() {
        let mut tk = Toolkit::new().unwrap();
        assert_eq!(tk.resilient_executor(None).retry_policy().max_attempts, 1);
        tk.enable_resilience(
            ResiliencePolicy::default().attempts(5),
            BreakerConfig::default(),
        );
        let executor = tk.resilient_executor(Some(12));
        assert_eq!(executor.retry_policy().max_attempts, 5);
        assert_eq!(executor.retry_policy().retry_budget, Some(12));
    }

    #[test]
    fn planned_composition_binds_and_runs() {
        use dm_workflow::engine::Executor;
        use dm_workflow::graph::Token;
        use dm_workflow::planner::{Goal, Planner};
        use std::collections::HashMap;

        let tk = Toolkit::with_hosts(&["wesc-a", "wesc-b", "wesc-c"]).unwrap();
        let csv = dm_data::csv::write_csv(&dm_data::corpus::breast_cancer());
        let goal = Goal::chain(&[
            ("data-handling", "csvToArff", csv.len()),
            ("classifier", "classify", csv.len()),
        ]);
        let (plan, graph, tasks) = tk.plan_composition(&goal, &Planner::default()).unwrap();

        // Only DataConversion exposes csvToArff and only J48 exposes
        // classify — the operation filter narrows the category bags.
        assert_eq!(plan.assignments[0].service, "DataConversion");
        assert_eq!(plan.assignments[1].service, "J48");
        // Cold telemetry prices all hosts alike, so the dataset-sized
        // hop co-locates to ride the DataRef credit.
        assert_eq!(plan.assignments[0].host, plan.assignments[1].host);
        assert!(plan.assignments[1].colocated);
        // Task names are placement-independent.
        let names: Vec<&str> = graph.tasks().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["step1:data-handling", "step2:classifier"]);

        // Enact: csv feeds step 1, attribute/options feed step 2, the
        // arff→dataset cable carries the intermediate.
        let mut bindings: HashMap<(TaskId, usize), Token> = HashMap::new();
        bindings.insert((tasks[0], 0), Token::Text(csv));
        bindings.insert((tasks[1], 1), Token::Text("Class".into()));
        bindings.insert((tasks[1], 2), Token::Text(String::new()));
        let report = Executor::serial().run(&graph, &bindings).unwrap();
        let model = report.output(tasks[1], 0).expect("classifier output");
        assert!(
            matches!(model, Token::Text(t) if !t.is_empty()),
            "{model:?}"
        );
    }

    #[test]
    fn plan_composition_avoids_open_breakers_and_busy_hosts() {
        use dm_workflow::planner::{Goal, Planner};
        let mut tk = Toolkit::with_hosts(&["wesc-a", "wesc-b"]).unwrap();
        tk.enable_resilience(
            ResiliencePolicy::default().attempts(1),
            BreakerConfig {
                min_calls: 4,
                ..BreakerConfig::default()
            },
        );
        // Trip wesc-a's breaker with a dead-host window.
        let caller = tk.resilience().unwrap().clone();
        tk.network().set_host_down("wesc-a", true);
        for _ in 0..8 {
            let _ = caller.invoke("wesc-a", "Classifier", "getClassifiers", vec![]);
        }
        tk.network().set_host_down("wesc-a", false);

        let goal = Goal::chain(&[("classifier", "classify", 4_096)]);
        let (plan, _, _) = tk.plan_composition(&goal, &Planner::default()).unwrap();
        assert_eq!(
            plan.assignments[0].host, "wesc-b",
            "open breaker on wesc-a must exclude it"
        );
    }

    #[test]
    fn registry_category_lookup_finds_visualisation() {
        let tk = Toolkit::new().unwrap();
        let view = tk.registry().view_snapshot();
        let viz = Planner::live_candidates(&view, "visualisation", tk.network().now(), FRESHNESS);
        let names: Vec<&str> = viz.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["Math", "Plot"]);
    }

    #[test]
    fn plan_composition_never_ages_out_the_toolkits_own_deployments() {
        // Nothing heartbeats the registry, so records published at
        // construction must still be candidates long after any finite
        // freshness window a fleet would use.
        let tk = Toolkit::with_hosts(&["wesc-a", "wesc-b"]).unwrap();
        tk.network().advance_virtual_time(Duration::from_secs(301));
        let goal = Goal::chain(&[("classifier", "classify", 4_096)]);
        let (plan, _, _) = tk.plan_composition(&goal, &Planner::default()).unwrap();
        assert_eq!(plan.assignments[0].service, "J48");
    }

    #[test]
    fn admission_control_feeds_load_metrics() {
        use dm_wsrf::container::CapacityConfig;
        let tk = Toolkit::new().unwrap();
        tk.enable_admission_control(CapacityConfig {
            workers: 1,
            queue_limit: Some(0),
            service_time: std::time::Duration::from_secs(1),
        });
        // First call occupies the worker for a simulated second; the
        // rewound second call is concurrent with it and gets shed.
        tk.classifier_client().get_classifiers().unwrap();
        tk.network().set_virtual_time(std::time::Duration::ZERO);
        let err = tk.classifier_client().get_classifiers().unwrap_err();
        assert!(err.is_server_busy(), "{err}");

        // Jump past the busy window: the snapshot sees an idle host.
        tk.network()
            .set_virtual_time(std::time::Duration::from_secs(10));
        let metrics = tk.metrics_registry();
        let labels = [("host", DEFAULT_HOST)];
        assert_eq!(
            metrics.counter_value("faehim_requests_shed_total", &labels),
            1
        );
        assert_eq!(
            metrics.counter_value("faehim_requests_admitted_total", &labels),
            1
        );
        assert_eq!(
            metrics.gauge_value("faehim_queue_depth", &labels),
            Some(0.0)
        );
        assert!(metrics
            .histogram_quantile("faehim_queueing_delay_seconds", &labels, 0.5)
            .is_some());
        let text = metrics.export_prometheus();
        assert!(
            text.contains("faehim_requests_shed_total"),
            "load counters not exported:\n{text}"
        );
    }

    #[test]
    fn resilient_executor_reports_simulated_elapsed() {
        let tk = Toolkit::new().unwrap();
        let toolbox = tk.toolbox();
        let tool = toolbox
            .find("Classifier.getClassifiers")
            .expect("imported tool");
        let mut g = dm_workflow::graph::TaskGraph::new();
        g.add_task(tool);
        let report = tk
            .resilient_executor(None)
            .run(&g, &std::collections::HashMap::new())
            .unwrap();
        // The service call charged transmit time to the virtual clock,
        // and the executor's clock source picked that up.
        assert!(
            report.virtual_elapsed > std::time::Duration::ZERO,
            "virtual elapsed not wired: {report:?}"
        );
        assert!(report
            .runs
            .iter()
            .any(|r| r.virtual_duration > std::time::Duration::ZERO));
    }

    #[test]
    fn durable_enactment_journals_replays_and_feeds_metrics() {
        let mut tk = Toolkit::new().unwrap();
        assert!(
            tk.run_durable(
                &dm_workflow::graph::TaskGraph::new(),
                &std::collections::HashMap::new()
            )
            .is_err(),
            "run_durable must refuse until durable enactment is enabled"
        );
        let journal = tk.enable_durable_enactment(2);
        let toolbox = tk.toolbox();
        let tool = toolbox
            .find("Classifier.getClassifiers")
            .expect("imported tool");
        let mut g = dm_workflow::graph::TaskGraph::new();
        g.add_task(tool);
        let bindings = std::collections::HashMap::new();
        let report = tk.run_durable(&g, &bindings).unwrap();
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.replay_hits(), 0);
        // run-started + task-started + task-completed + run-finished.
        assert_eq!(journal.stats().appends, 4);

        // A second enactment of the same graph replays from the log:
        // nothing re-executes, the report bytes match.
        let resumed = tk.run_durable(&g, &bindings).unwrap();
        assert_eq!(resumed.replay_hits(), 1);
        assert!(resumed.runs.iter().all(|r| r.replayed));
        assert_eq!(resumed.canonical_bytes(), report.canonical_bytes());

        let metrics = tk.metrics_registry();
        assert!(metrics.counter_value("faehim_journal_appends_total", &[]) >= 4);
        assert!(metrics.counter_value("faehim_replay_hits_total", &[]) >= 1);
        let text = metrics.export_prometheus();
        assert!(text.contains("faehim_journal_bytes"), "{text}");
    }

    /// With the data plane on, a durable run stores its large outputs in
    /// the client attachment store. Reading the journal's stats, and so
    /// scraping the metrics, must not look those outputs up: back-to-back
    /// scrapes with no traffic between them read the same attachment
    /// counters, and the store's counters stay as the run left them.
    #[test]
    fn journal_stats_and_scrapes_leave_the_attachment_store_as_it_was() {
        let mut tk = Toolkit::new().unwrap();
        tk.enable_data_plane();
        let journal = tk.enable_durable_enactment(1);
        let (graph, _, bindings) = crate::casestudy::build_case_study(&tk).unwrap();
        let report = tk.run_durable(&graph, &bindings).unwrap();
        assert!(report.runs.iter().all(|r| r.error.is_none()));
        let store = tk.network().client_store().expect("the data plane is on");
        assert!(!store.is_empty(), "the run stored no output");
        let before = store.stats();
        let records = journal.stats().records;
        assert_eq!(journal.stats().records, records);
        assert_eq!(store.stats(), before);

        let hits = |metrics: &MetricsRegistry| {
            metrics.counter_value(
                "faehim_cache_events_total",
                &[
                    ("cache", "attachments"),
                    ("event", "hits"),
                    ("host", "client"),
                ],
            )
        };
        let first = tk.metrics_registry();
        let second = tk.metrics_registry();
        assert_eq!(hits(&first), hits(&second));
        assert_eq!(hits(&first), before.hits);
        assert_eq!(
            first.gauge_value("faehim_journal_records", &[]),
            Some(records as f64)
        );
        assert_eq!(
            second.gauge_value("faehim_journal_records", &[]),
            Some(records as f64)
        );
        assert_eq!(store.stats(), before);
        assert_eq!(records, journal.events().len() as u64);
    }

    #[test]
    fn pool_ingestion_pins_prometheus_names() {
        use dm_algorithms::pool::WorkerStats;
        let m = MetricsRegistry::new();
        write_pool(
            &m,
            &PoolStats {
                threads: 4,
                tasks: 120,
                batches: 3,
                fanouts: 2,
                steals: 17,
                workers: vec![
                    WorkerStats {
                        tasks: 70,
                        busy: Duration::from_millis(250),
                    },
                    WorkerStats {
                        tasks: 50,
                        busy: Duration::from_millis(125),
                    },
                ],
            },
        );
        assert_eq!(m.gauge_value("faehim_pool_threads", &[]), Some(4.0));
        assert_eq!(m.counter_value("faehim_pool_tasks_total", &[]), 120);
        assert_eq!(m.counter_value("faehim_pool_batches_total", &[]), 3);
        assert_eq!(m.counter_value("faehim_pool_fanouts_total", &[]), 2);
        assert_eq!(m.counter_value("faehim_pool_steals_total", &[]), 17);
        assert_eq!(
            m.counter_value("faehim_pool_worker_tasks_total", &[("worker", "0")]),
            70
        );
        assert_eq!(
            m.gauge_value("faehim_pool_worker_busy_seconds", &[("worker", "1")]),
            Some(0.125)
        );
        // The exposition text carries the exact series names dashboards
        // scrape — pin them so renames are a deliberate act.
        let text = m.export_prometheus();
        for name in [
            "faehim_pool_threads 4",
            "faehim_pool_tasks_total 120",
            "faehim_pool_batches_total 3",
            "faehim_pool_fanouts_total 2",
            "faehim_pool_steals_total 17",
            "faehim_pool_worker_tasks_total{worker=\"0\"} 70",
            "faehim_pool_worker_busy_seconds{worker=\"1\"} 0.125",
        ] {
            assert!(text.contains(name), "missing `{name}` in:\n{text}");
        }
    }

    #[test]
    fn recovery_snapshot_ingests_into_registry() {
        let m = MetricsRegistry::new();
        write_journal(
            &m,
            &JournalStats {
                appends: 22,
                records: 21,
                bytes: 4096,
                replay_hits: 7,
                redeliveries: 1,
                torn_bytes: 13,
                missing_payloads: 0,
            },
        );
        assert_eq!(m.counter_value("faehim_journal_appends_total", &[]), 22);
        assert_eq!(m.gauge_value("faehim_journal_records", &[]), Some(21.0));
        assert_eq!(m.gauge_value("faehim_journal_bytes", &[]), Some(4096.0));
        assert_eq!(m.counter_value("faehim_replay_hits_total", &[]), 7);
        assert_eq!(m.counter_value("faehim_redeliveries_total", &[]), 1);
        assert_eq!(m.counter_value("faehim_journal_torn_bytes_total", &[]), 13);
        // Pin the exported series names dashboards scrape.
        let text = m.export_prometheus();
        for name in [
            "faehim_journal_appends_total 22",
            "faehim_replay_hits_total 7",
            "faehim_redeliveries_total 1",
            "faehim_journal_torn_bytes_total 13",
        ] {
            assert!(text.contains(name), "missing `{name}` in:\n{text}");
        }
    }

    /// The label keys of one Prometheus sample line, in order (no label
    /// value this scrape exports holds `",`).
    fn label_keys(sample: &str) -> Vec<&str> {
        match sample.split_once('{') {
            None => Vec::new(),
            Some((_, labels)) => labels
                .split("\",")
                .map(|pair| pair.split_once('=').expect("key=\"value\"").0)
                .collect(),
        }
    }

    /// Every metric family a scrape exports after a pool batch and a
    /// durable case-study enactment with the data plane and admission
    /// control on: its `# TYPE` line, and the label keys of its series
    /// (`le` and `quantile`, which every histogram's exposition adds,
    /// left out).
    const FAMILIES: &[(&str, &[&[&str]])] = &[
        (
            "faehim_cache_events_total counter",
            &[&["cache", "event", "host"], &["cache", "event", "service"]],
        ),
        (
            "faehim_cache_size gauge",
            &[&["cache", "host", "unit"], &["cache", "service", "unit"]],
        ),
        (
            "faehim_invocation_bytes_total counter",
            &[&["direction", "service"]],
        ),
        (
            "faehim_invocation_duration_seconds histogram",
            &[&["service"]],
        ),
        ("faehim_invocation_ref_hits_total counter", &[&["service"]]),
        (
            "faehim_invocations_total counter",
            &[&["host", "outcome", "service"]],
        ),
        ("faehim_journal_appends_total counter", &[&[]]),
        ("faehim_journal_bytes gauge", &[&[]]),
        ("faehim_journal_records gauge", &[&[]]),
        ("faehim_journal_torn_bytes_total counter", &[&[]]),
        ("faehim_pool_batches_total counter", &[&[]]),
        ("faehim_pool_fanouts_total counter", &[&[]]),
        ("faehim_pool_steals_total counter", &[&[]]),
        ("faehim_pool_tasks_total counter", &[&[]]),
        ("faehim_pool_threads gauge", &[&[]]),
        ("faehim_pool_worker_busy_seconds gauge", &[&["worker"]]),
        ("faehim_pool_worker_tasks_total counter", &[&["worker"]]),
        ("faehim_queue_depth gauge", &[&["host"]]),
        ("faehim_queueing_delay_seconds histogram", &[&["host"]]),
        ("faehim_redeliveries_total counter", &[&[]]),
        ("faehim_replay_hits_total counter", &[&[]]),
        ("faehim_requests_admitted_total counter", &[&["host"]]),
        ("faehim_requests_queued_total counter", &[&["host"]]),
        ("faehim_requests_shed_total counter", &[&["host"]]),
        ("faehim_wire_bytes_saved_total counter", &[&[]]),
        ("faehim_wire_bytes_total counter", &[&[]]),
        ("faehim_wire_envelopes_total counter", &[&[]]),
        ("faehim_wire_ref_substitutions_total counter", &[&[]]),
    ];

    #[test]
    fn a_scrape_exports_the_pinned_metric_families() {
        let mut tk = Toolkit::new().unwrap();
        tk.enable_data_plane();
        tk.enable_admission_control(CapacityConfig {
            workers: 4,
            queue_limit: Some(64),
            service_time: Duration::from_millis(1),
        });
        tk.enable_durable_enactment(1);
        assert_eq!(dm_algorithms::pool::parallel_map(3, |i| i * i), [0, 1, 4]);
        let (graph, _, bindings) = crate::casestudy::build_case_study(&tk).unwrap();
        let report = tk.run_durable(&graph, &bindings).unwrap();
        assert!(report.runs.iter().all(|r| r.error.is_none()));

        let text = tk.metrics_registry().export_prometheus();
        let mut families: Vec<(String, std::collections::BTreeSet<Vec<&str>>)> = Vec::new();
        for line in text.lines() {
            match line.strip_prefix("# TYPE ") {
                Some(decl) => families.push((decl.to_string(), Default::default())),
                None => {
                    let keys = label_keys(line)
                        .into_iter()
                        .filter(|&k| k != "le" && k != "quantile")
                        .collect();
                    families
                        .last_mut()
                        .expect("a # TYPE line first")
                        .1
                        .insert(keys);
                }
            }
        }
        families.sort();
        let seen: Vec<(&str, Vec<&[&str]>)> = families
            .iter()
            .map(|(decl, keys)| (decl.as_str(), keys.iter().map(Vec::as_slice).collect()))
            .collect();
        let pinned: Vec<(&str, Vec<&[&str]>)> = FAMILIES
            .iter()
            .map(|&(decl, keys)| (decl, keys.to_vec()))
            .collect();
        assert_eq!(seen, pinned, "{text}");
    }
}

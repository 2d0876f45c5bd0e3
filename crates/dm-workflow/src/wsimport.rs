//! WSDL import: "A Web Service is imported to the workspace by
//! providing its WSDL interface. Once the interface is provided Triana
//! creates a tool for each operation provided by the service. These
//! tools are used to invoke the service operations" (§4).
//!
//! [`WsTool`] is such a generated tool: its ports mirror the
//! operation's message parts, and `execute` marshals the tokens into a
//! SOAP call over the simulated network. A `WsTool` may carry *replica
//! hosts*: on a transport failure it migrates the invocation to the
//! next replica — the paper's fault-tolerance requirement ("the ability
//! to complete the task if a fault occurs by moving the job to another
//! resource").

use crate::graph::{PortSpec, Token, Tool};
use dm_wsrf::resilience::{attempt, failover, CallStats, Failover, ResilientCaller};
use dm_wsrf::transport::Network;
use dm_wsrf::wsdl::{Operation, WsdlDocument};
use dm_wsrf::WsError;
use parking_lot::Mutex;
use std::sync::Arc;

/// A workspace tool generated from one WSDL operation.
pub struct WsTool {
    name: String,
    package: String,
    service: String,
    operation: Operation,
    network: Arc<Network>,
    /// Invocation targets in preference order (primary first).
    hosts: Mutex<Vec<String>>,
    /// When attached, every per-host attempt goes through the resilient
    /// caller (deadline, backoff retries, circuit breakers) and failing
    /// primaries are demoted behind healthy replicas.
    resilience: Option<ResilientCaller>,
    /// Host that served the most recent successful `execute`.
    last_served: Mutex<Option<String>>,
    /// Aggregate attempt/backoff statistics of the most recent `execute`.
    last_stats: Mutex<CallStats>,
    /// Whether the remote operation is a pure function of its inputs
    /// (set from service metadata; enables memoised enactment).
    pure: bool,
}

impl WsTool {
    /// The service this tool invokes.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// The WSDL operation this tool marshals.
    pub fn operation(&self) -> &Operation {
        &self.operation
    }

    /// Declare whether the remote operation is pure (side-effect free
    /// and deterministic in its inputs). Import cannot know this from
    /// the WSDL alone, so it defaults to impure; deployments with
    /// service metadata (e.g. a per-service purity table) opt
    /// operations in.
    pub fn set_pure(&mut self, pure: bool) {
        self.pure = pure;
    }

    /// The hosts this tool will try, in order.
    pub fn hosts(&self) -> Vec<String> {
        self.hosts.lock().clone()
    }

    /// Add a replica host for failover.
    pub fn add_replica<H: Into<String>>(&mut self, host: H) {
        self.hosts.lock().push(host.into());
    }

    /// Route invocations through `caller` (builder form).
    pub fn with_resilience(mut self, caller: ResilientCaller) -> WsTool {
        self.set_resilience(caller);
        self
    }

    /// Route invocations through `caller`: each per-host attempt gets
    /// the caller's deadline/retry/breaker treatment, and a host that
    /// fails an `execute` is demoted behind the replicas that did not.
    pub fn set_resilience(&mut self, caller: ResilientCaller) {
        self.resilience = Some(caller);
    }

    /// The host that served the last successful [`Tool::execute`], if any.
    pub fn last_served_host(&self) -> Option<String> {
        self.last_served.lock().clone()
    }

    /// Attempt/backoff statistics aggregated over every host tried by
    /// the last [`Tool::execute`] (zeroed at the start of each call).
    pub fn last_call_stats(&self) -> CallStats {
        *self.last_stats.lock()
    }

    /// Should `err` migrate the job to the next replica?
    fn fails_over(&self, err: &WsError) -> bool {
        if self.resilience.is_some() {
            // The resilient caller has already burned its retry budget on
            // this host, so anything transport-shaped — including an open
            // breaker, a blown deadline, or a corrupt response envelope —
            // moves on to the next replica. A host still shedding after
            // the whole backoff budget is saturated, so spread the load.
            err.is_transport_level()
                || err.is_server_busy()
                || matches!(err, WsError::Xml { .. } | WsError::Malformed(_))
        } else {
            err.is_retryable()
        }
    }

    /// In resilient mode, move every host in `failed` behind the hosts
    /// that are not, preserving relative order within each group.
    fn demote(&self, failed: &[String]) {
        if self.resilience.is_none() || failed.is_empty() {
            return;
        }
        let mut hosts = self.hosts.lock();
        let mut healthy: Vec<String> = Vec::with_capacity(hosts.len());
        let mut demoted: Vec<String> = Vec::new();
        for host in hosts.drain(..) {
            if failed.contains(&host) {
                demoted.push(host);
            } else {
                healthy.push(host);
            }
        }
        healthy.append(&mut demoted);
        *hosts = healthy;
    }
}

impl Tool for WsTool {
    fn name(&self) -> &str {
        &self.name
    }

    fn package(&self) -> &str {
        &self.package
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        self.operation
            .inputs
            .iter()
            .map(|p| PortSpec::new(p.name.clone(), p.type_name.clone()))
            .collect()
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new(
            self.operation.output.name.clone(),
            self.operation.output.type_name.clone(),
        )]
    }

    fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
        *self.last_served.lock() = None;
        *self.last_stats.lock() = CallStats::default();
        let hosts = self.hosts();
        let outcome = failover(
            &hosts,
            |host| {
                let args = self
                    .operation
                    .inputs
                    .iter()
                    .zip(inputs)
                    .map(|(part, token)| (part.name.clone(), token.clone()))
                    .collect();
                let (result, stats) = attempt(
                    &self.network,
                    self.resilience.as_ref(),
                    host,
                    &self.service,
                    &self.operation.name,
                    args,
                );
                let mut total = self.last_stats.lock();
                total.attempts += stats.attempts;
                total.backoff += stats.backoff;
                total.possibly_duplicated += stats.possibly_duplicated;
                total.busy += stats.busy;
                result
            },
            |err| self.fails_over(err),
        );
        match outcome {
            Failover::Served { index, value } => {
                *self.last_served.lock() = Some(hosts[index].clone());
                self.demote(&hosts[..index]);
                Ok(vec![value])
            }
            Failover::Stopped(err) => Err(err.to_string()),
            // Every host failed, so demotion would not reorder them.
            Failover::Exhausted(tried) => {
                let attempts: Vec<String> = tried
                    .iter()
                    .map(|(host, err)| format!("host {host}: {err}"))
                    .collect();
                let attempts = if attempts.is_empty() {
                    "no hosts configured".to_string()
                } else {
                    attempts.join(" | ")
                };
                Err(format!("all hosts failed; attempts: [{attempts}]"))
            }
        }
    }

    fn is_pure(&self) -> bool {
        self.pure
    }

    fn last_call_sheds(&self) -> u64 {
        u64::from(self.last_stats.lock().busy)
    }

    fn memo_identity(&self) -> String {
        // Service + operation, not the display name: replica set and
        // resilience wiring don't change what a pure operation returns.
        format!("ws:{}.{}", self.service, self.operation.name)
    }
}

/// Import a WSDL document: one [`WsTool`] per operation, targeting
/// `host` (with no replicas yet). The tools are placed in a package
/// named after the service, mirroring Triana's import behaviour.
pub fn import_wsdl(network: Arc<Network>, host: &str, wsdl: &WsdlDocument) -> Vec<WsTool> {
    wsdl.operations
        .iter()
        .map(|op| WsTool {
            name: format!("{}.{}", wsdl.service, op.name),
            package: format!("WebServices.{}", wsdl.service),
            service: wsdl.service.clone(),
            operation: op.clone(),
            network: Arc::clone(&network),
            hosts: Mutex::new(vec![host.to_string()]),
            resilience: None,
            last_served: Mutex::new(None),
            last_stats: Mutex::new(CallStats::default()),
            pure: false,
        })
        .collect()
}

/// Fetch a service's WSDL from a host and import it in one step (what
/// pasting a `?wsdl` URL into Triana did).
pub fn import_from_host(
    network: Arc<Network>,
    host: &str,
    service: &str,
) -> Result<Vec<WsTool>, WsError> {
    let wsdl = network.fetch_wsdl(host, service)?;
    Ok(import_wsdl(network, host, &wsdl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_wsrf::container::{ServiceFault, WebService};
    use dm_wsrf::soap::SoapValue;
    use dm_wsrf::wsdl::Part;

    struct Doubler;

    impl WebService for Doubler {
        fn name(&self) -> &str {
            "Doubler"
        }

        fn wsdl(&self) -> WsdlDocument {
            WsdlDocument::new("Doubler", "").operation(Operation::new(
                "double",
                vec![Part::new("x", "long")],
                Part::new("y", "long"),
            ))
        }

        fn invoke(
            &self,
            operation: &str,
            args: &[(String, SoapValue)],
        ) -> Result<SoapValue, ServiceFault> {
            match operation {
                "double" => {
                    let x = args
                        .iter()
                        .find(|(n, _)| n == "x")
                        .and_then(|(_, v)| v.as_int().ok())
                        .ok_or_else(|| ServiceFault::client("missing x"))?;
                    Ok(SoapValue::Int(2 * x))
                }
                _ => Err(ServiceFault::client("no such operation")),
            }
        }
    }

    fn network() -> Arc<Network> {
        let net = Arc::new(Network::new());
        net.add_host("a").deploy(Arc::new(Doubler));
        net.add_host("b").deploy(Arc::new(Doubler));
        net
    }

    #[test]
    fn one_tool_per_operation_with_typed_ports() {
        let net = network();
        let tools = import_from_host(Arc::clone(&net), "a", "Doubler").unwrap();
        assert_eq!(tools.len(), 1);
        let tool = &tools[0];
        assert_eq!(tool.name(), "Doubler.double");
        assert_eq!(tool.package(), "WebServices.Doubler");
        assert_eq!(tool.input_ports(), vec![PortSpec::new("x", "long")]);
        assert_eq!(tool.output_ports(), vec![PortSpec::new("y", "long")]);
    }

    #[test]
    fn tool_invokes_the_service() {
        let net = network();
        let tools = import_from_host(Arc::clone(&net), "a", "Doubler").unwrap();
        let out = tools[0].execute(&[Token::Int(21)]).unwrap();
        assert_eq!(out, vec![Token::Int(42)]);
    }

    #[test]
    fn failover_migrates_to_replica() {
        let net = network();
        let mut tools = import_from_host(Arc::clone(&net), "a", "Doubler").unwrap();
        tools[0].add_replica("b");
        net.set_host_down("a", true);
        let out = tools[0].execute(&[Token::Int(5)]).unwrap();
        assert_eq!(out, vec![Token::Int(10)]);
        assert_eq!(tools[0].hosts(), ["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn all_hosts_down_reports_failure() {
        let net = network();
        let mut tools = import_from_host(Arc::clone(&net), "a", "Doubler").unwrap();
        tools[0].add_replica("b");
        net.set_host_down("a", true);
        net.set_host_down("b", true);
        let err = tools[0].execute(&[Token::Int(5)]).unwrap_err();
        assert!(err.contains("all hosts failed"));
    }

    #[test]
    fn soap_faults_are_not_retried() {
        // A fault is an application error, not a transport one: it must
        // surface immediately without trying replicas.
        let net = network();
        let mut tools = import_from_host(Arc::clone(&net), "a", "Doubler").unwrap();
        tools[0].add_replica("b");
        let err = tools[0].execute(&[Token::Text("bad".into())]).unwrap_err();
        assert!(err.contains("SOAP fault"), "got: {err}");
    }

    fn resilient(net: &Arc<Network>) -> ResilientCaller {
        use dm_wsrf::resilience::{BreakerBoard, BreakerConfig, ResiliencePolicy};
        ResilientCaller::new(
            Arc::clone(net),
            Arc::new(BreakerBoard::new(BreakerConfig::default())),
            ResiliencePolicy::default().attempts(2),
        )
    }

    #[test]
    fn plain_execute_records_serving_host_and_stats() {
        let net = network();
        let tools = import_from_host(Arc::clone(&net), "a", "Doubler").unwrap();
        assert_eq!(tools[0].last_served_host(), None);
        tools[0].execute(&[Token::Int(1)]).unwrap();
        assert_eq!(tools[0].last_served_host(), Some("a".to_string()));
        assert_eq!(tools[0].last_call_stats().attempts, 1);
    }

    #[test]
    fn resilient_failover_demotes_failing_primary() {
        let net = network();
        let tools = import_from_host(Arc::clone(&net), "a", "Doubler").unwrap();
        let mut tool = tools
            .into_iter()
            .next()
            .unwrap()
            .with_resilience(resilient(&net));
        tool.add_replica("b");
        net.set_host_down("a", true);

        let out = tool.execute(&[Token::Int(5)]).unwrap();
        assert_eq!(out, vec![Token::Int(10)]);
        assert_eq!(tool.last_served_host(), Some("b".to_string()));
        // The failing primary is demoted behind the replica that served.
        assert_eq!(tool.hosts(), ["b".to_string(), "a".to_string()]);
        // Two attempts burned on "a", one succeeded on "b".
        let stats = tool.last_call_stats();
        assert_eq!(stats.attempts, 3);
        assert!(stats.backoff > std::time::Duration::ZERO);
    }

    #[test]
    fn resilient_execute_collects_every_attempt_error() {
        let net = network();
        let tools = import_from_host(Arc::clone(&net), "a", "Doubler").unwrap();
        let mut tool = tools
            .into_iter()
            .next()
            .unwrap()
            .with_resilience(resilient(&net));
        tool.add_replica("b");
        net.set_host_down("a", true);
        net.set_host_down("b", true);

        let err = tool.execute(&[Token::Int(5)]).unwrap_err();
        assert!(err.contains("all hosts failed"), "got: {err}");
        assert!(err.contains("host a:"), "got: {err}");
        assert!(err.contains("host b:"), "got: {err}");
        assert_eq!(tool.last_served_host(), None);
        assert_eq!(tool.last_call_stats().attempts, 4);
    }

    #[test]
    fn open_breaker_routes_around_host_without_attempting_it() {
        let net = network();
        let caller = resilient(&net);
        // Trip "a"'s breaker: enough recorded failures to cross the
        // default min-calls floor and failure-rate threshold.
        let breaker = caller.board().breaker("a");
        for _ in 0..4 {
            breaker.record_failure(net.now());
        }
        let tools = import_from_host(Arc::clone(&net), "a", "Doubler").unwrap();
        let mut tool = tools.into_iter().next().unwrap().with_resilience(caller);
        tool.add_replica("b");

        // "a" is actually up, but its breaker is open, so the call is
        // served by "b" without ever touching "a".
        let before = net.monitor().len();
        let out = tool.execute(&[Token::Int(7)]).unwrap();
        assert_eq!(out, vec![Token::Int(14)]);
        assert_eq!(tool.last_served_host(), Some("b".to_string()));
        assert_eq!(net.monitor().len(), before + 1);
        assert_eq!(tool.hosts(), ["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn import_uses_wire_wsdl() {
        // Import must work from the XML round-trip, not object sharing.
        let net = network();
        let wsdl_xml = net.fetch_wsdl("a", "Doubler").unwrap().to_xml();
        let parsed = WsdlDocument::from_xml(&wsdl_xml).unwrap();
        let tools = import_wsdl(Arc::clone(&net), "a", &parsed);
        assert_eq!(
            tools[0].execute(&[Token::Int(3)]).unwrap(),
            vec![Token::Int(6)]
        );
    }
}

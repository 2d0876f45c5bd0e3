//! The service container — the Tomcat/Axis equivalent: services are
//! deployed by name and envelopes are dispatched to them. The container
//! keeps no invocation log of its own: the network's
//! [`MonitorLog`](crate::monitor::MonitorLog) records every attempt, on
//! the virtual clock, where the call crosses the transport.

use crate::dataplane::{AttachmentStore, CacheStats};
use crate::error::{Result, WsError};
use crate::metrics::Histogram;
use crate::soap::{SoapCall, SoapResponse, SoapValue};
use crate::trace::{SpanKind, Tracer};
use crate::wsdl::WsdlDocument;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// A fault raised by a service implementation; mapped to a SOAP fault
/// on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceFault {
    /// Fault code (`"Client"` for caller errors, `"Server"` otherwise).
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl ServiceFault {
    /// A caller-error fault.
    pub fn client<M: Into<String>>(message: M) -> ServiceFault {
        ServiceFault {
            code: "Client",
            message: message.into(),
        }
    }

    /// A service-error fault.
    pub fn server<M: Into<String>>(message: M) -> ServiceFault {
        ServiceFault {
            code: "Server",
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServiceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

/// A deployable Web Service. Implementations use interior mutability
/// for any state (the container shares them across threads).
pub trait WebService: Send + Sync {
    /// Deployment name (also the WSDL service name).
    fn name(&self) -> &str;

    /// The service's WSDL description.
    fn wsdl(&self) -> WsdlDocument;

    /// Invoke an operation with named arguments.
    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> std::result::Result<SoapValue, ServiceFault>;

    /// The counters of the caches the service keeps, by cache name,
    /// read in process: no call is made, so reading them charges no
    /// virtual time or wire bytes and records no invocation. None by
    /// default.
    fn cache_stats(&self) -> Vec<(&'static str, CacheStats)> {
        Vec::new()
    }
}

/// Default per-host attachment store bound: 64 MiB, comfortably more
/// than the paper's datasets while still exercising eviction in tests.
pub const DEFAULT_ATTACHMENT_CAPACITY: usize = 64 * 1024 * 1024;

/// Capacity model of one simulated host: a Tomcat/Axis-like connector
/// with a fixed worker pool, a per-request service time charged to the
/// virtual clock, and a bounded FIFO accept queue. Requests arriving
/// while all workers are busy wait in the queue; requests arriving
/// while the queue is full are shed with a `ServerBusy` SOAP fault.
///
/// Hosts have no capacity model by default (legacy behaviour: infinite
/// free concurrency), so nothing changes off the overload path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityConfig {
    /// Parallel worker threads (clamped to at least 1 on install).
    pub workers: usize,
    /// Accept-queue bound beyond the workers themselves; `None` models
    /// an unbounded queue (the pre-admission-control pathology: no
    /// request is ever shed, latency grows without limit under
    /// sustained overload).
    pub queue_limit: Option<usize>,
    /// Virtual time one worker spends serving one request.
    pub service_time: Duration,
}

impl Default for CapacityConfig {
    fn default() -> CapacityConfig {
        CapacityConfig {
            workers: 4,
            queue_limit: Some(8),
            service_time: Duration::from_millis(2),
        }
    }
}

/// The connector's admission decision for one request arriving at a
/// given virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted: the request waits `queue_wait` for a worker, then is
    /// served for `service_time`; both belong on the virtual clock.
    Admitted {
        /// Virtual time spent queued before a worker frees up.
        queue_wait: Duration,
        /// Virtual time the worker spends on the request.
        service_time: Duration,
        /// Requests in the system (serving + queued) after admission.
        depth: usize,
    },
    /// The accept queue was full; the request is shed with a
    /// `ServerBusy` fault and never reaches a service.
    Shed {
        /// Requests in the system at the (refused) arrival.
        in_system: usize,
    },
}

/// Snapshot of one host's admission-control counters.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStats {
    /// Requests admitted (served immediately or queued).
    pub admitted: u64,
    /// Admitted requests that had to wait for a worker.
    pub queued: u64,
    /// Requests refused with `ServerBusy`.
    pub shed: u64,
    /// Sum of all queue waits (virtual time).
    pub total_queue_wait: Duration,
    /// Requests in the system (serving + queued) at the snapshot's
    /// virtual instant.
    pub in_system: usize,
    /// Distribution of per-request queue waits, in seconds.
    pub queue_waits: Histogram,
}

/// Virtual-clock queueing state behind a capacity model: per-worker
/// busy-until instants plus the completion times of every admitted
/// request still in the system.
#[derive(Debug)]
struct CapacityState {
    config: CapacityConfig,
    /// Virtual instant each worker frees up.
    worker_free: Vec<Duration>,
    /// Virtual completion instants of requests currently in the system.
    in_system: Vec<Duration>,
    admitted: u64,
    queued: u64,
    shed: u64,
    total_queue_wait: Duration,
    queue_waits: Histogram,
}

impl CapacityState {
    fn new(config: CapacityConfig) -> CapacityState {
        let workers = config.workers.max(1);
        CapacityState {
            config: CapacityConfig { workers, ..config },
            worker_free: vec![Duration::ZERO; workers],
            in_system: Vec::new(),
            admitted: 0,
            queued: 0,
            shed: 0,
            total_queue_wait: Duration::ZERO,
            queue_waits: Histogram::new(),
        }
    }

    /// Decide admission for a request arriving at virtual instant
    /// `now`, updating the queueing state. FIFO discipline: arrivals
    /// are assigned to whichever worker frees up earliest.
    fn admit(&mut self, now: Duration) -> Admission {
        self.in_system.retain(|&end| end > now);
        if let Some(limit) = self.config.queue_limit {
            if self.in_system.len() >= self.config.workers + limit {
                self.shed += 1;
                return Admission::Shed {
                    in_system: self.in_system.len(),
                };
            }
        }
        let slot = self
            .worker_free
            .iter()
            .enumerate()
            .min_by_key(|&(_, free)| *free)
            .map(|(i, _)| i)
            .expect("capacity model has at least one worker");
        let start = self.worker_free[slot].max(now);
        let queue_wait = start - now;
        let end = start + self.config.service_time;
        self.worker_free[slot] = end;
        self.in_system.push(end);
        self.admitted += 1;
        if !queue_wait.is_zero() {
            self.queued += 1;
        }
        self.total_queue_wait += queue_wait;
        self.queue_waits.observe(queue_wait.as_secs_f64());
        Admission::Admitted {
            queue_wait,
            service_time: self.config.service_time,
            depth: self.in_system.len(),
        }
    }
}

/// An Axis-like container holding deployed services on one host.
pub struct ServiceContainer {
    host: String,
    services: RwLock<HashMap<String, Arc<dyn WebService>>>,
    attachments: Arc<AttachmentStore>,
    tracer: RwLock<Option<Arc<Tracer>>>,
    capacity: Mutex<Option<CapacityState>>,
}

impl ServiceContainer {
    /// Create a container for `host`.
    pub fn new<H: Into<String>>(host: H) -> ServiceContainer {
        ServiceContainer {
            host: host.into(),
            services: RwLock::new(HashMap::new()),
            attachments: Arc::new(AttachmentStore::new(DEFAULT_ATTACHMENT_CAPACITY)),
            tracer: RwLock::new(None),
            capacity: Mutex::new(None),
        }
    }

    /// Install (or, with `None`, remove) this host's capacity model.
    /// Installing resets all queueing state and load counters.
    pub fn set_capacity(&self, config: Option<CapacityConfig>) {
        *self.capacity.lock() = config.map(CapacityState::new);
    }

    /// The installed capacity model, if any (with `workers` clamped as
    /// stored).
    pub fn capacity(&self) -> Option<CapacityConfig> {
        self.capacity.lock().as_ref().map(|s| s.config)
    }

    /// Admission decision for a request arriving at virtual instant
    /// `now`. `None` means no capacity model is installed and the
    /// request proceeds with the legacy free-concurrency behaviour.
    pub fn admit(&self, now: Duration) -> Option<Admission> {
        self.capacity.lock().as_mut().map(|s| s.admit(now))
    }

    /// Requests in the system (serving + queued) at virtual instant
    /// `now`; 0 without a capacity model. This is the load signal
    /// `Network::load_snapshot` hands the router and the cost model.
    pub fn in_system(&self, now: Duration) -> usize {
        match self.capacity.lock().as_mut() {
            Some(state) => {
                state.in_system.retain(|&end| end > now);
                state.in_system.len()
            }
            None => 0,
        }
    }

    /// Snapshot of the host's load counters; `None` without a capacity
    /// model. `in_system` is evaluated at `now` on the virtual clock.
    pub fn load_stats(&self, now: Duration) -> Option<LoadStats> {
        self.capacity.lock().as_mut().map(|state| {
            state.in_system.retain(|&end| end > now);
            LoadStats {
                admitted: state.admitted,
                queued: state.queued,
                shed: state.shed,
                total_queue_wait: state.total_queue_wait,
                in_system: state.in_system.len(),
                queue_waits: state.queue_waits.clone(),
            }
        })
    }

    /// Install (or remove) the tracer this container records dispatch
    /// spans into. `Network::enable_tracing` wires this for every host.
    pub fn set_tracer(&self, tracer: Option<Arc<Tracer>>) {
        *self.tracer.write() = tracer;
    }

    /// The host name this container runs on.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The host-side attachment store: payloads this host has already
    /// received or served, addressable by content hash.
    pub fn attachments(&self) -> Arc<AttachmentStore> {
        Arc::clone(&self.attachments)
    }

    /// Deploy a service (replacing any prior deployment of the name).
    pub fn deploy(&self, service: Arc<dyn WebService>) {
        self.services
            .write()
            .insert(service.name().to_string(), service);
    }

    /// Undeploy by name; returns whether a service was removed.
    pub fn undeploy(&self, name: &str) -> bool {
        self.services.write().remove(name).is_some()
    }

    /// Names of all deployed services, sorted.
    pub fn deployed(&self) -> Vec<String> {
        let mut names: Vec<String> = self.services.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// The WSDL of a deployed service, with the endpoint rewritten to
    /// this host (as Axis publishes it).
    pub fn wsdl_of(&self, name: &str) -> Result<WsdlDocument> {
        let service = self
            .services
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| WsError::NotDeployed(name.to_string()))?;
        let mut wsdl = service.wsdl();
        wsdl.endpoint = format!("http://{}:8080/axis/{}", self.host, name);
        Ok(wsdl)
    }

    /// The cache counters the deployed service `name` reports
    /// ([`WebService::cache_stats`]), read in process; empty when no
    /// such service is deployed.
    pub fn cache_stats(&self, name: &str) -> Vec<(&'static str, CacheStats)> {
        let service = self.services.read().get(name).cloned();
        service.map(|s| s.cache_stats()).unwrap_or_default()
    }

    /// Resolve any `DataRef` arguments against this host's attachment
    /// store, returning the materialised arguments. An unknown
    /// reference is the caller's error — the sender substituted a
    /// handle this host never held. (The transport counts the ref hits
    /// and the bytes they saved when it substitutes the handles.)
    fn resolve_refs(
        &self,
        args: &[(String, SoapValue)],
    ) -> std::result::Result<Vec<(String, SoapValue)>, ServiceFault> {
        args.iter()
            .map(|(name, value)| match value.as_data_ref() {
                Some((hash, _, _)) => {
                    let payload = self.attachments.get(hash).ok_or_else(|| {
                        ServiceFault::client(format!(
                            "unknown dataRef {hash:032x} (not in {}'s attachment store)",
                            self.host
                        ))
                    })?;
                    Ok((name.clone(), payload.to_value()))
                }
                None => Ok((name.clone(), value.clone())),
            })
            .collect()
    }

    /// Dispatch a decoded call. `DataRef` arguments are materialised
    /// from the attachment store before the service sees them —
    /// services never know whether a payload arrived inline or by
    /// reference.
    pub fn dispatch(&self, call: &SoapCall) -> SoapResponse {
        let service = self.services.read().get(&call.service).cloned();
        // The dispatch span parents under the envelope's traceparent
        // header (the transport's request leg) — this is the causal
        // link across the simulated wire. Making it current lets
        // service handlers open child spans of their own.
        let mut dispatch_span = self.tracer.read().clone().map(|t| {
            let mut span = t.start_span(
                format!("{}.{} dispatch", call.service, call.operation),
                SpanKind::Dispatch,
                call.trace_parent,
            );
            span.set_attr("host", self.host.clone());
            span
        });
        let _current = dispatch_span.as_ref().map(|s| s.make_current());
        let has_refs = call.args.iter().any(|(_, v)| v.as_data_ref().is_some());
        let response = match service {
            None => SoapResponse::Fault {
                code: "Client".into(),
                message: format!(
                    "service {:?} is not deployed on {}",
                    call.service, self.host
                ),
            },
            Some(s) => {
                // A panicking handler answers with a Server fault, so
                // the caller's transport still records the call and
                // releases the host.
                let invoked = panic::catch_unwind(AssertUnwindSafe(|| {
                    if has_refs {
                        self.resolve_refs(&call.args)
                            .and_then(|args| s.invoke(&call.operation, &args))
                    } else {
                        s.invoke(&call.operation, &call.args)
                    }
                }))
                .unwrap_or_else(|payload| {
                    let cause = payload
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("non-text panic payload");
                    Err(ServiceFault::server(format!(
                        "{}.{} panicked: {cause}",
                        call.service, call.operation
                    )))
                });
                match invoked {
                    Ok(v) => SoapResponse::Value(v),
                    Err(fault) => SoapResponse::Fault {
                        code: fault.code.into(),
                        message: fault.message,
                    },
                }
            }
        };
        if let (Some(span), SoapResponse::Fault { code, message }) =
            (dispatch_span.as_mut(), &response)
        {
            span.set_error(format!("[{code}] {message}"));
        }
        response
    }

    /// Dispatch raw envelope XML — the full wire path: decode request,
    /// dispatch, encode response.
    pub fn dispatch_envelope(&self, request_xml: &str) -> String {
        match SoapCall::from_envelope(request_xml) {
            Ok(call) => self.dispatch(&call).to_envelope(&call.operation),
            Err(e) => SoapResponse::Fault {
                code: "Client".into(),
                message: e.to_string(),
            }
            .to_envelope("unknown"),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// An echo service used by substrate tests.
    pub struct EchoService;

    impl WebService for EchoService {
        fn name(&self) -> &str {
            "Echo"
        }

        fn wsdl(&self) -> WsdlDocument {
            use crate::wsdl::{Operation, Part};
            WsdlDocument::new("Echo", "http://localhost/Echo")
                .operation(Operation::new(
                    "echo",
                    vec![Part::new("message", "string")],
                    Part::new("return", "string"),
                ))
                .operation(Operation::new(
                    "fail",
                    vec![],
                    Part::new("return", "string"),
                ))
        }

        fn invoke(
            &self,
            operation: &str,
            args: &[(String, SoapValue)],
        ) -> std::result::Result<SoapValue, ServiceFault> {
            match operation {
                "echo" => {
                    let msg = args
                        .iter()
                        .find(|(n, _)| n == "message")
                        .map(|(_, v)| v.clone())
                        .ok_or_else(|| ServiceFault::client("missing message"))?;
                    Ok(msg)
                }
                "fail" => Err(ServiceFault::server("deliberate failure")),
                other => Err(ServiceFault::client(format!("no operation {other:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::EchoService;
    use super::*;

    fn container() -> ServiceContainer {
        let c = ServiceContainer::new("host-a");
        c.deploy(Arc::new(EchoService));
        c
    }

    #[test]
    fn deploy_and_list() {
        let c = container();
        assert_eq!(c.deployed(), vec!["Echo".to_string()]);
        assert!(c.undeploy("Echo"));
        assert!(!c.undeploy("Echo"));
        assert!(c.deployed().is_empty());
    }

    #[test]
    fn dispatch_success() {
        let c = container();
        let call = SoapCall::new("Echo", "echo").arg("message", SoapValue::Text("hi".into()));
        match c.dispatch(&call) {
            SoapResponse::Value(SoapValue::Text(s)) => assert_eq!(s, "hi"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dispatch_fault_paths() {
        let c = container();
        let fail = c.dispatch(&SoapCall::new("Echo", "fail"));
        assert!(matches!(fail, SoapResponse::Fault { code, .. } if code == "Server"));
        let missing = c.dispatch(&SoapCall::new("Nope", "x"));
        assert!(matches!(missing, SoapResponse::Fault { code, .. } if code == "Client"));
        let badop = c.dispatch(&SoapCall::new("Echo", "bogus"));
        assert!(matches!(badop, SoapResponse::Fault { code, .. } if code == "Client"));
    }

    #[test]
    fn envelope_wire_path() {
        let c = container();
        let call = SoapCall::new("Echo", "echo").arg("message", SoapValue::Int(7));
        let response_xml = c.dispatch_envelope(&call.to_envelope());
        let response = SoapResponse::from_envelope(&response_xml).unwrap();
        assert_eq!(response.into_result().unwrap(), SoapValue::Int(7));
    }

    #[test]
    fn garbage_envelope_becomes_client_fault() {
        let c = container();
        let response_xml = c.dispatch_envelope("this is not xml");
        let response = SoapResponse::from_envelope(&response_xml).unwrap();
        assert!(matches!(response, SoapResponse::Fault { code, .. } if code == "Client"));
    }

    #[test]
    fn data_ref_args_resolve_from_attachment_store() {
        use crate::dataplane::{content_ref, Payload};
        let c = container();
        let payload = SoapValue::Text("x".repeat(5000));
        let cr = content_ref(&payload).unwrap();
        c.attachments()
            .insert(cr.hash, Payload::from_value(&payload).unwrap());
        let call = SoapCall::new("Echo", "echo").arg(
            "message",
            SoapValue::DataRef {
                hash: cr.hash,
                len: cr.len,
                kind: cr.kind,
            },
        );
        match c.dispatch(&call) {
            SoapResponse::Value(v) => assert_eq!(v, payload),
            other => panic!("expected materialised payload, got {other:?}"),
        }
    }

    #[test]
    fn unknown_data_ref_is_client_fault() {
        let c = container();
        let call = SoapCall::new("Echo", "echo").arg(
            "message",
            SoapValue::DataRef {
                hash: 0x1234,
                len: 10,
                kind: crate::soap::RefKind::Text,
            },
        );
        match c.dispatch(&call) {
            SoapResponse::Fault { code, message } => {
                assert_eq!(code, "Client");
                assert!(message.contains("dataRef"), "{message}");
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn wsdl_endpoint_rewritten_to_host() {
        let c = container();
        let wsdl = c.wsdl_of("Echo").unwrap();
        assert_eq!(wsdl.endpoint, "http://host-a:8080/axis/Echo");
        assert!(c.wsdl_of("Nope").is_err());
    }

    #[test]
    fn capacity_disabled_by_default() {
        let c = container();
        assert_eq!(c.capacity(), None);
        assert_eq!(c.admit(Duration::ZERO), None);
        assert_eq!(c.load_stats(Duration::ZERO), None);
    }

    #[test]
    fn admission_queues_then_sheds() {
        let c = container();
        c.set_capacity(Some(CapacityConfig {
            workers: 2,
            queue_limit: Some(2),
            service_time: Duration::from_millis(10),
        }));
        let now = Duration::ZERO;
        // Two workers: first two arrivals start immediately.
        for _ in 0..2 {
            match c.admit(now).unwrap() {
                Admission::Admitted { queue_wait, .. } => assert_eq!(queue_wait, Duration::ZERO),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Next two wait one and two service times for a worker to free.
        for expected_ms in [10, 10] {
            match c.admit(now).unwrap() {
                Admission::Admitted { queue_wait, .. } => {
                    assert!(
                        queue_wait >= Duration::from_millis(expected_ms),
                        "wanted >= {expected_ms} ms wait, got {queue_wait:?}"
                    );
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // workers + queue_limit = 4 in system: the fifth is shed.
        assert_eq!(c.admit(now).unwrap(), Admission::Shed { in_system: 4 });

        let stats = c.load_stats(now).unwrap();
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.queued, 2);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.in_system, 4);
        assert_eq!(stats.queue_waits.count, 4);
    }

    #[test]
    fn capacity_drains_on_the_virtual_clock() {
        let c = container();
        c.set_capacity(Some(CapacityConfig {
            workers: 1,
            queue_limit: Some(0),
            service_time: Duration::from_millis(5),
        }));
        assert!(matches!(
            c.admit(Duration::ZERO).unwrap(),
            Admission::Admitted { .. }
        ));
        // The single worker is busy until t = 5 ms; no queue slots.
        assert!(matches!(
            c.admit(Duration::from_millis(1)).unwrap(),
            Admission::Shed { .. }
        ));
        // Once the clock passes the busy period the host accepts again.
        assert!(matches!(
            c.admit(Duration::from_millis(6)).unwrap(),
            Admission::Admitted { queue_wait, .. } if queue_wait == Duration::ZERO
        ));
        assert_eq!(c.in_system(Duration::from_millis(20)), 0);
    }

    #[test]
    fn unbounded_queue_never_sheds_but_waits_grow() {
        let c = container();
        c.set_capacity(Some(CapacityConfig {
            workers: 1,
            queue_limit: None,
            service_time: Duration::from_millis(1),
        }));
        let mut last_wait = Duration::ZERO;
        for i in 0..64 {
            match c.admit(Duration::ZERO).unwrap() {
                Admission::Admitted { queue_wait, .. } => {
                    assert!(queue_wait >= last_wait, "arrival {i} wait shrank");
                    last_wait = queue_wait;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let stats = c.load_stats(Duration::ZERO).unwrap();
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.in_system, 64);
        assert_eq!(last_wait, Duration::from_millis(63));
    }

    #[test]
    fn set_capacity_resets_state() {
        let c = container();
        let config = CapacityConfig::default();
        c.set_capacity(Some(config));
        c.admit(Duration::ZERO);
        assert_eq!(c.load_stats(Duration::ZERO).unwrap().admitted, 1);
        c.set_capacity(Some(config));
        assert_eq!(c.load_stats(Duration::ZERO).unwrap().admitted, 0);
        c.set_capacity(None);
        assert_eq!(c.load_stats(Duration::ZERO), None);
    }
}

//! The simulated network.
//!
//! The paper's services ran over HTTP on a 1 Gb/s LAN (§5.1). This
//! module provides the equivalent substrate: named hosts, each with a
//! service container; invocation serialises the call to envelope XML,
//! charges a latency + bandwidth cost against a **virtual clock**,
//! dispatches, and charges the response the same way.
//!
//! A scripted per-host fault engine drives the fault-tolerance
//! experiment (E9): random per-message failures, hosts marked down,
//! outage windows and latency spikes scheduled on the virtual clock,
//! square-wave "flapping", and response-envelope corruption that
//! surfaces as decode errors. Failures distinguish the **request leg**
//! ([`WsError::Transport`] — the service never ran) from the
//! **response leg** ([`WsError::ResponseLost`] — the service may have
//! executed before the reply was lost), which is what retry layers
//! need to account for duplicated work.
//!
//! Virtual time (not `thread::sleep`) keeps the benchmarks fast and
//! deterministic while preserving the *shape* of network costs: a
//! 2 MB ARFF dataset genuinely costs ~16 ms of virtual time at 1 Gb/s
//! while a 200-byte control message costs ~the base latency.

use crate::container::{Admission, ServiceContainer};
use crate::dataplane::{content_ref, AttachmentStore, Payload};
use crate::error::{Result, WsError, SERVER_BUSY_CODE};
use crate::monitor::{InvocationEvent, MonitorLog, Outcome};
use crate::soap::{SoapCall, SoapResponse, SoapValue};
use crate::trace::{self, SpanKind, Tracer};
use crate::wsdl::WsdlDocument;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Link cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// One-way base latency per message.
    pub latency: Duration,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl Default for NetworkConfig {
    /// The paper's testbed: 1 Gb/s LAN, sub-millisecond latency.
    fn default() -> Self {
        NetworkConfig {
            latency: Duration::from_micros(500),
            bandwidth_bytes_per_sec: 125_000_000.0, // 1 Gb/s
        }
    }
}

impl NetworkConfig {
    /// Virtual transmission time of a message of `bytes`.
    pub fn transmit_time(&self, bytes: usize) -> Duration {
        let transfer = bytes as f64 / self.bandwidth_bytes_per_sec;
        self.latency + Duration::from_secs_f64(transfer)
    }
}

/// Configuration of the content-addressed data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPlaneConfig {
    /// Text/Bytes payloads of at least this many bytes are eligible for
    /// pass-by-reference substitution; smaller ones always ship inline
    /// (a handle would not be smaller).
    pub inline_threshold: usize,
    /// Byte bound of every host-side attachment store.
    pub host_store_capacity: usize,
    /// Byte bound of the client/engine-side attachment store.
    pub client_store_capacity: usize,
}

impl Default for DataPlaneConfig {
    fn default() -> Self {
        DataPlaneConfig {
            inline_threshold: 1024,
            host_store_capacity: crate::container::DEFAULT_ATTACHMENT_CAPACITY,
            client_store_capacity: crate::container::DEFAULT_ATTACHMENT_CAPACITY,
        }
    }
}

#[derive(Clone)]
struct DataPlaneState {
    config: DataPlaneConfig,
    client_store: Arc<AttachmentStore>,
}

/// Wire-cost accounting snapshot: what actually crossed the simulated
/// network, and what the data plane kept off it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Envelopes transmitted (request + response legs + WSDL fetches).
    pub envelopes: u64,
    /// Total envelope bytes charged to the virtual clock.
    pub bytes: u64,
    /// Envelope bytes avoided by substituting `DataRef` handles.
    pub bytes_saved: u64,
    /// Payloads that travelled as handles instead of inline.
    pub ref_substitutions: u64,
    /// Envelope serialisations performed (one per encoded message).
    pub serialisations: u64,
}

#[derive(Debug, Default)]
struct WireCounters {
    envelopes: AtomicU64,
    bytes: AtomicU64,
    bytes_saved: AtomicU64,
    ref_substitutions: AtomicU64,
    serialisations: AtomicU64,
}

impl WireCounters {
    fn snapshot(&self) -> WireStats {
        WireStats {
            envelopes: self.envelopes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
            ref_substitutions: self.ref_substitutions.load(Ordering::Relaxed),
            serialisations: self.serialisations.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.envelopes.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.bytes_saved.store(0, Ordering::Relaxed);
        self.ref_substitutions.store(0, Ordering::Relaxed);
        self.serialisations.store(0, Ordering::Relaxed);
    }

    fn sent(&self, bytes: usize) {
        self.envelopes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.serialisations.fetch_add(1, Ordering::Relaxed);
    }

    fn substituted(&self, saved: usize) {
        self.ref_substitutions.fetch_add(1, Ordering::Relaxed);
        self.bytes_saved.fetch_add(saved as u64, Ordering::Relaxed);
    }
}

/// Which half of the wire path a fault fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    Request,
    Response,
}

/// Per-invocation wire accounting threaded through `invoke_wire`.
#[derive(Debug, Default)]
struct LegAccounting {
    bytes_in: usize,
    bytes_out: usize,
    bytes_saved: usize,
    ref_hits: usize,
}

/// One call's share of a host's outstanding count: raised on entry and
/// lowered on drop, so a call that unwinds cannot leave the host loaded.
struct InFlight<'a> {
    outstanding: &'a Mutex<HashMap<String, u64>>,
    host: &'a str,
}

impl<'a> InFlight<'a> {
    fn enter(outstanding: &'a Mutex<HashMap<String, u64>>, host: &'a str) -> InFlight<'a> {
        *outstanding.lock().entry(host.to_string()).or_insert(0) += 1;
        InFlight { outstanding, host }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        if let Some(count) = self.outstanding.lock().get_mut(self.host) {
            *count = count.saturating_sub(1);
        }
    }
}

/// Scripted faults for one host. All windows are on the virtual clock.
#[derive(Debug, Default, Clone)]
struct HostFaults {
    /// Per-message random failure probability.
    probability: f64,
    /// Probability a response envelope is corrupted in transit.
    corrupt_probability: f64,
    /// Hard down (every message fails) until cleared.
    down: bool,
    /// Scheduled outages: messages fail while `from <= now < until`.
    outages: Vec<(Duration, Duration)>,
    /// Latency spikes: `(from, until, extra)` adds `extra` to every
    /// message charge while the window is active.
    latency_spikes: Vec<(Duration, Duration, Duration)>,
    /// Square-wave flapping: `(period, up_fraction)` — the host is up
    /// for the first `up_fraction` of each period, down for the rest.
    flap: Option<(Duration, f64)>,
}

impl HostFaults {
    fn is_unreachable(&self, now: Duration) -> Option<String> {
        if self.down {
            return Some("host marked down".to_string());
        }
        if let Some(&(from, until)) = self
            .outages
            .iter()
            .find(|&&(from, until)| from <= now && now < until)
        {
            return Some(format!("scripted outage {from:?}..{until:?}"));
        }
        if let Some((period, up_fraction)) = self.flap {
            if !period.is_zero() {
                let phase = now.as_nanos() % period.as_nanos();
                let up_for = (period.as_nanos() as f64 * up_fraction.clamp(0.0, 1.0)) as u128;
                if phase >= up_for {
                    return Some(format!("flapping (down phase of {period:?} cycle)"));
                }
            }
        }
        None
    }

    fn extra_latency(&self, now: Duration) -> Duration {
        self.latency_spikes
            .iter()
            .filter(|&&(from, until, _)| from <= now && now < until)
            .map(|&(_, _, extra)| extra)
            .sum()
    }
}

/// Failure-injection engine for E9: scripted per-host faults plus a
/// seeded RNG for the probabilistic ones, so runs are deterministic.
#[derive(Debug)]
struct FaultPlan {
    hosts: HashMap<String, HostFaults>,
    rng: StdRng,
}

impl FaultPlan {
    fn host_mut(&mut self, host: &str) -> &mut HostFaults {
        self.hosts.entry(host.to_string()).or_default()
    }
}

/// The simulated network: hosts, cost model, virtual clock, fault
/// engine, and the invocation log, which records every attempt here,
/// at the transport, so it sees transport failures too.
pub struct Network {
    config: NetworkConfig,
    hosts: RwLock<HashMap<String, Arc<ServiceContainer>>>,
    virtual_nanos: Arc<AtomicU64>,
    faults: Mutex<FaultPlan>,
    monitor: MonitorLog,
    dataplane: RwLock<Option<DataPlaneState>>,
    wire: WireCounters,
    tracer: RwLock<Option<Arc<Tracer>>>,
    outstanding: Mutex<HashMap<String, u64>>,
}

impl Network {
    /// Create a network with the default (1 Gb/s) cost model.
    pub fn new() -> Network {
        Network::with_config(NetworkConfig::default())
    }

    /// Create with an explicit cost model.
    pub fn with_config(config: NetworkConfig) -> Network {
        Network {
            config,
            hosts: RwLock::new(HashMap::new()),
            virtual_nanos: Arc::new(AtomicU64::new(0)),
            faults: Mutex::new(FaultPlan {
                hosts: HashMap::new(),
                rng: StdRng::seed_from_u64(0xFAE),
            }),
            monitor: MonitorLog::new(),
            dataplane: RwLock::new(None),
            wire: WireCounters::default(),
            tracer: RwLock::new(None),
            outstanding: Mutex::new(HashMap::new()),
        }
    }

    /// The cost model in force.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Add (or fetch) a host and its container.
    pub fn add_host(&self, name: &str) -> Arc<ServiceContainer> {
        let mut hosts = self.hosts.write();
        Arc::clone(hosts.entry(name.to_string()).or_insert_with(|| {
            let c = ServiceContainer::new(name);
            if let Some(dp) = self.dataplane.read().as_ref() {
                c.attachments().set_capacity(dp.config.host_store_capacity);
            }
            if let Some(tracer) = self.tracer.read().as_ref() {
                c.set_tracer(Some(Arc::clone(tracer)));
            }
            Arc::new(c)
        }))
    }

    /// Turn on the content-addressed data plane: large Text/Bytes
    /// payloads are substituted with `DataRef` handles whenever the
    /// receiving side's attachment store already holds the bytes, and
    /// stored on first sight so the *next* transfer is a handle.
    /// Existing hosts' stores are re-bounded to the configured capacity.
    pub fn enable_data_plane(&self, config: DataPlaneConfig) {
        for container in self.hosts.read().values() {
            container
                .attachments()
                .set_capacity(config.host_store_capacity);
        }
        *self.dataplane.write() = Some(DataPlaneState {
            config,
            client_store: Arc::new(AttachmentStore::new(config.client_store_capacity)),
        });
    }

    /// Turn the data plane back off (payloads ship inline again).
    pub fn disable_data_plane(&self) {
        *self.dataplane.write() = None;
    }

    /// Turn on causal tracing: a [`Tracer`] on this network's virtual
    /// clock records transport-leg spans for every invocation, and
    /// every container (existing and future) records dispatch spans
    /// parented under the request leg via the envelope's `traceparent`
    /// header.
    pub fn enable_tracing(&self) -> Arc<Tracer> {
        let nanos = Arc::clone(&self.virtual_nanos);
        let tracer = Arc::new(Tracer::new(Arc::new(move || {
            Duration::from_nanos(nanos.load(Ordering::Relaxed))
        })));
        for container in self.hosts.read().values() {
            container.set_tracer(Some(Arc::clone(&tracer)));
        }
        *self.tracer.write() = Some(Arc::clone(&tracer));
        tracer
    }

    /// Stop recording spans (existing spans are kept in the tracer).
    pub fn disable_tracing(&self) {
        for container in self.hosts.read().values() {
            container.set_tracer(None);
        }
        *self.tracer.write() = None;
    }

    /// The active tracer, when tracing is enabled.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.read().clone()
    }

    /// Whether the data plane is on.
    pub fn data_plane_enabled(&self) -> bool {
        self.dataplane.read().is_some()
    }

    /// The client/engine-side attachment store, when the data plane is
    /// enabled.
    pub fn client_store(&self) -> Option<Arc<AttachmentStore>> {
        self.dataplane
            .read()
            .as_ref()
            .map(|dp| Arc::clone(&dp.client_store))
    }

    /// Wire-cost accounting snapshot.
    pub fn wire_stats(&self) -> WireStats {
        self.wire.snapshot()
    }

    /// Zero the wire-cost counters (between experiment phases).
    pub fn reset_wire_stats(&self) {
        self.wire.reset();
    }

    /// Look up an existing host.
    pub fn host(&self, name: &str) -> Result<Arc<ServiceContainer>> {
        self.hosts
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| WsError::UnknownHost(name.to_string()))
    }

    /// All host names, sorted.
    pub fn hosts(&self) -> Vec<String> {
        let mut names: Vec<String> = self.hosts.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Accumulated virtual network time.
    pub fn virtual_time(&self) -> Duration {
        Duration::from_nanos(self.virtual_nanos.load(Ordering::Relaxed))
    }

    /// The current virtual instant — alias of [`virtual_time`]
    /// (Self::virtual_time) read as "now" by resilience code.
    pub fn now(&self) -> Duration {
        self.virtual_time()
    }

    /// Advance the virtual clock without sending anything. Backoff
    /// sleeps in the resilience layer are charged through here, so
    /// recovery latency is measurable while runs stay fast.
    pub fn advance_virtual_time(&self, by: Duration) {
        self.virtual_nanos
            .fetch_add(by.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Reset the virtual clock (between benchmark runs).
    pub fn reset_virtual_time(&self) {
        self.virtual_nanos.store(0, Ordering::Relaxed);
    }

    /// Pin the virtual clock to an absolute instant. Open-loop load
    /// generators use this to place each arrival at its scheduled time
    /// regardless of what earlier requests charged; unlike
    /// [`advance_virtual_time`](Self::advance_virtual_time) it can move
    /// the clock backwards, so it belongs in single-threaded experiment
    /// drivers, not concurrent callers.
    pub fn set_virtual_time(&self, to: Duration) {
        self.virtual_nanos
            .store(to.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Calls currently inside [`invoke`](Self::invoke) against `host` —
    /// the wall-clock outstanding counter threaded through the
    /// transport for load-aware ranking.
    pub fn outstanding(&self, host: &str) -> u64 {
        self.outstanding.lock().get(host).copied().unwrap_or(0)
    }

    /// Per-host load estimate for P2C routing and the cost model: the
    /// larger of the wall-clock outstanding counter and the requests in
    /// the host's capacity system at the current virtual instant
    /// (queued + serving; 0 without a capacity model).
    pub fn load_snapshot(&self) -> HashMap<String, u64> {
        let now = self.virtual_time();
        let outstanding = self.outstanding.lock().clone();
        self.hosts
            .read()
            .iter()
            .map(|(name, container)| {
                let wall = outstanding.get(name).copied().unwrap_or(0);
                let queued = container.in_system(now) as u64;
                (name.clone(), wall.max(queued))
            })
            .collect()
    }

    /// The invocation log. Every `invoke` records here, on the virtual
    /// clock, including attempts that failed in transit.
    pub fn monitor(&self) -> &MonitorLog {
        &self.monitor
    }

    fn charge(&self, host: &str, bytes: usize) -> Duration {
        let spike = {
            let plan = self.faults.lock();
            plan.hosts
                .get(host)
                .map(|f| f.extra_latency(self.virtual_time()))
                .unwrap_or(Duration::ZERO)
        };
        let cost = self.config.transmit_time(bytes) + spike;
        self.virtual_nanos
            .fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
        cost
    }

    /// Set a host's per-message random failure probability (0 clears).
    pub fn set_failure_probability(&self, host: &str, p: f64) {
        self.faults.lock().host_mut(host).probability = p.clamp(0.0, 1.0);
    }

    /// Set the probability that a response envelope is corrupted in
    /// transit (surfacing to the caller as an XML decode error).
    pub fn set_corrupt_probability(&self, host: &str, p: f64) {
        self.faults.lock().host_mut(host).corrupt_probability = p.clamp(0.0, 1.0);
    }

    /// Reseed the fault RNG (determinism between runs).
    pub fn reseed_faults(&self, seed: u64) {
        self.faults.lock().rng = StdRng::seed_from_u64(seed);
    }

    /// Mark a host down (all messages fail) or back up.
    pub fn set_host_down(&self, host: &str, down: bool) {
        self.faults.lock().host_mut(host).down = down;
    }

    /// Schedule an outage window on the virtual clock: every message to
    /// `host` fails while `from <= now < until`.
    pub fn add_outage(&self, host: &str, from: Duration, until: Duration) {
        self.faults
            .lock()
            .host_mut(host)
            .outages
            .push((from, until));
    }

    /// Schedule a latency spike: every message to `host` costs an extra
    /// `extra` while `from <= now < until`.
    pub fn add_latency_spike(&self, host: &str, from: Duration, until: Duration, extra: Duration) {
        self.faults
            .lock()
            .host_mut(host)
            .latency_spikes
            .push((from, until, extra));
    }

    /// Make `host` flap on a square wave: up for the first
    /// `up_fraction` of every `period`, down for the rest.
    pub fn set_flapping(&self, host: &str, period: Duration, up_fraction: f64) {
        self.faults.lock().host_mut(host).flap = Some((period, up_fraction));
    }

    /// Clear every scripted and probabilistic fault for `host`.
    pub fn clear_faults(&self, host: &str) {
        self.faults.lock().hosts.remove(host);
    }

    fn check_fault(&self, host: &str, leg: Leg) -> Result<()> {
        let now = self.virtual_time();
        let mut plan = self.faults.lock();
        let Some(faults) = plan.hosts.get(host).cloned() else {
            return Ok(());
        };
        let reason = if let Some(why) = faults.is_unreachable(now) {
            Some(format!("host {host} unreachable: {why}"))
        } else if faults.probability > 0.0 && plan.rng.random_bool(faults.probability) {
            Some(format!("connection to {host} reset (injected fault)"))
        } else {
            None
        };
        match reason {
            None => Ok(()),
            Some(message) => Err(match leg {
                Leg::Request => WsError::Transport(message),
                Leg::Response => WsError::ResponseLost(message),
            }),
        }
    }

    /// Should this response envelope be corrupted, and if so mangle it.
    fn maybe_corrupt(&self, host: &str, response_xml: &mut String) {
        let mut plan = self.faults.lock();
        let p = plan
            .hosts
            .get(host)
            .map(|f| f.corrupt_probability)
            .unwrap_or(0.0);
        if p > 0.0 && plan.rng.random_bool(p) {
            // Truncate mid-document: the envelope no longer balances,
            // so decoding fails at the SOAP layer like a torn TCP
            // stream would.
            let mut cut = response_xml.len() / 2;
            while cut > 0 && !response_xml.is_char_boundary(cut) {
                cut -= 1;
            }
            response_xml.truncate(cut);
        }
    }

    /// Invoke `service.operation(args)` on `host` over the full wire
    /// path: envelope encode → transmit → dispatch → transmit → decode.
    /// Records the attempt (including transport failures) in the
    /// network monitor.
    pub fn invoke(
        &self,
        host: &str,
        service: &str,
        operation: &str,
        args: Vec<(String, SoapValue)>,
    ) -> Result<SoapValue> {
        let started = self.virtual_time();
        let in_flight = InFlight::enter(&self.outstanding, host);
        let mut wire = LegAccounting::default();
        let result = self.invoke_wire(host, service, operation, args, &mut wire);
        drop(in_flight);
        let outcome = match &result {
            Ok(_) => Outcome::Ok,
            Err(WsError::Fault { code, .. }) => Outcome::Fault(code),
            Err(_) => Outcome::TransportError,
        };
        self.monitor.record(InvocationEvent {
            host,
            service,
            operation,
            duration: self.virtual_time() - started,
            bytes_in: wire.bytes_in,
            bytes_out: wire.bytes_out,
            bytes_saved: wire.bytes_saved,
            ref_hits: wire.ref_hits,
            outcome,
        });
        result
    }

    /// Substitute eligible payloads in `values` with `DataRef` handles
    /// wherever `store` (the receiving side) already holds the bytes;
    /// payloads seen for the first time are inserted so the *next*
    /// transfer is a handle. Returns the pinned payloads of the
    /// substituted values, so the receive path can materialise them
    /// without racing a concurrent eviction.
    fn substitute_refs(
        &self,
        dp: &DataPlaneState,
        store: &AttachmentStore,
        values: &mut [(String, SoapValue)],
        wire: &mut LegAccounting,
    ) -> Vec<(u128, Payload)> {
        let mut pinned = Vec::new();
        for (_, value) in values.iter_mut() {
            let eligible = match value {
                SoapValue::Text(s) => s.len() >= dp.config.inline_threshold,
                SoapValue::Bytes(b) => b.len() >= dp.config.inline_threshold,
                _ => false,
            };
            if !eligible {
                continue;
            }
            let Some(cr) = content_ref(value) else {
                continue;
            };
            match store.get(cr.hash) {
                Some(payload) => {
                    let handle = SoapValue::DataRef {
                        hash: cr.hash,
                        len: cr.len,
                        kind: cr.kind,
                    };
                    // Exact envelope bytes kept off the wire: the
                    // element name is the same either way, so any name
                    // cancels out of the difference.
                    let saved = value
                        .serialized_size("p")
                        .saturating_sub(handle.serialized_size("p"));
                    wire.bytes_saved += saved;
                    wire.ref_hits += 1;
                    self.wire.substituted(saved);
                    pinned.push((cr.hash, payload));
                    *value = handle;
                }
                None => {
                    if let Some(payload) = Payload::from_value(value) {
                        store.insert(cr.hash, payload);
                    }
                }
            }
        }
        pinned
    }

    fn invoke_wire(
        &self,
        host: &str,
        service: &str,
        operation: &str,
        mut args: Vec<(String, SoapValue)>,
        wire: &mut LegAccounting,
    ) -> Result<SoapValue> {
        let container = self.host(host)?;
        // Request leg: a failure here means the service never ran.
        // The leg span parents under whatever span the caller made
        // current (the SOAP-call span of `resilience::attempt`), and its
        // own context rides the envelope so the container's dispatch
        // span links under this leg.
        let tracer = self.tracer.read().clone();
        let mut request_leg = tracer.as_ref().map(|t| {
            let parent = trace::current().map(|(_, ctx)| ctx);
            let mut span = t.start_span(
                format!("{service}.{operation} request"),
                SpanKind::TransportLeg,
                parent,
            );
            span.set_attr("host", host);
            span
        });
        if let Err(e) = self.check_fault(host, Leg::Request) {
            if let Some(span) = request_leg.as_mut() {
                span.set_error(e.to_string());
            }
            return Err(e);
        }
        let dp = self.dataplane.read().clone();
        if let Some(dp) = &dp {
            // The receiving side of the request leg is the host's store.
            self.substitute_refs(dp, &container.attachments(), &mut args, wire);
        }
        let call = SoapCall {
            service: service.to_string(),
            operation: operation.to_string(),
            args,
            trace_parent: request_leg.as_ref().map(|s| s.ctx()),
        };
        let request_xml = call.to_envelope();
        wire.bytes_in = request_xml.len();
        self.wire.sent(request_xml.len());
        self.charge(host, request_xml.len());
        if let Some(mut span) = request_leg.take() {
            span.set_attr("bytes", request_xml.len().to_string());
        }
        // Admission control: when the host has a capacity model its
        // connector either queues the request — charging the queue wait
        // plus service time to the virtual clock before dispatch — or
        // sheds it with a retryable `ServerBusy` fault when the bounded
        // accept queue is full. Hosts without a capacity model keep the
        // legacy free-concurrency behaviour, byte for byte.
        match container.admit(self.virtual_time()) {
            Some(Admission::Shed { in_system }) => {
                return Err(WsError::Fault {
                    code: SERVER_BUSY_CODE.to_string(),
                    message: format!(
                        "host {host} is at capacity ({in_system} requests in system); \
                         request shed"
                    ),
                });
            }
            Some(Admission::Admitted {
                queue_wait,
                service_time,
                ..
            }) => {
                self.advance_virtual_time(queue_wait + service_time);
            }
            None => {}
        }
        // Server side: decode, dispatch, substitute the response
        // payload if the *client's* store already holds it, encode.
        // (This is `ServiceContainer::dispatch_envelope` with the
        // data-plane substitution spliced in between dispatch and
        // encode.)
        let mut pinned = Vec::new();
        let mut response_xml = match SoapCall::from_envelope(&request_xml) {
            Ok(decoded) => {
                let mut response = container.dispatch(&decoded);
                if let (Some(dp), SoapResponse::Value(v)) = (&dp, &mut response) {
                    let mut returns = vec![(String::new(), std::mem::replace(v, SoapValue::Null))];
                    pinned = self.substitute_refs(dp, &dp.client_store, &mut returns, wire);
                    *v = returns.pop().map(|(_, v)| v).unwrap_or(SoapValue::Null);
                }
                response.to_envelope(&decoded.operation)
            }
            Err(e) => SoapResponse::Fault {
                code: "Client".into(),
                message: e.to_string(),
            }
            .to_envelope("unknown"),
        };
        // Response leg: the service has already executed; a failure or
        // corruption from here on may leave duplicated work behind.
        let mut response_leg = tracer.as_ref().map(|t| {
            let parent = trace::current().map(|(_, ctx)| ctx);
            let mut span = t.start_span(
                format!("{service}.{operation} response"),
                SpanKind::TransportLeg,
                parent,
            );
            span.set_attr("host", host);
            span
        });
        if let Err(e) = self.check_fault(host, Leg::Response) {
            if let Some(span) = response_leg.as_mut() {
                span.set_error(e.to_string());
            }
            return Err(e);
        }
        self.maybe_corrupt(host, &mut response_xml);
        wire.bytes_out = response_xml.len();
        self.wire.sent(response_xml.len());
        self.charge(host, response_xml.len());
        if let Some(mut span) = response_leg.take() {
            span.set_attr("bytes", response_xml.len().to_string());
        }
        let value = SoapResponse::from_envelope(&response_xml)?.into_result()?;
        // Client side: materialise a returned handle. The pinned
        // payload from substitution time makes this immune to the
        // client store evicting the entry mid-flight.
        if let Some((hash, _, _)) = value.as_data_ref() {
            if let Some((_, payload)) = pinned.iter().find(|(h, _)| *h == hash) {
                return Ok(payload.to_value());
            }
            let fetched = dp
                .as_ref()
                .and_then(|dp| dp.client_store.get(hash))
                .map(|p| p.to_value());
            return fetched.ok_or_else(|| {
                WsError::Malformed(format!("unresolvable dataRef {hash:032x} in response"))
            });
        }
        Ok(value)
    }

    /// Fetch a deployed service's WSDL from a host (what a `?wsdl` HTTP
    /// request did on the paper's testbed), charging transport.
    pub fn fetch_wsdl(&self, host: &str, service: &str) -> Result<WsdlDocument> {
        let container = self.host(host)?;
        self.check_fault(host, Leg::Request)?;
        let wsdl = container.wsdl_of(service)?;
        let len = wsdl.xml_len();
        self.wire.sent(len);
        self.charge(host, len);
        Ok(wsdl)
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("config", &self.config)
            .field("hosts", &self.hosts())
            .field("virtual_time", &self.virtual_time())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::test_support::EchoService;
    use crate::container::{ServiceFault, WebService};

    fn network_with_echo() -> Network {
        let net = Network::new();
        let host = net.add_host("host-a");
        host.deploy(Arc::new(EchoService));
        net
    }

    /// A service whose handler panics on every call.
    struct Panicking;

    impl WebService for Panicking {
        fn name(&self) -> &str {
            "Panicking"
        }

        fn wsdl(&self) -> WsdlDocument {
            WsdlDocument::new("Panicking", "http://localhost/Panicking")
        }

        fn invoke(
            &self,
            _operation: &str,
            _args: &[(String, SoapValue)],
        ) -> std::result::Result<SoapValue, ServiceFault> {
            panic!("handler bug")
        }
    }

    #[test]
    fn panicking_handler_returns_a_server_fault_and_releases_the_host() {
        let net = network_with_echo();
        net.host("host-a").unwrap().deploy(Arc::new(Panicking));
        match net.invoke("host-a", "Panicking", "boom", vec![]) {
            Err(WsError::Fault { code, message }) => {
                assert_eq!(code, "Server");
                assert_eq!(message, "Panicking.boom panicked: handler bug");
            }
            other => panic!("expected a Server fault, got {other:?}"),
        }
        assert_eq!(net.monitor().len(), 1);
        assert_eq!(net.outstanding("host-a"), 0);
        // The host keeps serving.
        let echoed = net.invoke(
            "host-a",
            "Echo",
            "echo",
            vec![("message".into(), SoapValue::Null)],
        );
        assert_eq!(echoed.unwrap(), SoapValue::Null);
    }

    #[test]
    fn in_flight_count_is_released_by_an_unwinding_call() {
        let outstanding = Mutex::new(HashMap::new());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _call = InFlight::enter(&outstanding, "host-a");
            assert_eq!(outstanding.lock()["host-a"], 1);
            panic!("mid-call");
        }));
        assert!(unwound.is_err());
        assert_eq!(outstanding.lock()["host-a"], 0);
    }

    #[test]
    fn invoke_over_the_wire() {
        let net = network_with_echo();
        let result = net
            .invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Text("hello".into()))],
            )
            .unwrap();
        assert_eq!(result, SoapValue::Text("hello".into()));
    }

    #[test]
    fn virtual_clock_advances_with_payload() {
        let net = network_with_echo();
        net.invoke(
            "host-a",
            "Echo",
            "echo",
            vec![("message".into(), SoapValue::Text("x".into()))],
        )
        .unwrap();
        let small = net.virtual_time();
        assert!(
            small >= Duration::from_micros(1000),
            "two messages, two latencies"
        );

        net.reset_virtual_time();
        net.invoke(
            "host-a",
            "Echo",
            "echo",
            vec![("message".into(), SoapValue::Text("y".repeat(10_000_000)))],
        )
        .unwrap();
        let big = net.virtual_time();
        // 20 MB round trip at 1 Gb/s ≈ 160 ms ≫ the small call.
        assert!(big > small * 10, "big {big:?} vs small {small:?}");
    }

    #[test]
    fn transmit_time_formula() {
        let cfg = NetworkConfig::default();
        let t = cfg.transmit_time(125_000_000); // 1 second of data
        assert!(t >= Duration::from_secs(1));
        assert!(t < Duration::from_millis(1002));
    }

    #[test]
    fn unknown_host_rejected() {
        let net = network_with_echo();
        assert!(matches!(
            net.invoke("nowhere", "Echo", "echo", vec![]),
            Err(WsError::UnknownHost(_))
        ));
    }

    #[test]
    fn faults_surface_as_soap_faults() {
        let net = network_with_echo();
        let err = net.invoke("host-a", "Echo", "fail", vec![]).unwrap_err();
        assert!(matches!(err, WsError::Fault { code, .. } if code == "Server"));
        let err2 = net.invoke("host-a", "Nope", "x", vec![]).unwrap_err();
        assert!(matches!(err2, WsError::Fault { code, .. } if code == "Client"));
    }

    #[test]
    fn host_down_fails_transport() {
        let net = network_with_echo();
        net.set_host_down("host-a", true);
        assert!(matches!(
            net.invoke("host-a", "Echo", "echo", vec![]),
            Err(WsError::Transport(_))
        ));
        net.set_host_down("host-a", false);
        assert!(net
            .invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Null)]
            )
            .is_ok());
    }

    #[test]
    fn probabilistic_faults_fire_roughly_at_rate() {
        let net = network_with_echo();
        net.set_failure_probability("host-a", 0.5);
        net.reseed_faults(42);
        let mut failures = 0;
        for _ in 0..200 {
            if net
                .invoke(
                    "host-a",
                    "Echo",
                    "echo",
                    vec![("message".into(), SoapValue::Null)],
                )
                .is_err()
            {
                failures += 1;
            }
        }
        assert!((60..=180).contains(&failures), "failures {failures}");
        net.set_failure_probability("host-a", 0.0);
        assert!(net
            .invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Null)]
            )
            .is_ok());
    }

    #[test]
    fn outage_windows_follow_the_virtual_clock() {
        let net = network_with_echo();
        net.add_outage(
            "host-a",
            Duration::from_millis(10),
            Duration::from_millis(20),
        );
        let call = |net: &Network| {
            net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Null)],
            )
        };
        assert!(call(&net).is_ok(), "before the window");
        net.advance_virtual_time(Duration::from_millis(12));
        let err = call(&net).unwrap_err();
        assert!(
            matches!(err, WsError::Transport(ref m) if m.contains("outage")),
            "{err:?}"
        );
        net.advance_virtual_time(Duration::from_millis(10));
        assert!(call(&net).is_ok(), "after the window");
    }

    #[test]
    fn flapping_host_alternates() {
        let net = network_with_echo();
        net.set_flapping("host-a", Duration::from_millis(10), 0.5);
        let mut up = 0;
        let mut down = 0;
        for _ in 0..40 {
            let r = net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Null)],
            );
            if r.is_ok() {
                up += 1;
            } else {
                down += 1;
            }
            net.advance_virtual_time(Duration::from_millis(3));
        }
        assert!(
            up > 5 && down > 5,
            "square wave should hit both phases: {up}/{down}"
        );
    }

    #[test]
    fn latency_spike_inflates_charges() {
        let net = network_with_echo();
        net.reset_virtual_time();
        net.invoke(
            "host-a",
            "Echo",
            "echo",
            vec![("message".into(), SoapValue::Null)],
        )
        .unwrap();
        let normal = net.virtual_time();

        net.reset_virtual_time();
        net.add_latency_spike(
            "host-a",
            Duration::ZERO,
            Duration::from_secs(60),
            Duration::from_millis(50),
        );
        net.invoke(
            "host-a",
            "Echo",
            "echo",
            vec![("message".into(), SoapValue::Null)],
        )
        .unwrap();
        let spiked = net.virtual_time();
        assert!(
            spiked >= normal + Duration::from_millis(100),
            "two legs, 50 ms each: {spiked:?} vs {normal:?}"
        );
        net.clear_faults("host-a");
    }

    #[test]
    fn response_leg_faults_are_response_lost() {
        let net = network_with_echo();
        // Fire only on the second fault check (response leg): probability
        // 1.0 would kill the request leg, so flip the host down *during*
        // dispatch via an outage that starts after the request charge.
        let call_cost = net.config().transmit_time(200); // > request envelope
        net.add_outage("host-a", call_cost / 4, Duration::from_secs(60));
        let err = net
            .invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Text("x".repeat(2000)))],
            )
            .unwrap_err();
        assert!(matches!(err, WsError::ResponseLost(_)), "{err:?}");
        assert!(err.work_may_have_executed());
        assert!(err.is_retryable());
    }

    #[test]
    fn corrupt_responses_surface_as_decode_errors() {
        let net = network_with_echo();
        net.set_corrupt_probability("host-a", 1.0);
        let err = net
            .invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Text("hello".into()))],
            )
            .unwrap_err();
        assert!(
            matches!(err, WsError::Xml { .. } | WsError::Malformed(_)),
            "corruption should fail decode: {err:?}"
        );
        net.set_corrupt_probability("host-a", 0.0);
        assert!(net
            .invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Null)]
            )
            .is_ok());
    }

    #[test]
    fn network_monitor_sees_transport_failures() {
        let net = network_with_echo();
        net.invoke(
            "host-a",
            "Echo",
            "echo",
            vec![("message".into(), SoapValue::Null)],
        )
        .unwrap();
        assert_eq!(net.monitor().summary(None).faults, 0);
        net.set_host_down("host-a", true);
        let _ = net.invoke("host-a", "Echo", "echo", vec![]);
        net.set_host_down("host-a", false);

        let by_host = net.monitor().summary_by_host();
        assert_eq!(by_host.len(), 1);
        assert_eq!(by_host[0].invocations, 2);
        assert_eq!(by_host[0].transport_errors, 1);
        assert_eq!(by_host[0].faults, 0);
        assert!((by_host[0].failure_rate - 0.5).abs() < 1e-12);

        // A SOAP fault is a fault, not a transport error.
        let err = net.invoke("host-a", "Echo", "bogus", vec![]).unwrap_err();
        assert!(matches!(err, WsError::Fault { .. }), "{err:?}");
        let by_host = net.monitor().summary_by_host();
        assert_eq!(by_host[0].invocations, 3);
        assert_eq!(by_host[0].transport_errors, 1);
        assert_eq!(by_host[0].faults, 1);
    }

    #[test]
    fn wsdl_fetch_charges_transport() {
        let net = network_with_echo();
        net.reset_virtual_time();
        let before = net.wire_stats();
        let wsdl = net.fetch_wsdl("host-a", "Echo").unwrap();
        assert_eq!(wsdl.service, "Echo");
        assert!(net.virtual_time() > Duration::ZERO);
        let after = net.wire_stats();
        assert_eq!(after.envelopes - before.envelopes, 1);
        assert_eq!(after.bytes - before.bytes, wsdl.to_xml().len() as u64);
    }

    #[test]
    fn concurrent_invocations_are_safe_and_complete() {
        // The container and network are shared across workflow worker
        // threads; hammer one service from eight threads.
        let net = std::sync::Arc::new(network_with_echo());
        let mut handles = Vec::new();
        for t in 0..8 {
            let net = std::sync::Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let msg = format!("t{t}-{i}");
                    let out = net
                        .invoke(
                            "host-a",
                            "Echo",
                            "echo",
                            vec![("message".into(), SoapValue::Text(msg.clone()))],
                        )
                        .unwrap();
                    assert_eq!(out, SoapValue::Text(msg));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(net.monitor().len(), 400);
        let by_host = net.monitor().summary_by_host();
        assert_eq!(by_host[0].invocations, 400);
        assert_eq!(by_host[0].failure_rate, 0.0);
    }

    #[test]
    fn data_plane_dedupes_repeated_payloads() {
        let net = network_with_echo();
        net.enable_data_plane(DataPlaneConfig::default());
        let payload = SoapValue::Text("d".repeat(50_000));
        let call = |net: &Network| {
            net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), payload.clone())],
            )
            .unwrap()
        };

        // Cold: payload ships inline on both legs and is remembered by
        // both stores.
        net.reset_virtual_time();
        assert_eq!(call(&net), payload);
        let cold_time = net.virtual_time();
        let cold = net.wire_stats();
        assert!(cold.bytes > 100_000, "two inline legs: {cold:?}");
        assert_eq!(cold.ref_substitutions, 0);

        // Warm: both legs travel as handles; outputs byte-identical.
        net.reset_virtual_time();
        net.reset_wire_stats();
        assert_eq!(call(&net), payload);
        let warm_time = net.virtual_time();
        let warm = net.wire_stats();
        assert_eq!(warm.ref_substitutions, 2, "{warm:?}");
        assert!(
            warm.bytes * 20 < cold.bytes,
            "warm {} vs cold {}",
            warm.bytes,
            cold.bytes
        );
        assert!(warm.bytes_saved > 90_000, "{warm:?}");
        assert!(warm_time < cold_time, "{warm_time:?} vs {cold_time:?}");

        // The monitor saw the substitutions (the cold call made none, so
        // the totals are the warm call's).
        let seen = net.monitor().summary(None);
        assert_eq!(seen.ref_hits, 2);
        assert!(seen.bytes_saved > 90_000);
    }

    #[test]
    fn data_plane_ignores_small_payloads() {
        let net = network_with_echo();
        net.enable_data_plane(DataPlaneConfig::default());
        let small = SoapValue::Text("tiny".into());
        for _ in 0..3 {
            let out = net
                .invoke(
                    "host-a",
                    "Echo",
                    "echo",
                    vec![("message".into(), small.clone())],
                )
                .unwrap();
            assert_eq!(out, small);
        }
        assert_eq!(net.wire_stats().ref_substitutions, 0);
        assert!(net.host("host-a").unwrap().attachments().is_empty());
    }

    #[test]
    fn data_plane_survives_host_store_eviction() {
        // Host store too small for both payloads: the second insert
        // evicts the first, so re-sending payload A re-ships it inline
        // (a transparent re-fetch) and everything still round-trips.
        let net = network_with_echo();
        net.enable_data_plane(DataPlaneConfig {
            inline_threshold: 1024,
            host_store_capacity: 60_000,
            client_store_capacity: 1024 * 1024,
        });
        let a = SoapValue::Text("a".repeat(50_000));
        let b = SoapValue::Text("b".repeat(50_000));
        let call = |v: &SoapValue| {
            net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), v.clone())],
            )
            .unwrap()
        };
        assert_eq!(call(&a), a); // a cached on host
        assert_eq!(call(&b), b); // b evicts a
        let store = net.host("host-a").unwrap().attachments();
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(call(&a), a); // inline again, transparently
        let stats = store.stats();
        assert_eq!(stats.lookups, stats.hits + stats.misses);
    }

    #[test]
    fn data_plane_off_by_default_and_disablable() {
        let net = network_with_echo();
        assert!(!net.data_plane_enabled());
        assert!(net.client_store().is_none());
        net.enable_data_plane(DataPlaneConfig::default());
        assert!(net.data_plane_enabled());
        assert!(net.client_store().is_some());
        net.disable_data_plane();
        assert!(!net.data_plane_enabled());
        let payload = SoapValue::Text("z".repeat(10_000));
        for _ in 0..2 {
            net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), payload.clone())],
            )
            .unwrap();
        }
        assert_eq!(net.wire_stats().ref_substitutions, 0);
    }

    #[test]
    fn outage_window_boundaries_are_start_inclusive_end_exclusive() {
        // Pin the scripted-fault window semantics so scenarios are
        // reproducible: a request at exactly `from` is faulted, a
        // request at exactly `until` is not.
        let net = network_with_echo();
        let from = Duration::from_millis(10);
        let until = Duration::from_millis(20);
        net.add_outage("host-a", from, until);
        let call = |net: &Network| {
            net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Null)],
            )
        };
        net.reset_virtual_time();
        net.advance_virtual_time(from);
        assert!(
            call(&net).is_err(),
            "exactly window.start must be inside the outage"
        );
        net.reset_virtual_time();
        net.advance_virtual_time(until);
        assert!(
            call(&net).is_ok(),
            "exactly window.end must be outside the outage"
        );
    }

    #[test]
    fn latency_spike_boundaries_match_outage_semantics() {
        let net = network_with_echo();
        let from = Duration::from_millis(10);
        let until = Duration::from_millis(20);
        let extra = Duration::from_secs(1);
        net.add_latency_spike("host-a", from, until, extra);
        // At exactly `until` the spike no longer applies: a whole call
        // (two legs) costs far less than one spiked leg would.
        net.reset_virtual_time();
        net.advance_virtual_time(until);
        net.invoke(
            "host-a",
            "Echo",
            "echo",
            vec![("message".into(), SoapValue::Null)],
        )
        .unwrap();
        assert!(net.virtual_time() < until + extra);
        // At exactly `from` it does: the request leg pays the
        // surcharge (the 1 s spike then pushes the clock past the
        // window, so only proving start-inclusion needs leg one).
        net.reset_virtual_time();
        net.advance_virtual_time(from);
        net.invoke(
            "host-a",
            "Echo",
            "echo",
            vec![("message".into(), SoapValue::Null)],
        )
        .unwrap();
        assert!(net.virtual_time() >= from + extra);
    }

    #[test]
    fn bytes_saved_is_the_exact_envelope_difference() {
        // Regression for the hard-coded 80-byte DataRef estimate: the
        // accounting must equal (inline envelope) − (ref envelope),
        // measured on the actual serialised bytes.
        let net = network_with_echo();
        net.enable_data_plane(DataPlaneConfig::default());
        let payload = SoapValue::Text("d".repeat(50_000));
        let call = |net: &Network| {
            net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), payload.clone())],
            )
            .unwrap()
        };
        // Cold run ships inline on both legs; measure those envelopes.
        call(&net);
        let cold = net.wire_stats();
        // Warm run substitutes both legs.
        net.reset_wire_stats();
        call(&net);
        let warm = net.wire_stats();
        assert_eq!(warm.ref_substitutions, 2);
        let actual_difference = cold.bytes - warm.bytes;
        assert_eq!(
            warm.bytes_saved, actual_difference,
            "bytes_saved must equal the measured envelope shrinkage \
             (the old fixed-80 estimate was off by the real handle size)"
        );
        // The container-side resolution reports the same exact number
        // for its leg (the cold call substituted nothing, so the
        // monitor's totals are the warm call's).
        let seen = net.monitor().summary(None);
        assert_eq!(seen.ref_hits, 2);
        // The per-value saving: inline content is 50 000 chars, the
        // handle's content is 32+1+5+1+4 = 43 chars, and the type name
        // differs by one char ("string" vs "dataRef") — per leg.
        assert_eq!(seen.bytes_saved, warm.bytes_saved as usize);
    }

    #[test]
    fn tracing_records_linked_transport_and_dispatch_spans() {
        use crate::trace::SpanStatus;
        let net = network_with_echo();
        let tracer = net.enable_tracing();
        // An enclosing SOAP-call span (as WsTool/ClientChannel would
        // open) makes both transport legs siblings in one trace.
        {
            let call_span = tracer.start_span("Echo.echo", SpanKind::SoapCall, None);
            let _current = call_span.make_current();
            net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Text("hi".into()))],
            )
            .unwrap();
        }
        let spans = tracer.finished_spans();
        let request = spans
            .iter()
            .find(|s| s.kind == SpanKind::TransportLeg && s.name.ends_with("request"))
            .expect("request leg span");
        let response = spans
            .iter()
            .find(|s| s.kind == SpanKind::TransportLeg && s.name.ends_with("response"))
            .expect("response leg span");
        let dispatch = spans
            .iter()
            .find(|s| s.kind == SpanKind::Dispatch)
            .expect("dispatch span");
        // The dispatch span parents under the request leg via the
        // traceparent header; all three share the trace.
        assert_eq!(dispatch.parent_span_id, Some(request.span_id));
        assert_eq!(dispatch.trace_id, request.trace_id);
        assert_eq!(response.trace_id, request.trace_id);
        assert_eq!(request.status, SpanStatus::Ok);
        assert!(request.attribute("bytes").is_some());
        assert_eq!(request.attribute("host"), Some("host-a"));
        // Spans are stamped on the virtual clock: the request leg ends
        // at or before the response leg starts.
        assert!(request.end <= response.start);

        // A transport failure marks the leg span as an error.
        net.set_host_down("host-a", true);
        let _ = net.invoke("host-a", "Echo", "echo", vec![]);
        let failed = tracer
            .finished_spans()
            .into_iter()
            .rfind(|s| s.kind == SpanKind::TransportLeg)
            .unwrap();
        assert!(matches!(failed.status, SpanStatus::Error(_)));

        net.disable_tracing();
        assert!(net.tracer().is_none());
        let before = tracer.len();
        net.set_host_down("host-a", false);
        net.invoke(
            "host-a",
            "Echo",
            "echo",
            vec![("message".into(), SoapValue::Null)],
        )
        .unwrap();
        assert_eq!(tracer.len(), before, "no spans once tracing is off");
    }

    #[test]
    fn add_host_is_idempotent() {
        let net = Network::new();
        let a = net.add_host("h");
        let b = net.add_host("h");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(net.hosts(), vec!["h".to_string()]);
    }

    #[test]
    fn admission_charges_service_and_queue_time() {
        use crate::container::CapacityConfig;
        let net = network_with_echo();
        net.host("host-a")
            .unwrap()
            .set_capacity(Some(CapacityConfig {
                workers: 1,
                queue_limit: Some(4),
                service_time: Duration::from_millis(3),
            }));
        let echo = |net: &Network| {
            net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Text("hi".into()))],
            )
            .unwrap()
        };

        let before = net.virtual_time();
        echo(&net);
        let first = net.virtual_time() - before;
        // First arrival finds the worker idle: transmit + 3 ms service.
        assert!(first >= Duration::from_millis(3), "charged {first:?}");

        // Rewind the clock so the second arrival lands while the first
        // still occupies the worker: its queue wait is also charged.
        net.set_virtual_time(before);
        let second = {
            echo(&net);
            net.virtual_time() - before
        };
        assert!(
            second >= first + Duration::from_millis(3),
            "queue wait not charged: first {first:?}, second {second:?}"
        );
    }

    #[test]
    fn network_log_durations_are_virtual_clock_deltas() {
        use crate::container::CapacityConfig;
        let net = network_with_echo();
        net.host("host-a")
            .unwrap()
            .set_capacity(Some(CapacityConfig {
                workers: 1,
                queue_limit: Some(4),
                service_time: Duration::from_millis(3),
            }));
        let timed = |net: &Network| {
            let before = net.virtual_time();
            let logged = net.monitor().summary(None).total_duration;
            net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Text("hi".into()))],
            )
            .unwrap();
            let delta = net.virtual_time() - before;
            (delta, net.monitor().summary(None).total_duration - logged)
        };
        let start = net.virtual_time();
        let (delta, recorded) = timed(&net);
        assert!(delta >= Duration::from_millis(3), "charged {delta:?}");
        assert_eq!(recorded, delta);
        // A second arrival at the same instant also waits in the queue;
        // the log records that wait too, not the wall time of the call.
        net.set_virtual_time(start);
        let (queued, recorded) = timed(&net);
        assert!(queued >= delta + Duration::from_millis(3), "{queued:?}");
        assert_eq!(recorded, queued);
    }

    #[test]
    fn saturated_host_sheds_with_server_busy_fault() {
        use crate::container::CapacityConfig;
        use crate::error::SERVER_BUSY_CODE;
        let net = network_with_echo();
        net.host("host-a")
            .unwrap()
            .set_capacity(Some(CapacityConfig {
                workers: 1,
                queue_limit: Some(0),
                service_time: Duration::from_secs(1),
            }));
        let call = || {
            net.invoke(
                "host-a",
                "Echo",
                "echo",
                vec![("message".into(), SoapValue::Text("hi".into()))],
            )
        };
        call().unwrap();
        // Worker busy for a simulated second and no queue: rewinding to
        // the same instant makes the second arrival concurrent → shed.
        net.set_virtual_time(Duration::ZERO);
        let err = call().unwrap_err();
        assert!(err.is_server_busy(), "{err}");
        assert!(err.is_retryable());
        assert!(!err.work_may_have_executed());
        match &err {
            WsError::Fault { code, .. } => assert_eq!(code, SERVER_BUSY_CODE),
            other => panic!("unexpected {other:?}"),
        }
        // The monitor records the shed as a fault outcome for ranking.
        let host = &net.monitor().summary_by_host()[0];
        assert_eq!((host.invocations, host.faults), (2, 1));
    }

    #[test]
    fn capacity_off_leaves_wire_accounting_identical() {
        use crate::container::CapacityConfig;
        let run = |capacity: Option<CapacityConfig>| {
            let net = network_with_echo();
            net.host("host-a").unwrap().set_capacity(capacity);
            let value = net
                .invoke(
                    "host-a",
                    "Echo",
                    "echo",
                    vec![("message".into(), SoapValue::Text("payload".into()))],
                )
                .unwrap();
            (value, net.wire_stats())
        };
        // A single request far below saturation: admission control must
        // not change the envelopes, the result, or the bytes on the wire.
        let (base_value, base_wire) = run(None);
        let (value, wire) = run(Some(CapacityConfig::default()));
        assert_eq!(base_value, value);
        assert_eq!(base_wire, wire);
    }

    #[test]
    fn outstanding_and_load_snapshot_track_in_flight_work() {
        use crate::container::CapacityConfig;
        let net = network_with_echo();
        assert_eq!(net.outstanding("host-a"), 0);
        net.host("host-a")
            .unwrap()
            .set_capacity(Some(CapacityConfig {
                workers: 1,
                queue_limit: None,
                service_time: Duration::from_secs(60),
            }));
        net.invoke(
            "host-a",
            "Echo",
            "echo",
            vec![("message".into(), SoapValue::Null)],
        )
        .unwrap();
        // The wall-clock counter returns to zero after the call. The
        // invoke also advanced the virtual clock past the simulated
        // minute of service, so rewind to mid-service: the capacity
        // model still holds the request in system there, and the
        // snapshot reports that figure.
        assert_eq!(net.outstanding("host-a"), 0);
        net.set_virtual_time(Duration::from_secs(30));
        let loads = net.load_snapshot();
        assert_eq!(loads.get("host-a"), Some(&1));
    }
}

//! # dm-wsrf — the Web Services substrate of `faehim-rs`
//!
//! The paper deploys its data mining algorithms as SOAP Web Services
//! described by WSDL, hosted in Tomcat 5.0 + Axis 1.2, published in a
//! jUDDI registry, and invoked over a 1 Gb/s LAN (§4.5, §4.6, §5.1).
//! None of that stack can be a dependency here, so this crate rebuilds
//! the behaviours the paper relies on:
//!
//! * [`soap`] — a SOAP 1.1-style envelope with typed values, encoded to
//!   and from real XML ([`xml`] is a minimal element-tree reader/writer);
//! * [`wsdl`] — WSDL-style service descriptions (port type, operations,
//!   message parts, endpoint address) with XML round-tripping, so the
//!   workflow engine can import "one tool per operation";
//! * [`transport`] — a simulated network of named hosts with a
//!   configurable latency + bandwidth cost model (calibrated by default
//!   to the paper's 1 Gb/s testbed), fault injection for the
//!   fault-tolerance experiment, and a virtual clock;
//! * [`container`] — an Axis-like service container that deploys
//!   [`container::WebService`] implementations and dispatches envelopes;
//! * [`registry`] — the published service record (name, host, WSDL
//!   URL, UDDI category bag);
//! * [`fleet`] — the one registry and the federated scale-out (E19): a
//!   gossip view of `(service, host)` records with versioned heartbeats
//!   and tombstones (a one-node view is the toolkit's UDDI registry),
//!   power-of-two-choices replica routing, and a queue-depth/p99
//!   autoscaler on the virtual clock;
//! * [`costmodel`] — the frozen QoS telemetry snapshot (per-host
//!   latency quantiles, queue depth, shed rate, breaker state, and
//!   predicted transfer bytes) that the E20 composition planner prices
//!   `(step, replica)` pairings with;
//! * [`resilience`] — per-call deadlines and backoff retry budgets on
//!   the virtual clock, per-host circuit breakers, and a resilient
//!   calling front-end over [`transport`];
//! * [`lifecycle`] — the instance lifecycle machinery of §4.5: a
//!   disk-backed state store for the serialise-per-invocation policy
//!   and an in-memory harness that "maintain\[s\] an algorithm instance
//!   object in memory", whose comparison is experiment E4;
//! * [`monitor`] — per-invocation events for the service-monitoring
//!   requirement (§3, category 2);
//! * [`trace`] — causal spans on the virtual clock (workflow run →
//!   task attempt → SOAP call → transport leg → container dispatch →
//!   service handler), propagated across the simulated wire via a
//!   `traceparent` SOAP header;
//! * [`metrics`] — a counters/gauges/histograms registry that absorbs
//!   the monitor, wire, and cache counters, exported as Prometheus
//!   text or a JSON snapshot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod container;
pub mod costmodel;
pub mod dataplane;
pub mod error;
pub mod fleet;
pub mod lifecycle;
pub mod metrics;
pub mod monitor;
pub mod registry;
pub mod resilience;
pub mod session;
pub mod soap;
mod soap_reader;
#[cfg(test)]
mod soap_reference;
pub mod trace;
pub mod transport;
pub mod wsdl;
pub mod xml;

pub use error::{Result, WsError};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::container::{ServiceContainer, ServiceFault, WebService};
    pub use crate::costmodel::{CostModel, HostCost};
    pub use crate::dataplane::{AttachmentStore, CacheStats, LruMap};
    pub use crate::error::{Result, WsError};
    pub use crate::fleet::{
        Autoscaler, AutoscalerConfig, Fleet, FleetConfig, GossipConfig, GossipNode, GossipRegistry,
        P2cRouter, ReplicaRecord, ScaleAction,
    };
    pub use crate::lifecycle::{InstanceStore, LifecycleManager, LifecyclePolicy};
    pub use crate::metrics::MetricsRegistry;
    pub use crate::registry::ServiceEntry;
    pub use crate::resilience::{
        BreakerBoard, BreakerConfig, BreakerState, CircuitBreaker, ResiliencePolicy,
        ResilientCaller,
    };
    pub use crate::soap::{SoapCall, SoapValue};
    pub use crate::trace::{Span, SpanContext, SpanKind, SpanStatus, Tracer};
    pub use crate::transport::{Network, NetworkConfig};
    pub use crate::wsdl::{Operation, Part, WsdlDocument};
}

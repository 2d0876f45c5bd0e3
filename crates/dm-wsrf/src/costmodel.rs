//! The QoS cost-model snapshot behind the composition planner (E20).
//!
//! The paper's compositions are hand-wired cables between concrete
//! services; selecting *which* replica serves each abstract step is the
//! QoS service-selection problem (solved knapsack-style by Fan & Yang)
//! biased towards data locality (Sadeghiram et al.). Every input that
//! selection needs already exists as a live signal somewhere in this
//! crate: per-host latency quantiles in [`MonitorLog`], queue depth and
//! shed counters in [`LoadStats`], breaker state in [`BreakerBoard`],
//! outstanding-request counts in `Network::load_snapshot`, and the
//! data-plane inline threshold that decides when a payload travels as a
//! `DataRef` handle instead of inline bytes.
//!
//! [`CostModel`] freezes those signals into one plain-data snapshot so
//! a planner run is a pure function of `(goal, candidates, snapshot,
//! seed)` — re-planning with the same snapshot always yields the same
//! assignment, which is what the determinism benches pin.

use crate::container::LoadStats;
use crate::monitor::MonitorLog;
use crate::resilience::BreakerBoard;
use crate::transport::{DataPlaneConfig, NetworkConfig};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Approximate wire size of a `DataRef` handle envelope element (kind
/// tag + 128-bit content hash + length). Used to *predict* the bytes a
/// co-located hop still pays when the payload itself is substituted.
pub const DATA_REF_WIRE_BYTES: usize = 96;

/// Everything the planner knows about one host, frozen at snapshot
/// time. Missing telemetry stays `None`/zero — a cold host is scored
/// with the model's defaults, not excluded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostCost {
    /// Outstanding requests (max of wall-clock outstanding and the
    /// capacity model's in-system count), from `Network::load_snapshot`.
    pub outstanding: u64,
    /// Median per-attempt duration from the monitor log.
    pub p50: Option<Duration>,
    /// Nearest-rank p99 per-attempt duration from the monitor log.
    pub p99: Option<Duration>,
    /// `shed / (admitted + shed)` from the host's [`LoadStats`].
    pub shed_rate: f64,
    /// `(faults + transport errors) / invocations` from the monitor.
    pub failure_rate: f64,
    /// `true` when the host's circuit breaker is open — the planner
    /// must never place a step here.
    pub breaker_open: bool,
}

/// A frozen telemetry snapshot plus the link/data-plane parameters
/// needed to price a `(step, replica)` pairing.
#[derive(Debug, Clone)]
pub struct CostModel {
    hosts: BTreeMap<String, HostCost>,
    /// Link cost model used to price predicted transfers.
    pub link: NetworkConfig,
    /// Payloads at or above this many bytes are eligible for `DataRef`
    /// substitution when the receiving host already holds them.
    pub inline_threshold: usize,
    /// Service-time estimate for hosts with no recorded latency.
    pub default_service_time: Duration,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            hosts: BTreeMap::new(),
            link: NetworkConfig::default(),
            inline_threshold: DataPlaneConfig::default().inline_threshold,
            default_service_time: Duration::from_millis(2),
        }
    }
}

impl CostModel {
    /// An empty snapshot: no telemetry, default link parameters. A
    /// planner fed this must still produce a valid plan (cold start).
    pub fn new() -> CostModel {
        CostModel::default()
    }

    /// `true` when no host has any recorded telemetry.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The snapshot's view of `host`, if any signal has been recorded.
    pub fn host(&self, host: &str) -> Option<&HostCost> {
        self.hosts.get(host)
    }

    /// All hosts with recorded telemetry, sorted by name.
    pub fn hosts(&self) -> impl Iterator<Item = (&String, &HostCost)> {
        self.hosts.iter()
    }

    fn entry(&mut self, host: &str) -> &mut HostCost {
        self.hosts.entry(host.to_string()).or_default()
    }

    /// Fold an outstanding-request snapshot (e.g.
    /// `Network::load_snapshot`) into the model.
    pub fn observe_loads(&mut self, loads: &HashMap<String, u64>) {
        for (host, &load) in loads {
            let e = self.entry(host);
            e.outstanding = e.outstanding.max(load);
        }
    }

    /// Fold the monitor log's per-host quantiles and failure rates in.
    /// Costs O(hosts): the log aggregates when it records.
    pub fn observe_monitor(&mut self, log: &MonitorLog) {
        for s in log.summary_by_host() {
            let e = self.entry(&s.host);
            e.p50 = Some(s.p50_duration);
            e.p99 = Some(s.p99_duration);
            e.failure_rate = s.failure_rate;
        }
    }

    /// Fold one host's admission-control counters in: shed rate and
    /// the in-system depth at the snapshot instant.
    pub fn observe_load_stats(&mut self, host: &str, stats: &LoadStats) {
        let e = self.entry(host);
        let offered = stats.admitted + stats.shed;
        if offered > 0 {
            e.shed_rate = stats.shed as f64 / offered as f64;
        }
        e.outstanding = e.outstanding.max(stats.in_system as u64);
    }

    /// Mark every host whose breaker is open at `now` as unplaceable.
    pub fn observe_breakers(&mut self, board: &BreakerBoard, now: Duration) {
        for host in board.open_hosts(now) {
            self.entry(&host).breaker_open = true;
        }
    }

    /// `false` when the host's breaker is open (a host the snapshot has
    /// never seen is allowed — cold start must not starve the planner).
    pub fn allows(&self, host: &str) -> bool {
        self.hosts.get(host).is_none_or(|h| !h.breaker_open)
    }

    /// Predicted virtual nanoseconds for one invocation on `host`:
    /// queue-depth-many service times ahead of ours plus our own,
    /// inflated by the host's shed and failure rates (each shed or
    /// failed attempt is work a caller re-pays elsewhere).
    pub fn service_nanos(&self, host: &str) -> u128 {
        let (outstanding, tail, pressure) = match self.hosts.get(host) {
            Some(h) => (
                h.outstanding,
                h.p99.unwrap_or(self.default_service_time),
                1.0 + h.shed_rate + h.failure_rate,
            ),
            None => (0, self.default_service_time, 1.0),
        };
        let base = (outstanding as u128 + 1) * tail.as_nanos().max(1);
        (base as f64 * pressure) as u128
    }

    /// Predicted wire bytes for shipping a `bytes`-sized payload to a
    /// step's host. When the previous step ran on the *same* host and
    /// the payload clears the inline threshold, the host's attachment
    /// store already holds it, so only a `DataRef` handle travels.
    pub fn predicted_transfer_bytes(&self, bytes: usize, colocated: bool) -> usize {
        if colocated && bytes >= self.inline_threshold {
            DATA_REF_WIRE_BYTES.min(bytes)
        } else {
            bytes
        }
    }

    /// Predicted virtual nanoseconds to move `bytes` over the link.
    pub fn transfer_nanos(&self, bytes: usize) -> u128 {
        self.link.transmit_time(bytes).as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{InvocationEvent, Outcome};
    use crate::resilience::BreakerConfig;

    fn event<'a>(host: &'a str, ms: u64, outcome: Outcome<'a>) -> InvocationEvent<'a> {
        InvocationEvent {
            host,
            service: "S",
            operation: "op",
            duration: Duration::from_millis(ms),
            bytes_in: 10,
            bytes_out: 10,
            bytes_saved: 0,
            ref_hits: 0,
            outcome,
        }
    }

    #[test]
    fn empty_model_uses_defaults() {
        let m = CostModel::new();
        assert!(m.is_empty());
        assert!(m.allows("anywhere"));
        assert_eq!(
            m.service_nanos("anywhere"),
            Duration::from_millis(2).as_nanos()
        );
    }

    #[test]
    fn monitor_and_loads_fold_in() {
        let log = MonitorLog::new();
        log.record(event("a", 4, Outcome::Ok));
        log.record(event("a", 8, Outcome::Fault("Server")));
        let mut m = CostModel::new();
        m.observe_monitor(&log);
        m.observe_loads(&[("a".to_string(), 3)].into());
        let a = m.host("a").unwrap();
        assert_eq!(a.p99, Some(Duration::from_millis(8)));
        assert_eq!(a.outstanding, 3);
        assert!((a.failure_rate - 0.5).abs() < 1e-12);
        // (3 + 1) queue positions × 8 ms tail × 1.5 failure pressure.
        assert_eq!(
            m.service_nanos("a"),
            (4.0 * Duration::from_millis(8).as_nanos() as f64 * 1.5) as u128
        );
    }

    #[test]
    fn load_stats_set_shed_rate_and_depth() {
        let stats = LoadStats {
            admitted: 6,
            queued: 3,
            shed: 2,
            total_queue_wait: Duration::ZERO,
            in_system: 5,
            queue_waits: crate::metrics::Histogram::new(),
        };
        let mut m = CostModel::new();
        m.observe_load_stats("a", &stats);
        let a = m.host("a").unwrap();
        assert!((a.shed_rate - 0.25).abs() < 1e-12);
        assert_eq!(a.outstanding, 5);
    }

    #[test]
    fn open_breakers_block_placement() {
        let board = BreakerBoard::new(BreakerConfig::default());
        let b = board.breaker("bad");
        for _ in 0..32 {
            b.record_failure(Duration::ZERO);
        }
        let mut m = CostModel::new();
        m.observe_breakers(&board, Duration::ZERO);
        assert!(!m.allows("bad"));
        assert!(m.allows("good"));
    }

    #[test]
    fn colocated_large_payloads_travel_as_refs() {
        let m = CostModel::new();
        let big = m.inline_threshold * 4;
        assert_eq!(m.predicted_transfer_bytes(big, true), DATA_REF_WIRE_BYTES);
        assert_eq!(m.predicted_transfer_bytes(big, false), big);
        // Small payloads always travel inline.
        assert_eq!(m.predicted_transfer_bytes(100, true), 100);
        assert!(m.transfer_nanos(big) > m.transfer_nanos(DATA_REF_WIRE_BYTES));
    }
}

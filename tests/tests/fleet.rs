//! E19 — the federated fleet end to end: gossip convergence bounds,
//! tombstone propagation, deterministic power-of-two-choices routing
//! (byte-identical across runs and pool widths), and the queue-depth/
//! p99 autoscaler on the virtual clock.

#![forbid(unsafe_code)]

use dm_algorithms::pool;
use dm_wsrf::container::{CapacityConfig, ServiceFault, WebService};
use dm_wsrf::fleet::{
    splitmix64, Autoscaler, AutoscalerConfig, Fleet, FleetConfig, GossipConfig, GossipRegistry,
    P2cRouter, ScaleAction,
};
use dm_wsrf::registry::ServiceEntry;
use dm_wsrf::soap::SoapValue;
use dm_wsrf::transport::Network;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A deterministic stand-in for a mining service: `mine(row)` returns
/// a pure function of the row id, so any two replicas agree on every
/// answer and output divergence can only come from routing bugs.
struct PulseService;

impl WebService for PulseService {
    fn name(&self) -> &str {
        "Pulse"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("Pulse", "http://localhost/Pulse").operation(Operation::new(
            "mine",
            vec![Part::new("row", "long")],
            Part::new("label", "long"),
        ))
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        match operation {
            "mine" => {
                let row = args
                    .iter()
                    .find(|(n, _)| n == "row")
                    .and_then(|(_, v)| v.as_int().ok())
                    .ok_or_else(|| ServiceFault::client("missing row"))?;
                Ok(SoapValue::Int((splitmix64(row as u64) % 7) as i64))
            }
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }
}

fn pulse_fleet(replicas: usize, routing_seed: u64) -> (Arc<Network>, Fleet) {
    let net = Arc::new(Network::new());
    let mut config = FleetConfig::new("Pulse");
    config.capacity = CapacityConfig {
        workers: 1,
        queue_limit: Some(4),
        service_time: Duration::from_millis(1),
    };
    config.routing_seed = routing_seed;
    let fleet = Fleet::new(
        Arc::clone(&net),
        config,
        Arc::new(|| Arc::new(PulseService)),
    );
    for _ in 0..replicas {
        fleet.add_replica(net.now());
    }
    fleet.gossip().sync(replicas + 2).expect("mesh converges");
    (net, fleet)
}

/// Drive `n` open-loop arrivals 300µs apart; record each answer (or a
/// shed) and the serving replica.
fn drive(net: &Network, fleet: &Fleet, n: u32) -> (Vec<Option<i64>>, Vec<Option<String>>) {
    let mut outputs = Vec::with_capacity(n as usize);
    let mut servers = Vec::with_capacity(n as usize);
    let mut t = Duration::ZERO;
    for i in 0..n {
        t += Duration::from_micros(300);
        net.set_virtual_time(t);
        if i % 16 == 0 {
            fleet.heartbeat_all(t);
            fleet.gossip().run_round();
        }
        match fleet.invoke(t, "mine", vec![("row".into(), SoapValue::Int(i as i64))]) {
            Ok(v) => {
                outputs.push(Some(v.as_int().unwrap()));
                servers.push(fleet.last_served());
            }
            Err(e) if e.is_server_busy() => {
                outputs.push(None);
                servers.push(None);
            }
            Err(e) => panic!("unexpected failure at arrival {i}: {e}"),
        }
    }
    (outputs, servers)
}

// --- routing determinism -------------------------------------------------

#[test]
fn same_seed_runs_are_byte_identical() {
    let (net_a, fleet_a) = pulse_fleet(3, 0xE19);
    let (net_b, fleet_b) = pulse_fleet(3, 0xE19);
    let a = drive(&net_a, &fleet_a, 256);
    let b = drive(&net_b, &fleet_b, 256);
    // Not just the answers — the full routing trace (which replica
    // served each request) must repeat.
    assert_eq!(a, b);
}

#[test]
fn routing_is_byte_identical_across_pool_widths() {
    let narrow = pool::with_threads(1, || {
        let (net, fleet) = pulse_fleet(4, 0xE19);
        drive(&net, &fleet, 256)
    });
    let wide = pool::with_threads(4, || {
        let (net, fleet) = pulse_fleet(4, 0xE19);
        drive(&net, &fleet, 256)
    });
    assert_eq!(narrow, wide);
}

#[test]
fn outputs_agree_across_replica_counts_and_seeds() {
    let (net_a, fleet_a) = pulse_fleet(2, 0xE19);
    let (net_b, fleet_b) = pulse_fleet(4, 0xE19 ^ 0x5EED);
    let (out_a, _) = drive(&net_a, &fleet_a, 256);
    let (out_b, _) = drive(&net_b, &fleet_b, 256);
    let mut common = 0;
    for (i, (x, y)) in out_a.iter().zip(&out_b).enumerate() {
        if let (Some(x), Some(y)) = (x, y) {
            assert_eq!(x, y, "request {i} mined different answers");
            common += 1;
        }
    }
    assert!(common > 128, "only {common} commonly-served requests");
}

#[test]
fn p2c_order_is_a_pure_function_of_seed_and_draw() {
    let candidates: Vec<String> = (0..6).map(|i| format!("h{i}")).collect();
    let loads: HashMap<String, u64> = candidates
        .iter()
        .enumerate()
        .map(|(i, h)| (h.clone(), (i as u64 * 3) % 5))
        .collect();
    let trace = |seed| {
        let router = P2cRouter::new(seed);
        (0..64)
            .map(|_| router.order(&candidates, &loads))
            .collect::<Vec<_>>()
    };
    assert_eq!(trace(7), trace(7));
    assert_ne!(
        trace(7),
        trace(8),
        "distinct seeds should explore distinct orders"
    );
}

// --- gossip convergence --------------------------------------------------

fn entry(service: &str, host: &str) -> ServiceEntry {
    ServiceEntry {
        name: service.into(),
        host: host.into(),
        wsdl_url: format!("http://{host}/axis/{service}?wsdl"),
        categories: vec!["datamining".into()],
        description: format!("{service} on {host}"),
    }
}

#[test]
fn gossip_converges_within_bounded_rounds() {
    // The ring successor edge alone carries every record all the way
    // around in at most N-1 rounds; the seeded fanout only accelerates.
    let hosts: Vec<String> = (0..9).map(|i| format!("n{i}")).collect();
    let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
    let registry = GossipRegistry::new(&refs, GossipConfig::default());
    let now = Duration::from_secs(1);
    for node in registry.nodes() {
        let host = node.host().to_string();
        node.publish(entry("Pulse", &host), now);
    }
    let rounds = registry.sync(hosts.len()).expect("must converge");
    assert!(rounds < hosts.len(), "took {rounds} rounds for 9 nodes");
    for node in registry.nodes() {
        assert_eq!(
            node.view_len(),
            hosts.len(),
            "{} has a partial view",
            node.host()
        );
        assert_eq!(
            node.live_hosts("Pulse", now, Duration::from_secs(30)).len(),
            hosts.len()
        );
    }
}

#[test]
fn tombstones_propagate_to_every_view() {
    let (net, fleet) = pulse_fleet(4, 0xE19);
    let drained = fleet.drain_replica(net.now()).expect("a replica to drain");
    fleet.gossip().sync(8).expect("tombstone round converges");
    let now = net.now();
    for node in fleet.gossip().nodes() {
        let live = node.live_hosts("Pulse", now, Duration::from_secs(30));
        assert!(
            !live.contains(&drained),
            "{} still routes to drained {drained}",
            node.host()
        );
        assert_eq!(live.len(), 3);
    }
    // A tombstoned replica never serves again.
    let (outputs, servers) = drive(&net, &fleet, 64);
    assert!(outputs.iter().any(Option::is_some));
    assert!(servers.iter().flatten().all(|h| *h != drained));
}

// --- autoscaler ----------------------------------------------------------

#[test]
fn autoscaler_grows_under_load_and_drains_when_idle() {
    let (net, fleet) = pulse_fleet(1, 0xE19);
    let scaler = Autoscaler::new(AutoscalerConfig {
        min_replicas: 1,
        max_replicas: 4,
        queue_high: 2.0,
        p99_high: Duration::from_millis(4),
        queue_low: 0.5,
        cooldown: Duration::from_millis(5),
    });

    // Overload phase: arrivals every 300µs against µ = 1000 req/s.
    let mut t = Duration::ZERO;
    let mut ups = 0;
    for i in 0..400u32 {
        t += Duration::from_micros(300);
        net.set_virtual_time(t);
        if i % 16 == 0 {
            fleet.heartbeat_all(t);
            fleet.gossip().run_round();
        }
        let _ = fleet.invoke(t, "mine", vec![("row".into(), SoapValue::Int(i as i64))]);
        if i % 25 == 24
            && fleet.autoscale_tick(t, &scaler, Duration::from_millis(6)) == ScaleAction::Up
        {
            ups += 1;
        }
    }
    assert!(ups >= 1, "overload never triggered a scale-up");
    assert!(fleet.active_replicas().len() > 1);

    // Idle phase: no arrivals, healthy p99 → the fleet drains back.
    let mut downs = 0;
    for tick in 0..20u64 {
        t += Duration::from_millis(10);
        net.set_virtual_time(t);
        fleet.heartbeat_all(t);
        fleet.gossip().run_round();
        let _ = tick;
        if fleet.autoscale_tick(t, &scaler, Duration::from_micros(500)) == ScaleAction::Down {
            downs += 1;
        }
    }
    assert!(downs >= 1, "idle fleet never drained");
    assert!(
        !fleet.active_replicas().is_empty(),
        "min_replicas must hold"
    );
    assert!(fleet.active_replicas().len() >= scaler.config().min_replicas);

    // The decision log reflects both phases.
    let history = scaler.history();
    assert!(history.iter().any(|e| e.action == ScaleAction::Up));
    assert!(history.iter().any(|e| e.action == ScaleAction::Down));
}

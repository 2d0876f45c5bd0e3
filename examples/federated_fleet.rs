//! E19 walkthrough: a replicated mining service on a simulated
//! multi-host fleet. A J48 classifier is deployed N times behind a
//! gossiped registry (partial per-host views, versioned heartbeats,
//! tombstones); requests are routed power-of-two-choices over the
//! live load snapshot, fail over past saturated replicas, and an
//! autoscaler grows and drains the fleet on queue-depth/p99 signals —
//! all on the virtual clock, fully deterministic.
//!
//! Run with `cargo run --example federated_fleet`.

#![forbid(unsafe_code)]

use dm_algorithms::classifiers::{Classifier, J48};
use dm_data::corpus::nominal_classification;
use dm_data::Dataset;
use dm_wsrf::container::{CapacityConfig, ServiceFault, WebService};
use dm_wsrf::fleet::{Autoscaler, AutoscalerConfig, Fleet, FleetConfig, ScaleAction};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::transport::Network;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::sync::Arc;
use std::time::Duration;

/// Each replica trains its own J48 on the same deterministic corpus,
/// so every replica answers `classify(row)` identically — as N
/// deployments of the same released model would.
struct MineService {
    model: J48,
    data: Dataset,
}

fn mine_service() -> Arc<dyn WebService> {
    let data = nominal_classification(200, 4, 3, 2, 0.05, 11);
    let mut model = J48::new();
    model.train(&data).expect("train");
    Arc::new(MineService { model, data })
}

impl WebService for MineService {
    fn name(&self) -> &str {
        "Mine"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("Mine", "http://localhost/Mine").operation(Operation::new(
            "classify",
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
            "classify" => {
                let row = args
                    .iter()
                    .find(|(n, _)| n == "row")
                    .and_then(|(_, v)| v.as_int().ok())
                    .ok_or_else(|| ServiceFault::client("missing row"))?
                    as usize;
                let label = self
                    .model
                    .predict(&self.data, row % self.data.num_instances())
                    .map_err(|e| ServiceFault::server(e.to_string()))?;
                Ok(SoapValue::Int(label as i64))
            }
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }
}

fn main() {
    let net = Arc::new(Network::new());
    let mut config = FleetConfig::new("Mine");
    config.capacity = CapacityConfig {
        workers: 2,
        queue_limit: Some(8),
        service_time: Duration::from_millis(2),
    };
    let fleet = Fleet::new(Arc::clone(&net), config, Arc::new(mine_service));

    println!("=== Provision one replica and converge the gossip mesh ===");
    let host = fleet.add_replica(net.now());
    println!("provisioned {host}");
    let rounds = fleet.gossip().sync(8).expect("mesh converges");
    println!("mesh converged in {rounds} anti-entropy round(s)");

    println!("\n=== Drive 600 open-loop arrivals at 2x one replica's capacity ===");
    let scaler = Autoscaler::new(AutoscalerConfig {
        max_replicas: 6,
        queue_high: 3.0,
        p99_high: Duration::from_millis(8),
        cooldown: Duration::from_millis(40),
        ..AutoscalerConfig::default()
    });
    let mut t = Duration::ZERO;
    let (mut served, mut shed) = (0u32, 0u32);
    let mut recent = Vec::new();
    for i in 0..600u32 {
        t += Duration::from_micros(500);
        net.set_virtual_time(t);
        if i % 32 == 0 {
            fleet.heartbeat_all(t);
            fleet.gossip().run_round();
        }
        match fleet.invoke(
            t,
            "classify",
            vec![("row".into(), SoapValue::Int(i as i64))],
        ) {
            Ok(_) => {
                served += 1;
                recent.push(net.virtual_time() - t);
            }
            Err(e) if e.is_server_busy() => shed += 1,
            Err(e) => panic!("unexpected failure: {e}"),
        }
        if i % 50 == 49 {
            recent.sort_unstable();
            let p99 = recent[recent.len() * 99 / 100];
            let action = fleet.autoscale_tick(t, &scaler, p99);
            if action != ScaleAction::Hold {
                println!(
                    "t={t:>12?}  {action:?} -> {} replica(s)  (window p99 {p99:?})",
                    fleet.active_replicas().len()
                );
            }
            recent.clear();
        }
    }

    println!("\n=== Outcome ===");
    println!("served {served}, shed {shed} of 600 arrivals");
    println!("final fleet: {:?}", fleet.active_replicas());
    println!("autoscaler decisions logged: {}", scaler.history().len());
    println!("router draws: {}", fleet.router().draws());

    // Same-seed reruns of this whole program are byte-identical: every
    // random choice (gossip peers, p2c draws, tie-breaks) is a counter-
    // based splitmix64 stream on the virtual clock.
    assert!(
        fleet.active_replicas().len() > 1,
        "overload should grow the fleet"
    );
}

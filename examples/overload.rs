//! Admission control under overload: a host with bounded capacity
//! sheds excess arrivals as retryable `ServerBusy` faults, the
//! resilience layer rides out a shed with extended backoff, and
//! power-of-two-choices routing over the load snapshot steers new work
//! at the idle replica.
//!
//! Run with `cargo run --example overload`.

#![forbid(unsafe_code)]

use dm_wsrf::container::CapacityConfig;
use dm_wsrf::fleet::P2cRouter;
use dm_wsrf::resilience::{BreakerConfig, ResiliencePolicy};
use faehim::Toolkit;
use std::time::Duration;

fn main() {
    let mut toolkit = Toolkit::with_hosts(&["wesc-a", "wesc-b"]).expect("toolkit");
    // Each host simulates one worker with a 5 ms service time and two
    // accept-queue slots; a third concurrent request is shed.
    toolkit.enable_admission_control(CapacityConfig {
        workers: 1,
        queue_limit: Some(2),
        service_time: Duration::from_millis(5),
    });
    let net = toolkit.network();

    println!("=== Burst of 8 simultaneous arrivals at wesc-a (1 worker, 2 queue slots) ===");
    let t0 = net.now();
    let mut served = 0;
    let mut shed = 0;
    for _ in 0..8 {
        net.set_virtual_time(t0); // open-loop: all 8 arrive at once
        match net.invoke("wesc-a", "Classifier", "getClassifiers", vec![]) {
            Ok(_) => served += 1,
            Err(e) if e.is_server_busy() => shed += 1,
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    let stats = net
        .host("wesc-a")
        .expect("host")
        .load_stats(t0)
        .expect("capacity enabled");
    println!("served {served}, shed {shed} with ServerBusy");
    println!(
        "wesc-a load: admitted {}, queued {}, shed {}, {} in system, total queue wait {:?}",
        stats.admitted, stats.queued, stats.shed, stats.in_system, stats.total_queue_wait
    );

    println!("\n=== Resilient retry drains a busy host ===");
    toolkit.enable_resilience(
        ResiliencePolicy::default()
            .attempts(5)
            .backoff(Duration::from_millis(4), Duration::from_millis(64)),
        BreakerConfig {
            min_calls: 100,
            ..BreakerConfig::default()
        },
    );
    // Rewind into the busy window: the first attempt is shed, then the
    // shed-aware backoff (double the drawn delay) waits the queue out.
    net.set_virtual_time(t0);
    let caller = toolkit.resilience().expect("resilience enabled");
    let (result, stats) = caller.invoke("wesc-a", "Classifier", "getClassifiers", vec![]);
    result.expect("retry succeeds once the queue drains");
    println!(
        "succeeded after {} attempts ({} shed, {:?} total backoff)",
        stats.attempts, stats.busy, stats.backoff
    );

    println!("\n=== Power-of-two-choices routing prefers the idle replica ===");
    // Rewind into the burst's busy window so wesc-a still holds work.
    net.set_virtual_time(t0 + Duration::from_millis(1));
    let loads = net.load_snapshot();
    println!(
        "outstanding: wesc-a={}, wesc-b={}",
        loads.get("wesc-a").copied().unwrap_or(0),
        loads.get("wesc-b").copied().unwrap_or(0)
    );
    // The registry lists one Classifier replica per host; the router
    // draws two and sends the call to the less loaded one, then orders
    // the rest by load as the failover sequence.
    let replicas = toolkit
        .registry()
        .live_hosts("Classifier", net.now(), Duration::MAX);
    let ranked = P2cRouter::new(7).order(&replicas, &loads);
    for (i, host) in ranked.iter().enumerate() {
        println!(
            "  {}. Classifier on {host} (load {})",
            i + 1,
            loads.get(host).copied().unwrap_or(0)
        );
    }
    assert_eq!(ranked[0], "wesc-b", "idle replica ranks first");

    println!("\n=== Load metrics ===");
    let metrics = toolkit.metrics_registry();
    for line in metrics.export_prometheus().lines() {
        if line.starts_with("faehim_requests_") || line.starts_with("faehim_queue_depth") {
            println!("{line}");
        }
    }
}

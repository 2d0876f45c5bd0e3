//! E14 — admission control under overload: an open-loop arrival stream
//! at 2× a host's service capacity, with a bounded accept queue that
//! sheds excess load versus the pathological unbounded queue.
//!
//! The host models `workers = 2` parallel workers with a 1 ms service
//! time (capacity μ = 2000 req/s); arrivals come every 250 µs
//! (λ = 4000 req/s), so half the offered load is excess. With a bounded
//! queue the host sheds that excess as retryable `ServerBusy` faults
//! and the sojourn time of *served* requests stays flat; with an
//! unbounded queue nothing is ever refused and the queueing delay grows
//! without bound for as long as the overload lasts.
//!
//! Arrivals are driven open-loop on the virtual clock: each request's
//! arrival instant is pinned with `set_virtual_time`, so later arrivals
//! do not slow down when earlier ones queue — exactly the regime where
//! closed-loop benchmarks under-report tail latency.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dm_bench::banner;
use dm_wsrf::container::{CapacityConfig, ServiceFault};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::transport::Network;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const HOST: &str = "dm-host";
const WORKERS: usize = 2;
const SERVICE_TIME: Duration = Duration::from_millis(1);
const QUEUE_LIMIT: usize = 16;
/// λ = 2μ: one arrival every 250 µs against 2 workers × 1 ms service.
const INTERARRIVAL: Duration = Duration::from_micros(250);
const REQUESTS: u32 = 4000;
const WINDOW: usize = 500;

/// Minimal mining service: a fixed-cost `classify` operation. The
/// simulated cost lives in the capacity model, not in the handler.
struct MineService;

impl dm_wsrf::container::WebService for MineService {
    fn name(&self) -> &str {
        "Mine"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("Mine", "http://localhost/Mine").operation(Operation::new(
            "classify",
            vec![Part::new("instance", "string")],
            Part::new("return", "string"),
        ))
    }

    fn invoke(
        &self,
        operation: &str,
        _args: &[(String, SoapValue)],
    ) -> std::result::Result<SoapValue, ServiceFault> {
        match operation {
            "classify" => Ok(SoapValue::Text("yes".into())),
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }
}

fn overloaded_network(queue_limit: Option<usize>) -> Network {
    let net = Network::new();
    let host = net.add_host(HOST);
    host.deploy(Arc::new(MineService));
    host.set_capacity(Some(CapacityConfig {
        workers: WORKERS,
        queue_limit,
        service_time: SERVICE_TIME,
    }));
    net
}

/// Drive `requests` open-loop arrivals and return the sojourn time of
/// each *served* request (arrival to response, on the virtual clock)
/// plus the shed count.
fn drive(net: &Network, requests: u32) -> (Vec<Duration>, u64) {
    let mut sojourns = Vec::with_capacity(requests as usize);
    let mut shed = 0u64;
    for i in 0..requests {
        let arrival = INTERARRIVAL * i;
        net.set_virtual_time(arrival);
        let result = net.invoke(
            HOST,
            "Mine",
            "classify",
            vec![("instance".into(), SoapValue::Text("x".into()))],
        );
        match result {
            Ok(_) => sojourns.push(net.virtual_time() - arrival),
            Err(e) if e.is_server_busy() => shed += 1,
            Err(e) => panic!("unexpected failure at arrival {i}: {e}"),
        }
    }
    (sojourns, shed)
}

/// Nearest-rank quantile over raw samples (the exported histogram's
/// top bucket saturates at 10 s, useless for an unbounded queue).
fn quantile(sorted: &[Duration], q: f64) -> Duration {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(mut v: Vec<Duration>) -> Vec<Duration> {
    v.sort_unstable();
    v
}

fn bench(c: &mut Criterion) {
    banner(
        "E14",
        "admission control under 2x overload: bounded queue + shedding vs unbounded queue",
    );

    // --- Bounded queue: sheds excess, holds the tail flat. -----------
    let net = overloaded_network(Some(QUEUE_LIMIT));
    let (served, shed) = drive(&net, REQUESTS);
    let stats = net
        .host(HOST)
        .unwrap()
        .load_stats(net.virtual_time())
        .unwrap();
    assert_eq!(stats.shed, shed);
    let bounded = sorted(served);
    let bounded_p50 = quantile(&bounded, 0.50);
    let bounded_p99 = quantile(&bounded, 0.99);
    println!(
        "bounded queue ({WORKERS} workers, {QUEUE_LIMIT} slots): served {}, shed {} ({:.1}% of offered)",
        bounded.len(),
        shed,
        100.0 * shed as f64 / REQUESTS as f64
    );
    println!(
        "  sojourn p50 {bounded_p50:?}, p99 {bounded_p99:?}, max {:?}",
        bounded.last().unwrap()
    );
    assert!(shed > 0, "2x overload must shed with a bounded queue");
    assert!(
        bounded.len() as u64 + shed == u64::from(REQUESTS),
        "every arrival is served or shed"
    );
    // Worst admitted case waits ceil(16/2) service times in queue plus
    // its own 1 ms of service and two transport legs: well under 12 ms.
    assert!(
        bounded_p99 <= Duration::from_millis(12),
        "bounded p99 {bounded_p99:?} exceeds the 12 ms ceiling"
    );

    // --- Unbounded queue: never refuses, latency grows without bound.
    let net = overloaded_network(None);
    let (served, shed) = drive(&net, REQUESTS);
    assert_eq!(shed, 0, "unbounded queue must never shed");
    assert_eq!(served.len(), REQUESTS as usize);
    println!("unbounded queue: served {}, shed 0", served.len());
    let mut window_p99s = Vec::new();
    for (w, window) in served.chunks(WINDOW).enumerate() {
        let p99 = quantile(&sorted(window.to_vec()), 0.99);
        println!(
            "  arrivals {:>5}..{:<5} p99 {p99:?}",
            w * WINDOW,
            w * WINDOW + window.len()
        );
        window_p99s.push(p99);
    }
    for pair in window_p99s.windows(2) {
        assert!(
            pair[1] > pair[0],
            "unbounded-queue p99 must grow monotonically under sustained overload: {window_p99s:?}"
        );
    }
    let unbounded_p99 = *window_p99s.last().unwrap();
    assert!(
        unbounded_p99 > 4 * window_p99s[0],
        "tail should keep climbing: first {:?}, last {:?}",
        window_p99s[0],
        unbounded_p99
    );
    println!(
        "final-window p99: bounded {bounded_p99:?} vs unbounded {unbounded_p99:?} ({}x)",
        unbounded_p99.as_nanos() / bounded_p99.as_nanos().max(1)
    );

    let mut group = c.benchmark_group("e14_overload");
    group.bench_function("bounded_512_arrivals", |b| {
        b.iter(|| {
            let net = overloaded_network(Some(QUEUE_LIMIT));
            black_box(drive(&net, 512))
        })
    });
    group.bench_function("unbounded_512_arrivals", |b| {
        b.iter(|| {
            let net = overloaded_network(None);
            black_box(drive(&net, 512))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

//! E19 — the federated fleet under ≥2× overload: p99 sojourn and
//! shed-rate vs. replica count, with byte-identical mining outputs at
//! any replica count and routing seed.
//!
//! A `Mine` service (a J48 trained per replica on the same synthetic
//! corpus — every replica learns the identical model) is replicated
//! N ∈ {1, 2, 4, 8} times across simulated hosts, each with the E14
//! capacity model (2 workers × 2 ms ⇒ μ = 1000 req/s per replica).
//! An open-loop generator models many independent clients: Pareto
//! (α = 1.5, capped) inter-arrivals whose mean offers λ = 2000 req/s —
//! 2× one replica's capacity — modulated by a ±40% diurnal ramp over a
//! 2 s virtual day. Routing is power-of-two-choices over the fleet's
//! gossiped view and live load snapshot; a second phase lets the
//! queue-depth/p99 autoscaler grow and drain the fleet across the
//! diurnal cycle.
//!
//! Everything is seeded and driven on the virtual clock, so two runs
//! with the same seeds are byte-identical end to end, and runs that
//! differ only in replica count or routing seed must agree on every
//! commonly-served request's prediction.
//!
//! `FAEHIM_E19_SMOKE=1` shrinks the workload for CI smoke runs.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dm_algorithms::classifiers::{Classifier, J48};
use dm_bench::banner;
use dm_data::corpus::nominal_classification;
use dm_data::Dataset;
use dm_wsrf::container::{CapacityConfig, ServiceFault, WebService};
use dm_wsrf::fleet::{splitmix64, Autoscaler, AutoscalerConfig, Fleet, FleetConfig, ScaleAction};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::transport::Network;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 2;
const SERVICE_TIME: Duration = Duration::from_millis(2);
const QUEUE_LIMIT: usize = 8;
/// Mean offered inter-arrival: λ = 2000 req/s = 2× one replica's
/// μ = workers / service_time = 1000 req/s.
const BASE_INTERARRIVAL: f64 = 500e-6;
const PARETO_ALPHA: f64 = 1.5;
/// One virtual "day" for the diurnal ramp.
const DAY: f64 = 2.0;
const ARRIVAL_SEED: u64 = 0xD1CE;
const ROUTING_SEED: u64 = 0xE19;
/// Client-perceived cost of a shed arrival: the caller must come back
/// after a retry-later interval, so a shed counts as this fixed
/// penalty in the perceived-latency distribution. (Served-only p99
/// saturates at the bounded queue's cap for *every* overloaded config
/// — E14's whole point — so it cannot order overloaded fleets; the
/// penalty-inclusive quantile can.)
const SHED_PENALTY: Duration = Duration::from_millis(25);

fn smoke() -> bool {
    std::env::var("FAEHIM_E19_SMOKE").is_ok()
}

fn requests() -> u32 {
    if smoke() {
        1_000
    } else {
        4_000
    }
}

fn replica_counts() -> &'static [usize] {
    if smoke() {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    }
}

/// The replicated mining service: each instance trains its own J48 on
/// the same deterministic corpus (so every replica holds an identical
/// model) and answers `classify(row)` with the predicted class code.
struct MineService {
    model: J48,
    data: Dataset,
}

fn mine_service() -> Arc<dyn WebService> {
    let data = nominal_classification(200, 4, 3, 2, 0.05, 11);
    let mut model = J48::new();
    model
        .train(&data)
        .expect("J48 trains on the synthetic corpus");
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
    ) -> std::result::Result<SoapValue, ServiceFault> {
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

/// Deterministic heavy-tailed inter-arrival for request `i` at virtual
/// instant `at`: Pareto(α) scaled to the base mean, capped at 50× so
/// one extreme draw cannot end the day, then modulated by the diurnal
/// rate ramp (faster arrivals when the "day" swells).
fn interarrival(seed: u64, i: u32, at: Duration) -> Duration {
    let u = ((splitmix64(seed.wrapping_add(u64::from(i))) >> 11) as f64 / (1u64 << 53) as f64)
        .max(1e-12);
    let x_m = BASE_INTERARRIVAL * (PARETO_ALPHA - 1.0) / PARETO_ALPHA;
    let dt = (x_m / u.powf(1.0 / PARETO_ALPHA)).min(50.0 * BASE_INTERARRIVAL);
    let phase = at.as_secs_f64() / DAY * std::f64::consts::TAU;
    let rate = 1.0 + 0.4 * phase.sin();
    Duration::from_secs_f64(dt / rate)
}

fn fleet_with(replicas: usize, routing_seed: u64) -> (Arc<Network>, Fleet) {
    let net = Arc::new(Network::new());
    let mut config = FleetConfig::new("Mine");
    config.capacity = CapacityConfig {
        workers: WORKERS,
        queue_limit: Some(QUEUE_LIMIT),
        service_time: SERVICE_TIME,
    };
    config.routing_seed = routing_seed;
    let fleet = Fleet::new(Arc::clone(&net), config, Arc::new(mine_service));
    for _ in 0..replicas {
        fleet.add_replica(net.now());
    }
    fleet
        .gossip()
        .sync(replicas + 2)
        .expect("initial mesh converges");
    (net, fleet)
}

struct RunResult {
    /// Per-request prediction; `None` when the fleet shed the arrival.
    outputs: Vec<Option<i64>>,
    sojourns: Vec<Duration>,
    shed: u64,
}

/// Drive `requests` open-loop arrivals through the fleet. Arrival
/// instants are pinned with `set_virtual_time`, so queued predecessors
/// never slow the arrival process — the open-loop regime where closed
/// loops under-report tail latency. Every 32 arrivals the fleet
/// heartbeats and runs one anti-entropy round.
fn drive(net: &Network, fleet: &Fleet, requests: u32) -> RunResult {
    let mut outputs = Vec::with_capacity(requests as usize);
    let mut sojourns = Vec::with_capacity(requests as usize);
    let mut shed = 0u64;
    let mut t = Duration::ZERO;
    for i in 0..requests {
        t += interarrival(ARRIVAL_SEED, i, t);
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
            Ok(v) => {
                sojourns.push(net.virtual_time() - t);
                outputs.push(Some(v.as_int().expect("classify returns a label code")));
            }
            Err(e) if e.is_server_busy() => {
                shed += 1;
                outputs.push(None);
            }
            Err(e) => panic!("unexpected failure at arrival {i}: {e}"),
        }
    }
    RunResult {
        outputs,
        sojourns,
        shed,
    }
}

/// Nearest-rank quantile over raw samples.
fn quantile(sorted: &[Duration], q: f64) -> Duration {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(mut v: Vec<Duration>) -> Vec<Duration> {
    v.sort_unstable();
    v
}

/// Assert two runs agree on every commonly-served request and return
/// how many requests both served.
fn assert_outputs_agree(a: &[Option<i64>], b: &[Option<i64>], what: &str) -> usize {
    assert_eq!(a.len(), b.len());
    let mut common = 0;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if let (Some(x), Some(y)) = (x, y) {
            assert_eq!(x, y, "{what}: request {i} mined different answers");
            common += 1;
        }
    }
    common
}

fn bench(c: &mut Criterion) {
    banner(
        "E19",
        "federated fleet under 2x overload: p99 + shed-rate vs replica count, byte-identical outputs",
    );
    let requests = requests();

    // --- p99 + shed-rate vs replica count. ---------------------------
    let mut p99s = Vec::new();
    let mut sheds = Vec::new();
    let mut runs = Vec::new();
    for &n in replica_counts() {
        let (net, fleet) = fleet_with(n, ROUTING_SEED);
        let run = drive(&net, &fleet, requests);
        let served = sorted(run.sojourns.clone());
        // Perceived latency: every served sojourn plus the fixed
        // retry-later penalty for each shed arrival.
        let mut perceived = run.sojourns.clone();
        perceived.extend((0..run.shed).map(|_| SHED_PENALTY));
        let perceived = sorted(perceived);
        let p99 = quantile(&perceived, 0.99);
        let shed_rate = run.shed as f64 / f64::from(requests);
        println!(
            "{n} replica(s): served {:>5}, shed {:>4} ({:>5.1}%), served p50 {:?} p99 {:?}, perceived p99 {p99:?}, router draws {}",
            served.len(),
            run.shed,
            100.0 * shed_rate,
            quantile(&served, 0.50),
            quantile(&served, 0.99),
            fleet.router().draws(),
        );
        p99s.push(p99);
        sheds.push(run.shed);
        runs.push(run);
    }
    assert!(
        sheds[0] > 0,
        "2x overload against one replica must shed some arrivals"
    );
    for pair in p99s.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "perceived p99 must not degrade as replicas are added: {p99s:?}"
        );
    }
    for pair in sheds.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "shed count must not grow as replicas are added: {sheds:?}"
        );
    }
    assert!(
        *p99s.last().unwrap() < p99s[0],
        "the full fleet must beat one replica's tail: {p99s:?}"
    );
    assert!(
        *sheds.last().unwrap() < sheds[0],
        "the full fleet must shed less than one replica: {sheds:?}"
    );

    // --- Byte-identity: same seed reruns exactly; different replica
    // counts and routing seeds agree on every commonly-served request.
    let (net, fleet) = fleet_with(replica_counts()[1], ROUTING_SEED);
    let rerun = drive(&net, &fleet, requests);
    assert_eq!(
        rerun.outputs, runs[1].outputs,
        "same seeds must replay byte-identically (sheds included)"
    );
    assert_eq!(rerun.shed, runs[1].shed);
    for (i, run) in runs.iter().enumerate().skip(1) {
        let common = assert_outputs_agree(&runs[0].outputs, &run.outputs, "across replica counts");
        assert!(common > 0, "run {i} shares no served requests with run 0");
    }
    let (net, fleet) = fleet_with(replica_counts()[1], ROUTING_SEED ^ 0x5EED);
    let reseeded = drive(&net, &fleet, requests);
    let common = assert_outputs_agree(&runs[1].outputs, &reseeded.outputs, "across routing seeds");
    println!(
        "byte-identity: rerun exact; {} common requests agree across replica counts/seeds",
        common
    );

    // --- Autoscaler across the diurnal cycle. ------------------------
    let (net, fleet) = fleet_with(1, ROUTING_SEED);
    let scaler = Autoscaler::new(AutoscalerConfig {
        min_replicas: 1,
        max_replicas: *replica_counts().last().unwrap(),
        queue_high: 3.0,
        p99_high: Duration::from_millis(8),
        queue_low: 0.5,
        cooldown: Duration::from_millis(100),
    });
    let mut outputs = Vec::new();
    let mut recent: Vec<Duration> = Vec::new();
    let mut shed = 0u64;
    let mut t = Duration::ZERO;
    let mut timeline: Vec<(Duration, usize)> = vec![(t, 1)];
    for i in 0..requests {
        t += interarrival(ARRIVAL_SEED, i, t);
        net.set_virtual_time(t);
        if i % 32 == 0 {
            fleet.heartbeat_all(t);
            fleet.gossip().run_round();
        }
        if i % 50 == 49 {
            let p99 = if recent.is_empty() {
                Duration::ZERO
            } else {
                quantile(&sorted(recent.clone()), 0.99)
            };
            recent.clear();
            if fleet.autoscale_tick(t, &scaler, p99) != ScaleAction::Hold {
                timeline.push((t, fleet.active_replicas().len()));
            }
        }
        match fleet.invoke(
            t,
            "classify",
            vec![("row".into(), SoapValue::Int(i as i64))],
        ) {
            Ok(v) => {
                recent.push(net.virtual_time() - t);
                outputs.push(Some(v.as_int().unwrap()));
            }
            Err(e) if e.is_server_busy() => {
                shed += 1;
                outputs.push(None);
            }
            Err(e) => panic!("autoscaled fleet failed at arrival {i}: {e}"),
        }
    }
    let ups = scaler
        .history()
        .iter()
        .filter(|e| e.action == ScaleAction::Up)
        .count();
    let downs = scaler
        .history()
        .iter()
        .filter(|e| e.action == ScaleAction::Down)
        .count();
    println!(
        "autoscaler: {} scale-ups, {} drains, final {} replica(s), shed {} vs {} static single-replica",
        ups,
        downs,
        fleet.active_replicas().len(),
        shed,
        sheds[0]
    );
    for (at, n) in &timeline {
        println!("  t={at:>12?} -> {n} replica(s)");
    }
    assert!(
        ups > 0,
        "a 2x-overloaded single replica must trigger scale-up"
    );
    assert!(
        shed < sheds[0],
        "autoscaling must shed less than the static single replica ({shed} vs {})",
        sheds[0]
    );
    assert_outputs_agree(&runs[0].outputs, &outputs, "autoscaled vs static");

    // --- Criterion: wall-clock cost of driving the simulated fleet. --
    let mut group = c.benchmark_group("e19_fleet");
    group.bench_function("fleet_4_replicas_512_arrivals", |b| {
        b.iter(|| {
            let (net, fleet) = fleet_with(4, ROUTING_SEED);
            black_box(drive(&net, &fleet, 512))
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

//! E20 — cost- and locality-aware composition planning: the QoS
//! knapsack planner vs. naive-random and round-robin placement under
//! the E14 overload harness on an E19-style four-host fleet.
//!
//! Each arrival is a four-step mining chain — normalise → rank →
//! train → evaluate — where every step reads the *same* ~16 KiB
//! dataset and hands a small hint forward (the Sadeghiram
//! data-intensive regime: heavy shared input, light intermediate
//! results). Every host deploys all four services behind the E14
//! capacity model (2 workers × 2 ms ⇒ μ = 1000 ops/s per host);
//! open-loop Pareto arrivals offer 4 ops every ~2 ms ⇒ 2000 ops/s —
//! 2× one host's capacity — so placement decides who queues.
//!
//! Three strategies bind each chain to hosts:
//!   * planned — `dm_workflow::planner` over a fresh `CostModel`
//!     snapshot per arrival (queue depth, latency tails, shed rate)
//!     with candidates from the gossip registry's live view;
//!   * round-robin — rotate hosts per step, never co-locating;
//!   * random — a seeded uniform host per step.
//!
//! The planner co-locates the chain on the least-loaded host, so the
//! shared dataset crosses the wire once and the remaining steps ride
//! `DataRef` handles; random/round-robin re-ship it. A second phase
//! degrades one host to a quarter of its throughput: the oblivious
//! baselines keep feeding it blind and shed, while the planner prices
//! the queue it can see and routes around. Asserted: planned moves
//! ≥2× fewer wire bytes than both baselines, beats random on perceived
//! p99 and mean makespan (and both baselines on the degraded fleet),
//! replans byte-identically under the same seed, and mines
//! byte-identical outputs across strategies, planner seeds, fleet
//! health, and compute-pool widths 1 and 4.
//!
//! `FAEHIM_E20_SMOKE=1` shrinks the workload for CI smoke runs.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dm_algorithms::classifiers::{Classifier, J48};
use dm_algorithms::pool::{parallel_map, with_threads};
use dm_bench::banner;
use dm_data::corpus::nominal_classification;
use dm_data::Dataset;
use dm_workflow::planner::{Goal, GoalStep, Planner};
use dm_wsrf::container::{CapacityConfig, ServiceFault, WebService};
use dm_wsrf::costmodel::CostModel;
use dm_wsrf::fleet::{splitmix64, GossipConfig, GossipRegistry};
use dm_wsrf::registry::ServiceEntry;
use dm_wsrf::soap::SoapValue;
use dm_wsrf::transport::{DataPlaneConfig, Network, WireStats};
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const HOSTS: [&str; 4] = ["dm-a", "dm-b", "dm-c", "dm-d"];
/// `(service, operation, category)` for the four chain steps.
const STEPS: [(&str, &str, &str); 4] = [
    ("Prep", "normalise", "data-handling"),
    ("Select", "rank", "feature-selection"),
    ("Mine", "train", "classifier"),
    ("Eval", "evaluate", "evaluation"),
];
const WORKERS: usize = 2;
const SERVICE_TIME: Duration = Duration::from_millis(2);
/// Degraded-phase service time for the last host: μ drops to 250 ops/s
/// against the ~500 ops/s an oblivious strategy keeps sending it.
const SLOW_SERVICE_TIME: Duration = Duration::from_millis(8);
const QUEUE_LIMIT: usize = 8;
/// Dataset payload shipped to every step: 1024 × 16 hex chars.
const PAYLOAD_BYTES: usize = 16 * 1024;
/// Mean offered inter-arrival: 4 ops per chain every 2 ms ⇒ 2000 ops/s
/// = 2× one host's μ = workers / service_time = 1000 ops/s.
const BASE_INTERARRIVAL: f64 = 2e-3;
const PARETO_ALPHA: f64 = 1.5;
const ARRIVAL_SEED: u64 = 0xA220;
const PAYLOAD_SEED: u64 = 0xB220;
const PLANNER_SEED: u64 = 0xE20;
/// Client-perceived cost of a shed chain (retry-later), as in E19.
const SHED_PENALTY: Duration = Duration::from_millis(25);
/// Gossip heartbeats are fresh for the whole (≈2 s virtual) run.
const FRESHNESS: Duration = Duration::from_secs(300);

fn smoke() -> bool {
    std::env::var("FAEHIM_E20_SMOKE").is_ok()
}

fn arrivals() -> u32 {
    if smoke() {
        200
    } else {
        800
    }
}

/// FNV-1a over a string: the services' deterministic content hash.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn arg<'a>(args: &'a [(String, SoapValue)], name: &str) -> Result<&'a str, ServiceFault> {
    args.iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| v.as_text().ok())
        .ok_or_else(|| ServiceFault::client(format!("missing {name}")))
}

fn chain_wsdl(service: &str, operation: &str, returns: &str) -> WsdlDocument {
    WsdlDocument::new(service, format!("http://localhost/{service}")).operation(Operation::new(
        operation,
        vec![Part::new("dataset", "string"), Part::new("hint", "string")],
        Part::new("result", returns),
    ))
}

/// Steps 1–2: small deterministic digests of the heavy shared dataset.
struct DigestService {
    service: &'static str,
    operation: &'static str,
    tag: &'static str,
}

impl WebService for DigestService {
    fn name(&self) -> &str {
        self.service
    }

    fn wsdl(&self) -> WsdlDocument {
        chain_wsdl(self.service, self.operation, "string")
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> std::result::Result<SoapValue, ServiceFault> {
        if operation != self.operation {
            return Err(ServiceFault::client(format!("no operation {operation:?}")));
        }
        let digest = fnv1a(arg(args, "dataset")?) ^ fnv1a(arg(args, "hint")?);
        Ok(SoapValue::Text(format!("{}:{digest:016x}", self.tag)))
    }
}

/// Step 3: a J48 trained per host on the same deterministic corpus
/// (every replica holds an identical model) fingerprints the dataset
/// by scoring 64 content-addressed rows through the shared compute
/// pool — the stage the pool-width cross-check leans on.
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
        chain_wsdl("Mine", "train", "string")
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> std::result::Result<SoapValue, ServiceFault> {
        if operation != "train" {
            return Err(ServiceFault::client(format!("no operation {operation:?}")));
        }
        let h = fnv1a(arg(args, "dataset")?) ^ fnv1a(arg(args, "hint")?);
        let rows = self.data.num_instances();
        let labels = parallel_map(64, |k| {
            let row = (splitmix64(h ^ k as u64) as usize) % rows;
            self.model.predict(&self.data, row).unwrap_or(0)
        });
        let digest = labels.iter().enumerate().fold(h, |acc, (k, &l)| {
            splitmix64(acc ^ ((k as u64) << 32) ^ l as u64)
        });
        Ok(SoapValue::Text(format!("model:{digest:016x}")))
    }
}

/// Step 4: folds the dataset and the model fingerprint into the
/// chain's final label — the value the byte-identity checks compare.
struct EvalService;

impl WebService for EvalService {
    fn name(&self) -> &str {
        "Eval"
    }

    fn wsdl(&self) -> WsdlDocument {
        chain_wsdl("Eval", "evaluate", "long")
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> std::result::Result<SoapValue, ServiceFault> {
        if operation != "evaluate" {
            return Err(ServiceFault::client(format!("no operation {operation:?}")));
        }
        let score = splitmix64(fnv1a(arg(args, "dataset")?) ^ fnv1a(arg(args, "hint")?));
        Ok(SoapValue::Int((score >> 1) as i64))
    }
}

/// A per-arrival distinct ~16 KiB dataset (hex text, so envelope
/// escaping cannot inflate it): cross-arrival `DataRef` dedup never
/// fires, only genuine within-chain co-location saves bytes.
fn payload(i: u32) -> String {
    let words = PAYLOAD_BYTES / 16;
    let mut s = String::with_capacity(PAYLOAD_BYTES);
    for k in 0..words {
        let draw = splitmix64(PAYLOAD_SEED ^ (u64::from(i) * words as u64 + k as u64));
        s.push_str(&format!("{draw:016x}"));
    }
    s
}

/// Deterministic heavy-tailed inter-arrival (E19's generator, sans the
/// diurnal ramp): Pareto(α) scaled to the base mean, capped at 50×.
fn interarrival(i: u32) -> Duration {
    let u = ((splitmix64(ARRIVAL_SEED.wrapping_add(u64::from(i))) >> 11) as f64
        / (1u64 << 53) as f64)
        .max(1e-12);
    let x_m = BASE_INTERARRIVAL * (PARETO_ALPHA - 1.0) / PARETO_ALPHA;
    Duration::from_secs_f64((x_m / u.powf(1.0 / PARETO_ALPHA)).min(50.0 * BASE_INTERARRIVAL))
}

/// Four hosts, each deploying the whole chain behind the E14 capacity
/// model, with the data plane on and a converged gossip mesh
/// advertising every replica. With `slow_last`, the final host runs at
/// a quarter throughput — the heterogeneity the planner's telemetry
/// sees and the oblivious baselines cannot.
fn fleet(slow_last: bool) -> (Network, GossipRegistry) {
    let net = Network::new();
    for host in HOSTS {
        let container = net.add_host(host);
        container.deploy(Arc::new(DigestService {
            service: "Prep",
            operation: "normalise",
            tag: "norm",
        }));
        container.deploy(Arc::new(DigestService {
            service: "Select",
            operation: "rank",
            tag: "rank",
        }));
        container.deploy(mine_service());
        container.deploy(Arc::new(EvalService));
        container.set_capacity(Some(CapacityConfig {
            workers: WORKERS,
            queue_limit: Some(QUEUE_LIMIT),
            service_time: if slow_last && host == *HOSTS.last().expect("non-empty fleet") {
                SLOW_SERVICE_TIME
            } else {
                SERVICE_TIME
            },
        }));
    }
    net.enable_data_plane(DataPlaneConfig::default());
    let gossip = GossipRegistry::new(&HOSTS, GossipConfig::default());
    for host in HOSTS {
        let node = gossip.node(host).expect("mesh node");
        for (service, _, category) in STEPS {
            node.publish(
                ServiceEntry {
                    name: service.to_string(),
                    host: host.to_string(),
                    wsdl_url: format!("http://{host}/axis/{service}?wsdl"),
                    categories: vec![category.to_string()],
                    description: String::new(),
                },
                Duration::ZERO,
            );
        }
    }
    gossip
        .sync(HOSTS.len() + 2)
        .expect("initial mesh converges");
    (net, gossip)
}

fn goal() -> Goal {
    Goal {
        steps: STEPS
            .iter()
            .map(|&(_, operation, category)| GoalStep {
                category: category.to_string(),
                operation: operation.to_string(),
                payload_bytes: PAYLOAD_BYTES,
            })
            .collect(),
    }
}

#[derive(Clone, Copy)]
enum Strategy {
    /// QoS knapsack over a fresh telemetry snapshot per arrival.
    Planned { seed: u64 },
    /// Rotate hosts per step: perfectly balanced, never co-located.
    RoundRobin,
    /// Seeded uniform host per step.
    Random { seed: u64 },
}

impl Strategy {
    fn label(&self) -> String {
        match self {
            Strategy::Planned { seed } => format!("planned(seed {seed:#x})"),
            Strategy::RoundRobin => "round-robin".to_string(),
            Strategy::Random { seed } => format!("random(seed {seed:#x})"),
        }
    }
}

#[derive(PartialEq, Eq)]
struct RunResult {
    /// Per-arrival final label; `None` when any step was shed.
    outputs: Vec<Option<i64>>,
    sojourns: Vec<Duration>,
    shed: u64,
    colocated_chains: u64,
    wire: WireStats,
}

/// Bind one arrival's chain to hosts under the given strategy.
fn place(
    strategy: Strategy,
    i: u32,
    goal: &Goal,
    net: &Network,
    gossip: &GossipRegistry,
    now: Duration,
) -> Vec<String> {
    match strategy {
        Strategy::Planned { seed } => {
            // The cost snapshot the planner prices: live queue depths,
            // latency tails, and shed rates — all on the virtual clock.
            let mut cost = CostModel::new();
            cost.observe_monitor(net.monitor());
            cost.observe_loads(&net.load_snapshot());
            for host in HOSTS {
                let container = net.host(host).expect("deployed host");
                if let Some(stats) = container.load_stats(now) {
                    cost.observe_load_stats(host, &stats);
                }
            }
            let view = gossip.node(HOSTS[0]).expect("observer").view_snapshot();
            let candidates =
                |step: &GoalStep| Planner::live_candidates(&view, &step.category, now, FRESHNESS);
            let plan = Planner::seeded(seed)
                .plan(goal, &candidates, &cost, None)
                .expect("a healthy fleet always plans");
            plan.assignments.into_iter().map(|a| a.host).collect()
        }
        // Rotate the chain's starting host per arrival and walk one
        // host per step: uniform per-host load, never co-located, and
        // (unlike a `4·i + j` stride, which degenerates to pinning
        // step j on host j) every host sees every step position.
        Strategy::RoundRobin => (0..STEPS.len())
            .map(|j| HOSTS[(i as usize + j) % HOSTS.len()].to_string())
            .collect(),
        Strategy::Random { seed } => (0..STEPS.len())
            .map(|j| {
                let draw = splitmix64(seed ^ (u64::from(i) * STEPS.len() as u64 + j as u64));
                HOSTS[(draw as usize) % HOSTS.len()].to_string()
            })
            .collect(),
    }
}

/// Drive `arrivals` open-loop chains through a fresh fleet. Arrival
/// instants are pinned with `set_virtual_time` (the E14 open-loop
/// regime); the four steps of one chain run back to back, each
/// shipping the shared dataset plus the previous step's hint.
fn drive(arrivals: u32, strategy: Strategy, slow_last: bool) -> RunResult {
    let (net, gossip) = fleet(slow_last);
    let goal = goal();
    net.reset_wire_stats();
    let mut outputs = Vec::with_capacity(arrivals as usize);
    let mut sojourns = Vec::new();
    let mut shed = 0u64;
    let mut colocated_chains = 0u64;
    let mut t = Duration::ZERO;
    for i in 0..arrivals {
        t += interarrival(i);
        net.set_virtual_time(t);
        if i % 32 == 0 {
            for host in HOSTS {
                let node = gossip.node(host).expect("mesh node");
                for (service, _, _) in STEPS {
                    node.heartbeat(service, host, t);
                }
            }
            gossip.run_round();
        }
        let hosts = place(strategy, i, &goal, &net, &gossip, t);
        if hosts.windows(2).all(|w| w[0] == w[1]) {
            colocated_chains += 1;
        }
        let dataset = payload(i);
        let mut hint = SoapValue::Text(String::new());
        let mut last = None;
        for (j, (service, operation, _)) in STEPS.iter().enumerate() {
            let result = net.invoke(
                &hosts[j],
                service,
                operation,
                vec![
                    ("dataset".into(), SoapValue::Text(dataset.clone())),
                    ("hint".into(), hint.clone()),
                ],
            );
            match result {
                Ok(v) => {
                    last = v.as_int().ok();
                    hint = v;
                }
                Err(e) if e.is_server_busy() => {
                    last = None;
                    break;
                }
                Err(e) => panic!("unexpected failure at arrival {i} step {j}: {e}"),
            }
        }
        match last {
            Some(label) => {
                sojourns.push(net.virtual_time() - t);
                outputs.push(Some(label));
            }
            None => {
                shed += 1;
                outputs.push(None);
            }
        }
    }
    RunResult {
        outputs,
        sojourns,
        shed,
        colocated_chains,
        wire: net.wire_stats(),
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

/// Perceived-latency distribution: served chain makespans plus the
/// fixed retry-later penalty for every shed arrival.
fn perceived(run: &RunResult) -> Vec<Duration> {
    let mut all = run.sojourns.clone();
    all.extend((0..run.shed).map(|_| SHED_PENALTY));
    sorted(all)
}

fn mean(samples: &[Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.iter().sum::<Duration>() / samples.len() as u32
}

fn report(run: &RunResult, arrivals: u32) {
    let served = sorted(run.sojourns.clone());
    let view = perceived(run);
    println!(
        "  served {:>4}, shed {:>3} ({:>4.1}%), co-located {:>4}/{arrivals}, \
         makespan mean {:?} p99 {:?}, perceived p99 {:?}, wire {:.2} MiB (saved {:.2} MiB, {} refs)",
        served.len(),
        run.shed,
        100.0 * run.shed as f64 / f64::from(arrivals),
        run.colocated_chains,
        mean(&served),
        quantile(&served, 0.99),
        quantile(&view, 0.99),
        run.wire.bytes as f64 / (1024.0 * 1024.0),
        run.wire.bytes_saved as f64 / (1024.0 * 1024.0),
        run.wire.ref_substitutions,
    );
}

/// Assert two runs agree on every commonly-served arrival and return
/// how many arrivals both served.
fn assert_outputs_agree(a: &[Option<i64>], b: &[Option<i64>], what: &str) -> usize {
    assert_eq!(a.len(), b.len());
    let mut common = 0;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if let (Some(x), Some(y)) = (x, y) {
            assert_eq!(x, y, "{what}: arrival {i} mined different answers");
            common += 1;
        }
    }
    common
}

fn bench(c: &mut Criterion) {
    banner(
        "E20",
        "QoS knapsack planner vs naive placement: wire bytes + perceived p99 under 2x overload",
    );
    let arrivals = arrivals();

    // --- The three strategies over identical arrivals + payloads. ----
    println!("--- homogeneous fleet ({} hosts) ---", HOSTS.len());
    let planned = drive(arrivals, Strategy::Planned { seed: PLANNER_SEED }, false);
    let rr = drive(arrivals, Strategy::RoundRobin, false);
    let random = drive(arrivals, Strategy::Random { seed: 0x5EED }, false);
    for (strategy, run) in [
        (Strategy::Planned { seed: PLANNER_SEED }.label(), &planned),
        (Strategy::RoundRobin.label(), &rr),
        (Strategy::Random { seed: 0x5EED }.label(), &random),
    ] {
        println!("{strategy}:");
        report(run, arrivals);
    }

    // --- Wire bytes: co-location + DataRef dedup is worth >= 2x. -----
    assert!(
        planned.wire.bytes * 2 <= random.wire.bytes,
        "planned composition must move >= 2x fewer bytes than random placement \
         ({} vs {})",
        planned.wire.bytes,
        random.wire.bytes
    );
    assert!(
        planned.wire.bytes * 2 <= rr.wire.bytes,
        "planned composition must move >= 2x fewer bytes than round-robin \
         ({} vs {})",
        planned.wire.bytes,
        rr.wire.bytes
    );
    assert!(
        planned.wire.bytes_saved > 0 && planned.wire.ref_substitutions > 0,
        "co-located chains must ride DataRef handles"
    );

    // --- Latency: telemetry-led placement beats blind placement. -----
    let planned_p99 = quantile(&perceived(&planned), 0.99);
    let random_p99 = quantile(&perceived(&random), 0.99);
    assert!(
        planned_p99 < random_p99,
        "planned perceived p99 must beat random ({planned_p99:?} vs {random_p99:?})"
    );
    assert!(
        mean(&planned.sojourns) < mean(&random.sojourns),
        "planned mean makespan must beat random ({:?} vs {:?})",
        mean(&planned.sojourns),
        mean(&random.sojourns)
    );
    assert!(
        planned.shed <= random.shed,
        "the planner must not shed more than random placement ({} vs {})",
        planned.shed,
        random.shed
    );

    // --- Heterogeneous fleet: degrade the last host to a quarter of
    // its throughput. Oblivious strategies keep offering it ~2x its
    // new capacity and shed; the planner prices the visible queue and
    // routes the whole chain around it.
    println!("--- degraded fleet ({} at 1/4 throughput) ---", HOSTS[3]);
    let deg_planned = drive(arrivals, Strategy::Planned { seed: PLANNER_SEED }, true);
    let deg_rr = drive(arrivals, Strategy::RoundRobin, true);
    let deg_random = drive(arrivals, Strategy::Random { seed: 0x5EED }, true);
    for (strategy, run) in [
        (
            Strategy::Planned { seed: PLANNER_SEED }.label(),
            &deg_planned,
        ),
        (Strategy::RoundRobin.label(), &deg_rr),
        (Strategy::Random { seed: 0x5EED }.label(), &deg_random),
    ] {
        println!("{strategy}:");
        report(run, arrivals);
    }
    let deg_planned_p99 = quantile(&perceived(&deg_planned), 0.99);
    for (what, run) in [("round-robin", &deg_rr), ("random", &deg_random)] {
        let base_p99 = quantile(&perceived(run), 0.99);
        assert!(
            deg_planned_p99 < base_p99,
            "on a degraded fleet the planner must beat {what} on perceived p99 \
             ({deg_planned_p99:?} vs {base_p99:?})"
        );
        assert!(
            deg_planned.shed <= run.shed,
            "on a degraded fleet the planner must not out-shed {what} ({} vs {})",
            deg_planned.shed,
            run.shed
        );
        assert!(
            deg_planned.wire.bytes * 2 <= run.wire.bytes,
            "the 2x wire-byte margin must survive the degraded fleet vs {what} \
             ({} vs {})",
            deg_planned.wire.bytes,
            run.wire.bytes
        );
    }
    assert_outputs_agree(
        &planned.outputs,
        &deg_planned.outputs,
        "healthy vs degraded fleet",
    );

    // --- Determinism + byte-identical outputs everywhere. ------------
    let rerun = drive(arrivals, Strategy::Planned { seed: PLANNER_SEED }, false);
    assert!(
        rerun == planned,
        "same planner seed must replay byte-identically (outputs, latency, wire)"
    );
    let reseeded = drive(
        arrivals,
        Strategy::Planned {
            seed: PLANNER_SEED ^ 0xFACE,
        },
        false,
    );
    let mut common =
        assert_outputs_agree(&planned.outputs, &reseeded.outputs, "across planner seeds");
    for (what, run) in [("vs round-robin", &rr), ("vs random", &random)] {
        common = common.min(assert_outputs_agree(&planned.outputs, &run.outputs, what));
    }
    assert!(common > 0, "some arrival must be served by every run");

    // --- Pool widths 1 and 4: the mining step fans its scoring batch
    // across the shared compute pool; the virtual clock and every
    // output must not care.
    let narrow = with_threads(1, || {
        drive(arrivals, Strategy::Planned { seed: PLANNER_SEED }, false)
    });
    let wide = with_threads(4, || {
        drive(arrivals, Strategy::Planned { seed: PLANNER_SEED }, false)
    });
    assert!(
        narrow == wide,
        "pool widths 1 and 4 must mine byte-identical runs"
    );
    assert_eq!(
        narrow.outputs, planned.outputs,
        "pool width must not change what the planned composition mines"
    );
    println!(
        "byte-identity: rerun exact; {common} commonly-served arrivals agree across \
         strategies/seeds; pool widths 1 and 4 identical"
    );

    // --- Criterion: wall-clock cost of plan + enact per chain. -------
    let mut group = c.benchmark_group("e20_planner");
    group.bench_function("planned_chain_128_arrivals", |b| {
        b.iter(|| black_box(drive(128, Strategy::Planned { seed: PLANNER_SEED }, false)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

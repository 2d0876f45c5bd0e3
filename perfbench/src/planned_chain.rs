//! `planned_chain`: open-loop arrivals on the virtual clock against an
//! E20-style four-host fleet, driven by one thread.
//!
//! Three arrivals in four, drawn by seed, are a four-step chain
//! (normalise → rank → train → evaluate) in which every step reads the
//! same per-arrival 16 KiB payload and hands a small hint forward: heavy
//! shared input, light intermediate results. Each chain is placed by
//! `Planner::plan` over a fresh `CostModel` snapshot and the gossip
//! view. The rest are single calls, ordered by `P2cRouter::order` over
//! `Network::load_snapshot`.
//!
//! Wall cost per arrival grows with the monitor log every snapshot
//! rescans. A run is therefore a fixed number of sessions of
//! [`SESSION`] arrivals, each on a freshly provisioned fleet with an
//! empty log and a restarted arrival clock: every commit replays the
//! same growth, and the median arrival is sampled in every session
//! rather than in one stretch of the run.
//! Arrivals follow seeded Pareto gaps; every 32nd arrival also sends
//! gossip heartbeats and runs a gossip round.
//!
//! The offered rate is one arrival per 6 ms on average, a third of
//! E20's. At E20's rate the chains' mean virtual sojourn keeps growing
//! with run length, so a tail-latency metric would measure run length
//! rather than placement; at this rate the last tenth of arrivals sees
//! the same mean sojourn as the first, which every run checks.

use crate::replay::{Call, Replayer};
use crate::trace::{SpanId, Tracer};
use crate::{mean, pool_busy, stream, unit, Metric, OpOutcome, Workload};
use dm_algorithms::classifiers::{Classifier, J48};
use dm_algorithms::pool::parallel_map;
use dm_data::corpus::nominal_classification;
use dm_data::Dataset;
use dm_workflow::planner::{Goal, GoalStep, Planner};
use dm_wsrf::container::{CapacityConfig, ServiceFault, WebService};
use dm_wsrf::costmodel::CostModel;
use dm_wsrf::dataplane::fingerprint;
use dm_wsrf::fleet::{splitmix64, GossipConfig, GossipRegistry, P2cRouter};
use dm_wsrf::registry::ServiceEntry;
use dm_wsrf::soap::SoapValue;
use dm_wsrf::transport::{DataPlaneConfig, Network};
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::sync::Arc;
use std::time::Duration;

const HOSTS: [&str; 4] = ["dm-a", "dm-b", "dm-c", "dm-d"];
/// `(service, operation, category)` of the four chain steps.
const STEPS: [(&str, &str, &str); 4] = [
    ("Prep", "normalise", "data-handling"),
    ("Select", "rank", "feature-selection"),
    ("Mine", "train", "classifier"),
    ("Eval", "evaluate", "evaluation"),
];
/// Per-host capacity model (E14/E20): 2 workers × 2 ms, queue of 8.
const CAPACITY: CapacityConfig = CapacityConfig {
    workers: 2,
    queue_limit: Some(8),
    service_time: Duration::from_millis(2),
};
/// Byte bound of every attachment store. A chain only needs its own
/// payload kept; a small bound keeps resident memory off run length.
const STORE_BYTES: usize = 4 << 20;
/// Per-arrival payload shipped to every step.
const PAYLOAD_BYTES: usize = 16 * 1024;
/// Mean offered gap between arrivals, seconds.
pub const MEAN_GAP: f64 = 6e-3;
const PARETO_ALPHA: f64 = 1.5;
/// Share of arrivals that are single calls instead of chains. Single
/// calls take a tenth of a chain's time; kept a minority, they
/// leave the median arrival a chain, so `cpu_ms_p50` reads the planned
/// path. At one half the median falls in the gap between the two kinds
/// and jumps with each seed's draw.
const SINGLE_SHARE: f64 = 0.25;
/// Client-perceived cost of a shed arrival (retry later), as in E19/E20.
const SHED_PENALTY: Duration = Duration::from_millis(25);
/// Gossip heartbeats stay fresh for the whole run.
const FRESHNESS: Duration = Duration::from_secs(3600);
/// Arrivals between gossip rounds.
const GOSSIP_EVERY: u64 = 32;
/// How far the last tenth's mean sojourn may drift from the first
/// tenth's before the offered rate counts as unsustainable.
pub const SOJOURN_DRIFT: f64 = 0.1;
/// Served chains a session needs before a tenth of them is a fair
/// sample.
const MIN_CHAINS_FOR_DRIFT: usize = 500;
/// Arrivals per session.
pub const SESSION: u64 = 1600;

/// FNV-1a: the chain services' deterministic content hash.
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

fn wsdl(service: &str, operation: &str, returns: &str) -> WsdlDocument {
    WsdlDocument::new(service, format!("http://localhost/{service}")).operation(Operation::new(
        operation,
        vec![Part::new("dataset", "string"), Part::new("hint", "string")],
        Part::new("result", returns),
    ))
}

/// Steps 1–2: small digests of the shared payload.
struct Digest {
    service: &'static str,
    operation: &'static str,
}

impl WebService for Digest {
    fn name(&self) -> &str {
        self.service
    }

    fn wsdl(&self) -> WsdlDocument {
        wsdl(self.service, self.operation, "string")
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        if operation != self.operation {
            return Err(ServiceFault::client(format!("no operation {operation:?}")));
        }
        let digest = fnv1a(arg(args, "dataset")?) ^ fnv1a(arg(args, "hint")?);
        Ok(SoapValue::Text(format!("{}:{digest:016x}", self.operation)))
    }
}

/// Step 3: scores 64 content-addressed rows with a J48 trained on a
/// fixed corpus (identical on every host) through the compute pool.
struct Mine {
    model: J48,
    data: Dataset,
}

impl WebService for Mine {
    fn name(&self) -> &str {
        "Mine"
    }

    fn wsdl(&self) -> WsdlDocument {
        wsdl("Mine", "train", "string")
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
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

/// Step 4: folds payload and model fingerprint into the final label.
struct Eval;

impl WebService for Eval {
    fn name(&self) -> &str {
        "Eval"
    }

    fn wsdl(&self) -> WsdlDocument {
        wsdl("Eval", "evaluate", "long")
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        if operation != "evaluate" {
            return Err(ServiceFault::client(format!("no operation {operation:?}")));
        }
        let score = splitmix64(fnv1a(arg(args, "dataset")?) ^ fnv1a(arg(args, "hint")?));
        Ok(SoapValue::Int((score >> 1) as i64))
    }
}

fn services() -> Vec<Arc<dyn WebService>> {
    let data = nominal_classification(200, 4, 3, 2, 0.05, 11);
    let mut model = J48::new();
    model
        .train(&data)
        .expect("J48 trains on the synthetic corpus");
    vec![
        Arc::new(Digest {
            service: "Prep",
            operation: "normalise",
        }),
        Arc::new(Digest {
            service: "Select",
            operation: "rank",
        }),
        Arc::new(Mine { model, data }),
        Arc::new(Eval),
    ]
}

/// Four hosts, each deploying the whole chain behind the capacity
/// model, with the data plane on and a converged gossip mesh.
fn fleet() -> Result<(Network, GossipRegistry), String> {
    let net = Network::new();
    for host in HOSTS {
        let container = net.add_host(host);
        for service in services() {
            container.deploy(service);
        }
        container.set_capacity(Some(CAPACITY));
    }
    net.enable_data_plane(DataPlaneConfig {
        host_store_capacity: STORE_BYTES,
        client_store_capacity: STORE_BYTES,
        ..DataPlaneConfig::default()
    });
    let gossip = GossipRegistry::new(&HOSTS, GossipConfig::default());
    for host in HOSTS {
        let node = gossip.node(host).ok_or("gossip node missing")?;
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
        .ok_or("the gossip mesh did not converge")?;
    Ok((net, gossip))
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

/// One arrival's inputs.
pub struct Arrival {
    at: Duration,
    payload: String,
    /// `Some(step)` for a single call of that chain step.
    single: Option<usize>,
}

/// Seeded arrival schedule and payloads.
struct Schedule {
    seed: u64,
    clock: Duration,
}

impl Schedule {
    fn next(&mut self, i: u64) -> Arrival {
        let gaps = stream(self.seed, 0x400);
        let u = unit(gaps, i).max(1e-12);
        let x_m = MEAN_GAP * (PARETO_ALPHA - 1.0) / PARETO_ALPHA;
        self.clock +=
            Duration::from_secs_f64((x_m / u.powf(1.0 / PARETO_ALPHA)).min(50.0 * MEAN_GAP));
        let bytes = stream(self.seed, 0x500 + i);
        let mut payload = String::with_capacity(PAYLOAD_BYTES);
        for k in 0..(PAYLOAD_BYTES / 16) as u64 {
            payload.push_str(&format!("{:016x}", splitmix64(bytes.wrapping_add(k))));
        }
        let kind = stream(self.seed, 0x600);
        let single = (unit(kind, 2 * i) < SINGLE_SHARE)
            .then(|| (unit(kind, 2 * i + 1) * STEPS.len() as f64) as usize);
        Arrival {
            at: self.clock,
            payload,
            single,
        }
    }
}

/// Run the calls of one arrival on `hosts` (one host per chain step, or
/// the candidate order of a single call). Returns the final value, or
/// `None` when a step was shed; served calls are pushed to `keep`.
fn enact(
    net: &Network,
    arrival: &Arrival,
    hosts: &[String],
    tr: &mut Tracer,
    mut keep: Option<&mut Vec<(Call, SpanId)>>,
) -> Result<Option<SoapValue>, String> {
    let steps: Vec<(usize, Vec<&String>)> = match arrival.single {
        Some(step) => vec![(step, hosts.iter().collect())],
        None => hosts
            .iter()
            .enumerate()
            .map(|(j, h)| (j, vec![h]))
            .collect(),
    };
    let mut hint = SoapValue::Text(String::new());
    for (step, candidates) in steps {
        let (service, operation, _) = STEPS[step];
        let args = || {
            vec![
                (
                    "dataset".to_string(),
                    SoapValue::Text(arrival.payload.clone()),
                ),
                ("hint".to_string(), hint.clone()),
            ]
        };
        let mut served = None;
        for host in candidates {
            let refs = net.wire_stats().ref_substitutions;
            let span = tr.open("transport.invoke", Some(tr.op_span()));
            let result = net.invoke(host, service, operation, args());
            tr.close(span);
            match result {
                Ok(v) => {
                    if let Some(keep) = keep.as_deref_mut() {
                        let mut call = Call::new(service, operation, args(), v.clone());
                        call.by_ref = net.wire_stats().ref_substitutions > refs;
                        keep.push((call, span));
                    }
                    served = Some(v);
                    break;
                }
                Err(e) if e.is_server_busy() => {}
                Err(e) => return Err(format!("{service}.{operation} on {host}: {e}")),
            }
        }
        match served {
            Some(v) => hint = v,
            None => return Ok(None),
        }
    }
    Ok(Some(hint))
}

/// The `planned_chain` workload.
pub struct PlannedChain {
    seed: u64,
    net: Network,
    gossip: GossipRegistry,
    router: P2cRouter,
    goal: Goal,
    schedule: Schedule,
    /// Output fingerprint per arrival; `None` when shed.
    served: Vec<Option<u128>>,
    /// Virtual sojourn of each served chain of this session, ms, in
    /// arrival order.
    chain_ms: Vec<f64>,
    /// Counters of the sessions already closed.
    past: Totals,
    pending: Vec<(Call, SpanId)>,
    snapshot: Option<SpanId>,
    replayer: Option<Replayer>,
    pool_busy_start: Duration,
}

/// Counters summed over closed sessions.
#[derive(Debug, Default)]
struct Totals {
    wire_bytes: u64,
    ref_substitutions: u64,
    queue_wait: Duration,
    admitted: u64,
    monitor_events: usize,
}

/// Total queue wait and admitted calls over the fleet's hosts.
fn queue_totals(net: &Network) -> (Duration, u64) {
    let (mut wait, mut admitted) = (Duration::ZERO, 0);
    for host in HOSTS {
        if let Some(stats) = net
            .host(host)
            .ok()
            .and_then(|c| c.load_stats(net.virtual_time()))
        {
            wait += stats.total_queue_wait;
            admitted += stats.admitted;
        }
    }
    (wait, admitted)
}

/// The offered rate is sustainable: the last tenth of a session's
/// served chains sees the same mean sojourn as the first.
fn check_drift(chain_ms: &[f64]) -> Result<(), String> {
    let n = chain_ms.len();
    if n >= MIN_CHAINS_FOR_DRIFT {
        let first = mean(&chain_ms[..n / 10]);
        let last = mean(&chain_ms[n - n / 10..]);
        if (last / first - 1.0).abs() > SOJOURN_DRIFT {
            return Err(format!(
                "mean chain sojourn drifted from {first:.3} ms (first tenth) to \
                 {last:.3} ms (last tenth): the offered rate is not sustainable"
            ));
        }
    }
    Ok(())
}

impl PlannedChain {
    /// Close the session: check its drift, fold its counters into the
    /// run totals, and provision a fresh fleet for the next one.
    fn next_session(&mut self) -> Result<(), String> {
        check_drift(&self.chain_ms)?;
        self.chain_ms.clear();
        let wire = self.net.wire_stats();
        self.past.wire_bytes += wire.bytes;
        self.past.ref_substitutions += wire.ref_substitutions;
        let (wait, admitted) = queue_totals(&self.net);
        self.past.queue_wait += wait;
        self.past.admitted += admitted;
        self.past.monitor_events += self.net.monitor().len();
        let (net, gossip) = fleet()?;
        net.reset_wire_stats();
        self.net = net;
        self.gossip = gossip;
        self.schedule.clock = Duration::ZERO;
        Ok(())
    }

    fn cost_snapshot(&self, now: Duration) -> CostModel {
        let mut cost = CostModel::new();
        cost.observe_monitor(self.net.monitor());
        cost.observe_loads(&self.net.load_snapshot());
        for host in HOSTS {
            if let Ok(container) = self.net.host(host) {
                if let Some(stats) = container.load_stats(now) {
                    cost.observe_load_stats(host, &stats);
                }
            }
        }
        cost
    }
}

/// Round-robin reference: the same arrivals and sessions on fresh
/// fleets, each chain rotated across hosts and each single call sent to
/// one host.
fn round_robin(seed: u64, arrivals: usize) -> Result<Vec<Option<u128>>, String> {
    let mut net = fleet()?.0;
    let mut schedule = Schedule {
        seed,
        clock: Duration::ZERO,
    };
    let mut out = Vec::with_capacity(arrivals);
    for i in 0..arrivals as u64 {
        if i > 0 && i.is_multiple_of(SESSION) {
            net = fleet()?.0;
            schedule.clock = Duration::ZERO;
        }
        let arrival = schedule.next(i);
        net.set_virtual_time(arrival.at);
        let hosts: Vec<String> = match arrival.single {
            Some(_) => vec![HOSTS[i as usize % HOSTS.len()].to_string()],
            None => (0..STEPS.len())
                .map(|j| HOSTS[(i as usize + j) % HOSTS.len()].to_string())
                .collect(),
        };
        let value = enact(&net, &arrival, &hosts, &mut Tracer::off(), None)?;
        out.push(value.as_ref().map(fingerprint));
    }
    Ok(out)
}

impl Workload for PlannedChain {
    type Input = Arrival;
    const PINNED_OPS: u64 = 2048;
    const OPS: u64 = 6 * SESSION;
    const LAYERS: &'static [&'static str] = &[
        "gossip.round_us",
        "costmodel.snapshot_us",
        "costmodel.snapshot_first_us",
        "costmodel.snapshot_last_us",
        "monitor.summary_us",
        "planner.plan_us",
        "fleet.route_us",
        "transport.invoke_us",
        "transport.unattributed_us",
        "dataplane.hash_us",
        "dataplane.ref_hit_ratio",
        "soap.encode_us",
        "soap.decode_us",
        "soap.kib_per_op",
        "container.dispatch_us",
        "container.queue_wait_vms",
        "handler.invoke_us",
        "pool.busy_frac",
        "monitor.events",
        "unattributed_us",
        "trace.overhead_frac",
    ];

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let (net, gossip) = fleet()?;
        net.reset_wire_stats();
        let replayer = tr.enabled().then(|| {
            Replayer::new(
                services(),
                None,
                Some(DataPlaneConfig::default().inline_threshold),
            )
        });
        Ok(PlannedChain {
            seed,
            net,
            gossip,
            router: P2cRouter::new(stream(seed, 0x700)),
            goal: goal(),
            schedule: Schedule {
                seed,
                clock: Duration::ZERO,
            },
            served: Vec::new(),
            chain_ms: Vec::new(),
            past: Totals::default(),
            pending: Vec::new(),
            snapshot: None,
            replayer,
            pool_busy_start: pool_busy(),
        })
    }

    fn input(&mut self, i: u64) -> Result<Arrival, String> {
        if i > 0 && i.is_multiple_of(SESSION) {
            self.next_session()?;
        }
        Ok(self.schedule.next(i))
    }

    fn op(&mut self, i: u64, arrival: Arrival, tr: &mut Tracer) -> Result<OpOutcome, String> {
        let t = arrival.at;
        self.net.set_virtual_time(t);
        let root = tr.op_span();
        if i.is_multiple_of(GOSSIP_EVERY) {
            let span = tr.open("gossip.round", Some(root));
            for host in HOSTS {
                if let Some(node) = self.gossip.node(host) {
                    for (service, _, _) in STEPS {
                        node.heartbeat(service, host, t);
                    }
                }
            }
            self.gossip.run_round();
            tr.close(span);
        }
        let hosts: Vec<String> = match arrival.single {
            Some(_) => {
                let span = tr.open("fleet.route", Some(root));
                let all: Vec<String> = HOSTS.iter().map(|h| h.to_string()).collect();
                let order = self.router.order(&all, &self.net.load_snapshot());
                tr.close(span);
                order
            }
            None => {
                let span = tr.open("costmodel.snapshot", Some(root));
                let cost = self.cost_snapshot(t);
                tr.close(span);
                self.snapshot = tr.enabled().then_some(span);
                let view = self
                    .gossip
                    .node(HOSTS[0])
                    .ok_or("gossip observer missing")?
                    .view_snapshot();
                let candidates =
                    |step: &GoalStep| Planner::live_candidates(&view, &step.category, t, FRESHNESS);
                let span = tr.open("planner.plan", Some(root));
                let plan = Planner::seeded(stream(self.seed, 0x800))
                    .plan(&self.goal, &candidates, &cost, None)
                    .map_err(|e| format!("arrival {i}: planning failed: {e}"))?;
                tr.close(span);
                plan.assignments.into_iter().map(|a| a.host).collect()
            }
        };
        let keep = tr.enabled().then_some(&mut self.pending);
        let value = enact(&self.net, &arrival, &hosts, tr, keep)
            .map_err(|e| format!("arrival {i}: {e}"))?;
        let sojourn = self.net.virtual_time() - t;
        self.served.push(value.as_ref().map(fingerprint));
        if value.is_some() && arrival.single.is_none() {
            self.chain_ms.push(sojourn.as_secs_f64() * 1e3);
        }
        Ok(OpOutcome {
            virt: if value.is_some() {
                sojourn
            } else {
                SHED_PENALTY
            },
            failed: value.is_none(),
            output: value.as_ref().map_or(0, fingerprint),
            kind: if arrival.single.is_some() {
                "single"
            } else {
                "chain"
            },
        })
    }

    fn replay(&mut self, tr: &mut Tracer) {
        if let Some(snapshot) = self.snapshot.take() {
            // `observe_monitor` summarises the whole log per snapshot.
            tr.time("monitor.summary", snapshot, || {
                self.net.monitor().summary_by_host()
            });
        }
        if let Some(replayer) = &self.replayer {
            for (call, span) in self.pending.drain(..) {
                replayer.replay(&call, span, tr);
            }
        }
    }

    fn wire_bytes(&self) -> u64 {
        self.past.wire_bytes + self.net.wire_stats().bytes
    }

    fn finish(&mut self, ops: u64, elapsed: Duration, tr: &Tracer) -> Result<Vec<Metric>, String> {
        check_drift(&self.chain_ms)?;
        // Read before the reference run below, which uses the pool too.
        let busy = (pool_busy() - self.pool_busy_start).as_secs_f64();
        // Outputs agree with round-robin placement wherever both served.
        let reference = round_robin(self.seed, self.served.len())?;
        let mut common = 0;
        for (i, (a, b)) in self.served.iter().zip(&reference).enumerate() {
            if let (Some(a), Some(b)) = (a, b) {
                if a != b {
                    return Err(format!(
                        "arrival {i}: planned placement mined a different answer than round-robin"
                    ));
                }
                common += 1;
            }
        }
        if common == 0 {
            return Err("no arrival was served by both placements".into());
        }

        let mut out = vec![
            Metric::new(
                "pool.busy_frac",
                busy / (2.0 * elapsed.as_secs_f64()),
                "frac",
            ),
            Metric::new(
                "monitor.events",
                (self.past.monitor_events + self.net.monitor().len()) as f64,
                "count",
            ),
        ];
        if tr.enabled() {
            let eligible = tr.counter("dataplane.eligible").max(1);
            let refs = self.past.ref_substitutions + self.net.wire_stats().ref_substitutions;
            out.push(Metric::new(
                "dataplane.ref_hit_ratio",
                refs as f64 / eligible as f64,
                "ratio",
            ));
            let (wait, admitted) = queue_totals(&self.net);
            out.push(Metric::new(
                "container.queue_wait_vms",
                (self.past.queue_wait + wait).as_secs_f64() * 1e3
                    / (self.past.admitted + admitted).max(1) as f64,
                "vms",
            ));
            // Snapshot cost in the first and last tenth of a session: it
            // grows with the monitor log.
            let snaps = tr.durations_of("costmodel.snapshot");
            let span = ops.min(SESSION);
            let cut = span / 10;
            let us = |keep: &dyn Fn(u64) -> bool| {
                let v: Vec<f64> = snaps
                    .iter()
                    .filter(|(op, _)| keep(op % SESSION))
                    .map(|(_, d)| d.as_secs_f64() * 1e6)
                    .collect();
                mean(&v)
            };
            out.push(Metric::new(
                "costmodel.snapshot_first_us",
                us(&|at| at < cut),
                "us",
            ));
            out.push(Metric::new(
                "costmodel.snapshot_last_us",
                us(&|at| (span - cut..span).contains(&at)),
                "us",
            ));
        }
        Ok(out)
    }
}

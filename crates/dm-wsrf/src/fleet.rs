//! The registry and the federated multi-host fleet (E19): replicated
//! services, a gossiped registry, replica-aware routing, and a
//! simulated autoscaler.
//!
//! The paper's deployment was one host at the Welsh e-Science Centre;
//! DAME (PAPERS.md) is the exemplar for the *federated* version of the
//! same idea — mining services replicated across an organisation's
//! hosts, discovered through partial views rather than one
//! authoritative registry. This module promotes the PR 4
//! single-`Network` world into such a fleet:
//!
//! - **Gossip registry** ([`GossipRegistry`]): every host runs a
//!   [`GossipNode`] holding a *partial view* of the fleet's replicas.
//!   Entries are [`ReplicaRecord`]s carrying a version counter and the
//!   virtual-clock instant of their last heartbeat; deregistration is a
//!   *tombstone* that propagates like any other update, so a drained
//!   replica disappears from every view without a central authority.
//!   Views converge by push-pull anti-entropy rounds over a seeded,
//!   deterministic peer choice (a ring edge plus random fanout, so
//!   convergence is bounded by the ring diameter and typically
//!   logarithmic). A lone node is an authoritative UDDI registry: the
//!   toolkit publishes its whole deployment into one and inquires it
//!   by name and category.
//! - **Replica-aware routing** ([`P2cRouter`]): power-of-two-choices
//!   over [`Network::load_snapshot`] — draw two candidate replicas with
//!   a seeded deterministic generator, send the call to the less loaded
//!   one. Replicas the snapshot has never measured are treated as
//!   *unknown*, ranked after lightly-loaded measured replicas instead
//!   of winning every draw (the cold-replica stampede).
//! - **Autoscaler** ([`Autoscaler`]): adds or drains replicas from
//!   queue-depth and p99 signals sampled on the virtual clock, with a
//!   cooldown so one burst does not thrash the fleet.
//! - **[`Fleet`]**: glues the above to a [`Network`] — provisions
//!   replica hosts with the E14 capacity model, joins them to the
//!   gossip mesh, heartbeats them, and routes invocations with
//!   health-aware failover across the ordered replicas (the paper's
//!   job migration, fleet-sized, through the same
//!   [`failover`](crate::resilience::failover) loop workflow tools use).
//!
//! Everything runs on the virtual clock and every random choice is
//! seeded, so fleet runs are byte-identical given the same seed —
//! which is what lets E19 pin p99 and shed-rate against replica count.

use crate::container::{CapacityConfig, WebService};
use crate::error::{Result, WsError};
use crate::registry::ServiceEntry;
use crate::resilience::{failover, Failover};
use crate::soap::SoapValue;
use crate::transport::Network;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64: the deterministic generator behind every fleet choice
/// (gossip peers, power-of-two draws, tie-breaks). One stateless
/// function of a counter, so replaying the same seed replays the same
/// sequence regardless of what else the process is doing.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One replica as a gossip view sees it: the published entry plus the
/// metadata anti-entropy needs to order concurrent updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaRecord {
    /// The published service entry (`entry.host` is the replica host).
    pub entry: ServiceEntry,
    /// Version counter, bumped by the origin on every mutation
    /// (publish, heartbeat, deregister). Higher version wins a merge.
    pub version: u64,
    /// Virtual instant of the last heartbeat at the origin.
    pub heartbeat_at: Duration,
    /// Deregistration marker. Tombstones propagate like live records
    /// and win merges at equal version, so a drain is never resurrected
    /// by a stale copy arriving later.
    pub tombstone: bool,
}

impl ReplicaRecord {
    /// The view key: one record per `(service, host)` replica.
    pub fn key(&self) -> String {
        replica_key(&self.entry.name, &self.entry.host)
    }

    /// Whether the replica serves at `now`: not tombstoned and
    /// heartbeated within `freshness`, start-inclusive and
    /// end-exclusive, so a heartbeat aged exactly `freshness` is
    /// already stale.
    pub fn is_live(&self, now: Duration, freshness: Duration) -> bool {
        !self.tombstone && now.saturating_sub(self.heartbeat_at) < freshness
    }

    /// Merge precedence: higher version wins; at equal version a
    /// tombstone beats a live record (deregistration is sticky), and a
    /// fresher heartbeat beats a staler one.
    fn supersedes(&self, other: &ReplicaRecord) -> bool {
        (self.version, self.tombstone, self.heartbeat_at)
            > (other.version, other.tombstone, other.heartbeat_at)
    }
}

/// View key for one replica of `service` on `host`.
pub fn replica_key(service: &str, host: &str) -> String {
    format!("{service}@{host}")
}

/// One host's partial view of the fleet.
#[derive(Debug, Default)]
pub struct GossipNode {
    host: String,
    view: RwLock<HashMap<String, ReplicaRecord>>,
}

impl GossipNode {
    /// A node for `host` with an empty view.
    pub fn new<H: Into<String>>(host: H) -> GossipNode {
        GossipNode {
            host: host.into(),
            view: RwLock::new(HashMap::new()),
        }
    }

    /// The host this node runs on.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Publish (or re-publish) a replica into this node's view with a
    /// fresh heartbeat. Bumps the version past whatever the view holds,
    /// so a re-publish revives even a tombstoned replica.
    pub fn publish(&self, entry: ServiceEntry, now: Duration) {
        let key = replica_key(&entry.name, &entry.host);
        let mut view = self.view.write();
        let version = view.get(&key).map_or(1, |r| r.version + 1);
        view.insert(
            key,
            ReplicaRecord {
                entry,
                version,
                heartbeat_at: now,
                tombstone: false,
            },
        );
    }

    /// Record a heartbeat for a live replica; returns whether the view
    /// held one. Tombstoned replicas do not heartbeat (a drained host
    /// must re-publish to rejoin).
    pub fn heartbeat(&self, service: &str, host: &str, now: Duration) -> bool {
        let mut view = self.view.write();
        match view.get_mut(&replica_key(service, host)) {
            Some(record) if !record.tombstone => {
                record.version += 1;
                record.heartbeat_at = now;
                true
            }
            _ => false,
        }
    }

    /// Tombstone a replica (deregistration). The tombstone carries a
    /// bumped version so it propagates through gossip and wins merges
    /// against every stale live copy.
    pub fn deregister(&self, service: &str, host: &str, now: Duration) -> bool {
        let mut view = self.view.write();
        match view.get_mut(&replica_key(service, host)) {
            Some(record) => {
                record.version += 1;
                record.tombstone = true;
                record.heartbeat_at = now;
                true
            }
            None => false,
        }
    }

    /// Live replicas of `service` at `now` (see
    /// [`ReplicaRecord::is_live`]). Sorted by host, so every converged
    /// node answers in the same order.
    pub fn live_replicas(
        &self,
        service: &str,
        now: Duration,
        freshness: Duration,
    ) -> Vec<ServiceEntry> {
        let mut hits: Vec<ServiceEntry> = self
            .view
            .read()
            .values()
            .filter(|r| r.entry.name == service && r.is_live(now, freshness))
            .map(|r| r.entry.clone())
            .collect();
        hits.sort_by(|a, b| a.host.cmp(&b.host));
        hits
    }

    /// Hosts of the live replicas of `service` (see
    /// [`live_replicas`](Self::live_replicas)).
    pub fn live_hosts(&self, service: &str, now: Duration, freshness: Duration) -> Vec<String> {
        self.live_replicas(service, now, freshness)
            .into_iter()
            .map(|e| e.host)
            .collect()
    }

    /// Number of records in the view, tombstones included.
    pub fn view_len(&self) -> usize {
        self.view.read().len()
    }

    /// A copy of the whole view (what a push-pull exchange ships).
    pub fn view_snapshot(&self) -> Vec<ReplicaRecord> {
        self.view.read().values().cloned().collect()
    }

    /// Canonical digest of the view for convergence checks: sorted
    /// `(key, version, tombstone)` triples.
    pub fn digest(&self) -> Vec<(String, u64, bool)> {
        let mut digest: Vec<(String, u64, bool)> = self
            .view
            .read()
            .iter()
            .map(|(k, r)| (k.clone(), r.version, r.tombstone))
            .collect();
        digest.sort();
        digest
    }

    /// Merge incoming records: each replaces the local copy only when
    /// it supersedes it. Returns the number applied.
    pub fn merge(&self, records: &[ReplicaRecord]) -> usize {
        let mut view = self.view.write();
        let mut applied = 0;
        for record in records {
            let key = record.key();
            let replace = match view.get(&key) {
                None => true,
                Some(local) => record.supersedes(local),
            };
            if replace {
                view.insert(key, record.clone());
                applied += 1;
            }
        }
        applied
    }
}

/// Anti-entropy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Random peers each node pushes-pulls with per round, in addition
    /// to its ring successor.
    pub fanout: usize,
    /// Seed for the deterministic peer choice.
    pub seed: u64,
    /// Heartbeat freshness horizon for liveness.
    pub freshness: Duration,
}

impl Default for GossipConfig {
    fn default() -> GossipConfig {
        GossipConfig {
            fanout: 2,
            seed: 0xE19,
            freshness: Duration::from_secs(30),
        }
    }
}

/// The fleet's sharded registry: one [`GossipNode`] per member host,
/// synchronised by deterministic push-pull anti-entropy rounds. There
/// is no authoritative copy — any node answers inquiries from its own
/// (possibly stale) view, and [`run_round`](Self::run_round) drives
/// the views together.
pub struct GossipRegistry {
    nodes: RwLock<Vec<Arc<GossipNode>>>,
    config: GossipConfig,
    round: AtomicU64,
}

impl GossipRegistry {
    /// A registry whose mesh members are `hosts`.
    pub fn new(hosts: &[&str], config: GossipConfig) -> GossipRegistry {
        GossipRegistry {
            nodes: RwLock::new(
                hosts
                    .iter()
                    .map(|h| Arc::new(GossipNode::new(*h)))
                    .collect(),
            ),
            config,
            round: AtomicU64::new(0),
        }
    }

    /// The anti-entropy configuration.
    pub fn config(&self) -> GossipConfig {
        self.config
    }

    /// Add a host's node to the mesh (idempotent), returning it.
    pub fn add_node(&self, host: &str) -> Arc<GossipNode> {
        let mut nodes = self.nodes.write();
        if let Some(node) = nodes.iter().find(|n| n.host() == host) {
            return Arc::clone(node);
        }
        let node = Arc::new(GossipNode::new(host));
        nodes.push(Arc::clone(&node));
        node
    }

    /// The node gossiping on `host`, if it is a mesh member.
    pub fn node(&self, host: &str) -> Option<Arc<GossipNode>> {
        self.nodes.read().iter().find(|n| n.host() == host).cloned()
    }

    /// All mesh nodes, in join order.
    pub fn nodes(&self) -> Vec<Arc<GossipNode>> {
        self.nodes.read().clone()
    }

    /// Anti-entropy rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// One anti-entropy round: every node push-pulls its full view with
    /// its ring successor plus `fanout` seeded-random peers. The ring
    /// edge guarantees any update reaches all N nodes within N − 1
    /// rounds even at fanout 0; the random edges make the typical case
    /// logarithmic. Returns the number of record replacements applied
    /// across the mesh (0 means the round found every view identical).
    pub fn run_round(&self) -> usize {
        let nodes = self.nodes.read().clone();
        let n = nodes.len();
        if n < 2 {
            self.round.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        let round = self.round.fetch_add(1, Ordering::Relaxed);
        let mut applied = 0;
        for (i, node) in nodes.iter().enumerate() {
            // Ring successor first, then the seeded random peers.
            let mut peers = vec![(i + 1) % n];
            for k in 0..self.config.fanout {
                let draw = splitmix64(
                    self.config
                        .seed
                        .wrapping_add(round.wrapping_mul(0x9E37))
                        .wrapping_add((i as u64) << 24)
                        .wrapping_add(k as u64),
                );
                let peer = (draw % (n as u64 - 1)) as usize;
                // Skip over self: peers draw from the other n-1 nodes.
                let peer = if peer >= i { peer + 1 } else { peer };
                if !peers.contains(&peer) {
                    peers.push(peer);
                }
            }
            for peer in peers {
                let other = &nodes[peer];
                // Push-pull: both sides end the exchange with the union
                // of the two views under the merge precedence.
                applied += other.merge(&node.view_snapshot());
                applied += node.merge(&other.view_snapshot());
            }
        }
        applied
    }

    /// Whether every node currently holds an identical view.
    pub fn converged(&self) -> bool {
        let nodes = self.nodes.read();
        let Some(first) = nodes.first() else {
            return true;
        };
        let digest = first.digest();
        nodes.iter().skip(1).all(|n| n.digest() == digest)
    }

    /// Run rounds until the mesh converges, up to `max_rounds`.
    /// Returns the rounds it took, or `None` if the bound was hit
    /// first.
    pub fn sync(&self, max_rounds: usize) -> Option<usize> {
        for used in 0..=max_rounds {
            if self.converged() {
                return Some(used);
            }
            if used == max_rounds {
                break;
            }
            self.run_round();
        }
        None
    }
}

/// Effective load of every candidate for ranking: measured hosts keep
/// their snapshot figure; hosts the snapshot has never measured are
/// *unknown* and take the lower median of the measured loads, ranked
/// after measured hosts at the same figure. This is the anti-stampede
/// rule: a cold replica joins the rotation at a typical load instead
/// of winning every draw with a fictitious 0.
fn effective_loads(candidates: &[String], loads: &HashMap<String, u64>) -> Vec<(u64, bool)> {
    let mut measured: Vec<u64> = candidates
        .iter()
        .filter_map(|h| loads.get(h).copied())
        .collect();
    measured.sort_unstable();
    let unknown = measured
        .get(measured.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0);
    candidates
        .iter()
        .map(|h| match loads.get(h) {
            Some(&load) => (load, false),
            None => (unknown, true),
        })
        .collect()
}

/// Power-of-two-choices replica router. Each call draws two distinct
/// candidates from a seeded deterministic sequence and routes to the
/// less loaded of the pair (ties broken by another seeded bit), which
/// is within a constant of least-loaded routing while sampling only
/// two queue depths — the classic "power of two choices" result. A
/// host's load is its in-system count at the snapshot's virtual
/// instant ([`Network::load_snapshot`]), so a choice depends on the
/// virtual clock and the draw counter alone.
///
/// The draw counter makes consecutive calls from one driver thread a
/// reproducible sequence; concurrent callers still get valid draws,
/// but the interleaving (and hence the per-call choices) follows the
/// callers' scheduling. Byte-identical *routing sequences* therefore
/// hold for sequential drivers, while byte-identical *results* hold
/// regardless because every replica serves the same pure operations.
#[derive(Debug)]
pub struct P2cRouter {
    seed: u64,
    draws: AtomicU64,
}

impl P2cRouter {
    /// A router with a fixed seed.
    pub fn new(seed: u64) -> P2cRouter {
        P2cRouter {
            seed,
            draws: AtomicU64::new(0),
        }
    }

    /// The routing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Calls routed so far.
    pub fn draws(&self) -> u64 {
        self.draws.load(Ordering::Relaxed)
    }

    /// Order `candidates` for one call: the power-of-two winner first,
    /// then every other candidate by ascending effective load (unknown
    /// after measured, host name as the total-order tie-break) as the
    /// failover sequence. Candidates are consumed in the given order;
    /// pass a deterministically ordered slice (e.g. a converged gossip
    /// view's host-sorted answer) for reproducible routing.
    pub fn order(&self, candidates: &[String], loads: &HashMap<String, u64>) -> Vec<String> {
        let n = candidates.len();
        let draw = self.draws.fetch_add(1, Ordering::Relaxed);
        if n <= 1 {
            return candidates.to_vec();
        }
        let eff = effective_loads(candidates, loads);
        let r = splitmix64(self.seed.wrapping_add(draw.wrapping_mul(0x9E37_79B9)));
        let i = (r % n as u64) as usize;
        let j = {
            let step = 1 + ((r >> 24) % (n as u64 - 1)) as usize;
            (i + step) % n
        };
        // Less loaded of the two wins; a dead-even pair is split by a
        // seeded coin so repeated ties don't always favour one side.
        let winner = match eff[i].cmp(&eff[j]) {
            std::cmp::Ordering::Less => i,
            std::cmp::Ordering::Greater => j,
            std::cmp::Ordering::Equal => {
                if (r >> 60) & 1 == 0 {
                    i
                } else {
                    j
                }
            }
        };
        let mut rest: Vec<usize> = (0..n).filter(|&k| k != winner).collect();
        rest.sort_by(|&a, &b| {
            eff[a]
                .cmp(&eff[b])
                .then_with(|| candidates[a].cmp(&candidates[b]))
        });
        std::iter::once(winner)
            .chain(rest)
            .map(|k| candidates[k].clone())
            .collect()
    }
}

/// What the autoscaler decided at a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Add a replica.
    Up,
    /// Drain (tombstone) a replica.
    Down,
    /// Leave the fleet as it is.
    Hold,
}

/// Autoscaler thresholds. Signals are sampled by the driver on the
/// virtual clock: queue depth per replica comes from
/// [`Network::load_snapshot`], p99 from the driver's own sojourn
/// samples (the monitor's per-host p99 works too).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Never drain below this many replicas.
    pub min_replicas: usize,
    /// Never grow beyond this many replicas.
    pub max_replicas: usize,
    /// Scale up when mean in-system requests per replica exceed this.
    pub queue_high: f64,
    /// ... or when the sampled p99 exceeds this.
    pub p99_high: Duration,
    /// Drain when queue depth per replica falls below this *and* p99
    /// sits below half of `p99_high`.
    pub queue_low: f64,
    /// Minimum virtual time between scale actions (anti-thrash).
    pub cooldown: Duration,
}

impl Default for AutoscalerConfig {
    fn default() -> AutoscalerConfig {
        AutoscalerConfig {
            min_replicas: 1,
            max_replicas: 16,
            queue_high: 4.0,
            p99_high: Duration::from_millis(20),
            queue_low: 1.0,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// One logged autoscaler decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Virtual instant of the tick.
    pub at: Duration,
    /// The decision.
    pub action: ScaleAction,
    /// Replica count *before* the action was applied.
    pub replicas: usize,
    /// Mean in-system requests per replica at the tick.
    pub queue_per_replica: f64,
    /// Sampled p99 at the tick.
    pub p99: Duration,
}

/// Queue-depth + p99 driven scaler on the virtual clock.
#[derive(Debug)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    last_action_at: Mutex<Option<Duration>>,
    log: Mutex<Vec<ScaleEvent>>,
}

impl Autoscaler {
    /// A scaler with the given thresholds.
    pub fn new(config: AutoscalerConfig) -> Autoscaler {
        Autoscaler {
            config,
            last_action_at: Mutex::new(None),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The thresholds in force.
    pub fn config(&self) -> AutoscalerConfig {
        self.config
    }

    /// Decide at virtual instant `now` with `replicas` active, a mean
    /// of `queue_per_replica` requests in system per replica, and a
    /// sampled `p99`. Up/Down decisions are logged and start the
    /// cooldown; Holds inside the cooldown window are not logged.
    pub fn decide(
        &self,
        now: Duration,
        replicas: usize,
        queue_per_replica: f64,
        p99: Duration,
    ) -> ScaleAction {
        let mut last = self.last_action_at.lock();
        if let Some(at) = *last {
            if now.saturating_sub(at) < self.config.cooldown {
                return ScaleAction::Hold;
            }
        }
        let c = &self.config;
        let action = if (queue_per_replica > c.queue_high || p99 > c.p99_high)
            && replicas < c.max_replicas
        {
            ScaleAction::Up
        } else if queue_per_replica < c.queue_low
            && p99 < c.p99_high / 2
            && replicas > c.min_replicas
        {
            ScaleAction::Down
        } else {
            ScaleAction::Hold
        };
        if action != ScaleAction::Hold {
            *last = Some(now);
        }
        self.log.lock().push(ScaleEvent {
            at: now,
            action,
            replicas,
            queue_per_replica,
            p99,
        });
        action
    }

    /// Every logged decision, in tick order.
    pub fn history(&self) -> Vec<ScaleEvent> {
        self.log.lock().clone()
    }
}

/// How a [`Fleet`] provisions one replicated service.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The replicated service's name (and gossip inquiry key).
    pub service: String,
    /// Replica hosts are named `{host_prefix}-{n}`.
    pub host_prefix: String,
    /// E14 capacity model installed on every replica host.
    pub capacity: CapacityConfig,
    /// Anti-entropy parameters for the fleet's registry.
    pub gossip: GossipConfig,
    /// Seed of the power-of-two-choices router.
    pub routing_seed: u64,
}

impl FleetConfig {
    /// A config for `service` with defaults everywhere else.
    pub fn new<S: Into<String>>(service: S) -> FleetConfig {
        let service = service.into();
        FleetConfig {
            host_prefix: format!("fleet-{}", service.to_ascii_lowercase()),
            service,
            capacity: CapacityConfig::default(),
            gossip: GossipConfig::default(),
            routing_seed: 0xE19,
        }
    }
}

/// Builds a fresh instance of the replicated service for each replica
/// host (each replica gets its own state, as separate deployments
/// would).
pub type ServiceFactory = Arc<dyn Fn() -> Arc<dyn WebService> + Send + Sync>;

/// A replicated service on a simulated multi-host fleet: provisions
/// replica hosts on the [`Network`] with the E14 capacity model, joins
/// each to the gossip mesh, heartbeats them, routes invocations with
/// power-of-two-choices, and fails over across the ordered replicas.
pub struct Fleet {
    network: Arc<Network>,
    config: FleetConfig,
    factory: ServiceFactory,
    gossip: Arc<GossipRegistry>,
    router: P2cRouter,
    active: Mutex<Vec<String>>,
    spawned: AtomicU64,
    last_served: Mutex<Option<String>>,
}

impl Fleet {
    /// A fleet with no replicas yet. `factory` builds the service
    /// instance deployed on each replica host.
    pub fn new(network: Arc<Network>, config: FleetConfig, factory: ServiceFactory) -> Fleet {
        let gossip = Arc::new(GossipRegistry::new(&[], config.gossip));
        Fleet {
            router: P2cRouter::new(config.routing_seed),
            network,
            config,
            factory,
            gossip,
            active: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
            last_served: Mutex::new(None),
        }
    }

    /// The fleet's gossiped registry.
    pub fn gossip(&self) -> &GossipRegistry {
        &self.gossip
    }

    /// The fleet's router.
    pub fn router(&self) -> &P2cRouter {
        &self.router
    }

    /// Hosts currently serving (not drained), in provisioning order.
    pub fn active_replicas(&self) -> Vec<String> {
        self.active.lock().clone()
    }

    /// The replica that served the most recent successful
    /// [`invoke`](Self::invoke).
    pub fn last_served(&self) -> Option<String> {
        self.last_served.lock().clone()
    }

    /// Provision one replica at virtual instant `now`: add the host,
    /// deploy a fresh service instance, install the capacity model,
    /// join the gossip mesh, and publish + heartbeat the replica on its
    /// own node (the partial view the rest of the mesh will pull).
    /// Returns the new host's name.
    pub fn add_replica(&self, now: Duration) -> String {
        let id = self.spawned.fetch_add(1, Ordering::Relaxed);
        let host = format!("{}-{id}", self.config.host_prefix);
        let container = self.network.add_host(&host);
        container.deploy((self.factory)());
        container.set_capacity(Some(self.config.capacity));
        let node = self.gossip.add_node(&host);
        node.publish(
            ServiceEntry {
                name: self.config.service.clone(),
                host: host.clone(),
                wsdl_url: format!("http://{host}/axis/{}?wsdl", self.config.service),
                categories: vec!["datamining".into(), "fleet".into()],
                description: format!("fleet replica {id} of {}", self.config.service),
            },
            now,
        );
        self.active.lock().push(host.clone());
        host
    }

    /// Drain the most recently provisioned active replica: tombstone it
    /// on its own gossip node (the deregistration propagates with the
    /// next rounds) and stop routing to it. The host and its container
    /// stay up to finish in-flight work. Returns the drained host.
    pub fn drain_replica(&self, now: Duration) -> Option<String> {
        let host = self.active.lock().pop()?;
        if let Some(node) = self.gossip.node(&host) {
            node.deregister(&self.config.service, &host, now);
        }
        Some(host)
    }

    /// Heartbeat every active replica on its own gossip node at `now`.
    pub fn heartbeat_all(&self, now: Duration) {
        for host in self.active.lock().iter() {
            if let Some(node) = self.gossip.node(host) {
                node.heartbeat(&self.config.service, host, now);
            }
        }
    }

    /// Route one call at `now`: inquire a seeded-chosen gossip node's
    /// partial view for live replicas (so routing sees exactly what a
    /// real member would, staleness included), then order them
    /// power-of-two-choices over the network's load snapshot. The
    /// first host is the pick; the rest are the failover sequence.
    pub fn route(&self, now: Duration) -> Vec<String> {
        let nodes = self.gossip.nodes();
        if nodes.is_empty() {
            return Vec::new();
        }
        // Consult the node a seeded draw lands on — a different member
        // each call, like real clients spread across the mesh.
        let pick = splitmix64(
            self.config
                .routing_seed
                .wrapping_add(0xC0FFEE)
                .wrapping_add(self.router.draws()),
        ) % nodes.len() as u64;
        let candidates = nodes[pick as usize].live_hosts(
            &self.config.service,
            now,
            self.config.gossip.freshness,
        );
        self.router
            .order(&candidates, &self.network.load_snapshot())
    }

    /// Invoke `operation` on the fleet at `now`: route, then
    /// [`failover`] across the ordered replicas, migrating past
    /// transport failures and saturated (`ServerBusy`) hosts. Application
    /// faults surface immediately; when every replica fails, the last
    /// one's error does.
    pub fn invoke(
        &self,
        now: Duration,
        operation: &str,
        args: Vec<(String, SoapValue)>,
    ) -> Result<SoapValue> {
        let hosts = self.route(now);
        let call = |host: &str| {
            self.network
                .invoke(host, &self.config.service, operation, args.clone())
        };
        match failover(&hosts, call, WsError::is_retryable) {
            Failover::Served { index, value } => {
                *self.last_served.lock() = Some(hosts[index].clone());
                Ok(value)
            }
            Failover::Stopped(err) => Err(err),
            Failover::Exhausted(tried) => Err(match tried.into_iter().last() {
                Some((_, err)) => err,
                None => WsError::NotFound(format!(
                    "no live replicas of {:?} in the gossip view",
                    self.config.service
                )),
            }),
        }
    }

    /// One autoscaler tick at `now`: sample mean in-system depth per
    /// active replica from the load snapshot, let `scaler` decide with
    /// the driver-sampled `p99`, and apply the action (provision or
    /// drain). Returns the decision.
    pub fn autoscale_tick(&self, now: Duration, scaler: &Autoscaler, p99: Duration) -> ScaleAction {
        let replicas = self.active_replicas();
        let loads = self.network.load_snapshot();
        let depth: u64 = replicas
            .iter()
            .map(|h| loads.get(h).copied().unwrap_or(0))
            .sum();
        let queue_per_replica = if replicas.is_empty() {
            0.0
        } else {
            depth as f64 / replicas.len() as f64
        };
        let action = scaler.decide(now, replicas.len(), queue_per_replica, p99);
        match action {
            ScaleAction::Up => {
                self.add_replica(now);
            }
            ScaleAction::Down => {
                self.drain_replica(now);
            }
            ScaleAction::Hold => {}
        }
        action
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("service", &self.config.service)
            .field("active", &self.active_replicas())
            .field("rounds", &self.gossip.rounds())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(service: &str, host: &str) -> ServiceEntry {
        ServiceEntry {
            name: service.to_string(),
            host: host.to_string(),
            wsdl_url: format!("http://{host}/axis/{service}?wsdl"),
            categories: vec!["datamining".into()],
            description: String::new(),
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Low-entropy counters still spread across the range.
        let a = splitmix64(0) % 1000;
        let b = splitmix64(1) % 1000;
        assert_ne!(a, b);
    }

    #[test]
    fn merge_precedence_version_then_tombstone_then_heartbeat() {
        let node = GossipNode::new("a");
        node.publish(entry("Mine", "h1"), Duration::from_secs(1));
        let base = node.view_snapshot().pop().unwrap();

        // Higher version always wins.
        let mut newer = base.clone();
        newer.version += 1;
        newer.heartbeat_at = Duration::ZERO;
        assert_eq!(node.merge(&[newer.clone()]), 1);
        // Same version: a stale copy does not reapply.
        assert_eq!(node.merge(&[newer.clone()]), 0);
        // Same version, tombstone wins.
        let mut dead = newer.clone();
        dead.tombstone = true;
        assert_eq!(node.merge(&[dead.clone()]), 1);
        // The live copy at the same version cannot resurrect it.
        assert_eq!(node.merge(&[newer]), 0);
        // Same version + tombstone, fresher heartbeat wins.
        let mut fresher = dead;
        fresher.heartbeat_at += Duration::from_secs(5);
        assert_eq!(node.merge(&[fresher]), 1);
    }

    #[test]
    fn gossip_converges_and_tombstones_propagate() {
        let hosts = ["h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"];
        let reg = GossipRegistry::new(&hosts, GossipConfig::default());
        let now = Duration::from_secs(1);
        // Each node learns only of its own replica.
        for host in hosts {
            reg.node(host).unwrap().publish(entry("Mine", host), now);
        }
        assert!(!reg.converged());
        // The ring edge alone bounds convergence by N-1 rounds; with
        // fanout 2 push-pull it's far faster.
        let rounds = reg
            .sync(hosts.len())
            .expect("must converge within N rounds");
        assert!(rounds >= 1);
        for host in hosts {
            let view = reg.node(host).unwrap();
            assert_eq!(view.view_len(), hosts.len());
            assert_eq!(
                view.live_hosts("Mine", now, Duration::from_secs(30)).len(),
                8
            );
        }

        // Deregister on ONE node; the tombstone reaches every view.
        reg.node("h3")
            .unwrap()
            .deregister("Mine", "h3", now + Duration::from_secs(1));
        reg.sync(hosts.len())
            .expect("tombstone propagation converges");
        for host in hosts {
            let live = reg
                .node(host)
                .unwrap()
                .live_hosts("Mine", now, Duration::from_secs(30));
            assert_eq!(
                live.len(),
                7,
                "node {host} still routes to the drained replica"
            );
            assert!(!live.contains(&"h3".to_string()));
        }
    }

    #[test]
    fn gossip_rounds_are_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let hosts = ["a", "b", "c", "d", "e"];
            let reg = GossipRegistry::new(
                &hosts,
                GossipConfig {
                    seed,
                    ..GossipConfig::default()
                },
            );
            for host in hosts {
                reg.node(host)
                    .unwrap()
                    .publish(entry("Mine", host), Duration::from_secs(1));
            }
            let mut deltas = Vec::new();
            for _ in 0..4 {
                deltas.push(reg.run_round());
            }
            (deltas, reg.node("a").unwrap().digest())
        };
        assert_eq!(run(7), run(7));
        let (deltas_a, _) = run(7);
        let (deltas_b, _) = run(8);
        // Different seeds walk different peer sequences (delta traces
        // differ), yet both converge.
        assert!(deltas_a != deltas_b || deltas_a.iter().sum::<usize>() > 0);
    }

    #[test]
    fn stale_heartbeats_drop_out_of_live_view() {
        let node = GossipNode::new("a");
        node.publish(entry("Mine", "h1"), Duration::from_secs(1));
        let fresh = Duration::from_secs(10);
        assert_eq!(
            node.live_hosts("Mine", Duration::from_secs(5), fresh).len(),
            1
        );
        // Half-open horizon: age == freshness is already stale.
        assert!(node
            .live_hosts("Mine", Duration::from_secs(11), fresh)
            .is_empty());
        assert!(node.heartbeat("Mine", "h1", Duration::from_secs(12)));
        assert_eq!(
            node.live_hosts("Mine", Duration::from_secs(13), fresh)
                .len(),
            1
        );
        // Tombstoned replicas neither heartbeat nor serve.
        node.deregister("Mine", "h1", Duration::from_secs(14));
        assert!(!node.heartbeat("Mine", "h1", Duration::from_secs(15)));
        assert!(node
            .live_hosts("Mine", Duration::from_secs(15), fresh)
            .is_empty());
        // Re-publishing revives with a version past the tombstone's.
        node.publish(entry("Mine", "h1"), Duration::from_secs(16));
        assert_eq!(
            node.live_hosts("Mine", Duration::from_secs(17), fresh)
                .len(),
            1
        );
    }

    #[test]
    fn p2c_prefers_the_less_loaded_of_the_pair() {
        let router = P2cRouter::new(42);
        let candidates: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let loads: HashMap<String, u64> = [
            ("a".to_string(), 50),
            ("b".to_string(), 0),
            ("c".to_string(), 50),
        ]
        .into();
        // Over many draws the idle replica must win far more often than
        // a loaded one — every pair containing "b" routes to "b".
        let mut wins: HashMap<String, u32> = HashMap::new();
        for _ in 0..300 {
            let order = router.order(&candidates, &loads);
            *wins.entry(order[0].clone()).or_default() += 1;
        }
        let b_wins = wins.get("b").copied().unwrap_or(0);
        assert!(
            b_wins > 150,
            "idle replica won only {b_wins}/300 draws: {wins:?}"
        );
    }

    #[test]
    fn p2c_sequences_are_byte_identical_for_a_seed() {
        let drive = |seed: u64| {
            let router = P2cRouter::new(seed);
            let candidates: Vec<String> = (0..6).map(|i| format!("h{i}")).collect();
            let loads: HashMap<String, u64> = candidates
                .iter()
                .enumerate()
                .map(|(i, h)| (h.clone(), i as u64))
                .collect();
            (0..64)
                .map(|_| router.order(&candidates, &loads))
                .collect::<Vec<_>>()
        };
        assert_eq!(drive(9), drive(9));
        assert_ne!(drive(9), drive(10), "seeds must actually steer the draws");
    }

    #[test]
    fn unknown_replicas_do_not_stampede() {
        let router = P2cRouter::new(7);
        let candidates: Vec<String> = vec!["cold".into(), "warm".into(), "hot".into()];
        // "cold" was never measured; measured loads are 2 and 10.
        let loads: HashMap<String, u64> = [("warm".to_string(), 2), ("hot".to_string(), 10)].into();
        let mut cold_wins = 0;
        for _ in 0..300 {
            if router.order(&candidates, &loads)[0] == "cold" {
                cold_wins += 1;
            }
        }
        // Unknown takes the lower median (2) and loses the tie to the
        // measured host, so the cold replica never sweeps the fleet —
        // it only beats the overloaded one.
        assert!(
            cold_wins < 150,
            "cold replica won {cold_wins}/300 draws despite unknown load"
        );
        assert!(cold_wins > 0, "unknown replicas must still take traffic");
    }

    #[test]
    fn autoscaler_scales_on_signals_with_cooldown() {
        let scaler = Autoscaler::new(AutoscalerConfig {
            min_replicas: 1,
            max_replicas: 4,
            queue_high: 4.0,
            p99_high: Duration::from_millis(20),
            queue_low: 1.0,
            cooldown: Duration::from_secs(1),
        });
        let ms = Duration::from_millis;
        // Deep queues scale up.
        assert_eq!(scaler.decide(ms(0), 2, 9.0, ms(5)), ScaleAction::Up);
        // Inside the cooldown: hold, whatever the signals say.
        assert_eq!(scaler.decide(ms(500), 3, 9.0, ms(50)), ScaleAction::Hold);
        // p99 alone also triggers after the cooldown.
        assert_eq!(scaler.decide(ms(1500), 3, 1.5, ms(50)), ScaleAction::Up);
        // Quiet fleet drains...
        assert_eq!(scaler.decide(ms(3000), 4, 0.2, ms(3)), ScaleAction::Down);
        // ...but never below the floor.
        assert_eq!(scaler.decide(ms(5000), 1, 0.0, ms(0)), ScaleAction::Hold);
        // Nor above the ceiling.
        assert_eq!(scaler.decide(ms(7000), 4, 99.0, ms(99)), ScaleAction::Hold);
        let history = scaler.history();
        assert_eq!(
            history
                .iter()
                .filter(|e| e.action == ScaleAction::Up)
                .count(),
            2
        );
        assert_eq!(
            history
                .iter()
                .filter(|e| e.action == ScaleAction::Down)
                .count(),
            1
        );
    }

    #[test]
    fn fleet_provisions_routes_and_drains() {
        use crate::container::test_support::EchoService;
        let network = Arc::new(Network::new());
        let mut config = FleetConfig::new("Echo");
        config.capacity = CapacityConfig {
            workers: 2,
            queue_limit: Some(8),
            service_time: Duration::from_millis(1),
        };
        let fleet = Fleet::new(
            Arc::clone(&network),
            config,
            Arc::new(|| Arc::new(EchoService)),
        );
        let now = network.now();
        let h0 = fleet.add_replica(now);
        let h1 = fleet.add_replica(now);
        let h2 = fleet.add_replica(now);
        assert_eq!(
            fleet.active_replicas(),
            [h0.clone(), h1.clone(), h2.clone()]
        );
        fleet.gossip().sync(8).expect("fleet mesh converges");

        let out = fleet
            .invoke(
                network.now(),
                "echo",
                vec![("message".into(), SoapValue::Text("hi".into()))],
            )
            .unwrap();
        assert_eq!(out, SoapValue::Text("hi".into()));
        assert!(fleet.last_served().is_some());

        // Drain the newest replica; after propagation no route lists it.
        assert_eq!(fleet.drain_replica(network.now()), Some(h2.clone()));
        fleet.gossip().sync(8).expect("drain propagates");
        for _ in 0..20 {
            let route = fleet.route(network.now());
            assert!(
                !route.contains(&h2),
                "drained replica still routed: {route:?}"
            );
            assert!(!route.is_empty());
        }
    }

    #[test]
    fn fleet_fails_over_dead_replicas() {
        use crate::container::test_support::EchoService;
        let network = Arc::new(Network::new());
        let fleet = Fleet::new(
            Arc::clone(&network),
            FleetConfig::new("Echo"),
            Arc::new(|| Arc::new(EchoService)),
        );
        let now = network.now();
        let h0 = fleet.add_replica(now);
        let _h1 = fleet.add_replica(now);
        fleet.gossip().sync(4).unwrap();
        network.set_host_down(&h0, true);
        // Every call still completes via the surviving replica.
        for _ in 0..10 {
            let out = fleet
                .invoke(
                    network.now(),
                    "echo",
                    vec![("message".into(), SoapValue::Text("x".into()))],
                )
                .unwrap();
            assert_eq!(out, SoapValue::Text("x".into()));
            assert_ne!(fleet.last_served().as_deref(), Some(h0.as_str()));
        }
    }
}

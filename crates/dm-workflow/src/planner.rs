//! The cost- and locality-aware composition planner (E20).
//!
//! The paper's workflows are hand-wired cables between *concrete*
//! services; this module plans a composition from an **abstract goal**
//! — an ordered chain of service categories ("CSV load → attribute
//! selection → classifier train → evaluation") — by solving the QoS
//! service-selection problem over live telemetry. Candidate replicas
//! come from a registry's live views; each `(step, replica)` pairing is
//! priced with a frozen [`CostModel`] snapshot (per-host p50/p99, queue
//! depth, shed rate, breaker state, and predicted transfer bytes with a
//! `DataRef` dedup credit when adjacent data-intensive steps co-locate
//! on one host); a dynamic-programming pass over the chain picks the
//! assignment minimising predicted makespan plus bytes moved (the
//! knapsack relaxation of Fan & Yang's selection model, biased to data
//! locality after Sadeghiram et al.). A per-host capacity budget caps
//! how many steps one host may take: when the unconstrained DP answer
//! oversubscribes a host, an exact branch-and-bound pass with
//! suffix-lower-bound pruning re-solves under the budget.
//!
//! The planner is **seedable and deterministic**: given the same goal,
//! candidates, and snapshot, the same seed always yields the same
//! assignment, and different seeds only permute genuinely equal-cost
//! choices — so mining outputs are byte-identical regardless of
//! placement, which the E20 bench pins.
//!
//! A [`UsageRecommender`] mines past invocation sequences and
//! [`RunJournal`] logs for frequently co-invoked operation pairs and
//! pre-ranks each step's candidates, so historical affinity breaks
//! cost ties before the seed does.

use crate::error::{Result, WorkflowError};
use crate::graph::{TaskGraph, TaskId};
use crate::journal::{RunEvent, RunJournal};
use crate::wsimport::{import_from_host, WsTool};
use dm_wsrf::costmodel::CostModel;
use dm_wsrf::fleet::{splitmix64, ReplicaRecord};
use dm_wsrf::registry::ServiceEntry;
use dm_wsrf::transport::Network;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// One abstract step of a [`Goal`]: a service *category* (the UDDI
/// category bag the paper publishes services under), the operation the
/// bound tool must expose, and the predicted size of the data arriving
/// at the step — the payload the cost model prices for transfer and
/// credits when co-location lets it travel as a `DataRef` handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoalStep {
    /// Required category tag, e.g. `"classifier"`.
    pub category: String,
    /// Operation the chosen service must expose, e.g. `"classify"`.
    pub operation: String,
    /// Predicted bytes of data that must be present at the step's host
    /// (the dataset / intermediate flowing into this step).
    pub payload_bytes: usize,
}

/// An abstract composition goal: an ordered chain of [`GoalStep`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Goal {
    /// The steps, in execution order.
    pub steps: Vec<GoalStep>,
}

impl Goal {
    /// Build a goal from `(category, operation, payload_bytes)` triples.
    pub fn chain(steps: &[(&str, &str, usize)]) -> Goal {
        Goal {
            steps: steps
                .iter()
                .map(|(category, operation, payload_bytes)| GoalStep {
                    category: (*category).to_string(),
                    operation: (*operation).to_string(),
                    payload_bytes: *payload_bytes,
                })
                .collect(),
        }
    }
}

/// Planner knobs. The defaults fit the paper's testbed: each host can
/// take every step of a small chain, so co-location — the placement
/// the `DataRef` credit rewards — is allowed by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Tie-break seed. Plans with different seeds may differ only in
    /// genuinely equal-cost choices.
    pub seed: u64,
    /// Maximum steps of one plan placeable on a single host.
    pub host_capacity: usize,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig {
            seed: 0xE20,
            host_capacity: 4,
        }
    }
}

/// One step's chosen binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Step index within the goal.
    pub step: usize,
    /// The goal step's category.
    pub category: String,
    /// Operation the bound tool invokes.
    pub operation: String,
    /// Chosen service name.
    pub service: String,
    /// Chosen replica host.
    pub host: String,
    /// Predicted virtual nanoseconds for the step (queueing + service
    /// + transfer).
    pub predicted_nanos: u128,
    /// Predicted wire bytes moved to reach the step's host.
    pub predicted_bytes: u64,
    /// `true` when the step shares its host with the previous step —
    /// the placement the `DataRef` dedup credit rewards.
    pub colocated: bool,
}

/// A concrete plan: one [`Assignment`] per goal step plus the
/// predictions the selection minimised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Chosen bindings, in step order.
    pub assignments: Vec<Assignment>,
    /// Predicted makespan of the chain (sum of per-step predictions).
    pub predicted_makespan: Duration,
    /// Predicted total wire bytes moved.
    pub predicted_bytes_moved: u64,
}

impl Plan {
    /// Hosts used by the plan, deduplicated, in step order.
    pub fn hosts(&self) -> Vec<String> {
        let mut hosts: Vec<String> = Vec::new();
        for a in &self.assignments {
            if !hosts.contains(&a.host) {
                hosts.push(a.host.clone());
            }
        }
        hosts
    }

    /// Bind the plan to a concrete [`TaskGraph`]: one imported Web
    /// Service tool per step, pinned to its chosen replica host, with a
    /// cable from each step's first output to the next step's first
    /// type-compatible input (steps whose ports don't chain stay
    /// unconnected and take their inputs from the enactment bindings).
    /// Task names carry only the step index and category — never the
    /// host — so reports from differently-placed plans of the same goal
    /// stay byte-comparable.
    pub fn bind(&self, network: Arc<Network>) -> Result<(TaskGraph, Vec<TaskId>)> {
        self.bind_with(&mut |host, service| {
            import_from_host(Arc::clone(&network), host, service).map_err(Into::into)
        })
    }

    /// [`bind`](Self::bind) with a caller-supplied importer, so a
    /// toolkit can attach purity/resilience metadata, and benches can
    /// reuse pre-fetched WSDLs instead of re-fetching per plan.
    pub fn bind_with(
        &self,
        import: &mut dyn FnMut(&str, &str) -> Result<Vec<WsTool>>,
    ) -> Result<(TaskGraph, Vec<TaskId>)> {
        let mut graph = TaskGraph::new();
        let mut ids = Vec::with_capacity(self.assignments.len());
        let mut prev: Option<TaskId> = None;
        for a in &self.assignments {
            let tools = import(&a.host, &a.service)?;
            let tool = tools
                .into_iter()
                .find(|t| t.operation().name == a.operation)
                .ok_or_else(|| {
                    WorkflowError::Ws(format!(
                        "service {:?} on {:?} has no operation {:?}",
                        a.service, a.host, a.operation
                    ))
                })?;
            let id = graph.add_named_task(format!("step{}:{}", a.step + 1, a.category), {
                let tool: Arc<dyn crate::graph::Tool> = Arc::new(tool);
                tool
            });
            if let Some(p) = prev {
                let out = graph.task(p)?.tool.output_ports();
                let ins = graph.task(id)?.tool.input_ports();
                if let Some(out_spec) = out.first() {
                    if let Some((port, _)) = ins
                        .iter()
                        .enumerate()
                        .find(|(_, spec)| out_spec.compatible_with(spec))
                    {
                        graph.connect(p, 0, id, port)?;
                    }
                }
            }
            prev = Some(id);
            ids.push(id);
        }
        Ok((graph, ids))
    }
}

/// Mines enactment history — invocation sequences and [`RunJournal`]
/// event logs — for co-invoked operation pairs, and pre-ranks a step's
/// candidates by how often they historically followed the previous
/// step's candidates. Labels are `"Service.operation"`, the same form
/// [`WsTool`] task names take, so journal mining needs no mapping.
#[derive(Debug, Clone, Default)]
pub struct UsageRecommender {
    pairs: BTreeMap<(String, String), u64>,
}

impl UsageRecommender {
    /// An empty recommender (every affinity 0 — pre-ranking is the
    /// identity).
    pub fn new() -> UsageRecommender {
        UsageRecommender::default()
    }

    /// Count of distinct co-invoked pairs observed.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when no history has been mined.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Record one invocation sequence: each adjacent pair of labels is
    /// counted as co-invoked.
    pub fn observe_sequence<S: AsRef<str>>(&mut self, labels: &[S]) {
        for window in labels.windows(2) {
            let key = (
                window[0].as_ref().to_string(),
                window[1].as_ref().to_string(),
            );
            *self.pairs.entry(key).or_insert(0) += 1;
        }
    }

    /// Mine a [`RunJournal`]: completed-task names in append order.
    pub fn observe_journal(&mut self, journal: &RunJournal) {
        let names: Vec<String> = journal
            .events()
            .into_iter()
            .filter_map(|e| match e {
                RunEvent::TaskCompleted { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        self.observe_sequence(&names);
    }

    /// How often `next` has directly followed `prev`.
    pub fn affinity(&self, prev: &str, next: &str) -> u64 {
        self.pairs
            .get(&(prev.to_string(), next.to_string()))
            .copied()
            .unwrap_or(0)
    }
}

/// The planner. Construct with a [`PlannerConfig`] and call
/// [`plan`](Planner::plan); the result is a pure function of the goal,
/// the candidate sets, the cost snapshot, and the seed.
#[derive(Debug, Clone, Default)]
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    /// A planner with the given knobs.
    pub fn new(config: PlannerConfig) -> Planner {
        Planner { config }
    }

    /// A planner with default knobs and the given tie-break seed.
    pub fn seeded(seed: u64) -> Planner {
        Planner {
            config: PlannerConfig {
                seed,
                ..PlannerConfig::default()
            },
        }
    }

    /// The planner's configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Category inquiry over a gossip view snapshot: the live records
    /// ([`ReplicaRecord::is_live`]) tagged `category`, sorted by
    /// `(service, host)` for determinism.
    pub fn live_candidates(
        view: &[ReplicaRecord],
        category: &str,
        now: Duration,
        freshness: Duration,
    ) -> Vec<ServiceEntry> {
        let mut hits: Vec<ServiceEntry> = view
            .iter()
            .filter(|r| {
                r.is_live(now, freshness) && r.entry.categories.iter().any(|c| c == category)
            })
            .map(|r| r.entry.clone())
            .collect();
        hits.sort_by(|a, b| (&a.name, &a.host).cmp(&(&b.name, &b.host)));
        hits
    }

    /// Plan `goal` against live telemetry. `candidates` supplies each
    /// step's replica set (e.g. [`live_candidates`](Self::live_candidates)
    /// over a gossip view); hosts whose breakers the snapshot reports
    /// open are excluded.
    /// Errors with [`WorkflowError::NoCandidates`] when a step has no
    /// placeable replica.
    pub fn plan(
        &self,
        goal: &Goal,
        candidates: &dyn Fn(&GoalStep) -> Vec<ServiceEntry>,
        cost: &CostModel,
        recommender: Option<&UsageRecommender>,
    ) -> Result<Plan> {
        if goal.steps.is_empty() {
            return Ok(Plan {
                assignments: Vec::new(),
                predicted_makespan: Duration::ZERO,
                predicted_bytes_moved: 0,
            });
        }
        // Candidate enumeration: drop breaker-open hosts, rotate by a
        // seeded offset, then stable-sort by usage affinity. Rotation
        // first, ranking second: history outranks the seed, and the
        // seed only permutes within equal-affinity (and, later,
        // equal-cost) classes.
        let mut cands: Vec<Vec<ServiceEntry>> = Vec::with_capacity(goal.steps.len());
        for (i, step) in goal.steps.iter().enumerate() {
            let mut hits: Vec<ServiceEntry> = candidates(step)
                .into_iter()
                .filter(|e| cost.allows(&e.host))
                .collect();
            if hits.is_empty() {
                return Err(WorkflowError::NoCandidates {
                    step: i,
                    category: step.category.clone(),
                });
            }
            let offset = (splitmix64(self.config.seed ^ (i as u64)) % hits.len() as u64) as usize;
            hits.rotate_left(offset);
            if let Some(rec) = recommender {
                if i > 0 {
                    let prev_step = &goal.steps[i - 1];
                    let prev_labels: Vec<String> = cands[i - 1]
                        .iter()
                        .map(|p| format!("{}.{}", p.name, prev_step.operation))
                        .collect();
                    // Stable sort by descending historical affinity:
                    // never-seen pairings keep their rotated order.
                    hits.sort_by_key(|e| {
                        let label = format!("{}.{}", e.name, step.operation);
                        let score: u64 = prev_labels.iter().map(|p| rec.affinity(p, &label)).sum();
                        std::cmp::Reverse(score)
                    });
                }
            }
            cands.push(hits);
        }

        // Fast path: the unconstrained chain DP. When its answer fits
        // the per-host budget — the common case — it is optimal
        // outright. Otherwise an exact branch-and-bound pass re-solves
        // under the budget.
        let plan = self.solve_chain(goal, &cands, cost);
        if Self::fits(&plan, self.config.host_capacity) {
            return Ok(plan);
        }
        self.solve_capped(goal, &cands, cost).ok_or_else(|| {
            let hosts: std::collections::BTreeSet<&str> =
                cands.iter().flatten().map(|e| e.host.as_str()).collect();
            WorkflowError::Ws(format!(
                "planner cannot place {} step(s) under a budget of {} per host \
                     with only {} distinct host(s)",
                goal.steps.len(),
                self.config.host_capacity,
                hosts.len()
            ))
        })
    }

    /// `true` when no host carries more than `capacity` assignments.
    fn fits(plan: &Plan, capacity: usize) -> bool {
        let mut per_host: BTreeMap<&str, usize> = BTreeMap::new();
        for a in &plan.assignments {
            let n = per_host.entry(a.host.as_str()).or_insert(0);
            *n += 1;
            if *n > capacity {
                return false;
            }
        }
        true
    }

    /// Predicted `(nanos, wire bytes)` for placing `step` on `host`.
    fn step_cost(cost: &CostModel, step: &GoalStep, host: &str, colocated: bool) -> (u128, usize) {
        let bytes = cost.predicted_transfer_bytes(step.payload_bytes, colocated);
        (cost.service_nanos(host) + cost.transfer_nanos(bytes), bytes)
    }

    /// Turn a per-step candidate choice into a [`Plan`] with its real
    /// predictions.
    fn materialise(
        goal: &Goal,
        cands: &[Vec<ServiceEntry>],
        cost: &CostModel,
        choice: &[usize],
    ) -> Plan {
        let mut assignments = Vec::with_capacity(choice.len());
        let mut makespan: u128 = 0;
        let mut bytes_moved: u64 = 0;
        let mut prev_host: Option<&str> = None;
        for (i, step) in goal.steps.iter().enumerate() {
            let entry = &cands[i][choice[i]];
            let colocated = prev_host == Some(entry.host.as_str());
            let (nanos, bytes) = Self::step_cost(cost, step, &entry.host, colocated);
            makespan += nanos;
            bytes_moved += bytes as u64;
            assignments.push(Assignment {
                step: i,
                category: step.category.clone(),
                operation: step.operation.clone(),
                service: entry.name.clone(),
                host: entry.host.clone(),
                predicted_nanos: nanos,
                predicted_bytes: bytes as u64,
                colocated,
            });
            prev_host = Some(entry.host.as_str());
        }
        Plan {
            assignments,
            predicted_makespan: Duration::from_nanos(makespan.min(u64::MAX as u128) as u64),
            predicted_bytes_moved: bytes_moved,
        }
    }

    /// The unconstrained chain DP: `dp[i][c]` = cheapest predicted
    /// nanos to finish steps `0..=i` with step `i` on candidate `c`.
    /// Transfer between adjacent steps is priced with the co-location
    /// `DataRef` credit; step 0 always ships its payload from the
    /// client.
    fn solve_chain(&self, goal: &Goal, cands: &[Vec<ServiceEntry>], cost: &CostModel) -> Plan {
        let n = goal.steps.len();
        let mut best: Vec<Vec<u128>> = Vec::with_capacity(n);
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(n);
        let first: Vec<u128> = cands[0]
            .iter()
            .map(|e| Self::step_cost(cost, &goal.steps[0], &e.host, false).0)
            .collect();
        best.push(first);
        back.push(vec![0; cands[0].len()]);
        for i in 1..n {
            let mut row = Vec::with_capacity(cands[i].len());
            let mut arg = Vec::with_capacity(cands[i].len());
            for e in &cands[i] {
                let mut cheapest = u128::MAX;
                let mut from = 0usize;
                for (p, prev) in cands[i - 1].iter().enumerate() {
                    let colocated = prev.host == e.host;
                    let total = best[i - 1][p]
                        + Self::step_cost(cost, &goal.steps[i], &e.host, colocated).0;
                    // Strict `<`: the first-seen minimum wins, so the
                    // candidate order (seeded rotation + affinity) is
                    // the only source of tie-break variation.
                    if total < cheapest {
                        cheapest = total;
                        from = p;
                    }
                }
                row.push(cheapest);
                arg.push(from);
            }
            best.push(row);
            back.push(arg);
        }

        // Reconstruct the cheapest chain.
        let (mut at, _) =
            best[n - 1]
                .iter()
                .enumerate()
                .fold(
                    (0usize, u128::MAX),
                    |(bi, bv), (i, &v)| {
                        if v < bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    },
                );
        let mut choice = vec![0usize; n];
        for i in (0..n).rev() {
            choice[i] = at;
            at = back[i][at];
        }
        Self::materialise(goal, cands, cost, &choice)
    }

    /// Exact branch-and-bound under the per-host capacity budget.
    /// Candidates are explored in list order and a partial assignment
    /// is pruned when its cost plus an optimistic suffix bound cannot
    /// beat the incumbent (`>=`, so the first-found minimum survives
    /// ties — same tie-break discipline as the DP). Goals here are
    /// short chains, so the exponential worst case never bites.
    fn solve_capped(
        &self,
        goal: &Goal,
        cands: &[Vec<ServiceEntry>],
        cost: &CostModel,
    ) -> Option<Plan> {
        let n = goal.steps.len();
        // Optimistic cost of finishing steps `i..`: every step takes
        // its cheapest host with the co-location transfer credit.
        let mut suffix_lb = vec![0u128; n + 1];
        for i in (0..n).rev() {
            let cheapest = cands[i]
                .iter()
                .map(|e| Self::step_cost(cost, &goal.steps[i], &e.host, i > 0).0)
                .min()
                .unwrap_or(0);
            suffix_lb[i] = suffix_lb[i + 1] + cheapest;
        }

        struct Search<'a> {
            goal: &'a Goal,
            cands: &'a [Vec<ServiceEntry>],
            cost: &'a CostModel,
            suffix_lb: &'a [u128],
            capacity: usize,
            best: Option<(u128, Vec<usize>)>,
        }
        impl Search<'_> {
            fn dfs(
                &mut self,
                i: usize,
                prev_host: Option<&str>,
                used: &mut BTreeMap<String, usize>,
                running: u128,
                choice: &mut Vec<usize>,
            ) {
                if let Some((incumbent, _)) = &self.best {
                    if running + self.suffix_lb[i] >= *incumbent {
                        return;
                    }
                }
                if i == self.goal.steps.len() {
                    self.best = Some((running, choice.clone()));
                    return;
                }
                for (c, e) in self.cands[i].iter().enumerate() {
                    if used.get(e.host.as_str()).copied().unwrap_or(0) >= self.capacity {
                        continue;
                    }
                    let colocated = prev_host == Some(e.host.as_str());
                    let (nanos, _) =
                        Planner::step_cost(self.cost, &self.goal.steps[i], &e.host, colocated);
                    *used.entry(e.host.clone()).or_insert(0) += 1;
                    choice.push(c);
                    self.dfs(i + 1, Some(&e.host), used, running + nanos, choice);
                    choice.pop();
                    *used.get_mut(&e.host).expect("host just inserted") -= 1;
                }
            }
        }

        let mut search = Search {
            goal,
            cands,
            cost,
            suffix_lb: &suffix_lb,
            capacity: self.config.host_capacity,
            best: None,
        };
        search.dfs(0, None, &mut BTreeMap::new(), 0, &mut Vec::with_capacity(n));
        let (_, choice) = search.best?;
        Some(Self::materialise(goal, cands, cost, &choice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_wsrf::fleet::GossipNode;

    fn entry(service: &str, host: &str, categories: &[&str]) -> ServiceEntry {
        ServiceEntry {
            name: service.to_string(),
            host: host.to_string(),
            wsdl_url: format!("http://{host}/axis/{service}?wsdl"),
            categories: categories.iter().map(|s| s.to_string()).collect(),
            description: String::new(),
        }
    }

    fn fixed_candidates(
        sets: Vec<Vec<ServiceEntry>>,
        goal: &Goal,
    ) -> impl Fn(&GoalStep) -> Vec<ServiceEntry> + '_ {
        move |step: &GoalStep| {
            let i = goal
                .steps
                .iter()
                .position(|s| s == step)
                .expect("step belongs to goal");
            sets[i].clone()
        }
    }

    #[test]
    fn empty_goal_plans_to_nothing() {
        let plan = Planner::default()
            .plan(&Goal::default(), &|_| Vec::new(), &CostModel::new(), None)
            .unwrap();
        assert!(plan.assignments.is_empty());
        assert_eq!(plan.predicted_bytes_moved, 0);
    }

    #[test]
    fn no_candidates_is_a_typed_error() {
        let goal = Goal::chain(&[("classifier", "classify", 0)]);
        let err = Planner::default()
            .plan(&goal, &|_| Vec::new(), &CostModel::new(), None)
            .unwrap_err();
        assert!(matches!(
            err,
            WorkflowError::NoCandidates { step: 0, ref category } if category == "classifier"
        ));
    }

    #[test]
    fn cold_start_produces_a_valid_colocated_plan() {
        // Empty telemetry: every host prices identically, so the chain
        // co-locates (transfer credit) on some live replica.
        let goal = Goal::chain(&[("a", "opA", 50_000), ("b", "opB", 50_000)]);
        let sets = vec![
            vec![entry("A", "h1", &["a"]), entry("A", "h2", &["a"])],
            vec![entry("B", "h1", &["b"]), entry("B", "h2", &["b"])],
        ];
        let plan = Planner::default()
            .plan(
                &goal,
                &fixed_candidates(sets, &goal),
                &CostModel::new(),
                None,
            )
            .unwrap();
        assert_eq!(plan.assignments.len(), 2);
        assert_eq!(plan.assignments[0].host, plan.assignments[1].host);
        assert!(plan.assignments[1].colocated);
        // The co-located hop pays only the DataRef handle.
        assert_eq!(
            plan.assignments[1].predicted_bytes,
            dm_wsrf::costmodel::DATA_REF_WIRE_BYTES as u64
        );
    }

    #[test]
    fn busy_hosts_lose_to_idle_ones() {
        let goal = Goal::chain(&[("a", "op", 100)]);
        let sets = vec![vec![entry("A", "busy", &["a"]), entry("A", "idle", &["a"])]];
        let mut cost = CostModel::new();
        cost.observe_loads(&[("busy".to_string(), 50)].into());
        let plan = Planner::default()
            .plan(&goal, &fixed_candidates(sets, &goal), &cost, None)
            .unwrap();
        assert_eq!(plan.assignments[0].host, "idle");
    }

    #[test]
    fn open_breaker_hosts_are_never_selected() {
        use dm_wsrf::resilience::{BreakerBoard, BreakerConfig};
        let goal = Goal::chain(&[("a", "op", 100)]);
        let sets = vec![vec![entry("A", "bad", &["a"]), entry("A", "good", &["a"])]];
        let board = BreakerBoard::new(BreakerConfig::default());
        for _ in 0..32 {
            board.breaker("bad").record_failure(Duration::ZERO);
        }
        let mut cost = CostModel::new();
        cost.observe_breakers(&board, Duration::ZERO);
        for seed in 0..16 {
            let plan = Planner::seeded(seed)
                .plan(&goal, &fixed_candidates(sets.clone(), &goal), &cost, None)
                .unwrap();
            assert_eq!(plan.assignments[0].host, "good", "seed {seed}");
        }
    }

    #[test]
    fn capacity_budget_spreads_an_oversubscribed_chain() {
        let goal = Goal::chain(&[("a", "op", 10_000), ("b", "op", 10_000)]);
        let sets = vec![
            vec![entry("A", "h1", &["a"]), entry("A", "h2", &["a"])],
            vec![entry("B", "h1", &["b"]), entry("B", "h2", &["b"])],
        ];
        let planner = Planner::new(PlannerConfig {
            host_capacity: 1,
            ..PlannerConfig::default()
        });
        let plan = planner
            .plan(
                &goal,
                &fixed_candidates(sets, &goal),
                &CostModel::new(),
                None,
            )
            .unwrap();
        assert_ne!(
            plan.assignments[0].host, plan.assignments[1].host,
            "capacity 1 must forbid co-location"
        );
    }

    #[test]
    fn same_seed_same_plan_different_seeds_equal_cost() {
        let goal = Goal::chain(&[("a", "op", 4_000), ("b", "op", 4_000)]);
        let sets = vec![
            vec![entry("A", "h1", &["a"]), entry("A", "h2", &["a"])],
            vec![entry("B", "h1", &["b"]), entry("B", "h2", &["b"])],
        ];
        let cost = CostModel::new();
        let plan_a1 = Planner::seeded(1)
            .plan(&goal, &fixed_candidates(sets.clone(), &goal), &cost, None)
            .unwrap();
        let plan_a2 = Planner::seeded(1)
            .plan(&goal, &fixed_candidates(sets.clone(), &goal), &cost, None)
            .unwrap();
        assert_eq!(plan_a1, plan_a2, "same seed must replan identically");
        for seed in 0..8 {
            let plan = Planner::seeded(seed)
                .plan(&goal, &fixed_candidates(sets.clone(), &goal), &cost, None)
                .unwrap();
            assert_eq!(
                plan.predicted_makespan, plan_a1.predicted_makespan,
                "seed {seed} found a different cost, not a tie"
            );
        }
    }

    #[test]
    fn tombstoned_replicas_never_appear_in_candidates() {
        let now = Duration::from_secs(100);
        let fresh = Duration::from_secs(30);
        let record = |host: &str, tombstone: bool, age: u64| ReplicaRecord {
            entry: entry("A", host, &["a"]),
            version: 1,
            heartbeat_at: now - Duration::from_secs(age),
            tombstone,
        };
        let view = vec![
            record("live", false, 1),
            record("drained", true, 1),
            record("stale", false, 99),
        ];
        let hits = Planner::live_candidates(&view, "a", now, fresh);
        let hosts: Vec<&str> = hits.iter().map(|e| e.host.as_str()).collect();
        assert_eq!(hosts, ["live"]);
    }

    #[test]
    fn category_hits_follow_republish_and_deregister() {
        let node = GossipNode::new("registry");
        let now = Duration::from_secs(1);
        let hits = |category: &str| {
            Planner::live_candidates(&node.view_snapshot(), category, now, Duration::MAX).len()
        };
        node.publish(entry("S", "h", &["alpha", "beta"]), now);
        assert_eq!(hits("alpha"), 1);
        assert_eq!(hits("beta"), 1);

        // Re-publishing with different categories drops the stale hits
        // and adds the new ones.
        node.publish(entry("S", "h", &["beta", "gamma"]), now);
        assert_eq!(hits("alpha"), 0);
        assert_eq!(hits("beta"), 1);
        assert_eq!(hits("gamma"), 1);

        node.deregister("S", "h", now);
        assert_eq!(hits("beta"), 0);
        assert_eq!(hits("gamma"), 0);
    }

    #[test]
    fn category_results_stay_sorted_at_scale() {
        let node = GossipNode::new("registry");
        // 50 services on 2 hosts, published in reverse order: the hits
        // must still come back sorted by (service, host).
        for i in (0..100).rev() {
            let service = format!("Svc{:03}", i / 2);
            let host = format!("h{}", i % 2);
            node.publish(entry(&service, &host, &["datamining"]), Duration::ZERO);
        }
        let view = node.view_snapshot();
        let hits = Planner::live_candidates(&view, "datamining", Duration::ZERO, Duration::MAX);
        assert_eq!(hits.len(), 100);
        let keys: Vec<(&str, &str)> = hits
            .iter()
            .map(|e| (e.name.as_str(), e.host.as_str()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn recommender_mines_pairs_and_breaks_ties() {
        let mut rec = UsageRecommender::new();
        assert!(rec.is_empty());
        rec.observe_sequence(&["X.load", "B.op", "Y.train"]);
        rec.observe_sequence(&["X.load", "B.op"]);
        assert_eq!(rec.affinity("X.load", "B.op"), 2);
        assert_eq!(rec.affinity("B.op", "Y.train"), 1);
        assert_eq!(rec.affinity("Y.train", "X.load"), 0);
        assert_eq!(rec.len(), 2);

        // Two equal-cost services for step 1; history says B followed
        // X, so every seed must pick B on the same host as X.
        let goal = Goal::chain(&[("l", "load", 0), ("o", "op", 0)]);
        let sets = vec![
            vec![entry("X", "h1", &["l"])],
            vec![entry("A", "h1", &["o"]), entry("B", "h1", &["o"])],
        ];
        for seed in 0..8 {
            let plan = Planner::seeded(seed)
                .plan(
                    &goal,
                    &fixed_candidates(sets.clone(), &goal),
                    &CostModel::new(),
                    Some(&rec),
                )
                .unwrap();
            assert_eq!(plan.assignments[1].service, "B", "seed {seed}");
        }
    }

    #[test]
    fn plan_reports_distinct_hosts_in_step_order() {
        let plan = Plan {
            assignments: vec![
                Assignment {
                    step: 0,
                    category: "a".into(),
                    operation: "op".into(),
                    service: "A".into(),
                    host: "h2".into(),
                    predicted_nanos: 1,
                    predicted_bytes: 1,
                    colocated: false,
                },
                Assignment {
                    step: 1,
                    category: "b".into(),
                    operation: "op".into(),
                    service: "B".into(),
                    host: "h1".into(),
                    predicted_nanos: 1,
                    predicted_bytes: 1,
                    colocated: false,
                },
                Assignment {
                    step: 2,
                    category: "c".into(),
                    operation: "op".into(),
                    service: "C".into(),
                    host: "h2".into(),
                    predicted_nanos: 1,
                    predicted_bytes: 1,
                    colocated: false,
                },
            ],
            predicted_makespan: Duration::ZERO,
            predicted_bytes_moved: 3,
        };
        assert_eq!(plan.hosts(), ["h2".to_string(), "h1".to_string()]);
    }
}

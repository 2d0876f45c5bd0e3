//! E20 — the cost- and locality-aware composition planner end to end:
//! cold-start validity, tombstone/breaker exclusion, capacity
//! spreading, per-seed determinism, and byte-identical mining outputs
//! regardless of where the planner places the steps.

#![forbid(unsafe_code)]

use dm_workflow::engine::Executor;
use dm_workflow::graph::{TaskId, Token};
use dm_workflow::planner::{Goal, GoalStep, Planner, PlannerConfig};
use dm_wsrf::costmodel::{CostModel, DATA_REF_WIRE_BYTES};
use dm_wsrf::fleet::{GossipConfig, GossipRegistry};
use dm_wsrf::registry::ServiceEntry;
use dm_wsrf::resilience::{BreakerBoard, BreakerConfig};
use faehim::Toolkit;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

fn entry(service: &str, host: &str, category: &str) -> ServiceEntry {
    ServiceEntry {
        name: service.to_string(),
        host: host.to_string(),
        wsdl_url: format!("http://{host}/axis/{service}?wsdl"),
        categories: vec![category.to_string()],
        description: String::new(),
    }
}

/// Candidate supplier over fixed per-category sets.
fn by_category(
    sets: &[(String, Vec<ServiceEntry>)],
) -> impl Fn(&GoalStep) -> Vec<ServiceEntry> + '_ {
    move |step: &GoalStep| {
        sets.iter()
            .find(|(cat, _)| *cat == step.category)
            .map(|(_, hits)| hits.clone())
            .unwrap_or_default()
    }
}

proptest! {
    /// Cold start: with an entirely empty telemetry snapshot, any goal
    /// with at least one candidate per step plans successfully, every
    /// chosen replica comes from the step's candidate set, and the
    /// per-host capacity budget holds.
    #[test]
    fn empty_telemetry_always_yields_a_valid_plan(
        steps in 1usize..5,
        hosts in 1usize..4,
        payload in 0usize..65_536,
        seed in any::<u64>(),
        capacity in 1usize..5,
    ) {
        // Keep the instance feasible (vendored proptest has no
        // prop_assume): raise the budget until the hosts can take it.
        let capacity = capacity.max(steps.div_ceil(hosts));
        let sets: Vec<(String, Vec<ServiceEntry>)> = (0..steps)
            .map(|s| {
                let cat = format!("cat{s}");
                let cands = (0..hosts)
                    .map(|h| entry(&format!("Svc{s}"), &format!("host-{h}"), &cat))
                    .collect();
                (cat, cands)
            })
            .collect();
        let goal = Goal {
            steps: (0..steps)
                .map(|s| GoalStep {
                    category: format!("cat{s}"),
                    operation: "op".into(),
                    payload_bytes: payload,
                })
                .collect(),
        };
        let planner = Planner::new(PlannerConfig { seed, host_capacity: capacity });
        let plan = planner
            .plan(&goal, &by_category(&sets), &CostModel::new(), None)
            .expect("cold start must plan");
        prop_assert_eq!(plan.assignments.len(), steps);
        let mut per_host: HashMap<&str, usize> = HashMap::new();
        for (i, a) in plan.assignments.iter().enumerate() {
            prop_assert!(
                sets[i].1.iter().any(|e| e.host == a.host && e.name == a.service),
                "step {} bound outside its candidate set", i
            );
            *per_host.entry(a.host.as_str()).or_insert(0) += 1;
        }
        prop_assert!(per_host.values().all(|&n| n <= capacity));
    }

    /// Determinism: the plan is a pure function of (goal, candidates,
    /// snapshot, seed) — replanning yields an identical assignment.
    #[test]
    fn replanning_with_the_same_seed_is_identical(
        seed in any::<u64>(),
        load_a in 0u64..20,
        load_b in 0u64..20,
    ) {
        let sets = vec![
            ("l".to_string(), vec![entry("Load", "a", "l"), entry("Load", "b", "l")]),
            ("m".to_string(), vec![entry("Mine", "a", "m"), entry("Mine", "b", "m")]),
        ];
        let goal = Goal::chain(&[("l", "op", 8_192), ("m", "op", 8_192)]);
        let mut cost = CostModel::new();
        cost.observe_loads(&[("a".to_string(), load_a), ("b".to_string(), load_b)].into());
        let planner = Planner::seeded(seed);
        let first = planner.plan(&goal, &by_category(&sets), &cost, None).unwrap();
        let second = planner.plan(&goal, &by_category(&sets), &cost, None).unwrap();
        prop_assert_eq!(first, second);
    }
}

#[test]
fn gossip_tombstones_and_stale_replicas_never_get_planned() {
    // Three replicas gossip; one deregisters (tombstone), one goes
    // silent past the freshness horizon. Across many seeds the planner
    // only ever places on the live one.
    let gossip = GossipRegistry::new(&["observer"], GossipConfig::default());
    let node = gossip.node("observer").expect("seed node");
    let now = Duration::from_secs(60);
    for host in ["live", "drained", "stale"] {
        node.publish(entry("Miner", host, "mining"), Duration::from_secs(1));
    }
    node.heartbeat("Miner", "live", now);
    node.heartbeat("Miner", "stale", Duration::from_secs(2)); // long silent
    node.deregister("Miner", "drained", now);

    let freshness = Duration::from_secs(30);
    let view = node.view_snapshot();
    let candidates = Planner::live_candidates(&view, "mining", now, freshness);
    assert_eq!(candidates.len(), 1, "only the live replica survives");

    let goal = Goal::chain(&[("mining", "op", 2_048)]);
    for seed in 0..32 {
        let plan = Planner::seeded(seed)
            .plan(&goal, &|_| candidates.clone(), &CostModel::new(), None)
            .unwrap();
        assert_eq!(plan.assignments[0].host, "live", "seed {seed}");
    }
}

#[test]
fn open_breaker_hosts_are_excluded_for_every_seed() {
    let board = BreakerBoard::new(BreakerConfig::default());
    for _ in 0..64 {
        board.breaker("tripped").record_failure(Duration::ZERO);
    }
    let mut cost = CostModel::new();
    cost.observe_breakers(&board, Duration::ZERO);
    // The tripped host is otherwise the cheapest (idle); the healthy
    // one carries load. Breakers must still win.
    cost.observe_loads(&[("healthy".to_string(), 10)].into());

    let sets = vec![(
        "m".to_string(),
        vec![entry("M", "tripped", "m"), entry("M", "healthy", "m")],
    )];
    let goal = Goal::chain(&[("m", "op", 1_000)]);
    for seed in 0..32 {
        let plan = Planner::seeded(seed)
            .plan(&goal, &by_category(&sets), &cost, None)
            .unwrap();
        assert_eq!(plan.assignments[0].host, "healthy", "seed {seed}");
    }
}

#[test]
fn data_intensive_steps_colocate_and_capacity_spreads_them() {
    let sets = vec![
        (
            "a".to_string(),
            vec![entry("A", "h1", "a"), entry("A", "h2", "a")],
        ),
        (
            "b".to_string(),
            vec![entry("B", "h1", "b"), entry("B", "h2", "b")],
        ),
        (
            "c".to_string(),
            vec![entry("C", "h1", "c"), entry("C", "h2", "c")],
        ),
    ];
    let goal = Goal::chain(&[
        ("a", "op", 32_768),
        ("b", "op", 32_768),
        ("c", "op", 32_768),
    ]);

    // Default capacity: the whole data-intensive chain rides one host,
    // paying full freight once and DataRef handles after.
    let plan = Planner::default()
        .plan(&goal, &by_category(&sets), &CostModel::new(), None)
        .unwrap();
    assert_eq!(plan.hosts().len(), 1);
    assert!(plan.assignments[1].colocated && plan.assignments[2].colocated);
    assert_eq!(
        plan.predicted_bytes_moved,
        32_768 + 2 * DATA_REF_WIRE_BYTES as u64
    );

    // Capacity 1 forbids co-location: three steps, three hosts... but
    // only two exist, so the plan is infeasible and says so.
    let narrow = Planner::new(PlannerConfig {
        seed: 7,
        host_capacity: 1,
    });
    let err = narrow
        .plan(&goal, &by_category(&sets), &CostModel::new(), None)
        .unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");

    // Capacity 2 spreads across both hosts.
    let wider = Planner::new(PlannerConfig {
        seed: 7,
        host_capacity: 2,
    });
    let spread = wider
        .plan(&goal, &by_category(&sets), &CostModel::new(), None)
        .unwrap();
    assert_eq!(spread.hosts().len(), 2);
    assert!(spread.predicted_bytes_moved > plan.predicted_bytes_moved);
}

#[test]
fn queue_depth_telemetry_moves_the_plan_off_the_busy_host() {
    let sets = vec![
        (
            "a".to_string(),
            vec![entry("A", "busy", "a"), entry("A", "calm", "a")],
        ),
        (
            "b".to_string(),
            vec![entry("B", "busy", "b"), entry("B", "calm", "b")],
        ),
    ];
    let goal = Goal::chain(&[("a", "op", 16_384), ("b", "op", 16_384)]);

    let mut cost = CostModel::new();
    cost.observe_loads(&[("busy".to_string(), 40)].into());
    let plan = Planner::default()
        .plan(&goal, &by_category(&sets), &cost, None)
        .unwrap();
    assert!(
        plan.assignments.iter().all(|a| a.host == "calm"),
        "40 queued requests must push the whole chain to the calm host: {plan:?}"
    );
}

/// The core E20 invariant: two plans of the same goal that land on
/// *different* hosts still enact byte-identical results — placement
/// moves cost, never answers. Forced placements come from rigged cost
/// snapshots; reports are compared by canonical bytes, which include
/// task names (placement-independent by construction) and outputs.
#[test]
fn different_placements_enact_byte_identical_outputs() {
    let tk = Toolkit::with_hosts(&["wesc-a", "wesc-b", "wesc-c"]).unwrap();
    let csv = dm_data::csv::write_csv(&dm_data::corpus::breast_cancer());
    let goal = Goal::chain(&[
        ("data-handling", "csvToArff", csv.len()),
        ("classifier", "classify", csv.len()),
    ]);
    // The same candidates Toolkit::plan_composition draws.
    let candidates = |step: &GoalStep| tk.candidates(step);

    let mut canonical: Vec<Vec<u8>> = Vec::new();
    let mut placements: Vec<String> = Vec::new();
    for crowd in [
        ["wesc-b", "wesc-c"],
        ["wesc-a", "wesc-c"],
        ["wesc-a", "wesc-b"],
    ] {
        // Rig the snapshot: two hosts look swamped, the third is free.
        let mut cost = CostModel::new();
        let loads: HashMap<String, u64> = crowd.iter().map(|h| (h.to_string(), 50)).collect();
        cost.observe_loads(&loads);
        let plan = Planner::default()
            .plan(&goal, &candidates, &cost, None)
            .unwrap();
        placements.push(plan.assignments[0].host.clone());
        let (graph, tasks) = plan.bind(tk.network()).unwrap();

        let mut bindings: HashMap<(TaskId, usize), Token> = HashMap::new();
        bindings.insert((tasks[0], 0), Token::Text(csv.clone()));
        bindings.insert((tasks[1], 1), Token::Text("Class".into()));
        bindings.insert((tasks[1], 2), Token::Text(String::new()));
        let report = Executor::serial().run(&graph, &bindings).unwrap();
        canonical.push(report.canonical_bytes());
    }
    placements.sort();
    placements.dedup();
    assert_eq!(
        placements.len(),
        3,
        "the rigged snapshots must actually force three distinct placements"
    );
    assert!(
        canonical.windows(2).all(|w| w[0] == w[1]),
        "mining outputs must be byte-identical regardless of placement"
    );
}

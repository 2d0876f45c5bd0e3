//! E9 — fault tolerance: transport failures are retried and migrated
//! to replica hosts so the workflow still completes (§3, category 2),
//! now with the resilience layer on top — scripted outage windows,
//! circuit breakers with half-open probes, and deadline-bounded
//! retry/backoff schedules.

#![forbid(unsafe_code)]

use dm_workflow::engine::Executor;
use dm_workflow::graph::{TaskGraph, Token, Tool};
use dm_wsrf::prelude::{
    BreakerBoard, BreakerConfig, BreakerState, Network, ResiliencePolicy, ResilientCaller,
};
use faehim::Toolkit;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn classify_bindings(
    task: dm_workflow::graph::TaskId,
) -> HashMap<(dm_workflow::graph::TaskId, usize), Token> {
    let mut bindings = HashMap::new();
    bindings.insert(
        (task, 0),
        Token::Text(dm_data::corpus::breast_cancer_arff()),
    );
    bindings.insert((task, 1), Token::Text("Class".into()));
    bindings.insert((task, 2), Token::Text(String::new()));
    bindings
}

#[test]
fn dead_primary_migrates_to_replica() {
    let toolkit = Toolkit::with_hosts(&["a", "b"]).unwrap();
    let mut tools = toolkit.import_service("a", "J48").unwrap();
    let classify = tools.remove(0);
    assert_eq!(classify.hosts(), ["a".to_string(), "b".to_string()]);
    toolkit.network().set_host_down("a", true);
    let out = classify
        .execute(&[
            Token::Text(dm_data::corpus::breast_cancer_arff()),
            Token::Text("Class".into()),
            Token::Text(String::new()),
        ])
        .unwrap();
    assert!(matches!(&out[0], Token::Text(t) if t.contains("node-caps")));
}

#[test]
fn workflow_completes_under_probabilistic_faults() {
    let toolkit = Toolkit::with_hosts(&["a", "b", "c"]).unwrap();
    let net = toolkit.network();
    // Import over a healthy network; inject faults afterwards (the
    // WSDL fetch itself crosses the same links).
    let mut tools = toolkit.import_service("a", "J48").unwrap();
    let classify = tools.remove(0);
    net.set_failure_probability("a", 0.6);
    net.reseed_faults(1234);
    let mut graph = TaskGraph::new();
    let t = graph.add_task(Arc::new(classify));
    let bindings = classify_bindings(t);
    // Engine retries on top of host failover: enactment must succeed.
    let report = Executor::serial()
        .with_max_attempts(5)
        .run(&graph, &bindings)
        .unwrap();
    assert!(report.output(t, 0).is_some());
}

#[test]
fn all_hosts_down_fails_cleanly() {
    let toolkit = Toolkit::with_hosts(&["a", "b"]).unwrap();
    let net = toolkit.network();
    let mut tools = toolkit.import_service("a", "J48").unwrap();
    let classify = tools.remove(0);
    net.set_host_down("a", true);
    net.set_host_down("b", true);
    let mut graph = TaskGraph::new();
    let t = graph.add_task(Arc::new(classify));
    let bindings = classify_bindings(t);
    let err = Executor::serial()
        .with_max_attempts(2)
        .run(&graph, &bindings)
        .unwrap_err();
    assert!(matches!(err, dm_workflow::WorkflowError::TaskFailed { .. }));
}

#[test]
fn scripted_outage_recovers_via_breaker_guided_failover() {
    let mut toolkit = Toolkit::with_hosts(&["a", "b"]).unwrap();
    toolkit.enable_resilience(
        ResiliencePolicy::default().attempts(2),
        BreakerConfig {
            min_calls: 2,
            ..BreakerConfig::default()
        },
    );
    let mut tools = toolkit.import_service("a", "J48").unwrap();
    let classify = Arc::new(tools.remove(0));
    let net = toolkit.network();
    // Host "a" dies mid-run: a scripted outage window opens at the
    // current virtual instant and outlasts the whole workflow.
    let now = net.now();
    net.add_outage("a", now, now + Duration::from_secs(300));

    let mut graph = TaskGraph::new();
    let t = graph.add_task(Arc::clone(&classify) as Arc<dyn Tool>);
    let bindings = classify_bindings(t);
    let report = toolkit
        .resilient_executor(Some(4))
        .run(&graph, &bindings)
        .unwrap();
    assert!(report.output(t, 0).is_some());

    // The per-call record shows who served and what the detour cost:
    // two attempts (with backoff) burned on "a", then "b" answered.
    assert_eq!(classify.last_served_host(), Some("b".to_string()));
    let stats = classify.last_call_stats();
    assert!(stats.attempts >= 3, "attempts {}", stats.attempts);
    assert!(stats.backoff > Duration::ZERO);

    // The network monitor agrees: transport errors on "a", clean
    // service from "b".
    let hosts = net.monitor().summary_by_host();
    let a = hosts.iter().find(|h| h.host == "a").unwrap();
    assert!(
        a.transport_errors >= 2,
        "a saw {} transport errors",
        a.transport_errors
    );
    let b = hosts.iter().find(|h| h.host == "b").unwrap();
    assert!((b.failure_rate - 0.0).abs() < 1e-12);

    // Those failures tripped "a"'s breaker, and the tool demoted it, so
    // the next call is served by "b" without touching "a" at all.
    let board = toolkit.resilience().unwrap().board();
    assert_eq!(board.breaker("a").state(net.now()), BreakerState::Open);
    assert_eq!(classify.hosts(), ["b".to_string(), "a".to_string()]);
    let a_attempts_before = a.invocations;
    classify
        .execute(&[
            Token::Text(dm_data::corpus::breast_cancer_arff()),
            Token::Text("Class".into()),
            Token::Text(String::new()),
        ])
        .unwrap();
    let hosts = net.monitor().summary_by_host();
    let a = hosts.iter().find(|h| h.host == "a").unwrap();
    assert_eq!(
        a.invocations, a_attempts_before,
        "open breaker must not admit calls to a"
    );

    let degraded = toolkit.degraded_mode_report();
    assert!(degraded.contains("open breakers: a"), "{degraded}");
}

#[test]
fn breaker_half_open_probe_restores_service() {
    let mut toolkit = Toolkit::with_hosts(&["a"]).unwrap();
    toolkit.enable_resilience(
        ResiliencePolicy::default().attempts(1),
        BreakerConfig {
            min_calls: 2,
            open_for: Duration::from_millis(200),
            ..BreakerConfig::default()
        },
    );
    let caller = toolkit.resilience().unwrap().clone();
    let net = toolkit.network();
    net.set_host_down("a", true);

    // Repeated failures trip the breaker.
    for _ in 0..2 {
        assert!(caller
            .invoke("a", "Classifier", "getClassifiers", vec![])
            .0
            .is_err());
    }
    assert_eq!(
        caller.board().breaker("a").state(net.now()),
        BreakerState::Open
    );

    // While open, calls fail fast without touching the network.
    let events_before = net.monitor().len();
    let err = caller
        .invoke("a", "Classifier", "getClassifiers", vec![])
        .0
        .unwrap_err();
    assert!(
        matches!(err, dm_wsrf::WsError::CircuitOpen(_)),
        "got: {err}"
    );
    assert_eq!(net.monitor().len(), events_before);

    // The host recovers; once the open window lapses a half-open probe
    // is admitted, succeeds, and closes the breaker.
    net.set_host_down("a", false);
    net.advance_virtual_time(Duration::from_millis(250));
    assert_eq!(
        caller.board().breaker("a").state(net.now()),
        BreakerState::HalfOpen
    );
    let names = caller
        .invoke("a", "Classifier", "getClassifiers", vec![])
        .0
        .unwrap();
    assert!(!names.as_list().unwrap().is_empty());
    assert_eq!(
        caller.board().breaker("a").state(net.now()),
        BreakerState::Closed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn retry_schedules_terminate_within_the_deadline_budget(
        deadline_ms in 1u64..1_000,
        attempts in 1u32..16,
        base_us in 100u64..50_000,
        cap_ms in 1u64..500,
        seed in any::<u64>(),
    ) {
        // Whatever the policy shape, a call against a dead host must
        // terminate, and the backoff it charges to the virtual clock
        // must stay inside the deadline budget.
        let net = Arc::new(Network::new());
        net.add_host("dead");
        net.set_host_down("dead", true);
        let base = Duration::from_micros(base_us);
        let cap = Duration::from_millis(cap_ms).max(base);
        let policy = ResiliencePolicy::with_deadline(Duration::from_millis(deadline_ms))
            .attempts(attempts)
            .backoff(base, cap);
        let caller = ResilientCaller::new(
            Arc::clone(&net),
            Arc::new(BreakerBoard::new(BreakerConfig {
                // Effectively disabled: this property is about the
                // retry/backoff schedule, not breaker behaviour.
                failure_rate_to_open: 2.0,
                ..BreakerConfig::default()
            })),
            policy,
        )
        .with_seed(seed);

        let before = net.now();
        let (result, stats) = caller.invoke("dead", "Classifier", "getClassifiers", vec![]);
        let elapsed = net.now() - before;
        prop_assert!(result.is_err());
        prop_assert!(stats.attempts <= attempts);
        prop_assert!(
            stats.backoff < policy.deadline,
            "backoff {:?} must stay under deadline {:?}",
            stats.backoff,
            policy.deadline
        );
        // Elapsed virtual time = backoff charged plus per-attempt wire
        // costs; the backoff part never overruns the deadline.
        prop_assert!(elapsed >= stats.backoff);
    }
}

#[test]
fn injected_faults_do_not_corrupt_results() {
    // With failover, the result must equal the failure-free run.
    let clean_toolkit = Toolkit::with_hosts(&["x"]).unwrap();
    let clean = clean_toolkit
        .j48_client()
        .classify(&dm_data::corpus::breast_cancer_arff(), "Class", "")
        .unwrap();

    let toolkit = Toolkit::with_hosts(&["a", "b"]).unwrap();
    let mut tools = toolkit.import_service("a", "J48").unwrap();
    let classify = tools.remove(0);
    toolkit.network().set_host_down("a", true);
    let out = classify
        .execute(&[
            Token::Text(dm_data::corpus::breast_cancer_arff()),
            Token::Text("Class".into()),
            Token::Text(String::new()),
        ])
        .unwrap();
    assert_eq!(out[0], Token::Text(clean));
}

/// One row of E9's breaker-comparison table: a flaky primary "a" at
/// p = 0.3 with healthy replicas "b" and "c", 60 `J48.classify` calls.
/// Returns (wasted attempts, virtual cost, successes).
fn breaker_comparison_row(with_breakers: bool) -> (usize, Duration, usize) {
    let mut toolkit = Toolkit::with_hosts(&["a", "b", "c"]).unwrap();
    if with_breakers {
        toolkit.enable_resilience(
            ResiliencePolicy::default().attempts(1),
            BreakerConfig::default(),
        );
    }
    let classify = toolkit.import_service("a", "J48").unwrap().remove(0);
    let net = toolkit.network();
    net.set_failure_probability("a", 0.3);
    net.reseed_faults(7);
    let arff = dm_data::corpus::breast_cancer_arff();
    let before = net.now();
    let ok = (0..60)
        .filter(|_| {
            classify
                .execute(&[
                    Token::Text(arff.clone()),
                    Token::Text("Class".into()),
                    Token::Text(String::new()),
                ])
                .is_ok()
        })
        .count();
    let wasted = net
        .monitor()
        .summary_by_host()
        .iter()
        .map(|s| s.faults + s.transport_errors)
        .sum();
    (wasted, net.now() - before, ok)
}

#[test]
fn e9_breaker_table_figures_are_pinned() {
    // The exact figures E9 prints. Any change to failover order,
    // demotion, breaker accounting or the fault stream moves them.
    assert_eq!(
        breaker_comparison_row(false),
        (37, Duration::from_nanos(80_282_592), 60),
        "naive row"
    );
    assert_eq!(
        breaker_comparison_row(true),
        (1, Duration::from_nanos(69_779_040), 60),
        "breakers row"
    );
}

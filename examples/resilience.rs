//! The resilience layer end to end: a toolkit with circuit breakers and
//! retry budgets enabled rides out a scripted mid-run outage, the
//! breaker routes follow-up traffic around the dead host, and a
//! half-open probe restores it once the outage window lapses.
//!
//! Run with `cargo run --example resilience`.

#![forbid(unsafe_code)]

use dm_workflow::graph::{TaskGraph, Token, Tool};
use faehim::prelude::{BreakerConfig, ResiliencePolicy};
use faehim::Toolkit;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut toolkit = Toolkit::with_hosts(&["wesc-a", "wesc-b"]).expect("toolkit");
    toolkit.enable_resilience(
        ResiliencePolicy::default()
            .attempts(2)
            .backoff(Duration::from_millis(5), Duration::from_millis(80)),
        BreakerConfig {
            min_calls: 2,
            open_for: Duration::from_secs(2),
            ..BreakerConfig::default()
        },
    );

    println!("=== Scripted outage: breaker-guided failover ===");
    let mut tools = toolkit.import_service("wesc-a", "J48").expect("import");
    let classify = Arc::new(tools.remove(0));
    let net = toolkit.network();
    let now = net.now();
    net.add_outage("wesc-a", now, now + Duration::from_secs(1));
    println!("outage window opened on wesc-a at t={now:?} (+1s)");

    let mut graph = TaskGraph::new();
    let t = graph.add_task(Arc::clone(&classify) as Arc<dyn Tool>);
    let mut bindings = HashMap::new();
    bindings.insert((t, 0), Token::Text(dm_data::corpus::breast_cancer_arff()));
    bindings.insert((t, 1), Token::Text("Class".into()));
    bindings.insert((t, 2), Token::Text(String::new()));
    let report = toolkit
        .resilient_executor(Some(4))
        .run(&graph, &bindings)
        .expect("resilient run");
    println!(
        "workflow completed: served by {:?}, {} attempts, {:?} backoff, budget left {:?}",
        classify.last_served_host(),
        classify.last_call_stats().attempts,
        classify.last_call_stats().backoff,
        report.retry_budget_remaining,
    );

    println!("\n=== Degraded-mode report ===");
    println!("{}", toolkit.degraded_mode_report());

    println!("=== Recovery: half-open probe after the window lapses ===");
    net.advance_virtual_time(Duration::from_secs(3));
    let caller = toolkit.resilience().expect("resilience enabled");
    let breaker = caller.board().breaker("wesc-a");
    println!("breaker state after 3s: {:?}", breaker.state(net.now()));
    caller
        .invoke("wesc-a", "Classifier", "getClassifiers", vec![])
        .0
        .expect("probe succeeds once the outage lapses");
    println!(
        "probe succeeded; breaker state: {:?}",
        breaker.state(net.now())
    );

    println!("\n=== Per-host traffic summary ===");
    for h in net.monitor().summary_by_host() {
        println!(
            "  {}: {} invocations, {} transport errors, failure rate {:.2}",
            h.host, h.invocations, h.transport_errors, h.failure_rate
        );
    }
}

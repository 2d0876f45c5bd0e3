//! Cost- and locality-aware composition planning (E20): an abstract
//! goal — "convert a CSV, then train a classifier on it" — is bound to
//! concrete service replicas by a QoS knapsack over live telemetry.
//! The planner reads per-host queue depth and latency tails from the
//! deployment, credits the `DataRef` dedup when adjacent data-heavy
//! steps share a host, and emits an enactable workflow pinned to its
//! chosen replicas.
//!
//! Run with `cargo run --example planned_composition`.

#![forbid(unsafe_code)]

use dm_workflow::engine::Executor;
use dm_workflow::graph::{TaskId, Token};
use dm_workflow::planner::{Goal, Planner};
use dm_wsrf::container::CapacityConfig;
use faehim::Toolkit;
use std::collections::HashMap;
use std::time::Duration;

fn main() {
    let tk = Toolkit::with_hosts(&["wesc-a", "wesc-b", "wesc-c"]).expect("toolkit");
    // A capacity model per host, so queue depth is a real, observable
    // signal for the planner to price.
    tk.enable_admission_control(CapacityConfig {
        workers: 2,
        queue_limit: None,
        service_time: Duration::from_millis(3),
    });
    let csv = dm_data::csv::write_csv(&dm_data::corpus::breast_cancer());

    // The abstract goal: categories and operations, no hosts, no
    // services — selection is the planner's job.
    let goal = Goal::chain(&[
        ("data-handling", "csvToArff", csv.len()),
        ("classifier", "classify", csv.len()),
    ]);

    println!("=== Cold start: empty telemetry, locality decides ===");
    let (plan, graph, tasks) = tk
        .plan_composition(&goal, &Planner::default())
        .expect("plan");
    for a in &plan.assignments {
        println!(
            "  step{} {} -> {}.{} on {} ({} predicted wire bytes{})",
            a.step + 1,
            a.category,
            a.service,
            a.operation,
            a.host,
            a.predicted_bytes,
            if a.colocated {
                ", colocated DataRef hop"
            } else {
                ""
            }
        );
    }
    println!(
        "  predicted: {:?} makespan, {} bytes moved",
        plan.predicted_makespan, plan.predicted_bytes_moved
    );

    // Enact the bound workflow: the CSV feeds step 1; the cable carries
    // the converted ARFF into the classifier.
    let mut bindings: HashMap<(TaskId, usize), Token> = HashMap::new();
    bindings.insert((tasks[0], 0), Token::Text(csv.clone()));
    bindings.insert((tasks[1], 1), Token::Text("Class".into()));
    bindings.insert((tasks[1], 2), Token::Text(String::new()));
    let report = Executor::serial().run(&graph, &bindings).expect("enact");
    let model = report.output(tasks[1], 0).expect("model output");
    if let Token::Text(text) = model {
        println!(
            "  trained model: {} chars, first line {:?}",
            text.len(),
            text.lines().next().unwrap_or("")
        );
    }

    println!("\n=== Telemetry shifts, the plan follows ===");
    // Pile synthetic work onto the chosen host: the next plan routes
    // around the queue the first one created.
    let favourite = plan.assignments[0].host.clone();
    let net = tk.network();
    let t0 = net.now();
    for _ in 0..24 {
        net.set_virtual_time(t0); // open loop: all arrivals at once
        let _ = net.invoke(&favourite, "Classifier", "getClassifiers", vec![]);
    }
    net.set_virtual_time(t0); // rewind into the busy window
    let (replan, _, _) = tk
        .plan_composition(&goal, &Planner::default())
        .expect("replan");
    println!(
        "  {} now carries {} outstanding requests",
        favourite,
        net.load_snapshot().get(&favourite).copied().unwrap_or(0)
    );
    println!(
        "  replanned placement: {:?} (was {:?})",
        replan.hosts(),
        plan.hosts()
    );
    assert_ne!(
        replan.assignments[0].host, favourite,
        "the planner must route around the queue it can see"
    );

    println!("\n=== Why it moved: the cost snapshot ===");
    let cost = tk.cost_model();
    for (host, hc) in cost.hosts() {
        println!(
            "  {host}: {} outstanding, p99 {:?}, shed rate {:.2}, breaker open: {}",
            hc.outstanding,
            hc.p99.unwrap_or_default(),
            hc.shed_rate,
            hc.breaker_open
        );
    }
}

//! Event-sourced durable enactment: the §5 case-study workflow is
//! journalled as it runs, the orchestrator is killed part-way through,
//! and a fresh process resumes from the surviving log bytes — completed
//! tasks are restored from the journal (zero re-execution) and the
//! recovered report is byte-identical to an uninterrupted run's.
//!
//! Run with `cargo run --example durable_enactment`.

#![forbid(unsafe_code)]

use dm_workflow::durable::DurableConfig;
use dm_workflow::journal::{RunEvent, RunJournal};
use faehim::casestudy::build_case_study;
use faehim::Toolkit;
use std::sync::Arc;

fn main() {
    let mut toolkit = Toolkit::new().expect("toolkit");
    toolkit.enable_data_plane();
    // One worker runs the claims in a fixed order on the calling
    // thread. A record carries its attempt's virtual duration, which
    // concurrent calls on the shared clock would stretch, so every
    // figure printed below is the same on every run.
    let journal = toolkit.enable_durable_enactment(1);
    let store = toolkit.network().client_store().expect("client store");
    let (graph, _tasks, bindings) = build_case_study(&toolkit).expect("case study");

    println!("=== Uninterrupted durable run (the baseline) ===");
    let baseline = toolkit.run_durable(&graph, &bindings).expect("baseline");
    let stats = journal.stats();
    println!(
        "10 tasks journalled: {} appends, {} records, {} bytes \
         (large outputs live in the content-addressed store)",
        stats.appends, stats.records, stats.bytes
    );

    println!("\n=== Kill the orchestrator mid-run ===");
    // A fresh journal for the doomed enactment; the kill point lands
    // after the 13th append — six tasks completed.
    let doomed = Arc::new(RunJournal::with_store(Arc::clone(&store), 1024));
    let config = DurableConfig::new(Arc::clone(&doomed))
        .with_workers(1)
        .with_kill_after_appends(13);
    let err = toolkit
        .resilient_executor(None)
        .run_durable(&graph, &bindings, &config)
        .expect_err("scripted crash");
    println!("orchestrator died: {err}");

    println!("\n=== Resume from the surviving bytes ===");
    // Process boundary: only the journal bytes and the store survive.
    let survived =
        Arc::new(RunJournal::from_bytes(&doomed.bytes()).attach_store(Arc::clone(&store), 1024));
    let completed_before = survived.replay().completed.len();
    println!("the log records {completed_before} completed tasks — none will re-execute");
    toolkit.adopt_journal(Arc::clone(&survived));
    let resumed = toolkit.run_durable(&graph, &bindings).expect("resume");
    println!(
        "resumed: {} replayed from the log, {} executed fresh",
        resumed.replay_hits(),
        resumed.runs.iter().filter(|r| !r.replayed).count()
    );
    assert_eq!(resumed.canonical_bytes(), baseline.canonical_bytes());
    println!("recovered report is byte-identical to the uninterrupted run");

    println!("\n=== What the journal holds ===");
    for event in survived.events().iter().take(6) {
        match event {
            RunEvent::RunStarted { tasks, fingerprint } => {
                println!("run-started    {tasks} tasks, graph fingerprint {fingerprint:#034x}")
            }
            RunEvent::TaskStarted { task, name } => println!("task-started   #{task} {name}"),
            RunEvent::TaskCompleted { task, name, .. } => {
                println!("task-completed #{task} {name}")
            }
            other => println!("{other:?}"),
        }
    }
    println!("...");

    println!("\n=== Recovery counters (Prometheus export) ===");
    let metrics = toolkit.metrics_registry();
    for line in metrics.export_prometheus().lines() {
        if line.starts_with("faehim_journal") || line.starts_with("faehim_replay") {
            println!("{line}");
        }
    }
}

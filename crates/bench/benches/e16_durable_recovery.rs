//! E16 — durable enactment recovery: kill the orchestrator at 1/4,
//! 1/2, and 3/4 of the journal's append schedule on the §5 case-study
//! workflow and a distributed-mining fan-out, then compare resuming
//! from the log against naively re-running the whole workflow.
//!
//! Three numbers are reported per workload and crash point:
//!
//! * **replayed / re-executed** — how many tasks the resumed
//!   orchestrator restored from the log versus ran fresh. Completed
//!   tasks are never re-executed; the resumed report's canonical bytes
//!   are asserted identical to an uninterrupted run's.
//! * **virtual compute restored** — the simulated task time the replay
//!   recovered without executing anything (the deterministic headline:
//!   service caches make repeat wall-clocks flattering, the virtual
//!   clock does not lie).
//! * **measured wall-clock** — resume versus naive re-run on this
//!   host, included for honesty; warm service caches shrink both.
//!
//! The table comes from one-worker runs: with a single worker, records
//! land in the journal in dispatch order, so journal bytes and the
//! replay split repeat exactly from run to run. With several workers
//! they land in whichever order the workers acknowledge, so each crash
//! point is also crashed and resumed on a 4-worker pool, where only the
//! invariants are asserted.
//!
//! `FAEHIM_E16_SMOKE=1` checks only the mid-run crash point for CI.

use criterion::{criterion_group, criterion_main, Criterion};
use dm_bench::banner;
use dm_workflow::durable::DurableConfig;
use dm_workflow::engine::ExecutionReport;
use dm_workflow::graph::{TaskGraph, TaskId, Token, Tool};
use dm_workflow::journal::RunJournal;
use faehim::casestudy::build_case_study;
use faehim::Toolkit;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const INLINE_LIMIT: usize = 1024;
/// Pool width of the runs the table reports.
const TABLE_WORKERS: usize = 1;
/// Pool width of the extra crash-and-resume check at each crash point.
const WORKERS: usize = 4;

fn smoke() -> bool {
    std::env::var("FAEHIM_E16_SMOKE").is_ok()
}

type Bindings = HashMap<(TaskId, usize), Token>;

/// The distributed-mining fan-out: a local dataset fans out to three
/// classifier cross-validations hosted on three replica hosts.
fn build_distributed_mining(toolkit: &Toolkit) -> (TaskGraph, Bindings) {
    let mut graph = TaskGraph::new();
    let dataset = graph.add_task(Arc::new(faehim::tools::LocalDataset::breast_cancer()));
    let mut bindings = HashMap::new();
    for (host, classifier) in [
        ("wesc-a", "J48"),
        ("wesc-b", "NaiveBayes"),
        ("wesc-c", "IBk"),
    ] {
        let tools = toolkit.import_service(host, "Classifier").expect("import");
        let cv = tools
            .into_iter()
            .find(|t| t.name().ends_with(".crossValidate"))
            .expect("crossValidate tool");
        let id = graph.add_named_task(format!("cv-{classifier}"), Arc::new(cv));
        graph.connect(dataset, 0, id, 0).expect("wire dataset");
        bindings.insert((id, 1), Token::Text(classifier.into()));
        bindings.insert((id, 2), Token::Text(String::new()));
        bindings.insert((id, 3), Token::Text("Class".into()));
        bindings.insert((id, 4), Token::Int(10));
    }
    (graph, bindings)
}

struct CrashPointReport {
    kill_after: u64,
    replayed: usize,
    re_executed: usize,
    virtual_restored: Duration,
    resume_wall: Duration,
}

struct WorkloadReport {
    name: &'static str,
    tasks: usize,
    total_appends: u64,
    journal_bytes: u64,
    naive_wall: Duration,
    naive_virtual: Duration,
    crash_points: Vec<CrashPointReport>,
}

/// Kill a `workers`-wide durable run after `kill_after` appends, then
/// resume it from the surviving journal bytes. Returns the resumed
/// report and the resume's wall-clock time.
fn crash_and_resume(
    toolkit: &Toolkit,
    graph: &TaskGraph,
    bindings: &Bindings,
    kill_after: u64,
    workers: usize,
) -> (ExecutionReport, Duration) {
    let store = toolkit.network().client_store().expect("data plane store");
    let doomed = Arc::new(RunJournal::with_store(Arc::clone(&store), INLINE_LIMIT));
    let config = DurableConfig::new(Arc::clone(&doomed))
        .with_workers(workers)
        .with_kill_after_appends(kill_after);
    toolkit
        .resilient_executor(None)
        .run_durable(graph, bindings, &config)
        .expect_err("scripted crash");

    // Process boundary: only the bytes and the store survive.
    let survived = Arc::new(
        RunJournal::from_bytes(&doomed.bytes()).attach_store(Arc::clone(&store), INLINE_LIMIT),
    );
    let start = Instant::now();
    let resumed = toolkit
        .resilient_executor(None)
        .run_durable(
            graph,
            bindings,
            &DurableConfig::new(Arc::clone(&survived)).with_workers(workers),
        )
        .expect("resume");
    (resumed, start.elapsed())
}

/// Assert the recovery invariants of one resumed run; returns its
/// replayed / re-executed split.
fn check_resume(
    name: &str,
    graph: &TaskGraph,
    resumed: &ExecutionReport,
    expected: &[u8],
    kill_after: u64,
    workers: usize,
) -> (usize, usize) {
    assert_eq!(
        resumed.canonical_bytes(),
        expected,
        "{name}: resumed report differs at kill point {kill_after} ({workers} workers)"
    );
    let replayed = resumed.replay_hits();
    let re_executed = resumed.runs.iter().filter(|r| !r.replayed).count();
    assert_eq!(
        replayed + re_executed,
        graph.num_tasks(),
        "{name}: replay/re-execution split does not cover the graph ({workers} workers)"
    );
    (replayed, re_executed)
}

fn run_workload(
    name: &'static str,
    toolkit: &Toolkit,
    graph: &TaskGraph,
    bindings: &Bindings,
) -> WorkloadReport {
    let store = toolkit.network().client_store().expect("data plane store");
    let journal = Arc::new(RunJournal::with_store(Arc::clone(&store), INLINE_LIMIT));
    let start = Instant::now();
    let baseline = toolkit
        .resilient_executor(None)
        .run_durable(
            graph,
            bindings,
            &DurableConfig::new(Arc::clone(&journal)).with_workers(TABLE_WORKERS),
        )
        .expect("baseline durable run");
    let naive_wall = start.elapsed();
    let expected = baseline.canonical_bytes();
    let stats = journal.stats();
    let total_appends = stats.appends;

    let kill_points: Vec<u64> = if smoke() {
        vec![total_appends / 2]
    } else {
        vec![total_appends / 4, total_appends / 2, 3 * total_appends / 4]
    };

    let mut crash_points = Vec::new();
    for kill_after in kill_points {
        let (resumed, resume_wall) =
            crash_and_resume(toolkit, graph, bindings, kill_after, TABLE_WORKERS);
        let (replayed, re_executed) =
            check_resume(name, graph, &resumed, &expected, kill_after, TABLE_WORKERS);
        let (pooled, _) = crash_and_resume(toolkit, graph, bindings, kill_after, WORKERS);
        check_resume(name, graph, &pooled, &expected, kill_after, WORKERS);
        let virtual_restored = resumed
            .runs
            .iter()
            .filter(|r| r.replayed)
            .map(|r| r.virtual_duration)
            .sum();
        crash_points.push(CrashPointReport {
            kill_after,
            replayed,
            re_executed,
            virtual_restored,
            resume_wall,
        });
    }

    WorkloadReport {
        name,
        tasks: graph.num_tasks(),
        total_appends,
        journal_bytes: stats.bytes,
        naive_wall,
        naive_virtual: baseline.virtual_elapsed,
        crash_points,
    }
}

fn report(w: &WorkloadReport) {
    println!(
        "{}: {} tasks, {} appends, {} journal bytes; naive re-run {:.1} ms wall / {:.1} ms virtual",
        w.name,
        w.tasks,
        w.total_appends,
        w.journal_bytes,
        w.naive_wall.as_secs_f64() * 1e3,
        w.naive_virtual.as_secs_f64() * 1e3,
    );
    for cp in &w.crash_points {
        println!(
            "  kill@{:<2} replayed {} / re-executed {} — restored {:.1} ms virtual compute, resume {:.1} ms wall",
            cp.kill_after,
            cp.replayed,
            cp.re_executed,
            cp.virtual_restored.as_secs_f64() * 1e3,
            cp.resume_wall.as_secs_f64() * 1e3,
        );
    }
}

fn bench(c: &mut Criterion) {
    banner(
        "E16",
        "durable enactment: resume-from-log recovery vs naive re-run across crash points",
    );

    // --- Case-study workflow (10 tasks, single host). ----------------
    let tk = Toolkit::new().expect("toolkit");
    tk.enable_data_plane();
    let (graph, _tasks, bindings) = build_case_study(&tk).expect("case study");
    let case_study = run_workload("case-study", &tk, &graph, &bindings);
    report(&case_study);

    // --- Distributed-mining fan-out (4 tasks, three hosts). ----------
    let dtk = Toolkit::with_hosts(&["wesc-a", "wesc-b", "wesc-c"]).expect("toolkit");
    dtk.enable_data_plane();
    let (dgraph, dbindings) = build_distributed_mining(&dtk);
    let distributed = run_workload("distributed-mining", &dtk, &dgraph, &dbindings);
    report(&distributed);

    // Acceptance: at every crash point the resumed run re-executed
    // exactly the tasks the log had no completion for (an early crash
    // legitimately replays nothing), and the deepest crash point
    // recovered real work.
    for w in [&case_study, &distributed] {
        for cp in &w.crash_points {
            assert_eq!(
                cp.re_executed,
                w.tasks - cp.replayed,
                "{} kill@{}: completed tasks were re-executed",
                w.name,
                cp.kill_after
            );
        }
        let deepest = w.crash_points.last().expect("crash points");
        assert!(
            deepest.replayed > 0,
            "{}: deepest crash point replayed nothing",
            w.name
        );
    }

    if smoke() {
        return;
    }
    let store = tk.network().client_store().expect("store");
    let mid = case_study.total_appends / 2;
    let mut group = c.benchmark_group("e16_durable_recovery");
    group.bench_function("naive_rerun", |b| {
        b.iter(|| {
            let journal = Arc::new(RunJournal::with_store(Arc::clone(&store), INLINE_LIMIT));
            let report = tk
                .resilient_executor(None)
                .run_durable(&graph, &bindings, &DurableConfig::new(journal))
                .unwrap();
            black_box(report.runs.len())
        })
    });
    group.bench_function("resume_from_mid_crash", |b| {
        b.iter(|| {
            let doomed = Arc::new(RunJournal::with_store(Arc::clone(&store), INLINE_LIMIT));
            let config = DurableConfig::new(Arc::clone(&doomed))
                .with_workers(WORKERS)
                .with_kill_after_appends(mid);
            tk.resilient_executor(None)
                .run_durable(&graph, &bindings, &config)
                .unwrap_err();
            let survived = Arc::new(
                RunJournal::from_bytes(&doomed.bytes())
                    .attach_store(Arc::clone(&store), INLINE_LIMIT),
            );
            let report = tk
                .resilient_executor(None)
                .run_durable(&graph, &bindings, &DurableConfig::new(survived))
                .unwrap();
            black_box(report.replay_hits())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

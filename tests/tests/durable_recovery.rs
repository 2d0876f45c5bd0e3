//! E16 — event-sourced durable enactment: crash the orchestrator at
//! every journal-append boundary of the §5 case-study workflow and
//! prove a fresh process resumes from the surviving log bytes to a
//! byte-identical report, with zero re-execution of completed tasks.

#![forbid(unsafe_code)]

use dm_workflow::durable::DurableConfig;
use dm_workflow::error::WorkflowError;
use dm_workflow::journal::{RunEvent, RunJournal};
use dm_workflow::memo::MemoCache;
use faehim::casestudy::build_case_study;
use faehim::Toolkit;
use std::sync::Arc;

const INLINE_LIMIT: usize = 1024;

/// The boundary-exhaustive property: for every append count `k` in the
/// uninterrupted run's journal, killing the orchestrator right after
/// its `k`-th append and resuming from the surviving bytes in a fresh
/// journal (the process boundary) yields canonical report bytes
/// identical to the uninterrupted run — at worker-pool widths 1 and 4.
#[test]
fn crash_at_every_append_boundary_resumes_byte_identical() {
    let mut tk = Toolkit::new().unwrap();
    tk.enable_data_plane();
    let journal = tk.enable_durable_enactment(4);
    let store = tk.network().client_store().expect("data plane store");
    let (graph, _tasks, bindings) = build_case_study(&tk).unwrap();

    let baseline = tk.run_durable(&graph, &bindings).unwrap();
    let expected = baseline.canonical_bytes();
    assert_eq!(baseline.runs.len(), 10);
    assert_eq!(baseline.replay_hits(), 0);
    // 1 run-started + 10 task-started + 10 task-completed +
    // 1 run-finished: the full append schedule, every one a kill point.
    let total_appends = journal.stats().appends;
    assert_eq!(total_appends, 22, "unexpected append schedule");

    for workers in [1usize, 4] {
        for kill_at in 1..=total_appends {
            let crash_journal = Arc::new(RunJournal::with_store(Arc::clone(&store), INLINE_LIMIT));
            let config = DurableConfig::new(Arc::clone(&crash_journal))
                .with_workers(workers)
                .with_kill_after_appends(kill_at);
            let err = tk
                .resilient_executor(None)
                .run_durable(&graph, &bindings, &config)
                .unwrap_err();
            assert!(
                matches!(err, WorkflowError::Crashed { appended } if appended == kill_at),
                "workers={workers} kill={kill_at}: {err}"
            );

            // Process boundary: only the journal bytes and the
            // content-addressed store survive the crash.
            let survived = Arc::new(
                RunJournal::from_bytes(&crash_journal.bytes())
                    .attach_store(Arc::clone(&store), INLINE_LIMIT),
            );
            let completed_at_crash = survived.replay().completed.len();
            let resume_config = DurableConfig::new(Arc::clone(&survived)).with_workers(workers);
            let resumed = tk
                .resilient_executor(None)
                .run_durable(&graph, &bindings, &resume_config)
                .unwrap();

            assert_eq!(
                resumed.canonical_bytes(),
                expected,
                "workers={workers} kill={kill_at}: resumed report differs"
            );
            // Completed tasks were restored from the log, not re-run.
            assert_eq!(resumed.replay_hits(), completed_at_crash);
            assert_eq!(survived.stats().replay_hits, completed_at_crash as u64);
            assert_eq!(
                resumed.runs.iter().filter(|r| !r.replayed).count(),
                10 - completed_at_crash,
                "workers={workers} kill={kill_at}: re-execution count wrong"
            );
            assert!(survived.replay().finished);
        }
    }
}

/// Memo entries built by a dead process are re-seeded from the journal
/// on resume: replayed pure tasks land in the fresh process's cache
/// without executing, and replay hits are counted exactly once.
#[test]
fn memo_hits_survive_crash_recovery() {
    let mut tk = Toolkit::new().unwrap();
    tk.enable_data_plane();
    tk.enable_durable_enactment(4);
    let store = tk.network().client_store().expect("data plane store");
    let (graph, _tasks, bindings) = build_case_study(&tk).unwrap();

    // Uninterrupted memoised baseline: warms a cold cache.
    let warm_memo = Arc::new(MemoCache::default());
    let baseline_journal = Arc::new(RunJournal::with_store(Arc::clone(&store), INLINE_LIMIT));
    let baseline = tk
        .resilient_executor(None)
        .with_memoisation(Arc::clone(&warm_memo))
        .run_durable(&graph, &bindings, &DurableConfig::new(baseline_journal))
        .unwrap();
    let warm_entries = warm_memo.len();
    assert!(warm_entries > 0, "case study has no pure tasks to memoise");

    // Crash a second cold process mid-run (after the 12th append the
    // run is part-way through its completions).
    let crash_journal = Arc::new(RunJournal::with_store(Arc::clone(&store), INLINE_LIMIT));
    let err = tk
        .resilient_executor(None)
        .with_memoisation(Arc::new(MemoCache::default()))
        .run_durable(
            &graph,
            &bindings,
            &DurableConfig::new(Arc::clone(&crash_journal)).with_kill_after_appends(12),
        )
        .unwrap_err();
    assert!(matches!(err, WorkflowError::Crashed { .. }));

    // Fresh process, fresh (empty) memo cache: resume from the bytes.
    let survived = Arc::new(
        RunJournal::from_bytes(&crash_journal.bytes())
            .attach_store(Arc::clone(&store), INLINE_LIMIT),
    );
    let replayed_count = survived.replay().completed.len();
    assert!(
        replayed_count > 0,
        "kill point landed before any completion"
    );
    let recovered_memo = Arc::new(MemoCache::default());
    let resumed = tk
        .resilient_executor(None)
        .with_memoisation(Arc::clone(&recovered_memo))
        .run_durable(
            &graph,
            &bindings,
            &DurableConfig::new(Arc::clone(&survived)),
        )
        .unwrap();

    assert_eq!(resumed.canonical_bytes(), baseline.canonical_bytes());
    assert_eq!(resumed.runs.len(), 10);
    // Replay hits counted exactly once — journal counter and report
    // agree, and replayed tasks never re-executed.
    assert_eq!(resumed.replay_hits(), replayed_count);
    assert_eq!(survived.stats().replay_hits, replayed_count as u64);
    // The dead process's pure completions were re-seeded into the
    // fresh cache from the journal (not by running the tools), so a
    // warm re-enactment after recovery hits memo like the baseline.
    assert!(
        !recovered_memo.is_empty(),
        "replayed pure tasks were not re-seeded into the memo cache"
    );
    let warm = tk
        .resilient_executor(None)
        .with_memoisation(Arc::clone(&recovered_memo))
        .run(&graph, &bindings)
        .unwrap();
    assert_eq!(warm.memo_hits(), warm_entries);
    assert_eq!(warm.canonical_bytes(), baseline.canonical_bytes());
}

/// A corrupted journal tail is dropped, never trusted: flipping a byte
/// in the last record (and truncating mid-record) loses only the tail
/// events, and a resume re-executes exactly the lost work.
#[test]
fn corrupt_and_torn_tails_recover_gracefully() {
    let mut tk = Toolkit::new().unwrap();
    tk.enable_data_plane();
    let journal = tk.enable_durable_enactment(4);
    let store = tk.network().client_store().expect("data plane store");
    let (graph, _tasks, bindings) = build_case_study(&tk).unwrap();
    let baseline = tk.run_durable(&graph, &bindings).unwrap();
    let expected = baseline.canonical_bytes();
    let bytes = journal.bytes();
    let events = journal.events().len();

    // Torn tail: a partial final record (simulating a crash mid-write).
    let torn = &bytes[..bytes.len() - 7];
    let recovered =
        Arc::new(RunJournal::from_bytes(torn).attach_store(Arc::clone(&store), INLINE_LIMIT));
    assert_eq!(recovered.events().len(), events - 1);
    assert!(recovered.stats().torn_bytes > 0);

    // Corrupt tail: flip one byte inside the final record's payload.
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 3;
    corrupt[last] ^= 0x5a;
    let recovered =
        Arc::new(RunJournal::from_bytes(&corrupt).attach_store(Arc::clone(&store), INLINE_LIMIT));
    assert_eq!(recovered.events().len(), events - 1);
    // The dropped record was run-finished, so the resumed enactment
    // re-finishes the run and converges on the same bytes.
    assert!(!recovered.replay().finished);
    tk.adopt_journal(Arc::clone(&recovered));
    let resumed = tk.run_durable(&graph, &bindings).unwrap();
    assert_eq!(resumed.canonical_bytes(), expected);
    assert_eq!(resumed.replay_hits(), 10);
    assert!(recovered.replay().finished);
    assert!(recovered
        .events()
        .iter()
        .any(|e| matches!(e, RunEvent::RunFinished { .. })));
}

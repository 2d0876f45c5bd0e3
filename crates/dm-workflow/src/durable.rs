//! The executor's one scheduler: a frontier loop feeding a worker
//! pool, with the run journal as an optional sink.
//!
//! Every enactment, [`Executor::run`] in either
//! [`ExecutionMode`](crate::engine::ExecutionMode) and
//! [`Executor::run_durable`] alike, goes through the same loop:
//!
//! * the **orchestrator** (the calling thread) owns the graph logic: it
//!   tracks the remaining-work frontier, queues each task whose inputs
//!   have all been produced under a numbered claim, and records each
//!   acknowledged outcome. A completed task leaves the frontier and
//!   releases its successors. The orchestrator is the only job sender,
//!   so dropping its sender stops the pool;
//! * the **workers** are the threads that execute claims: tools run via
//!   the engine's retry machinery, and each claim is acknowledged with
//!   its outcome. The orchestrator's thread is one of them. When it
//!   needs an outcome and no finished claim is waiting, it runs a queued
//!   claim itself, so `workers` threads execute claims on at most
//!   `workers − 1` scoped threads plus the caller's, and a one-worker
//!   run executes every task on the calling thread.
//!
//! **A claim leaves the calling thread only when its work pays for a
//! thread.** Each task remembers how long its last execution took
//! ([`TaskNode`](crate::graph::TaskNode); a memo hit or a replayed
//! completion records nothing). A ready claim whose task has run before
//! stays on the orchestrator's own queue while the known cost queued
//! there, this claim included, stays under `HAND_OFF_AT` (200 µs, the
//! compute pool's fan-out point, about five thread starts). A claim of
//! unknown cost, or one that would push that queue past the limit, goes
//! on the shared queue, and the `workers − 1` helper threads start only
//! once the shared queue holds a claim while another claim is
//! outstanding. The orchestrator runs its own queue first, then takes
//! from the shared one. So a graph's first enactment dispatches every
//! claim to the shared queue, and its ready tasks run concurrently;
//! re-enacting the same [`TaskGraph`] keeps its cheap tasks on the
//! calling thread, with no thread start, hand-off or cross-core traffic.
//! A one-worker run keeps one queue, in dispatch order. Because of this
//! rule a tool must not wait on a sibling task: siblings communicate
//! only through cables, and a sibling that ran cheaply last time may
//! now run after it, on the same thread.
//!
//! Graph logic and execution stay separate functions; they may share a
//! thread.
//!
//! What differs between the entry points follows from which one was
//! called:
//!
//! * `run` has no journal. It stops at the first task failure: no
//!   successor is dispatched and claims not yet started are dropped
//!   unrun. Its report lists the runs in the order the orchestrator
//!   acknowledged them, which depends on how the OS scheduled the
//!   workers.
//! * `run_durable` journals every state transition to a [`RunJournal`]
//!   before it takes effect, and the orchestrator is the journal's only
//!   writer. It first replays the journal to rebuild the frontier:
//!   completed tasks are restored, **not** re-executed, and a failed
//!   task blocks only its downstream cone while independent branches
//!   continue. A worker that dies mid-claim never acks, and the
//!   orchestrator redelivers the task under a fresh claim —
//!   at-least-once execution, exactly-once recording. The orchestrator
//!   journals the names and outputs it holds as borrowed records
//!   (`RunJournal::write`), so journaling copies no token. Its
//!   report lists the runs in (virtual completion tick, task id)
//!   order, so the sequence does not depend on how the OS scheduled
//!   the workers.
//!
//! Crash injection wires into the fault engine
//! ([`dm_wsrf::resilience::CrashScript`]): scripted orchestrator
//! kill-points (by virtual-clock instant or by journal-append count,
//! so tests can kill the enactment at *every* task boundary and
//! mid-task) and scripted worker deaths (by claim number). A killed
//! orchestrator returns [`WorkflowError::Crashed`]; everything
//! appended before the kill is durable, and a fresh `Executor` given
//! the surviving journal bytes resumes to a report whose
//! [`canonical bytes`](ExecutionReport::canonical_bytes) are identical
//! to an uninterrupted run's.

use crate::engine::{ExecutionReport, Executor, TaskRun};
use crate::error::{Result, WorkflowError};
use crate::graph::{TaskGraph, TaskId, Token};
use crate::journal::{Record, RunJournal};
use crossbeam::channel::{Receiver, Sender};
use dm_wsrf::resilience::CrashScript;
use dm_wsrf::trace::SpanKind;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for one durable enactment: the journal to append to
/// (and resume from), the worker-pool width, and optional scripted
/// crashes for fault-injection tests.
#[derive(Clone)]
pub struct DurableConfig {
    journal: Arc<RunJournal>,
    workers: usize,
    orchestrator_crash: Option<Arc<CrashScript>>,
    kill_after_appends: Option<u64>,
    kill_worker_on_claim: Option<u64>,
}

impl std::fmt::Debug for DurableConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableConfig")
            .field("journal", &self.journal)
            .field("workers", &self.workers)
            .field("orchestrator_crash", &self.orchestrator_crash.is_some())
            .field("kill_after_appends", &self.kill_after_appends)
            .field("kill_worker_on_claim", &self.kill_worker_on_claim)
            .finish()
    }
}

impl DurableConfig {
    /// Durable enactment appending to (and resuming from) `journal`,
    /// with a default pool of 4 workers and no scripted crashes.
    pub fn new(journal: Arc<RunJournal>) -> DurableConfig {
        DurableConfig {
            journal,
            workers: 4,
            orchestrator_crash: None,
            kill_after_appends: None,
            kill_worker_on_claim: None,
        }
    }

    /// Builder: execute claims on up to `workers` threads (clamped to at
    /// least 1), the orchestrator's thread included, so an enactment
    /// spawns at most `workers − 1` (and at most one thread per task).
    /// They start only once a claim of unknown or large cost is queued
    /// while another is outstanding (see the [module docs](self)); one
    /// worker runs every claim on the calling thread, in dispatch order.
    pub fn with_workers(mut self, workers: usize) -> DurableConfig {
        self.workers = workers.max(1);
        self
    }

    /// Builder: kill the orchestrator when `script` schedules a crash
    /// on the virtual clock (polled at each task acknowledgement).
    pub fn with_orchestrator_crash(mut self, script: Arc<CrashScript>) -> DurableConfig {
        self.orchestrator_crash = Some(script);
        self
    }

    /// Builder: kill the orchestrator immediately after its `n`-th
    /// journal append in this process — the boundary-exhaustive kill
    /// point (append 1 is the run-started record; task-started appends
    /// land mid-task, before the matching completion).
    pub fn with_kill_after_appends(mut self, n: u64) -> DurableConfig {
        self.kill_after_appends = Some(n);
        self
    }

    /// Builder: the worker executing claim number `claim` (claims are
    /// numbered from 1 in dispatch order) dies instead of acking it —
    /// a deterministic single worker death.
    pub fn with_kill_worker_on_claim(mut self, claim: u64) -> DurableConfig {
        self.kill_worker_on_claim = Some(claim);
        self
    }

    /// The journal this enactment appends to.
    pub fn journal(&self) -> &Arc<RunJournal> {
        &self.journal
    }

    /// The configured worker-pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
thread_local! {
    /// Helper threads started by enactments orchestrated on this thread,
    /// for tests that must not count other tests' enactments.
    static HELPERS_STARTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Known cost queued on the orchestrator's own queue, this claim
/// included, at which a ready claim goes to the shared queue instead:
/// the compute pool's fan-out point, about five thread starts (a scoped
/// spawn+join costs 27–51 µs of CPU on a 2-core x86-64 VM). Claims
/// below it finish sooner, and on less CPU, on the calling thread.
const HAND_OFF_AT: Duration = Duration::from_micros(200);

/// A dispatched claim: the job queue carries `(claim, task, inputs)`
/// and the orchestrator only trusts outcomes whose claim is still
/// current.
struct Job {
    claim: u64,
    task: TaskId,
    inputs: Vec<Token>,
}

/// What a worker did with a claim.
enum Outcome {
    /// The claim is acked: the task ran to a terminal result.
    Finished {
        result: std::result::Result<Vec<Token>, String>,
        run: TaskRun,
        tick: Duration,
    },
    /// The worker died mid-claim (scripted): no ack, results discarded.
    Died,
}

struct Done {
    claim: u64,
    task: TaskId,
    outcome: Outcome,
}

/// Orchestrator-side task lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Completed,
    Failed,
    Blocked,
}

/// A task's run record and its completion tick.
type Entry = (TaskId, TaskRun, Duration);

/// The orchestrator's state: produced tokens, current claims, its own
/// queue, and the journal writer, which counts this-process appends and
/// enforces the append-count kill point.
struct Orchestrator<'a> {
    graph: &'a TaskGraph,
    bindings: &'a HashMap<(TaskId, usize), Token>,
    journal: Option<&'a RunJournal>,
    appended: u64,
    kill_after: Option<u64>,
    produced: HashMap<(TaskId, usize), Token>,
    claims: HashMap<TaskId, u64>,
    next_claim: u64,
    /// Claims only this thread runs, in dispatch order, each with its
    /// task's known cost; at width 1, every claim.
    own: VecDeque<(Job, Duration)>,
    /// The known cost queued on `own`.
    own_cost: Duration,
    /// `true` at width 1: no claim is handed off.
    alone: bool,
    /// The shared queue, which the helpers serve.
    jobs: Sender<Job>,
}

impl Orchestrator<'_> {
    /// Journal the record `record` builds from what the caller holds.
    /// Without a journal nothing is built, so plain runs compute no
    /// fingerprint for it.
    fn append<'r>(&mut self, record: impl FnOnce() -> Record<'r>) -> Result<()> {
        let Some(journal) = self.journal else {
            return Ok(());
        };
        journal.write(record())?;
        self.appended += 1;
        if self.kill_after == Some(self.appended) {
            return Err(WorkflowError::Crashed {
                appended: self.appended,
            });
        }
        Ok(())
    }

    /// Queue `task` and its inputs under a fresh claim: on this thread's
    /// own queue while the known cost queued there stays under
    /// [`HAND_OFF_AT`] (always at width 1), else on the shared queue for
    /// whichever worker takes it first.
    fn dispatch(&mut self, task: TaskId) -> Result<()> {
        // Journal the dispatch first: a crash between this append and the
        // task's completion record is the mid-task kill point — on resume
        // the started-but-never-completed task is simply re-executed.
        let graph = self.graph;
        let node = graph.task(task)?;
        self.append(|| Record::TaskStarted {
            task,
            name: &node.name,
        })?;
        let inputs = Executor::gather_inputs(graph, task, self.bindings, &self.produced);
        self.claims.insert(task, self.next_claim);
        let job = Job {
            claim: self.next_claim,
            task,
            inputs,
        };
        self.next_claim += 1;
        if self.alone {
            self.own.push_back((job, Duration::ZERO));
        } else if let Some(cost) = node
            .last_cost()
            .filter(|&c| self.own_cost + c < HAND_OFF_AT)
        {
            self.own_cost += cost;
            self.own.push_back((job, cost));
        } else {
            let _ = self.jobs.send(job);
        }
        Ok(())
    }

    /// The next queued claim for this thread to run: from its own queue
    /// first, then from the shared one.
    fn next_job(&mut self, shared: &Receiver<Job>) -> Option<Job> {
        match self.own.pop_front() {
            Some((job, cost)) => {
                self.own_cost -= cost;
                Some(job)
            }
            None => shared.try_recv(),
        }
    }
}

/// The failed outcome of a claim whose tool panicked, carrying the
/// panic message.
fn panicked(
    graph: &TaskGraph,
    task: TaskId,
    payload: &(dyn Any + Send),
    started: Instant,
) -> (std::result::Result<Vec<Token>, String>, TaskRun) {
    let cause = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-text panic payload");
    let message = format!("tool panicked: {cause}");
    let run = TaskRun {
        task: graph.task(task).map(|t| t.name.clone()).unwrap_or_default(),
        attempts: 1,
        duration: started.elapsed(),
        virtual_duration: Duration::ZERO,
        backoff: Duration::ZERO,
        sheds: 0,
        cached: false,
        replayed: false,
        error: Some(message.clone()),
    };
    (Err(message), run)
}

/// Mark every not-yet-resolved descendant of `task` blocked: a failed
/// node poisons only its downstream cone; independent branches keep
/// running.
fn block_cone(graph: &TaskGraph, status: &mut [Status], task: TaskId) {
    let mut queue = vec![task];
    while let Some(t) = queue.pop() {
        for c in graph.cables() {
            if c.from_task == t && status[c.to_task] == Status::Runnable {
                status[c.to_task] = Status::Blocked;
                queue.push(c.to_task);
            }
        }
    }
}

impl Executor {
    /// Enact `graph` durably: journal every state transition to
    /// `config.journal()`, executing on a claim/ack worker pool. If the
    /// journal already holds a prefix of this workflow's history, the
    /// enactment **resumes**: completed tasks are restored from the log
    /// (zero re-execution, counted as replay hits), failed tasks stay
    /// terminal with their downstream cones blocked, and only the
    /// remaining frontier runs.
    ///
    /// Unlike [`Executor::run`], task failure is not fatal to the
    /// enactment: the run continues on independent branches and the
    /// returned report carries per-task errors ([`TaskRun::error`]).
    /// The report's run order is deterministic: `ExecutionReport::runs`
    /// is ordered by each task's completion instant on the simulated
    /// clock, ties broken by task id, however the workers raced.
    ///
    /// Returns [`WorkflowError::Crashed`] when a scripted crash kills
    /// the orchestrator (the journal keeps everything appended before
    /// the kill), and [`WorkflowError::JournalMismatch`] when the
    /// journal belongs to a different workflow.
    pub fn run_durable(
        &self,
        graph: &TaskGraph,
        bindings: &HashMap<(TaskId, usize), Token>,
        config: &DurableConfig,
    ) -> Result<ExecutionReport> {
        self.enact(graph, bindings, Some(config), config.workers)
    }

    /// The frontier loop behind [`Executor::run`] (no `durable` config)
    /// and [`Executor::run_durable`], executing claims on up to `workers`
    /// threads (at most one per task): the calling thread and at most
    /// `workers − 1` scoped ones, started only once a claim is handed off
    /// while another is outstanding. Claims whose known cost fits under
    /// [`HAND_OFF_AT`] stay on the calling thread (see the module docs).
    pub(crate) fn enact(
        &self,
        graph: &TaskGraph,
        bindings: &HashMap<(TaskId, usize), Token>,
        durable: Option<&DurableConfig>,
        workers: usize,
    ) -> Result<ExecutionReport> {
        // Validate that every input is fed.
        for (t, node) in graph.tasks().iter().enumerate() {
            for port in 0..node.inputs() {
                if graph.feeder(t, port).is_none() && !bindings.contains_key(&(t, port)) {
                    return Err(WorkflowError::UnboundInput {
                        task: node.name.clone(),
                        port: node.tool.input_ports().swap_remove(port).name,
                    });
                }
            }
        }
        let order = graph.topological_order()?;
        let n = graph.num_tasks();
        let journal = durable.map(|c| c.journal.as_ref());
        let fail_fast = journal.is_none();

        // Replay: reconstruct the frontier from the journal.
        let replay = journal.map(RunJournal::replay).unwrap_or_default();
        if let Some((_, journal_fp)) = replay.started {
            let fingerprint = graph.structure_fingerprint();
            if journal_fp != fingerprint {
                return Err(WorkflowError::JournalMismatch {
                    journal: journal_fp,
                    graph: fingerprint,
                });
            }
        }
        // A journal can match the fingerprint, or carry none, and still
        // name a task the graph lacks or complete one with the wrong
        // number of outputs: reject it before any record is trusted.
        for &task in replay.completed.keys().chain(replay.failed.keys()) {
            if task >= n {
                return Err(WorkflowError::JournalInconsistent {
                    task,
                    reason: format!("the graph has {n} tasks"),
                });
            }
        }
        for (&task, replayed) in &replay.completed {
            let declared = graph.tasks()[task].outputs();
            if replayed.outputs.len() != declared {
                return Err(WorkflowError::JournalInconsistent {
                    task,
                    reason: format!(
                        "completed with {} outputs, its tool declares {declared}",
                        replayed.outputs.len()
                    ),
                });
            }
        }
        if let Some(journal) = journal {
            journal.note_replay_hits(replay.completed.len() as u64);
        }

        let start = Instant::now();
        let vstart = self.virtual_now();
        let mut root_span = self.tracer.as_ref().map(|t| {
            let name = if fail_fast {
                "workflow"
            } else {
                "durable-workflow"
            };
            let mut span = t.start_span(name, SpanKind::Workflow, None);
            span.set_attr("tasks", n.to_string());
            if !fail_fast {
                span.set_attr("replayed", replay.completed.len().to_string());
            }
            span
        });
        let root = root_span.as_ref().map(|s| s.ctx());

        // Restore produced tokens from replayed completions.
        let mut produced: HashMap<(TaskId, usize), Token> = HashMap::new();
        for (&task, replayed) in &replay.completed {
            for (port, token) in replayed.outputs.iter().enumerate() {
                produced.insert((task, port), token.clone());
            }
        }
        // Repopulate the memo cache from replayed pure tasks, in
        // topological order, so memo hits survive recovery: re-executed
        // downstream work (and future warm runs) still find them.
        if let Some(memo) = &self.memo {
            for &task in &order {
                let Some(replayed) = replay.completed.get(&task) else {
                    continue;
                };
                let inputs_ready = graph
                    .cables()
                    .iter()
                    .filter(|c| c.to_task == task)
                    .all(|c| replay.completed.contains_key(&c.from_task));
                if inputs_ready {
                    let inputs = Self::gather_inputs(graph, task, bindings, &produced);
                    memo.populate(
                        graph.task(task)?.tool.as_ref(),
                        &inputs,
                        replayed.outputs.clone(),
                    );
                }
            }
        }

        // Frontier: completed tasks are done, journaled failures stay
        // terminal and block their cones, the rest is runnable.
        let mut status = vec![Status::Runnable; n];
        for &task in replay.completed.keys() {
            status[task] = Status::Completed;
        }
        for &task in replay.failed.keys() {
            status[task] = Status::Failed;
        }
        for &task in replay.failed.keys() {
            block_cone(graph, &mut status, task);
        }
        let mut indegree = vec![0usize; n];
        for c in graph.cables() {
            if status[c.to_task] == Status::Runnable && status[c.from_task] != Status::Completed {
                indegree[c.to_task] += 1;
            }
        }

        let budget = Mutex::new(self.policy.retry_budget);
        let workers = workers.max(1).min(n.max(1));
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<Done>();
        // Raised when the loop stops, and in a fail-fast run by the
        // worker whose task failed: workers then start no further claim.
        let stop = AtomicBool::new(false);
        // Execute one claim on the thread that calls this, a pool thread
        // or the orchestrator's, and return its outcome.
        let run_claim = |job: Job| -> Done {
            let started = Instant::now();
            // A panicking tool fails its claim instead of killing the
            // worker: a dead worker never acks, and with others alive the
            // orchestrator would wait for that ack forever.
            let executed = panic::catch_unwind(AssertUnwindSafe(|| {
                self.execute_task(graph, job.task, &job.inputs, &budget, root)
            }));
            let elapsed = started.elapsed();
            let (result, run) =
                executed.unwrap_or_else(|payload| panicked(graph, job.task, &*payload, started));
            if !run.cached {
                graph.tasks()[job.task].note_cost(elapsed);
            }
            if fail_fast && result.is_err() {
                stop.store(true, Ordering::SeqCst);
            }
            let tick = self.virtual_now();
            // Scripted worker death: the finished claim is discarded
            // without an ack, so the orchestrator must redeliver. The
            // worker itself keeps serving — it models a restarted worker.
            let died = durable.is_some_and(|c| c.kill_worker_on_claim == Some(job.claim));
            let outcome = if died {
                Outcome::Died
            } else {
                Outcome::Finished { result, run, tick }
            };
            Done {
                claim: job.claim,
                task: job.task,
                outcome,
            }
        };
        let mut entries: Vec<Entry> = Vec::new();
        let (outcome, produced) = crossbeam::scope(|scope| {
            // The orchestrator's thread is the first worker. The others
            // start once the shared queue holds a claim while another
            // claim is outstanding, so a serial run spawns no thread at
            // all, and neither does a run whose claims all stay here.
            let mut done_tx = Some(done_tx);
            let mut start_helpers = || {
                let Some(done_tx) = done_tx.take() else {
                    return;
                };
                for _ in 1..workers {
                    let (job_rx, done_tx) = (job_rx.clone(), done_tx.clone());
                    let (run_claim, stop) = (&run_claim, &stop);
                    scope.spawn(move |_| {
                        while let Ok(job) = job_rx.recv() {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let _ = done_tx.send(run_claim(job));
                        }
                    });
                    #[cfg(test)]
                    HELPERS_STARTED.with(|n| n.set(n.get() + 1));
                }
            };

            // ---- orchestrator ----------------------------------------
            let mut orch = Orchestrator {
                graph,
                bindings,
                journal,
                appended: 0,
                kill_after: durable.and_then(|c| c.kill_after_appends),
                produced,
                claims: HashMap::new(),
                next_claim: 1,
                own: VecDeque::new(),
                own_cost: Duration::ZERO,
                alone: workers == 1,
                jobs: job_tx,
            };
            let mut run_loop = || -> Result<()> {
                if replay.started.is_none() {
                    orch.append(|| Record::RunStarted {
                        tasks: n,
                        fingerprint: graph.structure_fingerprint(),
                    })?;
                }
                for task in 0..n {
                    if status[task] == Status::Runnable && indegree[task] == 0 {
                        orch.dispatch(task)?;
                    }
                }
                while !orch.claims.is_empty() {
                    if orch.claims.len() > 1 && !job_rx.is_empty() {
                        start_helpers();
                    }
                    // A finished claim first, so successors are released
                    // as early as possible; else run a queued claim on
                    // this thread; else wait for a pool thread's ack.
                    let done = if let Some(done) = done_rx.try_recv() {
                        done
                    } else if let Some(job) = orch.next_job(&job_rx) {
                        if stop.load(Ordering::SeqCst) {
                            continue;
                        }
                        run_claim(job)
                    } else {
                        done_rx
                            .recv()
                            .expect("an outstanding claim is held by a pool thread")
                    };
                    if orch.claims.get(&done.task) != Some(&done.claim) {
                        continue; // stale claim: already redelivered
                    }
                    let Outcome::Finished { result, run, tick } = done.outcome else {
                        // No ack: redeliver under a fresh claim.
                        if let Some(journal) = journal {
                            journal.note_redelivery();
                        }
                        orch.dispatch(done.task)?;
                        continue;
                    };
                    if let Some(script) = durable.and_then(|c| c.orchestrator_crash.as_ref()) {
                        if script.poll_kill(self.virtual_now()) {
                            return Err(WorkflowError::Crashed {
                                appended: orch.appended,
                            });
                        }
                    }
                    let task = done.task;
                    orch.claims.remove(&task);
                    match result {
                        Ok(outputs) => {
                            if run.sheds > 0 {
                                orch.append(|| Record::TaskShed {
                                    task,
                                    name: &run.task,
                                    sheds: run.sheds,
                                })?;
                            }
                            orch.append(|| Record::TaskCompleted {
                                task,
                                name: &run.task,
                                attempts: run.attempts,
                                virtual_nanos: run.virtual_duration.as_nanos() as u64,
                                cached: run.cached,
                                sheds: run.sheds,
                                outputs: &outputs,
                            })?;
                            for (port, token) in outputs.into_iter().enumerate() {
                                orch.produced.insert((task, port), token);
                            }
                            status[task] = Status::Completed;
                            entries.push((task, run, tick));
                            for c in graph.cables() {
                                if c.from_task == task && status[c.to_task] == Status::Runnable {
                                    indegree[c.to_task] -= 1;
                                    if indegree[c.to_task] == 0 {
                                        orch.dispatch(c.to_task)?;
                                    }
                                }
                            }
                        }
                        Err(message) => {
                            orch.append(|| Record::TaskFailed {
                                task,
                                name: &run.task,
                                message: &message,
                            })?;
                            let name = run.task.clone();
                            entries.push((task, run, tick));
                            if fail_fast {
                                return Err(WorkflowError::TaskFailed {
                                    task: name,
                                    message,
                                });
                            }
                            status[task] = Status::Failed;
                            block_cone(graph, &mut status, task);
                        }
                    }
                }
                if !replay.finished {
                    orch.append(|| Record::RunFinished {
                        tasks: status
                            .iter()
                            .filter(|s| matches!(s, Status::Completed | Status::Failed))
                            .count(),
                        virtual_nanos: self.virtual_now().saturating_sub(vstart).as_nanos() as u64,
                    })?;
                }
                Ok(())
            };
            let outcome = run_loop();
            // Stop the pool on every exit path, crash and fail-fast
            // included: queued claims are dropped unrun, and without the
            // orchestrator's sender the workers' queue ends.
            stop.store(true, Ordering::SeqCst);
            let Orchestrator { produced, jobs, .. } = orch;
            drop(jobs);
            (outcome, produced)
        })
        .expect("workflow worker panicked");

        // Replayed runs (restored, zero re-execution) join the fresh
        // ones; a durable report orders them by (tick, task id).
        for (&task, replayed) in &replay.completed {
            entries.push((
                task,
                TaskRun {
                    task: replayed.name.clone(),
                    attempts: replayed.attempts,
                    duration: Duration::ZERO,
                    virtual_duration: Duration::from_nanos(replayed.virtual_nanos),
                    backoff: Duration::ZERO,
                    sheds: replayed.sheds,
                    cached: replayed.cached,
                    replayed: true,
                    error: None,
                },
                Duration::ZERO,
            ));
        }
        for (&task, (name, message)) in &replay.failed {
            entries.push((
                task,
                TaskRun {
                    task: name.clone(),
                    attempts: 0,
                    duration: Duration::ZERO,
                    virtual_duration: Duration::ZERO,
                    backoff: Duration::ZERO,
                    sheds: 0,
                    cached: false,
                    replayed: true,
                    error: Some(message.clone()),
                },
                Duration::ZERO,
            ));
        }
        if !fail_fast {
            entries.sort_by_key(|e| (e.2, e.0));
        }
        let runs = entries.into_iter().map(|(_, run, _)| run).collect();
        if let Err(e) = outcome {
            if let Some(span) = root_span.as_mut() {
                span.set_error(e.to_string());
            }
            return Err(e);
        }

        let mut report = ExecutionReport {
            runs,
            ..ExecutionReport::default()
        };
        Self::collect_outputs(graph, &produced, &mut report);
        report.elapsed = start.elapsed();
        report.virtual_elapsed = self.virtual_now().saturating_sub(vstart);
        report.retry_budget_remaining = budget.into_inner();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::test_tools::*;
    use crate::journal::RunEvent;
    use std::sync::Arc;

    fn diamond() -> TaskGraph {
        // src → (left, right) → join
        let mut g = TaskGraph::new();
        let src = g.add_named_task("src", Arc::new(ConstText("x".into())));
        let left = g.add_named_task("left", Arc::new(Upper));
        let right = g.add_named_task("right", Arc::new(Upper));
        let join = g.add_named_task("join", Arc::new(Concat));
        g.connect(src, 0, left, 0).unwrap();
        g.connect(src, 0, right, 0).unwrap();
        g.connect(left, 0, join, 0).unwrap();
        g.connect(right, 0, join, 1).unwrap();
        g
    }

    #[test]
    fn durable_run_matches_plain_run() {
        let g = diamond();
        let plain = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        let journal = Arc::new(RunJournal::new());
        let durable = Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal)),
            )
            .unwrap();
        assert_eq!(plain.canonical_bytes(), durable.canonical_bytes());
        assert_eq!(durable.replay_hits(), 0);
        // 1 run-started + 4 started + 4 completed + 1 run-finished.
        assert_eq!(journal.stats().appends, 10);
        let replay = journal.replay();
        assert!(replay.finished);
        assert_eq!(replay.completed.len(), 4);
    }

    #[test]
    fn kill_at_every_append_then_resume_is_byte_identical() {
        let g = diamond();
        let baseline = Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::new(RunJournal::new())),
            )
            .unwrap();
        let expected = baseline.canonical_bytes();
        for kill_at in 1..=10u64 {
            let journal = Arc::new(RunJournal::new());
            let err = Executor::parallel()
                .run_durable(
                    &g,
                    &HashMap::new(),
                    &DurableConfig::new(Arc::clone(&journal)).with_kill_after_appends(kill_at),
                )
                .unwrap_err();
            assert!(
                matches!(err, WorkflowError::Crashed { appended } if appended == kill_at),
                "kill point {kill_at}: {err}"
            );
            // Process boundary: only the journal bytes survive.
            let survived = Arc::new(RunJournal::from_bytes(&journal.bytes()));
            let completed_at_crash = survived.replay().completed.len();
            let resumed = Executor::parallel()
                .run_durable(
                    &g,
                    &HashMap::new(),
                    &DurableConfig::new(Arc::clone(&survived)),
                )
                .unwrap();
            assert_eq!(
                resumed.canonical_bytes(),
                expected,
                "kill point {kill_at}: resumed report differs"
            );
            // Completed tasks were restored, never re-executed.
            assert_eq!(resumed.replay_hits(), completed_at_crash);
            assert_eq!(survived.stats().replay_hits, completed_at_crash as u64);
            assert_eq!(
                resumed.runs.iter().filter(|r| !r.replayed).count(),
                4 - completed_at_crash
            );
        }
    }

    #[test]
    fn worker_death_redelivers_unacked_claims() {
        // At width 1 the dying claim runs on the orchestrator's thread.
        for workers in [1, 2] {
            let g = diamond();
            let journal = Arc::new(RunJournal::new());
            let report = Executor::parallel()
                .run_durable(
                    &g,
                    &HashMap::new(),
                    &DurableConfig::new(Arc::clone(&journal))
                        .with_workers(workers)
                        .with_kill_worker_on_claim(2),
                )
                .unwrap();
            assert_eq!(journal.stats().redeliveries, 1, "{workers} workers");
            let plain = Executor::parallel().run(&g, &HashMap::new()).unwrap();
            assert_eq!(
                report.canonical_bytes(),
                plain.canonical_bytes(),
                "{workers} workers"
            );
            // The redelivered task was journaled as started twice.
            let starts = journal
                .events()
                .iter()
                .filter(|e| matches!(e, RunEvent::TaskStarted { .. }))
                .count();
            assert_eq!(starts, 5, "{workers} workers");
        }
    }

    /// Passes its input through and records the thread it ran on.
    struct RecordsThread(Arc<Mutex<Vec<std::thread::ThreadId>>>);

    impl crate::graph::Tool for RecordsThread {
        fn name(&self) -> &str {
            "RecordsThread"
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("in", "string")]
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("out", "string")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            self.0.lock().push(std::thread::current().id());
            Ok(vec![inputs[0].clone()])
        }
    }

    /// `src → (a → c, b)` of [`RecordsThread`] tools: a fan-out that a
    /// wider pool could run at once.
    fn cheap_fan_out(ran_on: &Arc<Mutex<Vec<std::thread::ThreadId>>>) -> TaskGraph {
        let mut g = TaskGraph::new();
        let src = g.add_named_task("src", Arc::new(ConstText("x".into())));
        let a = g.add_named_task("a", Arc::new(RecordsThread(Arc::clone(ran_on))));
        let b = g.add_named_task("b", Arc::new(RecordsThread(Arc::clone(ran_on))));
        let c = g.add_named_task("c", Arc::new(RecordsThread(Arc::clone(ran_on))));
        g.connect(src, 0, a, 0).unwrap();
        g.connect(src, 0, b, 0).unwrap();
        g.connect(a, 0, c, 0).unwrap();
        g
    }

    #[test]
    fn serial_enactment_runs_every_task_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let g = cheap_fan_out(&ran_on);

        Executor::serial().run(&g, &HashMap::new()).unwrap();
        assert_eq!(*ran_on.lock(), vec![caller; 3]);

        ran_on.lock().clear();
        let config = DurableConfig::new(Arc::new(RunJournal::new())).with_workers(1);
        Executor::parallel()
            .run_durable(&g, &HashMap::new(), &config)
            .unwrap();
        assert_eq!(*ran_on.lock(), vec![caller; 3]);
    }

    /// Helper threads started so far by enactments orchestrated on this
    /// thread.
    fn helpers_started() -> usize {
        HELPERS_STARTED.with(|n| n.get())
    }

    #[test]
    fn re_enacted_cheap_graph_runs_every_task_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let g = cheap_fan_out(&ran_on);
        for durable in [false, true] {
            let enact = || {
                let config = DurableConfig::new(Arc::new(RunJournal::new())).with_workers(4);
                Executor::parallel().enact(&g, &HashMap::new(), durable.then_some(&config), 4)
            };
            // Warm the graph until its recorded costs together stay under
            // the hand-off limit, so that a run the OS preempted does not
            // leave a cheap tool looking expensive.
            let mut warm = false;
            for _ in 0..100 {
                enact().unwrap();
                let known: Option<Duration> = g.tasks().iter().map(|t| t.last_cost()).sum();
                warm = known.is_some_and(|cost| cost < HAND_OFF_AT);
                if warm {
                    break;
                }
            }
            assert!(warm, "durable {durable}: the cheap tools never ran cheaply");
            ran_on.lock().clear();
            let before = helpers_started();
            enact().unwrap();
            assert_eq!(*ran_on.lock(), vec![caller; 3], "durable {durable}");
            assert_eq!(helpers_started(), before, "durable {durable}");
        }
    }

    /// Records its thread, spins for `spin`, then waits until `parties`
    /// executions have arrived, and fails after 10 s without them: with
    /// two or more parties it succeeds only when its siblings run at the
    /// same time, on other threads.
    struct Rendezvous {
        spin: Duration,
        parties: usize,
        arrived: Arc<std::sync::atomic::AtomicUsize>,
        ran_on: Arc<Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl crate::graph::Tool for Rendezvous {
        fn name(&self) -> &str {
            "Rendezvous"
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("in", "string")]
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("out", "string")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            self.ran_on.lock().push(std::thread::current().id());
            let start = Instant::now();
            while start.elapsed() < self.spin {
                std::hint::spin_loop();
            }
            // Arrivals count across enactments; wait for this round's.
            let arrival = self.arrived.fetch_add(1, Ordering::SeqCst);
            let round_complete = (arrival / self.parties + 1) * self.parties;
            while self.arrived.load(Ordering::SeqCst) < round_complete {
                if start.elapsed() > Duration::from_secs(10) {
                    return Err("no sibling ran at the same time".into());
                }
                std::thread::yield_now();
            }
            Ok(vec![inputs[0].clone()])
        }
    }

    /// `src` fanned out to two [`Rendezvous`] tools that spin for `spin`.
    fn rendezvous_pair(
        spin: Duration,
        ran_on: &Arc<Mutex<Vec<std::thread::ThreadId>>>,
    ) -> TaskGraph {
        let arrived = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        let src = g.add_named_task("src", Arc::new(ConstText("x".into())));
        for name in ["left", "right"] {
            let tool = Rendezvous {
                spin,
                parties: 2,
                arrived: Arc::clone(&arrived),
                ran_on: Arc::clone(ran_on),
            };
            let t = g.add_named_task(name, Arc::new(tool));
            g.connect(src, 0, t, 0).unwrap();
        }
        g
    }

    #[test]
    fn first_enactment_runs_a_fan_out_on_helpers() {
        // No cost is known yet, so both siblings go to the shared queue,
        // the helpers start, and the siblings meet on two threads.
        for durable in [false, true] {
            let ran_on = Arc::new(Mutex::new(Vec::new()));
            let g = rendezvous_pair(Duration::ZERO, &ran_on);
            let config = DurableConfig::new(Arc::new(RunJournal::new())).with_workers(4);
            let before = helpers_started();
            let report = Executor::parallel()
                .enact(&g, &HashMap::new(), durable.then_some(&config), 4)
                .unwrap();
            assert!(
                report.runs.iter().all(|r| r.error.is_none()),
                "durable {durable}"
            );
            assert_eq!(helpers_started() - before, 2, "durable {durable}");
            let threads = ran_on.lock();
            assert_ne!(threads[0], threads[1], "durable {durable}");
        }
    }

    #[test]
    fn first_enactment_of_a_chain_starts_no_helper() {
        // A chain never has two claims outstanding, so the claim on the
        // shared queue is always this thread's to run.
        let caller = std::thread::current().id();
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        let mut last = g.add_named_task("src", Arc::new(ConstText("x".into())));
        for name in ["a", "b", "c"] {
            let t = g.add_named_task(name, Arc::new(RecordsThread(Arc::clone(&ran_on))));
            g.connect(last, 0, t, 0).unwrap();
            last = t;
        }
        let before = helpers_started();
        Executor::parallel()
            .enact(&g, &HashMap::new(), None, 4)
            .unwrap();
        assert_eq!(helpers_started(), before);
        assert_eq!(*ran_on.lock(), vec![caller; 3]);
    }

    #[test]
    fn tools_that_spin_past_the_hand_off_limit_run_on_helpers() {
        // Warm, each sibling's known cost is past `HAND_OFF_AT`, so both
        // go to the shared queue again and meet on two threads.
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let g = rendezvous_pair(HAND_OFF_AT + HAND_OFF_AT / 2, &ran_on);
        for round in 1..=2 {
            let before = helpers_started();
            let report = Executor::parallel()
                .enact(&g, &HashMap::new(), None, 4)
                .unwrap();
            assert!(report.runs.iter().all(|r| r.error.is_none()), "run {round}");
            assert_eq!(helpers_started() - before, 2, "run {round}");
            let threads = std::mem::take(&mut *ran_on.lock());
            assert_ne!(threads[0], threads[1], "run {round}");
        }
        assert!(g.tasks()[1].last_cost().is_some_and(|c| c >= HAND_OFF_AT));
    }

    #[test]
    fn a_star_of_cheap_tasks_past_the_limit_starts_the_helpers() {
        // 40 leaves of at least 10 µs each: their known costs add up to
        // twice `HAND_OFF_AT`, so the leaves past the limit are handed
        // off, and the helpers start, on the warm run too.
        let spin = Arc::new(Rendezvous {
            spin: Duration::from_micros(10),
            parties: 1,
            arrived: Arc::default(),
            ran_on: Arc::default(),
        });
        let mut g = TaskGraph::new();
        let src = g.add_named_task("src", Arc::new(ConstText("x".into())));
        for i in 0..40 {
            let leaf = g.add_named_task(format!("leaf-{i}"), Arc::clone(&spin) as _);
            g.connect(src, 0, leaf, 0).unwrap();
        }
        for durable in [false, true] {
            for round in 1..=2 {
                let config = DurableConfig::new(Arc::new(RunJournal::new())).with_workers(4);
                let before = helpers_started();
                let report = Executor::parallel()
                    .enact(&g, &HashMap::new(), durable.then_some(&config), 4)
                    .unwrap();
                assert_eq!(report.runs.len(), 41);
                let started = helpers_started() - before;
                assert_eq!(started, 3, "durable {durable}, run {round}");
            }
        }
    }

    #[test]
    fn failed_task_blocks_only_its_cone() {
        // src → fail → doomed ; src → ok (independent branch).
        let mut g = TaskGraph::new();
        let src = g.add_named_task("src", Arc::new(ConstText("x".into())));
        let fail = g.add_named_task("fail", Arc::new(Flaky::failing(usize::MAX)));
        let doomed = g.add_named_task("doomed", Arc::new(Upper));
        let ok = g.add_named_task("ok", Arc::new(Upper));
        g.connect(src, 0, fail, 0).unwrap();
        g.connect(fail, 0, doomed, 0).unwrap();
        g.connect(src, 0, ok, 0).unwrap();

        let journal = Arc::new(RunJournal::new());
        let report = Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal)),
            )
            .unwrap();
        // The independent branch completed; the cone did not run.
        assert_eq!(report.output(ok, 0), Some(&Token::Text("X".into())));
        assert!(report.output(doomed, 0).is_none());
        let names: Vec<_> = report.runs.iter().map(|r| r.task.as_str()).collect();
        assert!(!names.contains(&"doomed"));
        let failed_run = report.runs.iter().find(|r| r.task == "fail").unwrap();
        assert!(failed_run.error.is_some());
        // Resuming the finished journal re-executes nothing and keeps
        // the failure terminal.
        let resumed = Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal)),
            )
            .unwrap();
        assert_eq!(resumed.canonical_bytes(), report.canonical_bytes());
        assert_eq!(resumed.replay_hits(), 3); // src, ok, and the failure record
        assert!(resumed.runs.iter().all(|r| r.replayed));
    }

    /// A tool whose every call panics.
    struct Panics;

    impl crate::graph::Tool for Panics {
        fn name(&self) -> &str {
            "Panics"
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("in", "string")]
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("out", "string")]
        }

        fn execute(&self, _inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            panic!("tool blew up")
        }
    }

    /// `src → boom → doomed` beside the independent branch `src → ok`,
    /// where `boom` panics. Returns the graph and the `ok` and `doomed`
    /// ids.
    fn panicking_graph() -> (TaskGraph, TaskId, TaskId) {
        let mut g = TaskGraph::new();
        let src = g.add_named_task("src", Arc::new(ConstText("x".into())));
        let boom = g.add_named_task("boom", Arc::new(Panics));
        let doomed = g.add_named_task("doomed", Arc::new(Upper));
        let ok = g.add_named_task("ok", Arc::new(Upper));
        g.connect(src, 0, boom, 0).unwrap();
        g.connect(boom, 0, doomed, 0).unwrap();
        g.connect(src, 0, ok, 0).unwrap();
        (g, ok, doomed)
    }

    /// Run `enact` on a helper thread and fail, rather than hang, when
    /// it has not returned within a generous timeout.
    fn within_timeout<T: Send + 'static>(enact: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(enact());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the frontier loop hung on a panicking tool")
    }

    #[test]
    fn panicking_tool_fails_its_claim_at_widths_1_and_4() {
        for workers in [1, 4] {
            let (g, _, _) = panicking_graph();
            let err = within_timeout(move || {
                Executor::parallel().enact(&g, &HashMap::new(), None, workers)
            })
            .unwrap_err();
            assert!(
                matches!(&err, WorkflowError::TaskFailed { task, message }
                    if task == "boom" && message.contains("tool blew up")),
                "{workers} workers: {err}"
            );

            let (g, ok, doomed) = panicking_graph();
            let report = within_timeout(move || {
                let config = DurableConfig::new(Arc::new(RunJournal::new())).with_workers(workers);
                Executor::parallel().run_durable(&g, &HashMap::new(), &config)
            })
            .unwrap();
            assert_eq!(report.output(ok, 0), Some(&Token::Text("X".into())));
            assert!(report.output(doomed, 0).is_none(), "{workers} workers");
            let boom = report.runs.iter().find(|r| r.task == "boom").unwrap();
            let error = boom.error.as_deref().unwrap_or_default();
            assert!(error.contains("tool blew up"), "{workers} workers: {error}");
            assert!(report.runs.iter().all(|r| r.task != "doomed"));
        }
    }

    #[test]
    fn journal_from_a_different_workflow_is_rejected() {
        let g = diamond();
        let journal = Arc::new(RunJournal::new());
        Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal)),
            )
            .unwrap();
        let mut other = TaskGraph::new();
        other.add_named_task("src", Arc::new(ConstText("x".into())));
        let err = Executor::parallel()
            .run_durable(&other, &HashMap::new(), &DurableConfig::new(journal))
            .unwrap_err();
        assert!(matches!(err, WorkflowError::JournalMismatch { .. }));
    }

    /// A journal that starts `g`'s run, fingerprint and all, and then
    /// holds `event`.
    fn forged_journal(g: &TaskGraph, event: RunEvent) -> Arc<RunJournal> {
        let journal = RunJournal::new();
        journal
            .append(&RunEvent::RunStarted {
                tasks: g.num_tasks(),
                fingerprint: g.structure_fingerprint(),
            })
            .unwrap();
        journal.append(&event).unwrap();
        Arc::new(RunJournal::from_bytes(&journal.bytes()))
    }

    #[test]
    fn journal_naming_an_unknown_task_is_an_error_not_a_panic() {
        let mut g = TaskGraph::new();
        g.add_named_task("src", Arc::new(ConstText("x".into())));
        let completed = RunEvent::TaskCompleted {
            task: 99,
            name: "src".into(),
            attempts: 1,
            virtual_nanos: 0,
            cached: false,
            sheds: 0,
            outputs: vec![Token::Text("x".into())],
        };
        let failed = RunEvent::TaskFailed {
            task: 99,
            name: "src".into(),
            message: "gone".into(),
        };
        for event in [completed, failed] {
            let config = DurableConfig::new(forged_journal(&g, event));
            let err = Executor::parallel()
                .run_durable(&g, &HashMap::new(), &config)
                .unwrap_err();
            assert!(
                matches!(err, WorkflowError::JournalInconsistent { task: 99, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn completion_without_its_outputs_is_an_error_not_a_panic() {
        // `src` feeds `up`, so a completion of `src` with no outputs
        // would leave `up` nothing to gather.
        let mut g = TaskGraph::new();
        let src = g.add_named_task("src", Arc::new(ConstText("x".into())));
        let up = g.add_named_task("up", Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        let event = RunEvent::TaskCompleted {
            task: src,
            name: "src".into(),
            attempts: 1,
            virtual_nanos: 0,
            cached: false,
            sheds: 0,
            outputs: Vec::new(),
        };
        for workers in [1, 4] {
            let config =
                DurableConfig::new(forged_journal(&g, event.clone())).with_workers(workers);
            let err = Executor::parallel()
                .run_durable(&g, &HashMap::new(), &config)
                .unwrap_err();
            assert!(
                matches!(&err, WorkflowError::JournalInconsistent { task, reason }
                    if *task == src && reason.contains("0 outputs")),
                "{workers} workers: {err}"
            );
        }
    }

    /// Emits a list nested one deeper than the run journal's decoder
    /// accepts.
    struct DeepList;

    impl crate::graph::Tool for DeepList {
        fn name(&self) -> &str {
            "DeepList"
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![]
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("value", "list")]
        }

        fn execute(&self, _inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            let mut deep = Token::Null;
            for _ in 0..=64 {
                deep = Token::List(vec![deep]);
            }
            Ok(vec![deep])
        }
    }

    #[test]
    fn an_output_the_journal_refuses_ends_the_run_naming_the_task() {
        for workers in [1, 4] {
            let mut g = TaskGraph::new();
            g.add_named_task("src", Arc::new(ConstText("x".into())));
            g.add_named_task("deep", Arc::new(DeepList));
            let journal = Arc::new(RunJournal::new());
            let config = DurableConfig::new(Arc::clone(&journal)).with_workers(workers);
            let err = Executor::parallel()
                .run_durable(&g, &HashMap::new(), &config)
                .unwrap_err();
            assert!(
                matches!(&err, WorkflowError::JournalRefused { task, .. } if task == "deep"),
                "{workers} workers: {err}"
            );
            // Every record the journal holds decodes.
            let stats = journal.stats();
            assert_eq!(journal.events().len() as u64, stats.records);
            assert_eq!((stats.records, stats.torn_bytes), (stats.appends, 0));
        }
    }

    #[test]
    fn orchestrator_crash_script_kills_on_virtual_clock() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let g = diamond();
        let nanos = Arc::new(AtomicU64::new(0));
        let clock_nanos = Arc::clone(&nanos);
        let clock: crate::engine::ClockSource =
            Arc::new(move || Duration::from_nanos(clock_nanos.load(Ordering::SeqCst)));
        // The virtual clock starts past the scripted instant, so the
        // first acknowledgement kills the orchestrator.
        nanos.store(Duration::from_secs(5).as_nanos() as u64, Ordering::SeqCst);
        let script = Arc::new(CrashScript::new());
        script.schedule(dm_wsrf::resilience::CrashRestart::at(Duration::from_secs(
            1,
        )));
        let journal = Arc::new(RunJournal::new());
        let err = Executor::parallel()
            .with_virtual_clock(clock)
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal))
                    .with_orchestrator_crash(Arc::clone(&script)),
            )
            .unwrap_err();
        assert!(matches!(err, WorkflowError::Crashed { .. }));
        assert_eq!(script.kills_fired(), 1);
        // The journal survived and a crash-free executor resumes it.
        let resumed = Executor::parallel()
            .run_durable(&g, &HashMap::new(), &DurableConfig::new(journal))
            .unwrap();
        let plain = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        assert_eq!(resumed.canonical_bytes(), plain.canonical_bytes());
    }

    /// The next draw of a counter-based splitmix64 stream.
    fn next(rng: &mut u64) -> u64 {
        *rng = rng.wrapping_add(1);
        dm_wsrf::fleet::splitmix64(*rng)
    }

    /// Hashes its inputs with its name and counts its executions; with
    /// `fails` set it fails every time.
    struct Counting {
        name: String,
        inputs: usize,
        fails: bool,
        runs: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl crate::graph::Tool for Counting {
        fn name(&self) -> &str {
            &self.name
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            (0..self.inputs)
                .map(|i| crate::graph::PortSpec::new(format!("in{i}"), "long"))
                .collect()
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("out", "long")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            if self.fails {
                return Err(format!("{} always fails", self.name));
            }
            let mut hash = self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            for input in inputs {
                let Token::Int(v) = input else {
                    return Err("expected long".into());
                };
                hash = (hash.rotate_left(5) ^ *v as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(vec![Token::Int(hash as i64)])
        }
    }

    /// A DAG of 1–16 counting tasks drawn from `seed`: task `i` takes up
    /// to three inputs from tasks before it. Same seed, same graph.
    struct Generated {
        graph: TaskGraph,
        runs: Vec<Arc<std::sync::atomic::AtomicUsize>>,
    }

    impl Generated {
        fn new(seed: u64, failing: Option<TaskId>) -> Generated {
            let mut rng = seed;
            let n = 1 + (next(&mut rng) % 16) as usize;
            let mut graph = TaskGraph::new();
            let mut runs = Vec::new();
            for i in 0..n {
                let parents: Vec<TaskId> = (0..next(&mut rng) % 4)
                    .filter(|_| i > 0)
                    .map(|_| (next(&mut rng) % i as u64) as TaskId)
                    .collect();
                let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
                let tool = Counting {
                    name: format!("t{i}"),
                    inputs: parents.len(),
                    fails: failing == Some(i),
                    runs: Arc::clone(&counter),
                };
                let id = graph.add_named_task(format!("t{i}"), Arc::new(tool));
                for (port, &parent) in parents.iter().enumerate() {
                    graph.connect(parent, 0, id, port).unwrap();
                }
                runs.push(counter);
            }
            Generated { graph, runs }
        }

        fn counts(&self) -> Vec<usize> {
            self.runs.iter().map(|r| r.load(Ordering::SeqCst)).collect()
        }

        /// `task` and every task downstream of it.
        fn cone(&self, task: TaskId) -> Vec<bool> {
            let mut cone: Vec<bool> = (0..self.graph.num_tasks()).map(|t| t == task).collect();
            // Cables were added in order of their target, each from an
            // earlier task, so one pass in that order closes the cone.
            for c in self.graph.cables() {
                cone[c.to_task] |= cone[c.from_task];
            }
            cone
        }
    }

    /// Checks one generated graph.
    fn check_generated(seed: u64) {
        let bindings = HashMap::new();
        let n = Generated::new(seed, None).graph.num_tasks();
        let mut rng = seed ^ 0xD1B5_4A32_D192_ED03;
        let width = [1, 4][(next(&mut rng) % 2) as usize];
        let durable = |g: &Generated, journal: &Arc<RunJournal>, workers: usize| {
            Executor::parallel().run_durable(
                &g.graph,
                &bindings,
                &DurableConfig::new(Arc::clone(journal)).with_workers(workers),
            )
        };

        // Every entry point and width computes the same results, each
        // task exactly once per enactment: first on a fresh graph, where
        // no claim's cost is known, then again on the same graph, where
        // every task's is.
        let expected = Executor::serial()
            .run(&Generated::new(seed, None).graph, &bindings)
            .unwrap()
            .canonical_bytes();
        for entry in ["serial", "parallel", "1 worker", "4 workers"] {
            let g = Generated::new(seed, None);
            for round in 1..=2 {
                let report = match entry {
                    "serial" => Executor::serial().run(&g.graph, &bindings),
                    "parallel" => Executor::parallel().run(&g.graph, &bindings),
                    "1 worker" => durable(&g, &Arc::new(RunJournal::new()), 1),
                    _ => durable(&g, &Arc::new(RunJournal::new()), 4),
                }
                .unwrap();
                assert_eq!(report.canonical_bytes(), expected, "{entry}, run {round}");
                assert_eq!(g.counts(), vec![round; n], "{entry}, run {round}");
            }
        }

        // One always-failing task: `run` stops before its cone, the
        // durable loop completes everything outside it, cold and warm.
        let failing = (next(&mut rng) % n as u64) as TaskId;
        let cone = Generated::new(seed, Some(failing)).cone(failing);
        for executor in [Executor::serial(), Executor::parallel()] {
            let g = Generated::new(seed, Some(failing));
            for round in 1..=2 {
                let err = executor.run(&g.graph, &bindings).unwrap_err();
                assert!(
                    matches!(&err, WorkflowError::TaskFailed { task, .. } if *task == format!("t{failing}")),
                    "run {round}: {err}"
                );
                for (t, runs) in g.counts().into_iter().enumerate() {
                    if cone[t] && t != failing {
                        assert_eq!(runs, 0, "run {round}: descendant t{t} of t{failing} ran");
                    }
                }
            }
        }
        let g = Generated::new(seed, Some(failing));
        for round in 1..=2 {
            let report = durable(&g, &Arc::new(RunJournal::new()), width).unwrap();
            for (t, runs) in g.counts().into_iter().enumerate() {
                let recorded = report.runs.iter().find(|r| r.task == format!("t{t}"));
                if t == failing {
                    assert!(
                        recorded.is_some_and(|r| r.error.is_some()),
                        "run {round}: t{t} failed"
                    );
                } else if cone[t] {
                    assert_eq!(runs, 0, "run {round}: descendant t{t} of t{failing} ran");
                    assert!(recorded.is_none(), "run {round}: descendant t{t} recorded");
                } else {
                    assert_eq!(runs, round, "run {round}: t{t} outside the cone");
                    assert!(
                        recorded.is_some_and(|r| r.error.is_none()),
                        "run {round}: t{t} completed"
                    );
                }
            }
        }

        // Killed after a seeded number of appends, then resumed from the
        // surviving bytes: the same results, and no journaled
        // completion re-runs. Cold, the kill and the resume each get a
        // fresh graph, as across a process boundary; warm, one graph
        // that has run once already takes both.
        let appends = 2 * n as u64 + 2;
        let kill_at = 1 + next(&mut rng) % appends;
        for warm in [false, true] {
            let g = Generated::new(seed, None);
            if warm {
                durable(&g, &Arc::new(RunJournal::new()), width).unwrap();
            }
            let journal = Arc::new(RunJournal::new());
            let err = Executor::parallel()
                .run_durable(
                    &g.graph,
                    &bindings,
                    &DurableConfig::new(Arc::clone(&journal))
                        .with_workers(width)
                        .with_kill_after_appends(kill_at),
                )
                .unwrap_err();
            assert!(
                matches!(err, WorkflowError::Crashed { appended } if appended == kill_at),
                "kill at {kill_at}, warm {warm}: {err}"
            );
            let survived = Arc::new(RunJournal::from_bytes(&journal.bytes()));
            let completed = survived.replay().completed;
            let g = if warm { g } else { Generated::new(seed, None) };
            let before = g.counts();
            let resumed = durable(&g, &survived, width).unwrap();
            assert_eq!(
                resumed.canonical_bytes(),
                expected,
                "kill at {kill_at}, warm {warm}"
            );
            for (t, (after, before)) in g.counts().into_iter().zip(before).enumerate() {
                let want = usize::from(!completed.contains_key(&t));
                assert_eq!(
                    after - before,
                    want,
                    "t{t} after a kill at {kill_at}, warm {warm}"
                );
            }
        }
    }

    /// Prints the seed when a check panics, so the failing graph can be
    /// rebuilt on its own.
    struct SeedOnPanic(u64);

    impl Drop for SeedOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("generated graph failed: seed {:#x}", self.0);
            }
        }
    }

    #[test]
    fn generated_graphs_agree_across_entry_points_failures_and_crashes() {
        let mut stream = 0x5EED_FAE1_u64;
        for _ in 0..256 {
            let seed = next(&mut stream);
            let _seed = SeedOnPanic(seed);
            check_generated(seed);
        }
    }
}

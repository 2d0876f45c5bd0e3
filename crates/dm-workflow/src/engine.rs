//! Workflow enactment: the [`Executor`] with per-task retry (the
//! fault-tolerance requirement: "the framework must … include the
//! ability to complete the task if a fault occurs by moving the job to
//! another resource", §3 — the moving itself is implemented by
//! [`crate::wsimport::WsTool`] host failover; the engine contributes
//! bounded retries and failure accounting), its reports, and its live
//! progress events.
//!
//! Every enactment runs on one scheduler, the frontier loop in
//! [`crate::durable`]: an orchestrator queues ready tasks for a pool of
//! workers, and the orchestrator's own thread is one of them.
//! [`Executor::run`] uses it with no journal, one worker (the calling
//! thread) in [`ExecutionMode::Serial`] and up to one per core in
//! [`ExecutionMode::Parallel`]; [`Executor::run_durable`] adds the run
//! journal. A task whose last execution was cheap stays on the calling
//! thread even in a wider run, and helper threads start only when a
//! claim of unknown or large cost is queued while another is
//! outstanding, so a tool must not wait on a sibling task: siblings
//! communicate only through cables.

use crate::error::Result;
use crate::graph::{TaskGraph, TaskId, Token};
use crate::memo::MemoCache;
use dm_wsrf::resilience::{BackoffSchedule, ResiliencePolicy};
use dm_wsrf::trace::{SpanContext, SpanKind, Tracer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The worker-pool width of [`Executor::run`]: how many threads may
/// execute tasks, the calling thread included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One worker, the calling thread: tasks run one at a time, in the
    /// order the frontier loop dispatches them, and no thread is
    /// spawned.
    Serial,
    /// Up to one worker per available core (at most one per task): the
    /// calling thread, and one spawned thread per further worker once a
    /// claim of unknown cost, or of known cost past the hand-off limit,
    /// is queued while another claim is outstanding. A graph's first
    /// enactment runs its ready tasks concurrently; re-enacting it keeps
    /// tasks that ran cheaply last time on the calling thread (see
    /// [`crate::durable`]), so a tool must not wait on a sibling task.
    Parallel,
}

/// Retry behaviour for the executor: a per-task attempt ceiling plus
/// exponential backoff between attempts and an optional per-workflow
/// retry *budget* shared by every task in a run — once the budget is
/// spent, no task may retry again, bounding the total extra work a
/// degraded deployment can absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum execution attempts per task (1 = no retries).
    pub max_attempts: usize,
    /// First backoff pause; later pauses grow with decorrelated jitter.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff pause.
    pub max_backoff: Duration,
    /// Total retries allowed across the whole run (`None` = unlimited).
    pub retry_budget: Option<usize>,
    /// Jitter seed, perturbed per task, so runs are reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            retry_budget: None,
            seed: 0xB0FF,
        }
    }
}

/// Receives each backoff pause instead of sleeping. The toolkit wires
/// this to the simulated network's virtual clock
/// ([`dm_wsrf::transport::Network::advance_virtual_time`]) so pauses
/// are charged to simulated time and enactment stays fast.
pub type BackoffSink = std::sync::Arc<dyn Fn(Duration) + Send + Sync>;

/// Reads the current simulated instant. The toolkit wires this to
/// [`dm_wsrf::transport::Network::now`] so reports measure enactment on
/// the same virtual clock the whole stack charges — wall-clock
/// `Instant` readings say nothing about a simulation that never sleeps.
pub type ClockSource = std::sync::Arc<dyn Fn() -> Duration + Send + Sync>;

/// Per-task record in an [`ExecutionReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRun {
    /// Task display name.
    pub task: String,
    /// Execution attempts used (1 = no retry).
    pub attempts: usize,
    /// Wall-clock duration of the successful attempt (or the last
    /// failed one).
    pub duration: Duration,
    /// Simulated-time duration of the same attempt, read from the
    /// executor's [`ClockSource`]; zero when no clock is wired.
    pub virtual_duration: Duration,
    /// Backoff accumulated between this task's attempts.
    pub backoff: Duration,
    /// `ServerBusy` sheds absorbed by the task's tool across all
    /// attempts ([`crate::graph::Tool::last_call_sheds`]).
    pub sheds: u64,
    /// `true` when the outputs came from the memo cache and the tool
    /// never executed (then `attempts` is 0).
    pub cached: bool,
    /// `true` when the run was restored from a run journal by durable
    /// recovery ([`crate::durable`]) and the tool did not execute in
    /// this process.
    pub replayed: bool,
    /// `None` on success, the failure message otherwise.
    pub error: Option<String>,
}

/// The result of enacting a workflow.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Output tokens of unconnected output ports: `(task, port) → token`.
    pub outputs: HashMap<(TaskId, usize), Token>,
    /// Per-task run records, in the order the orchestrator acknowledged
    /// them; ordered by (virtual completion tick, task id) when events
    /// are buffered (durable enactment).
    pub runs: Vec<TaskRun>,
    /// Total enactment wall-clock time.
    pub elapsed: Duration,
    /// Total enactment time on the simulated clock (zero when the
    /// executor has no [`ClockSource`]). This is the figure that agrees
    /// with benches and traces; `elapsed` is the host's wall-clock time,
    /// which knows nothing of the simulated network.
    pub virtual_elapsed: Duration,
    /// Retries left in the run's shared budget (`None` = unlimited).
    pub retry_budget_remaining: Option<usize>,
}

impl ExecutionReport {
    /// Fetch an output token by task id and port.
    pub fn output(&self, task: TaskId, port: usize) -> Option<&Token> {
        self.outputs.get(&(task, port))
    }

    /// Total retry attempts beyond first tries.
    pub fn total_retries(&self) -> usize {
        self.runs.iter().map(|r| r.attempts.saturating_sub(1)).sum()
    }

    /// Total backoff accumulated between attempts, across all tasks.
    pub fn total_backoff(&self) -> Duration {
        self.runs.iter().map(|r| r.backoff).sum()
    }

    /// Tasks served from the memo cache without executing.
    pub fn memo_hits(&self) -> usize {
        self.runs.iter().filter(|r| r.cached).count()
    }

    /// Tasks restored from a run journal instead of executing
    /// ([`TaskRun::replayed`]) — the work durable recovery saved.
    pub fn replay_hits(&self) -> usize {
        self.runs.iter().filter(|r| r.replayed).count()
    }

    /// A canonical byte encoding of the report's *semantic* content:
    /// every output token sorted by `(task, port)`, then every task run
    /// sorted by name with its success/failure status. Excludes
    /// attempts, durations, cache/replay provenance, and budget — the
    /// figures that legitimately differ between an uninterrupted run
    /// and a crash-then-resume of the same workflow. Two enactments
    /// computed the same results iff their canonical bytes are equal.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut outputs: Vec<_> = self.outputs.iter().collect();
        outputs.sort_by_key(|&(&(task, port), _)| (task, port));
        for (&(task, port), token) in outputs {
            out.extend_from_slice(format!("o {task} {port} ").as_bytes());
            crate::journal::canonical_token_bytes(&mut out, token);
            out.push(b'\n');
        }
        let mut runs: Vec<_> = self.runs.iter().collect();
        runs.sort_by(|a, b| a.task.cmp(&b.task).then_with(|| a.error.cmp(&b.error)));
        for run in runs {
            out.push(b'r');
            out.push(b' ');
            out.extend_from_slice(run.task.as_bytes());
            match &run.error {
                None => out.extend_from_slice(b" ok\n"),
                Some(message) => {
                    out.extend_from_slice(format!(" err {message}\n").as_bytes());
                }
            }
        }
        out
    }
}

/// A live progress event, delivered while the workflow runs — the
/// paper's service-monitoring requirement ("the framework should allow
/// users to monitor the progress of their jobs as they are executed on
/// distributed resources", §3).
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A task began executing (attempt number starts at 1).
    Started {
        /// Task display name.
        task: String,
        /// Attempt number.
        attempt: usize,
    },
    /// A task finished successfully.
    Finished {
        /// Task display name.
        task: String,
        /// Attempts used.
        attempts: usize,
        /// Duration of the successful attempt.
        duration: Duration,
    },
    /// A task attempt failed and a retry is scheduled after a backoff
    /// pause. Fires only between attempts, never on clean runs.
    Retrying {
        /// Task display name.
        task: String,
        /// The attempt number about to run (≥ 2).
        next_attempt: usize,
        /// Backoff pause before the next attempt.
        backoff: Duration,
        /// Retries left in the shared budget after this one (`None` =
        /// unlimited).
        budget_remaining: Option<usize>,
    },
    /// A task failed terminally.
    Failed {
        /// Task display name.
        task: String,
        /// The failure message.
        message: String,
    },
    /// A pure task's outputs were served from the memo cache; the tool
    /// did not execute.
    CacheHit {
        /// Task display name.
        task: String,
    },
    /// Enactment began (fires once, before any task event).
    RunStarted {
        /// Number of tasks in the graph.
        tasks: usize,
    },
    /// Enactment completed successfully (terminal failures emit
    /// [`ProgressEvent::Failed`] instead).
    RunFinished {
        /// Number of task runs recorded (including cached ones).
        tasks: usize,
        /// Total enactment wall-clock time.
        elapsed: Duration,
        /// Total enactment time on the simulated clock (zero without a
        /// [`ClockSource`]).
        virtual_elapsed: Duration,
    },
}

/// Listener callback for [`ProgressEvent`]s. Live events arrive on the
/// thread running the task, which in a serial run is the calling
/// thread; buffered ones, and `RunStarted`/`RunFinished`, arrive on the
/// calling thread.
pub type ProgressListener = std::sync::Arc<dyn Fn(ProgressEvent) + Send + Sync>;

/// The workflow executor.
#[derive(Clone)]
pub struct Executor {
    pub(crate) mode: ExecutionMode,
    pub(crate) policy: RetryPolicy,
    pub(crate) backoff_sink: Option<BackoffSink>,
    pub(crate) clock: Option<ClockSource>,
    pub(crate) listener: Option<ProgressListener>,
    pub(crate) memo: Option<Arc<MemoCache>>,
    pub(crate) tracer: Option<Arc<Tracer>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("mode", &self.mode)
            .field("policy", &self.policy)
            .field("backoff_sink", &self.backoff_sink.is_some())
            .field("clock", &self.clock.is_some())
            .field("listener", &self.listener.is_some())
            .field("memo", &self.memo.is_some())
            .field("tracer", &self.tracer.is_some())
            .finish()
    }
}

impl Executor {
    /// Create a serial executor without retries.
    pub fn serial() -> Executor {
        Executor {
            mode: ExecutionMode::Serial,
            policy: RetryPolicy::default(),
            backoff_sink: None,
            clock: None,
            listener: None,
            memo: None,
            tracer: None,
        }
    }

    /// Create a parallel executor without retries.
    pub fn parallel() -> Executor {
        Executor {
            mode: ExecutionMode::Parallel,
            ..Executor::serial()
        }
    }

    /// Builder: allow up to `attempts` executions per task.
    pub fn with_max_attempts(mut self, attempts: usize) -> Executor {
        self.policy.max_attempts = attempts.max(1);
        self
    }

    /// Builder: install a full [`RetryPolicy`] (attempt ceiling,
    /// backoff shape, shared retry budget, jitter seed).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Executor {
        self.policy = policy;
        self.policy.max_attempts = self.policy.max_attempts.max(1);
        self
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Builder: deliver backoff pauses to `sink` instead of sleeping.
    /// Without a sink, backoff is accounted in reports and events but
    /// no time passes anywhere.
    pub fn with_backoff_sink(mut self, sink: BackoffSink) -> Executor {
        self.backoff_sink = Some(sink);
        self
    }

    /// Builder: measure enactment on `clock` (the simulated instant,
    /// usually [`dm_wsrf::transport::Network::now`]) in addition to
    /// wall time. Fills [`ExecutionReport::virtual_elapsed`] and
    /// [`TaskRun::virtual_duration`]; without a clock both stay zero.
    pub fn with_virtual_clock(mut self, clock: ClockSource) -> Executor {
        self.clock = Some(clock);
        self
    }

    /// The simulated instant per the wired [`ClockSource`], or zero
    /// when none is wired (differences then stay zero too).
    pub(crate) fn virtual_now(&self) -> Duration {
        self.clock.as_ref().map(|c| c()).unwrap_or(Duration::ZERO)
    }

    /// Builder: receive live [`ProgressEvent`]s during enactment.
    pub fn with_listener(mut self, listener: ProgressListener) -> Executor {
        self.listener = Some(listener);
        self
    }

    /// Builder: serve pure tasks ([`crate::graph::Tool::is_pure`]) from
    /// `cache` when their inputs are unchanged, and record fresh
    /// results into it. Impure tasks always execute.
    pub fn with_memoisation(mut self, cache: Arc<MemoCache>) -> Executor {
        self.memo = Some(cache);
        self
    }

    /// Builder: record causal spans into `tracer` — one workflow root
    /// per run, one task span per execution attempt. Task spans are
    /// made the thread's current span while the tool executes, so
    /// deeper layers (SOAP calls, transport legs, dispatches) chain
    /// under them. Use the tracer from
    /// [`dm_wsrf::transport::Network::enable_tracing`] so the whole
    /// stack shares one trace.
    pub fn with_tracing(mut self, tracer: Arc<Tracer>) -> Executor {
        self.tracer = Some(tracer);
        self
    }

    /// The tracer in use, if any.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.clone()
    }

    pub(crate) fn emit(&self, event: ProgressEvent) {
        if let Some(l) = &self.listener {
            l(event);
        }
    }

    /// Enact `graph`. `bindings` provides tokens for unconnected input
    /// ports (`(task, port) → token`).
    ///
    /// Runs on the same frontier loop as [`Executor::run_durable`], with
    /// no journal and one worker ([`ExecutionMode::Serial`]: every task
    /// runs on the calling thread) or up to one per available core
    /// ([`ExecutionMode::Parallel`]: the calling thread, plus one
    /// spawned thread per further worker once a claim of unknown or
    /// large cost waits while another is outstanding; a task whose last
    /// execution was cheap stays on the calling thread). The core count
    /// is read once per process. The first task
    /// failure stops the run: no successor is dispatched, claims not yet
    /// started are dropped, and the error is
    /// [`TaskFailed`](crate::error::WorkflowError::TaskFailed) naming
    /// that task; no [`ProgressEvent::RunFinished`] fires.
    pub fn run(
        &self,
        graph: &TaskGraph,
        bindings: &HashMap<(TaskId, usize), Token>,
    ) -> Result<ExecutionReport> {
        let workers = match self.mode {
            ExecutionMode::Serial => 1,
            ExecutionMode::Parallel => parallel_width(),
        };
        self.enact(graph, bindings, None, workers)
    }

    pub(crate) fn execute_task(
        &self,
        graph: &TaskGraph,
        task: TaskId,
        inputs: &[Token],
        budget: &Mutex<Option<usize>>,
        root: Option<SpanContext>,
        emit: &(dyn Fn(ProgressEvent) + Sync),
    ) -> (std::result::Result<Vec<Token>, String>, TaskRun) {
        let node = graph.task(task).expect("validated id");
        // Memoisation: pure tasks with unchanged inputs are served from
        // the cache without executing (attempts stays 0).
        let memo_key = self
            .memo
            .as_deref()
            .and_then(|m| m.key_for(node.tool.as_ref(), inputs));
        if let (Some(memo), Some(key)) = (&self.memo, memo_key) {
            if let Some(outputs) = memo.get(key) {
                if let Some(t) = &self.tracer {
                    let mut span = t.start_span(node.name.clone(), SpanKind::Task, root);
                    span.set_attr("cached", "true");
                }
                emit(ProgressEvent::CacheHit {
                    task: node.name.clone(),
                });
                return (
                    Ok(outputs),
                    TaskRun {
                        task: node.name.clone(),
                        attempts: 0,
                        duration: Duration::ZERO,
                        virtual_duration: Duration::ZERO,
                        backoff: Duration::ZERO,
                        sheds: 0,
                        cached: true,
                        replayed: false,
                        error: None,
                    },
                );
            }
        }
        let backoff_policy =
            ResiliencePolicy::default().backoff(self.policy.base_backoff, self.policy.max_backoff);
        let mut schedule =
            BackoffSchedule::new(&backoff_policy, self.policy.seed ^ task_seed(&node.name));
        let mut backoff_total = Duration::ZERO;
        let mut sheds = 0u64;
        let mut attempts = 0;
        loop {
            attempts += 1;
            emit(ProgressEvent::Started {
                task: node.name.clone(),
                attempt: attempts,
            });
            // One span per attempt, current for the duration of the
            // tool call so SOAP-call spans opened inside chain under it.
            let mut task_span = self.tracer.as_ref().map(|t| {
                let mut span = t.start_span(node.name.clone(), SpanKind::Task, root);
                span.set_attr("attempt", attempts.to_string());
                span
            });
            let _current = task_span.as_ref().map(|s| s.make_current());
            let start = Instant::now();
            let vstart = self.virtual_now();
            let result = node.tool.execute(inputs);
            // Sheds the tool absorbed this attempt (retried or failed-
            // over ServerBusy responses) roll up into the run record.
            sheds += node.tool.last_call_sheds();
            match result {
                Ok(outputs) => {
                    let expected = node.outputs();
                    if outputs.len() != expected {
                        let msg = format!(
                            "tool returned {} outputs, declared {expected}",
                            outputs.len()
                        );
                        if let Some(span) = task_span.as_mut() {
                            span.set_error(msg.clone());
                        }
                        emit(ProgressEvent::Failed {
                            task: node.name.clone(),
                            message: msg.clone(),
                        });
                        return (
                            Err(msg.clone()),
                            TaskRun {
                                task: node.name.clone(),
                                attempts,
                                duration: start.elapsed(),
                                virtual_duration: self.virtual_now().saturating_sub(vstart),
                                backoff: backoff_total,
                                sheds,
                                cached: false,
                                replayed: false,
                                error: Some(msg),
                            },
                        );
                    }
                    emit(ProgressEvent::Finished {
                        task: node.name.clone(),
                        attempts,
                        duration: start.elapsed(),
                    });
                    if let (Some(memo), Some(key)) = (&self.memo, memo_key) {
                        memo.insert(key, outputs.clone());
                    }
                    return (
                        Ok(outputs),
                        TaskRun {
                            task: node.name.clone(),
                            attempts,
                            duration: start.elapsed(),
                            virtual_duration: self.virtual_now().saturating_sub(vstart),
                            backoff: backoff_total,
                            sheds,
                            cached: false,
                            replayed: false,
                            error: None,
                        },
                    );
                }
                Err(mut message) => {
                    if let Some(span) = task_span.as_mut() {
                        span.set_error(message.clone());
                    }
                    // Charge the shared per-workflow budget before
                    // retrying; exhaustion turns this failure terminal
                    // even with attempts left.
                    let budget_remaining = if attempts < self.policy.max_attempts {
                        let mut budget = budget.lock();
                        match *budget {
                            None => Some(None),
                            Some(n) if n > 0 => {
                                *budget = Some(n - 1);
                                Some(Some(n - 1))
                            }
                            Some(_) => {
                                message = format!("{message} (retry budget exhausted)");
                                None
                            }
                        }
                    } else {
                        None
                    };
                    match budget_remaining {
                        Some(remaining) => {
                            let delay = schedule.next_delay();
                            backoff_total += delay;
                            if let Some(sink) = &self.backoff_sink {
                                sink(delay);
                            }
                            emit(ProgressEvent::Retrying {
                                task: node.name.clone(),
                                next_attempt: attempts + 1,
                                backoff: delay,
                                budget_remaining: remaining,
                            });
                        }
                        None => {
                            emit(ProgressEvent::Failed {
                                task: node.name.clone(),
                                message: message.clone(),
                            });
                            return (
                                Err(message.clone()),
                                TaskRun {
                                    task: node.name.clone(),
                                    attempts,
                                    duration: start.elapsed(),
                                    virtual_duration: self.virtual_now().saturating_sub(vstart),
                                    backoff: backoff_total,
                                    sheds,
                                    cached: false,
                                    replayed: false,
                                    error: Some(message),
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn gather_inputs(
        graph: &TaskGraph,
        task: TaskId,
        bindings: &HashMap<(TaskId, usize), Token>,
        produced: &HashMap<(TaskId, usize), Token>,
    ) -> Vec<Token> {
        let num_inputs = graph.task(task).expect("validated").inputs();
        (0..num_inputs)
            .map(|port| {
                if let Some(cable) = graph.feeder(task, port) {
                    produced
                        .get(&(cable.from_task, cable.from_port))
                        .cloned()
                        .expect("producer ran before consumer")
                } else {
                    bindings
                        .get(&(task, port))
                        .cloned()
                        .expect("validated binding")
                }
            })
            .collect()
    }

    /// Copy into `report` the produced tokens of every output port no
    /// cable leaves: the workflow's results.
    pub(crate) fn collect_outputs(
        graph: &TaskGraph,
        produced: &HashMap<(TaskId, usize), Token>,
        report: &mut ExecutionReport,
    ) {
        for (t, node) in graph.tasks().iter().enumerate() {
            for port in (0..node.outputs()).filter(|&p| !graph.feeds(t, p)) {
                if let Some(token) = produced.get(&(t, port)) {
                    report.outputs.insert((t, port), token.clone());
                }
            }
        }
    }
}

/// The width of a parallel run: the available cores, resolved once per
/// process, as the compute pool resolves its own, because
/// `available_parallelism` reads cgroup files on every call (19–34 µs of
/// CPU on a 2-core x86-64 VM).
fn parallel_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(4, |p| p.get()))
}

/// Stable per-task seed perturbation so concurrent tasks don't share
/// one backoff-jitter stream.
fn task_seed(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WorkflowError;
    use crate::graph::test_tools::*;
    use std::sync::Arc;

    #[test]
    fn serial_pipeline_produces_output() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("hello".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        let report = Executor::serial().run(&g, &HashMap::new()).unwrap();
        assert_eq!(report.output(up, 0), Some(&Token::Text("HELLO".into())));
        assert_eq!(report.runs.len(), 2);
    }

    #[test]
    fn bindings_feed_unconnected_inputs() {
        let mut g = TaskGraph::new();
        let cat = g.add_task(Arc::new(Concat));
        let mut bindings = HashMap::new();
        bindings.insert((cat, 0), Token::Text("a".into()));
        bindings.insert((cat, 1), Token::Text("b".into()));
        let report = Executor::serial().run(&g, &bindings).unwrap();
        assert_eq!(report.output(cat, 0), Some(&Token::Text("ab".into())));
    }

    #[test]
    fn missing_binding_detected() {
        let mut g = TaskGraph::new();
        g.add_task(Arc::new(Upper));
        let err = Executor::serial().run(&g, &HashMap::new()).unwrap_err();
        assert!(matches!(err, WorkflowError::UnboundInput { .. }));
    }

    #[test]
    fn diamond_graph_joins() {
        // src → (upper, concat-b) ; upper → concat-a.
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let up = g.add_task(Arc::new(Upper));
        let cat = g.add_task(Arc::new(Concat));
        g.connect(src, 0, up, 0).unwrap();
        g.connect(up, 0, cat, 0).unwrap();
        g.connect(src, 0, cat, 1).unwrap();
        let report = Executor::serial().run(&g, &HashMap::new()).unwrap();
        assert_eq!(report.output(cat, 0), Some(&Token::Text("Xx".into())));
    }

    #[test]
    fn parallel_matches_serial() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("abc".into())));
        let mut sinks = Vec::new();
        for _ in 0..8 {
            let up = g.add_task(Arc::new(Upper));
            g.connect(src, 0, up, 0).unwrap();
            sinks.push(up);
        }
        let serial = Executor::serial().run(&g, &HashMap::new()).unwrap();
        let parallel = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        for &s in &sinks {
            assert_eq!(serial.output(s, 0), parallel.output(s, 0));
        }
        assert_eq!(parallel.runs.len(), 9);
    }

    #[test]
    fn failure_reports_task_name() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let flaky = g.add_named_task("always-fails", Arc::new(Flaky::failing(usize::MAX)));
        g.connect(src, 0, flaky, 0).unwrap();
        let err = Executor::serial().run(&g, &HashMap::new()).unwrap_err();
        assert!(
            matches!(err, WorkflowError::TaskFailed { ref task, .. } if task == "always-fails")
        );
    }

    #[test]
    fn retries_recover_transient_failures() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("ok".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(2)));
        g.connect(src, 0, flaky, 0).unwrap();
        let report = Executor::serial()
            .with_max_attempts(3)
            .run(&g, &HashMap::new())
            .unwrap();
        assert_eq!(report.output(flaky, 0), Some(&Token::Text("ok".into())));
        assert_eq!(report.total_retries(), 2);
    }

    #[test]
    fn insufficient_retries_still_fail() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("ok".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(5)));
        g.connect(src, 0, flaky, 0).unwrap();
        assert!(Executor::serial()
            .with_max_attempts(3)
            .run(&g, &HashMap::new())
            .is_err());
    }

    #[test]
    fn parallel_failure_terminates() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(usize::MAX)));
        g.connect(src, 0, flaky, 0).unwrap();
        let err = Executor::parallel().run(&g, &HashMap::new()).unwrap_err();
        assert!(matches!(err, WorkflowError::TaskFailed { .. }));
    }

    #[test]
    fn progress_events_stream_in_order() {
        use parking_lot::Mutex;
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let listener: super::ProgressListener = std::sync::Arc::new(move |e| sink.lock().push(e));

        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        Executor::serial()
            .with_listener(listener)
            .run(&g, &HashMap::new())
            .unwrap();
        let events = events.lock();
        // RunStarted + 2 × (Started + Finished) + RunFinished
        assert_eq!(events.len(), 6);
        assert!(matches!(
            &events[0],
            super::ProgressEvent::RunStarted { tasks: 2 }
        ));
        assert!(matches!(
            &events[1],
            super::ProgressEvent::Started { task, attempt: 1 } if task == "ConstText"
        ));
        assert!(matches!(
            &events[4],
            super::ProgressEvent::Finished { task, .. } if task == "Upper"
        ));
        assert!(matches!(
            &events[5],
            super::ProgressEvent::RunFinished { tasks: 2, .. }
        ));
    }

    #[test]
    fn tracing_links_task_spans_under_one_workflow_root() {
        let tracer = Arc::new(Tracer::wall_clock());
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        Executor::serial()
            .with_tracing(Arc::clone(&tracer))
            .run(&g, &HashMap::new())
            .unwrap();

        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 3); // 2 task spans + 1 workflow root
        let root = spans
            .iter()
            .find(|s| s.kind == SpanKind::Workflow)
            .expect("workflow root span");
        assert_eq!(root.parent_span_id, None);
        assert_eq!(root.attribute("tasks"), Some("2"));
        for task in spans.iter().filter(|s| s.kind == SpanKind::Task) {
            assert_eq!(task.trace_id, root.trace_id);
            assert_eq!(task.parent_span_id, Some(root.span_id));
            assert_eq!(task.attribute("attempt"), Some("1"));
        }
        assert!(spans.iter().any(|s| s.name == "ConstText"));
        assert!(spans.iter().any(|s| s.name == "Upper"));
    }

    #[test]
    fn tracing_marks_failed_attempts_and_cache_hits() {
        use crate::memo::MemoCache;
        let tracer = Arc::new(Tracer::wall_clock());
        let memo = Arc::new(MemoCache::new(16));
        let mut g = TaskGraph::new();
        let up = g.add_task(Arc::new(PureUpper::new()));
        let mut bindings = HashMap::new();
        bindings.insert((up, 0), Token::Text("hello".into()));
        let exec = Executor::serial()
            .with_tracing(Arc::clone(&tracer))
            .with_memoisation(Arc::clone(&memo));
        exec.run(&g, &bindings).unwrap();
        exec.run(&g, &bindings).unwrap();
        let spans = tracer.finished_spans();
        let cached = spans
            .iter()
            .find(|s| s.attribute("cached") == Some("true"))
            .expect("cache-hit span");
        assert_eq!(cached.kind, SpanKind::Task);

        tracer.clear();
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(usize::MAX)));
        g.connect(src, 0, flaky, 0).unwrap();
        let _ = Executor::serial()
            .with_max_attempts(2)
            .with_tracing(Arc::clone(&tracer))
            .run(&g, &HashMap::new());
        let spans = tracer.finished_spans();
        let failed: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s.status, dm_wsrf::trace::SpanStatus::Error(_)))
            .collect();
        // Both flaky attempts errored, and the workflow root errored.
        assert_eq!(
            failed
                .iter()
                .filter(|s| s.kind == SpanKind::Task && s.name == "Flaky")
                .count(),
            2
        );
        assert!(failed.iter().any(|s| s.kind == SpanKind::Workflow));
    }

    #[test]
    fn progress_events_report_retries_and_failures() {
        use parking_lot::Mutex;
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let listener: super::ProgressListener = std::sync::Arc::new(move |e| sink.lock().push(e));

        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(usize::MAX)));
        g.connect(src, 0, flaky, 0).unwrap();
        let _ = Executor::serial()
            .with_max_attempts(3)
            .with_listener(listener)
            .run(&g, &HashMap::new());
        let events = events.lock();
        let starts = events
            .iter()
            .filter(|e| matches!(e, super::ProgressEvent::Started { task, .. } if task == "Flaky"))
            .count();
        assert_eq!(starts, 3);
        assert!(events
            .iter()
            .any(|e| matches!(e, super::ProgressEvent::Failed { task, .. } if task == "Flaky")));
    }

    #[test]
    fn backoff_is_accounted_and_delivered_to_sink() {
        use parking_lot::Mutex;
        let charged = std::sync::Arc::new(Mutex::new(Duration::ZERO));
        let sink_total = std::sync::Arc::clone(&charged);
        let sink: super::BackoffSink = std::sync::Arc::new(move |d| *sink_total.lock() += d);

        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("ok".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(2)));
        g.connect(src, 0, flaky, 0).unwrap();
        let report = Executor::serial()
            .with_max_attempts(3)
            .with_backoff_sink(sink)
            .run(&g, &HashMap::new())
            .unwrap();
        assert_eq!(report.total_retries(), 2);
        // Two pauses, each at least the base backoff.
        let total = report.total_backoff();
        assert!(
            total >= 2 * RetryPolicy::default().base_backoff,
            "total {total:?}"
        );
        assert_eq!(*charged.lock(), total);
        // The backoff is attributed to the flaky task's run record.
        let flaky_run = report.runs.iter().find(|r| r.task == "Flaky").unwrap();
        assert_eq!(flaky_run.backoff, total);
        assert_eq!(report.retry_budget_remaining, None);
    }

    #[test]
    fn retry_budget_is_shared_across_tasks() {
        // Two flaky tasks each need 2 retries; a budget of 2 is burned
        // by the first, so the second fails even with attempts left.
        let build = || {
            let mut g = TaskGraph::new();
            let src = g.add_task(Arc::new(ConstText("ok".into())));
            let a = g.add_named_task("flaky-a", Arc::new(Flaky::failing(2)));
            let b = g.add_named_task("flaky-b", Arc::new(Flaky::failing(2)));
            g.connect(src, 0, a, 0).unwrap();
            g.connect(a, 0, b, 0).unwrap();
            g
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };

        let starved = Executor::serial()
            .with_retry_policy(RetryPolicy {
                retry_budget: Some(2),
                ..policy
            })
            .run(&build(), &HashMap::new());
        let err = starved.unwrap_err();
        assert!(
            matches!(err, WorkflowError::TaskFailed { ref task, ref message }
                if task == "flaky-b" && message.contains("retry budget exhausted")),
            "got: {err}"
        );

        let funded = Executor::serial()
            .with_retry_policy(RetryPolicy {
                retry_budget: Some(5),
                ..policy
            })
            .run(&build(), &HashMap::new())
            .unwrap();
        assert_eq!(funded.total_retries(), 4);
        assert_eq!(funded.retry_budget_remaining, Some(1));
    }

    #[test]
    fn retrying_events_fire_between_attempts() {
        use parking_lot::Mutex;
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let listener: super::ProgressListener = std::sync::Arc::new(move |e| sink.lock().push(e));

        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(1)));
        g.connect(src, 0, flaky, 0).unwrap();
        Executor::serial()
            .with_retry_policy(RetryPolicy {
                max_attempts: 2,
                retry_budget: Some(10),
                ..RetryPolicy::default()
            })
            .with_listener(listener)
            .run(&g, &HashMap::new())
            .unwrap();
        let events = events.lock();
        let retrying: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                super::ProgressEvent::Retrying {
                    task,
                    next_attempt,
                    backoff,
                    budget_remaining,
                } => Some((task.clone(), *next_attempt, *backoff, *budget_remaining)),
                _ => None,
            })
            .collect();
        assert_eq!(retrying.len(), 1);
        let (task, next_attempt, backoff, budget_remaining) = &retrying[0];
        assert_eq!(task, "Flaky");
        assert_eq!(*next_attempt, 2);
        assert!(*backoff >= RetryPolicy::default().base_backoff);
        assert_eq!(*budget_remaining, Some(9));
    }

    /// Pure uppercase that counts real executions.
    struct PureUpper {
        executions: std::sync::atomic::AtomicUsize,
    }

    impl PureUpper {
        fn new() -> PureUpper {
            PureUpper {
                executions: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl crate::graph::Tool for PureUpper {
        fn name(&self) -> &str {
            "PureUpper"
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("text", "string")]
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("upper", "string")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            self.executions
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            match &inputs[0] {
                Token::Text(s) => Ok(vec![Token::Text(s.to_uppercase())]),
                _ => Err("expected text".into()),
            }
        }

        fn is_pure(&self) -> bool {
            true
        }
    }

    #[test]
    fn memoised_rerun_skips_pure_tasks() {
        use crate::memo::MemoCache;
        let tool = Arc::new(PureUpper::new());
        let mut g = TaskGraph::new();
        let up = g.add_task(Arc::clone(&tool) as Arc<dyn crate::graph::Tool>);
        let mut bindings = HashMap::new();
        bindings.insert((up, 0), Token::Text("hello".into()));

        let cache = Arc::new(MemoCache::new(16));
        let exec = Executor::serial().with_memoisation(Arc::clone(&cache));
        let cold = exec.run(&g, &bindings).unwrap();
        assert_eq!(cold.output(up, 0), Some(&Token::Text("HELLO".into())));
        assert_eq!(cold.memo_hits(), 0);
        let warm = exec.run(&g, &bindings).unwrap();
        assert_eq!(warm.output(up, 0), Some(&Token::Text("HELLO".into())));
        assert_eq!(warm.memo_hits(), 1);
        let run = &warm.runs[0];
        assert!(run.cached);
        assert_eq!(run.attempts, 0);
        // The tool body ran exactly once across both enactments.
        assert_eq!(tool.executions.load(std::sync::atomic::Ordering::SeqCst), 1);
        // Changed input bypasses the cache.
        bindings.insert((up, 0), Token::Text("other".into()));
        let changed = exec.run(&g, &bindings).unwrap();
        assert_eq!(changed.output(up, 0), Some(&Token::Text("OTHER".into())));
        assert_eq!(changed.memo_hits(), 0);
        assert_eq!(tool.executions.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn impure_tasks_are_never_memoised() {
        use crate::memo::MemoCache;
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        let cache = Arc::new(MemoCache::new(16));
        let exec = Executor::serial().with_memoisation(Arc::clone(&cache));
        exec.run(&g, &HashMap::new()).unwrap();
        let rerun = exec.run(&g, &HashMap::new()).unwrap();
        assert_eq!(rerun.memo_hits(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_hit_events_fire_on_warm_runs() {
        use crate::memo::MemoCache;
        use parking_lot::Mutex;
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let listener: super::ProgressListener = std::sync::Arc::new(move |e| sink.lock().push(e));

        let mut g = TaskGraph::new();
        let up = g.add_task(Arc::new(PureUpper::new()));
        let mut bindings = HashMap::new();
        bindings.insert((up, 0), Token::Text("x".into()));
        let exec = Executor::serial()
            .with_memoisation(Arc::new(MemoCache::new(4)))
            .with_listener(listener);
        exec.run(&g, &bindings).unwrap();
        exec.run(&g, &bindings).unwrap();
        let events = events.lock();
        let hits = events
            .iter()
            .filter(|e| matches!(e, super::ProgressEvent::CacheHit { task } if task == "PureUpper"))
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn empty_graph_runs() {
        let g = TaskGraph::new();
        let report = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        assert!(report.outputs.is_empty());
        let report = Executor::serial().run(&g, &HashMap::new()).unwrap();
        assert!(report.runs.is_empty());
    }

    /// Passes its input through, counting executions.
    struct CountingPass {
        name: String,
        executions: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl crate::graph::Tool for CountingPass {
        fn name(&self) -> &str {
            &self.name
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("in", "string")]
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("out", "string")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            self.executions
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(vec![inputs[0].clone()])
        }
    }

    /// Blocks until `failed` is raised (a sibling's terminal failure),
    /// then succeeds — so its successors are provably enqueued *after*
    /// the failure, where the pre-fix executor could still run them.
    struct WaitForFailure {
        failed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl crate::graph::Tool for WaitForFailure {
        fn name(&self) -> &str {
            "WaitForFailure"
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("in", "string")]
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("out", "string")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            let start = Instant::now();
            while !self.failed.load(std::sync::atomic::Ordering::SeqCst)
                && start.elapsed() < Duration::from_secs(5)
            {
                std::thread::yield_now();
            }
            // Grace period: the Failed event fires just before the
            // failing worker records the failure under the state lock;
            // give it time to get there so this completion lands after.
            std::thread::sleep(Duration::from_millis(2));
            Ok(vec![inputs[0].clone()])
        }
    }

    #[test]
    fn parallel_failure_cancels_queued_tasks_deterministically() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        // src fans out to an instantly-failing task and a gate that
        // completes only after the failure is visible; the gate's five
        // successors are therefore queued (or about to be) when the
        // failure is recorded. Pre-fix, workers could claim and execute
        // them before the POISON pill propagated, so how many ran
        // varied run to run. Post-fix they must never run: claimed
        // tasks re-check the failure flag, and completions after a
        // failure schedule no successors. 100 iterations pin it.
        for iteration in 0..100 {
            let failed = std::sync::Arc::new(AtomicBool::new(false));
            let downstream = std::sync::Arc::new(AtomicUsize::new(0));

            let mut g = TaskGraph::new();
            let src = g.add_task(Arc::new(ConstText("x".into())));
            let fail = g.add_named_task("fail", Arc::new(Flaky::failing(usize::MAX)));
            let gate = g.add_task(Arc::new(WaitForFailure {
                failed: std::sync::Arc::clone(&failed),
            }));
            g.connect(src, 0, fail, 0).unwrap();
            g.connect(src, 0, gate, 0).unwrap();
            for i in 0..5 {
                let sink = g.add_task(Arc::new(CountingPass {
                    name: format!("downstream-{i}"),
                    executions: std::sync::Arc::clone(&downstream),
                }));
                g.connect(gate, 0, sink, 0).unwrap();
            }

            let flag = std::sync::Arc::clone(&failed);
            let listener: super::ProgressListener = std::sync::Arc::new(move |e| {
                if matches!(e, super::ProgressEvent::Failed { .. }) {
                    flag.store(true, Ordering::SeqCst);
                }
            });
            let err = Executor::parallel()
                .with_listener(listener)
                .run(&g, &HashMap::new())
                .unwrap_err();
            assert!(
                matches!(err, WorkflowError::TaskFailed { ref task, .. } if task == "fail"),
                "iteration {iteration}: wrong failure: {err}"
            );
            assert_eq!(
                downstream.load(Ordering::SeqCst),
                0,
                "iteration {iteration}: a queued task executed after the failure"
            );
        }
    }

    #[test]
    fn virtual_clock_reports_simulated_elapsed() {
        use std::sync::atomic::{AtomicU64, Ordering};
        /// Charges 5 ms of simulated time per execution, like a WsTool
        /// charging transport against the network's virtual clock.
        struct Charging {
            nanos: std::sync::Arc<AtomicU64>,
        }
        impl crate::graph::Tool for Charging {
            fn name(&self) -> &str {
                "Charging"
            }
            fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
                vec![crate::graph::PortSpec::new("in", "string")]
            }
            fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
                vec![crate::graph::PortSpec::new("out", "string")]
            }
            fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
                self.nanos
                    .fetch_add(Duration::from_millis(5).as_nanos() as u64, Ordering::SeqCst);
                Ok(vec![inputs[0].clone()])
            }
        }

        let nanos = std::sync::Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let charge = g.add_task(Arc::new(Charging {
            nanos: std::sync::Arc::clone(&nanos),
        }));
        g.connect(src, 0, charge, 0).unwrap();

        // Without a clock source both simulated figures stay zero.
        let report = Executor::serial().run(&g, &HashMap::new()).unwrap();
        assert_eq!(report.virtual_elapsed, Duration::ZERO);
        assert!(report
            .runs
            .iter()
            .all(|r| r.virtual_duration == Duration::ZERO));

        nanos.store(0, Ordering::SeqCst);
        let clock_nanos = std::sync::Arc::clone(&nanos);
        let clock: super::ClockSource =
            std::sync::Arc::new(move || Duration::from_nanos(clock_nanos.load(Ordering::SeqCst)));
        use parking_lot::Mutex;
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let listener: super::ProgressListener = std::sync::Arc::new(move |e| sink.lock().push(e));

        let report = Executor::serial()
            .with_virtual_clock(clock)
            .with_listener(listener)
            .run(&g, &HashMap::new())
            .unwrap();
        // The whole enactment advanced the simulated clock by exactly
        // the 5 ms the charging task spent; wall elapsed says nothing
        // about that (the run never sleeps).
        assert_eq!(report.virtual_elapsed, Duration::from_millis(5));
        let charge_run = report.runs.iter().find(|r| r.task == "Charging").unwrap();
        assert_eq!(charge_run.virtual_duration, Duration::from_millis(5));
        let src_run = report.runs.iter().find(|r| r.task == "ConstText").unwrap();
        assert_eq!(src_run.virtual_duration, Duration::ZERO);
        // RunFinished carries the simulated figure too, so live
        // monitors agree with benches and traces.
        let events = events.lock();
        assert!(events.iter().any(|e| matches!(
            e,
            super::ProgressEvent::RunFinished { virtual_elapsed, .. }
                if *virtual_elapsed == Duration::from_millis(5)
        )));
    }

    #[test]
    fn deterministic_events_are_replay_stable_under_parallelism() {
        use crate::durable::DurableConfig;
        use crate::journal::RunJournal;
        use parking_lot::Mutex;
        // Eight same-tick leaves raced by four workers: with live
        // delivery the Started/Finished interleaving varies run to run,
        // so a journal replayed against the event stream could never be
        // compared. Durable enactment buffers events, so every
        // enactment of the same workflow must yield the identical
        // sequence — per-task blocks ordered by (completion tick, task
        // id), RunStarted first, RunFinished last. Many iterations, each
        // on a fresh journal, pin the ordering against scheduler luck.
        let build = || {
            let mut g = TaskGraph::new();
            let src = g.add_task(Arc::new(ConstText("abc".into())));
            for i in 0..8 {
                let up = g.add_named_task(format!("upper-{i}"), Arc::new(Upper));
                g.connect(src, 0, up, 0).unwrap();
            }
            g
        };
        let mut reference: Option<Vec<ProgressEvent>> = None;
        for iteration in 0..50 {
            let events = std::sync::Arc::new(Mutex::new(Vec::new()));
            let sink = std::sync::Arc::clone(&events);
            let listener: super::ProgressListener =
                std::sync::Arc::new(move |e| sink.lock().push(e));
            let config = DurableConfig::new(Arc::new(RunJournal::new())).with_workers(4);
            let report = Executor::parallel()
                .with_listener(listener)
                .run_durable(&build(), &HashMap::new(), &config)
                .unwrap();
            // Run records follow the same deterministic order.
            let names: Vec<_> = report.runs.iter().map(|r| r.task.clone()).collect();
            assert_eq!(names[0], "ConstText", "iteration {iteration}");
            assert_eq!(
                names[1..],
                (0..8).map(|i| format!("upper-{i}")).collect::<Vec<_>>()[..],
                "iteration {iteration}"
            );
            let mut seen = events.lock().clone();
            // Wall-clock durations inside events vary; normalise them.
            for e in seen.iter_mut() {
                match e {
                    ProgressEvent::Finished { duration, .. } => *duration = Duration::ZERO,
                    ProgressEvent::RunFinished {
                        elapsed,
                        virtual_elapsed,
                        ..
                    } => {
                        *elapsed = Duration::ZERO;
                        *virtual_elapsed = Duration::ZERO;
                    }
                    _ => {}
                }
            }
            assert!(matches!(
                seen.first(),
                Some(ProgressEvent::RunStarted { .. })
            ));
            assert!(matches!(
                seen.last(),
                Some(ProgressEvent::RunFinished { .. })
            ));
            match &reference {
                None => reference = Some(seen),
                Some(expected) => {
                    assert_eq!(&seen, expected, "iteration {iteration} diverged");
                }
            }
        }
    }

    #[test]
    fn canonical_bytes_ignore_provenance_but_not_results() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("hello".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        let a = Executor::serial().run(&g, &HashMap::new()).unwrap();
        let mut b = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        // Attempt counts, durations, and replay provenance differ
        // legitimately between enactments; results must not.
        for run in b.runs.iter_mut() {
            run.attempts += 3;
            run.duration += Duration::from_secs(1);
            run.replayed = true;
        }
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(b.replay_hits(), 2);
        // A changed output token changes the bytes.
        let mut c = a.clone();
        c.outputs.insert((up, 0), Token::Text("OTHER".into()));
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
    }
}

//! Resilience primitives for calls over the simulated network.
//!
//! The paper's framework (§3, category 4) requires "fault tolerance in
//! the face of service failures". This module supplies the three
//! mechanisms the rest of the stack composes:
//!
//! * [`ResiliencePolicy`] — a per-call **deadline** on the virtual
//!   clock plus a bounded **retry budget** with exponential backoff and
//!   decorrelated jitter ([`BackoffSchedule`]). Backoff sleeps are
//!   charged to virtual time, so experiments stay fast and
//!   deterministic while recovery latency remains measurable.
//! * [`CircuitBreaker`] — a per-host Closed → Open → Half-open state
//!   machine over a sliding window of call outcomes. An open breaker
//!   rejects calls without touching the network; after `open_for` of
//!   virtual time it admits a limited number of probes.
//! * [`ResilientCaller`] — ties the two to a [`Network`]: each
//!   invocation consults the host's breaker, retries transport-level
//!   failures under the policy, and records outcomes back into the
//!   breaker.
//!
//! Every remote call takes one path through here: [`attempt`] makes
//! one traced per-host attempt, plain or through a [`ResilientCaller`],
//! and [`failover`] migrates a call across an ordered host list.
//! Workflow tools, typed clients and the fleet all call these two.
//!
//! All time here is **virtual** (`Network::now`), never wall-clock.

use crate::error::{Result, WsError};
use crate::monitor::MonitorLog;
use crate::soap::SoapValue;
use crate::trace::{current, SpanKind};
use crate::transport::Network;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Per-call resilience policy: deadline, retry budget, backoff shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Budget of virtual time one logical call (attempts + backoff) may
    /// consume before failing with [`WsError::DeadlineExceeded`].
    pub deadline: Duration,
    /// Maximum attempts per call (1 = no retries).
    pub max_attempts: u32,
    /// First backoff sleep; later sleeps grow with decorrelated jitter.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            deadline: Duration::from_secs(30),
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl ResiliencePolicy {
    /// Policy with a specific deadline, other fields default.
    pub fn with_deadline(deadline: Duration) -> Self {
        ResiliencePolicy {
            deadline,
            ..ResiliencePolicy::default()
        }
    }

    /// Builder: cap attempts per call.
    pub fn attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Builder: backoff bounds.
    pub fn backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max.max(base);
        self
    }
}

/// Exponential backoff with decorrelated jitter: each sleep is drawn
/// uniformly from `[base, prev * 3]`, clamped to `max`. Deterministic
/// for a given seed.
#[derive(Debug)]
pub struct BackoffSchedule {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: StdRng,
}

impl BackoffSchedule {
    /// Schedule for one logical call under `policy`.
    pub fn new(policy: &ResiliencePolicy, seed: u64) -> BackoffSchedule {
        BackoffSchedule {
            base: policy.base_backoff,
            cap: policy.max_backoff,
            prev: policy.base_backoff,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Next sleep duration.
    pub fn next_delay(&mut self) -> Duration {
        let base = self.base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64)
            .saturating_mul(3)
            .max(base + 1);
        let drawn = self.rng.random_range(base..hi);
        let delay = Duration::from_nanos(drawn).min(self.cap);
        self.prev = delay.max(self.base);
        delay
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally; outcomes feed the sliding window.
    Closed,
    /// Calls are rejected without touching the network.
    Open,
    /// A limited number of probe calls are admitted; one success closes
    /// the breaker, one failure re-opens it.
    HalfOpen,
}

/// Circuit breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window length (most recent call outcomes).
    pub window: usize,
    /// Minimum calls in the window before the failure rate is trusted.
    pub min_calls: usize,
    /// Failure rate in the window at which the breaker opens.
    pub failure_rate_to_open: f64,
    /// Virtual time an open breaker waits before admitting probes.
    pub open_for: Duration,
    /// Probe calls admitted while half-open.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            min_calls: 4,
            failure_rate_to_open: 0.5,
            open_for: Duration::from_secs(5),
            half_open_probes: 1,
        }
    }
}

#[derive(Debug)]
enum BreakerPhase {
    Closed,
    Open { until: Duration },
    HalfOpen { probes_left: u32 },
}

#[derive(Debug)]
struct BreakerInner {
    phase: BreakerPhase,
    /// Most recent outcomes, `true` = failure.
    window: VecDeque<bool>,
    opened_count: u64,
}

/// A per-host circuit breaker on the virtual clock.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                phase: BreakerPhase::Closed,
                window: VecDeque::new(),
                opened_count: 0,
            }),
        }
    }

    /// May a call proceed at virtual time `now`? Open breakers whose
    /// `open_for` has elapsed transition to half-open here and admit a
    /// probe; while half-open, only the configured probe count passes.
    pub fn allow(&self, now: Duration) -> bool {
        let mut inner = self.inner.lock();
        match inner.phase {
            BreakerPhase::Closed => true,
            BreakerPhase::Open { until } => {
                if now >= until {
                    let probes = self.config.half_open_probes.max(1);
                    inner.phase = BreakerPhase::HalfOpen {
                        probes_left: probes - 1,
                    };
                    true
                } else {
                    false
                }
            }
            BreakerPhase::HalfOpen { probes_left } => {
                if probes_left > 0 {
                    inner.phase = BreakerPhase::HalfOpen {
                        probes_left: probes_left - 1,
                    };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful call finishing at `now`.
    pub fn record_success(&self, _now: Duration) {
        let mut inner = self.inner.lock();
        match inner.phase {
            BreakerPhase::HalfOpen { .. } => {
                // Probe succeeded: close and forget the bad history.
                inner.phase = BreakerPhase::Closed;
                inner.window.clear();
            }
            _ => self.push_outcome(&mut inner, false, _now),
        }
    }

    /// Record a failed call finishing at `now`.
    pub fn record_failure(&self, now: Duration) {
        let mut inner = self.inner.lock();
        match inner.phase {
            BreakerPhase::HalfOpen { .. } => {
                inner.phase = BreakerPhase::Open {
                    until: now + self.config.open_for,
                };
                inner.opened_count += 1;
                inner.window.clear();
            }
            _ => self.push_outcome(&mut inner, true, now),
        }
    }

    fn push_outcome(&self, inner: &mut BreakerInner, failed: bool, now: Duration) {
        inner.window.push_back(failed);
        while inner.window.len() > self.config.window {
            inner.window.pop_front();
        }
        if matches!(inner.phase, BreakerPhase::Closed)
            && inner.window.len() >= self.config.min_calls
        {
            let failures = inner.window.iter().filter(|&&f| f).count();
            let rate = failures as f64 / inner.window.len() as f64;
            if rate >= self.config.failure_rate_to_open {
                inner.phase = BreakerPhase::Open {
                    until: now + self.config.open_for,
                };
                inner.opened_count += 1;
                inner.window.clear();
            }
        }
    }

    /// Observable state at virtual time `now` (an open breaker whose
    /// wait has elapsed reads as half-open).
    pub fn state(&self, now: Duration) -> BreakerState {
        let inner = self.inner.lock();
        match inner.phase {
            BreakerPhase::Closed => BreakerState::Closed,
            BreakerPhase::Open { until } => {
                if now >= until {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
            BreakerPhase::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// How many times this breaker has tripped open.
    pub fn times_opened(&self) -> u64 {
        self.inner.lock().opened_count
    }
}

/// One breaker per host, created on demand with a shared config.
#[derive(Debug)]
pub struct BreakerBoard {
    config: BreakerConfig,
    breakers: Mutex<HashMap<String, Arc<CircuitBreaker>>>,
}

impl Default for BreakerBoard {
    fn default() -> Self {
        BreakerBoard::new(BreakerConfig::default())
    }
}

impl BreakerBoard {
    /// A board handing out breakers with `config`.
    pub fn new(config: BreakerConfig) -> BreakerBoard {
        BreakerBoard {
            config,
            breakers: Mutex::new(HashMap::new()),
        }
    }

    /// The breaker for `host`, created closed on first use.
    pub fn breaker(&self, host: &str) -> Arc<CircuitBreaker> {
        let mut breakers = self.breakers.lock();
        Arc::clone(
            breakers
                .entry(host.to_string())
                .or_insert_with(|| Arc::new(CircuitBreaker::new(self.config))),
        )
    }

    /// Convenience: may a call to `host` proceed at `now`?
    pub fn allow(&self, host: &str, now: Duration) -> bool {
        self.breaker(host).allow(now)
    }

    /// Hosts whose breaker is currently open at `now`.
    pub fn open_hosts(&self, now: Duration) -> Vec<String> {
        let mut hosts: Vec<String> = self
            .breakers
            .lock()
            .iter()
            .filter(|(_, b)| b.state(now) == BreakerState::Open)
            .map(|(h, _)| h.clone())
            .collect();
        hosts.sort();
        hosts
    }

    /// Replay a monitor log's raw-event ring (its last
    /// [`EVENT_RING`](crate::monitor::EVENT_RING) attempts) into the
    /// per-host windows, as if the breakers had watched those calls
    /// happen.
    pub fn observe_log(&self, log: &MonitorLog, now: Duration) {
        for event in log.snapshot() {
            let breaker = self.breaker(&event.host);
            if event.outcome.is_failure() {
                breaker.record_failure(now);
            } else {
                breaker.record_success(now);
            }
        }
    }
}

/// A scripted process death on the virtual clock: the process hosting
/// a component (an enactment orchestrator, a worker, a container) is
/// killed at `at` and a replacement is available again `down_for`
/// later. Like the transport's outage windows, the death window is
/// start-inclusive and end-exclusive: the process is down at exactly
/// `at`, and back at exactly `at + down_for`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRestart {
    /// Virtual instant the process dies.
    pub at: Duration,
    /// Downtime before a replacement process is available (zero models
    /// an instant supervisor restart).
    pub down_for: Duration,
}

impl CrashRestart {
    /// A crash at `at` with an instant restart.
    pub fn at(at: Duration) -> CrashRestart {
        CrashRestart {
            at,
            down_for: Duration::ZERO,
        }
    }

    /// `true` while the process is dead (start-inclusive,
    /// end-exclusive).
    pub fn is_down(&self, now: Duration) -> bool {
        now >= self.at && now < self.at + self.down_for
    }
}

/// A schedule of [`CrashRestart`] faults for one process, polled by the
/// component that simulates dying. Each scheduled crash fires **once**:
/// [`CrashScript::poll_kill`] returns `true` the first time it is
/// consulted at or after a crash instant, and the component is expected
/// to abandon whatever it was doing, exactly as a killed process would.
/// A restarted replacement polling the same script does not die again
/// at the same instant.
#[derive(Debug, Default)]
pub struct CrashScript {
    crashes: Mutex<Vec<(CrashRestart, bool)>>,
    kills: Mutex<u64>,
}

impl CrashScript {
    /// An empty script (nothing ever dies).
    pub fn new() -> CrashScript {
        CrashScript::default()
    }

    /// Schedule a crash.
    pub fn schedule(&self, crash: CrashRestart) {
        self.crashes.lock().push((crash, false));
    }

    /// Builder form of [`CrashScript::schedule`].
    pub fn with_crash(self, crash: CrashRestart) -> CrashScript {
        self.schedule(crash);
        self
    }

    /// `true` while any scheduled death window covers `now` — the
    /// replacement process is not up yet.
    pub fn is_down(&self, now: Duration) -> bool {
        self.crashes.lock().iter().any(|(c, _)| c.is_down(now))
    }

    /// Consult the script at `now`. Returns `true` (once per scheduled
    /// crash) when a crash instant has been reached: the polling
    /// process must treat itself as killed. Crashes scheduled in the
    /// past all fire on the first poll after them — a process cannot
    /// skip a kill by polling rarely.
    pub fn poll_kill(&self, now: Duration) -> bool {
        let mut crashes = self.crashes.lock();
        for (crash, fired) in crashes.iter_mut() {
            if !*fired && now >= crash.at {
                *fired = true;
                *self.kills.lock() += 1;
                return true;
            }
        }
        false
    }

    /// Number of scheduled crashes that have fired.
    pub fn kills_fired(&self) -> u64 {
        *self.kills.lock()
    }

    /// Re-arm every scheduled crash (for repeated experiment runs).
    pub fn reset(&self) {
        for (_, fired) in self.crashes.lock().iter_mut() {
            *fired = false;
        }
        *self.kills.lock() = 0;
    }
}

/// Outcome statistics for one resilient call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallStats {
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Total backoff charged to virtual time.
    pub backoff: Duration,
    /// Attempts that failed after dispatch (`work_may_have_executed`),
    /// i.e. an upper bound on duplicated server-side work.
    pub possibly_duplicated: u32,
    /// Attempts rejected with a `ServerBusy` shed by an overloaded
    /// host's admission controller.
    pub busy: u32,
}

/// A [`Network`] front-end applying a [`ResiliencePolicy`] and a
/// [`BreakerBoard`] to every invocation.
#[derive(Debug, Clone)]
pub struct ResilientCaller {
    network: Arc<Network>,
    board: Arc<BreakerBoard>,
    policy: ResiliencePolicy,
    seed: u64,
}

impl ResilientCaller {
    /// Wrap `network` with `policy`, sharing `board` across callers so
    /// every layer sees the same per-host breaker state.
    pub fn new(
        network: Arc<Network>,
        board: Arc<BreakerBoard>,
        policy: ResiliencePolicy,
    ) -> ResilientCaller {
        ResilientCaller {
            network,
            board,
            policy,
            seed: 0x5EED,
        }
    }

    /// Use a specific backoff-jitter seed (determinism across runs).
    pub fn with_seed(mut self, seed: u64) -> ResilientCaller {
        self.seed = seed;
        self
    }

    /// The policy in force.
    pub fn policy(&self) -> ResiliencePolicy {
        self.policy
    }

    /// The shared breaker board.
    pub fn board(&self) -> &Arc<BreakerBoard> {
        &self.board
    }

    /// The underlying network.
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// Invoke with deadline, retries, backoff, and breaker accounting.
    /// The stats come back even when the call fails, so failover
    /// layers can account for attempts and backoff spent on hosts that
    /// never answered.
    pub fn invoke(
        &self,
        host: &str,
        service: &str,
        operation: &str,
        args: Vec<(String, SoapValue)>,
    ) -> (Result<SoapValue>, CallStats) {
        let breaker = self.board.breaker(host);
        let start = self.network.now();
        let mut backoff =
            BackoffSchedule::new(&self.policy, self.seed ^ hash_call(host, operation));
        let mut stats = CallStats::default();
        let mut last_err = WsError::Transport("no attempt made".into());

        for attempt in 1..=self.policy.max_attempts {
            let now = self.network.now();
            if now - start >= self.policy.deadline {
                let err = WsError::DeadlineExceeded {
                    elapsed: now - start,
                    deadline: self.policy.deadline,
                };
                return (Err(err), stats);
            }
            if !breaker.allow(now) {
                return (Err(WsError::CircuitOpen(host.to_string())), stats);
            }
            stats.attempts = attempt;
            match self.network.invoke(host, service, operation, args.clone()) {
                Ok(value) => {
                    breaker.record_success(self.network.now());
                    return (Ok(value), stats);
                }
                Err(e) => {
                    breaker.record_failure(self.network.now());
                    if e.work_may_have_executed() {
                        stats.possibly_duplicated += 1;
                    }
                    if e.is_server_busy() {
                        stats.busy += 1;
                    }
                    // Response-leg decode errors (corrupt envelopes) are
                    // transport artefacts here, so retry those too.
                    let retryable = e.is_retryable()
                        || matches!(e, WsError::Xml { .. } | WsError::Malformed(_));
                    last_err = e;
                    if !retryable {
                        return (Err(last_err), stats);
                    }
                }
            }
            if attempt < self.policy.max_attempts {
                let mut delay = backoff.next_delay();
                // Shed-aware backoff: a ServerBusy response means the
                // host's accept queue is full, so wait harder than for
                // a lost packet and give the queue time to drain.
                if last_err.is_server_busy() {
                    delay = (delay * 2).min(self.policy.max_backoff);
                }
                let now = self.network.now();
                let remaining = self.policy.deadline.saturating_sub(now - start);
                if delay >= remaining {
                    let err = WsError::DeadlineExceeded {
                        elapsed: (now - start) + delay.min(remaining),
                        deadline: self.policy.deadline,
                    };
                    return (Err(err), stats);
                }
                self.network.advance_virtual_time(delay);
                stats.backoff += delay;
            }
        }
        (Err(last_err), stats)
    }
}

/// One SOAP call attempt against `host`: through `caller` (deadline,
/// retries, breaker) when one is given, else one plain
/// [`Network::invoke`], which reports `attempts: 1`. The stats come
/// back even when the call fails. The attempt runs in a SOAP-call span
/// named `{service}.{operation}`, chained under the thread's current
/// span (a workflow task) when one exists, or as a new root trace;
/// making it current lets the transport legs parent under it.
pub fn attempt(
    network: &Network,
    caller: Option<&ResilientCaller>,
    host: &str,
    service: &str,
    operation: &str,
    args: Vec<(String, SoapValue)>,
) -> (Result<SoapValue>, CallStats) {
    let mut span = network.tracer().map(|tracer| {
        let parent = current().map(|(_, ctx)| ctx);
        let mut span =
            tracer.start_span(format!("{service}.{operation}"), SpanKind::SoapCall, parent);
        span.set_attr("host", host);
        span
    });
    let _current = span.as_ref().map(|s| s.make_current());
    let (result, stats) = match caller {
        Some(caller) => caller.invoke(host, service, operation, args),
        None => {
            let result = network.invoke(host, service, operation, args);
            let busy = u32::from(matches!(&result, Err(e) if e.is_server_busy()));
            let stats = CallStats {
                attempts: 1,
                busy,
                ..CallStats::default()
            };
            (result, stats)
        }
    };
    if let (Some(span), Err(err)) = (span.as_mut(), &result) {
        span.set_error(err.to_string());
    }
    (result, stats)
}

/// How a [`failover`] pass over an ordered host list ended.
#[derive(Debug)]
pub enum Failover<'h> {
    /// `hosts[index]` answered with `value`.
    Served {
        /// Position of the serving host in the list.
        index: usize,
        /// What it returned.
        value: SoapValue,
    },
    /// An error the predicate does not fail over on stopped the pass;
    /// later hosts were never tried.
    Stopped(WsError),
    /// Every host failed over: each `(host, error)` in the order tried,
    /// empty when there were no hosts.
    Exhausted(Vec<(&'h str, WsError)>),
}

/// Job migration, the paper's "moving the job to another resource":
/// `call` each of `hosts` in order, moving on to the next host while
/// `fails_over` accepts the error.
pub fn failover<'h>(
    hosts: &'h [String],
    mut call: impl FnMut(&str) -> Result<SoapValue>,
    fails_over: impl Fn(&WsError) -> bool,
) -> Failover<'h> {
    let mut tried = Vec::new();
    for (index, host) in hosts.iter().enumerate() {
        match call(host) {
            Ok(value) => return Failover::Served { index, value },
            Err(err) if fails_over(&err) => tried.push((host.as_str(), err)),
            Err(err) => return Failover::Stopped(err),
        }
    }
    Failover::Exhausted(tried)
}

/// Stable per-(host, operation) seed perturbation so concurrent calls
/// don't share one jitter stream.
fn hash_call(host: &str, operation: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in host.bytes().chain([0]).chain(operation.bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::test_support::EchoService;

    fn echo_network() -> Arc<Network> {
        let net = Arc::new(Network::new());
        net.add_host("host-a").deploy(Arc::new(EchoService));
        net
    }

    fn msg() -> Vec<(String, SoapValue)> {
        vec![("message".into(), SoapValue::Text("hi".into()))]
    }

    #[test]
    fn backoff_grows_within_bounds() {
        let policy = ResiliencePolicy::default()
            .backoff(Duration::from_millis(10), Duration::from_millis(500));
        let mut schedule = BackoffSchedule::new(&policy, 7);
        let mut prev = Duration::from_millis(10);
        for _ in 0..50 {
            let d = schedule.next_delay();
            assert!(d >= Duration::from_millis(10), "below base: {d:?}");
            assert!(d <= Duration::from_millis(500), "above cap: {d:?}");
            assert!(d.as_nanos() <= prev.as_nanos() * 3 + 1, "jumped too far");
            prev = d.max(Duration::from_millis(10));
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = ResiliencePolicy::default();
        let mut a = BackoffSchedule::new(&policy, 99);
        let mut b = BackoffSchedule::new(&policy, 99);
        for _ in 0..10 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }

    #[test]
    fn breaker_opens_at_failure_rate_and_recovers_via_probe() {
        let config = BreakerConfig {
            window: 8,
            min_calls: 4,
            failure_rate_to_open: 0.5,
            open_for: Duration::from_secs(1),
            half_open_probes: 1,
        };
        let breaker = CircuitBreaker::new(config);
        let t0 = Duration::ZERO;
        assert_eq!(breaker.state(t0), BreakerState::Closed);

        for _ in 0..4 {
            assert!(breaker.allow(t0));
            breaker.record_failure(t0);
        }
        assert_eq!(breaker.state(t0), BreakerState::Open);
        assert!(!breaker.allow(t0));
        assert_eq!(breaker.times_opened(), 1);

        // Before `open_for` elapses nothing passes; after it, one probe.
        let half = Duration::from_millis(500);
        assert!(!breaker.allow(half));
        let later = Duration::from_secs(2);
        assert_eq!(breaker.state(later), BreakerState::HalfOpen);
        assert!(breaker.allow(later), "first probe admitted");
        assert!(!breaker.allow(later), "second probe rejected");
        breaker.record_success(later);
        assert_eq!(breaker.state(later), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let config = BreakerConfig {
            open_for: Duration::from_secs(1),
            ..Default::default()
        };
        let breaker = CircuitBreaker::new(config);
        for _ in 0..4 {
            breaker.record_failure(Duration::ZERO);
        }
        let later = Duration::from_secs(2);
        assert!(breaker.allow(later));
        breaker.record_failure(later);
        assert_eq!(breaker.state(later), BreakerState::Open);
        assert_eq!(breaker.times_opened(), 2);
        assert!(!breaker.allow(later + Duration::from_millis(500)));
    }

    #[test]
    fn successful_calls_keep_breaker_closed() {
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        for i in 0..100 {
            let now = Duration::from_millis(i);
            assert!(breaker.allow(now));
            // 25% failures: under the 50% trip threshold.
            if i % 4 == 0 {
                breaker.record_failure(now);
            } else {
                breaker.record_success(now);
            }
        }
        assert_eq!(breaker.state(Duration::from_secs(1)), BreakerState::Closed);
        assert_eq!(breaker.times_opened(), 0);
    }

    #[test]
    fn caller_succeeds_first_try_without_backoff() {
        let net = echo_network();
        let caller = ResilientCaller::new(
            Arc::clone(&net),
            Arc::new(BreakerBoard::default()),
            ResiliencePolicy::default(),
        );
        let (value, stats) = caller.invoke("host-a", "Echo", "echo", msg());
        assert_eq!(value.unwrap(), SoapValue::Text("hi".into()));
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.backoff, Duration::ZERO);
    }

    #[test]
    fn caller_retries_through_transient_faults() {
        let net = echo_network();
        net.set_failure_probability("host-a", 0.5);
        net.reseed_faults(11);
        let caller = ResilientCaller::new(
            Arc::clone(&net),
            Arc::new(BreakerBoard::new(BreakerConfig {
                // Unreachable threshold: the injected fault rate must
                // not trip the breaker in this test.
                failure_rate_to_open: 2.0,
                ..Default::default()
            })),
            ResiliencePolicy::default().attempts(8),
        );
        let mut successes = 0;
        for _ in 0..20 {
            if caller.invoke("host-a", "Echo", "echo", msg()).0.is_ok() {
                successes += 1;
            }
        }
        // Each attempt fails with p = 1 - 0.5² = 0.75 (both legs are
        // checked); 8 attempts leave ~10% per call, so most of 20 land.
        assert!(successes >= 14, "successes {successes}");
        assert!(net.virtual_time() > Duration::ZERO);
    }

    #[test]
    fn caller_respects_deadline_with_backoff_charged_to_virtual_time() {
        let net = echo_network();
        net.set_host_down("host-a", true);
        let policy = ResiliencePolicy::with_deadline(Duration::from_millis(50))
            .attempts(100)
            .backoff(Duration::from_millis(20), Duration::from_millis(40));
        let caller = ResilientCaller::new(
            Arc::clone(&net),
            Arc::new(BreakerBoard::new(BreakerConfig {
                min_calls: 1000, // effectively disabled
                ..Default::default()
            })),
            policy,
        );
        let before = net.virtual_time();
        let err = caller
            .invoke("host-a", "Echo", "echo", msg())
            .0
            .unwrap_err();
        assert!(
            matches!(err, WsError::DeadlineExceeded { .. }),
            "expected deadline, got {err:?}"
        );
        let spent = net.virtual_time() - before;
        assert!(spent <= Duration::from_millis(50), "overspent: {spent:?}");
    }

    #[test]
    fn caller_fails_fast_when_breaker_open() {
        let net = echo_network();
        net.set_host_down("host-a", true);
        let board = Arc::new(BreakerBoard::new(BreakerConfig {
            min_calls: 2,
            window: 4,
            failure_rate_to_open: 0.5,
            open_for: Duration::from_secs(60),
            half_open_probes: 1,
        }));
        let caller = ResilientCaller::new(
            Arc::clone(&net),
            Arc::clone(&board),
            ResiliencePolicy::default().attempts(1),
        );
        // Two failing calls trip the breaker...
        assert!(caller.invoke("host-a", "Echo", "echo", msg()).0.is_err());
        assert!(caller.invoke("host-a", "Echo", "echo", msg()).0.is_err());
        // ...after which calls are rejected without reaching the wire.
        let before = net.monitor().len();
        let (result, stats) = caller.invoke("host-a", "Echo", "echo", msg());
        assert_eq!(result.unwrap_err(), WsError::CircuitOpen("host-a".into()));
        assert_eq!(stats.attempts, 0);
        assert_eq!(net.monitor().len(), before);
        assert_eq!(board.open_hosts(net.now()), vec!["host-a".to_string()]);
    }

    #[test]
    fn soap_faults_are_not_retried_by_caller() {
        let net = echo_network();
        let caller = ResilientCaller::new(
            Arc::clone(&net),
            Arc::new(BreakerBoard::default()),
            ResiliencePolicy::default().attempts(5),
        );
        let (result, stats) = caller.invoke("host-a", "Echo", "fail", vec![]);
        assert!(matches!(result, Err(WsError::Fault { .. })), "{result:?}");
        assert_eq!(stats.attempts, 1, "deterministic fault retried");
        assert_eq!(net.monitor().len(), 1);
    }

    #[test]
    fn server_busy_is_retried_with_extended_backoff() {
        use crate::container::CapacityConfig;
        let net = echo_network();
        net.host("host-a")
            .unwrap()
            .set_capacity(Some(CapacityConfig {
                workers: 1,
                queue_limit: Some(0),
                service_time: Duration::from_millis(50),
            }));
        // Saturate the single worker, then rewind so the resilient call
        // arrives while it is still busy.
        net.invoke("host-a", "Echo", "echo", msg()).unwrap();
        net.set_virtual_time(Duration::ZERO);

        let caller = ResilientCaller::new(
            Arc::clone(&net),
            Arc::new(BreakerBoard::new(BreakerConfig {
                min_calls: 100,
                ..Default::default()
            })),
            ResiliencePolicy::default().attempts(5),
        );
        let (value, stats) = caller.invoke("host-a", "Echo", "echo", msg());
        let value = value.expect("busy host drains within the retry budget");
        assert_eq!(value, SoapValue::Text("hi".into()));
        assert!(stats.busy >= 1, "no shed observed: {stats:?}");
        assert_eq!(
            stats.attempts,
            stats.busy + 1,
            "every shed costs exactly one retry: {stats:?}"
        );
        // Shed-aware backoff doubles the drawn delay, so each busy
        // retry waits at least twice the 10 ms base.
        assert!(
            stats.backoff >= Duration::from_millis(20) * stats.busy,
            "backoff not extended after shed: {stats:?}"
        );
    }

    #[test]
    fn crash_windows_are_start_inclusive_end_exclusive() {
        let crash = CrashRestart {
            at: Duration::from_millis(10),
            down_for: Duration::from_millis(5),
        };
        assert!(!crash.is_down(Duration::from_millis(9)));
        assert!(crash.is_down(Duration::from_millis(10)));
        assert!(crash.is_down(Duration::from_millis(14)));
        assert!(!crash.is_down(Duration::from_millis(15)));
        // Instant restart: never observed down.
        let instant = CrashRestart::at(Duration::from_millis(3));
        assert!(!instant.is_down(Duration::from_millis(3)));
    }

    #[test]
    fn crash_script_kills_once_per_scheduled_crash() {
        let script = CrashScript::new()
            .with_crash(CrashRestart::at(Duration::from_millis(5)))
            .with_crash(CrashRestart::at(Duration::from_millis(20)));
        // Before the first instant nothing fires.
        assert!(!script.poll_kill(Duration::from_millis(4)));
        assert_eq!(script.kills_fired(), 0);
        // At (or after) the instant the kill fires exactly once.
        assert!(script.poll_kill(Duration::from_millis(5)));
        assert!(!script.poll_kill(Duration::from_millis(6)));
        assert_eq!(script.kills_fired(), 1);
        // A rare poller cannot skip a kill: the second crash fires on
        // the first poll after its instant, however late.
        assert!(script.poll_kill(Duration::from_millis(500)));
        assert!(!script.poll_kill(Duration::from_millis(501)));
        assert_eq!(script.kills_fired(), 2);
    }

    #[test]
    fn crash_script_downtime_and_reset() {
        let script = CrashScript::new().with_crash(CrashRestart {
            at: Duration::from_millis(10),
            down_for: Duration::from_millis(10),
        });
        assert!(!script.is_down(Duration::from_millis(9)));
        assert!(script.is_down(Duration::from_millis(10)));
        assert!(script.is_down(Duration::from_millis(19)));
        assert!(!script.is_down(Duration::from_millis(20)));
        assert!(script.poll_kill(Duration::from_millis(12)));
        script.reset();
        assert_eq!(script.kills_fired(), 0);
        // Re-armed: the same crash fires again on the next run.
        assert!(script.poll_kill(Duration::from_millis(12)));
    }

    #[test]
    fn board_seeds_from_monitor_log() {
        let net = echo_network();
        net.set_host_down("host-a", true);
        for _ in 0..6 {
            let _ = net.invoke("host-a", "Echo", "echo", msg());
        }
        let board = BreakerBoard::default();
        board.observe_log(net.monitor(), net.now());
        assert_eq!(board.breaker("host-a").state(net.now()), BreakerState::Open);
    }

    fn three_hosts() -> (Arc<Network>, Vec<String>) {
        let net = Arc::new(Network::new());
        let hosts: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        for host in &hosts {
            net.add_host(host.as_str()).deploy(Arc::new(EchoService));
        }
        (net, hosts)
    }

    fn echo_on<'n>(
        net: &'n Network,
        operation: &'n str,
    ) -> impl FnMut(&str) -> Result<SoapValue> + 'n {
        move |host| net.invoke(host, "Echo", operation, msg())
    }

    fn logged_hosts(net: &Network) -> Vec<String> {
        net.monitor()
            .snapshot()
            .into_iter()
            .map(|e| e.host)
            .collect()
    }

    #[test]
    fn failover_tries_hosts_in_order() {
        let (net, hosts) = three_hosts();
        net.set_host_down("a", true);
        net.set_host_down("b", true);
        match failover(&hosts, echo_on(&net, "echo"), WsError::is_retryable) {
            Failover::Served { index, value } => {
                assert_eq!(index, 2);
                assert_eq!(value, SoapValue::Text("hi".into()));
            }
            other => panic!("expected c to serve, got {other:?}"),
        }
        assert_eq!(logged_hosts(&net), ["a", "b", "c"]);
    }

    #[test]
    fn failover_stops_at_an_error_the_predicate_rejects() {
        let (net, hosts) = three_hosts();
        // A SOAP fault is deterministic: no later host is called.
        match failover(&hosts, echo_on(&net, "fail"), WsError::is_retryable) {
            Failover::Stopped(err) => assert!(matches!(err, WsError::Fault { .. }), "{err:?}"),
            other => panic!("expected a stop, got {other:?}"),
        }
        assert_eq!(net.monitor().len(), 1);
        // A transport error the predicate rejects stops the pass too.
        net.set_host_down("a", true);
        match failover(&hosts, echo_on(&net, "echo"), |_| false) {
            Failover::Stopped(err) => assert!(err.is_transport_level(), "{err:?}"),
            other => panic!("expected a stop, got {other:?}"),
        }
        assert_eq!(logged_hosts(&net), ["a", "a"]);
    }

    #[test]
    fn failover_exhaustion_lists_every_host_and_error_in_order() {
        let (net, hosts) = three_hosts();
        for host in &hosts {
            net.set_host_down(host, true);
        }
        match failover(&hosts, echo_on(&net, "echo"), WsError::is_retryable) {
            Failover::Exhausted(tried) => {
                let order: Vec<&str> = tried.iter().map(|(host, _)| *host).collect();
                assert_eq!(order, ["a", "b", "c"]);
                for (host, err) in &tried {
                    assert!(err.is_retryable(), "{host}: {err:?}");
                    assert!(err.to_string().contains(host), "{host}: {err}");
                }
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(logged_hosts(&net), ["a", "b", "c"]);
    }

    #[test]
    fn failover_over_no_hosts_is_an_empty_exhaustion() {
        let outcome = failover(&[], |_| panic!("no host to attempt"), |_| true);
        assert!(
            matches!(&outcome, Failover::Exhausted(tried) if tried.is_empty()),
            "{outcome:?}"
        );
    }
}

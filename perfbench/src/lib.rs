//! The faehim-rs benchmark: three workloads, end-to-end metrics from an
//! untraced run, and per-layer metrics from a traced run.
//!
//! A workload is provisioned by [`Workload::setup`], then driven one op
//! at a time. Each op's inputs are generated from the seed before its
//! timer starts ([`Workload::input`]); the op itself is timed by the CPU
//! time the process spends on it ([`cpu_time`]) and on the wall clock,
//! and reports the virtual time it cost on the simulated network. The
//! clocks are never mixed.
//!
//! The end-to-end timings are scaled CPU time, not wall time. On a
//! shared machine a process that waits for a core loses wall time to
//! the scheduler, and a wall-clock percentile then reads the machine's
//! load instead of the program; CPU time does not count that wait, and
//! counts every thread of the process, so parallel work is charged in
//! full. The host's speed still drifts by a third within seconds, so
//! before every op the benchmark also times a fixed piece of reference
//! work ([`reference_work`]) that calls none of the code under test,
//! and scales each op's CPU time by how fast the reference ran around
//! it ([`Phase::scaled_cpu_ms`]). Wall times are printed beside them,
//! and the traced run's spans are wall time.

pub mod case_study;
pub mod mining_session;
pub mod planned_chain;
pub mod replay;
pub mod trace;

use std::time::{Duration, Instant};
use trace::Tracer;

/// The workload names, in the order the traced run profiles them.
pub const WORKLOADS: [&str; 3] = ["case_study", "mining_session", "planned_chain"];

/// What one op reports besides its timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Client-perceived virtual time of the op.
    pub virt: Duration,
    /// The op returned an error or was shed.
    pub failed: bool,
    /// Fingerprint of the op's outputs (0 when it failed).
    pub output: u128,
    /// Which kind of op it was (an executor, an operation, an arrival
    /// kind), for the per-kind breakdown.
    pub kind: &'static str,
}

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Inputs of one op, generated from the seed.
    type Input;

    /// Ops at the start of every run over which the deterministic
    /// metrics (virtual time, wire bytes) are taken, so that they do not
    /// depend on how many ops the wall-clock budget allowed.
    const PINNED_OPS: u64;

    /// Ops of the untraced run. The count is fixed, so that two commits
    /// run the same workload; `--seconds` only caps it.
    const OPS: u64;

    /// The per-layer metrics the traced run reports, unprefixed.
    const LAYERS: &'static [&'static str];

    /// Provision the system under test and warm it up. Warm-up ops go
    /// through `tr` like timed ops; `run_phase` clears their spans.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String>;

    /// Generate op `i`'s inputs, and do any untimed housekeeping due
    /// before it (not timed).
    fn input(&mut self, i: u64) -> Result<Self::Input, String>;

    /// Run op `i` (timed). Checks the op's outputs.
    fn op(&mut self, i: u64, input: Self::Input, tr: &mut Tracer) -> Result<OpOutcome, String>;

    /// Replay the last op's layer calls for the trace (not timed; only
    /// called when tracing).
    fn replay(&mut self, _tr: &mut Tracer) {}

    /// Total wire bytes so far (`WireStats.bytes`).
    fn wire_bytes(&self) -> u64;

    /// End-of-run checks over all ops, plus the per-layer metrics that
    /// come from counters rather than spans (`ops` ops were run).
    fn finish(&mut self, ops: u64, elapsed: Duration, tr: &Tracer) -> Result<Vec<Metric>, String>;
}

/// How long a phase runs: up to `max_ops` ops, stopping early once
/// `seconds` of wall time have passed, but never before `min_ops` ops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall seconds after which no further op starts (once `min_ops`
    /// ops ran).
    pub seconds: f64,
    /// Ops to run regardless of time.
    pub min_ops: u64,
    /// Hard op cap.
    pub max_ops: u64,
}

impl Budget {
    /// Exactly `n` ops.
    pub fn ops(n: u64) -> Budget {
        Budget {
            seconds: 0.0,
            min_ops: n,
            max_ops: n,
        }
    }
}

/// What one phase measured.
#[derive(Debug, Clone)]
pub struct Phase {
    /// CPU seconds of each set-up.
    pub setups: Vec<f64>,
    /// Wall seconds of each set-up.
    pub setups_wall: Vec<f64>,
    /// Ops attempted.
    pub ops: u64,
    /// Ops that failed or were shed.
    pub failed: u64,
    /// Wall time of the op loop.
    pub elapsed: Duration,
    /// Wall milliseconds per op.
    pub op_ms: Vec<f64>,
    /// CPU milliseconds per op.
    pub op_cpu_ms: Vec<f64>,
    /// CPU microseconds of the reference work run before each op.
    pub ref_us: Vec<f64>,
    /// Op index before which each set-up was timed (`ops` for those
    /// after the loop), parallel to `setups`.
    pub setup_at: Vec<u64>,
    /// Kind of each op, parallel to `op_ms` and `op_cpu_ms`.
    pub kinds: Vec<&'static str>,
    /// Virtual milliseconds of each pinned op.
    pub virt_ms: Vec<f64>,
    /// Output fingerprints of the pinned ops.
    pub outputs: Vec<u128>,
    /// Wire bytes of the pinned ops (of all ops, when fewer ran).
    pub pinned_wire_bytes: u64,
    /// Peak resident set at the end of the op loop, MiB (before the
    /// end-of-run checks, which provision reference systems of their
    /// own).
    pub rss_peak_mib: f64,
    /// Metrics from [`Workload::finish`].
    pub extra: Vec<Metric>,
}

impl Phase {
    /// Factor that scales CPU time measured just before op `i` to
    /// [`REFERENCE_US`] speed: the reference time over the median of the
    /// reference timings within [`SCALE_WINDOW`] ops of `i`.
    fn scale_at(&self, i: usize) -> f64 {
        let n = self.ref_us.len();
        if n == 0 {
            return 1.0;
        }
        let i = i.min(n - 1);
        let window = &self.ref_us[i.saturating_sub(SCALE_WINDOW)..(i + SCALE_WINDOW + 1).min(n)];
        REFERENCE_US / quantile(window, 0.5)
    }

    /// Scaled CPU milliseconds per op.
    pub fn scaled_cpu_ms(&self) -> Vec<f64> {
        self.op_cpu_ms
            .iter()
            .enumerate()
            .map(|(i, ms)| ms * self.scale_at(i))
            .collect()
    }

    /// Scaled CPU seconds of each set-up.
    pub fn scaled_setups(&self) -> Vec<f64> {
        self.setups
            .iter()
            .zip(&self.setup_at)
            .map(|(s, &at)| s * self.scale_at(at as usize))
            .collect()
    }
}

/// Time one set-up of a system that is then discarded: `(cpu, wall)`
/// seconds.
fn sample_setup<W: Workload>(seed: u64) -> Result<(f64, f64), String> {
    let (cpu, wall) = (cpu_time(), Instant::now());
    let w = W::setup(seed, &mut Tracer::off())?;
    let took = (
        (cpu_time() - cpu).as_secs_f64(),
        wall.elapsed().as_secs_f64(),
    );
    drop(w);
    Ok(took)
}

/// Set `W` up, run ops until the budget is spent, then run the
/// end-of-run checks. `setups` set-ups are timed in all: the one that
/// is kept, and the rest spread evenly over the budget's `max_ops` ops
/// (outside the op timings), so that they sample the machine as the ops
/// do. Each sampled set-up is dropped before the next op.
pub fn run_phase<W: Workload>(
    seed: u64,
    setups: usize,
    budget: Budget,
    tr: &mut Tracer,
) -> Result<Phase, String> {
    let (cpu, wall) = (cpu_time(), Instant::now());
    let mut w = W::setup(seed, tr)?;
    let mut times = vec![(cpu_time() - cpu).as_secs_f64()];
    let mut times_wall = vec![wall.elapsed().as_secs_f64()];
    tr.clear();
    let spacing = (budget.max_ops / setups.max(1) as u64).max(1);
    let mut in_loop = Duration::ZERO;
    let wire_start = w.wire_bytes();
    let mut phase = Phase {
        setups: Vec::new(),
        setups_wall: Vec::new(),
        ops: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        op_ms: Vec::new(),
        op_cpu_ms: Vec::new(),
        ref_us: Vec::new(),
        setup_at: vec![0],
        kinds: Vec::new(),
        virt_ms: Vec::new(),
        outputs: Vec::new(),
        pinned_wire_bytes: 0,
        rss_peak_mib: 0.0,
        extra: Vec::new(),
    };
    let loop_start = Instant::now();
    let mut i = 0u64;
    while i < budget.max_ops
        && (i < budget.min_ops || loop_start.elapsed().as_secs_f64() < budget.seconds)
    {
        if times.len() < setups && i >= spacing * times.len() as u64 {
            let at = Instant::now();
            let (cpu, wall) = sample_setup::<W>(seed)?;
            times.push(cpu);
            times_wall.push(wall);
            phase.setup_at.push(i);
            in_loop += at.elapsed();
        }
        let at = cpu_time();
        std::hint::black_box(reference_work());
        phase.ref_us.push((cpu_time() - at).as_secs_f64() * 1e6);
        let input = w.input(i)?;
        let op = tr.begin_op(i);
        let (cpu, start) = (cpu_time(), Instant::now());
        let out = w.op(i, input, tr)?;
        let (cpu, wall) = (cpu_time() - cpu, start.elapsed());
        tr.close(op);
        if tr.enabled() {
            w.replay(tr);
        }
        phase.op_ms.push(wall.as_secs_f64() * 1e3);
        phase.op_cpu_ms.push(cpu.as_secs_f64() * 1e3);
        phase.kinds.push(out.kind);
        phase.failed += u64::from(out.failed);
        if i < W::PINNED_OPS {
            phase.virt_ms.push(out.virt.as_secs_f64() * 1e3);
            phase.outputs.push(out.output);
            if i + 1 == W::PINNED_OPS {
                phase.pinned_wire_bytes = w.wire_bytes() - wire_start;
            }
        }
        i += 1;
    }
    phase.ops = i;
    phase.elapsed = loop_start.elapsed() - in_loop;
    if i < W::PINNED_OPS {
        phase.pinned_wire_bytes = w.wire_bytes() - wire_start;
    }
    while times.len() < setups {
        let (cpu, wall) = sample_setup::<W>(seed)?;
        times.push(cpu);
        times_wall.push(wall);
        phase.setup_at.push(i);
    }
    phase.setups = times;
    phase.setups_wall = times_wall;
    phase.rss_peak_mib = rss_peak_mib();
    phase.extra = w.finish(i, phase.elapsed, tr)?;
    Ok(phase)
}

/// CPU time of [`reference_work`] on the development machine, µs.
/// Scaled times are CPU times on a machine where the reference work
/// takes this long.
pub const REFERENCE_US: f64 = 90.0;

/// Ops on each side of an op whose reference timings scale it.
const SCALE_WINDOW: usize = 32;

/// A fixed piece of work that calls none of the code under test: format,
/// sort and hash 400 strings, which allocates, branches and walks memory
/// as the program's own string handling does. Timed before every op to
/// read the host's speed at that moment.
pub fn reference_work() -> u64 {
    let mut words: Vec<String> = (0..400u64)
        .map(|i| format!("{:x}", dm_wsrf::fleet::splitmix64(i)))
        .collect();
    words.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in &words {
        for b in w.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Mean of the samples (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// CPU time this process has run so far, all threads together (those
/// that have exited included), from `CLOCK_PROCESS_CPUTIME_ID`. Time the
/// process spends runnable but waiting for a core is not counted.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Busy time summed over the compute pool's workers.
pub fn pool_busy() -> Duration {
    dm_algorithms::pool::stats()
        .workers
        .iter()
        .map(|w| w.busy)
        .sum()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end<W: Workload>(phase: &Phase) -> Result<Vec<Metric>, String> {
    if phase.ops < W::PINNED_OPS {
        return Err(format!(
            "only {} ops ran; the pinned metrics need {}",
            phase.ops,
            W::PINNED_OPS
        ));
    }
    let scaled = phase.scaled_cpu_ms();
    Ok(vec![
        Metric::new("setup_s", quantile(&phase.scaled_setups(), 0.5), "s"),
        Metric::new(
            "ops_per_scaled_cpu_s",
            1e3 * phase.ops as f64 / scaled.iter().sum::<f64>(),
            "1/s",
        ),
        Metric::new("scaled_cpu_ms_p50", quantile(&scaled, 0.5), "ms"),
        Metric::new("scaled_cpu_ms_p90", quantile(&scaled, 0.9), "ms"),
        Metric::new("virt_ms_p50", quantile(&phase.virt_ms, 0.5), "vms"),
        Metric::new("virt_ms_p99", quantile(&phase.virt_ms, 0.99), "vms"),
        Metric::new(
            "wire_kib_per_op",
            phase.pinned_wire_bytes as f64 / 1024.0 / W::PINNED_OPS as f64,
            "KiB",
        ),
        Metric::new("rss_peak_mib", phase.rss_peak_mib, "MiB"),
    ])
}

/// One op kind's part in an untraced phase.
#[derive(Debug, Clone)]
pub struct KindShare {
    /// The kind.
    pub kind: &'static str,
    /// Its share of the ops.
    pub ops: f64,
    /// Its own p50, ms.
    pub p50_ms: f64,
    /// Its share of the total op time.
    pub time: f64,
    /// Its share of the ops within 10 % of the phase's p50: what the
    /// median is a median of.
    pub near_p50: f64,
}

/// Per-kind breakdown of per-op times `op_ms` (parallel to the phase's
/// `kinds`), in first-seen order.
pub fn kind_shares(phase: &Phase, op_ms: &[f64]) -> Vec<KindShare> {
    let p50 = quantile(op_ms, 0.5);
    let near = |ms: f64| (ms / p50 - 1.0).abs() <= 0.1;
    let near_total = op_ms.iter().filter(|&&ms| near(ms)).count().max(1);
    let total: f64 = op_ms.iter().sum();
    let mut kinds: Vec<&'static str> = Vec::new();
    for k in &phase.kinds {
        if !kinds.contains(k) {
            kinds.push(k);
        }
    }
    kinds
        .into_iter()
        .map(|kind| {
            let ms: Vec<f64> = phase
                .kinds
                .iter()
                .zip(op_ms)
                .filter(|(k, _)| **k == kind)
                .map(|(_, &ms)| ms)
                .collect();
            KindShare {
                kind,
                ops: ms.len() as f64 / op_ms.len() as f64,
                p50_ms: quantile(&ms, 0.5),
                time: ms.iter().sum::<f64>() / total,
                near_p50: ms.iter().filter(|&&m| near(m)).count() as f64 / near_total as f64,
            }
        })
        .collect()
}

/// Everything the traced profile of one workload reports.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Ops in each phase (the later phases repeat the first's ops).
    pub ops: u64,
    /// Ops that failed, all phases together.
    pub failed: u64,
    /// Untraced wall p50 per op, ms.
    pub op_ms_p50: f64,
    /// Per-layer metrics, unprefixed.
    pub metrics: Vec<Metric>,
    /// `(layer, self µs per op)` in descending order, `unattributed`
    /// included.
    pub shares: Vec<(String, f64)>,
    /// The spans, one JSON object per line.
    pub spans: String,
}

/// Ops every profiled phase runs at least, so that periodic work (the
/// case study's scrape every 64 enactments) is always in the trace.
const PROFILE_MIN_OPS: u64 = 256;

/// Unit of a per-layer metric, read off its name.
fn unit_of(name: &str) -> &'static str {
    match name.rsplit(['_', '.']).next() {
        Some("us") => "us",
        Some("vms") => "vms",
        Some("frac") => "frac",
        Some("ratio") => "ratio",
        Some("events") => "count",
        _ => "KiB",
    }
}

/// Profile `W`: an untraced phase of `seconds`, a traced phase of the
/// same ops on a freshly provisioned system, and a second untraced
/// phase of the same ops. The untraced op p50 pools both untraced
/// phases, so that warm-up drift within the process does not read as
/// tracing overhead.
pub fn profile<W: Workload>(name: &str, seed: u64, seconds: f64) -> Result<Profile, String> {
    let budget = Budget {
        seconds,
        min_ops: PROFILE_MIN_OPS,
        max_ops: u64::MAX,
    };
    let plain = run_phase::<W>(seed, 1, budget, &mut Tracer::off())?;
    let mut tr = Tracer::on();
    let traced = run_phase::<W>(seed, 1, Budget::ops(plain.ops), &mut tr)?;
    let again = run_phase::<W>(seed, 1, Budget::ops(plain.ops), &mut Tracer::off())?;
    let untraced_ms: Vec<f64> = plain.op_ms.iter().chain(&again.op_ms).copied().collect();
    let ops = traced.ops as f64;
    let op_ms_p50 = quantile(&untraced_ms, 0.5);
    let traced_p50 = quantile(&traced.op_ms, 0.5);

    let mut metrics = Vec::new();
    let mut shares = Vec::new();
    for (span, total) in tr.self_times() {
        let per_op_us = total.as_secs_f64() * 1e6 / ops;
        if span == "op" {
            shares.push(("unattributed".to_string(), per_op_us));
            metrics.push(Metric::new("unattributed_us", per_op_us, "us"));
        } else {
            shares.push((span.to_string(), per_op_us));
            metrics.push(Metric::new(format!("{span}_us"), per_op_us, "us"));
        }
    }
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total = |n: &str| {
        tr.durations_of(n)
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .sum::<f64>()
    };
    let inside = total("soap.encode")
        + total("soap.decode")
        + total("container.dispatch")
        + total("handler.invoke");
    metrics.push(Metric::new(
        "transport.unattributed_us",
        (total("transport.invoke") - inside).max(0.0) * 1e6 / ops,
        "us",
    ));
    metrics.push(Metric::new(
        "soap.kib_per_op",
        tr.counter("soap.bytes") as f64 / 1024.0 / ops,
        "KiB",
    ));
    metrics.push(Metric::new(
        "trace.overhead_frac",
        traced_p50 / op_ms_p50 - 1.0,
        "frac",
    ));
    // Pool busy time is taken from the untraced phase: replays use the
    // pool too, and would inflate it.
    let untraced_only = |m: &Metric| m.name == "pool.busy_frac";
    metrics.extend(traced.extra.into_iter().filter(|m| !untraced_only(m)));
    metrics.extend(plain.extra.into_iter().filter(untraced_only));
    // Report exactly the declared layers, in declared order.
    let metrics = W::LAYERS
        .iter()
        .map(|&name| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit_of(name)))
        })
        .collect();
    Ok(Profile {
        ops: traced.ops,
        failed: plain.failed + traced.failed + again.failed,
        op_ms_p50,
        metrics,
        shares,
        spans: tr.to_json_lines(name),
    })
}

/// Derive an independent stream from `seed` for `what`.
pub fn stream(seed: u64, what: u64) -> u64 {
    dm_wsrf::fleet::splitmix64(seed ^ what.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniform draw in `[0, 1)` from counter `i` of stream `s`.
pub fn unit(s: u64, i: u64) -> f64 {
    (dm_wsrf::fleet::splitmix64(s.wrapping_add(i)) >> 11) as f64 / (1u64 << 53) as f64
}

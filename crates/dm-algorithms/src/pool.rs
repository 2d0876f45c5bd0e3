//! Shared work-stealing compute pool.
//!
//! The service layers (PR 1–4) are now far faster than the compute
//! underneath them: training and scoring were entirely single-threaded.
//! This module adds the bounded parallelism substrate the kernels run
//! on — `parallel_for` / [`parallel_map`] / [`parallel_map_reduce`]
//! primitives over the vendored [`crossbeam::deque`] work-stealing
//! deques — with three hard guarantees:
//!
//! 1. **Determinism.** Results are collected as `(index, value)` pairs
//!    and assembled in index order, and every reduction folds in index
//!    order. Output is byte-identical to a serial loop at any thread
//!    count, including 1.
//! 2. **Bounded threads.** A global permit budget caps the number of
//!    extra worker threads in flight across *all* concurrent batches,
//!    and any `parallel_*` call made from inside a pool worker runs
//!    inline on that worker — nested parallelism (cross-validation over
//!    random forests) can never oversubscribe the host.
//! 3. **Panic propagation.** A panicking task aborts the batch, and the
//!    payload of the lowest-index panic is re-raised on the caller via
//!    `resume_unwind` — never a worker-thread abort of the process.
//!
//! The thread count resolves as: [`with_threads`] override on the
//! calling thread → global setting ([`set_global_threads`], the
//! `FAEHIM_POOL_THREADS` environment variable, or
//! `std::thread::available_parallelism`). Worker threads are scoped per
//! batch (`std::thread::scope`; the caller participates as worker 0),
//! which keeps the whole pool safe under the workspace-wide
//! `#![forbid(unsafe_code)]` — no lifetime erasure, no leaked threads.
//!
//! **A batch starts threads only when its work pays for them.** A
//! scoped spawn+join costs about 40 µs of CPU (39.6 µs, p50 of process
//! CPU, on a 2-core x86-64 VM), while a 64-row J48 scoring batch or a
//! 10-tree forest vote is a few µs of work. Neither the item count nor
//! the call site says which kind a batch is, so every batch of two or
//! more items starts on the calling thread, in index order, with nested
//! calls inline as inside a worker. After items 1, 2, 4, 8, … and every
//! 32nd, it projects the rest as `elapsed × remaining / done`. Once it
//! has run for `FAN_OUT_AT / 4` (so one slow first item cannot trigger
//! it) and the projection reaches the private constant `FAN_OUT_AT`
//! (200 µs, about five thread starts), the remaining items go to the
//! pooled path. A batch that never gets there ends inline, having taken
//! no permit and read the clock O(log n + n/32) times. A batch of one
//! item is a plain call: it is not counted and does not mark the thread
//! as a worker.
//!
//! The price is paid by heavy batches: at least their first item runs
//! alone before helpers start, so `n` items of `t` each finish in
//! `t + ⌈(n − 1) / W⌉ · t` on `W` workers rather than `⌈n / W⌉ · t`,
//! and a batch of two never fans out. For a 10-fold cross-validation
//! that is one fold's time more (+20 % at 2 workers, +33 % at 4, +50 %
//! at 8, +100 % at 10 or more); E15 models it.
//!
//! [`stats`] counts the batches that started a helper (`fanouts`), so a
//! caller can see which way a batch went.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crossbeam::deque::{Steal, Stealer, Worker};

// ---------------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------------

/// Global thread setting; 0 = not yet initialised.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Extra (non-caller) worker threads currently in flight, across all
/// concurrent batches. Bounded by `effective_threads - 1` per batch.
static EXTRA_IN_USE: AtomicUsize = AtomicUsize::new(0);

/// Projected remaining inline time, in nanoseconds, at which a batch
/// hands its remaining items to the pooled path: about five scoped
/// thread starts (39.6 µs of CPU each, measured on a 2-core VM). A
/// remainder projected below this finishes sooner, and on less CPU, on
/// the calling thread.
const FAN_OUT_AT: u128 = 200_000;

/// Inline run time, in nanoseconds, before the projection is trusted,
/// so that one slow first item (a cold cache, a page fault) of a batch
/// of cheap items cannot fan it out.
const MIN_PREFIX: u128 = FAN_OUT_AT / 4;

/// Most rows in one block of a blocked row scan ([`scan_rows`]).
const SCAN_BLOCK_ROWS: usize = 1024;

#[cfg(test)]
thread_local! {
    /// `(batches, fanouts)` started on this thread, for unit tests that
    /// must not see other tests' batches in the process-wide counters.
    static STARTED_HERE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// This thread's `(batches, fanouts)` so far.
#[cfg(test)]
pub(crate) fn started_here() -> (u64, u64) {
    STARTED_HERE.with(|c| c.get())
}

thread_local! {
    /// Set while the current thread is executing pool tasks: nested
    /// `parallel_*` calls run inline instead of spawning.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread thread-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn init_threads_from_env() -> usize {
    std::env::var("FAEHIM_POOL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

fn global_threads() -> usize {
    let n = GLOBAL_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = init_threads_from_env();
    // First writer wins; concurrent initialisers resolve identically.
    let _ = GLOBAL_THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    GLOBAL_THREADS.load(Ordering::Relaxed)
}

/// Set the global pool thread budget (clamped to ≥ 1), taking effect
/// for every later batch; `FAEHIM_POOL_THREADS` seeds the initial value
/// before the first call.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The thread count a `parallel_*` call made *right now* on this thread
/// would use: 1 inside a pool worker, otherwise the [`with_threads`]
/// override, otherwise the global setting.
pub fn current_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(global_threads)
}

/// Run `f` with the pool forced to `n` threads on the calling thread
/// (restored afterwards, panic-safe). The determinism tests use this to
/// pin byte-identical output at pool sizes {1, 2, 8}.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            THREAD_OVERRIDE.with(|o| o.set(prev));
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

fn acquire_extra(want: usize, cap: usize) -> usize {
    if want == 0 || cap == 0 {
        return 0;
    }
    let mut cur = EXTRA_IN_USE.load(Ordering::SeqCst);
    loop {
        let avail = cap.saturating_sub(cur);
        let grant = want.min(avail);
        if grant == 0 {
            return 0;
        }
        match EXTRA_IN_USE.compare_exchange(cur, cur + grant, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return grant,
            Err(actual) => cur = actual,
        }
    }
}

fn release_extra(n: usize) {
    if n > 0 {
        EXTRA_IN_USE.fetch_sub(n, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

static TASKS_TOTAL: AtomicU64 = AtomicU64::new(0);
static BATCHES_TOTAL: AtomicU64 = AtomicU64::new(0);
static FANOUTS_TOTAL: AtomicU64 = AtomicU64::new(0);
static STEALS_TOTAL: AtomicU64 = AtomicU64::new(0);
static WORKER_STATS: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

/// Per-worker-slot counters in a [`PoolStats`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Tasks this worker slot has executed.
    pub tasks: u64,
    /// Accumulated time this slot spent draining task queues.
    pub busy: Duration,
}

/// Snapshot of the pool's lifetime counters, exported through
/// `MetricsRegistry` as the `faehim_pool_*` family.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolStats {
    /// The global thread setting ([`set_global_threads`]), whatever the
    /// scraping thread's [`with_threads`] override or worker status.
    pub threads: usize,
    /// Tasks executed (pooled and inline batches alike).
    pub tasks: u64,
    /// `parallel_*` batches run.
    pub batches: u64,
    /// Batches that started at least one helper thread; the rest ran
    /// entirely on their calling thread.
    pub fanouts: u64,
    /// Successful steals from another worker's deque.
    pub steals: u64,
    /// Per-worker-slot counters; slot 0 is the calling thread.
    pub workers: Vec<WorkerStats>,
}

/// Snapshot the pool counters.
pub fn stats() -> PoolStats {
    let workers = WORKER_STATS
        .lock()
        .expect("pool stats poisoned")
        .iter()
        .map(|&(tasks, busy_nanos)| WorkerStats {
            tasks,
            busy: Duration::from_nanos(busy_nanos),
        })
        .collect();
    PoolStats {
        threads: global_threads(),
        tasks: TASKS_TOTAL.load(Ordering::Relaxed),
        batches: BATCHES_TOTAL.load(Ordering::Relaxed),
        fanouts: FANOUTS_TOTAL.load(Ordering::Relaxed),
        steals: STEALS_TOTAL.load(Ordering::Relaxed),
        workers,
    }
}

/// Zero every counter (benchmarks and tests).
pub fn reset_stats() {
    TASKS_TOTAL.store(0, Ordering::Relaxed);
    BATCHES_TOTAL.store(0, Ordering::Relaxed);
    FANOUTS_TOTAL.store(0, Ordering::Relaxed);
    STEALS_TOTAL.store(0, Ordering::Relaxed);
    WORKER_STATS.lock().expect("pool stats poisoned").clear();
}

fn flush_worker_stats(slot: usize, tasks: u64, busy_nanos: u64, steals: u64) {
    TASKS_TOTAL.fetch_add(tasks, Ordering::Relaxed);
    STEALS_TOTAL.fetch_add(steals, Ordering::Relaxed);
    let mut workers = WORKER_STATS.lock().expect("pool stats poisoned");
    if workers.len() <= slot {
        workers.resize(slot + 1, (0, 0));
    }
    workers[slot].0 += tasks;
    workers[slot].1 += busy_nanos;
}

// ---------------------------------------------------------------------------
// Core primitives
// ---------------------------------------------------------------------------

type PanicPayload = Box<dyn Any + Send + 'static>;

/// Apply `f` to every index in `0..n` and return the results **in index
/// order**, using up to [`current_threads`] workers once the batch's
/// work pays for them (see the module doc). Byte-identical to
/// `(0..n).map(f).collect()` at any thread count; a panicking `f` is
/// re-raised on the caller with its original payload.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n < 2 {
        return (0..n).map(f).collect();
    }
    BATCHES_TOTAL.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    STARTED_HERE.with(|c| c.set((c.get().0 + 1, c.get().1)));
    let threads = current_threads();
    // The inline prefix: index order on the calling thread, checking the
    // clock after items 1, 2, 4, …, 32 and every 32nd after that.
    let mut out = Vec::with_capacity(n);
    let started = Instant::now();
    let was_worker = IN_WORKER.with(|w| w.replace(true));
    let granted = catch_unwind(AssertUnwindSafe(|| {
        let mut check = if threads > 1 { 1 } else { usize::MAX };
        while out.len() < n {
            out.push(f(out.len()));
            let done = out.len();
            if done == check {
                check = if done < 32 { done * 2 } else { done + 32 };
                let elapsed = started.elapsed().as_nanos();
                let remaining = (n - done) as u128;
                if remaining > 1
                    && elapsed >= MIN_PREFIX
                    && elapsed * remaining >= FAN_OUT_AT * done as u128
                {
                    let want = threads.min(n - done) - 1;
                    let granted = acquire_extra(want, threads - 1);
                    if granted > 0 {
                        return granted;
                    }
                }
            }
        }
        0
    }));
    IN_WORKER.with(|w| w.set(was_worker));
    flush_worker_stats(0, out.len() as u64, started.elapsed().as_nanos() as u64, 0);
    let granted = match granted {
        Ok(0) => return out,
        Ok(granted) => granted,
        Err(payload) => resume_unwind(payload),
    };
    // Items `out.len()..n` on the caller plus the granted helpers.
    FANOUTS_TOTAL.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    STARTED_HERE.with(|c| c.set((c.get().0, c.get().1 + 1)));
    let rest = run_pooled(out.len()..n, granted + 1, &f);
    release_extra(granted);
    match rest {
        Ok(values) => {
            out.extend(values);
            out
        }
        Err(payload) => resume_unwind(payload),
    }
}

/// Run a row scan over `0..rows` as one [`parallel_map`] batch of
/// `⌈rows / 1024⌉` near-equal blocks and concatenate the blocks' outputs
/// in row order. A scan of up to 1024 rows is one block, a plain call.
/// Smaller blocks would cost every scan a heap and an accumulator per
/// block (on one thread of a 2-core VM, an IBk query over 4,000 rows ran
/// 2.7–4.6× slower with 64-row blocks). Per-row results of such a scan
/// must not depend on the partition.
pub(crate) fn scan_rows<T, F>(rows: usize, scan: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let blocks = dm_data::block_ranges(rows, rows.div_ceil(SCAN_BLOCK_ROWS));
    parallel_map(blocks.len(), |b| scan(blocks[b].clone()))
        .into_iter()
        .reduce(|mut all, block| {
            all.extend(block);
            all
        })
        .unwrap_or_default()
}

/// Run `f` for every index in `0..n` (side effects only), with the same
/// scheduling and panic semantics as [`parallel_map`].
pub fn parallel_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    parallel_map(n, f);
}

/// Map every index through `map` in parallel, then fold the results
/// **in index order** — the fold itself is serial, so floating-point
/// accumulation matches the serial loop bit-for-bit.
pub fn parallel_map_reduce<T, A, M, F>(n: usize, map: M, init: A, fold: F) -> A
where
    T: Send,
    M: Fn(usize) -> T + Sync,
    F: FnMut(A, T) -> A,
{
    parallel_map(n, map).into_iter().fold(init, fold)
}

/// The pooled path: seed one deque per worker with contiguous chunks of
/// `items`, spawn `workers - 1` scoped threads (the caller is worker 0),
/// drain with work stealing, and assemble results in index order.
fn run_pooled<T, F>(
    items: std::ops::Range<usize>,
    workers: usize,
    f: &F,
) -> Result<Vec<T>, PanicPayload>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (start, n) = (items.start, items.len());
    let mut deques: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<usize>> = deques.iter().map(|d| d.stealer()).collect();
    // Contiguous chunks keep each worker's slice of the index space
    // cache-friendly; stealing rebalances when chunks are uneven.
    for k in 0..n {
        deques[k * workers / n].push(start + k);
    }

    let abort = AtomicBool::new(false);
    let first_panic: Mutex<Option<(usize, PanicPayload)>> = Mutex::new(None);

    let mut slots: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let own = deques.remove(0);
        let handles: Vec<_> = deques
            .into_iter()
            .enumerate()
            .map(|(i, deque)| {
                let slot = i + 1;
                let stealers = &stealers;
                let abort = &abort;
                let first_panic = &first_panic;
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    drain_worker(slot, deque, stealers, f, abort, first_panic)
                })
            })
            .collect();
        let was_worker = IN_WORKER.with(|w| w.replace(true));
        let mine = drain_worker(0, own, &stealers, f, &abort, &first_panic);
        IN_WORKER.with(|w| w.set(was_worker));
        let mut all = vec![mine];
        for h in handles {
            all.push(h.join().expect("pool worker thread"));
        }
        all
    });

    if let Some((_, payload)) = first_panic.into_inner().expect("pool panic slot") {
        return Err(payload);
    }

    let mut assembled: Vec<Option<T>> = Vec::with_capacity(n);
    assembled.resize_with(n, || None);
    for slot in slots.drain(..) {
        for (i, v) in slot {
            assembled[i - start] = Some(v);
        }
    }
    Ok(assembled
        .into_iter()
        .map(|v| v.expect("pool task result missing"))
        .collect())
}

fn drain_worker<T, F>(
    slot: usize,
    own: Worker<usize>,
    stealers: &[Stealer<usize>],
    f: &F,
    abort: &AtomicBool,
    first_panic: &Mutex<Option<(usize, PanicPayload)>>,
) -> Vec<(usize, T)>
where
    F: Fn(usize) -> T,
{
    let started = Instant::now();
    let mut out = Vec::new();
    let mut tasks = 0u64;
    let mut steals = 0u64;
    'outer: loop {
        if abort.load(Ordering::SeqCst) {
            break;
        }
        let index = match own.pop() {
            Some(i) => i,
            None => {
                // Own deque dry: steal a batch from the next non-empty
                // victim, scanning round-robin from our right neighbour.
                let mut found = None;
                for offset in 1..stealers.len() {
                    let victim = (slot + offset) % stealers.len();
                    match stealers[victim].steal_batch_and_pop(&own) {
                        Steal::Success(i) => {
                            steals += 1;
                            found = Some(i);
                            break;
                        }
                        Steal::Empty => continue,
                        Steal::Retry => continue,
                    }
                }
                match found {
                    Some(i) => i,
                    None => break 'outer,
                }
            }
        };
        match catch_unwind(AssertUnwindSafe(|| f(index))) {
            Ok(value) => {
                tasks += 1;
                out.push((index, value));
            }
            Err(payload) => {
                tasks += 1;
                abort.store(true, Ordering::SeqCst);
                let mut lock = first_panic.lock().expect("pool panic slot");
                // Keep the lowest-index payload: closest to what a
                // serial loop would have raised first.
                match lock.as_ref() {
                    Some((prev, _)) if *prev <= index => {}
                    _ => *lock = Some((index, payload)),
                }
                break 'outer;
            }
        }
    }
    flush_worker_stats(slot, tasks, started.elapsed().as_nanos() as u64, steals);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    /// Busy-wait `micros` µs: enough work per item for a batch of a
    /// few items to cross the fan-out constant and reach the pooled
    /// path. Items never wait on each other, so a batch that runs
    /// inline (no permit free) still finishes.
    fn spin(micros: u64) {
        let until = Instant::now() + Duration::from_micros(micros);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn map_matches_serial_at_every_thread_count() {
        let serial: Vec<u64> = (0..997)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 8] {
            let pooled = with_threads(threads, || {
                parallel_map(997, |i| {
                    spin(50);
                    (i as u64).wrapping_mul(2654435761)
                })
            });
            assert_eq!(pooled, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_reduce_folds_in_index_order() {
        // Non-commutative fold: order changes the result, so equality
        // with the serial fold proves index-ordered reduction.
        let serial = (0..200).fold(String::new(), |acc, i| format!("{acc}/{i}"));
        for threads in [1, 2, 8] {
            let pooled = with_threads(threads, || {
                parallel_map_reduce(
                    200,
                    |i| {
                        spin(50);
                        i
                    },
                    String::new(),
                    |acc, i| format!("{acc}/{i}"),
                )
            });
            assert_eq!(pooled, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_batches() {
        let empty: Vec<u32> = parallel_map(0, |_| 1u32);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        with_threads(4, || {
            parallel_for(500, |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            })
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn panic_payload_propagates() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                parallel_map(64, |i| {
                    spin(50);
                    if i == 17 {
                        panic!("task 17 exploded");
                    }
                    i
                })
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 17 exploded");
    }

    #[test]
    fn nested_calls_run_inline() {
        let observed = with_threads(4, || {
            parallel_map(4, |_| {
                spin(300);
                // Inside a worker the pool must report 1 thread and the
                // nested call must still produce correct ordered output.
                let inner = parallel_map(8, |j| j * 2);
                (current_threads(), inner)
            })
        });
        for (threads, inner) in observed {
            assert_eq!(threads, 1);
            assert_eq!(inner, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        }
    }

    #[test]
    fn with_threads_restores_on_exit_and_panic() {
        let before = current_threads();
        with_threads(7, || assert_eq!(current_threads(), 7));
        assert_eq!(current_threads(), before);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_threads(5, || panic!("boom"));
        }));
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn stats_count_tasks_and_batches() {
        // Counters are global; only assert monotonic deltas.
        let before = stats();
        with_threads(2, || parallel_map(100, |i| i));
        let after = stats();
        assert!(after.tasks >= before.tasks + 100);
        assert!(after.batches > before.batches);
        assert!(!after.workers.is_empty());
    }

    #[test]
    fn stats_threads_is_the_global_setting_on_any_thread() {
        // A scrape reads the same gauge under an override and on a pool
        // worker, where `current_threads()` is 7 and 1.
        let outside = stats().threads;
        assert_eq!(with_threads(7, || stats().threads), outside);
        let on_workers = with_threads(2, || parallel_map(2, |_| stats().threads));
        assert_eq!(on_workers, vec![outside; 2]);
    }

    #[test]
    fn permit_budget_bounds_concurrent_batches() {
        // Two top-level batches racing for permits must both finish
        // with correct results even when one is forced inline.
        let results: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        with_threads(8, || {
                            parallel_map(300, |i| {
                                spin(50);
                                i * 3
                            })
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expect: Vec<usize> = (0..300).map(|i| i * 3).collect();
        for r in results {
            assert_eq!(r, expect);
        }
        // Other tests' batches share the budget: let them drain before
        // checking that these two released every permit they took.
        let deadline = Instant::now() + Duration::from_secs(10);
        while EXTRA_IN_USE.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(EXTRA_IN_USE.load(Ordering::SeqCst), 0, "permits leaked");
    }

    #[test]
    fn trivial_batch_runs_on_the_calling_thread() {
        // A long trivial batch and a short one at a wider pool (a
        // 10-tree forest vote at 16 threads) are far under the fan-out
        // constant, so they run on the caller, taking no permit. Only a
        // preemption mid-batch can inflate the projection enough to fan
        // one out.
        let caller = std::thread::current().id();
        for (n, threads) in [(64, 4), (10, 16)] {
            let fanned_out = (0..100)
                .filter(|_| {
                    let ids =
                        with_threads(threads, || parallel_map(n, |_| std::thread::current().id()));
                    ids.iter().any(|&id| id != caller)
                })
                .count();
            assert!(
                fanned_out <= 3,
                "{fanned_out} of 100 trivial {n}-item batches fanned out at {threads} threads"
            );
        }
    }

    #[test]
    fn heavy_batch_fans_out() {
        // A long batch (more items than threads) fans out after its
        // inline prefix, and so does a short one (no more items than
        // threads) after its first item. Other tests may hold every
        // permit, so retry until one is granted; the results must equal
        // the serial map every time.
        for (n, threads, micros) in [(32usize, 2usize, 50u64), (4, 4, 300)] {
            let serial: Vec<usize> = (0..n).map(|i| i * 7).collect();
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let fanouts = stats().fanouts;
                let (values, ids): (Vec<usize>, Vec<std::thread::ThreadId>) =
                    with_threads(threads, || {
                        parallel_map(n, |i| {
                            spin(micros);
                            (i * 7, std::thread::current().id())
                        })
                    })
                    .into_iter()
                    .unzip();
                assert_eq!(values, serial, "n={n}");
                if ids.into_iter().collect::<HashSet<_>>().len() >= 2 {
                    // Counters only grow in this crate's tests.
                    assert!(stats().fanouts > fanouts, "fan-out not counted");
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "a heavy {n}-item batch never ran on two threads"
                );
            }
        }
    }
}

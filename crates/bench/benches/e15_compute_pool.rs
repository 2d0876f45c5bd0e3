//! E15 — compute-pool speedup: forest training, 10-fold
//! cross-validation, and 1000-instance batch scoring on breast-cancer
//! at 1 / 2 / 4 / 8 pool threads, with byte-identical outputs at every
//! thread count.
//!
//! Two numbers are reported per workload and thread count:
//!
//! * **measured wall-clock** — the actual elapsed time under
//!   `pool::with_threads(n, ..)` on this host. On a single-core host
//!   (the CI container has one CPU) extra threads timeshare one core,
//!   so the measured curve is flat — included for honesty, not as the
//!   headline.
//! * **modeled makespan** — each workload's tasks (one tree, one fold,
//!   one row) are timed individually (the median of three runs of the
//!   same deterministic task, so one preempted or cold run cannot sink
//!   the makespan). The three runs are taken round-robin, the first of
//!   every task before the second of any, so a slow stretch of the host
//!   slows all tasks alike rather than one task's every run, and leaves
//!   the modelled ratios alone. The model then follows the pool's
//!   fan-out rule: the tasks run in order on one worker until the rule
//!   would fan the batch out, and the rest are list-scheduled onto W
//!   earliest-available workers, the same greedy order the
//!   work-stealing deques converge to. This is the speedup the pool
//!   delivers once W cores exist, computed from *measured* per-task
//!   durations rather than an assumed uniform split.
//!
//! The determinism contract is asserted inline: forest state bytes,
//! pooled-CV `Evaluation`s, and batched predictions must be identical
//! at 1, 2, 4, and 8 threads. A batch whose projected work is under
//! the pool's fan-out constant runs on the calling thread, so the bench
//! also counts the batches that fanned out per workload and width and,
//! at full size, asserts that every workload fanned out at widths ≥ 2:
//! the determinism asserts then cover the pooled path.
//!
//! `FAEHIM_E15_SMOKE=1` shrinks the workloads for CI smoke runs.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dm_algorithms::classifiers::{Classifier, RandomForest, RandomTree};
use dm_algorithms::eval::{cross_validate, cross_validate_parallel};
use dm_algorithms::options::Configurable;
use dm_algorithms::pool;
use dm_algorithms::registry::make_classifier;
use dm_algorithms::state::Stateful;
use dm_bench::banner;
use std::hint::black_box;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 0xFAE15;

fn smoke() -> bool {
    std::env::var("FAEHIM_E15_SMOKE").is_ok()
}

fn num_trees() -> usize {
    if smoke() {
        8
    } else {
        64
    }
}

fn batch_rows() -> usize {
    if smoke() {
        200
    } else {
        1000
    }
}

const CV_FOLDS: usize = 10;

fn dataset() -> dm_data::Dataset {
    let mut ds = dm_data::arff::parse_arff(dm_bench::breast_cancer_arff()).unwrap();
    ds.set_class_by_name("Class").unwrap();
    ds
}

/// The scoring batch: breast-cancer rows cycled up to `batch_rows()`.
fn batch_dataset(ds: &dm_data::Dataset) -> dm_data::Dataset {
    let n = ds.num_instances();
    let rows: Vec<usize> = (0..batch_rows()).map(|i| i % n).collect();
    ds.select_rows(&rows)
}

/// Greedy list scheduling of `durations` (seconds) onto `workers`
/// earliest-available workers; returns the makespan in seconds.
fn greedy_makespan(durations: &[f64], workers: usize) -> f64 {
    let mut free_at = vec![0.0f64; workers.max(1)];
    for &d in durations {
        let earliest = free_at
            .iter_mut()
            .min_by(|a, b| a.partial_cmp(b).unwrap())
            .unwrap();
        *earliest += d;
    }
    free_at.into_iter().fold(0.0, f64::max)
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median-of-3 wall-clock seconds for `f`.
fn median_time<R>(f: impl FnMut() -> R) -> f64 {
    round_robin_medians(&mut [f])[0]
}

/// Median-of-3 wall-clock seconds of each of `tasks`, sampled
/// round-robin: sample k of every task is taken before sample k + 1 of
/// any. A slow stretch of the host then slows one sample of many tasks
/// alike, which the medians drop, instead of every sample of one task,
/// which would skew the modelled speed-ups.
fn round_robin_medians<R>(tasks: &mut [impl FnMut() -> R]) -> Vec<f64> {
    let mut samples = vec![[0.0f64; 3]; tasks.len()];
    for k in 0..3 {
        for (task, sample) in tasks.iter_mut().zip(&mut samples) {
            sample[k] = time(task).1;
        }
    }
    samples
        .into_iter()
        .map(|mut sample| {
            sample.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sample[1]
        })
        .collect()
}

/// Median-of-3 wall-clock for `f` under an `n`-thread pool.
fn wall_clock<R>(threads: usize, f: impl FnMut() -> R) -> f64 {
    pool::with_threads(threads, || median_time(f))
}

/// `f`'s result and the number of pool batches that fanned out while it
/// ran (nothing else uses the pool during E15).
fn counting_fanouts<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = pool::stats().fanouts;
    let out = f();
    (out, pool::stats().fanouts - before)
}

/// Train the E15 forest under whatever pool threads are in effect.
fn train_forest(ds: &dm_data::Dataset) -> RandomForest {
    let mut forest = RandomForest::new();
    forest.set_option("-I", &num_trees().to_string()).unwrap();
    forest.set_option("-S", &SEED.to_string()).unwrap();
    forest.train(ds).unwrap();
    forest
}

fn trained_forest(threads: usize, ds: &dm_data::Dataset) -> RandomForest {
    pool::with_threads(threads, || train_forest(ds))
}

/// Per-task durations of the forest workload: training one random tree
/// on one 286-row bootstrap resample (xorshift index stream — the cost
/// model only needs representative task sizes, not the forest's exact
/// bootstrap stream).
fn forest_task_durations(ds: &dm_data::Dataset) -> Vec<f64> {
    let n = ds.num_instances();
    let mut state = SEED | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut tasks: Vec<_> = (0..num_trees())
        .map(|i| {
            let rows: Vec<usize> = (0..n).map(|_| (next() % n as u64) as usize).collect();
            let sample = ds.select_rows(&rows);
            move || {
                let mut tree = RandomTree::new();
                tree.set_option("-S", &(SEED + i as u64).to_string())
                    .unwrap();
                tree.train(&sample).unwrap();
                black_box(tree.encode_state().len())
            }
        })
        .collect();
    round_robin_medians(&mut tasks)
}

/// Per-task durations of the CV workload: train + evaluate one J48
/// fold of the stratified 10-fold split.
fn cv_task_durations(ds: &dm_data::Dataset) -> Vec<f64> {
    let labels = ds.class_attribute().unwrap().labels().to_vec();
    let cv = dm_data::split::CrossValidation::stratified(ds, CV_FOLDS, SEED).unwrap();
    let mut tasks: Vec<_> = (0..cv.k())
        .map(|fold| {
            let (train, test) = cv.split(ds, fold);
            let labels = &labels;
            move || {
                let mut c = make_classifier("J48").unwrap();
                c.train(&train).unwrap();
                let mut eval = dm_algorithms::eval::Evaluation::new(labels.clone());
                eval.evaluate(c.as_ref(), &test).unwrap();
                black_box(eval.accuracy())
            }
        })
        .collect();
    round_robin_medians(&mut tasks)
}

/// Per-task durations of the batch-scoring workload: one `predict`
/// call per batch row against the trained forest — the same model the
/// measured path scores with (votes run inline under 1 thread, as they
/// do inside a pool worker).
fn scoring_task_durations(forest: &RandomForest, batch: &dm_data::Dataset) -> Vec<f64> {
    pool::with_threads(1, || {
        let mut tasks: Vec<_> = (0..batch.num_instances())
            .map(|row| move || black_box(forest.predict(batch, row).unwrap()))
            .collect();
        round_robin_medians(&mut tasks)
    })
}

struct WorkloadReport {
    name: &'static str,
    tasks: usize,
    serial_total: f64,
    modeled_speedup_at: Vec<(usize, f64)>,
    measured_wall_clock: Vec<(usize, f64)>,
}

fn report(w: &WorkloadReport) {
    println!(
        "{}: {} tasks, serial task total {:.1} ms",
        w.name,
        w.tasks,
        w.serial_total * 1e3
    );
    for (threads, speedup) in &w.modeled_speedup_at {
        println!("  modeled  {threads} workers: {speedup:.2}x");
    }
    for (threads, secs) in &w.measured_wall_clock {
        println!("  measured {threads} threads: {:.1} ms", secs * 1e3);
    }
}

/// The pool's fan-out constants (`dm_algorithms::pool`, module doc): a
/// batch fans out once it has run `MIN_PREFIX` seconds inline and its
/// projected remainder reaches `FAN_OUT_AT` seconds.
const FAN_OUT_AT: f64 = 200e-6;
const MIN_PREFIX: f64 = FAN_OUT_AT / 4.0;

/// Makespan of one pool batch of `durations` on `workers`, following the
/// pool's rule: the tasks run in order on the calling thread, which
/// checks after tasks 1, 2, 4, …, 32 and every 32nd whether to fan out;
/// once it does, the remaining tasks are list-scheduled onto the
/// workers, all free when the inline prefix ends.
fn pooled_makespan(durations: &[f64], workers: usize) -> f64 {
    let n = durations.len();
    let mut elapsed = 0.0;
    let mut check = 1;
    for (done, d) in (1..).zip(durations) {
        elapsed += d;
        if workers < 2 || done != check {
            continue;
        }
        check = if done < 32 { done * 2 } else { done + 32 };
        let remaining = n - done;
        if remaining > 1
            && elapsed >= MIN_PREFIX
            && elapsed * remaining as f64 >= FAN_OUT_AT * done as f64
        {
            return elapsed + greedy_makespan(&durations[done..], workers.min(remaining));
        }
    }
    elapsed
}

fn modeled(durations: &[f64]) -> Vec<(usize, f64)> {
    let total: f64 = durations.iter().sum();
    THREAD_COUNTS
        .iter()
        .map(|&w| (w, total / pooled_makespan(durations, w)))
        .collect()
}

fn bench(c: &mut Criterion) {
    banner(
        "E15",
        "compute-pool speedup: forest training, 10-fold CV, batch scoring at 1/2/4/8 threads",
    );
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host CPUs: {host_cpus} (measured wall-clock is core-bound; modeled makespan uses measured per-task durations)"
    );
    let ds = dataset();
    let batch = batch_dataset(&ds);

    // --- Determinism: byte-identical outputs at every thread count. --
    // Each run also counts the batches that fanned out, per width.
    let mut fanouts: Vec<(&str, Vec<(usize, u64)>)> = Vec::new();
    let (reference, fanned) = counting_fanouts(|| trained_forest(1, &ds));
    let ref_state = reference.encode_state();
    let mut counts = vec![(1, fanned)];
    for &threads in &THREAD_COUNTS[1..] {
        let (forest, fanned) = counting_fanouts(|| trained_forest(threads, &ds));
        assert!(
            forest.encode_state() == ref_state,
            "forest state diverged at {threads} threads"
        );
        counts.push((threads, fanned));
    }
    fanouts.push(("forest training", counts));
    let make = || make_classifier("J48");
    let serial_cv = cross_validate(make, &ds, CV_FOLDS, SEED).unwrap();
    let mut counts = Vec::new();
    for &threads in &THREAD_COUNTS {
        let (pooled, fanned) = counting_fanouts(|| {
            pool::with_threads(threads, || {
                cross_validate_parallel(make, &ds, CV_FOLDS, SEED).unwrap()
            })
        });
        assert!(pooled == serial_cv, "CV diverged at {threads} threads");
        counts.push((threads, fanned));
    }
    fanouts.push(("10-fold CV (J48)", counts));
    let score = |threads: usize| {
        counting_fanouts(|| {
            pool::with_threads(threads, || {
                pool::parallel_map(batch.num_instances(), |r| {
                    reference.predict(&batch, r).unwrap()
                })
            })
        })
    };
    let (ref_preds, fanned) = score(1);
    let mut counts = vec![(1, fanned)];
    for &threads in &THREAD_COUNTS[1..] {
        let (preds, fanned) = score(threads);
        assert_eq!(
            preds, ref_preds,
            "batch predictions diverged at {threads} threads"
        );
        counts.push((threads, fanned));
    }
    fanouts.push(("batch scoring", counts));
    println!(
        "determinism: forest state, CV evaluation, and {} batch predictions identical at {THREAD_COUNTS:?} threads",
        batch.num_instances()
    );
    println!("batches that fanned out, per pool width:");
    for (name, counts) in &fanouts {
        let cells: Vec<String> = counts.iter().map(|(t, n)| format!("{t}: {n}")).collect();
        println!("  {name}: {}", cells.join(", "));
        // At full size every workload is heavy enough to fan out, so
        // the determinism asserts above covered the pooled path.
        for &(threads, n) in counts {
            assert!(
                smoke() || threads < 2 || n > 0,
                "{name} never fanned out at {threads} threads"
            );
        }
    }

    // --- Forest training. --------------------------------------------
    let durations = forest_task_durations(&ds);
    let forest = WorkloadReport {
        name: "forest training",
        tasks: durations.len(),
        serial_total: durations.iter().sum(),
        modeled_speedup_at: modeled(&durations),
        measured_wall_clock: THREAD_COUNTS
            .iter()
            .map(|&t| {
                (
                    t,
                    wall_clock(t, || black_box(train_forest(&ds).encode_state().len())),
                )
            })
            .collect(),
    };
    report(&forest);

    // --- 10-fold cross-validation. -----------------------------------
    let durations = cv_task_durations(&ds);
    let cv = WorkloadReport {
        name: "10-fold CV (J48)",
        tasks: durations.len(),
        serial_total: durations.iter().sum(),
        modeled_speedup_at: modeled(&durations),
        measured_wall_clock: THREAD_COUNTS
            .iter()
            .map(|&t| {
                (
                    t,
                    wall_clock(t, || {
                        black_box(
                            cross_validate_parallel(make, &ds, CV_FOLDS, SEED)
                                .unwrap()
                                .accuracy(),
                        )
                    }),
                )
            })
            .collect(),
    };
    report(&cv);

    // --- Batch scoring. ----------------------------------------------
    let durations = scoring_task_durations(&reference, &batch);
    let scoring = WorkloadReport {
        name: "batch scoring",
        tasks: durations.len(),
        serial_total: durations.iter().sum(),
        modeled_speedup_at: modeled(&durations),
        measured_wall_clock: THREAD_COUNTS
            .iter()
            .map(|&t| {
                (
                    t,
                    wall_clock(t, || {
                        black_box(pool::parallel_map(batch.num_instances(), |r| {
                            reference.predict(&batch, r).unwrap()
                        }))
                    }),
                )
            })
            .collect(),
    };
    report(&scoring);

    // The acceptance floor: >= 2x at 4 workers on forest training and
    // CV, from measured per-task durations under the pool's rule.
    for w in [&forest, &cv] {
        let at4 = w
            .modeled_speedup_at
            .iter()
            .find(|(t, _)| *t == 4)
            .map(|(_, s)| *s)
            .unwrap();
        assert!(
            at4 >= 2.0,
            "{} modeled speedup at 4 workers is only {at4:.2}x",
            w.name
        );
    }

    let pool_stats = pool::stats();
    println!(
        "pool counters: {} tasks, {} batches ({} fanned out), {} steals across {} worker slots",
        pool_stats.tasks,
        pool_stats.batches,
        pool_stats.fanouts,
        pool_stats.steals,
        pool_stats.workers.len()
    );

    let mut group = c.benchmark_group("e15_compute_pool");
    group.bench_function("forest_train_1_thread", |b| {
        b.iter(|| black_box(trained_forest(1, &ds).encode_state().len()))
    });
    group.bench_function("forest_train_4_threads", |b| {
        b.iter(|| black_box(trained_forest(4, &ds).encode_state().len()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

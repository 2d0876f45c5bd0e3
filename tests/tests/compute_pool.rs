//! Determinism contract of the shared compute pool: every parallelised
//! kernel (ensemble training, IBk's row scan, k-means assignment,
//! parallel cross-validation, batched scoring, ensemble votes run on
//! pool workers) must produce byte-identical results at every thread
//! count. These properties pin that contract across random seeds and
//! pool sizes {1, 2, 8}.

#![forbid(unsafe_code)]

use dm_algorithms::cluster::{Clusterer, KMeans};
use dm_algorithms::options::Configurable;
use dm_algorithms::pool;
use dm_algorithms::registry::make_classifier;
use dm_algorithms::state::Stateful;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Pool sizes every property is checked at; 1 is the serial reference.
const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// Run `f` until some pool batch fans out during a run (for at most
/// 30 s) and return every run's output. A pool batch runs on the calling
/// thread unless its work pays for threads, so each property's inputs
/// are heavy enough to fan out, and this checks that the pooled path was
/// covered. The permit budget and the counter are process-wide: a test
/// running alongside may hold every permit for one run, and its batches
/// count too.
fn until_fanned_out<R>(mut f: impl FnMut() -> R) -> Vec<R> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut runs = Vec::new();
    loop {
        let before = pool::stats().fanouts;
        runs.push(f());
        if pool::stats().fanouts > before {
            return runs;
        }
        assert!(Instant::now() < deadline, "no pool batch fanned out");
    }
}

/// Train a fresh classifier of `name` (with `-S` = seed, `-I` =
/// members) under `threads` pool threads and return its encoded state.
fn trained_state(
    name: &str,
    members: &str,
    seed: u32,
    ds: &dm_data::Dataset,
    threads: usize,
) -> Vec<u8> {
    pool::with_threads(threads, || {
        let mut c = make_classifier(name).unwrap();
        c.set_option("-I", members).unwrap();
        c.set_option("-S", &seed.to_string()).unwrap();
        c.train(ds).unwrap();
        c.encode_state()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_forest_state_identical_at_every_pool_size(seed in any::<u32>(), noise in 0.0f64..0.4) {
        let ds = dm_data::corpus::nominal_classification(80, 4, 3, 2, noise, seed as u64);
        let reference = trained_state("RandomForest", "8", seed, &ds, 1);
        let states = until_fanned_out(|| [2, 8].map(|t| (t, trained_state("RandomForest", "8", seed, &ds, t))));
        for (threads, state) in states.into_iter().flatten() {
            prop_assert!(state == reference, "forest state diverged at {threads} threads");
        }
    }

    #[test]
    fn bagging_state_identical_at_every_pool_size(seed in any::<u32>(), noise in 0.0f64..0.4) {
        let ds = dm_data::corpus::nominal_classification(300, 4, 3, 2, noise, seed as u64);
        let reference = trained_state("Bagging", "6", seed, &ds, 1);
        let states = until_fanned_out(|| [2, 8].map(|t| (t, trained_state("Bagging", "6", seed, &ds, t))));
        for (threads, state) in states.into_iter().flatten() {
            prop_assert!(state == reference, "bagging state diverged at {threads} threads");
        }
    }

    #[test]
    fn ensemble_votes_identical_at_every_pool_size(seed in any::<u32>()) {
        // A vote folds its members in order on whichever thread runs it;
        // scoring 600 rows as one batch puts votes on pool workers.
        let ds = dm_data::corpus::nominal_classification(60, 4, 3, 2, 0.2, seed as u64);
        let mut forest = make_classifier("RandomForest").unwrap();
        forest.set_option("-I", "20").unwrap();
        forest.set_option("-S", &seed.to_string()).unwrap();
        pool::with_threads(1, || forest.train(&ds)).unwrap();
        let n = ds.num_instances();
        let votes = |threads: usize| {
            pool::with_threads(threads, || {
                pool::parallel_map(600, |i| forest.distribution(&ds, i % n).unwrap())
            })
        };
        let reference = votes(1);
        for (threads, dists) in until_fanned_out(|| [2, 8].map(|t| (t, votes(t)))).into_iter().flatten() {
            let same = reference.iter().zip(&dists).all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            });
            prop_assert!(same, "vote fold diverged at {threads} threads");
        }
    }

    #[test]
    fn kmeans_state_and_assignments_identical_at_every_pool_size(
        seed in any::<u32>(),
        k in 2usize..5,
    ) {
        // 4,000 rows: four scan blocks, enough assignment work per Lloyd
        // iteration to fan out.
        let ds = dm_data::corpus::nominal_classification(4000, 5, 3, 2, 0.3, seed as u64);
        let build = |threads: usize| {
            pool::with_threads(threads, || {
                let mut km = KMeans::with_k(k);
                km.set_option("-S", &seed.to_string()).unwrap();
                km.build(&ds).unwrap();
                let assigns = km.assignments(&ds).unwrap();
                (km.encode_state(), assigns)
            })
        };
        let (ref_state, ref_assigns) = build(1);
        let runs = until_fanned_out(|| [2, 8].map(|t| (t, build(t))));
        for (threads, (state, assigns)) in runs.into_iter().flatten() {
            prop_assert!(state == ref_state, "k-means state diverged at {threads} threads");
            prop_assert_eq!(&assigns, &ref_assigns, "assignments diverged at {} threads", threads);
        }
    }

    #[test]
    fn ibk_columnar_scan_identical_at_every_pool_size(seed in any::<u32>(), k in 1usize..6) {
        // 24 scan blocks: enough distance work per query for the scan to
        // fan out at widths 2 and 8.
        let ds = dm_data::corpus::nominal_classification(24_000, 4, 3, 2, 0.25, seed as u64);
        let mut c = make_classifier("IBk").unwrap();
        c.set_option("-K", &k.to_string()).unwrap();
        pool::with_threads(1, || c.train(&ds)).unwrap();
        let score = |threads: usize| {
            pool::with_threads(threads, || {
                (0..8).map(|r| c.distribution(&ds, r).unwrap()).collect::<Vec<_>>()
            })
        };
        let reference = score(1);
        for (threads, dists) in until_fanned_out(|| [2, 8].map(|t| (t, score(t)))).into_iter().flatten() {
            let same = reference.iter().zip(&dists).all(|(a, b)| {
                a.len() == b.len()
                    && a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits())
            });
            prop_assert!(same, "IBk columnar scan diverged at {threads} threads");
        }
    }

    #[test]
    fn predict_batch_matches_serial_predicts_at_every_pool_size(seed in any::<u32>()) {
        // The batched scoring path must be the concatenation of per-row
        // predicts at every pool width (3,000 rows: enough to fan out).
        let ds = dm_data::corpus::nominal_classification(3000, 4, 3, 2, 0.25, seed as u64);
        let mut c = make_classifier("NaiveBayes").unwrap();
        pool::with_threads(1, || c.train(&ds)).unwrap();
        let serial: Vec<usize> =
            (0..ds.num_instances()).map(|r| c.predict(&ds, r).unwrap()).collect();
        let batches = until_fanned_out(|| {
            POOL_SIZES.map(|t| (t, pool::with_threads(t, || c.predict_batch(&ds).unwrap())))
        });
        for (threads, batch) in batches.into_iter().flatten() {
            prop_assert_eq!(&batch, &serial, "batch predictions diverged at {} threads", threads);
        }
    }

    #[test]
    fn parallel_cv_equals_serial_cv_at_every_pool_size(seed in any::<u32>(), folds in 2usize..6) {
        // 600 rows: enough work per fold for three or more folds to fan
        // out. A batch of two never does, so 2-fold CV runs inline at
        // every width.
        let ds = dm_data::corpus::nominal_classification(600, 4, 3, 2, 0.25, seed as u64);
        let make = || make_classifier("NaiveBayes");
        let serial = dm_algorithms::eval::cross_validate(make, &ds, folds, seed as u64).unwrap();
        let pooled = || {
            POOL_SIZES.map(|t| {
                let cv = pool::with_threads(t, || {
                    dm_algorithms::eval::cross_validate_parallel(make, &ds, folds, seed as u64)
                });
                (t, cv.unwrap())
            })
        };
        let runs = if folds > 2 { until_fanned_out(pooled) } else { vec![pooled()] };
        for (threads, cv) in runs.into_iter().flatten() {
            prop_assert!(cv == serial, "CV diverged at {threads} threads");
        }
    }
}

#[test]
fn batched_scoring_byte_identical_across_pool_sizes() {
    // End-to-end: the classifyInstances operation through the typed
    // client must return the same SOAP-decoded predictions at every
    // pool size (the envelope path is exercised in dm-services tests;
    // here the whole toolkit stack is in the loop). IBk, because each
    // of its predictions scans the stored rows: scoring 286 rows is
    // then enough work to fan out, where J48's is not.
    let toolkit = faehim::Toolkit::new().unwrap();
    let arff = dm_data::corpus::breast_cancer_arff();
    let client = toolkit.classifier_client();
    let classify = |threads: usize| {
        pool::with_threads(threads, || {
            client
                .classify_instances(&arff, "IBk", "", "Class", &arff)
                .unwrap()
        })
    };
    let reference = classify(1);
    assert_eq!(reference.len(), 286);
    for (threads, preds) in until_fanned_out(|| [2, 8].map(|t| (t, classify(t))))
        .into_iter()
        .flatten()
    {
        assert_eq!(
            preds, reference,
            "batch predictions diverged at {threads} threads"
        );
    }
}

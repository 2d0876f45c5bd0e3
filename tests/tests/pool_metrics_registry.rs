//! The compute pool's metrics as the toolkit exports them. The test
//! sets the pool's process-wide width to 2, which changes the width of
//! every batch in the process, so it has a binary of its own: in a
//! shared binary, tests running concurrently would run at width 2, not
//! at the `FAEHIM_POOL_THREADS` width a CI run asks for.

#![forbid(unsafe_code)]

use faehim::Toolkit;

#[test]
fn compute_pool_metrics_flow_into_registry() {
    let tk = Toolkit::new().unwrap();
    tk.set_compute_threads(2);
    dm_algorithms::pool::reset_stats();
    // Drive one batch through the pool: the batched scoring
    // operation scores the 286 rows as one batch. That is little
    // work, so it may run on the calling thread without fanning out;
    // it counts as a batch either way.
    let arff = dm_data::corpus::breast_cancer_arff();
    let preds = tk
        .classifier_client()
        .classify_instances(&arff, "NaiveBayes", "", "Class", &arff)
        .unwrap();
    assert_eq!(preds.len(), 286);

    let snap = tk.compute_pool_stats();
    assert_eq!(snap.threads, 2);
    assert!(snap.tasks >= 286, "pool only saw {} tasks", snap.tasks);
    assert!(snap.batches >= 1);
    assert!(!snap.workers.is_empty());

    let metrics = tk.metrics_registry();
    assert_eq!(metrics.gauge_value("faehim_pool_threads", &[]), Some(2.0));
    assert!(metrics.counter_value("faehim_pool_tasks_total", &[]) >= 286);
    assert!(metrics.counter_value("faehim_pool_batches_total", &[]) >= 1);
    let text = metrics.export_prometheus();
    assert!(text.contains("faehim_pool_tasks_total"), "{text}");
    assert!(text.contains("faehim_pool_fanouts_total"), "{text}");
    assert!(text.contains("faehim_pool_worker_tasks_total"), "{text}");
}

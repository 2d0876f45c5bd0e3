//! E12 — the content-addressed data plane end to end: pass-by-reference
//! payloads, the trained-model cache, and memoised enactment together
//! make a warm re-enactment of the §5 case study move a fraction of the
//! wire bytes and simulated network time of a cold run, with
//! byte-identical outputs.

#![forbid(unsafe_code)]

use dm_workflow::engine::Executor;
use dm_workflow::memo::MemoCache;
use faehim::casestudy::{run_case_study_on, run_case_study_with};
use faehim::Toolkit;
use std::sync::Arc;

/// The pinned E12 acceptance ratios: a warm re-enactment must move at
/// least 5× fewer wire bytes and take at least 3× less simulated
/// network time than the cold run, and produce byte-identical outputs.
#[test]
fn warm_case_study_meets_pinned_ratios() {
    let toolkit = Toolkit::new().unwrap();
    toolkit.enable_data_plane();
    let net = toolkit.network();
    let executor = Executor::serial().with_memoisation(Arc::new(MemoCache::new(64)));

    net.reset_wire_stats();
    let cold_start = net.now();
    let cold = run_case_study_with(&toolkit, &executor).unwrap();
    let cold_time = net.now() - cold_start;
    let cold_wire = net.wire_stats();

    net.reset_wire_stats();
    let warm_start = net.now();
    let warm = run_case_study_with(&toolkit, &executor).unwrap();
    let warm_time = net.now() - warm_start;
    let warm_wire = net.wire_stats();

    // Byte-identical artifacts.
    assert_eq!(cold.model_text, warm.model_text);
    assert_eq!(cold.analysis, warm.analysis);
    assert_eq!(cold.tree_svg, warm.tree_svg);
    assert_eq!(cold.summary_table, warm.summary_table);

    // ≥5× fewer wire bytes.
    assert!(
        cold_wire.bytes >= 5 * warm_wire.bytes.max(1),
        "wire bytes: cold {} vs warm {} (ratio {:.1})",
        cold_wire.bytes,
        warm_wire.bytes,
        cold_wire.bytes as f64 / warm_wire.bytes.max(1) as f64,
    );
    // ≥3× less simulated network time.
    assert!(
        cold_time >= 3 * warm_time,
        "virtual time: cold {cold_time:?} vs warm {warm_time:?}",
    );
    // The warm run was served by the caches: every workflow task but
    // the stateful viewer came from the memo cache.
    assert_eq!(warm.report.memo_hits(), warm.report.runs.len() - 1);
}

/// The data plane is invisible to results: with it enabled the case
/// study produces exactly the artifacts of a plain enactment, and the
/// monitor surfaces the reference traffic.
#[test]
fn data_plane_is_transparent_to_case_study_outputs() {
    let plain = Toolkit::new().unwrap();
    let referenced = Toolkit::new().unwrap();
    referenced.enable_data_plane();

    let a = run_case_study_on(&plain).unwrap();
    // Two runs so the second benefits from warm host/client stores even
    // without memoisation.
    let _ = run_case_study_on(&referenced).unwrap();
    let b = run_case_study_on(&referenced).unwrap();

    assert_eq!(a.model_text, b.model_text);
    assert_eq!(a.analysis, b.analysis);
    assert_eq!(a.tree_svg, b.tree_svg);
    assert_eq!(a.summary_table, b.summary_table);

    let wire = referenced.wire_stats();
    assert!(wire.ref_substitutions > 0, "no payload travelled by handle");
    assert!(wire.bytes_saved > 0);
    // The savings surface through the monitor log too.
    let summary = referenced.network().monitor().summary(None);
    assert!(summary.ref_hits > 0);
    assert!(summary.bytes_saved > 0);
    // Plain toolkit never substitutes.
    assert_eq!(plain.wire_stats().ref_substitutions, 0);
}

/// Attachment-store counters stay coherent under real traffic.
#[test]
fn store_counters_obey_invariants_under_case_study_traffic() {
    let toolkit = Toolkit::new().unwrap();
    toolkit.enable_data_plane();
    for _ in 0..3 {
        run_case_study_on(&toolkit).unwrap();
    }
    let host_stats = toolkit
        .container(toolkit.primary_host())
        .unwrap()
        .attachments()
        .stats();
    assert_eq!(
        host_stats.hits + host_stats.misses,
        host_stats.lookups,
        "host store: {host_stats:?}"
    );
    let client_stats = toolkit.network().client_store().unwrap().stats();
    assert_eq!(
        client_stats.hits + client_stats.misses,
        client_stats.lookups,
        "client store: {client_stats:?}"
    );
    assert!(host_stats.lookups > 0 || client_stats.lookups > 0);
}

mod random_workflows {
    use super::*;
    use dm_workflow::graph::{TaskGraph, Token};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::OnceLock;

    const PIPELINE_OPS: [&str; 3] = [
        "Preprocess.normalize",
        "Preprocess.standardize",
        "Preprocess.replaceMissing",
    ];

    fn plain() -> &'static Toolkit {
        static TK: OnceLock<Toolkit> = OnceLock::new();
        TK.get_or_init(|| Toolkit::new().unwrap())
    }

    fn referenced() -> &'static Toolkit {
        static TK: OnceLock<Toolkit> = OnceLock::new();
        TK.get_or_init(|| {
            let tk = Toolkit::new().unwrap();
            tk.enable_data_plane();
            tk
        })
    }

    /// CSV→ARFF conversion followed by a random preprocessing pipeline,
    /// enacted through imported Web Service tools.
    fn enact(toolkit: &Toolkit, csv: &str, ops: &[usize]) -> String {
        let toolbox = toolkit.toolbox();
        let mut g = TaskGraph::new();
        let convert = g.add_task(toolbox.find("DataConversion.csvToArff").unwrap());
        let mut tail = (convert, 0);
        for &op in ops {
            let task = g.add_task(toolbox.find(PIPELINE_OPS[op]).unwrap());
            g.connect(tail.0, tail.1, task, 0).unwrap();
            tail = (task, 0);
        }
        let mut bindings = HashMap::new();
        bindings.insert((convert, 0), Token::Text(csv.to_string()));
        let report = Executor::serial().run(&g, &bindings).unwrap();
        report
            .output(tail.0, tail.1)
            .and_then(|t| t.as_text().ok())
            .expect("pipeline output")
            .to_string()
    }

    fn csv_strategy() -> impl Strategy<Value = String> {
        // 3 numeric columns, enough rows that larger cases cross the
        // 1 KiB pass-by-reference threshold.
        (proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 5..120)).prop_map(|rows| {
            let mut csv = String::from("alpha,beta,gamma\n");
            for (a, b, c) in rows {
                csv.push_str(&format!("{a},{b},{c}\n"));
            }
            csv
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Data-plane enactment is byte-identical to the plain path for
        /// random datasets and random preprocessing pipelines, on both
        /// cold and warm runs, and the cache counters stay coherent.
        #[test]
        fn data_plane_enactment_is_byte_identical(
            csv in csv_strategy(),
            ops in proptest::collection::vec(0usize..PIPELINE_OPS.len(), 0..4),
        ) {
            let baseline = enact(plain(), &csv, &ops);
            let cold = enact(referenced(), &csv, &ops);
            let warm = enact(referenced(), &csv, &ops);
            prop_assert_eq!(&baseline, &cold);
            prop_assert_eq!(&baseline, &warm);

            let host = referenced()
                .container(referenced().primary_host())
                .unwrap()
                .attachments()
                .stats();
            prop_assert_eq!(host.hits + host.misses, host.lookups);
            let client = referenced().network().client_store().unwrap().stats();
            prop_assert_eq!(client.hits + client.misses, client.lookups);
        }
    }
}

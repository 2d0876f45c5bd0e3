//! Extension coverage: the paper-mentioned capabilities beyond the core
//! case study — relational data access (§5.4 future work), session
//! management (§5.4), preprocessing, the signal-processing toolbox
//! (§2), workflow iteration (§3.1), and incremental/streaming learning.

#![forbid(unsafe_code)]

use dm_wsrf::soap::SoapValue;
use faehim::Toolkit;

#[test]
fn relational_query_feeds_classifier_over_the_wire() {
    let toolkit = Toolkit::new().unwrap();
    let net = toolkit.network();
    let host = toolkit.primary_host().to_string();
    let arff = net
        .invoke(
            &host,
            "DataAccess",
            "query",
            vec![
                ("resource".into(), SoapValue::Text("breast_cancer".into())),
                ("select".into(), SoapValue::Text(String::new())),
                ("where".into(), SoapValue::Text("node-caps=no".into())),
                ("limit".into(), SoapValue::Int(i64::MAX)),
            ],
        )
        .unwrap();
    let ds = dm_data::arff::parse_arff(arff.as_text().unwrap()).unwrap();
    assert_eq!(ds.num_instances(), 222); // pinned contingency margin
    let model = toolkit
        .classifier_client()
        .classify_instance(arff.as_text().unwrap(), "NaiveBayes", "", "Class")
        .unwrap();
    assert!(model.contains("Naive Bayes"));
}

#[test]
fn session_state_survives_between_calls() {
    let toolkit = Toolkit::new().unwrap();
    let net = toolkit.network();
    let host = toolkit.primary_host().to_string();
    let id = net
        .invoke(&host, "Session", "createSession", vec![])
        .unwrap()
        .as_text()
        .unwrap()
        .to_string();
    net.invoke(
        &host,
        "Session",
        "putAttribute",
        vec![
            ("sessionId".into(), SoapValue::Text(id.clone())),
            ("key".into(), SoapValue::Text("classifier".into())),
            ("value".into(), SoapValue::Text("J48".into())),
        ],
    )
    .unwrap();
    let got = net
        .invoke(
            &host,
            "Session",
            "getAttribute",
            vec![
                ("sessionId".into(), SoapValue::Text(id.clone())),
                ("key".into(), SoapValue::Text("classifier".into())),
            ],
        )
        .unwrap();
    assert_eq!(got, SoapValue::Text("J48".into()));
    net.invoke(
        &host,
        "Session",
        "closeSession",
        vec![("sessionId".into(), SoapValue::Text(id))],
    )
    .unwrap();
}

#[test]
fn preprocess_normalize_over_the_wire() {
    let toolkit = Toolkit::new().unwrap();
    let blobs = dm_data::corpus::gaussian_blobs(
        &[
            dm_data::corpus::BlobSpec {
                center: vec![100.0],
                stddev: 5.0,
                count: 20,
            },
            dm_data::corpus::BlobSpec {
                center: vec![900.0],
                stddev: 5.0,
                count: 20,
            },
        ],
        8,
    );
    let out = toolkit
        .network()
        .invoke(
            toolkit.primary_host(),
            "Preprocess",
            "normalize",
            vec![(
                "dataset".into(),
                SoapValue::Text(dm_data::arff::write_arff(&blobs)),
            )],
        )
        .unwrap();
    let ds = dm_data::arff::parse_arff(out.as_text().unwrap()).unwrap();
    for r in 0..ds.num_instances() {
        let v = ds.value(r, 0);
        assert!((0.0..=1.0).contains(&v), "value {v} outside [0,1]");
    }
}

#[test]
fn signal_toolbox_registered_and_composable() {
    let toolkit = Toolkit::new().unwrap();
    let toolbox = toolkit.toolbox();
    assert_eq!(toolbox.tools_in("SignalProcessing").len(), 5);
    // FFT output feeds nothing type-incompatible: list → list.
    let mut g = dm_workflow::graph::TaskGraph::new();
    let gen = g.add_task(std::sync::Arc::new(faehim::signal_tools::SignalGen::sine(
        60.0, 1000.0, 256,
    )));
    let fft = g.add_task(toolbox.find("FFT").unwrap());
    g.connect(gen, 0, fft, 0).unwrap();
    let report = dm_workflow::engine::Executor::serial()
        .run(&g, &std::collections::HashMap::new())
        .unwrap();
    match report.output(fft, 0).unwrap() {
        dm_workflow::graph::Token::List(items) => assert_eq!(items.len(), 512),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn iteration_driver_refines_a_model_parameter() {
    // §3.1's loop: keep coarsening J48's -M until the tree is small
    // enough — the driver plays the interactive user.
    use dm_workflow::graph::{PortSpec, Token, Tool};
    use dm_workflow::iterate::{iterate, Feedback, LoopDecision};
    use std::sync::Arc;

    struct TrainWithM;

    impl Tool for TrainWithM {
        fn name(&self) -> &str {
            "TrainWithM"
        }

        fn input_ports(&self) -> Vec<PortSpec> {
            vec![PortSpec::new("m", "long")]
        }

        fn output_ports(&self) -> Vec<PortSpec> {
            vec![
                PortSpec::new("nextM", "long"),
                PortSpec::new("size", "long"),
            ]
        }

        fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
            use dm_algorithms::options::Configurable;
            let m = match inputs[0] {
                Token::Int(m) => m,
                _ => return Err("expected m".into()),
            };
            let ds = dm_data::corpus::breast_cancer();
            let mut j48 = dm_algorithms::classifiers::J48::new();
            j48.set_option("-M", &m.to_string())
                .map_err(|e| e.to_string())?;
            use dm_algorithms::classifiers::Classifier;
            j48.train(&ds).map_err(|e| e.to_string())?;
            Ok(vec![
                Token::Int(m * 2),
                Token::Int(j48.tree_size().unwrap_or(0) as i64),
            ])
        }
    }

    let mut g = dm_workflow::graph::TaskGraph::new();
    let t = g.add_task(Arc::new(TrainWithM));
    let mut bindings = std::collections::HashMap::new();
    bindings.insert((t, 0), Token::Int(2));
    let feedback = [Feedback {
        from_task: t,
        from_port: 0,
        to_task: t,
        to_port: 0,
    }];
    let result = iterate(
        &dm_workflow::engine::Executor::serial(),
        &g,
        &bindings,
        &feedback,
        10,
        |_, report| match report.output(t, 1) {
            Some(&Token::Int(size)) if size <= 3 => LoopDecision::Stop,
            _ => LoopDecision::Continue,
        },
    )
    .unwrap();
    assert!(
        result.iterations >= 2,
        "coarsening should take several steps"
    );
    match result.final_report.output(t, 1) {
        Some(&Token::Int(size)) => assert!(size <= 3),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn incremental_naive_bayes_matches_batch_via_stream() {
    use dm_algorithms::classifiers::{Classifier, NaiveBayes};
    let ds = dm_data::corpus::breast_cancer();
    let mut batch = NaiveBayes::new();
    batch.train(&ds).unwrap();

    let (tx, rx) = dm_data::stream::record_stream(&ds, 4);
    let src = ds.clone();
    let producer = std::thread::spawn(move || tx.send_dataset(&src, 32).unwrap());
    // Seed from the first batch, stream the rest.
    let mut streaming: Option<NaiveBayes> = None;
    let header = ds.header_clone();
    while let Some(chunk) = rx.recv() {
        match streaming.as_mut() {
            None => {
                let mut seed = header.clone();
                for i in 0..chunk.num_rows() {
                    seed.push_row(chunk.row_values(i)).unwrap();
                }
                let mut nb = NaiveBayes::new();
                nb.train(&seed).unwrap();
                streaming = Some(nb);
            }
            Some(nb) => nb.update_batch(&chunk).unwrap(),
        }
    }
    producer.join().unwrap();
    let streaming = streaming.unwrap();
    assert_eq!(streaming.observed_weight(), 286.0);
    for r in 0..ds.num_instances() {
        assert_eq!(
            batch.predict(&ds, r).unwrap(),
            streaming.predict(&ds, r).unwrap()
        );
    }
}

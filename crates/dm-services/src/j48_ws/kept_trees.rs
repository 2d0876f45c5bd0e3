//! The kept trees against fresh services. What `classify` and
//! `classifyGraph` return on a tree's first, second and third request
//! equals what a fresh service returns, under both lifecycles; a hit
//! leaves the instance as training would; options that stick key the
//! tree they grow; keys that differ in one field stay apart; and a
//! fault keeps nothing, leaves the instance as it was and moves the
//! lifecycle counters as it did before the service kept trees.

use super::J48Service;
use dm_algorithms::state::Stateful;
use dm_data::arff::write_arff;
use dm_data::corpus::{breast_cancer_arff, gaussian_blobs, nominal_classification, BlobSpec};
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::dataplane::CacheStats;
use dm_wsrf::lifecycle::LifecyclePolicy;
use dm_wsrf::soap::SoapValue;

const POLICIES: [LifecyclePolicy; 2] = [
    LifecyclePolicy::SerializePerCall,
    LifecyclePolicy::InMemoryHarness,
];

fn args(dataset: &str, attribute: &str, options: &str) -> Vec<(String, SoapValue)> {
    vec![
        ("dataset".to_string(), SoapValue::Text(dataset.to_string())),
        (
            "attribute".to_string(),
            SoapValue::Text(attribute.to_string()),
        ),
        ("options".to_string(), SoapValue::Text(options.to_string())),
    ]
}

/// An ARFF training set and its class attribute.
struct Data {
    arff: String,
    class: &'static str,
}

/// Three numeric blobs, classed by `cluster`.
fn blobs() -> String {
    let blob = |center: Vec<f64>| BlobSpec {
        center,
        stddev: 0.9,
        count: 40,
    };
    write_arff(&gaussian_blobs(
        &[
            blob(vec![0.0, 0.0, 0.0]),
            blob(vec![3.0, 3.0, 0.0]),
            blob(vec![0.0, 3.0, 3.0]),
        ],
        5,
    ))
}

/// Numeric and nominal attributes with missing cells, and a class that
/// is a noisy function of both kinds.
fn mixed() -> String {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut below = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let mut text = String::from(
        "@relation mixed\n@attribute x0 numeric\n@attribute n1 {a,b,c}\n\
         @attribute x2 numeric\n@attribute class {k0,k1}\n@data\n",
    );
    for _ in 0..150 {
        let x0 = below(1000) as f64 / 10.0;
        let n1 = below(3) as usize;
        let x2 = below(500) as f64 / 7.0;
        let class = (x0 > 50.0) ^ (n1 == 2) ^ (below(10) == 0);
        let mut cells = vec![
            x0.to_string(),
            ["a", "b", "c"][n1].to_string(),
            x2.to_string(),
        ];
        for cell in &mut cells {
            if below(20) == 0 {
                *cell = "?".to_string();
            }
        }
        text.push_str(&format!("{},k{}\n", cells.join(","), class as u8));
    }
    text
}

/// Breast-cancer and generated nominal, numeric and mixed datasets.
fn datasets() -> Vec<Data> {
    let nominal = nominal_classification(240, 5, 3, 2, 0.1, 7);
    vec![
        Data {
            arff: breast_cancer_arff(),
            class: "Class",
        },
        Data {
            arff: write_arff(&nominal),
            class: "class",
        },
        Data {
            arff: blobs(),
            class: "cluster",
        },
        Data {
            arff: mixed(),
            class: "class",
        },
    ]
}

/// What a service that has answered nothing returns for one call.
fn fresh(
    policy: LifecyclePolicy,
    operation: &str,
    args: &[(String, SoapValue)],
) -> Result<SoapValue, ServiceFault> {
    J48Service::with_policy(policy)
        .unwrap()
        .invoke(operation, args)
}

/// The managed instance's encoded state.
fn state(s: &J48Service) -> Vec<u8> {
    s.with_model(|model| Ok(model.encode_state())).unwrap()
}

/// The managed instance's labels for `data`'s own rows.
fn predictions(s: &J48Service, data: &Data) -> SoapValue {
    s.invoke("predict", &args(&data.arff, data.class, ""))
        .unwrap()
}

fn trees(s: &J48Service) -> CacheStats {
    s.trees.stats()
}

#[test]
fn first_second_and_third_requests_equal_a_fresh_services_answer() {
    for policy in POLICIES {
        for data in datasets() {
            let a = args(&data.arff, data.class, "");
            for operation in ["classify", "classifyGraph"] {
                let expected = fresh(policy, operation, &a).unwrap();
                let s = J48Service::with_policy(policy).unwrap();
                for call in 1..=3 {
                    assert_eq!(
                        s.invoke(operation, &a).unwrap(),
                        expected,
                        "{policy:?} {operation} call {call} on {}",
                        data.class
                    );
                }
                let t = trees(&s);
                assert_eq!((t.lookups, t.hits, t.insertions, t.entries), (3, 2, 1, 1));
            }
            // The text and the SVG are one kept tree's.
            let s = J48Service::with_policy(policy).unwrap();
            for operation in ["classifyGraph", "classify", "classifyGraph"] {
                let expected = fresh(policy, operation, &a).unwrap();
                assert_eq!(s.invoke(operation, &a).unwrap(), expected);
            }
            assert_eq!((trees(&s).hits, trees(&s).entries), (2, 1));
        }
    }
}

#[test]
fn a_hit_leaves_the_instance_as_a_fresh_training_does() {
    let all = datasets();
    for policy in POLICIES {
        for (i, data) in all.iter().enumerate() {
            let other = &all[(i + 1) % all.len()];
            let a = args(&data.arff, data.class, "");
            let s = J48Service::with_policy(policy).unwrap();
            s.invoke("classify", &a).unwrap();
            s.invoke("classify", &args(&other.arff, other.class, ""))
                .unwrap();
            // A hit while the instance holds the other dataset's tree.
            s.invoke("classifyGraph", &a).unwrap();
            assert_eq!(trees(&s).hits, 1);
            let f = J48Service::with_policy(policy).unwrap();
            f.invoke("classify", &a).unwrap();
            assert_eq!(state(&s), state(&f), "{policy:?} on {}", data.class);
            assert_eq!(predictions(&s, data), predictions(&f, data));
        }
    }
}

#[test]
fn options_stick_and_key_the_tree_they_grow() {
    let bc = breast_cancer_arff();
    let default = args(&bc, "Class", "");
    let cautious = args(&bc, "Class", "-C 0.1");
    for policy in POLICIES {
        let s = J48Service::with_policy(policy).unwrap();
        let default_tree = s.invoke("classify", &default).unwrap();
        let cautious_tree = s.invoke("classify", &cautious).unwrap();
        assert_ne!(cautious_tree, default_tree, "C = 0.1 grows another tree");
        assert_eq!(cautious_tree, fresh(policy, "classify", &cautious).unwrap());
        // The empty options keep C = 0.1: not the default tree's key.
        assert_eq!(s.invoke("classify", &default).unwrap(), cautious_tree);
        assert_eq!(
            s.invoke("classifyGraph", &default).unwrap(),
            fresh(policy, "classifyGraph", &cautious).unwrap()
        );
        let t = trees(&s);
        assert_eq!((t.misses, t.hits, t.entries), (2, 2, 2));
        let f = J48Service::with_policy(policy).unwrap();
        f.invoke("classify", &cautious).unwrap();
        assert_eq!(state(&s), state(&f));
    }
}

#[test]
fn keys_that_differ_in_one_field_stay_apart() {
    let bc = breast_cancer_arff();
    let same_data = format!("% the same data in another text\n{bc}");
    let calls = [
        args(&bc, "Class", "-M 2"),
        args(&bc, "node-caps", "-M 2"),
        args(&same_data, "Class", "-M 2"),
        args(&bc, "Class", "-M 3"),
    ];
    for policy in POLICIES {
        let s = J48Service::with_policy(policy).unwrap();
        let first: Vec<SoapValue> = calls
            .iter()
            .map(|a| s.invoke("classify", a).unwrap())
            .collect();
        let t = trees(&s);
        assert_eq!((t.misses, t.hits, t.entries), (4, 0, 4));
        for (a, answer) in calls.iter().zip(&first) {
            assert_eq!(*answer, fresh(policy, "classify", a).unwrap());
            assert_eq!(s.invoke("classify", a).unwrap(), *answer);
        }
        assert_eq!((trees(&s).hits, trees(&s).entries), (4, 4));
    }
}

#[test]
fn faults_keep_nothing_and_the_lifecycle_counts_as_before() {
    let bc = breast_cancer_arff();
    let blobs = blobs();
    let sequence = [
        ("classify", args(&bc, "Class", "")),
        ("classify", args(&bc, "Class", "-M 40 -C 7")),
        ("classify", args("garbage", "Class", "")),
        ("classify", args(&bc, "nope", "")),
        ("classify", args(&blobs, "x0", "-M 40")),
        ("classifyGraph", args(&bc, "Class", "")),
        ("predict", args(&bc, "Class", "")),
        ("classify", args(&bc, "Class", "")[1..].to_vec()),
        ("classify", args(&bc, "Class", "")),
    ];
    // `getLifecycleStats` after the sequence, as the service reported
    // it before it kept trees: the two calls that fault on their
    // dataset, the one on its attribute and the one that lacks its
    // dataset never reach the lifecycle; the option and training
    // faults do.
    let counts = [(6, 5, 0), (0, 0, 5)];
    for (policy, counts) in POLICIES.into_iter().zip(counts) {
        let s = J48Service::with_policy(policy).unwrap();
        for (operation, a) in &sequence {
            let answer = s.invoke(operation, a);
            if *operation != "predict" {
                assert_eq!(answer, fresh(policy, operation, a), "{policy:?} {a:?}");
            }
            assert_eq!(trees(&s).insertions, 1, "a fault kept a tree");
        }
        assert_eq!(s.lifecycle_stats(), counts, "{policy:?}");
        let t = trees(&s);
        assert_eq!((t.hits, t.entries), (2, 1));
    }
}

#[test]
fn a_faulted_call_leaves_the_instance_as_it_was() {
    let bc = breast_cancer_arff();
    let blobs = blobs();
    let plain = args(&bc, "Class", "");
    let pruned_hard = args(&bc, "Class", "-M 5");
    // A bad option after a good one, and a training fault after the
    // options were applied.
    let faulty = [
        args(&bc, "Class", "-M 40 -C 7"),
        args(&blobs, "x0", "-M 40"),
    ];
    for policy in POLICIES {
        for bad in &faulty {
            let s = J48Service::with_policy(policy).unwrap();
            s.invoke("classify", bad).unwrap_err();
            assert_eq!(
                s.invoke("classify", &plain).unwrap(),
                fresh(policy, "classify", &plain).unwrap(),
                "{policy:?} {bad:?}"
            );
            s.invoke("classify", &pruned_hard).unwrap();
            s.invoke("classifyGraph", bad).unwrap_err();
            let f = J48Service::with_policy(policy).unwrap();
            f.invoke("classify", &pruned_hard).unwrap();
            assert_eq!(state(&s), state(&f), "{policy:?} {bad:?}");
            let data = Data {
                arff: bc.clone(),
                class: "Class",
            };
            assert_eq!(predictions(&s, &data), predictions(&f, &data));
            assert_eq!(trees(&s).insertions, 2);
        }
    }
}

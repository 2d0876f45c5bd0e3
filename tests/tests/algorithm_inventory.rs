//! E7 — the algorithm pool behind the services: the registry contract
//! (`getClassifiers`-style enumeration), the "20 different approaches"
//! to attribute selection, and cross-family sanity over shared data.

#![forbid(unsafe_code)]

use dm_algorithms::registry;

#[test]
fn inventory_scale() {
    assert!(registry::classifier_names().len() >= 13);
    assert!(registry::clusterer_names().len() >= 5);
    assert!(registry::associator_names().len() >= 2);
    assert_eq!(dm_algorithms::attrsel::approaches().len(), 20);
    assert_eq!(registry::inventory_size(), 42);
}

#[test]
fn every_classifier_handles_breast_cancer() {
    let ds = dm_data::corpus::breast_cancer();
    for name in registry::classifier_names() {
        let mut c = registry::make_classifier(name).unwrap();
        if name == "MultilayerPerceptron" {
            // Keep the slowest trainer quick in CI.
            c.set_option("-N", "20").unwrap();
        }
        c.train(&ds).unwrap_or_else(|e| panic!("{name}: {e}"));
        let d = c.distribution(&ds, 0).unwrap();
        assert_eq!(d.len(), 2, "{name}");
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-6, "{name}");
        // State must round-trip for the §4.5 lifecycle.
        let mut restored = registry::make_classifier(name).unwrap();
        restored.decode_state(&c.encode_state()).unwrap();
        assert_eq!(
            c.predict(&ds, 0).unwrap(),
            restored.predict(&ds, 0).unwrap(),
            "{name} state roundtrip"
        );
    }
}

#[test]
fn every_clusterer_handles_blobs() {
    let ds = dm_data::corpus::gaussian_blobs(
        &[
            dm_data::corpus::BlobSpec {
                center: vec![0.0, 0.0],
                stddev: 0.3,
                count: 40,
            },
            dm_data::corpus::BlobSpec {
                center: vec![9.0, 9.0],
                stddev: 0.3,
                count: 40,
            },
        ],
        17,
    );
    for name in registry::clusterer_names() {
        let mut c = registry::make_clusterer(name).unwrap();
        if name == "Cobweb" {
            c.set_option("-A", "0.3").unwrap();
        }
        c.build(&ds).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Points from opposite blobs must not co-cluster for the flat
        // k=2 clusterers; Cobweb's leaf count just needs to be >= 2.
        assert!(c.num_clusters().unwrap() >= 2, "{name}");
        let a = c.cluster_instance(&ds, 0).unwrap();
        let b = c.cluster_instance(&ds, 79).unwrap();
        assert_ne!(a, b, "{name} failed to separate the blobs");
    }
}

#[test]
fn associators_agree() {
    let ds = dm_data::corpus::market_baskets(8, 250, &[(&[1, 2], 0.4)], 0.02, 5);
    let mut apriori = registry::make_associator("Apriori").unwrap();
    let mut fp = registry::make_associator("FPGrowth").unwrap();
    for m in [&mut apriori, &mut fp] {
        m.set_options(&[("-Z", "true"), ("-M", "0.25"), ("-C", "0.6"), ("-N", "30")])
            .unwrap();
    }
    let a = apriori.mine(&ds).unwrap();
    let b = fp.mine(&ds).unwrap();
    assert_eq!(a, b, "Apriori and FP-Growth disagree");
    assert!(!a.is_empty());
}

#[test]
#[ignore = "2^9 wrapped cross-validations; run with --ignored for the full sweep"]
fn wrapper_exhaustive_full_sweep() {
    let ds = dm_data::corpus::breast_cancer();
    let picked = dm_algorithms::attrsel::run_approach("Wrapper+Exhaustive", &ds, 3).unwrap();
    assert!(!picked.is_empty());
}

#[test]
fn attribute_selection_runs_all_approaches() {
    let ds = dm_data::corpus::breast_cancer();
    for approach in dm_algorithms::attrsel::approaches() {
        if approach.name == "Wrapper+Exhaustive" {
            continue; // 2^9 cross-validations; covered by the bench tier
        }
        let picked = dm_algorithms::attrsel::run_approach(&approach.name, &ds, 3)
            .unwrap_or_else(|e| panic!("{}: {e}", approach.name));
        assert!(!picked.is_empty(), "{}", approach.name);
    }
}

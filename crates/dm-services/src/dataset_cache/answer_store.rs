//! The answer store against fresh services. What a host returns for a
//! routed operation on a dataset's first, second and third use equals
//! what a service with a private cache computes; answers whose keys
//! differ in one field stay apart; a fault, a never-seen dataset and an
//! answer heavier than the budget leave nothing behind; and the bytes
//! held never exceed the budget.

use super::{answer_key, content_hash, held_bytes, DatasetCache, ANSWER_BUDGET};
use crate::attrsel_ws::AttributeSelectionService;
use crate::clusterer_ws::{ClustererService, CobwebService};
use crate::convert_ws::DataConversionService;
use crate::deploy::deploy_sharing;
use crate::preprocess_ws::PreprocessService;
use dm_data::arff::write_arff;
use dm_data::corpus::breast_cancer_arff;
use dm_data::{Attribute, Dataset, Value};
use dm_wsrf::container::{ServiceContainer, WebService};
use dm_wsrf::dataplane::CacheStats;
use dm_wsrf::soap::{SoapCall, SoapResponse, SoapValue};

/// A call's answer: its value, or its fault's code and message.
type Answer = Result<SoapValue, (String, String)>;

/// One host with the suite deployed over a cache the test can read.
struct Host {
    container: ServiceContainer,
    cache: DatasetCache,
}

impl Host {
    fn new() -> Host {
        let cache = DatasetCache::default();
        let container = ServiceContainer::new("answers");
        deploy_sharing(&container, cache.clone()).unwrap();
        Host { container, cache }
    }

    fn call(&self, call: &Call) -> Answer {
        let mut soap = SoapCall::new(call.service, call.operation);
        for (name, value) in &call.args {
            soap = soap.arg(name.clone(), value.clone());
        }
        match self.container.dispatch(&soap) {
            SoapResponse::Value(v) => Ok(v),
            SoapResponse::Fault { code, message } => Err((code, message)),
        }
    }

    fn answers(&self) -> CacheStats {
        self.cache.answers.stats()
    }
}

/// A call to one of the routed operations.
#[derive(Debug)]
struct Call {
    service: &'static str,
    operation: &'static str,
    args: Vec<(String, SoapValue)>,
}

fn call(
    service: &'static str,
    operation: &'static str,
    dataset: &str,
    args: &[(&str, SoapValue)],
) -> Call {
    let mut all = vec![("dataset".to_string(), text(dataset))];
    all.extend(args.iter().map(|(n, v)| (n.to_string(), v.clone())));
    Call {
        service,
        operation,
        args: all,
    }
}

fn text(s: &str) -> SoapValue {
    SoapValue::Text(s.to_string())
}

fn cluster(dataset: &str, clusterer: &str, options: &str) -> Call {
    let args = [("clusterer", text(clusterer)), ("options", text(options))];
    call("Clusterer", "cluster", dataset, &args)
}

fn cobweb(dataset: &str, options: &str) -> Call {
    call("Cobweb", "cluster", dataset, &[("options", text(options))])
}

fn select(dataset: &str, approach: &str, attribute: &str) -> Call {
    let args = [("approach", text(approach)), ("attribute", text(attribute))];
    call("AttributeSelection", "select", dataset, &args)
}

fn genetic(dataset: &str, attribute: &str) -> Call {
    let args = [("attribute", text(attribute))];
    call("AttributeSelection", "geneticSearch", dataset, &args)
}

fn normalize(dataset: &str) -> Call {
    call("Preprocess", "normalize", dataset, &[])
}

fn discretize(dataset: &str, args: &[(&str, SoapValue)]) -> Call {
    call("Preprocess", "discretize", dataset, args)
}

fn summary(dataset: &str) -> Call {
    call("DataConversion", "summary", dataset, &[])
}

/// The answer of a service built on its own, with a private cache.
fn fresh(call: &Call) -> Answer {
    let service: Box<dyn WebService> = match call.service {
        "Clusterer" => Box::new(ClustererService::new()),
        "Cobweb" => Box::new(CobwebService::new()),
        "AttributeSelection" => Box::new(AttributeSelectionService::new()),
        "Preprocess" => Box::new(PreprocessService::new()),
        "DataConversion" => Box::new(DataConversionService::new()),
        other => panic!("{other} has no routed operation"),
    };
    service
        .invoke(call.operation, &call.args)
        .map_err(|f| (f.code.to_string(), f.message))
}

/// A seeded stream of 64-bit words (SplitMix64).
struct Words(u64);

impl Words {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Nominal,
    Numeric,
    Mixed,
}

/// A seeded dataset of `shape` as ARFF: `rows` rows (a seeded count
/// from 0 to 60 when `None`), numeric attributes `x<i>` and nominal
/// ones `n<i>`, cells missing at up to 20 %, and a nominal `class`
/// last. A mixed dataset starts `x0`, `n1`.
fn generated(shape: Shape, seed: u64, rows: Option<usize>) -> String {
    let mut w = Words(seed.wrapping_mul(31).wrapping_add(shape as u64));
    let rows = rows.unwrap_or_else(|| [0, 1, 5, 24, 60][w.below(5)]);
    let missing = [0, 5, 20][w.below(3)];
    let width = 2 + w.below(3);
    let mut attributes: Vec<Attribute> = (0..width)
        .map(|a| {
            let numeric = match shape {
                Shape::Nominal => false,
                Shape::Numeric => true,
                Shape::Mixed => a % 2 == 0,
            };
            if numeric {
                Attribute::numeric(format!("x{a}"))
            } else {
                let arity = 2 + w.below(4);
                Attribute::nominal(format!("n{a}"), (0..arity).map(|l| format!("v{l}")))
            }
        })
        .collect();
    attributes.push(Attribute::nominal("class", ["k0", "k1", "k2"]));
    let mut ds = Dataset::new(format!("generated-{seed}"), attributes.clone());
    for _ in 0..rows {
        let row = attributes
            .iter()
            .map(|a| {
                if w.below(100) < missing {
                    Value::MISSING
                } else if a.is_numeric() {
                    w.below(100_000) as f64 / 7.0 - 5_000.0
                } else {
                    Value::from_index(w.below(a.num_labels()))
                }
            })
            .collect();
        ds.push_row(row).unwrap();
    }
    write_arff(&ds)
}

/// Every routed operation at several argument sets; Cobweb's only
/// when `cobweb_too` is set (on the 286-row corpus it takes seconds in a
/// debug build).
fn routed_calls(dataset: &str, cobweb_too: bool) -> Vec<Call> {
    let mut calls = vec![
        cluster(dataset, "SimpleKMeans", ""),
        cluster(dataset, "SimpleKMeans", "-N 2 -S 3"),
        select(dataset, "InfoGain+Ranker", "class"),
        select(dataset, "CfsSubset+BestFirst", "class"),
        genetic(dataset, "class"),
        normalize(dataset),
        discretize(
            dataset,
            &[("bins", SoapValue::Int(5)), ("class", text("class"))],
        ),
        discretize(dataset, &[("bins", SoapValue::Int(6))]),
        discretize(dataset, &[("class", text(""))]),
        summary(dataset),
    ];
    if cobweb_too {
        calls.push(cobweb(dataset, "-A 0.5"));
        calls.push(call("Cobweb", "cluster", dataset, &[]));
    }
    calls
}

#[test]
fn first_second_and_third_calls_equal_a_fresh_service() {
    let host = Host::new();
    let mut datasets = vec![(breast_cancer_arff(), false)];
    for seed in 0..4 {
        for shape in [Shape::Nominal, Shape::Numeric, Shape::Mixed] {
            datasets.push((generated(shape, seed, None), true));
        }
    }
    let (mut kept, mut faults) = (0, 0);
    for (dataset, cobweb_too) in &datasets {
        for c in routed_calls(dataset, *cobweb_too) {
            let expected = fresh(&c);
            let before = host.answers();
            for n in 1..=3 {
                assert_eq!(
                    host.call(&c),
                    expected,
                    "{}.{} use {n}: {:?}",
                    c.service,
                    c.operation,
                    &c.args[1..]
                );
            }
            let after = host.answers();
            if expected.is_ok() {
                // The dataset is held by the second use at the latest,
                // so the third is answered from the store.
                assert!(after.hits > before.hits, "{}.{}", c.service, c.operation);
                kept += 1;
            } else {
                assert_eq!(after.insertions, before.insertions);
                faults += 1;
            }
        }
    }
    // Both sides were exercised.
    assert!(kept > 100 && faults > 0, "{kept} kept, {faults} faults");
}

#[test]
fn answers_whose_keys_differ_in_one_field_stay_apart() {
    let host = Host::new();
    let data = generated(Shape::Mixed, 11, Some(40));
    // Decoding the dataset once makes every answer below a kept one.
    let warm = call("DataConversion", "attributes", &data, &[]);
    assert!(host.call(&warm).is_ok());
    let int = SoapValue::Int;
    let groups = [
        // `bins` 5, 6 and absent (10).
        vec![
            discretize(&data, &[("bins", int(5))]),
            discretize(&data, &[("bins", int(6))]),
            discretize(&data, &[]),
        ],
        // A class set (a numeric one is not binned) or unset.
        vec![
            discretize(&data, &[("class", text("x0"))]),
            discretize(&data, &[]),
        ],
        vec![
            select(&data, "InfoGain+Ranker", "class"),
            select(&data, "CfsSubset+BestFirst", "class"),
        ],
        vec![
            select(&data, "InfoGain+Ranker", "class"),
            select(&data, "InfoGain+Ranker", "n1"),
        ],
        vec![
            cluster(&data, "SimpleKMeans", ""),
            cluster(&data, "Cobweb", ""),
            cluster(&data, "FarthestFirst", ""),
        ],
        vec![
            cluster(&data, "SimpleKMeans", "-N 2"),
            cluster(&data, "SimpleKMeans", "-N 3"),
        ],
        vec![cobweb(&data, "-A 0.5"), cobweb(&data, "-A 2")],
    ];
    for group in &groups {
        let answers: Vec<Answer> = group.iter().map(fresh).collect();
        // The variants answer differently, so a shared key would show.
        for (i, a) in answers.iter().enumerate() {
            for b in &answers[i + 1..] {
                assert_ne!(a, b, "{group:?}");
            }
        }
        for _ in 0..2 {
            for (c, expected) in group.iter().zip(&answers) {
                assert_eq!(&host.call(c), expected, "{:?}", &c.args[1..]);
            }
        }
    }
    assert!(host.answers().hits > 0);
}

#[test]
fn fields_are_length_prefixed() {
    let d = content_hash("d");
    assert_ne!(answer_key(d, &["ab", "c"]), answer_key(d, &["a", "bc"]));
    assert_ne!(answer_key(d, &["a"]), answer_key(d, &["a", ""]));
    assert_ne!(answer_key(d, &["a"]), answer_key(content_hash("e"), &["a"]));
    let cache = DatasetCache::default();
    let data = "@relation r\n@attribute a numeric\n@data\n1\n";
    cache.decode(data).unwrap();
    let first = cache
        .answer(data, &["ab", "c"], |_| Ok(text("first")))
        .unwrap();
    let second = cache
        .answer(data, &["a", "bc"], |_| Ok(text("second")))
        .unwrap();
    assert_eq!((first, second), (text("first"), text("second")));
    let kept = cache
        .answer(data, &["ab", "c"], |_| panic!("derived again"))
        .unwrap();
    assert_eq!(kept, text("first"));
}

#[test]
fn a_fault_keeps_nothing_and_repeats() {
    let host = Host::new();
    let data = generated(Shape::Mixed, 3, Some(24));
    let warm = call("DataConversion", "attributes", &data, &[]);
    assert!(host.call(&warm).is_ok());
    let faulting = [
        cluster(&data, "DBSCAN", ""),
        cluster(&data, "SimpleKMeans", "-N x"),
        cobweb(&data, "-A nope"),
        select(&data, "Bogus+Nope", "class"),
        select(&data, "InfoGain+Ranker", "nope"),
        genetic(&data, "nope"),
        discretize(&data, &[("class", text("nope"))]),
        normalize("@relation t\n@data\n"),
        summary("@relation t\n@attribute a {x}\n@data\ny\n"),
        cluster(&generated(Shape::Numeric, 5, Some(0)), "SimpleKMeans", ""),
    ];
    for c in &faulting {
        let expected = fresh(c);
        assert!(expected.is_err(), "{c:?} did not fault");
        for _ in 0..3 {
            assert_eq!(&host.call(c), &expected);
        }
    }
    let stats = host.answers();
    assert_eq!((stats.insertions, stats.entries, stats.bytes), (0, 0, 0));
}

#[test]
fn a_never_seen_dataset_keeps_no_answer_and_its_second_use_does() {
    let host = Host::new();
    let data = |seed: u64| generated(Shape::Mixed, 100 + seed, Some(24));
    let calls = [
        normalize(&data(0)),
        summary(&data(1)),
        cluster(&data(2), "SimpleKMeans", ""),
        cobweb(&data(3), ""),
        select(&data(4), "InfoGain+Ranker", "class"),
        genetic(&data(5), "class"),
        discretize(&data(6), &[("bins", SoapValue::Int(4))]),
    ];
    for (i, c) in calls.iter().enumerate() {
        let i = i as u64;
        let expected = fresh(c);
        assert!(expected.is_ok(), "{c:?}");
        assert_eq!(host.call(c), expected);
        assert_eq!(host.answers().insertions, i, "first use kept: {c:?}");
        assert_eq!(host.call(c), expected);
        assert_eq!(host.answers().insertions, i + 1, "second use kept none");
        assert_eq!(host.call(c), expected);
        assert_eq!(host.answers().hits, i + 1, "third use not from the store");
    }
}

#[test]
fn bytes_held_stay_within_the_budget() {
    let host = Host::new();
    for seed in 0..40 {
        let c = normalize(&generated(Shape::Numeric, 1_000 + seed, Some(300)));
        let expected = fresh(&c);
        for _ in 0..2 {
            assert_eq!(host.call(&c), expected);
            let stats = host.answers();
            assert!(stats.bytes <= ANSWER_BUDGET, "{stats:?}");
        }
    }
    let filled = host.answers();
    assert!(
        filled.evictions > 0,
        "the budget was never reached: {filled:?}"
    );

    // An answer heavier than the whole budget is returned, not kept.
    let c = normalize(&generated(Shape::Numeric, 7, Some(20_000)));
    let expected = fresh(&c);
    assert!(held_bytes(expected.as_ref().unwrap()) > ANSWER_BUDGET);
    for _ in 0..3 {
        assert_eq!(host.call(&c), expected);
    }
    let after = host.answers();
    assert_eq!(
        (
            after.insertions,
            after.entries,
            after.bytes,
            after.evictions
        ),
        (
            filled.insertions,
            filled.entries,
            filled.bytes,
            filled.evictions
        )
    );
}

//! The table evaluators' `contingency` as it stood before it read
//! columns: one `Dataset::value` per class cell and per attribute cell,
//! and a per-row kind test. Kept only as the oracle for the
//! differential tests below.

use super::*;
use crate::attrsel::Ranker;

fn numeric_range(data: &Dataset, attr: usize) -> Option<(f64, f64)> {
    if !data.attributes()[attr].is_numeric() {
        return None;
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for r in 0..data.num_instances() {
        let v = data.value(r, attr);
        if !Value::is_missing(v) {
            min = min.min(v);
            max = max.max(v);
        }
    }
    (min <= max).then_some((min, max))
}

fn bucket(data: &Dataset, row: usize, attr: usize, range: Option<(f64, f64)>) -> Option<usize> {
    let v = data.value(row, attr);
    if Value::is_missing(v) {
        return None;
    }
    if data.attributes()[attr].is_nominal() {
        return Some(Value::as_index(v));
    }
    let (min, max) = range?;
    if max <= min {
        return Some(0);
    }
    Some((((v - min) / (max - min) * NUM_BINS as f64) as usize).min(NUM_BINS - 1))
}

pub(super) fn contingency(data: &Dataset, attr: usize, ci: usize, k: usize) -> Vec<Vec<f64>> {
    let range = numeric_range(data, attr);
    let mut table = vec![vec![0.0; k]; arity(data, attr)];
    for r in 0..data.num_instances() {
        let cv = data.value(r, ci);
        if Value::is_missing(cv) {
            continue;
        }
        if let Some(b) = bucket(data, r, attr, range) {
            table[b][Value::as_index(cv)] += data.weight(r);
        }
    }
    table
}

mod tests {
    use super::*;
    use dm_data::corpus::{breast_cancer, irregular, nominal_classification};
    use dm_data::Attribute;

    /// Every table evaluator, with its score function.
    fn evaluators() -> [(&'static dyn AttributeEvaluator, Score); 6] {
        [
            (&InfoGainEval, InfoGainEval::SCORE),
            (&GainRatioEval, GainRatioEval::SCORE),
            (&ChiSquared, ChiSquared::SCORE),
            (&SymmetricalUncertainty, SymmetricalUncertainty::SCORE),
            (&CramersV, CramersV::SCORE),
            (&OneRAttrEval, OneRAttrEval::SCORE),
        ]
    }

    /// Compare every attribute's table, then every evaluator's scores
    /// and ranking, with what the oracle's tables give, bit for bit
    /// (`Debug` renders each `f64` exactly).
    fn assert_matches_oracle(data: &Dataset, what: &str) {
        let (ci, k) = class_setup(data).unwrap();
        let n = data.num_attributes();
        for a in 0..n {
            assert_eq!(
                format!("{:?}", super::super::contingency(data, a, ci, k)),
                format!("{:?}", contingency(data, a, ci, k)),
                "{what}, attribute {a}"
            );
        }
        for (evaluator, score) in evaluators() {
            let expected: Vec<f64> = (0..n)
                .map(|a| {
                    if a == ci || data.attributes()[a].is_string() {
                        0.0
                    } else {
                        score(&contingency(data, a, ci, k))
                    }
                })
                .collect();
            let got = evaluator.evaluate_all(data).unwrap();
            assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "{what}, {}",
                evaluator.name()
            );
            let mut ranking: Vec<usize> = (0..n)
                .filter(|&a| a != ci && !data.attributes()[a].is_string())
                .collect();
            ranking.sort_by(|&a, &b| expected[b].partial_cmp(&expected[a]).unwrap());
            assert_eq!(
                Ranker::new().rank(evaluator, data).unwrap(),
                ranking,
                "{what}, {} ranking",
                evaluator.name()
            );
        }
    }

    #[test]
    fn contingency_matches_reference_on_generated_datasets() {
        for seed in 0..300u64 {
            let mut data = irregular(seed);
            let last = data.num_attributes() - 1;
            // The class must be nominal: keep a nominal one the generator
            // chose, else take its last attribute.
            if !data.class_attribute().is_ok_and(Attribute::is_nominal) {
                data.set_class_index(Some(last)).unwrap();
            }
            assert_matches_oracle(&data, &format!("seed {seed}"));
        }
    }

    #[test]
    fn contingency_matches_reference_on_the_corpus() {
        for data in [
            breast_cancer(),
            nominal_classification(600, 10, 4, 3, 0.1, 5),
            crate::classifiers::test_support::weather_numeric(),
        ] {
            assert_matches_oracle(&data, data.relation());
        }
    }
}

//! AdaBoost.M1 (Freund & Schapire 1996): sequentially reweight the
//! training set toward the base learner's mistakes and combine members
//! by log-odds vote.

use super::{normalize, Classifier};
use crate::error::{AlgoError, Result};
use crate::options::{descriptor_for, Configurable, OptionDescriptor, OptionKind};
use crate::state::{StateReader, StateWriter, Stateful};
use dm_data::{Dataset, Value};

/// The AdaBoost.M1 meta classifier. Base learner is chosen by registry
/// name (`-W`, default `"DecisionStump"`) and must honour instance
/// weights (the count-based learners here do).
pub struct AdaBoostM1 {
    /// `-I`: maximum boosting rounds.
    iterations: usize,
    /// `-W`: base classifier registry name.
    base_name: String,
    members: Vec<(Box<dyn Classifier>, f64)>,
    num_classes: usize,
}

impl Default for AdaBoostM1 {
    fn default() -> Self {
        AdaBoostM1 {
            iterations: 10,
            base_name: "DecisionStump".to_string(),
            members: Vec::new(),
            num_classes: 0,
        }
    }
}

impl std::fmt::Debug for AdaBoostM1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaBoostM1")
            .field("iterations", &self.iterations)
            .field("base_name", &self.base_name)
            .field("members", &self.members.len())
            .finish()
    }
}

impl AdaBoostM1 {
    /// Create with defaults (10 × DecisionStump).
    pub fn new() -> AdaBoostM1 {
        AdaBoostM1::default()
    }

    /// Number of boosted members actually kept.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }
}

impl Classifier for AdaBoostM1 {
    fn name(&self) -> &'static str {
        "AdaBoostM1"
    }

    fn train(&mut self, data: &Dataset) -> Result<()> {
        let (ci, k) = super::check_trainable(data)?;
        self.num_classes = k;
        self.members.clear();

        let n = data.num_instances();
        let mut working = data.clone();
        for r in 0..n {
            working.set_weight(r, 1.0 / n as f64)?;
        }

        for _round in 0..self.iterations {
            let mut member = crate::registry::make_classifier(&self.base_name)?;
            member.train(&working)?;
            // Weighted error.
            let mut err = 0.0;
            let mut wrong = vec![false; n];
            for r in 0..n {
                let cv = working.value(r, ci);
                if Value::is_missing(cv) {
                    continue;
                }
                let pred = member.predict(&working, r)?;
                if pred != Value::as_index(cv) {
                    err += working.weight(r);
                    wrong[r] = true;
                }
            }
            if err >= 0.5 {
                // Worse than chance: stop (keep at least one member).
                if self.members.is_empty() {
                    self.members.push((member, 1.0));
                }
                break;
            }
            let beta = if err <= 1e-12 {
                1e-12 / (1.0 - 1e-12)
            } else {
                err / (1.0 - err)
            };
            let alpha = (1.0 / beta).ln();
            self.members.push((member, alpha));
            if err <= 1e-12 {
                break; // perfect member dominates; further rounds are no-ops
            }
            // Reweight: multiply correct instances by beta, renormalise.
            let mut total = 0.0;
            for r in 0..n {
                let w = working.weight(r) * if wrong[r] { 1.0 } else { beta };
                working.set_weight(r, w)?;
                total += w;
            }
            for r in 0..n {
                working.set_weight(r, working.weight(r) / total)?;
            }
        }
        if self.members.is_empty() {
            return Err(AlgoError::Unsupported(
                "boosting produced no members".into(),
            ));
        }
        Ok(())
    }

    fn distribution(&self, data: &Dataset, row: usize) -> Result<Vec<f64>> {
        if self.members.is_empty() {
            return Err(AlgoError::NotTrained);
        }
        let mut votes = vec![0.0; self.num_classes];
        for (m, alpha) in &self.members {
            let pred = m.predict(data, row)?;
            if pred < votes.len() {
                votes[pred] += alpha;
            }
        }
        normalize(&mut votes);
        Ok(votes)
    }

    fn describe(&self) -> String {
        if self.members.is_empty() {
            return "AdaBoostM1: not trained".to_string();
        }
        let weights: Vec<String> = self
            .members
            .iter()
            .map(|(_, a)| format!("{a:.3}"))
            .collect();
        format!(
            "AdaBoostM1: {} x {} with vote weights [{}]",
            self.members.len(),
            self.base_name,
            weights.join(", ")
        )
    }
}

impl Configurable for AdaBoostM1 {
    fn option_descriptors(&self) -> Vec<OptionDescriptor> {
        vec![
            OptionDescriptor {
                flag: "-I",
                name: "numIterations",
                description: "maximum boosting rounds",
                default: "10".into(),
                kind: OptionKind::Integer {
                    min: 1,
                    max: 10_000,
                },
            },
            OptionDescriptor {
                flag: "-W",
                name: "baseClassifier",
                description: "registry name of the (weight-aware) base classifier",
                default: "DecisionStump".into(),
                kind: OptionKind::Text,
            },
        ]
    }

    fn set_option(&mut self, flag: &str, value: &str) -> Result<()> {
        let ds = self.option_descriptors();
        descriptor_for(&ds, flag)?.validate(value)?;
        match flag {
            "-I" => self.iterations = value.parse().expect("validated"),
            "-W" => {
                crate::registry::make_classifier(value)?; // validate name
                self.base_name = value.to_string();
            }
            _ => unreachable!("descriptor_for rejects unknown flags"),
        }
        Ok(())
    }

    fn get_option(&self, flag: &str) -> Result<String> {
        match flag {
            "-I" => Ok(self.iterations.to_string()),
            "-W" => Ok(self.base_name.clone()),
            _ => Err(AlgoError::BadOption {
                flag: flag.into(),
                message: "unknown option".into(),
            }),
        }
    }
}

impl Stateful for AdaBoostM1 {
    fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_usize(self.iterations);
        w.put_str(&self.base_name);
        w.put_usize(self.num_classes);
        w.put_usize(self.members.len());
        for (m, alpha) in &self.members {
            w.put_f64(*alpha);
            w.put_bytes(&m.encode_state());
        }
        w.into_bytes()
    }

    fn decode_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = StateReader::new(bytes);
        self.iterations = r.get_usize()?;
        self.base_name = r.get_str()?;
        self.num_classes = r.get_usize()?;
        let n = r.get_usize()?;
        if n > 1 << 16 {
            return Err(AlgoError::BadState("absurd member count".into()));
        }
        self.members.clear();
        for _ in 0..n {
            let alpha = r.get_f64()?;
            let payload = r.get_bytes()?;
            let mut m = crate::registry::make_classifier(&self.base_name)?;
            m.decode_state(&payload)?;
            self.members.push((m, alpha));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{resubstitution_accuracy, weather_nominal};
    use super::*;

    #[test]
    fn boosting_improves_on_single_stump() {
        let ds = weather_nominal();
        let mut stump = crate::registry::make_classifier("DecisionStump").unwrap();
        stump.train(&ds).unwrap();
        let stump_acc = resubstitution_accuracy(stump.as_ref(), &ds);
        let mut boost = AdaBoostM1::new();
        boost.set_option("-I", "20").unwrap();
        boost.train(&ds).unwrap();
        let boost_acc = resubstitution_accuracy(&boost, &ds);
        assert!(
            boost_acc >= stump_acc,
            "boosted {boost_acc} should be >= stump {stump_acc}"
        );
        assert!(boost.num_members() > 1);
    }

    #[test]
    fn breast_cancer_boosting_trains() {
        let ds = dm_data::corpus::breast_cancer();
        let mut boost = AdaBoostM1::new();
        boost.train(&ds).unwrap();
        let acc = resubstitution_accuracy(&boost, &ds);
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn state_roundtrip() {
        let ds = weather_nominal();
        let mut b = AdaBoostM1::new();
        b.train(&ds).unwrap();
        let mut b2 = AdaBoostM1::new();
        b2.decode_state(&b.encode_state()).unwrap();
        for r in 0..ds.num_instances() {
            assert_eq!(b.predict(&ds, r).unwrap(), b2.predict(&ds, r).unwrap());
        }
    }

    #[test]
    fn unknown_base_rejected() {
        let mut b = AdaBoostM1::new();
        assert!(b.set_option("-W", "Nope").is_err());
    }

    #[test]
    fn untrained_errors() {
        let ds = weather_nominal();
        assert!(AdaBoostM1::new().distribution(&ds, 0).is_err());
    }
}

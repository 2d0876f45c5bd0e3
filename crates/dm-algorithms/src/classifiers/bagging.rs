//! Bagging (Breiman 1996): train the base learner on bootstrap
//! resamples and average the member distributions.

use super::{normalize, Classifier};
use crate::error::{AlgoError, Result};
use crate::options::{descriptor_for, Configurable, OptionDescriptor, OptionKind};
use crate::pool;
use crate::state::{StateReader, StateWriter, Stateful};
use dm_data::Dataset;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Bootstrap-aggregating meta classifier. The base learner is chosen by
/// registry name (`-W`, default `"J48"`), so any registered classifier
/// can be bagged — mirroring WEKA's `weka.classifiers.meta.Bagging`.
pub struct Bagging {
    /// `-I`: ensemble size.
    iterations: usize,
    /// `-S`: RNG seed.
    seed: u64,
    /// `-W`: base classifier registry name.
    base_name: String,
    members: Vec<Box<dyn Classifier>>,
    num_classes: usize,
}

impl Default for Bagging {
    fn default() -> Self {
        Bagging {
            iterations: 10,
            seed: 1,
            base_name: "J48".to_string(),
            members: Vec::new(),
            num_classes: 0,
        }
    }
}

impl std::fmt::Debug for Bagging {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bagging")
            .field("iterations", &self.iterations)
            .field("seed", &self.seed)
            .field("base_name", &self.base_name)
            .field("members", &self.members.len())
            .finish()
    }
}

impl Bagging {
    /// Create with defaults (10 × J48).
    pub fn new() -> Bagging {
        Bagging::default()
    }

    /// Create over an explicit base algorithm.
    pub fn with_base(base_name: &str) -> Bagging {
        Bagging {
            base_name: base_name.to_string(),
            ..Bagging::default()
        }
    }

    /// Ensemble size after training.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    fn bootstrap(data: &Dataset, rng: &mut StdRng) -> Dataset {
        let n = data.num_instances();
        let rows: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
        data.select_rows(&rows)
    }
}

impl Classifier for Bagging {
    fn name(&self) -> &'static str {
        "Bagging"
    }

    fn train(&mut self, data: &Dataset) -> Result<()> {
        let (_, k) = super::check_trainable(data)?;
        self.num_classes = k;
        self.members.clear();
        // Draw all bootstrap resamples from the shared RNG first (stream
        // identical to the old serial loop), then train members on the
        // pool — each member's own seed is derived from its index, so
        // training order is immaterial.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let samples: Vec<Dataset> = (0..self.iterations)
            .map(|_| Self::bootstrap(data, &mut rng))
            .collect();
        let trained: Vec<Result<Box<dyn Classifier>>> = pool::parallel_map(self.iterations, |i| {
            let mut member = crate::registry::make_classifier(&self.base_name)?;
            // Give seeded members distinct streams where supported.
            let _ = member.set_option("-S", &(self.seed + i as u64 + 1).to_string());
            member.train(&samples[i])?;
            Ok(member)
        });
        for m in trained {
            self.members.push(m?);
        }
        Ok(())
    }

    fn distribution(&self, data: &Dataset, row: usize) -> Result<Vec<f64>> {
        if self.members.is_empty() {
            return Err(AlgoError::NotTrained);
        }
        // Member votes fold in member order on the calling thread, like
        // the forest's: a batch of rows around the vote is what the pool
        // spreads.
        let mut dist = vec![0.0; self.num_classes];
        for member in &self.members {
            for (acc, x) in dist.iter_mut().zip(&member.distribution(data, row)?) {
                *acc += x;
            }
        }
        normalize(&mut dist);
        Ok(dist)
    }

    fn describe(&self) -> String {
        if self.members.is_empty() {
            return "Bagging: not trained".to_string();
        }
        format!("Bagging of {} x {}", self.members.len(), self.base_name)
    }
}

impl Configurable for Bagging {
    fn option_descriptors(&self) -> Vec<OptionDescriptor> {
        vec![
            OptionDescriptor {
                flag: "-I",
                name: "numIterations",
                description: "number of bagged members",
                default: "10".into(),
                kind: OptionKind::Integer {
                    min: 1,
                    max: 10_000,
                },
            },
            OptionDescriptor {
                flag: "-S",
                name: "seed",
                description: "bootstrap random seed",
                default: "1".into(),
                kind: OptionKind::Integer {
                    min: 0,
                    max: i64::MAX,
                },
            },
            OptionDescriptor {
                flag: "-W",
                name: "baseClassifier",
                description: "registry name of the base classifier",
                default: "J48".into(),
                kind: OptionKind::Text,
            },
        ]
    }

    fn set_option(&mut self, flag: &str, value: &str) -> Result<()> {
        let ds = self.option_descriptors();
        descriptor_for(&ds, flag)?.validate(value)?;
        match flag {
            "-I" => self.iterations = value.parse().expect("validated"),
            "-S" => self.seed = value.parse().expect("validated"),
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
            "-S" => Ok(self.seed.to_string()),
            "-W" => Ok(self.base_name.clone()),
            _ => Err(AlgoError::BadOption {
                flag: flag.into(),
                message: "unknown option".into(),
            }),
        }
    }
}

impl Stateful for Bagging {
    fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_usize(self.iterations);
        w.put_u64(self.seed);
        w.put_str(&self.base_name);
        w.put_usize(self.num_classes);
        w.put_usize(self.members.len());
        for m in &self.members {
            w.put_bytes(&m.encode_state());
        }
        w.into_bytes()
    }

    fn decode_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = StateReader::new(bytes);
        self.iterations = r.get_usize()?;
        self.seed = r.get_u64()?;
        self.base_name = r.get_str()?;
        self.num_classes = r.get_usize()?;
        let n = r.get_usize()?;
        if n > 1 << 16 {
            return Err(AlgoError::BadState("absurd member count".into()));
        }
        self.members.clear();
        for _ in 0..n {
            let payload = r.get_bytes()?;
            let mut m = crate::registry::make_classifier(&self.base_name)?;
            m.decode_state(&payload)?;
            self.members.push(m);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{resubstitution_accuracy, weather_nominal};
    use super::*;

    #[test]
    fn votes_start_no_pool_batch_at_any_width() {
        // Like the forest's: a default 10-member vote runs on the calling
        // thread and starts no pool batch, even on a 16-thread pool.
        let ds = dm_data::corpus::breast_cancer();
        let mut b = Bagging::new();
        b.train(&ds).unwrap();
        let votes = |threads: usize| {
            pool::with_threads(threads, || {
                (0..ds.num_instances())
                    .map(|r| b.distribution(&ds, r).unwrap())
                    .collect::<Vec<_>>()
            })
        };
        let serial = votes(1);
        let before = pool::started_here();
        assert_eq!(votes(16), serial);
        assert_eq!(pool::started_here(), before, "a vote started a pool batch");
    }

    #[test]
    fn bags_j48_on_weather() {
        let ds = weather_nominal();
        let mut b = Bagging::new();
        b.set_option("-I", "5").unwrap();
        b.train(&ds).unwrap();
        assert_eq!(b.num_members(), 5);
        assert!(resubstitution_accuracy(&b, &ds) >= 12.0 / 14.0);
    }

    #[test]
    fn base_swappable() {
        let ds = weather_nominal();
        let mut b = Bagging::with_base("NaiveBayes");
        b.set_option("-I", "3").unwrap();
        b.train(&ds).unwrap();
        assert!(b.describe().contains("NaiveBayes"));
    }

    #[test]
    fn unknown_base_rejected() {
        let mut b = Bagging::new();
        assert!(b.set_option("-W", "NoSuchAlgorithm").is_err());
    }

    #[test]
    fn seed_determinism() {
        let ds = weather_nominal();
        let mut a = Bagging::new();
        a.set_option("-I", "3").unwrap();
        a.train(&ds).unwrap();
        let mut b = Bagging::new();
        b.set_option("-I", "3").unwrap();
        b.train(&ds).unwrap();
        for r in 0..ds.num_instances() {
            assert_eq!(
                a.distribution(&ds, r).unwrap(),
                b.distribution(&ds, r).unwrap()
            );
        }
    }

    #[test]
    fn state_roundtrip() {
        let ds = weather_nominal();
        let mut b = Bagging::new();
        b.set_option("-I", "3").unwrap();
        b.train(&ds).unwrap();
        let mut b2 = Bagging::new();
        b2.decode_state(&b.encode_state()).unwrap();
        assert_eq!(b2.num_members(), 3);
        for r in 0..ds.num_instances() {
            assert_eq!(b.predict(&ds, r).unwrap(), b2.predict(&ds, r).unwrap());
        }
    }

    #[test]
    fn untrained_errors() {
        let ds = weather_nominal();
        assert!(Bagging::new().distribution(&ds, 0).is_err());
    }
}

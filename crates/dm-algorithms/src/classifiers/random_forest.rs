//! RandomForest (Breiman 2001): bagging of [`super::RandomTree`]s with
//! random attribute subsets at each node.

use super::{normalize, Classifier, RandomTree};
use crate::error::{AlgoError, Result};
use crate::options::{descriptor_for, Configurable, OptionDescriptor, OptionKind};
use crate::pool;
use crate::state::{StateReader, StateWriter, Stateful};
use dm_data::Dataset;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// The random-forest ensemble.
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// `-I`: number of trees.
    num_trees: usize,
    /// `-K`: attributes per node (0 = `log2(n)+1`).
    k_attrs: usize,
    /// `-S`: RNG seed.
    seed: u64,
    trees: Vec<RandomTree>,
    num_classes: usize,
}

impl Default for RandomForest {
    fn default() -> Self {
        RandomForest {
            num_trees: 10,
            k_attrs: 0,
            seed: 1,
            trees: Vec::new(),
            num_classes: 0,
        }
    }
}

impl RandomForest {
    /// Create with defaults (10 trees).
    pub fn new() -> RandomForest {
        RandomForest::default()
    }

    /// Number of trained trees.
    pub fn num_members(&self) -> usize {
        self.trees.len()
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &'static str {
        "RandomForest"
    }

    fn train(&mut self, data: &Dataset) -> Result<()> {
        let (_, k) = super::check_trainable(data)?;
        self.num_classes = k;
        self.trees.clear();
        // Presample every bootstrap serially so the shared RNG stream is
        // identical to the historical one-loop implementation; member
        // training then fans out on the pool (each tree has its own
        // derived seed, so training order cannot matter).
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = data.num_instances();
        let bootstraps: Vec<Vec<usize>> = (0..self.num_trees)
            .map(|_| (0..n).map(|_| rng.random_range(0..n)).collect())
            .collect();
        let trained: Vec<Result<RandomTree>> = pool::parallel_map(self.num_trees, |i| {
            let sample = data.select_rows(&bootstraps[i]);
            let mut tree = RandomTree::with_seed(self.seed ^ (i as u64).wrapping_mul(0x9E37));
            tree.set_option("-K", &self.k_attrs.to_string())?;
            tree.train(&sample)?;
            Ok(tree)
        });
        for t in trained {
            self.trees.push(t?);
        }
        Ok(())
    }

    fn distribution(&self, data: &Dataset, row: usize) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(AlgoError::NotTrained);
        }
        // A vote is a few µs of work, far less than one thread start, so
        // it folds in member order on the calling thread; a batch of
        // rows around it is what the pool spreads.
        let mut dist = vec![0.0; self.num_classes];
        for tree in &self.trees {
            for (acc, x) in dist.iter_mut().zip(&tree.distribution(data, row)?) {
                *acc += x;
            }
        }
        normalize(&mut dist);
        Ok(dist)
    }

    fn describe(&self) -> String {
        if self.trees.is_empty() {
            return "RandomForest: not trained".to_string();
        }
        format!(
            "Random forest of {} trees (K = {})",
            self.trees.len(),
            self.k_attrs
        )
    }
}

impl Configurable for RandomForest {
    fn option_descriptors(&self) -> Vec<OptionDescriptor> {
        vec![
            OptionDescriptor {
                flag: "-I",
                name: "numTrees",
                description: "number of trees in the forest",
                default: "10".into(),
                kind: OptionKind::Integer {
                    min: 1,
                    max: 10_000,
                },
            },
            OptionDescriptor {
                flag: "-K",
                name: "numAttributes",
                description: "attributes considered per node (0 = log2(n)+1)",
                default: "0".into(),
                kind: OptionKind::Integer {
                    min: 0,
                    max: 100_000,
                },
            },
            OptionDescriptor {
                flag: "-S",
                name: "seed",
                description: "random seed",
                default: "1".into(),
                kind: OptionKind::Integer {
                    min: 0,
                    max: i64::MAX,
                },
            },
        ]
    }

    fn set_option(&mut self, flag: &str, value: &str) -> Result<()> {
        let ds = self.option_descriptors();
        descriptor_for(&ds, flag)?.validate(value)?;
        match flag {
            "-I" => self.num_trees = value.parse().expect("validated"),
            "-K" => self.k_attrs = value.parse().expect("validated"),
            "-S" => self.seed = value.parse().expect("validated"),
            _ => unreachable!("descriptor_for rejects unknown flags"),
        }
        Ok(())
    }

    fn get_option(&self, flag: &str) -> Result<String> {
        match flag {
            "-I" => Ok(self.num_trees.to_string()),
            "-K" => Ok(self.k_attrs.to_string()),
            "-S" => Ok(self.seed.to_string()),
            _ => Err(AlgoError::BadOption {
                flag: flag.into(),
                message: "unknown option".into(),
            }),
        }
    }
}

impl Stateful for RandomForest {
    fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_usize(self.num_trees);
        w.put_usize(self.k_attrs);
        w.put_u64(self.seed);
        w.put_usize(self.num_classes);
        w.put_usize(self.trees.len());
        for t in &self.trees {
            w.put_bytes(&t.encode_state());
        }
        w.into_bytes()
    }

    fn decode_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = StateReader::new(bytes);
        self.num_trees = r.get_usize()?;
        self.k_attrs = r.get_usize()?;
        self.seed = r.get_u64()?;
        self.num_classes = r.get_usize()?;
        let n = r.get_usize()?;
        if n > 1 << 16 {
            return Err(AlgoError::BadState("absurd tree count".into()));
        }
        self.trees.clear();
        for _ in 0..n {
            let payload = r.get_bytes()?;
            let mut t = RandomTree::new();
            t.decode_state(&payload)?;
            self.trees.push(t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{resubstitution_accuracy, weather_nominal};
    use super::*;

    #[test]
    fn forest_fits_weather() {
        let ds = weather_nominal();
        let mut f = RandomForest::new();
        f.set_option("-I", "15").unwrap();
        f.train(&ds).unwrap();
        assert_eq!(f.num_members(), 15);
        assert!(resubstitution_accuracy(&f, &ds) >= 12.0 / 14.0);
    }

    #[test]
    fn votes_start_no_pool_batch_at_any_width() {
        // A default 10-tree vote is a few µs of work, so even on a
        // 16-thread pool it runs on the calling thread and starts no
        // batch, let alone a thread.
        let ds = dm_data::corpus::breast_cancer();
        let mut f = RandomForest::new();
        f.train(&ds).unwrap();
        let votes = |threads: usize| {
            pool::with_threads(threads, || {
                (0..ds.num_instances())
                    .map(|r| f.distribution(&ds, r).unwrap())
                    .collect::<Vec<_>>()
            })
        };
        let serial = votes(1);
        let before = pool::started_here();
        assert_eq!(votes(16), serial);
        assert_eq!(pool::started_here(), before, "a vote started a pool batch");
    }

    #[test]
    fn forest_beats_prior_on_breast_cancer() {
        let ds = dm_data::corpus::breast_cancer();
        let mut f = RandomForest::new();
        f.train(&ds).unwrap();
        let acc = resubstitution_accuracy(&f, &ds);
        assert!(acc > 201.0 / 286.0, "accuracy {acc}");
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = weather_nominal();
        let mut a = RandomForest::new();
        a.train(&ds).unwrap();
        let mut b = RandomForest::new();
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
        let mut f = RandomForest::new();
        f.set_option("-I", "4").unwrap();
        f.train(&ds).unwrap();
        let mut f2 = RandomForest::new();
        f2.decode_state(&f.encode_state()).unwrap();
        assert_eq!(f2.num_members(), 4);
        for r in 0..ds.num_instances() {
            assert_eq!(f.predict(&ds, r).unwrap(), f2.predict(&ds, r).unwrap());
        }
    }

    #[test]
    fn untrained_errors() {
        let ds = weather_nominal();
        assert!(RandomForest::new().distribution(&ds, 0).is_err());
    }
}

//! Trained-model and evaluation-result caches for the Classifier
//! service.
//!
//! Training is by far the most expensive thing the suite does, and the
//! paper's workflows retrain on every invocation even when the dataset,
//! algorithm, and options have not changed (re-enacting the §5 case
//! study, re-running `classifyGraph` on the model `classifyInstance`
//! just built, …). [`ModelCache`] keys trained classifiers by
//! *(algorithm, options, class attribute, dataset content hash)* so a
//! repeat request reuses the model instead of retraining, and keeps a
//! parallel cache of cross-validation summaries (which train k models
//! per call and therefore gain even more).
//!
//! An entry is a [`CachedModel`]: the trained model plus the two
//! responses that are pure functions of it, its `describe()` text and
//! its SVG tree. Each is rendered on first use and kept until the entry
//! is evicted or cleared, so a warm `classifyInstance` or
//! `classifyGraph` costs a lookup, not a re-render. Entries hold no
//! lock: [`Classifier`] is `Sync` and no classifier mutates after
//! training, so concurrent calls score and read one model at once.

use crate::support::tree_to_svg;
use dm_algorithms::classifiers::Classifier;
use dm_wsrf::dataplane::{CacheStats, Hasher128, LruMap};
use std::sync::{Arc, OnceLock};

/// A trained classifier with its rendered responses, each computed at
/// most once. The Classifier service keeps any registered model
/// (`dyn Classifier`, the default); the J48 service keeps `J48` trees.
pub struct CachedModel<M: ?Sized = dyn Classifier> {
    model: Box<M>,
    text: OnceLock<String>,
    svg: OnceLock<Option<String>>,
}

impl<M: Classifier + ?Sized> CachedModel<M> {
    /// Wrap a trained model; nothing is rendered yet.
    pub fn new(model: Box<M>) -> CachedModel<M> {
        CachedModel {
            model,
            text: OnceLock::new(),
            svg: OnceLock::new(),
        }
    }

    /// The trained model, for scoring.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The model's `describe()` text, rendered on the first call.
    pub fn text(&self) -> &str {
        self.text.get_or_init(|| self.model.describe())
    }

    /// The model's decision tree as SVG, rendered on the first call;
    /// `None` when the model is not tree-shaped.
    pub fn svg(&self) -> Option<&str> {
        self.svg
            .get_or_init(|| self.model.tree_model().map(|tree| tree_to_svg(&tree)))
            .as_deref()
    }
}

/// A cached model shared between the cache and the calls using it.
pub type SharedModel = Arc<CachedModel>;

/// Default number of trained models retained.
pub const DEFAULT_MODEL_CAPACITY: usize = 32;

/// Default number of cross-validation summaries retained.
pub const DEFAULT_EVAL_CAPACITY: usize = 64;

/// Write `field` into `h` length-prefixed, so that moving bytes
/// between adjacent fields changes the hash.
pub(crate) fn write_field(h: &mut Hasher128, field: &str) {
    h.write(&(field.len() as u64).to_le_bytes());
    h.write(field.as_bytes());
}

/// Cache key for a trained model: algorithm, options, class attribute,
/// and the dataset *content*, given as its
/// [`content_hash`](crate::dataset_cache::content_hash) so that a call
/// hashes its dataset text once for both caches (length-prefixed
/// fields, so reshuffling bytes between fields cannot collide).
pub fn model_key(classifier: &str, options: &str, attribute: &str, dataset: u128) -> u128 {
    let mut h = Hasher128::new();
    write_field(&mut h, classifier);
    write_field(&mut h, options);
    write_field(&mut h, attribute);
    h.write(&dataset.to_le_bytes());
    h.finish()
}

/// Cache key for a cross-validation summary: the model key plus the
/// fold count.
pub fn eval_key(
    classifier: &str,
    options: &str,
    attribute: &str,
    folds: i64,
    dataset: u128,
) -> u128 {
    let mut h = Hasher128::new();
    h.write(&model_key(classifier, options, attribute, dataset).to_le_bytes());
    h.write(&folds.to_le_bytes());
    h.finish()
}

/// Entry-bounded LRU caches of trained models and evaluation texts.
#[derive(Debug)]
pub struct ModelCache {
    models: LruMap<u128, SharedModel>,
    evals: LruMap<u128, Arc<str>>,
}

impl Default for ModelCache {
    fn default() -> ModelCache {
        ModelCache::new(DEFAULT_MODEL_CAPACITY, DEFAULT_EVAL_CAPACITY)
    }
}

impl ModelCache {
    /// Create a cache retaining at most `model_capacity` trained models
    /// and `eval_capacity` evaluation summaries.
    pub fn new(model_capacity: usize, eval_capacity: usize) -> ModelCache {
        ModelCache {
            models: LruMap::new(model_capacity),
            evals: LruMap::new(eval_capacity),
        }
    }

    /// Fetch a trained model (counts a hit or miss).
    pub fn get_model(&self, key: u128) -> Option<SharedModel> {
        self.models.get(key)
    }

    /// Store a freshly trained model.
    pub fn insert_model(&self, key: u128, model: SharedModel) {
        self.models.insert(key, model);
    }

    /// Fetch a cached cross-validation summary.
    pub fn get_eval(&self, key: u128) -> Option<Arc<str>> {
        self.evals.get(key)
    }

    /// Store a cross-validation summary.
    pub fn insert_eval(&self, key: u128, summary: Arc<str>) {
        self.evals.insert(key, summary);
    }

    /// Counter snapshot for the model cache.
    pub fn model_stats(&self) -> CacheStats {
        self.models.stats()
    }

    /// Counter snapshot for the evaluation cache.
    pub fn eval_stats(&self) -> CacheStats {
        self.evals.stats()
    }

    /// Drop every cached model, with its rendered responses, and every
    /// evaluation (counters survive).
    pub fn clear(&self) {
        self.models.clear();
        self.evals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset_cache::{content_hash, DatasetCache};
    use dm_algorithms::registry::make_classifier;
    use dm_data::corpus::breast_cancer_arff;

    fn trained(name: &str) -> SharedModel {
        let ds = DatasetCache::default()
            .decode_with_class(&breast_cancer_arff(), "Class")
            .unwrap();
        let mut m = make_classifier(name).unwrap();
        m.train(&ds).unwrap();
        Arc::new(CachedModel::new(m))
    }

    #[test]
    fn keys_depend_on_every_field() {
        let base = model_key("J48", "-M 2", "Class", content_hash("@relation x"));
        assert_ne!(
            base,
            model_key("ZeroR", "-M 2", "Class", content_hash("@relation x"))
        );
        assert_ne!(
            base,
            model_key("J48", "-M 3", "Class", content_hash("@relation x"))
        );
        assert_ne!(
            base,
            model_key("J48", "-M 2", "age", content_hash("@relation x"))
        );
        assert_ne!(
            base,
            model_key("J48", "-M 2", "Class", content_hash("@relation y"))
        );
        assert_eq!(
            base,
            model_key("J48", "-M 2", "Class", content_hash("@relation x"))
        );
        // Field boundaries matter: shifting a byte between adjacent
        // fields must change the key.
        assert_ne!(
            model_key("J48x", "", "Class", content_hash("d")),
            model_key("J48", "x", "Class", content_hash("d"))
        );
        // Eval keys fold in the fold count.
        assert_ne!(
            eval_key("J48", "", "Class", 5, content_hash("d")),
            eval_key("J48", "", "Class", 10, content_hash("d"))
        );
    }

    #[test]
    fn model_cache_evicts_lru_and_retrains_transparently() {
        let cache = ModelCache::new(2, 2);
        let (a, b, c) = (
            model_key("ZeroR", "", "Class", content_hash("a")),
            model_key("ZeroR", "", "Class", content_hash("b")),
            model_key("ZeroR", "", "Class", content_hash("c")),
        );
        cache.insert_model(a, trained("ZeroR"));
        cache.insert_model(b, trained("ZeroR"));
        // Touch `a` so `b` is the least recently used, then overflow.
        assert!(cache.get_model(a).is_some());
        cache.insert_model(c, trained("ZeroR"));
        assert!(cache.get_model(a).is_some());
        assert!(cache.get_model(b).is_none(), "LRU entry must be evicted");
        assert!(cache.get_model(c).is_some());
        let stats = cache.model_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits + stats.misses, stats.lookups);
        // Transparent recovery: the evicted key simply misses and the
        // caller retrains and reinserts.
        cache.insert_model(b, trained("ZeroR"));
        assert!(cache.get_model(b).is_some());
    }

    #[test]
    fn cached_model_is_usable_after_lookup() {
        let cache = ModelCache::default();
        let key = model_key("ZeroR", "", "Class", content_hash("bc"));
        cache.insert_model(key, trained("ZeroR"));
        let model = cache.get_model(key).unwrap();
        assert!(!model.text().is_empty());
    }

    #[test]
    fn describe_and_svg_render_once_per_cached_model() {
        let tree = trained("J48");
        let text = tree.text();
        assert!(text.contains("node-caps"));
        assert_eq!(text.as_ptr(), tree.text().as_ptr(), "text re-rendered");
        assert_eq!(text, tree.model().describe());
        let svg = tree.svg().expect("J48 is tree-shaped");
        assert!(svg.starts_with("<svg"));
        assert_eq!(
            svg.as_ptr(),
            tree.svg().unwrap().as_ptr(),
            "SVG re-rendered"
        );
        let bayes = trained("NaiveBayes");
        assert!(bayes.svg().is_none());
        assert!(bayes.svg().is_none());
        assert!(bayes.text().contains("Naive Bayes"));
        // The rendered strings go with their entry.
        let cache = ModelCache::default();
        let entry = Arc::downgrade(&tree);
        cache.insert_model(model_key("J48", "", "Class", content_hash("bc")), tree);
        cache.clear();
        assert!(entry.upgrade().is_none());
    }

    #[test]
    fn eval_cache_round_trips() {
        let cache = ModelCache::new(2, 1);
        let k1 = eval_key("J48", "", "Class", 5, content_hash("d"));
        let k2 = eval_key("J48", "", "Class", 10, content_hash("d"));
        cache.insert_eval(k1, Arc::from("summary-5"));
        assert_eq!(cache.get_eval(k1).as_deref(), Some("summary-5"));
        cache.insert_eval(k2, Arc::from("summary-10"));
        // Capacity 1: the older summary was evicted.
        assert!(cache.get_eval(k1).is_none());
        assert_eq!(cache.eval_stats().evictions, 1);
    }
}

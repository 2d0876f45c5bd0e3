//! The per-host cache of decoded datasets and of the answers derived
//! from them.
//!
//! Every dataset-bearing operation takes its dataset as ARFF text, and
//! a composition passes one dataset through several services (the case
//! study reads, selects and classifies the same breast-cancer text on
//! every enactment). Decoding that text is the state the paper's §4.5
//! finding says not to rebuild per call: `DatasetCache` keys decoded
//! datasets by the content hash of the text, so a host decodes each
//! distinct dataset once while it stays cached. Parse errors are never
//! cached.
//!
//! The same cache keeps what is derived from a dataset: the answers of
//! `Clusterer.cluster`, `Cobweb.cluster`, `AttributeSelection.select`
//! and `geneticSearch`, `Preprocess.normalize` and `discretize`, and
//! `DataConversion.summary` on ARFF input ([`DatasetCache::answer`]).
//! An answer is keyed by the dataset's content hash, then the service,
//! the operation and every argument it depends on after defaults and
//! clamps, each field length-prefixed as in
//! [`model_key`](crate::model_cache::model_key). It weighs the bytes it
//! holds, under one private per-host budget of 512 KiB. An answer is
//! kept only when its call found the dataset already decoded, so a
//! dataset seen once leaves no answer behind and its second use does;
//! a fault is never kept.

use crate::model_cache::write_field;
use crate::support::data_fault;
use dm_data::convert::DataFormat;
use dm_data::Dataset;
use dm_wsrf::container::ServiceFault;
use dm_wsrf::dataplane::{payload_hash, Hasher128, LruMap, Weigh};
use dm_wsrf::soap::{RefKind, SoapValue};
use std::sync::Arc;

/// Decoded datasets retained per cache.
pub(crate) const DATASET_CAPACITY: usize = 32;

/// Bytes of derived answers retained per cache.
const ANSWER_BUDGET: usize = 512 * 1024;

/// Content hash of a dataset text: the cache key here, and the dataset
/// field of [`crate::model_cache::model_key`]. It is the text's
/// data-plane [`payload_hash`], the hash a `DataRef` to it carries.
pub fn content_hash(text: &str) -> u128 {
    payload_hash(RefKind::Text, text.as_bytes())
}

/// Key of a derived answer: the dataset's [`content_hash`], then each
/// of `fields` length-prefixed, so that no two field lists share a key
/// by moving bytes between fields.
fn answer_key(dataset: u128, fields: &[&str]) -> u128 {
    let mut h = Hasher128::new();
    h.write(&dataset.to_le_bytes());
    for field in fields {
        write_field(&mut h, field);
    }
    h.finish()
}

/// A derived answer weighs the bytes it holds: its own slot, and the
/// text, bytes or items it owns.
#[derive(Debug)]
struct AnswerBytes;

impl Weigh<Arc<SoapValue>> for AnswerBytes {
    const MIN_CAPACITY: usize = 0;
    const IN_BYTES: bool = true;

    fn weigh(answer: &Arc<SoapValue>) -> usize {
        held_bytes(answer)
    }
}

fn held_bytes(value: &SoapValue) -> usize {
    std::mem::size_of::<SoapValue>()
        + match value {
            SoapValue::Text(s) => s.len(),
            SoapValue::Bytes(b) => b.len(),
            SoapValue::List(items) => items.iter().map(held_bytes).sum(),
            _ => 0,
        }
}

/// An entry-bounded LRU of decoded datasets keyed by [`content_hash`],
/// and a byte-bounded LRU of the answers derived from them. Clones
/// share both maps: `deploy_faehim_suite` hands the same cache to every
/// service on a host, while a service built on its own keeps a private
/// one.
#[derive(Debug, Clone)]
pub(crate) struct DatasetCache {
    datasets: Arc<LruMap<u128, Arc<Dataset>>>,
    answers: Arc<LruMap<u128, Arc<SoapValue>, AnswerBytes>>,
}

impl Default for DatasetCache {
    fn default() -> DatasetCache {
        DatasetCache {
            datasets: Arc::new(LruMap::new(DATASET_CAPACITY)),
            answers: Arc::new(LruMap::new(ANSWER_BUDGET)),
        }
    }
}

impl DatasetCache {
    /// The dataset the ARFF `text` encodes, parsed only on a miss.
    pub(crate) fn decode(&self, text: &str) -> Result<Arc<Dataset>, ServiceFault> {
        self.decode_hashed(text, content_hash(text))
    }

    /// [`DatasetCache::decode`] for a caller that already computed
    /// `hash = content_hash(text)`.
    pub(crate) fn decode_hashed(
        &self,
        text: &str,
        hash: u128,
    ) -> Result<Arc<Dataset>, ServiceFault> {
        self.lookup(text, hash).map(|(ds, _)| ds)
    }

    /// The decoded dataset, and whether the cache already held it.
    fn lookup(&self, text: &str, hash: u128) -> Result<(Arc<Dataset>, bool), ServiceFault> {
        if let Some(ds) = self.datasets.get(hash) {
            return Ok((ds, true));
        }
        let ds = Arc::new(dm_data::arff::parse_arff(text).map_err(data_fault)?);
        self.datasets.insert(hash, Arc::clone(&ds));
        Ok((ds, false))
    }

    /// The answer `derive` gives for the dataset the ARFF `text`
    /// encodes, where `fields` name the service, the operation and every
    /// argument the answer depends on, after defaults and clamps. A kept
    /// answer is returned without decoding. On a miss the text is
    /// hashed once and decoded through the cache, and the answer is
    /// kept only when that decode found the dataset already held and
    /// `derive` succeeded.
    pub(crate) fn answer(
        &self,
        text: &str,
        fields: &[&str],
        derive: impl FnOnce(Arc<Dataset>) -> Result<SoapValue, ServiceFault>,
    ) -> Result<SoapValue, ServiceFault> {
        let hash = content_hash(text);
        let key = answer_key(hash, fields);
        if let Some(kept) = self.answers.get(key) {
            return Ok(SoapValue::clone(&kept));
        }
        let (ds, held) = self.lookup(text, hash)?;
        let answer = derive(ds)?;
        if held {
            self.answers.insert(key, Arc::new(answer.clone()));
        }
        Ok(answer)
    }

    /// A copy of the decoded dataset with its class set by attribute
    /// name: on a hit, the clone is the whole cost.
    pub(crate) fn decode_with_class(
        &self,
        text: &str,
        class: &str,
    ) -> Result<Dataset, ServiceFault> {
        with_class(self.decode(text)?, class)
    }

    /// Decode `text` in its sniffed format: ARFF through the cache, CSV
    /// parsed afresh.
    pub(crate) fn decode_sniffed(&self, text: &str) -> Result<Arc<Dataset>, ServiceFault> {
        match DataFormat::sniff(text) {
            DataFormat::Arff => self.decode(text),
            DataFormat::Csv => dm_data::csv::parse_csv(text)
                .map(Arc::new)
                .map_err(data_fault),
        }
    }
}

/// `ds` with its class set to the attribute named `class`, copied
/// unless the caller holds the only reference.
pub(crate) fn with_class(ds: Arc<Dataset>, class: &str) -> Result<Dataset, ServiceFault> {
    let mut ds = Arc::unwrap_or_clone(ds);
    ds.set_class_by_name(class).map_err(data_fault)?;
    Ok(ds)
}

#[cfg(test)]
mod answer_store;

#[cfg(test)]
mod tests {
    use super::*;

    const ARFF: &str = "@relation t\n@attribute a {x,y}\n@attribute c {p,n}\n@data\nx,p\n";

    #[test]
    fn decode_with_class_parses() {
        let cache = DatasetCache::default();
        let ds = cache.decode_with_class(ARFF, "c").unwrap();
        assert_eq!(ds.class_index(), Some(1));
        assert!(cache.decode_with_class(ARFF, "nope").is_err());
        assert!(cache.decode_with_class("garbage", "c").is_err());
    }

    #[test]
    fn repeat_decodes_hit_and_share_one_dataset() {
        let cache = DatasetCache::default();
        let first = cache.decode(ARFF).unwrap();
        let shared = cache.clone();
        let again = shared.decode(ARFF).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let stats = cache.datasets.stats();
        assert_eq!((stats.lookups, stats.hits, stats.entries), (2, 1, 1));
        // Setting a class copies; the cached dataset keeps none.
        assert_eq!(
            cache.decode_with_class(ARFF, "a").unwrap().class_index(),
            Some(0)
        );
        assert_eq!(cache.decode(ARFF).unwrap().class_index(), None);
        // A private cache shares nothing.
        let private = DatasetCache::default();
        assert!(!Arc::ptr_eq(&first, &private.decode(ARFF).unwrap()));
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = DatasetCache::default();
        for _ in 0..2 {
            let fault = cache.decode("@relation t\n@data\n").unwrap_err();
            assert_eq!(fault.code, "Client");
        }
        let stats = cache.datasets.stats();
        assert_eq!((stats.misses, stats.insertions, stats.entries), (2, 0, 0));
    }

    #[test]
    fn cache_is_bounded() {
        let cache = DatasetCache::default();
        for i in 0..DATASET_CAPACITY + 5 {
            let text = format!("@relation r{i}\n@attribute a numeric\n@data\n{i}\n");
            cache.decode(&text).unwrap();
        }
        let stats = cache.datasets.stats();
        assert_eq!(stats.entries, DATASET_CAPACITY);
        assert_eq!(stats.evictions, 5);
    }

    #[test]
    fn dataset_key_is_the_data_ref_hash() {
        use dm_wsrf::dataplane::content_ref;
        use dm_wsrf::soap::SoapValue;
        for text in ["", "a", ARFF, &"@relation r\n".repeat(100)] {
            let r = content_ref(&SoapValue::Text(text.into())).unwrap();
            assert_eq!(content_hash(text), r.hash, "{text:?}");
        }
    }

    #[test]
    fn sniffed_csv_decodes_without_caching() {
        let cache = DatasetCache::default();
        let ds = cache.decode_sniffed("a,b\n1,x\n").unwrap();
        assert_eq!(ds.num_attributes(), 2);
        assert_eq!(cache.datasets.stats().lookups, 0);
        assert_eq!(cache.decode_sniffed(ARFF).unwrap().num_instances(), 1);
    }
}

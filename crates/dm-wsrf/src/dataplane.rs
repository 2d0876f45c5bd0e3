//! The content-addressed data plane.
//!
//! The paper's SOAP messages ship every dataset and serialised model
//! inline on every call — §4.5 measures exactly that cost. This module
//! supplies the era's remedy (SOAP attachments / DIME, and the
//! data-locality strategy of Grid-WEKA): payloads are identified by a
//! stable **content hash** and can travel as compact
//! [`crate::soap::SoapValue::DataRef`] handles once the receiving side
//! already holds the bytes in its [`AttachmentStore`].
//!
//! Two pieces live here:
//!
//! * content hashing ([`payload_hash`], [`content_ref`],
//!   [`fingerprint`]) on [`Hasher128`], a word-at-a-time 128-bit
//!   multiply-fold digest, dependency-free and stable across runs and
//!   platforms. It is the workspace's one digest: attachment identity,
//!   dataset-cache and model-cache keys, memoisation keys, and journal
//!   checksums all go through it;
//! * [`LruMap`] — the one thread-safe LRU, with hit/miss/eviction
//!   counters, bounded by the total weight of its entries. The weight
//!   is fixed by the map's type: each entry weighs 1 in the dataset,
//!   model, evaluation and memoisation caches of the upper layers, and
//!   a payload weighs its length in an [`AttachmentStore`], the
//!   byte-bounded map of payloads keyed by content hash. One store
//!   sits in every service container (the host side) and one in the
//!   network (the client/engine side).

use crate::soap::{RefKind, SoapValue};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The workspace's one content digest: 128 bits from two 64-bit lanes,
/// absorbed 16 bytes at a time.
///
/// Each step reads a block as two little-endian `u64` words `w0, w1`
/// and advances both lanes with a folded 64×64→128-bit multiply (the
/// low and high halves of the product XORed together):
/// `a = fold(w0 ^ K0, w1 ^ a)` and `b = fold(w1 ^ K1, w0 ^ b)`, so
/// every input bit reaches both lanes. `finish` zero-pads and absorbs
/// a final partial block, then folds the lanes together with the total
/// byte length into the two 64-bit halves of the digest.
///
/// * **Streamed.** A partial block is carried across [`write`] calls,
///   so the digest depends only on the concatenation of the bytes
///   written, however they were split.
/// * **Length-bound.** The total length is mixed in at [`finish`], so
///   inputs that differ only by trailing zero bytes still differ.
/// * **Platform-stable.** Words are read little-endian and all
///   arithmetic is on `u64`/`u128`, so the digest is the same on every
///   platform and every run: it names attachments on the wire and
///   checksums journal records, which outlive a process.
/// * **Not cryptographic.** Collision resistance holds only against
///   honest workloads (an adversary can construct collisions), like
///   the CRC-style content ids of the DIME era.
///
/// [`write`]: Hasher128::write
/// [`finish`]: Hasher128::finish
#[derive(Debug, Clone)]
pub struct Hasher128 {
    a: u64,
    b: u64,
    /// Bytes written so far.
    len: u64,
    /// The partial block awaiting its remaining bytes; only the first
    /// `pending` bytes are meaningful.
    tail: [u8; 16],
    pending: usize,
}

impl Default for Hasher128 {
    fn default() -> Self {
        Hasher128::new()
    }
}

/// The low and high halves of `x * y` XORed together.
fn fold_mul(x: u64, y: u64) -> u64 {
    let product = u128::from(x) * u128::from(y);
    (product as u64) ^ ((product >> 64) as u64)
}

impl Hasher128 {
    // Odd constants with well-spread bits (wyhash's secret words), and
    // the first digits of pi's fraction as the lane seeds.
    const K0: u64 = 0xa076_1d64_78bd_642f;
    const K1: u64 = 0xe703_7ed1_a0b4_28db;
    const K2: u64 = 0x8ebc_6af0_9c88_c6e3;
    const K3: u64 = 0x5899_65cc_7537_4cc3;

    /// Start a fresh digest.
    pub fn new() -> Hasher128 {
        Hasher128 {
            a: 0x243f_6a88_85a3_08d3,
            b: 0x1319_8a2e_0370_7344,
            len: 0,
            tail: [0; 16],
            pending: 0,
        }
    }

    /// Advance both lanes by one 16-byte block.
    fn absorb(&mut self, block: &[u8]) {
        let (w0, w1) = block.split_at(8);
        let w0 = u64::from_le_bytes(w0.try_into().expect("a block is 16 bytes"));
        let w1 = u64::from_le_bytes(w1.try_into().expect("a block is 16 bytes"));
        self.a = fold_mul(w0 ^ Self::K0, w1 ^ self.a);
        self.b = fold_mul(w1 ^ Self::K1, w0 ^ self.b);
    }

    /// Absorb bytes.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.pending > 0 {
            let take = bytes.len().min(16 - self.pending);
            let (head, rest) = bytes.split_at(take);
            self.tail[self.pending..self.pending + take].copy_from_slice(head);
            self.pending += take;
            if self.pending < 16 {
                return;
            }
            let block = self.tail;
            self.absorb(&block);
            bytes = rest;
        }
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            self.absorb(block);
        }
        let rest = blocks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.pending = rest.len();
    }

    /// Absorb a single tag byte (used to separate value kinds).
    pub fn write_u8(&mut self, byte: u8) {
        self.write(&[byte]);
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish(&self) -> u128 {
        let mut last = self.clone();
        if last.pending > 0 {
            let mut block = [0; 16];
            block[..last.pending].copy_from_slice(&last.tail[..last.pending]);
            last.absorb(&block);
        }
        let lo = fold_mul(last.a ^ Self::K2, last.b ^ self.len ^ Self::K3);
        let hi = fold_mul(last.b ^ Self::K0, last.a ^ lo ^ Self::K1);
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// Hash a byte string.
pub fn hash_bytes(bytes: &[u8]) -> u128 {
    let mut h = Hasher128::new();
    h.write(bytes);
    h.finish()
}

/// A content-addressed description of a Text or Bytes payload: what a
/// [`crate::soap::SoapValue::DataRef`] carries on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentRef {
    /// The payload's [`payload_hash`].
    pub hash: u128,
    /// Payload length in bytes.
    pub len: u64,
    /// Whether the payload was a string or binary.
    pub kind: RefKind,
}

/// The content hash of a Text or Bytes payload: its kind tag, then its
/// bytes. This is the one payload framing: a [`ContentRef`] carries it,
/// attachment stores and journal spills are keyed by it, and the
/// services' dataset cache keys a dataset's text by it, so a dataset's
/// cache key is its `DataRef` hash. The tag keeps equal byte strings of
/// different kinds from aliasing.
pub fn payload_hash(kind: RefKind, bytes: &[u8]) -> u128 {
    let mut h = Hasher128::new();
    h.write_u8(match kind {
        RefKind::Text => b'T',
        RefKind::Bytes => b'B',
    });
    h.write(bytes);
    h.finish()
}

/// Compute the content address of a value, if it is one of the payload
/// kinds the data plane can pass by reference (Text or Bytes): its
/// [`payload_hash`], length and kind.
pub fn content_ref(value: &SoapValue) -> Option<ContentRef> {
    let (kind, bytes) = match value {
        SoapValue::Text(s) => (RefKind::Text, s.as_bytes()),
        SoapValue::Bytes(b) => (RefKind::Bytes, b.as_slice()),
        _ => return None,
    };
    Some(ContentRef {
        hash: payload_hash(kind, bytes),
        len: bytes.len() as u64,
        kind,
    })
}

/// Structural fingerprint of any SOAP value — every variant, nested
/// lists included. This is the memoisation key material: two values
/// fingerprint equal iff they would serialise identically.
pub fn fingerprint(value: &SoapValue) -> u128 {
    let mut h = Hasher128::new();
    fingerprint_into(value, &mut h);
    h.finish()
}

fn fingerprint_into(value: &SoapValue, h: &mut Hasher128) {
    match value {
        SoapValue::Null => h.write_u8(0),
        SoapValue::Bool(b) => {
            h.write_u8(1);
            h.write_u8(u8::from(*b));
        }
        SoapValue::Int(i) => {
            h.write_u8(2);
            h.write(&i.to_le_bytes());
        }
        SoapValue::Double(d) => {
            h.write_u8(3);
            h.write(&d.to_bits().to_le_bytes());
        }
        SoapValue::Text(s) => {
            h.write_u8(4);
            h.write(&(s.len() as u64).to_le_bytes());
            h.write(s.as_bytes());
        }
        SoapValue::Bytes(b) => {
            h.write_u8(5);
            h.write(&(b.len() as u64).to_le_bytes());
            h.write(b);
        }
        SoapValue::List(items) => {
            h.write_u8(6);
            h.write(&(items.len() as u64).to_le_bytes());
            for item in items {
                fingerprint_into(item, h);
            }
        }
        SoapValue::DataRef { hash, len, kind } => {
            h.write_u8(7);
            h.write(&hash.to_le_bytes());
            h.write(&len.to_le_bytes());
            h.write_u8(match kind {
                RefKind::Text => 0,
                RefKind::Bytes => 1,
            });
        }
    }
}

/// A stored payload. Text and binary bodies are kept behind `Arc` so
/// hits never copy until the payload is materialised into a value.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A string body.
    Text(Arc<str>),
    /// A binary body.
    Bytes(Arc<[u8]>),
}

impl Payload {
    /// Capture the payload of a Text or Bytes value.
    pub fn from_value(value: &SoapValue) -> Option<Payload> {
        match value {
            SoapValue::Text(s) => Some(Payload::Text(Arc::from(s.as_str()))),
            SoapValue::Bytes(b) => Some(Payload::Bytes(Arc::from(b.as_slice()))),
            _ => None,
        }
    }

    /// Materialise back into a SOAP value.
    pub fn to_value(&self) -> SoapValue {
        match self {
            Payload::Text(s) => SoapValue::Text(s.to_string()),
            Payload::Bytes(b) => SoapValue::Bytes(b.to_vec()),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Text(s) => s.len(),
            Payload::Bytes(b) => b.len(),
        }
    }

    /// `true` for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Counter snapshot shared by every cache in the data plane. The
/// invariant callers may rely on: `lookups == hits + misses`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total `get` calls.
    pub lookups: u64,
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries added.
    pub insertions: u64,
    /// Entries pushed out by the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Payload bytes currently held (0 for entry-bounded caches that do
    /// not track sizes).
    pub bytes: usize,
}

#[derive(Debug, Default)]
struct Counters {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl Counters {
    fn hit(&self) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, entries: usize, bytes: usize) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

/// What an [`LruMap`]'s capacity counts. The weigher is part of the
/// map's type, so one map never mixes units.
pub trait Weigh<V> {
    /// The least capacity a map is given.
    const MIN_CAPACITY: usize;
    /// Whether the weight held is reported as [`CacheStats::bytes`].
    const IN_BYTES: bool;
    /// One entry's share of the capacity.
    fn weigh(value: &V) -> usize;
}

/// Every entry weighs 1: the capacity is an entry count, at least 1,
/// and [`CacheStats::bytes`] reads 0. The dataset, model, evaluation
/// and memoisation caches count entries.
#[derive(Debug)]
pub struct Entries;

impl<V> Weigh<V> for Entries {
    const MIN_CAPACITY: usize = 1;
    const IN_BYTES: bool = false;

    fn weigh(_: &V) -> usize {
        1
    }
}

/// A payload weighs its length: the capacity is a byte budget.
#[derive(Debug)]
pub struct PayloadBytes;

impl Weigh<Payload> for PayloadBytes {
    const MIN_CAPACITY: usize = 0;
    const IN_BYTES: bool = true;

    fn weigh(payload: &Payload) -> usize {
        payload.len()
    }
}

/// A byte-bounded LRU attachment store keyed by content hash.
///
/// Every host container owns one (the server side of pass-by-reference)
/// and the network owns one for the client/engine side. A payload
/// larger than the whole store is not cached at all — callers simply
/// keep shipping it inline.
pub type AttachmentStore = LruMap<u128, Payload, PayloadBytes>;

struct LruInner<K, V> {
    /// key → (value, recency sequence number).
    map: HashMap<K, (V, u64)>,
    /// recency sequence → key; the first entry is the LRU victim.
    order: BTreeMap<u64, K>,
    clock: u64,
    /// Total weight held.
    weight: usize,
    capacity: usize,
}

impl<K: Eq + Hash, V> LruInner<K, V> {
    /// Make `key` the most recently used entry, if it is held.
    fn touch(&mut self, key: &K) -> Option<&V> {
        let (value, seq) = self.map.get_mut(key)?;
        let key = self
            .order
            .remove(seq)
            .expect("a held key has a recency slot");
        self.clock += 1;
        *seq = self.clock;
        self.order.insert(self.clock, key);
        Some(value)
    }

    /// Evict least-recently used entries until the weight held fits
    /// the capacity; returns how many went.
    fn shrink<W: Weigh<V>>(&mut self) -> u64 {
        let mut evicted = 0;
        while self.weight > self.capacity {
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            if let Some((value, _)) = self.map.remove(&victim) {
                self.weight -= W::weigh(&value);
            }
            evicted += 1;
        }
        evicted
    }

    fn bytes<W: Weigh<V>>(&self) -> usize {
        if W::IN_BYTES {
            self.weight
        } else {
            0
        }
    }
}

/// A thread-safe LRU map with hit/miss/insertion/eviction counters,
/// bounded by the total weight of its entries. `W` fixes what the
/// capacity counts: entries ([`Entries`], the default) or payload bytes
/// ([`PayloadBytes`], the [`AttachmentStore`]). `get` counts a hit or
/// miss and refreshes recency; `insert` evicts least-recently used
/// entries until the weight held fits the capacity, and refuses an
/// entry heavier than the whole capacity. The trained-model, dataset
/// and memoisation caches of the upper layers and every attachment
/// store are built on this; their keys are content hashes.
pub struct LruMap<K, V, W = Entries> {
    inner: Mutex<LruInner<K, V>>,
    counters: Counters,
    weigher: PhantomData<W>,
}

impl<K: Eq + Hash + Copy, V: Clone, W: Weigh<V>> LruMap<K, V, W> {
    /// Create a map bounded to `capacity` (at least the weigher's
    /// minimum: one entry for an entry-bounded map).
    pub fn new(capacity: usize) -> LruMap<K, V, W> {
        LruMap {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
                weight: 0,
                capacity: capacity.max(W::MIN_CAPACITY),
            }),
            counters: Counters::default(),
            weigher: PhantomData,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Rebound the map, evicting LRU entries if it now overflows.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        inner.capacity = capacity.max(W::MIN_CAPACITY);
        let evicted = inner.shrink::<W>();
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    /// Fetch, counting a hit or miss and refreshing recency on hit.
    pub fn get(&self, key: K) -> Option<V> {
        let mut inner = self.inner.lock();
        match inner.touch(&key) {
            Some(value) => {
                self.counters.hit();
                Some(value.clone())
            }
            None => {
                self.counters.miss();
                None
            }
        }
    }

    /// Presence check without counters or recency effects.
    pub fn contains(&self, key: K) -> bool {
        self.inner.lock().map.contains_key(&key)
    }

    /// Refresh `key`'s recency, as inserting its value again would, and
    /// say whether the map holds it; counts nothing. A writer that
    /// knows a payload's hash builds the payload to [`Self::insert`]
    /// only when this is `false`.
    pub fn touch(&self, key: K) -> bool {
        self.inner.lock().touch(&key).is_some()
    }

    /// Insert (replacing any previous value) as the most recently used
    /// entry, evicting LRU entries until the weight held fits the
    /// capacity. An entry heavier than the whole capacity is dropped
    /// rather than cached, and evicts nothing.
    pub fn insert(&self, key: K, value: V) {
        let weight = W::weigh(&value);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if weight > inner.capacity {
            return;
        }
        inner.clock += 1;
        inner.weight += weight;
        match inner.map.entry(key) {
            Entry::Occupied(mut held) => {
                let (old, seq) = held.insert((value, inner.clock));
                inner.weight -= W::weigh(&old);
                let key = inner
                    .order
                    .remove(&seq)
                    .expect("a held key has a recency slot");
                inner.order.insert(inner.clock, key);
            }
            Entry::Vacant(slot) => {
                inner.order.insert(inner.clock, *slot.key());
                slot.insert((value, inner.clock));
                self.counters.insertions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let evicted = inner.shrink::<W>();
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().map.is_empty()
    }

    /// Payload bytes held (0 for an entry-bounded map).
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes::<W>()
    }

    /// Counter snapshot (`lookups == hits + misses`).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        self.counters.snapshot(inner.map.len(), inner.bytes::<W>())
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
        inner.weight = 0;
    }
}

impl<K, V, W> std::fmt::Debug for LruMap<K, V, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruMap")
            .field("entries", &self.inner.lock().map.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn text(n: usize, fill: char) -> SoapValue {
        SoapValue::Text(fill.to_string().repeat(n))
    }

    fn stored(v: &SoapValue) -> (u128, Payload) {
        let r = content_ref(v).unwrap();
        (r.hash, Payload::from_value(v).unwrap())
    }

    #[test]
    fn content_hash_is_stable_and_kind_tagged() {
        let a = content_ref(&SoapValue::Text("abc".into())).unwrap();
        let b = content_ref(&SoapValue::Text("abc".into())).unwrap();
        assert_eq!(a, b);
        let bytes = content_ref(&SoapValue::Bytes(b"abc".to_vec())).unwrap();
        assert_ne!(a.hash, bytes.hash, "kind tag must separate Text/Bytes");
        assert_eq!(a.len, 3);
        assert!(content_ref(&SoapValue::Int(3)).is_none());
    }

    /// `n` bytes of a splitmix64 stream seeded with `seed`.
    fn seeded_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn digest_known_answers() {
        // A digest change renames every attachment and invalidates every
        // journal checksum (bump the journal version with it): these
        // values must only ever change on purpose.
        let expected: [(u8, u128); 10] = [
            (0, 0x373c97c8bc92b053d90c927dd26d40e1),
            (1, 0xccae3fe6c58b5741ad8efc90178b1e52),
            (7, 0x7b8901eabd7ab2356c60bc4876b54ba5),
            (8, 0x6b9f28238baba737664f66bfbc4e9365),
            (15, 0xb67e8330889f74593528dd9ebedfdcb1),
            (16, 0x3fb670ef7e224275f16a7c78e76d6d47),
            (17, 0xbffb49591b27c00dd81c90df8488ed7c),
            (31, 0x8798f3cf9e774943c1aa4cbffc784b6a),
            (32, 0x5b21a89e95649abd18e38f5a267361f0),
            (33, 0xd62cd42cab8f02256b38b5b129522ac9),
        ];
        for (n, digest) in expected {
            let bytes: Vec<u8> = (0..n).collect();
            assert_eq!(hash_bytes(&bytes), digest, "hash_bytes of 0..{n}");
        }
        assert_eq!(
            hash_bytes(&seeded_bytes(7, 16 * 1024)),
            0xb4a7441323fd5a56053aa79333f66669
        );
        assert_eq!(
            content_ref(&SoapValue::Text("faehim".into())).unwrap().hash,
            0xf2fb9d43c277b7cd7a54e3acdef7e26a
        );
        let list = SoapValue::List(vec![
            SoapValue::Text("no-recurrence-events".into()),
            SoapValue::Int(286),
            SoapValue::Null,
        ]);
        assert_eq!(fingerprint(&list), 0xdb705a08ad550ba3b9b6a30cb048ad48);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn digest_is_split_invariant(
            bytes in proptest::collection::vec(any::<u8>(), 0..160),
            cuts in proptest::collection::vec(0usize..160, 0..8),
        ) {
            // Cut points past the end clamp to it, and repeated cuts
            // are empty writes; both ends get one too.
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
            cuts.extend([0, bytes.len()]);
            cuts.sort_unstable();
            let mut h = Hasher128::new();
            h.write(&[]);
            for pair in cuts.windows(2) {
                h.write(&bytes[pair[0]..pair[1]]);
            }
            prop_assert_eq!(h.finish(), hash_bytes(&bytes), "cuts {:?}", cuts);
        }
    }

    #[test]
    fn digest_binds_the_length() {
        let zero_runs: HashSet<u128> = (0..=40).map(|n| hash_bytes(&vec![0; n])).collect();
        assert_eq!(zero_runs.len(), 41, "zero runs of length 0-40 collide");
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"a\0"));
    }

    #[test]
    fn short_inputs_are_distinct() {
        let mut seen = HashSet::new();
        seen.insert(hash_bytes(&[]));
        for a in 0..=255u8 {
            seen.insert(hash_bytes(&[a]));
            for b in 0..=255u8 {
                seen.insert(hash_bytes(&[a, b]));
            }
        }
        assert_eq!(seen.len(), 1 + 256 + 256 * 256);
    }

    #[test]
    fn every_bit_flip_changes_both_halves() {
        let input = seeded_bytes(64, 64);
        let base = hash_bytes(&input);
        for bit in 0..input.len() * 8 {
            let mut flipped = input.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let diff = hash_bytes(&flipped) ^ base;
            assert_ne!(diff as u64, 0, "bit {bit} left the low half unchanged");
            assert_ne!(
                (diff >> 64) as u64,
                0,
                "bit {bit} left the high half unchanged"
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let a = fingerprint(&SoapValue::List(vec![
            SoapValue::Text("ab".into()),
            SoapValue::Text("c".into()),
        ]));
        let b = fingerprint(&SoapValue::List(vec![
            SoapValue::Text("a".into()),
            SoapValue::Text("bc".into()),
        ]));
        assert_ne!(a, b, "length prefixes must prevent concatenation aliasing");
        assert_ne!(
            fingerprint(&SoapValue::Int(1)),
            fingerprint(&SoapValue::Bool(true))
        );
        assert_eq!(
            fingerprint(&SoapValue::Double(0.5)),
            fingerprint(&SoapValue::Double(0.5))
        );
    }

    #[test]
    fn store_counts_hits_and_misses() {
        let store = AttachmentStore::new(1024);
        let (hash, payload) = stored(&text(10, 'x'));
        assert!(store.get(hash).is_none());
        store.insert(hash, payload);
        assert!(store.get(hash).is_some());
        assert!(store.get(hash).is_some());
        let stats = store.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 10);
    }

    #[test]
    fn store_evicts_lru_first() {
        // Capacity fits two 10-byte payloads; touching A must make B
        // the victim when C arrives.
        let store = AttachmentStore::new(20);
        let (ha, pa) = stored(&text(10, 'a'));
        let (hb, pb) = stored(&text(10, 'b'));
        let (hc, pc) = stored(&text(10, 'c'));
        store.insert(ha, pa);
        store.insert(hb, pb);
        assert!(store.get(ha).is_some(), "touch A");
        store.insert(hc, pc);
        assert!(store.contains(ha), "recently used survives");
        assert!(!store.contains(hb), "LRU entry is evicted");
        assert!(store.contains(hc));
        assert_eq!(store.stats().evictions, 1);
        assert!(store.bytes() <= 20);
    }

    #[test]
    fn store_rejects_oversized_payloads() {
        let store = AttachmentStore::new(8);
        let (h, p) = stored(&text(100, 'z'));
        store.insert(h, p);
        assert!(store.is_empty(), "oversized payloads are not cached");
    }

    #[test]
    fn oversized_insert_rejected_without_disturbing_residents() {
        // A payload larger than the whole store must bounce at the
        // door: admitting it would evict every resident and then still
        // overflow, leaving an empty store that also failed to cache
        // the newcomer — the worst of both.
        let store = AttachmentStore::new(50);
        let (ha, pa) = stored(&text(20, 'a'));
        let (hb, pb) = stored(&text(20, 'b'));
        store.insert(ha, pa);
        store.insert(hb, pb);
        let before = store.stats();

        let (hbig, pbig) = stored(&text(51, 'z'));
        store.insert(hbig, pbig);
        assert!(
            store.contains(ha) && store.contains(hb),
            "residents survive"
        );
        assert!(!store.contains(hbig));
        let after = store.stats();
        assert_eq!(after.evictions, before.evictions, "no eviction churn");
        assert_eq!(
            after.insertions, before.insertions,
            "a rejected payload is not an insertion"
        );
        assert_eq!(after.entries, 2);
        assert_eq!(after.bytes, 40);

        // Boundary: a payload exactly at capacity IS admissible — it
        // evicts the residents and sits alone.
        let (hfit, pfit) = stored(&text(50, 'f'));
        store.insert(hfit, pfit);
        assert!(store.contains(hfit));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), 50);
        let fitted = store.stats();
        assert_eq!(fitted.insertions, before.insertions + 1);
        assert_eq!(fitted.evictions, before.evictions + 2);
        // Counter discipline holds throughout.
        assert_eq!(fitted.lookups, fitted.hits + fitted.misses);
    }

    #[test]
    fn store_recapacity_evicts() {
        let store = AttachmentStore::new(100);
        for fill in ['a', 'b', 'c'] {
            let (h, p) = stored(&text(30, fill));
            store.insert(h, p);
        }
        assert_eq!(store.len(), 3);
        store.set_capacity(40);
        assert_eq!(store.len(), 1);
        let (hc, _) = stored(&text(30, 'c'));
        assert!(store.contains(hc), "most recent payload survives");
    }

    #[test]
    fn payload_roundtrip() {
        for v in [text(5, 'q'), SoapValue::Bytes(vec![1, 2, 3])] {
            let p = Payload::from_value(&v).unwrap();
            assert_eq!(p.to_value(), v);
            assert!(!p.is_empty());
        }
        assert!(Payload::from_value(&SoapValue::Null).is_none());
    }

    #[test]
    fn lru_map_eviction_order_and_stats() {
        let cache: LruMap<u32, String> = LruMap::new(2);
        cache.insert(1, "one".into());
        cache.insert(2, "two".into());
        assert_eq!(cache.get(1).as_deref(), Some("one"));
        cache.insert(3, "three".into());
        assert!(!cache.contains(2), "LRU entry evicted");
        assert!(cache.contains(1) && cache.contains(3));
        assert!(cache.get(2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn lru_map_replace_keeps_len() {
        let cache: LruMap<u32, u32> = LruMap::new(4);
        cache.insert(1, 10);
        cache.insert(1, 11);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(1), Some(11));
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn stores_are_thread_safe() {
        let store = Arc::new(AttachmentStore::new(1 << 20));
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let v = SoapValue::Text(format!("t{t}-{i}"));
                    let r = content_ref(&v).unwrap();
                    store.insert(r.hash, Payload::from_value(&v).unwrap());
                    assert!(store.get(r.hash).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 400);
    }

    /// splitmix64: the model test's seeded operation stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// What an [`LruMap`] must do, kept naively: its entries in a
    /// `Vec`, least recently used first, and the counters it should
    /// report.
    struct Model<V> {
        entries: Vec<(u128, V)>,
        capacity: usize,
        /// The least capacity the map takes.
        floor: usize,
        weigh: fn(&V) -> usize,
        /// Whether `CacheStats::bytes` reports the weight held.
        in_bytes: bool,
        counted: CacheStats,
    }

    impl<V: Clone> Model<V> {
        fn new(capacity: usize, floor: usize, weigh: fn(&V) -> usize, in_bytes: bool) -> Self {
            Model {
                entries: Vec::new(),
                capacity: capacity.max(floor),
                floor,
                weigh,
                in_bytes,
                counted: CacheStats::default(),
            }
        }

        fn position(&self, key: u128) -> Option<usize> {
            self.entries.iter().position(|(k, _)| *k == key)
        }

        fn refresh(&mut self, at: usize) {
            let entry = self.entries.remove(at);
            self.entries.push(entry);
        }

        fn weight(&self) -> usize {
            self.entries.iter().map(|(_, v)| (self.weigh)(v)).sum()
        }

        /// Evict from the least recent end until the weight fits;
        /// returns the evicted keys in eviction order.
        fn shrink(&mut self) -> Vec<u128> {
            let mut evicted = Vec::new();
            while self.weight() > self.capacity {
                evicted.push(self.entries.remove(0).0);
            }
            self.counted.evictions += evicted.len() as u64;
            evicted
        }

        fn get(&mut self, key: u128) -> Option<V> {
            self.counted.lookups += 1;
            let Some(at) = self.position(key) else {
                self.counted.misses += 1;
                return None;
            };
            self.counted.hits += 1;
            self.refresh(at);
            self.entries.last().map(|(_, v)| v.clone())
        }

        fn insert(&mut self, key: u128, value: V) -> Vec<u128> {
            if (self.weigh)(&value) > self.capacity {
                return Vec::new();
            }
            match self.position(key) {
                Some(at) => {
                    self.entries.remove(at);
                }
                None => self.counted.insertions += 1,
            }
            self.entries.push((key, value));
            self.shrink()
        }

        fn touch(&mut self, key: u128) -> bool {
            let held = self.position(key);
            if let Some(at) = held {
                self.refresh(at);
            }
            held.is_some()
        }

        fn set_capacity(&mut self, capacity: usize) -> Vec<u128> {
            self.capacity = capacity.max(self.floor);
            self.shrink()
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                entries: self.entries.len(),
                bytes: if self.in_bytes { self.weight() } else { 0 },
                ..self.counted
            }
        }
    }

    /// The map's entries, least recently used first, values rendered.
    fn by_recency<V: std::fmt::Debug, W>(map: &LruMap<u128, V, W>) -> Vec<(u128, String)> {
        let inner = map.inner.lock();
        inner
            .order
            .values()
            .map(|k| (*k, format!("{:?}", inner.map[k].0)))
            .collect()
    }

    /// Run seeded operations on `map` and `model` side by side. After
    /// every step the results, the contents in recency order, the keys
    /// evicted and every `CacheStats` field must agree. Keys come from
    /// a universe of six, and `value` and `capacities` decide how often
    /// an entry outweighs the whole map.
    fn follow_the_model<V, W>(
        seed: u64,
        map: LruMap<u128, V, W>,
        mut model: Model<V>,
        value: impl Fn(&mut Rng) -> V,
        capacities: u64,
    ) where
        V: Clone + std::fmt::Debug,
        W: Weigh<V>,
    {
        let shown = |v: V| format!("{v:?}");
        let mut rng = Rng(seed);
        for step in 0..300 {
            let key = u128::from(rng.below(6));
            let before = by_recency(&map);
            let (op, evicted) = match rng.below(20) {
                0..=5 => {
                    let got = map.get(key).map(shown);
                    assert_eq!(
                        got,
                        model.get(key).map(shown),
                        "seed {seed} step {step} get"
                    );
                    ("get", Vec::new())
                }
                6..=12 => {
                    let v = value(&mut rng);
                    map.insert(key, v.clone());
                    ("insert", model.insert(key, v))
                }
                13..=14 => {
                    let held = model.touch(key);
                    assert_eq!(map.touch(key), held, "seed {seed} step {step} touch");
                    ("touch", Vec::new())
                }
                15..=16 => {
                    let held = model.position(key).is_some();
                    assert_eq!(map.contains(key), held, "seed {seed} step {step} contains");
                    ("contains", Vec::new())
                }
                17..=18 => {
                    let capacity = rng.below(capacities) as usize;
                    map.set_capacity(capacity);
                    ("set_capacity", model.set_capacity(capacity))
                }
                _ => {
                    map.clear();
                    model.entries.clear();
                    ("clear", Vec::new())
                }
            };
            let after = by_recency(&map);
            let wanted: Vec<(u128, String)> = model
                .entries
                .iter()
                .map(|(k, v)| (*k, format!("{v:?}")))
                .collect();
            assert_eq!(after, wanted, "seed {seed} step {step} {op}: contents");
            if op != "clear" {
                let gone: Vec<u128> = before
                    .iter()
                    .map(|(k, _)| *k)
                    .filter(|k| after.iter().all(|(held, _)| held != k))
                    .collect();
                assert_eq!(gone, evicted, "seed {seed} step {step} {op}: evicted");
            }
            assert_eq!(
                map.capacity(),
                model.capacity,
                "seed {seed} step {step} {op}"
            );
            assert_eq!(map.stats(), model.stats(), "seed {seed} step {step} {op}");
        }
    }

    #[test]
    fn weighted_lru_matches_the_reference_model() {
        for seed in 0..64 {
            // Byte-weighted: payload lengths reach past the capacity,
            // so some payloads outweigh the whole store.
            for capacity in [0, 1, 40] {
                let span = capacity as u64 * 3 / 2 + 3;
                follow_the_model(
                    seed,
                    AttachmentStore::new(capacity),
                    Model::new(capacity, 0, Payload::len, true),
                    |rng| {
                        let fill = char::from(b'a' + rng.below(4) as u8);
                        Payload::Text(fill.to_string().repeat(rng.below(span) as usize).into())
                    },
                    capacity as u64 * 2 + 2,
                );
            }
            // Entry-bounded: capacity 0 takes one entry.
            for capacity in [0, 1, 3] {
                follow_the_model(
                    seed,
                    LruMap::<u128, u64>::new(capacity),
                    Model::new(capacity, 1, |_| 1, false),
                    |rng| rng.below(1000),
                    capacity as u64 * 2 + 2,
                );
            }
        }
    }
}

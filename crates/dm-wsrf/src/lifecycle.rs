//! Instance lifecycle management — the machinery behind the paper's one
//! quantitative finding (§4.5):
//!
//! > "when the J48 Web Service was invoked a number of times an
//! > instance of the service was created as an object for each
//! > invocation; if an object already existed this had to be re-built
//! > from its serialised state on disk. On completion of the invocation
//! > the state of the object was recorded: it was serialised and stored
//! > to disk. … To overcome this performance penalty a harness was
//! > implemented that maintained an algorithm instance object in
//! > memory, thereby preventing the Web Services infrastructure from
//! > serialising the object at the completion of each invocation."
//!
//! [`LifecyclePolicy::SerializePerCall`] reproduces the default Axis
//! behaviour (state bytes written to and re-read from a disk-backed
//! [`InstanceStore`] around every call); [`LifecyclePolicy::InMemoryHarness`]
//! is the paper's fix (instances pinned in a typed in-memory cache).
//! Experiment E4 benchmarks one against the other.

use crate::error::{Result, WsError};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which lifecycle the container applies to algorithm instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecyclePolicy {
    /// Default Axis behaviour: rebuild from serialised state before the
    /// call, serialise back to disk after it.
    SerializePerCall,
    /// The paper's harness: keep the live instance in memory.
    InMemoryHarness,
}

/// A disk-backed store of serialised instance state (one file per key).
/// Its directory is made by the first save, so a store that never
/// saves leaves nothing on disk.
#[derive(Debug)]
pub struct InstanceStore {
    dir: PathBuf,
}

impl InstanceStore {
    /// Create a store rooted in a fresh unique directory under the
    /// system temp dir.
    pub fn temp() -> Result<InstanceStore> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("faehim-instances-{}-{n}", std::process::id()));
        Ok(InstanceStore { dir })
    }

    /// Create a store in an explicit directory.
    pub fn at(dir: PathBuf) -> Result<InstanceStore> {
        Ok(InstanceStore { dir })
    }

    fn path(&self, key: &str) -> PathBuf {
        // Keys may contain separators; flatten defensively.
        let safe: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.join(format!("{safe}.state"))
    }

    /// Persist state bytes for `key`, overwriting the file in place:
    /// write, then cut it to length. Truncating to zero first costs a
    /// flush on close on some file systems (ext4's `auto_da_alloc`).
    /// Neither is crash-safe, and need not be: the paper's Axis store
    /// was a plain file too, and the store never outlives its process.
    pub fn save(&self, key: &str, bytes: &[u8]) -> Result<()> {
        let path = self.path(key);
        let open = || {
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
        };
        let mut file = match open() {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                fs::create_dir_all(&self.dir).and_then(|()| open())
            }
            opened => opened,
        }
        .map_err(store_error)?;
        file.write_all(bytes)
            .and_then(|()| file.set_len(bytes.len() as u64))
            .map_err(store_error)
    }

    /// Load state bytes for `key`, or `None` if never saved.
    pub fn load(&self, key: &str) -> Result<Option<Vec<u8>>> {
        match fs::read(self.path(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(store_error(e)),
        }
    }

    /// Remove the state for `key` (idempotent).
    pub fn remove(&self, key: &str) -> Result<()> {
        match fs::remove_file(self.path(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(store_error(e)),
        }
    }
}

fn store_error(e: std::io::Error) -> WsError {
    WsError::Store(e.to_string())
}

impl Drop for InstanceStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Per-service lifecycle manager: a policy, the disk store, and the
/// in-memory cache. The cache holds `Arc<dyn Any>` so the manager stays
/// agnostic of the algorithm crate; services downcast to their model
/// type.
pub struct LifecycleManager {
    policy: Mutex<LifecyclePolicy>,
    store: InstanceStore,
    cache: Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>,
    /// Counters for the E4 report.
    serializations: AtomicU64,
    deserializations: AtomicU64,
    cache_hits: AtomicU64,
}

impl LifecycleManager {
    /// Create with the given policy and a fresh temp store.
    pub fn new(policy: LifecyclePolicy) -> Result<LifecycleManager> {
        Ok(LifecycleManager {
            policy: Mutex::new(policy),
            store: InstanceStore::temp()?,
            cache: Mutex::new(HashMap::new()),
            serializations: AtomicU64::new(0),
            deserializations: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        })
    }

    /// The current policy.
    pub fn policy(&self) -> LifecyclePolicy {
        *self.policy.lock()
    }

    /// Switch policy (clears the in-memory cache when leaving the
    /// harness, as undeploying the harness would).
    pub fn set_policy(&self, policy: LifecyclePolicy) {
        let mut p = self.policy.lock();
        if *p == LifecyclePolicy::InMemoryHarness && policy != *p {
            self.cache.lock().clear();
        }
        *p = policy;
    }

    /// Run `call` against the instance for `key`, applying the policy.
    ///
    /// * `restore(bytes)` rebuilds an instance from serialised state;
    /// * `fresh()` creates a brand-new instance when none exists;
    /// * `persist(&T)` serialises the (possibly mutated) instance;
    /// * `call(&mut T)` is the actual operation.
    ///
    /// Under `SerializePerCall`, the sequence is exactly the paper's:
    /// load-or-create → deserialise → call → serialise → store. Under
    /// `InMemoryHarness` the live instance stays pinned in the cache
    /// (behind a mutex, as the paper's harness kept the Java object in
    /// memory) and no bytes are produced.
    pub fn with_instance<T, R>(
        &self,
        key: &str,
        fresh: impl FnOnce() -> T,
        restore: impl FnOnce(&[u8]) -> Result<T>,
        persist: impl FnOnce(&T) -> Vec<u8>,
        call: impl FnOnce(&mut T) -> R,
    ) -> Result<R>
    where
        T: Send + 'static,
    {
        match self.policy() {
            LifecyclePolicy::SerializePerCall => {
                let mut instance = match self.store.load(key)? {
                    Some(bytes) => {
                        self.deserializations.fetch_add(1, Ordering::Relaxed);
                        restore(&bytes)?
                    }
                    None => fresh(),
                };
                let result = call(&mut instance);
                let bytes = persist(&instance);
                self.serializations.fetch_add(1, Ordering::Relaxed);
                self.store.save(key, &bytes)?;
                Ok(result)
            }
            LifecyclePolicy::InMemoryHarness => {
                let cached: Option<Arc<dyn Any + Send + Sync>> =
                    self.cache.lock().get(key).cloned();
                match cached {
                    Some(arc) => {
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                        let cell = arc.downcast_ref::<Mutex<T>>().ok_or_else(|| {
                            WsError::Store(format!("cached instance for {key:?} has wrong type"))
                        })?;
                        Ok(call(&mut cell.lock()))
                    }
                    None => {
                        let mut instance = fresh();
                        let result = call(&mut instance);
                        self.cache
                            .lock()
                            .insert(key.to_string(), Arc::new(Mutex::new(instance)));
                        Ok(result)
                    }
                }
            }
        }
    }

    /// `(serialisations, deserialisations, cache_hits)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.serializations.load(Ordering::Relaxed),
            self.deserializations.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
        )
    }

    /// Drop all cached and stored state for `key`.
    pub fn evict(&self, key: &str) -> Result<()> {
        self.cache.lock().remove(key);
        self.store.remove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Counter {
        n: u64,
    }

    fn encode(c: &Counter) -> Vec<u8> {
        c.n.to_le_bytes().to_vec()
    }

    fn decode(b: &[u8]) -> Result<Counter> {
        let arr: [u8; 8] = b
            .try_into()
            .map_err(|_| WsError::Store("bad counter state".into()))?;
        Ok(Counter {
            n: u64::from_le_bytes(arr),
        })
    }

    fn bump(mgr: &LifecycleManager, key: &str) -> u64 {
        mgr.with_instance(
            key,
            || Counter { n: 0 },
            decode,
            encode,
            |c| {
                c.n += 1;
                c.n
            },
        )
        .unwrap()
    }

    #[test]
    fn serialize_per_call_persists_across_calls() {
        let mgr = LifecycleManager::new(LifecyclePolicy::SerializePerCall).unwrap();
        assert_eq!(bump(&mgr, "k"), 1);
        assert_eq!(bump(&mgr, "k"), 2);
        assert_eq!(bump(&mgr, "k"), 3);
        let (ser, de, hits) = mgr.stats();
        assert_eq!(ser, 3);
        assert_eq!(de, 2); // first call creates fresh
        assert_eq!(hits, 0);
    }

    #[test]
    fn harness_keeps_instance_in_memory() {
        let mgr = LifecycleManager::new(LifecyclePolicy::InMemoryHarness).unwrap();
        assert_eq!(bump(&mgr, "k"), 1);
        assert_eq!(bump(&mgr, "k"), 2);
        let (ser, de, hits) = mgr.stats();
        assert_eq!(ser, 0, "harness must not serialise");
        assert_eq!(de, 0);
        assert_eq!(hits, 1);
    }

    #[test]
    fn keys_are_isolated() {
        let mgr = LifecycleManager::new(LifecyclePolicy::SerializePerCall).unwrap();
        assert_eq!(bump(&mgr, "a"), 1);
        assert_eq!(bump(&mgr, "b"), 1);
        assert_eq!(bump(&mgr, "a"), 2);
    }

    #[test]
    fn policy_switch_clears_cache() {
        let mgr = LifecycleManager::new(LifecyclePolicy::InMemoryHarness).unwrap();
        assert_eq!(bump(&mgr, "k"), 1);
        mgr.set_policy(LifecyclePolicy::SerializePerCall);
        // No disk state was ever written by the harness → fresh start.
        assert_eq!(bump(&mgr, "k"), 1);
    }

    #[test]
    fn evict_resets() {
        let mgr = LifecycleManager::new(LifecyclePolicy::SerializePerCall).unwrap();
        bump(&mgr, "k");
        bump(&mgr, "k");
        mgr.evict("k").unwrap();
        assert_eq!(bump(&mgr, "k"), 1);
    }

    #[test]
    fn store_roundtrip_and_missing() {
        let store = InstanceStore::temp().unwrap();
        assert_eq!(store.load("missing").unwrap(), None);
        store.save("model", &[1, 2, 3]).unwrap();
        assert_eq!(store.load("model").unwrap(), Some(vec![1, 2, 3]));
        store.remove("model").unwrap();
        assert_eq!(store.load("model").unwrap(), None);
        store.remove("model").unwrap(); // idempotent
    }

    #[test]
    fn store_makes_its_directory_on_the_first_save_and_overwrites_in_place() {
        let store = InstanceStore::temp().unwrap();
        assert!(!store.dir.exists(), "no save, no directory");
        assert_eq!(store.load("k").unwrap(), None);
        store.remove("k").unwrap();
        store.save("k", &[7; 300]).unwrap();
        assert!(store.dir.is_dir());
        // Shorter, then longer, state leaves no stale tail.
        store.save("k", &[1, 2, 3]).unwrap();
        assert_eq!(store.load("k").unwrap(), Some(vec![1, 2, 3]));
        store.save("k", &[5; 10]).unwrap();
        assert_eq!(store.load("k").unwrap(), Some(vec![5; 10]));
        store.save("k", &[]).unwrap();
        assert_eq!(store.load("k").unwrap(), Some(vec![]));
        let dir = store.dir.clone();
        drop(store);
        assert!(!dir.exists(), "drop removes the directory");
        let explicit = InstanceStore::at(dir.clone()).unwrap();
        assert!(!dir.exists());
        explicit.save("k", &[9]).unwrap();
        assert_eq!(explicit.load("k").unwrap(), Some(vec![9]));
    }

    #[test]
    fn hostile_keys_flattened() {
        let store = InstanceStore::temp().unwrap();
        store.save("../../etc/passwd", &[9]).unwrap();
        assert_eq!(store.load("../../etc/passwd").unwrap(), Some(vec![9]));
    }
}

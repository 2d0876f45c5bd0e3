//! Memoised enactment: a cache of pure-task results keyed by the
//! tool's identity and the content fingerprints of its input tokens.
//!
//! Re-enacting a workflow whose inputs have not changed is a common
//! pattern in exploratory data mining ("run the case study again with
//! one parameter tweaked"); tasks declared pure ([`Tool::is_pure`])
//! can skip execution entirely when the cache already holds their
//! outputs for the same inputs. Combined with the pass-by-reference
//! data plane ([`dm_wsrf::dataplane`]) this is what makes warm re-runs
//! move almost no wire bytes.

use crate::graph::{Token, Tool};
use dm_wsrf::dataplane::{fingerprint, CacheStats, Hasher128, LruMap};

/// Default entry capacity for a [`MemoCache`].
pub const DEFAULT_MEMO_CAPACITY: usize = 1024;

/// Compute the memo key for a tool identity and a set of input tokens.
///
/// The key mixes the identity string (length-prefixed, so `"ab" + "c"`
/// and `"a" + "bc"` differ) with the structural
/// [`fingerprint`] of every input token, in port order.
pub fn memo_key(identity: &str, inputs: &[Token]) -> u128 {
    let mut h = Hasher128::new();
    h.write(&(identity.len() as u64).to_le_bytes());
    h.write(identity.as_bytes());
    for token in inputs {
        h.write(&fingerprint(token).to_le_bytes());
    }
    h.finish()
}

/// An entry-bounded LRU cache of pure-task outputs, shared across
/// executors and runs (wrap it in an `Arc` and hand it to
/// [`crate::engine::Executor::with_memoisation`]).
#[derive(Debug)]
pub struct MemoCache {
    entries: LruMap<u128, Vec<Token>>,
}

impl Default for MemoCache {
    fn default() -> MemoCache {
        MemoCache::new(DEFAULT_MEMO_CAPACITY)
    }
}

impl MemoCache {
    /// Create a cache holding at most `capacity` task results.
    pub fn new(capacity: usize) -> MemoCache {
        MemoCache {
            entries: LruMap::new(capacity),
        }
    }

    /// Key derivation for `tool` applied to `inputs`; `None` when the
    /// tool is not pure (impure tasks are never memoised).
    pub fn key_for(&self, tool: &dyn Tool, inputs: &[Token]) -> Option<u128> {
        if tool.is_pure() {
            Some(memo_key(&tool.memo_identity(), inputs))
        } else {
            None
        }
    }

    /// Look up cached outputs (counts a hit or miss).
    pub fn get(&self, key: u128) -> Option<Vec<Token>> {
        self.entries.get(key)
    }

    /// Store the outputs of a successful pure-task execution.
    pub fn insert(&self, key: u128, outputs: Vec<Token>) {
        self.entries.insert(key, outputs);
    }

    /// Re-seed the cache with a known result for `tool` applied to
    /// `inputs`, without executing the tool. Used by durable replay
    /// ([`crate::durable`]) to restore memo entries a dead process had
    /// built, so memo hits survive crash recovery. Returns `false`
    /// (and stores nothing) for impure tools.
    pub fn populate(&self, tool: &dyn Tool, inputs: &[Token], outputs: Vec<Token>) -> bool {
        match self.key_for(tool, inputs) {
            Some(key) => {
                self.entries.insert(key, outputs);
                true
            }
            None => false,
        }
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot (lookups, hits, misses, insertions, evictions).
    pub fn stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// Drop all cached results (counters survive).
    pub fn clear(&self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_separate_identity_and_inputs() {
        let a = memo_key("tool-a", &[Token::Text("x".into())]);
        let b = memo_key("tool-b", &[Token::Text("x".into())]);
        let c = memo_key("tool-a", &[Token::Text("y".into())]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Length prefix keeps identity bytes from bleeding into input
        // fingerprints.
        let d = memo_key("ab", &[]);
        let e = memo_key("a", &[Token::Text("b".into())]);
        assert_ne!(d, e);
        // Deterministic.
        assert_eq!(a, memo_key("tool-a", &[Token::Text("x".into())]));
    }

    #[test]
    fn cache_round_trip_and_counters() {
        let cache = MemoCache::new(8);
        let key = memo_key("t", &[Token::Int(1)]);
        assert!(cache.get(key).is_none());
        cache.insert(key, vec![Token::Int(2)]);
        assert_eq!(cache.get(key), Some(vec![Token::Int(2)]));
        let stats = cache.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.misses, stats.lookups);
    }

    #[test]
    fn capacity_bounds_entries() {
        let cache = MemoCache::new(2);
        for i in 0..5 {
            cache.insert(memo_key("t", &[Token::Int(i)]), vec![Token::Int(i)]);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 3);
    }
}

//! The server-side plan + answer cache.
//!
//! Two memoizations sit in front of the engine:
//!
//! - a **plan cache** (`Lru<String, Arc<Prepared>>`) so ad-hoc `query`
//!   frames pay the SQL layer once per distinct statement text — the
//!   repo's parity suite already proves prepared execution is
//!   bit-identical to ad-hoc execution, so serving ad-hoc frames through
//!   cached plans changes no answer;
//! - an **answer cache** keyed on `(table, plan fingerprint, bound
//!   literals, effective options, validity token)`, holding the
//!   *canonical outcome bytes* ([`crate::wire::encode_outcome`]).
//!
//! ## Why a hit can never be stale
//!
//! The validity token is [`verdict::Prepared::cache_token`]:
//! `(model_epoch, data_epoch)` of the table's published snapshot. Those
//! epochs move on exactly the mutations that can change a future answer
//! — training, ingest, forget, restore — and **not** on the synopsis
//! recording every answered query performs, so answers are a pure
//! function of the token (plus the plan and its literals). The server
//! reads the token *before* running a query and inserts the answer only
//! if the token is *unchanged afterwards* (see
//! [`crate::server`]): a concurrent train/ingest between the two reads
//! voids the insert, and a hit is served only while the live token still
//! equals the key's. Every path to a stale answer therefore fails the
//! equality check — correctness by construction, no TTLs, no explicit
//! invalidation calls. Epoch bumps *are* the invalidation: a bump makes
//! every key holding the old token unreachable (evicted by LRU churn).
//!
//! Tables under round-robin sample rotation return no token at all
//! (repeat runs legitimately differ), so they bypass the cache instead
//! of poisoning it.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use verdict_core::persist::{Encoder, Persist};

use crate::wire::{encode_options, WireOptions};
use verdict::storage::Value;
#[cfg(test)]
use verdict::Mode;

/// A plain LRU map: `HashMap` for lookup plus a `BTreeMap` recency index
/// ordered by a monotone touch sequence. O(log n) per touch, no unsafe,
/// no intrusive lists.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    seq: u64,
    map: HashMap<K, (V, u64)>,
    recency: BTreeMap<u64, K>,
}

impl<K: Clone + Eq + Hash, V: Clone> Lru<K, V> {
    /// A cache holding at most `capacity` entries. Capacity 0 disables
    /// it: every lookup misses, every insert is dropped.
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            capacity,
            seq: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let next = self.seq;
        let entry = self.map.get_mut(key)?;
        self.recency.remove(&entry.1);
        entry.1 = next;
        self.recency.insert(next, key.clone());
        self.seq += 1;
        Some(entry.0.clone())
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when full. Returns whether an eviction happened.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some((_, old_seq)) = self.map.remove(&key) {
            self.recency.remove(&old_seq);
        }
        let mut evicted = false;
        if self.map.len() == self.capacity {
            if let Some(oldest) = self.recency.keys().next().copied() {
                if let Some(victim) = self.recency.remove(&oldest) {
                    self.map.remove(&victim);
                    evicted = true;
                }
            }
        }
        self.recency.insert(self.seq, key.clone());
        self.map.insert(key, (value, self.seq));
        self.seq += 1;
        evicted
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
    }
}

/// An answer-cache key: the canonical byte string of everything an
/// answer is a function of. Byte equality ⇔ same table, same compiled
/// plan, same bound literals, same effective execution options, same
/// validity token.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnswerKey(Vec<u8>);

impl AnswerKey {
    /// Builds the key. `token` is the table's `(model_epoch,
    /// data_epoch)` validity token; `options` must be the *effective*
    /// options (after any admission-control degradation), since a
    /// degraded run answers a different question than a learn-path run.
    pub fn new(
        table: &str,
        fingerprint: u64,
        params: &[Value],
        options: &WireOptions,
        token: (u64, u64),
    ) -> AnswerKey {
        let mut enc = Encoder::new();
        enc.put_str(table);
        enc.put_u64(fingerprint);
        // `Vec<Value>`'s `Persist` layout, without copying the slice.
        enc.put_len(params.len());
        for p in params {
            p.encode(&mut enc);
        }
        encode_options(&mut enc, options)
            .expect("options decoded from the wire encode back onto it");
        enc.put_u64(token.0);
        enc.put_u64(token.1);
        AnswerKey(enc.into_bytes())
    }
}

/// A memoized answer: the canonical outcome bytes, shared.
pub type CachedAnswer = Arc<Vec<u8>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        assert!(!lru.insert(1, 10));
        assert!(!lru.insert(2, 20));
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(lru.get(&1), Some(10));
        assert!(lru.insert(3, 30));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
    }

    #[test]
    fn lru_refresh_does_not_evict() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        // Refreshing an existing key must not evict anything.
        assert!(!lru.insert(1, 11));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some(11));
        assert_eq!(lru.get(&2), Some(20));
    }

    #[test]
    fn zero_capacity_lru_is_inert() {
        let mut lru: Lru<u32, u32> = Lru::new(0);
        assert!(!lru.insert(1, 10));
        assert_eq!(lru.get(&1), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn answer_keys_separate_every_dimension() {
        let base = AnswerKey::new("t", 7, &[Value::Num(1.0)], &WireOptions::default(), (0, 0));
        assert_eq!(
            base,
            AnswerKey::new("t", 7, &[Value::Num(1.0)], &WireOptions::default(), (0, 0))
        );
        // Table, fingerprint, literal, mode, and token each distinguish.
        assert_ne!(
            base,
            AnswerKey::new("u", 7, &[Value::Num(1.0)], &WireOptions::default(), (0, 0))
        );
        assert_ne!(
            base,
            AnswerKey::new("t", 8, &[Value::Num(1.0)], &WireOptions::default(), (0, 0))
        );
        assert_ne!(
            base,
            AnswerKey::new("t", 7, &[Value::Num(2.0)], &WireOptions::default(), (0, 0))
        );
        let no_learn = WireOptions {
            mode: Mode::NoLearn,
            ..Default::default()
        };
        assert_ne!(
            base,
            AnswerKey::new("t", 7, &[Value::Num(1.0)], &no_learn, (0, 0))
        );
        assert_ne!(
            base,
            AnswerKey::new("t", 7, &[Value::Num(1.0)], &WireOptions::default(), (1, 0))
        );
        assert_ne!(
            base,
            AnswerKey::new("t", 7, &[Value::Num(1.0)], &WireOptions::default(), (0, 1))
        );
    }
}

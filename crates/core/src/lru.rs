//! A sharded cache with exact least-recently-used eviction in `O(1)`.
//!
//! [`ShardedLru`] backs both caches of the estimation path: the service's
//! text → parsed-plan cache and the per-snapshot
//! [`crate::CompiledPlanCache`]. Each shard is a mutex over a hash map
//! from key to slot and a slab of nodes doubly linked in recency order
//! (most recent at the head). A hit moves its node to the head; an insert
//! into a full shard unlinks the tail, drops the tail's key from the map
//! and reuses its slot. Every operation is a constant number of map and
//! slab steps, whatever the shard holds, so the shard count only decides
//! how rarely two threads contend for one lock.
//!
//! The caller picks the shard: every operation takes a `hash`, and the
//! shard is `hash % shards`. A caller hashes its key once per lookup and
//! passes the same hash to [`ShardedLru::get`] and, on a miss,
//! [`ShardedLru::insert`]. Values are handed out by clone, so they are
//! cheap handles (`Arc`s) in practice. No code that can panic runs while
//! a shard is locked in the middle of an update, so a poisoned shard is
//! still consistent and is used as is.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard};

/// The null link; also bounds the slot count of one shard.
const NIL: u32 = u32::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    /// The next more recently used node.
    prev: u32,
    /// The next less recently used node.
    next: u32,
}

/// One lock's worth of cache. Every slot in `nodes` is linked into the
/// list and indexed by `map`, so `map.len() == nodes.len()` always.
struct Shard<K, V> {
    map: HashMap<K, u32>,
    nodes: Vec<Node<K, V>>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next victim.
    tail: u32,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.nodes[next as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let head = self.head;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = head;
        match head {
            NIL => self.tail = slot,
            head => self.nodes[head as usize].prev = slot,
        }
        self.head = slot;
    }

    fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.map.get(key)?;
        if slot != self.head {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(self.nodes[slot as usize].value.clone())
    }

    fn insert(&mut self, key: K, value: V, capacity: usize) {
        if self.map.contains_key(&key) {
            return;
        }
        let slot = if self.nodes.len() < capacity {
            self.nodes.push(Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            let node = &mut self.nodes[victim as usize];
            let old_key = std::mem::replace(&mut node.key, key.clone());
            node.value = value;
            self.map.remove(&old_key);
            victim
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        debug_assert_eq!(self.map.len(), self.nodes.len());
    }
}

/// A cache of `shards` independent exact-LRU shards. See the module docs.
pub struct ShardedLru<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    shard_capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a cache of `shards` shards holding about `capacity` entries
    /// in total: each shard holds `capacity / shards`, rounded up. Both
    /// values are clamped to at least 1.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity: capacity.div_ceil(shards).clamp(1, NIL as usize),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Entries one shard holds before it evicts.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard<K, V>> {
        self.shards[(hash % self.shards.len() as u64) as usize]
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Returns a clone of the value cached under `key` in the shard
    /// `hash` selects, and marks it most recently used.
    pub fn get<Q>(&self, hash: u64, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard(hash).get(key)
    }

    /// Caches `value` under `key` in the shard `hash` selects, as its most
    /// recently used entry, evicting the shard's least recently used entry
    /// if the shard is full. If `key` is already cached (another thread
    /// inserted it first), the cached entry is kept and left where it is.
    pub fn insert(&self, hash: u64, key: K, value: V) {
        self.shard(hash).insert(key, value, self.shard_capacity);
    }

    /// Entries currently cached, over all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).map.len())
            .sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
        /// The keys of shard `index`, most recently used first, after
        /// checking that both link directions and the map agree.
        fn recency(&self, index: usize) -> Vec<K> {
            let shard = self.shards[index].lock().unwrap();
            let mut keys = Vec::new();
            let (mut slot, mut prev) = (shard.head, NIL);
            while slot != NIL {
                let node = &shard.nodes[slot as usize];
                assert_eq!(node.prev, prev, "broken back link");
                assert_eq!(shard.map.get(&node.key), Some(&slot), "map out of step");
                keys.push(node.key.clone());
                (prev, slot) = (slot, node.next);
                assert!(keys.len() <= shard.nodes.len(), "cycle in the list");
            }
            assert_eq!(shard.tail, prev);
            assert_eq!(keys.len(), shard.map.len());
            assert_eq!(keys.len(), shard.nodes.len());
            keys
        }
    }

    /// The reference model: per shard, a `Vec` of keys, most recently
    /// used first.
    struct NaiveLru {
        shards: Vec<Vec<u32>>,
        shard_capacity: usize,
    }

    impl NaiveLru {
        fn shard(&mut self, key: u32) -> &mut Vec<u32> {
            let n = self.shards.len();
            &mut self.shards[key as usize % n]
        }

        fn get(&mut self, key: u32) -> bool {
            let shard = self.shard(key);
            match shard.iter().position(|&k| k == key) {
                Some(at) => {
                    shard.remove(at);
                    shard.insert(0, key);
                    true
                }
                None => false,
            }
        }

        /// Returns the evicted key, if any.
        fn insert(&mut self, key: u32) -> Option<u32> {
            let capacity = self.shard_capacity;
            let shard = self.shard(key);
            if shard.contains(&key) {
                return None;
            }
            let victim = (shard.len() == capacity).then(|| shard.pop().unwrap());
            shard.insert(0, key);
            victim
        }
    }

    #[test]
    fn hit_refreshes_and_full_shard_evicts_the_tail() {
        let lru = ShardedLru::new(1, 2);
        lru.insert(0, "a", 1);
        lru.insert(0, "b", 2);
        assert_eq!(lru.get(0, "a"), Some(1));
        lru.insert(0, "c", 3);
        assert_eq!(lru.recency(0), ["c", "a"]);
        assert_eq!(lru.get(0, "b"), None);
        // A second insert of a cached key keeps the first value in place.
        lru.insert(0, "a", 9);
        assert_eq!(lru.recency(0), ["c", "a"]);
        assert_eq!(lru.get(0, "a"), Some(1));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_spreads_over_shards_rounding_up() {
        let lru = ShardedLru::<u64, ()>::new(3, 7);
        assert_eq!((lru.shard_count(), lru.shard_capacity()), (3, 3));
        let lru = ShardedLru::<u64, ()>::new(0, 0);
        assert_eq!((lru.shard_count(), lru.shard_capacity()), (1, 1));
        assert!(lru.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against the naive model, every operation agrees on hit or
        /// miss, every insert evicts the same victim, and every shard
        /// holds the same keys in the same recency order throughout.
        #[test]
        fn matches_a_naive_lru(
            capacity in 1usize..9,
            shards in 1usize..4,
            ops in prop::collection::vec((prop::bool::ANY, 0u32..12), 0..200),
        ) {
            let lru = ShardedLru::new(shards, capacity);
            let mut model = NaiveLru {
                shards: vec![Vec::new(); shards],
                shard_capacity: lru.shard_capacity(),
            };
            for &(is_insert, key) in &ops {
                let index = key as usize % shards;
                if is_insert {
                    let before = lru.recency(index);
                    lru.insert(u64::from(key), key, key * 10);
                    let after = lru.recency(index);
                    let victim = before.into_iter().find(|k| !after.contains(k));
                    prop_assert_eq!(victim, model.insert(key));
                } else {
                    let got = lru.get(u64::from(key), &key);
                    prop_assert_eq!(got.is_some(), model.get(key));
                    if let Some(value) = got {
                        prop_assert_eq!(value, key * 10);
                    }
                }
                for (i, keys) in model.shards.iter().enumerate() {
                    prop_assert_eq!(&lru.recency(i), keys);
                }
            }
        }
    }
}

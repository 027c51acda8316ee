//! A sharded LRU cache from [`ChainKey`](crate::quant::ChainKey) to the
//! serialized solve report.
//!
//! Shards are selected by key hash, so concurrent workers contend only
//! when they race on the same shard (1-in-`shards` for distinct chains).
//! Each shard keeps exact LRU order in O(1): a slab of slots threaded by a
//! doubly linked recency list, and a map from the key's hash to its slot.
//! A hit moves its slot to the front; a miss into a full shard reuses the
//! back slot for the new entry. Each key is hashed once per call, with a
//! hasher keyed at random per cache, and that one hash both picks the
//! shard and indexes the map, so the map holds a `u64` per entry and the
//! slot holds the key's only copy. Keys whose hashes collide share a map
//! entry and are chained through their slots.
//!
//! ### Staleness controls
//! Two mechanisms bound how long a cached body may be served:
//!
//! * **TTL** ([`SolverCache::with_ttl`]): every entry carries its insert
//!   instant; a lookup past the TTL treats the entry as a miss, removes
//!   it, and re-solves. Counted in [`SolverCache::expired`].
//! * **Quantum epoch** ([`SolverCache::invalidate_on_quantum_change`]):
//!   cache keys are quantized ticks, so two *different* quanta can map
//!   distinct chains onto the same tick vector. When the server's quantum
//!   is reconfigured the whole cache is dropped in one sweep — a key from
//!   the old epoch must never answer a request from the new one.

use crate::quant::ChainKey;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Marks the end of a list of slots.
const NIL: usize = usize::MAX;

/// A [`Hasher`] for keys that are already hashes. The shard was picked
/// from the low bits, which are the same for every key of a shard, so the
/// halves are swapped before the map uses them.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the map is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash.rotate_right(32);
    }
}

/// One cached entry, linked into its shard's recency list.
struct Slot {
    key: ChainKey,
    hash: u64,
    body: Arc<String>,
    inserted: Instant,
    /// The next more recently used slot, or [`NIL`].
    newer: usize,
    /// The next less recently used slot, or [`NIL`].
    older: usize,
    /// The next slot whose key has the same hash, or [`NIL`].
    same_hash: usize,
}

struct Shard {
    /// The first slot of each resident hash.
    index: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
    slots: Vec<Slot>,
    /// Slots an expired entry left free.
    free: Vec<usize>,
    /// The most recently used slot, or [`NIL`].
    newest: usize,
    /// The least recently used slot, or [`NIL`].
    oldest: usize,
    /// Resident entries.
    len: usize,
}

impl Shard {
    fn new() -> Self {
        Self {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            newest: NIL,
            oldest: NIL,
            len: 0,
        }
    }

    /// The slot holding `key`, whose hash is `hash`.
    fn find(&self, key: &ChainKey, hash: u64) -> Option<usize> {
        let mut i = *self.index.get(&hash)?;
        while self.slots[i].key != *key {
            i = self.slots[i].same_hash;
            if i == NIL {
                return None;
            }
        }
        Some(i)
    }

    /// Take slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (newer, older) = (self.slots[i].newer, self.slots[i].older);
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
    }

    /// Put slot `i` at the front of the recency list.
    fn push_newest(&mut self, i: usize) {
        self.slots[i].newer = NIL;
        self.slots[i].older = self.newest;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// Take slot `i`, already unlinked from the recency list, out of the
    /// index.
    fn forget(&mut self, i: usize) {
        let (hash, next) = (self.slots[i].hash, self.slots[i].same_hash);
        let first = self.index.get_mut(&hash).expect("a resident hash");
        if *first == i {
            match next {
                NIL => {
                    self.index.remove(&hash);
                }
                n => *first = n,
            }
        } else {
            let mut prev = *first;
            while self.slots[prev].same_hash != i {
                prev = self.slots[prev].same_hash;
            }
            self.slots[prev].same_hash = next;
        }
        self.len -= 1;
    }

    fn touch(&mut self, key: &ChainKey, hash: u64, ttl: Option<Duration>) -> TouchResult {
        let Some(i) = self.find(key, hash) else {
            return TouchResult::Miss;
        };
        self.unlink(i);
        if ttl.is_some_and(|ttl| self.slots[i].inserted.elapsed() > ttl) {
            self.forget(i);
            self.free.push(i);
            return TouchResult::Expired;
        }
        self.push_newest(i);
        TouchResult::Hit(Arc::clone(&self.slots[i].body))
    }

    fn insert(&mut self, key: &ChainKey, hash: u64, body: Arc<String>, capacity: usize) {
        if let Some(i) = self.find(key, hash) {
            // A racing worker inserted the key first: the later body wins.
            self.unlink(i);
            self.slots[i].body = body;
            self.slots[i].inserted = Instant::now();
            self.push_newest(i);
            return;
        }
        let slot = Slot {
            key: key.clone(),
            hash,
            body,
            inserted: Instant::now(),
            newer: NIL,
            older: NIL,
            same_hash: NIL,
        };
        let i = if self.len >= capacity {
            // Full: the least recently used entry gives up its slot.
            let i = self.oldest;
            self.unlink(i);
            self.forget(i);
            self.slots[i] = slot;
            i
        } else if let Some(i) = self.free.pop() {
            self.slots[i] = slot;
            i
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.push_newest(i);
        let first = self.index.entry(hash).or_insert(NIL);
        self.slots[i].same_hash = *first;
        *first = i;
        self.len += 1;
    }

    fn clear(&mut self) {
        *self = Self::new();
    }
}

enum TouchResult {
    Hit(Arc<String>),
    Miss,
    Expired,
}

/// Sharded LRU solver cache. Values are the serialized report bodies, so a
/// hit returns the exact bytes a cold solve produced.
pub struct SolverCache {
    shards: Vec<Mutex<Shard>>,
    /// Keyed at random per cache, so clients cannot pick keys that pile
    /// into one shard or one run of a shard's map.
    hasher: RandomState,
    capacity_per_shard: usize,
    ttl: Option<Duration>,
    /// The quantum the resident entries were keyed under (f64 bits;
    /// `u64::MAX` = not yet pinned).
    epoch_quantum_bits: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    expired: AtomicU64,
    invalidations: AtomicU64,
}

const EPOCH_UNSET: u64 = u64::MAX;

impl SolverCache {
    /// A cache with `shards` shards of `capacity_per_shard` entries each
    /// and no TTL (entries live until evicted or invalidated).
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        Self::with_ttl(shards, capacity_per_shard, None)
    }

    /// A cache whose entries additionally expire `ttl` after insertion.
    pub fn with_ttl(shards: usize, capacity_per_shard: usize, ttl: Option<Duration>) -> Self {
        assert!(shards > 0 && capacity_per_shard > 0);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            hasher: RandomState::new(),
            capacity_per_shard,
            ttl,
            epoch_quantum_bits: AtomicU64::new(EPOCH_UNSET),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// `key`'s hash and its shard.
    fn shard_of(&self, key: &ChainKey) -> (u64, &Mutex<Shard>) {
        let hash = self.hasher.hash_one(key);
        (hash, &self.shards[(hash as usize) % self.shards.len()])
    }

    /// Look up `key`, computing and inserting the body on a miss. Returns
    /// the body and whether it was a hit. `solve` runs outside the shard
    /// lock; when two workers race on the same cold key both solve and the
    /// later insert wins — harmless, since both bodies are identical by
    /// canonicalization. An entry past the TTL counts as a miss (and as
    /// [`expired`](SolverCache::expired)).
    pub fn get_or_insert(
        &self,
        key: &ChainKey,
        solve: impl FnOnce() -> String,
    ) -> (Arc<String>, bool) {
        let (hash, shard) = self.shard_of(key);
        match shard.lock().unwrap().touch(key, hash, self.ttl) {
            TouchResult::Hit(body) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (body, true);
            }
            TouchResult::Expired => {
                self.expired.fetch_add(1, Ordering::Relaxed);
            }
            TouchResult::Miss => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let body = Arc::new(solve());
        shard
            .lock()
            .unwrap()
            .insert(key, hash, Arc::clone(&body), self.capacity_per_shard);
        (body, false)
    }

    /// Pin the cache to `quantum`, dropping **every** entry if it differs
    /// from the quantum the resident entries were keyed under. Returns
    /// `true` when the cache was cleared. Keys are quantized ticks, so a
    /// quantum change silently re-interprets every key — full invalidation
    /// is the only correct response (property-tested in
    /// `tests/cache_props.rs`).
    pub fn invalidate_on_quantum_change(&self, quantum: f64) -> bool {
        let bits = quantum.to_bits();
        let prev = self.epoch_quantum_bits.swap(bits, Ordering::SeqCst);
        if prev == bits {
            return false;
        }
        let first_pin = prev == EPOCH_UNSET;
        if first_pin && self.is_empty() {
            return false;
        }
        self.clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drop every cached entry (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that found an entry past the TTL (each also counted as a
    /// miss).
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Full-cache invalidations forced by a quantum change.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ticks: Vec<i64>) -> ChainKey {
        ChainKey {
            m: ticks.len() / 2,
            ticks,
        }
    }

    #[test]
    fn hit_returns_the_inserted_bytes() {
        let cache = SolverCache::new(4, 8);
        let k = key(vec![1, 2, 3]);
        let (cold, hit) = cache.get_or_insert(&k, || "body-1".to_string());
        assert!(!hit);
        let (warm, hit) = cache.get_or_insert(&k, || unreachable!("must not re-solve"));
        assert!(hit);
        assert_eq!(*cold, *warm);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // Single shard of capacity 2 makes eviction deterministic.
        let cache = SolverCache::new(1, 2);
        let (a, b, c) = (key(vec![1]), key(vec![2]), key(vec![3]));
        cache.get_or_insert(&a, || "a".into());
        cache.get_or_insert(&b, || "b".into());
        cache.get_or_insert(&a, || unreachable!()); // a is now most recent
        cache.get_or_insert(&c, || "c".into()); // evicts b
        assert_eq!(cache.len(), 2);
        let (_, hit_a) = cache.get_or_insert(&a, || "a2".into());
        assert!(hit_a, "a survived the eviction");
        let (_, hit_b) = cache.get_or_insert(&b, || "b2".into());
        assert!(!hit_b, "b was evicted");
    }

    #[test]
    fn evicts_in_exact_lru_order_under_random_traffic() {
        // A recency list kept by hand, most recent first, against one
        // shard of four over ten keys; expiry has its own test below.
        let cache = SolverCache::new(1, 4);
        let mut model: Vec<i64> = Vec::new();
        let mut state = 0x1_2024_u64;
        for step in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (state >> 33) as i64 % 10;
            let (body, hit) = cache.get_or_insert(&key(vec![k]), || format!("v{k}"));
            let resident = model.iter().position(|&x| x == k);
            assert_eq!(hit, resident.is_some(), "step {step}, key {k}");
            assert_eq!(*body, format!("v{k}"));
            match resident {
                Some(at) => {
                    model.remove(at);
                }
                None if model.len() == 4 => {
                    model.pop();
                }
                None => {}
            }
            model.insert(0, k);
            assert_eq!(cache.len(), model.len());
        }
    }

    #[test]
    fn an_expired_slot_is_reused_and_the_shard_still_fills() {
        let cache = SolverCache::with_ttl(1, 3, Some(Duration::from_millis(25)));
        for i in 0..3i64 {
            cache.get_or_insert(&key(vec![i]), || format!("v{i}"));
        }
        std::thread::sleep(Duration::from_millis(40));
        // Expire the middle of the recency list, then refill around it.
        let (_, hit) = cache.get_or_insert(&key(vec![1]), || "v1b".into());
        assert!(!hit);
        assert_eq!(cache.len(), 3);
        cache.get_or_insert(&key(vec![3]), || "v3".into()); // evicts 0
        let (body, hit) = cache.get_or_insert(&key(vec![1]), || unreachable!());
        assert!(hit);
        assert_eq!(*body, "v1b");
        assert_eq!(cache.len(), 3);
        let (_, hit) = cache.get_or_insert(&key(vec![0]), || "v0b".into());
        assert!(!hit, "the least recently used entry was evicted");
    }

    #[test]
    fn keys_whose_hashes_collide_stay_apart() {
        // Force one hash on distinct keys: they chain through their slots,
        // and eviction and expiry unlink them from anywhere in the chain.
        let mut shard = Shard::new();
        let body = |s: &str| Arc::new(s.to_string());
        let hit = |shard: &mut Shard, k: i64, ttl| match shard.touch(&key(vec![k]), 7, ttl) {
            TouchResult::Hit(b) => Some(b.to_string()),
            TouchResult::Miss => None,
            TouchResult::Expired => Some("expired".into()),
        };
        for k in 0..3 {
            shard.insert(&key(vec![k]), 7, body(&format!("v{k}")), 3);
        }
        assert_eq!(shard.index.len(), 1);
        for k in 0..3 {
            assert_eq!(hit(&mut shard, k, None), Some(format!("v{k}")));
        }
        // 0 is the least recently used and the last of its hash chain.
        shard.insert(&key(vec![3]), 7, body("v3"), 3);
        assert_eq!(hit(&mut shard, 0, None), None);
        assert_eq!(shard.len, 3);
        // Expire 2, in the middle of the chain, then the chain's head.
        std::thread::sleep(Duration::from_millis(2));
        let ttl = Some(Duration::from_millis(1));
        assert_eq!(hit(&mut shard, 2, ttl).as_deref(), Some("expired"));
        assert_eq!(hit(&mut shard, 3, ttl).as_deref(), Some("expired"));
        assert_eq!(hit(&mut shard, 1, None).as_deref(), Some("v1"));
        assert_eq!((shard.len, shard.free.len()), (1, 2));
        assert_eq!(hit(&mut shard, 1, ttl).as_deref(), Some("expired"));
        assert!(
            shard.index.is_empty(),
            "the last key of a hash leaves the map"
        );
        shard.insert(&key(vec![4]), 7, body("v4"), 3);
        assert_eq!(hit(&mut shard, 4, None).as_deref(), Some("v4"));
        assert_eq!(shard.slots.len(), 3, "freed slots are reused");
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = SolverCache::new(8, 4);
        for i in 0..64i64 {
            let (body, hit) = cache.get_or_insert(&key(vec![i, i + 1]), || format!("v{i}"));
            assert!(!hit);
            assert_eq!(*body, format!("v{i}"));
        }
    }

    #[test]
    fn ttl_expires_entries_into_misses() {
        let cache = SolverCache::with_ttl(2, 8, Some(Duration::from_millis(25)));
        let k = key(vec![7, 8]);
        cache.get_or_insert(&k, || "v1".into());
        let (_, hit) = cache.get_or_insert(&k, || unreachable!("fresh entry must hit"));
        assert!(hit);
        std::thread::sleep(Duration::from_millis(40));
        let (body, hit) = cache.get_or_insert(&k, || "v2".into());
        assert!(!hit, "expired entry must be a miss");
        assert_eq!(*body, "v2");
        assert_eq!(cache.expired(), 1);
        // Re-inserted entry is fresh again.
        let (_, hit) = cache.get_or_insert(&k, || unreachable!());
        assert!(hit);
    }

    #[test]
    fn quantum_change_drops_every_entry() {
        let cache = SolverCache::new(4, 8);
        assert!(
            !cache.invalidate_on_quantum_change(1e-9),
            "pinning an empty cache is not an invalidation"
        );
        for i in 0..10i64 {
            cache.get_or_insert(&key(vec![i]), || format!("v{i}"));
        }
        assert!(!cache.invalidate_on_quantum_change(1e-9), "same quantum");
        assert_eq!(cache.len(), 10);
        assert!(cache.invalidate_on_quantum_change(1e-6), "new quantum");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.invalidations(), 1);
        let (_, hit) = cache.get_or_insert(&key(vec![3]), || "fresh".into());
        assert!(!hit, "old-epoch entries must not survive");
    }
}

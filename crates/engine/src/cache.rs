//! A bounded least-recently-used cache with hit/miss/eviction accounting.
//!
//! The engine memoizes two kinds of result — full query answers and bound
//! intervals — each in one instance of this cache, owned by its session in
//! a `RefCell`.  It is a slab-backed
//! LRU: entries live in a slot vector with an intrusive doubly-linked
//! recency list threaded through it, and an index the cache owns maps keys
//! to slots, so `get`, `insert` and eviction are all `O(1)` expected.
//!
//! The index is an open-addressing table of `u64` buckets, each a 32-bit
//! hash tag above a slot number, probed linearly.  A removal shifts the rest
//! of its probe run back instead of leaving a tombstone, so a full cache's
//! steady evict-and-insert churn never rehashes or grows the table: it
//! grows only while the cache fills, up to the power of two at or above
//! twice the capacity, and starts no larger than `2^17` buckets (1 MiB).
//!
//! A capacity of `0` disables the cache entirely (every `get` misses, every
//! `insert` is a no-op), which the engine's tests use to prove answers do not
//! depend on caching.
//!
//! Every hit, miss, eviction and collision is counted once, where it
//! happens: into the cache's own [`CacheStats`] and, for an engine cache
//! ([`LruCache::with_counters`]), into its family's process-wide
//! [`CacheCounters`].
//!
//! [`VersionedKey`] is the one digest-versioning helper every query-path
//! cache uses: a key salted with the session-state digests
//! ([`version_salt`]), whose `Hash` touches only the salt and a precomputed
//! payload fingerprint (two `u64`s) so hot-path lookups never rehash a
//! constraint structure, while `Eq` still compares the payload structurally
//! so fingerprint collisions cannot alias answers.

use crate::metrics::CacheCounters;
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

/// The most entries a cache holds: slots are numbered in 32 bits, by the
/// index and by the recency list.
const MAX_CAPACITY: usize = 1 << 31;

/// The end of the recency list.
const NIL: u32 = u32::MAX;

/// The index's first table, at most: `2^17` buckets, twice the default
/// answer-cache capacity.
const FIRST_BUCKETS: usize = 1 << 17;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// The key's index tag, kept so an eviction finds its bucket without
    /// hashing the key again.
    tag: u32,
    prev: u32,
    next: u32,
}

/// Counters describing how a cache has been used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found their key.
    pub hits: u64,
    /// `get` calls that did not.
    pub misses: u64,
    /// Entries displaced by inserts at capacity.
    pub evictions: u64,
    /// Present-but-rejected entries: a fingerprint-addressed lookup found
    /// the key but the stored payload failed verification (see
    /// [`LruCache::get_if`]), forcing a recomputation.  Collisions are a
    /// subset of `misses`.
    pub collisions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; `0` when the cache has never been queried.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One countable cache event.
#[derive(Clone, Copy)]
enum Event {
    Hit,
    Miss,
    Eviction,
    Collision,
}

/// The key index of an [`LruCache`]: open addressing over `u64` buckets,
/// each the upper half of its key's hash (the *tag*) above the key's slot
/// number plus one, with `0` marking an empty bucket.  A key's home bucket
/// is its tag modulo the table size, so the table can grow and delete by
/// backward shift without rehashing any key.
#[derive(Debug)]
struct Index {
    buckets: Vec<u64>,
    /// The table size at which growth stops: the power of two at or above
    /// twice the cache's capacity, which keeps the load at most one half.
    max_buckets: usize,
    hasher: RandomState,
}

impl Index {
    fn new(capacity: usize) -> Self {
        // A disabled cache gets one bucket, which stays empty.
        let max_buckets = (2 * capacity).next_power_of_two();
        Index {
            buckets: vec![0; max_buckets.min(FIRST_BUCKETS)],
            max_buckets,
            hasher: RandomState::new(),
        }
    }

    fn tag<Q: Hash + ?Sized>(&self, key: &Q) -> u32 {
        (self.hasher.hash_one(key) >> 32) as u32
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The bucket and slot of the entry with this tag whose slot `is_key`
    /// accepts.
    fn find(&self, tag: u32, is_key: impl Fn(usize) -> bool) -> Option<(usize, usize)> {
        let mask = self.mask();
        let mut at = tag as usize & mask;
        loop {
            let bucket = self.buckets[at];
            if bucket == 0 {
                return None;
            }
            let slot = (bucket as u32 - 1) as usize;
            if (bucket >> 32) as u32 == tag && is_key(slot) {
                return Some((at, slot));
            }
            at = (at + 1) & mask;
        }
    }

    /// Adds `tag → slot`, first growing the table if its `entries`, this
    /// one included, would fill more than half of it.
    fn insert(&mut self, tag: u32, slot: usize, entries: usize) {
        if 2 * entries > self.buckets.len() && self.buckets.len() < self.max_buckets {
            let grown = vec![0; 2 * self.buckets.len()];
            let old = std::mem::replace(&mut self.buckets, grown);
            for bucket in old.into_iter().filter(|&b| b != 0) {
                self.place(bucket);
            }
        }
        self.place((u64::from(tag) << 32) | (slot as u64 + 1));
    }

    /// Puts `bucket` in the first empty bucket from its tag's home.
    fn place(&mut self, bucket: u64) {
        let mask = self.mask();
        let mut at = (bucket >> 32) as usize & mask;
        while self.buckets[at] != 0 {
            at = (at + 1) & mask;
        }
        self.buckets[at] = bucket;
    }

    /// Empties bucket `hole`, moving back each later entry of its probe run
    /// whose home is not between the hole and the entry, so every entry
    /// stays reachable from its home without a tombstone.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let bucket = self.buckets[at];
            if bucket == 0 {
                break;
            }
            let home = (bucket >> 32) as usize & mask;
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.buckets[hole] = bucket;
                hole = at;
            }
        }
        self.buckets[hole] = 0;
    }
}

/// A bounded LRU map from `K` to `V`.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    index: Index,
    slots: Vec<Slot<K, V>>,
    head: u32,
    tail: u32,
    stats: CacheStats,
    /// The process-wide counters every event is also counted into (an
    /// engine cache's family counters); `None` counts locally only.
    counters: Option<&'static CacheCounters>,
}

impl<K: Hash + Eq, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (at most `2^31`:
    /// larger capacities are clamped).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.min(MAX_CAPACITY);
        LruCache {
            capacity,
            index: Index::new(capacity),
            slots: Vec::with_capacity(capacity.min(1 << 16)),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
            counters: None,
        }
    }

    /// Like [`LruCache::new`], additionally counting every hit, miss,
    /// eviction and collision into `counters` — for the engine's session
    /// caches, their family's counters in the process-wide registry
    /// ([`crate::metrics::EngineMetrics::cache`]).
    pub fn with_counters(capacity: usize, counters: &'static CacheCounters) -> Self {
        LruCache {
            counters: Some(counters),
            ..LruCache::new(capacity)
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` iff the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Usage counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Counts one event into the local stats and the attached counters.
    fn count(&mut self, event: Event) {
        let (local, global) = match event {
            Event::Hit => (&mut self.stats.hits, self.counters.map(|c| &c.hits)),
            Event::Miss => (&mut self.stats.misses, self.counters.map(|c| &c.misses)),
            Event::Eviction => (
                &mut self.stats.evictions,
                self.counters.map(|c| &c.evictions),
            ),
            Event::Collision => (
                &mut self.stats.collisions,
                self.counters.map(|c| &c.collisions),
            ),
        };
        *local += 1;
        if let Some(global) = global {
            global.inc();
        }
    }

    /// The bucket and slot holding `key`.
    fn find<Q>(&self, key: &Q) -> Option<(usize, usize)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let tag = self.index.tag(key);
        self.index
            .find(tag, |slot| self.slots[slot].key.borrow() == key)
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.find(key).map(|(_, slot)| slot) {
            Some(slot) => {
                self.count(Event::Hit);
                self.detach(slot);
                self.attach_front(slot);
                Some(&self.slots[slot].value)
            }
            None => {
                self.count(Event::Miss);
                None
            }
        }
    }

    /// Looks up `key` and projects the value through `f`.  Only a
    /// *verified* hit (`f` returning `Some`) is counted and promoted; a
    /// present-but-rejected entry is recorded as a miss and keeps its
    /// recency, so stats match what the caller actually served and a
    /// colliding entry earns no recency credit.
    pub fn get_if<Q, R>(&mut self, key: &Q, f: impl FnOnce(&V) -> Option<R>) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.find(key).map(|(_, slot)| slot) {
            Some(slot) => match f(&self.slots[slot].value) {
                Some(projected) => {
                    self.count(Event::Hit);
                    self.detach(slot);
                    self.attach_front(slot);
                    Some(projected)
                }
                None => {
                    self.count(Event::Miss);
                    self.count(Event::Collision);
                    None
                }
            },
            None => {
                self.count(Event::Miss);
                None
            }
        }
    }

    /// Looks up `key` without touching recency or counters.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.find(key).map(|(_, slot)| &self.slots[slot].value)
    }

    /// Inserts `key → value`, evicting the least-recently-used entry when at
    /// capacity.  Replacing an existing key promotes it.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let tag = self.index.tag(&key);
        if let Some((_, slot)) = self.index.find(tag, |slot| self.slots[slot].key == key) {
            self.slots[slot].value = value;
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        let entry = Slot {
            key,
            value,
            tag,
            prev: NIL,
            next: NIL,
        };
        let len = self.slots.len();
        let slot = if len >= self.capacity {
            debug_assert_ne!(self.tail, NIL);
            let lru = self.tail as usize;
            self.detach(lru);
            let (bucket, _) = self
                .index
                .find(self.slots[lru].tag, |slot| slot == lru)
                .expect("every cached slot is indexed");
            self.index.remove_at(bucket);
            self.count(Event::Eviction);
            self.slots[lru] = entry;
            lru
        } else {
            self.slots.push(entry);
            len
        };
        self.index.insert(tag, slot, self.slots.len());
        self.attach_front(slot);
    }

    /// Drops every entry (counters are kept; they describe the lifetime of
    /// the cache, not its current contents).
    pub fn clear(&mut self) {
        self.index.buckets.fill(0);
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.head as usize == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else if self.tail as usize == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        // Below `MAX_CAPACITY`, every slot number fits the list's 32 bits.
        let id = slot as u32;
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = id;
        }
        self.head = id;
        if self.tail == NIL {
            self.tail = id;
        }
    }
}

/// Combines the session-state digests into the one salt that versions every
/// cached answer: the premise digest XOR the (rotated) knowns digest.
///
/// The rotation keeps the two digest spaces from cancelling symmetrically
/// (`premises = D, knowns = ∅` must not collide with `premises = ∅,
/// knowns = D`).  Implication answers depend only on the premise set, so the
/// answer cache passes `knowns_digest = 0`; the bound cache passes both.
/// Either way, retracting a premise (or forgetting a known) changes the salt
/// and therefore instantly invalidates — and restoring the state instantly
/// revalidates — every affected entry.
pub fn version_salt(premise_digest: u64, knowns_digest: u64) -> u64 {
    premise_digest ^ knowns_digest.rotate_left(21)
}

/// A digest-versioned cache key: the state salt ([`version_salt`]) combined
/// with a stable 64-bit fingerprint of the payload (a goal constraint, a
/// query set).
///
/// The key is two plain words — `Copy`, allocation-free, hashed as a single
/// premixed `u64` — so a hot-path lookup never rehashes (or clones) the
/// payload structure.  Fingerprints are not injective, so a colliding
/// payload *can* map to the same key; the engine therefore stores the
/// payload beside the cached value and verifies equality on every hit
/// (see [`LruCache::get_if`]), which keeps collisions harmless: they
/// cost a recomputation, never a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionedKey {
    salt: u64,
    fingerprint: u64,
}

impl VersionedKey {
    /// Builds a key from the state salt and the payload's stable
    /// fingerprint.
    pub fn new(salt: u64, fingerprint: u64) -> Self {
        VersionedKey { salt, fingerprint }
    }

    /// The state salt the key was versioned with.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// The payload fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl Hash for VersionedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One premixed word: the hasher sees 8 bytes, not 16.  `Eq` still
        // compares both fields, so this only shapes bucket placement; the
        // rotation keeps (salt, fingerprint) and (fingerprint, salt) apart.
        state.write_u64(self.salt ^ self.fingerprint.rotate_left(32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_and_hits() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "one");
        c.insert(2, "two");
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        // Counters describe the lifetime, not the contents.
        assert_eq!((c.stats().hits, c.stats().misses), (1, 2));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        let _ = c.get(&1); // 2 is now LRU
        c.insert(3, 30);
        assert_eq!(c.peek(&2), None, "2 should have been evicted");
        assert_eq!(c.peek(&1), Some(&10));
        assert_eq!(c.peek(&3), Some(&30));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_promotes_and_replaces() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // promote 1, replace value
        c.insert(3, 30); // evicts 2
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.peek(&2), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn single_slot_cache_churns_correctly() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        for i in 0..100 {
            c.insert(i, i * 2);
            assert_eq!(c.get(&i), Some(&(i * 2)));
            assert_eq!(c.len(), 1);
        }
        assert_eq!(c.stats().evictions, 99);
    }

    #[test]
    fn heavy_mixed_workload_stays_consistent() {
        // Mirror against a reference model: repeatedly insert/get and check
        // the cache never exceeds capacity and hits agree with presence.
        let mut c: LruCache<u64, u64> = LruCache::new(16);
        let mut present: std::collections::VecDeque<u64> = Default::default();
        let mut x: u64 = 0x123456789;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 48;
            if x & 1 == 0 {
                let was_present = present.contains(&key);
                if !was_present {
                    if present.len() == 16 {
                        present.pop_back();
                    }
                } else {
                    present.retain(|&k| k != key);
                }
                present.push_front(key);
                c.insert(key, key);
            } else {
                let hit = c.get(&key).is_some();
                assert_eq!(hit, present.contains(&key), "divergence at key {key}");
                if hit {
                    present.retain(|&k| k != key);
                    present.push_front(key);
                }
            }
            assert!(c.len() <= 16);
        }
    }

    #[test]
    fn index_grows_past_its_first_table_and_keeps_every_entry() {
        // The index starts at 2^17 buckets and must double once this cache
        // passes 2^16 entries.
        let capacity = 1usize << 17;
        let mut c: LruCache<usize, usize> = LruCache::new(capacity);
        for k in 0..capacity + 8 {
            c.insert(k, k);
        }
        assert_eq!(c.len(), capacity);
        assert_eq!(c.index.buckets.len(), 2 * capacity);
        assert!((0..8).all(|k| c.peek(&k).is_none()));
        assert!((8..capacity + 8).all(|k| c.peek(&k) == Some(&k)));
    }

    #[test]
    fn version_salt_separates_premise_and_knowns_space() {
        // The same digest arriving via the premise side and via the knowns
        // side must produce different salts (XOR without rotation would
        // collide them).
        let d = 0xDEAD_BEEF_0BAD_F00D_u64;
        assert_ne!(version_salt(d, 0), version_salt(0, d));
        // Either component changing changes the salt.
        assert_ne!(version_salt(d, 7), version_salt(d, 8));
        assert_ne!(version_salt(3, 7), version_salt(4, 7));
        // Restoring the state restores the salt exactly.
        assert_eq!(version_salt(d, 7), version_salt(d, 7));
    }

    #[test]
    fn versioned_keys_separate_salts_and_fingerprints() {
        // Distinct salts (state versions) and distinct fingerprints both
        // produce distinct keys; the symmetric swap does too.
        assert_ne!(VersionedKey::new(1, 42), VersionedKey::new(2, 42));
        assert_ne!(VersionedKey::new(1, 42), VersionedKey::new(1, 43));
        assert_ne!(VersionedKey::new(1, 42), VersionedKey::new(42, 1));
        let k = VersionedKey::new(7, 9);
        assert_eq!((k.salt(), k.fingerprint()), (7, 9));
    }

    #[test]
    fn get_if_verifies_stored_payloads() {
        // The engine's collision discipline: the payload rides in the value
        // and a hit only counts when it matches the query.
        let mut c: LruCache<VersionedKey, (&str, u32)> = LruCache::new(8);
        let key = VersionedKey::new(1, 42);
        c.insert(key, ("alpha", 10));
        assert_eq!(
            c.get_if(&key, |&(p, v)| (p == "alpha").then_some(v)),
            Some(10)
        );
        // A colliding payload under the same key is rejected, not aliased —
        // and the rejection counts as a miss, matching the recomputation
        // the caller then performs.
        let before = c.stats();
        assert_eq!(c.get_if(&key, |&(p, v)| (p == "beta").then_some(v)), None);
        let after = c.stats();
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses + 1);
        // The rejection is also attributed as a collision…
        assert_eq!(after.collisions, before.collisions + 1);
        // …while an absent key is a plain miss.
        assert_eq!(c.get_if(&VersionedKey::new(9, 42), |&(_, v)| Some(v)), None);
        let absent = c.stats();
        assert_eq!(absent.misses, after.misses + 1);
        assert_eq!(absent.collisions, after.collisions);
    }

    #[test]
    fn attached_counters_match_the_cache_stats_exactly() {
        // A counter set of its own, so no other test's traffic shows up.
        let counters: &'static CacheCounters = Box::leak(Box::default());
        let mut c = LruCache::with_counters(2, counters);
        let (a, b, d) = (
            VersionedKey::new(1, 1),
            VersionedKey::new(1, 2),
            VersionedKey::new(1, 3),
        );
        c.insert(a, ("a", 1));
        c.insert(b, ("b", 2));
        let hit = |c: &mut LruCache<_, (&str, i32)>, key, payload| {
            c.get_if(&key, |&(p, v)| (p == payload).then_some(v))
        };
        assert_eq!(hit(&mut c, a, "a"), Some(1));
        assert_eq!(hit(&mut c, a, "z"), None, "a rejected collision");
        assert_eq!(hit(&mut c, d, "d"), None, "a plain miss");
        c.insert(d, ("d", 3)); // evicts b, the least recently used
        c.insert(b, ("b", 2)); // evicts a
        assert_eq!(hit(&mut c, b, "b"), Some(2));
        assert_eq!(hit(&mut c, a, "a"), None);
        let stats = c.stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: 2,
                misses: 3,
                evictions: 2,
                collisions: 1,
            }
        );
        let counted = CacheStats {
            hits: counters.hits.get(),
            misses: counters.misses.get(),
            evictions: counters.evictions.get(),
            collisions: counters.collisions.get(),
        };
        assert_eq!(counted, stats);
    }
}

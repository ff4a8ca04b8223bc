//! A bounded least-recently-used cache with hit/miss/eviction accounting.
//!
//! The engine memoizes two kinds of result — full query answers and bound
//! intervals — each in one instance of this cache, owned by its session in
//! a `RefCell`.  It is a slab-backed
//! LRU: entries live in a slot vector with an intrusive doubly-linked
//! recency list threaded through it, and an index the cache owns maps keys
//! to slots, so a lookup, an insert and an eviction are all `O(1)` expected.
//!
//! The index is an open-addressing table of `u64` buckets, each a 32-bit
//! hash tag above a slot number, probed linearly.  A removal shifts the rest
//! of its probe run back instead of leaving a tombstone, so a full cache's
//! steady evict-and-insert churn never rehashes or grows the table: it
//! grows only while the cache fills, up to the power of two at or above
//! twice the capacity, and starts no larger than `2^17` buckets (1 MiB).
//!
//! A capacity of `0` disables the cache entirely (every lookup misses, every
//! insert is a no-op), which the engine's tests use to prove answers do not
//! depend on caching.
//!
//! Every hit, miss, eviction and collision is counted once, where it
//! happens: into the cache's own [`CacheStats`] and, for an engine cache
//! ([`LruCache::with_counters`]), into its family's process-wide
//! [`CacheCounters`].
//!
//! Both engine caches are keyed on their versioned payload, a
//! [`VersionedKey`]: the session-state salt ([`version_salt`]) and the
//! payload itself (a goal constraint, a query set), stored once, in the key.
//! A query builds one [`Probe`] — the salt, the borrowed payload and its
//! fingerprint, computed once — and both its lookup ([`LruCache::probe`])
//! and, on a miss, its insert ([`LruCache::insert_probed`]) hash the one
//! premixed word of salt and fingerprint, so the payload is never rehashed
//! and never copied to be looked up.  A cache holds at most one entry per
//! salt and fingerprint, and a lookup compares the stored payload
//! structurally: a payload whose fingerprint meets another's under the same
//! salt misses (counted as a collision) and, once decided, replaces it.
//! Fingerprints can be forged, so this keeps every probe run as short as
//! honest traffic makes it: colliding goals cost a recomputation, never a
//! longer walk or a wrong answer.

use crate::metrics::CacheCounters;
use diffcon::DiffConstraint;
use setlat::AttrSet;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

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
    /// Lookups that found their payload.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries displaced by inserts at capacity.
    pub evictions: u64,
    /// Lookups that found an entry with their salt and fingerprint but
    /// another payload ([`LruCache::probe`]), so they missed and forced a
    /// recomputation.  Collisions are a subset of `misses`.
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

    /// The tag of the key whose premixed word is `word`.
    #[inline]
    fn tag(&self, word: u64) -> u32 {
        (self.hasher.hash_one(word) >> 32) as u32
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The bucket and slot of each entry with this tag, in probe order.
    #[inline]
    fn tagged(&self, tag: u32) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mask = self.mask();
        let mut at = tag as usize & mask;
        std::iter::from_fn(move || loop {
            let bucket = self.buckets[at];
            if bucket == 0 {
                return None;
            }
            let found = at;
            at = (at + 1) & mask;
            if (bucket >> 32) as u32 == tag {
                return Some((found, (bucket as u32 - 1) as usize));
            }
        })
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

impl<K, V> LruCache<K, V> {
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

impl<P: Payload, V> LruCache<VersionedKey<P>, V> {
    /// The slot of the entry with `probe`'s salt and fingerprint, at index
    /// tag `tag`, and whether it holds the probe's own payload.  Always
    /// inlined into its two callers: called out of line, it made a hit in
    /// bench_server's `lru_hit_ns` a few ns slower.
    #[inline(always)]
    fn slot_of(&self, tag: u32, probe: &Probe<'_, P>) -> Option<(usize, bool)> {
        for (_, slot) in self.index.tagged(tag) {
            let key = &self.slots[slot].key;
            if probe.addresses(key) {
                return Some((slot, true));
            }
            if probe.meets(key) {
                return Some((slot, false));
            }
        }
        None
    }

    /// Looks up `probe`'s payload under its salt, promoting it to
    /// most-recently-used on a hit.  An entry with the probe's salt and
    /// fingerprint but another payload is a miss and a collision, and keeps
    /// its recency.
    pub fn probe(&mut self, probe: &Probe<'_, P>) -> Option<&V> {
        let tag = self.index.tag(probe.word());
        match self.slot_of(tag, probe) {
            Some((slot, true)) => {
                self.count(Event::Hit);
                self.detach(slot);
                self.attach_front(slot);
                Some(&self.slots[slot].value)
            }
            met => {
                self.count(Event::Miss);
                if met.is_some() {
                    self.count(Event::Collision);
                }
                None
            }
        }
    }

    /// Inserts `value` for `probe`'s payload under its salt, the key
    /// holding the payload's one copy, as the most recently used entry.
    /// The entry with the probe's salt and fingerprint, if there is one, is
    /// overwritten, key and value, so colliding payloads share one entry;
    /// otherwise a new one is made, evicting the least-recently-used entry
    /// when at capacity.
    pub fn insert_probed(&mut self, probe: &Probe<'_, P>, value: V)
    where
        P: Clone,
    {
        if self.capacity == 0 {
            return;
        }
        let tag = self.index.tag(probe.word());
        if let Some((slot, _)) = self.slot_of(tag, probe) {
            self.slots[slot].key = probe.key();
            self.slots[slot].value = value;
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        let entry = Slot {
            key: probe.key(),
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
                .tagged(self.slots[lru].tag)
                .find(|&(_, slot)| slot == lru)
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

/// A payload an engine cache answers for — a goal constraint, a query
/// set — with the stable fingerprint its entries are hashed by.
pub trait Payload: Eq {
    /// The payload's stable 64-bit fingerprint: equal payloads always
    /// fingerprint equal.
    fn fingerprint(&self) -> u64;
}

impl Payload for DiffConstraint {
    fn fingerprint(&self) -> u64 {
        DiffConstraint::fingerprint(self)
    }
}

impl Payload for AttrSet {
    fn fingerprint(&self) -> u64 {
        AttrSet::fingerprint(*self)
    }
}

/// A digest-versioned cache key: the state salt ([`version_salt`]) and the
/// payload it answers for, held once, here.
///
/// Keys are compared structurally, salt and payload, so a fingerprint
/// collision costs a recomputation, never a wrong answer.  A key is hashed
/// only through the [`Probe`] that stored it, which computed the payload's
/// fingerprint once for the query.
#[derive(Debug)]
pub struct VersionedKey<P> {
    salt: u64,
    payload: P,
}

/// One query's address in an engine cache: the state salt, the borrowed
/// payload and the payload's fingerprint, computed once, shared by the
/// query's lookup and, on a miss, its insert.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a, P> {
    salt: u64,
    fingerprint: u64,
    payload: &'a P,
}

impl<'a, P: Payload> Probe<'a, P> {
    /// The address of `payload` under the state salt `salt`.
    pub fn new(salt: u64, payload: &'a P) -> Self {
        Probe {
            salt,
            fingerprint: payload.fingerprint(),
            payload,
        }
    }

    /// The one premixed word the cache's index hashes: the rotation keeps
    /// (salt, fingerprint) and (fingerprint, salt) apart.
    fn word(&self) -> u64 {
        self.salt ^ self.fingerprint.rotate_left(32)
    }

    /// Whether `key` is this probe's salt and payload.
    fn addresses(&self, key: &VersionedKey<P>) -> bool {
        key.salt == self.salt && key.payload == *self.payload
    }

    /// Whether `key` is another payload with this probe's salt and
    /// fingerprint (checked only once [`Probe::addresses`] said no: on a
    /// collision or a chance tag match, so it is kept off the lookup's
    /// inlined loop).
    #[cold]
    fn meets(&self, key: &VersionedKey<P>) -> bool {
        key.salt == self.salt && key.payload.fingerprint() == self.fingerprint
    }

    /// The key holding a copy of the payload.
    fn key(&self) -> VersionedKey<P>
    where
        P: Clone,
    {
        VersionedKey {
            salt: self.salt,
            payload: self.payload.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache keyed on sets under one salt, as the bound cache is.
    type SetCache<V> = LruCache<VersionedKey<AttrSet>, V>;

    const SALT: u64 = 0x5A17;

    fn get<V>(c: &mut SetCache<V>, bits: u64) -> Option<&V> {
        c.probe(&Probe::new(SALT, &AttrSet::from_bits(bits)))
    }

    fn insert<V>(c: &mut SetCache<V>, bits: u64, value: V) {
        c.insert_probed(&Probe::new(SALT, &AttrSet::from_bits(bits)), value);
    }

    /// The value cached for `bits`, without touching recency or counters.
    fn peek<V>(c: &SetCache<V>, bits: u64) -> Option<&V> {
        let set = AttrSet::from_bits(bits);
        let probe = Probe::new(SALT, &set);
        match c.slot_of(c.index.tag(probe.word()), &probe) {
            Some((slot, true)) => Some(&c.slots[slot].value),
            _ => None,
        }
    }

    #[test]
    fn inserts_and_hits() {
        let mut c: SetCache<&str> = LruCache::new(2);
        insert(&mut c, 1, "one");
        insert(&mut c, 2, "two");
        assert_eq!(get(&mut c, 1), Some(&"one"));
        assert_eq!(get(&mut c, 3), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(get(&mut c, 1), None);
        // Counters describe the lifetime, not the contents.
        assert_eq!((c.stats().hits, c.stats().misses), (1, 2));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: SetCache<u32> = LruCache::new(2);
        insert(&mut c, 1, 10);
        insert(&mut c, 2, 20);
        let _ = get(&mut c, 1); // 2 is now LRU
        insert(&mut c, 3, 30);
        assert_eq!(peek(&c, 2), None, "2 should have been evicted");
        assert_eq!(peek(&c, 1), Some(&10));
        assert_eq!(peek(&c, 3), Some(&30));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_promotes_and_replaces() {
        let mut c: SetCache<u32> = LruCache::new(2);
        insert(&mut c, 1, 10);
        insert(&mut c, 2, 20);
        insert(&mut c, 1, 11); // promote 1, replace value
        insert(&mut c, 3, 30); // evicts 2
        assert_eq!(peek(&c, 1), Some(&11));
        assert_eq!(peek(&c, 2), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c: SetCache<u32> = LruCache::new(0);
        insert(&mut c, 1, 10);
        assert_eq!(get(&mut c, 1), None);
        assert!(c.is_empty());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn single_slot_cache_churns_correctly() {
        let mut c: SetCache<u64> = LruCache::new(1);
        for i in 0..100 {
            insert(&mut c, i, i * 2);
            assert_eq!(get(&mut c, i), Some(&(i * 2)));
            assert_eq!(c.len(), 1);
        }
        assert_eq!(c.stats().evictions, 99);
    }

    #[test]
    fn heavy_mixed_workload_stays_consistent() {
        // Mirror against a reference model: repeatedly insert/get and check
        // the cache never exceeds capacity and hits agree with presence.
        let mut c: SetCache<u64> = LruCache::new(16);
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
                insert(&mut c, key, key);
            } else {
                let hit = get(&mut c, key).is_some();
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
        let capacity = 1u64 << 17;
        let mut c: SetCache<u64> = LruCache::new(capacity as usize);
        for k in 0..capacity + 8 {
            insert(&mut c, k, k);
        }
        assert_eq!(c.len(), capacity as usize);
        assert_eq!(c.index.buckets.len(), 2 * capacity as usize);
        assert!((0..8).all(|k| peek(&c, k).is_none()));
        assert!((8..capacity + 8).all(|k| peek(&c, k) == Some(&k)));
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

    /// A payload whose fingerprint is constant, so every two of them
    /// collide.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(&'static str);

    impl Payload for Colliding {
        fn fingerprint(&self) -> u64 {
            42
        }
    }

    #[test]
    fn versioned_keys_separate_salts_and_fingerprints() {
        // Distinct salts (state versions) and distinct payloads address
        // distinct entries, and a key holds the salt and the payload.
        let mut c: SetCache<u32> = LruCache::new(8);
        let (a, b) = (AttrSet::from_bits(1), AttrSet::from_bits(2));
        c.insert_probed(&Probe::new(1, &a), 10);
        c.insert_probed(&Probe::new(2, &a), 20);
        c.insert_probed(&Probe::new(1, &b), 30);
        assert_eq!(c.probe(&Probe::new(1, &a)), Some(&10));
        assert_eq!(c.probe(&Probe::new(2, &a)), Some(&20));
        assert_eq!(c.probe(&Probe::new(1, &b)), Some(&30));
        assert_eq!(c.probe(&Probe::new(2, &b)), None);
        let key = Probe::new(7, &b).key();
        assert_eq!((key.salt, key.payload), (7, b));
        assert_eq!(c.stats().collisions, 0);
    }

    #[test]
    fn colliding_payloads_share_one_entry() {
        // Payloads with one fingerprint under one salt: each insert
        // replaces the one before, so the cache holds one of them at a
        // time, a lookup hits only the payload stored, and every other
        // lookup under that salt is a miss and a collision.
        let mut c: LruCache<VersionedKey<Colliding>, usize> = LruCache::new(8);
        let payloads = ["alpha", "beta", "gamma", "delta"].map(Colliding);
        for (stored, payload) in payloads.iter().enumerate() {
            c.insert_probed(&Probe::new(1, payload), stored);
            assert_eq!(c.len(), 1, "a colliding insert must replace, not add");
            for (asked, other) in payloads.iter().enumerate() {
                let before = c.stats();
                let hit = c.probe(&Probe::new(1, other)).copied();
                let after = c.stats();
                if asked == stored {
                    assert_eq!(hit, Some(stored));
                    assert_eq!(after.hits, before.hits + 1);
                    assert_eq!(after.collisions, before.collisions);
                } else {
                    assert_eq!(hit, None, "{other:?} hit {payload:?}'s value");
                    assert_eq!(after.misses, before.misses + 1);
                    assert_eq!(after.collisions, before.collisions + 1);
                }
            }
        }
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.collisions), (4, 12, 12));
        // Another salt meets nothing, and its entry stands beside the first.
        assert_eq!(c.probe(&Probe::new(2, &payloads[0])), None);
        assert_eq!(c.stats().collisions, 12);
        c.insert_probed(&Probe::new(2, &payloads[0]), 9);
        assert_eq!(c.len(), 2);
        assert_eq!(c.probe(&Probe::new(2, &payloads[0])), Some(&9));
        assert_eq!(c.probe(&Probe::new(1, &payloads[3])), Some(&3));
    }

    #[test]
    fn slots_hold_each_payload_once_inline() {
        // An answer slot is (salt, goal) → (implied, route) beside the
        // index tag and the recency links, with no heap block for a goal of
        // up to four members; a bound slot is (salt, set) → (interval,
        // route).
        fn slot_bytes<K, V>(_: &LruCache<K, V>) -> usize {
            std::mem::size_of::<Slot<K, V>>()
        }
        let session = crate::session::Session::new(setlat::Universe::of_size(4));
        assert_eq!(slot_bytes(&session.answer_cache.borrow()), 72);
        assert_eq!(slot_bytes(&session.bound_cache.borrow()), 56);
    }

    #[test]
    fn attached_counters_match_the_cache_stats_exactly() {
        // A counter set of its own, so no other test's traffic shows up.
        let counters: &'static CacheCounters = Box::leak(Box::default());
        let mut c = LruCache::with_counters(2, counters);
        let (a, b, d, z) = (
            Colliding("a"),
            Colliding("b"),
            Colliding("d"),
            Colliding("z"),
        );
        let probe = |payload| Probe::new(1, payload);
        c.insert_probed(&probe(&a), 1);
        c.insert_probed(&Probe::new(2, &b), 2);
        assert_eq!(c.probe(&probe(&a)), Some(&1));
        assert_eq!(c.probe(&probe(&z)), None, "meets a");
        c.insert_probed(&probe(&d), 3); // replaces a
        assert_eq!(c.probe(&Probe::new(2, &b)), Some(&2));
        assert_eq!(c.probe(&probe(&a)), None, "replaced; meets d");
        assert_eq!(c.probe(&Probe::new(3, &a)), None, "a plain miss");
        c.insert_probed(&Probe::new(3, &a), 4); // evicts d, the least recently used
        assert_eq!(c.probe(&probe(&d)), None, "evicted");
        let stats = c.stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: 2,
                misses: 4,
                evictions: 1,
                collisions: 2,
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

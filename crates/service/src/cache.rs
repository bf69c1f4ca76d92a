//! A sharded, thread-safe LRU cache of optimization results.
//!
//! The paper's premise is that the analytical model makes tile-size
//! optimization cheap enough to run on demand; this cache makes repeat
//! demand nearly free. Results are keyed by everything that determines the
//! optimizer's output — the problem shape, a stable fingerprint of the
//! machine model, and the optimizer options — so a hit is guaranteed to be
//! the configuration a fresh solve would produce.
//!
//! The key space is split across [`ScheduleCache::SHARDS`] independently
//! locked shards so concurrent server threads rarely contend. Within a
//! shard, recency is tracked with a monotonic clock per entry; eviction
//! scans the (small, `capacity / SHARDS`-bounded) shard for the least
//! recently used entry.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use conv_spec::{MachineModel, Spec};
use mopt_core::{OptimizeResult, OptimizerOptions};
use serde::{Deserialize, Serialize};

/// Lock a mutex, recovering from poisoning.
///
/// A panic on one request thread must not brick the daemon: the data under
/// these locks (LRU maps whose operations are individually panic-free —
/// lookups, inserts, counter bumps) stays structurally valid even if the
/// panic unwound mid-method, so the right response to a poisoned lock is to
/// take the guard and keep serving, not to propagate the panic to every
/// future request that touches the shard.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The canonical cache key: everything the optimizer's output depends on.
///
/// Since the spec-IR generalization the problem slot holds a [`Spec`] (conv,
/// matmul, pooling, or elementwise), not just a [`conv_spec::ConvShape`]. The wire/disk
/// form stays backward compatible in both directions through
/// [`Spec::serialize_field`] / [`Spec::from_fields`]: old snapshots load, and
/// snapshots holding only conv entries are byte-identical to what the
/// pre-spec format wrote.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The optimization problem.
    pub spec: Spec,
    /// [`MachineModel::fingerprint`] of the target machine.
    pub machine_fingerprint: u64,
    /// The optimizer options used for the solve.
    pub options: OptimizerOptions,
}

impl CacheKey {
    /// The key for optimizing `spec` on `machine` with `options`. Accepts a
    /// plain [`conv_spec::ConvShape`] too (via `From<ConvShape> for Spec`).
    pub fn new(spec: impl Into<Spec>, machine: &MachineModel, options: &OptimizerOptions) -> Self {
        CacheKey {
            spec: spec.into(),
            machine_fingerprint: machine.fingerprint(),
            options: options.clone(),
        }
    }

    fn shard_index(&self, shards: usize) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        (hasher.finish() as usize) % shards
    }
}

impl Serialize for CacheKey {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) {
        sink.begin_object();
        self.spec.serialize_field(sink);
        sink.field("machine_fingerprint", &self.machine_fingerprint);
        sink.field("options", &self.options);
        sink.end_object();
    }
}

impl Deserialize for CacheKey {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let pairs =
            v.as_object().ok_or_else(|| serde::DeError::expected("an object", "CacheKey"))?;
        Ok(CacheKey {
            spec: Spec::from_fields(pairs, "CacheKey")?,
            machine_fingerprint: serde::de_field(pairs, "machine_fingerprint", "CacheKey")?,
            options: serde::de_field(pairs, "options", "CacheKey")?,
        })
    }
}

/// A point-in-time summary of cache effectiveness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to stay within capacity (sum over all shards).
    pub evictions: u64,
    /// Evictions per shard, indexed by shard number — a skewed vector flags
    /// keys hashing unevenly (e.g. one hot suite thrashing a single shard
    /// while the rest of the cache sits idle).
    pub shard_evictions: Vec<u64>,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries the cache can actually hold (the *effective*
    /// capacity: the requested capacity rounded up to a whole number of
    /// entries per shard).
    pub capacity: usize,
    /// The capacity the operator asked for when the cache was built. Shard
    /// rounding can only inflate, so `capacity >= requested_capacity`;
    /// reporting both keeps sizing decisions honest (a `--cache-capacity 1`
    /// daemon really holds [`ScheduleCache::SHARDS`] entries).
    pub requested_capacity: usize,
}

impl CacheStats {
    /// Hit fraction of all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded map with least-recently-used eviction, driven by an *external*
/// monotonic tick so callers can share one clock across several maps (the
/// sharded schedule cache) or own a clock outright (the graph-plan cache).
/// This is the single LRU implementation both caches in this crate build on.
///
/// The ticks a map is given must be distinct (both callers draw them from one
/// `fetch_add` counter): `order` indexes every entry under its `last_used`
/// tick, so the least recently used entry is the index's first and eviction
/// never scans the map.
pub(crate) struct LruMap<K, V> {
    entries: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
    evictions: u64,
}

impl<K: std::cmp::Eq + Hash + Clone, V> Default for LruMap<K, V> {
    fn default() -> Self {
        LruMap { entries: HashMap::new(), order: BTreeMap::new(), evictions: 0 }
    }
}

impl<K: std::cmp::Eq + Hash + Clone, V> LruMap<K, V> {
    /// Look up `key`, refreshing its recency to `tick` on a hit.
    pub fn get(&mut self, key: &K, tick: u64) -> Option<&V> {
        let (value, last_used) = self.entries.get_mut(key)?;
        let indexed = self.order.remove(last_used).expect("every entry is indexed by its tick");
        self.order.insert(tick, indexed);
        *last_used = tick;
        Some(value)
    }

    /// Insert (or refresh) an entry at recency `tick`; a new key that takes
    /// the map over `capacity` evicts the least recently used of the entries
    /// it found there. Returns whether an eviction happened.
    pub fn insert(&mut self, key: K, value: V, tick: u64, capacity: usize) -> bool {
        let indexed = key.clone();
        let mut evicted = false;
        match self.entries.insert(key, (value, tick)) {
            Some((_, last_used)) => {
                self.order.remove(&last_used);
            }
            // The new entry is not indexed yet, so the index's first is the
            // oldest of the entries that were here before it.
            None if self.entries.len() > capacity => {
                if let Some((_, victim)) = self.order.pop_first() {
                    self.entries.remove(&victim);
                    self.evictions += 1;
                    evicted = true;
                }
            }
            None => {}
        }
        self.order.insert(tick, indexed);
        evicted
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Evictions this map has performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drop every entry (the eviction counter is preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Every resident `(key, value, last_used)` triple, unordered.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V, u64)> {
        self.entries.iter().map(|(k, (v, used))| (k, v, *used))
    }
}

type Shard = LruMap<CacheKey, OptimizeResult>;

/// The sharded schedule cache. All methods take `&self`; the cache is meant
/// to be shared across server threads (e.g. in an `Arc`).
pub struct ScheduleCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    capacity: usize,
    requested_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ScheduleCache {
    /// Number of independently locked shards.
    pub const SHARDS: usize = 16;

    /// A cache holding at most `capacity` results (at least one per shard).
    ///
    /// The effective capacity is `capacity` rounded up to a whole number of
    /// entries per shard — [`capacity`](Self::capacity) reports it, and
    /// [`stats`](Self::stats) reports it alongside the requested value so
    /// the rounding is visible to operators.
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = capacity.div_ceil(Self::SHARDS).max(1);
        ScheduleCache {
            shards: (0..Self::SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            capacity: shard_capacity * Self::SHARDS,
            requested_capacity: capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a cached result, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<OptimizeResult> {
        let tick = self.tick();
        let mut shard = self.lock_shard(key);
        match shard.get(key, tick) {
            Some(result) => {
                let result = result.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) a result, evicting the least recently used entry
    /// of the target shard if it is full.
    pub fn insert(&self, key: CacheKey, result: OptimizeResult) {
        let tick = self.tick();
        let mut shard = self.lock_shard(&key);
        if shard.insert(key, result, tick, self.shard_capacity) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of resident entries (the effective capacity).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The capacity requested at construction, before shard rounding.
    pub fn requested_capacity(&self) -> usize {
        self.requested_capacity
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock_recover(shard).clear();
        }
    }

    /// Evictions per shard, indexed by shard number.
    pub fn shard_evictions(&self) -> Vec<u64> {
        self.shards.iter().map(|s| lock_recover(s).evictions()).collect()
    }

    /// Snapshot of the hit/miss/eviction counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            shard_evictions: self.shard_evictions(),
            entries: self.len(),
            capacity: self.capacity,
            requested_capacity: self.requested_capacity,
        }
    }

    /// Every resident `(key, result)` pair, in recency order (least recently
    /// used first) so that re-inserting in order preserves eviction order.
    pub fn entries(&self) -> Vec<(CacheKey, OptimizeResult)> {
        let mut all: Vec<(CacheKey, OptimizeResult, u64)> = Vec::new();
        for shard in &self.shards {
            let shard = lock_recover(shard);
            all.extend(shard.iter().map(|(k, v, used)| (k.clone(), v.clone(), used)));
        }
        all.sort_by_key(|(_, _, used)| *used);
        all.into_iter().map(|(k, r, _)| (k, r)).collect()
    }

    fn lock_shard(&self, key: &CacheKey) -> std::sync::MutexGuard<'_, Shard> {
        lock_recover(&self.shards[key.shard_index(Self::SHARDS)])
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }
}

impl std::fmt::Debug for ScheduleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use conv_spec::{ConvShape, TileConfig};
    use mopt_core::OptimizedConfig;

    pub(crate) fn dummy_result(shape: &ConvShape, cost: f64) -> OptimizeResult {
        use mopt_core::optimizer::heuristic_config;
        let machine = MachineModel::tiny_test_machine();
        let config: TileConfig = heuristic_config(shape, &machine);
        let prediction =
            mopt_model::MultiLevelModel::new(*shape, machine, config.permutation.clone())
                .predict_config(&config);
        OptimizeResult {
            ranked: vec![OptimizedConfig { config, class_id: 1, predicted_cost: cost, prediction }],
            optimize_seconds: 0.0,
        }
    }

    fn key_for(k: usize) -> CacheKey {
        let shape = ConvShape::new(1, k, 3, 3, 3, 8, 8, 1).unwrap();
        CacheKey::new(shape, &MachineModel::tiny_test_machine(), &OptimizerOptions::fast())
    }

    #[test]
    fn miss_then_hit() {
        let cache = ScheduleCache::new(64);
        let key = key_for(4);
        assert!(cache.get(&key).is_none());
        let result = dummy_result(&key.spec.embedded_conv_shape(), 10.0);
        cache.insert(key.clone(), result.clone());
        assert_eq!(cache.get(&key), Some(result));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn distinct_options_are_distinct_keys() {
        let shape = ConvShape::new(1, 4, 3, 3, 3, 8, 8, 1).unwrap();
        let machine = MachineModel::tiny_test_machine();
        let fast = CacheKey::new(shape, &machine, &OptimizerOptions::fast());
        let thorough = CacheKey::new(
            shape,
            &machine,
            &OptimizerOptions { thorough: true, ..OptimizerOptions::fast() },
        );
        assert_ne!(fast, thorough);
        let cache = ScheduleCache::new(8);
        cache.insert(fast.clone(), dummy_result(&shape, 1.0));
        assert!(cache.get(&thorough).is_none());
        assert!(cache.get(&fast).is_some());
    }

    #[test]
    fn distinct_machines_are_distinct_keys() {
        let shape = ConvShape::new(1, 4, 3, 3, 3, 8, 8, 1).unwrap();
        let opts = OptimizerOptions::fast();
        let tiny = CacheKey::new(shape, &MachineModel::tiny_test_machine(), &opts);
        let i7 = CacheKey::new(shape, &MachineModel::i7_9700k(), &opts);
        assert_ne!(tiny, i7);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        // Single-shard-sized cache so eviction order is fully observable.
        let cache = ScheduleCache::new(1);
        assert_eq!(cache.capacity(), ScheduleCache::SHARDS);
        // Insert one more than capacity worth of keys that all map to
        // different shards is hard to arrange; instead drive one shard by
        // inserting many keys and checking global occupancy never exceeds
        // capacity and evictions hit the least recently used key.
        let keys: Vec<CacheKey> = (1..=64).map(key_for).collect();
        for key in &keys {
            cache.insert(key.clone(), dummy_result(&key.spec.embedded_conv_shape(), 1.0));
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats().evictions >= (64 - cache.capacity()) as u64);
    }

    /// The tick index evicts exactly what the scan it replaced would have:
    /// the resident entry with the smallest `last_used`, under hits, refreshes
    /// and ticks that arrive out of order (a tick is drawn before the shard
    /// lock is taken).
    #[test]
    fn lru_map_evicts_the_entry_a_scan_for_the_oldest_tick_finds() {
        const CAPACITY: usize = 5;
        let mut map: LruMap<u32, u32> = LruMap::default();
        let mut model: HashMap<u32, u64> = HashMap::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for step in 0..4000u64 {
            // Distinct ticks, locally out of order: pairs of steps swap.
            let tick = step ^ 1;
            let key = next(12) as u32;
            if next(3) == 0 {
                assert_eq!(map.get(&key, tick).is_some(), model.contains_key(&key));
                model.entry(key).and_modify(|used| *used = tick);
            } else {
                let victim = (model.len() >= CAPACITY && !model.contains_key(&key))
                    .then(|| *model.iter().min_by_key(|(_, used)| **used).unwrap().0);
                assert_eq!(map.insert(key, key, tick, CAPACITY), victim.is_some());
                if let Some(victim) = victim {
                    model.remove(&victim);
                }
                model.insert(key, tick);
            }
            let mut resident: Vec<(u32, u64)> = map.iter().map(|(k, _, used)| (*k, used)).collect();
            let mut expected: Vec<(u32, u64)> = model.iter().map(|(k, used)| (*k, *used)).collect();
            resident.sort_unstable();
            expected.sort_unstable();
            assert_eq!(resident, expected, "after step {step}");
            assert_eq!(map.order.len(), map.len());
        }
        assert!(map.evictions() > 100);
        map.clear();
        assert_eq!((map.len(), map.order.len()), (0, 0));
    }

    #[test]
    fn recently_used_entry_survives_eviction() {
        let cache = ScheduleCache::new(1); // shard capacity 1
                                           // Two keys in the same shard: insert A, insert B (evicts A), then
                                           // touch B and insert C — B must have been the most recent, so any
                                           // same-shard eviction removes the older entry, never breaks lookup.
        let keys: Vec<CacheKey> = (1..=400).map(key_for).collect();
        let a = &keys[0];
        cache.insert(a.clone(), dummy_result(&a.spec.embedded_conv_shape(), 1.0));
        // Find a key sharing a's shard.
        let same_shard = keys[1..]
            .iter()
            .find(|k| k.shard_index(ScheduleCache::SHARDS) == a.shard_index(ScheduleCache::SHARDS))
            .expect("some key shares the shard");
        cache.insert(same_shard.clone(), dummy_result(&same_shard.spec.embedded_conv_shape(), 2.0));
        // Shard capacity is 1, so `a` was evicted.
        assert!(cache.get(a).is_none());
        assert_eq!(cache.get(same_shard).map(|r| r.best().predicted_cost), Some(2.0));
        assert_eq!(cache.stats().evictions, 1);
        // The per-shard breakdown pins the eviction to a's shard.
        let per_shard = cache.shard_evictions();
        assert_eq!(per_shard.len(), ScheduleCache::SHARDS);
        assert_eq!(per_shard.iter().sum::<u64>(), 1);
        assert_eq!(per_shard[a.shard_index(ScheduleCache::SHARDS)], 1);
    }

    #[test]
    fn shard_eviction_counts_sum_to_the_global_counter() {
        let cache = ScheduleCache::new(1);
        for key in (1..=64).map(key_for) {
            cache.insert(key.clone(), dummy_result(&key.spec.embedded_conv_shape(), 1.0));
        }
        let stats = cache.stats();
        assert_eq!(stats.shard_evictions.iter().sum::<u64>(), stats.evictions);
        assert!(stats.evictions > 0);
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        let cache = std::sync::Arc::new(ScheduleCache::new(256));
        let keys: Vec<CacheKey> = (1..=32).map(key_for).collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = cache.clone();
                let keys = keys.clone();
                scope.spawn(move || {
                    for (i, key) in keys.iter().enumerate() {
                        if (i + t) % 2 == 0 {
                            cache.insert(
                                key.clone(),
                                dummy_result(&key.spec.embedded_conv_shape(), i as f64),
                            );
                        } else {
                            let _ = cache.get(key);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.insertions, 64);
        assert_eq!(stats.hits + stats.misses, 64);
        assert!(cache.len() <= 32);
    }

    #[test]
    fn poisoned_shard_keeps_serving_after_a_caught_panic() {
        let cache = std::sync::Arc::new(ScheduleCache::new(64));
        let key = key_for(4);
        cache.insert(key.clone(), dummy_result(&key.spec.embedded_conv_shape(), 1.0));

        // Panic on another thread while holding the key's shard lock —
        // exactly what a panic mid-insert leaves behind. The panic is caught
        // (joined), poisoning the mutex.
        let shard = key.shard_index(ScheduleCache::SHARDS);
        let poisoner = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let _guard = cache.shards[shard].lock().unwrap();
                panic!("simulated panic mid-insert");
            })
        };
        assert!(poisoner.join().is_err(), "the panic must have fired");
        assert!(cache.shards[shard].is_poisoned());

        // Every operation touching the poisoned shard still works.
        assert_eq!(cache.get(&key).map(|r| r.best().predicted_cost), Some(1.0));
        cache.insert(key.clone(), dummy_result(&key.spec.embedded_conv_shape(), 2.0));
        assert_eq!(cache.get(&key).map(|r| r.best().predicted_cost), Some(2.0));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.shard_evictions.len(), ScheduleCache::SHARDS);
        assert_eq!(cache.entries().len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn stats_report_requested_and_effective_capacity() {
        // A request of 1 is inflated to one entry per shard; stats must show
        // both numbers so the operator sees the rounding.
        let small = ScheduleCache::new(1);
        assert_eq!(small.requested_capacity(), 1);
        assert_eq!(small.capacity(), ScheduleCache::SHARDS);
        let stats = small.stats();
        assert_eq!(stats.requested_capacity, 1);
        assert_eq!(stats.capacity, ScheduleCache::SHARDS);
        // A shard-aligned request is reported unchanged.
        let aligned = ScheduleCache::new(4 * ScheduleCache::SHARDS);
        assert_eq!(aligned.stats().requested_capacity, aligned.stats().capacity);
        // A misaligned request rounds up, never down.
        let odd = ScheduleCache::new(ScheduleCache::SHARDS + 1);
        assert_eq!(odd.stats().requested_capacity, ScheduleCache::SHARDS + 1);
        assert_eq!(odd.stats().capacity, 2 * ScheduleCache::SHARDS);
    }

    #[test]
    fn entries_round_trip_in_recency_order() {
        let cache = ScheduleCache::new(64);
        let keys: Vec<CacheKey> = (1..=8).map(key_for).collect();
        for (i, key) in keys.iter().enumerate() {
            cache.insert(key.clone(), dummy_result(&key.spec.embedded_conv_shape(), i as f64));
        }
        // Touch the first key so it becomes most recent.
        let _ = cache.get(&keys[0]);
        let entries = cache.entries();
        assert_eq!(entries.len(), 8);
        assert_eq!(entries.last().unwrap().0, keys[0]);
        cache.clear();
        assert!(cache.is_empty());
    }
}

//! Serving support for graph plans: a fingerprint-keyed plan cache plus the
//! aggregate counters reported in the `Stats` reply's `graph` section.
//!
//! Graph plans are cheap to store and expensive to make (one optimizer solve
//! per distinct schedulable node), so the service memoizes whole
//! [`GraphPlan`]s keyed by everything that determines them: the graph's
//! stable [`mopt_graph::Graph::fingerprint`], the machine fingerprint, and
//! the optimizer options. The underlying per-operator
//! schedules additionally land in the shared [`crate::ScheduleCache`], so
//! even a *miss* here is mostly warm when the same layers were planned
//! before (by `Optimize`, `PlanNetwork`, or another graph).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mopt_core::OptimizerOptions;
use mopt_graph::GraphPlan;
use serde::{Deserialize, Serialize};

use crate::cache::{lock_recover, LruMap};

/// Everything a cached graph plan depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GraphCacheKey {
    /// [`mopt_graph::Graph::fingerprint`] of the request graph.
    pub graph_fingerprint: u64,
    /// `MachineModel::fingerprint` of the target machine.
    pub machine_fingerprint: u64,
    /// The optimizer options used for the per-operator solves.
    pub options: OptimizerOptions,
}

/// The `graph` section of the `Stats` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphServiceStats {
    /// Graph plans currently cached.
    pub entries: usize,
    /// Maximum resident graph plans.
    pub capacity: usize,
    /// Plans evicted to stay within capacity.
    pub evictions: u64,
    /// `PlanGraph` requests served from the plan cache.
    pub hits: u64,
    /// `PlanGraph` requests that ran the planner.
    pub misses: u64,
    /// Segments emitted by fresh plans (cumulative).
    pub segments_planned: u64,
    /// Always 0: plans fuse nothing.
    pub fusions_taken: u64,
    /// Always 0.
    pub fusions_rejected: u64,
}

/// A thread-safe, capacity-bounded (LRU) cache of graph plans with the
/// service-level counters. Inline `PlanGraph` requests can carry arbitrary
/// graphs, so — like the schedule cache next to it — residency must be
/// bounded or a client looping over distinct graphs would grow server
/// memory without limit. The eviction machinery is the same `LruMap` the
/// schedule cache's shards use.
pub struct GraphPlanCache {
    entries: Mutex<LruMap<GraphCacheKey, GraphPlan>>,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    segments_planned: AtomicU64,
}

impl GraphPlanCache {
    /// A cache holding at most `capacity` plans (at least 1).
    pub fn new(capacity: usize) -> Self {
        GraphPlanCache {
            entries: Mutex::new(LruMap::default()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            segments_planned: AtomicU64::new(0),
        }
    }

    /// Look up a cached plan, refreshing its recency on a hit.
    pub fn get(&self, key: &GraphCacheKey) -> Option<GraphPlan> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut entries = lock_recover(&self.entries);
        match entries.get(key, tick) {
            Some(plan) => {
                let plan = plan.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(plan)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly computed plan, folding its segment count into the
    /// cumulative service counter and evicting the least recently used plan
    /// when full.
    pub fn insert(&self, key: GraphCacheKey, plan: &GraphPlan) {
        self.segments_planned.fetch_add(plan.segments.len() as u64, Ordering::Relaxed);
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut entries = lock_recover(&self.entries);
        entries.insert(key, plan.clone(), tick, self.capacity);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        lock_recover(&self.entries).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum resident plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the counters for the `Stats` reply.
    pub fn stats(&self) -> GraphServiceStats {
        let entries = lock_recover(&self.entries);
        GraphServiceStats {
            entries: entries.len(),
            capacity: self.capacity,
            evictions: entries.evictions(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            segments_planned: self.segments_planned.load(Ordering::Relaxed),
            fusions_taken: 0,
            fusions_rejected: 0,
        }
    }
}

impl std::fmt::Debug for GraphPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphPlanCache").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::{ConvShape, MachineModel};
    use mopt_core::{MOptOptimizer, OptimizerOptions};
    use mopt_graph::{builders, GraphPlanner};

    fn fast_options() -> OptimizerOptions {
        OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() }
    }

    fn small_plan(machine: &MachineModel) -> GraphPlan {
        let g = builders::mobilenet_v2_block_from(&ConvShape::depthwise(8, 10, 3, 1), "g");
        GraphPlanner::new(machine.clone())
            .plan(&g, |spec| MOptOptimizer::optimize_spec(spec, machine.clone(), fast_options()))
            .unwrap()
    }

    #[test]
    fn hit_miss_and_counter_accumulation() {
        let machine = MachineModel::tiny_test_machine();
        let plan = small_plan(&machine);
        let cache = GraphPlanCache::new(8);
        let key = GraphCacheKey {
            graph_fingerprint: plan.fingerprint,
            machine_fingerprint: plan.machine_fingerprint,
            options: fast_options(),
        };
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), &plan);
        assert_eq!(cache.get(&key).as_ref(), Some(&plan));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.capacity, 8);
        assert_eq!(stats.segments_planned, plan.segments.len() as u64);
        assert_eq!((stats.fusions_taken, stats.fusions_rejected), (0, 0));
        // Different options are a different key.
        let other = GraphCacheKey { options: OptimizerOptions::default(), ..key };
        assert!(cache.get(&other).is_none());
        assert!(!cache.is_empty());
    }

    #[test]
    fn capacity_bounds_residency_with_lru_eviction() {
        let machine = MachineModel::tiny_test_machine();
        let plan = small_plan(&machine);
        let cache = GraphPlanCache::new(2);
        let key = |fp: u64| GraphCacheKey {
            graph_fingerprint: fp,
            machine_fingerprint: plan.machine_fingerprint,
            options: fast_options(),
        };
        cache.insert(key(1), &plan);
        cache.insert(key(2), &plan);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), &plan);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(2)).is_none(), "LRU plan must be evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        // Re-inserting an existing key never evicts.
        cache.insert(key(1), &plan);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }
}

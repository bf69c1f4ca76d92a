//! Whole-network batch planning.
//!
//! Networks repeat shapes (ResNet-18's 12 conv layers contain only 12
//! distinct shapes across many more layer instances, and serving traffic
//! repeats whole networks), so the planner first dedupes layers to unique
//! cache keys, serves what it can from the [`ScheduleCache`], and fans the
//! remaining independent solves across a `std::thread` worker pool — the
//! per-layer problems share nothing, so this is embarrassingly parallel.
//! The result is a [`NetworkPlan`] with one best configuration per layer
//! plus aggregate cost and timing statistics.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use conv_spec::{BenchmarkOp, ConvShape, MachineModel, Spec};
use mopt_core::{OptimizeResult, OptimizedConfig, OptimizerOptions};
use mopt_graph::{Graph, GraphError};
use mopt_trace::TraceContext;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheKey, ScheduleCache};
use crate::dbtier::DbTier;
use crate::tiers::resolve_cold;
use crate::wire::Tier;

/// One layer to plan: a display name plus its problem spec.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedLayer {
    /// Display name (e.g. the paper's `"Y0"`, or `"conv3_2"`).
    pub name: String,
    /// The optimization problem (conv, matmul, pooling, or elementwise).
    pub spec: Spec,
}

impl NamedLayer {
    /// A conv layer (the pre-spec constructor shape).
    pub fn conv(name: impl Into<String>, shape: ConvShape) -> Self {
        NamedLayer { name: name.into(), spec: Spec::Conv(shape) }
    }

    /// One layer per schedulable node (conv, matmul, pool) of `graph`, in
    /// node order.
    pub fn of_graph(graph: &Graph) -> Result<Vec<NamedLayer>, GraphError> {
        let dims = graph.node_output_dims()?;
        Ok(graph
            .schedulable_nodes()
            .into_iter()
            .filter_map(|id| {
                let spec = graph.node_spec(id, &dims)?;
                Some(NamedLayer { name: graph.nodes[id].name.clone(), spec })
            })
            .collect())
    }
}

impl From<&BenchmarkOp> for NamedLayer {
    fn from(op: &BenchmarkOp) -> Self {
        NamedLayer { name: op.name.clone(), spec: Spec::Conv(op.shape) }
    }
}

// The problem field follows the one wire rule in `Spec::{serialize_field,
// from_fields}`, as `CacheKey` does.
impl Serialize for NamedLayer {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) {
        sink.begin_object();
        sink.field("name", &self.name);
        self.spec.serialize_field(sink);
        sink.end_object();
    }
}

impl Deserialize for NamedLayer {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let pairs =
            v.as_object().ok_or_else(|| serde::DeError::expected("an object", "NamedLayer"))?;
        let spec = Spec::from_fields(pairs, "NamedLayer")?;
        Ok(NamedLayer { name: serde::de_field(pairs, "name", "NamedLayer")?, spec })
    }
}

/// The plan for one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedLayer {
    /// The layer's display name.
    pub name: String,
    /// The layer's shape.
    pub shape: ConvShape,
    /// The best configuration found (MOpt-1).
    pub best: OptimizedConfig,
    /// Whether the result came from the cache (vs. a fresh solve).
    pub from_cache: bool,
}

/// Aggregate statistics for one planning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Layers planned.
    pub layers: usize,
    /// Unique cache keys among them.
    pub unique_shapes: usize,
    /// Unique keys served from the cache.
    pub cache_hits: usize,
    /// Unique keys served from the schedule database (stored top-k
    /// re-ranked — no optimizer run). Always 0 without an attached db.
    pub db_hits: usize,
    /// Unique keys solved fresh.
    pub solves: usize,
    /// Sum of the layers' predicted bottleneck costs (cycles).
    pub total_predicted_cost: f64,
    /// Sum of per-solve optimizer seconds (CPU cost of the fresh solves).
    pub solve_seconds: f64,
    /// Wall-clock seconds for the whole planning call.
    pub wall_seconds: f64,
    /// Worker threads used for the fresh solves.
    pub workers: usize,
}

/// The plan for a whole network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkPlan {
    /// Per-layer plans, in request order.
    pub layers: Vec<PlannedLayer>,
    /// Aggregate statistics.
    pub stats: PlanStats,
}

impl NetworkPlan {
    /// The planned layer with the largest predicted cost (the network's
    /// projected bottleneck), if any layers were planned. The order is
    /// [`mopt_core::pricing::cost_order`], so the answer does not depend on
    /// layer order even if a price is NaN (which then reads as the
    /// bottleneck instead of hiding behind a finite one).
    pub fn bottleneck(&self) -> Option<&PlannedLayer> {
        self.layers.iter().max_by(|a, b| {
            mopt_core::pricing::cost_order(a.best.predicted_cost, b.best.predicted_cost)
        })
    }
}

/// Plans whole networks against one machine model, memoizing through a
/// shared [`ScheduleCache`].
pub struct NetworkPlanner<'a> {
    cache: &'a ScheduleCache,
    db: Option<&'a DbTier>,
    machine: MachineModel,
    options: OptimizerOptions,
    workers: usize,
    ctx: TraceContext,
}

impl<'a> NetworkPlanner<'a> {
    /// A planner for `machine` with `options`, using as many worker threads
    /// as the host exposes (capped at 8).
    pub fn new(cache: &'a ScheduleCache, machine: MachineModel, options: OptimizerOptions) -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).min(8);
        NetworkPlanner { cache, db: None, machine, options, workers, ctx: TraceContext::disabled() }
    }

    /// Attach (or detach) the persistent schedule database: cold layers
    /// are answered from stored re-ranked entries before the optimizer,
    /// and fresh solves are written through.
    pub fn with_db(mut self, db: Option<&'a DbTier>) -> Self {
        self.db = db;
        self
    }

    /// Record the cold solves' stages (`db_lookup`, `solve`, ...) into a
    /// request's trace.
    pub fn with_trace(mut self, ctx: &TraceContext) -> Self {
        self.ctx = ctx.clone();
        self
    }

    /// Override the worker-pool size (values are clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Plan a list of benchmark operators.
    pub fn plan_ops(&self, ops: &[BenchmarkOp]) -> NetworkPlan {
        let layers: Vec<NamedLayer> = ops.iter().map(NamedLayer::from).collect();
        self.plan(&layers)
    }

    /// Worker threads used for `cold` cache-missing problems.
    fn pool_size(&self, cold: usize) -> usize {
        self.workers.min(cold).max(1)
    }

    /// Resolve every unique problem among `layers` through the tier stack:
    /// what the [`ScheduleCache`] holds is served from it, and the rest walk
    /// the cold tiers (schedule database, then a fresh solve, written
    /// through) fanned across the worker pool — the per-layer problems share
    /// nothing, so this is embarrassingly parallel. Returns each problem's
    /// full ranked result with the tier that answered it.
    pub fn resolve(&self, layers: &[NamedLayer]) -> HashMap<Spec, (Tier, OptimizeResult)> {
        let mut resolved: HashMap<Spec, (Tier, OptimizeResult)> = HashMap::new();
        let mut cold: Vec<CacheKey> = Vec::new();
        let mut seen: HashSet<Spec> = HashSet::new();
        for layer in layers.iter().filter(|layer| seen.insert(layer.spec)) {
            let key = CacheKey::new(layer.spec, &self.machine, &self.options);
            match self.cache.get(&key) {
                Some(result) => {
                    resolved.insert(layer.spec, (Tier::Cache, result));
                }
                None => cold.push(key),
            }
        }
        if !cold.is_empty() {
            let solved: Mutex<Vec<(Spec, (Tier, OptimizeResult))>> = Mutex::new(Vec::new());
            let next_job = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..self.pool_size(cold.len()) {
                    scope.spawn(|| loop {
                        let j = next_job.fetch_add(1, Ordering::Relaxed);
                        let Some(key) = cold.get(j) else { break };
                        let answer =
                            resolve_cold(self.cache, self.db, key, &self.machine, &self.ctx);
                        crate::cache::lock_recover(&solved).push((key.spec, answer));
                    });
                }
            });
            resolved.extend(solved.into_inner().unwrap_or_else(|e| e.into_inner()));
        }
        resolved
    }

    /// Plan an explicit layer list.
    ///
    /// Identical shapes are solved once; every layer gets its plan in
    /// request order. The result is deterministic: it equals what
    /// sequential per-layer [`mopt_core::MOptOptimizer::optimize`] calls
    /// would produce (the solver is seeded, and solves are independent).
    pub fn plan(&self, layers: &[NamedLayer]) -> NetworkPlan {
        let started = Instant::now();
        let resolved = self.resolve(layers);
        let served_by = |tier: Tier| resolved.values().filter(|(t, _)| *t == tier).count();
        let cache_hits = served_by(Tier::Cache);

        let mut total_predicted_cost = 0.0;
        let planned: Vec<PlannedLayer> = layers
            .iter()
            .map(|layer| {
                let (tier, result) = &resolved[&layer.spec];
                let best = result.best().clone();
                total_predicted_cost += best.predicted_cost;
                PlannedLayer {
                    name: layer.name.clone(),
                    shape: layer.spec.embedded_conv_shape(),
                    best,
                    from_cache: *tier == Tier::Cache,
                }
            })
            .collect();
        NetworkPlan {
            layers: planned,
            stats: PlanStats {
                layers: layers.len(),
                unique_shapes: resolved.len(),
                cache_hits,
                db_hits: served_by(Tier::Db),
                solves: served_by(Tier::Solver),
                total_predicted_cost,
                // Each cold problem's optimizer time once (not per duplicate);
                // folded from a positive zero — an empty `sum()` is `-0.0`.
                solve_seconds: resolved
                    .values()
                    .filter(|(tier, _)| *tier != Tier::Cache)
                    .fold(0.0, |sum, (_, result)| sum + result.optimize_seconds),
                wall_seconds: started.elapsed().as_secs_f64(),
                workers: self.pool_size(resolved.len() - cache_hits),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::{benchmarks, BenchmarkSuite};
    use mopt_core::MOptOptimizer;

    fn fast_options() -> OptimizerOptions {
        OptimizerOptions { max_classes: 2, ..OptimizerOptions::fast() }
    }

    fn tiny_layers() -> Vec<NamedLayer> {
        let shapes = [
            ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap(),
            ConvShape::new(1, 16, 8, 1, 1, 8, 8, 1).unwrap(),
            ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap(), // duplicate of #0
            ConvShape::new(1, 4, 4, 3, 3, 12, 12, 2).unwrap(),
        ];
        shapes
            .iter()
            .enumerate()
            .map(|(i, &shape)| NamedLayer::conv(format!("L{i}"), shape))
            .collect()
    }

    #[test]
    fn dedupes_identical_shapes() {
        let cache = ScheduleCache::new(64);
        let planner =
            NetworkPlanner::new(&cache, MachineModel::tiny_test_machine(), fast_options())
                .with_workers(2);
        let plan = planner.plan(&tiny_layers());
        assert_eq!(plan.stats.layers, 4);
        assert_eq!(plan.stats.unique_shapes, 3);
        assert_eq!(plan.stats.solves, 3);
        assert_eq!(plan.stats.cache_hits, 0);
        // Duplicate layers get identical plans.
        assert_eq!(plan.layers[0].best, plan.layers[2].best);
        assert!(plan.bottleneck().is_some());
    }

    #[test]
    fn second_run_is_all_cache_hits() {
        let cache = ScheduleCache::new(64);
        let planner =
            NetworkPlanner::new(&cache, MachineModel::tiny_test_machine(), fast_options())
                .with_workers(2);
        let cold = planner.plan(&tiny_layers());
        let warm = planner.plan(&tiny_layers());
        assert_eq!(warm.stats.cache_hits, 3);
        assert_eq!(warm.stats.solves, 0);
        assert!(warm.layers.iter().all(|l| l.from_cache));
        assert!(cold.layers.iter().all(|l| !l.from_cache));
        for (a, b) in cold.layers.iter().zip(&warm.layers) {
            assert_eq!(a.best, b.best);
        }
    }

    #[test]
    fn parallel_plan_matches_sequential_optimization() {
        let cache = ScheduleCache::new(64);
        let machine = MachineModel::tiny_test_machine();
        let options = fast_options();
        let layers = tiny_layers();
        let plan = NetworkPlanner::new(&cache, machine.clone(), options.clone())
            .with_workers(4)
            .plan(&layers);
        for layer in &plan.layers {
            let sequential =
                MOptOptimizer::new(layer.shape, machine.clone(), options.clone()).optimize();
            assert_eq!(
                layer.best,
                *sequential.best(),
                "parallel plan for {} diverged from a sequential solve",
                layer.name
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let machine = MachineModel::tiny_test_machine();
        let options = fast_options();
        let layers = tiny_layers();
        let cache1 = ScheduleCache::new(64);
        let plan1 = NetworkPlanner::new(&cache1, machine.clone(), options.clone())
            .with_workers(1)
            .plan(&layers);
        let cache4 = ScheduleCache::new(64);
        let plan4 = NetworkPlanner::new(&cache4, machine, options).with_workers(4).plan(&layers);
        for (a, b) in plan1.layers.iter().zip(&plan4.layers) {
            assert_eq!(a.best, b.best);
        }
    }

    #[test]
    fn db_backed_planner_skips_the_optimizer_on_a_cold_cache() {
        let dir = std::env::temp_dir().join(format!("mopt-batch-db-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let machine = MachineModel::tiny_test_machine();
        let options = fast_options();
        let layers = tiny_layers();
        let db = crate::dbtier::DbTier::open(&dir).unwrap();
        let cache = ScheduleCache::new(64);
        let cold = NetworkPlanner::new(&cache, machine.clone(), options.clone())
            .with_db(Some(&db))
            .with_workers(2)
            .plan(&layers);
        assert_eq!(cold.stats.solves, 3);
        assert_eq!(cold.stats.db_hits, 0);
        db.flush().unwrap();
        // A cold cache over the same db: every unique layer is served from
        // stored entries — zero optimizer runs, identical best schedules.
        let db = crate::dbtier::DbTier::open(&dir).unwrap();
        let fresh = ScheduleCache::new(64);
        let warm = NetworkPlanner::new(&fresh, machine, options)
            .with_db(Some(&db))
            .with_workers(2)
            .plan(&layers);
        assert_eq!(warm.stats.db_hits, 3);
        assert_eq!(warm.stats.solves, 0);
        for (a, b) in cold.layers.iter().zip(&warm.layers) {
            assert_eq!(a.best, b.best);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn named_layer_wire_form_is_legacy_for_conv_and_tagged_for_specs() {
        let conv = NamedLayer::conv("Y0", ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap());
        let conv_json = serde_json::to_string(&conv).unwrap();
        assert!(conv_json.contains("\"shape\""), "conv layers keep the flat legacy field");
        assert!(!conv_json.contains("\"spec\""));
        assert_eq!(serde_json::from_str::<NamedLayer>(&conv_json).unwrap(), conv);

        let fc = NamedLayer { name: "fc".to_string(), spec: Spec::matmul(1000, 1, 2048) };
        let fc_json = serde_json::to_string(&fc).unwrap();
        assert!(fc_json.contains("\"spec\""));
        assert_eq!(serde_json::from_str::<NamedLayer>(&fc_json).unwrap(), fc);
    }

    #[test]
    fn plans_mixed_conv_and_matmul_layers() {
        let cache = ScheduleCache::new(64);
        let machine = MachineModel::tiny_test_machine();
        let planner = NetworkPlanner::new(&cache, machine.clone(), fast_options()).with_workers(2);
        let layers = vec![
            NamedLayer::conv("conv", ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()),
            NamedLayer { name: "fc".to_string(), spec: Spec::matmul(40, 10, 16) },
        ];
        let plan = planner.plan(&layers);
        assert_eq!(plan.stats.solves, 2);
        // The matmul plan equals a direct spec solve, on its embedded shape.
        let direct = MOptOptimizer::optimize_spec(&layers[1].spec, machine, fast_options());
        assert_eq!(plan.layers[1].best, *direct.best());
        assert_eq!(plan.layers[1].shape, layers[1].spec.embedded_conv_shape());
    }

    #[test]
    fn plan_ops_covers_every_layer() {
        let cache = ScheduleCache::new(64);
        // Scaled-down machine + fast options keep this a functional test.
        let mut options = fast_options();
        options.max_classes = 1;
        let planner = NetworkPlanner::new(&cache, MachineModel::tiny_test_machine(), options);
        let ops = benchmarks::scaled_operators(6, 8);
        let resnet: Vec<BenchmarkOp> =
            ops.into_iter().filter(|op| op.suite == BenchmarkSuite::ResNet18).collect();
        let plan = planner.plan_ops(&resnet);
        assert_eq!(plan.stats.layers, 12);
        assert!(plan.stats.unique_shapes <= 12);
        for (op, layer) in resnet.iter().zip(&plan.layers) {
            assert_eq!(op.name, layer.name);
            assert!(layer.best.config.validate(&op.shape).is_ok());
        }
    }
}

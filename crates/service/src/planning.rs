//! The four planning verbs — `Optimize`, `Explain`, `PlanNetwork`,
//! `PlanGraph` — and what they share: how a request names its problem and
//! its target, and the one walk through the tier stack (cache, then
//! [`resolve_cold`] under single-flight) that answers it.

use std::sync::atomic::Ordering;

use conv_spec::{benchmarks, ConvShape, MachineModel, Spec};
use mopt_core::{pricing, LayoutPolicy, MOptOptimizer, OptimizeResult, OptimizerOptions};
use mopt_graph::{builders, render_plan, Graph};
use mopt_model::prune::NUM_CLASSES;
use mopt_model::ParallelSpec;
use mopt_trace::TraceContext;

use crate::batch::{NamedLayer, NetworkPlanner};
use crate::cache::{CacheKey, ScheduleCache};
use crate::server::ServiceState;
use crate::tiers::resolve_cold;
use crate::wire::{MachineSpec, Request, Response, Tier};

/// How an `Optimize` or `Explain` request names its problem: a tagged
/// `spec`, a Table-1 `op` name, or a legacy flat `shape`, in that precedence
/// order.
#[derive(Clone, Copy)]
pub(crate) struct Problem<'a> {
    pub(crate) spec: Option<&'a Spec>,
    pub(crate) op: Option<&'a str>,
    pub(crate) shape: Option<ConvShape>,
}

impl Problem<'_> {
    fn resolve(&self, verb: &str) -> Result<Spec, String> {
        match (self.spec, self.op, self.shape) {
            (Some(spec), _, _) => {
                spec.validate().map_err(|e| format!("invalid spec: {e}"))?;
                Ok(*spec)
            }
            (None, Some(name), _) => match benchmarks::by_name(name) {
                Some(bench) => Ok(Spec::Conv(bench.shape)),
                None => Err(format!("unknown Table-1 operator `{name}`")),
            },
            (None, None, Some(shape)) => Ok(Spec::Conv(shape)),
            (None, None, None) => Err(format!("{verb} needs a `spec`, an `op`, or a `shape`")),
        }
    }

    /// `Some(true)` when the request named a deprecated alias (the field is
    /// omitted — `null` — for everything else).
    fn deprecation(&self) -> Option<bool> {
        self.op.filter(|name| benchmarks::is_deprecated_alias(name)).map(|_| true)
    }

    /// The `Optimize` reply for this problem, resolved to `spec` and served
    /// by `tier`.
    fn optimized(&self, spec: Spec, tier: Tier, result: OptimizeResult) -> Response {
        Response::Optimized {
            op: self.op.map(str::to_string),
            spec: Some(spec),
            shape: spec.embedded_conv_shape(),
            cached: tier == Tier::Cache,
            tier: Some(tier),
            deprecated: self.deprecation(),
            result,
            trace: None,
        }
    }
}

/// What a planning request (`Optimize`, `Explain`, `PlanNetwork`,
/// `PlanGraph`) plans for: its machine model and its effective optimizer
/// options — the request's `options` (or the defaults), with an explicit
/// top-level `threads` field taking precedence over `options.threads`.
/// The options are the cache, flight and db keys, so two
/// spellings of one answer are made one here: `threads: 0` plans for one
/// thread, `layout_policy: "Fixed"` is the unset policy, and `max_classes`
/// is clamped to the classes there are (the search takes at least one, and
/// there are [`NUM_CLASSES`]).
///
/// Both come from outside the program and are checked here, before any
/// tier is touched: an invalid inline machine or an option the search
/// cannot run with is the request's `Error`, not a panicking worker.
pub(crate) fn request_target(
    machine: &MachineSpec,
    options: &Option<OptimizerOptions>,
    threads: Option<usize>,
) -> Result<(MachineModel, OptimizerOptions), String> {
    let machine = machine.resolve()?;
    let mut options = options.clone().unwrap_or_default();
    options.threads = threads.unwrap_or(options.threads).max(1);
    if options.layout_policy == Some(LayoutPolicy::Fixed) {
        options.layout_policy = None;
    }
    options.max_classes = options.max_classes.clamp(1, NUM_CLASSES);
    options.validate().map_err(|e| format!("invalid options: {e}"))?;
    Ok((machine, options))
}

impl ServiceState {
    /// The batch planner behind `PlanNetwork` and `PlanGraph`: this state's
    /// cache and database, the request's trace, and its worker count when it
    /// names one.
    fn planner<'a>(
        &'a self,
        machine: MachineModel,
        options: OptimizerOptions,
        workers: Option<usize>,
        ctx: &TraceContext,
    ) -> NetworkPlanner<'a> {
        let planner =
            NetworkPlanner::new(&self.cache, machine, options).with_db(self.db()).with_trace(ctx);
        match workers {
            Some(workers) => planner.with_workers(workers),
            None => planner,
        }
    }

    /// Serve one [`Spec`] through the full tier stack — cache probe, then
    /// [`resolve_cold`] under single-flight — recording each stage in `ctx`
    /// and counting the serving tier. `Optimize` and `Explain` both come
    /// through here, and the batch planner behind `PlanNetwork` and
    /// `PlanGraph` walks the same `resolve_cold`, so every verb returns
    /// bit-identical schedules for identical problems.
    fn resolve_spec(
        &self,
        spec: &Spec,
        machine: &MachineModel,
        options: &OptimizerOptions,
        ctx: &TraceContext,
    ) -> Result<(Tier, OptimizeResult), String> {
        let key = CacheKey::new(*spec, machine, options);
        if let Some(result) = self.cache_tier(&key, ScheduleCache::get, ctx) {
            return Ok((Tier::Cache, result));
        }
        // Cold path, under single-flight: concurrent misses on this key
        // share one leader, which walks the colder tiers; waiters park and
        // receive a clone of the leader's `(tier, result)`, so all coalesced
        // responses are bit-identical. A panicking solve is propagated to
        // every waiter as an `Error` response and the key stays clean for
        // the next request.
        //
        // The closure runs on the leader's thread, so its stages
        // (db_lookup / solve / writebacks) land inside the *leader's*
        // `flight` span; a waiter's `flight` span has no solve child — its
        // duration is pure coalesced wait.
        let outcome = {
            let _flight = ctx.span("flight");
            let (role, outcome) = self.flight.run(key.clone(), || {
                self.test_solve_delay();
                resolve_cold(&self.cache, self.db(), &key, machine, ctx)
            });
            ctx.tag("role", role.label());
            outcome
        };
        let (tier, result) = outcome.map_err(|e| format!("optimize failed: {e}"))?;
        self.tier_hits[tier as usize].fetch_add(1, Ordering::Relaxed);
        ctx.tag("tier", tier.label());
        Ok((tier, result))
    }

    pub(crate) fn handle_optimize(
        &self,
        problem: Problem<'_>,
        machine: MachineModel,
        options: OptimizerOptions,
        ctx: &TraceContext,
    ) -> Result<Response, String> {
        let spec = problem.resolve("Optimize")?;
        let (tier, result) = self.resolve_spec(&spec, &machine, &options, ctx)?;
        Ok(problem.optimized(spec, tier, result))
    }

    /// The `Optimize` reply a cache read alone gives: `None`, with nothing
    /// counted, when `request` is not a valid `Optimize` or its key is not
    /// resident. The event loop answers with it; a request it declines goes
    /// to the worker pool, which serves it in full.
    pub(crate) fn optimize_resident(
        &self,
        request: &Request,
        ctx: &TraceContext,
    ) -> Option<Response> {
        let Request::Optimize { spec, op, shape, machine, options, threads, trace: _ } = request
        else {
            return None;
        };
        let (machine, options) = request_target(machine, options, *threads).ok()?;
        let problem = Problem { spec: spec.as_ref(), op: op.as_deref(), shape: *shape };
        let spec = problem.resolve("Optimize").ok()?;
        let key = CacheKey::new(spec, &machine, &options);
        let result = self.cache_tier(&key, ScheduleCache::get_resident, ctx)?;
        Some(problem.optimized(spec, Tier::Cache, result))
    }

    /// Tier 1, the in-process cache, probed with `lookup`: a hit is counted
    /// and tagged as the cache tier's.
    fn cache_tier(
        &self,
        key: &CacheKey,
        lookup: fn(&ScheduleCache, &CacheKey) -> Option<OptimizeResult>,
        ctx: &TraceContext,
    ) -> Option<OptimizeResult> {
        let hit = {
            let _probe = ctx.span("cache_probe");
            lookup(&self.cache, key)
        }?;
        self.tier_hits[Tier::Cache as usize].fetch_add(1, Ordering::Relaxed);
        ctx.tag("tier", Tier::Cache.label());
        Some(hit)
    }

    pub(crate) fn handle_explain(
        &self,
        problem: Problem<'_>,
        machine: MachineModel,
        options: OptimizerOptions,
        ctx: &TraceContext,
    ) -> Result<Response, String> {
        let spec = problem.resolve("Explain")?;
        let (tier, result) = self.resolve_spec(&spec, &machine, &options, ctx)?;
        // The search trace is a re-run of the one search the solver tier
        // runs (seeded, so it finds the winner a fresh solve would), on the
        // spec's embedded conv shape — exactly what the optimizer solves. The
        // *served* schedule above can come from a warmer tier; `tier` says
        // which one actually answered.
        let shape = spec.embedded_conv_shape();
        let search = {
            let _span = ctx.span("search_trace");
            MOptOptimizer::new(shape, machine.clone(), options.clone()).optimize_traced().1
        };
        // Break the served winner's certified price down per memory level,
        // under the exact parallel split the winning config carries and the
        // model search and re-rank priced it with.
        let best = result.best();
        let breakdown = {
            let _span = ctx.span("cost_breakdown");
            let parallel =
                ParallelSpec { threads: options.threads, factors: best.config.parallel.as_array() };
            pricing::pricing_model(&shape, &machine, best.config.permutation.clone(), parallel)
                .cost_breakdown(&best.config)
        };
        Ok(Response::Explained {
            op: problem.op.map(str::to_string),
            spec: Some(spec),
            shape,
            cached: tier == Tier::Cache,
            tier: Some(tier),
            deprecated: problem.deprecation(),
            result,
            search,
            breakdown,
            trace: None,
        })
    }

    pub(crate) fn handle_plan(
        &self,
        suite: Option<&str>,
        layers: Option<&[NamedLayer]>,
        machine: MachineModel,
        options: OptimizerOptions,
        workers: Option<usize>,
        ctx: &TraceContext,
    ) -> Result<Response, String> {
        let layer_list: Vec<NamedLayer> = match (suite, layers) {
            (Some(name), _) => benchmarks::suite_by_name(name)
                .ok_or_else(|| benchmarks::unknown_suite(name, benchmarks::suite_names()))?
                .iter()
                .map(NamedLayer::from)
                .collect(),
            (None, Some(layers)) if !layers.is_empty() => layers.to_vec(),
            _ => return Err("PlanNetwork needs either `suite` or a non-empty `layers`".into()),
        };
        let planner = self.planner(machine, options, workers, ctx);
        let plan = {
            let _span = ctx.span("plan_layers");
            planner.plan(&layer_list)
        };
        Ok(Response::Planned { plan, trace: None })
    }

    pub(crate) fn handle_plan_graph(
        &self,
        block: Option<&str>,
        graph: Option<&Graph>,
        machine: MachineModel,
        options: OptimizerOptions,
        workers: Option<usize>,
        ctx: &TraceContext,
    ) -> Result<Response, String> {
        let graph: Graph = match (block, graph) {
            (Some(name), _) => builders::by_name(name).map_err(|e| e.to_string())?,
            (None, Some(graph)) => graph.clone(),
            (None, None) => return Err("PlanGraph needs either `block` or `graph`".into()),
        };
        // Gate before the worker pool below: an invalid graph must not cost
        // a single optimizer solve.
        graph.validate().map_err(|e| format!("invalid graph: {e}"))?;
        // Matmul and pool nodes become specs here, not at parse: a node too
        // large to embed must not reach a worker either.
        let layers = NamedLayer::of_graph(&graph).map_err(|e| format!("invalid graph: {e}"))?;
        for layer in &layers {
            let invalid = |e| format!("invalid graph: node `{}`: {e}", layer.name);
            layer.spec.validate().map_err(invalid)?;
        }
        // The graph's ops resolve as a network's layers do: the schedule
        // cache, then the cold tiers across the worker pool, outside
        // single-flight. Two concurrent cold requests for one op may both
        // solve it; they write the same schedule through.
        let machine_fingerprint = machine.fingerprint();
        let resolved = {
            let _resolve = ctx.span("resolve_layers");
            self.planner(machine, options, workers, ctx).resolve(&layers)
        };
        // A valid graph has a schedulable source, so `resolved` is never
        // empty: `cached` says every op came from tier 1.
        let cached = resolved.values().all(|(tier, _)| *tier == Tier::Cache);
        let best = resolved.into_iter().map(|(spec, (_, result))| (spec, result.best().clone()));
        let _graph_plan = ctx.span("graph_plan");
        let plan = render_plan(&graph, machine_fingerprint, &best.collect())
            .map_err(|e| format!("invalid graph: {e}"))?;
        Ok(Response::GraphPlanned { cached, plan, trace: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state() -> ServiceState {
        ServiceState::new(64)
    }

    fn fast_options_json() -> String {
        let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() };
        serde_json::to_string(&options).unwrap()
    }

    #[test]
    fn optimize_by_shape_then_cached() {
        let state = tiny_state();
        let line = format!(
            "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        let first: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        let second: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match (first, second) {
            (
                Response::Optimized { cached: false, result: a, .. },
                Response::Optimized { cached: true, result: b, .. },
            ) => assert_eq!(a.ranked, b.ranked),
            other => panic!("expected cold then warm Optimized, got {other:?}"),
        }
    }

    #[test]
    fn optimize_by_table1_name() {
        let state = tiny_state();
        let line = format!(
            "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            fast_options_json(),
        );
        let response: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match response {
            Response::Optimized { op, shape, result, .. } => {
                assert_eq!(op.as_deref(), Some("M9"));
                assert_eq!(shape, benchmarks::by_name("M9").unwrap().shape);
                assert!(!result.ranked.is_empty());
            }
            other => panic!("expected Optimized, got {other:?}"),
        }
    }

    #[test]
    fn thread_counts_are_distinct_cache_entries() {
        let state = tiny_state();
        let shape =
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap();
        let request = |threads: usize| {
            format!(
                "{{\"Optimize\": {{\"shape\": {shape}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"threads\": {threads}}}}}",
                fast_options_json(),
            )
        };
        // The same shape planned for 1 and for 8 threads: two fresh solves,
        // two resident entries.
        let one: Response = serde_json::from_str(&state.handle_line(&request(1))).unwrap();
        let eight: Response = serde_json::from_str(&state.handle_line(&request(8))).unwrap();
        match (&one, &eight) {
            (
                Response::Optimized { cached: false, .. },
                Response::Optimized { cached: false, .. },
            ) => {}
            other => panic!("both thread counts must be fresh solves, got {other:?}"),
        }
        assert_eq!(state.cache.len(), 2, "1-thread and 8-thread plans must not share an entry");
        // Re-asking at 8 threads is a warm hit with the parallel schedule.
        let warm: Response = serde_json::from_str(&state.handle_line(&request(8))).unwrap();
        match warm {
            Response::Optimized { cached: true, result, .. } => {
                assert_eq!(result.best().config.total_parallelism(), 8);
            }
            other => panic!("expected a warm parallel plan, got {other:?}"),
        }
    }

    #[test]
    fn plan_network_over_connection() {
        let state = tiny_state();
        let request = format!(
            "{{\"PlanNetwork\": {{\"layers\": [{{\"name\": \"a\", \"shape\": {}}}, {{\"name\": \"b\", \"shape\": {}}}], \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 2}}}}\n\"Stats\"\n",
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        let mut output = Vec::new();
        state.serve_connection(std::io::BufReader::new(request.as_bytes()), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let mut lines = text.lines();
        let plan: Response = serde_json::from_str(lines.next().unwrap()).unwrap();
        match plan {
            Response::Planned { plan, .. } => {
                assert_eq!(plan.stats.layers, 2);
                assert_eq!(plan.stats.unique_shapes, 1);
                assert_eq!(plan.layers[0].best, plan.layers[1].best);
            }
            other => panic!("expected Planned, got {other:?}"),
        }
        let stats: Response = serde_json::from_str(lines.next().unwrap()).unwrap();
        match stats {
            Response::Stats { stats } => assert_eq!(stats.cache.entries, 1),
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    /// `(cached, plan)` of a `GraphPlanned` reply.
    fn graph_planned(reply: &str) -> (bool, mopt_graph::GraphPlan) {
        match serde_json::from_str(reply).unwrap() {
            Response::GraphPlanned { cached, plan, .. } => (cached, plan),
            other => panic!("expected GraphPlanned, got {other:?}"),
        }
    }

    /// `warm` is `cold` apart from the wall clock each render stamps.
    fn assert_same_plan(warm: &mopt_graph::GraphPlan, cold: &mopt_graph::GraphPlan) {
        let restamped = mopt_graph::GraphPlan { plan_seconds: cold.plan_seconds, ..warm.clone() };
        assert_eq!(&restamped, cold);
    }

    #[test]
    fn plan_graph_by_inline_graph_plans_per_op_through_the_schedule_cache() {
        let state = tiny_state();
        // A scaled-down MobileNetV2 block: expand → dw → project.
        let graph = mopt_graph::builders::mobilenet_v2_block_from(
            &ConvShape::depthwise(12, 14, 3, 1),
            "tiny-block",
        );
        let line = format!(
            "{{\"PlanGraph\": {{\"graph\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 2}}}}",
            serde_json::to_string(&graph).unwrap(),
            fast_options_json(),
        );
        let (cached, plan) = graph_planned(&state.handle_line(&line));
        assert!(!cached);
        assert_eq!(plan.fingerprint, graph.fingerprint());
        assert_eq!(plan.segments.len(), 3);
        assert_eq!(plan.fusions_taken, 0);
        assert_eq!(plan.fused_volume.to_bits(), plan.unfused_volume.to_bits());
        // The per-operator solves landed in the shared schedule cache, and
        // the repeat is three hits on it.
        assert_eq!(state.cache.len(), 3);
        let (cached, warm) = graph_planned(&state.handle_line(&line));
        assert!(cached);
        assert_same_plan(&warm, &plan);
        let stats = state.cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (3, 3, 3));
    }

    /// The benchmark's order: a network plan warms the block's depthwise op
    /// only, so the block is not `cached` until its pointwise ops are too.
    #[test]
    fn plan_graph_is_cached_only_when_every_op_is_a_schedule_cache_hit() {
        let state = tiny_state();
        let target = format!(
            "\"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 2",
            fast_options_json()
        );
        state
            .handle_line(&format!("{{\"PlanNetwork\": {{\"suite\": \"mobilenetv2\", {target}}}}}"));
        let before = state.cache.stats();
        let line = format!("{{\"PlanGraph\": {{\"block\": \"mbv2-block5\", {target}}}}}");
        let (cached, cold) = graph_planned(&state.handle_line(&line));
        let after = state.cache.stats();
        assert!(!cached, "two of the block's three ops were cold");
        // One tier-1 op (the depthwise V5) and two solves (the pointwise ops).
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.insertions - before.insertions, 2);
        let (cached, warm) = graph_planned(&state.handle_line(&line));
        let repeat = state.cache.stats();
        assert!(cached);
        assert_eq!(repeat.hits - after.hits, 3);
        assert_eq!((repeat.misses, repeat.insertions), (after.misses, after.insertions));
        assert_same_plan(&warm, &cold);
    }

    #[test]
    fn plan_graph_by_block_name() {
        let state = tiny_state();
        let line = format!(
            "{{\"PlanGraph\": {{\"block\": \"resnet-r12\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 2}}}}",
            fast_options_json(),
        );
        let response: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match response {
            Response::GraphPlanned { cached: false, plan, .. } => {
                assert_eq!(plan.graph, "resnet-block-r12");
                // conv1 → conv2 chain + the skip projection.
                assert_eq!(plan.chains, 2);
                let total_ops: usize = plan.segments.iter().map(|s| s.ops.len()).sum();
                assert_eq!(total_ops, 3);
                for seg in &plan.segments {
                    for op in &seg.ops {
                        assert!(op.best.config.validate(&op.shape).is_ok());
                    }
                }
            }
            other => panic!("expected GraphPlanned, got {other:?}"),
        }
    }

    #[test]
    fn plan_graph_rejects_invalid_inline_graphs() {
        let state = tiny_state();
        let mut graph = mopt_graph::builders::mobilenet_v2_block_from(
            &ConvShape::depthwise(8, 10, 3, 1),
            "broken",
        );
        graph.edges[0].tensor = mopt_graph::TensorInfo::nchw((9, 9, 9, 9));
        let line = format!(
            "{{\"PlanGraph\": {{\"graph\": {}, \"machine\": {{\"Preset\": \"tiny\"}}}}}}",
            serde_json::to_string(&graph).unwrap(),
        );
        let response: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match response {
            Response::Error { message } => assert!(message.contains("invalid graph")),
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(state.cache.stats().misses, 0, "no op of an invalid graph is resolved");
    }

    #[test]
    fn optimize_tiers_cache_db_solver() {
        let dir = std::env::temp_dir().join(format!("moptd-dbtier-srv-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let state = ServiceState::new(64).with_db(dir.clone()).unwrap();
        let line = format!(
            "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        let first: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        assert!(
            matches!(first, Response::Optimized { tier: Some(Tier::Solver), cached: false, .. }),
            "cold request must be a solver answer, got {first:?}"
        );
        let warm: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        assert!(
            matches!(warm, Response::Optimized { tier: Some(Tier::Cache), cached: true, .. }),
            "repeat must be a cache hit, got {warm:?}"
        );
        // Save flushes the dirty db pages and counts the one resident entry.
        let saved: Response = serde_json::from_str(&state.handle_line("\"Save\"")).unwrap();
        assert_eq!(saved, Response::Saved { entries: 1 });
        // A cold process: empty cache, but the database answers without a
        // single optimizer run — and Stats shows the db-tier hit.
        let cold = ServiceState::new(64).with_db(dir.clone()).unwrap();
        let served: Response = serde_json::from_str(&cold.handle_line(&line)).unwrap();
        match served {
            Response::Optimized { tier: Some(Tier::Db), cached: false, result, .. } => {
                assert!(!result.ranked.is_empty());
            }
            other => panic!("expected a db-tier answer, got {other:?}"),
        }
        let stats: Response = serde_json::from_str(&cold.handle_line("\"Stats\"")).unwrap();
        match stats {
            Response::Stats { stats } => {
                let db = stats.db.expect("db stats present when a database is attached");
                assert_eq!((db.hits, db.misses, db.errors), (1, 0, 0));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_hits_do_not_count_as_coalesced() {
        // Regression: before the flight section existed, Stats could not
        // distinguish "cache hit that arrived while a solve was in flight"
        // (coalesced) from a plain warm hit. A strictly sequential
        // cold-then-warm-then-warm sequence must report one led solve and
        // zero coalesced requests.
        let state = tiny_state();
        let line = format!(
            "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        for _ in 0..3 {
            state.handle_line(&line);
        }
        let stats: Response = serde_json::from_str(&state.handle_line("\"Stats\"")).unwrap();
        match stats {
            Response::Stats { stats } => {
                let flight = stats.flight.expect("flight section present");
                assert_eq!(flight.optimize.led, 1, "one cold solve");
                assert_eq!(flight.optimize.coalesced, 0, "warm hits are NOT coalesced");
                assert_eq!(flight.optimize.errors, 0);
                assert_eq!(flight.optimize.in_flight, 0);
                assert_eq!((stats.cache.hits, stats.cache.misses), (2, 1));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_cold_misses_coalesce_onto_one_solve() {
        let state = std::sync::Arc::new(tiny_state());
        state.set_test_solve_delay(std::time::Duration::from_millis(150));
        let line = format!(
            "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        let gate = std::sync::Arc::new(std::sync::Barrier::new(8));
        let replies: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (state, line, gate) = (state.clone(), line.clone(), gate.clone());
                    scope.spawn(move || {
                        gate.wait();
                        state.handle_line(&line)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All eight responses are bit-identical (same tier, same result).
        assert!(replies.iter().all(|r| r == &replies[0]), "coalesced responses must be identical");
        let first: Response = serde_json::from_str(&replies[0]).unwrap();
        assert!(matches!(first, Response::Optimized { tier: Some(Tier::Solver), .. }));
        let flight = state.flight_stats();
        assert_eq!(flight.optimize.led, 1, "exactly one solver invocation for 8 clients");
        assert_eq!(flight.optimize.coalesced, 7);
        // The solve ran once, so the cache saw exactly one insertion.
        assert_eq!(state.cache.stats().insertions, 1);
    }

    #[test]
    fn explain_returns_search_trace_and_consistent_breakdown() {
        let state = tiny_state();
        let explain = format!(
            "{{\"Explain\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            fast_options_json(),
        );
        let optimize = format!(
            "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            fast_options_json(),
        );
        let explained: Response = serde_json::from_str(&state.handle_line(&explain)).unwrap();
        let (result, search, breakdown) = match explained {
            Response::Explained { op, cached, result, search, breakdown, .. } => {
                assert_eq!(op.as_deref(), Some("M9"));
                assert!(!cached, "first Explain solves cold");
                (result, search, breakdown)
            }
            other => panic!("expected Explained, got {other:?}"),
        };
        // The search trace accounts for the whole permutation space.
        assert_eq!(search.permutations_total, 5040);
        assert!(search.classes_searched >= 1);
        assert!(search.permutations_pruned > 0, "symmetry pruning always discards permutations");
        assert!(search.enumerated > 0);
        assert_eq!(search.candidates.len(), search.classes_searched as usize);
        assert_eq!(search.winner_class, result.best().class_id);
        assert_eq!(search.winner_cost, result.best().predicted_cost);
        // The per-level cost breakdown re-certifies the winner: attributed
        // costs sum bit-for-bit to the certified bottleneck price.
        assert_eq!(breakdown.attributed_total(), breakdown.total_cost);
        assert_eq!(breakdown.total_cost, result.best().predicted_cost);
        // A plain Optimize serves the identical schedule (now warm).
        let optimized: Response = serde_json::from_str(&state.handle_line(&optimize)).unwrap();
        match optimized {
            Response::Optimized { cached, result: plain, .. } => {
                assert!(cached, "Explain warmed the cache for Optimize");
                assert_eq!(plain, result, "Explain and Optimize must serve the same schedule");
            }
            other => panic!("expected Optimized, got {other:?}"),
        }
    }

    #[test]
    fn explain_at_zero_threads_breaks_down_like_one_thread() {
        // `options.threads = 0` validates and reaches the model as a
        // `threads: 0` ParallelSpec: one model, so the one-thread breakdown.
        let state = tiny_state();
        let explain = |threads: usize| {
            let options =
                OptimizerOptions { max_classes: 1, threads, ..OptimizerOptions::default() };
            let line = format!(
                "{{\"Explain\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
                serde_json::to_string(&options).unwrap(),
            );
            match serde_json::from_str(&state.handle_line(&line)).unwrap() {
                Response::Explained { breakdown, .. } => breakdown,
                other => panic!("expected Explained, got {other:?}"),
            }
        };
        assert_eq!(explain(0), explain(1));
    }

    #[test]
    fn spellings_of_one_answer_share_one_cache_entry() {
        // `layout_policy: "Fixed"` is the unset policy, `threads: 0` is one
        // thread, `max_classes: 0` searches one class and `max_classes: 9`
        // all eight: the second spelling of each pair is the first one's hit.
        let base = OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() };
        assert_eq!((base.threads, base.layout_policy), (1, None));
        let fixed = OptimizerOptions { layout_policy: Some(LayoutPolicy::Fixed), ..base.clone() };
        let zero = OptimizerOptions { threads: 0, ..base.clone() };
        let no_classes = OptimizerOptions { max_classes: 0, ..base.clone() };
        let all_classes = OptimizerOptions { max_classes: 8, ..base.clone() };
        let past_all = OptimizerOptions { max_classes: 9, ..base.clone() };
        for (first, second) in
            [(&base, fixed), (&base, zero), (&base, no_classes), (&all_classes, past_all)]
        {
            let state = tiny_state();
            for options in [first, &second] {
                state.handle_line(&format!(
                    "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
                    serde_json::to_string(options).unwrap(),
                ));
            }
            match serde_json::from_str(&state.handle_line("\"Stats\"")).unwrap() {
                Response::Stats { stats } => {
                    assert_eq!((stats.cache.misses, stats.cache.hits), (1, 1), "{second:?}");
                }
                other => panic!("expected Stats, got {other:?}"),
            }
        }
    }

    #[test]
    fn deprecated_alias_ops_are_flagged_but_still_served() {
        let state = tiny_state();
        let request = |op: &str| {
            format!(
                "{{\"Optimize\": {{\"op\": \"{op}\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
                fast_options_json(),
            )
        };
        let alias: Response = serde_json::from_str(&state.handle_line(&request("M1pw"))).unwrap();
        match alias {
            Response::Optimized { deprecated, result, .. } => {
                assert_eq!(deprecated, Some(true), "M1pw is a deprecated alias");
                assert!(!result.ranked.is_empty(), "deprecated aliases still serve");
            }
            other => panic!("expected Optimized, got {other:?}"),
        }
        let current: Response = serde_json::from_str(&state.handle_line(&request("M9"))).unwrap();
        match current {
            Response::Optimized { deprecated, .. } => assert_eq!(deprecated, None),
            other => panic!("expected Optimized, got {other:?}"),
        }
    }

    #[test]
    fn search_policy_solver_db_and_explain_agree_bit_for_bit() {
        // One pricing function behind all three: what the solver tier
        // serves, what a cold process re-ranks from the flushed database,
        // and what `Explain` breaks down are the same schedule at the same
        // price, layout included.
        let options = OptimizerOptions {
            max_classes: 1,
            layout_policy: Some(LayoutPolicy::Search),
            ..OptimizerOptions::default()
        };
        let options = serde_json::to_string(&options).unwrap();
        let shapes = [
            ConvShape::new(1, 16, 8, 3, 3, 12, 12, 1).unwrap(),
            ConvShape::depthwise(16, 14, 3, 1),
        ];
        // A database per thread count, so every first answer is the solver's.
        for threads in [1, 4] {
            let dir = std::env::temp_dir()
                .join(format!("moptd-one-price-{threads}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let solver = ServiceState::new(64).with_db(dir.clone()).unwrap();
            let mut solved = Vec::new();
            for shape in &shapes {
                let body = format!(
                    "{{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {options}, \"threads\": {threads}}}",
                    serde_json::to_string(shape).unwrap(),
                );
                let reply = solver.handle_line(&format!("{{\"Optimize\": {body}}}"));
                match serde_json::from_str(&reply).unwrap() {
                    Response::Optimized { tier: Some(Tier::Solver), result, .. } => {
                        solved.push((body, result.best().clone()))
                    }
                    other => panic!("expected a solver-tier answer, got {other:?}"),
                }
            }
            let entries = shapes.len();
            assert_eq!(solver.handle(&Request::Save), Response::Saved { entries });
            let cold = ServiceState::new(64).with_db(dir.clone()).unwrap();
            for (body, best) in &solved {
                let reply = cold.handle_line(&format!("{{\"Optimize\": {body}}}"));
                match serde_json::from_str(&reply).unwrap() {
                    Response::Optimized { tier: Some(Tier::Db), result, .. } => {
                        let (db, solver) = (result.best(), best);
                        assert_eq!(db.predicted_cost.to_bits(), solver.predicted_cost.to_bits());
                        assert_eq!(db.prediction, solver.prediction, "{body}");
                        assert_eq!(db.config.layout, solver.config.layout, "{body}");
                        assert_eq!(db.config.permutation, solver.config.permutation, "{body}");
                        assert_eq!(db.config.parallel, solver.config.parallel, "{body}");
                        // Multi-threaded, the database serves the solver's
                        // tiles clamped into one thread's slice (which the
                        // model prices identically); sequentially the
                        // schedules are the same value.
                        if threads == 1 {
                            assert_eq!(db, solver, "{body}");
                        }
                    }
                    other => panic!("expected a db-tier answer, got {other:?}"),
                }
                for state in [&solver, &cold] {
                    let reply = state.handle_line(&format!("{{\"Explain\": {body}}}"));
                    match serde_json::from_str(&reply).unwrap() {
                        Response::Explained { result, breakdown, .. } => {
                            assert_eq!(result.best().config.layout, best.config.layout);
                            assert_eq!(
                                breakdown.total_cost.to_bits(),
                                best.predicted_cost.to_bits(),
                                "{body}"
                            );
                            assert_eq!(breakdown.attributed_total(), breakdown.total_cost);
                            assert_eq!(breakdown.moves.is_empty(), best.config.layout.is_default());
                        }
                        other => panic!("expected Explained, got {other:?}"),
                    }
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn catalog_schedules_grown_by_the_integer_stage_agree_across_tiers() {
        // The same three answers where the integer stage actually grew the
        // tiles: catalog shapes on the i7 preset at the default options. The
        // stage bounds its L3 tile by one thread's slice — the envelope the
        // database re-rank clamps to — so the db tier serves the solver's
        // schedule as the same value at four threads too, and the search
        // `Explain` re-runs reproduces the served ranking to the bit.
        for (op, threads) in [("R6", 4), ("R12", 1), ("D5", 1)] {
            let dir = std::env::temp_dir()
                .join(format!("moptd-grown-{op}-{threads}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let body = format!(
                "{{\"op\": \"{op}\", \"machine\": {{\"Preset\": \"i7-9700k\"}}, \"threads\": {threads}}}"
            );
            let solver = ServiceState::new(64).with_db(dir.clone()).unwrap();
            let reply = solver.handle_line(&format!("{{\"Optimize\": {body}}}"));
            let solved = match serde_json::from_str(&reply).unwrap() {
                Response::Optimized { tier: Some(Tier::Solver), result, .. } => result,
                other => panic!("expected a solver-tier answer, got {other:?}"),
            };
            assert_eq!(solver.handle(&Request::Save), Response::Saved { entries: 1 });
            let cold = ServiceState::new(64).with_db(dir.clone()).unwrap();
            let reply = cold.handle_line(&format!("{{\"Optimize\": {body}}}"));
            match serde_json::from_str(&reply).unwrap() {
                Response::Optimized { tier: Some(Tier::Db), result, .. } => {
                    assert_eq!(result.best(), solved.best(), "{body}");
                    assert_eq!(
                        result.best().predicted_cost.to_bits(),
                        solved.best().predicted_cost.to_bits()
                    );
                }
                other => panic!("expected a db-tier answer, got {other:?}"),
            }
            let reply = solver.handle_line(&format!("{{\"Explain\": {body}}}"));
            match serde_json::from_str(&reply).unwrap() {
                Response::Explained { result, search, breakdown, .. } => {
                    assert_eq!(result.ranked, solved.ranked, "{body}");
                    let best = solved.best().predicted_cost;
                    assert_eq!(breakdown.total_cost.to_bits(), best.to_bits(), "{body}");
                    assert_eq!(search.winner_cost.to_bits(), best.to_bits(), "{body}");
                    // Re-solved, every candidate the ranking kept has its
                    // price among the search's candidates, bit for bit.
                    let searched: Vec<u64> =
                        search.candidates.iter().map(|c| c.predicted_cost.to_bits()).collect();
                    for kept in &solved.ranked {
                        assert!(searched.contains(&kept.predicted_cost.to_bits()), "{body}");
                    }
                }
                other => panic!("expected Explained, got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn cold_plan_graph_walks_the_tiers_once_per_unique_node() {
        let state = tiny_state();
        let graph = mopt_graph::builders::mobilenet_v2_block_from(
            &ConvShape::depthwise(12, 14, 3, 1),
            "tiny-block",
        );
        let unique: std::collections::HashSet<Spec> =
            NamedLayer::of_graph(&graph).unwrap().into_iter().map(|layer| layer.spec).collect();
        let line = format!(
            "{{\"PlanGraph\": {{\"graph\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 2}}}}",
            serde_json::to_string(&graph).unwrap(),
            fast_options_json(),
        );
        let reply: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        assert!(matches!(reply, Response::GraphPlanned { cached: false, .. }), "got {reply:?}");
        // Each unique node probed the cache once (a miss) and was solved
        // once; nothing read its schedule back through the cache.
        let stats = state.cache.stats();
        assert_eq!((stats.misses, stats.hits), (unique.len() as u64, 0));
        assert_eq!(stats.insertions, unique.len() as u64);
    }
}

//! The cold half of the tier stack: what every verb does once the
//! in-process cache has missed. `Optimize` and `Explain` run it as a
//! single-flight leader, `PlanNetwork` and `PlanGraph` from the batch
//! planner's worker threads.

use std::time::Instant;

use conv_spec::MachineModel;
use mopt_core::{MOptOptimizer, OptimizeResult};
use mopt_trace::TraceContext;

use crate::cache::{CacheKey, ScheduleCache};
use crate::dbtier::DbTier;
use crate::wire::Tier;

/// Run `work`, recording it in `ctx` as a completed stage — retroactively,
/// not as an open span: batch workers share one context, and its open-span
/// stack is not per-thread.
fn stage<T>(ctx: &TraceContext, name: &str, work: impl FnOnce() -> T) -> T {
    if !ctx.is_enabled() {
        return work();
    }
    let start = Instant::now();
    let out = work();
    ctx.record(name, start.elapsed());
    out
}

/// Answer `key` (whose machine fingerprint is `machine`'s) from the schedule
/// database — stored top-k re-ranked for the key's thread count, no
/// optimizer run — or, failing that, a fresh solve written through to it;
/// either way the result lands in `cache`. Returns which tier answered.
pub(crate) fn resolve_cold(
    cache: &ScheduleCache,
    db: Option<&DbTier>,
    key: &CacheKey,
    machine: &MachineModel,
    ctx: &TraceContext,
) -> (Tier, OptimizeResult) {
    let (spec, options) = (&key.spec, &key.options);
    let insert = |result: &OptimizeResult| {
        stage(ctx, "cache_insert", || cache.insert(key.clone(), result.clone()))
    };
    if let Some(db) = db {
        if let Some(result) = stage(ctx, "db_lookup", || db.lookup(spec, machine, options)) {
            insert(&result);
            return (Tier::Db, result);
        }
    }
    let result = stage(ctx, "solve", || {
        MOptOptimizer::optimize_spec(spec, machine.clone(), options.clone())
    });
    insert(&result);
    if let Some(db) = db {
        stage(ctx, "db_record", || db.record(spec, machine, options.threads, &result));
    }
    (Tier::Solver, result)
}

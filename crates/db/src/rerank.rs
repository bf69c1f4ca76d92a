//! Re-pricing stored candidates for new query settings.
//!
//! A record's entries were solved once, for the canonical shape, and are
//! stored stripped to their sequential form. A query arrives for a *raw*
//! shape at some `threads`/options setting; instead of re-running the
//! optimizer, the candidates are
//!
//! 1. rewritten to the raw shape ([`conv_spec::SpecTransform`]),
//! 2. combined with each parallel decomposition the optimizer itself would
//!    search ([`mopt_core::pricing::parallel_candidates`]), with the
//!    L3 tile clamped into one thread's slice and greedily shrunk until it
//!    fits the per-thread L3 share — the same envelope the direct solver
//!    certifies against,
//! 3. re-priced and ranked by the very functions
//!    [`MOptOptimizer::optimize`](mopt_core::MOptOptimizer::optimize)
//!    prices and ranks its own candidates with ([`mopt_core::pricing`]).
//!
//! The served schedule is therefore one the direct optimizer
//! would certify: valid for the raw shape, parallelism equal to the
//! requested thread count, inside every capacity envelope, with a cost that
//! is bit-identical to the direct model's prediction for that schedule.

use conv_spec::{
    canonicalize_spec, CanonicalSpec, ConvShape, LoopIndex, MachineModel, Spec, SpecTransform,
    TileConfig, TileSizes, TilingLevel,
};
use mopt_core::{pricing, OptimizeResult, OptimizedConfig, OptimizerOptions};
use mopt_model::multilevel::{MultiLevelModel, ParallelSpec};

use crate::store::ScheduleEntry;

/// Convert a solved [`OptimizeResult`] for a raw shape into storable
/// entries: each ranked configuration is rewritten into canonical
/// coordinates, stripped of its parallel factors, and re-priced at the
/// canonical shape with the sequential reference model so entries from
/// solves at different thread counts merge into one coherent ranking.
pub fn entries_from_result(
    canonical: &CanonicalSpec,
    transform: &SpecTransform,
    machine: &MachineModel,
    solved_threads: usize,
    result: &OptimizeResult,
) -> Vec<ScheduleEntry> {
    result
        .ranked
        .iter()
        .map(|candidate| {
            let oriented = transform.canonicalize_config(&candidate.config);
            let config =
                TileConfig::new(oriented.permutation.clone(), oriented.tiles, TileSizes::ones())
                    .normalized(&canonical.shape);
            let sequential_cost =
                MultiLevelModel::new(canonical.shape, machine.clone(), config.permutation.clone())
                    .predict_config(&config)
                    .bottleneck_cost;
            ScheduleEntry { config, class_id: candidate.class_id, sequential_cost, solved_threads }
        })
        .collect()
}

/// Convenience: canonicalize a generalized [`Spec`] and convert its solve
/// result into storable entries in one call. This goes through
/// [`conv_spec::canonicalize_spec`], so problem-level symmetries the
/// embedded conv shape cannot see (the matmul `m ↔ n` transpose, recorded as
/// [`SpecTransform::swap_kw`]) fold into one record.
pub fn entries_for_spec(
    spec: &Spec,
    machine: &MachineModel,
    solved_threads: usize,
    result: &OptimizeResult,
) -> (CanonicalSpec, SpecTransform, Vec<ScheduleEntry>) {
    let (canonical, transform) = canonicalize_spec(spec);
    let entries = entries_from_result(&canonical, &transform, machine, solved_threads, result);
    (canonical, transform, entries)
}

/// Answer a query for a generalized [`Spec`] from stored entries: the
/// entries are rewritten back through `transform` (including the matmul
/// `K ↔ W` swap when the record was stored in the transposed orientation)
/// and re-priced at the spec's embedded conv shape. See [`rerank`].
pub fn rerank_spec(
    spec: &Spec,
    transform: &SpecTransform,
    entries: &[ScheduleEntry],
    machine: &MachineModel,
    options: &OptimizerOptions,
) -> Option<OptimizeResult> {
    rerank(&spec.embedded_conv_shape(), transform, entries, machine, options)
}

/// Clamp a configuration's L3 tile into one thread's slice of the problem
/// and greedily shrink it until it fits the per-thread L3 capacity share,
/// then re-nest the inner levels. Returns `None` if no fitting tile exists
/// within the shrink budget (the candidate is skipped).
fn fit_to_envelope(
    config: &TileConfig,
    shape: &ConvShape,
    machine: &MachineModel,
    spec: &ParallelSpec,
) -> Option<TileConfig> {
    let mut config = config.clone();
    let mut l3 = *config.level(TilingLevel::L3);
    if spec.threads > 1 {
        l3 = l3.min_with(&spec.thread_slice(shape).as_array());
    }
    let capacity = machine.capacity_per_thread(TilingLevel::L3, spec.threads);
    if !l3.halve_to_fit(shape, capacity, [LoopIndex::K, LoopIndex::C, LoopIndex::H, LoopIndex::W]) {
        return None;
    }
    *config.level_mut(TilingLevel::L3) = l3;
    Some(config.normalized(shape))
}

/// Answer a query for `raw` at `options` from stored entries, without
/// running the optimizer. Returns `None` when no stored candidate survives
/// (e.g. nothing fits the per-thread envelope), in which case the caller
/// falls back to a direct solve.
///
/// The returned result is shaped exactly like
/// [`MOptOptimizer::optimize`](mopt_core::MOptOptimizer::optimize)'s:
/// ranked by the model's bandwidth-scaled bottleneck cost under the query's
/// thread count and cost options, truncated to `options.keep_top`.
pub fn rerank(
    raw: &ConvShape,
    transform: &SpecTransform,
    entries: &[ScheduleEntry],
    machine: &MachineModel,
    options: &OptimizerOptions,
) -> Option<OptimizeResult> {
    let start = std::time::Instant::now();
    let parallel_candidates = pricing::parallel_candidates(raw, options.threads);
    let mut candidates: Vec<OptimizedConfig> = Vec::new();
    for entry in entries {
        let base = transform.denormalize_config(&entry.config);
        for spec in &parallel_candidates {
            let Some(fitted) = fit_to_envelope(&base, raw, machine, spec) else {
                continue;
            };
            let factors = TileSizes::from_array(spec.factors);
            let config = TileConfig::new(fitted.permutation.clone(), fitted.tiles, factors);
            if config.validate(raw).is_err() {
                continue;
            }
            // Entries are stored layout-stripped; each is re-priced under
            // every layout the direct optimizer would consider for the
            // query's policy, and the cheapest is served.
            let model =
                pricing::pricing_model(raw, machine, options, config.permutation.clone(), *spec);
            let (config, price) =
                pricing::price_cheapest_layout(&model, config, options.layout_policy);
            candidates.push(OptimizedConfig {
                config,
                class_id: entry.class_id,
                predicted_cost: price.total,
                prediction: price.prediction,
            });
        }
    }
    if candidates.is_empty() {
        return None;
    }
    Some(OptimizeResult {
        ranked: pricing::rank(candidates, options.keep_top.max(1)),
        optimize_seconds: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::canonicalize;
    use mopt_core::MOptOptimizer;
    use mopt_model::cost::CostOptions;

    fn fast_options(threads: usize) -> OptimizerOptions {
        OptimizerOptions { threads, max_classes: 1, keep_top: 8, ..OptimizerOptions::fast() }
    }

    fn machine() -> MachineModel {
        MachineModel::tiny_test_machine()
    }

    fn solve(shape: &ConvShape, threads: usize) -> OptimizeResult {
        MOptOptimizer::new(*shape, machine(), fast_options(threads)).optimize()
    }

    #[test]
    fn stored_entries_are_sequential_and_canonical() {
        let raw = ConvShape::new(1, 16, 8, 5, 3, 10, 12, 1).unwrap();
        let result = solve(&raw, 1);
        let (canonical, _, entries) = entries_for_spec(&Spec::Conv(raw), &machine(), 1, &result);
        assert_eq!(entries.len(), result.ranked.len());
        for entry in &entries {
            assert_eq!(entry.config.total_parallelism(), 1);
            assert!(entry.config.validate(&canonical.shape).is_ok());
            assert!(entry.sequential_cost.is_finite() && entry.sequential_cost > 0.0);
            assert_eq!(entry.solved_threads, 1);
        }
    }

    #[test]
    fn rerank_serves_threads_8_from_a_threads_1_solve() {
        // The acceptance-criterion scenario: solve once sequentially, store,
        // then answer an 8-thread query by re-ranking alone.
        let raw = ConvShape::new(1, 32, 16, 3, 3, 16, 16, 1).unwrap();
        let result = solve(&raw, 1);
        let (canonical, transform) = canonicalize(&raw);
        let entries = entries_from_result(&canonical, &transform, &machine(), 1, &result);
        let options = fast_options(8);
        let served = rerank(&raw, &transform, &entries, &machine(), &options)
            .expect("rerank must serve this query");
        let best = &served.ranked[0];
        // The served schedule is one the direct optimizer would certify:
        // valid, with the requested parallelism, inside the per-thread L3
        // envelope the solver enforces on its own candidates.
        assert!(best.config.validate(&raw).is_ok());
        assert_eq!(best.config.total_parallelism(), 8);
        let l3 = best.config.level(TilingLevel::L3).footprint(&raw);
        assert!(l3 <= machine().capacity_per_thread(TilingLevel::L3, 8));
        // And its price is bit-identical to the direct model's prediction
        // for that schedule (same pricing path as `optimize()`).
        let spec = ParallelSpec { threads: 8, factors: best.config.parallel.as_array() };
        assert!(spec.is_valid());
        let direct = MultiLevelModel::new(raw, machine(), best.config.permutation.clone())
            .with_options(CostOptions { line_elems: options.line_elems })
            .with_parallel(spec)
            .predict_config(&best.config);
        assert_eq!(best.predicted_cost, direct.bottleneck_cost);
        assert_eq!(best.prediction, direct);
    }

    #[test]
    fn rerank_at_the_solved_settings_reproduces_the_solved_best() {
        // Round trip at identical settings: the best stored candidate
        // re-prices to exactly the cost the optimizer reported.
        let raw = ConvShape::new(1, 16, 8, 3, 3, 12, 12, 1).unwrap();
        let options = fast_options(1);
        let result = solve(&raw, 1);
        let (canonical, transform) = canonicalize(&raw);
        let entries = entries_from_result(&canonical, &transform, &machine(), 1, &result);
        let served = rerank(&raw, &transform, &entries, &machine(), &options).unwrap();
        assert_eq!(served.ranked[0].config, result.ranked[0].config);
        assert_eq!(served.ranked[0].predicted_cost, result.ranked[0].predicted_cost);
    }

    #[test]
    fn rerank_respects_keep_top() {
        let raw = ConvShape::new(1, 16, 8, 3, 3, 12, 12, 1).unwrap();
        let result = solve(&raw, 1);
        let (canonical, transform) = canonicalize(&raw);
        let entries = entries_from_result(&canonical, &transform, &machine(), 1, &result);
        let options = OptimizerOptions { keep_top: 1, ..fast_options(1) };
        let served = rerank(&raw, &transform, &entries, &machine(), &options).unwrap();
        assert_eq!(served.ranked.len(), 1);
    }

    #[test]
    fn search_policy_rerank_reprices_stored_entries_under_layouts() {
        // Entries are stored layout-stripped; a Search-policy query re-prices
        // them jointly with layout. The default layout stays in the candidate
        // set, so the served best is never worse than the fixed-policy best.
        let raw = ConvShape::new(1, 32, 16, 3, 3, 16, 16, 1).unwrap();
        let result = solve(&raw, 1);
        let (canonical, transform) = canonicalize(&raw);
        let entries = entries_from_result(&canonical, &transform, &machine(), 1, &result);
        let fixed = rerank(&raw, &transform, &entries, &machine(), &fast_options(1)).unwrap();
        let options = OptimizerOptions {
            layout_policy: Some(mopt_core::LayoutPolicy::Search),
            ..fast_options(1)
        };
        let searched = rerank(&raw, &transform, &entries, &machine(), &options).unwrap();
        assert!(searched.ranked[0].predicted_cost <= fixed.ranked[0].predicted_cost);
        let allowed = MOptOptimizer::new(raw, machine(), options.clone()).layout_candidates();
        for cand in &searched.ranked {
            assert!(allowed.contains(&cand.config.layout));
            assert!(cand.config.validate(&raw).is_ok());
        }
        // Fixed-policy rerank stays bit-identical to the unset-policy path.
        let explicit = OptimizerOptions {
            layout_policy: Some(mopt_core::LayoutPolicy::Fixed),
            ..fast_options(1)
        };
        let pinned = rerank(&raw, &transform, &entries, &machine(), &explicit).unwrap();
        assert_eq!(pinned.ranked[0].config, fixed.ranked[0].config);
        assert_eq!(
            pinned.ranked[0].predicted_cost.to_bits(),
            fixed.ranked[0].predicted_cost.to_bits()
        );
    }

    #[test]
    fn rerank_of_empty_entries_is_none() {
        let raw = ConvShape::new(1, 8, 4, 3, 3, 8, 8, 1).unwrap();
        let (_, transform) = canonicalize(&raw);
        assert!(rerank(&raw, &transform, &[], &machine(), &fast_options(1)).is_none());
    }

    #[test]
    fn transposed_raw_shapes_are_served_through_the_shared_entry() {
        // Solve for one orientation, serve the transposed twin through the
        // same canonical entry set.
        let a = ConvShape::new(1, 16, 8, 3, 5, 12, 10, 1).unwrap();
        let b = ConvShape::new(1, 16, 8, 5, 3, 10, 12, 1).unwrap();
        let result = solve(&a, 1);
        let (canon_a, _, entries) = entries_for_spec(&Spec::Conv(a), &machine(), 1, &result);
        let (canon_b, transform_b) = canonicalize(&b);
        assert_eq!(canon_a.fingerprint(), canon_b.fingerprint());
        let served = rerank(&b, &transform_b, &entries, &machine(), &fast_options(1)).unwrap();
        assert!(served.ranked[0].config.validate(&b).is_ok());
    }

    #[test]
    fn matmul_transpose_twins_are_served_through_the_shared_entry() {
        // Solve the tall matmul, store through the spec canonicalizer, and
        // serve the wide transpose twin from the same record — the `m ↔ n`
        // swap only exists at the spec level, so this exercises the
        // `swap_kw` rewrite end to end.
        let tall = Spec::matmul(48, 16, 24);
        let wide = Spec::matmul(16, 48, 24);
        let result = MOptOptimizer::optimize_spec(&tall, machine(), fast_options(1));
        let (canon_tall, _, entries) = entries_for_spec(&tall, &machine(), 1, &result);
        let (canon_wide, transform_wide) = canonicalize_spec(&wide);
        assert_eq!(canon_tall.fingerprint(), canon_wide.fingerprint());
        let served =
            rerank_spec(&wide, &transform_wide, &entries, &machine(), &fast_options(1)).unwrap();
        let raw_wide = wide.embedded_conv_shape();
        assert!(served.ranked[0].config.validate(&raw_wide).is_ok());
        // Serving the solved orientation itself reproduces the solved best.
        let (_, transform_tall) = canonicalize_spec(&tall);
        let round =
            rerank_spec(&tall, &transform_tall, &entries, &machine(), &fast_options(1)).unwrap();
        assert_eq!(round.ranked[0].config, result.ranked[0].config);
        assert_eq!(round.ranked[0].predicted_cost, result.ranked[0].predicted_cost);
    }
}

//! How a tiling becomes a priced, ranked candidate: which parallel splits
//! and layouts are tried, which model prices them (on top of the single
//! pricing entry point [`MultiLevelModel::price`]), which layout wins, and
//! how candidates are ordered. The optimizer's search and the schedule
//! database's re-rank both go through here, so they cannot disagree.

use conv_spec::{ConvShape, LayoutConfig, MachineModel, ParallelAxis, Permutation, TileConfig};
use mopt_model::{CostOptions, MultiLevelModel, ParallelSpec, Price};

use crate::optimizer::{LayoutPolicy, OptimizedConfig, OptimizerOptions};

/// The parallel specifications searched jointly with the tile sizes:
/// sequential runs have exactly one (no parallelism); runs with
/// `threads > 1` try each [`ParallelAxis`] whose factor decomposition is
/// distinct (on shapes where both axes collapse to the same factors only
/// one candidate survives).
pub fn parallel_candidates(shape: &ConvShape, threads: usize) -> Vec<ParallelSpec> {
    if threads <= 1 {
        return vec![ParallelSpec::sequential()];
    }
    let mut specs: Vec<ParallelSpec> = Vec::new();
    for axis in ParallelAxis::ALL {
        let spec = ParallelSpec::along_axis(shape, threads, axis);
        if !specs.iter().any(|s| s.factors == spec.factors) {
            specs.push(spec);
        }
    }
    specs
}

/// The layout assignments priced under `policy`: always the paper default;
/// under [`LayoutPolicy::Search`] also a packed kernel at the machine's SIMD
/// width and fully channel-blocked feature maps with the packed kernel.
pub fn layout_candidates(
    machine: &MachineModel,
    policy: Option<LayoutPolicy>,
) -> impl Iterator<Item = LayoutConfig> {
    let v = machine.simd_width.max(1);
    let searched = matches!(policy, Some(LayoutPolicy::Search))
        .then(|| [LayoutConfig::packed_kernel(v), LayoutConfig::blocked(v)]);
    std::iter::once(LayoutConfig::default()).chain(searched.into_iter().flatten())
}

/// The model schedules of `shape` are priced under: `permutation`'s loop
/// order, `parallel`'s thread split, and the options' spatial-locality line
/// size.
pub fn pricing_model(
    shape: &ConvShape,
    machine: &MachineModel,
    options: &OptimizerOptions,
    permutation: Permutation,
    parallel: ParallelSpec,
) -> MultiLevelModel {
    MultiLevelModel::new(*shape, machine.clone(), permutation)
        .with_options(CostOptions { line_elems: options.line_elems })
        .with_parallel(parallel)
}

/// Joint layout selection: price one tiling under every layout `policy`
/// admits and keep the cheapest (the first on ties). The fixed policy is the
/// one-candidate case: `config` is priced as it stands, with no clone.
pub fn price_cheapest_layout(
    model: &MultiLevelModel,
    mut config: TileConfig,
    policy: Option<LayoutPolicy>,
) -> (TileConfig, Price) {
    let mut best: Option<(LayoutConfig, Price)> = None;
    for layout in layout_candidates(&model.machine, policy) {
        config.layout = layout;
        let price = model.price(&config);
        if best.as_ref().is_none_or(|(_, b)| price.total < b.total) {
            best = Some((layout, price));
        }
    }
    let (layout, price) = best.expect("the default layout is always a candidate");
    config.layout = layout;
    (config, price)
}

/// The total order every ranking of prices uses: ascending, with NaN after
/// every finite or infinite price, so a NaN can never displace a real one
/// from a cheapest-first top-k. (A bare `total_cmp` would sort the negative
/// NaN x86 arithmetic produces *first*.)
pub fn cost_order(a: f64, b: f64) -> std::cmp::Ordering {
    a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(&b))
}

/// Order candidates cheapest first ([`cost_order`]) and keep the top
/// `keep_top`. Equal prices — several classes reaching the same compulsory
/// traffic at the bottleneck level — are ordered by the sum of the four
/// levels' costs, the integer stage's second key, and then by class (mirror
/// classes of a square shape tie on both), so that every tier ranks them
/// alike whatever order it met them in.
pub fn rank(mut candidates: Vec<OptimizedConfig>, keep_top: usize) -> Vec<OptimizedConfig> {
    let all_levels = |c: &OptimizedConfig| c.prediction.scaled_costs.iter().sum::<f64>();
    candidates.sort_by(|a, b| {
        cost_order(a.predicted_cost, b.predicted_cost)
            .then_with(|| cost_order(all_levels(a), all_levels(b)))
            .then_with(|| a.class_id.cmp(&b.class_id))
    });
    candidates.truncate(keep_top);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(class_id: usize, predicted_cost: f64) -> OptimizedConfig {
        let shape = ConvShape::new(1, 8, 4, 3, 3, 8, 8, 1).unwrap();
        let config = TileConfig::untiled(&shape);
        let prediction = MultiLevelModel::new(
            shape,
            MachineModel::tiny_test_machine(),
            config.permutation.clone(),
        )
        .predict_config(&config);
        OptimizedConfig { config, class_id, predicted_cost, prediction }
    }

    #[test]
    fn nan_priced_candidates_sort_last_and_never_displace_a_finite_one() {
        // Both NaN signs: x86 arithmetic produces the negative one, which a
        // bare `total_cmp` would sort *first*.
        for nan in [f64::NAN, -f64::NAN] {
            let ranked = rank(
                vec![candidate(1, nan), candidate(2, 7.0), candidate(3, nan), candidate(4, 3.0)],
                2,
            );
            let ids: Vec<usize> = ranked.iter().map(|c| c.class_id).collect();
            assert_eq!(ids, [4, 2], "finite prices fill the kept slots, cheapest first");
            let all =
                rank(vec![candidate(1, nan), candidate(2, f64::INFINITY), candidate(3, 5.0)], 8);
            let ids: Vec<usize> = all.iter().map(|c| c.class_id).collect();
            assert_eq!(ids, [3, 2, 1], "NaN sorts after even an infinite price");
        }
    }
}

//! Algorithm 1: permutation and multi-level tile-size selection.
//!
//! For each pruned permutation class the optimizer solves the multi-level
//! tile-size problem with the most-constrained-level-first strategy of the
//! paper: in every round, each not-yet-fixed level is hypothesized to be the
//! bottleneck, a constrained non-linear problem minimizing that level's
//! bandwidth-scaled data volume (subject to every level's capacity
//! constraint, the tile-nesting constraints, and the "this level dominates
//! the others" constraints) is solved, and the level whose hypothesis yields
//! the smallest cost is fixed at the tile sizes the solver chose. After all
//! levels are fixed, the continuous solution is floored to integers, refined,
//! and load-balanced across threads.
//!
//! The solver visits ~600 000 points per operator, and at each one asks for
//! the objective and up to seven constraints that are all arithmetic on the
//! same four per-level costs: the private `evaluator` module prices a point
//! once for all of them, and re-prices only the levels a step changed. There
//! is one search, and it always records its [`SearchTrace`]
//! ([`MOptOptimizer::optimize_traced`]): some forty hypothesis records per
//! class beside the evaluator's tallies; [`MOptOptimizer::optimize`] drops it.

use conv_spec::{
    ConvShape, LayoutConfig, LoopIndex, MachineModel, Permutation, Spec, TileConfig, TileSizes,
    TilingLevel, NUM_TILING_LEVELS,
};
use mopt_model::cost::RealTiles;
use mopt_model::multilevel::{ModelPrediction, MultiLevelModel, MultiLevelTiles, ParallelSpec};
use mopt_model::prune::pruned_classes;
use mopt_solver::{MultiStart, NlpSolver, Problem};
use serde::{Deserialize, Serialize};

use crate::evaluator::{SolveCounters, TileEvaluator, TILES_PER_LEVEL};
use crate::integer::integer_config;
use crate::pricing;

/// Options controlling the optimizer.
///
/// Every field is integral or boolean, so the options participate directly
/// in hash-keyed schedule caches (`Eq` + `Hash`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OptimizerOptions {
    /// Number of threads the generated configuration targets.
    pub threads: usize,
    /// Number of random restarts per non-linear solve.
    pub multistart: usize,
    /// Cache-line size for the spatial-locality cost extension (1 = off).
    pub line_elems: usize,
    /// Number of top configurations to keep (the paper uses 5 for MOpt-5).
    pub keep_top: usize,
    /// Restrict the search to this many pruned classes (8 = all). Lower
    /// values trade optimality for optimization speed; useful in tests.
    pub max_classes: usize,
    /// Use the full-effort multi-start solver (`MultiStart::with_starts`:
    /// barrier and penalty solver from every start) instead of the default
    /// low-effort profile (`MultiStart::cheap`: penalty method, few
    /// iterations per start). Measured on `i7-9700k` at the default options
    /// otherwise: thorough takes 17–23× the solve time (8–15× through
    /// `moptd`) and its best model cost is 0.864 (R4), 0.909 (R2), 0.990
    /// (R6) of the default's at one thread, and equal on R3, R12, V3, M5, D5
    /// and on R6 at four threads (before the joint integer stage the gap was
    /// 0.455–0.758 on R4, R2, R12 and R6: most of it was integer rounding).
    /// It is the barrier solver that finds the difference; the extra penalty
    /// iterations alone do not (docs/ARCHITECTURE.md, "Forks that stay").
    pub thorough: bool,
    /// How data layout is chosen: `None` and [`LayoutPolicy::Fixed`] keep
    /// the paper's fixed layouts (bit-identical to the pre-layout
    /// optimizer); [`LayoutPolicy::Search`] prices each solved tiling under
    /// the candidate layouts and keeps the one whose loop traffic plus
    /// one-time move cost is cheapest. Optional so requests serialized
    /// before the layout axis existed deserialize (to `None`) unchanged.
    pub layout_policy: Option<LayoutPolicy>,
}

/// How the optimizer treats the data-layout axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayoutPolicy {
    /// The paper's fixed layouts (NCHW feature maps, KCRS kernel).
    Fixed,
    /// Search layout jointly with tile sizes and the parallel axis: each
    /// candidate layout re-prices the solved tiling with layout-aware
    /// traffic plus the Morello-style one-time transform cost.
    Search,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            threads: 1,
            multistart: 2,
            line_elems: 1,
            keep_top: 5,
            max_classes: 8,
            thorough: false,
            layout_policy: None,
        }
    }
}

/// The largest `multistart` [`OptimizerOptions::validate`] accepts: 32× the
/// default. Every restart is a full non-linear solve per pruned class, and
/// the solver allocates its starting points up front.
pub const MAX_MULTISTART: usize = 64;

/// Largest `threads` a request may ask for (64× the largest preset's 16):
/// [`mopt_model::ParallelSpec::along_axis`] searches for each axis's factor
/// in time linear in the thread count, once per candidate class.
pub const MAX_THREADS: usize = 1024;

impl OptimizerOptions {
    /// Check options that arrive from outside the program, before they reach
    /// the search: `keep_top` of zero is the panic documented on
    /// [`MOptOptimizer::optimize`], an unbounded `multistart` is an unbounded
    /// allocation, and an unbounded `threads` is unbounded work per
    /// candidate. Every other value is one the search accepts.
    ///
    /// # Errors
    ///
    /// Names the offending field and its bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.keep_top == 0 {
            return Err("keep_top must be at least 1".to_string());
        }
        if self.multistart > MAX_MULTISTART {
            return Err(format!(
                "multistart must be at most {MAX_MULTISTART}, got {}",
                self.multistart
            ));
        }
        if self.threads > MAX_THREADS {
            return Err(format!("threads must be at most {MAX_THREADS}, got {}", self.threads));
        }
        Ok(())
    }

    /// A fast configuration for unit tests and examples (fewer restarts).
    pub fn fast() -> Self {
        OptimizerOptions { multistart: 0, ..Self::default() }
    }

    /// Options targeting parallel execution with the machine's thread count.
    pub fn parallel(machine: &MachineModel) -> Self {
        OptimizerOptions { threads: machine.threads, ..Self::default() }
    }
}

/// One optimized candidate configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizedConfig {
    /// The integer tiling configuration (ready for the executor), carrying
    /// the layout it was priced under.
    pub config: TileConfig,
    /// The pruned class the configuration came from (1..=8).
    pub class_id: usize,
    /// The model's bandwidth-scaled bottleneck cost (cycles; lower is
    /// better). Under [`LayoutPolicy::Search`] this is the layout-aware
    /// loop bottleneck plus the one-time layout-transform cost.
    pub predicted_cost: f64,
    /// The model's full per-level prediction.
    pub prediction: ModelPrediction,
}

/// The result of a full design-space exploration for one operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeResult {
    /// Candidates sorted by predicted cost (best first); at most
    /// [`OptimizerOptions::keep_top`] entries.
    pub ranked: Vec<OptimizedConfig>,
    /// Wall-clock seconds spent in the optimizer (the paper reports 9–23 s
    /// per operator with AMPL/Ipopt; see the `exp_searchcost` experiment).
    pub optimize_seconds: f64,
}

impl OptimizeResult {
    /// The best configuration (MOpt-1).
    pub fn best(&self) -> &OptimizedConfig {
        &self.ranked[0]
    }

    /// The top-`k` configurations (MOpt-5 uses `k = 5`).
    pub fn top(&self, k: usize) -> &[OptimizedConfig] {
        &self.ranked[..k.min(self.ranked.len())]
    }
}

/// One bottleneck hypothesis evaluated in a search round: `level` was
/// hypothesized to dominate, the constrained solve reached `cost`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelHypothesis {
    /// The memory level hypothesized as the bottleneck.
    pub level: TilingLevel,
    /// The bandwidth-scaled cost the constrained solve reached.
    pub cost: f64,
    /// Whether the solution satisfied every level's capacity constraint.
    pub feasible: bool,
}

/// One round of the most-constrained-level-first loop: every unfixed level
/// was hypothesized as the bottleneck and the cheapest hypothesis was fixed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchRound {
    /// The level fixed this round.
    pub fixed: TilingLevel,
    /// The winning hypothesis's cost.
    pub fixed_cost: f64,
    /// Every hypothesis evaluated this round (including the winner).
    pub hypotheses: Vec<LevelHypothesis>,
}

/// The search record of one candidate: a permutation class solved under one
/// parallel decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateSearch {
    /// The pruned class the candidate came from (1..=8).
    pub class_id: usize,
    /// The class representative permutation, rendered.
    pub permutation: String,
    /// Concrete permutations this class stands for after symmetry pruning.
    pub member_count: usize,
    /// Threads the candidate targets.
    pub threads: usize,
    /// Per-dimension parallel factors (canonical index order).
    pub parallel_factors: Vec<usize>,
    /// The most-constrained-level-first rounds, in order.
    pub rounds: Vec<SearchRound>,
    /// Tile configurations enumerated by the non-linear solver.
    pub enumerated: u64,
    /// Enumerated configurations rejected by a capacity constraint.
    pub capacity_pruned: u64,
    /// Feasible bottleneck hypotheses discarded because another level's
    /// hypothesis was cheaper (the min–max dominance choice).
    pub dominance_pruned: u64,
    /// The candidate's final integer-configuration predicted cost.
    pub predicted_cost: f64,
}

/// The optimizer's full search trace, recorded by
/// [`MOptOptimizer::optimize_traced`] and served by the `Explain` verb.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Loop permutations the design space contains before pruning (7! = 5040).
    pub permutations_total: u64,
    /// Pruned permutation classes actually searched.
    pub classes_searched: u64,
    /// Permutations never evaluated: the total minus the one representative
    /// solved per searched class (symmetry pruning plus any `max_classes`
    /// restriction).
    pub permutations_pruned: u64,
    /// Tile configurations enumerated across all candidates.
    pub enumerated: u64,
    /// Enumerated configurations rejected by capacity constraints.
    pub capacity_pruned: u64,
    /// Feasible hypotheses discarded by the dominance (min–max) choice.
    pub dominance_pruned: u64,
    /// Per-candidate search records, in evaluation order.
    pub candidates: Vec<CandidateSearch>,
    /// Class id of the winning configuration.
    pub winner_class: usize,
    /// The winner's predicted bottleneck cost.
    pub winner_cost: f64,
    /// The runner-up's predicted cost, when more than one candidate ranked.
    pub runner_up_cost: Option<f64>,
    /// `runner_up_cost - winner_cost`: how decisively the winner won.
    pub margin: Option<f64>,
}

/// Capacity-slack tolerance (in elements) below which a continuous solution
/// counts as feasible for trace reporting.
const SLACK_TOLERANCE: f64 = 1e-6;

/// The MOpt optimizer for one operator on one machine.
#[derive(Debug, Clone)]
pub struct MOptOptimizer {
    shape: ConvShape,
    machine: MachineModel,
    options: OptimizerOptions,
}

impl MOptOptimizer {
    /// Create an optimizer.
    pub fn new(shape: ConvShape, machine: MachineModel, options: OptimizerOptions) -> Self {
        MOptOptimizer { shape, machine, options }
    }

    /// Optimize a generalized [`Spec`] problem in one call.
    ///
    /// The spec is lowered to its conv2d embedding
    /// ([`Spec::embedded_conv_shape`]) and the usual certify/prune pipeline
    /// runs on the embedded loop nest. The analytical model prices access
    /// patterns, not reduction operators, so matmul, pooling, and
    /// elementwise nests cost exactly like the conv nest they embed into.
    pub fn optimize_spec(
        spec: &Spec,
        machine: MachineModel,
        options: OptimizerOptions,
    ) -> OptimizeResult {
        MOptOptimizer::new(spec.embedded_conv_shape(), machine, options).optimize()
    }

    /// The parallel specifications the optimizer searches jointly with the
    /// tile sizes (see [`pricing::parallel_candidates`]).
    pub fn parallel_candidates(&self) -> Vec<ParallelSpec> {
        pricing::parallel_candidates(&self.shape, self.options.threads)
    }

    /// Run the full design-space exploration (Algorithm 1) and return the
    /// ranked configurations.
    ///
    /// With `threads > 1` the parallel axis is searched *jointly* with the
    /// tile sizes: every pruned class is solved once per candidate axis
    /// (each solve sees that axis's per-thread extents, L3 capacity share,
    /// and summed DRAM traffic), and the ranking compares the resulting
    /// configurations across axes on equal multicore-model footing.
    ///
    /// # Panics
    ///
    /// Panics if `keep_top` is zero.
    pub fn optimize(&self) -> OptimizeResult {
        self.optimize_traced().0
    }

    /// [`optimize`](Self::optimize), with the [`SearchTrace`] every search
    /// records: hypotheses per round, enumerated/pruned counts, winner and
    /// margin. There is one search; `optimize` drops the trace, the `Explain`
    /// verb serves it.
    ///
    /// # Panics
    ///
    /// Panics if `keep_top` is zero.
    pub fn optimize_traced(&self) -> (OptimizeResult, SearchTrace) {
        assert!(self.options.keep_top > 0, "keep_top must be at least 1");
        let start = std::time::Instant::now();
        // 7! loop orders exist before pruning; the eight classes' members are
        // cost-equivalent to their representative, everything else is
        // dominated (Sec. 4).
        let mut trace =
            SearchTrace { permutations_total: (1..=7u64).product(), ..SearchTrace::default() };
        let mut candidates: Vec<OptimizedConfig> = Vec::new();
        for class in pruned_classes().into_iter().take(self.options.max_classes.max(1)) {
            trace.classes_searched += 1;
            for parallel in self.parallel_candidates() {
                let model = pricing::pricing_model(
                    &self.shape,
                    &self.machine,
                    &self.options,
                    class.representative.clone(),
                    parallel,
                );
                let (tiles, rounds, counters) = self.solve_class(&model);
                let config = integer_config(&model, &tiles, &class.representative);
                let (config, price) =
                    pricing::price_cheapest_layout(&model, config, self.options.layout_policy);
                let predicted_cost = price.total;
                let dominance_pruned = rounds
                    .iter()
                    .flat_map(|round| {
                        round
                            .hypotheses
                            .iter()
                            .filter(move |h| h.feasible && h.level != round.fixed)
                    })
                    .count() as u64;
                trace.enumerated += counters.enumerated;
                trace.capacity_pruned += counters.capacity_pruned;
                trace.dominance_pruned += dominance_pruned;
                trace.candidates.push(CandidateSearch {
                    class_id: class.id,
                    permutation: class.representative.to_string(),
                    member_count: class.member_count,
                    threads: model.parallel.threads,
                    parallel_factors: model.parallel.factors.to_vec(),
                    rounds,
                    enumerated: counters.enumerated,
                    capacity_pruned: counters.capacity_pruned,
                    dominance_pruned,
                    predicted_cost,
                });
                candidates.push(OptimizedConfig {
                    config,
                    class_id: class.id,
                    predicted_cost,
                    prediction: price.prediction,
                });
            }
        }
        let candidates = pricing::rank(candidates, self.options.keep_top);
        trace.permutations_pruned = trace.permutations_total.saturating_sub(trace.classes_searched);
        trace.winner_class = candidates[0].class_id;
        trace.winner_cost = candidates[0].predicted_cost;
        trace.runner_up_cost = candidates.get(1).map(|c| c.predicted_cost);
        trace.margin = trace.runner_up_cost.map(|r| r - trace.winner_cost);
        let result =
            OptimizeResult { ranked: candidates, optimize_seconds: start.elapsed().as_secs_f64() };
        (result, trace)
    }

    /// The layout assignments priced under this optimizer's policy (see
    /// [`pricing::layout_candidates`]).
    pub fn layout_candidates(&self) -> Vec<LayoutConfig> {
        pricing::layout_candidates(&self.machine, self.options.layout_policy).collect()
    }

    /// Multi-level tile-size selection for one permutation class
    /// (the `while NotVisitedLvls ≠ ∅` loop of Algorithm 1): the tiles, the
    /// rounds that fixed them with every bottleneck hypothesis priced, and
    /// the solver's enumeration tallies.
    fn solve_class(
        &self,
        model: &MultiLevelModel,
    ) -> (MultiLevelTiles, Vec<SearchRound>, SolveCounters) {
        let mut counters = SolveCounters::default();
        let mut rounds = Vec::with_capacity(NUM_TILING_LEVELS);
        let mut fixed: [Option<RealTiles>; NUM_TILING_LEVELS] = [None; NUM_TILING_LEVELS];
        let mut not_visited: Vec<TilingLevel> = TilingLevel::ALL.to_vec();
        while !not_visited.is_empty() {
            let mut best: Option<(TilingLevel, f64, MultiLevelTiles)> = None;
            let mut hypotheses: Vec<LevelHypothesis> = Vec::with_capacity(not_visited.len());
            for &obj_level in &not_visited {
                let (cost, tiles) =
                    self.arg_min_solve(model, obj_level, &fixed, &not_visited, &mut counters);
                let feasible = TilingLevel::ALL
                    .iter()
                    .all(|&l| model.capacity_slack(&tiles, l) <= SLACK_TOLERANCE);
                hypotheses.push(LevelHypothesis { level: obj_level, cost, feasible });
                let better = match &best {
                    None => true,
                    Some((_, c, _)) => cost < *c,
                };
                if better {
                    best = Some((obj_level, cost, tiles));
                }
            }
            let (min_level, cost, tiles) =
                best.expect("at least one unvisited level was evaluated");
            rounds.push(SearchRound { fixed: min_level, fixed_cost: cost, hypotheses });
            fixed[min_level.ordinal()] = Some(*tiles.level(min_level));
            not_visited.retain(|&l| l != min_level);
        }
        let tiles = MultiLevelTiles {
            levels: [
                fixed[0].expect("register level fixed"),
                fixed[1].expect("L1 level fixed"),
                fixed[2].expect("L2 level fixed"),
                fixed[3].expect("L3 level fixed"),
            ],
        };
        (tiles, rounds, counters)
    }

    /// One `ArgMinSolve` call: minimize the bandwidth-scaled cost of
    /// `obj_level` over the tile sizes of all not-yet-fixed levels, subject to
    /// their capacity constraints and to `obj_level` dominating every other
    /// level (the functions are [`TileEvaluator`]'s). `counters` is advanced
    /// by every point the solver prices.
    fn arg_min_solve(
        &self,
        model: &MultiLevelModel,
        obj_level: TilingLevel,
        fixed: &[Option<RealTiles>; NUM_TILING_LEVELS],
        free_levels: &[TilingLevel],
        counters: &mut SolveCounters,
    ) -> (f64, MultiLevelTiles) {
        let dim = free_levels.len() * TILES_PER_LEVEL;
        let extents = RealTiles::full(&self.shape).as_array();

        // Every tile size ranges over `[1, extent]`. Starting point:
        // proportional slices of each extent, smaller for inner levels.
        let mut upper = Vec::with_capacity(dim);
        let mut x0 = Vec::with_capacity(dim);
        for &level in free_levels {
            let frac = match level {
                TilingLevel::Register => 0.05,
                TilingLevel::L1 => 0.15,
                TilingLevel::L2 => 0.4,
                TilingLevel::L3 => 0.8,
            };
            upper.extend(extents);
            x0.extend(extents.map(|e| (e * frac).max(1.0)));
        }

        let solver = if self.options.thorough {
            MultiStart::with_starts(self.options.multistart)
        } else {
            MultiStart::cheap(self.options.multistart)
        };
        let mut evaluator = TileEvaluator::new(model, obj_level, fixed, free_levels, counters);
        let result = {
            let problem = Problem::joint(dim, evaluator.num_constraints(), |x, constraints| {
                evaluator.evaluate(x, constraints)
            })
            .with_bounds(vec![1.0; dim], upper);
            solver.solve(&problem, &x0)
        };
        let tiles = evaluator.tiles_at(&result.x).normalized(&self.shape);
        let cost = model.scaled_cost(&tiles, obj_level);
        (cost, tiles)
    }

    /// The operator shape.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The machine model.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The options.
    pub fn options(&self) -> &OptimizerOptions {
        &self.options
    }
}

/// A quick untuned reference configuration (used by experiments as a sanity
/// baseline): registers get a SIMD-width output-channel block, each cache
/// level gets the largest power-of-two blocks that fit half its capacity.
pub fn heuristic_config(shape: &ConvShape, machine: &MachineModel) -> TileConfig {
    let mut levels = [TileSizes::ones(); NUM_TILING_LEVELS];
    levels[TilingLevel::Register.ordinal()] = TileSizes::ones()
        .with(LoopIndex::K, machine.simd_width.min(shape.k).max(1))
        .with(LoopIndex::W, 4.min(shape.w).max(1));
    for level in [TilingLevel::L1, TilingLevel::L2, TilingLevel::L3] {
        let mut t = TileSizes::full(shape);
        // Best effort: a level nothing fits keeps the smallest tile reached.
        t.halve_to_fit(
            shape,
            machine.capacity(level) / 2,
            [LoopIndex::K, LoopIndex::C, LoopIndex::H, LoopIndex::W],
        );
        levels[level.ordinal()] = t;
    }
    TileConfig::new(
        Permutation::parse("kcrsnhw").expect("heuristic permutation"),
        levels,
        TileSizes::ones(),
    )
    .normalized(shape)
}

#[cfg(test)]
mod evaluation_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shape() -> ConvShape {
        ConvShape::new(1, 32, 16, 3, 3, 14, 14, 1).unwrap()
    }

    fn optimizer(shape: ConvShape) -> MOptOptimizer {
        let mut opts = OptimizerOptions::fast();
        opts.max_classes = 3;
        MOptOptimizer::new(shape, MachineModel::i7_9700k(), opts)
    }

    #[test]
    fn validate_rejects_only_what_the_search_cannot_run_with() {
        let defaults = OptimizerOptions::default();
        assert_eq!(defaults.validate(), Ok(()));
        assert!(defaults.multistart * 32 <= MAX_MULTISTART);
        // Served today (the model clamps it), so it keeps validating.
        assert_eq!(OptimizerOptions { threads: 0, ..defaults.clone() }.validate(), Ok(()));
        let at_bound = OptimizerOptions { multistart: MAX_MULTISTART, ..defaults.clone() };
        assert_eq!(at_bound.validate(), Ok(()));
        let past_bound = OptimizerOptions { multistart: MAX_MULTISTART + 1, ..defaults.clone() };
        assert!(past_bound.validate().unwrap_err().contains("multistart"));
        let none_kept = OptimizerOptions { keep_top: 0, ..defaults.clone() };
        assert!(none_kept.validate().unwrap_err().contains("keep_top"));
        let most_threads = OptimizerOptions { threads: MAX_THREADS, ..defaults.clone() };
        assert_eq!(most_threads.validate(), Ok(()));
        let too_many = OptimizerOptions { threads: MAX_THREADS + 1, ..defaults };
        assert_eq!(too_many.validate().unwrap_err(), "threads must be at most 1024, got 1025");
    }

    fn model_for(opt: &MOptOptimizer, permutation: Permutation) -> MultiLevelModel {
        pricing::pricing_model(
            opt.shape(),
            opt.machine(),
            opt.options(),
            permutation,
            ParallelSpec::default_for(opt.shape(), opt.options().threads),
        )
    }

    #[test]
    fn optimize_produces_valid_ranked_configs() {
        let shape = small_shape();
        let result = optimizer(shape).optimize();
        assert!(!result.ranked.is_empty());
        assert!(result.ranked.len() <= 5);
        for c in &result.ranked {
            assert!(c.config.validate(&shape).is_ok());
            assert!(c.predicted_cost.is_finite() && c.predicted_cost > 0.0);
            assert!((1..=8).contains(&c.class_id));
        }
        // Ranked by predicted cost.
        for pair in result.ranked.windows(2) {
            assert!(pair[0].predicted_cost <= pair[1].predicted_cost);
        }
        assert!(result.optimize_seconds >= 0.0);
    }

    #[test]
    fn optimize_spec_matches_embedded_conv_solve() {
        // The spec path must be the SAME pipeline as the conv path on the
        // embedded shape — identical ranked costs and configurations.
        let spec = Spec::matmul(32, 48, 16);
        let mut opts = OptimizerOptions::fast();
        opts.max_classes = 2;
        let via_spec = MOptOptimizer::optimize_spec(&spec, MachineModel::i7_9700k(), opts.clone());
        let via_conv =
            MOptOptimizer::new(spec.embedded_conv_shape(), MachineModel::i7_9700k(), opts)
                .optimize();
        assert_eq!(via_spec.ranked.len(), via_conv.ranked.len());
        for (a, b) in via_spec.ranked.iter().zip(via_conv.ranked.iter()) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.predicted_cost, b.predicted_cost);
        }
    }

    #[test]
    fn optimized_tiles_fit_cache_capacities() {
        let shape = small_shape();
        let opt = optimizer(shape);
        let result = opt.optimize();
        let best = result.best();
        let machine = opt.machine();
        for level in [TilingLevel::L1, TilingLevel::L2, TilingLevel::L3] {
            let fp = best.config.level(level).footprint(&shape);
            assert!(
                fp <= machine.capacity(level),
                "level {level} footprint {fp} exceeds capacity {}",
                machine.capacity(level)
            );
        }
    }

    #[test]
    fn optimized_config_beats_degenerate_all_ones_tiling() {
        // A capacity-feasible but terrible configuration: every tile is a
        // single iteration point, so no reuse is captured anywhere. The
        // optimizer's pick must be predicted far better than this.
        let shape = small_shape();
        let opt = optimizer(shape);
        let result = opt.optimize();
        let mut degenerate = TileConfig::untiled(&shape);
        for level in TilingLevel::ALL {
            *degenerate.level_mut(level) = TileSizes::ones();
        }
        let degenerate = degenerate.normalized(&shape);
        let model = model_for(&opt, degenerate.permutation.clone());
        let bad = model.predict_config(&degenerate);
        assert!(
            result.best().predicted_cost < bad.bottleneck_cost,
            "optimized {} should beat degenerate {}",
            result.best().predicted_cost,
            bad.bottleneck_cost
        );
    }

    #[test]
    fn grouped_configs_have_group_aligned_k_tiles_and_fit_capacities() {
        for shape in [
            ConvShape::new_general(1, 32, 16, 3, 3, 14, 14, 1, 1, 4).unwrap(),
            ConvShape::depthwise(32, 16, 3, 1),
        ] {
            let opt = optimizer(shape);
            let result = opt.optimize();
            let k_per_group = shape.k_per_group().max(1);
            for candidate in &result.ranked {
                for level in TilingLevel::ALL {
                    let tk = candidate.config.level(level).get(LoopIndex::K);
                    assert!(
                        tk <= k_per_group || tk % k_per_group == 0,
                        "{shape}: K tile {tk} straddles groups of {k_per_group} at {level}"
                    );
                }
                // At group-aligned K tiles the integer footprint matches the
                // continuous capacity constraint the solver enforced.
                for level in [TilingLevel::L1, TilingLevel::L2, TilingLevel::L3] {
                    let fp = candidate.config.level(level).footprint(&shape);
                    assert!(
                        fp <= opt.machine().capacity(level),
                        "{shape}: level {level} footprint {fp} exceeds capacity {}",
                        opt.machine().capacity(level)
                    );
                }
            }
        }
    }

    #[test]
    fn optimizer_beats_simple_heuristic_in_model_cost() {
        let shape = ConvShape::new(1, 64, 32, 3, 3, 28, 28, 1).unwrap();
        let opt = optimizer(shape);
        let result = opt.optimize();
        let heuristic = heuristic_config(&shape, opt.machine());
        let model = model_for(&opt, heuristic.permutation.clone());
        let heuristic_cost = model.predict_config(&heuristic).bottleneck_cost;
        assert!(
            result.best().predicted_cost <= heuristic_cost * 1.05,
            "MOpt {} should not lose to the power-of-two heuristic {}",
            result.best().predicted_cost,
            heuristic_cost
        );
    }

    #[test]
    fn parallel_options_produce_valid_parallel_spec() {
        let shape = small_shape();
        let machine = MachineModel::i7_9700k();
        let opt = MOptOptimizer::new(
            shape,
            machine.clone(),
            OptimizerOptions {
                threads: machine.threads,
                max_classes: 1,
                multistart: 1,
                ..OptimizerOptions::fast()
            },
        );
        assert!(ParallelSpec::default_for(&shape, machine.threads).is_valid());
        let result = opt.optimize();
        assert_eq!(result.best().config.total_parallelism(), machine.threads);
    }

    #[test]
    fn axis_search_ranks_candidates_from_both_parallel_axes() {
        let shape = small_shape(); // k = 32, h = 14: both axes can host 4 threads
        let opt = MOptOptimizer::new(
            shape,
            MachineModel::i7_9700k(),
            OptimizerOptions {
                threads: 4,
                max_classes: 1,
                multistart: 0,
                keep_top: 8,
                ..OptimizerOptions::fast()
            },
        );
        let specs = opt.parallel_candidates();
        assert_eq!(specs.len(), 2, "k and rows decompositions must be distinct here");
        assert!(specs.iter().all(|s| s.is_valid() && s.total() == 4));
        let result = opt.optimize();
        assert_eq!(result.ranked.len(), 2);
        let axes: std::collections::HashSet<_> =
            result.ranked.iter().map(|c| c.config.parallel_axis()).collect();
        assert_eq!(axes.len(), 2, "one candidate per axis must survive");
        for c in &result.ranked {
            assert_eq!(c.config.total_parallelism(), 4);
            assert!(c.config.validate(&shape).is_ok());
            // The integer tiles respect the per-thread L3 share the solver
            // certified (private L1/L2 keep their whole capacity).
            let l3 = c.config.level(TilingLevel::L3).footprint(&shape);
            assert!(l3 <= opt.machine().capacity_per_thread(TilingLevel::L3, 4));
        }
        // Sequential runs search exactly one (sequential) specification.
        let seq = MOptOptimizer::new(shape, MachineModel::i7_9700k(), OptimizerOptions::fast());
        assert_eq!(seq.parallel_candidates(), vec![ParallelSpec::sequential()]);
    }

    #[test]
    fn heuristic_config_is_valid_and_fits() {
        let shape = ConvShape::new(1, 128, 64, 3, 3, 28, 28, 1).unwrap();
        let machine = MachineModel::i7_9700k();
        let cfg = heuristic_config(&shape, &machine);
        assert!(cfg.validate(&shape).is_ok());
        for level in [TilingLevel::L1, TilingLevel::L2, TilingLevel::L3] {
            assert!(cfg.level(level).footprint(&shape) <= machine.capacity(level));
        }
    }

    #[test]
    fn traced_search_matches_untraced_bit_for_bit_and_accounts_for_the_space() {
        let shape = small_shape();
        let opt = optimizer(shape);
        let plain = opt.optimize();
        let (traced, trace) = opt.optimize_traced();
        // One search, seeded: the ranked configurations (tiles, permutations,
        // predictions) are byte-identical from run to run.
        assert_eq!(plain.ranked, traced.ranked);
        // The design space is fully accounted for.
        assert_eq!(trace.permutations_total, 5040, "7! loop orders before pruning");
        assert_eq!(trace.classes_searched, 3, "max_classes = 3 in the test optimizer");
        assert_eq!(trace.permutations_pruned, 5040 - 3);
        assert_eq!(trace.candidates.len(), 3, "sequential run: one candidate per class");
        assert!(trace.enumerated > 0, "the solver enumerated configurations");
        assert!(trace.capacity_pruned > 0, "some enumerated configs violated capacity");
        assert!(trace.capacity_pruned <= trace.enumerated);
        for candidate in &trace.candidates {
            assert_eq!(candidate.rounds.len(), 4, "one round per memory level");
            let mut remaining = 4;
            for round in &candidate.rounds {
                assert_eq!(round.hypotheses.len(), remaining);
                remaining -= 1;
                assert!(round.hypotheses.iter().any(|h| h.level == round.fixed));
                assert!(round.fixed_cost.is_finite());
            }
            assert!(candidate.predicted_cost.is_finite() && candidate.predicted_cost > 0.0);
            assert!(candidate.permutation.len() > 2, "rendered representative");
        }
        // Winner bookkeeping matches the ranking.
        assert_eq!(trace.winner_class, traced.ranked[0].class_id);
        assert_eq!(trace.winner_cost, traced.ranked[0].predicted_cost);
        assert_eq!(trace.runner_up_cost, Some(traced.ranked[1].predicted_cost));
        assert!(trace.margin.unwrap() >= 0.0);
    }

    #[test]
    fn thorough_profile_finds_a_cheaper_r4_schedule_pinned_to_the_bit() {
        // The evidence for keeping `thorough`: on R4 at one thread the
        // barrier solver reaches a schedule the default profile does not
        // (0.864 of its model cost). Neither profile may serve a higher price
        // than the per-level integer refinement did (PR 20's pins, kept as
        // the bounds).
        let shape = conv_spec::benchmarks::by_name("R4").expect("a catalog op").shape;
        let solve = |thorough| {
            let options = OptimizerOptions { thorough, ..OptimizerOptions::default() };
            MOptOptimizer::new(shape, MachineModel::i7_9700k(), options).optimize()
        };
        let (default, thorough) = (solve(false), solve(true));
        assert_eq!(default.best().predicted_cost.to_bits(), 0x412573cccccccccc);
        assert_eq!(thorough.best().predicted_cost.to_bits(), 0x41228b518c6318c6);
        assert!(default.best().predicted_cost <= f64::from_bits(0x4134688000000000));
        assert!(thorough.best().predicted_cost <= f64::from_bits(0x412294b99999999b));
        assert!(thorough.best().predicted_cost < default.best().predicted_cost);
        let ratio = thorough.best().predicted_cost / default.best().predicted_cost;
        assert_eq!((ratio * 1000.0).round(), 864.0);
        let expected = TileConfig::new(
            Permutation::parse("nkhwcsr").expect("a permutation"),
            [
                TileSizes::from_array([1, 8, 1, 1, 1, 12, 1]),
                TileSizes::from_array([1, 24, 31, 3, 2, 12, 2]),
                TileSizes::from_array([1, 64, 33, 3, 3, 15, 15]),
                TileSizes::from_array([1, 128, 64, 3, 3, 27, 27]),
            ],
            TileSizes::ones(),
        );
        assert_eq!(thorough.best().config, expected);
        assert_eq!(thorough.best().class_id, 4);
    }

    #[test]
    #[should_panic(expected = "keep_top must be at least 1")]
    fn zero_keep_top_panics() {
        let shape = small_shape();
        let mut opts = OptimizerOptions::fast();
        opts.keep_top = 0;
        let _ = MOptOptimizer::new(shape, MachineModel::i7_9700k(), opts).optimize();
    }
}

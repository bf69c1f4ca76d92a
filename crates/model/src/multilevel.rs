//! Multi-level tile cost assembly (Sec. 5) and the parallel adaptation
//! (Sec. 7).
//!
//! For `L`-level tiling the data volume moved across the boundary that fills
//! tiling level `l` is obtained from the single-level expressions by
//! replacing the problem extents `N_j` with the tile sizes of the next outer
//! level `T_{l+1,j}` and multiplying by the number of level-`l+1` tiles:
//!
//! ```text
//! DV_l = (Π_j N_j / T_{l+1,j}) · DV_single(extents = T_{l+1}, tiles = T_l)
//! DV_L3 = DV_single(extents = N, tiles = T_L3)
//! ```
//!
//! The optimization objective is the *bandwidth-scaled* bottleneck
//! `max_l DV_l / BW_l`; the solver handles the min–max by solving one
//! minimization per candidate bottleneck level with dominance constraints
//! (implemented in `mopt-core`). This module only evaluates the expressions.
//!
//! # One level at a time
//!
//! After the clamp chain that nests the levels into each other
//! ([`MultiLevelTiles::nested_within`]), `DV_l` depends on two tiles only —
//! level `l`'s own and the one enclosing it — and level `l`'s footprint on
//! its own alone. [`LevelPricer`] is the model with everything else worked
//! out once (thread slice, capacities, bandwidths, the permutation's
//! [`ReusePlan`]); [`MultiLevelModel`]'s per-call methods build one, nest
//! once and ask it for the levels they need, and a search keeps one per
//! solve so that it can re-price only the levels a step changed.
//!
//! # Multicore adaptation
//!
//! Under parallel execution `P` threads partition the problem along the
//! schedule's parallel axis ([`conv_spec::ParallelAxis`]: the `k` output
//! channels or the `n·h` output rows). Each thread runs the full tiling on
//! its `1/P` slice with its *private* L1/L2 intact, while the shared L3
//! contributes only a `1/P` capacity share to each thread's capacity
//! constraint and the DRAM-boundary traffic is *summed* across threads.
//! The sequential model of Sec. 5 is this model at `P = 1`, exactly: the
//! per-thread extents are the problem extents, and multiplying a volume by
//! `1.0` is an identity (property-tested against an inline copy of the
//! sequential expressions in `tests/multicore_parallel.rs`, and across every
//! spelling of one thread in this crate's `tests/one_model.rs`).

use conv_spec::{
    ConvShape, LayoutConfig, LoopIndex, MachineModel, ParallelAxis, Permutation, TensorKind,
    TileConfig, TileSizes, TilingLevel, ALL_INDICES,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

use crate::cost::{
    input_footprint, kernel_footprint, output_footprint, total_footprint, CostOptions, RealTiles,
    ReusePlan,
};
use crate::move_cost::{self, MoveCost};

/// Real-valued tile sizes for all four levels (Register, L1, L2, L3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiLevelTiles {
    /// Indexed by [`TilingLevel::ordinal`].
    pub levels: [RealTiles; 4],
}

impl MultiLevelTiles {
    /// All levels equal to the full problem size (untiled).
    pub fn full(shape: &ConvShape) -> Self {
        MultiLevelTiles { levels: [RealTiles::full(shape); 4] }
    }

    /// Tile sizes of a level.
    pub fn level(&self, level: TilingLevel) -> &RealTiles {
        &self.levels[level.ordinal()]
    }

    /// Mutable tile sizes of a level.
    pub fn level_mut(&mut self, level: TilingLevel) -> &mut RealTiles {
        &mut self.levels[level.ordinal()]
    }

    /// Enforce the nesting invariant `Reg ≤ L1 ≤ L2 ≤ L3 ≤ N` element-wise.
    pub fn normalized(&self, shape: &ConvShape) -> Self {
        self.nested_within(&RealTiles::full(shape).as_array())
    }

    /// The one clamp chain: the L3 tile is clamped into `outermost` (the
    /// problem extents, or one thread's slice of them), every inner level
    /// into the level outside it.
    pub fn nested_within(&self, outermost: &[f64; 7]) -> Self {
        let mut out = *self;
        out.levels[TilingLevel::L3.ordinal()] =
            out.levels[TilingLevel::L3.ordinal()].clamped(outermost);
        for lvl in [TilingLevel::L2, TilingLevel::L1, TilingLevel::Register] {
            let outer = out.levels[lvl.ordinal() + 1].as_array();
            out.levels[lvl.ordinal()] = out.levels[lvl.ordinal()].clamped(&outer);
        }
        out
    }

    /// Convert an integer tiling configuration to real tiles.
    pub fn from_config(config: &TileConfig) -> Self {
        MultiLevelTiles {
            levels: [
                RealTiles::from(config.level(TilingLevel::Register)),
                RealTiles::from(config.level(TilingLevel::L1)),
                RealTiles::from(config.level(TilingLevel::L2)),
                RealTiles::from(config.level(TilingLevel::L3)),
            ],
        }
    }
}

/// How the L3 tile is partitioned among threads (Sec. 7).
///
/// Parallelization happens along non-reduction dimensions (`n`, `k`, `h`,
/// `w`) by sub-tiling the L2 tile loops; the product of the factors equals
/// the number of threads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelSpec {
    /// Number of threads (cores) used.
    pub threads: usize,
    /// Per-dimension parallelization factors (1 for unparallelized and for
    /// all reduction dimensions).
    pub factors: [usize; 7],
}

impl ParallelSpec {
    /// Sequential execution.
    pub fn sequential() -> Self {
        ParallelSpec { threads: 1, factors: [1; 7] }
    }

    /// A simple default decomposition of `threads` over the `k` and `h`
    /// dimensions (the dimensions the paper's generated code parallelizes
    /// most often), preferring `k`.
    pub fn default_for(shape: &ConvShape, threads: usize) -> Self {
        Self::along_axis(shape, threads, ParallelAxis::OutputChannels)
    }

    /// Decompose `threads` along a schedule-level parallel axis: the axis's
    /// leading dimension takes the largest divisor of `threads` its extent
    /// admits, later priority dimensions absorb the rest.
    pub fn along_axis(shape: &ConvShape, threads: usize, axis: ParallelAxis) -> Self {
        let mut factors = [1usize; 7];
        let mut remaining = threads.max(1);
        for idx in axis.priority() {
            if remaining == 1 {
                break;
            }
            let extent = shape.extent(idx);
            let mut f = 1;
            for cand in (1..=remaining).rev() {
                if remaining.is_multiple_of(cand) && extent >= cand {
                    f = cand;
                    break;
                }
            }
            factors[idx.canonical_position()] = f;
            remaining /= f;
        }
        ParallelSpec { threads: threads.max(1), factors }
    }

    /// The axis the factor vector predominantly splits (see
    /// [`TileConfig::parallel_axis`] for the same rule on integer configs).
    pub fn axis(&self) -> ParallelAxis {
        let rows = self.factor(LoopIndex::N) * self.factor(LoopIndex::H);
        if rows > self.factor(LoopIndex::K) {
            ParallelAxis::OutputRows
        } else {
            ParallelAxis::OutputChannels
        }
    }

    /// Parallelization factor for a dimension.
    pub fn factor(&self, idx: LoopIndex) -> usize {
        self.factors[idx.canonical_position()]
    }

    /// One thread's slice of each extent of `shape`, in whole iteration
    /// points: a parallelized dimension is cut into `factor` contiguous
    /// chunks and the largest is the ceiling. The integer envelope a
    /// schedule's L3 tile lives in (the model itself prices the unrounded
    /// [`MultiLevelModel::thread_extents`]).
    pub fn thread_slice(&self, shape: &ConvShape) -> TileSizes {
        let mut slice = TileSizes::full(shape);
        for idx in ALL_INDICES {
            slice.set(idx, shape.extent(idx).div_ceil(self.factor(idx).max(1)).max(1));
        }
        slice
    }

    /// Product of all factors (should equal `threads` for a valid spec).
    pub fn total(&self) -> usize {
        self.factors.iter().product()
    }

    /// Whether only non-reduction dimensions are parallelized and the factor
    /// product matches the thread count.
    pub fn is_valid(&self) -> bool {
        let no_reduction = ALL_INDICES.iter().all(|&i| !i.is_reduction() || self.factor(i) == 1);
        no_reduction && self.total() == self.threads
    }
}

/// Per-level model-predicted data volumes for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelPrediction {
    /// Data volume crossing the boundary feeding each level (elements),
    /// indexed by [`TilingLevel::ordinal`].
    pub volumes: [f64; 4],
    /// Bandwidth-scaled cost of each level (cycles).
    pub scaled_costs: [f64; 4],
    /// The predicted bottleneck level.
    pub bottleneck: TilingLevel,
    /// The bottleneck's bandwidth-scaled cost — the model's figure of merit
    /// (lower is better).
    pub bottleneck_cost: f64,
    /// FLOPs of the operator.
    pub flops: f64,
}

impl ModelPrediction {
    /// Volume at a level.
    pub fn volume(&self, level: TilingLevel) -> f64 {
        self.volumes[level.ordinal()]
    }

    /// Bandwidth-scaled cost at a level.
    pub fn scaled_cost(&self, level: TilingLevel) -> f64 {
        self.scaled_costs[level.ordinal()]
    }

    /// Projected GFLOPS implied by the bottleneck cost (and the compute
    /// throughput ceiling) on a machine.
    pub fn projected_gflops(&self, machine: &MachineModel, threads: usize) -> f64 {
        machine.roofline(self.flops, self.bottleneck_cost, threads).1
    }
}

/// A configuration's price, from [`MultiLevelModel::price`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Price {
    /// The model's full per-level prediction.
    pub prediction: ModelPrediction,
    /// The certified total (cycles): what schedules are ranked by.
    pub total: f64,
}

/// One memory level's row in a [`CostBreakdown`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelCost {
    /// The memory level.
    pub level: TilingLevel,
    /// Tile footprint at the level (elements, per thread).
    pub footprint_elems: f64,
    /// Capacity available to one thread at the level (elements; the shared
    /// L3 contributes a `1/P` share).
    pub capacity_elems: f64,
    /// `footprint − capacity`: non-positive for a feasible configuration.
    pub slack_elems: f64,
    /// Data volume crossing the boundary that fills the level (elements,
    /// whole chip).
    pub volume_elems: f64,
    /// Bandwidth-scaled cost of the level (cycles).
    pub scaled_cost: f64,
    /// The level's share of the certified price: the bottleneck level
    /// carries the full bottleneck cost, every other level exactly `0.0`,
    /// so the column sums to the configuration's predicted cost bit for bit
    /// (the model's figure of merit is a max, not a sum — see
    /// [`CostBreakdown`]).
    pub attributed_cost: f64,
}

/// Per-memory-level decomposition of one configuration's predicted cost,
/// served by the `Explain` verb.
///
/// The model's certified price is the *bottleneck* `max_l DV_l / BW_l`, not
/// a sum of per-level terms: levels overlap in time and only the slowest
/// boundary is paid. `levels[..].scaled_cost` exposes every level's real
/// scaled cost (what the max ranges over), while `attributed_cost` assigns
/// the whole certified price to the bottleneck level and zero elsewhere so
/// that summing the attribution reproduces `total_cost` exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// One row per memory level, innermost (Register) first.
    pub levels: Vec<LevelCost>,
    /// The predicted bottleneck level.
    pub bottleneck: TilingLevel,
    /// The certified price: the bottleneck's bandwidth-scaled cost plus the
    /// one-time layout-transform total (cycles). At the default layouts the
    /// move total is exactly zero and this is the bottleneck cost unchanged.
    pub total_cost: f64,
    /// FLOPs of the operator.
    pub flops: f64,
    /// One row per layout transform the schedule performs (empty at the
    /// paper-default layouts).
    pub moves: Vec<MoveCost>,
    /// Sum of the move rows' costs (cycles); `0.0` when `moves` is empty.
    pub move_total: f64,
}

impl CostBreakdown {
    /// Sum of the per-level attributed costs plus the move total — equal to
    /// `total_cost` bit for bit by construction (at default layouts the move
    /// total is a literal zero, so this is the bottleneck attribution alone).
    pub fn attributed_total(&self) -> f64 {
        let levels: f64 = self.levels.iter().map(|l| l.attributed_cost).sum();
        if self.moves.is_empty() {
            levels
        } else {
            levels + self.move_total
        }
    }
}

/// The multi-level analytical model for one operator on one machine.
#[derive(Debug, Clone)]
pub struct MultiLevelModel {
    /// The conv2d problem.
    pub shape: ConvShape,
    /// The machine (capacities and bandwidths).
    pub machine: MachineModel,
    /// The tile-loop permutation (one of the pruned representatives during
    /// optimization; arbitrary during validation).
    pub permutation: Permutation,
    /// Cost options (spatial-locality line size).
    pub options: CostOptions,
    /// Parallel execution specification.
    pub parallel: ParallelSpec,
    /// Per-tensor data layouts the schedule is priced under. At the default
    /// (the paper's fixed NCHW/KCRS) every layout-aware term is skipped
    /// entirely, so the model is bit-identical to the pre-layout one.
    pub layout: LayoutConfig,
}

impl MultiLevelModel {
    /// A sequential model with default options.
    pub fn new(shape: ConvShape, machine: MachineModel, permutation: Permutation) -> Self {
        MultiLevelModel {
            shape,
            machine,
            permutation,
            options: CostOptions::default(),
            parallel: ParallelSpec::sequential(),
            layout: LayoutConfig::default(),
        }
    }

    /// Builder-style: set the parallel specification.
    pub fn with_parallel(mut self, parallel: ParallelSpec) -> Self {
        self.parallel = parallel;
        self
    }

    /// Builder-style: set cost options.
    pub fn with_options(mut self, options: CostOptions) -> Self {
        self.options = options;
        self
    }

    /// Builder-style: price the nest under a layout assignment.
    pub fn with_layout(mut self, layout: LayoutConfig) -> Self {
        self.layout = layout;
        self
    }

    /// Weight per-tensor volumes by their layout traffic factors. Only
    /// called on the non-default-layout path.
    fn layout_weighted_total(&self, v: &crate::cost::ArrayVolumes) -> f64 {
        v.input * move_cost::traffic_factor(&self.shape, &self.layout, TensorKind::Input)
            + v.kernel * move_cost::traffic_factor(&self.shape, &self.layout, TensorKind::Kernel)
            + v.output * move_cost::traffic_factor(&self.shape, &self.layout, TensorKind::Output)
    }

    /// The one-time layout-transform rows for this model's layout (empty at
    /// the default), priced at the boundary each transform crosses.
    pub fn move_rows(&self) -> Vec<MoveCost> {
        move_cost::layout_move_costs(
            &self.shape,
            &self.machine,
            &self.layout,
            &self.options,
            self.parallel.threads,
        )
    }

    /// Total one-time layout-transform cost (cycles); a literal `0.0` at the
    /// default layout.
    pub fn move_total(&self) -> f64 {
        if self.layout.is_default() {
            return 0.0;
        }
        move_cost::layout_move_total(
            &self.shape,
            &self.machine,
            &self.layout,
            &self.options,
            self.parallel.threads,
        )
    }

    /// Per-thread problem extents under parallel execution: each parallelized
    /// dimension's extent shrinks by its factor (continuous form, floored at
    /// one iteration point). With one thread these are the problem extents.
    pub fn thread_extents(&self) -> RealTiles {
        let mut e = RealTiles::full(&self.shape);
        if self.parallel.threads > 1 {
            for &idx in &ALL_INDICES {
                let p = self.parallel.factor(idx) as f64;
                if p > 1.0 {
                    e.set(idx, (e.get(idx) / p).max(1.0));
                }
            }
        }
        e
    }

    /// This model with everything that does not depend on the tile sizes
    /// worked out, ready to price levels one at a time.
    pub fn pricer(&self) -> LevelPricer<'_> {
        let threads = self.parallel.threads.max(1) as f64;
        LevelPricer {
            model: self,
            plan: ReusePlan::new(&self.permutation),
            slice: self.thread_extents(),
            threads,
            default_layout: self.layout.is_default(),
            capacity: TilingLevel::ALL
                .map(|level| self.machine.capacity_per_thread(level, self.parallel.threads) as f64),
            bandwidth: TilingLevel::ALL
                .map(|level| self.machine.fill_bandwidth_at(level, self.parallel.threads)),
        }
    }

    /// Model-predicted data volume (elements, whole chip) crossing the
    /// boundary that fills tiles of `level` (see [`LevelPricer::volume`]).
    pub fn level_volume(&self, tiles: &MultiLevelTiles, level: TilingLevel) -> f64 {
        let pricer = self.pricer();
        pricer.volume_in(&pricer.nest(tiles), level)
    }

    /// Tile footprint at a level (elements) — the left-hand side of that
    /// level's capacity constraint — of the tile as every level is priced:
    /// nested into one thread's slice of the problem (the whole problem at one
    /// thread, where a nested assignment passes through the clamp unchanged).
    pub fn footprint(&self, tiles: &MultiLevelTiles, level: TilingLevel) -> f64 {
        let slice = self.thread_extents().as_array();
        self.tile_footprint(tiles.nested_within(&slice).level(level))
    }

    /// Tile footprint under the model's layout: the default path is the
    /// paper's expression untouched; non-default layouts inflate each tensor
    /// by its padding factor.
    fn tile_footprint(&self, t: &RealTiles) -> f64 {
        if self.layout.is_default() {
            return total_footprint(&self.shape, t);
        }
        input_footprint(&self.shape, t)
            * move_cost::footprint_factor(&self.shape, &self.layout, TensorKind::Input)
            + kernel_footprint(t)
                * move_cost::footprint_factor(&self.shape, &self.layout, TensorKind::Kernel)
            + output_footprint(t)
                * move_cost::footprint_factor(&self.shape, &self.layout, TensorKind::Output)
    }

    /// Capacity constraint `footprint − capacity ≤ 0` for a level.
    ///
    /// Private levels (registers, L1, L2) belong to one core and keep their
    /// whole capacity. The shared L3 is divided among the active threads
    /// ([`MachineModel::capacity_per_thread`]): each thread's tile must fit
    /// its `1/P` share, so co-running threads never evict each other's
    /// certified working sets. At `threads == 1` both terms are exactly the
    /// sequential ones.
    pub fn capacity_slack(&self, tiles: &MultiLevelTiles, level: TilingLevel) -> f64 {
        self.footprint(tiles, level)
            - self.machine.capacity_per_thread(level, self.parallel.threads) as f64
    }

    /// Bandwidth-scaled cost `DV_l / BW_l` (cycles) of a level, accounting for
    /// per-core bandwidth at private levels.
    pub fn scaled_cost(&self, tiles: &MultiLevelTiles, level: TilingLevel) -> f64 {
        let pricer = self.pricer();
        pricer.scale(pricer.volume_in(&pricer.nest(tiles), level), level)
    }

    /// Evaluate the full prediction (volumes, scaled costs, bottleneck) for a
    /// continuous tile assignment.
    pub fn predict_tiles(&self, tiles: &MultiLevelTiles) -> ModelPrediction {
        let pricer = self.pricer();
        let nested = pricer.nest(tiles);
        let mut volumes = [0.0; 4];
        let mut scaled = [0.0; 4];
        for &level in &TilingLevel::ALL {
            let volume = pricer.volume_in(&nested, level);
            volumes[level.ordinal()] = volume;
            scaled[level.ordinal()] = pricer.scale(volume, level);
        }
        let (bottleneck, bottleneck_cost) = TilingLevel::ALL
            .iter()
            .map(|&l| (l, scaled[l.ordinal()]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("four levels");
        ModelPrediction {
            volumes,
            scaled_costs: scaled,
            bottleneck,
            bottleneck_cost,
            flops: self.shape.flops() as f64,
        }
    }

    /// This model re-targeted at `config`'s own permutation and layout —
    /// borrowed (no clone) when they already match, which is how search,
    /// re-ranking and `Explain` build their models.
    fn for_config(&self, config: &TileConfig) -> Cow<'_, MultiLevelModel> {
        if self.permutation == config.permutation && self.layout == config.layout {
            return Cow::Borrowed(self);
        }
        let mut model = self.clone();
        model.permutation = config.permutation.clone();
        model.layout = config.layout;
        Cow::Owned(model)
    }

    /// Evaluate the prediction for an integer tiling configuration. The
    /// configuration's own permutation is used (overriding the model's) so
    /// that arbitrary sampled configurations can be ranked.
    pub fn predict_config(&self, config: &TileConfig) -> ModelPrediction {
        self.for_config(config).predict_tiles(&MultiLevelTiles::from_config(config))
    }

    /// Price a configuration: its prediction plus the certified total — the
    /// bandwidth-scaled bottleneck, plus the one-time layout-transform total
    /// under the configuration's own layout. At the default layouts the
    /// total is the bottleneck cost, bit for bit.
    ///
    /// This is the one place a schedule's price is formed: the optimizer's
    /// search, the database re-rank and [`cost_breakdown`](Self::cost_breakdown)
    /// (behind `Explain`) all take it from here.
    pub fn price(&self, config: &TileConfig) -> Price {
        let model = self.for_config(config);
        let prediction = model.predict_tiles(&MultiLevelTiles::from_config(config));
        let total = if model.layout.is_default() {
            prediction.bottleneck_cost
        } else {
            prediction.bottleneck_cost + model.move_total()
        };
        Price { prediction, total }
    }

    /// Decompose a configuration's [`price`](Self::price) into per-level
    /// footprints, capacities, slacks, traffic, and scaled costs plus the
    /// layout-transform rows (the `Explain` verb's payload).
    pub fn cost_breakdown(&self, config: &TileConfig) -> CostBreakdown {
        let model = self.for_config(config);
        let Price { prediction, total: total_cost } = model.price(config);
        let tiles = MultiLevelTiles::from_config(config);
        let moves = model.move_rows();
        // An empty f64 sum is `-0.0`; keep the default-layout value a literal
        // positive zero so serialized breakdowns stay byte-identical.
        let move_total: f64 =
            if moves.is_empty() { 0.0 } else { moves.iter().map(|m| m.cost).sum() };
        let levels = TilingLevel::ALL
            .iter()
            .map(|&level| {
                let capacity =
                    self.machine.capacity_per_thread(level, self.parallel.threads) as f64;
                let footprint = model.footprint(&tiles, level);
                LevelCost {
                    level,
                    footprint_elems: footprint,
                    capacity_elems: capacity,
                    slack_elems: footprint - capacity,
                    volume_elems: prediction.volume(level),
                    scaled_cost: prediction.scaled_cost(level),
                    attributed_cost: if level == prediction.bottleneck {
                        prediction.bottleneck_cost
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        CostBreakdown {
            levels,
            bottleneck: prediction.bottleneck,
            total_cost,
            flops: prediction.flops,
            moves,
            move_total,
        }
    }
}

/// A [`MultiLevelModel`] with everything that does not depend on the tile
/// sizes worked out once ([`MultiLevelModel::pricer`]): one thread's slice of
/// the problem, each level's capacity share and bandwidth, the permutation's
/// [`ReusePlan`].
///
/// A level's volume is a function of two tiles only — its own and the one
/// enclosing it, both taken from the *nested* assignment ([`nest`](Self::nest))
/// — and its footprint of its own tile alone. The model's per-call methods
/// ([`MultiLevelModel::scaled_cost`], [`MultiLevelModel::predict_tiles`], …)
/// nest once and go through here; a search that prices many neighbouring
/// points keeps one pricer per solve and re-prices only the levels whose two
/// tiles changed.
///
/// # Multicore
///
/// The `P` threads partition the problem along the schedule's parallel axis
/// (Sec. 7): each thread runs the Sec. 5 assembly on a `1/P` slice (with
/// tiles clamped into its slice), and the chip total — including the
/// DRAM-boundary traffic — is the *sum* of the per-thread volumes. `P = 1` is
/// the sequential model exactly, not a special case of the code: the slice
/// is the whole problem, so the clamp into it is the plain nesting clamp, and
/// `1.0 * x` is `x` bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct LevelPricer<'m> {
    model: &'m MultiLevelModel,
    plan: ReusePlan,
    slice: RealTiles,
    threads: f64,
    default_layout: bool,
    capacity: [f64; 4],
    bandwidth: [f64; 4],
}

impl LevelPricer<'_> {
    /// `tiles` clamped into one thread's slice and into each other, outermost
    /// first: the assignment every level is priced on.
    pub fn nest(&self, tiles: &MultiLevelTiles) -> MultiLevelTiles {
        tiles.nested_within(&self.slice.as_array())
    }

    /// The tile whose execution `level`'s tiles partition: the next outer
    /// level's, or the thread's slice around the L3 tile.
    pub fn enclosing<'a>(
        &'a self,
        nested: &'a MultiLevelTiles,
        level: TilingLevel,
    ) -> &'a RealTiles {
        match level.outer() {
            None => &self.slice,
            Some(outer) => nested.level(outer),
        }
    }

    /// Data volume (elements, whole chip) crossing the boundary that fills
    /// `level`, given the level's nested tile and its
    /// [`enclosing`](Self::enclosing) tile: the single-level expression on
    /// that pair, times the number of enclosing tiles in a slice, times the
    /// thread count.
    pub fn volume(&self, level: TilingLevel, tile: &RealTiles, enclosing: &RealTiles) -> f64 {
        let model = self.model;
        let volumes = self.plan.volumes(&model.shape, tile, enclosing, &model.options);
        let per_outer = if self.default_layout {
            volumes.total()
        } else {
            model.layout_weighted_total(&volumes)
        };
        let count: f64 = match level.outer() {
            None => 1.0,
            Some(_) => ALL_INDICES
                .iter()
                .map(|&idx| (self.slice.get(idx) / enclosing.get(idx).max(1e-12)).max(1.0))
                .product(),
        };
        self.threads * count * per_outer
    }

    /// [`volume`](Self::volume) of `level` within an already nested assignment.
    fn volume_in(&self, nested: &MultiLevelTiles, level: TilingLevel) -> f64 {
        self.volume(level, nested.level(level), self.enclosing(nested, level))
    }

    /// `volume / BW_l`, with per-core bandwidth at the private levels.
    fn scale(&self, volume: f64, level: TilingLevel) -> f64 {
        volume / self.bandwidth[level.ordinal()]
    }

    /// Bandwidth-scaled cost (cycles) of `level`: its [`volume`](Self::volume)
    /// over its bandwidth.
    pub fn scaled_cost(&self, level: TilingLevel, tile: &RealTiles, enclosing: &RealTiles) -> f64 {
        self.scale(self.volume(level, tile, enclosing), level)
    }

    /// Capacity constraint `footprint − capacity ≤ 0` of `level` for its
    /// nested tile, against one thread's share of the level.
    pub fn capacity_slack(&self, level: TilingLevel, tile: &RealTiles) -> f64 {
        self.model.tile_footprint(tile) - self.capacity[level.ordinal()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::TileSizes;

    fn shape() -> ConvShape {
        ConvShape::new(1, 32, 16, 3, 3, 28, 28, 1).unwrap()
    }

    fn machine() -> MachineModel {
        MachineModel::tiny_test_machine()
    }

    fn model() -> MultiLevelModel {
        MultiLevelModel::new(shape(), machine(), Permutation::parse("kcrsnhw").unwrap())
    }

    fn nested_tiles() -> MultiLevelTiles {
        MultiLevelTiles {
            levels: [
                RealTiles::from_array([1.0, 4.0, 1.0, 1.0, 1.0, 1.0, 4.0]),
                RealTiles::from_array([1.0, 8.0, 4.0, 3.0, 3.0, 4.0, 7.0]),
                RealTiles::from_array([1.0, 16.0, 8.0, 3.0, 3.0, 7.0, 14.0]),
                RealTiles::from_array([1.0, 32.0, 16.0, 3.0, 3.0, 14.0, 28.0]),
            ],
        }
    }

    #[test]
    fn outermost_level_reduces_to_single_level_expression() {
        let m = model();
        let tiles = nested_tiles();
        let expected = crate::cost::single_level_volume(
            &m.shape,
            &m.permutation,
            tiles.level(TilingLevel::L3),
            &m.options,
        )
        .total();
        let got = m.level_volume(&tiles, TilingLevel::L3);
        assert!((got - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn volumes_grow_toward_the_core() {
        let m = model();
        let tiles = nested_tiles();
        let p = m.predict_tiles(&tiles);
        assert!(p.volume(TilingLevel::Register) >= p.volume(TilingLevel::L1));
        assert!(p.volume(TilingLevel::L1) >= p.volume(TilingLevel::L2));
        assert!(p.volume(TilingLevel::L2) >= p.volume(TilingLevel::L3));
    }

    #[test]
    fn untiled_everything_moves_minimum_data_at_memory() {
        let m = model();
        let tiles = MultiLevelTiles::full(&m.shape);
        let v = m.level_volume(&tiles, TilingLevel::L3);
        let s = m.shape;
        let min = (s.input_elems() + s.kernel_elems() + 2 * s.output_elems()) as f64;
        assert!((v - min).abs() / min < 1e-12);
    }

    #[test]
    fn capacity_slack_signs() {
        let m = model();
        let tiles = nested_tiles();
        // Register tile (4x4 out + ...) small: should fit the 32-element file? footprint:
        // In 1*1*1*4 + Ker 4*1*1*1 + Out 1*4*1*4 = 4 + 4 + 16 = 24 <= 32.
        assert!(m.capacity_slack(&tiles, TilingLevel::Register) <= 0.0);
        // The L3 tile is the whole problem; it exceeds the tiny 16K L3? Its
        // footprint is ~ 14K + 4.6K + 25K > 16384, so slack is positive.
        assert!(m.capacity_slack(&tiles, TilingLevel::L3) > 0.0);
    }

    #[test]
    fn bottleneck_is_argmax_of_scaled_costs() {
        let m = model();
        let tiles = nested_tiles();
        let p = m.predict_tiles(&tiles);
        let max = p.scaled_costs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(p.bottleneck_cost, max);
        assert_eq!(p.scaled_cost(p.bottleneck), max);
        assert!(p.projected_gflops(&m.machine, 1) > 0.0);
    }

    #[test]
    fn multicore_model_shrinks_private_costs_and_sums_dram_traffic() {
        let seq = model();
        let tiles = nested_tiles();
        let p_seq = seq.predict_tiles(&tiles);
        for axis in ParallelAxis::ALL {
            let par = model().with_parallel(ParallelSpec::along_axis(&shape(), 2, axis));
            assert!(par.parallel.is_valid());
            let p_par = par.predict_tiles(&tiles);
            // Each core runs the tiling on a half-size slice with its own
            // private L1/L2, so per-core time at the private levels shrinks.
            for level in [TilingLevel::Register, TilingLevel::L1, TilingLevel::L2] {
                assert!(
                    p_par.scaled_cost(level) <= p_seq.scaled_cost(level) + 1e-9,
                    "axis {axis}, level {level}: {} vs sequential {}",
                    p_par.scaled_cost(level),
                    p_seq.scaled_cost(level)
                );
            }
            // Slicing loses cross-slice reuse: DRAM traffic summed over the
            // threads never drops below the sequential volume.
            assert!(
                p_par.volume(TilingLevel::L3) >= p_seq.volume(TilingLevel::L3) - 1e-9,
                "axis {axis}: {} vs sequential {}",
                p_par.volume(TilingLevel::L3),
                p_seq.volume(TilingLevel::L3)
            );
        }
    }

    #[test]
    fn multicore_capacity_constraint_tightens_only_the_shared_level() {
        let tiles = nested_tiles();
        let seq = model();
        let par = model().with_parallel(ParallelSpec::default_for(&shape(), 2));
        // Private levels keep their whole capacity (the tiny machine's L1/L2
        // are private; the nested tiles fit their slices unclamped).
        for level in [TilingLevel::Register, TilingLevel::L1] {
            assert_eq!(seq.capacity_slack(&tiles, level), par.capacity_slack(&tiles, level));
        }
        // The shared L3 is charged against a per-thread share of the cache.
        let cap = seq.machine.capacity(TilingLevel::L3) as f64;
        let share = seq.machine.capacity_per_thread(TilingLevel::L3, 2) as f64;
        assert!(share < cap);
        assert_eq!(
            seq.capacity_slack(&tiles, TilingLevel::L3),
            seq.footprint(&tiles, TilingLevel::L3) - cap
        );
        assert_eq!(
            par.capacity_slack(&tiles, TilingLevel::L3),
            par.footprint(&tiles, TilingLevel::L3) - share
        );
    }

    #[test]
    fn parallel_spec_validation() {
        let s = shape();
        let good = ParallelSpec::default_for(&s, 8);
        assert!(good.is_valid());
        assert_eq!(good.total(), 8);
        assert_eq!(good.axis(), ParallelAxis::OutputChannels);
        let rows = ParallelSpec::along_axis(&s, 8, ParallelAxis::OutputRows);
        assert!(rows.is_valid());
        assert_eq!(rows.total(), 8);
        assert_eq!(rows.axis(), ParallelAxis::OutputRows);
        assert!(rows.factor(LoopIndex::H) > 1);
        let mut bad = ParallelSpec::sequential();
        bad.threads = 4;
        assert!(!bad.is_valid());
        let mut reduction = ParallelSpec::default_for(&s, 2);
        reduction.factors[LoopIndex::C.canonical_position()] = 2;
        assert!(!reduction.is_valid());
    }

    #[test]
    fn cost_breakdown_matches_the_prediction_and_attributes_the_full_price() {
        let m = model();
        let s = shape();
        let mut cfg = TileConfig::untiled(&s);
        cfg.tiles[TilingLevel::Register.ordinal()] = TileSizes::from_array([1, 4, 1, 1, 1, 1, 4]);
        cfg.tiles[TilingLevel::L1.ordinal()] = TileSizes::from_array([1, 8, 4, 3, 3, 4, 7]);
        cfg.tiles[TilingLevel::L2.ordinal()] = TileSizes::from_array([1, 16, 8, 3, 3, 7, 14]);
        let cfg = cfg.normalized(&s);
        let prediction = m.predict_config(&cfg);
        let breakdown = m.cost_breakdown(&cfg);
        assert_eq!(breakdown.levels.len(), 4);
        assert_eq!(breakdown.bottleneck, prediction.bottleneck);
        assert_eq!(breakdown.total_cost, prediction.bottleneck_cost);
        assert_eq!(breakdown.flops, prediction.flops);
        for row in &breakdown.levels {
            assert_eq!(row.scaled_cost, prediction.scaled_cost(row.level));
            assert_eq!(row.volume_elems, prediction.volume(row.level));
            assert_eq!(row.slack_elems, row.footprint_elems - row.capacity_elems);
            assert_eq!(
                row.footprint_elems - row.capacity_elems,
                m.capacity_slack(&MultiLevelTiles::from_config(&cfg), row.level)
            );
        }
        // The attribution sums to the certified price exactly: the
        // bottleneck row carries it all, the others are literal zeros.
        assert_eq!(breakdown.attributed_total(), breakdown.total_cost);
        let nonzero: Vec<_> =
            breakdown.levels.iter().filter(|l| l.attributed_cost != 0.0).collect();
        assert_eq!(nonzero.len(), 1);
        assert_eq!(nonzero[0].level, breakdown.bottleneck);
    }

    #[test]
    fn predict_config_uses_configs_permutation() {
        let m = model();
        let s = shape();
        let mut cfg = TileConfig::untiled(&s);
        cfg.permutation = Permutation::parse("nkhwcrs").unwrap();
        cfg.tiles[TilingLevel::Register.ordinal()] = TileSizes::from_array([1, 8, 4, 1, 1, 4, 4]);
        cfg.tiles[TilingLevel::L1.ordinal()] = TileSizes::from_array([1, 16, 8, 3, 3, 7, 7]);
        cfg.tiles[TilingLevel::L2.ordinal()] = TileSizes::from_array([1, 32, 16, 3, 3, 14, 14]);
        let p = m.predict_config(&cfg);
        // Same volumes as a model constructed directly with that permutation.
        let m2 = MultiLevelModel::new(s, machine(), cfg.permutation.clone());
        let p2 = m2.predict_tiles(&MultiLevelTiles::from_config(&cfg));
        assert_eq!(p.volumes, p2.volumes);
    }

    #[test]
    fn depthwise_and_dilated_predictions_are_sane() {
        // The multi-level assembly must stay well-behaved on generalized
        // shapes: positive finite volumes that grow toward the core, and a
        // depthwise kernel volume 1/groups of the dense one at every level.
        for s in [
            ConvShape::depthwise(32, 30, 3, 1),
            ConvShape::new(1, 32, 16, 3, 3, 26, 26, 1).unwrap().with_dilation(2).unwrap(),
            ConvShape::new_general(1, 32, 16, 3, 3, 28, 28, 1, 1, 4).unwrap(),
        ] {
            let m = MultiLevelModel::new(s, machine(), Permutation::parse("kcrsnhw").unwrap());
            let tiles = MultiLevelTiles::full(&s);
            let p = m.predict_tiles(&tiles);
            for level in TilingLevel::ALL {
                assert!(
                    p.volume(level).is_finite() && p.volume(level) > 0.0,
                    "bad volume at {level} for {s}"
                );
            }
            assert!(p.volume(TilingLevel::Register) >= p.volume(TilingLevel::L3));
            assert!(p.bottleneck_cost.is_finite() && p.bottleneck_cost > 0.0);
            assert!(p.projected_gflops(&machine(), 1) > 0.0);
        }
    }

    #[test]
    fn model_rankings_correlate_with_tile_simulator() {
        // The model's figure of merit should broadly agree with the
        // tile-granularity traffic simulator on which of two configurations
        // moves less data at the outermost level.
        let s = ConvShape::new(1, 16, 16, 3, 3, 12, 12, 1).unwrap();
        let m = MultiLevelModel::new(s, machine(), Permutation::parse("kcrsnhw").unwrap());
        let good = TileConfig::new(
            Permutation::parse("kcrsnhw").unwrap(),
            [
                TileSizes::from_array([1, 4, 1, 1, 1, 1, 4]),
                TileSizes::from_array([1, 8, 4, 3, 3, 4, 6]),
                TileSizes::from_array([1, 16, 8, 3, 3, 6, 12]),
                TileSizes::from_array([1, 16, 16, 3, 3, 12, 12]),
            ],
            TileSizes::ones(),
        )
        .normalized(&s);
        let bad = TileConfig::new(
            Permutation::parse("kcrsnhw").unwrap(),
            [
                TileSizes::from_array([1, 1, 1, 1, 1, 1, 1]),
                TileSizes::from_array([1, 2, 1, 1, 1, 2, 2]),
                TileSizes::from_array([1, 2, 2, 1, 1, 2, 2]),
                TileSizes::from_array([1, 4, 2, 1, 1, 4, 4]),
            ],
            TileSizes::ones(),
        )
        .normalized(&s);
        let sim = cache_sim::TileTrafficSimulator::default();
        let model_good = m.predict_config(&good);
        let model_bad = m.predict_config(&bad);
        let sim_good = sim.simulate(&s, &good);
        let sim_bad = sim.simulate(&s, &bad);
        assert!(model_good.volume(TilingLevel::L3) < model_bad.volume(TilingLevel::L3));
        assert!(
            sim_good.volume(TilingLevel::L3) < sim_bad.volume(TilingLevel::L3),
            "simulator disagrees with model on an obvious pair"
        );
    }
}

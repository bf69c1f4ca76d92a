//! The tile-traffic simulator: the reproduction's stand-in for the hardware
//! counters the paper validates its model against (Sec. 9).
//!
//! [`TileTrafficSimulator`] walks the multi-level tiled loop nest at *tile*
//! granularity: for each pair of consecutive tiles at a given level it
//! computes the amount of new data that must be fetched, using the same "only
//! the immediately preceding tile's data is still resident" reasoning as the
//! paper's analytical model (Sec. 3), but evaluated numerically so partial
//! tiles, strides and arbitrary permutations are handled exactly. Its
//! [`DataMovement`] report — per-level volumes, bandwidth-scaled cost and the
//! roofline projection — is the "measured" axis of Figs. 5 and 6 and the
//! trial cost of the search-cost experiment.

use conv_spec::{
    ConvShape, LoopIndex, MachineModel, TileConfig, TileSizes, TilingLevel, ALL_INDICES,
};
use serde::{Deserialize, Serialize};

/// A hyper-rectangular region of the seven-dimensional iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileRegion {
    /// Start offset per loop index (canonical order).
    start: [usize; 7],
    /// Size per loop index (canonical order).
    size: [usize; 7],
}

impl TileRegion {
    /// The full iteration space of a problem shape.
    fn full(shape: &ConvShape) -> Self {
        TileRegion { start: [0; 7], size: shape.extents() }
    }

    /// Start offset for a loop index.
    fn start_of(&self, idx: LoopIndex) -> usize {
        self.start[idx.canonical_position()]
    }

    /// Size for a loop index.
    fn size_of(&self, idx: LoopIndex) -> usize {
        self.size[idx.canonical_position()]
    }
}

/// A half-open 1-D interval `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    start: usize,
    len: usize,
}

impl Interval {
    fn overlap(self, other: Interval) -> usize {
        let lo = self.start.max(other.start);
        let hi = (self.start + self.len).min(other.start + other.len);
        hi.saturating_sub(lo)
    }
}

/// The rectangular data slice of one tensor touched by a tile, expressed as
/// up to four independent intervals (one per tensor dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slice4 {
    dims: [Interval; 4],
}

impl Slice4 {
    fn volume(&self) -> usize {
        self.dims.iter().map(|d| d.len).product()
    }

    /// Volume of `self` not covered by `prev` (exact for axis-aligned boxes
    /// when at most the paper's partial-overlap patterns occur; in general a
    /// conservative inclusion–exclusion using the box intersection).
    fn new_volume(&self, prev: &Slice4) -> usize {
        let inter: usize =
            self.dims.iter().zip(prev.dims.iter()).map(|(a, b)| a.overlap(*b)).product();
        self.volume().saturating_sub(inter)
    }
}

fn output_slice(region: &TileRegion) -> Slice4 {
    Slice4 {
        dims: [
            Interval { start: region.start_of(LoopIndex::N), len: region.size_of(LoopIndex::N) },
            Interval { start: region.start_of(LoopIndex::K), len: region.size_of(LoopIndex::K) },
            Interval { start: region.start_of(LoopIndex::H), len: region.size_of(LoopIndex::H) },
            Interval { start: region.start_of(LoopIndex::W), len: region.size_of(LoopIndex::W) },
        ],
    }
}

fn kernel_slice(region: &TileRegion) -> Slice4 {
    Slice4 {
        dims: [
            Interval { start: region.start_of(LoopIndex::K), len: region.size_of(LoopIndex::K) },
            Interval { start: region.start_of(LoopIndex::C), len: region.size_of(LoopIndex::C) },
            Interval { start: region.start_of(LoopIndex::R), len: region.size_of(LoopIndex::R) },
            Interval { start: region.start_of(LoopIndex::S), len: region.size_of(LoopIndex::S) },
        ],
    }
}

/// The input-tensor bounding box of a tile region: the spatial window is the
/// dilated sliding-window span, and the channel interval covers the per-group
/// channel band(s) reached by the region's K range (a bounding interval when
/// the K range straddles several groups — consistent with the analytical
/// model's group-span over-approximation; exact for dense shapes).
fn input_slice(region: &TileRegion, shape: &ConvShape) -> Slice4 {
    let stride = shape.stride;
    let dil = shape.dilation;
    let h0 = region.start_of(LoopIndex::H);
    let hs = region.size_of(LoopIndex::H);
    let w0 = region.start_of(LoopIndex::W);
    let ws = region.size_of(LoopIndex::W);
    let r0 = region.start_of(LoopIndex::R);
    let rs = region.size_of(LoopIndex::R);
    let s0 = region.start_of(LoopIndex::S);
    let ss = region.size_of(LoopIndex::S);
    let row_start = h0 * stride + r0 * dil;
    let row_len = (hs - 1) * stride + (rs - 1) * dil + 1;
    let col_start = w0 * stride + s0 * dil;
    let col_len = (ws - 1) * stride + (ss - 1) * dil + 1;
    let c0 = region.start_of(LoopIndex::C);
    let cs = region.size_of(LoopIndex::C);
    let (ch_start, ch_len) = if shape.groups <= 1 {
        (c0, cs)
    } else {
        let cpg = shape.reduction_c();
        let k0 = region.start_of(LoopIndex::K);
        let ks = region.size_of(LoopIndex::K);
        let groups = shape.groups_spanned(k0, ks);
        let (g_lo, g_hi) = (*groups.start(), *groups.end());
        (g_lo * cpg + c0, (g_hi - g_lo) * cpg + cs)
    };
    Slice4 {
        dims: [
            Interval { start: region.start_of(LoopIndex::N), len: region.size_of(LoopIndex::N) },
            Interval { start: ch_start, len: ch_len },
            Interval { start: row_start, len: row_len },
            Interval { start: col_start, len: col_len },
        ],
    }
}

/// Walks the sequence of tiles of a target level, in execution order, for a
/// multi-level tiling configuration.
struct TileWalker<'a> {
    shape: &'a ConvShape,
    config: &'a TileConfig,
}

impl<'a> TileWalker<'a> {
    /// Create a walker for a shape and a (normalized) tiling configuration.
    fn new(shape: &'a ConvShape, config: &'a TileConfig) -> Self {
        TileWalker { shape, config }
    }

    /// The chain of tile-size vectors from the outermost level (L3) down to
    /// and including `target`.
    fn level_chain(&self, target: TilingLevel) -> Vec<TileSizes> {
        let mut chain = Vec::new();
        for lvl in [TilingLevel::L3, TilingLevel::L2, TilingLevel::L1, TilingLevel::Register] {
            chain.push(*self.config.level(lvl));
            if lvl == target {
                break;
            }
        }
        chain
    }

    /// Exact number of tiles of `target` level that the walk visits.
    fn tile_count(&self, target: TilingLevel) -> u128 {
        let chain = self.level_chain(target);
        let mut total: u128 = 1;
        for &idx in &ALL_INDICES {
            total *= count_along_dim(self.shape.extent(idx), &chain, 0, idx) as u128;
        }
        total
    }

    /// Visit tiles of `target` level in execution order. The callback returns
    /// `false` to stop early; the method returns the number of tiles visited.
    fn walk(&self, target: TilingLevel, mut visit: impl FnMut(&TileRegion) -> bool) -> u64 {
        let chain = self.level_chain(target);
        let full = TileRegion::full(self.shape);
        let mut visited = 0u64;
        self.walk_levels(&chain, &full, &mut visit, &mut visited);
        visited
    }

    fn walk_levels(
        &self,
        chain: &[TileSizes],
        enclosing: &TileRegion,
        visit: &mut impl FnMut(&TileRegion) -> bool,
        visited: &mut u64,
    ) -> bool {
        if chain.is_empty() {
            *visited += 1;
            return visit(enclosing);
        }
        let mut current = *enclosing;
        self.walk_dims(chain, enclosing, 0, &mut current, visit, visited)
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_dims(
        &self,
        chain: &[TileSizes],
        enclosing: &TileRegion,
        dim: usize,
        current: &mut TileRegion,
        visit: &mut impl FnMut(&TileRegion) -> bool,
        visited: &mut u64,
    ) -> bool {
        if dim == 7 {
            let sub = *current;
            return self.walk_levels(&chain[1..], &sub, visit, visited);
        }
        let idx = self.config.permutation.outer_to_inner()[dim];
        let pos = idx.canonical_position();
        let tile = chain[0].get(idx).max(1);
        let extent = enclosing.size[pos];
        let base = enclosing.start[pos];
        let mut off = 0;
        while off < extent {
            let sz = tile.min(extent - off);
            current.start[pos] = base + off;
            current.size[pos] = sz;
            if !self.walk_dims(chain, enclosing, dim + 1, current, visit, visited) {
                return false;
            }
            off += tile;
        }
        // Restore for the caller.
        current.start[pos] = enclosing.start[pos];
        current.size[pos] = enclosing.size[pos];
        true
    }
}

/// Number of tiles along a single dimension produced by a chain of nested
/// tile sizes subdividing an extent (exact with partial tiles).
fn count_along_dim(extent: usize, chain: &[TileSizes], level: usize, idx: LoopIndex) -> u64 {
    if level == chain.len() {
        return 1;
    }
    let tile = chain[level].get(idx).max(1);
    let mut total = 0u64;
    let mut off = 0;
    // All full tiles have the same sub-count; only the trailing partial tile
    // differs, so this loop runs at most twice worth of distinct work.
    let full_tiles = extent / tile;
    if full_tiles > 0 {
        total += full_tiles as u64 * count_along_dim(tile, chain, level + 1, idx);
        off = full_tiles * tile;
    }
    if off < extent {
        total += count_along_dim(extent - off, chain, level + 1, idx);
    }
    total
}

/// Per-level traffic statistics produced by the tile-granularity simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileTrafficStats {
    /// Elements fetched for the input tensor.
    pub input_elems: f64,
    /// Elements fetched for the kernel tensor.
    pub kernel_elems: f64,
    /// Elements fetched for the output tensor (an equal volume is written
    /// back, giving the paper's factor of 2 for `Out`).
    pub output_elems: f64,
    /// Number of tiles actually visited.
    pub tiles_visited: u64,
    /// Total tiles at this level; larger than `tiles_visited` when the walk
    /// was truncated by the sampling budget and the totals were extrapolated.
    pub tiles_total: u128,
}

impl TileTrafficStats {
    /// Total data volume in elements (output counted twice: read + write).
    pub fn total_volume(&self) -> f64 {
        self.input_elems + self.kernel_elems + 2.0 * self.output_elems
    }

    /// Whether the estimate was extrapolated from a truncated walk.
    pub fn sampled(&self) -> bool {
        (self.tiles_visited as u128) < self.tiles_total
    }
}

/// Tile-granularity traffic simulator for all four tiling levels.
#[derive(Debug, Clone)]
pub struct TileTrafficSimulator {
    /// Maximum number of tiles to visit per level before extrapolating.
    pub max_tiles_per_level: u64,
}

impl Default for TileTrafficSimulator {
    fn default() -> Self {
        TileTrafficSimulator { max_tiles_per_level: 2_000_000 }
    }
}

impl TileTrafficSimulator {
    /// Create a simulator with a per-level tile budget.
    pub fn new(max_tiles_per_level: u64) -> Self {
        TileTrafficSimulator { max_tiles_per_level }
    }

    /// Estimate the traffic feeding one tiling level.
    ///
    /// The walk is truncated at `max_tiles_per_level` tiles; when truncated,
    /// the measured traffic is extrapolated by the ratio of total to visited
    /// tiles (the traffic per tile is close to periodic across the sequence).
    pub fn level_traffic(
        &self,
        shape: &ConvShape,
        config: &TileConfig,
        level: TilingLevel,
    ) -> TileTrafficStats {
        let config = config.normalized(shape);
        let walker = TileWalker::new(shape, &config);
        let total = walker.tile_count(level);
        let budget = self.max_tiles_per_level.max(1);
        let mut prev: Option<(Slice4, Slice4, Slice4)> = None;
        let mut input = 0f64;
        let mut kernel = 0f64;
        let mut output = 0f64;
        let mut count = 0u64;
        let visited = walker.walk(level, |region| {
            let in_s = input_slice(region, shape);
            let ker_s = kernel_slice(region);
            let out_s = output_slice(region);
            match &prev {
                None => {
                    input += in_s.volume() as f64;
                    kernel += ker_s.volume() as f64;
                    output += out_s.volume() as f64;
                }
                Some((pin, pker, pout)) => {
                    input += in_s.new_volume(pin) as f64;
                    kernel += ker_s.new_volume(pker) as f64;
                    output += out_s.new_volume(pout) as f64;
                }
            }
            prev = Some((in_s, ker_s, out_s));
            count += 1;
            count < budget
        });
        let scale = if (visited as u128) < total && visited > 0 {
            total as f64 / visited as f64
        } else {
            1.0
        };
        TileTrafficStats {
            input_elems: input * scale,
            kernel_elems: kernel * scale,
            output_elems: output * scale,
            tiles_visited: visited,
            tiles_total: total,
        }
    }

    /// Estimate traffic at every tiling level and assemble a
    /// [`DataMovement`] report comparable to the analytical model's output.
    pub fn simulate(&self, shape: &ConvShape, config: &TileConfig) -> DataMovement {
        let mut dm = DataMovement::zero(shape.flops() as f64);
        for &level in &TilingLevel::ALL {
            let stats = self.level_traffic(shape, config, level);
            let t = dm.level_mut(level);
            t.inbound_elems = stats.input_elems + stats.kernel_elems + stats.output_elems;
            t.outbound_elems = stats.output_elems;
        }
        dm
    }
}

/// Traffic observed at one boundary of the memory hierarchy.
///
/// The boundary for a [`TilingLevel`] `l` is the link that *fills* the
/// storage holding the level-`l` tile: `Register` ↔ L1, `L1` ↔ L2,
/// `L2` ↔ L3, `L3` ↔ DRAM. This matches the paper's `DV_l` quantities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelTraffic {
    /// The tiling level whose fill traffic this records.
    pub level: TilingLevel,
    /// Elements moved *into* the level (loads / fills).
    pub inbound_elems: f64,
    /// Elements moved *out of* the level (stores / write-backs toward the
    /// slower side).
    pub outbound_elems: f64,
}

impl LevelTraffic {
    /// Total elements crossing the boundary in both directions.
    pub fn total(&self) -> f64 {
        self.inbound_elems + self.outbound_elems
    }
}

/// A complete per-level data-movement report for one conv2d execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataMovement {
    /// Traffic per level, indexed by [`TilingLevel::ordinal`].
    pub levels: [LevelTraffic; 4],
    /// Total floating point operations of the computation (for converting the
    /// bottleneck projection to GFLOPS).
    pub flops: f64,
}

impl DataMovement {
    /// A report with zero traffic everywhere.
    pub fn zero(flops: f64) -> Self {
        DataMovement {
            levels: [
                LevelTraffic {
                    level: TilingLevel::Register,
                    inbound_elems: 0.0,
                    outbound_elems: 0.0,
                },
                LevelTraffic { level: TilingLevel::L1, inbound_elems: 0.0, outbound_elems: 0.0 },
                LevelTraffic { level: TilingLevel::L2, inbound_elems: 0.0, outbound_elems: 0.0 },
                LevelTraffic { level: TilingLevel::L3, inbound_elems: 0.0, outbound_elems: 0.0 },
            ],
            flops,
        }
    }

    /// Traffic at a level.
    pub fn level(&self, level: TilingLevel) -> &LevelTraffic {
        &self.levels[level.ordinal()]
    }

    /// Mutable traffic at a level.
    pub fn level_mut(&mut self, level: TilingLevel) -> &mut LevelTraffic {
        &mut self.levels[level.ordinal()]
    }

    /// Total data volume (both directions) at a level, in elements — the
    /// `DV_l` of the paper.
    pub fn volume(&self, level: TilingLevel) -> f64 {
        self.level(level).total()
    }

    /// Bandwidth-scaled cost of a level: `DV_l / BW_l`, in cycles, at the
    /// bandwidth `threads` active threads fill the level with
    /// ([`MachineModel::fill_bandwidth_at`]); the volume is the whole chip's.
    pub fn scaled_cost(&self, level: TilingLevel, machine: &MachineModel, threads: usize) -> f64 {
        self.volume(level) / machine.fill_bandwidth_at(level, threads)
    }

    /// The bottleneck level and its bandwidth-scaled cost (cycles):
    /// `max_l DV_l / BW_l` (Sec. 5).
    pub fn bottleneck(&self, machine: &MachineModel, threads: usize) -> (TilingLevel, f64) {
        TilingLevel::ALL
            .iter()
            .map(|&l| (l, self.scaled_cost(l, machine, threads)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("four levels always present")
    }

    /// Projected performance in GFLOPS for the whole operator, over the
    /// larger of the bottleneck data-movement time and the pure compute time
    /// at peak FMA throughput ([`MachineModel::roofline`]).
    pub fn projected_gflops(&self, machine: &MachineModel, threads: usize) -> f64 {
        machine.roofline(self.flops, self.bottleneck(machine, threads).1, threads).1
    }
}

impl std::fmt::Display for DataMovement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DV[Reg]={:.3e} DV[L1]={:.3e} DV[L2]={:.3e} DV[L3]={:.3e}",
            self.volume(TilingLevel::Register),
            self.volume(TilingLevel::L1),
            self.volume(TilingLevel::L2),
            self.volume(TilingLevel::L3),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::Permutation;

    fn small_shape() -> ConvShape {
        ConvShape::new(1, 4, 3, 3, 3, 8, 8, 1).unwrap()
    }

    fn single_level_config(shape: &ConvShape, tiles: TileSizes, perm: &str) -> TileConfig {
        // Only the L3 level subdivides; inner levels equal the L3 tile so the
        // walk at L3 is the interesting one.
        TileConfig::new(
            Permutation::parse(perm).unwrap(),
            [tiles, tiles, tiles, tiles],
            TileSizes::ones(),
        )
        .normalized(shape)
    }

    #[test]
    fn tile_count_exact_with_partial_tiles() {
        let shape = small_shape();
        let tiles = TileSizes::from_array([1, 3, 3, 3, 3, 5, 8]);
        let cfg = single_level_config(&shape, tiles, "nkcrshw");
        let walker = TileWalker::new(&shape, &cfg);
        // k: ceil(4/3)=2, c:1, h: ceil(8/5)=2, others 1 → 4 tiles at L3.
        assert_eq!(walker.tile_count(TilingLevel::L3), 4);
        let mut seen = 0;
        walker.walk(TilingLevel::L3, |_| {
            seen += 1;
            true
        });
        assert_eq!(seen, 4);
    }

    #[test]
    fn walk_regions_partition_iteration_space() {
        let shape = small_shape();
        let tiles = TileSizes::from_array([1, 3, 2, 2, 3, 5, 3]);
        let cfg = single_level_config(&shape, tiles, "kcrsnhw");
        let walker = TileWalker::new(&shape, &cfg);
        let mut total_points = 0usize;
        walker.walk(TilingLevel::L3, |r| {
            total_points += r.size.iter().product::<usize>();
            true
        });
        assert_eq!(total_points, shape.macs());
    }

    #[test]
    fn untiled_config_moves_each_tensor_once() {
        let shape = small_shape();
        let cfg = TileConfig::untiled(&shape);
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        assert_eq!(stats.tiles_total, 1);
        assert_eq!(stats.input_elems, shape.input_elems() as f64);
        assert_eq!(stats.kernel_elems, shape.kernel_elems() as f64);
        assert_eq!(stats.output_elems, shape.output_elems() as f64);
        assert!(!stats.sampled());
    }

    #[test]
    fn innermost_w_reuses_kernel_but_not_output() {
        // With wt innermost, Ker slices are identical across consecutive wt
        // tiles (full reuse) while Out slices are disjoint. Matches Sec. 3.1.
        let shape = ConvShape::new(1, 4, 4, 1, 1, 8, 8, 1).unwrap();
        let tiles = TileSizes::from_array([1, 4, 4, 1, 1, 8, 2]); // only w tiled
        let cfg = single_level_config(&shape, tiles, "nkcrshw");
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        // 4 tiles along w; kernel fetched once, output fetched fully (disjoint).
        assert_eq!(stats.kernel_elems, shape.kernel_elems() as f64);
        assert_eq!(stats.output_elems, shape.output_elems() as f64);
        assert_eq!(stats.input_elems, shape.input_elems() as f64);
    }

    #[test]
    fn innermost_k_refetches_input_free_kernel_and_output_disjoint() {
        // Tile only k with kt innermost: In slice identical across kt tiles →
        // fetched once; Ker and Out disjoint per tile → fetched once in total.
        let shape = ConvShape::new(1, 8, 4, 1, 1, 4, 4, 1).unwrap();
        let tiles = TileSizes::from_array([1, 2, 4, 1, 1, 4, 4]);
        let cfg = single_level_config(&shape, tiles, "ncrshwk");
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        assert_eq!(stats.input_elems, shape.input_elems() as f64);
        assert_eq!(stats.kernel_elems, shape.kernel_elems() as f64);
        assert_eq!(stats.output_elems, shape.output_elems() as f64);
    }

    #[test]
    fn outer_present_loop_forces_refetch() {
        // Tile k and put kt OUTERMOST with ct innermost; now the In slice is
        // re-fetched for every kt tile because In has no k dimension but the
        // intermediate Ker/Out slices change → with only-adjacent-reuse, In
        // must be reloaded for each kt value except where adjacent.
        let shape = ConvShape::new(1, 8, 4, 1, 1, 4, 4, 1).unwrap();
        let tiles = TileSizes::from_array([1, 2, 2, 1, 1, 4, 4]);
        let cfg = single_level_config(&shape, tiles, "khwnrsc");
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        // 4 kt tiles; within each, 2 ct tiles with disjoint In slices; between
        // kt steps the In slice repeats but adjacency is broken only if the
        // last ct tile of one kt equals the first of the next (it does not:
        // c goes 0..2 then wraps to 0..2, so the last slice c∈[2,4) differs
        // from the next first slice c∈[0,2)). Hence In is fetched 4*2 times
        // its half-size = 4 * input_elems... except adjacent wrap: compute:
        let expected_in = 4.0 * shape.input_elems() as f64;
        assert_eq!(stats.input_elems, expected_in);
        // Ker fetched exactly once in total (each (k,c) block distinct).
        assert_eq!(stats.kernel_elems, shape.kernel_elems() as f64);
    }

    #[test]
    fn input_overlap_partial_reuse_along_h() {
        // 3x3 kernel, tiles along h: consecutive h tiles overlap by (r-1) rows
        // of the input; the simulator must count only the new rows.
        let shape = ConvShape::new(1, 1, 1, 3, 3, 6, 6, 1).unwrap();
        let tiles = TileSizes::from_array([1, 1, 1, 3, 3, 2, 6]);
        let cfg = single_level_config(&shape, tiles, "nkcrswh");
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        // First tile: rows 0..4 (4 rows). Each next tile adds 2 new rows.
        // 3 tiles → 4 + 2 + 2 = 8 rows = input_h; cols always 8.
        assert_eq!(stats.input_elems, (shape.input_h() * shape.input_w()) as f64);
    }

    #[test]
    fn stride_two_input_slices() {
        let shape = ConvShape::from_table1(2, 1, 9, 3, 2); // output 4x4
        let region = TileRegion::full(&shape);
        let s = input_slice(&region, &shape);
        assert_eq!(s.dims[2].len, (4 - 1) * 2 + 3);
        assert_eq!(s.volume(), 9 * 9);
    }

    #[test]
    fn dilated_input_slice_spans_the_wider_window() {
        let shape = ConvShape::from_table1_dilated(2, 1, 11, 3, 1, 2); // eff 5, out 7x7
        let region = TileRegion::full(&shape);
        let s = input_slice(&region, &shape);
        assert_eq!(s.dims[2].len, (7 - 1) + (3 - 1) * 2 + 1);
        assert_eq!(s.volume(), 11 * 11);
    }

    #[test]
    fn grouped_input_slice_covers_spanned_channel_bands() {
        let shape = ConvShape::new_general(1, 8, 8, 1, 1, 4, 4, 1, 1, 4).unwrap();
        // Full region: all 4 groups → all 8 channels.
        let full = TileRegion::full(&shape);
        assert_eq!(input_slice(&full, &shape).dims[1].len, 8);
        // A region covering k = 2..4 (group 1 only) → channels 2..4.
        let mut sub = full;
        sub.start[LoopIndex::K.canonical_position()] = 2;
        sub.size[LoopIndex::K.canonical_position()] = 2;
        let s = input_slice(&sub, &shape);
        assert_eq!((s.dims[1].start, s.dims[1].len), (2, 2));
    }

    #[test]
    fn depthwise_untiled_traffic_matches_tensor_sizes() {
        let shape = ConvShape::depthwise(8, 10, 3, 1);
        let cfg = TileConfig::untiled(&shape);
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        assert_eq!(stats.input_elems, shape.input_elems() as f64);
        assert_eq!(stats.kernel_elems, shape.kernel_elems() as f64);
        assert_eq!(stats.output_elems, shape.output_elems() as f64);
    }

    #[test]
    fn multi_level_volumes_are_monotone_outward() {
        // Traffic feeding an inner level is at least the traffic feeding an
        // outer level (inner tiles are smaller → more refetches).
        let shape = ConvShape::new(1, 16, 16, 3, 3, 12, 12, 1).unwrap();
        let cfg = TileConfig::new(
            Permutation::parse("kcrsnhw").unwrap(),
            [
                TileSizes::from_array([1, 4, 2, 1, 1, 2, 4]),
                TileSizes::from_array([1, 8, 4, 3, 3, 4, 6]),
                TileSizes::from_array([1, 8, 8, 3, 3, 6, 12]),
                TileSizes::from_array([1, 16, 16, 3, 3, 12, 12]),
            ],
            TileSizes::ones(),
        )
        .normalized(&shape);
        let sim = TileTrafficSimulator::default();
        let dm = sim.simulate(&shape, &cfg);
        let reg = dm.volume(TilingLevel::Register);
        let l1 = dm.volume(TilingLevel::L1);
        let l2 = dm.volume(TilingLevel::L2);
        let l3 = dm.volume(TilingLevel::L3);
        assert!(reg >= l1 && l1 >= l2 && l2 >= l3, "reg={reg} l1={l1} l2={l2} l3={l3}");
        assert!(
            l3 >= (shape.input_elems() + shape.kernel_elems() + 2 * shape.output_elems()) as f64
                - 1.0
        );
    }

    #[test]
    fn sampling_budget_extrapolates() {
        let shape = ConvShape::new(1, 16, 16, 3, 3, 12, 12, 1).unwrap();
        let cfg = TileConfig::new(
            Permutation::canonical(),
            [
                TileSizes::from_array([1, 2, 2, 1, 1, 2, 2]),
                TileSizes::from_array([1, 4, 4, 3, 3, 4, 4]),
                TileSizes::from_array([1, 8, 8, 3, 3, 8, 8]),
                TileSizes::from_array([1, 16, 16, 3, 3, 12, 12]),
            ],
            TileSizes::ones(),
        )
        .normalized(&shape);
        let exact =
            TileTrafficSimulator::new(u64::MAX).level_traffic(&shape, &cfg, TilingLevel::Register);
        let sampled =
            TileTrafficSimulator::new(500).level_traffic(&shape, &cfg, TilingLevel::Register);
        assert!(sampled.sampled());
        assert!(!exact.sampled());
        let rel = (sampled.total_volume() - exact.total_volume()).abs() / exact.total_volume();
        assert!(rel < 0.35, "extrapolation error too large: {rel}");
    }

    fn sample() -> DataMovement {
        let mut dm = DataMovement::zero(1_000_000.0);
        dm.level_mut(TilingLevel::Register).inbound_elems = 4e5;
        dm.level_mut(TilingLevel::Register).outbound_elems = 1e5;
        dm.level_mut(TilingLevel::L1).inbound_elems = 2e5;
        dm.level_mut(TilingLevel::L2).inbound_elems = 1e5;
        dm.level_mut(TilingLevel::L3).inbound_elems = 5e4;
        dm
    }

    #[test]
    fn volumes_sum_directions() {
        let dm = sample();
        assert_eq!(dm.volume(TilingLevel::Register), 5e5);
        assert_eq!(dm.volume(TilingLevel::L1), 2e5);
        assert_eq!(dm.level(TilingLevel::L3).total(), 5e4);
    }

    #[test]
    fn bottleneck_picks_max_scaled_cost() {
        let m = MachineModel::tiny_test_machine();
        let dm = sample();
        // single thread: Reg: 5e5/8, L1: 2e5/4, L2: 1e5/2, L3: 5e4/1
        let (lvl, cost) = dm.bottleneck(&m, 1);
        assert_eq!(lvl, TilingLevel::Register);
        assert!((cost - 5e5 / 8.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_scaling_divides_private_levels_only() {
        let m = MachineModel::tiny_test_machine();
        let dm = sample();
        let reg1 = dm.scaled_cost(TilingLevel::Register, &m, 1);
        let reg2 = dm.scaled_cost(TilingLevel::Register, &m, 2);
        assert!((reg1 / reg2 - 2.0).abs() < 1e-9);
        let l3_1 = dm.scaled_cost(TilingLevel::L3, &m, 1);
        let l3_2 = dm.scaled_cost(TilingLevel::L3, &m, 2);
        assert!((l3_1 - l3_2).abs() < 1e-9);
    }

    #[test]
    fn projection_respects_compute_bound() {
        let m = MachineModel::tiny_test_machine();
        // Tiny data movement, large FLOPs: compute bound, at the tiny
        // machine's peak of 4 FMAs (8 flops) per 1 GHz cycle.
        let dm = DataMovement::zero(1e9);
        assert_eq!(dm.projected_gflops(&m, 1), 8.0);
    }

    #[test]
    fn projection_memory_bound_case() {
        let m = MachineModel::tiny_test_machine();
        let mut dm = DataMovement::zero(100.0);
        dm.level_mut(TilingLevel::L3).inbound_elems = 1e6;
        let (lvl, cost) = dm.bottleneck(&m, 2);
        assert_eq!(lvl, TilingLevel::L3);
        assert!(cost >= 1e6 / m.dram_bandwidth);
        assert!(dm.projected_gflops(&m, 2) < dm.flops / cost * m.clock_ghz * (1.0 + 1e-12));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", sample()).is_empty());
    }
}

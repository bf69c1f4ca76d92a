//! Tile-size vectors and multi-level tiling configurations.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::layout::LayoutConfig;
use crate::shape::{ConvShape, LoopIndex, Permutation, ALL_INDICES};
use crate::SpecError;

/// Number of tiling levels used by the full MOpt formulation:
/// register tile, L1, L2, L3 (Sec. 5 / Algorithm 1).
pub const NUM_TILING_LEVELS: usize = 4;

/// A level of the tiling hierarchy, innermost (registers) first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TilingLevel {
    /// Register tile (the microkernel footprint).
    Register,
    /// L1-cache tile.
    L1,
    /// L2-cache tile.
    L2,
    /// L3-cache tile.
    L3,
}

impl TilingLevel {
    /// All levels from innermost (Register) to outermost (L3).
    pub const ALL: [TilingLevel; NUM_TILING_LEVELS] =
        [TilingLevel::Register, TilingLevel::L1, TilingLevel::L2, TilingLevel::L3];

    /// Zero-based position, Register = 0 ... L3 = 3.
    pub fn ordinal(self) -> usize {
        match self {
            TilingLevel::Register => 0,
            TilingLevel::L1 => 1,
            TilingLevel::L2 => 2,
            TilingLevel::L3 => 3,
        }
    }

    /// The next outer level, if any.
    pub fn outer(self) -> Option<TilingLevel> {
        match self {
            TilingLevel::Register => Some(TilingLevel::L1),
            TilingLevel::L1 => Some(TilingLevel::L2),
            TilingLevel::L2 => Some(TilingLevel::L3),
            TilingLevel::L3 => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TilingLevel::Register => "Reg",
            TilingLevel::L1 => "L1",
            TilingLevel::L2 => "L2",
            TilingLevel::L3 => "L3",
        }
    }
}

impl std::fmt::Display for TilingLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which loop dimension a schedule partitions across threads (Sec. 7).
///
/// Parallelism is restricted to non-reduction dimensions so threads never
/// write the same output element. The two axes the paper's generated code
/// uses are the output-channel dimension `k` and the `n·h` output rows; the
/// optimizer searches both jointly with the tile sizes and records the
/// winner in [`TileConfig::parallel`]'s per-dimension factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParallelAxis {
    /// Partition the `k` (output channel) dimension across threads.
    OutputChannels,
    /// Partition the `n·h` output rows across threads.
    OutputRows,
}

impl ParallelAxis {
    /// Both searchable axes.
    pub const ALL: [ParallelAxis; 2] = [ParallelAxis::OutputChannels, ParallelAxis::OutputRows];

    /// The non-reduction dimensions this axis prefers to split, most
    /// preferred first. Later entries absorb thread counts the leading
    /// dimension's extent cannot.
    pub fn priority(self) -> [LoopIndex; 4] {
        match self {
            ParallelAxis::OutputChannels => {
                [LoopIndex::K, LoopIndex::H, LoopIndex::W, LoopIndex::N]
            }
            ParallelAxis::OutputRows => [LoopIndex::H, LoopIndex::N, LoopIndex::W, LoopIndex::K],
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ParallelAxis::OutputChannels => "k",
            ParallelAxis::OutputRows => "rows",
        }
    }
}

impl std::fmt::Display for ParallelAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A vector of seven tile sizes, one per loop index, for one tiling level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileSizes {
    sizes: [usize; 7],
}

impl TileSizes {
    /// Tile sizes from an array in canonical `[n, k, c, r, s, h, w]` order.
    pub fn from_array(sizes: [usize; 7]) -> Self {
        TileSizes { sizes }
    }

    /// All tile sizes equal to 1.
    pub fn ones() -> Self {
        TileSizes { sizes: [1; 7] }
    }

    /// Tile sizes equal to the full problem extents ("untiled").
    pub fn full(shape: &ConvShape) -> Self {
        TileSizes { sizes: shape.extents() }
    }

    /// The tile size for a given loop index.
    pub fn get(&self, idx: LoopIndex) -> usize {
        self.sizes[idx.canonical_position()]
    }

    /// Set the tile size for a given loop index.
    pub fn set(&mut self, idx: LoopIndex, value: usize) {
        self.sizes[idx.canonical_position()] = value;
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, idx: LoopIndex, value: usize) -> Self {
        self.set(idx, value);
        self
    }

    /// Tile sizes in canonical order.
    pub fn as_array(&self) -> [usize; 7] {
        self.sizes
    }

    /// Validate tile sizes against an enclosing extent vector (either the
    /// problem extents or the next-outer level's tile sizes).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidTileSize`] if any tile size is zero or
    /// exceeds the corresponding extent.
    pub fn validate(&self, enclosing: &[usize; 7]) -> Result<(), SpecError> {
        for &idx in &ALL_INDICES {
            let t = self.get(idx);
            let e = enclosing[idx.canonical_position()];
            if t == 0 || t > e {
                return Err(SpecError::InvalidTileSize { index: idx, tile: t, extent: e });
            }
        }
        Ok(())
    }

    /// The data footprint (in elements) of one tile of the three tensors, as
    /// used in the paper's capacity constraint (Eq. 4):
    ///
    /// `Tn*Tc*(Th+Tr-1)*(Tw+Ts-1) + Tk*Tc*Tr*Ts + Tn*Tk*Th*Tw`
    ///
    /// generalized for the shape's stride, dilation, and groups: the input
    /// slice spans `(Th-1)*stride + (Tr-1)*dilation + 1` rows (similarly for
    /// columns), and when the K tile spans several channel groups the input
    /// slice covers one per-group channel band per spanned group.
    pub fn footprint(&self, shape: &ConvShape) -> usize {
        self.input_footprint(shape) + self.kernel_footprint() + self.output_footprint()
    }

    /// Halve the largest of the `order` tile sizes (ties go to the earliest
    /// in `order`) until the [`footprint`](Self::footprint) is at most
    /// `capacity`. Returns whether it is: `false` when every one of them is
    /// down to 1, or after 64 halvings, with the footprint still above.
    pub fn halve_to_fit(
        &mut self,
        shape: &ConvShape,
        capacity: usize,
        order: [LoopIndex; 4],
    ) -> bool {
        for _ in 0..64 {
            if self.footprint(shape) <= capacity {
                return true;
            }
            let mut largest = order[0];
            for idx in order {
                if self.get(idx) > self.get(largest) {
                    largest = idx;
                }
            }
            if self.get(largest) <= 1 {
                return false;
            }
            self.set(largest, self.get(largest) / 2);
        }
        self.footprint(shape) <= capacity
    }

    /// Footprint of the input-tensor slice accessed by one tile.
    pub fn input_footprint(&self, shape: &ConvShape) -> usize {
        let th = self.get(LoopIndex::H);
        let tw = self.get(LoopIndex::W);
        let tr = self.get(LoopIndex::R);
        let ts = self.get(LoopIndex::S);
        let in_h = (th - 1) * shape.stride + (tr - 1) * shape.dilation + 1;
        let in_w = (tw - 1) * shape.stride + (ts - 1) * shape.dilation + 1;
        let span = self.group_span(shape);
        self.get(LoopIndex::N) * self.get(LoopIndex::C) * span * in_h * in_w
    }

    /// Number of channel groups a K tile of this size can span (1 for dense
    /// shapes): `ceil(Tk / (K/groups))`, capped at the group count.
    pub fn group_span(&self, shape: &ConvShape) -> usize {
        if shape.groups <= 1 {
            return 1;
        }
        let k_per_group = shape.k_per_group().max(1);
        self.get(LoopIndex::K).div_ceil(k_per_group).clamp(1, shape.groups)
    }

    /// Footprint of the kernel-tensor slice accessed by one tile.
    pub fn kernel_footprint(&self) -> usize {
        self.get(LoopIndex::K)
            * self.get(LoopIndex::C)
            * self.get(LoopIndex::R)
            * self.get(LoopIndex::S)
    }

    /// Footprint of the output-tensor slice accessed by one tile.
    pub fn output_footprint(&self) -> usize {
        self.get(LoopIndex::N)
            * self.get(LoopIndex::K)
            * self.get(LoopIndex::H)
            * self.get(LoopIndex::W)
    }

    /// Number of tiles (product over indices of `ceil(extent/tile)`) when this
    /// tile vector subdivides `enclosing`.
    pub fn tile_count(&self, enclosing: &[usize; 7]) -> usize {
        ALL_INDICES
            .iter()
            .map(|&idx| {
                let e = enclosing[idx.canonical_position()];
                let t = self.get(idx).max(1);
                e.div_ceil(t)
            })
            .product()
    }

    /// Element-wise minimum with an extent vector (useful to cap tiles at the
    /// problem size).
    pub fn min_with(&self, enclosing: &[usize; 7]) -> TileSizes {
        let mut out = *self;
        for &idx in &ALL_INDICES {
            let e = enclosing[idx.canonical_position()];
            out.set(idx, out.get(idx).min(e).max(1));
        }
        out
    }
}

impl Default for TileSizes {
    fn default() -> Self {
        TileSizes::ones()
    }
}

impl std::fmt::Display for TileSizes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[n{} k{} c{} r{} s{} h{} w{}]",
            self.sizes[0],
            self.sizes[1],
            self.sizes[2],
            self.sizes[3],
            self.sizes[4],
            self.sizes[5],
            self.sizes[6]
        )
    }
}

/// A complete multi-level tiling configuration for one conv2d operator:
/// one permutation and one [`TileSizes`] vector per tiling level, plus the
/// degree of parallelism assigned to each non-reduction dimension at the L2
/// level (Sec. 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileConfig {
    /// The tile-loop permutation (shared across levels, as in the paper's
    /// per-class formulation; each level may use any member of the class).
    pub permutation: Permutation,
    /// Tile sizes per level, indexed by [`TilingLevel::ordinal`]:
    /// `[register, l1, l2, l3]`.
    pub tiles: [TileSizes; NUM_TILING_LEVELS],
    /// Parallelization factors per loop index (how many threads split this
    /// dimension at the L2-tile level). Product must equal the thread count.
    pub parallel: TileSizes,
    /// Per-tensor data layouts this schedule was planned (and is executed)
    /// under. Defaults to the paper's fixed layouts; schedules serialized
    /// before the layout axis existed deserialize to that default.
    pub layout: LayoutConfig,
}

impl Serialize for TileConfig {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) {
        sink.begin_object();
        sink.field("permutation", &self.permutation);
        sink.field("tiles", &self.tiles);
        sink.field("parallel", &self.parallel);
        // The default layout is omitted, not written: database page
        // checksums cover the *re-serialized* record list, so a pre-layout
        // schedule must serialize byte-identically to its pre-layout form or
        // every legacy page would read back as corrupt.
        if !self.layout.is_default() {
            sink.field("layout", &self.layout);
        }
        sink.end_object();
    }
}

impl Deserialize for TileConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v.as_object().ok_or_else(|| DeError::custom("TileConfig: expected object"))?;
        let permutation: Permutation = serde::de_field(pairs, "permutation", "TileConfig")?;
        let tiles: [TileSizes; NUM_TILING_LEVELS] = serde::de_field(pairs, "tiles", "TileConfig")?;
        let parallel: TileSizes = serde::de_field(pairs, "parallel", "TileConfig")?;
        // Pre-layout schedules have no `layout` field: the paper default.
        let layout = match pairs.iter().find(|(k, _)| k == "layout").map(|(_, val)| val) {
            None | Some(Value::Null) => LayoutConfig::default(),
            Some(val) => LayoutConfig::from_value(val)?,
        };
        Ok(TileConfig { permutation, tiles, parallel, layout })
    }
}

impl TileConfig {
    /// A configuration with all tile sizes equal to the full problem extents
    /// and no parallelism (single thread).
    pub fn untiled(shape: &ConvShape) -> Self {
        TileConfig {
            permutation: Permutation::canonical(),
            tiles: [TileSizes::full(shape); NUM_TILING_LEVELS],
            parallel: TileSizes::ones(),
            layout: LayoutConfig::default(),
        }
    }

    /// Construct from explicit parts (paper-default layouts).
    pub fn new(
        permutation: Permutation,
        tiles: [TileSizes; NUM_TILING_LEVELS],
        parallel: TileSizes,
    ) -> Self {
        TileConfig { permutation, tiles, parallel, layout: LayoutConfig::default() }
    }

    /// Builder: the same schedule under different tensor layouts.
    pub fn with_layout(mut self, layout: LayoutConfig) -> Self {
        self.layout = layout;
        self
    }

    /// Tile sizes for a level.
    pub fn level(&self, level: TilingLevel) -> &TileSizes {
        &self.tiles[level.ordinal()]
    }

    /// Mutable tile sizes for a level.
    pub fn level_mut(&mut self, level: TilingLevel) -> &mut TileSizes {
        &mut self.tiles[level.ordinal()]
    }

    /// Total number of threads implied by the parallelization factors.
    pub fn total_parallelism(&self) -> usize {
        ALL_INDICES.iter().map(|&i| self.parallel.get(i)).product()
    }

    /// The schedule's parallel axis, derived from the per-dimension factors:
    /// [`ParallelAxis::OutputRows`] when the `n·h` split is wider than the
    /// `k` split, [`ParallelAxis::OutputChannels`] otherwise (including the
    /// sequential case, where every factor is 1).
    pub fn parallel_axis(&self) -> ParallelAxis {
        let rows = self.parallel.get(LoopIndex::N) * self.parallel.get(LoopIndex::H);
        if rows > self.parallel.get(LoopIndex::K) {
            ParallelAxis::OutputRows
        } else {
            ParallelAxis::OutputChannels
        }
    }

    /// Validate nesting: `register ⊆ l1 ⊆ l2 ⊆ l3 ⊆ shape`, all non-zero.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`SpecError::InvalidTileSize`].
    pub fn validate(&self, shape: &ConvShape) -> Result<(), SpecError> {
        let ext = shape.extents();
        self.tiles[TilingLevel::L3.ordinal()].validate(&ext)?;
        for lvl in [TilingLevel::L2, TilingLevel::L1, TilingLevel::Register] {
            let outer = self.tiles[lvl.ordinal() + 1].as_array();
            self.tiles[lvl.ordinal()].validate(&outer)?;
        }
        Ok(())
    }

    /// Return a copy with every level clamped so the nesting invariant holds
    /// (each level is element-wise ≤ the next outer level, which is ≤ the
    /// problem extents).
    pub fn normalized(&self, shape: &ConvShape) -> TileConfig {
        let mut out = self.clone();
        let ext = shape.extents();
        out.tiles[TilingLevel::L3.ordinal()] = out.tiles[TilingLevel::L3.ordinal()].min_with(&ext);
        for lvl in [TilingLevel::L2, TilingLevel::L1, TilingLevel::Register] {
            let outer = out.tiles[lvl.ordinal() + 1].as_array();
            out.tiles[lvl.ordinal()] = out.tiles[lvl.ordinal()].min_with(&outer);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::new(1, 16, 8, 3, 3, 14, 14, 1).unwrap()
    }

    #[test]
    fn tile_levels_order_and_outer() {
        assert_eq!(TilingLevel::Register.ordinal(), 0);
        assert_eq!(TilingLevel::L3.ordinal(), 3);
        assert_eq!(TilingLevel::Register.outer(), Some(TilingLevel::L1));
        assert_eq!(TilingLevel::L3.outer(), None);
        assert_eq!(TilingLevel::ALL.len(), NUM_TILING_LEVELS);
    }

    #[test]
    fn footprint_matches_eq4() {
        let s = ConvShape::new(2, 16, 8, 3, 3, 14, 14, 1).unwrap();
        let t = TileSizes::from_array([2, 4, 3, 3, 3, 5, 6]);
        // In: Tn*Tc*(Th+Tr-1)*(Tw+Ts-1) = 2*3*7*8 = 336
        assert_eq!(t.input_footprint(&s), 2 * 3 * (5 + 3 - 1) * (6 + 3 - 1));
        // Ker: Tk*Tc*Tr*Ts = 4*3*3*3 = 108
        assert_eq!(t.kernel_footprint(), 4 * 3 * 3 * 3);
        // Out: Tn*Tk*Th*Tw = 2*4*5*6 = 240
        assert_eq!(t.output_footprint(), 2 * 4 * 5 * 6);
        assert_eq!(t.footprint(&s), 336 + 108 + 240);
    }

    #[test]
    fn halve_to_fit_halves_the_largest_and_breaks_ties_by_order() {
        let s = ConvShape::new(1, 16, 16, 3, 3, 16, 16, 1).unwrap();
        let (kchw, ckhw) = (
            [LoopIndex::K, LoopIndex::C, LoopIndex::H, LoopIndex::W],
            [LoopIndex::C, LoopIndex::K, LoopIndex::H, LoopIndex::W],
        );
        // Already fitting: untouched.
        let mut t = TileSizes::full(&s);
        assert!(t.halve_to_fit(&s, t.footprint(&s), kchw));
        assert_eq!(t, TileSizes::full(&s));
        // One halving suffices; K, C, H and W tie at 16 and the order decides.
        let budget = TileSizes::full(&s).footprint(&s) - 1;
        let mut k_first = TileSizes::full(&s);
        assert!(k_first.halve_to_fit(&s, budget, kchw));
        assert_eq!(k_first, TileSizes::full(&s).with(LoopIndex::K, 8));
        let mut c_first = TileSizes::full(&s);
        assert!(c_first.halve_to_fit(&s, budget, ckhw));
        assert_eq!(c_first, TileSizes::full(&s).with(LoopIndex::C, 8));
        // Nothing fits: every ordered size ends at 1, the others are kept.
        let mut none = TileSizes::full(&s);
        assert!(!none.halve_to_fit(&s, 0, kchw));
        assert_eq!(none.as_array(), [1, 1, 1, 3, 3, 1, 1]);
    }

    #[test]
    fn footprint_with_stride_two() {
        let s = ConvShape::from_table1(1, 1, 9, 3, 2);
        let t = TileSizes::from_array([1, 1, 1, 3, 3, 4, 4]);
        // input rows = (4-1)*2 + 3 = 9
        assert_eq!(t.input_footprint(&s), 9 * 9);
    }

    #[test]
    fn footprint_with_dilation_widens_the_halo() {
        let dense = ConvShape::new(1, 4, 4, 3, 3, 8, 8, 1).unwrap();
        let dilated = dense.with_dilation(2).unwrap();
        let t = TileSizes::from_array([1, 2, 2, 3, 3, 4, 4]);
        // Dense rows: (4-1)*1 + 3 = 6; dilated rows: (4-1)*1 + (3-1)*2+1 = 8.
        assert_eq!(t.input_footprint(&dense), 2 * 6 * 6);
        assert_eq!(t.input_footprint(&dilated), 2 * 8 * 8);
        assert!(t.footprint(&dilated) > t.footprint(&dense));
    }

    #[test]
    fn footprint_group_span_counts_spanned_groups() {
        let grouped = ConvShape::new_general(1, 16, 8, 3, 3, 8, 8, 1, 1, 4).unwrap();
        // k_per_group = 4. A K tile of 4 stays in one group, 5 spans two,
        // 16 spans all four.
        let base = TileSizes::from_array([1, 4, 2, 3, 3, 4, 4]);
        assert_eq!(base.group_span(&grouped), 1);
        assert_eq!(base.with(LoopIndex::K, 5).group_span(&grouped), 2);
        assert_eq!(base.with(LoopIndex::K, 16).group_span(&grouped), 4);
        // Input footprint scales with the spanned groups.
        let one = base.input_footprint(&grouped);
        let all = base.with(LoopIndex::K, 16).input_footprint(&grouped);
        assert_eq!(all, one * 4);
        // Dense shapes always span one "group".
        let dense = ConvShape::new(1, 16, 8, 3, 3, 8, 8, 1).unwrap();
        assert_eq!(base.with(LoopIndex::K, 16).group_span(&dense), 1);
    }

    #[test]
    fn validate_rejects_oversized_and_zero() {
        let s = shape();
        let ext = s.extents();
        assert!(TileSizes::from_array([1, 1, 1, 1, 1, 1, 1]).validate(&ext).is_ok());
        assert!(TileSizes::full(&s).validate(&ext).is_ok());
        assert!(TileSizes::from_array([2, 1, 1, 1, 1, 1, 1]).validate(&ext).is_err());
        assert!(TileSizes::from_array([1, 0, 1, 1, 1, 1, 1]).validate(&ext).is_err());
    }

    #[test]
    fn tile_count_uses_ceiling_division() {
        let s = shape();
        let t = TileSizes::from_array([1, 5, 8, 3, 3, 4, 14]);
        // k: ceil(16/5)=4, h: ceil(14/4)=4, others 1
        assert_eq!(t.tile_count(&s.extents()), 4 * 4);
    }

    #[test]
    fn config_validate_checks_nesting() {
        let s = shape();
        let mut cfg = TileConfig::untiled(&s);
        assert!(cfg.validate(&s).is_ok());
        // Make register tile larger than L1 tile: invalid.
        cfg.tiles[TilingLevel::L1.ordinal()] = TileSizes::ones();
        assert!(cfg.validate(&s).is_err());
        // Normalizing repairs the nesting.
        let fixed = cfg.normalized(&s);
        assert!(fixed.validate(&s).is_ok());
    }

    #[test]
    fn total_parallelism_is_product() {
        let s = shape();
        let mut cfg = TileConfig::untiled(&s);
        cfg.parallel = TileSizes::ones().with(LoopIndex::K, 4).with(LoopIndex::H, 2);
        assert_eq!(cfg.total_parallelism(), 8);
    }

    #[test]
    fn parallel_axis_is_derived_from_the_factors() {
        let s = shape();
        let mut cfg = TileConfig::untiled(&s);
        // Sequential configurations default to the output-channel axis.
        assert_eq!(cfg.parallel_axis(), ParallelAxis::OutputChannels);
        cfg.parallel = TileSizes::ones().with(LoopIndex::K, 8);
        assert_eq!(cfg.parallel_axis(), ParallelAxis::OutputChannels);
        cfg.parallel = TileSizes::ones().with(LoopIndex::H, 4).with(LoopIndex::N, 2);
        assert_eq!(cfg.parallel_axis(), ParallelAxis::OutputRows);
        // Axis priorities lead with their namesake dimension.
        assert_eq!(ParallelAxis::OutputChannels.priority()[0], LoopIndex::K);
        assert_eq!(ParallelAxis::OutputRows.priority()[0], LoopIndex::H);
        assert_eq!(ParallelAxis::ALL.len(), 2);
        assert_eq!(format!("{}", ParallelAxis::OutputRows), "rows");
    }
}

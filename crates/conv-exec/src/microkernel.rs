//! The tile microkernel.
//!
//! The paper's executor (Sec. 6) is a *fixed* register-tiled microkernel — an
//! output block held in vector registers while input pixels are broadcast and
//! packed kernel vectors stream through FMAs — under tile loops the model
//! chooses. `TileKernel` is that kernel for the tiles of the output loops
//! ([`crate::tiled`] hands it each one together with the trailing run of
//! `c`/`r`/`s` tile loops below the last `n`/`k`/`h`/`w` loop):
//!
//! 1. It builds the tile's **tap list**: the `(input offset, packed-kernel
//!    offset)` of every `(c, r, s)` of the tile, in the order the schedule
//!    visits them — the L1 tiles the trailing loops cut it into, in loop
//!    order; inside each, register-tile loops over `c`/`r`/`s` in the
//!    permutation's relative order, then `c`, `r`, `s` ascending inside a
//!    register tile. The schedule therefore still fixes the floating-point
//!    order of every output element; how the *outputs* are blocked into
//!    registers is the kernel's own business.
//! 2. It runs one output block at a time through all taps with the
//!    accumulators in registers, and gathers and scatters the output once
//!    per block — once per tile of the output loops, however many L1 tiles
//!    of the reduction it spans. Dense blocks are [`LANES`] packed `k` lanes
//!    × up to [`PIXELS`] pixels, or, on the AVX2 backend where the K range
//!    holds two whole packed vectors of one conv group, `2 × LANES`
//!    lanes × up to 6 pixels (K ranges are split at packed-vector and
//!    conv-group boundaries; lanes outside the range are computed and
//!    dropped). A single output channel (depthwise) takes vectors of
//!    [`LANES`] consecutive pixels of an output row: up to four per tap
//!    where the row is contiguous and holds a whole vector, its partial last
//!    vector computed as the whole one ending at the row's end with only the
//!    uncovered lanes stored; strided and shorter rows go up to [`LANES`]
//!    pixels at a time.
//! 3. It addresses tensors through a [`StridedView`] — a flat buffer, a plane
//!    offset per `(n, c)` and two strides — so [`Tensor4`] and
//!    [`crate::BlockedTensor`] share the kernel, with every offset hoisted out
//!    of the multiply–accumulate loop.
//!
//! The body is written once and instantiated twice: [`SimdBackend::Scalar`]
//! accumulates `acc + x * k` (two roundings, the exact reference) on
//! `[f32; LANES]` arrays, and [`SimdBackend::Avx2Fma`] compiles the same body
//! under `#[target_feature(enable = "avx2,fma")]` with `__m256` vectors and
//! fused multiply–adds on every block. Each accumulates every output element
//! in the schedule's order, so each is bit-identical to a per-element loop
//! with its own multiply–accumulate (`acc + x * k`, `f32::mul_add`), and the
//! two agree to a ULP bound that grows only with the reduction length.

use std::sync::OnceLock;

use conv_spec::{ConvShape, TileConfig, TilingLevel};

use crate::packing::PackedKernel;
use crate::tensor::Tensor4;
use crate::tiled::walk;

/// Packed output-channel lanes per accumulator vector (one AVX2 register).
pub const LANES: usize = 8;

/// Output pixels per one-vector register block: `PIXELS × LANES`
/// accumulators, the kernel vector and the broadcast pixel fit the sixteen
/// AVX2 registers.
pub const PIXELS: usize = 8;

/// A feature map the kernel can address with hoisted offsets: element
/// `(n, c, h, w)` lives at `plane(n, c) + h * h_stride + w * w_stride` of
/// [`StridedView::data`].
pub trait StridedView {
    /// The backing buffer.
    fn data(&self) -> &[f32];
    /// Offset of element `(n, c, 0, 0)`. Must be additive in its arguments:
    /// `plane(n, c) == plane(n, 0) + plane(0, c)`.
    fn plane(&self, n: usize, c: usize) -> usize;
    /// `(h_stride, w_stride)`: the offset of one step along `h` and `w`.
    fn strides(&self) -> (usize, usize);
}

/// A [`StridedView`] the kernel can accumulate into.
pub trait StridedViewMut: StridedView {
    /// The mutable backing buffer.
    fn data_mut(&mut self) -> &mut [f32];
}

impl StridedView for Tensor4 {
    fn data(&self) -> &[f32] {
        self.as_slice()
    }
    fn plane(&self, n: usize, c: usize) -> usize {
        self.offset(n, c, 0, 0)
    }
    fn strides(&self) -> (usize, usize) {
        (self.dims().3, 1)
    }
}

impl StridedViewMut for Tensor4 {
    fn data_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

/// The inner-loop implementation the runtime dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// Portable scalar lanes — the exact reference accumulation order
    /// (`a += x * k`, two roundings per MAC). Auto-vectorizable.
    Scalar,
    /// The same kernel body compiled for AVX2 + FMA: the same accumulation
    /// order per output element with fused multiply–adds (one rounding per
    /// MAC, as `f32::mul_add`), so results are ULP-bounded against
    /// [`SimdBackend::Scalar`].
    Avx2Fma,
}

impl SimdBackend {
    /// Short tag used by benchmark reports (`scalar` / `avx2fma`).
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2Fma => "avx2fma",
        }
    }
}

impl std::fmt::Display for SimdBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

static ACTIVE_BACKEND: OnceLock<SimdBackend> = OnceLock::new();

/// Whether `MOPT_FORCE_SCALAR` is set (non-empty, not `"0"`): the escape
/// hatch that pins every executor to the exact scalar reference path, used
/// by the runtime-dispatch fallback tests and available to operators.
pub fn force_scalar() -> bool {
    std::env::var_os("MOPT_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The microkernel backend for this process: AVX2+FMA when the CPU reports
/// both features at runtime (`is_x86_feature_detected!`) and
/// `MOPT_FORCE_SCALAR` is unset, the scalar reference otherwise. Cached
/// after the first call.
pub fn active_backend() -> SimdBackend {
    *ACTIVE_BACKEND.get_or_init(|| {
        if force_scalar() {
            return SimdBackend::Scalar;
        }
        detected_backend()
    })
}

/// The best backend the CPU supports, ignoring `MOPT_FORCE_SCALAR`.
pub fn detected_backend() -> SimdBackend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdBackend::Avx2Fma;
        }
    }
    SimdBackend::Scalar
}

/// A region of the iteration space: for each loop index, the start offset
/// and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelRegion {
    /// Batch range `(start, len)`.
    pub n: (usize, usize),
    /// Output-channel range.
    pub k: (usize, usize),
    /// Input-channel range, group-relative: offsets are within
    /// `0..shape.reduction_c()` (for dense shapes that is the full channel
    /// range).
    pub c: (usize, usize),
    /// Kernel-row range.
    pub r: (usize, usize),
    /// Kernel-column range.
    pub s: (usize, usize),
    /// Output-row range.
    pub h: (usize, usize),
    /// Output-column range.
    pub w: (usize, usize),
}

impl KernelRegion {
    /// The full iteration space of a shape (the C range is the per-group
    /// reduction extent).
    pub fn full(shape: &ConvShape) -> Self {
        Self::from_ranges(shape.extents().map(|extent| (0, extent)))
    }

    /// The ranges in canonical `[n, k, c, r, s, h, w]` order
    /// ([`conv_spec::LoopIndex::canonical_position`]).
    pub fn ranges(&self) -> [(usize, usize); 7] {
        [self.n, self.k, self.c, self.r, self.s, self.h, self.w]
    }

    /// The inverse of [`Self::ranges`].
    pub fn from_ranges([n, k, c, r, s, h, w]: [(usize, usize); 7]) -> Self {
        KernelRegion { n, k, c, r, s, h, w }
    }

    /// Number of output elements the region covers.
    pub fn output_points(&self) -> usize {
        self.n.1 * self.k.1 * self.h.1 * self.w.1
    }

    /// Number of multiply–accumulate operations in the region.
    pub fn macs(&self) -> usize {
        self.output_points() * self.c.1 * self.r.1 * self.s.1
    }
}

/// One reduction step of an output element: where its input pixel sits
/// relative to the element's pixel offset, and where the packed kernel
/// vector sits relative to the packed group.
#[derive(Debug, Clone, Copy)]
struct Tap {
    input: usize,
    kernel: usize,
}

/// `c`, `r`, `s` ranges of a tile plus the absolute input channel of its
/// relative `c = 0`: what a tap list is valid for.
type TapKey = ([(usize, usize); 3], usize);

/// The tile kernel of one worker: the operands and schedule it is bound to,
/// and the scratch (tap list, row offsets) it reuses from tile to tile. The
/// tap list spans the reduction loops the kernel walks, at most `c·r·s` of
/// one conv group; the row offsets span the tile's output rows.
pub(crate) struct TileKernel<'a, I, O> {
    shape: ConvShape,
    input: &'a I,
    packed: &'a PackedKernel,
    output: &'a mut O,
    fused: bool,
    /// Output channels per conv group.
    k_per_group: usize,
    /// Elements per packed group: one [`LANES`]-lane vector per `(c, r, s)`.
    group_len: usize,
    /// The `(dim, tile)` loops over `c`/`r`/`s` a tile's taps are visited
    /// in, outermost first: the tile walk's trailing reduction loops, then
    /// the register tile's, in permutation order.
    reduction: Vec<(usize, usize)>,
    taps: Vec<Tap>,
    tap_key: Option<TapKey>,
    /// Per output row of the tile, in `n`, `h` order: the offsets of its
    /// first pixel in the input and in the output, within channel plane 0.
    rows: Vec<(usize, usize)>,
    row_key: Option<[(usize, usize); 3]>,
}

impl<'a, I: StridedView, O: StridedViewMut> TileKernel<'a, I, O> {
    /// Bind the kernel to its operands and to the part of the schedule that
    /// reaches inside the tiles it is handed: the `trailing` `(dim, tile)`
    /// reduction loops of the tile walk, the register tile and the
    /// permutation.
    ///
    /// # Panics
    ///
    /// Panics if [`SimdBackend::Avx2Fma`] is requested on a CPU that does not
    /// report AVX2 and FMA.
    pub(crate) fn new(
        shape: &ConvShape,
        config: &TileConfig,
        trailing: &[(usize, usize)],
        input: &'a I,
        packed: &'a PackedKernel,
        output: &'a mut O,
        backend: SimdBackend,
    ) -> Self {
        let fused = backend == SimdBackend::Avx2Fma;
        assert!(
            !fused || detected_backend() == SimdBackend::Avx2Fma,
            "the Avx2Fma backend was requested on a CPU without avx2+fma"
        );
        let register = config.level(TilingLevel::Register);
        let mut reduction = trailing.to_vec();
        reduction.extend(
            config
                .permutation
                .outer_to_inner()
                .iter()
                .filter(|idx| idx.is_reduction())
                .map(|&idx| (idx.canonical_position(), register.get(idx).max(1))),
        );
        let layout = packed.layout();
        TileKernel {
            shape: *shape,
            input,
            packed,
            output,
            fused,
            k_per_group: shape.k_per_group().max(1),
            group_len: layout.c * layout.r * layout.s * LANES,
            reduction,
            taps: Vec::new(),
            tap_key: None,
            rows: Vec::new(),
            row_key: None,
        }
    }

    /// Accumulate one tile's contribution into the output: every L1 tile the
    /// trailing reduction loops cut it into, in their order.
    pub(crate) fn run(&mut self, tile: &KernelRegion) {
        if tile.macs() == 0 {
            return;
        }
        self.place_rows(tile);
        #[cfg(target_arch = "x86_64")]
        if self.fused {
            // SAFETY: `new` verified that the CPU reports avx2 and fma.
            unsafe { self.run_avx2(tile) };
            return;
        }
        self.run_with::<TwoRoundings>(tile);
    }

    /// The kernel body compiled for AVX2 + FMA.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn run_avx2(&mut self, tile: &KernelRegion) {
        self.run_with::<Fused>(tile);
    }

    /// Split the tile's K range into register blocks and run each through
    /// the tile's taps.
    #[inline(always)]
    fn run_with<M: Mac>(&mut self, tile: &KernelRegion) {
        let k_end = tile.k.0 + tile.k.1;
        let mut k = tile.k.0;
        while k < k_end {
            // A block is the part of the K range inside one packed vector
            // and inside one conv group, so that one kernel load and one
            // input pixel serve every lane of it — or, where the range holds
            // two whole vectors of one group, both.
            let group = k / self.k_per_group;
            let group_end = k_end.min((group + 1) * self.k_per_group);
            self.place_taps(tile, group * self.packed.layout().c);
            // The packed vector holding output channel `k`: its offset in the
            // packed buffer, and the lane of `k` in it.
            let (kernel, first) = ((k / LANES) * self.group_len, k % LANES);
            let wide = M::WIDE && first == 0 && k + 2 * LANES <= group_end;
            let end = if wide { k + 2 * LANES } else { group_end.min(k - first + LANES) };
            let mut planes = [0; 2 * LANES];
            for (i, plane) in planes[..end - k].iter_mut().enumerate() {
                *plane = self.output.plane(0, k + i);
            }
            let operands = Operands {
                input: self.input.data(),
                packed: self.packed.as_slice(),
                taps: &self.taps,
                rows: &self.rows,
                row_len: tile.w.1,
                steps: (self.shape.stride * self.input.strides().1, self.output.strides().1),
            };
            let output = self.output.data_mut();
            if wide {
                operands.lanes::<M, 2>(output, &planes, 0, [kernel, kernel + self.group_len]);
            } else if end - k == 1 {
                operands.pixels::<M>(output, planes[0], kernel + first);
            } else {
                operands.lanes::<M, 1>(output, &planes[..end - k], first, [kernel]);
            }
            k = end;
        }
    }

    /// Rebuild the tap list unless the previous tile left the one this tile
    /// needs: same `c`/`r`/`s` ranges, same conv group. The taps are those of
    /// every tile the reduction loops cut it into, in loop order, with `c`,
    /// `r`, `s` ascending inside each.
    fn place_taps(&mut self, tile: &KernelRegion, c_base: usize) {
        let ranges = [tile.c, tile.r, tile.s];
        if self.tap_key == Some((ranges, c_base)) {
            return;
        }
        self.tap_key = Some((ranges, c_base));
        self.taps.clear();
        let (h_stride, w_stride) = self.input.strides();
        let (row, col) = (self.shape.dilation * h_stride, self.shape.dilation * w_stride);
        let (input, layout, taps) = (self.input, self.packed.layout(), &mut self.taps);
        walk(&self.reduction, tile.ranges(), |sub| {
            let [_, _, cs, rs, ss, _, _] = *sub;
            for c in span(cs) {
                let plane = input.plane(0, c_base + c);
                for r in span(rs) {
                    for s in span(ss) {
                        taps.push(Tap {
                            input: plane + r * row + s * col,
                            kernel: layout.offset(0, c, r, s),
                        });
                    }
                }
            }
        });
    }

    /// Rebuild the row offsets unless the previous tile covered the same
    /// `n`/`h`/`w` ranges.
    fn place_rows(&mut self, tile: &KernelRegion) {
        let ranges = [tile.n, tile.h, tile.w];
        if self.row_key == Some(ranges) {
            return;
        }
        self.row_key = Some(ranges);
        self.rows.clear();
        let stride = self.shape.stride;
        let (in_row, in_col) = self.input.strides();
        let (out_row, out_col) = self.output.strides();
        let w = tile.w.0;
        for n in span(tile.n) {
            let (in_plane, out_plane) = (self.input.plane(n, 0), self.output.plane(n, 0));
            for h in span(tile.h) {
                self.rows.push((
                    in_plane + h * stride * in_row + w * stride * in_col,
                    out_plane + h * out_row + w * out_col,
                ));
            }
        }
    }
}

fn span((start, len): (usize, usize)) -> std::ops::Range<usize> {
    start..start + len
}

/// One multiply–accumulate, on one lane and on a vector of [`LANES`] lanes:
/// the only thing the two backends differ in.
trait Mac {
    /// [`LANES`] lanes, held the way the backend keeps them in a register.
    type Lanes: Copy;
    /// Whether dense blocks may take two lane vectors: 12 accumulators, two
    /// kernel vectors and the broadcast pixel fit the sixteen registers only
    /// as whole AVX2 vectors.
    const WIDE: bool;
    fn mac(acc: f32, x: f32, k: f32) -> f32;
    /// [`Mac::mac`] in every lane.
    fn mac_lanes(acc: Self::Lanes, x: Self::Lanes, k: Self::Lanes) -> Self::Lanes;
    fn load(lanes: &[f32; LANES]) -> Self::Lanes;
    fn store(lanes: Self::Lanes) -> [f32; LANES];
    #[inline(always)]
    fn splat(x: f32) -> Self::Lanes {
        Self::load(&[x; LANES])
    }
}

/// `acc + x * k`: the product is rounded, then the sum.
struct TwoRoundings;

impl Mac for TwoRoundings {
    type Lanes = [f32; LANES];
    const WIDE: bool = false;
    #[inline(always)]
    fn mac(acc: f32, x: f32, k: f32) -> f32 {
        acc + x * k
    }
    #[inline(always)]
    fn mac_lanes(mut acc: Self::Lanes, x: Self::Lanes, k: Self::Lanes) -> Self::Lanes {
        for l in 0..LANES {
            acc[l] = Self::mac(acc[l], x[l], k[l]);
        }
        acc
    }
    #[inline(always)]
    fn load(lanes: &[f32; LANES]) -> Self::Lanes {
        *lanes
    }
    #[inline(always)]
    fn store(lanes: Self::Lanes) -> [f32; LANES] {
        lanes
    }
}

/// `fma(x, k, acc)`: one rounding, on `__m256` vectors. Only instantiated
/// inside [`TileKernel::run_avx2`], which is only entered on a CPU that
/// reports avx2 and fma, so every operation compiles to its AVX2 or FMA
/// instruction, not a libm call.
#[cfg(target_arch = "x86_64")]
struct Fused;

#[cfg(target_arch = "x86_64")]
impl Mac for Fused {
    type Lanes = std::arch::x86_64::__m256;
    const WIDE: bool = true;
    #[inline(always)]
    fn mac(acc: f32, x: f32, k: f32) -> f32 {
        x.mul_add(k, acc)
    }
    #[inline(always)]
    fn mac_lanes(acc: Self::Lanes, x: Self::Lanes, k: Self::Lanes) -> Self::Lanes {
        // SAFETY: `Fused` runs only on a CPU with fma (see the type).
        unsafe { std::arch::x86_64::_mm256_fmadd_ps(x, k, acc) }
    }
    #[inline(always)]
    fn load(lanes: &[f32; LANES]) -> Self::Lanes {
        // SAFETY: avx, as above; the pointer addresses LANES readable floats.
        unsafe { std::arch::x86_64::_mm256_loadu_ps(lanes.as_ptr()) }
    }
    #[inline(always)]
    fn store(lanes: Self::Lanes) -> [f32; LANES] {
        let mut out = [0.0; LANES];
        // SAFETY: avx, as above; the pointer addresses LANES writable floats.
        unsafe { std::arch::x86_64::_mm256_storeu_ps(out.as_mut_ptr(), lanes) };
        out
    }
}

/// What every block of one tile reads.
struct Operands<'a> {
    input: &'a [f32],
    packed: &'a [f32],
    taps: &'a [Tap],
    /// Input and output offset of the first pixel of each output row.
    rows: &'a [(usize, usize)],
    /// Pixels per row.
    row_len: usize,
    /// Input and output offset between consecutive pixels of a row.
    steps: (usize, usize),
}

impl Operands<'_> {
    /// `V` packed vectors of output channels × all pixels of the tile.
    /// `planes` are the output plane offsets of the block's channels, `first`
    /// the lane of the first of them and `kernels` the vectors' offsets in
    /// the packed buffer.
    #[inline(always)]
    fn lanes<M: Mac, const V: usize>(
        &self,
        output: &mut [f32],
        planes: &[usize],
        first: usize,
        kernels: [usize; V],
    ) {
        let pixels = self.rows.len() * self.row_len;
        let block = (planes, first, kernels);
        // The next pixel: (row, column).
        let mut next = (0, 0);
        let mut done = 0;
        while done < pixels {
            // Largest register block that fits what is left: no pixel is
            // computed twice and none is padding. One vector takes up to
            // PIXELS pixels, two take 6 (12 accumulators, two kernel vectors
            // and the broadcast pixel fill fifteen of the sixteen registers).
            done += match pixels - done {
                PIXELS.. if V == 1 => self.lane_block::<M, V, PIXELS>(output, block, &mut next),
                6.. if V == 2 => self.lane_block::<M, V, 6>(output, block, &mut next),
                4.. => self.lane_block::<M, V, 4>(output, block, &mut next),
                2.. => self.lane_block::<M, V, 2>(output, block, &mut next),
                _ => self.lane_block::<M, V, 1>(output, block, &mut next),
            };
        }
    }

    /// The `P` pixels from `next` on × `V` packed vectors of [`LANES`] lanes, held
    /// in registers across every tap. Advances `next` and returns `P`.
    #[inline(always)]
    fn lane_block<M: Mac, const V: usize, const P: usize>(
        &self,
        output: &mut [f32],
        (planes, first, kernels): (&[usize], usize, [usize; V]),
        next: &mut (usize, usize),
    ) -> usize {
        let (mut pixel_in, mut pixel_out) = ([0; P], [0; P]);
        for p in 0..P {
            let (row, column) = *next;
            pixel_in[p] = self.rows[row].0 + column * self.steps.0;
            pixel_out[p] = self.rows[row].1 + column * self.steps.1;
            *next = if column + 1 == self.row_len { (row + 1, 0) } else { (row, column + 1) };
        }
        // Gather through a staging block: the lanes are indexed by a run-time
        // offset here, and only by constants in the accumulators below —
        // which is what lets the compiler keep those in registers from the
        // first tap to the last instead of storing them back after each.
        let mut staged = [[0.0f32; 2 * LANES]; P];
        for (block, &pixel) in staged.iter_mut().zip(&pixel_out) {
            for (lane, &plane) in block[first..].iter_mut().zip(planes) {
                *lane = output[plane + pixel];
            }
        }
        let mut acc = [[M::splat(0.0); V]; P];
        for (acc, block) in acc.iter_mut().zip(&staged) {
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = M::load(vector(block, v * LANES));
            }
        }
        for tap in self.taps {
            let mut lanes = [M::splat(0.0); V];
            for (v, lanes) in lanes.iter_mut().enumerate() {
                *lanes = M::load(vector(self.packed, kernels[v] + tap.kernel));
            }
            for p in 0..P {
                let x = M::splat(self.input[pixel_in[p] + tap.input]);
                for v in 0..V {
                    acc[p][v] = M::mac_lanes(acc[p][v], x, lanes[v]);
                }
            }
        }
        for (acc, block) in acc.iter().zip(&mut staged) {
            for (v, &acc) in acc.iter().enumerate() {
                block[v * LANES..(v + 1) * LANES].copy_from_slice(&M::store(acc));
            }
        }
        for (block, &pixel) in staged.iter().zip(&pixel_out) {
            for (lane, &plane) in block[first..].iter().zip(planes) {
                output[plane + pixel] = *lane;
            }
        }
        P
    }

    /// One output channel (lane `kernel` of its packed vector, output plane
    /// `plane`): each output row of the tile in vectors of [`LANES`]
    /// consecutive pixels. Where both sides are contiguous and a row holds a
    /// whole vector, up to four vectors share each tap, and a row's partial
    /// last vector is computed as the whole vector that ends at the row's
    /// end, of which only the lanes not yet covered are stored.
    #[inline(always)]
    fn pixels<M: Mac>(&self, output: &mut [f32], plane: usize, kernel: usize) {
        let (in_step, out_step) = self.steps;
        let contiguous = in_step == 1 && out_step == 1 && self.row_len >= LANES;
        for &(row_in, row_out) in self.rows {
            let (row_out, mut at) = (plane + row_out, 0);
            while contiguous && at < self.row_len {
                let (input_at, output_at) = (row_in + at, row_out + at);
                at += match (self.row_len - at) / LANES {
                    4.. => self.vector_block::<M, 4>(output, input_at, output_at, kernel, 0),
                    2.. => self.vector_block::<M, 2>(output, input_at, output_at, kernel, 0),
                    1 => self.vector_block::<M, 1>(output, input_at, output_at, kernel, 0),
                    _ => {
                        // The partial last vector, moved back onto the row.
                        let back = LANES - (self.row_len - at);
                        self.vector_block::<M, 1>(
                            output,
                            input_at - back,
                            output_at - back,
                            kernel,
                            back,
                        )
                    }
                };
            }
            while at < self.row_len {
                let len = LANES.min(self.row_len - at);
                let (input_at, output_at) = (row_in + at * in_step, row_out + at * out_step);
                self.pixel_block::<M>(output, input_at, output_at, kernel, len);
                at += len;
            }
        }
    }

    /// `V` whole vectors of [`LANES`] consecutive pixels of one contiguous
    /// output row, held in registers across every tap. The first `skip`
    /// lanes are computed but not stored. Returns the pixels stored.
    #[inline(always)]
    fn vector_block<M: Mac, const V: usize>(
        &self,
        output: &mut [f32],
        input_at: usize,
        output_at: usize,
        kernel: usize,
        skip: usize,
    ) -> usize {
        let mut acc = [M::splat(0.0); V];
        for (v, acc) in acc.iter_mut().enumerate() {
            *acc = M::load(vector(output, output_at + v * LANES));
        }
        for tap in self.taps {
            let k = M::splat(self.packed[kernel + tap.kernel]);
            let at = input_at + tap.input;
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = M::mac_lanes(*acc, M::load(vector(self.input, at + v * LANES)), k);
            }
        }
        for (v, &acc) in acc.iter().enumerate() {
            let (at, from) = (output_at + v * LANES, if v == 0 { skip } else { 0 });
            output[at + from..at + LANES].copy_from_slice(&M::store(acc)[from..]);
        }
        V * LANES - skip
    }

    /// `len <= LANES` pixels of one output row, at any stride, held in
    /// registers across every tap.
    #[inline(always)]
    fn pixel_block<M: Mac>(
        &self,
        output: &mut [f32],
        input_at: usize,
        output_at: usize,
        kernel: usize,
        len: usize,
    ) {
        let (in_step, out_step) = self.steps;
        let mut acc = [0.0f32; LANES];
        for (l, a) in acc[..len].iter_mut().enumerate() {
            *a = output[output_at + l * out_step];
        }
        for tap in self.taps {
            let k = self.packed[kernel + tap.kernel];
            let at = input_at + tap.input;
            for (l, a) in acc[..len].iter_mut().enumerate() {
                *a = M::mac(*a, self.input[at + l * in_step], k);
            }
        }
        for (l, a) in acc[..len].iter().enumerate() {
            output[output_at + l * out_step] = *a;
        }
    }
}

/// The [`LANES`] elements of `data` from `at` on.
#[inline(always)]
fn vector(data: &[f32], at: usize) -> &[f32; LANES] {
    data[at..at + LANES].try_into().expect("LANES elements")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::conv2d_naive;

    fn setup(shape: &ConvShape) -> (Tensor4, Tensor4, PackedKernel) {
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, 11);
        let kernel = Tensor4::random(kk, kc, kr, ks, 12);
        let packed = PackedKernel::pack(shape, &kernel, LANES);
        (input, kernel, packed)
    }

    /// Accumulate one region's contribution into `output` as a single L1 tile
    /// holding a single register tile: every output element meets the region's
    /// taps in `c`, `r`, `s` ascending order. [`crate::TiledConv`] drives the
    /// same kernel tile by tile with the schedule's register tile and
    /// permutation.
    fn run_microkernel_with_backend(
        shape: &ConvShape,
        input: &Tensor4,
        kernel: &PackedKernel,
        output: &mut Tensor4,
        region: &KernelRegion,
        backend: SimdBackend,
    ) {
        let config = TileConfig::untiled(shape);
        TileKernel::new(shape, &config, &[], input, kernel, output, backend).run(region);
    }

    /// The region under the backend the runtime dispatcher picked.
    fn run_microkernel(
        shape: &ConvShape,
        input: &Tensor4,
        packed: &PackedKernel,
        out: &mut Tensor4,
        region: &KernelRegion,
    ) {
        run_microkernel_with_backend(shape, input, packed, out, region, active_backend());
    }

    #[test]
    fn full_region_matches_naive() {
        let shape = ConvShape::new(1, 6, 3, 3, 3, 5, 5, 1).unwrap();
        let (input, kernel, packed) = setup(&shape);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        run_microkernel(&shape, &input, &packed, &mut out, &KernelRegion::full(&shape));
        assert!(reference.allclose(&out, 1e-4), "max diff {}", reference.max_abs_diff(&out));
    }

    #[test]
    fn partial_regions_compose_to_full_result() {
        // Splitting the reduction (c) and output (k, w) dimensions across
        // several microkernel calls must accumulate to the same result.
        let shape = ConvShape::new(1, 4, 4, 3, 3, 6, 6, 1).unwrap();
        let (input, kernel, packed) = setup(&shape);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        for k0 in (0..shape.k).step_by(2) {
            for c0 in (0..shape.c).step_by(2) {
                for w0 in (0..shape.w).step_by(3) {
                    let region = KernelRegion {
                        k: (k0, 2),
                        c: (c0, 2),
                        w: (w0, 3),
                        ..KernelRegion::full(&shape)
                    };
                    run_microkernel(&shape, &input, &packed, &mut out, &region);
                }
            }
        }
        assert!(reference.allclose(&out, 1e-4));
    }

    #[test]
    fn strided_region_matches_naive() {
        let shape = ConvShape::from_table1(4, 3, 9, 3, 2);
        let (input, kernel, packed) = setup(&shape);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        run_microkernel(&shape, &input, &packed, &mut out, &KernelRegion::full(&shape));
        assert!(reference.allclose(&out, 1e-4));
    }

    #[test]
    fn region_of_many_register_blocks_stays_correct() {
        // 16 channels × 144 pixels: two packed vectors, eighteen pixel blocks.
        let shape = ConvShape::new(1, 16, 2, 3, 3, 12, 12, 1).unwrap();
        let (input, kernel, packed) = setup(&shape);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        run_microkernel(&shape, &input, &packed, &mut out, &KernelRegion::full(&shape));
        assert!(reference.allclose(&out, 1e-4));
    }

    #[test]
    fn every_pixel_block_size_is_exercised_and_correct() {
        // 1..=15 pixels per tile: every mix of the 8/4/2/1-pixel blocks.
        let shape = ConvShape::new(1, 5, 3, 2, 2, 3, 5, 1).unwrap();
        let (input, kernel, packed) = setup(&shape);
        let reference = conv2d_naive(&shape, &input, &kernel);
        for nh in 1..=shape.h {
            for nw in 1..=shape.w {
                let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
                let region = KernelRegion { h: (0, nh), w: (0, nw), ..KernelRegion::full(&shape) };
                run_microkernel(&shape, &input, &packed, &mut out, &region);
                for k in 0..shape.k {
                    for h in 0..shape.h {
                        for w in 0..shape.w {
                            let expected =
                                if h < nh && w < nw { reference.at(0, k, h, w) } else { 0.0 };
                            assert!(
                                (out.at(0, k, h, w) - expected).abs() <= 1e-4,
                                "{nh}x{nw} tile, element ({k}, {h}, {w})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn depthwise_full_region_matches_naive() {
        // Rows of 10 pixels: one whole pixel vector and a partial one.
        for stride in [1, 2] {
            let shape = ConvShape::depthwise(12, 12, 3, stride);
            let (input, kernel, packed) = setup(&shape);
            let reference = conv2d_naive(&shape, &input, &kernel);
            let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
            run_microkernel(&shape, &input, &packed, &mut out, &KernelRegion::full(&shape));
            assert!(reference.allclose(&out, 1e-4), "max diff {}", reference.max_abs_diff(&out));
        }
    }

    #[test]
    fn grouped_region_spanning_groups_matches_naive() {
        // K regions that straddle group boundaries must be split internally.
        let shape = ConvShape::new_general(1, 8, 8, 3, 3, 6, 6, 1, 1, 4).unwrap();
        let (input, kernel, packed) = setup(&shape);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        // Split K as (0..3), (3..8): both sub-ranges straddle group edges.
        for (k0, nk) in [(0usize, 3usize), (3, 5)] {
            let region = KernelRegion { k: (k0, nk), ..KernelRegion::full(&shape) };
            run_microkernel(&shape, &input, &packed, &mut out, &region);
        }
        assert!(reference.allclose(&out, 1e-4));
    }

    #[test]
    fn dilated_region_matches_naive() {
        let shape = ConvShape::from_table1_dilated(4, 3, 12, 3, 1, 2);
        let (input, kernel, packed) = setup(&shape);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        run_microkernel(&shape, &input, &packed, &mut out, &KernelRegion::full(&shape));
        assert!(reference.allclose(&out, 1e-4));
    }

    #[test]
    fn empty_region_is_a_no_op() {
        let shape = ConvShape::new(1, 2, 2, 1, 1, 2, 2, 1).unwrap();
        let (input, _kernel, packed) = setup(&shape);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        let mut region = KernelRegion::full(&shape);
        region.c = (0, 0);
        run_microkernel(&shape, &input, &packed, &mut out, &region);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(region.macs(), 0);
    }

    #[test]
    fn backend_name_round_trips_display() {
        assert_eq!(SimdBackend::Scalar.to_string(), "scalar");
        assert_eq!(SimdBackend::Avx2Fma.to_string(), "avx2fma");
    }

    /// Run `regions` under both backends and assert the outputs agree to the
    /// bound the reduction length gives.
    fn assert_ulp_bounded(shape: &ConvShape, regions: &[KernelRegion]) {
        let (input, _, packed) = setup(shape);
        let run = |backend| {
            let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
            for region in regions {
                run_microkernel_with_backend(shape, &input, &packed, &mut out, region, backend);
            }
            out
        };
        let (scalar, simd) = (run(SimdBackend::Scalar), run(SimdBackend::Avx2Fma));
        // One fused rounding per MAC vs two scalar roundings: each reduction
        // step differs by at most one ULP of the running accumulator
        // (intermediate magnitude O(1) for inputs in [-1, 1]), so the paths
        // agree to ~steps · ε even when the final value is tiny from
        // cancellation. A real lane bug would be off by O(1).
        let steps = (shape.reduction_c() * shape.r * shape.s) as f32;
        let tol = steps * f32::EPSILON * 4.0;
        for (a, b) in scalar.as_slice().iter().zip(simd.as_slice()) {
            assert!((a - b).abs() <= tol, "scalar {a} vs simd {b} (tolerance {tol})");
        }
        // The fused path really ran: over thousands of MACs at least one
        // result rounds differently.
        assert_ne!(scalar.as_slice(), simd.as_slice(), "both backends ran the same arithmetic");
    }

    #[test]
    fn avx2_backend_is_ulp_bounded_against_scalar() {
        if detected_backend() != SimdBackend::Avx2Fma {
            eprintln!("skipping: CPU does not report avx2+fma");
            return;
        }
        for &(stride, dilation, groups) in &[(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)] {
            let shape =
                ConvShape::new_general(2, 16, 8, 3, 3, 6, 6, stride, dilation, groups).unwrap();
            let regions: Vec<_> = (0..shape.k)
                .step_by(8)
                .map(|k0| KernelRegion { k: (k0, 8), ..KernelRegion::full(&shape) })
                .collect();
            assert_ulp_bounded(&shape, &regions);
        }
    }

    #[test]
    fn avx2_backend_is_ulp_bounded_on_unaligned_and_partial_k_ranges() {
        if detected_backend() != SimdBackend::Avx2Fma {
            eprintln!("skipping: CPU does not report avx2+fma");
            return;
        }
        // K ranges that start inside a packed vector, end inside one, and
        // cover a single lane: every one of them takes fused multiply–adds.
        let dense = ConvShape::new(1, 21, 6, 3, 3, 5, 7, 1).unwrap();
        let grouped = ConvShape::new_general(1, 18, 12, 3, 3, 5, 7, 1, 1, 3).unwrap();
        let depthwise = ConvShape::depthwise(10, 13, 3, 1);
        for shape in [dense, grouped, depthwise] {
            let cuts = [0, 5, 6, 13.min(shape.k - 1), shape.k];
            let regions: Vec<_> = cuts
                .windows(2)
                .map(|w| KernelRegion { k: (w[0], w[1] - w[0]), ..KernelRegion::full(&shape) })
                .collect();
            assert_ulp_bounded(&shape, &regions);
        }
    }

    #[test]
    fn force_scalar_env_parses_common_values() {
        // Can't mutate process env safely in parallel tests; exercise the
        // pure predicate through its documented contract instead.
        assert!(matches!(active_backend(), SimdBackend::Scalar | SimdBackend::Avx2Fma));
        // Cached value is stable.
        assert_eq!(active_backend(), active_backend());
    }

    #[test]
    fn region_accessors() {
        let shape = ConvShape::new(2, 3, 4, 1, 1, 5, 6, 1).unwrap();
        let r = KernelRegion::full(&shape);
        assert_eq!(r.output_points(), 2 * 3 * 5 * 6);
        assert_eq!(r.macs(), 2 * 3 * 5 * 6 * 4);
        assert_eq!(KernelRegion::from_ranges(r.ranges()), r);
    }
}

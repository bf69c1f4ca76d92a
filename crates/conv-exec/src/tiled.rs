//! Multi-level tiled conv2d executor.
//!
//! `TiledConv` realizes the loop structure the paper's code generator emits:
//! L3-, L2- and L1-level tile loops (in the configuration's permutation
//! order, resolved once to a flat loop nest and walked without recursion)
//! around the microkernel ([`crate::microkernel`]), with the kernel tensor
//! packed up front. The trailing run of `c`/`r`/`s` loops below the last
//! `n`/`k`/`h`/`w` loop is not walked here: the kernel runs once per tile of
//! the loops above it and walks that run inside its tap list, so an output
//! block stays in registers across all the L1 tiles of its reduction. The
//! register level of the configuration reaches the kernel as the order in
//! which it visits each L1 tile's `(c, r, s)`.
//!
//! With `threads > 1` the output is partitioned across scoped threads
//! (tensors are borrowed, never copied to the workers) and each runs the same
//! tile walk over its slice: the calling thread straight into the output, the
//! others into a scratch tensor whose owned rows are copied out. A
//! configuration carrying certified parallel factors
//! ([`conv_spec::TileConfig::parallel`]) is executed exactly as the multicore
//! model priced it — the factors' cross-product grid of output slices;
//! factor-less configurations split the `k` output channels into contiguous
//! per-thread chunks. Threads own disjoint output
//! regions; the reduction dimensions (`c`, `r`, `s`) are never partitioned
//! (Sec. 7 restricts parallelism to non-reduction dimensions).
//!
//! Correctness is exact, not approximate: a slice along a non-reduction
//! dimension leaves every output element's accumulation sequence — the order
//! in which the `c`/`r`/`s` tile loops and the microkernel's tap list visit
//! its partial products — untouched, so the threaded result is
//! **bit-for-bit equal** to the `threads = 1` run of the same configuration
//! (`assert_eq!` on the raw `f32` buffers, no tolerance). Tests here (the
//! `partiled` test module) and in `tests/multicore_parallel.rs` enforce
//! this, including thread counts exceeding the partitioned extent.

use conv_spec::layout::PackedKernelLayout;
use conv_spec::{ConvShape, LoopIndex, TileConfig, TilingLevel, ALL_INDICES};

use crate::microkernel::{
    active_backend, KernelRegion, SimdBackend, StridedView, StridedViewMut, TileKernel, LANES,
};
use crate::packing::PackedKernel;
use crate::tensor::Tensor4;
use crate::ExecError;

/// [`TiledConv`] under the historical name of the threaded walk, which the
/// multicore tests and the repo benchmark import.
pub type ParTiledConv = TiledConv;

/// A multi-level tiled convolution executor for one operator.
#[derive(Debug, Clone)]
pub struct TiledConv {
    shape: ConvShape,
    config: TileConfig,
    threads: usize,
    backend: Option<SimdBackend>,
}

impl TiledConv {
    /// Create an executor for `shape` with a tiling configuration and thread
    /// count. The configuration is normalized (tile nesting repaired) first.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] if the normalized configuration
    /// still fails validation.
    pub fn new(shape: ConvShape, config: TileConfig, threads: usize) -> Result<Self, ExecError> {
        let config = config.normalized(&shape);
        config.validate(&shape).map_err(|e| ExecError::InvalidConfig(e.to_string()))?;
        Ok(TiledConv { shape, config, threads: threads.max(1), backend: None })
    }

    /// Pin the microkernel inner-loop backend instead of letting the runtime
    /// dispatcher choose (benchmarks compare backends; tests prove
    /// scalar/SIMD equivalence in one process).
    pub fn with_backend(mut self, backend: SimdBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The problem shape.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Run the convolution. The kernel is packed once, up front, at the
    /// microkernel's [`LANES`], and shared read-only by all workers (packing
    /// time is part of the measured execution, as in the paper).
    pub fn run(&self, input: &Tensor4, kernel: &Tensor4) -> Tensor4 {
        crate::naive::check_dims(&self.shape, input, kernel);
        let packed = PackedKernel::pack(&self.shape, kernel, LANES);
        self.run_packed(input, &packed)
    }

    /// Run the convolution with an already packed kernel.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have the shape's input dimensions, or
    /// `packed` was not packed for this shape at the microkernel's
    /// [`LANES`].
    pub fn run_packed(&self, input: &Tensor4, packed: &PackedKernel) -> Tensor4 {
        let shape = self.shape;
        // The kernel indexes raw buffers with offsets derived from the
        // shape and from its lane count: operands of another shape or width
        // must stop here, not there.
        assert_eq!(
            input.dims(),
            shape.input_dims(),
            "input tensor dimensions do not match the shape"
        );
        assert_eq!(
            packed.vec_len(),
            LANES,
            "the kernel was packed at a width other than the microkernel's lanes"
        );
        assert_eq!(
            *packed.layout(),
            PackedKernelLayout::new(&shape, LANES),
            "the packed kernel was packed for a different shape"
        );
        let mut output = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        let slices = self.partition();
        if slices.len() <= 1 {
            // One worker walks straight into the output: no scratch tensor.
            self.execute_region(input, packed, &mut output, &KernelRegion::full(&shape));
            return output;
        }
        // The calling thread takes the first slice and walks straight into
        // the output. Every other worker accumulates its regions into a
        // private full-size scratch tensor (regions address absolute
        // coordinates) and its owned output rows are copied out afterwards.
        // Regions are disjoint across workers, so nothing is written twice.
        // Transient memory is bounded by `(workers - 1) × |output|` with
        // workers capped at `threads` (and at the slice count).
        let (own, others) = slices.split_first().expect("more than one slice");
        let partials: Vec<Tensor4> = std::thread::scope(|scope| {
            let handles: Vec<_> = others
                .iter()
                .map(|regions| {
                    scope.spawn(move || {
                        let mut scratch = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
                        for region in regions {
                            self.execute_region(input, packed, &mut scratch, region);
                        }
                        scratch
                    })
                })
                .collect();
            for region in own {
                self.execute_region(input, packed, &mut output, region);
            }
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
        for (regions, partial) in others.iter().zip(&partials) {
            for region in regions {
                copy_region_output(partial, &mut output, region);
            }
        }
        output
    }

    /// Partition the output into per-worker region lists.
    ///
    /// A configuration carrying certified parallel factors
    /// (`TileConfig::parallel`, product > 1) is executed *as certified*: the
    /// per-dimension factors define a cross-product grid of output slices —
    /// exactly the decomposition the multicore cost model priced, including
    /// mixed-axis factor vectors like `K=2 · H=2` — and the grid cells are
    /// distributed round-robin over at most `threads` workers. Factor-less
    /// configurations fall back to splitting `k` into `threads` contiguous
    /// chunks. Either way workers are capped at the number of slices, so
    /// `threads` larger than the output never produces empty regions.
    fn partition(&self) -> Vec<Vec<KernelRegion>> {
        let shape = &self.shape;
        let full = KernelRegion::full(shape);
        if self.threads <= 1 {
            return vec![vec![full]];
        }
        if self.config.total_parallelism() > 1 {
            let grid = self.factor_grid(&full);
            let workers = self.threads.min(grid.len()).max(1);
            let mut slices = vec![Vec::new(); workers];
            for (i, region) in grid.into_iter().enumerate() {
                slices[i % workers].push(region);
            }
            return slices;
        }
        split_range(shape.k, self.threads)
            .into_iter()
            .map(|k| vec![KernelRegion { k, ..full }])
            .collect()
    }

    /// The cross-product slice grid of the configuration's parallel factors:
    /// each non-reduction dimension with factor `f > 1` is split into `f`
    /// contiguous chunks, and every combination of chunks is one region.
    /// The regions tile the full output space disjointly.
    pub(crate) fn factor_grid(&self, full: &KernelRegion) -> Vec<KernelRegion> {
        let mut regions = vec![*full];
        for idx in [LoopIndex::N, LoopIndex::K, LoopIndex::H, LoopIndex::W] {
            let f = self.config.parallel.get(idx);
            if f <= 1 {
                continue;
            }
            let dim = idx.canonical_position();
            let chunks = split_range(full.ranges()[dim].1, f);
            regions = regions
                .iter()
                .flat_map(|region| {
                    chunks.iter().map(move |&chunk| {
                        let mut ranges = region.ranges();
                        ranges[dim] = chunk;
                        KernelRegion::from_ranges(ranges)
                    })
                })
                .collect();
        }
        regions
    }

    /// Execute the L3-, L2- and L1-level tile loops over an arbitrary base
    /// region, handing every tile of the output loops to the microkernel.
    /// Worker threads each run it over their slice of the output, and
    /// [`crate::NchwcConv`] runs it over blocked NCHWc views — the walk is
    /// generic over strided views so every storage layout goes through the
    /// identical arithmetic.
    pub(crate) fn execute_region<I: StridedView, O: StridedViewMut>(
        &self,
        input: &I,
        packed: &PackedKernel,
        output: &mut O,
        base: &KernelRegion,
    ) {
        // The loop nest, outermost first, resolved once: per level the seven
        // dimensions in permutation order. A loop whose tile is never
        // smaller than the range it cuts takes one trip and is left out.
        let order = self.config.permutation.outer_to_inner().map(LoopIndex::canonical_position);
        let mut longest = base.ranges().map(|(_, len)| len);
        let mut loops: Vec<(usize, usize)> = Vec::with_capacity(3 * order.len());
        for level in [TilingLevel::L3, TilingLevel::L2, TilingLevel::L1] {
            let tiles = self.config.level(level).as_array();
            for dim in order {
                let tile = tiles[dim].max(1);
                if tile < longest[dim] {
                    loops.push((dim, tile));
                    longest[dim] = tile;
                }
            }
        }
        // The trailing run of `c`/`r`/`s` loops is the kernel's: it walks
        // them inside one tap list, so an output block stays in registers
        // across all of them.
        let split = loops
            .iter()
            .rposition(|&(dim, _)| !ALL_INDICES[dim].is_reduction())
            .map_or(0, |last| last + 1);
        let (outer, trailing) = loops.split_at(split);
        let backend = self.backend.unwrap_or_else(active_backend);
        let mut kernel =
            TileKernel::new(&self.shape, &self.config, trailing, input, packed, output, backend);
        walk(outer, base.ranges(), |tile| kernel.run(&KernelRegion::from_ranges(*tile)));
    }
}

/// Visit every tile the `(dim, tile)` loops, outermost first, cut `base`
/// into, in the order the loop nest reaches them. The nest is walked without
/// recursion: `current` is the tile the loops entered so far have narrowed
/// `base` to; loop `depth` remembers the range it cuts and how far into it
/// it is.
pub(crate) fn walk(
    loops: &[(usize, usize)],
    base: [(usize, usize); 7],
    mut visit: impl FnMut(&[(usize, usize); 7]),
) {
    let mut current = base;
    let mut cut = vec![(0, 0); loops.len()];
    let mut offset = vec![0; loops.len()];
    let mut depth = 0;
    loop {
        while depth < loops.len() {
            let (dim, tile) = loops[depth];
            cut[depth] = current[dim];
            offset[depth] = 0;
            current[dim] = (cut[depth].0, tile.min(cut[depth].1));
            depth += 1;
        }
        visit(&current);
        // Advance the innermost loop that has a tile left.
        loop {
            if depth == 0 {
                return;
            }
            depth -= 1;
            let (dim, tile) = loops[depth];
            let (start, len) = cut[depth];
            offset[depth] += tile;
            if offset[depth] < len {
                current[dim] = (start + offset[depth], tile.min(len - offset[depth]));
                depth += 1;
                break;
            }
            current[dim] = cut[depth];
        }
    }
}

/// Copy the output rows a region owns from `partial` into `output`.
fn copy_region_output(partial: &Tensor4, output: &mut Tensor4, region: &KernelRegion) {
    let (w0, nw) = region.w;
    for n in region.n.0..region.n.0 + region.n.1 {
        for k in region.k.0..region.k.0 + region.k.1 {
            for h in region.h.0..region.h.0 + region.h.1 {
                let row = partial.offset(n, k, h, w0);
                output.as_mut_slice()[row..row + nw]
                    .copy_from_slice(&partial.as_slice()[row..row + nw]);
            }
        }
    }
}

/// Split `extent` into at most `parts` contiguous `(start, len)` chunks.
pub(crate) fn split_range(extent: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, extent.max(1));
    let base = extent / parts;
    let rem = extent % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < rem);
        if len == 0 {
            continue;
        }
        out.push((start, len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::conv2d_naive;
    use conv_spec::{Permutation, TileSizes};

    fn reference(shape: &ConvShape, seed: u64) -> (Tensor4, Tensor4, Tensor4) {
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, seed);
        let kernel = Tensor4::random(kk, kc, kr, ks, seed + 1);
        let out = conv2d_naive(shape, &input, &kernel);
        (input, kernel, out)
    }

    fn config(
        shape: &ConvShape,
        perm: &str,
        reg: [usize; 7],
        l1: [usize; 7],
        l2: [usize; 7],
        l3: [usize; 7],
    ) -> TileConfig {
        TileConfig::new(
            Permutation::parse(perm).unwrap(),
            [
                TileSizes::from_array(reg),
                TileSizes::from_array(l1),
                TileSizes::from_array(l2),
                TileSizes::from_array(l3),
            ],
            TileSizes::ones(),
        )
        .normalized(shape)
    }

    #[test]
    fn untiled_matches_naive() {
        let shape = ConvShape::new(1, 5, 3, 3, 3, 7, 7, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 100);
        let conv = TiledConv::new(shape, TileConfig::untiled(&shape), 1).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn multi_level_tiling_matches_naive_for_several_permutations() {
        let shape = ConvShape::new(1, 8, 6, 3, 3, 10, 10, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 200);
        for perm in ["kcrsnhw", "nkhwcrs", "nchrswk", "nkcrshw"] {
            let cfg = config(
                &shape,
                perm,
                [1, 4, 1, 1, 1, 1, 4],
                [1, 4, 3, 3, 3, 2, 5],
                [1, 8, 6, 3, 3, 5, 10],
                [1, 8, 6, 3, 3, 10, 10],
            );
            let conv = TiledConv::new(shape, cfg, 1).unwrap();
            let got = conv.run(&input, &kernel);
            assert!(
                expected.allclose(&got, 1e-4),
                "permutation {perm}: max diff {}",
                expected.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn partial_tiles_are_handled() {
        // Tile sizes that do not divide the extents.
        let shape = ConvShape::new(1, 7, 5, 3, 3, 9, 11, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 300);
        let cfg = config(
            &shape,
            "kcrsnhw",
            [1, 3, 1, 1, 1, 2, 4],
            [1, 5, 2, 2, 3, 4, 5],
            [1, 7, 4, 3, 3, 6, 8],
            [1, 7, 5, 3, 3, 9, 11],
        );
        let conv = TiledConv::new(shape, cfg, 1).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn strided_convolution_matches_naive() {
        let shape = ConvShape::from_table1(6, 4, 11, 3, 2);
        let (input, kernel, expected) = reference(&shape, 400);
        let cfg = config(
            &shape,
            "kcrsnhw",
            [1, 2, 1, 1, 1, 1, 3],
            [1, 4, 2, 3, 3, 2, 3],
            [1, 6, 4, 3, 3, 3, 5],
            [1, 6, 4, 3, 3, 5, 5],
        );
        let conv = TiledConv::new(shape, cfg, 1).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let shape = ConvShape::new(1, 16, 8, 3, 3, 12, 12, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 500);
        let cfg = config(
            &shape,
            "kcrsnhw",
            [1, 8, 1, 1, 1, 1, 4],
            [1, 8, 4, 3, 3, 4, 6],
            [1, 16, 8, 3, 3, 6, 12],
            [1, 16, 8, 3, 3, 12, 12],
        );
        for threads in [2, 3, 4] {
            let conv = TiledConv::new(shape, cfg.clone(), threads).unwrap();
            let got = conv.run(&input, &kernel);
            assert!(expected.allclose(&got, 1e-4), "threads = {threads}");
        }
    }

    #[test]
    fn parallel_batched_execution_matches_naive() {
        let shape = ConvShape::new(3, 4, 3, 3, 3, 6, 6, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 600);
        let cfg = config(
            &shape,
            "nkhwcrs",
            [1, 4, 1, 1, 1, 2, 2],
            [1, 4, 3, 3, 3, 3, 3],
            [1, 4, 3, 3, 3, 6, 6],
            [3, 4, 3, 3, 3, 6, 6],
        );
        let conv = TiledConv::new(shape, cfg, 2).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn threaded_run_is_bit_identical_to_one_thread() {
        let tiles = |shape: &ConvShape| {
            config(
                shape,
                "kcrsnhw",
                [1, 4, 1, 1, 1, 1, 4],
                [1, 4, 3, 3, 3, 2, 5],
                [1, 8, 6, 3, 3, 5, 9],
                [2, 8, 6, 3, 3, 9, 11],
            )
        };
        let single = ConvShape::new(1, 6, 4, 3, 3, 5, 7, 1).unwrap();
        let batched = ConvShape::new(3, 6, 4, 3, 3, 5, 7, 1).unwrap();
        let mut certified = tiles(&single);
        certified.parallel = TileSizes::ones().with(LoopIndex::K, 2).with(LoopIndex::H, 2);
        let cases = [(single, certified), (single, tiles(&single)), (batched, tiles(&batched))];
        for (shape, cfg) in cases {
            let (input, kernel, _) = reference(&shape, 1200);
            let run =
                |threads| TiledConv::new(shape, cfg.clone(), threads).unwrap().run(&input, &kernel);
            let expected = run(1);
            // 64 exceeds every partitioned extent (k = 6, grid = 4).
            for threads in [2, 3, 4, 64] {
                assert_eq!(
                    run(threads).as_slice(),
                    expected.as_slice(),
                    "n {} parallel {:?} threads {threads}",
                    shape.n,
                    cfg.parallel
                );
            }
        }
    }

    #[test]
    fn depthwise_tiled_matches_naive_across_permutations_and_threads() {
        let shape = ConvShape::depthwise(12, 12, 3, 1);
        let (input, kernel, expected) = reference(&shape, 800);
        for perm in ["kcrsnhw", "nkhwcrs", "nchrswk"] {
            let cfg = config(
                &shape,
                perm,
                [1, 4, 1, 1, 1, 1, 4],
                [1, 6, 1, 3, 3, 2, 5],
                [1, 12, 1, 3, 3, 5, 10],
                [1, 12, 1, 3, 3, 10, 10],
            );
            for threads in [1, 3] {
                let conv = TiledConv::new(shape, cfg.clone(), threads).unwrap();
                let got = conv.run(&input, &kernel);
                assert!(
                    expected.allclose(&got, 1e-4),
                    "perm {perm} threads {threads}: max diff {}",
                    expected.max_abs_diff(&got)
                );
            }
        }
    }

    #[test]
    fn grouped_tiled_matches_naive_with_group_straddling_k_tiles() {
        // K tile of 3 with k_per_group 2: tiles straddle group boundaries.
        let shape = ConvShape::new_general(1, 8, 8, 3, 3, 9, 9, 1, 1, 4).unwrap();
        let (input, kernel, expected) = reference(&shape, 900);
        let cfg = config(
            &shape,
            "kcrsnhw",
            [1, 3, 1, 1, 1, 1, 3],
            [1, 3, 2, 3, 3, 3, 5],
            [1, 8, 2, 3, 3, 6, 9],
            [1, 8, 2, 3, 3, 9, 9],
        );
        let conv = TiledConv::new(shape, cfg, 1).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn dilated_and_strided_dilated_tiled_match_naive() {
        for (stride, dilation) in [(1, 2), (2, 2), (1, 3)] {
            let shape = ConvShape::from_table1_dilated(6, 4, 17, 3, stride, dilation);
            let (input, kernel, expected) = reference(&shape, 1000 + dilation as u64);
            let cfg = config(
                &shape,
                "kcrsnhw",
                [1, 2, 1, 1, 1, 1, 3],
                [1, 4, 2, 3, 3, 2, 3],
                [1, 6, 4, 3, 3, 3, 5],
                [1, 6, 4, 3, 3, 5, 5],
            );
            let conv = TiledConv::new(shape, cfg, 1).unwrap();
            let got = conv.run(&input, &kernel);
            assert!(
                expected.allclose(&got, 1e-4),
                "stride {stride} dilation {dilation}: max diff {}",
                expected.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn depthwise_dilated_combination_matches_naive() {
        let mut shape = ConvShape::from_table1_dilated(8, 8, 15, 3, 1, 2);
        shape.groups = 8;
        let (input, kernel, expected) = reference(&shape, 1100);
        let conv = TiledConv::new(shape, TileConfig::untiled(&shape), 2).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    #[should_panic(expected = "packed at a width other than the microkernel's lanes")]
    fn run_packed_rejects_a_kernel_packed_at_another_width() {
        let shape = ConvShape::new(1, 10, 4, 3, 3, 8, 8, 1).unwrap();
        let (input, kernel, _) = reference(&shape, 700);
        let packed = PackedKernel::pack(&shape, &kernel, 16);
        let conv = TiledConv::new(shape, TileConfig::untiled(&shape), 1).unwrap();
        let _ = conv.run_packed(&input, &packed);
    }

    #[test]
    #[should_panic(expected = "packed for a different shape")]
    fn run_packed_rejects_a_kernel_packed_for_another_shape() {
        let shape = ConvShape::new(1, 8, 4, 3, 3, 6, 6, 1).unwrap();
        let other = ConvShape::new(1, 8, 2, 3, 3, 6, 6, 1).unwrap();
        let (input, _, _) = reference(&shape, 1300);
        let (_, other_kernel, _) = reference(&other, 1300);
        let packed = PackedKernel::pack(&other, &other_kernel, 8);
        let conv = TiledConv::new(shape, TileConfig::untiled(&shape), 1).unwrap();
        let _ = conv.run_packed(&input, &packed);
    }

    #[test]
    #[should_panic(expected = "input tensor dimensions do not match the shape")]
    fn run_packed_rejects_an_input_of_the_wrong_dimensions() {
        let shape = ConvShape::new(1, 8, 4, 3, 3, 6, 6, 1).unwrap();
        let (_, kernel, _) = reference(&shape, 1400);
        let packed = PackedKernel::pack(&shape, &kernel, 8);
        let conv = TiledConv::new(shape, TileConfig::untiled(&shape), 1).unwrap();
        // One row and one column short of the 8×8 input the shape reads.
        let _ = conv.run_packed(&Tensor4::zeros(1, 4, 7, 7), &packed);
    }

    #[test]
    fn split_range_covers_everything() {
        for (extent, parts) in [(10, 3), (7, 7), (5, 8), (1, 4), (16, 4)] {
            let chunks = split_range(extent, parts);
            let total: usize = chunks.iter().map(|(_, l)| l).sum();
            assert_eq!(total, extent);
            // Chunks are contiguous and ordered.
            let mut pos = 0;
            for (start, len) in chunks {
                assert_eq!(start, pos);
                pos += len;
            }
        }
    }

    /// The exactness contract of the threaded walk, pinned through the
    /// `ParTiledConv` name (`cargo test -p conv_exec partiled` selects these).
    mod partiled {
        use super::*;
        use crate::microkernel::KernelRegion;
        use crate::naive::conv2d_naive;
        use crate::tensor::Tensor4;
        use conv_spec::{ConvShape, LoopIndex, Permutation, TileConfig, TileSizes};

        fn config(shape: &ConvShape) -> TileConfig {
            TileConfig::new(
                Permutation::parse("kcrsnhw").unwrap(),
                [
                    TileSizes::from_array([1, 4, 1, 1, 1, 1, 4]),
                    TileSizes::from_array([1, 4, 3, 3, 3, 2, 5]),
                    TileSizes::from_array([1, 8, 6, 3, 3, 5, 9]),
                    TileSizes::from_array([2, 8, 6, 3, 3, 9, 11]),
                ],
                TileSizes::ones(),
            )
            .normalized(shape)
        }

        fn sequential_reference(shape: &ConvShape, seed: u64) -> (Tensor4, Tensor4, Tensor4) {
            let (ni, ci, hi, wi) = shape.input_dims();
            let (kk, kc, kr, ks) = shape.kernel_dims();
            let input = Tensor4::random(ni, ci, hi, wi, seed);
            let kernel = Tensor4::random(kk, kc, kr, ks, seed + 1);
            let seq = TiledConv::new(*shape, config(shape), 1).unwrap();
            let expected = seq.run(&input, &kernel);
            (input, kernel, expected)
        }

        #[test]
        fn factorless_schedules_split_k_and_are_bit_identical_to_one_thread() {
            // The schedule carries no parallel factors, so the executor cuts
            // `k` into per-thread chunks (the path the benchmark's
            // `exec.partiled2_gflops` row takes): 3 does not divide k = 8,
            // 64 exceeds it.
            let shape = ConvShape::new(2, 8, 6, 3, 3, 9, 11, 1).unwrap();
            assert_eq!(config(&shape).total_parallelism(), 1);
            let (input, kernel, expected) = sequential_reference(&shape, 42);
            let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for threads in [2, 3, 8, 64] {
                let par = ParTiledConv::new(shape, config(&shape), threads).unwrap();
                assert_eq!(bits(&par.run(&input, &kernel)), bits(&expected), "threads {threads}");
            }
        }

        #[test]
        fn threads_beyond_the_k_extent_are_capped() {
            let shape = ConvShape::new(1, 2, 3, 3, 3, 9, 9, 1).unwrap();
            let (input, kernel, expected) = sequential_reference(&shape, 7);
            let par = ParTiledConv::new(shape, config(&shape), 8).unwrap();
            assert_eq!(par.run(&input, &kernel).as_slice(), expected.as_slice());
        }

        #[test]
        fn certified_factor_grids_execute_as_certified_and_stay_exact() {
            // A mixed-axis factor vector (K=2 · H=2) on a shape neither axis can
            // absorb alone: the executor must run the certified grid, not
            // collapse to one axis, and stay bit-for-bit exact.
            let shape = ConvShape::new(1, 3, 4, 3, 3, 3, 5, 1).unwrap();
            let mut cfg = config(&shape);
            cfg.parallel = TileSizes::ones().with(LoopIndex::K, 2).with(LoopIndex::H, 2);
            let (input, kernel, _) = sequential_reference(&shape, 55);
            let expected = TiledConv::new(shape, cfg.clone(), 1).unwrap().run(&input, &kernel);
            for threads in [1, 2, 4, 9] {
                let par = ParTiledConv::new(shape, cfg.clone(), threads).unwrap();
                let got = par.run(&input, &kernel);
                assert_eq!(got.as_slice(), expected.as_slice(), "threads {threads}");
            }
            // The grid really is the 2×2 cross product of the factors.
            let par = ParTiledConv::new(shape, cfg, 4).unwrap();
            let grid = par.factor_grid(&KernelRegion::full(&shape));
            assert_eq!(grid.len(), 4);
            let mut cells: Vec<_> = grid.iter().map(|r| (r.k, r.h)).collect();
            cells.sort();
            assert_eq!(
                cells,
                vec![((0, 2), (0, 2)), ((0, 2), (2, 1)), ((2, 1), (0, 2)), ((2, 1), (2, 1))]
            );
        }

        #[test]
        fn row_factors_execute_as_certified() {
            let shape = ConvShape::new(1, 8, 4, 3, 3, 8, 8, 1).unwrap();
            let mut cfg = config(&shape);
            cfg.parallel = TileSizes::ones().with(LoopIndex::H, 4);
            let par = ParTiledConv::new(shape, cfg, 4).unwrap();
            assert_eq!(par.factor_grid(&KernelRegion::full(&shape)).len(), 4);
            let (input, kernel, expected) = sequential_reference(&shape, 11);
            assert_eq!(par.run(&input, &kernel).as_slice(), expected.as_slice());
        }

        #[test]
        fn generalized_shapes_match_naive_within_tolerance_and_sequential_exactly() {
            for (groups, stride, dilation) in [(4, 1, 1), (1, 2, 1), (8, 1, 2)] {
                let shape =
                    ConvShape::new_general(1, 8, 8, 3, 3, 9, 9, stride, dilation, groups).unwrap();
                let (input, kernel, expected) = sequential_reference(&shape, 123);
                let par = ParTiledConv::new(shape, config(&shape), 3).unwrap();
                let got = par.run(&input, &kernel);
                assert_eq!(got.as_slice(), expected.as_slice());
                let naive = conv2d_naive(&shape, &input, &kernel);
                assert!(naive.allclose(&got, 1e-4));
            }
        }
    }
}

//! Blocked NCHWc executor.
//!
//! When the planner picks an `Nchwc { c_block }` layout, feature maps are
//! stored as `[N, C/c_block, H, W, c_block]`: a unit step along the channel
//! index stays inside a contiguous `c_block`-element lane group, which is what
//! the layout-aware cost model prices as a shorter-stride stream. The executor
//! here blocks the input, runs the *same* generic tile walk and microkernel as
//! [`crate::TiledConv`] over the blocked storage (the strided views only
//! change the plane offsets and strides, never the arithmetic or its order),
//! and unblocks the output — so its results are bit-for-bit identical to the
//! tiled executor on the same backend, and the packing steps it performs are
//! exactly the one-time moves the model's `move_cost` module charges for.

use conv_spec::{ConvShape, LayoutConfig, TensorLayout, TileConfig};

use crate::microkernel::{KernelRegion, StridedView, StridedViewMut};
use crate::packing::PackedKernel;
use crate::tensor::Tensor4;
use crate::tiled::TiledConv;
use crate::ExecError;

/// A dense 4-D feature map stored in blocked NCHWc order
/// (`[N, C/c_block, H, W, c_block]`, channels padded up to whole blocks).
///
/// Indexing is logical NCHW — the block decomposition is internal — and both
/// this and [`Tensor4`] are [`StridedView`]s, so the same microkernel code
/// runs over either.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedTensor {
    dims: (usize, usize, usize, usize),
    layout: TensorLayout,
    data: Vec<f32>,
}

impl BlockedTensor {
    /// A zero-filled blocked tensor with logical NCHW extents.
    ///
    /// # Panics
    ///
    /// Panics if `c_block` is zero.
    pub fn zeros(dims: (usize, usize, usize, usize), c_block: usize) -> Self {
        assert!(c_block > 0, "c_block must be positive");
        let layout = TensorLayout::Nchwc { c_block };
        BlockedTensor { dims, layout, data: vec![0.0; layout.len(dims)] }
    }

    /// Pack a plain NCHW tensor into blocked storage. Channel padding lanes
    /// stay zero.
    pub fn from_nchw(src: &Tensor4, c_block: usize) -> Self {
        let mut out = Self::zeros(src.dims(), c_block);
        let (_, dc, dh, dw) = src.dims();
        let (plane, blocks) = (dh * dw, dc.div_ceil(c_block));
        // Blocked order: a (batch, channel block) slab holds `plane` pixels of
        // `c_block` lanes each; lane `l` of it is one NCHW channel plane.
        let (slabs, planes) = (out.data.chunks_exact_mut((plane * c_block).max(1)), src.as_slice());
        for (slab_index, slab) in slabs.enumerate() {
            let (n, block) = (slab_index / blocks, slab_index % blocks);
            let lanes = c_block.min(dc - block * c_block);
            let first = src.offset(n, block * c_block, 0, 0);
            for (pixel, group) in slab.chunks_exact_mut(c_block).enumerate() {
                for (lane, value) in group[..lanes].iter_mut().enumerate() {
                    *value = planes[first + lane * plane + pixel];
                }
            }
        }
        out
    }

    /// Unpack into a plain NCHW tensor (dropping channel padding lanes).
    pub fn to_nchw(&self) -> Tensor4 {
        let (dn, dc, dh, dw) = self.dims;
        let mut out = Tensor4::zeros(dn, dc, dh, dw);
        let (plane, c_block) = (dh * dw, self.c_block());
        for (plane_index, values) in out.as_mut_slice().chunks_exact_mut(plane.max(1)).enumerate() {
            let first = StridedView::plane(self, plane_index / dc, plane_index % dc);
            for (pixel, value) in values.iter_mut().enumerate() {
                *value = self.data[first + pixel * c_block];
            }
        }
        out
    }

    /// Logical NCHW extents.
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        self.dims
    }

    /// The channel block size.
    pub fn c_block(&self) -> usize {
        match self.layout {
            TensorLayout::Nchwc { c_block } => c_block,
            _ => unreachable!("BlockedTensor always uses an Nchwc layout"),
        }
    }

    /// Element accessor (logical NCHW index).
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.layout.offset((n, c, h, w), self.dims)]
    }

    /// Mutable element accessor (logical NCHW index).
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let off = self.layout.offset((n, c, h, w), self.dims);
        &mut self.data[off]
    }

    /// The backing slice in blocked order (including padding lanes).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

impl StridedView for BlockedTensor {
    fn data(&self) -> &[f32] {
        &self.data
    }
    fn plane(&self, n: usize, c: usize) -> usize {
        self.layout.offset((n, c, 0, 0), self.dims)
    }
    fn strides(&self) -> (usize, usize) {
        (self.dims.3 * self.c_block(), self.c_block())
    }
}

impl StridedViewMut for BlockedTensor {
    fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// A multi-level tiled convolution executor over blocked NCHWc feature maps.
///
/// The tile walk (permutation, tile chain, microkernel) is shared with
/// [`TiledConv`]; only the storage of the input and output differs. Because
/// the strided views preserve the exact arithmetic order, `NchwcConv` is
/// bit-for-bit identical to the sequential `TiledConv` on every shape.
#[derive(Debug, Clone)]
pub struct NchwcConv {
    inner: TiledConv,
    layout: LayoutConfig,
}

impl NchwcConv {
    /// Create an executor for `shape`. The channel block and kernel packing
    /// width come from the configuration's layout axis; a configuration with
    /// default (NCHW) tensor layouts still executes, blocked with the kernel
    /// packing width.
    ///
    /// `threads` does not parallelize: the blocked walk always runs on the
    /// calling thread (the threaded partition lives in [`TiledConv::run`],
    /// over NCHW storage). The argument is kept for signature parity with
    /// `TiledConv::new`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] if the normalized configuration
    /// fails validation.
    pub fn new(shape: ConvShape, config: TileConfig, threads: usize) -> Result<Self, ExecError> {
        let layout = config.layout;
        let inner = TiledConv::new(shape, config, threads)?.with_vec_len(vec_len_of(&layout));
        Ok(NchwcConv { inner, layout })
    }

    /// Pin the microkernel backend: the order oracle compares the scalar
    /// reference bit for bit.
    #[cfg(test)]
    pub(crate) fn with_backend(mut self, backend: crate::SimdBackend) -> Self {
        self.inner = self.inner.with_backend(backend);
        self
    }

    /// The problem shape.
    pub fn shape(&self) -> &ConvShape {
        self.inner.shape()
    }

    /// The layout the executor blocks its tensors into.
    pub fn layout(&self) -> LayoutConfig {
        self.layout
    }

    /// The channel block size used for feature maps.
    pub fn c_block(&self) -> usize {
        match self.layout.input {
            TensorLayout::Nchwc { c_block } => c_block,
            _ => vec_len_of(&self.layout),
        }
    }

    /// Run the convolution: block the input, pack the kernel, walk the tile
    /// loops over blocked storage, unblock the output. The layout transforms
    /// are part of the run, exactly like the one-time moves the model prices.
    pub fn run(&self, input: &Tensor4, kernel: &Tensor4) -> Tensor4 {
        crate::naive::check_dims(self.shape(), input, kernel);
        let shape = *self.shape();
        let c_block = self.c_block();
        let blocked_in = BlockedTensor::from_nchw(input, c_block);
        let packed = PackedKernel::pack(&shape, kernel, vec_len_of(&self.layout));
        let mut blocked_out = BlockedTensor::zeros((shape.n, shape.k, shape.h, shape.w), c_block);
        self.inner.execute_region(
            &blocked_in,
            &packed,
            &mut blocked_out,
            &KernelRegion::full(&shape),
        );
        blocked_out.to_nchw()
    }
}

/// Kernel packing width implied by a layout (the packed vector length, or the
/// AVX2 default of 8 when the kernel layout is plain KCRS).
fn vec_len_of(layout: &LayoutConfig) -> usize {
    match layout.kernel {
        conv_spec::KernelLayout::Packed { vec_len } => vec_len.max(1),
        conv_spec::KernelLayout::Kcrs => 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::conv2d_naive;
    use conv_spec::{Permutation, TileSizes};

    fn blocked_config(shape: &ConvShape, c_block: usize) -> TileConfig {
        TileConfig::new(
            Permutation::parse("kcrsnhw").unwrap(),
            [
                TileSizes::from_array([1, 4, 1, 1, 1, 1, 4]),
                TileSizes::from_array([1, 8, 4, 3, 3, 3, 5]),
                TileSizes::from_array([1, 8, 8, 3, 3, 6, 9]),
                TileSizes::from_array([1, 16, 8, 3, 3, 9, 9]),
            ],
            TileSizes::ones(),
        )
        .normalized(shape)
        .with_layout(LayoutConfig::blocked(c_block))
    }

    #[test]
    fn blocked_tensor_round_trips_nchw() {
        let src = Tensor4::random(2, 5, 3, 4, 7);
        for c_block in [1, 2, 4, 8] {
            let blocked = BlockedTensor::from_nchw(&src, c_block);
            assert_eq!(blocked.c_block(), c_block);
            assert_eq!(blocked.to_nchw(), src);
            // Storage is padded up to whole channel blocks.
            assert_eq!(blocked.as_slice().len(), 2 * 5usize.div_ceil(c_block) * c_block * 3 * 4);
        }
    }

    #[test]
    fn blocked_channel_lanes_are_contiguous() {
        // With c_block = 4, channels 0..4 of one pixel occupy adjacent slots.
        let src = Tensor4::random(1, 4, 2, 2, 9);
        let blocked = BlockedTensor::from_nchw(&src, 4);
        let base = TensorLayout::Nchwc { c_block: 4 }.offset((0, 0, 1, 1), (1, 4, 2, 2));
        for lane in 0..4 {
            assert_eq!(blocked.as_slice()[base + lane], src.at(0, lane, 1, 1));
        }
    }

    #[test]
    fn nchwc_matches_tiled_bit_for_bit() {
        for &(stride, dilation, groups) in
            &[(1usize, 1usize, 1usize), (2, 1, 1), (1, 2, 1), (1, 1, 4), (2, 2, 2)]
        {
            let shape =
                ConvShape::new_general(2, 16, 8, 3, 3, 9, 9, stride, dilation, groups).unwrap();
            let (ni, ci, hi, wi) = shape.input_dims();
            let (kk, kc, kr, ks) = shape.kernel_dims();
            let input = Tensor4::random(ni, ci, hi, wi, 41);
            let kernel = Tensor4::random(kk, kc, kr, ks, 42);
            let cfg = blocked_config(&shape, 8);
            let reference = TiledConv::new(shape, cfg.clone(), 1).unwrap().run(&input, &kernel);
            let blocked = NchwcConv::new(shape, cfg, 1).unwrap().run(&input, &kernel);
            assert_eq!(
                reference.as_slice(),
                blocked.as_slice(),
                "stride {stride} dilation {dilation} groups {groups}"
            );
        }
    }

    #[test]
    fn nchwc_matches_naive_within_tolerance() {
        let shape = ConvShape::new(1, 12, 6, 3, 3, 8, 8, 1).unwrap();
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, 51);
        let kernel = Tensor4::random(kk, kc, kr, ks, 52);
        let expected = conv2d_naive(&shape, &input, &kernel);
        for c_block in [2, 4, 8] {
            let got = NchwcConv::new(shape, blocked_config(&shape, c_block), 1)
                .unwrap()
                .run(&input, &kernel);
            assert!(expected.allclose(&got, 1e-4), "c_block {c_block}");
        }
    }

    #[test]
    fn default_layout_config_still_executes_blocked() {
        let shape = ConvShape::new(1, 6, 4, 3, 3, 6, 6, 1).unwrap();
        let cfg = TileConfig::untiled(&shape);
        let conv = NchwcConv::new(shape, cfg.clone(), 1).unwrap();
        assert_eq!(conv.c_block(), 8);
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, 61);
        let kernel = Tensor4::random(kk, kc, kr, ks, 62);
        let reference = TiledConv::new(shape, cfg, 1).unwrap().run(&input, &kernel);
        assert_eq!(reference.as_slice(), conv.run(&input, &kernel).as_slice());
    }
}

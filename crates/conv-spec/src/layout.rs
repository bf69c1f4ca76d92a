//! Tensor layouts and index linearization.
//!
//! The paper stores input and output tensors in `NCHW` layout and the kernel
//! in `KCRS` layout, and packs the kernel into a
//! `[K/VecLen, C, R, S, VecLen]` layout before the convolution so that the
//! output-channel dimension (which is vectorized) becomes stride-1 (Sec. 6,
//! "Packing"). This module provides those layouts and the address arithmetic
//! the executor uses.

use serde::{Deserialize, Serialize};

use crate::shape::ConvShape;

/// Which of the three conv2d tensors an access refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TensorKind {
    /// The input feature map `In[n][c][h_in][w_in]`.
    Input,
    /// The output feature map `Out[n][k][h][w]`.
    Output,
    /// The convolution kernel `Ker[k][c][r][s]`.
    Kernel,
}

impl TensorKind {
    /// All three tensors.
    pub const ALL: [TensorKind; 3] = [TensorKind::Input, TensorKind::Output, TensorKind::Kernel];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TensorKind::Input => "In",
            TensorKind::Output => "Out",
            TensorKind::Kernel => "Ker",
        }
    }
}

impl std::fmt::Display for TensorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Layout of a 4-D feature-map tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorLayout {
    /// Batch, channel, height, width — the layout the paper uses for `In`
    /// and `Out`.
    Nchw,
    /// Batch, height, width, channel (provided for layout experiments).
    Nhwc,
    /// Channel-blocked `[N][C/c_block][H][W][c_block]` (NCHWc). The channel
    /// dimension is split into blocks of `c_block` lanes that become
    /// stride-1, so a SIMD microkernel reading a fixed spatial position sees
    /// `c_block` contiguous channels. `C` is padded up to a multiple of
    /// `c_block`; padding lanes are zero.
    Nchwc {
        /// Channels per block (the stride-1 lane count).
        c_block: usize,
    },
}

impl TensorLayout {
    /// Linear offset of element `(n, c, h, w)` in a tensor with extents
    /// `(cn, cc, ch, cw)`.
    pub fn offset(
        self,
        (n, c, h, w): (usize, usize, usize, usize),
        dims: (usize, usize, usize, usize),
    ) -> usize {
        let (_dn, dc, dh, dw) = dims;
        match self {
            TensorLayout::Nchw => ((n * dc + c) * dh + h) * dw + w,
            TensorLayout::Nhwc => ((n * dh + h) * dw + w) * dc + c,
            TensorLayout::Nchwc { c_block } => {
                let blocks = dc.div_ceil(c_block);
                let (blk, lane) = (c / c_block, c % c_block);
                (((n * blocks + blk) * dh + h) * dw + w) * c_block + lane
            }
        }
    }

    /// Total number of elements for the given extents (blocked layouts pad
    /// the channel dimension up to a whole number of blocks).
    pub fn len(self, dims: (usize, usize, usize, usize)) -> usize {
        match self {
            TensorLayout::Nchw | TensorLayout::Nhwc => dims.0 * dims.1 * dims.2 * dims.3,
            TensorLayout::Nchwc { c_block } => {
                dims.0 * dims.1.div_ceil(c_block) * c_block * dims.2 * dims.3
            }
        }
    }

    /// Always false; kept for API symmetry with collection types.
    pub fn is_empty(self, dims: (usize, usize, usize, usize)) -> bool {
        self.len(dims) == 0
    }
}

/// Layout of the 4-D kernel tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelLayout {
    /// Output channel, input channel, kernel row, kernel column — the
    /// unpacked layout of Table 1's experiments.
    Kcrs,
    /// The packed `Ker[K/V][C/G][R][S][V]` layout of Sec. 6: output channels
    /// are blocked into stride-1 groups of `vec_len` lanes (padded with
    /// zeros) so the vectorized K dimension is contiguous.
    Packed {
        /// Output channels per packed group (the SIMD lane count).
        vec_len: usize,
    },
}

impl KernelLayout {
    /// Linear offset of `Ker[k][c][r][s]` for a problem `shape`; `c` is the
    /// group-relative reduction index (`0 <= c < shape.reduction_c()`), which
    /// for dense shapes is simply the input channel.
    pub fn offset(self, shape: &ConvShape, k: usize, c: usize, r: usize, s: usize) -> usize {
        match self {
            KernelLayout::Kcrs => ((k * shape.reduction_c() + c) * shape.r + r) * shape.s + s,
            KernelLayout::Packed { vec_len } => {
                PackedKernelLayout::new(shape, vec_len).offset(k, c, r, s)
            }
        }
    }

    /// Total number of kernel elements stored under this layout (packing
    /// pads `K` up to a multiple of `vec_len`).
    pub fn len(self, shape: &ConvShape) -> usize {
        match self {
            KernelLayout::Kcrs => shape.kernel_elems(),
            KernelLayout::Packed { vec_len } => PackedKernelLayout::new(shape, vec_len).len(),
        }
    }
}

/// Per-tensor layout assignment for one schedule: the layout axis searched
/// by the optimizer alongside tile sizes and the parallel dimension.
///
/// The default (`In`/`Out` in NCHW, `Ker` in KCRS) reproduces the paper's
/// fixed-layout model bit for bit; every serialized form omits nothing, but
/// deserialization treats a missing `layout` field as this default so
/// pre-layout db pages and wire fixtures keep parsing unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayoutConfig {
    /// Layout of the input feature map.
    pub input: TensorLayout,
    /// Layout of the output feature map.
    pub output: TensorLayout,
    /// Layout of the kernel tensor.
    pub kernel: KernelLayout,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig {
            input: TensorLayout::Nchw,
            output: TensorLayout::Nchw,
            kernel: KernelLayout::Kcrs,
        }
    }
}

impl LayoutConfig {
    /// Kernel packed for a SIMD width, feature maps untouched — the layout
    /// the packed-kernel executor (`TiledConv`) actually runs.
    pub fn packed_kernel(vec_len: usize) -> Self {
        LayoutConfig { kernel: KernelLayout::Packed { vec_len }, ..Self::default() }
    }

    /// Fully blocked: NCHWc feature maps and a packed kernel sharing one
    /// lane count.
    pub fn blocked(c_block: usize) -> Self {
        LayoutConfig {
            input: TensorLayout::Nchwc { c_block },
            output: TensorLayout::Nchwc { c_block },
            kernel: KernelLayout::Packed { vec_len: c_block },
        }
    }

    /// Whether every tensor is in the paper's default layout.
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }

    /// Short human-readable tag (`nchw+kcrs`, `nchw+packed8`,
    /// `nchwc8+packed8`) used by Explain output and benchmark reports.
    pub fn tag(&self) -> String {
        let fm = match self.input {
            TensorLayout::Nchw => "nchw".to_string(),
            TensorLayout::Nhwc => "nhwc".to_string(),
            TensorLayout::Nchwc { c_block } => format!("nchwc{c_block}"),
        };
        let ker = match self.kernel {
            KernelLayout::Kcrs => "kcrs".to_string(),
            KernelLayout::Packed { vec_len } => format!("packed{vec_len}"),
        };
        format!("{fm}+{ker}")
    }
}

/// The packed kernel layout `[K/VecLen][C][R][S][VecLen]` produced by the
/// packing pass before convolution (Sec. 6).
///
/// `K` is padded up to a multiple of `vec_len`; the padding lanes are zero so
/// the microkernel can run full vectors unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PackedKernelLayout {
    /// Vector length (number of output channels per packed group).
    pub vec_len: usize,
    /// Number of packed groups: `ceil(K / vec_len)`.
    pub k_groups: usize,
    /// Input channels.
    pub c: usize,
    /// Kernel rows.
    pub r: usize,
    /// Kernel columns.
    pub s: usize,
}

impl PackedKernelLayout {
    /// Layout for a problem shape and SIMD vector length. The packed `c`
    /// dimension is the per-group reduction extent (`shape.reduction_c()`),
    /// matching the `Ker[K][C/groups][R][S]` kernel tensor.
    pub fn new(shape: &ConvShape, vec_len: usize) -> Self {
        PackedKernelLayout {
            vec_len,
            k_groups: shape.k.div_ceil(vec_len),
            c: shape.reduction_c(),
            r: shape.r,
            s: shape.s,
        }
    }

    /// Total number of elements of the packed buffer (including padding).
    pub fn len(&self) -> usize {
        self.k_groups * self.c * self.r * self.s * self.vec_len
    }

    /// Whether the packed buffer would be empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear offset of packed element for output channel `k`, input channel
    /// `c`, kernel position `(r, s)`.
    pub fn offset(&self, k: usize, c: usize, r: usize, s: usize) -> usize {
        let group = k / self.vec_len;
        let lane = k % self.vec_len;
        (((group * self.c + c) * self.r + r) * self.s + s) * self.vec_len + lane
    }

    /// Offset of the first lane of the group containing output channel `k`.
    pub fn group_base(&self, k: usize, c: usize, r: usize, s: usize) -> usize {
        let group = k / self.vec_len;
        (((group * self.c + c) * self.r + r) * self.s + s) * self.vec_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::ConvShape;

    #[test]
    fn nchw_offsets_are_row_major() {
        let dims = (2, 3, 4, 5);
        assert_eq!(TensorLayout::Nchw.offset((0, 0, 0, 0), dims), 0);
        assert_eq!(TensorLayout::Nchw.offset((0, 0, 0, 1), dims), 1);
        assert_eq!(TensorLayout::Nchw.offset((0, 0, 1, 0), dims), 5);
        assert_eq!(TensorLayout::Nchw.offset((0, 1, 0, 0), dims), 20);
        assert_eq!(TensorLayout::Nchw.offset((1, 0, 0, 0), dims), 60);
        assert_eq!(TensorLayout::Nchw.len(dims), 120);
    }

    #[test]
    fn nhwc_offsets_make_channel_fastest() {
        let dims = (1, 3, 4, 5);
        assert_eq!(TensorLayout::Nhwc.offset((0, 0, 0, 0), dims), 0);
        assert_eq!(TensorLayout::Nhwc.offset((0, 1, 0, 0), dims), 1);
        assert_eq!(TensorLayout::Nhwc.offset((0, 0, 0, 1), dims), 3);
    }

    #[test]
    fn kcrs_offsets() {
        let shape = ConvShape::new(1, 4, 3, 3, 3, 8, 8, 1).unwrap();
        let l = KernelLayout::Kcrs;
        assert_eq!(l.offset(&shape, 0, 0, 0, 0), 0);
        assert_eq!(l.offset(&shape, 0, 0, 0, 1), 1);
        assert_eq!(l.offset(&shape, 0, 0, 1, 0), 3);
        assert_eq!(l.offset(&shape, 0, 1, 0, 0), 9);
        assert_eq!(l.offset(&shape, 1, 0, 0, 0), 27);
    }

    #[test]
    fn packed_kernel_layout_pads_k() {
        let shape = ConvShape::new(1, 10, 2, 3, 3, 8, 8, 1).unwrap();
        let p = PackedKernelLayout::new(&shape, 8);
        assert_eq!(p.k_groups, 2);
        assert_eq!(p.len(), 2 * 2 * 3 * 3 * 8);
        assert!(!p.is_empty());
        // Lane position is k % vec_len; groups are contiguous blocks.
        assert_eq!(p.offset(0, 0, 0, 0), 0);
        assert_eq!(p.offset(1, 0, 0, 0), 1);
        assert_eq!(p.offset(8, 0, 0, 0), 2 * 3 * 3 * 8);
        assert_eq!(p.group_base(9, 0, 0, 0), p.offset(8, 0, 0, 0));
    }

    #[test]
    fn packed_offsets_are_unique_and_in_bounds() {
        let shape = ConvShape::new(1, 6, 2, 2, 2, 4, 4, 1).unwrap();
        let p = PackedKernelLayout::new(&shape, 4);
        let mut seen = std::collections::HashSet::new();
        for k in 0..shape.k {
            for c in 0..shape.c {
                for r in 0..shape.r {
                    for s in 0..shape.s {
                        let off = p.offset(k, c, r, s);
                        assert!(off < p.len());
                        assert!(seen.insert(off), "duplicate offset {off}");
                    }
                }
            }
        }
    }

    #[test]
    fn nchwc_offsets_block_channels() {
        let l = TensorLayout::Nchwc { c_block: 4 };
        let dims = (2, 6, 3, 5);
        // Two blocks of 4 lanes (channel 6 pads to 8).
        assert_eq!(l.len(dims), 2 * 2 * 4 * 3 * 5);
        assert_eq!(l.offset((0, 0, 0, 0), dims), 0);
        // Channel steps within a block are stride-1...
        assert_eq!(l.offset((0, 1, 0, 0), dims), 1);
        assert_eq!(l.offset((0, 3, 0, 0), dims), 3);
        // ...the spatial step skips the lane block...
        assert_eq!(l.offset((0, 0, 0, 1), dims), 4);
        // ...and crossing a block boundary jumps a whole H*W*c_block plane.
        assert_eq!(l.offset((0, 4, 0, 0), dims), 3 * 5 * 4);
        // Offsets are unique and in bounds over the whole tensor.
        let mut seen = std::collections::HashSet::new();
        for n in 0..dims.0 {
            for c in 0..dims.1 {
                for h in 0..dims.2 {
                    for w in 0..dims.3 {
                        let off = l.offset((n, c, h, w), dims);
                        assert!(off < l.len(dims));
                        assert!(seen.insert(off), "duplicate offset {off}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_kernel_layout_enum_matches_struct() {
        let shape = ConvShape::new(1, 10, 2, 3, 3, 8, 8, 1).unwrap();
        let l = KernelLayout::Packed { vec_len: 8 };
        let p = PackedKernelLayout::new(&shape, 8);
        assert_eq!(l.len(&shape), p.len());
        for k in 0..shape.k {
            for c in 0..shape.c {
                assert_eq!(l.offset(&shape, k, c, 1, 2), p.offset(k, c, 1, 2));
            }
        }
        assert_eq!(KernelLayout::Kcrs.len(&shape), shape.kernel_elems());
    }

    #[test]
    fn layout_config_default_roundtrip() {
        let def = LayoutConfig::default();
        assert!(def.is_default());
        assert_eq!(def.tag(), "nchw+kcrs");
        assert!(!LayoutConfig::packed_kernel(8).is_default());
        assert_eq!(LayoutConfig::packed_kernel(8).tag(), "nchw+packed8");
        assert_eq!(LayoutConfig::blocked(8).tag(), "nchwc8+packed8");

        let v = serde_json::to_string(&def).unwrap();
        let back: LayoutConfig = serde_json::from_str(&v).unwrap();
        assert_eq!(back, def);
        let v = serde_json::to_string(&LayoutConfig::blocked(16)).unwrap();
        let back: LayoutConfig = serde_json::from_str(&v).unwrap();
        assert_eq!(back, LayoutConfig::blocked(16));
    }
}

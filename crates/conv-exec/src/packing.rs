//! Kernel packing (Sec. 6, "Packing").
//!
//! Efficient vectorization of the microkernel requires stride-1 access along
//! the vectorized output-channel dimension, but the benchmark layout is
//! `KCRS`, in which `K` is the slowest-varying dimension. The packing pass
//! rearranges the kernel into `[K/VecLen, C, R, S, VecLen]` (padding `K` up to
//! a multiple of the vector length with zeros) before the convolution. The
//! paper includes the packing time in all measurements; the measurement
//! helpers in [`crate::measure`] do the same.

use conv_spec::{layout::PackedKernelLayout, ConvShape};

use crate::tensor::Tensor4;

/// A kernel packed into the vector-friendly `[K/VecLen, C, R, S, VecLen]`
/// layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedKernel {
    layout: PackedKernelLayout,
    data: Vec<f32>,
}

impl PackedKernel {
    /// Pack a `KCRS` kernel tensor for a given SIMD vector length. The `C`
    /// dimension of the kernel tensor is the per-group reduction extent
    /// (`shape.reduction_c()`), i.e. 1 for a depthwise shape.
    ///
    /// # Panics
    ///
    /// Panics if the kernel dimensions do not match the shape or `vec_len`
    /// is zero.
    pub fn pack(shape: &ConvShape, kernel: &Tensor4, vec_len: usize) -> Self {
        assert!(vec_len > 0, "vector length must be positive");
        assert_eq!(
            kernel.dims(),
            shape.kernel_dims(),
            "kernel tensor dimensions do not match the shape"
        );
        let layout = PackedKernelLayout::new(shape, vec_len);
        let mut data = vec![0.0f32; layout.len()];
        // Packed order: a group holds one `vec_len`-lane vector per
        // `(c, r, s)`; lane `l` of it is element `(c, r, s)` of output
        // channel `group * vec_len + l`, whose `KCRS` elements are contiguous.
        let (channels, per_channel) = (kernel.as_slice(), layout.c * layout.r * layout.s);
        for (group, vectors) in data.chunks_exact_mut((per_channel * vec_len).max(1)).enumerate() {
            let lanes = vec_len.min(shape.k - group * vec_len);
            let first = group * vec_len * per_channel;
            for (crs, vector) in vectors.chunks_exact_mut(vec_len).enumerate() {
                for (lane, value) in vector[..lanes].iter_mut().enumerate() {
                    *value = channels[first + lane * per_channel + crs];
                }
            }
        }
        PackedKernel { layout, data }
    }

    /// The packed layout description.
    pub fn layout(&self) -> &PackedKernelLayout {
        &self.layout
    }

    /// Vector length used for packing.
    pub fn vec_len(&self) -> usize {
        self.layout.vec_len
    }

    /// The packed buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Element for output channel `k`, input channel `c`, kernel position
    /// `(r, s)`. Padding lanes read as zero.
    #[inline]
    pub fn at(&self, k: usize, c: usize, r: usize, s: usize) -> f32 {
        self.data[self.layout.offset(k, c, r, s)]
    }

    /// The contiguous vector (of `vec_len` lanes) covering output channels
    /// `[group_base(k), group_base(k) + vec_len)` at `(c, r, s)`.
    #[inline]
    pub fn group(&self, k: usize, c: usize, r: usize, s: usize) -> &[f32] {
        let base = self.layout.group_base(k, c, r, s);
        &self.data[base..base + self.layout.vec_len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::new(1, 10, 2, 3, 3, 4, 4, 1).unwrap()
    }

    #[test]
    fn pack_roundtrips_every_element() {
        let s = shape();
        let kernel = Tensor4::random(s.k, s.c, s.r, s.s, 9);
        let packed = PackedKernel::pack(&s, &kernel, 8);
        for k in 0..s.k {
            for c in 0..s.c {
                for r in 0..s.r {
                    for sx in 0..s.s {
                        assert_eq!(packed.at(k, c, r, sx), kernel.at(k, c, r, sx));
                    }
                }
            }
        }
    }

    #[test]
    fn padding_lanes_are_zero() {
        let s = shape(); // K = 10, vec 8 → lanes 10..16 of group 1 are padding
        let kernel = Tensor4::random(s.k, s.c, s.r, s.s, 1);
        let packed = PackedKernel::pack(&s, &kernel, 8);
        let group = packed.group(9, 1, 2, 2);
        assert_eq!(group.len(), 8);
        // Lanes 2..8 of the second group correspond to k = 10..16 (padding).
        for &lane in &group[2..8] {
            assert_eq!(lane, 0.0);
        }
    }

    #[test]
    fn group_is_contiguous_over_k() {
        let s = shape();
        let kernel = Tensor4::random(s.k, s.c, s.r, s.s, 3);
        let packed = PackedKernel::pack(&s, &kernel, 4);
        let group = packed.group(5, 0, 1, 1); // covers k = 4..8
        for (lane, expect_k) in (4..8).enumerate() {
            assert_eq!(group[lane], kernel.at(expect_k, 0, 1, 1));
        }
        assert_eq!(packed.vec_len(), 4);
        assert_eq!(packed.as_slice().len(), packed.layout().len());
    }

    #[test]
    #[should_panic(expected = "vector length must be positive")]
    fn zero_vec_len_panics() {
        let s = shape();
        let kernel = Tensor4::zeros(s.k, s.c, s.r, s.s);
        let _ = PackedKernel::pack(&s, &kernel, 0);
    }
}

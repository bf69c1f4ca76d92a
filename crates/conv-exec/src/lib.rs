//! Tiled conv2d execution: the reproduction's substitute for the paper's
//! generated C code and x86 microkernel.
//!
//! The paper's MOpt tool emits C code with multi-level tile loops around a
//! hand-written assembly microkernel (Sec. 6), packs the kernel tensor into a
//! vector-friendly layout, and parallelizes non-reduction tile loops
//! (Sec. 7). This crate implements the same execution structure in Rust:
//!
//! * [`tensor::Tensor4`] — a dense NCHW 4-D tensor of `f32`,
//! * [`naive`] — the reference seven-loop convolution used as ground truth,
//! * [`im2col`] — an im2col + cache-blocked GEMM convolution (the substrate
//!   used by the oneDNN-like baseline in `baselines`),
//! * [`packing`] — the `[K,C,R,S] → [K/VecLen, C, R, S, VecLen]` kernel
//!   packing transform,
//! * [`microkernel`] — the tile kernel: an output block held in registers
//!   across every `(c, r, s)` of every L1 tile the walk's trailing reduction
//!   loops cut a tile into, visited in the order the schedule's loops,
//!   register tile and permutation give, over strided views of the feature
//!   maps; one body instantiated as the exact scalar reference and, behind
//!   runtime dispatch (`is_x86_feature_detected!`, overridable via
//!   `MOPT_FORCE_SCALAR`), for AVX2+FMA, each bit-exact against a
//!   per-element loop in the schedule's order with its own multiply–add
//!   (`acc + x * k`; `f32::mul_add`),
//! * [`tiled`] — the multi-level tiled executor driven by a
//!   [`conv_spec::TileConfig`]; with `threads > 1` it partitions the output
//!   along the schedule's certified parallel factors (or, without factors,
//!   along `k`) across scoped worker threads, bit-for-bit
//!   equal to its own one-thread walk ([`ParTiledConv`] is an alias of
//!   [`TiledConv`], the name the multicore tests and the repo benchmark
//!   import),
//! * [`nchwc`] — the blocked-NCHWc executor: the same tile walk over
//!   `[N, C/c_block, H, W, c_block]` storage, bit-for-bit equal to the
//!   sequential [`tiled`] walk (single-threaded),
//! * [`measure`] — the geometric mean the speed-up summaries report.
//!
//! Matmul and pooling problems ([`conv_spec::Spec`]) have no
//! executors of their own: they run as the convolution they embed into
//! ([`conv_spec::Spec::embedded_conv_shape`]; `tests/spec_embedding.rs` holds
//! the embedding to a plain GEMM and a plain average pool).
//!
//! # Example
//!
//! ```
//! use conv_spec::ConvShape;
//! use conv_exec::{naive::conv2d_naive, tensor::Tensor4, tiled::TiledConv};
//! use conv_spec::TileConfig;
//!
//! let shape = ConvShape::new(1, 4, 3, 3, 3, 6, 6, 1)?;
//! let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 1);
//! let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 2);
//! let reference = conv2d_naive(&shape, &input, &kernel);
//! let tiled = TiledConv::new(shape, TileConfig::untiled(&shape), 1)?;
//! let out = tiled.run(&input, &kernel);
//! assert!(reference.allclose(&out, 1e-4));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod im2col;
pub mod measure;
pub mod microkernel;
pub mod naive;
pub mod nchwc;
#[cfg(test)]
mod order_oracle;
pub mod packing;
pub mod tensor;
pub mod tiled;

pub use microkernel::{
    active_backend, detected_backend, force_scalar, SimdBackend, StridedView, StridedViewMut,
};
pub use nchwc::{BlockedTensor, NchwcConv};
pub use packing::PackedKernel;
pub use tensor::Tensor4;
pub use tiled::{ParTiledConv, TiledConv};

/// Errors produced by the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The tile configuration is inconsistent with the problem shape.
    InvalidConfig(String),
    /// Tensor dimensions do not match the problem shape.
    ShapeMismatch(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidConfig(msg) => write!(f, "invalid tile configuration: {msg}"),
            ExecError::ShapeMismatch(msg) => write!(f, "tensor shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

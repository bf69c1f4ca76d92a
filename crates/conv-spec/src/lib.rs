//! Problem, layout, benchmark, and machine descriptions shared by every crate
//! of the MOpt reproduction.
//!
//! The CNN (conv2d) computation optimized by the paper, generalized over
//! stride, dilation, and channel groups, is
//!
//! ```text
//! Out[n][k][h][w] += In[n][g·(C/G) + c][h·stride + r·dilation][w·stride + s·dilation]
//!                    · Ker[k][c][r][s]        with g = k / (K/G)
//! ```
//!
//! a seven-dimensional loop nest over the indices `n, k, c, r, s, h, w`
//! (batch, output channel, per-group input channel, kernel row, kernel
//! column, output row, output column). Dense conv2d is the special case
//! `dilation == 1, groups == 1`; `groups == C == K` is a depthwise
//! convolution (MobileNet) and `dilation > 1` an atrous one (DeepLab).
//! This crate defines:
//!
//! * [`ConvShape`] — the seven problem extents plus stride, dilation, and
//!   groups, with derived quantities (FLOP count, tensor sizes, input
//!   extents, the per-group reduction extent) and a stable
//!   [`ConvShape::fingerprint`],
//! * [`LoopIndex`] and [`Permutation`] — the loop-index algebra used by the
//!   analytical model and the pruning analysis,
//! * [`TileSizes`], [`TileConfig`] and [`TilingLevel`] — tile-size vectors for
//!   single- and multi-level tiling, with shape-aware footprints,
//! * [`benchmarks`] — the 32 conv2d operators of Table 1 (Yolo-9000,
//!   ResNet-18, MobileNet — the latter as true depthwise shapes), plus
//!   MobileNetV2 depthwise and DeepLab-style dilated suites,
//! * [`machine`] — memory-hierarchy descriptions (cache capacities,
//!   bandwidths, cores, SIMD width) with presets for the two CPUs used in the
//!   paper's evaluation,
//! * [`layout`] — tensor layout descriptors (NCHW, KCRS and the packed
//!   microkernel layout) and index linearization helpers,
//! * [`canonical`] — cost-preserving normalization of shapes
//!   ([`CanonicalSpec`]) with an invertible schedule rewrite
//!   ([`SpecTransform`]), the key space of the persistent schedule
//!   database (`mopt_db`),
//! * [`spec`] — the generalized problem IR ([`Spec`]): conv, matmul and
//!   pooling computations as one tagged type, each
//!   embedding into the conv2d loop nest so one optimizer and one schedule
//!   database serve all of them.
//!
//! # Example
//!
//! ```
//! use conv_spec::{benchmarks, ConvShape, LoopIndex};
//!
//! let yolo0 = benchmarks::yolo9000()[0].clone();
//! assert_eq!(yolo0.shape.k, 32);
//! // output spatial extent is 542 for a 544x544 input with a 3x3 kernel
//! assert_eq!(yolo0.shape.flops(), 2 * 32 * 3 * 542 * 542 * 3 * 3);
//! assert!(ConvShape::unit(LoopIndex::N).n == 1);
//!
//! // Generalized shapes: a depthwise MobileNet stage and a dilated conv.
//! let dw = ConvShape::depthwise(32, 112, 3, 1);
//! assert!(dw.is_depthwise());
//! assert_eq!(dw.extent(LoopIndex::C), 1);          // per-group reduction
//! assert_eq!(dw.kernel_dims(), (32, 1, 3, 3));     // 1/groups the weights
//!
//! let atrous = ConvShape::from_table1_dilated(64, 64, 33, 3, 1, 2);
//! assert_eq!(atrous.effective_r(), 5);             // (3-1)*2 + 1
//! assert_eq!(atrous.input_h(), 33);
//! ```

#![warn(missing_docs)]

pub mod benchmarks;
pub mod canonical;
pub mod layout;
pub mod machine;
pub mod shape;
pub mod spec;
pub mod tiling;

pub use benchmarks::{BenchmarkOp, BenchmarkSuite};
pub use canonical::{canonicalize, canonicalize_spec, CanonicalSpec, SpecTransform, PAD_QUANTUM};
pub use layout::{KernelLayout, LayoutConfig, PackedKernelLayout, TensorKind, TensorLayout};
pub use machine::{CacheLevel, MachineModel, MemoryLevel};
pub use shape::{ConvShape, LoopIndex, Permutation, ALL_INDICES};
pub use spec::{DType, PoolKind, Spec};
pub use tiling::{ParallelAxis, TileConfig, TileSizes, TilingLevel, NUM_TILING_LEVELS};

/// Fold a user-supplied machine-preset or suite name for table lookup:
/// ASCII-lowercased, with `-`, `_` and spaces removed (`"i7-9700K"` and
/// `"i7_9700k"` are one name).
pub fn normalized_name(name: &str) -> String {
    name.to_ascii_lowercase().replace(['-', '_', ' '], "")
}

/// The one FNV-1a 64-bit hash behind every stable fingerprint and checksum
/// of the workspace (shape, spec, machine and graph fingerprints, database
/// page checksums). Not `std::hash`, whose SipHash keys are randomized per
/// process: database pages persist these values.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

/// The FNV-1a 64-bit offset basis: the hash of the empty string.
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET_BASIS)
    }

    /// Fold `bytes` in, one byte at a time.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold the eight little-endian bytes of `v` in.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Crate-wide error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A tile size was zero or exceeded the corresponding problem extent.
    InvalidTileSize {
        /// The loop index whose tile size is invalid.
        index: LoopIndex,
        /// The offending tile size.
        tile: usize,
        /// The problem (or outer-tile) extent it must not exceed.
        extent: usize,
    },
    /// A permutation did not contain each of the seven loop indices exactly once.
    InvalidPermutation(String),
    /// A shape field was zero.
    InvalidShape(String),
    /// A machine parameter was zero, negative or not finite.
    InvalidMachine(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::InvalidTileSize { index, tile, extent } => {
                write!(f, "invalid tile size {tile} for loop {index:?} (extent {extent})")
            }
            SpecError::InvalidPermutation(msg) => write!(f, "invalid permutation: {msg}"),
            SpecError::InvalidShape(msg) => write!(f, "invalid shape: {msg}"),
            SpecError::InvalidMachine(msg) => write!(f, "invalid machine: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::{Fnv1a, FNV_OFFSET_BASIS};

    #[test]
    fn fnv1a_matches_the_published_64_bit_vectors() {
        for (input, expected) in
            [("", FNV_OFFSET_BASIS), ("a", 0xaf63dc4c8601ec8c), ("foobar", 0x85944171f73967e8)]
        {
            let mut h = Fnv1a::new();
            h.bytes(input.as_bytes());
            assert_eq!(h.finish(), expected, "FNV-1a of {input:?}");
        }
        // `u64` is `bytes` of the little-endian encoding.
        let (mut a, mut b) = (Fnv1a::new(), Fnv1a::new());
        a.u64(0x0102_0304_0506_0708);
        b.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}

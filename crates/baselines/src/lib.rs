//! Vendor-library baseline (the oneDNN stand-in).
//!
//! Intel oneDNN is a closed, hand-tuned vendor library. Table 2 of the paper
//! characterizes it as having a highly optimized microkernel but *minimal
//! design-space exploration*: at run time it chooses among a small number of
//! pre-determined blocking schemes based on the layer dimensions. This crate
//! reproduces that behavioural profile:
//!
//! * [`LibraryPlan`] — the blocking decision (direct tiled convolution vs
//!   im2col + GEMM, with fixed blocking parameters chosen by simple rules on
//!   the layer shape and cache sizes),
//! * [`OneDnnLike`] — plans and executes a convolution with that fixed
//!   heuristic, with no search.
//!
//! The point of the baseline is not to match oneDNN's absolute performance
//! (its microkernel is far more tuned than ours) but to provide a
//! no-exploration, heuristically-blocked competitor so the evaluation can
//! reproduce the *relative* behaviour the paper reports: a comprehensive
//! model-driven search (MOpt) matches or beats a fixed-heuristic library and
//! a budgeted auto-tuner on most layers.

use conv_exec::im2col::{conv2d_im2col, GemmBlocking};
use conv_exec::{Tensor4, TiledConv};
use conv_spec::{
    ConvShape, LoopIndex, MachineModel, Permutation, TileConfig, TileSizes, TilingLevel,
};
use serde::{Deserialize, Serialize};

/// Which execution algorithm the library heuristic selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LibraryAlgorithm {
    /// Direct multi-level tiled convolution with fixed blocking.
    Direct,
    /// im2col expansion followed by a blocked GEMM.
    Im2colGemm,
}

/// The library's (fixed, heuristic) execution plan for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryPlan {
    /// The chosen algorithm.
    pub algorithm: LibraryAlgorithm,
    /// The tiling configuration used by the direct path.
    pub config: TileConfig,
    /// The GEMM blocking used by the im2col path.
    pub gemm: GemmBlocking,
    /// Threads the plan will use.
    pub threads: usize,
}

/// The oneDNN-like baseline library.
#[derive(Debug, Clone)]
pub struct OneDnnLike {
    machine: MachineModel,
}

impl OneDnnLike {
    /// A library instance for a machine.
    pub fn new(machine: MachineModel) -> Self {
        OneDnnLike { machine }
    }

    /// Choose the execution plan for a layer. This is a *fixed* heuristic —
    /// the "minimal design-space exploration" of Table 2: the algorithm is
    /// picked by the kernel size, and blocking factors are derived from the
    /// cache sizes with simple rules, never searched.
    pub fn plan(&self, shape: &ConvShape) -> LibraryPlan {
        let threads = self.machine.threads;
        // Pointwise (1x1) convolutions are pure GEMMs: use im2col.
        let algorithm = if shape.is_pointwise() {
            LibraryAlgorithm::Im2colGemm
        } else {
            LibraryAlgorithm::Direct
        };

        // Fixed blocking rules (register block = SIMD width × a small row
        // count; L1 block sized to roughly half the L1 capacity; L2 block to
        // roughly half of L2).
        let simd = self.machine.simd_width;
        let kb = simd.min(shape.k).max(1);
        let wb = 6.min(shape.w).max(1);
        let register = TileSizes::ones().with(LoopIndex::K, kb).with(LoopIndex::W, wb);

        let l1_cap = self.machine.capacity(TilingLevel::L1) / 2;
        let cb = pick_block(shape.c, 1, 64);
        let hb = pick_block(shape.h, 1, 8);
        let mut l1 = TileSizes::ones()
            .with(LoopIndex::K, kb)
            .with(LoopIndex::C, cb)
            .with(LoopIndex::R, shape.r)
            .with(LoopIndex::S, shape.s)
            .with(LoopIndex::H, hb)
            .with(LoopIndex::W, shape.w.min(28).max(wb));
        l1.halve_to_fit(shape, l1_cap, SHRINK_ORDER);

        let l2_cap = self.machine.capacity(TilingLevel::L2) / 2;
        let mut l2 = TileSizes::ones()
            .with(LoopIndex::K, (4 * kb).min(shape.k))
            .with(LoopIndex::C, shape.c.min(4 * cb))
            .with(LoopIndex::R, shape.r)
            .with(LoopIndex::S, shape.s)
            .with(LoopIndex::H, shape.h.min(4 * hb))
            .with(LoopIndex::W, shape.w);
        l2.halve_to_fit(shape, l2_cap, SHRINK_ORDER);

        let l3 = TileSizes::full(shape);
        let config = TileConfig::new(
            Permutation::parse("nkcrshw").expect("library loop order"),
            [register, l1, l2, l3],
            TileSizes::ones().with(LoopIndex::K, threads.min(shape.k).max(1)),
        )
        .normalized(shape);

        let gemm = GemmBlocking {
            mc: 64.min(shape.k.max(1)),
            kc: 256.min((shape.c * shape.r * shape.s).max(1)),
            nc: 512.min((shape.n * shape.h * shape.w).max(1)),
            mr: 4,
            nr: simd.max(1),
        };
        LibraryPlan { algorithm, config, gemm, threads }
    }

    /// Execute a convolution with the fixed plan.
    pub fn run(&self, shape: &ConvShape, input: &Tensor4, kernel: &Tensor4) -> Tensor4 {
        let plan = self.plan(shape);
        self.run_plan(&plan, shape, input, kernel)
    }

    /// Execute a previously computed plan.
    pub fn run_plan(
        &self,
        plan: &LibraryPlan,
        shape: &ConvShape,
        input: &Tensor4,
        kernel: &Tensor4,
    ) -> Tensor4 {
        match plan.algorithm {
            LibraryAlgorithm::Im2colGemm => {
                conv2d_im2col(shape, input, kernel, &plan.gemm, plan.threads)
            }
            LibraryAlgorithm::Direct => {
                let conv = TiledConv::new(*shape, plan.config.clone(), plan.threads)
                    .expect("library plan is always valid")
                    .with_vec_len(self.machine.simd_width);
                conv.run(input, kernel)
            }
        }
    }
}

/// Which blocks a level over its capacity budget gives up first: the largest
/// of the channel/spatial ones, reduction channels before output channels.
const SHRINK_ORDER: [LoopIndex; 4] = [LoopIndex::C, LoopIndex::K, LoopIndex::H, LoopIndex::W];

/// Pick a block size for an extent: the largest power of two `<= max` that
/// divides or fits the extent, at least `min`.
fn pick_block(extent: usize, min: usize, max: usize) -> usize {
    let mut b = 1;
    while b * 2 <= max && b * 2 <= extent {
        b *= 2;
    }
    b.max(min).min(extent.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_exec::naive::conv2d_naive;

    fn machine() -> MachineModel {
        MachineModel::i7_9700k()
    }

    #[test]
    fn pointwise_layers_use_gemm_and_others_use_direct() {
        let lib = OneDnnLike::new(machine());
        let pointwise = ConvShape::new(1, 64, 32, 1, 1, 17, 17, 1).unwrap();
        let spatial = ConvShape::new(1, 64, 32, 3, 3, 17, 17, 1).unwrap();
        assert_eq!(lib.plan(&pointwise).algorithm, LibraryAlgorithm::Im2colGemm);
        assert_eq!(lib.plan(&spatial).algorithm, LibraryAlgorithm::Direct);
    }

    #[test]
    fn plans_are_valid_configurations() {
        let lib = OneDnnLike::new(machine());
        for op in conv_spec::benchmarks::scaled_operators(28, 128) {
            let plan = lib.plan(&op.shape);
            assert!(plan.config.validate(&op.shape).is_ok(), "invalid plan for {}", op.name);
            assert!(plan.threads >= 1);
        }
    }

    #[test]
    fn l1_block_fits_half_of_l1() {
        let lib = OneDnnLike::new(machine());
        let shape = ConvShape::new(1, 256, 256, 3, 3, 28, 28, 1).unwrap();
        let plan = lib.plan(&shape);
        let l1_tile = plan.config.level(TilingLevel::L1);
        assert!(l1_tile.footprint(&shape) <= lib.machine.capacity(TilingLevel::L1) / 2);
    }

    #[test]
    fn direct_path_matches_naive() {
        let lib = OneDnnLike::new(machine());
        let shape = ConvShape::new(1, 12, 6, 3, 3, 9, 9, 1).unwrap();
        let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 71);
        let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 72);
        let expected = conv2d_naive(&shape, &input, &kernel);
        let got = lib.run(&shape, &input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn gemm_path_matches_naive() {
        let lib = OneDnnLike::new(machine());
        let shape = ConvShape::new(1, 8, 8, 1, 1, 10, 10, 1).unwrap();
        let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 81);
        let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 82);
        let expected = conv2d_naive(&shape, &input, &kernel);
        let got = lib.run(&shape, &input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn strided_layer_plan_and_execution() {
        let lib = OneDnnLike::new(machine());
        let shape = ConvShape::from_table1(16, 8, 15, 3, 2);
        let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 91);
        let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 92);
        let expected = conv2d_naive(&shape, &input, &kernel);
        let got = lib.run(&shape, &input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn depthwise_and_dilated_layers_plan_and_execute_correctly() {
        let lib = OneDnnLike::new(machine());
        for shape in [
            ConvShape::depthwise(8, 11, 3, 1),
            ConvShape::depthwise(8, 11, 3, 2),
            ConvShape::from_table1_dilated(6, 4, 13, 3, 1, 2),
        ] {
            let plan = lib.plan(&shape);
            assert!(plan.config.validate(&shape).is_ok(), "invalid plan for {shape}");
            let (ni, ci, hi, wi) = shape.input_dims();
            let (kk, kc, kr, ks) = shape.kernel_dims();
            let input = Tensor4::random(ni, ci, hi, wi, 95);
            let kernel = Tensor4::random(kk, kc, kr, ks, 96);
            let expected = conv2d_naive(&shape, &input, &kernel);
            let got = lib.run(&shape, &input, &kernel);
            assert!(expected.allclose(&got, 1e-4), "{shape}");
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let lib = OneDnnLike::new(machine());
        let shape = ConvShape::new(1, 64, 64, 3, 3, 28, 28, 1).unwrap();
        assert_eq!(lib.plan(&shape), lib.plan(&shape));
    }

    #[test]
    fn pick_block_behaviour() {
        assert_eq!(pick_block(64, 1, 64), 64);
        assert_eq!(pick_block(48, 1, 64), 32);
        assert_eq!(pick_block(3, 1, 64), 2);
        assert_eq!(pick_block(1, 1, 64), 1);
    }
}

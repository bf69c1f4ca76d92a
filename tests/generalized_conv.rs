//! Property tests for the generalized (strided × dilated × grouped)
//! convolution support.
//!
//! Two families of properties:
//!
//! 1. **Legacy equivalence** — for `dilation == 1, groups == 1` shapes the
//!    generalized code paths must be *bit-identical* to the pre-generalization
//!    implementation: the cost model is compared against an inline copy of the
//!    pre-change expressions with exact (`==`) floating-point equality, the
//!    reference executor against an inline copy of the pre-change seven-loop
//!    nest with exact output equality, and shapes parsed from legacy wire JSON
//!    (no `dilation`/`groups` fields) must produce identical schedules.
//! 2. **Generalized correctness** — across a random strided × dilated ×
//!    grouped grid, the naive reference, the multi-level tiled executor, and
//!    the im2col+GEMM path must agree.

use proptest::prelude::*;

use mopt_repro::conv_exec::im2col::{conv2d_im2col, GemmBlocking};
use mopt_repro::conv_exec::naive::conv2d_naive;
use mopt_repro::conv_exec::{Tensor4, TiledConv};
use mopt_repro::conv_spec::MachineModel;
use mopt_repro::conv_spec::{
    ConvShape, LoopIndex, Permutation, TileConfig, TileSizes, ALL_INDICES,
};
use mopt_repro::mopt_core::optimizer::{MOptOptimizer, OptimizerOptions};
use mopt_repro::mopt_model::cost::{single_level_volume, total_footprint, ArrayVolumes, RealTiles};

// ---------------------------------------------------------------------------
// Inline copies of the pre-generalization implementations (the "pre-change
// path"), used as exact references for dense shapes.
// ---------------------------------------------------------------------------

/// The seed's single-level volume expressions at element granularity, verbatim
/// (dense semantics only).
fn legacy_single_level_volume(
    shape: &ConvShape,
    perm: &Permutation,
    tiles: &RealTiles,
) -> ArrayVolumes {
    let extents = RealTiles::from_array(shape.extents().map(|v| v as f64));
    let t = tiles.clamped(&extents.as_array());
    let stride = shape.stride as f64;

    let reuse_position = |present: &dyn Fn(LoopIndex) -> bool| -> usize {
        perm.inner_to_outer()
            .iter()
            .enumerate()
            .find(|(_, idx)| present(**idx))
            .map(|(i, _)| i + 1)
            .expect("present index")
    };
    let trip_product = |from_pos: usize| -> f64 {
        let inner = perm.inner_to_outer();
        let mut prod = 1.0;
        for (i, idx) in inner.iter().enumerate() {
            if i + 1 >= from_pos {
                let n = extents.get(*idx);
                let tt = t.get(*idx).max(1e-12);
                prod *= (n / tt).max(1.0);
            }
        }
        prod
    };

    let r_out = reuse_position(&|i: LoopIndex| i.present_in_output());
    let out_fp =
        t.get(LoopIndex::N) * t.get(LoopIndex::K) * t.get(LoopIndex::H) * t.get(LoopIndex::W);
    let out_vol = 2.0 * trip_product(r_out) * out_fp;

    let r_ker = reuse_position(&|i: LoopIndex| i.present_in_kernel());
    let ker_fp =
        t.get(LoopIndex::K) * t.get(LoopIndex::C) * t.get(LoopIndex::R) * t.get(LoopIndex::S);
    let ker_vol = trip_product(r_ker) * ker_fp;

    let r_in = reuse_position(&|i: LoopIndex| i.present_in_input());
    let at_r_in = perm.inner_to_outer()[r_in - 1];
    let outer_prod = trip_product(r_in + 1);
    let tn = t.get(LoopIndex::N);
    let tc = t.get(LoopIndex::C);
    let th = t.get(LoopIndex::H);
    let tw = t.get(LoopIndex::W);
    let tr = t.get(LoopIndex::R);
    let ts = t.get(LoopIndex::S);
    let nh = extents.get(LoopIndex::H);
    let nw = extents.get(LoopIndex::W);
    let nr = extents.get(LoopIndex::R);
    let ns = extents.get(LoopIndex::S);
    let rows_tile = (th - 1.0) * stride + tr;
    let cols_tile = (tw - 1.0) * stride + ts;
    let in_vol = match at_r_in {
        LoopIndex::N | LoopIndex::C => {
            let in_fp = tn * tc * rows_tile * cols_tile;
            trip_product(r_in) * in_fp
        }
        LoopIndex::W => {
            let partial = tn * tc * rows_tile * (stride * (nw - tw).max(0.0));
            let first = tn * tc * rows_tile * cols_tile;
            outer_prod * (partial + first)
        }
        LoopIndex::S => {
            let partial = tn * tc * rows_tile * (ns - ts).max(0.0);
            let first = tn * tc * rows_tile * cols_tile;
            outer_prod * (partial + first)
        }
        LoopIndex::H => {
            let partial = tn * tc * (stride * (nh - th).max(0.0)) * cols_tile;
            let first = tn * tc * rows_tile * cols_tile;
            outer_prod * (partial + first)
        }
        LoopIndex::R => {
            let partial = tn * tc * (nr - tr).max(0.0) * cols_tile;
            let first = tn * tc * rows_tile * cols_tile;
            outer_prod * (partial + first)
        }
        LoopIndex::K => unreachable!("k is never present in the input tensor"),
    };

    ArrayVolumes { input: in_vol, kernel: ker_vol, output: out_vol }
}

/// The seed's reference convolution, verbatim (dense semantics only).
fn legacy_conv2d_naive(shape: &ConvShape, input: &Tensor4, kernel: &Tensor4) -> Tensor4 {
    let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
    for n in 0..shape.n {
        for k in 0..shape.k {
            for c in 0..shape.c {
                for r in 0..shape.r {
                    for s in 0..shape.s {
                        for h in 0..shape.h {
                            for w in 0..shape.w {
                                let x = input.at(n, c, h * shape.stride + r, w * shape.stride + s);
                                let kv = kernel.at(k, c, r, s);
                                *out.at_mut(n, k, h, w) += x * kv;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A dense (dilation 1, groups 1) shape, as the seed generated them.
fn dense_shape_strategy() -> impl Strategy<Value = ConvShape> {
    (
        1usize..=2,
        1usize..=10,
        1usize..=10,
        1usize..=3,
        1usize..=3,
        2usize..=9,
        2usize..=9,
        1usize..=2,
    )
        .prop_map(|(n, k, c, r, s, h, w, stride)| {
            ConvShape::new(n, k, c, r, s, h, w, stride).expect("valid dense shape")
        })
}

/// A generalized shape drawn from the strided × dilated × grouped grid.
/// Channel counts are built as multiples of the group count so the shape is
/// always valid; depthwise (`groups == c == k`) arises when both per-group
/// counts draw 1 with `groups > 1`.
fn general_shape_strategy() -> impl Strategy<Value = ConvShape> {
    (
        1usize..=2, // n
        1usize..=3, // k per group
        1usize..=3, // c per group
        1usize..=4, // groups
        1usize..=3, // r = s
        2usize..=7, // h = w
        1usize..=2, // stride
        1usize..=3, // dilation
    )
        .prop_map(|(n, kpg, cpg, groups, rs, hw, stride, dilation)| {
            ConvShape::new_general(
                n,
                kpg * groups,
                cpg * groups,
                rs,
                rs,
                hw,
                hw,
                stride,
                dilation,
                groups,
            )
            .expect("valid generalized shape")
        })
}

fn permutation_strategy() -> impl Strategy<Value = Permutation> {
    (0usize..5040).prop_map(|i| Permutation::enumerate_all()[i].clone())
}

/// Deterministic pseudo-random tiles from a seed (nested per level).
fn seeded_config(shape: &ConvShape, perm: Permutation, seed: u64) -> TileConfig {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    let mut level = |outer: [usize; 7]| {
        let mut t = TileSizes::ones();
        for (j, &idx) in ALL_INDICES.iter().enumerate() {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let e = outer[j] as u64;
            t.set(idx, ((state >> 33) % e + 1) as usize);
        }
        t
    };
    let l3 = level(shape.extents());
    let l2 = level(l3.as_array());
    let l1 = level(l2.as_array());
    let reg = level(l1.as_array());
    TileConfig::new(perm, [reg, l1, l2, l3], TileSizes::ones()).normalized(shape)
}

fn random_tensors(shape: &ConvShape, seed: u64) -> (Tensor4, Tensor4) {
    let (ni, ci, hi, wi) = shape.input_dims();
    let (kk, kc, kr, ks) = shape.kernel_dims();
    (Tensor4::random(ni, ci, hi, wi, seed), Tensor4::random(kk, kc, kr, ks, seed + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Cost model, dense shapes: the generalized expressions equal the
    /// seed's expressions **exactly** (same floating-point values, not just
    /// within tolerance), for every permutation and random tile sizes.
    #[test]
    fn dense_cost_model_values_are_bit_identical(
        shape in dense_shape_strategy(),
        perm in permutation_strategy(),
        fracs in proptest::array::uniform7(0.0f64..1.0),
    ) {
        let mut tiles = RealTiles::ones();
        for (j, &idx) in ALL_INDICES.iter().enumerate() {
            let e = shape.extent(idx) as f64;
            tiles.set(idx, 1.0 + fracs[j] * (e - 1.0));
        }
        let general = single_level_volume(&shape, &perm, &tiles);
        let legacy = legacy_single_level_volume(&shape, &perm, &tiles);
        prop_assert!(general.input == legacy.input,
            "input volume differs: {} vs legacy {}", general.input, legacy.input);
        prop_assert!(general.kernel == legacy.kernel,
            "kernel volume differs: {} vs legacy {}", general.kernel, legacy.kernel);
        prop_assert!(general.output == legacy.output,
            "output volume differs: {} vs legacy {}", general.output, legacy.output);
        // The capacity-constraint footprint is exact too (both forms).
        let legacy_rows = (tiles.get(LoopIndex::H) - 1.0) * shape.stride as f64
            + tiles.get(LoopIndex::R);
        let legacy_cols = (tiles.get(LoopIndex::W) - 1.0) * shape.stride as f64
            + tiles.get(LoopIndex::S);
        let legacy_fp = tiles.get(LoopIndex::N) * tiles.get(LoopIndex::C)
            * legacy_rows * legacy_cols
            + tiles.get(LoopIndex::K) * tiles.get(LoopIndex::C)
                * tiles.get(LoopIndex::R) * tiles.get(LoopIndex::S)
            + tiles.get(LoopIndex::N) * tiles.get(LoopIndex::K)
                * tiles.get(LoopIndex::H) * tiles.get(LoopIndex::W);
        prop_assert!(total_footprint(&shape, &tiles) == legacy_fp);
    }

    /// Execution, dense shapes: the generalized reference convolution is
    /// bit-identical to the seed's seven-loop nest (same loop order, same
    /// operations ⇒ same `f32` results, compared with `==`).
    #[test]
    fn dense_naive_execution_is_bit_identical(
        shape in dense_shape_strategy(),
        seed in 0u64..10_000,
    ) {
        prop_assume!(shape.flops() <= 400_000);
        let (input, kernel) = random_tensors(&shape, seed);
        let general = conv2d_naive(&shape, &input, &kernel);
        let legacy = legacy_conv2d_naive(&shape, &input, &kernel);
        prop_assert!(general.as_slice() == legacy.as_slice(),
            "naive outputs differ bitwise for {shape}");
    }

    /// Schedules, dense shapes: a shape parsed from legacy wire JSON (no
    /// `dilation`/`groups` fields) is the same shape and produces the exact
    /// same optimizer result (bit-identical predicted costs and tiles).
    #[test]
    fn dense_schedules_match_legacy_wire_shapes(
        kc in 2usize..=8,
        hw in 6usize..=12,
        stride in 1usize..=2,
    ) {
        let shape = ConvShape::from_table1(2 * kc, kc, hw + 3, 3, stride);
        let legacy_json = format!(
            "{{\"n\":{},\"k\":{},\"c\":{},\"r\":{},\"s\":{},\"h\":{},\"w\":{},\"stride\":{}}}",
            shape.n, shape.k, shape.c, shape.r, shape.s, shape.h, shape.w, shape.stride
        );
        let parsed: ConvShape = serde_json::from_str(&legacy_json).expect("legacy JSON parses");
        prop_assert_eq!(parsed, shape);
        let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() };
        let machine = MachineModel::tiny_test_machine();
        let a = MOptOptimizer::new(shape, machine.clone(), options.clone()).optimize();
        let b = MOptOptimizer::new(parsed, machine, options).optimize();
        prop_assert_eq!(a.ranked, b.ranked);
    }

    /// Correctness grid: naive vs tiled vs im2col across random
    /// strided × dilated × grouped shapes, permutations, tile sizes, and
    /// thread counts.
    #[test]
    fn executors_agree_on_the_generalized_grid(
        shape in general_shape_strategy(),
        perm in permutation_strategy(),
        seed in 0u64..10_000,
        threads in 1usize..=3,
    ) {
        prop_assume!(shape.flops() <= 400_000);
        let (input, kernel) = random_tensors(&shape, seed);
        let reference = conv2d_naive(&shape, &input, &kernel);

        let config = seeded_config(&shape, perm, seed);
        let tiled = TiledConv::new(shape, config, threads).unwrap().run(&input, &kernel);
        prop_assert!(reference.allclose(&tiled, 1e-3),
            "tiled executor diverges for {shape} (threads {threads}): max diff {}",
            reference.max_abs_diff(&tiled));

        let gemm = conv2d_im2col(&shape, &input, &kernel, &GemmBlocking::default(), threads);
        prop_assert!(reference.allclose(&gemm, 1e-3),
            "im2col executor diverges for {shape} (threads {threads}): max diff {}",
            reference.max_abs_diff(&gemm));
    }

    /// The generalized footprint agrees between the integer (`TileSizes`)
    /// and continuous (`RealTiles`) forms whenever the K tile does not split
    /// a group (where the integer form's ceil and the continuous ratio
    /// coincide) — in particular always for dense and depthwise shapes.
    #[test]
    fn footprints_agree_for_aligned_k_tiles(
        shape in general_shape_strategy(),
        fracs in proptest::array::uniform7(0.0f64..1.0),
    ) {
        let mut tiles = TileSizes::ones();
        for (j, &idx) in ALL_INDICES.iter().enumerate() {
            let e = shape.extent(idx);
            tiles.set(idx, ((fracs[j] * e as f64).floor() as usize + 1).min(e));
        }
        // Align the K tile to a whole number of groups.
        let k_per_group = shape.k_per_group().max(1);
        let k_groups = tiles.get(LoopIndex::K).div_ceil(k_per_group);
        tiles.set(LoopIndex::K, (k_groups * k_per_group).min(shape.k));
        let real: RealTiles = (&tiles).into();
        let model_fp = total_footprint(&shape, &real);
        let spec_fp = tiles.footprint(&shape) as f64;
        prop_assert!((model_fp - spec_fp).abs() < 1e-9,
            "footprints diverge for {shape}: model {model_fp} vs spec {spec_fp}");
    }
}

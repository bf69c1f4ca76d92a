//! An independent oracle for the executor's floating-point order.
//!
//! A schedule fixes, for every output element, the order in which its
//! `C·R·S` partial products are added: the `c`/`r`/`s` tile loops of the L3,
//! L2, L1 and register levels in the permutation's order, then `c`, `r`, `s`
//! ascending inside a register tile. The `n`/`k`/`h`/`w` loops only decide
//! *when* an element is worked on, never the order of its own sum. The oracle
//! walks exactly those loops per output element and accumulates with the
//! multiply–accumulate it is given; it shares no code with the kernel, the
//! tile walk or the packing. `SimdBackend::Scalar` must match it to the bit
//! under `acc + x * k` — which is also what "bit-identical to the executor
//! this kernel replaced" means, since that executor accumulated in this
//! order — and `SimdBackend::Avx2Fma` under `f32::mul_add`, on every CPU
//! that reports avx2+fma.

use conv_spec::{
    ConvShape, LayoutConfig, LoopIndex, Permutation, TileConfig, TileSizes, TilingLevel,
};
use proptest::prelude::*;

use crate::{detected_backend, NchwcConv, SimdBackend, Tensor4, TiledConv};

const REDUCTION: [LoopIndex; 3] = [LoopIndex::C, LoopIndex::R, LoopIndex::S];

/// One multiply–accumulate step, `(acc, x, k) -> acc'`.
type Mac = fn(f32, f32, f32) -> f32;

/// `acc + x * k`: two roundings, what [`SimdBackend::Scalar`] computes.
fn two_roundings(acc: f32, x: f32, k: f32) -> f32 {
    acc + x * k
}

/// `fma(x, k, acc)`: one rounding, what [`SimdBackend::Avx2Fma`] computes.
fn fused(acc: f32, x: f32, k: f32) -> f32 {
    x.mul_add(k, acc)
}

/// The backends this CPU runs, each with the MAC that reproduces it.
fn backends() -> Vec<(SimdBackend, Mac)> {
    let mut all: Vec<(SimdBackend, Mac)> = vec![(SimdBackend::Scalar, two_roundings)];
    if detected_backend() == SimdBackend::Avx2Fma {
        all.push((SimdBackend::Avx2Fma, fused));
    }
    all
}

/// Append the `(c, r, s)` visits of `ranges` (indexed like [`REDUCTION`])
/// under the tile loops of `levels`, outermost level first.
fn visits(
    config: &TileConfig,
    levels: &[TilingLevel],
    ranges: [(usize, usize); 3],
    out: &mut Vec<(usize, usize, usize)>,
) {
    let Some((&level, inner)) = levels.split_first() else {
        let [c, r, s] = ranges;
        for c in c.0..c.0 + c.1 {
            for r in r.0..r.0 + r.1 {
                for s in s.0..s.0 + s.1 {
                    out.push((c, r, s));
                }
            }
        }
        return;
    };
    // This level's loops over c/r/s, in the permutation's relative order.
    let dims: Vec<usize> = config
        .permutation
        .outer_to_inner()
        .iter()
        .filter_map(|idx| REDUCTION.iter().position(|r| r == idx))
        .collect();
    let tile = |dim: usize| config.level(level).get(REDUCTION[dim]);
    let (d0, d1, d2) = (dims[0], dims[1], dims[2]);
    let mut o0 = 0;
    while o0 < ranges[d0].1 {
        let mut o1 = 0;
        while o1 < ranges[d1].1 {
            let mut o2 = 0;
            while o2 < ranges[d2].1 {
                let mut sub = ranges;
                sub[d0] = (ranges[d0].0 + o0, tile(d0).min(ranges[d0].1 - o0));
                sub[d1] = (ranges[d1].0 + o1, tile(d1).min(ranges[d1].1 - o1));
                sub[d2] = (ranges[d2].0 + o2, tile(d2).min(ranges[d2].1 - o2));
                visits(config, inner, sub, out);
                o2 += tile(d2);
            }
            o1 += tile(d1);
        }
        o0 += tile(d0);
    }
}

/// The convolution with every output element summed in the schedule's order
/// by `mac`.
fn oracle(
    shape: &ConvShape,
    config: &TileConfig,
    input: &Tensor4,
    kernel: &Tensor4,
    mac: Mac,
) -> Tensor4 {
    let levels = [TilingLevel::L3, TilingLevel::L2, TilingLevel::L1, TilingLevel::Register];
    let mut order = Vec::new();
    visits(config, &levels, [(0, shape.reduction_c()), (0, shape.r), (0, shape.s)], &mut order);
    assert_eq!(order.len(), shape.reduction_c() * shape.r * shape.s);
    let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
    for n in 0..shape.n {
        for k in 0..shape.k {
            let first_channel = (k / (shape.k / shape.groups)) * (shape.c / shape.groups);
            for h in 0..shape.h {
                for w in 0..shape.w {
                    let mut acc = 0.0f32;
                    for &(c, r, s) in &order {
                        let x = input.at(
                            n,
                            first_channel + c,
                            h * shape.stride + r * shape.dilation,
                            w * shape.stride + s * shape.dilation,
                        );
                        acc = mac(acc, x, kernel.at(k, c, r, s));
                    }
                    *out.at_mut(n, k, h, w) = acc;
                }
            }
        }
    }
    out
}

fn operands(shape: &ConvShape, seed: u64) -> (Tensor4, Tensor4) {
    let (ni, ci, hi, wi) = shape.input_dims();
    let (kk, kc, kr, ks) = shape.kernel_dims();
    (Tensor4::random(ni, ci, hi, wi, seed), Tensor4::random(kk, kc, kr, ks, seed + 1))
}

fn bits(t: &Tensor4) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn config(perm: &str, tiles: [[usize; 7]; 4]) -> TileConfig {
    TileConfig::new(
        Permutation::parse(perm).unwrap(),
        tiles.map(TileSizes::from_array),
        TileSizes::ones(),
    )
}

/// `TiledConv` on every backend the CPU runs — at each thread count given —
/// against the oracle with that backend's MAC, bit for bit.
fn assert_matches_oracle(shape: ConvShape, cfg: TileConfig, threads: &[usize], what: &str) {
    let (input, kernel) = operands(&shape, 31);
    let cfg = cfg.normalized(&shape);
    for (backend, mac) in backends() {
        let expected = bits(&oracle(&shape, &cfg, &input, &kernel, mac));
        for &t in threads {
            let conv = TiledConv::new(shape, cfg.clone(), t).unwrap().with_backend(backend);
            assert_eq!(
                bits(&conv.run(&input, &kernel)),
                expected,
                "{what}: {backend}, threads {t}"
            );
        }
    }
}

/// Tiles that divide nothing, at every level, under a permutation that
/// interleaves reduction and output loops.
const RAGGED: [[usize; 7]; 4] =
    [[1, 3, 2, 2, 1, 2, 3], [1, 5, 3, 2, 2, 3, 4], [2, 7, 5, 3, 2, 5, 7], [2, 11, 7, 3, 3, 7, 9]];

#[test]
fn strided_and_dilated_schedules_match_the_oracle() {
    for (stride, dilation) in [(2, 1), (1, 2), (2, 2)] {
        let shape = ConvShape::new_general(2, 13, 7, 3, 3, 8, 10, stride, dilation, 1).unwrap();
        for perm in ["kcrsnhw", "nchrswk", "srnkhcw"] {
            assert_matches_oracle(
                shape,
                config(perm, RAGGED),
                &[1, 3],
                &format!("stride {stride} dilation {dilation} perm {perm}"),
            );
        }
    }
}

#[test]
fn k_ranges_straddling_conv_groups_and_packed_vectors_match_the_oracle() {
    // Six channels per conv group, eight per packed vector, K tiles of five
    // (and of three below them): ranges cross both kinds of boundary, and
    // leave single-lane blocks.
    let shape = ConvShape::new_general(1, 18, 12, 3, 3, 6, 7, 1, 1, 3).unwrap();
    let tiles = [
        [1, 3, 2, 1, 2, 2, 3],
        [1, 5, 3, 2, 2, 3, 4],
        [1, 10, 4, 3, 3, 6, 7],
        [1, 18, 4, 3, 3, 6, 7],
    ];
    for perm in ["nkhwcsr", "crknshw"] {
        assert_matches_oracle(shape, config(perm, tiles), &[1, 2], perm);
    }
}

#[test]
fn depthwise_schedules_match_the_oracle() {
    // Rows of 11 (a whole pixel vector and a partial one) and of 3.
    for stride in [1, 2] {
        let shape = ConvShape::depthwise(10, 13, 3, stride);
        let long_rows = [
            [1, 1, 1, 2, 2, 3, 11],
            [1, 1, 1, 2, 2, 4, 11],
            [1, 4, 1, 3, 3, 5, 11],
            [1, 10, 1, 3, 3, 11, 11],
        ];
        let short_rows = [
            [1, 1, 1, 3, 1, 3, 2],
            [1, 3, 1, 3, 2, 3, 3],
            [1, 3, 1, 3, 3, 6, 6],
            [1, 10, 1, 3, 3, 11, 11],
        ];
        for tiles in [long_rows, short_rows] {
            assert_matches_oracle(
                shape,
                config("nchrswk", tiles),
                &[1, 2],
                &format!("depthwise stride {stride}"),
            );
        }
    }
}

#[test]
fn non_dividing_tiles_at_every_level_match_the_oracle() {
    let shape = ConvShape::new(2, 13, 9, 3, 3, 9, 11, 1).unwrap();
    for perm in ["kcrsnhw", "nkhwcrs", "hcwrksn"] {
        assert_matches_oracle(shape, config(perm, RAGGED), &[1, 2], perm);
    }
}

#[test]
fn a_register_tile_of_more_than_1024_outputs_matches_the_oracle() {
    // 16 · 12 · 12 = 2304 outputs in one register tile, reduction cut below.
    let shape = ConvShape::new(1, 16, 6, 3, 3, 12, 12, 1).unwrap();
    let reg = [1, 16, 2, 2, 1, 12, 12];
    let cfg = config("kcrsnhw", [reg, reg, [1, 16, 4, 3, 2, 12, 12], [1, 16, 6, 3, 3, 12, 12]]);
    let outputs: usize = [0, 1, 5, 6].iter().map(|&d| reg[d]).product();
    assert!(outputs > 1024);
    assert_matches_oracle(shape, cfg, &[1], "large register tile");
}

#[test]
fn the_fused_backend_matches_the_mul_add_oracle_on_every_block_shape() {
    if detected_backend() != SimdBackend::Avx2Fma {
        eprintln!("skipping: CPU does not report avx2+fma");
        return;
    }
    // 40 and 2 × 20 output channels: K ranges holding two whole 8-lane
    // chunks of one conv group, next to chunks cut by a group edge.
    let dense = ConvShape::new(2, 40, 6, 3, 3, 5, 9, 1).unwrap();
    let grouped = ConvShape::new_general(1, 40, 8, 3, 3, 4, 6, 1, 1, 2).unwrap();
    let wide_k = [
        [1, 8, 2, 2, 1, 2, 3],
        [1, 24, 3, 2, 2, 3, 7],
        [2, 40, 5, 3, 2, 5, 9],
        [2, 40, 8, 3, 3, 5, 9],
    ];
    for (shape, what) in [(dense, "dense, k 40"), (grouped, "two groups of k 20")] {
        for perm in ["kcrsnhw", "nkhwcsr"] {
            assert_matches_oracle(shape, config(perm, wide_k), &[1, 2], what);
        }
    }
    // `c` and `r` tile loops below the last output loop: the L1 tile's
    // reduction is cut finer than the L2 tile's.
    let shape = ConvShape::new(1, 32, 12, 3, 3, 6, 10, 1).unwrap();
    let trailing = [
        [1, 8, 2, 1, 3, 2, 3],
        [1, 16, 3, 2, 3, 3, 10],
        [1, 32, 8, 3, 3, 6, 10],
        [1, 32, 12, 3, 3, 6, 10],
    ];
    assert_matches_oracle(shape, config("nkhwcrs", trailing), &[1, 2], "trailing c, r");
    // Depthwise rows of 20, 27 and 40 pixels, dilated and not: two, three
    // and five whole pixel vectors, then a partial one or none.
    for (w, dilation) in [(20, 1), (27, 2), (27, 1), (40, 1)] {
        let shape = ConvShape::new_general(1, 6, 6, 3, 3, 4, w, 1, dilation, 6).unwrap();
        let rows = [
            [1, 1, 1, 3, 3, 1, w],
            [1, 2, 1, 3, 3, 2, w],
            [1, 6, 1, 3, 3, 4, w],
            [1, 6, 1, 3, 3, 4, w],
        ];
        let what = format!("depthwise rows of {w}, dilation {dilation}");
        assert_matches_oracle(shape, config("nchrswk", rows), &[1, 2], &what);
    }
}

#[test]
fn nchwc_conv_matches_the_oracle() {
    for (groups, stride, dilation) in [(1, 1, 1), (3, 1, 1), (1, 2, 2), (9, 1, 1)] {
        let shape = ConvShape::new_general(2, 9, 9, 3, 3, 6, 7, stride, dilation, groups).unwrap();
        let (input, kernel) = operands(&shape, 77);
        for c_block in [4, 8] {
            let cfg = config("nkhwcsr", RAGGED)
                .normalized(&shape)
                .with_layout(LayoutConfig::blocked(c_block));
            let conv = NchwcConv::new(shape, cfg.clone(), 1).unwrap();
            let got = conv.with_backend(SimdBackend::Scalar).run(&input, &kernel);
            assert_eq!(
                bits(&got),
                bits(&oracle(&shape, &cfg, &input, &kernel, two_roundings)),
                "groups {groups} stride {stride} dilation {dilation} c_block {c_block}"
            );
        }
    }
}

/// A small shape, a permutation and four levels of tiles, all unconstrained:
/// `TileConfig::normalized` makes the tiles nest.
fn schedule_strategy() -> impl Strategy<Value = (ConvShape, TileConfig)> {
    // Up to 24 output channels per group (two whole 8-lane chunks) and rows
    // of up to 20 pixels (several pixel vectors and a partial last one).
    let shape = (
        (1usize..=2, 1usize..=24, 1usize..=4, 1usize..=3),
        (1usize..=3, 1usize..=3, 1usize..=6, 1usize..=20),
        (1usize..=2, 1usize..=2),
    );
    let tile = || prop::array::uniform7(1usize..=24);
    (shape, 0usize..5040, (tile(), tile(), tile(), tile())).prop_map(
        |(((n, k_per, c_per, groups), (r, s, h, w), (stride, dilation)), perm, tiles)| {
            let shape = ConvShape::new_general(
                n,
                k_per * groups,
                c_per * groups,
                r,
                s,
                h,
                w,
                stride,
                dilation,
                groups,
            )
            .expect("groups divide both channel counts");
            let cfg = TileConfig::new(
                Permutation::enumerate_all()[perm].clone(),
                [tiles.0, tiles.1, tiles.2, tiles.3].map(TileSizes::from_array),
                TileSizes::ones(),
            );
            (shape, cfg.normalized(&shape))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_schedules_match_the_oracle(
        schedule in schedule_strategy(),
        threads in 1usize..=3,
    ) {
        let (shape, cfg) = schedule;
        let (input, kernel) = operands(&shape, 5);
        for (backend, mac) in backends() {
            let conv = TiledConv::new(shape, cfg.clone(), threads).unwrap().with_backend(backend);
            prop_assert_eq!(
                bits(&conv.run(&input, &kernel)),
                bits(&oracle(&shape, &cfg, &input, &kernel, mac))
            );
        }
    }
}

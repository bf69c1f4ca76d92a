//! Property tests for the multicore model and the parallel executors.
//!
//! Two families of properties:
//!
//! 1. **Sequential bit-identity** — at `threads == 1` the contention-aware
//!    multicore model must be *bit-identical* to the pre-multicore
//!    expressions: per-level volumes, capacity slacks, and bandwidth-scaled
//!    costs are compared against inline copies of the sequential assembly
//!    (count × single-level volume; footprint minus the *whole* cache
//!    capacity) with exact (`==`) floating-point equality. The single-level
//!    volume expressions themselves are pinned separately by
//!    `tests/generalized_conv.rs`.
//! 2. **Parallel execution exactness** — across a randomized shape × stride
//!    × dilation × groups × thread-count grid (thread counts deliberately
//!    exceeding the partitioned extents), [`ParTiledConv`] on both parallel
//!    axes is bit-for-bit equal to the sequential [`TiledConv`] walk.

use proptest::prelude::*;

use mopt_repro::conv_exec::{ParTiledConv, Tensor4, TiledConv};
use mopt_repro::conv_spec::{
    ConvShape, MachineModel, Permutation, TileConfig, TileSizes, TilingLevel, ALL_INDICES,
};
use mopt_repro::mopt_model::cost::{single_level_volume_general, total_footprint};
use mopt_repro::mopt_model::multilevel::{MultiLevelModel, MultiLevelTiles, ParallelSpec};

// ---------------------------------------------------------------------------
// Inline copy of the pre-multicore (sequential) multi-level assembly, used as
// an exact reference at threads == 1.
// ---------------------------------------------------------------------------

/// The seed's sequential per-level volume assembly, verbatim:
/// `count(outer tiles) × single_level_volume(extents = outer tiles)`.
fn legacy_level_volume(
    shape: &ConvShape,
    perm: &Permutation,
    tiles: &MultiLevelTiles,
    level: TilingLevel,
) -> f64 {
    let tiles = tiles.normalized(shape);
    let extents = match level.outer() {
        None => mopt_repro::mopt_model::cost::RealTiles::full(shape),
        Some(outer) => *tiles.level(outer),
    };
    let per_outer = single_level_volume_general(shape, perm, tiles.level(level), &extents).total();
    let count: f64 = match level.outer() {
        None => 1.0,
        Some(outer) => {
            let t_outer = tiles.level(outer);
            ALL_INDICES
                .iter()
                .map(|&idx| (shape.extent(idx) as f64 / t_outer.get(idx).max(1e-12)).max(1.0))
                .product()
        }
    };
    count * per_outer
}

/// The seed's sequential capacity slack: raw tile footprint minus the whole
/// cache capacity.
fn legacy_capacity_slack(
    shape: &ConvShape,
    machine: &MachineModel,
    tiles: &MultiLevelTiles,
    level: TilingLevel,
) -> f64 {
    total_footprint(shape, tiles.level(level)) - machine.capacity(level) as f64
}

// ---------------------------------------------------------------------------
// Strategies and helpers
// ---------------------------------------------------------------------------

/// A generalized shape drawn from the strided × dilated × grouped grid.
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

/// Deterministic pseudo-random nested tiles from a seed.
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

    /// At `threads == 1` the multicore model's volumes, capacity slacks, and
    /// scaled costs equal the sequential expressions **exactly** — the
    /// property persisted schedule caches rely on.
    #[test]
    fn multicore_model_is_bit_identical_to_sequential_at_one_thread(
        shape in general_shape_strategy(),
        perm in permutation_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let machine = MachineModel::tiny_test_machine();
        let config = seeded_config(&shape, perm.clone(), seed);
        let tiles = MultiLevelTiles::from_config(&config);
        for model in [
            MultiLevelModel::new(shape, machine.clone(), perm.clone()),
            // An explicit one-thread ParallelSpec must take the same path.
            MultiLevelModel::new(shape, machine.clone(), perm.clone())
                .with_parallel(ParallelSpec::sequential()),
        ] {
            for level in TilingLevel::ALL {
                let expected = legacy_level_volume(&shape, &perm, &tiles, level);
                prop_assert_eq!(model.level_volume(&tiles, level), expected);
                prop_assert_eq!(
                    model.footprint(&tiles, level)
                        - machine.capacity_per_thread(level, model.parallel.threads) as f64,
                    legacy_capacity_slack(&shape, &machine, &tiles, level)
                );
                let bw = machine.fill_bandwidth(level);
                let legacy_scaled = match level {
                    TilingLevel::L3 => expected / bw,
                    _ => expected / (bw * 1.0),
                };
                prop_assert_eq!(model.scaled_cost(&tiles, level), legacy_scaled);
            }
        }
    }

    /// `ParTiledConv` is bit-for-bit equal to the sequential `TiledConv`
    /// walk, for thread counts from 1 to far beyond the partitioned extent.
    #[test]
    fn par_tiled_conv_is_bit_identical_to_sequential(
        shape in general_shape_strategy(),
        seed in 0u64..1_000_000,
        threads in 1usize..=10,
    ) {
        let config = seeded_config(&shape, Permutation::parse("kcrsnhw").unwrap(), seed);
        let (input, kernel) = random_tensors(&shape, seed);
        let expected = TiledConv::new(shape, config.clone(), 1).unwrap().run(&input, &kernel);
        for threads in [threads, threads * 16] {
            let par = ParTiledConv::new(shape, config.clone(), threads).unwrap();
            let got = par.run(&input, &kernel);
            prop_assert_eq!(got.as_slice(), expected.as_slice());
        }
    }
}

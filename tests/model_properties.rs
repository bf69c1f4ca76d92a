//! Property-based tests on the core invariants of the analytical model, the
//! pruning theorem, and the executor, using proptest.

use proptest::prelude::*;

use mopt_repro::conv_exec::naive::conv2d_naive;
use mopt_repro::conv_exec::{Tensor4, TiledConv};
use mopt_repro::conv_spec::{
    ConvShape, LoopIndex, Permutation, TileConfig, TileSizes, ALL_INDICES,
};
use mopt_repro::mopt_model::cost::{single_level_volume, total_footprint, RealTiles};
use mopt_repro::mopt_model::prune::{classify, pruned_classes};

/// Strategy: a small but non-degenerate conv shape.
fn shape_strategy() -> impl Strategy<Value = ConvShape> {
    (
        1usize..=2,
        1usize..=12,
        1usize..=12,
        1usize..=3,
        1usize..=3,
        2usize..=10,
        2usize..=10,
        1usize..=2,
    )
        .prop_map(|(n, k, c, r, s, h, w, stride)| {
            ConvShape::new(n, k, c, r, s, h, w, stride).expect("non-zero extents")
        })
}

/// Strategy: one of the 5040 permutations.
fn permutation_strategy() -> impl Strategy<Value = Permutation> {
    (0usize..5040).prop_map(|i| Permutation::enumerate_all()[i].clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cost expressions are lower-bounded by the compulsory traffic:
    /// every tensor must move at least once (output twice).
    #[test]
    fn single_level_volume_at_least_compulsory(shape in shape_strategy(), perm in permutation_strategy()) {
        let tiles = RealTiles::full(&shape);
        let dv = single_level_volume(&shape, &perm, &tiles);
        let compulsory = (shape.input_elems() + shape.kernel_elems() + 2 * shape.output_elems()) as f64;
        prop_assert!(dv.total() >= compulsory - 1e-6);
    }

    /// Volumes are monotone: shrinking any one tile size (with the rest
    /// fixed) never decreases total data movement for the pruned-class
    /// representatives. (Restricted to stride 1: for strided convolutions the
    /// bounding-box input footprint of Eq. 4 counts rows that are never
    /// touched, so splitting a spatial tile can reduce the counted volume by
    /// a few elements — a known over-approximation of the paper's model.)
    #[test]
    fn volume_monotone_in_tile_sizes(shape in shape_strategy(), idx in 0usize..7) {
        prop_assume!(shape.stride == 1);
        let perm = pruned_classes()[0].representative.clone();
        let full = RealTiles::full(&shape);
        let loop_idx = ALL_INDICES[idx];
        let extent = shape.extent(loop_idx) as f64;
        prop_assume!(extent >= 2.0);
        let mut smaller = full;
        smaller.set(loop_idx, (extent / 2.0).floor().max(1.0));
        let v_full = single_level_volume(&shape, &perm, &full).total();
        let v_small = single_level_volume(&shape, &perm, &smaller).total();
        prop_assert!(v_small + 1e-9 >= v_full,
            "shrinking {loop_idx} reduced volume: {v_small} < {v_full}");
    }

    /// The pruning theorem, checked pointwise: for any permutation and tile
    /// sizes, the best pruned-class representative has volume no larger than
    /// that permutation's volume.
    #[test]
    fn pruned_classes_dominate_everywhere(
        shape in shape_strategy(),
        perm in permutation_strategy(),
        seed in 0u64..1000,
    ) {
        let mut tiles = RealTiles::ones();
        // Derive deterministic pseudo-random tile sizes from the seed.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for &idx in &ALL_INDICES {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let e = shape.extent(idx) as u64;
            tiles.set(idx, ((state >> 33) % e + 1) as f64);
        }
        let other = single_level_volume(&shape, &perm, &tiles).total();
        let best_pruned = pruned_classes()
            .iter()
            .map(|c| single_level_volume(&shape, &c.representative, &tiles).total())
            .fold(f64::INFINITY, f64::min);
        prop_assert!(best_pruned <= other * (1.0 + 1e-9),
            "pruned best {best_pruned} exceeds {other} for {perm}");
    }

    /// Classification is stable: every permutation either belongs to exactly
    /// one class (whose representative has an identical cost expression on a
    /// random point) or to none.
    #[test]
    fn classification_consistency(perm in permutation_strategy(), shape in shape_strategy()) {
        if let Some(id) = classify(&perm) {
            prop_assert!((1..=8).contains(&id));
            let rep = &pruned_classes()[id - 1].representative;
            let tiles = RealTiles::from_array([1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0])
                .clamped(&shape.extents().map(|v| v as f64));
            let a = single_level_volume(&shape, &perm, &tiles).total();
            let b = single_level_volume(&shape, rep, &tiles).total();
            prop_assert!((a - b).abs() <= 1e-9 * a.max(b).max(1.0));
        }
    }

    /// The footprint used in the capacity constraint agrees between the
    /// real-valued model and the integer tile computation.
    #[test]
    fn footprints_agree_between_model_and_spec(
        shape in shape_strategy(),
        fracs in proptest::array::uniform7(0.0f64..1.0),
    ) {
        let mut tiles = TileSizes::ones();
        for (j, &idx) in ALL_INDICES.iter().enumerate() {
            let e = shape.extent(idx);
            tiles.set(idx, ((fracs[j] * e as f64).floor() as usize + 1).min(e));
        }
        let real: RealTiles = (&tiles).into();
        let model_fp = total_footprint(&shape, &real);
        let spec_fp = tiles.footprint(&shape) as f64;
        prop_assert!((model_fp - spec_fp).abs() < 1e-9);
    }

    /// The tiled executor matches the reference convolution for arbitrary
    /// shapes, tile sizes, and permutations.
    #[test]
    fn tiled_executor_matches_naive(
        shape in shape_strategy(),
        perm in permutation_strategy(),
        seed in 0u64..10_000,
    ) {
        // Keep the work small.
        prop_assume!(shape.flops() <= 600_000);
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
        let config = TileConfig::new(perm, [reg, l1, l2, l3], TileSizes::ones()).normalized(&shape);
        let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), seed);
        let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, seed + 1);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let out = TiledConv::new(shape, config, 1).unwrap().run(&input, &kernel);
        prop_assert!(reference.allclose(&out, 1e-3));
    }

    /// The loop-index algebra: every index is present in exactly two tensors,
    /// and reduction indices are exactly those absent from the output.
    #[test]
    fn index_presence_invariant(idx in 0usize..7) {
        let i = ALL_INDICES[idx];
        let presences = [i.present_in_input(), i.present_in_output(), i.present_in_kernel()];
        prop_assert_eq!(presences.iter().filter(|&&p| p).count(), 2);
        prop_assert_eq!(i.is_reduction(), !i.present_in_output());
        prop_assert_eq!(LoopIndex::parse(i.name()), Some(i));
    }
}

//! The multicore model at `P = 1` is the paper's sequential model — one code
//! path, not two that agree. Every way of asking for one thread (an explicit
//! all-ones [`ParallelSpec`], [`ParallelSpec::sequential`], and the
//! `threads: 0` spec `Explain` builds from `options.threads = 0`) prices
//! arbitrary — unnested, fractional, oversized — tile vectors to the same
//! bits, and the nesting clamp over the problem extents is
//! [`MultiLevelTiles::normalized`].

use proptest::prelude::*;

use conv_spec::{ConvShape, MachineModel, Permutation, TilingLevel};
use mopt_model::cost::RealTiles;
use mopt_model::multilevel::{MultiLevelModel, MultiLevelTiles, ParallelSpec};

const PRESETS: [&str; 3] = ["i7-9700k", "i9-10980xe", "tiny"];

fn shapes() -> [ConvShape; 3] {
    [
        ConvShape::new(1, 32, 16, 3, 3, 28, 28, 1).unwrap(),
        ConvShape::depthwise(24, 14, 3, 2),
        ConvShape::new(2, 8, 12, 3, 3, 9, 9, 1).unwrap().with_dilation(2).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_spelling_of_one_thread_is_the_same_model(
        levels in proptest::array::uniform4(proptest::array::uniform7(0.25f64..80.0)),
        perm in 0usize..5040,
        shape in 0usize..3,
    ) {
        let shape = shapes()[shape];
        let perm = Permutation::enumerate_all()[perm].clone();
        let tiles = MultiLevelTiles { levels: levels.map(RealTiles::from_array) };
        prop_assert_eq!(
            tiles.normalized(&shape),
            tiles.nested_within(&RealTiles::full(&shape).as_array())
        );
        for preset in PRESETS {
            let machine = MachineModel::preset(preset).unwrap();
            let with = |parallel: ParallelSpec| {
                MultiLevelModel::new(shape, machine.clone(), perm.clone()).with_parallel(parallel)
            };
            let one = with(ParallelSpec { threads: 1, factors: [1; 7] });
            let expected = one.predict_tiles(&tiles);
            for other in [
                with(ParallelSpec::sequential()),
                with(ParallelSpec { threads: 0, factors: [1; 7] }),
            ] {
                for level in TilingLevel::ALL {
                    prop_assert_eq!(
                        other.level_volume(&tiles, level).to_bits(),
                        one.level_volume(&tiles, level).to_bits()
                    );
                    prop_assert_eq!(
                        other.scaled_cost(&tiles, level).to_bits(),
                        one.scaled_cost(&tiles, level).to_bits()
                    );
                    // `predict_tiles` takes each volume once and scales it:
                    // the same numbers the two accessors return.
                    prop_assert_eq!(expected.volume(level), one.level_volume(&tiles, level));
                    prop_assert_eq!(expected.scaled_cost(level), one.scaled_cost(&tiles, level));
                }
                prop_assert_eq!(other.predict_tiles(&tiles), expected);
            }
        }
    }
}

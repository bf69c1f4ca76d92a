//! The historical name of the threaded tile walk.
//!
//! [`TiledConv`] owns the only output partition (see [`crate::tiled`]): with
//! `threads > 1` it runs the configuration's certified split, bit-for-bit
//! equal to its own `threads = 1` walk. `ParTiledConv` is that type under the
//! name the benchmark package and the multicore tests import; the tests below
//! pin the exactness contract through it.

use crate::tiled::TiledConv;

/// [`TiledConv`]: one executor runs the sequential and the threaded walk.
pub type ParTiledConv = TiledConv;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::KernelRegion;
    use crate::naive::conv2d_naive;
    use crate::tensor::Tensor4;
    use conv_spec::{ConvShape, LoopIndex, ParallelAxis, Permutation, TileConfig, TileSizes};

    fn config(shape: &ConvShape) -> TileConfig {
        TileConfig::new(
            Permutation::parse("kcrsnhw").unwrap(),
            [
                TileSizes::from_array([1, 4, 1, 1, 1, 1, 4]),
                TileSizes::from_array([1, 4, 3, 3, 3, 2, 5]),
                TileSizes::from_array([1, 8, 6, 3, 3, 5, 9]),
                TileSizes::from_array([2, 8, 6, 3, 3, 9, 11]),
            ],
            TileSizes::ones(),
        )
        .normalized(shape)
    }

    fn sequential_reference(shape: &ConvShape, seed: u64) -> (Tensor4, Tensor4, Tensor4) {
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, seed);
        let kernel = Tensor4::random(kk, kc, kr, ks, seed + 1);
        let seq = TiledConv::new(*shape, config(shape), 1).unwrap();
        let expected = seq.run(&input, &kernel);
        (input, kernel, expected)
    }

    #[test]
    fn both_axes_are_bit_identical_to_the_sequential_walk() {
        let shape = ConvShape::new(2, 8, 6, 3, 3, 9, 11, 1).unwrap();
        let (input, kernel, expected) = sequential_reference(&shape, 42);
        for axis in ParallelAxis::ALL {
            for threads in [1, 2, 3, 5, 64] {
                let par =
                    ParTiledConv::new(shape, config(&shape), threads).unwrap().with_axis(axis);
                let got = par.run(&input, &kernel);
                assert_eq!(got.as_slice(), expected.as_slice(), "axis {axis}, threads {threads}");
            }
        }
    }

    #[test]
    fn threads_beyond_the_axis_extent_are_capped() {
        // k = 2 with 8 threads on the channel axis; n·h = 9 rows with 64.
        let shape = ConvShape::new(1, 2, 3, 3, 3, 9, 9, 1).unwrap();
        let (input, kernel, expected) = sequential_reference(&shape, 7);
        for (axis, threads) in [(ParallelAxis::OutputChannels, 8), (ParallelAxis::OutputRows, 64)] {
            let par = ParTiledConv::new(shape, config(&shape), threads).unwrap().with_axis(axis);
            let got = par.run(&input, &kernel);
            assert_eq!(got.as_slice(), expected.as_slice(), "axis {axis}");
        }
    }

    #[test]
    fn certified_factor_grids_execute_as_certified_and_stay_exact() {
        // A mixed-axis factor vector (K=2 · H=2) on a shape neither axis can
        // absorb alone: the executor must run the certified grid, not
        // collapse to one axis, and stay bit-for-bit exact.
        let shape = ConvShape::new(1, 3, 4, 3, 3, 3, 5, 1).unwrap();
        let mut cfg = config(&shape);
        cfg.parallel = TileSizes::ones().with(LoopIndex::K, 2).with(LoopIndex::H, 2);
        let (input, kernel, _) = sequential_reference(&shape, 55);
        let expected = TiledConv::new(shape, cfg.clone(), 1).unwrap().run(&input, &kernel);
        for threads in [1, 2, 4, 9] {
            let par = ParTiledConv::new(shape, cfg.clone(), threads).unwrap();
            let got = par.run(&input, &kernel);
            assert_eq!(got.as_slice(), expected.as_slice(), "threads {threads}");
        }
        // The grid really is the 2×2 cross product of the factors.
        let par = ParTiledConv::new(shape, cfg, 4).unwrap();
        let grid = par.factor_grid(&KernelRegion::full(&shape));
        assert_eq!(grid.len(), 4);
        let mut cells: Vec<_> = grid.iter().map(|r| (r.k, r.h)).collect();
        cells.sort();
        assert_eq!(
            cells,
            vec![((0, 2), (0, 2)), ((0, 2), (2, 1)), ((2, 1), (0, 2)), ((2, 1), (2, 1))]
        );
    }

    #[test]
    fn row_chunks_straddling_batches_stay_exact() {
        // 3 batches × 5 rows split across 4 threads: chunks cross n bounds.
        let shape = ConvShape::new(3, 4, 3, 3, 3, 5, 6, 1).unwrap();
        let (input, kernel, expected) = sequential_reference(&shape, 99);
        let par = ParTiledConv::new(shape, config(&shape), 4)
            .unwrap()
            .with_axis(ParallelAxis::OutputRows);
        assert_eq!(par.run(&input, &kernel).as_slice(), expected.as_slice());
    }

    #[test]
    fn axis_defaults_to_the_configs_parallel_factors() {
        let shape = ConvShape::new(1, 8, 4, 3, 3, 8, 8, 1).unwrap();
        let mut cfg = config(&shape);
        cfg.parallel = TileSizes::ones().with(LoopIndex::H, 4);
        let par = ParTiledConv::new(shape, cfg, 4).unwrap();
        assert_eq!(par.axis(), ParallelAxis::OutputRows);
        assert_eq!(par.threads(), 4);
        let (input, kernel, expected) = sequential_reference(&shape, 11);
        assert_eq!(par.run(&input, &kernel).as_slice(), expected.as_slice());
    }

    #[test]
    fn generalized_shapes_match_naive_within_tolerance_and_sequential_exactly() {
        for (groups, stride, dilation) in [(4, 1, 1), (1, 2, 1), (8, 1, 2)] {
            let shape =
                ConvShape::new_general(1, 8, 8, 3, 3, 9, 9, stride, dilation, groups).unwrap();
            let (input, kernel, expected) = sequential_reference(&shape, 123);
            let par = ParTiledConv::new(shape, config(&shape), 3).unwrap();
            let got = par.run(&input, &kernel);
            assert_eq!(got.as_slice(), expected.as_slice());
            let naive = conv2d_naive(&shape, &input, &kernel);
            assert!(naive.allclose(&got, 1e-4));
        }
    }
}

//! The analytical model and the tile-traffic simulator that validates it
//! agree on an obvious pair of schedules.

use conv_spec::{ConvShape, MachineModel, Permutation, TileConfig, TileSizes, TilingLevel};
use mopt_bench::sim::TileTrafficSimulator;
use mopt_model::MultiLevelModel;

#[test]
fn model_rankings_correlate_with_tile_simulator() {
    // The model's figure of merit should broadly agree with the
    // tile-granularity traffic simulator on which of two configurations
    // moves less data at the outermost level.
    let s = ConvShape::new(1, 16, 16, 3, 3, 12, 12, 1).unwrap();
    let machine = MachineModel::tiny_test_machine();
    let m = MultiLevelModel::new(s, machine, Permutation::parse("kcrsnhw").unwrap());
    let good = TileConfig::new(
        Permutation::parse("kcrsnhw").unwrap(),
        [
            TileSizes::from_array([1, 4, 1, 1, 1, 1, 4]),
            TileSizes::from_array([1, 8, 4, 3, 3, 4, 6]),
            TileSizes::from_array([1, 16, 8, 3, 3, 6, 12]),
            TileSizes::from_array([1, 16, 16, 3, 3, 12, 12]),
        ],
        TileSizes::ones(),
    )
    .normalized(&s);
    let bad = TileConfig::new(
        Permutation::parse("kcrsnhw").unwrap(),
        [
            TileSizes::from_array([1, 1, 1, 1, 1, 1, 1]),
            TileSizes::from_array([1, 2, 1, 1, 1, 2, 2]),
            TileSizes::from_array([1, 2, 2, 1, 1, 2, 2]),
            TileSizes::from_array([1, 4, 2, 1, 1, 4, 4]),
        ],
        TileSizes::ones(),
    )
    .normalized(&s);
    let sim = TileTrafficSimulator::default();
    let model_good = m.predict_config(&good);
    let model_bad = m.predict_config(&bad);
    let sim_good = sim.simulate(&s, &good);
    let sim_bad = sim.simulate(&s, &bad);
    assert!(model_good.volume(TilingLevel::L3) < model_bad.volume(TilingLevel::L3));
    assert!(
        sim_good.volume(TilingLevel::L3) < sim_bad.volume(TilingLevel::L3),
        "simulator disagrees with model on an obvious pair"
    );
}

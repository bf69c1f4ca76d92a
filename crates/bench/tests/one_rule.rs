//! Bit pins for the one bottleneck rule (`MachineModel::fill_bandwidth_at`
//! and `MachineModel::roofline`): every way a volume becomes cycles or
//! GFLOP/s, captured at 32088ca when the private/shared split was written
//! four times and the roofline three. A reordered float operation in the
//! unified rule moves a bit here.

use autotune::SearchSpace;
use cache_sim::DataMovement;
use conv_spec::{
    ConvShape, LayoutConfig, MachineModel, Permutation, TileConfig, TileSizes, TilingLevel,
};
use mopt_bench::validate_operator;
use mopt_model::{layout_move_total, MultiLevelModel, ParallelSpec};

fn shape() -> ConvShape {
    ConvShape::new(1, 64, 32, 3, 3, 28, 28, 1).unwrap()
}

/// One fixed schedule and one fixed measured-volume vector, priced every way
/// the rule is reached: the model's four scaled costs and projection, the
/// simulator report's four scaled costs, bottleneck and projection, and one
/// layout-transform total at a non-default layout.
fn priced(preset: &str, threads: usize) -> [u64; 12] {
    let machine = MachineModel::preset(preset).unwrap();
    let shape = shape();
    let config = TileConfig::new(
        Permutation::parse("kcrsnhw").unwrap(),
        [
            TileSizes::from_array([1, 4, 1, 1, 1, 1, 7]),
            TileSizes::from_array([1, 8, 4, 3, 3, 2, 14]),
            TileSizes::from_array([1, 16, 16, 3, 3, 7, 28]),
            TileSizes::from_array([1, 64, 32, 3, 3, 14, 28]),
        ],
        TileSizes::ones(),
    );
    let model = MultiLevelModel::new(shape, machine.clone(), config.permutation.clone())
        .with_parallel(ParallelSpec::default_for(&shape, threads));
    let predicted = model.predict_config(&config);

    let mut dm = DataMovement::zero(shape.flops() as f64);
    for (level, volume) in TilingLevel::ALL.into_iter().zip([7.3e6, 2.9e6, 1.1e6, 4.7e5]) {
        dm.level_mut(level).inbound_elems = volume;
        dm.level_mut(level).outbound_elems = volume / 3.0;
    }
    let (bottleneck, bottleneck_cost) = dm.bottleneck(&machine, threads);
    assert_eq!(bottleneck_cost, dm.scaled_cost(bottleneck, &machine, threads));

    let moved = layout_move_total(&shape, &machine, &LayoutConfig::blocked(8), threads);

    let mut bits = [0u64; 12];
    for level in TilingLevel::ALL {
        bits[level.ordinal()] = predicted.scaled_cost(level).to_bits();
        bits[5 + level.ordinal()] = dm.scaled_cost(level, &machine, threads).to_bits();
    }
    bits[4] = predicted.projected_gflops(&machine, threads).to_bits();
    bits[9] = bottleneck_cost.to_bits();
    bits[10] = dm.projected_gflops(&machine, threads).to_bits();
    bits[11] = moved.to_bits();
    bits
}

/// `validate_operator`'s measured cost and GFLOP/s for two sampled configs.
fn validated(preset: &str, threads: usize) -> [u64; 4] {
    let machine = MachineModel::preset(preset).unwrap();
    let shape = ConvShape::new(1, 16, 16, 3, 3, 14, 14, 1).unwrap();
    let configs = SearchSpace::new(&shape, &machine).sample_many(2, 0x1E);
    let report = validate_operator("pin", &shape, &machine, &configs, threads);
    let [a, b] = &report.points[..] else { panic!("two points") };
    [a.measured_cost, a.measured_gflops, b.measured_cost, b.measured_gflops].map(f64::to_bits)
}

/// `(preset, threads, priced, validated)` as captured at 32088ca.
type Pin = (&'static str, usize, [u64; 12], [u64; 4]);

#[rustfmt::skip]
const PINS: [Pin; 9] = [
    ("i7-9700k", 1, [0x413f800000000000, 0x4103f00000000000, 0x40f6f00000000000, 0x40f2400000000000, 0x4049333333333333, 0x4122909aaaaaaaab, 0x411d801555555555, 0x4116612aaaaaaaab, 0x41131fd555555555, 0x4122909aaaaaaaab, 0x405cccccccccccce, 0x40d2040000000000], [0x40fd930000000000, 0x403ad74837e2f29b, 0x40f4c80000000000, 0x404319549d5f64c8]),
    ("i7-9700k", 4, [0x411f800000000000, 0x40e3f00000000000, 0x40d6f00000000000, 0x40fd800000000000, 0x4069333333333333, 0x4102909aaaaaaaab, 0x40fd801555555555, 0x40f6612aaaaaaaab, 0x41131fd555555555, 0x41131fd555555555, 0x4074c0ef0d92944c, 0x40b2040000000000], [0x40fd600000000000, 0x403b05e1ef01866d, 0x40ebd00000000000, 0x404c8a871371ca61]),
    ("i7-9700k", 16, [0x40ff800000000000, 0x40ca800000000000, 0x40c8200000000000, 0x4112a00000000000, 0x40754f608ef29942, 0x40e2909aaaaaaaab, 0x40dd801555555555, 0x40d6612aaaaaaaab, 0x41131fd555555555, 0x41131fd555555555, 0x4074c0ef0d92944c, 0x4092040000000000], [0x40fd600000000000, 0x403b05e1ef01866d, 0x40ebd00000000000, 0x404c8a871371ca61]),
    ("i9-10980xe", 1, [0x412f800000000000, 0x40f3f00000000000, 0x40ee955555555555, 0x40e8555555555555, 0x4055000000000000, 0x4112909aaaaaaaab, 0x410d801555555555, 0x410dd6e38e38e38f, 0x41097fc71c71c71c, 0x4112909aaaaaaaab, 0x4068000000000000, 0x40b7c80000000000], [0x40f3b75555555555, 0x4040c68d22edd7a0, 0x40ebb55555555555, 0x4047dfa9c4b73dfb]),
    ("i9-10980xe", 4, [0x410f800000000000, 0x40d3f00000000000, 0x40ce955555555555, 0x40f3aaaaaaaaaaab, 0x4075000000000000, 0x40f2909aaaaaaaab, 0x40ed801555555555, 0x40edd6e38e38e38f, 0x41097fc71c71c71c, 0x41097fc71c71c71c, 0x4079f12ad0f7395f, 0x4097c80000000000], [0x40f3955555555555, 0x4040e3ad3560f405, 0x40e28aaaaaaaaaab, 0x4051d6946c271e7d]),
    ("i9-10980xe", 16, [0x40ef800000000000, 0x40ba800000000000, 0x40c0155555555555, 0x4108d55555555555, 0x407aa338b2af3f92, 0x40d2909aaaaaaaab, 0x40cd801555555555, 0x40cdd6e38e38e38f, 0x41097fc71c71c71c, 0x41097fc71c71c71c, 0x4079f12ad0f7395f, 0x4077c80000000000], [0x40f3955555555555, 0x4040e3ad3560f405, 0x40e28aaaaaaaaaab, 0x4051d6946c271e7d]),
    ("tiny", 1, [0x414f800000000000, 0x4113f00000000000, 0x4106f00000000000, 0x4102400000000000, 0x401c000000000001, 0x4132909aaaaaaaab, 0x412d801555555555, 0x4126612aaaaaaaab, 0x41231fd555555555, 0x4132909aaaaaaaab, 0x4020000000000000, 0x40f7c80000000000], [0x410d930000000000, 0x400dd2c205350d8f, 0x4104c80000000000, 0x40153896e7bf538a]),
    ("tiny", 4, [0x412f800000000000, 0x40f3f00000000000, 0x40e6f00000000000, 0x410d800000000000, 0x403c000000000001, 0x4112909aaaaaaaab, 0x410d801555555555, 0x4106612aaaaaaaab, 0x41231fd555555555, 0x41231fd555555555, 0x4040000000000000, 0x40f7c80000000000], [0x410d600000000000, 0x400e0689427378eb, 0x40fbd00000000000, 0x401fb65d320ca7fb]),
    ("tiny", 16, [0x410f800000000000, 0x40da800000000000, 0x40d8200000000000, 0x4122a00000000000, 0x4047ad87bb467166, 0x40f2909aaaaaaaab, 0x40ed801555555555, 0x40e6612aaaaaaaab, 0x41231fd555555555, 0x41231fd555555555, 0x40470f4280dbc138, 0x40f7c80000000000], [0x410d600000000000, 0x400e0689427378eb, 0x40fbd00000000000, 0x401fb65d320ca7fb]),
];

#[test]
fn every_route_through_the_rule_prices_to_the_pinned_bits() {
    for (preset, threads, priced_bits, validated_bits) in PINS {
        assert_eq!(priced(preset, threads), priced_bits, "{preset} at {threads} threads");
        assert_eq!(validated(preset, threads), validated_bits, "{preset} at {threads} threads");
    }
}

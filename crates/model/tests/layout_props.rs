//! Property tests for the layout axis of the analytical model.
//!
//! **Bit-identity at default layouts** — a model whose layout is the paper
//! default must price every configuration exactly (bit-for-bit) as the
//! pre-layout model did: no move rows, a literal-zero move total, and a
//! breakdown total equal to the bottleneck cost. A non-default layout only
//! ever adds its one-time moves on top of the bottleneck.

use conv_spec::{ConvShape, LayoutConfig, MachineModel, Permutation, TileConfig};
use mopt_model::multilevel::MultiLevelModel;

fn shapes() -> Vec<ConvShape> {
    vec![
        ConvShape::new(1, 64, 32, 3, 3, 28, 28, 1).unwrap(),
        ConvShape::new(1, 16, 8, 1, 1, 14, 14, 1).unwrap(),
        ConvShape::from_table1(64, 32, 58, 3, 2),
        ConvShape::depthwise(32, 28, 3, 1),
        ConvShape::new_general(2, 32, 32, 3, 3, 14, 14, 1, 2, 4).unwrap(),
    ]
}

#[test]
fn default_layout_is_bit_identical_to_prelayout_pricing() {
    let machine = MachineModel::i7_9700k();
    for shape in shapes() {
        for perm in ["kcrsnhw", "nkhwcrs", "nchrswk"] {
            let model =
                MultiLevelModel::new(shape, machine.clone(), Permutation::parse(perm).unwrap());
            let config = TileConfig::untiled(&shape);

            // An explicitly-set default layout is the same model.
            let explicit = model.clone().with_layout(LayoutConfig::default());
            let a = model.predict_config(&config);
            let b = explicit.predict_config(&config);
            assert_eq!(a.volumes, b.volumes, "{perm}: volumes must be bit-identical");
            assert_eq!(a.bottleneck_cost.to_bits(), b.bottleneck_cost.to_bits());

            // No move rows, literal-zero move total, total == bottleneck.
            assert!(model.move_rows().is_empty());
            assert_eq!(model.move_total().to_bits(), 0.0f64.to_bits());
            let breakdown = model.cost_breakdown(&config);
            assert!(breakdown.moves.is_empty());
            assert_eq!(breakdown.move_total.to_bits(), 0.0f64.to_bits());
            assert_eq!(breakdown.total_cost.to_bits(), a.bottleneck_cost.to_bits());
            assert_eq!(breakdown.attributed_total().to_bits(), breakdown.total_cost.to_bits());
        }
    }
}

#[test]
fn non_default_layouts_price_moves_on_top_of_the_bottleneck() {
    let machine = MachineModel::i7_9700k();
    let shape = ConvShape::new(1, 64, 32, 3, 3, 28, 28, 1).unwrap();
    let base = MultiLevelModel::new(shape, machine, Permutation::parse("kcrsnhw").unwrap());
    let config = TileConfig::untiled(&shape);
    let bottleneck = base.predict_config(&config).bottleneck_cost;
    for layout in [LayoutConfig::packed_kernel(8), LayoutConfig::blocked(8)] {
        let laid = base.clone().with_layout(layout);
        let moves = laid.move_rows();
        assert!(!moves.is_empty(), "{layout:?} must price at least one transform");
        let move_total = laid.move_total();
        assert!(move_total > 0.0 && move_total.is_finite());
        let breakdown = laid.cost_breakdown(&config.clone().with_layout(layout));
        assert!(breakdown.move_total > 0.0);
        assert!(
            breakdown.total_cost >= breakdown.levels.iter().map(|l| l.attributed_cost).sum(),
            "moves only ever add cost"
        );
        // The one-time moves are small relative to the loop-nest bottleneck
        // for a realistically-sized operator (amortization is the whole
        // point of searching layouts jointly).
        assert!(move_total < bottleneck, "move total {move_total} vs bottleneck {bottleneck}");
    }
}

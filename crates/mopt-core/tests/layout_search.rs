//! Layout search end-to-end through the optimizer.
//!
//! With `LayoutPolicy::Search` the optimizer prices every tile candidate
//! under the default, packed-kernel, and blocked-NCHWc layouts (loop-nest
//! bottleneck plus one-time transform moves) and keeps the cheapest. These
//! tests pin the two acceptance properties: the fixed-policy path is
//! bit-identical to the pre-layout optimizer, and on at least one real
//! benchmark suite shape the search picks a non-default layout whose modeled
//! total beats the default's.

use conv_spec::{benchmarks, LayoutConfig, MachineModel};
use mopt_core::{LayoutPolicy, MOptOptimizer, OptimizerOptions};

fn options() -> OptimizerOptions {
    OptimizerOptions { max_classes: 2, ..OptimizerOptions::default() }
}

#[test]
fn fixed_policy_is_bit_identical_to_unset_policy() {
    let op = benchmarks::by_name("Y0").expect("Yolo9000 suite has Y0");
    let machine = MachineModel::i7_9700k();
    let unset = MOptOptimizer::new(op.shape, machine.clone(), options()).optimize();
    let fixed = MOptOptimizer::new(
        op.shape,
        machine,
        OptimizerOptions { layout_policy: Some(LayoutPolicy::Fixed), ..options() },
    )
    .optimize();
    let (a, b) = (unset.best(), fixed.best());
    assert_eq!(a.config, b.config);
    assert_eq!(a.predicted_cost.to_bits(), b.predicted_cost.to_bits());
    assert!(a.config.layout.is_default());
}

#[test]
fn search_beats_the_default_layout_on_a_benchmark_shape() {
    // A benchmark suite shape with SIMD-friendly channel counts: layout
    // search should find that packing/blocking pays for itself.
    let machine = MachineModel::i7_9700k();
    let mut won = None;
    for op in benchmarks::all_operators() {
        if op.shape.k % 8 != 0 || op.shape.c % 8 != 0 || op.shape.groups != 1 {
            continue;
        }
        let fixed = MOptOptimizer::new(op.shape, machine.clone(), options()).optimize();
        let search = MOptOptimizer::new(
            op.shape,
            machine.clone(),
            OptimizerOptions { layout_policy: Some(LayoutPolicy::Search), ..options() },
        )
        .optimize();
        let best = search.best();
        if !best.config.layout.is_default() {
            // The search total (bottleneck + one-time moves) must beat the
            // fixed-policy total for the same shape.
            assert!(
                best.predicted_cost < fixed.best().predicted_cost,
                "{}: search picked {:?} at {} but fixed costs {}",
                op.name,
                best.config.layout,
                best.predicted_cost,
                fixed.best().predicted_cost
            );
            won = Some((op.name.clone(), best.config.layout));
            break;
        }
    }
    let (name, layout) = won.expect("no benchmark shape picked a non-default layout");
    println!("layout search won on {name}: {layout:?} ({})", layout.tag());
}

#[test]
fn searched_layouts_come_from_the_candidate_set() {
    let op = benchmarks::by_name("Y0").expect("Yolo9000 suite has Y0");
    let machine = MachineModel::i7_9700k();
    let optimizer = MOptOptimizer::new(
        op.shape,
        machine,
        OptimizerOptions { layout_policy: Some(LayoutPolicy::Search), ..options() },
    );
    let candidates = optimizer.layout_candidates();
    assert!(candidates.contains(&LayoutConfig::default()));
    assert!(candidates.len() >= 3, "search must consider packed and blocked layouts");
    let result = optimizer.optimize();
    for cand in &result.ranked {
        assert!(
            candidates.contains(&cand.config.layout),
            "candidate carries an unknown layout {:?}",
            cand.config.layout
        );
        assert!(cand.config.validate(&op.shape).is_ok());
    }
}

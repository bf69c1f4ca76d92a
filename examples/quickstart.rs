//! Quickstart: optimize one conv2d operator with MOpt, inspect the chosen
//! tiling, and check the generated configuration against the reference
//! convolution.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use mopt_repro::conv_exec::naive::conv2d_naive;
use mopt_repro::conv_exec::{Tensor4, TiledConv};
use mopt_repro::conv_spec::{ConvShape, MachineModel, TilingLevel};
use mopt_repro::mopt_core::optimizer::{MOptOptimizer, OptimizerOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A ResNet-18-style layer, scaled down so the example runs in seconds.
    let shape = ConvShape::new(1, 64, 32, 3, 3, 28, 28, 1)?;
    let machine = MachineModel::i7_9700k();
    println!("operator : {shape}");
    println!("machine  : {machine}");

    // 1. Run the model-driven design-space exploration (Algorithm 1).
    let optimizer = MOptOptimizer::new(shape, machine.clone(), OptimizerOptions::default());
    let result = optimizer.optimize();
    println!("\nMOpt explored the 8 pruned permutation classes in {:.2}s", result.optimize_seconds);
    for (i, cand) in result.ranked.iter().enumerate() {
        println!(
            "  #{:<2} class {}  perm {}  predicted bottleneck {:?} cost {:.3e}",
            i + 1,
            cand.class_id,
            cand.config.permutation,
            cand.prediction.bottleneck,
            cand.predicted_cost
        );
    }

    let best = result.best();
    println!("\nbest configuration (MOpt-1):");
    for level in [TilingLevel::Register, TilingLevel::L1, TilingLevel::L2, TilingLevel::L3] {
        println!("  {:4} tile {}", level.name(), best.config.level(level));
    }

    // 2. Execute the generated configuration and verify it against the
    //    reference convolution.
    let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 1);
    let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 2);
    let reference = conv2d_naive(&shape, &input, &kernel);
    let conv = TiledConv::new(shape, best.config.clone(), 1)?;
    let output = conv.run(&input, &kernel);
    assert!(reference.allclose(&output, 1e-3), "tiled execution must match the reference");
    println!("\ntiled execution matches the reference convolution ✓");

    // 3. Report the model's performance projection.
    let gflops = best.prediction.projected_gflops(&machine, 1);
    println!("model-projected single-core performance: {gflops:.1} GFLOPS");
    Ok(())
}

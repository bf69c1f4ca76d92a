//! Walk through the paper's analytical machinery on one operator:
//!
//! 1. show the eight pruned permutation classes (Sec. 4),
//! 2. evaluate the parametric single-level cost expression for several tile
//!    sizes (Sec. 3),
//! 3. validate the model's ranking against the memory-hierarchy simulator on
//!    a sample of configurations (Sec. 9, Figures 5/6 in miniature).
//!
//! Run with:
//! ```text
//! cargo run --release --example design_space_exploration
//! ```

use mopt_bench::validate_operator;
use mopt_repro::autotune::SearchSpace;
use mopt_repro::conv_spec::{ConvShape, MachineModel};
use mopt_repro::mopt_model::cost::{single_level_volume, RealTiles};
use mopt_repro::mopt_model::prune::pruned_classes;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shape = ConvShape::new(1, 64, 64, 3, 3, 28, 28, 1)?;
    let machine = MachineModel::i7_9700k();

    // 1. The pruned permutation classes.
    println!("The 8 pruned tile-loop permutation classes (of 5040 permutations):");
    for class in pruned_classes() {
        println!("  {class}");
    }

    // 2. The parametric cost expression for the class-1 representative.
    let perm = pruned_classes()[0].representative.clone();
    println!("\nSingle-level data volume for permutation {perm} on {shape}:");
    for tiles in [
        RealTiles::from_array([1.0, 8.0, 8.0, 3.0, 3.0, 7.0, 7.0]),
        RealTiles::from_array([1.0, 16.0, 16.0, 3.0, 3.0, 14.0, 14.0]),
        RealTiles::from_array([1.0, 64.0, 32.0, 3.0, 3.0, 28.0, 28.0]),
    ] {
        let dv = single_level_volume(&shape, &perm, &tiles);
        println!(
            "  tiles {:?} -> In {:.3e}  Ker {:.3e}  Out {:.3e}  total {:.3e} elements",
            tiles.as_array(),
            dv.input,
            dv.kernel,
            dv.output,
            dv.total()
        );
    }

    // 3. Model-vs-simulator ranking on sampled configurations.
    let space = SearchSpace::new(&shape, &machine);
    let configs = space.sample_many(30, 42);
    let report = validate_operator("example-op", &shape, &machine, &configs, 1);
    println!("\nValidation over {} sampled configurations:", report.points.len());
    println!(
        "  rank correlation (model cost vs simulated cost): {:.2}",
        report.cost_rank_correlation()
    );
    println!("  top-1 loss: {:.1}%", report.top_k_loss(1) * 100.0);
    println!("  top-5 loss: {:.1}%", report.top_k_loss(5) * 100.0);
    println!("(the paper reports < 4.5% top-1 loss on all 32 benchmark operators)");
    Ok(())
}

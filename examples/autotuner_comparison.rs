//! Compare MOpt's analytical design-space exploration with an AutoTVM-like
//! empirical auto-tuner on one operator: how good is each approach after a
//! given measurement budget, and how long does each search take?
//!
//! Run with:
//! ```text
//! cargo run --release --example autotuner_comparison
//! ```

use mopt_bench::sim::TileTrafficSimulator;
use mopt_repro::autotune::{ModelGuidedTuner, RandomTuner, SearchSpace, Tuner};
use mopt_repro::conv_spec::{ConvShape, MachineModel};
use mopt_repro::mopt_core::optimizer::{MOptOptimizer, OptimizerOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Yolo-9000-style stage, scaled down.
    let shape = ConvShape::new(1, 128, 64, 3, 3, 34, 34, 1)?;
    let machine = MachineModel::i7_9700k();
    let sim = TileTrafficSimulator::new(100_000);
    let threads = machine.threads;

    // The "measurement": simulated bandwidth-scaled bottleneck cost (lower is
    // better) — the stand-in for executing the candidate on hardware.
    let measure = |cfg: &mopt_repro::conv_spec::TileConfig| -> f64 {
        sim.simulate(&shape, cfg).bottleneck(&machine, threads).1
    };

    // --- MOpt: no measurements at all, pure analytical search.
    let start = std::time::Instant::now();
    let mut opts = OptimizerOptions::parallel(&machine);
    opts.max_classes = 8;
    let mopt = MOptOptimizer::new(shape, machine.clone(), opts).optimize();
    let mopt_time = start.elapsed().as_secs_f64();
    let mopt_cost = measure(&mopt.best().config);

    // --- Auto-tuners with a trial budget.
    let budget = 32;
    let space = SearchSpace::new(&shape, &machine);

    let start = std::time::Instant::now();
    let random = RandomTuner::new(1).tune(&space, &mut |c| measure(c), budget);
    let random_time = start.elapsed().as_secs_f64();

    let start = std::time::Instant::now();
    let guided = ModelGuidedTuner::new(1).tune(&space, &mut |c| measure(c), budget);
    let guided_time = start.elapsed().as_secs_f64();

    println!("operator: {shape}, measurement budget for tuners: {budget} trials\n");
    println!("{:<28} {:>16} {:>12} {:>10}", "approach", "simulated cost", "search time", "trials");
    println!("{:<28} {:>16.3e} {:>11.2}s {:>10}", "MOpt (analytical)", mopt_cost, mopt_time, 0);
    println!(
        "{:<28} {:>16.3e} {:>11.2}s {:>10}",
        "random search",
        random.best().cost,
        random_time,
        budget
    );
    println!(
        "{:<28} {:>16.3e} {:>11.2}s {:>10}",
        "model-guided tuner (TVM-like)",
        guided.best().cost,
        guided_time,
        budget
    );
    println!("\nlower simulated cost is better; MOpt reaches its answer without any measurements,");
    println!(
        "which is the paper's Sec. 12 observation (9–23 s of solver time vs hours of tuning)."
    );
    Ok(())
}

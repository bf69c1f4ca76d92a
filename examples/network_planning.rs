//! Whole-network planning through the serving layer: plan ResNet-18 cold,
//! then again warm from the schedule cache, and persist the cache to disk
//! the way `moptd --snapshot` does.
//!
//! Run with `cargo run --release --example network_planning`.

use mopt_repro::conv_spec::{benchmarks, BenchmarkSuite, MachineModel};
use mopt_repro::mopt_core::OptimizerOptions;
use mopt_repro::mopt_service::batch::NamedLayer;
use mopt_repro::mopt_service::{load_snapshot, save_snapshot, NetworkPlanner, ScheduleCache};

fn main() {
    let machine = MachineModel::i7_9700k();
    let options = OptimizerOptions { max_classes: 2, ..OptimizerOptions::default() };
    let cache = ScheduleCache::new(256);
    let planner = NetworkPlanner::new(&cache, machine, options);

    let resnet18 = benchmarks::suite(BenchmarkSuite::ResNet18);
    println!("planning ResNet-18 (cold)...");
    let cold = planner.plan_ops(&resnet18);
    println!(
        "  {} layers, {} unique shapes, {} solves, {:.2}s wall ({:.2}s solver)",
        cold.stats.layers,
        cold.stats.unique_shapes,
        cold.stats.solves,
        cold.stats.wall_seconds,
        cold.stats.solve_seconds,
    );

    let warm = planner.plan_ops(&resnet18);
    println!(
        "planning ResNet-18 (warm): {} cache hits, {:.4}s wall — {:.0}x faster",
        warm.stats.cache_hits,
        warm.stats.wall_seconds,
        cold.stats.wall_seconds / warm.stats.wall_seconds.max(1e-9),
    );

    println!("\nper-layer best configurations:");
    for layer in &warm.layers {
        println!(
            "  {:<5} {:<28} class {} cost {:.3e} {}",
            layer.name,
            layer.shape.to_string(),
            layer.best.class_id,
            layer.best.predicted_cost,
            if layer.from_cache { "(cached)" } else { "(solved)" },
        );
    }
    if let Some(bottleneck) = warm.bottleneck() {
        println!("\nprojected bottleneck layer: {}", bottleneck.name);
    }

    // Persist the warm cache the way `moptd --snapshot` does on shutdown.
    let mut path = std::env::temp_dir();
    path.push("mopt-example-snapshot.json");
    match save_snapshot(&cache, &path) {
        Ok(n) => println!("snapshot: {n} entries saved to {}", path.display()),
        Err(e) => println!("snapshot failed: {e}"),
    }

    // And show that a fresh cache restored from it is warm.
    let restored = ScheduleCache::new(256);
    match load_snapshot(&restored, &path) {
        Ok(n) => println!("restored {n} entries; cache len {}", restored.len()),
        Err(e) => println!("restore failed: {e}"),
    }
    std::fs::remove_file(&path).ok();

    // A layer list does not have to come from Table 1.
    let custom = vec![NamedLayer::conv(
        "custom-3x3",
        mopt_repro::conv_spec::ConvShape::new(1, 96, 48, 3, 3, 30, 30, 1).expect("valid shape"),
    )];
    let plan = planner.plan(&custom);
    println!(
        "\ncustom layer: cost {:.3e} ({})",
        plan.layers[0].best.predicted_cost,
        if plan.layers[0].from_cache { "cached" } else { "solved" },
    );
}

//! Whole-network planning through the serving layer: plan ResNet-18 cold,
//! then again warm from the schedule cache, and persist the schedules in the
//! schedule database the way `moptd --db` does, so a fresh cache over the
//! reopened database plans without a solve.
//!
//! Run with `cargo run --release --example network_planning`.

use mopt_repro::conv_spec::{benchmarks, BenchmarkSuite, MachineModel};
use mopt_repro::mopt_core::OptimizerOptions;
use mopt_repro::mopt_service::batch::NamedLayer;
use mopt_repro::mopt_service::{DbTier, NetworkPlanner, ScheduleCache};

fn main() {
    let machine = MachineModel::i7_9700k();
    let options = OptimizerOptions { max_classes: 2, ..OptimizerOptions::default() };
    let db_path = std::env::temp_dir().join(format!("mopt-example-db-{}", std::process::id()));
    std::fs::remove_dir_all(&db_path).ok();
    let db = DbTier::open(&db_path).expect("schedule database opens");
    let cache = ScheduleCache::new(256);
    // Every cold solve is written through to the database.
    let planner = NetworkPlanner::new(&cache, machine.clone(), options.clone()).with_db(Some(&db));

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

    // Flush the database the way `moptd --db` does on shutdown, then plan
    // again the way a restarted process would: an empty cache over the
    // reopened database, served from stored schedules without a solve.
    match db.flush() {
        Ok(pages) => {
            println!("\nschedule database: {pages} pages flushed to {}", db_path.display())
        }
        Err(e) => println!("\nschedule database flush failed: {e}"),
    }
    let reopened = DbTier::open(&db_path).expect("schedule database reopens");
    let fresh_cache = ScheduleCache::new(256);
    let restarted = NetworkPlanner::new(&fresh_cache, machine, options).with_db(Some(&reopened));
    let replanned = restarted.plan_ops(&resnet18);
    println!(
        "replanned from the database: {} db hits, {} solves",
        replanned.stats.db_hits, replanned.stats.solves,
    );

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
    std::fs::remove_dir_all(&db_path).ok();
}

//! Fusion-aware graph planning: plan a MobileNetV2 inverted-residual block
//! as a graph, compare the fused plan's traffic against planning every layer
//! in isolation, and cross-check the win with the tile-granularity traffic
//! simulator.
//!
//! ```text
//! cargo run --release --example graph_planning
//! ```

use conv_spec::{MachineModel, TilingLevel};
use mopt_bench::sim::TileTrafficSimulator;
use mopt_core::OptimizerOptions;
use mopt_graph::{builders, GraphPlanner};
use mopt_service::batch::NamedLayer;
use mopt_service::{NetworkPlanner, ScheduleCache};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineModel::i7_9700k();
    let options = OptimizerOptions { max_classes: 2, ..OptimizerOptions::default() };
    let cache = ScheduleCache::new(64);
    // Per-operator schedules come through the serving stack's batch planner:
    // deduplicated, solved on a worker pool, memoized in the schedule cache.
    let schedules = NetworkPlanner::new(&cache, machine.clone(), options);

    println!("machine: {machine}\n");
    println!(
        "{:<14} {:>6} {:>8} {:>16} {:>16} {:>8}",
        "block", "convs", "fusions", "unfused (elems)", "fused (elems)", "saved"
    );

    for stage in [1, 3, 5, 7, 9] {
        let graph = builders::mobilenet_v2_block(stage)?;
        graph.validate()?;
        let resolved = schedules.resolve(&NamedLayer::of_graph(&graph)?);
        let planner = GraphPlanner::new(machine.clone());
        let plan = planner.plan(&graph, |spec| resolved[spec].1.clone())?;
        let convs: usize = plan.segments.iter().map(|s| s.ops.len()).sum();
        println!(
            "{:<14} {:>6} {:>8} {:>16.0} {:>16.0} {:>7.1}%",
            plan.graph,
            convs,
            plan.fusions_taken,
            plan.unfused_volume,
            plan.fused_volume,
            100.0 * plan.saving() / plan.unfused_volume.max(1.0),
        );
    }

    // Zoom into one block: the fused depthwise → pointwise segment, with the
    // model's credit cross-checked by the tile-granularity simulator.
    let graph = builders::mobilenet_v2_block(5)?;
    let resolved = schedules.resolve(&NamedLayer::of_graph(&graph)?);
    let planner = GraphPlanner::new(machine.clone());
    let plan = planner.plan(&graph, |spec| resolved[spec].1.clone())?;
    let seg = plan.executable_segments().next().expect("a fused dw→pw segment");
    let (dw, pw) = (&seg.ops[0], &seg.ops[1]);
    println!("\nfused segment of {}: {} → {}", plan.graph, dw.name, pw.name);
    println!("  depthwise  {}", dw.shape);
    println!("  pointwise  {}", pw.shape);
    println!(
        "  intermediate tensor: {} elements (never round-trips DRAM)",
        dw.shape.output_elems()
    );
    println!(
        "  model:   unfused {:>12.0}  fused {:>12.0}  saved {:>5.1}%",
        seg.unfused_volume,
        seg.volume,
        100.0 * seg.saving() / seg.unfused_volume.max(1.0)
    );

    let sim = TileTrafficSimulator::default();
    let est = sim.fused_pair_traffic(
        &dw.shape,
        &dw.best.config,
        &pw.shape,
        &pw.best.config,
        TilingLevel::L3,
    );
    println!(
        "  tilesim: unfused {:>12.0}  fused {:>12.0}  saved {:>5.1}%",
        est.unfused_total,
        est.fused_total,
        100.0 * est.saving() / est.unfused_total.max(1.0)
    );
    assert!(est.fused_total < est.unfused_total);
    assert!(plan.fused_volume < plan.unfused_volume);
    println!("\nfused plans move strictly less data on both the model and the simulator axis.");
    Ok(())
}

//! Criterion bench: fusion-aware graph planning and fused vs. unfused
//! depthwise + pointwise execution.
//!
//! Three axes of the `mopt_graph` subsystem:
//!
//! * `plan_block_cold` / `plan_block_warm` — the fusion DP over a
//!   MobileNetV2 inverted-residual block, cold (per-op solves included) and
//!   warm (all schedules cached, only the DP runs),
//! * `exec_fused` vs. `exec_sequential` — the fused depthwise → pointwise
//!   executor against the same pair run as two separate convolutions with a
//!   fully materialized intermediate tensor. The fused variant touches the
//!   intermediate only band-by-band, which is the traffic the cross-layer
//!   planner's model credits.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use conv_exec::{FusedDwPw, Tensor4};
use conv_spec::{ConvShape, MachineModel};
use mopt_core::{MOptOptimizer, OptimizerOptions};
use mopt_graph::{builders, GraphPlanner};
use mopt_service::batch::NamedLayer;
use mopt_service::{NetworkPlanner, ScheduleCache, Tier};

fn fast_options() -> OptimizerOptions {
    OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() }
}

fn bench_graph_planning(c: &mut Criterion) {
    let machine = MachineModel::i7_9700k();
    let graph = builders::mobilenet_v2_block(5).unwrap();
    let mut group = c.benchmark_group("graph");
    group.sample_size(10);

    group.bench_function("plan_block_cold", |b| {
        b.iter(|| {
            let planner = GraphPlanner::new(machine.clone());
            let plan = planner
                .plan(&graph, |spec| {
                    MOptOptimizer::optimize_spec(spec, machine.clone(), fast_options())
                })
                .unwrap();
            black_box(plan.fused_volume)
        })
    });

    // Warm: every per-op schedule already cached; only the cache reads and
    // the DP itself run.
    let cache = ScheduleCache::new(64);
    let schedules = NetworkPlanner::new(&cache, machine.clone(), fast_options());
    let layers = NamedLayer::of_graph(&graph).unwrap();
    let planner = GraphPlanner::new(machine.clone());
    let resolved = schedules.resolve(&layers);
    let warm_plan = planner.plan(&graph, |spec| resolved[spec].1.clone()).unwrap();
    assert!(warm_plan.fusions_taken >= 1);
    group.bench_function("plan_block_warm", |b| {
        b.iter(|| {
            let resolved = schedules.resolve(&layers);
            assert!(resolved.values().all(|(tier, _)| *tier == Tier::Cache), "warm plan solved");
            let plan = planner.plan(&graph, |spec| resolved[spec].1.clone()).unwrap();
            black_box(plan.fused_volume)
        })
    });
    group.finish();
}

fn bench_fused_execution(c: &mut Criterion) {
    // A mid-size depthwise → pointwise pair (scaled V-stage) so one
    // iteration stays in the milliseconds.
    let dw = ConvShape::depthwise(64, 30, 3, 1);
    let pw = conv_exec::pointwise_consumer(&dw, 32);
    let fused = FusedDwPw::new(dw, pw).unwrap().with_relu_intermediate(true);
    let input = Tensor4::random(dw.n, dw.c, dw.input_h(), dw.input_w(), 7);
    let (dk, dc, dr, ds) = dw.kernel_dims();
    let dwk = Tensor4::random(dk, dc, dr, ds, 8);
    let (pk, pc, pr, ps) = pw.kernel_dims();
    let pwk = Tensor4::random(pk, pc, pr, ps, 9);

    let mut group = c.benchmark_group("graph");
    group.sample_size(10);
    group.throughput(Throughput::Elements((dw.flops() + pw.flops()) as u64 / 2));
    group.bench_function("exec_fused", |b| b.iter(|| black_box(fused.run(&input, &dwk, &pwk))));
    group.bench_function("exec_sequential", |b| {
        b.iter(|| black_box(fused.run_sequential(&input, &dwk, &pwk)))
    });
    group.finish();
}

criterion_group!(benches, bench_graph_planning, bench_fused_execution);
criterion_main!(benches);

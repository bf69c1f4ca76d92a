//! Integration tests spanning the whole stack: optimizer → configuration →
//! executor → correctness, and model → simulator consistency.

use mopt_repro::baselines::OneDnnLike;
use mopt_repro::cache_sim::{CacheKind, TileTrafficSimulator, TraceSimulator};
use mopt_repro::conv_exec::naive::conv2d_naive;
use mopt_repro::conv_exec::{Tensor4, TiledConv};
use mopt_repro::conv_spec::{benchmarks, ConvShape, MachineModel, Spec, TileConfig, TilingLevel};
use mopt_repro::mopt_core::optimizer::{heuristic_config, MOptOptimizer, OptimizerOptions};
use mopt_repro::mopt_model::multilevel::{MultiLevelModel, ParallelSpec};

fn fast_optimizer(shape: ConvShape, machine: &MachineModel, classes: usize) -> MOptOptimizer {
    let opts = OptimizerOptions { max_classes: classes, multistart: 0, ..OptimizerOptions::fast() };
    MOptOptimizer::new(shape, machine.clone(), opts)
}

#[test]
fn optimized_configuration_executes_correctly() {
    // The full pipeline the paper describes: model-driven optimization
    // produces a tiling configuration; the generated (here: interpreted)
    // tiled code must compute the same result as the reference convolution.
    let shape = ConvShape::new(1, 24, 12, 3, 3, 14, 14, 1).unwrap();
    let machine = MachineModel::i7_9700k();
    let result = fast_optimizer(shape, &machine, 2).optimize();
    let config = result.best().config.clone();

    let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 10);
    let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 11);
    let reference = conv2d_naive(&shape, &input, &kernel);
    let tiled = TiledConv::new(shape, config, 2).unwrap();
    let out = tiled.run(&input, &kernel);
    assert!(reference.allclose(&out, 1e-3));
}

#[test]
fn optimizer_beats_untiled_execution_in_simulated_traffic() {
    // The optimized configuration should move less (or equal) data at the
    // memory/L3 boundary than a register-only heuristic whose working set
    // does not fit any cache.
    let shape = ConvShape::new(1, 32, 32, 3, 3, 14, 14, 1).unwrap();
    let machine = MachineModel::i7_9700k();
    let result = fast_optimizer(shape, &machine, 3).optimize();
    let sim = TileTrafficSimulator::default();
    let optimized = sim.simulate(&shape, &result.best().config);
    // A degenerate configuration: tiny register tile, no cache blocking.
    let mut bad = TileConfig::untiled(&shape);
    *bad.level_mut(TilingLevel::Register) = mopt_repro::conv_spec::TileSizes::ones();
    let bad = bad.normalized(&shape);
    let unblocked = sim.simulate(&shape, &bad);
    let (_, opt_cost) = optimized.bottleneck(&machine, 1);
    let (_, bad_cost) = unblocked.bottleneck(&machine, 1);
    assert!(
        opt_cost <= bad_cost,
        "optimized bottleneck {opt_cost} should not exceed unblocked {bad_cost}"
    );
}

#[test]
fn model_and_trace_simulator_agree_on_ranking_small_operator() {
    // On a small operator where exact LRU simulation is feasible, the
    // analytical model and the exact simulator must agree on which of two
    // clearly different configurations is better at the L2/L3 boundaries.
    let shape = ConvShape::new(1, 16, 16, 3, 3, 12, 12, 1).unwrap();
    let machine = MachineModel::tiny_test_machine();
    let good = heuristic_config(&shape, &machine);
    let mut bad = TileConfig::untiled(&shape);
    *bad.level_mut(TilingLevel::Register) = mopt_repro::conv_spec::TileSizes::ones();
    let bad = bad.normalized(&shape);

    let model = MultiLevelModel::new(shape, machine.clone(), good.permutation.clone());
    let model_good = model.predict_config(&good);
    let model_bad = model.predict_config(&bad);

    let sim_good =
        TraceSimulator::new(&shape, &machine, CacheKind::IdealFullyAssociative).run(&good);
    let sim_bad = TraceSimulator::new(&shape, &machine, CacheKind::IdealFullyAssociative).run(&bad);

    let model_says_good_better =
        model_good.volume(TilingLevel::Register) <= model_bad.volume(TilingLevel::Register);
    let sim_says_good_better =
        sim_good.volume(TilingLevel::Register) <= sim_bad.volume(TilingLevel::Register);
    assert_eq!(model_says_good_better, sim_says_good_better);
    assert!(model_says_good_better, "blocked configuration should be better");
}

#[test]
fn library_baseline_and_mopt_configuration_both_compute_the_same_result() {
    let op = benchmarks::scaled_operators(12, 24).into_iter().find(|o| o.name == "R6").unwrap();
    let shape = op.shape;
    let machine = MachineModel::i7_9700k();
    let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 20);
    let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 21);
    let reference = conv2d_naive(&shape, &input, &kernel);

    let lib = OneDnnLike::new(machine.clone());
    let lib_out = lib.run(&shape, &input, &kernel);
    assert!(reference.allclose(&lib_out, 1e-3));

    let result = fast_optimizer(shape, &machine, 1).optimize();
    let mopt_out =
        TiledConv::new(shape, result.best().config.clone(), 1).unwrap().run(&input, &kernel);
    assert!(reference.allclose(&mopt_out, 1e-3));
}

#[test]
fn strided_benchmark_operators_execute_correctly_end_to_end() {
    // Every strided (stride-2) operator structure from Table 1, scaled down.
    // The MobileNet entries are true depthwise shapes, so this also covers
    // grouped execution end to end.
    let machine = MachineModel::i7_9700k();
    let ops = benchmarks::scaled_operators(10, 16);
    let strided: Vec<_> = ops.into_iter().filter(|o| o.is_strided()).collect();
    assert!(strided.iter().any(|o| o.shape.is_depthwise()), "expected depthwise M* operators");
    for op in strided {
        let shape = op.shape;
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, 30);
        let kernel = Tensor4::random(kk, kc, kr, ks, 31);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let config = heuristic_config(&shape, &machine);
        let out = TiledConv::new(shape, config, 2).unwrap().run(&input, &kernel);
        assert!(reference.allclose(&out, 1e-3), "operator {}", op.name);
    }
}

#[test]
fn depthwise_and_dilated_operators_optimize_and_execute_end_to_end() {
    // The full pipeline on the generalized suites: optimize a scaled
    // MobileNetV2 depthwise stage and a dilated DeepLab-style operator, then
    // execute the chosen schedule and compare with the reference.
    let machine = MachineModel::i7_9700k();
    let scaled: Vec<_> = benchmarks::extended_operators()
        .into_iter()
        .filter(|op| op.name == "V5" || op.name == "D1" || op.name == "D5")
        .map(|mut op| {
            let s = &mut op.shape;
            let was_depthwise = s.is_depthwise();
            s.k = s.k.min(16);
            s.c = s.c.min(16);
            s.h = s.h.min(12);
            s.w = s.w.min(12);
            if was_depthwise {
                s.groups = s.k.min(s.c);
            } else {
                s.groups = 1;
            }
            op
        })
        .collect();
    assert_eq!(scaled.len(), 3);
    for op in scaled {
        let shape = op.shape;
        let result = fast_optimizer(shape, &machine, 2).optimize();
        let config = result.best().config.clone();
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, 50);
        let kernel = Tensor4::random(kk, kc, kr, ks, 51);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let out = TiledConv::new(shape, config, 2).unwrap().run(&input, &kernel);
        assert!(reference.allclose(&out, 1e-3), "operator {}", op.name);
    }
}

#[test]
fn problems_too_large_for_usize_are_an_error_not_a_wrapped_schedule() {
    // 2·k·c alone is 2^65: the flops wrapped to 0 and the request was served.
    let big = 1usize << 32;
    let shape = ConvShape::new(1, big, big, 3, 3, big, big, 1);
    assert!(shape.unwrap_err().to_string().contains("overflows at c/groups = 4294967296"));
    assert!(Spec::matmul(big, big, big).validate().is_err());
    let service = mopt_repro::mopt_service::ServiceState::new(4);
    let reply = service.handle_line(&format!(
        r#"{{"Optimize":{{"shape":{{"n":1,"k":{big},"c":{big},"r":3,"s":3,"h":{big},"w":{big},"stride":1}},"machine":{{"Preset":"tiny"}}}}}}"#
    ));
    assert!(reply.starts_with(r#"{"Error":"#) && reply.contains("overflows at"), "{reply}");
    assert!(service.handle_line("\"Ping\"").starts_with(r#"{"Pong":"#));
}

#[test]
fn parallel_specs_from_machines_are_valid_for_all_benchmarks() {
    for machine in [MachineModel::i7_9700k(), MachineModel::i9_10980xe()] {
        for op in benchmarks::all_operators() {
            let spec = ParallelSpec::default_for(&op.shape, machine.threads);
            assert!(spec.is_valid(), "invalid parallel spec for {} on {}", op.name, machine.name);
        }
    }
}

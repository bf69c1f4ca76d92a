//! Integration tests for the serving layer: the acceptance criteria of the
//! `mopt-service` subsystem.
//!
//! * warm whole-network planning of the 32 Table-1 operators is ≥10x
//!   faster than the cold run,
//! * a `moptd` round trip (`Optimize` request → `OptimizedConfig` response
//!   → execution via `TiledConv`) matches `conv2d_naive`,
//! * serialized results survive text round trips exactly.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use conv_exec::naive::conv2d_naive;
use conv_exec::{NchwcConv, Tensor4, TiledConv};
use conv_spec::{benchmarks, ConvShape, MachineModel, TileConfig};
use mopt_core::{LayoutPolicy, OptimizeResult, OptimizerOptions};
use mopt_service::batch::NamedLayer;
use mopt_service::{NetworkPlanner, Request, Response, ScheduleCache, ServiceState};
use serde::Value;

fn fast_options() -> OptimizerOptions {
    OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() }
}

/// Acceptance: planning all 32 Table-1 operators a second time (cache
/// populated) must be at least 10x faster than the cold run.
#[test]
fn warm_table1_planning_is_10x_faster_than_cold() {
    let cache = ScheduleCache::new(256);
    let planner = NetworkPlanner::new(&cache, MachineModel::i7_9700k(), fast_options());

    let t_cold = Instant::now();
    let cold = planner.plan_ops(&benchmarks::all_operators());
    let cold_seconds = t_cold.elapsed().as_secs_f64();

    let t_warm = Instant::now();
    let warm = planner.plan_ops(&benchmarks::all_operators());
    let warm_seconds = t_warm.elapsed().as_secs_f64();

    assert_eq!(cold.stats.layers, 32);
    assert_eq!(cold.stats.cache_hits, 0);
    assert_eq!(warm.stats.cache_hits, warm.stats.unique_shapes);
    assert_eq!(warm.stats.solves, 0);
    assert!(warm.layers.iter().all(|l| l.from_cache));
    for (a, b) in cold.layers.iter().zip(&warm.layers) {
        assert_eq!(a.best, b.best, "warm plan diverged for {}", a.name);
    }
    assert!(
        warm_seconds * 10.0 <= cold_seconds,
        "warm planning ({warm_seconds:.4}s) is not ≥10x faster than cold ({cold_seconds:.4}s)"
    );
}

/// Acceptance: an `Optimize` request's returned configuration, executed by
/// `TiledConv`, computes the same convolution as the naive reference.
#[test]
fn optimize_response_executes_correctly() {
    let state = ServiceState::new(16);
    let shape = ConvShape::new(1, 8, 4, 3, 3, 12, 12, 1).unwrap();
    let request = Request::Optimize {
        spec: None,
        op: None,
        shape: Some(shape),
        machine: mopt_service::MachineSpec::Preset("tiny".into()),
        options: Some(fast_options()),
        threads: None,
        trace: None,
    };
    let response = state.handle(&request);
    let result = match response {
        Response::Optimized { result, shape: s, .. } => {
            assert_eq!(s, shape);
            result
        }
        other => panic!("expected Optimized, got {other:?}"),
    };

    let best: TileConfig = result.best().config.clone();
    assert!(best.validate(&shape).is_ok());
    let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 11);
    let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 22);
    let reference = conv2d_naive(&shape, &input, &kernel);
    let tiled = TiledConv::new(shape, best, 1).unwrap().run(&input, &kernel);
    assert!(
        reference.allclose(&tiled, 1e-3),
        "optimized configuration computes a different convolution"
    );
}

/// The same round trip through the real `moptd` binary over stdio: request
/// in, JSON response out, executed configuration matches the reference.
#[test]
fn moptd_stdio_round_trip_matches_naive() {
    let shape = ConvShape::new(1, 8, 4, 3, 3, 12, 12, 1).unwrap();
    let request = serde_json::to_string(&Request::Optimize {
        spec: None,
        op: None,
        shape: Some(shape),
        machine: mopt_service::MachineSpec::Preset("tiny".into()),
        options: Some(fast_options()),
        threads: None,
        trace: None,
    })
    .unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .args(["--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("moptd spawns");
    {
        let stdin = child.stdin.as_mut().expect("moptd stdin");
        stdin.write_all(request.as_bytes()).unwrap();
        stdin.write_all(b"\n\"Ping\"\n").unwrap();
    }
    child.stdin.take(); // close stdin so moptd exits
    let stdout = BufReader::new(child.stdout.take().expect("moptd stdout"));
    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    let status = child.wait().unwrap();
    assert!(status.success(), "moptd exited with {status}");
    assert_eq!(lines.len(), 2, "expected two response lines, got {lines:?}");
    match serde_json::from_str::<Response>(&lines[1]).unwrap() {
        Response::Pong { version, uptime_seconds } => {
            assert_eq!(version, env!("CARGO_PKG_VERSION"));
            assert!(uptime_seconds.expect("uptime reported") >= 0.0);
        }
        other => panic!("expected Pong, got {other:?}"),
    }

    let response: Response = serde_json::from_str(&lines[0]).unwrap();
    let result = match response {
        Response::Optimized { result, .. } => result,
        other => panic!("expected Optimized, got {other:?}"),
    };
    let best = result.best().config.clone();
    let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 5);
    let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 6);
    let reference = conv2d_naive(&shape, &input, &kernel);
    let tiled = TiledConv::new(shape, best, 1).unwrap().run(&input, &kernel);
    assert!(reference.allclose(&tiled, 1e-3));
}

/// Acceptance: `moptd` serves an `Optimize` request for a depthwise
/// MobileNetV2 stage (by suite name) and for a dilation-2 convolution (by
/// explicit shape, including the new `dilation` field on the wire), and the
/// returned schedules executed via `TiledConv` match the naive reference.
#[test]
fn moptd_serves_depthwise_and_dilated_shapes() {
    let v5 = benchmarks::by_name("V5").unwrap().shape;
    assert!(v5.is_depthwise());
    let dilated = ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap().with_dilation(2).unwrap();

    let by_name_request = serde_json::to_string(&Request::Optimize {
        spec: None,
        op: Some("V5".into()),
        shape: None,
        machine: mopt_service::MachineSpec::Preset("tiny".into()),
        options: Some(fast_options()),
        threads: None,
        trace: None,
    })
    .unwrap();
    let by_shape_request = serde_json::to_string(&Request::Optimize {
        spec: None,
        op: None,
        shape: Some(dilated),
        machine: mopt_service::MachineSpec::Preset("tiny".into()),
        options: Some(fast_options()),
        threads: None,
        trace: None,
    })
    .unwrap();
    // The dilated request really carries the new field on the wire.
    assert!(by_shape_request.contains("\"dilation\":2"));

    let mut child = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .args(["--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("moptd spawns");
    {
        let stdin = child.stdin.as_mut().expect("moptd stdin");
        stdin.write_all(format!("{by_name_request}\n{by_shape_request}\n").as_bytes()).unwrap();
    }
    child.stdin.take();
    let stdout = BufReader::new(child.stdout.take().expect("moptd stdout"));
    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert!(child.wait().unwrap().success());
    assert_eq!(lines.len(), 2, "expected two response lines, got {lines:?}");

    for (line, shape, seed) in [(&lines[0], v5, 71u64), (&lines[1], dilated, 72u64)] {
        let response: Response = serde_json::from_str(line).unwrap();
        let result = match response {
            Response::Optimized { result, shape: served, .. } => {
                assert_eq!(served, shape);
                result
            }
            other => panic!("expected Optimized for {shape}, got {other:?}"),
        };
        let best = result.best().config.clone();
        assert!(best.validate(&shape).is_ok());
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, seed);
        let kernel = Tensor4::random(kk, kc, kr, ks, seed + 1);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let tiled = TiledConv::new(shape, best, 2).unwrap().run(&input, &kernel);
        assert!(
            reference.allclose(&tiled, 1e-3),
            "served schedule for {shape} diverges from the naive reference"
        );
    }
}

/// Backward compatibility: a legacy request whose shape JSON has no
/// `dilation`/`groups` fields still parses and hits the same cache entry as
/// the explicit dense form.
#[test]
fn legacy_wire_shapes_parse_and_share_cache_entries() {
    let state = ServiceState::new(16);
    let legacy = format!(
        "{{\"Optimize\": {{\"shape\": {{\"n\":1,\"k\":8,\"c\":4,\"r\":3,\"s\":3,\"h\":10,\"w\":10,\"stride\":1}}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
        serde_json::to_string(&fast_options()).unwrap()
    );
    let explicit = format!(
        "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
        serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
        serde_json::to_string(&fast_options()).unwrap()
    );
    let first: Response = serde_json::from_str(&state.handle_line(&legacy)).unwrap();
    let second: Response = serde_json::from_str(&state.handle_line(&explicit)).unwrap();
    match (first, second) {
        (
            Response::Optimized { cached: false, result: a, .. },
            Response::Optimized { cached: true, result: b, .. },
        ) => assert_eq!(a.ranked, b.ranked),
        other => panic!("expected cold legacy then warm explicit, got {other:?}"),
    }
}

/// The new suites are servable through `PlanNetwork`.
#[test]
fn plan_network_serves_generalized_suites() {
    let state = ServiceState::new(64);
    for (suite, expected_layers) in [("mobilenetv2", 9), ("dilated", 5)] {
        let line = format!(
            "{{\"PlanNetwork\": {{\"suite\": \"{suite}\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 4}}}}",
            serde_json::to_string(&fast_options()).unwrap()
        );
        let response: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match response {
            Response::Planned { plan, .. } => {
                assert_eq!(plan.stats.layers, expected_layers, "suite {suite}");
                for layer in &plan.layers {
                    assert!(layer.best.config.validate(&layer.shape).is_ok());
                }
            }
            other => panic!("expected Planned for {suite}, got {other:?}"),
        }
    }
}

/// `moptd --snapshot`: a second process starts warm from the first's cache.
#[test]
fn moptd_snapshot_warms_across_processes() {
    let mut path = std::env::temp_dir();
    path.push(format!("moptd-itest-snapshot-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();

    let shape = ConvShape::new(1, 4, 4, 3, 3, 8, 8, 1).unwrap();
    let request = serde_json::to_string(&Request::Optimize {
        spec: None,
        op: None,
        shape: Some(shape),
        machine: mopt_service::MachineSpec::Preset("tiny".into()),
        options: Some(fast_options()),
        threads: None,
        trace: None,
    })
    .unwrap();

    let run = |expect_cached: bool| {
        let output = Command::new(env!("CARGO_BIN_EXE_moptd"))
            .args(["--stdio", "--snapshot", path.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .and_then(|mut child| {
                child
                    .stdin
                    .as_mut()
                    .expect("stdin")
                    .write_all(format!("{request}\n").as_bytes())?;
                child.stdin.take();
                child.wait_with_output()
            })
            .expect("moptd runs");
        let line = String::from_utf8(output.stdout).unwrap();
        let response: Response = serde_json::from_str(line.trim()).unwrap();
        match response {
            Response::Optimized { cached, result, .. } => {
                assert_eq!(
                    cached, expect_cached,
                    "expected cached={expect_cached} from snapshot state"
                );
                result
            }
            other => panic!("expected Optimized, got {other:?}"),
        }
    };

    let cold = run(false);
    let warm = run(true);
    assert_eq!(cold.ranked, warm.ranked, "snapshot must reproduce the exact result");
    std::fs::remove_file(&path).ok();
}

/// Satellite: serde round trips are exact for the protocol's payload types.
/// The sharded snapshot mode is gone: its flag is rejected like any other
/// unknown argument instead of being silently ignored.
#[test]
fn moptd_rejects_the_removed_snapshot_dir_flag() {
    let output = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .args(["--snapshot-dir", "x"])
        .stdin(Stdio::null())
        .output()
        .expect("moptd runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown argument `--snapshot-dir`"), "stderr: {stderr}");
}

#[test]
fn serde_round_trips_are_exact() {
    let machine = MachineModel::tiny_test_machine();
    let shape = ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap();
    let result = mopt_core::MOptOptimizer::new(shape, machine, fast_options()).optimize();

    // OptimizeResult round trip (bit-exact floats via shortest formatting).
    let text = serde_json::to_string(&result).unwrap();
    let back: OptimizeResult = serde_json::from_str(&text).unwrap();
    assert_eq!(result, back);

    // TileConfig round trip.
    let config = result.best().config.clone();
    let text = serde_json::to_string(&config).unwrap();
    let back: TileConfig = serde_json::from_str(&text).unwrap();
    assert_eq!(config, back);

    // Request/Response round trips.
    let request = Request::PlanNetwork {
        suite: Some("resnet18".into()),
        layers: None,
        machine: mopt_service::MachineSpec::Custom(MachineModel::i9_10980xe()),
        options: Some(OptimizerOptions::default()),
        threads: None,
        trace: None,
        workers: Some(4),
    };
    let text = serde_json::to_string(&request).unwrap();
    let back: Request = serde_json::from_str(&text).unwrap();
    assert_eq!(request, back);
}

/// Acceptance (tentpole): a `PlanGraph` request for a real MobileNetV2
/// inverted-residual block, served end-to-end through the `moptd` binary
/// over stdio, returns a plan whose depthwise → pointwise tail is fused with
/// strictly less modeled traffic than the per-layer plan — and executing the
/// returned fused segment with the fused executor is bit-for-bit identical
/// to the sequential naive reference.
#[test]
fn moptd_plan_graph_fused_schedule_executes_correctly() {
    use conv_exec::FusedDwPw;
    use mopt_graph::GraphPlan;

    // The i7's L3 easily co-hosts a V5-stage dw + project working set, so
    // the fusion must be taken. Fast options keep the three solves quick.
    let request = format!(
        "{{\"PlanGraph\": {{\"block\": \"mbv2-block5\", \"machine\": {{\"Preset\": \"i7-9700k\"}}, \"options\": {}, \"workers\": 4}}}}",
        serde_json::to_string(&fast_options()).unwrap()
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .args(["--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("moptd spawns");
    {
        let stdin = child.stdin.as_mut().expect("moptd stdin");
        stdin.write_all(format!("{request}\n{request}\n").as_bytes()).unwrap();
    }
    child.stdin.take();
    let stdout = BufReader::new(child.stdout.take().expect("moptd stdout"));
    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert!(child.wait().unwrap().success());
    assert_eq!(lines.len(), 2, "expected two response lines, got {lines:?}");

    let parse = |line: &str| -> (bool, GraphPlan) {
        match serde_json::from_str::<Response>(line).unwrap() {
            Response::GraphPlanned { cached, plan, .. } => (cached, plan),
            other => panic!("expected GraphPlanned, got {other:?}"),
        }
    };
    let (cold_cached, plan) = parse(&lines[0]);
    let (warm_cached, warm) = parse(&lines[1]);
    assert!(!cold_cached);
    assert!(warm_cached, "second identical request must hit the graph-plan cache");
    assert_eq!(plan, warm);

    // The plan fuses exactly the depthwise → pointwise tail and its modeled
    // traffic is strictly below the unfused per-layer plan.
    assert_eq!(plan.graph, "mbv2-block5");
    assert_eq!(plan.fusions_taken, 1);
    assert!(
        plan.fused_volume < plan.unfused_volume,
        "fused {} must be strictly below unfused {}",
        plan.fused_volume,
        plan.unfused_volume
    );
    let seg = plan.executable_segments().next().expect("an executable fused segment");
    assert_eq!(seg.ops.len(), 2);
    let dw = seg.ops[0].shape;
    let pw = seg.ops[1].shape;
    assert!(dw.is_depthwise() && pw.is_pointwise());
    assert_eq!(seg.relu_between, vec![true], "MobileNetV2 has a ReLU before the projection");

    // Execute the returned fused segment: bit-for-bit against running the
    // two naive convolutions (with the ReLU in between) sequentially.
    let fused = FusedDwPw::new(dw, pw).unwrap().with_relu_intermediate(true);
    let input = Tensor4::random(dw.n, dw.c, dw.input_h(), dw.input_w(), 91);
    let dwk = {
        let (k, c, r, s) = dw.kernel_dims();
        Tensor4::random(k, c, r, s, 92)
    };
    let pwk = {
        let (k, c, r, s) = pw.kernel_dims();
        Tensor4::random(k, c, r, s, 93)
    };
    let got = fused.run(&input, &dwk, &pwk);
    let reference = fused.run_sequential(&input, &dwk, &pwk);
    assert_eq!(got.as_slice(), reference.as_slice(), "fused execution must be bit-for-bit exact");

    // The non-fused expansion layer's schedule still executes correctly.
    let expand = &plan.segments[0].ops[0];
    assert_eq!(expand.name, "expand");
    let e_in = Tensor4::random(
        expand.shape.n,
        expand.shape.c,
        expand.shape.input_h(),
        expand.shape.input_w(),
        94,
    );
    let e_ker = {
        let (k, c, r, s) = expand.shape.kernel_dims();
        Tensor4::random(k, c, r, s, 95)
    };
    let e_ref = conv2d_naive(&expand.shape, &e_in, &e_ker);
    let e_tiled =
        TiledConv::new(expand.shape, expand.best.config.clone(), 2).unwrap().run(&e_in, &e_ker);
    assert!(e_ref.allclose(&e_tiled, 1e-3));
}

/// Multicore serving: a multi-threaded plan request through the `moptd`
/// binary returns parallel schedules (factors multiplying to the requested
/// thread count), keyed separately from the sequential plan of the same
/// shape, and the parallel executor runs the returned schedule bit-for-bit
/// identically to the sequential tile walk.
#[test]
fn moptd_serves_multithreaded_plans_with_distinct_cache_keys() {
    use conv_exec::ParTiledConv;

    let shape = ConvShape::new(1, 8, 4, 3, 3, 12, 12, 1).unwrap();
    let layers = format!(
        "[{{\"name\": \"l0\", \"shape\": {0}}}, {{\"name\": \"l1\", \"shape\": {0}}}]",
        serde_json::to_string(&shape).unwrap()
    );
    let options = serde_json::to_string(&fast_options()).unwrap();
    let plan_at = |threads: usize| {
        format!(
            "{{\"PlanNetwork\": {{\"layers\": {layers}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {options}, \"threads\": {threads}, \"workers\": 2}}}}"
        )
    };

    let mut child = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .args(["--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("moptd spawns");
    {
        let stdin = child.stdin.as_mut().expect("moptd stdin");
        stdin.write_all(format!("{}\n{}\n\"Stats\"\n", plan_at(1), plan_at(4)).as_bytes()).unwrap();
    }
    child.stdin.take();
    let stdout = BufReader::new(child.stdout.take().expect("moptd stdout"));
    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert!(child.wait().unwrap().success());
    assert_eq!(lines.len(), 3, "expected three response lines, got {lines:?}");

    let plan = |line: &str| match serde_json::from_str::<Response>(line).unwrap() {
        Response::Planned { plan, .. } => plan,
        other => panic!("expected Planned, got {other:?}"),
    };
    let sequential = plan(&lines[0]);
    let parallel = plan(&lines[1]);
    assert_eq!(sequential.layers[0].best.config.total_parallelism(), 1);
    assert_eq!(parallel.layers[0].best.config.total_parallelism(), 4);
    // Identical layers dedupe within a request, but the 1-thread and the
    // 4-thread plan are distinct cache entries.
    match serde_json::from_str::<Response>(&lines[2]).unwrap() {
        Response::Stats { stats } => assert_eq!(stats.cache.entries, 2),
        other => panic!("expected Stats, got {other:?}"),
    }

    // Execute the parallel schedule: the returned parallel axis partitions
    // the output across 4 threads bit-for-bit equal to the sequential walk.
    let best = parallel.layers[0].best.config.clone();
    let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 81);
    let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 82);
    let sequential_out = TiledConv::new(shape, best.clone(), 1).unwrap().run(&input, &kernel);
    let parallel_out = ParTiledConv::new(shape, best, 4).unwrap().run(&input, &kernel);
    assert_eq!(parallel_out.as_slice(), sequential_out.as_slice());
    assert!(conv2d_naive(&shape, &input, &kernel).allclose(&parallel_out, 1e-3));
}

/// Acceptance (tentpole): `mopt-plan-world` pre-populates the schedule
/// database offline; a *cold* `moptd --db` process — empty cache, no prior
/// requests — then answers an `Optimize` request for a suite shape from the
/// database tier, with zero optimizer solves. The request asks for 8
/// threads while the populator solved at 1 thread, so the answer is a
/// re-ranked stored entry; its price is certified bit-identical to the
/// direct model's prediction for the served schedule.
#[test]
fn plan_world_db_serves_cold_moptd_without_solving() {
    use conv_spec::TilingLevel;
    use mopt_model::multilevel::{MultiLevelModel, ParallelSpec};
    use mopt_service::Tier;

    let dir = std::env::temp_dir().join(format!("mopt-plan-world-itest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Plan the world: one small suite x the tiny preset, fast settings.
    let populate = Command::new(env!("CARGO_BIN_EXE_mopt-plan-world"))
        .args([
            "--db",
            dir.to_str().unwrap(),
            "--suite",
            "mobilenetv2",
            "--preset",
            "tiny",
            "--threads",
            "1",
            "--classes",
            "1",
        ])
        .output()
        .expect("mopt-plan-world runs");
    assert!(
        populate.status.success(),
        "mopt-plan-world failed: {}",
        String::from_utf8_lossy(&populate.stderr)
    );

    // A cold daemon over the populated database: the very first request —
    // V5 is a MobileNetV2-suite operator — at 8 threads.
    let request = serde_json::to_string(&Request::Optimize {
        spec: None,
        op: Some("V5".into()),
        shape: None,
        machine: mopt_service::MachineSpec::Preset("tiny".into()),
        options: Some(fast_options()),
        threads: Some(8),
        trace: None,
    })
    .unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .args(["--stdio", "--db", dir.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("moptd spawns");
    {
        let stdin = child.stdin.as_mut().expect("moptd stdin");
        stdin.write_all(format!("{request}\n\"Stats\"\n").as_bytes()).unwrap();
    }
    child.stdin.take();
    let stdout = BufReader::new(child.stdout.take().expect("moptd stdout"));
    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert!(child.wait().unwrap().success());
    assert_eq!(lines.len(), 2, "expected two response lines, got {lines:?}");

    let shape = benchmarks::by_name("V5").unwrap().shape;
    let result = match serde_json::from_str::<Response>(&lines[0]).unwrap() {
        Response::Optimized { tier, cached, shape: served, result, .. } => {
            assert_eq!(served, shape);
            assert_eq!(tier, Some(Tier::Db), "first request must be answered by the db tier");
            assert!(!cached);
            result
        }
        other => panic!("expected Optimized, got {other:?}"),
    };
    // Stats confirm: one db hit, no misses, no errors — and no inserts,
    // i.e. the optimizer never ran (a solve would have written through).
    match serde_json::from_str::<Response>(&lines[1]).unwrap() {
        Response::Stats { stats } => {
            let db = stats.db.expect("db stats present under --db");
            assert_eq!(
                (db.hits, db.misses, db.errors, db.inserts),
                (1, 0, 0, 0),
                "cold request must be served without an optimizer solve"
            );
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    // The re-ranked schedule is one the direct optimizer would certify:
    // valid for the raw shape, the requested parallelism, inside the
    // per-thread L3 envelope, and priced bit-identically by the model.
    let machine = MachineModel::tiny_test_machine();
    let best = &result.ranked[0];
    assert!(best.config.validate(&shape).is_ok());
    assert_eq!(best.config.total_parallelism(), 8);
    assert!(
        best.config.level(TilingLevel::L3).footprint(&shape)
            <= machine.capacity_per_thread(TilingLevel::L3, 8)
    );
    let spec = ParallelSpec { threads: 8, factors: best.config.parallel.as_array() };
    let direct = MultiLevelModel::new(shape, machine, best.config.permutation.clone())
        .with_parallel(spec)
        .predict_config(&best.config);
    assert_eq!(best.predicted_cost, direct.bottleneck_cost);
    assert_eq!(best.prediction, direct);

    std::fs::remove_dir_all(&dir).ok();
}

/// The cache dedupes across suites: Table-1 contains every suite, so
/// planning a suite after Table-1 is fully warm.
#[test]
fn suite_plans_reuse_table1_cache_entries() {
    let cache = ScheduleCache::new(256);
    let machine = MachineModel::tiny_test_machine();
    let planner = NetworkPlanner::new(&cache, machine, fast_options());
    // Scaled-down stand-in for Table 1 keeps this test fast in debug builds.
    let ops = benchmarks::scaled_operators(8, 16);
    let cold = planner.plan_ops(&ops);
    assert_eq!(cold.stats.layers, 32);

    let resnet: Vec<NamedLayer> = ops
        .iter()
        .filter(|op| op.suite == conv_spec::BenchmarkSuite::ResNet18)
        .map(NamedLayer::from)
        .collect();
    let warm = planner.plan(&resnet);
    assert_eq!(warm.stats.solves, 0);
    assert!(warm.layers.iter().all(|l| l.from_cache));
}

/// Acceptance (`mopt-trace`): `Explain` over stdio through the real `moptd`
/// binary returns the optimizer's search trace and a per-level cost
/// breakdown that re-certifies the served schedule bit-for-bit — and the
/// schedule itself is bit-identical to what a plain `Optimize` serves.
#[test]
fn explain_over_stdio_recertifies_bit_identically() {
    use mopt_model::multilevel::{MultiLevelModel, ParallelSpec};

    let explain = serde_json::to_string(&Request::Explain {
        spec: None,
        op: Some("V5".into()),
        shape: None,
        machine: mopt_service::MachineSpec::Preset("tiny".into()),
        options: Some(fast_options()),
        threads: None,
    })
    .unwrap();
    let optimize = serde_json::to_string(&Request::Optimize {
        spec: None,
        op: Some("V5".into()),
        shape: None,
        machine: mopt_service::MachineSpec::Preset("tiny".into()),
        options: Some(fast_options()),
        threads: None,
        trace: None,
    })
    .unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .args(["--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("moptd spawns");
    {
        let stdin = child.stdin.as_mut().expect("moptd stdin");
        stdin.write_all(format!("{explain}\n{optimize}\n").as_bytes()).unwrap();
    }
    child.stdin.take();
    let stdout = BufReader::new(child.stdout.take().expect("moptd stdout"));
    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert!(child.wait().unwrap().success());
    assert_eq!(lines.len(), 2, "expected two response lines, got {lines:?}");

    let shape = benchmarks::by_name("V5").unwrap().shape;
    let (result, search, breakdown) = match serde_json::from_str::<Response>(&lines[0]).unwrap() {
        Response::Explained { op, shape: served, cached, result, search, breakdown, .. } => {
            assert_eq!(op.as_deref(), Some("V5"));
            assert_eq!(served, shape);
            assert!(!cached, "the first request of a cold daemon cannot be cached");
            (result, search, breakdown)
        }
        other => panic!("expected Explained, got {other:?}"),
    };

    // The search trace is a complete account of the exploration: every
    // candidate class is listed, the global tallies are the per-candidate
    // sums, and pruning is visible.
    assert_eq!(search.permutations_total, 5040, "7! loop orders before pruning");
    assert!(search.classes_searched >= 1);
    assert!(search.permutations_pruned > 0);
    assert_eq!(search.candidates.len(), search.classes_searched as usize);
    assert!(search.enumerated > 0);
    assert_eq!(search.enumerated, search.candidates.iter().map(|c| c.enumerated).sum::<u64>());
    assert_eq!(
        search.capacity_pruned,
        search.candidates.iter().map(|c| c.capacity_pruned).sum::<u64>()
    );
    let best = result.best();
    assert_eq!(search.winner_class, best.class_id);
    assert_eq!(search.winner_cost, best.predicted_cost);

    // The per-level breakdown sums (bit-for-bit) to the certified price.
    assert_eq!(breakdown.attributed_total(), breakdown.total_cost);
    assert_eq!(breakdown.total_cost, best.predicted_cost);

    // …and an in-process model re-certifies the same price for the served
    // schedule: Explain's numbers are the model's numbers, not a story.
    let machine = MachineModel::tiny_test_machine();
    let spec =
        ParallelSpec { threads: fast_options().threads, factors: best.config.parallel.as_array() };
    let direct = MultiLevelModel::new(shape, machine, best.config.permutation.clone())
        .with_parallel(spec)
        .predict_config(&best.config);
    assert_eq!(best.predicted_cost, direct.bottleneck_cost);

    // The plain Optimize (same key, now warm from the Explain) serves the
    // bit-identical schedule.
    match serde_json::from_str::<Response>(&lines[1]).unwrap() {
        Response::Optimized { cached, result: plain, .. } => {
            assert!(cached, "Explain must warm the cache for Optimize");
            assert_eq!(plain, result, "Explain and Optimize must serve the same schedule");
        }
        other => panic!("expected Optimized, got {other:?}"),
    }
}

/// `value` without the timing fields, which vary run to run.
fn scrub(value: &Value) -> Value {
    match value {
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .filter(|(key, _)| {
                    !matches!(
                        key.as_str(),
                        "optimize_seconds"
                            | "solve_seconds"
                            | "wall_seconds"
                            | "plan_seconds"
                            | "uptime_seconds"
                    )
                })
                .map(|(key, inner)| (key.clone(), scrub(inner)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(scrub).collect()),
        other => other.clone(),
    }
}

/// Replies of a real `moptd --stdio` to `lines`, one per line.
fn moptd_stdio(lines: &[String]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .arg("--stdio")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("moptd spawns");
    {
        let stdin = child.stdin.as_mut().expect("moptd stdin");
        for line in lines {
            stdin.write_all(line.as_bytes()).unwrap();
            stdin.write_all(b"\n").unwrap();
        }
    }
    child.stdin.take();
    let stdout = BufReader::new(child.stdout.take().expect("moptd stdout"));
    let replies: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert!(child.wait().unwrap().success());
    assert_eq!(replies.len(), lines.len(), "one reply per request");
    replies
}

/// The retired `thorough` and `line_elems` options (one solve profile, one
/// element-priced model) are still accepted and select nothing: `thorough`
/// true or false, `line_elems` 1 or 16, and an `options` object with neither
/// key are one cache key, answered by one solve and four cache hits with the
/// same bytes once timing is masked.
#[test]
fn moptd_accepts_the_retired_thorough_key_and_ignores_it() {
    let request = |retired: &str| {
        format!(
            r#"{{"Optimize": {{"op": "V5", "machine": {{"Preset": "tiny"}}, "options": {{"threads": 1, "multistart": 0, "keep_top": 5, "max_classes": 1{retired}}}}}}}"#
        )
    };
    let lines = [
        request(r#", "line_elems": 1, "thorough": true"#),
        request(r#", "line_elems": 1, "thorough": false"#),
        request(r#", "line_elems": 1"#),
        request(r#", "line_elems": 16"#),
        request(""),
        r#""Stats""#.to_string(),
    ];
    let replies = moptd_stdio(&lines);
    let masked: Vec<String> = replies[..5]
        .iter()
        .map(|line| serde_json::to_string(&scrub(&serde_json::parse_value(line).unwrap())).unwrap())
        .collect();
    assert!(masked[0].contains(r#""cached":false"#) && masked[0].contains(r#""tier":"Solver""#));
    let as_cache_hit = masked[0]
        .replace(r#""cached":false"#, r#""cached":true"#)
        .replace(r#""tier":"Solver""#, r#""tier":"Cache""#);
    for (masked, spelling) in masked[1..].iter().zip(&lines[1..5]) {
        assert_eq!(masked, &as_cache_hit, "{spelling} is the solved key's cache hit");
    }
    match serde_json::from_str::<Response>(&replies[5]).unwrap() {
        Response::Stats { stats } => {
            assert_eq!((stats.cache.misses, stats.cache.hits, stats.cache.entries), (1, 4, 1));
            assert_eq!(stats.flight.expect("flight counters").optimize.led, 1, "one solve");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// The retired `multistart` option (random starts of the former non-linear
/// solve) is accepted at any value and selects nothing: 0, 2, 64 and 65 —
/// once past the bound validation used to reject — are one cache key,
/// answered by one solve and three cache hits.
#[test]
fn moptd_accepts_the_retired_multistart_key_and_ignores_it() {
    let request = |multistart: usize| {
        format!(
            r#"{{"Optimize": {{"op": "V5", "machine": {{"Preset": "tiny"}}, "options": {{"threads": 1, "multistart": {multistart}, "keep_top": 5, "max_classes": 1}}}}}}"#
        )
    };
    let mut lines: Vec<String> = [0, 2, 64, 65].map(request).into();
    lines.push(r#""Stats""#.to_string());
    let replies = moptd_stdio(&lines);
    for (reply, tier) in replies[..4].iter().zip(["Solver", "Cache", "Cache", "Cache"]) {
        assert!(reply.contains(&format!(r#""tier":"{tier}""#)), "{reply}");
    }
    match serde_json::from_str::<Response>(&replies[4]).unwrap() {
        Response::Stats { stats } => {
            assert_eq!((stats.cache.misses, stats.cache.hits, stats.cache.entries), (1, 3, 1));
            assert_eq!(stats.flight.expect("flight counters").optimize.led, 1, "one solve");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// Acceptance: runtime SIMD dispatch must be invisible to planning. The same
/// `Optimize` request with `"layout_policy": "Search"` served by a real
/// `moptd --stdio` process with `MOPT_FORCE_SCALAR=1` and by one with SIMD
/// dispatch live must produce identical responses (volatile timing fields
/// aside) — layout search included — and the schedule the forced-scalar
/// server returns still computes the right convolution through the
/// layout-aware executor.
#[test]
fn moptd_forced_scalar_serves_identical_schedules_as_simd() {
    let shape = ConvShape::new(1, 16, 8, 3, 3, 12, 12, 1).unwrap();
    let request = serde_json::to_string(&Request::Optimize {
        spec: None,
        op: None,
        shape: Some(shape),
        machine: mopt_service::MachineSpec::Preset("tiny".into()),
        options: Some(OptimizerOptions {
            layout_policy: Some(LayoutPolicy::Search),
            ..fast_options()
        }),
        threads: None,
        trace: None,
    })
    .unwrap();
    assert!(request.contains(r#""layout_policy":"Search""#), "{request}");

    let serve = |force_scalar: bool| -> String {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_moptd"));
        cmd.arg("--stdio").stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::null());
        if force_scalar {
            cmd.env("MOPT_FORCE_SCALAR", "1");
        } else {
            cmd.env_remove("MOPT_FORCE_SCALAR");
        }
        let mut child = cmd.spawn().expect("moptd spawns");
        {
            let stdin = child.stdin.as_mut().expect("moptd stdin");
            stdin.write_all(request.as_bytes()).unwrap();
            stdin.write_all(b"\n").unwrap();
        }
        child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("moptd stdout"));
        let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
        assert!(child.wait().unwrap().success());
        assert_eq!(lines.len(), 1, "one reply per request");
        lines.into_iter().next().unwrap()
    };

    let scalar_line = serve(true);
    let simd_line = serve(false);
    let scalar = serde_json::parse_value(&scalar_line).unwrap();
    let simd = serde_json::parse_value(&simd_line).unwrap();
    assert_eq!(scrub(&scalar), scrub(&simd), "SIMD dispatch changed a served schedule");

    let response: Response = serde_json::from_str(&scalar_line).unwrap();
    let result = match response {
        Response::Optimized { result, .. } => result,
        other => panic!("expected Optimized, got {other:?}"),
    };
    let best = result.best().config.clone();
    let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 31);
    let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 32);
    let reference = conv2d_naive(&shape, &input, &kernel);
    let served = NchwcConv::new(shape, best, 1).unwrap().run(&input, &kernel);
    assert!(
        reference.allclose(&served, 1e-3),
        "forced-scalar served schedule computes a different convolution"
    );
}

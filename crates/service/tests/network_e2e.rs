//! Whole-network acceptance: plan a full ResNet-50 — stem conv, bottleneck
//! stacks, pooling, and the fully-connected matmul head, >50 schedulable
//! nodes — through ONE `PlanGraph` request against a real `moptd`, with
//! every operator served from the database tier after an offline
//! `mopt-plan-world` population pass.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use conv_spec::Spec;
use mopt_core::OptimizerOptions;
use mopt_graph::builders;
use mopt_service::Response;

#[test]
fn resnet50_plans_whole_through_moptd_from_the_db_tier() {
    let db = std::env::temp_dir().join(format!("moptd-resnet50-db-{}", std::process::id()));
    std::fs::remove_dir_all(&db).ok();

    // Offline population: solve every schedulable spec of the network once
    // (cheap settings — the point is serving, not schedule quality here).
    let populate = Command::new(env!("CARGO_BIN_EXE_mopt-plan-world"))
        .arg("--db")
        .arg(&db)
        .args(["--suite", "resnet50", "--preset", "tiny", "--threads", "1"])
        .args(["--classes", "1", "--keep-top", "3"])
        .output()
        .expect("mopt-plan-world runs");
    assert!(
        populate.status.success(),
        "population failed: {}",
        String::from_utf8_lossy(&populate.stderr)
    );

    let graph = builders::resnet50("resnet50");
    assert!(graph.nodes.len() > 50, "ResNet-50 must be a >50-node graph");
    let dims = graph.node_output_dims().expect("builder graph is valid");
    let schedulable = graph.schedulable_nodes();
    assert!(schedulable.len() > 50, "conv + pool + matmul nodes exceed 50");
    assert!(
        schedulable
            .iter()
            .any(|&id| matches!(graph.node_spec(id, &dims), Some(Spec::Matmul { .. }))),
        "the fc head plans as a first-class matmul spec"
    );

    let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() };
    let request = format!(
        "{{\"PlanGraph\": {{\"graph\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 4}}}}",
        serde_json::to_string(&graph).unwrap(),
        serde_json::to_string(&options).unwrap(),
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .arg("--stdio")
        .arg("--db")
        .arg(&db)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("moptd spawns");
    {
        let stdin = child.stdin.as_mut().expect("moptd stdin");
        stdin.write_all(request.as_bytes()).unwrap();
        stdin.write_all(b"\n\"Stats\"\n").unwrap();
    }
    child.stdin.take();
    let stdout = BufReader::new(child.stdout.take().expect("moptd stdout"));
    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert!(child.wait().unwrap().success());
    assert_eq!(lines.len(), 2);

    let plan = match serde_json::from_str::<Response>(&lines[0]).unwrap() {
        Response::GraphPlanned { cached: false, plan, .. } => plan,
        other => panic!("expected a fresh GraphPlanned, got {other:?}"),
    };
    assert_eq!(plan.graph, "resnet50");
    let ops: Vec<_> = plan.segments.iter().flat_map(|s| &s.ops).collect();
    assert!(ops.len() > 50, "whole network planned in one request, got {} ops", ops.len());
    assert!(ops.iter().any(|op| op.name == "fc"), "the matmul head is part of the plan");
    for op in &ops {
        op.best.config.validate(&op.shape).expect("every served schedule certifies");
    }

    // The population pass covered every spec: the db tier answered all of
    // them, and the optimizer never ran cold inside the daemon.
    match serde_json::from_str::<Response>(&lines[1]).unwrap() {
        Response::Stats { stats } => {
            let db_stats = stats.db.expect("db stats present");
            assert!(db_stats.hits > 0, "operators served from stored entries");
            assert_eq!(db_stats.misses, 0, "no cold solves after population");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    std::fs::remove_dir_all(&db).ok();
}

//! Optimizer options come from outside the program: a request whose
//! `options` the search cannot run with (`keep_top: 0`, which the optimizer
//! documents as a panic, or a `threads` — in `options` or as the top-level
//! field that overrides it — large enough to pin a worker for minutes) must
//! be answered with an `Error` naming the field — on the stdio path and through the event loop, for
//! every planning verb — and cost nothing: no tier touched, the connection
//! still serving. So must a problem whose extents multiply past `usize`
//! (flops that wrap to 0 in a release build and panic a worker in a checked
//! one), as a conv shape, a matmul or a pool. A problem that is merely huge
//! (extents of a million, nothing overflowing) is served, in bounded time.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use conv_spec::ConvShape;
use mopt_core::OptimizerOptions;
use mopt_service::batch::NamedLayer;
use mopt_service::{
    EventLoopServer, MachineSpec, Request, Response, ServerConfig, ServiceState, ServiceStats,
};

const VERBS: [&str; 4] = ["Optimize", "Explain", "PlanNetwork", "PlanGraph"];

/// The field each hostile set's `Error` must name, in `hostile_lines` order.
const FIELDS: [&str; 3] = ["keep_top", "threads", "threads"];

/// Rejecting every hostile line is microseconds of work; served, the
/// `threads` ones alone run for minutes.
const BOUND: Duration = Duration::from_secs(10);

/// Run `work` on its own thread and fail unless it finishes within
/// [`BOUND`], so a request that pins its worker fails the test instead of
/// hanging it (the stuck thread is left behind for the process exit).
fn within_bound<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(work()).ok());
    finished.recv_timeout(BOUND).expect("hostile lines must be rejected within the bound")
}

/// The three hostile option sets — the last a valid `options` under a
/// hostile top-level `threads` — each as all four planning verbs.
fn hostile_lines() -> Vec<String> {
    let fast = OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() };
    let hostile = [
        (OptimizerOptions { keep_top: 0, ..fast.clone() }, None),
        (OptimizerOptions { threads: 1_000_000_007, ..fast.clone() }, None),
        (fast, Some(usize::MAX)),
    ];
    let shape = ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap();
    let machine = MachineSpec::Preset("tiny".into());
    let mut lines = Vec::new();
    for (options, threads) in hostile {
        let (machine, options) = (machine.clone(), Some(options));
        let requests = [
            Request::Optimize {
                spec: None,
                op: None,
                shape: Some(shape),
                machine: machine.clone(),
                options: options.clone(),
                threads,
                trace: None,
            },
            Request::Explain {
                spec: None,
                op: None,
                shape: Some(shape),
                machine: machine.clone(),
                options: options.clone(),
                threads,
            },
            Request::PlanNetwork {
                suite: None,
                layers: Some(vec![NamedLayer::conv("a", shape)]),
                machine: machine.clone(),
                options: options.clone(),
                threads,
                workers: None,
                trace: None,
            },
            Request::PlanGraph {
                block: Some("mbv2-block1".into()),
                graph: None,
                machine,
                options,
                threads,
                workers: None,
                trace: None,
            },
        ];
        lines.extend(requests.iter().map(|r| serde_json::to_string(r).unwrap()));
    }
    lines
}

fn service(tag: &str) -> (Arc<ServiceState>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("moptd-badoptions-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    (Arc::new(ServiceState::new(64).with_db(dir.clone()).unwrap()), dir)
}

/// The four problems too large for `usize` — a conv shape whose flops wrap,
/// its matmul and pool forms, and `h = usize::MAX` at stride 2 — each as all
/// four planning verbs, with the extent the `Error` must name. Raw lines: no
/// constructor builds these. Shapes and specs are rejected as the line is
/// parsed; a graph's matmul and pool nodes (the pool's conv producer is
/// itself valid) by `PlanGraph`, before it plans anything.
fn overflow_lines() -> Vec<(String, &'static str)> {
    const BIG: &str = "4294967296";
    let conv = |k: &str, h: &str, stride: usize| {
        format!(r#"{{"n":1,"k":{k},"c":{k},"r":3,"s":3,"h":{h},"w":{k},"stride":{stride}}}"#)
    };
    // A problem as a request's field, as a graph's nodes and edges, and the
    // extent each of the two forms overflows at.
    let shape = |shape: String, names: &'static str| {
        let node = format!(r#"{{"name":"a","op":{{"Conv":{{"shape":{shape}}}}}}}"#);
        (format!(r#""shape":{shape}"#), format!(r#""nodes":[{node}],"edges":[]"#), names, names)
    };
    let matmul = format!(r#"{{"m":{BIG},"n":{BIG},"k":{BIG}}}"#);
    let pool_producer = r#"{"n":1,"k":16,"c":1,"r":1,"s":1,"h":65536,"w":65536,"stride":1}"#;
    let problems = [
        shape(conv(BIG, BIG, 1), "c/groups = 4294967296"),
        (
            format!(r#""spec":{{"Matmul":{matmul}}}"#),
            format!(r#""nodes":[{{"name":"a","op":{{"MatMul":{matmul}}}}}],"edges":[]"#),
            "n = 4294967296",
            "n = 4294967296",
        ),
        (
            format!(
                r#""spec":{{"Pool":{{"kind":"Avg","n":1,"channels":{BIG},"h":{BIG},"w":{BIG},"window":3,"stride":1}}}}"#
            ),
            format!(
                r#""nodes":[{{"name":"a","op":{{"Conv":{{"shape":{pool_producer}}}}}}},{{"name":"b","op":{{"Pool":{{"kind":"Avg","window":32768,"stride":1}}}}}}],"edges":[{{"from":0,"to":1,"tensor":{{"dims":[1,16,65536,65536],"layout":"Nchw"}}}}]"#
            ),
            "h = 4294967296",
            "w = 32769",
        ),
        shape(conv("1", "18446744073709551615", 2), "h = 18446744073709551615"),
    ];
    let machine = r#""machine":{"Preset":"tiny"}"#;
    let mut lines = Vec::new();
    for (problem, graph, names, graph_names) in problems {
        lines.extend([
            (format!(r#"{{"Optimize":{{{problem},{machine}}}}}"#), names),
            (format!(r#"{{"Explain":{{{problem},{machine}}}}}"#), names),
            (
                format!(r#"{{"PlanNetwork":{{"layers":[{{"name":"a",{problem}}}],{machine}}}}}"#),
                names,
            ),
            (
                format!(r#"{{"PlanGraph":{{"graph":{{"name":"g",{graph}}},{machine}}}}}"#),
                graph_names,
            ),
        ]);
    }
    lines
}

/// Every hostile line, in the order the replies are checked.
fn all_lines() -> Vec<String> {
    hostile_lines().into_iter().chain(overflow_lines().into_iter().map(|(line, _)| line)).collect()
}

/// `replies`: one per hostile line, then the `Stats` and `Ping` that
/// followed them on the same connection.
fn assert_rejected_and_still_serving(replies: &[Response]) {
    let (errors, rest) = replies.split_at(FIELDS.len() * VERBS.len());
    for (i, reply) in errors.iter().enumerate() {
        let field = FIELDS[i / VERBS.len()];
        match reply {
            Response::Error { message } => assert!(
                message.starts_with("invalid options: ") && message.contains(field),
                "{} #{i}: {message}",
                VERBS[i % VERBS.len()]
            ),
            other => panic!("{} #{i}: expected Error, got {other:?}", VERBS[i % VERBS.len()]),
        }
    }
    let overflows = overflow_lines();
    let (errors, rest) = rest.split_at(overflows.len());
    let mut by_verb = 0;
    for (reply, (line, names)) in errors.iter().zip(&overflows) {
        match reply {
            Response::Error { message } => {
                assert!(
                    message.contains("overflows at") && message.contains(names),
                    "{line}: {message}"
                );
                by_verb += u64::from(!message.starts_with("bad request: "));
            }
            other => panic!("{line}: expected Error, got {other:?}"),
        }
    }
    let [Response::Stats { stats }, Response::Pong { .. }] = rest else {
        panic!("expected Stats then Pong on the same connection, got {rest:?}");
    };
    let ServiceStats { cache, db, flight, errors, graph, .. } = stats;
    assert_eq!((cache.insertions, cache.entries), (0, 0));
    let db = db.as_ref().expect("a database is attached");
    assert_eq!((db.hits, db.misses, db.inserts, db.errors), (0, 0, 0, 0));
    let flight = flight.as_ref().expect("flight counters present");
    assert_eq!((flight.optimize.led, flight.graph.led), (0, 0));
    assert_eq!((graph.hits, graph.misses), (0, 0));
    let errors = errors.as_ref().expect("error counters present");
    // The graph's matmul and pool nodes are `PlanGraph`'s own errors; every
    // other oversized problem never parsed into a request.
    assert_eq!(by_verb, 2);
    assert_eq!(errors.parse_errors, overflows.len() as u64 - by_verb);
    for verb in VERBS {
        let count = errors.verbs.iter().find(|v| v.verb == verb).map(|v| v.count);
        let own = if verb == "PlanGraph" { by_verb } else { 0 };
        assert_eq!(count, Some(FIELDS.len() as u64 + own), "{verb} error counter");
    }
}

#[test]
fn hostile_options_are_an_error_reply_on_stdio() {
    let (state, dir) = service("stdio");
    let mut input = all_lines().join("\n");
    input.push_str("\n\"Stats\"\n\"Ping\"\n");
    let output = within_bound(move || {
        let mut output = Vec::new();
        state.serve_connection(input.as_bytes(), &mut output).unwrap();
        output
    });
    let replies: Vec<Response> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    assert_rejected_and_still_serving(&replies);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_options_are_an_error_reply_through_the_event_loop() {
    let (state, dir) = service("tcp");
    let server = EventLoopServer::bind(
        state,
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());

    let replies = within_bound(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut ask = |line: &str| -> Response {
            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(!reply.is_empty(), "connection closed instead of responding");
            serde_json::from_str(reply.trim()).unwrap()
        };
        // One request outstanding at a time: `Stats` must see every error counted.
        let mut replies: Vec<Response> = all_lines().iter().map(|line| ask(line)).collect();
        replies.push(ask("\"Stats\""));
        replies.push(ask("\"Ping\""));
        replies
    });
    assert_rejected_and_still_serving(&replies);

    shutdown.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Extents of a million are a legitimate problem, not an overflow: the search
/// must answer it in the time of any other (the integer stage grows tiles by
/// doubling, so its work follows the cache sizes, not the extents) with a
/// schedule valid for it.
#[test]
fn extents_of_a_million_are_served_like_any_other_shape() {
    let (state, dir) = service("million");
    let line = r#"{"Optimize":{"shape":{"n":1,"k":1000003,"c":4,"r":1,"s":1,"h":3,"w":1000003,"stride":1},"machine":{"Preset":"i7-9700k"}}}"#;
    let reply = within_bound(move || state.handle_line(line));
    match serde_json::from_str(&reply).unwrap() {
        Response::Optimized { shape, result, .. } => {
            assert_eq!((shape.k, shape.w), (1_000_003, 1_000_003));
            let best = result.best();
            assert!(best.config.validate(&shape).is_ok());
            assert!(best.predicted_cost.is_finite() && best.predicted_cost > 0.0);
        }
        other => panic!("expected Optimized, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

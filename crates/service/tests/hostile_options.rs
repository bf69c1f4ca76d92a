//! Optimizer options come from outside the program: a request whose
//! `options` the search cannot run with (`keep_top: 0`, which the optimizer
//! documents as a panic, a `multistart` large enough to exhaust memory, or a
//! `threads` — in `options` or as the top-level field that overrides it —
//! large enough to pin a worker for minutes) must be answered with an `Error`
//! naming the field — on the stdio path and through the event loop, for
//! every planning verb — and cost nothing: no tier touched, the connection
//! still serving.

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
const FIELDS: [&str; 4] = ["keep_top", "multistart", "threads", "threads"];

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

/// The four hostile option sets — the last a valid `options` under a hostile
/// top-level `threads` — each as all four planning verbs.
fn hostile_lines() -> Vec<String> {
    let fast = OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() };
    let hostile = [
        (OptimizerOptions { keep_top: 0, ..fast.clone() }, None),
        (OptimizerOptions { multistart: 1_000_000_000, ..fast.clone() }, None),
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
    let [Response::Stats { stats }, Response::Pong { .. }] = rest else {
        panic!("expected Stats then Pong on the same connection, got {rest:?}");
    };
    let ServiceStats { cache, db, flight, errors, .. } = stats;
    assert_eq!((cache.insertions, cache.entries), (0, 0));
    let db = db.as_ref().expect("a database is attached");
    assert_eq!((db.hits, db.misses, db.inserts, db.errors), (0, 0, 0, 0));
    let flight = flight.as_ref().expect("flight counters present");
    assert_eq!((flight.optimize.led, flight.graph.led), (0, 0));
    let errors = errors.as_ref().expect("error counters present");
    for verb in VERBS {
        let count = errors.verbs.iter().find(|v| v.verb == verb).map(|v| v.count);
        assert_eq!(count, Some(FIELDS.len() as u64), "{verb} error counter");
    }
}

#[test]
fn hostile_options_are_an_error_reply_on_stdio() {
    let (state, dir) = service("stdio");
    let mut input = hostile_lines().join("\n");
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
        let mut replies: Vec<Response> = hostile_lines().iter().map(|line| ask(line)).collect();
        replies.push(ask("\"Stats\""));
        replies.push(ask("\"Ping\""));
        replies
    });
    assert_rejected_and_still_serving(&replies);

    shutdown.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

//! Concurrent-client stress and fault-injection tests for the event-loop
//! server: the acceptance criteria of the `mopt-loop` work.
//!
//! * a thundering herd of 32 cold clients on one shape costs exactly one
//!   solver invocation, and every client gets a bit-identical response,
//! * clients that disconnect mid-request, send half-written lines, or send
//!   oversized lines hurt nobody but themselves,
//! * shutdown while requests are in flight still answers them, closes
//!   every connection, and — through the `moptd` binary under `SIGTERM` —
//!   exits cleanly with a flushed schedule database and no leaked temp
//!   files.
//!
//! These tests bind real TCP sockets and count wall-clock-sensitive
//! things (coalesced solves inside a widened solve window), so CI runs
//! this suite with `--test-threads=1`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use conv_exec::TiledConv;
use conv_spec::ConvShape;
use mopt_core::OptimizerOptions;
use mopt_service::{
    EventLoopServer, MachineSpec, Request, Response, ServerConfig, ServiceState, ShutdownHandle,
    Tier, MAX_REQUEST_BYTES,
};

fn fast_options() -> OptimizerOptions {
    OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() }
}

fn test_shape() -> ConvShape {
    ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()
}

fn optimize_line(shape: ConvShape) -> String {
    serde_json::to_string(&Request::Optimize {
        spec: None,
        op: None,
        shape: Some(shape),
        machine: MachineSpec::Preset("tiny".into()),
        options: Some(fast_options()),
        threads: None,
        trace: None,
    })
    .unwrap()
}

fn start(
    state: Arc<ServiceState>,
    workers: usize,
) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = EventLoopServer::bind(
        state,
        "127.0.0.1:0",
        ServerConfig { workers, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

fn recv_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(!line.is_empty(), "connection closed instead of responding");
    serde_json::from_str(line.trim()).unwrap()
}

fn wait_for_drained(state: &ServiceState) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while state.metrics().open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Acceptance: 32 concurrent clients requesting the same cold shape cost
/// exactly one solver invocation; all 32 responses are bit-identical; the
/// tier accounting (cache misses/insertions, flight counters, `Stats` over
/// the wire) is consistent with one led solve and 31 coalesced waiters.
#[test]
fn thundering_herd_of_32_cold_clients_coalesces_onto_one_solve() {
    const CLIENTS: usize = 32;
    let state = Arc::new(ServiceState::new(64));
    // Widen the coalescing window so scheduling jitter cannot let a
    // straggler arrive after the solve finished (which would make it a warm
    // hit, not a coalesced waiter).
    state.set_test_solve_delay(Duration::from_millis(750));
    // One worker per client: waiters park on the single-flight slot, and a
    // smaller pool would serialize them behind the leader instead.
    let (addr, handle, join) = start(Arc::clone(&state), CLIENTS);

    let shape = test_shape();
    let line = optimize_line(shape);
    let gate = Arc::new(Barrier::new(CLIENTS));
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (line, gate) = (line.clone(), Arc::clone(&gate));
                let stream = TcpStream::connect(addr).unwrap();
                scope.spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    gate.wait();
                    (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
                    let mut reply = String::new();
                    reader.read_line(&mut reply).unwrap();
                    reply
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(replies.len(), CLIENTS);
    assert!(
        replies.iter().all(|r| r == &replies[0]),
        "all {CLIENTS} responses must be bit-identical"
    );
    let first: Response = serde_json::from_str(replies[0].trim()).unwrap();
    let result = match first {
        Response::Optimized { cached, tier, result, .. } => {
            assert!(!cached, "a coalesced response is not a cache hit");
            assert_eq!(tier, Some(Tier::Solver));
            result
        }
        other => panic!("expected Optimized, got {other:?}"),
    };
    // The shared result is a real certified schedule: non-empty ranking
    // whose best configuration is executable for the requested shape.
    assert!(!result.ranked.is_empty());
    TiledConv::new(shape, result.best().config.clone(), 1)
        .expect("the coalesced schedule must be valid for the shape");

    // Tier accounting, read directly…
    let flight = state.flight_stats();
    assert_eq!(flight.optimize.led, 1, "exactly one solver invocation");
    assert_eq!(flight.optimize.coalesced, (CLIENTS - 1) as u64);
    assert_eq!(flight.optimize.errors, 0);
    assert_eq!(flight.optimize.in_flight, 0);
    let cache = state.cache.stats();
    assert_eq!(cache.insertions, 1, "one solve, one insertion");
    assert_eq!(cache.misses, CLIENTS as u64, "every client missed before coalescing");
    assert_eq!(cache.hits, 0);

    // …and over the wire: `Stats` reports the same flight counters, and a
    // warm repeat is a cache hit that does not move them (the regression the
    // `coalesced` counters exist to make visible).
    state.set_test_solve_delay(Duration::ZERO);
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    (&stream).write_all(format!("\"Stats\"\n{line}\n\"Stats\"\n").as_bytes()).unwrap();
    match recv_response(&mut reader) {
        Response::Stats { stats } => assert_eq!(stats.flight.as_ref(), Some(&flight)),
        other => panic!("expected Stats, got {other:?}"),
    }
    match recv_response(&mut reader) {
        Response::Optimized { cached, tier, .. } => {
            assert!(cached);
            assert_eq!(tier, Some(Tier::Cache));
        }
        other => panic!("expected warm Optimized, got {other:?}"),
    }
    match recv_response(&mut reader) {
        Response::Stats { stats } => {
            let after = stats.flight.expect("flight counters are in Stats");
            assert_eq!(after.optimize.led, 1, "a warm hit must not lead a flight");
            assert_eq!(after.optimize.coalesced, (CLIENTS - 1) as u64, "…nor coalesce onto one");
            assert_eq!(stats.cache.hits, 1);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    drop(reader);

    handle.shutdown();
    join.join().unwrap();
    assert_eq!(state.metrics().open_connections(), 0, "no leaked connections");
}

/// Hits answered on the loop and misses solved on the pool, at once: four
/// clients pipeline resident keys while a fifth forces cold solves of other
/// keys. Every cache and tier counter, the request count and the `Optimize`
/// histogram end equal to what the clients saw, each request counted once.
#[test]
fn counters_stay_exact_while_hits_and_cold_solves_interleave() {
    const HOT_CLIENTS: usize = 4;
    const HOT_REQUESTS: usize = 400;
    const DEPTH: usize = 16;
    let state = Arc::new(ServiceState::new(256));
    let (addr, handle, join) = start(Arc::clone(&state), 2);
    let line = |k: usize| optimize_line(ConvShape::new(1, k, 4, 3, 3, 10, 10, 1).unwrap());
    let hot: Vec<String> = (1..=4).map(line).collect();
    let cold: Vec<String> = (5..=16).map(line).collect();
    for request in &hot {
        state.handle_line(request);
    }

    // One client, keeping up to DEPTH requests in flight: its replies as
    // (cache hits, solver answers). Any other reply fails the test.
    let run = |requests: Vec<&String>| {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (mut hits, mut solved) = (0u64, 0u64);
        let mut receive = || match recv_response(&mut reader) {
            Response::Optimized { tier: Some(Tier::Cache), .. } => hits += 1,
            Response::Optimized { tier: Some(Tier::Solver), .. } => solved += 1,
            other => panic!("expected a cache or solver answer, got {other:?}"),
        };
        for (sent, request) in requests.iter().enumerate() {
            (&stream).write_all(format!("{request}\n").as_bytes()).unwrap();
            if sent >= DEPTH {
                receive();
            }
        }
        for _ in 0..requests.len().min(DEPTH) {
            receive();
        }
        (hits, solved)
    };
    let (hot, cold) = (&hot, &cold);
    let tallies: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let mut clients: Vec<_> = (0..HOT_CLIENTS)
            .map(|c| {
                scope.spawn(move || run((0..HOT_REQUESTS).map(|i| &hot[(i + c) % 4]).collect()))
            })
            .collect();
        clients.push(scope.spawn(move || run(cold.iter().collect())));
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let hits: u64 = tallies.iter().map(|t| t.0).sum();
    let solved: u64 = tallies.iter().map(|t| t.1).sum();
    assert_eq!(hits, (HOT_CLIENTS * HOT_REQUESTS) as u64);
    assert_eq!(solved, cold.len() as u64);

    // The warm-up's four misses and four solves are on the server's books.
    let warmed = hot.len() as u64;
    let cache = state.cache.stats();
    assert_eq!((cache.hits, cache.misses), (hits, solved + warmed));
    assert_eq!(state.tier_hits(), [hits, 0, solved + warmed]);
    assert_eq!(state.requests(), hits + solved + warmed);
    let report = state.metrics().report(state.flight_stats());
    let optimize = report.verbs.iter().find(|v| v.verb == "Optimize").expect("Optimize served");
    assert_eq!(optimize.latency.count, hits + solved + warmed);
    assert_eq!(state.metrics().error_counts().total, 0);
    assert_eq!(state.flight_stats().optimize.led, solved + warmed, "one solve per cold key");

    handle.shutdown();
    join.join().unwrap();
    assert_eq!(state.metrics().open_connections(), 0);
}

/// Fault injection: a client that sends a full request and vanishes before
/// its response, and a client that hangs up mid-line, cost the server
/// nothing — other connections keep being served and every connection slot
/// is reclaimed.
#[test]
fn client_disconnects_leave_the_server_serving_everyone_else() {
    let state = Arc::new(ServiceState::new(64));
    state.set_test_solve_delay(Duration::from_millis(200));
    let (addr, handle, join) = start(Arc::clone(&state), 4);
    let line = optimize_line(test_shape());

    // Victim 1: full request, disconnect before the (delayed) response.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    } // dropped here, mid-solve
      // Victim 2: half a request line, then EOF — never completes a request.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&format!("{line}\n").as_bytes()[..20]).unwrap();
    }

    // An innocent client gets served throughout.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    (&stream).write_all(format!("\"Ping\"\n{line}\n").as_bytes()).unwrap();
    assert!(matches!(recv_response(&mut reader), Response::Pong { .. }));
    assert!(matches!(recv_response(&mut reader), Response::Optimized { .. }));
    drop(reader);
    drop(stream);

    // The dropped connections' slots are reclaimed even though one of them
    // still had a solve on a worker when it vanished.
    wait_for_drained(&state);
    assert_eq!(state.metrics().open_connections(), 0, "disconnected clients must be reaped");
    assert_eq!(state.flight_stats().optimize.in_flight, 0);

    handle.shutdown();
    join.join().unwrap();
}

/// Fault injection: a half-written (syntactically broken) JSON line gets an
/// ordered `Error` response and the *same connection* keeps serving the
/// valid pipelined request behind it.
#[test]
fn half_written_line_then_valid_pipelined_request_is_served_in_order() {
    let state = Arc::new(ServiceState::new(16));
    let (addr, handle, join) = start(Arc::clone(&state), 2);

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // A request line cut off mid-object, then a newline, then a valid
    // pipelined request in the same segment.
    (&stream).write_all(b"{\"Optimize\": {\"op\": \"Y0\"\n\"Ping\"\n").unwrap();
    match recv_response(&mut reader) {
        Response::Error { message } => {
            assert!(message.contains("bad request"), "got: {message}")
        }
        other => panic!("expected a parse Error first, got {other:?}"),
    }
    assert!(matches!(recv_response(&mut reader), Response::Pong { .. }));
    drop(reader);
    drop(stream);

    handle.shutdown();
    join.join().unwrap();
    assert_eq!(state.metrics().open_connections(), 0);
}

/// Fault injection: one client streams an oversized line mid-pipeline while
/// another keeps pinging. The offender gets the cap `Error` at its ordered
/// position and keeps its connection; the bystander never notices.
#[test]
fn oversized_line_during_pipelining_does_not_disturb_other_clients() {
    let state = Arc::new(ServiceState::new(16));
    let (addr, handle, join) = start(Arc::clone(&state), 2);

    let offender = TcpStream::connect(addr).unwrap();
    let bystander = TcpStream::connect(addr).unwrap();
    let mut off_reader = BufReader::new(offender.try_clone().unwrap());
    let mut by_reader = BufReader::new(bystander.try_clone().unwrap());

    (&offender).write_all(b"\"Ping\"\n").unwrap();
    let offender_writer = std::thread::spawn(move || {
        let huge = vec![b'x'; MAX_REQUEST_BYTES + 4096];
        (&offender).write_all(&huge).unwrap();
        (&offender).write_all(b"\n\"Ping\"\n").unwrap();
        offender
    });
    // While the oversized line streams in, the bystander stays served.
    for _ in 0..3 {
        (&bystander).write_all(b"\"Ping\"\n").unwrap();
        assert!(matches!(recv_response(&mut by_reader), Response::Pong { .. }));
    }
    let offender = offender_writer.join().unwrap();

    assert!(matches!(recv_response(&mut off_reader), Response::Pong { .. }));
    match recv_response(&mut off_reader) {
        Response::Error { message } => assert!(message.contains("16 MiB"), "got: {message}"),
        other => panic!("expected the cap Error in order, got {other:?}"),
    }
    assert!(
        matches!(recv_response(&mut off_reader), Response::Pong { .. }),
        "the offending connection keeps serving after the cap error"
    );
    drop((off_reader, by_reader, offender, bystander));

    handle.shutdown();
    join.join().unwrap();
    assert_eq!(state.metrics().open_connections(), 0);
}

/// Drain: shutdown lands while a solve is on a worker. The in-flight
/// request is still answered and flushed before the loop exits, and every
/// connection (including an idle one) is closed.
#[test]
fn shutdown_while_a_solve_is_in_flight_still_answers_it() {
    let state = Arc::new(ServiceState::new(16));
    state.set_test_solve_delay(Duration::from_millis(400));
    let (addr, handle, join) = start(Arc::clone(&state), 2);

    let idle = TcpStream::connect(addr).unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    (&stream).write_all(format!("{}\n", optimize_line(test_shape())).as_bytes()).unwrap();
    // Give the loop time to hand the request to a worker, then pull the rug.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    match recv_response(&mut reader) {
        Response::Optimized { tier: Some(Tier::Solver), .. } => {}
        other => panic!("the in-flight solve must be answered during drain, got {other:?}"),
    }
    // After the drain both connections read EOF.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    let mut idle_reader = BufReader::new(idle);
    let mut end = Vec::new();
    idle_reader.read_to_end(&mut end).unwrap();
    assert!(end.is_empty());

    join.join().unwrap();
    assert_eq!(state.metrics().open_connections(), 0, "drain must close every connection");
}

/// End to end through the `moptd` binary: `SIGTERM` while a request is in
/// flight drains gracefully — the response still arrives, the process exits
/// zero, and the schedule database is flushed with no leaked temp files.
#[test]
fn moptd_sigterm_drains_and_flushes_the_db() {
    let dir = std::env::temp_dir().join(format!("moptd-drain-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Grab a free port, then hand it to the daemon (bind-then-drop is the
    // only portable way to learn one without parsing moptd's stderr).
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let mut child = Command::new(env!("CARGO_BIN_EXE_moptd"))
        .args(["--listen", &addr, "--workers", "2", "--db", dir.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("moptd spawns");

    // The listener comes up asynchronously; retry the connect briefly.
    let stream = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(&addr) {
                Ok(stream) => break stream,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Err(e) => panic!("moptd never started listening on {addr}: {e}"),
            }
        }
    };
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    (&stream).write_all(format!("{}\n", optimize_line(test_shape())).as_bytes()).unwrap();
    // Let the daemon pick the request up, then SIGTERM it mid-service.
    std::thread::sleep(Duration::from_millis(100));
    let killed =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(killed.success());

    // The drain still answers the request…
    match recv_response(&mut reader) {
        Response::Optimized { result, .. } => assert!(!result.ranked.is_empty()),
        other => panic!("expected Optimized through the drain, got {other:?}"),
    }
    // …then closes the connection and exits cleanly.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    let status = child.wait().unwrap();
    assert!(status.success(), "moptd must exit 0 after a graceful drain, got {status}");

    // The post-drain flush wrote the solve's page beside the manifest: no
    // leftover temp sibling.
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(files.iter().any(|name| name.starts_with("page-")), "no flushed page: {files:?}");
    assert!(!files.iter().any(|name| name.contains(".tmp.")), "leaked temp: {files:?}");

    // A fresh daemon-less process answers the drained request from the db.
    let rewarmed = ServiceState::new(16).with_db(dir.clone()).unwrap();
    match serde_json::from_str(&rewarmed.handle_line(&optimize_line(test_shape()))).unwrap() {
        Response::Optimized { tier: Some(Tier::Db), .. } => {}
        other => panic!("the drained solve must be in the db, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance (`mopt-trace`): the 32-client herd, traced. Exactly one
/// response's span tree shows a flight that actually solved (the leader);
/// the other 31 show a flight span with the `waited` role, a non-zero wait,
/// and no solve child — and the single-flight waiter-wait histogram
/// recorded exactly those 31 waits.
#[test]
fn traced_herd_shows_one_leader_and_31_waiters() {
    const CLIENTS: usize = 32;
    let state = Arc::new(ServiceState::new(64));
    state.set_test_solve_delay(Duration::from_millis(750));
    let (addr, handle, join) = start(Arc::clone(&state), CLIENTS);

    let line = serde_json::to_string(&Request::Optimize {
        spec: None,
        op: None,
        shape: Some(test_shape()),
        machine: MachineSpec::Preset("tiny".into()),
        options: Some(fast_options()),
        threads: None,
        trace: Some(true),
    })
    .unwrap();
    let gate = Arc::new(Barrier::new(CLIENTS));
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (line, gate) = (line.clone(), Arc::clone(&gate));
                let stream = TcpStream::connect(addr).unwrap();
                scope.spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    gate.wait();
                    (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
                    let mut reply = String::new();
                    reader.read_line(&mut reply).unwrap();
                    reply
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let (mut leaders, mut waiters) = (0usize, 0usize);
    for reply in &replies {
        let root = match serde_json::from_str::<Response>(reply.trim()).unwrap() {
            Response::Optimized { cached: false, trace: Some(root), .. } => root,
            other => panic!("expected a traced cold Optimized, got {other:?}"),
        };
        let flight = root.find("flight").expect("every herd client enters the flight");
        match flight.tag_value("role") {
            Some("led") => {
                leaders += 1;
                assert!(flight.find("solve").is_some(), "the leader's flight solves: {flight:?}");
            }
            Some("waited") => {
                waiters += 1;
                assert!(flight.find("solve").is_none(), "waiters never solve: {flight:?}");
                assert!(
                    flight.duration_micros > 0,
                    "a coalesced waiter's flight wait must be visible"
                );
            }
            role => panic!("flight span without a role tag ({role:?}): {flight:?}"),
        }
    }
    assert_eq!(leaders, 1, "exactly one span tree may contain the solve");
    assert_eq!(waiters, CLIENTS - 1);

    // The waiter-wait histogram saw exactly the 31 coalesced waits, each of
    // them at least as long as nothing (and the slowest roughly the solve
    // window, but scheduler jitter makes that bound unassertable) — while
    // the leader recorded nothing.
    let waits = state.flight_stats().optimize.waiter_wait.expect("waiter-wait section present");
    assert_eq!(waits.count, (CLIENTS - 1) as u64);
    assert!(waits.max_micros > 0, "parked waiters wait a measurable time");

    handle.shutdown();
    join.join().unwrap();
    assert_eq!(state.metrics().open_connections(), 0);
}

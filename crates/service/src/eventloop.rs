//! The non-blocking TCP front end: a readiness event loop over the vendored
//! [`miniepoll`] shim.
//!
//! The previous `moptd` spent one OS thread per connection, blocked in
//! `read(2)` — N idle clients pinned N stacks, and a slow reader could park
//! a thread mid-`write(2)` forever. This module replaces that with the
//! classic readiness design:
//!
//! * **one loop thread** owns every socket. All reads, writes, accepts, and
//!   connection state live here; nothing else touches an fd.
//! * **cache hits answered on the loop.** The loop parses each request line
//!   of up to 4 KiB and answers an `Optimize` whose key is resident in the
//!   schedule cache itself: a cache read, a clone and a print, with the
//!   counters, histograms and span tree a worker would have recorded. That
//!   skips the channel send, the worker wake-up and the second loop
//!   wake-up a hand-off costs.
//! * **a small worker pool** executes everything else. The loop never runs
//!   a solve, a database lookup or an admin verb: requests it does not
//!   answer are handed to workers over a channel, already parsed (longer
//!   lines raw), completed responses come back over a completion queue,
//!   and a [`miniepoll::Waker`] interrupts the blocked `wait` so replies
//!   flush promptly.
//! * **pipelining with per-connection order.** A client may write many
//!   request lines back-to-back; the loop frames them all, executes them
//!   one at a time per connection (concurrency comes from *other*
//!   connections — which is exactly what the single-flight layer coalesces),
//!   and responses always come back in request order: a hit is answered
//!   only when nothing earlier on its connection is outstanding.
//! * **backpressure, both ways.** A request line larger than
//!   [`MAX_REQUEST_BYTES`] switches the connection into a constant-memory
//!   drain mode that discards bytes up to the next newline and answers with
//!   an `Error` (the same contract as the stdio server). A client that
//!   stops *reading* accumulates its responses in a bounded write buffer;
//!   at the high-water mark the loop simply stops reading further requests
//!   from that connection until the buffer drains — slow consumers throttle
//!   themselves, never the daemon.
//! * **graceful drain.** [`ShutdownHandle::shutdown`] stops the accept loop
//!   and all request reading, lets every in-flight and already-pipelined
//!   request finish, flushes each connection's responses, then returns from
//!   [`EventLoopServer::run`] so the caller can flush the schedule database
//!   one last time. A connection that refuses to drain (a peer that never
//!   reads) is force-closed after [`ServerConfig::drain_grace`].

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use miniepoll::{Interest, Poller, Waker};

use crate::cache::lock_recover;
use crate::framing::{oversized_reply, Frame, LineFramer, MAX_REQUEST_BYTES};
use crate::server::{ParsedLine, ServiceState};

/// Event-loop tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests (0 = available parallelism, capped
    /// at 8).
    pub workers: usize,
    /// How long a graceful drain waits for unflushed connections before
    /// force-closing them.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 0, drain_grace: Duration::from_secs(5) }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(8)
    }
}

/// Requests the event loop stop accepting, drain, and exit. Obtain via
/// [`EventLoopServer::shutdown_handle`]; clone freely.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    waker: Arc<Waker>,
}

impl ShutdownHandle {
    /// Begin a graceful drain: stop accepting and reading, finish in-flight
    /// work, flush responses, then let [`EventLoopServer::run`] return.
    /// Idempotent and callable from any thread.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Release);
        self.waker.wake();
    }
}

/// One request dispatched to the worker pool.
struct Job {
    token: u64,
    work: Work,
    /// When the request left the connection's pipeline for the worker queue
    /// — the queue wait up to the worker's dequeue is attributed to the
    /// request's trace.
    enqueued: Instant,
}

/// What a worker serves: a line the loop parsed, or one too long for the
/// loop to parse.
enum Work {
    Parsed(ParsedLine),
    Raw(String),
}

/// The reply to a request whose handler panicked.
const PANIC_REPLY: &str = "{\"Error\":{\"message\":\"internal: request handler panicked\"}}";

/// Serve `line` on the loop thread if a schedule-cache read answers it, or
/// return the work a worker must do. Lines longer than [`LOOP_PARSE_BYTES`]
/// are not parsed here. A panic becomes the workers' `Error` reply, never a
/// dead loop.
fn serve_on_loop(state: &ServiceState, line: String) -> Result<String, Work> {
    if line.len() > LOOP_PARSE_BYTES {
        return Err(Work::Raw(line));
    }
    catch_unwind(AssertUnwindSafe(|| state.serve_resident(ParsedLine::parse(&line))))
        .unwrap_or_else(|_| Ok(PANIC_REPLY.to_string()))
        .map_err(Work::Parsed)
}

/// A write buffer with a flush cursor (compacts when fully flushed).
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn push_line(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    fn unflushed(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
    }
}

struct Connection<'m> {
    stream: TcpStream,
    framer: LineFramer,
    write_buf: WriteBuf,
    /// Framed requests not yet executed, in request order.
    pipeline: VecDeque<Frame>,
    /// A request from this connection is currently on a worker.
    busy: bool,
    peer_eof: bool,
    dead: bool,
    interest: Interest,
    /// Whether the fd is currently registered with the poller. An fd with
    /// nothing to wait for (peer gone or backpressured, nothing to write) is
    /// deregistered entirely — `EPOLLHUP` is delivered regardless of the
    /// requested mask, so leaving a hung-up fd registered while its request
    /// is still on a worker would spin the loop at 100% CPU.
    registered: bool,
    _guard: crate::metrics::InFlightGuard<'m>,
}

/// Stop reading new requests when a connection's unflushed responses exceed
/// this (the existing request cap doubles as the response high-water mark).
const WRITE_HIGH_WATER: usize = MAX_REQUEST_BYTES;
/// Cap on parsed-but-unexecuted pipelined requests per connection.
const MAX_PIPELINED: usize = 1024;
/// The longest request line the loop thread parses itself; longer lines go
/// to a worker unparsed, so no line up to [`MAX_REQUEST_BYTES`] stalls the
/// loop.
const LOOP_PARSE_BYTES: usize = 4 * 1024;

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

impl Connection<'_> {
    fn paused(&self) -> bool {
        self.write_buf.pending() >= WRITE_HIGH_WATER || self.pipeline.len() >= MAX_PIPELINED
    }

    /// Whether every accepted request has been answered and flushed.
    fn drained(&self) -> bool {
        !self.busy && self.pipeline.is_empty() && self.write_buf.pending() == 0
    }

    fn desired_interest(&self, shutting_down: bool) -> Interest {
        Interest {
            readable: !self.peer_eof && !shutting_down && !self.paused(),
            writable: self.write_buf.pending() > 0,
        }
    }
}

/// The event-loop TCP server. Bind, optionally grab a [`ShutdownHandle`],
/// then [`run`](Self::run) (which blocks until shutdown + drain).
pub struct EventLoopServer {
    state: Arc<ServiceState>,
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl EventLoopServer {
    /// Bind `addr` and prepare the loop (listener and waker registered, no
    /// thread started yet).
    pub fn bind<A: ToSocketAddrs>(
        state: Arc<ServiceState>,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        state.set_configured_workers(config.effective_workers());
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        poller.register(waker.fd(), WAKER_TOKEN, Interest::READABLE)?;
        Ok(EventLoopServer {
            state,
            listener,
            poller,
            waker,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address (use after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop the loop from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: Arc::clone(&self.shutdown), waker: Arc::clone(&self.waker) }
    }

    /// Run the loop on the calling thread until a graceful drain completes.
    /// Worker threads are spawned here and joined before returning.
    pub fn run(self) -> std::io::Result<()> {
        let EventLoopServer { state, listener, poller, waker, shutdown, config } = self;
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..config.effective_workers())
            .map(|i| {
                let state = Arc::clone(&state);
                let job_rx = Arc::clone(&job_rx);
                let completions = Arc::clone(&completions);
                let waker = Arc::clone(&waker);
                std::thread::Builder::new()
                    .name(format!("moptd-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the dequeue, never
                        // during execution.
                        let job = match lock_recover(&job_rx).recv() {
                            Ok(job) => job,
                            Err(_) => break,
                        };
                        // handle_line never panics on bad input, and solver
                        // panics are contained by the single-flight layer;
                        // this catch is the last line of defense so a worker
                        // bug degrades to an Error response, not a hung
                        // connection.
                        let reply = catch_unwind(AssertUnwindSafe(|| {
                            let queue_wait = job.enqueued.elapsed();
                            match job.work {
                                Work::Parsed(parsed) => state.serve_parsed(parsed, queue_wait),
                                Work::Raw(line) => state.serve_line(&line, queue_wait),
                            }
                        }))
                        .unwrap_or_else(|_| PANIC_REPLY.to_string());
                        lock_recover(&completions).push((job.token, reply));
                        waker.wake();
                    })
                    .expect("spawn worker")
            })
            .collect();

        let metrics = state.metrics();
        let mut conns: HashMap<u64, Connection<'_>> = HashMap::new();
        let mut next_token = FIRST_CONN_TOKEN;
        let mut events = Vec::new();
        let mut accepting = true;
        let mut drain_started: Option<Instant> = None;

        loop {
            let shutting_down = shutdown.load(Ordering::Acquire);
            if shutting_down {
                if accepting {
                    poller.deregister(listener.as_raw_fd()).ok();
                    accepting = false;
                    drain_started = Some(Instant::now());
                }
                if conns.is_empty() {
                    break;
                }
                if drain_started.is_some_and(|t| t.elapsed() >= config.drain_grace) {
                    // Peers that refuse to drain (never read their responses)
                    // are cut loose; everyone else already closed cleanly.
                    for (_, conn) in conns.drain() {
                        poller.deregister(conn.stream.as_raw_fd()).ok();
                    }
                    break;
                }
            }
            let timeout = if shutting_down { Some(Duration::from_millis(25)) } else { None };
            poller.wait(&mut events, timeout)?;

            for event in &events {
                match event.token {
                    LISTENER_TOKEN => {
                        if !accepting {
                            continue;
                        }
                        loop {
                            match listener.accept() {
                                Ok((stream, _peer)) => {
                                    if stream.set_nonblocking(true).is_err() {
                                        continue;
                                    }
                                    stream.set_nodelay(true).ok();
                                    let token = next_token;
                                    next_token += 1;
                                    if poller
                                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                                        .is_err()
                                    {
                                        continue;
                                    }
                                    conns.insert(
                                        token,
                                        Connection {
                                            stream,
                                            framer: LineFramer::default(),
                                            write_buf: WriteBuf::default(),
                                            pipeline: VecDeque::new(),
                                            busy: false,
                                            peer_eof: false,
                                            dead: false,
                                            interest: Interest::READABLE,
                                            registered: true,
                                            _guard: metrics.connection_opened(),
                                        },
                                    );
                                }
                                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                                Err(_) => break,
                            }
                        }
                    }
                    WAKER_TOKEN => waker.drain(),
                    token => {
                        if let Some(conn) = conns.get_mut(&token) {
                            if event.readable {
                                read_from(conn);
                            }
                            if event.writable {
                                flush_to(conn);
                            }
                            if event.error {
                                conn.dead = true;
                            }
                        }
                    }
                }
            }

            // Route completed responses back to their connections. A token
            // that has disappeared means the client vanished mid-request;
            // the response is simply dropped.
            for (token, reply) in lock_recover(&completions).drain(..) {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.busy = false;
                    conn.write_buf.push_line(&reply);
                }
            }

            // Per-connection bookkeeping: dispatch the next pipelined
            // request, flush buffered responses, refresh poll interest, and
            // reap finished connections.
            let mut closed = Vec::new();
            for (&token, conn) in conns.iter_mut() {
                while !conn.dead && !conn.busy {
                    match conn.pipeline.pop_front() {
                        Some(Frame::Line(line)) => match serve_on_loop(&state, line) {
                            Ok(reply) => conn.write_buf.push_line(&reply),
                            Err(work) => {
                                conn.busy = true;
                                let job = Job { token, work, enqueued: Instant::now() };
                                if job_tx.send(job).is_err() {
                                    conn.dead = true;
                                }
                            }
                        },
                        Some(Frame::Oversized) => {
                            conn.write_buf.push_line(&oversized_reply());
                        }
                        None => break,
                    }
                }
                if !conn.dead && conn.write_buf.pending() > 0 {
                    flush_to(conn);
                }
                let finished = (conn.peer_eof || shutting_down) && conn.drained();
                if conn.dead || finished {
                    closed.push(token);
                    continue;
                }
                let desired = conn.desired_interest(shutting_down);
                if desired.readable || desired.writable {
                    let ok = if conn.registered {
                        desired == conn.interest
                            || poller.modify(conn.stream.as_raw_fd(), token, desired).is_ok()
                    } else {
                        poller.register(conn.stream.as_raw_fd(), token, desired).is_ok()
                    };
                    if ok {
                        conn.interest = desired;
                        conn.registered = true;
                    }
                } else if conn.registered {
                    poller.deregister(conn.stream.as_raw_fd()).ok();
                    conn.registered = false;
                }
            }
            for token in closed {
                if let Some(conn) = conns.remove(&token) {
                    if conn.registered {
                        poller.deregister(conn.stream.as_raw_fd()).ok();
                    }
                }
            }
        }

        drop(job_tx);
        for worker in workers {
            worker.join().ok();
        }
        Ok(())
    }
}

/// Drain the socket's readable bytes into the connection's parse state.
fn read_from(conn: &mut Connection<'_>) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                conn.framer.push(&chunk[..n]);
                while let Some(frame) = conn.framer.next_frame() {
                    conn.pipeline.push_back(frame);
                }
                // Respect backpressure promptly: leave the rest in the
                // kernel buffer (level-triggered polling re-delivers it).
                if conn.paused() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // A reset/abort is a client fault, any other error is just
                // as fatal for this one connection; either way the daemon
                // keeps serving everyone else.
                conn.dead = true;
                break;
            }
        }
    }
}

/// Write as much of the buffered responses as the socket accepts.
fn flush_to(conn: &mut Connection<'_>) {
    while conn.write_buf.pending() > 0 {
        match conn.stream.write(conn.write_buf.unflushed()) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => conn.write_buf.advance(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{MachineSpec, Request, Response, Tier};
    use mopt_core::OptimizerOptions;
    use mopt_trace::SpanNode;
    use std::io::{BufRead, BufReader};

    fn start(
        state: Arc<ServiceState>,
    ) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
        let server = EventLoopServer::bind(
            state,
            "127.0.0.1:0",
            ServerConfig { workers: 2, ..ServerConfig::default() },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, join)
    }

    fn recv_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    /// A cheap `Optimize` on the tiny machine; `k` picks the key.
    fn optimize_line(k: usize, trace: bool) -> String {
        serde_json::to_string(&Request::Optimize {
            spec: None,
            op: None,
            shape: Some(conv_spec::ConvShape::new(1, k, 4, 3, 3, 10, 10, 1).unwrap()),
            machine: MachineSpec::Preset("tiny".into()),
            options: Some(OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() }),
            threads: None,
            trace: trace.then_some(true),
        })
        .unwrap()
    }

    fn traced_root(reply: &str) -> (Option<Tier>, SpanNode) {
        match serde_json::from_str(reply.trim()).unwrap() {
            Response::Optimized { tier, trace: Some(root), .. } => (tier, root),
            other => panic!("expected a traced Optimized, got {other:?}"),
        }
    }

    /// A cold `Optimize`, a resident one, a `Ping` and the resident one again
    /// in one write: the replies keep request order, each hit is the bytes
    /// `handle_line` gives, and the hit was answered on the loop (its span
    /// tree has no queue wait) with every counter moved once.
    #[test]
    fn loop_answered_hits_keep_request_order_and_bytes() {
        let state = Arc::new(ServiceState::new(64));
        let (cold, resident) = (optimize_line(8, false), optimize_line(16, false));
        state.handle_line(&resident);
        let expected = state.handle_line(&resident);
        let (addr, handle, join) = start(Arc::clone(&state));
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(format!("{cold}\n{resident}\n\"Ping\"\n{resident}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let first: Response = serde_json::from_str(recv_line(&mut reader).trim()).unwrap();
        assert!(matches!(first, Response::Optimized { tier: Some(Tier::Solver), .. }));
        assert_eq!(recv_line(&mut reader).trim_end(), expected);
        let pong: Response = serde_json::from_str(recv_line(&mut reader).trim()).unwrap();
        assert!(matches!(pong, Response::Pong { .. }));
        assert_eq!(recv_line(&mut reader).trim_end(), expected);

        stream.write_all(format!("{}\n", optimize_line(16, true)).as_bytes()).unwrap();
        let (tier, root) = traced_root(&recv_line(&mut reader));
        assert_eq!((tier, root.tag_value("tier")), (Some(Tier::Cache), Some("cache")));
        for span in ["parse", "cache_probe", "serialize"] {
            assert!(root.find(span).is_some(), "no {span} span: {root:?}");
        }
        assert!(root.find("queue_wait").is_none(), "a loop-answered hit never queues: {root:?}");
        assert!(root.find("flight").is_none());

        // Two direct requests (a miss, a hit) and five over the wire: a miss,
        // three hits and a Ping.
        let cache = state.cache.stats();
        assert_eq!((cache.hits, cache.misses), (4, 2));
        assert_eq!(state.tier_hits(), [4, 0, 2]);
        assert_eq!(state.requests(), 7);
        let report = state.metrics().report(state.flight_stats());
        let optimize = report.verbs.iter().find(|v| v.verb == "Optimize").unwrap();
        assert_eq!(optimize.latency.count, 6);
        assert_eq!(report.in_flight_requests, 0);
        drop(reader);
        drop(stream);
        handle.shutdown();
        join.join().unwrap();
    }

    /// A valid `Optimize` padded past the loop's parse bound is served, in
    /// order, by a worker; a malformed line gets one `Error` in its place and
    /// one parse error.
    #[test]
    fn padded_and_malformed_lines_keep_their_place() {
        let state = Arc::new(ServiceState::new(64));
        let resident = optimize_line(16, false);
        state.handle_line(&resident);
        let expected = state.handle_line(&resident);
        let padded = format!("{}{}", " ".repeat(LOOP_PARSE_BYTES), optimize_line(16, true));
        let (addr, handle, join) = start(Arc::clone(&state));
        let parse_errors = state.metrics().parse_errors();
        let mut stream = TcpStream::connect(addr).unwrap();
        let lines = format!("{resident}\n{padded}\n{{\"Optimize\": {{\"op\"\n{resident}\n");
        stream.write_all(lines.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(recv_line(&mut reader).trim_end(), expected);
        let padded_reply = recv_line(&mut reader);
        let (tier, root) = traced_root(&padded_reply);
        assert_eq!(tier, Some(Tier::Cache));
        assert!(root.find("queue_wait").is_some(), "a long line is a worker's: {root:?}");
        match serde_json::from_str(recv_line(&mut reader).trim()).unwrap() {
            Response::Error { message } => assert!(message.contains("bad request"), "{message}"),
            other => panic!("expected the parse Error in its place, got {other:?}"),
        }
        assert_eq!(recv_line(&mut reader).trim_end(), expected);
        assert_eq!(state.metrics().parse_errors(), parse_errors + 1);
        // The padded hit served the schedule the plain one did.
        let result = |reply: &str| match serde_json::from_str(reply.trim()).unwrap() {
            Response::Optimized { result, .. } => result,
            other => panic!("expected Optimized, got {other:?}"),
        };
        assert_eq!(result(&padded_reply), result(&expected));
        drop(reader);
        drop(stream);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn serves_pipelined_requests_in_order() {
        let (addr, handle, join) = start(Arc::new(ServiceState::new(16)));
        let mut stream = TcpStream::connect(addr).unwrap();
        // Three requests in one TCP segment: responses must come back in
        // request order.
        stream.write_all(b"\"Ping\"\n\"Stats\"\n\"Ping\"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let first: Response = serde_json::from_str(recv_line(&mut reader).trim()).unwrap();
        let second: Response = serde_json::from_str(recv_line(&mut reader).trim()).unwrap();
        let third: Response = serde_json::from_str(recv_line(&mut reader).trim()).unwrap();
        assert!(matches!(first, Response::Pong { .. }));
        assert!(matches!(second, Response::Stats { .. }));
        assert!(matches!(third, Response::Pong { .. }));
        drop(reader);
        drop(stream);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn oversized_line_gets_an_ordered_error_and_the_connection_survives() {
        let (addr, handle, join) = start(Arc::new(ServiceState::new(16)));
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"\"Ping\"\n").unwrap();
        let huge = vec![b'x'; MAX_REQUEST_BYTES + 4096];
        stream.write_all(&huge).unwrap();
        stream.write_all(b"\n\"Ping\"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let first: Response = serde_json::from_str(recv_line(&mut reader).trim()).unwrap();
        assert!(matches!(first, Response::Pong { .. }));
        let second: Response = serde_json::from_str(recv_line(&mut reader).trim()).unwrap();
        match second {
            Response::Error { message } => assert!(message.contains("16 MiB"), "got: {message}"),
            other => panic!("expected the cap Error in order, got {other:?}"),
        }
        let third: Response = serde_json::from_str(recv_line(&mut reader).trim()).unwrap();
        assert!(matches!(third, Response::Pong { .. }), "the connection must keep serving");
        drop(reader);
        drop(stream);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_drains_connections_and_stops_the_listener() {
        let state = Arc::new(ServiceState::new(16));
        let (addr, handle, join) = start(Arc::clone(&state));
        let a = TcpStream::connect(addr).unwrap();
        let b = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while state.metrics().open_connections() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(state.metrics().open_connections(), 2);
        handle.shutdown();
        join.join().unwrap();
        assert_eq!(state.metrics().open_connections(), 0, "drain must close every connection");
        drop(a);
        drop(b);
    }
}

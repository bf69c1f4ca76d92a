//! The server: shared state, the administrative verbs, and the one path a
//! request line takes to its reply — parse, dispatch under a trace context,
//! serialize — over any byte stream.
//!
//! The wire types live in [`crate::wire`], the planning verbs (`Optimize`,
//! `Explain`, `PlanNetwork`, `PlanGraph`) in `planning.rs`; see
//! `docs/PROTOCOL.md` for the protocol itself.
//!
//! Malformed input never kills the connection: it produces an
//! `{"Error": ...}` response and the loop continues.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conv_spec::benchmarks;
use mopt_core::OptimizeResult;
use mopt_trace::{SpanNode, TraceContext, TraceRing};

use crate::cache::{CacheKey, ScheduleCache};
use crate::dbtier::DbTier;
pub use crate::framing::MAX_REQUEST_BYTES;
use crate::framing::{is_disconnect, oversized_reply, Frame, LineFramer};
use crate::metrics::ServiceMetrics;
use crate::planning::{request_target, Problem};
use crate::singleflight::{FlightBreakdown, SingleFlight};
use crate::wire::{Request, Response, ServiceStats, SlowTrace, SuiteOp, Tier};

/// How many slow-request traces the `Trace` verb retains (newest win).
pub const SLOW_LOG_CAPACITY: usize = 64;

/// Shared server state: the schedule cache, the optional schedule database
/// and the counters. Designed to sit in an `Arc` shared by connection
/// threads.
pub struct ServiceState {
    /// The schedule cache.
    pub cache: ScheduleCache,
    db: Option<Arc<DbTier>>,
    /// Coalesces concurrent cold `Optimize` misses on one cache key into a
    /// single solve. The value is the `(tier, result)` pair the leader
    /// produced, so every waiter's response is bit-identical to the
    /// leader's.
    pub(crate) flight: SingleFlight<CacheKey, (Tier, OptimizeResult)>,
    metrics: ServiceMetrics,
    solve_delay_micros: AtomicU64,
    requests: AtomicU64,
    started: Instant,
    /// Responses served per tier (indexed by `Tier as usize`): coalesced
    /// requests count under the tier that served their leader.
    pub(crate) tier_hits: [AtomicU64; 3],
    /// Slow-request threshold in microseconds; 0 disarms the slow log
    /// (and with it, server-side tracing of untraced requests).
    slow_micros: AtomicU64,
    /// Last-N ring of slow-request traces, served by the `Trace` verb.
    slow_log: TraceRing<SlowTrace>,
    /// Worker threads the transport configured (0 until a transport binds).
    configured_workers: AtomicU64,
}

impl ServiceState {
    /// Fresh state with a schedule cache of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ServiceState {
            cache: ScheduleCache::new(capacity),
            db: None,
            flight: SingleFlight::new(),
            metrics: ServiceMetrics::default(),
            solve_delay_micros: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            started: Instant::now(),
            tier_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            slow_micros: AtomicU64::new(0),
            slow_log: TraceRing::new(SLOW_LOG_CAPACITY),
            configured_workers: AtomicU64::new(0),
        }
    }

    /// Arm the slow-request log: every request is traced server-side, and
    /// requests taking at least `ms` milliseconds keep their span tree in a
    /// last-[`SLOW_LOG_CAPACITY`] ring behind the `Trace` verb. `0` (the
    /// default) disarms it, making tracing strictly opt-in per request.
    pub fn with_slow_ms(self, ms: u64) -> Self {
        self.slow_micros.store(ms.saturating_mul(1000), Ordering::Relaxed);
        self
    }

    /// Record how many worker threads the transport serves with (the event
    /// loop's pool size; 1 for stdio), for `Stats` and metrics exposition.
    pub fn set_configured_workers(&self, workers: usize) {
        self.configured_workers.store(workers as u64, Ordering::Relaxed);
    }

    /// Worker threads the transport configured (0 until a transport binds).
    pub fn configured_workers(&self) -> u64 {
        self.configured_workers.load(Ordering::Relaxed)
    }

    /// Seconds since this state was created.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Responses served per tier, indexed like [`Tier`]:
    /// `[cache, db, solver]`.
    pub fn tier_hits(&self) -> [u64; 3] {
        std::array::from_fn(|i| self.tier_hits[i].load(Ordering::Relaxed))
    }

    /// Slow-request traces retained so far (monotonic; the ring keeps the
    /// newest [`SLOW_LOG_CAPACITY`]).
    pub fn slow_traces_recorded(&self) -> u64 {
        self.slow_log.pushed()
    }

    /// Attach the persistent schedule database at `path` (created if
    /// absent). With a database attached, `Optimize` requests that miss the
    /// in-process cache are answered from stored canonicalized top-k
    /// entries (re-ranked for the request's thread count) before the
    /// optimizer is ever invoked, and fresh solves are written through.
    pub fn with_db(mut self, path: std::path::PathBuf) -> Result<Self, mopt_db::DbError> {
        self.db = Some(Arc::new(DbTier::open(&path)?));
        Ok(self)
    }

    /// The attached database tier, if any.
    pub fn db(&self) -> Option<&DbTier> {
        self.db.as_deref()
    }

    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The live metrics (latency histograms and in-flight gauges). The TCP
    /// event loop and the stdio server both record into this.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Flight counters of the single-flight group.
    pub fn flight_stats(&self) -> FlightBreakdown {
        FlightBreakdown { optimize: self.flight.stats() }
    }

    /// Test/benchmark hook: stall every led solve by `delay` before it runs,
    /// widening the coalescing window so concurrent-client tests can prove
    /// single-flight behavior deterministically instead of racing the
    /// optimizer. Zero (the default) disables the stall.
    #[doc(hidden)]
    pub fn set_test_solve_delay(&self, delay: std::time::Duration) {
        self.solve_delay_micros
            .store(delay.as_micros().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    pub(crate) fn test_solve_delay(&self) {
        let micros = self.solve_delay_micros.load(Ordering::Relaxed);
        if micros > 0 {
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
    }

    /// Run one request under a trace context: count it, record its latency
    /// under its verb, hold the in-flight gauge, count an `Error` reply.
    /// Returns the un-finished context so the line path can add serialize
    /// time before [`finish_trace`](Self::finish_trace) closes the tree.
    fn handle_prepared(
        &self,
        request: &Request,
        parse_time: Duration,
        queue_wait: Duration,
    ) -> (Response, TraceContext) {
        let verb = request.verb();
        let ctx = self.trace_context(request, parse_time, queue_wait);
        let _in_flight = self.metrics.request_started();
        let start = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        let outcome = self.dispatch(request, &ctx);
        self.metrics.record(verb, start.elapsed());
        if outcome.is_err() {
            self.metrics.record_error(verb);
        }
        (outcome.unwrap_or_else(|message| Response::Error { message }), ctx)
    }

    /// A request's trace context, holding what happened to it before it was
    /// dispatched. It is enabled only when the request asked for a trace or
    /// the slow log is armed — otherwise every span call is a no-op branch
    /// with no allocation.
    fn trace_context(
        &self,
        request: &Request,
        parse_time: Duration,
        queue_wait: Duration,
    ) -> TraceContext {
        let ctx = if request.trace_requested() || self.slow_micros.load(Ordering::Relaxed) > 0 {
            TraceContext::enabled(request.verb().name())
        } else {
            TraceContext::disabled()
        };
        if queue_wait > Duration::ZERO {
            ctx.record("queue_wait", queue_wait);
        }
        if parse_time > Duration::ZERO {
            ctx.record("parse", parse_time);
        }
        ctx
    }

    /// Close a request's span tree: keep it in the slow log when it crossed
    /// the armed threshold, and return it when the request asked for it in
    /// its reply.
    fn finish_trace(&self, request: &Request, ctx: &TraceContext) -> Option<SpanNode> {
        let root = ctx.finish()?;
        let threshold = self.slow_micros.load(Ordering::Relaxed);
        if threshold > 0 && root.duration_micros >= threshold {
            self.slow_log.push(SlowTrace {
                verb: request.verb().name().to_string(),
                micros: root.duration_micros,
                root: root.clone(),
            });
        }
        request.trace_requested().then_some(root)
    }

    /// Answer one request, recording its latency under its verb and holding
    /// the in-flight request gauge for the duration. When tracing is active
    /// the finished span tree is attached to the response (and slow requests
    /// land in the slow log).
    pub fn handle(&self, request: &Request) -> Response {
        let (mut response, ctx) = self.handle_prepared(request, Duration::ZERO, Duration::ZERO);
        if let Some(root) = self.finish_trace(request, &ctx) {
            response.attach_trace(root);
        }
        response
    }

    /// One request to its reply, or `Err(message)` for the `Error` reply.
    fn dispatch(&self, request: &Request, ctx: &TraceContext) -> Result<Response, String> {
        match request {
            Request::Ping => Ok(Response::Pong {
                version: env!("CARGO_PKG_VERSION").to_string(),
                uptime_seconds: Some(self.uptime_seconds()),
            }),
            Request::Stats => Ok(Response::Stats { stats: self.stats() }),
            Request::Metrics { format } => match format.as_deref() {
                None | Some("json") => {
                    Ok(Response::Metrics { report: self.metrics.report(self.flight_stats()) })
                }
                Some("prometheus") => {
                    Ok(Response::MetricsText { body: crate::prometheus::render(self) })
                }
                Some(other) => Err(format!(
                    "unknown metrics format `{other}` (try \"json\" or \"prometheus\")"
                )),
            },
            Request::Trace { limit } => {
                let mut traces = self.slow_log.snapshot();
                if let Some(limit) = limit {
                    let excess = traces.len().saturating_sub(*limit);
                    traces.drain(..excess);
                }
                Ok(Response::Traced {
                    slow_ms: self.slow_micros.load(Ordering::Relaxed) / 1000,
                    traces,
                })
            }
            Request::Save => {
                // Every resident entry was answered by the database or
                // written through to it (a failed write-through counts under
                // `Stats.db.errors`), so flushing the dirty pages makes them
                // durable. A failed flush is a real durability loss and must
                // surface as an Error, not a log line.
                let db = self.db.as_ref().ok_or("no schedule database (start moptd with --db)")?;
                db.flush().map_err(|e| format!("database flush failed: {e}"))?;
                Ok(Response::Saved { entries: self.cache.len() })
            }
            Request::Suites => Ok(Response::Suites {
                suites: benchmarks::suite_names().map(str::to_string).collect(),
                ops: benchmarks::extended_operators()
                    .iter()
                    .map(|op| SuiteOp {
                        name: op.name.clone(),
                        suite: op.suite.name().to_string(),
                        deprecated: benchmarks::is_deprecated_alias(&op.name),
                    })
                    .collect(),
            }),
            Request::Optimize { spec, op, shape, machine, options, threads, trace: _ } => {
                let (machine, options) = request_target(machine, options, *threads)?;
                let problem = Problem { spec: spec.as_ref(), op: op.as_deref(), shape: *shape };
                self.handle_optimize(problem, machine, options, ctx)
            }
            Request::Explain { spec, op, shape, machine, options, threads } => {
                let (machine, options) = request_target(machine, options, *threads)?;
                let problem = Problem { spec: spec.as_ref(), op: op.as_deref(), shape: *shape };
                self.handle_explain(problem, machine, options, ctx)
            }
            Request::PlanNetwork {
                suite,
                layers,
                machine,
                options,
                threads,
                workers,
                trace: _,
            } => {
                let (machine, options) = request_target(machine, options, *threads)?;
                self.handle_plan(
                    suite.as_deref(),
                    layers.as_deref(),
                    machine,
                    options,
                    *workers,
                    ctx,
                )
            }
            Request::PlanGraph { block, graph, machine, options, threads, workers, trace: _ } => {
                let (machine, options) = request_target(machine, options, *threads)?;
                self.handle_plan_graph(
                    block.as_deref(),
                    graph.as_ref(),
                    machine,
                    options,
                    *workers,
                    ctx,
                )
            }
        }
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache: self.cache.stats(),
            db: self.db.as_ref().map(|db| db.stats()),
            requests: self.requests(),
            uptime_seconds: self.uptime_seconds(),
            flight: Some(self.flight_stats()),
            version: Some(env!("CARGO_PKG_VERSION").to_string()),
            workers: Some(self.configured_workers()),
            cache_shards: Some(ScheduleCache::SHARDS as u64),
            errors: Some(self.metrics.error_counts()),
        }
    }

    /// Parse one request line, dispatch it, and serialize the response.
    pub fn handle_line(&self, line: &str) -> String {
        self.serve_line(line, Duration::ZERO)
    }

    /// Like [`handle_line`](Self::handle_line), attributing `queue_wait` —
    /// time the raw line spent queued in the transport before any byte of
    /// it was parsed — to the request's trace. When tracing is active, the
    /// parse and serialize stages are recorded as spans too, so the span
    /// tree covers the whole answer path: accept → parse → dispatch tiers →
    /// serialize.
    pub fn serve_line(&self, line: &str, queue_wait: Duration) -> String {
        self.serve_parsed(ParsedLine::parse(line), queue_wait)
    }

    /// [`serve_line`](Self::serve_line) for a line parsed already;
    /// `queue_wait` is the time the parsed request spent queued.
    pub(crate) fn serve_parsed(&self, parsed: ParsedLine, queue_wait: Duration) -> String {
        let request = match parsed.request {
            Ok(request) => request,
            Err(message) => {
                self.metrics.record_parse_error();
                return serialize_response(&Response::Error { message });
            }
        };
        let (response, ctx) = self.handle_prepared(&request, parsed.parse_time, queue_wait);
        self.render(&request, &response, &ctx)
    }

    /// Answer `parsed` on the calling thread when a schedule-cache read alone
    /// answers it — an `Optimize` whose key is resident — with the reply, the
    /// counters and the span tree [`serve_parsed`](Self::serve_parsed) would
    /// give it. Anything else comes back as `Err`, untouched and uncounted,
    /// for a caller that may block on colder tiers.
    pub(crate) fn serve_resident(&self, parsed: ParsedLine) -> Result<String, ParsedLine> {
        let request = match parsed.request.as_deref() {
            Ok(request @ Request::Optimize { .. }) => request,
            _ => return Err(parsed),
        };
        let ctx = self.trace_context(request, parsed.parse_time, Duration::ZERO);
        let start = Instant::now();
        let Some(response) = self.optimize_resident(request, &ctx) else {
            return Err(parsed);
        };
        {
            let _in_flight = self.metrics.request_started();
            self.requests.fetch_add(1, Ordering::Relaxed);
            self.metrics.record(request.verb(), start.elapsed());
        }
        Ok(self.render(request, &response, &ctx))
    }

    /// A dispatched request's reply text: serialized *before* the span tree
    /// is finished so the serialize span measures the real encode; the
    /// finished tree then goes into the reply's empty trace slot, and the
    /// body is rendered once.
    fn render(&self, request: &Request, response: &Response, ctx: &TraceContext) -> String {
        let serialize_start = Instant::now();
        let mut text = serialize_response(response);
        ctx.record("serialize", serialize_start.elapsed());
        if let Some(root) = self.finish_trace(request, ctx) {
            Response::splice_trace(&mut text, &root);
        }
        text
    }

    /// Serve one connection: read JSON-lines requests until EOF, writing one
    /// response line each. Blank lines are ignored. Malformed input — bad
    /// JSON or even invalid UTF-8 — produces an `Error` response, never a
    /// dropped connection. A client disconnecting mid-conversation (broken
    /// pipe, connection reset/aborted) is a *clean* end of the connection,
    /// not an error, so callers persist state and exit gracefully; only
    /// unexpected I/O failures surface as `Err`.
    ///
    /// Request lines are capped at [`MAX_REQUEST_BYTES`]: the line buffer is
    /// client-controlled, so without a cap one endless line lets any client
    /// drive the daemon out of memory. An oversized line is drained (in
    /// constant memory) up to its newline and answered with an `Error`
    /// response; the connection keeps serving.
    pub fn serve_connection<R: Read, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> std::io::Result<()> {
        let mut framer = LineFramer::default();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let n = match reader.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_disconnect(&e) => return Ok(()),
                Err(e) => return Err(e),
            };
            framer.push(&chunk[..n]);
            if n == 0 {
                framer.push_eof();
            }
            while let Some(frame) = framer.next_frame() {
                let reply = match frame {
                    Frame::Line(line) => self.handle_line(&line),
                    Frame::Oversized => oversized_reply(),
                };
                match write_line(&mut writer, &reply) {
                    Ok(()) => {}
                    Err(e) if is_disconnect(&e) => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
            if n == 0 {
                return Ok(());
            }
        }
    }
}

/// One request line, parsed: the request, or the message of the `Error` a
/// line that is not one is answered with. [`ServiceState::serve_parsed`]
/// serves it on any thread. The request is boxed so the line moves between
/// threads as a few words.
#[derive(Debug)]
pub(crate) struct ParsedLine {
    request: Result<Box<Request>, String>,
    parse_time: Duration,
}

impl ParsedLine {
    /// Parse one request line, timing the parse.
    pub(crate) fn parse(line: &str) -> Self {
        let start = Instant::now();
        let parsed = serde_json::from_str::<Request>(line);
        let parse_time = start.elapsed();
        let request = parsed.map(Box::new).map_err(|e| format!("bad request: {e}"));
        ParsedLine { request, parse_time }
    }
}

fn serialize_response(response: &Response) -> String {
    serde_json::to_string(response).expect("writing JSON text has no failure path")
}

fn write_line<W: Write>(writer: &mut W, reply: &str) -> std::io::Result<()> {
    writer.write_all(reply.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt_core::OptimizerOptions;

    fn tiny_state() -> ServiceState {
        ServiceState::new(64)
    }

    fn fast_options_json() -> String {
        let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() };
        serde_json::to_string(&options).unwrap()
    }

    #[test]
    fn ping_reports_the_crate_version() {
        let state = tiny_state();
        let pong: Response = serde_json::from_str(&state.handle_line("\"Ping\"")).unwrap();
        match pong {
            Response::Pong { version, uptime_seconds } => {
                assert_eq!(version, env!("CARGO_PKG_VERSION"));
                assert!(uptime_seconds.expect("uptime present") >= 0.0);
            }
            other => panic!("expected Pong, got {other:?}"),
        }
        let stats: Response = serde_json::from_str(&state.handle_line("\"Stats\"")).unwrap();
        match stats {
            Response::Stats { stats } => {
                assert_eq!(stats.requests, 2);
                assert_eq!(stats.cache.entries, 0);
                assert_eq!(stats.cache.shard_evictions.len(), ScheduleCache::SHARDS);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn bad_requests_produce_errors_not_panics() {
        let state = tiny_state();
        for line in [
            "not json",
            "{\"Optimize\": {\"machine\": {\"Preset\": \"tiny\"}}}",
            "{\"Optimize\": {\"op\": \"NOPE\", \"machine\": {\"Preset\": \"tiny\"}}}",
            "{\"Optimize\": {\"op\": \"Y0\", \"machine\": {\"Preset\": \"vax\"}}}",
            "{\"PlanNetwork\": {\"machine\": {\"Preset\": \"tiny\"}}}",
            "{\"PlanNetwork\": {\"suite\": \"alexnet\", \"machine\": {\"Preset\": \"tiny\"}}}",
            "{\"PlanGraph\": {\"machine\": {\"Preset\": \"tiny\"}}}",
            "{\"PlanGraph\": {\"block\": \"alexnet\", \"machine\": {\"Preset\": \"tiny\"}}}",
            "\"Save\"",
        ] {
            let response: Response = serde_json::from_str(&state.handle_line(line)).unwrap();
            assert!(
                matches!(response, Response::Error { .. }),
                "line {line:?} should produce an Error response, got {response:?}"
            );
        }
    }

    #[test]
    fn oversized_request_lines_get_an_error_and_the_connection_survives() {
        let state = tiny_state();
        // One line just over the cap (no newline until the very end), then a
        // valid Ping: the server must answer both, in order, without dying.
        let mut request = vec![b'x'; MAX_REQUEST_BYTES + 1024];
        request.push(b'\n');
        request.extend_from_slice(b"\"Ping\"\n");
        let mut output = Vec::new();
        state.serve_connection(std::io::BufReader::new(request.as_slice()), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let mut lines = text.lines();
        let first: Response = serde_json::from_str(lines.next().unwrap()).unwrap();
        match first {
            Response::Error { message } => {
                assert!(message.contains("16 MiB"), "unexpected message: {message}")
            }
            other => panic!("expected Error for the oversized line, got {other:?}"),
        }
        let second: Response = serde_json::from_str(lines.next().unwrap()).unwrap();
        assert!(matches!(second, Response::Pong { .. }), "the connection must keep serving");
        assert!(lines.next().is_none());
        // A line exactly at the cap is *not* rejected as oversized (it is
        // only malformed JSON).
        let mut exact = vec![b'y'; MAX_REQUEST_BYTES];
        exact.push(b'\n');
        let mut output = Vec::new();
        state.serve_connection(std::io::BufReader::new(exact.as_slice()), &mut output).unwrap();
        let reply: Response =
            serde_json::from_str(String::from_utf8(output).unwrap().lines().next().unwrap())
                .unwrap();
        match reply {
            Response::Error { message } => {
                assert!(message.contains("bad request"), "got: {message}")
            }
            other => panic!("expected a parse Error, got {other:?}"),
        }
    }

    #[test]
    fn save_without_a_database_or_with_a_failing_flush_is_an_error() {
        let save = |state: &ServiceState| match serde_json::from_str(&state.handle_line("\"Save\""))
        {
            Ok(Response::Error { message }) => message,
            other => panic!("expected Error, got {other:?}"),
        };
        assert!(save(&tiny_state()).contains("--db"));
        // A flush that cannot write its page comes back as a JSON Error with
        // the cause, not a server-side log line.
        let dir = std::env::temp_dir().join(format!("moptd-save-fails-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let state = ServiceState::new(16).with_db(dir.clone()).unwrap();
        state.handle_line(&format!(
            "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            fast_options_json(),
        ));
        std::fs::remove_dir_all(&dir).unwrap();
        let message = save(&state);
        assert!(message.contains("database flush failed"), "got: {message}");
    }

    #[test]
    fn metrics_verb_reports_verbs_gauges_and_flight() {
        let state = tiny_state();
        state.handle_line("\"Ping\"");
        state.handle_line("\"Ping\"");
        let response: Response = serde_json::from_str(&state.handle_line("\"Metrics\"")).unwrap();
        match response {
            Response::Metrics { report } => {
                // Ping was served twice before this Metrics request.
                let ping =
                    report.verbs.iter().find(|v| v.verb == "Ping").expect("Ping histogram present");
                assert_eq!(ping.latency.count, 2);
                assert!(!ping.latency.buckets.is_empty());
                assert!(
                    report.verbs.iter().all(|v| v.verb != "Optimize"),
                    "unserved verbs omitted"
                );
                // handle() holds the in-flight gauge only while dispatching.
                assert_eq!(report.in_flight_requests, 1, "the Metrics request itself");
                assert_eq!(report.flight.optimize.led, 0);
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    #[test]
    fn trace_flag_returns_the_span_tree() {
        let state = tiny_state();
        let line = format!(
            "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"trace\": true}}}}",
            fast_options_json(),
        );
        let cold: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        let root = match cold {
            Response::Optimized { trace: Some(root), .. } => root,
            other => panic!("expected a traced Optimized, got {other:?}"),
        };
        assert_eq!(root.name, "Optimize");
        assert!(root.find("cache_probe").is_some(), "cold path probes the cache: {root:?}");
        let flight = root.find("flight").expect("cold path runs a flight");
        assert!(flight.find("solve").is_some(), "the flight leader solves: {flight:?}");
        assert_eq!(flight.tag_value("role"), Some("led"));
        assert_eq!(root.tag_value("tier"), Some("solver"));
        assert!(root.find("serialize").is_some(), "the serialize span covers the first encode");
        // Warm repeat: a cache probe, no flight, tier tag flips to cache.
        let warm: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        let root = match warm {
            Response::Optimized { cached: true, trace: Some(root), .. } => root,
            other => panic!("expected a traced warm Optimized, got {other:?}"),
        };
        assert!(root.find("cache_probe").is_some());
        assert!(root.find("flight").is_none(), "a warm hit never enters a flight");
        assert_eq!(root.tag_value("tier"), Some("cache"));
        // Untraced requests carry no tree.
        let plain = format!(
            "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            fast_options_json(),
        );
        let bare: Response = serde_json::from_str(&state.handle_line(&plain)).unwrap();
        assert!(matches!(bare, Response::Optimized { trace: None, .. }));
    }

    /// The traced reply is the untraced one with the tree in its trace slot,
    /// and an `Error` reply to a traced request is left alone. (`PlanNetwork`
    /// stamps a fresh wall clock on each reply; `serialize_identity.rs` holds
    /// its traced reply to the attached form. `PlanGraph` stamps a fresh
    /// `plan_seconds`, masked below.)
    #[test]
    fn traced_reply_is_the_untraced_reply_plus_the_tree() {
        let state = tiny_state();
        let target =
            format!("\"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}", fast_options_json());
        let bodies = [
            format!("{{\"Optimize\": {{\"op\": \"M9\", {target}"),
            format!("{{\"PlanGraph\": {{\"block\": \"mbv2-block1\", {target}"),
            format!("{{\"Optimize\": {{\"op\": \"no-such-op\", {target}"),
        ];
        for body in bodies {
            let (plain, traced) = (format!("{body}}}}}"), format!("{body}, \"trace\": true}}}}"));
            state.handle_line(&plain); // warm: both replies below are cache hits
            let untraced = state.handle_line(&plain);
            let reply = state.handle_line(&traced);
            let root = match serde_json::from_str(&reply).unwrap() {
                Response::Optimized { trace, .. } | Response::GraphPlanned { trace, .. } => {
                    trace.expect("a traced reply")
                }
                Response::Error { .. } => {
                    assert_eq!(reply, untraced);
                    continue;
                }
                other => panic!("unexpected reply {other:?}"),
            };
            assert!(root.find("serialize").is_some(), "the encode is a child span: {root:?}");
            let head = untraced.strip_suffix("null}}").expect("an empty trace slot, last");
            let expected = format!("{head}{}}}}}", serde_json::to_string(&root).unwrap());
            assert_eq!(mask_plan_seconds(&reply), mask_plan_seconds(&expected));
        }
    }

    /// `reply` with the number after `"plan_seconds":` cut out.
    fn mask_plan_seconds(reply: &str) -> String {
        const FIELD: &str = "\"plan_seconds\":";
        match reply.find(FIELD) {
            Some(at) => {
                let (head, tail) = reply.split_at(at + FIELD.len());
                let end = tail.find([',', '}']).expect("a number ends the field");
                format!("{head}{}", &tail[end..])
            }
            None => reply.to_string(),
        }
    }

    #[test]
    fn slow_requests_land_in_the_trace_ring() {
        let state = ServiceState::new(64).with_slow_ms(1);
        state.set_test_solve_delay(std::time::Duration::from_millis(20));
        // Before anything slow happened the ring is empty but armed.
        let empty: Response = serde_json::from_str(&state.handle_line("\"Trace\"")).unwrap();
        assert_eq!(empty, Response::Traced { slow_ms: 1, traces: Vec::new() });
        let line = format!(
            "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            fast_options_json(),
        );
        state.handle_line(&line);
        let traced: Response = serde_json::from_str(&state.handle_line("\"Trace\"")).unwrap();
        match traced {
            Response::Traced { slow_ms, traces } => {
                assert_eq!(slow_ms, 1);
                let slow = traces
                    .iter()
                    .find(|t| t.verb == "Optimize")
                    .expect("the delayed solve crossed the threshold");
                assert!(slow.micros >= 20_000, "got {}", slow.micros);
                assert_eq!(slow.root.name, "Optimize");
                assert!(slow.root.find("solve").is_some(), "slow traces keep the full tree");
            }
            other => panic!("expected Traced, got {other:?}"),
        }
        // `limit` keeps only the newest entries.
        state.handle_line(&line); // warm hit: fast, not recorded
        let limited: Response =
            serde_json::from_str(&state.handle_line("{\"Trace\": {\"limit\": 0}}")).unwrap();
        assert_eq!(limited, Response::Traced { slow_ms: 1, traces: Vec::new() });
    }

    #[test]
    fn stats_surfaces_errors_version_and_worker_counts() {
        let state = tiny_state();
        state.set_configured_workers(4);
        // Two failing Optimizes and one failing PlanGraph.
        state.handle_line("{\"Optimize\": {\"op\": \"Y0\", \"machine\": {\"Preset\": \"vax\"}}}");
        state
            .handle_line("{\"Optimize\": {\"op\": \"NOPE\", \"machine\": {\"Preset\": \"tiny\"}}}");
        state.handle_line("{\"PlanGraph\": {\"machine\": {\"Preset\": \"tiny\"}}}");
        let stats: Response = serde_json::from_str(&state.handle_line("\"Stats\"")).unwrap();
        match stats {
            Response::Stats { stats } => {
                assert_eq!(stats.version.as_deref(), Some(env!("CARGO_PKG_VERSION")));
                assert_eq!(stats.workers, Some(4));
                assert_eq!(stats.cache_shards, Some(ScheduleCache::SHARDS as u64));
                let errors = stats.errors.expect("error section present");
                assert_eq!(errors.total, 3);
                assert_eq!(errors.parse_errors, 0);
                let by_verb: Vec<(&str, u64)> =
                    errors.verbs.iter().map(|v| (v.verb.as_str(), v.count)).collect();
                assert_eq!(by_verb, vec![("Optimize", 2), ("PlanGraph", 1)]);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn suites_verb_lists_ops_and_flags_deprecated_aliases() {
        let state = tiny_state();
        let response: Response = serde_json::from_str(&state.handle_line("\"Suites\"")).unwrap();
        let ops = match response {
            Response::Suites { suites, ops } => {
                assert!(suites.iter().any(|s| s == "extended"));
                assert!(suites.iter().any(|s| s == "table1"));
                ops
            }
            other => panic!("expected Suites, got {other:?}"),
        };
        assert!(!ops.is_empty());
        let deprecated: Vec<&str> =
            ops.iter().filter(|o| o.deprecated).map(|o| o.name.as_str()).collect();
        assert!(deprecated.contains(&"M1pw") && deprecated.contains(&"M9pw"));
        let m9 = ops.iter().find(|o| o.name == "M9").expect("M9 listed");
        assert!(!m9.deprecated);
        assert!(!m9.suite.is_empty());
    }
}

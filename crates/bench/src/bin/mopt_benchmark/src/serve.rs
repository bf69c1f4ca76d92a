//! `serve_warm` and `serve_db`: closed-loop `Optimize` traffic over TCP into
//! the release `moptd`, answered by the schedule cache and by the schedule
//! database respectively. They share everything but the key set, the cache
//! capacity and the order keys are asked in.

use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use mopt_service::{Response, ServiceStats, Tier};
use mopt_trace::SpanNode;

use crate::checks::{check_optimized, reply_head, Tally};
use crate::daemon::{copy_dir, set_up_repeatedly, Client, Moptd, TempDir};
use crate::names::{SERVE_DB, SERVE_WARM};
use crate::requests::{
    key_set, shared_order, shuffled_rounds, traced, uniform_order, Key, DB_THREADS, WARM_THREADS,
};
use crate::stats::{fastest, geometric_mean, median, percentile, quietest, sorted, spread};
use crate::{probe, Context, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm,
    Db,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Warm => SERVE_WARM,
            Mode::Db => SERVE_DB,
        }
    }

    /// `moptd --capacity`: 4096 holds every `serve_warm` key sixty times
    /// over; 16 is one entry per shard, a twelfth of the `serve_db` key set.
    pub fn capacity(self) -> usize {
        match self {
            Mode::Warm => 4096,
            Mode::Db => 16,
        }
    }

    pub fn keys(self) -> Vec<Key> {
        match self {
            Mode::Warm => key_set(WARM_THREADS),
            Mode::Db => key_set(DB_THREADS),
        }
    }
}

/// Set-ups per run; `setup_s` is the fastest of them (interference only ever
/// adds time, and a 40 ms set-up is over before a quiet moment can be picked
/// out of it) and the last one's server is the one measured.
const SETUPS: usize = 7;
const WARMUP: Duration = Duration::from_secs(2);
/// The timed phase is cut into windows this long.
const WINDOW: Duration = Duration::from_millis(100);

/// What a key's replies look like, learnt (and fully checked) in set-up.
pub struct Served {
    /// Reply bytes up to `"optimize_seconds"` when the database answers…
    db_head: String,
    /// …and when the cache does.
    cache_head: String,
    /// Predicted cost of the served best schedule.
    pub cost: f64,
    /// Reply length without the digits of `optimize_seconds`, the one field
    /// that differs between two answers for the same key.
    pub reply_bytes: usize,
}

impl Served {
    /// Which tier a timed reply came from; `None` if it is not one of the two
    /// replies this key can have.
    pub fn tier_of(&self, reply: &str) -> Option<Tier> {
        let head = reply_head(reply)?;
        if head == self.cache_head {
            Some(Tier::Cache)
        } else {
            (head == self.db_head).then_some(Tier::Db)
        }
    }
}

/// A server with every key touched twice, ready for the timed phase.
struct Ready {
    server: Moptd,
    dir: TempDir,
    served: Vec<Served>,
    /// Fixture copy + spawn to first `Pong` (which includes the database
    /// open) + the latency of every first-touch request. The harness's own
    /// checking of those replies is not counted.
    setup: Duration,
}

fn set_up(
    ctx: &Context,
    mode: Mode,
    keys: &[Key],
    fixture: &std::path::Path,
) -> Result<Ready, String> {
    let dir = TempDir::new(&ctx.out_dir, mode.name()).map_err(|e| e.to_string())?;
    let db = dir.path().join("db");
    let start = Instant::now();
    copy_dir(fixture, &db).map_err(|e| format!("copying the fixture: {e}"))?;
    let server = Moptd::start(&ctx.moptd, &db, mode.capacity(), dir.path())?;
    let mut setup = start.elapsed();
    ctx.pin(&server);
    let mut client = server.connect()?;
    let mut served = Vec::with_capacity(keys.len());
    for key in keys {
        // First touch: the cache is cold, the database has the record.
        let (latency, reply) = client.call(&key.line).map_err(|e| e.to_string())?;
        setup += latency;
        let first = reply.to_string();
        // Second touch, back to back: the entry just inserted is resident
        // even with one entry per shard.
        let (latency, reply) = client.call(&key.line).map_err(|e| e.to_string())?;
        setup += latency;
        let second = reply.to_string();
        // Without the expected replies of every key the timed phase cannot
        // be checked: a failure here gives up on the run.
        let from_db = check_optimized(&first, key.op, key.threads, Tier::Db, true)?;
        let from_cache = check_optimized(&second, key.op, key.threads, Tier::Cache, true)?;
        if from_db.ranked != from_cache.ranked {
            return Err(format!("{}@{}: cache and db disagree", key.op, key.threads));
        }
        let heads = reply_head(&first).zip(reply_head(&second));
        let (db_head, cache_head) = heads.ok_or("reply does not end as expected")?;
        served.push(Served {
            db_head: db_head.to_string(),
            cache_head: cache_head.to_string(),
            cost: from_db.ranked[0].predicted_cost,
            reply_bytes: cache_head.len() + "\"optimize_seconds\":},\"trace\":null}}".len(),
        });
    }
    Ok(Ready { server, dir, served, setup })
}

/// What one connection saw.
#[derive(Default)]
struct ConnectionLog {
    /// Latencies in microseconds, by the window the reply arrived in.
    windows: Vec<Vec<f64>>,
    from_cache: u64,
    from_db: u64,
    /// Raw replies kept for the probe (traced runs only).
    kept: Vec<String>,
    tally: Tally,
}

struct Phase {
    start: Instant,
    warmup: Duration,
    /// Number of [`WINDOW`]s after the warm-up.
    windows: usize,
    /// Keep up to this many raw replies per connection.
    keep: usize,
}

/// One connection's closed loop: ask, wait for the whole reply, ask again,
/// until the last window ends. Replies are checked against the key's known
/// heads, which costs a `memcmp`.
fn closed_loop(
    client: &mut Client,
    lines: &[String],
    served: &[Served],
    phase: &Phase,
    mut next_key: impl FnMut() -> usize,
) -> ConnectionLog {
    let mut log = ConnectionLog { windows: vec![Vec::new(); phase.windows], ..Default::default() };
    let end = phase.warmup + WINDOW * phase.windows as u32;
    loop {
        let key = next_key();
        let (latency, reply) = match client.call(&lines[key]) {
            Ok(done) => done,
            Err(e) => {
                log.tally.record(Err(format!("connection failed: {e}")));
                break;
            }
        };
        let at = phase.start.elapsed();
        // Every reply is checked and counted, so the client's tier counts can
        // be held to the server's; only its latency may fall outside the
        // windows.
        match served[key].tier_of(reply) {
            Some(Tier::Cache) => log.from_cache += 1,
            Some(_) => log.from_db += 1,
            None => {
                let shown: String = reply.chars().take(160).collect();
                log.tally.fail(format!("unexpected reply to {}: {shown}", lines[key].trim_end()));
            }
        }
        log.tally.attempted += 1;
        if at >= end {
            break;
        }
        if at >= phase.warmup {
            let window = ((at - phase.warmup).as_nanos() / WINDOW.as_nanos()) as usize;
            log.windows[window].push(latency.as_nanos() as f64 / 1e3);
        }
        if log.kept.len() < phase.keep {
            log.kept.push(reply.to_string());
        }
    }
    log
}

/// Run `connections` closed loops side by side.
fn run_phase(
    ready: &Ready,
    mode: Mode,
    ctx: &Context,
    lines: &[String],
    warmup: Duration,
    windows: usize,
    keep: usize,
) -> Result<Vec<ConnectionLog>, String> {
    let mut clients = Vec::new();
    for _ in 0..ctx.connections {
        clients.push(ready.server.connect()?);
    }
    // `serve_db`: all connections take their keys from one sequence.
    let sequence = shuffled_rounds(ctx.seed, lines.len(), 64);
    let cursor = AtomicUsize::new(0);
    let phase = Phase { start: Instant::now(), warmup, windows, keep };
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(connection, client)| {
                let next_key: Box<dyn FnMut() -> usize + Send> = match mode {
                    Mode::Warm => Box::new(uniform_order(ctx.seed, connection as u64, lines.len())),
                    Mode::Db => Box::new(shared_order(&sequence, &cursor)),
                };
                let (phase, served) = (&phase, &ready.served);
                scope.spawn(move || closed_loop(client, lines, served, phase, next_key))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    Ok(logs)
}

/// What the timed phase measured. The run is cut into 100 ms windows; the
/// end-to-end numbers are taken over the least-disturbed twentieth of them
/// (see [`quietest`]), pooled: ten windows of a 20 s run. On the 2-core build
/// container, in a noisy hour, the median window reads 115–130 µs on
/// `serve_warm` and only a handful read the 88–92 µs of a quiet machine; a
/// 10 s run often had too few of those, a 20 s run had them in 7 of 8 runs.
struct Windowed {
    throughput: f64,
    p50: f64,
    p95: f64,
    /// Samples in the quiet windows.
    quiet_requests: u64,
    /// Over every window, for the noise floor: the median of the windows'
    /// p50, the overall p99 and maximum, and `(max − min) ÷ median` of the
    /// windows' p50.
    all_windows_p50: f64,
    p99: f64,
    max: f64,
    window_spread: f64,
    requests: u64,
}

const QUIET_SHARE: f64 = 0.05;

fn summarize(logs: &[ConnectionLog]) -> Result<Windowed, String> {
    // A window in which nothing completed (a stall longer than the window) is
    // as disturbed as a window gets: it is never among the quiet ones, so it
    // is simply left out.
    let windows: Vec<Vec<f64>> = (0..logs[0].windows.len())
        .map(|w| sorted(logs.iter().flat_map(|log| log.windows[w].iter().copied()).collect()))
        .filter(|window: &Vec<f64>| !window.is_empty())
        .collect();
    if windows.is_empty() {
        return Err("no request completed in the timed phase".into());
    }
    let p50: Vec<f64> = windows.iter().map(|w| percentile(w, 0.50)).collect();
    let quiet = quietest(&p50, QUIET_SHARE);
    let pooled = sorted(quiet.iter().flat_map(|&w| windows[w].iter().copied()).collect());
    // Throughput picks its own windows, those that completed the most
    // requests: a window can have an undisturbed median and still have lost a
    // tenth of its time to one stall.
    let idle: Vec<f64> = windows.iter().map(|w| -(w.len() as f64)).collect();
    let busiest = quietest(&idle, QUIET_SHARE);
    let completed: usize = busiest.iter().map(|&w| windows[w].len()).sum();
    let all = sorted(windows.concat());
    Ok(Windowed {
        throughput: completed as f64 / (busiest.len() as f64 * WINDOW.as_secs_f64()),
        p50: percentile(&pooled, 0.50),
        p95: percentile(&pooled, 0.95),
        quiet_requests: pooled.len() as u64,
        all_windows_p50: median(&p50),
        p99: percentile(&all, 0.99),
        max: all[all.len() - 1],
        window_spread: spread(&p50),
        requests: all.len() as u64,
    })
}

pub fn run(ctx: &Context, mode: Mode, fixture: &std::path::Path) -> Result<Outcome, String> {
    let keys = mode.keys();
    let lines: Vec<String> = keys.iter().map(|k| k.line.clone()).collect();
    let mut outcome = Outcome::new(mode.name());

    // Set up several times; measure on the last server.
    let once = || {
        set_up(ctx, mode, &keys, fixture).map(|r| {
            let took = r.setup.as_secs_f64();
            (r, took)
        })
    };
    let (ready, setups) = set_up_repeatedly(SETUPS, &mut outcome.tally, once, |r| r.server)?;
    outcome.tally.passed(2 * keys.len() as u64 * SETUPS as u64);
    let mut control = ready.server.connect()?;
    let before = control.stats()?;

    let windows = (ctx.seconds / WINDOW.as_secs_f64()).round() as usize;
    let logs = run_phase(&ready, mode, ctx, &lines, WARMUP, windows, 0)?;
    let after = control.stats()?;
    let peak_rss_mib = ready.server.peak_rss_mib();
    let timed = summarize(&logs)?;

    let (mut from_cache, mut from_db) = (0, 0);
    for log in logs {
        from_cache += log.from_cache;
        from_db += log.from_db;
        outcome.tally.absorb(log.tally);
    }
    let db_share = from_db as f64 / (from_cache + from_db).max(1) as f64;
    check_counters(mode, &before, &after, from_cache, from_db, &mut outcome.tally);

    let e = &mut outcome.end_to_end;
    e.set("setup_s", fastest(&setups), SETUPS as u64);
    e.set("throughput_ops_s", timed.throughput, timed.quiet_requests);
    e.set("latency_p50_us", timed.p50, timed.quiet_requests);
    e.set("peak_rss_mb", peak_rss_mib, 1);

    if ctx.trace {
        let p = &mut outcome.per_layer;
        p.set("client.latency_p95_us", timed.p95, timed.quiet_requests);
        p.set("client.latency_p99_us", timed.p99, timed.requests);
        p.set("client.latency_max_us", timed.max, timed.requests);
        p.set("client.all_windows_p50_us", timed.all_windows_p50, timed.requests);
        p.set("client.window_spread", timed.window_spread, windows as u64);
        p.set("client.requests", timed.requests as f64, 1);
        p.set("client.db_tier_share", db_share, from_cache + from_db);
        let costs: Vec<f64> = ready.served.iter().map(|s| s.cost).collect();
        p.set("quality.schedule_cost_geomean", geometric_mean(&costs), costs.len() as u64);
        let db = after.db.as_ref().expect("checked by check_counters");
        p.set("cache.hit_rate", hit_rate(&before, &after), timed.requests);
        p.set("cache.evictions", (after.cache.evictions - before.cache.evictions) as f64, 1);
        p.set("db.hits", db.hits as f64, 1);
        p.set("db.misses", db.misses as f64, 1);
        p.set("db.pages_loaded", db.store.pages_loaded as f64, 1);
        let flight = after.flight.as_ref().expect("checked by check_counters");
        p.set("flight.led", flight.optimize.led as f64, 1);
        p.set("flight.coalesced", flight.optimize.coalesced as f64, 1);
        over_the_wire(ctx, mode, &ready, &lines, &mut control, &mut outcome)?;
    }

    let Ready { server, dir, served, .. } = ready;
    ctx.release(None);
    server.stop(&mut outcome.tally);
    if ctx.trace {
        let replay = probe::replay_serve(ctx, mode, &keys, &served, &dir.path().join("db"))?;
        replay.report_into(&mut outcome, timed.p50);
    }
    Ok(outcome)
}

/// Cache hit rate over the warm-up and the timed windows.
fn hit_rate(before: &ServiceStats, after: &ServiceStats) -> f64 {
    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    hits as f64 / (hits + misses).max(1) as f64
}

/// The client's view of which tier answered must agree with the server's own
/// counters, and the layer the workload is meant to bypass must be idle.
fn check_counters(
    mode: Mode,
    before: &ServiceStats,
    after: &ServiceStats,
    from_cache: u64,
    from_db: u64,
    tally: &mut Tally,
) {
    let (Some(db0), Some(db1), Some(f0), Some(f1)) =
        (&before.db, &after.db, &before.flight, &after.flight)
    else {
        tally.fail("Stats carries no db or flight section".into());
        return;
    };
    let cache_hits = after.cache.hits - before.cache.hits;
    let cache_misses = after.cache.misses - before.cache.misses;
    let db_hits = db1.hits - db0.hits;
    let coalesced = f1.optimize.coalesced - f0.optimize.coalesced;
    tally.expect(cache_hits == from_cache, || {
        format!("client saw {from_cache} cache answers, server counted {cache_hits}")
    });
    // A request that joins another connection's in-flight lookup of the same
    // key gets the leader's database answer without a lookup of its own.
    tally.expect(db_hits + coalesced == from_db, || {
        format!("client saw {from_db} db answers, server counted {db_hits} + {coalesced} coalesced")
    });
    tally.expect(cache_misses == from_db, || {
        format!("{from_db} db answers but {cache_misses} cache misses")
    });
    // No database miss means no request ever reached the solver.
    tally.expect(db1.misses == 0 && db1.errors == 0, || {
        format!("db misses {} errors {}: the solver ran", db1.misses, db1.errors)
    });
    let errors = after.errors.as_ref().map_or(0, |e| e.total);
    tally.expect(errors == 0, || format!("server counted {errors} Error replies"));
    match mode {
        Mode::Warm => tally.expect(from_db == 0 && db_hits == 0, || {
            format!("serve_warm must be all cache hits, {from_db} were not")
        }),
        Mode::Db => tally.expect(from_db * 20 >= (from_cache + from_db) * 19, || {
            format!(
                "serve_db: only {from_db} of {} answers came from the database",
                from_cache + from_db
            )
        }),
    }
}

/// The probe's second and third source: the server's own `"trace": true`
/// span trees for a sample of the workload's requests, and what the event
/// loop costs when it is used differently (no work; deep pipeline).
fn over_the_wire(
    ctx: &Context,
    mode: Mode,
    ready: &Ready,
    lines: &[String],
    control: &mut Client,
    outcome: &mut Outcome,
) -> Result<(), String> {
    // Ping: the loop, the worker hand-off and the socket, with no work.
    let mut rtts = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let (latency, reply) = control.call("\"Ping\"\n").map_err(|e| e.to_string())?;
        outcome.tally.record(if reply.starts_with("{\"Pong\"") {
            Ok(())
        } else {
            Err(reply.into())
        });
        rtts.push(latency.as_nanos() as f64 / 1e3);
    }
    outcome.per_layer.set("eventloop.ping_rtt_us", median(&rtts), rtts.len() as u64);

    // The same closed loop twice, back to back: plain, then traced.
    let warmup = Duration::from_millis(300);
    let plain = run_phase(ready, mode, ctx, lines, warmup, 20, 0)?;
    let traced_lines: Vec<String> = lines.iter().map(|l| traced(l)).collect();
    let with_trace = run_phase(ready, mode, ctx, &traced_lines, warmup, 20, 250)?;
    let (plain_run, traced_run) = (summarize(&plain)?, summarize(&with_trace)?);
    outcome.per_layer.set(
        "trace.overhead_share",
        (traced_run.p50 - plain_run.p50) / plain_run.p50,
        plain_run.quiet_requests + traced_run.quiet_requests,
    );

    let mut spans: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let mut coverage = Vec::new();
    for log in plain.into_iter().chain(with_trace) {
        for reply in &log.kept {
            match serde_json::from_str::<Response>(reply) {
                Ok(Response::Optimized { trace: Some(root), .. }) => {
                    coverage.push(covered_share(&root));
                    collect_spans(&root, &mut spans);
                }
                _ => outcome.tally.fail("a traced request came back without its span tree".into()),
            }
        }
        outcome.tally.absorb(log.tally);
    }
    // Reported, not required to be high: today the server's tree has no span
    // around request resolution, so ~20% of a warm hit's root span is
    // unaccounted for. Below half, the tree itself is broken.
    let coverage = median(&coverage);
    outcome.per_layer.set("server.span_coverage", coverage, 1);
    outcome.tally.expect(coverage >= 0.5, || {
        format!("the server's child spans cover only {coverage:.2} of its root span")
    });
    for (span, metric) in [
        ("queue_wait", "server.queue_wait_us"),
        ("parse", "server.parse_us"),
        ("cache_probe", "server.cache_probe_us"),
        ("db_lookup", "server.db_lookup_us"),
        ("cache_insert", "server.cache_insert_us"),
        ("serialize", "server.serialize_us"),
    ] {
        if let Some(values) = spans.get(span) {
            outcome.per_layer.set(metric, median(values), values.len() as u64);
        }
    }

    if mode == Mode::Warm {
        let (rps, served) = pipelined(ready, lines, ctx.seed)?;
        outcome.tally.passed(served);
        outcome.per_layer.set("eventloop.pipelined_rps", rps, served);
    }
    Ok(())
}

/// Share of the root span's duration its in-request children account for.
/// `parse` and `queue_wait` are recorded retroactively and precede the root.
fn covered_share(root: &SpanNode) -> f64 {
    let covered: u64 = root
        .children
        .iter()
        .filter(|c| c.name != "parse" && c.name != "queue_wait")
        .map(|c| c.duration_micros)
        .sum();
    covered as f64 / root.duration_micros.max(1) as f64
}

pub fn collect_spans(node: &SpanNode, into: &mut std::collections::BTreeMap<String, Vec<f64>>) {
    for child in &node.children {
        into.entry(child.name.clone()).or_default().push(child.duration_micros as f64);
        collect_spans(child, into);
    }
}

/// One connection that keeps 64 warm requests in flight for two seconds: the
/// event loop reads and writes in batches and no request waits for a wake-up.
fn pipelined(ready: &Ready, lines: &[String], seed: u64) -> Result<(f64, u64), String> {
    const DEPTH: usize = 64;
    let mut client = ready.server.connect()?;
    let mut next_key = uniform_order(seed, 64, lines.len());
    let mut in_flight = std::collections::VecDeque::with_capacity(DEPTH);
    let io = |e: std::io::Error| format!("pipelined connection: {e}");
    for _ in 0..DEPTH {
        let key = next_key();
        client.send(&lines[key]).map_err(io)?;
        in_flight.push_back(key);
    }
    let start = Instant::now();
    let mut served = 0u64;
    while start.elapsed() < Duration::from_secs(2) {
        let key = in_flight.pop_front().expect("the pipeline stays full");
        let reply = client.receive().map_err(io)?;
        if ready.served[key].tier_of(reply) != Some(Tier::Cache) {
            return Err("pipelined reply out of order or not a cache hit".into());
        }
        served += 1;
        let key = next_key();
        client.send(&lines[key]).map_err(io)?;
        in_flight.push_back(key);
    }
    let rps = served as f64 / start.elapsed().as_secs_f64();
    for key in in_flight {
        let reply = client.receive().map_err(io)?;
        if ready.served[key].tier_of(reply).is_none() {
            return Err("pipelined drain: unexpected reply".into());
        }
    }
    Ok((rps, served))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(windows: Vec<Vec<f64>>) -> ConnectionLog {
        ConnectionLog { windows, ..Default::default() }
    }

    #[test]
    fn end_to_end_numbers_come_from_the_quiet_windows_of_all_connections() {
        // Forty windows; window 7 is the quietest (p50 10),
        // the others sit at 20 or, disturbed, at 100 and beyond.
        let mut a: Vec<Vec<f64>> = (0..40).map(|w| vec![20.0 + w as f64, 20.0, 100.0]).collect();
        let mut b: Vec<Vec<f64>> = (0..40).map(|_| vec![20.0]).collect();
        a[7] = vec![9.0, 10.0, 10.0, 30.0];
        b[7] = vec![10.0, 11.0];
        a[3] = vec![400.0, 500.0];
        b[3] = vec![300.0];
        let w = summarize(&[log(a), log(b)]).unwrap();
        // Two of forty windows are kept: 7 (six samples) and one at p50 20
        // (four samples).
        assert_eq!(w.quiet_requests, 10);
        assert_eq!(w.throughput, 10.0 / (2.0 * WINDOW.as_secs_f64()));
        assert_eq!(w.p50, 11.0);
        assert_eq!(w.p95, 100.0);
        assert_eq!(w.all_windows_p50, 20.0);
        assert_eq!(w.max, 500.0);
        assert_eq!(w.requests, 38 * 4 + 6 + 3);
        assert_eq!(w.window_spread, (400.0 - 10.0) / 20.0);
        // An empty window is left out; a run of only empty windows is an error.
        assert_eq!(summarize(&[log(vec![vec![1.0], vec![]])]).unwrap().requests, 1);
        assert!(summarize(&[log(vec![vec![], vec![]])]).is_err());
    }

    #[test]
    fn replies_are_classified_by_their_head() {
        let db_head = r#"{"Optimized":{"cached":false,"tier":"Db","result":{"ranked":[7],"#;
        let cache_head = r#"{"Optimized":{"cached":true,"tier":"Cache","result":{"ranked":[7],"#;
        let served = Served {
            db_head: db_head.into(),
            cache_head: cache_head.into(),
            cost: 1.0,
            reply_bytes: 0,
        };
        let reply = |head: &str, tail: &str| format!("{head}\"optimize_seconds\":0.1}},{tail}}}}}");
        assert_eq!(served.tier_of(&reply(db_head, "\"trace\":null")), Some(Tier::Db));
        assert_eq!(served.tier_of(&reply(cache_head, "\"trace\":null")), Some(Tier::Cache));
        assert_eq!(
            served.tier_of(&reply(cache_head, "\"trace\":{\"name\":\"x\"}")),
            Some(Tier::Cache)
        );
        let other = db_head.replace("[7]", "[8]");
        assert_eq!(served.tier_of(&reply(&other, "\"trace\":null")), None);
        assert_eq!(served.tier_of(r#"{"Error":{"message":"no"}}"#), None);
    }

    #[test]
    fn span_coverage_ignores_spans_recorded_before_the_root() {
        let node = |name: &str, us: u64, children: Vec<SpanNode>| SpanNode {
            name: name.into(),
            start_micros: 0,
            duration_micros: us,
            tags: vec![],
            children,
        };
        let root = node(
            "Optimize",
            50,
            vec![
                node("parse", 40, vec![]),
                node("cache_probe", 10, vec![]),
                node("flight", 20, vec![node("db_lookup", 18, vec![])]),
                node("serialize", 15, vec![]),
            ],
        );
        assert_eq!(covered_share(&root), 0.9);
        let mut spans = Default::default();
        collect_spans(&root, &mut spans);
        assert_eq!(spans["db_lookup"], vec![18.0]);
        assert_eq!(spans.len(), 5);
    }
}

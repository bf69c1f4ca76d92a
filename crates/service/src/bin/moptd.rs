//! `moptd` — the MOpt schedule server.
//!
//! Serves the JSON-lines protocol of [`mopt_service::server`] over TCP
//! (`--listen ADDR`) or stdin/stdout (`--stdio`). TCP mode runs a
//! non-blocking readiness event loop ([`mopt_service::eventloop`]): one
//! thread multiplexes every connection, supports pipelined requests with
//! bounded backpressure, and hands request execution to a small worker
//! pool (`--workers N`, default: available parallelism capped at 8). On
//! `SIGINT`/`SIGTERM` the loop stops accepting, drains in-flight and
//! pipelined work, flushes every response, persists state, and exits.
//!
//! Persistence is the schedule database's alone (`--db DIR`). It is the
//! warm tier between the cache and the optimizer: cache misses are answered
//! from stored canonicalized top-k entries (re-ranked for the request's
//! thread count) before the optimizer is ever invoked, and fresh solves are
//! written through. Its dirty pages are flushed on every `"Save"` request, at
//! shutdown, at stdin EOF in `--stdio` mode, and by a background autosaver
//! every 30 seconds while solves keep landing. A restarted process answers
//! what its predecessor solved from the database. Pre-populate it offline
//! with `mopt-plan-world`.
//!
//! ```text
//! moptd --stdio [--db specs.db]
//! moptd --listen 127.0.0.1:7077 [--workers N] [--db specs.db]
//!
//! echo '{"Optimize": {"op": "Y0", "machine": {"Preset": "i7-9700k"}}}' | moptd --stdio
//! ```
//!
//! Verbs: `Optimize`, `Explain` (schedule plus the optimizer's search trace
//! and cost breakdown), `PlanNetwork`, `PlanGraph` (per-operator graph
//! planning), `Suites` (the benchmark suites and operators the server knows
//! by name), `Stats`, `Save`, `Metrics` (per-verb latency histograms,
//! error counters and in-flight gauges; `{"format": "prometheus"}` for
//! text exposition), `Trace` (the slow-request log armed by `--slow-ms`),
//! `Ping` (replies with the crate version). Any
//! `Optimize`/`PlanNetwork`/`PlanGraph` request may set `"trace": true` to
//! get its span tree inline in the response. Client disconnects — stdin
//! EOF, broken pipes, connection resets — end a connection gracefully:
//! state is persisted and nothing is logged as an error.

use std::sync::Arc;

use mopt_service::{EventLoopServer, ServerConfig, ServiceState};

struct Args {
    stdio: bool,
    listen: Option<String>,
    db: Option<std::path::PathBuf>,
    capacity: usize,
    workers: usize,
    slow_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { stdio: false, listen: None, db: None, capacity: 4096, workers: 0, slow_ms: 0 };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stdio" => args.stdio = true,
            "--listen" => {
                args.listen = Some(it.next().ok_or("--listen needs an address")?);
            }
            "--db" => {
                args.db = Some(it.next().ok_or("--db needs a directory path")?.into());
            }
            "--capacity" => {
                args.capacity = it
                    .next()
                    .ok_or("--capacity needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --capacity: {e}"))?;
            }
            "--workers" => {
                args.workers = it
                    .next()
                    .ok_or("--workers needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--slow-ms" => {
                args.slow_ms = it
                    .next()
                    .ok_or("--slow-ms needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --slow-ms: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "moptd — MOpt schedule server\n\n\
                     USAGE:\n  moptd --stdio [OPTIONS]\n  \
                     moptd --listen ADDR [--workers N] [OPTIONS]\n\n\
                     OPTIONS:\n  \
                     --db DIR             persistent schedule database (see mopt-plan-world)\n  \
                     --capacity N         schedule cache capacity (default 4096)\n  \
                     --workers N          TCP request workers (default: CPU count, max 8)\n  \
                     --slow-ms MS         keep traces of requests slower than MS ms (Trace verb)\n\n\
                     One JSON request per input line, one JSON response per output line;\n\
                     TCP connections may pipeline requests. SIGINT/SIGTERM drain gracefully.\n\
                     Requests: Optimize, Explain, PlanNetwork, PlanGraph, Suites, Stats,\n\
                     Save, Metrics, Trace, Ping.\n\
                     See README.md and docs/PROTOCOL.md."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.stdio == args.listen.is_some() {
        return Err("pass exactly one of --stdio or --listen ADDR".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("moptd: {message}");
            std::process::exit(2);
        }
    };

    let mut state = ServiceState::new(args.capacity);
    if let Some(path) = &args.db {
        state = match state.with_db(path.clone()) {
            Ok(state) => {
                eprintln!("moptd: schedule database {} attached", path.display());
                state
            }
            Err(e) => {
                eprintln!("moptd: cannot open schedule database {}: {e}", path.display());
                std::process::exit(1);
            }
        };
    }
    if args.slow_ms > 0 {
        state = state.with_slow_ms(args.slow_ms);
    }
    let state = Arc::new(state);

    if args.stdio {
        state.set_configured_workers(1);
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        // Count the stdio session in the same gauge TCP connections use, so
        // `Metrics` reports consistently in both modes.
        let conn_guard = state.metrics().connection_opened();
        // Client disconnects (stdin EOF, broken pipe on stdout) come back as
        // Ok(()) from serve_connection; either way the shutdown is graceful:
        // flush the database and exit 0.
        match state.serve_connection(stdin.lock(), stdout.lock()) {
            Ok(()) => eprintln!("moptd: stdin closed, shutting down"),
            Err(e) => eprintln!("moptd: stdio loop failed: {e}"),
        }
        drop(conn_guard);
        // A failed final flush is real data loss in one-shot stdio mode
        // (there is no autosaver to retry): exit nonzero so pipelines see
        // the failure.
        if !flush_db(&state) {
            std::process::exit(1);
        }
        return;
    }

    let addr = args.listen.expect("checked by parse_args");
    let config = ServerConfig { workers: args.workers, ..ServerConfig::default() };
    let server = match EventLoopServer::bind(Arc::clone(&state), &addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("moptd: cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("moptd: listening on {addr}");
    #[cfg(unix)]
    sig::install(server.shutdown_handle());

    if state.db().is_some() {
        // The autosaver bounds data loss from an abrupt (`SIGKILL`) death;
        // SIGINT/SIGTERM flush via the post-drain flush below.
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            let inserts = || state.db().map_or(0, |db| db.stats().inserts);
            let mut flushed_inserts = inserts();
            loop {
                std::thread::sleep(std::time::Duration::from_secs(30));
                let now = inserts();
                if now != flushed_inserts {
                    flushed_inserts = now;
                    flush_db(&state);
                }
            }
        });
    }

    match server.run() {
        Ok(()) => eprintln!("moptd: drained, shutting down"),
        Err(e) => eprintln!("moptd: event loop failed: {e}"),
    }
    // The loop has drained: every accepted request got its response flushed.
    // A failed flush here is data loss, so surface it in the exit code.
    if !flush_db(&state) {
        std::process::exit(1);
    }
}

/// Graceful-drain signal plumbing: `SIGINT`/`SIGTERM` flip the event loop's
/// shutdown flag. Everything the handler touches is async-signal-safe — an
/// atomic store and one `write(2)` to the loop's waker pipe.
#[cfg(unix)]
mod sig {
    use std::sync::OnceLock;

    use mopt_service::ShutdownHandle;

    static HANDLE: OnceLock<ShutdownHandle> = OnceLock::new();

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        if let Some(handle) = HANDLE.get() {
            handle.shutdown();
        }
    }

    pub fn install(handle: ShutdownHandle) {
        let _ = HANDLE.set(handle);
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

/// Flush the schedule database's dirty pages, if one is attached. Returns
/// `false` when the flush failed.
fn flush_db(state: &ServiceState) -> bool {
    match state.db().map(|db| db.flush()) {
        None | Some(Ok(0)) => true,
        Some(Ok(pages)) => {
            eprintln!("moptd: schedule database flushed ({pages} pages)");
            true
        }
        Some(Err(e)) => {
            eprintln!("moptd: schedule database flush failed: {e}");
            false
        }
    }
}

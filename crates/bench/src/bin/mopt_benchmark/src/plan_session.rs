//! `plan_session`: a fixed script of cold planning requests into a fresh
//! `moptd` with an empty database — the solver tier does nearly all the work,
//! through both copies of the tier stack (`resolve_spec` and
//! `NetworkPlanner`), and the database is used for writes. The flushed
//! database this session leaves behind is the fixture the `serve_*` workloads
//! copy.

use std::collections::BTreeMap;
use std::path::Path;

use mopt_core::{OptimizeResult, SearchTrace};
use mopt_service::{NetworkPlan, Response, Tier};

use crate::checks::{check_optimized, check_schedule, shape_of, verb_of};
use crate::daemon::{copy_dir, set_up_repeatedly, Client, Moptd, TempDir};
use crate::names::PLAN_SESSION;
use crate::requests::{
    self, optimize_line, plan_network_line, plan_script, Step, PLAN_NETWORK_WARM_DISCARDED,
    PLAN_NETWORK_WARM_REPEATS,
};
use crate::serve::collect_spans;
use crate::stats::{fastest, geometric_mean, median, percentile, quietest, sorted};
use crate::{probe, Context, Outcome};

/// Set-ups per run (spawn on an empty directory to first `Pong`); `setup_s`
/// is the fastest of them.
const SETUPS: usize = 7;
/// The warm repeats are looked at in chunks of this many, and the quietest
/// quarter of the chunks is believed (see [`quietest`]).
const WARM_CHUNK: usize = 50;
const QUIET_SHARE: f64 = 0.25;

/// What the script's replies said.
#[derive(Default)]
struct Session {
    /// Latency of each of the 13 scripted requests, seconds.
    latencies: Vec<f64>,
    /// `(step, client latency, result.optimize_seconds)` of the cold `Optimize`s.
    cold: Vec<(Step, f64, f64)>,
    /// The cold `Optimize` results by op, to hold `Explain` to.
    solved: BTreeMap<&'static str, OptimizeResult>,
    explains: Vec<(f64, &'static str, SearchTrace)>,
    network_cold: Option<(f64, NetworkPlan)>,
    graph_cold_s: f64,
    /// Latencies of the timed warm `PlanNetwork` repeats, microseconds.
    network_warm_us: Vec<f64>,
    network_warm_bytes: usize,
    /// Best predicted cost of every distinct schedule served.
    costs: Vec<f64>,
}

fn start(ctx: &Context) -> Result<(Moptd, TempDir, f64), String> {
    let dir = TempDir::new(&ctx.out_dir, PLAN_SESSION).map_err(|e| e.to_string())?;
    let begun = std::time::Instant::now();
    let server = Moptd::start(&ctx.moptd, &dir.path().join("db"), 4096, dir.path())?;
    Ok((server, dir, begun.elapsed().as_secs_f64()))
}

fn parse(reply: &str) -> Result<Response, String> {
    serde_json::from_str(reply).map_err(|e| format!("unparsable reply: {e}"))
}

fn check_network(plan: &NetworkPlan, cold: bool) -> Result<(), String> {
    let s = &plan.stats;
    let (hits, solves) = if cold { (0, 9) } else { (9, 0) };
    if (s.layers, s.unique_shapes, s.cache_hits, s.solves, s.db_hits) != (9, 9, hits, solves, 0) {
        return Err(format!("PlanNetwork (cold: {cold}) stats {s:?}"));
    }
    for layer in &plan.layers {
        let result = OptimizeResult { ranked: vec![layer.best.clone()], optimize_seconds: 0.0 };
        check_schedule(&layer.shape, &result, 1, true)
            .map_err(|e| format!("{}: {e}", layer.name))?;
        if layer.shape != shape_of(&layer.name) {
            return Err(format!("{}: planned for another shape", layer.name));
        }
    }
    Ok(())
}

/// The same `PlanNetwork` again and again, now warm: nine cache hits and one
/// multi-layer reply each, every reply held to the cold plan. The one
/// wire-bound request of this workload; measured with both processes on one
/// CPU (see `affinity`), which the cold requests before it were not.
fn warm_repeats(
    ctx: &Context,
    server: &Moptd,
    client: &mut Client,
    cold: &NetworkPlan,
    session: &mut Session,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let line = plan_network_line();
    ctx.pin(server);
    for repeat in 0..PLAN_NETWORK_WARM_DISCARDED + PLAN_NETWORK_WARM_REPEATS {
        let (latency, reply) = client.call(&line).map_err(|e| e.to_string())?;
        if repeat >= PLAN_NETWORK_WARM_DISCARDED {
            session.network_warm_us.push(latency.as_nanos() as f64 / 1e3);
        }
        session.network_warm_bytes = reply.len();
        outcome.tally.record(match parse(reply)? {
            Response::Planned { plan, .. } => check_network(&plan, false).and_then(|()| {
                let same = plan.layers.iter().zip(&cold.layers).all(|(w, c)| w.best == c.best);
                same.then_some(()).ok_or("warm PlanNetwork differs from the cold one".into())
            }),
            other => Err(format!("PlanNetwork answered {}", verb_of(&other))),
        });
    }
    ctx.release(Some(server));
    Ok(())
}

/// Send the 13 scripted requests, checking every reply.
fn run_script(client: &mut Client, outcome: &mut Outcome) -> Result<Session, String> {
    let mut session = Session::default();
    for (step, name, line) in plan_script() {
        let (latency, reply) = client.call(&line).map_err(|e| format!("{name}: {e}"))?;
        let latency = latency.as_secs_f64();
        session.latencies.push(latency);
        let checked = match step {
            Step::OptimizeT1 | Step::OptimizeT4 | Step::OptimizeT4Search => {
                let threads = if step == Step::OptimizeT1 { 1 } else { 4 };
                let fixed_layout = step != Step::OptimizeT4Search;
                check_optimized(reply, name, threads, Tier::Solver, fixed_layout).map(|result| {
                    session.cold.push((step, latency, result.optimize_seconds));
                    session.costs.push(result.ranked[0].predicted_cost);
                    session.solved.insert(name, result);
                })
            }
            Step::Explain => match parse(reply)? {
                Response::Explained { tier, result, search, shape, breakdown, .. } => {
                    let price = result.ranked[0].predicted_cost;
                    let served = session.solved.get(name).map(|solved| &solved.ranked);
                    if tier != Some(Tier::Cache) {
                        Err(format!("Explain {name}: tier {tier:?}, expected Cache"))
                    } else if served != Some(&result.ranked) || shape != shape_of(name) {
                        Err(format!("Explain {name}: not the schedule Optimize served"))
                    } else if breakdown.total_cost.to_bits() != price.to_bits() {
                        Err(format!("Explain {name}: breakdown does not sum to the served price"))
                    } else {
                        session.explains.push((latency, name, search));
                        Ok(())
                    }
                }
                other => Err(format!("Explain {name} answered {}", verb_of(&other))),
            },
            Step::PlanNetworkCold => match parse(reply)? {
                Response::Planned { plan, .. } => check_network(&plan, true).map(|()| {
                    session.costs.extend(plan.layers.iter().map(|l| l.best.predicted_cost));
                    session.network_cold = Some((latency, plan));
                }),
                other => Err(format!("PlanNetwork answered {}", verb_of(&other))),
            },
            Step::PlanGraphCold => match parse(reply)? {
                Response::GraphPlanned { cached, plan, .. } => {
                    session.graph_cold_s = latency;
                    let sane = !cached
                        && !plan.segments.is_empty()
                        && plan.fused_volume > 0.0
                        && plan.fused_volume <= plan.unfused_volume;
                    sane.then_some(()).ok_or(format!(
                        "PlanGraph: cached {cached}, {} segments, volume {} vs {}",
                        plan.segments.len(),
                        plan.fused_volume,
                        plan.unfused_volume
                    ))
                }
                other => Err(format!("PlanGraph answered {}", verb_of(&other))),
            },
        };
        outcome.tally.record(checked);
    }
    Ok(session)
}

/// `traced` is false when the session only builds the fixture.
pub fn run(ctx: &Context, traced: bool, fixture: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(PLAN_SESSION);

    let once = || start(ctx).map(|(server, dir, took)| ((server, dir), took));
    let ((server, dir), setups) =
        set_up_repeatedly(SETUPS, &mut outcome.tally, once, |(server, _dir)| server)?;
    let mut client = server.connect()?;

    let mut session = run_script(&mut client, &mut outcome)?;
    // Counted as a failed operation already; nothing after it can be checked.
    let (network_cold_s, cold_plan) =
        session.network_cold.take().ok_or("the cold PlanNetwork failed")?;
    warm_repeats(ctx, &server, &mut client, &cold_plan, &mut session, &mut outcome)?;

    let saved = matches!(client.ask("\"Save\"\n")?, Response::Saved { .. });
    outcome.tally.record(saved.then_some(()).ok_or("Save did not answer Saved".into()));
    let stats = client.stats()?;
    let flight = stats.flight.as_ref().ok_or("Stats carries no flight section")?;
    let db = stats.db.as_ref().ok_or("Stats carries no db section")?;
    // Eight cold Optimize led a flight each; PlanNetwork solves outside
    // single-flight; PlanGraph's pointwise solves are batch-planned and then
    // read back from the cache.
    outcome.tally.expect(flight.optimize.coalesced == 0 && flight.optimize.led == 8, || {
        format!("flight led {} coalesced {}", flight.optimize.led, flight.optimize.coalesced)
    });
    outcome.tally.expect(db.errors == 0 && db.hits == 0 && db.inserts >= 17, || {
        format!("db inserts {} hits {} errors {}", db.inserts, db.hits, db.errors)
    });
    let errors = stats.errors.as_ref().map_or(0, |e| e.total);
    outcome.tally.expect(errors == 0, || format!("server counted {errors} Error replies"));
    let peak_rss_mib = server.peak_rss_mib();

    // The flushed database is the serve_* fixture. Published by rename, so an
    // interrupted run never leaves half a fixture behind.
    if outcome.tally.failed == 0 && !fixture.exists() {
        let staging = dir.path().join("fixture");
        copy_dir(&dir.path().join("db"), &staging)
            .map_err(|e| format!("staging the fixture: {e}"))?;
        std::fs::rename(&staging, fixture).map_err(|e| format!("publishing the fixture: {e}"))?;
    }

    let cold_s: f64 = session.cold.iter().map(|c| c.1).sum();
    let solver_s: f64 = session.cold.iter().map(|c| c.2).sum();
    let solver_share = solver_s / cold_s;
    outcome.tally.expect(solver_share >= 0.90, || {
        format!("the solver accounts for only {solver_share:.3} of the cold Optimize time")
    });

    // Operations are the 13 scripted requests: each happens once per session,
    // so they are taken as they come (22 s of solves average the machine's
    // moods better than any single request does).
    let ops = sorted(session.latencies.clone());
    let n = ops.len() as u64;
    let e = &mut outcome.end_to_end;
    e.set("setup_s", fastest(&setups), SETUPS as u64);
    e.set("throughput_ops_s", ops.len() as f64 / ops.iter().sum::<f64>(), n);
    e.set("latency_p50_us", percentile(&ops, 0.50) * 1e6, n);
    e.set("peak_rss_mb", peak_rss_mib, 1);

    if traced {
        let p = &mut outcome.per_layer;
        p.set("plan.optimize_cold_s", cold_s, 8);
        let explain_ms: Vec<f64> = session.explains.iter().map(|e| e.0 * 1e3).collect();
        p.set("plan.explain_p50_ms", median(&explain_ms), 3);
        p.set("plan.network_cold_s", network_cold_s, 1);
        let chunks: Vec<&[f64]> = session.network_warm_us.chunks(WARM_CHUNK).collect();
        let chunk_p50: Vec<f64> =
            chunks.iter().map(|c| percentile(&sorted(c.to_vec()), 0.50)).collect();
        let quiet = quietest(&chunk_p50, QUIET_SHARE);
        let warm = sorted(quiet.iter().flat_map(|&c| chunks[c].iter().copied()).collect());
        p.set("plan.network_warm_p50_us", percentile(&warm, 0.50), warm.len() as u64);
        p.set("plan.graph_cold_s", session.graph_cold_s, 1);
        p.set("plan.cold_total_s", session.latencies.iter().sum(), 13);
        p.set("plan.solver_share", solver_share, 8);
        p.set(
            "quality.schedule_cost_geomean",
            geometric_mean(&session.costs),
            session.costs.len() as u64,
        );

        let of = |step: Step| -> Vec<f64> {
            session.cold.iter().filter(|c| c.0 == step).map(|c| c.2 * 1e3).collect()
        };
        p.set("core.optimize_t1_ms", median(&of(Step::OptimizeT1)), 6);
        p.set("core.optimize_t4_ms", median(&of(Step::OptimizeT4)), 1);
        p.set("core.optimize_t4_search_ms", median(&of(Step::OptimizeT4Search)), 1);
        let sum =
            |f: fn(&SearchTrace) -> u64| session.explains.iter().map(|e| f(&e.2)).sum::<u64>();
        let enumerated = sum(|t| t.enumerated);
        p.set("core.enumerated", enumerated as f64, 3);
        p.set("core.capacity_pruned", sum(|t| t.capacity_pruned) as f64, 3);
        p.set("core.candidates", sum(|t| t.candidates.len() as u64) as f64, 3);
        let explained_s: f64 =
            session.explains.iter().map(|e| session.solved[e.1].optimize_seconds).sum();
        p.set("core.us_per_eval", explained_s * 1e6 / enumerated.max(1) as f64, enumerated);

        let s = &cold_plan.stats;
        p.set("batch.solve_seconds_sum", s.solve_seconds, s.solves as u64);
        p.set(
            "batch.parallel_efficiency",
            s.solve_seconds / (s.workers as f64 * s.wall_seconds),
            1,
        );
        p.set("flight.led", flight.optimize.led as f64, 1);
        p.set("flight.coalesced", flight.optimize.coalesced as f64, 1);
        p.set("db.hits", db.hits as f64, 1);
        p.set("db.misses", db.misses as f64, 1);
        p.set("db.pages_loaded", db.store.pages_loaded as f64, 1);
        p.set(
            "cache.hit_rate",
            stats.cache.hits as f64 / (stats.cache.hits + stats.cache.misses) as f64,
            1,
        );
        p.set("cache.evictions", stats.cache.evictions as f64, 1);
        p.set("wire.response_bytes", session.network_warm_bytes as f64, 1);
        p.set("client.latency_p95_us", percentile(&ops, 0.95) * 1e6, n);
        p.set("client.requests", (ops.len() + session.network_warm_us.len()) as f64, 1);
        p.set(
            "client.all_windows_p50_us",
            median(&chunk_p50),
            session.network_warm_us.len() as u64,
        );
        p.set("client.window_spread", crate::stats::spread(&chunk_p50), chunk_p50.len() as u64);

        // One more cold solve, of an op the script does not use, with
        // `"trace": true`: the server's own account of where a cold request's
        // time goes. After the fixture was published, so the fixture never
        // depends on whether a run was traced.
        let line = requests::traced(&optimize_line("R9", 1));
        let (_, reply) = client.call(&line).map_err(|e| e.to_string())?;
        let reply = reply.to_string();
        let checked = check_optimized(&reply, "R9", 1, Tier::Solver, true).map(|_| ());
        outcome.tally.record(checked);
        let mut spans = BTreeMap::new();
        if let Ok(Response::Optimized { trace: Some(root), .. }) = parse(&reply) {
            collect_spans(&root, &mut spans);
            spans.insert("root".into(), vec![root.duration_micros as f64]);
        } else {
            outcome.tally.fail("the traced cold Optimize came back without its span tree".into());
        }
        let us = |name: &str| spans.get(name).map_or(0.0, |v| v[0]);
        let p = &mut outcome.per_layer;
        p.set("server.solve_ms", us("solve") / 1e3, 1);
        p.set("server.parse_us", us("parse"), 1);
        p.set("server.cache_probe_us", us("cache_probe"), 1);
        p.set("server.cache_insert_us", us("cache_insert"), 1);
        p.set("server.db_record_us", us("db_record"), 1);
        p.set("server.serialize_us", us("serialize"), 1);
        let root = us("root").max(1.0);
        p.set(
            "server.span_coverage",
            (us("cache_probe") + us("flight") + us("serialize")) / root,
            1,
        );
        outcome.shares = vec![
            ("share.solver", us("solve") / root),
            ("share.db", us("db_record") / root),
            ("share.cache", (us("cache_probe") + us("cache_insert")) / root),
            ("share.wire", us("serialize") / root),
        ];
        probe::plan_micro(ctx, &plan_network_line(), &cold_plan, &session.solved, &mut outcome)?;
    }

    server.stop(&mut outcome.tally);
    Ok(outcome)
}

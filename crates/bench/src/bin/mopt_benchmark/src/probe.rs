//! The probe's first source: an in-process *decomposed replay*. A seeded
//! sample of a workload's own request lines is walked through the public
//! functions of each layer, in the order the server walks them, with a span
//! around each call; and small loops time the calls a request makes too
//! rarely (or too deep inside another call) to be seen that way.
//!
//! README.md lists every function called here: a refactor that renames or
//! removes one breaks the probe, not the end-to-end numbers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use conv_spec::{benchmarks, canonicalize_spec, ConvShape, Spec};
use mopt_core::{OptimizeResult, OptimizedConfig, OptimizerOptions};
use mopt_model::multilevel::MultiLevelTiles;
use mopt_model::{CostOptions, MultiLevelModel, ParallelSpec};
use mopt_service::{
    CacheKey, DbTier, MachineSpec, NetworkPlan, Request, Response, ScheduleCache, ServiceState,
    Tier,
};

use crate::checks::{machine, shape_of, Tally};
use crate::daemon::TempDir;
use crate::names::Metrics;
use crate::requests::{shuffled_rounds, uniform_order, Key, FIXTURE_OPS};
use crate::serve::{Mode, Served};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{Context, Outcome};

/// Request id of spans that belong to no replayed request.
const MICRO: u64 = u64::MAX;

/// What the server's private `effective_options` does for these requests:
/// defaults, with the top-level `threads` on top.
fn effective_options(
    options: &Option<OptimizerOptions>,
    threads: Option<usize>,
) -> OptimizerOptions {
    let mut options = options.clone().unwrap_or_default();
    if let Some(threads) = threads {
        options.threads = threads.max(1);
    }
    options
}

pub struct Replay {
    recorder: Recorder,
    /// Median reply length of the sampled keys (digits of `optimize_seconds`
    /// excluded, so it repeats exactly).
    response_bytes: f64,
    requests: usize,
    db_open_ms: f64,
    canonicalize_us: f64,
    /// `|handle_line − (parse + handle + serialize)| ÷ handle_line`, from the
    /// median turn of the three passes (signed, so that the noise of a turn's
    /// 68 or 204 samples cancels instead of adding up).
    decomposition_gap: f64,
    model: ModelTimes,
    tally: Tally,
}

/// Walk one `Optimize` line the way `ServiceState::serve_line` does, through
/// public functions only. Returns the reply text and the tier that answered.
fn walk(
    rec: &mut Recorder,
    id: u64,
    state: &ServiceState,
    line: &str,
) -> Result<(String, Tier), String> {
    rec.span("request", id, |rec| {
        let request = rec
            .span("wire.parse", id, |_| serde_json::from_str::<Request>(line))
            .map_err(|e| e.to_string())?;
        let Request::Optimize { op: Some(op), machine, options, threads, .. } = &request else {
            return Err(format!("not an Optimize-by-name line: {line}"));
        };
        let (spec, machine, options, key) = rec.span("service.key", id, |_| {
            let machine = machine.resolve()?;
            let bench = benchmarks::by_name(op).ok_or(format!("unknown op {op}"))?;
            let spec = Spec::Conv(bench.shape);
            let options = effective_options(options, *threads);
            let key = CacheKey::new(spec, &machine, &options);
            Ok::<_, String>((spec, machine, options, key))
        })?;
        let hit = rec.span("cache.get", id, |_| state.cache.get(&key));
        let (tier, result) = match hit {
            Some(result) => (Tier::Cache, result),
            None => {
                let db = state.db().ok_or("the replay state has no database")?;
                let result = rec
                    .span("dbtier.lookup", id, |_| db.lookup(&spec, &machine, &options))
                    .ok_or(format!("{op}: not in the fixture"))?;
                rec.span("cache.insert", id, |_| state.cache.insert(key, result.clone()));
                (Tier::Db, result)
            }
        };
        let response = Response::Optimized {
            op: Some(op.clone()),
            spec: Some(spec),
            shape: spec.embedded_conv_shape(),
            cached: tier == Tier::Cache,
            tier: Some(tier),
            deprecated: None,
            result,
            trace: None,
        };
        let text = rec
            .span("wire.serialize", id, |_| serde_json::to_string(&response))
            .map_err(|e| e.to_string())?;
        Ok((text, tier))
    })
}

/// Replay a seeded sample of a `serve_*` workload's request order in process,
/// against a state built like the server's (`ServiceState::new(capacity)`
/// over a copy of the fixture).
pub fn replay_serve(
    ctx: &Context,
    mode: Mode,
    keys: &[Key],
    served: &[Served],
    db_dir: &Path,
) -> Result<Replay, String> {
    let mut rec = Recorder::new();
    let mut tally = Tally::default();

    let mut open_ms = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let tier = rec.span("micro.dbtier.open", MICRO, |_| DbTier::open(db_dir));
        open_ms.push(start.elapsed().as_secs_f64() * 1e3);
        drop(tier.map_err(|e| format!("opening the fixture copy: {e}"))?);
    }
    let state = ServiceState::new(mode.capacity())
        .with_db(db_dir.to_path_buf())
        .map_err(|e| format!("attaching the fixture copy: {e}"))?;

    let order: Vec<usize> = match mode {
        Mode::Warm => {
            let mut next = uniform_order(ctx.seed, 0, keys.len());
            (0..30 * keys.len()).map(|_| next()).collect()
        }
        Mode::Db => shuffled_rounds(ctx.seed, keys.len(), 8).into_iter().map(usize::from).collect(),
    };
    // First touch of every key, as the workload's set-up does.
    for key in keys {
        state.handle_line(key.line.trim_end());
    }

    // Three passes — the decomposed walk, `handle_line`, `handle` — taken in
    // turns, one key-list length at a time, so that all three see the same
    // machine (its speed drifts within a second) and, on `serve_db`, each
    // pass finds the cache as the previous one left it: full of other keys.
    let mut id = 0;
    let mut gaps = Vec::new();
    for chunk in order.chunks(keys.len()) {
        let chunk_start = rec.spans().len();
        for &k in chunk {
            let walked = walk(&mut rec, id, &state, keys[k].line.trim_end());
            id += 1;
            // The walk must produce the very reply the server produced.
            tally.record(walked.and_then(|(text, tier)| {
                let same = served[k].tier_of(&text) == Some(tier);
                same.then_some(())
                    .ok_or(format!("the replayed reply for {} differs from moptd's", keys[k].op))
            }));
        }
        for &k in chunk {
            let line = keys[k].line.trim_end();
            black_box(rec.span("service.handle_line", MICRO, |_| state.handle_line(line)));
        }
        for &k in chunk {
            let request: Request =
                serde_json::from_str(keys[k].line.trim_end()).map_err(|e| e.to_string())?;
            black_box(rec.span("service.handle", MICRO, |_| state.handle(&request)));
        }
        // One call of handle_line is a parse, a handle and a serialize: do
        // the pieces sum, in this turn?
        let med = |name: &str| {
            let spans = rec.spans()[chunk_start..].iter().filter(|s| s.name == name);
            median(&spans.map(|s| s.duration_ns() as f64).collect::<Vec<_>>())
        };
        let whole = med("service.handle_line");
        let pieces = med("wire.parse") + med("service.handle") + med("wire.serialize");
        gaps.push((whole - pieces) / whole);
    }

    // The database tier's parts, on every fixture op at four threads.
    let db = state.db().expect("attached above");
    let m = machine();
    let options = OptimizerOptions { threads: 4, ..Default::default() };
    let mut model = None;
    let mut canonicalize_us = 0.0;
    for _ in 0..5 {
        for op in FIXTURE_OPS {
            let spec = Spec::Conv(shape_of(op));
            canonicalize_us += per_call_us(&mut rec, "micro.db.canonicalize_x100", 100, || {
                canonicalize_spec(black_box(&spec))
            });
            let (canonical, transform) = canonicalize_spec(&spec);
            let entries = db
                .db()
                .lookup(canonical.fingerprint(), m.fingerprint())
                .map_err(|e| e.to_string())?
                .ok_or(format!("{op}: not in the fixture"))?;
            let reranked = rec.span("micro.db.rerank", MICRO, |_| {
                mopt_db::rerank_spec(&spec, &transform, &entries, &m, &options)
            });
            let looked_up =
                rec.span("micro.dbtier.lookup", MICRO, |_| db.lookup(&spec, &m, &options));
            tally.record(match (&reranked, &looked_up) {
                (Some(a), Some(b)) if a.ranked == b.ranked => Ok(()),
                _ => Err(format!("{op}: rerank_spec and DbTier::lookup disagree")),
            });
            if op == "R2" && model.is_none() {
                model = reranked.map(|r| model_times(&mut rec, &shape_of(op), &r.ranked[0], 4));
            }
        }
    }
    let canonicalize_us = canonicalize_us / (5 * FIXTURE_OPS.len()) as f64;
    cache_micro(&mut rec, &state, keys)?;

    let mut bytes: Vec<f64> = order.iter().map(|&k| served[k].reply_bytes as f64).collect();
    bytes.sort_by(f64::total_cmp);
    Ok(Replay {
        recorder: rec,
        response_bytes: bytes[bytes.len() / 2],
        requests: order.len(),
        db_open_ms: median(&open_ms),
        canonicalize_us,
        decomposition_gap: median(&gaps).abs(),
        model: model.ok_or("R2 could not be re-ranked")?,
        tally,
    })
}

/// `ScheduleCache::get` on a resident key, and `insert` into a full
/// 4096-entry cache — every insert scans its shard for the entry to evict.
fn cache_micro(rec: &mut Recorder, state: &ServiceState, keys: &[Key]) -> Result<(), String> {
    let request: Request =
        serde_json::from_str(keys[0].line.trim_end()).map_err(|e| e.to_string())?;
    let Response::Optimized { result, spec: Some(spec), .. } = state.handle(&request) else {
        return Err("the replay state did not answer its first key".into());
    };
    let m = machine();
    // Distinct keys: the thread count is part of the key.
    let key = |i: usize| {
        CacheKey::new(spec, &m, &OptimizerOptions { threads: i + 1, ..Default::default() })
    };
    let cache = ScheduleCache::new(4096);
    let filled = 3 * 4096;
    for i in 0..filled {
        cache.insert(key(i), result.clone());
    }
    for i in filled..filled + 2000 {
        let (key, value) = (key(i), result.clone());
        rec.span("micro.cache.insert_evict", MICRO, |_| cache.insert(key, value));
    }
    let evicted = cache.stats().evictions as usize;
    if evicted != filled + 2000 - cache.capacity() {
        return Err(format!("the cache probe evicted {evicted} entries: not every shard was full"));
    }
    for i in filled + 1000..filled + 2000 {
        let key = key(i);
        let hit = rec.span("micro.cache.get_hit", MICRO, |_| cache.get(&key));
        if hit.is_none() {
            return Err("the cache probe missed a resident key".into());
        }
    }
    Ok(())
}

/// Mean microseconds per call of `f`, timed as one span around `calls` calls:
/// for calls too short for a clock read each.
fn per_call_us<T>(rec: &mut Recorder, name: &str, calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    rec.span(name, MICRO, |_| {
        for _ in 0..calls {
            black_box(f());
        }
    });
    start.elapsed().as_nanos() as f64 / 1e3 / calls as f64
}

pub struct ModelTimes {
    build_us: f64,
    predict_config_us: f64,
    scaled_cost_ns: f64,
}

const MODEL_CALLS: usize = 100_000;

/// `mopt_model`: building a model the way the solver and the re-ranker do,
/// pricing one configuration (`predict_config`), and the search's inner loop
/// (`scaled_cost`, 100 000 calls).
fn model_times(
    rec: &mut Recorder,
    shape: &ConvShape,
    best: &OptimizedConfig,
    threads: usize,
) -> ModelTimes {
    let m = machine();
    let parallel = ParallelSpec { threads, factors: best.config.parallel.as_array() };
    let build = || {
        MultiLevelModel::new(*shape, black_box(&m).clone(), best.config.permutation.clone())
            .with_options(CostOptions { line_elems: 1 })
            .with_parallel(parallel)
    };
    let build_us = per_call_us(rec, "micro.model.build_x10000", 10_000, build);
    let model = build();
    let predict_config_us = per_call_us(rec, "micro.model.predict_config_x10000", 10_000, || {
        black_box(&model).predict_config(black_box(&best.config))
    });
    let tiles = MultiLevelTiles::from_config(&best.config);
    let mut level = 0;
    let scaled_cost_us = per_call_us(rec, "micro.model.scaled_cost_x100000", MODEL_CALLS, || {
        level = (level + 1) % 4;
        black_box(&model).scaled_cost(black_box(&tiles), conv_spec::TilingLevel::ALL[level])
    });
    ModelTimes { build_us, predict_config_us, scaled_cost_ns: scaled_cost_us * 1e3 }
}

impl ModelTimes {
    fn report_into(&self, p: &mut Metrics) {
        p.set("model.build_us", self.build_us, 10_000);
        p.set("model.predict_config_us", self.predict_config_us, 10_000);
        p.set("model.scaled_cost_ns", self.scaled_cost_ns, MODEL_CALLS as u64);
    }
}

impl Replay {
    /// Turn the spans into per-layer metrics, check that the pieces sum, and
    /// attribute the client-side median latency to layers.
    pub fn report_into(self, outcome: &mut Outcome, client_p50_us: f64) {
        let by_name = self.recorder.durations_us();
        let lookup = if by_name.contains_key("dbtier.lookup") {
            "dbtier.lookup"
        } else {
            "micro.dbtier.lookup"
        };
        let p = &mut outcome.per_layer;
        for (metric, span) in [
            ("wire.parse_us", "wire.parse"),
            ("wire.serialize_us", "wire.serialize"),
            ("service.key_us", "service.key"),
            ("service.handle_us", "service.handle"),
            ("service.handle_line_us", "service.handle_line"),
            ("cache.get_hit_us", "micro.cache.get_hit"),
            ("cache.insert_evict_us", "micro.cache.insert_evict"),
            ("dbtier.lookup_us", lookup),
            ("db.rerank_us", "micro.db.rerank"),
        ] {
            p.set(metric, median(&by_name[span]), by_name[span].len() as u64);
        }
        p.set("db.canonicalize_us", self.canonicalize_us, (500 * FIXTURE_OPS.len()) as u64);
        p.set("db.open_ms", self.db_open_ms, 5);
        self.model.report_into(p);
        p.set("wire.response_bytes", self.response_bytes, self.requests as u64);
        let handle_line = p.get("service.handle_line_us").expect("set above");
        p.set("eventloop.overhead_us", client_p50_us - handle_line, self.requests as u64);
        let gap = self.decomposition_gap;
        p.set("service.decomposition_gap_share", gap, self.requests as u64);
        outcome.tally.expect(gap <= 0.15, || {
            format!("handle_line is not parse + handle + serialize: they differ by {gap:.3} of it")
        });

        // Per-operation self time by layer, from the walked requests; what
        // the client waits beyond that is the event loop, the socket, the
        // scheduler and (with two workers) contention.
        let own = self.recorder.self_time_us();
        let per_op = |prefixes: &[&str]| -> f64 {
            own.iter()
                .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
                .fold(0.0, |sum, (_, us)| sum + us)
                / self.requests as f64
        };
        let wire = per_op(&["wire."]);
        let service = per_op(&["service.key", "request"]);
        let cache = per_op(&["cache."]);
        let db = per_op(&["dbtier."]);
        let eventloop = (client_p50_us - (wire + service + cache + db)).max(0.0);
        outcome.shares = [
            ("share.eventloop", eventloop),
            ("share.wire", wire),
            ("share.service", service),
            ("share.cache", cache),
            ("share.db", db),
        ]
        .map(|(name, us)| (name, us / client_p50_us))
        .to_vec();
        outcome.tally.absorb(self.tally);
        outcome.spans = self.recorder.spans().to_vec();
    }
}

/// `plan_session`'s share of the micro probes: the wire cost of its one
/// wire-bound request, the model's inner loop, and the database write path
/// (`record`, `flush`, then `open` of what was flushed).
pub fn plan_micro(
    ctx: &Context,
    network_line: &str,
    plan: &NetworkPlan,
    solved: &BTreeMap<&'static str, OptimizeResult>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut rec = Recorder::new();
    let reply = Response::Planned { plan: plan.clone(), trace: None };
    for _ in 0..200 {
        black_box(rec.span("wire.parse", MICRO, |_| {
            serde_json::from_str::<Request>(network_line.trim_end())
        }))
        .map_err(|e| e.to_string())?;
        black_box(rec.span("wire.serialize", MICRO, |_| serde_json::to_string(&reply)))
            .map_err(|e| e.to_string())?;
    }
    let model = model_times(&mut rec, &shape_of("R2"), &solved["R2"].ranked[0], 1);

    let dir = TempDir::new(&ctx.out_dir, "record").map_err(|e| e.to_string())?;
    let m = machine();
    let tier = DbTier::open(dir.path()).map_err(|e| e.to_string())?;
    for (op, result) in solved {
        let spec = Spec::Conv(shape_of(op));
        let threads = result.ranked[0].config.total_parallelism();
        rec.span("dbtier.record", MICRO, |_| tier.record(&spec, &m, threads, result));
    }
    let pages = rec.span("db.flush", MICRO, |_| tier.flush()).map_err(|e| e.to_string())?;
    let written = tier.stats();
    outcome
        .tally
        .expect(pages > 0 && written.errors == 0 && written.inserts == solved.len() as u64, || {
            format!("the record probe wrote {pages} pages: {written:?}")
        });
    drop(tier);
    for _ in 0..5 {
        drop(
            rec.span("dbtier.open", MICRO, |_| DbTier::open(dir.path()))
                .map_err(|e| e.to_string())?,
        );
    }
    // Solving for one machine spec is a key computation too.
    for _ in 0..200 {
        black_box(rec.span("service.key", MICRO, |_| {
            let m = MachineSpec::Preset("i7-9700k".into()).resolve().expect("a preset");
            CacheKey::new(Spec::Conv(shape_of("R2")), &m, &OptimizerOptions::default())
        }));
    }

    let by_name = rec.durations_us();
    let med = |name: &str| (median(&by_name[name]), by_name[name].len() as u64);
    let p = &mut outcome.per_layer;
    for (metric, span, scale) in [
        ("wire.parse_us", "wire.parse", 1.0),
        ("wire.serialize_us", "wire.serialize", 1.0),
        ("service.key_us", "service.key", 1.0),
        ("dbtier.record_us", "dbtier.record", 1.0),
        ("db.flush_ms", "db.flush", 1e-3),
        ("db.open_ms", "dbtier.open", 1e-3),
    ] {
        let (value, n) = med(span);
        p.set(metric, value * scale, n);
    }
    model.report_into(p);
    outcome.spans = rec.spans().to_vec();
    Ok(())
}

//! The JSON-lines request/response protocol and its dispatch loop.
//!
//! One request per line, one response per line — a dependency-light wire
//! protocol that works identically over TCP and stdin/stdout (the `moptd`
//! binary drives both). Requests are externally tagged enums, e.g.:
//!
//! ```text
//! {"Optimize": {"op": "Y0", "machine": {"Preset": "i7-9700k"}}}
//! {"Optimize": {"spec": {"Matmul": {"m": 1000, "n": 1, "k": 2048}}, "machine": {"Preset": "i7-9700k"}}}
//! {"PlanNetwork": {"suite": "resnet18", "machine": {"Preset": "tiny"}}}
//! {"PlanGraph": {"block": "mbv2-block5", "machine": {"Preset": "i7-9700k"}}}
//! {"Explain": {"op": "Y0", "machine": {"Preset": "i7-9700k"}}}
//! "Suites"
//! "Stats"
//! ```
//!
//! Since the spec-IR generalization, `Optimize` and `Explain` take a tagged
//! `"spec"` payload (conv, matmul, pooling, or elementwise) as the primary
//! problem form; the legacy flat `"shape"` field and Table-1 `"op"` names
//! keep parsing and resolve to the *same* cache and database fingerprints,
//! so pre-spec clients see bit-identical answers.
//!
//! Malformed input never kills the connection: it produces an
//! `{"Error": ...}` response and the loop continues.
//!
//! Any `Optimize`/`PlanNetwork`/`PlanGraph` request may set `"trace": true`
//! to receive the request's span tree inline in the response; `Explain`
//! re-answers a shape and adds the optimizer's search trace plus the
//! winner's per-memory-level cost breakdown; `Trace` returns the slow-request
//! log (armed with `moptd --slow-ms`).

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conv_spec::{benchmarks, ConvShape, MachineModel, Spec};
use mopt_core::{
    pricing, LayoutPolicy, MOptOptimizer, OptimizeResult, OptimizerOptions, SearchTrace,
};
use mopt_graph::{builders, Graph, GraphPlan, GraphPlanner};
use mopt_model::{CostBreakdown, ParallelSpec};
use mopt_trace::{SpanNode, TraceContext, TraceRing};
use serde::{Deserialize, Serialize};

use crate::batch::{NamedLayer, NetworkPlan, NetworkPlanner};
use crate::cache::{CacheKey, CacheStats, ScheduleCache};
use crate::dbtier::{DbTier, DbTierStats};
pub use crate::framing::MAX_REQUEST_BYTES;
use crate::framing::{is_disconnect, oversized_reply, Frame, LineFramer};
use crate::graphs::{GraphCacheKey, GraphPlanCache, GraphServiceStats};
use crate::metrics::{ErrorCounts, MetricsReport, ServiceMetrics, Verb};
use crate::singleflight::{FlightBreakdown, Role, SingleFlight};
use crate::tiers::resolve_cold;

/// How a request names the target machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MachineSpec {
    /// A named preset: `"i7-9700k"`, `"i9-10980xe"`, or `"tiny"`.
    Preset(String),
    /// A full inline machine description.
    Custom(MachineModel),
}

impl MachineSpec {
    /// Resolve to a machine model. An inline description comes from outside
    /// the program, so it is validated here, before it can price a schedule.
    pub fn resolve(&self) -> Result<MachineModel, String> {
        match self {
            MachineSpec::Custom(m) => m.validate().map(|()| m.clone()).map_err(|e| e.to_string()),
            MachineSpec::Preset(name) => MachineModel::preset(name).ok_or_else(|| {
                format!(
                    "unknown machine preset `{name}` (try \"i7-9700k\", \"i9-10980xe\", \"tiny\")"
                )
            }),
        }
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec::Preset("i7-9700k".to_string())
    }
}

/// A request line.
///
/// `Deserialize` is written by hand (rather than derived) so that the
/// verbs with all-optional bodies — `Metrics` and `Trace` — parse both as
/// bare strings (`"Metrics"`) and as tagged objects
/// (`{"Metrics": {"format": "prometheus"}}`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Request {
    /// Optimize one operator: a tagged problem spec, a Table-1 name
    /// (`"Y0"`), or a legacy flat conv shape. `options` defaults to
    /// [`OptimizerOptions::default`].
    Optimize {
        /// The problem as a tagged [`Spec`] — `{"Conv": ...}`,
        /// `{"Matmul": ...}`, `{"Pool": ...}`, or `{"Elementwise": ...}`.
        /// Takes precedence over `op` and `shape`.
        spec: Option<Spec>,
        /// Table-1 operator name (e.g. `"Y0"`, `"R4*"`).
        op: Option<String>,
        /// Explicit conv shape (legacy form, used when `spec` and `op` are
        /// absent). Resolves to the same cache/db keys as
        /// `{"spec": {"Conv": ...}}`.
        shape: Option<ConvShape>,
        /// Target machine.
        machine: MachineSpec,
        /// Optimizer options.
        options: Option<OptimizerOptions>,
        /// Thread count the schedule targets (overrides `options.threads`).
        /// Joins the schedule-cache key: plans solved for different thread
        /// counts are distinct entries.
        threads: Option<usize>,
        /// When `true`, the response carries the request's span tree.
        trace: Option<bool>,
    },
    /// Plan a whole network: one of the benchmark suites by name, or an
    /// explicit layer list.
    PlanNetwork {
        /// Suite name: `"yolo9000"`, `"resnet18"`, `"mobilenet"` (true
        /// depthwise), `"mobilenetv2"` (MobileNetV2 depthwise stages),
        /// `"dilated"` (DeepLab/ESPNet-style dilated ops), `"table1"` for
        /// all 32 Table-1 operators, or `"extended"` for every suite.
        suite: Option<String>,
        /// Explicit layers (used when `suite` is absent).
        layers: Option<Vec<NamedLayer>>,
        /// Target machine.
        machine: MachineSpec,
        /// Optimizer options.
        options: Option<OptimizerOptions>,
        /// Thread count the schedules target (overrides `options.threads`;
        /// joins the schedule-cache key).
        threads: Option<usize>,
        /// Worker threads for the fresh solves (default: host parallelism).
        workers: Option<usize>,
        /// When `true`, the response carries the request's span tree.
        trace: Option<bool>,
    },
    /// Plan a whole network *graph* with the fusion-aware cross-layer
    /// planner: fusion cut-points are chosen by a dynamic program, fused
    /// segments keep their intermediate tensors in cache, and the result is
    /// memoized by the graph's stable fingerprint.
    PlanGraph {
        /// Named block: `"mbv2-block1"` ... `"mbv2-block9"` (MobileNetV2
        /// inverted-residual stages) or `"resnet-r2"` etc. (residual blocks
        /// around the stride-1 ResNet layers).
        block: Option<String>,
        /// Explicit inline graph (used when `block` is absent).
        graph: Option<Graph>,
        /// Target machine.
        machine: MachineSpec,
        /// Optimizer options for the per-operator solves.
        options: Option<OptimizerOptions>,
        /// Thread count the plan targets (overrides `options.threads`).
        /// Joins both the per-operator schedule-cache key and the graph-plan
        /// cache key, and tightens fusion admissibility to the per-thread L3
        /// envelope.
        threads: Option<usize>,
        /// Worker threads for the fresh per-operator solves (default: host
        /// parallelism).
        workers: Option<usize>,
        /// When `true`, the response carries the request's span tree.
        trace: Option<bool>,
    },
    /// Re-answer one operator like `Optimize`, and additionally return the
    /// optimizer's search trace (candidates enumerated and pruned per
    /// permutation class, the runner-up and margin) plus the winner's
    /// per-memory-level cost breakdown.
    Explain {
        /// The problem as a tagged [`Spec`] (takes precedence over `op` and
        /// `shape`).
        spec: Option<Spec>,
        /// Table-1 operator name (e.g. `"Y0"`, `"R4*"`).
        op: Option<String>,
        /// Explicit conv shape (legacy form).
        shape: Option<ConvShape>,
        /// Target machine.
        machine: MachineSpec,
        /// Optimizer options.
        options: Option<OptimizerOptions>,
        /// Thread count the schedule targets (overrides `options.threads`).
        threads: Option<usize>,
    },
    /// Report cache and service statistics.
    Stats,
    /// Report per-verb latency histograms, error counters, in-flight
    /// gauges, and single-flight coalescing counters. With
    /// `{"format": "prometheus"}`, reply with text-exposition format
    /// instead of JSON.
    Metrics {
        /// `"json"` (the default) or `"prometheus"`.
        format: Option<String>,
    },
    /// Return the slow-request log: the last N requests that exceeded the
    /// `--slow-ms` threshold, each with its full span tree.
    Trace {
        /// Return at most this many traces, newest last (default: all
        /// retained).
        limit: Option<usize>,
    },
    /// List the benchmark catalog: the suite names `PlanNetwork` accepts
    /// and every named operator, with deprecation flags (the `M1pw`–`M9pw`
    /// dense stand-ins are still served but deprecated).
    Suites,
    /// Persist the cache to the server's snapshot path now.
    Save,
    /// Liveness check.
    Ping,
}

impl Deserialize for Request {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        if let Some(verb) = value.as_str() {
            return match verb {
                "Stats" => Ok(Request::Stats),
                "Metrics" => Ok(Request::Metrics { format: None }),
                "Trace" => Ok(Request::Trace { limit: None }),
                "Suites" => Ok(Request::Suites),
                "Save" => Ok(Request::Save),
                "Ping" => Ok(Request::Ping),
                other => Err(serde::DeError::custom(format!("unknown request verb `{other}`"))),
            };
        }
        let pairs = value.as_object().ok_or_else(|| {
            serde::DeError::expected("a verb string or a single-key object", "Request")
        })?;
        let [(verb, body)] = pairs else {
            return Err(serde::DeError::expected("exactly one verb key", "Request"));
        };
        let fields = |context: &str| {
            body.as_object().ok_or_else(|| serde::DeError::expected("an object body", context))
        };
        match verb.as_str() {
            "Optimize" => {
                let b = fields("Optimize")?;
                Ok(Request::Optimize {
                    spec: serde::de_field(b, "spec", "Optimize")?,
                    op: serde::de_field(b, "op", "Optimize")?,
                    shape: serde::de_field(b, "shape", "Optimize")?,
                    machine: serde::de_field(b, "machine", "Optimize")?,
                    options: serde::de_field(b, "options", "Optimize")?,
                    threads: serde::de_field(b, "threads", "Optimize")?,
                    trace: serde::de_field(b, "trace", "Optimize")?,
                })
            }
            "PlanNetwork" => {
                let b = fields("PlanNetwork")?;
                Ok(Request::PlanNetwork {
                    suite: serde::de_field(b, "suite", "PlanNetwork")?,
                    layers: serde::de_field(b, "layers", "PlanNetwork")?,
                    machine: serde::de_field(b, "machine", "PlanNetwork")?,
                    options: serde::de_field(b, "options", "PlanNetwork")?,
                    threads: serde::de_field(b, "threads", "PlanNetwork")?,
                    workers: serde::de_field(b, "workers", "PlanNetwork")?,
                    trace: serde::de_field(b, "trace", "PlanNetwork")?,
                })
            }
            "PlanGraph" => {
                let b = fields("PlanGraph")?;
                Ok(Request::PlanGraph {
                    block: serde::de_field(b, "block", "PlanGraph")?,
                    graph: serde::de_field(b, "graph", "PlanGraph")?,
                    machine: serde::de_field(b, "machine", "PlanGraph")?,
                    options: serde::de_field(b, "options", "PlanGraph")?,
                    threads: serde::de_field(b, "threads", "PlanGraph")?,
                    workers: serde::de_field(b, "workers", "PlanGraph")?,
                    trace: serde::de_field(b, "trace", "PlanGraph")?,
                })
            }
            "Explain" => {
                let b = fields("Explain")?;
                Ok(Request::Explain {
                    spec: serde::de_field(b, "spec", "Explain")?,
                    op: serde::de_field(b, "op", "Explain")?,
                    shape: serde::de_field(b, "shape", "Explain")?,
                    machine: serde::de_field(b, "machine", "Explain")?,
                    options: serde::de_field(b, "options", "Explain")?,
                    threads: serde::de_field(b, "threads", "Explain")?,
                })
            }
            "Metrics" => {
                let b = fields("Metrics")?;
                Ok(Request::Metrics { format: serde::de_field(b, "format", "Metrics")? })
            }
            "Trace" => {
                let b = fields("Trace")?;
                Ok(Request::Trace { limit: serde::de_field(b, "limit", "Trace")? })
            }
            other => Err(serde::DeError::custom(format!("unknown request verb `{other}`"))),
        }
    }
}

/// Service-level statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Schedule-cache counters (including per-shard eviction counts).
    pub cache: CacheStats,
    /// Database-tier counters, when a schedule database is attached
    /// (`moptd --db`); `None` otherwise. Absent in pre-database stats
    /// documents, which still parse.
    pub db: Option<DbTierStats>,
    /// Graph-planning counters (plan cache plus cumulative segment and
    /// fusion counts).
    pub graph: GraphServiceStats,
    /// Requests served (any type).
    pub requests: u64,
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// Single-flight coalescing counters for the schedule and graph-plan
    /// tiers. `led` counts solves actually run, `coalesced` counts requests
    /// that shared a concurrent leader's solve instead of running their own
    /// — the number a bare hit/miss ratio cannot express, because a
    /// coalesced request is neither a warm hit nor an extra solve. Absent
    /// in pre-coalescing stats documents, which still parse.
    pub flight: Option<FlightBreakdown>,
    /// The serving crate's version (`CARGO_PKG_VERSION`). Absent in
    /// documents written by builds that predate the field.
    pub version: Option<String>,
    /// Worker threads the event loop was configured with (1 for a stdio
    /// server). Absent until the transport configures it, and in older
    /// documents.
    pub workers: Option<u64>,
    /// Shard count of the schedule cache. Absent in older documents.
    pub cache_shards: Option<u64>,
    /// Per-verb `Error`-response counters plus parse failures. Absent in
    /// older documents.
    pub errors: Option<ErrorCounts>,
}

/// Which tier of the serving stack answered an `Optimize` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tier {
    /// The in-process schedule cache.
    Cache,
    /// The persistent schedule database (stored top-k re-ranked for the
    /// request's thread count — no optimizer run).
    Db,
    /// A fresh optimizer solve.
    Solver,
}

impl Tier {
    /// Lowercase label for metric dimensions and trace tags.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Cache => "cache",
            Tier::Db => "db",
            Tier::Solver => "solver",
        }
    }
}

/// One retained slow-request trace (see `moptd --slow-ms`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowTrace {
    /// The request's verb.
    pub verb: String,
    /// Total wall time of the request, in microseconds.
    pub micros: u64,
    /// The request's full span tree.
    pub root: SpanNode,
}

/// A response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Result of an `Optimize` request.
    Optimized {
        /// The operator name, when the request used one.
        op: Option<String>,
        /// The tagged problem spec that was optimized. Absent in pre-spec
        /// responses, which still parse.
        spec: Option<Spec>,
        /// The problem embedded as a conv shape (the identity for conv
        /// problems) — kept for pre-spec clients.
        shape: ConvShape,
        /// Whether the result came from the schedule cache.
        cached: bool,
        /// Which tier answered: the cache, the schedule database, or a
        /// fresh solve. Absent in pre-database responses, which still
        /// parse.
        tier: Option<Tier>,
        /// `Some(true)` when the request named a deprecated alias
        /// (`M1pw`–`M9pw`): still served, but slated for removal.
        deprecated: Option<bool>,
        /// The ranked configurations.
        result: OptimizeResult,
        /// The request's span tree, when the request set `trace: true`.
        trace: Option<SpanNode>,
    },
    /// Result of a `PlanNetwork` request.
    Planned {
        /// The network plan.
        plan: NetworkPlan,
        /// The request's span tree, when the request set `trace: true`.
        trace: Option<SpanNode>,
    },
    /// Result of a `PlanGraph` request.
    GraphPlanned {
        /// Whether the plan came from the graph-plan cache.
        cached: bool,
        /// The fusion-aware graph plan.
        plan: GraphPlan,
        /// The request's span tree, when the request set `trace: true`.
        trace: Option<SpanNode>,
    },
    /// Result of an `Explain` request: the served schedule plus the
    /// optimizer's search trace and the winner's cost breakdown.
    Explained {
        /// The operator name, when the request used one.
        op: Option<String>,
        /// The tagged problem spec. Absent in pre-spec responses.
        spec: Option<Spec>,
        /// The problem embedded as a conv shape (kept for pre-spec clients).
        shape: ConvShape,
        /// Whether the schedule came from the schedule cache.
        cached: bool,
        /// Which tier actually served the schedule.
        tier: Option<Tier>,
        /// `Some(true)` when the request named a deprecated alias.
        deprecated: Option<bool>,
        /// The ranked configurations — bit-identical to what a plain
        /// `Optimize` of the same request returns.
        result: OptimizeResult,
        /// The optimizer's search trace: candidates enumerated and pruned
        /// per permutation class, per-round hypotheses, winner, runner-up
        /// and margin. Recorded by a deterministic re-run of the search.
        search: SearchTrace,
        /// The winner's per-memory-level cost breakdown (footprints,
        /// traffic, slack); the attributed costs sum to the certified
        /// total price exactly.
        breakdown: CostBreakdown,
        /// The request's span tree, when tracing is armed server-side.
        trace: Option<SpanNode>,
    },
    /// Result of a `Stats` request.
    Stats {
        /// The statistics.
        stats: ServiceStats,
    },
    /// Result of a `Metrics` request.
    Metrics {
        /// Latency histograms, gauges, and coalescing counters.
        report: MetricsReport,
    },
    /// Result of a `Metrics` request with `format: "prometheus"`.
    MetricsText {
        /// Prometheus text-exposition body (`# HELP`/`# TYPE` plus
        /// `name{labels} value` lines).
        body: String,
    },
    /// Result of a `Trace` request: the retained slow-request traces.
    Traced {
        /// The configured threshold in milliseconds (0 when the slow log
        /// is disarmed).
        slow_ms: u64,
        /// Retained traces, oldest first.
        traces: Vec<SlowTrace>,
    },
    /// Result of a `Suites` request: the benchmark catalog.
    Suites {
        /// Suite names accepted by `PlanNetwork`'s `suite` field.
        suites: Vec<String>,
        /// Every named operator (Table 1 plus the extended suites and the
        /// deprecated aliases), with its suite and deprecation flag.
        ops: Vec<SuiteOp>,
    },
    /// Result of a `Save` request: entries persisted.
    Saved {
        /// Number of entries written.
        entries: usize,
    },
    /// Reply to `Ping`.
    Pong {
        /// The serving crate's version (`CARGO_PKG_VERSION`), so deployments
        /// can be audited over the wire.
        version: String,
        /// Seconds since the service started. Absent in replies from builds
        /// that predate the field.
        uptime_seconds: Option<f64>,
    },
    /// Any failure (parse error, unknown name, I/O error, ...).
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// One catalog entry in a `Suites` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteOp {
    /// The operator's wire name (e.g. `"Y0"`, `"M9pw"`).
    pub name: String,
    /// The suite it belongs to.
    pub suite: String,
    /// Whether the name is a deprecated dense stand-in alias: still
    /// served, but responses tag it and it is slated for removal.
    pub deprecated: bool,
}

/// How many slow-request traces the `Trace` verb retains (newest win).
pub const SLOW_LOG_CAPACITY: usize = 64;

/// How an `Optimize` or `Explain` request names its problem: a tagged
/// `spec`, a Table-1 `op` name, or a legacy flat `shape`, in that precedence
/// order.
#[derive(Clone, Copy)]
struct Problem<'a> {
    spec: Option<&'a Spec>,
    op: Option<&'a str>,
    shape: Option<ConvShape>,
}

impl Problem<'_> {
    fn resolve(&self, verb: &str) -> Result<Spec, String> {
        match (self.spec, self.op, self.shape) {
            (Some(spec), _, _) => {
                spec.validate().map_err(|e| format!("invalid spec: {e}"))?;
                Ok(*spec)
            }
            (None, Some(name), _) => match benchmarks::by_name(name) {
                Some(bench) => Ok(Spec::Conv(bench.shape)),
                None => Err(format!("unknown Table-1 operator `{name}`")),
            },
            (None, None, Some(shape)) => Ok(Spec::Conv(shape)),
            (None, None, None) => Err(format!("{verb} needs a `spec`, an `op`, or a `shape`")),
        }
    }

    /// `Some(true)` when the request named a deprecated alias (the field is
    /// omitted — `null` — for everything else).
    fn deprecation(&self) -> Option<bool> {
        self.op.filter(|name| benchmarks::is_deprecated_alias(name)).map(|_| true)
    }
}

/// A schedule answer with the request context it resolved to — what
/// `Optimize` and `Explain` share.
struct ServedSchedule {
    spec: Spec,
    machine: MachineModel,
    options: OptimizerOptions,
    tier: Tier,
    result: OptimizeResult,
}

/// Shared server state: the schedule cache plus counters and the snapshot
/// location. Designed to sit in an `Arc` shared by connection threads.
pub struct ServiceState {
    /// The schedule cache.
    pub cache: ScheduleCache,
    /// The graph-plan cache (fingerprint-keyed) plus its counters.
    pub graph_cache: GraphPlanCache,
    db: Option<Arc<DbTier>>,
    snapshot_path: Option<std::path::PathBuf>,
    /// Coalesces concurrent cold `Optimize` misses on one cache key into a
    /// single solve. The value is the `(tier, result)` pair the leader
    /// produced, so every waiter's response is bit-identical to the
    /// leader's.
    flight: SingleFlight<CacheKey, (Tier, OptimizeResult)>,
    /// Coalesces concurrent cold `PlanGraph` misses on one plan key. The
    /// value carries planning failures as `Err(message)` so waiters see the
    /// same error the leader did.
    graph_flight: SingleFlight<GraphCacheKey, Result<GraphPlan, String>>,
    metrics: ServiceMetrics,
    solve_delay_micros: AtomicU64,
    requests: AtomicU64,
    started: Instant,
    /// Responses served per tier (indexed by `Tier as usize`): coalesced
    /// requests count under the tier that served their leader.
    tier_hits: [AtomicU64; 3],
    /// Slow-request threshold in microseconds; 0 disarms the slow log
    /// (and with it, server-side tracing of untraced requests).
    slow_micros: AtomicU64,
    /// Last-N ring of slow-request traces, served by the `Trace` verb.
    slow_log: TraceRing<SlowTrace>,
    /// Worker threads the transport configured (0 until a transport binds).
    configured_workers: AtomicU64,
    /// Layout policy applied to requests that leave `options.layout_policy`
    /// unset (`moptd --layout-policy search`). `None` — the default — leaves
    /// requests untouched, so cache keys and serving are bit-identical to the
    /// pre-layout server.
    default_layout_policy: Option<LayoutPolicy>,
}

impl ServiceState {
    /// Fresh state with a schedule cache of `capacity` entries. The
    /// graph-plan cache is bounded at a quarter of that (at least 16):
    /// plans are per-graph rather than per-shape, so far fewer are live,
    /// but each carries every member schedule and must not accumulate
    /// unboundedly under arbitrary inline-graph traffic.
    pub fn new(capacity: usize) -> Self {
        ServiceState {
            cache: ScheduleCache::new(capacity),
            graph_cache: GraphPlanCache::new((capacity / 4).max(16)),
            db: None,
            snapshot_path: None,
            flight: SingleFlight::new(),
            graph_flight: SingleFlight::new(),
            metrics: ServiceMetrics::default(),
            solve_delay_micros: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            started: Instant::now(),
            tier_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            slow_micros: AtomicU64::new(0),
            slow_log: TraceRing::new(SLOW_LOG_CAPACITY),
            configured_workers: AtomicU64::new(0),
            default_layout_policy: None,
        }
    }

    /// Set the layout policy applied to requests whose options leave
    /// `layout_policy` unset. `Some(Search)` makes the optimizer price data
    /// layouts jointly with tile sizes by default; `None` (and
    /// `Some(Fixed)`, which requests can always pass explicitly) keeps the
    /// pre-layout behavior. The effective policy participates in cache keys,
    /// so fixed- and search-policy schedules never collide.
    pub fn with_layout_policy(mut self, policy: Option<LayoutPolicy>) -> Self {
        self.default_layout_policy = policy;
        self
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

    /// Attach a snapshot path: reaps temp files a killed predecessor left
    /// next to it, loads any existing snapshot (ignoring a missing file),
    /// and enables the `Save` request.
    pub fn with_snapshot(
        mut self,
        path: std::path::PathBuf,
    ) -> Result<Self, crate::persist::PersistError> {
        mopt_db::ioutil::remove_stale_temps(&path).ok();
        match crate::persist::load_snapshot(&self.cache, &path) {
            Ok(_) => {}
            Err(crate::persist::PersistError::Io(e))
                if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        self.snapshot_path = Some(path);
        Ok(self)
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

    /// Flight counters of both single-flight groups.
    pub fn flight_stats(&self) -> FlightBreakdown {
        FlightBreakdown { optimize: self.flight.stats(), graph: self.graph_flight.stats() }
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

    fn test_solve_delay(&self) {
        let micros = self.solve_delay_micros.load(Ordering::Relaxed);
        if micros > 0 {
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
    }

    /// Persist the cache if a snapshot path is configured. Returns the number
    /// of entries written, or `None` when unconfigured.
    pub fn save(&self) -> Result<Option<usize>, crate::persist::PersistError> {
        match &self.snapshot_path {
            Some(path) => crate::persist::save_snapshot(&self.cache, path).map(Some),
            None => Ok(None),
        }
    }

    /// The verb a request dispatches under.
    fn verb_of(request: &Request) -> Verb {
        match request {
            Request::Optimize { .. } => Verb::Optimize,
            Request::PlanNetwork { .. } => Verb::PlanNetwork,
            Request::PlanGraph { .. } => Verb::PlanGraph,
            Request::Explain { .. } => Verb::Explain,
            Request::Suites => Verb::Suites,
            Request::Stats => Verb::Stats,
            Request::Metrics { .. } => Verb::Metrics,
            Request::Trace { .. } => Verb::Trace,
            Request::Save => Verb::Save,
            Request::Ping => Verb::Ping,
        }
    }

    /// Whether the request opted into an inline trace.
    fn trace_requested(request: &Request) -> bool {
        matches!(
            request,
            Request::Optimize { trace: Some(true), .. }
                | Request::PlanNetwork { trace: Some(true), .. }
                | Request::PlanGraph { trace: Some(true), .. }
        )
    }

    /// Attach a finished span tree to the response variants that carry one.
    fn attach_trace(response: &mut Response, root: SpanNode) {
        match response {
            Response::Optimized { trace, .. }
            | Response::Planned { trace, .. }
            | Response::GraphPlanned { trace, .. }
            | Response::Explained { trace, .. } => *trace = Some(root),
            _ => {}
        }
    }

    /// Keep the finished trace in the slow log when it crossed the armed
    /// threshold.
    fn maybe_log_slow(&self, verb: Verb, root: &SpanNode) {
        let threshold = self.slow_micros.load(Ordering::Relaxed);
        if threshold > 0 && root.duration_micros >= threshold {
            self.slow_log.push(SlowTrace {
                verb: verb.name().to_string(),
                micros: root.duration_micros,
                root: root.clone(),
            });
        }
    }

    /// Dispatch one request under a trace context: record latency under the
    /// request's verb, hold the in-flight gauge, count `Error` responses.
    /// Returns the un-finished context so the caller can add serialize time
    /// before closing the tree. The context is enabled only when the
    /// request asked for a trace or the slow log is armed — otherwise every
    /// span call is a no-op branch with no allocation.
    fn handle_prepared(
        &self,
        request: &Request,
        parse_time: Duration,
        queue_wait: Duration,
    ) -> (Response, TraceContext, Verb) {
        let verb = Self::verb_of(request);
        let ctx = if Self::trace_requested(request) || self.slow_micros.load(Ordering::Relaxed) > 0
        {
            TraceContext::enabled(verb.name())
        } else {
            TraceContext::disabled()
        };
        if queue_wait > Duration::ZERO {
            ctx.record("queue_wait", queue_wait);
        }
        if parse_time > Duration::ZERO {
            ctx.record("parse", parse_time);
        }
        let _in_flight = self.metrics.request_started();
        let start = Instant::now();
        let response = self.dispatch(request, &ctx);
        self.metrics.record(verb, start.elapsed());
        if matches!(response, Response::Error { .. }) {
            self.metrics.record_error(verb);
        }
        (response, ctx, verb)
    }

    /// Dispatch one request, recording its latency under its verb and
    /// holding the in-flight request gauge for the duration. When tracing
    /// is active the finished span tree is attached to the response (and
    /// slow requests land in the slow log).
    pub fn handle(&self, request: &Request) -> Response {
        let (mut response, ctx, verb) =
            self.handle_prepared(request, Duration::ZERO, Duration::ZERO);
        if let Some(root) = ctx.finish() {
            self.maybe_log_slow(verb, &root);
            if Self::trace_requested(request) {
                Self::attach_trace(&mut response, root);
            }
        }
        response
    }

    fn dispatch(&self, request: &Request, ctx: &TraceContext) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.try_dispatch(request, ctx).unwrap_or_else(|message| Response::Error { message })
    }

    /// [`dispatch`](Self::dispatch), with `Err(message)` for a request that
    /// is refused before its handler runs.
    fn try_dispatch(&self, request: &Request, ctx: &TraceContext) -> Result<Response, String> {
        let response = match request {
            Request::Ping => Response::Pong {
                version: env!("CARGO_PKG_VERSION").to_string(),
                uptime_seconds: Some(self.uptime_seconds()),
            },
            Request::Stats => Response::Stats {
                stats: ServiceStats {
                    cache: self.cache.stats(),
                    db: self.db.as_ref().map(|db| db.stats()),
                    graph: self.graph_cache.stats(),
                    requests: self.requests(),
                    uptime_seconds: self.started.elapsed().as_secs_f64(),
                    flight: Some(self.flight_stats()),
                    version: Some(env!("CARGO_PKG_VERSION").to_string()),
                    workers: Some(self.configured_workers()),
                    cache_shards: Some(ScheduleCache::SHARDS as u64),
                    errors: Some(self.metrics.error_counts()),
                },
            },
            Request::Metrics { format } => match format.as_deref() {
                None | Some("json") => {
                    Response::Metrics { report: self.metrics.report(self.flight_stats()) }
                }
                Some("prometheus") => {
                    Response::MetricsText { body: crate::prometheus::render(self) }
                }
                Some(other) => Response::Error {
                    message: format!(
                        "unknown metrics format `{other}` (try \"json\" or \"prometheus\")"
                    ),
                },
            },
            Request::Trace { limit } => {
                let mut traces = self.slow_log.snapshot();
                if let Some(limit) = limit {
                    let excess = traces.len().saturating_sub(*limit);
                    traces.drain(..excess);
                }
                Response::Traced {
                    slow_ms: self.slow_micros.load(Ordering::Relaxed) / 1000,
                    traces,
                }
            }
            Request::Save => {
                // Flush dirty database pages first; a failure is a real
                // durability loss and must surface as an Error, not a log
                // line.
                if let Some(db) = &self.db {
                    if let Err(e) = db.flush() {
                        return Err(format!("database flush failed: {e}"));
                    }
                }
                match self.save() {
                    Ok(Some(entries)) => Response::Saved { entries },
                    Ok(None) if self.db.is_some() => Response::Saved { entries: 0 },
                    Ok(None) => Response::Error {
                        message:
                            "no snapshot path configured (start moptd with --snapshot or --db)"
                                .into(),
                    },
                    Err(e) => Response::Error { message: e.to_string() },
                }
            }
            Request::Suites => Response::Suites {
                suites: benchmarks::suite_names().map(str::to_string).collect(),
                ops: benchmarks::extended_operators()
                    .iter()
                    .map(|op| SuiteOp {
                        name: op.name.clone(),
                        suite: op.suite.name().to_string(),
                        deprecated: benchmarks::is_deprecated_alias(&op.name),
                    })
                    .collect(),
            },
            Request::Optimize { spec, op, shape, machine, options, threads, trace: _ } => {
                let (machine, options) = self.request_target(machine, options, *threads)?;
                let problem = Problem { spec: spec.as_ref(), op: op.as_deref(), shape: *shape };
                self.handle_optimize(problem, machine, options, ctx)
            }
            Request::Explain { spec, op, shape, machine, options, threads } => {
                let (machine, options) = self.request_target(machine, options, *threads)?;
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
                let (machine, options) = self.request_target(machine, options, *threads)?;
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
                let (machine, options) = self.request_target(machine, options, *threads)?;
                self.handle_plan_graph(
                    block.as_deref(),
                    graph.as_ref(),
                    machine,
                    options,
                    *workers,
                    ctx,
                )
            }
        };
        Ok(response)
    }

    /// What a planning request (`Optimize`, `Explain`, `PlanNetwork`,
    /// `PlanGraph`) plans for: its machine model and its effective optimizer
    /// options — the request's `options` (or the defaults), with an explicit
    /// top-level `threads` field taking precedence over `options.threads`,
    /// and the server's default layout policy filled in when the request
    /// leaves it unset. The options participate verbatim in both cache keys,
    /// so thread counts and layout policies always distinguish entries.
    ///
    /// Both come from outside the program and are checked here, before any
    /// tier is touched: an invalid inline machine or an option the search
    /// cannot run with is the request's `Error`, not a panicking worker.
    fn request_target(
        &self,
        machine: &MachineSpec,
        options: &Option<OptimizerOptions>,
        threads: Option<usize>,
    ) -> Result<(MachineModel, OptimizerOptions), String> {
        let machine = machine.resolve()?;
        let mut options = options.clone().unwrap_or_default();
        options.validate().map_err(|e| format!("invalid options: {e}"))?;
        if let Some(threads) = threads {
            options.threads = threads.max(1);
        }
        if options.layout_policy.is_none() {
            options.layout_policy = self.default_layout_policy;
        }
        Ok((machine, options))
    }

    /// Serve one [`Spec`] through the full tier stack — cache probe, then
    /// [`resolve_cold`] under single-flight — recording each stage in `ctx`
    /// and counting the serving tier. `Optimize` and `Explain` come through
    /// here (via [`serve_spec_request`](Self::serve_spec_request)); the
    /// batch planner behind `PlanNetwork` and `PlanGraph` walks the same
    /// `resolve_cold`, so every verb returns bit-identical schedules for
    /// identical problems.
    fn resolve_spec(
        &self,
        spec: &Spec,
        machine: &MachineModel,
        options: &OptimizerOptions,
        ctx: &TraceContext,
    ) -> Result<(Tier, OptimizeResult), String> {
        let key = CacheKey::new(*spec, machine, options);
        // Tier 1: the in-process cache.
        let cache_hit = {
            let _probe = ctx.span("cache_probe");
            self.cache.get(&key)
        };
        if let Some(result) = cache_hit {
            self.tier_hits[Tier::Cache as usize].fetch_add(1, Ordering::Relaxed);
            ctx.tag("tier", Tier::Cache.label());
            return Ok((Tier::Cache, result));
        }
        // Cold path, under single-flight: concurrent misses on this key
        // share one leader, which walks the colder tiers; waiters park and
        // receive a clone of the leader's `(tier, result)`, so all coalesced
        // responses are bit-identical. A panicking solve is propagated to
        // every waiter as an `Error` response and the key stays clean for
        // the next request.
        //
        // The closure runs on the leader's thread, so its stages
        // (db_lookup / solve / writebacks) land inside the *leader's*
        // `flight` span; a waiter's `flight` span has no solve child — its
        // duration is pure coalesced wait.
        let outcome = {
            let _flight = ctx.span("flight");
            let (role, outcome) = self.flight.run(key.clone(), || {
                self.test_solve_delay();
                resolve_cold(&self.cache, self.db.as_deref(), &key, machine, ctx)
            });
            ctx.tag(
                "role",
                match role {
                    Role::Led => "led",
                    Role::Coalesced => "waited",
                },
            );
            outcome
        };
        match outcome {
            Ok((tier, result)) => {
                self.tier_hits[tier as usize].fetch_add(1, Ordering::Relaxed);
                ctx.tag("tier", tier.label());
                Ok((tier, result))
            }
            Err(e) => Err(format!("optimize failed: {e}")),
        }
    }

    /// Resolve a request's machine and problem naming and serve it through
    /// [`resolve_spec`](Self::resolve_spec). Shared by `Optimize` and
    /// `Explain`, so both verbs return bit-identical schedules for identical
    /// requests.
    fn serve_spec_request(
        &self,
        verb: &str,
        problem: Problem<'_>,
        machine: MachineModel,
        options: OptimizerOptions,
        ctx: &TraceContext,
    ) -> Result<ServedSchedule, String> {
        let spec = problem.resolve(verb)?;
        let (tier, result) = self.resolve_spec(&spec, &machine, &options, ctx)?;
        Ok(ServedSchedule { spec, machine, options, tier, result })
    }

    fn handle_optimize(
        &self,
        problem: Problem<'_>,
        machine: MachineModel,
        options: OptimizerOptions,
        ctx: &TraceContext,
    ) -> Response {
        match self.serve_spec_request("Optimize", problem, machine, options, ctx) {
            Ok(served) => Response::Optimized {
                op: problem.op.map(str::to_string),
                spec: Some(served.spec),
                shape: served.spec.embedded_conv_shape(),
                cached: served.tier == Tier::Cache,
                tier: Some(served.tier),
                deprecated: problem.deprecation(),
                result: served.result,
                trace: None,
            },
            Err(message) => Response::Error { message },
        }
    }

    fn handle_explain(
        &self,
        problem: Problem<'_>,
        machine: MachineModel,
        options: OptimizerOptions,
        ctx: &TraceContext,
    ) -> Response {
        let served = match self.serve_spec_request("Explain", problem, machine, options, ctx) {
            Ok(served) => served,
            Err(message) => return Response::Error { message },
        };
        // The search trace is a deterministic re-run of the solver with
        // recording on (the solver is seeded, so the re-run finds the same
        // winner a fresh solve would), on the spec's embedded conv shape —
        // exactly what the optimizer solves. The *served* schedule above can
        // come from a warmer tier; `tier` says which one actually answered.
        let shape = served.spec.embedded_conv_shape();
        let search = {
            let _span = ctx.span("search_trace");
            MOptOptimizer::new(shape, served.machine.clone(), served.options.clone())
                .optimize_traced()
                .1
        };
        // Break the served winner's certified price down per memory level,
        // under the exact parallel split the winning config carries and the
        // model search and re-rank priced it with.
        let best = served.result.best();
        let breakdown = {
            let _span = ctx.span("cost_breakdown");
            let parallel = ParallelSpec {
                threads: served.options.threads,
                factors: best.config.parallel.as_array(),
            };
            pricing::pricing_model(
                &shape,
                &served.machine,
                &served.options,
                best.config.permutation.clone(),
                parallel,
            )
            .cost_breakdown(&best.config)
        };
        Response::Explained {
            op: problem.op.map(str::to_string),
            spec: Some(served.spec),
            shape,
            cached: served.tier == Tier::Cache,
            tier: Some(served.tier),
            deprecated: problem.deprecation(),
            result: served.result.clone(),
            search,
            breakdown,
            trace: None,
        }
    }

    fn handle_plan(
        &self,
        suite: Option<&str>,
        layers: Option<&[NamedLayer]>,
        machine: MachineModel,
        options: OptimizerOptions,
        workers: Option<usize>,
        ctx: &TraceContext,
    ) -> Response {
        let layer_list: Vec<NamedLayer> = match (suite, layers) {
            (Some(name), _) => match benchmarks::suite_by_name(name) {
                Some(ops) => ops.iter().map(NamedLayer::from).collect(),
                None => {
                    return Response::Error {
                        message: benchmarks::unknown_suite(name, benchmarks::suite_names()),
                    }
                }
            },
            (None, Some(layers)) if !layers.is_empty() => layers.to_vec(),
            _ => {
                return Response::Error {
                    message: "PlanNetwork needs either `suite` or a non-empty `layers`".into(),
                }
            }
        };
        let mut planner = NetworkPlanner::new(&self.cache, machine, options)
            .with_db(self.db.as_deref())
            .with_trace(ctx);
        if let Some(workers) = workers {
            planner = planner.with_workers(workers);
        }
        let plan = {
            let _span = ctx.span("plan_layers");
            planner.plan(&layer_list)
        };
        Response::Planned { plan, trace: None }
    }

    fn handle_plan_graph(
        &self,
        block: Option<&str>,
        graph: Option<&Graph>,
        machine: MachineModel,
        options: OptimizerOptions,
        workers: Option<usize>,
        ctx: &TraceContext,
    ) -> Response {
        let graph: Graph = match (block, graph) {
            (Some(name), _) => match builders::by_name(name) {
                Ok(graph) => graph,
                Err(e) => return Response::Error { message: e.to_string() },
            },
            (None, Some(graph)) => graph.clone(),
            (None, None) => {
                return Response::Error {
                    message: "PlanGraph needs either `block` or `graph`".into(),
                }
            }
        };
        // Gate before the worker pool below: an invalid graph must not cost
        // a single optimizer solve. (GraphPlanner::plan validates
        // again as its own public contract; the graphs are tiny, so the
        // repeat is nanoseconds.)
        if let Err(e) = graph.validate() {
            return Response::Error { message: format!("invalid graph: {e}") };
        }
        let key = GraphCacheKey {
            graph_fingerprint: graph.fingerprint(),
            machine_fingerprint: machine.fingerprint(),
            options: options.clone(),
        };
        let cache_hit = {
            let _probe = ctx.span("graph_cache_probe");
            self.graph_cache.get(&key)
        };
        if let Some(plan) = cache_hit {
            return Response::GraphPlanned { cached: true, plan, trace: None };
        }
        // Cold path, under single-flight: concurrent misses on this plan key
        // share one leader; waiters receive a clone of the leader's plan (or
        // its planning error), bit-identical on the wire.
        let _flight = ctx.span("flight");
        let (role, outcome) = self.graph_flight.run(key.clone(), || {
            self.test_solve_delay();
            // Resolve every schedulable node (conv, matmul, pool — not just
            // convs) through the batch planner (dedupe + worker pool + the
            // shared tier stack), then run the fusion dynamic program over
            // the resolved schedules.
            let layers = NamedLayer::of_graph(&graph).map_err(|e| format!("invalid graph: {e}"))?;
            let mut planner = NetworkPlanner::new(&self.cache, machine.clone(), options.clone())
                .with_db(self.db.as_deref())
                .with_trace(ctx);
            if let Some(workers) = workers {
                planner = planner.with_workers(workers);
            }
            let resolved = {
                let _resolve = ctx.span("resolve_layers");
                planner.resolve(&layers)
            };
            let _fusion = ctx.span("fusion_plan");
            let result = GraphPlanner::new(machine.clone())
                .with_threads(options.threads)
                // The planner asks for exactly the schedulable nodes' specs,
                // all resolved above.
                .plan(&graph, |spec| resolved[spec].1.clone());
            match result {
                Ok(plan) => {
                    self.graph_cache.insert(key.clone(), &plan);
                    Ok(plan)
                }
                Err(e) => Err(format!("graph planning failed: {e}")),
            }
        });
        ctx.tag(
            "role",
            match role {
                Role::Led => "led",
                Role::Coalesced => "waited",
            },
        );
        match outcome {
            Ok(Ok(plan)) => Response::GraphPlanned { cached: false, plan, trace: None },
            Ok(Err(message)) => Response::Error { message },
            Err(e) => Response::Error { message: format!("graph planning failed: {e}") },
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
        let parse_start = Instant::now();
        let parsed = serde_json::from_str::<Request>(line);
        let parse_time = parse_start.elapsed();
        let request = match parsed {
            Ok(request) => request,
            Err(e) => {
                self.metrics.record_parse_error();
                return serialize_response(&Response::Error {
                    message: format!("bad request: {e}"),
                });
            }
        };
        let (mut response, ctx, verb) = self.handle_prepared(&request, parse_time, queue_wait);
        if !ctx.is_enabled() {
            return serialize_response(&response);
        }
        // Serialize once *before* finishing the tree so the serialize span
        // measures real work; a trace-carrying response is then serialized
        // again with the tree attached.
        let serialize_start = Instant::now();
        let text = serialize_response(&response);
        ctx.record("serialize", serialize_start.elapsed());
        let root = ctx.finish().expect("context is enabled");
        self.maybe_log_slow(verb, &root);
        if Self::trace_requested(&request) {
            Self::attach_trace(&mut response, root);
            return serialize_response(&response);
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

fn serialize_response(response: &Response) -> String {
    serde_json::to_string(response)
        .unwrap_or_else(|e| format!("{{\"Error\":{{\"message\":\"serialize: {e}\"}}}}"))
}

fn write_line<W: Write>(writer: &mut W, reply: &str) -> std::io::Result<()> {
    writer.write_all(reply.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state() -> ServiceState {
        ServiceState::new(64)
    }

    fn fast_options_json() -> String {
        let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() };
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
                assert_eq!(stats.graph.entries, 0);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn optimize_by_shape_then_cached() {
        let state = tiny_state();
        let line = format!(
            "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        let first: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        let second: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match (first, second) {
            (
                Response::Optimized { cached: false, result: a, .. },
                Response::Optimized { cached: true, result: b, .. },
            ) => assert_eq!(a.ranked, b.ranked),
            other => panic!("expected cold then warm Optimized, got {other:?}"),
        }
    }

    #[test]
    fn optimize_by_table1_name() {
        let state = tiny_state();
        let line = format!(
            "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            fast_options_json(),
        );
        let response: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match response {
            Response::Optimized { op, shape, result, .. } => {
                assert_eq!(op.as_deref(), Some("M9"));
                assert_eq!(shape, benchmarks::by_name("M9").unwrap().shape);
                assert!(!result.ranked.is_empty());
            }
            other => panic!("expected Optimized, got {other:?}"),
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
    fn thread_counts_are_distinct_cache_entries() {
        let state = tiny_state();
        let shape =
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap();
        let request = |threads: usize| {
            format!(
                "{{\"Optimize\": {{\"shape\": {shape}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"threads\": {threads}}}}}",
                fast_options_json(),
            )
        };
        // The same shape planned for 1 and for 8 threads: two fresh solves,
        // two resident entries.
        let one: Response = serde_json::from_str(&state.handle_line(&request(1))).unwrap();
        let eight: Response = serde_json::from_str(&state.handle_line(&request(8))).unwrap();
        match (&one, &eight) {
            (
                Response::Optimized { cached: false, .. },
                Response::Optimized { cached: false, .. },
            ) => {}
            other => panic!("both thread counts must be fresh solves, got {other:?}"),
        }
        assert_eq!(state.cache.len(), 2, "1-thread and 8-thread plans must not share an entry");
        // Re-asking at 8 threads is a warm hit with the parallel schedule.
        let warm: Response = serde_json::from_str(&state.handle_line(&request(8))).unwrap();
        match warm {
            Response::Optimized { cached: true, result, .. } => {
                assert_eq!(result.best().config.total_parallelism(), 8);
            }
            other => panic!("expected a warm parallel plan, got {other:?}"),
        }
    }

    #[test]
    fn plan_network_over_connection() {
        let state = tiny_state();
        let request = format!(
            "{{\"PlanNetwork\": {{\"layers\": [{{\"name\": \"a\", \"shape\": {}}}, {{\"name\": \"b\", \"shape\": {}}}], \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 2}}}}\n\"Stats\"\n",
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        let mut output = Vec::new();
        state.serve_connection(std::io::BufReader::new(request.as_bytes()), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let mut lines = text.lines();
        let plan: Response = serde_json::from_str(lines.next().unwrap()).unwrap();
        match plan {
            Response::Planned { plan, .. } => {
                assert_eq!(plan.stats.layers, 2);
                assert_eq!(plan.stats.unique_shapes, 1);
                assert_eq!(plan.layers[0].best, plan.layers[1].best);
            }
            other => panic!("expected Planned, got {other:?}"),
        }
        let stats: Response = serde_json::from_str(lines.next().unwrap()).unwrap();
        match stats {
            Response::Stats { stats } => assert_eq!(stats.cache.entries, 1),
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn plan_graph_by_inline_graph_fuses_and_caches() {
        let state = tiny_state();
        // A scaled-down MobileNetV2 block whose dw → project working set
        // fits even the tiny machine's L3, so the fusion is taken.
        let graph = mopt_graph::builders::mobilenet_v2_block_from(
            &ConvShape::depthwise(12, 14, 3, 1),
            "tiny-block",
        );
        let line = format!(
            "{{\"PlanGraph\": {{\"graph\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 2}}}}",
            serde_json::to_string(&graph).unwrap(),
            fast_options_json(),
        );
        let first: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        let plan = match first {
            Response::GraphPlanned { cached: false, plan, .. } => plan,
            other => panic!("expected fresh GraphPlanned, got {other:?}"),
        };
        assert_eq!(plan.fingerprint, graph.fingerprint());
        assert_eq!(plan.fusions_taken, 1);
        assert!(plan.fused_volume < plan.unfused_volume);
        // Second request: served from the graph-plan cache, identical plan.
        let second: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match second {
            Response::GraphPlanned { cached: true, plan: warm, .. } => assert_eq!(warm, plan),
            other => panic!("expected cached GraphPlanned, got {other:?}"),
        }
        // The per-operator solves landed in the shared schedule cache.
        assert_eq!(state.cache.len(), 3);
        // Stats report the graph section.
        let stats: Response = serde_json::from_str(&state.handle_line("\"Stats\"")).unwrap();
        match stats {
            Response::Stats { stats } => {
                assert_eq!(stats.graph.entries, 1);
                assert_eq!((stats.graph.hits, stats.graph.misses), (1, 1));
                assert_eq!(stats.graph.segments_planned, plan.segments.len() as u64);
                assert_eq!(stats.graph.fusions_taken, 1);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn plan_graph_by_block_name() {
        let state = tiny_state();
        let line = format!(
            "{{\"PlanGraph\": {{\"block\": \"resnet-r12\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 2}}}}",
            fast_options_json(),
        );
        let response: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match response {
            Response::GraphPlanned { cached: false, plan, .. } => {
                assert_eq!(plan.graph, "resnet-block-r12");
                // conv1 → conv2 chain + the skip projection.
                assert_eq!(plan.chains, 2);
                let total_ops: usize = plan.segments.iter().map(|s| s.ops.len()).sum();
                assert_eq!(total_ops, 3);
                // 3x3 consumers are never fusion candidates.
                assert_eq!(plan.fusion_candidates, 0);
                for seg in &plan.segments {
                    for op in &seg.ops {
                        assert!(op.best.config.validate(&op.shape).is_ok());
                    }
                }
            }
            other => panic!("expected GraphPlanned, got {other:?}"),
        }
    }

    #[test]
    fn plan_graph_rejects_invalid_inline_graphs() {
        let state = tiny_state();
        let mut graph = mopt_graph::builders::mobilenet_v2_block_from(
            &ConvShape::depthwise(8, 10, 3, 1),
            "broken",
        );
        graph.edges[0].tensor = mopt_graph::TensorInfo::nchw((9, 9, 9, 9));
        let line = format!(
            "{{\"PlanGraph\": {{\"graph\": {}, \"machine\": {{\"Preset\": \"tiny\"}}}}}}",
            serde_json::to_string(&graph).unwrap(),
        );
        let response: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match response {
            Response::Error { message } => assert!(message.contains("invalid graph")),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn optimize_tiers_cache_db_solver() {
        let dir = std::env::temp_dir().join(format!("moptd-dbtier-srv-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let state = ServiceState::new(64).with_db(dir.clone()).unwrap();
        let line = format!(
            "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        let first: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        assert!(
            matches!(first, Response::Optimized { tier: Some(Tier::Solver), cached: false, .. }),
            "cold request must be a solver answer, got {first:?}"
        );
        let warm: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        assert!(
            matches!(warm, Response::Optimized { tier: Some(Tier::Cache), cached: true, .. }),
            "repeat must be a cache hit, got {warm:?}"
        );
        // Save flushes the dirty db pages (no snapshot configured: 0
        // snapshot entries, but Saved rather than Error).
        let saved: Response = serde_json::from_str(&state.handle_line("\"Save\"")).unwrap();
        assert_eq!(saved, Response::Saved { entries: 0 });
        // A cold process: empty cache, but the database answers without a
        // single optimizer run — and Stats shows the db-tier hit.
        let cold = ServiceState::new(64).with_db(dir.clone()).unwrap();
        let served: Response = serde_json::from_str(&cold.handle_line(&line)).unwrap();
        match served {
            Response::Optimized { tier: Some(Tier::Db), cached: false, result, .. } => {
                assert!(!result.ranked.is_empty());
            }
            other => panic!("expected a db-tier answer, got {other:?}"),
        }
        let stats: Response = serde_json::from_str(&cold.handle_line("\"Stats\"")).unwrap();
        match stats {
            Response::Stats { stats } => {
                let db = stats.db.expect("db stats present when a database is attached");
                assert_eq!((db.hits, db.misses, db.errors), (1, 0, 0));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_custom_machines_are_rejected_before_any_tier_is_touched() {
        let dir = std::env::temp_dir().join(format!("moptd-badmachine-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let state = ServiceState::new(64).with_db(dir.clone()).unwrap();
        type Break = fn(&mut MachineModel);
        let hostile: [Break; 11] = [
            |m| m.clock_ghz = 0.0,
            |m| m.dram_bandwidth = 0.0,
            |m| m.dram_bandwidth = -4.0,
            |m| m.caches[0].fill_bandwidth = 0.0,
            |m| m.cores = 0,
            |m| m.threads = 0,
            |m| m.simd_width = 0,
            |m| m.fma_units = 0,
            |m| m.register_elems = 0,
            |m| m.caches[1].capacity_elems = 0,
            |m| m.caches[2].line_elems = 0,
        ];
        let shape =
            serde_json::to_string(&ConvShape::new(1, 4, 4, 3, 3, 8, 8, 1).unwrap()).unwrap();
        let ask = |verb: &str, problem: &str, machine: MachineModel| -> Response {
            let machine = serde_json::to_string(&MachineSpec::Custom(machine)).unwrap();
            let options = fast_options_json();
            let line = format!(
                "{{\"{verb}\": {{{problem}, \"machine\": {machine}, \"options\": {options}}}}}"
            );
            serde_json::from_str(&state.handle_line(&line)).unwrap()
        };
        let by_shape = format!("\"shape\": {shape}");
        let by_layers = format!("\"layers\": [{{\"name\": \"l\", \"shape\": {shape}}}]");
        for (i, break_it) in hostile.iter().enumerate() {
            let mut machine = MachineModel::tiny_test_machine();
            break_it(&mut machine);
            for (verb, problem) in
                [("Optimize", &by_shape), ("Explain", &by_shape), ("PlanNetwork", &by_layers)]
            {
                match ask(verb, problem, machine.clone()) {
                    Response::Error { message } => {
                        assert!(message.starts_with("invalid machine: "), "case {i}: {message}")
                    }
                    other => panic!("case {i}: expected Error, got {other:?}"),
                }
            }
        }
        let cache = state.cache.stats();
        assert_eq!((cache.insertions, cache.entries), (0, 0));
        let db = state.db().unwrap().stats();
        assert_eq!((db.hits, db.misses, db.inserts, db.errors), (0, 0, 0, 0));
        // The same machine, unbroken, is served and written through.
        let served = ask("Optimize", &by_shape, MachineModel::tiny_test_machine());
        assert!(matches!(served, Response::Optimized { .. }), "{served:?}");
        assert_eq!(state.db().unwrap().stats().inserts, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_failure_reports_the_path_and_cause() {
        // Snapshot path inside a directory that does not exist: startup is
        // a clean NotFound, but the save itself fails — and the failure
        // must come back as a JSON Error naming the path, not vanish into
        // a server-side log line.
        let missing = std::env::temp_dir()
            .join(format!("moptd-no-such-dir-{}", std::process::id()))
            .join("snap.json");
        let state = ServiceState::new(16).with_snapshot(missing.clone()).unwrap();
        let response: Response = serde_json::from_str(&state.handle_line("\"Save\"")).unwrap();
        match response {
            Response::Error { message } => {
                assert!(
                    message.contains("snap.json"),
                    "the Error must name the failing path, got: {message}"
                );
                assert!(message.contains("snapshot I/O error"), "got: {message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn warm_hits_do_not_count_as_coalesced() {
        // Regression: before the flight section existed, Stats could not
        // distinguish "cache hit that arrived while a solve was in flight"
        // (coalesced) from a plain warm hit. A strictly sequential
        // cold-then-warm-then-warm sequence must report one led solve and
        // zero coalesced requests.
        let state = tiny_state();
        let line = format!(
            "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        for _ in 0..3 {
            state.handle_line(&line);
        }
        let stats: Response = serde_json::from_str(&state.handle_line("\"Stats\"")).unwrap();
        match stats {
            Response::Stats { stats } => {
                let flight = stats.flight.expect("flight section present");
                assert_eq!(flight.optimize.led, 1, "one cold solve");
                assert_eq!(flight.optimize.coalesced, 0, "warm hits are NOT coalesced");
                assert_eq!(flight.optimize.errors, 0);
                assert_eq!(flight.optimize.in_flight, 0);
                assert_eq!((stats.cache.hits, stats.cache.misses), (2, 1));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_cold_misses_coalesce_onto_one_solve() {
        let state = std::sync::Arc::new(tiny_state());
        state.set_test_solve_delay(std::time::Duration::from_millis(150));
        let line = format!(
            "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        let gate = std::sync::Arc::new(std::sync::Barrier::new(8));
        let replies: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (state, line, gate) = (state.clone(), line.clone(), gate.clone());
                    scope.spawn(move || {
                        gate.wait();
                        state.handle_line(&line)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All eight responses are bit-identical (same tier, same result).
        assert!(replies.iter().all(|r| r == &replies[0]), "coalesced responses must be identical");
        let first: Response = serde_json::from_str(&replies[0]).unwrap();
        assert!(matches!(first, Response::Optimized { tier: Some(Tier::Solver), .. }));
        let flight = state.flight_stats();
        assert_eq!(flight.optimize.led, 1, "exactly one solver invocation for 8 clients");
        assert_eq!(flight.optimize.coalesced, 7);
        // The solve ran once, so the cache saw exactly one insertion.
        assert_eq!(state.cache.stats().insertions, 1);
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
    fn snapshot_save_via_request() {
        let mut path = std::env::temp_dir();
        path.push(format!("moptd-save-req-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let state = ServiceState::new(16).with_snapshot(path.clone()).unwrap();
        let line = format!(
            "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&ConvShape::new(1, 4, 4, 3, 3, 8, 8, 1).unwrap()).unwrap(),
            fast_options_json(),
        );
        state.handle_line(&line);
        let response: Response = serde_json::from_str(&state.handle_line("\"Save\"")).unwrap();
        assert_eq!(response, Response::Saved { entries: 1 });
        // A fresh state with the same path starts warm.
        let rewarmed = ServiceState::new(16).with_snapshot(path.clone()).unwrap();
        assert_eq!(rewarmed.cache.len(), 1);
        let warm: Response = serde_json::from_str(&rewarmed.handle_line(&line)).unwrap();
        assert!(matches!(warm, Response::Optimized { cached: true, .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explain_returns_search_trace_and_consistent_breakdown() {
        let state = tiny_state();
        let explain = format!(
            "{{\"Explain\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            fast_options_json(),
        );
        let optimize = format!(
            "{{\"Optimize\": {{\"op\": \"M9\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            fast_options_json(),
        );
        let explained: Response = serde_json::from_str(&state.handle_line(&explain)).unwrap();
        let (result, search, breakdown) = match explained {
            Response::Explained { op, cached, result, search, breakdown, .. } => {
                assert_eq!(op.as_deref(), Some("M9"));
                assert!(!cached, "first Explain solves cold");
                (result, search, breakdown)
            }
            other => panic!("expected Explained, got {other:?}"),
        };
        // The search trace accounts for the whole permutation space.
        assert_eq!(search.permutations_total, 5040);
        assert!(search.classes_searched >= 1);
        assert!(search.permutations_pruned > 0, "symmetry pruning always discards permutations");
        assert!(search.enumerated > 0);
        assert_eq!(search.candidates.len(), search.classes_searched as usize);
        assert_eq!(search.winner_class, result.best().class_id);
        assert_eq!(search.winner_cost, result.best().predicted_cost);
        // The per-level cost breakdown re-certifies the winner: attributed
        // costs sum bit-for-bit to the certified bottleneck price.
        assert_eq!(breakdown.attributed_total(), breakdown.total_cost);
        assert_eq!(breakdown.total_cost, result.best().predicted_cost);
        // A plain Optimize serves the identical schedule (now warm).
        let optimized: Response = serde_json::from_str(&state.handle_line(&optimize)).unwrap();
        match optimized {
            Response::Optimized { cached, result: plain, .. } => {
                assert!(cached, "Explain warmed the cache for Optimize");
                assert_eq!(plain, result, "Explain and Optimize must serve the same schedule");
            }
            other => panic!("expected Optimized, got {other:?}"),
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
    fn optimize_by_spec_payload_echoes_spec_and_embedded_shape() {
        let state = tiny_state();
        let spec = Spec::matmul(24, 16, 12);
        let line = format!(
            "{{\"Optimize\": {{\"spec\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&spec).unwrap(),
            fast_options_json(),
        );
        let response: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        match response {
            Response::Optimized { spec: echoed, shape, cached, result, .. } => {
                assert_eq!(echoed, Some(spec));
                assert_eq!(shape, spec.embedded_conv_shape());
                assert!(!cached);
                result.best().config.validate(&shape).expect("certified on the embedded nest");
            }
            other => panic!("expected Optimized, got {other:?}"),
        }
        // An invalid spec is an Error, not a panic.
        let broken = "{\"Optimize\": {\"spec\": {\"Matmul\": {\"m\": 0, \"n\": 4, \"k\": 4}}, \
                      \"machine\": {\"Preset\": \"tiny\"}}}";
        let response: Response = serde_json::from_str(&state.handle_line(broken)).unwrap();
        match response {
            Response::Error { message } => {
                assert!(message.to_ascii_lowercase().contains("invalid spec"), "{message}")
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn legacy_shape_and_tagged_spec_forms_share_one_cache_entry() {
        let state = tiny_state();
        let shape = ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap();
        let legacy = format!(
            "{{\"Optimize\": {{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&shape).unwrap(),
            fast_options_json(),
        );
        let tagged = format!(
            "{{\"Optimize\": {{\"spec\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
            serde_json::to_string(&Spec::Conv(shape)).unwrap(),
            fast_options_json(),
        );
        let cold: Response = serde_json::from_str(&state.handle_line(&legacy)).unwrap();
        let warm: Response = serde_json::from_str(&state.handle_line(&tagged)).unwrap();
        match (cold, warm) {
            (
                Response::Optimized { cached: false, result: a, .. },
                Response::Optimized { cached: true, result: b, .. },
            ) => assert_eq!(a, b, "both wire forms must serve one entry"),
            other => panic!("expected cold legacy then warm tagged, got {other:?}"),
        }
        assert_eq!(state.cache.len(), 1, "legacy and tagged forms share a cache key");
    }

    #[test]
    fn deprecated_alias_ops_are_flagged_but_still_served() {
        let state = tiny_state();
        let request = |op: &str| {
            format!(
                "{{\"Optimize\": {{\"op\": \"{op}\", \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}}}}}",
                fast_options_json(),
            )
        };
        let alias: Response = serde_json::from_str(&state.handle_line(&request("M1pw"))).unwrap();
        match alias {
            Response::Optimized { deprecated, result, .. } => {
                assert_eq!(deprecated, Some(true), "M1pw is a deprecated alias");
                assert!(!result.ranked.is_empty(), "deprecated aliases still serve");
            }
            other => panic!("expected Optimized, got {other:?}"),
        }
        let current: Response = serde_json::from_str(&state.handle_line(&request("M9"))).unwrap();
        match current {
            Response::Optimized { deprecated, .. } => assert_eq!(deprecated, None),
            other => panic!("expected Optimized, got {other:?}"),
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

    #[test]
    fn search_policy_solver_db_and_explain_agree_bit_for_bit() {
        // One pricing function behind all three: what the solver tier
        // serves, what a cold process re-ranks from the flushed database,
        // and what `Explain` breaks down are the same schedule at the same
        // price, layout included.
        let options = OptimizerOptions {
            max_classes: 1,
            layout_policy: Some(LayoutPolicy::Search),
            ..OptimizerOptions::fast()
        };
        let options = serde_json::to_string(&options).unwrap();
        let shapes = [
            ConvShape::new(1, 16, 8, 3, 3, 12, 12, 1).unwrap(),
            ConvShape::depthwise(16, 14, 3, 1),
        ];
        // A database per thread count, so every first answer is the solver's.
        for threads in [1, 4] {
            let dir = std::env::temp_dir()
                .join(format!("moptd-one-price-{threads}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let solver = ServiceState::new(64).with_db(dir.clone()).unwrap();
            let mut solved = Vec::new();
            for shape in &shapes {
                let body = format!(
                    "{{\"shape\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {options}, \"threads\": {threads}}}",
                    serde_json::to_string(shape).unwrap(),
                );
                let reply = solver.handle_line(&format!("{{\"Optimize\": {body}}}"));
                match serde_json::from_str(&reply).unwrap() {
                    Response::Optimized { tier: Some(Tier::Solver), result, .. } => {
                        solved.push((body, result.best().clone()))
                    }
                    other => panic!("expected a solver-tier answer, got {other:?}"),
                }
            }
            assert_eq!(solver.handle(&Request::Save), Response::Saved { entries: 0 });
            let cold = ServiceState::new(64).with_db(dir.clone()).unwrap();
            for (body, best) in &solved {
                let reply = cold.handle_line(&format!("{{\"Optimize\": {body}}}"));
                match serde_json::from_str(&reply).unwrap() {
                    Response::Optimized { tier: Some(Tier::Db), result, .. } => {
                        let (db, solver) = (result.best(), best);
                        assert_eq!(db.predicted_cost.to_bits(), solver.predicted_cost.to_bits());
                        assert_eq!(db.prediction, solver.prediction, "{body}");
                        assert_eq!(db.config.layout, solver.config.layout, "{body}");
                        assert_eq!(db.config.permutation, solver.config.permutation, "{body}");
                        assert_eq!(db.config.parallel, solver.config.parallel, "{body}");
                        // Multi-threaded, the database serves the solver's
                        // tiles clamped into one thread's slice (which the
                        // model prices identically); sequentially the
                        // schedules are the same value.
                        if threads == 1 {
                            assert_eq!(db, solver, "{body}");
                        }
                    }
                    other => panic!("expected a db-tier answer, got {other:?}"),
                }
                for state in [&solver, &cold] {
                    let reply = state.handle_line(&format!("{{\"Explain\": {body}}}"));
                    match serde_json::from_str(&reply).unwrap() {
                        Response::Explained { result, breakdown, .. } => {
                            assert_eq!(result.best().config.layout, best.config.layout);
                            assert_eq!(
                                breakdown.total_cost.to_bits(),
                                best.predicted_cost.to_bits(),
                                "{body}"
                            );
                            assert_eq!(breakdown.attributed_total(), breakdown.total_cost);
                            assert_eq!(breakdown.moves.is_empty(), best.config.layout.is_default());
                        }
                        other => panic!("expected Explained, got {other:?}"),
                    }
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn cold_plan_graph_walks_the_tiers_once_per_unique_node() {
        let state = tiny_state();
        let graph = mopt_graph::builders::mobilenet_v2_block_from(
            &ConvShape::depthwise(12, 14, 3, 1),
            "tiny-block",
        );
        let unique: std::collections::HashSet<Spec> =
            NamedLayer::of_graph(&graph).unwrap().into_iter().map(|layer| layer.spec).collect();
        let line = format!(
            "{{\"PlanGraph\": {{\"graph\": {}, \"machine\": {{\"Preset\": \"tiny\"}}, \"options\": {}, \"workers\": 2}}}}",
            serde_json::to_string(&graph).unwrap(),
            fast_options_json(),
        );
        let reply: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
        assert!(matches!(reply, Response::GraphPlanned { cached: false, .. }), "got {reply:?}");
        // Each unique node probed the cache once (a miss) and was solved
        // once; nothing read its schedule back through the cache.
        let stats = state.cache.stats();
        assert_eq!((stats.misses, stats.hits), (unique.len() as u64, 0));
        assert_eq!(stats.insertions, unique.len() as u64);
    }
}

//! The wire types of the JSON-lines protocol: what a request line parses
//! into and what a response line is serialized from.
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
//! Any `Optimize`/`PlanNetwork`/`PlanGraph` request may set `"trace": true`
//! to receive the request's span tree inline in the response; `Explain`
//! re-answers a shape and adds the optimizer's search trace plus the
//! winner's per-memory-level cost breakdown; `Trace` returns the slow-request
//! log (armed with `moptd --slow-ms`).

use conv_spec::{ConvShape, MachineModel, Spec};
use mopt_core::{OptimizeResult, OptimizerOptions, SearchTrace};
use mopt_graph::{Graph, GraphPlan};
use mopt_model::CostBreakdown;
use mopt_trace::SpanNode;
use serde::{Deserialize, Serialize};

use crate::batch::{NamedLayer, NetworkPlan};
use crate::cache::CacheStats;
use crate::dbtier::DbTierStats;
use crate::graphs::GraphServiceStats;
use crate::metrics::{ErrorCounts, MetricsReport, Verb};
use crate::singleflight::FlightBreakdown;

/// How a request names the target machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MachineSpec {
    /// A named preset: one of [`MachineModel::PRESET_NAMES`] or a short form.
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
                let known = MachineModel::PRESET_NAMES.map(|known| format!("\"{known}\""));
                format!("unknown machine preset `{name}` (try {})", known.join(", "))
            }),
        }
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

impl Request {
    /// The verb this request dispatches under.
    pub(crate) fn verb(&self) -> Verb {
        match self {
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
    pub(crate) fn trace_requested(&self) -> bool {
        matches!(
            self,
            Request::Optimize { trace: Some(true), .. }
                | Request::PlanNetwork { trace: Some(true), .. }
                | Request::PlanGraph { trace: Some(true), .. }
        )
    }
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

impl Response {
    /// Attach a finished span tree to the response variants that carry one.
    pub(crate) fn attach_trace(&mut self, root: SpanNode) {
        match self {
            Response::Optimized { trace, .. }
            | Response::Planned { trace, .. }
            | Response::GraphPlanned { trace, .. }
            | Response::Explained { trace, .. } => *trace = Some(root),
            _ => {}
        }
    }

    /// [`attach_trace`](Self::attach_trace) on the wire form: put `root` into
    /// the empty trace slot of `text`, a reply serialized with `trace: None`.
    /// Each variant that carries a tree declares `trace` last, so the slot is
    /// the `null` before the two closing braces, and the result is byte for
    /// byte what serializing the reply with the tree attached gives. Any
    /// other reply (an `Error`) is left as it is.
    pub(crate) fn splice_trace(text: &mut String, root: &SpanNode) {
        const EMPTY_SLOT: &str = "\"trace\":null}}";
        if text.ends_with(EMPTY_SLOT) {
            text.truncate(text.len() - "null}}".len());
            text.push_str(
                &serde_json::to_string(root).expect("writing JSON text has no failure path"),
            );
            text.push_str("}}");
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServiceState;

    fn tiny_state() -> ServiceState {
        ServiceState::new(64)
    }

    fn fast_options_json() -> String {
        let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() };
        serde_json::to_string(&options).unwrap()
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
}

//! `mopt_service`: the serving layer of the MOpt reproduction.
//!
//! The paper makes tile-size optimization cheap enough to run on demand;
//! this crate makes it cheap enough to *serve*:
//!
//! * [`cache`] — a sharded, thread-safe LRU cache of [`mopt_core::OptimizeResult`]s
//!   keyed by `(shape, machine fingerprint, optimizer options)`, with
//!   hit/miss/eviction counters,
//! * [`persist`] — versioned JSON snapshots so a warm cache survives
//!   process restarts,
//! * [`dbtier`] — the warm tier between the cache and the optimizer: a
//!   persistent, canonicalized top-k schedule database ([`mopt_db`]) whose
//!   stored entries are re-ranked for the request's thread count instead of
//!   re-solved,
//! * [`batch`] — a whole-network planner that dedupes identical layer
//!   shapes and fans the unique solves across a `std::thread` worker pool,
//! * [`graphs`] — a fingerprint-keyed cache of fusion-aware
//!   [`mopt_graph::GraphPlan`]s plus the `graph` section of the `Stats`
//!   reply,
//! * [`singleflight`] — per-key coalescing of duplicate in-flight solves:
//!   N concurrent misses on one fingerprint key share exactly one
//!   computation, and a leader panic releases (without poisoning) every
//!   waiter,
//! * [`metrics`] — per-verb latency histograms, per-verb error counters and
//!   in-flight gauges behind the `Metrics` verb,
//! * [`prometheus`] — text-exposition rendering of those metrics for
//!   `{"Metrics": {"format": "prometheus"}}`,
//! * [`wire`] — the types of the JSON-lines request/response protocol
//!   (`Optimize`, `Explain`, `PlanNetwork`, `PlanGraph`, `Suites`, `Stats`,
//!   `Save`, `Metrics`, `Trace`, `Ping`),
//! * `planning` — the four planning verbs and the one walk through the tier
//!   stack they share,
//! * [`server`] — the shared state, the administrative verbs, and the one
//!   path from a request line to its reply, served over stdin/stdout by the
//!   `moptd` binary, with opt-in end-to-end request tracing ([`mopt_trace`])
//!   threaded through every tier and a `--slow-ms` slow-request log,
//! * [`eventloop`] — the TCP front end: a non-blocking readiness event
//!   loop (epoll via the vendored [`miniepoll`] shim) that multiplexes
//!   every connection on one thread, supports pipelined requests with
//!   bounded write-buffer backpressure, hands request execution to a small
//!   worker pool, and drains gracefully on shutdown.
//!
//! Shapes on the wire carry optional `dilation` and `groups` fields
//! (defaulting to 1), so the protocol serves depthwise and dilated
//! convolutions while requests and snapshots written before the
//! generalization keep parsing — and keep hitting the same cache entries.
//! See `docs/PROTOCOL.md` at the repository root for the full JSON-lines
//! protocol.
//!
//! # Example
//!
//! ```
//! use conv_spec::{ConvShape, MachineModel};
//! use mopt_core::OptimizerOptions;
//! use mopt_service::{NetworkPlanner, ScheduleCache};
//! use mopt_service::batch::NamedLayer;
//!
//! let cache = ScheduleCache::new(128);
//! let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() };
//! let planner = NetworkPlanner::new(&cache, MachineModel::tiny_test_machine(), options);
//! let layers = vec![
//!     NamedLayer::conv("conv1", ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1)?),
//!     // A depthwise layer plans through the same cache-keyed pipeline.
//!     NamedLayer::conv("dw1", ConvShape::depthwise(8, 10, 3, 1)),
//! ];
//! let cold = planner.plan(&layers);
//! let warm = planner.plan(&layers);
//! assert_eq!(cold.layers[0].best, warm.layers[0].best);
//! assert!(warm.layers.iter().all(|l| l.from_cache));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod batch;
pub mod cache;
pub mod dbtier;
pub mod eventloop;
mod framing;
pub mod graphs;
pub mod metrics;
pub mod persist;
mod planning;
pub mod prometheus;
pub mod server;
pub mod singleflight;
mod tiers;
pub mod wire;

pub use batch::{NetworkPlan, NetworkPlanner, PlanStats, PlannedLayer};
pub use cache::{CacheKey, CacheStats, ScheduleCache};
pub use dbtier::{DbTier, DbTierStats};
pub use eventloop::{EventLoopServer, ServerConfig, ShutdownHandle};
pub use graphs::{GraphCacheKey, GraphPlanCache, GraphServiceStats};
pub use metrics::{MetricsReport, ServiceMetrics};
pub use persist::{load_snapshot, save_snapshot, PersistError, Snapshot};
pub use server::{ServiceState, MAX_REQUEST_BYTES, SLOW_LOG_CAPACITY};
pub use singleflight::{FlightBreakdown, FlightStats, SingleFlight};
pub use wire::{MachineSpec, Request, Response, ServiceStats, SlowTrace, Tier};

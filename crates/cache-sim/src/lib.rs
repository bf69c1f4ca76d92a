//! Multi-level memory-hierarchy simulation for tiled CNN executions.
//!
//! The paper validates its analytical model against hardware counters
//! (register load/stores and L1/L2/L3 misses measured with Likwid) on real
//! CPUs. This crate is the reproduction's substitute for that hardware: it
//! provides
//!
//! * [`lru::FullyAssocLru`] — an exact fully-associative LRU cache (the
//!   idealized cache the paper's model assumes), at element or line
//!   granularity,
//! * [`hierarchy::MemoryHierarchy`] — a multi-level hierarchy assembled from a
//!   [`conv_spec::MachineModel`], with per-level traffic counters,
//! * [`trace`] — an element-granularity access-trace generator that walks the
//!   multi-level tiled conv2d loop nest exactly as the generated code would
//!   (practical for scaled-down operators),
//! * [`tilesim`] — a fast tile-granularity traffic estimator that computes
//!   per-level data movement for *full-size* operators by walking consecutive
//!   tiles and measuring new data between adjacent tiles (the same adjacency
//!   reasoning the analytical model uses, but evaluated numerically, with
//!   partial tiles handled exactly),
//! * [`counters::DataMovement`] — the per-level traffic report plus
//!   bandwidth-scaled cost and a simple bottleneck performance projection.
//!
//! # Example
//!
//! ```
//! use cache_sim::lru::FullyAssocLru;
//!
//! let mut cache = FullyAssocLru::new(2, 1);
//! assert!(!cache.access(10, false)); // cold miss
//! assert!(!cache.access(20, false));
//! assert!(cache.access(10, false));  // hit
//! assert!(!cache.access(30, false)); // evicts 20
//! assert!(!cache.access(20, false)); // capacity miss
//! ```

pub mod counters;
pub mod hierarchy;
pub mod lru;
pub mod tilesim;
pub mod trace;

pub use counters::{DataMovement, LevelTraffic};
pub use hierarchy::{CacheKind, MemoryHierarchy};
pub use lru::FullyAssocLru;
pub use tilesim::{FusedPairTraffic, TileTrafficSimulator, TileTrafficStats};
pub use trace::TraceSimulator;

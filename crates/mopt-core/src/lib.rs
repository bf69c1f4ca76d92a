//! MOpt: model-driven design-space exploration and multi-level tile-size
//! optimization for CNNs — the paper's primary contribution, assembled from
//! the analytical model (`mopt-model`) and the non-linear solver
//! (`mopt-solver`). The simulator that checks the model (`cache-sim`) and the
//! executors that run its schedules (`conv-exec`) are not dependencies: the
//! validation that pairs them with this crate lives in `mopt_bench`.
//!
//! * [`optimizer`] — Algorithm 1: for each of the eight pruned permutation
//!   classes, find multi-level tile sizes by repeatedly solving one
//!   constrained non-linear problem per candidate bottleneck level, fixing
//!   the most constrained level first; floor to integers; load-balance; rank
//!   the candidates. `MOpt-1` is the best-ranked configuration, `MOpt-5` the
//!   best five (Sec. 10).
//! * [`validation`] — the two rank statistics of the model-validation
//!   methodology of Sec. 9 (Figures 5 and 6): Spearman rank correlation, and
//!   top-k loss-of-performance against the best of a sampled configuration
//!   set.
//!
//! The optimizer accepts any [`conv_spec::ConvShape`], including dilated and
//! grouped/depthwise ones: the solver's tile bounds come from the shape's
//! loop-trip counts (so the C tile is bounded by the per-group reduction
//! extent) and the capacity/dominance constraints see the generalized
//! footprints through the model crate.
//!
//! # Example
//!
//! ```
//! use conv_spec::{ConvShape, MachineModel};
//! use mopt_core::optimizer::{MOptOptimizer, OptimizerOptions};
//!
//! let shape = ConvShape::new(1, 32, 16, 3, 3, 14, 14, 1)?;
//! let machine = MachineModel::i7_9700k();
//! let optimizer = MOptOptimizer::new(shape, machine, OptimizerOptions::fast());
//! let result = optimizer.optimize();
//! let best = result.best();
//! assert!(best.config.validate(&shape).is_ok());
//!
//! // A depthwise stage optimizes the same way; its C tile is pinned at the
//! // per-group reduction extent 1.
//! let dw = ConvShape::depthwise(16, 16, 3, 1);
//! let mut options = OptimizerOptions::fast();
//! options.max_classes = 1;
//! let dw_best = MOptOptimizer::new(dw, MachineModel::tiny_test_machine(), options)
//!     .optimize();
//! assert!(dw_best.best().config.validate(&dw).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod evaluator;
mod integer;
pub mod optimizer;
pub mod pricing;
pub mod validation;

pub use optimizer::{
    CandidateSearch, LayoutPolicy, LevelHypothesis, MOptOptimizer, OptimizeResult, OptimizedConfig,
    OptimizerOptions, SearchRound, SearchTrace, MAX_MULTISTART, MAX_THREADS,
};
pub use validation::{spearman_correlation, top_k_loss};

//! Analytical data-movement modeling for multi-level tiled CNNs.
//!
//! This crate implements the paper's central contribution:
//!
//! * [`cost`] — parametric (in the tile sizes) expressions for the volume of
//!   data moved between two adjacent levels of the memory hierarchy during a
//!   single-level tiled execution of the conv2d loop nest, for **any**
//!   permutation of the seven tile loops (Sec. 3), together with the
//!   cache-capacity constraint (Eq. 4),
//! * [`prune`] — the algebraic pruning argument of Sec. 4 that reduces the
//!   7! = 5040 tile-loop permutations to eight equivalence classes guaranteed
//!   to contain a global optimum,
//! * [`multilevel`] — assembly of per-level cost expressions for multi-level
//!   tiling (Sec. 5), including the parallel adaptation of Sec. 7 and the
//!   bandwidth-scaled min–max objective,
//! * [`fused`] — a cross-layer extension pricing the fusion of a producer →
//!   consumer pair (the intermediate tensor's store + load at the DRAM
//!   boundary is deleted when the joint working set fits the same certified
//!   capacity envelope), used by `mopt_graph`'s fusion-aware planner,
//! * [`mod@move_cost`] — Morello-style pricing of layout transforms (lines
//!   touched, non-contiguity penalty, prefetch discount) and per-tensor
//!   traffic/footprint factors, composing the one-time packing cost into the
//!   same bottleneck objective (exactly zero at the paper-default layouts).
//!
//! The expressions are evaluated on real-valued tile sizes so that they can be
//! used directly as objectives/constraints of the non-linear solver, and on
//! integer tile sizes for configuration ranking and validation against the
//! cache simulator.
//!
//! # Generalized convolution
//!
//! The cost expressions cover strided, **dilated**, and **grouped** (incl.
//! depthwise) convolutions: dilation widens the input sliding window from
//! `(R-1)` to `(R-1)·dilation` halo rows, grouping shrinks the C reduction
//! and the kernel footprint by `1/groups` while a *group-span* factor charges
//! the input footprint with one channel band per group the K tile reaches.
//! For `dilation == 1, groups == 1` every expression is bit-identical to the
//! paper's dense model.
//!
//! # Example
//!
//! ```
//! use conv_spec::{ConvShape, Permutation};
//! use mopt_model::cost::{single_level_volume, RealTiles, CostOptions};
//!
//! let shape = ConvShape::new(1, 64, 32, 3, 3, 56, 56, 1)?;
//! let perm = Permutation::parse("kcrsnhw")?; // class 1 representative
//! let tiles = RealTiles::from_array([1.0, 16.0, 8.0, 3.0, 3.0, 14.0, 28.0]);
//! let dv = single_level_volume(&shape, &perm, &tiles, &CostOptions::default());
//! assert!(dv.total() > 0.0);
//!
//! // A dilated variant of the same layer moves at least as much input data
//! // (wider halo), while the kernel volume is unchanged.
//! let dilated = shape.with_dilation(2)?;
//! let dv2 = single_level_volume(&dilated, &perm, &tiles, &CostOptions::default());
//! assert!(dv2.input >= dv.input);
//! assert_eq!(dv2.kernel, dv.kernel);
//!
//! // A depthwise shape's kernel footprint shrinks by 1/groups.
//! let dw = ConvShape::depthwise(64, 56, 3, 1);
//! let full = RealTiles::full(&dw);
//! let dv_dw = single_level_volume(&dw, &perm, &full, &CostOptions::default());
//! assert_eq!(dv_dw.kernel, (64 * 9) as f64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod fused;
pub mod move_cost;
pub mod multilevel;
pub mod prune;

pub use cost::{single_level_volume, ArrayVolumes, CostOptions, RealTiles};
pub use fused::{
    evaluate_fusion, evaluate_fusion_for_threads, fusable_pair, FusabilityCheck, FusionEvaluation,
};
pub use move_cost::{
    layout_move_costs, layout_move_total, stream_traffic, traffic_factor, transform_level,
    MoveCost, NONCONTIG_PENALTY, PREFETCH_DISCOUNT,
};
pub use multilevel::{CostBreakdown, LevelCost, MultiLevelModel, ParallelSpec, Price};
pub use prune::{pruned_classes, PermutationClass};

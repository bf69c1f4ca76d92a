//! `mopt_graph`: a dataflow IR for CNN graphs and a fusion-aware
//! cross-layer planner on top of the per-operator MOpt optimizer.
//!
//! The paper's analytical model (and `mopt_core`'s Algorithm 1) optimizes
//! each convolution in isolation, so the intermediate tensor between a
//! MobileNet depthwise stage and its pointwise successor is always spilled
//! to memory and re-read. This crate reasons *across* operators:
//!
//! * [`ir`] — a small JSON-(de)serializable dataflow IR: nodes are
//!   convolutions, matrix multiplications, and poolings (everything that
//!   lowers to a `conv_spec::Spec`) plus elementwise ReLU / residual add,
//!   edges carry the intermediate tensors (dimensions + layout), with full
//!   structural validation and a stable [`Graph::fingerprint`] for plan
//!   caching,
//! * [`builders`] — MobileNetV2 inverted-residual and ResNet-style residual
//!   blocks assembled from the existing benchmark suites (`V1` ... `V9`,
//!   `R2`/`R6`/...), plus whole-network [`builders::resnet50`] and
//!   [`builders::mobilenet_v2_full`] graphs with pooling and
//!   fully-connected (matmul) heads,
//! * [`planner`] — a dynamic program over each producer → consumer chain
//!   that picks fusion cut-points: per-operator schedules come from
//!   `MOptOptimizer` (through a caller-supplied provider, so the service
//!   layer interposes its cache and worker pool), and each candidate fusion
//!   is priced with `mopt_model::fused` — the intermediate's store + load at
//!   the DRAM boundary is deleted when the segment's joint working set fits
//!   the certified L3 capacity envelope.
//!
//! The fused depthwise → pointwise segments a plan selects are executable by
//! `conv_exec::FusedDwPw`, which consumes the intermediate band-by-band in
//! cache, bit-for-bit equal to the two convolutions run sequentially.
//!
//! # Example
//!
//! ```
//! use conv_spec::{ConvShape, MachineModel};
//! use mopt_core::{MOptOptimizer, OptimizerOptions};
//! use mopt_graph::{builders, GraphPlanner};
//!
//! // A scaled-down MobileNetV2 inverted-residual block.
//! let block = builders::mobilenet_v2_block_from(
//!     &ConvShape::depthwise(12, 14, 3, 1),
//!     "example-block",
//! );
//! block.validate()?;
//!
//! let machine = MachineModel::i7_9700k();
//! let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() };
//! let planner = GraphPlanner::new(machine.clone());
//! let plan = planner.plan(&block, |spec| {
//!     MOptOptimizer::optimize_spec(spec, machine.clone(), options.clone())
//! })?;
//!
//! // The depthwise → pointwise tail fuses: the plan moves strictly less
//! // modeled DRAM traffic than planning every layer in isolation.
//! assert!(plan.fusions_taken >= 1);
//! assert!(plan.fused_volume < plan.unfused_volume);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod builders;
pub mod ir;
pub mod planner;

pub use ir::{Edge, Graph, Node, NodeId, OpKind, TensorInfo};
pub use planner::{GraphPlan, GraphPlanner, PlannedSegment, SegmentOp};

/// Errors produced by graph construction, validation, and planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no nodes.
    Empty,
    /// The graph contains a cycle (or a self-edge).
    Cyclic,
    /// An edge references a node id that does not exist.
    DanglingEdge {
        /// Producer id of the offending edge.
        from: NodeId,
        /// Consumer id of the offending edge.
        to: NodeId,
    },
    /// A node has the wrong number of inputs for its operator.
    BadArity {
        /// The node's display name.
        node: String,
        /// Inputs the operator needs.
        expected: usize,
        /// Inputs the graph supplies.
        got: usize,
    },
    /// An edge's tensor does not match what its producer emits (or, for an
    /// `Add`, the two input tensors disagree).
    EdgeTensorMismatch {
        /// Producer node name.
        from: String,
        /// Consumer node name.
        to: String,
        /// Dimensions annotated on the edge.
        edge: (usize, usize, usize, usize),
        /// Dimensions the producer actually emits.
        produced: (usize, usize, usize, usize),
    },
    /// A convolution's incoming tensor does not match its shape's input.
    ConvInputMismatch {
        /// The conv node's display name.
        node: String,
        /// The input dimensions the shape implies.
        expected: (usize, usize, usize, usize),
        /// The dimensions the incoming edge carries.
        got: (usize, usize, usize, usize),
    },
    /// A pooling window/stride does not tile the incoming extents exactly.
    PoolGeometry {
        /// The pool node's display name.
        node: String,
        /// The incoming tensor dimensions.
        input: (usize, usize, usize, usize),
        /// The window extent.
        window: usize,
        /// The window stride.
        stride: usize,
    },
    /// Two source nodes expect different graph-input tensors.
    SourceMismatch {
        /// One source's expected input dimensions.
        a: (usize, usize, usize, usize),
        /// Another source's expected input dimensions.
        b: (usize, usize, usize, usize),
    },
    /// A named block does not exist.
    UnknownBlock(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::Cyclic => write!(f, "graph contains a cycle"),
            GraphError::DanglingEdge { from, to } => {
                write!(f, "edge {from} -> {to} references a missing node")
            }
            GraphError::BadArity { node, expected, got } => {
                write!(f, "node `{node}` needs {expected} input(s), has {got}")
            }
            GraphError::EdgeTensorMismatch { from, to, edge, produced } => write!(
                f,
                "edge `{from}` -> `{to}` carries {edge:?} but the producer emits {produced:?}"
            ),
            GraphError::ConvInputMismatch { node, expected, got } => {
                write!(f, "conv `{node}` expects input {expected:?} but receives {got:?}")
            }
            GraphError::PoolGeometry { node, input, window, stride } => write!(
                f,
                "pool `{node}` window {window} stride {stride} does not tile input {input:?}"
            ),
            GraphError::SourceMismatch { a, b } => {
                write!(f, "source nodes disagree on the graph input: {a:?} vs {b:?}")
            }
            GraphError::UnknownBlock(name) => write!(f, "unknown block {name}"),
        }
    }
}

impl std::error::Error for GraphError {}

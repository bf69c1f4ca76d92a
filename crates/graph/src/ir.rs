//! The dataflow IR: CNN graphs of convolution, matmul, pooling, and
//! elementwise operators.
//!
//! A [`Graph`] is a list of [`Node`]s (convolutions, matrix multiplications,
//! poolings, ReLU, residual add) connected by [`Edge`]s that carry the
//! intermediate tensors (dimensions plus [`TensorLayout`]). Nodes with no
//! incoming edge read the graph's input tensor; every source must therefore
//! expect the same input dimensions. The IR is JSON-(de)serializable — it is
//! the payload of the `PlanGraph` service verb — and [`Graph::validate`]
//! checks referential integrity, acyclicity, per-op arity, and tensor-shape
//! consistency along every edge before any planning happens.
//!
//! Every *schedulable* node (conv, matmul, pool) lowers to a
//! [`conv_spec::Spec`] via [`Graph::node_spec`], so one optimizer and one
//! schedule database serve the whole network.

use conv_spec::{ConvShape, Fnv1a, PoolKind, Spec, TensorLayout};
use serde::{Deserialize, Serialize};

use crate::GraphError;

/// Index of a node in [`Graph::nodes`].
pub type NodeId = usize;

/// The operator a node computes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// A convolution with the given problem shape (the weights are implicit
    /// in the shape, as everywhere else in the workspace).
    Conv {
        /// The conv2d problem shape.
        shape: ConvShape,
    },
    /// A dense matrix multiplication `C[m×n] = A[m×k] · B[k×n]` — the
    /// fully-connected head of a classification network, with `m` output
    /// features, `k` input features, and the batch as the `n` columns. The
    /// weight matrix A is implicit (like conv weights); the node's tensor
    /// input is the `(n, k, 1, 1)` activation feeding B.
    MatMul {
        /// Output features (rows of C).
        m: usize,
        /// Batch columns of C.
        n: usize,
        /// Reduction extent (input features).
        k: usize,
    },
    /// A 2-D spatial pooling with a square window. Channel count and batch
    /// pass through; the output extents follow from the input tensor
    /// (`(ih - window) / stride + 1`, exact division required).
    Pool {
        /// The reduction over the window.
        kind: PoolKind,
        /// Window extent (square).
        window: usize,
        /// Window stride.
        stride: usize,
    },
    /// Elementwise rectified linear unit.
    Relu,
    /// Elementwise addition of two equal-shaped tensors (residual connection).
    Add,
}

impl OpKind {
    /// The convolution shape, when this is a conv node.
    pub fn conv_shape(&self) -> Option<&ConvShape> {
        match self {
            OpKind::Conv { shape } => Some(shape),
            _ => None,
        }
    }

    /// Whether the operator takes a per-operator schedule (conv, matmul,
    /// pool — everything that lowers to a [`Spec`]).
    pub fn is_schedulable(&self) -> bool {
        matches!(self, OpKind::Conv { .. } | OpKind::MatMul { .. } | OpKind::Pool { .. })
    }

    /// Number of tensor inputs the operator consumes.
    pub fn arity(&self) -> usize {
        match self {
            OpKind::Conv { .. } | OpKind::MatMul { .. } | OpKind::Pool { .. } | OpKind::Relu => 1,
            OpKind::Add => 2,
        }
    }
}

/// One operator instance in the graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Display name (e.g. `"expand"`, `"dw"`, `"project"`).
    pub name: String,
    /// The operator.
    pub op: OpKind,
}

/// The tensor carried by an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorInfo {
    /// Dimensions in `(N, C, H, W)` order.
    pub dims: [usize; 4],
    /// Memory layout.
    pub layout: TensorLayout,
}

impl TensorInfo {
    /// An NCHW tensor from a dimension tuple.
    pub fn nchw(dims: (usize, usize, usize, usize)) -> Self {
        TensorInfo { dims: [dims.0, dims.1, dims.2, dims.3], layout: TensorLayout::Nchw }
    }

    /// Dimensions as a tuple.
    pub fn dims_tuple(&self) -> (usize, usize, usize, usize) {
        (self.dims[0], self.dims[1], self.dims[2], self.dims[3])
    }

    /// Number of elements.
    pub fn elems(&self) -> usize {
        self.dims.iter().product()
    }
}

/// A dataflow edge: `from`'s output tensor feeds `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Producer node.
    pub from: NodeId,
    /// Consumer node.
    pub to: NodeId,
    /// The tensor flowing along the edge.
    pub tensor: TensorInfo,
}

/// A CNN dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// Display name of the graph (e.g. `"mbv2-block5"`).
    pub name: String,
    /// The operators. A node's [`NodeId`] is its index in this vector.
    pub nodes: Vec<Node>,
    /// The dataflow edges.
    pub edges: Vec<Edge>,
}

impl Graph {
    /// An empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Graph { name: name.into(), nodes: Vec::new(), edges: Vec::new() }
    }

    /// Append a node, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>, op: OpKind) -> NodeId {
        self.nodes.push(Node { name: name.into(), op });
        self.nodes.len() - 1
    }

    /// Append a conv node.
    pub fn add_conv(&mut self, name: impl Into<String>, shape: ConvShape) -> NodeId {
        self.add_node(name, OpKind::Conv { shape })
    }

    /// Append a matmul node (`m` output features, `n` batch columns, `k`
    /// reduction extent).
    pub fn add_matmul(&mut self, name: impl Into<String>, m: usize, n: usize, k: usize) -> NodeId {
        self.add_node(name, OpKind::MatMul { m, n, k })
    }

    /// Append a pooling node.
    pub fn add_pool(
        &mut self,
        name: impl Into<String>,
        kind: PoolKind,
        window: usize,
        stride: usize,
    ) -> NodeId {
        self.add_node(name, OpKind::Pool { kind, window, stride })
    }

    /// Connect `from` → `to` with an explicit tensor description.
    pub fn connect(&mut self, from: NodeId, to: NodeId, tensor: TensorInfo) {
        self.edges.push(Edge { from, to, tensor });
    }

    /// Incoming edges of a node, in insertion order.
    pub fn inputs_of(&self, node: NodeId) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.to == node).collect()
    }

    /// Outgoing edges of a node.
    pub fn outputs_of(&self, node: NodeId) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.from == node).collect()
    }

    /// Ids of the conv nodes, in node order.
    pub fn conv_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&id| matches!(self.nodes[id].op, OpKind::Conv { .. }))
            .collect()
    }

    /// Ids of the schedulable nodes (conv, matmul, pool), in node order.
    pub fn schedulable_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).filter(|&id| self.nodes[id].op.is_schedulable()).collect()
    }

    /// The [`Spec`] a schedulable node lowers to, given the per-node output
    /// dimensions from [`Graph::node_output_dims`]. `None` for elementwise
    /// nodes.
    pub fn node_spec(
        &self,
        id: NodeId,
        output_dims: &[(usize, usize, usize, usize)],
    ) -> Option<Spec> {
        match &self.nodes[id].op {
            OpKind::Conv { shape } => Some(Spec::Conv(*shape)),
            &OpKind::MatMul { m, n, k } => {
                Some(Spec::Matmul { m, n, k, dtype: Default::default() })
            }
            &OpKind::Pool { kind, window, stride } => {
                let (n, channels, h, w) = output_dims[id];
                Some(Spec::Pool { kind, n, channels, h, w, window, stride })
            }
            OpKind::Relu | OpKind::Add => None,
        }
    }

    /// A topological order of the nodes (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cyclic`] when the graph has a cycle, or
    /// [`GraphError::DanglingEdge`] when an edge references a missing node.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.nodes.len();
        let mut in_degree = vec![0usize; n];
        for e in &self.edges {
            if e.from >= n || e.to >= n {
                return Err(GraphError::DanglingEdge { from: e.from, to: e.to });
            }
            if e.from == e.to {
                return Err(GraphError::Cyclic);
            }
            in_degree[e.to] += 1;
        }
        let mut ready: Vec<NodeId> = (0..n).filter(|&i| in_degree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = ready.pop() {
            order.push(id);
            for e in self.edges.iter().filter(|e| e.from == id) {
                in_degree[e.to] -= 1;
                if in_degree[e.to] == 0 {
                    ready.push(e.to);
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::Cyclic);
        }
        Ok(order)
    }

    /// The output tensor dimensions of every node, computed in topological
    /// order (elementwise ops propagate their input dimensions; convs produce
    /// their shape's output dimensions).
    ///
    /// # Errors
    ///
    /// Returns the first structural or shape inconsistency found (see
    /// [`Graph::validate`] for the full list).
    pub fn node_output_dims(&self) -> Result<Vec<(usize, usize, usize, usize)>, GraphError> {
        let order = self.topo_order()?;
        let mut dims = vec![(0, 0, 0, 0); self.nodes.len()];
        for id in order {
            let node = &self.nodes[id];
            let inputs = self.inputs_of(id);
            if !inputs.is_empty() && inputs.len() != node.op.arity() {
                return Err(GraphError::BadArity {
                    node: node.name.clone(),
                    expected: node.op.arity(),
                    got: inputs.len(),
                });
            }
            // Every incoming edge must carry the tensor its producer emits.
            for e in &inputs {
                if e.tensor.dims_tuple() != dims[e.from] {
                    return Err(GraphError::EdgeTensorMismatch {
                        from: self.nodes[e.from].name.clone(),
                        to: node.name.clone(),
                        edge: e.tensor.dims_tuple(),
                        produced: dims[e.from],
                    });
                }
            }
            dims[id] = match &node.op {
                OpKind::Conv { shape } => {
                    if let Some(e) = inputs.first() {
                        if e.tensor.dims_tuple() != shape.input_dims() {
                            return Err(GraphError::ConvInputMismatch {
                                node: node.name.clone(),
                                expected: shape.input_dims(),
                                got: e.tensor.dims_tuple(),
                            });
                        }
                    }
                    shape.output_dims()
                }
                &OpKind::MatMul { m, n, k } => {
                    if let Some(e) = inputs.first() {
                        if e.tensor.dims_tuple() != (n, k, 1, 1) {
                            return Err(GraphError::ConvInputMismatch {
                                node: node.name.clone(),
                                expected: (n, k, 1, 1),
                                got: e.tensor.dims_tuple(),
                            });
                        }
                    }
                    (n, m, 1, 1)
                }
                &OpKind::Pool { window, stride, .. } => {
                    let e = inputs.first().ok_or_else(|| GraphError::BadArity {
                        node: node.name.clone(),
                        expected: 1,
                        got: 0,
                    })?;
                    let (b, c, ih, iw) = e.tensor.dims_tuple();
                    let fits = |extent: usize| {
                        extent >= window && (extent - window).is_multiple_of(stride)
                    };
                    if !fits(ih) || !fits(iw) {
                        return Err(GraphError::PoolGeometry {
                            node: node.name.clone(),
                            input: (b, c, ih, iw),
                            window,
                            stride,
                        });
                    }
                    (b, c, (ih - window) / stride + 1, (iw - window) / stride + 1)
                }
                OpKind::Relu => {
                    let e = inputs.first().ok_or_else(|| GraphError::BadArity {
                        node: node.name.clone(),
                        expected: 1,
                        got: 0,
                    })?;
                    e.tensor.dims_tuple()
                }
                OpKind::Add => {
                    if inputs.len() != 2 {
                        return Err(GraphError::BadArity {
                            node: node.name.clone(),
                            expected: 2,
                            got: inputs.len(),
                        });
                    }
                    if inputs[0].tensor.dims_tuple() != inputs[1].tensor.dims_tuple() {
                        return Err(GraphError::EdgeTensorMismatch {
                            from: self.nodes[inputs[1].from].name.clone(),
                            to: node.name.clone(),
                            edge: inputs[1].tensor.dims_tuple(),
                            produced: inputs[0].tensor.dims_tuple(),
                        });
                    }
                    inputs[0].tensor.dims_tuple()
                }
            };
        }
        Ok(dims)
    }

    /// The input dimensions the graph expects: every source node (no incoming
    /// edges) must agree on them.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SourceMismatch`] when sources disagree, or
    /// [`GraphError::Empty`] when the graph has no nodes.
    pub fn input_dims(&self) -> Result<(usize, usize, usize, usize), GraphError> {
        let mut expected: Option<(usize, usize, usize, usize)> = None;
        for (id, node) in self.nodes.iter().enumerate() {
            if !self.inputs_of(id).is_empty() {
                continue;
            }
            let dims = match &node.op {
                OpKind::Conv { shape } => shape.input_dims(),
                &OpKind::MatMul { n, k, .. } => (n, k, 1, 1),
                // Pool and elementwise sources would read the graph input
                // directly; their dimensionality cannot be derived, so
                // forbid them.
                OpKind::Pool { .. } | OpKind::Relu | OpKind::Add => {
                    return Err(GraphError::BadArity {
                        node: node.name.clone(),
                        expected: node.op.arity(),
                        got: 0,
                    })
                }
            };
            match expected {
                None => expected = Some(dims),
                Some(prev) if prev != dims => {
                    return Err(GraphError::SourceMismatch { a: prev, b: dims })
                }
                Some(_) => {}
            }
        }
        expected.ok_or(GraphError::Empty)
    }

    /// Full structural validation: edges reference real nodes, the graph is
    /// acyclic and non-empty, every op has its arity satisfied, every edge's
    /// tensor matches both its producer's output and its consumer's
    /// expectation, and all sources agree on the graph input dimensions.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.input_dims()?;
        self.node_output_dims().map(|_| ())
    }

    /// A stable 64-bit fingerprint of the whole graph — node names, ops,
    /// shapes, edges, and tensors — using the same process-stable FNV-1a as
    /// [`ConvShape::fingerprint`] and `MachineModel::fingerprint`, so
    /// persisted graph-plan caches can key on it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(self.name.as_bytes());
        h.u64(self.nodes.len() as u64);
        for node in &self.nodes {
            h.bytes(node.name.as_bytes());
            match &node.op {
                OpKind::Conv { shape } => {
                    h.bytes(&[0u8]);
                    h.u64(shape.fingerprint());
                }
                OpKind::Relu => h.bytes(&[1u8]),
                OpKind::Add => h.bytes(&[2u8]),
                &OpKind::MatMul { m, n, k } => {
                    h.bytes(&[3u8]);
                    for v in [m, n, k] {
                        h.u64(v as u64);
                    }
                }
                &OpKind::Pool { kind, window, stride } => {
                    h.bytes(&[4u8]);
                    h.bytes(&[match kind {
                        PoolKind::Max => 0u8,
                        PoolKind::Avg => 1u8,
                    }]);
                    for v in [window, stride] {
                        h.u64(v as u64);
                    }
                }
            }
        }
        h.u64(self.edges.len() as u64);
        for e in &self.edges {
            for v in [e.from as u64, e.to as u64] {
                h.u64(v);
            }
            for d in e.tensor.dims {
                h.u64(d as u64);
            }
            // Tag bytes are append-only: pre-layout-axis graphs only ever
            // contain NCHW/NHWC edges, so their fingerprints are unchanged.
            match e.tensor.layout {
                TensorLayout::Nchw => h.bytes(&[0u8]),
                TensorLayout::Nhwc => h.bytes(&[1u8]),
                TensorLayout::Nchwc { c_block } => {
                    h.bytes(&[2u8]);
                    h.u64(c_block as u64);
                }
            }
        }
        h.finish()
    }
}

impl std::fmt::Display for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({} nodes, {} edges)", self.name, self.nodes.len(), self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_graph() -> Graph {
        let dw = ConvShape::depthwise(8, 12, 3, 1);
        let pw = ConvShape::new(1, 4, 8, 1, 1, dw.h, dw.w, 1).unwrap();
        let mut g = Graph::new("test-chain");
        let a = g.add_conv("dw", dw);
        let r = g.add_node("relu", OpKind::Relu);
        let b = g.add_conv("pw", pw);
        g.connect(a, r, TensorInfo::nchw(dw.output_dims()));
        g.connect(r, b, TensorInfo::nchw(dw.output_dims()));
        g
    }

    #[test]
    fn chain_validates_and_orders() {
        let g = chain_graph();
        g.validate().unwrap();
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 3);
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(2));
        let dims = g.node_output_dims().unwrap();
        assert_eq!(dims[2], (1, 4, 10, 10));
        assert_eq!(g.input_dims().unwrap(), (1, 8, 12, 12));
        assert_eq!(g.conv_nodes(), vec![0, 2]);
    }

    #[test]
    fn cycles_and_dangling_edges_are_rejected() {
        let mut g = chain_graph();
        g.connect(2, 0, TensorInfo::nchw((1, 4, 10, 10)));
        assert!(matches!(g.topo_order(), Err(GraphError::Cyclic)));

        let mut g = chain_graph();
        g.connect(0, 99, TensorInfo::nchw((1, 8, 10, 10)));
        assert!(matches!(g.topo_order(), Err(GraphError::DanglingEdge { .. })));

        let mut g = chain_graph();
        g.connect(1, 1, TensorInfo::nchw((1, 8, 10, 10)));
        assert!(matches!(g.topo_order(), Err(GraphError::Cyclic)));
    }

    #[test]
    fn arity_and_shape_mismatches_are_rejected() {
        // Conv with two inputs.
        let dw = ConvShape::depthwise(8, 12, 3, 1);
        let mut g = Graph::new("bad-arity");
        let a = g.add_conv("a", dw);
        let b = g.add_conv("b", dw);
        let pw = ConvShape::new(1, 4, 8, 1, 1, dw.h, dw.w, 1).unwrap();
        let c = g.add_conv("c", pw);
        g.connect(a, c, TensorInfo::nchw(dw.output_dims()));
        g.connect(b, c, TensorInfo::nchw(dw.output_dims()));
        assert!(matches!(g.validate(), Err(GraphError::BadArity { .. })));

        // Edge whose tensor disagrees with the producer's output.
        let mut g = Graph::new("bad-tensor");
        let a = g.add_conv("a", dw);
        let c = g.add_conv("c", pw);
        g.connect(a, c, TensorInfo::nchw((1, 8, 9, 9)));
        assert!(matches!(g.validate(), Err(GraphError::EdgeTensorMismatch { .. })));

        // Edge consistent with the producer but not with the consumer conv.
        let mut g = Graph::new("bad-conv-input");
        let a = g.add_conv("a", dw);
        let wrong = ConvShape::new(1, 4, 8, 1, 1, 4, 4, 1).unwrap();
        let c = g.add_conv("c", wrong);
        g.connect(a, c, TensorInfo::nchw(dw.output_dims()));
        assert!(matches!(g.validate(), Err(GraphError::ConvInputMismatch { .. })));

        // A relu source has no derivable input.
        let mut g = Graph::new("relu-source");
        g.add_node("r", OpKind::Relu);
        assert!(matches!(g.validate(), Err(GraphError::BadArity { .. })));

        // Empty graph.
        assert!(matches!(Graph::new("empty").validate(), Err(GraphError::Empty)));
    }

    #[test]
    fn add_requires_equal_inputs() {
        let s = ConvShape::new(1, 4, 4, 1, 1, 6, 6, 1).unwrap();
        let t = ConvShape::new(1, 4, 4, 1, 1, 5, 5, 1).unwrap();
        let mut g = Graph::new("bad-add");
        let a = g.add_conv("a", s);
        let b = g.add_conv("b", t);
        let add = g.add_node("add", OpKind::Add);
        g.connect(a, add, TensorInfo::nchw(s.output_dims()));
        g.connect(b, add, TensorInfo::nchw(t.output_dims()));
        // Sources disagree on the graph input first.
        assert!(matches!(g.validate(), Err(GraphError::SourceMismatch { .. })));
        assert!(matches!(g.node_output_dims(), Err(GraphError::EdgeTensorMismatch { .. })));
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_structure() {
        let g = chain_graph();
        assert_eq!(g.fingerprint(), chain_graph().fingerprint());
        let mut renamed = chain_graph();
        renamed.name = "other".into();
        assert_ne!(g.fingerprint(), renamed.fingerprint());
        let mut reshaped = chain_graph();
        if let OpKind::Conv { shape } = &mut reshaped.nodes[2].op {
            shape.k += 1;
        }
        assert_ne!(g.fingerprint(), reshaped.fingerprint());
        let mut rewired = chain_graph();
        rewired.edges[1].to = 0;
        assert_ne!(g.fingerprint(), rewired.fingerprint());
    }

    #[test]
    fn graph_round_trips_through_json() {
        let g = chain_graph();
        let text = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&text).unwrap();
        assert_eq!(g, back);
        assert_eq!(g.fingerprint(), back.fingerprint());
    }
}

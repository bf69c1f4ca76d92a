//! A graph's plan: one schedule per operator, in dataflow order.
//!
//! The schedules come from outside this crate (the service resolves them
//! through its tiers, as it does a network's layers); this module orders
//! them. The graph's schedulable operators (conv, matmul, pool) are
//! decomposed into producer → consumer chains, and every operator becomes a
//! segment of its own, chain by chain, whose volume is its schedule's
//! modeled DRAM-boundary (L3-fill) traffic.
//!
//! An operator pair is *chained* when the producer's output reaches the
//! consumer through nothing but out-degree-1 elementwise nodes. The chains
//! fix the order of the segments and the plan's `chains` count. Nothing is
//! fused: no executor runs a fused segment faster than its operators one
//! after another.

use std::collections::HashMap;
use std::time::Instant;

use conv_spec::{ConvShape, Spec, TilingLevel};
use mopt_core::OptimizedConfig;
use serde::{Deserialize, Serialize};

use crate::ir::{Graph, NodeId, OpKind};
use crate::GraphError;

/// One schedulable operator inside a planned segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentOp {
    /// The node id in the source graph.
    pub node: NodeId,
    /// The node's display name.
    pub name: String,
    /// The generalized problem the node computes.
    pub spec: Spec,
    /// The conv2d embedding of [`SegmentOp::spec`] (for convs, the shape
    /// itself) — the loop nest the schedule tiles.
    pub shape: ConvShape,
    /// The best per-operator schedule (MOpt-1).
    pub best: OptimizedConfig,
}

/// A planned segment: one schedulable operator.
///
/// The fusion fields stay on the wire for the clients and fixtures that
/// read them: `relu_between` is always empty and `fused` and
/// `executable_dw_pw` are always false.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedSegment {
    /// The segment's operator (always exactly one).
    pub ops: Vec<SegmentOp>,
    /// Always empty: a one-op segment has no interior edge.
    pub relu_between: Vec<bool>,
    /// Always false.
    pub fused: bool,
    /// Always false.
    pub executable_dw_pw: bool,
    /// The operator's modeled DRAM-boundary volume (elements).
    pub unfused_volume: f64,
    /// Equal to [`PlannedSegment::unfused_volume`].
    pub volume: f64,
}

/// The per-operator plan for a whole graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphPlan {
    /// The graph's display name.
    pub graph: String,
    /// [`Graph::fingerprint`] of the planned graph.
    pub fingerprint: u64,
    /// `MachineModel::fingerprint` of the target machine.
    pub machine_fingerprint: u64,
    /// One segment per schedulable node, in chain order.
    pub segments: Vec<PlannedSegment>,
    /// Number of producer → consumer chains the schedulable nodes formed.
    pub chains: usize,
    /// Elementwise (ReLU / add) nodes riding along in the graph.
    pub elementwise_ops: usize,
    /// Always 0: the planner considers no fusion.
    pub fusion_candidates: usize,
    /// Always 0.
    pub fusions_taken: usize,
    /// Always 0.
    pub fusions_rejected: usize,
    /// Total modeled DRAM-boundary volume of the segments.
    pub unfused_volume: f64,
    /// Equal to [`GraphPlan::unfused_volume`].
    pub fused_volume: f64,
    /// Wall-clock seconds spent laying the resolved schedules out (their
    /// resolution excluded).
    pub plan_seconds: f64,
}

/// Lay `graph`'s per-operator schedules out as its plan: one segment per
/// schedulable node (conv, matmul, pool) in chain order, each with the
/// schedule `best` holds for the node's spec, the segments' volumes summed
/// in that order. `machine_fingerprint` names the machine the schedules
/// were planned for.
///
/// # Errors
///
/// Returns the error of a graph whose tensor dimensions do not propagate;
/// a graph that validates has none.
///
/// # Panics
///
/// Panics if `best` holds no schedule for a schedulable node's spec.
pub fn render_plan(
    graph: &Graph,
    machine_fingerprint: u64,
    best: &HashMap<Spec, OptimizedConfig>,
) -> Result<GraphPlan, GraphError> {
    let started = Instant::now();
    let dims = graph.node_output_dims()?;
    let chains = spec_chains(graph);

    let mut segments = Vec::new();
    let mut total = 0.0;
    for &node in chains.iter().flatten() {
        let spec = graph.node_spec(node, &dims).expect("chain node is schedulable");
        let best = best[&spec].clone();
        let volume = best.prediction.volume(TilingLevel::L3);
        total += volume;
        let op = SegmentOp {
            node,
            name: graph.nodes[node].name.clone(),
            spec,
            shape: spec.embedded_conv_shape(),
            best,
        };
        segments.push(PlannedSegment {
            ops: vec![op],
            relu_between: Vec::new(),
            fused: false,
            executable_dw_pw: false,
            unfused_volume: volume,
            volume,
        });
    }

    let elementwise_ops = graph.nodes.iter().filter(|n| !n.op.is_schedulable()).count();
    Ok(GraphPlan {
        graph: graph.name.clone(),
        fingerprint: graph.fingerprint(),
        machine_fingerprint,
        segments,
        chains: chains.len(),
        elementwise_ops,
        fusion_candidates: 0,
        fusions_taken: 0,
        fusions_rejected: 0,
        unfused_volume: total,
        fused_volume: total,
        plan_seconds: started.elapsed().as_secs_f64(),
    })
}

/// Decompose the graph's schedulable nodes (conv, matmul, pool) into maximal
/// producer → consumer chains. A link a → b exists when b's data input
/// reaches back to schedulable node a through out-degree-1 elementwise nodes
/// only, and a itself has out-degree 1 (its intermediate has no other
/// consumer). Nodes that link to nothing form singleton chains. Chains are
/// returned in topological order of their heads, each producer first.
fn spec_chains(graph: &Graph) -> Vec<Vec<NodeId>> {
    let scheds = graph.schedulable_nodes();
    // upstream[b] = the chain predecessor of node b.
    let mut upstream: Vec<Option<NodeId>> = vec![None; graph.nodes.len()];
    for &b in &scheds {
        let mut inputs = graph.inputs_of(b);
        while let Some(edge) = inputs.first() {
            let p = edge.from;
            if graph.outputs_of(p).len() != 1 {
                break;
            }
            match &graph.nodes[p].op {
                op if op.is_schedulable() => {
                    upstream[b] = Some(p);
                    break;
                }
                OpKind::Relu => inputs = graph.inputs_of(p),
                _ => break,
            }
        }
    }
    // Invert into next-links; heads are nodes that are nobody's successor.
    let mut next: Vec<Option<NodeId>> = vec![None; graph.nodes.len()];
    let mut is_successor = vec![false; graph.nodes.len()];
    for &b in &scheds {
        if let Some(a) = upstream[b] {
            next[a] = Some(b);
            is_successor[b] = true;
        }
    }
    let mut chains = Vec::new();
    for &head in &scheds {
        if is_successor[head] {
            continue;
        }
        let mut chain = vec![head];
        let mut cur = head;
        while let Some(b) = next[cur] {
            chain.push(b);
            cur = b;
        }
        chains.push(chain);
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::ir::TensorInfo;
    use conv_spec::MachineModel;
    use mopt_core::{MOptOptimizer, OptimizerOptions};

    /// Solve every schedulable node of `graph` for `machine`, then render.
    fn plan_for(graph: &Graph, machine: &MachineModel) -> GraphPlan {
        let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() };
        let dims = graph.node_output_dims().unwrap();
        let best = graph
            .schedulable_nodes()
            .into_iter()
            .filter_map(|node| graph.node_spec(node, &dims))
            .map(|spec| {
                let result = MOptOptimizer::optimize_spec(&spec, machine.clone(), options.clone());
                (spec, result.best().clone())
            })
            .collect();
        render_plan(graph, machine.fingerprint(), &best).unwrap()
    }

    fn small_block() -> Graph {
        builders::mobilenet_v2_block_from(&ConvShape::depthwise(12, 14, 3, 1), "small-block")
    }

    #[test]
    fn chain_extraction_walks_through_relu() {
        let g = small_block();
        let chains = spec_chains(&g);
        assert_eq!(chains.len(), 1);
        assert_eq!(
            chains[0].iter().map(|&n| g.nodes[n].name.as_str()).collect::<Vec<_>>(),
            ["expand", "dw", "project"]
        );
    }

    #[test]
    fn residual_fanout_breaks_chains() {
        let g = builders::resnet_residual_block_from(
            &ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap(),
            "res",
        );
        let chains = spec_chains(&g);
        // conv1 → conv2 chain (conv2's output feeds the add, breaking the
        // chain there) plus the skip conv alone.
        assert_eq!(chains.len(), 2);
        assert_eq!(chains.iter().map(|c| c.len()).sum::<usize>(), 3);
    }

    #[test]
    fn shared_intermediates_are_never_chained() {
        // dw feeds two pointwise consumers: neither is its chain successor.
        let dw = ConvShape::depthwise(8, 12, 3, 1);
        let pw = ConvShape::new(1, 4, 8, 1, 1, dw.h, dw.w, 1).unwrap();
        let mut g = Graph::new("fanout");
        let a = g.add_conv("dw", dw);
        let b = g.add_conv("pw1", pw);
        let c = g.add_conv("pw2", pw);
        g.connect(a, b, TensorInfo::nchw(dw.output_dims()));
        g.connect(a, c, TensorInfo::nchw(dw.output_dims()));
        g.validate().unwrap();
        let chains = spec_chains(&g);
        assert_eq!(chains.len(), 3);
        assert!(chains.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn plan_serves_one_segment_per_schedulable_node_in_chain_order() {
        let g = small_block();
        let machine = MachineModel::i7_9700k();
        let plan = plan_for(&g, &machine);
        assert_eq!(plan.fingerprint, g.fingerprint());
        assert_eq!(plan.machine_fingerprint, machine.fingerprint());
        assert_eq!(plan.chains, 1);
        assert_eq!(plan.elementwise_ops, 2);
        let chain_order: Vec<NodeId> = spec_chains(&g).into_iter().flatten().collect();
        assert_eq!(plan.segments.iter().map(|s| s.ops[0].node).collect::<Vec<_>>(), chain_order);
        let mut total = 0.0;
        for seg in &plan.segments {
            assert_eq!((seg.ops.len(), seg.fused, seg.executable_dw_pw), (1, false, false));
            assert!(seg.relu_between.is_empty());
            let l3 = seg.ops[0].best.prediction.volume(TilingLevel::L3);
            assert_eq!((seg.volume, seg.unfused_volume), (l3, l3));
            total += l3;
        }
        assert_eq!((plan.fusion_candidates, plan.fusions_taken, plan.fusions_rejected), (0, 0, 0));
        assert_eq!(plan.unfused_volume.to_bits(), total.to_bits());
        assert_eq!(plan.fused_volume.to_bits(), plan.unfused_volume.to_bits());
    }

    #[test]
    fn pool_after_conv_chains_through_relu() {
        // conv → relu → pool(2x2 s2): chainable through the relu.
        let conv = ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap();
        let mut g = Graph::new("conv-pool");
        let c = g.add_conv("conv", conv);
        let r = g.add_node("relu", OpKind::Relu);
        let p = g.add_pool("pool", conv_spec::PoolKind::Max, 2, 2);
        let out = TensorInfo::nchw(conv.output_dims());
        g.connect(c, r, out);
        g.connect(r, p, out);
        g.validate().unwrap();

        let machine = MachineModel::i7_9700k();
        let plan = plan_for(&g, &machine);
        assert_eq!(plan.chains, 1);
        assert_eq!(plan.segments.len(), 2);
        assert!(matches!(plan.segments[1].ops[0].spec, Spec::Pool { .. }));

        // An overlapping window (3x3 s1) chains the same way.
        let mut g2 = Graph::new("conv-pool-overlap");
        let c = g2.add_conv("conv", conv);
        let p = g2.add_pool("pool", conv_spec::PoolKind::Avg, 3, 1);
        g2.connect(c, p, out);
        let plan2 = plan_for(&g2, &machine);
        assert_eq!(plan2.chains, 1);
        assert_eq!(plan2.segments.len(), 2);
    }

    #[test]
    fn matmul_head_plans_as_its_own_segment() {
        // global-pool → fc: the matmul chains after the pool, and its
        // schedule solves on the conv embedding.
        let conv = ConvShape::new(1, 16, 4, 3, 3, 6, 6, 1).unwrap();
        let mut g = Graph::new("head");
        let c = g.add_conv("conv", conv);
        let gp = g.add_pool("gap", conv_spec::PoolKind::Avg, 6, 1);
        let fc = g.add_matmul("fc", 10, 1, 16);
        g.connect(c, gp, TensorInfo::nchw(conv.output_dims()));
        g.connect(gp, fc, TensorInfo::nchw((1, 16, 1, 1)));
        g.validate().unwrap();

        let plan = plan_for(&g, &MachineModel::tiny_test_machine());
        let total_ops: usize = plan.segments.iter().map(|s| s.ops.len()).sum();
        assert_eq!(total_ops, 3);
        assert_eq!(plan.chains, 1);
        let fc_seg = plan
            .segments
            .iter()
            .find(|s| s.ops.iter().any(|o| matches!(o.spec, Spec::Matmul { .. })))
            .expect("fc planned");
        let fc_op = &fc_seg.ops.last().unwrap();
        assert_eq!(fc_op.shape, fc_op.spec.embedded_conv_shape());
        assert!(fc_op.best.config.validate(&fc_op.shape).is_ok());
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = plan_for(&small_block(), &MachineModel::tiny_test_machine());
        let text = serde_json::to_string(&plan).unwrap();
        let back: GraphPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(plan, back);
    }
}

//! The fusion-aware cross-layer planner.
//!
//! Per-operator schedules come from `MOptOptimizer` (through a caller-
//! supplied provider, so the service layer can interpose its schedule cache
//! and worker pool); this module decides *where to cut*: a dynamic program
//! over each producer → consumer chain of schedulable operators (conv,
//! matmul, pool) chooses the segments whose interior intermediates are
//! consumed in cache, and prices them itself: the store + load of the
//! intermediate tensor is deleted when the segment's joint working set fits
//! the certified L3 capacity envelope. Only DRAM-boundary (L3-fill) traffic
//! is credited; inner levels keep their per-operator volumes.
//!
//! An operator pair is *chainable* when the producer's output reaches the
//! consumer through nothing but out-degree-1 elementwise nodes: if the
//! intermediate has any other consumer it must be materialized anyway, so
//! fusion could not delete its store. Conv → conv pairs are admissible under
//! the pointwise-consumer rule of [`mopt_model::fused`]; conv → pool pairs
//! are admissible when the pool window is non-overlapping
//! (`window == stride`), so each produced band is consumed once; matmul
//! never fuses (its operand layout differs from the NCHW stream).

use std::time::Instant;

use conv_spec::{ConvShape, MachineModel, Spec, TilingLevel};
use mopt_core::{OptimizeResult, OptimizedConfig};
use mopt_model::fused::{fusable_pair, FusabilityCheck};
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

/// A planned segment: one or more convolutions executed with their
/// intermediates kept in cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedSegment {
    /// The convolutions of the segment, producer first.
    pub ops: Vec<SegmentOp>,
    /// For each interior edge, whether a ReLU sits between the producer and
    /// the consumer (the fused executor applies it to the in-cache band).
    pub relu_between: Vec<bool>,
    /// Whether the segment fuses at least one pair (`ops.len() > 1`).
    pub fused: bool,
    /// Whether the segment is the exact depthwise → pointwise pattern the
    /// fused executor in `conv_exec` runs.
    pub executable_dw_pw: bool,
    /// Sum of the member schedules' modeled DRAM-boundary volumes (elements).
    pub unfused_volume: f64,
    /// The segment's modeled DRAM-boundary volume after fusion credits.
    pub volume: f64,
}

impl PlannedSegment {
    /// Elements of modeled DRAM traffic the segment's fusions delete.
    pub fn saving(&self) -> f64 {
        self.unfused_volume - self.volume
    }
}

/// The fusion-aware plan for a whole graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphPlan {
    /// The graph's display name.
    pub graph: String,
    /// [`Graph::fingerprint`] of the planned graph.
    pub fingerprint: u64,
    /// `MachineModel::fingerprint` of the target machine.
    pub machine_fingerprint: u64,
    /// The chosen segments, in dataflow order.
    pub segments: Vec<PlannedSegment>,
    /// Number of producer → consumer chains the convolutions formed.
    pub chains: usize,
    /// Elementwise (ReLU / add) nodes riding along in the graph.
    pub elementwise_ops: usize,
    /// Structurally fusable adjacent pairs considered by the planner.
    pub fusion_candidates: usize,
    /// Pairs fused in the final plan (interior edges of multi-op segments).
    pub fusions_taken: usize,
    /// Structurally fusable pairs the planner did not fuse (capacity
    /// envelope violations or dynamic-program cuts).
    pub fusions_rejected: usize,
    /// Total modeled DRAM-boundary volume with every op planned in isolation.
    pub unfused_volume: f64,
    /// Total modeled DRAM-boundary volume of the chosen plan.
    pub fused_volume: f64,
    /// Wall-clock seconds spent planning (excluding provider solve time the
    /// caller may have amortized elsewhere).
    pub plan_seconds: f64,
}

impl GraphPlan {
    /// Elements of modeled DRAM traffic the plan's fusions delete.
    pub fn saving(&self) -> f64 {
        self.unfused_volume - self.fused_volume
    }

    /// The fused depthwise → pointwise segments, ready for the fused
    /// executor.
    pub fn executable_segments(&self) -> impl Iterator<Item = &PlannedSegment> {
        self.segments.iter().filter(|s| s.fused && s.executable_dw_pw)
    }
}

/// One link of a convolution chain: consumer id plus whether a ReLU sits on
/// the connecting path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChainLink {
    to: NodeId,
    relu: bool,
}

/// Plans whole graphs against one machine model.
#[derive(Debug, Clone)]
pub struct GraphPlanner {
    machine: MachineModel,
    threads: usize,
}

impl GraphPlanner {
    /// A planner for `machine` (sequential execution).
    pub fn new(machine: MachineModel) -> Self {
        GraphPlanner { machine, threads: 1 }
    }

    /// Plan for `threads` active threads: fusion admissibility is checked
    /// against the *per-thread* L3 envelope
    /// ([`MachineModel::capacity_per_thread`]) — with the shared last-level
    /// cache divided among co-running threads, a fused segment's joint
    /// working set must fit one thread's share. `threads == 1` is the
    /// whole-cache envelope.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The machine model.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The thread count the fusion envelope assumes.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Plan `graph`: validate it, obtain a per-operator schedule for every
    /// schedulable node (conv, matmul, pool) from `schedule` (typically a
    /// cache-backed `MOptOptimizer` call on the spec's conv embedding), and
    /// run the fusion dynamic program.
    ///
    /// # Errors
    ///
    /// Returns the graph's first validation error; planning itself cannot
    /// fail on a valid graph.
    pub fn plan<F: FnMut(&Spec) -> OptimizeResult>(
        &self,
        graph: &Graph,
        mut schedule: F,
    ) -> Result<GraphPlan, GraphError> {
        graph.validate()?;
        let started = Instant::now();
        let dims = graph.node_output_dims()?;
        let chains = spec_chains(graph);
        let capacity = self.machine.capacity_per_thread(TilingLevel::L3, self.threads) as f64;

        let mut segments = Vec::new();
        let mut fusion_candidates = 0;
        let mut fusions_taken = 0;
        let mut unfused_total = 0.0;
        let mut fused_total = 0.0;
        for chain in &chains {
            // Per-op schedules and model volumes.
            let ops: Vec<SegmentOp> = chain
                .iter()
                .map(|link| {
                    let spec = graph.node_spec(link.to, &dims).expect("chain node is schedulable");
                    let best = schedule(&spec).best().clone();
                    SegmentOp {
                        node: link.to,
                        name: graph.nodes[link.to].name.clone(),
                        spec,
                        shape: spec.embedded_conv_shape(),
                        best,
                    }
                })
                .collect();
            let volumes: Vec<f64> =
                ops.iter().map(|op| op.best.prediction.volume(TilingLevel::L3)).collect();
            let footprints: Vec<f64> = ops
                .iter()
                .map(|op| op.best.config.level(TilingLevel::L3).footprint(&op.shape) as f64)
                .collect();
            // Price every interior edge. A conv producer may fuse into a
            // pointwise conv consumer ([`fusable_pair`]) or into a pool
            // whose window does not overlap (`window == stride`); either
            // way fusion deletes the store and the load of the intermediate
            // tensor. Everything else never fuses.
            let m = ops.len();
            let mut structural = vec![false; m.saturating_sub(1)];
            let mut savings = vec![0.0f64; m.saturating_sub(1)];
            for i in 0..m.saturating_sub(1) {
                if let Spec::Conv(a) = &ops[i].spec {
                    structural[i] = match ops[i + 1].spec {
                        Spec::Conv(b) => fusable_pair(a, &b) == FusabilityCheck::Fusable,
                        Spec::Pool { window, stride, .. } => window == stride,
                        _ => false,
                    };
                    savings[i] = 2.0 * a.output_elems() as f64;
                }
                if structural[i] {
                    fusion_candidates += 1;
                }
            }

            // Dynamic program over cut points: best[i] = cheapest plan of
            // ops[..i]. A segment is admissible when every interior pair is
            // structurally fusable and the joint L3 footprint of *all*
            // members (each op's certified L3 tile, the intermediate counted
            // in both) fits one thread's share of the L3 capacity. Both sums
            // are monotone leftward, so the first violation ends the scan.
            let mut best = vec![f64::INFINITY; m + 1];
            let mut cut = vec![0usize; m + 1];
            best[0] = 0.0;
            for i in 1..=m {
                // Single-op segment (always admissible), then grow leftward.
                best[i] = best[i - 1] + volumes[i - 1];
                cut[i] = i - 1;
                let mut fp_sum = footprints[i - 1];
                let mut vol_sum = volumes[i - 1];
                let mut save_sum = 0.0;
                for j in (0..i - 1).rev() {
                    if !structural[j] {
                        break;
                    }
                    fp_sum += footprints[j];
                    if fp_sum > capacity {
                        break;
                    }
                    vol_sum += volumes[j];
                    save_sum += savings[j];
                    let cost = best[j] + (vol_sum - save_sum).max(0.0);
                    if cost < best[i] {
                        best[i] = cost;
                        cut[i] = j;
                    }
                }
            }

            // Reconstruct segments.
            let mut bounds = Vec::new();
            let mut i = m;
            while i > 0 {
                bounds.push((cut[i], i));
                i = cut[i];
            }
            bounds.reverse();
            for (j, i) in bounds {
                let seg_ops = ops[j..i].to_vec();
                let relu_between: Vec<bool> =
                    chain[j + 1..i].iter().map(|link| link.relu).collect();
                let unfused: f64 = volumes[j..i].iter().sum();
                let save: f64 = if i - j > 1 { savings[j..i - 1].iter().sum() } else { 0.0 };
                let volume = (unfused - save).max(0.0);
                let fused = i - j > 1;
                if fused {
                    fusions_taken += i - j - 1;
                }
                let executable = fused
                    && i - j == 2
                    && seg_ops.iter().all(|op| matches!(op.spec, Spec::Conv(_)))
                    && seg_ops[0].shape.is_depthwise()
                    && seg_ops[1].shape.is_pointwise();
                unfused_total += unfused;
                fused_total += volume;
                segments.push(PlannedSegment {
                    ops: seg_ops,
                    relu_between,
                    fused,
                    executable_dw_pw: executable,
                    unfused_volume: unfused,
                    volume,
                });
            }
        }

        let elementwise_ops = graph.nodes.iter().filter(|n| !n.op.is_schedulable()).count();
        Ok(GraphPlan {
            graph: graph.name.clone(),
            fingerprint: graph.fingerprint(),
            machine_fingerprint: self.machine.fingerprint(),
            segments,
            chains: chains.len(),
            elementwise_ops,
            fusion_candidates,
            fusions_taken,
            fusions_rejected: fusion_candidates - fusions_taken,
            unfused_volume: unfused_total,
            fused_volume: fused_total,
            plan_seconds: started.elapsed().as_secs_f64(),
        })
    }
}

/// Decompose the graph's schedulable nodes (conv, matmul, pool) into maximal
/// producer → consumer chains. A link a → b exists when b's data input
/// reaches back to schedulable node a through out-degree-1 elementwise nodes
/// only, and a itself has out-degree 1 (its intermediate has no other
/// consumer). Nodes that link to nothing form singleton chains. Chains are
/// returned in topological order of their heads, each as a list of
/// [`ChainLink`]s whose first entry has `relu == false`.
fn spec_chains(graph: &Graph) -> Vec<Vec<ChainLink>> {
    let scheds = graph.schedulable_nodes();
    // upstream[b] = (a, relu-on-path) for the chain predecessor of node b.
    let mut upstream: Vec<Option<(NodeId, bool)>> = vec![None; graph.nodes.len()];
    for &b in &scheds {
        let mut relu = false;
        let mut inputs = graph.inputs_of(b);
        while let Some(edge) = inputs.first() {
            let p = edge.from;
            if graph.outputs_of(p).len() != 1 {
                break;
            }
            match &graph.nodes[p].op {
                op if op.is_schedulable() => {
                    upstream[b] = Some((p, relu));
                    break;
                }
                OpKind::Relu => {
                    relu = true;
                    inputs = graph.inputs_of(p);
                }
                _ => break,
            }
        }
    }
    // Invert into next-links; heads are nodes that are nobody's successor.
    let mut next: Vec<Option<(NodeId, bool)>> = vec![None; graph.nodes.len()];
    let mut is_successor = vec![false; graph.nodes.len()];
    for &b in &scheds {
        if let Some((a, relu)) = upstream[b] {
            next[a] = Some((b, relu));
            is_successor[b] = true;
        }
    }
    let mut chains = Vec::new();
    for &head in &scheds {
        if is_successor[head] {
            continue;
        }
        let mut chain = vec![ChainLink { to: head, relu: false }];
        let mut cur = head;
        while let Some((b, relu)) = next[cur] {
            chain.push(ChainLink { to: b, relu });
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
    use mopt_core::{MOptOptimizer, OptimizerOptions};

    fn fast_options() -> OptimizerOptions {
        OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() }
    }

    fn solve_with(machine: &MachineModel) -> impl FnMut(&Spec) -> OptimizeResult + '_ {
        move |spec: &Spec| MOptOptimizer::optimize_spec(spec, machine.clone(), fast_options())
    }

    fn small_block() -> Graph {
        builders::mobilenet_v2_block_from(&ConvShape::depthwise(12, 14, 3, 1), "small-block")
    }

    #[test]
    fn chain_extraction_walks_through_relu() {
        let g = small_block();
        let chains = spec_chains(&g);
        assert_eq!(chains.len(), 1);
        let chain = &chains[0];
        assert_eq!(chain.len(), 3);
        assert_eq!(
            chain.iter().map(|l| g.nodes[l.to].name.as_str()).collect::<Vec<_>>(),
            ["expand", "dw", "project"]
        );
        assert!(!chain[0].relu);
        assert!(chain[1].relu && chain[2].relu);
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
        // dw feeds two pointwise consumers: its store cannot be deleted.
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
    fn plan_fuses_the_dw_pw_tail_on_a_big_enough_machine() {
        let g = small_block();
        let machine = MachineModel::i7_9700k();
        let planner = GraphPlanner::new(machine.clone());
        let plan = planner.plan(&g, solve_with(&machine)).unwrap();
        assert_eq!(plan.fingerprint, g.fingerprint());
        assert_eq!(plan.chains, 1);
        assert_eq!(plan.elementwise_ops, 2);
        // expand → dw is not structurally fusable (dw is 3x3); dw → project
        // is, and the tiny shapes fit the i7's L3 envelope jointly.
        assert_eq!(plan.fusion_candidates, 1);
        assert_eq!(plan.fusions_taken, 1);
        assert_eq!(plan.fusions_rejected, 0);
        assert!(plan.fused_volume < plan.unfused_volume);
        assert!(plan.saving() > 0.0);
        let fused: Vec<_> = plan.executable_segments().collect();
        assert_eq!(fused.len(), 1);
        let seg = fused[0];
        assert_eq!(seg.ops.len(), 2);
        assert!(seg.ops[0].shape.is_depthwise() && seg.ops[1].shape.is_pointwise());
        assert_eq!(seg.relu_between, vec![true]);
        assert_eq!(seg.saving(), 2.0 * seg.ops[0].shape.output_elems() as f64);
        // Every op appears exactly once across segments.
        let total_ops: usize = plan.segments.iter().map(|s| s.ops.len()).sum();
        assert_eq!(total_ops, 3);
        // A segment that fuses nothing (expand, cut off structurally) keeps
        // its unfused volume.
        for seg in plan.segments.iter().filter(|s| !s.fused) {
            assert_eq!(seg.volume, seg.unfused_volume);
        }

        // The credit never drives a volume negative: under schedules whose
        // DRAM-boundary volumes are below the deleted store + load, the
        // fused segment moves nothing.
        let mut solve = solve_with(&machine);
        let starved = planner
            .plan(&g, |spec| {
                let mut result = solve(spec);
                for candidate in &mut result.ranked {
                    candidate.prediction.volumes[TilingLevel::L3.ordinal()] = 1.0;
                }
                result
            })
            .unwrap();
        let fused: Vec<_> = starved.executable_segments().collect();
        assert_eq!((fused.len(), fused[0].unfused_volume, fused[0].volume), (1, 2.0, 0.0));
    }

    #[test]
    fn capacity_envelope_rejects_fusion_on_the_tiny_machine() {
        // The same block, but the tiny machine's 16K-element L3 cannot hold
        // the joint working set of a full-size V-stage pair.
        let g = builders::mobilenet_v2_block(5).unwrap();
        let machine = MachineModel::tiny_test_machine();
        let planner = GraphPlanner::new(machine.clone());
        let plan = planner.plan(&g, solve_with(&machine)).unwrap();
        assert_eq!(plan.fusion_candidates, 1);
        assert_eq!(plan.fusions_taken, 0);
        assert_eq!(plan.fusions_rejected, 1);
        assert_eq!(plan.fused_volume, plan.unfused_volume);
        assert!(plan.segments.iter().all(|s| !s.fused));
    }

    #[test]
    fn per_thread_envelope_rejects_fusion_under_contention() {
        // The dw → project joint working set (~0.94M elements) fits the
        // i7's whole 3M-element L3, but not a 1/8 share of it: the same
        // graph fuses sequentially and must not when 8 threads co-run.
        let g = builders::mobilenet_v2_block_from(&ConvShape::depthwise(64, 66, 3, 1), "mt-block");
        let machine = MachineModel::i7_9700k();
        let whole = GraphPlanner::new(machine.clone()).plan(&g, solve_with(&machine)).unwrap();
        assert_eq!(whole.fusions_taken, 1);
        let planner = GraphPlanner::new(machine.clone()).with_threads(8);
        assert_eq!(planner.threads(), 8);
        let shared = planner.plan(&g, solve_with(&machine)).unwrap();
        assert_eq!(shared.fusion_candidates, 1);
        assert_eq!(shared.fusions_taken, 0);
        assert_eq!(shared.fusions_rejected, 1);
        assert_eq!(shared.fused_volume, shared.unfused_volume);
    }

    #[test]
    fn invalid_graphs_are_rejected_before_planning() {
        let machine = MachineModel::tiny_test_machine();
        let planner = GraphPlanner::new(machine.clone());
        let mut g = small_block();
        g.edges[0].tensor = TensorInfo::nchw((9, 9, 9, 9));
        let mut calls = 0;
        let err = planner.plan(&g, |spec| {
            calls += 1;
            MOptOptimizer::optimize_spec(spec, machine.clone(), fast_options())
        });
        assert!(err.is_err());
        assert_eq!(calls, 0, "no schedules must be solved for an invalid graph");
    }

    #[test]
    fn pool_after_conv_chains_and_fuses_under_the_nonoverlapping_rule() {
        // conv → relu → pool(2x2 s2): chainable through the relu, and the
        // non-overlapping window admits fusion on a big enough machine.
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
        let plan = GraphPlanner::new(machine.clone()).plan(&g, solve_with(&machine)).unwrap();
        assert_eq!(plan.chains, 1);
        assert_eq!(plan.fusion_candidates, 1);
        assert_eq!(plan.fusions_taken, 1);
        let seg = &plan.segments[0];
        assert_eq!(seg.ops.len(), 2);
        assert!(matches!(seg.ops[1].spec, Spec::Pool { .. }));
        assert_eq!(seg.relu_between, vec![true]);
        assert_eq!(seg.saving(), 2.0 * conv.output_elems() as f64);
        assert!(!seg.executable_dw_pw);

        // An overlapping window (3x3 s1) is never a fusion candidate.
        let mut g2 = Graph::new("conv-pool-overlap");
        let c = g2.add_conv("conv", conv);
        let p = g2.add_pool("pool", conv_spec::PoolKind::Avg, 3, 1);
        g2.connect(c, p, out);
        let plan2 = GraphPlanner::new(machine.clone()).plan(&g2, solve_with(&machine)).unwrap();
        assert_eq!(plan2.chains, 1);
        assert_eq!(plan2.fusion_candidates, 0);
        assert_eq!(plan2.fusions_taken, 0);
    }

    #[test]
    fn matmul_head_plans_as_its_own_segment() {
        // global-pool → fc: the matmul chains after the pool but never
        // fuses, and its schedule solves on the conv embedding.
        let conv = ConvShape::new(1, 16, 4, 3, 3, 6, 6, 1).unwrap();
        let mut g = Graph::new("head");
        let c = g.add_conv("conv", conv);
        let gp = g.add_pool("gap", conv_spec::PoolKind::Avg, 6, 1);
        let fc = g.add_matmul("fc", 10, 1, 16);
        g.connect(c, gp, TensorInfo::nchw(conv.output_dims()));
        g.connect(gp, fc, TensorInfo::nchw((1, 16, 1, 1)));
        g.validate().unwrap();

        let machine = MachineModel::tiny_test_machine();
        let plan = GraphPlanner::new(machine.clone()).plan(&g, solve_with(&machine)).unwrap();
        let total_ops: usize = plan.segments.iter().map(|s| s.ops.len()).sum();
        assert_eq!(total_ops, 3);
        assert_eq!(plan.chains, 1);
        // Overlap rule rejects the 6x6 s1 global pool; matmul never fuses.
        assert_eq!(plan.fusion_candidates, 0);
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
        let g = small_block();
        let machine = MachineModel::tiny_test_machine();
        let planner = GraphPlanner::new(machine.clone());
        let plan = planner.plan(&g, solve_with(&machine)).unwrap();
        let text = serde_json::to_string(&plan).unwrap();
        let back: GraphPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(plan, back);
    }
}

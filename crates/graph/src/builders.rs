//! Builders for the benchmark-suite network blocks and whole networks.
//!
//! Besides the block families below, [`resnet50`] and [`mobilenet_v2_full`]
//! assemble complete classification networks — conv body, explicit pooling
//! nodes, and the fully-connected classifier as a matmul — so a single
//! `PlanGraph` request exercises every schedulable [`crate::ir::OpKind`].
//!
//! Two block families ground the graph planner in the existing suites:
//!
//! * [`mobilenet_v2_block`] — the inverted-residual block around one of the
//!   MobileNetV2 depthwise stages `V1` ... `V9`: a pointwise expansion, the
//!   depthwise stage itself, and a pointwise (linear) projection, with ReLUs
//!   after the expansion and the depthwise stage.
//! * [`resnet_residual_block`] — a ResNet-style residual block around one of
//!   the stride-1 ResNet-18 layers: two 3x3 convolutions on the main path
//!   and a projection convolution on the skip path, joined by an elementwise
//!   add. Because the workspace's convolutions are "valid" (unpadded), the
//!   skip projection uses a 5x5 kernel so both paths land on the same
//!   spatial extent.

use conv_spec::{benchmarks, ConvShape, PoolKind};

use crate::ir::{Graph, NodeId, OpKind, TensorInfo};
use crate::GraphError;

/// The MobileNetV2 inverted-residual block whose depthwise stage is an
/// arbitrary depthwise shape. The expansion factor is 6 when the expanded
/// channel count divides by 6 (the network's usual factor), otherwise 1
/// (the first block).
///
/// # Panics
///
/// Panics if `dw` is not a depthwise convolution.
pub fn mobilenet_v2_block_from(dw: &ConvShape, name: impl Into<String>) -> Graph {
    assert!(dw.is_depthwise(), "{dw} is not depthwise");
    let expanded = dw.k;
    let cin = if expanded.is_multiple_of(6) { expanded / 6 } else { expanded };
    let cout = cin;
    let pw_expand = ConvShape::new(dw.n, expanded, cin, 1, 1, dw.input_h(), dw.input_w(), 1)
        .expect("valid expansion shape");
    let pw_project =
        ConvShape::new(dw.n, cout, expanded, 1, 1, dw.h, dw.w, 1).expect("valid projection shape");

    let mut g = Graph::new(name);
    let expand = g.add_conv("expand", pw_expand);
    let relu1 = g.add_node("relu1", OpKind::Relu);
    let dw_id = g.add_conv("dw", *dw);
    let relu2 = g.add_node("relu2", OpKind::Relu);
    let project = g.add_conv("project", pw_project);
    let expanded_dims = TensorInfo::nchw(pw_expand.output_dims());
    let dw_out = TensorInfo::nchw(dw.output_dims());
    g.connect(expand, relu1, expanded_dims);
    g.connect(relu1, dw_id, expanded_dims);
    g.connect(dw_id, relu2, dw_out);
    g.connect(relu2, project, dw_out);
    g
}

/// The inverted-residual block around MobileNetV2 depthwise stage `V{stage}`
/// (`stage` in `1..=9`, the operators of `benchmarks::mobilenet_v2`).
///
/// # Errors
///
/// Returns [`GraphError::UnknownBlock`] for a stage outside `1..=9`.
pub fn mobilenet_v2_block(stage: usize) -> Result<Graph, GraphError> {
    let ops = benchmarks::mobilenet_v2();
    if stage == 0 || stage > ops.len() {
        return Err(GraphError::UnknownBlock(format!(
            "mbv2 stage {stage} (have 1..={})",
            ops.len()
        )));
    }
    Ok(mobilenet_v2_block_from(&ops[stage - 1].shape, format!("mbv2-block{stage}")))
}

/// A ResNet-style residual block whose first main-path convolution is
/// `conv1` (any dense 3x3 stride-1 shape): main path `conv1 → relu → conv2`
/// (same channel count), skip path a 5x5 projection landing on conv2's
/// output extent, joined by `Add` and a final ReLU.
///
/// # Panics
///
/// Panics if `conv1` is not a dense stride-1 3x3 convolution or its output
/// is too small for the second convolution.
pub fn resnet_residual_block_from(conv1: &ConvShape, name: impl Into<String>) -> Graph {
    assert!(
        conv1.r == 3
            && conv1.s == 3
            && conv1.stride == 1
            && conv1.groups == 1
            && conv1.dilation == 1,
        "{conv1} is not a dense stride-1 3x3 convolution"
    );
    assert!(conv1.h > 2 && conv1.w > 2, "{conv1} output too small for a second 3x3");
    let conv2 = ConvShape::new(conv1.n, conv1.k, conv1.k, 3, 3, conv1.h - 2, conv1.w - 2, 1)
        .expect("valid second conv");
    // Two valid 3x3 convs shrink the spatial extent by 4; a single valid 5x5
    // projection shrinks by the same 4, so the skip path lands on conv2's
    // output extent while reading the same graph input.
    let skip = ConvShape::new(conv1.n, conv1.k, conv1.c, 5, 5, conv1.h - 2, conv1.w - 2, 1)
        .expect("valid skip projection");
    debug_assert_eq!(skip.input_dims(), conv1.input_dims());

    let mut g = Graph::new(name);
    let c1 = g.add_conv("conv1", *conv1);
    let relu1 = g.add_node("relu1", OpKind::Relu);
    let c2 = g.add_conv("conv2", conv2);
    let sk = g.add_conv("skip", skip);
    let add = g.add_node("add", OpKind::Add);
    let relu2 = g.add_node("relu2", OpKind::Relu);
    let mid = TensorInfo::nchw(conv1.output_dims());
    let out = TensorInfo::nchw(conv2.output_dims());
    g.connect(c1, relu1, mid);
    g.connect(relu1, c2, mid);
    g.connect(c2, add, out);
    g.connect(sk, add, out);
    g.connect(add, relu2, out);
    g
}

/// The residual block around a stride-1 ResNet-18 Table-1 layer (`"R2"`,
/// `"R6"`, `"R8"`, `"R9"`, or `"R12"`).
///
/// # Errors
///
/// Returns [`GraphError::UnknownBlock`] for unknown or strided layers.
pub fn resnet_residual_block(layer: &str) -> Result<Graph, GraphError> {
    let op = benchmarks::by_name(layer)
        .filter(|op| op.suite == conv_spec::BenchmarkSuite::ResNet18)
        .ok_or_else(|| GraphError::UnknownBlock(format!("ResNet layer {layer}")))?;
    let s = op.shape;
    if s.stride != 1 || s.r != 3 {
        return Err(GraphError::UnknownBlock(format!(
            "{layer} is not a stride-1 3x3 ResNet layer"
        )));
    }
    Ok(resnet_residual_block_from(&s, format!("resnet-block-{}", op.name.to_lowercase())))
}

/// Tracks the frontier of a network under construction: the last node id and
/// the tensor it emits.
struct Frontier {
    node: NodeId,
    dims: (usize, usize, usize, usize),
}

impl Frontier {
    fn tensor(&self) -> TensorInfo {
        TensorInfo::nchw(self.dims)
    }
}

/// Append `conv` + ReLU to the frontier.
fn push_conv_relu(g: &mut Graph, f: &mut Frontier, name: &str, shape: ConvShape) {
    debug_assert_eq!(shape.input_dims(), f.dims, "{name}: frontier mismatch");
    let c = g.add_conv(name, shape);
    g.connect(f.node, c, f.tensor());
    let r = g.add_node(format!("{name}.relu"), OpKind::Relu);
    *f = Frontier { node: c, dims: shape.output_dims() };
    g.connect(c, r, f.tensor());
    f.node = r;
}

/// Append a pooling node to the frontier.
fn push_pool(
    g: &mut Graph,
    f: &mut Frontier,
    name: &str,
    kind: PoolKind,
    window: usize,
    stride: usize,
) {
    let p = g.add_pool(name, kind, window, stride);
    g.connect(f.node, p, f.tensor());
    let (n, c, h, w) = f.dims;
    *f = Frontier { node: p, dims: (n, c, (h - window) / stride + 1, (w - window) / stride + 1) };
}

/// A ResNet-50-style bottleneck block on the frontier: `1x1 reduce → relu →
/// 3x3 → relu → 1x1 expand` on the main path, a 3x3 projection on the skip
/// path (valid convolutions shrink the extent by 2, so an identity skip is
/// impossible and every block projects), joined by `Add` + ReLU.
fn push_bottleneck(g: &mut Graph, f: &mut Frontier, name: &str, mid: usize, out: usize) {
    let (n, cin, h, w) = f.dims;
    let input = f.tensor();
    let entry = f.node;
    let reduce = ConvShape::new(n, mid, cin, 1, 1, h, w, 1).expect("bottleneck reduce");
    let middle = ConvShape::new(n, mid, mid, 3, 3, h - 2, w - 2, 1).expect("bottleneck 3x3");
    let expand = ConvShape::new(n, out, mid, 1, 1, h - 2, w - 2, 1).expect("bottleneck expand");
    let skip = ConvShape::new(n, out, cin, 3, 3, h - 2, w - 2, 1).expect("bottleneck skip");

    push_conv_relu(g, f, &format!("{name}.reduce"), reduce);
    push_conv_relu(g, f, &format!("{name}.conv3"), middle);
    let c3 = g.add_conv(format!("{name}.expand"), expand);
    g.connect(f.node, c3, f.tensor());
    let sk = g.add_conv(format!("{name}.skip"), skip);
    g.connect(entry, sk, input);
    let add = g.add_node(format!("{name}.add"), OpKind::Add);
    let out_t = TensorInfo::nchw(expand.output_dims());
    g.connect(c3, add, out_t);
    g.connect(sk, add, out_t);
    let relu = g.add_node(format!("{name}.relu"), OpKind::Relu);
    g.connect(add, relu, out_t);
    *f = Frontier { node: relu, dims: expand.output_dims() };
}

/// The whole ResNet-50 as one graph: a 7x7 stride-2 stem with max pooling,
/// four stages of `[3, 4, 6, 3]` bottleneck blocks separated by 2x2
/// non-overlapping max pools (valid convolutions make in-block striding
/// awkward, so downsampling is explicit), a global average pool, and the
/// 1000-way fully-connected classifier as a matmul node — conv, pool, and
/// matmul all plan through the same spec pipeline.
pub fn resnet50(name: impl Into<String>) -> Graph {
    let mut g = Graph::new(name);
    // Extents chosen so every valid conv / pool divides exactly; see the
    // frontier assertions. 541 plays the role of the usual 224 input.
    let stem = ConvShape::new(1, 64, 3, 7, 7, 268, 268, 2).expect("stem");
    let src = g.add_conv("stem", stem);
    let relu = g.add_node("stem.relu", OpKind::Relu);
    g.connect(src, relu, TensorInfo::nchw(stem.output_dims()));
    let mut f = Frontier { node: relu, dims: stem.output_dims() };
    push_pool(&mut g, &mut f, "stem.pool", PoolKind::Max, 2, 2);

    let stages: [(usize, usize, usize); 4] =
        [(3, 64, 256), (4, 128, 512), (6, 256, 1024), (3, 512, 2048)];
    for (si, (blocks, mid, out)) in stages.into_iter().enumerate() {
        for b in 0..blocks {
            push_bottleneck(&mut g, &mut f, &format!("s{}b{}", si + 1, b + 1), mid, out);
        }
        if si + 1 < stages.len() {
            push_pool(&mut g, &mut f, &format!("s{}.down", si + 1), PoolKind::Max, 2, 2);
        }
    }

    // Head: global average pool to 1x1, then the classifier matmul.
    let (_, channels, h, _) = f.dims;
    push_pool(&mut g, &mut f, "gap", PoolKind::Avg, h, 1);
    let fc = g.add_matmul("fc", 1000, 1, channels);
    g.connect(f.node, fc, f.tensor());
    g
}

/// The whole MobileNetV2 as one graph: a 3x3 stride-2 stem, the seven
/// inverted-residual groups (expansion → depthwise → linear projection, with
/// the canonical widths and repeat counts; valid convolutions rule out
/// identity residuals, so blocks chain linearly), the 1x1 head convolution,
/// a global average pool, and the 1000-way classifier matmul.
pub fn mobilenet_v2_full(name: impl Into<String>) -> Graph {
    let mut g = Graph::new(name);
    let stem = ConvShape::new(1, 32, 3, 3, 3, 277, 277, 2).expect("mbv2 stem");
    let src = g.add_conv("stem", stem);
    let relu = g.add_node("stem.relu", OpKind::Relu);
    g.connect(src, relu, TensorInfo::nchw(stem.output_dims()));
    let mut f = Frontier { node: relu, dims: stem.output_dims() };

    // (expansion factor, output channels, repeats, first-block dw stride).
    let groups: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    for (gi, (t, cout, repeats, first_stride)) in groups.into_iter().enumerate() {
        for b in 0..repeats {
            let stride = if b == 0 { first_stride } else { 1 };
            let name = format!("g{}b{}", gi + 1, b + 1);
            let (n, cin, h, w) = f.dims;
            let expanded = cin * t;
            let expand = ConvShape::new(n, expanded, cin, 1, 1, h, w, 1).expect("mbv2 expand");
            let oh = (h - 3) / stride + 1;
            let ow = (w - 3) / stride + 1;
            let dw = ConvShape::new(n, expanded, expanded, 3, 3, oh, ow, stride)
                .and_then(|s| s.with_groups(expanded))
                .expect("mbv2 dw");
            let project = ConvShape::new(n, cout, expanded, 1, 1, oh, ow, 1).expect("mbv2 project");
            push_conv_relu(&mut g, &mut f, &format!("{name}.expand"), expand);
            push_conv_relu(&mut g, &mut f, &format!("{name}.dw"), dw);
            let pj = g.add_conv(format!("{name}.project"), project);
            g.connect(f.node, pj, f.tensor());
            f = Frontier { node: pj, dims: project.output_dims() };
        }
    }

    // Head: 1x1 conv to 1280, global average pool, classifier matmul.
    let (n, cin, h, w) = f.dims;
    let head = ConvShape::new(n, 1280, cin, 1, 1, h, w, 1).expect("mbv2 head");
    push_conv_relu(&mut g, &mut f, "head", head);
    push_pool(&mut g, &mut f, "gap", PoolKind::Avg, h, 1);
    let fc = g.add_matmul("fc", 1000, 1, 1280);
    g.connect(f.node, fc, f.tensor());
    g
}

/// Resolve a named block: `"mbv2-block3"` / `"mbv2:3"` / `"v2_block_3"`
/// (MobileNetV2 inverted-residual stage 3) or `"resnet-r2"` / `"resnet:R2"`
/// (residual block around ResNet layer R2). Case, `-`, `_`, `:` and spaces
/// are ignored.
///
/// # Errors
///
/// Returns [`GraphError::UnknownBlock`] when the name matches no block.
pub fn by_name(name: &str) -> Result<Graph, GraphError> {
    let norm: String = name
        .trim()
        .to_ascii_lowercase()
        .chars()
        .filter(|c| !['-', '_', ':', ' '].contains(c))
        .collect();
    if norm == "resnet50" {
        return Ok(resnet50("resnet50"));
    }
    if norm == "mbv2full" || norm == "mobilenetv2" || norm == "mbv2net" {
        return Ok(mobilenet_v2_full("mobilenet-v2"));
    }
    if let Some(rest) = norm
        .strip_prefix("mbv2block")
        .or_else(|| norm.strip_prefix("v2block"))
        .or_else(|| norm.strip_prefix("mbv2"))
        .or_else(|| norm.strip_prefix("v2"))
    {
        let stage: usize = rest
            .parse()
            .map_err(|_| GraphError::UnknownBlock(format!("bad MobileNetV2 stage in `{name}`")))?;
        return mobilenet_v2_block(stage);
    }
    if let Some(rest) = norm.strip_prefix("resnetr").or_else(|| norm.strip_prefix("resnetblockr")) {
        return resnet_residual_block(&format!("R{rest}"));
    }
    Err(GraphError::UnknownBlock(format!(
        "`{name}` (try \"mbv2-block1\"..\"mbv2-block9\" or \"resnet-r2\")"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::LoopIndex;

    #[test]
    fn every_mobilenet_v2_block_validates() {
        for stage in 1..=9 {
            let g = mobilenet_v2_block(stage).unwrap();
            g.validate().unwrap_or_else(|e| panic!("stage {stage}: {e}"));
            assert_eq!(g.conv_nodes().len(), 3);
            // The depthwise stage is the V-suite shape.
            let dw = g.nodes[g.conv_nodes()[1]].op.conv_shape().unwrap();
            assert!(dw.is_depthwise());
            assert_eq!(*dw, benchmarks::mobilenet_v2()[stage - 1].shape);
            // Expansion factor 6 for all stages whose width divides by 6.
            let expand = g.nodes[g.conv_nodes()[0]].op.conv_shape().unwrap();
            if dw.k.is_multiple_of(6) {
                assert_eq!(expand.c * 6, dw.k, "stage {stage}");
            }
        }
        assert!(mobilenet_v2_block(0).is_err());
        assert!(mobilenet_v2_block(10).is_err());
    }

    #[test]
    fn mobilenet_block_chains_expand_dw_project() {
        let g = mobilenet_v2_block(5).unwrap();
        let dims = g.node_output_dims().unwrap();
        let convs = g.conv_nodes();
        let dw = g.nodes[convs[1]].op.conv_shape().unwrap();
        // The expansion feeds the depthwise input extent exactly.
        assert_eq!(dims[convs[0]], dw.input_dims());
        // The projection consumes the depthwise output exactly.
        let project = g.nodes[convs[2]].op.conv_shape().unwrap();
        assert_eq!(project.input_dims(), dw.output_dims());
        assert_eq!(project.extent(LoopIndex::R), 1);
    }

    #[test]
    fn resnet_blocks_validate_and_balance_paths() {
        for layer in ["R2", "R6", "R8", "R9", "R12"] {
            let g = resnet_residual_block(layer).unwrap();
            g.validate().unwrap_or_else(|e| panic!("{layer}: {e}"));
            assert_eq!(g.conv_nodes().len(), 3);
            // Exactly one Add joining two equal tensors, checked by validate.
            let adds = g.nodes.iter().filter(|n| n.op == OpKind::Add).count();
            assert_eq!(adds, 1);
        }
        assert!(resnet_residual_block("R1").is_err()); // strided
        assert!(resnet_residual_block("R3").is_err()); // pointwise
        assert!(resnet_residual_block("Y0").is_err()); // wrong suite
    }

    #[test]
    fn scaled_blocks_also_validate() {
        // The builders keep working on scaled-down shapes (used by fast
        // service tests with the tiny machine).
        let dw = ConvShape::depthwise(12, 14, 3, 1);
        let g = mobilenet_v2_block_from(&dw, "tiny-block");
        g.validate().unwrap();
        let small = ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap();
        resnet_residual_block_from(&small, "tiny-res").validate().unwrap();
    }

    #[test]
    fn resnet50_validates_with_pool_and_matmul_head() {
        let g = resnet50("resnet50");
        g.validate().unwrap();
        assert!(g.nodes.len() > 50, "{} nodes", g.nodes.len());
        assert_eq!(g.conv_nodes().len(), 1 + 16 * 4);
        let pools = g.nodes.iter().filter(|n| matches!(n.op, OpKind::Pool { .. })).count();
        assert_eq!(pools, 5); // stem + 3 stage downsamples + global avg
        let matmuls = g.nodes.iter().filter(|n| matches!(n.op, OpKind::MatMul { .. })).count();
        assert_eq!(matmuls, 1);
        // The classifier consumes the pooled (1, 2048, 1, 1) feature vector.
        let dims = g.node_output_dims().unwrap();
        let fc = g.nodes.iter().position(|n| n.name == "fc").unwrap();
        assert_eq!(dims[fc], (1, 1000, 1, 1));
        assert_eq!(g.schedulable_nodes().len(), 1 + 16 * 4 + 5 + 1);
    }

    #[test]
    fn mobilenet_v2_full_validates_with_pool_and_matmul_head() {
        let g = mobilenet_v2_full("mobilenet-v2");
        g.validate().unwrap();
        assert!(g.nodes.len() > 50, "{} nodes", g.nodes.len());
        // stem + 17 blocks x 3 convs + head conv.
        assert_eq!(g.conv_nodes().len(), 1 + 17 * 3 + 1);
        let dims = g.node_output_dims().unwrap();
        let fc = g.nodes.iter().position(|n| n.name == "fc").unwrap();
        assert_eq!(dims[fc], (1, 1000, 1, 1));
        // Every depthwise stage really is depthwise.
        for node in &g.nodes {
            if node.name.ends_with(".dw") {
                assert!(node.op.conv_shape().unwrap().is_depthwise(), "{}", node.name);
            }
        }
    }

    #[test]
    fn by_name_resolves_spelling_variants() {
        assert_eq!(by_name("mbv2-block3").unwrap().name, "mbv2-block3");
        assert_eq!(by_name("MBV2:3").unwrap().name, "mbv2-block3");
        assert_eq!(
            by_name("V2_Block_5").unwrap().fingerprint(),
            mobilenet_v2_block(5).unwrap().fingerprint()
        );
        assert_eq!(by_name("resnet-r2").unwrap().name, "resnet-block-r2");
        assert_eq!(by_name("RESNET:R12").unwrap().name, "resnet-block-r12");
        assert_eq!(by_name("resnet-50").unwrap().name, "resnet50");
        assert_eq!(by_name("mbv2-full").unwrap().name, "mobilenet-v2");
        assert_eq!(by_name("MobileNet_V2").unwrap().name, "mobilenet-v2");
        assert!(by_name("mbv2-block99").is_err());
        assert!(by_name("alexnet").is_err());
        assert!(by_name("mbv2-blockx").is_err());
    }
}

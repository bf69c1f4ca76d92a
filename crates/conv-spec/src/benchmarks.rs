//! Benchmark operator suites.
//!
//! The first three suites are the 32 conv2d benchmark operators of Table 1
//! (Yolo-9000, ResNet-18, MobileNet), exactly as used in the paper's
//! evaluation — except that the MobileNet operators are now expressed as the
//! **true depthwise** convolutions of the network (`groups == c == k`)
//! instead of the paper's regular-conv2d stand-ins; the stand-ins remain
//! available as deprecated aliases (`M1pw` ... `M9pw`,
//! [`mobilenet_pointwise_form`]) so existing database records and scripts that key
//! on the dense shapes stay warm.
//!
//! Two further suites exercise the generalized convolution support:
//!
//! * [`mobilenet_v2`] — the nine depthwise stages of MobileNetV2
//!   (`V1` ... `V9`, expansion-layer channel counts, strides 1 and 2),
//! * [`dilated_deeplab`] — DeepLab/ESPNet-style dilated (atrous) 3x3
//!   operators (`D1` ... `D5`, dilation 2 and 4, including one dilated
//!   depthwise op).
//!
//! All benchmarks use batch size 1; strides are 1 unless the layer is marked
//! with `*` (stride 2).

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::shape::ConvShape;

/// Which network a benchmark operator comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenchmarkSuite {
    /// Yolo-9000 (11 conv2d operators).
    Yolo9000,
    /// ResNet-18 (12 conv2d operators).
    ResNet18,
    /// MobileNet (9 operators — the depthwise stages of Table 1, now with
    /// their true `groups == c == k` depthwise shapes).
    MobileNet,
    /// MobileNetV2 depthwise stages (9 operators, expansion channel counts).
    MobileNetV2,
    /// DeepLab/ESPNet-style dilated 3x3 operators (5 operators).
    DilatedDeepLab,
}

impl BenchmarkSuite {
    /// The paper's three Table-1 suites, in the order the paper presents them.
    pub const ALL: [BenchmarkSuite; 3] =
        [BenchmarkSuite::Yolo9000, BenchmarkSuite::ResNet18, BenchmarkSuite::MobileNet];

    /// Human-readable suite name.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkSuite::Yolo9000 => "Yolo-9000",
            BenchmarkSuite::ResNet18 => "ResNet-18",
            BenchmarkSuite::MobileNet => "MobileNet",
            BenchmarkSuite::MobileNetV2 => "MobileNetV2-DW",
            BenchmarkSuite::DilatedDeepLab => "DeepLab-Dilated",
        }
    }
}

impl std::fmt::Display for BenchmarkSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One named conv2d operator from a benchmark suite.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchmarkOp {
    /// The layer label used in the paper (e.g. `"Y0"`, `"R1*"`, `"M9"`).
    pub name: String,
    /// The suite the operator belongs to.
    pub suite: BenchmarkSuite,
    /// The conv2d problem shape.
    pub shape: ConvShape,
}

impl BenchmarkOp {
    fn new(
        name: &str,
        suite: BenchmarkSuite,
        k: usize,
        c: usize,
        hw: usize,
        rs: usize,
        stride: usize,
    ) -> Self {
        BenchmarkOp {
            name: name.to_string(),
            suite,
            shape: ConvShape::from_table1(k, c, hw, rs, stride),
        }
    }

    fn depthwise(
        name: &str,
        suite: BenchmarkSuite,
        channels: usize,
        hw: usize,
        rs: usize,
        stride: usize,
    ) -> Self {
        BenchmarkOp {
            name: name.to_string(),
            suite,
            shape: ConvShape::depthwise(channels, hw, rs, stride),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dilated(
        name: &str,
        suite: BenchmarkSuite,
        k: usize,
        c: usize,
        hw: usize,
        rs: usize,
        stride: usize,
        dilation: usize,
    ) -> Self {
        BenchmarkOp {
            name: name.to_string(),
            suite,
            shape: ConvShape::from_table1_dilated(k, c, hw, rs, stride, dilation),
        }
    }

    /// Whether the layer uses stride 2 (marked `*` in Table 1).
    pub fn is_strided(&self) -> bool {
        self.shape.stride == 2
    }
}

impl std::fmt::Display for BenchmarkOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.name, self.shape)
    }
}

/// The eleven conv2d operators of Yolo-9000 (Table 1, left).
pub fn yolo9000() -> Vec<BenchmarkOp> {
    use BenchmarkSuite::Yolo9000 as S;
    vec![
        BenchmarkOp::new("Y0", S, 32, 3, 544, 3, 1),
        BenchmarkOp::new("Y2", S, 64, 32, 272, 3, 1),
        BenchmarkOp::new("Y4", S, 128, 64, 136, 3, 1),
        BenchmarkOp::new("Y5", S, 64, 128, 136, 1, 1),
        BenchmarkOp::new("Y8", S, 256, 128, 68, 3, 1),
        BenchmarkOp::new("Y9", S, 128, 256, 68, 1, 1),
        BenchmarkOp::new("Y12", S, 512, 256, 34, 3, 1),
        BenchmarkOp::new("Y13", S, 256, 512, 34, 1, 1),
        BenchmarkOp::new("Y18", S, 1024, 512, 17, 3, 1),
        BenchmarkOp::new("Y19", S, 512, 1024, 17, 1, 1),
        BenchmarkOp::new("Y23", S, 28269, 1024, 17, 1, 1),
    ]
}

/// The twelve conv2d operators of ResNet-18 (Table 1, middle).
/// Layers marked `*` in the paper use stride 2.
pub fn resnet18() -> Vec<BenchmarkOp> {
    use BenchmarkSuite::ResNet18 as S;
    vec![
        BenchmarkOp::new("R1*", S, 64, 3, 224, 7, 2),
        BenchmarkOp::new("R2", S, 64, 64, 56, 3, 1),
        BenchmarkOp::new("R3", S, 64, 64, 56, 1, 1),
        BenchmarkOp::new("R4*", S, 128, 64, 56, 3, 2),
        BenchmarkOp::new("R5*", S, 128, 64, 56, 1, 2),
        BenchmarkOp::new("R6", S, 128, 128, 28, 3, 1),
        BenchmarkOp::new("R7*", S, 256, 128, 28, 3, 2),
        BenchmarkOp::new("R8", S, 256, 128, 28, 3, 1),
        BenchmarkOp::new("R9", S, 256, 256, 14, 3, 1),
        BenchmarkOp::new("R10*", S, 512, 256, 14, 3, 2),
        BenchmarkOp::new("R11*", S, 512, 256, 14, 1, 2),
        BenchmarkOp::new("R12", S, 512, 512, 7, 3, 1),
    ]
}

/// The nine MobileNet operators of Table 1 (right) as **true depthwise**
/// convolutions (`groups == c == k`). The channel counts, spatial extents,
/// kernel sizes, and stride markers are exactly the paper's; only the
/// previously implicit "run the depthwise stage as a regular conv2d"
/// approximation is gone.
pub fn mobilenet() -> Vec<BenchmarkOp> {
    use BenchmarkSuite::MobileNet as S;
    vec![
        BenchmarkOp::depthwise("M1", S, 32, 112, 3, 1),
        BenchmarkOp::depthwise("M2*", S, 64, 112, 3, 2),
        BenchmarkOp::depthwise("M3", S, 128, 56, 3, 1),
        BenchmarkOp::depthwise("M4*", S, 128, 56, 3, 2),
        BenchmarkOp::depthwise("M5", S, 256, 28, 3, 1),
        BenchmarkOp::depthwise("M6*", S, 256, 28, 3, 2),
        BenchmarkOp::depthwise("M7", S, 512, 14, 3, 1),
        BenchmarkOp::depthwise("M8*", S, 512, 14, 3, 2),
        BenchmarkOp::depthwise("M9", S, 1024, 7, 3, 1),
    ]
}

/// Deprecated: the paper's regular-conv2d ("pointwise form") stand-ins for
/// the MobileNet depthwise stages, under the alias names `M1pw` ... `M9pw`.
///
/// Kept so that database records and scripts built against the dense
/// shapes keep resolving (and staying warm); new work should use
/// [`mobilenet`] (true depthwise) instead.
#[deprecated(note = "use mobilenet() — the true depthwise shapes — instead")]
pub fn mobilenet_pointwise_form() -> Vec<BenchmarkOp> {
    use BenchmarkSuite::MobileNet as S;
    vec![
        BenchmarkOp::new("M1pw", S, 32, 32, 112, 3, 1),
        BenchmarkOp::new("M2pw*", S, 64, 64, 112, 3, 2),
        BenchmarkOp::new("M3pw", S, 128, 128, 56, 3, 1),
        BenchmarkOp::new("M4pw*", S, 128, 128, 56, 3, 2),
        BenchmarkOp::new("M5pw", S, 256, 256, 28, 3, 1),
        BenchmarkOp::new("M6pw*", S, 256, 256, 28, 3, 2),
        BenchmarkOp::new("M7pw", S, 512, 512, 14, 3, 1),
        BenchmarkOp::new("M8pw*", S, 512, 512, 14, 3, 2),
        BenchmarkOp::new("M9pw", S, 1024, 1024, 7, 3, 1),
    ]
}

/// The nine depthwise stages of MobileNetV2 (inverted-residual expansion
/// channel counts; layers marked `*` use stride 2).
pub fn mobilenet_v2() -> Vec<BenchmarkOp> {
    use BenchmarkSuite::MobileNetV2 as S;
    vec![
        BenchmarkOp::depthwise("V1", S, 32, 112, 3, 1),
        BenchmarkOp::depthwise("V2*", S, 96, 112, 3, 2),
        BenchmarkOp::depthwise("V3", S, 144, 56, 3, 1),
        BenchmarkOp::depthwise("V4*", S, 144, 56, 3, 2),
        BenchmarkOp::depthwise("V5", S, 192, 28, 3, 1),
        BenchmarkOp::depthwise("V6*", S, 192, 28, 3, 2),
        BenchmarkOp::depthwise("V7", S, 384, 14, 3, 1),
        BenchmarkOp::depthwise("V8*", S, 576, 14, 3, 2),
        BenchmarkOp::depthwise("V9", S, 960, 7, 3, 1),
    ]
}

/// DeepLab/ESPNet-style dilated (atrous) operators: 3x3 kernels with
/// dilation 2 and 4 on output-stride-16 feature maps, including one dilated
/// depthwise op (`D5`, ESPNet-style).
pub fn dilated_deeplab() -> Vec<BenchmarkOp> {
    use BenchmarkSuite::DilatedDeepLab as S;
    let mut ops = vec![
        BenchmarkOp::dilated("D1", S, 256, 256, 33, 3, 1, 2),
        BenchmarkOp::dilated("D2", S, 256, 256, 33, 3, 1, 4),
        BenchmarkOp::dilated("D3", S, 512, 512, 17, 3, 1, 2),
        BenchmarkOp::dilated("D4", S, 256, 512, 33, 3, 1, 2),
    ];
    // D5: dilated depthwise (ESPNet's reduced-parameter spatial stage).
    let mut d5 = ConvShape::from_table1_dilated(256, 256, 33, 3, 1, 2);
    d5.groups = 256;
    ops.push(BenchmarkOp { name: "D5".to_string(), suite: S, shape: d5 });
    ops
}

/// All 32 Table-1 operators in paper order (Yolo, ResNet, MobileNet).
pub fn all_operators() -> Vec<BenchmarkOp> {
    let mut v = yolo9000();
    v.extend(resnet18());
    v.extend(mobilenet());
    v
}

/// The whole catalog — every suite, then the deprecated aliases from
/// `first_alias` on — built once, on first use: every `op`-named request
/// searches it.
struct Catalog {
    ops: Vec<BenchmarkOp>,
    first_alias: usize,
}

fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let mut ops = all_operators();
        ops.extend(mobilenet_v2());
        ops.extend(dilated_deeplab());
        let first_alias = ops.len();
        #[allow(deprecated)]
        ops.extend(mobilenet_pointwise_form());
        Catalog { ops, first_alias }
    })
}

/// The first of `ops` labelled `name`; the trailing `*` and case are ignored.
fn find<'a>(ops: &'a [BenchmarkOp], name: &str) -> Option<&'a BenchmarkOp> {
    let norm = name.trim().trim_end_matches('*');
    ops.iter().find(|op| op.name.trim_end_matches('*').eq_ignore_ascii_case(norm))
}

/// Every operator of every suite (Table 1 plus the MobileNetV2 depthwise and
/// dilated suites), plus the deprecated MobileNet pointwise-form aliases.
pub fn extended_operators() -> Vec<BenchmarkOp> {
    catalog().ops.clone()
}

/// Look up a single operator by its label (e.g. `"Y5"`, `"R9"`, `"M2*"`,
/// `"V3"`, `"D1"`, or the deprecated `"M2pw"` — the trailing `*` may be
/// omitted). Searches every suite including the deprecated aliases.
pub fn by_name(name: &str) -> Option<BenchmarkOp> {
    find(&catalog().ops, name).cloned()
}

/// Whether an operator label refers to one of the deprecated dense stand-in
/// aliases (`M1pw` ... `M9pw`; trailing `*` and case are ignored, like
/// [`by_name`]). Servers tag responses for these ops `"deprecated": true`.
pub fn is_deprecated_alias(name: &str) -> bool {
    let catalog = catalog();
    find(&catalog.ops[catalog.first_alias..], name).is_some()
}

/// A suite's accepted names (the first is the one catalogs list) and its
/// operators — the one table `PlanNetwork`, the `Suites` reply and
/// `mopt-plan-world` resolve suite names through.
type SuiteRow = (&'static [&'static str], fn() -> Vec<BenchmarkOp>);
const SUITE_TABLE: [SuiteRow; 7] = [
    (&["yolo9000", "yolo"], yolo9000),
    (&["resnet18", "resnet"], resnet18),
    (&["mobilenet"], mobilenet),
    (&["mobilenetv2", "mobilenetv2dw"], mobilenet_v2),
    (&["dilated", "deeplab", "deeplabdilated"], dilated_deeplab),
    (&["table1", "all"], all_operators),
    (&["extended"], extended_operators),
];

/// The suite names catalogs list, in table order.
pub fn suite_names() -> impl Iterator<Item = &'static str> {
    SUITE_TABLE.iter().map(|(names, _)| names[0])
}

/// The operators of a suite by name (folded by [`crate::normalized_name`];
/// `"table1"` is all 32 Table-1 operators, `"extended"` every suite).
pub fn suite_by_name(name: &str) -> Option<Vec<BenchmarkOp>> {
    let key = crate::normalized_name(name);
    SUITE_TABLE.iter().find(|(names, _)| names.contains(&key.as_str())).map(|(_, ops)| ops())
}

/// The error text for a suite name that is not one of `accepted`.
pub fn unknown_suite(name: &str, accepted: impl IntoIterator<Item = &'static str>) -> String {
    let accepted: Vec<String> = accepted.into_iter().map(|n| format!("\"{n}\"")).collect();
    format!("unknown suite `{name}` (try {})", accepted.join(", "))
}

/// The operators for one suite.
pub fn suite(s: BenchmarkSuite) -> Vec<BenchmarkOp> {
    match s {
        BenchmarkSuite::Yolo9000 => yolo9000(),
        BenchmarkSuite::ResNet18 => resnet18(),
        BenchmarkSuite::MobileNet => mobilenet(),
        BenchmarkSuite::MobileNetV2 => mobilenet_v2(),
        BenchmarkSuite::DilatedDeepLab => dilated_deeplab(),
    }
}

/// Reduced-size variants of the Table-1 benchmark operators for fast
/// functional tests and examples: spatial extents capped at `max_hw`, channel
/// extents capped at `max_ch`. The aspect of each operator (pointwise vs 3x3,
/// strided vs not, depthwise vs dense, dilation) is preserved.
pub fn scaled_operators(max_hw: usize, max_ch: usize) -> Vec<BenchmarkOp> {
    all_operators().into_iter().map(|op| scale_op(op, max_hw, max_ch)).collect()
}

fn scale_op(mut op: BenchmarkOp, max_hw: usize, max_ch: usize) -> BenchmarkOp {
    let s = &mut op.shape;
    let was_depthwise = s.is_depthwise();
    s.k = s.k.min(max_ch);
    s.c = s.c.min(max_ch);
    s.h = s.h.min(max_hw);
    s.w = s.w.min(max_hw);
    if was_depthwise {
        // Depthwise stays depthwise: k == c == groups after capping.
        let ch = s.k.min(s.c);
        s.k = ch;
        s.c = ch;
        s.groups = ch;
    } else if s.groups > 1 {
        // General grouped op: shrink the group count until it divides both
        // capped channel extents (1 always does).
        while !s.c.is_multiple_of(s.groups) || !s.k.is_multiple_of(s.groups) {
            s.groups -= 1;
        }
    }
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::LoopIndex;

    #[test]
    fn table1_operator_counts() {
        assert_eq!(yolo9000().len(), 11);
        assert_eq!(resnet18().len(), 12);
        assert_eq!(mobilenet().len(), 9);
        assert_eq!(all_operators().len(), 32);
        assert_eq!(mobilenet_v2().len(), 9);
        assert_eq!(dilated_deeplab().len(), 5);
        assert_eq!(extended_operators().len(), 32 + 9 + 5 + 9);
    }

    #[test]
    fn table1_values_spot_checks() {
        let y23 = by_name("Y23").unwrap();
        assert_eq!(y23.shape.k, 28269);
        assert_eq!(y23.shape.c, 1024);
        assert_eq!(y23.shape.r, 1);
        assert_eq!(y23.shape.h, 17);

        let r1 = by_name("R1").unwrap();
        assert!(r1.is_strided());
        assert_eq!(r1.shape.r, 7);
        assert_eq!(r1.shape.c, 3);

        let m9 = by_name("M9").unwrap();
        assert_eq!(m9.shape.k, 1024);
        assert_eq!(m9.shape.c, 1024);
        assert_eq!(m9.shape.h, 5); // (7 - 3) / 1 + 1
        assert!(m9.shape.is_depthwise());
    }

    #[test]
    fn mobilenet_ops_are_true_depthwise() {
        for op in mobilenet() {
            assert!(op.shape.is_depthwise(), "{} is not depthwise", op.name);
            assert_eq!(op.shape.extent(LoopIndex::C), 1, "{}", op.name);
            assert_eq!(op.shape.r, 3);
        }
        for op in mobilenet_v2() {
            assert!(op.shape.is_depthwise(), "{} is not depthwise", op.name);
        }
    }

    #[test]
    fn deprecated_pointwise_aliases_keep_the_dense_shapes() {
        #[allow(deprecated)]
        let pw = mobilenet_pointwise_form();
        assert_eq!(pw.len(), 9);
        for (dw, dense) in mobilenet().iter().zip(pw.iter()) {
            assert_eq!(dense.shape.groups, 1, "{}", dense.name);
            // Same channel counts, extents, and stride — only groups differ.
            assert_eq!(dw.shape.k, dense.shape.k);
            assert_eq!(dw.shape.c, dense.shape.c);
            assert_eq!(dw.shape.h, dense.shape.h);
            assert_eq!(dw.shape.stride, dense.shape.stride);
        }
        // The aliases resolve through by_name.
        let m5pw = by_name("M5pw").unwrap();
        assert_eq!(m5pw.shape.groups, 1);
        assert_eq!(m5pw.shape.k, 256);
    }

    #[test]
    fn dilated_suite_structure() {
        let ops = dilated_deeplab();
        for op in &ops {
            assert!(op.shape.dilation >= 2, "{} is not dilated", op.name);
            assert_eq!(op.shape.r, 3);
        }
        let d2 = by_name("D2").unwrap();
        assert_eq!(d2.shape.dilation, 4);
        assert_eq!(d2.shape.effective_r(), 9);
        assert_eq!(d2.shape.h, 25); // (33 - 9) / 1 + 1
        let d5 = by_name("D5").unwrap();
        assert!(d5.shape.is_depthwise());
        assert_eq!(d5.shape.dilation, 2);
    }

    #[test]
    fn strided_layers_match_paper_markers() {
        let strided: Vec<String> =
            all_operators().into_iter().filter(|op| op.is_strided()).map(|op| op.name).collect();
        assert_eq!(
            strided,
            vec!["R1*", "R4*", "R5*", "R7*", "R10*", "R11*", "M2*", "M4*", "M6*", "M8*"]
        );
    }

    #[test]
    fn all_names_unique() {
        let ops = extended_operators();
        let names: std::collections::HashSet<&str> = ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names.len(), ops.len());
    }

    #[test]
    fn by_name_is_case_and_star_insensitive() {
        assert!(by_name("r10").is_some());
        assert!(by_name("R10*").is_some());
        assert!(by_name("m2").is_some());
        assert!(by_name("v8").is_some());
        assert!(by_name("d1").is_some());
        assert!(by_name("Z1").is_none());
    }

    #[test]
    fn batch_size_is_one_everywhere() {
        for op in extended_operators() {
            assert_eq!(op.shape.n, 1, "{} must use batch 1", op.name);
        }
    }

    #[test]
    fn scaled_operators_preserve_structure() {
        let scaled = scaled_operators(16, 64);
        assert_eq!(scaled.len(), 32);
        for (orig, small) in all_operators().iter().zip(scaled.iter()) {
            assert_eq!(orig.name, small.name);
            assert_eq!(orig.shape.r, small.shape.r);
            assert_eq!(orig.shape.stride, small.shape.stride);
            assert_eq!(orig.shape.dilation, small.shape.dilation);
            assert_eq!(orig.shape.is_depthwise(), small.shape.is_depthwise());
            assert!(small.shape.h <= 16 && small.shape.k <= 64);
        }
    }
}

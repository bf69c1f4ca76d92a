//! Fingerprint-stability regression tests.
//!
//! Persisted schedule-cache snapshots, the graph-plan cache, and any
//! external tooling key on `ConvShape::fingerprint`,
//! `MachineModel::fingerprint`, and `Graph::fingerprint`. Those keys must
//! never change silently across refactors — a drifted fingerprint turns
//! every warm snapshot cold and disconnects old plans from their graphs.
//! This test pins the *exact* values for representative Table-1 and V-suite
//! shapes, the three machine presets, and two builder blocks. If one of
//! these assertions fails, a fingerprinted input changed: either revert the
//! change, or bump the snapshot format version (`SNAPSHOT_VERSION`) and
//! update these constants deliberately.

use conv_spec::{benchmarks, canonicalize, ConvShape, MachineModel};
use mopt_graph::builders;

fn shape_fp(name: &str) -> u64 {
    benchmarks::by_name(name).unwrap_or_else(|| panic!("unknown op {name}")).shape.fingerprint()
}

fn canon_fp(name: &str) -> u64 {
    let shape = benchmarks::by_name(name).unwrap_or_else(|| panic!("unknown op {name}")).shape;
    canonicalize(&shape).0.fingerprint()
}

#[test]
fn table1_shape_fingerprints_are_pinned() {
    // Yolo-9000 first and last, a strided ResNet layer, a true-depthwise
    // MobileNet stage.
    assert_eq!(shape_fp("Y0"), 0x1fc1971c1b4dd226);
    assert_eq!(shape_fp("Y23"), 0x03ebf9c493a00e7a);
    assert_eq!(shape_fp("R1*"), 0x8a178f6e72b03c85);
    assert_eq!(shape_fp("M9"), 0xc840842c60791958);
}

#[test]
fn extended_suite_shape_fingerprints_are_pinned() {
    // A MobileNetV2 depthwise stage and a dilation-4 DeepLab operator: the
    // generalized fields (groups, dilation) feed the fingerprint too.
    assert_eq!(shape_fp("V5"), 0x101fee14d5000f24);
    assert_eq!(shape_fp("D2"), 0x5c24775e7fe0c040);
}

#[test]
fn canonical_spec_fingerprints_are_pinned() {
    // The schedule database pages are keyed by canonical-spec fingerprints;
    // a drift here silently orphans every populated database. M9 is its own
    // canonical form (square kernel, h ≤ w, extents on the pad quantum), so
    // its canonical fingerprint must equal its raw one.
    assert_eq!(canon_fp("Y0"), 0x03966d830a9fab26);
    assert_eq!(canon_fp("Y23"), 0xd314a089e499979a);
    assert_eq!(canon_fp("R1*"), 0xfc5632574350afe5);
    assert_eq!(canon_fp("M9"), 0xc840842c60791958);
    assert_eq!(canon_fp("M9"), shape_fp("M9"));
    assert_eq!(canon_fp("V5"), 0x251775f12bcf3c64);
    assert_eq!(canon_fp("D2"), 0x3c2657a537d0af20);
}

#[test]
fn distinct_raw_shapes_share_one_canonical_entry() {
    // An R/S-transposed pair: different raw fingerprints, one database
    // entry.
    let a = ConvShape::new(1, 16, 8, 3, 5, 12, 10, 1).unwrap();
    let b = ConvShape::new(1, 16, 8, 5, 3, 10, 12, 1).unwrap();
    assert_ne!(a.fingerprint(), b.fingerprint());
    assert_eq!(canonicalize(&a).0.fingerprint(), 0x1b2c14067c0b595b);
    assert_eq!(canonicalize(&b).0.fingerprint(), 0x1b2c14067c0b595b);
    // A divisor-padding pair: 57x57 pads up to the 64x64 entry, so both
    // raw shapes resolve to the 64x64 canonical spec.
    let p = ConvShape::new(1, 16, 8, 3, 3, 57, 57, 1).unwrap();
    let q = ConvShape::new(1, 16, 8, 3, 3, 64, 64, 1).unwrap();
    assert_ne!(p.fingerprint(), q.fingerprint());
    assert_eq!(canonicalize(&p).0.fingerprint(), 0x922a406e193674dd);
    assert_eq!(canonicalize(&p).0.fingerprint(), canonicalize(&q).0.fingerprint());
    assert_eq!(canonicalize(&q).0.fingerprint(), q.fingerprint());
}

#[test]
fn machine_fingerprints_are_pinned() {
    assert_eq!(MachineModel::i7_9700k().fingerprint(), 0x9816bf4b53bbc120);
    assert_eq!(MachineModel::i9_10980xe().fingerprint(), 0x782972077507640c);
    assert_eq!(MachineModel::tiny_test_machine().fingerprint(), 0x78eb150ec3959242);
}

#[test]
fn builder_graph_fingerprints_are_pinned() {
    // Graph fingerprints fold in node names, ops, shape fingerprints, edges,
    // and tensor layouts; pinning two blocks pins the whole chain.
    assert_eq!(builders::mobilenet_v2_block(5).unwrap().fingerprint(), 0x5787f63fa367440c);
    assert_eq!(builders::resnet_residual_block("R2").unwrap().fingerprint(), 0xacdee62815802e41);
}

mod canonical_roundtrip {
    use conv_exec::naive::conv2d_naive;
    use conv_exec::{Tensor4, TiledConv};
    use conv_spec::{canonicalize, ConvShape, MachineModel};
    use mopt_core::optimizer::{MOptOptimizer, OptimizerOptions};
    use proptest::prelude::*;

    /// Strategy: a small shape that still exercises the canonical
    /// symmetries — `r > s` triggers the spatial transpose, `h`/`w` above
    /// the pad quantum trigger divisor padding.
    fn small_shape() -> impl Strategy<Value = ConvShape> {
        (
            1usize..=2,
            1usize..=8,
            1usize..=8,
            1usize..=3,
            1usize..=3,
            2usize..=10,
            2usize..=10,
            1usize..=2,
        )
            .prop_map(|(n, k, c, r, s, h, w, stride)| {
                ConvShape::new(n, k, c, r, s, h, w, stride).expect("non-zero extents")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The database stores schedules in canonical coordinates. Mapping a
        /// directly-solved schedule into canonical coordinates and back must
        /// be the identity, so the denormalized schedule executes bit-for-bit
        /// equal to solving the raw shape directly. A schedule solved on the
        /// canonical (possibly transposed / padded) spec, denormalized to the
        /// raw shape, must also be valid and compute the right convolution.
        #[test]
        fn denormalized_schedules_execute_bit_for_bit(
            shape in small_shape(),
            seed in 0u64..1000,
        ) {
            let machine = MachineModel::tiny_test_machine();
            let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::default() };
            let direct =
                MOptOptimizer::new(shape, machine.clone(), options.clone()).optimize().best().config.clone();

            let (canonical, transform) = canonicalize(&shape);
            let stored = transform.canonicalize_config(&direct);
            let roundtrip = transform.denormalize_config(&stored);
            prop_assert_eq!(&roundtrip, &direct);

            let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), seed);
            let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, seed + 1);
            let a = TiledConv::new(shape, direct, 1).unwrap().run(&input, &kernel);
            let b = TiledConv::new(shape, roundtrip, 1).unwrap().run(&input, &kernel);
            prop_assert_eq!(a.as_slice(), b.as_slice());

            let canon_best =
                MOptOptimizer::new(canonical.shape, machine, options).optimize().best().config.clone();
            let adapted = transform.denormalize_config(&canon_best);
            prop_assert!(adapted.validate(&shape).is_ok());
            let reference = conv2d_naive(&shape, &input, &kernel);
            let out = TiledConv::new(shape, adapted, 1).unwrap().run(&input, &kernel);
            prop_assert!(reference.allclose(&out, 1e-3));
        }
    }
}

#[test]
fn fingerprints_are_process_stable() {
    // The FNV-1a fingerprints must not depend on process-randomized hashing:
    // recomputing in-process always agrees (std::hash::SipHash would not).
    for name in ["Y0", "R1*", "M9", "V5", "D2"] {
        assert_eq!(shape_fp(name), shape_fp(name));
    }
    assert_eq!(
        builders::mobilenet_v2_block(5).unwrap().fingerprint(),
        builders::mobilenet_v2_block(5).unwrap().fingerprint()
    );
}

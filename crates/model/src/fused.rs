//! Which convolution pairs can fuse.
//!
//! The per-operator model (and Algorithm 1) optimizes each convolution in
//! isolation, so the intermediate tensor between a producer and its consumer
//! is always stored to memory by one schedule and re-loaded by the next —
//! for MobileNet-style depthwise → pointwise pairs this round trip is the
//! dominant avoidable traffic. *Fusing* the pair lets the consumer read the
//! producer's output tile in cache. Structural feasibility ([`fusable_pair`])
//! requires the consumer to be a dense stride-1, dilation-1 pointwise op
//! whose input is exactly the producer's output — the pattern whose in-cache
//! consumption the fused executor in `conv_exec` realizes. The graph planner
//! (`mopt_graph`) owns the rest: the joint capacity envelope and the credit
//! of one deleted store and load of the intermediate.

use conv_spec::ConvShape;
use serde::{Deserialize, Serialize};

/// Why a producer → consumer pair cannot be fused (or `Fusable`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FusabilityCheck {
    /// The pair is structurally fusable.
    Fusable,
    /// The consumer is not a dense stride-1/dilation-1 pointwise op.
    ConsumerNotPointwise,
    /// The consumer's input tensor is not the producer's output tensor
    /// (channel or spatial mismatch).
    ShapeMismatch,
}

/// Structural fusability of a producer → consumer convolution pair.
///
/// Fusion (as modeled here and executed by `conv_exec`'s fused executor)
/// requires the consumer to read the intermediate tensor position-wise:
/// a dense 1x1, stride-1, dilation-1 convolution whose input dimensions are
/// exactly the producer's output dimensions. The producer may be any
/// convolution (the executable depthwise → pointwise case is a subset).
pub fn fusable_pair(producer: &ConvShape, consumer: &ConvShape) -> FusabilityCheck {
    if !consumer.is_pointwise()
        || consumer.stride != 1
        || consumer.dilation != 1
        || consumer.groups != 1
    {
        return FusabilityCheck::ConsumerNotPointwise;
    }
    if consumer.input_dims() != producer.output_dims() {
        return FusabilityCheck::ShapeMismatch;
    }
    FusabilityCheck::Fusable
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::ConvShape;

    fn dw_pw_pair() -> (ConvShape, ConvShape) {
        // A MobileNet-style stage: depthwise 3x3 then pointwise projection.
        let dw = ConvShape::depthwise(16, 18, 3, 1); // out 16x16
        let pw = ConvShape::new(1, 8, 16, 1, 1, dw.h, dw.w, 1).unwrap();
        (dw, pw)
    }

    #[test]
    fn structural_fusability() {
        let (dw, pw) = dw_pw_pair();
        assert_eq!(fusable_pair(&dw, &pw), FusabilityCheck::Fusable);
        // A 3x3 consumer is not fusable.
        let conv3 = ConvShape::new(1, 8, 16, 3, 3, dw.h - 2, dw.w - 2, 1).unwrap();
        assert_eq!(fusable_pair(&dw, &conv3), FusabilityCheck::ConsumerNotPointwise);
        // A pointwise consumer with the wrong channel count mismatches.
        let wrong = ConvShape::new(1, 8, 32, 1, 1, dw.h, dw.w, 1).unwrap();
        assert_eq!(fusable_pair(&dw, &wrong), FusabilityCheck::ShapeMismatch);
        // Strided and grouped pointwise consumers are rejected.
        let strided = ConvShape::new(1, 8, 16, 1, 1, dw.h / 2, dw.w / 2, 2).unwrap();
        assert_eq!(fusable_pair(&dw, &strided), FusabilityCheck::ConsumerNotPointwise);
    }
}

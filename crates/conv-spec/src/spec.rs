//! The generalized problem IR: conv, matmul, pooling, and elementwise
//! computations as one tagged [`Spec`] type.
//!
//! The optimizer's analytical machinery — per-level footprints, capacity and
//! dominance pruning, certified bottleneck costs — is defined over the
//! seven-index conv2d loop nest, but none of it is conv-*specific*: every
//! other problem class this module adds embeds into that nest exactly.
//!
//! * **Matmul** `C[m][n] += A[m][k] · B[k][n]` is the conv nest with
//!   `N=1, K=m, C=k, R=S=H=1, W=n`: the kernel tensor `Ker[K][C][1][1]`
//!   *is* `A` (row-major `m×k`), the input `In[1][C][1][W]` *is* `B`
//!   (row-major `k×n`), and the output `Out[1][K][1][W]` *is* `C`
//!   (row-major `m×n`). This is precisely the GEMM that `im2col` lowers a
//!   pointwise conv to, so schedules and cost expressions transfer verbatim.
//! * **Pooling** over a `window × window` region with a stride is the
//!   depthwise conv nest (`groups == C == K`) with `R = S = window` — the
//!   data access pattern (and therefore every footprint and traffic
//!   expression) of max/average pooling is identical to a depthwise
//!   convolution of the same geometry; only the reduction operator differs,
//!   and the cost model never looks at the operator.
//! * **Elementwise** maps over `len` elements are the degenerate nest
//!   `N=K=C=R=S=H=1, W=len`: pure streaming traffic.
//!
//! [`Spec::embedded_conv_shape`] realizes the embedding;
//! [`Spec::fingerprint`] keys caches and the persistent database, with
//! `Spec::Conv` fingerprinting **bit-identically** to the bare
//! [`ConvShape`] it wraps so every pre-existing cache entry, snapshot, and
//! database page stays valid. On the wire a spec is a tagged single-key
//! object (`{"Conv": {...}}`, `{"Matmul": {...}}`, ...); a bare conv-shape
//! object is accepted as a legacy alias for `Spec::Conv`.

use serde::{Deserialize, Serialize};

use crate::shape::{checked_product, ConvShape};
use crate::{Fnv1a, SpecError};

/// Element type of a problem's tensors.
///
/// The executors currently compute in `f32`; `I8` is carried through
/// fingerprints and the wire format so quantized records are first-class
/// keys before the int8 executors land.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit IEEE-754 float (the default everywhere).
    #[default]
    F32,
    /// 8-bit signed integer (quantized serving).
    I8,
}

impl DType {
    fn tag(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::I8 => 1,
        }
    }
}

/// The reduction operator of a pooling spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window.
    Avg,
}

impl PoolKind {
    fn tag(self) -> u8 {
        match self {
            PoolKind::Max => 0,
            PoolKind::Avg => 1,
        }
    }
}

/// The operator of an elementwise spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EwOp {
    /// `max(x, 0)`.
    Relu,
    /// `x + y` (two inputs).
    Add,
    /// `x · y` (two inputs).
    Mul,
}

impl EwOp {
    fn tag(self) -> u8 {
        match self {
            EwOp::Relu => 0,
            EwOp::Add => 1,
            EwOp::Mul => 2,
        }
    }

    /// Number of input tensors the operator reads.
    pub fn arity(self) -> usize {
        match self {
            EwOp::Relu => 1,
            EwOp::Add | EwOp::Mul => 2,
        }
    }
}

/// A problem specification: the tagged union the whole serving stack keys on.
///
/// Every variant embeds into the conv2d loop nest
/// ([`Spec::embedded_conv_shape`]), so one optimizer, one cost model, and
/// one schedule database serve all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Spec {
    /// A convolution (the original problem class).
    Conv(ConvShape),
    /// A matrix multiplication `C[m][n] += A[m][k] · B[k][n]`.
    Matmul {
        /// Rows of `A` and `C`.
        m: usize,
        /// Columns of `B` and `C`.
        n: usize,
        /// The reduction extent (columns of `A`, rows of `B`).
        k: usize,
        /// Element type.
        dtype: DType,
    },
    /// 2-D pooling over `channels` feature maps.
    Pool {
        /// Reduction operator.
        kind: PoolKind,
        /// Batch size.
        n: usize,
        /// Number of channels (pooling is per-channel).
        channels: usize,
        /// Output height.
        h: usize,
        /// Output width.
        w: usize,
        /// Square window extent.
        window: usize,
        /// Window stride.
        stride: usize,
    },
    /// An elementwise map over `len` elements.
    Elementwise {
        /// The operator.
        op: EwOp,
        /// Number of output elements.
        len: usize,
        /// Whether the inputs are read with a non-unit stride (stride 2);
        /// the traffic model treats strided streams as uncoalesced.
        strided: bool,
    },
}

impl Spec {
    /// Wrap a conv shape.
    pub fn conv(shape: ConvShape) -> Self {
        Spec::Conv(shape)
    }

    /// A dense f32 matmul spec.
    pub fn matmul(m: usize, n: usize, k: usize) -> Self {
        Spec::Matmul { m, n, k, dtype: DType::F32 }
    }

    /// Validate the extents: every extent and the stride non-zero, and the
    /// flops and tensor sizes within `usize` (a matmul, pool or elementwise
    /// problem is as large as the convolution it embeds into).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidShape`] naming the zero field, or the
    /// extent at which a size overflowed.
    pub fn validate(&self) -> Result<(), SpecError> {
        let bad = |what: &str| Err(SpecError::InvalidShape(format!("{what} must be non-zero")));
        match *self {
            Spec::Conv(_) => return Ok(()), // ConvShape constructors already validate.
            Spec::Matmul { m, n, k, .. } => {
                if m == 0 || n == 0 || k == 0 {
                    return bad("matmul m/n/k");
                }
                checked_product("matmul flops", "2·m·n·k", &[2, m, n, k])?;
            }
            Spec::Pool { n, channels, h, w, window, stride, .. } => {
                if n == 0 || channels == 0 || h == 0 || w == 0 || window == 0 || stride == 0 {
                    return bad("pool n/channels/h/w/window/stride");
                }
                let factors = [2, n, channels, window, window, h, w];
                checked_product("pool flops", "2·n·channels·window·window·h·w", &factors)?;
            }
            Spec::Elementwise { len, .. } => {
                if len == 0 {
                    return bad("elementwise len");
                }
                checked_product("elementwise flops", "2·len", &[2, len])?;
            }
        }
        // What the named checks above leave (input extents, tensor sizes) is
        // the embedded shape's own validation, in its terms.
        self.embed().map(|_| ())
    }

    fn embed(&self) -> Result<ConvShape, SpecError> {
        match *self {
            Spec::Conv(shape) => Ok(shape),
            Spec::Matmul { m, n, k, .. } => ConvShape::new(1, m, k, 1, 1, 1, n, 1),
            // Per-channel pooling is the depthwise grouping.
            Spec::Pool { n, channels, h, w, window, stride, .. } => ConvShape::new_general(
                n, channels, channels, window, window, h, w, stride, 1, channels,
            ),
            Spec::Elementwise { len, .. } => ConvShape::new(1, 1, 1, 1, 1, 1, len, 1),
        }
    }

    /// The conv2d loop nest this problem embeds into (see the module docs
    /// for why each mapping is access-pattern exact).
    ///
    /// # Panics
    ///
    /// Panics if the spec does not [`validate`](Self::validate).
    pub fn embedded_conv_shape(&self) -> ConvShape {
        self.embed().expect("a validated spec embeds into a valid conv shape")
    }

    /// Stable FNV-1a fingerprint.
    ///
    /// `Spec::Conv` hashes **exactly** like the bare [`ConvShape`]
    /// (`shape.fingerprint()`, no variant tag), so cache keys, snapshots,
    /// and database pages written before the spec IR existed keep resolving
    /// to the same entries. The other variants fold a variant tag byte first
    /// so a matmul can never collide with the conv it embeds into.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        match *self {
            Spec::Conv(shape) => return shape.fingerprint(),
            Spec::Matmul { m, n, k, dtype } => {
                hash.u64(1);
                hash.u64(m as u64);
                hash.u64(n as u64);
                hash.u64(k as u64);
                hash.u64(dtype.tag() as u64);
            }
            Spec::Pool { kind, n, channels, h, w, window, stride } => {
                hash.u64(2);
                hash.u64(kind.tag() as u64);
                hash.u64(n as u64);
                hash.u64(channels as u64);
                hash.u64(h as u64);
                hash.u64(w as u64);
                hash.u64(window as u64);
                hash.u64(stride as u64);
            }
            Spec::Elementwise { op, len, strided } => {
                hash.u64(3);
                hash.u64(op.tag() as u64);
                hash.u64(len as u64);
                hash.u64(strided as u64);
            }
        }
        hash.finish()
    }

    /// Total floating-point (or integer) operations.
    pub fn flops(&self) -> usize {
        match *self {
            Spec::Conv(shape) => shape.flops(),
            // Matmul and pool inherit the embedded nest's arithmetic count.
            Spec::Matmul { .. } | Spec::Pool { .. } => self.embedded_conv_shape().flops(),
            Spec::Elementwise { op, len, .. } => op.arity() * len,
        }
    }

    /// Number of output elements.
    pub fn output_elems(&self) -> usize {
        self.embedded_conv_shape().output_elems()
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        match *self {
            Spec::Conv(shape) => shape.describe(),
            Spec::Matmul { m, n, k, dtype } => format!("matmul {m}x{k} * {k}x{n} ({dtype:?})"),
            Spec::Pool { kind, n, channels, h, w, window, stride } => {
                format!("{kind:?}pool N{n} C{channels} HW{h}x{w} win{window} s{stride}")
            }
            Spec::Elementwise { op, len, strided } => {
                format!("{op:?} len {len}{}", if strided { " strided" } else { "" })
            }
        }
    }
}

/// The one wire rule for a problem embedded as a field of a larger object
/// (a cache key, a named layer): convolutions keep the legacy flat `"shape"`
/// field — byte-identical to pre-spec snapshots, db pages and requests —
/// anything else is a tagged `"spec"` field, and parsing accepts either.
impl Spec {
    /// Write this problem as one field — name, then value — of the object
    /// open on `sink`.
    pub fn serialize_field<S: serde::Sink>(&self, sink: &mut S) {
        match self {
            Spec::Conv(shape) => sink.field("shape", shape),
            other => sink.field("spec", other),
        }
    }

    /// Parse the problem out of an object's `pairs`: `"spec"` wins, a legacy
    /// `"shape"` is the fallback. `context` names the enclosing type in
    /// errors.
    ///
    /// # Errors
    ///
    /// Fails when neither field is present or the one present does not parse.
    pub fn from_fields(
        pairs: &[(String, serde::Value)],
        context: &str,
    ) -> Result<Self, serde::DeError> {
        if let Some(spec) = serde::de_field::<Option<Spec>>(pairs, "spec", context)? {
            return Ok(spec);
        }
        let shape: Option<ConvShape> = serde::de_field(pairs, "shape", context)?;
        shape.map(Spec::Conv).ok_or_else(|| {
            serde::DeError::custom(format!("{context} needs a `spec` or legacy `shape` field"))
        })
    }
}

impl From<ConvShape> for Spec {
    fn from(shape: ConvShape) -> Self {
        Spec::Conv(shape)
    }
}

impl std::fmt::Display for Spec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

impl Deserialize for Spec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v.as_object().ok_or_else(|| serde::DeError::expected("object", "Spec"))?;
        // Tagged form: a single-key object whose key names the variant.
        if let Some((tag, body)) = obj.first() {
            let spec = match tag.as_str() {
                "Conv" => Some(Spec::Conv(ConvShape::from_value(body)?)),
                "Matmul" => {
                    let fields = body
                        .as_object()
                        .ok_or_else(|| serde::DeError::expected("object", "Spec::Matmul"))?;
                    let dtype = match fields.iter().find(|(key, _)| key == "dtype") {
                        None | Some((_, serde::Value::Null)) => DType::F32,
                        Some((_, value)) => DType::from_value(value)?,
                    };
                    Some(Spec::Matmul {
                        m: serde::de_field(fields, "m", "Spec::Matmul")?,
                        n: serde::de_field(fields, "n", "Spec::Matmul")?,
                        k: serde::de_field(fields, "k", "Spec::Matmul")?,
                        dtype,
                    })
                }
                "Pool" => {
                    let fields = body
                        .as_object()
                        .ok_or_else(|| serde::DeError::expected("object", "Spec::Pool"))?;
                    Some(Spec::Pool {
                        kind: serde::de_field(fields, "kind", "Spec::Pool")?,
                        n: serde::de_field(fields, "n", "Spec::Pool")?,
                        channels: serde::de_field(fields, "channels", "Spec::Pool")?,
                        h: serde::de_field(fields, "h", "Spec::Pool")?,
                        w: serde::de_field(fields, "w", "Spec::Pool")?,
                        window: serde::de_field(fields, "window", "Spec::Pool")?,
                        stride: serde::de_field(fields, "stride", "Spec::Pool")?,
                    })
                }
                "Elementwise" => {
                    let fields = body
                        .as_object()
                        .ok_or_else(|| serde::DeError::expected("object", "Spec::Elementwise"))?;
                    Some(Spec::Elementwise {
                        op: serde::de_field(fields, "op", "Spec::Elementwise")?,
                        len: serde::de_field(fields, "len", "Spec::Elementwise")?,
                        strided: serde::de_field(fields, "strided", "Spec::Elementwise")?,
                    })
                }
                _ => None,
            };
            if let Some(spec) = spec {
                spec.validate()
                    .map_err(|e| serde::DeError::custom(format!("invalid Spec: {e}")))?;
                return Ok(spec);
            }
        }
        // Legacy alias: a bare conv-shape object is Spec::Conv.
        ConvShape::from_value(v).map(Spec::Conv).map_err(|_| {
            serde::DeError::expected("a tagged Spec object or a bare ConvShape object", "Spec")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_spec_fingerprint_matches_the_bare_shape() {
        let shape = ConvShape::new(1, 32, 16, 3, 3, 56, 56, 1).unwrap();
        assert_eq!(Spec::Conv(shape).fingerprint(), shape.fingerprint());
    }

    #[test]
    fn specs_too_large_for_usize_do_not_validate() {
        let big = 1usize << (usize::BITS / 2);
        let message = |spec: Spec| spec.validate().unwrap_err().to_string();
        assert_eq!(
            message(Spec::matmul(big, big, big)),
            format!("invalid shape: matmul flops 2·m·n·k overflows at n = {big}")
        );
        let pool = |channels, h, w, stride| Spec::Pool {
            kind: PoolKind::Avg,
            n: 1,
            channels,
            h,
            w,
            window: 3,
            stride,
        };
        assert_eq!(
            message(pool(big, big, big, 1)),
            format!(
                "invalid shape: pool flops 2·n·channels·window·window·h·w overflows at h = {big}"
            )
        );
        // The named flops fit; the embedded shape's input extent does not.
        assert!(message(pool(1, usize::MAX / 32, 1, 64)).contains("input extent overflows at h = "));
        let len = usize::MAX / 2 + 1;
        assert_eq!(
            message(Spec::Elementwise { op: EwOp::Relu, len, strided: false }),
            format!("invalid shape: elementwise flops 2·len overflows at len = {len}")
        );
        assert!(Spec::matmul(1 << 20, 1 << 20, 1 << 20).validate().is_ok());
    }

    #[test]
    fn matmul_embeds_as_the_im2col_gemm_nest() {
        let spec = Spec::matmul(64, 196, 512);
        let conv = spec.embedded_conv_shape();
        assert_eq!((conv.n, conv.k, conv.c), (1, 64, 512));
        assert_eq!((conv.r, conv.s, conv.h, conv.w), (1, 1, 1, 196));
        assert_eq!(conv.stride, 1);
        // FLOPs of the embedding are the matmul's 2·m·n·k.
        assert_eq!(spec.flops(), 2 * 64 * 196 * 512);
        assert_eq!(spec.output_elems(), 64 * 196);
    }

    #[test]
    fn pool_embeds_as_a_depthwise_conv() {
        let spec = Spec::Pool {
            kind: PoolKind::Max,
            n: 1,
            channels: 64,
            h: 56,
            w: 56,
            window: 3,
            stride: 2,
        };
        let conv = spec.embedded_conv_shape();
        assert!(conv.is_depthwise());
        assert_eq!((conv.k, conv.c, conv.groups), (64, 64, 64));
        assert_eq!((conv.r, conv.s, conv.stride), (3, 3, 2));
    }

    #[test]
    fn elementwise_embeds_as_a_stream() {
        let spec = Spec::Elementwise { op: EwOp::Add, len: 4096, strided: false };
        let conv = spec.embedded_conv_shape();
        assert_eq!(conv.output_elems(), 4096);
        assert_eq!(spec.flops(), 2 * 4096);
    }

    #[test]
    fn fingerprints_distinguish_classes_and_fields() {
        let mm = Spec::matmul(64, 196, 512);
        // The embedded conv of a matmul is a *different* key from the matmul
        // itself: the class tag separates them.
        assert_ne!(mm.fingerprint(), Spec::Conv(mm.embedded_conv_shape()).fingerprint());
        assert_ne!(mm.fingerprint(), Spec::matmul(196, 64, 512).fingerprint());
        assert_ne!(
            mm.fingerprint(),
            Spec::Matmul { m: 64, n: 196, k: 512, dtype: DType::I8 }.fingerprint()
        );
        let pool =
            Spec::Pool { kind: PoolKind::Max, n: 1, channels: 8, h: 8, w: 8, window: 2, stride: 2 };
        let avg =
            Spec::Pool { kind: PoolKind::Avg, n: 1, channels: 8, h: 8, w: 8, window: 2, stride: 2 };
        assert_ne!(pool.fingerprint(), avg.fingerprint());
        assert_ne!(
            Spec::Elementwise { op: EwOp::Relu, len: 64, strided: false }.fingerprint(),
            Spec::Elementwise { op: EwOp::Relu, len: 64, strided: true }.fingerprint(),
        );
    }

    #[test]
    fn tagged_round_trip_preserves_every_variant() {
        let specs = [
            Spec::Conv(ConvShape::new(2, 8, 4, 3, 3, 10, 10, 1).unwrap()),
            Spec::matmul(1000, 1, 2048),
            Spec::Matmul { m: 3, n: 5, k: 7, dtype: DType::I8 },
            Spec::Pool {
                kind: PoolKind::Avg,
                n: 1,
                channels: 2048,
                h: 1,
                w: 1,
                window: 7,
                stride: 1,
            },
            Spec::Elementwise { op: EwOp::Mul, len: 100, strided: true },
        ];
        for spec in specs {
            let text = serde_json::to_string(&spec).unwrap();
            let back: Spec = serde_json::from_str(&text).unwrap();
            assert_eq!(spec, back, "round trip failed for {text}");
            assert_eq!(spec.fingerprint(), back.fingerprint());
        }
    }

    #[test]
    fn bare_conv_shape_objects_parse_as_legacy_conv_specs() {
        let shape = ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap();
        let legacy = serde_json::to_string(&shape).unwrap();
        assert!(legacy.starts_with("{\"n\""), "bare shape text: {legacy}");
        let spec: Spec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(spec, Spec::Conv(shape));
        assert_eq!(spec.fingerprint(), shape.fingerprint());
        // Matmul dtype is optional on the wire (defaults to f32).
        let spec: Spec = serde_json::from_str("{\"Matmul\":{\"m\":4,\"n\":5,\"k\":6}}").unwrap();
        assert_eq!(spec, Spec::matmul(4, 5, 6));
    }

    #[test]
    fn invalid_specs_are_rejected_on_parse() {
        for text in [
            "{\"Matmul\":{\"m\":0,\"n\":5,\"k\":6}}",
            "{\"Pool\":{\"kind\":\"Max\",\"n\":1,\"channels\":0,\"h\":1,\"w\":1,\"window\":1,\"stride\":1}}",
            "{\"Elementwise\":{\"op\":\"Relu\",\"len\":0,\"strided\":false}}",
            "{\"Unknown\":{}}",
            "42",
        ] {
            assert!(serde_json::from_str::<Spec>(text).is_err(), "{text} must not parse");
        }
    }
}
